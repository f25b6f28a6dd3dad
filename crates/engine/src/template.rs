//! Precompiled clause templates: a WAM-lite flattening of clause heads and
//! bodies into compact arrays, built once per clause at program-load time.
//!
//! A [`ClauseTemplate`] holds the clause's `Layout` and the body compiled
//! against it:
//!
//! ```text
//!   cells   head arguments, then the body: the reader's preorder cells  } the
//!   images  the argument blocks of the subterms the machine writes      } layout
//!   head    one match op per head argument cell
//!   steps   the body's executable skeleton; the leading run of builtin
//!           steps is the eager prefix, the rest the pushed body
//!   code    postfix arithmetic, one range per static expression  (Is, NumCompare)
//! ```
//!
//! * **cells** — the clause's own [`Cell`]s, copied as they are:
//!   walking a template is a cursor bump over a cache-friendly slice
//!   rather than pointer chasing.
//! * **head ops** — the head's arguments compiled to one match instruction
//!   per cell (the `head_ops` module): a first occurrence of a variable, a
//!   later one, a constant, or a compound with the ops to pass over when it
//!   is written. Each op names its goal cell as `(slot, index)`: `bases[0]`
//!   is the goal's argument block and a compound matched against a goal
//!   compound sets its arguments' slot, which a last-argument compound
//!   shares with its parent. Head unification ([`crate::machine::Machine`])
//!   runs the ops against the goal and only *writes arena cells* for a
//!   head compound when the goal side is an unbound variable; bound input
//!   arguments unify without touching the term heap.
//! * **images** — the argument blocks of exactly the subterms the machine
//!   can be asked to write: every compound of the head, at any depth (what
//!   an unbound goal variable is bound to), each goal a call or a dispatch
//!   writes, and each `&` arm (on its way to another thread). A compound's
//!   block is followed by the blocks of its compound arguments, so writing
//!   it is one relocating copy of one contiguous range. The control spine
//!   and compiled arithmetic are never written and have no images.
//! * **steps** — the body compiled to a flat array of executable [`Step`]s.
//!   Control constructs — `;`, `->`/`;` if-then-else, `\+`, `!` and (nested)
//!   `&` — become dedicated steps whose arm positions are resolved at
//!   compile time, so the solve loop never materializes a control spine and
//!   never re-inspects its functor. Every other goal is classified once,
//!   here, wherever in the body it stands — top level, condition, branch,
//!   negation, disjunction or `&` arm: `is/2` and the arithmetic
//!   comparisons become [`BuiltinStep::Is`] / [`BuiltinStep::NumCompare`], any other
//!   builtin [`Step::Builtin`], a call to a predicate of the program
//!   [`Step::Call`]. `true` bodies (facts) are recognised up front and
//!   compile to nothing.
//! * **code** — each expression written in the clause is translated to
//!   postfix instructions with the operators already resolved
//!   ([`crate::arith`]); an arithmetic step never builds its goal term.
//!
//! # What is still decided at run time
//!
//! A goal that names no builtin and no predicate of the program, a variable
//! goal, and `fail` stay [`Step::Goal`]: the subtree is written from the
//! layout and dispatched by inspection, so an unknown predicate is reported
//! when — and only if — execution reaches it. The same path takes the one
//! control construct that cannot be classified statically, a disjunction
//! whose left operand is a variable (`(X ; E)` behaves as an if-then-else
//! when `X` is bound to `(C -> T)`), and `&` conjunctions with variable arms,
//! whose fork arity depends on run-time flattening. An expression built at
//! run time (`X = 1+2, Y is X`) reaches compiled code as a variable bound to
//! a compound, which the arithmetic module's heap evaluator takes over; so
//! does a written expression too deep for the compiled evaluator's operand
//! array, whose goal compiles to a plain [`Step::Builtin`].
//!
//! # Errors keep their place
//!
//! Compiling an expression cannot fail: an unknown function or constant
//! becomes a *trap* instruction at the position a walk of the term would
//! have met it, so the same error is raised at the same point of the same
//! execution as if the goal had been written and evaluated.

use crate::arith::{self, Instr};
use crate::head_ops::{self, HeadOp};
use crate::heap::HCell;
use granlog_ir::builtins::{self, Builtin, CmpOp};
use granlog_ir::symbol::well_known;
use granlog_ir::term::{AsTerm, Cell};
use granlog_ir::{Clause, FastMap, PredId, Program, Symbol};
use std::ops::Range;

/// A contiguous range of one of a template's arrays: `start .. start + len`.
///
/// Mostly of compiled [`Step`]s: sequences are what control constructs
/// schedule — a disjunction arm, an if-then-else branch, a negated goal, a
/// parallel arm — and what the machine pushes onto its goal stack (in
/// reverse, so execution runs left to right). An arithmetic step names its
/// code the same way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seq {
    /// Index of the sequence's first element within its array
    /// ([`ClauseTemplate::steps`], for a step sequence).
    pub start: u32,
    /// Number of elements in the sequence (zero for a `true`-only arm).
    pub len: u32,
}

impl Seq {
    pub(crate) fn since(start: usize, end: usize) -> Seq {
        Seq {
            start: start as u32,
            len: (end - start) as u32,
        }
    }

    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Terms compiled once into the two forms the machine reads: the reader's
/// preorder [`Cell`]s, which head unification matches, arithmetic compiles
/// from and body goals are classified by, and the *images* the arena is
/// written from.
///
/// Only a subterm [`Layout::lay_out`] was asked for has images: its
/// compounds' argument blocks, each reserved when its compound is met in
/// preorder and filled as the arguments go by. A block is followed by the
/// blocks of its compound arguments, so all the blocks of a laid-out
/// compound are one contiguous range, its *span*, whose length is the
/// compound's number of descendants: each fills one argument slot of it.
/// A variable is `Ref(v)` for term variable `v`, and a block index is an
/// index of the images. Writing a laid-out compound is therefore one
/// relocating copy of its span, which adds the variable base to every `Ref`
/// and moves every block index to where the copy lands — the one way
/// program and query text enter the machine's arena. A clause's layout
/// holds its head arguments and body ([`ClauseTemplate`]); a query goal is
/// laid out on its own.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Layout {
    cells: Vec<Cell>,
    images: Vec<HCell>,
    /// Per cell, where a laid-out compound's span starts in `images`, or
    /// [`NOT_LAID_OUT`].
    starts: Vec<u32>,
    /// One more than the largest variable number, or 0 with no variable.
    vars: u32,
}

/// The span start of a cell that has no images.
const NOT_LAID_OUT: u32 = u32::MAX;

impl Layout {
    /// Appends the preorder `cells` of one or more terms and returns the
    /// position of the first.
    pub(crate) fn add(&mut self, cells: &[Cell]) -> usize {
        let root = self.cells.len();
        for &cell in cells {
            if let Cell::Var(v) = cell {
                self.vars = self.vars.max(v as u32 + 1);
            }
        }
        self.cells.extend_from_slice(cells);
        self.starts.resize(self.cells.len(), NOT_LAID_OUT);
        root
    }

    /// Gives the subterm at `pos`, if it is a compound that has none yet,
    /// its images: every compound's argument block reserved in preorder,
    /// then filled from its arguments' cells. Two loops over the subterm's
    /// cells; nothing here recurses on the term's depth. A compound inside
    /// a laid-out one is laid out with it.
    pub(crate) fn lay_out(&mut self, pos: usize) {
        if !matches!(self.cells[pos], Cell::Struct(..)) || self.starts[pos] != NOT_LAID_OUT {
            return;
        }
        let end = self.end(pos);
        for at in pos..end {
            if let Cell::Struct(_, arity, _) = self.cells[at] {
                self.starts[at] = self.images.len() as u32;
                let block = self.images.len() + arity as usize;
                self.images.resize(block, HCell::Int(0));
            }
        }
        for at in pos..end {
            if let Cell::Struct(_, arity, _) = self.cells[at] {
                let (mut arg, block) = (at + 1, self.starts[at] as usize);
                for slot in block..block + arity as usize {
                    self.images[slot] = match self.cells[arg] {
                        Cell::Var(v) => HCell::Ref(v as u32),
                        Cell::Struct(name, arity, _) => {
                            HCell::Struct(name, arity, self.starts[arg])
                        }
                        constant => HCell::constant(constant),
                    };
                    arg = self.end(arg);
                }
            }
        }
    }

    /// Empties the layout, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.cells.clear();
        self.images.clear();
        self.starts.clear();
        self.vars = 0;
    }

    /// The preorder cells of the terms added, back to back.
    pub(crate) fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// One more than the largest variable number of the terms added, or 0:
    /// the size of the variable block a write of them refers to.
    pub(crate) fn vars(&self) -> usize {
        self.vars as usize
    }

    /// The position just past the subterm whose root cell is at `pos`.
    pub(crate) fn end(&self, pos: usize) -> usize {
        pos + self.cells[pos].extent()
    }

    /// The span of the laid-out compound at `pos`, with the image index of
    /// its first cell: the block indices in it count from there.
    pub(crate) fn images(&self, pos: usize) -> (u32, &[HCell]) {
        let start = self.starts[pos];
        debug_assert_ne!(start, NOT_LAID_OUT, "cell {pos} is not laid out");
        let len = self.cells[pos].extent() - 1;
        (start, &self.images[start as usize..start as usize + len])
    }
}

/// One compiled, executable body step.
///
/// Control constructs carry the compiled [`Seq`]s of their operands, so the
/// solve loop starts a disjunction, condition, negation or parallel
/// conjunction without materializing the construct or re-dispatching on its
/// functor. Arithmetic steps carry code and never build their goal; the
/// other statically identified goals carry the cell offset of the goal they
/// write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// A goal identified only at run time — a variable goal, a name that is
    /// neither a builtin nor a predicate of the program, a
    /// run-time-classified construct: write the subterm at this cell offset
    /// and dispatch the resulting cell.
    Goal(u32),
    /// A call to a predicate of the program, resolved at compile time.
    Call {
        /// The predicate's position in [`Program::predicates`] order.
        pred: u32,
        /// The goal's cell offset.
        goal: u32,
    },
    /// A deterministic builtin, which needs no goal-stack slot of its own: a
    /// leading run of these is executed during clause activation (the
    /// *eager prefix*). Execution order is preserved exactly, so counters
    /// and bindings are identical to pushing and popping the goals one by
    /// one.
    Builtin(BuiltinStep),
    /// `!`: prune choice points down to the activation's cut barrier.
    Cut,
    /// A plain disjunction `(Left ; Right)`.
    Disj {
        /// The first arm, run against the shared continuation in place.
        left: Seq,
        /// The alternative arm, held by a choice point.
        right: Seq,
    },
    /// An if-then-else `(Cond -> Then ; Else)` recognised at compile time.
    IfThenElse {
        /// The condition, solved to its first solution behind a barrier.
        cond: Seq,
        /// Branch taken (with the condition's bindings) if `cond` succeeds.
        then_: Seq,
        /// Branch taken (with the condition's bindings undone) otherwise.
        else_: Seq,
    },
    /// A bare if-then `(Cond -> Then)`: fails outright if `Cond` fails.
    IfThen {
        /// The condition, solved to its first solution behind a barrier.
        cond: Seq,
        /// Branch taken if the condition succeeds.
        then_: Seq,
    },
    /// Negation as failure `\+ Goal`.
    Not {
        /// The negated goal, solved behind a barrier; its bindings are
        /// undone whether it succeeds or fails.
        inner: Seq,
    },
    /// A parallel conjunction, flattened across nested `&` at compile time:
    /// the arms are `par_arms[arms_at .. arms_at + arms_len]`.
    Par {
        /// Index of the first arm within [`ClauseTemplate::par_arms`].
        arms_at: u32,
        /// Number of arms (the fork arity recorded in the task tree).
        arms_len: u32,
    },
}

/// A [`Step::Builtin`]: compiled arithmetic, or any other builtin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BuiltinStep {
    /// A builtin other than the arithmetic ones below: write the goal at
    /// this cell offset and dispatch it.
    Dispatch {
        /// The builtin to dispatch.
        builtin: Builtin,
        /// The goal's cell offset.
        goal: u32,
    },
    /// `Lhs is Rhs`: run the right-hand side's code and unify the result
    /// with the left-hand subtree.
    Is {
        /// Cell offset of the left-hand subtree.
        lhs: u32,
        /// The right-hand side's code, a range of the template's code array.
        rhs: Seq,
    },
    /// An arithmetic comparison: run both operands' code and compare.
    NumCompare {
        /// The comparison.
        op: CmpOp,
        /// The left operand's code.
        lhs: Seq,
        /// The right operand's code.
        rhs: Seq,
    },
}

/// A clause compiled to its arrays (see the module docs): its layout, the
/// body's [`Step`] skeleton and arithmetic code.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseTemplate {
    /// The head argument subtrees, one after another from cell 0, then the
    /// body subtree.
    layout: Layout,
    head_arity: u32,
    /// The head's match ops, one per cell of its arguments.
    head: Box<[HeadOp]>,
    /// The number of `bases` slots the head ops address.
    head_slots: u32,
    /// All compiled body steps (the top-level sequence and, after it, the
    /// sequences of nested control arms). Each [`Seq`] indexes into this.
    steps: Vec<Step>,
    /// The postfix code of every compiled expression; [`BuiltinStep::Is`] and
    /// [`BuiltinStep::NumCompare`] index into this.
    code: Vec<Instr>,
    /// Arm sequences of the clause's compiled parallel conjunctions;
    /// [`Step::Par`] indexes into this.
    par_arms: Vec<Seq>,
    /// Cell offset of each parallel arm's *term subtree*, aligned with
    /// `par_arms`. The spawn path writes an arm from here when a parallel
    /// hook wants the arm as a self-contained term.
    par_arm_cells: Vec<u32>,
    /// The leading builtin steps of the body's top-level sequence, run
    /// during activation.
    eager: Seq,
    /// The rest of the top-level sequence, pushed on the goal stack. Empty
    /// for facts: nothing to write, nothing to push.
    body: Seq,
    num_vars: u32,
}

/// A program's predicates numbered in [`Program::predicates`] order — how a
/// [`Step::Call`] names its callee. The image ([`crate::Image`]) numbers its
/// index entries in the same iteration order.
pub(crate) type PredTable = FastMap<(Symbol, usize), u32>;

impl ClauseTemplate {
    /// Compiles a clause of the program whose predicates are `preds`.
    pub(crate) fn compile(clause: &Clause, preds: &PredTable) -> ClauseTemplate {
        let mut layout = Layout::default();
        // The head's arguments follow its root cell.
        layout.add(&clause.head.cells()[1..]);
        let body_start = layout.add(clause.body.cells());
        let mut compiler = Compiler {
            layout: &layout,
            preds,
            steps: Vec::new(),
            code: Vec::new(),
            par_arms: Vec::new(),
            par_arm_cells: Vec::new(),
        };
        let top = compiler.subgoal(body_start);
        let eager = compiler.steps[top.range()]
            .iter()
            .take_while(|step| matches!(step, Step::Builtin(_)))
            .count() as u32;
        let Compiler {
            steps,
            code,
            par_arms,
            par_arm_cells,
            ..
        } = compiler;
        // What the machine writes: any compound of the head, and the goals
        // and arms the steps name. In order of position, so an arm is laid
        // out before the goals inside it, which share its images.
        let mut written: Vec<usize> = steps
            .iter()
            .filter_map(|step| match *step {
                Step::Goal(goal)
                | Step::Call { goal, .. }
                | Step::Builtin(BuiltinStep::Dispatch { goal, .. }) => Some(goal as usize),
                _ => None,
            })
            .chain(par_arm_cells.iter().map(|&arm| arm as usize))
            .collect();
        written.sort_unstable();
        for pos in (0..body_start).chain(written) {
            layout.lay_out(pos);
        }
        let head_arity = clause.head.args().len();
        let head_cells = &layout.cells()[..body_start];
        let (head, head_slots) = head_ops::compile(head_cells, head_arity, layout.vars());
        ClauseTemplate {
            layout,
            head_arity: head_arity as u32,
            head,
            head_slots,
            steps,
            code,
            par_arms,
            par_arm_cells,
            eager: Seq {
                start: top.start,
                len: eager,
            },
            body: Seq {
                start: top.start + eager,
                len: top.len - eager,
            },
            num_vars: clause.num_vars() as u32,
        }
    }

    /// The clause's layout: its preorder cells (head argument subtrees, then
    /// the body) and the images the machine writes its subterms from.
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Number of head arguments, whose subtrees start the clause's cells.
    pub fn head_arity(&self) -> usize {
        self.head_arity as usize
    }

    /// The head's match ops, one per cell of its arguments, in preorder.
    pub(crate) fn head_ops(&self) -> &[HeadOp] {
        &self.head
    }

    /// The number of `bases` slots [`Self::head_ops`] address: 0 for an
    /// atom head, else 1 plus the deepest nesting of compounds that are not
    /// their parent's last argument.
    pub(crate) fn head_slots(&self) -> usize {
        self.head_slots as usize
    }

    /// Number of distinct variables in the clause.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// The compiled body steps. [`Seq`]s — including [`Self::eager_seq`],
    /// [`Self::body_seq`] and every control-construct arm — index into this
    /// array.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The compiled arithmetic of the clause's [`BuiltinStep::Is`] and
    /// [`BuiltinStep::NumCompare`] steps.
    pub(crate) fn code(&self) -> &[Instr] {
        &self.code
    }

    /// Arm sequences of the clause's parallel conjunctions, indexed by
    /// [`Step::Par`].
    pub fn par_arms(&self) -> &[Seq] {
        &self.par_arms
    }

    /// Cell offset of each parallel arm's term subtree within
    /// the clause's cells, aligned with [`Self::par_arms`]. Used by the spawn
    /// path to write an arm as a self-contained goal term.
    pub fn par_arm_cell_positions(&self) -> &[u32] {
        &self.par_arm_cells
    }

    /// The body's eager prefix: the leading builtin steps of its top-level
    /// sequence, executed during clause activation.
    pub fn eager_seq(&self) -> Seq {
        self.eager
    }

    /// The body's top-level step sequence after the eager prefix,
    /// `','`-flattened with `true` literals dropped. Empty for facts:
    /// nothing to write, nothing to push.
    pub fn body_seq(&self) -> Seq {
        self.body
    }
}

/// Compiles every clause of a program, indexed by clause id.
pub fn compile_program(program: &Program) -> Vec<ClauseTemplate> {
    let preds: PredTable = program
        .predicates()
        .enumerate()
        .map(|(k, predicate)| ((predicate.id.name, predicate.id.arity), k as u32))
        .collect();
    program
        .clauses()
        .iter()
        .map(|clause| ClauseTemplate::compile(clause, &preds))
        .collect()
}

/// Collects the start offsets of the top-level sequential goals of the body
/// subtree rooted at `pos`, flattening `','` and dropping `true` literals —
/// the compile-time image of what the solve loop's conjunction dispatch would
/// do at run time. Returns the offset just past the subtree.
fn collect_body_goals(layout: &Layout, pos: usize, out: &mut Vec<u32>) -> usize {
    let wk = well_known::get();
    match layout.cells()[pos] {
        Cell::Struct(s, 2, _) if s == wk.comma => {
            let mid = collect_body_goals(layout, pos + 1, out);
            collect_body_goals(layout, mid, out)
        }
        Cell::Atom(s) if s == wk.true_ => pos + 1,
        _ => {
            out.push(pos as u32);
            layout.end(pos)
        }
    }
}

/// The arrays of a clause body under compilation.
struct Compiler<'a> {
    layout: &'a Layout,
    preds: &'a PredTable,
    steps: Vec<Step>,
    code: Vec<Instr>,
    /// The compiled [`Seq`] of each parallel arm and, aligned with it, the
    /// cell offset of the arm's term subtree (where the spawn path writes
    /// the arm from).
    par_arms: Vec<Seq>,
    par_arm_cells: Vec<u32>,
}

impl Compiler<'_> {
    /// Compiles the (possibly `','`-structured) subtree at `pos` into a
    /// contiguous [`Seq`] of steps: the compile-time image of pushing the
    /// subtree as a goal and letting the solve loop flatten its
    /// conjunctions.
    ///
    /// The sequence's own slots are reserved first and patched afterwards,
    /// so every sequence occupies a contiguous range of `steps` even though
    /// compiling a control construct appends its arm sequences behind it.
    fn subgoal(&mut self, pos: usize) -> Seq {
        let mut goals = Vec::new();
        collect_body_goals(self.layout, pos, &mut goals);
        let start = self.steps.len();
        self.steps.resize(start + goals.len(), Step::Cut);
        for (k, &pos) in goals.iter().enumerate() {
            self.steps[start + k] = self.step(pos as usize);
        }
        Seq::since(start, start + goals.len())
    }

    /// Compiles one body goal into its [`Step`]. Control constructs
    /// recognised statically get dedicated steps; the run-time ambiguous
    /// ones documented in the module docs become [`Step::Goal`]; anything
    /// else is a plain goal.
    fn step(&mut self, pos: usize) -> Step {
        let wk = well_known::get();
        let layout = self.layout;
        let cells = layout.cells();
        match cells[pos] {
            Cell::Atom(s) if s == wk.cut => Step::Cut,
            Cell::Struct(s, 2, _) if s == wk.semicolon => {
                let left = pos + 1;
                let right = layout.end(left);
                match cells[left] {
                    Cell::Struct(a, 2, _) if a == wk.arrow => {
                        let cond = left + 1;
                        let then_pos = layout.end(cond);
                        Step::IfThenElse {
                            cond: self.subgoal(cond),
                            then_: self.subgoal(then_pos),
                            else_: self.subgoal(right),
                        }
                    }
                    // A variable in the left operand can only be classified at
                    // run time (it may be bound to `->`, turning the disjunction
                    // into an if-then-else): keep the written-cell path.
                    Cell::Var(_) => Step::Goal(pos as u32),
                    _ => Step::Disj {
                        left: self.subgoal(left),
                        right: self.subgoal(right),
                    },
                }
            }
            Cell::Struct(s, 2, _) if s == wk.arrow => {
                let cond = pos + 1;
                let then_pos = layout.end(cond);
                Step::IfThen {
                    cond: self.subgoal(cond),
                    then_: self.subgoal(then_pos),
                }
            }
            Cell::Struct(s, 1, _) if s == wk.not => Step::Not {
                inner: self.subgoal(pos + 1),
            },
            Cell::Struct(s, 2, _) if s == wk.par_and => {
                // Flatten nested `&` into arms at compile time. A variable arm
                // would be flattened further at run time if bound to another
                // `&` — the fork arity is then data-dependent, so such
                // conjunctions keep the written-cell path.
                let mut arm_pos = Vec::new();
                if collect_par_arms(layout, pos, &mut arm_pos) {
                    let arms: Vec<Seq> = arm_pos.iter().map(|&p| self.subgoal(p)).collect();
                    let arms_at = self.par_arms.len() as u32;
                    let arms_len = arms.len() as u32;
                    self.par_arms.extend(arms);
                    self.par_arm_cells.extend(arm_pos.iter().map(|&p| p as u32));
                    Step::Par { arms_at, arms_len }
                } else {
                    Step::Goal(pos as u32)
                }
            }
            _ => self.goal(pos),
        }
    }

    /// Classifies a goal that is not a control construct — the one place a
    /// body goal is identified, whatever its position in the body. The
    /// order is the machine's run-time dispatch order: `fail` by name, then
    /// builtins (which shadow same-name predicates), then the program.
    fn goal(&mut self, pos: usize) -> Step {
        let wk = well_known::get();
        let key = match self.layout.cells()[pos] {
            Cell::Atom(s) if s != wk.fail && s != wk.false_ => (s, 0),
            Cell::Struct(s, arity, _) => (s, arity as usize),
            _ => return Step::Goal(pos as u32),
        };
        let goal = pos as u32;
        if let Some(builtin) = builtins::lookup(PredId::new(key.0, key.1)).map(|row| row.id) {
            let lhs = pos + 1;
            let code_mark = self.code.len();
            match builtin {
                Builtin::Is => {
                    if let Some(rhs) = self.expr(self.layout.end(lhs)) {
                        let lhs = lhs as u32;
                        return Step::Builtin(BuiltinStep::Is { lhs, rhs });
                    }
                }
                Builtin::NumCompare(op) => {
                    let rhs = self.layout.end(lhs);
                    if let (Some(lhs), Some(rhs)) = (self.expr(lhs), self.expr(rhs)) {
                        return Step::Builtin(BuiltinStep::NumCompare { op, lhs, rhs });
                    }
                    self.code.truncate(code_mark);
                }
                _ => {}
            }
            return Step::Builtin(BuiltinStep::Dispatch { builtin, goal });
        }
        match self.preds.get(&key) {
            Some(&pred) => Step::Call { pred, goal },
            None => Step::Goal(goal),
        }
    }

    /// Compiles the expression at `pos`, unless it is too deep for the
    /// compiled evaluator.
    fn expr(&mut self, pos: usize) -> Option<Seq> {
        let start = self.code.len();
        arith::compile(self.layout.cells(), pos, &mut self.code)
            .then(|| Seq::since(start, self.code.len()))
    }
}

/// Collects the arm offsets of a (possibly nested) `&` conjunction, exactly
/// as the machine's run-time flattening would. Returns `false` if any arm is
/// a variable, in which case the fork arity is not known statically.
fn collect_par_arms(layout: &Layout, pos: usize, out: &mut Vec<usize>) -> bool {
    match layout.cells()[pos] {
        Cell::Struct(s, 2, _) if s == well_known::get().par_and => {
            let left = pos + 1;
            let right = layout.end(left);
            collect_par_arms(layout, left, out) && collect_par_arms(layout, right, out)
        }
        Cell::Var(_) => false,
        _ => {
            out.push(pos);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use granlog_ir::parser::parse_program;
    use granlog_ir::Term;

    fn clause(src: &str) -> Clause {
        parse_program(src).unwrap().clauses()[0].clone()
    }

    /// A fact, or a body of `true` literals only.
    fn no_goals(t: &ClauseTemplate) -> bool {
        t.body_seq().len == 0 && t.eager_seq().len == 0
    }

    /// Where each head argument's subtree starts.
    fn head_positions(t: &ClauseTemplate) -> Vec<usize> {
        let mut next = 0;
        (0..t.head_arity())
            .map(|_| {
                let at = next;
                next = t.layout().end(at);
                at
            })
            .collect()
    }

    /// The template of the first clause of `src`, compiled against the
    /// predicates `src` defines.
    fn compile(src: &str) -> ClauseTemplate {
        compile_program(&parse_program(src).unwrap()).swap_remove(0)
    }

    /// Writes the template subtree at `*pos` the way the machine does —
    /// into an arena whose activation variable block starts at `var_base` —
    /// moves `*pos` past it, as head unification does after a write, and
    /// resolves it back to a source term, so clause variable `v` reads
    /// variable `var_base + v`.
    fn materialize(t: &ClauseTemplate, pos: &mut usize, var_base: usize) -> Term {
        let program = Program::new();
        let mut machine = Machine::new(&program);
        machine.fresh_vars(var_base + t.num_vars());
        let cell = machine.write(t.layout(), *pos, var_base);
        *pos = t.layout().end(*pos);
        machine.extract_cell(cell).unwrap()
    }

    #[test]
    fn template_matches_from_ir_materialization() {
        let src = "app([H|T], L, [H|R]) :- app(T, L, R).";
        let c = clause(src);
        let t = compile(src);
        assert_eq!(t.num_vars(), 4);
        assert!(!no_goals(&t));
        for offset in [0usize, 10, 1000] {
            let mut pos = 0;
            for (k, pos0) in head_positions(&t).into_iter().enumerate() {
                pos = pos0;
                assert_eq!(
                    materialize(&t, &mut pos, offset),
                    c.head.args().at(k).offset_vars(offset),
                    "head arg {k} at offset {offset}"
                );
            }
            // The body subtree follows the last head argument.
            assert_eq!(
                materialize(&t, &mut pos, offset),
                c.body.offset_vars(offset)
            );
        }
    }

    /// The steps of a sequence, as a slice of the template's step array.
    fn seq_steps(t: &ClauseTemplate, seq: Seq) -> &[Step] {
        &t.steps()[seq.range()]
    }

    #[test]
    fn facts_are_recognised() {
        let t = compile("p(a, f(b)).");
        assert!(no_goals(&t));
        assert_eq!(t.body_seq().len, 0);
        assert_eq!(t.head_arity(), 2);
    }

    #[test]
    fn body_steps_flatten_conjunctions_and_drop_true() {
        let t = compile("p(X) :- a(X), true, (b(X) ; c(X)), d(X) & e(X), f.");
        // Top-level steps: a(X), the disjunction, the parallel conjunction,
        // and f — `true` is dropped, `;` and `&` compile to control steps.
        let steps = seq_steps(&t, t.body_seq());
        assert_eq!(steps.len(), 4);
        assert!(matches!(steps[0], Step::Goal(_)));
        let (left, right) = match steps[1] {
            Step::Disj { left, right } => (left, right),
            other => panic!("expected a disjunction step, got {other:?}"),
        };
        assert_eq!((left.len, right.len), (1, 1));
        assert!(matches!(steps[2], Step::Par { arms_len: 2, .. }));
        assert!(matches!(steps[3], Step::Goal(_)));
    }

    #[test]
    fn if_then_else_compiles_with_arm_sequences() {
        let t = compile("p(X) :- ( q(X), r(X) -> a(X), b(X) ; c(X) ).");
        let steps = seq_steps(&t, t.body_seq());
        assert_eq!(steps.len(), 1);
        let (cond, then_, else_) = match steps[0] {
            Step::IfThenElse { cond, then_, else_ } => (cond, then_, else_),
            other => panic!("expected if-then-else, got {other:?}"),
        };
        // Conjunctions inside the arms are flattened at compile time.
        assert_eq!((cond.len, then_.len, else_.len), (2, 2, 1));
        assert!(seq_steps(&t, cond)
            .iter()
            .all(|s| matches!(s, Step::Goal(_))));
    }

    #[test]
    fn cut_and_negation_compile_to_steps() {
        let t = compile("p(X) :- q(X), !, \\+ r(X).");
        let steps = seq_steps(&t, t.body_seq());
        assert_eq!(steps.len(), 3);
        assert!(matches!(steps[0], Step::Goal(_)));
        assert!(matches!(steps[1], Step::Cut));
        let inner = match steps[2] {
            Step::Not { inner } => inner,
            other => panic!("expected negation, got {other:?}"),
        };
        assert_eq!(inner.len, 1);
    }

    #[test]
    fn nested_parallel_arms_flatten_at_compile_time() {
        let t = compile("p(X, Y, Z) :- a(X) & b(Y) & c(Z).");
        let steps = seq_steps(&t, t.body_seq());
        let (arms_at, arms_len) = match steps[0] {
            Step::Par { arms_at, arms_len } => (arms_at, arms_len),
            other => panic!("expected parallel step, got {other:?}"),
        };
        assert_eq!(arms_len, 3);
        assert_eq!(arms_at, 0);
        assert!(t.par_arms().iter().all(|arm| arm.len == 1));
    }

    #[test]
    fn variable_headed_constructs_fall_back_to_runtime_dispatch() {
        // `(Cond ; Else)` with a variable condition may turn out to be an
        // if-then-else at run time; `G & b` with a variable arm may flatten
        // further. Both must stay on the materialized-cell path.
        let t = compile("p(G) :- ( G ; a ).");
        assert!(matches!(seq_steps(&t, t.body_seq())[0], Step::Goal(_)));
        let t = compile("p(G) :- G & b.");
        assert!(matches!(seq_steps(&t, t.body_seq())[0], Step::Goal(_)));
        // A variable *goal* is also a plain step (metacall at run time).
        let t = compile("p(G) :- G.");
        assert!(matches!(seq_steps(&t, t.body_seq())[0], Step::Goal(_)));
    }

    #[test]
    fn true_only_bodies_have_no_goals() {
        let t = compile("p :- true, true.");
        assert!(no_goals(&t));
    }

    #[test]
    fn goals_are_resolved_at_compile_time() {
        // Numbered in `Program::predicates` order, whatever that is.
        let src = "p(X) :- q(X), r, X = 1, undefined(X), fail, 7. q(_). r.";
        let program = parse_program(src).unwrap();
        let number = |name: &str, arity| {
            program
                .predicates()
                .position(|p| p.id == granlog_ir::PredId::parse(name, arity))
                .unwrap() as u32
        };
        let t = compile(src);
        let steps = seq_steps(&t, t.body_seq());
        assert!(
            matches!(steps[0], Step::Call { pred, goal } if pred == number("q", 1)
                && matches!(t.layout().cells()[goal as usize], Cell::Struct(_, 1, _)))
        );
        assert!(
            matches!(steps[1], Step::Call { pred, goal } if pred == number("r", 0)
                && matches!(t.layout().cells()[goal as usize], Cell::Atom(_)))
        );
        assert!(matches!(
            steps[2],
            Step::Builtin(BuiltinStep::Dispatch {
                builtin: Builtin::Unify,
                ..
            })
        ));
        // An unknown predicate, `fail` and a non-callable goal are met at run
        // time, if execution gets there.
        assert!(steps[3..].iter().all(|s| matches!(s, Step::Goal(_))));
        assert_eq!(steps.len(), 6);
    }

    #[test]
    fn leading_builtins_compile_to_eager_steps() {
        let t = compile("fib(M, N) :- M > 1, M1 is M - 1, fib(M1, N1), N is N1.");
        // `M > 1` and `M1 is M - 1` run during activation; the recursive
        // call ends the prefix, and the trailing `is` is the same kind of
        // step, pushed.
        let eager = seq_steps(&t, t.eager_seq());
        assert!(matches!(
            eager,
            [
                Step::Builtin(BuiltinStep::NumCompare { op: CmpOp::Gt, .. }),
                Step::Builtin(BuiltinStep::Is { .. })
            ]
        ));
        let body = seq_steps(&t, t.body_seq());
        assert!(matches!(
            body,
            [Step::Call { .. }, Step::Builtin(BuiltinStep::Is { .. })]
        ));
        assert_eq!(t.body_seq().start, t.eager_seq().len);
        assert!(!no_goals(&t));
    }

    #[test]
    fn arithmetic_after_a_call_is_compiled_too() {
        let t = compile("p(N) :- q(N1), N is N1 + 1. q(0).");
        assert_eq!(t.eager_seq().len, 0);
        assert!(matches!(
            seq_steps(&t, t.body_seq()),
            [Step::Call { .. }, Step::Builtin(BuiltinStep::Is { .. })]
        ));
    }

    #[test]
    fn builtin_only_bodies_are_fully_eager() {
        let t = compile("check(X) :- X > 0, X < 10.");
        assert_eq!(t.eager_seq().len, 2);
        assert_eq!(t.body_seq().len, 0);
        assert!(!no_goals(&t));
    }

    #[test]
    fn arithmetic_is_compiled_in_every_body_position() {
        let t = compile(
            "p(X, Y) :- ( X mod 2 =:= 0 -> Y is X // 2 ; Y is 3 * X + 1 ), \
             \\+ X < 0, ( X > 5 ; X =< 5 ), (Y >= 0 & Y =\\= 1).",
        );
        let arithmetic = t
            .steps()
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Step::Builtin(BuiltinStep::Is { .. } | BuiltinStep::NumCompare { .. })
                )
            })
            .count();
        assert_eq!(arithmetic, 8);
        assert!(t.steps().iter().all(|s| !matches!(
            s,
            Step::Goal(_) | Step::Builtin(BuiltinStep::Dispatch { .. })
        )));
    }

    #[test]
    fn an_expression_too_deep_to_compile_is_a_plain_builtin() {
        let deep = (0..arith::MAX_OPERANDS).fold("X".to_owned(), |e, _| format!("(1 + {e})"));
        let t = compile(&format!("p(X, Y) :- Y is {deep}, {deep} < Y."));
        assert!(matches!(
            seq_steps(&t, t.eager_seq()),
            [
                Step::Builtin(BuiltinStep::Dispatch {
                    builtin: Builtin::Is,
                    ..
                }),
                Step::Builtin(BuiltinStep::Dispatch {
                    builtin: Builtin::NumCompare(CmpOp::Lt),
                    ..
                })
            ]
        ));
        assert!(t.code().is_empty());
    }

    /// Every position the machine writes from: each head cell, each goal a
    /// step writes and each `&` arm.
    fn written_positions(t: &ClauseTemplate) -> Vec<usize> {
        let body_start = head_positions(t).last().map_or(0, |&at| t.layout().end(at));
        let goals = t.steps().iter().filter_map(|step| match *step {
            Step::Goal(goal)
            | Step::Call { goal, .. }
            | Step::Builtin(BuiltinStep::Dispatch { goal, .. }) => Some(goal as usize),
            _ => None,
        });
        let arms = t.par_arm_cell_positions().iter().map(|&arm| arm as usize);
        (0..body_start).chain(goals).chain(arms).collect()
    }

    #[test]
    fn every_written_subterm_is_one_relocating_copy_of_its_span() {
        for src in [
            // Flat, nested list, nested structure in head and body, no
            // arguments, a dispatched builtin and a goal met at run time.
            "p(X, Y) :- q(X, a, 1, 2.5, Y, X). q(_, _, _, _, _, _).",
            "p(X, Y) :- q([X, [1, Y], []], [a | Y]). q(_, _).",
            "p(f(g(X, h(Y)), k), [X | T], T) :- q(f(g(X, h(Y)), k), X, t(t(t(Y)))). q(_, _, _).",
            "p(X, Y) :- X = f(Y, [Y]), q, r(g(X)). q.",
            // Arms, one a conjunction around a call, and a construct with a
            // variable arm, written whole.
            "p(X, Y) :- (q(f(X)), Y > 1) & q([Y]), (X & q(Y)). q(_).",
        ] {
            let t = compile(src);
            let layout = t.layout();
            let program = Program::new();
            let written = written_positions(&t);
            assert!(written.len() > t.head_arity(), "{src}");
            for pos in written {
                let end = layout.end(pos);
                for var_base in [0usize, 10, 1000] {
                    let mut machine = Machine::new(&program);
                    machine.fresh_vars(var_base + t.num_vars());
                    let before = machine.heap.len();
                    let cell = machine.write(layout, pos, var_base);
                    // The subterm's argument blocks and nothing else.
                    assert_eq!(machine.heap.len() - before, end - pos - 1, "{src} at {pos}");
                    let source = Term::from_cells(layout.cells()[pos..end].to_vec());
                    assert_eq!(
                        machine.extract_cell(cell).unwrap(),
                        source.offset_vars(var_base),
                        "{src} at {pos} from {var_base}"
                    );
                }
            }
        }
    }

    /// The images a template holds and the compounds they belong to.
    fn laid_out(t: &ClauseTemplate) -> (usize, usize) {
        let layout = t.layout();
        let compounds = layout.starts.iter().filter(|&&at| at != NOT_LAID_OUT);
        (layout.images.len(), compounds.count())
    }

    #[test]
    fn only_what_the_machine_writes_is_laid_out() {
        // The clause of the template pipeline's documentation: the head
        // arguments are variables, and the control spine and the arithmetic
        // are never written, so the recursive call is all there is.
        let t = compile(
            "steps(N, L) :- ( N mod 2 =:= 0 -> M is N // 2 ; M is 3 * N + 1 ), \
             steps(M, L1), L is L1 + 1.",
        );
        assert_eq!(laid_out(&t), (2, 1));
        // Every compound of the head, at any depth, and the called goal
        // with the compound inside it; `X = ...` is dispatched, not
        // compiled, so it is written too.
        let t = compile("p(f(g(X)), [Y]) :- q(h(X)), X = k(Y), Y > 0. q(_).");
        assert_eq!(laid_out(&t), (1 + 1 + 2 + 1 + 1 + 2 + 1, 7));
        // An arm and the goals inside it share the arm's images.
        let t = compile("p(X) :- (q(X), q(f(X))) & q(X). q(_).");
        assert_eq!(laid_out(&t), (2 + 1 + 1 + 1 + 1, 5));
    }

    #[test]
    fn a_layout_is_built_and_written_without_recursion() {
        // A 200 000-element list literal: laying it out and writing it are
        // loops, so neither needs a native frame per element.
        let n = 200_000;
        let list = Term::list((0..n).map(|i| Term::int(i as i64)));
        let mut layout = Layout::default();
        let root = layout.add(Term::compound("len", vec![list, Term::var(3)]).cells());
        layout.lay_out(root);
        assert_eq!((layout.end(root), layout.vars()), (2 * n + 3, 4));
        let program = Program::new();
        let mut machine = Machine::new(&program);
        machine.fresh_vars(layout.vars());
        let cell = machine.write(&layout, root, 0);
        assert_eq!(machine.heap.len(), layout.vars() + 2 * n + 2);
        let HCell::Struct(_, 2, args) = cell else {
            panic!("len/2")
        };
        let written = machine.extract_cell(machine.heap[args as usize]).unwrap();
        assert_eq!(written.list_length(), Some(n));
    }

    #[test]
    fn skip_subtree_steps_over_nested_structure() {
        // Cells: f/2 g/1 1 '.'/2 a [] | X | true.
        let t = compile("p(f(g(1), [a]), X).");
        assert_eq!(t.layout().end(0), 6);
        assert_eq!(t.layout().end(1), 3);
        assert_eq!(t.layout().end(3), 6);
        assert_eq!(t.layout().end(6), 7);
    }

    #[test]
    fn materialize_advances_cursor_past_subtree() {
        let src = "p(f(g(1), [a]), X).";
        let c = clause(src);
        let t = compile(src);
        let mut pos = 0;
        let first = materialize(&t, &mut pos, 0);
        assert_eq!(pos, 6);
        assert_eq!(c.head.args().at(0), first);
    }

    #[test]
    fn compile_program_is_indexed_by_clause_id() {
        let p = parse_program("a(1). b(2). a(3).").unwrap();
        let templates = compile_program(&p);
        assert_eq!(templates.len(), 3);
        let mut pos = 0;
        assert_eq!(materialize(&templates[2], &mut pos, 0), Term::int(3));
    }
}
