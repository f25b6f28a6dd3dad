//! Precompiled clause templates: a WAM-lite flattening of clause heads and
//! bodies into compact preorder cell arrays, plus a compiled control skeleton
//! for the body.
//!
//! The seed interpreter re-translated every candidate clause's head (and, on
//! success, its body) from the IR tree into `Rc`-based runtime terms on
//! *every* activation attempt — a tree walk plus one allocation per compound
//! subterm, dominating the engine's hot path. A [`ClauseTemplate`] is built
//! once per clause at program-load time instead:
//!
//! * the head's arguments and the body are flattened into one contiguous
//!   [`Cell`] array in preorder, so walking a template is a cursor bump over
//!   a cache-friendly slice rather than pointer chasing;
//! * head unification ([`crate::machine::Machine`]) matches goal arguments
//!   directly against the cells and only *writes arena cells* for a template
//!   subtree when unification actually demands them (the goal side is an
//!   unbound variable) — bound input arguments unify without touching the
//!   term heap;
//! * the body is compiled into a flat array of executable [`Step`]s: plain
//!   goals keep their cell offset and are written into the arena at most
//!   once per execution, while control constructs — `;`, `->`/`;`
//!   if-then-else, `\+`, `!` and (nested) `&` — become dedicated steps whose
//!   arm positions are resolved at compile time, so the solve loop never
//!   materializes a control spine and never re-inspects its functor;
//! * `true` bodies (facts) are recognised up front and never materialized at
//!   all.
//!
//! The one construct that cannot always be classified statically is a
//! disjunction whose left operand is a variable: `(X ; E)` behaves as an
//! if-then-else when `X` is bound to `(C -> T)` at run time. Such goals (and
//! `&` conjunctions with variable arms, whose fork arity depends on run-time
//! flattening) conservatively compile to [`Step::Goal`] and take the
//! machine's materialized-cell dispatch path, which performs the run-time
//! check the seed engine always paid.

use crate::builtins::{self, Builtin};
use granlog_ir::symbol::well_known;
use granlog_ir::{Clause, Program, Symbol, Term};

/// One node of a flattened term, in preorder. A [`Cell::Struct`] with arity
/// `n` is immediately followed by its `n` argument subtrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// A clause-local variable index (offset by the activation's heap mark).
    Var(u32),
    /// Like [`Cell::Var`], but statically known to be this variable's *first*
    /// occurrence within the clause head. At activation time the heap slot is
    /// therefore guaranteed unbound, so head unification binds it directly
    /// without dereferencing it first. (Materialization treats it exactly
    /// like `Var`; a first occurrence consumed by materialization leaves the
    /// slot unbound, which later `Var` occurrences handle by the general
    /// path.)
    VarFirst(u32),
    /// An atom.
    Atom(Symbol),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A compound term: functor and arity; arguments follow in preorder.
    Struct(Symbol, u32),
}

/// A body goal the engine can execute *eagerly* during clause activation,
/// straight off the template cells, without materializing the goal term or
/// pushing a continuation frame. Only the deterministic builtin prefix of a
/// body qualifies — execution order is preserved exactly, so counters and
/// bindings are identical to pushing and popping the goals one by one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EagerGoal {
    /// An arithmetic comparison (`<`, `>`, `=<`, `>=`, `=:=`, `=\=`): both
    /// operand subtrees are evaluated directly from the cells.
    NumCompare { op: Builtin, lhs: u32, rhs: u32 },
    /// `Lhs is Rhs`: the right-hand side is evaluated from the cells and the
    /// result unified with the left-hand subtree.
    Is { lhs: u32, rhs: u32 },
    /// Any other builtin: the goal term is materialized and dispatched.
    Other { builtin: Builtin, goal: u32 },
}

/// A contiguous range of compiled [`Step`]s: `steps[start .. start + len]`.
///
/// Sequences are what control constructs schedule — a disjunction arm, an
/// if-then-else branch, a negated goal, a parallel arm — and what the machine
/// pushes onto its goal stack (in reverse, so execution runs left to right).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seq {
    /// Index of the sequence's first step within [`ClauseTemplate::steps`].
    pub start: u32,
    /// Number of steps in the sequence (zero for a `true`-only arm).
    pub len: u32,
}

/// One compiled, executable body step.
///
/// Plain goals carry their preorder cell offset and are materialized into
/// the arena when (and only when) they are executed. Control constructs
/// carry the compiled [`Seq`]s of their operands, so the solve loop starts a
/// disjunction, condition, negation or parallel conjunction without
/// materializing the construct or re-dispatching on its functor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// An ordinary goal (user predicate, builtin, or a run-time-classified
    /// construct such as a variable goal): materialize the subtree at this
    /// cell offset and dispatch the resulting cell.
    Goal(u32),
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

/// A clause compiled to preorder cell arrays: head argument subtrees first,
/// then the body subtree, plus the body's compiled [`Step`] skeleton.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseTemplate {
    cells: Vec<Cell>,
    /// Start offset of each head argument's subtree within `cells`.
    head_args: Vec<u32>,
    /// The body's leading builtin goals, executed during activation without
    /// materialization (see [`EagerGoal`]).
    eager: Vec<EagerGoal>,
    /// All compiled body steps (the top-level sequence and, after it, the
    /// sequences of nested control arms). Each [`Seq`] indexes into this.
    steps: Vec<Step>,
    /// Arm sequences of the clause's compiled parallel conjunctions;
    /// [`Step::Par`] indexes into this.
    par_arms: Vec<Seq>,
    /// Cell offset of each parallel arm's *term subtree*, aligned with
    /// `par_arms`. The spawn path materializes an arm from here when a
    /// parallel hook wants the arm as a self-contained term.
    par_arm_cells: Vec<u32>,
    /// The body's top-level sequence after the eager prefix: `','`-flattened
    /// with `true` literals dropped. Empty for facts: nothing to materialize,
    /// nothing to push.
    body: Seq,
    num_vars: u32,
}

impl ClauseTemplate {
    /// Compiles a clause into its template.
    pub fn compile(clause: &Clause) -> ClauseTemplate {
        let mut cells = Vec::new();
        let mut head_args = Vec::with_capacity(clause.head.args().len());
        for arg in clause.head.args() {
            head_args.push(cells.len() as u32);
            flatten(arg, &mut cells);
        }
        // Mark first occurrences of head variables (head traversal order is
        // exactly head-unification order).
        let mut seen = vec![false; clause.num_vars()];
        for cell in &mut cells {
            if let Cell::Var(v) = *cell {
                if !std::mem::replace(&mut seen[v as usize], true) {
                    *cell = Cell::VarFirst(v);
                }
            }
        }
        let body_start = cells.len() as u32;
        flatten(&clause.body, &mut cells);
        let mut goal_offsets = Vec::new();
        collect_body_goals(&cells, body_start as usize, &mut goal_offsets);
        // Split off the eagerly executable builtin prefix.
        let mut eager = Vec::new();
        let mut rest = Vec::new();
        let mut prefix = true;
        for &pos in &goal_offsets {
            if prefix {
                if let Some(step) = classify_eager(&cells, pos as usize) {
                    eager.push(step);
                    continue;
                }
                prefix = false;
            }
            rest.push(pos);
        }
        // Compile the remaining body into its control skeleton.
        let mut steps = Vec::new();
        let mut par_arms = ParArms::default();
        let body = compile_seq(&cells, &rest, &mut steps, &mut par_arms);
        ClauseTemplate {
            cells,
            head_args,
            eager,
            steps,
            par_arms: par_arms.seqs,
            par_arm_cells: par_arms.cell_positions,
            body,
            num_vars: clause.num_vars() as u32,
        }
    }

    /// The flattened cell array (head argument subtrees, then the body).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Start offsets of the head argument subtrees within [`Self::cells`].
    pub fn head_arg_positions(&self) -> &[u32] {
        &self.head_args
    }

    /// Number of distinct variables in the clause.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// The compiled body steps. [`Seq`]s — including [`Self::body_seq`] and
    /// every control-construct arm — index into this array.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Arm sequences of the clause's parallel conjunctions, indexed by
    /// [`Step::Par`].
    pub fn par_arms(&self) -> &[Seq] {
        &self.par_arms
    }

    /// Cell offset of each parallel arm's term subtree within
    /// [`Self::cells`], aligned with [`Self::par_arms`]. Used by the spawn
    /// path to materialize an arm as a self-contained goal term.
    pub fn par_arm_cell_positions(&self) -> &[u32] {
        &self.par_arm_cells
    }

    /// The body's top-level step sequence after the eager prefix,
    /// `','`-flattened with `true` literals dropped. Empty for facts:
    /// nothing to materialize, nothing to push.
    pub fn body_seq(&self) -> Seq {
        self.body
    }

    /// The body's eagerly executable builtin prefix.
    pub(crate) fn eager(&self) -> &[EagerGoal] {
        &self.eager
    }

    /// `true` if the clause body contributes no goals (a fact, or a body that
    /// is only `true` literals).
    pub fn body_is_true(&self) -> bool {
        self.body.len == 0 && self.eager.is_empty()
    }
}

/// Compiles every clause of a program, indexed by clause id.
pub fn compile_program(program: &Program) -> Vec<ClauseTemplate> {
    program
        .clauses()
        .iter()
        .map(ClauseTemplate::compile)
        .collect()
}

/// Collects the start offsets of the top-level sequential goals of the body
/// subtree rooted at `pos`, flattening `','` and dropping `true` literals —
/// the compile-time image of what the solve loop's conjunction dispatch would
/// do at run time. Returns the offset just past the subtree.
fn collect_body_goals(cells: &[Cell], pos: usize, out: &mut Vec<u32>) -> usize {
    let wk = well_known::get();
    match cells[pos] {
        Cell::Struct(s, 2) if s == wk.comma => {
            let mid = collect_body_goals(cells, pos + 1, out);
            collect_body_goals(cells, mid, out)
        }
        Cell::Atom(s) if s == wk.true_ => pos + 1,
        _ => {
            out.push(pos as u32);
            skip_subtree(cells, pos)
        }
    }
}

/// The collected parallel-conjunction arms of one clause: the compiled
/// [`Seq`] of each arm plus the cell offset of the arm's term subtree (the
/// spawn path's materialization point), kept aligned.
#[derive(Default)]
struct ParArms {
    seqs: Vec<Seq>,
    cell_positions: Vec<u32>,
}

/// Compiles a list of goal cell-offsets into a contiguous [`Seq`] of steps.
///
/// The sequence's own slots are reserved first and patched afterwards, so
/// every sequence occupies a contiguous range of `steps` even though
/// compiling a control construct appends its arm sequences behind it.
fn compile_seq(
    cells: &[Cell],
    goals: &[u32],
    steps: &mut Vec<Step>,
    par_arms: &mut ParArms,
) -> Seq {
    let start = steps.len();
    steps.resize(start + goals.len(), Step::Cut);
    for (k, &pos) in goals.iter().enumerate() {
        let step = compile_step(cells, pos as usize, steps, par_arms);
        steps[start + k] = step;
    }
    Seq {
        start: start as u32,
        len: goals.len() as u32,
    }
}

/// Compiles the (possibly `','`-structured) subtree at `pos` into a step
/// sequence: the compile-time image of pushing the subtree as a goal and
/// letting the solve loop flatten its conjunctions.
fn compile_subgoal(
    cells: &[Cell],
    pos: usize,
    steps: &mut Vec<Step>,
    par_arms: &mut ParArms,
) -> Seq {
    let mut goals = Vec::new();
    collect_body_goals(cells, pos, &mut goals);
    compile_seq(cells, &goals, steps, par_arms)
}

/// Compiles one body goal into its [`Step`]. Control constructs recognised
/// statically get dedicated steps; anything else — including the run-time
/// ambiguous cases documented in the module docs — becomes [`Step::Goal`].
fn compile_step(cells: &[Cell], pos: usize, steps: &mut Vec<Step>, par_arms: &mut ParArms) -> Step {
    let wk = well_known::get();
    match cells[pos] {
        Cell::Atom(s) if s == wk.cut => Step::Cut,
        Cell::Struct(s, 2) if s == wk.semicolon => {
            let left = pos + 1;
            let right = skip_subtree(cells, left);
            match cells[left] {
                Cell::Struct(a, 2) if a == wk.arrow => {
                    let cond = left + 1;
                    let then_pos = skip_subtree(cells, cond);
                    Step::IfThenElse {
                        cond: compile_subgoal(cells, cond, steps, par_arms),
                        then_: compile_subgoal(cells, then_pos, steps, par_arms),
                        else_: compile_subgoal(cells, right, steps, par_arms),
                    }
                }
                // A variable in the left operand can only be classified at
                // run time (it may be bound to `->`, turning the disjunction
                // into an if-then-else): keep the materialized-cell path.
                Cell::Var(_) | Cell::VarFirst(_) => Step::Goal(pos as u32),
                _ => Step::Disj {
                    left: compile_subgoal(cells, left, steps, par_arms),
                    right: compile_subgoal(cells, right, steps, par_arms),
                },
            }
        }
        Cell::Struct(s, 2) if s == wk.arrow => {
            let cond = pos + 1;
            let then_pos = skip_subtree(cells, cond);
            Step::IfThen {
                cond: compile_subgoal(cells, cond, steps, par_arms),
                then_: compile_subgoal(cells, then_pos, steps, par_arms),
            }
        }
        Cell::Struct(s, 1) if s == wk.not => Step::Not {
            inner: compile_subgoal(cells, pos + 1, steps, par_arms),
        },
        Cell::Struct(s, 2) if s == wk.par_and => {
            // Flatten nested `&` into arms at compile time. A variable arm
            // would be flattened further at run time if bound to another
            // `&` — the fork arity is then data-dependent, so such
            // conjunctions keep the materialized-cell path.
            let mut arm_pos = Vec::new();
            if collect_par_arms(cells, pos, &mut arm_pos) {
                let arms: Vec<Seq> = arm_pos
                    .iter()
                    .map(|&p| compile_subgoal(cells, p, steps, par_arms))
                    .collect();
                let arms_at = par_arms.seqs.len() as u32;
                let arms_len = arms.len() as u32;
                par_arms.seqs.extend(arms);
                par_arms
                    .cell_positions
                    .extend(arm_pos.iter().map(|&p| p as u32));
                Step::Par { arms_at, arms_len }
            } else {
                Step::Goal(pos as u32)
            }
        }
        _ => Step::Goal(pos as u32),
    }
}

/// Collects the arm offsets of a (possibly nested) `&` conjunction, exactly
/// as the machine's run-time flattening would. Returns `false` if any arm is
/// a variable, in which case the fork arity is not known statically.
fn collect_par_arms(cells: &[Cell], pos: usize, out: &mut Vec<usize>) -> bool {
    match cells[pos] {
        Cell::Struct(s, 2) if s == well_known::get().par_and => {
            let left = pos + 1;
            let right = skip_subtree(cells, left);
            collect_par_arms(cells, left, out) && collect_par_arms(cells, right, out)
        }
        Cell::Var(_) | Cell::VarFirst(_) => false,
        _ => {
            out.push(pos);
            true
        }
    }
}

/// Classifies a body goal as eagerly executable, if it is a builtin.
fn classify_eager(cells: &[Cell], pos: usize) -> Option<EagerGoal> {
    let (name, arity) = match cells[pos] {
        Cell::Atom(s) => (s, 0usize),
        Cell::Struct(s, a) => (s, a as usize),
        _ => return None,
    };
    let builtin = *builtins::table().get(&(name, arity))?;
    Some(match builtin {
        Builtin::NumLt
        | Builtin::NumGt
        | Builtin::NumLe
        | Builtin::NumGe
        | Builtin::NumEq
        | Builtin::NumNe => {
            let lhs = pos + 1;
            let rhs = skip_subtree(cells, lhs);
            EagerGoal::NumCompare {
                op: builtin,
                lhs: lhs as u32,
                rhs: rhs as u32,
            }
        }
        Builtin::Is => {
            let lhs = pos + 1;
            let rhs = skip_subtree(cells, lhs);
            EagerGoal::Is {
                lhs: lhs as u32,
                rhs: rhs as u32,
            }
        }
        _ => EagerGoal::Other {
            builtin,
            goal: pos as u32,
        },
    })
}

/// The offset just past the preorder subtree starting at `pos`.
pub(crate) fn skip_subtree(cells: &[Cell], pos: usize) -> usize {
    match cells[pos] {
        Cell::Struct(_, arity) => {
            let mut p = pos + 1;
            for _ in 0..arity {
                p = skip_subtree(cells, p);
            }
            p
        }
        _ => pos + 1,
    }
}

fn flatten(term: &Term, cells: &mut Vec<Cell>) {
    match term {
        Term::Var(v) => cells.push(Cell::Var(*v as u32)),
        Term::Atom(s) => cells.push(Cell::Atom(*s)),
        Term::Int(i) => cells.push(Cell::Int(*i)),
        Term::Float(x) => cells.push(Cell::Float(x.0)),
        Term::Struct(s, args) => {
            cells.push(Cell::Struct(*s, args.len() as u32));
            for arg in args {
                flatten(arg, cells);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use granlog_ir::parser::parse_program;

    fn clause(src: &str) -> Clause {
        parse_program(src).unwrap().clauses()[0].clone()
    }

    /// Materializes the template subtree at `*pos` the way the machine does
    /// — written into an arena whose activation variable block starts at
    /// `var_base` — and resolves it back to a source term, so clause
    /// variable `v` reads `Term::Var(var_base + v)`.
    fn materialize(t: &ClauseTemplate, pos: &mut usize, var_base: usize) -> Term {
        let program = Program::new();
        let mut machine = Machine::new(&program);
        machine.fresh_vars(var_base + t.num_vars());
        let cell = machine.write_template(t.cells(), pos, var_base);
        machine.resolve_cell(cell)
    }

    #[test]
    fn template_matches_from_ir_materialization() {
        let c = clause("app([H|T], L, [H|R]) :- app(T, L, R).");
        let t = ClauseTemplate::compile(&c);
        assert_eq!(t.num_vars(), 4);
        assert!(!t.body_is_true());
        for offset in [0usize, 10, 1000] {
            let mut pos = 0;
            for (k, pos0) in t.head_arg_positions().iter().enumerate() {
                pos = *pos0 as usize;
                assert_eq!(
                    materialize(&t, &mut pos, offset),
                    c.head.args()[k].offset_vars(offset),
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
        &t.steps()[seq.start as usize..(seq.start + seq.len) as usize]
    }

    #[test]
    fn facts_are_recognised() {
        let t = ClauseTemplate::compile(&clause("p(a, f(b))."));
        assert!(t.body_is_true());
        assert_eq!(t.body_seq().len, 0);
        assert_eq!(t.head_arg_positions().len(), 2);
    }

    #[test]
    fn body_steps_flatten_conjunctions_and_drop_true() {
        let c = clause("p(X) :- a(X), true, (b(X) ; c(X)), d(X) & e(X), f.");
        let t = ClauseTemplate::compile(&c);
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
        let c = clause("p(X) :- ( q(X), r(X) -> a(X), b(X) ; c(X) ).");
        let t = ClauseTemplate::compile(&c);
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
        let c = clause("p(X) :- q(X), !, \\+ r(X).");
        let t = ClauseTemplate::compile(&c);
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
        let c = clause("p(X, Y, Z) :- a(X) & b(Y) & c(Z).");
        let t = ClauseTemplate::compile(&c);
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
        let c = clause("p(G) :- ( G ; a ).");
        let t = ClauseTemplate::compile(&c);
        assert!(matches!(seq_steps(&t, t.body_seq())[0], Step::Goal(_)));
        let c = clause("p(G) :- G & b.");
        let t = ClauseTemplate::compile(&c);
        assert!(matches!(seq_steps(&t, t.body_seq())[0], Step::Goal(_)));
        // A variable *goal* is also a plain step (metacall at run time).
        let c = clause("p(G) :- G.");
        let t = ClauseTemplate::compile(&c);
        assert!(matches!(seq_steps(&t, t.body_seq())[0], Step::Goal(_)));
    }

    #[test]
    fn true_only_bodies_have_no_goals() {
        let t = ClauseTemplate::compile(&clause("p :- true, true."));
        assert!(t.body_is_true());
    }

    #[test]
    fn leading_builtins_compile_to_eager_steps() {
        let c = clause("fib(M, N) :- M > 1, M1 is M - 1, fib(M1, N1), N is N1.");
        let t = ClauseTemplate::compile(&c);
        // `M > 1` and `M1 is M - 1` are eager; the recursive call stops the
        // prefix, so the trailing `is` is pushed like any other goal.
        assert_eq!(t.eager().len(), 2);
        assert!(matches!(t.eager()[0], EagerGoal::NumCompare { .. }));
        assert!(matches!(t.eager()[1], EagerGoal::Is { .. }));
        assert_eq!(t.body_seq().len, 2);
        assert!(!t.body_is_true());
    }

    #[test]
    fn builtin_only_bodies_are_fully_eager() {
        let t = ClauseTemplate::compile(&clause("check(X) :- X > 0, X < 10."));
        assert_eq!(t.eager().len(), 2);
        assert_eq!(t.body_seq().len, 0);
        assert!(!t.body_is_true());
    }

    #[test]
    fn materialize_advances_cursor_past_subtree() {
        let c = clause("p(f(g(1), [a]), X).");
        let t = ClauseTemplate::compile(&c);
        let mut pos = t.head_arg_positions()[0] as usize;
        let first = materialize(&t, &mut pos, 0);
        assert_eq!(pos, t.head_arg_positions()[1] as usize);
        assert_eq!(first, c.head.args()[0]);
    }

    #[test]
    fn compile_program_is_indexed_by_clause_id() {
        let p = parse_program("a(1). b(2). a(3).").unwrap();
        let templates = compile_program(&p);
        assert_eq!(templates.len(), 3);
        let mut pos = templates[2].head_arg_positions()[0] as usize;
        assert_eq!(materialize(&templates[2], &mut pos, 0), Term::Int(3));
    }
}
