//! Clause activation: candidate selection, the head matcher, the eager
//! builtin prefix, and the layout writer by which source terms enter the arena.

use super::control::{Activation, Retry};
use super::{Charge, ClauseSelection, Machine};
use crate::arith;
use crate::builtins;
use crate::error::{EngineResult, TermLimit};
use crate::head_ops::Match;
use crate::heap::HCell;
use crate::image::Image;
use crate::template::{BuiltinStep, ClauseTemplate, Layout, Seq, Step};
use granlog_ir::symbol::well_known;
use granlog_ir::term;
use granlog_ir::{ClauseId, IndexKey};

/// The candidate-clause list of one call, owned by its choice point while
/// alternatives remain. The indexed path names a range of the image's
/// candidate array; the reference linear scan owns its filtered list.
pub(super) enum Cands {
    Indexed(Seq),
    Scanned(Box<[ClauseId]>),
}

impl Cands {
    fn as_slice<'a>(&'a self, image: &'a Image) -> &'a [ClauseId] {
        match self {
            Cands::Indexed(list) => image.clauses(*list),
            Cands::Scanned(v) => v,
        }
    }
}

impl Machine {
    /// Calls predicate number `pred` of the program with the materialized
    /// goal `goal`: selects the candidate clauses and tries them in order.
    pub(super) fn call_user(
        &mut self,
        image: &Image,
        pred: u32,
        goal: HCell,
    ) -> EngineResult<bool> {
        // First-argument indexing: the principal functor of the
        // dereferenced first argument selects the candidate clauses. The
        // index asks for it only if the predicate has a keyed clause.
        let goal_key = || match goal {
            HCell::Struct(_, _, args) => self.index_key_at(args as usize),
            _ => None,
        };
        let cands = match self.config.clause_selection {
            ClauseSelection::Indexed => Cands::Indexed(image.select(pred, goal_key)),
            // The seed's per-call linear scan with a key filter, kept for
            // differential testing of the index.
            ClauseSelection::LinearScan => Cands::Scanned(image.scan(pred, goal_key().as_ref())),
        };
        self.profiled_clauses(image, goal, cands, 0)
    }

    /// The index key of the (dereferenced) first goal argument: the
    /// goal-side counterpart of [`IndexKey::of_term`]. `None` for variables,
    /// which match every bucket.
    fn index_key_at(&self, first_arg: usize) -> Option<IndexKey> {
        match self.heap[self.deref_idx(first_arg)] {
            HCell::Ref(_) => None,
            HCell::Atom(s) => Some(IndexKey::Atom(s)),
            HCell::Int(i) => Some(IndexKey::Int(i)),
            HCell::Float(x) => Some(IndexKey::of_float(x)),
            HCell::Struct(s, arity, _) => Some(IndexKey::Struct(s, arity as usize)),
        }
    }

    /// Tries the candidate clauses of a call from `cursor` on. On the first
    /// activation whose head and eager builtin prefix succeed, pushes the
    /// compiled body sequence (and a choice point if candidates remain) and
    /// returns `true`. Returns `false` with the candidates exhausted.
    ///
    /// The choice-point height at entry is the activation's *cut barrier*:
    /// a `!` in the body prunes back to it, discarding both this call's
    /// remaining candidates and every choice point created since. (Retried
    /// calls observe the same height, because backtracking pops the
    /// alternatives record before retrying.)
    pub(super) fn try_clauses(
        &mut self,
        image: &Image,
        goal: HCell,
        cands: Cands,
        cursor: usize,
    ) -> EngineResult<bool> {
        let cut = self.choice_points.len() as u32;
        let trail_mark = self.trail.len();
        let heap_mark = self.heap.len();
        let goal_trail_mark = self.goal_trail.len();
        let goal_args = match goal {
            HCell::Struct(_, _, base) => base as usize,
            _ => 0,
        };
        let list = cands.as_slice(image);
        let total = list.len();
        let mut i = cursor;
        while i < total {
            let clause_id = list[i];
            let templ = &image.templates()[clause_id];
            self.charge_head_attempt()?;
            let var_base = self.fresh_vars(templ.num_vars());
            if self.unify_head(goal_args, templ, var_base)? {
                self.charge_resolution();
                // Run the body's leading builtins straight off the template
                // (no materialization, no goal-stack traffic). A failure
                // here fails the activation exactly where solving the pushed
                // goal would have.
                if self.run_eager_prefix(templ, var_base)? {
                    if i + 1 < total {
                        self.push_choice_point(
                            Retry::Clauses {
                                goal,
                                cands,
                                cursor: i + 1,
                            },
                            trail_mark,
                            heap_mark,
                            goal_trail_mark,
                        );
                    }
                    // Push the precompiled body sequence. Goals materialize
                    // lazily when executed; control constructs never
                    // materialize at all. Facts push nothing.
                    let clause = clause_id as u32;
                    let act = Activation {
                        clause,
                        var_base: var_base as u32,
                        cut,
                    };
                    self.push_seq(act, templ.body_seq())?;
                    return Ok(true);
                }
            }
            self.undo_to(trail_mark, heap_mark);
            i += 1;
        }
        Ok(false)
    }

    /// Executes a clause body's eager prefix — the leading builtin steps of
    /// its top-level sequence — during activation, with no goal-stack
    /// traffic. Returns `Ok(false)` as soon as one builtin fails.
    /// Counter-for-counter identical to pushing each step and running it
    /// through the solve loop.
    fn run_eager_prefix(&mut self, templ: &ClauseTemplate, var_base: usize) -> EngineResult<bool> {
        for &step in &templ.steps()[templ.eager_seq().range()] {
            if let Step::Builtin(step) = step {
                if !self.exec_builtin_step(templ, step, var_base)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Executes a builtin step of `templ` — the one executor behind the
    /// eager prefix and the solve loop. Arithmetic runs as compiled code
    /// against the activation's variables and builds no term; any other
    /// builtin writes its goal from the clause's layout and dispatches.
    pub(super) fn exec_builtin_step(
        &mut self,
        templ: &ClauseTemplate,
        step: BuiltinStep,
        var_base: usize,
    ) -> EngineResult<bool> {
        match step {
            BuiltinStep::NumCompare { op, lhs, rhs } => {
                self.charge_builtin();
                let code = templ.code();
                let a = arith::run(&self.heap, &mut self.arith, &code[lhs.range()], var_base)?;
                let b = arith::run(&self.heap, &mut self.arith, &code[rhs.range()], var_base)?;
                Ok(op.holds(a.compare(b)))
            }
            BuiltinStep::Is { lhs, rhs } => {
                self.charge_builtin();
                let code = &templ.code()[rhs.range()];
                let value = arith::run(&self.heap, &mut self.arith, code, var_base)?;
                let lhs = templ.layout().cells()[lhs as usize];
                Ok(self.unify_value_template(value.to_cell(), lhs, var_base)?)
            }
            BuiltinStep::Dispatch { builtin, goal } => {
                let goal = self.write(templ.layout(), goal as usize, var_base);
                builtins::dispatch(self, builtin, goal)
            }
        }
    }

    /// Unifies a goal with a clause head by running the head's match ops
    /// (`crate::head_ops`), renaming clause-local variables by `var_base`,
    /// where the attempt's variable block starts: its heap mark. Counts
    /// exactly what the seed's `unify(goal, rename(head))` counted: one for
    /// the whole-head pair plus one per visited subterm pair. An op reads
    /// its goal cell at `bases[slot] + index`, so no native frame is spent
    /// per level of the head and a list spine takes one slot.
    pub(super) fn unify_head(
        &mut self,
        goal_args: usize,
        templ: &ClauseTemplate,
        var_base: usize,
    ) -> Result<bool, TermLimit> {
        self.count_unification();
        let ops = templ.head_ops();
        let slots = templ.head_slots();
        if slots > 0 {
            if self.bases.len() < slots {
                self.bases.resize(slots, 0);
            }
            self.bases[0] = goal_args as u32;
        }
        let mut i = 0;
        while let Some(&op) = ops.get(i) {
            i += 1;
            let goal = (self.bases[op.slot as usize] + op.index) as usize;
            match op.kind {
                Match::Var(v) => {
                    // A first occurrence: the variable's cell is unbound and
                    // nothing points at it yet, so it takes the goal's value
                    // in place. Against an unbound goal cell the younger of
                    // the two cells is bound to the older, so a variable
                    // passed down a recursion stays one step from its
                    // representative. Both cells a bind here can write are
                    // at or above the attempt's heap mark: truncation undoes
                    // it, and the trail is not touched.
                    self.count_unification();
                    let head = var_base + v as usize;
                    let g = self.deref_idx(goal);
                    let (at, value) = match self.heap[g] {
                        // Only a variable of this attempt can be younger:
                        // one a written compound holds, that an earlier op
                        // bound a goal cell to, numbered after `v`.
                        HCell::Ref(_) if g > head => (g, HCell::Ref(head as u32)),
                        HCell::Ref(_) => (head, HCell::Ref(g as u32)),
                        value => (head, value),
                    };
                    debug_assert!(
                        at >= var_base && self.heap[at] == HCell::unbound(at),
                        "a head variable binds an unbound cell above the attempt's heap mark"
                    );
                    debug_assert!(
                        !matches!(value, HCell::Ref(to) if to as usize >= at),
                        "a head variable never points to a younger cell"
                    );
                    self.heap[at] = value;
                }
                Match::Val(v) => {
                    if !self.unify(goal, var_base + v as usize, Charge::Counted)? {
                        return Ok(false);
                    }
                }
                Match::Const(value) => {
                    self.count_unification();
                    let g = self.deref_idx(goal);
                    match self.heap[g] {
                        HCell::Ref(_) => self.bind_cell(g, value),
                        other if other == value => {}
                        _ => return Ok(false),
                    }
                }
                Match::Struct {
                    name,
                    arity,
                    pos,
                    skip,
                    args,
                } => {
                    self.count_unification();
                    let g = self.deref_idx(goal);
                    match self.heap[g] {
                        HCell::Ref(_) => {
                            // Written on demand: only here does a head
                            // compound become arena cells, and its
                            // arguments' ops are passed over.
                            let value = self.write(templ.layout(), pos as usize, var_base);
                            self.bind_cell(g, value);
                            i += skip as usize;
                        }
                        HCell::Struct(gf, gn, gargs) if gf == name && gn == arity => {
                            self.bases[args as usize] = gargs;
                        }
                        _ => return Ok(false),
                    }
                }
            }
        }
        Ok(true)
    }

    /// Unifies an immediate (numeric) value with the template subterm whose
    /// root is `cell` — the `Lhs is Rhs` path. Same counts as a head op
    /// matching the value parked in a goal cell.
    fn unify_value_template(
        &mut self,
        value: HCell,
        cell: term::Cell,
        var_base: usize,
    ) -> Result<bool, TermLimit> {
        match cell {
            term::Cell::Var(v) => self.unify_cell(var_base + v, value),
            term::Cell::Struct(..) => {
                // A number never matches a compound.
                self.count_unification();
                Ok(false)
            }
            constant => {
                self.count_unification();
                Ok(HCell::constant(constant) == value)
            }
        }
    }

    /// Cells are addressed by `u32` (`HCell::Ref`, `Struct` argument bases,
    /// the trail); panic cleanly before an arena ever outgrows that, instead
    /// of silently wrapping indices. The margin covers the few single-cell
    /// growth sites (parked cells) that don't re-check per push.
    #[inline]
    fn check_arena_capacity(&self, additional: usize) {
        assert!(
            self.heap.len() + additional <= u32::MAX as usize - 64,
            "arena term heap exceeds u32 cell addressing"
        );
    }

    /// Reserves `n` fresh unbound variable cells, returning the first index.
    pub(crate) fn fresh_vars(&mut self, n: usize) -> usize {
        self.check_arena_capacity(n);
        let base = self.heap.len();
        for k in 0..n {
            self.heap.push(HCell::unbound(base + k));
        }
        base
    }

    /// Writes an argument block of `cells` into the arena, returning its
    /// base index.
    pub(crate) fn write_args(&mut self, cells: &[HCell]) -> usize {
        self.check_arena_capacity(cells.len());
        let base = self.heap.len();
        self.heap.extend_from_slice(cells);
        base
    }

    /// Appends position-independent `cells` — a packet's body, a span of a
    /// layout — to the arena in one pass, moving every `Ref` by `vars`
    /// (where the cells' variable 0 lives) and every `Struct` block index
    /// from counting at `origin` to counting at the position the copy
    /// starts at, which is returned.
    pub(super) fn write_relocated(&mut self, cells: &[HCell], origin: u32, vars: usize) -> usize {
        self.check_arena_capacity(cells.len());
        let at = self.heap.len();
        let (vars, shift) = (vars as u32, (at as u32).wrapping_sub(origin));
        self.heap.extend(cells.iter().map(|&cell| match cell {
            HCell::Ref(var) => HCell::Ref(vars + var),
            HCell::Struct(name, arity, block) => {
                HCell::Struct(name, arity, block.wrapping_add(shift))
            }
            constant => constant,
        }));
        at
    }

    /// Writes the subterm of `layout` whose root cell is at `pos` for the
    /// variable block starting at `var_base` — a compound's argument blocks
    /// as one relocating copy of its span, which only a compound the layout
    /// laid out has — and returns its root cell.
    pub(crate) fn write(&mut self, layout: &Layout, pos: usize, var_base: usize) -> HCell {
        match layout.cells()[pos] {
            term::Cell::Var(v) => HCell::Ref((var_base + v) as u32),
            term::Cell::Struct(name, arity, _) => {
                let (origin, cells) = layout.images(pos);
                let at = self.write_relocated(cells, origin, var_base);
                HCell::Struct(name, arity, at as u32)
            }
            constant => HCell::constant(constant),
        }
    }

    /// Builds a proper list of the given element cells in the arena,
    /// returning the list's root cell.
    pub(crate) fn write_list(&mut self, items: &[HCell]) -> HCell {
        self.check_arena_capacity(items.len() * 2);
        let wk = well_known::get();
        let mut acc = HCell::Atom(wk.nil);
        for &item in items.iter().rev() {
            let base = self.heap.len();
            self.heap.push(item);
            self.heap.push(acc);
            acc = HCell::Struct(wk.cons, 2, base as u32);
        }
        acc
    }
}
