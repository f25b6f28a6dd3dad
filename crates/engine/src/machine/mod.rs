//! The sequential resolution engine: SLD resolution with chronological
//! backtracking, first-argument indexing and real cut over precompiled clause
//! templates, fully iterative (a goal stack, explicit choice points and
//! barriers, loops over terms). This module holds [`Machine`], its entry
//! points and the solve loop; `control`, `budget`, `head`, `offer`, `unify`
//! and `hooks` each hold one other concern.

mod budget;
mod control;
mod head;
mod hooks;
mod offer;
mod unify;

pub use budget::{Budget, DEFAULT_STEPS};
pub(crate) use unify::{Charge, Pair};

use crate::arith;
use crate::builtins;
use crate::cost::Counters;
use crate::error::{EngineError, EngineResult};
use crate::heap::HCell;
use crate::image::{CallTarget, Image};
use crate::par::ParHook;
use crate::tasktree::{TaskRecorder, TaskTree};
use crate::template::{ClauseTemplate, Layout, Step};
use budget::Limits;
use control::{BarrierExit, ChoicePoint, Goal, Pend, StepRef};
use granlog_ir::symbol::well_known::{self, WellKnownSymbols};
use granlog_ir::term::AsTerm;
use granlog_ir::{parser, PredId, Program, Symbol, Term};
use std::sync::Arc;

/// How candidate clauses are selected for a user-predicate call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClauseSelection {
    /// Use the image's first-argument index: a binary search of the
    /// predicate's sorted head keys returning a range of its candidate
    /// array (the default).
    Indexed,
    /// Reference semantics: linearly scan the predicate's clauses on every
    /// call, filtering by first-argument principal functor (the seed
    /// engine's behaviour). Kept for differential testing — it must agree
    /// with [`ClauseSelection::Indexed`] on outcome, bindings, counters and
    /// clause-trial order.
    LinearScan,
}

/// Configuration of a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Maximum engine depth: bounds both the goal-stack height (pending
    /// goals along one path) and the nesting of isolation barriers
    /// (negation, conditions, parallel arms).
    pub max_depth: usize,
    /// Candidate-clause selection strategy.
    pub clause_selection: ClauseSelection,
    /// Enable the per-predicate port profiler (see [`crate::profile`]).
    /// Off by default: the disabled configuration costs one null-check per
    /// clause-selection entry and leaves operation counters bit-identical
    /// to an unprofiled machine.
    pub profile: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            max_depth: 4_000_000,
            clause_selection: ClauseSelection::Indexed,
            profile: false,
        }
    }
}

/// Reads a query's text into its goal and variable names; a syntax error is
/// the query's type error.
fn parse_query(query: &str) -> EngineResult<(Term, Vec<Symbol>)> {
    parser::parse_term(query).map_err(|e| EngineError::TypeError {
        builtin: "query",
        message: e.to_string(),
    })
}

/// The outcome of running a query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Did the query succeed?
    pub succeeded: bool,
    /// Bindings of the query's named variables (resolved), in source order;
    /// empty when the query failed.
    pub bindings: Vec<(Symbol, Term)>,
    /// Raw operation counters; [`Counters::work`] is the query's total work
    /// in cost-model units.
    pub counters: Counters,
}

impl QueryOutcome {
    /// The binding of a variable by name, if any.
    pub fn binding(&self, name: &str) -> Option<&Term> {
        self.bindings
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, t)| t)
    }
}

/// A query's outcome beside the fork-join task tree its solve recorded
/// (see [`Machine::run_goal_recorded`]).
#[derive(Debug, Clone)]
pub struct RecordedOutcome {
    /// The outcome, as [`Machine::run_goal`] reports it.
    pub outcome: QueryOutcome,
    /// The fork-join task tree: one task per `&` arm, each holding the work
    /// done in it, for the multiprocessor simulator.
    pub task_tree: TaskTree,
}

/// Peak-usage statistics of the machine's memory structures, reset per
/// query. `heap_high_water` feeds the serve pool's retire policy and
/// `QueryReply`. Neither mark is touched per goal: the heap's is noted
/// where the arena is about to shrink, the barriers' where one is pushed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// High-water mark of the arena heap, in cells.
    pub heap_high_water: usize,
    /// Deepest simultaneously-live barrier count (nesting of negations,
    /// if-then-else conditions and `&` arms).
    pub max_barrier_depth: usize,
}

/// The most cell pairs unification, comparison or `ground/1` visits, and
/// the most cells a copy out of the arena writes, before the query ends in
/// [`EngineError::TermLimit`]: far above any term a query legitimately
/// builds, far below exhausting memory.
pub const MAX_WALK_CELLS: usize = 1 << 24;

/// The resolution engine.
pub struct Machine {
    config: MachineConfig,
    /// The compiled program: templates, call targets, clause index. Shared
    /// via `Arc`, so the solve loop can borrow it while mutating the machine
    /// (one refcount bump per solve, not per term), several machines — one
    /// per worker thread of a parallel executor, one per lease of a server
    /// pool — can run one compiled program, and none of them borrows the
    /// [`Program`] it came from.
    image: Arc<Image>,
    /// The arena term heap (see [`crate::heap`]).
    pub(crate) heap: Vec<HCell>,
    /// Bound-variable trail: indices of cells to restore to self-references.
    trail: Vec<u32>,
    /// The contiguous goal stack. `goal_top` is the logical height; slots at
    /// and above it are dead but kept initialized so backtracking can
    /// re-expose them by moving the cursor.
    goal_stack: Vec<Goal>,
    goal_top: usize,
    /// Saved `(slot, old goal)` pairs for goal-stack slots overwritten below
    /// the protection watermark (i.e. slots belonging to a live choice
    /// point's saved continuation).
    goal_trail: Vec<(u32, Goal)>,
    /// Maximum goal height any live choice point needs preserved; 0 when
    /// execution is deterministic, in which case pushes never trail.
    protect: usize,
    choice_points: Vec<ChoicePoint>,
    /// The barrier stack (see [`control::Barrier`]).
    barriers: Vec<control::Barrier>,
    /// The innermost live barrier's `goal_base`, cached (0 with no barrier):
    /// the solve loop's success height.
    base_goal: usize,
    /// The innermost live barrier's `cp_base`, cached (0 with no barrier):
    /// the backtracking floor, and the clamp for metacalled cuts.
    base_cp: usize,
    /// Reusable scratch for flattening `&` conjunctions into arms (indexed
    /// by a per-fork base so nested forks share it without clearing).
    arm_scratch: Vec<HCell>,
    /// The spawn boundary's state, which only the `offer` module touches.
    offers: offer::Offers,
    /// [`Machine::walk_pairs`]'s `(left block, right block, pairs left)`.
    walk_stack: Vec<(u32, u32, u32)>,
    /// The last query goal's layout, whose buffers the next one reuses.
    goal_layout: Layout,
    /// The argument blocks the arm numbering's walk still has to visit,
    /// innermost last: `(next cell, cells to go)`.
    arg_blocks: Vec<(u32, u32)>,
    /// The head matcher's goal blocks: where the goal cells of the head
    /// ops' slots start (see [`crate::template`]).
    bases: Vec<u32>,
    /// The work stacks of the heap arithmetic evaluator (see
    /// [`crate::arith`]).
    pub(crate) arith: arith::Scratch,
    pub(crate) counters: Counters,
    /// The task-tree recorder; `Some` only during a solve started through
    /// [`Machine::run_goal_recorded`], so every other solve pays one
    /// null-check per fork and arm boundary.
    recorder: Option<TaskRecorder>,
    stats: MachineStats,
    /// The current solve's step budget: a head attempt past it ends the
    /// solve in [`EngineError::BudgetExceeded`].
    step_limit: u64,
    /// Per-predicate port profiler; `Some` only when
    /// [`MachineConfig::profile`] is set, so the disabled path is one
    /// null-check at each clause-selection entry.
    profiler: Option<Box<crate::profile::Profiler>>,
}

impl Machine {
    /// Creates a machine with the default configuration.
    pub fn new(program: &Program) -> Self {
        Machine::with_config(program, MachineConfig::default())
    }

    /// Creates a machine with an explicit configuration.
    ///
    /// Program load happens here: the program is compiled into its
    /// [`Image`], so the solve loop never revisits the IR, and the machine
    /// keeps no reference to `program`.
    pub fn with_config(program: &Program, config: MachineConfig) -> Self {
        Machine::from_image(Image::new(program), config)
    }

    /// [`Machine::with_config`] around already compiled templates
    /// ([`Image::with_templates`]).
    ///
    /// # Panics
    ///
    /// Panics if the template array's length does not match the program's
    /// clause count.
    pub fn with_templates(
        program: &Program,
        config: MachineConfig,
        templates: Arc<[ClauseTemplate]>,
    ) -> Self {
        Machine::from_image(Image::with_templates(program, templates), config)
    }

    /// Creates a machine that runs an already compiled program. Nothing
    /// here depends on the size of the program — a machine costs a handful
    /// of empty `Vec`s — which is how a parallel executor makes a machine
    /// per stolen arm, and a server one per cold lease, cheaply.
    pub fn from_image(image: Arc<Image>, config: MachineConfig) -> Self {
        Machine {
            config,
            image,
            heap: Vec::new(),
            trail: Vec::new(),
            goal_stack: Vec::new(),
            goal_top: 0,
            goal_trail: Vec::new(),
            protect: 0,
            choice_points: Vec::new(),
            barriers: Vec::new(),
            base_goal: 0,
            base_cp: 0,
            arm_scratch: Vec::new(),
            offers: offer::Offers::default(),
            walk_stack: Vec::new(),
            goal_layout: Layout::default(),
            arg_blocks: Vec::new(),
            bases: Vec::new(),
            arith: arith::Scratch::default(),
            counters: Counters::default(),
            recorder: None,
            stats: MachineStats::default(),
            step_limit: DEFAULT_STEPS,
            profiler: if config.profile {
                Some(Box::default())
            } else {
                None
            },
        }
    }

    /// The operation counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Peak memory-structure usage of the most recent query.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Per-predicate port counters for the most recent query, in a
    /// deterministic order (descending entries, then name). `None` unless
    /// the machine was configured with [`MachineConfig::profile`].
    pub fn profile(&self) -> Option<Vec<(PredId, crate::profile::PredProfile)>> {
        self.profiler.as_ref().map(|p| p.rows())
    }

    /// Parses and runs a query (e.g. `"fib(15, X)"`), returning its outcome.
    ///
    /// The machine's heap and counters are reset first, so a machine can be
    /// reused for several queries.
    ///
    /// # Errors
    ///
    /// Returns an error if the query does not parse or execution hits a limit
    /// or runtime error.
    pub fn run_query(&mut self, query: &str) -> EngineResult<QueryOutcome> {
        let (goal, var_names) = parse_query(query)?;
        self.run_goal(&goal, &var_names)
    }

    /// [`Machine::run_query`], recording the fork-join task tree as well
    /// (see [`Machine::run_goal_recorded`]).
    ///
    /// # Errors
    ///
    /// As [`Machine::run_query`].
    pub fn run_query_recorded(&mut self, query: &str) -> EngineResult<RecordedOutcome> {
        let (goal, var_names) = parse_query(query)?;
        self.run_goal_recorded(&goal, &var_names)
    }

    /// [`Machine::solve_goal`] with no parallel hook, under the default
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns an error if execution hits a limit or runtime error.
    pub fn run_goal(&mut self, goal: &Term, var_names: &[Symbol]) -> EngineResult<QueryOutcome> {
        self.solve_goal(goal, var_names, None, &Budget::default())
    }

    /// [`Machine::run_goal`], recording the fork-join task tree of the solve
    /// for the multiprocessor simulator: every `&` conjunction reached is a
    /// fork of one task per arm, and each task holds the work done in it.
    /// This is the only solve that records one; the outcome and counters
    /// are those of [`Machine::run_goal`].
    ///
    /// # Errors
    ///
    /// As [`Machine::run_goal`]; the partial tree is dropped.
    pub fn run_goal_recorded(
        &mut self,
        goal: &Term,
        var_names: &[Symbol],
    ) -> EngineResult<RecordedOutcome> {
        self.begin_solve(Some(TaskRecorder::new()));
        let outcome = self.solve(goal, var_names, None, &Budget::default());
        let recorder = self
            .recorder
            .take()
            .expect("a recorded solve keeps its recorder");
        Ok(RecordedOutcome {
            outcome: outcome?,
            task_tree: recorder.into_tree(&self.counters),
        })
    }

    /// Runs an already-parsed goal whose variables are numbered
    /// `0..var_names.len()` to its first solution under `budget`. With a
    /// parallel-execution hook, the later arms of a `&` conjunction the solve
    /// loop reaches are offered to `hook` while the machine works on the
    /// first, unless the hook keeps the conjunction in place (see
    /// [`crate::par`]); with `None` nothing is offered.
    ///
    /// # Errors
    ///
    /// Returns an error if execution hits a limit, a runtime error (local or
    /// inside a spawned arm) or exhausts `budget`
    /// ([`EngineError::BudgetExceeded`]). On any error the run state is
    /// unwound eagerly: the arena is truncated to empty, the trail emptied,
    /// and the machine is immediately reusable.
    pub fn solve_goal(
        &mut self,
        goal: &Term,
        var_names: &[Symbol],
        hook: Option<&dyn ParHook>,
        budget: &Budget,
    ) -> EngineResult<QueryOutcome> {
        self.begin_solve(None);
        self.solve(goal, var_names, hook, budget)
    }

    /// Lays out `goal` at the bottom of the arena and solves it: the body of
    /// [`Machine::solve_goal`] after [`Machine::begin_solve`].
    fn solve(
        &mut self,
        goal: &Term,
        var_names: &[Symbol],
        hook: Option<&dyn ParHook>,
        budget: &Budget,
    ) -> EngineResult<QueryOutcome> {
        let mut layout = std::mem::take(&mut self.goal_layout);
        layout.clear();
        let root = layout.add(goal.cells());
        layout.lay_out(root);
        // Query variables occupy the bottom of the arena, so their cell
        // indices double as binding-table slots for answer extraction.
        self.fresh_vars(var_names.len().max(layout.vars()));
        let root = self.write(&layout, root, 0);
        self.goal_layout = layout;
        self.push_goal(Goal::Cell(root))?;
        self.drive(hook, budget, |machine, succeeded| {
            machine.outcome(succeeded, var_names)
        })
    }

    /// Resets the machine for a new solve: run state, counters, stats and
    /// profile are cleared, and `recorder` (a fresh one, or none) records
    /// the solve's task tree.
    fn begin_solve(&mut self, recorder: Option<TaskRecorder>) {
        self.reset_run_state();
        self.counters = Counters::default();
        self.recorder = recorder;
        self.stats = MachineStats::default();
        if let Some(profiler) = self.profiler.as_mut() {
            profiler.clear();
        }
    }

    /// Current arena occupancy in cells. After a successful solve the answer
    /// terms live here until the next query; after an engine error the run
    /// state has been unwound and this is 0.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Current binding-trail length. 0 after an engine error (the unwind
    /// empties the trail).
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// Runs the solve on the goal stack under `budget` and hands its success
    /// flag to `finish`, which packages the answer. An error from either
    /// unwinds the machine eagerly.
    fn drive<T>(
        &mut self,
        hook: Option<&dyn ParHook>,
        budget: &Budget,
        finish: impl FnOnce(&mut Machine, bool) -> EngineResult<T>,
    ) -> EngineResult<T> {
        self.step_limit = budget.steps.unwrap_or(DEFAULT_STEPS);
        let mut limits = Limits::new(budget);
        // The `engine.solve` failpoint fires before the first goal, where
        // the machine state is consistent, and takes the same eager-unwind
        // error path as any engine error below.
        let solved = granlog_fault::fail_or("engine.solve", || EngineError::Fault("engine.solve"))
            .and_then(|()| self.run(hook, &mut limits))
            .and_then(|succeeded| finish(self, succeeded));
        if solved.is_err() {
            // Errors unwind eagerly: truncate the arena and empty the
            // trail *now*, so an erroring query can never leave a large
            // heap pinned while the machine sits idle in a pool.
            self.cancel_offers(hook, 0);
            self.reset_run_state();
        }
        solved
    }

    /// Packages a finished solve. The bindings of a query that succeeded —
    /// its variables are arena cells `0..n` — leave it as one extraction; a
    /// failed query has none to extract, whatever its variables were bound
    /// to below the choice point that failed last.
    fn outcome(&mut self, succeeded: bool, var_names: &[Symbol]) -> EngineResult<QueryOutcome> {
        self.note_heap_high_water();
        let bindings = if succeeded {
            let binding = |(var, &name)| Ok((name, self.extract_cell(HCell::unbound(var))?));
            var_names
                .iter()
                .enumerate()
                .map(binding)
                .collect::<EngineResult<_>>()?
        } else {
            Vec::new()
        };
        Ok(QueryOutcome {
            succeeded,
            bindings,
            counters: self.counters,
        })
    }

    /// Clears every per-run machine structure (arena, trail, goal stack and
    /// trail, choice points, barriers, scratch), folding their sizes into
    /// the high-water stats first. Counters, recorder and stats survive —
    /// the start of a new solve resets those separately. A solve leaves no
    /// arm on offer: it joins or cancels every one before it returns.
    fn reset_run_state(&mut self) {
        debug_assert_eq!(
            self.outstanding_offers(),
            0,
            "a finished solve left arms on offer"
        );
        self.note_heap_high_water();
        self.heap.clear();
        self.trail.clear();
        self.goal_top = 0;
        self.goal_trail.clear();
        self.protect = 0;
        self.choice_points.clear();
        self.barriers.clear();
        self.base_goal = 0;
        self.base_cp = 0;
        self.arm_scratch.clear();
    }

    fn note_heap_high_water(&mut self) {
        self.stats.heap_high_water = self.stats.heap_high_water.max(self.heap.len());
    }

    /// The solve loop: runs the goal stack down to the innermost barrier's
    /// base — resolving barriers as they complete — until the query's own
    /// base is reached (success, `Ok(true)`) or failure propagates past the
    /// last choice point and barrier (failure, `Ok(false)`).
    fn run(&mut self, hook: Option<&dyn ParHook>, limits: &mut Limits) -> EngineResult<bool> {
        // One refcount bump per solve: the image is immutable, so the solve
        // loop borrows it once instead of re-cloning per clause activation.
        let image = Arc::clone(&self.image);
        let wk = well_known::get();
        // Arena growth is only observable here at resolution boundaries, but
        // that is exactly where an injected exhaustion must land anyway for
        // the unwind to be clean.
        #[cfg(feature = "failpoints")]
        let mut arena_capacity = self.heap.capacity();
        loop {
            // Sub-solve completion: the goal stack is back down to the
            // innermost barrier's base (or the query's — done). Checked
            // before the budget, so a query that finishes exactly as its
            // budget runs out completes.
            while self.goal_top == self.base_goal {
                if self.barriers.is_empty() {
                    return Ok(true);
                }
                if !self.barrier_done(&image, hook)? && !self.fail(&image, hook)? {
                    return Ok(false);
                }
            }
            // Arena and clock checks, at the resolution boundary only.
            if limits.active {
                limits.check(self.heap.len())?;
            }
            #[cfg(feature = "failpoints")]
            if self.heap.capacity() != arena_capacity {
                arena_capacity = self.heap.capacity();
                if granlog_fault::should_fail("engine.arena.grow") {
                    return Err(EngineError::Fault("engine.arena.grow"));
                }
            }
            self.goal_top -= 1;
            let ok = match self.goal_stack[self.goal_top] {
                Goal::Cell(cell) => self.exec_cell(&image, cell, wk, hook)?,
                Goal::Step(step) => self.exec_step(&image, step, wk, hook)?,
            };
            if !ok && !self.fail(&image, hook)? {
                return Ok(false);
            }
        }
    }

    /// Executes a materialized goal cell: run-time control dispatch on
    /// cached interned symbols — no string comparison (and no interner lock)
    /// on the hot path — then builtin/user-predicate dispatch with one hash
    /// probe. Returns `Ok(false)` on failure (the caller backtracks).
    fn exec_cell(
        &mut self,
        image: &Image,
        cell: HCell,
        wk: &WellKnownSymbols,
        hook: Option<&dyn ParHook>,
    ) -> EngineResult<bool> {
        let mut cell = cell;
        // Only pay a dereference when the goal is actually a variable.
        if let HCell::Ref(i) = cell {
            cell = self.heap[self.deref_idx(i as usize)];
        }
        let (name, arity, args) = match cell {
            HCell::Atom(s) => (s, 0usize, 0usize),
            HCell::Struct(s, a, base) => (s, a as usize, base as usize),
            other => return Err(EngineError::NotCallable(self.extract_cell(other)?)),
        };
        match arity {
            0 if name == wk.true_ => Ok(true),
            // A cut reaching the machine as a cell is a query goal or a
            // metacalled variable: it prunes to the innermost barrier (the
            // whole query, at the top level).
            0 if name == wk.cut => {
                self.cut(0);
                Ok(true)
            }
            0 if name == wk.fail || name == wk.false_ => Ok(false),
            2 if name == wk.comma => {
                self.push_goal(Goal::Cell(self.heap[args + 1]))?;
                self.push_goal(Goal::Cell(self.heap[args]))?;
                Ok(true)
            }
            2 if name == wk.par_and => self.par_cell(image, hook, cell),
            2 if name == wk.semicolon => {
                // (Cond -> Then ; Else): the if-then-else shape is decided
                // at run time here because the left operand was not a
                // literal `->` at compile time (or the goal is a query /
                // metacall cell that was never compiled).
                let right = Pend::Cell(self.heap[args + 1]);
                match self.deref_cell(self.heap[args]) {
                    HCell::Struct(arrow, 2, ct) if arrow == wk.arrow => {
                        let (cond, then_) = (self.heap[ct as usize], self.heap[ct as usize + 1]);
                        let exit = BarrierExit::Cond {
                            then_: Pend::Cell(then_),
                            else_: Some(right),
                        };
                        self.enter(exit, Pend::Cell(cond))
                    }
                    _ => self.disjunction(Pend::Cell(self.heap[args]), right),
                }
            }
            2 if name == wk.arrow => {
                let then_ = Pend::Cell(self.heap[args + 1]);
                let cond = Pend::Cell(self.heap[args]);
                self.enter(BarrierExit::Cond { then_, else_: None }, cond)
            }
            1 if name == wk.not => self.enter(BarrierExit::Not, Pend::Cell(self.heap[args])),
            _ => {
                // One probe identifies the goal: builtin or user predicate
                // (builtins shadow same-name user predicates).
                match image.target(name, arity) {
                    Some(CallTarget::Builtin(builtin)) => builtins::dispatch(self, builtin, cell),
                    Some(CallTarget::User(pred)) => self.call_user(image, pred, cell),
                    None => Err(EngineError::UnknownPredicate(PredId::new(name, arity))),
                }
            }
        }
    }

    /// Executes one compiled body step. Control steps push barriers or
    /// choice points with their precompiled arm sequences; a call writes
    /// its goal from the clause's layout and goes straight to clause
    /// selection; builtin steps run in place; a goal only identified at run
    /// time is written the same way and takes the cell dispatch path.
    fn exec_step(
        &mut self,
        image: &Image,
        StepRef { act, step }: StepRef,
        wk: &WellKnownSymbols,
        hook: Option<&dyn ParHook>,
    ) -> EngineResult<bool> {
        let templ = &image.templates()[act.clause as usize];
        let var_base = act.var_base as usize;
        let heap_before = self.heap.len();
        match templ.steps()[step as usize] {
            Step::Goal(pos) => {
                let cell = self.write(templ.layout(), pos as usize, var_base);
                self.profile_body_cells(act.clause, heap_before);
                self.exec_cell(image, cell, wk, hook)
            }
            Step::Call { pred, goal } => {
                let goal = self.write(templ.layout(), goal as usize, var_base);
                self.profile_body_cells(act.clause, heap_before);
                self.call_user(image, pred, goal)
            }
            Step::Builtin(builtin) => {
                let ok = self.exec_builtin_step(templ, builtin, var_base)?;
                self.profile_body_cells(act.clause, heap_before);
                Ok(ok)
            }
            Step::Cut => {
                self.cut(act.cut as usize);
                Ok(true)
            }
            Step::Disj { left, right } => {
                self.disjunction(Pend::Seq(act, left), Pend::Seq(act, right))
            }
            Step::IfThenElse { cond, then_, else_ } => {
                let (then_, else_) = (Pend::Seq(act, then_), Some(Pend::Seq(act, else_)));
                self.enter(BarrierExit::Cond { then_, else_ }, Pend::Seq(act, cond))
            }
            Step::IfThen { cond, then_ } => {
                let (then_, cond) = (Pend::Seq(act, then_), Pend::Seq(act, cond));
                self.enter(BarrierExit::Cond { then_, else_: None }, cond)
            }
            Step::Not { inner } => self.enter(BarrierExit::Not, Pend::Seq(act, inner)),
            Step::Par { arms_at, arms_len } => {
                self.par_step(image, hook, templ, act, (arms_at, arms_len))
            }
        }
    }
}

#[cfg(test)]
mod head_tests;
#[cfg(test)]
pub(crate) mod tests;
