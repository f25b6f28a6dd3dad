//! The sequential resolution engine.
//!
//! [`Machine`] executes queries against a [`Program`] by SLD resolution with
//! chronological backtracking, first-argument indexing and a small set of
//! builtins (see [`crate::builtins`]). Since the arena rewrite it is
//! WAM-shaped in its memory discipline while remaining an interpreter over
//! precompiled clause templates:
//!
//! * **Terms** live in a bump-arena heap of tagged cells ([`crate::heap`]):
//!   no reference counting, no per-compound allocation, truncation to a heap
//!   mark as the garbage policy.
//! * **The continuation** is a contiguous goal stack rather than a shared
//!   cons-list: pushing and popping goals is a cursor move. A slot is either
//!   a materialized arena cell or a *compiled body step* (a clause template
//!   offset plus the activation's variable block and cut barrier — see
//!   [`crate::template::Step`]), so clause bodies, including their control
//!   constructs, execute without materializing control spines. Slots below a
//!   live choice point's height are part of that choice point's saved
//!   continuation; overwriting one records the old slot on a *goal trail* so
//!   backtracking can restore it (the protection check is a single integer
//!   compare, and deterministic execution never trails).
//! * **Choice points** are explicit records snapshotting the goal-stack
//!   height, trail mark, heap mark and clause-bucket cursor. Backtracking
//!   pops records iteratively.
//! * **Barriers** are explicit records too: negation, if-then-else
//!   conditions and `&` arms solve their sub-goal to its first solution
//!   *inside the same solve loop*, bounded below by a barrier record that
//!   says what success and failure of the sub-solve mean. The machine is
//!   fully iterative — no native Rust frame is consumed per barrier nesting
//!   level, so control nesting is bounded by memory, not by the call stack.
//! * **One way into the arena, one way out, and no recursion between**:
//!   every term of program or query text — a head structure, a call's
//!   arguments, a query goal — enters the arena as one relocating copy of
//!   its compile-time `Layout`; a term leaves it by one iterative copy — an
//!   answer or error message as a [`Term`]'s preorder cells, a stolen arm's
//!   answer as a packet — or as a typed [`EngineError::TermLimit`]. Head
//!   unification walks the head's cells with one cursor and a stack of goal
//!   blocks; unification, comparison and `ground/1` pop cell pairs off one
//!   stack. No walk in the machine spends a native frame per level of a
//!   term, so a 200 000-element list literal runs like any other.
//! * **Cut** (`!`) is real: each clause activation records the choice-point
//!   height at its call, and executing `!` prunes back to it — clamped to
//!   the innermost barrier, which makes cut local to `\+` and to
//!   if-then-else conditions and transparent to `;` and `->` branches,
//!   exactly the standard semantics.
//!
//! The quantities the experiments need are *operation counts* (resolutions,
//! unifications, grain tests), which every solve keeps bit-identically to
//! the seed interpreter, and the *fork-join task structure*, which only a
//! solve started through [`Machine::run_query_recorded`] or
//! [`Machine::run_goal_recorded`] records.
//!
//! Parallel conjunctions (`&`) are executed with independent and-parallel
//! semantics: each arm is solved to its first solution in order, and the
//! conjunction fails if any arm fails (no backtracking across arms). A
//! recorded solve writes the fork/join structure and each arm's work into a
//! [`crate::tasktree::TaskTree`] for the multiprocessor simulator; any other
//! solve pays one null check per fork and arm boundary for it. With a
//! parallel hook installed ([`Machine::solve_goal`], [`crate::par`]),
//! every conjunction still runs here. One reached while the forking thread
//! has nothing on offer, and whose arms are independent, also offers arms
//! `1..` to the hook: an arm an idle thread claims first is skipped, and its
//! answer is joined back deterministically once the local arms are done.
//! Whether a `&` is worth offering at all is decided before it is reached,
//! by the `'$grain_ge'` tests the annotator placed in front of it.

use crate::arith;
use crate::builtins;
use crate::cost::Counters;
use crate::error::{BudgetKind, EngineError, EngineResult, TermLimit};
use crate::heap::{self, HCell};
use crate::image::{CallTarget, Image};
use crate::par::{ArmAnswer, ArmEnd, ArmResult, Offer, Packet, ParHook};
use crate::tasktree::{TaskId, TaskRecorder, TaskTree};
use crate::template::{BuiltinStep, ClauseTemplate, Layout, Seq, Step};
use granlog_ir::symbol::well_known::{self, WellKnownSymbols};
use granlog_ir::term::{self, AsTerm, OrderedF64};
use granlog_ir::{parser, ClauseId, FastMap, IndexKey, PredId, Program, Symbol, Term};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How candidate clauses are selected for a user-predicate call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClauseSelection {
    /// Use the image's first-argument index: one hash probe returning a
    /// range of its candidate array (the default).
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

/// The step budget of a query that sets none: far more head attempts than
/// any program of the suite makes, few enough that a runaway query ends in
/// seconds.
pub const DEFAULT_STEPS: u64 = 200_000_000;

/// The resource budget of one query (see [`Machine::solve_goal`]).
/// Exhausting any of the three ends the query in a typed
/// [`EngineError::BudgetExceeded`], and the machine unwinds eagerly (arena
/// truncated, trail emptied), ready for the next query.
///
/// Steps are checked where they are charged, at every head attempt. Arena
/// size and the clock are checked at **resolution boundaries** — the top of
/// the solve loop, between goals — so a query may overshoot `heap_cells` by
/// the arena growth of one goal execution before the check fires. No check
/// writes a counter: a query that stays inside its budget computes and
/// counts exactly what it would under any other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum head-unification attempts (the engine's step currency);
    /// `None` is [`DEFAULT_STEPS`].
    pub steps: Option<u64>,
    /// Maximum arena occupancy in cells; `None` is unlimited.
    pub heap_cells: Option<usize>,
    /// Wall-clock allowance; `None` is unlimited. Polled every few hundred
    /// resolutions, so enforcement granularity is coarser than for `steps`.
    pub wall: Option<Duration>,
}

/// A [`Budget`]'s arena and clock limits, lowered once per query so the
/// solve loop's check is one branch when neither is set.
struct Limits {
    /// Either limit set at all?
    active: bool,
    /// Arena-size bound in cells.
    heap_limit: usize,
    /// Wall-clock deadline of the query.
    deadline: Option<Instant>,
    /// The budget's wall allowance, for the adaptive poll-stride halving.
    wall_allowance: Duration,
    /// The budget's wall allowance in ms, for error reporting.
    wall_ms: u64,
}

impl Limits {
    fn new(budget: &Budget) -> Limits {
        Limits {
            active: budget.heap_cells.is_some() || budget.wall.is_some(),
            heap_limit: budget.heap_cells.unwrap_or(usize::MAX),
            deadline: budget.wall.map(|allowance| Instant::now() + allowance),
            wall_allowance: budget.wall.unwrap_or(Duration::ZERO),
            wall_ms: budget.wall.map(|d| d.as_millis() as u64).unwrap_or(0),
        }
    }
}

/// Initial wall-clock poll stride: the deadline is checked once per
/// `mask + 1` resolutions. Coarse while most of the budget remains.
const INITIAL_WALL_POLL_MASK: u32 = 0x3FF;

/// Floor of the adaptive stride: never poll more often than every 16
/// resolutions, so `Instant::now` stays off the hot path even close to the
/// deadline.
const MIN_WALL_POLL_MASK: u32 = 0xF;

/// Adaptive wall-poll stride: once less than half the allowance remains,
/// each poll halves the stride (down to [`MIN_WALL_POLL_MASK`]), so the
/// overshoot past the deadline shrinks as the deadline approaches instead
/// of staying a full coarse stride wide.
fn next_wall_poll_mask(mask: u32, remaining: Duration, allowance: Duration) -> u32 {
    if mask > MIN_WALL_POLL_MASK && remaining + remaining < allowance {
        mask >> 1
    } else {
        mask
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
    /// Raw operation counters.
    pub counters: Counters,
    /// Total work in cost-model units.
    pub work: f64,
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

/// The candidate-clause list of one call, owned by its choice point while
/// alternatives remain. The indexed path names a range of the image's
/// candidate array; the reference linear scan owns its filtered list.
enum Cands {
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

/// One goal-stack slot: either a materialized arena cell (queries, metacalls
/// and runtime-classified control arms) or a compiled body step of a clause
/// activation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Goal {
    /// A materialized goal cell, dispatched by run-time inspection.
    Cell(HCell),
    /// A compiled body step, executed straight off its clause template.
    Step(StepRef),
}

/// A compiled body step plus its activation context: the clause template it
/// belongs to, the activation's variable block in the arena, and the cut
/// barrier (choice-point height at the activating call, which `!` prunes
/// to). `Copy` and four words — goal-stack slots stay cheap to move.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepRef {
    clause: u32,
    step: u32,
    var_base: u32,
    cut: u32,
}

/// A goal sequence not yet on the goal stack: what a choice point or barrier
/// schedules when it fires (a disjunction's right arm, an if-then-else
/// branch). Compiled sequences carry their activation context; cell goals
/// are pushed as-is.
#[derive(Debug, Clone, Copy)]
enum Pend {
    /// A materialized goal cell.
    Cell(HCell),
    /// A compiled step sequence of a clause activation.
    Seq {
        clause: u32,
        seq: Seq,
        var_base: u32,
        cut: u32,
    },
}

/// What a choice point retries when backtracking reaches it.
enum Retry {
    /// Retry the pending call's remaining candidate clauses from `cursor`.
    Clauses {
        goal: HCell,
        cands: Cands,
        cursor: usize,
    },
    /// Run the saved alternative (the right arm of a disjunction).
    Alt { pend: Pend },
}

/// An explicit choice point: everything needed to restore the machine to the
/// moment the choice was made and continue with the next alternative.
struct ChoicePoint {
    retry: Retry,
    /// Goal-stack height at creation — the saved continuation.
    goal_top: usize,
    /// The machine's goal-protection watermark before this record was
    /// pushed; restored when the record is popped or committed away.
    protect_prev: usize,
    trail_mark: usize,
    heap_mark: usize,
    goal_trail_mark: usize,
}

/// Where the arms of an in-flight parallel conjunction come from.
#[derive(Debug, Clone, Copy)]
enum ArmSource {
    /// Compiled arm sequences: `template.par_arms()[arms_at + k]` for arm
    /// `k`, run with the stored activation context.
    Compiled {
        clause: u32,
        arms_at: u32,
        var_base: u32,
        cut: u32,
    },
    /// Run-time flattened arm cells living in the machine's `arm_scratch`
    /// buffer at `base .. base + count`.
    Scratch { base: u32 },
}

/// Progress of an in-flight parallel conjunction: which arm is running, how
/// many remain, and the task ids recorded for them.
#[derive(Debug, Clone, Copy)]
struct ParState {
    arms: ArmSource,
    /// Total number of arms (the fork arity).
    count: u32,
    /// Index of the next arm to start.
    next: u32,
    /// Index of the next arm to join, once every arm has been started or
    /// passed over.
    joined: u32,
    /// Task id of arm 0 (fork children get consecutive ids); 0 in a solve
    /// that records no task tree.
    first_task: TaskId,
    /// Where arm 1's entry sits in the machine's offer table (arm `k`'s is
    /// at `offers + k - 1`), or [`NOT_OFFERED`].
    offers: u32,
}

/// [`ParState::offers`] of a conjunction no hook was offered.
const NOT_OFFERED: u32 = u32::MAX;

/// What a parallel conjunction does after one of its arms succeeded (see
/// [`Machine::next_arm`]).
enum ArmNext {
    /// Run arm `k` here.
    Run(u32),
    /// An arm that ran elsewhere failed: so does the conjunction.
    Fail,
    /// Every arm succeeded.
    Done,
}

/// The forking machine's record of one arm on offer (see [`crate::par`]).
struct Offered {
    /// The slot shared with the hook; `None` once this machine claimed the
    /// arm back or joined it.
    arm: Option<Arc<Offer>>,
    /// Where the arm's variable → parent cell table starts in
    /// `offer_parents` (its length is the packet's variable count).
    parents: u32,
}

/// What the completion (success or failure) of a barrier's sub-solve means.
enum BarrierExit {
    /// Negation as failure: success of the inner goal fails the `\+`,
    /// failure succeeds it; bindings are undone either way.
    Not,
    /// An if-then(-else) condition: on success, commit the condition's
    /// choice points and run `then_` (keeping its bindings); on failure,
    /// undo and run `else_` — or fail the construct if there is none.
    Cond { then_: Pend, else_: Option<Pend> },
    /// One arm of a parallel conjunction: on success, commit and start the
    /// next arm (or finish); on failure, fail the whole conjunction.
    Par(ParState),
}

/// An isolation barrier: the explicit record bounding a sub-solve (negation,
/// if-then-else condition, `&` arm) from below. While a barrier is live, the
/// solve loop treats `goal_base` as its success height and `cp_base` as its
/// backtracking floor; `trail_mark`/`heap_mark` are the undo marks the
/// construct's semantics may need on exit. Replaces the native-stack
/// recursion the engine used per nesting level before the barrier stack.
struct Barrier {
    exit: BarrierExit,
    /// Goal-stack height when pushed — the sub-solve succeeds when the
    /// stack is back down to this height.
    goal_base: usize,
    /// Choice-point height when pushed — backtracking inside the sub-solve
    /// never unwinds below this floor.
    cp_base: usize,
    trail_mark: usize,
    heap_mark: usize,
}

/// The most cell pairs unification, comparison or `ground/1` visits, and
/// the most cells a copy out of the arena writes, before the query ends in
/// [`EngineError::TermLimit`]: far above any term a query legitimately
/// builds, far below exhausting memory.
pub const MAX_WALK_CELLS: usize = 1 << 24;

/// Whether a unification counts toward [`Counters::unifications`]: `\=`'s
/// probe and the join's binding of a stolen answer do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Charge {
    Counted,
    Uncounted,
}

/// What [`Machine::walk_pairs`] found at one cell pair: a match, the
/// verdict that ends the walk, or `n` argument pairs at two blocks to visit
/// next.
pub(crate) enum Pair<R> {
    Same,
    Differ(R),
    Args(u32, u32, u32),
}

/// Why [`Machine::pack`] gave up: an unbound cell an earlier packet of the
/// conjunction numbered (the arms are not independent), or a term that is
/// cyclic or too large to copy.
#[derive(Debug)]
enum PackStop {
    Shared,
    Limit,
}

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
    /// The barrier stack (see [`Barrier`]).
    barriers: Vec<Barrier>,
    /// The innermost live barrier's `goal_base`, cached (0 with no barrier):
    /// the solve loop's success height.
    base_goal: usize,
    /// The innermost live barrier's `cp_base`, cached (0 with no barrier):
    /// the backtracking floor, and the clamp for metacalled cuts.
    base_cp: usize,
    /// Reusable scratch for flattening `&` conjunctions into arms (indexed
    /// by a per-fork base so nested forks share it without clearing).
    arm_scratch: Vec<HCell>,
    /// Reusable packing scratch (see [`Machine::pack`]): unbound cell →
    /// variable number, counted across the packets of one conjunction.
    pack_vars: FastMap<u32, u32>,
    /// The inverse of `pack_vars`: variable number → unbound cell. After a
    /// conjunction's arms are packed this is the parents table of arm 0,
    /// then of arm 1, and so on.
    pack_parents: Vec<u32>,
    /// The offer table: arms `1..` of every offered conjunction in flight,
    /// innermost conjunction last (conjunctions nest, so it is a stack).
    offers: Vec<Offered>,
    /// The parents tables of the arms in `offers`, back to back.
    offer_parents: Vec<u32>,
    /// Reusable staging buffer for the slots of one conjunction between
    /// packing and [`ParHook::offer`].
    offer_batch: Vec<Arc<Offer>>,
    /// Emptied packet buffers awaiting the next pack (see
    /// [`Machine::recycle`]).
    packet_pool: Vec<Vec<HCell>>,
    /// [`Machine::walk_pairs`]'s `(left block, right block, pairs left)`.
    walk_stack: Vec<(u32, u32, u32)>,
    /// The last query goal's layout, whose buffers the next one reuses.
    goal_layout: Layout,
    /// The argument blocks a walk over one term still has to visit,
    /// innermost last: `(next cell, cells to go)` — [`Machine::unify_head`]'s
    /// goal blocks, [`Machine::number_unbound`]'s open compounds. Neither
    /// walk runs inside the other.
    arg_blocks: Vec<(u32, u32)>,
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
            pack_vars: FastMap::default(),
            pack_parents: Vec::new(),
            offers: Vec::new(),
            offer_parents: Vec::new(),
            offer_batch: Vec::new(),
            packet_pool: Vec::new(),
            walk_stack: Vec::new(),
            goal_layout: Layout::default(),
            arg_blocks: Vec::new(),
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

    /// Runs a packed `&` arm (see [`crate::par`]) to its first solution —
    /// the packet entry point the thief that claimed an [`Offer`] calls on a
    /// machine of its own, passing a hook so nested conjunctions are offered
    /// in turn — under the default budget. The packet is unpacked at the
    /// bottom of the emptied arena, so its variables are cells `0..nvars`; on
    /// success their values are packed back out as the answer, over a fresh
    /// variable numbering. An answer that has no finite copy or is too large
    /// to pack is [`ArmEnd::HandedBack`]: the forker runs the arm itself.
    ///
    /// # Errors
    ///
    /// Returns an error if execution hits a limit or runtime error (local or
    /// inside a nested stolen arm); the run state is unwound as in
    /// [`Machine::solve_goal`].
    pub fn run_arm(&mut self, arm: &Packet, hook: Option<&dyn ParHook>) -> ArmResult {
        self.begin_solve(None);
        let root = self.unpack(arm);
        self.push_goal(Goal::Cell(self.heap[root]))?;
        self.drive(hook, &Budget::default(), |machine, succeeded| {
            if !succeeded {
                return Ok(ArmEnd::Failed);
            }
            machine.pack_vars.clear();
            machine.pack_parents.clear();
            Ok(match machine.pack((0..arm.nvars).map(HCell::Ref)) {
                Ok(packet) => ArmEnd::Answer(ArmAnswer {
                    packet,
                    counters: machine.counters,
                }),
                Err(PackStop::Limit) => ArmEnd::HandedBack,
                Err(PackStop::Shared) => {
                    unreachable!("a lone packet shares no variable with an earlier one")
                }
            })
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

    /// Arms this machine has on offer to a parallel hook and has not yet
    /// claimed back, joined or cancelled (see [`crate::par`]). 0 whenever no
    /// solve is in flight.
    pub fn outstanding_offers(&self) -> usize {
        self.offers.len()
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
        let limits = Limits::new(budget);
        // The `engine.solve` failpoint fires before the first goal, where
        // the machine state is consistent, and takes the same eager-unwind
        // error path as any engine error below.
        let solved = granlog_fault::fail_or("engine.solve", || EngineError::Fault("engine.solve"))
            .and_then(|()| self.run(hook, &limits))
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
            work: self.counters.work(),
        })
    }

    /// Clears every per-run machine structure (arena, trail, goal stack and
    /// trail, choice points, barriers, scratch), folding their sizes into
    /// the high-water stats first. Counters, recorder and stats survive —
    /// the start of a new solve resets those separately. A solve leaves no
    /// arm on offer: it joins or cancels every one before it returns.
    fn reset_run_state(&mut self) {
        debug_assert!(
            self.offers.is_empty(),
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

    // ------------------------------------------------------------------
    // Arena plumbing
    // ------------------------------------------------------------------

    /// Dereferences a heap index: follows bound `Ref` chains to the
    /// representative cell. O(chain length), allocation-free.
    #[inline]
    pub(crate) fn deref_idx(&self, idx: usize) -> usize {
        heap::deref(&self.heap, idx)
    }

    /// The cell at a heap index.
    #[inline]
    pub(crate) fn cell(&self, idx: usize) -> HCell {
        self.heap[idx]
    }

    /// Dereferences a cell value (following its `Ref`, if it is one).
    pub(crate) fn deref_cell(&self, cell: HCell) -> HCell {
        match cell {
            HCell::Ref(i) => self.heap[self.deref_idx(i as usize)],
            other => other,
        }
    }

    /// The dereferenced cell of argument `k` of a goal whose argument block
    /// starts at `base` — the builtins' argument accessor.
    pub(crate) fn deref_arg(&self, base: usize, k: usize) -> HCell {
        self.heap[self.deref_idx(base + k)]
    }

    /// Binds the unbound variable cell at `var`, overwriting it in place and
    /// recording the index on the trail.
    pub(crate) fn bind_cell(&mut self, var: usize, value: HCell) {
        debug_assert!(
            matches!(self.heap[var], HCell::Ref(v) if v as usize == var),
            "binding an already-bound variable"
        );
        self.heap[var] = value;
        self.trail.push(var as u32);
    }

    /// Binds the unbound variable at `var` to the *dereferenced* cell at
    /// `target`: constants and structs are copied into the variable's cell,
    /// unbound targets are pointed at.
    fn bind_to(&mut self, var: usize, target: usize) {
        let value = match self.heap[target] {
            HCell::Ref(_) => HCell::Ref(target as u32),
            other => other,
        };
        self.bind_cell(var, value);
    }

    pub(crate) fn undo_trail(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let var = self.trail.pop().expect("trail length checked") as usize;
            self.heap[var] = HCell::unbound(var);
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

    /// Packs the terms rooted at `roots` out of the arena into one
    /// relocatable [`Packet`] whose first body cells are those roots, in a
    /// single iterative pass: the packet under construction is its own work
    /// queue (a Cheney scan), so nothing here recurses on term depth. Each
    /// scanned cell is dereferenced; a struct's argument block is appended
    /// raw, to be scanned in its turn, and an unbound cell becomes a packet
    /// variable.
    ///
    /// Variables are numbered through `pack_vars` / `pack_parents`, which
    /// the caller clears before the first packet of a conjunction (or
    /// before a lone answer) and which this call extends — so the packets of
    /// one conjunction draw on one numbering, each packet's variables being
    /// the tail this call added, rebased to 0. Stops with
    /// [`PackStop::Shared`] on reaching an unbound cell an *earlier* packet
    /// already numbered (the two arms are not independent), and with
    /// [`PackStop::Limit`] on a cyclic or too large term.
    fn pack(&mut self, roots: impl IntoIterator<Item = HCell>) -> Result<Packet, PackStop> {
        let mut cells = self.packet_pool.pop().unwrap_or_default();
        match self.pack_into(&mut cells, roots) {
            Ok(nvars) => Ok(Packet { nvars, cells }),
            Err(stop) => {
                self.packet_pool.push(cells);
                Err(stop)
            }
        }
    }

    /// [`Machine::pack`] into an emptied buffer, returning the packet's
    /// variable count. The scan is breadth first; no acyclic path meets an
    /// arena cell twice, so a copy more levels deep than the arena has cells
    /// is a cycle.
    fn pack_into(
        &mut self,
        cells: &mut Vec<HCell>,
        roots: impl IntoIterator<Item = HCell>,
    ) -> Result<u32, PackStop> {
        let first_var = self.pack_parents.len() as u32;
        cells.clear();
        cells.extend(roots);
        let (mut at, mut level, mut level_end) = (0, 0, cells.len());
        while at < cells.len() {
            if at == level_end {
                level += 1;
                level_end = cells.len();
                if level > self.heap.len() {
                    return Err(PackStop::Limit);
                }
            }
            cells[at] = match self.deref_cell(cells[at]) {
                HCell::Ref(idx) => {
                    let var = self.pack_var(idx);
                    if var < first_var {
                        return Err(PackStop::Shared);
                    }
                    HCell::Ref(var - first_var)
                }
                HCell::Struct(name, arity, base) => {
                    if cells.len() + arity as usize > MAX_WALK_CELLS {
                        return Err(PackStop::Limit);
                    }
                    let block = cells.len() as u32;
                    let base = base as usize;
                    cells.extend_from_slice(&self.heap[base..base + arity as usize]);
                    HCell::Struct(name, arity, block)
                }
                constant => constant,
            };
            at += 1;
        }
        Ok(self.pack_parents.len() as u32 - first_var)
    }

    /// The number of unbound cell `idx` in the conjunction's variable
    /// numbering (see [`Machine::pack`]), the next one if it has none yet.
    fn pack_var(&mut self, idx: u32) -> u32 {
        let fresh = self.pack_parents.len() as u32;
        let var = *self.pack_vars.entry(idx).or_insert(fresh);
        if var == fresh {
            self.pack_parents.push(idx);
        }
        var
    }

    /// Numbers the unbound cells of the term at `root` as [`Machine::pack`]
    /// would, without copying it: arm 0 of an offered conjunction never
    /// leaves, and is walked only for the cells the later arms must not
    /// share. One preorder walk with a stack of the compounds on the current
    /// path, under the copy's bounds: a path of more compounds than the
    /// arena has cells is a cycle, and the walk stops past
    /// [`MAX_WALK_CELLS`] cells.
    fn number_unbound(&mut self, root: HCell) -> Result<(), PackStop> {
        // A compound leaves the stack only after its last argument's
        // subterm, so the stack is the path.
        let mut open = std::mem::take(&mut self.arg_blocks);
        let (mut next, mut visits) = (root, 0);
        let walked = 'walk: loop {
            match self.deref_cell(next) {
                HCell::Ref(idx) => {
                    self.pack_var(idx);
                }
                HCell::Struct(_, arity, base) => {
                    if open.len() > self.heap.len() {
                        break Err(PackStop::Limit);
                    }
                    open.push((base, arity));
                }
                _ => {}
            }
            visits += 1;
            if visits > MAX_WALK_CELLS {
                break Err(PackStop::Limit);
            }
            next = loop {
                let Some((arg, left)) = open.last_mut() else {
                    break 'walk Ok(());
                };
                if *left > 0 {
                    (*arg, *left) = (*arg + 1, *left - 1);
                    break self.heap[*arg as usize - 1];
                }
                open.pop();
            };
        };
        open.clear();
        self.arg_blocks = open;
        walked
    }

    /// Copies the term at `root` out of the arena as a [`Term`] — the one
    /// exit, for answers and error messages alike — by one preorder walk
    /// that writes the term's cells as it goes, with a stack of the
    /// compounds whose arguments are still being copied. No acyclic path
    /// meets an arena cell twice, so a path of more compounds than the arena
    /// has cells is a cycle; a copy stops there, and past
    /// [`MAX_WALK_CELLS`] cells. Unbound cells become variables numbered by
    /// their arena index.
    pub(crate) fn extract_cell(&self, root: HCell) -> EngineResult<Term> {
        let mut cells = Vec::new();
        // Compounds being copied, innermost last: where the compound's cell
        // is, the arena index of its next argument and the arguments to go.
        let mut open: Vec<(usize, usize, u32)> = Vec::new();
        let mut next = root;
        loop {
            cells.push(match self.deref_cell(next) {
                HCell::Ref(var) => term::Cell::Var(var as usize),
                HCell::Atom(s) => term::Cell::Atom(s),
                HCell::Int(i) => term::Cell::Int(i),
                HCell::Float(x) => term::Cell::Float(OrderedF64(x)),
                HCell::Struct(name, arity, base) => {
                    if open.len() > self.heap.len() {
                        return Err(EngineError::TermLimit(TermLimit::Cyclic));
                    }
                    open.push((cells.len(), base as usize, arity));
                    term::Cell::Struct(name, arity, 0)
                }
            });
            if cells.len() > MAX_WALK_CELLS {
                return Err(EngineError::TermLimit(TermLimit::Copy));
            }
            // The next argument of the innermost compound with one to go;
            // a compound whose arguments are all in learns its size.
            next = loop {
                let Some((at, arg, left)) = open.last_mut() else {
                    return Ok(Term::from_cells(cells));
                };
                if *left > 0 {
                    (*arg, *left) = (*arg + 1, *left - 1);
                    break self.heap[*arg - 1];
                }
                if let term::Cell::Struct(name, arity, _) = cells[*at] {
                    cells[*at] = term::Cell::Struct(name, arity, (cells.len() - *at - 1) as u32);
                }
                open.pop();
            };
        }
    }

    /// Keeps the buffer of a packet that has served its purpose — an arm
    /// claimed back before any thief saw it, an answer that has been joined
    /// — for the next [`Machine::pack`]. Almost every offered arm ends here,
    /// so a forking machine packs into buffers it already owns instead of
    /// allocating and freeing one per conjunction (arm packets run to
    /// hundreds of kilobytes; at that size the allocator goes to the kernel,
    /// and two threads doing so stall each other on the address space). The
    /// pool cannot outgrow the deepest nest of offers the machine has had.
    fn recycle(pool: &mut Vec<Vec<HCell>>, arm: Arc<Offer>) {
        if let Some(offer) = Arc::into_inner(arm) {
            pool.push(offer.into_arm().cells);
        }
    }

    /// Unpacks a packet on top of the arena — its variables as fresh unbound
    /// cells, then its body with every `Ref` and `Struct` base moved by one
    /// offset each — and returns the heap index of its first root.
    fn unpack(&mut self, packet: &Packet) -> usize {
        let vars = self.fresh_vars(packet.nvars as usize);
        self.write_relocated(&packet.cells, 0, vars)
    }

    /// Appends position-independent `cells` — a packet's body, a span of a
    /// layout — to the arena in one pass, moving every `Ref` by `vars`
    /// (where the cells' variable 0 lives) and every `Struct` block index
    /// from counting at `origin` to counting at the position the copy
    /// starts at, which is returned.
    fn write_relocated(&mut self, cells: &[HCell], origin: u32, vars: usize) -> usize {
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

    fn note_heap_high_water(&mut self) {
        self.stats.heap_high_water = self.stats.heap_high_water.max(self.heap.len());
    }

    // ------------------------------------------------------------------
    // Unification
    // ------------------------------------------------------------------

    #[inline]
    fn count_unification(&mut self) {
        self.counters.unifications += 1;
    }

    /// Walks the terms at `a` and `b` in step, `pair` judging each pair of
    /// cells, in pre-order left to right (a recursive walk's order) off
    /// `walk_stack`. The root pair stays off the stack: most head
    /// unifications are one pair. `Ok(None)` means every pair matched;
    /// `Err(limit)` that more than [`MAX_WALK_CELLS`] pairs were visited.
    pub(crate) fn walk_pairs<R>(
        &mut self,
        a: usize,
        b: usize,
        limit: TermLimit,
        mut pair: impl FnMut(&mut Machine, usize, usize) -> Pair<R>,
    ) -> Result<Option<R>, TermLimit> {
        let (a, b, n) = match pair(self, a, b) {
            Pair::Same | Pair::Args(_, _, 0) => return Ok(None),
            Pair::Differ(verdict) => return Ok(Some(verdict)),
            Pair::Args(a, b, n) => (a, b, n),
        };
        let mut stack = std::mem::take(&mut self.walk_stack);
        stack.push((a, b, n));
        let mut visits = 0;
        let result = loop {
            let Some(top) = stack.last_mut() else {
                break Ok(None);
            };
            let (a, b) = (top.0 as usize, top.1 as usize);
            *top = (top.0 + 1, top.1 + 1, top.2 - 1);
            if top.2 == 0 {
                stack.pop();
            }
            visits += 1;
            if visits > MAX_WALK_CELLS {
                break Err(limit);
            }
            match pair(self, a, b) {
                Pair::Same | Pair::Args(_, _, 0) => {}
                Pair::Differ(verdict) => break Ok(Some(verdict)),
                Pair::Args(a, b, n) => stack.push((a, b, n)),
            }
        };
        stack.clear();
        self.walk_stack = stack;
        result
    }

    /// Unifies the terms at two heap indices, recording bindings on the
    /// trail; a counted unification counts one per visited pair, as the
    /// seed interpreter did.
    pub(crate) fn unify(&mut self, a: usize, b: usize, charge: Charge) -> Result<bool, TermLimit> {
        let differ = self.walk_pairs(a, b, TermLimit::Unify, |machine, a, b| {
            machine.unify_pair(a, b, charge)
        })?;
        Ok(differ.is_none())
    }

    #[inline]
    fn unify_pair(&mut self, a: usize, b: usize, charge: Charge) -> Pair<()> {
        if charge == Charge::Counted {
            self.count_unification();
        }
        let a = self.deref_idx(a);
        let b = self.deref_idx(b);
        match (self.heap[a], self.heap[b]) {
            (HCell::Ref(_), HCell::Ref(_)) if a == b => Pair::Same,
            (HCell::Ref(_), _) => {
                self.bind_to(a, b);
                Pair::Same
            }
            (_, HCell::Ref(_)) => {
                self.bind_to(b, a);
                Pair::Same
            }
            (HCell::Struct(f, n, pa), HCell::Struct(g, m, pb)) if f == g && n == m => {
                Pair::Args(pa, pb, n)
            }
            (x, y) if x == y => Pair::Same,
            _ => Pair::Differ(()),
        }
    }

    /// Unifies the term at a heap index with a cell value, counting one
    /// unification for the root pair as [`Machine::unify`] does. An unbound
    /// target is bound in place and a constant compared in place; only when
    /// both sides are compounds is the value parked in the arena (garbage
    /// afterwards; truncation reclaims it) so their arguments can be walked.
    #[inline]
    pub(crate) fn unify_cell(&mut self, a: usize, value: HCell) -> Result<bool, TermLimit> {
        if let HCell::Ref(j) = value {
            return self.unify(a, j as usize, Charge::Counted);
        }
        let target = self.deref_idx(a);
        match (self.heap[target], value) {
            (HCell::Struct(..), HCell::Struct(..)) => {
                let idx = self.heap.len();
                self.heap.push(value);
                self.unify(target, idx, Charge::Counted)
            }
            (HCell::Ref(_), value) => {
                self.count_unification();
                self.bind_cell(target, value);
                Ok(true)
            }
            (cell, value) => {
                self.count_unification();
                Ok(cell == value)
            }
        }
    }

    /// The current trail height, for probe-and-undo builtins.
    pub(crate) fn trail_mark(&self) -> usize {
        self.trail.len()
    }

    /// Unifies a goal subterm (by heap index) with the head cell at `*pos`,
    /// moving `*pos` past what it matched (on failure the cursor is
    /// abandoned along with the whole head attempt): a compound whose
    /// functor matches the goal's leaves its argument pairs to
    /// [`Machine::unify_head`], pushing the goal's argument block on
    /// `arg_blocks`. Counter-for-counter identical to writing the head and
    /// unifying: one count per visited pair, and a head subtree is only
    /// *written into the arena* when the goal side is an unbound variable.
    fn unify_head_cell(
        &mut self,
        goal: usize,
        templ: &ClauseTemplate,
        pos: &mut usize,
        var_base: usize,
    ) -> Result<bool, TermLimit> {
        let layout = templ.layout();
        match layout.cells()[*pos] {
            term::Cell::Var(v) if templ.first_in_head(v) == *pos => {
                // First occurrence of a head variable: its cell is unbound
                // by construction, so this is a plain bind — same
                // one-unification count and binding direction as the general
                // path, minus its dereferences.
                *pos += 1;
                self.count_unification();
                let head_var = var_base + v;
                debug_assert!(
                    matches!(self.heap[head_var], HCell::Ref(x) if x as usize == head_var),
                    "first occurrence is unbound"
                );
                let g = self.deref_idx(goal);
                match self.heap[g] {
                    HCell::Ref(_) => self.bind_cell(g, HCell::Ref(head_var as u32)),
                    value => self.bind_cell(head_var, value),
                }
                Ok(true)
            }
            term::Cell::Var(v) => {
                *pos += 1;
                self.unify(goal, var_base + v, Charge::Counted)
            }
            term::Cell::Struct(f, arity, _) => {
                self.count_unification();
                let g = self.deref_idx(goal);
                match self.heap[g] {
                    HCell::Ref(_) => {
                        // Written on demand: only here does a head subtree
                        // become arena cells.
                        let value = self.write(layout, *pos, var_base);
                        *pos = layout.end(*pos);
                        self.bind_cell(g, value);
                        Ok(true)
                    }
                    HCell::Struct(gf, gn, gargs) if gf == f && gn == arity => {
                        *pos += 1;
                        self.arg_blocks.push((gargs, arity));
                        Ok(true)
                    }
                    _ => Ok(false),
                }
            }
            constant => {
                // An atom, integer or float binds or compares one cell.
                *pos += 1;
                self.count_unification();
                let value = HCell::constant(constant);
                let g = self.deref_idx(goal);
                Ok(match self.heap[g] {
                    HCell::Ref(_) => {
                        self.bind_cell(g, value);
                        true
                    }
                    other => other == value,
                })
            }
        }
    }

    /// Unifies an immediate (numeric) value with the template subterm whose
    /// root is `cell` — the `Lhs is Rhs` path. Same counts as routing the
    /// value through [`Machine::unify_head_cell`] with a parked goal cell.
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

    /// Unifies a goal with a clause head template, renaming clause-local
    /// variables by `var_base`. Counts exactly what the seed's
    /// `unify(goal, rename(head))` counted: one for the whole-head pair plus
    /// one per visited subterm pair. The head's cells are matched in
    /// preorder by one cursor, against the goal argument blocks stacked on
    /// `arg_blocks`, so no native frame is spent per level of the head.
    fn unify_head(
        &mut self,
        goal_args: usize,
        templ: &ClauseTemplate,
        var_base: usize,
    ) -> Result<bool, TermLimit> {
        self.count_unification();
        let arity = templ.head_arity() as u32;
        if arity > 0 {
            self.arg_blocks.push((goal_args as u32, arity));
        }
        let mut pos = 0;
        let matched = loop {
            let Some(top) = self.arg_blocks.last_mut() else {
                break Ok(true);
            };
            let goal = top.0 as usize;
            *top = (top.0 + 1, top.1 - 1);
            // A block is dropped as its last cell is taken, so a list spine
            // takes no stack.
            if top.1 == 0 {
                self.arg_blocks.pop();
            }
            match self.unify_head_cell(goal, templ, &mut pos, var_base) {
                Ok(true) => {}
                unmatched => break unmatched,
            }
        };
        self.arg_blocks.clear();
        matched
    }

    // ------------------------------------------------------------------
    // Work accounting
    // ------------------------------------------------------------------

    pub(crate) fn charge_builtin(&mut self) {
        self.counters.builtins += 1;
    }

    /// One grain-size test over `elements` list or term elements: a unit of
    /// work plus one per element traversed (see [`Counters::work`]).
    pub(crate) fn charge_grain_test(&mut self, elements: u64) {
        self.counters.grain_tests += 1;
        self.counters.grain_test_elements += elements;
    }

    /// One head attempt, the step a [`Budget`] counts: the one past the
    /// solve's step budget ends it.
    fn charge_head_attempt(&mut self) -> EngineResult<()> {
        self.counters.head_attempts += 1;
        if self.counters.head_attempts > self.step_limit {
            return Err(EngineError::BudgetExceeded {
                resource: BudgetKind::Steps,
                limit: self.step_limit,
            });
        }
        Ok(())
    }

    fn charge_resolution(&mut self) {
        self.counters.resolutions += 1;
    }

    // ------------------------------------------------------------------
    // Goal stack & choice points
    // ------------------------------------------------------------------

    /// Pushes a goal slot. If the slot being written belongs to a live
    /// choice point's saved continuation (one integer compare; never true in
    /// deterministic execution), the old slot is recorded on the goal trail
    /// first so backtracking restores it.
    fn push_goal(&mut self, goal: Goal) -> EngineResult<()> {
        if self.goal_top >= self.config.max_depth {
            return Err(EngineError::DepthLimit(self.config.max_depth));
        }
        if self.goal_top < self.protect {
            self.goal_trail
                .push((self.goal_top as u32, self.goal_stack[self.goal_top]));
        }
        if self.goal_top == self.goal_stack.len() {
            self.goal_stack.push(goal);
        } else {
            self.goal_stack[self.goal_top] = goal;
        }
        self.goal_top += 1;
        Ok(())
    }

    /// Pushes a compiled step sequence (in reverse, so execution runs left
    /// to right) with the given activation context.
    fn push_seq(&mut self, clause: u32, seq: Seq, var_base: u32, cut: u32) -> EngineResult<()> {
        for k in (0..seq.len).rev() {
            self.push_goal(Goal::Step(StepRef {
                clause,
                step: seq.start + k,
                var_base,
                cut,
            }))?;
        }
        Ok(())
    }

    /// Pushes a pending goal sequence (a retried disjunction arm or a taken
    /// if-then-else branch).
    fn push_pend(&mut self, pend: Pend) -> EngineResult<()> {
        match pend {
            Pend::Cell(cell) => self.push_goal(Goal::Cell(cell)),
            Pend::Seq {
                clause,
                seq,
                var_base,
                cut,
            } => self.push_seq(clause, seq, var_base, cut),
        }
    }

    fn undo_goal_trail(&mut self, mark: usize) {
        while self.goal_trail.len() > mark {
            let (slot, old) = self.goal_trail.pop().expect("length checked");
            self.goal_stack[slot as usize] = old;
        }
    }

    fn push_choice_point(
        &mut self,
        retry: Retry,
        trail_mark: usize,
        heap_mark: usize,
        goal_trail_mark: usize,
    ) {
        let goal_top = self.goal_top;
        let protect_prev = self.protect;
        self.protect = self.protect.max(goal_top);
        self.choice_points.push(ChoicePoint {
            retry,
            goal_top,
            protect_prev,
            trail_mark,
            heap_mark,
            goal_trail_mark,
        });
    }

    /// Discards choice points above `cp_base` without restoring state —
    /// commit to the bindings made since (first-solution semantics of
    /// isolation barriers).
    fn commit_choice_points(&mut self, cp_base: usize) {
        if self.choice_points.len() > cp_base {
            self.protect = self.choice_points[cp_base].protect_prev;
            self.choice_points.truncate(cp_base);
        }
    }

    /// Backtracks to the most recent choice point above the current barrier
    /// floor that yields a continuation: restores trail, arena, goal stack
    /// and protection watermark, then retries the record's alternative.
    /// Returns `false` when no choice point above the floor remains (the
    /// current (sub-)solve fails).
    fn backtrack(&mut self, image: &Image) -> EngineResult<bool> {
        while self.choice_points.len() > self.base_cp {
            let cp = self.choice_points.pop().expect("length checked");
            self.protect = cp.protect_prev;
            self.undo_trail(cp.trail_mark);
            self.note_heap_high_water();
            self.heap.truncate(cp.heap_mark);
            self.undo_goal_trail(cp.goal_trail_mark);
            self.goal_top = cp.goal_top;
            match cp.retry {
                Retry::Alt { pend } => {
                    self.push_pend(pend)?;
                    return Ok(true);
                }
                Retry::Clauses {
                    goal,
                    cands,
                    cursor,
                } => {
                    if self.profiled_clauses(image, goal, cands, cursor)? {
                        return Ok(true);
                    }
                    // Candidates exhausted: keep unwinding.
                }
            }
        }
        Ok(false)
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    /// Pushes an isolation barrier at the current machine position. The
    /// sub-goal(s) of the guarded construct are pushed (above the barrier's
    /// `goal_base`) by the caller afterwards.
    fn push_barrier(&mut self, exit: BarrierExit) -> EngineResult<()> {
        if self.barriers.len() >= self.config.max_depth {
            return Err(EngineError::DepthLimit(self.config.max_depth));
        }
        self.barriers.push(Barrier {
            exit,
            goal_base: self.goal_top,
            cp_base: self.choice_points.len(),
            trail_mark: self.trail.len(),
            heap_mark: self.heap.len(),
        });
        self.base_goal = self.goal_top;
        self.base_cp = self.choice_points.len();
        self.stats.max_barrier_depth = self.stats.max_barrier_depth.max(self.barriers.len());
        Ok(())
    }

    /// Pops the innermost barrier and restores the cached floor fields from
    /// the one below (or the query's, with none left).
    fn pop_barrier(&mut self) -> Barrier {
        let barrier = self.barriers.pop().expect("barrier stack is non-empty");
        let (goal, cp) = self
            .barriers
            .last()
            .map(|b| (b.goal_base, b.cp_base))
            .unwrap_or((0, 0));
        self.base_goal = goal;
        self.base_cp = cp;
        barrier
    }

    /// Undoes bindings and arena growth back to a barrier's entry marks (the
    /// "condition failed" / "negation" exit path).
    fn undo_to_barrier(&mut self, trail_mark: usize, heap_mark: usize) {
        self.undo_trail(trail_mark);
        self.note_heap_high_water();
        self.heap.truncate(heap_mark);
    }

    // ------------------------------------------------------------------
    // The solver
    // ------------------------------------------------------------------

    /// The solve loop: runs the goal stack down to the innermost barrier's
    /// base — resolving barriers as they complete — until the query's own
    /// base is reached (success, `Ok(true)`) or failure propagates past the
    /// last choice point and barrier (failure, `Ok(false)`).
    ///
    /// This is the whole engine: barriers and choice points are explicit
    /// records, so no native Rust frame is consumed per control nesting
    /// level, per resolution, or per backtrack.
    fn run(&mut self, hook: Option<&dyn ParHook>, limits: &Limits) -> EngineResult<bool> {
        // One refcount bump per solve: the image is immutable, so the solve
        // loop borrows it once instead of re-cloning per clause activation.
        let image = Arc::clone(&self.image);
        let wk = well_known::get();
        // Wall-clock is polled once per `wall_poll_mask + 1` loop iterations
        // (the stride tightens adaptively near the deadline — see
        // `next_wall_poll_mask`); the arena bound is an exact integer
        // compare checked every iteration.
        let mut wall_poll_mask: u32 = INITIAL_WALL_POLL_MASK;
        let mut iter: u32 = 0;
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
            // Arena and clock checks, at the resolution boundary only. They
            // read the counters and never write them.
            if limits.active {
                if self.heap.len() > limits.heap_limit {
                    return Err(EngineError::BudgetExceeded {
                        resource: BudgetKind::HeapCells,
                        limit: limits.heap_limit as u64,
                    });
                }
                if let Some(deadline) = limits.deadline {
                    iter = iter.wrapping_add(1);
                    if iter & wall_poll_mask == 0 {
                        let now = Instant::now();
                        if now >= deadline {
                            return Err(EngineError::BudgetExceeded {
                                resource: BudgetKind::Wall,
                                limit: limits.wall_ms,
                            });
                        }
                        wall_poll_mask = next_wall_poll_mask(
                            wall_poll_mask,
                            deadline - now,
                            limits.wall_allowance,
                        );
                    }
                }
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

    /// Handles the innermost barrier's sub-solve reaching its base
    /// (success). Returns `Ok(false)` when the construct's semantics turn
    /// that success into failure (a succeeded `\+`), which the caller
    /// propagates through [`Machine::fail`].
    fn barrier_done(&mut self, image: &Image, hook: Option<&dyn ParHook>) -> EngineResult<bool> {
        // The arm of a parallel conjunction that just succeeded commits to
        // its first solution, and while arms remain the conjunction advances
        // in place, under the same barrier.
        let top = self.barriers.len() - 1;
        if let BarrierExit::Par(mut state) = self.barriers[top].exit {
            self.commit_choice_points(self.barriers[top].cp_base);
            let next = self.next_arm(hook, &mut state);
            self.barriers[top].exit = BarrierExit::Par(state);
            match next? {
                ArmNext::Run(arm) => {
                    self.record_arm_exit(Some(state.first_task + arm as usize));
                    self.push_arm(image, state.arms, arm)?;
                    return Ok(true);
                }
                // `fail` unwinds the barrier: the conjunction's bindings are
                // undone and what is still on offer is withdrawn.
                ArmNext::Fail => return Ok(false),
                ArmNext::Done => {}
            }
        }
        let barrier = self.pop_barrier();
        match barrier.exit {
            BarrierExit::Not => {
                // The negated goal succeeded: discard the choice points of
                // its interior, undo its bindings, and fail the `\+`.
                self.commit_choice_points(barrier.cp_base);
                self.undo_to_barrier(barrier.trail_mark, barrier.heap_mark);
                Ok(false)
            }
            BarrierExit::Cond { then_, .. } => {
                // The condition succeeded: commit to its first solution and
                // take the then-branch with the bindings kept.
                self.commit_choice_points(barrier.cp_base);
                self.push_pend(then_)?;
                Ok(true)
            }
            BarrierExit::Par(state) => {
                // Every arm succeeded, here or elsewhere.
                self.record_arm_exit(None);
                if let ArmSource::Scratch { base } = state.arms {
                    self.arm_scratch.truncate(base as usize);
                }
                if state.offers != NOT_OFFERED {
                    self.cancel_offers(hook, state.offers as usize);
                }
                Ok(true)
            }
        }
    }

    /// What a parallel conjunction does after one of its arms succeeded
    /// here. First the arms not yet started, in order: an offered one is
    /// claimed back to run here, or passed over if a thief holds it. Then
    /// the stolen arms are joined, in arm order: each one's answer is
    /// waited for ([`ParHook::join`]), its counters and work are merged as
    /// if the arm had run here, and its packet is unpacked and bound to the
    /// parent cells saved when the arm was packed — uncounted: a join
    /// binding is boundary bookkeeping, not program work, which is what
    /// makes the counters schedule-independent. An arm its thief handed
    /// back runs here after all, the thief's counters dropped.
    fn next_arm(
        &mut self,
        hook: Option<&dyn ParHook>,
        state: &mut ParState,
    ) -> EngineResult<ArmNext> {
        while state.next < state.count {
            let arm = state.next;
            state.next += 1;
            if state.offers == NOT_OFFERED {
                return Ok(ArmNext::Run(arm));
            }
            let slot = &mut self.offers[(state.offers + arm - 1) as usize].arm;
            if slot.as_ref().is_some_and(|offer| offer.claim()) {
                let offer = slot.take().expect("claimed just above");
                if let Some(hook) = hook {
                    hook.taken_back(&offer, false);
                }
                Self::recycle(&mut self.packet_pool, offer);
                return Ok(ArmNext::Run(arm));
            }
        }
        while state.offers != NOT_OFFERED && state.joined < state.count {
            let arm = state.joined;
            state.joined += 1;
            let offered = &mut self.offers[(state.offers + arm - 1) as usize];
            let (Some(offer), parents) = (offered.arm.take(), offered.parents as usize) else {
                continue;
            };
            let hook = hook.expect("arms are offered only through a hook");
            let answer = match hook.join(&offer)? {
                ArmEnd::Answer(answer) => answer,
                ArmEnd::Failed => return Ok(ArmNext::Fail),
                ArmEnd::HandedBack => return Ok(ArmNext::Run(arm)),
            };
            self.counters = self.counters.add(&answer.counters);
            let root = self.unpack(&answer.packet);
            self.packet_pool.push(answer.packet.cells);
            self.note_heap_high_water();
            for var in 0..offer.arm().nvars as usize {
                let parent = self.offer_parents[parents + var] as usize;
                if !self.unify(parent, root + var, Charge::Uncounted)? {
                    return Ok(ArmNext::Fail);
                }
            }
        }
        Ok(ArmNext::Done)
    }

    /// Drops the offer table from entry `from` up: an arm nobody has
    /// claimed yet is claimed so that nobody will, and `hook` (when there is
    /// one) takes it off its queue; the result of an arm a thief holds is
    /// abandoned with the entry.
    fn cancel_offers(&mut self, hook: Option<&dyn ParHook>, from: usize) {
        let Some(first) = self.offers.get(from) else {
            return;
        };
        self.offer_parents.truncate(first.parents as usize);
        // Innermost first, the order a hook's queue gives them up in.
        for offered in self.offers.drain(from..).rev() {
            if let Some(offer) = offered.arm.filter(|offer| offer.claim()) {
                if let Some(hook) = hook {
                    hook.taken_back(&offer, true);
                }
                Self::recycle(&mut self.packet_pool, offer);
            }
        }
    }

    /// Propagates failure: backtracks to the nearest resumable choice point,
    /// unwinding barriers (and applying their failure semantics) as their
    /// floors are reached. Returns `false` when the query itself has failed.
    fn fail(&mut self, image: &Image, hook: Option<&dyn ParHook>) -> EngineResult<bool> {
        loop {
            if self.backtrack(image)? {
                return Ok(true);
            }
            // No choice point above the floor: the innermost sub-solve
            // fails; its barrier decides what that means.
            if self.barriers.is_empty() {
                return Ok(false);
            }
            let barrier = self.pop_barrier();
            // Drop unconsumed goals of the failed attempt.
            self.goal_top = barrier.goal_base;
            self.undo_to_barrier(barrier.trail_mark, barrier.heap_mark);
            match barrier.exit {
                BarrierExit::Not => {
                    // The negated goal failed: the `\+` succeeds.
                    return Ok(true);
                }
                BarrierExit::Cond {
                    else_: Some(pend), ..
                } => {
                    // The condition failed: take the else-branch with the
                    // condition's bindings undone.
                    self.push_pend(pend)?;
                    return Ok(true);
                }
                BarrierExit::Cond { else_: None, .. } => {
                    // A bare `(Cond -> Then)` fails outright: keep unwinding
                    // in the enclosing region.
                }
                BarrierExit::Par(state) => {
                    // Independent and-parallelism: one failed arm, here or
                    // elsewhere, fails the whole conjunction (no
                    // backtracking across arms), so the arms still on offer
                    // are withdrawn.
                    self.record_arm_exit(None);
                    if let ArmSource::Scratch { base } = state.arms {
                        self.arm_scratch.truncate(base as usize);
                    }
                    if state.offers != NOT_OFFERED {
                        self.cancel_offers(hook, state.offers as usize);
                    }
                }
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
            // whole query, at the top level). Cuts in compiled clause bodies
            // take the [`Step::Cut`] path with the activation's barrier.
            0 if name == wk.cut => {
                self.commit_choice_points(self.base_cp);
                Ok(true)
            }
            0 if name == wk.fail || name == wk.false_ => Ok(false),
            2 if name == wk.comma => {
                self.push_goal(Goal::Cell(self.heap[args + 1]))?;
                self.push_goal(Goal::Cell(self.heap[args]))?;
                Ok(true)
            }
            2 if name == wk.par_and => {
                let base = self.arm_scratch.len();
                self.collect_arms(cell);
                let count = self.arm_scratch.len() - base;
                let offers = hook
                    .filter(|h| !h.keep_in_place(count))
                    .map_or(NOT_OFFERED, |h| self.try_offer(h, base));
                let first_task = self.record_fork(count);
                self.push_barrier(BarrierExit::Par(ParState {
                    arms: ArmSource::Scratch { base: base as u32 },
                    count: count as u32,
                    next: 1,
                    joined: 1,
                    first_task,
                    offers,
                }))?;
                self.push_goal(Goal::Cell(self.arm_scratch[base]))?;
                Ok(true)
            }
            2 if name == wk.semicolon => {
                // (Cond -> Then ; Else): the if-then-else shape is decided
                // at run time here because the left operand was not a
                // literal `->` at compile time (or the goal is a query /
                // metacall cell that was never compiled).
                let cond_then = match self.deref_cell(self.heap[args]) {
                    HCell::Struct(arrow, 2, ct) if arrow == wk.arrow => {
                        let ct = ct as usize;
                        Some((self.heap[ct], self.heap[ct + 1]))
                    }
                    _ => None,
                };
                if let Some((cond, then)) = cond_then {
                    self.push_barrier(BarrierExit::Cond {
                        then_: Pend::Cell(then),
                        else_: Some(Pend::Cell(self.heap[args + 1])),
                    })?;
                    self.push_goal(Goal::Cell(cond))?;
                } else {
                    // Plain disjunction: an explicit choice point holds the
                    // right arm; the left arm runs against the shared
                    // continuation in place.
                    let alt = self.heap[args + 1];
                    let first = self.heap[args];
                    self.push_choice_point(
                        Retry::Alt {
                            pend: Pend::Cell(alt),
                        },
                        self.trail.len(),
                        self.heap.len(),
                        self.goal_trail.len(),
                    );
                    self.push_goal(Goal::Cell(first))?;
                }
                Ok(true)
            }
            2 if name == wk.arrow => {
                self.push_barrier(BarrierExit::Cond {
                    then_: Pend::Cell(self.heap[args + 1]),
                    else_: None,
                })?;
                self.push_goal(Goal::Cell(self.heap[args]))?;
                Ok(true)
            }
            1 if name == wk.not => {
                self.push_barrier(BarrierExit::Not)?;
                self.push_goal(Goal::Cell(self.heap[args]))?;
                Ok(true)
            }
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

    /// Calls predicate number `pred` of the program with the materialized
    /// goal `goal`: selects the candidate clauses and tries them in order.
    fn call_user(&mut self, image: &Image, pred: u32, goal: HCell) -> EngineResult<bool> {
        // First-argument indexing: the principal functor of the
        // dereferenced first argument selects the candidate clauses.
        let goal_key = match goal {
            HCell::Struct(_, _, args) => self.index_key_at(args as usize),
            _ => None,
        };
        let cands = match self.config.clause_selection {
            ClauseSelection::Indexed => Cands::Indexed(image.select(pred, goal_key.as_ref())),
            // The seed's per-call linear scan with a key filter, kept for
            // differential testing of the index.
            ClauseSelection::LinearScan => Cands::Scanned(image.scan(pred, goal_key.as_ref())),
        };
        self.profiled_clauses(image, goal, cands, 0)
    }

    /// Executes one compiled body step. Control steps push barriers or
    /// choice points with their precompiled arm sequences; a call writes
    /// its goal from the clause's layout and goes straight to clause
    /// selection; builtin steps run in place; a goal only identified at run
    /// time is written the same way and takes the cell dispatch path.
    fn exec_step(
        &mut self,
        image: &Image,
        sref: StepRef,
        wk: &WellKnownSymbols,
        hook: Option<&dyn ParHook>,
    ) -> EngineResult<bool> {
        let StepRef {
            clause,
            step,
            var_base,
            cut,
        } = sref;
        let templ = &image.templates()[clause as usize];
        let heap_before = self.heap.len();
        match templ.steps()[step as usize] {
            Step::Goal(pos) => {
                let cell = self.write(templ.layout(), pos as usize, var_base as usize);
                self.profile_body_cells(clause, heap_before);
                self.exec_cell(image, cell, wk, hook)
            }
            Step::Call { pred, goal } => {
                let goal = self.write(templ.layout(), goal as usize, var_base as usize);
                self.profile_body_cells(clause, heap_before);
                self.call_user(image, pred, goal)
            }
            Step::Builtin(builtin) => {
                let ok = self.exec_builtin_step(templ, builtin, var_base as usize)?;
                self.profile_body_cells(clause, heap_before);
                Ok(ok)
            }
            Step::Cut => {
                // Prune to the activation's barrier, clamped to the
                // innermost isolation barrier: local inside `\+` and
                // if-then-else conditions, transparent in `;`/`->` branches.
                self.commit_choice_points((cut as usize).max(self.base_cp));
                Ok(true)
            }
            Step::Disj { left, right } => {
                self.push_choice_point(
                    Retry::Alt {
                        pend: Pend::Seq {
                            clause,
                            seq: right,
                            var_base,
                            cut,
                        },
                    },
                    self.trail.len(),
                    self.heap.len(),
                    self.goal_trail.len(),
                );
                self.push_seq(clause, left, var_base, cut)?;
                Ok(true)
            }
            Step::IfThenElse { cond, then_, else_ } => {
                self.push_barrier(BarrierExit::Cond {
                    then_: Pend::Seq {
                        clause,
                        seq: then_,
                        var_base,
                        cut,
                    },
                    else_: Some(Pend::Seq {
                        clause,
                        seq: else_,
                        var_base,
                        cut,
                    }),
                })?;
                self.push_seq(clause, cond, var_base, cut)?;
                Ok(true)
            }
            Step::IfThen { cond, then_ } => {
                self.push_barrier(BarrierExit::Cond {
                    then_: Pend::Seq {
                        clause,
                        seq: then_,
                        var_base,
                        cut,
                    },
                    else_: None,
                })?;
                self.push_seq(clause, cond, var_base, cut)?;
                Ok(true)
            }
            Step::Not { inner } => {
                self.push_barrier(BarrierExit::Not)?;
                self.push_seq(clause, inner, var_base, cut)?;
                Ok(true)
            }
            Step::Par { arms_at, arms_len } => {
                let mut offers = NOT_OFFERED;
                if let Some(h) = hook.filter(|h| !h.keep_in_place(arms_len as usize)) {
                    // Write the arm terms only to pack them: the arms that
                    // run here run off their compiled sequences below, so
                    // the copies are dropped again.
                    let heap_mark = self.heap.len();
                    let base = self.arm_scratch.len();
                    for k in 0..arms_len {
                        let pos = templ.par_arm_cell_positions()[(arms_at + k) as usize];
                        let cell = self.write(templ.layout(), pos as usize, var_base as usize);
                        self.arm_scratch.push(cell);
                    }
                    offers = self.try_offer(h, base);
                    self.arm_scratch.truncate(base);
                    self.heap.truncate(heap_mark);
                }
                let first_task = self.record_fork(arms_len as usize);
                let arms = ArmSource::Compiled {
                    clause,
                    arms_at,
                    var_base,
                    cut,
                };
                self.push_barrier(BarrierExit::Par(ParState {
                    arms,
                    count: arms_len,
                    next: 1,
                    joined: 1,
                    first_task,
                    offers,
                }))?;
                self.push_arm(image, arms, 0)?;
                Ok(true)
            }
        }
    }

    /// Records, in a recorded solve, a fork of `n` arm tasks in the current
    /// task and enters the first; returns its id (0 in any other solve).
    fn record_fork(&mut self, n: usize) -> TaskId {
        let Some(recorder) = self.recorder.as_mut() else {
            return 0;
        };
        let first = recorder.record_fork(n, &self.counters).start;
        recorder.push(first, &self.counters);
        first
    }

    /// Records, in a recorded solve, the end of the running arm's task and
    /// the start of task `next`, if there is one.
    fn record_arm_exit(&mut self, next: Option<TaskId>) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.pop(&self.counters);
            if let Some(task) = next {
                recorder.push(task, &self.counters);
            }
        }
    }

    /// Offers arms `1..` of the conjunction whose arm cells sit in
    /// `arm_scratch[base..]` (left in place) to the parallel hook, and
    /// returns where their entries start in the offer table — or
    /// [`NOT_OFFERED`], with the hook notified, when the arms are not
    /// independent. Either way the caller then runs the conjunction on its
    /// ordinary inline path.
    ///
    /// This is the forking half of the spawn boundary documented in
    /// [`crate::par`], reached only by a conjunction the hook did not keep
    /// in place. Packing is also the independence check: an unbound
    /// variable shared between arms would make their first solutions
    /// order-dependent, so such a conjunction is not offered and parallel
    /// execution stays answer-equivalent to sequential execution.
    fn try_offer(&mut self, hook: &dyn ParHook, base: usize) -> u32 {
        let Some(own_vars) = self.pack_arms(base) else {
            hook.note_inlined();
            self.offer_batch.clear();
            return NOT_OFFERED;
        };
        // `pack_parents` is arm 0's parent cells, then arm 1's, and so on;
        // nested conjunctions will reuse it, so the offered arms' tables
        // move to the offer table's side.
        let first = self.offers.len() as u32;
        let mut parents = self.offer_parents.len() as u32;
        self.offer_parents
            .extend_from_slice(&self.pack_parents[own_vars..]);
        hook.offer(&self.offer_batch);
        for arm in self.offer_batch.drain(..) {
            let nvars = arm.arm().nvars;
            self.offers.push(Offered {
                arm: Some(arm),
                parents,
            });
            parents += nvars;
        }
        first
    }

    /// Numbers the unbound cells of the arms in `arm_scratch[base..]` over
    /// one variable numbering: arm 0's by a walk (it never leaves; its cells
    /// are the ones the later arms must not share), each later arm's by
    /// packing it into a slot pushed on `offer_batch`. Returns arm 0's
    /// variable count — where the later arms' tables start in
    /// `pack_parents` — or `None` when two arms share an unbound cell, or
    /// one is cyclic or too large to copy: such an arm runs inline, as a
    /// dependent one does.
    fn pack_arms(&mut self, base: usize) -> Option<usize> {
        self.pack_vars.clear();
        self.pack_parents.clear();
        self.number_unbound(self.arm_scratch[base]).ok()?;
        let own_vars = self.pack_parents.len();
        for k in base + 1..self.arm_scratch.len() {
            let arm = self.pack([self.arm_scratch[k]]).ok()?;
            self.offer_batch.push(Offer::new(arm));
        }
        Some(own_vars)
    }

    /// Pushes parallel arm `k` from its source (compiled sequence or
    /// run-time scratch cell).
    fn push_arm(&mut self, image: &Image, arms: ArmSource, k: u32) -> EngineResult<()> {
        match arms {
            ArmSource::Compiled {
                clause,
                arms_at,
                var_base,
                cut,
            } => {
                let seq = image.templates()[clause as usize].par_arms()[(arms_at + k) as usize];
                self.push_seq(clause, seq, var_base, cut)
            }
            ArmSource::Scratch { base } => {
                let arm = self.arm_scratch[base as usize + k as usize];
                self.push_goal(Goal::Cell(arm))
            }
        }
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

    /// [`Machine::try_clauses`] with per-predicate port accounting when the
    /// profiler is on. Both clause-selection entry points (`exec_cell` for
    /// fresh calls, `backtrack` for redos) route through here; with the
    /// profiler off this is a single null-check and a tail call, and the
    /// operation counters are untouched either way.
    #[inline]
    fn profiled_clauses(
        &mut self,
        image: &Image,
        goal: HCell,
        cands: Cands,
        cursor: usize,
    ) -> EngineResult<bool> {
        if self.profiler.is_none() {
            return self.try_clauses(image, goal, cands, cursor);
        }
        let pred = match goal {
            HCell::Struct(name, arity, _) => PredId::new(name, arity as usize),
            HCell::Atom(name) => PredId::new(name, 0),
            // Unreachable: clause selection only runs for user-predicate
            // goals, which are atoms or structures. Fall through untracked.
            _ => return self.try_clauses(image, goal, cands, cursor),
        };
        let head_attempts_before = self.counters.head_attempts;
        let unifications_before = self.counters.unifications;
        let heap_before = self.heap.len();
        let result = self.try_clauses(image, goal, cands, cursor);
        // Compute deltas into locals before borrowing the profiler mutably.
        let head_attempts = self.counters.head_attempts - head_attempts_before;
        let unifications = self.counters.unifications - unifications_before;
        let heap_cells = (self.heap.len().saturating_sub(heap_before)) as u64;
        let profiler = self.profiler.as_mut().expect("checked above");
        let entry = profiler.entry(pred);
        if cursor == 0 {
            entry.calls += 1;
        } else {
            entry.redos += 1;
        }
        entry.head_attempts += head_attempts;
        entry.unifications += unifications;
        entry.heap_cells += heap_cells;
        match result {
            Ok(true) => entry.exits += 1,
            Ok(false) => entry.fails += 1,
            // Budget/limit error: the run is aborting and the port is
            // undetermined; leave the entry as-is.
            Err(_) => {}
        }
        result
    }

    /// Charges the arena cells a body step of `clause` has written since
    /// `heap_before` — a call's argument image, a builtin's goal term — to
    /// the clause's predicate, when the profiler is on.
    #[inline]
    fn profile_body_cells(&mut self, clause: u32, heap_before: usize) {
        if let Some(profiler) = self.profiler.as_mut() {
            let written = self.heap.len().saturating_sub(heap_before) as u64;
            let pred = self.image.head_pred(clause as usize);
            profiler.entry(pred).heap_cells += written;
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
    fn try_clauses(
        &mut self,
        image: &Image,
        goal: HCell,
        cands: Cands,
        cursor: usize,
    ) -> EngineResult<bool> {
        let cut_cp = self.choice_points.len() as u32;
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
                    self.push_seq(clause_id as u32, templ.body_seq(), var_base as u32, cut_cp)?;
                    return Ok(true);
                }
            }
            self.undo_trail(trail_mark);
            self.note_heap_high_water();
            self.heap.truncate(heap_mark);
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
    fn exec_builtin_step(
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

    /// Flattens a (possibly nested) `&` conjunction into dereferenced arm
    /// cells appended to the shared scratch buffer, left to right.
    fn collect_arms(&mut self, cell: HCell) {
        let par_and = well_known::get().par_and;
        // Right operands still to flatten, innermost last.
        let mut rights = vec![cell];
        while let Some(right) = rights.pop() {
            let mut cell = self.deref_cell(right);
            while let HCell::Struct(s, 2, base) = cell {
                if s != par_and {
                    break;
                }
                rights.push(self.heap[base as usize + 1]);
                cell = self.deref_cell(self.heap[base as usize]);
            }
            self.arm_scratch.push(cell);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Loads a term into the arena (reserving slots for its variables) and
    /// returns a heap index for it: for unit tests that want to evaluate or
    /// inspect a term outside a query.
    pub(crate) fn write_term(machine: &mut Machine, term: &Term) -> usize {
        let mut layout = Layout::default();
        let root = layout.add(term.cells());
        layout.lay_out(root);
        let var_base = machine.fresh_vars(layout.vars());
        let cell = machine.write(&layout, root, var_base);
        machine.heap.push(cell);
        machine.heap.len() - 1
    }
    use granlog_ir::parser::parse_program;

    fn run(program_src: &str, query: &str) -> QueryOutcome {
        let program = parse_program(program_src).unwrap();
        let mut machine = Machine::new(&program);
        machine.run_query(query).unwrap()
    }

    const APPEND: &str = r#"
        append([], L, L).
        append([H|T], L, [H|R]) :- append(T, L, R).
    "#;

    #[test]
    fn machine_is_send() {
        // The parallel executor moves machines between worker threads (one
        // machine per worker, plus a shared free-list). Nothing in the
        // machine may reintroduce a non-Send handle.
        fn assert_send<T: Send + 'static>() {}
        assert_send::<Machine>();
    }

    #[test]
    fn a_machine_outlives_the_program_it_was_compiled_from() {
        fn owned() -> Machine {
            let program = parse_program(APPEND).unwrap();
            Machine::new(&program)
        }
        let mut machine = owned();
        let out = machine.run_query("append(X, [3], [1, 2, 3])").unwrap();
        assert_eq!(out.binding("X").unwrap().to_string(), "[1,2]");
        // ... and so does a second machine made from the first one's image,
        // on another thread.
        let image = Arc::clone(&machine.image);
        drop(machine);
        let out = std::thread::spawn(move || {
            Machine::from_image(image, MachineConfig::default())
                .run_query("append([1], [2], X)")
                .unwrap()
        })
        .join()
        .unwrap();
        assert_eq!(out.binding("X").unwrap().to_string(), "[1,2]");
    }

    #[test]
    fn facts_and_failure() {
        let out = run("likes(mary, wine). likes(john, beer).", "likes(mary, wine)");
        assert!(out.succeeded);
        let out = run("likes(mary, wine).", "likes(mary, beer)");
        assert!(!out.succeeded);
    }

    #[test]
    fn append_computes_and_counts() {
        let out = run(APPEND, "append([1,2,3], [4,5], X)");
        assert!(out.succeeded);
        assert_eq!(out.binding("X").unwrap().to_string(), "[1,2,3,4,5]");
        // Cost_append(n) = n + 1 resolutions (the Appendix).
        assert_eq!(out.counters.resolutions, 4);
        assert_eq!(out.work, 4.0);
    }

    #[test]
    fn a_head_with_repeated_variables_binds_bound_unbound_and_aliased_goals() {
        // `X` three times at three depths, `Y` twice at the top level: the
        // first occurrence of each binds, every later one unifies with it.
        // Pinned per goal: the answer, then resolutions, head attempts,
        // unifications and the arena's high water.
        let program =
            parse_program("p(f(X, g(X)), X, Y, Y). q(Z) :- p(f(Z, _), _, _, Z).").unwrap();
        let mut machine = Machine::new(&program);
        for (goal, answer, counts) in [
            ("p(f(a, g(a)), a, b, b)", "yes", "1 1 8 9"),
            ("p(f(a, g(b)), B, C, D)", "no", "0 1 5 12"),
            (
                "p(A, B, C, D)",
                "A = f(_8,g(_8)) B = _8 C = _9 D = _9",
                "1 1 5 13",
            ),
            ("p(A, B, C, C)", "A = f(_7,g(_7)) B = _7 C = _8", "1 1 5 12"),
            (
                "p(f(A, B), A, C, A)",
                "A = _10 B = g(_10) C = _10",
                "1 1 7 12",
            ),
            ("p(f(1, g(B)), B, C, C)", "B = 1 C = _10", "1 1 8 11"),
            ("q(Z)", "Z = _13", "2 2 9 15"),
        ] {
            let out = machine.run_query(goal).unwrap();
            let rendered = if !out.succeeded {
                "no".to_owned()
            } else if out.bindings.is_empty() {
                "yes".to_owned()
            } else {
                let bindings = out.bindings.iter().map(|(v, t)| format!("{v} = {t}"));
                bindings.collect::<Vec<_>>().join(" ")
            };
            let c = out.counters;
            let high_water = machine.stats().heap_high_water;
            let counted = format!(
                "{} {} {} {high_water}",
                c.resolutions, c.head_attempts, c.unifications
            );
            assert_eq!(
                (rendered.as_str(), counted.as_str()),
                (answer, counts),
                "{goal}"
            );
        }
    }

    #[test]
    fn nrev_resolution_count_matches_closed_form() {
        let src = r#"
            nrev([], []).
            nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
            append([], L, L).
            append([H|T], L, [H|R]) :- append(T, L, R).
        "#;
        let program = parse_program(src).unwrap();
        let mut machine = Machine::new(&program);
        for n in [0usize, 1, 5, 10, 20] {
            let list: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            let query = format!("nrev([{}], X)", list.join(","));
            let out = machine.run_query(&query).unwrap();
            assert!(out.succeeded);
            // The paper's closed form: 0.5 n^2 + 1.5 n + 1 resolutions.
            let expected = (n * n) as f64 * 0.5 + 1.5 * n as f64 + 1.0;
            assert_eq!(out.counters.resolutions as f64, expected, "n = {n}");
            // And the output is the reversed list.
            if n > 0 {
                let reversed = out.binding("X").unwrap().as_list().unwrap();
                assert_eq!(reversed.len(), n);
                assert_eq!(reversed[0].to_string(), (n - 1).to_string());
            }
        }
    }

    #[test]
    fn arithmetic_and_comparison() {
        let src = r#"
            fib(0, 0).
            fib(1, 1).
            fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                         fib(M1, N1), fib(M2, N2), N is N1 + N2.
        "#;
        let out = run(src, "fib(11, X)");
        assert!(out.succeeded);
        assert_eq!(out.binding("X").unwrap(), &Term::int(89));
        assert!(out.counters.resolutions > 200);
    }

    #[test]
    fn deep_deterministic_recursion_runs_iteratively() {
        // The goal stack replaces solver recursion: 50k deterministic
        // resolutions execute on a test thread's default stack.
        let src = "count(0). count(N) :- N > 0, N1 is N - 1, count(N1).";
        let out = run(src, "count(50000)");
        assert!(out.succeeded);
        assert_eq!(out.counters.resolutions, 50_001);
    }

    #[test]
    fn backtracking_finds_later_clauses() {
        let src = r#"
            color(red). color(green). color(blue).
            nice(green).
            pick(C) :- color(C), nice(C).
        "#;
        let out = run(src, "pick(X)");
        assert!(out.succeeded);
        assert_eq!(out.binding("X").unwrap(), &Term::atom("green"));
    }

    #[test]
    fn backtracking_undoes_bindings() {
        let src = r#"
            p(1, a). p(2, b).
            q(2).
            r(X, Y) :- p(X, Y), q(X).
        "#;
        let out = run(src, "r(X, Y)");
        assert!(out.succeeded);
        assert_eq!(out.binding("X").unwrap(), &Term::int(2));
        assert_eq!(out.binding("Y").unwrap(), &Term::atom("b"));
    }

    #[test]
    fn backtracking_restores_shared_continuations() {
        // The continuation after the disjunction is consumed by the first
        // arm's attempt and must be re-exposed (via the goal trail) for the
        // second arm: r(X) runs twice, once per arm.
        let src = r#"
            r(1) :- fail.
            r(2).
            s(X) :- ( X = 1 ; X = 2 ), r(X).
        "#;
        let out = run(src, "s(X)");
        assert!(out.succeeded);
        assert_eq!(out.binding("X").unwrap(), &Term::int(2));
    }

    #[test]
    fn if_then_else() {
        let src = r#"
            classify(X, small) :- ( X < 10 -> true ; fail ).
            classify(X, big) :- ( X < 10 -> fail ; true ).
        "#;
        let out = run(src, "classify(3, C)");
        assert_eq!(out.binding("C").unwrap(), &Term::atom("small"));
        let out = run(src, "classify(30, C)");
        assert_eq!(out.binding("C").unwrap(), &Term::atom("big"));
    }

    #[test]
    fn negation_as_failure() {
        let src = "p(1). q(X) :- \\+ p(X).";
        assert!(!run(src, "q(1)").succeeded);
        assert!(run(src, "q(2)").succeeded);
    }

    #[test]
    fn cut_commits_to_first_solution() {
        // Real cut: after memb/2 finds its first solution, `!` prunes both
        // the recursive alternatives and the clause choice point, so X = b
        // is never reached.
        let src = r#"
            memb(X, [X|_]) :- !.
            memb(X, [_|T]) :- memb(X, T).
            s(X) :- memb(X, [a, b]), X = b.
        "#;
        assert!(!run(src, "s(X)").succeeded);
        // Without the guard the first (committed) solution is returned.
        let out = run(src, "memb(X, [a, b])");
        assert_eq!(out.binding("X").unwrap(), &Term::atom("a"));
    }

    #[test]
    fn cut_prunes_clause_alternatives() {
        // `max/3` in the classic cut style: once the first clause's guard
        // succeeds, the second clause must not be retried on backtracking.
        let src = r#"
            max(X, Y, X) :- X >= Y, !.
            max(_, Y, Y).
        "#;
        let out = run(src, "max(5, 3, M)");
        assert_eq!(out.binding("M").unwrap(), &Term::int(5));
        // With cut approximated as true this would succeed via clause 2.
        assert!(!run(src, "max(5, 3, M), M = 3").succeeded);
        assert!(run(src, "max(2, 3, M), M = 3").succeeded);
    }

    #[test]
    fn cut_prunes_choice_points_not_just_semantics() {
        // head_attempts pins the pruning: `first(X), fail` must not retry
        // c(2) and c(3) after the cut discarded c/1's choice point.
        let src = "c(1). c(2). c(3). first(X) :- c(X), !.";
        let out = run(src, "first(X), fail");
        assert!(!out.succeeded);
        // One attempt for first/1, one for c/1 — and none for the retries.
        assert_eq!(out.counters.head_attempts, 2);
        let out = run(src, "c(X), fail");
        assert_eq!(out.counters.head_attempts, 3, "without cut all retried");
    }

    #[test]
    fn cut_is_transparent_to_disjunction() {
        // A cut inside a disjunction arm prunes the disjunction's choice
        // point and the clause alternatives (ISO transparency).
        let src = "t(X) :- ( X = 1, ! ; X = 2 ).";
        assert!(run(src, "t(2)").succeeded, "cut not reached in left arm");
        assert!(
            !run(src, "t(X), X = 2").succeeded,
            "cut commits the left arm's binding"
        );
    }

    #[test]
    fn cut_is_local_to_negation() {
        // A cut inside `\+` prunes only choice points created inside the
        // negation (here: c/1's alternatives), never the enclosing ones.
        // (Double parentheses: `\+ (a, b)` would parse as `\+/2`.)
        let src = r#"
            c(1). c(2).
            d :- \+ ((c(X), !, X > 1)).
            g(1). g(2).
            h(Y) :- g(Y), \+ ((!, fail)), Y > 1.
        "#;
        // The cut commits `\+` to X = 1, whose guard fails: `\+` succeeds.
        assert!(run(src, "d").succeeded);
        // g/1's choice point survives the cut inside the negation: Y
        // advances to 2 on backtracking.
        assert!(run(src, "h(Y)").succeeded);
    }

    #[test]
    fn cut_is_local_to_if_then_else_conditions() {
        // ISO: a cut in the condition of if-then-else is local to the
        // condition. g/1's choice point must survive it.
        let src = r#"
            g(1). g(2).
            h(Y) :- g(Y), ( ! -> true ; true ), Y > 1.
        "#;
        let out = run(src, "h(Y)");
        assert!(out.succeeded);
        assert_eq!(out.binding("Y").unwrap(), &Term::int(2));
    }

    #[test]
    fn cut_in_then_branch_is_transparent() {
        // A cut in the *then* branch runs after the condition's barrier is
        // gone, so it prunes back to the clause activation.
        let src = r#"
            g(1). g(2).
            h(Y) :- g(Y), ( true -> ! ; true ), Y > 1.
        "#;
        assert!(!run(src, "h(Y)").succeeded);
    }

    #[test]
    fn metacalled_cut_prunes_to_the_enclosing_barrier() {
        // A cut reaching the machine as a bound variable goal (there is no
        // call/1 wrapper in this engine) prunes to the innermost barrier —
        // at the query level, the whole query.
        let src = "c(1). c(2). meta(G) :- c(X), G, X > 1.";
        assert!(!run(src, "meta(!)").succeeded);
        assert!(run(src, "meta(true)").succeeded);
    }

    #[test]
    fn deep_barrier_nesting_runs_iteratively() {
        // 10,000 recursion levels each opening negation, condition and
        // parallel-arm barriers: the explicit barrier stack executes them
        // without native recursion, so this runs on the default test-thread
        // stack.
        let src = r#"
            nn(0).
            nn(N) :- N > 0, N1 is N - 1, \+ \+ nn(N1).
            cc(0).
            cc(N) :- N > 0, N1 is N - 1, ( cc(N1) -> true ; fail ).
            pp(0).
            pp(N) :- N > 0, N1 is N - 1, pp(N1) & true.
        "#;
        let program = parse_program(src).unwrap();
        let mut machine = Machine::new(&program);
        let out = machine.run_query("nn(10000)").unwrap();
        assert!(out.succeeded);
        assert!(machine.stats().max_barrier_depth >= 10_000);
        let out = machine.run_query("cc(10000)").unwrap();
        assert!(out.succeeded);
        assert!(machine.stats().max_barrier_depth >= 10_000);
        let run = machine.run_query_recorded("pp(10000)").unwrap();
        assert!(run.outcome.succeeded);
        assert_eq!(run.task_tree.spawned_tasks(), 20_000);
        assert!(machine.stats().max_barrier_depth >= 10_000);
    }

    #[test]
    fn mixed_barrier_nesting_runs_iteratively() {
        // All three barrier kinds interleaved per level, 3,000 levels deep.
        let src = r#"
            mx(0).
            mx(N) :- N > 0, N1 is N - 1,
                     ( \+ \+ (mx(N1) & true) -> true ; fail ).
        "#;
        let out = run(src, "mx(3000)");
        assert!(out.succeeded);
    }

    #[test]
    fn disjunction() {
        let src = "p(X) :- ( X = a ; X = b ).";
        assert!(run(src, "p(a)").succeeded);
        assert!(run(src, "p(b)").succeeded);
        assert!(!run(src, "p(c)").succeeded);
    }

    #[test]
    fn parallel_conjunction_records_fork() {
        let src = r#"
            work(0).
            work(N) :- N > 0, N1 is N - 1, work(N1).
            both(N) :- work(N) & work(N).
        "#;
        let program = parse_program(src).unwrap();
        let run = Machine::new(&program)
            .run_query_recorded("both(10)")
            .unwrap();
        assert!(run.outcome.succeeded);
        let tree = &run.task_tree;
        assert_eq!(tree.spawned_tasks(), 2);
        assert_eq!(tree.fork_count(), 1);
        // Each arm does 11 resolutions of work/1.
        let kids = tree.task(tree.root()).children();
        assert_eq!(tree.task(kids[0]).local_work(), 11.0);
        assert_eq!(tree.task(kids[1]).local_work(), 11.0);
        // Total = 1 (both/1) + 2×11.
        assert_eq!(tree.total_work(), 23.0);
        // Critical path = 1 + max(11, 11).
        assert_eq!(tree.critical_path(), 12.0);
    }

    #[test]
    fn packets_number_variables_per_conjunction_and_relocate() {
        let program = parse_program("").unwrap();
        let mut m = Machine::new(&program);
        // The chain Z -> Y and the bound W make the packer dereference on
        // its way; variables sit at the bottom of the fresh arena.
        let (term, _) = parser::parse_term("t(f(X, g(Y, Z, 1.5)), h(W, V), k(X))").unwrap();
        let at = write_term(&mut m, &term);
        let HCell::Struct(_, 3, arms) = m.heap[at] else {
            panic!("t/3")
        };
        let arm = |m: &Machine, k: usize| m.heap[arms as usize + k];
        // X, Y, Z, W, V are cells 0..5.
        assert_eq!(m.unify(2, 1, Charge::Counted), Ok(true));
        assert_eq!(m.unify_cell(3, HCell::Int(7)), Ok(true));

        let first = m.pack([arm(&m, 0)]).expect("independent");
        assert_eq!((first.nvars, first.cells()), (2, 2 + 1 + 2 + 3));
        // The second arm's variable is numbered from 0 again, and follows
        // the first arm's in the shared parents table.
        let second = m.pack([arm(&m, 1)]).expect("independent");
        assert_eq!(
            second.cells,
            [
                HCell::Struct(Symbol::intern("h"), 2, 1),
                HCell::Int(7),
                HCell::Ref(0)
            ]
        );
        assert_eq!(m.pack_parents, [0, 1, 4]);
        assert!(
            matches!(m.pack([arm(&m, 2)]), Err(PackStop::Shared)),
            "X is arm 0's"
        );
        // Arm 0 walked instead of packed is numbered the same way.
        m.pack_vars.clear();
        m.pack_parents.clear();
        assert!(m.number_unbound(arm(&m, 0)).is_ok());
        assert_eq!(m.pack_parents, [0, 1]);
        assert!(matches!(m.pack([arm(&m, 2)]), Err(PackStop::Shared)));

        // Arm 0 unpacked above everything else reads back as a variant.
        let root = m.unpack(&first);
        assert_eq!(
            m.extract_cell(HCell::unbound(root)).unwrap().to_string(),
            format!("f(_{0},g(_{1},_{1},1.5))", root - 2, root - 1)
        );

        // A cyclic term stops the walk as it stops the copy: V = f(V).
        let block = m.heap.len();
        m.heap.push(HCell::Ref(4));
        m.bind_cell(4, HCell::Struct(Symbol::intern("f"), 1, block as u32));
        assert!(matches!(
            m.number_unbound(HCell::Ref(4)),
            Err(PackStop::Limit)
        ));
        assert!(matches!(m.pack([HCell::Ref(4)]), Err(PackStop::Limit)));
    }

    #[test]
    fn parallel_conjunction_fails_if_any_arm_fails() {
        let src = r#"
            ok.
            both :- ok & fail.
        "#;
        assert!(!run(src, "both").succeeded);
    }

    #[test]
    fn unknown_predicate_is_an_error() {
        let program = parse_program("p(1).").unwrap();
        let mut machine = Machine::new(&program);
        let err = machine.run_query("q(1)").unwrap_err();
        assert!(matches!(err, EngineError::UnknownPredicate(_)));
    }

    #[test]
    fn step_limit_is_enforced() {
        let program = parse_program("loop :- loop. p(1).").unwrap();
        let mut machine = Machine::new(&program);
        let (goal, vars) = granlog_ir::parser::parse_term("loop").unwrap();
        let budget = Budget {
            steps: Some(1000),
            ..Budget::default()
        };
        let err = machine.solve_goal(&goal, &vars, None, &budget).unwrap_err();
        assert_eq!(
            err,
            EngineError::BudgetExceeded {
                resource: BudgetKind::Steps,
                limit: 1000
            }
        );
        // The head attempt past the budget is the one that raised.
        assert_eq!(machine.counters().head_attempts, 1001);
        // A query that sets no step budget runs under the default one.
        assert!(machine.run_query("p(X)").unwrap().succeeded);
        assert_eq!(machine.step_limit, DEFAULT_STEPS);
    }

    #[test]
    fn depth_limit_bounds_the_goal_stack() {
        // A program that grows the pending-goal stack without bound (each
        // resolution pushes two goals and consumes one) must hit the depth
        // limit rather than exhaust memory.
        let program = parse_program("grow :- grow, grow.").unwrap();
        let mut machine = Machine::with_config(
            &program,
            MachineConfig {
                max_depth: 500,
                ..MachineConfig::default()
            },
        );
        let err = machine.run_query("grow").unwrap_err();
        assert!(matches!(err, EngineError::DepthLimit(_)));
    }

    #[test]
    fn grain_test_builtin_guides_execution() {
        let src = r#"
            qs([], []).
            qs([P|Xs], S) :-
                part(Xs, P, Sm, Bg),
                ( '$grain_ge'(Sm, length, 3), '$grain_ge'(Bg, length, 3) ->
                    qs(Sm, S1) & qs(Bg, S2)
                ;   qs(Sm, S1), qs(Bg, S2) ),
                app(S1, [P|S2], S).
            part([], _, [], []).
            part([X|Xs], P, [X|S], B) :- X =< P, part(Xs, P, S, B).
            part([X|Xs], P, S, [X|B]) :- X > P, part(Xs, P, S, B).
            app([], L, L).
            app([H|T], L, [H|R]) :- app(T, L, R).
        "#;
        let program = parse_program(src).unwrap();
        let run = Machine::new(&program)
            .run_query_recorded("qs([5,3,8,1,9,2,7,4,6,0], S)")
            .unwrap();
        let out = &run.outcome;
        assert!(out.succeeded);
        let sorted = out.binding("S").unwrap();
        assert_eq!(sorted.to_string(), "[0,1,2,3,4,5,6,7,8,9]");
        assert!(out.counters.grain_tests > 0);
        // Some conjunctions ran in parallel (big sublists), some sequentially.
        assert!(run.task_tree.spawned_tasks() > 0);
    }

    #[test]
    fn unmeasured_arguments_err_parallel_in_the_grain_test() {
        let holds = |measure: &str, k| {
            let out = run("d.", &format!("'$grain_ge'(a, {measure}, {k})"));
            assert_eq!(out.counters.grain_tests, 1, "{measure}");
            (out.succeeded, out.counters.grain_test_elements)
        };
        // An argument without size information passes, for free (the paper's
        // rule: unknown size errs parallel) ...
        for name in ["void", "ignore", "none", "'_'"] {
            assert_eq!(holds(name, 5), (true, 0), "{name}");
        }
        // ... and a measured one is measured.
        assert_eq!(holds("size", 5), (false, 1));
        assert_eq!(holds("size", 1), (true, 1));
    }

    #[test]
    fn indexing_skips_mismatched_clauses() {
        let src = r#"
            kind(0, zero).
            kind(1, one).
            kind(2, two).
        "#;
        let out = run(src, "kind(2, K)");
        assert!(out.succeeded);
        assert_eq!(out.binding("K").unwrap(), &Term::atom("two"));
        // With first-argument indexing only one head attempt is needed.
        assert_eq!(out.counters.head_attempts, 1);
    }

    #[test]
    fn machine_is_reusable_across_queries() {
        let program = parse_program(APPEND).unwrap();
        let mut machine = Machine::new(&program);
        let a = machine.run_query("append([1], [2], X)").unwrap();
        let b = machine.run_query("append([], [], X)").unwrap();
        assert!(a.succeeded && b.succeeded);
        // Counters are reset between queries.
        assert_eq!(b.counters.resolutions, 1);
    }

    #[test]
    fn stats_track_arena_and_choice_points() {
        let src = r#"
            color(red). color(green). color(blue).
            nice(blue).
            pick(C) :- color(C), nice(C).
        "#;
        let program = parse_program(src).unwrap();
        let mut machine = Machine::new(&program);
        let out = machine.run_query("pick(X)").unwrap();
        assert!(out.succeeded);
        let stats = machine.stats();
        assert!(stats.heap_high_water > 0);
    }

    #[test]
    fn finishing_on_the_budget_boundary_completes() {
        let program = parse_program("p(1).").unwrap();
        let mut machine = Machine::new(&program);
        let (goal, vars) = granlog_ir::parser::parse_term("p(X)").unwrap();
        // One head attempt finishes the query exactly as the budget ends.
        let steps = |n| Budget {
            steps: Some(n),
            ..Budget::default()
        };
        let out = machine.solve_goal(&goal, &vars, None, &steps(1)).unwrap();
        assert!(out.succeeded);
        let err = machine
            .solve_goal(&goal, &vars, None, &steps(0))
            .unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { limit: 0, .. }));
    }

    #[test]
    fn hard_step_budget_errors_and_unwinds() {
        let program = parse_program("loop :- loop.").unwrap();
        let mut machine = Machine::new(&program);
        let (goal, vars) = granlog_ir::parser::parse_term("loop").unwrap();
        let budget = Budget {
            steps: Some(100),
            ..Budget::default()
        };
        let err = machine.solve_goal(&goal, &vars, None, &budget).unwrap_err();
        assert_eq!(
            err,
            EngineError::BudgetExceeded {
                resource: BudgetKind::Steps,
                limit: 100
            }
        );
        // The unwind truncated the arena and emptied the trail, and the
        // machine answers the next query normally.
        assert_eq!(machine.heap_len(), 0);
        assert_eq!(machine.trail_len(), 0);
    }

    #[test]
    fn heap_budget_is_always_a_hard_error() {
        let src = r#"
            build(0, []).
            build(N, [N|T]) :- N > 0, N1 is N - 1, build(N1, T).
        "#;
        let program = parse_program(src).unwrap();
        let mut machine = Machine::new(&program);
        let (goal, vars) = granlog_ir::parser::parse_term("build(10000, L)").unwrap();
        let budget = Budget {
            heap_cells: Some(512),
            ..Budget::default()
        };
        let err = machine.solve_goal(&goal, &vars, None, &budget).unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                resource: BudgetKind::HeapCells,
                ..
            }
        ));
        assert_eq!(machine.heap_len(), 0);
        assert_eq!(machine.trail_len(), 0);
        let out = machine.run_query("build(3, L)").unwrap();
        assert!(out.succeeded);
    }

    #[test]
    fn wall_budget_preempts_long_runs() {
        let program = parse_program("loop :- loop. p(1).").unwrap();
        let mut machine = Machine::new(&program);
        let (goal, vars) = granlog_ir::parser::parse_term("loop").unwrap();
        let budget = Budget {
            wall: Some(Duration::from_millis(5)),
            ..Budget::default()
        };
        let err = machine.solve_goal(&goal, &vars, None, &budget).unwrap_err();
        assert_eq!(
            err,
            EngineError::BudgetExceeded {
                resource: BudgetKind::Wall,
                limit: 5
            }
        );
        assert_eq!(machine.heap_len(), 0);
        assert_eq!(machine.trail_len(), 0);
        assert!(machine.run_query("p(X)").unwrap().succeeded);
    }

    #[test]
    fn wall_poll_mask_halves_past_the_budget_midpoint() {
        let ms = Duration::from_millis;
        let allowance = ms(100);
        // More than half the allowance left: the stride stays coarse.
        assert_eq!(
            next_wall_poll_mask(INITIAL_WALL_POLL_MASK, ms(80), allowance),
            INITIAL_WALL_POLL_MASK
        );
        assert_eq!(
            next_wall_poll_mask(INITIAL_WALL_POLL_MASK, ms(50), allowance),
            INITIAL_WALL_POLL_MASK
        );
        // Under half left: each poll halves the stride...
        assert_eq!(
            next_wall_poll_mask(INITIAL_WALL_POLL_MASK, ms(49), allowance),
            INITIAL_WALL_POLL_MASK >> 1
        );
        // ...down to the floor, never below.
        let mut mask = INITIAL_WALL_POLL_MASK;
        for _ in 0..32 {
            mask = next_wall_poll_mask(mask, ms(1), allowance);
        }
        assert_eq!(mask, MIN_WALL_POLL_MASK);
        // Masks must stay of the form 2^k - 1 for `iter & mask` striding.
        let mut mask = INITIAL_WALL_POLL_MASK;
        while mask > MIN_WALL_POLL_MASK {
            assert_eq!(mask & (mask + 1), 0, "{mask:#x} is not 2^k - 1");
            mask = next_wall_poll_mask(mask, ms(0), allowance);
        }
    }

    #[test]
    fn wall_budget_overshoot_is_bounded() {
        let program = parse_program("loop :- loop.").unwrap();
        let mut machine = Machine::new(&program);
        let (goal, vars) = granlog_ir::parser::parse_term("loop").unwrap();
        let allowance = Duration::from_millis(25);
        let budget = Budget {
            wall: Some(allowance),
            ..Budget::default()
        };
        let start = Instant::now();
        let err = machine.solve_goal(&goal, &vars, None, &budget).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                resource: BudgetKind::Wall,
                ..
            }
        ));
        // The adaptive stride keeps the overshoot to a handful of fine-grained
        // polls. The bound is generous (4x the allowance) because CI machines
        // stall unpredictably, but it still pins the regression where a coarse
        // fixed stride lets a slow iteration overshoot unboundedly.
        assert!(
            elapsed < allowance * 4,
            "wall budget of {allowance:?} overshot to {elapsed:?}"
        );
    }

    #[test]
    fn work_respects_cost_model() {
        // The paper's resolutions model: a unit per resolution, and per
        // grain test one unit plus one per element it traversed. The task
        // tree, charged operation by operation, totals the same.
        let program = parse_program(APPEND).unwrap();
        let mut machine = Machine::new(&program);
        let query = "'$grain_ge'([a,b,c], length, 2), append([1,2], [3], X)";
        let run = machine.run_query_recorded(query).unwrap();
        let out = &run.outcome;
        assert!(out.succeeded);
        assert_eq!(out.counters.resolutions, 3);
        assert_eq!(out.counters.grain_test_elements, 2);
        assert_eq!(out.work, 3.0 + 1.0 + 2.0);
        assert_eq!(run.task_tree.total_work(), out.work);
    }

    #[test]
    fn profiler_ports_on_deterministic_query() {
        let program = parse_program(APPEND).unwrap();
        let mut machine = Machine::with_config(
            &program,
            MachineConfig {
                profile: true,
                ..MachineConfig::default()
            },
        );
        let out = machine.run_query("append([1,2,3], [4], X)").unwrap();
        assert!(out.succeeded);
        let rows = machine.profile().expect("profiling enabled");
        let (pred, p) = rows
            .iter()
            .find(|(pred, _)| pred.to_string() == "append/3")
            .expect("append profiled");
        assert_eq!(pred.arity, 3);
        // n + 1 calls, all deterministic: every entry exits, none backtrack.
        assert_eq!(p.calls, 4);
        assert_eq!(p.exits, 4);
        assert_eq!(p.fails, 0);
        assert_eq!(p.redos, 0);
        assert_eq!(p.calls + p.redos, p.exits + p.fails);
        // Head-attempt work attributed to append equals the machine total
        // (the query runs nothing else).
        assert_eq!(p.head_attempts, out.counters.head_attempts);
        assert!(p.heap_cells > 0);
    }

    #[test]
    fn profiler_counts_redos_and_fails() {
        let program = parse_program(
            r#"
            choice(1).
            choice(2).
            choice(3).
            pick(X) :- choice(X), X > 2.
        "#,
        )
        .unwrap();
        let mut machine = Machine::with_config(
            &program,
            MachineConfig {
                profile: true,
                ..MachineConfig::default()
            },
        );
        let out = machine.run_query("pick(X)").unwrap();
        assert!(out.succeeded);
        let rows = machine.profile().expect("profiling enabled");
        let (_, choice) = rows
            .iter()
            .find(|(pred, _)| pred.to_string() == "choice/1")
            .expect("choice profiled");
        // One call, two redos (X=1 and X=2 rejected by the guard), each
        // entry exits with the next candidate.
        assert_eq!(choice.calls, 1);
        assert_eq!(choice.redos, 2);
        assert_eq!(choice.exits, 3);
        assert_eq!(choice.fails, 0);
        assert_eq!(choice.calls + choice.redos, choice.exits + choice.fails);
    }

    #[test]
    fn profiler_off_by_default_and_counters_identical() {
        let program = parse_program(APPEND).unwrap();
        let mut plain = Machine::new(&program);
        let out_plain = plain.run_query("append([1,2,3], [4], X)").unwrap();
        assert!(plain.profile().is_none());

        let mut profiled = Machine::with_config(
            &program,
            MachineConfig {
                profile: true,
                ..MachineConfig::default()
            },
        );
        let out_profiled = profiled.run_query("append([1,2,3], [4], X)").unwrap();
        assert_eq!(out_plain.counters, out_profiled.counters);
        assert_eq!(
            out_plain.binding("X").unwrap().to_string(),
            out_profiled.binding("X").unwrap().to_string()
        );
    }

    #[test]
    fn profiler_resets_between_queries() {
        let program = parse_program(APPEND).unwrap();
        let mut machine = Machine::with_config(
            &program,
            MachineConfig {
                profile: true,
                ..MachineConfig::default()
            },
        );
        machine.run_query("append([1,2,3], [4], X)").unwrap();
        machine.run_query("append([1], [2], X)").unwrap();
        let rows = machine.profile().expect("profiling enabled");
        let (_, p) = rows
            .iter()
            .find(|(pred, _)| pred.to_string() == "append/3")
            .expect("append profiled");
        // Counts reflect only the second (n = 1) query.
        assert_eq!(p.calls, 2);
    }
}
