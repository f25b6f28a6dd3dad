//! # granlog-par
//!
//! A **multi-threaded and-parallel executor** for the granlog engine: the
//! piece that closes the paper's loop. *Task Granularity Analysis in Logic
//! Programs* (Debray, Lin & Hermenegildo, PLDI 1990) derives cost bounds so
//! that a parallel conjunction is only spawned when the work under it
//! exceeds the task-management overhead — a decision that only matters on a
//! real multiprocessor. `granlog-sim` replays recorded fork-join trees on a
//! *simulated* machine; this crate executes the programs on actual threads
//! and lets the analysis drive the spawn decision at run time. The runtime's
//! half of that bargain is keeping the overhead small, so a spawn here is an
//! *offer*: it costs a thread hand-over only when an idle thread takes it.
//!
//! # Architecture
//!
//! * **Offer, don't ship — and offer only to a taker.** Every conjunction
//!   runs on the machine that forked it, on the ordinary inline path. While
//!   the forking thread still has an arm on offer (one relaxed atomic load
//!   of its deque's length), a conjunction is *kept*: it runs in place as
//!   under [`Granularity::Off`], with nothing written, checked or packed.
//!   Otherwise, if its arms are independent, arms `1..` are packed and
//!   *offered* (see [`granlog_engine::par`]): one `Arc` slot each, pushed on
//!   the forking thread's own deque. When the forker reaches an arm it
//!   claims it back with one compare-and-swap, pops it and runs it in place.
//!   Only an arm an idle thread claimed first (a *steal*) crosses the spawn
//!   boundary. So a thread splits work off only when its own deque is empty
//!   (lazy binary splitting), and almost every conjunction costs what it
//!   costs without parallelism.
//! * **A deque per thread.** The owner pushes and pops at the newest end of
//!   its `Mutex<VecDeque>`; idle workers take the oldest entry of any deque
//!   (the biggest piece of work on offer). A worker with nothing to take
//!   polls briefly, then parks; a push, a completed steal or the end of the
//!   query wakes parked threads only when a sleeper count says there are
//!   any, so the common path makes no system call.
//! * **Pack out, unpack in — for stolen arms.** A stolen arm crosses by
//!   value: the thief unpacks the arm's packet at the bottom of an empty
//!   arena of its own ([`Machine::run_arm`]), solves it, and the values of
//!   the arm's variables travel back as a second packet. No heap cell is
//!   ever shared between threads. An answer that has no finite copy (a
//!   cyclic binding) is handed back instead, and the joiner runs the arm in
//!   place. The executor keeps one idle machine and makes others on the
//!   spot: the compiled image is shared, so a new machine is a handful of
//!   empty `Vec`s.
//! * **Deterministic join, help-first waiting.** When its local arms are
//!   done the forker joins the stolen ones *in arm order*. While a thief is
//!   still running, the joiner runs other offers instead of blocking —
//!   newest first, its own deque before the others', so what it takes on is
//!   small and native stack depth stays bounded by the conjunction nest —
//!   so the wait-for graph stays acyclic and nested conjunctions cannot
//!   deadlock. Join bindings are charged to no counter: answers,
//!   [`Counters`] and work are the same under every schedule, and the same
//!   as the sequential machine's on the program the executor runs.
//! * **Granularity control is the annotated program.** With
//!   [`Granularity::On`] the executor runs what the paper's compiler emits:
//!   the program the annotator ([`granlog_analysis::annotate`]) rewrites for
//!   the configured overhead, each `&` behind `'$grain_ge'` tests of its
//!   arms' driving arguments. A conjunction too small to pay for an offer
//!   takes the sequential branch and never reaches the spawn boundary; its
//!   tests are charged like any grain test.
//! * **Fault isolation.** A stolen arm runs under `catch_unwind`: a panic
//!   completes its slot as [`EngineError::WorkerPanic`] instead of hanging
//!   its joiner, and the arm's machine is discarded. A failed conjunction,
//!   an engine error and a budget overrun withdraw the arms still on offer,
//!   so every deque is empty again when the query returns. Executor locks
//!   recover from poisoning. The `failpoints` feature adds injectable faults
//!   at the `par.spawn` (stolen-arm execution) and `par.join` (result
//!   collection) seams — see the `granlog-fault` crate.
//!
//! Arms that share an unbound variable are not independent: the machine
//! detects this while packing and does not offer such conjunctions, so
//! parallel execution computes the sequential engine's first answer. A kept
//! conjunction is not checked — it runs as the sequential machine runs it.
//!
//! # Example
//!
//! ```
//! use granlog_ir::parser::parse_program;
//! use granlog_par::{Granularity, ParConfig, ParExecutor};
//!
//! let program = parse_program(r#"
//!     fib(0, 0).
//!     fib(1, 1).
//!     fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
//!                  fib(M1, N1) & fib(M2, N2), N is N1 + N2.
//! "#).unwrap();
//! let mut exec = ParExecutor::new(&program, ParConfig {
//!     threads: 2,
//!     granularity: Granularity::AlwaysSpawn,
//!     ..ParConfig::default()
//! });
//! let out = exec.run_query("fib(12, X)").unwrap();
//! assert!(out.succeeded);
//! assert_eq!(out.binding("X").unwrap().to_string(), "144");
//! assert!(out.spawned_tasks > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use granlog_analysis::annotate::{prepare_program, ControlMode};
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_engine::par::{ArmEnd, ArmResult, Offer, ParHook};
use granlog_engine::{Budget, Counters, EngineError, EngineResult, Image, Machine, MachineConfig};
use granlog_ir::term::Cell;
use granlog_ir::{parser, AsTerm, Program, Symbol, Term};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

pub mod obs;
pub use obs::ParObs;

/// Locks a mutex, recovering the data from a poisoned lock: a panic in one
/// worker must never wedge the whole executor, and what is guarded here
/// (deques, the idle machine) is mutated by single assignments, pushes and
/// pops, so it stays consistent across an unwind.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// How the executor decides whether a `&` conjunction is spawned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Granularity control on: run the program as the annotator rewrites it
    /// for [`ParConfig::overhead`]. A conjunction's charged `'$grain_ge'`
    /// tests offer its arms only when every arm's estimated work (the cost
    /// function at the measured size of its driving argument) reaches the
    /// spawn overhead; otherwise it runs sequentially.
    On,
    /// Parallelism disabled: no hook is installed and every conjunction
    /// runs inline on the one machine (the sequential baseline, on the same
    /// code path).
    Off,
    /// Spawns every conjunction (the "no control" baseline whose
    /// task-management overhead the paper measures). Spawning costs what it
    /// does under [`Granularity::On`]: a conjunction reached while its
    /// thread has an arm on offer is kept in place for one atomic load, and
    /// only the others are checked, packed and offered. So this mode no
    /// longer pays for packing at every `&`, and `par.control_gain` in
    /// `benchmark/` falls toward 1.
    AlwaysSpawn,
}

/// Configuration of a [`ParExecutor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParConfig {
    /// Total number of threads executing the query: the caller plus
    /// `threads - 1` pool workers. `1` = everything in place, nothing
    /// crosses: the caller offers a conjunction (checked and packed) only
    /// when it has no arm on offer, keeps every other one in place, and
    /// takes every offered arm back.
    pub threads: usize,
    /// The spawn-decision mode.
    pub granularity: Granularity,
    /// Task-management overhead `W` the program is annotated for, in the
    /// analysis' cost units (resolutions by default). Only read with
    /// [`Granularity::On`].
    pub overhead: f64,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            threads: 4,
            granularity: Granularity::On,
            overhead: granlog_analysis::annotate::AnnotateOptions::default().overhead,
        }
    }
}

/// The outcome of a parallel query.
#[derive(Debug, Clone)]
pub struct ParOutcome {
    /// Did the query succeed?
    pub succeeded: bool,
    /// Bindings of the query's named variables, in source order.
    pub bindings: Vec<(Symbol, Term)>,
    /// Operation counters, aggregated across every machine that worked on
    /// the query. Schedule-independent: those of the sequential machine on
    /// the program the executor runs, which is the annotated one (grain
    /// tests included) under [`Granularity::On`].
    pub counters: Counters,
    /// Number of arms of conjunctions that reached the spawn boundary (first
    /// arms included), wherever they then ran: those kept in place because
    /// their thread had an arm on offer, and those offered after passing the
    /// independence check. Schedule-independent on programs whose `&` arms
    /// are independent; a dependent `&` counts here when it is kept
    /// (unchecked) and in `inlined_conjunctions` when it is checked, a
    /// split that depends on the schedule.
    pub spawned_tasks: usize,
    /// Number of `&` conjunctions run inline because their arms share an
    /// unbound variable or could not be packed. Only a conjunction about to
    /// be offered is checked, so one kept in place never counts here (one
    /// that granularity control sequentialises takes the `,` branch of its
    /// grain test instead).
    pub inlined_conjunctions: usize,
}

impl ParOutcome {
    /// The binding of a variable by name, if any.
    pub fn binding(&self, name: &str) -> Option<&Term> {
        self.bindings
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, t)| t)
    }
}

/// How many times a thread with nothing to run polls the deques before it
/// parks. The polls are a `yield_now` apart, not a `spin_loop`: with more
/// threads than CPUs a spinning idler takes the working thread's time slices.
const POLLS_BEFORE_PARK: u32 = 200;

/// What one thread of a query writes on every conjunction: its deque of
/// offered arms and its share of the outcome's counts. Aligned so that two
/// threads forking at full speed never write the same (or, with
/// adjacent-line prefetch, the neighbouring) cache line.
#[repr(align(128))]
#[derive(Default)]
struct Lane {
    deque: Mutex<VecDeque<Arc<Offer>>>,
    /// The deque's length, republished under its lock by every change: what
    /// the owner reads, without the lock, at each `&` (an entry in the deque
    /// is an arm nobody has claimed). A hint that publishes nothing — the
    /// entries themselves are read under the lock — so `Relaxed`; a stale
    /// read keeps or offers one conjunction too many, never a wrong answer.
    queued: AtomicUsize,
    spawned: AtomicUsize,
    inlined: AtomicUsize,
}

impl Lane {
    /// Changes the deque under its lock and republishes its length.
    fn with_deque<R>(&self, change: impl FnOnce(&mut VecDeque<Arc<Offer>>) -> R) -> R {
        let mut deque = lock_recovering(&self.deque);
        let result = change(&mut deque);
        self.queued.store(deque.len(), Ordering::Relaxed);
        result
    }
}

/// State shared between the calling thread and the pool workers for the
/// lifetime of the executor.
struct Shared {
    image: Arc<Image>,
    granularity: Granularity,
    /// One lane per thread of a query (0 = the caller).
    lanes: Box<[Lane]>,
    /// Threads parked on `wake` or about to be: what a push, a completed
    /// steal and `finish` read before paying for a wake-up.
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    done: AtomicBool,
    /// One idle machine, arena warm; a machine released while the slot is
    /// taken is dropped. Not a free-list: inline arms leave their garbage in
    /// the forker's arena, so each retained machine is a grown arena.
    idle: Mutex<Option<Machine>>,
    /// Instrumentation bundle; `None` leaves every path unmeasured. The
    /// outcome's own spawn/inline counts never route through this.
    obs: Option<Arc<ParObs>>,
}

impl Shared {
    fn acquire_machine(&self) -> Machine {
        let idle = lock_recovering(&self.idle).take();
        idle.unwrap_or_else(|| {
            Machine::from_image(Arc::clone(&self.image), MachineConfig::default())
        })
    }

    fn release_machine(&self, machine: Machine) {
        let mut idle = lock_recovering(&self.idle);
        if idle.is_none() {
            *idle = Some(machine);
        }
    }

    fn has_offers(&self) -> bool {
        self.lanes
            .iter()
            .any(|lane| !lock_recovering(&lane.deque).is_empty())
    }

    /// Wakes the parked threads, if there are any, after the state change
    /// they wait for (a push, a completed slot, `done`). `SeqCst` pairs with
    /// [`Shared::park_until`]: the sleeper announces itself and then re-reads
    /// the state, the waker changes the state and then reads the
    /// announcement, so one of the two sees the other. Taking the lock
    /// orders the wake-up after the wait of a sleeper that saw nothing.
    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(lock_recovering(&self.sleep));
            self.wake.notify_all();
        }
    }

    /// Parks the calling thread until `ready()`.
    fn park_until(&self, ready: impl Fn() -> bool) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = lock_recovering(&self.sleep);
        while !ready() {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Sums one of the lanes' counts and resets it for the next query.
    fn take_count(&self, count: impl Fn(&Lane) -> &AtomicUsize) -> usize {
        let lanes = self.lanes.iter();
        lanes.map(|l| count(l).swap(0, Ordering::Relaxed)).sum()
    }

    fn finish(&self) {
        self.done.store(true, Ordering::SeqCst);
        self.wake_sleepers();
    }
}

/// One thread's view of the executor — the [`ParHook`] its machines call at
/// every `&`. `index` names the thread's own lane.
struct Worker<'a> {
    shared: &'a Shared,
    index: usize,
}

impl Worker<'_> {
    fn lane(&self) -> &Lane {
        &self.shared.lanes[self.index]
    }

    /// Takes an arm off a deque and claims it: this thread's deque first,
    /// then the others in turn; the newest entry of each for a joiner that
    /// helps while it waits, the oldest for an idle worker. An entry whose
    /// claim is lost (its forker got there after the pop) is dropped.
    fn steal(&self, newest_first: bool) -> Option<Arc<Offer>> {
        let lanes = &self.shared.lanes;
        let pop = match newest_first {
            true => VecDeque::pop_back,
            false => VecDeque::pop_front,
        };
        for step in 0..lanes.len() {
            let lane = &lanes[(self.index + step) % lanes.len()];
            while let Some(arm) = lane.with_deque(pop) {
                if arm.claim() {
                    return Some(arm);
                }
            }
        }
        None
    }

    /// Runs a claimed arm to its first solution on a machine of this
    /// thread's own and completes its slot. Under `catch_unwind`: a panic
    /// inside a stolen arm must complete the slot (as
    /// [`EngineError::WorkerPanic`]) rather than leave it claimed forever,
    /// which would hang its joiner. The panicking arm's machine is dropped
    /// mid-unwind, so it is never retained.
    fn run_stolen(&self, arm: &Offer) {
        let shared = self.shared;
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            granlog_fault::fail_or("par.spawn", || EngineError::Fault("par.spawn"))?;
            let mut machine = shared.acquire_machine();
            let started = shared.obs.as_ref().map(|_| Instant::now());
            let result = machine.run_arm(arm.arm(), Some(self));
            if let (Some(obs), Some(started)) = (&shared.obs, started) {
                obs.timed(&obs.arm_ms, "par_arm", started);
            }
            shared.release_machine(machine);
            result
        }))
        .unwrap_or_else(|payload| {
            Err(EngineError::WorkerPanic(
                panic_message(&*payload).to_string(),
            ))
        });
        if let Some(obs) = &shared.obs {
            let answer = match &result {
                Ok(ArmEnd::Answer(answer)) => answer.packet.cells(),
                _ => 0,
            };
            let cells = arm.arm().cells() + answer;
            obs.copied_cells.observe(cells as f64);
            obs.steals.inc();
            obs.tracer.emit("par_steal", vec![("cells", cells.into())]);
        }
        arm.complete(result);
        shared.wake_sleepers();
    }

    /// Runs offered arms until `finished()`: the pool worker's main loop
    /// (until the query is over) and the joiner's wait (until the thief is
    /// done). With nothing on offer the thread polls a bounded while, then
    /// parks until there is an offer or it has finished.
    fn help_until(&self, finished: impl Fn() -> bool, newest_first: bool) {
        let mut polls = 0;
        while !finished() {
            match self.steal(newest_first) {
                Some(arm) => {
                    self.run_stolen(&arm);
                    polls = 0;
                }
                None if polls < POLLS_BEFORE_PARK => {
                    polls += 1;
                    std::thread::yield_now();
                }
                None => {
                    self.shared
                        .park_until(|| finished() || self.shared.has_offers());
                    polls = 0;
                }
            }
        }
    }
}

impl ParHook for Worker<'_> {
    fn keep_in_place(&self, arms: usize) -> bool {
        // An arm of this thread's is still on offer: an idle thread has it
        // to take, so this conjunction runs in place, unoffered. `spawned`
        // counts its arms all the same.
        let lane = self.lane();
        if lane.queued.load(Ordering::Relaxed) == 0 {
            return false;
        }
        lane.spawned.fetch_add(arms, Ordering::Relaxed);
        if let Some(obs) = &self.shared.obs {
            obs.spawned.add(arms as u64);
            obs.kept.add(arms as u64);
        }
        true
    }

    fn note_inlined(&self) {
        self.lane().inlined.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.shared.obs {
            obs.inlined.inc();
            obs.tracer.emit("par_inline", vec![]);
        }
    }

    fn offer(&self, arms: &[Arc<Offer>]) {
        // Conjunctions that reach this point were not kept and passed the
        // machine's independence check. `spawned` counts their arms, the one
        // the forker starts on included.
        let (shared, count) = (self.shared, arms.len() + 1);
        self.lane().spawned.fetch_add(count, Ordering::Relaxed);
        if let Some(obs) = &shared.obs {
            let cells: usize = arms.iter().map(|arm| arm.arm().cells()).sum();
            obs.spawned.add(count as u64);
            let fields = vec![("arms", count.into()), ("cells", cells.into())];
            obs.tracer.emit("par_spawn", fields);
        }
        // Last arm first: the forker wants arm 1 back next, from the newest
        // end.
        self.lane()
            .with_deque(|deque| deque.extend(arms.iter().rev().cloned()));
        shared.wake_sleepers();
    }

    fn taken_back(&self, arm: &Arc<Offer>, cancelled: bool) {
        // An arm taken back to run is this deque's newest entry (what was
        // offered after it belonged to conjunctions nested in earlier arms,
        // which are over) and a cancelled one is near it. The search finds
        // nothing when a thief popped the arm and is about to lose the claim.
        self.lane().with_deque(|deque| {
            if let Some(at) = deque.iter().rposition(|entry| Arc::ptr_eq(entry, arm)) {
                deque.remove(at);
            }
        });
        if let Some(obs) = &self.shared.obs {
            if cancelled {
                obs.cancelled.inc();
            } else {
                obs.reclaimed.inc();
                obs.tracer.emit("par_reclaim", vec![]);
            }
        }
    }

    /// Waits for a stolen arm's completion, running other offers meanwhile
    /// (help-first joining: the wait-for graph stays acyclic).
    fn join(&self, arm: &Offer) -> ArmResult {
        granlog_fault::fail_or("par.join", || EngineError::Fault("par.join"))?;
        let started = self.shared.obs.as_ref().map(|_| Instant::now());
        self.help_until(|| arm.is_done(), true);
        if let (Some(obs), Some(started)) = (&self.shared.obs, started) {
            obs.timed(&obs.join_wait_ms, "par_join", started);
        }
        arm.take_result()
            .expect("a completed slot holds its result until the one join")
    }
}

/// The multi-threaded and-parallel executor: a program's compiled image, a
/// deque per thread and one warm machine. Reusable across queries; one query
/// runs at a time. It owns what it runs — the program it was made from may
/// be dropped.
pub struct ParExecutor {
    shared: Shared,
    /// Does any clause body of the program run mention `&` at all? Purely
    /// sequential programs skip worker startup (a dynamically constructed `&` still executes
    /// correctly — the calling thread takes every arm back).
    has_par: bool,
}

impl ParExecutor {
    /// Creates an executor for a program. With [`Granularity::On`] the
    /// program is analysed and annotated for [`ParConfig::overhead`] here,
    /// and the annotated program is what runs; the other modes compile the
    /// program as written.
    pub fn new(program: &Program, config: ParConfig) -> Self {
        let annotated;
        let program = match config.granularity {
            Granularity::On => {
                let analysis = analyze_program(program, &AnalysisOptions::default());
                let control = ControlMode::WithControl;
                annotated = prepare_program(program, &analysis, control, config.overhead);
                &annotated
            }
            Granularity::Off | Granularity::AlwaysSpawn => program,
        };
        let has_par = program
            .clauses()
            .iter()
            .any(|clause| mentions_par(&clause.body));
        ParExecutor {
            shared: Shared {
                image: Image::new(program),
                granularity: config.granularity,
                lanes: (0..config.threads.max(1))
                    .map(|_| Lane::default())
                    .collect(),
                sleepers: AtomicUsize::new(0),
                sleep: Mutex::new(()),
                wake: Condvar::new(),
                done: AtomicBool::new(false),
                idle: Mutex::new(None),
                obs: None,
            },
            has_par,
        }
    }

    /// Installs (or clears) instrumentation (see [`obs::ParObs`]). Without
    /// it nothing is measured; answers and counters are identical either way.
    pub fn set_obs(&mut self, obs: Option<Arc<ParObs>>) {
        self.shared.obs = obs;
    }

    /// Parses and runs a query (e.g. `"fib(15, X)"`) on the thread pool.
    ///
    /// # Errors
    ///
    /// Returns an error if the query does not parse or execution hits a
    /// limit or runtime error on any machine.
    pub fn run_query(&mut self, query: &str) -> EngineResult<ParOutcome> {
        let (goal, var_names) = parser::parse_term(query).map_err(|e| EngineError::TypeError {
            builtin: "query",
            message: e.to_string(),
        })?;
        self.run_goal(&goal, &var_names)
    }

    /// Runs an already-parsed goal whose variables are numbered
    /// `0..var_names.len()`.
    ///
    /// The calling thread executes the query, every conjunction included,
    /// under the default [`Budget`]; `threads - 1` scoped workers, alive for
    /// the duration of the call, steal the arms it has on offer (and offer
    /// arms of their own).
    ///
    /// # Errors
    ///
    /// Returns an error if execution hits a limit or runtime error on any
    /// machine.
    pub fn run_goal(&mut self, goal: &Term, var_names: &[Symbol]) -> EngineResult<ParOutcome> {
        self.shared.done.store(false, Ordering::SeqCst);
        let shared = &self.shared;
        // Workers are useful only when something can reach a deque: a
        // program with `&` in it, run in a mode that installs the hook.
        let spawns_possible = self.has_par && shared.granularity != Granularity::Off;
        let workers = if spawns_possible {
            shared.lanes.len()
        } else {
            1
        };
        let solved = std::thread::scope(|scope| {
            for index in 1..workers {
                scope.spawn(move || {
                    let worker = Worker { shared, index };
                    worker.help_until(|| shared.done.load(Ordering::SeqCst), false);
                });
            }
            let caller = Worker { shared, index: 0 };
            let hook = (shared.granularity != Granularity::Off).then_some(&caller as &dyn ParHook);
            let mut machine = shared.acquire_machine();
            let outcome = machine.solve_goal(goal, var_names, hook, &Budget::default());
            shared.release_machine(machine);
            shared.finish();
            outcome
        });
        // Taken (and so reset) whether or not the query got to report them.
        let spawned_tasks = self.shared.take_count(|lane| &lane.spawned);
        let inlined_conjunctions = self.shared.take_count(|lane| &lane.inlined);
        let outcome = solved?;
        Ok(ParOutcome {
            succeeded: outcome.succeeded,
            bindings: outcome.bindings,
            counters: outcome.counters,
            spawned_tasks,
            inlined_conjunctions,
        })
    }
}

/// Does a clause-body term mention the parallel-conjunction functor
/// anywhere (including under control constructs)?
fn mentions_par(term: &Term) -> bool {
    let par_and = granlog_ir::symbol::well_known::par_and();
    let is_par = |cell: &Cell| matches!(*cell, Cell::Struct(s, 2, _) if s == par_and);
    term.cells().iter().any(is_par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_engine::Machine;
    use granlog_ir::parser::parse_program;

    /// The failpoint registry is process-global, so tests that arm
    /// failpoints take this lock exclusively while every other test holds
    /// it shared — ordinary runs must never observe another test's armed
    /// faults.
    #[cfg(feature = "failpoints")]
    static FAULT_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

    #[cfg(feature = "failpoints")]
    fn fault_exclusive() -> std::sync::RwLockWriteGuard<'static, ()> {
        FAULT_LOCK.write().unwrap_or_else(PoisonError::into_inner)
    }

    #[cfg(feature = "failpoints")]
    fn fault_shared() -> std::sync::RwLockReadGuard<'static, ()> {
        FAULT_LOCK.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn run(src: &str, query: &str, threads: usize, granularity: Granularity) -> ParOutcome {
        #[cfg(feature = "failpoints")]
        let _shared = fault_shared();
        let program = parse_program(src).unwrap();
        let mut exec = ParExecutor::new(
            &program,
            ParConfig {
                threads,
                granularity,
                ..ParConfig::default()
            },
        );
        exec.run_query(query).unwrap()
    }

    const FIB: &str = r#"
        fib(0, 0).
        fib(1, 1).
        fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                     fib(M1, N1) & fib(M2, N2), N is N1 + N2.
    "#;

    #[test]
    fn an_executor_owns_what_it_runs() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<ParExecutor>();
        fn owned() -> ParExecutor {
            let program = parse_program(FIB).unwrap();
            let config = ParConfig {
                threads: 2,
                granularity: Granularity::AlwaysSpawn,
                ..ParConfig::default()
            };
            ParExecutor::new(&program, config)
        }
        #[cfg(feature = "failpoints")]
        let _shared = fault_shared();
        // The program is gone; the executor answers, from another thread.
        let mut exec = owned();
        let out = std::thread::spawn(move || exec.run_query("fib(10, X)").unwrap());
        let out = out.join().unwrap();
        assert_eq!(out.binding("X").unwrap().to_string(), "55");
    }

    #[test]
    fn parallel_fib_matches_sequential_answer() {
        for threads in [1, 2, 4] {
            let out = run(FIB, "fib(14, X)", threads, Granularity::AlwaysSpawn);
            assert!(out.succeeded);
            assert_eq!(out.binding("X").unwrap().to_string(), "377", "{threads}");
            assert!(out.spawned_tasks > 0);
        }
    }

    /// An executor with a private registry and a trace ring big enough for
    /// every event of the test queries.
    fn observed_executor(
        program: &Program,
        threads: usize,
    ) -> (ParExecutor, granlog_obs::Registry, Arc<granlog_obs::Tracer>) {
        let registry = granlog_obs::Registry::new();
        let tracer = Arc::new(granlog_obs::Tracer::new(1 << 16));
        let mut exec = ParExecutor::new(
            program,
            ParConfig {
                threads,
                granularity: Granularity::AlwaysSpawn,
                ..ParConfig::default()
            },
        );
        exec.set_obs(Some(Arc::new(ParObs::register(
            &registry,
            Arc::clone(&tracer),
        ))));
        (exec, registry, tracer)
    }

    fn events_of(tracer: &granlog_obs::Tracer, kind: &str) -> u64 {
        assert_eq!(tracer.dropped(), 0, "the ring must hold the whole test");
        tracer.events().iter().filter(|e| e.kind == kind).count() as u64
    }

    #[test]
    fn obs_observes_spawns_and_joins_without_perturbing_counters() {
        #[cfg(feature = "failpoints")]
        let _shared = fault_shared();
        let program = parse_program(FIB).unwrap();
        let plain = run(FIB, "fib(12, X)", 2, Granularity::AlwaysSpawn);
        let (mut exec, registry, tracer) = observed_executor(&program, 2);
        let out = exec.run_query("fib(12, X)").unwrap();
        assert!(out.succeeded);
        assert_eq!(out.binding("X").unwrap().to_string(), "144");
        let count = |name: &str| registry.counter_value(name).expect("registered");
        // The instrumented registry mirrors the outcome's own counter...
        assert_eq!(count("granlog_par_spawned_total"), out.spawned_tasks as u64);
        // ...and the instrumented run is counter-identical to the plain one.
        assert_eq!(out.counters, plain.counters);
        assert_eq!(out.spawned_tasks, plain.spawned_tasks);
        // Every arm ends one way: it was an offered conjunction's first, its
        // forker took it back, a thief ran it, or its conjunction was kept
        // in place (nothing fails here, so nothing is cancelled). fib's
        // conjunctions are all two-armed.
        let steals = count("granlog_par_steals_total");
        let reclaimed = count("granlog_par_reclaimed_total");
        let kept = count("granlog_par_kept_total");
        assert_eq!(count("granlog_par_cancelled_total"), 0);
        assert_eq!(
            events_of(&tracer, "par_spawn") + reclaimed + steals + kept,
            out.spawned_tasks as u64
        );
        assert_eq!(events_of(&tracer, "par_spawn"), reclaimed + steals);
        assert_eq!(events_of(&tracer, "par_reclaim"), reclaimed);
        // The boundary histograms hold one observation per arm that crossed.
        for name in [
            "granlog_par_arm_ms",
            "granlog_par_join_wait_ms",
            "granlog_par_copied_cells",
        ] {
            let seen = registry.histogram_snapshot(name).expect("registered");
            assert_eq!(seen.count, steals, "{name}");
        }
        assert_eq!(events_of(&tracer, "par_join"), steals);
    }

    /// [`FIB`] plus a conjunction whose second arm fails, one whose second
    /// arm raises, each with arms behind it to withdraw, and a nest of
    /// conjunctions whose innermost first arm raises.
    const WAYS_TO_END: &str = r#"
        ok(_).
        fails(N) :- fib(N, _) & fail & ok(N) & ok(N).
        bad(N) :- fib(N, _) & undefined_pred(N) & ok(N).
        deep(0) :- _ is foo + 1.
        deep(N) :- N > 0, N1 is N - 1, deep(N1) & ok(N).
    "#;

    /// The executor's resting state, checked as "every query preserves it":
    /// whatever a query did — succeed, fail in an arm, raise in an arm,
    /// raise with a nest of conjunctions open — afterwards no deque
    /// holds an arm, the retained machine has nothing on offer, and every
    /// arm the query offered was resolved exactly once. Before arms were
    /// offered rather than shipped, `threads: 1` left every spawned arm in a
    /// queue nothing ever popped, for the executor's lifetime.
    #[test]
    fn every_query_leaves_the_executor_at_rest() {
        #[cfg(feature = "failpoints")]
        let _shared = fault_shared();
        let program = parse_program(&(FIB.to_owned() + WAYS_TO_END)).unwrap();
        for threads in [1, 2, 4] {
            let (mut exec, registry, tracer) = observed_executor(&program, threads);
            let at_rest = |exec: &ParExecutor, after: &str| {
                for (index, lane) in exec.shared.lanes.iter().enumerate() {
                    let left = lock_recovering(&lane.deque).len();
                    assert_eq!(left, 0, "deque {index} after {after}, {threads} threads");
                }
                let idle = lock_recovering(&exec.shared.idle);
                let machine = idle.as_ref().expect("the caller's machine is retained");
                assert_eq!(machine.outstanding_offers(), 0, "{after}");
                let count = |name: &str| registry.counter_value(name).expect("registered");
                assert_eq!(
                    count("granlog_par_spawned_total"),
                    events_of(&tracer, "par_spawn")
                        + count("granlog_par_reclaimed_total")
                        + count("granlog_par_steals_total")
                        + count("granlog_par_cancelled_total")
                        + count("granlog_par_kept_total"),
                    "arms resolved once each, after {after} at {threads} threads"
                );
            };
            for round in 0..3 {
                let out = exec.run_query("fib(13, X)").unwrap();
                assert_eq!(out.binding("X").unwrap().to_string(), "233");
                assert_eq!(out.spawned_tasks, 2 * 376, "no count of the failed queries");
                at_rest(&exec, "a success");

                let cancelled = registry.counter_value("granlog_par_cancelled_total");
                assert!(!exec.run_query("fails(9)").unwrap().succeeded);
                at_rest(&exec, "a failed arm");
                if threads == 1 {
                    // Nobody to steal the two arms behind the failing one.
                    assert_eq!(
                        registry.counter_value("granlog_par_cancelled_total"),
                        cancelled.map(|n| n + 2),
                        "round {round}"
                    );
                }

                let err = exec.run_query("bad(9)").unwrap_err();
                assert!(matches!(err, EngineError::UnknownPredicate(_)), "{err}");
                at_rest(&exec, "an error in an arm");

                let err = exec.run_query("deep(9)").unwrap_err();
                assert!(matches!(err, EngineError::Arithmetic(_)), "{err}");
                at_rest(&exec, "an error under nine open conjunctions");
            }
        }
    }

    /// Help-first joiners nest a native frame per arm they take on while
    /// they wait. Taking the newest offer keeps that nest as deep as the
    /// conjunction nest; taking the oldest (the biggest piece of work on
    /// offer, each time) overflowed these default 2 MiB stacks.
    #[test]
    fn always_spawn_fits_default_thread_stacks() {
        let chain = r#"
            chain(0).
            chain(N) :- N > 0, N1 is N - 1, chain(N1) & true.
        "#;
        for threads in [2, 4] {
            let out = run(FIB, "fib(19, X)", threads, Granularity::AlwaysSpawn);
            assert_eq!(out.binding("X").unwrap().to_string(), "4181");
            let out = run(chain, "chain(2000)", threads, Granularity::AlwaysSpawn);
            assert!(out.succeeded);
            assert_eq!(out.spawned_tasks, 4000);
        }
    }

    /// Offer only to a taker: at `threads: 1` nobody takes an offer, so
    /// while one is out every further conjunction runs in place, unwritten,
    /// unchecked and unpacked. `fib(15)` offers one conjunction per arm it
    /// takes back, a chain of seven, where offering at every `&` offered
    /// 986; the answer, counters, work and spawned tasks are what they were.
    #[test]
    fn a_kept_conjunction_costs_nothing() {
        #[cfg(feature = "failpoints")]
        let _shared = fault_shared();
        let program = parse_program(FIB).unwrap();
        let off = run(FIB, "fib(15, X)", 1, Granularity::Off);
        let (mut exec, registry, _tracer) = observed_executor(&program, 1);
        let out = exec.run_query("fib(15, X)").unwrap();
        assert_eq!(out.binding("X").unwrap().to_string(), "610");
        assert_eq!(out.bindings, off.bindings);
        assert_eq!(out.counters, off.counters);
        assert_eq!((out.spawned_tasks, out.inlined_conjunctions), (1_972, 0));
        let count = |name: &str| registry.counter_value(name).expect("registered");
        let offered = count("granlog_par_reclaimed_total") + count("granlog_par_steals_total");
        assert!(offered < 16, "{offered} conjunctions offered");
        assert_eq!(count("granlog_par_kept_total") + 2 * offered, 1_972);
    }

    /// A dependent `&` inside an offered arm. Where its forker still has an
    /// arm on offer it is kept in place, unchecked; otherwise the
    /// independence check declines it. Either way it runs as the sequential
    /// machine runs it (`q` binds `X` to 2 before `p` is tried; arms run
    /// apart would bind it to 2 and 1), at every thread count. At one
    /// thread the split is fixed: `dep(A)` runs while arm 1 is on offer and
    /// is kept, `dep(B)` runs once everything is taken back and is checked.
    #[test]
    fn a_dependent_conjunction_in_an_offered_arm_answers_sequentially() {
        let src = FIB.to_owned()
            + r#"
            p(1). p(2).
            q(2).
            dep(X) :- q(X) & p(X).
            go(N, A, B) :- (fib(N, _), dep(A)) & (fib(N, _), dep(B)).
        "#;
        let program = parse_program(&src).unwrap();
        let seq = Machine::new(&program).run_query("go(12, A, B)").unwrap();
        assert_eq!(seq.binding("A").unwrap().to_string(), "2");
        for threads in [1, 2, 4] {
            let out = run(&src, "go(12, A, B)", threads, Granularity::AlwaysSpawn);
            assert_eq!(out.bindings, seq.bindings, "{threads} threads");
            assert_eq!(out.counters, seq.counters, "{threads} threads");
            if threads == 1 {
                assert_eq!(out.inlined_conjunctions, 1);
            }
        }
    }

    #[test]
    fn granularity_off_runs_inline() {
        let out = run(FIB, "fib(10, X)", 4, Granularity::Off);
        assert!(out.succeeded);
        assert_eq!(out.binding("X").unwrap().to_string(), "55");
        assert_eq!(out.spawned_tasks, 0);
    }

    #[test]
    fn granularity_on_inlines_small_conjunctions() {
        // With modes declared, fib's cost is exponential in the int
        // argument: small calls inline, the top calls spawn.
        let src = ":- mode fib(+, -).\n".to_owned() + FIB;
        let out = run(&src, "fib(14, X)", 2, Granularity::On);
        assert!(out.succeeded);
        assert_eq!(out.binding("X").unwrap().to_string(), "377");
        assert!(out.counters.grain_tests > 0, "every conjunction is tested");
        assert!(out.spawned_tasks > 0, "big calls must spawn");
        // Always-spawn pays the boundary on every level.
        let all = run(&src, "fib(14, X)", 2, Granularity::AlwaysSpawn);
        assert!(all.spawned_tasks > out.spawned_tasks);
    }

    #[test]
    fn failing_arm_fails_the_conjunction() {
        let src = r#"
            ok(_).
            both(X) :- ok(X) & fail.
            one(X) :- ok(X) & ok(X).
        "#;
        assert!(!run(src, "both(1)", 2, Granularity::AlwaysSpawn).succeeded);
        assert!(run(src, "one(1)", 2, Granularity::AlwaysSpawn).succeeded);
    }

    #[test]
    fn dependent_arms_fall_back_to_inline_execution() {
        // X is shared unbound between the arms: the independence check must
        // force inline execution, making the outcome identical to the
        // sequential engine's committed-arms semantics (here: p commits to
        // X = 1, q(1) fails, so the conjunction fails — in both engines).
        let src = r#"
            p(1). p(2).
            q(2).
            s(X) :- p(X) & q(X).
            t(X, Y) :- p(X) & p(Y).
        "#;
        let out = run(src, "s(X)", 2, Granularity::AlwaysSpawn);
        let program = parse_program(src).unwrap();
        let mut seq = Machine::new(&program);
        let seq_out = seq.run_query("s(X)").unwrap();
        assert_eq!(out.succeeded, seq_out.succeeded);
        assert!(!out.succeeded);
        assert_eq!(out.spawned_tasks, 0, "dependent arms must not spawn");
        assert!(out.inlined_conjunctions > 0);
        // Independent arms of the same shape do spawn.
        let out = run(src, "t(X, Y)", 2, Granularity::AlwaysSpawn);
        assert!(out.succeeded);
        assert_eq!(out.binding("X").unwrap().to_string(), "1");
        assert_eq!(out.binding("Y").unwrap().to_string(), "1");
        assert_eq!(out.spawned_tasks, 2);
    }

    #[test]
    fn answers_with_shared_fresh_variables_copy_back() {
        // The spawned arm's answer leaves structure with unbound variables
        // shared across two parent variables; the join must preserve the
        // sharing.
        let src = r#"
            mk(f(Z), g(Z)).
            go(A, B) :- mk(A, B) & mk(_, _).
        "#;
        let out = run(src, "go(A, B)", 2, Granularity::AlwaysSpawn);
        assert!(out.succeeded);
        let a = out.binding("A").unwrap().to_string();
        let b = out.binding("B").unwrap().to_string();
        // Both answers mention the *same* variable.
        let va = a.trim_start_matches("f(").trim_end_matches(')');
        let vb = b.trim_start_matches("g(").trim_end_matches(')');
        assert_eq!(va, vb, "sharing lost: {a} vs {b}");
    }

    #[test]
    fn errors_in_spawned_arms_propagate() {
        #[cfg(feature = "failpoints")]
        let _shared = fault_shared();
        let src = r#"
            ok(_).
            bad(X) :- ok(X) & undefined_pred(X).
        "#;
        let program = parse_program(src).unwrap();
        let mut exec = ParExecutor::new(
            &program,
            ParConfig {
                threads: 2,
                granularity: Granularity::AlwaysSpawn,
                ..ParConfig::default()
            },
        );
        let err = exec.run_query("bad(1)").unwrap_err();
        assert!(matches!(err, EngineError::UnknownPredicate(_)), "{err}");
    }

    #[test]
    fn executor_is_reusable_across_queries() {
        #[cfg(feature = "failpoints")]
        let _shared = fault_shared();
        let program = parse_program(FIB).unwrap();
        let mut exec = ParExecutor::new(
            &program,
            ParConfig {
                threads: 2,
                granularity: Granularity::AlwaysSpawn,
                ..ParConfig::default()
            },
        );
        let a = exec.run_query("fib(10, X)").unwrap();
        let b = exec.run_query("fib(8, X)").unwrap();
        assert!(a.succeeded && b.succeeded);
        assert_eq!(b.binding("X").unwrap().to_string(), "21");
    }

    #[test]
    fn deep_nested_spawns_join_without_deadlock() {
        // A left-leaning spawn chain deeper than the thread count: joiners
        // must help-run pending jobs rather than block.
        let src = r#"
            chain(0).
            chain(N) :- N > 0, N1 is N - 1, chain(N1) & true.
        "#;
        let out = run(src, "chain(64)", 2, Granularity::AlwaysSpawn);
        assert!(out.succeeded);
        assert_eq!(out.spawned_tasks, 128);
    }

    #[cfg(feature = "failpoints")]
    mod fault {
        use super::*;
        use granlog_fault::Action;

        /// Arm 0 keeps the forker busy long enough for the pool worker to
        /// start up and claim arm 1: the only way a query meets the
        /// `par.spawn` and `par.join` seams, which sit on the stolen path.
        const STEAL_ME: &str = r#"
            count(0).
            count(N) :- N > 0, N1 is N - 1, count(N1).
            ok(_).
            go :- count(200000) & ok(1).
        "#;

        /// Runs `go` with `site` armed until a run really stole the arm
        /// (bounded: a worker that loses the race to a reclaim leaves the
        /// query an ordinary success), and returns that run's error and the
        /// executor.
        fn error_of_a_stolen_arm(
            program: &Program,
            site: &'static str,
            action: Action,
        ) -> (EngineError, ParExecutor) {
            let (mut exec, registry, _tracer) = observed_executor(program, 2);
            for _ in 0..50 {
                granlog_fault::arm(site, action, 1.0);
                let outcome = exec.run_query("go");
                granlog_fault::disarm_all();
                let steals = registry.counter_value("granlog_par_steals_total");
                match outcome {
                    Err(err) => {
                        assert!(steals >= Some(1), "{site} fired without a steal: {err}");
                        return (err, exec);
                    }
                    Ok(out) => assert!(out.succeeded),
                }
            }
            panic!("50 runs of a 200 000-step arm 0 and the worker never stole arm 1");
        }

        #[test]
        fn a_panicking_arm_errors_the_join_instead_of_hanging_it() {
            let _excl = fault_exclusive();
            granlog_fault::disarm_all();
            let program = parse_program(STEAL_ME).unwrap();
            let (err, mut exec) = error_of_a_stolen_arm(&program, "par.spawn", Action::Panic);
            assert!(matches!(err, EngineError::WorkerPanic(_)), "{err}");
            assert!(err.to_string().contains("par.spawn"), "{err}");
            // The executor survives the thief's panic.
            assert!(exec.run_query("go").unwrap().succeeded);
        }

        #[test]
        fn an_injected_spawn_fault_is_typed_and_recoverable() {
            let _excl = fault_exclusive();
            granlog_fault::disarm_all();
            let program = parse_program(STEAL_ME).unwrap();
            let (err, mut exec) = error_of_a_stolen_arm(&program, "par.spawn", Action::Error);
            assert_eq!(err, EngineError::Fault("par.spawn"));
            assert!(exec.run_query("go").unwrap().succeeded);
        }

        #[test]
        fn an_injected_join_fault_is_typed_and_recoverable() {
            let _excl = fault_exclusive();
            granlog_fault::disarm_all();
            let program = parse_program(STEAL_ME).unwrap();
            let (err, mut exec) = error_of_a_stolen_arm(&program, "par.join", Action::Error);
            assert_eq!(err, EngineError::Fault("par.join"));
            assert!(exec.run_query("go").unwrap().succeeded);
        }
    }
}
