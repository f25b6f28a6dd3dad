//! # granlog-par
//!
//! A **multi-threaded and-parallel executor** for the granlog engine: the
//! piece that closes the paper's loop. *Task Granularity Analysis in Logic
//! Programs* (Debray, Lin & Hermenegildo, PLDI 1990) derives cost bounds so
//! that a parallel conjunction is only spawned when the work under it
//! exceeds the task-management overhead — a decision that only matters on a
//! real multiprocessor. `granlog-sim` replays recorded fork-join trees on a
//! *simulated* machine; this crate executes the annotated programs on a pool
//! of actual worker threads and lets the analysis drive the spawn decision
//! at run time.
//!
//! # Architecture
//!
//! * **One machine per worker.** Each worker thread owns its own
//!   [`Machine`] (bump arena, goal stack, choice points); the compiled
//!   clause templates are shared across machines through an
//!   `Arc<[ClauseTemplate]>` ([`Machine::with_templates`]), and idle
//!   machines are parked in a free-list so nested spawns reuse warm arenas.
//! * **A shared injector deque.** Spawned arms are pushed to a global
//!   `Mutex<VecDeque>` and popped by idle workers — the simple end of the
//!   work-stealing design space, chosen because granularity control makes
//!   spawns *coarse*: the queue is touched once per spawned task, not once
//!   per resolution.
//! * **Pack out, unpack in.** Arms cross the spawn boundary by value (see
//!   [`granlog_engine::par`]): the parent machine packs each arm out of its
//!   arena into a flat, relocatable [`Packet`] of heap cells in one
//!   iterative pass, the child unpacks it at the bottom of its own empty
//!   arena and solves it, and the values of the arm's variables travel back
//!   as a second packet, unpacked and unified at the join. No heap cell is
//!   ever shared between threads, and no `Term` is built on the way.
//! * **Deterministic join, help-first waiting.** The spawning thread
//!   executes arm 0 itself, then joins the remaining arms *in order*; while
//!   a joined arm is still running elsewhere the joiner drains other
//!   pending jobs from the injector instead of blocking, so the wait-for
//!   graph stays acyclic and no configuration of nested conjunctions can
//!   deadlock.
//! * **Runtime granularity control.** With [`Granularity::On`], the
//!   analysis' cost functions and thresholds are lowered into per-predicate
//!   guards (a [`GuardTable`], the same one the annotator rewrites source
//!   code over): at each `&`, the machine measures the driving argument of
//!   each arm on the actual goal and the conjunction is spawned only if
//!   every arm's estimated work reaches the spawn overhead — otherwise it
//!   runs inline, sequentially, on the spawning machine.
//!   [`Granularity::AlwaysSpawn`] spawns every conjunction (the paper's
//!   "no control" baseline) and [`Granularity::Off`] runs every conjunction
//!   inline (the sequential baseline, on the same code path).
//! * **Fault isolation.** Every job runs under `catch_unwind`: a panic in a
//!   spawned arm completes its job as [`EngineError::WorkerPanic`] instead
//!   of leaving it claimed forever (which would spin its joiner for the
//!   rest of the process), and the panicking arm's machine is discarded
//!   rather than returned to the free-list. Executor locks recover from
//!   poisoning. Builds with the `failpoints` feature add injectable faults
//!   at the `par.spawn` (arm execution) and `par.join` (result collection)
//!   seams — see the `granlog-fault` crate.
//!
//! Arms that share an unbound variable are not independent; the machine
//! detects this while packing them and runs such conjunctions inline, so
//! the parallel execution always computes the same first answer as the
//! sequential engine.
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

#![warn(missing_docs)]

use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_engine::par::{ArmAnswer, Packet, ParDecision, ParHook};
use granlog_engine::{
    Budget, ClauseTemplate, Counters, EngineError, EngineResult, Machine, MachineConfig, Solve,
};
use granlog_ir::{parser, GuardTable, Program, Symbol, Term};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

pub mod obs;
pub use obs::ParObs;

/// Locks a mutex, recovering the data from a poisoned lock: a panic in one
/// worker must never wedge the whole executor, and every structure guarded
/// here (injector, machine pool, job states) stays consistent across a
/// mid-critical-section unwind because mutations are single assignments or
/// push/pop operations.
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
    /// Granularity control on: spawn a conjunction only when every arm's
    /// estimated work (the analysis cost function evaluated on the measured
    /// size of the arm's driving argument) reaches the spawn overhead;
    /// otherwise run it inline, sequentially.
    On,
    /// Parallelism disabled: every conjunction runs inline on the spawning
    /// machine (the sequential baseline, on the same code path).
    Off,
    /// Spawn every conjunction unconditionally (the "no control" baseline
    /// whose task-management overhead the paper measures).
    AlwaysSpawn,
}

/// Configuration of a [`ParExecutor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParConfig {
    /// Total number of threads executing the query: the caller plus
    /// `threads - 1` pool workers. `1` runs every spawned arm on the calling
    /// thread (exercising the full pack/unpack boundary without
    /// concurrency).
    pub threads: usize,
    /// The spawn-decision mode.
    pub granularity: Granularity,
    /// Task-management overhead `W` used to compile the spawn guards, in the
    /// analysis' cost units (resolutions by default). Only read with
    /// [`Granularity::On`].
    pub overhead: f64,
    /// Configuration of every worker machine.
    pub machine: MachineConfig,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            threads: 4,
            granularity: Granularity::On,
            overhead: granlog_analysis::annotate::AnnotateOptions::default().overhead,
            machine: MachineConfig::default(),
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
    /// the query (join unifications included).
    pub counters: Counters,
    /// Total work in cost-model units, aggregated like the counters.
    pub work: f64,
    /// Number of arms handed to the thread pool.
    pub spawned_tasks: usize,
    /// Number of `&` conjunctions the granularity guards (or an
    /// independence fallback) ran inline instead of spawning.
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

/// The result of one spawned arm, produced on whichever thread ran it:
/// `None` if the arm failed.
type JobResult = Result<Option<ArmAnswer>, EngineError>;

enum JobState {
    /// In the injector (or about to be): any thread may claim it.
    Pending,
    /// Claimed by some thread and currently executing.
    Claimed,
    /// Finished; the result is waiting for its joiner.
    Done(JobResult),
    /// The joiner took the result.
    Consumed,
}

/// One spawned arm: its packet plus its completion state.
struct Job {
    arm: Packet,
    state: Mutex<JobState>,
    cv: Condvar,
}

/// State shared between the spawning thread and the pool workers for the
/// lifetime of the executor. Also the [`ParHook`] implementation the
/// machines call at every `&`.
struct Shared<'p> {
    program: &'p Program,
    templates: Arc<[ClauseTemplate]>,
    machine_config: MachineConfig,
    granularity: Granularity,
    /// The analysis' guards (granularity-on only): evaluated by the machine
    /// over heap cells before any copy-out.
    guards: Option<GuardTable>,
    injector: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    done: AtomicBool,
    machines: Mutex<Vec<Machine<'p>>>,
    spawned: AtomicUsize,
    inlined: AtomicUsize,
    /// Instrumentation bundle; `None` leaves every path unmeasured. The
    /// outcome's own spawn/inline counts never route through this.
    obs: Option<Arc<ParObs>>,
}

impl<'p> Shared<'p> {
    fn acquire_machine(&self) -> Machine<'p> {
        let pooled = lock_recovering(&self.machines).pop();
        pooled.unwrap_or_else(|| {
            Machine::with_templates(
                self.program,
                self.machine_config,
                Arc::clone(&self.templates),
            )
        })
    }

    fn release_machine(&self, machine: Machine<'p>) {
        lock_recovering(&self.machines).push(machine);
    }

    /// Claims and executes a job if it is still pending; a no-op otherwise.
    ///
    /// The execution is wrapped in `catch_unwind`: a panic inside a spawned
    /// arm must complete the job (as [`EngineError::WorkerPanic`]) rather
    /// than leave it `Claimed` forever — a joiner waiting on a job that will
    /// never transition to `Done` would spin for the rest of the process.
    /// The panicking arm's machine is dropped mid-unwind, so it never
    /// returns to the free-list.
    fn run_job(&self, job: &Job) -> bool {
        {
            let mut state = lock_recovering(&job.state);
            match *state {
                JobState::Pending => *state = JobState::Claimed,
                _ => return false,
            }
        }
        let result = panic::catch_unwind(AssertUnwindSafe(|| self.exec_job(job))).unwrap_or_else(
            |payload| {
                Err(EngineError::WorkerPanic(
                    panic_message(&*payload).to_string(),
                ))
            },
        );
        let mut state = lock_recovering(&job.state);
        *state = JobState::Done(result);
        job.cv.notify_all();
        true
    }

    /// Runs a job's arm to its first solution on a pooled machine.
    fn exec_job(&self, job: &Job) -> JobResult {
        let mut machine = self.acquire_machine();
        // Injected failures discard the acquired machine (the early return
        // drops it), mirroring the hygiene of a real panic.
        granlog_fault::fail_or("par.spawn", || EngineError::Fault("par.spawn"))?;
        let started = self.obs.as_ref().map(|_| Instant::now());
        let result = machine.run_arm(&job.arm, Some(self));
        if let (Some(obs), Some(started)) = (&self.obs, started) {
            let elapsed = started.elapsed();
            obs.arm_ms.observe_duration_ms(elapsed);
            obs.tracer.emit(
                "par_arm",
                vec![("ms", (elapsed.as_secs_f64() * 1e3).into())],
            );
        }
        self.release_machine(machine);
        result
    }

    /// Pops and runs one pending job from the injector. Returns `false` if
    /// the injector was empty.
    fn try_help(&self) -> bool {
        let job = lock_recovering(&self.injector).pop_front();
        match job {
            Some(job) => {
                if self.run_job(&job) {
                    self.note_steal();
                }
                true
            }
            None => false,
        }
    }

    /// Records a job executed by a thread other than its forker (a pool
    /// worker, or a joiner helping while it waits).
    fn note_steal(&self) {
        if let Some(obs) = &self.obs {
            obs.steals.inc();
            obs.tracer.emit("par_steal", vec![]);
        }
    }

    /// Waits for a job's completion, running it inline if still pending and
    /// draining other pending jobs while it runs elsewhere (help-first
    /// joining: the wait-for graph stays acyclic, so nested conjunctions
    /// cannot deadlock).
    fn join_job(&self, job: &Job) -> JobResult {
        granlog_fault::fail_or("par.join", || EngineError::Fault("par.join"))?;
        let started = self.obs.as_ref().map(|_| Instant::now());
        self.run_job(job);
        let result = loop {
            {
                let mut state = lock_recovering(&job.state);
                if matches!(*state, JobState::Done(_)) {
                    let JobState::Done(result) = std::mem::replace(&mut *state, JobState::Consumed)
                    else {
                        unreachable!("matched Done above");
                    };
                    break result;
                }
            }
            if !self.try_help() {
                let state = lock_recovering(&job.state);
                if !matches!(*state, JobState::Done(_)) {
                    // Short-timeout wait: the runner's notify wakes us
                    // early; the timeout bounds how long a newly injected
                    // job can sit unseen while we sleep. A poisoned wait is
                    // ignored — the loop re-reads the state either way.
                    let _ = job.cv.wait_timeout(state, Duration::from_millis(1));
                }
            }
        };
        if let (Some(obs), Some(started)) = (&self.obs, started) {
            let elapsed = started.elapsed();
            obs.join_wait_ms.observe_duration_ms(elapsed);
            obs.tracer.emit(
                "par_join",
                vec![("ms", (elapsed.as_secs_f64() * 1e3).into())],
            );
        }
        result
    }

    /// The pool worker's main loop: pop and run jobs until shutdown.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = lock_recovering(&self.injector);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if self.done.load(Ordering::Acquire) {
                        break None;
                    }
                    queue = self
                        .work_cv
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            match job {
                Some(job) => {
                    if self.run_job(&job) {
                        self.note_steal();
                    }
                }
                None => return,
            }
        }
    }

    fn finish(&self) {
        // Under the injector lock: a worker that has read `done == false`
        // still holds it until `work_cv.wait` parks it, so the store and
        // the wake-up cannot fall between its check and its wait.
        let _queue = lock_recovering(&self.injector);
        self.done.store(true, Ordering::Release);
        self.work_cv.notify_all();
    }
}

impl ParHook for Shared<'_> {
    fn spawn_guards(&self) -> Option<&GuardTable> {
        self.guards.as_ref()
    }

    fn note_inlined(&self) {
        self.inlined.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.inlined.inc();
            obs.tracer.emit("par_inline", vec![]);
        }
    }

    fn exec_arms(&self, arms: Vec<Packet>) -> EngineResult<ParDecision> {
        // Conjunctions that reach this point already passed the machine's
        // spawn-guard pre-screen ([`ParHook::spawn_guards`]) and its
        // independence check; `Off` installs no hook at all, so only
        // spawn-worthy conjunctions arrive here.
        if arms.len() < 2 {
            return Ok(ParDecision::Inline);
        }
        let mut copied: usize = arms.iter().map(Packet::cells).sum();
        let jobs: Vec<Arc<Job>> = arms
            .into_iter()
            .map(|arm| {
                Arc::new(Job {
                    arm,
                    state: Mutex::new(JobState::Pending),
                    cv: Condvar::new(),
                })
            })
            .collect();
        self.spawned.fetch_add(jobs.len(), Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.spawned.add(jobs.len() as u64);
            obs.tracer.emit(
                "par_spawn",
                vec![("arms", jobs.len().into()), ("cells", copied.into())],
            );
        }
        lock_recovering(&self.injector).extend(jobs.iter().skip(1).cloned());
        self.work_cv.notify_all();
        // Run arm 0 on this thread, then join every arm in order. A failed
        // arm fails the conjunction; an error outranks a failure.
        self.run_job(&jobs[0]);
        let mut answers = Some(Vec::with_capacity(jobs.len()));
        let mut error: Option<EngineError> = None;
        for job in &jobs {
            match self.join_job(job) {
                Ok(Some(answer)) => {
                    copied += answer.packet.cells();
                    if let Some(answers) = &mut answers {
                        answers.push(answer);
                    }
                }
                Ok(None) => answers = None,
                Err(e) => error = error.or(Some(e)),
            }
        }
        if let Some(obs) = &self.obs {
            obs.copied_cells.observe(copied as f64);
        }
        match error {
            Some(e) => Err(e),
            None => Ok(ParDecision::Executed(answers)),
        }
    }
}

/// The multi-threaded and-parallel executor: a program's compiled templates,
/// a machine free-list, the spawn guards and the injector queue. Reusable
/// across queries (machines stay warm); one query runs at a time.
pub struct ParExecutor<'p> {
    shared: Shared<'p>,
    threads: usize,
    /// Does any clause body mention `&` at all? Purely sequential programs
    /// skip worker startup entirely (a dynamically constructed `&` still
    /// executes correctly — the spawning thread runs every job itself).
    has_par: bool,
}

impl<'p> ParExecutor<'p> {
    /// Creates an executor for a program. With [`Granularity::On`] the
    /// program is analysed here and the thresholds are lowered into runtime
    /// spawn guards; the other modes skip the analysis.
    pub fn new(program: &'p Program, config: ParConfig) -> Self {
        let guards = matches!(config.granularity, Granularity::On).then(|| {
            analyze_program(program, &AnalysisOptions::default()).guards_at(config.overhead)
        });
        let templates: Arc<[ClauseTemplate]> =
            granlog_engine::template::compile_program(program).into();
        let has_par = program
            .clauses()
            .iter()
            .any(|clause| mentions_par(&clause.body));
        ParExecutor {
            shared: Shared {
                program,
                templates,
                machine_config: config.machine,
                granularity: config.granularity,
                guards,
                injector: Mutex::new(VecDeque::new()),
                work_cv: Condvar::new(),
                done: AtomicBool::new(false),
                machines: Mutex::new(Vec::new()),
                spawned: AtomicUsize::new(0),
                inlined: AtomicUsize::new(0),
                obs: None,
            },
            threads: config.threads.max(1),
            has_par,
        }
    }

    /// Installs (or clears) spawn/steal/join instrumentation (see
    /// [`obs::ParObs`]). With no bundle installed the executor measures
    /// nothing; either way its answers and counters are identical.
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
    /// The calling thread executes the query's root (and arm 0 of every
    /// conjunction it spawns); `threads - 1` scoped workers run spawned
    /// arms. Workers live for the duration of the call.
    ///
    /// # Errors
    ///
    /// Returns an error if execution hits a limit or runtime error on any
    /// machine.
    pub fn run_goal(&mut self, goal: &Term, var_names: &[Symbol]) -> EngineResult<ParOutcome> {
        let (outcome, _slices) = self.run_goal_budgeted(goal, var_names, &Budget::UNLIMITED)?;
        Ok(outcome)
    }

    /// [`ParExecutor::run_goal`] under a per-slice [`Budget`]: the calling
    /// thread's top-level machine runs in budget slices, resuming after each
    /// [`Solve::Yield`] while the scoped workers stay alive across slices.
    /// Spawned arms run to completion on their workers (an arm is joined
    /// synchronously at its fork, so a yield can never strand one); the
    /// budget throttles and bounds the *root* computation. Returns the
    /// outcome plus the number of slices the solve took (1 = never
    /// preempted).
    ///
    /// Since parallel execution is deterministic here (in-order join, one
    /// query at a time), a budgeted run produces bit-identical answers and
    /// counters to an unbudgeted run of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if execution hits a limit, a runtime error on any
    /// machine, or exhausts a non-preemptible budget.
    pub fn run_goal_budgeted(
        &mut self,
        goal: &Term,
        var_names: &[Symbol],
        budget: &Budget,
    ) -> EngineResult<(ParOutcome, usize)> {
        self.shared.done.store(false, Ordering::Release);
        self.shared.spawned.store(0, Ordering::Relaxed);
        self.shared.inlined.store(0, Ordering::Relaxed);
        let shared = &self.shared;
        // Workers are useful only when something can reach the injector: a
        // program with `&` in it, run in a mode that installs the hook.
        let spawns_possible = self.has_par && shared.granularity != Granularity::Off;
        let workers = if spawns_possible { self.threads - 1 } else { 0 };
        let (outcome, slices) = std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| shared.worker_loop());
            }
            let hook = (shared.granularity != Granularity::Off).then_some(shared as &dyn ParHook);
            let mut machine = shared.acquire_machine();
            let mut slices = 1usize;
            let mut state = machine.solve_goal(goal, var_names, hook, budget);
            let outcome = loop {
                match state {
                    Ok(Solve::Done(outcome)) => break Ok(outcome),
                    Ok(Solve::Yield(token)) => {
                        slices += 1;
                        state = machine.resume(token, hook, budget);
                    }
                    Err(e) => break Err(e),
                }
            };
            shared.release_machine(machine);
            shared.finish();
            outcome.map(|outcome| (outcome, slices))
        })?;
        Ok((
            ParOutcome {
                succeeded: outcome.succeeded,
                bindings: outcome.bindings,
                counters: outcome.counters,
                work: outcome.work,
                spawned_tasks: self.shared.spawned.load(Ordering::Relaxed),
                inlined_conjunctions: self.shared.inlined.load(Ordering::Relaxed),
            },
            slices,
        ))
    }
}

/// Does a clause-body term mention the parallel-conjunction functor
/// anywhere (including under control constructs)?
fn mentions_par(term: &Term) -> bool {
    match term {
        Term::Struct(s, args) => {
            (*s == granlog_ir::symbol::well_known::par_and() && args.len() == 2)
                || args.iter().any(mentions_par)
        }
        _ => false,
    }
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
    fn parallel_fib_matches_sequential_answer() {
        for threads in [1, 2, 4] {
            let out = run(FIB, "fib(14, X)", threads, Granularity::AlwaysSpawn);
            assert!(out.succeeded);
            assert_eq!(out.binding("X").unwrap().to_string(), "377", "{threads}");
            assert!(out.spawned_tasks > 0);
        }
    }

    #[test]
    fn obs_observes_spawns_and_joins_without_perturbing_counters() {
        #[cfg(feature = "failpoints")]
        let _shared = fault_shared();
        let program = parse_program(FIB).unwrap();
        let plain = run(FIB, "fib(12, X)", 2, Granularity::AlwaysSpawn);

        let registry = granlog_obs::Registry::new();
        let tracer = Arc::new(granlog_obs::Tracer::new(4096));
        let mut exec = ParExecutor::new(
            &program,
            ParConfig {
                threads: 2,
                granularity: Granularity::AlwaysSpawn,
                ..ParConfig::default()
            },
        );
        exec.set_obs(Some(Arc::new(ParObs::register(
            &registry,
            Arc::clone(&tracer),
        ))));
        let out = exec.run_query("fib(12, X)").unwrap();
        assert!(out.succeeded);
        assert_eq!(out.binding("X").unwrap().to_string(), "144");
        // The instrumented registry mirrors the outcome's own counter...
        assert_eq!(
            registry.counter_value("granlog_par_spawned_total"),
            Some(out.spawned_tasks as u64)
        );
        // ...and the instrumented run is counter-identical to the plain one.
        assert_eq!(out.counters, plain.counters);
        assert_eq!(out.spawned_tasks, plain.spawned_tasks);
        let joins = registry
            .histogram_snapshot("granlog_par_join_wait_ms")
            .expect("registered");
        assert_eq!(joins.count, out.spawned_tasks as u64);
        // One copied-cells observation per spawned conjunction (fib's are
        // all two-armed), each at least the two goal cells it shipped; the
        // `par_spawn` events carry the arm half of the same count.
        let copied = registry
            .histogram_snapshot("granlog_par_copied_cells")
            .expect("registered");
        assert_eq!(copied.count * 2, out.spawned_tasks as u64);
        let events = tracer.events();
        let spawn_cells: f64 = events
            .iter()
            .filter(|e| e.kind == "par_spawn")
            .map(|e| match e.fields[..] {
                [("arms", _), ("cells", granlog_obs::Value::U64(cells))] => cells as f64,
                _ => panic!("par_spawn fields are arms, cells: {e:?}"),
            })
            .sum();
        assert!(spawn_cells >= 2.0 * copied.count as f64);
        assert!(copied.sum > spawn_cells, "answers are counted too");
        assert!(events.iter().any(|e| e.kind == "par_join"));
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
        assert!(out.inlined_conjunctions > 0, "small calls must inline");
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
    fn budgeted_parallel_run_matches_unbudgeted() {
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
        let full = exec.run_query("fib(12, X)").unwrap();
        let (goal, vars) = granlog_ir::parser::parse_term("fib(12, X)").unwrap();
        let (sliced, slices) = exec
            .run_goal_budgeted(&goal, &vars, &Budget::steps(16))
            .unwrap();
        assert!(slices > 1, "a 16-step quantum must preempt the root");
        assert_eq!(full.succeeded, sliced.succeeded);
        assert_eq!(full.bindings, sliced.bindings);
        assert_eq!(full.counters, sliced.counters);
        assert_eq!(full.spawned_tasks, sliced.spawned_tasks);
    }

    #[test]
    fn hard_budget_errors_through_the_executor() {
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
        let (goal, vars) = granlog_ir::parser::parse_term("fib(18, X)").unwrap();
        let err = exec
            .run_goal_budgeted(&goal, &vars, &Budget::hard_steps(10))
            .unwrap_err();
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        // The executor (and its machine pool) stays usable.
        let again = exec.run_query("fib(10, X)").unwrap();
        assert!(again.succeeded);
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

        fn fresh_executor(program: &Program) -> ParExecutor<'_> {
            ParExecutor::new(
                program,
                ParConfig {
                    threads: 2,
                    granularity: Granularity::AlwaysSpawn,
                    ..ParConfig::default()
                },
            )
        }

        #[test]
        fn a_panicking_arm_errors_the_join_instead_of_hanging_it() {
            let _excl = fault_exclusive();
            granlog_fault::disarm_all();
            granlog_fault::arm("par.spawn", Action::Panic, 1.0);
            let program = parse_program(FIB).unwrap();
            let mut exec = fresh_executor(&program);
            let err = exec.run_query("fib(12, X)").unwrap_err();
            granlog_fault::disarm_all();
            assert!(matches!(err, EngineError::WorkerPanic(_)), "{err}");
            assert!(err.to_string().contains("par.spawn"), "{err}");
            // The executor survives: the panicking arms' machines were
            // discarded mid-unwind, fresh ones take their place.
            let out = exec.run_query("fib(10, X)").unwrap();
            assert!(out.succeeded);
            assert_eq!(out.binding("X").unwrap().to_string(), "55");
        }

        #[test]
        fn an_injected_spawn_fault_is_typed_and_recoverable() {
            let _excl = fault_exclusive();
            granlog_fault::disarm_all();
            granlog_fault::arm("par.spawn", Action::Error, 1.0);
            let program = parse_program(FIB).unwrap();
            let mut exec = fresh_executor(&program);
            let err = exec.run_query("fib(12, X)").unwrap_err();
            granlog_fault::disarm_all();
            assert_eq!(err, EngineError::Fault("par.spawn"));
            assert!(exec.run_query("fib(8, X)").unwrap().succeeded);
        }

        #[test]
        fn an_injected_join_fault_is_typed_and_recoverable() {
            let _excl = fault_exclusive();
            granlog_fault::disarm_all();
            granlog_fault::arm("par.join", Action::Error, 1.0);
            let program = parse_program(FIB).unwrap();
            let mut exec = fresh_executor(&program);
            let err = exec.run_query("fib(12, X)").unwrap_err();
            granlog_fault::disarm_all();
            assert_eq!(err, EngineError::Fault("par.join"));
            assert!(exec.run_query("fib(8, X)").unwrap().succeeded);
        }
    }
}
