//! Cross-validation of the multiprocessor *simulator* against the real
//! multi-threaded executor.
//!
//! `granlog-sim` predicts, from a sequentially-recorded fork-join task tree
//! and an overhead model, which execution configuration of a benchmark is
//! faster — granularity control on versus spawning every conjunction. The
//! real executor (`granlog-par`) measures the same comparison in wall-clock
//! time. This suite checks that the *ordering* the simulator predicts is not
//! contradicted by the measurement.
//!
//! # Tolerance (documented, deliberately loose)
//!
//! Wall-clock measurements in a test environment are noisy (shared hosts,
//! debug builds, arbitrary core counts — including single-core CI runners,
//! where spawning can only ever add overhead). The check is therefore
//! one-sided and thresholded:
//!
//! * Only benchmarks where the simulator predicts granularity control wins
//!   **strongly** (simulated makespan of always-spawn ≥ `SIM_MARGIN` × the
//!   granularity-on makespan) are asserted at all.
//! * For those, the measured wall-clock ratio must not *contradict* the
//!   prediction by more than `MEAS_TOLERANCE`: measured always-spawn time
//!   must be at least `MEAS_TOLERANCE` × the measured granularity-on time
//!   (i.e. granularity-on may not be much *slower* than always-spawn when
//!   the simulator says it should be faster).
//!
//! `MEAS_TOLERANCE = 0.75` allows granularity-on to measure up to ~33%
//! slower than always-spawn before the test fails — enough headroom for
//! timer noise, far below the ≥ `SIM_MARGIN` gap being validated.

use granlog_analysis::annotate::{apply_granularity_control, AnnotateOptions};
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_benchmarks::benchmark;
use granlog_engine::Machine;
use granlog_ir::Program;
use granlog_par::{Granularity, ParConfig, ParExecutor};
use granlog_sim::{simulate, OverheadModel, SimConfig};
use std::time::Instant;

/// Simulator must predict at least this makespan ratio before we assert.
const SIM_MARGIN: f64 = 1.10;
/// Measured ratio may undershoot 1.0 by at most this factor.
const MEAS_TOLERANCE: f64 = 0.75;
/// Task-management overhead used on both sides, in cost units.
const OVERHEAD: f64 = 48.0;
/// Threads / simulated processors.
const P: usize = 4;

/// Simulated makespan of a program variant: run it sequentially (recording
/// the fork-join tree) and schedule the tree on `P` processors under the
/// ROLOG-like overhead model scaled to `OVERHEAD` units per task.
fn simulated_makespan(program: &Program, query: &str) -> f64 {
    let mut machine = Machine::new(program);
    let run = machine
        .run_query_recorded(query)
        .unwrap_or_else(|e| panic!("sequential {query} failed: {e}"));
    assert!(run.outcome.succeeded, "{query} did not succeed");
    let base = OverheadModel::rolog_like();
    let overhead = base.scaled(OVERHEAD / base.per_task_overhead().max(1e-9));
    simulate(&run.task_tree, &SimConfig::new(P, overhead)).makespan
}

/// Measured wall-clock of the real executor under granularity-on and under
/// always-spawn, as `(on, always)` milliseconds per query: the best of
/// `ROUNDS` samples each, every sample with enough repetitions to dominate
/// timer jitter. The two configurations are sampled in alternation, so a
/// host that slows down for a while (or lends the process one CPU instead
/// of two) slows both sides of the ratio. Since an offered arm is claimed
/// back for next to nothing when no thread is idle, always-spawn is no
/// longer several times slower than granularity-on: the honest ratio sits a
/// little above 1 and has no slack left for a measurement that takes its
/// two halves seconds apart.
fn measured_ms(program: &Program, query: &str) -> (f64, f64) {
    const ROUNDS: usize = 9;
    let (goal, var_names) = granlog_ir::parser::parse_term(query).unwrap();
    let mut sides = [Granularity::On, Granularity::AlwaysSpawn].map(|granularity| {
        let mut executor = ParExecutor::new(
            program,
            ParConfig {
                threads: P,
                granularity,
                overhead: OVERHEAD,
                ..ParConfig::default()
            },
        );
        // Warm up (and check the answer once).
        let warm_start = Instant::now();
        let out = executor.run_goal(&goal, &var_names).unwrap();
        assert!(out.succeeded, "{query} did not succeed ({granularity:?})");
        let warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
        let reps = ((8.0 / warm_ms.max(1e-6)).ceil() as usize).clamp(1, 2_000);
        (executor, reps, f64::INFINITY)
    });
    for _ in 0..ROUNDS {
        for (executor, reps, best) in &mut sides {
            let start = Instant::now();
            for _ in 0..*reps {
                let out = executor.run_goal(&goal, &var_names).unwrap();
                std::hint::black_box(out.succeeded);
            }
            *best = best.min(start.elapsed().as_secs_f64() * 1e3 / *reps as f64);
        }
    }
    (sides[0].2, sides[1].2)
}

#[test]
fn simulated_ordering_is_not_contradicted_by_measurement() {
    // Coarse-grained benchmarks where granularity control has something to
    // prune, at the registry's default sizes: at the test sizes a query is
    // over sooner than its `P - 1` worker threads have started, and the
    // measurement would compare two thread start-ups.
    for name in ["fib", "quick_sort", "matrix_mult", "tree_traversal"] {
        let bench = benchmark(name).unwrap();
        let program = bench.program().unwrap();
        let query = bench.query(bench.default_size);

        // Simulated: granularity-on = the source-level annotated program
        // (grain-test guarded conjunctions), always-spawn = the program as
        // written, both scheduled on P simulated processors.
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let annotated =
            apply_granularity_control(&program, &analysis, &AnnotateOptions { overhead: OVERHEAD })
                .program;
        let sim_on = simulated_makespan(&annotated, &query);
        let sim_always = simulated_makespan(&program, &query);
        let sim_ratio = sim_always / sim_on.max(1e-9);

        // Measured: the same comparison on the real executor, which under
        // `On` runs the same annotated program (grain tests and all) and
        // under `AlwaysSpawn` the program as written.
        let (meas_on, meas_always) = measured_ms(&program, &query);
        let meas_ratio = meas_always / meas_on.max(1e-9);

        eprintln!(
            "[sim_crossvalidation] {name}: simulated always/on = {sim_ratio:.2}, \
             measured always/on = {meas_ratio:.2} \
             (sim {sim_always:.0}/{sim_on:.0} units, meas {meas_always:.3}/{meas_on:.3} ms)"
        );

        if sim_ratio >= SIM_MARGIN {
            assert!(
                meas_ratio >= MEAS_TOLERANCE,
                "{name}: simulator predicts granularity control wins by {sim_ratio:.2}x, \
                 but measurement contradicts it ({meas_ratio:.2}x < {MEAS_TOLERANCE})"
            );
        }
    }
}

/// The simulator and the executor must agree on *what was spawned* when
/// granularity control prunes: the executor's spawn count with guards on is
/// never larger than without.
#[test]
fn guards_never_spawn_more_than_always_spawn() {
    for name in [
        "fib",
        "quick_sort",
        "matrix_mult",
        "tree_traversal",
        "hanoi",
    ] {
        let bench = benchmark(name).unwrap();
        let program = bench.program().unwrap();
        let query = bench.query(bench.test_size);
        let spawned = |granularity| {
            let mut executor = ParExecutor::new(
                &program,
                ParConfig {
                    threads: 2,
                    granularity,
                    overhead: OVERHEAD,
                    ..ParConfig::default()
                },
            );
            executor.run_query(&query).unwrap().spawned_tasks
        };
        let with_guards = spawned(Granularity::On);
        let always = spawned(Granularity::AlwaysSpawn);
        assert!(
            with_guards <= always,
            "{name}: guards spawned more ({with_guards}) than always-spawn ({always})"
        );
    }
}
