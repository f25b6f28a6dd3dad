//! The experiment harness: run a benchmark through the analysis, the
//! granularity-control transformation, the execution engine and the
//! multiprocessor simulator, with or without granularity control.
//!
//! This is the code path that regenerates the paper's Tables 1 and 2 (execution
//! time with no granularity control, `T0`, versus with granularity control,
//! `T1`, on a simulated 4-processor machine) and Figure 2 (execution time as a
//! function of the grain-size threshold).

use crate::suite::Benchmark;
pub use granlog_analysis::annotate::{prepare_program, ControlMode};
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_engine::{Machine, MachineConfig, RecordedOutcome};
use granlog_ir::Program;
use granlog_sim::{simulate, speedup_percent, SimConfig, SimOutcome};
use serde::{Deserialize, Serialize};

/// The result of one benchmark run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Input size used.
    pub size: usize,
    /// Preparation mode.
    pub mode: ControlMode,
    /// Did the query succeed? (It always should.)
    pub succeeded: bool,
    /// Total sequential work executed, in cost-model units.
    pub total_work: f64,
    /// Number of tasks spawned during (recorded) execution.
    pub spawned_tasks: usize,
    /// Number of runtime grain-size tests executed.
    pub grain_tests: u64,
    /// The simulated execution on the configured machine.
    pub sim: SimOutcome,
}

impl RunResult {
    /// The simulated execution time.
    pub fn time(&self) -> f64 {
        self.sim.makespan
    }
}

/// A row of Table 1 / Table 2: one benchmark, with and without granularity
/// control.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableRow {
    /// The paper-style label, e.g. `fib(15)`.
    pub label: String,
    /// Simulated time without granularity control (`T0`).
    pub t_without: f64,
    /// Simulated time with granularity control (`T1`).
    pub t_with: f64,
    /// `(T0 − T1)/T0`, in percent.
    pub speedup_percent: f64,
    /// Tasks spawned without control.
    pub tasks_without: usize,
    /// Tasks spawned with control.
    pub tasks_with: usize,
    /// Runtime grain tests executed with control.
    pub grain_tests: u64,
}

/// One point of the Figure 2 sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The grain-size threshold used for every parallel conjunction.
    pub grain_size: u64,
    /// Simulated execution time at that threshold.
    pub time: f64,
    /// Number of tasks spawned at that threshold.
    pub spawned_tasks: usize,
}

/// Executes a prepared program on the engine, on the caller's stack (no walk
/// over run-time terms recurses), and returns the engine outcome with the
/// task tree the simulator schedules.
///
/// # Panics
///
/// Panics if the query fails to parse or the engine reports an error — for the
/// bundled benchmarks both indicate a bug, and the experiment harness wants a
/// loud failure rather than a silently missing table row.
pub fn execute(program: Program, query: String) -> RecordedOutcome {
    Machine::with_config(&program, MachineConfig::default())
        .run_query_recorded(&query)
        .unwrap_or_else(|e| panic!("engine error while running {query}: {e}"))
}

/// Runs one benchmark at one size in one control mode on one simulated
/// machine.
pub fn run_benchmark(
    bench: &Benchmark,
    size: usize,
    sim_config: &SimConfig,
    mode: ControlMode,
) -> RunResult {
    let program = bench
        .program()
        .unwrap_or_else(|e| panic!("benchmark {} does not parse: {e}", bench.name));
    let analysis = analyze_program(&program, &AnalysisOptions::default());
    let overhead = sim_config.overhead.per_task_overhead();
    let prepared = prepare_program(&program, &analysis, mode, overhead);
    let query = bench.query(size);
    let RecordedOutcome { outcome, task_tree } = execute(prepared, query);
    let sim = simulate(&task_tree, sim_config);
    RunResult {
        benchmark: bench.name.to_owned(),
        size,
        mode,
        succeeded: outcome.succeeded,
        total_work: outcome.work,
        spawned_tasks: task_tree.spawned_tasks(),
        grain_tests: outcome.counters.grain_tests,
        sim,
    }
}

/// Runs a benchmark with and without granularity control and builds the
/// corresponding table row.
pub fn table_row(bench: &Benchmark, size: usize, sim_config: &SimConfig) -> TableRow {
    let without = run_benchmark(bench, size, sim_config, ControlMode::NoControl);
    let with = run_benchmark(bench, size, sim_config, ControlMode::WithControl);
    TableRow {
        label: format!("{}({})", bench.name, size),
        t_without: without.time(),
        t_with: with.time(),
        speedup_percent: speedup_percent(without.time(), with.time()),
        tasks_without: without.spawned_tasks,
        tasks_with: with.spawned_tasks,
        grain_tests: with.grain_tests,
    }
}

/// Sweeps the grain-size threshold for a benchmark (Figure 2): for every
/// threshold, all parallel conjunctions are guarded with that fixed grain
/// size and the program is executed and simulated.
pub fn grain_size_sweep(
    bench: &Benchmark,
    size: usize,
    sim_config: &SimConfig,
    thresholds: &[u64],
) -> Vec<SweepPoint> {
    thresholds
        .iter()
        .map(|&k| {
            let result = run_benchmark(bench, size, sim_config, ControlMode::FixedThreshold(k));
            SweepPoint {
                grain_size: k,
                time: result.time(),
                spawned_tasks: result.spawned_tasks,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::benchmark;
    use granlog_sim::OverheadModel;

    fn small_config() -> SimConfig {
        SimConfig::new(4, OverheadModel::rolog_like())
    }

    #[test]
    fn fib_runs_in_all_modes() {
        let fib = benchmark("fib").unwrap();
        for mode in [
            ControlMode::NoControl,
            ControlMode::WithControl,
            ControlMode::Sequential,
            ControlMode::FixedThreshold(5),
        ] {
            let r = run_benchmark(&fib, 10, &small_config(), mode);
            assert!(r.succeeded, "fib failed in mode {mode:?}");
            assert!(r.total_work > 0.0);
        }
    }

    #[test]
    fn control_reduces_task_count_under_high_overhead() {
        let fib = benchmark("fib").unwrap();
        let without = run_benchmark(&fib, 12, &small_config(), ControlMode::NoControl);
        let with = run_benchmark(&fib, 12, &small_config(), ControlMode::WithControl);
        assert!(without.spawned_tasks > with.spawned_tasks);
        assert!(with.grain_tests > 0);
        // And the simulated time improves.
        assert!(with.time() < without.time());
    }

    #[test]
    fn sequential_mode_spawns_nothing() {
        let qs = benchmark("quick_sort").unwrap();
        let r = run_benchmark(&qs, 15, &small_config(), ControlMode::Sequential);
        assert!(r.succeeded);
        assert_eq!(r.spawned_tasks, 0);
        assert_eq!(r.grain_tests, 0);
    }

    #[test]
    fn fixed_threshold_zero_equals_no_control() {
        let qs = benchmark("quick_sort").unwrap();
        let a = run_benchmark(&qs, 15, &small_config(), ControlMode::NoControl);
        let b = run_benchmark(&qs, 15, &small_config(), ControlMode::FixedThreshold(0));
        assert_eq!(a.spawned_tasks, b.spawned_tasks);
        assert!((a.time() - b.time()).abs() < 1e-9);
    }

    #[test]
    fn huge_fixed_threshold_behaves_like_sequential() {
        let fib = benchmark("fib").unwrap();
        let fixed = run_benchmark(
            &fib,
            10,
            &small_config(),
            ControlMode::FixedThreshold(1_000_000),
        );
        assert_eq!(fixed.spawned_tasks, 0);
        let seq = run_benchmark(&fib, 10, &small_config(), ControlMode::Sequential);
        // The fixed-threshold run pays for its grain tests, so it is at least
        // as slow as the plain sequential run.
        assert!(fixed.time() >= seq.time());
    }

    #[test]
    fn table_row_reports_consistent_speedup() {
        let fib = benchmark("fib").unwrap();
        let row = table_row(&fib, 11, &small_config());
        let expected = speedup_percent(row.t_without, row.t_with);
        assert!((row.speedup_percent - expected).abs() < 1e-9);
        assert!(row.t_without > 0.0 && row.t_with > 0.0);
    }

    #[test]
    fn sweep_produces_one_point_per_threshold() {
        let fib = benchmark("fib").unwrap();
        let points = grain_size_sweep(&fib, 10, &small_config(), &[0, 2, 8, 1_000]);
        assert_eq!(points.len(), 4);
        // Spawned tasks decrease (weakly) as the grain size grows.
        for pair in points.windows(2) {
            assert!(pair[1].spawned_tasks <= pair[0].spawned_tasks);
        }
        // At a huge threshold nothing is spawned.
        assert_eq!(points.last().unwrap().spawned_tasks, 0);
    }
}
