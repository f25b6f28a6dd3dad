//! # granlog-benchmarks
//!
//! The benchmark suite of *Task Granularity Analysis in Logic Programs*
//! (PLDI 1990), together with the experiment harness that reproduces the
//! paper's evaluation on the engine/simulator substrate:
//!
//! * [`suite`] — the twelve Table-1 programs (`consistency`, `fib`, `hanoi`,
//!   `quick_sort`, `lr1_set`, `double_sum`, `fft`, `flatten`, `matrix_mult`,
//!   `merge_sort`, `poly_inclusion`, `tree_traversal`) plus the Appendix's
//!   `nrev`, each as an and-parallel Prolog program with mode/measure
//!   declarations and a deterministic query generator;
//! * [`generate`] — reproducible workload generators (lists, matrices, trees,
//!   polygons, ...);
//! * [`harness`] — run a benchmark through analysis → granularity control →
//!   engine → simulator, with or without control, producing the rows of
//!   Tables 1 and 2 and the points of Figure 2;
//! * [`artefacts`] — those rows and points, and Figure 1 and two ablations,
//!   rendered as the text the `experiments` binary prints.
//!
//! # Example
//!
//! ```no_run
//! use granlog_benchmarks::harness::{table_row, ControlMode};
//! use granlog_benchmarks::suite::benchmark;
//! use granlog_sim::SimConfig;
//!
//! let fib = benchmark("fib").unwrap();
//! let row = table_row(&fib, 15, &SimConfig::rolog4());
//! println!("{}: T0 = {:.0}, T1 = {:.0}, speedup = {:.1}%",
//!          row.label, row.t_without, row.t_with, row.speedup_percent);
//! ```

#![forbid(unsafe_code)]

pub mod artefacts;
pub mod generate;
pub mod harness;
pub mod suite;

pub use harness::{
    grain_size_sweep, run_benchmark, table_row, ControlMode, RunResult, SweepPoint, TableRow,
};
pub use suite::{
    all_benchmarks, attack_instances, benchmark, control_benchmarks, datalog_benchmark,
    datalog_benchmarks, nrev_benchmark, table2_benchmarks, Benchmark, DatalogBenchmark,
    ATTACK_RULES,
};

/// The artefact formatters' unit tests.
#[cfg(test)]
mod tests {
    use crate::artefacts::{default_grain_sizes, format_sweep, format_table};
    use crate::{SweepPoint, TableRow};

    fn sample_row() -> TableRow {
        TableRow {
            label: "fib(15)".into(),
            t_without: 1170.0,
            t_with: 850.0,
            speedup_percent: 27.3,
            tasks_without: 1000,
            tasks_with: 120,
            grain_tests: 300,
        }
    }

    #[test]
    fn table_formatting_contains_all_fields() {
        let text = format_table("Table 1", &[sample_row()]);
        assert!(text.contains("fib(15)"));
        assert!(text.contains("1170"));
        assert!(text.contains("850"));
        assert!(text.contains("27.3%"));
    }

    #[test]
    fn sweep_formatting_scales_bars() {
        let points = vec![
            SweepPoint {
                grain_size: 0,
                time: 100.0,
                spawned_tasks: 50,
            },
            SweepPoint {
                grain_size: 8,
                time: 50.0,
                spawned_tasks: 10,
            },
            SweepPoint {
                grain_size: 1024,
                time: 200.0,
                spawned_tasks: 0,
            },
        ];
        let text = format_sweep("Figure 2", &points);
        assert!(text.contains("Figure 2"));
        assert!(text.matches('\n').count() >= 5);
        // The largest time gets the longest bar.
        let lines: Vec<&str> = text.lines().collect();
        let bar_len = |line: &str| line.chars().filter(|c| *c == '#').count();
        let last = lines.iter().find(|l| l.contains("1024")).unwrap();
        let first = lines
            .iter()
            .find(|l| l.trim_start().starts_with('0'))
            .unwrap();
        assert!(bar_len(last) > bar_len(first));
    }

    #[test]
    fn default_grain_sizes_are_sorted_and_start_at_zero() {
        let g = default_grain_sizes();
        assert_eq!(g[0], 0);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }
}
