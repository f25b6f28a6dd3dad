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
//!   Tables 1 and 2 and the points of Figure 2.
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
