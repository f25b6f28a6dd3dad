//! Reproduces **Table 1** of the paper: execution times of the twelve
//! benchmarks on a 4-processor machine with a ROLOG-like (high) task-management
//! overhead, with (`T1`) and without (`T0`) granularity control.
//!
//! ```text
//! cargo run --release -p granlog-bench --bin table1_rolog
//! ```
//!
//! Pass `--small` to run reduced input sizes (used by CI / the integration
//! tests).

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    granlog_bench::emit("table1_rolog", &granlog_bench::table1_rolog(small));
}
