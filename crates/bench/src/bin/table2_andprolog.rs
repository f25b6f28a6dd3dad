//! Reproduces **Table 2** of the paper: execution times of the four
//! benchmarks the paper measured on &-Prolog (low task-management overhead),
//! with and without granularity control.
//!
//! ```text
//! cargo run --release -p granlog-bench --bin table2_andprolog
//! ```

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    granlog_bench::emit("table2_andprolog", &granlog_bench::table2_andprolog(small));
}
