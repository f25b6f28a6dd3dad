//! Reproduces **Figure 1** of the paper: the data dependency graphs of the two
//! clauses of `nrev/2` (and, for completeness, of `append/3`).
//!
//! ```text
//! cargo run -p granlog-bench --bin fig1_ddg
//! ```

fn main() {
    granlog_bench::emit("fig1_ddg", &granlog_bench::fig1_ddg());
}
