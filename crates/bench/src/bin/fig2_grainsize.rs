//! Reproduces **Figure 2** of the paper: total execution time as a function of
//! the grain-size threshold, for several benchmarks on the ROLOG-like
//! 4-processor machine.
//!
//! Every parallel conjunction is guarded by a runtime test with the *same*
//! fixed threshold; sweeping that threshold from 0 (spawn everything) to very
//! large (spawn nothing) shows the characteristic curve: high on the left
//! (over-spawning pays the task-management overhead for tiny tasks), a wide
//! flat trough in the middle, and rising again on the right (all parallelism
//! sequentialised). The width of the trough is the paper's argument that the
//! compiler-derived threshold does not need to be very precise.
//!
//! ```text
//! cargo run --release -p granlog-bench --bin fig2_grainsize
//! ```

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    granlog_bench::emit("fig2_grainsize", &granlog_bench::fig2_grainsize(small));
}
