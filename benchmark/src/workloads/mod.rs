//! The six workloads. Each is one function from a [`RoundCtx`] to a
//! [`RoundReport`]: set up, stop the set-up clock, compute references, run the
//! seeded schedule, report. All of them are closed loops: every caller of
//! this system waits for its reply before sending the next request.

use crate::reference::Expect;
use crate::round::{RoundCtx, RoundReport};
use granlog_ir::{Symbol, Term};

mod compile_pipeline;
mod datalog_attack;
mod par_control;
mod serve_churn;
mod serve_hot;
mod sld_suite;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; `BENCHMARK.json` carries it).
    pub why: &'static str,
    /// Wall time of one pass over the base schedule on the reference host, in
    /// milliseconds: `--seconds` is turned into a pass *count* with it, so the
    /// schedule stays count-based and exact counters repeat.
    pub pass_ms: f64,
    pub run: fn(&RoundCtx) -> RoundReport,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sld_suite",
        why: "15 suite programs on warm sequential machines: engine does ~all the work, so an engine change shows here and a serve change must not",
        pass_ms: sld_suite::PASS_MS,
        run: sld_suite::run,
    },
    Workload {
        name: "par_control",
        why: "8 spawning programs on the parallel executor with granularity control on: spawn, copy, join and guard cost, the paper's runtime claim",
        pass_ms: par_control::PASS_MS,
        run: par_control::run,
    },
    Workload {
        name: "datalog_attack",
        why: "bottom-up fixpoint plus five queries on star, chain and cut attack graphs: the only workload where the datalog crate does the work",
        pass_ms: datalog_attack::PASS_MS,
        run: datalog_attack::run,
    },
    Workload {
        name: "compile_pipeline",
        why: "source text to templates (parse, analyse, annotate, compile) and fact files to join plans: compile time, the cost side of the paper's trade",
        pass_ms: compile_pipeline::PASS_MS,
        run: compile_pipeline::run,
    },
    Workload {
        name: "serve_hot",
        why: "loopback server, every load a cache hit, small queries: wire, goal parsing, lease, slicing and rendering dominate, the engine is a minor part",
        pass_ms: serve_hot::PASS_MS,
        run: serve_hot::run,
    },
    Workload {
        name: "serve_churn",
        why: "durable server, working set 4x the cache, 1 load per 3 queries: parse, compile, evict, WAL append and compaction, cold machine pools",
        pass_ms: serve_churn::PASS_MS,
        run: serve_churn::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Threads or connections the benchmark loads the system with: at most the
/// host's CPUs, so the load generator and the system share what a user's
/// clients and server would share.
pub fn load_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Renders an engine answer the way the server writes it on the wire, so one
/// reference string checks `Machine`, `ParExecutor` and served replies alike.
fn rendered(bindings: &[(Symbol, Term)]) -> Vec<(String, String)> {
    bindings
        .iter()
        .map(|(name, term)| (name.to_string(), term.to_string()))
        .collect()
}

/// `None` when the reply matches its reference, else what was wrong.
fn problem(
    class: &str,
    expect: &Expect,
    succeeded: bool,
    bindings: &[(String, String)],
) -> Option<String> {
    let pairs = bindings.iter().map(|(n, v)| (n.as_str(), v.as_str()));
    if expect.matches(succeeded, pairs) {
        return None;
    }
    let shown: String = format!("{bindings:?}").chars().take(120).collect();
    Some(format!(
        "{class}: answer differs from the reference (succeeded={succeeded}, got {shown})"
    ))
}

/// Seconds since the round's process started.
fn since_start(ctx: &RoundCtx) -> f64 {
    ctx.started.elapsed().as_secs_f64()
}
