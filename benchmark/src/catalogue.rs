//! Every metric the benchmark reports: its name, unit, direction, bound, what
//! it measures, and — for layer metrics — which end-to-end metric it should
//! move on which workload. `BENCHMARK.json` is printed from these tables
//! (`benchmark --benchmark-json`) and a test keeps the committed file equal.

use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `value` worse (negative when better)?
    pub fn worsening(self, base: f64, value: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (value - base) / base,
            Better::Higher => (base - value) / base,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse before
    /// a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "round start to first timed operation: input generation, parsing and compiling programs and goals, executor or server boot, store replay, warm-up (the fastest of the run's rounds)",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        what: "correct operations per second over the run's quiet passes, summed over load threads",
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "geometric mean over the workload's classes of the class's median operation latency in the run's quiet passes",
    },
    EndToEnd {
        name: "tail_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        what: "geometric mean over classes of the class's tail latency in the run's quiet passes: the highest of its 90th, 75th and 50th percentiles with at least ten samples beyond it",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
        what: "VmHWM of a round's process when it ends (median over rounds)",
    },
];

pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("catalogued end-to-end metric")
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub what: &'static str,
    /// The end-to-end metric this should move, and where; "-" for a
    /// diagnostic that explains a move rather than causes one.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        what,
        moves,
    }
}

/// The layers are the crates. A metric a workload does not exercise reads 0
/// there: the layer did no work, which is what layer isolation means.
pub const PER_LAYER: [Layer; 69] = [
    layer("ir.parse_program_ms", "ms", Lower, "time in parse_program per call", "p50_ms on compile_pipeline (fact-file classes) and serve_churn (load_*: hits re-parse too); nothing on sld_suite/datalog_attack"),
    layer("ir.parse_program_mb_s", "MB/s", Higher, "source bytes parsed per second", "same as ir.parse_program_ms"),
    layer("ir.parse_term_ms", "ms", Lower, "time in parse_term per goal", "p50_ms on serve_hot (list-valued goals); setup_s only on sld_suite/par_control"),
    layer("ir.clauses", "count", Lower, "clauses after parse (exact)", "-"),
    layer("analysis.analyze_ms", "ms", Lower, "analyze_program per program", "p50_ms/ops_per_s on compile_pipeline (~3/4 of it)"),
    layer("analysis.annotate_ms", "ms", Lower, "apply_granularity_control per program", "p50_ms on compile_pipeline"),
    layer("analysis.bounded_share", "ratio", Higher, "predicates with a closed-form cost bound / predicates analysed", "- (useful / attempted)"),
    layer("analysis.guarded_conjunctions", "count", Higher, "& sites given a runtime grain test (exact)", "par.spawn_share, then p50_ms on par_control"),
    layer("engine.compile_program_ms", "ms", Lower, "template compilation per program", "p50_ms of load_miss on serve_churn"),
    layer("engine.run_goal_ms", "ms", Lower, "Machine::run_goal per operation", "p50_ms/ops_per_s on sld_suite ~1:1; at most 1/3 of p50_ms on serve_hot"),
    layer("engine.resolutions", "count", Lower, "resolutions per schedule (exact)", "must not move under a pure speed-up"),
    layer("engine.head_attempts", "count", Lower, "head unification attempts per schedule (exact)", "must not move under a pure speed-up"),
    layer("engine.unifications", "count", Lower, "unifications per schedule (exact)", "must not move under a pure speed-up"),
    layer("engine.builtins", "count", Lower, "builtin calls per schedule (exact)", "must not move under a pure speed-up"),
    layer("engine.mres_per_s", "Mres/s", Higher, "million resolutions per second of run_goal time", "ops_per_s on sld_suite"),
    layer("engine.allocs_per_resolution", "ratio", Lower, "allocator calls per resolution", "p50_ms on sld_suite (hanoi, flatten, lr1_set rows)"),
    layer("engine.heap_high_water_cells", "count", Lower, "largest arena high-water mark of the schedule (exact)", "peak_rss_mb on sld_suite/par_control"),
    layer("par.new_ms", "ms", Lower, "ParExecutor::new: analysis, guard lowering, templates", "setup_s on par_control"),
    layer("par.run_goal_ms", "ms", Lower, "ParExecutor::run_goal under Granularity::On per operation", "p50_ms on par_control"),
    layer("par.run_goal_off_ms", "ms", Lower, "same schedule under Granularity::Off, geometric mean of class medians", "- (sequential baseline)"),
    layer("par.run_goal_always_ms", "ms", Lower, "same schedule under AlwaysSpawn, geometric mean of class medians", "- (no-control baseline)"),
    layer("par.control_gain", "ratio", Higher, "always / on, geometric mean over classes: the paper's result", "rises when guards or spawn cost improve"),
    layer("par.speedup_vs_seq", "ratio", Higher, "off / on, geometric mean over classes", "rises with scheduler/copy improvements; quote only with nproc beside it"),
    layer("par.spawned_tasks", "count", Lower, "arms handed to the pool per schedule (exact)", "p50_ms on par_control"),
    layer("par.inlined_conjunctions", "count", Higher, "conjunctions run inline per schedule (exact)", "p50_ms on par_control"),
    layer("par.spawn_share", "ratio", Lower, "spawned / (spawned + inlined)", "p50_ms on par_control"),
    layer("par.steals", "count", Lower, "jobs taken by a thread other than their forker (ParObs)", "waiting time behind p50_ms on par_control"),
    layer("par.arm_ms", "ms", Lower, "mean solve time of a spawned arm (ParObs)", "waiting time behind p50_ms on par_control"),
    layer("par.join_wait_ms", "ms", Lower, "mean time a joiner spent per arm (ParObs)", "waiting time behind p50_ms on par_control"),
    layer("datalog.compile_ms", "ms", Lower, "CompiledDatalog::compile per program", "setup_s on datalog_attack; p50_ms on compile_pipeline"),
    layer("datalog.evaluate_ms", "ms", Lower, "fixpoint per operation", "p50_ms/ops_per_s on datalog_attack"),
    layer("datalog.query_ms", "ms", Lower, "the five canned queries per database", "p50_ms on datalog_attack (star, cut)"),
    layer("datalog.derived_facts", "count", Lower, "facts derived, summed over the fact files (exact)", "must not move"),
    layer("datalog.rounds", "count", Lower, "fixpoint rounds (exact)", "must not move"),
    layer("datalog.join_batches", "count", Lower, "join batches (exact)", "must not move"),
    layer("datalog.edb_facts", "count", Lower, "ground facts loaded (exact)", "must not move"),
    layer("datalog.us_per_round", "us", Lower, "evaluate time / rounds on chain: fixed cost per round", "p50_ms on datalog_attack (chain)"),
    layer("datalog.us_per_derived_fact", "us", Lower, "evaluate time / derived facts on star: join cost per fact", "p50_ms on datalog_attack (star)"),
    layer("sim.simulate_ms", "ms", Lower, "simulate per fork-join tree", "- (prediction)"),
    layer("sim.predicted_control_gain", "ratio", Higher, "simulated T0 / T1 for the par_control programs, geometric mean", "- (prediction beside par.control_gain)"),
    layer("store.record_load_ms", "ms", Lower, "ProgramStore::record_load per load", "p50_ms of load_miss and tail_ms on serve_churn"),
    layer("store.open_replay_ms", "ms", Lower, "ProgramStore::open over the journaled working set", "setup_s on serve_churn"),
    layer("store.wal_bytes", "count", Lower, "WAL bytes when the round ends", "tail_ms on serve_churn (compaction stalls)"),
    layer("store.wal_records", "count", Lower, "WAL records when the round ends", "tail_ms on serve_churn"),
    layer("store.compactions", "count", Lower, "snapshot compactions during the timed section", "tail_ms on serve_churn"),
    layer("serve.client_query_ms", "ms", Lower, "query round trip seen by ServeClient, mean", "this is p50_ms on the serve workloads"),
    layer("serve.client_load_ms", "ms", Lower, "load round trip seen by ServeClient, mean", "this is p50_ms on the serve workloads"),
    layer("serve.server_query_ms", "ms", Lower, "mean of the server's own query-latency histogram", "p50_ms on serve_hot"),
    layer("serve.wire_ms", "ms", Lower, "client_query - server_query: socket, framing, thread wake-up", "p50_ms/tail_ms on serve_hot"),
    layer("serve.session_query_ms", "ms", Lower, "same schedule through an in-process Session::query", "p50_ms on serve_hot"),
    layer("serve.session_load_ms", "ms", Lower, "same schedule through an in-process Session::load", "p50_ms on serve_churn"),
    layer("serve.session_self_ms", "ms", Lower, "session_query - parse_term - run_goal: lease, slicing, rendering", "p50_ms on serve_hot"),
    layer("serve.cache_load_hit_ms", "ms", Lower, "TemplateCache::load that hit", "load_hit class median"),
    layer("serve.cache_load_miss_ms", "ms", Lower, "TemplateCache::load that missed", "load_miss class median"),
    layer("serve.cache_hit_share", "ratio", Higher, "hits / loads during the timed section", "ops_per_s on serve_churn"),
    layer("serve.cache_evictions", "count", Lower, "evictions during the timed section", "ops_per_s on serve_churn"),
    layer("serve.slices_per_query", "ratio", Lower, "preemption slices per query", "p50_ms on serve_hot"),
    layer("serve.reply_bytes_per_query", "count", Lower, "rendered answer bytes per query", "p50_ms on serve_hot"),
    layer("serve.quarantined", "count", Lower, "machines quarantined (must be 0)", "failed operations"),
    layer("serve.shed", "count", Lower, "connections shed (must be 0)", "failed operations"),
    layer("serve.pool_retired", "count", Lower, "machines retired by the arena high-water policy", "p50_ms on the serve workloads"),
    layer("serve.p99_ms", "ms", Lower, "99th percentile over all operations of a round (at least 10 000 samples), median over rounds", "what a served user sees as the tail; read beside tail_ms"),
    layer("obs.profile_on_cost_share", "ratio", Lower, "sld_suite time with MachineConfig::profile on / off - 1", "- (price of on)"),
    layer("obs.trace_on_cost_share", "ratio", Lower, "serve_hot time after `trace on` / off - 1", "- (price of on)"),
    layer("bench.trace_overhead_share", "ratio", Lower, "time per operation in the traced round / untraced - 1", "- (cost of the benchmark's own spans)"),
    layer("bench.round_spread", "ratio", Lower, "interquartile range / median of ops_per_s across rounds", "the noise floor every later claim is read against"),
    layer("bench.span_coverage", "ratio", Higher, "share of operation time the layers' self times account for (must be at least 0.95)", "-"),
    layer("bench.hung_rounds", "count", Lower, "rounds that made no progress for their time limit, were killed and were run again (must be 0; see the README's known defect)", "-"),
    layer("bench.failed_share", "ratio", Lower, "operations that errored, were refused or answered differently from the reference / attempted (must be 0)", "-"),
];

pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 10;

/// The directory the benchmark lives in, relative to the repository root.
pub const DIRECTORY: &str = "benchmark";

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let quoted: Vec<String> = command.iter().map(|c| json_string(c)).collect();
    let _ = writeln!(out, "  \"command\": [{}],", quoted.join(", "));
    let _ = writeln!(out, "  \"paths\": [{}],", json_string(DIRECTORY));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_string(w.name),
            json_string(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.name()),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.name())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The metric catalogue as the README's tables.
pub fn markdown() -> String {
    let mut out =
        String::from("| metric | unit | better | bound | what |\n|---|---|---|---|---|\n");
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {:.0} % | {} |",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0,
            m.what
        );
    }
    out.push_str("\n| layer metric | unit | what | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            m.name, m.unit, m.what, m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn well_formed_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_catalogue_meets_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(well_formed_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in &END_TO_END {
            assert!(
                well_formed_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in &PER_LAYER {
            assert!(well_formed_unit(m.unit), "{}", m.name);
        }
        let setup = end_to_end("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(
            (2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128 && END_TO_END.len() <= 16
        );
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} long",
                w.name,
                w.why.len()
            );
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(
            committed == benchmark_json(),
            "BENCHMARK.json is stale: regenerate with `benchmark --benchmark-json`"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 1.0), 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
