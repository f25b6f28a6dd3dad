//! Emits `BENCH_engine.json`: per-program wall time and operation counters for
//! the 15 benchmark programs (the 12 Table-1 entries, the Appendix's `nrev`,
//! and the two control-construct extras `cut_search`/`ite_dispatch`), executed
//! raw (as annotated, no granularity-control preparation) on the resolution
//! engine.
//!
//! ```text
//! cargo run --release -p granlog-bench --bin bench_snapshot -- \
//!     [--small] [--runs N] [--output PATH] [--baseline PATH]
//! ```
//!
//! With `--baseline PATH`, a previously emitted snapshot is read back; its
//! wall times become the `baseline_wall_ms` of the new snapshot (with a
//! derived `speedup` factor), and its operation counters are cross-checked —
//! any divergence is reported loudly and fails the run, because an engine
//! optimisation must not change the operation semantics the experiments
//! count. When built with the default `alloc-count` feature, each row also
//! carries `allocs` / `allocs_per_resolution` for one steady-state query on
//! a warm machine, and allocation regressions against the baseline are
//! reported (without failing: alloc counts legitimately move with engine
//! internals; the trajectory is what the snapshot tracks).
//!
//! The snapshot also carries a `datalog` section: each attack-graph
//! topology evaluated by the bottom-up engine, with fixpoint wall time,
//! derived-fact count and round count. Against a baseline, a change in
//! facts or rounds is fatal (the fixpoint's semantics moved); wall-time
//! regressions are warn-only.

use granlog_benchmarks::{
    all_benchmarks, control_benchmarks, datalog_benchmarks, nrev_benchmark, Benchmark,
    DatalogBenchmark,
};
use granlog_datalog::CompiledDatalog;
use granlog_engine::{Counters, Machine};
use granlog_par::{Granularity, ParConfig, ParExecutor};
use std::fmt::Write as _;
use std::time::Instant;

/// Thread count of the parallel columns.
const PAR_THREADS: usize = 4;

struct Row {
    name: String,
    label: String,
    wall_ms: f64,
    counters: Counters,
    work: f64,
    /// Steady-state allocator calls for one query on a warm machine, when
    /// the `alloc-count` feature is on.
    allocs: Option<u64>,
    /// Wall time of the real multi-threaded executor at [`PAR_THREADS`]
    /// threads with granularity control on, and the tasks it spawned.
    par_wall_ms: f64,
    par_spawned: usize,
}

struct BaselineRow {
    name: String,
    wall_ms: f64,
    counters: Counters,
    allocs: Option<u64>,
    par_speedup: Option<f64>,
}

/// One bottom-up fixpoint measurement: an attack-graph topology evaluated
/// by the semi-naive engine.
struct DatalogRow {
    name: String,
    label: String,
    wall_ms: f64,
    derived_facts: u64,
    rounds: u64,
    edb_facts: u64,
    join_batches: u64,
    tuples_tried: u64,
}

struct DatalogBaselineRow {
    name: String,
    wall_ms: f64,
    derived_facts: u64,
    rounds: u64,
}

/// Each timed sample batches enough query repetitions to run at least this
/// long, so sub-millisecond programs are not at the mercy of timer and
/// scheduler jitter.
const MIN_SAMPLE_MS: f64 = 2.0;

fn measure(bench: &Benchmark, size: usize, runs: usize) -> Row {
    let program = bench
        .program()
        .unwrap_or_else(|e| panic!("{} does not parse: {e}", bench.name));
    // Parse the query once, outside the timed region: the snapshot measures
    // engine execution, not query parsing.
    let (goal, var_names) = granlog_ir::parser::parse_term(&bench.query(size))
        .unwrap_or_else(|e| panic!("{} query does not parse: {e}", bench.name));
    let mut machine = Machine::new(&program);
    // Warmup run: checks the query succeeds, captures counters, and sizes the
    // per-sample repetition count.
    let warm_start = Instant::now();
    let out = machine
        .run_goal(&goal, &var_names)
        .unwrap_or_else(|e| panic!("{} failed: {e}", bench.name));
    let warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
    assert!(out.succeeded, "{} query did not succeed", bench.name);
    let reps = ((MIN_SAMPLE_MS / warm_ms.max(1e-6)).ceil() as usize).clamp(1, 10_000);
    // Steady-state allocation count: one more query on the warmed machine,
    // outside the timing loop (the counter reads are two relaxed loads).
    let allocs = {
        let before = granlog_bench::allocations_now();
        let out = machine
            .run_goal(&goal, &var_names)
            .unwrap_or_else(|e| panic!("{} failed: {e}", bench.name));
        std::hint::black_box(out.succeeded);
        granlog_bench::allocations_now()
            .zip(before)
            .map(|(a, b)| a - b)
    };
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        for _ in 0..reps {
            let out = machine
                .run_goal(&goal, &var_names)
                .unwrap_or_else(|e| panic!("{} failed: {e}", bench.name));
            std::hint::black_box(out.succeeded);
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3 / reps as f64;
        if elapsed < best {
            best = elapsed;
        }
    }
    // Parallel columns: the same query on the real work-sharing executor at
    // PAR_THREADS threads with granularity control on (runtime spawn
    // guards). Answers are checked, wall time is best-of-runs.
    let mut executor = ParExecutor::new(
        &program,
        ParConfig {
            threads: PAR_THREADS,
            granularity: Granularity::On,
            ..ParConfig::default()
        },
    );
    let warm_start = Instant::now();
    let par_out = executor
        .run_goal(&goal, &var_names)
        .unwrap_or_else(|e| panic!("{} parallel run failed: {e}", bench.name));
    let par_warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
    assert!(
        par_out.succeeded,
        "{} parallel query did not succeed",
        bench.name
    );
    let par_spawned = par_out.spawned_tasks;
    let par_reps = ((MIN_SAMPLE_MS / par_warm_ms.max(1e-6)).ceil() as usize).clamp(1, 10_000);
    let mut par_best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        for _ in 0..par_reps {
            let out = executor
                .run_goal(&goal, &var_names)
                .unwrap_or_else(|e| panic!("{} parallel run failed: {e}", bench.name));
            std::hint::black_box(out.succeeded);
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3 / par_reps as f64;
        if elapsed < par_best {
            par_best = elapsed;
        }
    }
    Row {
        name: bench.name.to_owned(),
        label: format!("{}({size})", bench.name),
        wall_ms: best,
        counters: out.counters,
        work: out.work,
        allocs,
        par_wall_ms: par_best,
        par_spawned,
    }
}

fn measure_datalog(bench: &DatalogBenchmark, size: usize, runs: usize) -> DatalogRow {
    let source = bench.source(size);
    let program = granlog_ir::parser::parse_program(&source)
        .unwrap_or_else(|e| panic!("{} does not parse: {e}", bench.name));
    // Compile once outside the timed region: the snapshot measures the
    // fixpoint, not subset validation and join planning.
    let compiled = CompiledDatalog::compile(&program)
        .unwrap_or_else(|e| panic!("{} is not Datalog: {e}", bench.name));
    let warm_start = Instant::now();
    let db = compiled
        .evaluate()
        .unwrap_or_else(|e| panic!("{} fixpoint failed: {e}", bench.name));
    let warm_ms = warm_start.elapsed().as_secs_f64() * 1e3;
    let stats = *db.stats();
    let reps = ((MIN_SAMPLE_MS / warm_ms.max(1e-6)).ceil() as usize).clamp(1, 1_000);
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        for _ in 0..reps {
            let db = compiled
                .evaluate()
                .unwrap_or_else(|e| panic!("{} fixpoint failed: {e}", bench.name));
            std::hint::black_box(db.total_facts());
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3 / reps as f64;
        if elapsed < best {
            best = elapsed;
        }
    }
    DatalogRow {
        name: bench.name.to_owned(),
        label: format!("{}({size})", bench.name),
        wall_ms: best,
        derived_facts: stats.derived_facts,
        rounds: stats.rounds,
        edb_facts: stats.edb_facts,
        join_batches: stats.join_batches,
        tuples_tried: stats.tuples_tried,
    }
}

fn to_json(
    rows: &[Row],
    datalog: &[DatalogRow],
    runs: usize,
    small: bool,
    baseline: &[BaselineRow],
    datalog_baseline: &[DatalogBaselineRow],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"granlog/bench-engine/v1\",");
    let _ = writeln!(
        out,
        "  \"sizes\": \"{}\",",
        if small { "small" } else { "default" }
    );
    let _ = writeln!(out, "  \"runs\": {runs},");
    let _ = writeln!(
        out,
        "  \"par_threads\": {PAR_THREADS}, \"host_threads\": {},",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let _ = writeln!(out, "  \"programs\": [");
    for (i, row) in rows.iter().enumerate() {
        let c = &row.counters;
        let mut line = format!(
            "    {{\"name\": \"{}\", \"label\": \"{}\", \"wall_ms\": {:.3}, \
             \"resolutions\": {}, \"head_attempts\": {}, \"unifications\": {}, \
             \"builtins\": {}, \"grain_tests\": {}, \"grain_test_elements\": {}, \
             \"work\": {:.1}",
            row.name,
            row.label,
            row.wall_ms,
            c.resolutions,
            c.head_attempts,
            c.unifications,
            c.builtins,
            c.grain_tests,
            c.grain_test_elements,
            row.work,
        );
        if let Some(allocs) = row.allocs {
            let _ = write!(
                line,
                ", \"allocs\": {}, \"allocs_per_resolution\": {:.3}",
                allocs,
                allocs as f64 / (c.resolutions.max(1)) as f64
            );
        }
        let _ = write!(
            line,
            ", \"par_wall_ms\": {:.3}, \"par_speedup\": {:.2}, \"par_spawned\": {}",
            row.par_wall_ms,
            row.wall_ms / row.par_wall_ms.max(1e-9),
            row.par_spawned
        );
        if let Some(base) = baseline.iter().find(|b| b.name == row.name) {
            let _ = write!(
                line,
                ", \"baseline_wall_ms\": {:.3}, \"speedup\": {:.2}, \"counters_match\": {}",
                base.wall_ms,
                base.wall_ms / row.wall_ms.max(1e-9),
                base.counters == *c
            );
            if let (Some(now), Some(before)) = (row.allocs, base.allocs) {
                let _ = write!(line, ", \"baseline_allocs\": {before}");
                let _ = write!(
                    line,
                    ", \"alloc_ratio\": {:.2}",
                    now as f64 / before.max(1) as f64
                );
            }
        }
        let _ = writeln!(out, "{line}}}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"datalog\": [");
    for (i, row) in datalog.iter().enumerate() {
        let mut line = format!(
            "    {{\"name\": \"{}\", \"label\": \"{}\", \"wall_ms\": {:.3}, \
             \"derived_facts\": {}, \"rounds\": {}, \"edb_facts\": {}, \"join_batches\": {}, \
             \"tuples_tried\": {}",
            row.name,
            row.label,
            row.wall_ms,
            row.derived_facts,
            row.rounds,
            row.edb_facts,
            row.join_batches,
            row.tuples_tried,
        );
        if let Some(base) = datalog_baseline.iter().find(|b| b.name == row.name) {
            let _ = write!(
                line,
                ", \"baseline_wall_ms\": {:.3}, \"speedup\": {:.2}, \"facts_match\": {}",
                base.wall_ms,
                base.wall_ms / row.wall_ms.max(1e-9),
                base.derived_facts == row.derived_facts && base.rounds == row.rounds
            );
        }
        let _ = writeln!(
            out,
            "{line}}}{}",
            if i + 1 < datalog.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

/// Extracts `"key": <number>` from a snapshot line (the emitter writes one
/// program object per line, so a full JSON parser is not needed).
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_owned())
}

fn read_baseline(path: &str) -> Vec<BaselineRow> {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("warning: baseline {path} not readable; emitting without baseline");
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let name = field_str(line, "name")?;
            let wall_ms = field_num(line, "wall_ms")?;
            let counters = Counters {
                resolutions: field_num(line, "resolutions")? as u64,
                head_attempts: field_num(line, "head_attempts")? as u64,
                unifications: field_num(line, "unifications")? as u64,
                builtins: field_num(line, "builtins")? as u64,
                grain_tests: field_num(line, "grain_tests")? as u64,
                grain_test_elements: field_num(line, "grain_test_elements")? as u64,
            };
            // Older baselines predate allocation tracking and the parallel
            // columns; absent = unknown.
            let allocs = field_num(line, "allocs").map(|a| a as u64);
            let par_speedup = field_num(line, "par_speedup");
            Some(BaselineRow {
                name,
                wall_ms,
                counters,
                allocs,
                par_speedup,
            })
        })
        .collect()
}

/// Reads the `datalog` section rows back from a previous snapshot. They
/// are distinguishable line-by-line: only datalog rows carry
/// `derived_facts` (and SLD rows carry `resolutions`, which
/// [`read_baseline`] keys on), so both readers share one file.
fn read_datalog_baseline(path: &str) -> Vec<DatalogBaselineRow> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            Some(DatalogBaselineRow {
                name: field_str(line, "name")?,
                wall_ms: field_num(line, "wall_ms")?,
                derived_facts: field_num(line, "derived_facts")? as u64,
                rounds: field_num(line, "rounds")? as u64,
            })
        })
        .collect()
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let runs: usize = arg_value(&args, "--runs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let output = arg_value(&args, "--output").unwrap_or_else(|| "BENCH_engine.json".to_owned());
    let baseline_path = arg_value(&args, "--baseline");
    let baseline = baseline_path
        .as_deref()
        .map(read_baseline)
        .unwrap_or_default();
    let datalog_baseline = baseline_path
        .as_deref()
        .map(read_datalog_baseline)
        .unwrap_or_default();

    let rows = granlog_engine::with_large_stack(move || {
        let mut rows = Vec::new();
        for bench in all_benchmarks()
            .into_iter()
            .chain(std::iter::once(nrev_benchmark()))
            .chain(control_benchmarks())
        {
            let size = if small {
                bench.test_size
            } else {
                bench.default_size
            };
            eprintln!("[bench_snapshot] {}({size})", bench.name);
            rows.push(measure(&bench, size, runs));
        }
        rows
    });

    // The bottom-up section: each attack-graph topology, fixpoint wall time
    // plus the derivation counters the differential oracle pins.
    let datalog_rows: Vec<DatalogRow> = datalog_benchmarks()
        .iter()
        .map(|bench| {
            let size = if small {
                bench.test_size
            } else {
                bench.default_size
            };
            eprintln!("[bench_snapshot] {}({size}) [bottom-up]", bench.name);
            measure_datalog(bench, size, runs)
        })
        .collect();

    let mut counters_diverged = false;
    for row in &rows {
        let alloc_note = match row.allocs {
            Some(a) => format!(
                ", {:.2} allocs/res",
                a as f64 / row.counters.resolutions.max(1) as f64
            ),
            None => String::new(),
        };
        if let Some(base) = baseline.iter().find(|b| b.name == row.name) {
            if base.counters != row.counters {
                counters_diverged = true;
                eprintln!(
                    "WARNING: {}: operation counters diverge from baseline \
                     (baseline resolutions {}, now {})",
                    row.name, base.counters.resolutions, row.counters.resolutions
                );
            }
            // Parallel-speedup drift is reported (not a failure): speedups
            // move with the host's core count and load, so the trajectory
            // lives in the snapshot diff. A large drop on the same host is
            // worth investigating.
            let par_speedup = row.wall_ms / row.par_wall_ms.max(1e-9);
            if let Some(before) = base.par_speedup {
                if before > 0.0 && par_speedup < before * 0.8 {
                    eprintln!(
                        "WARNING: {}: parallel speedup regression vs baseline \
                         ({before:.2}x -> {par_speedup:.2}x at {PAR_THREADS} threads)",
                        row.name
                    );
                }
            }
            // Allocation drift is reported (not a failure): alloc counts are
            // deterministic for a given build but legitimately change with
            // engine internals; the trajectory lives in the snapshot diff.
            if let (Some(now), Some(before)) = (row.allocs, base.allocs) {
                if now > before + before / 10 + 16 {
                    eprintln!(
                        "WARNING: {}: allocation regression vs baseline \
                         ({before} -> {now} allocs per steady-state query)",
                        row.name
                    );
                }
            }
            eprintln!(
                "[bench_snapshot] {:<20} {:>9.3} ms (baseline {:>9.3} ms, {:.2}x{alloc_note})",
                row.label,
                row.wall_ms,
                base.wall_ms,
                base.wall_ms / row.wall_ms.max(1e-9)
            );
        } else {
            eprintln!(
                "[bench_snapshot] {:<20} {:>9.3} ms{alloc_note}",
                row.label, row.wall_ms
            );
        }
        eprintln!(
            "[bench_snapshot] {:<20} {:>9.3} ms parallel ({:.2}x at {PAR_THREADS} threads, {} spawns)",
            "", row.par_wall_ms,
            row.wall_ms / row.par_wall_ms.max(1e-9),
            row.par_spawned
        );
    }

    for row in &datalog_rows {
        if let Some(base) = datalog_baseline.iter().find(|b| b.name == row.name) {
            if base.derived_facts != row.derived_facts || base.rounds != row.rounds {
                // Wall time may drift with the host; the fixpoint's derived
                // fact count and round count must not — a divergence means
                // the bottom-up engine's semantics changed.
                counters_diverged = true;
                eprintln!(
                    "WARNING: {}: fixpoint diverges from baseline \
                     (facts {} -> {}, rounds {} -> {})",
                    row.name, base.derived_facts, row.derived_facts, base.rounds, row.rounds
                );
            }
            if row.wall_ms > base.wall_ms * 1.5 + 1.0 {
                // Non-fatal: fixpoint wall time moves with the host.
                eprintln!(
                    "WARNING: {}: fixpoint wall regression vs baseline \
                     ({:.3} ms -> {:.3} ms)",
                    row.name, base.wall_ms, row.wall_ms
                );
            }
            eprintln!(
                "[bench_snapshot] {:<20} {:>9.3} ms bottom-up (baseline {:>9.3} ms; \
                 {} facts in {} rounds, {} tuples tried)",
                row.label,
                row.wall_ms,
                base.wall_ms,
                row.derived_facts,
                row.rounds,
                row.tuples_tried
            );
        } else {
            eprintln!(
                "[bench_snapshot] {:<20} {:>9.3} ms bottom-up \
                 ({} facts in {} rounds, {} tuples tried)",
                row.label, row.wall_ms, row.derived_facts, row.rounds, row.tuples_tried
            );
        }
    }

    let json = to_json(
        &rows,
        &datalog_rows,
        runs,
        small,
        &baseline,
        &datalog_baseline,
    );
    std::fs::write(&output, &json).unwrap_or_else(|e| panic!("cannot write {output}: {e}"));
    eprintln!("[bench_snapshot] wrote {output}");
    if counters_diverged {
        // Timing may drift with the host; operation counts must not. A
        // divergence means the engine's observable semantics changed.
        eprintln!("[bench_snapshot] FAILING: operation counters diverged from the baseline");
        std::process::exit(1);
    }
}
