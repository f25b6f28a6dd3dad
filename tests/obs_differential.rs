//! Differential suite for the observability layer (`granlog-obs`).
//!
//! The hard requirement on PR 10 is *zero-cost-when-off*: enabling the
//! crates' tracing hooks and the engine's port profiler must never change
//! what the system computes. This suite enforces that three ways:
//!
//! 1. **Bit-identity across the benchmark suite** — every one of the
//!    fifteen benchmark programs (the paper's twelve, `nrev`, and the two
//!    sequential controls) is run with profiling off, off-by-default, and
//!    on; operation counters, peak-usage stats, success flags, and rendered
//!    bindings must be identical across all three, with a warn-only 5%
//!    wall-clock budget on the profiled run.
//! 2. **Port-model invariants** — with profiling on, every predicate's
//!    ports satisfy `calls + redos == exits + fails` (each completed entry
//!    leaves through exactly one of exit/fail), deterministic programs show
//!    `redos == 0`, and per-predicate cell-work totals never exceed the
//!    machine's global counters. The profiled work ordering is also
//!    cross-checked against the analysis' predicted cost ordering.
//! 3. **Trace equivalence** — the bottom-up engine's traced evaluation
//!    produces the same fixpoint and stats as the untraced one, with one
//!    `datalog_round` event per round; a disabled tracer records nothing.
//!
//! Finally the serve acceptance bar: after an 8-client stress, the
//! server's registry exposes a latency histogram whose count equals the
//! number of queries served, and the `metrics` exposition is well-formed.

mod support;

use granlog_benchmarks::{nrev_benchmark, Benchmark};
use granlog_engine::{Machine, MachineConfig, PredProfile, QueryOutcome};
use granlog_ir::parser::parse_program;
use granlog_ir::PredId;
use granlog_obs::Tracer;
use granlog_serve::{ServeClient, ServeConfig, Server};
use std::time::{Duration, Instant};
use support::fifteen_benchmarks;

/// One full run of a benchmark at test size under `config`.
fn run(
    bench: &Benchmark,
    config: MachineConfig,
) -> (QueryOutcome, Option<Vec<(PredId, PredProfile)>>, Duration) {
    let program = bench.program().expect("benchmark programs parse");
    let mut machine = Machine::with_config(&program, config);
    let start = Instant::now();
    let outcome = machine
        .run_query(&bench.query(bench.test_size))
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    let elapsed = start.elapsed();
    (outcome, machine.profile(), elapsed)
}

fn rendered_bindings(outcome: &QueryOutcome) -> Vec<(String, String)> {
    outcome
        .bindings
        .iter()
        .map(|(name, term)| (name.to_string(), term.to_string()))
        .collect()
}

/// Profiling off (explicitly and by default) and on: all fifteen programs
/// produce bit-identical counters, stats, and answers. Wall clock of the
/// profiled run is compared against the unprofiled one with a warn-only
/// 5% budget (timing on shared CI is too noisy to hard-fail).
#[test]
fn profiler_is_invisible_to_execution_across_all_benchmarks() {
    let mut base_total = Duration::ZERO;
    let mut profiled_total = Duration::ZERO;
    for bench in fifteen_benchmarks() {
        let (base, base_profile, base_time) = run(&bench, MachineConfig::default());
        let (off, off_profile, _) = run(
            &bench,
            MachineConfig {
                profile: false,
                ..MachineConfig::default()
            },
        );
        let (on, on_profile, on_time) = run(
            &bench,
            MachineConfig {
                profile: true,
                ..MachineConfig::default()
            },
        );
        assert!(
            base_profile.is_none(),
            "{}: default config must not profile",
            bench.name
        );
        assert!(
            off_profile.is_none(),
            "{}: profile=false must not profile",
            bench.name
        );
        assert!(
            on_profile.is_some(),
            "{}: profile=true must report rows",
            bench.name
        );

        for (label, other) in [("profile=false", &off), ("profile=true", &on)] {
            assert_eq!(
                base.counters, other.counters,
                "{}: {label} changed operation counters",
                bench.name
            );
            assert_eq!(
                base.succeeded, other.succeeded,
                "{}: {label} changed the success flag",
                bench.name
            );
            assert_eq!(
                rendered_bindings(&base),
                rendered_bindings(other),
                "{}: {label} changed the answer",
                bench.name
            );
            assert_eq!(
                base.counters.work().to_bits(),
                other.counters.work().to_bits(),
                "{}: {label} changed the work total",
                bench.name
            );
        }
        base_total += base_time;
        profiled_total += on_time;
    }
    // Warn-only: the profiled suite should stay within 5% of the plain one.
    let budget = base_total.mul_f64(1.05);
    if profiled_total > budget {
        eprintln!(
            "warning: profiled suite took {profiled_total:?} vs {base_total:?} unprofiled \
             (>5% overhead; warn-only, timing noise is expected on shared runners)"
        );
    }
}

/// With profiling on, the four-port box model balances for every predicate,
/// deterministic programs never redo, and cell-work attribution never
/// exceeds the machine's global counters.
#[test]
fn profiler_port_counters_balance() {
    for bench in fifteen_benchmarks() {
        let (outcome, profile, _) = run(
            &bench,
            MachineConfig {
                profile: true,
                ..MachineConfig::default()
            },
        );
        let rows = profile.expect("profiling was enabled");
        assert!(
            !rows.is_empty(),
            "{}: a successful benchmark run must enter at least one predicate",
            bench.name
        );
        let mut head_attempts = 0u64;
        let mut unifications = 0u64;
        for (pred, ports) in &rows {
            assert_eq!(
                ports.calls + ports.redos,
                ports.exits + ports.fails,
                "{}: {pred} entered {} times but left {} times",
                bench.name,
                ports.calls + ports.redos,
                ports.exits + ports.fails
            );
            assert!(
                ports.calls > 0,
                "{}: {pred} redone before being called",
                bench.name
            );
            head_attempts += ports.head_attempts;
            unifications += ports.unifications;
        }
        // Per-predicate attribution is a partition of work done inside
        // clause selection; the global counters also cover work outside it
        // (query-goal setup, builtins), so attribution is bounded above.
        assert!(
            head_attempts <= outcome.counters.head_attempts,
            "{}: attributed {head_attempts} head attempts, machine counted {}",
            bench.name,
            outcome.counters.head_attempts
        );
        assert!(
            unifications <= outcome.counters.unifications,
            "{}: attributed {unifications} unification steps, machine counted {}",
            bench.name,
            outcome.counters.unifications
        );
        // Rows arrive sorted by descending entries (the CLI table order).
        for pair in rows.windows(2) {
            assert!(
                pair[0].1.entries() >= pair[1].1.entries(),
                "{}: profile rows out of order",
                bench.name
            );
        }
    }
}

/// `nrev` is deterministic: no user predicate is ever backtracked into, so
/// every port row shows `redos == 0` and `calls == exits + fails`; and the
/// observed work ordering matches the analysis' predicted cost ordering
/// (`nrev` is quadratic, `append` linear, so `nrev`'s entries dominate the
/// base case while `append` dominates cell work per call).
#[test]
fn deterministic_program_ports_match_predicted_cost_ordering() {
    let bench = nrev_benchmark();
    let (_, profile, _) = run(
        &bench,
        MachineConfig {
            profile: true,
            ..MachineConfig::default()
        },
    );
    let rows = profile.expect("profiling was enabled");
    let find = |name: &str| {
        rows.iter()
            .find(|(pred, _)| pred.to_string().starts_with(name))
            .unwrap_or_else(|| panic!("no profile row for {name}"))
            .1
    };
    let nrev = find("nrev/");
    let append = find("append/");
    for (label, ports) in [("nrev/2", nrev), ("append/3", append)] {
        assert_eq!(ports.redos, 0, "{label}: deterministic programs never redo");
        assert_eq!(ports.fails, 0, "{label}: nrev(n) never fails a goal");
        assert_eq!(ports.calls, ports.exits, "{label}: call must equal exit");
    }
    // n elements: nrev recurses n+1 times; append is called once per
    // element with list arguments of growing length, so its entries and
    // unification work dominate nrev's — exactly the ordering the analysis
    // predicts (cost(nrev) = O(n^2) driven by the O(n) append per level).
    let n = bench.test_size as u64;
    assert_eq!(nrev.calls, n + 1, "nrev([x1..xn]) makes n+1 calls");
    assert!(
        append.calls > nrev.calls,
        "append ({} calls) must dominate nrev ({} calls) on a quadratic run",
        append.calls,
        nrev.calls
    );
    assert!(
        append.unifications > nrev.unifications,
        "append's list traversal carries the quadratic unification work"
    );
}

/// The bottom-up engine's traced evaluation is equivalent to the untraced
/// one: same fixpoint stats, one `datalog_round` event per round, and a
/// disabled tracer records nothing at all.
#[test]
fn datalog_traced_evaluation_matches_untraced() {
    let src = "\
        edge(a, b). edge(b, c). edge(c, d). edge(d, e). edge(b, e).\n\
        path(X, Y) :- edge(X, Y).\n\
        path(X, Z) :- path(X, Y), edge(Y, Z).\n";
    let program = parse_program(src).expect("program parses");
    let compiled =
        granlog_datalog::CompiledDatalog::compile(&program).expect("program is in the subset");

    let plain = compiled.evaluate().expect("fixpoint evaluates");
    let tracer = Tracer::new(1024);
    let traced = compiled
        .evaluate_traced(Some(&tracer))
        .expect("fixpoint evaluates");
    assert_eq!(
        plain.stats(),
        traced.stats(),
        "tracing changed the fixpoint"
    );

    let jsonl = tracer.jsonl(false);
    let rounds = jsonl
        .lines()
        .filter(|l| l.contains("\"kind\":\"datalog_round\""))
        .count() as u64;
    assert_eq!(
        rounds,
        traced.stats().rounds,
        "one datalog_round event per fixpoint round"
    );
    assert!(
        jsonl.contains("\"kind\":\"datalog_stratum\""),
        "stratum boundaries must be traced"
    );

    let off = Tracer::disabled(1024);
    let silent = compiled
        .evaluate_traced(Some(&off))
        .expect("fixpoint evaluates");
    assert_eq!(
        plain.stats(),
        silent.stats(),
        "disabled tracer changed the fixpoint"
    );
    assert!(off.is_empty(), "a disabled tracer must record nothing");
}

/// The serve acceptance bar: after an 8-client stress the
/// registry's latency histogram has one observation per query served, the
/// exposition is well-formed Prometheus text, and the trace ring captures
/// query events once enabled.
#[test]
fn serve_metrics_populated_by_eight_client_stress() {
    let bench = nrev_benchmark();
    let query = bench.query(bench.test_size);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .expect("server must bind an ephemeral port");
    let addr = server.addr();

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let query = query.as_str();
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                client.load(bench.source).expect("io").expect("nrev parses");
                for _ in 0..ROUNDS {
                    let reply = client.query(query).expect("io").expect("nrev succeeds");
                    assert!(reply.succeeded);
                }
                client.quit().expect("clean quit");
            });
        }
    });

    let expected = (CLIENTS * ROUNDS) as u64;
    let obs = server.obs();
    let latency = obs
        .registry
        .histogram_snapshot("granlog_query_latency_ms")
        .expect("serve registers its latency histogram at boot");
    assert_eq!(
        latency.count, expected,
        "one latency observation per query served"
    );
    assert!(latency.sum >= 0.0 && latency.count > 0);
    assert_eq!(
        obs.registry.counter_value("granlog_queries_total"),
        Some(expected)
    );
    assert_eq!(
        obs.registry.counter_value("granlog_query_errors_total"),
        Some(0)
    );

    // Attribution: parse, lease, solve and render are consecutive laps of
    // one clock inside `Session::query`, and the latency is their sum, so
    // the parts equal the whole up to float rounding; the reply's socket
    // write is the fifth stage, outside that histogram, observed once per
    // answer.
    let stage = |name: &str| {
        let h = obs
            .registry
            .histogram_snapshot(&format!("granlog_query_{name}_ms"))
            .expect("serve registers its stage histograms at boot");
        assert_eq!(h.count, expected, "one {name} observation per answer");
        h.sum
    };
    let staged: f64 = ["parse", "lease", "solve", "render"]
        .into_iter()
        .map(stage)
        .sum();
    assert!(
        (staged - latency.sum).abs() <= 1e-9 * latency.sum,
        "stages sum to {staged} ms of {} ms served",
        latency.sum
    );
    assert!(stage("write") > 0.0);
    // Greeting, load, three answers and the farewell per client: six
    // replies, each of which left in one write.
    let replies = (CLIENTS * (ROUNDS + 3)) as u64;
    for counter in ["granlog_reply_frames_total", "granlog_reply_writes_total"] {
        assert_eq!(obs.registry.counter_value(counter), Some(replies));
    }

    // The exposition itself: well-formed Prometheus text over the client
    // protocol, with the histogram's cumulative buckets summing to count.
    let mut client = ServeClient::connect(addr).expect("connect");
    let body = client.metrics().expect("metrics exposition");
    assert!(body.contains("# TYPE granlog_query_latency_ms histogram"));
    assert!(body.contains(&format!("granlog_query_latency_ms_count {expected}")));
    assert!(body.contains(&format!("granlog_queries_total {expected}")));
    assert!(
        body.lines().all(|l| l.starts_with('#') || l.contains(' ')),
        "every non-comment line is `name value`"
    );

    // Trace ring: off by default, captures query begin/end once enabled.
    let dump = client.trace_dump().expect("trace dump");
    assert!(dump.is_empty(), "tracing starts disabled");
    client.trace(true).expect("trace on");
    client.load(bench.source).expect("io").expect("nrev parses");
    client.query(&query).expect("io").expect("nrev succeeds");
    let dump = client.trace_dump().expect("trace dump");
    assert!(dump.contains("\"kind\":\"query_begin\""));
    assert!(dump.contains("\"kind\":\"query_end\""));
    client.quit().expect("clean quit");
}
