//! `serve_hot`: the read path. An in-process `Server` on loopback, one
//! `ServeClient` session per CPU, the 15 programs already cached (capacity 64,
//! so every `load` hits), queries at the suite's test sizes. Engine work is a
//! minor part of a round trip here: wire, command and goal parsing, machine
//! lease, slicing and answer rendering own the rest. A serve-stage win shows
//! here and must not move `sld_suite`.

use super::{load_threads, problem, since_start};
use crate::cases::{self, SUITE, VARIANTS};
use crate::reference::{self, Expect};
use crate::rng::Rng;
use crate::round::{peak_rss_mb, Mode, RoundCtx, RoundReport};
use crate::spans::{self, Recorder, Span};
use granlog_engine::{Machine, MachineConfig};
use granlog_ir::parser::{parse_program, parse_term};
use granlog_serve::{
    CacheStats, ClientReply, PoolConfig, ServeClient, ServeConfig, Server, ServerHandle, Session,
    SessionBudget, TemplateCache,
};
use std::sync::{Arc, Barrier};

/// Queries a session sends after each `load`.
const QUERIES_PER_LOAD: usize = 8;

/// Cache capacity: at least the 15 programs, so nothing is ever evicted.
const CACHE_CAPACITY: usize = 64;

/// One pass = per client, each of the 15 programs loaded once and queried 8
/// times (135 operations), programs in seeded order.
pub const PASS_MS: f64 = 25.0;

/// Name of the server's own per-query latency histogram.
const SERVER_LATENCY: &str = "granlog_query_latency_ms";

/// What one client thread brings back.
struct ClientRun {
    report: RoundReport,
    spans: Vec<Span>,
    slices: u64,
    reply_bytes: u64,
    queries: u64,
}

/// `None` when a served reply matches its reference.
fn reply_problem(
    class: &str,
    expect: &Expect,
    reply: &std::io::Result<Result<ClientReply, String>>,
) -> Option<String> {
    match reply {
        Ok(Ok(r)) => problem(class, expect, r.succeeded, &r.bindings),
        Ok(Err(e)) => Some(format!("{class}: server refused: {e}")),
        Err(e) => Some(format!("{class}: i/o: {e}")),
    }
}

/// Bytes of the `bind` lines that carry an answer.
fn reply_bytes(reply: &ClientReply) -> u64 {
    reply
        .bindings
        .iter()
        .map(|(name, term)| (name.len() + term.len() + "bind  = \n".len()) as u64)
        .sum()
}

fn client_loop(
    ctx: &RoundCtx,
    id: usize,
    client: &mut ServeClient,
    goals: &[Vec<String>],
    expects: &[Vec<Expect>],
    barrier: &Barrier,
) -> ClientRun {
    let mut rec = Recorder::new(ctx.traced(), ctx.started, id as u32);
    let mut run = ClientRun {
        report: RoundReport::default(),
        spans: Vec::new(),
        slices: 0,
        reply_bytes: 0,
        queries: 0,
    };
    let mut order_rng = Rng::new(ctx.seed).fork(0x5e00 + id as u64);
    barrier.wait();
    for pass in 0..ctx.passes {
        let mut order: Vec<usize> = (0..SUITE.len()).collect();
        order_rng.shuffle(&mut order);
        // The variants a pass queries are a function of `pass` modulo their count.
        run.report.begin_pass((pass % VARIANTS) as u32);
        for class in order {
            let (loaded, _, ms) = rec.op(|rec| {
                (
                    rec.span("serve.client_load", || {
                        client.load(cases::source(SUITE[class]))
                    }),
                    "load_hit",
                )
            });
            run.report.sample("load_hit", ms);
            run.report.attempt(match loaded {
                Ok(Ok((_, _, true))) => None,
                Ok(Ok((_, _, false))) => {
                    Some(format!("{}: load missed a warm cache", SUITE[class]))
                }
                Ok(Err(e)) => Some(format!("{}: load refused: {e}", SUITE[class])),
                Err(e) => Some(format!("{}: load i/o: {e}", SUITE[class])),
            });
            for k in 0..QUERIES_PER_LOAD {
                let variant = (pass * QUERIES_PER_LOAD + k) % VARIANTS;
                let (reply, _, ms) = rec.op(|rec| {
                    (
                        rec.span("serve.client_query", || {
                            client.query(&goals[class][variant])
                        }),
                        SUITE[class],
                    )
                });
                run.report.sample(SUITE[class], ms);
                if let Ok(Ok(r)) = &reply {
                    run.slices += r.slices;
                    run.reply_bytes += reply_bytes(r);
                    run.queries += 1;
                }
                run.report.attempt(reply_problem(
                    SUITE[class],
                    &expects[class][variant],
                    &reply,
                ));
            }
        }
    }
    run.spans = rec.into_spans();
    run
}

pub fn start_server(store: Option<granlog_store::StoreConfig>) -> ServerHandle {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_capacity: CACHE_CAPACITY,
        store,
        ..ServeConfig::default()
    })
    .unwrap_or_else(|e| panic!("server does not start: {e}"))
}

/// Test-size goals of every suite program for this round.
pub fn served_goals(rng: &Rng) -> Vec<Vec<String>> {
    SUITE
        .iter()
        .map(|name| cases::goals(name, cases::test_size(name), rng))
        .collect()
}

pub fn served_expects(goals: &[Vec<String>]) -> Vec<Vec<Expect>> {
    SUITE
        .iter()
        .zip(goals)
        .map(|(name, texts)| texts.iter().map(|t| reference::expect(name, t)).collect())
        .collect()
}

/// What the cache and the connection limiter did during the timed section, as
/// layer metrics; a quarantined machine or a shed connection is a failure.
pub fn cache_layers(report: &mut RoundReport, before: &CacheStats, after: &CacheStats, shed: u64) {
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let quarantined = after.quarantined - before.quarantined;
    report.layer(
        "serve.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.layer(
        "serve.cache_evictions",
        (after.evictions - before.evictions) as f64,
    );
    report.layer("serve.quarantined", quarantined as f64);
    report.layer(
        "serve.pool_retired",
        (after.retired - before.retired) as f64,
    );
    report.layer("serve.shed", shed as f64);
    if quarantined != 0 || shed != 0 {
        report.attempt(Some(
            "the server quarantined a machine or shed a connection".to_string(),
        ));
    }
}

/// Mean of the observations a histogram took between two snapshots.
pub fn histogram_mean_between(
    before: &granlog_obs::HistogramSnapshot,
    after: &granlog_obs::HistogramSnapshot,
) -> f64 {
    (after.sum - before.sum) / (after.count - before.count).max(1) as f64
}

pub fn run(ctx: &RoundCtx) -> RoundReport {
    let mut report = RoundReport::default();
    let rng = Rng::new(ctx.seed);
    let threads = load_threads();

    // Set-up: boot, connect, load every program (the only misses of the
    // round), and let every session touch every class once so the machine
    // pools are as warm as they will be.
    let server = start_server(None);
    let goals = served_goals(&rng);
    let mut clients: Vec<ServeClient> = (0..threads)
        .map(|_| {
            ServeClient::connect(server.addr()).unwrap_or_else(|e| panic!("cannot connect: {e}"))
        })
        .collect();
    let mut warm = Vec::new();
    for client in &mut clients {
        for (class, name) in SUITE.iter().enumerate() {
            let _ = client.load(cases::source(name));
            for (variant, goal) in goals[class].iter().enumerate() {
                warm.push((class, variant, client.query(goal)));
            }
        }
    }
    report.setup_s = since_start(ctx);

    let expects = served_expects(&goals);
    for (class, variant, reply) in &warm {
        if let Some(why) = reply_problem(SUITE[*class], &expects[*class][*variant], reply) {
            report.attempt(Some(format!("warm-up {why}")));
        }
    }
    drop(warm);
    if ctx.mode == Mode::TraceOn {
        clients[0]
            .trace(true)
            .unwrap_or_else(|e| panic!("trace on: {e}"));
    }
    let cache_before = server.cache().stats();
    let latency = |server: &ServerHandle| {
        server
            .obs()
            .registry
            .histogram_snapshot(SERVER_LATENCY)
            .expect("serve registers its latency histogram")
    };
    let latency_before = latency(&server);

    // The timed section: every session runs its schedule, closed loop.
    let barrier = Barrier::new(threads);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(id, client)| {
                let (goals, expects, barrier) = (&goals, &expects, &barrier);
                scope.spawn(move || client_loop(ctx, id, client, goals, expects, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let cache_after = server.cache().stats();
    let latency_after = latency(&server);
    if ctx.mode == Mode::TraceOn {
        let _ = clients[0].trace(false);
    }
    let shed = server.shed_connections();
    let (mut slices, mut bytes, mut queries) = (0u64, 0u64, 0u64);
    let mut thread_spans = Vec::new();
    for run in runs {
        slices += run.slices;
        bytes += run.reply_bytes;
        queries += run.queries;
        thread_spans.push(run.spans);
        report.absorb(run.report);
    }
    for client in clients {
        let _ = client.quit();
    }
    server.shutdown();

    cache_layers(&mut report, &cache_before, &cache_after, shed);
    report.layer(
        "serve.slices_per_query",
        slices as f64 / queries.max(1) as f64,
    );
    report.layer(
        "serve.reply_bytes_per_query",
        bytes as f64 / queries.max(1) as f64,
    );
    if ctx.traced() {
        let mut rec = Recorder::new(true, ctx.started, threads as u32);
        replay(ctx, &mut rec, &goals, &expects, &mut report);
        thread_spans.push(rec.into_spans());
        let all = spans::merge(thread_spans);
        let server_ms = histogram_mean_between(&latency_before, &latency_after);
        let client_ms = spans::mean_ms(&all, "serve.client_query");
        report.layer("serve.server_query_ms", server_ms);
        report.layer("serve.wire_ms", client_ms - server_ms);
        let session_ms = spans::mean_ms(&all, "serve.session_query");
        let (parse_ms, engine_ms) = (
            spans::mean_ms(&all, "ir.parse_term"),
            spans::mean_ms(&all, "engine.run_goal"),
        );
        report.layer("serve.session_self_ms", session_ms - parse_ms - engine_ms);
        report.trace(
            &all,
            &[
                "serve.client_query",
                "serve.client_load",
                "serve.session_query",
                "serve.session_load",
                "serve.cache_load_hit",
                "ir.parse_term",
                "engine.run_goal",
            ],
            &ctx.out_dir.join("trace-serve_hot.jsonl"),
        );
        // The spans say only "client"; the replay splits a query's round trip.
        report.shares = vec![
            ("engine".to_string(), engine_ms / client_ms),
            ("ir".to_string(), parse_ms / client_ms),
            (
                "serve".to_string(),
                (client_ms - engine_ms - parse_ms) / client_ms,
            ),
        ];
    }
    report.rss_mb = peak_rss_mb();
    report
}

/// Replays session 0's schedule in process: the same loads and queries
/// through a `Session` over a fresh `TemplateCache`, and beside each query the
/// two calls the session makes that this crate can also make — `parse_term`
/// on the goal text and `Machine::run_goal` on a warm machine — so served time
/// splits into `ir`, `engine` and the serve layer's own (lease, slicing,
/// rendering). Replies are checked like served ones.
fn replay(
    ctx: &RoundCtx,
    rec: &mut Recorder,
    goals: &[Vec<String>],
    expects: &[Vec<Expect>],
    report: &mut RoundReport,
) {
    let cache = Arc::new(TemplateCache::new(
        CACHE_CAPACITY,
        MachineConfig::default(),
        PoolConfig::default(),
    ));
    let direct = TemplateCache::new(
        CACHE_CAPACITY,
        MachineConfig::default(),
        PoolConfig::default(),
    );
    let mut session = Session::new(Arc::clone(&cache), SessionBudget::default());
    let programs: Vec<_> = SUITE
        .iter()
        .map(|name| parse_program(cases::source(name)).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect();
    let mut machines: Vec<Machine> = programs.iter().map(Machine::new).collect();
    for (class, name) in SUITE.iter().enumerate() {
        let _ = session.load(cases::source(name));
        let _ = direct.load(cases::source(name));
        for goal in &goals[class] {
            let _ = session.query(goal);
            let (term, vars) = parse_term(goal).expect("goal parses");
            let _ = machines[class].run_goal(&term, &vars);
        }
    }
    let mut order_rng = Rng::new(ctx.seed).fork(0x5e00);
    for pass in 0..ctx.passes {
        let mut order: Vec<usize> = (0..SUITE.len()).collect();
        order_rng.shuffle(&mut order);
        for class in order {
            let source = cases::source(SUITE[class]);
            let loaded = rec.span("serve.session_load", || session.load(source));
            let hit = rec
                .span("serve.cache_load_hit", || direct.load(source))
                .map(|(_, hit)| hit);
            if !matches!((loaded, hit), (Ok(reply), Ok(true)) if reply.cache_hit) {
                report.attempt(Some(format!(
                    "replay {}: load missed a warm cache",
                    SUITE[class]
                )));
            }
            for k in 0..QUERIES_PER_LOAD {
                let variant = (pass * QUERIES_PER_LOAD + k) % VARIANTS;
                let goal = &goals[class][variant];
                let reply = rec.span("serve.session_query", || session.query(goal));
                let (term, vars) = rec
                    .span("ir.parse_term", || parse_term(goal))
                    .expect("goal parses");
                let machine = &mut machines[class];
                let _ = rec.span("engine.run_goal", || machine.run_goal(&term, &vars));
                let why = match &reply {
                    Ok(r) => problem(
                        SUITE[class],
                        &expects[class][variant],
                        r.succeeded,
                        &r.bindings,
                    ),
                    Err(e) => Some(format!("{}: {e}", SUITE[class])),
                };
                if let Some(why) = why {
                    report.attempt(Some(format!("replay {why}")));
                }
            }
        }
    }
}
