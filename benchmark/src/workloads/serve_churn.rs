//! `serve_churn`: the serve layer used the other way. A durable server
//! (`FsyncPolicy::Interval(100 ms)`, so the fsync count is bounded by time and
//! not by the operation rate; a WAL limit small enough to compact several
//! times a round), a working set of 256 program texts against a cache of 64,
//! one `load` per three queries. Parse, normalize, template compile, insert
//! and evict, WAL append, compaction, and queries on cold machine pools: a
//! query-path gain bought by doing more at `load` shows here as a loss.
//! Set-up journals the working set and reboots, so replay is paid in
//! `setup_s`.

use super::serve_hot::{
    cache_layers, histogram_mean_between, served_expects, served_goals, start_server,
};
use super::{load_threads, problem, since_start};
use crate::cases::{self, SUITE, VARIANTS};
use crate::reference::Expect;
use crate::rng::Rng;
use crate::round::{peak_rss_mb, RoundCtx, RoundReport};
use crate::spans::{self, Recorder, Span};
use granlog_engine::template::compile_program;
use granlog_engine::{Machine, MachineConfig};
use granlog_ir::parser::{parse_program, parse_term};
use granlog_serve::{PoolConfig, ServeClient, Session, SessionBudget, TemplateCache};
use granlog_store::{FsyncPolicy, ProgramStore, StoreConfig};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Distinct program texts in the working set; the cache holds 64.
const WORKING_SET: usize = 256;

/// Texts every session keeps coming back to.
const HOT: usize = 16;

/// Of 100 loads: this many go to the hot texts (they stay cached), ...
const HOT_PERCENT: u64 = 35;
/// ... this many to the rest of the working set (mostly evicted by then; the
/// store already holds them, so nothing is journaled), and the remainder are
/// texts nobody has loaded before (a miss plus a WAL append).
const COLD_PERCENT: u64 = 45;

const QUERIES_PER_LOAD: usize = 3;

/// Load-and-query steps per session and pass.
const STEPS_PER_PASS: usize = 32;

/// One pass = per client, 32 loads and 96 queries.
pub const PASS_MS: f64 = 32.0;

/// Journal bytes between compactions: a few per round.
const WAL_LIMIT_BYTES: u64 = 48 * 1024;

/// Name of the store's compaction-latency histogram in the server registry.
const SNAPSHOT_LATENCY: &str = "granlog_store_snapshot_ms";
const SERVER_LATENCY: &str = "granlog_query_latency_ms";

fn store_config(dir: &Path) -> StoreConfig {
    StoreConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Interval(Duration::from_millis(100)),
        wal_limit_bytes: WAL_LIMIT_BYTES,
    }
}

/// A suite program plus a marker fact that makes its text (and its normalized
/// form, the cache key) distinct.
fn marked(class: usize, marker: u64) -> String {
    format!("{}\nbench_marker({marker}).\n", cases::source(SUITE[class]))
}

/// The working set: text `k` is suite program `k mod 15` with a seeded marker.
fn working_set(rng: &Rng) -> Vec<String> {
    let mut markers = rng.fork(0x3a2c);
    (0..WORKING_SET)
        .map(|k| {
            marked(
                k % SUITE.len(),
                markers.below(1_000_000) * WORKING_SET as u64 + k as u64,
            )
        })
        .collect()
}

/// One step of a session's schedule: which text to load (and the suite class
/// its queries go to).
enum Pick {
    Known(usize),
    Novel(u64),
}

/// The seeded schedule of session `id`: the same for the served run and for
/// its in-process replay.
fn schedule(ctx: &RoundCtx, id: usize) -> Vec<(Pick, usize)> {
    let mut rng = Rng::new(ctx.seed).fork(0xc4a0 + id as u64);
    (0..ctx.passes * STEPS_PER_PASS)
        .map(|step| {
            let roll = rng.below(100);
            if roll < HOT_PERCENT {
                let k = rng.below(HOT as u64) as usize;
                (Pick::Known(k), k % SUITE.len())
            } else if roll < HOT_PERCENT + COLD_PERCENT {
                let k = HOT + rng.below((WORKING_SET - HOT) as u64) as usize;
                (Pick::Known(k), k % SUITE.len())
            } else {
                let marker = (1 << 40) + ((id as u64) << 32) + step as u64;
                (Pick::Novel(marker), rng.below(SUITE.len() as u64) as usize)
            }
        })
        .collect()
}

fn text_of<'a>(pick: &Pick, class: usize, working: &'a [String], novel: &'a mut String) -> &'a str {
    match pick {
        Pick::Known(k) => &working[*k],
        Pick::Novel(marker) => {
            *novel = marked(class, *marker);
            novel
        }
    }
}

struct ClientRun {
    report: RoundReport,
    spans: Vec<Span>,
}

fn client_loop(
    ctx: &RoundCtx,
    id: usize,
    client: &mut ServeClient,
    working: &[String],
    goals: &[Vec<String>],
    expects: &[Vec<Expect>],
    barrier: &Barrier,
) -> ClientRun {
    let mut rec = Recorder::new(ctx.traced(), ctx.started, id as u32);
    let mut report = RoundReport::default();
    let steps = schedule(ctx, id);
    let mut novel = String::new();
    barrier.wait();
    for (step, (pick, class)) in steps.iter().enumerate() {
        if step % STEPS_PER_PASS == 0 {
            report.begin_pass(0);
        }
        let text = text_of(pick, *class, working, &mut novel);
        let (loaded, kind, ms) = rec.op(|rec| {
            let loaded = rec.span("serve.client_load", || client.load(text));
            let kind = match &loaded {
                Ok(Ok((_, _, true))) => "load_hit",
                _ => "load_miss",
            };
            (loaded, kind)
        });
        report.sample(kind, ms);
        report.attempt(match (&loaded, pick) {
            (Ok(Ok((_, _, true))), Pick::Novel(_)) => {
                Some("a text never loaded before hit the cache".to_string())
            }
            (Ok(Ok(_)), _) => None,
            (Ok(Err(e)), _) => Some(format!("load refused: {e}")),
            (Err(e), _) => Some(format!("load i/o: {e}")),
        });
        for k in 0..QUERIES_PER_LOAD {
            let variant = (step * QUERIES_PER_LOAD + k) % VARIANTS;
            let (reply, _, ms) = rec.op(|rec| {
                (
                    rec.span("serve.client_query", || {
                        client.query(&goals[*class][variant])
                    }),
                    "query",
                )
            });
            report.sample("query", ms);
            report.attempt(match &reply {
                Ok(Ok(r)) => problem(
                    SUITE[*class],
                    &expects[*class][variant],
                    r.succeeded,
                    &r.bindings,
                ),
                Ok(Err(e)) => Some(format!("{}: server refused: {e}", SUITE[*class])),
                Err(e) => Some(format!("{}: i/o: {e}", SUITE[*class])),
            });
        }
    }
    ClientRun {
        report,
        spans: rec.into_spans(),
    }
}

pub fn run(ctx: &RoundCtx) -> RoundReport {
    let mut report = RoundReport::default();
    let mut rec = Recorder::new(ctx.traced(), ctx.started, 0);
    let rng = Rng::new(ctx.seed);
    let threads = load_threads();
    let dir = ctx.out_dir.join(format!("churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Set-up, first life: journal the working set through a live server and
    // shut it down (which snapshots).
    let working = working_set(&rng);
    let goals = served_goals(&rng);
    let first = start_server(Some(store_config(&dir)));
    let mut loader =
        ServeClient::connect(first.addr()).unwrap_or_else(|e| panic!("cannot connect: {e}"));
    let journaled = working
        .iter()
        .filter(|text| matches!(loader.load(text), Ok(Ok(_))))
        .count();
    let _ = loader.quit();
    first.shutdown();
    // Second life: boot replays the corpus into the cache. A traced round
    // also opens the store by itself first, to time the replay alone.
    if ctx.traced() {
        drop(rec.span("store.open_replay", || {
            ProgramStore::open(store_config(&dir))
        }));
    }
    let server = start_server(Some(store_config(&dir)));
    let recovered = server.recovered_programs();
    let mut clients: Vec<ServeClient> = (0..threads)
        .map(|_| {
            ServeClient::connect(server.addr()).unwrap_or_else(|e| panic!("cannot connect: {e}"))
        })
        .collect();
    let mut warm = Vec::new();
    for client in &mut clients {
        for (class, variants) in goals.iter().enumerate() {
            let _ = client.load(&working[class]);
            warm.push((class, client.query(&variants[0])));
        }
    }
    report.setup_s = since_start(ctx);

    let expects = served_expects(&goals);
    if journaled != WORKING_SET || recovered != WORKING_SET as u64 {
        report.attempt(Some(format!(
            "set-up journaled {journaled} and recovered {recovered} of {WORKING_SET} programs"
        )));
    }
    for (class, reply) in &warm {
        let why = match reply {
            Ok(Ok(r)) => problem(SUITE[*class], &expects[*class][0], r.succeeded, &r.bindings),
            Ok(Err(e)) => Some(format!("{}: server refused: {e}", SUITE[*class])),
            Err(e) => Some(format!("{}: i/o: {e}", SUITE[*class])),
        };
        if let Some(why) = why {
            report.attempt(Some(format!("warm-up {why}")));
        }
    }
    drop(warm);
    let cache_before = server.cache().stats();
    let histogram = |name: &str| {
        server
            .obs()
            .registry
            .histogram_snapshot(name)
            .expect("registered at boot")
    };
    let (latency_before, snapshots_before) =
        (histogram(SERVER_LATENCY), histogram(SNAPSHOT_LATENCY));

    let barrier = Barrier::new(threads);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(id, client)| {
                let (working, goals, expects, barrier) = (&working, &goals, &expects, &barrier);
                scope.spawn(move || client_loop(ctx, id, client, working, goals, expects, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let cache_after = server.cache().stats();
    let (latency_after, snapshots_after) = (histogram(SERVER_LATENCY), histogram(SNAPSHOT_LATENCY));
    let stats = clients[0].stats();
    let shed = server.shed_connections();
    let mut thread_spans = Vec::new();
    for run in runs {
        thread_spans.push(run.spans);
        report.absorb(run.report);
    }
    for client in clients {
        let _ = client.quit();
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    cache_layers(&mut report, &cache_before, &cache_after, shed);
    report.layer(
        "store.compactions",
        (snapshots_after.count - snapshots_before.count) as f64,
    );
    match stats {
        Ok(s) => {
            report.layer("store.wal_bytes", s.wal_bytes as f64);
            report.layer("store.wal_records", s.wal_records as f64);
        }
        Err(e) => report.attempt(Some(format!("stats: {e}"))),
    }
    if ctx.traced() {
        let counts = replay(ctx, &mut rec, &working, &goals, &expects, &mut report);
        thread_spans.push(rec.into_spans());
        let all = spans::merge(thread_spans);
        let server_ms = histogram_mean_between(&latency_before, &latency_after);
        let ms = |name| spans::mean_ms(&all, name);
        report.layer("serve.server_query_ms", server_ms);
        report.layer("serve.wire_ms", ms("serve.client_query") - server_ms);
        report.layer(
            "serve.session_self_ms",
            ms("serve.session_query") - ms("ir.parse_term") - ms("engine.run_goal"),
        );
        report.trace(
            &all,
            &[
                "serve.client_query",
                "serve.client_load",
                "serve.session_query",
                "serve.session_load",
                "serve.cache_load_hit",
                "serve.cache_load_miss",
                "store.record_load",
                "store.open_replay",
                "ir.parse_program",
                "ir.parse_term",
                "engine.compile_program",
                "engine.run_goal",
            ],
            &ctx.out_dir.join("trace-serve_churn.jsonl"),
        );
        // Session 0's operations, split with the replay's per-call means.
        let (loads, misses, queries) = (
            counts.loads as f64,
            counts.misses as f64,
            counts.queries as f64,
        );
        let total = loads * ms("serve.client_load") + queries * ms("serve.client_query");
        let engine = queries * ms("engine.run_goal") + misses * ms("engine.compile_program");
        let ir = queries * ms("ir.parse_term") + loads * ms("ir.parse_program");
        let store = loads * ms("store.record_load");
        report.shares = vec![
            ("engine".to_string(), engine / total),
            ("ir".to_string(), ir / total),
            ("store".to_string(), store / total),
            ("serve".to_string(), (total - engine - ir - store) / total),
        ];
    }
    report.rss_mb = peak_rss_mb();
    report
}

struct ReplayCounts {
    loads: usize,
    misses: usize,
    queries: usize,
}

/// Replays session 0's schedule in process, one public call at a time: the
/// `Session` (over its own `TemplateCache`), a second `TemplateCache` driven
/// directly so a load is timed by outcome, a `ProgramStore` of its own for the
/// journal, and beside them the calls they make that this crate can make too
/// (`parse_program`, `compile_program`, `parse_term`, `Machine::run_goal`).
fn replay(
    ctx: &RoundCtx,
    rec: &mut Recorder,
    working: &[String],
    goals: &[Vec<String>],
    expects: &[Vec<Expect>],
    report: &mut RoundReport,
) -> ReplayCounts {
    let dir = ctx
        .out_dir
        .join(format!("churn-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let new_cache = || TemplateCache::new(64, MachineConfig::default(), PoolConfig::default());
    let (cache, direct) = (Arc::new(new_cache()), new_cache());
    let mut session = Session::new(Arc::clone(&cache), SessionBudget::default());
    let store =
        ProgramStore::open(store_config(&dir)).unwrap_or_else(|e| panic!("replay store: {e}"));
    let programs: Vec<_> = SUITE
        .iter()
        .map(|name| parse_program(cases::source(name)).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect();
    let mut machines: Vec<Machine> = programs.iter().map(Machine::new).collect();
    // The state the served run started from: corpus journaled, cache holding
    // the tail of the working set.
    for text in working {
        let _ = direct.load(text);
        if let (Ok(_), Some(entry)) = (session.load(text), session.entry()) {
            let _ = store.record_load(entry.normalized_text(), text);
        }
    }
    let mut counts = ReplayCounts {
        loads: 0,
        misses: 0,
        queries: 0,
    };
    let mut novel = String::new();
    for (step, (pick, class)) in schedule(ctx, 0).iter().enumerate() {
        let text = text_of(pick, *class, working, &mut novel);
        let loaded = rec.span("serve.session_load", || session.load(text));
        let hit = rec.span_named_by(|| match direct.load(text) {
            Ok((_, true)) => (true, "serve.cache_load_hit"),
            _ => (false, "serve.cache_load_miss"),
        });
        if let (Ok(_), Some(entry)) = (&loaded, session.entry()) {
            let name = entry.normalized_text().to_string();
            if let Err(e) = rec.span("store.record_load", || store.record_load(&name, text)) {
                report.attempt(Some(format!("replay: journal refused a load: {e}")));
            }
        } else {
            report.attempt(Some("replay: session refused a load".to_string()));
        }
        let program = rec.span("ir.parse_program", || parse_program(text));
        counts.loads += 1;
        if !hit {
            counts.misses += 1;
            if let Ok(program) = &program {
                drop(rec.span("engine.compile_program", || compile_program(program)));
            }
        }
        for k in 0..QUERIES_PER_LOAD {
            let variant = (step * QUERIES_PER_LOAD + k) % VARIANTS;
            let goal = &goals[*class][variant];
            let reply = rec.span("serve.session_query", || session.query(goal));
            let (term, vars) = rec
                .span("ir.parse_term", || parse_term(goal))
                .expect("goal parses");
            let machine = &mut machines[*class];
            let _ = rec.span("engine.run_goal", || machine.run_goal(&term, &vars));
            counts.queries += 1;
            let why = match &reply {
                Ok(r) => problem(
                    SUITE[*class],
                    &expects[*class][variant],
                    r.succeeded,
                    &r.bindings,
                ),
                Err(e) => Some(format!("{}: {e}", SUITE[*class])),
            };
            if let Some(why) = why {
                report.attempt(Some(format!("replay {why}")));
            }
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Mode;

    fn ctx(seed: u64) -> RoundCtx {
        RoundCtx {
            seed,
            passes: 4,
            mode: Mode::Plain,
            smoke: false,
            out_dir: std::path::PathBuf::new(),
            started: std::time::Instant::now(),
        }
    }

    fn shape(steps: &[(Pick, usize)]) -> Vec<(Option<usize>, Option<u64>, usize)> {
        steps
            .iter()
            .map(|(pick, class)| match pick {
                Pick::Known(k) => (Some(*k), None, *class),
                Pick::Novel(marker) => (None, Some(*marker), *class),
            })
            .collect()
    }

    #[test]
    fn the_schedule_is_a_function_of_seed_and_session() {
        let a = shape(&schedule(&ctx(3), 0));
        assert_eq!(a.len(), 4 * STEPS_PER_PASS);
        assert_eq!(a, shape(&schedule(&ctx(3), 0)));
        assert_ne!(a, shape(&schedule(&ctx(4), 0)));
        assert_ne!(a, shape(&schedule(&ctx(3), 1)));
        // All three kinds of load occur, and novel markers never repeat,
        // within a session or across sessions.
        assert!(a.iter().any(|(k, _, _)| k.is_some_and(|k| k < HOT)));
        assert!(a.iter().any(|(k, _, _)| k.is_some_and(|k| k >= HOT)));
        let mut novel: Vec<u64> = a
            .iter()
            .chain(&shape(&schedule(&ctx(3), 1)))
            .filter_map(|(_, m, _)| *m)
            .collect();
        assert!(!novel.is_empty());
        let count = novel.len();
        novel.sort_unstable();
        novel.dedup();
        assert_eq!(novel.len(), count);
    }

    #[test]
    fn the_working_set_is_256_distinct_texts_of_the_15_programs() {
        let texts = working_set(&Rng::new(9));
        assert_eq!(texts, working_set(&Rng::new(9)));
        let mut unique = texts.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), WORKING_SET);
        assert!(texts[17].starts_with(cases::source(SUITE[2])));
        assert!(texts[17].trim_end().ends_with(")."));
        // A novel marker can never collide with a working-set marker.
        assert!(!texts
            .iter()
            .any(|t| t.contains(&format!("bench_marker({}", 1u64 << 40))));
    }
}
