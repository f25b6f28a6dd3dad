//! Chaos suite for the serve layer: the full benchmark corpus under
//! concurrent clients while every failpoint class fires, clients are
//! killed mid-query, and frames arrive torn, oversized or malformed.
//!
//! Compiled only with `--features failpoints` (see `required-features` in
//! the bench crate manifest), so the tier-1 suite never carries fault
//! machinery. Every answer the storm does deliver is differential-checked
//! against a fresh single-machine run of the same query; afterwards the
//! pool gauges must show no leaked lease and the server must answer the
//! whole corpus correctly with injection disarmed.
//!
//! The failpoint registry is process-global, so every test here serializes
//! on one mutex.

mod support;

use granlog_engine::EngineError;
use granlog_fault::{self as fault, Action};
use granlog_ir::parser::parse_program;
use granlog_par::{Granularity, ParConfig, ParExecutor};
use granlog_serve::{ServeClient, ServeConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use support::{canonical, expected_answer, fifteen_benchmarks, start_server};

/// Precomputed `(query, succeeded, bindings)` oracle for one benchmark.
type ExpectedAnswer = (String, bool, Vec<(String, String)>);

/// One registry, one test at a time.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffled(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in (1..len).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Polls the pool gauges until the server is quiescent (no active lease)
/// or the deadline passes.
fn await_quiescent(server: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.cache().stats();
        if stats.leases_active == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "leases still checked out after the storm: {}",
            stats.leases_active
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A client that survives injected connection kills: any I/O error drops
/// the connection and the next call reconnects and reloads.
struct ChaosClient {
    addr: std::net::SocketAddr,
    conn: Option<ServeClient>,
}

impl ChaosClient {
    fn new(addr: std::net::SocketAddr) -> ChaosClient {
        ChaosClient { addr, conn: None }
    }

    fn conn(&mut self) -> &mut ServeClient {
        if self.conn.is_none() {
            let client = ServeClient::connect_with_retry(self.addr, 50, Duration::from_millis(2))
                .expect("reconnect after an injected kill");
            self.conn = Some(client);
        }
        self.conn.as_mut().unwrap()
    }

    /// Loads then queries, retrying through injected faults and killed
    /// connections, until the server delivers a real reply. Returns the
    /// reply plus how many injected errors were absorbed on the way.
    fn query_until_served(
        &mut self,
        source: &str,
        query: &str,
    ) -> (bool, Vec<(String, String)>, usize) {
        let mut absorbed = 0;
        for _attempt in 0..50 {
            let loaded = match self.conn().load(source) {
                Ok(Ok(_)) => true,
                Ok(Err(msg)) => {
                    assert!(
                        msg.starts_with("fault") || msg.starts_with("internal"),
                        "unexpected load error under injection: {msg}"
                    );
                    absorbed += 1;
                    false
                }
                Err(_io) => {
                    self.conn = None;
                    absorbed += 1;
                    false
                }
            };
            if !loaded {
                continue;
            }
            match self.conn().query(query) {
                Ok(Ok(reply)) => return (reply.succeeded, reply.bindings, absorbed),
                Ok(Err(msg)) => {
                    assert!(
                        msg.starts_with("fault") || msg.starts_with("internal"),
                        "unexpected query error under injection: {msg}"
                    );
                    absorbed += 1;
                }
                Err(_io) => {
                    self.conn = None;
                    absorbed += 1;
                }
            }
        }
        panic!("no successful reply for {query} in 50 attempts");
    }
}

/// The storm: 8 clients × 2 rounds over all 15 programs while seven
/// failpoint classes fire at seeded probabilities and 4 extra clients are
/// killed mid-query. Every delivered answer must match the sequential
/// oracle; afterwards no lease may be leaked and the corpus must replay
/// cleanly with injection off.
#[test]
fn chaos_storm_preserves_answers_and_pool_hygiene() {
    let _lock = chaos_lock();
    let benches = fifteen_benchmarks();
    assert_eq!(benches.len(), 15, "the corpus is the full program set");
    let expected: Vec<ExpectedAnswer> = benches
        .iter()
        .map(|b| {
            let query = b.query(b.test_size);
            let (ok, bindings) = expected_answer(b, &query);
            (query, ok, bindings)
        })
        .collect();

    let server = start_server(ServeConfig {
        cache_capacity: 8, // < 15 programs: eviction churns throughout
        io_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    fault::disarm_all();
    fault::set_seed(0x6368_616f_732d_3031);
    fault::arm("engine.solve", Action::Error, 0.03);
    fault::arm("engine.arena.grow", Action::Error, 0.01);
    fault::arm("serve.lease", Action::Error, 0.03);
    fault::arm("serve.cache.insert", Action::Error, 0.02);
    fault::arm("serve.cache.evict", Action::Error, 0.02);
    fault::arm("serve.sock.read", Action::Error, 0.005);
    fault::arm("serve.sock.write", Action::Error, 0.005);

    let absorbed_total = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // The workers: differential-check every answer that gets through.
        for client_id in 0..8u64 {
            let benches = &benches;
            let expected = &expected;
            let absorbed_total = &absorbed_total;
            scope.spawn(move || {
                let mut client = ChaosClient::new(addr);
                for round in 0..2u64 {
                    for &idx in &shuffled(benches.len(), client_id * 31 + round) {
                        let (query, want_ok, want_bindings) = &expected[idx];
                        let (ok, bindings, absorbed) =
                            client.query_until_served(benches[idx].source, query);
                        absorbed_total.fetch_add(absorbed, Ordering::Relaxed);
                        assert_eq!(ok, *want_ok, "client {client_id} {query}");
                        assert_eq!(
                            canonical(&bindings),
                            canonical(want_bindings),
                            "client {client_id}: answers diverge for {query}"
                        );
                    }
                }
            });
        }
        // The victims: four clients killed mid-query — half drop after
        // sending a full query line (reply never read), half drop with a
        // torn half-line on the wire.
        for victim in 0..4usize {
            let benches = &benches;
            scope.spawn(move || {
                let bench = &benches[victim % benches.len()];
                let Ok(mut client) =
                    ServeClient::connect_with_retry(addr, 50, Duration::from_millis(2))
                else {
                    return; // injected kill during connect: already dead
                };
                let Ok(Ok(_)) = client.load(bench.source) else {
                    return;
                };
                if victim % 2 == 0 {
                    let _ = client.kill_after_query(&bench.query(bench.test_size));
                } else {
                    let _ = client.kill_mid_command("query ");
                }
                // The stream drops here, mid-flight.
            });
        }
    });

    // Coverage: the storm must actually have exercised the seams.
    for name in [
        "engine.solve",
        "serve.lease",
        "serve.cache.insert",
        "serve.cache.evict",
    ] {
        assert!(
            fault::stats(name).evaluated > 0,
            "failpoint {name} was never reached by the storm"
        );
    }
    let fired: u64 = [
        "engine.solve",
        "engine.arena.grow",
        "serve.lease",
        "serve.cache.insert",
        "serve.cache.evict",
        "serve.sock.read",
        "serve.sock.write",
    ]
    .iter()
    .map(|n| fault::stats(n).fired)
    .sum();
    assert!(fired > 0, "no failpoint ever fired: the storm was a calm");
    assert!(
        absorbed_total.load(Ordering::Relaxed) > 0,
        "clients never observed an injected failure"
    );
    fault::disarm_all();

    // Hygiene: every lease returned, and with injection off the whole
    // corpus replays correctly through the same (quarantine-scarred) pool.
    await_quiescent(&server);
    let stats = server.cache().stats();
    assert_eq!(stats.leases_active, 0, "a lease leaked through the storm");
    let mut verify = ServeClient::connect(addr).unwrap();
    for (bench, (query, want_ok, want_bindings)) in benches.iter().zip(&expected) {
        verify.load(bench.source).unwrap().unwrap();
        let reply = verify.query(query).unwrap().unwrap();
        assert_eq!(reply.succeeded, *want_ok, "post-chaos {query}");
        assert_eq!(
            canonical(&reply.bindings),
            canonical(want_bindings),
            "post-chaos answers diverge for {query}"
        );
    }
    let after = verify.stats().unwrap();
    assert_eq!(after.lease_leaked, 0);
    verify.quit().unwrap();
    server.shutdown();
}

/// Every failpoint class, tripped deterministically (probability 1), maps
/// to its designed observable: a typed `err fault` line, a dropped
/// connection, or a typed engine error — never a wedge and never a wrong
/// answer afterwards.
#[test]
fn every_failpoint_class_trips_with_its_designed_observable() {
    let _lock = chaos_lock();
    fault::disarm_all();
    let server = start_server(ServeConfig {
        cache_capacity: 1, // capacity 1: the second load must evict
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let build = "build(0, []).\nbuild(N, [N|T]) :- N > 0, N1 is N - 1, build(N1, T).";

    // engine.solve: typed `fault` error on the query, session survives.
    let mut client = ServeClient::connect(addr).unwrap();
    client.load(build).unwrap().unwrap();
    fault::arm("engine.solve", Action::Error, 1.0);
    let err = client.query("build(3, L)").unwrap().unwrap_err();
    fault::disarm_all();
    assert!(err.starts_with("fault"), "{err}");
    assert!(err.contains("engine.solve"), "{err}");

    // engine.arena.grow: fresh machines start with an empty arena, so any
    // real query grows it and trips the failpoint.
    fault::arm("engine.arena.grow", Action::Error, 1.0);
    let err = client.query("build(50, L)").unwrap().unwrap_err();
    fault::disarm_all();
    assert!(err.contains("engine.arena.grow"), "{err}");

    // serve.lease: machine checkout fails typed.
    fault::arm("serve.lease", Action::Error, 1.0);
    let err = client.query("build(3, L)").unwrap().unwrap_err();
    fault::disarm_all();
    assert!(err.contains("serve.lease"), "{err}");

    // serve.cache.insert: compiling a new program fails typed.
    fault::arm("serve.cache.insert", Action::Error, 1.0);
    let err = client.load("fresh(1).").unwrap().unwrap_err();
    fault::disarm_all();
    assert!(err.contains("serve.cache.insert"), "{err}");

    // serve.cache.evict: with capacity 1 the next distinct program must
    // evict, and the eviction seam fails typed.
    fault::arm("serve.cache.evict", Action::Error, 1.0);
    let err = client.load("other(2).").unwrap().unwrap_err();
    fault::disarm_all();
    assert!(err.contains("serve.cache.evict"), "{err}");

    // The session survived five injected failures; prove it, then hang up:
    // the socket faults below hit every ticking connection, this one too.
    let reply = client.query("build(4, L)").unwrap().unwrap();
    assert!(reply.succeeded);
    client.quit().unwrap();

    // serve.sock.read / serve.sock.write: the connection is cut — the
    // client sees a dead socket, the server thread exits cleanly. Armed
    // before the connection exists, so the session's very first read tick
    // (or its first reply) trips it.
    for name in ["serve.sock.read", "serve.sock.write"] {
        fault::arm(name, Action::Error, 1.0);
        let mut doomed = ServeClient::connect(addr).unwrap();
        let result = doomed.load(build);
        fault::disarm_all();
        assert!(
            result.is_err(),
            "{name} must kill the connection, got an answer instead"
        );
    }

    // par.spawn / par.join: the executor seams, typed and recoverable.
    let program = parse_program(
        "fib(0, 0).\nfib(1, 1).\nfib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,\n    fib(M1, N1) & fib(M2, N2), N is N1 + N2.",
    )
    .unwrap();
    let mut exec = ParExecutor::new(
        &program,
        ParConfig {
            threads: 2,
            granularity: Granularity::AlwaysSpawn,
            ..ParConfig::default()
        },
    );
    // Both seams sit on the stolen path, and whether an arm is stolen is a
    // race the forker can win: retry (bounded) until a run really crossed.
    for site in ["par.spawn", "par.join"] {
        let err = (0..50)
            .find_map(|_| {
                fault::arm(site, Action::Error, 1.0);
                let outcome = exec.run_query("fib(15, X)");
                fault::disarm_all();
                outcome.err()
            })
            .unwrap_or_else(|| panic!("{site}: 50 runs of fib(15) and no arm was stolen"));
        assert_eq!(err, EngineError::Fault(site));
    }
    let out = exec.run_query("fib(10, X)").unwrap();
    assert!(out.succeeded);
    assert_eq!(out.binding("X").unwrap().to_string(), "55");

    server.shutdown();
}

/// An injected panic mid-solve quarantines the machine over the wire: the
/// client gets `err internal`, the gauges show the quarantine, no lease
/// leaks, and the same session keeps answering correctly — the quarantined
/// machine's generation never re-enters the pool.
#[test]
fn a_panicking_query_quarantines_over_the_wire() {
    let _lock = chaos_lock();
    fault::disarm_all();
    let server = start_server(ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.load("p(1).\np(2).").unwrap().unwrap();
    assert!(client.query("p(X)").unwrap().unwrap().succeeded);

    fault::arm("engine.solve", Action::Panic, 1.0);
    let err = client.query("p(X)").unwrap().unwrap_err();
    fault::disarm_all();
    assert!(err.starts_with("internal"), "{err}");

    let stats = client.stats().unwrap();
    assert_eq!(stats.quarantined, 1, "the panicking machine is quarantined");
    assert_eq!(stats.lease_leaked, 0, "no lease leaks past a panic");

    // The pool recovered under a new generation: answers stay correct.
    let reply = client.query("p(X)").unwrap().unwrap();
    assert!(reply.succeeded);
    assert_eq!(reply.bindings[0], ("X".to_string(), "1".to_string()));
    let stats = client.stats().unwrap();
    assert_eq!(stats.quarantined, 1, "no further quarantine after disarm");
    assert_eq!(stats.lease_leaked, 0);
    client.quit().unwrap();
    server.shutdown();
}

/// The bottom-up engine's failpoint seams (`datalog.fixpoint.round` mid
/// semi-naive round, `datalog.join` per join batch — query probes
/// included) fail typed as `err engine`, quarantine *nothing* (the
/// fixpoint never leases a machine from the pool), and the session keeps
/// answering — including from the cached database once one evaluation has
/// succeeded.
#[test]
fn datalog_seams_fail_typed_and_quarantine_nothing() {
    let _lock = chaos_lock();
    fault::disarm_all();
    let server = start_server(ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();
    const REACH: &str = "edge(a, b). edge(b, c). reach(a). reach(T) :- edge(S, T), reach(S).";
    client.load(REACH).unwrap().unwrap();
    client.engine("bottom-up").unwrap().unwrap();

    // Round seam first: it only fires while the fixpoint actually runs, so
    // it must trip before any successful evaluation caches the database.
    fault::arm("datalog.fixpoint.round", Action::Error, 1.0);
    let err = client.query("reach(X)").unwrap().unwrap_err();
    fault::disarm_all();
    assert!(err.starts_with("engine"), "{err}");
    assert!(err.contains("datalog.fixpoint.round"), "{err}");
    let stats = client.stats().unwrap();
    assert_eq!(stats.quarantined, 0, "a fixpoint fault leases no machine");
    assert_eq!(stats.lease_leaked, 0);

    // An injected fault must never be cached as the program's database:
    // disarmed, the same session evaluates from scratch and answers fully.
    let reply = client.query("reach(X)").unwrap().unwrap();
    assert!(reply.succeeded);
    assert_eq!(reply.datalog.expect("bottom-up stats").answers, 3);

    // Join seam: fires on query probes too, so it trips even though the
    // database is now cached and no further fixpoint runs.
    fault::arm("datalog.join", Action::Error, 1.0);
    let err = client.query("reach(X)").unwrap().unwrap_err();
    fault::disarm_all();
    assert!(err.starts_with("engine"), "{err}");
    assert!(err.contains("datalog.join"), "{err}");
    let stats = client.stats().unwrap();
    assert_eq!(stats.quarantined, 0, "a join fault leases no machine");
    assert_eq!(stats.lease_leaked, 0);

    // The session survives both seams and the cached database is intact.
    let reply = client.query("reach(X)").unwrap().unwrap();
    assert!(reply.succeeded);
    let mut hosts: Vec<_> = reply.bindings.iter().map(|(_, t)| t.clone()).collect();
    hosts.sort();
    assert_eq!(hosts, ["a", "b", "c"]);

    // SLD queries on the same session are untouched by the excursion.
    client.engine("sld").unwrap().unwrap();
    assert!(client.query("reach(a)").unwrap().unwrap().succeeded);
    client.quit().unwrap();
    server.shutdown();
}

/// Torn, oversized and malformed frames each get their typed `err` line
/// (or a clean cut) and never wedge the server: a well-behaved client gets
/// correct answers after every abuse.
#[test]
fn torn_oversized_and_malformed_frames_never_wedge_the_server() {
    let _lock = chaos_lock();
    fault::disarm_all();
    let server = start_server(ServeConfig {
        io_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let read_reply = |stream: &TcpStream| -> String {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut greeting = String::new();
        reader.read_line(&mut greeting).unwrap();
        assert!(greeting.starts_with("ok granlog-serve"), "{greeting}");
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };

    // Oversized: a load declaring more than the program-size cap.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"load 99999999999\n").unwrap();
    let line = read_reply(&s);
    assert!(line.starts_with("err too-large"), "{line}");

    // Malformed length.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"load not-a-number\n").unwrap();
    let line = read_reply(&s);
    assert!(line.starts_with("err proto"), "{line}");

    // Torn payload: declares 100 bytes, delivers 10, then stalls. The
    // io timeout cuts it with a typed line and closes the connection.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"load 100\nten bytes.").unwrap();
    let line = read_reply(&s);
    assert!(line.starts_with("err timeout torn frame"), "{line}");
    let mut rest = Vec::new();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut tail = BufReader::new(&s);
    assert_eq!(
        tail.read_to_end(&mut rest).unwrap_or(0),
        0,
        "connection must close after a torn payload"
    );

    // Torn command line: half a command, then silence.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"query p(").unwrap();
    let line = read_reply(&s);
    assert!(line.starts_with("err timeout torn frame"), "{line}");

    // Malformed: not UTF-8 at all.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[0xff, 0xfe, 0x80, 0x80, b'\n']).unwrap();
    let line = read_reply(&s);
    assert!(line.starts_with("err proto"), "{line}");

    // Unknown command.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"frobnicate now\n").unwrap();
    let line = read_reply(&s);
    assert!(line.starts_with("err proto unknown command"), "{line}");

    // After all that: business as usual.
    let mut client = ServeClient::connect(addr).unwrap();
    client.load("p(42).").unwrap().unwrap();
    let reply = client.query("p(X)").unwrap().unwrap();
    assert!(reply.succeeded);
    assert_eq!(reply.bindings[0], ("X".to_string(), "42".to_string()));
    client.quit().unwrap();
    server.shutdown();
}

/// Graceful drain: a query in flight when shutdown starts still gets its
/// complete reply; the next command is refused with `err shutdown` (or a
/// closed connection), and shutdown() returns with every thread joined.
#[test]
fn graceful_drain_finishes_inflight_replies() {
    let _lock = chaos_lock();
    fault::disarm_all();
    let server = start_server(ServeConfig::default());
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).unwrap();
    client
        .load("count(0).\ncount(N) :- N > 0, N1 is N - 1, count(N1).")
        .unwrap()
        .unwrap();

    // Shut down while the query below is in flight.
    let shutdown = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
    });
    let reply = client
        .query("count(3000000)")
        .expect("the in-flight reply must be written before the drain")
        .expect("the query itself is valid");
    assert!(reply.succeeded);
    assert!(reply.steps >= 3_000_000);

    // The drained server refuses follow-up commands, one way or the other.
    // A query whose line was read before the stop flag rose may still be
    // answered (that is the drain contract), so poll until the refusal.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.query("count(1)") {
            Ok(Err(msg)) => {
                assert!(msg.starts_with("shutdown"), "{msg}");
                break;
            }
            Ok(Ok(_)) => assert!(
                Instant::now() < deadline,
                "server kept answering long after the drain began"
            ),
            Err(_closed) => break, // connection already gone: equally fine
        }
    }
    shutdown.join().unwrap();
}

/// Clients that vanish mid-query leak nothing: the abandoned queries run
/// to completion server-side, their leases return to the pool, and the
/// session threads exit.
#[test]
fn killed_clients_leak_no_leases() {
    let _lock = chaos_lock();
    fault::disarm_all();
    let server = start_server(ServeConfig::default());
    let addr = server.addr();
    let count = "count(0).\ncount(N) :- N > 0, N1 is N - 1, count(N1).";

    for victim in 0..6 {
        let mut client = ServeClient::connect(addr).unwrap();
        client.load(count).unwrap().unwrap();
        if victim % 2 == 0 {
            let _ = client.kill_after_query("count(500000)");
        } else {
            let _ = client.kill_mid_command("query count(5");
        }
    }

    await_quiescent(&server);
    let stats = server.cache().stats();
    assert_eq!(stats.leases_active, 0, "a killed client leaked a lease");
    // And the server still serves.
    let mut client = ServeClient::connect(addr).unwrap();
    client.load(count).unwrap().unwrap();
    assert!(client.query("count(10)").unwrap().unwrap().succeeded);
    client.quit().unwrap();
    server.shutdown();
}
