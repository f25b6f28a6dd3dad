//! Concurrent-session stress and cache-discipline tests for `granlog
//! serve`.
//!
//! Eight clients hammer one server over TCP with interleaved benchmark
//! queries; every answer is compared against a fresh single-machine run of
//! the same query (up to variable renaming — the server renders unbound
//! variables by cell index, which depends on machine reuse). The template
//! cache must end with exactly one compiled entry per distinct program no
//! matter how the eight sessions interleave, budgets must be enforced
//! per-session without disturbing neighbours, and eviction must be
//! LRU-ordered and counted.

mod support;

use granlog_benchmarks::all_benchmarks;
use granlog_engine::MachineConfig;
use granlog_ir::parser::MAX_TERM_DEPTH;
use granlog_serve::{PoolConfig, ServeClient, ServeConfig, Server, TemplateCache};
use granlog_store::StoreConfig;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use support::{canonical, expected_answer, start_server, temp_dir};

/// Precomputed `(query, succeeded, bindings)` oracle for one benchmark.
type ExpectedAnswer = (String, bool, Vec<(String, String)>);

/// Eight concurrent clients, each looping over the benchmark suite in its
/// own rotation: every reply matches a fresh single-machine run, and the
/// shared cache compiles each program exactly once.
#[test]
fn eight_concurrent_sessions_get_correct_answers() {
    let benches = all_benchmarks();
    // Precompute expected answers once, outside the client threads.
    let expected: Vec<ExpectedAnswer> = benches
        .iter()
        .map(|b| {
            let query = b.query(b.test_size);
            let (succeeded, bindings) = expected_answer(b, &query);
            (query, succeeded, bindings)
        })
        .collect();
    let server = start_server(ServeConfig {
        cache_capacity: 64,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    std::thread::scope(|scope| {
        for client_id in 0..8usize {
            let benches = &benches;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                // Each client walks the suite starting at a different
                // offset, so programs and queries interleave across
                // sessions.
                for round in 0..2 {
                    for i in 0..benches.len() {
                        let idx = (client_id + i + round) % benches.len();
                        let bench = &benches[idx];
                        let (query, want_success, want_bindings) = &expected[idx];
                        let (_, clauses, _) = client
                            .load(bench.source)
                            .expect("io")
                            .expect("benchmark programs parse");
                        assert!(clauses > 0);
                        let reply = client
                            .query(query)
                            .expect("io")
                            .unwrap_or_else(|e| panic!("client {client_id} {query}: {e}"));
                        assert_eq!(reply.succeeded, *want_success, "client {client_id} {query}");
                        assert_eq!(
                            canonical(&reply.bindings),
                            canonical(want_bindings),
                            "client {client_id}: answers diverge for {query}"
                        );
                        assert!(reply.steps > 0);
                    }
                }
                client.quit().expect("clean quit");
            });
        }
    });

    // 8 sessions × 2 rounds over 12 programs: 12 compilations, the rest
    // shared from the cache.
    let stats = server.cache().stats();
    assert_eq!(
        stats.misses as usize,
        benches.len(),
        "each distinct program must compile exactly once"
    );
    assert_eq!(
        stats.hits as usize,
        8 * 2 * benches.len() - benches.len(),
        "every other load must hit the shared cache"
    );
    assert_eq!(stats.evictions, 0);
    server.shutdown();
}

/// Per-session budgets: a throttled session gets the typed budget error and
/// keeps working afterwards, while a concurrent unthrottled session runs
/// the same heavy query to completion.
#[test]
fn budgets_are_enforced_per_session() {
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "nrev" || b.test_size > 1)
        .expect("suite is non-empty");
    let heavy = bench.query(bench.default_size.min(30).max(bench.test_size));
    let light = bench.query(1);
    let server = start_server(ServeConfig {
        cache_capacity: 16,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let mut throttled = ServeClient::connect(addr).unwrap();
    let mut free = ServeClient::connect(addr).unwrap();
    throttled.load(bench.source).unwrap().unwrap();
    free.load(bench.source).unwrap().unwrap();

    // Find the real cost, then set the throttled session's budget below it.
    let full = free
        .query(&heavy)
        .unwrap()
        .expect("unbudgeted run succeeds");
    assert!(full.succeeded);
    let limit = full.steps / 2;
    assert!(
        limit > 0,
        "query too small to throttle: {} steps",
        full.steps
    );
    throttled.budget_steps(Some(limit)).unwrap();

    let err = throttled
        .query(&heavy)
        .unwrap()
        .expect_err("half the steps cannot finish the query");
    assert!(err.contains("budget"), "{err}");
    assert!(err.contains(&limit.to_string()), "session limit in {err}");

    // The free session is untouched; the throttled one recovers within its
    // budget and can lift it.
    assert!(free.query(&heavy).unwrap().unwrap().succeeded);
    assert!(throttled.query(&light).unwrap().unwrap().succeeded);
    throttled.budget_steps(None).unwrap();
    assert!(throttled.query(&heavy).unwrap().unwrap().succeeded);

    throttled.quit().unwrap();
    free.quit().unwrap();
    server.shutdown();
}

/// Cache keying: reformatted and variable-renamed copies of a program share
/// one entry (hit), any semantic edit misses, and capacity overflow evicts
/// the least recently used entry — all visible in the counters.
#[test]
fn cache_keys_on_normalized_text_and_evicts_lru() {
    let server = start_server(ServeConfig {
        cache_capacity: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).unwrap();

    let original = "append([], L, L).\nappend([H|T], L, [H|R]) :- append(T, L, R).";
    let reformatted =
        "append([],Out,Out).  % same program, new spelling\nappend([X|Xs],Q,[X|R]):-append(Xs,Q,R).";
    let modified = "append([], L, L).\nappend([H|T], L, [H|R]) :- append(L, T, R).";

    let (hash_a, _, hit_a) = client.load(original).unwrap().unwrap();
    let (hash_b, _, hit_b) = client.load(reformatted).unwrap().unwrap();
    assert!(!hit_a);
    assert!(hit_b, "reformatting must not recompile");
    assert_eq!(hash_a, hash_b, "identical programs must share one hash");

    let (hash_c, _, hit_c) = client.load(modified).unwrap().unwrap();
    assert!(!hit_c, "a semantic edit must never reuse stale templates");
    assert_ne!(hash_a, hash_c);

    // Capacity 2 with {original, modified} cached; touch original so
    // modified is coldest, then load a third program.
    client.load(original).unwrap().unwrap();
    let (_, _, hit_d) = client.load("solo(1).").unwrap().unwrap();
    assert!(!hit_d);
    let before = client.stats().unwrap();
    assert_eq!(
        before.evictions, 1,
        "third program must evict the LRU entry"
    );
    assert_eq!(before.entries, 2);

    // original survived (hit), modified was evicted (miss again).
    let (_, _, survived) = client.load(original).unwrap().unwrap();
    assert!(survived, "the recently-touched entry must survive eviction");
    let (_, _, evicted) = client.load(modified).unwrap().unwrap();
    assert!(!evicted, "the LRU entry must have been evicted");
    let after = client.stats().unwrap();
    assert_eq!(after.hits, before.hits + 1);

    client.quit().unwrap();
    server.shutdown();
}

/// A float is not an integer, so a program with a float is not the program
/// with the integer in its place: the cache key is the normalized text, and
/// `1.0` used to normalize to `1`. Then a tenant loading `p(1).` after
/// another loaded `p(1.0).` got `cache=hit` and the other tenant's
/// program, and `p(X), integer(X)` failed.
#[test]
fn a_float_and_an_integer_are_different_programs() {
    let server = start_server(ServeConfig::default());
    let mut first = ServeClient::connect(server.addr()).unwrap();
    let (float_hash, _, float_hit) = first.load("p(1.0).").unwrap().unwrap();
    assert!(!float_hit);
    let mut second = ServeClient::connect(server.addr()).unwrap();
    let (int_hash, _, int_hit) = second.load("p(1).").unwrap().unwrap();
    assert!(!int_hit, "p(1). must not be served p(1.0).'s entry");
    assert_ne!(float_hash, int_hash);
    let reply = second.query("p(X), integer(X)").unwrap().unwrap();
    assert!(reply.succeeded, "p(1). must answer an integer");
    assert_eq!(reply.bindings, vec![("X".to_string(), "1".to_string())]);
    let reply = first.query("p(X), float(X)").unwrap().unwrap();
    assert_eq!(reply.bindings, vec![("X".to_string(), "1.0".to_string())]);
    first.quit().unwrap();
    second.quit().unwrap();
    server.shutdown();
}

/// Protocol robustness: errors leave the session alive, and malformed
/// commands get `err` replies rather than hangs or disconnects.
#[test]
fn sessions_survive_errors() {
    let server = start_server(ServeConfig {
        cache_capacity: 4,
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(server.addr()).unwrap();

    // Query before load.
    let err = client.query("p(X)").unwrap().expect_err("no program yet");
    assert!(err.contains("no program"), "{err}");
    // Malformed program.
    let err = client.load("p(1").unwrap().expect_err("unbalanced paren");
    assert!(err.contains("parse"), "{err}");
    // Malformed goal after a good load.
    client.load("p(1).").unwrap().unwrap();
    let err = client.query("p(").unwrap().expect_err("unbalanced goal");
    assert!(!err.is_empty());
    // An integer result that does not fit in 64 bits is a typed engine
    // error: no wrapped answer, and no panic for the pool to quarantine.
    for goal in [
        "X is -9223372036854775807 - 1, Y is X // -1",
        "X is 9223372036854775807 + 1",
    ] {
        let err = client.query(goal).unwrap().expect_err("overflows");
        assert!(
            err.starts_with("engine") && err.contains("integer overflow"),
            "{goal}: {err}"
        );
    }
    // The session still answers.
    let reply = client.query("p(X)").unwrap().unwrap();
    assert!(reply.succeeded);
    assert_eq!(reply.bindings, vec![("X".to_string(), "1".to_string())]);
    assert_eq!(client.stats().unwrap().quarantined, 0);

    client.quit().unwrap();
    server.shutdown();
}

/// Every distinct atom a tenant sends stays in the process-wide symbol
/// table; the scrape reports how many there are and their bytes.
#[test]
fn a_never_seen_atom_raises_the_symbol_gauges() {
    let server = start_server(ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let gauge = |exposition: &str, name: &str| -> i64 {
        exposition
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in the exposition"))
    };
    let before = client.metrics().unwrap();
    let atom = "an_atom_no_other_test_sends_to_the_symbol_gauges";
    client.load(&format!("p({atom}).")).unwrap().unwrap();
    let after = client.metrics().unwrap();
    assert!(gauge(&after, "granlog_symbols") > gauge(&before, "granlog_symbols"));
    assert!(
        gauge(&after, "granlog_symbol_bytes")
            >= gauge(&before, "granlog_symbol_bytes") + atom.len() as i64
    );
    client.quit().unwrap();
    server.shutdown();
}

/// The `engine` command switches one session to bottom-up evaluation over
/// the wire: the `done` line grows `answers=/rounds=/facts=` fields, every
/// answer arrives as a `bind` line, non-Datalog programs get a typed
/// `err engine` reply, bad engine names get `err proto`, and switching back
/// to `sld` restores first-solution semantics — all without disturbing a
/// neighbour session still on the default engine.
#[test]
fn engine_command_switches_to_bottom_up_per_session() {
    let server = start_server(ServeConfig {
        cache_capacity: 8,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).unwrap();
    let mut neighbour = ServeClient::connect(addr).unwrap();

    const REACH: &str = "edge(a, b). edge(b, c). reach(a). reach(T) :- edge(S, T), reach(S).";
    client.load(REACH).unwrap().unwrap();
    neighbour.load(REACH).unwrap().unwrap();

    let err = client.engine("magic").unwrap().expect_err("unknown engine");
    assert!(err.contains("proto"), "{err}");
    client.engine("bottom-up").unwrap().unwrap();

    let reply = client.query("reach(X)").unwrap().unwrap();
    assert!(reply.succeeded);
    let stats = reply.datalog.expect("bottom-up done line carries stats");
    assert_eq!(stats.answers, 3);
    let mut values: Vec<_> = reply.bindings.iter().map(|(_, t)| t.clone()).collect();
    values.sort();
    assert_eq!(values, ["a", "b", "c"]);
    assert_eq!((reply.steps, reply.heap_high_water), (0, 0));

    // The neighbour session still runs SLD: one answer, no datalog stats.
    let sld = neighbour.query("reach(X)").unwrap().unwrap();
    assert!(sld.succeeded);
    assert_eq!(sld.bindings.len(), 1);
    assert!(sld.datalog.is_none());

    // A non-Datalog program under bottom-up is a typed rejection and the
    // session survives it.
    client
        .load("count(0). count(N) :- N > 0, N1 is N - 1, count(N1).")
        .unwrap()
        .unwrap();
    let err = client
        .query("count(3)")
        .unwrap()
        .expect_err("arithmetic is not Datalog");
    assert!(err.starts_with("engine "), "{err}");
    assert!(err.contains("not a Datalog program"), "{err}");

    client.engine("sld").unwrap().unwrap();
    let back = client.query("count(3)").unwrap().unwrap();
    assert!(back.succeeded);
    assert!(back.datalog.is_none());

    client.quit().unwrap();
    neighbour.quit().unwrap();
    server.shutdown();
}

/// The acceptor sheds past the connection cap with a typed refusal the
/// client surfaces as retryable, counts the shed, and recovers as soon as a
/// slot frees.
#[test]
fn overload_shedding_is_typed_counted_and_recoverable() {
    let server = Server::start(ServeConfig {
        max_conns: 1,
        ..ServeConfig::default()
    })
    .expect("server must bind an ephemeral port");
    let addr = server.addr();
    let mut first = ServeClient::connect(addr).unwrap();
    first.load("p(1).").unwrap().unwrap();

    let Err(err) = ServeClient::connect(addr) else {
        panic!("second connection must be shed");
    };
    assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    assert!(err.to_string().contains("shed"), "{err}");
    assert!(server.shed_connections() >= 1);

    // Freeing the slot ends the outage: bounded retry-with-backoff gets the
    // next tenant in without any out-of-band coordination.
    first.quit().unwrap();
    let mut second = ServeClient::connect_with_retry(addr, 50, Duration::from_millis(5))
        .expect("a freed slot must readmit within the retry budget");
    second.load("p(2).").unwrap().unwrap();
    assert!(second.query("p(X)").unwrap().unwrap().succeeded);
    second.quit().unwrap();
    server.shutdown();
}

/// A silent connection is reaped after the idle timeout with a typed
/// `err timeout` line and a close — while a connection that keeps issuing
/// commands (each one resets the idle clock) stays alive.
#[test]
fn idle_connections_are_reaped_with_a_typed_timeout() {
    let server = Server::start(ServeConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    })
    .expect("server must bind an ephemeral port");
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok granlog-serve"), "{line}");

    // Activity resets the clock: pauses shorter than the timeout are fine.
    let mut writer = stream.try_clone().unwrap();
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(150));
        writeln!(writer, "stats").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ok "), "{line}");
    }

    // Then silence: the reaper cuts the connection with a typed line.
    line.clear();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("err timeout idle"), "{line}");
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "connection must close after the idle reap"
    );
    server.shutdown();
}

/// A command line with no newline is bounded: past the cap the server
/// answers `err too-large` and closes instead of buffering whatever a peer
/// streams for the whole io timeout — and a second tenant never notices.
#[test]
fn an_endless_command_line_is_refused_and_costs_the_neighbour_nothing() {
    let server = start_server(ServeConfig::default());
    let mut tenant = ServeClient::connect(server.addr()).unwrap();
    tenant.load("p(1).").unwrap().unwrap();

    let mut hog = TcpStream::connect(server.addr()).unwrap();
    hog.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut replies = BufReader::new(hog.try_clone().unwrap());
    let mut line = String::new();
    replies.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok granlog-serve"), "{line}");
    // 2 MiB of goal and still no newline: twice the cap. The server may
    // cut the connection before the last chunk, hence no `unwrap`.
    let chunk = vec![b'a'; 64 * 1024];
    for _ in 0..32 {
        if hog.write_all(&chunk).is_err() {
            break;
        }
    }
    line.clear();
    // The refusal may be lost to a reset if our unread bytes pile up at the
    // server; what must hold is that nothing but a refusal ever arrives.
    if replies.read_line(&mut line).is_ok() && !line.is_empty() {
        assert!(line.starts_with("err too-large command line"), "{line}");
        line.clear();
        assert_eq!(replies.read_line(&mut line).unwrap_or(0), 0, "then a close");
    }

    let reply = tenant.query("p(X)").unwrap().unwrap();
    assert_eq!(reply.bindings, vec![("X".to_string(), "1".to_string())]);
    // The hog's thread retires just after its socket closes: poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while tenant.stats().unwrap().sessions != 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "the hog's session must be gone"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    tenant.quit().unwrap();
    server.shutdown();
}

/// ROADMAP item 1, the reader: a 200 000-deep term used to overflow the
/// stack of the connection thread and abort the server under every tenant.
/// It is a parse error now, for the session that sent it alone.
#[test]
fn a_term_nested_past_the_limit_is_a_parse_error_and_costs_the_neighbour_nothing() {
    let server = start_server(ServeConfig::default());
    let mut tenant = ServeClient::connect(server.addr()).unwrap();
    tenant.load("p(1).").unwrap().unwrap();

    let mut hostile = ServeClient::connect(server.addr()).unwrap();
    let deep = format!("p({}a{}).", "f(".repeat(200_000), ")".repeat(200_000));
    let err = hostile.load(&deep).unwrap().expect_err("nested too deep");
    assert!(
        err.starts_with("parse") && err.contains(&format!("nested deeper than {MAX_TERM_DEPTH}")),
        "{err}"
    );

    let reply = tenant.query("p(X)").unwrap().unwrap();
    assert_eq!(reply.bindings, vec![("X".to_string(), "1".to_string())]);
    // The session that was refused is still served, and a goal goes
    // through the same reader.
    hostile.load("q(2).").unwrap().unwrap();
    let err = hostile.query(&deep).unwrap().expect_err("so is the goal");
    assert!(err.contains("nested deeper than"), "{err}");
    assert!(hostile.query("q(2)").unwrap().unwrap().succeeded);
    assert_eq!(tenant.stats().unwrap().quarantined, 0);
    hostile.quit().unwrap();
    tenant.quit().unwrap();
    server.shutdown();
}

/// ROADMAP item 1, the Datalog lowering: a tenant that loads a fact holding
/// a 200 000-element list literal and queries it under `engine bottom-up`
/// used to overflow the connection thread's stack while the fact's constant
/// was interned (a recursive clone, hash and compare of the list), aborting
/// the server under every tenant. The constant is interned by its cells now:
/// the tenant gets its answer, and the neighbour and a new connection are
/// served.
#[test]
fn a_200_000_element_literal_under_bottom_up_costs_the_neighbour_nothing() {
    let server = start_server(ServeConfig::default());
    let mut tenant = ServeClient::connect(server.addr()).unwrap();
    tenant.load("p(1).").unwrap().unwrap();

    let mut hostile = ServeClient::connect(server.addr()).unwrap();
    let items: Vec<String> = (0..200_000).map(|i| i.to_string()).collect();
    let list = format!("[{}]", items.join(","));
    hostile.load(&format!("big({list}).")).unwrap().unwrap();
    hostile.engine("bottom-up").unwrap().unwrap();
    let reply = hostile.query("big(L)").unwrap().unwrap();
    assert_eq!(reply.bindings, [("L".to_string(), list)]);

    let reply = tenant.query("p(X)").unwrap().unwrap();
    assert_eq!(reply.bindings, vec![("X".to_string(), "1".to_string())]);
    let mut second = ServeClient::connect(server.addr()).unwrap();
    second.load("q(2).").unwrap().unwrap();
    assert!(second.query("q(2)").unwrap().unwrap().succeeded);
    assert_eq!(tenant.stats().unwrap().quarantined, 0);
    for client in [hostile, tenant, second] {
        client.quit().unwrap();
    }
    server.shutdown();
}

/// ROADMAP item 1, the arithmetic evaluator: a `+` chain 300 000 deep, built
/// at run time by a two-clause predicate, used to overflow the stack of the
/// connection thread inside `V is E` and abort the server under every
/// tenant (a reader limit cannot help: the source is three short clauses).
/// The heap evaluator walks it off an explicit work stack.
#[test]
fn a_deep_run_time_expression_is_evaluated_and_costs_the_neighbour_nothing() {
    let server = start_server(ServeConfig::default());
    let mut tenant = ServeClient::connect(server.addr()).unwrap();
    tenant.load("p(1).").unwrap().unwrap();

    let mut hostile = ServeClient::connect(server.addr()).unwrap();
    hostile
        .load(
            "mk(0, 0).\n\
             mk(N, X + 1) :- N > 0, N1 is N - 1, mk(N1, X).\n\
             deep(V) :- mk(300000, E), V is E.\n",
        )
        .unwrap()
        .unwrap();
    let reply = hostile.query("deep(V)").unwrap().unwrap();
    assert_eq!(
        reply.bindings,
        vec![("V".to_string(), "300000".to_string())]
    );

    let reply = tenant.query("p(X)").unwrap().unwrap();
    assert_eq!(reply.bindings, vec![("X".to_string(), "1".to_string())]);
    assert_eq!(tenant.stats().unwrap().quarantined, 0);
    hostile.quit().unwrap();
    tenant.quit().unwrap();
    server.shutdown();
}

/// ROADMAP item 1, the answer boundary: a 300 000-element list built at run
/// time by the two-clause `mk/2`, and the cyclic terms `X = f(X)` and `X =
/// f(X, X)` (there is no occurs check), each used to overflow the stack of a
/// connection thread (2 MiB, the default) while the answer was copied out
/// of the arena, and so abort the server under every tenant. The list is
/// answered; a cyclic term is one typed `err` line; both sessions go on.
#[test]
fn a_deep_answer_and_a_cyclic_one_cost_the_neighbour_nothing() {
    let server = start_server(ServeConfig::default());
    let mut tenant = ServeClient::connect(server.addr()).unwrap();
    tenant.load("p(1).").unwrap().unwrap();

    let mut hostile = ServeClient::connect(server.addr()).unwrap();
    hostile
        .load("mk(0, []).\nmk(N, [a|T]) :- N > 0, N1 is N - 1, mk(N1, T).\n")
        .unwrap()
        .unwrap();
    let reply = hostile.query("mk(300000, L)").unwrap().unwrap();
    let [(name, list)] = &reply.bindings[..] else {
        panic!("one binding: {:?}", reply.bindings.len());
    };
    assert_eq!(name, "L");
    assert_eq!(list.len(), 2 * 300_000 + 1, "[a,a,...,a]");
    assert_eq!(list.matches('a').count(), 300_000);

    for cyclic in ["X = f(X)", "X = f(X, X)"] {
        let err = hostile
            .query(cyclic)
            .unwrap()
            .expect_err("no finite answer");
        assert_eq!(err, "engine cyclic term: it has no finite copy", "{cyclic}");
        let reply = hostile.query("mk(3, L)").unwrap().unwrap();
        assert_eq!(reply.bindings, [("L".to_string(), "[a,a,a]".to_string())]);
    }

    let reply = tenant.query("p(X)").unwrap().unwrap();
    assert_eq!(reply.bindings, vec![("X".to_string(), "1".to_string())]);
    assert_eq!(tenant.stats().unwrap().quarantined, 0);
    hostile.quit().unwrap();
    tenant.quit().unwrap();
    server.shutdown();
}

/// ROADMAP item 1, printing and the last unbounded loops. `mk(300000, E)`
/// over `mk(N, X + 1)` builds a `+` chain 300 000 deep: it was extracted,
/// then overflowed the connection thread's 2 MiB stack while the reply was
/// printed, aborting the server under every tenant. `length/2`, `is_list/1`
/// and `=../2` on `X = [a|X]` looped forever (the last until the allocator
/// aborted), and so did `is/2` on `X = X + 1`. The answer prints; each
/// cyclic goal is one typed `err` line (or a `no`); both sessions go on.
#[test]
fn a_deep_printed_answer_and_cyclic_loops_cost_the_neighbour_nothing() {
    let server = start_server(ServeConfig::default());
    let mut tenant = ServeClient::connect(server.addr()).unwrap();
    tenant.load("p(1).").unwrap().unwrap();

    let mut hostile = ServeClient::connect(server.addr()).unwrap();
    hostile
        .load(
            "mk(0, 0).\n\
             mk(N, X + 1) :- N > 0, N1 is N - 1, mk(N1, X).\n\
             not_a_list :- X = [a|X], is_list(X).\n",
        )
        .unwrap()
        .unwrap();
    let reply = hostile.query("mk(300000, E)").unwrap().unwrap();
    let [(name, chain)] = &reply.bindings[..] else {
        panic!("one binding: {:?}", reply.bindings.len());
    };
    assert_eq!(name, "E");
    assert_eq!(chain.len(), 4 * 300_000 + 1, "((0+1)+1)...");
    let reply = tenant.query("p(X)").unwrap().unwrap();
    assert_eq!(reply.bindings, vec![("X".to_string(), "1".to_string())]);

    assert!(!hostile.query("not_a_list").unwrap().unwrap().succeeded);
    for cyclic in [
        "X = [a|X], length(X, N)",
        "X = [a|X], T =.. X",
        "X = X + 1, Y is X",
    ] {
        let err = hostile
            .query(cyclic)
            .unwrap()
            .expect_err("no finite answer");
        assert_eq!(err, "engine cyclic term: it has no finite copy", "{cyclic}");
        let reply = tenant.query("p(X)").unwrap().unwrap();
        assert_eq!(reply.bindings, vec![("X".to_string(), "1".to_string())]);
    }
    assert_eq!(tenant.stats().unwrap().quarantined, 0);
    hostile.quit().unwrap();
    tenant.quit().unwrap();
    server.shutdown();
}

/// A query that fails has no answer to send, so one that bound a variable
/// to a cyclic term on the way gets `done no` — it used to get the
/// cyclic-term error of copying that binding out of the arena.
#[test]
fn a_failed_query_over_a_cyclic_term_is_done_no() {
    let server = start_server(ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut replies = BufReader::new(stream.try_clone().unwrap());
    write!(
        stream,
        "load 5\np(1).query X = f(X), fail\nquery X = [a|X], is_list(X)\nquit\n"
    )
    .unwrap();
    let mut transcript = String::new();
    replies.read_to_string(&mut transcript).unwrap();
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(lines.len(), 5, "{transcript}");
    assert!(lines[1].starts_with("ok program="), "{transcript}");
    for reply in &lines[2..4] {
        assert!(reply.starts_with("done no steps=0 heap="), "{transcript}");
    }
    assert_eq!(lines[4], "ok bye");
    server.shutdown();
}

/// One clause per shape the reader nests, each `depth` deep as
/// `MAX_TERM_DEPTH` counts it.
fn clauses_nested(depth: usize) -> Vec<String> {
    let k = depth - 1;
    vec![
        format!("p({}a{}).", "f(".repeat(k), ")".repeat(k)),
        format!("p :- q({}a{}).", "f(".repeat(k - 1), ")".repeat(k - 1)),
        format!("p({}a{}).", "[".repeat(k), "]".repeat(k)),
        format!("p({}a{}).", "{".repeat(k), "}".repeat(k)),
        format!("p({}a{}).", "(".repeat(k), ")".repeat(k)),
        format!("p(1{}).", " - 1".repeat(k)),
        format!("p :- {}a.", "a, ".repeat(k)),
        format!("p :- {}a.", "\\+ ".repeat(k)),
    ]
}

/// What `MAX_TERM_DEPTH` was chosen for: a term at the limit, in each shape
/// the reader nests, goes through a whole `load` — read, normalize, compile
/// to templates, drop — on a thread with the 2 MiB stack a connection
/// thread has, in this (unoptimised) build. One level more is refused.
#[test]
fn a_term_at_the_depth_limit_survives_a_whole_load_on_a_connection_sized_stack() {
    std::thread::Builder::new()
        .stack_size(2 * 1024 * 1024)
        .spawn(|| {
            let cache = TemplateCache::new(2, MachineConfig::default(), PoolConfig::default());
            for program in clauses_nested(MAX_TERM_DEPTH) {
                let shape = &program[..12];
                let (entry, _) = cache
                    .load(&program)
                    .unwrap_or_else(|e| panic!("{shape}... is at the limit, not past it: {e}"));
                assert_eq!(entry.clause_count(), 1, "{shape}...");
            }
            for program in clauses_nested(MAX_TERM_DEPTH + 1) {
                let shape = &program[..12];
                let err = cache.load(&program).err().expect("past the limit");
                assert!(
                    err.to_string().contains("nested deeper than"),
                    "{shape}...: {err}"
                );
            }
        })
        .expect("spawn")
        .join()
        .expect("no shape overflows the stack or panics");
}

/// The wire format, byte for byte: one scripted session whose replies are
/// compared with `tests/golden/serve_transcript.txt`. Masked: the three
/// time-dependent `stats` fields, and the byte-counted bodies (`metrics`:
/// the whole exposition; `trace dump`: everything but each event's kind) —
/// their `ok <nbytes>` framing is still checked by reading exactly that
/// many bytes before the next reply.
#[test]
fn the_wire_transcript_matches_the_golden_file() {
    const PROGRAM: &str = "edge(a, b). edge(b, c).\nreach(a).\nreach(T) :- edge(S, T), reach(S).\n\
        count(0).\ncount(N) :- N > 0, N1 is N - 1, count(N1).\npair(1, two, [3, f(X, X)]).\n";
    const DATALOG: &str = "edge(a, b). edge(b, c). reach(a). reach(T) :- edge(S, T), reach(S).";
    let script = [
        "query count(3)",
        "load",
        "load",
        "query pair(A, B, C)",
        "query count(3)",
        "query edge(c, X)",
        "query count(",
        "query missing(1)",
        "budget steps 10",
        "query count(100)",
        "budget steps off",
        "budget heap 100000",
        "budget wall 5000",
        "query count(100)",
        "budget tea 4",
        "engine bottom-up",
        "query reach(X)",
        "load datalog",
        "query reach(X)",
        "query edge(X, X)",
        "engine sld",
        "engine warp",
        "stats",
        "trace on",
        "query reach(X)",
        "trace off",
        "trace dump",
        "trace dump",
        "metrics",
        "",
        "nonsense",
        "quit",
    ];

    let dir = temp_dir("transcript");
    let server = start_server(ServeConfig {
        store: Some(StoreConfig::new(&dir)),
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut replies = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    replies.read_line(&mut line).unwrap();
    let mut transcript = line.clone();

    for command in script {
        transcript.push_str(&format!("> {command}\n"));
        match command {
            "load" => write!(stream, "load {}\n{PROGRAM}", PROGRAM.len()).unwrap(),
            "load datalog" => write!(stream, "load {}\n{DATALOG}", DATALOG.len()).unwrap(),
            _ => writeln!(stream, "{command}").unwrap(),
        }
        if command.is_empty() {
            continue; // a blank line has no reply
        }
        // Every reply ends with its first `ok` / `done` / `err` line.
        loop {
            line.clear();
            assert_ne!(replies.read_line(&mut line).unwrap(), 0, "closed early");
            if line.starts_with("bind ") {
                transcript.push_str(&line);
                continue;
            }
            assert!(
                ["ok", "done ", "err "].iter().any(|t| line.starts_with(t)),
                "{command}: {line:?}"
            );
            break;
        }
        match command {
            "stats" => {
                for field in line.split_inclusive(' ') {
                    match field.split_once('=') {
                        Some((key @ ("uptime_ms" | "snapshot_age_ms" | "last_fsync_ms"), _)) => {
                            transcript.push_str(&format!("{key}=* "));
                        }
                        _ => transcript.push_str(field),
                    }
                }
            }
            "metrics" | "trace dump" => {
                let nbytes: usize = line["ok ".len()..].trim().parse().expect("byte count");
                let mut body = vec![0u8; nbytes];
                replies.read_exact(&mut body).unwrap();
                let body = String::from_utf8(body).expect("utf-8 body");
                assert!(body.is_empty() || body.ends_with('\n'));
                if command == "metrics" {
                    assert!(body.starts_with("# TYPE granlog_"), "{body}");
                    transcript.push_str("ok <nbytes>\n<exposition>\n");
                } else {
                    transcript
                        .push_str(&format!("ok <nbytes of {} events>\n", body.lines().count()));
                    for event in body.lines() {
                        let kind = event
                            .split("\"kind\":\"")
                            .nth(1)
                            .and_then(|k| k.split('"').next());
                        transcript.push_str(&format!("{}\n", kind.expect("events carry a kind")));
                    }
                }
            }
            _ => transcript.push_str(&line),
        }
    }
    line.clear();
    assert_eq!(replies.read_line(&mut line).unwrap(), 0, "`quit` closes");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let golden = include_str!("golden/serve_transcript.txt");
    if transcript != golden {
        let actual = std::env::temp_dir().join("granlog-serve-transcript.actual");
        std::fs::write(&actual, &transcript).unwrap();
        let differs = transcript
            .lines()
            .zip(golden.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| transcript.lines().count().min(golden.lines().count()));
        panic!(
            "the wire transcript left tests/golden/serve_transcript.txt at line {}: \
             got {:?}, golden {:?} (whole transcript written to {})",
            differs + 1,
            transcript.lines().nth(differs),
            golden.lines().nth(differs),
            actual.display()
        );
    }
}

mod protocol_fuzz {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One server shared by every fuzz case: the property under test is
    /// that no sequence of wire abuse degrades it for the next tenant.
    fn fuzz_server_addr() -> std::net::SocketAddr {
        static ADDR: OnceLock<std::net::SocketAddr> = OnceLock::new();
        *ADDR.get_or_init(|| {
            let server = Server::start(ServeConfig {
                io_timeout: Duration::from_millis(250),
                ..ServeConfig::default()
            })
            .expect("fuzz server must bind");
            let addr = server.addr();
            // Deliberately leaked: the handle's Drop would stop the server,
            // and it must outlive every case in this module.
            std::mem::forget(server);
            addr
        })
    }

    /// One wire frame: a command-shaped line glued from protocol fragments,
    /// raw (possibly non-UTF-8) bytes, a `load` whose declared length does
    /// not match its payload, or a fully valid exchange. `shutdown` is
    /// deliberately absent from the vocabulary.
    fn frame() -> impl Strategy<Value = Vec<u8>> {
        let word = prop_oneof![
            Just("load"),
            Just("query"),
            Just("budget"),
            Just("stats"),
            Just("steps"),
            Just("p(X)"),
            Just("-7"),
            Just("18446744073709551616"),
            Just("load 4"),
            Just(""),
        ];
        prop_oneof![
            // Command-shaped lines, mostly malformed.
            proptest::collection::vec(word, 0..4).prop_map(|words| format!(
                "{}\n",
                words.join(" ")
            )
            .into_bytes()),
            // Raw bytes: newlines, control characters, invalid UTF-8.
            proptest::collection::vec(0u8..255, 0..40),
            // A load whose declared length disagrees with its payload.
            (0u64..64, proptest::collection::vec(32u8..127, 0..32)).prop_map(|(declared, body)| {
                let mut frame = format!("load {declared}\n").into_bytes();
                frame.extend(body);
                frame
            }),
            // A valid exchange, so abuse and real traffic interleave.
            Just(b"load 9\nfz(good).\nquery fz(X)\n".to_vec()),
        ]
    }

    proptest! {
        // Each case opens one abusive connection against the shared server,
        // then proves a well-behaved tenant is unaffected; 24 cases keep
        // the walltime down (raise PROPTEST_CASES locally for more).
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Arbitrary frame sequences — garbage bytes, torn loads, half
        /// commands, interleaved valid exchanges — never wedge the server:
        /// after every abusive connection the same server still serves
        /// correct answers and coherent stats.
        #[test]
        fn arbitrary_frames_never_wedge_the_server(
            frames in proptest::collection::vec(frame(), 1..6),
        ) {
            let addr = fuzz_server_addr();
            if let Ok(mut abuser) = TcpStream::connect(addr) {
                abuser
                    .set_read_timeout(Some(Duration::from_millis(20)))
                    .ok();
                for frame in &frames {
                    if abuser.write_all(frame).is_err() {
                        break; // the server already cut us off: its right
                    }
                    let mut sink = [0u8; 512];
                    let _ = abuser.read(&mut sink);
                }
            }
            // The well-behaved tenant: correct answers, parseable stats.
            let mut client =
                ServeClient::connect_with_retry(addr, 20, Duration::from_millis(5))
                    .expect("the server must keep accepting");
            client.load("ok(fuzz).").unwrap().unwrap();
            let reply = client.query("ok(X)").unwrap().unwrap();
            prop_assert!(reply.succeeded);
            prop_assert_eq!(reply.bindings[0].1.as_str(), "fuzz");
            let _ = client.stats().unwrap();
            client.quit().unwrap();
        }
    }
}
