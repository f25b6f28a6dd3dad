//! Differential properties of the multi-threaded and-parallel executor.
//!
//! The executor (`granlog-par`) must be *answer-equivalent* to the
//! sequential engine: for every benchmark program and for
//! proptest-generated conjunctions, running a query on the work-sharing
//! pool — at 1, 2 and 4 threads, with granularity control on, off and in
//! always-spawn mode — must produce the same success/failure and the same
//! answer (bindings compared up to variable renaming) as
//! [`granlog_engine::Machine`]. This pins the whole spawn boundary: the
//! copy-out of arms, the deterministic in-order join, the copy-in
//! unification of answers, the independence fallback and the cell-guard
//! pre-screen.
//!
//! Counters are *not* compared: the parallel join performs its own
//! unifications, so operation counts legitimately differ from the
//! sequential engine (the sequential counters remain pinned by
//! `bench_snapshot` and `tests/engine_indexing.rs`).

use granlog_benchmarks::{all_benchmarks, control_benchmarks, nrev_benchmark};
use granlog_engine::Machine;
use granlog_ir::parser::parse_program;
use granlog_ir::Term;
use granlog_par::{Granularity, ParConfig, ParExecutor};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Canonicalizes a binding list: variables are renamed in first-occurrence
/// order across the whole list, so two answer sets that differ only in
/// variable numbering (sequential cell indices vs. parallel fresh
/// variables) compare equal, while sharing differences still show.
fn canonical_bindings(bindings: &[(granlog_ir::Symbol, Term)]) -> Vec<(String, String)> {
    fn canon(term: &Term, map: &mut BTreeMap<usize, usize>, out: &mut String) {
        match term {
            Term::Var(v) => {
                let next = map.len();
                let id = *map.entry(*v).or_insert(next);
                out.push_str(&format!("_V{id}"));
            }
            Term::Struct(name, args) => {
                out.push_str(name.as_str());
                out.push('(');
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    canon(arg, map, out);
                }
                out.push(')');
            }
            other => out.push_str(&other.to_string()),
        }
    }
    let mut map = BTreeMap::new();
    bindings
        .iter()
        .map(|(name, term)| {
            let mut s = String::new();
            canon(term, &mut map, &mut s);
            (name.to_string(), s)
        })
        .collect()
}

/// Runs one query sequentially and on the parallel executor under the given
/// configuration, asserting answer equivalence.
fn assert_differential(src: &str, query: &str, threads: usize, granularity: Granularity) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("program does not parse: {e}"));
    let mut machine = Machine::new(&program);
    let seq = machine
        .run_query(query)
        .unwrap_or_else(|e| panic!("sequential {query} failed: {e}"));
    let mut executor = ParExecutor::new(
        &program,
        ParConfig {
            threads,
            granularity,
            ..ParConfig::default()
        },
    );
    let par = executor
        .run_query(query)
        .unwrap_or_else(|e| panic!("parallel {query} ({threads}t, {granularity:?}) failed: {e}"));
    assert_eq!(
        seq.succeeded, par.succeeded,
        "{query}: success diverges at {threads} threads, {granularity:?}"
    );
    assert_eq!(
        canonical_bindings(&seq.bindings),
        canonical_bindings(&par.bindings),
        "{query}: answers diverge at {threads} threads, {granularity:?}"
    );
}

/// Every benchmark program (the 12 Table-1 entries, `nrev`, and the two
/// control extras) at its test size, across the full thread × granularity
/// matrix.
#[test]
fn benchmarks_parallel_equals_sequential() {
    for bench in all_benchmarks()
        .into_iter()
        .chain(std::iter::once(nrev_benchmark()))
        .chain(control_benchmarks())
    {
        let query = bench.query(bench.test_size);
        for threads in [1, 2, 4] {
            for granularity in [Granularity::On, Granularity::AlwaysSpawn] {
                assert_differential(bench.source, &query, threads, granularity);
            }
        }
        // Granularity off (inline execution) once per program: the thread
        // count is irrelevant without spawns.
        assert_differential(bench.source, &query, 4, Granularity::Off);
    }
}

/// The arm bodies the conjunction generator draws from: deterministic
/// list-processing predicates with known costs, plus a failing one.
const POOL_SRC: &str = r#"
    len([], 0).
    len([_|T], N) :- len(T, M), N is M + 1.
    sum([], 0).
    sum([H|T], N) :- sum(T, M), N is M + H.
    rev([], []).
    rev([H|T], R) :- rev(T, R1), app(R1, [H], R).
    app([], L, L).
    app([H|T], L, [H|R]) :- app(T, L, R).
    dup([], []).
    dup([H|T], [H, H|R]) :- dup(T, R).
    nope([], _) :- fail.
    nope([_|T], T).
"#;

const ARM_PREDS: &[&str] = &["len", "sum", "rev", "dup", "nope"];

/// Builds a parallel-conjunction query from a recipe: each arm applies a
/// pool predicate to its own literal list (arms are independent — distinct
/// output variables, ground inputs).
fn conjunction_query(arms: &[(usize, Vec<u8>)]) -> String {
    let arm_texts: Vec<String> = arms
        .iter()
        .enumerate()
        .map(|(i, (pred, list))| {
            let items: Vec<String> = list.iter().map(|x| x.to_string()).collect();
            format!(
                "{}([{}], R{i})",
                ARM_PREDS[pred % ARM_PREDS.len()],
                items.join(",")
            )
        })
        .collect();
    arm_texts.join(" & ")
}

proptest! {
    /// Independent conjunctions (2–4 arms, random pool predicates and
    /// inputs, including failing arms): parallel first answers equal
    /// sequential first answers at every thread count and granularity mode.
    #[test]
    fn independent_conjunctions_parallel_equals_sequential(
        arms in proptest::collection::vec(
            (0usize..ARM_PREDS.len(), proptest::collection::vec(0u8..50, 0..12)),
            2..5,
        ),
        threads in 1usize..5,
        mode in 0usize..2,
    ) {
        let query = conjunction_query(&arms);
        let granularity = if mode == 0 { Granularity::AlwaysSpawn } else { Granularity::On };
        assert_differential(POOL_SRC, &query, threads, granularity);
    }

    /// Dependent conjunctions (arms sharing an unbound variable) must fall
    /// back to inline execution and still match sequential semantics.
    #[test]
    fn dependent_conjunctions_parallel_equals_sequential(
        list in proptest::collection::vec(0u8..20, 0..8),
        threads in 1usize..5,
    ) {
        let items: Vec<String> = list.iter().map(|x| x.to_string()).collect();
        // Both arms constrain the same variable R: not independent.
        let query = format!(
            "len([{0}], R) & sum([{0}], R)",
            items.join(",")
        );
        assert_differential(POOL_SRC, &query, threads, Granularity::AlwaysSpawn);
    }
}

/// Nested parallel conjunctions inside control constructs, executed on
/// workers that re-enter the spawn path recursively.
#[test]
fn nested_conjunctions_under_control_match_sequential() {
    let src = r#"
        work(0, 0).
        work(N, R) :- N > 0, N1 is N - 1, work(N1, R1), R is R1 + 1.
        tree(0, 1).
        tree(N, R) :- N > 0, N1 is N - 1,
                      tree(N1, A) & tree(N1, B),
                      R is A + B.
        guarded(N, R) :- ( N > 3 -> work(N, A) & work(N, B) ; work(N, A), work(N, B) ),
                         R is A + B.
        negated(N) :- \+ (( work(N, A) & work(N, B), A \== B )).
    "#;
    for threads in [1, 2, 4] {
        for query in ["tree(6, R)", "guarded(2, R)", "guarded(9, R)", "negated(5)"] {
            assert_differential(src, query, threads, Granularity::AlwaysSpawn);
        }
    }
}

/// A failing arm must fail the conjunction identically in both engines,
/// including when the failure arrives from a spawned worker.
#[test]
fn failing_arms_match_sequential() {
    let src = r#"
        ok(_, done).
        pick(N, R) :- ( N > 5, ok(N, R) & ok(N, _) ; R = small ).
    "#;
    for threads in [1, 2, 4] {
        assert_differential(src, "pick(9, R)", threads, Granularity::AlwaysSpawn);
        assert_differential(src, "pick(2, R)", threads, Granularity::AlwaysSpawn);
    }
}

/// Pool shutdown must not lose its wake-up: `finish` publishes `done` to
/// workers that may be between their `done` check and their condvar wait.
/// Many short queries at 2 and 4 threads make that window likely; the
/// watchdog turns a missed wake-up (a `run_goal` that never returns) into a
/// failure instead of a stuck suite.
#[test]
fn short_queries_never_miss_the_shutdown_wakeup() {
    use std::sync::mpsc;
    use std::time::Duration;

    let queries = if cfg!(debug_assertions) {
        3_000
    } else {
        30_000
    };
    let (done_tx, done_rx) = mpsc::channel();
    let storm = std::thread::spawn(move || {
        // The clause body mentions `&`, so every query starts pool workers.
        let program = parse_program("ok(_, done). both(A, B) :- ok(1, A) & ok(2, B).")
            .expect("program parses");
        let (goal, names) = granlog_ir::parser::parse_term("both(A, B)").expect("goal parses");
        for threads in [2, 4] {
            let mut executor = ParExecutor::new(
                &program,
                ParConfig {
                    threads,
                    granularity: Granularity::AlwaysSpawn,
                    ..ParConfig::default()
                },
            );
            for _ in 0..queries {
                let outcome = executor.run_goal(&goal, &names).expect("query runs");
                assert!(outcome.succeeded);
            }
            done_tx.send(threads).expect("watchdog is listening");
        }
    });
    for threads in [2, 4] {
        let finished = done_rx.recv_timeout(Duration::from_secs(120));
        assert_eq!(
            finished,
            Ok(threads),
            "{queries} short queries at {threads} threads did not finish: a worker missed shutdown"
        );
    }
    storm.join().expect("query thread finished cleanly");
}
