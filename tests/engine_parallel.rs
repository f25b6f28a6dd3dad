//! Differential properties of the multi-threaded and-parallel executor.
//!
//! The executor (`granlog-par`) must be *answer-equivalent* to the
//! sequential engine: for every benchmark program and for
//! proptest-generated conjunctions, running a query on the work-stealing
//! pool — at 1, 2 and 4 threads, with granularity control on, off and in
//! always-spawn mode — must produce the same success/failure and the same
//! answer (bindings compared up to variable renaming) as
//! [`granlog_engine::Machine`]. This pins the offer path: the independence
//! fallback, claiming arms back, cancelling them, and the deterministic
//! in-order join of whatever was stolen.
//!
//! Whether an arm actually crosses the spawn boundary on the executor is a
//! race, and at one thread none does. The tests that are *about* the
//! crossing — packing, unpacking, answer packets, the join's bindings —
//! therefore also run under [`support::EagerThief`], which steals every
//! offered arm on the calling thread.
//!
//! Counters are schedule-independent (join bindings are charged to nobody),
//! so they are compared too:
//! [`spawn_boundary_moves_no_observable_count`] holds `AlwaysSpawn` to
//! `Granularity::Off`'s counters and work, and `On` to the sequential
//! machine's on the annotated program it runs.

mod support;

use granlog_analysis::annotate::{apply_granularity_control, AnnotateOptions};
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_engine::{Budget, EngineResult, Machine, QueryOutcome};
use granlog_ir::parser::parse_program;
use granlog_ir::{AsTerm, Term, TermRef, View};
use granlog_par::{Granularity, ParConfig, ParExecutor, ParOutcome};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Canonicalizes a binding list: variables are renamed in first-occurrence
/// order across the whole list, so two answer sets that differ only in
/// variable numbering (sequential cell indices vs. parallel fresh
/// variables) compare equal, while sharing differences still show.
fn canonical_bindings(bindings: &[(granlog_ir::Symbol, Term)]) -> Vec<(String, String)> {
    fn canon(term: TermRef<'_>, map: &mut BTreeMap<usize, usize>, out: &mut String) {
        match term.view() {
            View::Var(v) => {
                let next = map.len();
                let id = *map.entry(v).or_insert(next);
                out.push_str(&format!("_V{id}"));
            }
            View::Struct(name, args) => {
                out.push_str(name.as_str());
                out.push('(');
                for (i, arg) in args.enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    canon(arg, map, out);
                }
                out.push(')');
            }
            _ => out.push_str(&term.to_string()),
        }
    }
    let mut map = BTreeMap::new();
    bindings
        .iter()
        .map(|(name, term)| {
            let mut s = String::new();
            canon(term.term_ref(), &mut map, &mut s);
            (name.to_string(), s)
        })
        .collect()
}

/// Runs one query sequentially and on the parallel executor under the given
/// configuration, asserting answer equivalence; returns the parallel outcome.
fn assert_differential(
    src: &str,
    query: &str,
    threads: usize,
    granularity: Granularity,
) -> ParOutcome {
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
    par
}

/// Runs one query sequentially and with every offered arm stolen
/// ([`support::EagerThief`]): both results, and how many arms crossed.
fn run_stolen(
    src: &str,
    query: &str,
) -> (
    EngineResult<QueryOutcome>,
    EngineResult<QueryOutcome>,
    usize,
) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("program does not parse: {e}"));
    let (goal, names) = granlog_ir::parser::parse_term(query).expect("query parses");
    let seq = Machine::new(&program).run_goal(&goal, &names);
    let thief = support::EagerThief::new(&program);
    let par = Machine::new(&program).solve_goal(&goal, &names, Some(&thief), &Budget::default());
    let stolen = thief.stolen.load(std::sync::atomic::Ordering::Relaxed);
    (seq, par, stolen)
}

/// [`run_stolen`] for a query that raises no error, asserting answer
/// equivalence; returns how many arms crossed.
fn assert_stolen_differential(src: &str, query: &str) -> usize {
    let (seq, par, stolen) = run_stolen(src, query);
    let (seq, par) = (seq.expect("sequential run"), par.expect("stolen run"));
    assert_eq!(seq.succeeded, par.succeeded, "{query}: success diverges");
    assert_eq!(
        canonical_bindings(&seq.bindings),
        canonical_bindings(&par.bindings),
        "{query}: answers diverge when every arm is stolen"
    );
    stolen
}

/// Every benchmark program (the 12 Table-1 entries, `nrev`, and the two
/// control extras) at its test size, across the full thread × granularity
/// matrix.
#[test]
fn benchmarks_parallel_equals_sequential() {
    for bench in support::fifteen_benchmarks() {
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
        prop_assert_eq!(assert_stolen_differential(POOL_SRC, &query), arms.len() - 1);
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

/// Renders a term as query text: variable `n` is `Vn`, floats keep their
/// decimal point.
fn term_text(term: TermRef<'_>) -> String {
    match term.view() {
        View::Var(v) => format!("V{v}"),
        View::Float(x) => format!("{x:?}"),
        View::Struct(name, args) => {
            let args: Vec<String> = args.map(term_text).collect();
            format!("{name}({})", args.join(","))
        }
        _ => term.to_string(),
    }
}

/// Terms over variables `V0..V4`, integers, floats, atoms and nested
/// structs: everything a packet has a cell tag for.
fn arb_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (0usize..5).prop_map(Term::var),
        (0i64..100).prop_map(Term::int),
        (0i64..400).prop_map(|q| Term::float(q as f64 / 4.0)),
        "[a-c]{1,2}".prop_map(|s| Term::atom(&s)),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(|args| Term::compound("f", args)),
            prop::collection::vec(inner, 2..3).prop_map(|args| Term::compound("g", args)),
        ]
    })
}

const PACKET_SRC: &str = "same(X, X).";

proptest! {
    /// `unpack(pack(t))` is a variant of `t`, both ways across the boundary:
    /// the stolen arm `same(t, Out)` ships `t` to a thief, whose answer
    /// ships it back as `Out` together with a fresh variable per unbound
    /// parent variable. The prefix aliases variables (bound `Ref` chains)
    /// and binds one to a struct before the spawn, so the packer meets
    /// shared and aliased unbound cells, chains and value cells, not just
    /// fresh ones. Canonical renaming runs across all the bindings, so lost
    /// or invented sharing between `Out` and the variables shows.
    #[test]
    fn packets_round_trip_to_a_variant(
        term in arb_term(),
        aliases in proptest::collection::vec((0usize..3, 0usize..3), 0..3),
        threads in 1usize..3,
    ) {
        let prefix: String = aliases.iter().map(|(a, b)| format!("V{a} = V{b}, ")).collect();
        let query = format!("{prefix}V3 = k(2.5, V4), (true & same({}, Out))", term_text(term.term_ref()));
        let stolen = assert_stolen_differential(PACKET_SRC, &query);
        prop_assert_eq!(stolen, 1, "{}: the arm must cross the boundary", query);
        let par = assert_differential(PACKET_SRC, &query, threads, Granularity::AlwaysSpawn);
        prop_assert_eq!(par.spawned_tasks, 2, "{}", query);
    }

    /// Fresh variables created in the child and shared across the bindings
    /// of one answer stay shared after the join.
    #[test]
    fn fresh_variables_shared_across_an_answer_stay_shared(
        left in arb_term(),
        right in arb_term(),
        threads in 1usize..3,
    ) {
        let src = format!("mk({}, {}).", term_text(left.term_ref()), term_text(right.term_ref()));
        prop_assert_eq!(assert_stolen_differential(&src, "mk(_, _) & mk(A, B)"), 1);
        let par = assert_differential(&src, "mk(_, _) & mk(A, B)", threads, Granularity::AlwaysSpawn);
        prop_assert_eq!(par.spawned_tasks, 2);
    }

    /// Two arms that mention one unbound parent cell are declined while
    /// packing, wherever in the arms the cell sits.
    #[test]
    fn arms_sharing_an_unbound_cell_are_declined(
        left in arb_term(),
        right in arb_term(),
        threads in 1usize..3,
    ) {
        let query = format!(
            "same(f({}, V0), Out) & same(g(V0, {}), Back)",
            term_text(left.term_ref()),
            term_text(right.term_ref()),
        );
        let par = assert_differential(PACKET_SRC, &query, threads, Granularity::AlwaysSpawn);
        prop_assert_eq!(par.spawned_tasks, 0, "{}", query);
        prop_assert_eq!(par.inlined_conjunctions, 1);
    }
}

/// A list far longer than any native stack is deep crosses the boundary:
/// packing and unpacking are iterative. (The `Term`-tree boundary recursed
/// once per list cell and overflowed the worker's stack — an abort no
/// `catch_unwind` can contain — from about 20 000 elements.)
#[test]
fn long_lists_cross_the_spawn_boundary() {
    const N: usize = 60_000;
    let src = r#"
        mk(0, []).
        mk(N, [N|T]) :- N > 0, N1 is N - 1, mk(N1, T).
        len([], 0).
        len([_|T], N) :- len(T, M), N is M + 1.
        both(L, A, B) :- len(L, A) & len(L, B).
        go(N, A, B) :- mk(N, L), both(L, A, B).
    "#;
    let query = format!("go({N}, A, B)");
    assert_eq!(
        assert_stolen_differential(src, &query),
        1,
        "`len(L, B)` and its 60 000-cell list must cross"
    );
    for granularity in [Granularity::Off, Granularity::On, Granularity::AlwaysSpawn] {
        let par = assert_differential(src, &query, 2, granularity);
        assert!(par.succeeded);
        for name in ["A", "B"] {
            assert_eq!(
                par.binding(name),
                Some(&Term::int(N as i64)),
                "{granularity:?}"
            );
        }
        assert_eq!(par.spawned_tasks > 0, granularity != Granularity::Off);
    }
}

/// Neither the spawn boundary nor the schedule is observable in the
/// counts: on the input-independent benchmark goals, `AlwaysSpawn` at 1, 2
/// and 4 threads reports exactly `Granularity::Off`'s operation counters and
/// work, run after run — whichever arms were stolen — and so does a run in
/// which *every* arm is stolen; `On` reports exactly what the sequential
/// machine does on the annotated program it runs, grain tests included.
/// What makes that true by construction is that the join's bindings are
/// charged to no counter. The spawn counts under `On` are the annotator's
/// decisions, pinned here to the values they have always had; no
/// conjunction that reaches `&` there has dependent arms, so none is
/// inlined. On the test thread's own stack: `hanoi(11)`'s 2 047-move answer
/// leaves the arena by a loop.
#[test]
fn spawn_boundary_moves_no_observable_count() {
    for (name, size, spawned) in [
        ("fib", 19, 752),
        ("hanoi", 11, 510),
        ("tree_traversal", 12, 8_190),
        ("matrix_mult", 24, 48),
    ] {
        let bench = granlog_benchmarks::benchmark(name).expect("suite program");
        let program = bench.program().expect("suite program parses");
        let query = bench.query(size);
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let options = AnnotateOptions {
            overhead: ParConfig::default().overhead,
        };
        let annotated = apply_granularity_control(&program, &analysis, &options).program;
        let controlled = Machine::new(&annotated)
            .run_query(&query)
            .expect("annotated query runs");
        let run = |threads, granularity| {
            let mut executor = ParExecutor::new(
                &program,
                ParConfig {
                    threads,
                    granularity,
                    ..ParConfig::default()
                },
            );
            let out = executor.run_query(&query).expect("query runs");
            assert!(out.succeeded);
            out
        };
        let off = run(1, Granularity::Off);
        assert_eq!((off.spawned_tasks, off.inlined_conjunctions), (0, 0));
        for threads in [1, 2, 4] {
            for granularity in [Granularity::On, Granularity::AlwaysSpawn] {
                for attempt in 0..10 {
                    let out = run(threads, granularity);
                    let what = format!(
                        "{name}({size}), {granularity:?}, {threads} threads, run {attempt}"
                    );
                    if granularity == Granularity::On {
                        assert_eq!(out.counters, controlled.counters, "{what}");
                        assert_eq!(out.counters.work(), controlled.counters.work(), "{what}");
                        assert_eq!(
                            (out.spawned_tasks, out.inlined_conjunctions),
                            (spawned, 0),
                            "{what}"
                        );
                    } else {
                        assert_eq!(out.counters, off.counters, "{what}");
                        assert_eq!(out.counters.work(), off.counters.work(), "{what}");
                    }
                }
            }
        }
        let (seq, stolen, crossed) = run_stolen(bench.source, &query);
        let (seq, stolen) = (seq.expect("sequential run"), stolen.expect("stolen run"));
        assert!(crossed > 0, "{name}({size}) has conjunctions to steal");
        assert_eq!(
            seq.counters, off.counters,
            "{name}({size}): Off is the sequential engine"
        );
        assert_eq!(
            stolen.counters, off.counters,
            "{name}({size}) with every arm stolen"
        );
        assert_eq!(
            stolen.counters.work(),
            off.counters.work(),
            "{name}({size}) with every arm stolen"
        );
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
    // Thieves that steal from inside stolen arms: 2^6 - 1 conjunctions.
    assert_eq!(assert_stolen_differential(src, "tree(6, R)"), 63);
    assert_eq!(assert_stolen_differential(src, "negated(5)"), 1);
}

/// A failing arm must fail the conjunction identically in both engines,
/// including when the failure arrives from a thief, and an arm that raises
/// must raise the same error from there.
#[test]
fn failing_arms_match_sequential() {
    let src = r#"
        ok(_, done).
        pick(N, R) :- ( N > 5, ok(N, R) & ok(N, _) ; R = small ).
        lost(N, R) :- ( ok(N, R) & N > 5 & ok(N, _) ; R = small ).
        bad(N) :- ok(N, _) & undefined_pred(N).
    "#;
    for threads in [1, 2, 4] {
        assert_differential(src, "pick(9, R)", threads, Granularity::AlwaysSpawn);
        assert_differential(src, "pick(2, R)", threads, Granularity::AlwaysSpawn);
        assert_differential(src, "lost(2, R)", threads, Granularity::AlwaysSpawn);
    }
    // A stolen arm fails: the conjunction fails at the join, its bindings
    // are undone and the disjunction's other branch answers.
    assert_eq!(assert_stolen_differential(src, "lost(2, R)"), 2);
    assert_eq!(assert_stolen_differential(src, "lost(9, R)"), 2);
    // A stolen arm raises: the join raises what the sequential engine does.
    let (seq, par, stolen) = run_stolen(src, "bad(1)");
    assert_eq!(stolen, 1);
    let (seq, par) = (seq.unwrap_err(), par.unwrap_err());
    assert!(
        matches!(seq, granlog_engine::EngineError::UnknownPredicate(_)),
        "{seq}"
    );
    assert_eq!(seq, par);
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
