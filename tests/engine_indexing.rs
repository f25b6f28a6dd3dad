//! Differential properties for clause indexing and the arena/goal-stack
//! engine core.
//!
//! The compiled image's flat first-argument index must be observationally
//! identical to the reference per-call linear scan (the seed engine's
//! behaviour, kept as [`ClauseSelection::LinearScan`]): same success/failure,
//! same bindings, same operation counters (which pins the clause-trial
//! *order* — a different candidate order changes `head_attempts`), and the
//! same recorded task tree. The deep-backtracking properties additionally
//! exercise the machinery the arena rewrite introduced: explicit
//! choice-point records, goal-stack restoration of continuations shared
//! across disjunction arms and clause retries, and arena truncation to the
//! heap mark after failed activations that built compound terms. The
//! control-construct properties exercise the compiled control skeleton —
//! nested `;`/`->`/`\+` step sequences, real cut pruning under deep
//! backtracking, and control inside `&` arms — against the same reference.
//! The index's candidate lists themselves are held to that scan by
//! `granlog-engine`'s `image` unit tests.

use granlog_engine::{ClauseSelection, Machine, MachineConfig, RecordedOutcome};
use granlog_ir::parser::parse_program;
use granlog_ir::{AsTerm, Term, View};
use proptest::prelude::*;

/// First-argument shapes covering atoms, ints, structs and variables.
const FIRST_ARGS: &[&str] = &["a", "b", "c", "7", "13", "f(k)", "f(W)", "g(1, 2)", "V"];

/// Probe terms for call-site first arguments (a superset: includes keys no
/// clause has, plus an unbound variable).
const PROBES: &[&str] = &[
    "a", "b", "c", "7", "13", "f(k)", "f(z)", "g(1, 2)", "zzz", "99", "Q",
];

fn program_src(first_args: &[usize]) -> String {
    let mut src = String::new();
    for (i, &fa) in first_args.iter().enumerate() {
        src.push_str(&format!(
            "p({}, {}).\n",
            FIRST_ARGS[fa % FIRST_ARGS.len()],
            i
        ));
    }
    src
}

fn run(src: &str, query: &str, selection: ClauseSelection) -> RecordedOutcome {
    let program = parse_program(src).unwrap_or_else(|e| panic!("program does not parse: {e}"));
    let mut machine = Machine::with_config(
        &program,
        MachineConfig {
            clause_selection: selection,
            ..MachineConfig::default()
        },
    );
    machine
        .run_query_recorded(query)
        .unwrap_or_else(|e| panic!("query {query} failed: {e}"))
}

/// Runs a query under both clause-selection strategies, asserts full
/// observational equivalence, and returns the indexed outcome.
fn run_differential(src: &str, query: &str) -> RecordedOutcome {
    let indexed = run(src, query, ClauseSelection::Indexed);
    let scanned = run(src, query, ClauseSelection::LinearScan);
    assert_equivalent(&indexed, &scanned, query);
    indexed
}

fn assert_equivalent(a: &RecordedOutcome, b: &RecordedOutcome, context: &str) {
    assert_eq!(a.task_tree, b.task_tree, "task tree differs: {context}");
    let (a, b) = (&a.outcome, &b.outcome);
    assert_eq!(a.succeeded, b.succeeded, "success differs: {context}");
    assert_eq!(a.bindings, b.bindings, "bindings differ: {context}");
    assert_eq!(a.counters, b.counters, "counters differ: {context}");
    assert_eq!(
        a.counters.work(),
        b.counters.work(),
        "work differs: {context}"
    );
}

/// Renders a small digraph over atoms `n0..n5` as `edge/2` facts.
fn edge_facts(edges: &[(usize, usize)]) -> String {
    let mut src = String::new();
    for &(a, b) in edges {
        src.push_str(&format!("edge(n{}, n{}).\n", a % 6, b % 6));
    }
    src
}

/// A Peano numeral `s(s(...0...))` of the given depth.
fn peano(n: usize) -> String {
    let mut t = "0".to_owned();
    for _ in 0..n {
        t = format!("s({t})");
    }
    t
}

proptest! {
    /// The indexed engine and the reference scan produce identical outcomes
    /// (success, bindings, counters, work, task tree) on single-solution
    /// queries over mixed atom/int/struct/var first arguments.
    #[test]
    fn indexed_engine_matches_linear_scan(
        first_args in prop::collection::vec(0usize..9, 1..12),
        probe in 0usize..11,
    ) {
        let src = program_src(&first_args);
        let query = format!("p({}, R)", PROBES[probe % PROBES.len()]);
        run_differential(&src, &query);
    }

    /// Backtracking across candidates visits clauses in the same order under
    /// both selection strategies: a guard forces the engine past earlier
    /// matches, and the surviving binding plus the head-attempt counter pin
    /// the trial order.
    #[test]
    fn backtracking_order_is_preserved(
        first_args in prop::collection::vec(0usize..9, 1..12),
        probe in 0usize..11,
        threshold in 0i64..12,
    ) {
        let src = program_src(&first_args);
        let query = format!("p({}, R), R >= {threshold}", PROBES[probe % PROBES.len()]);
        let indexed = run_differential(&src, &query);
        if indexed.outcome.succeeded {
            let r = indexed.outcome.binding("R").expect("R bound on success");
            prop_assert!(matches!(r.view(), View::Int(v) if v >= threshold));
        }
    }

    /// Deep chronological backtracking over a random digraph: `reach/3`
    /// keeps a clause choice point open per recursion level (every `edge`
    /// call retries the whole variable-headed bucket), so failure paths
    /// unwind long chains of choice-point records, restore the goal stack,
    /// and truncate the arena past the `s(_)` depth counters built per
    /// activation. Both engines must agree on everything, including the
    /// operation counters that pin the retry order.
    #[test]
    fn deep_backtracking_matches_linear_scan(
        edges in prop::collection::vec((0usize..6, 0usize..6), 1..14),
        from in 0usize..6,
        to in 0usize..6,
        depth in 0usize..6,
    ) {
        let mut src = edge_facts(&edges);
        src.push_str("reach(X, X, _).\n");
        src.push_str("reach(X, Y, s(D)) :- edge(X, Z), reach(Z, Y, D).\n");
        let query = format!("reach(n{from}, n{to}, {})", peano(depth));
        run_differential(&src, &query);
    }

    /// Disjunction arms share their continuation on the goal stack: after
    /// the left arm consumes it and fails, the goal trail must re-expose the
    /// identical continuation for the right arm. The guard value selects how
    /// deep the failure happens; counters pin that both engines replayed the
    /// same goals the same number of times.
    #[test]
    fn shared_continuations_replay_identically(
        edges in prop::collection::vec((0usize..6, 0usize..6), 1..10),
        left in 0usize..6,
        right in 0usize..6,
        hops in 1usize..4,
    ) {
        let mut src = edge_facts(&edges);
        src.push_str("hop(X, Y) :- edge(X, Y).\n");
        src.push_str("hop(X, Y) :- edge(X, Z), hop(Z, Y).\n");
        // The continuation after the disjunction is a chain of hop/2 calls,
        // re-run per arm and per retry of the arms' clause buckets.
        let mut chain = String::new();
        let mut prev = "W0".to_owned();
        for k in 1..=hops {
            chain.push_str(&format!(", hop({prev}, W{k})"));
            prev = format!("W{k}");
        }
        let query = format!("( W0 = n{left} ; W0 = n{right} ){chain}, edge({prev}, _)");
        run_differential(&src, &query);
    }

    /// Failed activations that build compound structure must leave no trace:
    /// `wrap/2` constructs nested `f/2` terms before a guard fails, so every
    /// retry exercises arena truncation to the choice point's heap mark.
    /// Machine reuse across queries doubles as a reset check.
    #[test]
    fn arena_truncation_is_invisible(
        xs in prop::collection::vec(0i64..30, 1..10),
        threshold in 0i64..30,
    ) {
        let src = r#"
            wrap(X, f(X, g(X))).
            pick([X|_], W) :- wrap(X, W), ok(W).
            pick([_|T], W) :- pick(T, W).
            ok(f(X, _)) :- X >= 0.
        "#;
        let list: Vec<String> = xs.iter().map(|x| (x - threshold).to_string()).collect();
        let query = format!("pick([{}], W)", list.join(","));
        let indexed = run_differential(src, &query);
        // Same machine, same query again: the per-query reset of arena,
        // trail, goal stack and choice points must reproduce the outcome.
        let program = parse_program(src).unwrap();
        let mut machine = Machine::new(&program);
        let first = machine.run_query_recorded(&query).unwrap();
        let second = machine.run_query_recorded(&query).unwrap();
        assert_equivalent(&first, &second, "machine reuse");
        assert_equivalent(&first, &indexed, "fresh vs reused machine");
    }

    /// Naive reverse with a failing probe tail under both selection
    /// strategies: the recursive, backtracking workload the seed suite used
    /// to pin the (now removed) path-compression flag, kept as a pure
    /// engine-core differential.
    #[test]
    fn nrev_outcomes_match(xs in prop::collection::vec(0i64..50, 0..15)) {
        let src = r#"
            nrev([], []).
            nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
            append([], L, L).
            append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
        "#;
        let list: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
        let query = format!("nrev([{}], R)", list.join(","));
        let outcome = run_differential(src, &query);
        if !xs.is_empty() {
            let reversed = outcome.outcome.binding("R").unwrap().as_list().unwrap();
            prop_assert_eq!(reversed.len(), xs.len());
            prop_assert_eq!(reversed[0], Term::int(*xs.last().unwrap()));
        }
    }

    /// Parallel conjunctions inside backtracking contexts: task trees (fork
    /// spans, per-arm work) must match between the selection strategies even
    /// when earlier candidates fail and the fork is re-recorded on retry.
    #[test]
    fn task_trees_match_under_backtracking(
        n in 0usize..8,
        cutoff in 0usize..8,
    ) {
        let src = r#"
            work(0).
            work(N) :- N > 0, N1 is N - 1, work(N1).
            try(N) :- N < 0, work(N) & work(N).
            try(N) :- N >= 0, work(N) & work(N).
            both(N, C) :- try(N), '$grain_ge'([a,b,c], length, C).
        "#;
        let query = format!("both({n}, {cutoff})");
        let outcome = run_differential(src, &query);
        if outcome.outcome.succeeded {
            prop_assert_eq!(outcome.task_tree.spawned_tasks(), 2);
        }
    }

    /// Cut under deep backtracking: `first/2` commits to the first list
    /// member, and the guard behind it forces failure paths that must not
    /// resurrect the pruned alternatives. Counters pin that both selection
    /// strategies prune the identical choice points at the identical time.
    #[test]
    fn cut_prunes_identically_under_both_strategies(
        xs in prop::collection::vec(0i64..20, 1..10),
        threshold in 0i64..20,
    ) {
        let src = r#"
            memb(X, [X|_]).
            memb(X, [_|T]) :- memb(X, T).
            first(X, L) :- memb(X, L), !.
            probe(L, T, R) :- ( first(R, L), R >= T, ! ; R = none ).
        "#;
        let list: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
        let query = format!("probe([{}], {threshold}, R)", list.join(","));
        let outcome = run_differential(src, &query);
        prop_assert!(outcome.outcome.succeeded);
        // The committed answer is the head of the list if it clears the
        // threshold, `none` otherwise — cut forbids trying later members.
        let expected = if xs[0] >= threshold {
            Term::int(xs[0])
        } else {
            Term::atom("none")
        };
        prop_assert_eq!(outcome.outcome.binding("R").unwrap(), &expected);
    }

    /// Random nesting of `;`, `->`, `\+` and `!` executed per list element:
    /// the compiled control skeleton (templates) and the runtime cell path
    /// must agree with the reference scan on bindings and every counter.
    #[test]
    fn nested_control_matches_linear_scan(
        xs in prop::collection::vec(-10i64..10, 1..12),
        pivot in -10i64..10,
    ) {
        let src = format!(r#"
            sign(X, neg) :- X < 0, !.
            sign(X, zero) :- ( X =:= 0 -> true ; fail ), !.
            sign(_, pos).
            keepable(X) :- \+ bad(X).
            bad(X) :- X =:= {pivot}.
            cls([], []).
            cls([X|Xs], [S|Ss]) :-
                ( keepable(X) -> sign(X, S) ; S = dropped ),
                cls(Xs, Ss).
        "#);
        let list: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
        let query = format!("cls([{}], Out)", list.join(","));
        let outcome = run_differential(&src, &query);
        prop_assert!(outcome.outcome.succeeded);
        let out = outcome.outcome.binding("Out").unwrap().as_list().unwrap();
        for (x, s) in xs.iter().zip(out) {
            let expected = if *x == pivot {
                "dropped"
            } else if *x < 0 {
                "neg"
            } else if *x == 0 {
                "zero"
            } else {
                "pos"
            };
            prop_assert_eq!(s.to_string(), expected, "element {}", x);
        }
    }

    /// Control constructs over a random digraph with deep backtracking:
    /// disjunction-with-cut inside a recursive search, guarded by a trailing
    /// negation. Every failure path unwinds cut-pruned choice-point chains,
    /// and both strategies must replay them identically (counters pin it).
    #[test]
    fn cut_and_negation_in_deep_search_match(
        edges in prop::collection::vec((0usize..6, 0usize..6), 1..12),
        from in 0usize..6,
        to in 0usize..6,
        depth in 0usize..5,
    ) {
        let mut src = edge_facts(&edges);
        src.push_str("step(X, Y) :- ( edge(X, Y), ! ; edge(Y, X) ).\n");
        src.push_str("walk(X, X, _).\n");
        src.push_str("walk(X, Y, s(D)) :- step(X, Z), walk(Z, Y, D).\n");
        src.push_str("probe(X, Y, D) :- walk(X, Y, D), \\+ edge(Y, X).\n");
        let query = format!("probe(n{from}, n{to}, {})", peano(depth));
        run_differential(&src, &query);
    }

    /// Parallel conjunctions whose arms contain compiled control (an
    /// if-then-else and a negation): fork structure, per-arm work and
    /// counters must match between strategies, including when an arm's
    /// control construct fails the whole conjunction.
    #[test]
    fn control_inside_parallel_arms_matches(
        n in 0i64..12,
        limit in 0i64..12,
    ) {
        let src = r#"
            work(0).
            work(N) :- N > 0, N1 is N - 1, work(N1).
            arm(N, L) :- ( N < L -> work(N) ; work(L) ).
            other(N) :- \+ bad(N), work(N).
            bad(N) :- N < 0.
            both(N, L) :- arm(N, L) & other(N).
        "#;
        let query = format!("both({n}, {limit})");
        let outcome = run_differential(src, &query);
        prop_assert!(outcome.outcome.succeeded);
        prop_assert_eq!(outcome.task_tree.spawned_tasks(), 2);
    }
}
