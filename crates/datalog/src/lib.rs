//! Bottom-up (Datalog) evaluation over the granlog IR — a sibling engine to
//! SLD resolution.
//!
//! The paper's granularity analysis is engine-agnostic: its cost and size
//! estimates describe the clause base, not the evaluation strategy. This
//! crate adds the second consumer the ROADMAP names — a set-at-a-time,
//! join-dominated workload shape — and, because two independent engines
//! over one program are each other's oracle, every Datalog-subset program
//! doubles as a differential test of both.
//!
//! Pipeline: [`CompiledDatalog::compile`] validates a
//! [`granlog_ir::Program`] against the Datalog subset (rejecting cut,
//! disjunction, arithmetic, builtins, metacalls and non-ground compound
//! arguments with a typed [`DatalogError`] naming the offending clause),
//! checks range restriction, stratifies negation, and flattens every rule
//! into an indexed join plan. [`CompiledDatalog::evaluate`] then loads the
//! ground facts into relations sized for them and runs the stratified
//! semi-naive fixpoint into an immutable [`Database`], which shares the
//! program's constant table, and
//! [`Database::query`] answers conjunctive goals with *all* answers: rows
//! of constant ids in one flat [`Rows`] store, read as source-level
//! [`granlog_ir::Term`]s directly comparable to SLD answer sets.

#![forbid(unsafe_code)]

mod compile;
mod error;
mod eval;

pub use compile::CompiledDatalog;
pub use error::DatalogError;
pub use eval::{Database, FixpointStats, QueryAnswers, Rows};

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::parser::{parse_program, parse_term};
    use granlog_ir::{PredId, Symbol, Term};

    fn db(src: &str) -> Database {
        let program = parse_program(src).expect("program parses");
        CompiledDatalog::compile(&program)
            .expect("compiles")
            .evaluate()
            .expect("evaluates")
    }

    fn rows(db: &Database, query: &str) -> Vec<Vec<String>> {
        let (goal, names) = parse_term(query).expect("query parses");
        let answers = db.query(&goal, &names).expect("query runs");
        (0..answers.rows.len())
            .map(|i| answers.rows.row(i).map(Term::to_string).collect())
            .collect()
    }

    fn sorted(mut v: Vec<Vec<String>>) -> Vec<Vec<String>> {
        v.sort();
        v
    }

    const GRAPH: &str = "
        edge(a, b). edge(b, c). edge(c, d). edge(b, d).
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- path(X, Z), edge(Z, Y).
    ";

    #[test]
    fn transitive_closure() {
        let db = db(GRAPH);
        let got = sorted(rows(&db, "path(a, X)"));
        assert_eq!(got, vec![vec!["b"], vec!["c"], vec!["d"]]);
        assert_eq!(db.relation_size(PredId::parse("path", 2)), 6);
        assert!(rows(&db, "path(a, d)").len() == 1);
        assert!(rows(&db, "path(d, a)").is_empty());
    }

    #[test]
    fn traced_evaluation_matches_plain_and_emits_rounds() {
        let program = parse_program(GRAPH).expect("program parses");
        let compiled = CompiledDatalog::compile(&program).expect("compiles");
        let plain = compiled.evaluate().expect("evaluates");
        let tracer = granlog_obs::Tracer::new(256);
        let traced = compiled
            .evaluate_traced(Some(&tracer))
            .expect("evaluates traced");
        // Tracing must not perturb the fixpoint.
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(
            plain.relation_size(PredId::parse("path", 2)),
            traced.relation_size(PredId::parse("path", 2))
        );
        let events = tracer.events();
        let strata = events
            .iter()
            .filter(|e| e.kind == "datalog_stratum")
            .count();
        let rounds = events.iter().filter(|e| e.kind == "datalog_round").count();
        assert!(strata >= 1, "no stratum events");
        assert_eq!(rounds as u64, traced.stats().rounds);
    }

    #[test]
    fn stratified_negation() {
        let db = db("
            node(a). node(b). node(c).
            edge(a, b).
            reach(a).
            reach(Y) :- reach(X), edge(X, Y).
            unreached(X) :- node(X), \\+ reach(X).
        ");
        assert_eq!(sorted(rows(&db, "unreached(X)")), vec![vec!["c"]]);
        assert_eq!(sorted(rows(&db, "reach(X)")), vec![vec!["a"], vec!["b"]]);
    }

    #[test]
    fn ground_compound_constants_join() {
        let db = db("
            holds(key(red), door1). holds(key(blue), door2).
            opens(K, D) :- holds(K, D).
        ");
        assert_eq!(sorted(rows(&db, "opens(key(red), D)")), vec![vec!["door1"]]);
        // An unknown constant matches nothing positively...
        assert!(rows(&db, "opens(key(green), D)").is_empty());
        // ...and passes a negated membership test.
        let got = rows(&db, "holds(K, door1), \\+ holds(K, door2)");
        assert_eq!(got, vec![vec!["key(red)"]]);
    }

    #[test]
    fn conjunctive_query_with_repeated_vars() {
        let db = db(GRAPH);
        // Two-hop via the same intermediate spelled twice.
        let got = sorted(rows(&db, "edge(a, M), edge(M, Y)"));
        assert_eq!(got, vec![vec!["b", "c"], vec!["b", "d"]]);
        // Repeated variable inside one literal.
        let looped = super::tests::db("loop(a, a). loop(a, b). self(X) :- loop(X, X).");
        assert_eq!(rows(&looped, "self(X)"), vec![vec!["a"]]);
    }

    #[test]
    fn mutual_recursion_in_one_stratum() {
        let db = db("
            start(0). succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4).
            even(X) :- start(X).
            odd(Y) :- even(X), succ(X, Y).
            even(Y) :- odd(X), succ(X, Y).
        ");
        assert_eq!(
            sorted(rows(&db, "even(X)")),
            vec![vec!["0"], vec!["2"], vec!["4"]]
        );
        assert_eq!(sorted(rows(&db, "odd(X)")), vec![vec!["1"], vec!["3"]]);
    }

    #[test]
    fn ground_and_zero_var_queries() {
        let db = db(GRAPH);
        let (goal, names) = parse_term("path(a, d)").unwrap();
        let answers = db.query(&goal, &names).unwrap();
        assert!(answers.succeeded());
        assert!(answers.vars.is_empty());
        // A row of width 0 still counts as an answer.
        assert_eq!(answers.rows.len(), 1);
        assert_eq!(answers.rows.row(0).len(), 0);
        assert!(answers.bindings(0).is_empty());
        let (goal, names) = parse_term("path(d, a)").unwrap();
        let answers = db.query(&goal, &names).unwrap();
        assert!(!answers.succeeded());
        assert_eq!(answers.rows.len(), 0);
    }

    #[test]
    fn undefined_predicate_is_an_empty_relation() {
        let db = db("p(X) :- q(X), ghost(X). q(a).");
        assert!(rows(&db, "p(X)").is_empty());
        let db2 = db2_helper();
        assert_eq!(rows(&db2, "alive(X)"), vec![vec!["a"]]);
    }

    fn db2_helper() -> Database {
        db("q(a). alive(X) :- q(X), \\+ ghost(X).")
    }

    #[test]
    fn rejects_non_datalog_constructs() {
        let cases: &[(&str, &str)] = &[
            ("p(X) :- q(X), !.", "cut `!`"),
            ("p(X) :- q(X) ; r(X).", "disjunction `;`"),
            ("p(X) :- ( q(X) -> r(X) ; s(X) ).", "if-then-else"),
            ("p(X, Y) :- Y is X + 1.", "builtin `is/2`"),
            ("p(X) :- X > 1.", "builtin `>/2`"),
            ("p(X) :- call(X).", "metacall"),
            ("p(X) :- X.", "metacall (variable goal)"),
            ("p(f(X)) :- q(X).", "non-ground compound argument"),
        ];
        for (src, needle) in cases {
            let program = parse_program(src).expect("parses");
            let err = CompiledDatalog::compile(&program).expect_err(src);
            match &err {
                DatalogError::NotDatalog { clause, construct } => {
                    assert!(
                        construct.contains(needle),
                        "{src}: expected construct containing {needle:?}, got {construct:?}"
                    );
                    assert!(
                        clause.contains(":-"),
                        "{src}: diagnostic names the clause, got {clause:?}"
                    );
                }
                other => panic!("{src}: expected NotDatalog, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_non_stratified_negation() {
        let program = parse_program("p(X) :- q(X), \\+ p(X). q(a).").unwrap();
        let err = CompiledDatalog::compile(&program).unwrap_err();
        assert!(matches!(err, DatalogError::NotStratified { .. }), "{err:?}");
        // Mutual negative cycle.
        let program =
            parse_program("win(X) :- move(X, Y), \\+ win(Y). move(a, b). move(b, a).").unwrap();
        let err = CompiledDatalog::compile(&program).unwrap_err();
        match err {
            DatalogError::NotStratified { pred, clause } => {
                assert_eq!(pred, "win/1");
                assert!(clause.contains("win"), "{clause}");
            }
            other => panic!("expected NotStratified, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unsafe_clauses() {
        for src in [
            "p(X).",             // non-ground fact
            "p(X) :- \\+ q(X).", // var only under negation
            "p(X, Y) :- q(X).",  // head var not in body
        ] {
            let program = parse_program(src).unwrap();
            let err = CompiledDatalog::compile(&program).unwrap_err();
            assert!(
                matches!(err, DatalogError::UnsafeClause { .. }),
                "{src}: {err:?}"
            );
        }
    }

    #[test]
    fn unsafe_query_is_rejected() {
        let db = db(GRAPH);
        let (goal, names) = parse_term("\\+ path(X, b)").unwrap();
        let err = db.query(&goal, &names).unwrap_err();
        match err {
            DatalogError::UnsafeClause { var, .. } => assert_eq!(var, "X"),
            other => panic!("expected UnsafeClause, got {other:?}"),
        }
    }

    #[test]
    fn semi_naive_derives_each_fact_once_on_a_chain() {
        // 40-node chain: rounds grow linearly, derived facts exactly n-1
        // for reach/1 beyond the seed.
        let mut src = String::from("reach(h0).\n");
        for i in 0..40 {
            src.push_str(&format!("link(h{}, h{}).\n", i, i + 1));
        }
        src.push_str("reach(T) :- reach(S), link(S, T).\n");
        let db = db(&src);
        assert_eq!(db.relation_size(PredId::parse("reach", 1)), 41);
        let stats = db.stats();
        assert_eq!(stats.derived_facts, 40);
        assert_eq!(stats.edb_facts, 41);
        // One seeding round plus one round per chain hop plus the empty
        // closing round.
        assert!(stats.rounds >= 40, "rounds = {}", stats.rounds);
    }

    #[test]
    fn partially_bound_query_probes_a_registered_index() {
        // The recursive rule's delta variant probes `link` by its first
        // column, so that index exists; nothing indexes the second column.
        let mut src = String::from("reach(h0).\nreach(T) :- link(S, T), reach(S).\n");
        for i in 0..50 {
            src.push_str(&format!("link(h{}, h{}).\n", i, i + 1));
        }
        let db = db(&src);
        let probe = |query: &str| {
            let (goal, names) = parse_term(query).unwrap();
            let answers = db.query(&goal, &names).unwrap();
            (answers.rows.len(), answers.tuples_tried)
        };
        assert_eq!(probe("link(h7, X)"), (1, 1), "indexed: one posting tried");
        assert_eq!(probe("link(X, h7)"), (1, 50), "no such index: a scan");
        assert_eq!(probe("link(h7, X), link(X, Y)"), (1, 2));
        assert_eq!(probe("link(h7, h8)"), (1, 1), "all bound: one membership");
    }

    #[test]
    fn answers_are_source_terms() {
        let db = db("holds(key(red), door1). opens(K, D) :- holds(K, D).");
        let (goal, names) = parse_term("opens(K, D)").unwrap();
        let answers = db.query(&goal, &names).unwrap();
        assert_eq!(answers.vars, vec![Symbol::intern("K"), Symbol::intern("D")]);
        assert_eq!(answers.rows.len(), 1);
        let row: Vec<&Term> = answers.rows.row(0).collect();
        assert_eq!(*row[0], parse_term("key(red)").unwrap().0);
        let bindings = answers.bindings(0);
        assert_eq!(bindings[0].1, *row[0]);
        assert_eq!(bindings[1].1, Term::atom("door1"));
    }

    /// `reach/1` has both facts (one of them repeated) and a rule, so one
    /// relation is filled by both loading and the fixpoint.
    const REACH: &str = "
        reach(a). reach(a).
        edge(a, b). edge(b, c). edge(c, d). edge(x, y).
        reach(T) :- edge(S, T), reach(S).
    ";

    #[test]
    fn every_evaluation_starts_from_the_same_facts() {
        let program = parse_program(REACH).expect("program parses");
        let compiled = CompiledDatalog::compile(&program).expect("compiles");
        let queries = ["reach(X)", "edge(S, T)", "reach(X), edge(X, Y)"];
        let seen = |db: &Database| {
            let sizes: Vec<(PredId, usize)> = db.predicates().collect();
            let answers: Vec<_> = queries.iter().map(|q| rows(db, q)).collect();
            (*db.stats(), sizes, answers)
        };
        let first = seen(&compiled.evaluate().expect("evaluates"));
        let (stats, sizes, answers) = &first;
        assert_eq!(stats.edb_facts, 5, "the repeated fact counts once");
        assert_eq!(stats.derived_facts, 3);
        assert!(sizes.contains(&(PredId::parse("reach", 1), 4)), "{sizes:?}");
        assert_eq!(answers[0], vec![vec!["a"], vec!["b"], vec!["c"], vec!["d"]]);
        for _ in 0..2 {
            assert_eq!(seen(&compiled.evaluate().expect("evaluates")), first);
        }
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| s.spawn(|| seen(&compiled.evaluate().expect("evaluates"))))
                .collect();
            runs.into_iter()
                .map(|r| r.join().expect("no panic"))
                .collect()
        });
        for got in concurrent {
            assert_eq!(got, first);
        }
    }

    #[test]
    fn idb_listing_and_strata() {
        let program = parse_program(
            "n(a). e(a, b).
             r(a).
             r(Y) :- r(X), e(X, Y).
             iso(X) :- n(X), \\+ r(X).",
        )
        .unwrap();
        let compiled = CompiledDatalog::compile(&program).unwrap();
        assert_eq!(compiled.num_strata(), 2);
        assert_eq!(compiled.num_rules(), 2);
        let idb = compiled.idb_predicates();
        assert!(idb.contains(&PredId::parse("r", 1)));
        assert!(idb.contains(&PredId::parse("iso", 1)));
        assert!(!idb.contains(&PredId::parse("e", 2)));
    }
}
