//! Differential oracle for the bottom-up engine: semi-naive fixpoint
//! answers cross-checked against SLD resolution.
//!
//! Two independent engines over one program are each other's oracle. For
//! every Datalog-subset program here the suite checks three directions:
//!
//! - **soundness** — every fact the fixpoint derives must succeed as a
//!   ground SLD query;
//! - **completeness** — every active-domain tuple the fixpoint did *not*
//!   derive must fail as a ground SLD query;
//! - **first-solution consistency** — an open SLD query's first answer
//!   must be a member of the bottom-up answer set (SLD returns one
//!   solution, the fixpoint returns all of them).
//!
//! The attack-graph rules are deliberately right-recursive and every
//! generated topology is a DAG (links go strictly lower → higher host
//! index), so the ground SLD queries terminate; a left-recursive `reach`
//! would diverge under SLD and no differential oracle would exist.
//!
//! Comparison is order-insensitive: answers are rendered to canonical
//! strings and collected into sets, so derivation order (which legitimately
//! differs between engines and between semi-naive rounds) never matters.

use granlog_benchmarks::{all_benchmarks, datalog_benchmarks, generate, ATTACK_RULES};
use granlog_datalog::{CompiledDatalog, Database, DatalogError, QueryAnswers};
use granlog_engine::{Machine, MachineConfig};
use granlog_ir::parser::{parse_program, parse_term};
use granlog_ir::{Program, Symbol, Term};
use granlog_par::{Granularity, ParConfig, ParExecutor};
use std::collections::BTreeSet;

/// The attack ruleset's derived predicates, all unary over hosts.
const ATTACK_IDB: [&str; 5] = ["owned", "reach", "safe", "frontier", "exposed"];

fn compile_source(src: &str) -> (Program, Database) {
    let program = parse_program(src).expect("program parses");
    let db = CompiledDatalog::compile(&program)
        .expect("attack programs are in the Datalog subset")
        .evaluate()
        .expect("fixpoint evaluates");
    (program, db)
}

/// Runs `query` bottom-up and checks the shape of its rows: row `i`
/// zipped with the variables is `bindings(i)`, every row is as wide as the
/// variables, `rows.len()` is the number of rows (each a distinct answer),
/// and `succeeded()` says whether there is one.
fn query_rows(db: &Database, query: &str) -> QueryAnswers {
    let (goal, names) = parse_term(query).expect("query parses");
    let answers = db.query(&goal, &names).expect("query is in the subset");
    let (vars, rows) = (&answers.vars, &answers.rows);
    let mut distinct = BTreeSet::new();
    for i in 0..rows.len() {
        assert_eq!(rows.row(i).len(), vars.len(), "{query}: row {i}'s width");
        let zipped: Vec<(Symbol, Term)> = vars.iter().copied().zip(rows.row(i).cloned()).collect();
        assert_eq!(zipped, answers.bindings(i), "{query}: row {i}");
        distinct.insert(rows.row(i).map(Term::to_string).collect::<Vec<_>>());
    }
    assert_eq!(distinct.len(), rows.len(), "{query}: the number of rows");
    assert_eq!(answers.succeeded(), !rows.is_empty(), "{query}");
    answers
}

/// All bottom-up answers to `query`, rendered order-insensitively.
fn bottom_up_answers(db: &Database, query: &str) -> BTreeSet<Vec<String>> {
    let answers = query_rows(db, query);
    (0..answers.rows.len())
        .map(|i| answers.rows.row(i).map(Term::to_string).collect())
        .collect()
}

/// Differentially checks one unary predicate over an explicit active
/// domain: soundness, completeness, and first-solution consistency.
fn check_unary_pred(
    db: &Database,
    machine: &mut Machine,
    pred: &str,
    domain: &[String],
    label: &str,
) {
    let derived = bottom_up_answers(db, &format!("{pred}(X)"));
    let derived_hosts: BTreeSet<&str> = derived.iter().map(|row| row[0].as_str()).collect();
    for host in domain {
        let outcome = machine
            .run_query(&format!("{pred}({host})"))
            .expect("ground SLD query runs");
        assert_eq!(
            outcome.succeeded,
            derived_hosts.contains(host.as_str()),
            "{label}: engines disagree on {pred}({host})"
        );
    }
    let open = machine
        .run_query(&format!("{pred}(X)"))
        .expect("open SLD query runs");
    assert_eq!(
        open.succeeded,
        !derived.is_empty(),
        "{label}: engines disagree on whether {pred}/1 is inhabited"
    );
    if open.succeeded {
        let first: Vec<String> = open.bindings.iter().map(|(_, t)| t.to_string()).collect();
        assert!(
            derived.contains(&first),
            "{label}: SLD's first {pred} answer {first:?} is not in the bottom-up set"
        );
    }
}

/// Every attack topology at two sizes: the full fixpoint answer set for
/// every derived predicate agrees with SLD over the whole host domain.
#[test]
fn attack_family_bottom_up_matches_sld() {
    for bench in datalog_benchmarks() {
        for size in [12, bench.test_size] {
            let source = bench.source(size);
            let (program, db) = compile_source(&source);
            let mut machine = Machine::with_config(&program, MachineConfig::default());
            let domain: Vec<String> = (0..size).map(|i| format!("h{i}")).collect();
            let label = format!("{} size {size}", bench.name);
            for pred in ATTACK_IDB {
                check_unary_pred(&db, &mut machine, pred, &domain, &label);
            }
            assert!(db.stats().rounds >= 2, "{label}: recursion takes rounds");
        }
    }
}

/// The static checked-in attack instances (star, chain, cut) agree too —
/// these are the exact programs the CLI examples and docs reference.
#[test]
fn static_attack_instances_bottom_up_matches_sld() {
    for (name, source) in granlog_benchmarks::attack_instances() {
        let (program, db) = compile_source(source);
        let mut machine = Machine::with_config(&program, MachineConfig::default());
        let domain: Vec<String> = bottom_up_answers(&db, "host(H)")
            .into_iter()
            .map(|mut row| row.remove(0))
            .collect();
        assert!(!domain.is_empty(), "{name}: instances declare hosts");
        for pred in ATTACK_IDB {
            check_unary_pred(&db, &mut machine, pred, &domain, name);
        }
    }
}

/// The parallel executor is a third engine over the same programs: with 1
/// and 2 threads its first solution and ground-query verdicts match the
/// fixpoint exactly.
#[test]
fn attack_family_bottom_up_matches_parallel_sld() {
    let source = format!("{ATTACK_RULES}\n{}", generate::attack_chain(16, 67));
    let (program, db) = compile_source(&source);
    let domain: Vec<String> = (0..16).map(|i| format!("h{i}")).collect();
    for threads in [1, 2] {
        let mut exec = ParExecutor::new(
            &program,
            ParConfig {
                threads,
                granularity: Granularity::On,
                ..ParConfig::default()
            },
        );
        for pred in ATTACK_IDB {
            let derived = bottom_up_answers(&db, &format!("{pred}(X)"));
            let derived_hosts: BTreeSet<&str> = derived.iter().map(|row| row[0].as_str()).collect();
            for host in &domain {
                let outcome = exec
                    .run_query(&format!("{pred}({host})"))
                    .expect("ground parallel query runs");
                assert_eq!(
                    outcome.succeeded,
                    derived_hosts.contains(host.as_str()),
                    "threads={threads}: engines disagree on {pred}({host})"
                );
            }
            let open = exec
                .run_query(&format!("{pred}(X)"))
                .expect("open parallel query runs");
            assert_eq!(open.succeeded, !derived.is_empty());
            if open.succeeded {
                let first: Vec<String> = open.bindings.iter().map(|(_, t)| t.to_string()).collect();
                assert!(
                    derived.contains(&first),
                    "threads={threads}: first {pred} answer {first:?} not derived bottom-up"
                );
            }
        }
    }
}

/// A goal with no variables has rows of width 0, so its answers are counted
/// apart from the row store's length: one that holds has exactly one row,
/// one that fails none, and SLD agrees with both.
#[test]
fn goals_without_variables_count_their_rows() {
    for (name, source) in granlog_benchmarks::attack_instances() {
        let (program, db) = compile_source(source);
        let mut machine = Machine::with_config(&program, MachineConfig::default());
        let owned = bottom_up_answers(&db, "owned(X)");
        let hosts = bottom_up_answers(&db, "host(X)");
        let (Some(owned), Some(free)) = (owned.first(), hosts.difference(&owned).next()) else {
            panic!("{name}: the instance owns a host and leaves one free");
        };
        let (owned, free) = (&owned[0], &free[0]);
        let cases = [
            (format!("owned({owned})"), true),
            (format!("reach({owned}), \\+ safe({owned})"), true),
            (format!("owned({free})"), false),
            (format!("entry({free})"), false),
            (format!("owned({owned}), \\+ owned({owned})"), false),
        ];
        for (goal, holds) in cases {
            let answers = query_rows(&db, &goal);
            assert!(answers.vars.is_empty(), "{name}: {goal}");
            assert_eq!(answers.rows.len(), usize::from(holds), "{name}: {goal}");
            assert_eq!(answers.succeeded(), holds, "{name}: {goal}");
            if holds {
                assert_eq!(answers.rows.row(0).len(), 0, "{name}: {goal}");
                assert!(answers.bindings(0).is_empty(), "{name}: {goal}");
            }
            let sld = machine.run_query(&goal).expect("ground SLD query runs");
            assert_eq!(sld.succeeded, holds, "{name}: SLD on {goal}");
        }
        // A predicate the program never mentions is an empty relation
        // (SLD calls it an unknown predicate instead).
        let ghost = query_rows(&db, &format!("ghost({owned})"));
        assert_eq!((ghost.rows.len(), ghost.succeeded()), (0, false), "{name}");
    }
}

/// Every registered benchmark either compiles into the Datalog subset (and
/// then must agree with SLD on its own query) or is rejected with a typed
/// diagnostic — never evaluated into a wrong answer.
#[test]
fn benchmark_suite_members_compile_or_reject_typed() {
    let mut rejected = 0usize;
    for bench in all_benchmarks() {
        let program = parse_program(bench.source).expect("benchmark parses");
        match CompiledDatalog::compile(&program) {
            Ok(compiled) => {
                let db = compiled.evaluate().expect("subset member evaluates");
                let query = bench.query(bench.test_size);
                let answers = query_rows(&db, &query);
                let mut machine = Machine::with_config(&program, MachineConfig::default());
                let outcome = machine.run_query(&query).unwrap();
                assert_eq!(outcome.succeeded, answers.succeeded(), "{}", bench.name);
            }
            Err(DatalogError::NotDatalog { clause, construct }) => {
                // Typed rejection must name the construct and clause.
                assert!(
                    !clause.is_empty() && !construct.is_empty(),
                    "{}",
                    bench.name
                );
                rejected += 1;
            }
            Err(DatalogError::UnsafeClause { clause, var }) => {
                // E.g. hanoi's `hanoi(0,_,_,_,[]).`: an anonymous head
                // variable with no positive body is not range-restricted.
                assert!(!clause.is_empty() && !var.is_empty(), "{}", bench.name);
                rejected += 1;
            }
            Err(other) => panic!(
                "{}: benchmark rejections must be static diagnostics, got {other:?}",
                bench.name
            ),
        }
    }
    assert!(
        rejected > 0,
        "the SLD suite exercises arithmetic; some member must be outside the subset"
    );
}

/// Non-stratified and non-Datalog inputs are rejected with the right typed
/// variant and a diagnostic naming the offending clause — never a wrong
/// answer from an engine that silently kept going.
#[test]
fn rejections_are_typed_and_name_the_clause() {
    type Expect = fn(&DatalogError) -> bool;
    let cases: [(&str, Expect); 6] = [
        (
            // Negation inside a recursive cycle: the game-playing classic.
            "move(a, b). move(b, a). win(X) :- move(X, Y), \\+ win(Y).",
            |e| matches!(e, DatalogError::NotStratified { pred, .. } if pred.contains("win")),
        ),
        (
            "p(N) :- N > 0.",
            |e| matches!(e, DatalogError::NotDatalog { clause, .. } if clause.contains('>')),
        ),
        ("q(X) :- r(X), !.", |e| {
            matches!(e, DatalogError::NotDatalog { construct, .. } if construct.contains("cut")
                || construct.contains('!'))
        }),
        ("s(X) :- (t(X) ; u(X)).", |e| {
            matches!(e, DatalogError::NotDatalog { .. })
        }),
        ("meta(G) :- call(G).", |e| {
            matches!(e, DatalogError::NotDatalog { .. })
        }),
        (
            "lonely(X) :- \\+ anybody(X).",
            |e| matches!(e, DatalogError::UnsafeClause { var, .. } if var == "X"),
        ),
    ];
    for (src, expected) in cases {
        let program = parse_program(src).expect("test program parses");
        let err = CompiledDatalog::compile(&program)
            .err()
            .unwrap_or_else(|| panic!("must reject: {src}"));
        assert!(expected(&err), "{src}: wrong rejection {err:?}");
        // Every diagnostic is printable and self-describing.
        assert!(!err.to_string().is_empty());
    }
}

/// Semi-naive rounds cost what their delta costs: on a chain — one new
/// fact per round — doubling the hosts doubles the join work. A planner that
/// re-scans `link` every round is quadratic and fails this with no clock
/// involved (`tuples_tried` is deterministic).
#[test]
fn chain_join_work_is_linear_in_hosts() {
    let tried = |hosts: usize| {
        let source = format!("{ATTACK_RULES}\n{}", generate::attack_chain(hosts, 67));
        let (_, db) = compile_source(&source);
        assert!(
            db.stats().rounds as usize >= hosts / 2,
            "a chain takes rounds"
        );
        db.stats().tuples_tried
    };
    let (small, large) = (tried(400), tried(800));
    assert!(
        large as f64 <= 2.2 * small as f64,
        "attack_chain(800) tried {large} tuples, attack_chain(400) {small}: not linear"
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// A deterministic generator state (splitmix64) for building random
    /// programs from a proptest-drawn seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    const CONSTS: [&str; 5] = ["c0", "c1", "c2", "c3", "c4"];

    /// One literal `pred(args...)` where every argument is a variable from
    /// `vars` or a constant.
    fn literal(g: &mut Gen, pred: &str, arity: usize, vars: &[String]) -> String {
        let mut s = format!("{pred}(");
        for i in 0..arity {
            if i > 0 {
                s.push_str(", ");
            }
            if !vars.is_empty() && g.below(3) < 2 {
                s.push_str(&vars[g.below(vars.len())]);
            } else {
                s.push_str(CONSTS[g.below(CONSTS.len())]);
            }
        }
        s.push(')');
        s
    }

    /// A random stratified Datalog program, safe and SLD-terminating by
    /// construction:
    ///
    /// - predicates are arranged in layers; rule bodies only reference
    ///   strictly lower layers, so dependencies are acyclic and negation is
    ///   trivially stratified;
    /// - the one recursive predicate, `tc/2`, closes a DAG edge relation
    ///   (edges go strictly lower → higher constant index) with a
    ///   right-recursive rule, so ground SLD queries bottom out;
    /// - head and negative-literal variables are drawn only from positive
    ///   body variables, so every clause is range-restricted.
    ///
    /// Returns the source and the IDB predicates with their arities.
    fn random_program(seed: u64) -> (String, Vec<(String, usize)>) {
        let mut g = Gen(seed);
        let mut src = String::new();

        // EDB layer: a unary and a binary relation plus a DAG edge set.
        for _ in 0..(1 + g.below(6)) {
            let _ = writeln!(src, "e1({}).", CONSTS[g.below(CONSTS.len())]);
        }
        for _ in 0..(1 + g.below(8)) {
            let _ = writeln!(
                src,
                "e2({}, {}).",
                CONSTS[g.below(CONSTS.len())],
                CONSTS[g.below(CONSTS.len())]
            );
        }
        for _ in 0..(1 + g.below(6)) {
            let from = g.below(CONSTS.len() - 1);
            let to = from + 1 + g.below(CONSTS.len() - from - 1);
            let _ = writeln!(src, "edge(c{from}, c{to}).");
        }
        let _ = writeln!(src, "tc(X, Y) :- edge(X, Y).");
        let _ = writeln!(src, "tc(X, Z) :- edge(X, Y), tc(Y, Z).");

        // IDB layers over the pool of already-defined predicates.
        let mut pool: Vec<(String, usize)> = vec![
            ("e1".into(), 1),
            ("e2".into(), 2),
            ("edge".into(), 2),
            ("tc".into(), 2),
        ];
        let mut idb: Vec<(String, usize)> = vec![("tc".into(), 2)];
        let layers = 1 + g.below(3);
        for layer in 0..layers {
            let preds = 1 + g.below(2);
            let mut defined = Vec::new();
            for p in 0..preds {
                let name = format!("p{layer}_{p}");
                let arity = 1 + g.below(2);
                for _ in 0..(1 + g.below(2)) {
                    // Positive body literals introduce the variable pool.
                    let n_pos = 1 + g.below(3);
                    let vars: Vec<String> =
                        (0..(1 + g.below(3))).map(|v| format!("V{v}")).collect();
                    let mut body = Vec::new();
                    for _ in 0..n_pos {
                        let (bp, ba) = pool[g.below(pool.len())].clone();
                        body.push(literal(&mut g, &bp, ba, &vars));
                    }
                    // Safety: collect the variables the positive part
                    // actually used; heads and negations draw only those.
                    let used: Vec<String> = vars
                        .iter()
                        .filter(|v| body.iter().any(|l| l.contains(v.as_str())))
                        .cloned()
                        .collect();
                    if g.below(2) == 0 {
                        let (np, na) = pool[g.below(pool.len())].clone();
                        body.push(format!("\\+ {}", literal(&mut g, &np, na, &used)));
                    }
                    let head = literal(&mut g, &name, arity, &used);
                    let _ = writeln!(src, "{head} :- {}.", body.join(", "));
                }
                defined.push((name.clone(), arity));
                idb.push((name, arity));
            }
            pool.extend(defined);
        }
        (src, idb)
    }

    /// Every ground atom over the active domain, for one predicate.
    fn ground_atoms(pred: &str, arity: usize) -> Vec<String> {
        match arity {
            1 => CONSTS.iter().map(|c| format!("{pred}({c})")).collect(),
            _ => CONSTS
                .iter()
                .flat_map(|a| CONSTS.iter().map(move |b| format!("{pred}({a}, {b})")))
                .collect(),
        }
    }

    /// An argument of a generated atom: variable `V<n>` or constant `c<n>`.
    #[derive(Clone, Copy)]
    enum Arg {
        V(usize),
        C(usize),
    }
    use Arg::{C, V};

    type Atom = (&'static str, Vec<Arg>);
    /// A ground fact: predicate and constant indices.
    type Fact = (&'static str, Vec<usize>);

    struct RuleSpec {
        stratum: usize,
        head: Atom,
        pos: Vec<Atom>,
        neg: Vec<Atom>,
    }

    /// Reference semantics, as plain as they come: stratum by stratum,
    /// re-join every rule against everything until nothing new appears.
    fn naive_fixpoint(facts: &BTreeSet<Fact>, rules: &[RuleSpec]) -> BTreeSet<Fact> {
        fn join(
            db: &BTreeSet<Fact>,
            rule: &RuleSpec,
            k: usize,
            env: &[Option<usize>],
            out: &mut Vec<Fact>,
        ) {
            let ground = |(pred, args): &Atom| -> Fact {
                let value = |a: &Arg| match *a {
                    C(c) => c,
                    V(v) => env[v].expect("range-restricted"),
                };
                (*pred, args.iter().map(value).collect())
            };
            let Some((pred, args)) = rule.pos.get(k) else {
                if rule.neg.iter().all(|n| !db.contains(&ground(n))) {
                    out.push(ground(&rule.head));
                }
                return;
            };
            for (_, tuple) in db.iter().filter(|f| f.0 == *pred) {
                let mut env = env.to_vec();
                let fits = args.iter().zip(tuple).all(|(a, &v)| match *a {
                    C(c) => c == v,
                    V(x) => *env[x].get_or_insert(v) == v,
                });
                if fits {
                    join(db, rule, k + 1, &env, out);
                }
            }
        }
        let mut db = facts.clone();
        for stratum in 0..=rules.iter().map(|r| r.stratum).max().unwrap_or(0) {
            loop {
                let mut new = Vec::new();
                for rule in rules.iter().filter(|r| r.stratum == stratum) {
                    join(&db, rule, 0, &[None; 4], &mut new);
                }
                let before = db.len();
                db.extend(new);
                if db.len() == before {
                    break;
                }
            }
        }
        db
    }

    /// A random program of the shapes SLD cannot run (left and non-linear
    /// recursion over cyclic graphs) and delta-first planning must get
    /// right: two delta positions in one rule, mutual recursion across two
    /// IDB predicates, a delta literal in the middle of a three-literal
    /// body, a repeated variable and a constant in recursive literals, and
    /// two strata of negation above them. Facts, which rules take part and
    /// the order of every body are drawn from the seed.
    fn random_recursive_program(seed: u64) -> (BTreeSet<Fact>, Vec<RuleSpec>) {
        let mut g = Gen(seed);
        let mut facts = BTreeSet::new();
        for _ in 0..(2 + g.below(8)) {
            facts.insert(("e", vec![g.below(CONSTS.len()), g.below(CONSTS.len())]));
        }
        for _ in 0..(1 + g.below(3)) {
            facts.insert(("s", vec![g.below(CONSTS.len())]));
        }
        // An IDB predicate with ground facts of its own.
        facts.insert(("ev", vec![g.below(CONSTS.len())]));

        let rule = |stratum, head: Atom, pos: &[Atom], neg: &[Atom]| RuleSpec {
            stratum,
            head,
            pos: pos.to_vec(),
            neg: neg.to_vec(),
        };
        let (x, y, z, w) = (V(0), V(1), V(2), V(3));
        #[rustfmt::skip]
        let mut rules = vec![
            rule(0, ("tc", vec![x, y]), &[("e", vec![x, y])], &[]),
            rule(0, ("tc", vec![x, z]), &[("tc", vec![x, y]), ("tc", vec![y, z])], &[]),
            rule(0, ("ev", vec![x]), &[("s", vec![x])], &[]),
            rule(0, ("od", vec![y]), &[("ev", vec![x]), ("e", vec![x, y])], &[]),
            rule(0, ("ev", vec![y]), &[("od", vec![x]), ("e", vec![x, y])], &[]),
            rule(0, ("mid", vec![x, y]), &[("e", vec![x, y]), ("s", vec![x])], &[]),
            rule(0, ("mid", vec![x, z]), &[("e", vec![x, y]), ("mid", vec![y, w]), ("e", vec![w, z])], &[]),
            rule(0, ("mid", vec![x, x]), &[("mid", vec![x, y]), ("tc", vec![y, y])], &[]),
            rule(0, ("od", vec![x]), &[("tc", vec![C(0), x]), ("od", vec![x])], &[]),
            rule(1, ("far", vec![x]), &[("s", vec![x])], &[("ev", vec![x])]),
            rule(1, ("cut", vec![x, y]), &[("tc", vec![x, y])], &[("mid", vec![x, y]), ("od", vec![y])]),
            rule(1, ("cut", vec![x, z]), &[("cut", vec![x, y]), ("e", vec![y, z])], &[("od", vec![z])]),
            rule(2, ("top", vec![x]), &[("tc", vec![x, y]), ("far", vec![y])], &[("cut", vec![x, x])]),
        ];
        // Keep the one-literal base rules; drop a quarter of the others.
        rules.retain(|r| r.pos.len() == 1 || g.below(4) > 0);
        for r in &mut rules {
            for i in (1..r.pos.len()).rev() {
                r.pos.swap(i, g.below(i + 1));
            }
        }
        (facts, rules)
    }

    fn render(facts: &BTreeSet<Fact>, rules: &[RuleSpec]) -> String {
        let atom = |(pred, args): &Atom| {
            let args: Vec<String> = args
                .iter()
                .map(|a| match *a {
                    V(v) => format!("V{v}"),
                    C(c) => CONSTS[c].to_string(),
                })
                .collect();
            format!("{pred}({})", args.join(", "))
        };
        let mut src = String::new();
        for (pred, tuple) in facts {
            let args: Vec<Arg> = tuple.iter().map(|&c| C(c)).collect();
            let _ = writeln!(src, "{}.", atom(&(*pred, args)));
        }
        for r in rules {
            let body: Vec<String> = r
                .pos
                .iter()
                .map(atom)
                .chain(r.neg.iter().map(|n| format!("\\+ {}", atom(n))))
                .collect();
            let _ = writeln!(src, "{} :- {}.", atom(&r.head), body.join(", "));
        }
        src
    }

    proptest! {
        /// Delta-first variants derive every fact and nothing else: the
        /// engine's fact sets equal the naive fixpoint's on programs SLD
        /// cannot run, and `derived_facts` — successful inserts, so a
        /// combination no variant joins, or a phantom one, shows — equals
        /// the reference's facts beyond the EDB.
        #[test]
        fn recursive_programs_match_the_naive_fixpoint(seed in 0u64..u64::MAX) {
            let (facts, rules) = random_recursive_program(seed);
            let src = render(&facts, &rules);
            let (_, db) = compile_source(&src);
            let want = naive_fixpoint(&facts, &rules);

            for (pred, arity) in [
                ("tc", 2), ("ev", 1), ("od", 1), ("mid", 2), ("far", 1), ("cut", 2), ("top", 1),
            ] {
                let open = if arity == 1 { format!("{pred}(A)") } else { format!("{pred}(A, B)") };
                let expected: BTreeSet<Vec<String>> = want
                    .iter()
                    .filter(|f| f.0 == pred)
                    .map(|f| f.1.iter().map(|&c| CONSTS[c].to_string()).collect())
                    .collect();
                prop_assert_eq!(
                    bottom_up_answers(&db, &open), expected,
                    "{} differs from the naive fixpoint in\n{}", pred, src
                );
            }
            prop_assert_eq!(db.stats().edb_facts, facts.len() as u64);
            prop_assert_eq!(
                db.stats().derived_facts, (want.len() - facts.len()) as u64,
                "derived_facts differs from the naive fixpoint in\n{}", src
            );
            prop_assert_eq!(db.total_facts(), want.len() as u64);
        }
    }

    proptest! {
        /// 64 random stratified programs: for every IDB predicate, the
        /// bottom-up verdict on every active-domain ground atom equals the
        /// SLD verdict, and the open query's first SLD answer is in the
        /// bottom-up set.
        #[test]
        fn random_stratified_programs_agree_with_sld(seed in 0u64..u64::MAX) {
            let (src, idb) = random_program(seed);
            let program = parse_program(&src).expect("generated program parses");
            let compiled = CompiledDatalog::compile(&program)
                .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{src}"));
            let db = compiled.evaluate().expect("generated program evaluates");
            let mut machine = Machine::with_config(&program, MachineConfig::default());

            for (pred, arity) in &idb {
                for atom in ground_atoms(pred, *arity) {
                    let sld = machine.run_query(&atom).expect("ground query runs");
                    let bu = query_rows(&db, &atom);
                    prop_assert_eq!(
                        sld.succeeded, bu.succeeded(),
                        "engines disagree on {} in\n{}", atom, src
                    );
                }
                let open = if *arity == 1 {
                    format!("{pred}(A)")
                } else {
                    format!("{pred}(A, B)")
                };
                let derived = bottom_up_answers(&db, &open);
                let sld = machine.run_query(&open).expect("open query runs");
                prop_assert_eq!(sld.succeeded, !derived.is_empty());
                if sld.succeeded {
                    let first: Vec<String> =
                        sld.bindings.iter().map(|(_, t)| t.to_string()).collect();
                    prop_assert!(
                        derived.contains(&first),
                        "first SLD answer {:?} for {} not derived in\n{}", first, open, src
                    );
                }
            }
        }

        /// Poisoning a generated program with a negative cycle is rejected
        /// as NotStratified; poisoning it with arithmetic is rejected as
        /// NotDatalog. Neither ever reaches evaluation.
        #[test]
        fn poisoned_programs_reject_typed(seed in 0u64..u64::MAX) {
            let (src, _) = random_program(seed);

            let cyclic = format!("{src}\nw(X) :- e2(X, Y), \\+ w(Y).\n");
            let program = parse_program(&cyclic).expect("poisoned program parses");
            prop_assert!(matches!(
                CompiledDatalog::compile(&program),
                Err(DatalogError::NotStratified { .. })
            ));

            let arith = format!("{src}\nz(X) :- e1(X), X > 0.\n");
            let program = parse_program(&arith).expect("poisoned program parses");
            prop_assert!(matches!(
                CompiledDatalog::compile(&program),
                Err(DatalogError::NotDatalog { .. })
            ));
        }
    }
}
