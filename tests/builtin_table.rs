//! One table of builtins, four consumers: every row of
//! `granlog_ir::builtins` is held to what each consumer must do with it — the
//! SLD engine runs it, the analysis charges it nothing, mode inference
//! reads its modes, the bottom-up engine rejects it by name — and
//! `docs/ARCHITECTURE.md` lists exactly the table's rows. The analysis
//! counts the unit the engine counts, resolutions: a table of clause shapes
//! holds its cost of each to the engine's `resolutions` counter.

use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_analysis::Expr;
use granlog_datalog::{CompiledDatalog, DatalogError};
use granlog_engine::{Counters, Machine};
use granlog_ir::builtins::{self, Row};
use granlog_ir::modes::{infer_modes, mode_or_default};
use granlog_ir::parser::{parse_program, parse_term};
use granlog_ir::{ArgMode, Clause, Directive, PredId, Program, Symbol, Term};

fn call(name: Symbol, arity: usize) -> Term {
    Term::structure(name, (0..arity).map(Term::var).collect())
}

/// `:- mode p(+, ...). p(V0, ...) :- <body>.`, the body over `num_vars`
/// variables.
fn program(arity: usize, num_vars: usize, body: Term) -> Program {
    let p = PredId::parse("p", arity);
    let names = (0..num_vars).map(|i| Symbol::intern(&format!("V{i}")));
    let mut program = Program::new();
    program.add_directive(Directive::Mode(p, vec![ArgMode::In; arity]));
    program.add_clause(Clause::new(call(p.name, arity), body, names.collect()));
    program
}

/// `p(V0, ...) :- name(V0, ...).`, the one-clause program calling `row`.
fn caller(row: &Row) -> Program {
    program(row.arity(), row.arity(), call(row.name, row.arity()))
}

/// `p(1, ...)`, the goal that runs [`caller`]`(row)`.
fn caller_goal(row: &Row) -> Term {
    Term::compound("p", vec![Term::int(1); row.arity()])
}

/// The engine's counters after running `goal` on `program` to its first
/// answer.
fn run(program: &Program, goal: &Term) -> Counters {
    let outcome = Machine::new(program).run_goal(goal, &[]);
    outcome.unwrap_or_else(|e| panic!("{goal}: {e}")).counters
}

/// The analysis' cost bound of `pred` in `program`.
fn analysis_cost(program: &Program, pred: PredId) -> Expr {
    analyze_program(program, &AnalysisOptions::default()).preds[&pred]
        .cost
        .clone()
}

#[test]
fn the_engine_runs_every_row() {
    for row in builtins::rows() {
        let counters = run(&caller(row), &caller_goal(row));
        assert_eq!(
            counters.builtins + counters.grain_tests,
            1,
            "{}",
            row.pred()
        );
    }
}

/// The caller's cost is its head's one resolution, the one resolution the
/// engine counts for it: the builtin is charged nothing on either side.
#[test]
fn the_analysis_charges_every_row_a_constant() {
    for row in builtins::rows() {
        let program = caller(row);
        let p = PredId::parse("p", row.arity());
        let cost = analysis_cost(&program, p).as_const();
        let resolutions = run(&program, &caller_goal(row)).resolutions;
        assert_eq!((cost, resolutions), (Some(1.0), 1), "{}", row.pred());
    }
}

/// How the analysis' cost of a goal stands to the resolutions the engine
/// counts running it.
#[derive(Debug, PartialEq)]
enum Agreement {
    /// Both count this many.
    Exact(u64),
    /// The analysis gives ∞.
    Unbounded { engine: u64 },
    /// The analysis gives fewer than the engine counts: its bound is unsound.
    Under { analysis: u64, engine: u64 },
}

/// The clause shapes of `p/1`, each with how the analysis' cost of `p/1`
/// stands to the engine's `resolutions` running the goal.
const SHAPES: &[(&str, &str, Agreement)] = &[
    ("p(_).", "p(1)", Agreement::Exact(1)),
    ("p(X) :- q(X). q(_).", "p(1)", Agreement::Exact(2)),
    ("p(X) :- q(X), q(X). q(_).", "p(1)", Agreement::Exact(3)),
    ("p(X) :- !, q(X). q(_).", "p(1)", Agreement::Exact(2)),
    (
        "p(X) :- X > 0, Y is X + 1, Y > X.",
        "p(1)",
        Agreement::Exact(1),
    ),
    ("p(X) :- q(X) & q(X). q(_).", "p(1)", Agreement::Exact(3)),
    (GUARDED, "p(3)", Agreement::Exact(2)),
    // The analysis has no rule for these control constructs, so it bounds
    // them by ∞.
    (
        "p(X) :- ( q(X) -> q(X) ; q(X) ). q(_).",
        "p(1)",
        Agreement::Unbounded { engine: 3 },
    ),
    (
        "p(X) :- \\+ X > 5.",
        "p(1)",
        Agreement::Unbounded { engine: 1 },
    ),
    (
        "p(X) :- ( q(X) ; q(X) ). q(_).",
        "p(1)",
        Agreement::Unbounded { engine: 2 },
    ),
    // ROADMAP item 1, defect 3b: the analysis takes the maximum over
    // clauses it finds mutually exclusive by their guards, but the engine
    // resolves the first clause's head before its guard rejects it, so a
    // goal the second clause answers costs one resolution more.
    (
        GUARDED,
        "p(7)",
        Agreement::Under {
            analysis: 2,
            engine: 3,
        },
    ),
];

/// Two clauses the analysis finds mutually exclusive by their guards.
const GUARDED: &str = "p(X) :- X =< 5, q(X). p(X) :- X > 5, q(X). q(_).";

#[test]
fn the_analysis_counts_the_resolutions_the_engine_counts() {
    let p = PredId::parse("p", 1);
    for (source, goal, expected) in SHAPES {
        let program = parse_program(source).expect("the shape parses");
        let (goal, _) = parse_term(goal).expect("the goal parses");
        let engine = run(&program, &goal).resolutions;
        let cost = analysis_cost(&program, p);
        let agreement = match cost.as_const() {
            _ if cost.is_infinite() => Agreement::Unbounded { engine },
            Some(c) if c == engine as f64 => Agreement::Exact(engine),
            Some(c) if c < engine as f64 => Agreement::Under {
                analysis: c as u64,
                engine,
            },
            _ => {
                panic!("{source} on {goal}: the analysis gives {cost}, the engine counts {engine}")
            }
        };
        assert_eq!(&agreement, expected, "{source} on {goal}");
    }
}

#[test]
fn mode_inference_reads_every_rows_modes() {
    for row in builtins::rows() {
        let modes = infer_modes(&caller(row));
        assert_eq!(
            mode_or_default(&modes, row.pred()).modes,
            row.modes,
            "{}",
            row.pred()
        );
        // `p(V0) :- name(V1, ...), q(V1, ...).`: the variables are free when
        // the builtin is called, and still free after it iff it is a test.
        let n = row.arity();
        let shifted = |name| Term::structure(name, (1..=n).map(Term::var).collect());
        let q = PredId::parse("q", n);
        let body = Term::compound(",", vec![shifted(row.name), shifted(q.name)]);
        let mut program = program(1, n + 1, body);
        program.add_clause(Clause::fact(call(q.name, n), Vec::new()));
        let after = if row.is_test() {
            ArgMode::Out
        } else {
            ArgMode::In
        };
        assert_eq!(
            infer_modes(&program)[&q].modes,
            vec![after; n],
            "{}",
            row.pred()
        );
    }
}

#[test]
fn the_bottom_up_engine_rejects_every_row_by_name() {
    for row in builtins::rows() {
        let expected = format!("builtin `{}`", row.pred());
        match CompiledDatalog::compile(&caller(row)) {
            Err(DatalogError::NotDatalog { construct, .. }) => assert_eq!(construct, expected),
            other => panic!("{}: {:?}", row.pred(), other.map(|_| "compiled")),
        }
    }
}

/// The "Builtins" table of `docs/ARCHITECTURE.md` is this, line for line:
/// the charge is the caller's cost less its head's one resolution.
fn documented(row: &Row) -> String {
    let modes: Vec<String> = row.modes.iter().map(ArgMode::to_string).collect();
    let cost = analysis_cost(&caller(row), PredId::parse("p", row.arity()));
    let charge = cost.as_const().expect("a constant") - 1.0;
    format!("| `{}` | `({})` | {charge} |", row.pred(), modes.join(","))
}

#[test]
fn the_architecture_doc_lists_exactly_the_tables_rows() {
    let doc = include_str!("../docs/ARCHITECTURE.md");
    let section = doc
        .split_once("\n## Builtins")
        .expect("a Builtins section")
        .1;
    let section = section.split("\n## ").next().expect("split yields a part");
    let listed: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
    let rows: Vec<String> = builtins::rows().iter().map(documented).collect();
    assert_eq!(listed, rows);
}
