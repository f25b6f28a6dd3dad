//! One table of builtins, four consumers: every row of
//! `granlog_ir::builtins` is held to what each consumer must do with it — the
//! SLD engine runs it, the analysis charges it a constant, mode inference
//! reads its modes, the bottom-up engine rejects it by name — and
//! `docs/ARCHITECTURE.md` lists exactly the table's rows.

use granlog_analysis::cost::CostMetric;
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_datalog::{CompiledDatalog, DatalogError};
use granlog_engine::Machine;
use granlog_ir::builtins::{self, Row};
use granlog_ir::modes::{infer_modes, mode_or_default};
use granlog_ir::{ArgMode, Clause, Directive, PredId, Program, Symbol, Term};

const METRICS: [CostMetric; 3] = [
    CostMetric::Resolutions,
    CostMetric::Unifications,
    CostMetric::Steps,
];

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

#[test]
fn the_engine_runs_every_row() {
    for row in builtins::rows() {
        let program = caller(row);
        let goal = Term::compound("p", vec![Term::int(1); row.arity()]);
        let outcome = Machine::new(&program).run_goal(&goal, &[]);
        let outcome = outcome.unwrap_or_else(|e| panic!("{}: {e}", row.pred()));
        let counters = outcome.counters;
        assert_eq!(
            counters.builtins + counters.grain_tests,
            1,
            "{}",
            row.pred()
        );
    }
}

#[test]
fn the_analysis_charges_every_row_a_constant() {
    for row in builtins::rows() {
        let program = caller(row);
        let p = PredId::parse("p", row.arity());
        for metric in METRICS {
            let options = AnalysisOptions {
                metric,
                ..AnalysisOptions::default()
            };
            let cost = &analyze_program(&program, &options).preds[&p].cost;
            let charge = metric.builtin_cost(row.pred()).expect("a builtin");
            let expected = metric.head_cost(&program.clauses()[0]) + charge;
            assert_eq!(
                cost.as_const(),
                Some(expected),
                "{} under {metric}",
                row.pred()
            );
        }
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

/// The "Builtins" table of `docs/ARCHITECTURE.md` is this, line for line.
fn documented(row: &Row) -> String {
    let modes: Vec<String> = row.modes.iter().map(ArgMode::to_string).collect();
    let charges: Vec<String> = METRICS
        .iter()
        .map(|m| m.builtin_cost(row.pred()).expect("a builtin").to_string())
        .collect();
    format!(
        "| `{}` | `({})` | {} |",
        row.pred(),
        modes.join(","),
        charges.join(" / ")
    )
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
