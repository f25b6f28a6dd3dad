//! Integration test: the paper's Appendix A worked example, end to end.
//!
//! The Appendix derives, for `nrev/2` and `append/3` (first argument input,
//! list-length measure, resolutions metric):
//!
//! * Ψ_append(x, y) = x + y and Ψ_nrev(n) = n;
//! * Cost_append(n, _) = n + 1 and Cost_nrev(n) = 0.5 n² + 1.5 n + 1;
//!
//! and Figure 1 shows the data dependency graphs of the two `nrev/2` clauses.
//! This test checks all of that against the actual analysis, and additionally
//! checks that the execution engine's measured resolution counts equal the
//! closed forms (they are exact for this program).

use granlog_analysis::ddg::{ArgPos, Ddg, NodeId};
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_analysis::sizerel::analyze_clause;
use granlog_analysis::solver::SchemaKind;
use granlog_analysis::Threshold;
use granlog_benchmarks::nrev_benchmark;
use granlog_engine::Machine;
use granlog_ir::PredId;

fn nrev_pid() -> PredId {
    PredId::parse("nrev", 2)
}

fn append_pid() -> PredId {
    PredId::parse("append", 3)
}

#[test]
fn appendix_closed_forms_are_reproduced() {
    let program = nrev_benchmark().program().expect("nrev parses");
    let analysis = analyze_program(&program, &AnalysisOptions::default());

    // Argument size functions.
    assert_eq!(
        analysis
            .output_size_of(append_pid(), 2)
            .unwrap()
            .to_string(),
        "n1 + n2",
        "Ψ_append(x, y) = x + y"
    );
    assert_eq!(
        analysis.output_size_of(nrev_pid(), 1).unwrap().to_string(),
        "n",
        "Ψ_nrev(n) = n"
    );

    // Cost functions.
    assert_eq!(
        analysis.cost_of(append_pid()).unwrap().to_string(),
        "n1 + 1",
        "Cost_append(n) = n + 1"
    );
    assert_eq!(
        analysis.cost_of(nrev_pid()).unwrap().to_string(),
        "0.5*n^2 + 1.5*n + 1",
        "Cost_nrev(n) = 0.5 n^2 + 1.5 n + 1"
    );

    // Both were solved by the exact linear-summation schema.
    let info = analysis.pred(nrev_pid()).unwrap();
    assert_eq!(info.cost_schema, SchemaKind::LinearSummation);
    assert_eq!(info.size_schemas[&1], SchemaKind::LinearSummation);
}

#[test]
fn figure1_ddg_structure() {
    let program = nrev_benchmark().program().expect("nrev parses");
    let nrev = nrev_pid();
    let modes = program.mode_of(nrev).unwrap().clone();
    let clauses = program.clauses_of(nrev);

    // Clause 1: nrev([], []) — start and end only, no edges.
    let g1 = Ddg::build(clauses[0], &modes);
    assert_eq!(g1.nodes(), vec![NodeId::Start, NodeId::End]);
    assert!(g1.edges().is_empty());

    // Clause 2: nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
    let g2 = Ddg::build(clauses[1], &modes);
    assert_eq!(
        g2.nodes(),
        vec![NodeId::Start, NodeId::Body(0), NodeId::Body(1), NodeId::End]
    );
    assert!(g2.has_edge(NodeId::Start, NodeId::Body(0)));
    assert!(g2.has_edge(NodeId::Start, NodeId::Body(1)));
    assert!(g2.has_edge(NodeId::Body(0), NodeId::Body(1)));
    assert!(g2.has_edge(NodeId::Body(1), NodeId::End));
    assert_eq!(g2.edges().len(), 4);

    // The literal modes match the paper's superscripts: nrev^(i,o), append^(i,i,o).
    assert_eq!(g2.input(NodeId::Body(0)), vec![0]);
    assert_eq!(g2.output(NodeId::Body(0)), vec![1]);
    assert_eq!(g2.input(NodeId::Body(1)), vec![0, 1]);
    assert_eq!(g2.output(NodeId::Body(1)), vec![2]);

    // R1 is produced by the recursive call, as the Appendix relies on.
    assert_eq!(
        g2.sources_of(ArgPos::new(NodeId::Body(1), 0)),
        &[ArgPos::new(NodeId::Body(0), 1)]
    );

    // Node labels use the paper's notation.
    assert_eq!(g2.node_label(NodeId::Start), "{head_1}");
    assert_eq!(
        g2.node_label(NodeId::Body(1)),
        "{body2_1, body2_2, body2_3}"
    );
}

#[test]
fn example_3_3_relations_read_the_solved_append() {
    // nrev/2's clause 2 as the pipeline analyses it while solving nrev/2's
    // SCC: Ψ_append(x, y) = x + y is applied from append/3's record, and the
    // recursive call stays symbolic.
    let program = nrev_benchmark().program().expect("nrev parses");
    let analysis = analyze_program(&program, &AnalysisOptions::default());
    let nrev = nrev_pid();
    let ddg = Ddg::build(program.clauses_of(nrev)[1], &analysis.modes[&nrev]);
    let sizes = analyze_clause(&ddg, &analysis, &[nrev].into_iter().collect());
    let relations: Vec<String> = sizes
        .relations()
        .iter()
        .map(|r| format!("{} = {}", sizes.lhs_text(r.lhs), r.rhs))
        .collect();
    assert_eq!(
        relations,
        [
            "body1[1] = n - 1",
            "body1[2] = psi_nrev[2](n - 1)",
            "body2[1] = psi_nrev[2](n - 1)",
            "body2[2] = 1",
            "body2[3] = psi_nrev[2](n - 1) + 1",
            "psi_nrev[2](n) = psi_nrev[2](n - 1) + 1",
        ]
    );
}

#[test]
fn engine_resolution_counts_match_the_closed_forms_exactly() {
    let bench = nrev_benchmark();
    let program = bench.program().expect("nrev parses");
    let analysis = analyze_program(&program, &AnalysisOptions::default());
    let nrev_cost = analysis.cost_of(nrev_pid()).unwrap();

    let mut machine = Machine::new(&program);
    for n in [0usize, 1, 3, 7, 15, 30] {
        let out = machine.run_query(&bench.query(n)).expect("nrev runs");
        assert!(out.succeeded);
        let predicted = nrev_cost.eval_with(&[("n", n as f64)]).unwrap();
        assert_eq!(
            out.counters.resolutions as f64, predicted,
            "resolution count for nrev({n}) should equal the closed form"
        );
    }
}

#[test]
fn section2_threshold_example() {
    // Section 2: a goal with cost 3n² and a task-creation overhead of 48 units
    // leads to a test around n ≈ 4 — "execute sequentially below the
    // threshold, in parallel above it". With the nrev cost function and
    // overhead 48 the threshold is 9.
    let program = nrev_benchmark().program().expect("nrev parses");
    let analysis = analyze_program(&program, &AnalysisOptions::default());
    assert_eq!(
        analysis.threshold_for(nrev_pid(), 48.0),
        Threshold::SizeAtLeast(9)
    );
    // The threshold grows monotonically with the overhead.
    let mut last = 0;
    for w in [1.0, 10.0, 100.0, 1000.0] {
        let t = analysis.threshold_for(nrev_pid(), w).as_size();
        assert!(t >= last);
        last = t;
    }
    // append/3, being linear, has threshold ≈ W.
    assert_eq!(
        analysis.threshold_for(append_pid(), 10.0),
        Threshold::SizeAtLeast(10)
    );
}
