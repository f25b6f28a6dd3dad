//! The analysis oracle: everything the granularity analysis computes for the
//! 15-program corpus, compared byte for byte with
//! `tests/golden/analysis_closed_forms.txt`, plus a clock-free guard on what
//! computing it costs.
//!
//! Per program and predicate the golden file holds the closed-form cost and
//! its schema, every output size and its schema, and the threshold at
//! `W = 48`; per program, the `'$grain_ge'`-annotated text and the annotator's
//! decisions at `AnnotateOptions::default()`. Predicates are listed by name,
//! so the file does not depend on the order symbols were interned in.
//!
//! On a mismatch the failure names every program and predicate that moved
//! and the whole file as this build computes it is left in
//! `$TMPDIR/granlog-analysis-closed-forms.actual`. If the move is intended,
//! copy that file over the golden one and say why in the PR.

use granlog_analysis::annotate::{apply_granularity_control, AnnotateOptions};
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions, ProgramAnalysis};
use granlog_ir::{PredId, Program};
use std::fmt::Write as _;
use support::Section;

mod support;

/// The per-task overhead `W` the thresholds are taken at
/// (`AnnotateOptions::default`).
const OVERHEAD: f64 = 48.0;

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) `analyze_program` may
/// make over the 15 programs, each analysed once after a warm-up pass has
/// interned every symbol. One budget for both profiles: the count does not
/// depend on the optimisation level.
///
/// Measured by this file: 44 951 at the parent of the PR that introduced it
/// (4d1446c: canonical order by `Debug` text, clone-and-simplify predicates,
/// every clause's graph and size analysis built once per phase), debug and
/// `--release` alike; 18 671 with that PR. The budget leaves 7 % of headroom
/// and is well under two-thirds of the parent's figure (29 967).
const ALLOCATION_BUDGET: u64 = 20_000;

#[global_allocator]
static ALLOCATOR: support::CountingAllocator = support::CountingAllocator;

fn by_name(pred: &PredId) -> (&'static str, usize) {
    (pred.name.as_str(), pred.arity)
}

fn predicate_section(label: &str, analysis: &ProgramAnalysis, pred: PredId) -> Section {
    let info = &analysis.preds[&pred];
    let mut body = String::new();
    let _ = writeln!(body, "  cost = {}", info.cost);
    let _ = writeln!(body, "  cost schema = {}", info.cost_schema);
    for (pos, size) in &info.output_sizes {
        let schema = info
            .size_schemas
            .get(pos)
            .map_or("none".to_owned(), |s| s.to_string());
        let _ = writeln!(body, "  size[{}] = {size}", pos + 1);
        let _ = writeln!(body, "  size[{}] schema = {schema}", pos + 1);
    }
    let threshold = analysis.threshold_for(pred, OVERHEAD);
    let _ = writeln!(body, "  threshold({OVERHEAD}) = {threshold}");
    Section {
        header: format!("@ {label} {pred}"),
        body,
    }
}

fn annotated_section(label: &str, program: &Program, analysis: &ProgramAnalysis) -> Section {
    let annotated = apply_granularity_control(program, analysis, &AnnotateOptions::default());
    let mut preds: Vec<PredId> = annotated.program.predicates().map(|p| p.id).collect();
    preds.sort_by_key(by_name);
    let mut body = String::new();
    for pred in preds {
        for clause in annotated.program.clauses_of(pred) {
            let _ = writeln!(body, "  {}", clause.display());
        }
    }
    let mut decisions: Vec<_> = annotated.decisions.iter().collect();
    decisions.sort_by_key(|d| (by_name(&d.clause_pred), d.clause_index));
    for d in decisions {
        let _ = writeln!(
            body,
            "  decision {} clause {}: guarded {:?}, arms {:?}",
            d.clause_pred,
            d.clause_index + 1,
            d.guarded,
            d.arms
        );
    }
    Section {
        header: format!("@ {label} annotated"),
        body,
    }
}

fn measure() -> Vec<Section> {
    let mut sections = Vec::new();
    for bench in &support::fifteen_benchmarks() {
        let program = bench.program().expect("benchmark parses");
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let label = bench.label();
        let mut preds: Vec<PredId> = analysis.preds.keys().copied().collect();
        preds.sort_by_key(by_name);
        sections.extend(
            preds
                .into_iter()
                .map(|pred| predicate_section(&label, &analysis, pred)),
        );
        sections.push(annotated_section(&label, &program, &analysis));
    }
    sections
}

const GOLDEN_PREAMBLE: &str = "\
# What the granularity analysis computes for the fixed corpus, compared byte for
# byte by tests/analysis_oracle.rs. After an intended change, copy
# $TMPDIR/granlog-analysis-closed-forms.actual over this file.
";

#[test]
fn closed_forms_and_annotations_match_the_golden_file() {
    support::assert_matches_golden(
        "the analysis",
        "analysis_closed_forms.txt",
        include_str!("golden/analysis_closed_forms.txt"),
        "granlog-analysis-closed-forms.actual",
        GOLDEN_PREAMBLE,
        &measure(),
    );
}

#[test]
fn analysing_the_corpus_stays_inside_the_allocation_budget() {
    let programs: Vec<Program> = support::fifteen_benchmarks()
        .iter()
        .map(|bench| bench.program().expect("benchmark parses"))
        .collect();
    let options = AnalysisOptions::default();
    // Warm-up: intern every symbol the analysis makes up (`n1`, `$param_sum`).
    for program in &programs {
        analyze_program(program, &options);
    }
    let before = support::allocator_calls();
    let mut predicates = 0;
    for program in &programs {
        predicates += analyze_program(program, &options).preds.len();
    }
    let calls = support::allocator_calls() - before;
    assert_eq!(predicates, 40, "the corpus defines 40 predicates");
    assert!(
        calls <= ALLOCATION_BUDGET,
        "analyze_program made {calls} allocator calls over the 15 programs, \
         budget {ALLOCATION_BUDGET}"
    );
    println!("analyze_program: {calls} allocator calls over the 15 programs");
}
