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
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

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

thread_local! {
    /// Allocator calls made by this thread.
    static ALLOCATOR_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread so the two tests of this
/// binary can run side by side.
struct CountingAllocator;

fn count_call() {
    // `try_with`: a thread that is being torn down may still free memory.
    let _ = ALLOCATOR_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell<u64>` (const-initialised, no destructor) and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One `@ program item` section of the golden file.
struct Section {
    header: String,
    body: String,
}

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

/// The file as committed: `#` lines are comments, an `@ program item` line
/// opens a section, indented lines are its body.
fn render(sections: &[Section]) -> String {
    let mut out = String::from(
        "# What the granularity analysis computes for the fixed corpus, compared byte for\n\
         # byte by tests/analysis_oracle.rs. After an intended change, copy\n\
         # $TMPDIR/granlog-analysis-closed-forms.actual over this file.\n",
    );
    for section in sections {
        out.push_str(&section.header);
        out.push('\n');
        out.push_str(&section.body);
    }
    out
}

/// Splits a rendered file back into its sections.
fn parse(text: &str) -> Vec<Section> {
    let mut sections: Vec<Section> = Vec::new();
    for line in text.lines().filter(|line| !line.starts_with('#')) {
        match sections.last_mut() {
            Some(open) if !line.starts_with('@') => {
                open.body.push_str(line);
                open.body.push('\n');
            }
            _ => sections.push(Section {
                header: line.to_owned(),
                body: String::new(),
            }),
        }
    }
    sections
}

#[test]
fn closed_forms_and_annotations_match_the_golden_file() {
    let sections = measure();
    let actual = render(&sections);
    let golden = include_str!("golden/analysis_closed_forms.txt");
    if actual == golden {
        return;
    }
    let path = std::env::temp_dir().join("granlog-analysis-closed-forms.actual");
    std::fs::write(&path, &actual).unwrap();

    let want = parse(golden);
    let mut moved = Vec::new();
    for section in &sections {
        match want.iter().find(|w| w.header == section.header) {
            None => moved.push(format!("{}: not in the golden file", section.header)),
            Some(w) if w.body != section.body => {
                let lines = w.body.lines().zip(section.body.lines());
                let (expected, got) = lines
                    .clone()
                    .find(|(e, g)| e != g)
                    .unwrap_or(("(a different number of lines)", ""));
                moved.push(format!(
                    "{}: expected `{}`, got `{}`",
                    section.header,
                    expected.trim(),
                    got.trim()
                ));
            }
            Some(_) => {}
        }
    }
    for w in &want {
        if !sections.iter().any(|s| s.header == w.header) {
            moved.push(format!("{}: only in the golden file", w.header));
        }
    }
    if moved.is_empty() {
        moved.push("only comments, spacing or section order differ".to_owned());
    }
    panic!(
        "the analysis left tests/golden/analysis_closed_forms.txt:\n  {}\n\
         (the file as computed was written to {})",
        moved.join("\n  "),
        path.display()
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
    let before = ALLOCATOR_CALLS.with(Cell::get);
    let mut predicates = 0;
    for program in &programs {
        predicates += analyze_program(program, &options).preds.len();
    }
    let calls = ALLOCATOR_CALLS.with(Cell::get) - before;
    assert_eq!(predicates, 40, "the corpus defines 40 predicates");
    assert!(
        calls <= ALLOCATION_BUDGET,
        "analyze_program made {calls} allocator calls over the 15 programs, \
         budget {ALLOCATION_BUDGET}"
    );
    println!("analyze_program: {calls} allocator calls over the 15 programs");
}
