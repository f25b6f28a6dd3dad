//! Integration test: the granularity analysis runs over every benchmark
//! program of the suite and produces sensible, usable results.

use granlog_analysis::annotate::{apply_granularity_control, AnnotateOptions};
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions, ProgramAnalysis};
use granlog_analysis::{SchemaKind, Threshold};
use granlog_benchmarks::all_benchmarks;
use granlog_datalog::CompiledDatalog;
use granlog_ir::parser::{parse_program, parse_term};
use granlog_ir::{PredId, Program};

fn analyze(name: &str) -> (Program, ProgramAnalysis) {
    let bench = granlog_benchmarks::benchmark(name).expect("benchmark exists");
    let program = bench.program().expect("program parses");
    let analysis = analyze_program(&program, &AnalysisOptions::default());
    (program, analysis)
}

/// ROADMAP item 1, the analysis half of the front door: a fact holding a
/// 200 000-element list literal used to overflow the stack in the
/// analysis' size walks, the annotator's rewrite and the Datalog lowering.
/// Each reads the term's cells or walks its control spine by a loop now, so
/// all three run on a 2 MiB thread in an unoptimised build.
#[test]
fn a_200_000_element_literal_is_analysed_annotated_and_lowered_on_a_small_stack() {
    let items: Vec<String> = (0..200_000).map(|i| i.to_string()).collect();
    let list = format!("[{}]", items.join(","));
    let src = format!("big({list}).\ntwo(L) :- big(L) & big(L).\n");
    let answer = std::thread::Builder::new()
        .stack_size(2 * 1024 * 1024)
        .spawn(move || {
            let program = parse_program(&src).expect("parses");
            let analysis = analyze_program(&program, &AnalysisOptions::default());
            assert!(analysis.pred(PredId::parse("big", 1)).is_some());
            let options = AnnotateOptions::default();
            let annotated = apply_granularity_control(&program, &analysis, &options);
            assert_eq!(annotated.program.clauses()[0], program.clauses()[0]);
            assert_eq!(annotated.decisions.len(), 1);
            let database = CompiledDatalog::compile(&program)
                .expect("a Datalog program")
                .evaluate()
                .expect("evaluates");
            let (goal, names) = parse_term("two(L)").unwrap();
            let answers = database.query(&goal, &names).expect("answers");
            answers.bindings(0)[0].1.to_string()
        })
        .unwrap()
        .join()
        .expect("no stack overflow");
    assert_eq!(answer, list);
}

#[test]
fn every_benchmark_is_analysed_without_panicking() {
    for bench in all_benchmarks() {
        let program = bench.program().expect("parses");
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        // Every defined predicate has an entry and a cost expression.
        for predicate in program.predicates() {
            let info = analysis
                .pred(predicate.id)
                .unwrap_or_else(|| panic!("{}: {} missing", bench.name, predicate.id));
            assert!(
                !info.cost.is_undefined(),
                "{}: cost of {} must never be ⊥ (∞ is the conservative answer)",
                bench.name,
                predicate.id
            );
        }
    }
}

#[test]
fn fib_cost_is_exponential_and_threshold_is_small() {
    let (_, analysis) = analyze("fib");
    let fib = PredId::parse("fib", 2);
    let info = analysis.pred(fib).unwrap();
    assert_eq!(info.cost_schema, SchemaKind::GeometricConstant);
    // The bound dominates the true resolution count for a few sample sizes.
    for (n, truth) in [(5.0, 15.0), (10.0, 177.0), (15.0, 1973.0)] {
        let bound = info.cost_at(&[n]).unwrap();
        assert!(bound >= truth, "fib bound at {n}: {bound} < {truth}");
    }
    match analysis.threshold_for(fib, 60.0) {
        Threshold::SizeAtLeast(k) => assert!((4..=8).contains(&k), "k = {k}"),
        other => panic!("unexpected threshold {other:?}"),
    }
}

#[test]
fn quick_sort_partition_results() {
    let (_, analysis) = analyze("quick_sort");
    let partition = PredId::parse("partition", 4);
    // Partition's cost is linear in the length of its first argument.
    let cost = analysis.pred(partition).unwrap();
    let c10 = cost.cost_at(&[10.0, 0.0]).unwrap();
    let c20 = cost.cost_at(&[20.0, 0.0]).unwrap();
    assert!(
        (c20 - 2.0 * c10).abs() <= 2.0,
        "partition cost not linear: {c10} vs {c20}"
    );
    // Its output lists are no longer than the input list (plus a constant).
    let psi = analysis.output_size_of(partition, 2).unwrap();
    let bound = psi.eval_with(&[("n1", 30.0), ("n2", 5.0)]).unwrap();
    assert!((30.0..=31.0).contains(&bound));
    // qapp is the Appendix's append.
    let qapp = PredId::parse("qapp", 3);
    assert_eq!(analysis.cost_of(qapp).unwrap().to_string(), "n1 + 1");
}

#[test]
fn double_sum_inner_sum_is_linear() {
    let (_, analysis) = analyze("double_sum");
    let sum_list = PredId::parse("sum_list", 2);
    assert_eq!(analysis.cost_of(sum_list).unwrap().to_string(), "n + 1");
    assert_eq!(
        analysis.threshold_for(sum_list, 60.0),
        Threshold::SizeAtLeast(60)
    );
    assert_eq!(
        analysis.threshold_for(sum_list, 7.0),
        Threshold::SizeAtLeast(7)
    );
}

#[test]
fn consistency_check_has_constant_cost() {
    let (_, analysis) = analyze("consistency");
    let check = PredId::parse("check", 1);
    let cost = analysis
        .cost_of(check)
        .unwrap()
        .as_const()
        .expect("constant cost");
    // W is X mod 16 + 10 spins at most 25 times, and each step resolves
    // both `spin/1` heads, the first rejected by its guard: with `check/1`'s
    // own head and the bottom's two, 53 resolutions.
    assert_eq!(cost, 53.0, "check cost");
    // Below the ROLOG-like overhead (sequentialise), above the &-Prolog-like
    // one (keep parallel): the crux of the consistency benchmark.
    assert_eq!(
        analysis.threshold_for(check, 60.0),
        Threshold::NeverParallel
    );
    assert_eq!(
        analysis.threshold_for(check, 7.0),
        Threshold::AlwaysParallel
    );
}

#[test]
fn matrix_mult_row_cost_grows_with_both_dimensions() {
    let (_, analysis) = analyze("matrix_mult");
    let mrow = PredId::parse("mrow", 3);
    let info = analysis.pred(mrow).unwrap();
    let small = info.cost_at(&[4.0, 4.0]).unwrap();
    let big = info.cost_at(&[8.0, 8.0]).unwrap();
    assert!(
        big > 2.0 * small,
        "mrow cost should grow superlinearly in (rows, cols)"
    );
    assert!(big.is_finite());
}

#[test]
fn fft_split_halves_the_input() {
    let (_, analysis) = analyze("fft");
    let fsplit = PredId::parse("fsplit", 3);
    let psi = analysis.output_size_of(fsplit, 1).unwrap();
    let half = psi.eval_with(&[("n", 16.0)]).unwrap();
    assert!(
        (8.0..=9.0).contains(&half),
        "|evens| of 16 points bounded by {half}"
    );
    // The fft itself gets a finite divide-and-conquer-style bound or, at
    // worst, ∞ (always parallel) — never ⊥.
    let fft = PredId::parse("fft", 2);
    assert!(!analysis.cost_of(fft).unwrap().is_undefined());
}

#[test]
fn unbounded_predicates_default_to_always_parallel() {
    // tree_traversal's recursion is on subterms whose size the list-length /
    // term-size measures cannot relate exactly, so its cost is ∞ and the
    // conjunction stays parallel — the paper's "sequentialise only when it can
    // be proven better" philosophy.
    let (_, analysis) = analyze("tree_traversal");
    let tsum = PredId::parse("tsum", 2);
    assert!(analysis.cost_of(tsum).unwrap().is_infinite());
    assert_eq!(analysis.threshold_for(tsum, 1e9), Threshold::AlwaysParallel);
}

#[test]
fn annotation_produces_guards_under_high_overhead() {
    for name in [
        "fib",
        "quick_sort",
        "merge_sort",
        "double_sum",
        "consistency",
    ] {
        let (program, analysis) = analyze(name);
        let annotated =
            apply_granularity_control(&program, &analysis, &AnnotateOptions { overhead: 60.0 });
        assert!(
            !annotated.decisions.is_empty(),
            "{name}: no parallel conjunctions were considered"
        );
        let text = annotated.program.to_string();
        let guarded = annotated.decisions.iter().any(|d| d.guarded == Some(true));
        let sequentialised = annotated.decisions.iter().any(|d| d.guarded == Some(false));
        assert!(
            guarded || sequentialised,
            "{name}: granularity control changed nothing under a high overhead:\n{text}"
        );
    }
}

#[test]
fn annotation_is_a_noop_under_negligible_overhead() {
    for name in ["quick_sort", "double_sum"] {
        let (program, analysis) = analyze(name);
        let annotated =
            apply_granularity_control(&program, &analysis, &AnnotateOptions { overhead: 0.25 });
        // With (almost) free task creation, everything stays parallel.
        for d in &annotated.decisions {
            assert_ne!(
                d.guarded,
                Some(false),
                "{name}: sequentialised despite cheap tasks"
            );
        }
        assert!(!annotated.program.to_string().contains("$grain_ge") || name == "quick_sort");
    }
}
