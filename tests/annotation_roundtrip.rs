//! Integration test: granularity control is semantics-preserving.
//!
//! Soundness in the paper's sense (Section 6) means the transformation only
//! changes *where* work is executed, never *what* is computed. This test runs
//! several benchmarks in every control mode and checks that the computed
//! answers are identical, and that only the task structure (and the small
//! grain-test overhead) differs.

use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_benchmarks::harness::{execute, prepare_program, ControlMode};
use granlog_benchmarks::{benchmark, nrev_benchmark, Benchmark};
use granlog_ir::{AsTerm, Term, TermRef, View};
use granlog_sim::OverheadModel;

const MODES: [ControlMode; 4] = [
    ControlMode::NoControl,
    ControlMode::WithControl,
    ControlMode::FixedThreshold(6),
    ControlMode::Sequential,
];

/// Runs a benchmark in every mode and returns the answer bindings.
fn answers(bench: &Benchmark, size: usize) -> Vec<(ControlMode, Vec<(String, Term)>)> {
    let program = bench.program().expect("parses");
    let analysis = analyze_program(&program, &AnalysisOptions::default());
    let overhead = OverheadModel::rolog_like().per_task_overhead();
    MODES
        .iter()
        .map(|&mode| {
            let prepared = prepare_program(&program, &analysis, mode, overhead);
            let outcome = execute(prepared, bench.query(size));
            assert!(outcome.succeeded, "{} failed in mode {mode:?}", bench.name);
            let bindings = outcome
                .bindings
                .into_iter()
                .map(|(name, term)| (name.to_string(), term))
                .collect();
            (mode, bindings)
        })
        .collect()
}

fn assert_same_answers(bench: &Benchmark, size: usize) {
    let all = answers(bench, size);
    let (reference_mode, reference) = &all[0];
    for (mode, bindings) in &all[1..] {
        assert_eq!(
            bindings, reference,
            "{}({size}): answers differ between {reference_mode:?} and {mode:?}",
            bench.name
        );
    }
}

#[test]
fn quick_sort_answers_are_mode_independent() {
    assert_same_answers(&benchmark("quick_sort").unwrap(), 20);
}

#[test]
fn quick_sort_actually_sorts() {
    let bench = benchmark("quick_sort").unwrap();
    let program = bench.program().expect("parses");
    let analysis = analyze_program(&program, &AnalysisOptions::default());
    let prepared = prepare_program(&program, &analysis, ControlMode::WithControl, 60.0);
    let outcome = execute(prepared, bench.query(30));
    let sorted = outcome.binding("Sorted").expect("binding exists");
    let items: Vec<i64> = sorted
        .as_list()
        .expect("proper list")
        .iter()
        .map(|t| match t.view() {
            View::Int(i) => i,
            _ => panic!("non-integer element {t}"),
        })
        .collect();
    assert_eq!(items.len(), 30);
    assert!(
        items.windows(2).all(|w| w[0] <= w[1]),
        "not sorted: {items:?}"
    );
}

#[test]
fn fib_answers_are_mode_independent() {
    let bench = benchmark("fib").unwrap();
    assert_same_answers(&bench, 12);
    // And the value is right.
    let program = bench.program().expect("parses");
    let outcome = execute(program, "fib(12, R)".to_owned());
    assert_eq!(outcome.binding("R"), Some(&Term::int(144)));
}

#[test]
fn merge_sort_answers_are_mode_independent() {
    assert_same_answers(&benchmark("merge_sort").unwrap(), 24);
}

#[test]
fn double_sum_answers_are_mode_independent() {
    assert_same_answers(&benchmark("double_sum").unwrap(), 64);
}

#[test]
fn hanoi_produces_the_right_number_of_moves() {
    let bench = benchmark("hanoi").unwrap();
    assert_same_answers(&bench, 4);
    let program = bench.program().expect("parses");
    let outcome = execute(program, "hanoi(5, a, b, c, Moves)".to_owned());
    assert_eq!(
        outcome.binding("Moves").unwrap().list_length(),
        Some(31),
        "hanoi(5) must produce 2^5 − 1 moves"
    );
}

#[test]
fn matrix_mult_is_correct_on_a_small_instance() {
    let bench = benchmark("matrix_mult").unwrap();
    let program = bench.program().expect("parses");
    // [[1,2],[3,4]] × [[5,6],[7,8]] with the second matrix transposed:
    // columns of B are [5,7] and [6,8].
    let outcome = execute(program, "mmult([[1,2],[3,4]], [[5,7],[6,8]], C)".to_owned());
    assert!(outcome.succeeded);
    assert_eq!(
        outcome.binding("C").unwrap().to_string(),
        "[[19,22],[43,50]]"
    );
}

#[test]
fn tree_traversal_and_flatten_are_mode_independent() {
    assert_same_answers(&benchmark("tree_traversal").unwrap(), 4);
    assert_same_answers(&benchmark("flatten").unwrap(), 32);
}

#[test]
fn flatten_preserves_all_elements() {
    let bench = benchmark("flatten").unwrap();
    let program = bench.program().expect("parses");
    let outcome = execute(program, "flat([[1,2],[3],[],[4,5,6]], R)".to_owned());
    assert_eq!(outcome.binding("R").unwrap().to_string(), "[1,2,3,4,5,6]");
}

#[test]
fn consistency_and_poly_inclusion_run_in_all_modes() {
    assert_same_answers(&benchmark("consistency").unwrap(), 30);
    assert_same_answers(&benchmark("poly_inclusion").unwrap(), 8);
}

#[test]
fn fft_reproduces_a_known_small_transform() {
    let bench = benchmark("fft").unwrap();
    assert_same_answers(&bench, 8);
    let program = bench.program().expect("parses");
    // FFT of the constant signal [1, 1, 1, 1] is [4, 0, 0, 0].
    let outcome = execute(
        program,
        "fft([c(1.0,0.0), c(1.0,0.0), c(1.0,0.0), c(1.0,0.0)], Y)".to_owned(),
    );
    let spectrum = outcome.binding("Y").unwrap().as_list().expect("list");
    assert_eq!(spectrum.len(), 4);
    let component = |t: TermRef<'_>| -> (f64, f64) {
        let args = t.args();
        let to_f = |x: TermRef<'_>| match x.view() {
            View::Float(v) => v,
            View::Int(v) => v as f64,
            _ => panic!("unexpected component {x}"),
        };
        (to_f(args.at(0)), to_f(args.at(1)))
    };
    let (re0, im0) = component(spectrum[0]);
    assert!((re0 - 4.0).abs() < 1e-9 && im0.abs() < 1e-9);
    for t in &spectrum[1..] {
        let (re, im) = component(*t);
        assert!(
            re.abs() < 1e-9 && im.abs() < 1e-9,
            "nonzero bin: {re} + {im}i"
        );
    }
}

#[test]
fn lr1_set_answers_are_mode_independent() {
    assert_same_answers(&benchmark("lr1_set").unwrap(), 1);
}

#[test]
fn nrev_answers_are_mode_independent() {
    assert_same_answers(&nrev_benchmark(), 12);
}

#[test]
fn with_control_never_spawns_more_tasks_than_no_control() {
    for name in [
        "fib",
        "quick_sort",
        "merge_sort",
        "consistency",
        "double_sum",
    ] {
        let bench = benchmark(name).unwrap();
        let program = bench.program().expect("parses");
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let overhead = OverheadModel::rolog_like().per_task_overhead();
        let plain = execute(
            prepare_program(&program, &analysis, ControlMode::NoControl, overhead),
            bench.query(bench.test_size),
        );
        let controlled = execute(
            prepare_program(&program, &analysis, ControlMode::WithControl, overhead),
            bench.query(bench.test_size),
        );
        assert!(
            controlled.task_tree.spawned_tasks() <= plain.task_tree.spawned_tasks(),
            "{name}: control increased the number of tasks"
        );
    }
}
