//! The analysis' cost bound against the engine, in the one unit both
//! count: for each goal, the resolutions the engine counts running it to
//! its first answer (or to failure) beside `PredAnalysis::cost_at` of the
//! goal's predicate at the goal's input sizes. The paper lets this bound
//! govern spawning, so it must be an upper bound.
//!
//! ROADMAP item 1 ("The bound is a bound") is the work that turns every
//! `Under` row below into `Bounded`. Four of its defects are fixed: a
//! clause whose head pins no input size is charged at every level, not
//! only at the bottom (`mem/2` and `big/2` are bounded); exclusive clauses
//! are solved as one recurrence (`merge/3` grows with `n1 + n2`); and
//! whether two clauses both run on a call is decided by the clause shapes
//! of `granlog_ir::shape`, so a head its guard rejects is charged (defect
//! 3b: `merge/3`, `msort/2` and `partition/4` pay two heads a level) and
//! overlapping guards are not taken as exclusive (defect 5: `p/1`, whose
//! guards `X > 0` and `X > 5` both hold at 7, sums its clauses). Four are
//! left, and they are why four rows stay `Under`:
//! - defect 1′: a base clause that pins a size the recursive head also
//!   admits runs beside it there, so `last/2`, whose `last([_|T], X)`
//!   also matches a one-element list and fails one level down, pays one
//!   resolution the equation does not charge;
//! - defect 2: no literal is charged per solution of the ones before it,
//!   so `pairs/2` pays for one `mem/2` answer where it backtracks into
//!   ten;
//! - defect 4: a call argument that is another parameter's size counts
//!   as a constant, so `swap/2`, whose call trades its two sizes, is
//!   bounded as if only its first list shrank (`n1 + 2`);
//! - defect 6: a size crosses measures, so `lastdown/1` hands `last/2`'s
//!   output, a term size, to `down/1`, which counts down an integer
//!   value: the list `[1,2,3,100]` is 9 cells, and `down(100)` alone
//!   takes 101 resolutions.
//!
//! `walk/2` is bounded only because an additive walk over the parameter
//! sum is charged every base case, not the largest one.
//!
//! A row that moves either way fails here.

use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_benchmarks::suite;
use granlog_engine::Machine;
use granlog_ir::parser::parse_program;
use granlog_ir::PredId;

/// How the analysed cost of a goal stands to the resolutions the engine
/// counts running it.
#[derive(Debug, PartialEq)]
enum Soundness {
    /// The engine counts no more than the bound.
    Bounded { analysis: u64, engine: u64 },
    /// The engine counts more than the bound: it is unsound.
    Under { analysis: u64, engine: u64 },
}

use Soundness::{Bounded, Under};

/// A member predicate whose first clause matches at every length, and two
/// callers that backtrack into it.
const MEM: &str = "
    :- mode mem(-, +).
    mem(X, [X|_]).
    mem(X, [_|T]) :- mem(X, T).
    :- mode big(+, -).
    big(L, X) :- mem(X, L), X > 100.
    :- mode pairs(+, -).
    pairs(L, s(X, Y)) :- mem(X, L), mem(Y, L), X + Y > 1000.
";

/// Two lists walked by the sum of their lengths under clauses that are not
/// exclusive: at `walk([], [])` both base clauses resolve. `swap/2` hands
/// its second list on as its first, so its sizes trade places each level.
const WALKS: &str = "
    :- mode walk(+, +).
    walk([], _).
    walk(_, []).
    walk(A, [_, _|T]) :- walk([x|A], T).
    :- mode swap(+, +).
    swap([], _).
    swap(_, []).
    swap([_|Xs], [Y|Ys]) :- swap([Y|Ys], Xs).
";

/// A last element found by a recursive head that also matches the
/// one-element list, and a countdown from it: `last/2`'s output is a term
/// size, `down/1` reads it as an integer value.
const LAST: &str = "
    :- mode last(+, -).
    last([X], X).
    last([_|T], X) :- last(T, X).
    :- mode down(+).
    down(0).
    down(N) :- N > 0, M is N - 1, down(M).
    :- mode lastdown(+).
    lastdown(L) :- last(L, X), down(X).
";

/// Two clauses whose guards overlap: at `p(7)` both hold, and both run.
const GUARDS: &str = "
    :- mode p(+).
    p(X) :- X > 0, q(X).
    p(X) :- X > 5, q(X).
    q(_).
";

/// One goal: its program, the predicate whose bound applies, that
/// predicate's input sizes in the goal, and how the two counts stand.
struct Row {
    source: &'static str,
    goal: String,
    pred: PredId,
    sizes: Vec<f64>,
    expected: Soundness,
}

fn row(
    source: &'static str,
    goal: String,
    pred: (&str, usize),
    sizes: &[f64],
    expected: Soundness,
) -> Row {
    let pred = PredId::parse(pred.0, pred.1);
    let sizes = sizes.to_vec();
    Row {
        source,
        goal,
        pred,
        sizes,
        expected,
    }
}

/// A suite benchmark's source and its query at `size`.
fn benchmark(name: &str, size: usize) -> (&'static str, String) {
    let benchmark = suite::benchmark(name).expect("a suite benchmark");
    (benchmark.source, benchmark.query(size))
}

/// The Prolog list of the numbers `from, from + step, ...` up to `to`.
fn list(from: i64, to: i64, step: usize) -> String {
    let items: Vec<String> = (from..=to).step_by(step).map(|i| i.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn rows() -> Vec<Row> {
    let ten = list(1, 10, 1);
    let (merge_sort, msort_128) = benchmark("merge_sort", 128);
    let merge = format!("merge({}, {}, R)", list(1, 19, 2), list(2, 20, 2));
    let (nrev, nrev_30) = benchmark("nrev", 30);
    let (fib, fib_15) = benchmark("fib", 15);
    let (hanoi, hanoi_6) = benchmark("hanoi", 6);
    let (quick_sort, _) = benchmark("quick_sort", 1);
    vec![
        row(
            MEM,
            format!("mem(X, {ten}), X > 100"),
            ("mem", 2),
            &[10.0],
            Bounded {
                analysis: 21,
                engine: 20,
            },
        ),
        row(
            MEM,
            format!("big({ten}, X)"),
            ("big", 2),
            &[10.0],
            Bounded {
                analysis: 22,
                engine: 21,
            },
        ),
        row(
            MEM,
            format!("pairs({ten}, P)"),
            ("pairs", 2),
            &[10.0],
            Under {
                analysis: 43,
                engine: 221,
            },
        ),
        row(
            WALKS,
            "walk([], []), fail".to_string(),
            ("walk", 2),
            &[0.0, 0.0],
            Bounded {
                analysis: 2,
                engine: 2,
            },
        ),
        row(
            WALKS,
            format!("swap({}, {}), fail", list(1, 5, 1), list(1, 5, 1)),
            ("swap", 2),
            &[5.0, 5.0],
            Under {
                analysis: 7,
                engine: 10,
            },
        ),
        row(
            GUARDS,
            "p(7), fail".to_string(),
            ("p", 1),
            &[7.0],
            Bounded {
                analysis: 4,
                engine: 4,
            },
        ),
        row(
            merge_sort,
            merge,
            ("merge", 3),
            &[10.0, 10.0],
            Bounded {
                analysis: 41,
                engine: 29,
            },
        ),
        row(
            merge_sort,
            msort_128,
            ("msort", 2),
            &[128.0],
            Bounded {
                analysis: 3104,
                engine: 2508,
            },
        ),
        row(
            quick_sort,
            format!("partition({ten}, 0, S, B)"),
            ("partition", 4),
            &[10.0, 0.0],
            Bounded {
                analysis: 21,
                engine: 21,
            },
        ),
        row(
            LAST,
            format!("last({ten}, X), X > 100"),
            ("last", 2),
            &[10.0],
            Under {
                analysis: 10,
                engine: 11,
            },
        ),
        row(
            LAST,
            "lastdown([1,2,3,100])".to_string(),
            ("lastdown", 1),
            // The term size of the list: four cells, four numbers, `[]`.
            &[9.0],
            Under {
                analysis: 19,
                engine: 106,
            },
        ),
        row(
            nrev,
            nrev_30,
            ("nrev", 2),
            &[30.0],
            Bounded {
                analysis: 496,
                engine: 496,
            },
        ),
        row(
            fib,
            fib_15,
            ("fib", 2),
            &[15.0],
            Bounded {
                analysis: 49151,
                engine: 1973,
            },
        ),
        row(
            hanoi,
            hanoi_6,
            ("hanoi", 5),
            &[6.0, 0.0, 0.0, 0.0],
            Bounded {
                analysis: 4352,
                engine: 319,
            },
        ),
    ]
}

#[test]
fn the_analysed_cost_bounds_the_resolutions_the_engine_counts() {
    for row in rows() {
        let program = parse_program(row.source).expect("the program parses");
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let bound = analysis.preds[&row.pred]
            .cost_at(&row.sizes)
            .unwrap_or_else(|| panic!("{}: no bound at {:?}", row.goal, row.sizes));
        let outcome = Machine::new(&program).run_query(&row.goal);
        let engine = outcome.expect("the goal runs").counters.resolutions;
        let analysis = bound as u64;
        let found = if engine as f64 <= bound {
            Bounded { analysis, engine }
        } else {
            Under { analysis, engine }
        };
        assert_eq!(found, row.expected, "{}", row.goal);
    }
}
