//! The compiled clause body against what it replaced.
//!
//! A clause body's arithmetic runs as postfix code compiled with the clause
//! template, and its calls materialize from argument images; an expression
//! that only exists at run time is evaluated off the heap instead. This
//! suite holds the two arithmetic paths to one behaviour — same value, same
//! error text, same operation counters — over generated expressions, pins
//! the heap evaluator's native-stack independence, and pins the number of
//! arena cells a resolution writes, which is the mechanism's clock-free
//! signature.

use granlog_engine::{Machine, MachineConfig};
use granlog_ir::parser::parse_program;
use granlog_ir::{PredId, Term};
use proptest::prelude::*;

/// What one query did: its answer (printed: a NaN is not equal to itself)
/// or its error text, and the four operation counters (which survive an
/// error).
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<(bool, Option<String>), String>,
    resolutions: u64,
    head_attempts: u64,
    unifications: u64,
    builtins: u64,
}

fn observe(machine: &mut Machine, query: &str) -> Observed {
    let result = machine
        .run_query(query)
        .map(|outcome| (outcome.succeeded, outcome.binding("V").map(Term::to_string)))
        .map_err(|e| e.to_string());
    let counters = machine.counters();
    Observed {
        result,
        resolutions: counters.resolutions,
        head_attempts: counters.head_attempts,
        unifications: counters.unifications,
        builtins: counters.builtins,
    }
}

/// Evaluates `e1` (and compares it with `e2` under `cmp`) both ways, with
/// clause variables `A` and `B` bound to `a` and `b` and `U` unbound:
///
/// * compiled — the expression is written in the clause body: in the eager
///   prefix (`ci`, `cp`), after a user call (`ca`) and inside an
///   if-then-else condition (`cc`);
/// * heap — the same body position, but the expression is first bound to a
///   variable (`E = <expr>`), so the arithmetic step meets it as a term in
///   the arena.
///
/// The heap clause executes one `=/2` per expression before the arithmetic
/// goal is reached, whatever happens then: that many more builtins and
/// unifications, and nothing else, may separate the two.
fn check_both_ways(e1: &str, e2: &str, cmp: &str, a: &str, b: &str) {
    let src = format!(
        "nop.\n\
         ci(A, B, V) :- V is {e1}.\n\
         hi(A, B, V) :- E = {e1}, V is E.\n\
         ca(A, B, V) :- nop, V is {e1}.\n\
         ha(A, B, V) :- nop, E = {e1}, V is E.\n\
         cc(A, B, V) :- ( {e1} {cmp} {e2} -> V = yes ; V = no ).\n\
         hc(A, B, V) :- ( E1 = {e1}, E2 = {e2}, E1 {cmp} E2 -> V = yes ; V = no ).\n\
         cp(A, B, V) :- {e1} {cmp} {e2}.\n\
         hp(A, B, V) :- E1 = {e1}, E2 = {e2}, E1 {cmp} E2.\n"
    );
    let program = parse_program(&src).unwrap_or_else(|e| panic!("{src}\ndoes not parse: {e}"));
    let mut machine = Machine::new(&program);
    for (compiled, heap, bound_first) in [
        ("ci", "hi", 1),
        ("ca", "ha", 1),
        ("cc", "hc", 2),
        ("cp", "hp", 2),
    ] {
        let c = observe(&mut machine, &format!("{compiled}({a}, {b}, V)"));
        let h = observe(&mut machine, &format!("{heap}({a}, {b}, V)"));
        let expected = Observed {
            unifications: c.unifications + bound_first,
            builtins: c.builtins + bound_first,
            ..c
        };
        assert_eq!(
            h, expected,
            "{compiled} against {heap} on `{e1}` {cmp} `{e2}` with A = {a}, B = {b}"
        );
    }
}

const LEAVES: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "7",
    "-5",
    "63",
    "64",
    "9223372036854775807",
    "0.0",
    "0.5",
    "2.5",
    "-1.5",
    "1.0e300",
    "pi",
    "e",
    // An unknown constant, the clause's two bound variables, an unbound one.
    "foo",
    "A",
    "B",
    "U",
];

/// Every one-argument function of the table, and one that is not in it.
const UNARY: &[&str] = &[
    "-", "+", "abs", "sign", "sqrt", "sin", "cos", "atan", "log", "exp", "float", "integer",
    "truncate", "round", "floor", "ceiling", "bar",
];

/// Every two-argument function of the table that reads as an infix operator.
const INFIX: &[&str] = &[
    "+", "-", "*", "/", "//", "div", "mod", "rem", "**", "^", ">>", "<<", "/\\", "\\/",
];

/// The rest, and one that is not in the table.
const BINARY: &[&str] = &["min", "max", "baz"];

const COMPARISONS: &[&str] = &["<", ">", "=<", ">=", "=:=", "=\\="];

fn expression() -> impl Strategy<Value = String> {
    let leaf = (0..LEAVES.len()).prop_map(|k| LEAVES[k].to_owned());
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (0..UNARY.len(), inner.clone()).prop_map(|(f, x)| format!("{}({x})", UNARY[f])),
            (0..INFIX.len(), inner.clone(), inner.clone())
                .prop_map(|(f, x, y)| format!("(({x}) {} ({y}))", INFIX[f])),
            (0..BINARY.len(), inner.clone(), inner)
                .prop_map(|(f, x, y)| format!("{}({x}, {y})", BINARY[f])),
        ]
    })
}

fn operand() -> impl Strategy<Value = String> {
    prop_oneof![
        (-70i64..70).prop_map(|i| i.to_string()),
        (-40i64..40).prop_map(|q| format!("{:?}", q as f64 / 4.0)),
        Just("9223372036854775807".to_owned()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_and_heap_arithmetic_agree(
        e1 in expression(),
        e2 in expression(),
        cmp in 0..COMPARISONS.len(),
        a in operand(),
        b in operand(),
    ) {
        check_both_ways(&e1, &e2, COMPARISONS[cmp], &a, &b);
    }
}

/// The cases the generator is unlikely to hit, by hand: the values that used
/// to be silently wrong, error precedence around an unknown function, and
/// expressions past the compiled evaluator's operand array (whose goals
/// compile to plain builtin steps).
#[test]
fn compiled_and_heap_arithmetic_agree_on_the_corner_cases() {
    let right_nested = |depth: usize| (0..depth).fold("A".to_owned(), |e, _| format!("(1 + {e})"));
    let deep = right_nested(12);
    let deep_trap = format!("(1 + {})", right_nested(12).replace('A', "foo(1 / 0)"));
    for (e1, e2) in [
        ("truncate(1.0e300)", "0"),
        ("integer(log(-1))", "0"),
        ("1 << 64", "1 << -1"),
        ("7 >> 100", "-8 >> 100"),
        ("sqrt(-1)", "5"),
        ("1.0e308 * 10 - 1.0e308 * 10", "5"),
        ("foo(1 / 0)", "1 / 0 + foo(1)"),
        ("1 / 0 + foo(1)", "foo(1 / 0)"),
        ("(-9223372036854775807 - 1) // -1", "A"),
        ("A + B * 2 - A mod 3", "B"),
        (deep.as_str(), "13"),
        ("13", deep.as_str()),
        (deep_trap.as_str(), deep.as_str()),
    ] {
        for cmp in COMPARISONS {
            check_both_ways(e1, e2, cmp, "1", "2.5");
        }
    }
}

/// The two-clause program of ROADMAP item 1's `arith::eval` bullet: a `+`
/// chain 300 000 deep, built at run time. It used to overflow the native
/// stack — of `granlog run`, and of a `granlog serve` connection thread,
/// which took every tenant down. Evaluated here on a thread of that size.
#[test]
fn a_run_time_expression_of_any_depth_evaluates_on_a_connection_sized_stack() {
    const DEEP: &str = "mk(0, 0).\n\
        mk(N, X + 1) :- N > 0, N1 is N - 1, mk(N1, X).\n\
        deep(V) :- mk(300000, E), V is E.\n\
        deeper(V) :- mk(300000, E), E + 1 =:= V.\n";
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let program = parse_program(DEEP).unwrap();
            let mut machine = Machine::new(&program);
            let out = machine.run_query("deep(V)").unwrap();
            assert!(out.succeeded);
            assert_eq!(out.binding("V"), Some(&Term::int(300_000)));
            assert!(machine.run_query("deeper(300001)").unwrap().succeeded);
            assert!(!machine.run_query("deeper(300000)").unwrap().succeeded);
        })
        .unwrap()
        .join()
        .unwrap();
}

/// Arena cells written per call of `pred` while `query` runs, from the
/// profiler: `(heap_cells, calls)`.
fn cells_per_call(src: &str, query: &str, pred: PredId) -> (u64, u64) {
    let program = parse_program(src).unwrap();
    let config = MachineConfig {
        profile: true,
        ..MachineConfig::default()
    };
    let mut machine = Machine::with_config(&program, config);
    assert!(machine.run_query(query).unwrap().succeeded);
    let profile = machine.profile().expect("the profiler is on");
    let (_, row) = profile
        .iter()
        .find(|(id, _)| *id == pred)
        .expect("the predicate was called");
    (row.heap_cells, row.calls)
}

/// The clock-free guard on the mechanism: what a resolution writes into the
/// arena. A predicate is charged its clauses' variable blocks, the head
/// structure it builds and what its body steps materialize. With the body
/// compiled that is the argument block of each call and the one cell `is/2`
/// parks its value in — the goal terms of `is/2` and the comparisons are
/// never built. (Materializing them cost `steps/2` 20 or 22 cells a
/// resolution instead of 8 — 2 302 over this query — and `fib/2` 17 instead
/// of 13.)
#[test]
fn a_resolution_writes_its_variables_and_its_calls_arguments_only() {
    // 111 resolutions of the second clause — 4 variables, 2 cells of
    // `steps(M, L1)`, 1 parked by each of the two `is` it runs — and the
    // `steps(1, 0)` fact, which writes nothing.
    assert_eq!(
        cells_per_call(
            granlog_benchmarks::benchmark("ite_dispatch")
                .unwrap()
                .source,
            "collatz_lens([27], L)",
            PredId::parse("steps", 2),
        ),
        (111 * (4 + 2 + 1 + 1), 112)
    );
    // 986 resolutions of the recursive clause — 6 variables, 2 + 2 cells of
    // the calls, 1 parked by each of its three `is` — and 987 of the facts.
    assert_eq!(
        cells_per_call(
            granlog_benchmarks::benchmark("fib").unwrap().source,
            "fib(15, F)",
            PredId::parse("fib", 2),
        ),
        (986 * (6 + 2 + 2 + 3), 1973)
    );
}
