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
///
/// Each pair runs with `V` unbound, then with `V` bound before the call: to
/// the compiled side's own answer, to that number in the other numeric type
/// (`1` against `1.0`), and to a compound — so `is/2` both binds its result
/// and compares it.
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
        let mut check = |v: &str| {
            let c = observe(&mut machine, &format!("{compiled}({a}, {b}, {v})"));
            let h = observe(&mut machine, &format!("{heap}({a}, {b}, {v})"));
            let result = c.result.clone().ok();
            let expected = Observed {
                unifications: c.unifications + bound_first,
                builtins: c.builtins + bound_first,
                ..c
            };
            assert_eq!(
                h, expected,
                "{compiled} against {heap} on `{e1}` {cmp} `{e2}` with A = {a}, B = {b}, V = {v}"
            );
            result
        };
        check("f(1)");
        if let Some((_, Some(answer))) = check("V") {
            check(&answer);
            if let Some(other) = other_numeric_type(&answer) {
                let result = check(&other);
                // Both sides unify through the same `unify_cell`, so the
                // differential alone cannot see it confuse `1` with `1.0`.
                if bound_first == 1 {
                    assert_eq!(
                        result,
                        Some((false, None)),
                        "{compiled}: {e1} is not {other}"
                    );
                }
            }
        }
    }
}

/// The printed number `answer` in the other numeric type, if it has one:
/// `1` for `1.0` and `1.0` for `1`.
fn other_numeric_type(answer: &str) -> Option<String> {
    if let Ok(i) = answer.parse::<i64>() {
        return Some(format!("{i}.0"));
    }
    let x = answer.parse::<f64>().ok()?;
    (x.fract() == 0.0 && x.abs() < 1e15).then(|| format!("{}", x as i64))
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

/// Values for `A` and `B` that are not numbers, so compiled code meets them
/// as terms and hands them to the heap evaluator: compound expressions, an
/// arithmetic constant, an unknown atom and a compound that is no
/// expression.
const NOT_NUMBERS: &[&str] = &["1 + 2", "-(3.5)", "pi", "foo", "f(1)"];

/// A value for `A` or `B`: a number, which compiled code reads straight
/// from the activation, or one of [`NOT_NUMBERS`].
fn operand() -> impl Strategy<Value = String> {
    prop_oneof![
        (-70i64..70).prop_map(|i| i.to_string()),
        (-40i64..40).prop_map(|q| format!("{:?}", q as f64 / 4.0)),
        Just("9223372036854775807".to_owned()),
        (0..NOT_NUMBERS.len()).prop_map(|k| NOT_NUMBERS[k].to_owned()),
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
/// compiled that is the argument block of each call — the goal terms of
/// `is/2` and the comparisons are never built, and `is/2` binds its value
/// in place instead of parking it in a cell of its own. (Materializing the
/// goals cost `steps/2` 20 or 22 cells a resolution instead of 6 — 2 302
/// over this query — and `fib/2` 17 instead of 10; parking each `is/2`
/// value cost them 8 and 13.) A builtin that binds a number or an atom to
/// an unbound output — `is/2` on an expression bound at run time or too
/// long to compile, `length/2`, `functor/3` — parks nothing either.
#[test]
fn a_resolution_writes_its_variables_and_its_calls_arguments_only() {
    // 111 resolutions of the second clause — 4 variables and 2 cells of
    // `steps(M, L1)` — and the `steps(1, 0)` fact, which writes nothing.
    assert_eq!(
        cells_per_call(
            granlog_benchmarks::benchmark("ite_dispatch")
                .unwrap()
                .source,
            "collatz_lens([27], L)",
            PredId::parse("steps", 2),
        ),
        (111 * (4 + 2), 112)
    );
    // 986 resolutions of the recursive clause — 6 variables and 2 + 2 cells
    // of the calls — and 987 of the facts.
    assert_eq!(
        cells_per_call(
            granlog_benchmarks::benchmark("fib").unwrap().source,
            "fib(15, F)",
            PredId::parse("fib", 2),
        ),
        (986 * (6 + 2 + 2), 1973)
    );
    const OUTPUTS: &str = "dec(N, M) :- E = N - 1, M is E.\n\
        far(N, M) :- M is N + (1 + (1 + (1 + (1 + (1 + (1 + (1 + 1))))))).\n\
        len(L, N) :- length(L, N).\n\
        fun(T, F, A) :- functor(T, F, A).\n";
    // 3 variables and the 2 + 2 cells of `E = N - 1`.
    assert_eq!(
        cells_per_call(OUTPUTS, "dec(5, M)", PredId::parse("dec", 2)),
        (3 + 4, 1)
    );
    // 2 variables and the goal term of an `is/2` whose expression is past
    // the compiled evaluator's operand array, so it runs as a builtin: 2
    // cells of `is/2`, 2 of each of the eight `+`.
    assert_eq!(
        cells_per_call(OUTPUTS, "far(5, M)", PredId::parse("far", 2)),
        (2 + 2 + 8 * 2, 1)
    );
    // 2 variables and the 2 cells of `length(L, N)`.
    assert_eq!(
        cells_per_call(OUTPUTS, "len([a, b, c], N)", PredId::parse("len", 2)),
        (2 + 2, 1)
    );
    // 3 variables and the 3 cells of `functor(T, F, A)`, which binds two.
    assert_eq!(
        cells_per_call(OUTPUTS, "fun(g(x, y), F, A)", PredId::parse("fun", 3)),
        (3 + 3, 1)
    );
}
