//! The two relations of `granlog_ir::shape` against the engine, which
//! answers the same question by running the clauses. For each predicate
//! of the programs below, each clause becomes two one-clause programs: its
//! head as a fact, and its head with the leading builtins of its body (the
//! eager prefix, where its guards are), the rest of the body cut off. Goals
//! are ground in their inputs, drawn from the integers −2..7 and the lists
//! of those of length up to 3; outputs are fresh variables. The check reads
//! only which of those programs succeed:
//! - if `heads_overlap(i, j)` is false, no goal resolves both heads;
//! - if `guards_exclude(i, j)` is true, no goal passes both heads and both
//!   guards.

use granlog_engine::Machine;
use granlog_ir::builtins;
use granlog_ir::modes::{infer_modes, mode_or_default};
use granlog_ir::parser::parse_program;
use granlog_ir::{AsTerm, Clause, ClauseShape, PredId, Program, Term, TermRef};
use proptest::prelude::*;

/// The programs of the shape module's unit table, with the predicate each
/// row is about.
const PROGRAMS: &[(&str, &str, usize)] = &[
    (
        "merge([], L, L).
         merge([X|Xs], [], [X|Xs]).
         merge([X|Xs], [Y|Ys], [X|R]) :- X =< Y, merge(Xs, [Y|Ys], R).
         merge([X|Xs], [Y|Ys], [Y|R]) :- X > Y, merge([X|Xs], Ys, R).",
        "merge",
        3,
    ),
    (
        "partition([], _, [], []).
         partition([X|Xs], P, [X|S], B) :- X =< P, partition(Xs, P, S, B).
         partition([X|Xs], P, S, [X|B]) :- X > P, partition(Xs, P, S, B).",
        "partition",
        4,
    ),
    (
        "spin(N) :- N =< 0.
         spin(N) :- N > 0, N1 is N - 1, spin(N1).",
        "spin",
        1,
    ),
    (
        "fib(0, 0).
         fib(1, 1).
         fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                      fib(M1, N1), fib(M2, N2), N is N1 + N2.",
        "fib",
        2,
    ),
    (
        "hanoi(0, _, _, _, []).
         hanoi(N, A, B, C, M) :- N > 0, N1 is N - 1, hanoi(N1, A, C, B, M).",
        "hanoi",
        5,
    ),
    (
        "msort([], []).
         msort([X], [X]).
         msort([X, Y|Zs], [X, Y|Zs]).",
        "msort",
        2,
    ),
    (
        "last([X], X).
         last([_|T], X) :- last(T, X).",
        "last",
        2,
    ),
    (
        "ge(0).
         ge(N) :- N >= 0.",
        "ge",
        1,
    ),
    (
        "p(X) :- X > 0, q(X).
         p(X) :- X > 5, q(X).
         q(_).",
        "p",
        1,
    ),
    (
        "lt(X, Y) :- X < Y.
         lt(X, Y) :- Y =< X.",
        "lt",
        2,
    ),
    (
        "same(f(X), Y) :- X == Y.
         same(f(X), Y) :- Y \\== X.
         same(g, _).",
        "same",
        2,
    ),
];

/// The modes the programs are analysed in: every argument named `+` here
/// is drawn, every `-` is a fresh variable.
const MODES: &str = "
    :- mode merge(+, +, -).
    :- mode partition(+, +, -, -).
    :- mode spin(+).
    :- mode fib(+, -).
    :- mode hanoi(+, +, +, +, -).
    :- mode msort(+, -).
    :- mode last(+, -).
    :- mode ge(+).
    :- mode p(+).
    :- mode lt(+, +).
    :- mode same(+, +).
";

/// A drawn input: an integer, or a list of integers.
fn value() -> impl Strategy<Value = Term> {
    prop_oneof![
        (-2i64..8).prop_map(Term::int),
        prop::collection::vec(-2i64..8, 0..4)
            .prop_map(|items| Term::list(items.into_iter().map(Term::int))),
    ]
}

/// `clause`'s head with the leading builtins of its body, or (`prefix`
/// false) its head alone, as a one-clause program.
fn cut(clause: &Clause, prefix: bool) -> Program {
    let is_builtin =
        |goal: &TermRef<'_>| PredId::of_term(*goal).is_some_and(|p| builtins::lookup(p).is_some());
    let literals = clause.body_literals().into_iter();
    let kept: Vec<Term> = literals
        .take_while(|goal| prefix && is_builtin(goal))
        .map(|goal| goal.to_term())
        .collect();
    let body = kept
        .into_iter()
        .rev()
        .reduce(|rest, goal| Term::compound(",", vec![goal, rest]))
        .unwrap_or_else(|| Term::atom("true"));
    let mut program = Program::new();
    program.add_clause(Clause::new(
        clause.head.clone(),
        body,
        clause.var_names.clone(),
    ));
    program
}

/// Whether `program` answers `goal`; an error (a comparison of a list) is
/// no answer.
fn answers(program: &Program, goal: &Term) -> bool {
    let outcome = Machine::new(program).run_goal(goal, &[]);
    outcome.is_ok_and(|outcome| outcome.succeeded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_goal_reaches_two_clauses_the_relations_keep_apart(
        drawn in prop::collection::vec(value(), 5..6),
    ) {
        for (source, name, arity) in PROGRAMS {
            let program = parse_program(&format!("{MODES}{source}")).unwrap();
            let pred = PredId::parse(name, *arity);
            let modes = infer_modes(&program);
            let decl = mode_or_default(&modes, pred);
            let mut inputs = drawn.iter().cloned();
            let args = (0..*arity).map(|i| match decl.mode(i).is_input() {
                true => inputs.next().expect("five drawn values"),
                false => Term::var(i),
            });
            let goal = Term::structure(pred.name, args.collect());
            let clauses = program.clauses_of(pred);
            let shapes: Vec<ClauseShape<'_>> =
                clauses.iter().map(|c| ClauseShape::new(c, &decl)).collect();
            let ran = |prefix| -> Vec<bool> {
                clauses.iter().map(|c| answers(&cut(c, prefix), &goal)).collect()
            };
            let (resolves, passes) = (ran(false), ran(true));
            for i in 0..clauses.len() {
                for j in i + 1..clauses.len() {
                    let (a, b) = (&shapes[i], &shapes[j]);
                    let pair = format!("{pred} clauses {} and {} on {goal}", i + 1, j + 1);
                    let both_resolve = resolves[i] && resolves[j];
                    assert!(a.heads_overlap(b) || !both_resolve, "{pair}: both heads resolve");
                    let both_pass = passes[i] && passes[j];
                    assert!(!(a.guards_exclude(b) && both_pass), "{pair}: both guards pass");
                }
            }
        }
    }
}
