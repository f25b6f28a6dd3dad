//! Budget exhaustion: one [`Budget`] per query, from every machine state.
//!
//! Each of the three limits — head attempts, arena cells, wall clock — must
//! end a query in the typed [`EngineError::BudgetExceeded`] of its own
//! resource wherever the machine is when it runs out: mid-backtrack,
//! mid-list-build, inside nested negation / if-then-else barriers, and with
//! a parallel conjunction in flight. Afterwards the machine is unwound
//! (empty arena, empty trail) and answers the next query.
//!
//! The executor has no budget of its own; its mid-join case is an engine
//! error raised deep inside a stolen arm, which must leave the pool as
//! reusable as a budget error leaves a machine.

use granlog_engine::{Budget, BudgetKind, EngineError, Machine};
use granlog_ir::parser::{parse_program, parse_term};
use granlog_par::{Granularity, ParConfig, ParExecutor};
use std::time::Duration;

/// A budget of one resource, small enough that `kind` is what runs out.
fn only(kind: BudgetKind) -> Budget {
    match kind {
        BudgetKind::Steps => Budget {
            steps: Some(3000),
            ..Budget::default()
        },
        BudgetKind::HeapCells => Budget {
            heap_cells: Some(1024),
            ..Budget::default()
        },
        BudgetKind::Wall => Budget {
            wall: Some(Duration::from_millis(2)),
            ..Budget::default()
        },
    }
}

/// Runs `query` under a budget of each resource in turn on one machine:
/// each must end in its own typed error, leave the machine unwound, and
/// leave it answering `probe`.
fn assert_every_budget_unwinds(src: &str, query: &str, probe: &str) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("program does not parse: {e}"));
    let mut machine = Machine::new(&program);
    let (goal, vars) = parse_term(query).unwrap();
    for kind in [BudgetKind::Steps, BudgetKind::HeapCells, BudgetKind::Wall] {
        match machine.solve_goal(&goal, &vars, None, &only(kind)) {
            Err(EngineError::BudgetExceeded { resource, .. }) => {
                assert_eq!(resource, kind, "{query}")
            }
            Ok(_) => panic!("{query}: expected a {kind:?} budget error, query finished"),
            Err(other) => panic!("{query}: expected a {kind:?} budget error, got {other}"),
        }
        assert_eq!(machine.heap_len(), 0, "{query}, {kind:?}: arena truncated");
        assert_eq!(machine.trail_len(), 0, "{query}, {kind:?}: trail emptied");
        let again = machine
            .run_query(probe)
            .unwrap_or_else(|e| panic!("{query}, {kind:?}: machine unusable: {e}"));
        assert!(
            again.succeeded,
            "{query}, {kind:?}: probe {probe} must succeed"
        );
    }
}

/// `between` enumerates and `X > H` rejects every candidate, so the machine
/// is deep in exhaustive backtracking through its choice points when the
/// budget runs out.
#[test]
fn budgets_mid_backtrack_unwind() {
    let src = r#"
        between(L, _, L).
        between(L, H, X) :- L < H, L1 is L + 1, between(L1, H, X).
        churn :- between(1, 100000000, X), X > 100000000.
    "#;
    assert_every_budget_unwinds(src, "churn", "between(1, 5, 3)");
}

/// The budget runs out while a long list is being built cell by cell.
#[test]
fn budgets_mid_list_build_unwind() {
    let src = r#"
        build(0, []).
        build(N, [N|T]) :- N > 0, N1 is N - 1, build(N1, T).
    "#;
    assert_every_budget_unwinds(src, "build(100000000, L)", "build(5, L)");
}

/// The budget runs out *inside* nested control barriers: negation wrapping
/// an if-then-else condition wrapping a diverging goal. The barrier stack
/// unwinds with everything else.
#[test]
fn budgets_inside_nested_barriers_unwind() {
    let src = r#"
        loop(N) :- N1 is N + 1, loop(N1).
        tangle :- \+ ( ( loop(0) -> true ; true ) ).
        deeper :- \+ ( \+ ( ( tangle -> fail ; loop(5) ) ) ).
    "#;
    for query in ["tangle", "deeper"] {
        assert_every_budget_unwinds(src, query, "\\+ fail");
    }
}

/// A parallel conjunction in flight: on one machine the `&` runs through
/// the barrier stack, and the budget runs out inside its first arm. On the
/// thread pool, an arithmetic error raised deep inside the conjunction's
/// third arm — stolen or not — ends the query with that error, and the
/// executor answers the next query.
#[test]
fn budget_mid_parallel_join_unwinds() {
    let src = r#"
        work(0, 1).
        work(N, R) :- N > 0, N1 is N - 1, work(N1, R1), R is R1 + 1.
        broken(0, _) :- _ is foo + 1.
        broken(N, R) :- N > 0, N1 is N - 1, broken(N1, R).
        both(R) :- work(100000, A) & work(100000, B), R is A + B.
        trio(R) :- work(20000, A) & work(20000, B) & broken(2000, C), R is A + B + C.
    "#;
    assert_every_budget_unwinds(src, "both(R)", "work(3, R)");
    let program = parse_program(src).unwrap();
    for threads in [1, 2, 4] {
        let mut exec = ParExecutor::new(
            &program,
            ParConfig {
                threads,
                granularity: Granularity::AlwaysSpawn,
                ..ParConfig::default()
            },
        );
        for _ in 0..5 {
            let err = exec
                .run_query("trio(R)")
                .expect_err("the pool must propagate the arm's error");
            assert!(matches!(err, EngineError::Arithmetic(_)), "{err}");
            let again = exec.run_query("work(3, R)").unwrap();
            assert_eq!(again.binding("R").unwrap().to_string(), "4");
        }
    }
}
