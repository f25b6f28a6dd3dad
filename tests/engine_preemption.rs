//! Differential properties of the preemptible solve loop.
//!
//! Preemption must be *observationally free*: running any query in
//! budget-sized slices ([`Budget::steps`]) and resuming after every
//! [`Solve::Yield`] until completion must produce the same outcome as an
//! uninterrupted run — bit-identical, not just equivalent. Bindings,
//! success/failure, the full operation-counter block and the cost-model
//! work total are all compared with `==`: the budget check only *reads*
//! the counters, so slicing is invisible to every other observable.
//!
//! The same property is checked through the multi-threaded executor
//! (`granlog-par`) at 2 and 4 threads with granularity control on and in
//! always-spawn mode: the budget throttles only the root machine (spawned
//! arms join synchronously at their fork), so budgeted parallel runs stay
//! deterministic and match unbudgeted ones exactly.
//!
//! Alongside the differentials, the budget-*exhaustion* paths are pinned:
//! hard step/heap budgets must surface the typed
//! [`EngineError::BudgetExceeded`] from every machine state — mid-solve,
//! mid-backtrack, inside nested negation/if-then-else barriers, and
//! mid-parallel-join — and must leave the machine unwound (empty arena,
//! empty trail) and immediately reusable.

mod support;

use granlog_engine::{Budget, BudgetKind, EngineError, Machine, QueryOutcome, Solve};
use granlog_ir::parser::{parse_program, parse_term};
use granlog_par::{Granularity, ParConfig, ParExecutor};
use proptest::prelude::*;
use support::fifteen_benchmarks;

/// Runs `query` in `quantum`-step preemptible slices, resuming until the
/// solve completes. Returns the final outcome and the slice count.
fn run_sliced(machine: &mut Machine, query: &str, quantum: u64) -> (QueryOutcome, usize) {
    let (goal, vars) = parse_term(query).unwrap();
    let budget = Budget::steps(quantum);
    let mut slices = 1usize;
    let mut state = machine.solve_goal(&goal, &vars, None, &budget);
    loop {
        match state {
            Ok(Solve::Done(outcome)) => return (outcome, slices),
            Ok(Solve::Yield(token)) => {
                slices += 1;
                state = machine.resume(token, None, &budget);
            }
            Err(e) => panic!("{query} (quantum {quantum}) failed: {e}"),
        }
    }
}

/// The heart of the harness: uninterrupted vs. sliced must be identical in
/// every observable — including the counters, word for word.
fn assert_preemption_invisible(source: &str, query: &str, quantum: u64) {
    let program = parse_program(source).unwrap_or_else(|e| panic!("program does not parse: {e}"));
    let mut machine = Machine::new(&program);
    let full = machine
        .run_query(query)
        .unwrap_or_else(|e| panic!("uninterrupted {query} failed: {e}"));
    let mut sliced_machine = Machine::new(&program);
    let (sliced, slices) = run_sliced(&mut sliced_machine, query, quantum);
    assert_eq!(
        full.succeeded, sliced.succeeded,
        "{query}: success diverges at quantum {quantum}"
    );
    assert_eq!(
        full.bindings, sliced.bindings,
        "{query}: bindings diverge at quantum {quantum} ({slices} slices)"
    );
    assert_eq!(
        full.counters, sliced.counters,
        "{query}: operation counters diverge at quantum {quantum} ({slices} slices)"
    );
    assert_eq!(
        full.work, sliced.work,
        "{query}: work total diverges at quantum {quantum}"
    );
}

/// Every benchmark program at its test size, at a pathological quantum (1
/// step: a yield at *every* resolution boundary), a small prime quantum and
/// a coarse one.
#[test]
fn benchmarks_sliced_equals_uninterrupted() {
    for bench in fifteen_benchmarks() {
        let query = bench.query(bench.test_size);
        for quantum in [1, 13, 256] {
            assert_preemption_invisible(bench.source, &query, quantum);
        }
    }
}

/// The differential holds through the multi-threaded executor with
/// granularity control active: the budget throttles the root machine only,
/// and budgeted runs match unbudgeted ones bit-for-bit.
#[test]
fn benchmarks_sliced_parallel_equals_unbudgeted_parallel() {
    for bench in fifteen_benchmarks() {
        let query = bench.query(bench.test_size);
        let program = parse_program(bench.source).unwrap();
        let (goal, vars) = parse_term(&query).unwrap();
        for threads in [2, 4] {
            for granularity in [Granularity::On, Granularity::AlwaysSpawn] {
                let mut exec = ParExecutor::new(
                    &program,
                    ParConfig {
                        threads,
                        granularity,
                        ..ParConfig::default()
                    },
                );
                let full = exec.run_query(&query).unwrap_or_else(|e| {
                    panic!("{} ({threads}t, {granularity:?}) failed: {e}", bench.name)
                });
                let (sliced, slices) = exec
                    .run_goal_budgeted(&goal, &vars, &Budget::steps(97))
                    .unwrap_or_else(|e| {
                        panic!("budgeted {} ({threads}t, {granularity:?}): {e}", bench.name)
                    });
                assert!(slices >= 1);
                assert_eq!(full.succeeded, sliced.succeeded, "{}", bench.name);
                assert_eq!(full.bindings, sliced.bindings, "{}", bench.name);
                assert_eq!(full.counters, sliced.counters, "{}", bench.name);
                assert_eq!(full.spawned_tasks, sliced.spawned_tasks, "{}", bench.name);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (program, quantum) pairs: any quantum from the pathological
    /// to the never-fires must leave the answer stream and the counters
    /// untouched.
    #[test]
    fn random_quanta_are_invisible(
        bench_index in 0usize..15,
        quantum in 1u64..5000,
    ) {
        let suite = fifteen_benchmarks();
        let bench = &suite[bench_index % suite.len()];
        let query = bench.query(bench.test_size);
        assert_preemption_invisible(bench.source, &query, quantum);
    }
}

// ---------------------------------------------------------------------------
// Budget exhaustion: the typed error, the unwind, the reusable machine.
// ---------------------------------------------------------------------------

/// Asserts `machine` is fully unwound and still answers queries.
fn assert_unwound_and_reusable(machine: &mut Machine, probe: &str) {
    assert_eq!(
        machine.heap_len(),
        0,
        "arena must be truncated after an error"
    );
    assert_eq!(machine.trail_len(), 0, "trail must be empty after an error");
    assert!(!machine.is_suspended());
    let again = machine
        .run_query(probe)
        .expect("machine must stay usable after a budget error");
    assert!(again.succeeded, "probe query must succeed: {probe}");
}

fn expect_budget_error(result: Result<Solve, EngineError>, kind: BudgetKind) {
    match result {
        Err(EngineError::BudgetExceeded { resource, .. }) => {
            assert_eq!(resource, kind);
        }
        Ok(_) => panic!("expected a {kind:?} budget error, query finished"),
        Err(other) => panic!("expected a {kind:?} budget error, got {other}"),
    }
}

/// Step budget exhausted while the machine is deep in backtracking: `between`
/// enumerates and `fail` drives exhaustive backtracking through the choice
/// points.
#[test]
fn step_budget_mid_backtrack_unwinds() {
    let src = r#"
        between(L, _, L).
        between(L, H, X) :- L < H, L1 is L + 1, between(L1, H, X).
        churn :- between(1, 1000000, X), X > 1000000.
    "#;
    let program = parse_program(src).unwrap();
    let mut machine = Machine::new(&program);
    let (goal, vars) = parse_term("churn").unwrap();
    expect_budget_error(
        machine.solve_goal(&goal, &vars, None, &Budget::hard_steps(5000)),
        BudgetKind::Steps,
    );
    assert_unwound_and_reusable(&mut machine, "between(1, 5, 3)");
}

/// Heap budget exhausted mid-unification, while a long list is being built
/// cell by cell. Heap exhaustion is a hard error even under a preemptible
/// budget: yielding cannot reclaim memory.
#[test]
fn heap_budget_mid_list_build_unwinds() {
    let src = r#"
        build(0, []).
        build(N, [N|T]) :- N > 0, N1 is N - 1, build(N1, T).
    "#;
    let program = parse_program(src).unwrap();
    let mut machine = Machine::new(&program);
    let (goal, vars) = parse_term("build(100000, L)").unwrap();
    let budget = Budget {
        preemptible: true,
        ..Budget::heap_cells(1024)
    };
    expect_budget_error(
        machine.solve_goal(&goal, &vars, None, &budget),
        BudgetKind::HeapCells,
    );
    assert_unwound_and_reusable(&mut machine, "build(5, L)");
}

/// Budgets exhausted *inside* nested control barriers: negation-as-failure
/// wrapping an if-then-else wrapping a diverging goal. The barrier stack
/// must unwind with everything else.
#[test]
fn step_budget_inside_nested_barriers_unwinds() {
    let src = r#"
        loop(N) :- N1 is N + 1, loop(N1).
        tangle :- \+ ( ( loop(0) -> true ; true ) ).
        deeper :- \+ ( \+ ( ( tangle -> fail ; loop(5) ) ) ).
    "#;
    let program = parse_program(src).unwrap();
    for query in ["tangle", "deeper"] {
        let mut machine = Machine::new(&program);
        let (goal, vars) = parse_term(query).unwrap();
        expect_budget_error(
            machine.solve_goal(&goal, &vars, None, &Budget::hard_steps(400)),
            BudgetKind::Steps,
        );
        assert_unwound_and_reusable(&mut machine, "\\+ fail");
    }
}

/// Budget exhausted while a parallel conjunction is in flight: the inline
/// barrier path (no hook) and the real thread-pool path must both surface
/// the typed error and leave everything reusable.
#[test]
fn step_budget_mid_parallel_join_unwinds() {
    let src = r#"
        work(0, 1).
        work(N, R) :- N > 0, N1 is N - 1, work(N1, R1), R is R1 + 1.
        both(R) :- work(100000, A) & work(100000, B), R is A + B.
    "#;
    let program = parse_program(src).unwrap();
    // Inline execution: the `&` runs through the barrier stack of one machine.
    let mut machine = Machine::new(&program);
    let (goal, vars) = parse_term("both(R)").unwrap();
    expect_budget_error(
        machine.solve_goal(&goal, &vars, None, &Budget::hard_steps(3000)),
        BudgetKind::Steps,
    );
    assert_unwound_and_reusable(&mut machine, "work(3, R)");
    // Real pool: the error must propagate out of the executor, which stays
    // usable for the next query.
    let mut exec = ParExecutor::new(
        &program,
        ParConfig {
            threads: 2,
            granularity: Granularity::AlwaysSpawn,
            ..ParConfig::default()
        },
    );
    let err = exec
        .run_goal_budgeted(&goal, &vars, &Budget::hard_steps(3000))
        .expect_err("the pool must propagate the budget error");
    assert!(
        matches!(
            err,
            EngineError::BudgetExceeded {
                resource: BudgetKind::Steps,
                ..
            }
        ),
        "{err}"
    );
    let again = exec.run_query("work(3, R)").unwrap();
    assert!(again.succeeded);
}

/// A token from a superseded solve must be rejected, not resumed into the
/// wrong query's state.
#[test]
fn stale_tokens_are_rejected_across_queries() {
    let src = r#"
        count(0).
        count(N) :- N > 0, N1 is N - 1, count(N1).
    "#;
    let program = parse_program(src).unwrap();
    let mut machine = Machine::new(&program);
    let (goal, vars) = parse_term("count(100000)").unwrap();
    let token = match machine.solve_goal(&goal, &vars, None, &Budget::steps(10)) {
        Ok(Solve::Yield(token)) => token,
        other => panic!("a 10-step quantum must preempt: {other:?}"),
    };
    // A new query supersedes the suspended one.
    let fresh = machine.run_query("count(3)").unwrap();
    assert!(fresh.succeeded);
    let err = machine
        .resume(token, None, &Budget::steps(10))
        .expect_err("a stale token must not resume");
    assert!(err.to_string().contains("stale"), "{err}");
}
