//! Criterion microbenchmarks for the engine's clause-activation fast paths:
//!
//! * indexed clause selection (persistent first-argument index) vs. the
//!   reference per-call linear scan;
//! * dereferencing long bound-variable chains on the cell heap;
//! * choice-point churn: a clause bucket that fails deep and late, stressing
//!   choice-point creation, trail/arena restoration and goal-stack reuse.

use criterion::{criterion_group, criterion_main, Criterion};
use granlog_engine::{ClauseSelection, Machine, MachineConfig};
use granlog_ir::parser::parse_program;
use std::fmt::Write as _;
use std::hint::black_box;

fn bench_clause_selection(c: &mut Criterion) {
    // 64 facts with distinct first-argument keys; the query hits the last
    // one, the worst case for a linear scan and a single probe for the index.
    let mut src = String::new();
    for i in 0..64 {
        let _ = writeln!(src, "kind({i}, v{i}).");
    }
    let program = parse_program(&src).unwrap();
    let (goal, vars) = granlog_ir::parser::parse_term("kind(63, K)").unwrap();
    for (label, selection) in [
        ("clause selection: indexed", ClauseSelection::Indexed),
        ("clause selection: linear scan", ClauseSelection::LinearScan),
    ] {
        let mut machine = Machine::with_config(
            &program,
            MachineConfig {
                clause_selection: selection,
                ..MachineConfig::default()
            },
        );
        c.bench_function(label, |b| {
            b.iter(|| black_box(machine.run_goal(&goal, &vars).expect("runs").succeeded))
        });
    }
}

fn bench_deref_chains(c: &mut Criterion) {
    // Build a 50-link bound-variable chain in the query's root context, then
    // unify its head with itself 100 times. On the cell heap a chain link is
    // one 16-byte cell load, so this measures raw dereference throughput on
    // the pathological aliasing shape (benchmark-suite chains are 1–2
    // links; head unification collapses chains at call boundaries by
    // binding the dereferenced value).
    let program = parse_program("dummy.").unwrap();
    let mut query = String::new();
    for i in 0..50 {
        let _ = write!(query, "X{i} = X{}, ", i + 1);
    }
    query.push_str("X50 = 0");
    for _ in 0..100 {
        query.push_str(", X0 = X0");
    }
    let (goal, vars) = granlog_ir::parser::parse_term(&query).unwrap();
    let mut machine = Machine::new(&program);
    c.bench_function("deref chain: 50 links x 100 unifications", |b| {
        b.iter(|| black_box(machine.run_goal(&goal, &vars).expect("runs").succeeded))
    });
}

fn bench_choice_points(c: &mut Criterion) {
    // All 48 clauses share the variable-headed bucket, every body builds a
    // compound and fails until the last: each call opens a choice point,
    // grows the arena, and backtracking must restore trail + arena + goal
    // stack 47 times before succeeding.
    let mut src = String::new();
    for i in 0..47 {
        let _ = writeln!(src, "probe(X, p({i}, X)) :- fail.");
    }
    src.push_str("probe(X, done(X)).\n");
    src.push_str("drive(0, R) :- probe(0, R).\n");
    src.push_str("drive(N, R) :- N > 0, N1 is N - 1, probe(N, _), drive(N1, R).\n");
    let program = parse_program(&src).unwrap();
    let (goal, vars) = granlog_ir::parser::parse_term("drive(20, R)").unwrap();
    let mut machine = Machine::new(&program);
    c.bench_function("choice points: 48-deep retry x 21 calls", |b| {
        b.iter(|| black_box(machine.run_goal(&goal, &vars).expect("runs").succeeded))
    });
}

criterion_group!(
    benches,
    bench_clause_selection,
    bench_deref_chains,
    bench_choice_points
);
criterion_main!(benches);
