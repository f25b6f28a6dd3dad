//! What crosses the spawn boundary, and what is handed back across it.
//!
//! A stolen `&` arm returns its answer as a packet. An answer with no finite
//! copy — a cyclic binding, since there is no occurs check — cannot be
//! packed, so the thief hands the arm back and its forker runs it in place,
//! where no copy is needed: the query answers as the sequential machine
//! does, with the sequential machine's counters. This holds under
//! [`support::EagerThief`], which steals every offered arm on the calling
//! thread, and on the real executor, where whether the arm crosses is a
//! race.

mod support;

use granlog_engine::{Budget, Machine};
use granlog_ir::parser::{parse_program, parse_term};
use granlog_par::{Granularity, ParConfig, ParExecutor};

/// Arm 1 binds a variable the query never sees to a cyclic term; arm 0
/// keeps the forker busy long enough for a pool worker to steal arm 1.
const CYCLIC_ARM: &str = r#"
    cyc(X) :- X = f(X).
    work(0).
    work(N) :- N > 0, M is N - 1, work(M).
    s(Y) :- (work(20000) & cyc(_)), Y = 1.
"#;

#[test]
fn a_stolen_cyclic_arm_answers_as_an_inline_one() {
    let program = parse_program(CYCLIC_ARM).unwrap();
    let (goal, names) = parse_term("s(Y)").unwrap();
    let seq = Machine::new(&program).run_goal(&goal, &names).unwrap();
    assert_eq!(seq.binding("Y").unwrap().to_string(), "1");

    let thief = support::EagerThief::new(&program);
    let stolen = Machine::new(&program)
        .solve_goal(&goal, &names, Some(&thief), &Budget::default())
        .expect("a handed-back arm is no error");
    assert_eq!(thief.stolen.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_eq!(stolen.bindings, seq.bindings);
    assert_eq!(
        stolen.counters, seq.counters,
        "the thief's counters are dropped"
    );
    assert_eq!(stolen.counters.work(), seq.counters.work());

    for threads in [1, 2, 4] {
        for granularity in [Granularity::On, Granularity::AlwaysSpawn] {
            let mut executor = ParExecutor::new(
                &program,
                ParConfig {
                    threads,
                    granularity,
                    ..ParConfig::default()
                },
            );
            for run in 0..5 {
                let what = format!("{threads} threads, {granularity:?}, run {run}");
                let out = executor
                    .run_goal(&goal, &names)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(out.bindings, seq.bindings, "{what}");
                if granularity == Granularity::AlwaysSpawn {
                    assert_eq!(out.counters, seq.counters, "{what}");
                }
            }
        }
    }
}

/// A dependent `&` inside a stolen arm: the thief's own machine checks it
/// and runs it inline, as the sequential machine does.
#[test]
fn a_dependent_conjunction_in_a_stolen_arm_answers_sequentially() {
    let src = r#"
        p(1). p(2).
        q(2).
        dep(X) :- q(X) & p(X).
        go(A, B) :- dep(A) & dep(B).
    "#;
    let program = parse_program(src).unwrap();
    let (goal, names) = parse_term("go(A, B)").unwrap();
    let seq = Machine::new(&program).run_goal(&goal, &names).unwrap();
    assert_eq!(seq.binding("B").unwrap().to_string(), "2");
    let thief = support::EagerThief::new(&program);
    let stolen = Machine::new(&program)
        .solve_goal(&goal, &names, Some(&thief), &Budget::default())
        .unwrap();
    assert_eq!(thief.stolen.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_eq!(stolen.bindings, seq.bindings);
    assert_eq!(stolen.counters, seq.counters);
}
