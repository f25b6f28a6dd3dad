//! Quickstart: analyse a small program, look at the derived cost functions and
//! thresholds, and run the granularity-controlled version.
//!
//! ```text
//! cargo run -p granlog-benchmarks --example quickstart
//! ```

use granlog_analysis::annotate::{apply_granularity_control, AnnotateOptions};
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_analysis::report::render_report;
use granlog_engine::Machine;
use granlog_ir::parser::parse_program;
use granlog_ir::PredId;

fn main() {
    // A parallel quicksort, annotated with `&` by the programmer.
    let source = r#"
        :- mode qsort(+, -).
        :- mode partition(+, +, -, -).
        :- mode app(+, +, -).
        qsort([], []).
        qsort([P|Xs], S) :-
            partition(Xs, P, Small, Big),
            qsort(Small, SS) & qsort(Big, BS),
            app(SS, [P|BS], S).
        partition([], _, [], []).
        partition([X|Xs], P, [X|S], B) :- X =< P, partition(Xs, P, S, B).
        partition([X|Xs], P, S, [X|B]) :- X > P, partition(Xs, P, S, B).
        app([], L, L).
        app([H|T], L, [H|R]) :- app(T, L, R).
    "#;
    let program = parse_program(source).expect("the program parses");

    // 1. Static granularity analysis (Sections 3-5 of the paper).
    let analysis = analyze_program(&program, &AnalysisOptions::default());
    println!("{}", render_report(&analysis, Some(60.0)));

    // 2. The threshold for spawning a qsort call on a machine whose task
    //    management costs ~60 work units.
    let qsort = PredId::parse("qsort", 2);
    println!(
        "qsort/2: cost bound = {}, decision = {}",
        analysis.cost_of(qsort).expect("analysed"),
        analysis.threshold_for(qsort, 60.0)
    );

    // 3. Granularity control: rewrite the parallel conjunction so it only
    //    spawns when the runtime grain test passes.
    let annotated =
        apply_granularity_control(&program, &analysis, &AnnotateOptions { overhead: 60.0 });
    println!("\ntransformed program:\n{}", annotated.program);

    // 4. Run the transformed program.
    let mut machine = Machine::new(&annotated.program);
    let run = machine
        .run_query_recorded("qsort([7,3,9,1,8,2,6,5,4,0,11,10], S)")
        .expect("the query runs");
    println!(
        "sorted: {}\nresolutions: {}, grain tests: {}, tasks spawned: {}",
        run.outcome.binding("S").expect("answer"),
        run.outcome.counters.resolutions,
        run.outcome.counters.grain_tests,
        run.task_tree.spawned_tasks()
    );
}
