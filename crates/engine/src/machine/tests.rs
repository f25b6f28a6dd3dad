//! Unit tests of the machine: answers, counters, control, budgets, the
//! spawn boundary's packets and the profiler.

use super::budget::{next_wall_poll_mask, INITIAL_WALL_POLL_MASK, MIN_WALL_POLL_MASK};
use super::offer::PackStop;
use super::*;
use crate::error::BudgetKind;
use crate::tasktree::{ForkSpan, Segment};
use granlog_ir::parser::parse_program;
use std::time::{Duration, Instant};

/// Loads a term into the arena (reserving slots for its variables) and
/// returns a heap index for it: for unit tests that want to evaluate or
/// inspect a term outside a query.
pub(crate) fn write_term(machine: &mut Machine, term: &Term) -> usize {
    let mut layout = Layout::default();
    let root = layout.add(term.cells());
    layout.lay_out(root);
    let var_base = machine.fresh_vars(layout.vars());
    let cell = machine.write(&layout, root, var_base);
    machine.heap.push(cell);
    machine.heap.len() - 1
}

fn run(program_src: &str, query: &str) -> QueryOutcome {
    let program = parse_program(program_src).unwrap();
    let mut machine = Machine::new(&program);
    machine.run_query(query).unwrap()
}

const APPEND: &str = r#"
    append([], L, L).
    append([H|T], L, [H|R]) :- append(T, L, R).
"#;

#[test]
fn machine_is_send() {
    // The parallel executor moves machines between worker threads (one
    // machine per worker, plus a shared free-list). Nothing in the
    // machine may reintroduce a non-Send handle.
    fn assert_send<T: Send + 'static>() {}
    assert_send::<Machine>();
}

#[test]
fn goal_stack_records_stay_small() {
    // Every goal-stack slot, choice point and barrier is one of these; an
    // activation context that grows would grow them all.
    use super::control::{Barrier, ChoicePoint, Goal, Pend, StepRef};
    use std::mem::size_of;
    assert!(size_of::<Goal>() <= 24);
    assert_eq!(size_of::<StepRef>(), 16);
    assert!(size_of::<Pend>() <= 24);
    assert!(size_of::<ChoicePoint>() <= 80);
    assert!(size_of::<Barrier>() <= 88);
}

#[test]
fn a_machine_outlives_the_program_it_was_compiled_from() {
    fn owned() -> Machine {
        let program = parse_program(APPEND).unwrap();
        Machine::new(&program)
    }
    let mut machine = owned();
    let out = machine.run_query("append(X, [3], [1, 2, 3])").unwrap();
    assert_eq!(out.binding("X").unwrap().to_string(), "[1,2]");
    // ... and so does a second machine made from the first one's image,
    // on another thread.
    let image = Arc::clone(&machine.image);
    drop(machine);
    let out = std::thread::spawn(move || {
        Machine::from_image(image, MachineConfig::default())
            .run_query("append([1], [2], X)")
            .unwrap()
    })
    .join()
    .unwrap();
    assert_eq!(out.binding("X").unwrap().to_string(), "[1,2]");
}

#[test]
fn facts_and_failure() {
    let out = run("likes(mary, wine). likes(john, beer).", "likes(mary, wine)");
    assert!(out.succeeded);
    let out = run("likes(mary, wine).", "likes(mary, beer)");
    assert!(!out.succeeded);
}

#[test]
fn append_computes_and_counts() {
    let out = run(APPEND, "append([1,2,3], [4,5], X)");
    assert!(out.succeeded);
    assert_eq!(out.binding("X").unwrap().to_string(), "[1,2,3,4,5]");
    // Cost_append(n) = n + 1 resolutions (the Appendix).
    assert_eq!(out.counters.resolutions, 4);
    assert_eq!(out.counters.work(), 4.0);
}

#[test]
fn nrev_resolution_count_matches_closed_form() {
    let src = r#"
        nrev([], []).
        nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
        append([], L, L).
        append([H|T], L, [H|R]) :- append(T, L, R).
    "#;
    let program = parse_program(src).unwrap();
    let mut machine = Machine::new(&program);
    for n in [0usize, 1, 5, 10, 20] {
        let list: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        let query = format!("nrev([{}], X)", list.join(","));
        let out = machine.run_query(&query).unwrap();
        assert!(out.succeeded);
        // The paper's closed form: 0.5 n^2 + 1.5 n + 1 resolutions.
        let expected = (n * n) as f64 * 0.5 + 1.5 * n as f64 + 1.0;
        assert_eq!(out.counters.resolutions as f64, expected, "n = {n}");
        // And the output is the reversed list.
        if n > 0 {
            let reversed = out.binding("X").unwrap().as_list().unwrap();
            assert_eq!(reversed.len(), n);
            assert_eq!(reversed[0].to_string(), (n - 1).to_string());
        }
    }
}

#[test]
fn arithmetic_and_comparison() {
    let src = r#"
        fib(0, 0).
        fib(1, 1).
        fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                     fib(M1, N1), fib(M2, N2), N is N1 + N2.
    "#;
    let out = run(src, "fib(11, X)");
    assert!(out.succeeded);
    assert_eq!(out.binding("X").unwrap(), &Term::int(89));
    assert!(out.counters.resolutions > 200);
}

#[test]
fn deep_deterministic_recursion_runs_iteratively() {
    // The goal stack replaces solver recursion: 50k deterministic
    // resolutions execute on a test thread's default stack.
    let src = "count(0). count(N) :- N > 0, N1 is N - 1, count(N1).";
    let out = run(src, "count(50000)");
    assert!(out.succeeded);
    assert_eq!(out.counters.resolutions, 50_001);
}

#[test]
fn backtracking_finds_later_clauses() {
    let src = r#"
        color(red). color(green). color(blue).
        nice(green).
        pick(C) :- color(C), nice(C).
    "#;
    let out = run(src, "pick(X)");
    assert!(out.succeeded);
    assert_eq!(out.binding("X").unwrap(), &Term::atom("green"));
}

#[test]
fn backtracking_undoes_bindings() {
    let src = r#"
        p(1, a). p(2, b).
        q(2).
        r(X, Y) :- p(X, Y), q(X).
    "#;
    let out = run(src, "r(X, Y)");
    assert!(out.succeeded);
    assert_eq!(out.binding("X").unwrap(), &Term::int(2));
    assert_eq!(out.binding("Y").unwrap(), &Term::atom("b"));
}

#[test]
fn backtracking_restores_shared_continuations() {
    // The continuation after the disjunction is consumed by the first
    // arm's attempt and must be re-exposed (via the goal trail) for the
    // second arm: r(X) runs twice, once per arm.
    let src = r#"
        r(1) :- fail.
        r(2).
        s(X) :- ( X = 1 ; X = 2 ), r(X).
    "#;
    let out = run(src, "s(X)");
    assert!(out.succeeded);
    assert_eq!(out.binding("X").unwrap(), &Term::int(2));
}

#[test]
fn if_then_else() {
    let src = r#"
        classify(X, small) :- ( X < 10 -> true ; fail ).
        classify(X, big) :- ( X < 10 -> fail ; true ).
    "#;
    let out = run(src, "classify(3, C)");
    assert_eq!(out.binding("C").unwrap(), &Term::atom("small"));
    let out = run(src, "classify(30, C)");
    assert_eq!(out.binding("C").unwrap(), &Term::atom("big"));
}

#[test]
fn negation_as_failure() {
    let src = "p(1). q(X) :- \\+ p(X).";
    assert!(!run(src, "q(1)").succeeded);
    assert!(run(src, "q(2)").succeeded);
}

#[test]
fn cut_commits_to_first_solution() {
    // Real cut: after memb/2 finds its first solution, `!` prunes both
    // the recursive alternatives and the clause choice point, so X = b
    // is never reached.
    let src = r#"
        memb(X, [X|_]) :- !.
        memb(X, [_|T]) :- memb(X, T).
        s(X) :- memb(X, [a, b]), X = b.
    "#;
    assert!(!run(src, "s(X)").succeeded);
    // Without the guard the first (committed) solution is returned.
    let out = run(src, "memb(X, [a, b])");
    assert_eq!(out.binding("X").unwrap(), &Term::atom("a"));
}

#[test]
fn cut_prunes_clause_alternatives() {
    // `max/3` in the classic cut style: once the first clause's guard
    // succeeds, the second clause must not be retried on backtracking.
    let src = r#"
        max(X, Y, X) :- X >= Y, !.
        max(_, Y, Y).
    "#;
    let out = run(src, "max(5, 3, M)");
    assert_eq!(out.binding("M").unwrap(), &Term::int(5));
    // With cut approximated as true this would succeed via clause 2.
    assert!(!run(src, "max(5, 3, M), M = 3").succeeded);
    assert!(run(src, "max(2, 3, M), M = 3").succeeded);
}

#[test]
fn cut_prunes_choice_points_not_just_semantics() {
    // head_attempts pins the pruning: `first(X), fail` must not retry
    // c(2) and c(3) after the cut discarded c/1's choice point.
    let src = "c(1). c(2). c(3). first(X) :- c(X), !.";
    let out = run(src, "first(X), fail");
    assert!(!out.succeeded);
    // One attempt for first/1, one for c/1 — and none for the retries.
    assert_eq!(out.counters.head_attempts, 2);
    let out = run(src, "c(X), fail");
    assert_eq!(out.counters.head_attempts, 3, "without cut all retried");
}

#[test]
fn cut_is_transparent_to_disjunction() {
    // A cut inside a disjunction arm prunes the disjunction's choice
    // point and the clause alternatives (ISO transparency).
    let src = "t(X) :- ( X = 1, ! ; X = 2 ).";
    assert!(run(src, "t(2)").succeeded, "cut not reached in left arm");
    assert!(
        !run(src, "t(X), X = 2").succeeded,
        "cut commits the left arm's binding"
    );
}

#[test]
fn cut_is_local_to_negation() {
    // A cut inside `\+` prunes only choice points created inside the
    // negation (here: c/1's alternatives), never the enclosing ones.
    // (Double parentheses: `\+ (a, b)` would parse as `\+/2`.)
    let src = r#"
        c(1). c(2).
        d :- \+ ((c(X), !, X > 1)).
        g(1). g(2).
        h(Y) :- g(Y), \+ ((!, fail)), Y > 1.
    "#;
    // The cut commits `\+` to X = 1, whose guard fails: `\+` succeeds.
    assert!(run(src, "d").succeeded);
    // g/1's choice point survives the cut inside the negation: Y
    // advances to 2 on backtracking.
    assert!(run(src, "h(Y)").succeeded);
}

#[test]
fn cut_is_local_to_if_then_else_conditions() {
    // ISO: a cut in the condition of if-then-else is local to the
    // condition. g/1's choice point must survive it.
    let src = r#"
        g(1). g(2).
        h(Y) :- g(Y), ( ! -> true ; true ), Y > 1.
    "#;
    let out = run(src, "h(Y)");
    assert!(out.succeeded);
    assert_eq!(out.binding("Y").unwrap(), &Term::int(2));
}

#[test]
fn cut_in_then_branch_is_transparent() {
    // A cut in the *then* branch runs after the condition's barrier is
    // gone, so it prunes back to the clause activation.
    let src = r#"
        g(1). g(2).
        h(Y) :- g(Y), ( true -> ! ; true ), Y > 1.
    "#;
    assert!(!run(src, "h(Y)").succeeded);
}

#[test]
fn metacalled_cut_prunes_to_the_enclosing_barrier() {
    // A cut reaching the machine as a bound variable goal (there is no
    // call/1 wrapper in this engine) prunes to the innermost barrier —
    // at the query level, the whole query.
    let src = "c(1). c(2). meta(G) :- c(X), G, X > 1.";
    assert!(!run(src, "meta(!)").succeeded);
    assert!(run(src, "meta(true)").succeeded);
}

#[test]
fn deep_barrier_nesting_runs_iteratively() {
    // 10,000 recursion levels each opening negation, condition and
    // parallel-arm barriers: the explicit barrier stack executes them
    // without native recursion, so this runs on the default test-thread
    // stack.
    let src = r#"
        nn(0).
        nn(N) :- N > 0, N1 is N - 1, \+ \+ nn(N1).
        cc(0).
        cc(N) :- N > 0, N1 is N - 1, ( cc(N1) -> true ; fail ).
        pp(0).
        pp(N) :- N > 0, N1 is N - 1, pp(N1) & true.
    "#;
    let program = parse_program(src).unwrap();
    let mut machine = Machine::new(&program);
    let out = machine.run_query("nn(10000)").unwrap();
    assert!(out.succeeded);
    assert!(machine.stats().max_barrier_depth >= 10_000);
    let out = machine.run_query("cc(10000)").unwrap();
    assert!(out.succeeded);
    assert!(machine.stats().max_barrier_depth >= 10_000);
    let run = machine.run_query_recorded("pp(10000)").unwrap();
    assert!(run.outcome.succeeded);
    assert_eq!(run.task_tree.spawned_tasks(), 20_000);
    assert!(machine.stats().max_barrier_depth >= 10_000);
}

#[test]
fn mixed_barrier_nesting_runs_iteratively() {
    // All three barrier kinds interleaved per level, 3,000 levels deep.
    let src = r#"
        mx(0).
        mx(N) :- N > 0, N1 is N - 1,
                 ( \+ \+ (mx(N1) & true) -> true ; fail ).
    "#;
    let out = run(src, "mx(3000)");
    assert!(out.succeeded);
}

#[test]
fn disjunction() {
    let src = "p(X) :- ( X = a ; X = b ).";
    assert!(run(src, "p(a)").succeeded);
    assert!(run(src, "p(b)").succeeded);
    assert!(!run(src, "p(c)").succeeded);
}

#[test]
fn parallel_conjunction_records_fork() {
    let src = r#"
        work(0).
        work(N) :- N > 0, N1 is N - 1, work(N1).
        both(N) :- work(N) & work(N).
    "#;
    let program = parse_program(src).unwrap();
    let run = Machine::new(&program)
        .run_query_recorded("both(10)")
        .unwrap();
    assert!(run.outcome.succeeded);
    let tree = &run.task_tree;
    assert_eq!(tree.spawned_tasks(), 2);
    assert_eq!(tree.fork_count(), 1);
    // Each arm does 11 resolutions of work/1.
    assert_eq!(
        tree.task(tree.root()),
        &[
            Segment::Work(1.0),
            Segment::Fork(ForkSpan { first: 1, count: 2 })
        ]
    );
    assert_eq!(tree.task(1), &[Segment::Work(11.0)]);
    assert_eq!(tree.task(2), &[Segment::Work(11.0)]);
    // Total = 1 (both/1) + 2×11.
    assert_eq!(tree.total_work(), 23.0);
    // Critical path = 1 + max(11, 11).
    assert_eq!(tree.critical_path(), 12.0);
}

#[test]
fn packets_number_variables_per_conjunction_and_relocate() {
    let program = parse_program("").unwrap();
    let mut m = Machine::new(&program);
    // The chain Z -> Y and the bound W make the packer dereference on
    // its way; variables sit at the bottom of the fresh arena.
    let (term, _) = parser::parse_term("t(f(X, g(Y, Z, 1.5)), h(W, V), k(X))").unwrap();
    let at = write_term(&mut m, &term);
    let HCell::Struct(_, 3, arms) = m.heap[at] else {
        panic!("t/3")
    };
    let arm = |m: &Machine, k: usize| m.heap[arms as usize + k];
    // X, Y, Z, W, V are cells 0..5.
    assert_eq!(m.unify(2, 1, Charge::Counted), Ok(true));
    assert_eq!(m.unify_cell(3, HCell::Int(7)), Ok(true));

    let first = m.pack([arm(&m, 0)]).expect("independent");
    assert_eq!((first.nvars, first.cells()), (2, 2 + 1 + 2 + 3));
    // The second arm's variable is numbered from 0 again, and follows
    // the first arm's in the shared parents table.
    let second = m.pack([arm(&m, 1)]).expect("independent");
    assert_eq!(
        second.cells,
        [
            HCell::Struct(Symbol::intern("h"), 2, 1),
            HCell::Int(7),
            HCell::Ref(0)
        ]
    );
    assert_eq!(m.numbered(), [0, 1, 4]);
    assert!(
        matches!(m.pack([arm(&m, 2)]), Err(PackStop::Shared)),
        "X is arm 0's"
    );
    // Arm 0 walked instead of packed is numbered the same way.
    m.new_numbering();
    assert!(m.number_unbound(arm(&m, 0)).is_ok());
    assert_eq!(m.numbered(), [0, 1]);
    assert!(matches!(m.pack([arm(&m, 2)]), Err(PackStop::Shared)));

    // Arm 0 unpacked above everything else reads back as a variant.
    let root = m.unpack(&first);
    assert_eq!(
        m.extract_cell(HCell::unbound(root)).unwrap().to_string(),
        format!("f(_{0},g(_{1},_{1},1.5))", root - 2, root - 1)
    );

    // A cyclic term stops the walk as it stops the copy: V = f(V).
    let block = m.heap.len();
    m.heap.push(HCell::Ref(4));
    m.bind_cell(4, HCell::Struct(Symbol::intern("f"), 1, block as u32));
    assert!(matches!(
        m.number_unbound(HCell::Ref(4)),
        Err(PackStop::Limit)
    ));
    assert!(matches!(m.pack([HCell::Ref(4)]), Err(PackStop::Limit)));
}

#[test]
fn parallel_conjunction_fails_if_any_arm_fails() {
    let src = r#"
        ok.
        both :- ok & fail.
    "#;
    assert!(!run(src, "both").succeeded);
}

#[test]
fn unknown_predicate_is_an_error() {
    let program = parse_program("p(1).").unwrap();
    let mut machine = Machine::new(&program);
    let err = machine.run_query("q(1)").unwrap_err();
    assert!(matches!(err, EngineError::UnknownPredicate(_)));
}

#[test]
fn step_limit_is_enforced() {
    let program = parse_program("loop :- loop. p(1).").unwrap();
    let mut machine = Machine::new(&program);
    let (goal, vars) = granlog_ir::parser::parse_term("loop").unwrap();
    let budget = Budget {
        steps: Some(1000),
        ..Budget::default()
    };
    let err = machine.solve_goal(&goal, &vars, None, &budget).unwrap_err();
    assert_eq!(
        err,
        EngineError::BudgetExceeded {
            resource: BudgetKind::Steps,
            limit: 1000
        }
    );
    // The head attempt past the budget is the one that raised.
    assert_eq!(machine.counters().head_attempts, 1001);
    // A query that sets no step budget runs under the default one.
    assert!(machine.run_query("p(X)").unwrap().succeeded);
    assert_eq!(machine.step_limit, DEFAULT_STEPS);
}

#[test]
fn depth_limit_bounds_the_goal_stack() {
    // A program that grows the pending-goal stack without bound (each
    // resolution pushes two goals and consumes one) must hit the depth
    // limit rather than exhaust memory.
    let program = parse_program("grow :- grow, grow.").unwrap();
    let mut machine = Machine::with_config(
        &program,
        MachineConfig {
            max_depth: 500,
            ..MachineConfig::default()
        },
    );
    let err = machine.run_query("grow").unwrap_err();
    assert!(matches!(err, EngineError::DepthLimit(_)));
}

#[test]
fn grain_test_builtin_guides_execution() {
    let src = r#"
        qs([], []).
        qs([P|Xs], S) :-
            part(Xs, P, Sm, Bg),
            ( '$grain_ge'(Sm, length, 3), '$grain_ge'(Bg, length, 3) ->
                qs(Sm, S1) & qs(Bg, S2)
            ;   qs(Sm, S1), qs(Bg, S2) ),
            app(S1, [P|S2], S).
        part([], _, [], []).
        part([X|Xs], P, [X|S], B) :- X =< P, part(Xs, P, S, B).
        part([X|Xs], P, S, [X|B]) :- X > P, part(Xs, P, S, B).
        app([], L, L).
        app([H|T], L, [H|R]) :- app(T, L, R).
    "#;
    let program = parse_program(src).unwrap();
    let run = Machine::new(&program)
        .run_query_recorded("qs([5,3,8,1,9,2,7,4,6,0], S)")
        .unwrap();
    let out = &run.outcome;
    assert!(out.succeeded);
    let sorted = out.binding("S").unwrap();
    assert_eq!(sorted.to_string(), "[0,1,2,3,4,5,6,7,8,9]");
    assert!(out.counters.grain_tests > 0);
    // Some conjunctions ran in parallel (big sublists), some sequentially.
    assert!(run.task_tree.spawned_tasks() > 0);
}

#[test]
fn unmeasured_arguments_err_parallel_in_the_grain_test() {
    let holds = |measure: &str, k| {
        let out = run("d.", &format!("'$grain_ge'(a, {measure}, {k})"));
        assert_eq!(out.counters.grain_tests, 1, "{measure}");
        (out.succeeded, out.counters.grain_test_elements)
    };
    // An argument without size information passes, for free (the paper's
    // rule: unknown size errs parallel) ...
    for name in ["void", "ignore", "none", "'_'"] {
        assert_eq!(holds(name, 5), (true, 0), "{name}");
    }
    // ... and a measured one is measured.
    assert_eq!(holds("size", 5), (false, 1));
    assert_eq!(holds("size", 1), (true, 1));
}

#[test]
fn indexing_skips_mismatched_clauses() {
    let src = r#"
        kind(0, zero).
        kind(1, one).
        kind(2, two).
    "#;
    let out = run(src, "kind(2, K)");
    assert!(out.succeeded);
    assert_eq!(out.binding("K").unwrap(), &Term::atom("two"));
    // With first-argument indexing only one head attempt is needed.
    assert_eq!(out.counters.head_attempts, 1);
}

#[test]
fn machine_is_reusable_across_queries() {
    let program = parse_program(APPEND).unwrap();
    let mut machine = Machine::new(&program);
    let a = machine.run_query("append([1], [2], X)").unwrap();
    let b = machine.run_query("append([], [], X)").unwrap();
    assert!(a.succeeded && b.succeeded);
    // Counters are reset between queries.
    assert_eq!(b.counters.resolutions, 1);
}

#[test]
fn stats_track_arena_and_choice_points() {
    let src = r#"
        color(red). color(green). color(blue).
        nice(blue).
        pick(C) :- color(C), nice(C).
    "#;
    let program = parse_program(src).unwrap();
    let mut machine = Machine::new(&program);
    let out = machine.run_query("pick(X)").unwrap();
    assert!(out.succeeded);
    let stats = machine.stats();
    assert!(stats.heap_high_water > 0);
}

#[test]
fn finishing_on_the_budget_boundary_completes() {
    let program = parse_program("p(1).").unwrap();
    let mut machine = Machine::new(&program);
    let (goal, vars) = granlog_ir::parser::parse_term("p(X)").unwrap();
    // One head attempt finishes the query exactly as the budget ends.
    let steps = |n| Budget {
        steps: Some(n),
        ..Budget::default()
    };
    let out = machine.solve_goal(&goal, &vars, None, &steps(1)).unwrap();
    assert!(out.succeeded);
    let err = machine
        .solve_goal(&goal, &vars, None, &steps(0))
        .unwrap_err();
    assert!(matches!(err, EngineError::BudgetExceeded { limit: 0, .. }));
}

#[test]
fn hard_step_budget_errors_and_unwinds() {
    let program = parse_program("loop :- loop.").unwrap();
    let mut machine = Machine::new(&program);
    let (goal, vars) = granlog_ir::parser::parse_term("loop").unwrap();
    let budget = Budget {
        steps: Some(100),
        ..Budget::default()
    };
    let err = machine.solve_goal(&goal, &vars, None, &budget).unwrap_err();
    assert_eq!(
        err,
        EngineError::BudgetExceeded {
            resource: BudgetKind::Steps,
            limit: 100
        }
    );
    // The unwind truncated the arena and emptied the trail, and the
    // machine answers the next query normally.
    assert_eq!(machine.heap_len(), 0);
    assert_eq!(machine.trail_len(), 0);
}

#[test]
fn heap_budget_is_always_a_hard_error() {
    let src = r#"
        build(0, []).
        build(N, [N|T]) :- N > 0, N1 is N - 1, build(N1, T).
    "#;
    let program = parse_program(src).unwrap();
    let mut machine = Machine::new(&program);
    let (goal, vars) = granlog_ir::parser::parse_term("build(10000, L)").unwrap();
    let budget = Budget {
        heap_cells: Some(512),
        ..Budget::default()
    };
    let err = machine.solve_goal(&goal, &vars, None, &budget).unwrap_err();
    assert!(matches!(
        err,
        EngineError::BudgetExceeded {
            resource: BudgetKind::HeapCells,
            ..
        }
    ));
    assert_eq!(machine.heap_len(), 0);
    assert_eq!(machine.trail_len(), 0);
    let out = machine.run_query("build(3, L)").unwrap();
    assert!(out.succeeded);
}

#[test]
fn wall_budget_preempts_long_runs() {
    let program = parse_program("loop :- loop. p(1).").unwrap();
    let mut machine = Machine::new(&program);
    let (goal, vars) = granlog_ir::parser::parse_term("loop").unwrap();
    let budget = Budget {
        wall: Some(Duration::from_millis(5)),
        ..Budget::default()
    };
    let err = machine.solve_goal(&goal, &vars, None, &budget).unwrap_err();
    assert_eq!(
        err,
        EngineError::BudgetExceeded {
            resource: BudgetKind::Wall,
            limit: 5
        }
    );
    assert_eq!(machine.heap_len(), 0);
    assert_eq!(machine.trail_len(), 0);
    assert!(machine.run_query("p(X)").unwrap().succeeded);
}

#[test]
fn wall_poll_mask_halves_past_the_budget_midpoint() {
    let ms = Duration::from_millis;
    let allowance = ms(100);
    // More than half the allowance left: the stride stays coarse.
    assert_eq!(
        next_wall_poll_mask(INITIAL_WALL_POLL_MASK, ms(80), allowance),
        INITIAL_WALL_POLL_MASK
    );
    assert_eq!(
        next_wall_poll_mask(INITIAL_WALL_POLL_MASK, ms(50), allowance),
        INITIAL_WALL_POLL_MASK
    );
    // Under half left: each poll halves the stride...
    assert_eq!(
        next_wall_poll_mask(INITIAL_WALL_POLL_MASK, ms(49), allowance),
        INITIAL_WALL_POLL_MASK >> 1
    );
    // ...down to the floor, never below.
    let mut mask = INITIAL_WALL_POLL_MASK;
    for _ in 0..32 {
        mask = next_wall_poll_mask(mask, ms(1), allowance);
    }
    assert_eq!(mask, MIN_WALL_POLL_MASK);
    // Masks must stay of the form 2^k - 1 for `iter & mask` striding.
    let mut mask = INITIAL_WALL_POLL_MASK;
    while mask > MIN_WALL_POLL_MASK {
        assert_eq!(mask & (mask + 1), 0, "{mask:#x} is not 2^k - 1");
        mask = next_wall_poll_mask(mask, ms(0), allowance);
    }
}

#[test]
fn wall_budget_overshoot_is_bounded() {
    let program = parse_program("loop :- loop.").unwrap();
    let mut machine = Machine::new(&program);
    let (goal, vars) = granlog_ir::parser::parse_term("loop").unwrap();
    let allowance = Duration::from_millis(25);
    let budget = Budget {
        wall: Some(allowance),
        ..Budget::default()
    };
    let start = Instant::now();
    let err = machine.solve_goal(&goal, &vars, None, &budget).unwrap_err();
    let elapsed = start.elapsed();
    assert!(matches!(
        err,
        EngineError::BudgetExceeded {
            resource: BudgetKind::Wall,
            ..
        }
    ));
    // The adaptive stride keeps the overshoot to a handful of fine-grained
    // polls. The bound is generous (4x the allowance) because CI machines
    // stall unpredictably, but it still pins the regression where a coarse
    // fixed stride lets a slow iteration overshoot unboundedly.
    assert!(
        elapsed < allowance * 4,
        "wall budget of {allowance:?} overshot to {elapsed:?}"
    );
}

#[test]
fn work_respects_cost_model() {
    // The paper's resolutions model: a unit per resolution, and per
    // grain test one unit plus one per element it traversed. The task
    // tree, charged operation by operation, totals the same.
    let program = parse_program(APPEND).unwrap();
    let mut machine = Machine::new(&program);
    let query = "'$grain_ge'([a,b,c], length, 2), append([1,2], [3], X)";
    let run = machine.run_query_recorded(query).unwrap();
    let out = &run.outcome;
    assert!(out.succeeded);
    assert_eq!(out.counters.resolutions, 3);
    assert_eq!(out.counters.grain_test_elements, 2);
    assert_eq!(out.counters.work(), 3.0 + 1.0 + 2.0);
    assert_eq!(run.task_tree.total_work(), out.counters.work());
}

#[test]
fn profiler_ports_on_deterministic_query() {
    let program = parse_program(APPEND).unwrap();
    let mut machine = Machine::with_config(
        &program,
        MachineConfig {
            profile: true,
            ..MachineConfig::default()
        },
    );
    let out = machine.run_query("append([1,2,3], [4], X)").unwrap();
    assert!(out.succeeded);
    let rows = machine.profile().expect("profiling enabled");
    let (pred, p) = rows
        .iter()
        .find(|(pred, _)| pred.to_string() == "append/3")
        .expect("append profiled");
    assert_eq!(pred.arity, 3);
    // n + 1 calls, all deterministic: every entry exits, none backtrack.
    assert_eq!(p.calls, 4);
    assert_eq!(p.exits, 4);
    assert_eq!(p.fails, 0);
    assert_eq!(p.redos, 0);
    assert_eq!(p.calls + p.redos, p.exits + p.fails);
    // Head-attempt work attributed to append equals the machine total
    // (the query runs nothing else).
    assert_eq!(p.head_attempts, out.counters.head_attempts);
    assert!(p.heap_cells > 0);
}

#[test]
fn profiler_counts_redos_and_fails() {
    let program = parse_program(
        r#"
        choice(1).
        choice(2).
        choice(3).
        pick(X) :- choice(X), X > 2.
    "#,
    )
    .unwrap();
    let mut machine = Machine::with_config(
        &program,
        MachineConfig {
            profile: true,
            ..MachineConfig::default()
        },
    );
    let out = machine.run_query("pick(X)").unwrap();
    assert!(out.succeeded);
    let rows = machine.profile().expect("profiling enabled");
    let (_, choice) = rows
        .iter()
        .find(|(pred, _)| pred.to_string() == "choice/1")
        .expect("choice profiled");
    // One call, two redos (X=1 and X=2 rejected by the guard), each
    // entry exits with the next candidate.
    assert_eq!(choice.calls, 1);
    assert_eq!(choice.redos, 2);
    assert_eq!(choice.exits, 3);
    assert_eq!(choice.fails, 0);
    assert_eq!(choice.calls + choice.redos, choice.exits + choice.fails);
}

#[test]
fn profiler_off_by_default_and_counters_identical() {
    let program = parse_program(APPEND).unwrap();
    let mut plain = Machine::new(&program);
    let out_plain = plain.run_query("append([1,2,3], [4], X)").unwrap();
    assert!(plain.profile().is_none());

    let mut profiled = Machine::with_config(
        &program,
        MachineConfig {
            profile: true,
            ..MachineConfig::default()
        },
    );
    let out_profiled = profiled.run_query("append([1,2,3], [4], X)").unwrap();
    assert_eq!(out_plain.counters, out_profiled.counters);
    assert_eq!(
        out_plain.binding("X").unwrap().to_string(),
        out_profiled.binding("X").unwrap().to_string()
    );
}

#[test]
fn profiler_resets_between_queries() {
    let program = parse_program(APPEND).unwrap();
    let mut machine = Machine::with_config(
        &program,
        MachineConfig {
            profile: true,
            ..MachineConfig::default()
        },
    );
    machine.run_query("append([1,2,3], [4], X)").unwrap();
    machine.run_query("append([1], [2], X)").unwrap();
    let rows = machine.profile().expect("profiling enabled");
    let (_, p) = rows
        .iter()
        .find(|(pred, _)| pred.to_string() == "append/3")
        .expect("append profiled");
    // Counts reflect only the second (n = 1) query.
    assert_eq!(p.calls, 2);
}
