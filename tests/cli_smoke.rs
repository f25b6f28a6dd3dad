//! End-to-end smoke test for the `granlog` command-line tool.
//!
//! Drives the *actual binary* (not just the library entry point) on the
//! paper's Appendix-A `nrev` example and checks the full pipeline: analysis
//! prints the closed-form cost, annotation emits the `'$grain_ge'` threshold
//! test, and `run` executes an annotated query on the simulated machine.

use std::path::PathBuf;
use std::process::Command;

/// The Appendix-A program: naive reverse with its append helper.
const NREV: &str = r#"
    :- mode nrev(+, -).
    :- mode append(+, +, -).
    nrev([], []).
    nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
    append([], L, L).
    append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
"#;

/// A parallel quicksort, whose `&` conjunction is what annotation guards.
const QSORT: &str = r#"
    :- mode qsort(+, -).
    :- mode partition(+, +, -, -).
    :- mode app(+, +, -).
    qsort([], []).
    qsort([P|Xs], S) :- partition(Xs, P, Sm, Bg), qsort(Sm, S1) & qsort(Bg, S2), app(S1, [P|S2], S).
    partition([], _, [], []).
    partition([X|Xs], P, [X|S], B) :- X =< P, partition(Xs, P, S, B).
    partition([X|Xs], P, S, [X|B]) :- X > P, partition(Xs, P, S, B).
    app([], L, L).
    app([H|T], L, [H|R]) :- app(T, L, R).
"#;

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("granlog-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn granlog(args: &[&str]) -> (String, String, bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_granlog"))
        .args(args)
        .output()
        .expect("granlog binary runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn analyze_reports_appendix_closed_form() {
    let path = write_temp("nrev.pl", NREV);
    let (stdout, stderr, ok) = granlog(&["analyze", path.to_str().unwrap(), "--overhead", "48"]);
    assert!(ok, "analyze failed: {stderr}");
    // Appendix A: Cost_nrev(n) = 0.5 n^2 + 1.5 n + 1.
    assert!(
        stdout.contains("0.5*n^2 + 1.5*n + 1"),
        "missing nrev closed form:\n{stdout}"
    );
    assert!(
        stdout.contains("nrev/2"),
        "missing predicate entry:\n{stdout}"
    );
}

#[test]
fn annotate_emits_grain_size_threshold_test() {
    let path = write_temp("qsort.pl", QSORT);
    let (stdout, stderr, ok) = granlog(&["annotate", path.to_str().unwrap(), "--overhead", "40"]);
    assert!(ok, "annotate failed: {stderr}");
    assert!(
        stdout.contains("$grain_ge"),
        "annotation did not emit a grain-size threshold test:\n{stdout}"
    );
    assert!(
        stdout.contains('&'),
        "annotated program lost its parallel conjunction:\n{stdout}"
    );
}

#[test]
fn run_executes_annotated_program_on_simulated_machine() {
    let path = write_temp("qsort_run.pl", QSORT);
    let (stdout, stderr, ok) = granlog(&[
        "run",
        path.to_str().unwrap(),
        "qsort([3,1,4,1,5,9,2,6], S)",
        "--granularity",
        "on",
        "--processors",
        "4",
    ]);
    assert!(ok, "run failed: {stderr}");
    assert!(stdout.contains("yes"), "query did not succeed:\n{stdout}");
    assert!(
        stdout.contains("S = [1,1,2,3,4,5,6,9]"),
        "wrong answer:\n{stdout}"
    );
    assert!(
        stdout.contains("simulated time"),
        "missing simulator summary:\n{stdout}"
    );
}

/// `granlog run --granularity on|always-spawn|off` is the paper harness'
/// T1, T0 and sequential run: at the default overhead and processor count
/// it prints the work, grain tests, tasks and simulated time that
/// `harness::run_benchmark` computes on the 4-processor ROLOG-like machine.
#[test]
fn simulated_run_agrees_with_the_paper_harness() {
    use granlog_benchmarks::harness::{run_benchmark, ControlMode};
    use granlog_benchmarks::suite::benchmark;
    use granlog_sim::SimConfig;
    // At their test sizes: fib(10) and a 20-element quicksort.
    for name in ["fib", "quick_sort"] {
        let bench = benchmark(name).unwrap();
        let size = bench.test_size;
        let path = write_temp(&format!("harness_{name}.pl"), bench.source);
        for (policy, mode) in [
            ("on", ControlMode::WithControl),
            ("always-spawn", ControlMode::NoControl),
            ("off", ControlMode::Sequential),
        ] {
            let (stdout, stderr, ok) = granlog(&[
                "run",
                path.to_str().unwrap(),
                &bench.query(size),
                "--granularity",
                policy,
            ]);
            assert!(ok, "{name} {policy}: {stderr}");
            let run = run_benchmark(&bench, size, &SimConfig::rolog4(), mode);
            for expected in [
                format!("work: {:.0} units (", run.total_work),
                format!(
                    " {} grain tests); tasks spawned: {}\n",
                    run.grain_tests, run.spawned_tasks
                ),
                format!(
                    "simulated time on 4 processors: {:.0} units (speedup {:.2}x",
                    run.sim.makespan, run.sim.speedup_vs_sequential
                ),
            ] {
                assert!(
                    stdout.contains(&expected),
                    "{name} {policy}: missing {expected:?} in\n{stdout}"
                );
            }
        }
    }
}

#[test]
fn usage_errors_exit_nonzero() {
    let (_, stderr, ok) = granlog(&["frobnicate"]);
    assert!(!ok, "unknown subcommand should fail");
    assert!(
        !stderr.is_empty(),
        "error output should explain the failure"
    );
}

/// ROADMAP item 1, the reader: a 200 000-deep term used to overflow the
/// stack (`exit 134`). It is a parse error with a position now.
#[test]
fn a_term_nested_past_the_limit_is_a_parse_error_not_an_abort() {
    let deep = format!("p({}a{}).", "f(".repeat(200_000), ")".repeat(200_000));
    let path = write_temp("deep.pl", &deep);
    let output = Command::new(env!("CARGO_BIN_EXE_granlog"))
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .expect("granlog binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    // `p(f(` ... is 512 deep at its 511th `f`; the reader stops at the 513th,
    // in column 3 + 2 * 512.
    assert!(
        stderr.contains("parse error at 1:1027: term nested deeper than 512"),
        "{stderr}"
    );
}

/// ROADMAP item 1, the answer boundary: a 300 000-element list built at run
/// time by a two-clause program used to overflow the stack while it was
/// copied out of the arena (`exit 134`). It is printed now, and a cyclic
/// answer (there is no occurs check) is a typed error, not a hang.
#[test]
fn run_prints_a_300_000_element_answer_and_refuses_a_cyclic_one() {
    let path = write_temp(
        "mk.pl",
        "mk(0, []).\nmk(N, [a|T]) :- N > 0, N1 is N - 1, mk(N1, T).\n",
    );
    let path = path.to_str().unwrap();
    let (stdout, stderr, ok) = granlog(&["run", path, "mk(300000, L)"]);
    assert!(ok, "{stderr}");
    let list = stdout
        .lines()
        .find_map(|line| line.trim().strip_prefix("L = "))
        .unwrap_or_else(|| panic!("no binding in {stdout}"));
    assert_eq!(list.len(), 2 * 300_000 + 1, "[a,a,...,a]");
    assert_eq!(list.matches('a').count(), 300_000);

    let output = Command::new(env!("CARGO_BIN_EXE_granlog"))
        .args(["run", path, "X = f(X)"])
        .output()
        .expect("granlog binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cyclic term"), "{stderr}");
}

/// ROADMAP item 1, the front door: a fact holding a 200 000-element list
/// literal used to abort `granlog run` without granularity control
/// (`exit 134`) in the recursive template writer and head matcher, and
/// every command that reads it through the analysis, the annotator or the
/// Datalog lowering in their recursive term walks. Every command reads it
/// now; the list is written into a variable, matched against itself and
/// counted, on every engine and in every granularity mode.
#[test]
fn run_without_control_reads_a_200_000_element_list_literal() {
    let items: Vec<String> = (0..200_000).map(|i| i.to_string()).collect();
    let path = write_temp("big.pl", &format!("big([{}]).\n", items.join(",")));
    let path = path.to_str().unwrap();
    let tail = |stdout: &str| stdout[stdout.len().saturating_sub(300)..].to_owned();

    let (stdout, stderr, ok) = granlog(&["analyze", path]);
    assert!(ok && stdout.contains("predicate big/1"), "{stderr}");
    let (stdout, stderr, ok) = granlog(&["annotate", path]);
    assert!(ok && stdout.contains("big([0,1,2,"), "{stderr}");
    assert!(stdout.contains(",199999])."), "{}", tail(&stdout));

    let goal = "big(L), big(L), big([0|T]), length(T, N)";
    for mode in [
        &["--threads", "1", "--granularity", "off"][..],
        &[],
        &["--threads", "2", "--granularity", "on"],
        &["--threads", "2", "--granularity", "off"],
        &["--threads", "2", "--granularity", "always-spawn"],
    ] {
        let (stdout, stderr, ok) = granlog(&[&["run"], mode, &[path, goal]].concat());
        assert!(ok, "{mode:?}: {stderr}");
        assert!(
            stdout.lines().any(|line| line.trim() == "N = 199999"),
            "{mode:?}: no count in {}",
            tail(&stdout)
        );
    }
    let (stdout, stderr, ok) = granlog(&["run", "--engine", "bottom-up", path, "big(L)"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("L = [0,1,2,"), "{stderr}");
    assert!(stdout.contains(",199999]"), "{}", tail(&stdout));
}

/// ROADMAP item 1, printing and the last unbounded loops: `mk(300000, E)`
/// over `mk(N, X + 1)` builds a `+` chain 300 000 deep, which used to be
/// extracted and then overflow the stack in `Display` (`exit 134`); the
/// cyclic goals below used to loop forever or abort on a 2 GiB allocation.
/// The chain prints, and each cyclic goal is a typed error in seconds.
#[test]
fn run_prints_a_300_000_deep_answer_and_stops_cyclic_loops() {
    let path = write_temp(
        "mk_deep.pl",
        "mk(0, 0).\nmk(N, X + 1) :- N > 0, N1 is N - 1, mk(N1, X).\n",
    );
    let path = path.to_str().unwrap();
    let (stdout, stderr, ok) = granlog(&["run", path, "mk(300000, E)"]);
    assert!(ok, "{stderr}");
    let chain = stdout
        .lines()
        .find_map(|line| line.trim().strip_prefix("E = "))
        .unwrap_or_else(|| panic!("no binding in {}", &stdout[..200]));
    assert_eq!(chain.len(), 4 * 300_000 + 1, "((0+1)+1)...");

    for goal in [
        "X = [a|X], length(X, N)",
        "X = [a|X], T =.. X",
        "X = X + 1, Y is X",
    ] {
        let started = std::time::Instant::now();
        let output = Command::new(env!("CARGO_BIN_EXE_granlog"))
            .args(["run", path, goal])
            .output()
            .expect("granlog binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{goal}: {stderr}");
        assert!(
            stderr.contains("cyclic term: it has no finite copy"),
            "{goal}: {stderr}"
        );
        assert!(started.elapsed().as_secs() < 60, "{goal}");
    }
}

/// ROADMAP item 1: a query that fails has no answer to print, so one that
/// bound a variable to a cyclic term on the way (`is_list/1` fails on a
/// cyclic list) prints `no` and exits 0 — sequentially and on the thread
/// pool in every granularity mode. Copying the failed query's variables out
/// of the arena used to end it in the cyclic-term error.
#[test]
fn run_answers_no_to_a_failed_query_over_a_cyclic_term() {
    let path = write_temp("p.pl", "p(1).\n");
    let path = path.to_str().unwrap();
    for goal in ["X = f(X), fail", "X = [a|X], is_list(X)"] {
        for extra in [
            &[][..],
            &["--threads", "2", "--granularity", "on"],
            &["--threads", "2", "--granularity", "off"],
            &["--threads", "2", "--granularity", "always-spawn"],
        ] {
            let args: Vec<&str> = ["run", path, goal].iter().chain(extra).copied().collect();
            let (stdout, stderr, ok) = granlog(&args);
            assert!(ok, "{args:?}: {stderr}");
            assert_eq!(stdout.lines().next(), Some("no"), "{args:?}: {stdout}");
        }
    }
}

/// The annotator's output is a program: `granlog annotate` prints text the
/// reader reads back, and `granlog run` on it answers as on the source. A
/// negative number after `=` or `-`, a parenthesised operator atom and the
/// atoms the lexer reads as punctuation used to print as `(X=-1)`, `(X--2)`
/// and `f(,,|,.)`, which the reader refuses.
#[test]
fn annotated_output_reads_back_and_answers_as_the_source() {
    const SOURCE: &str = "p(X, Y) :- X = -1, Y is X - -2.\n\
        q(Z) :- Z = (+).\n\
        c(X) :- X = f(',', '|', '.').\n";
    let source = write_temp("readback.pl", SOURCE);
    let (annotated, stderr, ok) = granlog(&["annotate", source.to_str().unwrap()]);
    assert!(ok, "annotate failed: {stderr}");
    let annotated = write_temp("readback_annotated.pl", &annotated);
    // The answer lines of a run: everything before its cost summary.
    let answers = |path: &PathBuf, goal: &str| {
        let (stdout, stderr, ok) = granlog(&["run", path.to_str().unwrap(), goal]);
        assert!(ok, "run {goal} on {}: {stderr}", path.display());
        let lines = stdout.lines().take_while(|line| !line.starts_with("work:"));
        lines.collect::<Vec<_>>().join("\n")
    };
    for goal in ["p(X, Y)", "q(Z)", "c(X)"] {
        let want = answers(&source, goal);
        assert!(want.starts_with("yes"), "{goal}: {want}");
        assert_eq!(answers(&annotated, goal), want, "{goal}");
    }
}
