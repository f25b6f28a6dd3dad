//! The counter oracle: the operation counts of both engines on the fixed
//! corpus, compared bit for bit with `tests/golden/engine_counters.tsv`.
//!
//! Wall clock moves with the host; these counts move only when an engine's
//! observable semantics do. Three blocks of rows:
//!
//! * `raw` — the 15 programs exactly as written, at their `default_size`, on
//!   a plain sequential `Machine`;
//! * `control` — the same programs after
//!   `prepare_program(.., ControlMode::WithControl, 48.0)`, so the
//!   `'$grain_ge'` guards run and `grain_tests` / `grain_test_elements` /
//!   `spawned_tasks` are pinned too;
//! * `bottom-up` — the three attack-graph topologies through
//!   `CompiledDatalog::evaluate`.
//!
//! The SLD rows' last column, `choice_points`, counts the choice points
//! the machine pushed: one per call activated with candidates left, one
//! per disjunction entered.
//!
//! The SLD rows run through the recording entry point
//! (`Machine::run_query_recorded`), and each checks that its task tree's
//! work totals the counters' work.
//!
//! On a mismatch the failure names every program and counter that moved and
//! the whole table as this build computes it is left in
//! `$TMPDIR/granlog-engine-counters.actual`. If the move is intended, copy
//! that file over the golden one and say why in the PR.

use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_benchmarks::harness::{execute, prepare_program, ControlMode};
use granlog_benchmarks::{datalog_benchmarks, Benchmark};
use granlog_datalog::CompiledDatalog;
use granlog_engine::{Machine, RecordedOutcome};
use granlog_ir::{parser, Program};
use granlog_store::{FsyncPolicy, ProgramStore, StoreConfig};
use std::fmt::Write as _;

mod support;

#[global_allocator]
static ALLOCATOR: support::CountingAllocator = support::CountingAllocator;

/// The per-task overhead `W` the `control` rows are annotated for
/// (`AnnotateOptions::default`).
const OVERHEAD: f64 = 48.0;

const SLD_COLUMNS: &[&str] = &[
    "resolutions",
    "head_attempts",
    "unifications",
    "builtins",
    "grain_tests",
    "grain_test_elements",
    "work",
    "spawned_tasks",
    "choice_points",
];

const DATALOG_COLUMNS: &[&str] = &[
    "derived_facts",
    "rounds",
    "edb_facts",
    "join_batches",
    "tuples_tried",
];

struct Row {
    block: &'static str,
    program: String,
    columns: &'static [&'static str],
    values: Vec<String>,
}

fn sld_row(block: &'static str, bench: &Benchmark, program: Program) -> Row {
    let RecordedOutcome {
        outcome: out,
        task_tree,
    } = execute(program, bench.default_query());
    assert!(out.succeeded, "{} ({block}) did not succeed", bench.name);
    // The tree is charged boundary by boundary from the same counters, so
    // its tasks' work must add up to the query's.
    assert_eq!(
        task_tree.total_work(),
        out.counters.work(),
        "{} ({block}): the recorded tree disagrees with the counters",
        bench.name
    );
    let c = out.counters;
    Row {
        block,
        program: bench.label(),
        columns: SLD_COLUMNS,
        values: vec![
            c.resolutions.to_string(),
            c.head_attempts.to_string(),
            c.unifications.to_string(),
            c.builtins.to_string(),
            c.grain_tests.to_string(),
            c.grain_test_elements.to_string(),
            format!("{:.1}", out.counters.work()),
            task_tree.spawned_tasks().to_string(),
            c.choice_points.to_string(),
        ],
    }
}

fn measure() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut control = Vec::new();
    for bench in &support::fifteen_benchmarks() {
        let program = bench.program().expect("benchmark parses");
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let prepared = prepare_program(&program, &analysis, ControlMode::WithControl, OVERHEAD);
        control.push(sld_row("control", bench, prepared));
        rows.push(sld_row("raw", bench, program));
    }
    rows.append(&mut control);
    for bench in datalog_benchmarks() {
        let program = bench.program(bench.default_size).expect("topology parses");
        let compiled = CompiledDatalog::compile(&program).expect("the attack rules are Datalog");
        let db = compiled.evaluate().expect("fixpoint");
        let s = db.stats();
        rows.push(Row {
            block: "bottom-up",
            program: bench.label(),
            columns: DATALOG_COLUMNS,
            values: [
                s.derived_facts,
                s.rounds,
                s.edb_facts,
                s.join_batches,
                s.tuples_tried,
            ]
            .map(|n| n.to_string())
            .into(),
        });
    }
    rows
}

fn push_line<'a>(
    out: &mut String,
    block: &str,
    program: &str,
    cells: impl Iterator<Item = &'a str>,
) {
    let _ = write!(out, "{block:<10} {program:<20}");
    for cell in cells {
        let _ = write!(out, " {cell:>19}");
    }
    out.push('\n');
}

/// The table as committed: `#` lines are comments, every other line is
/// `block program value...` separated by whitespace, and each block's
/// column names lead it as a comment.
fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "# Operation counts of both engines on the fixed corpus, compared bit for bit by\n\
         # tests/counter_oracle.rs. After an intended change, copy\n\
         # $TMPDIR/granlog-engine-counters.actual over this file.\n",
    );
    let mut block = "";
    for row in rows {
        if row.block != block {
            block = row.block;
            push_line(&mut out, "# block", "program", row.columns.iter().copied());
        }
        let values = row.values.iter().map(String::as_str);
        push_line(&mut out, row.block, &row.program, values);
    }
    out
}

#[test]
fn engine_counters_match_the_golden_table() {
    let rows = measure();
    let actual = render(&rows);
    let golden = include_str!("golden/engine_counters.tsv");
    if actual == golden {
        return;
    }
    let path = std::env::temp_dir().join("granlog-engine-counters.actual");
    std::fs::write(&path, &actual).unwrap();

    let mut moved = Vec::new();
    let mut want = golden.lines().filter(|line| !line.starts_with('#'));
    for row in &rows {
        let cells: Vec<&str> = want.next().unwrap_or("").split_whitespace().collect();
        if cells.len() != 2 + row.columns.len() || cells[..2] != [row.block, &row.program] {
            moved.push(format!(
                "{} {}: the golden table's next row is {cells:?}",
                row.block, row.program
            ));
            continue;
        }
        for ((column, got), expected) in row.columns.iter().zip(&row.values).zip(&cells[2..]) {
            if got != expected {
                moved.push(format!(
                    "{} {}: {column} expected {expected}, got {got}",
                    row.block, row.program
                ));
            }
        }
    }
    moved.extend(want.map(|line| format!("the golden table has an extra row: {line}")));
    if moved.is_empty() {
        moved.push("only comments or spacing differ".to_owned());
    }
    panic!(
        "engine counters left tests/golden/engine_counters.tsv:\n  {}\n\
         (the table as computed was written to {})",
        moved.join("\n  "),
        path.display()
    );
}

/// Off is free: a solve not started through the recording entry point
/// records no task tree, so on a machine whose buffers a first run already
/// grew, `fib(15)` (986 forks) makes no more allocator calls than `fib(10)`
/// (88 forks).
#[test]
fn a_solve_that_records_no_tree_allocates_nothing_per_fork() {
    let fib = support::fifteen_benchmarks()
        .into_iter()
        .find(|bench| bench.name == "fib")
        .expect("the suite has fib");
    let mut machine = Machine::new(&fib.program().expect("fib parses"));
    let mut calls = |query: &str| {
        let (goal, vars) = parser::parse_term(query).expect("the query parses");
        let before = support::allocator_calls();
        let outcome = machine.run_goal(&goal, &vars).expect("fib runs");
        let calls = support::allocator_calls() - before;
        assert!(outcome.succeeded, "{query}");
        calls
    };
    calls("fib(15, X)");
    let (big, small) = (calls("fib(15, X)"), calls("fib(10, X)"));
    assert!(
        big <= small,
        "fib(15) made {big} allocator calls, fib(10) {small}: a solve allocates per fork"
    );
}

/// Fact loading sizes each relation's tables for its facts before it
/// inserts them, so a fact file four times larger costs `evaluate` the
/// same allocator calls: no table doubles its way to size.
#[test]
fn fact_loading_allocates_each_table_once() {
    let calls = |hosts: usize| {
        let mut text = String::from("linked(X) :- edge(X, Y), cut(Y).\n");
        for i in 0..hosts {
            writeln!(text, "edge(h{i}, h{}).", i + 1).expect("writes to a string");
        }
        let program = parser::parse_program(&text).expect("the facts parse");
        let compiled = CompiledDatalog::compile(&program).expect("the program is Datalog");
        let before = support::allocator_calls();
        let db = compiled.evaluate().expect("fixpoint");
        let calls = support::allocator_calls() - before;
        assert_eq!(db.stats().edb_facts, hosts as u64);
        calls
    };
    let (small, big) = (calls(500), calls(2000));
    assert_eq!(
        big, small,
        "2000 facts made {big} allocator calls, 500 made {small}"
    );
}

/// A snapshot frames the corpus' own strings into one buffer: its allocator
/// calls do not grow with the number of programs.
#[test]
fn a_snapshot_copies_no_program() {
    let calls = |programs: usize| {
        let dir = support::temp_dir("snapshot-calls");
        let store = ProgramStore::open(StoreConfig {
            fsync: FsyncPolicy::Never,
            ..StoreConfig::new(&dir)
        })
        .expect("the store opens");
        for i in 0..programs {
            let text = format!("p{i}(a).");
            store.record_load(&text, &text).expect("the load journals");
        }
        let before = support::allocator_calls();
        store.snapshot().expect("the snapshot is written");
        let calls = support::allocator_calls() - before;
        assert_eq!(store.stats().programs, programs);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        calls
    };
    let (small, big) = (calls(50), calls(500));
    assert_eq!(
        big, small,
        "a snapshot of 500 programs made {big} allocator calls, of 50 {small}"
    );
}
