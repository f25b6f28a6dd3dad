//! # granlog-bench
//!
//! Experiment harness binaries that regenerate the tables and figures of
//! *Task Granularity Analysis in Logic Programs* (PLDI 1990).
//!
//! Binaries (run with `cargo run --release -p granlog-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1_ddg` | Figure 1 — the data dependency graphs of `nrev/2` |
//! | `fig2_grainsize` | Figure 2 — execution time vs. grain size |
//! | `table1_rolog` | Table 1 — 12 benchmarks on the ROLOG-like machine |
//! | `table2_andprolog` | Table 2 — 4 benchmarks on the &-Prolog-like machine |
//! | `run_all_experiments` | everything above, plus ablations |
//!
//! Each artefact is one function of this library ([`fig1_ddg`],
//! [`table1_rolog`], [`table2_andprolog`], [`fig2_grainsize`]); its binary
//! and `run_all_experiments` print what that function returns. The package
//! also hosts the workspace-level integration suites under `tests/`.
//! Nothing here measures wall clock: timings come from `benchmark/`, and the
//! engines' operation counts are pinned by `tests/counter_oracle.rs`.

#![forbid(unsafe_code)]

use granlog_analysis::ddg::Ddg;
use granlog_benchmarks::{
    all_benchmarks, benchmark, grain_size_sweep, nrev_benchmark, table2_benchmarks, table_row,
    Benchmark, TableRow,
};
use granlog_ir::PredId;
use granlog_sim::SimConfig;
use std::fmt::Write as _;

/// **Figure 1**: the data dependency graphs of the two clauses of `nrev/2`
/// (and, for completeness, of `append/3`), as ASCII and as Graphviz.
pub fn fig1_ddg() -> String {
    let program = nrev_benchmark().program().expect("nrev parses");
    let mut out = String::new();
    for (pred, arity) in [("nrev", 2usize), ("append", 3usize)] {
        let pid = PredId::parse(pred, arity);
        let modes = program.mode_of(pid).expect("modes declared").clone();
        for (i, clause) in program.clauses_of(pid).iter().enumerate() {
            let ddg = Ddg::build(clause, &modes);
            let _ = writeln!(
                out,
                "Figure 1 — data dependency graph of {pred}/{arity}, clause {}",
                i + 1
            );
            let _ = writeln!(out, "  clause: {}", clause.display());
            let _ = writeln!(out, "{}", indent(&ddg.to_ascii(), 2));
            let _ = writeln!(out, "  graphviz:\n{}", indent(&ddg.to_dot(), 4));
        }
    }
    out
}

fn indent(text: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    text.lines()
        .map(|l| format!("{pad}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// **Table 1**: the twelve benchmarks on a 4-processor machine with a
/// ROLOG-like (high) task-management overhead, with (`T1`) and without
/// (`T0`) granularity control. `small` runs the reduced test sizes.
pub fn table1_rolog(small: bool) -> String {
    table(
        "Table 1 — ROLOG-like machine",
        &SimConfig::rolog4(),
        all_benchmarks(),
        small,
    )
}

/// **Table 2**: the four benchmarks the paper measured on &-Prolog (low
/// task-management overhead), with and without granularity control.
pub fn table2_andprolog(small: bool) -> String {
    table(
        "Table 2 — &-Prolog-like machine",
        &SimConfig::and_prolog4(),
        table2_benchmarks(),
        small,
    )
}

fn table(name: &str, config: &SimConfig, benches: Vec<Benchmark>, small: bool) -> String {
    let rows: Vec<TableRow> = benches
        .iter()
        .map(|bench| {
            let size = if small {
                bench.test_size
            } else {
                bench.default_size
            };
            eprintln!("running {}({size}) ...", bench.name);
            table_row(bench, size, config)
        })
        .collect();
    let title = format!(
        "{name}, {} processors (per-task overhead {:.0} units)",
        config.processors,
        config.overhead.per_task_overhead()
    );
    format_table(&title, &rows)
}

/// **Figure 2**: total execution time as a function of the grain-size
/// threshold, for four benchmarks on the ROLOG-like 4-processor machine.
pub fn fig2_grainsize(small: bool) -> String {
    let config = SimConfig::rolog4();
    let subjects = [
        ("fib", if small { 12 } else { 15 }),
        ("quick_sort", if small { 25 } else { 75 }),
        ("hanoi", if small { 5 } else { 6 }),
        ("merge_sort", if small { 32 } else { 128 }),
    ];
    let grains = default_grain_sizes();
    let mut output = String::new();
    for (name, size) in subjects {
        let bench = benchmark(name).expect("benchmark exists");
        eprintln!(
            "sweeping {name}({size}) over {} grain sizes ...",
            grains.len()
        );
        let points = grain_size_sweep(&bench, size, &config, &grains);
        output.push_str(&format_sweep(
            &format!("Figure 2 — {name}({size}), execution time vs. grain size"),
            &points,
        ));
        output.push('\n');
    }
    output
}

/// Renders Table-1/Table-2 style rows as a fixed-width text table.
fn format_table(title: &str, rows: &[TableRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}", "=".repeat(title.len()));
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>12} {:>9} {:>8} {:>8} {:>8}",
        "program", "T0 (units)", "T1 (units)", "speedup", "tasks0", "tasks1", "tests"
    );
    let _ = writeln!(out, "{}", "-".repeat(85));
    for row in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>12.0} {:>12.0} {:>8.1}% {:>8} {:>8} {:>8}",
            row.label,
            row.t_without,
            row.t_with,
            row.speedup_percent,
            row.tasks_without,
            row.tasks_with,
            row.grain_tests
        );
    }
    out
}

/// Renders a Figure-2 style series (grain size vs. execution time) as text,
/// including a crude horizontal bar chart so the "trough" shape is visible in
/// a terminal.
fn format_sweep(title: &str, points: &[granlog_benchmarks::SweepPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}", "=".repeat(title.len()));
    let max_time = points
        .iter()
        .map(|p| p.time)
        .fold(0.0f64, f64::max)
        .max(1.0);
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>8}   profile",
        "grain", "time (units)", "tasks"
    );
    for p in points {
        let bar_len = ((p.time / max_time) * 50.0).round() as usize;
        let _ = writeln!(
            out,
            "{:>10} {:>14.0} {:>8}   {}",
            p.grain_size,
            p.time,
            p.spawned_tasks,
            "#".repeat(bar_len.max(1))
        );
    }
    out
}

/// Writes experiment output both to stdout and (best-effort) to a file under
/// `target/experiments/`, so results can be archived.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.txt")), content);
    }
}

/// The grain-size grid used for the Figure 2 sweep.
fn default_grain_sizes() -> Vec<u64> {
    vec![
        0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024, 4096,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_benchmarks::SweepPoint;

    fn sample_row() -> TableRow {
        TableRow {
            label: "fib(15)".into(),
            t_without: 1170.0,
            t_with: 850.0,
            speedup_percent: 27.3,
            tasks_without: 1000,
            tasks_with: 120,
            grain_tests: 300,
        }
    }

    #[test]
    fn table_formatting_contains_all_fields() {
        let text = format_table("Table 1", &[sample_row()]);
        assert!(text.contains("fib(15)"));
        assert!(text.contains("1170"));
        assert!(text.contains("850"));
        assert!(text.contains("27.3%"));
    }

    #[test]
    fn sweep_formatting_scales_bars() {
        let points = vec![
            SweepPoint {
                grain_size: 0,
                time: 100.0,
                spawned_tasks: 50,
            },
            SweepPoint {
                grain_size: 8,
                time: 50.0,
                spawned_tasks: 10,
            },
            SweepPoint {
                grain_size: 1024,
                time: 200.0,
                spawned_tasks: 0,
            },
        ];
        let text = format_sweep("Figure 2", &points);
        assert!(text.contains("Figure 2"));
        assert!(text.matches('\n').count() >= 5);
        // The largest time gets the longest bar.
        let lines: Vec<&str> = text.lines().collect();
        let bar_len = |line: &str| line.chars().filter(|c| *c == '#').count();
        let last = lines.iter().find(|l| l.contains("1024")).unwrap();
        let first = lines
            .iter()
            .find(|l| l.trim_start().starts_with('0'))
            .unwrap();
        assert!(bar_len(last) > bar_len(first));
    }

    #[test]
    fn default_grain_sizes_are_sorted_and_start_at_zero() {
        let g = default_grain_sizes();
        assert_eq!(g[0], 0);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }
}
