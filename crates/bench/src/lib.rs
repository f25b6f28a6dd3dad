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
//! This library crate contains small formatting helpers shared by the
//! binaries and the integration tests. The package also hosts the
//! workspace-level integration suites under `tests/`. Nothing here measures
//! wall clock: timings come from `benchmark/`, and the engines' operation
//! counts are pinned by `tests/counter_oracle.rs`.

#![forbid(unsafe_code)]

use granlog_benchmarks::TableRow;
use std::fmt::Write as _;

/// Renders Table-1/Table-2 style rows as a fixed-width text table.
pub fn format_table(title: &str, rows: &[TableRow]) -> String {
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
pub fn format_sweep(title: &str, points: &[granlog_benchmarks::SweepPoint]) -> String {
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
pub fn default_grain_sizes() -> Vec<u64> {
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
