//! The paper's artefacts as text: Figure 1 (the `nrev` data dependency
//! graphs), Tables 1 and 2 (`T0`/`T1` on the ROLOG-like and &-Prolog-like
//! machines), Figure 2 (the grain-size sweep), and two ablations (the
//! sensitivity of Table 1's speedup to the overhead estimate, and the cost
//! bounds of one program under each cost metric).
//!
//! [`ARTEFACTS`] lists every artefact by the name of the file [`emit`]
//! writes it to; the `experiments` binary prints the ones named on its
//! command line, or the paper's four:
//!
//! ```text
//! cargo run --release -p granlog-benchmarks --bin experiments -- [--small] [NAME ...]
//! ```
//!
//! Nothing here measures wall clock: the times are simulated, timings come
//! from `benchmark/`, and `tests/paper_artefacts.rs` pins every artefact at
//! its reduced (`--small`) size.

use crate::harness::{grain_size_sweep, table_row, SweepPoint, TableRow};
use crate::suite::{all_benchmarks, benchmark, nrev_benchmark, table2_benchmarks, Benchmark};
use granlog_analysis::ddg::Ddg;
use granlog_ir::PredId;
use granlog_sim::{OverheadModel, SimConfig};
use std::fmt::Write as _;

/// How an artefact is computed.
#[derive(Debug, Clone, Copy)]
pub enum Renderer {
    /// The artefact has one size.
    Fixed(fn() -> String),
    /// The artefact runs the paper's input sizes, or with `true` the
    /// reduced sizes the tests run (`--small`).
    Sized(fn(bool) -> String),
}

impl Renderer {
    /// The artefact's text; `small` is ignored by a [`Renderer::Fixed`] one.
    pub fn render(self, small: bool) -> String {
        match self {
            Renderer::Fixed(render) => render(),
            Renderer::Sized(render) => render(small),
        }
    }
}

/// Every artefact, by the name of the file [`emit`] writes it to. The first
/// [`PAPER_ARTEFACTS`] are the paper's own; the last is an ablation.
pub const ARTEFACTS: [(&str, Renderer); 5] = [
    ("fig1_ddg", Renderer::Fixed(fig1_ddg)),
    ("table1_rolog", Renderer::Sized(table1_rolog)),
    ("table2_andprolog", Renderer::Sized(table2_andprolog)),
    ("fig2_grainsize", Renderer::Sized(fig2_grainsize)),
    ("ablation_overhead", Renderer::Sized(ablation_overhead)),
];

/// How many of [`ARTEFACTS`], from the first, reproduce the paper's
/// figures and tables.
pub const PAPER_ARTEFACTS: usize = 4;

/// The renderer of the artefact called `name`, or an error naming every
/// artefact there is.
pub fn lookup(name: &str) -> Result<Renderer, String> {
    ARTEFACTS
        .iter()
        .find(|(known, _)| *known == name)
        .map(|&(_, renderer)| renderer)
        .ok_or_else(|| {
            let known: Vec<&str> = ARTEFACTS.iter().map(|(known, _)| *known).collect();
            format!(
                "unknown artefact `{name}`; the artefacts are {}",
                known.join(", ")
            )
        })
}

/// **Figure 1**: the data dependency graphs of the two clauses of `nrev/2`
/// (and, for completeness, of `append/3`), as ASCII and as Graphviz.
fn fig1_ddg() -> String {
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
/// (`T0`) granularity control.
fn table1_rolog(small: bool) -> String {
    table(
        "Table 1 — ROLOG-like machine",
        &SimConfig::rolog4(),
        all_benchmarks(),
        small,
    )
}

/// **Table 2**: the four benchmarks the paper measured on &-Prolog (low
/// task-management overhead), with and without granularity control.
fn table2_andprolog(small: bool) -> String {
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
///
/// Every parallel conjunction is guarded by a run-time test with the same
/// fixed threshold. Sweeping it from 0 (spawn everything) to very large
/// (spawn nothing) gives the paper's curve: high on the left, where tiny
/// tasks pay the task-management overhead, a wide flat trough, and rising
/// again on the right, where all parallelism is sequentialised. The width
/// of the trough is the paper's argument that the compiler-derived
/// threshold need not be very precise.
fn fig2_grainsize(small: bool) -> String {
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

/// **Ablation**: the speedup of granularity control on `fib` as the
/// ROLOG-like task overhead is scaled from a quarter to four times its
/// value, i.e. how much the result depends on the overhead estimate.
fn ablation_overhead(small: bool) -> String {
    let mut text =
        String::from("Ablation — speedup of granularity control vs. task overhead (fib)\n");
    let bench = benchmark("fib").expect("fib exists");
    let size = if small { 12 } else { 15 };
    for scale in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let config = SimConfig::new(4, OverheadModel::rolog_like().scaled(scale));
        let row = table_row(&bench, size, &config);
        let _ = writeln!(
            text,
            "  overhead x{scale:<4}: T0 = {:>9.0}  T1 = {:>9.0}  speedup = {:>6.1}%",
            row.t_without, row.t_with, row.speedup_percent
        );
    }
    text
}

/// Renders Table-1/Table-2 style rows as a fixed-width text table.
pub(crate) fn format_table(title: &str, rows: &[TableRow]) -> String {
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
pub(crate) fn format_sweep(title: &str, points: &[SweepPoint]) -> String {
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

/// Writes an artefact both to stdout and (best-effort) to
/// `target/experiments/<name>.txt`, so results can be archived.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.txt")), content);
    }
}

/// The grain-size grid used for the Figure 2 sweep.
pub(crate) fn default_grain_sizes() -> Vec<u64> {
    vec![
        0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024, 4096,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artefact_is_found_by_its_name_and_renders() {
        for (name, _) in ARTEFACTS {
            let text = lookup(name).unwrap().render(true);
            assert!(!text.trim().is_empty(), "{name} rendered nothing");
        }
    }

    #[test]
    fn an_unknown_name_is_an_error_listing_the_known_ones() {
        for unknown in ["table3", "--ablations", "run_all_experiments", ""] {
            let message = lookup(unknown).unwrap_err();
            assert!(message.contains(&format!("`{unknown}`")), "{message}");
            for (name, _) in ARTEFACTS {
                assert!(message.contains(name), "{message} omits {name}");
            }
        }
    }
}
