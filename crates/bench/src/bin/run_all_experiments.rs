//! Runs every experiment of the paper in one go, plus the ablations discussed
//! in DESIGN.md (overhead-scaling sweep and per-metric analysis comparison).
//!
//! ```text
//! cargo run --release -p granlog-bench --bin run_all_experiments -- [--small] [--ablations]
//! ```

use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_analysis::CostMetric;
use granlog_bench::{emit, fig1_ddg, fig2_grainsize, table1_rolog, table2_andprolog};
use granlog_benchmarks::{benchmark, table_row};
use granlog_ir::PredId;
use granlog_sim::{OverheadModel, SimConfig};
use std::fmt::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let ablations = args.iter().any(|a| a == "--ablations");

    // ---- The paper's four artefacts, as their own binaries print them ----
    emit("fig1_ddg", &fig1_ddg());
    emit("table1_rolog", &table1_rolog(small));
    emit("table2_andprolog", &table2_andprolog(small));
    emit("fig2_grainsize", &fig2_grainsize(small));

    if !ablations {
        return;
    }

    // ---- Ablation 1: sensitivity to the overhead estimate -----------------
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
    emit("ablation_overhead", &text);

    // ---- Ablation 2: cost metric comparison -------------------------------
    let mut text = String::from("Ablation — cost bounds for quick_sort under different metrics\n");
    let program = benchmark("quick_sort")
        .expect("exists")
        .program()
        .expect("parses");
    for metric in [
        CostMetric::Resolutions,
        CostMetric::Unifications,
        CostMetric::Steps,
    ] {
        let analysis = analyze_program(
            &program,
            &AnalysisOptions {
                metric,
                ..AnalysisOptions::default()
            },
        );
        let qsort = PredId::parse("qsort", 2);
        let partition = PredId::parse("partition", 4);
        let _ = writeln!(
            text,
            "  {metric:<13} cost(partition/4) = {}",
            analysis.cost_of(partition).expect("analysed")
        );
        let _ = writeln!(
            text,
            "  {metric:<13} threshold(qsort/2, W = 60) = {}",
            analysis.threshold_for(qsort, 60.0)
        );
    }
    emit("ablation_metric", &text);
}
