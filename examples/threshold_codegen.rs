//! Show the code the granularity-control "compiler" generates: for each
//! benchmark program, print the clauses whose parallel conjunctions were
//! guarded with runtime grain-size tests, together with the decisions taken.
//!
//! ```text
//! cargo run -p granlog-benchmarks --example threshold_codegen
//! ```

use granlog_analysis::annotate::{apply_granularity_control, AnnotateOptions};
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_benchmarks::all_benchmarks;
use granlog_ir::Guard;
use granlog_sim::OverheadModel;

fn main() {
    let overhead = OverheadModel::rolog_like().per_task_overhead();
    println!("granularity control for a per-task overhead of {overhead} work units\n");

    for bench in all_benchmarks() {
        let program = bench.program().expect("benchmark parses");
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let annotated =
            apply_granularity_control(&program, &analysis, &AnnotateOptions { overhead });

        println!("=== {} ===", bench.label());
        for decision in &annotated.decisions {
            let verdict = match decision.guarded {
                Some(true) => "guarded with runtime grain tests",
                Some(false) => "sequentialised unconditionally",
                None => "left unconditionally parallel",
            };
            println!(
                "  clause {} of {}: {verdict}",
                decision.clause_index + 1,
                decision.clause_pred
            );
            for (i, arm) in decision.arms.iter().enumerate() {
                match arm {
                    Some((
                        pred,
                        Guard::SizeAtLeast {
                            arg_pos,
                            measure,
                            k,
                        },
                    )) => println!(
                        "    arm {}: test {}(arg {}) under '{measure}' against threshold {k}",
                        i + 1,
                        pred,
                        arg_pos + 1
                    ),
                    other => println!("    arm {}: {other:?}", i + 1),
                }
            }
        }
        // Print the transformed clauses that actually contain tests.
        for clause in annotated.program.clauses() {
            let text = clause.display().to_string();
            if text.contains("$grain_ge") {
                println!("  {text}");
            }
        }
        println!();
    }
}
