//! The paper's Appendix A, step by step: data dependency graphs, argument size
//! relations, cost equations and their closed forms for `nrev/2` / `append/3`.
//!
//! ```text
//! cargo run -p granlog-benchmarks --example analyze_nrev
//! ```

use granlog_analysis::ddg::Ddg;
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_analysis::sizerel::analyze_clause;
use granlog_benchmarks::nrev_benchmark;
use granlog_ir::PredId;
use std::collections::BTreeSet;

fn main() {
    let program = nrev_benchmark().program().expect("nrev parses");
    let nrev = PredId::parse("nrev", 2);
    let append = PredId::parse("append", 3);
    let analysis = analyze_program(&program, &AnalysisOptions::default());

    // --- Figure 1: the data dependency graphs --------------------------------
    println!("== Figure 1: data dependency graphs of nrev/2 ==");
    let modes = &analysis.modes;
    for (i, clause) in program.clauses_of(nrev).iter().enumerate() {
        let ddg = Ddg::build(clause, &modes[&nrev]);
        println!("clause {}: {}", i + 1, clause.display());
        println!("{}", ddg.to_ascii());
    }

    // --- Section 3: argument size relations ---------------------------------
    // Clause 2 as the pipeline sees it while it solves nrev/2's SCC: Ψ_append
    // is read from append/3's record, and the call to nrev/2 stays symbolic.
    println!("== Argument size relations (Example 3.2 / 3.3) ==");
    let scc: BTreeSet<PredId> = [nrev].into_iter().collect();
    let ddg = Ddg::build(program.clauses_of(nrev)[1], &modes[&nrev]);
    let sizes = analyze_clause(&ddg, &analysis, &scc);
    for relation in sizes.relations() {
        println!("  {} = {}", sizes.lhs_text(relation.lhs), relation.rhs);
    }

    // --- Sections 4-5: cost equations and closed forms ----------------------
    println!("\n== Closed forms (Appendix A) ==");
    println!(
        "  psi_append(n1, n2) = {}",
        analysis.output_size_of(append, 2).expect("solved")
    );
    println!(
        "  psi_nrev(n)        = {}",
        analysis.output_size_of(nrev, 1).expect("solved")
    );
    println!(
        "  Cost_append(n1)    = {}",
        analysis.cost_of(append).expect("solved")
    );
    println!(
        "  Cost_nrev(n)       = {}",
        analysis.cost_of(nrev).expect("solved")
    );

    // --- Thresholds ----------------------------------------------------------
    println!("\n== Thresholds (Section 5) ==");
    for w in [8.0, 48.0, 200.0] {
        println!("  overhead W = {w:>5}: {}", analysis.threshold_for(nrev, w));
    }
}
