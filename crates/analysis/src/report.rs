//! Human-readable reports of analysis results.
//!
//! The CLI and the examples use these helpers to print the kind of
//! per-predicate summary a compiler writer would want to inspect: modes,
//! measures, argument-size functions, cost functions, solver schemas and
//! thresholds.

use crate::pipeline::ProgramAnalysis;
use std::fmt::Write as _;

/// Renders a per-predicate summary of the analysis.
///
/// When `overhead` is provided, a threshold column is included.
pub fn render_report(analysis: &ProgramAnalysis, overhead: Option<f64>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "granularity analysis report (resolutions metric)");
    let _ = writeln!(out, "{}", "=".repeat(72));
    for (pred, info) in &analysis.preds {
        let _ = writeln!(out, "predicate {pred}  [{}]", info.recursion);
        let mode = analysis
            .modes
            .get(pred)
            .map(|m| m.to_string())
            .unwrap_or_else(|| "?".to_owned());
        let measures: Vec<String> = info.measures.iter().map(|m| m.to_string()).collect();
        let _ = writeln!(out, "  mode     : {mode}");
        let _ = writeln!(out, "  measures : ({})", measures.join(", "));
        let params: Vec<String> = info.params.iter().map(|p| p.to_string()).collect();
        for (pos, size) in &info.output_sizes {
            let schema = info
                .size_schemas
                .get(pos)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".to_owned());
            let _ = writeln!(
                out,
                "  size[{}]({}) = {}    [{schema}]",
                pos + 1,
                params.join(", "),
                size
            );
        }
        let _ = writeln!(
            out,
            "  cost({}) = {}    [{}]",
            params.join(", "),
            info.cost,
            info.cost_schema
        );
        if let Some(w) = overhead {
            let threshold = analysis.threshold_for(*pred, w);
            let _ = writeln!(out, "  threshold (W = {w}): {threshold}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{analyze_program, AnalysisOptions};
    use granlog_ir::parser::parse_program;

    fn analysis() -> ProgramAnalysis {
        let src = r#"
            :- mode nrev(+, -).
            :- mode append(+, +, -).
            nrev([], []).
            nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
            append([], L, L).
            append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
        "#;
        analyze_program(&parse_program(src).unwrap(), &AnalysisOptions::default())
    }

    #[test]
    fn report_mentions_costs_and_sizes() {
        let a = analysis();
        let text = render_report(&a, Some(48.0));
        assert!(text.contains("nrev/2"));
        assert!(text.contains("append/3"));
        assert!(text.contains("0.5*n^2 + 1.5*n + 1"));
        assert!(text.contains("n1 + n2"));
        assert!(text.contains("threshold"));
        assert!(text.contains("simple recursive"));
    }

    #[test]
    fn report_without_overhead_omits_threshold() {
        let a = analysis();
        let text = render_report(&a, None);
        assert!(!text.contains("threshold"));
    }
}
