//! # granlog-analysis
//!
//! A Rust implementation of the compile-time **task granularity analysis** for
//! logic programs described in:
//!
//! > S. K. Debray, N.-W. Lin and M. Hermenegildo,
//! > *Task Granularity Analysis in Logic Programs*, PLDI 1990.
//!
//! Parallel logic programming systems pay a non-trivial cost for creating and
//! scheduling tasks. A goal should therefore only be executed as a separate
//! parallel task when the *work available under it* (its **granularity**)
//! exceeds that overhead. This crate statically derives, for every predicate
//! of a program, an **upper bound on its cost** as a function of its input
//! argument sizes, and uses it to generate cheap runtime tests of the form
//! "if the input is smaller than K, run sequentially; otherwise spawn".
//!
//! The pipeline mirrors the paper:
//!
//! 1. **Data dependency graphs** ([`ddg`]) abstract each clause (Figure 1).
//! 2. **Argument size relations** ([`measure`], [`sizerel`]) relate the sizes
//!    of body-literal arguments and head outputs to the head's input sizes
//!    (Section 3), yielding difference equations for recursive predicates.
//! 3. **Cost relations** ([`cost`]) bound each clause's work by head
//!    unification plus the (upper-bound) cost of its body literals
//!    (Section 4).
//! 4. A **table-driven difference equation solver** ([`diffeq`], [`solver`])
//!    maps the equations onto schemas with known closed-form upper bounds
//!    (Section 5); anything unmatched is solved as "∞ — always parallelise".
//! 5. **Thresholds** ([`threshold`]) convert a closed-form cost and a task
//!    overhead `W` into the least input size `K` worth spawning for, and the
//!    **annotator** ([`annotate`]) rewrites parallel conjunctions into
//!    conditional code guarded by `'$grain_ge'` tests (Sections 2, 7).
//!
//! The whole pipeline is driven by [`pipeline::analyze_program`].
//!
//! # Quick start
//!
//! ```
//! use granlog_ir::{parser::parse_program, PredId};
//! use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
//! use granlog_analysis::threshold::Threshold;
//!
//! let program = parse_program(r#"
//!     :- mode nrev(+, -).
//!     :- mode append(+, +, -).
//!     nrev([], []).
//!     nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
//!     append([], L, L).
//!     append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
//! "#).unwrap();
//!
//! let analysis = analyze_program(&program, &AnalysisOptions::default());
//! let nrev = PredId::parse("nrev", 2);
//! // The paper's Appendix A closed form: Cost_nrev(n) = 0.5 n^2 + 1.5 n + 1.
//! assert_eq!(analysis.cost_of(nrev).unwrap().to_string(), "0.5*n^2 + 1.5*n + 1");
//! // With a task-creation overhead of 48 units, spawn only for lists of 9+.
//! assert_eq!(analysis.threshold_for(nrev, 48.0), Threshold::SizeAtLeast(9));
//! ```

#![forbid(unsafe_code)]

pub mod annotate;
pub mod cost;
pub mod ddg;
pub mod diffeq;
pub mod expr;
pub mod guard;
pub mod measure;
pub mod pipeline;
pub mod report;
pub mod sizerel;
pub mod solver;
pub mod threshold;

pub use annotate::{
    apply_granularity_control, prepare_program, sequentialize, AnnotateOptions, AnnotatedProgram,
    ControlMode,
};
pub use cost::CostMetric;
pub use expr::{Expr, FnRef};
pub use measure::Measure;
pub use pipeline::{analyze_program, AnalysisOptions, PredAnalysis, ProgramAnalysis};
pub use solver::{SchemaKind, Solution};
pub use threshold::Threshold;
