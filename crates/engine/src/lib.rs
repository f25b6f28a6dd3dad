//! # granlog-engine
//!
//! A sequential Prolog execution engine with **cost instrumentation** and
//! **and-parallel task-tree recording**. It is the execution substrate used to
//! reproduce the evaluation of *Task Granularity Analysis in Logic Programs*
//! (Debray, Lin & Hermenegildo, PLDI 1990): the original experiments ran on
//! ROLOG and &-Prolog on a Sequent Symmetry; here the engine executes the
//! benchmark programs, counts their work in abstract units and, when asked
//! to ([`Machine::run_goal_recorded`]), records the fork-join structure
//! induced by parallel conjunctions (`&`), which the `granlog-sim` crate
//! then schedules on a simulated multiprocessor.
//!
//! Features:
//!
//! * SLD resolution with chronological backtracking, first-argument indexing,
//!   if-then-else, negation as failure, real cut (`!` prunes choice points to
//!   the activating call) and a practical set of builtins;
//! * a fully iterative machine: clause bodies — control constructs included —
//!   compile once into template step sequences, and negation / conditions /
//!   `&` arms run behind explicit barrier records instead of native Rust
//!   recursion (see [`machine`] and [`template`]). Program and query text
//!   enter the arena as one relocating copy of a compile-time layout, clause
//!   heads run as straight-line match ops, and walks over run-time terms are bounded
//!   loops too — a cyclic term (`X = f(X)`: there is no occurs check) is a
//!   typed [`EngineError::TermLimit`] — so no term's depth, list spines
//!   included, costs the machine native stack;
//! * independent and-parallel semantics for `&` (each arm solved to its first
//!   solution; the conjunction fails if any arm fails), executed inline,
//!   with the later arms of a conjunction on offer — when the forking thread
//!   has none on offer yet — to a pluggable parallel executor through the
//!   [`par::ParHook`] spawn boundary (implemented by the `granlog-par`
//!   crate's multi-threaded work-stealing executor);
//! * the `'$grain_ge'(Term, Measure, K)` runtime grain-size test emitted by
//!   the granularity-control transformation, charged with a cost proportional
//!   to the traversal it performs — the only place the engine enforces the
//!   grain-size decision, with or without a parallel hook;
//! * per-operation counters ([`Counters`]), converted to work units under
//!   the paper's resolutions metric;
//! * one [`machine::Budget`] per query: steps, arena cells and wall clock,
//!   each ending the query in a typed [`EngineError::BudgetExceeded`] with
//!   the machine unwound and reusable — what bounds a tenant's query in the
//!   `granlog serve` multi-tenant query service.
//!
//! [`machine`] is one module per concern: the solve loop, control, budget,
//! clause heads, `&` offers, the pair walker and the observers' hooks.
//!
//! # Example
//!
//! ```
//! use granlog_ir::parser::parse_program;
//! use granlog_engine::Machine;
//!
//! let program = parse_program(r#"
//!     append([], L, L).
//!     append([H|T], L, [H|R]) :- append(T, L, R).
//! "#).unwrap();
//! let mut machine = Machine::new(&program);
//! let out = machine.run_query("append([1,2,3], [4], X)").unwrap();
//! assert!(out.succeeded);
//! assert_eq!(out.binding("X").unwrap().to_string(), "[1,2,3,4]");
//! assert_eq!(out.counters.resolutions, 4); // n + 1, as the paper derives
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
pub mod builtins;
pub mod cost;
pub mod error;
mod head_ops;
pub mod heap;
pub mod image;
pub mod machine;
pub mod par;
pub mod profile;
pub mod tasktree;
pub mod template;

pub use cost::Counters;
pub use error::{BudgetKind, EngineError, EngineResult, TermLimit};
pub use heap::HCell;
pub use image::Image;
pub use machine::{
    Budget, ClauseSelection, Machine, MachineConfig, MachineStats, QueryOutcome, RecordedOutcome,
};
pub use par::{ArmAnswer, ArmEnd, ArmResult, Offer, Packet, ParHook};
pub use profile::PredProfile;
pub use tasktree::{ForkSpan, Segment, TaskId, TaskTree};
pub use template::{BuiltinStep, ClauseTemplate, Seq, Step};
