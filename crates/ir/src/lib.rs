//! # granlog-ir
//!
//! Intermediate representation for logic programs, used by the granularity
//! analysis described in *Task Granularity Analysis in Logic Programs*
//! (Debray, Lin & Hermenegildo, PLDI 1990) and by the execution substrates
//! that reproduce its evaluation.
//!
//! The crate provides:
//!
//! * [`Symbol`] — a cheap interned representation of Prolog atoms and functor
//!   names (see [`symbol`]).
//! * [`Term`] — the Prolog term algebra: variables, atoms, integers, floats
//!   and compound terms, with list sugar (see [`term`]). A term is one flat
//!   vector of cells in preorder; [`TermRef`] borrows a subterm as a slice
//!   of it, [`View`] matches on its root, and [`AsTerm`] holds the readers,
//!   none of which recurses along a term's arguments.
//! * [`parser`] — a tokenizer and operator-precedence reader for a practical
//!   subset of ISO Prolog syntax, including the directives the analysis
//!   consumes (`:- mode ...`, `:- measure ...`, `:- parallel ...`).
//! * [`Clause`], [`Program`], [`PredId`] — clause and program containers
//!   (see [`clause`] and [`program`]).
//! * [`modes`] — argument mode (input/output) declarations and a simple
//!   left-to-right mode inference fallback.
//! * [`callgraph`] — predicate call graphs, Tarjan SCCs, topological
//!   processing order and the recursion classification used in Section 3 of
//!   the paper (nonrecursive / simple recursive / mutually recursive).
//! * [`builtins`] — the one table of builtin predicates: name and arity,
//!   the id the engine dispatches on, argument modes. Every crate that must
//!   know "is this goal a builtin" asks [`builtins::lookup`].
//! * [`arith`] — the one table of arithmetic functions and constants: the
//!   engine evaluates the op [`arith::lookup`] names, and the size analysis
//!   bounds `is/2`'s output by it.
//! * [`shape`] — which clauses of a predicate one call can reach: a
//!   [`ClauseShape`] per clause, whose heads overlap and whose guards
//!   exclude each other. The cost analysis charges by both.
//! * [`grain`] — the grain-size decision shared by the analysis that
//!   produces it and the annotator that enforces it: the [`Measure`]
//!   vocabulary (which the engine's `'$grain_ge'` reads back), the
//!   per-predicate [`Guard`] and the [`GuardTable`].
//!
//! # Example
//!
//! ```
//! use granlog_ir::parser::parse_program;
//!
//! let src = r#"
//!     :- mode nrev(+, -).
//!     nrev([], []).
//!     nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
//! "#;
//! let program = parse_program(src).unwrap();
//! assert_eq!(program.predicates().count(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod arith;
pub mod builtins;
pub mod callgraph;
pub mod clause;
pub mod grain;
pub mod modes;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod shape;
pub mod symbol;
pub mod term;

pub use callgraph::{CallGraph, RecursionClass, Scc};
pub use clause::{Clause, ClauseId};
pub use grain::{Guard, GuardTable, Measure};
pub use modes::{ArgMode, ModeDecl};
pub use parser::{parse_program, parse_term, ParseError};
pub use program::{Directive, IndexKey, PredId, Predicate, Program};
pub use shape::ClauseShape;
pub use symbol::{FastHasher, FastMap, Symbol};
pub use term::{AsTerm, Term, TermRef, VarId, View};
