//! The grain-size decision, written once.
//!
//! The paper's runtime story is a single decision: a compile-time cost bound
//! becomes a threshold on the size of one input argument, checked by a cheap
//! bounded test before a spawn. This module is the contract between what
//! *produces* that decision (`granlog-analysis`, from thresholds at a task
//! overhead `W` or with one constant for the Figure 2 sweep) and what
//! *enforces* it (the annotator's `'$grain_ge'` rewrite, whose output every
//! engine runs): one [`Measure`] vocabulary with one name table, one
//! per-predicate [`Guard`], one [`GuardTable`].

use crate::symbol::FastMap;
use crate::{AsTerm, PredId, Symbol, Term};
use std::fmt;
use std::sync::OnceLock;

/// A size measure (the paper's `m`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Measure {
    /// Length of a proper list (`list_length`).
    ListLength,
    /// Number of constant and function symbols (`term_size`).
    TermSize,
    /// Depth of the term's tree representation (`term_depth`).
    TermDepth,
    /// The value of an integer (`int_value`), clamped below at 0 for use as a
    /// size.
    IntValue,
    /// The argument does not carry size information relevant to the analysis.
    Ignore,
}

/// Every accepted measure name, each measure's canonical name first. Both
/// `:- measure p(length, ...)` directives and the second argument of
/// `'$grain_ge'` resolve through this table.
const NAMES: &[(&str, Measure)] = &[
    ("length", Measure::ListLength),
    ("list_length", Measure::ListLength),
    ("list", Measure::ListLength),
    ("size", Measure::TermSize),
    ("term_size", Measure::TermSize),
    ("depth", Measure::TermDepth),
    ("term_depth", Measure::TermDepth),
    ("int", Measure::IntValue),
    ("value", Measure::IntValue),
    ("int_value", Measure::IntValue),
    ("nat", Measure::IntValue),
    ("void", Measure::Ignore),
    ("ignore", Measure::Ignore),
    ("none", Measure::Ignore),
    ("_", Measure::Ignore),
];

impl Measure {
    /// Parses a measure name as used in `:- measure p(length, ...)` directives.
    pub fn from_name(name: &str) -> Option<Measure> {
        NAMES.iter().find(|(n, _)| *n == name).map(|&(_, m)| m)
    }

    /// [`Measure::from_name`] for an interned name: one hash probe (the
    /// `'$grain_ge'` builtin resolves its measure argument on every test).
    pub fn of_symbol(name: Symbol) -> Option<Measure> {
        static TABLE: OnceLock<FastMap<Symbol, Measure>> = OnceLock::new();
        TABLE
            .get_or_init(|| NAMES.iter().map(|&(n, m)| (Symbol::intern(n), m)).collect())
            .get(&name)
            .copied()
    }

    /// The measure's canonical name.
    pub fn name(self) -> &'static str {
        let canonical = NAMES.iter().find(|&&(_, m)| m == self);
        canonical.expect("every measure is named").0
    }
}

impl fmt::Display for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The grain-size decision for calls to one predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Guard {
    /// The predicate's work is unbounded or always exceeds the overhead:
    /// spawn unconditionally.
    Always,
    /// The predicate's work can never exceed the overhead: spawning never
    /// pays for itself.
    Never,
    /// Spawn iff the measured size of one input argument is at least `k`.
    SizeAtLeast {
        /// 0-based argument position whose size is measured.
        arg_pos: usize,
        /// The size measure to apply to that argument.
        measure: Measure,
        /// The threshold size.
        k: u64,
    },
}

impl Guard {
    /// The `'$grain_ge'(Arg, Measure, K)` test this guard places before a
    /// spawn of `goal`; `None` when the guard needs no runtime test (or the
    /// goal lacks the measured argument).
    pub fn test_for<'a>(self, goal: impl AsTerm<'a>) -> Option<Term> {
        let Guard::SizeAtLeast {
            arg_pos,
            measure,
            k,
        } = self
        else {
            return None;
        };
        let arg = goal.args().nth(arg_pos)?.to_term();
        Some(Term::compound(
            "$grain_ge",
            vec![
                arg,
                Term::atom(measure.name()),
                Term::int(i64::try_from(k).unwrap_or(i64::MAX)),
            ],
        ))
    }
}

/// Per-predicate guards. Predicates without an entry are unknown to the
/// producer and spawn, following the paper's prescription for unknown costs
/// (err on the parallel side of a parallel language).
#[derive(Debug, Clone, Default)]
pub struct GuardTable {
    guards: FastMap<PredId, Guard>,
}

impl GuardTable {
    /// The guard of a predicate, if it has one.
    pub fn get(&self, pred: PredId) -> Option<Guard> {
        self.guards.get(&pred).copied()
    }
}

impl FromIterator<(PredId, Guard)> for GuardTable {
    fn from_iter<I: IntoIterator<Item = (PredId, Guard)>>(iter: I) -> Self {
        GuardTable {
            guards: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term;

    #[test]
    fn every_name_resolves_the_same_way_as_text_and_as_symbol() {
        for &(name, measure) in NAMES {
            assert_eq!(Measure::from_name(name), Some(measure));
            assert_eq!(Measure::of_symbol(Symbol::intern(name)), Some(measure));
            assert_eq!(Measure::from_name(measure.name()), Some(measure));
        }
        assert_eq!(Measure::from_name("bogus"), None);
        assert_eq!(Measure::of_symbol(Symbol::intern("bogus")), None);
    }

    #[test]
    fn size_guards_test_the_measured_argument() {
        let (goal, _) = parse_term("qsort([a|T], S)").unwrap();
        let guard = Guard::SizeAtLeast {
            arg_pos: 0,
            measure: Measure::ListLength,
            k: 7,
        };
        let test = guard.test_for(&goal).unwrap();
        let (expected, _) = parse_term("'$grain_ge'([a|T], length, 7)").unwrap();
        assert_eq!(test, expected);
        assert_eq!(Guard::Always.test_for(&goal), None);
        assert_eq!(Guard::Never.test_for(&goal), None);
        let missing = Guard::SizeAtLeast {
            arg_pos: 5,
            measure: Measure::ListLength,
            k: 7,
        };
        assert_eq!(missing.test_for(&goal), None);
    }
}
