//! Programs: collections of clauses grouped by predicate, plus directives.

use crate::clause::{Clause, ClauseId};
use crate::modes::{ArgMode, ModeDecl};
use crate::symbol::Symbol;
use crate::term::{AsTerm, Term, View};
use std::collections::BTreeMap;
use std::fmt;

/// A predicate identifier: functor name plus arity.
///
/// # Example
///
/// ```
/// use granlog_ir::{PredId, Symbol};
/// let p = PredId::new(Symbol::intern("append"), 3);
/// assert_eq!(p.to_string(), "append/3");
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct PredId {
    /// Predicate (functor) name.
    pub name: Symbol,
    /// Number of arguments.
    pub arity: usize,
}

impl PredId {
    /// Creates a predicate identifier.
    pub fn new(name: Symbol, arity: usize) -> Self {
        PredId { name, arity }
    }

    /// Convenience constructor interning the name.
    pub fn parse(name: &str, arity: usize) -> Self {
        PredId::new(Symbol::intern(name), arity)
    }

    /// The predicate identifier of a callable term.
    pub fn of_term<'a>(term: impl AsTerm<'a>) -> Option<Self> {
        term.functor().map(|(name, arity)| PredId::new(name, arity))
    }
}

impl fmt::Debug for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

/// The principal functor of a clause-head (or goal) first argument, used as a
/// first-argument indexing key.
///
/// Unlike formatting the functor into an interned string (which would lock the
/// interner and allocate), an `IndexKey` is a small `Copy` value that hashes
/// and compares directly. Variables have no key (they match every bucket).
/// Floats are keyed by bit pattern with negative zero normalized to zero, so
/// two floats that unify under numeric `==` always share a bucket (NaNs do
/// not, but a NaN head never unifies with anything anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndexKey {
    /// An atom first argument.
    Atom(Symbol),
    /// An integer first argument.
    Int(i64),
    /// A float first argument, keyed by its (±0-normalized) bit pattern.
    FloatBits(u64),
    /// A compound first argument: functor name and arity.
    Struct(Symbol, usize),
}

/// Float key bits: `-0.0` unifies with `0.0`, so both map to the same key.
fn float_key_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

impl IndexKey {
    /// The index key of a source term: `None` for variables.
    pub fn of_term<'a>(t: impl AsTerm<'a>) -> Option<IndexKey> {
        match t.view() {
            View::Var(_) => None,
            View::Atom(s) => Some(IndexKey::Atom(s)),
            View::Int(i) => Some(IndexKey::Int(i)),
            View::Float(x) => Some(IndexKey::FloatBits(float_key_bits(x))),
            View::Struct(s, args) => Some(IndexKey::Struct(s, args.len())),
        }
    }

    /// The index key of a runtime float value (the goal-side counterpart of
    /// the float case of [`IndexKey::of_term`]).
    pub fn of_float(x: f64) -> IndexKey {
        IndexKey::FloatBits(float_key_bits(x))
    }

    /// The index key of a clause: the key of its head's first argument
    /// (`None` for variable first arguments and zero-arity heads, which match
    /// every call).
    pub fn of_clause_head(clause: &Clause) -> Option<IndexKey> {
        clause.head.args().next().and_then(IndexKey::of_term)
    }
}

/// A predicate: the ordered list of clauses defining it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// The predicate's identifier.
    pub id: PredId,
    /// Indices (into [`Program::clauses`]) of the clauses defining it, in
    /// source order.
    pub clause_ids: Vec<ClauseId>,
}

/// A source-level directive (`:- ...`) recognised by the toolchain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `:- mode p(+, -).` — argument modes for a predicate.
    Mode(PredId, Vec<ArgMode>),
    /// `:- measure p(length, void).` — size measures per argument position.
    Measure(PredId, Vec<Symbol>),
    /// `:- parallel p/2.` — the predicate's body conjunctions may run in
    /// parallel (candidate for granularity control).
    Parallel(PredId),
    /// `:- sequential p/2.` — never parallelise this predicate.
    Sequential(PredId),
    /// `:- entry p(+, -).` — an entry point with the given call modes.
    Entry(PredId, Vec<ArgMode>),
    /// Any other directive, kept verbatim.
    Other(Term),
}

/// A logic program: clauses, the predicates they define and directives.
///
/// # Example
///
/// ```
/// use granlog_ir::parser::parse_program;
/// let p = parse_program(":- mode app(+, +, -). app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).").unwrap();
/// let app = granlog_ir::PredId::parse("app", 3);
/// assert_eq!(p.clauses_of(app).len(), 2);
/// assert!(p.mode_of(app).is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    clauses: Vec<Clause>,
    predicates: BTreeMap<PredId, Predicate>,
    directives: Vec<Directive>,
    modes: BTreeMap<PredId, ModeDecl>,
    measures: BTreeMap<PredId, Vec<Symbol>>,
    parallel: BTreeMap<PredId, bool>,
    entries: Vec<(PredId, Vec<ArgMode>)>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Adds a clause, listing it under its head predicate.
    ///
    /// Returns the new clause's id.
    ///
    /// # Panics
    ///
    /// Panics if the clause head is not callable (not an atom or compound).
    pub fn add_clause(&mut self, clause: Clause) -> ClauseId {
        let pred = clause
            .head_pred()
            .expect("clause head must be an atom or compound term");
        let id = self.clauses.len();
        self.clauses.push(clause);
        let predicate = self.predicates.entry(pred).or_insert_with(|| Predicate {
            id: pred,
            clause_ids: Vec::new(),
        });
        predicate.clause_ids.push(id);
        id
    }

    /// Records a directive, updating the derived indexes (modes, measures,
    /// parallel/sequential markings, entries).
    pub fn add_directive(&mut self, directive: Directive) {
        match &directive {
            Directive::Mode(pred, modes) => {
                self.modes
                    .insert(*pred, ModeDecl::new(*pred, modes.clone()));
            }
            Directive::Measure(pred, ms) => {
                self.measures.insert(*pred, ms.clone());
            }
            Directive::Parallel(pred) => {
                self.parallel.insert(*pred, true);
            }
            Directive::Sequential(pred) => {
                self.parallel.insert(*pred, false);
            }
            Directive::Entry(pred, modes) => {
                self.entries.push((*pred, modes.clone()));
                self.modes
                    .entry(*pred)
                    .or_insert_with(|| ModeDecl::new(*pred, modes.clone()));
            }
            Directive::Other(_) => {}
        }
        self.directives.push(directive);
    }

    /// All clauses in source order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Iterates over the predicates defined by the program.
    pub fn predicates(&self) -> impl Iterator<Item = &Predicate> {
        self.predicates.values()
    }

    /// The predicate entry for `pred`, if defined.
    pub fn predicate(&self, pred: PredId) -> Option<&Predicate> {
        self.predicates.get(&pred)
    }

    /// Returns `true` if the program defines `pred`.
    pub fn defines(&self, pred: PredId) -> bool {
        self.predicates.contains_key(&pred)
    }

    /// The clauses defining `pred`, in source order.
    pub fn clauses_of(&self, pred: PredId) -> Vec<&Clause> {
        self.predicates
            .get(&pred)
            .map(|p| p.clause_ids.iter().map(|&i| &self.clauses[i]).collect())
            .unwrap_or_default()
    }

    /// All directives in source order.
    pub fn directives(&self) -> &[Directive] {
        &self.directives
    }

    /// The declared mode of `pred`, if any.
    pub fn mode_of(&self, pred: PredId) -> Option<&ModeDecl> {
        self.modes.get(&pred)
    }

    /// All declared modes.
    pub fn modes(&self) -> &BTreeMap<PredId, ModeDecl> {
        &self.modes
    }

    /// The declared size measures for `pred`'s argument positions, if any.
    pub fn measure_of(&self, pred: PredId) -> Option<&[Symbol]> {
        self.measures.get(&pred).map(|v| v.as_slice())
    }

    /// Whether `pred` was explicitly marked parallel (`Some(true)`),
    /// sequential (`Some(false)`), or left unspecified (`None`).
    pub fn parallel_marking(&self, pred: PredId) -> Option<bool> {
        self.parallel.get(&pred).copied()
    }

    /// Declared entry points with their call modes.
    pub fn entries(&self) -> &[(PredId, Vec<ArgMode>)] {
        &self.entries
    }

    /// Total number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Returns `true` if the program has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for clause in &self.clauses {
            writeln!(f, "{}", clause.display())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn predicates_are_grouped() {
        let p = parse_program("p(1). p(2). q(X) :- p(X). p(3).").unwrap();
        let pid = PredId::parse("p", 1);
        let qid = PredId::parse("q", 1);
        assert_eq!(p.clauses_of(pid).len(), 3);
        assert_eq!(p.clauses_of(qid).len(), 1);
        assert_eq!(p.predicates().count(), 2);
        assert!(p.defines(pid));
        assert!(!p.defines(PredId::parse("r", 1)));
    }

    #[test]
    fn clause_order_is_preserved() {
        let p = parse_program("p(1). p(2). p(3).").unwrap();
        let pid = PredId::parse("p", 1);
        let heads: Vec<String> = p
            .clauses_of(pid)
            .iter()
            .map(|c| c.head.to_string())
            .collect();
        assert_eq!(heads, vec!["p(1)", "p(2)", "p(3)"]);
    }

    #[test]
    fn directives_are_indexed() {
        let p = parse_program(
            ":- mode app(+, +, -).\n:- measure app(length, length, length).\n:- parallel q/2.\napp([], L, L).",
        )
        .unwrap();
        let app = PredId::parse("app", 3);
        assert_eq!(p.mode_of(app).unwrap().modes.len(), 3);
        assert_eq!(p.measure_of(app).unwrap().len(), 3);
        assert_eq!(p.parallel_marking(PredId::parse("q", 2)), Some(true));
        assert_eq!(p.parallel_marking(app), None);
        assert_eq!(p.directives().len(), 3);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let src = "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).";
        let p = parse_program(src).unwrap();
        let printed = p.to_string();
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(reparsed.len(), p.len());
    }

    #[test]
    fn float_keys_normalize_negative_zero() {
        assert_eq!(
            IndexKey::of_term(&Term::float(0.0)),
            IndexKey::of_term(&Term::float(-0.0))
        );
        assert_eq!(IndexKey::of_float(-0.0), IndexKey::of_float(0.0));
        assert_ne!(IndexKey::of_float(1.0), IndexKey::of_float(-1.0));
    }

    #[test]
    fn pred_id_display_and_parse() {
        let p = PredId::parse("nrev", 2);
        assert_eq!(p.to_string(), "nrev/2");
        assert_eq!(format!("{p:?}"), "nrev/2");
        let t = Term::compound("nrev", vec![Term::var(0), Term::var(1)]);
        assert_eq!(PredId::of_term(&t), Some(p));
        assert_eq!(PredId::of_term(&Term::int(1)), None);
    }
}
