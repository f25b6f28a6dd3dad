//! Programs: collections of clauses grouped by predicate, plus directives.

use crate::clause::{Clause, ClauseId};
use crate::modes::{ArgMode, ModeDecl};
use crate::symbol::{FastMap, Symbol};
use crate::term::Term;
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
    pub fn of_term(term: &Term) -> Option<Self> {
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
pub(crate) fn float_key_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

impl IndexKey {
    /// The index key of a source term: `None` for variables.
    pub fn of_term(t: &Term) -> Option<IndexKey> {
        match t {
            Term::Var(_) => None,
            Term::Atom(s) => Some(IndexKey::Atom(*s)),
            Term::Int(i) => Some(IndexKey::Int(*i)),
            Term::Float(x) => Some(IndexKey::FloatBits(float_key_bits(x.0))),
            Term::Struct(s, args) => Some(IndexKey::Struct(*s, args.len())),
        }
    }

    /// The index key of a runtime float value (the goal-side counterpart of
    /// the `Term::Float` case of [`IndexKey::of_term`]).
    pub fn of_float(x: f64) -> IndexKey {
        IndexKey::FloatBits(float_key_bits(x))
    }

    /// The index key of a clause: the key of its head's first argument
    /// (`None` for variable first arguments and zero-arity heads, which match
    /// every call).
    pub fn of_clause_head(clause: &Clause) -> Option<IndexKey> {
        clause.head.args().first().and_then(IndexKey::of_term)
    }
}

/// A persistent first-argument index over one predicate's clauses, built
/// incrementally as clauses are added and kept in lock-step with the
/// predicate's `clause_ids`.
///
/// Each bucket holds the *merged* candidate list for one key: the clauses
/// whose head first argument has that principal functor **plus** the clauses
/// whose head first argument is a variable, in source order — exactly the
/// sequence a per-call linear scan with a key filter would visit. Lookups are
/// therefore a single hash probe returning a borrowed slice, with no per-call
/// allocation or key recomputation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClauseIndex {
    /// Clauses whose first argument is a variable (or whose head has no
    /// arguments): candidates for every call, in source order.
    any: Vec<ClauseId>,
    /// Key → merged candidate list (key-matching clauses and variable-headed
    /// clauses, in source order).
    buckets: FastMap<IndexKey, Vec<ClauseId>>,
}

impl ClauseIndex {
    fn insert(&mut self, id: ClauseId, key: Option<IndexKey>) {
        match key {
            None => {
                self.any.push(id);
                for bucket in self.buckets.values_mut() {
                    bucket.push(id);
                }
            }
            Some(k) => {
                self.buckets
                    .entry(k)
                    .or_insert_with(|| self.any.clone())
                    .push(id);
            }
        }
    }

    fn rebuild<'a>(&mut self, entries: impl Iterator<Item = (ClauseId, &'a Clause)>) {
        self.any.clear();
        self.buckets.clear();
        for (id, clause) in entries {
            self.insert(id, IndexKey::of_clause_head(clause));
        }
    }

    /// The candidate clauses for a call whose first argument has the given
    /// key (`None` when the first argument is unbound or absent is handled by
    /// [`Predicate::candidates`], which returns every clause).
    fn bucket(&self, key: &IndexKey) -> &[ClauseId] {
        self.buckets.get(key).map_or(&self.any, Vec::as_slice)
    }
}

/// A predicate: the ordered list of clauses defining it, plus its persistent
/// first-argument index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// The predicate's identifier.
    pub id: PredId,
    /// Indices (into [`Program::clauses`]) of the clauses defining it, in
    /// source order.
    pub clause_ids: Vec<ClauseId>,
    /// First-argument index over `clause_ids`, maintained by
    /// [`Program::add_clause`] / [`Program::set_clause`].
    index: ClauseIndex,
}

impl Predicate {
    /// The candidate clauses for a call whose (dereferenced) first argument
    /// has the given index key, in source order.
    ///
    /// `None` — an unbound or absent first argument — matches every clause.
    /// The returned slice is borrowed from the persistent index: no per-call
    /// allocation, scan, or key recomputation happens here.
    pub fn candidates(&self, key: Option<&IndexKey>) -> &[ClauseId] {
        match key {
            None => &self.clause_ids,
            Some(k) => self.index.bucket(k),
        }
    }
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

/// A logic program: clauses, predicate index and directives.
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

    /// Adds a clause, indexing it under its head predicate.
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
        let key = IndexKey::of_clause_head(&clause);
        self.clauses.push(clause);
        let predicate = self.predicates.entry(pred).or_insert_with(|| Predicate {
            id: pred,
            clause_ids: Vec::new(),
            index: ClauseIndex::default(),
        });
        predicate.clause_ids.push(id);
        predicate.index.insert(id, key);
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

    /// Mutates a clause in place through a closure (used by program
    /// transformations), then reindexes its predicate — so a head rewrite can
    /// never leave the persistent first-argument index stale.
    ///
    /// # Panics
    ///
    /// Panics if the closure changes the clause's predicate.
    pub fn update_clause(&mut self, id: ClauseId, f: impl FnOnce(&mut Clause)) {
        let before = self.clauses[id].head_pred();
        f(&mut self.clauses[id]);
        assert_eq!(
            before,
            self.clauses[id].head_pred(),
            "update_clause must not change the clause's predicate"
        );
        self.reindex_predicate(before.expect("indexed clauses have callable heads"));
    }

    /// Replaces a clause wholesale (used by program transformations), keeping
    /// the predicate's first-argument index up to date.
    pub fn set_clause(&mut self, id: ClauseId, clause: Clause) {
        let pred = self.clauses[id].head_pred();
        assert_eq!(
            pred,
            clause.head_pred(),
            "set_clause must not change the clause's predicate"
        );
        self.clauses[id] = clause;
        self.reindex_predicate(pred.expect("indexed clauses have callable heads"));
    }

    fn reindex_predicate(&mut self, pred: PredId) {
        let predicate = self
            .predicates
            .get_mut(&pred)
            .expect("clause belongs to an indexed predicate");
        let clauses = &self.clauses;
        predicate
            .index
            .rebuild(predicate.clause_ids.iter().map(|&i| (i, &clauses[i])));
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

    /// Merges another program's clauses and directives into this one.
    pub fn extend_from(&mut self, other: &Program) {
        for directive in &other.directives {
            self.add_directive(directive.clone());
        }
        for clause in &other.clauses {
            self.add_clause(clause.clone());
        }
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
    #[should_panic(expected = "must not change")]
    fn set_clause_rejects_predicate_change() {
        let mut p = parse_program("p(1).").unwrap();
        let other = parse_program("q(1).").unwrap().clauses()[0].clone();
        p.set_clause(0, other);
    }

    #[test]
    fn extend_from_merges() {
        let mut a = parse_program("p(1).").unwrap();
        let b = parse_program(":- mode q(+). q(X) :- p(X).").unwrap();
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert!(a.mode_of(PredId::parse("q", 1)).is_some());
    }

    #[test]
    fn first_arg_index_buckets_match_a_filtered_scan() {
        let p =
            parse_program("p(a, 1). p(b, 2). p(X, 3). p(a, 4). p(f(Y), 5). p(7, 6). p(f(g), 7).")
                .unwrap();
        let pred = p.predicate(PredId::parse("p", 2)).unwrap();
        // Reference: a linear scan keeping clauses whose first-arg key is
        // absent (variable) or equal to the probe key.
        let scan = |key: Option<IndexKey>| -> Vec<ClauseId> {
            pred.clause_ids
                .iter()
                .copied()
                .filter(
                    |&id| match (key, IndexKey::of_clause_head(&p.clauses()[id])) {
                        (Some(gk), Some(hk)) => gk == hk,
                        _ => true,
                    },
                )
                .collect()
        };
        for key in [
            None,
            IndexKey::of_term(&Term::atom("a")),
            IndexKey::of_term(&Term::atom("b")),
            IndexKey::of_term(&Term::atom("zzz")),
            IndexKey::of_term(&Term::int(7)),
            IndexKey::of_term(&Term::int(99)),
            IndexKey::of_term(&Term::compound("f", vec![Term::var(0)])),
            IndexKey::of_term(&Term::compound("f", vec![Term::var(0), Term::var(1)])),
        ] {
            assert_eq!(
                pred.candidates(key.as_ref()),
                scan(key).as_slice(),
                "key {key:?}"
            );
        }
    }

    #[test]
    fn unseen_key_falls_back_to_var_headed_clauses() {
        let p = parse_program("q(a). q(X). q(b).").unwrap();
        let pred = p.predicate(PredId::parse("q", 1)).unwrap();
        let key = IndexKey::of_term(&Term::atom("unseen"));
        assert_eq!(pred.candidates(key.as_ref()), &[1]);
        // An unbound first argument matches everything, in source order.
        assert_eq!(pred.candidates(None), &[0, 1, 2]);
    }

    #[test]
    fn set_clause_reindexes_the_predicate() {
        let mut p = parse_program("r(a, 1). r(b, 2).").unwrap();
        let rid = PredId::parse("r", 2);
        let b_key = IndexKey::of_term(&Term::atom("b"));
        assert_eq!(p.predicate(rid).unwrap().candidates(b_key.as_ref()), &[1]);
        // Replace clause 0 with a variable-headed one: it must now show up in
        // every bucket.
        let replacement = parse_program("r(X, 9).").unwrap().clauses()[0].clone();
        p.set_clause(0, replacement);
        assert_eq!(
            p.predicate(rid).unwrap().candidates(b_key.as_ref()),
            &[0, 1]
        );
    }

    #[test]
    fn update_clause_reindexes_head_rewrites() {
        let mut p = parse_program("r(a, 1). r(b, 2).").unwrap();
        let rid = PredId::parse("r", 2);
        // Rewrite clause 0's head first argument from `a` to `b` in place.
        p.update_clause(0, |c| {
            c.head = Term::compound("r", vec![Term::atom("b"), Term::int(1)]);
        });
        let b_key = IndexKey::of_term(&Term::atom("b"));
        let a_key = IndexKey::of_term(&Term::atom("a"));
        assert_eq!(
            p.predicate(rid).unwrap().candidates(b_key.as_ref()),
            &[0, 1]
        );
        assert!(p
            .predicate(rid)
            .unwrap()
            .candidates(a_key.as_ref())
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "must not change")]
    fn update_clause_rejects_predicate_change() {
        let mut p = parse_program("p(1).").unwrap();
        p.update_clause(0, |c| {
            c.head = Term::compound("q", vec![Term::int(1)]);
        });
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
    fn zero_arity_predicates_index_everything_under_no_key() {
        let p = parse_program("go. go.").unwrap();
        let pred = p.predicate(PredId::parse("go", 0)).unwrap();
        assert_eq!(pred.candidates(None), &[0, 1]);
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
