//! The Prolog term algebra.
//!
//! [`Term`] is the central data type of the system: clause heads, clause
//! bodies, goals and runtime data are all terms. Variables are represented by
//! clause-local indices ([`VarId`]); the mapping from indices back to source
//! names lives in [`crate::Clause::var_names`].

use crate::symbol::{well_known, Symbol};
use std::collections::BTreeSet;
use std::fmt;

/// A clause-local variable identifier.
///
/// Variables are numbered from zero within each clause (or each parsed
/// top-level term). Execution engines rename them to globally fresh
/// identifiers when a clause is activated.
pub type VarId = usize;

/// A Prolog term.
///
/// Lists use the standard encoding: `[]` is [`Term::nil`] (the atom `[]`) and
/// `[H|T]` is the compound `'.'(H, T)`; the helpers [`Term::list`],
/// [`Term::cons`] and [`Term::as_list`] hide that encoding.
///
/// # Example
///
/// ```
/// use granlog_ir::Term;
/// let t = Term::list(vec![Term::int(1), Term::int(2), Term::int(3)]);
/// assert_eq!(t.list_length(), Some(3));
/// assert_eq!(t.to_string(), "[1,2,3]");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A logic variable, identified by a clause-local index.
    Var(VarId),
    /// An atom (constant), e.g. `foo`, `[]`, `'hello world'`.
    Atom(Symbol),
    /// An integer constant.
    Int(i64),
    /// A floating-point constant. Stored as ordered bits so terms can be
    /// hashed and totally ordered.
    Float(OrderedF64),
    /// A compound term `f(t1, ..., tn)` with `n >= 1`.
    Struct(Symbol, Vec<Term>),
}

/// An `f64` wrapper with total ordering and hashing by bit pattern.
///
/// Prolog floats inside terms need `Eq`/`Ord`/`Hash`; this wrapper provides
/// them with the usual caveat that `NaN` compares by bit pattern.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrderedF64(pub f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or_else(|| self.0.to_bits().cmp(&other.0.to_bits()))
    }
}

impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl From<f64> for OrderedF64 {
    fn from(v: f64) -> Self {
        OrderedF64(v)
    }
}

impl Term {
    /// Creates an atom term.
    pub fn atom(name: &str) -> Term {
        Term::Atom(Symbol::intern(name))
    }

    /// Creates an integer term.
    pub fn int(v: i64) -> Term {
        Term::Int(v)
    }

    /// Creates a float term.
    pub fn float(v: f64) -> Term {
        Term::Float(OrderedF64(v))
    }

    /// Creates a variable term.
    pub fn var(id: VarId) -> Term {
        Term::Var(id)
    }

    /// Creates a compound term `name(args...)`. If `args` is empty this
    /// degenerates to an atom, mirroring Prolog's `=..`.
    pub fn compound(name: &str, args: Vec<Term>) -> Term {
        if args.is_empty() {
            Term::atom(name)
        } else {
            Term::Struct(Symbol::intern(name), args)
        }
    }

    /// Creates a compound term from an already-interned functor symbol.
    pub fn structure(name: Symbol, args: Vec<Term>) -> Term {
        if args.is_empty() {
            Term::Atom(name)
        } else {
            Term::Struct(name, args)
        }
    }

    /// The empty list `[]`.
    pub fn nil() -> Term {
        Term::Atom(well_known::nil())
    }

    /// The list cell `[head | tail]`.
    pub fn cons(head: Term, tail: Term) -> Term {
        Term::Struct(well_known::cons(), vec![head, tail])
    }

    /// Builds a proper list from the given elements.
    pub fn list<I: IntoIterator<Item = Term>>(items: I) -> Term {
        Self::list_with_tail(items, Term::nil())
    }

    /// Builds a (possibly improper) list `[e1, ..., en | tail]`.
    pub fn list_with_tail<I: IntoIterator<Item = Term>>(items: I, tail: Term) -> Term {
        let items: Vec<Term> = items.into_iter().collect();
        items
            .into_iter()
            .rev()
            .fold(tail, |acc, item| Term::cons(item, acc))
    }

    /// Returns `true` if this term is the atom `[]`.
    pub fn is_nil(&self) -> bool {
        matches!(self, Term::Atom(s) if *s == well_known::nil())
    }

    /// Returns `true` if this term is a `'.'/2` list cell.
    pub fn is_cons(&self) -> bool {
        matches!(self, Term::Struct(s, args) if *s == well_known::cons() && args.len() == 2)
    }

    /// Returns `true` if the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Returns `true` if the term is callable (an atom or a compound term),
    /// i.e. could appear as a goal.
    pub fn is_callable(&self) -> bool {
        matches!(self, Term::Atom(_) | Term::Struct(..))
    }

    /// Returns the functor symbol and arity if the term is callable.
    pub fn functor(&self) -> Option<(Symbol, usize)> {
        match self {
            Term::Atom(s) => Some((*s, 0)),
            Term::Struct(s, args) => Some((*s, args.len())),
            _ => None,
        }
    }

    /// Returns the argument list of a compound term, or an empty slice.
    pub fn args(&self) -> &[Term] {
        match self {
            Term::Struct(_, args) => args,
            _ => &[],
        }
    }

    /// If the term is a proper list, returns its elements.
    ///
    /// Returns `None` for partial lists (`[1|X]`) and non-lists.
    pub fn as_list(&self) -> Option<Vec<&Term>> {
        let mut out = Vec::new();
        let mut cur = self;
        loop {
            if cur.is_nil() {
                return Some(out);
            }
            match cur {
                Term::Struct(s, args) if *s == well_known::cons() && args.len() == 2 => {
                    out.push(&args[0]);
                    cur = &args[1];
                }
                _ => return None,
            }
        }
    }

    /// Length of a proper list, or `None` if the term is not a proper list.
    pub fn list_length(&self) -> Option<usize> {
        self.as_list().map(|v| v.len())
    }

    /// Returns `true` if the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Atom(_) | Term::Int(_) | Term::Float(_) => true,
            Term::Struct(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// Collects the set of variables occurring in the term.
    pub fn variables(&self) -> BTreeSet<VarId> {
        let mut set = BTreeSet::new();
        self.collect_variables(&mut set);
        set
    }

    /// Collects variables into an existing set (avoids repeated allocation).
    pub fn collect_variables(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Term::Var(v) => {
                out.insert(*v);
            }
            Term::Atom(_) | Term::Int(_) | Term::Float(_) => {}
            Term::Struct(_, args) => {
                for a in args {
                    a.collect_variables(out);
                }
            }
        }
    }

    /// Returns `true` if variable `v` occurs in the term.
    pub fn contains_var(&self, v: VarId) -> bool {
        match self {
            Term::Var(w) => *w == v,
            Term::Atom(_) | Term::Int(_) | Term::Float(_) => false,
            Term::Struct(_, args) => args.iter().any(|a| a.contains_var(v)),
        }
    }

    /// Number of constant and function symbols in the term (the paper's
    /// `term_size` measure). Variables count 1 (conservative upper-bound
    /// convention is handled at the measure level, not here).
    pub fn term_size(&self) -> usize {
        match self {
            Term::Var(_) => 1,
            Term::Atom(_) | Term::Int(_) | Term::Float(_) => 1,
            Term::Struct(_, args) => 1 + args.iter().map(Term::term_size).sum::<usize>(),
        }
    }

    /// Depth of the term's tree representation (the paper's `term_depth`
    /// measure). Atomic terms and variables have depth 0.
    pub fn term_depth(&self) -> usize {
        match self {
            Term::Var(_) | Term::Atom(_) | Term::Int(_) | Term::Float(_) => 0,
            Term::Struct(_, args) => 1 + args.iter().map(Term::term_depth).max().unwrap_or(0),
        }
    }

    /// Applies a variable renaming / substitution function to every variable.
    pub fn map_vars(&self, f: &mut impl FnMut(VarId) -> Term) -> Term {
        match self {
            Term::Var(v) => f(*v),
            Term::Atom(_) | Term::Int(_) | Term::Float(_) => self.clone(),
            Term::Struct(s, args) => Term::Struct(*s, args.iter().map(|a| a.map_vars(f)).collect()),
        }
    }

    /// Shifts every variable index by `offset` (used for clause renaming).
    pub fn offset_vars(&self, offset: usize) -> Term {
        self.map_vars(&mut |v| Term::Var(v + offset))
    }
}

/// Dropping a term takes no native stack per level: a 300 000-element
/// answer list is freed by a loop. Argument vectors nested two deep are
/// taken out onto a work list, so the drop glue only ever frees terms whose
/// arguments' arguments are atomic; a term that shallow needs no work list.
impl Drop for Term {
    fn drop(&mut self) {
        fn nested(term: &Term) -> bool {
            matches!(term, Term::Struct(_, args) if args.iter().any(|a| matches!(a, Term::Struct(..))))
        }
        let Term::Struct(_, args) = self else {
            return;
        };
        if !args.iter().any(nested) {
            return;
        }
        let mut args = std::mem::take(args);
        let mut pending = Vec::new();
        loop {
            // Last argument pushed first: a list's head is freed before its
            // tail is opened, so the work list stays short.
            for arg in args.iter_mut().rev() {
                if let Term::Struct(_, inner) = arg {
                    if inner.iter().any(nested) {
                        pending.push(std::mem::take(inner));
                    }
                }
            }
            match pending.pop() {
                Some(next) => args = next,
                None => return,
            }
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Debug shares the human-readable rendering; structure is evident.
        write!(f, "{self}")
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_term(self, None, f)
    }
}

impl From<i64> for Term {
    fn from(v: i64) -> Self {
        Term::Int(v)
    }
}

impl From<f64> for Term {
    fn from(v: f64) -> Self {
        Term::float(v)
    }
}

impl From<Symbol> for Term {
    fn from(s: Symbol) -> Self {
        Term::Atom(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_round_trip() {
        let t = Term::list(vec![Term::int(1), Term::int(2), Term::int(3)]);
        let elems = t.as_list().unwrap();
        assert_eq!(elems.len(), 3);
        assert_eq!(*elems[0], Term::int(1));
        assert_eq!(*elems[2], Term::int(3));
        assert_eq!(t.list_length(), Some(3));
    }

    #[test]
    fn partial_list_is_not_proper() {
        let t = Term::list_with_tail(vec![Term::int(1)], Term::var(0));
        assert!(t.as_list().is_none());
        assert_eq!(t.list_length(), None);
    }

    #[test]
    fn nil_properties() {
        assert!(Term::nil().is_nil());
        assert!(!Term::nil().is_cons());
        assert!(Term::cons(Term::int(1), Term::nil()).is_cons());
        assert_eq!(Term::nil().list_length(), Some(0));
    }

    #[test]
    fn compound_with_no_args_is_atom() {
        assert_eq!(Term::compound("foo", vec![]), Term::atom("foo"));
    }

    #[test]
    fn functor_and_args() {
        let t = Term::compound("f", vec![Term::int(1), Term::atom("a")]);
        let (name, arity) = t.functor().unwrap();
        assert_eq!(name.as_str(), "f");
        assert_eq!(arity, 2);
        assert_eq!(t.args().len(), 2);
        assert_eq!(Term::atom("x").functor().unwrap().1, 0);
        assert!(Term::var(0).functor().is_none());
    }

    #[test]
    fn groundness() {
        assert!(Term::atom("a").is_ground());
        assert!(Term::int(3).is_ground());
        assert!(!Term::var(0).is_ground());
        let t = Term::compound("f", vec![Term::int(1), Term::var(2)]);
        assert!(!t.is_ground());
        let g = Term::compound("f", vec![Term::int(1), Term::atom("b")]);
        assert!(g.is_ground());
    }

    #[test]
    fn variable_collection() {
        let t = Term::compound(
            "f",
            vec![
                Term::var(3),
                Term::compound("g", vec![Term::var(1), Term::var(3)]),
            ],
        );
        let vars = t.variables();
        assert_eq!(vars.into_iter().collect::<Vec<_>>(), vec![1, 3]);
        assert!(t.contains_var(1));
        assert!(!t.contains_var(0));
    }

    #[test]
    fn term_size_counts_symbols() {
        // f(a, g(b, c)) has symbols f, a, g, b, c => 5
        let t = Term::compound(
            "f",
            vec![
                Term::atom("a"),
                Term::compound("g", vec![Term::atom("b"), Term::atom("c")]),
            ],
        );
        assert_eq!(t.term_size(), 5);
        assert_eq!(Term::atom("a").term_size(), 1);
    }

    #[test]
    fn term_depth_counts_nesting() {
        let t = Term::compound("f", vec![Term::compound("g", vec![Term::atom("a")])]);
        assert_eq!(t.term_depth(), 2);
        assert_eq!(Term::atom("a").term_depth(), 0);
        assert_eq!(Term::var(0).term_depth(), 0);
    }

    #[test]
    fn list_length_matches_as_list() {
        let t = Term::list((0..10).map(Term::int));
        assert_eq!(t.list_length(), Some(10));
        assert_eq!(t.term_size(), 21); // 10 cons cells + 10 ints + nil
    }

    #[test]
    fn offset_vars_shifts_all() {
        let t = Term::compound("f", vec![Term::var(0), Term::var(2)]);
        let shifted = t.offset_vars(10);
        assert_eq!(
            shifted.variables().into_iter().collect::<Vec<_>>(),
            vec![10, 12]
        );
    }

    #[test]
    fn map_vars_substitutes() {
        let t = Term::compound("f", vec![Term::var(0), Term::var(1)]);
        let out = t.map_vars(&mut |v| if v == 0 { Term::int(7) } else { Term::Var(v) });
        assert_eq!(out, Term::compound("f", vec![Term::int(7), Term::var(1)]));
    }

    #[test]
    fn ordered_f64_total_order() {
        let a = OrderedF64(1.0);
        let b = OrderedF64(2.0);
        assert!(a < b);
        let n1 = OrderedF64(f64::NAN);
        let n2 = OrderedF64(f64::NAN);
        assert_eq!(n1.cmp(&n2), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display_terms() {
        assert_eq!(Term::atom("foo").to_string(), "foo");
        assert_eq!(Term::int(-3).to_string(), "-3");
        let t = Term::compound("f", vec![Term::int(1), Term::atom("a")]);
        assert_eq!(t.to_string(), "f(1,a)");
        let l = Term::list(vec![Term::int(1), Term::int(2)]);
        assert_eq!(l.to_string(), "[1,2]");
        let pl = Term::list_with_tail(vec![Term::int(1)], Term::var(0));
        assert_eq!(pl.to_string(), "[1|_0]");
    }

    #[test]
    fn conversions() {
        let t: Term = 42i64.into();
        assert_eq!(t, Term::int(42));
        let t: Term = 1.5f64.into();
        assert_eq!(t, Term::float(1.5));
        let t: Term = Symbol::intern("abc").into();
        assert_eq!(t, Term::atom("abc"));
    }
}
