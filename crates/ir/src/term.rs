//! The Prolog term algebra, stored flat.
//!
//! A [`Term`] is one vector of [`Cell`]s in preorder: a compound's cell
//! carries its functor, its arity and the number of cells beneath it, and
//! its arguments follow it, one after another. So every subterm is one
//! contiguous slice, read through the borrowed [`TermRef`]; equality,
//! hashing, cloning and dropping are the slice's own loops, and no reader
//! here recurses along a term's arguments, however deep or long the term.
//! [`AsTerm`] holds the readers, for an owned term and a subterm alike.
//!
//! Variables are clause-local indices ([`VarId`]); the mapping from indices
//! back to source names lives in [`crate::Clause::var_names`].

use crate::symbol::{well_known, Symbol};
use std::collections::BTreeSet;
use std::fmt;

/// A clause-local variable identifier.
///
/// Variables are numbered from zero within each clause (or each parsed
/// top-level term). Execution engines rename them to globally fresh
/// identifiers when a clause is activated.
pub type VarId = usize;

/// One cell of a term's preorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cell {
    /// A logic variable, identified by a clause-local index.
    Var(VarId),
    /// An atom (constant), e.g. `foo`, `[]`, `'hello world'`.
    Atom(Symbol),
    /// An integer constant.
    Int(i64),
    /// A floating-point constant, hashed and compared by [`OrderedF64`].
    Float(OrderedF64),
    /// A compound `f(t1, ..., tn)` with `n >= 1`: the functor, `n`, and the
    /// number of cells of `t1 ... tn`, which follow it in preorder.
    Struct(Symbol, u32, u32),
}

impl Cell {
    /// The number of cells of the subterm this cell is the root of.
    pub fn extent(self) -> usize {
        match self {
            Cell::Struct(_, _, below) => 1 + below as usize,
            _ => 1,
        }
    }
}

/// A Prolog term: its preorder [`Cell`]s. An atomic term keeps its one
/// cell inline, so an atom, a number or a fact's `true` body allocates
/// nothing.
///
/// Lists use the standard encoding: `[]` is [`Term::nil`] (the atom `[]`) and
/// `[H|T]` is the compound `'.'(H, T)`; the helpers [`Term::list`],
/// [`Term::cons`] and [`AsTerm::as_list`] hide that encoding.
///
/// # Example
///
/// ```
/// use granlog_ir::term::{AsTerm, Term};
/// let t = Term::list(vec![Term::int(1), Term::int(2), Term::int(3)]);
/// assert_eq!(t.list_length(), Some(3));
/// assert_eq!(t.to_string(), "[1,2,3]");
/// ```
#[derive(Clone)]
pub struct Term(Repr);

#[derive(Clone)]
enum Repr {
    Atomic(Cell),
    Compound(Vec<Cell>),
}

/// A borrowed term: a subterm of a [`Term`], or a whole one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TermRef<'a> {
    pub(crate) cells: &'a [Cell],
}

/// A term's root, to match on: its [`Cell`], a compound's arguments as
/// [`Args`].
#[derive(Clone, Copy, Debug)]
pub enum View<'a> {
    Var(VarId),
    Atom(Symbol),
    Int(i64),
    Float(f64),
    Struct(Symbol, Args<'a>),
}

/// A compound's arguments, in order, each a [`TermRef`].
#[derive(Clone, Copy, Debug)]
pub struct Args<'a> {
    cells: &'a [Cell],
    len: usize,
}

impl<'a> Args<'a> {
    /// Argument `i`, counting from 0. Panics past the last one, as indexing
    /// a slice does.
    pub fn at(mut self, i: usize) -> TermRef<'a> {
        self.nth(i).expect("an argument past the last")
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = TermRef<'a>;

    fn next(&mut self) -> Option<TermRef<'a>> {
        let first = *self.cells.first().filter(|_| self.len > 0)?;
        let (arg, rest) = self.cells.split_at(first.extent());
        (self.cells, self.len) = (rest, self.len - 1);
        Some(TermRef { cells: arg })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl ExactSizeIterator for Args<'_> {}

/// The readers of a term, for `&`[`Term`] and [`TermRef`] alike. Each is a
/// loop over the cells or along a list spine.
pub trait AsTerm<'a>: Copy {
    /// The term's cells: its root, then its descendants in preorder.
    fn cells(self) -> &'a [Cell];

    /// The term as a borrowed view.
    fn term_ref(self) -> TermRef<'a> {
        let cells = self.cells();
        TermRef { cells }
    }

    /// The term's root, to match on.
    fn view(self) -> View<'a> {
        let cells = self.cells();
        match cells[0] {
            Cell::Var(v) => View::Var(v),
            Cell::Atom(s) => View::Atom(s),
            Cell::Int(i) => View::Int(i),
            Cell::Float(x) => View::Float(x.0),
            Cell::Struct(name, arity, _) => View::Struct(
                name,
                Args {
                    cells: &cells[1..],
                    len: arity as usize,
                },
            ),
        }
    }

    /// The functor symbol and arity if the term is callable.
    fn functor(self) -> Option<(Symbol, usize)> {
        match self.cells()[0] {
            Cell::Atom(s) => Some((s, 0)),
            Cell::Struct(s, arity, _) => Some((s, arity as usize)),
            _ => None,
        }
    }

    /// The arguments of a compound term; none for any other term.
    fn args(self) -> Args<'a> {
        match self.view() {
            View::Struct(_, args) => args,
            _ => Args { cells: &[], len: 0 },
        }
    }

    /// Is this the atom `[]`?
    fn is_nil(self) -> bool {
        self.cells()[0] == Cell::Atom(well_known::nil())
    }

    /// Is this a `'.'/2` list cell?
    fn is_cons(self) -> bool {
        matches!(self.cells()[0], Cell::Struct(s, 2, _) if s == well_known::cons())
    }

    /// Is this a variable?
    fn is_var(self) -> bool {
        matches!(self.cells()[0], Cell::Var(_))
    }

    /// The elements of a proper list; `None` for partial lists (`[1|X]`)
    /// and non-lists.
    fn as_list(self) -> Option<Vec<TermRef<'a>>> {
        let mut out = Vec::new();
        let mut cur = self.term_ref();
        while cur.is_cons() {
            let args = cur.args();
            out.push(args.at(0));
            cur = args.at(1);
        }
        cur.is_nil().then_some(out)
    }

    /// Length of a proper list, or `None` if the term is not a proper list.
    fn list_length(self) -> Option<usize> {
        let (n, end) = self.spine();
        end.is_nil().then_some(n)
    }

    /// The number of list cells along the term's spine, and the term that
    /// ends it: `[]` for a proper list.
    fn spine(self) -> (usize, TermRef<'a>) {
        let (mut n, mut cur) = (0, self.term_ref());
        while cur.is_cons() {
            (n, cur) = (n + 1, cur.args().at(1));
        }
        (n, cur)
    }

    /// Does the term contain no variables?
    fn is_ground(self) -> bool {
        !self.cells().iter().any(|c| matches!(c, Cell::Var(_)))
    }

    /// The set of variables occurring in the term.
    fn variables(self) -> BTreeSet<VarId> {
        let mut set = BTreeSet::new();
        self.collect_variables(&mut set);
        set
    }

    /// Collects variables into an existing set (avoids repeated allocation).
    fn collect_variables(self, out: &mut BTreeSet<VarId>) {
        out.extend(self.cells().iter().filter_map(|c| match *c {
            Cell::Var(v) => Some(v),
            _ => None,
        }));
    }

    /// Does variable `v` occur in the term?
    fn contains_var(self, v: VarId) -> bool {
        self.cells().contains(&Cell::Var(v))
    }

    /// Number of constant and function symbols in the term (the paper's
    /// `term_size` measure): one per cell, variables included (the
    /// conservative upper-bound convention is handled at the measure level).
    fn term_size(self) -> usize {
        self.cells().len()
    }

    /// Depth of the term's tree (the paper's `term_depth` measure): the most
    /// compounds on a path from the root. Atomic terms have depth 0.
    fn term_depth(self) -> usize {
        // The ends of the compounds around the cell at hand, innermost last.
        let mut ends = Vec::new();
        let mut deepest = 0;
        for (at, cell) in self.cells().iter().enumerate() {
            while ends.last().is_some_and(|&end| end <= at) {
                ends.pop();
            }
            if let Cell::Struct(..) = cell {
                ends.push(at + cell.extent());
                deepest = deepest.max(ends.len());
            }
        }
        deepest
    }

    /// Renames every variable by `f`.
    fn map_vars(self, mut f: impl FnMut(VarId) -> VarId) -> Term {
        let cells = self.cells().iter().map(|&c| match c {
            Cell::Var(v) => Cell::Var(f(v)),
            other => other,
        });
        Term::from_cells(cells.collect())
    }

    /// Shifts every variable index by `offset` (used for clause renaming).
    fn offset_vars(self, offset: usize) -> Term {
        self.map_vars(|v| v + offset)
    }

    /// An owned copy of the term.
    fn to_term(self) -> Term {
        match *self.cells() {
            [cell] => Term(Repr::Atomic(cell)),
            ref cells => Term(Repr::Compound(cells.to_vec())),
        }
    }
}

impl<'a> AsTerm<'a> for &'a Term {
    fn cells(self) -> &'a [Cell] {
        match &self.0 {
            Repr::Atomic(cell) => std::slice::from_ref(cell),
            Repr::Compound(cells) => cells,
        }
    }
}

impl<'a> AsTerm<'a> for TermRef<'a> {
    fn cells(self) -> &'a [Cell] {
        self.cells
    }
}

/// Appends the list `[e1, ..., en | tail]` to `out`, given the cells of its
/// elements and of its tail: a `'.'/2` cell before each element, counting
/// every cell from there to the end of the list.
pub(crate) fn push_list<'c>(
    out: &mut Vec<Cell>,
    items: impl ExactSizeIterator<Item = &'c [Cell]> + Clone,
    tail: &[Cell],
) {
    let below: usize = items.clone().map(<[Cell]>::len).sum();
    let end = out.len() + items.len() + below + tail.len();
    let cons = well_known::cons();
    for item in items {
        out.push(Cell::Struct(cons, 2, (end - out.len() - 1) as u32));
        out.extend_from_slice(item);
    }
    out.extend_from_slice(tail);
}

/// An `f64` wrapper with total ordering and hashing by bit pattern.
///
/// Prolog floats inside terms need `Eq`/`Hash`; this wrapper provides them
/// with the usual caveat that `NaN` compares by bit pattern.
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

impl Term {
    /// The term whose preorder is `cells`: the root first, and every
    /// [`Cell::Struct`] counting exactly the cells of its arguments, which
    /// follow it.
    pub fn from_cells(cells: Vec<Cell>) -> Term {
        debug_assert!(
            !cells.is_empty() && cells[0].extent() == cells.len(),
            "preorder cells of one term"
        );
        match *cells {
            [cell] => Term(Repr::Atomic(cell)),
            _ => Term(Repr::Compound(cells)),
        }
    }

    /// Creates an atom term.
    pub fn atom(name: &str) -> Term {
        Term::from(Symbol::intern(name))
    }

    /// Creates an integer term.
    pub fn int(v: i64) -> Term {
        Term(Repr::Atomic(Cell::Int(v)))
    }

    /// Creates a float term.
    pub fn float(v: f64) -> Term {
        Term(Repr::Atomic(Cell::Float(OrderedF64(v))))
    }

    /// Creates a variable term.
    pub fn var(id: VarId) -> Term {
        Term(Repr::Atomic(Cell::Var(id)))
    }

    /// Creates a compound term `name(args...)`. If `args` is empty this
    /// degenerates to an atom, mirroring Prolog's `=..`.
    pub fn compound(name: &str, args: Vec<Term>) -> Term {
        Term::structure(Symbol::intern(name), args)
    }

    /// Creates a compound term from an already-interned functor symbol.
    pub fn structure(name: Symbol, args: Vec<Term>) -> Term {
        if args.is_empty() {
            return Term::from(name);
        }
        let below: usize = args.iter().map(|a| a.cells().len()).sum();
        let mut cells = Vec::with_capacity(1 + below);
        cells.push(Cell::Struct(name, args.len() as u32, below as u32));
        for arg in &args {
            cells.extend_from_slice(arg.cells());
        }
        Term(Repr::Compound(cells))
    }

    /// The empty list `[]`.
    pub fn nil() -> Term {
        Term::from(well_known::nil())
    }

    /// The list cell `[head | tail]`.
    pub fn cons(head: Term, tail: Term) -> Term {
        Term::structure(well_known::cons(), vec![head, tail])
    }

    /// Builds a proper list from the given elements.
    pub fn list<I: IntoIterator<Item = Term>>(items: I) -> Term {
        Self::list_with_tail(items, Term::nil())
    }

    /// Builds a (possibly improper) list `[e1, ..., en | tail]`.
    pub fn list_with_tail<I: IntoIterator<Item = Term>>(items: I, tail: Term) -> Term {
        let items: Vec<Term> = items.into_iter().collect();
        let mut cells = Vec::new();
        push_list(&mut cells, items.iter().map(|t| t.cells()), tail.cells());
        Term::from_cells(cells)
    }
}

/// Terms are equal, and hash, as their cells do; so a map keyed by terms
/// is searched with the cells of a subterm.
impl PartialEq for Term {
    fn eq(&self, other: &Term) -> bool {
        self.cells() == other.cells()
    }
}

impl Eq for Term {}

impl std::hash::Hash for Term {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.cells().hash(state);
    }
}

impl std::borrow::Borrow<[Cell]> for Term {
    fn borrow(&self) -> &[Cell] {
        self.cells()
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
        crate::pretty::fmt_term(self.term_ref(), None, f)
    }
}

impl fmt::Display for TermRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_term(*self, None, f)
    }
}

impl PartialEq<Term> for TermRef<'_> {
    fn eq(&self, other: &Term) -> bool {
        self.cells == other.cells()
    }
}

impl From<i64> for Term {
    fn from(v: i64) -> Self {
        Term::int(v)
    }
}

impl From<f64> for Term {
    fn from(v: f64) -> Self {
        Term::float(v)
    }
}

impl From<Symbol> for Term {
    fn from(s: Symbol) -> Self {
        Term(Repr::Atomic(Cell::Atom(s)))
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
        assert_eq!(elems[0], Term::int(1));
        assert_eq!(elems[2], Term::int(3));
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
        assert_eq!(t.args().at(1), Term::atom("a"));
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
        // A shallow argument after a deep one: the deep one's compounds
        // have closed by then.
        let t = Term::compound("f", vec![t, Term::compound("h", vec![Term::int(1)])]);
        assert_eq!(t.term_depth(), 3);
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
        let out = t.map_vars(|v| if v == 0 { 7 } else { v });
        assert_eq!(out, Term::compound("f", vec![Term::var(7), Term::var(1)]));
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

    #[test]
    fn every_subterm_is_a_slice_of_its_parent() {
        // f(g(X), [1, 2]) in preorder: each argument is the slice after the
        // one before it, and the list's tail is the slice after its head.
        let t = Term::compound(
            "f",
            vec![
                Term::compound("g", vec![Term::var(0)]),
                Term::list(vec![Term::int(1), Term::int(2)]),
            ],
        );
        assert!(matches!(t.cells()[0], Cell::Struct(_, 2, 7)));
        let (g, list) = (t.args().at(0), t.args().at(1));
        assert_eq!(g.cells(), &t.cells()[1..3]);
        assert_eq!(list.cells(), &t.cells()[3..]);
        assert_eq!(list.args().at(1).to_term(), Term::list(vec![Term::int(2)]));
        assert_eq!(t.clone(), t);
    }
}
