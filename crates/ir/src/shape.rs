//! Which clauses of a predicate one call can reach (Section 4's mutually
//! exclusive clauses). The engine resolves every clause head that unifies
//! with a call, then runs the clause's eager prefix, the builtins its body
//! starts with; a comparison there that fails rejects the clause. So a
//! [`ClauseShape`] keeps the head's input arguments and its *guards*, the
//! prefix's comparisons over input variables and numbers, and two clauses'
//! shapes answer whether a call can reach both (Debray & Warren, TOPLAS
//! 1989: head unifiability and complementary tests). Inputs are ground, as
//! the size analysis takes them, so "no overlap" and "exclude" are proofs.

use crate::builtins::{lookup, Builtin, CmpOp};
use crate::clause::Clause;
use crate::modes::ModeDecl;
use crate::program::PredId;
use crate::symbol::well_known;
use crate::term::{AsTerm, Cell, TermRef};
use std::cmp::Ordering::{self, Equal, Greater, Less};

/// A clause as a call meets it: its head's input arguments and its guards.
#[derive(Debug, Clone)]
pub struct ClauseShape<'a> {
    inputs: Vec<TermRef<'a>>,
    guards: Vec<Guard>,
}

/// `(op, lhs, rhs, structural)`: the comparison `lhs op rhs`, each operand
/// a variable of the head's inputs or a number; numeric, or structural
/// (`==` as `Eq`, `\==` as `Ne`).
#[derive(Debug, Clone, Copy)]
struct Guard(CmpOp, Cell, Cell, bool);

impl<'a> ClauseShape<'a> {
    /// The shape of `clause` called in the modes of `decl`.
    pub fn new(clause: &'a Clause, decl: &ModeDecl) -> Self {
        let args = clause.head.args().zip(&decl.modes);
        let inputs: Vec<_> = args.filter(|(_, m)| m.is_input()).map(|(t, _)| t).collect();
        let operand = |t: TermRef<'_>| match t.cells()[0] {
            Cell::Var(v) if !inputs.iter().any(|input| input.contains_var(v)) => None,
            cell @ (Cell::Var(_) | Cell::Int(_) | Cell::Float(_)) => Some(cell),
            _ => None,
        };
        let guard = |id, t: TermRef<'_>| {
            let (op, structural) = match id {
                Builtin::NumCompare(op) => (op, false),
                Builtin::StructEq => (CmpOp::Eq, true),
                Builtin::StructNe => (CmpOp::Ne, true),
                _ => return None,
            };
            let (lhs, rhs) = (operand(t.args().at(0))?, operand(t.args().at(1))?);
            Some(Guard(op, lhs, rhs, structural))
        };
        // The body's top-level conjuncts, as long as they are builtins.
        let (mut guards, mut rest) = (Vec::new(), Some(clause.body.term_ref()));
        while let Some(body) = rest {
            let conjunction = body.functor() == Some((well_known::comma(), 2));
            let goal = if conjunction { body.args().at(0) } else { body };
            let Some(row) = PredId::of_term(goal).and_then(lookup) else {
                break;
            };
            guards.extend(guard(row.id, goal));
            rest = conjunction.then(|| body.args().at(1));
        }
        ClauseShape { inputs, guards }
    }

    /// Whether some call can resolve both heads: their input arguments
    /// unify, each repeated variable taken as a distinct one.
    pub fn heads_overlap(&self, other: &ClauseShape<'_>) -> bool {
        self.meet(other, |_, _| ())
    }

    /// Whether the heads overlap but no call passes both heads and both
    /// guards: (a) a guard of each holds at no common outcome of comparing
    /// the same two values (`=<` and `>`, `<` and `>=`, `=:=` and `=\=`,
    /// `==` and `\==`, in either operand order; a numeric comparison that
    /// holds shows its operands are numbers), or (b) a guard of one is
    /// false where its variables take the integers the other's head holds
    /// at their places (`M > 1` against `fib(0, 0)`).
    pub fn guards_exclude(&self, other: &ClauseShape<'_>) -> bool {
        let mut meets = Vec::new();
        if !self.meet(other, |a, b| meets.push((a, b))) {
            return false;
        }
        // Operand `a` here and `b` there hold one value on a call that
        // resolves both heads.
        let same =
            |a, b| matches!(a, Cell::Int(_) | Cell::Float(_)) && a == b || meets.contains(&(a, b));
        let disjoint = |Guard(op, a, b, s): &Guard, Guard(op2, c, d, t): &Guard| {
            let outcomes = [Some(Less), Some(Equal), Some(Greater), None];
            let never = |turn: fn(Ordering) -> Ordering| {
                outcomes
                    .iter()
                    .all(|&o| !(op.holds(o) && op2.holds(o.map(turn))))
            };
            s == t
                && (same(*a, *c) && same(*b, *d) && never(|o| o)
                    || same(*a, *d) && same(*b, *c) && never(Ordering::reverse))
        };
        let int = |c, (a, b): (Cell, Cell)| match b {
            Cell::Int(i) if a == c => Some(i),
            _ => None,
        };
        let there = |c| meets.iter().find_map(|&(a, b)| int(c, (a, b)));
        let here = |c| meets.iter().find_map(|&(a, b)| int(c, (b, a)));
        let mut guards = self.guards.iter();
        guards.any(|g| other.guards.iter().any(|h| disjoint(g, h)) || g.fails_at(there))
            || other.guards.iter().any(|g| g.fails_at(here))
    }

    /// Walks both heads' input arguments in step, as unification would,
    /// telling `on_var` each pair of cells where either is a variable.
    fn meet(&self, other: &ClauseShape<'_>, mut on_var: impl FnMut(Cell, Cell)) -> bool {
        self.inputs.iter().zip(&other.inputs).all(|(a, b)| {
            let (a, b, mut i, mut j) = (a.cells(), b.cells(), 0, 0);
            while i < a.len() {
                (i, j) = match (a[i], b[j]) {
                    (Cell::Var(_), _) | (_, Cell::Var(_)) => {
                        on_var(a[i], b[j]);
                        (i + a[i].extent(), j + b[j].extent())
                    }
                    (Cell::Struct(f, n, _), Cell::Struct(g, m, _)) if (f, n) == (g, m) => {
                        (i + 1, j + 1)
                    }
                    (x, y) if x == y => (i + 1, j + 1),
                    _ => return false,
                };
            }
            true
        })
    }
}

impl Guard {
    /// Whether the guard fails where its variables take the integers
    /// `value` gives them.
    fn fails_at(&self, value: impl Fn(Cell) -> Option<i64>) -> bool {
        let int = |c| match c {
            Cell::Int(i) => Some(i),
            var => value(var),
        };
        match (int(self.1), int(self.2)) {
            (Some(x), Some(y)) => !self.0.holds(Some(x.cmp(&y))),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{infer_modes, mode_or_default};
    use crate::parser::parse_program;
    use crate::PredId;

    /// How two clauses of one predicate stand to each other.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Pair {
        /// No call resolves both heads.
        Apart,
        /// Both heads resolve on some call, and their guards exclude each
        /// other.
        Exclusive,
        /// Some call may pass both heads and both guards.
        Overlap,
    }

    use Pair::{Apart, Exclusive, Overlap};

    /// A predicate of a program and how every pair of its clauses stands,
    /// in the order (1, 2), (1, 3), …, (2, 3), …, counting from 1.
    const TABLE: &[(&str, &str, &[Pair])] = &[
        (
            ":- mode merge(+, +, -).
             merge([], L, L).
             merge([X|Xs], [], [X|Xs]).
             merge([X|Xs], [Y|Ys], [X|R]) :- X =< Y, merge(Xs, [Y|Ys], R).
             merge([X|Xs], [Y|Ys], [Y|R]) :- X > Y, merge([X|Xs], Ys, R).",
            "merge/3",
            &[Apart, Apart, Apart, Apart, Apart, Exclusive],
        ),
        (
            ":- mode partition(+, +, -, -).
             partition([], _, [], []).
             partition([X|Xs], P, [X|S], B) :- X =< P, partition(Xs, P, S, B).
             partition([X|Xs], P, S, [X|B]) :- X > P, partition(Xs, P, S, B).",
            "partition/4",
            &[Apart, Apart, Exclusive],
        ),
        (
            ":- mode spin(+).
             spin(N) :- N =< 0.
             spin(N) :- N > 0, N1 is N - 1, spin(N1).",
            "spin/1",
            &[Exclusive],
        ),
        // Rule (b): `M > 1` is false at the facts' 0 and 1.
        (
            ":- mode fib(+, -).
             fib(0, 0).
             fib(1, 1).
             fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                          fib(M1, N1), fib(M2, N2), N is N1 + N2.",
            "fib/2",
            &[Apart, Exclusive, Exclusive],
        ),
        (
            ":- mode hanoi(+, +, +, +, -).
             hanoi(0, _, _, _, []).
             hanoi(N, A, B, C, M) :- N > 0, N1 is N - 1, hanoi(N1, A, C, B, M).",
            "hanoi/5",
            &[Exclusive],
        ),
        // `[X]` and `[X, Y|Zs]` share a first-argument key, but no list
        // unifies with both.
        (
            ":- mode msort(+, -).
             msort([], []).
             msort([X], [X]).
             msort([X, Y|Zs], [X, Y|Zs]).",
            "msort/2",
            &[Apart, Apart, Apart],
        ),
        (
            ":- mode last(+, -).
             last([X], X).
             last([_|T], X) :- last(T, X).",
            "last/2",
            &[Overlap],
        ),
        // Rule (b) finds `0 >= 0` true: both clauses run at 0.
        (
            ":- mode ge(+).
             ge(0).
             ge(N) :- N >= 0.",
            "ge/1",
            &[Overlap],
        ),
        // Both guards hold at 7.
        (
            ":- mode p(+).
             p(X) :- X > 0, q(X).
             p(X) :- X > 5, q(X).
             q(_).",
            "p/1",
            &[Overlap],
        ),
        // A complementary pair with its operands swapped, and on `==`.
        (
            ":- mode lt(+, +).
             lt(X, Y) :- X < Y.
             lt(X, Y) :- Y =< X.",
            "lt/2",
            &[Exclusive],
        ),
        (
            ":- mode same(+, +).
             same(f(X), Y) :- X == Y.
             same(f(X), Y) :- Y \\== X.
             same(g, _).",
            "same/2",
            &[Exclusive, Apart, Apart],
        ),
        // A comparison after a call, or over a computed value, is no guard;
        // a repeated variable matches anything at each occurrence; an
        // output argument does not decide.
        (
            ":- mode g(+, +, -).
             g(X, X, a) :- X + 1 > 3.
             g(X, 2, b) :- X + 1 =< 3.
             g(X, Y, c) :- q(X), X > Y.
             g(X, Y, d) :- q(X), X =< Y.
             q(_).",
            "g/3",
            &[Overlap, Overlap, Overlap, Overlap, Overlap, Overlap],
        ),
        // The exclusivity tests the analysis kept before this module.
        (
            ":- mode append(+, +, -).
             append([], L, L).
             append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).",
            "append/3",
            &[Apart],
        ),
        (
            ":- mode color(+, -).
             color(X, red) :- warm(X).
             color(X, blue) :- cold(X).
             warm(_). cold(_).",
            "color/2",
            &[Overlap],
        ),
        (
            ":- mode nth(+, -).
             nth([H|_], H).
             nth([_|T], X) :- nth(T, X).",
            "nth/2",
            &[Overlap],
        ),
        (":- mode one(+). one(X) :- two(X). two(_).", "one/1", &[]),
    ];

    #[test]
    fn the_table_of_clause_pairs() {
        for &(source, pred, pairs) in TABLE {
            let program = parse_program(source).unwrap();
            let (name, arity) = pred.split_once('/').unwrap();
            let pred = PredId::parse(name, arity.parse().unwrap());
            let modes = infer_modes(&program);
            let decl = mode_or_default(&modes, pred);
            let clauses = program.clauses_of(pred);
            let shapes: Vec<ClauseShape<'_>> =
                clauses.iter().map(|c| ClauseShape::new(c, &decl)).collect();
            let mut found = Vec::new();
            for i in 0..shapes.len() {
                for j in i + 1..shapes.len() {
                    let (a, b) = (&shapes[i], &shapes[j]);
                    assert_eq!(a.heads_overlap(b), b.heads_overlap(a), "{pred} {i} {j}");
                    assert_eq!(a.guards_exclude(b), b.guards_exclude(a), "{pred} {i} {j}");
                    found.push(match (a.heads_overlap(b), a.guards_exclude(b)) {
                        (false, _) => Apart,
                        (true, true) => Exclusive,
                        (true, false) => Overlap,
                    });
                }
            }
            assert_eq!(found, pairs, "{pred}");
        }
    }
}
