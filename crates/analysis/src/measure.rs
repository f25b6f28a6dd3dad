//! Size measures: the paper's `|·|_m` functions, and the derived `size` and
//! `diff` functions of Section 3.
//!
//! A measure maps ground terms to natural numbers (or ⊥ when it does not
//! apply). For terms containing variables, [`Measure::size`] is defined only
//! when every grounding gives the same value, and [`Measure::diff`] is defined
//! only when the size difference between the two terms is the same under
//! every grounding — exactly the `size`/`diff` functions of the paper.
//!
//! The convention used here is `diff(t1, t2) = |θ(t2)| − |θ(t1)|`, so that the
//! inter-literal relation `size_i = size_j + diff(T_j, T_i)` holds (e.g.
//! `diff([H|L], L) = −1` gives `body[1] = head[1] − 1` for `nrev`).

use granlog_ir::term::Cell;
pub use granlog_ir::Measure;
use granlog_ir::{AsTerm, TermRef, View};
use std::collections::BTreeMap;

/// The paper's size functions over a [`Measure`] (the enum and its names are
/// part of the grain-size contract in [`granlog_ir::grain`]; what a measure
/// says about *source* terms is the analysis' business).
pub trait SizeFunctions: Copy {
    /// The paper's `size_m(t)`: the size `|t|_m` of `t` under this measure,
    /// defined iff every grounding of `t` has that one size, else `None` (⊥).
    /// Each measure applies only to such terms: a proper list whatever its
    /// elements, an integer, a ground term.
    fn size(self, t: TermRef<'_>) -> Option<i64>;

    /// The paper's `diff_m(t1, t2) = |θ(t2)| − |θ(t1)|`, when that difference
    /// is the same for every grounding `θ`.
    fn diff(self, t1: TermRef<'_>, t2: TermRef<'_>) -> Option<i64>;

    /// Picks a default measure for a term appearing in an argument position:
    /// lists get `length`, integers `int`, other compound/atomic terms `size`.
    fn default_for_term(t: TermRef<'_>) -> Self;
}

impl SizeFunctions for Measure {
    fn size(self, t: TermRef<'_>) -> Option<i64> {
        match self {
            Measure::ListLength => t.list_length().map(|n| n as i64),
            Measure::TermSize => t.is_ground().then(|| t.term_size() as i64),
            Measure::TermDepth => t.is_ground().then(|| t.term_depth() as i64),
            Measure::IntValue => match t.view() {
                View::Int(v) => Some(v.max(0)),
                _ => None,
            },
            Measure::Ignore => Some(0),
        }
    }

    fn diff(self, t1: TermRef<'_>, t2: TermRef<'_>) -> Option<i64> {
        if t1 == t2 {
            return Some(0);
        }
        match self {
            Measure::Ignore => Some(0),
            Measure::IntValue => match (self.size(t1), self.size(t2)) {
                (Some(a), Some(b)) => Some(b - a),
                _ => None,
            },
            Measure::ListLength => diff_list_length(t1, t2),
            Measure::TermSize | Measure::TermDepth => {
                if t1.is_ground() && t2.is_ground() {
                    return Some(self.size(t2)? - self.size(t1)?);
                }
                // t1 inside t2: |t2| = |t1| + offset; t2 inside t1: the negation.
                if let Some(offset) = offset_within(self, t2, t1) {
                    return offset;
                }
                offset_within(self, t1, t2)?.map(|d| -d)
            }
        }
    }

    fn default_for_term(t: TermRef<'_>) -> Measure {
        if t.is_nil() || t.is_cons() {
            Measure::ListLength
        } else {
            match t.view() {
                View::Int(_) => Measure::IntValue,
                _ => Measure::TermSize,
            }
        }
    }
}

/// `diff` for list length: strip list prefixes; defined when the remaining
/// tails are syntactically equal (so the unknown part cancels) or when both
/// are proper lists.
fn diff_list_length(t1: TermRef<'_>, t2: TermRef<'_>) -> Option<i64> {
    let ((n1, rest1), (n2, rest2)) = (t1.spine(), t2.spine());
    // (Two nil tails compare equal, so proper lists need no separate case.)
    (rest1 == rest2).then(|| n2 as i64 - n1 as i64)
}

/// Structural `diff` when `inner` occurs in `outer` and the rest of `outer`
/// is ground: `None` if it does not, else the size `outer` adds to `inner`
/// under `measure` — every cell outside the occurrence for `term_size`; for
/// `term_depth` the compounds around it, provided they are the only
/// compounds outside it (the hole's path is then the deepest), else ⊥.
///
/// The rest is ground exactly when `outer` has no more variable cells than
/// `inner`; the occurrence is then the first in preorder (an `inner` with
/// variables has only the one).
fn offset_within(measure: Measure, outer: TermRef<'_>, inner: TermRef<'_>) -> Option<Option<i64>> {
    let (cells, hole) = (outer.cells(), inner.cells());
    let vars = |cells: &[Cell]| cells.iter().filter(|c| matches!(c, Cell::Var(_))).count();
    let compounds = |cells: &[Cell]| cells.iter().filter(|c| c.extent() > 1).count();
    if vars(cells) != vars(hole) {
        return None;
    }
    let at = cells.windows(hole.len()).position(|w| w == hole)?;
    if measure == Measure::TermSize {
        return Some(Some((cells.len() - hole.len()) as i64));
    }
    let around = cells[..at]
        .iter()
        .enumerate()
        .filter(|&(from, c)| from + c.extent() > at)
        .count();
    Some((compounds(cells) - compounds(hole) == around).then_some(around as i64))
}

/// The per-argument measure assignment of a predicate.
pub type MeasureVec = Vec<Measure>;

/// Chooses measures for every argument position of every predicate.
///
/// Declared `:- measure` directives win; otherwise the measure is guessed from
/// the terms appearing in that argument position across the predicate's clause
/// heads, and — for positions whose head arguments are always variables — from
/// the terms appearing at that position in call sites (e.g. `append`'s second
/// argument is always a variable in its own clauses, but `nrev` calls it with
/// the list `[H]`). Lists give `length`, integers `int`; positions with no
/// evidence default to `size`.
pub fn assign_measures(program: &granlog_ir::Program) -> BTreeMap<granlog_ir::PredId, MeasureVec> {
    use granlog_ir::PredId;
    let mut declared: BTreeMap<PredId, MeasureVec> = BTreeMap::new();
    let mut guesses: BTreeMap<PredId, Vec<Option<Measure>>> = BTreeMap::new();

    fn merge(slot: &mut Option<Measure>, guess: Measure) {
        match *slot {
            None => *slot = Some(guess),
            Some(prev) if prev == guess => {}
            // Conflicting evidence (e.g. both `0` and `[H|T]` heads): prefer
            // the list measure, else the integer measure, else term size.
            Some(prev) => {
                *slot = Some(
                    if prev == Measure::ListLength || guess == Measure::ListLength {
                        Measure::ListLength
                    } else if prev == Measure::IntValue || guess == Measure::IntValue {
                        Measure::IntValue
                    } else {
                        Measure::TermSize
                    },
                );
            }
        }
    }

    for predicate in program.predicates() {
        let pred = predicate.id;
        if let Some(names) = program.measure_of(pred) {
            let ms: MeasureVec = names
                .iter()
                .map(|s| Measure::from_name(s.as_str()).unwrap_or(Measure::TermSize))
                .collect();
            declared.insert(pred, ms);
            continue;
        }
        let slots = guesses
            .entry(pred)
            .or_insert_with(|| vec![None; pred.arity]);
        for clause in program.clauses_of(pred) {
            for (i, arg) in clause.head.args().enumerate() {
                if arg.is_var() {
                    continue;
                }
                merge(&mut slots[i], Measure::default_for_term(arg));
            }
        }
    }

    // Second pass: call-site evidence for undeclared predicates.
    for clause in program.clauses() {
        for goal in clause.called_goals() {
            let Some(pred) = granlog_ir::PredId::of_term(goal) else {
                continue;
            };
            let Some(slots) = guesses.get_mut(&pred) else {
                continue;
            };
            for (i, arg) in goal.args().enumerate() {
                if arg.is_var() {
                    continue;
                }
                if i < slots.len() {
                    merge(&mut slots[i], Measure::default_for_term(arg));
                }
            }
        }
    }

    let mut out = declared;
    for (pred, slots) in guesses {
        out.insert(
            pred,
            slots
                .into_iter()
                .map(|m| m.unwrap_or(Measure::TermSize))
                .collect(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::parser::{parse_program, parse_term};
    use granlog_ir::{PredId, Term};

    fn t(src: &str) -> Term {
        parse_term(src).unwrap().0
    }

    #[test]
    fn ground_sizes() {
        assert_eq!(Measure::ListLength.size(t("[a, b]").term_ref()), Some(2));
        assert_eq!(Measure::ListLength.size(t("f(a)").term_ref()), None);
        assert_eq!(
            Measure::TermSize.size(t("f(a, g(b, c))").term_ref()),
            Some(5)
        );
        assert_eq!(Measure::TermDepth.size(t("f(a, g(b))").term_ref()), Some(2));
        assert_eq!(Measure::IntValue.size(t("7").term_ref()), Some(7));
        assert_eq!(Measure::IntValue.size(t("-7").term_ref()), Some(0));
        assert_eq!(Measure::IntValue.size(t("a").term_ref()), None);
        assert_eq!(Measure::Ignore.size(t("whatever").term_ref()), Some(0));
    }

    #[test]
    fn size_of_nonground_terms() {
        // The paper: |[a,b]|_list_length = 2, |f(a)|_list_length = ⊥.
        assert_eq!(Measure::ListLength.size(t("[a, b]").term_ref()), Some(2));
        assert_eq!(Measure::ListLength.size(t("f(a)").term_ref()), None);
        // A list of variables still has a definite length.
        assert_eq!(Measure::ListLength.size(t("[X, Y, Z]").term_ref()), Some(3));
        // A partial list does not.
        assert_eq!(Measure::ListLength.size(t("[X | T]").term_ref()), None);
        // term_size of a non-ground term is ⊥ (it varies with the grounding).
        assert_eq!(Measure::TermSize.size(t("f(X)").term_ref()), None);
        assert_eq!(Measure::TermSize.size(t("f(a)").term_ref()), Some(2));
        // A bare variable has no intrinsic size.
        assert_eq!(Measure::ListLength.size(t("X").term_ref()), None);
        assert_eq!(Measure::IntValue.size(t("X").term_ref()), None);
    }

    #[test]
    fn list_length_diff_examples_from_paper() {
        // diff_list_length([c|L], [a,b|L]) = 1.
        // Parse both sides in one term so the variable L is shared.
        let pair = t("pair([c | L], [a, b | L])");
        let t1 = pair.args().at(0);
        let t2 = pair.args().at(1);
        assert_eq!(Measure::ListLength.diff(t1, t2), Some(1));
        // diff([H|L], L) = −1 (the nrev head-to-body relation).
        let pair = t("pair([H | L], L)");
        assert_eq!(
            Measure::ListLength.diff(pair.args().at(0), pair.args().at(1)),
            Some(-1)
        );
        // Ground lists.
        assert_eq!(
            Measure::ListLength.diff(t("[a]").term_ref(), t("[a, b, c]").term_ref()),
            Some(2)
        );
        // Different unknown tails: ⊥.
        let pair = t("pair([a | L1], [b | L2])");
        assert_eq!(
            Measure::ListLength.diff(pair.args().at(0), pair.args().at(1)),
            None
        );
    }

    #[test]
    fn term_size_diff() {
        // t1 inside t2 with ground context: f(a, X) vs X → diff(X, f(a,X)) = +2.
        let pair = t("pair(X, f(a, X))");
        assert_eq!(
            Measure::TermSize.diff(pair.args().at(0), pair.args().at(1)),
            Some(2)
        );
        // And the reverse direction is negative.
        assert_eq!(
            Measure::TermSize.diff(pair.args().at(1), pair.args().at(0)),
            Some(-2)
        );
        // Non-ground sibling context: ⊥.
        let pair = t("pair(X, f(Y, X))");
        assert_eq!(
            Measure::TermSize.diff(pair.args().at(0), pair.args().at(1)),
            None
        );
        // Ground terms.
        assert_eq!(
            Measure::TermSize.diff(t("f(a)").term_ref(), t("g(a, b, c)").term_ref()),
            Some(2)
        );
    }

    #[test]
    fn term_depth_diff() {
        // The paper: diff_term_depth(f(a, g(X)), X) is defined (magnitude 2);
        // with our orientation |X| − |f(a,g(X))| = −2.
        let pair = t("pair(f(a, g(X)), X)");
        assert_eq!(
            Measure::TermDepth.diff(pair.args().at(0), pair.args().at(1)),
            Some(-2)
        );
        // diff_term_depth(f(X, Y), X) = ⊥ (Y's depth unknown).
        let pair = t("pair(f(X, Y), X)");
        assert_eq!(
            Measure::TermDepth.diff(pair.args().at(0), pair.args().at(1)),
            None
        );
        // Sibling with nonzero depth makes the offset inexact: ⊥.
        let pair = t("pair(f(g(a), X), X)");
        assert_eq!(
            Measure::TermDepth.diff(pair.args().at(0), pair.args().at(1)),
            None
        );
    }

    #[test]
    fn int_value_diff() {
        assert_eq!(
            Measure::IntValue.diff(t("3").term_ref(), t("7").term_ref()),
            Some(4)
        );
        assert_eq!(
            Measure::IntValue.diff(t("7").term_ref(), t("3").term_ref()),
            Some(-4)
        );
        assert_eq!(
            Measure::IntValue.diff(t("X").term_ref(), t("3").term_ref()),
            None
        );
        let pair = t("pair(X, X)");
        assert_eq!(
            Measure::IntValue.diff(pair.args().at(0), pair.args().at(1)),
            Some(0)
        );
    }

    #[test]
    fn measure_names_round_trip() {
        for m in [
            Measure::ListLength,
            Measure::TermSize,
            Measure::TermDepth,
            Measure::IntValue,
            Measure::Ignore,
        ] {
            assert_eq!(Measure::from_name(m.name()), Some(m));
        }
        assert_eq!(Measure::from_name("list_length"), Some(Measure::ListLength));
        assert_eq!(Measure::from_name("nonsense"), None);
    }

    #[test]
    fn default_measures_from_head_terms() {
        let p = parse_program(
            "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R). fib(0, 0). fib(1, 1).",
        )
        .unwrap();
        let measures = assign_measures(&p);
        let app = &measures[&PredId::parse("app", 3)];
        assert_eq!(app[0], Measure::ListLength);
        assert_eq!(app[2], Measure::ListLength);
        let fib = &measures[&PredId::parse("fib", 2)];
        assert_eq!(fib[0], Measure::IntValue);
        assert_eq!(fib[1], Measure::IntValue);
    }

    #[test]
    fn declared_measures_override_guesses() {
        let p = parse_program(":- measure weird(depth, void). weird(f(X), [a]).").unwrap();
        let measures = assign_measures(&p);
        let w = &measures[&PredId::parse("weird", 2)];
        assert_eq!(w[0], Measure::TermDepth);
        assert_eq!(w[1], Measure::Ignore);
    }

    #[test]
    fn mixed_evidence_prefers_list_then_int() {
        // First argument is sometimes a list, sometimes an atom: prefer length.
        let p = parse_program("m([], a). m(x, b).").unwrap();
        let measures = assign_measures(&p);
        assert_eq!(measures[&PredId::parse("m", 2)][0], Measure::ListLength);
        // Integer vs atom: prefer int.
        let p = parse_program("k(0). k(stop).").unwrap();
        let measures = assign_measures(&p);
        assert_eq!(measures[&PredId::parse("k", 1)][0], Measure::IntValue);
    }

    #[test]
    fn variable_only_positions_default_to_term_size() {
        let p = parse_program("id(X, X).").unwrap();
        let measures = assign_measures(&p);
        assert_eq!(measures[&PredId::parse("id", 2)][0], Measure::TermSize);
    }

    #[test]
    fn diff_of_identical_terms_is_zero_for_all_measures() {
        for m in [
            Measure::ListLength,
            Measure::TermSize,
            Measure::TermDepth,
            Measure::IntValue,
            Measure::Ignore,
        ] {
            let pair = t("pair(f(X, [a|T]), f(X, [a|T]))");
            assert_eq!(
                m.diff(pair.args().at(0), pair.args().at(1)),
                Some(0),
                "measure {m}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use granlog_ir::Term;
    use proptest::prelude::*;

    fn arb_ground_list(max_len: usize) -> impl Strategy<Value = Term> {
        prop::collection::vec(0i64..50, 0..max_len)
            .prop_map(|xs| Term::list(xs.into_iter().map(Term::int)))
    }

    proptest! {
        /// For ground lists, size agrees with the actual length and diff with
        /// the length difference.
        #[test]
        fn list_length_size_and_diff_consistent(a in arb_ground_list(12), b in arb_ground_list(12)) {
            let la = Measure::ListLength.size(a.term_ref()).unwrap();
            let lb = Measure::ListLength.size(b.term_ref()).unwrap();
            prop_assert_eq!(la as usize, a.as_list().unwrap().len());
            prop_assert_eq!(Measure::ListLength.diff(a.term_ref(), b.term_ref()), Some(lb - la));
        }

        /// diff(t, t) = 0 and diff is antisymmetric when defined.
        #[test]
        fn diff_antisymmetric(a in arb_ground_list(8), b in arb_ground_list(8)) {
            for m in [Measure::ListLength, Measure::TermSize] {
                prop_assert_eq!(m.diff(a.term_ref(), a.term_ref()), Some(0));
                let ab = m.diff(a.term_ref(), b.term_ref());
                let ba = m.diff(b.term_ref(), a.term_ref());
                if let (Some(x), Some(y)) = (ab, ba) {
                    prop_assert_eq!(x, -y);
                }
            }
        }

        /// Consing onto a list increases list_length by one and term_size by two.
        #[test]
        fn cons_increases_sizes(a in arb_ground_list(8), x in 0i64..10) {
            let consed = Term::cons(Term::int(x), a.clone());
            prop_assert_eq!(Measure::ListLength.diff(a.term_ref(), consed.term_ref()), Some(1));
            prop_assert_eq!(Measure::TermSize.diff(a.term_ref(), consed.term_ref()), Some(2));
        }
    }
}
