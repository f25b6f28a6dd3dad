//! The grain decision, made once (Sections 5 and 7): from a predicate's
//! closed-form cost and a task-management overhead `W`, or from one fixed
//! grain size for the Figure 2 sweep, to the [`Guard`] of
//! [`granlog_ir::grain`] that the annotator ([`crate::annotate`]) enforces.
//!
//! The paper associates with each solved cost function `f` a function `g`
//! such that `g(W) = K` is the least `K` with `f(K) > W`. Because our closed
//! forms are monotone in the input size (cost-monotonicity is assumed
//! throughout, Section 6), `K` is found by a doubling search followed by a
//! binary search over integer sizes. The runtime test measures one input
//! argument, the one whose parameter drives the cost, under the measure the
//! analysis assigned to it. [`guard`] is the only place either is decided.
//!
//! Predicates the analysis knows nothing about get no entry and spawn,
//! following the paper's prescription for unknown costs (err on the parallel
//! side of a parallel language).

use crate::expr::Expr;
use crate::measure::Measure;
use crate::pipeline::{PredAnalysis, ProgramAnalysis};
use granlog_ir::{Guard, GuardTable, PredId, Symbol};
use std::collections::BTreeMap;

/// Cap on the threshold search: sizes beyond it are treated as "never
/// exceeds the overhead".
pub const SEARCH_CAP: u64 = 1 << 24;

/// What a predicate's guard is decided against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Grain {
    /// A task-management overhead `W`, in resolutions: spawn from the least
    /// input size whose cost bound exceeds `W`.
    Overhead(f64),
    /// One grain size for every predicate, whatever its cost (the Figure 2
    /// sweep); `0` is no test at all.
    Fixed(u64),
}

/// The grain decision for one predicate: unbounded cost, or a cost above
/// `W` even at size 0, spawns ([`Guard::Always`]); a cost that never exceeds
/// `W` up to [`SEARCH_CAP`] never does ([`Guard::Never`]); otherwise the
/// measured input must reach the least size `K` whose cost exceeds `W`.
/// `None` only for a fixed grain size on a predicate without an input
/// argument: it gets no entry, and spawns.
pub fn guard(info: &PredAnalysis, grain: Grain) -> Option<Guard> {
    let measured = measured_input(info);
    let k = match grain {
        Grain::Overhead(overhead) => match least_size(&info.cost, overhead, SEARCH_CAP) {
            Some(k) => k,
            None => return Some(Guard::Never),
        },
        Grain::Fixed(_) if measured.is_none() => return None,
        Grain::Fixed(k) => k,
    };
    Some(match measured {
        Some((arg_pos, measure)) if k > 0 => Guard::SizeAtLeast {
            arg_pos,
            measure,
            k,
        },
        _ => Guard::Always,
    })
}

impl ProgramAnalysis {
    /// The guard of a predicate at task-management overhead `W`;
    /// [`Guard::Always`] for a predicate the analysis does not know.
    pub fn threshold_for(&self, pred: PredId, overhead: f64) -> Guard {
        let info = self.preds.get(&pred);
        info.and_then(|info| guard(info, Grain::Overhead(overhead)))
            .unwrap_or(Guard::Always)
    }

    /// Every analysed predicate's guard at task-management overhead `W`.
    pub fn guards_at(&self, overhead: f64) -> GuardTable {
        self.guards(Grain::Overhead(overhead))
    }

    /// Every predicate with an input argument guarded by the one grain size
    /// `k`.
    pub fn fixed_guards(&self, k: u64) -> GuardTable {
        self.guards(Grain::Fixed(k))
    }

    fn guards(&self, grain: Grain) -> GuardTable {
        let entry = |(&pred, info)| Some((pred, guard(info, grain)?));
        self.preds.iter().filter_map(entry).collect()
    }
}

/// The input argument a runtime grain test measures, with its measure: the
/// one whose parameter drives the cost, else the first input.
fn measured_input(info: &PredAnalysis) -> Option<(usize, Measure)> {
    let driving =
        driving_parameter(&info.cost).and_then(|p| info.params.iter().position(|&q| q == p));
    let arg_pos = *info.input_positions.get(driving.unwrap_or(0))?;
    let measure = info.measures.get(arg_pos).copied();
    Some((arg_pos, measure.unwrap_or(Measure::TermSize)))
}

/// The least size `K` whose cost exceeds `overhead`, searched up to `cap`:
/// `Some(0)` when even size 0 does (or the cost is unbounded), `None` when
/// no size up to `cap` does. Every variable of `cost` takes the same value
/// (the "diagonal", an upper bound for monotone costs).
fn least_size(cost: &Expr, overhead: f64, cap: u64) -> Option<u64> {
    if cost.is_infinite() || cost.is_undefined() {
        return Some(0);
    }
    // Every variable rides the diagonal: one environment, overwritten by
    // each probe.
    let mut env: BTreeMap<Symbol, f64> = cost.variables().into_iter().map(|v| (v, 0.0)).collect();
    let mut exceeds = |n: u64| -> bool {
        env.values_mut().for_each(|v| *v = n as f64);
        // An unevaluable cost (⊥ or unresolved call) is treated as
        // unbounded: always parallelise, as the paper prescribes.
        cost.eval(&env).is_none_or(|v| v > overhead)
    };

    if exceeds(0) {
        return Some(0);
    }
    // Doubling search for an upper bracket.
    let mut hi = 1u64;
    while hi <= cap && !exceeds(hi) {
        hi = hi.saturating_mul(2);
    }
    if hi > cap {
        return None;
    }
    // Binary search in (lo, hi]: lo does not exceed, hi does.
    let mut lo = hi / 2;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if exceeds(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// The variable of `cost` whose growth dominates (highest polynomial degree,
/// breaking ties by name). `None` when the cost mentions no variable (it is
/// a constant, ∞ or ⊥).
fn driving_parameter(cost: &Expr) -> Option<Symbol> {
    let degree = |v: Symbol| {
        crate::expr::as_polynomial(cost, v)
            .map(|p| p.degree())
            // Non-polynomial dependence (exponential, log) dominates.
            .unwrap_or(usize::MAX)
    };
    cost.variables()
        .into_iter()
        .map(|v| (degree(v), v))
        .max_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.as_str().cmp(a.1.as_str())))
        .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{analyze_program, AnalysisOptions};
    use granlog_ir::parser::parse_program;

    fn least_size_default(cost: &Expr, overhead: f64) -> Option<u64> {
        least_size(cost, overhead, SEARCH_CAP)
    }

    #[test]
    fn paper_example_threshold() {
        // Section 2: cost 3n², overhead 48 ⇒ parallel iff 3n² > 48 ⇔ n ≥ 5
        // (the paper rounds the test to `size(E) < 4 ⇒ sequential`, i.e.
        //  parallel from 4 upwards with a non-strict reading; our strict
        //  reading gives the least n with 3n² > 48, which is 5).
        let cost = Expr::mul(Expr::num(3.0), Expr::pow(Expr::var("n"), Expr::num(2.0)));
        assert_eq!(least_size_default(&cost, 48.0), Some(5));
    }

    #[test]
    fn nrev_cost_threshold() {
        // 0.5n² + 1.5n + 1 > 100 first at n = 13.
        let cost = Expr::sum(vec![
            Expr::mul(Expr::num(0.5), Expr::pow(Expr::var("n"), Expr::num(2.0))),
            Expr::mul(Expr::num(1.5), Expr::var("n")),
            Expr::num(1.0),
        ]);
        assert_eq!(least_size_default(&cost, 100.0), Some(13));
        // Sanity: value just below/above.
        assert!(cost.eval_with(&[("n", 12.0)]).unwrap() <= 100.0);
        assert!(cost.eval_with(&[("n", 13.0)]).unwrap() > 100.0);
    }

    #[test]
    fn constant_cost_below_overhead_is_never_parallel() {
        assert_eq!(least_size_default(&Expr::num(3.0), 48.0), None);
    }

    #[test]
    fn constant_cost_above_overhead_is_always_parallel() {
        assert_eq!(least_size_default(&Expr::num(100.0), 48.0), Some(0));
    }

    #[test]
    fn infinite_cost_is_always_parallel() {
        assert_eq!(least_size_default(&Expr::Infinity, 1e12), Some(0));
        assert_eq!(least_size_default(&Expr::Undefined, 1.0), Some(0));
    }

    #[test]
    fn exponential_cost_has_small_threshold() {
        // 2^n − 1 > 1000 first at n = 10.
        let cost = Expr::sub(Expr::pow(Expr::num(2.0), Expr::var("n")), Expr::num(1.0));
        assert_eq!(least_size_default(&cost, 1000.0), Some(10));
    }

    #[test]
    fn zero_overhead_still_requires_positive_work() {
        // With overhead 0, any input with positive cost parallelises.
        assert_eq!(least_size_default(&Expr::var("n"), 0.0), Some(1));
    }

    #[test]
    fn multi_parameter_cost_uses_diagonal() {
        // n1 + n2 with overhead 10: on the diagonal (n1 = n2 = n) the bound is
        // exceeded first at n = 6.
        let cost = Expr::add(Expr::var("n1"), Expr::var("n2"));
        assert_eq!(least_size_default(&cost, 10.0), Some(6));
    }

    #[test]
    fn threshold_monotone_in_overhead() {
        let cost = Expr::sum(vec![
            Expr::mul(Expr::num(0.5), Expr::pow(Expr::var("n"), Expr::num(2.0))),
            Expr::mul(Expr::num(1.5), Expr::var("n")),
            Expr::num(1.0),
        ]);
        let mut last = 0u64;
        for w in [1.0, 10.0, 100.0, 1000.0, 10_000.0] {
            let k = least_size_default(&cost, w).unwrap_or(u64::MAX);
            assert!(k >= last, "threshold should not decrease as overhead grows");
            last = k;
        }
    }

    #[test]
    fn driving_parameter_picks_dominant_variable() {
        // n² + m: n dominates.
        let cost = Expr::add(Expr::pow(Expr::var("n"), Expr::num(2.0)), Expr::var("m"));
        assert_eq!(driving_parameter(&cost), Some(Symbol::intern("n")));
        // 2^m + n: m dominates (non-polynomial).
        let cost = Expr::add(Expr::pow(Expr::num(2.0), Expr::var("m")), Expr::var("n"));
        assert_eq!(driving_parameter(&cost), Some(Symbol::intern("m")));
        // Constants have no driving parameter.
        assert_eq!(driving_parameter(&Expr::num(3.0)), None);
    }

    #[test]
    fn driving_parameter_breaks_ties_by_name_not_interning_order() {
        // Interned in reverse alphabetical order, so `Symbol`'s own order
        // (the interning index) and the names' order disagree.
        let zeta = Symbol::intern("tie_zeta");
        let alpha = Symbol::intern("tie_alpha");
        assert!(zeta < alpha, "both names are fresh here");
        let cost = Expr::sum([Expr::Var(zeta), Expr::Var(alpha), Expr::num(1.0)]);
        assert_eq!(driving_parameter(&cost), Some(alpha));
    }

    #[test]
    fn search_respects_cap() {
        // Cap of 10: a cost that only exceeds the overhead at 1000 is "never".
        assert_eq!(least_size(&Expr::var("n"), 1000.0, 10), None);
    }

    const QSORT: &str = r#"
        :- mode qsort(+, -).
        :- mode partition(+, +, -, -).
        :- mode app(+, +, -).
        qsort([], []).
        qsort([P|Xs], S) :-
            partition(Xs, P, Small, Big),
            qsort(Small, SS) & qsort(Big, BS),
            app(SS, [P|BS], S).
        partition([], _, [], []).
        partition([X|Xs], P, [X|S], B) :- X =< P, partition(Xs, P, S, B).
        partition([X|Xs], P, S, [X|B]) :- X > P, partition(Xs, P, S, B).
        app([], L, L).
        app([H|T], L, [H|R]) :- app(T, L, R).
    "#;

    fn guards(src: &str, overhead: f64) -> GuardTable {
        let program = parse_program(src).unwrap();
        analyze_program(&program, &AnalysisOptions::default()).guards_at(overhead)
    }

    #[test]
    fn qsort_guard_is_a_size_test_on_the_list_argument() {
        let g = guards(QSORT, 20.0);
        match g.get(PredId::parse("qsort", 2)).unwrap() {
            Guard::SizeAtLeast {
                arg_pos,
                measure,
                k,
            } => {
                assert_eq!(arg_pos, 0);
                assert_eq!(measure, Measure::ListLength);
                assert!(k >= 1);
            }
            other => panic!("expected a size guard, got {other:?}"),
        }
    }

    #[test]
    fn guard_thresholds_scale_with_overhead() {
        // A bigger task-management overhead demands a bigger input before
        // spawning pays off; the guard reflects it monotonically.
        let mut last = 0u64;
        for overhead in [5.0, 20.0, 80.0, 320.0] {
            let g = guards(QSORT, overhead);
            let Guard::SizeAtLeast { k, .. } = g.get(PredId::parse("qsort", 2)).unwrap() else {
                panic!("expected a size guard at overhead {overhead}");
            };
            assert!(k >= last, "threshold must not shrink as overhead grows");
            last = k;
        }
    }

    #[test]
    fn constant_cost_predicates_never_spawn() {
        let src = r#"
            :- mode tiny(+).
            tiny(_).
            p(X) :- tiny(X) & tiny(X).
        "#;
        let g = guards(src, 48.0);
        assert_eq!(g.get(PredId::parse("tiny", 1)), Some(Guard::Never));
    }

    #[test]
    fn tiny_overhead_spawns_everything() {
        let g = guards(QSORT, 0.5);
        assert_eq!(g.get(PredId::parse("qsort", 2)), Some(Guard::Always));
        // Unanalysed predicates have no guard at all: the engine spawns them
        // (unknown cost errs parallel).
        assert_eq!(g.get(PredId::parse("mystery", 1)), None);
    }
}
