//! Threshold computation: from a cost function and a task-management overhead
//! `W`, derive the least input size `K` whose estimated work exceeds `W`
//! (Section 5, "threshold input size").
//!
//! The paper associates with each solved cost function `f` a function `g` such
//! that `g(W) = K` is the least `K` with `f(K) > W`. Because our closed forms
//! are monotone in the input size (cost-monotonicity is assumed throughout,
//! Section 6), `K` can be found by a doubling search followed by a binary
//! search over integer sizes.

use crate::expr::Expr;
use granlog_ir::Symbol;
use std::collections::BTreeMap;
use std::fmt;

/// The outcome of a threshold computation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Threshold {
    /// Even the smallest input exceeds the overhead, or the cost is unbounded
    /// (∞): always execute in parallel, no runtime test needed.
    AlwaysParallel,
    /// The cost never exceeds the overhead (up to the search cap): always
    /// execute sequentially, no runtime test needed.
    NeverParallel,
    /// Execute in parallel exactly when the input size is at least this value.
    SizeAtLeast(u64),
}

impl Threshold {
    /// The numeric threshold, treating `AlwaysParallel` as 0 and
    /// `NeverParallel` as `u64::MAX` (useful for sweeps and tabulation).
    pub fn as_size(&self) -> u64 {
        match self {
            Threshold::AlwaysParallel => 0,
            Threshold::NeverParallel => u64::MAX,
            Threshold::SizeAtLeast(k) => *k,
        }
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Threshold::AlwaysParallel => write!(f, "always parallel"),
            Threshold::NeverParallel => write!(f, "never parallel"),
            Threshold::SizeAtLeast(k) => write!(f, "parallel iff size >= {k}"),
        }
    }
}

/// Default cap on the threshold search: sizes beyond this are treated as
/// "never exceeds the overhead".
pub const DEFAULT_SEARCH_CAP: u64 = 1 << 24;

/// Computes the threshold input size for a single-parameter cost function.
///
/// `cost` is the closed-form cost in terms of `param`; `overhead` is the task
/// creation/management overhead `W` in the same cost units. Parameters other
/// than `param` occurring in `cost` are pessimistically set to the same value
/// as `param` (the "diagonal", an upper bound for monotone costs).
pub fn threshold(cost: &Expr, param: Symbol, overhead: f64, cap: u64) -> Threshold {
    if cost.is_infinite() || cost.is_undefined() {
        return Threshold::AlwaysParallel;
    }
    // Every variable rides the diagonal: one environment, overwritten by
    // each probe.
    let mut env: BTreeMap<Symbol, f64> = cost
        .variables()
        .into_iter()
        .chain([param])
        .map(|v| (v, 0.0))
        .collect();
    let mut exceeds = |n: u64| -> bool {
        env.values_mut().for_each(|v| *v = n as f64);
        // An unevaluable cost (⊥ or unresolved call) is treated as
        // unbounded: always parallelise, as the paper prescribes.
        cost.eval(&env).is_none_or(|v| v > overhead)
    };

    if exceeds(0) {
        return Threshold::AlwaysParallel;
    }
    // Doubling search for an upper bracket.
    let mut hi = 1u64;
    while hi <= cap && !exceeds(hi) {
        hi = hi.saturating_mul(2);
    }
    if hi > cap {
        return Threshold::NeverParallel;
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
    Threshold::SizeAtLeast(hi)
}

/// Picks the parameter a runtime grain-size test should measure: the variable
/// of `cost` whose growth dominates (highest polynomial degree, breaking ties
/// by name). Returns `None` when the cost mentions no variable (it is a
/// constant, ∞ or ⊥).
pub fn driving_parameter(cost: &Expr) -> Option<Symbol> {
    let vars = cost.variables();
    if vars.is_empty() {
        return None;
    }
    vars.into_iter()
        .map(|v| {
            let degree = crate::expr::as_polynomial(cost, v)
                .map(|p| p.degree())
                // Non-polynomial dependence (exponential, log) dominates.
                .unwrap_or(usize::MAX);
            (degree, v)
        })
        .max_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.as_str().cmp(a.1.as_str())))
        .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::Symbol;

    fn n() -> Symbol {
        Symbol::intern("n")
    }

    fn threshold_default(cost: &Expr, param: Symbol, overhead: f64) -> Threshold {
        threshold(cost, param, overhead, DEFAULT_SEARCH_CAP)
    }

    #[test]
    fn paper_example_threshold() {
        // Section 2: cost 3n², overhead 48 ⇒ parallel iff 3n² > 48 ⇔ n ≥ 5
        // (the paper rounds the test to `size(E) < 4 ⇒ sequential`, i.e.
        //  parallel from 4 upwards with a non-strict reading; our strict
        //  reading gives the least n with 3n² > 48, which is 5).
        let cost = Expr::mul(Expr::num(3.0), Expr::pow(Expr::var("n"), Expr::num(2.0)));
        let t = threshold_default(&cost, n(), 48.0);
        assert_eq!(t, Threshold::SizeAtLeast(5));
    }

    #[test]
    fn nrev_cost_threshold() {
        // 0.5n² + 1.5n + 1 > 100 first at n = 13.
        let cost = Expr::sum(vec![
            Expr::mul(Expr::num(0.5), Expr::pow(Expr::var("n"), Expr::num(2.0))),
            Expr::mul(Expr::num(1.5), Expr::var("n")),
            Expr::num(1.0),
        ]);
        let t = threshold_default(&cost, n(), 100.0);
        assert_eq!(t, Threshold::SizeAtLeast(13));
        // Sanity: value just below/above.
        assert!(cost.eval_with(&[("n", 12.0)]).unwrap() <= 100.0);
        assert!(cost.eval_with(&[("n", 13.0)]).unwrap() > 100.0);
    }

    #[test]
    fn constant_cost_below_overhead_is_never_parallel() {
        let t = threshold_default(&Expr::num(3.0), n(), 48.0);
        assert_eq!(t, Threshold::NeverParallel);
        assert_eq!(t.as_size(), u64::MAX);
    }

    #[test]
    fn constant_cost_above_overhead_is_always_parallel() {
        let t = threshold_default(&Expr::num(100.0), n(), 48.0);
        assert_eq!(t, Threshold::AlwaysParallel);
        assert_eq!(t.as_size(), 0);
    }

    #[test]
    fn infinite_cost_is_always_parallel() {
        assert_eq!(
            threshold_default(&Expr::Infinity, n(), 1e12),
            Threshold::AlwaysParallel
        );
        assert_eq!(
            threshold_default(&Expr::Undefined, n(), 1.0),
            Threshold::AlwaysParallel
        );
    }

    #[test]
    fn exponential_cost_has_small_threshold() {
        // 2^n − 1 > 1000 first at n = 10.
        let cost = Expr::sub(Expr::pow(Expr::num(2.0), Expr::var("n")), Expr::num(1.0));
        assert_eq!(
            threshold_default(&cost, n(), 1000.0),
            Threshold::SizeAtLeast(10)
        );
    }

    #[test]
    fn zero_overhead_still_requires_positive_work() {
        // With overhead 0, any input with positive cost parallelises.
        let cost = Expr::var("n");
        let t = threshold_default(&cost, n(), 0.0);
        assert_eq!(t, Threshold::SizeAtLeast(1));
    }

    #[test]
    fn multi_parameter_cost_uses_diagonal() {
        // n1 + n2 with overhead 10: on the diagonal (n1 = n2 = n) the bound is
        // exceeded first at n = 6.
        let cost = Expr::add(Expr::var("n1"), Expr::var("n2"));
        let t = threshold_default(&cost, Symbol::intern("n1"), 10.0);
        assert_eq!(t, Threshold::SizeAtLeast(6));
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
            let t = threshold_default(&cost, n(), w).as_size();
            assert!(t >= last, "threshold should not decrease as overhead grows");
            last = t;
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
        let cost = Expr::var("n");
        // Cap of 10: a cost that only exceeds the overhead at 1000 is "never".
        assert_eq!(threshold(&cost, n(), 1000.0, 10), Threshold::NeverParallel);
    }
}
