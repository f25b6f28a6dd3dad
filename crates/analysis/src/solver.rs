//! The table-driven difference equation solver (Section 5).
//!
//! The solver implements the paper's "granularity analysis structure": a
//! library of difference-equation *schemas* with known closed-form solutions,
//! an approximation step that maps (majorises) a derived equation onto a
//! schema, and the rule that anything that matches no schema is solved as
//! `λx.∞` — i.e. "always execute in parallel".
//!
//! Supported schemas (all solutions are **upper bounds**):
//!
//! | schema | closed form |
//! |---|---|
//! | `f(n) = f(n−k) + g(n)`, `g` polynomial, `k = 1` | exact symbolic summation (Faulhaber) |
//! | `f(n) = f(n−k) + g(n)`, `k ≥ 1` | `f(n0) + ((n−n0)/k)·g(n)` (g monotone) |
//! | `f(n) = a·f(n−k) + B`, `a ≥ 2`, `B` constant | `(f0 + B/(a−1))·a^((n−n0)/k) − B/(a−1)` |
//! | `f(n) = a·f(n−k) + g(n)`, `a ≥ 2` | `(f0 + a/(a−1)·g(n))·a^((n−n0)/k)` |
//! | `f(n) = a·f(n/b) + g(n)` (divide and conquer) | master-theorem style bound |
//! | several recursive calls `f(n−k1) + f(n−k2) + …` | majorised to `a·f(n−min kᵢ)` (monotonicity) |
//! | exclusive clauses `f(n) = max(rhs₁, rhs₂, …)` | one recurrence: the largest call count, the `max` of the remainders, the slowest step of any call |
//! | parameter sum `s`: no one parameter shrinks in every call, `s` does | solved in `s`; exclusive, one call per level, remainder `c`, step `k`, each base `b` of slope ≤ `c/k` in its unpinned parameters: `(c/k)·s + max_b(b(unpinned = 0) − (c/k)·Σ pinned_b)`; otherwise the schemas above from `f0` at `s0 = max_b Σ pinned_b` |
//! | systems (mutual recursion) | eliminated by unfolding into a single equation |
//!
//! The equation's base cases supply the boundary value `f0` and boundary point
//! `n0`; when they are symbolic (e.g. `Ψ_append(0, y) = y`) they are carried
//! symbolically into the solution.

use crate::diffeq::{BaseCase, CombineMode, DiffEq};
use crate::expr::{as_polynomial, Expr, FnRef};
use granlog_ir::Symbol;
use std::collections::BTreeMap;
use std::fmt;

/// Which schema produced a solution (for reporting and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SchemaKind {
    /// The equation had no recursive case.
    Closed,
    /// First-order linear recurrence with unit coefficient, solved exactly by
    /// symbolic summation.
    LinearSummation,
    /// First-order linear recurrence bounded by `(n/k)·g(n)`.
    LinearBound,
    /// Geometric recurrence `a·f(n−k) + B` with constant inhomogeneity.
    GeometricConstant,
    /// Geometric recurrence with non-constant inhomogeneity (bounded).
    GeometricBound,
    /// Divide-and-conquer recurrence `a·f(n/b) + g(n)`.
    DivideAndConquer,
    /// A system of equations reduced by elimination before matching.
    SystemElimination,
    /// No schema matched: the solution is `λx.∞` (always parallelise).
    Unmatched,
}

impl fmt::Display for SchemaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SchemaKind::Closed => "closed",
            SchemaKind::LinearSummation => "linear (exact summation)",
            SchemaKind::LinearBound => "linear (bounded)",
            SchemaKind::GeometricConstant => "geometric (constant term)",
            SchemaKind::GeometricBound => "geometric (bounded)",
            SchemaKind::DivideAndConquer => "divide and conquer",
            SchemaKind::SystemElimination => "system elimination",
            SchemaKind::Unmatched => "unmatched (infinity)",
        };
        f.write_str(s)
    }
}

/// The result of solving one difference equation.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The function the solution is for.
    pub func: FnRef,
    /// The equation's parameters.
    pub params: Vec<Symbol>,
    /// The closed-form upper bound, in terms of `params`.
    pub closed_form: Expr,
    /// The schema that produced it.
    pub schema: SchemaKind,
}

impl Solution {
    /// Applies the closed form to concrete argument expressions.
    pub fn apply(&self, args: &[Expr]) -> Expr {
        self.closed_form.apply(&self.params, args)
    }
}

/// How a recursive call shrinks the induction parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// Argument is `n − k`.
    Decrement(f64),
    /// Argument is `n / b`.
    Divide(f64),
}

/// The recursive cases as one recurrence `f(n) = a·f(n − k) + g(n)`.
#[derive(Debug, Clone)]
struct RecursionShape {
    /// What the recursion decreases.
    induction: Induction,
    /// Calls per level `a`: summed over additive cases, the largest of
    /// exclusive ones.
    multiplicity: f64,
    /// The slowest shrinking step among the calls of every case.
    step: Step,
    /// The inhomogeneous part `g(n)`: each case with its recursive calls
    /// removed, combined like the cases (sum or max).
    inhomogeneous: Expr,
}

/// The quantity a recursion is well-founded on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Induction {
    /// A single parameter decreases in every call.
    Param(usize),
    /// No single parameter decreases, but the sum of all parameters does
    /// (e.g. `merge/3`, which alternates between its two list arguments).
    ParamSum,
}

/// Solves a single difference equation, returning an upper-bound closed form.
pub fn solve(eq: &DiffEq) -> Solution {
    let solution = |closed_form: Expr, schema| Solution {
        func: eq.func,
        params: eq.params.clone(),
        closed_form,
        schema,
    };
    let f0 = eq.combined_base_value().simplify();
    if eq.is_closed() {
        let value = if f0.is_undefined() {
            Expr::Infinity
        } else {
            f0
        };
        return solution(value, SchemaKind::Closed);
    }
    // A recursion with no base case cannot terminate at the bottom: ∞.
    let shape = (!eq.base_cases.is_empty()).then(|| analyze_recursion(eq));
    let Some(shape) = shape.flatten() else {
        return solution(Expr::Infinity, SchemaKind::Unmatched);
    };
    let mut g = shape.inhomogeneous.clone().simplify();
    if f0.is_undefined() || g.is_undefined() {
        return solution(Expr::Infinity, SchemaKind::Unmatched);
    }

    // The induction variable and its boundary point and value. On the
    // parameter-sum path g is rewritten to mention only the sum (sound for
    // monotone g since each parameter is at most the sum).
    let (n, n0, f0, sum) = match shape.induction {
        Induction::Param(idx) => {
            let n0 = eq.base_point(idx).unwrap_or(0).max(0) as f64;
            (eq.params[idx], n0, f0, None)
        }
        Induction::ParamSum => {
            let sum_sym = Symbol::intern("$param_sum");
            let (n0, f0) = match walk_base(eq, &shape, &g) {
                Some(base) => (0.0, base),
                None => {
                    let pinned = |b: &BaseCase| b.when.iter().map(|w| w.unwrap_or(0).max(0)).sum();
                    (
                        eq.base_cases.iter().map(pinned).max().unwrap_or(0) as f64,
                        f0,
                    )
                }
            };
            for &p in &eq.params {
                g = g.subst_var(p, &Expr::Var(sum_sym));
            }
            let sum_expr = Expr::sum(eq.params.iter().map(|&p| Expr::Var(p))).simplify();
            (sum_sym, n0, f0, Some(sum_expr))
        }
    };

    let (closed, schema) = match shape.step {
        Step::Decrement(k) if shape.multiplicity <= 1.0 => solve_linear(n, n0, &f0, &g, k),
        Step::Decrement(k) => solve_geometric(n, n0, &f0, &g, shape.multiplicity, k),
        Step::Divide(b) => solve_divide_and_conquer(n, &f0, &g, shape.multiplicity, b),
    };
    // Replace the synthetic sum variable by the actual parameter sum.
    let closed = match sum {
        Some(sum_expr) => closed.subst_var(n, &sum_expr),
        None => closed,
    };
    solution(closed.simplify(), schema)
}

/// The base value of an exclusive parameter-sum walk that makes one call
/// per level, with a constant remainder `c ≥ 0` and step `k`, measured from
/// sum 0. A walk from sum `s` that ends in base case `b` takes at most
/// `(s − Σ pinned_b − Σ unpinned_b)/k` levels, so it costs at most
/// `(c/k)·s + b(unpinned := 0) − (c/k)·Σ pinned_b` when `b` is linear in
/// each unpinned parameter with slope at most `c/k`. `None` when the rule
/// does not apply, and under `Additive`, where a walk is also charged
/// every other base case that matches on its way.
fn walk_base(eq: &DiffEq, shape: &RecursionShape, g: &Expr) -> Option<Expr> {
    let (Some(c), Step::Decrement(k)) = (g.as_const(), shape.step) else {
        return None;
    };
    if eq.combine != CombineMode::Exclusive || shape.multiplicity > 1.0 || c < 0.0 {
        return None;
    }
    let rate = c / k;
    let at_bottom = |b: &BaseCase| -> Option<Expr> {
        let mut at = BTreeMap::new();
        let mut pinned = 0.0;
        for (&p, w) in eq.params.iter().zip(&b.when) {
            if let Some(v) = *w {
                pinned += v as f64;
            } else {
                let poly = as_polynomial(&b.value, p)?;
                if poly.degree() > 1 || poly.coeff(1).as_const()? > rate + 1e-9 {
                    return None;
                }
            }
            at.insert(p, Expr::int(w.unwrap_or(0)));
        }
        Some(Expr::sub(b.value.subst_vars(&at), Expr::Num(rate * pinned)))
    };
    let values = eq.base_cases.iter().map(at_bottom).collect::<Option<_>>()?;
    Some(Expr::Max(values).simplify())
}

/// Solves the difference equations of one SCC, one per function (mutual
/// recursion), by eliminating the other functions from each equation through
/// unfolding, then solving the resulting single-function equations.
pub fn solve_system(system: &[DiffEq]) -> Vec<Solution> {
    system
        .iter()
        .map(|eq| {
            if eq.referenced_functions().iter().all(|f| *f == eq.func) {
                return solve(eq);
            }
            match eliminate(eq, system, system.len()) {
                Some(reduced) => {
                    let mut sol = solve(&reduced);
                    if sol.schema != SchemaKind::Unmatched {
                        sol.schema = SchemaKind::SystemElimination;
                    }
                    sol
                }
                None => Solution {
                    func: eq.func,
                    params: eq.params.clone(),
                    closed_form: Expr::Infinity,
                    schema: SchemaKind::Unmatched,
                },
            }
        })
        .collect()
}

/// Unfolds calls to other functions of the system into `eq`'s recursive cases
/// until only self-calls remain (bounded by `fuel` rounds). Base values of the
/// unfolded functions are added to the inhomogeneous part (upper bound).
fn eliminate(eq: &DiffEq, system: &[DiffEq], fuel: usize) -> Option<DiffEq> {
    let mut current = eq.clone();
    for _ in 0..=fuel {
        let foreign: Vec<FnRef> = current
            .referenced_functions()
            .into_iter()
            .filter(|f| *f != current.func)
            .collect();
        if foreign.is_empty() {
            return Some(current);
        }
        let mut new_cases = Vec::new();
        for rhs in &current.recursive_cases {
            let mut rewritten = rhs.clone();
            for other in &foreign {
                let other_eq = system.iter().find(|e| e.func == *other)?;
                let other_rhs = other_eq.combined_recursive_rhs();
                let other_base = other_eq.combined_base_value();
                let other_params = other_eq.params.clone();
                rewritten = rewritten.subst_calls(&|f, args| {
                    if f != *other {
                        return None;
                    }
                    if args.len() != other_params.len() {
                        return Some(Expr::Undefined);
                    }
                    let map: BTreeMap<Symbol, Expr> = other_params
                        .iter()
                        .copied()
                        .zip(args.iter().cloned())
                        .collect();
                    // f_other(args) ≤ rhs_other[params := args] + base_other
                    // (the base term accounts for the unfolding bottoming out).
                    Some(Expr::add(other_rhs.subst_vars(&map), other_base.clone()).simplify())
                });
            }
            new_cases.push(rewritten.simplify());
        }
        current = DiffEq {
            recursive_cases: new_cases,
            ..current
        };
    }
    None
}

// ---------------------------------------------------------------------------
// Recursion shape extraction
// ---------------------------------------------------------------------------

/// Splits every recursive case into its calls of `eq.func` and the rest,
/// combines the cases by `eq.combine`, and finds the induction parameter
/// and the (majorised) step over every call of every case.
fn analyze_recursion(eq: &DiffEq) -> Option<RecursionShape> {
    let mut calls: Vec<Vec<Expr>> = Vec::new();
    let mut multiplicities = Vec::new();
    let mut remainders = Vec::new();
    for case in &eq.recursive_cases {
        // max/min wrappers around recursive calls (typically introduced when
        // the closed form of an exclusive callee was substituted in) are
        // majorised by the sum of their operands — sound because sizes and
        // costs are non-negative — so the case stays linear in its calls.
        let case = case
            .clone()
            .simplify()
            .transform(&mut |e| match e {
                Expr::Max(xs) | Expr::Min(xs) if e.contains_call(eq.func) => {
                    Some(Expr::Add(xs.clone()))
                }
                _ => None,
            })
            .simplify();
        // Other functions of a system must be eliminated before calling `solve`.
        if case.is_undefined() || case.is_infinite() || case.calls().iter().any(|c| *c != eq.func) {
            return None;
        }
        let terms = match case {
            Expr::Add(xs) => xs,
            other => vec![other],
        };
        let (mut multiplicity, mut rest) = (0.0, Vec::new());
        for term in terms {
            match split_call_term(&term, eq.func) {
                SplitTerm::Call(coeff, args) => {
                    multiplicity += coeff;
                    calls.push(args);
                }
                SplitTerm::Plain(e) => rest.push(e),
                SplitTerm::Nonlinear => return None,
            }
        }
        multiplicities.push(multiplicity);
        remainders.push(Expr::Add(rest));
    }
    let multiplicity = match eq.combine {
        CombineMode::Additive => multiplicities.iter().sum(),
        CombineMode::Exclusive => multiplicities.iter().copied().fold(0.0, f64::max),
    };
    let inhomogeneous = eq.combine.apply(&remainders);

    // A call's step under an induction. A single parameter must shrink
    // (`params[i] − k`, k > 0, or `params[i] / b`, b > 1) while no other
    // argument grows. Failing that, the *sum* of the parameters may shrink
    // (merge/3 alternates between its two lists): the recursion is then
    // well-founded on the sum, and a bound in the sum bounds the function.
    let step_of = |induction: Induction, args: &[Expr]| -> Option<Step> {
        if args.len() != eq.params.len() {
            return None;
        }
        match induction {
            Induction::Param(idx) => {
                let step = classify_step(&args[idx], eq.params[idx]);
                let step = step.filter(|s| shrinkage(*s) > 0.0)?;
                let kept = |j: usize| {
                    let other = classify_step(&args[j], eq.params[j]);
                    j == idx || other.is_some_and(|s| shrinkage(s) >= 0.0)
                };
                (0..args.len()).all(kept).then_some(step)
            }
            Induction::ParamSum => {
                let params_sum = Expr::sum(eq.params.iter().map(|&p| Expr::Var(p)));
                let delta = Expr::sub(Expr::sum(args.to_vec()), params_sum).simplify();
                let d = delta.as_const().filter(|d| *d <= -1.0)?;
                Some(Step::Decrement(-d))
            }
        }
    };
    let arity = eq.params.len();
    let by_sum = (arity > 1).then_some(Induction::ParamSum);
    (0..arity)
        .map(Induction::Param)
        .chain(by_sum)
        .find_map(|induction| {
            let steps: Vec<Step> = calls
                .iter()
                .map(|a| step_of(induction, a))
                .collect::<Option<_>>()?;
            // Majorise: the slowest shrinking step (minimum decrement / minimum
            // divisor) over-approximates every call (monotonicity).
            Some(RecursionShape {
                induction,
                multiplicity,
                step: steps.into_iter().reduce(slowest_step)?,
                inhomogeneous: inhomogeneous.clone(),
            })
        })
}

enum SplitTerm {
    /// `coeff * f(args)`.
    Call(f64, Vec<Expr>),
    /// A term not involving the function.
    Plain(Expr),
    /// The function occurs in a non-additive position: unsupported.
    Nonlinear,
}

fn split_call_term(term: &Expr, func: FnRef) -> SplitTerm {
    if !term.contains_call(func) {
        return SplitTerm::Plain(term.clone());
    }
    match term {
        Expr::Call(f, args) if *f == func => {
            if args.iter().any(|a| a.contains_call(func)) {
                SplitTerm::Nonlinear
            } else {
                SplitTerm::Call(1.0, args.clone())
            }
        }
        Expr::Mul(factors) => {
            let mut coeff = 1.0;
            let mut call: Option<Vec<Expr>> = None;
            for f in factors {
                match f {
                    Expr::Num(v) => coeff *= v,
                    Expr::Call(r, args) if *r == func && call.is_none() => {
                        if args.iter().any(|a| a.contains_call(func)) {
                            return SplitTerm::Nonlinear;
                        }
                        call = Some(args.clone());
                    }
                    other if !other.contains_call(func) => return SplitTerm::Nonlinear,
                    _ => return SplitTerm::Nonlinear,
                }
            }
            match call {
                Some(args) if coeff > 0.0 => SplitTerm::Call(coeff, args),
                _ => SplitTerm::Nonlinear,
            }
        }
        _ => SplitTerm::Nonlinear,
    }
}

/// How far a step shrinks its argument: > 0 shrinks, 0 keeps, < 0 grows.
fn shrinkage(step: Step) -> f64 {
    match step {
        Step::Decrement(k) => k,
        Step::Divide(b) => b - 1.0,
    }
}

/// The slower-shrinking of two steps (the majorising choice).
fn slowest_step(a: Step, b: Step) -> Step {
    match (a, b) {
        (Step::Decrement(x), Step::Decrement(y)) => Step::Decrement(x.min(y)),
        (Step::Divide(x), Step::Divide(y)) => Step::Divide(x.min(y)),
        // Mixed: a divide shrinks at least as fast as a unit decrement for
        // n ≥ 2, so majorise everything to the decrement.
        (Step::Decrement(x), Step::Divide(_)) | (Step::Divide(_), Step::Decrement(x)) => {
            Step::Decrement(x.min(1.0))
        }
    }
}

/// Classifies `arg` relative to the parameter `param`: `param − k` or
/// `param · c` (i.e. `param / (1/c)`).
fn classify_step(arg: &Expr, param: Symbol) -> Option<Step> {
    let arg = arg.clone().simplify();
    if arg == Expr::Var(param) {
        return Some(Step::Decrement(0.0));
    }
    // max(...)/min(...) arguments: for a monotone f, f(max(xs)) = max f(xs) and
    // f(min(xs)) ≤ f(x) for any x, so the slowest-shrinking non-constant
    // operand majorises the whole argument. Constant operands belong to the
    // base-case region and are ignored.
    if let Expr::Max(items) | Expr::Min(items) = &arg {
        let mut steps = Vec::new();
        for item in items {
            if item.as_const().is_some() {
                continue;
            }
            steps.push(classify_step(item, param)?);
        }
        return match steps.into_iter().reduce(slowest_step) {
            Some(step) => Some(step),
            // All operands constant: the recursion jumps to a constant size.
            None => Some(Step::Decrement(1.0)),
        };
    }
    // param − k ?
    if let Some(poly) = as_polynomial(&arg, param) {
        if poly.degree() == 1 {
            let slope = poly.coeff(1).as_const()?;
            let intercept = poly.coeff(0).as_const()?;
            if (slope - 1.0).abs() < 1e-9 {
                return Some(Step::Decrement(-intercept));
            }
            if slope > 0.0 && slope < 1.0 && intercept <= 0.0 {
                // c·n (− d) shrinks like division by 1/c.
                return Some(Step::Divide(1.0 / slope));
            }
        } else if poly.degree() == 0 {
            // Constant argument: the recursion jumps straight to a constant
            // size — treat as a decrement of at least 1 (it cannot grow).
            return Some(Step::Decrement(1.0));
        }
    }
    // n / b ?
    if let Expr::Div(num, den) = &arg {
        if **num == Expr::Var(param) {
            if let Some(b) = den.as_const() {
                if b > 1.0 {
                    return Some(Step::Divide(b));
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Schemas
// ---------------------------------------------------------------------------

/// `f(n) = f(n−k) + g(n)`, `f(n0) = f0`.
fn solve_linear(n: Symbol, n0: f64, f0: &Expr, g: &Expr, k: f64) -> (Expr, SchemaKind) {
    if k == 1.0 {
        if let Some(poly) = as_polynomial(g, n) {
            if poly.degree() <= 3
                && poly
                    .coeffs
                    .iter()
                    .all(|c| !c.clone().simplify().is_undefined())
            {
                // Exact: f(n) = f0 + Σ_{i=n0+1}^{n} g(i).
                let sum = polynomial_prefix_sum(&poly, n, n0);
                return (
                    Expr::add(f0.clone(), sum).simplify(),
                    SchemaKind::LinearSummation,
                );
            }
        }
    }
    // Bound: f(n) ≤ f0 + ((n − n0)/k) · g(n)   (g monotone nondecreasing).
    let steps = Expr::div(Expr::sub(Expr::Var(n), Expr::Num(n0)), Expr::Num(k));
    let bound = Expr::add(f0.clone(), Expr::mul(steps, g.clone()));
    (bound, SchemaKind::LinearBound)
}

/// Σ_{i=n0+1}^{n} g(i) for polynomial g of degree ≤ 3, via Faulhaber's
/// formulas.
fn polynomial_prefix_sum(poly: &crate::expr::Polynomial, n: Symbol, n0: f64) -> Expr {
    let nvar = Expr::Var(n);
    // Σ_{i=1}^{m} i^p as an expression in m.
    let power_sum = |p: usize, m: &Expr| -> Expr {
        match p {
            0 => m.clone(),
            1 => Expr::mul(
                Expr::num(0.5),
                Expr::add(Expr::pow(m.clone(), Expr::num(2.0)), m.clone()),
            ),
            2 => {
                // m(m+1)(2m+1)/6 = (2m^3 + 3m^2 + m)/6
                Expr::mul(
                    Expr::num(1.0 / 6.0),
                    Expr::sum(vec![
                        Expr::mul(Expr::num(2.0), Expr::pow(m.clone(), Expr::num(3.0))),
                        Expr::mul(Expr::num(3.0), Expr::pow(m.clone(), Expr::num(2.0))),
                        m.clone(),
                    ]),
                )
            }
            3 => {
                // (m(m+1)/2)^2 = (m^4 + 2m^3 + m^2)/4
                Expr::mul(
                    Expr::num(0.25),
                    Expr::sum(vec![
                        Expr::pow(m.clone(), Expr::num(4.0)),
                        Expr::mul(Expr::num(2.0), Expr::pow(m.clone(), Expr::num(3.0))),
                        Expr::pow(m.clone(), Expr::num(2.0)),
                    ]),
                )
            }
            _ => unreachable!("degree checked by caller"),
        }
    };
    let mut total = Expr::Num(0.0);
    for (p, coeff) in poly.coeffs.iter().enumerate() {
        let up_to_n = power_sum(p, &nvar);
        let up_to_n0 = power_sum(p, &Expr::Num(n0)).simplify();
        let partial = Expr::sub(up_to_n, up_to_n0);
        total = Expr::add(total, Expr::mul(coeff.clone(), partial));
    }
    total.simplify()
}

/// `f(n) = a·f(n−k) + g(n)`, `a ≥ 2`.
fn solve_geometric(n: Symbol, n0: f64, f0: &Expr, g: &Expr, a: f64, k: f64) -> (Expr, SchemaKind) {
    let exponent = Expr::div(Expr::sub(Expr::Var(n), Expr::Num(n0)), Expr::Num(k));
    let growth = Expr::pow(Expr::Num(a), exponent);
    if let Some(b) = g.as_const() {
        // Exact schema from the paper: (f0 + B/(a−1))·a^((n−n0)/k) − B/(a−1).
        let shift = b / (a - 1.0);
        let closed = Expr::sub(
            Expr::mul(Expr::add(f0.clone(), Expr::Num(shift)), growth),
            Expr::Num(shift),
        );
        (closed, SchemaKind::GeometricConstant)
    } else {
        // Bound: f(n) ≤ (f0 + a/(a−1)·g(n))·a^((n−n0)/k)  (g monotone).
        let closed = Expr::mul(
            Expr::add(f0.clone(), Expr::mul(Expr::Num(a / (a - 1.0)), g.clone())),
            growth,
        );
        (closed, SchemaKind::GeometricBound)
    }
}

/// `f(n) = a·f(n/b) + g(n)` — master-theorem style upper bounds.
fn solve_divide_and_conquer(n: Symbol, f0: &Expr, g: &Expr, a: f64, b: f64) -> (Expr, SchemaKind) {
    let nvar = Expr::Var(n);
    let levels = Expr::add(
        Expr::div(Expr::log2(nvar.clone()), Expr::Num(b.log2())),
        Expr::Num(1.0),
    );
    let degree = as_polynomial(g, n).map(|p| p.degree() as f64);
    let log_b_a = a.log2() / b.log2();
    let closed = match degree {
        Some(d) if a < b.powf(d) => {
            // Work dominated by the root: f(n) ≤ f0 + g(n)/(1 − a/b^d).
            let factor = 1.0 / (1.0 - a / b.powf(d));
            Expr::add(f0.clone(), Expr::mul(Expr::Num(factor), g.clone()))
        }
        Some(d) if (a - b.powf(d)).abs() < 1e-9 => {
            // Balanced: f(n) ≤ (f0 + g(n))·(log_b n + 1).
            Expr::mul(Expr::add(f0.clone(), g.clone()), levels)
        }
        _ => {
            // Leaf-dominated (or g not polynomial): (f0 + g(n))·n^(log_b a)·(log_b n + 1).
            Expr::product(vec![
                Expr::add(f0.clone(), g.clone()),
                Expr::pow(nvar, Expr::Num(log_b_a.max(0.0))),
                if degree.is_some() {
                    Expr::Num(1.0)
                } else {
                    levels
                },
            ])
        }
    };
    (closed, SchemaKind::DivideAndConquer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::PredId;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn f() -> FnRef {
        FnRef::Sym(sym("f"))
    }

    fn single(base: Vec<(Vec<Option<i64>>, f64)>, rec: Expr) -> DiffEq {
        DiffEq {
            func: f(),
            params: vec![sym("n")],
            base_cases: base
                .into_iter()
                .map(|(when, v)| BaseCase {
                    when,
                    value: Expr::Num(v),
                })
                .collect(),
            recursive_cases: vec![rec],
            combine: CombineMode::Exclusive,
        }
    }

    fn eval(sol: &Solution, n: f64) -> f64 {
        sol.apply(&[Expr::Num(n)]).as_const().unwrap()
    }

    #[test]
    fn append_cost_equation() {
        // Cost(0) = 1; Cost(n) = Cost(n−1) + 1  ⇒  Cost(n) = n + 1.
        let rec = Expr::add(
            Expr::call(f(), vec![Expr::sub(Expr::var("n"), Expr::num(1.0))]),
            Expr::num(1.0),
        );
        let sol = solve(&single(vec![(vec![Some(0)], 1.0)], rec));
        assert_eq!(sol.schema, SchemaKind::LinearSummation);
        assert_eq!(sol.closed_form.to_string(), "n + 1");
    }

    #[test]
    fn nrev_cost_equation_matches_paper() {
        // Cost(0) = 1; Cost(n) = Cost(n−1) + n + 1 ⇒ 0.5n² + 1.5n + 1.
        let rec = Expr::sum(vec![
            Expr::call(f(), vec![Expr::sub(Expr::var("n"), Expr::num(1.0))]),
            Expr::var("n"),
            Expr::num(1.0),
        ]);
        let sol = solve(&single(vec![(vec![Some(0)], 1.0)], rec));
        assert_eq!(sol.schema, SchemaKind::LinearSummation);
        assert_eq!(sol.closed_form.to_string(), "0.5*n^2 + 1.5*n + 1");
        assert_eq!(eval(&sol, 10.0), 66.0);
        assert_eq!(eval(&sol, 0.0), 1.0);
    }

    #[test]
    fn nrev_output_size_equation() {
        // Ψ(0) = 0; Ψ(n) = Ψ(n−1) + 1 ⇒ n.
        let rec = Expr::add(
            Expr::call(f(), vec![Expr::sub(Expr::var("n"), Expr::num(1.0))]),
            Expr::num(1.0),
        );
        let sol = solve(&single(vec![(vec![Some(0)], 0.0)], rec));
        assert_eq!(sol.closed_form.to_string(), "n");
    }

    #[test]
    fn fib_equation_matches_paper_bound() {
        // Cost(0) = Cost(1) = 1; Cost(n) = Cost(n−1) + Cost(n−2) + 1.
        // Majorised to 2·Cost(n−1) + 1 ⇒ 2^(n−1+1) − 1 ... with n0 = 1:
        // (1 + 1)·2^(n−1) − 1 = 2^n − 1.
        let n = Expr::var("n");
        let rec = Expr::sum(vec![
            Expr::call(f(), vec![Expr::sub(n.clone(), Expr::num(1.0))]),
            Expr::call(f(), vec![Expr::sub(n.clone(), Expr::num(2.0))]),
            Expr::num(1.0),
        ]);
        let sol = solve(&single(
            vec![(vec![Some(0)], 1.0), (vec![Some(1)], 1.0)],
            rec,
        ));
        assert_eq!(sol.schema, SchemaKind::GeometricConstant);
        // The paper (with base at 0) reports 2^(n+1) − 1; with the tighter
        // boundary point n0 = 1 the bound is 2^n − 1. Both are upper bounds on
        // the true fib cost; check the bound property and the exact form.
        assert_eq!(eval(&sol, 1.0), 1.0);
        assert_eq!(eval(&sol, 5.0), 31.0); // 2^5 − 1
                                           // True cost of fib(5) with this metric is 15 ≤ 31.
        assert!(eval(&sol, 10.0) >= 177.0);
    }

    #[test]
    fn geometric_with_nonconstant_inhomogeneity() {
        // f(0) = 1; f(n) = 2 f(n−1) + n.
        let n = Expr::var("n");
        let rec = Expr::sum(vec![
            Expr::mul(
                Expr::num(2.0),
                Expr::call(f(), vec![Expr::sub(n.clone(), Expr::num(1.0))]),
            ),
            n.clone(),
        ]);
        let sol = solve(&single(vec![(vec![Some(0)], 1.0)], rec));
        assert_eq!(sol.schema, SchemaKind::GeometricBound);
        // True values: f(1)=3, f(2)=8, f(3)=19, f(4)=42. Bound must dominate.
        for (n, truth) in [(1.0, 3.0), (2.0, 8.0), (3.0, 19.0), (4.0, 42.0)] {
            assert!(eval(&sol, n) >= truth, "bound too small at {n}");
        }
    }

    #[test]
    fn step_two_linear_recursion() {
        // f(0) = 0; f(n) = f(n−2) + 1 ⇒ bound n/2 steps of cost 1 ⇒ f(n) ≤ n/2.
        let rec = Expr::add(
            Expr::call(f(), vec![Expr::sub(Expr::var("n"), Expr::num(2.0))]),
            Expr::num(1.0),
        );
        let sol = solve(&single(vec![(vec![Some(0)], 0.0)], rec));
        assert_eq!(sol.schema, SchemaKind::LinearBound);
        assert_eq!(eval(&sol, 10.0), 5.0);
    }

    #[test]
    fn divide_and_conquer_balanced() {
        // f(1) = 1; f(n) = 2 f(n/2) + n  ⇒  Θ(n log n); bound must dominate.
        let n = Expr::var("n");
        let rec = Expr::add(
            Expr::mul(
                Expr::num(2.0),
                Expr::call(f(), vec![Expr::div(n.clone(), Expr::num(2.0))]),
            ),
            n.clone(),
        );
        let sol = solve(&single(vec![(vec![Some(1)], 1.0)], rec));
        assert_eq!(sol.schema, SchemaKind::DivideAndConquer);
        // True value at n=8: 8·log2(8) + 8·f(1)-ish = 8*3 + 8 = 32.
        assert!(eval(&sol, 8.0) >= 32.0);
        // And it should be polynomially bounded, not exponential.
        assert!(eval(&sol, 1024.0) < 1024.0 * 1024.0);
    }

    #[test]
    fn divide_and_conquer_root_dominated() {
        // f(1) = 1; f(n) = f(n/2) + n ⇒ Θ(n).
        let n = Expr::var("n");
        let rec = Expr::add(
            Expr::call(f(), vec![Expr::div(n.clone(), Expr::num(2.0))]),
            n.clone(),
        );
        let sol = solve(&single(vec![(vec![Some(1)], 1.0)], rec));
        assert_eq!(sol.schema, SchemaKind::DivideAndConquer);
        // True value at 16: 16+8+4+2+1 = 31.
        assert!(eval(&sol, 16.0) >= 31.0);
        assert!(eval(&sol, 1024.0) <= 10_000.0);
    }

    #[test]
    fn divide_and_conquer_leaf_dominated() {
        // f(1) = 1; f(n) = 4 f(n/2) + n ⇒ Θ(n²).
        let n = Expr::var("n");
        let rec = Expr::add(
            Expr::mul(
                Expr::num(4.0),
                Expr::call(f(), vec![Expr::div(n.clone(), Expr::num(2.0))]),
            ),
            n.clone(),
        );
        let sol = solve(&single(vec![(vec![Some(1)], 1.0)], rec));
        // True f(16) = 4 f(8)+16; f(2)=4+2=6, f(4)=24+4=28, f(8)=112+8=120, f(16)=480+16=496.
        assert!(eval(&sol, 16.0) >= 496.0);
    }

    #[test]
    fn multiplication_by_half_is_division() {
        // f(0)=1; f(n) = f(0.5 n) + 1 (written as a product) ⇒ logarithmic.
        let n = Expr::var("n");
        let rec = Expr::add(
            Expr::call(f(), vec![Expr::mul(Expr::num(0.5), n.clone())]),
            Expr::num(1.0),
        );
        let sol = solve(&single(vec![(vec![Some(0)], 1.0)], rec));
        assert_eq!(sol.schema, SchemaKind::DivideAndConquer);
        assert!(eval(&sol, 1024.0) <= 40.0);
    }

    #[test]
    fn closed_equation_returns_base_value() {
        let eq = DiffEq {
            func: f(),
            params: vec![sym("n")],
            base_cases: vec![BaseCase {
                when: vec![None],
                value: Expr::var("n"),
            }],
            recursive_cases: vec![],
            combine: CombineMode::Exclusive,
        };
        let sol = solve(&eq);
        assert_eq!(sol.schema, SchemaKind::Closed);
        assert_eq!(sol.closed_form, Expr::var("n"));
    }

    #[test]
    fn missing_base_case_gives_infinity() {
        let rec = Expr::call(f(), vec![Expr::sub(Expr::var("n"), Expr::num(1.0))]);
        let eq = DiffEq {
            func: f(),
            params: vec![sym("n")],
            base_cases: vec![],
            recursive_cases: vec![rec],
            combine: CombineMode::Exclusive,
        };
        let sol = solve(&eq);
        assert_eq!(sol.schema, SchemaKind::Unmatched);
        assert!(sol.closed_form.is_infinite());
    }

    #[test]
    fn growing_argument_gives_infinity() {
        // f(n) = f(n+1) + 1 does not terminate: ∞.
        let rec = Expr::add(
            Expr::call(f(), vec![Expr::add(Expr::var("n"), Expr::num(1.0))]),
            Expr::num(1.0),
        );
        let sol = solve(&single(vec![(vec![Some(0)], 1.0)], rec));
        assert_eq!(sol.schema, SchemaKind::Unmatched);
        assert!(sol.closed_form.is_infinite());
    }

    #[test]
    fn nonlinear_occurrence_gives_infinity() {
        // f(n) = f(n−1) * f(n−1): unsupported.
        let c = Expr::call(f(), vec![Expr::sub(Expr::var("n"), Expr::num(1.0))]);
        let sol = solve(&single(vec![(vec![Some(0)], 1.0)], Expr::mul(c.clone(), c)));
        assert_eq!(sol.schema, SchemaKind::Unmatched);
    }

    #[test]
    fn undefined_rhs_gives_infinity() {
        let rec = Expr::add(
            Expr::call(f(), vec![Expr::sub(Expr::var("n"), Expr::num(1.0))]),
            Expr::Undefined,
        );
        let sol = solve(&single(vec![(vec![Some(0)], 1.0)], rec));
        assert!(sol.closed_form.is_infinite());
    }

    #[test]
    fn two_parameter_append_size_equation() {
        // Ψ(0, y) = y; Ψ(x, y) = Ψ(x−1, y) + 1 ⇒ Ψ(x, y) = x + y.
        let g = FnRef::OutputSize(PredId::parse("append", 3), 2);
        let eq = DiffEq {
            func: g,
            params: vec![sym("n1"), sym("n2")],
            base_cases: vec![BaseCase {
                when: vec![Some(0), None],
                value: Expr::var("n2"),
            }],
            recursive_cases: vec![Expr::add(
                Expr::call(
                    g,
                    vec![Expr::sub(Expr::var("n1"), Expr::num(1.0)), Expr::var("n2")],
                ),
                Expr::num(1.0),
            )],
            combine: CombineMode::Exclusive,
        };
        let sol = solve(&eq);
        assert_eq!(sol.schema, SchemaKind::LinearSummation);
        assert_eq!(sol.closed_form.to_string(), "n1 + n2");
        assert_eq!(
            sol.apply(&[Expr::Num(3.0), Expr::Num(4.0)]).as_const(),
            Some(7.0)
        );
    }

    #[test]
    fn two_parameter_cost_with_symbolic_base() {
        // Cost(0, y) = y + 1; Cost(x, y) = Cost(x−1, y) + 1 ⇒ x + y + 1.
        let eq = DiffEq {
            func: f(),
            params: vec![sym("n1"), sym("n2")],
            base_cases: vec![BaseCase {
                when: vec![Some(0), None],
                value: Expr::add(Expr::var("n2"), Expr::num(1.0)),
            }],
            recursive_cases: vec![Expr::add(
                Expr::call(
                    f(),
                    vec![Expr::sub(Expr::var("n1"), Expr::num(1.0)), Expr::var("n2")],
                ),
                Expr::num(1.0),
            )],
            combine: CombineMode::Exclusive,
        };
        let sol = solve(&eq);
        assert_eq!(sol.closed_form.to_string(), "n1 + n2 + 1");
    }

    #[test]
    fn mutual_recursion_even_odd() {
        // Cost_even(0) = 1; Cost_even(n) = Cost_odd(n−1) + 1;
        // Cost_odd(n) = Cost_even(n−1) + 1.
        let even = FnRef::Cost(PredId::parse("even", 1));
        let odd = FnRef::Cost(PredId::parse("odd", 1));
        let n = Expr::var("n");
        let even_eq = DiffEq {
            func: even,
            params: vec![sym("n")],
            base_cases: vec![BaseCase {
                when: vec![Some(0)],
                value: Expr::num(1.0),
            }],
            recursive_cases: vec![Expr::add(
                Expr::call(odd, vec![Expr::sub(n.clone(), Expr::num(1.0))]),
                Expr::num(1.0),
            )],
            combine: CombineMode::Exclusive,
        };
        let odd_eq = DiffEq {
            func: odd,
            params: vec![sym("n")],
            base_cases: vec![BaseCase {
                when: vec![Some(1)],
                value: Expr::num(2.0),
            }],
            recursive_cases: vec![Expr::add(
                Expr::call(even, vec![Expr::sub(n.clone(), Expr::num(1.0))]),
                Expr::num(1.0),
            )],
            combine: CombineMode::Exclusive,
        };
        let sols = solve_system(&[even_eq, odd_eq]);
        assert_eq!(sols.len(), 2);
        for sol in &sols {
            assert_eq!(sol.schema, SchemaKind::SystemElimination, "{:?}", sol.func);
            let v = sol.apply(&[Expr::Num(10.0)]).as_const().unwrap();
            // The true cost is about n+1; the bound must dominate it and stay
            // polynomial (here linear-ish).
            assert!(v >= 11.0, "bound {v} too small for {:?}", sol.func);
            assert!(
                v <= 100.0,
                "bound {v} unexpectedly large for {:?}",
                sol.func
            );
        }
    }

    #[test]
    fn system_with_self_recursive_member_solves_directly() {
        let g = FnRef::Sym(sym("g"));
        let eq = DiffEq {
            func: g,
            params: vec![sym("n")],
            base_cases: vec![BaseCase {
                when: vec![Some(0)],
                value: Expr::num(0.0),
            }],
            recursive_cases: vec![Expr::add(
                Expr::call(g, vec![Expr::sub(Expr::var("n"), Expr::num(1.0))]),
                Expr::num(2.0),
            )],
            combine: CombineMode::Exclusive,
        };
        let sols = solve_system(&[eq]);
        assert_eq!(sols[0].closed_form.to_string(), "2*n");
    }

    #[test]
    fn solution_apply_checks_arity() {
        let sol = Solution {
            func: f(),
            params: vec![sym("n")],
            closed_form: Expr::var("n"),
            schema: SchemaKind::Closed,
        };
        assert!(sol.apply(&[]).is_undefined());
        assert_eq!(sol.apply(&[Expr::Num(3.0)]).as_const(), Some(3.0));
    }

    /// `merge/3`'s shape: two exclusive recursive cases, each shrinking a
    /// different parameter by one and adding 1, over two base cases that
    /// each pin one parameter at 0 and contribute `values`.
    fn merge_shaped(values: [Expr; 2]) -> DiffEq {
        let (n1, n2) = (Expr::var("n1"), Expr::var("n2"));
        let one_less = |n: &Expr| Expr::sub(n.clone(), Expr::num(1.0));
        let case = |args| Expr::add(Expr::call(f(), args), Expr::num(1.0));
        let [first, second] = values;
        DiffEq {
            func: f(),
            params: vec![sym("n1"), sym("n2")],
            base_cases: vec![
                BaseCase {
                    when: vec![Some(0), None],
                    value: first,
                },
                BaseCase {
                    when: vec![None, Some(0)],
                    value: second,
                },
            ],
            recursive_cases: vec![
                case(vec![one_less(&n1), n2.clone()]),
                case(vec![n1.clone(), one_less(&n2)]),
            ],
            combine: CombineMode::Exclusive,
        }
    }

    #[test]
    fn exclusive_cases_shrinking_different_parameters_solve_as_one_recurrence() {
        // A run alternates between the cases, so it takes n1 + n2 levels:
        // no one parameter shrinks in every call, their sum does.
        let cost = solve(&merge_shaped([Expr::num(1.0), Expr::num(1.0)]));
        assert_eq!(cost.schema, SchemaKind::LinearSummation);
        assert_eq!(cost.closed_form.to_string(), "n1 + n2 + 1");
        // The base value is not added on top of the walk: merging n1 and
        // n2 elements outputs n1 + n2, not max(n1, n2) + n1 + n2.
        let size = solve(&merge_shaped([Expr::var("n2"), Expr::var("n1")]));
        assert_eq!(size.closed_form.to_string(), "n1 + n2");
    }

    #[test]
    fn an_additive_parameter_sum_walk_is_charged_every_matching_base_case() {
        // p([], _). p(_, []). p(A, [_, _|T]) :- p([x|A], T).
        // The clauses are not exclusive: at p([], []) both base clauses
        // resolve, so the bound at sum 0 is at least 2, not max(1, 1).
        let (n1, n2) = (Expr::var("n1"), Expr::var("n2"));
        let base = |when| BaseCase {
            when,
            value: Expr::num(1.0),
        };
        let call = Expr::call(
            f(),
            vec![Expr::add(n1, Expr::num(1.0)), Expr::sub(n2, Expr::num(2.0))],
        );
        let eq = DiffEq {
            func: f(),
            params: vec![sym("n1"), sym("n2")],
            base_cases: vec![base(vec![Some(0), None]), base(vec![None, Some(0)])],
            recursive_cases: vec![Expr::add(call, Expr::num(1.0))],
            combine: CombineMode::Additive,
        };
        let sol = solve(&eq);
        let at = |a: f64, b: f64| sol.apply(&[Expr::Num(a), Expr::Num(b)]).as_const().unwrap();
        assert!(at(0.0, 0.0) >= 2.0, "{}", sol.closed_form);
        assert_eq!(sol.schema, SchemaKind::LinearSummation);
    }

    #[test]
    fn additive_combination_of_recursive_clauses() {
        // Two recursive clauses, not exclusive: their costs add.
        // f(0)=1; f(n) = [f(n−1)+1] + [f(n−1)+2] = 2 f(n−1) + 3.
        let n = Expr::var("n");
        let c1 = Expr::add(
            Expr::call(f(), vec![Expr::sub(n.clone(), Expr::num(1.0))]),
            Expr::num(1.0),
        );
        let c2 = Expr::add(
            Expr::call(f(), vec![Expr::sub(n.clone(), Expr::num(1.0))]),
            Expr::num(2.0),
        );
        let eq = DiffEq {
            func: f(),
            params: vec![sym("n")],
            base_cases: vec![BaseCase {
                when: vec![Some(0)],
                value: Expr::num(1.0),
            }],
            recursive_cases: vec![c1, c2],
            combine: CombineMode::Additive,
        };
        let sol = solve(&eq);
        assert_eq!(sol.schema, SchemaKind::GeometricConstant);
        // f(1) = 2·1+3 = 5, f(2) = 13; exact schema: (1+3)·2^n − 3.
        assert_eq!(eval(&sol, 1.0), 5.0);
        assert_eq!(eval(&sol, 2.0), 13.0);
    }
}
