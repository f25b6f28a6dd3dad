//! Difference equations (the output of Sections 3 and 4, the input of
//! Section 5).
//!
//! Both argument-size relations of recursive predicates and cost relations
//! are difference equations: a function `f` of the head's input sizes is
//! defined by *base cases* (contributed by nonrecursive clauses) and
//! *recursive cases* whose right-hand sides apply `f` (or, for mutual
//! recursion, other functions of the same SCC) to smaller arguments.

use crate::expr::{Expr, FnRef};
use granlog_ir::Symbol;
use std::collections::BTreeSet;
use std::fmt;

/// How the per-clause contributions of a predicate combine into the
/// predicate-level equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CombineMode {
    /// No call runs two clauses' bodies (`cost::combine_mode`): take the
    /// maximum of the applicable clauses — the paper's refinement of
    /// equation (1).
    Exclusive,
    /// No exclusivity information: sum the clause costs/sizes (the paper's
    /// conservative default, equation (1)).
    Additive,
}

impl CombineMode {
    /// Combines clause contributions: max for an exclusive group, sum
    /// otherwise.
    pub(crate) fn apply(self, values: &[Expr]) -> Expr {
        match (values, self) {
            ([], _) => Expr::Num(0.0),
            ([value], _) => value.clone(),
            (_, CombineMode::Exclusive) => Expr::Max(values.to_vec()).simplify(),
            (_, CombineMode::Additive) => Expr::Add(values.to_vec()).simplify(),
        }
    }
}

/// A base case: the clause applies when the induction parameters have the
/// given constant sizes (a `None` entry means "any size"), and contributes the
/// given value.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseCase {
    /// Constant input sizes handled by the clause, one entry per parameter.
    pub when: Vec<Option<i64>>,
    /// The clause's contribution (an expression over the parameters).
    pub value: Expr,
}

/// A difference equation for a single function.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEq {
    /// The function being defined.
    pub func: FnRef,
    /// Parameter symbols, one per input argument position of the predicate.
    pub params: Vec<Symbol>,
    /// Contributions of nonrecursive clauses.
    pub base_cases: Vec<BaseCase>,
    /// Right-hand sides of recursive clauses; each contains at least one
    /// application of `func` (or of another function of the same SCC).
    pub recursive_cases: Vec<Expr>,
    /// How the clause contributions combine.
    pub combine: CombineMode,
}

impl DiffEq {
    /// Assembles a difference equation from per-clause contributions.
    ///
    /// `clauses` pairs, for every clause of the predicate, the constant sizes
    /// of its head input positions (where defined) with the clause's
    /// contribution expression. A clause is a base case if its contribution
    /// applies no function of `scc_funcs`, and a recursive case otherwise.
    /// Under `Additive`, a base case whose head pins no input size applies
    /// at every size, so it is also added to the first recursive case (the
    /// recursive cases are summed, so it is charged once per level).
    pub fn assemble(
        func: FnRef,
        params: Vec<Symbol>,
        clauses: Vec<(Vec<Option<i64>>, Expr)>,
        scc_funcs: &BTreeSet<FnRef>,
        combine: CombineMode,
    ) -> DiffEq {
        let mut base_cases = Vec::new();
        let mut recursive_cases = Vec::new();
        let mut everywhere = Vec::new();
        for (when, value) in clauses {
            let is_recursive = value.calls().iter().any(|c| scc_funcs.contains(c));
            if is_recursive {
                recursive_cases.push(value);
            } else {
                if combine == CombineMode::Additive && when.iter().all(Option::is_none) {
                    everywhere.push(value.clone());
                }
                base_cases.push(BaseCase { when, value });
            }
        }
        // Additive sums the recursive cases, so one of them carries it.
        if let (Some(first), false) = (recursive_cases.first_mut(), everywhere.is_empty()) {
            *first = Expr::sum(std::iter::once(first.clone()).chain(everywhere));
        }
        DiffEq {
            func,
            params,
            base_cases,
            recursive_cases,
            combine,
        }
    }

    /// Returns `true` if the equation has no recursive case (the predicate is
    /// effectively nonrecursive for this function).
    pub fn is_closed(&self) -> bool {
        self.recursive_cases.is_empty()
    }

    /// The combined right-hand side of the recursive cases (max for exclusive
    /// clause groups, sum otherwise).
    pub fn combined_recursive_rhs(&self) -> Expr {
        self.combine.apply(&self.recursive_cases)
    }

    /// The combined value of the base cases.
    pub fn combined_base_value(&self) -> Expr {
        let values: Vec<Expr> = self.base_cases.iter().map(|b| b.value.clone()).collect();
        self.combine.apply(&values)
    }

    /// The largest constant mentioned by any base case for parameter `idx`
    /// (the boundary point `n0` of the recursion), if any.
    pub fn base_point(&self, idx: usize) -> Option<i64> {
        self.base_cases
            .iter()
            .filter_map(|b| b.when.get(idx).copied().flatten())
            .max()
    }

    /// All functions of the same system referenced by the recursive cases.
    pub fn referenced_functions(&self) -> BTreeSet<FnRef> {
        self.recursive_cases
            .iter()
            .flat_map(|e| e.calls())
            .collect()
    }
}

impl fmt::Display for DiffEq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params: Vec<String> = self.params.iter().map(|p| p.to_string()).collect();
        for b in &self.base_cases {
            let args: Vec<String> = b
                .when
                .iter()
                .zip(&params)
                .map(|(w, p)| match w {
                    Some(c) => c.to_string(),
                    None => p.clone(),
                })
                .collect();
            writeln!(f, "{}({}) = {}", self.func, args.join(", "), b.value)?;
        }
        for r in &self.recursive_cases {
            writeln!(f, "{}({}) = {}", self.func, params.join(", "), r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::PredId;

    fn nrev_cost_eq() -> DiffEq {
        // Cost_nrev(0) = 1; Cost_nrev(n) = Cost_nrev(n-1) + n + 1.
        let nrev = PredId::parse("nrev", 2);
        let f = FnRef::Cost(nrev);
        let n = Expr::var("n");
        let rec = Expr::sum(vec![
            Expr::call(f, vec![Expr::sub(n.clone(), Expr::num(1.0))]),
            n.clone(),
            Expr::num(1.0),
        ]);
        DiffEq::assemble(
            f,
            vec![Symbol::intern("n")],
            vec![(vec![Some(0)], Expr::num(1.0)), (vec![None], rec)],
            &[f].into_iter().collect(),
            CombineMode::Exclusive,
        )
    }

    #[test]
    fn assemble_splits_base_and_recursive() {
        let eq = nrev_cost_eq();
        assert_eq!(eq.base_cases.len(), 1);
        assert_eq!(eq.recursive_cases.len(), 1);
        assert!(!eq.is_closed());
        assert_eq!(eq.base_cases[0].when, vec![Some(0)]);
        assert_eq!(eq.base_cases[0].value, Expr::Num(1.0));
        assert_eq!(eq.base_point(0), Some(0));
    }

    #[test]
    fn combined_base_and_recursive_rhs() {
        let eq = nrev_cost_eq();
        assert_eq!(eq.combined_base_value(), Expr::Num(1.0));
        let rhs = eq.combined_recursive_rhs();
        assert!(rhs.contains_call(eq.func));
    }

    #[test]
    fn an_additive_clause_that_pins_nothing_is_charged_at_every_level() {
        // mem(X, [X|_]) matches at every length, so under `Additive` its 1
        // joins the recursive case; under `Exclusive` it stays a base case.
        let f = FnRef::Cost(PredId::parse("mem", 2));
        let rec = Expr::add(
            Expr::call(f, vec![Expr::sub(Expr::var("n"), Expr::num(1.0))]),
            Expr::num(1.0),
        );
        let assemble = |combine| {
            let clauses = vec![(vec![None], Expr::num(1.0)), (vec![None], rec.clone())];
            DiffEq::assemble(
                f,
                vec![Symbol::intern("n")],
                clauses,
                &[f].into_iter().collect(),
                combine,
            )
        };
        let additive = assemble(CombineMode::Additive);
        assert_eq!(additive.base_cases.len(), 1);
        assert_eq!(
            additive.recursive_cases,
            vec![Expr::sum([rec.clone(), Expr::num(1.0)])]
        );
        let exclusive = assemble(CombineMode::Exclusive);
        assert_eq!(exclusive.base_cases.len(), 1);
        assert_eq!(exclusive.recursive_cases, vec![rec.clone()]);
        // With two recursive clauses it joins only the first: the cases
        // are summed, so it is charged once per level, not twice.
        let rec2 = Expr::add(
            Expr::call(f, vec![Expr::sub(Expr::var("n"), Expr::num(2.0))]),
            Expr::num(1.0),
        );
        let clauses = vec![
            (vec![None], Expr::num(1.0)),
            (vec![None], rec.clone()),
            (vec![None], rec2.clone()),
        ];
        let two = DiffEq::assemble(
            f,
            vec![Symbol::intern("n")],
            clauses,
            &[f].into_iter().collect(),
            CombineMode::Additive,
        );
        assert_eq!(
            two.recursive_cases,
            vec![Expr::sum([rec, Expr::num(1.0)]), rec2]
        );
    }

    #[test]
    fn additive_combination_sums_clauses() {
        let p = PredId::parse("p", 1);
        let f = FnRef::Cost(p);
        let eq = DiffEq {
            func: f,
            params: vec![Symbol::intern("n")],
            base_cases: vec![
                BaseCase {
                    when: vec![Some(0)],
                    value: Expr::num(1.0),
                },
                BaseCase {
                    when: vec![Some(0)],
                    value: Expr::num(2.0),
                },
            ],
            recursive_cases: vec![Expr::num(3.0), Expr::num(4.0)],
            combine: CombineMode::Additive,
        };
        assert_eq!(eq.combined_base_value(), Expr::Num(3.0));
        assert_eq!(eq.combined_recursive_rhs(), Expr::Num(7.0));
    }

    #[test]
    fn exclusive_combination_takes_max() {
        let p = PredId::parse("p", 1);
        let f = FnRef::Cost(p);
        let eq = DiffEq {
            func: f,
            params: vec![Symbol::intern("n")],
            base_cases: vec![
                BaseCase {
                    when: vec![Some(0)],
                    value: Expr::num(1.0),
                },
                BaseCase {
                    when: vec![Some(1)],
                    value: Expr::num(5.0),
                },
            ],
            recursive_cases: vec![],
            combine: CombineMode::Exclusive,
        };
        assert_eq!(eq.combined_base_value(), Expr::Num(5.0));
        assert_eq!(eq.base_point(0), Some(1));
        assert!(eq.is_closed());
    }

    #[test]
    fn referenced_functions_cover_mutual_recursion() {
        let even = FnRef::Cost(PredId::parse("even", 1));
        let odd = FnRef::Cost(PredId::parse("odd", 1));
        let n = Expr::var("n");
        let eq = DiffEq::assemble(
            even,
            vec![Symbol::intern("n")],
            vec![
                (vec![Some(0)], Expr::num(1.0)),
                (
                    vec![None],
                    Expr::add(
                        Expr::call(odd, vec![Expr::sub(n.clone(), Expr::num(1.0))]),
                        Expr::num(1.0),
                    ),
                ),
            ],
            &[even, odd].into_iter().collect(),
            CombineMode::Exclusive,
        );
        assert_eq!(eq.referenced_functions(), [odd].into_iter().collect());
    }

    #[test]
    fn display_shows_all_cases() {
        let eq = nrev_cost_eq();
        let shown = eq.to_string();
        assert!(shown.contains("cost_nrev/2(0) = 1"));
        assert!(shown.contains("cost_nrev/2(n) = cost_nrev/2(n - 1) + n + 1"));
    }

    #[test]
    fn base_point_with_no_constant_cases() {
        let p = PredId::parse("p", 1);
        let f = FnRef::Cost(p);
        let eq = DiffEq {
            func: f,
            params: vec![Symbol::intern("n")],
            base_cases: vec![BaseCase {
                when: vec![None],
                value: Expr::var("n"),
            }],
            recursive_cases: vec![],
            combine: CombineMode::Exclusive,
        };
        assert_eq!(eq.base_point(0), None);
    }
}
