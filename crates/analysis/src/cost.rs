//! Cost estimation (Section 4).
//!
//! The cost of a clause is bounded by the one resolution of its head plus the
//! cost of its body literals (every literal is assumed to succeed, giving an
//! upper bound); the cost of a predicate is the sum of its clause costs, or —
//! when clauses can be shown mutually exclusive by first-argument indexing or
//! arithmetic guards — the maximum over the exclusive groups.
//!
//! Costs are counted in resolutions, the unit the engine's `resolutions`
//! counter counts: a clause head costs 1, and a builtin or control atom 0.

use crate::diffeq::CombineMode;
use crate::expr::{Expr, FnRef};
use crate::sizerel::ClauseSizeAnalysis;
use granlog_ir::builtins::{self, Builtin};
use granlog_ir::symbol::well_known;
use granlog_ir::term::{AsTerm, Cell, TermRef};
use granlog_ir::{Clause, IndexKey, ModeDecl, PredId, Program, Symbol};
use std::collections::{BTreeMap, BTreeSet};

/// Whether `pred` is a row of [`granlog_ir::builtins`] or a control atom
/// (`true`, `fail`, `false`, `!`): a goal the engine runs without a
/// resolution, so the analysis charges it 0.
fn is_builtin_or_control(pred: PredId) -> bool {
    let wk = well_known::get();
    let control = pred.arity == 0 && [wk.true_, wk.fail, wk.false_, wk.cut].contains(&pred.name);
    control || builtins::lookup(pred.name, pred.arity).is_some()
}

/// Closed-form cost information for an already-analysed predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct PredCost {
    /// The predicate's declared input positions (0-based), in order.
    pub input_positions: Vec<usize>,
    /// The parameter symbols corresponding to `input_positions`.
    pub params: Vec<Symbol>,
    /// Closed-form cost upper bound in terms of `params`.
    pub cost: Expr,
}

impl PredCost {
    /// Applies the cost function to concrete argument size expressions.
    pub fn apply(&self, args: &[Expr]) -> Expr {
        self.cost.apply(&self.params, args)
    }
}

/// A database of solved cost functions, filled in call-graph topological
/// order by the pipeline.
pub type CostDb = BTreeMap<PredId, PredCost>;

/// Context for clause-level cost estimation.
#[derive(Debug, Clone)]
pub struct CostContext<'a> {
    /// Mode declarations (declared or inferred) for every predicate.
    pub modes: &'a BTreeMap<PredId, ModeDecl>,
    /// Already-solved cost functions.
    pub cost_db: &'a CostDb,
    /// Members of the SCC currently being analysed.
    pub scc: &'a BTreeSet<PredId>,
}

/// Computes the cost expression of a clause (the paper's equation (3)):
/// one resolution for the head plus the cost of every body literal, with the
/// literals' argument sizes taken from the clause's size analysis.
///
/// Calls to predicates in the current SCC stay symbolic
/// (`Call(Cost(p), sizes)`), turning the result into a difference equation.
/// Calls to predicates with no known cost yield `Undefined` (which the solver
/// turns into ∞ — "always parallelise").
pub fn clause_cost(clause: &Clause, sizes: &ClauseSizeAnalysis, ctx: &CostContext<'_>) -> Expr {
    let mut total = Expr::Num(1.0);
    for (j, literal) in clause.body_literals().into_iter().enumerate() {
        total = Expr::add(total, literal_cost(literal, j, sizes, ctx));
    }
    total.simplify()
}

fn literal_cost(
    literal: TermRef<'_>,
    index: usize,
    sizes: &ClauseSizeAnalysis,
    ctx: &CostContext<'_>,
) -> Expr {
    let Some(pred) = PredId::of_term(literal) else {
        // A variable goal (call/N style): unknown cost.
        return Expr::Undefined;
    };
    if is_builtin_or_control(pred) {
        return Expr::Num(0.0);
    }
    let decl = granlog_ir::modes::mode_or_default(ctx.modes, pred);
    let inputs = decl.input_positions();
    let args = sizes.literal_input_args(index, &inputs);
    if ctx.scc.contains(&pred) {
        Expr::Call(FnRef::Cost(pred), args)
    } else if let Some(cost) = ctx.cost_db.get(&pred) {
        cost.apply(&args)
    } else {
        Expr::Undefined
    }
}

/// Determines whether the clauses of a predicate are pairwise mutually
/// exclusive, so that the predicate-level cost may take the maximum of the
/// clause costs instead of their sum (the paper's indexing refinement).
///
/// Two clauses are considered exclusive if, at some input argument position,
///
/// * their head arguments carry *distinct* non-variable principal functors
///   (first-argument-style indexing), or
/// * both clauses carry leading arithmetic comparison guards over that
///   argument's variables (assumed complementary, as `X =< P` / `X > P` in
///   `partition/4`), or
/// * one clause carries such a guard and the other has a non-variable key
///   there (the guard is assumed to exclude the specific constant, as
///   `M > 1` excludes the `fib(0,_)` / `fib(1,_)` facts).
///
/// The predicate is exclusive when every pair of its clauses is. This is a
/// heuristic sufficient condition in the spirit of the paper's "mutually
/// exclusive groups of clauses"; when it fails the analysis falls back to the
/// additive (always sound) combination.
pub fn clauses_are_exclusive(program: &Program, pred: PredId, modes: &ModeDecl) -> bool {
    let clauses = program.clauses_of(pred);
    if clauses.len() <= 1 {
        return true;
    }
    let positions = modes.input_positions();
    // Per clause and input position: (the head argument unless it is a
    // variable, guarded).
    let info: Vec<Vec<(Option<TermRef<'_>>, bool)>> = clauses
        .iter()
        .map(|clause| {
            let guards = leading_guards(clause);
            positions
                .iter()
                .map(|&pos| {
                    let arg = clause.head.args().at(pos);
                    let guarded = guards
                        .iter()
                        .any(|guard| guard.args().any(|a| share_a_variable(arg, a)));
                    ((!arg.is_var()).then_some(arg), guarded)
                })
                .collect()
        })
        .collect();

    for i in 0..info.len() {
        for j in (i + 1)..info.len() {
            let pair_exclusive = (0..positions.len()).any(|p| {
                let (ka, ga) = &info[i][p];
                let (kb, gb) = &info[j][p];
                match (ka, kb) {
                    (Some(a), Some(b)) if IndexKey::of_term(*a) != IndexKey::of_term(*b) => true,
                    (Some(_), Some(_)) => *ga && *gb,
                    (Some(_), None) => *gb,
                    (None, Some(_)) => *ga,
                    (None, None) => *ga && *gb,
                }
            });
            if !pair_exclusive {
                return false;
            }
        }
    }
    true
}

/// The arithmetic comparisons the clause body starts with.
fn leading_guards(clause: &Clause) -> Vec<TermRef<'_>> {
    let is_guard = |literal: &TermRef<'_>| {
        let builtin = PredId::of_term(*literal).and_then(|p| builtins::lookup(p.name, p.arity));
        matches!(
            builtin.map(|row| row.id),
            Some(Builtin::NumCompare(_) | Builtin::StructEq | Builtin::StructNe)
        )
    };
    let literals = clause.body_literals().into_iter();
    literals.take_while(is_guard).collect()
}

fn share_a_variable(a: TermRef<'_>, b: TermRef<'_>) -> bool {
    let shared = |c: &Cell| matches!(*c, Cell::Var(v) if b.contains_var(v));
    a.cells().iter().any(shared)
}

/// The combine mode to use for a predicate's difference equations.
pub fn combine_mode(program: &Program, pred: PredId, modes: &ModeDecl) -> CombineMode {
    if clauses_are_exclusive(program, pred, modes) {
        CombineMode::Exclusive
    } else {
        CombineMode::Additive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddg::Ddg;
    use crate::measure::assign_measures;
    use crate::sizerel::{analyze_clause, SizeContext, SizeDb};
    use granlog_ir::modes::infer_modes;
    use granlog_ir::parser::parse_program;
    use granlog_ir::Symbol;

    const NREV: &str = r#"
        :- mode nrev(+, -).
        :- mode append(+, +, -).
        nrev([], []).
        nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
        append([], L, L).
        append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
    "#;

    struct Setup {
        program: Program,
        modes: BTreeMap<PredId, ModeDecl>,
        measures: BTreeMap<PredId, crate::measure::MeasureVec>,
    }

    fn setup(src: &str) -> Setup {
        let program = parse_program(src).unwrap();
        let modes = infer_modes(&program);
        let measures = assign_measures(&program);
        Setup {
            program,
            modes,
            measures,
        }
    }

    fn clause_sizes(
        s: &Setup,
        size_db: &SizeDb,
        scc: &BTreeSet<PredId>,
        pred: PredId,
        idx: usize,
    ) -> (Clause, ClauseSizeAnalysis) {
        let clause = s.program.clauses_of(pred)[idx].clone();
        let ddg = Ddg::build(&clause, &s.modes[&pred]);
        let ctx = SizeContext {
            modes: &s.modes,
            measures: &s.measures,
            size_db,
            scc,
        };
        let analysis = analyze_clause(&ddg, &ctx);
        (clause, analysis)
    }

    #[test]
    fn append_clause_costs_match_appendix() {
        let s = setup(NREV);
        let append = PredId::parse("append", 3);
        let scc: BTreeSet<PredId> = [append].into_iter().collect();
        let size_db = SizeDb::new();
        let cost_db = CostDb::new();
        let ctx = CostContext {
            modes: &s.modes,
            cost_db: &cost_db,
            scc: &scc,
        };
        // Base clause: cost 1 (head unification only).
        let (c0, a0) = clause_sizes(&s, &size_db, &scc, append, 0);
        assert_eq!(clause_cost(&c0, &a0, &ctx), Expr::Num(1.0));
        // Recursive clause: 1 + Cost_append(n1 − 1, n2).
        let (c1, a1) = clause_sizes(&s, &size_db, &scc, append, 1);
        let cost = clause_cost(&c1, &a1, &ctx);
        assert_eq!(cost.to_string(), "cost_append/3(n1 - 1, n2) + 1");
    }

    #[test]
    fn nrev_clause_cost_uses_solved_append_cost() {
        let s = setup(NREV);
        let nrev = PredId::parse("nrev", 2);
        let append = PredId::parse("append", 3);
        let scc: BTreeSet<PredId> = [nrev].into_iter().collect();
        // The size analysis has already been completed (Ψ_append(x, y) = x + y,
        // Ψ_nrev(n) = n) and Cost_append(x, y) = x + 1 is known (the Appendix);
        // only Cost_nrev is still being solved, so the size pass uses the full
        // size database while the cost pass keeps nrev symbolic.
        let mut size_db = SizeDb::new();
        size_db.insert(
            append,
            crate::sizerel::PredSizes {
                input_positions: vec![0, 1],
                params: vec![Symbol::intern("n1"), Symbol::intern("n2")],
                outputs: [(2usize, Expr::add(Expr::var("n1"), Expr::var("n2")))]
                    .into_iter()
                    .collect(),
            },
        );
        size_db.insert(
            nrev,
            crate::sizerel::PredSizes {
                input_positions: vec![0],
                params: vec![Symbol::intern("n")],
                outputs: [(1usize, Expr::var("n"))].into_iter().collect(),
            },
        );
        let mut cost_db = CostDb::new();
        cost_db.insert(
            append,
            PredCost {
                input_positions: vec![0, 1],
                params: vec![Symbol::intern("n1"), Symbol::intern("n2")],
                cost: Expr::add(Expr::var("n1"), Expr::num(1.0)),
            },
        );
        let ctx = CostContext {
            modes: &s.modes,
            cost_db: &cost_db,
            scc: &scc,
        };
        // The size pass sees the solved Ψ functions (empty "still-symbolic" SCC).
        let (c1, a1) = clause_sizes(&s, &size_db, &BTreeSet::new(), nrev, 1);
        let cost = clause_cost(&c1, &a1, &ctx);
        // 1 + Cost_nrev(n−1) + Cost_append(n−1, 1) = Cost_nrev(n−1) + n + 1.
        assert_eq!(cost.to_string(), "cost_nrev/2(n - 1) + n + 1");
    }

    #[test]
    fn builtins_cost_zero_resolutions() {
        let s = setup(":- mode p(+, -). p(X, Y) :- X > 1, Y is X - 1.");
        let p = PredId::parse("p", 2);
        let scc = BTreeSet::new();
        let size_db = SizeDb::new();
        let cost_db = CostDb::new();
        let (c, a) = clause_sizes(&s, &size_db, &scc, p, 0);
        let ctx = CostContext {
            modes: &s.modes,
            cost_db: &cost_db,
            scc: &scc,
        };
        assert_eq!(clause_cost(&c, &a, &ctx), Expr::Num(1.0));
    }

    #[test]
    fn unknown_predicate_cost_is_undefined() {
        let s = setup(":- mode p(+). p(X) :- mystery(X).");
        let p = PredId::parse("p", 1);
        let scc = BTreeSet::new();
        let (c, a) = clause_sizes(&s, &SizeDb::new(), &scc, p, 0);
        let cost_db = CostDb::new();
        let ctx = CostContext {
            modes: &s.modes,
            cost_db: &cost_db,
            scc: &scc,
        };
        assert!(clause_cost(&c, &a, &ctx).is_undefined());
    }

    #[test]
    fn exclusivity_by_first_argument_indexing() {
        let s = setup(NREV);
        let append = PredId::parse("append", 3);
        assert!(clauses_are_exclusive(&s.program, append, &s.modes[&append]));
        let nrev = PredId::parse("nrev", 2);
        assert!(clauses_are_exclusive(&s.program, nrev, &s.modes[&nrev]));
    }

    #[test]
    fn exclusivity_by_arithmetic_guard() {
        let s = setup(
            r#"
            :- mode fib(+, -).
            fib(0, 0).
            fib(1, 1).
            fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                         fib(M1, N1), fib(M2, N2), N is N1 + N2.
            "#,
        );
        let fib = PredId::parse("fib", 2);
        assert!(clauses_are_exclusive(&s.program, fib, &s.modes[&fib]));
        assert_eq!(
            combine_mode(&s.program, fib, &s.modes[&fib]),
            CombineMode::Exclusive
        );
    }

    #[test]
    fn non_exclusive_clauses_detected() {
        let s = setup(
            r#"
            :- mode color(+, -).
            color(X, red) :- warm(X).
            color(X, blue) :- cold(X).
            warm(_). cold(_).
            "#,
        );
        let color = PredId::parse("color", 2);
        assert!(!clauses_are_exclusive(&s.program, color, &s.modes[&color]));
        assert_eq!(
            combine_mode(&s.program, color, &s.modes[&color]),
            CombineMode::Additive
        );
    }

    #[test]
    fn duplicate_keys_are_not_exclusive() {
        let s = setup(
            r#"
            :- mode p(+, -).
            p([H|_], H).
            p([_|T], X) :- p(T, X).
            "#,
        );
        let p = PredId::parse("p", 2);
        // Both clauses key on './2': not exclusive.
        assert!(!clauses_are_exclusive(&s.program, p, &s.modes[&p]));
    }

    #[test]
    fn single_clause_predicates_are_trivially_exclusive() {
        let s = setup(":- mode q(+). q(X) :- r(X). r(_).");
        let q = PredId::parse("q", 1);
        assert!(clauses_are_exclusive(&s.program, q, &s.modes[&q]));
    }

    #[test]
    fn pred_cost_apply() {
        let cost = PredCost {
            input_positions: vec![0],
            params: vec![Symbol::intern("n")],
            cost: Expr::add(
                Expr::mul(Expr::num(0.5), Expr::pow(Expr::var("n"), Expr::num(2.0))),
                Expr::num(1.0),
            ),
        };
        assert_eq!(cost.apply(&[Expr::Num(10.0)]).as_const(), Some(51.0));
        assert!(cost.apply(&[]).is_undefined());
    }

    #[test]
    fn grain_test_builtin_is_recognised() {
        let free = |name, arity| is_builtin_or_control(PredId::parse(name, arity));
        assert!(free("$grain_ge", 3));
        assert!(free("is", 2));
        assert!(free("!", 0));
        assert!(!free("append", 3));
    }
}
