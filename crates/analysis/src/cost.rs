//! Cost estimation (Section 4), in resolutions, the unit the engine's
//! `resolutions` counter counts. A clause costs one for its head plus its
//! body literals, each assumed to succeed once (a builtin or control atom
//! costs 0). A predicate sums its clauses' costs, or takes their maximum
//! where no call runs two bodies ([`combine_mode`]) once each is charged
//! the sibling heads a call resolves beside it (`charge_sibling_heads`).

use crate::diffeq::CombineMode;
use crate::expr::{Expr, FnRef};
use crate::sizerel::ClauseSizeAnalysis;
use granlog_ir::builtins;
use granlog_ir::symbol::well_known;
use granlog_ir::{Clause, ClauseShape, ModeDecl, PredId, Symbol};
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
    /// The parameter symbols, one per input position in order.
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

/// The cost of a clause (the paper's equation (3)), its literals' sizes
/// taken from the clause's size analysis. Calls to the current SCC stay
/// symbolic (`Call(Cost(p), sizes)`), making a difference equation; a call
/// with no known cost is `Undefined`, which the solver turns into ∞
/// ("always parallelise").
pub fn clause_cost(clause: &Clause, sizes: &ClauseSizeAnalysis, ctx: &CostContext<'_>) -> Expr {
    let literal_cost = |j, literal| match PredId::of_term(literal) {
        // A variable goal (call/N style): unknown cost.
        None => Expr::Undefined,
        Some(pred) if is_builtin_or_control(pred) => Expr::Num(0.0),
        Some(pred) => {
            let inputs = granlog_ir::modes::mode_or_default(ctx.modes, pred).input_positions();
            let args = sizes.literal_input_args(j, &inputs);
            match ctx.cost_db.get(&pred) {
                _ if ctx.scc.contains(&pred) => Expr::Call(FnRef::Cost(pred), args),
                Some(cost) => cost.apply(&args),
                None => Expr::Undefined,
            }
        }
    };
    let mut total = Expr::Num(1.0);
    for (j, literal) in clause.body_literals().into_iter().enumerate() {
        total = Expr::add(total, literal_cost(j, literal));
    }
    total.simplify()
}

/// `Exclusive` when every two clauses whose heads overlap have guards that
/// exclude each other, so at most one body runs on a call; else `Additive`.
pub fn combine_mode(shapes: &[ClauseShape<'_>]) -> CombineMode {
    let exclude = |a: &ClauseShape<'_>, b| !a.heads_overlap(b) || a.guards_exclude(b);
    match (0..shapes.len()).all(|i| shapes[i + 1..].iter().all(|b| exclude(&shapes[i], b))) {
        true => CombineMode::Exclusive,
        false => CombineMode::Additive,
    }
}

/// The one charge rule of an `Exclusive` group. The engine resolves every
/// head that unifies before a guard rejects its clause, so a clause's cost
/// (`contribs[i]`, after its pinned sizes) gains one resolution per sibling
/// whose head overlaps its own and can match at its sizes: a sibling that
/// pins no size at every level, else in a case pinned at the same sizes and
/// in a base case (a cost calling no `scc` function) that pins none.
pub(crate) fn charge_sibling_heads(
    shapes: &[ClauseShape<'_>],
    contribs: &mut [(Vec<Option<i64>>, Expr)],
    scc: &BTreeSet<FnRef>,
) {
    for i in 0..contribs.len() {
        let (when, cost) = &contribs[i];
        let base = || !cost.calls().iter().any(|f| scc.contains(f));
        let pins = |j: usize| contribs[j].0.iter().zip(when);
        let at_sizes = |j| pins(j).all(|(k, w)| k == w || k.is_none() || w.is_none() && base());
        let charged = |&j: &usize| j != i && shapes[i].heads_overlap(&shapes[j]) && at_sizes(j);
        if let n @ 1.. = (0..shapes.len()).filter(charged).count() {
            contribs[i].1 = Expr::add(cost.clone(), Expr::int(n as i64)).simplify();
        }
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
    use granlog_ir::{Program, Symbol};

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

    /// The combine mode of `name/arity` in `src`. The relations it is
    /// decided from are pinned pair by pair in `granlog_ir::shape`.
    fn mode_of(src: &str, name: &str, arity: usize) -> CombineMode {
        let s = setup(src);
        let pred = PredId::parse(name, arity);
        let clauses = s.program.clauses_of(pred);
        let shapes: Vec<_> = clauses
            .iter()
            .map(|c| ClauseShape::new(c, &s.modes[&pred]))
            .collect();
        combine_mode(&shapes)
    }

    #[test]
    fn exclusivity_by_first_argument_indexing() {
        assert_eq!(mode_of(NREV, "append", 3), CombineMode::Exclusive);
        assert_eq!(mode_of(NREV, "nrev", 2), CombineMode::Exclusive);
    }

    #[test]
    fn exclusivity_by_arithmetic_guard() {
        let fib = ":- mode fib(+, -).
            fib(0, 0).
            fib(1, 1).
            fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                         fib(M1, N1), fib(M2, N2), N is N1 + N2.";
        assert_eq!(mode_of(fib, "fib", 2), CombineMode::Exclusive);
    }

    #[test]
    fn non_exclusive_clauses_detected() {
        let color = ":- mode color(+, -).
            color(X, red) :- warm(X).
            color(X, blue) :- cold(X).
            warm(_). cold(_).";
        assert_eq!(mode_of(color, "color", 2), CombineMode::Additive);
    }

    #[test]
    fn duplicate_keys_are_not_exclusive() {
        // Both heads match any list of one element or more.
        let p = ":- mode p(+, -). p([H|_], H). p([_|T], X) :- p(T, X).";
        assert_eq!(mode_of(p, "p", 2), CombineMode::Additive);
    }

    #[test]
    fn single_clause_predicates_are_trivially_exclusive() {
        let q = ":- mode q(+). q(X) :- r(X). r(_).";
        assert_eq!(mode_of(q, "q", 1), CombineMode::Exclusive);
    }

    #[test]
    fn pred_cost_apply() {
        let cost = PredCost {
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
