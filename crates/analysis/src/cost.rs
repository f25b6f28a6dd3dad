//! Cost estimation (Section 4), in resolutions, the unit the engine's
//! `resolutions` counter counts. A clause costs one for its head plus its
//! body literals, each assumed to succeed once (a builtin or control atom
//! costs 0). A predicate sums its clauses' costs, or takes their maximum
//! where no call runs two bodies ([`combine_mode`]) once each is charged
//! the sibling heads a call resolves beside it (`charge_sibling_heads`).

use crate::diffeq::CombineMode;
use crate::expr::{Expr, FnRef};
use crate::pipeline::ProgramAnalysis;
use crate::sizerel::ClauseSizeAnalysis;
use granlog_ir::builtins;
use granlog_ir::symbol::well_known;
use granlog_ir::{Clause, ClauseShape, PredId};
use std::collections::BTreeSet;

/// Whether `pred` is a row of [`granlog_ir::builtins`] or a control atom
/// (`true`, `fail`, `false`, `!`): a goal the engine runs without a
/// resolution, so the analysis charges it 0.
fn is_builtin_or_control(pred: PredId) -> bool {
    let wk = well_known::get();
    let control = pred.arity == 0 && [wk.true_, wk.fail, wk.false_, wk.cut].contains(&pred.name);
    control || builtins::lookup(pred).is_some()
}

/// The cost of a clause (the paper's equation (3)), its literals' sizes
/// taken from the clause's size analysis and its callees' costs from their
/// records in `analysis`. Calls to `scc`, the SCC being solved, stay
/// symbolic (`Call(Cost(p), sizes)`), making a difference equation; a call
/// with no known cost is `Undefined`, which the solver turns into ∞
/// ("always parallelise").
pub fn clause_cost(
    clause: &Clause,
    sizes: &ClauseSizeAnalysis,
    analysis: &ProgramAnalysis,
    scc: &BTreeSet<PredId>,
) -> Expr {
    let literal_cost = |j, literal| match PredId::of_term(literal) {
        // A variable goal (call/N style): unknown cost.
        None => Expr::Undefined,
        Some(pred) if is_builtin_or_control(pred) => Expr::Num(0.0),
        Some(pred) => {
            let inputs =
                granlog_ir::modes::mode_or_default(&analysis.modes, pred).input_positions();
            let args = sizes.literal_input_args(j, &inputs);
            match analysis.pred(pred) {
                _ if scc.contains(&pred) => Expr::Call(FnRef::Cost(pred), args),
                Some(solved) => solved.cost.apply(&solved.params, &args),
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
    use crate::pipeline::{analyze_program, AnalysisOptions};
    use crate::sizerel::analyze_clause;
    use granlog_ir::modes::infer_modes;
    use granlog_ir::parser::parse_program;

    const NREV: &str = r#"
        :- mode nrev(+, -).
        :- mode append(+, +, -).
        nrev([], []).
        nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
        append([], L, L).
        append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
    "#;

    /// The cost of clause `idx` of `pred` in `src` as phase 2 of the
    /// pipeline takes it on the SCC `scc`: every callee's record, sizes and
    /// cost, comes from `analyze_program` on the same source, and only the
    /// calls to `scc` stay symbolic in the cost. The size pass reads every
    /// Ψ, `scc`'s included, as phase 2 does.
    fn clause_cost_in(src: &str, scc: &[PredId], pred: PredId, idx: usize) -> Expr {
        let program = parse_program(src).unwrap();
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let clause = program.clauses_of(pred)[idx];
        let ddg = Ddg::build(clause, &analysis.modes[&pred]);
        let sizes = analyze_clause(&ddg, &analysis, &BTreeSet::new());
        clause_cost(clause, &sizes, &analysis, &scc.iter().copied().collect())
    }

    #[test]
    fn append_clause_costs_match_appendix() {
        let append = PredId::parse("append", 3);
        // Base clause: cost 1 (head unification only).
        assert_eq!(clause_cost_in(NREV, &[append], append, 0), Expr::Num(1.0));
        // Recursive clause: 1 + Cost_append(n1 − 1, n2).
        let cost = clause_cost_in(NREV, &[append], append, 1);
        assert_eq!(cost.to_string(), "cost_append/3(n1 - 1, n2) + 1");
    }

    #[test]
    fn nrev_clause_cost_uses_solved_append_cost() {
        let nrev = PredId::parse("nrev", 2);
        // The size analysis has been completed (Ψ_append(x, y) = x + y,
        // Ψ_nrev(n) = n) and Cost_append(x, y) = x + 1 is known (the
        // Appendix); only Cost_nrev is still being solved.
        let cost = clause_cost_in(NREV, &[nrev], nrev, 1);
        // 1 + Cost_nrev(n−1) + Cost_append(n−1, 1) = Cost_nrev(n−1) + n + 1.
        assert_eq!(cost.to_string(), "cost_nrev/2(n - 1) + n + 1");
    }

    #[test]
    fn pred_cost_apply() {
        // A callee's cost is its record's closed form applied at the call's
        // sizes: Cost_nrev(n) = 0.5*n^2 + 1.5*n + 1 is 66 at n = 10, and the
        // wrong number of sizes makes it Undefined.
        let program = parse_program(NREV).unwrap();
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let nrev = PredId::parse("nrev", 2);
        let record = analysis.pred(nrev).unwrap();
        let at_ten = record.cost.apply(&record.params, &[Expr::Num(10.0)]);
        assert_eq!(at_ten.as_const(), Some(66.0));
        assert!(record.cost.apply(&record.params, &[]).is_undefined());
        // With no SCC open, clause_cost applies both callees' records:
        // 1 + Cost_nrev(n - 1) + Cost_append(n - 1, 1) = Cost_nrev(n).
        let cost = clause_cost_in(NREV, &[], nrev, 1);
        assert_eq!(cost.eval_with(&[("n", 10.0)]), Some(66.0));
    }

    #[test]
    fn builtins_cost_zero_resolutions() {
        let src = ":- mode p(+, -). p(X, Y) :- X > 1, Y is X - 1.";
        let p = PredId::parse("p", 2);
        assert_eq!(clause_cost_in(src, &[], p, 0), Expr::Num(1.0));
    }

    #[test]
    fn unknown_predicate_cost_is_undefined() {
        let src = ":- mode p(+). p(X) :- mystery(X).";
        let p = PredId::parse("p", 1);
        assert!(clause_cost_in(src, &[], p, 0).is_undefined());
    }

    /// The combine mode of `name/arity` in `src`. The relations it is
    /// decided from are pinned pair by pair in `granlog_ir::shape`.
    fn mode_of(src: &str, name: &str, arity: usize) -> CombineMode {
        let program = parse_program(src).unwrap();
        let modes = infer_modes(&program);
        let pred = PredId::parse(name, arity);
        let clauses = program.clauses_of(pred);
        let shapes: Vec<_> = clauses
            .iter()
            .map(|c| ClauseShape::new(c, &modes[&pred]))
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
    fn grain_test_builtin_is_recognised() {
        let free = |name, arity| is_builtin_or_control(PredId::parse(name, arity));
        assert!(free("$grain_ge", 3));
        assert!(free("is", 2));
        assert!(free("!", 0));
        assert!(!free("append", 3));
    }
}
