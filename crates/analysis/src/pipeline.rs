//! The whole-program analysis driver.
//!
//! [`analyze_program`] runs the full pipeline of the paper over a program:
//!
//! 1. determine modes and size measures;
//! 2. build the call graph and process its SCCs in topological (callee-first)
//!    order;
//! 3. for each SCC, derive and solve the argument-size difference equations
//!    (Section 3 + 5), then — with the solved Ψ functions available — derive
//!    and solve the cost difference equations (Section 4 + 5);
//! 4. record, per predicate, the closed-form output sizes, the closed-form
//!    cost upper bound, and enough metadata (parameters, measures, input
//!    positions) for threshold computation and program annotation.
//!
//! The records of step 4 are the only table of solved functions: they go
//! into the [`ProgramAnalysis`] being built, and the clauses of later SCCs
//! read their callees' Ψ and cost from there.

use crate::cost::{charge_sibling_heads, clause_cost, combine_mode};
use crate::ddg::Ddg;
use crate::diffeq::{CombineMode, DiffEq};
use crate::expr::{Expr, FnRef};
use crate::measure::{assign_measures, MeasureVec};
use crate::sizerel::{analyze_clause, param_symbol, ClauseSizeAnalysis};
use crate::solver::{solve_system, SchemaKind};
use crate::threshold::{driving_parameter, threshold, Threshold, DEFAULT_SEARCH_CAP};
use granlog_ir::{
    CallGraph, Clause, ClauseShape, ModeDecl, PredId, Program, RecursionClass, Symbol, TermRef,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Options of the analysis, of which there are none: it counts resolutions
/// and searches thresholds up to [`DEFAULT_SEARCH_CAP`]. The struct stays
/// because the `benchmark/` workloads `compile_pipeline` and `par_control`
/// call `analyze_program(&p, &AnalysisOptions::default())`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnalysisOptions {}

/// Per-predicate analysis results.
#[derive(Debug, Clone)]
pub struct PredAnalysis {
    /// The predicate.
    pub pred: PredId,
    /// Its recursion class in the call graph.
    pub recursion: RecursionClass,
    /// Declared/inferred input argument positions (0-based, ascending).
    pub input_positions: Vec<usize>,
    /// Size parameter symbols, one per input position (same order).
    pub params: Vec<Symbol>,
    /// The measure used for each argument position.
    pub measures: MeasureVec,
    /// Closed-form upper bound on each output argument's size, in terms of
    /// `params`.
    pub output_sizes: BTreeMap<usize, Expr>,
    /// The solver schema used for each output size.
    pub size_schemas: BTreeMap<usize, SchemaKind>,
    /// Closed-form upper bound on the predicate's cost, in terms of `params`.
    pub cost: Expr,
    /// The solver schema used for the cost.
    pub cost_schema: SchemaKind,
}

impl PredAnalysis {
    /// Evaluates the cost bound at concrete input sizes (one per input
    /// position, in order). Returns `None` if the cost cannot be evaluated.
    pub fn cost_at(&self, sizes: &[f64]) -> Option<f64> {
        if sizes.len() != self.params.len() {
            return None;
        }
        let env: BTreeMap<Symbol, f64> = self
            .params
            .iter()
            .copied()
            .zip(sizes.iter().copied())
            .collect();
        self.cost.eval(&env)
    }

    /// The input position whose size the runtime grain test should measure
    /// (the one driving the cost), together with its parameter symbol.
    pub fn driving_input(&self) -> Option<(usize, Symbol)> {
        let param = driving_parameter(&self.cost)?;
        let idx = self.params.iter().position(|p| *p == param)?;
        Some((self.input_positions[idx], param))
    }
}

/// Whole-program analysis results.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Per-predicate results.
    pub preds: BTreeMap<PredId, PredAnalysis>,
    /// The mode table used (declared plus inferred).
    pub modes: BTreeMap<PredId, ModeDecl>,
    /// The measure assignment used.
    pub measures: BTreeMap<PredId, MeasureVec>,
}

impl ProgramAnalysis {
    /// The analysis record for a predicate.
    pub fn pred(&self, pred: PredId) -> Option<&PredAnalysis> {
        self.preds.get(&pred)
    }

    /// The closed-form cost bound of a predicate.
    pub fn cost_of(&self, pred: PredId) -> Option<&Expr> {
        self.preds.get(&pred).map(|p| &p.cost)
    }

    /// The closed-form output-size bound of a predicate's argument position.
    pub fn output_size_of(&self, pred: PredId, pos: usize) -> Option<&Expr> {
        self.preds.get(&pred).and_then(|p| p.output_sizes.get(&pos))
    }

    /// The grain-size threshold of a predicate for a given task-management
    /// overhead `W`, in resolutions.
    pub fn threshold_for(&self, pred: PredId, overhead: f64) -> Threshold {
        let Some(info) = self.preds.get(&pred) else {
            return Threshold::AlwaysParallel;
        };
        if info.params.is_empty() {
            return match info.cost.as_const() {
                Some(c) if c <= overhead => Threshold::NeverParallel,
                _ => Threshold::AlwaysParallel,
            };
        }
        // The search probes the diagonal of all the cost's variables, so
        // it does not matter which parameter is named as the driving one.
        threshold(&info.cost, info.params[0], overhead, DEFAULT_SEARCH_CAP)
    }
}

/// What the phases of one SCC share about a member predicate.
struct Member<'a> {
    pred: PredId,
    decl: Cow<'a, ModeDecl>,
    input_positions: Vec<usize>,
    params: Vec<Symbol>,
    clauses: Vec<&'a Clause>,
    shapes: Vec<ClauseShape<'a>>,
    combine: CombineMode,
}

/// One clause of a member: its graph and base-case guard, built once, and
/// its size analysis, redone for the cost phase only if it can differ.
struct ClauseWork<'a> {
    clause: &'a Clause,
    ddg: Ddg<'a>,
    sizes: ClauseSizeAnalysis,
    when: Vec<Option<i64>>,
}

/// Runs the complete granularity analysis over a program.
pub fn analyze_program(program: &Program, _options: &AnalysisOptions) -> ProgramAnalysis {
    let callgraph = CallGraph::build(program);
    let mut analysis = ProgramAnalysis {
        preds: BTreeMap::new(),
        modes: granlog_ir::modes::infer_modes(program),
        measures: assign_measures(program),
    };
    let modes = &analysis.modes;
    let no_scc: BTreeSet<PredId> = BTreeSet::new();

    for scc in callgraph.topological_sccs() {
        let scc_set: BTreeSet<PredId> = scc.members.iter().copied().collect();
        let members: Vec<Member<'_>> = scc_set
            .iter()
            .map(|&pred| {
                let decl = granlog_ir::modes::mode_or_default(modes, pred);
                let input_positions = decl.input_positions();
                let params = input_positions
                    .iter()
                    .map(|&i| param_symbol(&input_positions, i))
                    .collect();
                let clauses = program.clauses_of(pred);
                let shapes: Vec<_> = clauses.iter().map(|c| ClauseShape::new(c, &decl)).collect();
                Member {
                    pred,
                    combine: combine_mode(&shapes),
                    clauses,
                    shapes,
                    decl,
                    input_positions,
                    params,
                }
            })
            .collect();

        // ------------------------------------------------------------------
        // Phase 1: argument-size analysis for the SCC.
        // ------------------------------------------------------------------
        let mut size_equations: Vec<DiffEq> = Vec::new();
        let scc_size_funcs: BTreeSet<FnRef> = members
            .iter()
            .flat_map(|m| {
                let outputs = m.decl.output_positions().into_iter();
                outputs.map(move |k| FnRef::OutputSize(m.pred, k))
            })
            .collect();

        let mut work: Vec<Vec<ClauseWork<'_>>> = Vec::with_capacity(members.len());
        for m in &members {
            let clauses: Vec<ClauseWork<'_>> = m
                .clauses
                .iter()
                .map(|&clause| {
                    let ddg = Ddg::build(clause, &m.decl);
                    let sizes = analyze_clause(&ddg, &analysis, &scc_set);
                    let when = m
                        .input_positions
                        .iter()
                        .map(|i| sizes.head_input_constants.get(i).copied().flatten())
                        .collect();
                    ClauseWork {
                        clause,
                        ddg,
                        sizes,
                        when,
                    }
                })
                .collect();
            for out_pos in m.decl.output_positions() {
                let contribs = clauses.iter().map(|c| {
                    let value = c.sizes.head_output_sizes.get(&out_pos).cloned();
                    (c.when.clone(), value.unwrap_or(Expr::Undefined))
                });
                size_equations.push(DiffEq::assemble(
                    FnRef::OutputSize(m.pred, out_pos),
                    m.params.clone(),
                    contribs.collect(),
                    &scc_size_funcs,
                    m.combine,
                ));
            }
            work.push(clauses);
        }

        // Each member's record goes in with its solved sizes, and phase 2
        // writes its cost: inside its own SCC a member's cost is always
        // symbolic (`clause_cost` checks the SCC first), so the cost stored
        // here is never read.
        for m in &members {
            let record = PredAnalysis {
                pred: m.pred,
                recursion: callgraph.classify_predicate(m.pred),
                input_positions: m.input_positions.clone(),
                params: m.params.clone(),
                measures: analysis.measures.get(&m.pred).cloned().unwrap_or_default(),
                output_sizes: BTreeMap::new(),
                size_schemas: BTreeMap::new(),
                cost: Expr::Undefined,
                cost_schema: SchemaKind::Unmatched,
            };
            analysis.preds.insert(m.pred, record);
        }
        for sol in solve_system(&size_equations) {
            if let FnRef::OutputSize(p, k) = sol.func {
                let record = analysis.preds.get_mut(&p).expect("a member of the SCC");
                record.output_sizes.insert(k, sol.closed_form);
                record.size_schemas.insert(k, sol.schema);
            }
        }

        // ------------------------------------------------------------------
        // Phase 2: cost analysis for the SCC (with Ψ of the SCC now solved).
        // ------------------------------------------------------------------
        let scc_cost_funcs: BTreeSet<FnRef> = scc_set.iter().map(|&p| FnRef::Cost(p)).collect();
        let calls_scc = |l: &TermRef<'_>| PredId::of_term(*l).is_some_and(|p| scc_set.contains(&p));
        let mut cost_equations: Vec<DiffEq> = Vec::new();
        for (m, clauses) in members.iter().zip(work) {
            let mut clause_contribs = Vec::with_capacity(clauses.len());
            for mut c in clauses {
                // Phase 1 kept the calls to SCC members symbolic and now their
                // Ψ are in their records. A clause without such a call read
                // the same records then as it would now: its sizes stand.
                if c.ddg.literals().iter().any(calls_scc) {
                    c.sizes = analyze_clause(&c.ddg, &analysis, &no_scc);
                }
                let cost = clause_cost(c.clause, &c.sizes, &analysis, &scc_set);
                clause_contribs.push((c.when, cost));
            }
            if m.combine == CombineMode::Exclusive {
                charge_sibling_heads(&m.shapes, &mut clause_contribs, &scc_cost_funcs);
            }
            cost_equations.push(DiffEq::assemble(
                FnRef::Cost(m.pred),
                m.params.clone(),
                clause_contribs,
                &scc_cost_funcs,
                m.combine,
            ));
        }
        for sol in solve_system(&cost_equations) {
            if let FnRef::Cost(p) = sol.func {
                let record = analysis.preds.get_mut(&p).expect("inserted in phase 1");
                record.cost = sol.closed_form;
                record.cost_schema = sol.schema;
            }
        }
    }

    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::parser::parse_program;

    const NREV: &str = r#"
        :- mode nrev(+, -).
        :- mode append(+, +, -).
        nrev([], []).
        nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
        append([], L, L).
        append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
    "#;

    fn analyze(src: &str) -> ProgramAnalysis {
        let program = parse_program(src).unwrap();
        analyze_program(&program, &AnalysisOptions::default())
    }

    #[test]
    fn appendix_nrev_closed_forms() {
        let a = analyze(NREV);
        let nrev = PredId::parse("nrev", 2);
        let append = PredId::parse("append", 3);
        // Ψ_append(x, y) = x + y.
        assert_eq!(a.output_size_of(append, 2).unwrap().to_string(), "n1 + n2");
        // Cost_append(x, y) = x + 1.
        assert_eq!(a.cost_of(append).unwrap().to_string(), "n1 + 1");
        // Ψ_nrev(n) = n.
        assert_eq!(a.output_size_of(nrev, 1).unwrap().to_string(), "n");
        // Cost_nrev(n) = 0.5n² + 1.5n + 1.
        assert_eq!(a.cost_of(nrev).unwrap().to_string(), "0.5*n^2 + 1.5*n + 1");
        // Evaluate: nrev of a 30-element list costs 496 resolutions.
        assert_eq!(a.pred(nrev).unwrap().cost_at(&[30.0]), Some(496.0));
    }

    #[test]
    fn nrev_thresholds() {
        let a = analyze(NREV);
        let nrev = PredId::parse("nrev", 2);
        // With overhead 48: 0.5n² + 1.5n + 1 > 48 first at n = 9.
        assert_eq!(a.threshold_for(nrev, 48.0), Threshold::SizeAtLeast(9));
        // With an overhead below even the empty call's cost, always parallel.
        assert_eq!(a.threshold_for(nrev, 0.5), Threshold::AlwaysParallel);
    }

    #[test]
    fn fib_cost_is_exponential_bound() {
        let src = r#"
            :- mode fib(+, -).
            fib(0, 0).
            fib(1, 1).
            fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                         fib(M1, N1), fib(M2, N2), N is N1 + N2.
        "#;
        let a = analyze(src);
        let fib = PredId::parse("fib", 2);
        let info = a.pred(fib).unwrap();
        assert_eq!(info.cost_schema, SchemaKind::GeometricConstant);
        // The bound dominates the true resolution count (which is O(φ^n)).
        let bound15 = info.cost_at(&[15.0]).unwrap();
        assert!(
            bound15 >= 1973.0,
            "bound {bound15} must dominate the true cost"
        );
        // Threshold exists and is small for any realistic overhead.
        match a.threshold_for(fib, 100.0) {
            Threshold::SizeAtLeast(k) => assert!(k <= 10, "k = {k}"),
            other => panic!("unexpected threshold {other:?}"),
        }
    }

    #[test]
    fn nonrecursive_predicates_get_constant_costs() {
        let src = r#"
            :- mode top(+).
            top(X) :- mid(X), mid(X).
            mid(X) :- leaf(X).
            leaf(_).
        "#;
        let a = analyze(src);
        assert_eq!(
            a.cost_of(PredId::parse("leaf", 1)).unwrap().as_const(),
            Some(1.0)
        );
        assert_eq!(
            a.cost_of(PredId::parse("mid", 1)).unwrap().as_const(),
            Some(2.0)
        );
        assert_eq!(
            a.cost_of(PredId::parse("top", 1)).unwrap().as_const(),
            Some(5.0)
        );
        assert_eq!(
            a.pred(PredId::parse("top", 1)).unwrap().recursion,
            RecursionClass::NonRecursive
        );
        // Constant cost below the overhead: never parallelise.
        assert_eq!(
            a.threshold_for(PredId::parse("top", 1), 48.0),
            Threshold::NeverParallel
        );
        assert_eq!(
            a.threshold_for(PredId::parse("top", 1), 3.0),
            Threshold::AlwaysParallel
        );
    }

    #[test]
    fn mutual_recursion_is_analysed() {
        let src = r#"
            :- mode even(+).
            :- mode odd(+).
            even(0).
            even(N) :- N > 0, N1 is N - 1, odd(N1).
            odd(1).
            odd(N) :- N > 1, N1 is N - 1, even(N1).
        "#;
        let a = analyze(src);
        let even = PredId::parse("even", 1);
        let odd = PredId::parse("odd", 1);
        assert_eq!(
            a.pred(even).unwrap().recursion,
            RecursionClass::MutuallyRecursive
        );
        // Costs are finite, linear-ish bounds.
        let c_even = a.pred(even).unwrap().cost_at(&[20.0]).unwrap();
        let c_odd = a.pred(odd).unwrap().cost_at(&[20.0]).unwrap();
        assert!(c_even.is_finite() && c_even >= 21.0, "even bound {c_even}");
        assert!(c_odd.is_finite() && c_odd >= 20.0, "odd bound {c_odd}");
        assert!(c_even <= 200.0 && c_odd <= 200.0);
    }

    #[test]
    fn unanalysable_predicate_gets_infinite_cost() {
        // No mode/measure information that relates the recursion to a size.
        let src = r#"
            :- mode loop(+).
            loop(X) :- loop(X).
        "#;
        let a = analyze(src);
        let loop_p = PredId::parse("loop", 1);
        assert!(a.cost_of(loop_p).unwrap().is_infinite());
        assert_eq!(a.threshold_for(loop_p, 1e9), Threshold::AlwaysParallel);
    }

    #[test]
    fn a_builtin_the_engine_runs_does_not_unbound_its_caller() {
        // Every builtin of `granlog_ir::builtins` costs a constant, whichever
        // one stands in the recursive clause: Cost(n) = Cost(n − 1) + 1,
        // Cost(0) = 1.
        let goals = [
            "is_list(T)",
            "print(T)",
            "write_canonical(T)",
            "tab(T)",
            "atomic(T)",
        ];
        for goal in goals {
            let src = format!(
                ":- mode len(+, -).
                 len([], 0).
                 len([_|T], N) :- {goal}, len(T, M), N is M + 1."
            );
            let a = analyze(&src);
            let len = PredId::parse("len", 2);
            assert_eq!(a.cost_of(len).unwrap().to_string(), "n + 1", "{goal}");
            assert_eq!(a.threshold_for(len, 60.0), Threshold::SizeAtLeast(60));
        }
    }

    #[test]
    fn quicksort_style_program_is_bounded() {
        let src = r#"
            :- mode qsort(+, -).
            :- mode partition(+, +, -, -).
            :- mode app(+, +, -).
            qsort([], []).
            qsort([P|Xs], S) :-
                partition(Xs, P, Small, Big),
                qsort(Small, SS), qsort(Big, BS),
                app(SS, [P|BS], S).
            partition([], _, [], []).
            partition([X|Xs], P, [X|S], B) :- X =< P, partition(Xs, P, S, B).
            partition([X|Xs], P, S, [X|B]) :- X > P, partition(Xs, P, S, B).
            app([], L, L).
            app([H|T], L, [H|R]) :- app(T, L, R).
        "#;
        let a = analyze(src);
        let qsort = PredId::parse("qsort", 2);
        let partition = PredId::parse("partition", 4);
        // Partition's output lists are bounded by the input length.
        let psi = a.output_size_of(partition, 2).unwrap();
        let v = psi.eval_with(&[("n1", 10.0), ("n2", 10.0)]).unwrap();
        assert!((10.0..=11.0).contains(&v), "|Small| bound {v}");
        // Partition cost is linear in the list length.
        let pcost = a.pred(partition).unwrap().cost_at(&[20.0, 5.0]).unwrap();
        assert!((21.0..=42.0).contains(&pcost), "partition cost {pcost}");
        // Quicksort's upper bound is finite (exponential in the worst case for
        // this analysis) and dominates the true cost.
        let qcost = a.pred(qsort).unwrap().cost_at(&[8.0]).unwrap();
        assert!(qcost.is_finite());
        assert!(qcost >= 50.0);
    }

    #[test]
    fn driving_input_identifies_the_list_argument() {
        let a = analyze(NREV);
        let nrev = PredId::parse("nrev", 2);
        let (pos, param) = a.pred(nrev).unwrap().driving_input().unwrap();
        assert_eq!(pos, 0);
        assert_eq!(param.as_str(), "n");
        let append = PredId::parse("append", 3);
        let (pos, param) = a.pred(append).unwrap().driving_input().unwrap();
        assert_eq!(pos, 0);
        assert_eq!(param.as_str(), "n1");
    }

    #[test]
    fn zero_arity_predicates_do_not_panic() {
        let src = "main :- helper. helper.";
        let a = analyze(src);
        let main = PredId::parse("main", 0);
        assert_eq!(a.cost_of(main).unwrap().as_const(), Some(2.0));
        assert_eq!(a.threshold_for(main, 10.0), Threshold::NeverParallel);
    }

    #[test]
    fn analysis_covers_every_defined_predicate() {
        let a = analyze(NREV);
        assert_eq!(a.preds.len(), 2);
        for info in a.preds.values() {
            assert!(!info.params.is_empty());
            assert!(!info.cost.is_undefined());
        }
    }
}
