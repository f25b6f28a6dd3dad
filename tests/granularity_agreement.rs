//! The grain-size decision has one definition (`granlog_ir::grain`) and one
//! enforcement point: the annotator rewrites each `&` into
//! `'$grain_ge'`-guarded source code. Everything that runs with granularity
//! control on runs that rewritten program — the sequential machine, the
//! simulator's task trees and, under `Granularity::On`, the parallel
//! executor. This suite pins both halves: the executor is the annotated
//! program run in parallel (same answers, same counts), and the annotator
//! consults the guard table exactly as its decision records say.

mod support;

use granlog_analysis::annotate::{apply_granularity_control, AnnotateOptions};
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_engine::{Machine, RecordedOutcome};
use granlog_ir::symbol::well_known;
use granlog_ir::{AsTerm, Guard, GuardTable, PredId, TermRef, View};
use granlog_par::{Granularity, ParConfig, ParExecutor};
use support::fifteen_benchmarks;

const OVERHEADS: [f64; 3] = [8.0, 48.0, 400.0];

/// `Granularity::On` is the annotated program, run in parallel: at every
/// overhead and thread count the executor reports exactly the answer, the
/// operation counters (grain tests included) and the work of the sequential
/// machine on `apply_granularity_control`'s output, and it offers exactly
/// the tasks that machine's task tree forks.
#[test]
fn the_executor_under_on_runs_exactly_the_annotated_program() {
    for bench in fifteen_benchmarks() {
        let program = bench.program().expect("benchmark parses");
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let query = bench.query(bench.test_size);
        for overhead in OVERHEADS {
            let annotated =
                apply_granularity_control(&program, &analysis, &AnnotateOptions { overhead });
            let RecordedOutcome {
                outcome: sequential,
                task_tree,
            } = Machine::new(&annotated.program)
                .run_query_recorded(&query)
                .unwrap_or_else(|e| panic!("{query} (annotated, W = {overhead}): {e}"));
            for threads in [1, 2, 4] {
                let at = format!("{query} at W = {overhead}, {threads} threads");
                let config = ParConfig {
                    threads,
                    granularity: Granularity::On,
                    overhead,
                };
                let parallel = ParExecutor::new(&program, config)
                    .run_query(&query)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(sequential.succeeded, parallel.succeeded, "{at}");
                assert_eq!(sequential.bindings, parallel.bindings, "{at}");
                assert_eq!(sequential.counters, parallel.counters, "{at}");
                assert_eq!(sequential.counters.work(), parallel.counters.work(), "{at}");
                assert_eq!(task_tree.spawned_tasks(), parallel.spawned_tasks, "{at}");
            }
        }
    }
}

/// The guard of the first goal along an arm's `','`-spine that has one — the
/// annotator's rule, restated over source terms.
fn first_guarded(arm: TermRef<'_>, guards: &GuardTable) -> Option<(PredId, Guard)> {
    match arm.view() {
        View::Struct(s, args) if s == well_known::comma() && args.len() == 2 => {
            first_guarded(args.at(0), guards).or_else(|| first_guarded(args.at(1), guards))
        }
        _ => {
            let pred = PredId::of_term(arm)?;
            Some((pred, guards.get(pred)?))
        }
    }
}

/// Every maximal `&` conjunction of a body's control constructs, innermost
/// first, as the per-arm table entries the annotator consults.
fn expected_arms(
    body: TermRef<'_>,
    guards: &GuardTable,
    out: &mut Vec<Vec<Option<(PredId, Guard)>>>,
) {
    fn arms_of<'t>(t: TermRef<'t>, arms: &mut Vec<TermRef<'t>>) {
        match t.view() {
            View::Struct(s, args) if s == well_known::par_and() && args.len() == 2 => {
                arms_of(args.at(0), arms);
                arms_of(args.at(1), arms);
            }
            _ => arms.push(t),
        }
    }
    let wk = well_known::get();
    match body.view() {
        View::Struct(s, args) if s == wk.par_and && args.len() == 2 => {
            let mut arms = Vec::new();
            arms_of(body, &mut arms);
            for &arm in &arms {
                expected_arms(arm, guards, out);
            }
            out.push(arms.iter().map(|&arm| first_guarded(arm, guards)).collect());
        }
        View::Struct(s, args) if [wk.comma, wk.semicolon, wk.arrow, wk.not].contains(&s) => {
            args.for_each(|a| expected_arms(a, guards, out))
        }
        _ => {}
    }
}

/// Static agreement: every arm of every `ConjunctionDecision` is the table
/// entry of the arm's first guarded goal in the *source* clause, and a
/// conjunction is guarded exactly when one of those entries is a size test
/// and none is `Never`.
#[test]
fn every_decision_arm_is_the_table_entry_of_its_first_guarded_goal() {
    let mut conjunctions = 0;
    for bench in fifteen_benchmarks() {
        let program = bench.program().expect("benchmark parses");
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        for overhead in OVERHEADS {
            let guards = analysis.guards_at(overhead);
            let annotated =
                apply_granularity_control(&program, &analysis, &AnnotateOptions { overhead });
            let mut decisions = annotated.decisions.iter();
            for predicate in program.predicates() {
                for (clause_index, clause) in program.clauses_of(predicate.id).iter().enumerate() {
                    let mut expected = Vec::new();
                    expected_arms(clause.body.term_ref(), &guards, &mut expected);
                    for arms in expected {
                        let decision = decisions.next().expect("one decision per conjunction");
                        let at =
                            format!("{} clause {clause_index} at W = {overhead}", predicate.id);
                        assert_eq!(decision.clause_pred, predicate.id, "{at}");
                        assert_eq!(decision.clause_index, clause_index, "{at}");
                        assert_eq!(decision.arms, arms, "{at}");
                        let never = arms.iter().any(|a| matches!(a, Some((_, Guard::Never))));
                        let tested = arms
                            .iter()
                            .any(|a| matches!(a, Some((_, Guard::SizeAtLeast { .. }))));
                        let guarded = match (never, tested) {
                            (true, _) => Some(false),
                            (false, true) => Some(true),
                            (false, false) => None,
                        };
                        assert_eq!(decision.guarded, guarded, "{at}");
                        conjunctions += 1;
                    }
                }
            }
            assert!(decisions.next().is_none(), "{}: stray decision", bench.name);
        }
    }
    assert!(
        conjunctions >= 3 * 12,
        "every Table 1 program has a conjunction"
    );
}
