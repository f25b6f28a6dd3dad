//! Granularity-control program transformation (Sections 2 and 7).
//!
//! Given a program whose clause bodies contain parallel conjunctions
//! (`Goal1 & Goal2 & ...`, as written by the programmer or by an automatic
//! parallelisation pass) and the results of the granularity analysis, this
//! pass rewrites each parallel conjunction into conditional code of the form
//! the paper's compiler generates:
//!
//! ```prolog
//! ( '$grain_ge'(Arg, length, K1), '$grain_ge'(Arg2, length, K2) ->
//!       Goal1 & Goal2
//! ;     Goal1, Goal2 )
//! ```
//!
//! where the `'$grain_ge'(Term, Measure, K)` tests are cheap runtime
//! grain-size checks (the execution engine charges them a small cost — this is
//! the "runtime overhead" studied in Section 7). Conjunctions whose arms are
//! all known to be cheap are rewritten to plain sequential conjunctions, and
//! conjunctions with unbounded (∞) cost arms are left unconditionally
//! parallel, implementing the paper's "sequentialise a parallel language"
//! philosophy.

use crate::pipeline::ProgramAnalysis;
use granlog_ir::symbol::well_known;
use granlog_ir::term::Args;
use granlog_ir::{AsTerm, Clause, Guard, GuardTable, PredId, Program, Symbol, Term, TermRef, View};

/// Options for the granularity-control transformation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnnotateOptions {
    /// The task creation/management overhead `W`, in resolutions.
    pub overhead: f64,
}

impl Default for AnnotateOptions {
    fn default() -> Self {
        AnnotateOptions { overhead: 48.0 }
    }
}

/// How a program is prepared before execution.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ControlMode {
    /// Run the program exactly as annotated by the programmer (every `&`
    /// spawns) — the paper's `T0`.
    NoControl,
    /// Apply the granularity analysis and guard parallel conjunctions with the
    /// derived thresholds — the paper's `T1`.
    WithControl,
    /// Guard every parallel conjunction with a fixed grain-size threshold
    /// (used for the Figure 2 sweep).
    FixedThreshold(u64),
    /// Strip all parallelism (the purely sequential baseline).
    Sequential,
}

/// The decision record for one parallel conjunction.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ConjunctionDecision {
    /// The predicate whose clause contains the conjunction.
    pub clause_pred: PredId,
    /// Index of the clause among the predicate's clauses.
    pub clause_index: usize,
    /// Per arm, in textual order: the predicate of the arm's first guarded
    /// goal and its guard-table entry. `None` means no goal of the arm has an
    /// entry (e.g. it only calls unknown predicates): stay parallel, as the
    /// paper prescribes.
    pub arms: Vec<Option<(PredId, Guard)>>,
    /// The overall outcome: `None` keeps the conjunction parallel
    /// unconditionally, `Some(true)` guards it with runtime tests,
    /// `Some(false)` sequentialises it unconditionally.
    pub guarded: Option<bool>,
}

/// The result of the transformation.
#[derive(Debug, Clone)]
pub struct AnnotatedProgram {
    /// The transformed program.
    pub program: Program,
    /// One record per parallel conjunction encountered.
    pub decisions: Vec<ConjunctionDecision>,
}

/// Applies granularity control to every parallel conjunction of `program`,
/// with the guards the analysis derives for overhead `W`.
pub fn apply_granularity_control(
    program: &Program,
    analysis: &ProgramAnalysis,
    options: &AnnotateOptions,
) -> AnnotatedProgram {
    rewrite_with_guards(program, Some(&analysis.guards_at(options.overhead)))
}

/// Prepares a program according to the control mode.
///
/// `overhead` is the per-task overhead of the target machine, used as the
/// threshold parameter `W` when `mode` is [`ControlMode::WithControl`].
pub fn prepare_program(
    program: &Program,
    analysis: &ProgramAnalysis,
    mode: ControlMode,
    overhead: f64,
) -> Program {
    match mode {
        ControlMode::NoControl => program.clone(),
        ControlMode::Sequential => sequentialize(program),
        ControlMode::WithControl => {
            rewrite_with_guards(program, Some(&analysis.guards_at(overhead))).program
        }
        ControlMode::FixedThreshold(k) => {
            rewrite_with_guards(program, Some(&analysis.fixed_guards(k))).program
        }
    }
}

/// The source-level enforcement of a guard table: rewrites every parallel
/// conjunction of `program` into the conditional code the table calls for.
/// A pure function of the program and the table — where the table came from
/// (thresholds at some `W`, one fixed grain size) makes no difference. With
/// no table, every conjunction is sequentialised, as under `:- sequential`.
fn rewrite_with_guards(program: &Program, guards: Option<&GuardTable>) -> AnnotatedProgram {
    let mut out = Program::new();
    for directive in program.directives() {
        out.add_directive(directive.clone());
    }
    let mut decisions = Vec::new();
    for predicate in program.predicates() {
        // Respect explicit `:- sequential p/N.` markings: strip parallelism.
        let marking = program.parallel_marking(predicate.id);
        let force_sequential = guards.is_none() || marking == Some(false);
        for (clause_index, clause) in program.clauses_of(predicate.id).into_iter().enumerate() {
            let mut ctx = ClauseContext {
                guards,
                clause_pred: predicate.id,
                clause_index,
                force_sequential,
                decisions: &mut decisions,
            };
            let new_body = ctx.rewrite(clause.body.term_ref());
            out.add_clause(Clause::new(
                clause.head.clone(),
                new_body,
                clause.var_names.clone(),
            ));
        }
    }
    AnnotatedProgram {
        program: out,
        decisions,
    }
}

/// Removes every parallel annotation, producing the purely sequential version
/// of a program (used as the `T_seq` baseline in the experiments).
pub fn sequentialize(program: &Program) -> Program {
    rewrite_with_guards(program, None).program
}

/// The functor and operands of a control construct — `,`, `;`, `->`, `&`,
/// `\+` — the constructs a body is built from. A rewrite descends through
/// these only, and copies every goal whole, as the slice it is: the
/// recursion follows the control spine, which the reader nests no deeper
/// than [`granlog_ir::parser::MAX_TERM_DEPTH`], and never a goal's
/// arguments.
fn control(term: TermRef<'_>) -> Option<(Symbol, Args<'_>)> {
    let wk = well_known::get();
    match term.view() {
        View::Struct(s, args)
            if args.len() == 2 && [wk.comma, wk.semicolon, wk.arrow, wk.par_and].contains(&s) =>
        {
            Some((s, args))
        }
        View::Struct(s, args) if args.len() == 1 && s == wk.not => Some((s, args)),
        _ => None,
    }
}

struct ClauseContext<'a> {
    guards: Option<&'a GuardTable>,
    clause_pred: PredId,
    clause_index: usize,
    force_sequential: bool,
    decisions: &'a mut Vec<ConjunctionDecision>,
}

impl ClauseContext<'_> {
    /// Rewrites a body term, transforming every maximal parallel conjunction.
    /// Each arm is judged as written — by the goal its grain test will
    /// measure — and then rewritten itself (it may contain parallel
    /// conjunctions).
    fn rewrite(&mut self, body: TermRef<'_>) -> Term {
        match control(body) {
            Some((s, _)) if s == well_known::par_and() => {
                let mut arms = Vec::new();
                flatten_par(body, &mut arms);
                let deciding: Vec<_> = arms.iter().map(|&a| self.first_guarded_goal(a)).collect();
                let arms: Vec<Term> = arms.iter().map(|&arm| self.rewrite(arm)).collect();
                self.transform_parallel(&arms, &deciding)
            }
            Some((s, args)) => Term::structure(s, args.map(|a| self.rewrite(a)).collect()),
            None => body.to_term(),
        }
    }

    fn transform_parallel(
        &mut self,
        arms: &[Term],
        deciding: &[Option<(TermRef<'_>, PredId, Guard)>],
    ) -> Term {
        // Arms that measure one argument share its test, at the largest
        // grain size among them: `size >= k1, size >= k2` holds exactly
        // when `size >= max(k1, k2)`.
        let mut tests: Vec<(Term, u64)> = Vec::new();
        for &(goal, _, guard) in deciding.iter().flatten() {
            let Guard::SizeAtLeast { k, .. } = guard else {
                continue;
            };
            let Some(test) = guard.test_for(goal) else {
                continue;
            };
            // `'$grain_ge'(Arg, Measure, K)`: the same test up to `K`.
            let measures_the_same =
                |(kept, _): &&mut (Term, u64)| kept.args().take(2).eq(test.args().take(2));
            match tests.iter_mut().find(measures_the_same) {
                Some(kept) if kept.1 < k => *kept = (test, k),
                Some(_) => {}
                None => tests.push((test, k)),
            }
        }
        let tests: Vec<Term> = tests.into_iter().map(|(test, _)| test).collect();
        let any_never = deciding
            .iter()
            .any(|d| matches!(d, Some((_, _, Guard::Never))));

        let (result, guarded) = if self.force_sequential || any_never {
            // `:- sequential`, or spawning at least one arm can never pay for
            // itself: run the whole conjunction sequentially.
            (seq_conjunction(arms), Some(false))
        } else if tests.is_empty() {
            // Nothing to test (all arms unbounded/unknown/always-big): stay
            // parallel, as the paper prescribes.
            (par_conjunction(arms), None)
        } else {
            let cond = seq_conjunction(&tests);
            let ite = Term::structure(
                well_known::semicolon(),
                vec![
                    Term::structure(well_known::arrow(), vec![cond, par_conjunction(arms)]),
                    seq_conjunction(arms),
                ],
            );
            (ite, Some(true))
        };
        self.decisions.push(ConjunctionDecision {
            clause_pred: self.clause_pred,
            clause_index: self.clause_index,
            arms: deciding
                .iter()
                .map(|d| d.map(|(_, pred, guard)| (pred, guard)))
                .collect(),
            guarded,
        });
        result
    }

    /// The first goal of an arm (in execution order, descending through `,`
    /// only — nested control stays opaque) whose predicate has a guard, with
    /// that guard: it decides how the arm is treated. Recurses along `,`,
    /// a control spine (see [`control`]).
    fn first_guarded_goal<'t>(&self, arm: TermRef<'t>) -> Option<(TermRef<'t>, PredId, Guard)> {
        match arm.view() {
            View::Struct(s, args) if s == well_known::comma() && args.len() == 2 => self
                .first_guarded_goal(args.at(0))
                .or_else(|| self.first_guarded_goal(args.at(1))),
            _ => {
                let pred = PredId::of_term(arm)?;
                Some((arm, pred, self.guards?.get(pred)?))
            }
        }
    }
}

/// The arms of a `&` conjunction, recursing along its `&` spine (see [`control`]).
fn flatten_par<'a>(term: TermRef<'a>, out: &mut Vec<TermRef<'a>>) {
    match term.view() {
        View::Struct(s, args) if s == well_known::par_and() && args.len() == 2 => {
            flatten_par(args.at(0), out);
            flatten_par(args.at(1), out);
        }
        _ => out.push(term),
    }
}

fn seq_conjunction(goals: &[Term]) -> Term {
    fold_conjunction(goals, well_known::comma())
}

fn par_conjunction(goals: &[Term]) -> Term {
    fold_conjunction(goals, well_known::par_and())
}

fn fold_conjunction(goals: &[Term], op: Symbol) -> Term {
    match goals.len() {
        0 => Term::from(well_known::true_()),
        1 => goals[0].clone(),
        _ => {
            let mut iter = goals.iter().rev();
            let last = iter.next().expect("len >= 2").clone();
            iter.fold(last, |acc, g| Term::structure(op, vec![g.clone(), acc]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{analyze_program, AnalysisOptions};
    use granlog_ir::parser::parse_program;
    use granlog_ir::Measure;

    const QSORT_PAR: &str = r#"
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

    fn annotate(src: &str, overhead: f64) -> AnnotatedProgram {
        let program = parse_program(src).unwrap();
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        apply_granularity_control(&program, &analysis, &AnnotateOptions { overhead })
    }

    #[test]
    fn qsort_parallel_conjunction_gets_grain_tests() {
        let annotated = annotate(QSORT_PAR, 20.0);
        assert_eq!(annotated.decisions.len(), 1);
        let decision = &annotated.decisions[0];
        assert_eq!(decision.clause_pred, PredId::parse("qsort", 2));
        assert_eq!(decision.guarded, Some(true));
        assert_eq!(decision.arms.len(), 2);
        for arm in &decision.arms {
            match arm {
                Some((
                    pred,
                    Guard::SizeAtLeast {
                        arg_pos,
                        measure,
                        k,
                    },
                )) => {
                    assert_eq!(*pred, PredId::parse("qsort", 2));
                    assert_eq!(*arg_pos, 0);
                    assert_eq!(*measure, Measure::ListLength);
                    assert!(*k >= 1);
                }
                other => panic!("expected a grain test, got {other:?}"),
            }
        }
        // The rewritten clause contains the $grain_ge test and both a parallel
        // and a sequential version of the conjunction.
        let qsort_clauses = annotated.program.clauses_of(PredId::parse("qsort", 2));
        let body = qsort_clauses[1].display().to_string();
        assert!(body.contains("$grain_ge"), "{body}");
        assert!(body.contains('&'), "{body}");
        assert!(body.contains("length"), "{body}");
    }

    #[test]
    fn huge_overhead_sequentialises_unconditionally() {
        // With an overhead beyond the search cap the analysis concludes the
        // spawned work can never pay for itself for qsort-sized inputs only if
        // the cost is bounded; qsort's bound grows without limit, so instead we
        // check a program whose parallel goals have constant cost.
        let src = r#"
            :- mode main(+).
            main(X) :- tiny(X) & tiny(X).
            tiny(_).
        "#;
        let annotated = annotate(src, 48.0);
        assert_eq!(annotated.decisions.len(), 1);
        assert_eq!(annotated.decisions[0].guarded, Some(false));
        // The '&' disappeared from the transformed clause.
        let main = annotated.program.clauses_of(PredId::parse("main", 1));
        assert!(!main[0].display().to_string().contains('&'));
    }

    #[test]
    fn tiny_overhead_keeps_parallelism_unconditional() {
        // Overhead smaller than any call's cost: always parallel, no tests.
        let annotated = annotate(QSORT_PAR, 0.5);
        assert_eq!(annotated.decisions.len(), 1);
        assert_eq!(annotated.decisions[0].guarded, None);
        let qsort_clauses = annotated.program.clauses_of(PredId::parse("qsort", 2));
        let body = qsort_clauses[1].display().to_string();
        assert!(body.contains('&'));
        assert!(!body.contains("$grain_ge"));
    }

    #[test]
    fn unknown_goals_stay_parallel() {
        let src = r#"
            :- mode p(+).
            p(X) :- mystery_a(X) & mystery_b(X).
        "#;
        let annotated = annotate(src, 48.0);
        assert_eq!(annotated.decisions[0].guarded, None);
        assert_eq!(annotated.decisions[0].arms, vec![None, None]);
    }

    const SEQUENTIAL_P: &str = r#"
        :- mode p(+, -).
        :- sequential p/2.
        p([], []).
        p([H|T], [H|R]) :- q(T, A) & q(T, B), app(A, B, R).
        q([], []).
        q([H|T], [H|R]) :- q(T, R).
        app([], L, L).
        app([H|T], L, [H|R]) :- app(T, L, R).
    "#;

    #[test]
    fn sequential_directive_forces_sequentialisation() {
        let annotated = annotate(SEQUENTIAL_P, 1.0);
        assert_eq!(annotated.decisions.len(), 1);
        assert_eq!(annotated.decisions[0].guarded, Some(false));
        let p = annotated.program.clauses_of(PredId::parse("p", 2));
        assert!(!p[1].display().to_string().contains('&'));
    }

    #[test]
    fn fixed_threshold_rewrite_honours_the_sequential_directive() {
        // One rewrite serves both tables, so `:- sequential` binds the
        // Figure 2 sweep exactly as it binds the threshold rewrite.
        let program = parse_program(SEQUENTIAL_P).unwrap();
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        for k in [0, 3] {
            let fixed = prepare_program(&program, &analysis, ControlMode::FixedThreshold(k), 1.0);
            let p = fixed.clauses_of(PredId::parse("p", 2));
            let body = p[1].display().to_string();
            assert!(!body.contains('&') && !body.contains("$grain_ge"), "{body}");
        }
    }

    #[test]
    fn fixed_threshold_tests_every_arm_against_the_same_grain_size() {
        let program = parse_program(QSORT_PAR).unwrap();
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let qsort = PredId::parse("qsort", 2);
        let fixed = prepare_program(&program, &analysis, ControlMode::FixedThreshold(7), 1.0);
        let body = fixed.clauses_of(qsort)[1].display().to_string();
        assert_eq!(body.matches("length,7)").count(), 2, "{body}");
        // Grain size 0 is no test at all.
        let open = prepare_program(&program, &analysis, ControlMode::FixedThreshold(0), 1.0);
        assert_eq!(
            open.clauses_of(qsort)[1].body,
            program.clauses_of(qsort)[1].body
        );
    }

    #[test]
    fn sequentialize_strips_all_parallelism() {
        let program = parse_program(QSORT_PAR).unwrap();
        let seq = sequentialize(&program);
        assert_eq!(seq.len(), program.len());
        for clause in seq.clauses() {
            assert!(!clause.display().to_string().contains('&'));
        }
        // Directives survive.
        assert!(seq.mode_of(PredId::parse("qsort", 2)).is_some());
    }

    #[test]
    fn clauses_without_parallelism_are_untouched() {
        let annotated = annotate(QSORT_PAR, 20.0);
        let app = PredId::parse("app", 3);
        let original = parse_program(QSORT_PAR).unwrap();
        assert_eq!(
            annotated.program.clauses_of(app)[1].body,
            original.clauses_of(app)[1].body
        );
        // Same number of clauses overall.
        assert_eq!(annotated.program.len(), original.len());
    }

    #[test]
    fn nested_parallel_conjunctions_are_all_transformed() {
        let src = r#"
            :- mode t(+, -).
            :- mode work(+, -).
            t(N, R) :- ( work(N, A) & work(N, B) ) & work(N, C), R = [A, B, C].
            work(0, 0).
            work(N, R) :- N > 0, N1 is N - 1, work(N1, R1), R is R1 + 1.
        "#;
        let annotated = annotate(src, 5.0);
        // The flattener treats the nested '&' as one three-arm conjunction.
        assert_eq!(annotated.decisions.len(), 1);
        assert_eq!(annotated.decisions[0].arms.len(), 3);
        assert_eq!(annotated.decisions[0].guarded, Some(true));
        let t = annotated.program.clauses_of(PredId::parse("t", 2));
        let body = t[0].display().to_string();
        // All three arms are driven by `N` at one grain size: one test.
        assert_eq!(body.matches("$grain_ge").count(), 1, "{body}");
    }

    #[test]
    fn arms_that_share_their_driving_argument_share_one_grain_test() {
        let src = r#"
            :- mode two(+, -).
            :- mode work(+, -).
            two(N, [A, B, C]) :- M is N - 1, (work(M, A) & work(M, B) & work(N, C)).
            work(0, 0).
            work(N, R) :- N > 0, N1 is N - 1, work(N1, R1), R is R1 + 1.
        "#;
        let annotated = annotate(src, 5.0);
        assert_eq!(annotated.decisions[0].guarded, Some(true));
        let two = annotated.program.clauses_of(PredId::parse("two", 2));
        let body = two[0].display().to_string();
        // `M` drives two arms and is tested once; `N` drives the third.
        assert_eq!(body.matches("$grain_ge").count(), 2, "{body}");
        assert!(body.contains("'$grain_ge'(M,int,"), "{body}");
        assert!(body.contains("'$grain_ge'(N,int,"), "{body}");
    }

    #[test]
    fn arms_of_different_cost_on_one_argument_share_the_larger_grain_test() {
        let src = r#"
            :- mode two(+, -).
            :- mode work(+, -).
            :- mode heavy(+, -).
            two(N, [A, B]) :- work(N, A) & heavy(N, B).
            work(0, 0).
            work(N, R) :- N > 0, N1 is N - 1, work(N1, R1), R is R1 + 1.
            heavy(0, 0).
            heavy(N, R) :- N > 0, N1 is N - 1, heavy(N1, R1), work(N, W), R is R1 + W.
        "#;
        let annotated = annotate(src, 5.0);
        let decision = &annotated.decisions[0];
        assert_eq!(decision.guarded, Some(true));
        let ks: Vec<u64> = decision
            .arms
            .iter()
            .map(|arm| match arm {
                Some((_, Guard::SizeAtLeast { arg_pos: 0, k, .. })) => *k,
                other => panic!("expected a test on N, got {other:?}"),
            })
            .collect();
        assert_ne!(ks[0], ks[1], "the arms differ in cost");
        let two = annotated.program.clauses_of(PredId::parse("two", 2));
        let body = two[0].display().to_string();
        // `N >= k1, N >= k2` is `N >= max(k1, k2)`: one test.
        assert_eq!(body.matches("$grain_ge").count(), 1, "{body}");
        let largest = ks.iter().max().unwrap();
        assert!(
            body.contains(&format!("'$grain_ge'(N,int,{largest})")),
            "{body}"
        );
    }

    #[test]
    fn grain_test_uses_int_measure_for_numeric_recursion() {
        let src = r#"
            :- mode fibpair(+, -).
            fibpair(N, [A, B]) :- fib(N, A) & fib(N, B).
            fib(0, 0).
            fib(1, 1).
            fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                         fib(M1, N1), fib(M2, N2), N is N1 + N2.
        "#;
        let annotated = annotate(src, 30.0);
        let d = &annotated.decisions[0];
        assert_eq!(d.guarded, Some(true));
        match d.arms[0] {
            Some((_, Guard::SizeAtLeast { measure, k, .. })) => {
                assert_eq!(measure, Measure::IntValue);
                assert!(k <= 10, "fib threshold should be small, got {k}");
            }
            other => panic!("expected test, got {other:?}"),
        }
    }
}
