//! Threshold → guard lowering: the *producer* of the grain-size decision.
//!
//! The decision itself — one [`Guard`] per predicate, in a [`GuardTable`] —
//! is defined in [`granlog_ir::grain`]. Its one enforcement point is the
//! annotator ([`crate::annotate`]), which rewrites `&` conjunctions into
//! `'$grain_ge'`-guarded source code over the table; the sequential
//! machine, the simulator and the multi-threaded executor all run that
//! rewritten program. This module only fills the table in, in the two ways
//! the experiments need:
//!
//! * [`ProgramAnalysis::guards_at`] lowers each predicate's cost function
//!   and threshold for a task-management overhead `W`: unbounded cost or
//!   `AlwaysParallel` → [`Guard::Always`]; a cost that can never exceed `W`
//!   → [`Guard::Never`]; `SizeAtLeast(k)` → measure the driving input
//!   argument and spawn iff its size reaches `k`, i.e. iff the estimated
//!   work of the arm is at least the spawn overhead.
//! * [`ProgramAnalysis::fixed_guards`] tests the same argument against one
//!   constant `k` whatever the cost function says (the Figure 2 sweep).
//!
//! Predicates the analysis knows nothing about get no entry and spawn,
//! following the paper's prescription for unknown costs (err on the parallel
//! side of a parallel language).

use crate::measure::Measure;
use crate::pipeline::{PredAnalysis, ProgramAnalysis};
use crate::threshold::Threshold;
use granlog_ir::{Guard, GuardTable};

/// `SizeAtLeast { k }` on argument `arg_pos` of a predicate, under the
/// measure the analysis assigned to that argument.
fn size_guard(info: &PredAnalysis, arg_pos: usize, k: u64) -> Guard {
    Guard::SizeAtLeast {
        arg_pos,
        measure: info
            .measures
            .get(arg_pos)
            .copied()
            .unwrap_or(Measure::TermSize),
        k,
    }
}

impl ProgramAnalysis {
    /// Lowers every analysed predicate's threshold at task-management
    /// overhead `W` into its guard.
    pub fn guards_at(&self, overhead: f64) -> GuardTable {
        let guard_of = |(&pred, info): (_, &PredAnalysis)| {
            let guard = match self.threshold_for(pred, overhead) {
                Threshold::AlwaysParallel => Guard::Always,
                Threshold::NeverParallel => Guard::Never,
                Threshold::SizeAtLeast(k) => match info.driving_input() {
                    Some((arg_pos, _param)) => size_guard(info, arg_pos, k),
                    // A threshold without an identifiable driving argument:
                    // stay parallel.
                    None => Guard::Always,
                },
            };
            (pred, guard)
        };
        self.preds.iter().map(guard_of).collect()
    }

    /// Guards every predicate that has an input argument with the fixed
    /// grain size `k` on its driving (else first) input. `k == 0` is no
    /// test at all: everything spawns.
    pub fn fixed_guards(&self, k: u64) -> GuardTable {
        let guard_of = |(&pred, info): (_, &PredAnalysis)| {
            let (arg_pos, _param) = info
                .driving_input()
                .or_else(|| Some((*info.input_positions.first()?, *info.params.first()?)))?;
            let guard = match k {
                0 => Guard::Always,
                _ => size_guard(info, arg_pos, k),
            };
            Some((pred, guard))
        };
        self.preds.iter().filter_map(guard_of).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{analyze_program, AnalysisOptions};
    use granlog_ir::parser::parse_program;
    use granlog_ir::PredId;

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
        // spawning pays off; the lowered guard reflects it monotonically.
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
