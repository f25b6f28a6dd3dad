//! # granlog-sim
//!
//! A multiprocessor **scheduling simulator** for the fork-join task trees
//! recorded by `granlog-engine`. Together they substitute for the hardware and
//! runtime systems used in the evaluation of *Task Granularity Analysis in
//! Logic Programs* (PLDI 1990): the paper measured ROLOG and &-Prolog on a
//! 4-processor Sequent Symmetry; here the engine supplies the work and
//! fork-join structure of each benchmark, and this crate replays it on a
//! configurable machine model (processor count plus task creation, startup,
//! dispatch and join overheads).
//!
//! The quantity the experiments compare — execution time with and without
//! granularity control, as a function of the task-management overhead — is
//! exactly what this model captures: spawning a task whose work is smaller
//! than the overhead makes the simulated makespan larger, and granularity
//! control removes those spawns.
//!
//! # Example
//!
//! ```
//! use granlog_engine::{ForkSpan, TaskTree};
//! use granlog_sim::{simulate, OverheadModel, SimConfig};
//!
//! // A root task forking two 1000-unit children.
//! let mut tree = TaskTree::new();
//! let kids = tree.add_tasks(2);
//! tree.add_fork(tree.root(), ForkSpan { first: kids.start, count: 2 });
//! for k in kids {
//!     tree.add_work(k, 1000.0);
//! }
//!
//! let sequential = simulate(&tree, &SimConfig::new(1, OverheadModel::zero()));
//! let parallel = simulate(&tree, &SimConfig::new(4, OverheadModel::and_prolog_like()));
//! assert!(parallel.makespan < sequential.makespan);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod sched;

pub use config::{OverheadModel, SimConfig};
pub use sched::{simulate, SimOutcome};

/// The conventional speedup figure used in the paper's tables:
/// `(t_without − t_with) / t_without`, as a percentage.
pub fn speedup_percent(t_without: f64, t_with: f64) -> f64 {
    if t_without == 0.0 {
        0.0
    } else {
        (t_without - t_with) / t_without * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn speedup_percent_matches_paper_convention() {
        // Table 1, fib(15): T0 = 1170, T1 = 850 ⇒ 27.3%.
        let s = speedup_percent(1170.0, 850.0);
        assert!((s - 27.35).abs() < 0.1);
        // Negative when granularity control hurts (flatten in Table 1).
        assert!(speedup_percent(1161.0, 1387.0) < 0.0);
        assert_eq!(speedup_percent(0.0, 10.0), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use granlog_engine::{ForkSpan, TaskTree};
    use proptest::prelude::*;

    /// Builds a random fork-join tree from a recipe of (work, fanout) pairs.
    fn build_tree(recipe: &[(u16, u8)]) -> TaskTree {
        fn go(t: &mut TaskTree, task: usize, recipe: &[(u16, u8)], depth: usize) {
            if recipe.is_empty() || depth > 3 {
                return;
            }
            let (work, fanout) = recipe[0];
            t.add_work(task, work as f64);
            if fanout > 0 {
                let count = (fanout % 3 + 1) as usize;
                let kids = t.add_tasks(count);
                t.add_fork(
                    task,
                    ForkSpan {
                        first: kids.start,
                        count,
                    },
                );
                for k in kids {
                    go(t, k, &recipe[1..], depth + 1);
                }
            }
        }
        let mut t = TaskTree::new();
        go(&mut t, 0, recipe, 0);
        t
    }

    proptest! {
        /// The makespan always lies between the critical path and total work
        /// plus overhead, and 1-processor zero-overhead equals total work.
        #[test]
        fn makespan_bounds(recipe in prop::collection::vec((0u16..100, 0u8..3), 1..5),
                           procs in 1usize..6) {
            let tree = build_tree(&recipe);
            let zero = simulate(&tree, &SimConfig::new(procs, OverheadModel::zero()));
            prop_assert!(zero.makespan + 1e-6 >= tree.critical_path());
            prop_assert!(zero.makespan <= tree.total_work() + 1e-6);
            let seq = simulate(&tree, &SimConfig::new(1, OverheadModel::zero()));
            prop_assert!((seq.makespan - tree.total_work()).abs() < 1e-6);
        }

        /// Adding overhead never makes execution faster.
        #[test]
        fn overhead_is_monotone(recipe in prop::collection::vec((0u16..100, 0u8..3), 1..5),
                                scale in 0.0f64..10.0) {
            let tree = build_tree(&recipe);
            let base = simulate(&tree, &SimConfig::new(4, OverheadModel::zero()));
            let scaled = simulate(
                &tree,
                &SimConfig::new(4, OverheadModel::and_prolog_like().scaled(scale)),
            );
            prop_assert!(scaled.makespan + 1e-9 >= base.makespan);
        }
    }
}
