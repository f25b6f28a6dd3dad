//! Discrete-event scheduling of a fork-join task tree on P processors.
//!
//! The simulator models the execution of the task tree recorded by the engine
//! on a shared-memory multiprocessor:
//!
//! * a task runs on one processor at a time, executing its work segments;
//! * when it reaches a fork it pays `spawn_parent` per child (sequentially, on
//!   its own processor), the children join the ready queue, and the parent
//!   *blocks* — releasing its processor — until all children have finished;
//! * idle processors take ready tasks in FIFO order, paying `dispatch` plus
//!   (for a task's first activation) `task_startup`;
//! * when the last child of a fork finishes, the parent re-enters the ready
//!   queue and pays `join` when it resumes.
//!
//! The resulting makespan is the simulated execution time. With one processor
//! and a zero overhead model it equals the tree's total work; with unlimited
//! processors and zero overhead it approaches the critical path.

use crate::config::SimConfig;
use granlog_engine::{Segment, TaskId, TaskTree};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The result of simulating a task tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Simulated execution time (makespan), in work units.
    pub makespan: f64,
    /// Total useful work (the tree's sequential work).
    pub total_work: f64,
    /// Total overhead work added by task management.
    pub total_overhead: f64,
    /// Busy time (work + overhead) per processor.
    pub processor_busy: Vec<f64>,
    /// Number of tasks spawned (excluding the root).
    pub spawned_tasks: usize,
    /// The speedup over running the same tree's work sequentially with no
    /// overhead (`total_work / makespan`).
    pub speedup_vs_sequential: f64,
    /// Average processor utilisation (busy time / (P · makespan)).
    pub utilisation: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Ready {
    time: f64,
    sequence: u64,
    task: TaskId,
    segment: usize,
    resume: bool,
}

impl Eq for Ready {}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, sequence): earlier first, FIFO within equal times.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Default)]
struct TaskState {
    /// Parent task and the index of the fork segment waiting on this task.
    parent: Option<(TaskId, usize)>,
    /// Outstanding joins: (fork segment index, children still running, latest
    /// child finish time seen so far).
    pending: Vec<(usize, usize, f64)>,
}

/// Simulates the execution of `tree` on the machine described by `config`.
pub fn simulate(tree: &TaskTree, config: &SimConfig) -> SimOutcome {
    let n_tasks = tree.len();
    let mut states: Vec<TaskState> = vec![TaskState::default(); n_tasks];
    for id in 0..n_tasks {
        for (seg_idx, seg) in tree.task(id).iter().enumerate() {
            if let Segment::Fork(children) = seg {
                for c in children.ids() {
                    states[c].parent = Some((id, seg_idx));
                }
                states[id].pending.push((seg_idx, children.count, 0.0));
            }
        }
    }

    let mut proc_free = vec![0.0f64; config.processors];
    let mut proc_busy = vec![0.0f64; config.processors];
    let mut ready: BinaryHeap<Ready> = BinaryHeap::new();
    let mut sequence = 0u64;
    let mut total_overhead = 0.0f64;
    let mut makespan = 0.0f64;

    ready.push(Ready {
        time: 0.0,
        sequence: 0,
        task: tree.root(),
        segment: 0,
        resume: false,
    });

    while let Some(activation) = ready.pop() {
        // Pick the processor that becomes free earliest.
        let (proc, _) = proc_free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(Ordering::Equal))
            .expect("at least one processor");
        let mut now = activation.time.max(proc_free[proc]);
        let busy_start = now;

        // Dispatch / startup / join overheads for this activation.
        let mut overhead = config.overhead.dispatch;
        if activation.resume {
            overhead += config.overhead.join;
        } else if activation.task != tree.root() {
            overhead += config.overhead.task_startup;
        }
        now += overhead;
        total_overhead += overhead;

        // Run segments until the task blocks on a fork or finishes.
        let task = tree.task(activation.task);
        let mut seg_idx = activation.segment;
        let mut blocked = false;
        while seg_idx < task.len() {
            match &task[seg_idx] {
                Segment::Work(w) => {
                    now += w;
                    seg_idx += 1;
                }
                Segment::Fork(children) => {
                    for child in children.ids() {
                        now += config.overhead.spawn_parent;
                        total_overhead += config.overhead.spawn_parent;
                        sequence += 1;
                        ready.push(Ready {
                            time: now,
                            sequence,
                            task: child,
                            segment: 0,
                            resume: false,
                        });
                    }
                    // The parent blocks; it will resume at the segment after
                    // the fork once every child has completed.
                    blocked = true;
                    break;
                }
            }
        }

        proc_free[proc] = now;
        proc_busy[proc] += now - busy_start;
        makespan = makespan.max(now);

        if blocked {
            continue;
        }

        // Task finished: notify the parent's fork, if any. (Only the direct
        // parent is notified; ancestors resume when the parent itself later
        // finishes.)
        if let Some((parent, fork_seg)) = states[activation.task].parent {
            let slot = states[parent]
                .pending
                .iter_mut()
                .find(|(seg, _, _)| *seg == fork_seg)
                .expect("fork bookkeeping exists");
            slot.1 -= 1;
            slot.2 = slot.2.max(now);
            if slot.1 == 0 {
                let resume_time = slot.2;
                sequence += 1;
                ready.push(Ready {
                    time: resume_time,
                    sequence,
                    task: parent,
                    segment: fork_seg + 1,
                    resume: true,
                });
            }
        }
    }

    let total_work = tree.total_work();
    let utilisation = if makespan > 0.0 {
        proc_busy.iter().sum::<f64>() / (config.processors as f64 * makespan)
    } else {
        1.0
    };
    SimOutcome {
        makespan,
        total_work,
        total_overhead,
        processor_busy: proc_busy,
        spawned_tasks: tree.spawned_tasks(),
        speedup_vs_sequential: if makespan > 0.0 {
            total_work / makespan
        } else {
            1.0
        },
        utilisation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverheadModel;
    use granlog_engine::ForkSpan;

    /// Adds `n` children to `task` as one fork.
    fn fork(tree: &mut TaskTree, task: usize, n: usize) -> std::ops::Range<usize> {
        let kids = tree.add_tasks(n);
        tree.add_fork(
            task,
            ForkSpan {
                first: kids.start,
                count: n,
            },
        );
        kids
    }

    /// root: 10 work, fork(a: 30, b: 50), then 5 more work.
    fn sample_tree() -> TaskTree {
        let mut t = TaskTree::new();
        t.add_work(0, 10.0);
        let kids = fork(&mut t, 0, 2);
        t.add_work(kids.start, 30.0);
        t.add_work(kids.start + 1, 50.0);
        t.add_work(0, 5.0);
        t
    }

    fn config(p: usize, overhead: OverheadModel) -> SimConfig {
        SimConfig::new(p, overhead)
    }

    #[test]
    fn single_processor_zero_overhead_equals_total_work() {
        let tree = sample_tree();
        let out = simulate(&tree, &config(1, OverheadModel::zero()));
        assert_eq!(out.makespan, tree.total_work());
        assert_eq!(out.total_overhead, 0.0);
        assert!((out.speedup_vs_sequential - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_processors_zero_overhead_overlap_children() {
        let tree = sample_tree();
        let out = simulate(&tree, &config(2, OverheadModel::zero()));
        // 10 + max(30, 50) + 5 = 65 (children overlap perfectly).
        assert_eq!(out.makespan, 65.0);
        assert_eq!(out.total_work, 95.0);
        assert!(out.speedup_vs_sequential > 1.4);
    }

    #[test]
    fn many_processors_zero_overhead_reach_critical_path() {
        let tree = sample_tree();
        let out = simulate(&tree, &config(16, OverheadModel::zero()));
        assert_eq!(out.makespan, tree.critical_path());
    }

    #[test]
    fn overheads_increase_makespan() {
        let tree = sample_tree();
        let cheap = simulate(&tree, &config(2, OverheadModel::zero()));
        let costly = simulate(&tree, &config(2, OverheadModel::rolog_like()));
        assert!(costly.makespan > cheap.makespan);
        assert!(costly.total_overhead > 0.0);
    }

    #[test]
    fn sequential_tree_is_unaffected_by_processor_count() {
        let mut tree = TaskTree::new();
        tree.add_work(0, 100.0);
        let p1 = simulate(&tree, &config(1, OverheadModel::rolog_like()));
        let p4 = simulate(&tree, &config(4, OverheadModel::rolog_like()));
        // Only the root dispatch overhead applies in both cases.
        assert_eq!(p1.makespan, p4.makespan);
        assert_eq!(p1.spawned_tasks, 0);
    }

    #[test]
    fn fine_grained_forks_with_high_overhead_are_slower_than_sequential() {
        // Many tiny tasks: parallel execution pays more in overhead than it
        // gains — exactly the phenomenon granularity control avoids.
        let mut tree = TaskTree::new();
        for _ in 0..50 {
            for kid in fork(&mut tree, 0, 2) {
                tree.add_work(kid, 1.0);
            }
        }
        let ideal = tree.total_work();
        let out = simulate(&tree, &SimConfig::rolog4());
        assert!(
            out.makespan > ideal,
            "fine-grained spawning should be slower than sequential ({} vs {ideal})",
            out.makespan
        );
    }

    #[test]
    fn coarse_grained_forks_with_high_overhead_still_speed_up() {
        let mut tree = TaskTree::new();
        for kid in fork(&mut tree, 0, 4) {
            tree.add_work(kid, 10_000.0);
        }
        let out = simulate(&tree, &SimConfig::rolog4());
        let sequential = tree.total_work();
        assert!(
            out.makespan < sequential / 2.5,
            "expected near-4x speedup, got {}",
            sequential / out.makespan
        );
    }

    #[test]
    fn utilisation_and_busy_times_are_consistent() {
        let tree = sample_tree();
        let out = simulate(&tree, &config(2, OverheadModel::and_prolog_like()));
        assert_eq!(out.processor_busy.len(), 2);
        let busy: f64 = out.processor_busy.iter().sum();
        assert!((busy - (out.total_work + out.total_overhead)).abs() < 1e-6);
        assert!(out.utilisation > 0.0 && out.utilisation <= 1.0);
    }

    #[test]
    fn nested_forks_schedule_correctly() {
        // root forks two children; each child forks two grandchildren of 10.
        let mut tree = TaskTree::new();
        for kid in fork(&mut tree, 0, 2) {
            for grandchild in fork(&mut tree, kid, 2) {
                tree.add_work(grandchild, 10.0);
            }
        }
        let out = simulate(&tree, &config(4, OverheadModel::zero()));
        // 4 leaves of 10 units on 4 processors: makespan 10.
        assert_eq!(out.makespan, 10.0);
        let seq = simulate(&tree, &config(1, OverheadModel::zero()));
        assert_eq!(seq.makespan, 40.0);
    }

    #[test]
    fn empty_tree_has_zero_makespan() {
        let tree = TaskTree::new();
        let out = simulate(&tree, &SimConfig::and_prolog4());
        // Only the root dispatch overhead (root has no work at all).
        assert!(out.makespan <= OverheadModel::and_prolog_like().dispatch);
        assert_eq!(out.total_work, 0.0);
    }

    #[test]
    fn more_processors_never_hurt_with_zero_overhead() {
        let tree = sample_tree();
        let mut last = f64::INFINITY;
        for p in [1, 2, 4, 8] {
            let out = simulate(&tree, &config(p, OverheadModel::zero()));
            assert!(out.makespan <= last + 1e-9, "P={p} regressed");
            last = out.makespan;
        }
    }
}
