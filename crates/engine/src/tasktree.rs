//! And-parallel task trees.
//!
//! While the engine executes a program *sequentially*, it records the
//! fork/join structure induced by parallel conjunctions (`&`) together with
//! the sequential work performed inside each task. The result is a
//! [`TaskTree`]: a fork-join DAG whose nodes alternate between chunks of
//! sequential work and forks of child tasks. The multiprocessor simulator in
//! `granlog-sim` schedules this tree on P processors under a configurable
//! overhead model, which is how the paper's Tables 1–2 and Figure 2 are
//! reproduced without the original Sequent Symmetry hardware.

use crate::cost::Counters;
use serde::{Deserialize, Serialize};

/// Identifier of a task within a [`TaskTree`].
pub type TaskId = usize;

/// A batch of forked child tasks. Children created by one fork always get
/// consecutive ids, so the segment stores only the first id and the count —
/// recording a fork is two integer writes, with no per-fork id vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForkSpan {
    /// Id of the first forked child.
    pub first: TaskId,
    /// Number of forked children.
    pub count: usize,
}

impl ForkSpan {
    /// The child task ids, in order.
    pub fn ids(self) -> std::ops::Range<TaskId> {
        self.first..self.first + self.count
    }
}

/// One step in a task's sequential execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Segment {
    /// Sequential work, in work units.
    Work(f64),
    /// Fork the given child tasks, then wait for all of them to finish
    /// (fork-join / independent and-parallelism semantics).
    Fork(ForkSpan),
}

/// A task's segment list. Recorded tasks overwhelmingly take one of two
/// shapes — a leaf arm whose entire work lands in a single merged
/// [`Segment::Work`] chunk, or an inner arm's `[Work, Fork, Work]` sandwich
/// — so up to three segments are stored inline and spawning such tasks costs
/// no allocation; longer lists spill into a `Vec`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum Segments {
    /// No segments recorded.
    #[default]
    Empty,
    /// One segment, inline.
    One([Segment; 1]),
    /// Two segments, inline.
    Two([Segment; 2]),
    /// Three segments, inline.
    Three([Segment; 3]),
    /// Four or more segments.
    Many(Vec<Segment>),
}

impl Segments {
    /// The segments as a slice, in execution order.
    pub fn as_slice(&self) -> &[Segment] {
        match self {
            Segments::Empty => &[],
            Segments::One(a) => a,
            Segments::Two(a) => a,
            Segments::Three(a) => a,
            Segments::Many(v) => v,
        }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` if no segments have been recorded.
    pub fn is_empty(&self) -> bool {
        matches!(self, Segments::Empty)
    }

    /// Iterates the segments in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, Segment> {
        self.as_slice().iter()
    }

    fn push(&mut self, seg: Segment) {
        match self {
            Segments::Many(v) => v.push(seg),
            Segments::Empty => *self = Segments::One([seg]),
            Segments::One([a]) => *self = Segments::Two([*a, seg]),
            Segments::Two([a, b]) => *self = Segments::Three([*a, *b, seg]),
            Segments::Three([a, b, c]) => {
                let mut v = Vec::with_capacity(6);
                v.extend_from_slice(&[*a, *b, *c, seg]);
                *self = Segments::Many(v);
            }
        }
    }

    fn last_mut(&mut self) -> Option<&mut Segment> {
        match self {
            Segments::Empty => None,
            Segments::One(a) => a.last_mut(),
            Segments::Two(a) => a.last_mut(),
            Segments::Three(a) => a.last_mut(),
            Segments::Many(v) => v.last_mut(),
        }
    }
}

impl std::ops::Index<usize> for Segments {
    type Output = Segment;
    fn index(&self, index: usize) -> &Segment {
        &self.as_slice()[index]
    }
}

impl<'a> IntoIterator for &'a Segments {
    type Item = &'a Segment;
    type IntoIter = std::slice::Iter<'a, Segment>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A single task: a sequence of work chunks and forks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// The task's segments, in execution order.
    pub segments: Segments,
}

impl Task {
    /// Total sequential work directly inside this task (excluding children).
    pub fn local_work(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Work(w) => *w,
                Segment::Fork(_) => 0.0,
            })
            .sum()
    }

    /// The child tasks forked by this task.
    pub fn children(&self) -> Vec<TaskId> {
        self.segments
            .iter()
            .flat_map(|s| match s {
                Segment::Fork(span) => span.ids(),
                Segment::Work(_) => 0..0,
            })
            .collect()
    }
}

/// A fork-join task tree recorded during execution. Task 0 is the root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskTree {
    tasks: Vec<Task>,
}

impl Default for TaskTree {
    fn default() -> Self {
        TaskTree {
            tasks: vec![Task::default()],
        }
    }
}

impl TaskTree {
    /// Creates a tree containing only an empty root task.
    pub fn new() -> Self {
        TaskTree::default()
    }

    /// The root task's id.
    pub fn root(&self) -> TaskId {
        0
    }

    /// Number of tasks (including the root).
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the tree only contains the root task.
    pub fn is_empty(&self) -> bool {
        self.tasks.len() <= 1
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id]
    }

    /// All tasks, indexed by id.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Total sequential work over all tasks — the single-processor execution
    /// time (excluding any task-management overhead).
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(Task::local_work).sum()
    }

    /// The critical-path length: the minimum possible execution time with
    /// unlimited processors and zero overhead.
    pub fn critical_path(&self) -> f64 {
        self.critical_path_of(self.root())
    }

    fn critical_path_of(&self, id: TaskId) -> f64 {
        let mut total = 0.0;
        for segment in &self.tasks[id].segments {
            match segment {
                Segment::Work(w) => total += w,
                Segment::Fork(span) => {
                    let longest = span
                        .ids()
                        .map(|k| self.critical_path_of(k))
                        .fold(0.0f64, f64::max);
                    total += longest;
                }
            }
        }
        total
    }

    /// Number of fork points in the whole tree (each fork is a task-spawning
    /// event the simulator charges overhead for).
    pub fn fork_count(&self) -> usize {
        self.tasks
            .iter()
            .flat_map(|t| &t.segments)
            .filter(|s| matches!(s, Segment::Fork(_)))
            .count()
    }

    /// Total number of spawned (non-root) tasks.
    pub fn spawned_tasks(&self) -> usize {
        self.tasks.len().saturating_sub(1)
    }

    // -- construction (used by the recorder) --------------------------------

    /// Adds `n` fresh, empty tasks and returns their (consecutive) id range.
    pub fn add_tasks(&mut self, n: usize) -> std::ops::Range<TaskId> {
        let start = self.tasks.len();
        self.tasks.resize_with(start + n, Task::default);
        start..start + n
    }

    /// Appends work to a task, merging with a trailing work segment.
    pub fn add_work(&mut self, id: TaskId, work: f64) {
        if work <= 0.0 {
            return;
        }
        match self.tasks[id].segments.last_mut() {
            Some(Segment::Work(w)) => *w += work,
            _ => self.tasks[id].segments.push(Segment::Work(work)),
        }
    }

    /// Appends a fork segment to a task.
    pub fn add_fork(&mut self, id: TaskId, children: ForkSpan) {
        self.tasks[id].segments.push(Segment::Fork(children));
    }
}

/// Records the task structure during execution: a stack of "current" tasks.
///
/// The work ledger is the machine's [`Counters`]: the recorder keeps the
/// counters as they were at the current task's last boundary (fork, arm
/// entry or exit), and at the next one writes what they grew by since —
/// `now.since(mark).work()` — into the tree. So nothing is recorded per
/// resolution or grain test.
#[derive(Debug, Clone)]
pub struct TaskRecorder {
    tree: TaskTree,
    stack: Vec<TaskId>,
    /// The counters at the current task's last boundary.
    mark: Counters,
}

impl Default for TaskRecorder {
    fn default() -> Self {
        let tree = TaskTree::new();
        let root = tree.root();
        TaskRecorder {
            tree,
            stack: vec![root],
            mark: Counters::default(),
        }
    }
}

impl TaskRecorder {
    /// Creates a recorder with an empty root task, its counters at zero.
    pub fn new() -> Self {
        TaskRecorder::default()
    }

    /// The task currently accumulating work.
    fn current(&self) -> TaskId {
        *self.stack.last().expect("the root task is never popped")
    }

    /// Writes the work done since the last boundary, the counters being
    /// `now`, into the current task.
    fn flush(&mut self, now: &Counters) {
        let id = self.current();
        self.tree.add_work(id, now.since(&self.mark).work());
        self.mark = *now;
    }

    /// Records a fork of `n` children in the current task and returns their
    /// ids (in order). Child ids are consecutive, so both the returned range
    /// and the stored [`ForkSpan`] carry them without allocating: the whole
    /// fork record is batched into one segment push.
    pub fn record_fork(&mut self, n: usize, now: &Counters) -> std::ops::Range<TaskId> {
        self.flush(now);
        let children = self.tree.add_tasks(n);
        let id = self.current();
        self.tree.add_fork(
            id,
            ForkSpan {
                first: children.start,
                count: n,
            },
        );
        children
    }

    /// Makes `task` the current task (entering a forked arm).
    pub fn push(&mut self, task: TaskId, now: &Counters) {
        self.flush(now);
        self.stack.push(task);
    }

    /// Leaves the current forked arm.
    ///
    /// # Panics
    ///
    /// Panics if called more often than [`TaskRecorder::push`].
    pub fn pop(&mut self, now: &Counters) {
        assert!(self.stack.len() > 1, "cannot pop the root task");
        self.flush(now);
        self.stack.pop();
    }

    /// Finishes recording and returns the tree.
    pub fn into_tree(mut self, now: &Counters) -> TaskTree {
        self.flush(now);
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters after `work` resolutions.
    fn at(work: u64) -> Counters {
        Counters {
            resolutions: work,
            ..Counters::default()
        }
    }

    /// Builds the tree for: root does 10 units, forks two children doing 30
    /// and 50 units, then does 5 more units.
    fn sample() -> TaskTree {
        let mut r = TaskRecorder::new();
        let kids: Vec<TaskId> = r.record_fork(2, &at(10)).collect();
        r.push(kids[0], &at(10));
        r.pop(&at(40));
        r.push(kids[1], &at(40));
        r.pop(&at(90));
        r.into_tree(&at(95))
    }

    #[test]
    fn total_and_critical_path() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_work(), 95.0);
        // Critical path: 10 + max(30, 50) + 5 = 65.
        assert_eq!(t.critical_path(), 65.0);
        assert_eq!(t.fork_count(), 1);
        assert_eq!(t.spawned_tasks(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_tree() {
        let t = TaskTree::new();
        assert!(t.is_empty());
        assert_eq!(t.total_work(), 0.0);
        assert_eq!(t.critical_path(), 0.0);
        assert_eq!(t.fork_count(), 0);
    }

    #[test]
    fn work_segments_merge() {
        // What the root does between its arms and after them is one segment.
        let mut r = TaskRecorder::new();
        let kids: Vec<TaskId> = r.record_fork(2, &at(1)).collect();
        r.push(kids[0], &at(1));
        r.pop(&at(2));
        r.push(kids[1], &at(3));
        r.pop(&at(4));
        let t = r.into_tree(&at(6));
        assert_eq!(t.task(0).segments.len(), 3);
        assert_eq!(t.task(0).segments[2], Segment::Work(3.0));
        assert_eq!(t.total_work(), 6.0);
    }

    #[test]
    fn zero_work_is_ignored() {
        let r = TaskRecorder::new();
        let t = r.into_tree(&at(0));
        assert!(t.task(0).segments.is_empty());
    }

    #[test]
    fn nested_forks() {
        let mut r = TaskRecorder::new();
        let outer: Vec<TaskId> = r.record_fork(2, &at(1)).collect();
        r.push(outer[0], &at(1));
        let inner: Vec<TaskId> = r.record_fork(2, &at(3)).collect();
        r.push(inner[0], &at(3));
        r.pop(&at(7));
        r.push(inner[1], &at(7));
        r.pop(&at(15));
        r.pop(&at(15));
        r.push(outer[1], &at(15));
        r.pop(&at(31));
        let t = r.into_tree(&at(31));
        assert_eq!(t.len(), 5);
        assert_eq!(t.total_work(), 31.0);
        // Critical path: 1 + max(2 + max(4, 8), 16) = 1 + 16 = 17.
        assert_eq!(t.critical_path(), 17.0);
        assert_eq!(t.task(outer[0]).children(), inner);
    }

    #[test]
    #[should_panic(expected = "cannot pop the root task")]
    fn popping_root_panics() {
        let mut r = TaskRecorder::new();
        r.pop(&at(0));
    }

    #[test]
    fn children_listing() {
        let t = sample();
        assert_eq!(t.task(0).children(), vec![1, 2]);
        assert!(t.task(1).children().is_empty());
    }
}
