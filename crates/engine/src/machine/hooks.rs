//! The profiler's and the task recorder's hooks: one null check each when
//! off, and neither changes what the machine computes or counts.

use super::head::Cands;
use super::Machine;
use crate::error::EngineResult;
use crate::heap::HCell;
use crate::image::Image;
use crate::tasktree::TaskId;
use granlog_ir::PredId;

impl Machine {
    /// [`Machine::try_clauses`] with per-predicate port accounting when the
    /// profiler is on. Both clause-selection entry points (`call_user` for
    /// fresh calls, `backtrack` for redos) route through here; with the
    /// profiler off this is a single null-check and a tail call, and the
    /// operation counters are untouched either way.
    #[inline]
    pub(super) fn profiled_clauses(
        &mut self,
        image: &Image,
        goal: HCell,
        cands: Cands,
        cursor: usize,
    ) -> EngineResult<bool> {
        if self.profiler.is_none() {
            return self.try_clauses(image, goal, cands, cursor);
        }
        let pred = match goal {
            HCell::Struct(name, arity, _) => PredId::new(name, arity as usize),
            HCell::Atom(name) => PredId::new(name, 0),
            // Unreachable: clause selection only runs for user-predicate
            // goals, which are atoms or structures. Fall through untracked.
            _ => return self.try_clauses(image, goal, cands, cursor),
        };
        let head_attempts_before = self.counters.head_attempts;
        let unifications_before = self.counters.unifications;
        let heap_before = self.heap.len();
        let result = self.try_clauses(image, goal, cands, cursor);
        // Compute deltas into locals before borrowing the profiler mutably.
        let head_attempts = self.counters.head_attempts - head_attempts_before;
        let unifications = self.counters.unifications - unifications_before;
        let heap_cells = (self.heap.len().saturating_sub(heap_before)) as u64;
        let profiler = self.profiler.as_mut().expect("checked above");
        let entry = profiler.entry(pred);
        if cursor == 0 {
            entry.calls += 1;
        } else {
            entry.redos += 1;
        }
        entry.head_attempts += head_attempts;
        entry.unifications += unifications;
        entry.heap_cells += heap_cells;
        match result {
            Ok(true) => entry.exits += 1,
            Ok(false) => entry.fails += 1,
            // Budget/limit error: the run is aborting and the port is
            // undetermined; leave the entry as-is.
            Err(_) => {}
        }
        result
    }

    /// Charges the arena cells a body step of `clause` has written since
    /// `heap_before` — a call's argument image, a builtin's goal term — to
    /// the clause's predicate, when the profiler is on.
    #[inline]
    pub(super) fn profile_body_cells(&mut self, clause: u32, heap_before: usize) {
        if let Some(profiler) = self.profiler.as_mut() {
            let written = self.heap.len().saturating_sub(heap_before) as u64;
            let pred = self.image.head_pred(clause as usize);
            profiler.entry(pred).heap_cells += written;
        }
    }

    /// Records, in a recorded solve, a fork of `n` arm tasks in the current
    /// task and enters the first; returns its id (0 in any other solve).
    pub(super) fn record_fork(&mut self, n: usize) -> TaskId {
        let Some(recorder) = self.recorder.as_mut() else {
            return 0;
        };
        let first = recorder.record_fork(n, &self.counters).start;
        recorder.push(first, &self.counters);
        first
    }

    /// Records, in a recorded solve, the end of the running arm's task and
    /// the start of task `next`, if there is one.
    pub(super) fn record_arm_exit(&mut self, next: Option<TaskId>) {
        if let Some(recorder) = self.recorder.as_mut() {
            recorder.pop(&self.counters);
            if let Some(task) = next {
                recorder.push(task, &self.counters);
            }
        }
    }
}
