//! Control: the goal stack, choice points, barriers (`\+`, conditions, `&`
//! arms), cut, backtracking and failure, all as explicit records.

use super::head::Cands;
use super::offer::{ArmNext, ParState};
use super::Machine;
use crate::error::{EngineError, EngineResult};
use crate::heap::HCell;
use crate::image::Image;
use crate::par::ParHook;
use crate::template::Seq;

/// A clause activation's context, shared by every step of its body: the
/// clause template, the activation's variable block in the arena, and the
/// cut barrier (the choice-point height at the activating call, which `!`
/// prunes to).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Activation {
    pub(super) clause: u32,
    pub(super) var_base: u32,
    pub(super) cut: u32,
}

/// One goal-stack slot: either a materialized arena cell (queries, metacalls
/// and runtime-classified control arms) or a compiled body step of a clause
/// activation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Goal {
    /// A materialized goal cell, dispatched by run-time inspection.
    Cell(HCell),
    /// A compiled body step, executed straight off its clause template.
    Step(StepRef),
}

/// A compiled body step (see [`crate::template::Step`]) of an activation.
/// `Copy` and four words — goal-stack slots stay cheap to move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct StepRef {
    pub(super) act: Activation,
    pub(super) step: u32,
}

/// A goal sequence not yet on the goal stack: what a choice point or barrier
/// schedules when it fires (a disjunction's right arm, an if-then-else
/// branch).
#[derive(Debug, Clone, Copy)]
pub(super) enum Pend {
    /// A materialized goal cell.
    Cell(HCell),
    /// A compiled step sequence of an activation.
    Seq(Activation, Seq),
}

/// What a choice point retries when backtracking reaches it.
pub(super) enum Retry {
    /// Retry the pending call's remaining candidate clauses from `cursor`.
    Clauses {
        goal: HCell,
        cands: Cands,
        cursor: usize,
    },
    /// Run the saved alternative (the right arm of a disjunction).
    Alt(Pend),
}

/// An explicit choice point: everything needed to restore the machine to the
/// moment the choice was made and continue with the next alternative.
pub(super) struct ChoicePoint {
    retry: Retry,
    /// Goal-stack height at creation — the saved continuation.
    goal_top: usize,
    /// The machine's goal-protection watermark before this record was
    /// pushed; restored when the record is popped or committed away.
    protect_prev: usize,
    trail_mark: usize,
    heap_mark: usize,
    goal_trail_mark: usize,
}

/// What the completion (success or failure) of a barrier's sub-solve means.
pub(super) enum BarrierExit {
    /// Negation as failure: success of the inner goal fails the `\+`,
    /// failure succeeds it; bindings are undone either way.
    Not,
    /// An if-then(-else) condition: on success, commit the condition's
    /// choice points and run `then_` (keeping its bindings); on failure,
    /// undo and run `else_` — or fail the construct if there is none.
    Cond { then_: Pend, else_: Option<Pend> },
    /// One arm of a parallel conjunction: on success, commit and start the
    /// next arm (or finish); on failure, fail the whole conjunction.
    Par(ParState),
}

/// An isolation barrier: the explicit record bounding a sub-solve (negation,
/// if-then-else condition, `&` arm) from below. While a barrier is live, the
/// solve loop treats `goal_base` as its success height and `cp_base` as its
/// backtracking floor; `trail_mark`/`heap_mark` are the undo marks the
/// construct's semantics may need on exit.
pub(super) struct Barrier {
    exit: BarrierExit,
    /// Goal-stack height when pushed — the sub-solve succeeds when the
    /// stack is back down to this height.
    goal_base: usize,
    /// Choice-point height when pushed — backtracking inside the sub-solve
    /// never unwinds below this floor.
    cp_base: usize,
    trail_mark: usize,
    heap_mark: usize,
}

impl Machine {
    /// Pushes a goal slot. If the slot being written belongs to a live
    /// choice point's saved continuation (one integer compare; never true in
    /// deterministic execution), the old slot is recorded on the goal trail
    /// first so backtracking restores it.
    pub(super) fn push_goal(&mut self, goal: Goal) -> EngineResult<()> {
        if self.goal_top >= self.config.max_depth {
            return Err(EngineError::DepthLimit(self.config.max_depth));
        }
        if self.goal_top < self.protect {
            self.goal_trail
                .push((self.goal_top as u32, self.goal_stack[self.goal_top]));
        }
        if self.goal_top == self.goal_stack.len() {
            self.goal_stack.push(goal);
        } else {
            self.goal_stack[self.goal_top] = goal;
        }
        self.goal_top += 1;
        Ok(())
    }

    /// Pushes a compiled step sequence of `act` (in reverse, so execution
    /// runs left to right) in one pass: one depth check, at most one growth
    /// of the stack, and a goal-trail entry only for a slot below the
    /// protection watermark.
    pub(super) fn push_seq(&mut self, act: Activation, seq: Seq) -> EngineResult<()> {
        let (top, end) = (self.goal_top, self.goal_top + seq.len as usize);
        if end > self.config.max_depth {
            return Err(EngineError::DepthLimit(self.config.max_depth));
        }
        let step = |step| Goal::Step(StepRef { act, step });
        if self.goal_stack.len() < end {
            self.goal_stack.resize(end, step(seq.start));
        }
        let steps = (seq.start..seq.start + seq.len).rev();
        for (slot, k) in (top..end).zip(steps) {
            if slot < self.protect {
                self.goal_trail.push((slot as u32, self.goal_stack[slot]));
            }
            self.goal_stack[slot] = step(k);
        }
        self.goal_top = end;
        Ok(())
    }

    /// Pushes a pending goal sequence (a retried disjunction arm or a taken
    /// if-then-else branch).
    fn push_pend(&mut self, pend: Pend) -> EngineResult<()> {
        match pend {
            Pend::Cell(cell) => self.push_goal(Goal::Cell(cell)),
            Pend::Seq(act, seq) => self.push_seq(act, seq),
        }
    }

    fn undo_goal_trail(&mut self, mark: usize) {
        while self.goal_trail.len() > mark {
            let (slot, old) = self.goal_trail.pop().expect("length checked");
            self.goal_stack[slot as usize] = old;
        }
    }

    pub(super) fn push_choice_point(
        &mut self,
        retry: Retry,
        trail_mark: usize,
        heap_mark: usize,
        goal_trail_mark: usize,
    ) {
        self.counters.choice_points += 1;
        let goal_top = self.goal_top;
        let protect_prev = self.protect;
        self.protect = self.protect.max(goal_top);
        self.choice_points.push(ChoicePoint {
            retry,
            goal_top,
            protect_prev,
            trail_mark,
            heap_mark,
            goal_trail_mark,
        });
    }

    /// Runs a disjunction: a choice point holds the right arm, and the left
    /// arm runs against the shared continuation in place.
    #[inline]
    pub(super) fn disjunction(&mut self, left: Pend, right: Pend) -> EngineResult<bool> {
        let (trail, heap, goal_trail) = (self.trail.len(), self.heap.len(), self.goal_trail.len());
        self.push_choice_point(Retry::Alt(right), trail, heap, goal_trail);
        self.push_pend(left)?;
        Ok(true)
    }

    /// Enters a sub-solve: pushes the barrier whose `exit` says what the
    /// success and failure of `inner` mean, then `inner`.
    #[inline]
    pub(super) fn enter(&mut self, exit: BarrierExit, inner: Pend) -> EngineResult<bool> {
        self.push_barrier(exit)?;
        self.push_pend(inner)?;
        Ok(true)
    }

    /// Discards choice points above `cp_base` without restoring state —
    /// commit to the bindings made since (first-solution semantics of
    /// isolation barriers).
    pub(super) fn commit_choice_points(&mut self, cp_base: usize) {
        if self.choice_points.len() > cp_base {
            self.protect = self.choice_points[cp_base].protect_prev;
            self.choice_points.truncate(cp_base);
        }
    }

    /// Executes `!` for an activation whose cut barrier is `to`: prunes to
    /// it, clamped to the innermost isolation barrier — local inside `\+`
    /// and if-then-else conditions, transparent in `;`/`->` branches. A cut
    /// reaching the machine as a cell (a query goal or a metacalled
    /// variable) passes 0 and prunes to the innermost barrier.
    pub(super) fn cut(&mut self, to: usize) {
        self.commit_choice_points(to.max(self.base_cp));
    }

    /// Undoes bindings and arena growth back to a trail and a heap mark:
    /// the unwind of a backtrack, of a failed head attempt and of a
    /// barrier's exit. Inline across modules: `try_clauses` compiles
    /// measurably worse around an out-of-module call here.
    #[inline]
    pub(super) fn undo_to(&mut self, trail_mark: usize, heap_mark: usize) {
        self.undo_trail(trail_mark);
        self.note_heap_high_water();
        self.heap.truncate(heap_mark);
    }

    /// Backtracks to the most recent choice point above the current barrier
    /// floor that yields a continuation: restores trail, arena, goal stack
    /// and protection watermark, then retries the record's alternative.
    /// Returns `false` when no choice point above the floor remains (the
    /// current (sub-)solve fails).
    fn backtrack(&mut self, image: &Image) -> EngineResult<bool> {
        while self.choice_points.len() > self.base_cp {
            let cp = self.choice_points.pop().expect("length checked");
            self.protect = cp.protect_prev;
            self.undo_to(cp.trail_mark, cp.heap_mark);
            self.undo_goal_trail(cp.goal_trail_mark);
            self.goal_top = cp.goal_top;
            match cp.retry {
                Retry::Alt(pend) => {
                    self.push_pend(pend)?;
                    return Ok(true);
                }
                Retry::Clauses {
                    goal,
                    cands,
                    cursor,
                } => {
                    if self.profiled_clauses(image, goal, cands, cursor)? {
                        return Ok(true);
                    }
                    // Candidates exhausted: keep unwinding.
                }
            }
        }
        Ok(false)
    }

    /// Pushes an isolation barrier at the current machine position, above
    /// which [`Machine::enter`] then pushes the guarded sub-goal.
    fn push_barrier(&mut self, exit: BarrierExit) -> EngineResult<()> {
        if self.barriers.len() >= self.config.max_depth {
            return Err(EngineError::DepthLimit(self.config.max_depth));
        }
        self.barriers.push(Barrier {
            exit,
            goal_base: self.goal_top,
            cp_base: self.choice_points.len(),
            trail_mark: self.trail.len(),
            heap_mark: self.heap.len(),
        });
        self.base_goal = self.goal_top;
        self.base_cp = self.choice_points.len();
        self.stats.max_barrier_depth = self.stats.max_barrier_depth.max(self.barriers.len());
        Ok(())
    }

    /// Pops the innermost barrier and restores the cached floor fields from
    /// the one below (or the query's, with none left).
    fn pop_barrier(&mut self) -> Barrier {
        let barrier = self.barriers.pop().expect("barrier stack is non-empty");
        let (goal, cp) = self
            .barriers
            .last()
            .map(|b| (b.goal_base, b.cp_base))
            .unwrap_or((0, 0));
        self.base_goal = goal;
        self.base_cp = cp;
        barrier
    }

    /// Handles the innermost barrier's sub-solve reaching its base
    /// (success). Returns `Ok(false)` when the construct's semantics turn
    /// that success into failure (a succeeded `\+`), which the caller
    /// propagates through [`Machine::fail`].
    pub(super) fn barrier_done(
        &mut self,
        image: &Image,
        hook: Option<&dyn ParHook>,
    ) -> EngineResult<bool> {
        // The arm of a parallel conjunction that just succeeded commits to
        // its first solution, and while arms remain the conjunction advances
        // in place, under the same barrier.
        let top = self.barriers.len() - 1;
        if let BarrierExit::Par(mut state) = self.barriers[top].exit {
            self.commit_choice_points(self.barriers[top].cp_base);
            let next = self.next_arm(hook, &mut state);
            self.barriers[top].exit = BarrierExit::Par(state);
            match next? {
                ArmNext::Run(arm) => {
                    self.record_arm_exit(Some(state.first_task + arm as usize));
                    self.push_pend(self.arm(image, state.arms, arm))?;
                    return Ok(true);
                }
                // `fail` unwinds the barrier: the conjunction's bindings are
                // undone and what is still on offer is withdrawn.
                ArmNext::Fail => return Ok(false),
                ArmNext::Done => {}
            }
        }
        let barrier = self.pop_barrier();
        match barrier.exit {
            BarrierExit::Not => {
                // The negated goal succeeded: discard the choice points of
                // its interior, undo its bindings, and fail the `\+`.
                self.commit_choice_points(barrier.cp_base);
                self.undo_to(barrier.trail_mark, barrier.heap_mark);
                Ok(false)
            }
            BarrierExit::Cond { then_, .. } => {
                // The condition succeeded: commit to its first solution and
                // take the then-branch with the bindings kept.
                self.commit_choice_points(barrier.cp_base);
                self.push_pend(then_)?;
                Ok(true)
            }
            BarrierExit::Par(state) => {
                // Every arm succeeded, here or elsewhere.
                self.end_conjunction(state, hook);
                Ok(true)
            }
        }
    }

    /// Propagates failure: backtracks to the nearest resumable choice point,
    /// unwinding barriers (and applying their failure semantics) as their
    /// floors are reached. Returns `false` when the query itself has failed.
    pub(super) fn fail(&mut self, image: &Image, hook: Option<&dyn ParHook>) -> EngineResult<bool> {
        loop {
            if self.backtrack(image)? {
                return Ok(true);
            }
            // No choice point above the floor: the innermost sub-solve
            // fails; its barrier decides what that means.
            if self.barriers.is_empty() {
                return Ok(false);
            }
            let barrier = self.pop_barrier();
            // Drop unconsumed goals of the failed attempt.
            self.goal_top = barrier.goal_base;
            self.undo_to(barrier.trail_mark, barrier.heap_mark);
            match barrier.exit {
                BarrierExit::Not => {
                    // The negated goal failed: the `\+` succeeds.
                    return Ok(true);
                }
                BarrierExit::Cond {
                    else_: Some(pend), ..
                } => {
                    // The condition failed: take the else-branch with the
                    // condition's bindings undone.
                    self.push_pend(pend)?;
                    return Ok(true);
                }
                BarrierExit::Cond { else_: None, .. } => {
                    // A bare `(Cond -> Then)` fails outright: keep unwinding
                    // in the enclosing region.
                }
                // Independent and-parallelism: one failed arm, here or
                // elsewhere, fails the whole conjunction (no backtracking
                // across arms).
                BarrierExit::Par(state) => self.end_conjunction(state, hook),
            }
        }
    }
}
