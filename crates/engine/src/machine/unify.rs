//! Bindings and the pair walker: dereference, bind and trail, and the one walk
//! over cell pairs behind unification, comparison and `ground/1`.

use super::{Machine, MAX_WALK_CELLS};
use crate::error::TermLimit;
use crate::heap::{self, HCell};

/// Whether a unification counts toward [`crate::Counters::unifications`]:
/// `\=`'s probe and the join's binding of a stolen answer do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Charge {
    Counted,
    Uncounted,
}

/// What [`Machine::walk_pairs`] found at one cell pair: a match, the
/// verdict that ends the walk, or `n` argument pairs at two blocks to visit
/// next.
pub(crate) enum Pair<R> {
    Same,
    Differ(R),
    Args(u32, u32, u32),
}

impl Machine {
    /// Dereferences a heap index: follows bound `Ref` chains to the
    /// representative cell. O(chain length), allocation-free.
    #[inline]
    pub(crate) fn deref_idx(&self, idx: usize) -> usize {
        heap::deref(&self.heap, idx)
    }

    /// The cell at a heap index.
    #[inline]
    pub(crate) fn cell(&self, idx: usize) -> HCell {
        self.heap[idx]
    }

    /// Dereferences a cell value (following its `Ref`, if it is one).
    pub(crate) fn deref_cell(&self, cell: HCell) -> HCell {
        match cell {
            HCell::Ref(i) => self.heap[self.deref_idx(i as usize)],
            other => other,
        }
    }

    /// The dereferenced cell of argument `k` of a goal whose argument block
    /// starts at `base` — the builtins' argument accessor.
    pub(crate) fn deref_arg(&self, base: usize, k: usize) -> HCell {
        self.heap[self.deref_idx(base + k)]
    }

    /// Binds the unbound variable cell at `var`, overwriting it in place and
    /// recording the index on the trail.
    pub(crate) fn bind_cell(&mut self, var: usize, value: HCell) {
        debug_assert!(
            matches!(self.heap[var], HCell::Ref(v) if v as usize == var),
            "binding an already-bound variable"
        );
        self.heap[var] = value;
        self.trail.push(var as u32);
    }

    /// Binds the unbound variable at `var` to the *dereferenced* cell at
    /// `target`: constants and structs are copied into the variable's cell,
    /// unbound targets are pointed at.
    fn bind_to(&mut self, var: usize, target: usize) {
        let value = match self.heap[target] {
            HCell::Ref(_) => HCell::Ref(target as u32),
            other => other,
        };
        self.bind_cell(var, value);
    }

    pub(crate) fn undo_trail(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let var = self.trail.pop().expect("trail length checked") as usize;
            self.heap[var] = HCell::unbound(var);
        }
    }

    /// The current trail height, for probe-and-undo builtins.
    pub(crate) fn trail_mark(&self) -> usize {
        self.trail.len()
    }

    #[inline]
    pub(super) fn count_unification(&mut self) {
        self.counters.unifications += 1;
    }

    /// Walks the terms at `a` and `b` in step, `pair` judging each pair of
    /// cells, in pre-order left to right (a recursive walk's order) off
    /// `walk_stack`. The root pair stays off the stack: most head
    /// unifications are one pair. `Ok(None)` means every pair matched;
    /// `Err(limit)` that more than [`MAX_WALK_CELLS`] pairs were visited.
    pub(crate) fn walk_pairs<R>(
        &mut self,
        a: usize,
        b: usize,
        limit: TermLimit,
        mut pair: impl FnMut(&mut Machine, usize, usize) -> Pair<R>,
    ) -> Result<Option<R>, TermLimit> {
        let (a, b, n) = match pair(self, a, b) {
            Pair::Same | Pair::Args(_, _, 0) => return Ok(None),
            Pair::Differ(verdict) => return Ok(Some(verdict)),
            Pair::Args(a, b, n) => (a, b, n),
        };
        let mut stack = std::mem::take(&mut self.walk_stack);
        stack.push((a, b, n));
        let mut visits = 0;
        let result = loop {
            let Some(top) = stack.last_mut() else {
                break Ok(None);
            };
            let (a, b) = (top.0 as usize, top.1 as usize);
            *top = (top.0 + 1, top.1 + 1, top.2 - 1);
            if top.2 == 0 {
                stack.pop();
            }
            visits += 1;
            if visits > MAX_WALK_CELLS {
                break Err(limit);
            }
            match pair(self, a, b) {
                Pair::Same | Pair::Args(_, _, 0) => {}
                Pair::Differ(verdict) => break Ok(Some(verdict)),
                Pair::Args(a, b, n) => stack.push((a, b, n)),
            }
        };
        stack.clear();
        self.walk_stack = stack;
        result
    }

    /// Unifies the terms at two heap indices, recording bindings on the
    /// trail; a counted unification counts one per visited pair, as the
    /// seed interpreter did.
    pub(crate) fn unify(&mut self, a: usize, b: usize, charge: Charge) -> Result<bool, TermLimit> {
        let differ = self.walk_pairs(a, b, TermLimit::Unify, |machine, a, b| {
            machine.unify_pair(a, b, charge)
        })?;
        Ok(differ.is_none())
    }

    #[inline]
    fn unify_pair(&mut self, a: usize, b: usize, charge: Charge) -> Pair<()> {
        if charge == Charge::Counted {
            self.count_unification();
        }
        let a = self.deref_idx(a);
        let b = self.deref_idx(b);
        match (self.heap[a], self.heap[b]) {
            (HCell::Ref(_), HCell::Ref(_)) if a == b => Pair::Same,
            // Two unbound cells: the younger (higher) one is bound, so a
            // variable handed down a recursion stays a step or two from
            // the older cell that represents it.
            (HCell::Ref(_), HCell::Ref(_)) => {
                self.bind_to(a.max(b), a.min(b));
                Pair::Same
            }
            (HCell::Ref(_), _) => {
                self.bind_to(a, b);
                Pair::Same
            }
            (_, HCell::Ref(_)) => {
                self.bind_to(b, a);
                Pair::Same
            }
            (HCell::Struct(f, n, pa), HCell::Struct(g, m, pb)) if f == g && n == m => {
                Pair::Args(pa, pb, n)
            }
            (x, y) if x == y => Pair::Same,
            _ => Pair::Differ(()),
        }
    }

    /// Unifies the term at a heap index with a cell value, counting one
    /// unification for the root pair as [`Machine::unify`] does. An unbound
    /// target is bound in place and a constant compared in place; only when
    /// both sides are compounds is the value parked in the arena (garbage
    /// afterwards; truncation reclaims it) so their arguments can be walked.
    #[inline]
    pub(crate) fn unify_cell(&mut self, a: usize, value: HCell) -> Result<bool, TermLimit> {
        if let HCell::Ref(j) = value {
            return self.unify(a, j as usize, Charge::Counted);
        }
        let target = self.deref_idx(a);
        match (self.heap[target], value) {
            (HCell::Struct(..), HCell::Struct(..)) => {
                let idx = self.heap.len();
                self.heap.push(value);
                self.unify(target, idx, Charge::Counted)
            }
            (HCell::Ref(_), value) => {
                self.count_unification();
                self.bind_cell(target, value);
                Ok(true)
            }
            (cell, value) => {
                self.count_unification();
                Ok(cell == value)
            }
        }
    }
}
