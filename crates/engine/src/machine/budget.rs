//! What a query may spend: the [`Budget`], the limits the solve loop checks
//! at resolution boundaries, and the charges that count work against them.

use super::Machine;
use crate::error::{BudgetKind, EngineError, EngineResult};
use std::time::{Duration, Instant};

/// The step budget of a query that sets none: far more head attempts than
/// any program of the suite makes, few enough that a runaway query ends in
/// seconds.
pub const DEFAULT_STEPS: u64 = 200_000_000;

/// The resource budget of one query (see [`Machine::solve_goal`]).
/// Exhausting any of the three ends the query in a typed
/// [`EngineError::BudgetExceeded`], and the machine unwinds eagerly (arena
/// truncated, trail emptied), ready for the next query.
///
/// Steps are checked where they are charged, at every head attempt. Arena
/// size and the clock are checked at **resolution boundaries** — the top of
/// the solve loop, between goals — so a query may overshoot `heap_cells` by
/// the arena growth of one goal execution before the check fires. No check
/// writes a counter: a query that stays inside its budget computes and
/// counts exactly what it would under any other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum head-unification attempts (the engine's step currency);
    /// `None` is [`DEFAULT_STEPS`].
    pub steps: Option<u64>,
    /// Maximum arena occupancy in cells; `None` is unlimited.
    pub heap_cells: Option<usize>,
    /// Wall-clock allowance; `None` is unlimited. Polled every few hundred
    /// resolutions, so enforcement granularity is coarser than for `steps`.
    pub wall: Option<Duration>,
}

/// A [`Budget`]'s arena and clock limits, lowered once per query so the
/// solve loop's check is one branch when neither is set.
pub(super) struct Limits {
    /// Either limit set at all?
    pub(super) active: bool,
    /// Arena-size bound in cells.
    heap_limit: usize,
    /// Wall-clock deadline of the query.
    deadline: Option<Instant>,
    /// The budget's wall allowance.
    wall: Duration,
    /// The clock is read once per `wall_poll_mask + 1` checks (see
    /// [`next_wall_poll_mask`]).
    wall_poll_mask: u32,
    /// Checks made so far.
    iter: u32,
}

impl Limits {
    pub(super) fn new(budget: &Budget) -> Limits {
        Limits {
            active: budget.heap_cells.is_some() || budget.wall.is_some(),
            heap_limit: budget.heap_cells.unwrap_or(usize::MAX),
            deadline: budget.wall.map(|allowance| Instant::now() + allowance),
            wall: budget.wall.unwrap_or(Duration::ZERO),
            wall_poll_mask: INITIAL_WALL_POLL_MASK,
            iter: 0,
        }
    }

    /// The arena and clock checks of one resolution boundary, when
    /// [`Limits::active`]: the arena bound is an exact compare every time,
    /// the clock is polled on the adaptive stride. They read the counters
    /// and never write them.
    pub(super) fn check(&mut self, heap_len: usize) -> EngineResult<()> {
        if heap_len > self.heap_limit {
            return Err(EngineError::BudgetExceeded {
                resource: BudgetKind::HeapCells,
                limit: self.heap_limit as u64,
            });
        }
        if let Some(deadline) = self.deadline {
            self.iter = self.iter.wrapping_add(1);
            if self.iter & self.wall_poll_mask == 0 {
                let now = Instant::now();
                if now >= deadline {
                    return Err(EngineError::BudgetExceeded {
                        resource: BudgetKind::Wall,
                        limit: self.wall.as_millis() as u64,
                    });
                }
                self.wall_poll_mask =
                    next_wall_poll_mask(self.wall_poll_mask, deadline - now, self.wall);
            }
        }
        Ok(())
    }
}

/// Initial wall-clock poll stride: the deadline is checked once per
/// `mask + 1` resolutions. Coarse while most of the budget remains.
pub(super) const INITIAL_WALL_POLL_MASK: u32 = 0x3FF;

/// Floor of the adaptive stride: never poll more often than every 16
/// resolutions, so `Instant::now` stays off the hot path even close to the
/// deadline.
pub(super) const MIN_WALL_POLL_MASK: u32 = 0xF;

/// Adaptive wall-poll stride: once less than half the allowance remains,
/// each poll halves the stride (down to [`MIN_WALL_POLL_MASK`]), so the
/// overshoot past the deadline shrinks as the deadline approaches instead
/// of staying a full coarse stride wide.
pub(super) fn next_wall_poll_mask(mask: u32, remaining: Duration, allowance: Duration) -> u32 {
    if mask > MIN_WALL_POLL_MASK && remaining + remaining < allowance {
        mask >> 1
    } else {
        mask
    }
}

impl Machine {
    pub(crate) fn charge_builtin(&mut self) {
        self.counters.builtins += 1;
    }

    /// One grain-size test over `elements` list or term elements: a unit of
    /// work plus one per element traversed (see [`crate::Counters::work`]).
    pub(crate) fn charge_grain_test(&mut self, elements: u64) {
        self.counters.grain_tests += 1;
        self.counters.grain_test_elements += elements;
    }

    /// One head attempt, the step a [`Budget`] counts: the one past the
    /// solve's step budget ends it.
    pub(super) fn charge_head_attempt(&mut self) -> EngineResult<()> {
        self.counters.head_attempts += 1;
        if self.counters.head_attempts > self.step_limit {
            return Err(EngineError::BudgetExceeded {
                resource: BudgetKind::Steps,
                limit: self.step_limit,
            });
        }
        Ok(())
    }

    pub(super) fn charge_resolution(&mut self) {
        self.counters.resolutions += 1;
    }
}
