//! Per-predicate execution profiling.
//!
//! When [`crate::MachineConfig::profile`] is set, the machine keeps a map
//! from [`PredId`] to a [`PredProfile`] of **port counters** — the classic
//! four-port box model, observed at the clause-selection boundary
//! (`try_clauses`), which is the engine's unit of resolution:
//!
//! * **call** — a first entry (cursor 0) for a user-predicate goal;
//! * **redo** — a re-entry via backtracking into remaining candidates;
//! * **exit** — an entry that activated a clause (the activation may still
//!   be backtracked into later, producing a redo);
//! * **fail** — an entry that exhausted its candidates.
//!
//! Every completed entry is either an exit or a fail, so on any run that
//! ends (success, failure, or in-engine error unwound to completion)
//! `calls + redos == exits + fails`. Deterministic programs never backtrack
//! into user predicates, so there `redos == 0` and `calls == exits + fails`.
//!
//! **Cell-work accounting**: each entry also accumulates the head-unification
//! work it caused — head attempts, elementary unification steps, and net
//! arena growth — attributed to the predicate being *entered* (work done by
//! body goals is attributed to those goals' own predicates when they are
//! executed). The arena cells a clause's body steps write once it is
//! running — the argument block of each call it makes, the goal term of a
//! builtin — are charged to the clause's own predicate, so `heap_cells /
//! calls` is what a resolution of the predicate costs the arena. This is the
//! observable counterpart of the per-predicate cost functions the
//! granularity analysis derives, and `granlog run --profile` joins the two.
//!
//! Profiling is off by default and costs exactly one pointer-null branch per
//! clause-selection entry and per materializing body step when off; the operation [`crate::Counters`] are
//! never touched by the profiler, so profiled and unprofiled runs stay
//! counter-identical (enforced by the differential suite
//! `tests/obs_differential.rs`).

use granlog_ir::{FastMap, PredId};

/// Port counters and cell-work totals for one predicate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredProfile {
    /// First entries (cursor 0) for this predicate's goals.
    pub calls: u64,
    /// Backtracking re-entries into remaining candidate clauses.
    pub redos: u64,
    /// Entries that activated a clause.
    pub exits: u64,
    /// Entries that exhausted their candidates.
    pub fails: u64,
    /// Head-unification attempts performed across this predicate's entries.
    pub head_attempts: u64,
    /// Elementary unification steps performed across this predicate's
    /// entries (head unification plus eager builtin prefixes).
    pub unifications: u64,
    /// Arena cells this predicate's clauses wrote: across its entries, fresh
    /// clause variables, head structure and the eager prefix (net of
    /// within-entry backtracking); and what the body steps of its
    /// activations materialized afterwards — a call's argument block, a
    /// builtin's goal term.
    pub heap_cells: u64,
}

impl PredProfile {
    /// Total entries (calls plus redos). Equals `exits + fails` on any run
    /// that was driven to completion.
    pub fn entries(&self) -> u64 {
        self.calls + self.redos
    }
}

/// The profiler state held by a machine when profiling is enabled.
///
/// Boxed behind an `Option` on the machine so the disabled configuration
/// carries a single null-check and no storage.
#[derive(Debug, Default)]
pub struct Profiler {
    map: FastMap<PredId, PredProfile>,
}

impl Profiler {
    /// Discard all accumulated counts (a new query is starting).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Mutable entry for one predicate, created zeroed on first touch.
    #[inline]
    pub fn entry(&mut self, pred: PredId) -> &mut PredProfile {
        self.map.entry(pred).or_default()
    }

    /// Accumulated rows in a deterministic order: descending by entries,
    /// ties broken by predicate name and arity.
    pub fn rows(&self) -> Vec<(PredId, PredProfile)> {
        let mut rows: Vec<(PredId, PredProfile)> = self.map.iter().map(|(&k, &v)| (k, v)).collect();
        rows.sort_by(|a, b| {
            b.1.entries()
                .cmp(&a.1.entries())
                .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
        });
        rows
    }
}
