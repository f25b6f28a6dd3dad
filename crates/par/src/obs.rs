//! Parallel-executor instrumentation handles.
//!
//! The executor does not own a registry; the embedding layer registers the
//! metrics once ([`ParObs::register`]) and installs the bundle with
//! [`crate::ParExecutor::set_obs`]. With no bundle installed the offer,
//! steal and join paths skip all measurement — the executor's own
//! `spawned`/`inlined` counters (reported in [`crate::ParOutcome`]) are
//! untouched either way, so instrumented runs stay counter-identical.
//!
//! Every arm ends exactly one way, so the counters balance: `spawned` =
//! offered conjunctions (one `par_spawn` event and one first arm each) plus
//! `reclaimed`, `steals`, `cancelled` and `kept`. The histograms describe the arms that
//! actually crossed the spawn boundary — one observation per *stolen* arm —
//! which is what the ROADMAP's "adaptive granularity control" item needs:
//! calibrating the spawn-overhead constant W online means comparing
//! observed arm solve time ([`ParObs::arm_ms`]) against observed join
//! overhead ([`ParObs::join_wait_ms`]), with what the boundary shipped
//! ([`ParObs::copied_cells`]) as the part of that overhead that scales with
//! the arm.

use granlog_obs::{Counter, Histogram, Registry, Tracer, LATENCY_BUCKETS_MS, WORK_BUCKETS};
use std::sync::Arc;
use std::time::Instant;

/// Metric and trace handles for the and-parallel executor.
#[derive(Debug, Clone)]
pub struct ParObs {
    /// Arms of conjunctions kept in place or offered (first arms included),
    /// wherever they then ran.
    pub spawned: Arc<Counter>,
    /// Conjunctions about to be offered but run inline because their arms
    /// are not independent (or one could not be packed).
    pub inlined: Arc<Counter>,
    /// Offered arms that crossed the spawn boundary: claimed by a pool
    /// worker or a help-first joiner and run on a second machine (an arm
    /// handed back and rerun by its joiner included).
    pub steals: Arc<Counter>,
    /// Offered arms their forker claimed back and ran in place.
    pub reclaimed: Arc<Counter>,
    /// Offered arms withdrawn unrun: their conjunction failed, or the query
    /// ended in an error, before the forker reached them.
    pub cancelled: Arc<Counter>,
    /// Arms of conjunctions run in place unoffered, first arms included,
    /// because their forker already had an arm on offer.
    pub kept: Arc<Counter>,
    /// Wall time one stolen arm's goal took to solve on its thief.
    pub arm_ms: Arc<Histogram>,
    /// Wall time a forker spent waiting for one stolen arm (helping
    /// included).
    pub join_wait_ms: Arc<Histogram>,
    /// Cells that crossed the boundary per stolen arm: its packet plus the
    /// answer packet that came back (the `par_steal` event's `cells`). The
    /// `par_spawn` event's `cells` field is what the conjunction packed for
    /// offer, stolen or not.
    pub copied_cells: Arc<Histogram>,
    /// Event sink for `par_spawn` / `par_inline` / `par_reclaim` /
    /// `par_steal` / `par_arm` / `par_join` events.
    pub tracer: Arc<Tracer>,
}

impl ParObs {
    /// Records the time since `started` in one of the duration histograms
    /// and as the `ms` field of a `kind` event.
    pub(crate) fn timed(&self, histogram: &Histogram, kind: &'static str, started: Instant) {
        let elapsed = started.elapsed();
        histogram.observe_duration_ms(elapsed);
        let ms = elapsed.as_secs_f64() * 1e3;
        self.tracer.emit(kind, vec![("ms", ms.into())]);
    }

    /// Register the executor's metrics under their canonical names and
    /// bundle them with `tracer`. Idempotent per registry.
    pub fn register(registry: &Registry, tracer: Arc<Tracer>) -> ParObs {
        ParObs {
            spawned: registry.counter("granlog_par_spawned_total"),
            inlined: registry.counter("granlog_par_inlined_total"),
            steals: registry.counter("granlog_par_steals_total"),
            reclaimed: registry.counter("granlog_par_reclaimed_total"),
            cancelled: registry.counter("granlog_par_cancelled_total"),
            kept: registry.counter("granlog_par_kept_total"),
            arm_ms: registry.histogram("granlog_par_arm_ms", LATENCY_BUCKETS_MS),
            join_wait_ms: registry.histogram("granlog_par_join_wait_ms", LATENCY_BUCKETS_MS),
            copied_cells: registry.histogram("granlog_par_copied_cells", WORK_BUCKETS),
            tracer,
        }
    }
}
