//! Parallel-executor instrumentation handles.
//!
//! The executor does not own a registry; the embedding layer registers the
//! metrics once ([`ParObs::register`]) and installs the bundle with
//! [`crate::ParExecutor::set_obs`]. With no bundle installed the spawn,
//! steal and join paths skip all measurement — the executor's own
//! `spawned`/`inlined` counters (reported in [`crate::ParOutcome`]) are
//! untouched either way, so instrumented runs stay counter-identical.
//!
//! These are exactly the measurements the ROADMAP's "adaptive granularity
//! control" item needs: calibrating the spawn-overhead constant W online
//! means comparing observed arm solve time ([`ParObs::arm_ms`]) against
//! observed fork/join overhead ([`ParObs::join_wait_ms`]), with what the
//! boundary shipped per spawn ([`ParObs::copied_cells`]) as the part of
//! that overhead that scales with the arms.

use granlog_obs::{Counter, Histogram, Registry, Tracer, LATENCY_BUCKETS_MS, WORK_BUCKETS};
use std::sync::Arc;

/// Metric and trace handles for the and-parallel executor.
#[derive(Debug, Clone)]
pub struct ParObs {
    /// Arms pushed across the spawn boundary.
    pub spawned: Arc<Counter>,
    /// Conjunctions run inline (guard said too small, or arms not
    /// independent).
    pub inlined: Arc<Counter>,
    /// Jobs taken from the injector by a thread other than their forker
    /// (pool workers and help-first joiners).
    pub steals: Arc<Counter>,
    /// Wall time one spawned arm's goal took to solve on its worker.
    pub arm_ms: Arc<Histogram>,
    /// Wall time a joiner spent in `join_job` per arm (helping included).
    pub join_wait_ms: Arc<Histogram>,
    /// Cells packed across the boundary per spawned conjunction: its arm
    /// packets plus the answer packets that came back. The `par_spawn`
    /// event's `cells` field is the arm half, known when it is emitted.
    pub copied_cells: Arc<Histogram>,
    /// Event sink for `par_spawn` / `par_inline` / `par_steal` / `par_join`
    /// events.
    pub tracer: Arc<Tracer>,
}

impl ParObs {
    /// Register the executor's metrics under their canonical names and
    /// bundle them with `tracer`. Idempotent per registry.
    pub fn register(registry: &Registry, tracer: Arc<Tracer>) -> ParObs {
        ParObs {
            spawned: registry.counter("granlog_par_spawned_total"),
            inlined: registry.counter("granlog_par_inlined_total"),
            steals: registry.counter("granlog_par_steals_total"),
            arm_ms: registry.histogram("granlog_par_arm_ms", LATENCY_BUCKETS_MS),
            join_wait_ms: registry.histogram("granlog_par_join_wait_ms", LATENCY_BUCKETS_MS),
            copied_cells: registry.histogram("granlog_par_copied_cells", WORK_BUCKETS),
            tracer,
        }
    }
}
