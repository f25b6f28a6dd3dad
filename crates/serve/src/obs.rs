//! Serve-layer observability: the server-wide metrics registry, trace ring
//! and slow-query threshold, bundled so every connection thread shares one
//! set of handles.
//!
//! The bundle is created once in [`crate::Server::start`] and lives on the
//! server state. Query-path metrics (latency/steps/heap histograms, the
//! query/error counters) are *pushed* as queries complete;
//! cache/pool/store/session figures are *sampled* at scrape time into
//! gauges, so the cache's own counters remain the single source of truth
//! and a scrape never double-counts. The tracer starts **disabled**: until
//! a client sends `trace on` the per-event cost is one relaxed atomic load.

use crate::wire::ServerStats;
use granlog_ir::Symbol;
use granlog_obs::{Counter, Histogram, Registry, Tracer, LATENCY_BUCKETS_MS, WORK_BUCKETS};
use std::sync::Arc;
use std::time::Instant;

/// Events the serve trace ring can hold before dropping the oldest.
const TRACE_CAPACITY: usize = 8192;

/// Bucket bounds for the per-stage histograms, in milliseconds: a stage of
/// a served query is microseconds, well under [`LATENCY_BUCKETS_MS`]' first
/// bound.
const STAGE_BUCKETS_MS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0,
    4096.0,
];

/// Shared observability bundle for one server instance.
///
/// Cloneable handles into one [`Registry`] plus the server-global trace
/// ring. All fields are cheap to touch from connection threads: counters
/// and histograms are lock-free, and the tracer's disabled fast path is a
/// single atomic load.
#[derive(Debug)]
pub struct ServeObs {
    /// The server's metrics registry; `metrics` scrapes render from here.
    pub registry: Arc<Registry>,
    /// Server-global event ring (`trace on|off|dump`, `--trace`).
    pub tracer: Arc<Tracer>,
    /// Boot instant, for the `stats` line's `uptime_ms`.
    pub started: Instant,
    /// Slow-query threshold in milliseconds (`--slow-ms`); `None` disables
    /// the slow-query log.
    pub slow_ms: Option<u64>,
    /// Queries answered (successes and `done no` both count; errors do not).
    pub queries: Arc<Counter>,
    /// Queries that ended in an `err` reply.
    pub query_errors: Arc<Counter>,
    /// Queries at or above the [`ServeObs::slow_ms`] threshold.
    pub slow_queries: Arc<Counter>,
    /// Programs accepted by `load`.
    pub loads: Arc<Counter>,
    /// Wall time per answered query, milliseconds.
    pub query_latency_ms: Arc<Histogram>,
    /// Head attempts (steps) per answered query.
    pub query_steps: Arc<Histogram>,
    /// Heap high water per answered query, cells.
    pub query_heap: Arc<Histogram>,
    /// Bottom-up fixpoint rounds, summed over datalog queries.
    pub datalog_rounds: Arc<Counter>,
    /// Facts derived by bottom-up evaluation, summed over datalog queries.
    pub datalog_facts: Arc<Counter>,
    /// Where an answered query's time went, one histogram per stage, in
    /// milliseconds: goal parse, machine lease, solve, answer
    /// rendering — these four add up to [`ServeObs::query_latency_ms`] —
    /// and the reply's socket write, which the latency histogram excludes.
    pub stage_parse_ms: Arc<Histogram>,
    /// See [`ServeObs::stage_parse_ms`].
    pub stage_lease_ms: Arc<Histogram>,
    /// See [`ServeObs::stage_parse_ms`].
    pub stage_solve_ms: Arc<Histogram>,
    /// See [`ServeObs::stage_parse_ms`].
    pub stage_render_ms: Arc<Histogram>,
    /// See [`ServeObs::stage_parse_ms`].
    pub stage_write_ms: Arc<Histogram>,
    /// Replies sent (greetings, shed refusals and scrape responses
    /// included): one per reply frame that left.
    pub reply_frames: Arc<Counter>,
    /// Socket writes those replies took. Equal to
    /// [`ServeObs::reply_frames`] while every reply fits the frame buffer.
    pub reply_writes: Arc<Counter>,
    /// Bytes of those replies.
    pub reply_bytes: Arc<Counter>,
}

impl ServeObs {
    /// Builds the bundle: fresh registry, disabled tracer, all query-path
    /// metrics registered under their canonical `granlog_*` names.
    pub fn new(slow_ms: Option<u64>) -> ServeObs {
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::disabled(TRACE_CAPACITY));
        ServeObs {
            queries: registry.counter("granlog_queries_total"),
            query_errors: registry.counter("granlog_query_errors_total"),
            slow_queries: registry.counter("granlog_slow_queries_total"),
            loads: registry.counter("granlog_loads_total"),
            query_latency_ms: registry.histogram("granlog_query_latency_ms", LATENCY_BUCKETS_MS),
            query_steps: registry.histogram("granlog_query_steps", WORK_BUCKETS),
            query_heap: registry.histogram("granlog_query_heap_cells", WORK_BUCKETS),
            datalog_rounds: registry.counter("granlog_datalog_rounds_total"),
            datalog_facts: registry.counter("granlog_datalog_derived_facts_total"),
            stage_parse_ms: registry.histogram("granlog_query_parse_ms", STAGE_BUCKETS_MS),
            stage_lease_ms: registry.histogram("granlog_query_lease_ms", STAGE_BUCKETS_MS),
            stage_solve_ms: registry.histogram("granlog_query_solve_ms", STAGE_BUCKETS_MS),
            stage_render_ms: registry.histogram("granlog_query_render_ms", STAGE_BUCKETS_MS),
            stage_write_ms: registry.histogram("granlog_query_write_ms", STAGE_BUCKETS_MS),
            reply_frames: registry.counter("granlog_reply_frames_total"),
            reply_writes: registry.counter("granlog_reply_writes_total"),
            reply_bytes: registry.counter("granlog_reply_bytes_total"),
            registry,
            tracer,
            started: Instant::now(),
            slow_ms,
        }
    }

    /// Milliseconds since the server booted.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Sets the scrape-time gauges from a server's figures (the store's
    /// only when `durable`) and the size of the process-wide symbol table,
    /// and renders the whole registry as Prometheus text exposition. The
    /// figures are passed in so this module stays decoupled from the
    /// server's state layout.
    pub fn scrape(&self, stats: &ServerStats, durable: bool) -> String {
        let symbols = [
            ("granlog_symbols", Symbol::count() as u64),
            ("granlog_symbol_bytes", Symbol::bytes() as u64),
        ];
        for (name, value) in crate::wire::gauges(stats, durable).chain(symbols) {
            self.registry.gauge(name).set(value as i64);
        }
        self.registry.render()
    }
}
