//! One tenant's session: its loaded program, its budget, and the one
//! engine call each query makes.
//!
//! A query leases a machine and runs to completion under the session's own
//! [`Budget`]: a query that exhausts it ends in the engine's typed
//! [`EngineError::BudgetExceeded`], carrying the session's limit, after the
//! engine's eager unwind (arena truncated, trail emptied), so an over-budget
//! query never leaves a large heap pinned in the pool.

use crate::cache::{ProgramEntry, TemplateCache};
use crate::ServeError;
use granlog_engine::{Budget, EngineError};
use granlog_ir::parser::parse_term;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-session resource limits, applied to every query the session runs:
/// the engine's [`Budget`]. A session without a step limit runs each query
/// under the engine's default one.
pub type SessionBudget = Budget;

/// Result of loading a program into a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReply {
    /// Display hash of the normalized program (see [`ProgramEntry::hash`]).
    pub hash: u64,
    /// Clause count of the loaded program.
    pub clauses: usize,
    /// Whether the shared cache already held this program.
    pub cache_hit: bool,
}

/// Which evaluation engine a session's queries run on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// Top-down SLD resolution over a leased machine (first answer), the
    /// default.
    #[default]
    Sld,
    /// Bottom-up semi-naive Datalog evaluation over the entry's shared
    /// fact database (*all* answers).
    BottomUp,
}

/// Fixpoint statistics of a bottom-up query, riding along on the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatalogReplyStats {
    /// Distinct answers to the goal.
    pub answers: u64,
    /// Semi-naive rounds of the (possibly cached) fixpoint.
    pub rounds: u64,
    /// IDB facts the fixpoint derived.
    pub facts: u64,
}

/// Result of a completed (non-erroring) query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// Did the query succeed?
    pub succeeded: bool,
    /// `(name, rendered term)` for each named query variable, source order.
    /// A bottom-up reply repeats the variable names once per answer.
    pub bindings: Vec<(String, String)>,
    /// Head attempts consumed (0 under the bottom-up engine).
    pub steps: u64,
    /// Arena high-water mark of this query, in cells (0 under the
    /// bottom-up engine — it does not lease a machine).
    pub heap_high_water: usize,
    /// Fixpoint statistics when the bottom-up engine answered, `None` for
    /// SLD replies.
    pub datalog: Option<DatalogReplyStats>,
}

/// Where an answered query's time went inside [`Session::query`]: four
/// consecutive laps of one clock, so they add up to the call's duration.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QueryStages {
    /// Parsing the goal text.
    pub(crate) parse: Duration,
    /// Checking a machine out of the program's pool (zero under the
    /// bottom-up engine, which leases none).
    pub(crate) lease: Duration,
    /// Solving: the engine call under SLD, fixpoint lookup plus answer
    /// join under bottom-up.
    pub(crate) solve: Duration,
    /// Rendering the bindings to text.
    pub(crate) render: Duration,
}

impl QueryStages {
    /// The answered query's whole time: the laps' sum, so the stages add
    /// up to it by construction.
    pub(crate) fn total(&self) -> Duration {
        self.parse + self.lease + self.solve + self.render
    }
}

/// A clock read once per stage boundary.
struct Laps(Instant);

impl Laps {
    /// Time since the previous lap (or the start).
    fn lap(&mut self) -> Duration {
        let now = Instant::now();
        now - std::mem::replace(&mut self.0, now)
    }
}

/// One tenant's connection state: shared cache handle, loaded program,
/// budgets.
pub struct Session {
    cache: Arc<TemplateCache>,
    entry: Option<Arc<ProgramEntry>>,
    budget: SessionBudget,
    engine: EngineKind,
    stages: QueryStages,
}

impl Session {
    /// Opens a session over a shared cache with the given default budget.
    pub fn new(cache: Arc<TemplateCache>, budget: SessionBudget) -> Self {
        Session {
            cache,
            entry: None,
            budget,
            engine: EngineKind::default(),
            stages: QueryStages::default(),
        }
    }

    /// This session's current budget.
    pub fn budget(&self) -> SessionBudget {
        self.budget
    }

    /// The engine this session's queries run on.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Switches the evaluation engine (applies to subsequent queries).
    /// Switching never invalidates anything: the loaded entry keeps both
    /// its SLD templates and any evaluated bottom-up database.
    pub fn set_engine(&mut self, engine: EngineKind) {
        self.engine = engine;
    }

    /// Replaces the session budget (applies to subsequent queries).
    pub fn set_budget(&mut self, budget: SessionBudget) {
        self.budget = budget;
    }

    /// Loads (or re-loads) program text through the shared template cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::Parse`] for malformed program text.
    pub fn load(&mut self, source: &str) -> Result<LoadReply, ServeError> {
        let (entry, cache_hit) = self.cache.load(source)?;
        let reply = LoadReply {
            hash: entry.hash(),
            clauses: entry.clause_count(),
            cache_hit,
        };
        self.entry = Some(entry);
        Ok(reply)
    }

    /// The entry of the last successfully loaded program, if any. The server
    /// uses it to journal loads under the entry's normalized-text key.
    pub fn entry(&self) -> Option<&Arc<ProgramEntry>> {
        self.entry.as_ref()
    }

    /// Stage times of the last query; complete only when that query was
    /// answered (an erroring one stops the clock where it failed).
    pub(crate) fn last_stages(&self) -> QueryStages {
        self.stages
    }

    /// Runs one query on a leased machine under the session budget.
    ///
    /// The whole solve runs under `catch_unwind`: a panic anywhere inside
    /// the engine (or injected by a failpoint) is caught here, the leased
    /// machine is **quarantined** — dropped, never pooled, its entry's pool
    /// generation bumped — and the session reports
    /// [`ServeError::Internal`] and keeps serving. One tenant's panic never
    /// takes down a neighbor's connection or poisons the shared pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoProgram`] before any successful [`Session::load`];
    /// [`ServeError::Parse`] for a malformed goal; [`ServeError::Engine`]
    /// for engine failures, including `BudgetExceeded` with the session's
    /// limit when this query ran out of steps, heap or time;
    /// [`ServeError::Internal`] for a caught panic;
    /// [`ServeError::Fault`] for an injected lease fault;
    /// [`ServeError::Datalog`] under the bottom-up engine when the program
    /// or goal is outside the Datalog subset, or an injected `datalog.*`
    /// fault failed the fixpoint or a join.
    pub fn query(&mut self, goal_text: &str) -> Result<QueryReply, ServeError> {
        let entry = self.entry.clone().ok_or(ServeError::NoProgram)?;
        let mut clock = Laps(Instant::now());
        let (goal, var_names) = parse_term(goal_text)?;
        self.stages = QueryStages {
            parse: clock.lap(),
            ..QueryStages::default()
        };
        if self.engine == EngineKind::BottomUp {
            return query_bottom_up(&entry, &goal, &var_names, &mut clock, &mut self.stages);
        }
        let mut lease = entry.lease()?;
        self.stages.lease = clock.lap();
        // AssertUnwindSafe: on panic the closure's only mutated state, the
        // leased machine, is quarantined below and never observed again.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lease
                .machine()
                .solve_goal(&goal, &var_names, None, &self.budget)
        }));
        self.stages.solve = clock.lap();
        match caught {
            Ok(Ok(outcome)) => {
                let heap_high_water = lease.machine().stats().heap_high_water;
                let bindings = outcome
                    .bindings
                    .iter()
                    .map(|(name, term)| (name.to_string(), term.to_string()))
                    .collect();
                self.stages.render = clock.lap();
                Ok(QueryReply {
                    succeeded: outcome.succeeded,
                    bindings,
                    steps: outcome.counters.head_attempts,
                    heap_high_water,
                    datalog: None,
                })
            }
            Ok(Err(e)) => {
                // An injected engine fault unwinds the machine like any
                // engine error, but the point of injecting it is to model
                // state we do not trust: quarantine anyway.
                if matches!(e, EngineError::Fault(_)) {
                    lease.quarantine();
                }
                Err(ServeError::Engine(e))
            }
            Err(payload) => {
                // The lease lives *outside* the caught closure, so the
                // unwind did not drop it: quarantine explicitly — the
                // machine was abandoned at an arbitrary panic point.
                lease.quarantine();
                Err(ServeError::Internal(format!(
                    "query panicked: {}",
                    panic_message(&*payload)
                )))
            }
        }
    }
}

/// The bottom-up query path: fetch (or build) the entry's shared fact
/// database and read *all* answers out of it. No machine lease — the
/// fixpoint ran (or was cached) inside
/// [`ProgramEntry::datalog`], and reading answers out of an immutable
/// database is join work bounded by the database itself, not by a
/// tenant-controlled search space, so the session budgets do not apply.
fn query_bottom_up(
    entry: &Arc<ProgramEntry>,
    goal: &granlog_ir::Term,
    var_names: &[granlog_ir::Symbol],
    clock: &mut Laps,
    stages: &mut QueryStages,
) -> Result<QueryReply, ServeError> {
    let db = entry.datalog()?;
    let answers = db.query(goal, var_names).map_err(ServeError::Datalog)?;
    stages.solve = clock.lap();
    let mut bindings = Vec::with_capacity(answers.rows.len() * answers.vars.len());
    for i in 0..answers.rows.len() {
        for (name, term) in answers.vars.iter().zip(answers.rows.row(i)) {
            bindings.push((name.to_string(), term.to_string()));
        }
    }
    stages.render = clock.lap();
    let stats = db.stats();
    Ok(QueryReply {
        succeeded: answers.succeeded(),
        bindings,
        steps: 0,
        heap_high_water: 0,
        datalog: Some(DatalogReplyStats {
            answers: answers.rows.len() as u64,
            rounds: stats.rounds,
            facts: stats.derived_facts,
        }),
    })
}

/// Renders a caught panic payload: panics carry a `&str` or `String`
/// message in practice; anything else gets a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PoolConfig;
    use granlog_engine::{BudgetKind, MachineConfig};

    const COUNT: &str = r#"
        count(0).
        count(N) :- N > 0, N1 is N - 1, count(N1).
    "#;

    fn session(budget: SessionBudget) -> Session {
        let cache = Arc::new(TemplateCache::new(
            4,
            MachineConfig::default(),
            PoolConfig::default(),
        ));
        Session::new(cache, budget)
    }

    #[test]
    fn query_before_load_is_an_error() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let mut s = session(SessionBudget::default());
        assert!(matches!(s.query("true"), Err(ServeError::NoProgram)));
    }

    #[test]
    fn step_budget_is_enforced_and_remapped_to_the_session_limit() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let mut s = session(SessionBudget {
            steps: Some(50),
            ..SessionBudget::default()
        });
        s.load(COUNT).unwrap();
        match s.query("count(100000)") {
            Err(ServeError::Engine(EngineError::BudgetExceeded {
                resource: BudgetKind::Steps,
                limit,
            })) => assert_eq!(limit, 50, "limit must be the session's"),
            other => panic!("expected a step-budget error, got {other:?}"),
        }
        // The machine unwound and went back to the pool; the session works.
        let ok = s.query("count(3)").unwrap();
        assert!(ok.succeeded);
    }

    #[test]
    fn wall_budget_is_enforced_and_remapped_to_the_session_allowance() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let mut s = session(SessionBudget {
            wall: Some(Duration::from_millis(30)),
            ..SessionBudget::default()
        });
        s.load("loop :- loop.").unwrap();
        let started = Instant::now();
        match s.query("loop") {
            Err(ServeError::Engine(EngineError::BudgetExceeded {
                resource: BudgetKind::Wall,
                limit,
            })) => assert_eq!(limit, 30, "limit must be the session's ms allowance"),
            other => panic!("expected a wall-budget error, got {other:?}"),
        }
        // Generous bound: the engine polls wall coarsely, but an infinite
        // loop must still be cut within a couple of orders of the budget.
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wall cut took {:?}",
            started.elapsed()
        );
        // The machine unwound; the session keeps serving.
        let mut ok = s.budget();
        ok.wall = None;
        s.set_budget(ok);
        s.load(COUNT).unwrap();
        assert!(s.query("count(3)").unwrap().succeeded);
    }

    #[test]
    fn heap_budget_is_enforced() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let mut s = session(SessionBudget {
            heap_cells: Some(256),
            ..SessionBudget::default()
        });
        s.load(
            r#"
            build(0, []).
            build(N, [N|T]) :- N > 0, N1 is N - 1, build(N1, T).
            "#,
        )
        .unwrap();
        match s.query("build(100000, L)") {
            Err(ServeError::Engine(EngineError::BudgetExceeded {
                resource: BudgetKind::HeapCells,
                ..
            })) => {}
            other => panic!("expected a heap-budget error, got {other:?}"),
        }
        assert!(s.query("build(3, L)").unwrap().succeeded);
    }

    /// Panic isolation end to end: an injected panic inside the solve is
    /// caught, surfaces as `ServeError::Internal`, quarantines the machine,
    /// and the session keeps answering. Needs the failpoints feature to
    /// have a way to panic mid-query on demand.
    #[test]
    #[cfg(feature = "failpoints")]
    fn an_injected_panic_is_caught_and_quarantines_the_machine() {
        let _excl = crate::faultsync::exclusive();
        let mut s = session(SessionBudget::default());
        s.load(COUNT).unwrap();
        assert!(s.query("count(3)").unwrap().succeeded);

        granlog_fault::arm("engine.solve", granlog_fault::Action::Panic, 1.0);
        let err = s.query("count(3)").unwrap_err();
        granlog_fault::disarm("engine.solve");
        assert!(matches!(err, ServeError::Internal(_)), "{err:?}");
        assert_eq!(err.code(), "internal");
        assert!(err.to_string().contains("engine.solve"), "{err}");
        let stats = s.cache.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.leases_active, 0, "no lease may leak past a panic");

        // The session (and the shared pool) keep working.
        assert!(s.query("count(3)").unwrap().succeeded);
    }

    /// An injected lease fault is a typed error, not a panic, and the
    /// session survives it.
    #[test]
    #[cfg(feature = "failpoints")]
    fn an_injected_lease_fault_is_typed_and_recoverable() {
        let _excl = crate::faultsync::exclusive();
        let mut s = session(SessionBudget::default());
        s.load(COUNT).unwrap();
        granlog_fault::arm("serve.lease", granlog_fault::Action::Error, 1.0);
        let err = s.query("count(3)").unwrap_err();
        granlog_fault::disarm("serve.lease");
        assert_eq!(err, ServeError::Fault("serve.lease"));
        assert_eq!(err.code(), "fault");
        assert!(s.query("count(3)").unwrap().succeeded);
    }

    #[test]
    fn bindings_render_with_source_names() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let mut s = session(SessionBudget::default());
        s.load("pair(1, two).").unwrap();
        let reply = s.query("pair(X, Y)").unwrap();
        assert!(reply.succeeded);
        assert_eq!(
            reply.bindings,
            vec![("X".into(), "1".into()), ("Y".into(), "two".into())]
        );
    }

    const REACH: &str = r#"
        edge(a, b).
        edge(b, c).
        reach(a).
        reach(T) :- edge(S, T), reach(S).
        stuck(X) :- edge(X, _), \+ reach(X).
    "#;

    #[test]
    fn bottom_up_engine_returns_every_answer_and_caches_the_database() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let mut s = session(SessionBudget::default());
        s.load(REACH).unwrap();
        assert_eq!(s.engine(), EngineKind::Sld);
        s.set_engine(EngineKind::BottomUp);

        let reply = s.query("reach(X)").unwrap();
        assert!(reply.succeeded);
        let stats = reply.datalog.expect("bottom-up replies carry stats");
        assert_eq!(stats.answers, 3);
        assert!(stats.rounds >= 2, "recursion needs delta rounds");
        let mut values: Vec<_> = reply.bindings.iter().map(|(_, t)| t.clone()).collect();
        values.sort();
        assert_eq!(values, ["a", "b", "c"]);
        assert!(
            reply.bindings.iter().all(|(n, _)| n == "X"),
            "one bind per answer, all for X"
        );
        assert_eq!((reply.steps, reply.heap_high_water), (0, 0));

        // The evaluated database is cached on the shared entry: a second
        // query reuses it (same fixpoint stats object, no recompute).
        let again = s.query("stuck(X)").unwrap();
        assert!(!again.succeeded, "every forward node is reached");
        assert_eq!(again.datalog.unwrap().rounds, stats.rounds);

        // Switching back to SLD restores first-solution semantics.
        s.set_engine(EngineKind::Sld);
        let sld = s.query("reach(X)").unwrap();
        assert!(sld.succeeded);
        assert_eq!(sld.bindings.len(), 1, "SLD returns the first solution");
        assert!(sld.datalog.is_none());
    }

    #[test]
    fn bottom_up_rejection_is_typed_and_the_session_survives() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let mut s = session(SessionBudget::default());
        s.load(COUNT).unwrap();
        s.set_engine(EngineKind::BottomUp);
        let err = s.query("count(3)").unwrap_err();
        assert!(matches!(err, ServeError::Datalog(_)), "{err:?}");
        assert_eq!(err.code(), "engine");
        assert!(err.to_string().contains("not a Datalog program"), "{err}");

        // The SLD path still answers on the same session and machines were
        // never involved, so nothing is quarantined.
        s.set_engine(EngineKind::Sld);
        assert!(s.query("count(3)").unwrap().succeeded);
        assert_eq!(s.cache.stats().quarantined, 0);
    }
}
