//! Multi-tenant query service over the granlog engine.
//!
//! This crate turns the single-shot [`granlog_engine::Machine`] into a
//! long-lived *service*:
//!
//! - [`cache::TemplateCache`] — compiled-template cache keyed by the full
//!   normalized program text, shared as [`std::sync::Arc`] across tenants,
//!   LRU-bounded, with hit/miss/eviction counters and a per-program machine
//!   pool recycled by arena high-water mark.
//! - [`session::Session`] — one tenant's loaded program and budget; runs
//!   each query as one engine call under its [`granlog_engine::Budget`], so
//!   an over-budget query unwinds through the engine's own error path.
//! - [`server::Server`] — a thread-per-connection TCP front end speaking a
//!   line protocol, plus [`client::ServeClient`], a scripted client used by
//!   the integration tests and by the serve workloads of `benchmark/`. Both
//!   ends and the metrics scrape speak through one private module, `wire`.
//!
//! The CLI exposes all of this as `granlog serve` (see the README).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
mod frame;
pub mod obs;
pub mod server;
pub mod session;
mod wire;

pub use cache::{CacheStats, PoolConfig, ProgramEntry, TemplateCache};
pub use client::{ClientReply, ServeClient, ServerStats};
pub use obs::ServeObs;
pub use server::{BootError, ServeConfig, Server, ServerHandle};
pub use session::{DatalogReplyStats, EngineKind, LoadReply, QueryReply, Session, SessionBudget};

use granlog_engine::EngineError;
use granlog_ir::parser::ParseError;
use std::borrow::Cow;
use std::fmt;

/// Serializes fault-injection tests against every other test in this
/// crate: the failpoint registry is process-global, so a test that arms a
/// failpoint holds the exclusive lock while ordinary tests (whose queries
/// cross the same failpoint sites) hold the shared one.
#[cfg(all(test, feature = "failpoints"))]
pub(crate) mod faultsync {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static LOCK: RwLock<()> = RwLock::new(());

    pub(crate) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        LOCK.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn shared() -> RwLockReadGuard<'static, ()> {
        LOCK.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Everything a session operation can fail with.
///
/// Every variant maps to a stable kebab-case wire code (see
/// [`ServeError::code`]) that the server prepends to its `err` replies —
/// `err <code> <message>` — so clients can dispatch on the class of failure
/// without parsing prose.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Program or goal text did not parse.
    Parse(ParseError),
    /// The engine failed — including `BudgetExceeded` for sessions whose
    /// step or heap budget ran out.
    Engine(EngineError),
    /// The bottom-up engine rejected the loaded program or the goal
    /// (outside the Datalog subset, unstratified, unsafe), or an injected
    /// fault failed the fixpoint/join. Shares the `engine` wire code: for
    /// a client it is the same class — this engine cannot answer this
    /// query — and the session survives it identically.
    Datalog(granlog_datalog::DatalogError),
    /// A query was issued before any program was loaded.
    NoProgram,
    /// A serve-layer invariant broke (a worker panicked mid-query, pool
    /// accounting failed). The offending machine is quarantined and the
    /// session survives; the message describes what happened.
    Internal(String),
    /// An armed failpoint injected this failure at a serve seam
    /// (fault-injection builds only). Carries the failpoint name.
    Fault(&'static str),
    /// The durable store rejected a journaled mutation (WAL append or fsync
    /// failed). The in-memory load succeeded but is *not* durable, so the
    /// command fails rather than silently over-promise.
    Store(String),
    /// The server is at its connection cap and shed this connection.
    Overloaded,
    /// The server is draining for shutdown and no longer accepts work.
    ShuttingDown,
    /// The peer broke the line protocol (a bad verb, argument or byte).
    Proto(Cow<'static, str>),
    /// A command line, a program or its durable record is too large.
    TooLarge(String),
    /// The peer idled past the idle timeout, or stalled mid-frame.
    Timeout(&'static str),
}

impl ServeError {
    /// The stable wire code of this error class, sent as the first field of
    /// an `err` reply line.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Parse(_) => "parse",
            ServeError::Engine(EngineError::BudgetExceeded { .. }) => "budget",
            ServeError::Engine(EngineError::Fault(_)) => "fault",
            ServeError::Engine(_) => "engine",
            ServeError::Datalog(_) => "engine",
            ServeError::NoProgram => "no-program",
            ServeError::Internal(_) => "internal",
            ServeError::Fault(_) => "fault",
            ServeError::Store(_) => "store",
            ServeError::Overloaded => "overloaded",
            ServeError::ShuttingDown => "shutdown",
            ServeError::Proto(_) => "proto",
            ServeError::TooLarge(_) => "too-large",
            ServeError::Timeout(_) => "timeout",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse(e) => write!(f, "parse: {e}"),
            ServeError::Engine(e) => write!(f, "{e}"),
            ServeError::Datalog(e) => write!(f, "bottom-up: {e}"),
            ServeError::NoProgram => write!(f, "no program loaded: send `load` first"),
            ServeError::Internal(msg) => write!(f, "internal: {msg}"),
            ServeError::Fault(name) => write!(f, "injected fault at failpoint `{name}`"),
            ServeError::Store(msg) => write!(f, "durable store: {msg}"),
            ServeError::Overloaded => {
                write!(f, "server at connection capacity, retry later")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Proto(msg) => f.write_str(msg),
            ServeError::TooLarge(msg) => f.write_str(msg),
            ServeError::Timeout(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ParseError> for ServeError {
    fn from(e: ParseError) -> Self {
        ServeError::Parse(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<granlog_datalog::DatalogError> for ServeError {
    fn from(e: granlog_datalog::DatalogError) -> Self {
        ServeError::Datalog(e)
    }
}
