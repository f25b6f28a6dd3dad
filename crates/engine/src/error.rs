//! Errors raised by the execution engine.

use granlog_ir::{PredId, Term};
use std::fmt;

/// The budget resource that ran out (see `Budget` in the machine module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Head-unification attempts (the engine's step currency).
    Steps,
    /// Arena heap occupancy, in cells.
    HeapCells,
    /// Wall-clock time.
    Wall,
}

/// The walk over run-time term cells that stopped at its bound (see
/// [`EngineError::TermLimit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermLimit {
    /// A walk — copying a term out of the arena, a list spine, an
    /// arithmetic expression — went further than the arena has cells, which
    /// only a cyclic term can make it do.
    Cyclic,
    /// Copying a term out of the arena.
    Copy,
    /// Unification.
    Unify,
    /// A standard-order comparison.
    Compare,
    /// `ground/1`.
    Ground,
    /// Evaluating an arithmetic expression built at run time (one whose
    /// subterms are shared can be exponentially larger than its cells).
    Eval,
}

/// An error produced while executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A goal called a predicate that is neither defined by the program nor a
    /// builtin.
    UnknownPredicate(PredId),
    /// The configured recursion-depth limit was exceeded.
    DepthLimit(usize),
    /// An arithmetic expression could not be evaluated (unbound variable,
    /// non-numeric operand, unknown function, division by zero).
    Arithmetic(String),
    /// A builtin was called with arguments it cannot handle.
    TypeError {
        /// The builtin concerned.
        builtin: &'static str,
        /// Explanation of the problem.
        message: String,
    },
    /// A goal was not callable (e.g. an unbound variable or a number).
    NotCallable(Term),
    /// A walk over a run-time term stopped at its bound instead of looping
    /// or exhausting memory: there is no occurs check, so `X = f(X)` builds
    /// a cyclic term. Past [`crate::machine::MAX_WALK_CELLS`] cells the
    /// term is cyclic or too large to walk.
    TermLimit(TermLimit),
    /// The query's budget was exhausted (see `Budget`): the run state has
    /// been unwound (arena truncated, trail empty) and the machine
    /// is immediately reusable for the next query.
    BudgetExceeded {
        /// Which resource ran out.
        resource: BudgetKind,
        /// The configured limit: steps, cells, or milliseconds.
        limit: u64,
    },
    /// An armed failpoint injected this failure (fault-injection builds
    /// only — see the `granlog-fault` crate; never produced when the
    /// `failpoints` feature is off). Carries the failpoint name. The run
    /// state is unwound exactly as for any other engine error.
    Fault(&'static str),
    /// A parallel worker panicked while executing a spawned arm. The panic
    /// was caught at the job boundary — the worker's machine is discarded,
    /// never pooled — and surfaces to the joiner as this error instead of a
    /// hung join. Carries the panic message.
    WorkerPanic(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownPredicate(p) => write!(f, "unknown predicate {p}"),
            EngineError::DepthLimit(n) => write!(f, "depth limit of {n} exceeded"),
            EngineError::Arithmetic(msg) => write!(f, "arithmetic error: {msg}"),
            EngineError::TypeError { builtin, message } => {
                write!(f, "type error in {builtin}: {message}")
            }
            EngineError::NotCallable(t) => write!(f, "goal is not callable: {t}"),
            EngineError::TermLimit(TermLimit::Cyclic) => {
                write!(f, "cyclic term: it has no finite copy")
            }
            EngineError::TermLimit(walk) => write!(
                f,
                "{walk:?} walk stopped after {} cells: the term is cyclic or too large",
                crate::machine::MAX_WALK_CELLS
            ),
            EngineError::BudgetExceeded { resource, limit } => match resource {
                BudgetKind::Steps => {
                    write!(f, "step budget of {limit} head attempts exceeded")
                }
                BudgetKind::HeapCells => write!(f, "heap budget of {limit} cells exceeded"),
                BudgetKind::Wall => write!(f, "wall-clock budget of {limit} ms exceeded"),
            },
            EngineError::Fault(name) => {
                write!(f, "injected fault at failpoint `{name}`")
            }
            EngineError::WorkerPanic(msg) => {
                write!(f, "parallel worker panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TermLimit> for EngineError {
    fn from(walk: TermLimit) -> Self {
        EngineError::TermLimit(walk)
    }
}

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = EngineError::UnknownPredicate(PredId::parse("foo", 3));
        assert!(e.to_string().contains("foo/3"));
        let e = EngineError::Arithmetic("unbound variable".into());
        assert!(e.to_string().contains("unbound"));
        let e = EngineError::NotCallable(Term::int(3));
        assert!(e.to_string().contains('3'));
        let e = EngineError::TypeError {
            builtin: "functor",
            message: "bad".into(),
        };
        assert!(e.to_string().contains("functor"));
        let e = EngineError::DepthLimit(5);
        assert!(e.to_string().contains('5'));
        let e = EngineError::BudgetExceeded {
            resource: BudgetKind::Steps,
            limit: 128,
        };
        assert!(e.to_string().contains("step budget"));
        assert!(e.to_string().contains("128"));
        let e = EngineError::BudgetExceeded {
            resource: BudgetKind::HeapCells,
            limit: 4096,
        };
        assert!(e.to_string().contains("heap budget"));
        let e = EngineError::BudgetExceeded {
            resource: BudgetKind::Wall,
            limit: 250,
        };
        assert!(e.to_string().contains("wall-clock"));
        let e = EngineError::Fault("engine.arena.grow");
        assert!(e.to_string().contains("engine.arena.grow"));
        let e = EngineError::WorkerPanic("arm 3 exploded".into());
        assert!(e.to_string().contains("arm 3 exploded"));
        let e = EngineError::TermLimit(TermLimit::Cyclic);
        assert!(e.to_string().starts_with("cyclic term"));
        let e = EngineError::TermLimit(TermLimit::Unify);
        assert!(e
            .to_string()
            .starts_with("Unify walk stopped after 16777216 cells"));
    }
}
