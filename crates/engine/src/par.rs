//! The engine side of the parallel-execution boundary.
//!
//! The machine itself stays single-threaded: a [`crate::Machine`] owns one
//! arena, one goal stack and one set of choice points, and nothing in it is
//! shared. Real and-parallel execution is layered *on top* through the
//! [`ParHook`] trait: when a hook is passed to
//! [`crate::Machine::run_goal_par`], every parallel conjunction (`&`) the
//! solve loop reaches is first offered to the hook, which may either
//!
//! * decline ([`ParDecision::Inline`]) — the machine runs the arms inline,
//!   sequentially, exactly as it does without a hook (this is how runtime
//!   granularity control turns a spawn into a cheap sequential call); or
//! * execute the arms itself ([`ParDecision::Executed`]) — typically on a
//!   pool of worker threads, each with its own machine.
//!
//! # Copy semantics at the spawn boundary
//!
//! Arms cross the boundary **by value**, as [`Packet`]s: flat, relocatable
//! runs of heap cells with no pointer into any arena. The machine packs each
//! arm straight out of its arena in one iterative pass — bound `Ref` chains
//! are dereferenced away, every distinct unbound parent cell becomes the
//! next dense packet variable (the machine keeps the variable → parent cell
//! table on its side of the boundary), and a parent cell reached from two
//! arms declines the spawn, because such arms are not independent. The hook
//! runs each packet elsewhere ([`crate::Machine::run_arm`] unpacks it at the
//! bottom of an empty arena with one offset-fixup `extend` and solves it)
//! and hands back one [`ArmAnswer`] per arm: a second packet holding the
//! values of the arm's variables, in order, over a fresh-variable alphabet
//! shared across the bindings of that answer, so sharing between answer
//! terms is preserved. The machine unpacks the answer into its own arena and
//! *unifies* each value with the parent cell it belongs to at the join — so
//! a conflicting answer fails the conjunction rather than corrupting state,
//! and backtracking past the conjunction undoes the joined bindings through
//! the ordinary trail. No `Term` is built anywhere on this path, and neither
//! packing nor unpacking recurses on term depth: a list of any length
//! crosses the boundary on a constant amount of native stack.
//!
//! # Determinism guarantees
//!
//! The join is deterministic: answers are applied in arm order on the
//! calling machine, regardless of the order in which the hook finished the
//! arms. Each arm is solved to its *first* solution and committed — the
//! same semantics the inline path has always had — so for independent arms
//! the parallel execution computes exactly the answer the sequential
//! execution computes.

use crate::cost::Counters;
use crate::error::EngineResult;
use crate::heap::HCell;
use granlog_ir::GuardTable;

/// One or more terms copied out of an arena in relocatable form.
///
/// A packet's address space is its `nvars` variables (`0..nvars`, all
/// unbound) followed by its body cells. In the body a [`HCell::Ref`] holds a
/// variable number — bound references never survive packing, so a `Ref`
/// always names a variable — and a [`HCell::Struct`] holds the body-relative
/// index of its argument block. The first body cells are the packet's roots:
/// the goal, for an arm; the value of each of the arm's variables, in order,
/// for an answer. Unpacking at any arena height is one linear pass that adds
/// an offset to each `Ref` and each `Struct` base.
#[derive(Debug, Clone)]
pub struct Packet {
    pub(crate) nvars: u32,
    pub(crate) cells: Vec<HCell>,
}

impl Packet {
    /// The number of arena cells the packet occupies once unpacked: its
    /// variables plus its body.
    pub fn cells(&self) -> usize {
        self.nvars as usize + self.cells.len()
    }
}

/// One arm's answer, produced by a [`ParHook`] that executed the arm
/// remotely (see [`crate::Machine::run_arm`]).
#[derive(Debug, Clone)]
pub struct ArmAnswer {
    /// The values of the arm packet's variables `0..nvars`, in order, as the
    /// roots of one packet. The packet's own variables are the answer-local
    /// fresh variables; they are shared across the values, preserving
    /// sharing.
    pub packet: Packet,
    /// The operation counters of the arm's execution, merged into the
    /// calling machine's counters at the join.
    pub counters: Counters,
    /// The arm's work in cost-model units, recorded as the forked child
    /// task's work in the calling machine's task tree.
    pub work: f64,
}

/// What a [`ParHook`] decided to do with a parallel conjunction.
#[derive(Debug)]
pub enum ParDecision {
    /// Run the arms inline on the calling machine (sequentially, behind the
    /// machine's ordinary parallel-conjunction barrier). This is the
    /// granularity-control "too small to spawn" outcome.
    Inline,
    /// The hook executed every arm to its first solution. `Some(answers)`
    /// carries one [`ArmAnswer`] per arm, in arm order; `None` means at
    /// least one arm failed, failing the whole conjunction (independent
    /// and-parallel semantics — no backtracking across arms).
    Executed(Option<Vec<ArmAnswer>>),
}

/// A parallel-execution strategy consulted by the solve loop at every `&`
/// conjunction. Implemented by `granlog-par`'s work-sharing executor; the
/// engine crate only defines the boundary.
///
/// Implementations are expected to be shared across worker threads (each
/// worker passes the same hook to its own machine so nested conjunctions
/// spawn recursively), hence the `Sync` bound.
pub trait ParHook: Sync {
    /// Offers a parallel conjunction to the hook. `arms` are the packed
    /// arms, in source order, each with the goal as its only root; they are
    /// independent (no unbound parent cell occurs in two of them).
    ///
    /// # Errors
    ///
    /// A propagated engine error from any arm's execution aborts the query.
    fn exec_arms(&self, arms: Vec<Packet>) -> EngineResult<ParDecision>;

    /// The grain-size decision ([`granlog_ir::grain`]) the machine enforces
    /// at the spawn site, over heap cells, *before* packing an arm: if any
    /// arm's first guarded goal measures below its threshold, the
    /// conjunction is inlined for the cost of a bounded cell walk (the same
    /// walk `'$grain_ge'` performs) instead of a full copy. `None` (the
    /// default) sends every conjunction to [`ParHook::exec_arms`].
    fn spawn_guards(&self) -> Option<&GuardTable> {
        None
    }

    /// Notification that the machine inlined a conjunction without offering
    /// it — the spawn-guard pre-screen found it too small, or packing found
    /// an unbound variable shared between arms — so executors can keep
    /// their statistics. Default: no-op.
    fn note_inlined(&self) {}
}
