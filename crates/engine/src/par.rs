//! The engine side of the parallel-execution boundary.
//!
//! The machine itself stays single-threaded: a [`crate::Machine`] owns one
//! arena, one goal stack and one set of choice points, and nothing in it is
//! shared. Real and-parallel execution is layered *on top* through the
//! [`ParHook`] trait, by **lazy task creation**: when a hook is passed to
//! [`crate::Machine::solve_goal`], every parallel conjunction (`&`) the
//! machine reaches runs on the forking machine's ordinary inline path,
//! exactly as it does without a hook. Some of them also *offer* arms `1..`
//! to the hook as [`Offer`] slots. An offer is a standing invitation, not a
//! hand-over: whoever wins the slot's one compare-and-swap runs the arm.
//!
//! The boundary makes no grain-size decision. Granularity control is the
//! annotator's source rewrite: a `&` too small to pay for an offer has
//! already taken the sequential branch of its `'$grain_ge'` test — a test
//! charged to the grain-test counters and the work — before the machine
//! could reach it.
//!
//! * **Offer only to a taker.** At each `&` the machine first asks the hook
//!   whether the forking thread still has an arm on offer
//!   ([`ParHook::keep_in_place`]). If it has, an idle thread already has
//!   that arm to take, and the conjunction runs in place as it would
//!   without a hook: no arm is written, checked or packed. Only a
//!   conjunction that is actually offered pays for the independence check
//!   and the packets.
//! * The forking machine claims each offered arm back as it reaches it and
//!   runs it in place, on its compiled arm sequence. This is the common
//!   case for an offered arm, and it costs the pack, one `Arc`, and two
//!   uncontended deque operations.
//! * An idle thread that claims the slot first (a *thief*) unpacks the arm
//!   on a machine of its own ([`crate::Machine::run_arm`]), solves it and
//!   leaves an [`ArmEnd`] in the slot. The forker skips that arm, and when
//!   its local arms are done it asks the hook for each stolen arm's result
//!   ([`ParHook::join`], which may block or help), in arm order.
//! * A thief whose answer has no finite copy (a cyclic binding) or is too
//!   large to pack hands the arm back ([`ArmEnd::HandedBack`]); the joiner
//!   runs it in place after all, so a stolen arm answers as an inline one.
//! * A conjunction that fails and an engine error both claim the
//!   outstanding slots so nobody else starts them; an arm a thief already
//!   runs finishes unobserved.
//!
//! # Copy semantics at the spawn boundary
//!
//! Arms cross the boundary **by value**, as [`Packet`]s: flat, relocatable
//! runs of heap cells with no pointer into any arena. The machine packs each
//! offered arm straight out of its arena in one iterative pass — bound `Ref`
//! chains are dereferenced away, every distinct unbound parent cell becomes
//! the next dense packet variable (the machine keeps the variable → parent
//! cell table of every offered arm on its side of the boundary), and a
//! parent cell reached from two arms inlines the conjunction without
//! offering it, because such arms are not independent. Arm 0 never leaves,
//! so it is walked for its unbound cells rather than copied. A thief's
//! answer is a second packet holding the values of the arm's variables, in
//! order, over a fresh-variable alphabet shared across the bindings of that
//! answer, so sharing between answer terms is preserved. The forking
//! machine unpacks it into its own arena and binds each parent cell to its
//! value through the ordinary trail, so backtracking past the conjunction
//! undoes the joined bindings. No `Term` is built anywhere on this path,
//! and neither packing nor unpacking recurses on term depth: a list of any
//! length crosses the boundary on a constant amount of native stack.
//!
//! # Determinism guarantees
//!
//! Which arms cross is a race; what the query computes is not. Each arm is
//! solved to its *first* solution and committed — the semantics the inline
//! path has always had — stolen answers are joined in arm order on the
//! forking machine, and the join's bindings are boundary bookkeeping that no
//! operation counter is charged for. So for independent arms a run with a
//! hook reports the same answer, the same [`Counters`] and the same work as
//! the run without one, whatever the schedule. A conjunction kept in place
//! is not checked for independence at all: it runs as the sequential
//! machine runs it.

use crate::cost::Counters;
use crate::error::EngineResult;
use crate::heap::HCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

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

/// One arm's answer, produced by the thief that ran the arm (see
/// [`crate::Machine::run_arm`]).
#[derive(Debug, Clone)]
pub struct ArmAnswer {
    /// The values of the arm packet's variables `0..nvars`, in order, as the
    /// roots of one packet. The packet's own variables are the answer-local
    /// fresh variables; they are shared across the values, preserving
    /// sharing.
    pub packet: Packet,
    /// The operation counters of the arm's execution, merged into the
    /// forking machine's counters at the join: what they add is the forked
    /// child task's work in the forking machine's task tree.
    pub counters: Counters,
}

/// How an arm that a thief ran ended.
#[derive(Debug, Clone)]
pub enum ArmEnd {
    /// It succeeded with this answer.
    Answer(ArmAnswer),
    /// It failed.
    Failed,
    /// It succeeded, but its answer has no finite copy or is too large to
    /// pack ([`crate::EngineError::TermLimit`]). The joiner runs the arm in
    /// place, where no copy is needed, and the thief's counters are dropped,
    /// so the run counts what the sequential machine counts.
    HandedBack,
}

/// What running an arm elsewhere produced: how it ended, or the engine
/// error that aborts the query.
pub type ArmResult = EngineResult<ArmEnd>;

/// In a deque (or about to be): the first claim wins the arm.
const QUEUED: u8 = 0;
/// Claimed — by the forker (which runs or cancels it and never completes the
/// slot) or by a thief (which will).
const CLAIMED: u8 = 1;
/// A thief left its result in the slot.
const DONE: u8 = 2;

/// An arm on offer: its packet, the one atomic that decides who runs it, and
/// the cell a thief leaves the result in. Shared (`Arc`) between the forking
/// machine and wherever the hook queued it.
#[derive(Debug)]
pub struct Offer {
    arm: Packet,
    state: AtomicU8,
    result: Mutex<Option<ArmResult>>,
}

impl Offer {
    pub(crate) fn new(arm: Packet) -> Arc<Offer> {
        Arc::new(Offer {
            arm,
            state: AtomicU8::new(QUEUED),
            result: Mutex::new(None),
        })
    }

    /// The arm's goal, packed.
    pub fn arm(&self) -> &Packet {
        &self.arm
    }

    /// The packet back, once the slot has no other holder.
    pub(crate) fn into_arm(self) -> Packet {
        self.arm
    }

    /// Tries to take the arm. Exactly one caller ever gets `true`; a thief
    /// that does owes the slot a [`Offer::complete`].
    pub fn claim(&self) -> bool {
        // No data is published by a claim: the packet is immutable and was
        // shared through the queue's own synchronization.
        self.state
            .compare_exchange(QUEUED, CLAIMED, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Leaves the result of running the arm, for the forker's join.
    pub fn complete(&self, result: ArmResult) {
        *self.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        // `SeqCst` pairs with [`Offer::is_done`]: a joiner announces that it
        // is about to sleep and then re-reads this flag, while the thief
        // sets the flag and then looks for announced sleepers — one of the
        // two must see the other.
        self.state.store(DONE, Ordering::SeqCst);
    }

    /// Has a thief completed the slot?
    pub fn is_done(&self) -> bool {
        self.state.load(Ordering::SeqCst) == DONE
    }

    /// Takes the thief's result; `None` until [`Offer::is_done`].
    pub fn take_result(&self) -> Option<ArmResult> {
        self.result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// A parallel-execution strategy consulted by the solve loop at every `&`
/// conjunction. Implemented by `granlog-par`'s work-stealing executor; the
/// engine crate only defines the boundary.
///
/// Implementations are shared across threads (a thief passes a hook to its
/// own machine so nested conjunctions are offered recursively), hence the
/// `Sync` bound.
pub trait ParHook: Sync {
    /// Asked at every `&` before anything is written: does the forking
    /// thread still have an arm on offer? If so the conjunction of `arms`
    /// arms runs in place, unchecked and unoffered, exactly as without a
    /// hook, and the hook counts its arms as spawned ones: an idle thread
    /// has older, bigger work to take already (lazy task creation's
    /// "split only when the own deque is empty"). Default: `false`, every
    /// conjunction is offered.
    fn keep_in_place(&self, _arms: usize) -> bool {
        false
    }

    /// Notification that the machine inlined a conjunction without offering
    /// it — packing found an unbound variable shared between arms, or an
    /// arm too large or cyclic to copy — so executors can keep their
    /// statistics. Default: no-op.
    fn note_inlined(&self) {}

    /// Arms `1..` of a conjunction that was not kept in place and passed the
    /// independence check, in arm order. The machine runs arm 0 now and
    /// will want `arms[0]` back first, so the cheap place for it is the
    /// newest end of whatever the hook keeps.
    fn offer(&self, arms: &[Arc<Offer>]);

    /// The forking machine won `arm`'s claim — to run it in place, or
    /// (`cancelled`) because the conjunction is over before the arm was
    /// reached — so the hook drops its reference. Default: no-op.
    fn taken_back(&self, _arm: &Arc<Offer>, _cancelled: bool) {}

    /// The result of an arm a thief claimed, requested when the forking
    /// machine has run out of local arms; blocks until the thief is done.
    /// An arm handed back ([`ArmEnd::HandedBack`]) still counts as stolen.
    ///
    /// # Errors
    ///
    /// The engine error the arm's execution raised, which aborts the query.
    fn join(&self, arm: &Offer) -> ArmResult;
}
