//! `&` conjunctions and the spawn boundary ([`crate::par`]): arms run, packed,
//! offered, joined; and the one copy of a term out of the arena.

use super::budget::Budget;
use super::control::{Activation, BarrierExit, Goal, Pend};
use super::{Charge, Machine, MAX_WALK_CELLS};
use crate::error::{EngineError, EngineResult, TermLimit};
use crate::heap::HCell;
use crate::image::Image;
use crate::par::{ArmAnswer, ArmEnd, ArmResult, Offer, Packet, ParHook};
use crate::tasktree::TaskId;
use crate::template::ClauseTemplate;
use granlog_ir::symbol::well_known;
use granlog_ir::term::{self, OrderedF64};
use granlog_ir::{FastMap, Term};
use std::sync::Arc;

/// The spawn boundary's state. Only this module reads or writes it.
#[derive(Default)]
pub(super) struct Offers {
    /// Reusable packing scratch (see [`Machine::pack`]): unbound cell →
    /// variable number, counted across the packets of one conjunction.
    pack_vars: FastMap<u32, u32>,
    /// The inverse of `pack_vars`: variable number → unbound cell. After a
    /// conjunction's arms are packed this is the parents table of arm 0,
    /// then of arm 1, and so on.
    pack_parents: Vec<u32>,
    /// The offer table: arms `1..` of every offered conjunction in flight,
    /// innermost conjunction last (conjunctions nest, so it is a stack).
    table: Vec<Offered>,
    /// The parents tables of the arms in `table`, back to back.
    offer_parents: Vec<u32>,
    /// Reusable staging buffer for the slots of one conjunction between
    /// packing and [`ParHook::offer`].
    offer_batch: Vec<Arc<Offer>>,
    /// Emptied packet buffers awaiting the next pack (see [`recycle`]).
    packet_pool: Vec<Vec<HCell>>,
}

/// The forking machine's record of one arm on offer.
struct Offered {
    /// The slot shared with the hook; `None` once this machine claimed the
    /// arm back or joined it.
    arm: Option<Arc<Offer>>,
    /// Where the arm's variable → parent cell table starts in
    /// `offer_parents` (its length is the packet's variable count).
    parents: u32,
}

/// Where the arms of an in-flight parallel conjunction come from.
#[derive(Debug, Clone, Copy)]
pub(super) enum ArmSource {
    /// Compiled arm sequences of the activation's clause:
    /// `template.par_arms()[arms_at + k]` for arm `k`.
    Compiled { act: Activation, arms_at: u32 },
    /// Run-time flattened arm cells living in the machine's `arm_scratch`
    /// buffer at `base .. base + count`.
    Scratch { base: u32 },
}

/// Progress of an in-flight parallel conjunction: which arm is running, how
/// many remain, and the task ids recorded for them.
#[derive(Debug, Clone, Copy)]
pub(super) struct ParState {
    pub(super) arms: ArmSource,
    /// Total number of arms (the fork arity).
    count: u32,
    /// Index of the next arm to start.
    next: u32,
    /// Index of the next arm to join, once every arm has been started or
    /// passed over.
    joined: u32,
    /// Task id of arm 0 (fork children get consecutive ids); 0 in a solve
    /// that records no task tree.
    pub(super) first_task: TaskId,
    /// Where arm 1's entry sits in the offer table (arm `k`'s is at
    /// `offers + k - 1`), or [`NOT_OFFERED`].
    offers: u32,
}

/// [`ParState::offers`] of a conjunction no hook was offered.
const NOT_OFFERED: u32 = u32::MAX;

/// What a parallel conjunction does after one of its arms succeeded (see
/// [`Machine::next_arm`]).
pub(super) enum ArmNext {
    /// Run arm `k` here.
    Run(u32),
    /// An arm that ran elsewhere failed: so does the conjunction.
    Fail,
    /// Every arm succeeded.
    Done,
}

/// Why [`Machine::pack`] gave up: an unbound cell an earlier packet of the
/// conjunction numbered (the arms are not independent), or a term that is
/// cyclic or too large to copy.
#[derive(Debug)]
pub(super) enum PackStop {
    Shared,
    Limit,
}

/// Keeps the buffer of a packet that has served its purpose — an arm
/// claimed back before any thief saw it, an answer that has been joined —
/// for the next [`Machine::pack`]. Almost every offered arm ends here, so a
/// forking machine packs into buffers it already owns instead of allocating
/// and freeing one per conjunction (arm packets run to hundreds of
/// kilobytes; at that size the allocator goes to the kernel, and two
/// threads doing so stall each other on the address space). The pool cannot
/// outgrow the deepest nest of offers the machine has had.
fn recycle(pool: &mut Vec<Vec<HCell>>, arm: Arc<Offer>) {
    if let Some(offer) = Arc::into_inner(arm) {
        pool.push(offer.into_arm().cells);
    }
}

impl Machine {
    /// Runs a packed `&` arm (see [`crate::par`]) to its first solution —
    /// the packet entry point the thief that claimed an [`Offer`] calls on a
    /// machine of its own, passing a hook so nested conjunctions are offered
    /// in turn — under the default budget. The packet is unpacked at the
    /// bottom of the emptied arena, so its variables are cells `0..nvars`; on
    /// success their values are packed back out as the answer, over a fresh
    /// variable numbering. An answer that has no finite copy or is too large
    /// to pack is [`ArmEnd::HandedBack`]: the forker runs the arm itself.
    ///
    /// # Errors
    ///
    /// Returns an error if execution hits a limit or runtime error (local or
    /// inside a nested stolen arm); the run state is unwound as in
    /// [`Machine::solve_goal`].
    pub fn run_arm(&mut self, arm: &Packet, hook: Option<&dyn ParHook>) -> ArmResult {
        self.begin_solve(None);
        let root = self.unpack(arm);
        self.push_goal(Goal::Cell(self.heap[root]))?;
        self.drive(hook, &Budget::default(), |machine, succeeded| {
            if !succeeded {
                return Ok(ArmEnd::Failed);
            }
            machine.new_numbering();
            Ok(match machine.pack((0..arm.nvars).map(HCell::Ref)) {
                Ok(packet) => ArmEnd::Answer(ArmAnswer {
                    packet,
                    counters: machine.counters,
                }),
                Err(PackStop::Limit) => ArmEnd::HandedBack,
                Err(PackStop::Shared) => {
                    unreachable!("a lone packet shares no variable with an earlier one")
                }
            })
        })
    }

    /// Arms this machine has on offer to a parallel hook and has not yet
    /// claimed back, joined or cancelled (see [`crate::par`]). 0 whenever no
    /// solve is in flight.
    pub fn outstanding_offers(&self) -> usize {
        self.offers.table.len()
    }

    /// Starts the `&` conjunction reached as the goal cell `cell`: its arms
    /// are flattened into `arm_scratch`, offered unless the hook keeps them
    /// in place, and run from there. Entering a conjunction never fails.
    pub(super) fn par_cell(
        &mut self,
        image: &Image,
        hook: Option<&dyn ParHook>,
        cell: HCell,
    ) -> EngineResult<bool> {
        let base = self.arm_scratch.len();
        self.collect_arms(cell);
        let count = self.arm_scratch.len() - base;
        let offers = hook
            .filter(|h| !h.keep_in_place(count))
            .map_or(NOT_OFFERED, |h| self.try_offer(h, base));
        let arms = ArmSource::Scratch { base: base as u32 };
        self.fork(image, arms, count as u32, offers)
    }

    /// Starts a compiled `&` of activation `act` whose `count` arms are
    /// `templ.par_arms()[arms_at..]`: they run off their compiled
    /// sequences, and are written out as terms only to be offered, unless
    /// the hook keeps them in place.
    pub(super) fn par_step(
        &mut self,
        image: &Image,
        hook: Option<&dyn ParHook>,
        templ: &ClauseTemplate,
        act: Activation,
        (arms_at, count): (u32, u32),
    ) -> EngineResult<bool> {
        let mut offers = NOT_OFFERED;
        if let Some(h) = hook.filter(|h| !h.keep_in_place(count as usize)) {
            // The copies are packed, then dropped again.
            let heap_mark = self.heap.len();
            let base = self.arm_scratch.len();
            for k in 0..count {
                let pos = templ.par_arm_cell_positions()[(arms_at + k) as usize];
                let cell = self.write(templ.layout(), pos as usize, act.var_base as usize);
                self.arm_scratch.push(cell);
            }
            offers = self.try_offer(h, base);
            self.arm_scratch.truncate(base);
            self.heap.truncate(heap_mark);
        }
        self.fork(image, ArmSource::Compiled { act, arms_at }, count, offers)
    }

    /// Enters a conjunction of `count` arms: records the fork, pushes the
    /// barrier its arms run under and then arm 0.
    #[inline]
    fn fork(
        &mut self,
        image: &Image,
        arms: ArmSource,
        count: u32,
        offers: u32,
    ) -> EngineResult<bool> {
        let first_task = self.record_fork(count as usize);
        let state = ParState {
            arms,
            count,
            next: 1,
            joined: 1,
            first_task,
            offers,
        };
        self.enter(BarrierExit::Par(state), self.arm(image, arms, 0))
    }

    /// Parallel arm `k` from its source (compiled sequence or run-time
    /// scratch cell).
    pub(super) fn arm(&self, image: &Image, arms: ArmSource, k: u32) -> Pend {
        match arms {
            ArmSource::Compiled { act, arms_at } => {
                let templ = &image.templates()[act.clause as usize];
                Pend::Seq(act, templ.par_arms()[(arms_at + k) as usize])
            }
            ArmSource::Scratch { base } => Pend::Cell(self.arm_scratch[(base + k) as usize]),
        }
    }

    /// What a parallel conjunction does after one of its arms succeeded
    /// here. First the arms not yet started, in order: an offered one is
    /// claimed back to run here, or passed over if a thief holds it. Then
    /// the stolen arms are joined, in arm order: each one's answer is
    /// waited for ([`ParHook::join`]), its counters and work are merged as
    /// if the arm had run here, and its packet is unpacked and bound to the
    /// parent cells saved when the arm was packed — uncounted: a join
    /// binding is boundary bookkeeping, not program work, which is what
    /// makes the counters schedule-independent. An arm its thief handed
    /// back runs here after all, the thief's counters dropped.
    pub(super) fn next_arm(
        &mut self,
        hook: Option<&dyn ParHook>,
        state: &mut ParState,
    ) -> EngineResult<ArmNext> {
        while state.next < state.count {
            let arm = state.next;
            state.next += 1;
            if state.offers == NOT_OFFERED {
                return Ok(ArmNext::Run(arm));
            }
            let slot = &mut self.offers.table[(state.offers + arm - 1) as usize].arm;
            if slot.as_ref().is_some_and(|offer| offer.claim()) {
                let offer = slot.take().expect("claimed just above");
                if let Some(hook) = hook {
                    hook.taken_back(&offer, false);
                }
                recycle(&mut self.offers.packet_pool, offer);
                return Ok(ArmNext::Run(arm));
            }
        }
        while state.offers != NOT_OFFERED && state.joined < state.count {
            let arm = state.joined;
            state.joined += 1;
            let offered = &mut self.offers.table[(state.offers + arm - 1) as usize];
            let (Some(offer), parents) = (offered.arm.take(), offered.parents as usize) else {
                continue;
            };
            let hook = hook.expect("arms are offered only through a hook");
            let answer = match hook.join(&offer)? {
                ArmEnd::Answer(answer) => answer,
                ArmEnd::Failed => return Ok(ArmNext::Fail),
                ArmEnd::HandedBack => return Ok(ArmNext::Run(arm)),
            };
            self.counters = self.counters.add(&answer.counters);
            let root = self.unpack(&answer.packet);
            self.offers.packet_pool.push(answer.packet.cells);
            self.note_heap_high_water();
            for var in 0..offer.arm().nvars as usize {
                let parent = self.offers.offer_parents[parents + var] as usize;
                if !self.unify(parent, root + var, Charge::Uncounted)? {
                    return Ok(ArmNext::Fail);
                }
            }
        }
        Ok(ArmNext::Done)
    }

    /// Ends a conjunction, every arm of which succeeded or one of which
    /// failed: leaves the running arm's task, frees the run-time arm cells
    /// and withdraws the arms still on offer.
    pub(super) fn end_conjunction(&mut self, state: ParState, hook: Option<&dyn ParHook>) {
        self.record_arm_exit(None);
        if let ArmSource::Scratch { base } = state.arms {
            self.arm_scratch.truncate(base as usize);
        }
        if state.offers != NOT_OFFERED {
            self.cancel_offers(hook, state.offers as usize);
        }
    }

    /// Drops the offer table from entry `from` up: an arm nobody has
    /// claimed yet is claimed so that nobody will, and `hook` (when there is
    /// one) takes it off its queue; the result of an arm a thief holds is
    /// abandoned with the entry.
    pub(super) fn cancel_offers(&mut self, hook: Option<&dyn ParHook>, from: usize) {
        let offers = &mut self.offers;
        let Some(first) = offers.table.get(from) else {
            return;
        };
        offers.offer_parents.truncate(first.parents as usize);
        // Innermost first, the order a hook's queue gives them up in.
        for offered in offers.table.drain(from..).rev() {
            if let Some(offer) = offered.arm.filter(|offer| offer.claim()) {
                if let Some(hook) = hook {
                    hook.taken_back(&offer, true);
                }
                recycle(&mut offers.packet_pool, offer);
            }
        }
    }

    /// Offers arms `1..` of the conjunction whose arm cells sit in
    /// `arm_scratch[base..]` (left in place) to the parallel hook, and
    /// returns where their entries start in the offer table — or
    /// [`NOT_OFFERED`], with the hook notified, when the arms are not
    /// independent. Either way the caller then runs the conjunction on its
    /// ordinary inline path.
    ///
    /// This is the forking half of the spawn boundary documented in
    /// [`crate::par`], reached only by a conjunction the hook did not keep
    /// in place. Packing is also the independence check: an unbound
    /// variable shared between arms would make their first solutions
    /// order-dependent, so such a conjunction is not offered and parallel
    /// execution stays answer-equivalent to sequential execution.
    fn try_offer(&mut self, hook: &dyn ParHook, base: usize) -> u32 {
        let Some(own_vars) = self.pack_arms(base) else {
            hook.note_inlined();
            self.offers.offer_batch.clear();
            return NOT_OFFERED;
        };
        // `pack_parents` is arm 0's parent cells, then arm 1's, and so on;
        // nested conjunctions will reuse it, so the offered arms' tables
        // move to the offer table's side.
        let offers = &mut self.offers;
        let first = offers.table.len() as u32;
        let mut parents = offers.offer_parents.len() as u32;
        offers
            .offer_parents
            .extend_from_slice(&offers.pack_parents[own_vars..]);
        hook.offer(&offers.offer_batch);
        for arm in offers.offer_batch.drain(..) {
            let nvars = arm.arm().nvars;
            offers.table.push(Offered {
                arm: Some(arm),
                parents,
            });
            parents += nvars;
        }
        first
    }

    /// Numbers the unbound cells of the arms in `arm_scratch[base..]` over
    /// one variable numbering: arm 0's by a walk (it never leaves; its cells
    /// are the ones the later arms must not share), each later arm's by
    /// packing it into a slot pushed on `offer_batch`. Returns arm 0's
    /// variable count — where the later arms' tables start in
    /// `pack_parents` — or `None` when two arms share an unbound cell, or
    /// one is cyclic or too large to copy: such an arm runs inline, as a
    /// dependent one does.
    fn pack_arms(&mut self, base: usize) -> Option<usize> {
        self.new_numbering();
        self.number_unbound(self.arm_scratch[base]).ok()?;
        let own_vars = self.offers.pack_parents.len();
        for k in base + 1..self.arm_scratch.len() {
            let arm = self.pack([self.arm_scratch[k]]).ok()?;
            self.offers.offer_batch.push(Offer::new(arm));
        }
        Some(own_vars)
    }

    /// Flattens a (possibly nested) `&` conjunction into dereferenced arm
    /// cells appended to the shared scratch buffer, left to right.
    fn collect_arms(&mut self, cell: HCell) {
        let par_and = well_known::get().par_and;
        // Right operands still to flatten, innermost last.
        let mut rights = vec![cell];
        while let Some(right) = rights.pop() {
            let mut cell = self.deref_cell(right);
            while let HCell::Struct(s, 2, base) = cell {
                if s != par_and {
                    break;
                }
                rights.push(self.heap[base as usize + 1]);
                cell = self.deref_cell(self.heap[base as usize]);
            }
            self.arm_scratch.push(cell);
        }
    }

    /// Packs the terms rooted at `roots` out of the arena into one
    /// relocatable [`Packet`] whose first body cells are those roots, in a
    /// single iterative pass: the packet under construction is its own work
    /// queue (a Cheney scan), so nothing here recurses on term depth. Each
    /// scanned cell is dereferenced; a struct's argument block is appended
    /// raw, to be scanned in its turn, and an unbound cell becomes a packet
    /// variable.
    ///
    /// Variables are numbered through `pack_vars` / `pack_parents`, which
    /// the caller clears before the first packet of a conjunction (or
    /// before a lone answer) and which this call extends — so the packets of
    /// one conjunction draw on one numbering, each packet's variables being
    /// the tail this call added, rebased to 0. Stops with
    /// [`PackStop::Shared`] on reaching an unbound cell an *earlier* packet
    /// already numbered (the two arms are not independent), and with
    /// [`PackStop::Limit`] on a cyclic or too large term.
    pub(super) fn pack(
        &mut self,
        roots: impl IntoIterator<Item = HCell>,
    ) -> Result<Packet, PackStop> {
        let mut cells = self.offers.packet_pool.pop().unwrap_or_default();
        match self.pack_into(&mut cells, roots) {
            Ok(nvars) => Ok(Packet { nvars, cells }),
            Err(stop) => {
                self.offers.packet_pool.push(cells);
                Err(stop)
            }
        }
    }

    /// [`Machine::pack`] into an emptied buffer, returning the packet's
    /// variable count. The scan is breadth first; no acyclic path meets an
    /// arena cell twice, so a copy more levels deep than the arena has cells
    /// is a cycle.
    fn pack_into(
        &mut self,
        cells: &mut Vec<HCell>,
        roots: impl IntoIterator<Item = HCell>,
    ) -> Result<u32, PackStop> {
        let first_var = self.offers.pack_parents.len() as u32;
        cells.clear();
        cells.extend(roots);
        let (mut at, mut level, mut level_end) = (0, 0, cells.len());
        while at < cells.len() {
            if at == level_end {
                level += 1;
                level_end = cells.len();
                if level > self.heap.len() {
                    return Err(PackStop::Limit);
                }
            }
            cells[at] = match self.deref_cell(cells[at]) {
                HCell::Ref(idx) => {
                    let var = self.pack_var(idx);
                    if var < first_var {
                        return Err(PackStop::Shared);
                    }
                    HCell::Ref(var - first_var)
                }
                HCell::Struct(name, arity, base) => {
                    if cells.len() + arity as usize > MAX_WALK_CELLS {
                        return Err(PackStop::Limit);
                    }
                    let block = cells.len() as u32;
                    let base = base as usize;
                    cells.extend_from_slice(&self.heap[base..base + arity as usize]);
                    HCell::Struct(name, arity, block)
                }
                constant => constant,
            };
            at += 1;
        }
        Ok(self.offers.pack_parents.len() as u32 - first_var)
    }

    /// Starts a variable numbering (see [`Machine::pack`]): before a
    /// conjunction's first packet, or a lone answer's.
    pub(super) fn new_numbering(&mut self) {
        self.offers.pack_vars.clear();
        self.offers.pack_parents.clear();
    }

    /// The number of unbound cell `idx` in the conjunction's variable
    /// numbering (see [`Machine::pack`]), the next one if it has none yet.
    fn pack_var(&mut self, idx: u32) -> u32 {
        let offers = &mut self.offers;
        let fresh = offers.pack_parents.len() as u32;
        let var = *offers.pack_vars.entry(idx).or_insert(fresh);
        if var == fresh {
            offers.pack_parents.push(idx);
        }
        var
    }

    /// Numbers the unbound cells of the term at `root` as [`Machine::pack`]
    /// would, without copying it: arm 0 of an offered conjunction never
    /// leaves, and is walked only for the cells the later arms must not
    /// share. One preorder walk with a stack of the compounds on the current
    /// path, under the copy's bounds: a path of more compounds than the
    /// arena has cells is a cycle, and the walk stops past
    /// [`MAX_WALK_CELLS`] cells.
    pub(super) fn number_unbound(&mut self, root: HCell) -> Result<(), PackStop> {
        // A compound leaves the stack only after its last argument's
        // subterm, so the stack is the path.
        let mut open = std::mem::take(&mut self.arg_blocks);
        let (mut next, mut visits) = (root, 0);
        let walked = 'walk: loop {
            match self.deref_cell(next) {
                HCell::Ref(idx) => {
                    self.pack_var(idx);
                }
                HCell::Struct(_, arity, base) => {
                    if open.len() > self.heap.len() {
                        break Err(PackStop::Limit);
                    }
                    open.push((base, arity));
                }
                _ => {}
            }
            visits += 1;
            if visits > MAX_WALK_CELLS {
                break Err(PackStop::Limit);
            }
            next = loop {
                let Some((arg, left)) = open.last_mut() else {
                    break 'walk Ok(());
                };
                if *left > 0 {
                    (*arg, *left) = (*arg + 1, *left - 1);
                    break self.heap[*arg as usize - 1];
                }
                open.pop();
            };
        };
        open.clear();
        self.arg_blocks = open;
        walked
    }

    /// Unpacks a packet on top of the arena — its variables as fresh unbound
    /// cells, then its body with every `Ref` and `Struct` base moved by one
    /// offset each — and returns the heap index of its first root.
    pub(super) fn unpack(&mut self, packet: &Packet) -> usize {
        let vars = self.fresh_vars(packet.nvars as usize);
        self.write_relocated(&packet.cells, 0, vars)
    }

    /// Copies the term at `root` out of the arena as a [`Term`] — the one
    /// exit, for answers and error messages alike — by one preorder walk
    /// that writes the term's cells as it goes, with a stack of the
    /// compounds whose arguments are still being copied. No acyclic path
    /// meets an arena cell twice, so a path of more compounds than the arena
    /// has cells is a cycle; a copy stops there, and past
    /// [`MAX_WALK_CELLS`] cells. Unbound cells become variables numbered by
    /// their arena index.
    pub(crate) fn extract_cell(&self, root: HCell) -> EngineResult<Term> {
        let mut cells = Vec::new();
        // Compounds being copied, innermost last: where the compound's cell
        // is, the arena index of its next argument and the arguments to go.
        let mut open: Vec<(usize, usize, u32)> = Vec::new();
        let mut next = root;
        loop {
            cells.push(match self.deref_cell(next) {
                HCell::Ref(var) => term::Cell::Var(var as usize),
                HCell::Atom(s) => term::Cell::Atom(s),
                HCell::Int(i) => term::Cell::Int(i),
                HCell::Float(x) => term::Cell::Float(OrderedF64(x)),
                HCell::Struct(name, arity, base) => {
                    if open.len() > self.heap.len() {
                        return Err(EngineError::TermLimit(TermLimit::Cyclic));
                    }
                    open.push((cells.len(), base as usize, arity));
                    term::Cell::Struct(name, arity, 0)
                }
            });
            if cells.len() > MAX_WALK_CELLS {
                return Err(EngineError::TermLimit(TermLimit::Copy));
            }
            // The next argument of the innermost compound with one to go;
            // a compound whose arguments are all in learns its size.
            next = loop {
                let Some((at, arg, left)) = open.last_mut() else {
                    return Ok(Term::from_cells(cells));
                };
                if *left > 0 {
                    (*arg, *left) = (*arg + 1, *left - 1);
                    break self.heap[*arg - 1];
                }
                if let term::Cell::Struct(name, arity, _) = cells[*at] {
                    cells[*at] = term::Cell::Struct(name, arity, (cells.len() - *at - 1) as u32);
                }
                open.pop();
            };
        }
    }
}

#[cfg(test)]
impl Machine {
    /// The current variable numbering: variable number → unbound cell.
    pub(super) fn numbered(&self) -> &[u32] {
        &self.offers.pack_parents
    }
}
