//! The bump-arena term heap: WAM-style tagged cells in one contiguous
//! allocation.
//!
//! The engine stores *all* runtime term structure — variables, constants and
//! compound-term argument blocks — as [`HCell`]s in a single `Vec` owned by
//! the machine. A term is identified by a heap index (or, transiently, by a
//! cell value held in a register-like local, a goal-stack slot or a
//! choice-point record); nothing is reference-counted and nothing is dropped
//! cell by cell.
//!
//! Cell tags:
//!
//! * [`HCell::Ref`] — a variable. A cell that points *to itself* is an
//!   unbound variable; a bound variable either points at another cell or has
//!   been overwritten in place with the (copyable) value cell it was bound
//!   to. Binding is recorded on the machine's trail, and undoing a trail
//!   entry rewrites the cell back to a self-reference.
//! * [`HCell::Atom`] / [`HCell::Int`] / [`HCell::Float`] — constants, stored
//!   immediately in the cell. Binding a variable to a constant copies the
//!   constant into the variable's cell: no indirection, no allocation.
//! * [`HCell::Struct`] — a compound term `name(args…)`: functor symbol,
//!   arity, and the index of the first of `arity` consecutive argument
//!   cells. The struct cell itself has value semantics (copying it shares
//!   the argument block), so binding a variable to a compound is also a
//!   single cell write.
//!
//! # Garbage policy
//!
//! The arena only ever grows at the top and is reclaimed by *truncation to a
//! heap mark*: every choice point — and every isolation barrier (negation,
//! if-then-else condition, parallel conjunction) — snapshots the heap
//! height, and unwinding (after undoing trailed bindings, which may reach
//! below the mark) truncates the arena back to it. Between snapshots the
//! arena grows monotonically; `run_goal` clears it wholesale. After the
//! machine's first query the arena's capacity is warm and steady-state
//! execution touches the system allocator only when a query out-grows every
//! previous one.
//!
//! # Invariants
//!
//! * An argument block of arity `n` occupies indices `base .. base + n` and
//!   is fully initialized before any cell referencing it escapes.
//! * `Ref` targets always point at already-existing (lower or equal) indices
//!   by the time they are readable, so dereferencing cannot run off the top.
//! * A bound variable's overwritten cell is restored from the trail before
//!   any truncation that would remove the binding's target.

use granlog_ir::term::Cell;
use granlog_ir::Symbol;

/// One tagged heap cell. `Copy`, 16 bytes; see the module docs for the tag
/// semantics and arena invariants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HCell {
    /// A variable: the index of the cell it points at. Self-index = unbound.
    Ref(u32),
    /// An atom constant.
    Atom(Symbol),
    /// An integer constant.
    Int(i64),
    /// A float constant.
    Float(f64),
    /// A compound term: functor, arity, index of the first argument cell.
    Struct(Symbol, u32, u32),
}

impl HCell {
    /// A fresh unbound variable cell living at `idx`.
    #[inline]
    pub fn unbound(idx: usize) -> HCell {
        HCell::Ref(idx as u32)
    }

    /// The arena cell of an atom, integer or float of a term — what a
    /// constant binds a variable to or is compared with.
    ///
    /// # Panics
    ///
    /// On a variable or compound cell.
    #[inline]
    pub(crate) fn constant(cell: Cell) -> HCell {
        match cell {
            Cell::Atom(s) => HCell::Atom(s),
            Cell::Int(i) => HCell::Int(i),
            Cell::Float(x) => HCell::Float(x.0),
            other => unreachable!("{other:?} is not a constant"),
        }
    }

    /// The functor name and arity of a callable cell.
    #[inline]
    pub fn functor(self) -> Option<(Symbol, usize)> {
        match self {
            HCell::Atom(s) => Some((s, 0)),
            HCell::Struct(s, arity, _) => Some((s, arity as usize)),
            _ => None,
        }
    }
}

/// Dereferences a heap index: follows bound `Ref` chains to the
/// representative cell. O(chain length), allocation-free.
#[inline]
pub(crate) fn deref(heap: &[HCell], mut idx: usize) -> usize {
    loop {
        match heap[idx] {
            HCell::Ref(next) if next as usize != idx => idx = next as usize,
            _ => return idx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_one_sixteen_byte_word() {
        // The whole design leans on cells being small `Copy` values: a bound
        // variable is a cell overwrite, a goal-stack slot is a cell, and
        // argument blocks are contiguous cell runs.
        assert_eq!(std::mem::size_of::<HCell>(), 16);
    }

    #[test]
    fn unbound_cells_are_self_references() {
        assert_eq!(HCell::unbound(7), HCell::Ref(7));
    }

    #[test]
    fn functor_of_cells() {
        let s = Symbol::intern("f");
        assert_eq!(HCell::Atom(s).functor(), Some((s, 0)));
        assert_eq!(HCell::Struct(s, 3, 10).functor(), Some((s, 3)));
        assert_eq!(HCell::Int(1).functor(), None);
        assert_eq!(HCell::Ref(0).functor(), None);
    }
}
