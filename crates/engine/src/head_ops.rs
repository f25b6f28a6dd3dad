//! A clause head compiled to straight-line match instructions, in the
//! get / unify style of Warren's abstract machine (Warren, *An Abstract
//! Prolog Instruction Set*, 1983; Aït-Kaci, *Warren's Abstract Machine*,
//! 1991).
//!
//! There is one [`HeadOp`] per cell of the head's arguments, in preorder,
//! so op `i` matches layout cell `i`. The compiler has already decided what
//! a walk of the cells would re-decide at every cell: whether a variable is
//! met for the first time ([`Match::Var`]) or again ([`Match::Val`]), and
//! where in the goal the cell it is matched against lives.
//!
//! That goal cell is addressed as `bases[slot] + index`. `bases` is the
//! machine's scratch: `bases[0]` is the goal's argument block, and a
//! [`Match::Struct`] that meets a goal compound of its functor (read mode)
//! stores that compound's argument block in `bases[args]`, where its
//! arguments' ops find it. A compound that is its parent's last argument
//! takes its parent's slot, which nothing reads any more, so a list spine
//! of any length takes one slot; the slots in use at any op are those of
//! the compounds open above it, numbered upwards from 0. A compound met
//! against an unbound goal cell (write mode) is written whole from the
//! layout and its `skip` ops are passed over.

use crate::heap::HCell;
use granlog_ir::term::Cell;
use granlog_ir::Symbol;

/// One head cell's match instruction and the goal cell it reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HeadOp {
    /// The `bases` entry the goal cell's block start is read from.
    pub(crate) slot: u32,
    /// The goal cell's offset in that block.
    pub(crate) index: u32,
    pub(crate) kind: Match,
}

/// What a [`HeadOp`] does with its goal cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Match {
    /// The first occurrence of clause variable `v`: its cell takes the
    /// goal's dereferenced value, or a reference to the goal's unbound
    /// cell.
    Var(u32),
    /// A later occurrence of clause variable `v`: general unification.
    Val(u32),
    /// An atom, integer or float: bind an unbound goal cell, or compare.
    Const(HCell),
    /// A compound.
    Struct {
        name: Symbol,
        arity: u32,
        /// The layout position its subterm is written from in write mode.
        pos: u32,
        /// The ops of its arguments' subterms, passed over in write mode.
        skip: u32,
        /// The slot its argument ops read, set in read mode.
        args: u32,
    },
}

/// Compiles the preorder `cells` of a head's `arity` arguments, whose
/// variables are numbered below `vars`. Returns the ops and the number of
/// `bases` slots they address. One loop over the cells with a stack of the
/// compounds still open; nothing here recurses on the head's depth.
pub(crate) fn compile(cells: &[Cell], arity: usize, vars: usize) -> (Box<[HeadOp]>, u32) {
    let mut ops = Vec::with_capacity(cells.len());
    let mut seen = vec![false; vars];
    // Per open compound (the head itself first): its arguments' slot, the
    // next argument's index and the number of arguments still to come.
    let mut open: Vec<(u32, u32, u32)> = Vec::new();
    if arity > 0 {
        open.push((0, 0, arity as u32));
    }
    let mut slots = u32::from(arity > 0);
    for (pos, &cell) in cells.iter().enumerate() {
        let top = open
            .last_mut()
            .expect("every head cell is an argument of an open compound");
        let (slot, index) = (top.0, top.1);
        top.1 += 1;
        top.2 -= 1;
        // The last argument closes its parent before its own subterm.
        let last = top.2 == 0;
        if last {
            open.pop();
        }
        let kind = match cell {
            Cell::Var(v) => {
                if std::mem::replace(&mut seen[v], true) {
                    Match::Val(v as u32)
                } else {
                    Match::Var(v as u32)
                }
            }
            Cell::Struct(name, arity, below) => {
                let args = if last { slot } else { slot + 1 };
                slots = slots.max(args + 1);
                if arity > 0 {
                    open.push((args, 0, arity));
                }
                Match::Struct {
                    name,
                    arity,
                    pos: pos as u32,
                    skip: below,
                    args,
                }
            }
            constant => Match::Const(HCell::constant(constant)),
        };
        ops.push(HeadOp { slot, index, kind });
    }
    debug_assert!(
        open.is_empty(),
        "the cells hold exactly the head's arguments"
    );
    (ops.into(), slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::parser::parse_program;
    use granlog_ir::term::AsTerm;

    /// The ops of the first clause head of `src`.
    fn compiled(src: &str) -> (Box<[HeadOp]>, u32) {
        let program = parse_program(src).unwrap();
        let clause = &program.clauses()[0];
        compile(
            &clause.head.cells()[1..],
            clause.head.args().len(),
            clause.num_vars(),
        )
    }

    fn at(ops: &[HeadOp]) -> Vec<(u32, u32)> {
        ops.iter().map(|op| (op.slot, op.index)).collect()
    }

    #[test]
    fn first_and_later_occurrences_are_told_apart() {
        let (ops, slots) = compiled("p(X, f(X, Y), Y, a).");
        let kinds: Vec<&str> = ops
            .iter()
            .map(|op| match op.kind {
                Match::Var(_) => "var",
                Match::Val(_) => "val",
                Match::Const(_) => "const",
                Match::Struct { .. } => "struct",
            })
            .collect();
        assert_eq!(kinds, ["var", "struct", "val", "var", "val", "const"]);
        assert_eq!(at(&ops), [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (0, 3)]);
        assert_eq!(slots, 2);
    }

    #[test]
    fn a_last_argument_compound_reuses_its_parents_slot() {
        // A list spine is a chain of last arguments: one slot however long.
        let (ops, slots) = compiled("p([a, b, c]).");
        assert_eq!(slots, 1);
        assert!(ops.iter().all(|op| op.slot == 0));
        // A compound in first position takes a fresh slot, and its own
        // last-argument compound shares that one.
        let (ops, slots) = compiled("p(f(g(a), h(b)), c).");
        assert_eq!(
            at(&ops),
            [(0, 0), (1, 0), (2, 0), (1, 1), (1, 0), (0, 1)],
            "f, g, a, h, b, c"
        );
        assert_eq!(slots, 3);
        let skips: Vec<u32> = ops
            .iter()
            .filter_map(|op| match op.kind {
                Match::Struct { skip, .. } => Some(skip),
                _ => None,
            })
            .collect();
        assert_eq!(skips, [4, 1, 1]);
    }

    #[test]
    fn an_atom_head_has_no_ops() {
        assert_eq!(compiled("p.").0.len(), 0);
        assert_eq!(compiled("p.").1, 0);
    }
}
