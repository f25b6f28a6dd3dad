//! The builtin predicates, written once.
//!
//! "Which goals are constant-cost builtins" is an input to every cost bound
//! and to every execution substrate, so it is one table: a row per builtin
//! with its interned `(name, arity)`, the [`Builtin`] id the engine
//! dispatches on, and its argument modes. The SLD engine folds [`rows`] into
//! its call-target map and implements every id in one exhaustive `match` (a
//! row without an implementation does not compile); the cost analysis charges
//! a [`lookup`] hit a constant; mode inference reads the modes column; the
//! bottom-up engine rejects every row as outside the Datalog subset.
//!
//! Control atoms (`true`, `fail`, `false`, `!`) are not rows: they are
//! control, and come from [`crate::symbol::well_known`].

use crate::modes::ArgMode::{self, In, Out};
use crate::program::PredId;
use crate::symbol::{FastMap, Symbol};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// An arithmetic comparison: `<`, `>`, `=<`, `>=`, `=:=`, `=\=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `=<`
    Le,
    /// `>=`
    Ge,
    /// `=:=`
    Eq,
    /// `=\=`
    Ne,
}

impl CmpOp {
    /// Whether the comparison holds for operands that compare as `ord`. An
    /// unordered pair (`None`: a NaN operand) satisfies only `=\=`.
    pub fn holds(self, ord: Option<Ordering>) -> bool {
        let Some(ord) = ord else {
            return self == CmpOp::Ne;
        };
        match self {
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
        }
    }
}

/// What a builtin does, independent of the name it is called by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `=/2`.
    Unify,
    /// `\=/2`.
    NotUnifiable,
    /// `==/2`.
    StructEq,
    /// `\==/2`.
    StructNe,
    /// `@</2`.
    TermLt,
    /// `@>/2`.
    TermGt,
    /// `@=</2`.
    TermLe,
    /// `@>=/2`.
    TermGe,
    /// `is/2`.
    Is,
    /// `</2`, `>/2`, `=</2`, `>=/2`, `=:=/2`, `=\=/2`.
    NumCompare(CmpOp),
    /// `var/1`.
    IsVar,
    /// `nonvar/1`.
    Nonvar,
    /// `atom/1`.
    IsAtom,
    /// `number/1`.
    IsNumber,
    /// `integer/1`.
    IsInteger,
    /// `float/1`.
    IsFloat,
    /// `atomic/1`.
    IsAtomic,
    /// `ground/1`.
    Ground,
    /// `is_list/1`.
    IsList,
    /// `functor/3`.
    Functor,
    /// `arg/3`.
    Arg,
    /// `=../2`.
    Univ,
    /// `length/2`.
    Length,
    /// `'$grain_ge'/3`, the grain-size test.
    GrainGe,
    /// `write/1`, `print/1`, `write_canonical/1`, `tab/1`: charged, no output.
    WriteLike,
    /// `nl/0`.
    Nl,
}

/// Every builtin: name, id, and one mode per argument (so the arity).
const ROWS: &[(&str, Builtin, &[ArgMode])] = &[
    ("=", Builtin::Unify, &[Out, In]),
    ("\\=", Builtin::NotUnifiable, &[In, In]),
    ("==", Builtin::StructEq, &[In, In]),
    ("\\==", Builtin::StructNe, &[In, In]),
    ("@<", Builtin::TermLt, &[In, In]),
    ("@>", Builtin::TermGt, &[In, In]),
    ("@=<", Builtin::TermLe, &[In, In]),
    ("@>=", Builtin::TermGe, &[In, In]),
    ("is", Builtin::Is, &[Out, In]),
    ("<", Builtin::NumCompare(CmpOp::Lt), &[In, In]),
    (">", Builtin::NumCompare(CmpOp::Gt), &[In, In]),
    ("=<", Builtin::NumCompare(CmpOp::Le), &[In, In]),
    (">=", Builtin::NumCompare(CmpOp::Ge), &[In, In]),
    ("=:=", Builtin::NumCompare(CmpOp::Eq), &[In, In]),
    ("=\\=", Builtin::NumCompare(CmpOp::Ne), &[In, In]),
    ("var", Builtin::IsVar, &[In]),
    ("nonvar", Builtin::Nonvar, &[In]),
    ("atom", Builtin::IsAtom, &[In]),
    ("number", Builtin::IsNumber, &[In]),
    ("integer", Builtin::IsInteger, &[In]),
    ("float", Builtin::IsFloat, &[In]),
    ("atomic", Builtin::IsAtomic, &[In]),
    ("ground", Builtin::Ground, &[In]),
    ("is_list", Builtin::IsList, &[In]),
    ("functor", Builtin::Functor, &[In, Out, Out]),
    ("arg", Builtin::Arg, &[In, In, Out]),
    ("=..", Builtin::Univ, &[In, Out]),
    ("length", Builtin::Length, &[In, Out]),
    ("$grain_ge", Builtin::GrainGe, &[In, In, In]),
    ("write", Builtin::WriteLike, &[In]),
    ("print", Builtin::WriteLike, &[In]),
    ("write_canonical", Builtin::WriteLike, &[In]),
    ("tab", Builtin::WriteLike, &[In]),
    ("nl", Builtin::Nl, &[]),
];

/// One builtin predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The predicate's name.
    pub name: Symbol,
    /// What it does.
    pub id: Builtin,
    /// The mode of each argument position.
    pub modes: &'static [ArgMode],
}

impl Row {
    /// The predicate's arity.
    pub fn arity(&self) -> usize {
        self.modes.len()
    }

    /// The predicate's `name/arity` identifier.
    pub fn pred(&self) -> PredId {
        PredId::new(self.name, self.arity())
    }

    /// Whether the builtin is a pure test: every argument is an input, so a
    /// call binds nothing.
    pub fn is_test(&self) -> bool {
        self.modes.iter().all(|m| m.is_input())
    }
}

struct Table {
    rows: Vec<Row>,
    index: FastMap<PredId, usize>,
}

/// The table with its names interned, built once per process: afterwards
/// neither [`rows`] nor [`lookup`] takes the interner lock.
fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let intern = |&(name, id, modes)| Row {
            name: Symbol::intern(name),
            id,
            modes,
        };
        let rows: Vec<Row> = ROWS.iter().map(intern).collect();
        let key = |(i, row): (usize, &Row)| (row.pred(), i);
        let index = rows.iter().enumerate().map(key).collect();
        Table { rows, index }
    })
}

/// Every builtin predicate, in table order.
pub fn rows() -> &'static [Row] {
    &table().rows
}

/// The builtin `pred`, if there is one: a single hash probe on a `Copy` key.
///
/// # Example
///
/// ```
/// use granlog_ir::builtins::{lookup, Builtin};
/// use granlog_ir::{PredId, Symbol};
/// let is = |arity| PredId::new(Symbol::intern("is"), arity);
/// assert_eq!(lookup(is(2)).map(|row| row.id), Some(Builtin::Is));
/// assert!(lookup(is(3)).is_none());
/// assert!(lookup(PredId::new(Symbol::intern("append"), 3)).is_none());
/// ```
pub fn lookup(pred: PredId) -> Option<&'static Row> {
    let table = table();
    table.index.get(&pred).map(|&i| &table.rows[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_is_found_under_its_own_name_and_arity() {
        assert_eq!(rows().len(), ROWS.len());
        for row in rows() {
            assert_eq!(lookup(row.pred()), Some(row), "{}", row.pred());
        }
    }
}
