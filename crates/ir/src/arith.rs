//! The arithmetic functions, written once: a row per `(name, op)`, looked up
//! by [`lookup`], and the constants `pi` and `e`, by [`constant`]. The
//! engine's expression compiler and heap evaluator apply the op; the size
//! analysis bounds `is/2`'s output by it; an error names it by its first row
//! ([`ArithOp::name`]).

use crate::symbol::{FastMap, Symbol};
use std::sync::OnceLock;

/// A one-argument arithmetic function, named by its rows of the table
/// ([`lookup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Plus,
    Abs,
    Sign,
    Sqrt,
    Sin,
    Cos,
    Atan,
    Log,
    Exp,
    ToFloat,
    Integer,
    Truncate,
    Round,
    Floor,
    Ceiling,
}

/// A two-argument arithmetic function, named by its rows of the table
/// ([`lookup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    IntDiv,
    Mod,
    Rem,
    Min,
    Max,
    PowFloat,
    PowInt,
    Shr,
    Shl,
    BitAnd,
    BitOr,
}

/// An arithmetic function: what one row of the table names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// A one-argument function.
    Unary(UnOp),
    /// A two-argument function.
    Binary(BinOp),
}

use ArithOp::{Binary, Unary};

/// Every arithmetic function: its name and the op it applies. An op with
/// two names (`//` and `div`) is named by its first row.
const ROWS: &[(&str, ArithOp)] = &[
    ("+", Binary(BinOp::Add)),
    ("-", Binary(BinOp::Sub)),
    ("*", Binary(BinOp::Mul)),
    ("/", Binary(BinOp::Div)),
    ("//", Binary(BinOp::IntDiv)),
    ("div", Binary(BinOp::IntDiv)),
    ("mod", Binary(BinOp::Mod)),
    ("rem", Binary(BinOp::Rem)),
    ("-", Unary(UnOp::Neg)),
    ("+", Unary(UnOp::Plus)),
    ("abs", Unary(UnOp::Abs)),
    ("sign", Unary(UnOp::Sign)),
    ("min", Binary(BinOp::Min)),
    ("max", Binary(BinOp::Max)),
    ("**", Binary(BinOp::PowFloat)),
    ("^", Binary(BinOp::PowInt)),
    ("sqrt", Unary(UnOp::Sqrt)),
    ("sin", Unary(UnOp::Sin)),
    ("cos", Unary(UnOp::Cos)),
    ("atan", Unary(UnOp::Atan)),
    ("log", Unary(UnOp::Log)),
    ("exp", Unary(UnOp::Exp)),
    ("float", Unary(UnOp::ToFloat)),
    ("integer", Unary(UnOp::Integer)),
    ("truncate", Unary(UnOp::Truncate)),
    ("round", Unary(UnOp::Round)),
    ("floor", Unary(UnOp::Floor)),
    ("ceiling", Unary(UnOp::Ceiling)),
    (">>", Binary(BinOp::Shr)),
    ("<<", Binary(BinOp::Shl)),
    ("/\\", Binary(BinOp::BitAnd)),
    ("\\/", Binary(BinOp::BitOr)),
];

/// The arithmetic constants recognised in atom position.
const CONSTANTS: [(&str, f64); 2] = [("pi", std::f64::consts::PI), ("e", std::f64::consts::E)];

impl ArithOp {
    /// How many arguments the function takes.
    pub fn arity(self) -> usize {
        match self {
            Unary(_) => 1,
            Binary(_) => 2,
        }
    }

    /// The operator as error messages name it: the name of its first row.
    pub fn name(self) -> &'static str {
        let row = ROWS.iter().find(|&&(_, op)| op == self);
        row.expect("every op has a row").0
    }
}

struct Table {
    functions: FastMap<(Symbol, usize), ArithOp>,
    constants: [(Symbol, f64); 2],
}

/// The table with its names interned, built once per process: afterwards
/// neither [`lookup`] nor [`constant`] takes the interner lock.
fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| Table {
        functions: ROWS
            .iter()
            .map(|&(name, op)| ((Symbol::intern(name), op.arity()), op))
            .collect(),
        constants: CONSTANTS.map(|(name, value)| (Symbol::intern(name), value)),
    })
}

/// The arithmetic function called `name/arity`, if there is one: a single
/// hash probe on a `Copy` key.
///
/// # Example
///
/// ```
/// use granlog_ir::arith::{lookup, ArithOp, BinOp};
/// use granlog_ir::Symbol;
/// let div = Symbol::intern("div");
/// assert_eq!(lookup(div, 2), Some(ArithOp::Binary(BinOp::IntDiv)));
/// assert_eq!(lookup(div, 2).unwrap().name(), "//");
/// assert!(lookup(div, 1).is_none());
/// ```
pub fn lookup(name: Symbol, arity: usize) -> Option<ArithOp> {
    table().functions.get(&(name, arity)).copied()
}

/// The value of the arithmetic constant `name` (`pi`, `e`), if it is one.
pub fn constant(name: Symbol) -> Option<f64> {
    let constants = &table().constants;
    constants.iter().find(|(s, _)| *s == name).map(|&(_, x)| x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_is_found_under_its_own_name_and_arity() {
        for &(name, op) in ROWS {
            assert_eq!(lookup(Symbol::intern(name), op.arity()), Some(op), "{name}");
        }
        assert_eq!(constant(Symbol::intern("pi")), Some(std::f64::consts::PI));
        assert_eq!(constant(Symbol::intern("foo")), None);
    }
}
