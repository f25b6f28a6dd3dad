//! Arithmetic evaluation for `is/2` and the arithmetic comparison builtins.
//! Which compound names which function, and which atoms are constants, is
//! [`granlog_ir::arith`]'s table; this module applies the functions.
//!
//! An expression is evaluated in one of two ways, which apply the same
//! operators (`apply1` / `apply2`) and report the same errors:
//!
//! * **compiled** — an expression written in a clause body is translated
//!   once, when the clause template is compiled (`compile`), to postfix
//!   `Instr` code with every operator already resolved. `run` reads the
//!   short code most bodies have — one leaf, or two leaves and one binary
//!   operator — straight from the activation's cells, with no operand
//!   array and no dispatch loop; longer code runs over a fixed operand
//!   array, reading variables from the same cells. Nothing is hashed,
//!   built or allocated per evaluation.
//! * **heap** — an expression that only exists at run time (`X = 1+2, Y is
//!   X`, a query goal, a metacall) is a term in the arena; `eval` walks it
//!   with an explicit work stack, so an expression of any depth evaluates on
//!   constant native stack. Compiled code falls to it for a variable that
//!   turns out to be bound to a compound or an atom (short code first
//!   falls back to the operand-array loop, which then calls it).
//!
//! Both carry a failure as an `ArithError` — a small `Copy` value — and
//! render it to [`EngineError::Arithmetic`] text once, where the evaluation
//! leaves this module.

use crate::error::{EngineError, EngineResult, TermLimit};
use crate::heap::{self, HCell};
use crate::machine::{Machine, MAX_WALK_CELLS};
use granlog_ir::arith::{self, ArithOp, BinOp, UnOp};
use granlog_ir::term::Cell;
use granlog_ir::Symbol;
use std::cmp::Ordering;
use std::fmt;

/// A Prolog number: integer or float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// An integer value.
    Int(i64),
    /// A floating-point value.
    Float(f64),
}

impl Num {
    /// The value as a float.
    pub fn as_f64(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Float(x) => x,
        }
    }

    /// Converts to a heap cell.
    pub(crate) fn to_cell(self) -> HCell {
        match self {
            Num::Int(i) => HCell::Int(i),
            Num::Float(x) => HCell::Float(x),
        }
    }

    /// Numeric comparison (floats and integers compare by value). `None`
    /// when a NaN makes the pair unordered — never `Equal`.
    pub fn compare(self, other: Num) -> Option<Ordering> {
        match (self, other) {
            (Num::Int(a), Num::Int(b)) => Some(a.cmp(&b)),
            (a, b) => a.as_f64().partial_cmp(&b.as_f64()),
        }
    }
}

/// Why an evaluation failed. `Copy` and three words, so the evaluators pass
/// it by value; the message is only formatted when the error leaves this
/// module as an [`EngineError::Arithmetic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArithError {
    /// An unbound variable in the expression.
    Unbound,
    /// An atom that is not an arithmetic constant.
    UnknownConstant(Symbol),
    /// A compound whose functor is not an arithmetic function.
    UnknownFunction(Symbol, u32),
    DivisionByZero,
    ModuloByZero,
    /// An integer result that does not fit in 64 bits (ISO's
    /// `evaluation_error(int_overflow)`): never a wrapped or saturated
    /// value, never a panic.
    Overflow(ArithOp),
    /// A result that is not a number: a float function outside its domain
    /// (`sqrt(-1)`, `log(-1)`, `-8 ** 0.5`).
    Undefined(ArithOp),
    /// A float operand where the function takes integers only.
    NotInteger(ArithOp),
    /// A negative shift count.
    NegativeShift(ArithOp),
    /// An integer exponent past `u32`.
    ExponentTooLarge,
    /// The heap evaluator stopped at its bound: the expression is cyclic or
    /// too large to walk. Leaves this module as [`EngineError::TermLimit`].
    Walk(TermLimit),
}

impl fmt::Display for ArithError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ArithError::Unbound => f.write_str("unbound variable in arithmetic expression"),
            ArithError::UnknownConstant(s) => write!(f, "unknown arithmetic constant {s}"),
            ArithError::UnknownFunction(name, arity) => {
                write!(f, "unknown arithmetic function {name}/{arity}")
            }
            ArithError::DivisionByZero => f.write_str("division by zero"),
            ArithError::ModuloByZero => f.write_str("modulo by zero"),
            ArithError::Overflow(op) => write!(f, "integer overflow in {}", op.name()),
            ArithError::Undefined(op) => write!(f, "undefined result in {}", op.name()),
            ArithError::NotInteger(ArithOp::Binary(BinOp::IntDiv)) => {
                f.write_str("// requires integer operands")
            }
            ArithError::NotInteger(ArithOp::Binary(BinOp::Mod | BinOp::Rem)) => {
                f.write_str("mod requires integer operands")
            }
            ArithError::NotInteger(op) => write!(f, "{} requires integers", op.name()),
            ArithError::NegativeShift(op) => {
                write!(f, "{} requires a non-negative shift", op.name())
            }
            ArithError::ExponentTooLarge => f.write_str("exponent too large"),
            ArithError::Walk(limit) => EngineError::TermLimit(limit).fmt(f),
        }
    }
}

impl From<ArithError> for EngineError {
    // Formatting is kept out of line, so the `?` of an evaluation's caller
    // costs its success path a compare and a jump.
    #[cold]
    #[inline(never)]
    fn from(e: ArithError) -> EngineError {
        match e {
            ArithError::Walk(limit) => EngineError::TermLimit(limit),
            e => EngineError::Arithmetic(e.to_string()),
        }
    }
}

type ArithResult = Result<Num, ArithError>;

// ----------------------------------------------------------------------
// Operator application
// ----------------------------------------------------------------------

/// The result of a checked `i64` operation; `None` is an overflow.
#[inline]
fn int(checked: Option<i64>, op: ArithOp) -> ArithResult {
    checked.map(Num::Int).ok_or(ArithError::Overflow(op))
}

/// The result of a float function (`sqrt`, `log`, `**`, ...): a NaN means it
/// was applied outside its domain. The four basic operators keep IEEE
/// semantics instead — an overflowed product is an infinity, and `inf - inf`
/// the one NaN an expression can still produce.
#[inline]
fn float(x: f64, op: ArithOp) -> ArithResult {
    if x.is_nan() {
        Err(ArithError::Undefined(op))
    } else {
        Ok(Num::Float(x))
    }
}

/// A float rounded to an integral value, as an integer — if it is one.
#[inline]
fn float_to_int(x: f64, op: ArithOp) -> ArithResult {
    // Both bounds are exact in `f64`; `i64::MAX as f64` would round up to
    // 2^63 and let it through to a saturating cast.
    const LOW: f64 = -9_223_372_036_854_775_808.0;
    const HIGH: f64 = 9_223_372_036_854_775_808.0;
    if x.is_nan() {
        Err(ArithError::Undefined(op))
    } else if (LOW..HIGH).contains(&x) {
        Ok(Num::Int(x as i64))
    } else {
        Err(ArithError::Overflow(op))
    }
}

/// Applies a one-argument function to an evaluated operand.
#[inline]
fn apply1(op: UnOp, a: Num) -> ArithResult {
    let f = ArithOp::Unary(op);
    let x = match (op, a) {
        (UnOp::Neg, Num::Int(x)) => return int(x.checked_neg(), f),
        (UnOp::Neg, Num::Float(x)) => return Ok(Num::Float(-x)),
        (UnOp::Plus, _) => return Ok(a),
        (UnOp::Abs, Num::Int(x)) => return int(x.checked_abs(), f),
        (UnOp::Abs, Num::Float(x)) => return Ok(Num::Float(x.abs())),
        (UnOp::Sign, Num::Int(x)) => return Ok(Num::Int(x.signum())),
        (UnOp::Sign, Num::Float(x)) => return Ok(Num::Float(x.signum())),
        (UnOp::Sqrt, _) => a.as_f64().sqrt(),
        (UnOp::Sin, _) => a.as_f64().sin(),
        (UnOp::Cos, _) => a.as_f64().cos(),
        (UnOp::Atan, _) => a.as_f64().atan(),
        (UnOp::Log, _) => a.as_f64().ln(),
        (UnOp::Exp, _) => a.as_f64().exp(),
        (UnOp::ToFloat, _) => return Ok(Num::Float(a.as_f64())),
        // An integer is already integral; routing it through `f64` would
        // lose its low bits above 2^53.
        (
            UnOp::Integer | UnOp::Truncate | UnOp::Round | UnOp::Floor | UnOp::Ceiling,
            Num::Int(_),
        ) => return Ok(a),
        (UnOp::Integer | UnOp::Truncate, Num::Float(x)) => return float_to_int(x.trunc(), f),
        (UnOp::Round, Num::Float(x)) => return float_to_int(x.round(), f),
        (UnOp::Floor, Num::Float(x)) => return float_to_int(x.floor(), f),
        (UnOp::Ceiling, Num::Float(x)) => return float_to_int(x.ceil(), f),
    };
    float(x, f)
}

/// Applies a two-argument function to evaluated operands. Inlined at each
/// of its sites in [`run`] and [`run_loop`]: called out of line, its
/// 24-byte result would go through memory on every operator applied.
#[inline(always)]
fn apply2(op: BinOp, a: Num, b: Num) -> ArithResult {
    let f = ArithOp::Binary(op);
    match op {
        BinOp::Add => match (a, b) {
            (Num::Int(x), Num::Int(y)) => int(x.checked_add(y), f),
            _ => Ok(Num::Float(a.as_f64() + b.as_f64())),
        },
        BinOp::Sub => match (a, b) {
            (Num::Int(x), Num::Int(y)) => int(x.checked_sub(y), f),
            _ => Ok(Num::Float(a.as_f64() - b.as_f64())),
        },
        BinOp::Mul => match (a, b) {
            (Num::Int(x), Num::Int(y)) => int(x.checked_mul(y), f),
            _ => Ok(Num::Float(a.as_f64() * b.as_f64())),
        },
        BinOp::Div => {
            if b.as_f64() == 0.0 {
                return Err(ArithError::DivisionByZero);
            }
            match (a, b) {
                // An exact integer quotient stays an integer. `checked_rem`
                // is `None` only for `i64::MIN / -1`: exact, but too large.
                (Num::Int(x), Num::Int(y)) if matches!(x.checked_rem(y), None | Some(0)) => {
                    int(x.checked_div(y), f)
                }
                _ => Ok(Num::Float(a.as_f64() / b.as_f64())),
            }
        }
        BinOp::IntDiv => match (a, b) {
            (_, Num::Int(0)) => Err(ArithError::DivisionByZero),
            (Num::Int(x), Num::Int(y)) => int(x.checked_div_euclid(y), f),
            _ => Err(ArithError::NotInteger(f)),
        },
        BinOp::Mod | BinOp::Rem => match (a, b) {
            (_, Num::Int(0)) => Err(ArithError::ModuloByZero),
            (Num::Int(x), Num::Int(y)) if op == BinOp::Mod => int(x.checked_rem_euclid(y), f),
            (Num::Int(x), Num::Int(y)) => int(x.checked_rem(y), f),
            _ => Err(ArithError::NotInteger(f)),
        },
        BinOp::Min => Ok(if a.compare(b) == Some(Ordering::Greater) {
            b
        } else {
            a
        }),
        BinOp::Max => Ok(if a.compare(b) == Some(Ordering::Less) {
            b
        } else {
            a
        }),
        BinOp::PowFloat | BinOp::PowInt => match (a, b) {
            (Num::Int(x), Num::Int(y)) if y >= 0 && op == BinOp::PowInt => {
                let y = u32::try_from(y).map_err(|_| ArithError::ExponentTooLarge)?;
                int(x.checked_pow(y), f)
            }
            _ => float(a.as_f64().powf(b.as_f64()), f),
        },
        BinOp::Shr | BinOp::Shl => match (a, b) {
            (Num::Int(_), Num::Int(y)) if y < 0 => Err(ArithError::NegativeShift(f)),
            // An arithmetic shift right by 64 or more is one by 63.
            (Num::Int(x), Num::Int(y)) if op == BinOp::Shr => Ok(Num::Int(x >> y.min(63))),
            (Num::Int(0), Num::Int(_)) => Ok(a),
            // In range exactly when shifting back recovers the operand.
            (Num::Int(x), Num::Int(y)) => int(
                Some(x << (y & 63)).filter(|shifted| y < 64 && shifted >> y == x),
                f,
            ),
            _ => Err(ArithError::NotInteger(f)),
        },
        BinOp::BitAnd => match (a, b) {
            (Num::Int(x), Num::Int(y)) => Ok(Num::Int(x & y)),
            _ => Err(ArithError::NotInteger(f)),
        },
        BinOp::BitOr => match (a, b) {
            (Num::Int(x), Num::Int(y)) => Ok(Num::Int(x | y)),
            _ => Err(ArithError::NotInteger(f)),
        },
    }
}

// ----------------------------------------------------------------------
// Compiled expressions
// ----------------------------------------------------------------------

/// One instruction of a compiled expression, in postfix order: operands
/// push, operators pop their arguments and push the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Instr {
    /// An integer literal.
    Int(i64),
    /// A float literal (`pi` and `e` are folded to one).
    Float(f64),
    /// A clause variable, read at `var_base + v` when the code runs.
    Var(u32),
    Op1(UnOp),
    Op2(BinOp),
    /// Fails with this error when reached: an unknown function or constant,
    /// placed where a walk of the expression term would have met it — at the
    /// node's *pre-order* position, before the code of its arguments. So
    /// `foo(1/0)` reports the unknown function and `1/0 + foo(1)` the
    /// division, as the heap evaluator does.
    Trap(ArithError),
}

/// The operand-array size of [`run`]. [`compile`] refuses an expression
/// that would need more, which leaves it to the heap evaluator.
pub(crate) const MAX_OPERANDS: usize = 8;

/// Compiles the expression subtree of `cells` at `pos` to postfix code
/// appended to `out`, in one pass over the preorder cells. Returns `false`,
/// with `out` as it was, if the expression needs more than [`MAX_OPERANDS`]
/// operand slots.
///
/// Nothing after a trap can run, so the code of an expression with an
/// unknown function or constant ends at the trap.
pub(crate) fn compile(cells: &[Cell], pos: usize, out: &mut Vec<Instr>) -> bool {
    let start = out.len();
    // Operators whose arguments are still being emitted, innermost last,
    // each with its count of arguments to go.
    let mut pending: Vec<(Instr, u32)> = Vec::new();
    let mut operands = 0usize;
    let mut pos = pos;
    loop {
        let cell = cells[pos];
        pos += 1;
        let leaf = match cell {
            Cell::Int(i) => Instr::Int(i),
            Cell::Float(x) => Instr::Float(x.0),
            Cell::Var(v) => Instr::Var(v as u32),
            Cell::Atom(s) => {
                arith::constant(s).map_or(Instr::Trap(ArithError::UnknownConstant(s)), Instr::Float)
            }
            // One probe of the table per node, here at template-compile time.
            Cell::Struct(name, arity, _) => match arith::lookup(name, arity as usize) {
                Some(ArithOp::Unary(op)) => {
                    pending.push((Instr::Op1(op), 1));
                    continue;
                }
                Some(ArithOp::Binary(op)) => {
                    pending.push((Instr::Op2(op), 2));
                    continue;
                }
                None => Instr::Trap(ArithError::UnknownFunction(name, arity)),
            },
        };
        out.push(leaf);
        if matches!(leaf, Instr::Trap(_)) {
            return true;
        }
        operands += 1;
        if operands > MAX_OPERANDS {
            out.truncate(start);
            return false;
        }
        // The operand just emitted may complete any number of operators.
        loop {
            let Some((op, left)) = pending.last_mut() else {
                return true;
            };
            *left -= 1;
            if *left > 0 {
                break;
            }
            if matches!(op, Instr::Op2(_)) {
                operands -= 1;
            }
            out.push(*op);
            pending.pop();
        }
    }
}

/// Runs compiled code against the activation whose variable block starts at
/// `var_base`.
///
/// The two shapes most bodies are made of — one leaf (`N1 is N`, `N > 0`)
/// and two leaves under one binary operator (`N1 is N - 1`, `X =< P`) — are
/// read straight from the activation when every leaf is a number. Any other
/// code, and a leaf that is not a number, runs the operand-array loop from
/// the start, so both give the same value and the same error.
///
/// # Errors
///
/// An [`ArithError`] for an unbound variable, a non-numeric operand, an
/// unknown function, division by zero, or a result that is undefined or
/// does not fit in 64 bits.
#[inline(always)]
pub(crate) fn run(
    heap: &[HCell],
    scratch: &mut Scratch,
    code: &[Instr],
    var_base: usize,
) -> ArithResult {
    match *code {
        [leaf] => {
            if let Some(a) = number(heap, leaf, var_base) {
                return Ok(a);
            }
        }
        [left, right, Instr::Op2(op)] => {
            if let (Some(a), Some(b)) =
                (number(heap, left, var_base), number(heap, right, var_base))
            {
                return apply2(op, a, b);
            }
        }
        _ => {}
    }
    run_loop(heap, scratch, code, var_base)
}

/// The number a leaf instruction stands for: a literal, or a clause variable
/// bound to a number. `None` for anything else, which [`run_loop`] handles.
#[inline(always)]
fn number(heap: &[HCell], instr: Instr, var_base: usize) -> Option<Num> {
    match instr {
        Instr::Int(i) => Some(Num::Int(i)),
        Instr::Float(x) => Some(Num::Float(x)),
        Instr::Var(v) => match heap[heap::deref(heap, var_base + v as usize)] {
            HCell::Int(i) => Some(Num::Int(i)),
            HCell::Float(x) => Some(Num::Float(x)),
            _ => None,
        },
        _ => None,
    }
}

/// [`run`] for code of any shape: postfix evaluation over a fixed operand
/// array. Kept out of line so that `run`, inlined into the machine's
/// arithmetic steps, is only the short path and this call.
#[inline(never)]
fn run_loop(heap: &[HCell], scratch: &mut Scratch, code: &[Instr], var_base: usize) -> ArithResult {
    // `compile` bounds the operand count, so the masks below never wrap:
    // they only let the compiler drop the bounds checks.
    const MASK: usize = MAX_OPERANDS - 1;
    const _: () = assert!(MAX_OPERANDS.is_power_of_two());
    let mut operands = [Num::Int(0); MAX_OPERANDS];
    let mut top = 0usize;
    for instr in code {
        match *instr {
            Instr::Int(i) => {
                operands[top & MASK] = Num::Int(i);
                top += 1;
            }
            Instr::Float(x) => {
                operands[top & MASK] = Num::Float(x);
                top += 1;
            }
            Instr::Var(v) => {
                let idx = heap::deref(heap, var_base + v as usize);
                operands[top & MASK] = match heap[idx] {
                    HCell::Int(i) => Num::Int(i),
                    HCell::Float(x) => Num::Float(x),
                    _ => eval_heap(heap, scratch, idx)?,
                };
                top += 1;
            }
            Instr::Op1(op) => {
                let a = top.wrapping_sub(1) & MASK;
                operands[a] = apply1(op, operands[a])?;
            }
            Instr::Op2(op) => {
                top -= 1;
                let a = top.wrapping_sub(1) & MASK;
                operands[a] = apply2(op, operands[a], operands[top & MASK])?;
            }
            Instr::Trap(e) => return Err(e),
        }
    }
    Ok(operands[0])
}

// ----------------------------------------------------------------------
// Run-time expressions
// ----------------------------------------------------------------------

/// One entry of the heap evaluator's work stack.
#[derive(Debug, Clone, Copy)]
enum Work {
    /// Evaluate the term at this heap index.
    Eval(u32),
    Apply1(UnOp),
    Apply2(BinOp),
}

/// The heap evaluator's work and value stacks, owned by the machine so that
/// an evaluation allocates nothing once they are warm.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    work: Vec<Work>,
    values: Vec<Num>,
}

/// Evaluates the expression term at heap index `idx` in postorder off an
/// explicit work stack: native stack use does not depend on the term.
///
/// Both stacks and the running time are bounded. The work stack holds at
/// most two entries per ancestor of the subterm in hand, and an acyclic
/// term has no more ancestors than the arena has cells, so a longer stack
/// means a cycle (`X = X + 1`). A shared subterm is evaluated once per
/// occurrence, so past [`MAX_WALK_CELLS`] compound subterms the walk stops
/// too.
fn eval_heap(heap: &[HCell], scratch: &mut Scratch, idx: usize) -> ArithResult {
    let Scratch { work, values } = scratch;
    work.clear();
    values.clear();
    work.push(Work::Eval(idx as u32));
    let mut visits = 0usize;
    while let Some(item) = work.pop() {
        let value = match item {
            Work::Eval(idx) => match heap[heap::deref(heap, idx as usize)] {
                HCell::Int(i) => Num::Int(i),
                HCell::Float(x) => Num::Float(x),
                HCell::Ref(_) => return Err(ArithError::Unbound),
                HCell::Atom(s) => {
                    Num::Float(arith::constant(s).ok_or(ArithError::UnknownConstant(s))?)
                }
                HCell::Struct(name, arity, base) => {
                    visits += 1;
                    if work.len() > 2 * heap.len() {
                        return Err(ArithError::Walk(TermLimit::Cyclic));
                    }
                    if visits > MAX_WALK_CELLS {
                        return Err(ArithError::Walk(TermLimit::Eval));
                    }
                    // Pushed in reverse: the first argument is evaluated
                    // first, the operator applied last.
                    let op = arith::lookup(name, arity as usize);
                    match op.ok_or(ArithError::UnknownFunction(name, arity))? {
                        ArithOp::Unary(op) => work.push(Work::Apply1(op)),
                        ArithOp::Binary(op) => {
                            work.push(Work::Apply2(op));
                            work.push(Work::Eval(base + 1));
                        }
                    }
                    work.push(Work::Eval(base));
                    continue;
                }
            },
            Work::Apply1(op) => {
                let a = values.pop().expect("an operand per argument");
                apply1(op, a)?
            }
            Work::Apply2(op) => {
                let b = values.pop().expect("an operand per argument");
                let a = values.pop().expect("an operand per argument");
                apply2(op, a, b)?
            }
        };
        values.push(value);
    }
    Ok(values.pop().expect("the expression's value"))
}

/// Evaluates the arithmetic expression at a heap index.
///
/// # Errors
///
/// Returns [`EngineError::Arithmetic`] for unbound variables, non-numeric
/// operands, unknown functions, division by zero, or a result that is
/// undefined or does not fit in 64 bits.
pub(crate) fn eval(machine: &mut Machine, idx: usize) -> EngineResult<Num> {
    Ok(eval_heap(&machine.heap, &mut machine.arith, idx)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use granlog_ir::builtins::CmpOp;
    use granlog_ir::parser::{parse_program, parse_term};
    use granlog_ir::Program;

    fn empty_program() -> Program {
        parse_program("dummy.").unwrap()
    }

    fn eval_src(src: &str) -> EngineResult<Num> {
        let program = empty_program();
        let mut machine = Machine::new(&program);
        let (t, _) = parse_term(src).unwrap();
        // No variables are bound in these tests: the term is loaded into the
        // arena and evaluated in place.
        let idx = crate::machine::tests::write_term(&mut machine, &t);
        eval(&mut machine, idx)
    }

    #[test]
    fn basic_operations() {
        assert_eq!(eval_src("1 + 2 * 3").unwrap(), Num::Int(7));
        assert_eq!(eval_src("10 - 4 - 3").unwrap(), Num::Int(3));
        assert_eq!(eval_src("7 // 2").unwrap(), Num::Int(3));
        assert_eq!(eval_src("7 mod 2").unwrap(), Num::Int(1));
        assert_eq!(eval_src("-3 + 1").unwrap(), Num::Int(-2));
        assert_eq!(eval_src("6 / 3").unwrap(), Num::Int(2));
        assert_eq!(eval_src("7 / 2").unwrap(), Num::Float(3.5));
    }

    #[test]
    fn float_operations() {
        assert_eq!(eval_src("1.5 + 2.5").unwrap(), Num::Float(4.0));
        assert_eq!(eval_src("2 * 1.5").unwrap(), Num::Float(3.0));
        match eval_src("sqrt(2.0)").unwrap() {
            Num::Float(x) => assert!((x - std::f64::consts::SQRT_2).abs() < 1e-12),
            other => panic!("expected float, got {other:?}"),
        }
        match eval_src("cos(0)").unwrap() {
            Num::Float(x) => assert!((x - 1.0).abs() < 1e-12),
            other => panic!("expected float, got {other:?}"),
        }
        assert_eq!(eval_src("truncate(3.9)").unwrap(), Num::Int(3));
        assert_eq!(eval_src("round(3.5)").unwrap(), Num::Int(4));
        assert_eq!(eval_src("floor(-3.5)").unwrap(), Num::Int(-4));
        assert_eq!(eval_src("ceiling(3.2)").unwrap(), Num::Int(4));
        // An integer operand is already integral: no trip through `f64`.
        assert_eq!(
            eval_src("truncate(9007199254740993)").unwrap(),
            Num::Int(9_007_199_254_740_993)
        );
        assert_eq!(
            eval_src("round(9223372036854775807)").unwrap(),
            Num::Int(i64::MAX)
        );
    }

    #[test]
    fn constants_and_powers() {
        match eval_src("pi").unwrap() {
            Num::Float(x) => assert!((x - std::f64::consts::PI).abs() < 1e-12),
            other => panic!("expected float, got {other:?}"),
        }
        assert_eq!(eval_src("2 ^ 10").unwrap(), Num::Int(1024));
        assert_eq!(eval_src("abs(-4)").unwrap(), Num::Int(4));
        assert_eq!(eval_src("min(3, 5)").unwrap(), Num::Int(3));
        assert_eq!(eval_src("max(3, 5)").unwrap(), Num::Int(5));
        assert_eq!(eval_src("4 << 2").unwrap(), Num::Int(16));
        assert_eq!(eval_src("16 >> 3").unwrap(), Num::Int(2));
    }

    fn error_text(src: &str) -> String {
        match eval_src(src) {
            Err(EngineError::Arithmetic(msg)) => msg,
            other => panic!("{src} must be an arithmetic error, got {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert_eq!(error_text("1 / 0"), "division by zero");
        assert_eq!(error_text("5 // 0"), "division by zero");
        assert_eq!(error_text("5 mod 0"), "modulo by zero");
        assert_eq!(
            error_text("X + 1"),
            "unbound variable in arithmetic expression"
        );
        assert_eq!(error_text("foo(3)"), "unknown arithmetic function foo/1");
        assert_eq!(error_text("hello"), "unknown arithmetic constant hello");
        assert_eq!(error_text("1.5 // 2"), "// requires integer operands");
        assert_eq!(error_text("1.5 rem 2"), "mod requires integer operands");
        assert_eq!(error_text("1.5 /\\ 2"), "/\\ requires integers");
        // An unknown function is met before its arguments are evaluated; a
        // known one after.
        assert_eq!(
            error_text("foo(1 / 0)"),
            "unknown arithmetic function foo/1"
        );
        assert_eq!(error_text("1 / 0 + foo(1)"), "division by zero");
        // An integer result that does not fit is an error: never a wrapped
        // value, never a panic.
        const MIN: &str = "(-9223372036854775807 - 1)";
        for src in [
            "9223372036854775807 + 1",
            "-9223372036854775807 - 2",
            "4611686018427387904 * 2",
            "MIN // -1",
            "MIN / -1",
            "MIN mod -1",
            "MIN rem -1",
            "-MIN",
            "abs(MIN)",
            "2 ^ 63",
        ] {
            let msg = error_text(&src.replace("MIN", MIN));
            assert!(msg.contains("integer overflow"), "{src}: {msg}");
        }
        // The extremes themselves are representable.
        assert_eq!(eval_src(MIN).unwrap(), Num::Int(i64::MIN));
        assert_eq!(
            eval_src("9223372036854775806 + 1").unwrap(),
            Num::Int(i64::MAX)
        );
        assert_eq!(eval_src("2 ^ 62").unwrap(), Num::Int(1 << 62));
        assert_eq!(
            eval_src(&format!("{MIN} // 1")).unwrap(),
            Num::Int(i64::MIN)
        );
        // A float too large for an integer used to saturate, and a NaN to
        // become 0.
        assert_eq!(
            error_text("truncate(1.0e300)"),
            "integer overflow in truncate"
        );
        assert_eq!(
            error_text("integer(-1.0e300)"),
            "integer overflow in integer"
        );
        assert_eq!(
            error_text("round(9223372036854775808.0)"),
            "integer overflow in round"
        );
        assert_eq!(
            eval_src("truncate(-9223372036854775808.0)").unwrap(),
            Num::Int(i64::MIN)
        );
        assert_eq!(error_text("integer(log(-1))"), "undefined result in log");
        // A shift used to clamp its count to 0..=63.
        assert_eq!(error_text("1 << 64"), "integer overflow in <<");
        assert_eq!(error_text("1 << 63"), "integer overflow in <<");
        assert_eq!(error_text("3 << 62"), "integer overflow in <<");
        assert_eq!(error_text("1 << -1"), "<< requires a non-negative shift");
        assert_eq!(error_text("1 >> -1"), ">> requires a non-negative shift");
        assert_eq!(error_text("1.0 << 2"), "<< requires integers");
        assert_eq!(eval_src("1 << 62").unwrap(), Num::Int(1 << 62));
        assert_eq!(eval_src("-1 << 63").unwrap(), Num::Int(i64::MIN));
        assert_eq!(eval_src("0 << 100").unwrap(), Num::Int(0));
        assert_eq!(eval_src("7 >> 100").unwrap(), Num::Int(0));
        assert_eq!(eval_src("-8 >> 100").unwrap(), Num::Int(-1));
        // A float function outside its domain used to hand on a NaN, which
        // then compared equal to everything.
        assert_eq!(error_text("sqrt(-1)"), "undefined result in sqrt");
        assert_eq!(error_text("log(-1)"), "undefined result in log");
        assert_eq!(error_text("-8 ** 0.5"), "undefined result in **");
        assert_eq!(error_text("sin(1.0e308 * 10)"), "undefined result in sin");
    }

    #[test]
    fn comparison_ordering() {
        assert_eq!(Num::Int(3).compare(Num::Int(4)), Some(Ordering::Less));
        assert_eq!(Num::Float(3.0).compare(Num::Int(3)), Some(Ordering::Equal));
        assert_eq!(
            Num::Int(5).compare(Num::Float(4.5)),
            Some(Ordering::Greater)
        );
        // No evaluation yields a NaN, but one that arrived would be
        // unordered: equal to nothing, not even itself.
        let nan = Num::Float(f64::NAN);
        assert_eq!(nan.compare(Num::Int(5)), None);
        for op in [CmpOp::Lt, CmpOp::Gt, CmpOp::Le, CmpOp::Ge, CmpOp::Eq] {
            assert!(!op.holds(nan.compare(Num::Int(5))), "{op:?}");
            assert!(!op.holds(nan.compare(nan)), "{op:?}");
        }
        assert!(CmpOp::Ne.holds(nan.compare(Num::Int(5))));
        assert!(CmpOp::Le.holds(Num::Int(5).compare(Num::Float(5.0))));
        assert!(CmpOp::Gt.holds(Num::Float(5.5).compare(Num::Int(5))));
    }

    #[test]
    fn cell_round_trip() {
        assert_eq!(Num::Int(7).to_cell(), HCell::Int(7));
        assert_eq!(Num::Float(1.5).to_cell(), HCell::Float(1.5));
        assert_eq!(Num::Int(7).as_f64(), 7.0);
    }

    #[test]
    fn instructions_and_errors_stay_small() {
        // Code is an array of these and every operator application returns
        // a `Result` of the other two.
        assert!(std::mem::size_of::<Instr>() <= 16);
        assert!(std::mem::size_of::<ArithError>() <= 12);
        assert!(std::mem::size_of::<ArithResult>() <= 24);
    }

    /// Compiles `src` as a clause-body expression and runs it with no
    /// variable bound.
    fn run_src(src: &str) -> Option<ArithResult> {
        let program = parse_program(&format!("p :- q({src}).")).unwrap();
        let templates = crate::template::compile_program(&program);
        let cells = templates[0].layout().cells();
        let arg = cells
            .iter()
            .position(|c| matches!(c, Cell::Struct(_, 1, _)))
            .expect("q/1")
            + 1;
        let mut code = Vec::new();
        if !compile(cells, arg, &mut code) {
            assert!(code.is_empty());
            return None;
        }
        let mut machine = Machine::new(&program);
        let var_base = machine.fresh_vars(templates[0].num_vars());
        Some(run(&machine.heap, &mut machine.arith, &code, var_base))
    }

    #[test]
    fn compiled_code_is_postfix_with_traps_in_preorder() {
        assert_eq!(run_src("1 + 2 * 3"), Some(Ok(Num::Int(7))));
        assert_eq!(run_src("- (3 - 5)"), Some(Ok(Num::Int(2))));
        assert_eq!(
            run_src("2 * pi"),
            Some(Ok(Num::Float(std::f64::consts::TAU)))
        );
        assert_eq!(run_src("X + 1"), Some(Err(ArithError::Unbound)));
        assert_eq!(
            run_src("1 / 0 + foo(1)"),
            Some(Err(ArithError::DivisionByZero))
        );
        let foo = Symbol::intern("foo");
        assert_eq!(
            run_src("foo(1 / 0)"),
            Some(Err(ArithError::UnknownFunction(foo, 1)))
        );
        assert_eq!(
            run_src("1 + foo"),
            Some(Err(ArithError::UnknownConstant(foo)))
        );
    }

    #[test]
    fn an_expression_past_the_operand_array_is_not_compiled() {
        // Left-nested: two operands however long the chain.
        let chain = (0..100).fold("0".to_owned(), |e, k| format!("({e} + {k})"));
        assert_eq!(run_src(&chain), Some(Ok(Num::Int(4950))));
        // Right-nested: one more operand per level.
        let nest = |depth: usize| (1..depth).fold("1".to_owned(), |e, _| format!("(1 + {e})"));
        assert_eq!(
            run_src(&nest(MAX_OPERANDS)),
            Some(Ok(Num::Int(MAX_OPERANDS as i64)))
        );
        assert_eq!(run_src(&nest(MAX_OPERANDS + 1)), None);
    }
}
