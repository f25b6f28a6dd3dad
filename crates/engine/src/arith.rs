//! Arithmetic evaluation for `is/2` and the arithmetic comparison builtins.
//!
//! Expressions are evaluated either directly off arena heap cells (`eval`)
//! or off precompiled template cells (`eval_template`, both crate-private) —
//! the eager clause-activation path uses the latter to run arithmetic guards
//! and `is/2` without ever building the expression term.

use crate::error::{EngineError, EngineResult};
use crate::heap::HCell;
use crate::machine::Machine;
use crate::template::Cell;
use granlog_ir::{FastMap, Symbol};
use std::cmp::Ordering;
use std::sync::OnceLock;

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

    /// Numeric comparison (floats and integers compare by value).
    pub fn compare(self, other: Num) -> Ordering {
        match (self, other) {
            (Num::Int(a), Num::Int(b)) => a.cmp(&b),
            (a, b) => a
                .as_f64()
                .partial_cmp(&b.as_f64())
                .unwrap_or(Ordering::Equal),
        }
    }
}

fn err(msg: impl Into<String>) -> EngineError {
    EngineError::Arithmetic(msg.into())
}

/// The result of a checked `i64` operation: `None` is an overflow, which is
/// an error (ISO's `evaluation_error(int_overflow)`), never a wrapped value
/// and never a panic.
fn int(checked: Option<i64>, op: &str) -> EngineResult<Num> {
    checked
        .map(Num::Int)
        .ok_or_else(|| err(format!("integer overflow in {op}")))
}

/// `+`, `-`, `*`: checked on two integers, floating point otherwise.
fn int_or_float(
    a: Num,
    b: Num,
    op: &str,
    fi: impl Fn(i64, i64) -> Option<i64>,
    ff: impl Fn(f64, f64) -> f64,
) -> EngineResult<Num> {
    match (a, b) {
        (Num::Int(x), Num::Int(y)) => int(fi(x, y), op),
        _ => Ok(Num::Float(ff(a.as_f64(), b.as_f64()))),
    }
}

/// An arithmetic function identified by one `(functor, arity)` entry of the
/// dispatch table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    IntDiv,
    Mod,
    Rem,
    Neg,
    Plus,
    Abs,
    Sign,
    Min,
    Max,
    PowFloat,
    PowInt,
    Sqrt,
    Sin,
    Cos,
    Atan,
    Log,
    Exp,
    ToFloat,
    Truncate,
    Round,
    Floor,
    Ceiling,
    Shr,
    Shl,
    BitAnd,
    BitOr,
}

/// Arithmetic constants recognised in atom position.
struct ArithConsts {
    pi: Symbol,
    e: Symbol,
}

fn consts() -> &'static ArithConsts {
    static CONSTS: OnceLock<ArithConsts> = OnceLock::new();
    CONSTS.get_or_init(|| ArithConsts {
        pi: Symbol::intern("pi"),
        e: Symbol::intern("e"),
    })
}

fn eval_const(s: Symbol) -> EngineResult<Num> {
    let c = consts();
    if s == c.pi {
        Ok(Num::Float(std::f64::consts::PI))
    } else if s == c.e {
        Ok(Num::Float(std::f64::consts::E))
    } else {
        Err(err(format!("unknown arithmetic constant {s}")))
    }
}

/// The function dispatch table: interned `(functor, arity)` → operation,
/// built once per process so evaluating an expression node costs one hash
/// probe instead of a string match (and its interner lock).
fn table() -> &'static FastMap<(Symbol, usize), ArithOp> {
    static TABLE: OnceLock<FastMap<(Symbol, usize), ArithOp>> = OnceLock::new();
    TABLE.get_or_init(|| {
        use ArithOp::*;
        let entries: &[(&str, usize, ArithOp)] = &[
            ("+", 2, Add),
            ("-", 2, Sub),
            ("*", 2, Mul),
            ("/", 2, Div),
            ("//", 2, IntDiv),
            ("div", 2, IntDiv),
            ("mod", 2, Mod),
            ("rem", 2, Rem),
            ("-", 1, Neg),
            ("+", 1, Plus),
            ("abs", 1, Abs),
            ("sign", 1, Sign),
            ("min", 2, Min),
            ("max", 2, Max),
            ("**", 2, PowFloat),
            ("^", 2, PowInt),
            ("sqrt", 1, Sqrt),
            ("sin", 1, Sin),
            ("cos", 1, Cos),
            ("atan", 1, Atan),
            ("log", 1, Log),
            ("exp", 1, Exp),
            ("float", 1, ToFloat),
            ("integer", 1, Truncate),
            ("truncate", 1, Truncate),
            ("round", 1, Round),
            ("floor", 1, Floor),
            ("ceiling", 1, Ceiling),
            (">>", 2, Shr),
            ("<<", 2, Shl),
            ("/\\", 2, BitAnd),
            ("\\/", 2, BitOr),
        ];
        entries
            .iter()
            .map(|&(name, arity, op)| ((Symbol::intern(name), arity), op))
            .collect()
    })
}

/// Evaluates the arithmetic expression at a heap index.
///
/// # Errors
///
/// Returns [`EngineError::Arithmetic`] for unbound variables, non-numeric
/// operands, unknown functions, division by zero, or an integer result
/// that does not fit in 64 bits.
pub(crate) fn eval(machine: &Machine<'_>, idx: usize) -> EngineResult<Num> {
    let d = machine.deref_idx(idx);
    match machine.cell(d) {
        HCell::Int(i) => Ok(Num::Int(i)),
        HCell::Float(x) => Ok(Num::Float(x)),
        HCell::Ref(_) => Err(err("unbound variable in arithmetic expression")),
        HCell::Atom(s) => eval_const(s),
        HCell::Struct(name, arity, base) => {
            let Some(&op) = table().get(&(name, arity as usize)) else {
                return Err(err(format!("unknown arithmetic function {name}/{arity}")));
            };
            let a = eval(machine, base as usize)?;
            let b = if arity == 2 {
                Some(eval(machine, base as usize + 1)?)
            } else {
                None
            };
            apply_op(op, a, b)
        }
    }
}

/// Evaluates an arithmetic expression directly from precompiled template
/// cells (the subtree starting at `*pos`, clause-local variables offset by
/// `var_base`), advancing `*pos` past it. Semantically identical to writing
/// the subtree into the arena and calling [`eval`], but arena-free: the
/// eager-builtin fast path of clause activation uses this to run arithmetic
/// guards and `is/2` without ever building the expression term.
///
/// # Errors
///
/// Same as [`eval`].
pub(crate) fn eval_template(
    machine: &Machine<'_>,
    cells: &[Cell],
    pos: &mut usize,
    var_base: usize,
) -> EngineResult<Num> {
    let cell = cells[*pos];
    *pos += 1;
    match cell {
        Cell::Int(i) => Ok(Num::Int(i)),
        Cell::Float(x) => Ok(Num::Float(x)),
        Cell::Var(v) | Cell::VarFirst(v) => eval(machine, var_base + v as usize),
        Cell::Atom(s) => eval_const(s),
        Cell::Struct(name, arity) => {
            let Some(&op) = table().get(&(name, arity as usize)) else {
                return Err(err(format!("unknown arithmetic function {name}/{arity}")));
            };
            let a = eval_template(machine, cells, pos, var_base)?;
            let b = if arity == 2 {
                Some(eval_template(machine, cells, pos, var_base)?)
            } else {
                None
            };
            apply_op(op, a, b)
        }
    }
}

/// Applies an arithmetic operation to already-evaluated operands (`b` is
/// `None` for unary operations — the table keys operations by arity, so the
/// operand count always matches).
fn apply_op(op: ArithOp, a: Num, b: Option<Num>) -> EngineResult<Num> {
    match op {
        ArithOp::Add => {
            let b = b.expect("binary op");
            int_or_float(a, b, "+", i64::checked_add, |x, y| x + y)
        }
        ArithOp::Sub => {
            let b = b.expect("binary op");
            int_or_float(a, b, "-", i64::checked_sub, |x, y| x - y)
        }
        ArithOp::Mul => {
            let b = b.expect("binary op");
            int_or_float(a, b, "*", i64::checked_mul, |x, y| x * y)
        }
        ArithOp::Div => {
            let b = b.expect("binary op");
            if b.as_f64() == 0.0 {
                return Err(err("division by zero"));
            }
            match (a, b) {
                // An exact integer quotient stays an integer. `checked_rem`
                // is `None` only for `i64::MIN / -1`: exact, but too large.
                (Num::Int(x), Num::Int(y)) if matches!(x.checked_rem(y), None | Some(0)) => {
                    int(x.checked_div(y), "/")
                }
                _ => Ok(Num::Float(a.as_f64() / b.as_f64())),
            }
        }
        ArithOp::IntDiv => match (a, b.expect("binary op")) {
            (_, Num::Int(0)) => Err(err("division by zero")),
            (Num::Int(x), Num::Int(y)) => int(x.checked_div_euclid(y), "//"),
            _ => Err(err("// requires integer operands")),
        },
        ArithOp::Mod | ArithOp::Rem => match (a, b.expect("binary op")) {
            (_, Num::Int(0)) => Err(err("modulo by zero")),
            (Num::Int(x), Num::Int(y)) if op == ArithOp::Mod => int(x.checked_rem_euclid(y), "mod"),
            (Num::Int(x), Num::Int(y)) => int(x.checked_rem(y), "rem"),
            _ => Err(err("mod requires integer operands")),
        },
        ArithOp::Neg => match a {
            Num::Int(x) => int(x.checked_neg(), "-"),
            Num::Float(x) => Ok(Num::Float(-x)),
        },
        ArithOp::Plus => Ok(a),
        ArithOp::Abs => match a {
            Num::Int(x) => int(x.checked_abs(), "abs"),
            Num::Float(x) => Ok(Num::Float(x.abs())),
        },
        ArithOp::Sign => Ok(match a {
            Num::Int(x) => Num::Int(x.signum()),
            Num::Float(x) => Num::Float(x.signum()),
        }),
        ArithOp::Min => {
            let b = b.expect("binary op");
            Ok(if a.compare(b) == Ordering::Greater {
                b
            } else {
                a
            })
        }
        ArithOp::Max => {
            let b = b.expect("binary op");
            Ok(if a.compare(b) == Ordering::Less { b } else { a })
        }
        ArithOp::PowFloat | ArithOp::PowInt => {
            let b = b.expect("binary op");
            match (a, b) {
                (Num::Int(x), Num::Int(y)) if y >= 0 && op == ArithOp::PowInt => {
                    let y = u32::try_from(y).map_err(|_| err("exponent too large"))?;
                    int(x.checked_pow(y), "^")
                }
                _ => Ok(Num::Float(a.as_f64().powf(b.as_f64()))),
            }
        }
        ArithOp::Sqrt => Ok(Num::Float(a.as_f64().sqrt())),
        ArithOp::Sin => Ok(Num::Float(a.as_f64().sin())),
        ArithOp::Cos => Ok(Num::Float(a.as_f64().cos())),
        ArithOp::Atan => Ok(Num::Float(a.as_f64().atan())),
        ArithOp::Log => Ok(Num::Float(a.as_f64().ln())),
        ArithOp::Exp => Ok(Num::Float(a.as_f64().exp())),
        ArithOp::ToFloat => Ok(Num::Float(a.as_f64())),
        ArithOp::Truncate => Ok(Num::Int(a.as_f64().trunc() as i64)),
        ArithOp::Round => Ok(Num::Int(a.as_f64().round() as i64)),
        ArithOp::Floor => Ok(Num::Int(a.as_f64().floor() as i64)),
        ArithOp::Ceiling => Ok(Num::Int(a.as_f64().ceil() as i64)),
        ArithOp::Shr => match (a, b.expect("binary op")) {
            (Num::Int(x), Num::Int(y)) => Ok(Num::Int(x >> y.clamp(0, 63))),
            _ => Err(err(">> requires integers")),
        },
        ArithOp::Shl => match (a, b.expect("binary op")) {
            (Num::Int(x), Num::Int(y)) => Ok(Num::Int(x << y.clamp(0, 63))),
            _ => Err(err("<< requires integers")),
        },
        ArithOp::BitAnd => match (a, b.expect("binary op")) {
            (Num::Int(x), Num::Int(y)) => Ok(Num::Int(x & y)),
            _ => Err(err("/\\ requires integers")),
        },
        ArithOp::BitOr => match (a, b.expect("binary op")) {
            (Num::Int(x), Num::Int(y)) => Ok(Num::Int(x | y)),
            _ => Err(err("\\/ requires integers")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
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
        let idx = machine.write_term(&t);
        eval(&machine, idx)
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

    #[test]
    fn errors() {
        assert!(eval_src("1 / 0").is_err());
        assert!(eval_src("5 // 0").is_err());
        assert!(eval_src("X + 1").is_err());
        assert!(eval_src("foo(3)").is_err());
        assert!(eval_src("hello").is_err());
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
            match eval_src(&src.replace("MIN", MIN)) {
                Err(EngineError::Arithmetic(msg)) => {
                    assert!(msg.contains("integer overflow"), "{src}: {msg}")
                }
                other => panic!("{src} must overflow, got {other:?}"),
            }
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
    }

    #[test]
    fn comparison_ordering() {
        assert_eq!(Num::Int(3).compare(Num::Int(4)), Ordering::Less);
        assert_eq!(Num::Float(3.0).compare(Num::Int(3)), Ordering::Equal);
        assert_eq!(Num::Int(5).compare(Num::Float(4.5)), Ordering::Greater);
    }

    #[test]
    fn cell_round_trip() {
        assert_eq!(Num::Int(7).to_cell(), HCell::Int(7));
        assert_eq!(Num::Float(1.5).to_cell(), HCell::Float(1.5));
        assert_eq!(Num::Int(7).as_f64(), 7.0);
    }
}
