//! Builtin predicates.
//!
//! All builtins are deterministic (at most one solution). Which goals are
//! builtins is [`granlog_ir::builtins`]' table; the machine folds its rows
//! into the per-program call-target map at load time and invokes `dispatch`
//! with the row's [`Builtin`] id, matched exhaustively; goals absent from
//! the table fall back to user-clause resolution. Builtins operate on arena
//! heap cells throughout ([`crate::heap::HCell`]): the structural-comparison
//! family (`==`, `\==`, the `@<` relations and `\=`) walks cells directly
//! under the standard order of terms — no boundary [`granlog_ir::Term`] is
//! ever materialized on these paths.
//!
//! # Standard order of terms
//!
//! `compare_cells` implements the usual total order:
//! **Var < Number < Atom < Compound**, with
//!
//! * variables ordered by their representative heap cell (creation order);
//! * numbers compared by value across `Int`/`Float`, a numerically-equal
//!   pair ordering the float first (floats themselves compare by
//!   [`f64::total_cmp`], so `-0.0 < 0.0` and `NaN` sorts deterministically);
//! * atoms ordered alphabetically;
//! * compound terms by arity, then functor name alphabetically, then
//!   arguments left to right.
//!
//! `\=` runs the machine's unifier *uncounted* over cells and undoes its
//! trail entries, so it is allocation-free and leaves no bindings — with
//! operation counters identical to the seed's resolve-and-mgu
//! implementation. Comparison and `ground/1` are loops over the same pair
//! walker as unification.

use crate::arith::eval;
use crate::error::{EngineError, EngineResult, TermLimit};
use crate::heap::HCell;
use crate::machine::{Charge, Machine, Pair};
use granlog_ir::builtins::Builtin;
use granlog_ir::Measure;
use std::cmp::Ordering;

/// Executes an already-identified builtin (the machine resolves the goal to a
/// [`Builtin`] through its per-program call-target map). The goal cell's
/// argument block indexes the arena directly.
///
/// # Errors
///
/// Propagates arithmetic and type errors from the individual builtins.
pub(crate) fn dispatch(machine: &mut Machine, builtin: Builtin, goal: HCell) -> EngineResult<bool> {
    let args = match goal {
        HCell::Struct(_, _, base) => base as usize,
        _ => 0,
    };
    let result = match builtin {
        Builtin::Unify => {
            machine.charge_builtin();
            machine.unify(args, args + 1, Charge::Counted)?
        }
        Builtin::NotUnifiable => {
            machine.charge_builtin();
            // Probe-and-undo directly over cells: bind through the trail,
            // then rewind to the mark. No materialization, no allocation.
            let mark = machine.trail_mark();
            let unifiable = machine.unify(args, args + 1, Charge::Uncounted);
            machine.undo_trail(mark);
            !unifiable?
        }
        Builtin::StructEq => {
            machine.charge_builtin();
            compare_cells(machine, args, args + 1)? == Ordering::Equal
        }
        Builtin::StructNe => {
            machine.charge_builtin();
            compare_cells(machine, args, args + 1)? != Ordering::Equal
        }
        Builtin::TermLt | Builtin::TermGt | Builtin::TermLe | Builtin::TermGe => {
            machine.charge_builtin();
            let ord = compare_cells(machine, args, args + 1)?;
            match builtin {
                Builtin::TermLt => ord == Ordering::Less,
                Builtin::TermGt => ord == Ordering::Greater,
                Builtin::TermLe => ord != Ordering::Greater,
                _ => ord != Ordering::Less,
            }
        }
        Builtin::Is => {
            machine.charge_builtin();
            let value = eval(machine, args + 1)?;
            machine.unify_cell(args, value.to_cell())?
        }
        Builtin::NumCompare(op) => {
            machine.charge_builtin();
            let a = eval(machine, args)?;
            let b = eval(machine, args + 1)?;
            op.holds(a.compare(b))
        }
        Builtin::IsVar => {
            machine.charge_builtin();
            matches!(machine.deref_arg(args, 0), HCell::Ref(_))
        }
        Builtin::Nonvar => {
            machine.charge_builtin();
            !matches!(machine.deref_arg(args, 0), HCell::Ref(_))
        }
        Builtin::IsAtom => {
            machine.charge_builtin();
            matches!(machine.deref_arg(args, 0), HCell::Atom(_))
        }
        Builtin::IsNumber => {
            machine.charge_builtin();
            matches!(machine.deref_arg(args, 0), HCell::Int(_) | HCell::Float(_))
        }
        Builtin::IsInteger => {
            machine.charge_builtin();
            matches!(machine.deref_arg(args, 0), HCell::Int(_))
        }
        Builtin::IsFloat => {
            machine.charge_builtin();
            matches!(machine.deref_arg(args, 0), HCell::Float(_))
        }
        Builtin::IsAtomic => {
            machine.charge_builtin();
            matches!(
                machine.deref_arg(args, 0),
                HCell::Atom(_) | HCell::Int(_) | HCell::Float(_)
            )
        }
        Builtin::Ground => {
            machine.charge_builtin();
            is_ground(machine, args)?
        }
        Builtin::IsList => {
            machine.charge_builtin();
            // A cyclic spine is not a list.
            matches!(list_spine(machine, args, |_| {}), Ok(Some(_)))
        }
        Builtin::Functor => {
            machine.charge_builtin();
            builtin_functor(machine, args)?
        }
        Builtin::Arg => {
            machine.charge_builtin();
            let n = match machine.deref_arg(args, 0) {
                HCell::Int(i) => i,
                other => {
                    return Err(EngineError::TypeError {
                        builtin: "arg",
                        message: format!(
                            "first argument must be an integer, got {:?}",
                            machine.extract_cell(other)?
                        ),
                    })
                }
            };
            match machine.deref_arg(args, 1) {
                HCell::Struct(_, arity, base) if n >= 1 && n as u32 <= arity => {
                    machine.unify(args + 2, base as usize + (n - 1) as usize, Charge::Counted)?
                }
                _ => false,
            }
        }
        Builtin::Univ => {
            machine.charge_builtin();
            builtin_univ(machine, args)?
        }
        Builtin::Length => {
            machine.charge_builtin();
            match list_spine(machine, args, |_| {})? {
                Some(n) => machine.unify_cell(args + 1, HCell::Int(n as i64))?,
                None => false,
            }
        }
        Builtin::GrainGe => {
            let threshold = match machine.deref_arg(args, 2) {
                HCell::Int(k) => k.max(0) as u64,
                _ => 0,
            };
            // An unnamed or unrecognised measure is term size.
            let measure = match machine.deref_arg(args, 1) {
                HCell::Atom(s) => Measure::of_symbol(s),
                _ => None,
            };
            let (holds, elements) = bounded_measure(
                machine,
                measure.unwrap_or(Measure::TermSize),
                args,
                threshold,
            );
            machine.charge_grain_test(elements);
            holds
        }
        Builtin::WriteLike | Builtin::Nl => {
            machine.charge_builtin();
            true
        }
    };
    Ok(result)
}

fn builtin_functor(machine: &mut Machine, args: usize) -> EngineResult<bool> {
    let t = machine.deref_idx(args);
    match machine.cell(t) {
        HCell::Ref(_) => {
            // Construct: functor(T, Name, Arity).
            let name = machine.deref_arg(args, 1);
            let arity = match machine.deref_arg(args, 2) {
                HCell::Int(i) if i >= 0 => i as usize,
                _ => {
                    return Err(EngineError::TypeError {
                        builtin: "functor",
                        message: "arity must be a non-negative integer".into(),
                    })
                }
            };
            match name {
                HCell::Atom(s) => {
                    if arity == 0 {
                        Ok(machine.unify_cell(args, HCell::Atom(s))?)
                    } else {
                        // The fresh argument block doubles as the fresh
                        // variables themselves.
                        let base = machine.fresh_vars(arity);
                        Ok(
                            machine
                                .unify_cell(args, HCell::Struct(s, arity as u32, base as u32))?,
                        )
                    }
                }
                HCell::Int(_) | HCell::Float(_) if arity == 0 => {
                    Ok(machine.unify_cell(args, name)?)
                }
                _ => Ok(false),
            }
        }
        HCell::Atom(s) => Ok(machine.unify_cell(args + 1, HCell::Atom(s))?
            && machine.unify_cell(args + 2, HCell::Int(0))?),
        c @ (HCell::Int(_) | HCell::Float(_)) => {
            Ok(machine.unify_cell(args + 1, c)? && machine.unify_cell(args + 2, HCell::Int(0))?)
        }
        HCell::Struct(s, arity, _) => Ok(machine.unify_cell(args + 1, HCell::Atom(s))?
            && machine.unify_cell(args + 2, HCell::Int(arity as i64))?),
    }
}

fn builtin_univ(machine: &mut Machine, args: usize) -> EngineResult<bool> {
    let t = machine.deref_idx(args);
    match machine.cell(t) {
        HCell::Struct(s, arity, base) => {
            // Decompose: [Name | Args].
            let mut items: Vec<HCell> = Vec::with_capacity(arity as usize + 1);
            items.push(HCell::Atom(s));
            for k in 0..arity as usize {
                items.push(machine.cell(base as usize + k));
            }
            let list = machine.write_list(&items);
            Ok(machine.unify_cell(args + 1, list)?)
        }
        c @ (HCell::Atom(_) | HCell::Int(_) | HCell::Float(_)) => {
            let list = machine.write_list(&[c]);
            Ok(machine.unify_cell(args + 1, list)?)
        }
        HCell::Ref(_) => {
            // Construct from the list.
            let mut items: Vec<HCell> = Vec::new();
            let proper = list_spine(machine, args + 1, |at| {
                let elem = machine.deref_idx(at);
                items.push(match machine.cell(elem) {
                    HCell::Ref(_) => HCell::Ref(elem as u32),
                    other => other,
                });
            })?;
            if proper.is_none() {
                return Err(EngineError::TypeError {
                    builtin: "=..",
                    message: "second argument must be a proper list".into(),
                });
            }
            let Some((&head, rest)) = items.split_first() else {
                return Ok(false);
            };
            match head {
                HCell::Atom(s) => {
                    if rest.is_empty() {
                        Ok(machine.unify_cell(args, HCell::Atom(s))?)
                    } else {
                        let base = machine.write_args(rest);
                        Ok(machine
                            .unify_cell(args, HCell::Struct(s, rest.len() as u32, base as u32))?)
                    }
                }
                HCell::Int(_) | HCell::Float(_) if rest.is_empty() => {
                    Ok(machine.unify_cell(args, head)?)
                }
                _ => Ok(false),
            }
        }
    }
}

/// The standard order of terms over heap cells (see the module docs): the
/// order of the first pair of cells that differ.
fn compare_cells(machine: &mut Machine, a: usize, b: usize) -> Result<Ordering, TermLimit> {
    /// Var < Number < Atom < Compound.
    fn rank(c: HCell) -> u8 {
        match c {
            HCell::Ref(_) => 0,
            HCell::Int(_) | HCell::Float(_) => 1,
            HCell::Atom(_) => 2,
            HCell::Struct(..) => 3,
        }
    }
    let order = machine.walk_pairs(a, b, TermLimit::Compare, |machine, a, b| {
        let (da, db) = (machine.deref_idx(a), machine.deref_idx(b));
        let (ca, cb) = (machine.cell(da), machine.cell(db));
        let ord = match (ca, cb) {
            (HCell::Ref(_), HCell::Ref(_)) => da.cmp(&db),
            (HCell::Int(x), HCell::Int(y)) => x.cmp(&y),
            (HCell::Float(x), HCell::Float(y)) => x.total_cmp(&y),
            // Mixed numbers embed the integer into the float total order
            // (`total_cmp`, so NaN sits consistently above +inf on both the
            // homogeneous and the mixed path — the order stays transitive);
            // on a numeric tie the float comes first. (The f64 round trip
            // loses precision above 2^53, the usual caveat of the standard
            // order's mixed comparison.)
            (HCell::Int(x), HCell::Float(y)) => (x as f64).total_cmp(&y).then(Ordering::Greater),
            (HCell::Float(x), HCell::Int(y)) => x.total_cmp(&(y as f64)).then(Ordering::Less),
            (HCell::Atom(x), HCell::Atom(y)) => x.as_str().cmp(y.as_str()),
            (HCell::Struct(f, n, pa), HCell::Struct(g, m, pb)) => {
                match n.cmp(&m).then_with(|| f.as_str().cmp(g.as_str())) {
                    Ordering::Equal => return Pair::Args(pa, pb, n),
                    ord => ord,
                }
            }
            _ => rank(ca).cmp(&rank(cb)),
        };
        match ord {
            Ordering::Equal => Pair::Same,
            ord => Pair::Differ(ord),
        }
    })?;
    Ok(order.unwrap_or(Ordering::Equal))
}

/// Is the term at `idx` free of unbound variables? The term is walked
/// against itself, up to its first unbound cell.
fn is_ground(machine: &mut Machine, idx: usize) -> Result<bool, TermLimit> {
    let unbound = machine.walk_pairs(idx, idx, TermLimit::Ground, |machine, a, _| {
        let cell = machine.cell(machine.deref_idx(a));
        match cell {
            HCell::Ref(_) => Pair::Differ(()),
            HCell::Struct(_, arity, base) => Pair::Args(base, base, arity),
            _ => Pair::Same,
        }
    })?;
    Ok(unbound.is_none())
}

/// Walks the list spine at `idx`, handing `each` the arena index of every
/// element cell in order. Returns the element count of a proper list and
/// `None` for a partial or improper one. A spine with more elements than
/// the arena has cells can only be cyclic (`X = [a|X]`): the walk stops
/// there with [`TermLimit::Cyclic`] instead of looping.
fn list_spine(
    machine: &Machine,
    idx: usize,
    mut each: impl FnMut(usize),
) -> Result<Option<u64>, TermLimit> {
    let wk = granlog_ir::symbol::well_known::get();
    let cells = machine.heap_len() as u64;
    let mut count = 0u64;
    let mut cur = machine.deref_idx(idx);
    loop {
        match machine.cell(cur) {
            HCell::Atom(s) if s == wk.nil => return Ok(Some(count)),
            HCell::Struct(s, 2, base) if s == wk.cons => {
                if count == cells {
                    return Err(TermLimit::Cyclic);
                }
                count += 1;
                each(base as usize);
                cur = machine.deref_idx(base as usize + 1);
            }
            _ => return Ok(None),
        }
    }
}

/// `size(Term) >= K` under `measure`, plus the number of elements the test
/// had to traverse: the measurement behind `'$grain_ge'`, the one place the
/// grain-size decision is enforced at run time. The builtin charges the
/// machine for the traversal (the runtime overhead the paper's Section 7
/// studies). List and term walks stop as soon as `K` elements have been
/// seen, mirroring the cheap tests the paper generates; an argument whose
/// size is unknown errs on the parallel side.
fn bounded_measure(machine: &Machine, measure: Measure, term: usize, k: u64) -> (bool, u64) {
    let seen = match measure {
        Measure::ListLength => bounded_list_length(machine, term, k),
        Measure::TermDepth => bounded_depth(machine, term, k),
        Measure::TermSize => bounded_term_size(machine, term, k),
        Measure::IntValue => {
            let holds = match machine.cell(machine.deref_idx(term)) {
                HCell::Int(v) => (v.max(0) as u64) >= k,
                HCell::Float(v) => v >= k as f64,
                _ => true, // unknown size: err on the parallel side
            };
            return (holds, 1);
        }
        Measure::Ignore => return (true, 0),
    };
    (seen >= k, seen)
}

fn bounded_list_length(machine: &Machine, idx: usize, limit: u64) -> u64 {
    let wk = granlog_ir::symbol::well_known::get();
    let mut count = 0u64;
    let mut cur = machine.deref_idx(idx);
    while count < limit {
        match machine.cell(cur) {
            HCell::Struct(s, 2, base) if s == wk.cons => {
                count += 1;
                cur = machine.deref_idx(base as usize + 1);
            }
            _ => break,
        }
    }
    count
}

fn bounded_term_size(machine: &Machine, idx: usize, limit: u64) -> u64 {
    let mut stack = vec![machine.deref_idx(idx)];
    let mut count = 0u64;
    while let Some(cur) = stack.pop() {
        if count >= limit {
            return count;
        }
        match machine.cell(cur) {
            HCell::Ref(_) => {}
            HCell::Atom(_) | HCell::Int(_) | HCell::Float(_) => count += 1,
            HCell::Struct(_, arity, base) => {
                count += 1;
                for k in 0..arity as usize {
                    stack.push(machine.deref_idx(base as usize + k));
                }
            }
        }
    }
    count
}

fn bounded_depth(machine: &Machine, idx: usize, limit: u64) -> u64 {
    let mut deepest = 0;
    // Cells to look at, each with the number of structs above it.
    let mut stack = vec![(idx, 0)];
    while let Some((cur, above)) = stack.pop() {
        if let HCell::Struct(_, arity, base) = machine.cell(machine.deref_idx(cur)) {
            let depth = above + 1;
            if depth >= limit {
                return limit;
            }
            deepest = deepest.max(depth);
            stack.extend((0..arity as usize).map(|k| (base as usize + k, depth)));
        }
    }
    deepest
}

#[cfg(test)]
mod tests {
    use crate::machine::{Machine, QueryOutcome};
    use granlog_ir::parser::parse_program;
    use granlog_ir::{AsTerm, Term};

    fn run(query: &str) -> QueryOutcome {
        run2("dummy.", query)
    }

    fn run2(src: &str, query: &str) -> QueryOutcome {
        let program = parse_program(src).unwrap();
        let mut machine = Machine::new(&program);
        machine.run_query(query).unwrap()
    }

    #[test]
    fn unification_and_disequality() {
        assert!(run("X = f(1), X = f(1)").succeeded);
        assert!(!run("f(1) = f(2)").succeeded);
        assert!(run("f(1) \\= f(2)").succeeded);
        assert!(!run("X \\= f(2)").succeeded);
        assert!(run("X = 3, X == 3").succeeded);
        assert!(run("f(X) \\== f(Y)").succeeded);
    }

    #[test]
    fn term_ordering() {
        assert!(run("a @< b").succeeded);
        assert!(run("f(a) @> a").succeeded);
        assert!(run("a @=< a").succeeded);
        assert!(!run("b @< a").succeeded);
    }

    #[test]
    fn standard_order_ranks_var_number_atom_compound() {
        // Var < Number < Atom < Compound, at every boundary.
        assert!(run("X @< 1").succeeded);
        assert!(run("X @< 1.5").succeeded);
        assert!(run("X @< a").succeeded);
        assert!(run("X @< f(a)").succeeded);
        assert!(run("1 @< a").succeeded);
        assert!(run("1.5 @< a").succeeded);
        assert!(run("a @< f(a)").succeeded);
        assert!(run("99999 @< f(a)").succeeded);
        assert!(!run("a @< 99999").succeeded);
    }

    #[test]
    fn standard_order_on_numbers() {
        // Ints and floats compare by value; a numeric tie orders the float
        // first.
        assert!(run("1 @< 2").succeeded);
        assert!(run("1.5 @< 2").succeeded);
        assert!(run("1 @< 1.5").succeeded);
        assert!(run("1.0 @< 1").succeeded);
        assert!(run("1 @> 1.0").succeeded);
        assert!(!run("1 == 1.0").succeeded);
        assert!(run("1 \\== 1.0").succeeded);
        assert!(run("-3 @< 2.5").succeeded);
    }

    #[test]
    fn standard_order_is_transitive_through_nan_and_infinity() {
        // total_cmp governs both the homogeneous float path and the mixed
        // Int/Float path, so a NaN (whatever its sign bit — `inf - inf` is
        // negative NaN on x86) sits on one consistent side of every number
        // and the order stays total: no @<-cycle is constructible.
        let src = "inf(Y) :- Y is 1.0e308 * 10. nan(X) :- inf(I), X is I - I.";
        assert!(run2(src, "inf(Y), 5 @< Y").succeeded);
        // NaN is identical to itself.
        assert!(run2(src, "nan(X), nan(Z), X == Z").succeeded);
        // The mixed Int/NaN comparison agrees with the Float/NaN one.
        assert_eq!(
            run2(src, "nan(X), X @< 5").succeeded,
            run2(src, "nan(X), X @< 5.0").succeeded
        );
        // Exactly one direction holds.
        assert_eq!(
            run2(src, "nan(X), 5 @< X").succeeded,
            !run2(src, "nan(X), X @< 5").succeeded
        );
        // The old mixed rule produced the cycle 5 @< Inf @< NaN @< 5.
        assert!(!run2(src, "inf(Y), nan(X), 5 @< Y, Y @< X, X @< 5").succeeded);
    }

    #[test]
    fn standard_order_on_atoms_is_alphabetical() {
        assert!(run("abc @< abd").succeeded);
        assert!(run("ab @< abc").succeeded);
        assert!(run("'Zed' @< a").succeeded, "uppercase sorts before lower");
    }

    #[test]
    fn standard_order_on_compounds() {
        // Arity dominates, then functor name, then arguments left to right.
        assert!(run("z(1) @< a(1, 2)").succeeded);
        assert!(run("a(9, 9) @< b(1, 1)").succeeded);
        assert!(run("f(1, 2) @< f(1, 3)").succeeded);
        assert!(run("f(1, 2) @< f(2, 1)").succeeded);
        assert!(run("f(a) == f(a)").succeeded);
        assert!(run("f(a) \\== f(b)").succeeded);
    }

    #[test]
    fn standard_order_on_variables() {
        // Distinct unbound variables are never identical and are totally
        // ordered by creation (heap cell) order.
        assert!(run("X \\== Y").succeeded);
        assert!(run("X @< Y").succeeded);
        assert!(run("X == X").succeeded);
        // Aliased variables share a representative: identical.
        assert!(run("X = Y, X == Y").succeeded);
    }

    #[test]
    fn not_unifiable_probe_leaves_no_bindings() {
        // `\=` binds through the trail during its probe and must undo: X
        // stays unbound afterwards, so the subsequent `=` still succeeds.
        let out = run("\\+ (f(X, b) \\= f(a, b)), X = c");
        assert!(out.succeeded);
        assert_eq!(out.binding("X").unwrap(), &Term::atom("c"));
        // Deep compound probe, both directions.
        assert!(run("f(g(X), h(Y)) \\= f(g(1), h(2), z)").succeeded);
        assert!(!run("f(g(X), h(Y)) \\= f(g(1), h(2))").succeeded);
    }

    #[test]
    fn arithmetic_builtins() {
        let out = run("X is 3 * 4 + 1");
        assert_eq!(out.binding("X").unwrap(), &Term::int(13));
        assert!(run("3 < 4").succeeded);
        assert!(!run("4 < 3").succeeded);
        assert!(run("2 + 2 =:= 4").succeeded);
        assert!(run("2 + 2 =\\= 5").succeeded);
        assert!(run("4 >= 4").succeeded);
        assert!(run("3 =< 4").succeeded);
    }

    #[test]
    fn type_tests() {
        assert!(run("var(X)").succeeded);
        assert!(!run("X = 1, var(X)").succeeded);
        assert!(run("X = 1, nonvar(X)").succeeded);
        assert!(run("atom(foo)").succeeded);
        assert!(!run("atom(1)").succeeded);
        assert!(run("number(3)").succeeded);
        assert!(run("integer(3)").succeeded);
        assert!(!run("integer(3.5)").succeeded);
        assert!(run("float(3.5)").succeeded);
        assert!(run("atomic([])").succeeded);
        assert!(run("ground(f(1, a))").succeeded);
        assert!(!run("ground(f(1, X))").succeeded);
        assert!(run("is_list([1,2,3])").succeeded);
        assert!(!run("is_list([1|_])").succeeded);
    }

    #[test]
    fn functor_and_arg() {
        let out = run("functor(f(a, b), N, A)");
        assert_eq!(out.binding("N").unwrap(), &Term::atom("f"));
        assert_eq!(out.binding("A").unwrap(), &Term::int(2));
        let out = run("functor(T, f, 2)");
        assert!(out.succeeded);
        assert_eq!(out.binding("T").unwrap().functor().unwrap().1, 2);
        let out = run("arg(2, f(a, b, c), X)");
        assert_eq!(out.binding("X").unwrap(), &Term::atom("b"));
        assert!(!run("arg(5, f(a), _X)").succeeded);
        assert!(run("functor(foo, foo, 0)").succeeded);
        assert!(run("functor(42, 42, 0)").succeeded);
    }

    #[test]
    fn univ() {
        let out = run("f(a, b) =.. L");
        assert_eq!(out.binding("L").unwrap().to_string(), "[f,a,b]");
        let out = run("T =.. [g, 1, 2]");
        assert_eq!(out.binding("T").unwrap().to_string(), "g(1,2)");
        let out = run("foo =.. L");
        assert_eq!(out.binding("L").unwrap().to_string(), "[foo]");
    }

    #[test]
    fn length_builtin() {
        let out = run("length([a, b, c], N)");
        assert_eq!(out.binding("N").unwrap(), &Term::int(3));
        assert!(run("length([], 0)").succeeded);
        assert!(!run("length([a|_T], _N)").succeeded);
    }

    #[test]
    fn grain_test_on_lists() {
        assert!(run("'$grain_ge'([1,2,3,4], length, 3)").succeeded);
        assert!(!run("'$grain_ge'([1,2], length, 3)").succeeded);
        assert!(run("'$grain_ge'([1,2,3], length, 3)").succeeded);
        // The traversal is bounded by K, so the charged elements are at most K.
        let out = run("'$grain_ge'([1,2,3,4,5,6,7,8,9,10], length, 3)");
        assert!(out.counters.grain_test_elements <= 3);
        assert_eq!(out.counters.grain_tests, 1);
    }

    #[test]
    fn grain_test_on_integers_and_terms() {
        assert!(run("'$grain_ge'(10, int, 5)").succeeded);
        assert!(!run("'$grain_ge'(3, int, 5)").succeeded);
        assert!(run("'$grain_ge'(f(g(h(a))), depth, 3)").succeeded);
        assert!(!run("'$grain_ge'(f(a), depth, 3)").succeeded);
        assert!(run("'$grain_ge'(f(a, b, c), size, 4)").succeeded);
        // Unbound sizes err on the parallel side.
        assert!(run("'$grain_ge'(X, int, 5)").succeeded);
    }

    #[test]
    fn io_builtins_are_noops() {
        assert!(run("write(hello), nl, tab(3)").succeeded);
    }

    #[test]
    fn builtin_counter_increments() {
        let out = run("X is 1 + 1, X > 1, atom(foo)");
        assert_eq!(out.counters.builtins, 3);
    }
}
