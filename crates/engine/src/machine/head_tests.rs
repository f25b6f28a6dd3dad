//! Unit tests of head matching: a head's compiled match ops against the
//! general unifier, and the reference chains its bindings leave.

use super::*;
use granlog_ir::parser::parse_program;
use granlog_ir::term::{Cell, TermRef, View};
use granlog_ir::FastMap;

#[test]
fn a_head_with_repeated_variables_binds_bound_unbound_and_aliased_goals() {
    // `X` three times at three depths, `Y` twice at the top level: the
    // first occurrence of each binds, every later one unifies with it.
    // Wherever two unbound cells meet, the younger is bound — the head's
    // own cell against a goal variable, the later of two goal variables —
    // so an unbound answer is named by the oldest cell of its class, the
    // query's own.
    // Pinned per goal: the answer, then resolutions, head attempts,
    // unifications and the arena's high water.
    let program = parse_program("p(f(X, g(X)), X, Y, Y). q(Z) :- p(f(Z, _), _, _, Z).").unwrap();
    let mut machine = Machine::new(&program);
    for (goal, answer, counts) in [
        ("p(f(a, g(a)), a, b, b)", "yes", "1 1 8 9"),
        ("p(f(a, g(b)), B, C, D)", "no", "0 1 5 12"),
        (
            "p(A, B, C, D)",
            "A = f(_1,g(_1)) B = _1 C = _2 D = _2",
            "1 1 5 13",
        ),
        ("p(A, B, C, C)", "A = f(_1,g(_1)) B = _1 C = _2", "1 1 5 12"),
        ("p(f(A, B), A, C, A)", "A = _0 B = g(_0) C = _0", "1 1 7 12"),
        ("p(f(1, g(B)), B, C, C)", "B = 1 C = _1", "1 1 8 11"),
        ("q(Z)", "Z = _0", "2 2 9 15"),
    ] {
        let out = machine.run_query(goal).unwrap();
        let rendered = if !out.succeeded {
            "no".to_owned()
        } else if out.bindings.is_empty() {
            "yes".to_owned()
        } else {
            let bindings = out.bindings.iter().map(|(v, t)| format!("{v} = {t}"));
            bindings.collect::<Vec<_>>().join(" ")
        };
        let c = out.counters;
        let high_water = machine.stats().heap_high_water;
        let counted = format!(
            "{} {} {} {high_water}",
            c.resolutions, c.head_attempts, c.unifications
        );
        assert_eq!(
            (rendered.as_str(), counted.as_str()),
            (answer, counts),
            "{goal}"
        );
    }
}

#[test]
fn a_variable_passed_down_stays_two_steps_from_its_representative() {
    // Each activation's `E` is a first occurrence met by the caller's `E`.
    // Bound the other way round, element k of the list reached `E` through
    // a chain of about k cells, and an answer naming it N times cost
    // O(N^2) to extract.
    let program =
        parse_program("rep(0, _, []).\nrep(N, E, [E|T]) :- N > 0, M is N - 1, rep(M, E, T).")
            .unwrap();
    let mut machine = Machine::new(&program);
    let out = machine.run_query("rep(1000, E, L)").unwrap();
    assert!(out.succeeded);
    // The answer stays in the arena: `E` and `L` are cells 0 and 1.
    let representative = machine.deref_idx(0);
    let hops = |mut at: usize| {
        let mut hops = 0;
        while let HCell::Ref(next) = machine.heap[at] {
            if next as usize == at {
                break;
            }
            (at, hops) = (next as usize, hops + 1);
        }
        (at, hops)
    };
    let mut spine = machine.deref_idx(1);
    let mut elements = 0;
    while let HCell::Struct(_, 2, args) = machine.heap[spine] {
        let (at, steps) = hops(args as usize);
        assert_eq!(at, representative, "element {elements} is E");
        assert!(steps <= 2, "element {elements} is {steps} steps from E");
        elements += 1;
        spine = machine.deref_idx(args as usize + 1);
    }
    assert_eq!(elements, 1000);
}

#[test]
fn a_later_occurrence_binds_the_younger_of_two_unbound_cells() {
    // `E`'s first occurrence is inside the list cell, written against the
    // caller's unbound tail; its second meets the caller's `E`. Both cells
    // are unbound there, and binding the older one made element k of the
    // list reach `E` through a chain of about k cells.
    let program =
        parse_program("r(0, [], _).\nr(N, [E|T], E) :- N > 0, M is N - 1, r(M, T, E).").unwrap();
    let mut machine = Machine::new(&program);
    let out = machine.run_query("r(1000, L, E)").unwrap();
    assert!(out.succeeded);
    // The answer stays in the arena: `L` and `E` are cells 0 and 1.
    let representative = machine.deref_idx(1);
    let mut spine = machine.deref_idx(0);
    let mut elements = 0;
    while let HCell::Struct(_, 2, args) = machine.heap[spine] {
        let (mut at, mut steps) = (args as usize, 0);
        while let HCell::Ref(next) = machine.heap[at] {
            if next as usize == at {
                break;
            }
            (at, steps) = (next as usize, steps + 1);
        }
        assert_eq!(at, representative, "element {elements} is E");
        assert!(steps <= 2, "element {elements} is {steps} steps from E");
        elements += 1;
        spine = machine.deref_idx(args as usize + 1);
    }
    assert_eq!(elements, 1000);
}

/// The goal variables of the head-matching differential test, cells
/// `0..GOAL_VARS` of its arena.
const GOAL_VARS: u64 = 4;

/// A small seeded generator for the head-matching differential test.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
    }

    /// A term over variables `0..vars`: constants (the floats `0.0` and
    /// `-0.0` among them), variables, nested compounds and list spines.
    fn term(&mut self, depth: u32, vars: u64) -> Term {
        let leaf = depth == 0 || self.below(3) == 0;
        match self.below(if leaf { 6 } else { 4 }) {
            _ if leaf && vars > 0 && self.below(2) == 0 => Term::var(self.below(vars) as usize),
            0 if leaf => Term::atom(["a", "b"][self.below(2) as usize]),
            1 if leaf => Term::int(self.below(2) as i64),
            2 if leaf => Term::float([0.0, -0.0][self.below(2) as usize]),
            _ if leaf => Term::atom("a"),
            0 => Term::compound("f", vec![self.term(depth - 1, vars)]),
            1 => Term::compound(
                "g",
                vec![self.term(depth - 1, vars), self.term(depth - 1, vars)],
            ),
            _ => {
                let items: Vec<Term> = (0..1 + self.below(4))
                    .map(|_| self.term(depth - 1, vars))
                    .collect();
                let tail = if self.below(2) == 0 {
                    Term::nil()
                } else {
                    self.term(0, vars)
                };
                Term::list_with_tail(items, tail)
            }
        }
    }

    /// A goal argument for the head argument `head`: its shape, with some
    /// subterms replaced by goal variables, its variables by goal terms —
    /// mostly one per head variable, kept in `chosen` — and, now and then,
    /// a constant by another.
    fn goal_for<'a>(&mut self, head: impl AsTerm<'a>, chosen: &mut [Option<Term>]) -> Term {
        match (head.view(), self.below(8)) {
            (_, 0) => Term::var(self.below(GOAL_VARS) as usize),
            (View::Var(_), 1) => self.term(1, GOAL_VARS),
            (View::Var(v), _) => chosen[v]
                .get_or_insert_with(|| self.term(1, GOAL_VARS))
                .clone(),
            (View::Struct(name, args), _) => {
                Term::structure(name, args.map(|arg| self.goal_for(arg, chosen)).collect())
            }
            (_, 1) => self.term(0, GOAL_VARS),
            (View::Atom(name), _) => Term::from(name),
            (View::Int(i), _) => Term::int(i),
            (View::Float(x), _) => Term::float(x),
        }
    }
}

/// A subterm of one side of [`acyclic_unify`] and the offset that makes
/// its variables' numbers unique across the two sides.
type Side<'a> = (TermRef<'a>, usize);

/// Unifies `a` and `b` with the occurs check, extending `subst`: `None`
/// when a variable would be bound to a term that holds it. The machine has
/// no occurs check, so the differential test keeps to the cases where this
/// says `Some`: a cyclic term only ends in a walk limit, far too slowly for
/// a unit test.
fn acyclic_unify<'a>(
    a: Side<'a>,
    b: Side<'a>,
    subst: &mut FastMap<usize, Side<'a>>,
) -> Option<bool> {
    fn resolve<'a>(mut t: Side<'a>, subst: &FastMap<usize, Side<'a>>) -> Side<'a> {
        while let View::Var(v) = t.0.view() {
            match subst.get(&(t.1 + v)) {
                Some(&bound) => t = bound,
                None => break,
            }
        }
        t
    }
    fn occurs<'a>(var: usize, t: Side<'a>, subst: &FastMap<usize, Side<'a>>) -> bool {
        let t = resolve(t, subst);
        match t.0.view() {
            View::Var(v) => t.1 + v == var,
            View::Struct(_, mut args) => args.any(|arg| occurs(var, (arg, t.1), subst)),
            _ => false,
        }
    }
    let (a, b) = (resolve(a, subst), resolve(b, subst));
    match (a.0.view(), b.0.view()) {
        (View::Var(x), View::Var(y)) if a.1 + x == b.1 + y => Some(true),
        (View::Var(x), _) if occurs(a.1 + x, b, subst) => None,
        (View::Var(x), _) => {
            subst.insert(a.1 + x, b);
            Some(true)
        }
        (_, View::Var(_)) => acyclic_unify(b, a, subst),
        (View::Struct(f, xs), View::Struct(g, ys)) if f == g && xs.len() == ys.len() => {
            for (x, y) in xs.zip(ys) {
                if !acyclic_unify((x, a.1), (y, b.1), subst)? {
                    return Some(false);
                }
            }
            Some(true)
        }
        (View::Atom(x), View::Atom(y)) => Some(x == y),
        (View::Int(x), View::Int(y)) => Some(x == y),
        (View::Float(x), View::Float(y)) => Some(x == y),
        _ => Some(false),
    }
}

/// `terms` with their variables renumbered in order of first appearance,
/// so two answers that differ only in the names of their unbound cells
/// compare equal.
fn up_to_renaming(terms: Vec<Term>) -> Vec<Term> {
    let mut names = Vec::new();
    let mut rename = |&cell: &Cell| match cell {
        Cell::Var(v) => Cell::Var(names.iter().position(|&n| n == v).unwrap_or_else(|| {
            names.push(v);
            names.len() - 1
        })),
        other => other,
    };
    let renamed = terms
        .iter()
        .map(|t| t.cells().iter().map(&mut rename).collect());
    renamed.map(Term::from_cells).collect()
}

#[test]
fn compiled_heads_match_the_general_unifier() {
    // Heads with repeated variables (numbered in no particular order),
    // nested compounds, list spines and constants, against goals whose
    // variables are partly bound and aliased: running a head's ops must
    // agree with writing the head and unifying it with the goal — on
    // success, on the unification count, and on the goal's bindings up to
    // the names of unbound cells.
    let program = Program::new();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut case = 0;
    while case < 256 {
        let arity = 1 + rng.below(4);
        let head_vars = 1 + rng.below(4);
        let head = Term::compound("p", (0..arity).map(|_| rng.term(3, head_vars)).collect());
        let mut chosen = vec![None; head_vars as usize];
        let args = head.args().map(|arg| rng.goal_for(arg, &mut chosen));
        let goal = Term::compound("p", args.collect());
        // Goal variable `i` bound to a lower one, or to a term over lower
        // ones, so no binding is cyclic.
        let prebound: Vec<Option<Term>> = (0..GOAL_VARS)
            .map(|i| match rng.below(6) {
                0 if i > 0 => Some(Term::var(rng.below(i) as usize)),
                1 => Some(rng.term(2, i)),
                _ => None,
            })
            .collect();
        let mut subst = FastMap::default();
        for (i, value) in prebound.iter().enumerate() {
            if let Some(value) = value {
                subst.insert(i, (value.term_ref(), 0));
            }
        }
        let head_side = (head.term_ref(), GOAL_VARS as usize);
        if acyclic_unify((goal.term_ref(), 0), head_side, &mut subst).is_none() {
            continue;
        }
        case += 1;
        let names = (0..head_vars).map(|v| Symbol::intern(&format!("V{v}")));
        let clause = granlog_ir::Clause::fact(head.clone(), names.collect());
        let templ = ClauseTemplate::compile(&clause, &Default::default());
        let mut head_layout = Layout::default();
        let root = head_layout.add(head.cells());
        head_layout.lay_out(root);
        // Writes `term` over the goal variables, cells `0..GOAL_VARS`.
        let write_goal = |machine: &mut Machine, term: &Term| {
            let mut layout = Layout::default();
            let root = layout.add(term.cells());
            layout.lay_out(root);
            machine.write(&layout, root, 0)
        };
        let run = |compiled: bool| {
            let mut machine = Machine::new(&program);
            machine.fresh_vars(GOAL_VARS as usize);
            for (i, value) in prebound.iter().enumerate() {
                if let Some(value) = value {
                    machine.heap[i] = write_goal(&mut machine, value);
                }
            }
            let goal_cell = write_goal(&mut machine, &goal);
            let goal_at = machine.write_args(&[goal_cell]);
            let HCell::Struct(_, _, goal_args) = goal_cell else {
                panic!("the goal is a compound")
            };
            let var_base = machine.fresh_vars(templ.num_vars());
            let before = machine.counters.unifications;
            let matched = if compiled {
                machine.unify_head(goal_args as usize, &templ, var_base)
            } else {
                let cell = machine.write(&head_layout, root, var_base);
                let head_at = machine.write_args(&[cell]);
                machine.unify(goal_at, head_at, Charge::Counted)
            };
            // No binding is cyclic, so every answer has a finite copy.
            let answer = (matched == Ok(true)).then(|| {
                let bindings =
                    (0..GOAL_VARS as usize).map(|i| machine.extract_cell(HCell::unbound(i)));
                up_to_renaming(bindings.collect::<EngineResult<_>>().unwrap())
            });
            (matched, machine.counters.unifications - before, answer)
        };
        assert_eq!(
            run(true),
            run(false),
            "case {case}: head {head}, goal {goal}, goal variables bound to {prebound:?}"
        );
    }
}
