//! The one exit from the arena and the one unifier.
//!
//! A term leaves the machine's arena by one iterative copy — the packet a
//! stolen `&` arm travels in, read back into `Term`s — and unification,
//! comparison and `ground/1` are loops over one pair walker. Everything
//! here runs on a thread with the 2 MiB stack a serve connection thread
//! has, in this (unoptimised) build, where any walk that recursed per list
//! cell used to abort the process:
//!
//! * **round trip** — for a generated term `T` (lists of up to 10⁵ cells
//!   built at run time, nested structs, shared subterms, aliased unbound
//!   variables, floats, atoms that need quotes), `X = T` answers `T` up to
//!   variable renaming on a `Machine` and through a serve `Session`, `T ==
//!   T` succeeds and `T \= T` fails;
//! * **bounded** — deep goals answer, and goals over cyclic terms (there is
//!   no occurs check) end in a typed `EngineError::TermLimit` within
//!   seconds instead of hanging; a cyclic `&` arm runs inline;
//! * **failure** — a query that fails has no answer to copy out, so one
//!   that bound a variable to a cyclic term on the way answers `no`;
//! * **the way in** — program and query text enter the arena as one
//!   relocating copy of their layout and a clause head is matched by a
//!   loop, so a 200 000-element list literal in a fact's head and in a
//!   query goal runs.

use granlog_engine::{EngineError, Machine, MachineConfig, TermLimit};
use granlog_ir::parser::{parse_program, parse_term};
use granlog_ir::term::Cell;
use granlog_ir::{AsTerm, Term};
use granlog_par::{Granularity, ParConfig, ParExecutor};
use granlog_serve::{PoolConfig, Session, SessionBudget, TemplateCache};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `rep(N, E, L)`: `L` is `N` cells around one shared element `E`.
const PROGRAM: &str = "rep(0, _, []).\n\
    rep(N, E, [E|T]) :- N > 0, N1 is N - 1, rep(N1, E, T).\n\
    mk(0, []).\n\
    mk(N, [a|T]) :- N > 0, N1 is N - 1, mk(N1, T).\n\
    p(_).\n\
    q.\n\
    cyclic_first :- X = f(X), (p(X) & q).\n\
    cyclic_last :- X = f(X), (q & p(X)).\n";

/// Runs `f` on a thread with the 2 MiB stack a serve connection thread has.
fn on_connection_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic");
}

/// A generated term: how a goal writes it, and what it must answer.
#[derive(Debug, Clone)]
enum Spec {
    Int(i64),
    Float(f64),
    Atom(&'static str),
    /// One of the goal's variables `V0..V3`, some of which are aliased.
    Var(usize),
    Struct(&'static str, Vec<Spec>),
    /// A list literal, ending in variable `Vk` when `Some(k)`.
    List(Vec<Spec>, Option<usize>),
    /// `t(S, S)` over one arena copy of `S`, bound before `X = T`.
    Twice(Box<Spec>),
}

/// Atoms the reader and printer must agree on, quoted ones included.
const ATOMS: &[&str] = &["a", "nil", "[]", "hello world", "Abc", "it's", "x_1"];
const FUNCTORS: &[&str] = &["f", "g", "point", "hello world", "It"];

fn arb_spec() -> impl Strategy<Value = Spec> {
    let leaf = prop_oneof![
        (0i64..1_000_000).prop_map(Spec::Int),
        (0i64..1_000).prop_map(|q| Spec::Float(q as f64 + 0.5)),
        (0..ATOMS.len()).prop_map(|k| Spec::Atom(ATOMS[k])),
        (0usize..4).prop_map(Spec::Var),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                (0..FUNCTORS.len()),
                prop::collection::vec(inner.clone(), 1..4)
            )
                .prop_map(|(k, args)| Spec::Struct(FUNCTORS[k], args)),
            (
                prop::collection::vec(inner.clone(), 0..4),
                prop_oneof![Just(None), (0usize..4).prop_map(Some)],
            )
                .prop_map(|(items, tail)| Spec::List(items, tail)),
            inner.prop_map(|s| Spec::Twice(Box::new(s))),
        ]
    })
}

/// Writes `spec` as goal text, appending the bindings it needs first (the
/// shared subterms of `Twice`) to `prefix`.
fn text(spec: &Spec, prefix: &mut Vec<String>) -> String {
    match spec {
        Spec::Int(i) => i.to_string(),
        Spec::Float(x) => format!("{x:?}"),
        Spec::Atom(name) => Term::atom(name).to_string(),
        Spec::Var(k) => format!("V{k}"),
        Spec::Struct(name, args) => {
            let args: Vec<String> = args.iter().map(|a| text(a, prefix)).collect();
            format!("{}({})", Term::atom(name), args.join(", "))
        }
        Spec::List(items, tail) => {
            let items: Vec<String> = items.iter().map(|i| text(i, prefix)).collect();
            match tail {
                Some(k) => format!("[{}|V{k}]", items.join(", ")),
                None => format!("[{}]", items.join(", ")),
            }
        }
        Spec::Twice(inner) => {
            let inner = text(inner, prefix);
            let shared = format!("S{}", prefix.len());
            prefix.push(format!("{shared} = {inner}"));
            format!("t({shared}, {shared})")
        }
    }
}

/// The term `spec` denotes, variable `Vk` being `Term::var(class[k])`.
fn expected(spec: &Spec, class: &[usize; 4]) -> Term {
    match spec {
        Spec::Int(i) => Term::int(*i),
        Spec::Float(x) => Term::float(*x),
        Spec::Atom(name) => Term::atom(name),
        Spec::Var(k) => Term::var(class[*k]),
        Spec::Struct(name, args) => {
            Term::compound(name, args.iter().map(|a| expected(a, class)).collect())
        }
        Spec::List(items, tail) => Term::list_with_tail(
            items.iter().map(|i| expected(i, class)),
            tail.map_or_else(Term::nil, |k| Term::var(class[k])),
        ),
        Spec::Twice(inner) => {
            Term::compound("t", vec![expected(inner, class), expected(inner, class)])
        }
    }
}

/// Are `a` and `b` the same term up to a renaming of variables? Their
/// preorder cells agree one by one, variables through a bijection.
fn variant(a: &Term, b: &Term) -> bool {
    let (mut ab, mut ba) = (HashMap::new(), HashMap::new());
    a.cells().len() == b.cells().len()
        && a.cells().iter().zip(b.cells()).all(|pair| match pair {
            (Cell::Var(x), Cell::Var(y)) => {
                *ab.entry(x).or_insert(y) == y && *ba.entry(y).or_insert(x) == x
            }
            (x, y) => x == y,
        })
}

/// One generated case: `w(T, L)` where `L` is `len` run-time cells around
/// the element `elem`, and `V(a) = V(b)` for each alias pair first.
#[derive(Debug, Clone)]
struct Case {
    term: Spec,
    len: usize,
    elem: Spec,
    aliases: Vec<(usize, usize)>,
}

impl Case {
    /// The goal text that builds the case's term, and the text of the term.
    fn goal(&self) -> (Vec<String>, String) {
        let mut prefix: Vec<String> = self
            .aliases
            .iter()
            .map(|(a, b)| format!("V{a} = V{b}"))
            .collect();
        let elem = text(&self.elem, &mut prefix);
        prefix.push(format!("rep({}, {elem}, L)", self.len));
        let term = format!("w({}, L)", text(&self.term, &mut prefix));
        (prefix, term)
    }

    /// The answer `X = T` must give, variables named by alias class.
    fn answer(&self) -> Term {
        let mut class = [0, 1, 2, 3];
        for &(a, b) in &self.aliases {
            let (from, to) = (class[a], class[b]);
            for c in &mut class {
                if *c == from {
                    *c = to;
                }
            }
        }
        let list = Term::list((0..self.len).map(|_| expected(&self.elem, &class)));
        Term::compound("w", vec![expected(&self.term, &class), list])
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        arb_spec(),
        prop_oneof![Just(0usize), 1usize..5, 10_000usize..30_000],
        // Not a bare variable: `rep/3` would pass it down by a chain of one
        // more link per cell, and dereferencing that is quadratic.
        prop_oneof![
            (0i64..10).prop_map(Spec::Int),
            (0usize..4).prop_map(|k| Spec::Struct("e", vec![Spec::Var(k)])),
            (0..ATOMS.len()).prop_map(|k| Spec::Struct("e", vec![Spec::Atom(ATOMS[k])])),
        ],
        prop::collection::vec((0usize..4, 0usize..4), 0..3),
    )
        .prop_map(|(term, len, elem, aliases)| Case {
            term,
            len,
            elem,
            aliases,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn answers_leave_the_arena_as_the_terms_they_are(case in arb_case()) {
        let case = case.clone();
        on_connection_stack(move || {
            let (prefix, term) = case.goal();
            let want = case.answer();
            let goal = |last: String| {
                let mut goals = prefix.clone();
                goals.push(last);
                goals.join(", ")
            };
            let program = parse_program(PROGRAM).unwrap();

            let mut machine = Machine::new(&program);
            let out = machine.run_query(&goal(format!("X = {term}"))).unwrap();
            assert!(out.succeeded);
            assert!(variant(out.binding("X").unwrap(), &want), "machine: {term}");
            assert!(machine.run_query(&goal(format!("{term} == {term}"))).unwrap().succeeded);
            assert!(!machine.run_query(&goal(format!("{term} \\= {term}"))).unwrap().succeeded);

            let cache = TemplateCache::new(1, MachineConfig::default(), PoolConfig::default());
            let mut session = Session::new(Arc::new(cache), SessionBudget::default());
            session.load(PROGRAM).unwrap();
            let reply = session.query(&goal(format!("X = {term}"))).unwrap();
            let (_, shown) = reply.bindings.iter().find(|(name, _)| name == "X").unwrap();
            let (read, _) = parse_term(shown).unwrap();
            assert!(variant(&read, &want), "session: {term} answered {shown}");
        });
    }
}

/// Two 300 000-element lists unify, compare and test ground; `X = f(X)`
/// and its kin end in the typed error of the walk that met the cycle — in
/// seconds, and the machine answers its next query.
#[test]
fn deep_and_cyclic_goals_end_on_a_connection_stack() {
    on_connection_stack(|| {
        let program = parse_program(PROGRAM).unwrap();
        let mut machine = Machine::new(&program);
        let out = machine
            .run_query("mk(300000, A), mk(300000, B), A = B, A == B, ground(A)")
            .unwrap();
        assert!(out.succeeded);
        assert_eq!(out.binding("A").unwrap().list_length(), Some(300_000));
        for (goal, limit) in [
            ("X = f(X)", TermLimit::Cyclic),
            ("X = f(X, X)", TermLimit::Cyclic),
            ("X = f(X), Y = f(Y), X = Y", TermLimit::Unify),
            ("X = f(X), Y = f(Y), X \\= Y", TermLimit::Unify),
            ("X = f(X), Y = f(Y), X == Y", TermLimit::Compare),
            ("X = f(X), Y = f(Y), ground(X)", TermLimit::Ground),
        ] {
            let started = Instant::now();
            let err = machine.run_query(goal).unwrap_err();
            assert_eq!(err, EngineError::TermLimit(limit), "{goal}");
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "{goal}: {:?}",
                started.elapsed()
            );
            assert_eq!((machine.heap_len(), machine.trail_len()), (0, 0), "{goal}");
            let out = machine.run_query("mk(3, L)").unwrap();
            assert_eq!(out.binding("L").unwrap().to_string(), "[a,a,a]");
        }
    });
}

/// An `&` arm that cannot be packed — here a cyclic one, first or last —
/// runs inline, as an arm that shares a variable with its sibling does.
#[test]
fn a_cyclic_arm_runs_inline() {
    on_connection_stack(|| {
        let program = parse_program(PROGRAM).unwrap();
        let mut executor = ParExecutor::new(
            &program,
            ParConfig {
                threads: 2,
                granularity: Granularity::AlwaysSpawn,
                ..ParConfig::default()
            },
        );
        for goal in ["cyclic_first", "cyclic_last"] {
            let out = executor.run_query(goal).unwrap();
            assert!(out.succeeded, "{goal}");
            assert_eq!(
                (out.spawned_tasks, out.inlined_conjunctions),
                (0, 1),
                "{goal}"
            );
        }
    });
}

/// The last unbounded loops over arena cells: a list spine and the heap
/// arithmetic evaluator. `X = [a|X]` made `length/2` and `is_list/1` loop
/// forever and `=../2` grow its element vector until the allocator aborted;
/// `X = X + 1, Y is X` grew the evaluator's work stack the same way. A spine
/// longer than the arena is cyclic, so `is_list/1` fails and the others
/// stop with a typed error, as does an expression whose shared subterms
/// unfold past `MAX_WALK_CELLS` — in seconds, and the machine answers its
/// next query.
#[test]
fn cyclic_lists_and_expressions_end_on_a_connection_stack() {
    const CYCLIC: &str = "not_a_list :- X = [a|X], \\+ is_list(X).\n\
        len(N) :- X = [a|X], length(X, N).\n\
        univ(T) :- X = [a|X], T =.. X.\n\
        loop(Y) :- X = X + 1, Y is X.\n\
        dbl(0, 1).\n\
        dbl(N, X + X) :- N > 0, N1 is N - 1, dbl(N1, X).\n\
        unfold(V) :- dbl(40, E), V is E.\n";
    on_connection_stack(|| {
        let program = parse_program(&format!("{PROGRAM}{CYCLIC}")).unwrap();
        let mut machine = Machine::new(&program);
        assert!(machine.run_query("not_a_list").unwrap().succeeded);
        for (goal, limit) in [
            ("len(N)", TermLimit::Cyclic),
            ("univ(T)", TermLimit::Cyclic),
            ("loop(Y)", TermLimit::Cyclic),
            ("unfold(V)", TermLimit::Eval),
        ] {
            let started = Instant::now();
            let err = machine.run_query(goal).unwrap_err();
            assert_eq!(err, EngineError::TermLimit(limit), "{goal}");
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "{goal}: {:?}",
                started.elapsed()
            );
            let out = machine
                .run_query("mk(3, L), length(L, N), L =.. U, V is N + 1")
                .unwrap();
            assert_eq!(out.binding("V").unwrap().to_string(), "4", "after {goal}");
            assert_eq!(out.binding("U").unwrap().to_string(), "['.',a,[a,a]]");
        }
        let out = machine.run_query("dbl(10, E), V is E").unwrap();
        assert_eq!(out.binding("V").unwrap().to_string(), "1024");
    });
}

/// Goals that bind a query variable to a cyclic term and then fail: on the
/// way out of the last choice point the binding is not undone (nothing
/// below a choice point is trailed), so copying the failed query's
/// variables out of the arena used to end it in `TermLimit::Cyclic`.
const FAILING_CYCLIC: &[&str] = &[
    "X = f(X), fail",
    "X = [a|X], is_list(X)",
    "(X = f(X), Y = 1 ; Y = 2), Y > 5",
    "p(A) & q, X = f(A, X), fail",
];

/// A failed query answers `no` on every engine front end: a `Machine`, the
/// executor in each granularity mode, and a serve `Session`.
#[test]
fn a_failed_query_extracts_no_bindings() {
    on_connection_stack(|| {
        let program = parse_program(PROGRAM).unwrap();
        let mut machine = Machine::new(&program);
        let cache = TemplateCache::new(1, MachineConfig::default(), PoolConfig::default());
        let mut session = Session::new(Arc::new(cache), SessionBudget::default());
        session.load(PROGRAM).unwrap();
        let mut executors: Vec<_> = [Granularity::On, Granularity::Off, Granularity::AlwaysSpawn]
            .into_iter()
            .flat_map(|granularity| [1, 2].map(|threads| (granularity, threads)))
            .map(|(granularity, threads)| {
                let config = ParConfig {
                    threads,
                    granularity,
                    ..ParConfig::default()
                };
                (
                    format!("{granularity:?}, {threads}t"),
                    ParExecutor::new(&program, config),
                )
            })
            .collect();
        for goal in FAILING_CYCLIC {
            let out = machine.run_query(goal).unwrap();
            assert!(!out.succeeded && out.bindings.is_empty(), "machine: {goal}");
            for (config, executor) in &mut executors {
                let out = executor.run_query(goal).unwrap();
                assert!(
                    !out.succeeded && out.bindings.is_empty(),
                    "{config}: {goal}"
                );
            }
            let reply = session.query(goal).unwrap();
            assert!(
                !reply.succeeded && reply.bindings.is_empty(),
                "session: {goal}"
            );
        }
    });
}

/// A 200 000-element list literal in a fact's head — written into an
/// unbound variable, matched against a bound list, matched one cell deep —
/// and in the query goal itself: the recursive template writer, head
/// matcher and query-goal writer each used to abort the process on it.
/// Control on is left out: the analysis still recurses over clause text.
#[test]
fn a_200_000_element_list_literal_runs_on_a_connection_stack() {
    on_connection_stack(|| {
        let n = 200_000;
        let items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        let items = items.join(",");
        let program = parse_program(&format!("{PROGRAM}big([{items}]).\n")).unwrap();
        let query = format!("big(L), big(L), big([0|T]), length(T, N), M = [{items}], L == M");
        let check = |front: &str, succeeded: bool, bindings: &[(granlog_ir::Symbol, Term)]| {
            assert!(succeeded, "{front}");
            let binding =
                |name: &str| &bindings.iter().find(|(v, _)| v.as_str() == name).unwrap().1;
            assert_eq!(binding("N"), &Term::int(n - 1), "{front}");
            assert_eq!(binding("M").list_length(), Some(n as usize), "{front}");
        };
        let out = Machine::new(&program).run_query(&query).unwrap();
        check("machine", out.succeeded, &out.bindings);
        for granularity in [Granularity::Off, Granularity::AlwaysSpawn] {
            let config = ParConfig {
                threads: 2,
                granularity,
                ..ParConfig::default()
            };
            let out = ParExecutor::new(&program, config)
                .run_query(&query)
                .unwrap();
            check(&format!("{granularity:?}"), out.succeeded, &out.bindings);
        }
    });
}
