//! The reader oracle: what `parse_program` and `parse_term` make of a fixed
//! corpus, compared byte for byte with `tests/golden/parser_forms.txt`, a
//! clock-free guard on what reading costs, and the properties no input may
//! break.
//!
//! The corpus is the 15 suite programs, the attack-graph ruleset with a
//! 48-host fact file of each topology, and a table of one-line inputs: every
//! operator and fixity, every directive form, numbers, escapes, comments, the
//! reader's quirks, and each rejected input with its `line:column`. Every
//! clause is written out in canonical form — atoms quoted, lists as `'.'/2`
//! cells, operators as ordinary compounds — next to its pretty-printed text,
//! because the pretty printer hides list sugar and operator form.
//!
//! The golden file was generated by running this test in a clone of the
//! commit before the reader was rebuilt; the lines that differ from that
//! run are listed in its header. On a mismatch the failure names every
//! section that moved and the whole file as this build computes it is left
//! in `$TMPDIR/granlog-parser-forms.actual`. If the move is intended, copy
//! that file over the golden one and say why in the PR.

use granlog_benchmarks::datalog_benchmarks;
use granlog_ir::parser::{parse_program, parse_term};
use granlog_ir::{AsTerm, Clause, Directive, PredId, Program, Symbol, Term, TermRef, View};
use proptest::prelude::*;
use std::fmt::Write as _;
use support::Section;

mod support;

/// Hosts per generated fact file in the golden corpus.
const GOLDEN_HOSTS: usize = 48;

/// Hosts per generated fact file in the allocation-budget corpus.
const BUDGET_HOSTS: usize = 400;

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) `parse_program` may
/// make over the three `BUDGET_HOSTS`-host fact files (3 195 clauses), each
/// parsed once after a warm-up pass has interned every symbol. One budget
/// for both profiles: the count does not depend on the optimisation level.
///
/// Measured by this file: 26 272 (8.2 per clause) at the parent of the PR
/// that rebuilt the reader — a `String` per token, a second one per `bump`,
/// a `Vec` of tokens, argument vectors grown by doubling — 6 085 (1.9 per
/// clause) with it: the argument vector of each fact, and the index bucket
/// `Program::add_clause` opened for each new first-argument key — and 3 442
/// (1.08 per clause) since `Program` keeps no index (the engine's image
/// builds it, flat, when the program is compiled): the argument vector of
/// each fact and the growth of the clause and predicate lists. The budget
/// leaves 7 % of headroom.
const ALLOCATION_BUDGET: u64 = 3_700;

#[global_allocator]
static ALLOCATOR: support::CountingAllocator = support::CountingAllocator;

/// One-line inputs, each read both as a program and as a term.
const INPUTS: &[&str] = &[
    // Clauses, directives and what separates them.
    "likes(mary, wine).",
    "happy(X) :- rich(X), healthy(X).",
    "p :- a. :- b. ?- c.",
    "p(a).q(b).",
    "a.b.c.",
    "p.\r\nq.\r\n\tr.\x0c",
    "p --> q.",
    "[a].",
    "{a}.",
    "-a.",
    "- (1).",
    // Quirks kept on purpose.
    ":- (a, b).",
    ":- a, b.",
    ":-(a).",
    ":-(a, b, c).",
    "p :- \\+ (a, b).",
    "p :- (a | b).",
    "x :- a = b = c.",
    "foo (a).",
    "p(- 1, -1, - a, 3 - 1, 3 - -1, -(1), - (1), - 1.5, -0.0).",
    "p(a- -1, a - - 1, - - a, \\+ \\+ a, - (-(1))).",
    "X is 2 + -3 * - 4.",
    // Control constructs.
    "p :- a, b ; c -> d & e.",
    "p :- a , ( b -> c ; d ) , \\+ e.",
    "p(X) :- ( X > 1 -> q(X) ; r(X) ).",
    "qs(L, S) :- part(L, A, B), qs(A, SA) & qs(B, SB), app(SA, SB, S).",
    "p(X) :- X > 1, !, Y is X - 1, p(Y).",
    "p :- !.",
    "p :- X.",
    "p :- call(X), X = f(Y).",
    "p :- [a, b].",
    ";(a, b).",
    "!.",
    "p(!, ;).",
    // Directives.
    ":- mode p(+, -).",
    ":- mode(p(+, -)).",
    ":- mode p(i, o, in, out, ground, free, ?).",
    ":- mode p(+, x).",
    ":- mode a.",
    ":- measure p(length, void, size).",
    ":- measure p(length, f(x), 3).",
    ":- measure p.",
    ":- parallel qs/2.",
    ":- sequential part/4.",
    ":- parallel foo(a, b).",
    ":- parallel 3.",
    ":- parallel foo/bar.",
    ":- entry main(+).",
    ":- entry main.",
    ":- dynamic foo/1.",
    ":- discontiguous a/1.",
    ":- multifile a/1.",
    ":- public a/1.",
    ":- module(m, [f/1]).",
    ":- use_module lib.",
    ":- initialization(main).",
    // Every operator, as an operator and as an atom.
    "t((a :- b), (a --> b), (a ; b), (a -> b), (a & b), (a , b)).",
    "t(a = b, a \\= b, a == b, a \\== b, a is b, a =.. b, a < b, a > b).",
    "t(a =< b, a >= b, a =:= b, a =\\= b, a @< b, a @> b, a @=< b, a @>= b).",
    "t(a + b, a - b, a /\\ b, a \\/ b, a xor b).",
    "t(a * b, a / b, a // b, a mod b, a rem b, a div b, a << b, a >> b).",
    "t(a ** b, a ^ b).",
    "t((:- a), (?- a), \\+ a, - a, + a, \\ a).",
    "t((mode a), (measure a), (parallel a), (sequential a), (entry a), (dynamic a)).",
    "t((discontiguous a), (multifile a), (module a), (use_module a), (public a)).",
    "t(1 - 2 - 3, 2 ^ 3 ^ 4, 1 + 2 * 3, 1 * 2 + 3, - 2 ^ 2, - a ^ b, \\+ a = b).",
    "t((a , b , c), (a ; b ; c), (a -> b -> c), (a & b & c), (a :- b :- c)).",
    "t(2 ** 3 ** 4, a < b < c, a ',' b).",
    "f(+, -, *, mod, is, :-, \\+, -->, ?-, mode).",
    "f(- , a).",
    "p :- a =.. b, c \\== d.",
    "p(:, ::, .., ->>, <=>, #, @, $, ~, ^, ?).",
    // Numbers.
    "n(0, 007, 123456789, 9223372036854775807).",
    "n(1.5, 0.0, 1.0e3, 1e3, 1.5E-2, 2e+2, 12.0e10).",
    "n(0'a, 0'A, 0' , 0'0).",
    "n(1.e3).",
    "n(1.x).",
    "n(1e).",
    "n(1.2.3).",
    "n(0''', x).",
    "n(0'",
    "n(9223372036854775808).",
    "n(-9223372036854775808).",
    // Atoms, escapes, variables.
    "q('hello world', 'it''s', 'Upper', '[]', '', 'a.b').",
    "q('line\\nbreak', 'tab\\there', 'cr\\r', 'back\\\\slash', 'quote\\'s', 'other\\qx').",
    "q('two\nlines').",
    "q('''', '''''', 'a''').",
    "'quoted functor'(a, 'B').",
    "v(X, Y, X, _, _, _X, _1, Abc_9, __, aBc_9).",
    // Lists and braces.
    "l([], [a], [a, b | T], [a | [b | [c]]], [[]], [a | b], '.'(a, b)).",
    "l([a, b | T | U]).",
    "l([a, , b]).",
    "l([| a]).",
    "l([a | ]).",
    "c({}, {a}, {a, b}, '{}'(x), { }).",
    "c({).",
    "p(f(f(f(f(f(f(f(f(a))))))))).",
    // Comments.
    "% only a comment",
    "p. % trailing",
    "/* block */ p. /* another\nover two lines */ q.",
    "p /* inside */ :- /* a clause */ q.",
    "/* never closed",
    "p. /*/ q.",
    "p :- a =/* not a comment */ b.",
    "p :- a =% a comment\n b.",
    // Rejected inputs.
    "p(a",
    "p(a.",
    "p(a)) .",
    "p('abc).",
    "p('abc\\",
    "p :- .",
    ".",
    "p(,).",
    "p().",
    "p(a b).",
    "p :- q",
    "p. q",
    "p(a)\n  :- q(\n  ).",
    "p :- a,\n     b, ).",
    "t(a :- b).",
    "t(a --1).",
    "foo:bar(x).",
    "\"string\".",
    "p(`a`).",
    "p :- a ] .",
    "X :- p.",
    "3.",
    "- 1.",
    "p.\n\n  1.5 :- q.",
    "f(X) :- g(X). Y.",
    // Text beyond ASCII.
    "q('h\u{e9}llo', '\u{65e5}\u{672c}\u{8a9e}').",
    "n(0'\u{e9}).",
    "q('caf\u{e9}\\\u{e9}').",
    "p(\u{e9}).",
    "'\u{e9}t\u{e9}'(a) :- b c.",
    "q('\u{e9}",
];

/// Writes `term` in canonical form: `_N` variables, quoted atoms, plain
/// integers, floats with their `Debug` text, `"f"(args)` compounds — lists
/// and operators included, so the shape the reader built is all there is.
fn write_canonical(term: TermRef<'_>, out: &mut String) {
    match term.view() {
        View::Var(v) => {
            let _ = write!(out, "_{v}");
        }
        View::Atom(name) => {
            let _ = write!(out, "{:?}", name.as_str());
        }
        View::Int(i) => {
            let _ = write!(out, "{i}");
        }
        View::Float(x) => {
            let _ = write!(out, "{x:?}");
        }
        View::Struct(name, args) => {
            let _ = write!(out, "{:?}(", name.as_str());
            for (i, arg) in args.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(arg, out);
            }
            out.push(')');
        }
    }
}

fn canonical(term: &Term) -> String {
    let mut out = String::new();
    write_canonical(term.term_ref(), &mut out);
    out
}

fn names(symbols: &[Symbol]) -> String {
    let names: Vec<&str> = symbols.iter().map(|s| s.as_str()).collect();
    format!("[{}]", names.join(" "))
}

fn by_name(pred: &PredId) -> (&'static str, usize) {
    (pred.name.as_str(), pred.arity)
}

fn write_directive(directive: &Directive, out: &mut String) {
    let _ = match directive {
        Directive::Mode(pred, modes) => writeln!(out, "directive mode {pred} {modes:?}"),
        Directive::Measure(pred, measures) => {
            writeln!(out, "directive measure {pred} {}", names(measures))
        }
        Directive::Parallel(pred) => writeln!(out, "directive parallel {pred}"),
        Directive::Sequential(pred) => writeln!(out, "directive sequential {pred}"),
        Directive::Entry(pred, modes) => writeln!(out, "directive entry {pred} {modes:?}"),
        Directive::Other(term) => writeln!(out, "directive other {}", canonical(term)),
    };
}

fn write_clause(clause: &Clause, out: &mut String) {
    let _ = writeln!(
        out,
        "clause {} :- {} vars {}",
        canonical(&clause.head),
        canonical(&clause.body),
        names(&clause.var_names)
    );
    let _ = writeln!(out, "  text {}", clause.display());
}

/// Every directive, every clause, then each predicate with its clause ids
/// (by name, so the order symbols were interned in does not show).
fn write_program(program: &Program, indent: &str, out: &mut String) {
    let mut body = String::new();
    for directive in program.directives() {
        write_directive(directive, &mut body);
    }
    for clause in program.clauses() {
        write_clause(clause, &mut body);
    }
    let mut preds: Vec<_> = program.predicates().collect();
    preds.sort_by_key(|p| by_name(&p.id));
    for pred in preds {
        let _ = writeln!(body, "predicate {} {:?}", pred.id, pred.clause_ids);
    }
    for line in body.lines() {
        let _ = writeln!(out, "{indent}{line}");
    }
}

fn program_section(header: String, source: &str) -> Section {
    let mut body = String::new();
    match parse_program(source) {
        Ok(program) => write_program(&program, "  ", &mut body),
        Err(e) => {
            let _ = writeln!(body, "  error {}:{}: {}", e.line, e.column, e.message);
        }
    }
    Section { header, body }
}

fn input_section(input: &str) -> Section {
    let mut body = String::new();
    match parse_program(input) {
        Ok(program) => {
            body.push_str("  program\n");
            write_program(&program, "    ", &mut body);
        }
        Err(e) => {
            let _ = writeln!(
                body,
                "  program error {}:{}: {}",
                e.line, e.column, e.message
            );
        }
    }
    let _ = match parse_term(input) {
        Ok((term, vars)) => writeln!(body, "  term {} vars {}", canonical(&term), names(&vars)),
        Err(e) => writeln!(body, "  term error {}:{}: {}", e.line, e.column, e.message),
    };
    Section {
        header: format!("@ input {input:?}"),
        body,
    }
}

fn measure() -> Vec<Section> {
    let mut sections = Vec::new();
    for bench in &support::fifteen_benchmarks() {
        sections.push(program_section(
            format!("@ program {}", bench.name),
            bench.source,
        ));
    }
    for family in datalog_benchmarks() {
        sections.push(program_section(
            format!("@ program {}({GOLDEN_HOSTS})", family.name),
            &family.source(GOLDEN_HOSTS),
        ));
    }
    sections.extend(INPUTS.iter().map(|input| input_section(input)));
    sections
}

const GOLDEN_HEADER: &str = "\
# What the reader makes of the fixed corpus, compared byte for byte by
# tests/parser_oracle.rs. After an intended change, copy
# $TMPDIR/granlog-parser-forms.actual over this file.
#
# Generated at 0d47105, the commit before the reader was rebuilt. Since then:
# - the inputs under \"Text beyond ASCII\" read as UTF-8 (they were read byte by
#   byte as Latin-1), and columns count characters;
# - `expected ..., found ...` and `trailing input: ...` quote the token's
#   source text (they printed the `Debug` form of a private enum);
# - `clause head must be callable` carries the position of the clause's first
#   token (it carried 0:0).
# - the printer reads the reader's tables, so every `text` line reads back
#   as its `clause` line. Only `text` lines moved, for these inputs:
#   - every binary operator of the reader's table prints infix (`=..(a,b)`
#     became `(a=..b)`): \"p --> q.\", the four `t(...)` operator rows,
#     \"t(a ** b, a ^ b).\", \"t(1 - 2 - 3, 2 ^ 3 ^ 4, ...)\" and
#     \"p :- a =.. b, c \\== d.\";
#   - a symbolic operator is spaced off a symbolic neighbour (`(3--1)` became
#     `(3- -1)`): \"p(- 1, -1, ...)\", \"p(a- -1, ...)\" and \"X is 2 + -3 * - 4.\";
#   - floats print with `.0` when integral (`-0` became `-0.0`): the same
#     \"p(- 1, -1, ...)\" and \"n(1.5, 0.0, 1.0e3, ...)\";
#   - quoted atoms escape `\\`, newline, tab and carriage return, so their
#     text stays on one line: \"q('line\\\\nbreak', ...)\" and \"q('two\\nlines').\";
#   - `{}` is quoted before `(`, as the lexer reads `{}(` as an atom and a
#     stray `(`: \"{a}.\" and \"c({}, {a}, ...)\".
";

#[test]
fn the_reader_builds_what_the_golden_file_says() {
    support::assert_matches_golden(
        "the reader",
        "parser_forms.txt",
        include_str!("golden/parser_forms.txt"),
        "granlog-parser-forms.actual",
        GOLDEN_HEADER,
        &measure(),
    );
}

#[test]
fn reading_the_fact_files_stays_inside_the_allocation_budget() {
    let sources: Vec<String> = datalog_benchmarks()
        .iter()
        .map(|family| family.source(BUDGET_HOSTS))
        .collect();
    // Warm-up: intern every atom and variable name.
    for source in &sources {
        parse_program(source).expect("fact file parses");
    }
    let mut clauses = 0;
    let mut calls = 0;
    for source in &sources {
        let before = support::allocator_calls();
        let program = parse_program(source).expect("fact file parses");
        calls += support::allocator_calls() - before;
        clauses += program.clauses().len();
    }
    assert_eq!(clauses, 3_195, "the three fact files hold 3 195 clauses");
    assert!(
        calls <= ALLOCATION_BUDGET,
        "parse_program made {calls} allocator calls over {clauses} clauses, \
         budget {ALLOCATION_BUDGET}"
    );
    println!("parse_program: {calls} allocator calls over {clauses} clauses");
}

/// Fragments the reader treats specially, for the token-soup property.
const FRAGMENTS: &[&str] = &[
    "a", "foo", "X", "_", "_G1", "0", "42", "1.5", "1e3", "0'a", "0'", "'q a'", "'", "'\\", "(",
    ")", "[", "]", "{", "}", ",", "|", ".", ". ", " ", "\n", ":-", "?-", "-->", ";", "->", "&",
    "\\+", "=", "is", "+", "-", "*", "/", "**", "^", "mod", "mode", "dynamic", "!", "%", "/*",
    "*/", "\"", "\u{e9}", "'\u{e9}'", "0'\u{e9}", "\u{0}", "\u{7f}",
];

fn arbitrary_text() -> impl Strategy<Value = String> {
    let any_char = prop_oneof![
        (0u32..0x80).prop_map(|c| char::from_u32(c).expect("ascii")),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ];
    prop::collection::vec(any_char, 0..48).prop_map(|chars| chars.into_iter().collect())
}

fn token_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..FRAGMENTS.len(), 0..32)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

/// The infix operators of the reader's table (`granlog_ir::parser`), copied
/// because the table is private to the crate; the unit test
/// `pretty::tests::every_infix_operator_reads_back` walks the table itself.
const INFIX_OPS: &[&str] = &[
    ":-", "-->", ";", "->", ",", "&", "=", "\\=", "==", "\\==", "is", "=..", "<", ">", "=<", ">=",
    "=:=", "=\\=", "@<", "@>", "@=<", "@>=", "+", "-", "/\\", "\\/", "xor", "*", "/", "//", "mod",
    "rem", "div", "<<", ">>", "**", "^",
];

/// A term the printer writes in a form the reader reads back: atoms plain,
/// quoted, symbolic, beyond ASCII and the ones the lexer reads as
/// punctuation; integers and floats of either sign; variables; lists
/// (proper and partial); compounds in canonical notation, under each
/// operator of [`INFIX_OPS`] and under the prefix `-` and `\+`.
/// Variables are numbered `0..4` here and renumbered by [`clause_of`].
fn printable_term() -> impl Strategy<Value = Term> {
    let atom = prop_oneof![
        "[a-z][a-zA-Z0-9_]{0,4}".prop_map(|s| Term::atom(&s)),
        "[ A-Za-z0-9_'+\u{e9}\u{3bb}\u{65e5}\\]{0,5}".prop_map(|s| Term::atom(&s)),
        Just(Term::nil()),
        Just(Term::atom("{}")),
        "[+*/\\^<>=~:.?@#&$-]{1,3}".prop_map(|s| Term::atom(&s)),
        (0..INFIX_OPS.len()).prop_map(|i| Term::atom(INFIX_OPS[i])),
        (0usize..4).prop_map(|i| Term::atom([",", ".", "|", "\\+"][i])),
    ];
    let leaf = prop_oneof![
        atom,
        (i64::MIN + 1..i64::MAX).prop_map(Term::int),
        (-9i64..10).prop_map(Term::int),
        (-1000i64..1000).prop_map(|i| Term::float(i as f64)),
        Just(Term::float(-0.0)),
        (-1.0e6..1.0e6).prop_map(Term::float),
        (-1.0e-9..1.0e-9).prop_map(Term::float),
        (-1.0e300..1.0e300).prop_map(Term::float),
        (0usize..4).prop_map(Term::var),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                "[f-h][a-zA-Z0-9_]{0,3}",
                prop::collection::vec(inner.clone(), 1..4)
            )
                .prop_map(|(name, args)| Term::compound(&name, args)),
            (
                "[ A-Z\u{e9}']{1,3}",
                prop::collection::vec(inner.clone(), 1..3)
            )
                .prop_map(|(name, args)| Term::compound(&name, args)),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Term::list),
            (prop::collection::vec(inner.clone(), 1..3), inner.clone())
                .prop_map(|(items, tail)| Term::list_with_tail(items, tail)),
            (0..INFIX_OPS.len(), inner.clone(), inner.clone())
                .prop_map(|(i, left, right)| Term::compound(INFIX_OPS[i], vec![left, right])),
            (0usize..2, inner).prop_map(|(i, arg)| Term::compound(["-", "\\+"][i], vec![arg])),
        ]
    })
}

/// A callable term: what may stand as a head or a goal. No operator or
/// directive keyword starts with `f`, `g` or `h`.
fn printable_goal() -> impl Strategy<Value = Term> {
    (
        "[f-h][a-zA-Z0-9_]{0,3}",
        prop::collection::vec(printable_term(), 0..3),
    )
        .prop_map(|(name, args)| Term::compound(&name, args))
}

/// A body: goals under `,`, `;`, `->` and `&`.
fn printable_body() -> impl Strategy<Value = Term> {
    printable_goal().prop_recursive(3, 12, 2, |inner| {
        (0usize..4, inner.clone(), inner).prop_map(|(op, left, right)| {
            Term::compound([",", ";", "->", "&"][op], vec![left, right])
        })
    })
}

/// Numbers the variables of `head :- body` in order of first occurrence, as
/// the reader would, and names them so that they read back as variables.
fn clause_of(head: &Term, body: &Term) -> Clause {
    let mut order: Vec<usize> = Vec::new();
    let mut renumber = |v: usize| {
        let id = order.iter().position(|w| *w == v).unwrap_or_else(|| {
            order.push(v);
            order.len() - 1
        });
        id
    };
    let head = head.map_vars(&mut renumber);
    let body = body.map_vars(&mut renumber);
    let var_names = (0..order.len())
        .map(|i| Symbol::intern(["X", "Ys", "_G1", "A_b"][i]))
        .collect();
    Clause::new(head, body, var_names)
}

proptest! {
    /// ROADMAP item 1: no text aborts the reader. A panic fails the test; a
    /// stack overflow would take the whole binary down.
    #[test]
    fn no_text_panics_the_reader(text in arbitrary_text()) {
        let _ = parse_program(&text);
        let _ = parse_term(&text);
    }

    #[test]
    fn no_token_soup_panics_the_reader(text in token_soup()) {
        let _ = parse_program(&text);
        let _ = parse_term(&text);
    }

    #[test]
    fn a_printed_clause_reads_back_equal(
        head in printable_goal(),
        body in printable_body(),
        is_fact in 0usize..3,
    ) {
        let truth = Term::atom("true");
        let clause = clause_of(&head, if is_fact == 0 { &truth } else { &body });
        let text = clause.display().to_string();
        let program = parse_program(&text)
            .unwrap_or_else(|e| panic!("`{text}` does not read back: {e}"));
        prop_assert_eq!(program.clauses(), std::slice::from_ref(&clause), "`{}`", text);
    }
}
