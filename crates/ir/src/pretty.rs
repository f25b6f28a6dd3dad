//! Rendering of terms and clauses as text the reader reads back.
//!
//! The printer keeps no syntax of its own: a binary compound prints infix
//! exactly when the reader's operator table has its name as an infix
//! operator, and an atom is quoted exactly when the lexer's character
//! classes would not read it back bare. Every infix compound is
//! parenthesised, so `parse(print(t)) == t` whatever the priorities. Lists
//! print in bracket notation, floats in positional notation with a `.0`
//! when integral, and variables by their source name (when a name table is
//! supplied) or as `_N`.

use crate::clause::Clause;
use crate::parser::{class, is_alnum, syntax, Class};
use crate::symbol::Symbol;
use crate::term::{Args, AsTerm, TermRef, View};
use std::fmt::{self, Write};

/// What is left of a compound once the subterm in hand is printed.
enum Frame<'t> {
    /// A compound's remaining arguments, each after a `,`, then `)`.
    Args(Args<'t>),
    /// An infix operator's name and right operand, then `)`.
    Infix(Symbol, TermRef<'t>),
    /// A list's spine after an element.
    Spine(TermRef<'t>),
    /// The `)` after an infix operator's right operand, or the `]` after
    /// an improper list's tail.
    Close(&'static str),
}

/// The formatter and the last byte written to it. A token is one write, or
/// starts with one: a write that starts with a symbol character is spaced
/// off one that ended with one, which the lexer would join to it.
struct Out<'a, 'b> {
    f: &'a mut fmt::Formatter<'b>,
    last: u8,
}

impl Write for Out<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let (Some(&first), Some(&last)) = (s.as_bytes().first(), s.as_bytes().last()) else {
            return Ok(());
        };
        if class(self.last) == Class::Symbol && class(first) == Class::Symbol {
            self.f.write_str(" ")?;
        }
        self.last = last;
        self.f.write_str(s)
    }
}

impl Out<'_, '_> {
    /// Prints one term: one loop over an explicit work stack, one frame per
    /// open compound, so native stack use does not depend on the term's
    /// depth and any answer an engine can build prints.
    fn term(&mut self, term: TermRef<'_>, var_names: Option<&[Symbol]>) -> fmt::Result {
        let ops = &syntax().ops;
        let infix = |name| ops.get(&name).is_some_and(|op| op.infix.is_some());
        let mut work = Vec::new();
        // The term in hand, and whether it is an infix operator's operand.
        let mut next = Some((term, false));
        loop {
            // Print the term in hand; a compound prints its opening, leaves
            // the rest of itself on the stack and hands over its first
            // subterm.
            while let Some((term, operand)) = next.take() {
                match term.view() {
                    View::Var(v) => match var_names.and_then(|names| names.get(v)) {
                        Some(name) => write!(self, "{name}")?,
                        None => write!(self, "_{v}")?,
                    },
                    View::Int(i) => write!(self, "{i}")?,
                    View::Float(x) => {
                        write!(self, "{x}")?;
                        if x.is_finite() && x.fract() == 0.0 {
                            self.write_str(".0")?;
                        }
                    }
                    View::Atom(a) if operand && ops.contains_key(&a) => {
                        self.write_str("(")?;
                        self.name(a, false)?;
                        self.write_str(")")?;
                    }
                    View::Atom(a) => self.name(a, false)?,
                    View::Struct(_, args) if term.is_cons() => {
                        self.write_str("[")?;
                        work.push(Frame::Spine(args.at(1)));
                        next = Some((args.at(0), false));
                    }
                    View::Struct(name, args) if args.len() == 2 && infix(name) => {
                        self.write_str("(")?;
                        work.push(Frame::Infix(name, args.at(1)));
                        next = Some((args.at(0), true));
                    }
                    View::Struct(name, mut args) => {
                        self.name(name, true)?;
                        self.write_str("(")?;
                        next = args.next().map(|arg| (arg, false));
                        work.push(Frame::Args(args));
                    }
                }
            }
            let Some(frame) = work.pop() else {
                return Ok(());
            };
            match frame {
                Frame::Args(mut rest) => match rest.next() {
                    None => self.write_str(")")?,
                    Some(arg) => {
                        self.write_str(",")?;
                        work.push(Frame::Args(rest));
                        next = Some((arg, false));
                    }
                },
                Frame::Infix(name, right) => {
                    // An alphanumeric operator is spaced on both sides; a
                    // symbolic one only off a symbolic neighbour.
                    match name.as_str() {
                        op if class(op.as_bytes()[0]) == Class::Lower => write!(self, " {op} ")?,
                        op => self.write_str(op)?,
                    }
                    work.push(Frame::Close(")"));
                    next = Some((right, true));
                }
                Frame::Spine(rest) if rest.is_cons() => {
                    self.write_str(",")?;
                    work.push(Frame::Spine(rest.args().at(1)));
                    next = Some((rest.args().at(0), false));
                }
                Frame::Spine(rest) if rest.is_nil() => self.write_str("]")?,
                Frame::Spine(tail) => {
                    self.write_str("|")?;
                    work.push(Frame::Close("]"));
                    next = Some((tail, false));
                }
                Frame::Close(text) => self.write_str(text)?,
            }
        }
    }

    /// An atom or a functor's name, quoted if the lexer would not read it
    /// back bare.
    fn name(&mut self, name: Symbol, functor: bool) -> fmt::Result {
        let text = name.as_str();
        if reads_bare(text, functor) {
            return self.write_str(text);
        }
        // The quoted text is one token: it goes to the formatter directly.
        self.write_str("'")?;
        for c in text.chars() {
            match c {
                '\\' => self.f.write_str("\\\\")?,
                '\'' => self.f.write_str("\\'")?,
                '\n' => self.f.write_str("\\n")?,
                '\t' => self.f.write_str("\\t")?,
                '\r' => self.f.write_str("\\r")?,
                c => self.f.write_char(c)?,
            }
        }
        self.write_str("'")
    }
}

/// Whether the lexer reads `text` back as this one atom unquoted: a name,
/// a run of symbol characters (not the clause-ending `.`, not a comment's
/// `/*`), a solo character, or, as an atom but not before `(`, `[]` and
/// `{}`.
fn reads_bare(text: &str, functor: bool) -> bool {
    let bytes = text.as_bytes();
    let Some(&first) = bytes.first() else {
        return false;
    };
    match class(first) {
        Class::Lower => bytes.iter().all(|&b| is_alnum(b)),
        Class::Symbol => {
            bytes.iter().all(|&b| class(b) == Class::Symbol)
                && text != "."
                && !text.starts_with("/*")
        }
        Class::Solo => bytes.len() == 1,
        Class::Punct => !functor && matches!(text, "[]" | "{}"),
        _ => false,
    }
}

/// Formats a single term.
///
/// `var_names`, when provided, maps [`crate::term::VarId`]s to their source
/// names; variables outside the table (or when the table is absent) render as
/// `_N`.
pub fn fmt_term(
    term: TermRef<'_>,
    var_names: Option<&[Symbol]>,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    Out { f, last: b' ' }.term(term, var_names)
}

/// Formats a clause as `head :- body.`, or `head.` for a fact.
pub(crate) fn fmt_clause(clause: &Clause, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mut out = Out { f, last: b' ' };
    out.term(clause.head.term_ref(), Some(&clause.var_names))?;
    if !clause.is_fact() {
        out.write_str(" :- ")?;
        out.term(clause.body.term_ref(), Some(&clause.var_names))?;
    }
    out.write_str(".")
}

/// A display adapter pairing a term with a variable-name table.
///
/// # Example
///
/// ```
/// use granlog_ir::{parser::parse_program, pretty::TermWithNames};
/// let p = parse_program("p(X) :- q(X).").unwrap();
/// let clause = &p.clauses()[0];
/// let shown = TermWithNames::new(&clause.head, &clause.var_names).to_string();
/// assert_eq!(shown, "p(X)");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TermWithNames<'a> {
    term: TermRef<'a>,
    names: &'a [Symbol],
}

impl<'a> TermWithNames<'a> {
    /// Pairs `term` with the variable-name table `names`.
    pub fn new(term: impl AsTerm<'a>, names: &'a [Symbol]) -> Self {
        let term = term.term_ref();
        TermWithNames { term, names }
    }
}

impl fmt::Display for TermWithNames<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_term(self.term, Some(self.names), f)
    }
}

#[cfg(test)]
mod tests {
    use crate::term::{Cell, Term};

    #[test]
    fn quoting_of_atoms() {
        assert_eq!(Term::atom("foo").to_string(), "foo");
        assert_eq!(Term::atom("Foo bar").to_string(), "'Foo bar'");
        assert_eq!(Term::atom("[]").to_string(), "[]");
        assert_eq!(Term::atom("+").to_string(), "+");
        assert_eq!(Term::atom("hello world").to_string(), "'hello world'");
    }

    #[test]
    fn infix_operators_render_infix() {
        let t = Term::compound(">", vec![Term::var(0), Term::var(1)]);
        assert_eq!(t.to_string(), "(_0>_1)");
        let t = Term::compound(
            "is",
            vec![
                Term::var(0),
                Term::compound("+", vec![Term::int(1), Term::int(2)]),
            ],
        );
        assert_eq!(t.to_string(), "(_0 is (1+2))");
    }

    #[test]
    fn improper_lists_show_tail() {
        let t = Term::list_with_tail(vec![Term::int(1), Term::int(2)], Term::var(3));
        assert_eq!(t.to_string(), "[1,2|_3]");
    }

    #[test]
    fn nested_lists() {
        let t = Term::list(vec![Term::list(vec![Term::int(1)]), Term::nil()]);
        assert_eq!(t.to_string(), "[[1],[]]");
    }

    #[test]
    fn deep_terms_print_on_a_small_stack() {
        // `mk(300000, E)` over `mk(N, X+1)`: a left-deep `+` chain, laid out
        // directly (building it a level at a time copies it at every level).
        let plus = crate::Symbol::intern("+");
        let headers = (1..=300_000u32).rev().map(|k| Cell::Struct(plus, 2, 2 * k));
        let leaves =
            std::iter::once(Cell::Int(0)).chain(std::iter::repeat_n(Cell::Int(1), 300_000));
        let deep = Term::from_cells(headers.chain(leaves).collect());
        let printed = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || deep.to_string())
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(printed.len(), 300_000 * 4 + 1);
        assert_eq!(printed.find('0'), Some(300_000), "every `(` comes first");
        assert!(printed[300_000..].starts_with("0+1)+1)"));
        let nested = Term::list(vec![
            Term::compound("f", vec![Term::list(vec![])]),
            Term::var(2),
        ]);
        assert_eq!(nested.to_string(), "[f([]),_2]");
    }

    #[test]
    fn every_infix_operator_reads_back() {
        // Walks the reader's own table, so an operator added there is
        // covered here without a second list.
        let ops = &crate::parser::syntax().ops;
        let mut seen = 0;
        for (&op, _) in ops.iter().filter(|(_, o)| o.infix.is_some()) {
            let name = op.as_str();
            let operands = [
                (Term::int(-1), Term::float(-2.0)),
                (Term::atom(name), Term::atom(name)),
                (Term::atom(","), Term::float(-0.0)),
                (
                    Term::compound("\\+", vec![Term::atom("|")]),
                    Term::compound("-", vec![Term::atom(".")]),
                ),
            ];
            for (left, right) in operands {
                let term = Term::compound(name, vec![left, right]);
                let text = term.to_string();
                let (back, _) = crate::parser::parse_term(&text)
                    .unwrap_or_else(|e| panic!("`{text}` does not read back: {e}"));
                assert!(back == term, "`{text}` reads back as `{back}`");
            }
            seen += 1;
        }
        assert_eq!(seen, 37);
    }

    #[test]
    fn conjunction_renders() {
        let t = Term::compound(
            ",",
            vec![
                Term::atom("a"),
                Term::compound(",", vec![Term::atom("b"), Term::atom("c")]),
            ],
        );
        assert_eq!(t.to_string(), "(a,(b,c))");
    }
}
