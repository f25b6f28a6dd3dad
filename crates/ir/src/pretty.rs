//! Human-readable rendering of terms and clauses.
//!
//! The printer aims at readability rather than strict re-parsability: lists
//! print in bracket notation, well-known binary operators print infix, and
//! variables print either by their source name (when a name table is
//! supplied) or as `_N`.

use crate::symbol::Symbol;
use crate::term::{Args, AsTerm, TermRef, View};
use std::borrow::Cow;
use std::fmt;

/// Operators rendered infix by the pretty printer, with their display glyph.
fn infix_glyph(name: &str, arity: usize) -> Option<&'static str> {
    if arity != 2 {
        return None;
    }
    let glyph = match name {
        "," => ",",
        ";" => ";",
        "->" => "->",
        "&" => "&",
        ":-" => ":-",
        "is" => " is ",
        "=" => "=",
        "\\=" => "\\=",
        "==" => "==",
        "\\==" => "\\==",
        "<" => "<",
        ">" => ">",
        "=<" => "=<",
        ">=" => ">=",
        "=:=" => "=:=",
        "=\\=" => "=\\=",
        "+" => "+",
        "-" => "-",
        "*" => "*",
        "/" => "/",
        "//" => "//",
        "mod" => " mod ",
        _ => return None,
    };
    Some(glyph)
}

/// What is left of a compound once the subterm in hand is printed.
enum Frame<'t> {
    /// A compound's remaining arguments, each after a `,`, then `)`.
    Args(Args<'t>),
    /// An infix operator's glyph and right operand, then `)`.
    Infix(&'static str, TermRef<'t>),
    /// A list's spine after an element.
    Spine(TermRef<'t>),
    /// The `)` after an infix operator's right operand, or the `]` after
    /// an improper list's tail.
    Close(&'static str),
}

/// Formats a single term.
///
/// `var_names`, when provided, maps [`crate::term::VarId`]s to their source
/// names; variables outside the table (or when the table is absent) render as
/// `_N`.
///
/// One loop over an explicit work stack, one frame per open compound: native
/// stack use does not depend on the term's depth, so any answer an engine can
/// build prints.
pub fn fmt_term(
    term: TermRef<'_>,
    var_names: Option<&[Symbol]>,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    let mut work = Vec::new();
    let mut next = Some(term);
    loop {
        // Print the term in hand; a compound prints its opening, leaves the
        // rest of itself on the stack and hands over its first subterm.
        while let Some(term) = next.take() {
            match term.view() {
                View::Var(v) => match var_names.and_then(|names| names.get(v)) {
                    Some(name) => write!(f, "{name}")?,
                    None => write!(f, "_{v}")?,
                },
                View::Int(i) => write!(f, "{i}")?,
                View::Float(x) => write!(f, "{x}")?,
                View::Atom(a) => f.write_str(&atom_text(a.as_str()))?,
                View::Struct(_, args) if term.is_cons() => {
                    f.write_str("[")?;
                    work.push(Frame::Spine(args.at(1)));
                    next = Some(args.at(0));
                }
                View::Struct(name, mut args) => match infix_glyph(name.as_str(), args.len()) {
                    Some(glyph) => {
                        f.write_str("(")?;
                        work.push(Frame::Infix(glyph, args.at(1)));
                        next = Some(args.at(0));
                    }
                    None => {
                        write!(f, "{}(", atom_text(name.as_str()))?;
                        next = args.next();
                        work.push(Frame::Args(args));
                    }
                },
            }
        }
        let Some(frame) = work.pop() else {
            return Ok(());
        };
        match frame {
            Frame::Args(mut rest) => match rest.next() {
                None => f.write_str(")")?,
                Some(arg) => {
                    f.write_str(",")?;
                    work.push(Frame::Args(rest));
                    next = Some(arg);
                }
            },
            Frame::Infix(glyph, right) => {
                f.write_str(glyph)?;
                work.push(Frame::Close(")"));
                next = Some(right);
            }
            Frame::Spine(rest) if rest.is_cons() => {
                f.write_str(",")?;
                work.push(Frame::Spine(rest.args().at(1)));
                next = Some(rest.args().at(0));
            }
            Frame::Spine(rest) if rest.is_nil() => f.write_str("]")?,
            Frame::Spine(tail) => {
                f.write_str("|")?;
                work.push(Frame::Close("]"));
                next = Some(tail);
            }
            Frame::Close(text) => f.write_str(text)?,
        }
    }
}

/// Quotes an atom's text if it would not read back as an unquoted atom.
fn atom_text(s: &str) -> Cow<'_, str> {
    let plain_alpha = s
        .chars()
        .next()
        .map(|c| c.is_ascii_lowercase())
        .unwrap_or(false)
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    let symbolic = !s.is_empty() && s.chars().all(|c| "+-*/\\^<>=~:.?@#&$".contains(c));
    let special = matches!(s, "[]" | "!" | ";" | "{}" | ",");
    if plain_alpha || symbolic || special {
        Cow::Borrowed(s)
    } else {
        Cow::Owned(format!("'{}'", s.replace('\'', "\\'")))
    }
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
