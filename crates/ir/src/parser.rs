//! A tokenizer and operator-precedence reader for a practical subset of
//! Prolog syntax.
//!
//! Supported syntax:
//!
//! * facts, rules (`:-`) and directives (`:- ...`), terminated by `.`;
//! * atoms (unquoted, quoted and symbolic), variables, integers, floats;
//! * lists `[a, b | T]`, curly braces `{...}`, parenthesised terms;
//! * the standard operator table, extended with `&` (parallel conjunction, as
//!   in &-Prolog) at priority 950, binding tighter than `,`;
//! * `%` line comments and `/* ... */` block comments.
//!
//! Directives recognised and turned into [`Directive`] values:
//! `mode`, `measure`, `parallel`, `sequential`, `entry`. Anything else is kept
//! as [`Directive::Other`].

use crate::clause::Clause;
use crate::modes::ArgMode;
use crate::program::{Directive, PredId, Program};
use crate::symbol::{well_known, FastMap, Symbol};
use crate::term::{push_list, AsTerm, Cell, OrderedF64, Term, TermRef, View};
use std::fmt;
use std::sync::OnceLock;

/// The deepest nesting the reader accepts, in either sense: a term it
/// returns has no compound more than this many compounds below its root,
/// and no token is read more than this many brackets, argument lists and
/// operator operands deep (so `((((a))))` counts although it builds
/// nothing). Past it the reader reports `term nested deeper than N` at the
/// token that crossed the limit instead of overflowing the stack.
///
/// The elements of `[a, b, ...]` are one level below the list however long
/// it is: the reader builds the spine in a loop and charges nothing for it.
/// A left-nested operator chain (`1 - 2 - 3 - ...`) is built by a loop too,
/// but every link is a level and is counted.
///
/// The value is half of what a whole `load` — this reader, then printing
/// and template compilation — survives on a 2 MiB thread in an unoptimised
/// build: about 1 050 levels of `[`, the costliest shape, and it is the
/// reader's own frames that run out first (the walks behind it are loops).
/// `tests/serve_sessions.rs` loads a term at the
/// limit, in every shape the reader nests, on such a thread.
pub const MAX_TERM_DEPTH: usize = 512;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// 1-based line number where the error was detected.
    pub line: usize,
    /// 1-based column number where the error was detected, in characters.
    pub column: usize,
}

impl ParseError {
    /// An error at byte `offset` of `src`. Nothing keeps line and column up
    /// to date while reading; they are counted here, once, for the one
    /// offset that needs them.
    fn at(src: &str, offset: usize, message: impl Into<String>) -> Self {
        let before = &src.as_bytes()[..offset];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |newline| newline + 1);
        ParseError {
            message: message.into(),
            line: 1 + before.iter().filter(|&&b| b == b'\n').count(),
            // Every byte of a character but its first is `10xxxxxx`.
            column: 1 + before[line_start..]
                .iter()
                .filter(|&&b| b & 0xC0 != 0x80)
                .count(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// What the reader's own functions return. The error is boxed so that a
/// result is a word or two wide: the recursive descent is what bounds
/// [`MAX_TERM_DEPTH`], and its frames are mostly results.
type Fallible<T> = Result<T, Box<ParseError>>;

/// What a token is. `Copy`: an atom was interned when it was lexed and
/// carries its [`Symbol`], a variable is its [`Token`]'s source span.
#[derive(Clone, Copy, PartialEq)]
enum Tok {
    Atom(Symbol),
    Var,
    Int(i64),
    Float(f64),
    /// One of `( ) [ ] { } , |`.
    Punct(u8),
    /// The clause-terminating `.`.
    End,
    Eof,
}

/// A token and the bytes of the source it was read from.
#[derive(Clone, Copy)]
struct Token {
    tok: Tok,
    start: usize,
    end: usize,
}

/// What a byte means where a token may start; the printer quotes by it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// No token starts with it: control characters, `"`, `` ` ``, every byte
    /// of a character beyond ASCII — and `%`, which starts a comment.
    Other,
    Space,
    Digit,
    /// `A`–`Z` and `_`: starts a variable.
    Upper,
    Lower,
    Quote,
    Punct,
    /// `!` and `;`: an atom on its own.
    Solo,
    Symbol,
}

const CLASSES: [Class; 256] = {
    let mut table = [Class::Other; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = match byte as u8 {
            b' ' | b'\t' | b'\n' | b'\x0c' | b'\r' => Class::Space,
            b'0'..=b'9' => Class::Digit,
            b'A'..=b'Z' | b'_' => Class::Upper,
            b'a'..=b'z' => Class::Lower,
            b'\'' => Class::Quote,
            b'(' | b')' | b'[' | b']' | b'{' | b'}' | b',' | b'|' => Class::Punct,
            b'!' | b';' => Class::Solo,
            b'+' | b'-' | b'*' | b'/' | b'\\' | b'^' | b'<' | b'>' | b'=' | b'~' | b':' | b'.'
            | b'?' | b'@' | b'#' | b'&' | b'$' => Class::Symbol,
            _ => Class::Other,
        };
        byte += 1;
    }
    table
};

pub(crate) fn class(byte: u8) -> Class {
    CLASSES[usize::from(byte)]
}

/// Letters, digits and `_`: what a name continues with.
pub(crate) fn is_alnum(byte: u8) -> bool {
    matches!(class(byte), Class::Digit | Class::Upper | Class::Lower)
}

/// Bytes of text per distinct spelling that the lexer's spelling map is
/// sized for up front: a generated fact file names a new host about every
/// 32 bytes, so it is read without the map growing.
const BYTES_PER_SPELLING: usize = 32;

/// Pulls tokens out of the source one at a time. `pos` is a byte offset and
/// always sits on a character boundary between tokens.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    /// The symbol of every atom and variable spelling read so far, keyed by
    /// its source slice: the global table is asked once per distinct
    /// spelling of the text, at its first occurrence, so symbols are
    /// interned in the order they were before the map.
    spellings: FastMap<&'a str, Symbol>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            spellings: FastMap::with_capacity_and_hasher(
                src.len() / BYTES_PER_SPELLING,
                Default::default(),
            ),
        }
    }

    /// The symbol of a spelling taken from the source.
    fn intern(&mut self, spelling: &'a str) -> Symbol {
        *self
            .spellings
            .entry(spelling)
            .or_insert_with(|| Symbol::intern(spelling))
    }

    fn error(&self, offset: usize, message: impl Into<String>) -> Box<ParseError> {
        Box::new(ParseError::at(self.src, offset, message))
    }

    fn byte_at(&self, offset: usize) -> Option<u8> {
        self.src.as_bytes().get(offset).copied()
    }

    fn digit_at(&self, offset: usize) -> bool {
        self.byte_at(offset).is_some_and(|b| b.is_ascii_digit())
    }

    /// Moves `pos` past every byte `keep` accepts.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    fn skip_layout(&mut self) -> Fallible<()> {
        loop {
            self.skip_while(|b| class(b) == Class::Space);
            match self.byte_at(self.pos) {
                Some(b'%') => self.skip_while(|b| b != b'\n'),
                Some(b'/') if self.byte_at(self.pos + 1) == Some(b'*') => {
                    match self.src[self.pos + 2..].find("*/") {
                        Some(close) => self.pos += 2 + close + 2,
                        None => {
                            return Err(self.error(self.src.len(), "unterminated block comment"))
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Fallible<Token> {
        self.skip_layout()?;
        let start = self.pos;
        let Some(first) = self.byte_at(start) else {
            return Ok(Token {
                tok: Tok::Eof,
                start,
                end: start,
            });
        };
        let tok = match class(first) {
            Class::Digit => self.lex_number()?,
            Class::Upper => {
                self.skip_while(is_alnum);
                Tok::Var
            }
            Class::Lower => {
                self.skip_while(is_alnum);
                Tok::Atom(self.intern(&self.src[start..self.pos]))
            }
            Class::Quote => self.lex_quoted_atom()?,
            Class::Punct => {
                self.pos += 1;
                // '|' doubles as the list-tail separator and (rarely) an
                // operator; it is always punctuation here.
                Tok::Punct(first)
            }
            Class::Solo => {
                self.pos += 1;
                let wk = well_known::get();
                Tok::Atom(if first == b'!' { wk.cut } else { wk.semicolon })
            }
            Class::Symbol => {
                self.skip_while(|b| class(b) == Class::Symbol);
                match &self.src[start..self.pos] {
                    // A solitary '.' (not part of a longer symbolic atom)
                    // terminates a clause.
                    "." => Tok::End,
                    text => Tok::Atom(self.intern(text)),
                }
            }
            Class::Space | Class::Other => {
                let c = self.src[start..].chars().next().expect("not at the end");
                return Err(self.error(start, format!("unexpected character {c:?}")));
            }
        };
        Ok(Token {
            tok,
            start,
            end: self.pos,
        })
    }

    fn lex_number(&mut self) -> Fallible<Tok> {
        let start = self.pos;
        self.skip_while(|b| b.is_ascii_digit());
        // 0'c character code notation.
        if &self.src[start..self.pos] == "0" && self.byte_at(self.pos) == Some(b'\'') {
            self.pos += 1;
            let Some(c) = self.src[self.pos..].chars().next() else {
                return Err(self.error(self.pos, "unterminated character code"));
            };
            self.pos += c.len_utf8();
            return Ok(Tok::Int(i64::from(u32::from(c))));
        }
        let mut is_float = false;
        if self.byte_at(self.pos) == Some(b'.') && self.digit_at(self.pos + 1) {
            is_float = true;
            self.pos += 1;
            self.skip_while(|b| b.is_ascii_digit());
        }
        if matches!(self.byte_at(self.pos), Some(b'e' | b'E')) {
            let signed = matches!(self.byte_at(self.pos + 1), Some(b'+' | b'-'));
            let digits = self.pos + 1 + usize::from(signed);
            if self.digit_at(digits) {
                is_float = true;
                self.pos = digits;
                self.skip_while(|b| b.is_ascii_digit());
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Tok::Float)
                .map_err(|e| self.error(self.pos, format!("bad float literal {text:?}: {e}")))
        } else {
            text.parse::<i64>()
                .map(Tok::Int)
                .map_err(|e| self.error(self.pos, format!("bad integer literal {text:?}: {e}")))
        }
    }

    /// A quoted atom is looked up by its source slice when nothing in it is
    /// escaped; `unescaped` is touched (and allocates) only from the first
    /// `''` or `\c` on, and goes to the global table directly.
    fn lex_quoted_atom(&mut self) -> Fallible<Tok> {
        self.pos += 1; // opening quote
        let mut unescaped = String::new();
        // Start of the text not yet copied into `unescaped`.
        let mut pending = self.pos;
        loop {
            self.skip_while(|b| b != b'\'' && b != b'\\');
            let text = &self.src[pending..self.pos];
            match self.byte_at(self.pos) {
                None => return Err(self.error(self.pos, "unterminated quoted atom")),
                Some(b'\\') => {
                    unescaped.push_str(text);
                    self.pos += 1;
                    let Some(c) = self.src[self.pos..].chars().next() else {
                        return Err(self.error(self.pos, "unterminated escape"));
                    };
                    self.pos += c.len_utf8();
                    unescaped.push(match c {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        other => other,
                    });
                }
                Some(_) if self.byte_at(self.pos + 1) == Some(b'\'') => {
                    unescaped.push_str(text);
                    unescaped.push('\'');
                    self.pos += 2;
                }
                Some(_) => {
                    self.pos += 1; // closing quote
                    return Ok(Tok::Atom(if unescaped.is_empty() {
                        self.intern(text)
                    } else {
                        unescaped.push_str(text);
                        Symbol::intern(&unescaped)
                    }));
                }
            }
            pending = self.pos;
        }
    }
}

/// Operator fixity.
#[derive(Clone, Copy)]
enum Fixity {
    Xfx,
    Xfy,
    Yfx,
    Fy,
    Fx,
}

use Fixity::{Fx, Fy, Xfx, Xfy, Yfx};

const INFIX_OPS: &[(u32, Fixity, &[&str])] = &[
    (1200, Xfx, &[":-", "-->"]),
    (1100, Xfy, &[";"]),
    (1050, Xfy, &["->"]),
    (1000, Xfy, &[","]),
    (950, Xfy, &["&"]),
    (
        700,
        Xfx,
        &[
            "=", "\\=", "==", "\\==", "is", "=..", "<", ">", "=<", ">=", "=:=", "=\\=", "@<", "@>",
            "@=<", "@>=",
        ],
    ),
    (500, Yfx, &["+", "-", "/\\", "\\/", "xor"]),
    (400, Yfx, &["*", "/", "//", "mod", "rem", "div", "<<", ">>"]),
    (200, Xfx, &["**"]),
    (200, Xfy, &["^"]),
];

const PREFIX_OPS: &[(u32, Fixity, &[&str])] = &[
    (1200, Fx, &[":-", "?-"]),
    // Directive keywords behave as low-priority prefix operators so that
    // `:- mode nrev(+, -).` parses as `mode(nrev(+, -))`.
    (
        1150,
        Fx,
        &[
            "mode",
            "measure",
            "parallel",
            "sequential",
            "entry",
            "dynamic",
            "discontiguous",
            "multifile",
            "module",
            "use_module",
            "public",
        ],
    ),
    (900, Fy, &["\\+"]),
    (200, Fy, &["-", "+", "\\"]),
];

/// An operator's priority and the highest priority its right-hand (or only)
/// operand may have.
type OpDef = (u32, u32);

/// What an atom means as an operator.
#[derive(Clone, Copy, Default)]
pub(crate) struct Ops {
    pub(crate) infix: Option<OpDef>,
    prefix: Option<OpDef>,
}

/// The operator table keyed by [`Symbol`], and the symbols the reader builds
/// terms with; interned once per process. The printer reads it too.
pub(crate) struct Syntax {
    pub(crate) ops: FastMap<Symbol, Ops>,
    minus: Symbol,
    curly: Symbol,
}

pub(crate) fn syntax() -> &'static Syntax {
    static SYNTAX: OnceLock<Syntax> = OnceLock::new();
    SYNTAX.get_or_init(|| {
        let mut ops: FastMap<Symbol, Ops> = FastMap::default();
        // The highest priority an operator's right-hand (or only) operand
        // may have.
        let operand = |prec: u32, fixity: Fixity| match fixity {
            Xfy | Fy => prec,
            Xfx | Yfx | Fx => prec - 1,
        };
        for &(prec, fixity, names) in INFIX_OPS {
            for name in names {
                ops.entry(Symbol::intern(name)).or_default().infix =
                    Some((prec, operand(prec, fixity)));
            }
        }
        for &(prec, fixity, names) in PREFIX_OPS {
            for name in names {
                ops.entry(Symbol::intern(name)).or_default().prefix =
                    Some((prec, operand(prec, fixity)));
            }
        }
        Syntax {
            ops,
            minus: Symbol::intern("-"),
            curly: Symbol::intern("{}"),
        }
    })
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The token under the cursor; the lexer is one token ahead of it.
    tok: Token,
    syntax: &'static Syntax,
    /// `parse_expr` calls in progress. A call that fails leaves it raised:
    /// the first error ends the parse.
    level: usize,
    /// Source spellings of the clause's variables, by [`crate::VarId`].
    vars: Vec<&'a str>,
    var_names: Vec<Symbol>,
    /// The operand stack, as preorder cells. Every `parse_*` method leaves
    /// the term it read on top and returns only how deep that term nests
    /// (see [`MAX_TERM_DEPTH`]), so no term travels through a `Result`. The
    /// operands lie back to back, the top one running to the end of
    /// `cells`, and `starts` holds where each begins: the arguments of a
    /// compound are in place when its `)` comes, and only its own cell goes
    /// in before them.
    cells: Vec<Cell>,
    starts: Vec<usize>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Fallible<Self> {
        let mut lexer = Lexer::new(src);
        let tok = lexer.next_token()?;
        Ok(Parser {
            lexer,
            tok,
            syntax: syntax(),
            level: 0,
            vars: Vec::new(),
            var_names: Vec::new(),
            cells: Vec::new(),
            starts: Vec::new(),
        })
    }

    /// Takes the token under the cursor and lexes the one after it.
    fn bump(&mut self) -> Fallible<Token> {
        let next = self.lexer.next_token()?;
        Ok(std::mem::replace(&mut self.tok, next))
    }

    fn error_here(&self, message: impl Into<String>) -> Box<ParseError> {
        self.lexer.error(self.tok.start, message)
    }

    fn too_deep(&self, offset: usize) -> Box<ParseError> {
        self.lexer
            .error(offset, format!("term nested deeper than {MAX_TERM_DEPTH}"))
    }

    /// The depth of a compound whose deepest argument nests `below` deep;
    /// `offset` is where its functor or operator stands.
    fn one_deeper(&self, below: usize, offset: usize) -> Fallible<usize> {
        if below < MAX_TERM_DEPTH {
            Ok(below + 1)
        } else {
            Err(self.too_deep(offset))
        }
    }

    /// The token under the cursor as the user typed it, for messages.
    fn found(&self) -> String {
        match (self.tok.tok, &self.lexer.src[self.tok.start..self.tok.end]) {
            (Tok::Eof, _) => "end of input".to_owned(),
            (_, quoted) if quoted.starts_with('\'') => quoted.to_owned(),
            (_, text) => format!("'{text}'"),
        }
    }

    /// Leaves an atomic term on the stack.
    fn leaf(&mut self, cell: Cell) -> Fallible<usize> {
        self.starts.push(self.cells.len());
        self.cells.push(cell);
        Ok(0)
    }

    fn var_id(&mut self, name: &'a str) -> usize {
        if name != "_" {
            if let Some(id) = self.vars.iter().position(|seen| *seen == name) {
                return id;
            }
        }
        self.vars.push(name);
        self.var_names.push(self.lexer.intern(name));
        self.vars.len() - 1
    }

    /// The infix operator under the cursor, if one of priority at most
    /// `max_prec` stands there: its name and the highest priority its right
    /// operand may have.
    fn infix_here(&self, max_prec: u32) -> Option<(Symbol, u32)> {
        let (name, (prec, right_max)) = match self.tok.tok {
            // The comma punctuation acts as the 1000-priority infix ','.
            Tok::Punct(b',') => (well_known::get().comma, (1000, 1000)),
            Tok::Punct(b'|') => (well_known::get().semicolon, (1100, 1100)),
            Tok::Atom(name) => (name, self.syntax.ops.get(&name)?.infix?),
            _ => return None,
        };
        (prec <= max_prec).then_some((name, right_max))
    }

    /// Parses one term with priority at most `max_prec`.
    fn parse_expr(&mut self, max_prec: u32) -> Fallible<usize> {
        if self.level > MAX_TERM_DEPTH {
            return Err(self.too_deep(self.tok.start));
        }
        self.level += 1;
        let mut depth = self.parse_primary(max_prec)?;
        // The left operand's priority is not checked: `a = b = c` reads
        // left-nested.
        while let Some((name, right_max)) = self.infix_here(max_prec) {
            let op = self.bump()?.start;
            let right_depth = self.parse_expr(right_max)?;
            depth = self.one_deeper(depth.max(right_depth), op)?;
            self.wrap(name, 2);
        }
        self.level -= 1;
        Ok(depth)
    }

    fn parse_primary(&mut self, max_prec: u32) -> Fallible<usize> {
        let token = self.bump()?;
        match token.tok {
            Tok::Int(i) => self.leaf(Cell::Int(i)),
            Tok::Float(x) => self.leaf(Cell::Float(OrderedF64(x))),
            Tok::Var => {
                let id = self.var_id(&self.lexer.src[token.start..token.end]);
                self.leaf(Cell::Var(id))
            }
            Tok::Atom(name) => self.parse_after_atom(name, token.start, max_prec),
            Tok::Punct(b'(') => {
                let depth = self.parse_expr(1200)?;
                self.expect_punct(b')')?;
                Ok(depth)
            }
            Tok::Punct(b'[') => self.parse_list(token.start),
            Tok::Punct(b'{') => {
                if self.tok.tok == Tok::Punct(b'}') {
                    self.bump()?;
                    return self.leaf(Cell::Atom(self.syntax.curly));
                }
                let depth = self.parse_expr(1200)?;
                self.expect_punct(b'}')?;
                self.wrap(self.syntax.curly, 1);
                self.one_deeper(depth, token.start)
            }
            Tok::End | Tok::Eof | Tok::Punct(_) => Err(self.unexpected(token)),
        }
    }

    /// The error for a token no term starts with.
    fn unexpected(&self, token: Token) -> Box<ParseError> {
        let what = match token.tok {
            Tok::End => "end of clause".to_owned(),
            Tok::Eof => "end of input".to_owned(),
            _ => format!("{:?}", char::from(self.lexer.src.as_bytes()[token.start])),
        };
        self.lexer.error(token.start, format!("unexpected {what}"))
    }

    /// What the atom `name` (at byte `start`, already taken) begins.
    fn parse_after_atom(&mut self, name: Symbol, start: usize, max_prec: u32) -> Fallible<usize> {
        match self.tok.tok {
            // Compound term: an atom followed by '(', even across layout.
            Tok::Punct(b'(') => {
                self.bump()?;
                let base = self.starts.len();
                let depth = self.parse_args()?;
                self.expect_punct(b')')?;
                self.wrap(name, self.starts.len() - base);
                return self.one_deeper(depth, start);
            }
            // Negative numeric literal.
            Tok::Int(i) if name == self.syntax.minus => {
                self.bump()?;
                return self.leaf(Cell::Int(-i));
            }
            Tok::Float(x) if name == self.syntax.minus => {
                self.bump()?;
                return self.leaf(Cell::Float(OrderedF64(-x)));
            }
            _ => {}
        }
        // Prefix operator application. An atom followed by what cannot
        // start a term — the `,` or `)` after an argument — is not looked up.
        if self.starts_term() {
            if let Some((prec, arg_max)) = self.syntax.ops.get(&name).and_then(|ops| ops.prefix) {
                if prec <= max_prec {
                    let depth = self.parse_expr(arg_max)?;
                    self.wrap(name, 1);
                    return self.one_deeper(depth, start);
                }
            }
        }
        self.leaf(Cell::Atom(name))
    }

    /// Replaces the top `arity` terms of the stack by the compound
    /// `name(...)` over them: its cell goes in before the first.
    fn wrap(&mut self, name: Symbol, arity: usize) {
        let first = self.starts.len() - arity;
        let at = self.starts[first];
        self.starts.truncate(first + 1);
        let below = (self.cells.len() - at) as u32;
        self.cells
            .insert(at, Cell::Struct(name, arity as u32, below));
    }

    /// Can the upcoming token begin a term? (Used to decide whether a prefix
    /// operator is being applied or stands alone as an atom.)
    fn starts_term(&self) -> bool {
        match self.tok.tok {
            Tok::Int(_) | Tok::Float(_) | Tok::Var => true,
            Tok::Punct(c) => matches!(c, b'(' | b'[' | b'{'),
            // An infix operator cannot start a term (e.g. `- , foo`).
            Tok::Atom(name) => self
                .syntax
                .ops
                .get(&name)
                .is_none_or(|ops| ops.infix.is_none() || ops.prefix.is_some()),
            Tok::End | Tok::Eof => false,
        }
    }

    /// Parses comma-separated arguments, each left on the stack; returns the
    /// depth of the deepest.
    fn parse_args(&mut self) -> Fallible<usize> {
        let mut depth = 0;
        loop {
            depth = depth.max(self.parse_expr(999)?);
            if self.tok.tok != Tok::Punct(b',') {
                return Ok(depth);
            }
            self.bump()?;
        }
    }

    /// The rest of a list whose `[` (at byte `open`) has been taken.
    fn parse_list(&mut self, open: usize) -> Fallible<usize> {
        let nil = Cell::Atom(well_known::nil());
        if self.tok.tok == Tok::Punct(b']') {
            self.bump()?;
            return self.leaf(nil);
        }
        let base = self.starts.len();
        // Every element is one cell below the list, however long the spine.
        let depth = self.parse_args()?;
        let mut depth = self.one_deeper(depth, open)?;
        let items = self.starts.len() - base;
        if self.tok.tok == Tok::Punct(b'|') {
            self.bump()?;
            depth = depth.max(self.parse_expr(999)?);
        } else {
            self.leaf(nil)?;
        }
        self.expect_punct(b']')?;
        // The elements and the tail lie back to back: take them out and put
        // them back with a `'.'/2` cell before each element.
        let first = self.starts[base];
        let region = self.cells.split_off(first);
        let bounds = &self.starts[base..];
        let item = |k: usize| &region[bounds[k] - first..bounds[k + 1] - first];
        let tail = &region[bounds[items] - first..];
        push_list(&mut self.cells, (0..items).map(item), tail);
        self.starts.truncate(base + 1);
        Ok(depth)
    }

    fn expect_punct(&mut self, c: u8) -> Fallible<()> {
        if self.tok.tok != Tok::Punct(c) {
            return Err(self.expected(c));
        }
        self.bump()?;
        Ok(())
    }

    /// The error for a cursor that is not on the punctuation (or the
    /// clause-ending `.`) `c`.
    fn expected(&self, c: u8) -> Box<ParseError> {
        let (expected, found) = (char::from(c), self.found());
        self.error_here(format!("expected {expected:?}, found {found}"))
    }
}

/// Parses a single Prolog term (without the terminating `.`).
///
/// Returns the term and the names of its variables ([`crate::VarId`] `i` has
/// name `names[i]`).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing tokens.
///
/// # Example
///
/// ```
/// use granlog_ir::parser::parse_term;
/// let (t, names) = parse_term("f(X, [1,2|T])").unwrap();
/// assert_eq!(names.len(), 2);
/// assert_eq!(t.to_string(), "f(_0,[1,2|_1])");
/// ```
pub fn parse_term(src: &str) -> Result<(Term, Vec<Symbol>), ParseError> {
    read_term(src).map_err(|e| *e)
}

fn read_term(src: &str) -> Fallible<(Term, Vec<Symbol>)> {
    let mut parser = Parser::new(src)?;
    parser.parse_expr(1200)?;
    match parser.tok.tok {
        Tok::Eof => {}
        // Whatever follows a `.` is not read as syntax, but it must lex.
        Tok::End => while parser.bump()?.tok != Tok::Eof {},
        _ => return Err(parser.error_here(format!("trailing input: {}", parser.found()))),
    }
    Ok((Term::from_cells(parser.cells), parser.var_names))
}

/// Parses a Prolog program: a sequence of clauses and directives.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
///
/// # Example
///
/// ```
/// use granlog_ir::parser::parse_program;
/// let p = parse_program(":- mode fib(+, -). fib(0, 0). fib(1, 1).").unwrap();
/// assert_eq!(p.len(), 2);
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    read_program(src).map_err(|e| *e)
}

fn read_program(src: &str) -> Fallible<Program> {
    let mut parser = Parser::new(src)?;
    let neck = well_known::get().neck;
    let mut program = Program::new();
    while parser.tok.tok != Tok::Eof {
        let clause_start = parser.tok.start;
        parser.vars.clear();
        parser.cells.clear();
        parser.starts.clear();
        parser.parse_expr(1200)?;
        if parser.tok.tok != Tok::End {
            return Err(parser.expected(b'.'));
        }
        parser.bump()?;
        let var_names = std::mem::take(&mut parser.var_names);
        let cells = &parser.cells[..];
        let clause = TermRef { cells };
        let (head, body) = match clause.view() {
            // Directive `:- D.`
            View::Struct(name, args) if name == neck && args.len() == 1 => {
                program.add_directive(interpret_directive(args.at(0)));
                continue;
            }
            // Rule `H :- B.`
            View::Struct(name, args) if name == neck && args.len() == 2 => {
                (args.at(0), Some(args.at(1)))
            }
            _ => (clause, None),
        };
        if head.functor().is_none() {
            return Err(parser.lexer.error(
                clause_start,
                format!("clause head must be callable, found {head}"),
            ));
        }
        program.add_clause(match body {
            Some(body) => Clause::new(head.to_term(), body.to_term(), var_names),
            None => Clause::fact(head.to_term(), var_names),
        });
    }
    Ok(program)
}

/// Interprets a directive body term into a [`Directive`].
fn interpret_directive(body: TermRef<'_>) -> Directive {
    let other = || Directive::Other(body.to_term());
    let Some((name, _arity)) = body.functor() else {
        return other();
    };
    match name.as_str() {
        "mode" if body.args().len() == 1 => {
            // :- mode p(+, -).  (equivalently :- mode(p(+, -)).)
            parse_mode_spec(body.args().at(0))
                .map(|(pred, modes)| Directive::Mode(pred, modes))
                .unwrap_or_else(other)
        }
        "measure" if body.args().len() == 1 => {
            let spec = body.args().at(0);
            match spec.functor() {
                Some((pred_name, arity)) if arity > 0 => {
                    let measures: Vec<Symbol> = spec
                        .args()
                        .map(|a| match a.functor() {
                            Some((m, 0)) => m,
                            _ => Symbol::intern("unknown"),
                        })
                        .collect();
                    Directive::Measure(PredId::new(pred_name, arity), measures)
                }
                _ => other(),
            }
        }
        "parallel" | "sequential" if body.args().len() == 1 => {
            match parse_pred_indicator(body.args().at(0)) {
                Some(pred) if name.as_str() == "parallel" => Directive::Parallel(pred),
                Some(pred) => Directive::Sequential(pred),
                None => other(),
            }
        }
        "entry" if body.args().len() == 1 => parse_mode_spec(body.args().at(0))
            .map(|(pred, modes)| Directive::Entry(pred, modes))
            .unwrap_or_else(other),
        _ => other(),
    }
}

/// Parses `p(+,-)`-style mode specs.
fn parse_mode_spec(spec: TermRef<'_>) -> Option<(PredId, Vec<ArgMode>)> {
    let (name, arity) = spec.functor()?;
    if arity == 0 {
        return None;
    }
    let modes: Option<Vec<ArgMode>> = spec
        .args()
        .map(|a| match a.functor() {
            Some((ind, 0)) => ArgMode::from_indicator(ind.as_str()),
            _ => None,
        })
        .collect();
    Some((PredId::new(name, arity), modes?))
}

/// Parses `p/2`-style predicate indicators (also accepts a bare callable term,
/// using its own functor/arity).
fn parse_pred_indicator(term: TermRef<'_>) -> Option<PredId> {
    if let View::Struct(slash, args) = term.view() {
        if slash.as_str() == "/" && args.len() == 2 {
            if let (Some((name, 0)), View::Int(arity)) = (args.at(0).functor(), args.at(1).view()) {
                return Some(PredId::new(name, usize::try_from(arity).ok()?));
            }
        }
    }
    PredId::of_term(term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::ArgMode;

    #[test]
    fn parse_simple_fact() {
        let p = parse_program("likes(mary, wine).").unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.clauses()[0].is_fact());
        assert_eq!(p.clauses()[0].head.to_string(), "likes(mary,wine)");
    }

    #[test]
    fn parse_rule_with_conjunction() {
        let p = parse_program("happy(X) :- rich(X), healthy(X).").unwrap();
        let c = &p.clauses()[0];
        assert_eq!(c.body_literals().len(), 2);
        assert_eq!(c.var_names.len(), 1);
        assert_eq!(c.var_names[0].as_str(), "X");
    }

    #[test]
    fn parse_lists() {
        let (t, _) = parse_term("[1, 2, 3]").unwrap();
        assert_eq!(t.list_length(), Some(3));
        let (t, names) = parse_term("[H | T]").unwrap();
        assert!(t.is_cons());
        assert_eq!(names.len(), 2);
        let (t, _) = parse_term("[]").unwrap();
        assert!(t.is_nil());
        let (t, _) = parse_term("[a, b | [c]]").unwrap();
        assert_eq!(t.list_length(), Some(3));
    }

    #[test]
    fn parse_arithmetic_precedence() {
        let (t, _) = parse_term("1 + 2 * 3").unwrap();
        assert_eq!(t.to_string(), "(1+(2*3))");
        let (t, _) = parse_term("1 * 2 + 3").unwrap();
        assert_eq!(t.to_string(), "((1*2)+3)");
        let (t, _) = parse_term("1 - 2 - 3").unwrap();
        // yfx: left associative
        assert_eq!(t.to_string(), "((1-2)-3)");
        let (t, _) = parse_term("2 ** 3").unwrap();
        assert_eq!(t.functor().unwrap().0.as_str(), "**");
    }

    #[test]
    fn parse_is_and_comparison() {
        let p = parse_program("p(X, Y) :- Y is X - 1, X > 0.").unwrap();
        let lits = p.clauses()[0].body_literals();
        assert_eq!(lits.len(), 2);
        assert_eq!(lits[0].functor().unwrap().0.as_str(), "is");
        assert_eq!(lits[1].functor().unwrap().0.as_str(), ">");
    }

    #[test]
    fn parse_negative_numbers() {
        let (t, _) = parse_term("-5").unwrap();
        assert_eq!(t, Term::int(-5));
        let (t, _) = parse_term("f(-5, -1.5)").unwrap();
        assert_eq!(t.args().at(0), Term::int(-5));
        assert_eq!(t.args().at(1), Term::float(-1.5));
        // Unary minus applied to a variable stays symbolic.
        let (t, _) = parse_term("-X").unwrap();
        assert_eq!(t.functor().unwrap().0.as_str(), "-");
    }

    #[test]
    fn parse_floats_and_char_codes() {
        let (t, _) = parse_term("3.25").unwrap();
        assert_eq!(t, Term::float(3.25));
        let (t, _) = parse_term("1.0e3").unwrap();
        assert_eq!(t, Term::float(1000.0));
        let (t, _) = parse_term("0'a").unwrap();
        assert_eq!(t, Term::int('a' as i64));
    }

    #[test]
    fn parse_quoted_atoms() {
        let (t, _) = parse_term("'hello world'").unwrap();
        assert_eq!(t, Term::atom("hello world"));
        let (t, _) = parse_term("'it''s'").unwrap();
        assert_eq!(t, Term::atom("it's"));
        let (t, _) = parse_term("'line\\nbreak'").unwrap();
        assert_eq!(t, Term::atom("line\nbreak"));
    }

    #[test]
    fn parse_if_then_else() {
        let p = parse_program("p(X) :- ( X > 1 -> q(X) ; r(X) ).").unwrap();
        let body = &p.clauses()[0].body;
        assert_eq!(body.functor().unwrap().0.as_str(), ";");
        assert_eq!(body.args().at(0).functor().unwrap().0.as_str(), "->");
    }

    #[test]
    fn parse_parallel_conjunction() {
        let p = parse_program("qs(L, S) :- part(L, A, B), qs(A, SA) & qs(B, SB), app(SA, SB, S).")
            .unwrap();
        let lits = p.clauses()[0].body_literals();
        assert_eq!(lits.len(), 4);
    }

    #[test]
    fn parse_negation() {
        let p = parse_program("p(X) :- \\+ q(X).").unwrap();
        let body = &p.clauses()[0].body;
        assert_eq!(body.functor().unwrap(), (Symbol::intern("\\+"), 1));
    }

    #[test]
    fn parse_cut_and_true() {
        let p = parse_program("p(X) :- q(X), !, r(X). t.").unwrap();
        let lits = p.clauses()[0].body_literals();
        assert_eq!(lits[1], Term::atom("!"));
        assert!(p.clauses()[1].is_fact());
    }

    #[test]
    fn parse_mode_directive_plus_minus() {
        let p = parse_program(":- mode append(+, +, -). append([], L, L).").unwrap();
        let m = p.mode_of(PredId::parse("append", 3)).unwrap();
        assert_eq!(m.modes, vec![ArgMode::In, ArgMode::In, ArgMode::Out]);
    }

    #[test]
    fn parse_mode_directive_io_atoms() {
        let p = parse_program(":- mode nrev(i, o). nrev([], []).").unwrap();
        let m = p.mode_of(PredId::parse("nrev", 2)).unwrap();
        assert_eq!(m.modes, vec![ArgMode::In, ArgMode::Out]);
    }

    #[test]
    fn parse_mode_directive_wrapped() {
        let p = parse_program(":- mode(fib(+, -)). fib(0, 0).").unwrap();
        assert!(p.mode_of(PredId::parse("fib", 2)).is_some());
    }

    #[test]
    fn parse_measure_directive() {
        let p =
            parse_program(":- measure append(length, length, length). append([], L, L).").unwrap();
        let ms = p.measure_of(PredId::parse("append", 3)).unwrap();
        assert_eq!(ms.len(), 3);
        assert_eq!(ms[0].as_str(), "length");
    }

    #[test]
    fn parse_parallel_and_sequential_directives() {
        let p = parse_program(":- parallel qs/2.\n:- sequential part/4.\nqs([], []).").unwrap();
        assert_eq!(p.parallel_marking(PredId::parse("qs", 2)), Some(true));
        assert_eq!(p.parallel_marking(PredId::parse("part", 4)), Some(false));
    }

    #[test]
    fn parse_entry_directive() {
        let p = parse_program(":- entry main(+). main(X) :- write(X).").unwrap();
        assert_eq!(p.entries().len(), 1);
        assert_eq!(p.entries()[0].0, PredId::parse("main", 1));
    }

    #[test]
    fn unknown_directives_are_preserved() {
        let p = parse_program(":- dynamic foo/1. foo(1).").unwrap();
        assert!(matches!(p.directives()[0], Directive::Other(_)));
    }

    #[test]
    fn comments_are_skipped() {
        let src = "% a line comment\np(1). /* block\ncomment */ p(2). % trailing";
        let p = parse_program(src).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn variables_are_scoped_per_clause() {
        let p = parse_program("p(X) :- q(X). r(X) :- s(X).").unwrap();
        // Each clause numbers its own X from zero.
        assert_eq!(p.clauses()[0].var_names.len(), 1);
        assert_eq!(p.clauses()[1].var_names.len(), 1);
        assert_eq!(p.clauses()[0].head.args().at(0), Term::var(0));
        assert_eq!(p.clauses()[1].head.args().at(0), Term::var(0));
    }

    #[test]
    fn anonymous_variables_are_distinct() {
        let p = parse_program("p(_, _, X, X).").unwrap();
        let head = &p.clauses()[0].head;
        assert_ne!(head.args().at(0), head.args().at(1));
        assert_eq!(head.args().at(2), head.args().at(3));
    }

    #[test]
    fn error_on_unterminated_clause() {
        let err = parse_program("p(a)").unwrap_err();
        assert!(err.to_string().contains("expected '.'"), "{err}");
    }

    #[test]
    fn error_on_unbalanced_paren() {
        assert!(parse_program("p(a.").is_err());
        assert!(parse_program("p(a)) .").is_err());
    }

    #[test]
    fn error_on_unterminated_atom_and_comment() {
        assert!(parse_program("p('abc).").is_err());
        assert!(parse_program("/* never closed").is_err());
    }

    #[test]
    fn error_reports_position() {
        let err = parse_program("p(a).\nq(b\n).x").unwrap_err();
        assert!(err.line >= 2, "line was {}", err.line);
    }

    #[test]
    fn nrev_appendix_program_parses() {
        let src = r#"
            :- mode nrev(+, -).
            :- mode append(+, +, -).
            nrev([], []).
            nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
            append([], L, L).
            append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.predicates().count(), 2);
        let rec = &p.clauses_of(PredId::parse("nrev", 2))[1];
        assert_eq!(rec.body_literals().len(), 2);
        assert_eq!(rec.var_names.len(), 4); // H, L, R, R1
    }

    #[test]
    fn fib_program_parses() {
        let src = r#"
            fib(0, 0).
            fib(1, 1).
            fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                         fib(M1, N1), fib(M2, N2), N is N1 + N2.
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.clauses()[2].body_literals().len(), 6);
    }

    #[test]
    fn operators_as_atoms_in_arglists() {
        let (t, _) = parse_term("f(+, -)").unwrap();
        assert_eq!(t.args().at(0), Term::atom("+"));
        assert_eq!(t.args().at(1), Term::atom("-"));
    }

    #[test]
    fn deep_nesting_parses() {
        let mut src = String::from("p(");
        for _ in 0..200 {
            src.push_str("f(");
        }
        src.push('a');
        for _ in 0..200 {
            src.push(')');
        }
        src.push_str(").");
        let p = parse_program(&src).unwrap();
        assert_eq!(p.clauses()[0].head.args().at(0).term_depth(), 200);
    }

    /// `depth` levels of `open ... close` around `a`, inside `p(...)`.
    fn nested(open: &str, close: &str, depth: usize) -> String {
        format!("p({}a{}).", open.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn a_term_at_the_depth_limit_reads_and_one_level_more_does_not() {
        // `p(...)` is a level itself.
        let n = MAX_TERM_DEPTH - 1;
        for (open, close) in [("f(", ")"), ("[", "]"), ("{", "}"), ("(", ")"), ("- ", "")] {
            let program = parse_program(&nested(open, close, n))
                .unwrap_or_else(|e| panic!("{open} at the limit: {e}"));
            if open != "(" {
                assert_eq!(program.clauses()[0].head.term_depth(), MAX_TERM_DEPTH);
            }
            let err = parse_program(&nested(open, close, n + 1)).unwrap_err();
            assert_eq!(
                err.message,
                format!("term nested deeper than {MAX_TERM_DEPTH}"),
                "{open}"
            );
            // The limit is crossed at the innermost token, `a`.
            assert_eq!(
                (err.line, err.column),
                (1, 3 + open.len() * (n + 1)),
                "{open}"
            );
        }
    }

    #[test]
    fn operator_chains_count_toward_the_depth_limit() {
        // Left-nested: built by a loop, no recursion — and still a level per
        // link. The operator that would add level N + 1 is named.
        let chain = |links: usize| vec!["1"; links + 1].join(" - ");
        let (ok, _) = parse_term(&chain(MAX_TERM_DEPTH)).unwrap();
        assert_eq!(ok.term_depth(), MAX_TERM_DEPTH);
        let err = parse_term(&chain(MAX_TERM_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.message,
            format!("term nested deeper than {MAX_TERM_DEPTH}")
        );
        assert_eq!(err.column, 4 * (MAX_TERM_DEPTH + 1) - 1);
        // Right-nested: one recursion per link.
        let body = |goals: usize| format!("p :- {}.", vec!["a"; goals].join(", "));
        assert!(parse_program(&body(MAX_TERM_DEPTH)).is_ok());
        let err = parse_program(&body(MAX_TERM_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.message,
            format!("term nested deeper than {MAX_TERM_DEPTH}")
        );
        // A chain at the limit is an argument too deep: found when the
        // compound around it is built, and reported at its functor.
        let err = parse_term(&format!("g(f({}))", chain(MAX_TERM_DEPTH))).unwrap_err();
        assert_eq!((err.line, err.column), (1, 3));
    }

    #[test]
    fn a_list_spine_is_not_nesting() {
        let items = 8 * MAX_TERM_DEPTH;
        let (list, _) = parse_term(&format!("[{}]", vec!["a"; items].join(", "))).unwrap();
        assert_eq!(list.list_length(), Some(items));
        let (partial, _) = parse_term(&format!("[{} | T]", vec!["a"; items].join(", "))).unwrap();
        assert_eq!(partial.list_length(), None);
        // ... but brackets inside brackets are.
        assert!(parse_term(&nested("[", "]", MAX_TERM_DEPTH)).is_err());
    }

    #[test]
    fn text_beyond_ascii_is_read_as_utf8() {
        let (t, _) = parse_term("'h\u{e9}llo'").unwrap();
        assert_eq!(t, Term::atom("h\u{e9}llo"));
        let (t, _) = parse_term("0'\u{e9}").unwrap();
        assert_eq!(t, Term::int(233));
        let (t, _) = parse_term("'a\\\u{e9}''\u{65e5}'").unwrap();
        assert_eq!(t, Term::atom("a\u{e9}'\u{65e5}"));
        // What is printed reads back as what was printed.
        let p = parse_program("p('h\u{e9}llo', '\u{65e5}\u{672c}') :- q('\u{e9}').").unwrap();
        let printed = p.clauses()[0].display().to_string();
        assert_eq!(
            printed,
            "p('h\u{e9}llo','\u{65e5}\u{672c}') :- q('\u{e9}')."
        );
        assert_eq!(parse_program(&printed).unwrap().clauses(), p.clauses());
        // Outside quotes a character beyond ASCII is one error, naming the
        // character, in a column that counts characters.
        let err = parse_program("p('\u{e9}',\n  '\u{e9}', \u{e9}).").unwrap_err();
        assert_eq!(err.message, "unexpected character '\u{e9}'");
        assert_eq!((err.line, err.column), (2, 8));
    }

    /// The lexer's spelling map spans the whole text, so a clause read
    /// among others must come out as it does alone: a spelling repeated
    /// across clauses, a variable spelled like an atom, escaped and
    /// doubled-quote atoms beside their plain spellings.
    #[test]
    fn a_text_reads_as_its_clauses_read_alone() {
        let clauses = [
            r"likes(mary, 'Mary', 'tab\tin').",
            r"likes(Mary, mary) :- knows(Mary, 'it''s'), \+ likes(mary, 'tab\tin').",
            r"knows(X, Mary) :- likes(Mary, X), X = 'Mary', Y = it, Y \= 'it''s'.",
            // A tab typed inside the quotes: the escaped atom's plain spelling.
            "'Mary'(X, '\u{3c0}_atom', [mary|T]) :- knows(T, X), likes(_, 'tab\tin').",
            "likes(X, X) :- 'Mary'(X, '\u{3c0}_atom', [Mary]).",
        ];
        let whole = parse_program(&clauses.join("\n")).unwrap();
        let alone: Vec<Clause> = clauses
            .iter()
            .flat_map(|c| parse_program(c).unwrap().clauses().to_vec())
            .collect();
        assert_eq!(whole.clauses(), alone);
        // The variable `Mary` and the atom `'Mary'` share one symbol.
        let third = &whole.clauses()[2];
        assert_eq!(third.var_names[1], Symbol::intern("Mary"));
        assert!(third.body.to_string().contains("'Mary'"));
    }

    #[test]
    fn fresh_atoms_get_ascending_ids_in_order_of_first_occurrence() {
        let p = parse_program(
            "f(fresh_order_zeta, fresh_order_alpha, fresh_order_zeta).
             g(fresh_order_alpha, 'fresh_order_mid', fresh_order_beta, 'fresh\\norder').",
        )
        .unwrap();
        let ids: Vec<u32> = p
            .clauses()
            .iter()
            .flat_map(|c| {
                c.head
                    .args()
                    .map(|a| a.functor().unwrap().0.index())
                    .collect::<Vec<_>>()
            })
            .collect();
        let [zeta, alpha, zeta_again, alpha_again, mid, beta, escaped] = ids[..] else {
            panic!("seven arguments: {ids:?}");
        };
        assert_eq!((zeta_again, alpha_again), (zeta, alpha));
        assert!(
            zeta < alpha && alpha < mid && mid < beta && beta < escaped,
            "{ids:?}"
        );
    }

    #[test]
    fn errors_name_what_the_user_typed() {
        let err = parse_program("t(a :- b).").unwrap_err();
        assert_eq!(err.message, "expected ')', found ':-'");
        let err = parse_program("p :- q").unwrap_err();
        assert_eq!(err.message, "expected '.', found end of input");
        let err = parse_program("l([a | b 'c d']).").unwrap_err();
        assert_eq!(err.message, "expected ']', found 'c d'");
        let err = parse_term("foo bar").unwrap_err();
        assert_eq!(err.message, "trailing input: 'bar'");
        assert_eq!((err.line, err.column), (1, 5));
    }

    #[test]
    fn a_head_that_is_not_callable_is_reported_where_its_clause_starts() {
        let err = parse_program("p.\n\n  1.5 :- q.").unwrap_err();
        assert_eq!(err.message, "clause head must be callable, found 1.5");
        assert_eq!((err.line, err.column), (3, 3));
        let err = parse_program("f(X) :- g(X). Y.").unwrap_err();
        assert_eq!((err.line, err.column), (1, 15));
    }

    #[test]
    fn the_first_error_in_the_text_is_the_one_reported() {
        // Tokens are read as the parser asks for them, so a syntax error
        // hides a lexical error after it (a whole-text lexing pass used to
        // report the unterminated atom).
        let err = parse_program("p(a b). q('oops").unwrap_err();
        assert_eq!(err.message, "expected ')', found 'b'");
        assert_eq!((err.line, err.column), (1, 5));
        let err = parse_program("p(a). q('oops").unwrap_err();
        assert_eq!(err.message, "unterminated quoted atom");
    }

    #[test]
    fn what_follows_the_end_of_a_term_must_still_lex() {
        let (t, _) = parse_term("foo(X). bar baz").unwrap();
        assert_eq!(t.to_string(), "foo(_0)");
        assert!(parse_term("foo(X). 'oops").is_err());
    }

    #[test]
    fn pred_indicator_parsing() {
        let (t, _) = parse_term("foo/3").unwrap();
        assert_eq!(
            parse_pred_indicator(t.term_ref()),
            Some(PredId::parse("foo", 3))
        );
        let (t, _) = parse_term("foo(a, b)").unwrap();
        assert_eq!(
            parse_pred_indicator(t.term_ref()),
            Some(PredId::parse("foo", 2))
        );
    }

    #[test]
    fn semicolon_binds_looser_than_comma() {
        let (t, _) = parse_term("a, b ; c").unwrap();
        assert_eq!(t.functor().unwrap().0.as_str(), ";");
        let (t, _) = parse_term("a ; b, c").unwrap();
        assert_eq!(t.functor().unwrap().0.as_str(), ";");
        assert_eq!(t.args().at(1).functor().unwrap().0.as_str(), ",");
    }
}
