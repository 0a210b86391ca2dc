//! A textual TIE-like description language.
//!
//! The paper's extensions are written in the TIE language and processed by
//! the TIE compiler. This module provides the equivalent front end: a small
//! hardware-description language that parses to [`ExtensionSet`]s. The
//! built-in extension library (`emx_workloads::exts`), the directed
//! training stimuli (`emx_workloads::directed`), the fuzz units
//! (`emx_validate::fuzz`), the candidates `emx-discover` synthesizes and
//! the sources handed to `emx-run --tie`, `emx-serve` and `emx-dse` are
//! all TIE text compiled here; the [`ExtensionBuilder`] is the layer it
//! elaborates to.
//!
//! The module owns the syntax both ways: [`print()`] writes a set back as
//! source that [`parse_extension`] compiles to the same set (equal
//! `Debug` forms), and [`print_node`] is the one table from dataflow
//! operations to expressions.
//!
//! # Syntax
//!
//! ```text
//! extension mac16 {
//!     state acc : 40;
//!
//!     inst mac(a: gpr(16), b: gpr(16), acc_in: state(acc), out acc_out: state(acc)) {
//!         acc_out : 40 = mac(a, b, acc_in);
//!     }
//!
//!     inst rdacc(acc_in: state(acc), out d: gpr) {
//!         d : 32 = slice(acc_in, 0, 32);
//!     }
//!
//!     inst clracc(out acc_out: state(acc)) {
//!         acc_out : 40 = 0;
//!     }
//! }
//! ```
//!
//! * `state NAME : WIDTH;` declares a custom register.
//! * `table NAME[ENTRIES] : WIDTH = { v, v, … };` declares a lookup table
//!   (usable from any instruction in the extension as `NAME[expr]`).
//! * `inst NAME(params…) [latency N] { stmts… }` declares an instruction.
//!   Input parameters are, in order: `x: gpr(width)` (first GPR input is
//!   operand `rs`, second is `rt`), `x: imm(width)`, `x: state(NAME)`.
//!   Output parameters are `out x: gpr` or `out x: state(NAME)`.
//! * Statements are single assignments `name [: width] = expr;`. Assigning
//!   to an output parameter drives it; assigning to a fresh name introduces
//!   a wire.
//! * Expressions: integer literals, names, parentheses, unary `~`, binary
//!   `* + - << >> & ^ |` (C-like precedence), table indexing `tbl[x]`, and
//!   the function forms `mux(sel, a, b)`, `mac(a, b, c)`, `add3(a, b, c)`,
//!   `csa_sum(a, b, c)`, `csa_carry(a, b, c)`, `redand(x)`, `redor(x)`,
//!   `redxor(x)`, `slice(x, lsb, width)`, `pack(a, b, lsb)`, `ltu(a, b)`,
//!   `lts(a, b)`, `eq(a, b)`, `minu(a, b)`, `maxu(a, b)`, `tmul(a, b)`.
//! * Result widths are inferred (max of operand widths; products widen) and
//!   can be pinned per assignment with `name : width = …`.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let set = emx_tie::lang::parse_extension(
//!     "extension demo {
//!         inst addsat(a: gpr(8), b: gpr(8), out d: gpr) {
//!             s : 9 = a + b;
//!             over = ltu(255, s);
//!             d : 8 = mux(over, 255, s);
//!         }
//!     }",
//! )?;
//! let inst = set.by_name("addsat").ok_or("addsat not declared")?;
//! let mut state = set.initial_state();
//! assert_eq!(inst.execute(200, 100, 0, &mut state)?.gpr, Some(255));
//! assert_eq!(inst.execute(3, 4, 0, &mut state)?.gpr, Some(7));
//! # Ok(())
//! # }
//! ```

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt::{self, Write as _};
use std::ops::RangeInclusive;

use emx_hwlib::{DfGraph, LookupTable, NodeDesc, NodeId, PrimOp};

use crate::compile::{derived_latency, is_identifier};
use crate::{CompiledInst, ExtensionBuilder, ExtensionSet, InputBind, OutputBind, StateId};

/// Error produced while parsing or elaborating a TIE-language source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl LangError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        LangError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for LangError {}

/// `v` as a `u8` inside `range`, or an error naming `what` at `line`.
/// Source numbers are 64-bit; a width, position or latency past its range
/// is refused rather than truncated.
fn small(v: u64, what: &str, range: RangeInclusive<u8>, line: usize) -> Result<u8, LangError> {
    u8::try_from(v)
        .ok()
        .filter(|v| range.contains(v))
        .ok_or_else(|| {
            LangError::new(
                line,
                format!("{what} {v} outside {}..={}", range.start(), range.end()),
            )
        })
}

/// Operand ports (GPR and immediate inputs) are at most 32 bits wide.
const PORT_WIDTHS: RangeInclusive<u8> = 1..=32;
/// Node, state and table widths.
const WIDTHS: RangeInclusive<u8> = 1..=64;
/// Bit positions of `slice` and `pack`.
const POSITIONS: RangeInclusive<u8> = 0..=63;
/// Expression nesting the parser accepts before refusing the source (a
/// bound on its recursion, so no input can exhaust the stack).
const MAX_NESTING: usize = 200;

/// The function-call forms of the expression language and the primitive
/// each elaborates to; the parser and the printer both read this table.
const FUNCTIONS: [(&str, PrimOp); 14] = [
    ("mux", PrimOp::Mux),
    ("mac", PrimOp::TieMac),
    ("add3", PrimOp::TieAdd),
    ("csa_sum", PrimOp::TieCsaSum),
    ("csa_carry", PrimOp::TieCsaCarry),
    ("tmul", PrimOp::TieMult),
    ("redand", PrimOp::RedAnd),
    ("redor", PrimOp::RedOr),
    ("redxor", PrimOp::RedXor),
    ("ltu", PrimOp::CmpLtu),
    ("lts", PrimOp::CmpLts),
    ("eq", PrimOp::CmpEq),
    ("minu", PrimOp::MinU),
    ("maxu", PrimOp::MaxU),
];

// --------------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(u64),
    Punct(char),
    Shl,
    Shr,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::Punct(c) => write!(f, "`{c}`"),
            Tok::Shl => write!(f, "`<<`"),
            Tok::Shr => write!(f, "`>>`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

struct Lexer {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
}

impl Lexer {
    fn new(src: &str) -> Result<Self, LangError> {
        let mut tokens = Vec::new();
        let mut line = 1usize;
        let mut chars = src.chars().peekable();
        while let Some(&c) = chars.peek() {
            match c {
                '\n' => {
                    line += 1;
                    chars.next();
                }
                c if c.is_whitespace() => {
                    chars.next();
                }
                '/' => {
                    chars.next();
                    if chars.peek() == Some(&'/') {
                        for c in chars.by_ref() {
                            if c == '\n' {
                                line += 1;
                                break;
                            }
                        }
                    } else {
                        return Err(LangError::new(line, "unexpected `/`"));
                    }
                }
                '#' => {
                    for c in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            break;
                        }
                    }
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let mut ident = String::new();
                    while let Some(&c) = chars.peek() {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            ident.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    tokens.push((Tok::Ident(ident), line));
                }
                c if c.is_ascii_digit() => {
                    let mut text = String::new();
                    while let Some(&c) = chars.peek() {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            text.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    let cleaned = text.replace('_', "");
                    let value = if let Some(hex) = cleaned
                        .strip_prefix("0x")
                        .or_else(|| cleaned.strip_prefix("0X"))
                    {
                        u64::from_str_radix(hex, 16)
                    } else if let Some(bin) = cleaned
                        .strip_prefix("0b")
                        .or_else(|| cleaned.strip_prefix("0B"))
                    {
                        u64::from_str_radix(bin, 2)
                    } else {
                        cleaned.parse()
                    }
                    .map_err(|_| LangError::new(line, format!("bad number `{text}`")))?;
                    tokens.push((Tok::Int(value), line));
                }
                '<' => {
                    chars.next();
                    if chars.peek() == Some(&'<') {
                        chars.next();
                        tokens.push((Tok::Shl, line));
                    } else {
                        return Err(LangError::new(
                            line,
                            "`<` is not an operator; use ltu()/lts()",
                        ));
                    }
                }
                '>' => {
                    chars.next();
                    if chars.peek() == Some(&'>') {
                        chars.next();
                        tokens.push((Tok::Shr, line));
                    } else {
                        return Err(LangError::new(
                            line,
                            "`>` is not an operator; use ltu()/lts()",
                        ));
                    }
                }
                '{' | '}' | '(' | ')' | '[' | ']' | ',' | ';' | ':' | '=' | '+' | '-' | '*'
                | '&' | '|' | '^' | '~' => {
                    tokens.push((Tok::Punct(c), line));
                    chars.next();
                }
                other => {
                    return Err(LangError::new(
                        line,
                        format!("unexpected character `{other}`"),
                    ))
                }
            }
        }
        let last = tokens.last().map_or(line, |(_, l)| *l);
        tokens.push((Tok::Eof, last));
        Ok(Lexer { tokens, pos: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].0
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].1
    }

    fn next(&mut self) -> Tok {
        let t = self.tokens[self.pos].0.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect_punct(&mut self, c: char) -> Result<(), LangError> {
        if self.peek() == &Tok::Punct(c) {
            self.next();
            Ok(())
        } else {
            Err(LangError::new(
                self.line(),
                format!("expected `{c}`, found {}", self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String, LangError> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            other => Err(LangError::new(
                self.line(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), LangError> {
        let line = self.line();
        match self.next() {
            Tok::Ident(s) if s == kw => Ok(()),
            other => Err(LangError::new(
                line,
                format!("expected `{kw}`, found {other}"),
            )),
        }
    }

    fn expect_int(&mut self) -> Result<u64, LangError> {
        let line = self.line();
        match self.next() {
            Tok::Int(v) => Ok(v),
            other => Err(LangError::new(
                line,
                format!("expected number, found {other}"),
            )),
        }
    }

    /// A number that must lie in `range`; see [`small`].
    fn expect_small(&mut self, what: &str, range: RangeInclusive<u8>) -> Result<u8, LangError> {
        let line = self.line();
        small(self.expect_int()?, what, range, line)
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == &Tok::Punct(c) {
            self.next();
            true
        } else {
            false
        }
    }
}

// --------------------------------------------------------------------------
// AST
// --------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Expr {
    Lit(u64),
    Name(String),
    Unary(char, Box<Expr>),
    /// An infix operator, already resolved to its primitive.
    Binary(PrimOp, Box<Expr>, Box<Expr>),
    Call(String, Vec<Expr>),
    Index(String, Box<Expr>),
}

#[derive(Debug, Clone)]
enum ParamKind {
    GprIn(u8),
    ImmIn(u8),
    StateIn(String),
    GprOut,
    StateOut(String),
}

#[derive(Debug, Clone)]
struct Param {
    name: String,
    kind: ParamKind,
    line: usize,
}

#[derive(Debug, Clone)]
struct Stmt {
    name: String,
    width: Option<u8>,
    expr: Expr,
    line: usize,
}

#[derive(Debug, Clone)]
struct InstAst {
    name: String,
    params: Vec<Param>,
    latency: Option<u8>,
    body: Vec<Stmt>,
    line: usize,
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

struct Parser {
    lex: Lexer,
    /// Current expression nesting depth.
    depth: usize,
}

impl Parser {
    fn parse_expr(&mut self) -> Result<Expr, LangError> {
        self.parse_binary(0)
    }

    /// Precedence climbing: level 0 = `|`, 1 = `^`, 2 = `&`, 3 = shifts,
    /// 4 = `+ -`, 5 = `*`.
    fn parse_binary(&mut self, level: u8) -> Result<Expr, LangError> {
        if level > 5 {
            return self.parse_unary();
        }
        let mut lhs = self.parse_binary(level + 1)?;
        loop {
            let op = match (level, self.lex.peek()) {
                (0, Tok::Punct('|')) => PrimOp::Or,
                (1, Tok::Punct('^')) => PrimOp::Xor,
                (2, Tok::Punct('&')) => PrimOp::And,
                (3, Tok::Shl) => PrimOp::Shl,
                (3, Tok::Shr) => PrimOp::Shr,
                (4, Tok::Punct('+')) => PrimOp::Add,
                (4, Tok::Punct('-')) => PrimOp::Sub,
                (5, Tok::Punct('*')) => PrimOp::Mul,
                _ => break,
            };
            self.lex.next();
            let rhs = self.parse_binary(level + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, LangError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(LangError::new(
                self.lex.line(),
                format!("expression nested deeper than {MAX_NESTING}"),
            ));
        }
        let expr = if self.lex.eat_punct('~') {
            self.parse_unary().map(|e| Expr::Unary('~', Box::new(e)))
        } else {
            self.parse_atom()
        };
        self.depth -= 1;
        expr
    }

    fn parse_atom(&mut self) -> Result<Expr, LangError> {
        let line = self.lex.line();
        match self.lex.next() {
            Tok::Int(v) => Ok(Expr::Lit(v)),
            Tok::Punct('(') => {
                let e = self.parse_expr()?;
                self.lex.expect_punct(')')?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.lex.eat_punct('(') {
                    let mut args = Vec::new();
                    if !self.lex.eat_punct(')') {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.lex.eat_punct(')') {
                                break;
                            }
                            self.lex.expect_punct(',')?;
                        }
                    }
                    Ok(Expr::Call(name, args))
                } else if self.lex.eat_punct('[') {
                    let idx = self.parse_expr()?;
                    self.lex.expect_punct(']')?;
                    Ok(Expr::Index(name, Box::new(idx)))
                } else {
                    Ok(Expr::Name(name))
                }
            }
            other => Err(LangError::new(
                line,
                format!("expected expression, found {other}"),
            )),
        }
    }

    /// The optional `(width)` of a `gpr`/`imm` input; 32 when absent.
    fn port_width(&mut self, kind: &str) -> Result<u8, LangError> {
        if !self.lex.eat_punct('(') {
            return Ok(32);
        }
        let w = self
            .lex
            .expect_small(&format!("{kind} width"), PORT_WIDTHS)?;
        self.lex.expect_punct(')')?;
        Ok(w)
    }

    fn parse_param(&mut self) -> Result<Param, LangError> {
        let line = self.lex.line();
        let is_out = matches!(self.lex.peek(), Tok::Ident(s) if s == "out");
        if is_out {
            self.lex.next();
        }
        let name = self.lex.expect_ident()?;
        self.lex.expect_punct(':')?;
        let kind_name = self.lex.expect_ident()?;
        let kind = match (is_out, kind_name.as_str()) {
            (false, "gpr") => ParamKind::GprIn(self.port_width("gpr")?),
            (false, "imm") => ParamKind::ImmIn(self.port_width("imm")?),
            (false, "state") => {
                self.lex.expect_punct('(')?;
                let s = self.lex.expect_ident()?;
                self.lex.expect_punct(')')?;
                ParamKind::StateIn(s)
            }
            (true, "gpr") => ParamKind::GprOut,
            (true, "state") => {
                self.lex.expect_punct('(')?;
                let s = self.lex.expect_ident()?;
                self.lex.expect_punct(')')?;
                ParamKind::StateOut(s)
            }
            (out, other) => {
                return Err(LangError::new(
                    line,
                    format!(
                        "unknown {} parameter kind `{other}`",
                        if out { "output" } else { "input" }
                    ),
                ))
            }
        };
        Ok(Param { name, kind, line })
    }

    fn parse_inst(&mut self) -> Result<InstAst, LangError> {
        let line = self.lex.line();
        let name = self.lex.expect_ident()?;
        self.lex.expect_punct('(')?;
        let mut params = Vec::new();
        if !self.lex.eat_punct(')') {
            loop {
                params.push(self.parse_param()?);
                if self.lex.eat_punct(')') {
                    break;
                }
                self.lex.expect_punct(',')?;
            }
        }
        let latency = if matches!(self.lex.peek(), Tok::Ident(s) if s == "latency") {
            self.lex.next();
            Some(self.lex.expect_small("latency", 1..=u8::MAX)?)
        } else {
            None
        };
        self.lex.expect_punct('{')?;
        let mut body = Vec::new();
        while !self.lex.eat_punct('}') {
            let sline = self.lex.line();
            let name = self.lex.expect_ident()?;
            let width = if self.lex.eat_punct(':') {
                Some(self.lex.expect_small("width", WIDTHS)?)
            } else {
                None
            };
            self.lex.expect_punct('=')?;
            let expr = self.parse_expr()?;
            self.lex.expect_punct(';')?;
            body.push(Stmt {
                name,
                width,
                expr,
                line: sline,
            });
        }
        Ok(InstAst {
            name,
            params,
            latency,
            body,
            line,
        })
    }
}

// --------------------------------------------------------------------------
// Elaboration (AST → DfGraph → ExtensionBuilder)
// --------------------------------------------------------------------------

struct TableDecl {
    entries: Vec<u64>,
    width: u8,
}

struct Elaborator<'a> {
    graph: DfGraph,
    env: HashMap<String, NodeId>,
    tables: &'a HashMap<String, TableDecl>,
    /// Table name → index within `graph` (instantiated lazily so each
    /// instruction only owns the tables it uses).
    table_instances: HashMap<String, usize>,
}

impl Elaborator<'_> {
    fn width_of(&self, id: NodeId) -> u8 {
        self.graph.width(id)
    }

    fn lower(&mut self, expr: &Expr, want: Option<u8>, line: usize) -> Result<NodeId, LangError> {
        let err = |msg: String| LangError::new(line, msg);
        match expr {
            Expr::Lit(v) => {
                let natural = (64 - v.leading_zeros()).max(1) as u8;
                let width = want.unwrap_or(natural);
                if width < natural {
                    return Err(err(format!("literal {v} does not fit {width} bits")));
                }
                self.graph
                    .constant(*v, width)
                    .map_err(|e| err(e.to_string()))
            }
            Expr::Name(name) => {
                let id = *self
                    .env
                    .get(name)
                    .ok_or_else(|| err(format!("unknown name `{name}`")))?;
                match want {
                    Some(w) if w != self.width_of(id) => self
                        .graph
                        .node(PrimOp::Slice { lsb: 0 }, w, &[id])
                        .map_err(|e| err(e.to_string())),
                    _ => Ok(id),
                }
            }
            Expr::Unary('~', inner) => {
                let a = self.lower(inner, None, line)?;
                let w = want.unwrap_or(self.width_of(a));
                self.graph
                    .node(PrimOp::Not, w, &[a])
                    .map_err(|e| err(e.to_string()))
            }
            Expr::Unary(op, _) => Err(err(format!("unknown unary operator `{op}`"))),
            Expr::Binary(op, l, r) => {
                let a = self.lower(l, None, line)?;
                let b = self.lower(r, None, line)?;
                let (wa, wb) = (self.width_of(a), self.width_of(b));
                let natural = match op {
                    PrimOp::Mul => (wa as u16 + wb as u16).min(64) as u8,
                    PrimOp::Add => wa.max(wb).saturating_add(1).min(64),
                    PrimOp::Shl | PrimOp::Shr => wa,
                    _ => wa.max(wb),
                };
                let w = want.unwrap_or(natural);
                self.graph
                    .node(*op, w, &[a, b])
                    .map_err(|e| err(e.to_string()))
            }
            Expr::Index(table, idx) => {
                let decl = self
                    .tables
                    .get(table)
                    .ok_or_else(|| err(format!("unknown table `{table}`")))?;
                let table_index = match self.table_instances.get(table) {
                    Some(&i) => i,
                    None => {
                        let t = LookupTable::new(decl.entries.clone(), decl.width)
                            .map_err(|e| err(e.to_string()))?;
                        let i = self.graph.add_table(t);
                        self.table_instances.insert(table.clone(), i);
                        i
                    }
                };
                let i = self.lower(idx, None, line)?;
                let w = want.unwrap_or(decl.width);
                self.graph
                    .node(PrimOp::TableLookup { table_index }, w, &[i])
                    .map_err(|e| err(e.to_string()))
            }
            Expr::Call(name, args) => self.lower_call(name, args, want, line),
        }
    }

    fn lower_call(
        &mut self,
        name: &str,
        args: &[Expr],
        want: Option<u8>,
        line: usize,
    ) -> Result<NodeId, LangError> {
        let err = |msg: String| LangError::new(line, msg);
        let arity = |n: usize| -> Result<(), LangError> {
            if args.len() != n {
                Err(LangError::new(
                    line,
                    format!("`{name}` takes {n} arguments, found {}", args.len()),
                ))
            } else {
                Ok(())
            }
        };

        // slice/pack take literal positions, handle them first.
        if name == "slice" {
            arity(3)?;
            let x = self.lower(&args[0], None, line)?;
            let (Expr::Lit(lsb), Expr::Lit(width)) = (&args[1], &args[2]) else {
                return Err(err("slice(x, lsb, width) needs literal lsb/width".into()));
            };
            let lsb = small(*lsb, "slice lsb", POSITIONS, line)?;
            let width = small(*width, "slice width", WIDTHS, line)?;
            return self
                .graph
                .node(PrimOp::Slice { lsb }, width, &[x])
                .map_err(|e| err(e.to_string()));
        }
        if name == "pack" {
            arity(3)?;
            let a = self.lower(&args[0], None, line)?;
            let b = self.lower(&args[1], None, line)?;
            let Expr::Lit(lsb) = &args[2] else {
                return Err(err("pack(a, b, lsb) needs a literal lsb".into()));
            };
            let lsb = small(*lsb, "pack lsb", POSITIONS, line)?;
            let natural = (u16::from(lsb) + u16::from(self.width_of(b))).min(64) as u8;
            let w = want.unwrap_or_else(|| natural.max(self.width_of(a)));
            return self
                .graph
                .node(PrimOp::Pack { lsb }, w, &[a, b])
                .map_err(|e| err(e.to_string()));
        }

        let lowered: Result<Vec<NodeId>, LangError> =
            args.iter().map(|a| self.lower(a, None, line)).collect();
        let inputs = lowered?;
        let max_w = inputs.iter().map(|&i| self.width_of(i)).max().unwrap_or(1);

        let prim = FUNCTIONS
            .iter()
            .find(|(f, _)| *f == name)
            .map(|&(_, op)| op)
            .ok_or_else(|| err(format!("unknown function `{name}`")))?;
        arity(prim.arity())?;
        let width = |i: usize| u16::from(self.width_of(inputs[i]));
        let natural = match prim {
            PrimOp::Mux => width(1).max(width(2)) as u8,
            PrimOp::TieMac => (width(0) + width(1)).max(width(2)).min(64) as u8,
            PrimOp::TieAdd => max_w.saturating_add(2).min(64),
            PrimOp::TieCsaCarry => max_w.saturating_add(1).min(64),
            PrimOp::TieMult => (width(0) + width(1)).min(64) as u8,
            PrimOp::TieCsaSum | PrimOp::MinU | PrimOp::MaxU => max_w,
            _ => 1, // reductions and comparisons
        };
        let w = want.unwrap_or(natural);
        self.graph
            .node(prim, w, &inputs)
            .map_err(|e| err(e.to_string()))
    }
}

/// Parses one `extension … { … }` block into a compiled [`ExtensionSet`].
///
/// # Errors
///
/// Returns a [`LangError`] (with the offending source line) for lexical,
/// syntactic and elaboration errors, including the [`crate::TieError`]s of
/// the underlying extension compiler.
pub fn parse_extension(src: &str) -> Result<ExtensionSet, LangError> {
    let mut p = Parser {
        lex: Lexer::new(src)?,
        depth: 0,
    };
    p.lex.expect_keyword("extension")?;
    let ext_name = p.lex.expect_ident()?;
    p.lex.expect_punct('{')?;

    let mut builder = ExtensionBuilder::new(ext_name);
    let mut states: HashMap<String, (StateId, u8)> = HashMap::new();
    let mut tables: HashMap<String, TableDecl> = HashMap::new();
    let mut insts: Vec<InstAst> = Vec::new();

    while !p.lex.eat_punct('}') {
        let line = p.lex.line();
        let kw = p.lex.expect_ident()?;
        match kw.as_str() {
            "state" => {
                let name = p.lex.expect_ident()?;
                p.lex.expect_punct(':')?;
                let width = p.lex.expect_small("state width", WIDTHS)?;
                p.lex.expect_punct(';')?;
                let id = builder
                    .state(name.clone(), width)
                    .map_err(|e| LangError::new(line, e.to_string()))?;
                states.insert(name, (id, width));
            }
            "table" => {
                let name = p.lex.expect_ident()?;
                p.lex.expect_punct('[')?;
                let entries = p.lex.expect_int()? as usize;
                p.lex.expect_punct(']')?;
                p.lex.expect_punct(':')?;
                let width = p.lex.expect_small("table width", WIDTHS)?;
                p.lex.expect_punct('=')?;
                p.lex.expect_punct('{')?;
                let mut values = Vec::new();
                if !p.lex.eat_punct('}') {
                    loop {
                        values.push(p.lex.expect_int()?);
                        if p.lex.eat_punct('}') {
                            break;
                        }
                        p.lex.expect_punct(',')?;
                    }
                }
                p.lex.expect_punct(';')?;
                if values.len() != entries {
                    return Err(LangError::new(
                        line,
                        format!(
                            "table `{name}` declares {entries} entries but lists {}",
                            values.len()
                        ),
                    ));
                }
                tables.insert(
                    name,
                    TableDecl {
                        entries: values,
                        width,
                    },
                );
            }
            "inst" => insts.push(p.parse_inst()?),
            other => {
                return Err(LangError::new(
                    line,
                    format!("expected `state`, `table` or `inst`, found `{other}`"),
                ))
            }
        }
    }

    for ast in insts {
        elaborate_inst(&mut builder, &states, &tables, ast)?;
    }
    builder
        .build()
        .map_err(|e| LangError::new(0, format!("extension compilation failed: {e}")))
}

fn elaborate_inst(
    builder: &mut ExtensionBuilder,
    states: &HashMap<String, (StateId, u8)>,
    tables: &HashMap<String, TableDecl>,
    ast: InstAst,
) -> Result<(), LangError> {
    let mut elab = Elaborator {
        graph: DfGraph::new(),
        env: HashMap::new(),
        tables,
        table_instances: HashMap::new(),
    };

    // Declare graph inputs and remember operand bindings.
    let mut input_binds = Vec::new();
    let mut gpr_inputs = 0;
    let mut outputs: Vec<(String, OutputBind, Option<u8>, usize)> = Vec::new();
    for param in &ast.params {
        match &param.kind {
            ParamKind::GprIn(w) => {
                let id = elab.graph.input(&param.name, *w);
                elab.env.insert(param.name.clone(), id);
                input_binds.push(match gpr_inputs {
                    0 => InputBind::GprS,
                    1 => InputBind::GprT,
                    _ => {
                        return Err(LangError::new(
                            param.line,
                            "at most two gpr inputs (operand buses rs/rt)".to_owned(),
                        ))
                    }
                });
                gpr_inputs += 1;
            }
            ParamKind::ImmIn(w) => {
                let id = elab.graph.input(&param.name, *w);
                elab.env.insert(param.name.clone(), id);
                input_binds.push(InputBind::Imm);
            }
            ParamKind::StateIn(state_name) => {
                let &(sid, w) = states.get(state_name).ok_or_else(|| {
                    LangError::new(param.line, format!("unknown state `{state_name}`"))
                })?;
                let id = elab.graph.input(&param.name, w);
                elab.env.insert(param.name.clone(), id);
                input_binds.push(InputBind::State(sid));
            }
            ParamKind::GprOut => {
                outputs.push((param.name.clone(), OutputBind::Gpr, None, param.line));
            }
            ParamKind::StateOut(state_name) => {
                let &(sid, w) = states.get(state_name).ok_or_else(|| {
                    LangError::new(param.line, format!("unknown state `{state_name}`"))
                })?;
                outputs.push((
                    param.name.clone(),
                    OutputBind::State(sid),
                    Some(w),
                    param.line,
                ));
            }
        }
    }

    // Lower the body; assignments to output names drive the outputs.
    let mut driven: HashMap<String, NodeId> = HashMap::new();
    for stmt in &ast.body {
        let is_output = outputs.iter().any(|(n, ..)| n == &stmt.name);
        if elab.env.contains_key(&stmt.name) || driven.contains_key(&stmt.name) {
            return Err(LangError::new(
                stmt.line,
                format!("`{}` assigned twice", stmt.name),
            ));
        }
        // Output-to-state assignments coerce to the state's width.
        let want = stmt.width.or_else(|| {
            outputs
                .iter()
                .find(|(n, ..)| n == &stmt.name)
                .and_then(|(_, _, w, _)| *w)
        });
        let id = elab.lower(&stmt.expr, want, stmt.line)?;
        if is_output {
            driven.insert(stmt.name.clone(), id);
        } else {
            elab.env.insert(stmt.name.clone(), id);
        }
    }

    // Register outputs in parameter order.
    let mut output_binds = Vec::new();
    for (name, bind, _, line) in &outputs {
        let &id = driven
            .get(name)
            .ok_or_else(|| LangError::new(*line, format!("output `{name}` is never assigned")))?;
        elab.graph.output(id);
        output_binds.push(*bind);
    }

    let line = ast.line;
    let mut inst = builder
        .instruction(ast.name, elab.graph)
        .map_err(|e| LangError::new(line, e.to_string()))?;
    for bind in input_binds {
        inst.bind_input(bind)
            .map_err(|e| LangError::new(line, e.to_string()))?;
    }
    for bind in output_binds {
        inst.bind_output(bind)
            .map_err(|e| LangError::new(line, e.to_string()))?;
    }
    if let Some(latency) = ast.latency {
        inst.latency(latency)
            .map_err(|e| LangError::new(line, e.to_string()))?;
    }
    Ok(())
}

// --------------------------------------------------------------------------
// Printing (ExtensionSet → source)
// --------------------------------------------------------------------------

/// Prints one dataflow operation as the statement that elaborates back to
/// exactly that node: `name : width = expr;` over the operand names
/// `args`, where `table(i)` names the graph's table `i` for a lookup. A
/// `slice` states its width among its arguments and is printed unpinned.
///
/// # Errors
///
/// A [`LangError`] (line 0) for an operation the language has no form
/// for: today [`PrimOp::MulS`] and [`PrimOp::Sar`].
pub fn print_node(
    name: &str,
    op: PrimOp,
    width: u8,
    args: &[&str],
    table: impl FnOnce(usize) -> String,
) -> Result<String, LangError> {
    let infix = |symbol: &str| format!("{} {symbol} {}", args[0], args[1]);
    let expr = match op {
        PrimOp::Mul => infix("*"),
        PrimOp::Add => infix("+"),
        PrimOp::Sub => infix("-"),
        PrimOp::And => infix("&"),
        PrimOp::Or => infix("|"),
        PrimOp::Xor => infix("^"),
        PrimOp::Shl => infix("<<"),
        PrimOp::Shr => infix(">>"),
        PrimOp::Not => format!("~{}", args[0]),
        PrimOp::Slice { lsb } => {
            return Ok(format!("{name} = slice({}, {lsb}, {width});", args[0]))
        }
        PrimOp::Pack { lsb } => format!("pack({}, {}, {lsb})", args[0], args[1]),
        PrimOp::TableLookup { table_index } => format!("{}[{}]", table(table_index), args[0]),
        op => match FUNCTIONS.iter().find(|&&(_, f)| f == op) {
            Some((function, _)) => format!("{function}({})", args.join(", ")),
            None => {
                return Err(LangError::new(
                    0,
                    format!("`{op}` has no TIE-language form"),
                ))
            }
        },
    };
    Ok(format!("{name} : {width} = {expr};"))
}

/// Prints `set` as source that [`parse_extension`] compiles back to an
/// equal set, down to its `Debug` form: the states, the lookup tables,
/// then each instruction with one pinned statement per graph node, in
/// node order. Inputs keep their graph names; other nodes are named
/// `v<node index>`.
///
/// # Errors
///
/// A [`LangError`] (line 0, naming the instruction) for what the language
/// cannot say: an operation with no surface form ([`print_node`]), a name
/// that is not an identifier, an input declared after another node or
/// named twice, an `rt` operand bound before `rs`, tables not first read
/// in the order the graph declares them, or a state output narrower or
/// wider than its state.
pub fn print(set: &ExtensionSet) -> Result<String, LangError> {
    let fail = |message: String| LangError::new(0, message);
    identifier(set.name()).map_err(fail)?;
    let mut states = Vec::new();
    for s in set.states() {
        identifier(s.name()).map_err(fail)?;
        states.push((s.name(), s.width()));
    }
    let mut tables: Vec<&LookupTable> = Vec::new();
    let mut insts = Vec::new();
    for inst in set {
        let block = print_inst(set, inst, &mut tables)
            .map_err(|m| fail(format!("inst `{}`: {m}", inst.name())))?;
        insts.push(block);
    }
    let tables: Vec<(&[u64], u8)> = tables.iter().map(|t| (t.entries(), t.width())).collect();
    Ok(layout(set.name(), &states, &tables, &insts))
}

/// Lays out an extension's source the way [`print()`] does: `states`
/// as `(name, width)`, then `tables` as `(entries, width)`, declared
/// `t0`, `t1`, … in order, then one block per instruction from its
/// header (`name(params)`, with ` latency N` if any) and statements.
pub fn layout(
    name: &str,
    states: &[(&str, u8)],
    tables: &[(&[u64], u8)],
    insts: &[(String, Vec<String>)],
) -> String {
    let mut text = format!("extension {name} {{\n");
    for (state, width) in states {
        let _ = writeln!(text, "    state {state} : {width};");
    }
    for (i, (entries, width)) in tables.iter().enumerate() {
        let values: Vec<String> = entries.iter().map(u64::to_string).collect();
        let _ = writeln!(
            text,
            "    table t{i}[{}] : {width} = {{ {} }};",
            values.len(),
            values.join(", ")
        );
    }
    for (header, stmts) in insts {
        let _ = writeln!(text, "    inst {header} {{");
        for stmt in stmts {
            let _ = writeln!(text, "        {stmt}");
        }
        let _ = writeln!(text, "    }}");
    }
    text.push('}');
    text
}

/// `Ok` when `name` lexes as one identifier.
fn identifier(name: &str) -> Result<(), String> {
    is_identifier(name)
        .then_some(())
        .ok_or_else(|| format!("`{name}` is not an identifier"))
}

/// A generated name, suffixed with `_` until no input or earlier name of
/// the instruction has it.
fn fresh(taken: &mut HashSet<String>, mut name: String) -> String {
    while taken.contains(&name) {
        name.push('_');
    }
    taken.insert(name.clone());
    name
}

/// One instruction's header and statements for [`layout`], declaring in
/// `tables` (shared by the whole extension) any table contents not
/// declared yet.
fn print_inst<'s>(
    set: &ExtensionSet,
    inst: &'s CompiledInst,
    tables: &mut Vec<&'s LookupTable>,
) -> Result<(String, Vec<String>), String> {
    let g = inst.graph();
    let mut taken: HashSet<String> = HashSet::new();
    for name in g.input_signature().into_iter().map(|(n, _)| n) {
        identifier(&name)?;
        if name == "out" || !taken.insert(name.clone()) {
            return Err(format!("input name `{name}` cannot be a parameter"));
        }
    }
    let mut params = Vec::new();
    let mut stmts = Vec::new();
    let mut names: Vec<String> = Vec::with_capacity(g.node_count());
    // Graph table index → index of its declaration in `tables`.
    let mut read: Vec<usize> = Vec::new();
    let mut gpr_inputs = 0;
    for id in g.ids() {
        let name = match g.node_desc(id) {
            NodeDesc::Input { name, width } => {
                if !stmts.is_empty() {
                    return Err(format!("input `{name}` follows a non-input node"));
                }
                let kind = match inst.input_binds()[params.len()] {
                    bind @ (InputBind::GprS | InputBind::GprT) => {
                        if [InputBind::GprS, InputBind::GprT].get(gpr_inputs) != Some(&bind) {
                            return Err("gpr inputs bind other than rs, then rt".to_owned());
                        }
                        gpr_inputs += 1;
                        format!("gpr({width})")
                    }
                    InputBind::Imm => format!("imm({width})"),
                    InputBind::State(sid) => format!("state({})", set.states()[sid.index()].name()),
                };
                params.push(format!("{name}: {kind}"));
                name.to_owned()
            }
            NodeDesc::Const { value, width } => {
                let v = fresh(&mut taken, format!("v{}", id.index()));
                stmts.push(format!("{v} : {width} = {value};"));
                v
            }
            NodeDesc::Op { op, width, inputs } => {
                if let PrimOp::TableLookup { table_index } = op {
                    if table_index == read.len() {
                        // Share a declaration across instructions, never
                        // within one: each table an instruction reads is
                        // its own instance.
                        let t = &g.tables()[table_index];
                        let j = (0..tables.len())
                            .find(|j| tables[*j] == t && !read.contains(j))
                            .unwrap_or_else(|| {
                                tables.push(t);
                                tables.len() - 1
                            });
                        read.push(j);
                    } else if table_index > read.len() {
                        return Err("tables are not first read in declaration order".to_owned());
                    }
                }
                let v = fresh(&mut taken, format!("v{}", id.index()));
                let args: Vec<&str> = inputs.iter().map(|i| names[i.index()].as_str()).collect();
                let table = |i: usize| format!("t{}", read[i]);
                stmts.push(print_node(&v, op, width, &args, table).map_err(|e| e.message)?);
                v
            }
        };
        names.push(name);
    }
    if read.len() != g.tables().len() {
        return Err("declares a table it never reads".to_owned());
    }
    for (k, (id, bind)) in g.output_ids().iter().zip(inst.output_binds()).enumerate() {
        let (param, kind) = match bind {
            OutputBind::Gpr => (fresh(&mut taken, "d".to_owned()), "gpr".to_owned()),
            OutputBind::State(sid) => {
                let state = &set.states()[sid.index()];
                if g.width(*id) != state.width() {
                    return Err(format!(
                        "output {k} is not as wide as state `{}`",
                        state.name()
                    ));
                }
                (
                    fresh(&mut taken, format!("o{k}")),
                    format!("state({})", state.name()),
                )
            }
        };
        params.push(format!("out {param}: {kind}"));
        stmts.push(format!("{param} = {};", names[id.index()]));
    }
    let latency = if inst.latency() == derived_latency(g, &g.op_nodes()) {
        String::new()
    } else {
        format!(" latency {}", inst.latency())
    };
    let header = format!("{}({}){latency}", inst.name(), params.join(", "));
    Ok((header, stmts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_mac_extension() {
        let set = parse_extension(
            "extension mac16 {
                state acc : 40;
                inst mac(a: gpr(16), b: gpr(16), acc_in: state(acc), out acc_out: state(acc)) {
                    acc_out = mac(a, b, acc_in);
                }
                inst rdacc(acc_in: state(acc), out d: gpr) {
                    d = slice(acc_in, 0, 32);
                }
                inst clracc(out acc_out: state(acc)) {
                    acc_out : 40 = 0;
                }
            }",
        )
        .expect("parses");
        assert_eq!(set.len(), 3);
        let mac = set.by_name("mac").expect("declared");
        let mut state = set.initial_state();
        mac.execute(100, 200, 0, &mut state).expect("runs");
        mac.execute(3, 4, 0, &mut state).expect("runs");
        assert_eq!(state[0], 20012);
        let rd = set.by_name("rdacc").expect("declared");
        assert_eq!(
            rd.execute(0, 0, 0, &mut state).expect("runs").gpr,
            Some(20012)
        );
    }

    #[test]
    fn expression_precedence_is_c_like() {
        let set = parse_extension(
            "extension demo {
                inst f(a: gpr(8), b: gpr(8), out d: gpr) {
                    d : 16 = a + b * 2;    // mul binds tighter
                }
                inst g(a: gpr(8), b: gpr(8), out d: gpr) {
                    d : 16 = (a + b) * 2;
                }
            }",
        )
        .expect("parses");
        let mut st = set.initial_state();
        let f = set.by_name("f").expect("declared");
        let g = set.by_name("g").expect("declared");
        assert_eq!(f.execute(3, 5, 0, &mut st).expect("runs").gpr, Some(13));
        assert_eq!(g.execute(3, 5, 0, &mut st).expect("runs").gpr, Some(16));
    }

    #[test]
    fn tables_and_comparisons() {
        let set = parse_extension(
            "extension t {
                table sq[8] : 8 = { 0, 1, 4, 9, 16, 25, 36, 49 };
                inst f(a: gpr(3), b: gpr(8), out d: gpr) {
                    s = sq[a];
                    bigger = ltu(b, s);
                    d : 8 = mux(bigger, s, b);
                }
            }",
        )
        .expect("parses");
        let f = set.by_name("f").expect("declared");
        let mut st = set.initial_state();
        assert_eq!(f.execute(4, 10, 0, &mut st).expect("runs").gpr, Some(16));
        assert_eq!(f.execute(2, 10, 0, &mut st).expect("runs").gpr, Some(10));
    }

    #[test]
    fn immediates_and_latency() {
        let set = parse_extension(
            "extension t {
                inst addk(a: gpr, k: imm(8), out d: gpr) latency 3 {
                    d : 32 = a + k;
                }
            }",
        )
        .expect("parses");
        let inst = set.by_name("addk").expect("declared");
        assert_eq!(inst.latency(), 3);
        let mut st = set.initial_state();
        assert_eq!(inst.execute(40, 0, 2, &mut st).expect("runs").gpr, Some(42));
    }

    #[test]
    fn dsl_matches_builder_semantics_for_gf16() {
        // The same GF(2^4) multiplier written in the language must agree
        // with the reference implementation on the full multiplication
        // table.
        let log: Vec<String> = tests_gf_log();
        let exp: Vec<String> = tests_gf_exp();
        let src = format!(
            "extension gf {{
                table logt[16] : 4 = {{ {} }};
                table expt[32] : 4 = {{ {} }};
                inst gfmul(a: gpr(4), b: gpr(4), out d: gpr) {{
                    la = logt[a];
                    lb = logt[b];
                    s : 5 = la + lb;
                    p = expt[s];
                    nz = redor(a) & redor(b);
                    d : 4 = mux(nz, p, 0);
                }}
            }}",
            log.join(", "),
            exp.join(", ")
        );
        let set = parse_extension(&src).expect("parses");
        let gfmul = set.by_name("gfmul").expect("declared");
        let mut st = set.initial_state();
        for a in 0..16u32 {
            for b in 0..16u32 {
                let got = gfmul
                    .execute(a, b, 0, &mut st)
                    .expect("runs")
                    .gpr
                    .expect("writes");
                assert_eq!(got as u8, reference_gf_mul(a as u8, b as u8), "{a}⊗{b}");
            }
        }
    }

    fn reference_gf_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        for _ in 0..4 {
            if b & 1 != 0 {
                p ^= a;
            }
            b >>= 1;
            let carry = a & 8;
            a = (a << 1) & 0xf;
            if carry != 0 {
                a ^= 0b0011;
            }
        }
        p & 0xf
    }

    fn gf_exp(i: usize) -> u8 {
        let mut v = 1u8;
        for _ in 0..(i % 15) {
            v = reference_gf_mul(v, 2);
        }
        v
    }

    fn tests_gf_log() -> Vec<String> {
        let mut t = [0u8; 16];
        for x in 1..16u8 {
            t[x as usize] = (0..15).find(|&i| gf_exp(i) == x).expect("generator") as u8;
        }
        t.iter().map(|v| v.to_string()).collect()
    }

    fn tests_gf_exp() -> Vec<String> {
        (0..32).map(|i| gf_exp(i % 15).to_string()).collect()
    }

    #[test]
    fn error_reporting_points_at_lines() {
        let err = parse_extension("extension x {\n  bogus y;\n}").expect_err("bad keyword");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));

        let err =
            parse_extension("extension x {\n inst f(a: gpr, out d: gpr) {\n  d = q + 1;\n }\n}")
                .expect_err("unknown name");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unknown name"));

        let err = parse_extension("extension x {\n inst f(a: gpr, out d: gpr) {\n  w = a;\n }\n}")
            .expect_err("undriven output");
        assert!(err.message.contains("never assigned"));

        let err = parse_extension("extension x {\n table t[2] : 4 = { 1, 2, 3 };\n}")
            .expect_err("entry count mismatch");
        assert!(err.message.contains("declares 2 entries"));
    }

    #[test]
    fn out_of_range_numbers_are_errors_not_truncations() {
        for (body, what) in [
            ("state s : 264;", "state width 264"),
            ("table t[1] : 65 = { 1 };", "table width 65"),
            (
                "inst f(a: gpr(264), out d: gpr) { d = a; }",
                "gpr width 264",
            ),
            ("inst f(a: imm(0), out d: gpr) { d = a; }", "imm width 0"),
            (
                "inst f(a: gpr, out d: gpr) latency 257 { d = a; }",
                "latency 257",
            ),
            (
                "inst f(a: gpr, out d: gpr) latency 0 { d = a; }",
                "latency 0",
            ),
            ("inst f(a: gpr, out d: gpr) { d : 300 = a; }", "width 300"),
            (
                "inst f(a: gpr, out d: gpr) { d = slice(a, 264, 8); }",
                "slice lsb 264",
            ),
            (
                "inst f(a: gpr, out d: gpr) { d = slice(a, 0, 65); }",
                "slice width 65",
            ),
            (
                "inst f(a: gpr, out d: gpr) { d = pack(a, a, 64); }",
                "pack lsb 64",
            ),
        ] {
            let err = parse_extension(&format!("extension x {{\n{body}\n}}")).expect_err(what);
            assert_eq!(err.line, 2, "{what}");
            assert!(err.message.contains(what), "{what}: {}", err.message);
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for (open, close) in [("(", ")"), ("~", ""), ("redor(", ")")] {
            let src = format!(
                "extension x {{ inst f(a: gpr, out d: gpr) {{ d = {}a{}; }} }}",
                open.repeat(100_000),
                close.repeat(100_000)
            );
            let err = parse_extension(&src).expect_err("too deep");
            assert!(err.message.contains("nested deeper"), "{}", err.message);
        }
    }

    fn two_in(op: PrimOp, binds: [InputBind; 2]) -> ExtensionSet {
        let mut g = DfGraph::new();
        let a = g.input("a", 8);
        let b = g.input("b", 8);
        let n = g.node(op, 8, &[a, b]).expect("node");
        g.output(n);
        let mut ext = ExtensionBuilder::new("x");
        let mut inst = ext.instruction("f", g).expect("inst");
        for bind in binds {
            inst.bind_input(bind).expect("bind");
        }
        inst.bind_output(OutputBind::Gpr).expect("bind");
        ext.build().expect("compiles")
    }

    #[test]
    fn printed_source_compiles_to_the_same_set() {
        let src = "extension demo {
            state acc : 40;
            table sq[4] : 8 = { 0, 1, 4, 9 };
            inst f(a: gpr(8), k: imm(6), acc: state(acc), out d: gpr, out n: state(acc)) latency 5 {
                s = sq[a];
                t : 9 = s + k;
                n = mac(a, t, acc);
                d = pack(t, slice(acc, 8, 4), 9);
            }
            inst g(a: gpr(2), out d: gpr) {
                d = sq[a] ^ 3;
            }
        }";
        let set = parse_extension(src).expect("parses");
        let text = print(&set).expect("prints");
        let back = parse_extension(&text).expect("printed source parses");
        assert_eq!(format!("{back:?}"), format!("{set:?}"), "{text}");
        // Both instructions read the same table: one declaration.
        assert_eq!(text.matches("table ").count(), 1, "{text}");
        assert!(text.contains(") latency 5 {"), "{text}");
        assert!(!text.contains(") latency 1 {"), "{text}");
    }

    #[test]
    fn what_the_language_cannot_say_is_a_typed_error() {
        for op in [PrimOp::MulS, PrimOp::Sar] {
            let err = print(&two_in(op, [InputBind::GprS, InputBind::GprT])).expect_err("no form");
            assert!(err.message.contains(&format!("`{op}`")), "{}", err.message);
        }
        let err = print(&two_in(PrimOp::Add, [InputBind::GprT, InputBind::GprS]))
            .expect_err("rt before rs");
        assert!(err.message.contains("inst `f`"), "{}", err.message);
    }

    #[test]
    fn csa_functions_work() {
        let set = parse_extension(
            "extension c {
                inst f(a: gpr(8), b: gpr(8), out d: gpr) {
                    s = csa_sum(a, b, 7);
                    k : 9 = csa_carry(a, b, 7);
                    d : 10 = add3(s, k, 0);
                }
            }",
        )
        .expect("parses");
        let f = set.by_name("f").expect("declared");
        let mut st = set.initial_state();
        assert_eq!(f.execute(100, 50, 0, &mut st).expect("runs").gpr, Some(157));
    }
}
