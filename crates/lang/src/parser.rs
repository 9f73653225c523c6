//! Recursive-descent parser for P4lite programs.
//!
//! Grammar sketch (see `README.md` for a tutorial):
//!
//! ```text
//! program   := item*
//! item      := header | metadata | register | parser | action | table
//!            | control | pipeline | topology | deparser | intent
//! header    := "header" IDENT "{" (IDENT ":" NUM ";")* "}"
//! metadata  := "metadata" IDENT "{" (IDENT ":" NUM ";")* "}"
//! register  := "register" IDENT "[" NUM "]" ":" NUM ";"
//! parser    := "parser" IDENT "{" state* "}"
//! state     := "state" IDENT "{" ("extract" "(" IDENT ")" ";")* trans "}"
//! trans     := "accept" ";" | "goto" IDENT ";"
//!            | "select" "(" expr ")" "{" (pat "=>" IDENT ";")* "default" "=>" IDENT ";" "}"
//! pat       := NUM | NUM "&&&" NUM | NUM ".." NUM
//! action    := "action" IDENT "(" (IDENT ":" NUM),* ")" "{" astmt* "}"
//! astmt     := lvalue "=" expr ";" | IDENT "." "setValid" "(" ")" ";" | …setInvalid…
//! table     := "table" IDENT "{" "key" "=" "{" (field ":" kind ";")* "}" ";"?
//!              "actions" "=" "{" (IDENT ";")* "}" ";"?
//!              ["default_action" "=" IDENT "(" args ")" ";"] ["size" "=" NUM ";"] "}"
//! control   := "control" IDENT "{" cstmt* "}"
//! cstmt     := "apply" "(" IDENT ")" ";" | "call" IDENT "(" args ")" ";"
//!            | "if" "(" cond ")" "{" cstmt* "}" ["else" ("{" cstmt* "}" | if…)]
//! pipeline  := "pipeline" IDENT "{" ["parser" "=" IDENT ";"] "control" "=" IDENT ";" "}"
//! topology  := "topology" "{" (IDENT "->" IDENT ["when" "(" cond ")"] ";")* "}"
//! deparser  := "deparser" "{" ("emit" "(" IDENT ")" ";")* "}"
//! intent    := "intent" IDENT "{" "given" cond ";" "expect" cond ";" "}"
//! ```
//!
//! Expression precedence (loosest→tightest): `||`, `&&`, comparison,
//! `|`, `^`, `&`, shifts, `+ -`, unary `~ !`.

use crate::ast::*;
use crate::lexer::{lex, LexError, Tok, Token};
use meissa_ir::{AOp, CmpOp, HashAlg};
use std::fmt;

/// A parse (or lex) failure with a source line.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// Explanation.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
        }
    }
}

/// Deepest nesting of parentheses, conditions and control blocks
/// [`parse_program`] accepts. The parser recurses once per level, so
/// without a cap a few kilobytes of `((((…` overflow the parsing thread's
/// stack; corpus programs nest fewer than a dozen levels.
pub const MAX_NESTING: u32 = 64;

/// Parses a whole P4lite program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut prog = p.program()?;
    prog.loc = crate::count_loc(src);
    Ok(prog)
}

pub(crate) struct Parser {
    pub(crate) tokens: Vec<Token>,
    pub(crate) pos: usize,
    /// Recursive productions currently open (see [`MAX_NESTING`]).
    depth: u32,
}

impl Parser {
    pub(crate) fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    pub(crate) fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    pub(crate) fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            line: self.line(),
        })
    }

    pub(crate) fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek()))
        }
    }

    pub(crate) fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    pub(crate) fn num(&mut self) -> Result<u128, ParseError> {
        match *self.peek() {
            Tok::Num(n) => {
                self.bump();
                Ok(n)
            }
            ref other => self.err(format!("expected number, found {other}")),
        }
    }

    /// Parses `a` or `a.b.c…` into a dotted name.
    pub(crate) fn dotted(&mut self) -> Result<String, ParseError> {
        let mut s = self.ident()?;
        while self.eat(Tok::Dot) {
            s.push('.');
            s.push_str(&self.ident()?);
        }
        Ok(s)
    }

    fn kw(&mut self, word: &str) -> Result<(), ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) if s == word => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{word}`, found {other}")),
        }
    }

    fn at_kw(&self, word: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == word)
    }

    /// Runs one recursive production, failing at the current line once
    /// [`MAX_NESTING`] are open. The depth is restored on error too, since
    /// `atom_cond` backtracks out of failed attempts.
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let r = parse(self);
        self.depth -= 1;
        r
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(kw) => match kw.as_str() {
                    "header" => {
                        self.bump();
                        let name = self.ident()?;
                        let fields = self.field_block()?;
                        prog.headers.push(HeaderDecl { name, fields });
                    }
                    "metadata" => {
                        self.bump();
                        let name = self.ident()?;
                        let fields = self.field_block()?;
                        prog.metadatas.push(MetadataDecl { name, fields });
                    }
                    "register" => {
                        self.bump();
                        let name = self.ident()?;
                        self.expect(Tok::LBracket)?;
                        let size = self.num()? as u32;
                        self.expect(Tok::RBracket)?;
                        self.expect(Tok::Colon)?;
                        let width = self.num()? as u16;
                        self.expect(Tok::Semi)?;
                        prog.registers.push(RegisterDecl { name, size, width });
                    }
                    "parser" => {
                        self.bump();
                        let decl = self.parser_decl()?;
                        prog.parsers.push(decl);
                    }
                    "action" => {
                        self.bump();
                        let decl = self.action_decl()?;
                        prog.actions.push(decl);
                    }
                    "table" => {
                        self.bump();
                        let decl = self.table_decl()?;
                        prog.tables.push(decl);
                    }
                    "control" => {
                        self.bump();
                        let name = self.ident()?;
                        self.expect(Tok::LBrace)?;
                        let body = self.ctrl_stmts()?;
                        self.expect(Tok::RBrace)?;
                        prog.controls.push(ControlDecl { name, body });
                    }
                    "pipeline" => {
                        self.bump();
                        let decl = self.pipeline_decl()?;
                        prog.pipelines.push(decl);
                    }
                    "topology" => {
                        self.bump();
                        self.expect(Tok::LBrace)?;
                        while !self.eat(Tok::RBrace) {
                            let from = self.ident()?;
                            self.expect(Tok::Arrow)?;
                            let to = self.ident()?;
                            let when = if self.at_kw("when") {
                                self.bump();
                                self.expect(Tok::LParen)?;
                                let c = self.cond()?;
                                self.expect(Tok::RParen)?;
                                Some(c)
                            } else {
                                None
                            };
                            self.expect(Tok::Semi)?;
                            prog.topology.push(TopoEdge { from, to, when });
                        }
                    }
                    "deparser" => {
                        self.bump();
                        self.expect(Tok::LBrace)?;
                        while !self.eat(Tok::RBrace) {
                            self.kw("emit")?;
                            self.expect(Tok::LParen)?;
                            let h = self.ident()?;
                            self.expect(Tok::RParen)?;
                            self.expect(Tok::Semi)?;
                            prog.deparser.push(h);
                        }
                    }
                    "intent" => {
                        self.bump();
                        let name = self.ident()?;
                        self.expect(Tok::LBrace)?;
                        self.kw("given")?;
                        let given = self.cond()?;
                        self.expect(Tok::Semi)?;
                        self.kw("expect")?;
                        let expect = self.cond()?;
                        self.expect(Tok::Semi)?;
                        self.expect(Tok::RBrace)?;
                        prog.intents.push(IntentDecl {
                            name,
                            given,
                            expect,
                        });
                    }
                    other => return self.err(format!("unknown top-level item `{other}`")),
                },
                other => return self.err(format!("expected top-level item, found {other}")),
            }
        }
        Ok(prog)
    }

    /// `{ name: width; … }`
    fn field_block(&mut self) -> Result<Vec<(String, u16)>, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(Tok::RBrace) {
            let name = self.ident()?;
            self.expect(Tok::Colon)?;
            let w = self.num()?;
            if w == 0 || w > 128 {
                return self.err(format!("field width {w} out of range 1..=128"));
            }
            self.expect(Tok::Semi)?;
            fields.push((name, w as u16));
        }
        Ok(fields)
    }

    fn parser_decl(&mut self) -> Result<ParserDecl, ParseError> {
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut states = Vec::new();
        while !self.eat(Tok::RBrace) {
            self.kw("state")?;
            let sname = self.ident()?;
            self.expect(Tok::LBrace)?;
            let mut extracts = Vec::new();
            while self.at_kw("extract") {
                self.bump();
                self.expect(Tok::LParen)?;
                extracts.push(self.ident()?);
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
            }
            let transition = if self.at_kw("accept") {
                self.bump();
                self.expect(Tok::Semi)?;
                Transition::Accept
            } else if self.at_kw("goto") {
                self.bump();
                let target = self.ident()?;
                self.expect(Tok::Semi)?;
                Transition::Goto(target)
            } else if self.at_kw("select") {
                self.bump();
                self.expect(Tok::LParen)?;
                let scrutinee = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::LBrace)?;
                let mut arms = Vec::new();
                let mut default = None;
                while !self.eat(Tok::RBrace) {
                    if self.at_kw("default") {
                        self.bump();
                        self.expect(Tok::FatArrow)?;
                        default = Some(self.ident()?);
                        self.expect(Tok::Semi)?;
                    } else {
                        let v = self.num()?;
                        let pat = if self.eat(Tok::TernaryMask) {
                            SelectPattern::Mask(v, self.num()?)
                        } else if self.eat(Tok::DotDot) {
                            SelectPattern::Range(v, self.num()?)
                        } else {
                            SelectPattern::Exact(v)
                        };
                        self.expect(Tok::FatArrow)?;
                        let target = self.ident()?;
                        self.expect(Tok::Semi)?;
                        arms.push((pat, target));
                    }
                }
                let default = match default {
                    Some(d) => d,
                    None => return self.err("select must have a default arm"),
                };
                Transition::Select {
                    scrutinee,
                    arms,
                    default,
                }
            } else {
                return self.err("expected accept/goto/select transition");
            };
            self.expect(Tok::RBrace)?;
            states.push(ParserState {
                name: sname,
                extracts,
                transition,
            });
        }
        Ok(ParserDecl { name, states })
    }

    fn action_decl(&mut self) -> Result<ActionDecl, ParseError> {
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(Tok::RParen) {
            loop {
                let pname = self.ident()?;
                self.expect(Tok::Colon)?;
                let w = self.num()? as u16;
                params.push((pname, w));
                if !self.eat(Tok::Comma) {
                    self.expect(Tok::RParen)?;
                    break;
                }
            }
        }
        self.expect(Tok::LBrace)?;
        let mut body = Vec::new();
        while !self.eat(Tok::RBrace) {
            body.push(self.action_stmt()?);
        }
        Ok(ActionDecl { name, params, body })
    }

    fn action_stmt(&mut self) -> Result<ActionStmt, ParseError> {
        // Lookahead for `name(.name)*.setValid()` / `.setInvalid()`.
        let start = self.pos;
        let first = self.dotted()?;
        if let Some(rest) = first.strip_suffix(".setValid") {
            self.expect(Tok::LParen)?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::Semi)?;
            return Ok(ActionStmt::SetValid(strip_hdr(rest).to_string()));
        }
        if let Some(rest) = first.strip_suffix(".setInvalid") {
            self.expect(Tok::LParen)?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::Semi)?;
            return Ok(ActionStmt::SetInvalid(strip_hdr(rest).to_string()));
        }
        // Otherwise an assignment; re-parse the lvalue properly.
        self.pos = start;
        let lv = self.lvalue()?;
        self.expect(Tok::Eq)?;
        let rhs = self.expr()?;
        self.expect(Tok::Semi)?;
        Ok(ActionStmt::Assign(lv, rhs))
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        let name = self.ident()?;
        if *self.peek() == Tok::LBracket {
            self.bump();
            let idx = self.num()? as u32;
            self.expect(Tok::RBracket)?;
            return Ok(LValue::Register(name, idx));
        }
        let mut full = name;
        while self.eat(Tok::Dot) {
            full.push('.');
            full.push_str(&self.ident()?);
        }
        Ok(LValue::Field(full))
    }

    fn table_decl(&mut self) -> Result<TableDecl, ParseError> {
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut keys = Vec::new();
        let mut actions = Vec::new();
        let mut default_action = None;
        let mut size = 1024u32;
        while !self.eat(Tok::RBrace) {
            if self.at_kw("key") {
                self.bump();
                self.expect(Tok::Eq)?;
                self.expect(Tok::LBrace)?;
                while !self.eat(Tok::RBrace) {
                    let field = self.dotted()?;
                    self.expect(Tok::Colon)?;
                    let kind = match self.ident()?.as_str() {
                        "exact" => MatchKind::Exact,
                        "lpm" => MatchKind::Lpm,
                        "ternary" => MatchKind::Ternary,
                        "range" => MatchKind::Range,
                        other => return self.err(format!("unknown match kind `{other}`")),
                    };
                    self.expect(Tok::Semi)?;
                    keys.push((field, kind));
                }
                self.eat(Tok::Semi);
            } else if self.at_kw("actions") {
                self.bump();
                self.expect(Tok::Eq)?;
                self.expect(Tok::LBrace)?;
                while !self.eat(Tok::RBrace) {
                    actions.push(self.ident()?);
                    self.expect(Tok::Semi)?;
                }
                self.eat(Tok::Semi);
            } else if self.at_kw("default_action") {
                self.bump();
                self.expect(Tok::Eq)?;
                let aname = self.ident()?;
                let args = self.const_args()?;
                self.expect(Tok::Semi)?;
                default_action = Some((aname, args));
            } else if self.at_kw("size") {
                self.bump();
                self.expect(Tok::Eq)?;
                size = self.num()? as u32;
                self.expect(Tok::Semi)?;
            } else {
                return self.err(format!("unexpected token in table: {}", self.peek()));
            }
        }
        Ok(TableDecl {
            name,
            keys,
            actions,
            default_action,
            size,
        })
    }

    /// `( n, n, … )` — constant argument list.
    fn const_args(&mut self) -> Result<Vec<u128>, ParseError> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if !self.eat(Tok::RParen) {
            loop {
                args.push(self.num()?);
                if !self.eat(Tok::Comma) {
                    self.expect(Tok::RParen)?;
                    break;
                }
            }
        }
        Ok(args)
    }

    fn ctrl_stmts(&mut self) -> Result<Vec<CtrlStmt>, ParseError> {
        let mut out = Vec::new();
        while *self.peek() != Tok::RBrace && *self.peek() != Tok::Eof {
            out.push(self.ctrl_stmt()?);
        }
        Ok(out)
    }

    fn ctrl_stmt(&mut self) -> Result<CtrlStmt, ParseError> {
        self.nested(Self::ctrl_stmt_inner)
    }

    fn ctrl_stmt_inner(&mut self) -> Result<CtrlStmt, ParseError> {
        if self.at_kw("apply") {
            self.bump();
            self.expect(Tok::LParen)?;
            let t = self.ident()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::Semi)?;
            Ok(CtrlStmt::Apply(t))
        } else if self.at_kw("call") {
            self.bump();
            let a = self.ident()?;
            let args = self.const_args()?;
            self.expect(Tok::Semi)?;
            Ok(CtrlStmt::Call(a, args))
        } else if self.at_kw("if") {
            self.bump();
            self.expect(Tok::LParen)?;
            let cond = self.cond()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::LBrace)?;
            let then = self.ctrl_stmts()?;
            self.expect(Tok::RBrace)?;
            let els = if self.at_kw("else") {
                self.bump();
                if self.at_kw("if") {
                    vec![self.ctrl_stmt()?]
                } else {
                    self.expect(Tok::LBrace)?;
                    let e = self.ctrl_stmts()?;
                    self.expect(Tok::RBrace)?;
                    e
                }
            } else {
                Vec::new()
            };
            Ok(CtrlStmt::If(cond, then, els))
        } else {
            self.err(format!("expected control statement, found {}", self.peek()))
        }
    }

    fn pipeline_decl(&mut self) -> Result<PipelineDecl, ParseError> {
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut parser = None;
        let mut control = None;
        while !self.eat(Tok::RBrace) {
            if self.at_kw("parser") {
                self.bump();
                self.expect(Tok::Eq)?;
                parser = Some(self.ident()?);
                self.expect(Tok::Semi)?;
            } else if self.at_kw("control") {
                self.bump();
                self.expect(Tok::Eq)?;
                control = Some(self.ident()?);
                self.expect(Tok::Semi)?;
            } else {
                return self.err(format!("unexpected token in pipeline: {}", self.peek()));
            }
        }
        let control = match control {
            Some(c) => c,
            None => return self.err(format!("pipeline {name} missing control")),
        };
        Ok(PipelineDecl {
            name,
            parser,
            control,
        })
    }

    // ----- conditions ------------------------------------------------------

    /// `cond := or_cond`
    pub(crate) fn cond(&mut self) -> Result<Cond, ParseError> {
        self.or_cond()
    }

    fn or_cond(&mut self) -> Result<Cond, ParseError> {
        let mut lhs = self.and_cond()?;
        while self.eat(Tok::OrOr) {
            let rhs = self.and_cond()?;
            lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_cond(&mut self) -> Result<Cond, ParseError> {
        let mut lhs = self.atom_cond()?;
        while self.eat(Tok::AndAnd) {
            let rhs = self.atom_cond()?;
            lhs = Cond::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn atom_cond(&mut self) -> Result<Cond, ParseError> {
        self.nested(Self::atom_cond_inner)
    }

    fn atom_cond_inner(&mut self) -> Result<Cond, ParseError> {
        if self.eat(Tok::Bang) {
            let inner = self.atom_cond()?;
            return Ok(Cond::Not(Box::new(inner)));
        }
        if self.at_kw("true") {
            self.bump();
            return Ok(Cond::Bool(true));
        }
        if self.at_kw("false") {
            self.bump();
            return Ok(Cond::Bool(false));
        }
        if *self.peek() == Tok::LParen {
            // Could be a parenthesized condition OR a parenthesized
            // arithmetic expression starting a comparison. Try condition
            // first by scanning; simplest robust approach: parse as
            // condition, and if the next token is a comparison operator the
            // parenthesized thing was arithmetic — re-parse.
            let save = self.pos;
            self.bump();
            if let Ok(c) = self.cond() {
                if self.eat(Tok::RParen) && !self.peek_is_cmp() {
                    return Ok(c);
                }
            }
            self.pos = save;
        }
        // Comparison or isValid.
        let save = self.pos;
        if let Tok::Ident(_) = self.peek() {
            let name = self.dotted()?;
            if let Some(h) = name.strip_suffix(".isValid") {
                self.expect(Tok::LParen)?;
                self.expect(Tok::RParen)?;
                return Ok(Cond::IsValid(strip_hdr(h).to_string()));
            }
            self.pos = save;
        }
        let lhs = self.expr()?;
        let op = match self.bump() {
            Tok::EqEq => CmpOp::Eq,
            Tok::NotEq => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Gt => CmpOp::Gt,
            Tok::Le => CmpOp::Le,
            Tok::Ge => CmpOp::Ge,
            other => return self.err(format!("expected comparison operator, found {other}")),
        };
        let rhs = self.expr()?;
        Ok(Cond::Cmp(op, lhs, rhs))
    }

    fn peek_is_cmp(&self) -> bool {
        matches!(
            self.peek(),
            Tok::EqEq | Tok::NotEq | Tok::Lt | Tok::Gt | Tok::Le | Tok::Ge
        )
    }

    // ----- arithmetic expressions -----------------------------------------

    /// `expr := or_expr` (bitwise-or is the loosest arithmetic operator).
    pub(crate) fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.xor_expr()?;
        while self.eat(Tok::Pipe) {
            let rhs = self.xor_expr()?;
            lhs = Expr::bin(AOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn xor_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat(Tok::Caret) {
            let rhs = self.and_expr()?;
            lhs = Expr::bin(AOp::Xor, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.shift_expr()?;
        while self.eat(Tok::Amp) {
            let rhs = self.shift_expr()?;
            lhs = Expr::bin(AOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn shift_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.add_expr()?;
        loop {
            if self.eat(Tok::Shl) {
                let n = self.num()? as u16;
                lhs = Expr::Shl(Box::new(lhs), n);
            } else if self.eat(Tok::Shr) {
                let n = self.num()? as u16;
                lhs = Expr::Shr(Box::new(lhs), n);
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            if self.eat(Tok::Plus) {
                let rhs = self.unary_expr()?;
                lhs = Expr::bin(AOp::Add, lhs, rhs);
            } else if self.eat(Tok::Minus) {
                let rhs = self.unary_expr()?;
                lhs = Expr::bin(AOp::Sub, lhs, rhs);
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::unary_expr_inner)
    }

    fn unary_expr_inner(&mut self) -> Result<Expr, ParseError> {
        if self.eat(Tok::Tilde) {
            let inner = self.unary_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Num(n) => {
                self.bump();
                Ok(Expr::Num(n))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) if name == "hash" => {
                self.bump();
                self.expect(Tok::LParen)?;
                let alg = match self.ident()?.as_str() {
                    "crc16" => HashAlg::Crc16,
                    "crc32" => HashAlg::Crc32,
                    "identity" => HashAlg::Identity,
                    "csum16" => HashAlg::Csum16,
                    other => return self.err(format!("unknown hash algorithm `{other}`")),
                };
                self.expect(Tok::Comma)?;
                let width = self.num()? as u16;
                let mut args = Vec::new();
                while self.eat(Tok::Comma) {
                    args.push(self.expr()?);
                }
                self.expect(Tok::RParen)?;
                Ok(Expr::Hash(alg, width, args))
            }
            Tok::Ident(_) => {
                let start = self.pos;
                let name = self.ident()?;
                if *self.peek() == Tok::LBracket {
                    self.bump();
                    let idx = self.num()? as u32;
                    self.expect(Tok::RBracket)?;
                    return Ok(Expr::Register(name, idx));
                }
                self.pos = start;
                let dotted = self.dotted()?;
                if dotted.contains('.') {
                    Ok(Expr::Field(dotted))
                } else {
                    // A bare identifier is an action parameter; the compiler
                    // rejects it if it does not resolve.
                    Ok(Expr::Param(dotted))
                }
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

/// Header references in `setValid`/`isValid` may be written `hdr.x` or `x`;
/// normalize to the bare header name.
fn strip_hdr(s: &str) -> &str {
    s.strip_prefix("hdr.").unwrap_or(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = r#"
        # A tiny router.
        header ethernet { dst: 48; src: 48; ether_type: 16; }
        header ipv4 { ttl: 8; protocol: 8; dst_addr: 32; }
        metadata meta { egress_port: 9; drop: 1; }

        parser main {
          state start {
            extract(ethernet);
            select (hdr.ethernet.ether_type) {
              0x0800 => parse_ipv4;
              default => accept;
            }
          }
          state parse_ipv4 { extract(ipv4); accept; }
        }

        action set_port(port: 9) { meta.egress_port = port; }
        action drop_() { meta.drop = 1; }

        table route {
          key = { hdr.ipv4.dst_addr: lpm; }
          actions = { set_port; drop_; }
          default_action = drop_();
          size = 1024;
        }

        control ig {
          if (hdr.ipv4.isValid()) {
            apply(route);
          } else {
            call drop_();
          }
        }

        pipeline ingress0 { parser = main; control = ig; }
        topology { start -> ingress0; ingress0 -> end; }
        deparser { emit(ethernet); emit(ipv4); }

        intent no_blackhole {
          given hdr.ethernet.ether_type == 0x0800;
          expect meta.drop == 1 || meta.egress_port != 0;
        }
    "#;

    #[test]
    fn parses_full_program() {
        let p = parse_program(SMALL).unwrap();
        assert_eq!(p.headers.len(), 2);
        assert_eq!(p.headers[0].name, "ethernet");
        assert_eq!(p.headers[0].fields[0], ("dst".into(), 48));
        assert_eq!(p.metadatas.len(), 1);
        assert_eq!(p.parsers.len(), 1);
        assert_eq!(p.parsers[0].states.len(), 2);
        assert_eq!(p.actions.len(), 2);
        assert_eq!(p.tables.len(), 1);
        assert_eq!(p.controls.len(), 1);
        assert_eq!(p.pipelines.len(), 1);
        assert_eq!(p.topology.len(), 2);
        assert_eq!(p.deparser, vec!["ethernet", "ipv4"]);
        assert_eq!(p.intents.len(), 1);
        assert!(p.loc > 20);
    }

    #[test]
    fn parser_select_arms() {
        let p = parse_program(SMALL).unwrap();
        match &p.parsers[0].states[0].transition {
            Transition::Select {
                scrutinee,
                arms,
                default,
            } => {
                assert_eq!(scrutinee, &Expr::Field("hdr.ethernet.ether_type".into()));
                assert_eq!(arms.len(), 1);
                assert_eq!(arms[0], (SelectPattern::Exact(0x800), "parse_ipv4".into()));
                assert_eq!(default, "accept");
            }
            other => panic!("unexpected transition {other:?}"),
        }
    }

    #[test]
    fn action_bodies() {
        let p = parse_program(SMALL).unwrap();
        let a = &p.actions[0];
        assert_eq!(a.params, vec![("port".into(), 9)]);
        match &a.body[0] {
            ActionStmt::Assign(LValue::Field(f), Expr::Param(pm)) => {
                assert_eq!(f, "meta.egress_port");
                assert_eq!(pm, "port");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn table_structure() {
        let p = parse_program(SMALL).unwrap();
        let t = &p.tables[0];
        assert_eq!(t.keys, vec![("hdr.ipv4.dst_addr".into(), MatchKind::Lpm)]);
        assert_eq!(t.actions, vec!["set_port", "drop_"]);
        assert_eq!(t.default_action, Some(("drop_".into(), vec![])));
        assert_eq!(t.size, 1024);
    }

    #[test]
    fn control_if_else() {
        let p = parse_program(SMALL).unwrap();
        match &p.controls[0].body[0] {
            CtrlStmt::If(Cond::IsValid(h), then, els) => {
                assert_eq!(h, "ipv4");
                assert!(matches!(then[0], CtrlStmt::Apply(ref t) if t == "route"));
                assert!(matches!(els[0], CtrlStmt::Call(ref a, _) if a == "drop_"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn intent_conditions() {
        let p = parse_program(SMALL).unwrap();
        let i = &p.intents[0];
        assert!(matches!(i.given, Cond::Cmp(CmpOp::Eq, _, _)));
        assert!(matches!(i.expect, Cond::Or(_, _)));
    }

    #[test]
    fn setvalid_and_setinvalid() {
        let src = r#"
            action encap() { hdr.vxlan.setValid(); hdr.inner.setInvalid(); }
        "#;
        let mut full = String::from("header vxlan { vni: 24; }\nheader inner { x: 8; }\n");
        full.push_str(src);
        let p = parse_program(&full).unwrap();
        assert!(matches!(&p.actions[0].body[0], ActionStmt::SetValid(h) if h == "vxlan"));
        assert!(matches!(&p.actions[0].body[1], ActionStmt::SetInvalid(h) if h == "inner"));
    }

    #[test]
    fn hash_expression() {
        let src = "action h() { meta.idx = hash(crc16, 16, hdr.ip.src, hdr.ip.dst); }";
        let full = format!("header ip {{ src: 32; dst: 32; }}\nmetadata meta {{ idx: 16; }}\n{src}");
        let p = parse_program(&full).unwrap();
        match &p.actions[0].body[0] {
            ActionStmt::Assign(_, Expr::Hash(HashAlg::Crc16, 16, args)) => {
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn register_lvalue_and_rvalue() {
        let src = r#"
            register counters[64]: 32;
            metadata meta { x: 32; }
            action bump() { counters[3] = counters[3] + 1; meta.x = counters[0]; }
        "#;
        let p = parse_program(src).unwrap();
        match &p.actions[0].body[0] {
            ActionStmt::Assign(LValue::Register(n, 3), rhs) => {
                assert_eq!(n, "counters");
                assert!(matches!(rhs, Expr::Bin(AOp::Add, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let src = "intent i { given meta.a + meta.b & meta.c == 1; expect true; }";
        let full = format!("metadata meta {{ a: 8; b: 8; c: 8; }}\n{src}");
        let p = parse_program(&full).unwrap();
        // `a + b & c` parses as `(a + b) & c` (& looser than +).
        match &p.intents[0].given {
            Cond::Cmp(CmpOp::Eq, Expr::Bin(AOp::And, lhs, _), _) => {
                assert!(matches!(**lhs, Expr::Bin(AOp::Add, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parenthesized_conditions() {
        let src = "intent i { given (meta.a == 1 || meta.b == 2) && meta.c != 3; expect true; }";
        let full = format!("metadata meta {{ a: 8; b: 8; c: 8; }}\n{src}");
        let p = parse_program(&full).unwrap();
        assert!(matches!(&p.intents[0].given, Cond::And(l, _) if matches!(**l, Cond::Or(_, _))));
    }

    #[test]
    fn topology_when_clauses() {
        let src = r#"
            metadata meta { port: 9; }
            topology {
              start -> a;
              a -> b when (meta.port == 1);
              a -> c when (meta.port != 1);
              b -> end;
              c -> end;
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.topology.len(), 5);
        assert!(p.topology[1].when.is_some());
        assert!(p.topology[0].when.is_none());
    }

    #[test]
    fn select_mask_and_range_patterns() {
        let src = r#"
            header h { t: 16; }
            parser p {
              state start {
                extract(h);
                select (hdr.h.t) {
                  0x8100 &&& 0xff00 => a;
                  10..20 => b;
                  default => accept;
                }
              }
              state a { accept; }
              state b { accept; }
            }
        "#;
        let p = parse_program(src).unwrap();
        match &p.parsers[0].states[0].transition {
            Transition::Select { arms, .. } => {
                assert_eq!(arms[0].0, SelectPattern::Mask(0x8100, 0xff00));
                assert_eq!(arms[1].0, SelectPattern::Range(10, 20));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let src = "header h { a: 8; }\nbogus_item x;";
        let e = parse_program(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus_item"));
    }

    #[test]
    fn deep_nesting_is_an_error_at_its_line() {
        let deep = |n: usize| {
            format!(
                "metadata meta {{ port: 9; }}\naction a() {{\n  meta.port = {}1{};\n}}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        assert!(parse_program(&deep(MAX_NESTING as usize - 2)).is_ok());
        let e = parse_program(&deep(100_000)).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("nesting deeper"), "{}", e.message);

        let conds = format!(
            "control c {{\n{}apply(t);{}\n}}",
            "if (!(meta.port == 1)) { ".repeat(100_000),
            " }".repeat(100_000)
        );
        let e = parse_program(&conds).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("nesting deeper"), "{}", e.message);
    }

    #[test]
    fn missing_control_in_pipeline_fails() {
        let e = parse_program("pipeline p { parser = x; }").unwrap_err();
        assert!(e.message.contains("missing control"));
    }
}
