//! Recursive-descent parser producing the [`ast`](crate::ast) types.

use crate::ast::*;
use crate::lexer::{lex, Token, TokenKind};
use std::fmt;

/// Error produced when the source does not conform to the accepted
/// SystemVerilog subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
    line: u32,
}

impl ParseError {
    fn new(msg: impl Into<String>, line: u32) -> ParseError {
        ParseError {
            msg: msg.into(),
            line,
        }
    }

    /// The 1-based source line the error points at.
    pub fn line(&self) -> u32 {
        self.line
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a source file containing one or more modules.
///
/// # Errors
///
/// Returns [`ParseError`] (with a source line) on lexical errors or any
/// construct outside the supported subset.
///
/// # Examples
///
/// ```
/// let f = symbfuzz_hdl::parse("module m(input a, output y); assign y = a; endmodule")?;
/// assert_eq!(f.modules.len(), 1);
/// # Ok::<(), symbfuzz_hdl::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<SourceFile, ParseError> {
    let tokens = lex(src).map_err(|e| ParseError::new(e.to_string(), e.line))?;
    let mut p = Parser { tokens, pos: 0 };
    let mut modules = Vec::new();
    while !p.at_eof() {
        modules.push(p.module()?);
    }
    Ok(SourceFile { modules })
}

/// Parses a standalone expression (used by the property language and
/// tests).
///
/// # Errors
///
/// Returns [`ParseError`] if the text is not a single valid expression.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src).map_err(|e| ParseError::new(e.to_string(), e.line))?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr()?;
    if !p.at_eof() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

const KEYWORDS: &[&str] = &[
    "module",
    "endmodule",
    "input",
    "output",
    "wire",
    "logic",
    "reg",
    "assign",
    "always",
    "always_comb",
    "always_ff",
    "begin",
    "end",
    "if",
    "else",
    "case",
    "unique",
    "endcase",
    "default",
    "posedge",
    "negedge",
    "or",
    "typedef",
    "enum",
    "localparam",
    "parameter",
    "int",
    "integer",
    "for",
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.line())
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        if matches!(self.peek(), TokenKind::Symbol(t) if *t == s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`, found {}", self.peek())))
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(t) if t == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.is_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    /// Consumes an identifier that is not a reserved keyword.
    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            TokenKind::Ident(s) if !KEYWORDS.contains(&s.as_str()) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn peek_is_ident(&self) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if !KEYWORDS.contains(&s.as_str()))
    }

    // ---- module structure -------------------------------------------------

    fn module(&mut self) -> Result<Module, ParseError> {
        self.expect_keyword("module")?;
        let name = self.ident()?;
        let mut params = Vec::new();
        if self.eat_symbol("#") {
            self.expect_symbol("(")?;
            loop {
                self.eat_keyword("parameter");
                self.eat_keyword("int");
                self.eat_keyword("integer");
                let pname = self.ident()?;
                self.expect_symbol("=")?;
                let value = self.expr()?;
                params.push(ParamDecl { name: pname, value });
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
        }
        let mut ports = Vec::new();
        self.expect_symbol("(")?;
        if !self.eat_symbol(")") {
            loop {
                ports.push(self.port()?);
                if self.eat_symbol(")") {
                    break;
                }
                self.expect_symbol(",")?;
            }
        }
        self.expect_symbol(";")?;
        let mut items = Vec::new();
        while !self.eat_keyword("endmodule") {
            if self.at_eof() {
                return Err(self.err("unexpected end of input inside module"));
            }
            items.push(self.item()?);
        }
        Ok(Module {
            name,
            params,
            ports,
            items,
        })
    }

    fn port(&mut self) -> Result<PortDecl, ParseError> {
        let dir = if self.eat_keyword("input") {
            Direction::Input
        } else if self.eat_keyword("output") {
            Direction::Output
        } else {
            return Err(self.err(format!(
                "expected `input` or `output`, found {}",
                self.peek()
            )));
        };
        let _ = self.eat_keyword("wire") || self.eat_keyword("logic") || self.eat_keyword("reg");
        let mut type_name = None;
        let range = if self.eat_symbol("[") {
            Some(self.finish_range()?)
        } else {
            None
        };
        let mut name = self.ident()?;
        // `input state_t s` — the first identifier was a type name.
        if range.is_none() && self.peek_is_ident() {
            type_name = Some(name);
            name = self.ident()?;
        }
        Ok(PortDecl {
            dir,
            name,
            range,
            type_name,
        })
    }

    /// Parses `msb : lsb ]` after the opening `[` has been consumed.
    fn finish_range(&mut self) -> Result<Range, ParseError> {
        let msb = self.expr()?;
        self.expect_symbol(":")?;
        let lsb = self.expr()?;
        self.expect_symbol("]")?;
        Ok(Range { msb, lsb })
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        if self.is_keyword("typedef") {
            return self.typedef();
        }
        if self.eat_keyword("localparam") || self.eat_keyword("parameter") {
            self.eat_keyword("int");
            self.eat_keyword("integer");
            let name = self.ident()?;
            self.expect_symbol("=")?;
            let value = self.expr()?;
            self.expect_symbol(";")?;
            return Ok(Item::Localparam(ParamDecl { name, value }));
        }
        if self.is_keyword("wire") || self.is_keyword("logic") || self.is_keyword("reg") {
            return self.net_decl();
        }
        if self.eat_keyword("assign") {
            let lhs = self.lvalue()?;
            self.expect_symbol("=")?;
            let rhs = self.expr()?;
            self.expect_symbol(";")?;
            return Ok(Item::Assign { lhs, rhs });
        }
        if self.eat_keyword("always_comb") {
            let (label, body) = self.labeled_stmt()?;
            return Ok(Item::Always(AlwaysBlock {
                kind: AlwaysKind::Comb,
                label,
                body,
            }));
        }
        if self.eat_keyword("always_ff") {
            let kind = self.edge_sensitivity()?;
            let (label, body) = self.labeled_stmt()?;
            return Ok(Item::Always(AlwaysBlock { kind, label, body }));
        }
        if self.eat_keyword("always") {
            // `always @*`, `always @(*)` or `always @(posedge …)`.
            self.expect_symbol("@")?;
            if self.eat_symbol("*") {
                let (label, body) = self.labeled_stmt()?;
                return Ok(Item::Always(AlwaysBlock {
                    kind: AlwaysKind::Comb,
                    label,
                    body,
                }));
            }
            if matches!(self.peek(), TokenKind::Symbol("("))
                && matches!(self.peek_at(1), TokenKind::Symbol("*"))
            {
                self.bump();
                self.bump();
                self.expect_symbol(")")?;
                let (label, body) = self.labeled_stmt()?;
                return Ok(Item::Always(AlwaysBlock {
                    kind: AlwaysKind::Comb,
                    label,
                    body,
                }));
            }
            let kind = self.edge_sensitivity_inner()?;
            let (label, body) = self.labeled_stmt()?;
            return Ok(Item::Always(AlwaysBlock { kind, label, body }));
        }
        // Remaining possibilities start with an identifier: a typed net
        // declaration (`state_t s;`) or an instantiation (`sub u0 (…)`).
        if self.peek_is_ident() {
            let first = self.ident()?;
            if self.eat_symbol("#") {
                return self.instance_after_params(first);
            }
            let second = self.ident()?;
            if matches!(self.peek(), TokenKind::Symbol("(")) {
                return self.instance_body(first, None, second);
            }
            // Typed net declaration.
            let mut names = vec![second];
            while self.eat_symbol(",") {
                names.push(self.ident()?);
            }
            self.expect_symbol(";")?;
            return Ok(Item::Net(NetDecl {
                kind: NetKind::Logic,
                range: None,
                type_name: Some(first),
                names,
            }));
        }
        Err(self.err(format!("unexpected token {} in module body", self.peek())))
    }

    fn typedef(&mut self) -> Result<Item, ParseError> {
        self.expect_keyword("typedef")?;
        self.expect_keyword("enum")?;
        let range = if self.eat_keyword("logic") || self.eat_keyword("reg") {
            if self.eat_symbol("[") {
                Some(self.finish_range()?)
            } else {
                None
            }
        } else {
            None
        };
        self.expect_symbol("{")?;
        let mut variants = Vec::new();
        loop {
            let vname = self.ident()?;
            let value = if self.eat_symbol("=") {
                Some(self.expr()?)
            } else {
                None
            };
            variants.push((vname, value));
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol("}")?;
        let name = self.ident()?;
        self.expect_symbol(";")?;
        Ok(Item::Typedef(EnumTypedef {
            name,
            range,
            variants,
        }))
    }

    fn net_decl(&mut self) -> Result<Item, ParseError> {
        let kind = if self.eat_keyword("wire") {
            NetKind::Wire
        } else if self.eat_keyword("logic") {
            NetKind::Logic
        } else {
            self.expect_keyword("reg")?;
            NetKind::Reg
        };
        let range = if self.eat_symbol("[") {
            Some(self.finish_range()?)
        } else {
            None
        };
        let mut names = vec![self.ident()?];
        while self.eat_symbol(",") {
            names.push(self.ident()?);
        }
        self.expect_symbol(";")?;
        Ok(Item::Net(NetDecl {
            kind,
            range,
            type_name: None,
            names,
        }))
    }

    fn edge_sensitivity(&mut self) -> Result<AlwaysKind, ParseError> {
        self.expect_symbol("@")?;
        self.edge_sensitivity_inner()
    }

    fn edge_sensitivity_inner(&mut self) -> Result<AlwaysKind, ParseError> {
        self.expect_symbol("(")?;
        let clock = self.edge_spec()?;
        let mut reset = None;
        if self.eat_keyword("or") {
            reset = Some(self.edge_spec()?);
        }
        self.expect_symbol(")")?;
        Ok(AlwaysKind::Ff { clock, reset })
    }

    fn edge_spec(&mut self) -> Result<EdgeSpec, ParseError> {
        let edge = if self.eat_keyword("posedge") {
            Edge::Pos
        } else if self.eat_keyword("negedge") {
            Edge::Neg
        } else {
            return Err(self.err(format!(
                "expected `posedge` or `negedge`, found {}",
                self.peek()
            )));
        };
        let signal = self.ident()?;
        Ok(EdgeSpec { edge, signal })
    }

    fn instance_after_params(&mut self, module: String) -> Result<Item, ParseError> {
        self.expect_symbol("(")?;
        let mut params = Vec::new();
        if !self.eat_symbol(")") {
            loop {
                self.expect_symbol(".")?;
                let pname = self.ident()?;
                self.expect_symbol("(")?;
                let value = self.expr()?;
                self.expect_symbol(")")?;
                params.push((pname, value));
                if self.eat_symbol(")") {
                    break;
                }
                self.expect_symbol(",")?;
            }
        }
        let name = self.ident()?;
        self.instance_body(module, Some(params), name)
    }

    fn instance_body(
        &mut self,
        module: String,
        params: Option<Vec<(String, Expr)>>,
        name: String,
    ) -> Result<Item, ParseError> {
        self.expect_symbol("(")?;
        let mut conns = Vec::new();
        if !self.eat_symbol(")") {
            loop {
                self.expect_symbol(".")?;
                let pname = self.ident()?;
                self.expect_symbol("(")?;
                let value = self.expr()?;
                self.expect_symbol(")")?;
                conns.push((pname, value));
                if self.eat_symbol(")") {
                    break;
                }
                self.expect_symbol(",")?;
            }
        }
        self.expect_symbol(";")?;
        Ok(Item::Instance(Instance {
            module,
            name,
            params: params.unwrap_or_default(),
            conns,
        }))
    }

    // ---- statements -------------------------------------------------------

    /// An always body: either a single statement or `begin : label … end`.
    fn labeled_stmt(&mut self) -> Result<(Option<String>, Stmt), ParseError> {
        let stmt = self.stmt()?;
        if let Stmt::Block { label, .. } = &stmt {
            return Ok((label.clone(), stmt));
        }
        Ok((None, stmt))
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_keyword("begin") {
            let label = if self.eat_symbol(":") {
                Some(self.ident()?)
            } else {
                None
            };
            let mut stmts = Vec::new();
            while !self.eat_keyword("end") {
                if self.at_eof() {
                    return Err(self.err("unexpected end of input inside begin/end"));
                }
                stmts.push(self.stmt()?);
            }
            return Ok(Stmt::Block { label, stmts });
        }
        if self.eat_keyword("if") {
            self.expect_symbol("(")?;
            let cond = self.expr()?;
            self.expect_symbol(")")?;
            let then = Box::new(self.stmt()?);
            let els = if self.eat_keyword("else") {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::If { cond, then, els });
        }
        let unique = self.eat_keyword("unique");
        if self.eat_keyword("case") {
            self.expect_symbol("(")?;
            let subject = self.expr()?;
            self.expect_symbol(")")?;
            let mut arms = Vec::new();
            let mut default = None;
            while !self.eat_keyword("endcase") {
                if self.at_eof() {
                    return Err(self.err("unexpected end of input inside case"));
                }
                if self.eat_keyword("default") {
                    self.eat_symbol(":");
                    default = Some(Box::new(self.stmt()?));
                    continue;
                }
                let mut labels = vec![self.expr()?];
                while self.eat_symbol(",") {
                    labels.push(self.expr()?);
                }
                self.expect_symbol(":")?;
                let body = self.stmt()?;
                arms.push(CaseArm { labels, body });
            }
            return Ok(Stmt::Case {
                unique,
                subject,
                arms,
                default,
            });
        }
        if unique {
            return Err(self.err("`unique` must be followed by `case`"));
        }
        if self.eat_keyword("for") {
            self.expect_symbol("(")?;
            self.eat_keyword("int");
            self.eat_keyword("integer");
            let var = self.ident()?;
            self.expect_symbol("=")?;
            let init = self.expr()?;
            self.expect_symbol(";")?;
            let cond = self.expr()?;
            self.expect_symbol(";")?;
            let var2 = self.ident()?;
            if var2 != var {
                return Err(self.err(format!(
                    "for-loop step must assign the loop variable `{var}`, got `{var2}`"
                )));
            }
            self.expect_symbol("=")?;
            let step = self.expr()?;
            self.expect_symbol(")")?;
            let body = Box::new(self.stmt()?);
            return Ok(Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            });
        }
        if self.eat_symbol(";") {
            return Ok(Stmt::Nop);
        }
        // Assignment.
        let lhs = self.lvalue()?;
        let blocking = if self.eat_symbol("=") {
            true
        } else if self.eat_symbol("<=") {
            false
        } else {
            return Err(self.err(format!("expected `=` or `<=`, found {}", self.peek())));
        };
        let rhs = self.expr()?;
        self.expect_symbol(";")?;
        Ok(Stmt::Assign { lhs, rhs, blocking })
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        let base = self.ident()?;
        if self.eat_symbol("[") {
            let first = self.expr()?;
            if self.eat_symbol(":") {
                let lsb = self.expr()?;
                self.expect_symbol("]")?;
                return Ok(LValue::PartSelect {
                    base,
                    msb: Box::new(first),
                    lsb: Box::new(lsb),
                });
            }
            self.expect_symbol("]")?;
            return Ok(LValue::BitSelect {
                base,
                index: Box::new(first),
            });
        }
        Ok(LValue::Ident(base))
    }

    // ---- expressions ------------------------------------------------------

    /// Entry point: ternary has the lowest precedence.
    pub(crate) fn expr(&mut self) -> Result<Expr, ParseError> {
        let cond = self.log_or()?;
        if self.eat_symbol("?") {
            let then = self.expr()?;
            self.expect_symbol(":")?;
            let els = self.expr()?;
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            });
        }
        Ok(cond)
    }

    fn binary_level(
        &mut self,
        ops: &[(&str, BinaryOp)],
        next: fn(&mut Parser) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        let mut lhs = next(self)?;
        'outer: loop {
            for (sym, op) in ops {
                if matches!(self.peek(), TokenKind::Symbol(s) if s == sym) {
                    self.bump();
                    let rhs = next(self)?;
                    lhs = Expr::Binary {
                        op: *op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    };
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn log_or(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(&[("||", BinaryOp::LogOr)], Parser::log_and)
    }

    fn log_and(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(&[("&&", BinaryOp::LogAnd)], Parser::bit_or)
    }

    fn bit_or(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(&[("|", BinaryOp::Or)], Parser::bit_xor)
    }

    fn bit_xor(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(&[("^", BinaryOp::Xor)], Parser::bit_and)
    }

    fn bit_and(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(&[("&", BinaryOp::And)], Parser::equality)
    }

    fn equality(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[
                ("===", BinaryOp::CaseEq),
                ("!==", BinaryOp::CaseNe),
                ("==", BinaryOp::Eq),
                ("!=", BinaryOp::Ne),
            ],
            Parser::relational,
        )
    }

    fn relational(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[
                ("<=", BinaryOp::Le),
                (">=", BinaryOp::Ge),
                ("<", BinaryOp::Lt),
                (">", BinaryOp::Gt),
            ],
            Parser::shift,
        )
    }

    fn shift(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[("<<", BinaryOp::Shl), (">>", BinaryOp::Shr)],
            Parser::additive,
        )
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(
            &[("+", BinaryOp::Add), ("-", BinaryOp::Sub)],
            Parser::multiplicative,
        )
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        self.binary_level(&[("*", BinaryOp::Mul)], Parser::unary)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let ops: &[(&str, UnaryOp)] = &[
            ("!", UnaryOp::LogNot),
            ("~&", UnaryOp::RedNand),
            ("~|", UnaryOp::RedNor),
            ("~", UnaryOp::BitNot),
            ("&", UnaryOp::RedAnd),
            ("|", UnaryOp::RedOr),
            ("^", UnaryOp::RedXor),
            ("-", UnaryOp::Neg),
        ];
        for (sym, op) in ops {
            if matches!(self.peek(), TokenKind::Symbol(s) if s == sym) {
                self.bump();
                let operand = self.unary()?;
                return Ok(Expr::Unary {
                    op: *op,
                    operand: Box::new(operand),
                });
            }
        }
        if self.eat_symbol("+") {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        if let TokenKind::Number(n) = self.peek() {
            let n = n.clone();
            self.bump();
            return Ok(Expr::Literal(n));
        }
        if self.eat_symbol("(") {
            let e = self.expr()?;
            self.expect_symbol(")")?;
            return Ok(e);
        }
        if self.eat_symbol("{") {
            let first = self.expr()?;
            if self.eat_symbol("{") {
                // Replication {N{expr}}.
                let value = self.expr()?;
                self.expect_symbol("}")?;
                self.expect_symbol("}")?;
                return Ok(Expr::Replicate {
                    count: Box::new(first),
                    value: Box::new(value),
                });
            }
            let mut parts = vec![first];
            while self.eat_symbol(",") {
                parts.push(self.expr()?);
            }
            self.expect_symbol("}")?;
            return Ok(Expr::Concat(parts));
        }
        if self.peek_is_ident() {
            let base = self.ident()?;
            if self.eat_symbol("[") {
                let first = self.expr()?;
                if self.eat_symbol(":") {
                    let lsb = self.expr()?;
                    self.expect_symbol("]")?;
                    return Ok(Expr::PartSelect {
                        base,
                        msb: Box::new(first),
                        lsb: Box::new(lsb),
                    });
                }
                self.expect_symbol("]")?;
                return Ok(Expr::BitSelect {
                    base,
                    index: Box::new(first),
                });
            }
            return Ok(Expr::Ident(base));
        }
        Err(self.err(format!("expected expression, found {}", self.peek())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_module() {
        let f = parse("module m(input a, output y); assign y = a; endmodule").unwrap();
        let m = &f.modules[0];
        assert_eq!(m.name, "m");
        assert_eq!(m.ports[0].dir, Direction::Input);
        assert_eq!(m.ports[1].dir, Direction::Output);
        assert!(matches!(m.items[0], Item::Assign { .. }));
    }

    #[test]
    fn parses_ranged_ports_and_nets() {
        let f = parse(
            "module m(input logic [15:0] a, output reg [7:0] y);
               logic [3:0] t, u;
               wire w;
             endmodule",
        )
        .unwrap();
        let m = &f.modules[0];
        assert!(m.ports[0].range.is_some());
        match &m.items[0] {
            Item::Net(n) => {
                assert_eq!(n.names, vec!["t", "u"]);
                assert!(n.range.is_some());
            }
            other => panic!("expected net, got {other:?}"),
        }
    }

    #[test]
    fn parses_typedef_enum_and_typed_nets() {
        let f = parse(
            "module m(input a, output y);
               typedef enum logic [2:0] {INIT = 0, ADD = 1, SUB} state_t;
               state_t state;
               assign y = a;
             endmodule",
        )
        .unwrap();
        let m = &f.modules[0];
        match &m.items[0] {
            Item::Typedef(t) => {
                assert_eq!(t.name, "state_t");
                assert_eq!(t.variants.len(), 3);
                assert_eq!(t.variants[2].0, "SUB");
                assert!(t.variants[2].1.is_none());
            }
            other => panic!("expected typedef, got {other:?}"),
        }
        match &m.items[1] {
            Item::Net(n) => assert_eq!(n.type_name.as_deref(), Some("state_t")),
            other => panic!("expected typed net, got {other:?}"),
        }
    }

    #[test]
    fn parses_always_ff_with_async_reset() {
        let f = parse(
            "module m(input clk, input rst_n, input d, output q);
               logic qr;
               always_ff @(posedge clk or negedge rst_n) begin
                 if (!rst_n) qr <= 1'b0;
                 else qr <= d;
               end
               assign q = qr;
             endmodule",
        )
        .unwrap();
        match &f.modules[0].items[1] {
            Item::Always(a) => match &a.kind {
                AlwaysKind::Ff { clock, reset } => {
                    assert_eq!(clock.edge, Edge::Pos);
                    assert_eq!(clock.signal, "clk");
                    let r = reset.as_ref().unwrap();
                    assert_eq!(r.edge, Edge::Neg);
                    assert_eq!(r.signal, "rst_n");
                }
                other => panic!("expected ff, got {other:?}"),
            },
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn parses_verilog_2001_always_styles() {
        let f = parse(
            "module m(input clk, input d, output reg q, output reg c);
               always @(posedge clk) q <= d;
               always @* c = d;
             endmodule",
        )
        .unwrap();
        assert!(matches!(
            &f.modules[0].items[0],
            Item::Always(AlwaysBlock {
                kind: AlwaysKind::Ff { .. },
                ..
            })
        ));
        assert!(matches!(
            &f.modules[0].items[1],
            Item::Always(AlwaysBlock {
                kind: AlwaysKind::Comb,
                ..
            })
        ));
    }

    #[test]
    fn parses_case_with_labels_and_default() {
        let f = parse(
            "module m(input [1:0] s, output reg [3:0] y);
               always_comb begin : dec
                 unique case (s)
                   2'd0: y = 4'b0001;
                   2'd1, 2'd2: y = 4'b0010;
                   default: y = 4'b0000;
                 endcase
               end
             endmodule",
        )
        .unwrap();
        match &f.modules[0].items[0] {
            Item::Always(a) => {
                assert_eq!(a.label.as_deref(), Some("dec"));
                let Stmt::Block { stmts, .. } = &a.body else {
                    panic!("expected block")
                };
                let Stmt::Case {
                    unique,
                    arms,
                    default,
                    ..
                } = &stmts[0]
                else {
                    panic!("expected case")
                };
                assert!(unique);
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[1].labels.len(), 2);
                assert!(default.is_some());
            }
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn parses_instances_with_params() {
        let f = parse(
            "module top(input clk, output [7:0] y);
               wire [7:0] t;
               sub #(.W(8), .N(2)) u0 (.clk(clk), .out(t));
               sub u1 (.clk(clk), .out(y));
             endmodule",
        )
        .unwrap();
        match &f.modules[0].items[1] {
            Item::Instance(i) => {
                assert_eq!(i.module, "sub");
                assert_eq!(i.name, "u0");
                assert_eq!(i.params.len(), 2);
                assert_eq!(i.conns.len(), 2);
            }
            other => panic!("expected instance, got {other:?}"),
        }
        assert!(matches!(&f.modules[0].items[2], Item::Instance(_)));
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("a | b & c").unwrap();
        // `&` binds tighter than `|`.
        match e {
            Expr::Binary {
                op: BinaryOp::Or,
                rhs,
                ..
            } => {
                assert!(matches!(
                    *rhs,
                    Expr::Binary {
                        op: BinaryOp::And,
                        ..
                    }
                ));
            }
            other => panic!("bad precedence: {other:?}"),
        }
        let e = parse_expr("a + b == c").unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::Eq,
                ..
            }
        ));
        let e = parse_expr("a == b && c == d").unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::LogAnd,
                ..
            }
        ));
    }

    #[test]
    fn ternary_and_selects() {
        let e = parse_expr("sel ? bus[7:0] : bus[15:8]").unwrap();
        let Expr::Ternary { then, .. } = e else {
            panic!("expected ternary")
        };
        assert!(matches!(*then, Expr::PartSelect { .. }));
        let e = parse_expr("mem[idx+1]").unwrap();
        assert!(matches!(e, Expr::BitSelect { .. }));
    }

    #[test]
    fn concat_and_replicate() {
        let e = parse_expr("{a, b, 2'b01}").unwrap();
        let Expr::Concat(parts) = e else {
            panic!("expected concat")
        };
        assert_eq!(parts.len(), 3);
        let e = parse_expr("{4{x}}").unwrap();
        assert!(matches!(e, Expr::Replicate { .. }));
    }

    #[test]
    fn reduction_vs_binary_ops() {
        let e = parse_expr("&a").unwrap();
        assert!(matches!(
            e,
            Expr::Unary {
                op: UnaryOp::RedAnd,
                ..
            }
        ));
        let e = parse_expr("a & ~|b").unwrap();
        let Expr::Binary {
            op: BinaryOp::And,
            rhs,
            ..
        } = e
        else {
            panic!("expected binary and")
        };
        assert!(matches!(
            *rhs,
            Expr::Unary {
                op: UnaryOp::RedNor,
                ..
            }
        ));
    }

    #[test]
    fn le_in_expression_vs_nonblocking() {
        let e = parse_expr("a <= b").unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::Le,
                ..
            }
        ));
        let f = parse(
            "module m(input clk, input d, output reg q);
               always_ff @(posedge clk) q <= d;
             endmodule",
        )
        .unwrap();
        match &f.modules[0].items[0] {
            Item::Always(a) => {
                assert!(matches!(
                    a.body,
                    Stmt::Assign {
                        blocking: false,
                        ..
                    }
                ));
            }
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn parses_paper_alu_listing1() {
        // The toy ALU from the paper's Listing 1 (adapted to the subset).
        let src = "
            module alu(input nrst, input [15:0] a, input [15:0] b,
                       input [3:0] op, output logic [15:0] out);
              typedef enum logic [2:0] {INIT = 0, ADD = 1, SUB = 2, AND_ = 3, OR_ = 4, XOR_ = 5} state_t;
              logic opmode;
              state_t state;
              always_comb begin : reset_logic
                if (!nrst) state = INIT;
                else begin
                  state = state_t'(0);
                  opmode = op[3];
                end
              end
            endmodule";
        // Casts are not in the subset — the design files avoid them; make
        // sure the error is reported, not a panic.
        assert!(parse(src).is_err());
        let ok = "
            module alu(input nrst, input [15:0] a, input [15:0] b,
                       input [3:0] op, output logic [15:0] out);
              typedef enum logic [2:0] {INIT = 0, ADD = 1, SUB = 2} state_t;
              logic opmode;
              state_t state;
              always_comb begin
                if (!nrst) state = INIT;
                else begin
                  state = op[2:0];
                  opmode = op[3];
                end
              end
              always_comb begin
                case (state)
                  INIT: out = 16'd0;
                  ADD: out = a + b;
                  SUB: out = a - b;
                  default: out = 16'd0;
                endcase
              end
            endmodule";
        let f = parse(ok).unwrap();
        assert_eq!(f.modules[0].items.len(), 5);
    }

    #[test]
    fn error_reports_line() {
        let err = parse("module m(input a);\n  bogus!\nendmodule").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn parameters_and_localparams() {
        let f = parse(
            "module m #(parameter W = 8, parameter int N = 4)(input [W-1:0] a, output y);
               localparam MAGIC = 3;
               assign y = a[MAGIC];
             endmodule",
        )
        .unwrap();
        let m = &f.modules[0];
        assert_eq!(m.params.len(), 2);
        assert_eq!(m.params[0].name, "W");
        assert!(matches!(&m.items[0], Item::Localparam(p) if p.name == "MAGIC"));
    }
}
