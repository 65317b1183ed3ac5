//! The SimC recursive-descent parser.

use crate::ast::{BinOp, Expr, Function, GlobalDecl, LValue, Param, Program, Stmt, Type, UnOp};
use crate::lexer::{tokenize, LexError, SpannedToken, Token};
use std::fmt;

/// Errors produced while parsing SimC source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line number (0 for end of input).
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
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

/// Parses SimC source text into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical or syntactic
/// problem encountered.
///
/// # Example
///
/// ```
/// use nvariant_vm::parse_program;
///
/// let program = parse_program(r#"
///     var server_uid: uid_t;
///     fn main() -> int {
///         server_uid = getuid();
///         if (server_uid == 0) { return 1; }
///         return 0;
///     }
/// "#)?;
/// assert_eq!(program.functions.len(), 1);
/// # Ok::<(), nvariant_vm::ParseError>(())
/// ```
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(source)?;
    Parser::new(tokens).parse_program()
}

/// How deep [`parse_program`] lets source nest before it returns a
/// [`ParseError`]. One level is a block, an expression nested in another
/// (in parentheses, an argument, an index, a condition), the operand of a
/// prefix operator, an `else if`, or one operator of a left-associative
/// chain (`a + b + c`, `a[i][j]`). The parser, the compiler and every other
/// pass over the tree recurse per level, so this bound keeps them far from
/// the end of a thread's stack. The bundled server and standard library
/// nest at most 9 deep.
pub const MAX_NESTING: usize = 64;

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    /// The level of the construct at `pos`.
    depth: usize,
    /// The deepest level the current chain's elements reach. Each operator
    /// of a chain becomes its root and sinks what the chain already holds
    /// one level, so an element can end deeper than it was parsed.
    deepest: usize,
}

impl Parser {
    fn new(tokens: Vec<SpannedToken>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            deepest: 0,
        }
    }

    fn too_deep(&self) -> ParseError {
        self.error(format!("nested deeper than {MAX_NESTING} levels"))
    }

    /// Opens one more level for a nested construct. The caller closes it
    /// by restoring `depth` once the construct is parsed; an error ends
    /// the parse, so it closes nothing.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        self.deepest = self.deepest.max(self.depth);
        Ok(())
    }

    /// Sinks the current chain one level under a new operator.
    fn sink(&mut self) -> Result<(), ParseError> {
        if self.deepest == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.deepest += 1;
        Ok(())
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            line: self.tokens.get(self.pos).map_or(0, |t| t.line),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn advance(&mut self) -> Option<Token> {
        let token = self.tokens.get(self.pos).map(|t| t.token.clone());
        if token.is_some() {
            self.pos += 1;
        }
        token
    }

    fn expect(&mut self, expected: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(token) if token == expected => {
                self.pos += 1;
                Ok(())
            }
            Some(token) => Err(self.error(format!("expected {expected}, found {token}"))),
            None => Err(self.error(format!("expected {expected}, found end of input"))),
        }
    }

    fn eat(&mut self, expected: &Token) -> bool {
        if self.peek() == Some(expected) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Some(Token::Ident(name)) => Ok(name),
            Some(other) => Err(ParseError {
                message: format!("expected identifier, found {other}"),
                line: self.tokens.get(self.pos - 1).map_or(0, |t| t.line),
            }),
            None => Err(self.error("expected identifier, found end of input")),
        }
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::new();
        while let Some(token) = self.peek() {
            match token {
                Token::KwVar => program.globals.push(self.parse_global()?),
                Token::KwFn => program.functions.push(self.parse_function()?),
                other => return Err(self.error(format!("expected `var` or `fn`, found {other}"))),
            }
        }
        Ok(program)
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let name = self.expect_ident()?;
        match name.as_str() {
            "int" => Ok(Type::Int),
            "uid_t" => Ok(Type::UidT),
            "gid_t" => Ok(Type::GidT),
            "ptr" => Ok(Type::Ptr),
            "void" => Ok(Type::Void),
            "buf" => {
                self.expect(&Token::LBracket)?;
                let size = match self.advance() {
                    Some(Token::Int(n)) if n > 0 => n as u32,
                    _ => return Err(self.error("expected positive buffer size")),
                };
                self.expect(&Token::RBracket)?;
                Ok(Type::Buf(size))
            }
            other => Err(self.error(format!("unknown type `{other}`"))),
        }
    }

    fn parse_global(&mut self) -> Result<GlobalDecl, ParseError> {
        self.expect(&Token::KwVar)?;
        let name = self.expect_ident()?;
        self.expect(&Token::Colon)?;
        let ty = self.parse_type()?;
        let init = if self.eat(&Token::Assign) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect(&Token::Semicolon)?;
        Ok(GlobalDecl { name, ty, init })
    }

    fn parse_function(&mut self) -> Result<Function, ParseError> {
        self.expect(&Token::KwFn)?;
        let name = self.expect_ident()?;
        self.expect(&Token::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                let pname = self.expect_ident()?;
                self.expect(&Token::Colon)?;
                let ty = self.parse_type()?;
                params.push(Param { name: pname, ty });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        let ret = if self.eat(&Token::Arrow) {
            self.parse_type()?
        } else {
            Type::Void
        };
        let body = self.parse_block()?;
        Ok(Function {
            name,
            params,
            ret,
            body,
        })
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(&Token::LBrace)?;
        self.descend()?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Token::RBrace) {
            if self.peek().is_none() {
                return Err(self.error("unterminated block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect(&Token::RBrace)?;
        self.depth -= 1;
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::KwVar) => {
                self.advance();
                let name = self.expect_ident()?;
                self.expect(&Token::Colon)?;
                let ty = self.parse_type()?;
                let init = if self.eat(&Token::Assign) {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect(&Token::Semicolon)?;
                Ok(Stmt::VarDecl { name, ty, init })
            }
            Some(Token::KwIf) => {
                self.advance();
                self.expect(&Token::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                let then_body = self.parse_block()?;
                let else_body = if self.eat(&Token::KwElse) {
                    if self.peek() == Some(&Token::KwIf) {
                        self.descend()?;
                        let else_if = self.parse_stmt()?;
                        self.depth -= 1;
                        vec![else_if]
                    } else {
                        self.parse_block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                })
            }
            Some(Token::KwWhile) => {
                self.advance();
                self.expect(&Token::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                let body = self.parse_block()?;
                Ok(Stmt::While { cond, body })
            }
            Some(Token::KwReturn) => {
                self.advance();
                if self.eat(&Token::Semicolon) {
                    Ok(Stmt::Return(None))
                } else {
                    let value = self.parse_expr()?;
                    self.expect(&Token::Semicolon)?;
                    Ok(Stmt::Return(Some(value)))
                }
            }
            Some(Token::KwBreak) => {
                self.advance();
                self.expect(&Token::Semicolon)?;
                Ok(Stmt::Break)
            }
            Some(Token::KwContinue) => {
                self.advance();
                self.expect(&Token::Semicolon)?;
                Ok(Stmt::Continue)
            }
            Some(_) => {
                let expr = self.parse_expr()?;
                if self.eat(&Token::Assign) {
                    let target = match expr {
                        Expr::Ident(name) => LValue::Var(name),
                        Expr::Index(base, index) => LValue::Index(*base, *index),
                        Expr::Deref(inner) => LValue::Deref(*inner),
                        other => {
                            return Err(self.error(format!("invalid assignment target: {other:?}")))
                        }
                    };
                    let value = self.parse_expr()?;
                    self.expect(&Token::Semicolon)?;
                    Ok(Stmt::Assign { target, value })
                } else {
                    self.expect(&Token::Semicolon)?;
                    Ok(Stmt::Expr(expr))
                }
            }
            None => Err(self.error("expected statement, found end of input")),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let expr = self.parse_binary(0)?;
        self.depth -= 1;
        Ok(expr)
    }

    /// Parses a chain of the operators at precedence `level` (see
    /// [`binary_op`]) over operands of the next tighter level. The chain is
    /// left-associative, so each operator nests the tree one level deeper.
    fn parse_binary(&mut self, level: usize) -> Result<Expr, ParseError> {
        if level == BINARY_LEVELS {
            return self.parse_unary();
        }
        let outer = std::mem::replace(&mut self.deepest, self.depth);
        let mut lhs = self.parse_binary(level + 1)?;
        while let Some(op) = self.peek().and_then(|token| binary_op(level, token)) {
            self.advance();
            self.sink()?;
            self.descend()?;
            let rhs = self.parse_binary(level + 1)?;
            self.depth -= 1;
            lhs = Expr::binary(op, lhs, rhs);
        }
        self.deepest = self.deepest.max(outer);
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Minus) => {
                self.advance();
                Ok(Expr::Unary(UnOp::Neg, self.parse_operand()?))
            }
            Some(Token::Bang) => {
                self.advance();
                Ok(Expr::Unary(UnOp::Not, self.parse_operand()?))
            }
            Some(Token::Tilde) => {
                self.advance();
                Ok(Expr::Unary(UnOp::BitNot, self.parse_operand()?))
            }
            Some(Token::Star) => {
                self.advance();
                Ok(Expr::Deref(self.parse_operand()?))
            }
            Some(Token::Amp) => {
                self.advance();
                let name = self.expect_ident()?;
                Ok(Expr::AddrOf(name))
            }
            _ => self.parse_postfix(),
        }
    }

    /// Parses the operand of a prefix operator, one nesting level down.
    fn parse_operand(&mut self) -> Result<Box<Expr>, ParseError> {
        self.descend()?;
        let operand = self.parse_unary()?;
        self.depth -= 1;
        Ok(Box::new(operand))
    }

    /// Parses a primary expression and the indexing that follows it, a
    /// left-associative chain like the binary operators'.
    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let outer = std::mem::replace(&mut self.deepest, self.depth);
        let mut expr = self.parse_primary()?;
        while let Some(Token::LBracket) = self.peek() {
            self.advance();
            self.sink()?;
            let index = self.parse_expr()?;
            self.expect(&Token::RBracket)?;
            expr = Expr::Index(Box::new(expr), Box::new(index));
        }
        self.deepest = self.deepest.max(outer);
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.advance() {
            Some(Token::Int(n)) => Ok(Expr::IntLit(n)),
            Some(Token::Str(s)) => Ok(Expr::StrLit(s)),
            Some(Token::Ident(name)) => {
                if self.peek() == Some(&Token::LParen) {
                    self.advance();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            Some(Token::LParen) => {
                let expr = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(expr)
            }
            Some(other) => Err(ParseError {
                message: format!("expected expression, found {other}"),
                line: self.tokens.get(self.pos - 1).map_or(0, |t| t.line),
            }),
            None => Err(self.error("expected expression, found end of input")),
        }
    }
}

/// The binary operator `token` denotes at precedence `level`, if any.
/// Level 0 binds loosest (`||`) and level `BINARY_LEVELS - 1` tightest
/// (`*`, `/`, `%`). A `&` reaching level 4 always follows a complete
/// operand, so it is bitwise and; `parse_unary` takes address-of.
fn binary_op(level: usize, token: &Token) -> Option<BinOp> {
    Some(match (level, token) {
        (0, Token::OrOr) => BinOp::LogOr,
        (1, Token::AndAnd) => BinOp::LogAnd,
        (2, Token::Pipe) => BinOp::BitOr,
        (3, Token::Caret) => BinOp::BitXor,
        (4, Token::Amp) => BinOp::BitAnd,
        (5, Token::EqEq) => BinOp::Eq,
        (5, Token::NotEq) => BinOp::Ne,
        (6, Token::Lt) => BinOp::Lt,
        (6, Token::Le) => BinOp::Le,
        (6, Token::Gt) => BinOp::Gt,
        (6, Token::Ge) => BinOp::Ge,
        (7, Token::Shl) => BinOp::Shl,
        (7, Token::Shr) => BinOp::Shr,
        (8, Token::Plus) => BinOp::Add,
        (8, Token::Minus) => BinOp::Sub,
        (9, Token::Star) => BinOp::Mul,
        (9, Token::Slash) => BinOp::Div,
        (9, Token::Percent) => BinOp::Mod,
        _ => return None,
    })
}

/// The number of binary precedence levels [`binary_op`] knows.
const BINARY_LEVELS: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_globals_and_functions() {
        let program = parse_program(
            r"
            var logbuf: buf[128];
            var server_uid: uid_t;
            var count: int = 0;

            fn main() -> int {
                return count;
            }
            ",
        )
        .unwrap();
        assert_eq!(program.globals.len(), 3);
        assert_eq!(program.globals[0].ty, Type::Buf(128));
        assert_eq!(program.globals[1].ty, Type::UidT);
        assert_eq!(program.globals[2].init, Some(Expr::IntLit(0)));
        assert_eq!(program.functions.len(), 1);
        assert_eq!(program.functions[0].ret, Type::Int);
    }

    #[test]
    fn parses_params_and_void_functions() {
        let program =
            parse_program("fn log_request(conn: int, path: ptr) { write(1, path, strlen(path)); }")
                .unwrap();
        let f = &program.functions[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].ty, Type::Ptr);
        assert_eq!(f.ret, Type::Void);
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn parses_if_else_chains_and_while() {
        let program = parse_program(
            r"
            fn classify(n: int) -> int {
                var i: int = 0;
                while (i < n) {
                    if (i == 3) { break; } else if (i == 5) { continue; } else { i = i + 1; }
                }
                return i;
            }
            ",
        )
        .unwrap();
        let f = &program.functions[0];
        match &f.body[1] {
            Stmt::While { body, .. } => match &body[0] {
                Stmt::If { else_body, .. } => {
                    assert!(matches!(else_body[0], Stmt::If { .. }));
                }
                other => panic!("expected if, got {other:?}"),
            },
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let program = parse_program("fn f() -> int { return 1 + 2 * 3 == 7 && 4 < 5; }").unwrap();
        // ((1 + (2*3)) == 7) && (4 < 5)
        match &program.functions[0].body[0] {
            Stmt::Return(Some(Expr::Binary(BinOp::LogAnd, lhs, rhs))) => {
                assert!(matches!(**lhs, Expr::Binary(BinOp::Eq, _, _)));
                assert!(matches!(**rhs, Expr::Binary(BinOp::Lt, _, _)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_pointer_and_index_forms() {
        let program = parse_program(
            r"
            fn f(p: ptr) -> int {
                var local: buf[16];
                *p = 4;
                local[0] = 65;
                p[1] = local[0];
                return *p + p[1];
            }
            ",
        )
        .unwrap();
        let f = &program.functions[0];
        assert!(matches!(
            &f.body[1],
            Stmt::Assign {
                target: LValue::Deref(_),
                ..
            }
        ));
        assert!(matches!(
            &f.body[2],
            Stmt::Assign {
                target: LValue::Index(_, _),
                ..
            }
        ));
    }

    #[test]
    fn parses_addr_of_and_calls() {
        let program =
            parse_program("fn f() -> int { var b: buf[8]; return recv(0, &b, 8); }").unwrap();
        match &program.functions[0].body[1] {
            Stmt::Return(Some(Expr::Call(name, args))) => {
                assert_eq!(name, "recv");
                assert_eq!(args.len(), 3);
                assert_eq!(args[1], Expr::AddrOf("b".into()));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_string_literals_and_bitops() {
        let program = parse_program(
            r#"fn f(u: uid_t) -> uid_t { write(1, "root\n", 5); return u ^ 0x7FFFFFFF; }"#,
        )
        .unwrap();
        match &program.functions[0].body[1] {
            Stmt::Return(Some(Expr::Binary(BinOp::BitXor, _, rhs))) => {
                assert_eq!(**rhs, Expr::IntLit(0x7FFF_FFFF));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn implicit_comparison_to_zero_via_not() {
        let program =
            parse_program("fn f() -> int { if (!getuid()) { return 1; } return 0; }").unwrap();
        match &program.functions[0].body[0] {
            Stmt::If { cond, .. } => {
                assert!(matches!(cond, Expr::Unary(UnOp::Not, _)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_programs() {
        assert!(parse_program("fn () {}").is_err());
        assert!(parse_program("var x: unknown_type;").is_err());
        assert!(parse_program("var x: buf[0];").is_err());
        assert!(parse_program("fn f() { 1 + ; }").is_err());
        assert!(parse_program("fn f() { return 1 }").is_err());
        assert!(parse_program("fn f() { 3 = x; }").is_err());
        assert!(parse_program("garbage").is_err());
        assert!(parse_program("fn f() { if (1) { return; }").is_err());
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = parse_program("var ok: int;\nfn broken( { }").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    /// One `main` per shape that nests, each nesting exactly `levels` deep
    /// as [`MAX_NESTING`] counts them. The function body is one level and
    /// a `return` expression another.
    fn nested(levels: usize) -> [(&'static str, String); 6] {
        let n = levels - 2;
        [
            (
                "parentheses",
                format!(
                    "fn main() -> int {{ return {}0{}; }}",
                    "(".repeat(n),
                    ")".repeat(n)
                ),
            ),
            (
                "prefix operators",
                format!("fn main() -> int {{ return {}0; }}", "- ".repeat(n)),
            ),
            (
                "operator chain",
                format!("fn main() -> int {{ return 0{}; }}", " + 1".repeat(n)),
            ),
            (
                "index chain",
                format!(
                    "var b: buf[4]; fn main() -> int {{ return b{}; }}",
                    "[0]".repeat(n)
                ),
            ),
            (
                "blocks",
                format!(
                    "fn main() -> int {{ {}{} return 0; }}",
                    "if (1) { ".repeat(n + 1),
                    "}".repeat(n + 1)
                ),
            ),
            // Each `else if` is a level, and its block one more.
            (
                "else if",
                format!(
                    "fn main() -> int {{ if (1) {{ }}{} return 0; }}",
                    " else if (1) { }".repeat(n)
                ),
            ),
        ]
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_in_every_shape() {
        for (shape, source) in nested(MAX_NESTING) {
            if let Err(error) = parse_program(&source) {
                panic!("{shape} at the bound: {error}");
            }
        }
        // 100,000 levels would overflow the stack of an unbounded parser.
        for levels in [100_000, MAX_NESTING + 1] {
            for (shape, source) in nested(levels) {
                let error = parse_program(&source).expect_err(shape);
                assert_eq!(error.line, 1, "{shape}");
                assert_eq!(
                    error.message,
                    format!("nested deeper than {MAX_NESTING} levels"),
                    "{shape}"
                );
            }
        }
    }
}
