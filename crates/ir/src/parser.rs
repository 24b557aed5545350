//! Concrete syntax for dense-matrix programs.
//!
//! ```text
//! program ts(N) {
//!   in matrix L[N][N];
//!   inout vector b[N];
//!   for j in 0..N {
//!     b[j] = b[j] / L[j][j];
//!     for i in j+1..N {
//!       b[i] = b[i] - L[i][j] * b[j];
//!     }
//!   }
//! }
//! ```
//!
//! Index expressions must be affine in loop variables and parameters;
//! right-hand sides are arbitrary `+ - * /` scalar expressions over array
//! reads and literals. `//` comments run to end of line.

use crate::ast::*;
use crate::expr::AffineExpr;
use std::fmt;

/// Parse failure with a human-readable message and source position.
///
/// `line` and `column` are 1-based; [`parse_program`] fills them in from
/// the byte `offset` before returning, so every surfaced error carries a
/// usable position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub msg: String,
    pub offset: usize,
    pub line: usize,
    pub column: usize,
}

impl ParseError {
    fn at(msg: impl Into<String>, offset: usize) -> ParseError {
        ParseError {
            msg: msg.into(),
            offset,
            line: 0,
            column: 0,
        }
    }

    /// Converts the byte offset into a 1-based line/column pair against
    /// `src` (an end-of-input offset points just past the last byte).
    fn locate(mut self, src: &str) -> ParseError {
        let off = self.offset.min(src.len());
        self.offset = off;
        let before = &src.as_bytes()[..off];
        self.line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|p| p + 1)
            .unwrap_or(0);
        self.column = 1 + off - line_start;
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "parse error at line {}, column {}: {}",
                self.line, self.column, self.msg
            )
        } else {
            write!(f, "parse error at byte {}: {}", self.offset, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

/// A token; identifiers borrow the source text.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Float(f64),
    Sym(&'static str),
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier {s:?}"),
            Tok::Int(v) => write!(f, "integer {v}"),
            Tok::Float(v) => write!(f, "float {v}"),
            Tok::Sym(s) => write!(f, "{s:?}"),
        }
    }
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Lexer<'a> {
        Lexer {
            text,
            src: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::at(msg, self.pos)
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            // line comments
            if self.pos + 1 < self.src.len() && &self.src[self.pos..self.pos + 2] == b"//" {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn next(&mut self) -> Result<Option<(Tok<'a>, usize)>, ParseError> {
        self.skip_ws();
        if self.pos >= self.src.len() {
            return Ok(None);
        }
        let start = self.pos;
        let b = self.src[self.pos];
        if b.is_ascii_alphabetic() || b == b'_' {
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
            {
                self.pos += 1;
            }
            // The matched bytes are ASCII, so both ends of the slice
            // are character boundaries.
            return Ok(Some((Tok::Ident(&self.text[start..self.pos]), start)));
        }
        if b.is_ascii_digit() {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                self.pos += 1;
            }
            // A float only if '.' followed by a digit (so `0..N` lexes as
            // Int, "..", Ident).
            if self.pos + 1 < self.src.len()
                && self.src[self.pos] == b'.'
                && self.src[self.pos + 1].is_ascii_digit()
            {
                self.pos += 1;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let s = &self.text[start..self.pos];
                let v: f64 = s.parse().map_err(|_| self.error("bad float literal"))?;
                return Ok(Some((Tok::Float(v), start)));
            }
            let s = &self.text[start..self.pos];
            let v: i64 = s.parse().map_err(|_| self.error("bad integer literal"))?;
            return Ok(Some((Tok::Int(v), start)));
        }
        // multi-char symbols first
        if self.pos + 1 < self.src.len() && &self.src[self.pos..self.pos + 2] == b".." {
            self.pos += 2;
            return Ok(Some((Tok::Sym(".."), start)));
        }
        let sym = match b {
            b'(' => "(",
            b')' => ")",
            b'{' => "{",
            b'}' => "}",
            b'[' => "[",
            b']' => "]",
            b';' => ";",
            b',' => ",",
            b'=' => "=",
            b'+' => "+",
            b'-' => "-",
            b'*' => "*",
            b'/' => "/",
            other => {
                return Err(self.error(format!("unexpected character {:?}", other as char)));
            }
        };
        self.pos += 1;
        Ok(Some((Tok::Sym(sym), start)))
    }
}

struct Parser<'a> {
    toks: Vec<(Tok<'a>, usize)>,
    i: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.i).map(|&(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.i).map(|&(_, o)| o).unwrap_or(usize::MAX)
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::at(msg, self.offset())
    }

    /// Error anchored at the token just consumed (the offending one).
    fn error_at_last(&self, msg: impl Into<String>) -> ParseError {
        let off = self
            .toks
            .get(self.i.saturating_sub(1))
            .map(|&(_, o)| o)
            .unwrap_or(usize::MAX);
        ParseError::at(msg, off)
    }

    fn bump(&mut self) -> Result<Tok<'a>, ParseError> {
        let t = self
            .peek()
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.i += 1;
        Ok(t)
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        match self.bump()? {
            Tok::Sym(x) if x == s => Ok(()),
            other => Err(self.error_at_last(format!("expected {s:?}, found {other}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.bump()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.error_at_last(format!("expected identifier, found {other}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let id = self.expect_ident()?;
        if id == kw {
            Ok(())
        } else {
            Err(self.error_at_last(format!("expected keyword {kw:?}, found identifier {id:?}")))
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(x)) if x == s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    // affine := aterm (('+'|'-') aterm)*
    // aterm  := int | int '*' ident | ident | ident '*' int | '-' aterm | '(' affine ')'
    fn affine(&mut self) -> Result<AffineExpr, ParseError> {
        let mut acc = self.affine_term()?;
        loop {
            if self.eat_sym("+") {
                let t = self.affine_term()?;
                acc = &acc + &t;
            } else if self.peek() == Some(Tok::Sym("-"))
                && self.toks.get(self.i + 1).map(|&(t, _)| t) != Some(Tok::Sym("-"))
            {
                self.i += 1;
                let t = self.affine_term()?;
                acc = &acc - &t;
            } else {
                break;
            }
        }
        Ok(acc)
    }

    fn affine_term(&mut self) -> Result<AffineExpr, ParseError> {
        match self.bump()? {
            Tok::Int(v) => {
                if self.eat_sym("*") {
                    let id = self.expect_ident()?;
                    Ok(AffineExpr::from_terms(&[(id, v)], 0))
                } else {
                    Ok(AffineExpr::constant(v))
                }
            }
            Tok::Ident(id) => {
                if self.eat_sym("*") {
                    match self.bump()? {
                        Tok::Int(v) => Ok(AffineExpr::from_terms(&[(id, v)], 0)),
                        other => Err(self.error_at_last(format!(
                            "affine multiplier must be an integer, found {other}"
                        ))),
                    }
                } else {
                    Ok(AffineExpr::var(id))
                }
            }
            Tok::Sym("-") => {
                let t = self.affine_term()?;
                Ok(-&t)
            }
            Tok::Sym("(") => {
                let e = self.affine()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            other => Err(self.error_at_last(format!("expected affine expression, found {other}"))),
        }
    }

    fn array_ref(&mut self, name: &str) -> Result<LhsRef, ParseError> {
        let mut idxs = Vec::new();
        while self.eat_sym("[") {
            idxs.push(self.affine()?);
            self.expect_sym("]")?;
        }
        if idxs.is_empty() {
            return Err(self.error(format!("array reference {name:?} needs at least one index")));
        }
        Ok(LhsRef {
            array: name.to_string(),
            idxs,
        })
    }

    // value expression with precedence: unary - > * / > + -
    fn value(&mut self) -> Result<ValueExpr, ParseError> {
        let mut acc = self.value_term()?;
        loop {
            if self.eat_sym("+") {
                let t = self.value_term()?;
                acc = ValueExpr::Add(Box::new(acc), Box::new(t));
            } else if self.eat_sym("-") {
                let t = self.value_term()?;
                acc = ValueExpr::Sub(Box::new(acc), Box::new(t));
            } else {
                break;
            }
        }
        Ok(acc)
    }

    fn value_term(&mut self) -> Result<ValueExpr, ParseError> {
        let mut acc = self.value_atom()?;
        loop {
            if self.eat_sym("*") {
                let t = self.value_atom()?;
                acc = ValueExpr::Mul(Box::new(acc), Box::new(t));
            } else if self.eat_sym("/") {
                let t = self.value_atom()?;
                acc = ValueExpr::Div(Box::new(acc), Box::new(t));
            } else {
                break;
            }
        }
        Ok(acc)
    }

    fn value_atom(&mut self) -> Result<ValueExpr, ParseError> {
        match self.bump()? {
            Tok::Float(v) => Ok(ValueExpr::Const(v)),
            Tok::Int(v) => Ok(ValueExpr::Const(v as f64)),
            Tok::Sym("-") => {
                // Fold negated literals so printing and parsing agree.
                match self.value_atom()? {
                    ValueExpr::Const(c) => Ok(ValueExpr::Const(-c)),
                    other => Ok(ValueExpr::Neg(Box::new(other))),
                }
            }
            Tok::Sym("(") => {
                let e = self.value()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Ident(name) => Ok(ValueExpr::Read(self.array_ref(name)?)),
            other => Err(self.error_at_last(format!("expected expression, found {other}"))),
        }
    }

    fn node(&mut self) -> Result<Node, ParseError> {
        if self.peek() == Some(Tok::Ident("for")) {
            self.i += 1;
            let var = self.expect_ident()?.to_string();
            self.expect_keyword("in")?;
            let lo = self.affine()?;
            self.expect_sym("..")?;
            let hi = self.affine()?;
            self.expect_sym("{")?;
            let mut body = Vec::new();
            while self.peek() != Some(Tok::Sym("}")) {
                body.push(self.node()?);
            }
            self.expect_sym("}")?;
            return Ok(Node::Loop(Loop { var, lo, hi, body }));
        }
        // statement: ref = value ;
        let name = self.expect_ident()?;
        let lhs = self.array_ref(name)?;
        self.expect_sym("=")?;
        let rhs = self.value()?;
        self.expect_sym(";")?;
        Ok(Node::Stmt(Statement { lhs, rhs }))
    }

    fn decl(&mut self) -> Result<ArrayDecl, ParseError> {
        let first = self.expect_ident()?;
        let (role, kind_word) = match first {
            "in" => (Role::In, self.expect_ident()?),
            "out" => (Role::Out, self.expect_ident()?),
            "inout" => (Role::InOut, self.expect_ident()?),
            other => (Role::InOut, other),
        };
        let kind = match kind_word {
            "matrix" => ArrayKind::Matrix,
            "vector" => ArrayKind::Vector,
            other => {
                return Err(self.error(format!("expected matrix/vector, found {other:?}")));
            }
        };
        let name = self.expect_ident()?;
        let mut dims = Vec::new();
        while self.eat_sym("[") {
            dims.push(self.affine()?);
            self.expect_sym("]")?;
        }
        let need = match kind {
            ArrayKind::Matrix => 2,
            ArrayKind::Vector => 1,
        };
        if dims.len() != need {
            return Err(self.error(format!(
                "{name:?}: expected {need} dimension(s), found {}",
                dims.len()
            )));
        }
        self.expect_sym(";")?;
        Ok(ArrayDecl {
            name: name.to_string(),
            kind,
            role,
            dims,
        })
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        self.expect_keyword("program")?;
        let name = self.expect_ident()?;
        self.expect_sym("(")?;
        let mut params = Vec::new();
        if self.peek() != Some(Tok::Sym(")")) {
            loop {
                params.push(self.expect_ident()?.to_string());
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        self.expect_sym(")")?;
        self.expect_sym("{")?;
        let mut arrays = Vec::new();
        // declarations until a `for` or statement shows up
        while let Some(Tok::Ident(w)) = self.peek() {
            if matches!(w, "in" | "out" | "inout" | "matrix" | "vector") {
                arrays.push(self.decl()?);
            } else {
                break;
            }
        }
        let mut body = Vec::new();
        while self.peek() != Some(Tok::Sym("}")) {
            body.push(self.node()?);
        }
        self.expect_sym("}")?;
        if self.i != self.toks.len() {
            return Err(self.error("trailing input after program"));
        }
        Ok(Program {
            name: name.to_string(),
            params,
            arrays,
            body,
        })
    }
}

/// Parses the mini-language into a [`Program`]. Errors carry a 1-based
/// line/column position and name the offending token.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parse_inner(src).map_err(|e| e.locate(src))
}

fn parse_inner(src: &str) -> Result<Program, ParseError> {
    let mut lex = Lexer::new(src);
    let mut toks = Vec::new();
    while let Some(t) = lex.next()? {
        toks.push(t);
    }
    Parser { toks, i: 0 }.program()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TS: &str = r#"
        program ts(N) {
          in matrix L[N][N];
          inout vector b[N];
          for j in 0..N {
            b[j] = b[j] / L[j][j];
            for i in j+1..N {
              b[i] = b[i] - L[i][j] * b[j];
            }
          }
        }
    "#;

    #[test]
    fn parses_triangular_solve() -> Result<(), ParseError> {
        let p = parse_program(TS)?;
        assert_eq!(p.name, "ts");
        assert_eq!(p.params, vec!["N"]);
        assert_eq!(p.arrays.len(), 2);
        assert_eq!(p.arrays[0].role, Role::In);
        assert_eq!(p.arrays[1].role, Role::InOut);
        let stmts = p.statements();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[1].loop_vars(), vec!["j", "i"]);
        // inner loop lower bound is j + 1
        assert_eq!(stmts[1].loops[1].1, AffineExpr::from_terms(&[("j", 1)], 1));
        Ok(())
    }

    #[test]
    fn parses_mvm() -> Result<(), ParseError> {
        let src = r#"
            program mvm(M, N) {
              in matrix A[M][N];
              in vector x[N];
              inout vector y[M];
              for i in 0..M {
                for j in 0..N {
                  y[i] = y[i] + A[i][j] * x[j];
                }
              }
            }
        "#;
        let p = parse_program(src)?;
        assert_eq!(p.params, vec!["M", "N"]);
        let stmts = p.statements();
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].accesses().len(), 4);
        Ok(())
    }

    #[test]
    fn comments_and_floats() -> Result<(), ParseError> {
        let src = r#"
            program scale(N) { // header comment
              inout vector x[N];
              for i in 0..N {
                x[i] = x[i] * 2.5; // body comment
              }
            }
        "#;
        let p = parse_program(src)?;
        let stmts = p.statements();
        match &stmts[0].stmt.rhs {
            ValueExpr::Mul(_, b) => assert_eq!(**b, ValueExpr::Const(2.5)),
            other => panic!("unexpected rhs {other:?}"),
        }
        Ok(())
    }

    #[test]
    fn affine_coefficients() -> Result<(), ParseError> {
        let src = r#"
            program p(N) {
              inout vector x[N];
              for i in 0..N {
                x[2*i - 1 + N] = 1;
              }
            }
        "#;
        let p = parse_program(src)?;
        let idx = &p.statements()[0].stmt.lhs.idxs[0];
        assert_eq!(idx, &AffineExpr::from_terms(&[("i", 2), ("N", 1)], -1));
        Ok(())
    }

    #[test]
    fn operator_precedence() -> Result<(), ParseError> {
        let src = r#"
            program p(N) {
              inout vector x[N];
              x[0] = 1 + 2 * 3 - 4 / 2;
            }
        "#;
        let p = parse_program(src)?;
        let rhs = &p.statements()[0].stmt.rhs;
        // ((1 + (2*3)) - (4/2))
        let shown = rhs.to_string();
        assert_eq!(shown, "((1 + (2 * 3)) - (4 / 2))");
        Ok(())
    }

    #[test]
    fn error_reporting() {
        let e = parse_program("program p() { for i in 0..N ").unwrap_err();
        assert!(e.msg.contains("unexpected end"));
        let e2 = parse_program("program p() { in matrix A[N]; }").unwrap_err();
        assert!(e2.msg.contains("expected 2 dimension"));
        let e3 = parse_program("program p() { x = 1; }").unwrap_err();
        assert!(e3.msg.contains("at least one index"));
    }

    #[test]
    fn errors_carry_line_and_column() {
        // The stray `]` sits on line 3, column 20 (1-based).
        let src = "program p(N) {\n  inout vector x[N];\n  for i in 0..N { x]i] = 0; }\n}";
        let e = parse_program(src).unwrap_err();
        assert_eq!((e.line, e.column), (3, 20), "{e}");
        assert_eq!(&src[e.offset..e.offset + 1], "]");
        let shown = e.to_string();
        assert!(shown.contains("line 3"), "{shown}");
        assert!(shown.contains("column 20"), "{shown}");
    }

    #[test]
    fn errors_name_the_offending_token() {
        // `=` where an index expression must continue: the message names
        // the unexpected token and points at its position.
        let src = "program p(N) {\n  inout vector x[N];\n  x[0 = 1;\n}";
        let e = parse_program(src).unwrap_err();
        assert!(e.msg.contains("\"=\""), "{e}");
        assert_eq!((e.line, e.column), (3, 7), "{e}");
        // A wrong keyword is quoted too.
        let e2 = parse_program("module p() {}").unwrap_err();
        assert!(e2.msg.contains("\"module\""), "{e2}");
        assert_eq!((e2.line, e2.column), (1, 1), "{e2}");
    }

    #[test]
    fn end_of_input_error_points_past_last_byte() {
        let src = "program p() { for i in 0..N ";
        let e = parse_program(src).unwrap_err();
        assert_eq!(e.offset, src.len());
        assert_eq!((e.line, e.column), (1, src.len() + 1), "{e}");
    }

    #[test]
    fn range_lexing() -> Result<(), ParseError> {
        // `0..N` must not lex as a float.
        let p = parse_program("program p(N) { inout vector x[N]; for i in 0..N { x[i] = 0; } }")?;
        assert_eq!(p.statements().len(), 1);
        Ok(())
    }
}
