//! Parser for the textual specification expression language.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! expr    := ite | iff
//! ite     := "if" expr "then" expr "else" expr
//! iff     := imp ( "<->" imp )*
//! imp     := or ( "->" imp )?                 (right associative)
//! or      := and ( ("|" | "^") and )*
//! and     := unary ( "&" unary )*
//! unary   := "!" unary | atom
//! atom    := "true" | "false" | identifier | "(" expr ")"
//! ```
//!
//! Identifiers may contain letters, digits, `_`, `.`, `[`, `]` — so signal
//! names like `long.1.moe`, `scb[3]` or `c.regaddr[0]` are single tokens.
//!
//! An expression may nest at most [`MAX_NESTING`] levels deep: every
//! parenthesis, `!`, `->`, `if`, and every `&`, `|`, `<->` and `^` node
//! above an operand is one level. Deeper input is refused before the
//! parser's recursion or the tree it builds can exhaust the stack (a
//! left-deep `a <-> a <-> …` chain is built without recursion, but
//! dropping or walking it recurses once per link).

use std::fmt;

use crate::expr::Expr;
use crate::vars::VarPool;

/// Error produced when parsing a specification expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting [`parse_expr`] accepts, in levels (see the module
/// docs); the same cap as the JSON reader of `ipcl-trace`.
pub const MAX_NESTING: usize = 64;

#[derive(Clone, PartialEq, Eq, Debug)]
enum Token {
    Ident(String),
    True,
    False,
    Not,
    And,
    Or,
    Xor,
    Implies,
    Iff,
    LParen,
    RParen,
    If,
    Then,
    Else,
}

struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn tokenize(mut self) -> Result<Vec<(usize, Token)>, ParseError> {
        let bytes = self.input.as_bytes();
        let mut tokens = Vec::new();
        while self.pos < bytes.len() {
            let start = self.pos;
            let c = bytes[self.pos] as char;
            match c {
                ' ' | '\t' | '\n' | '\r' => {
                    self.pos += 1;
                }
                '(' => {
                    tokens.push((start, Token::LParen));
                    self.pos += 1;
                }
                ')' => {
                    tokens.push((start, Token::RParen));
                    self.pos += 1;
                }
                '!' | '~' => {
                    tokens.push((start, Token::Not));
                    self.pos += 1;
                }
                '&' => {
                    self.pos += 1;
                    if bytes.get(self.pos) == Some(&b'&') {
                        self.pos += 1;
                    }
                    tokens.push((start, Token::And));
                }
                '|' => {
                    self.pos += 1;
                    if bytes.get(self.pos) == Some(&b'|') {
                        self.pos += 1;
                    }
                    tokens.push((start, Token::Or));
                }
                '^' => {
                    tokens.push((start, Token::Xor));
                    self.pos += 1;
                }
                '-' => {
                    if bytes.get(self.pos + 1) == Some(&b'>') {
                        tokens.push((start, Token::Implies));
                        self.pos += 2;
                    } else {
                        return Err(self.error("expected '->'"));
                    }
                }
                '<' => {
                    if self.input[self.pos..].starts_with("<->") {
                        tokens.push((start, Token::Iff));
                        self.pos += 3;
                    } else {
                        return Err(self.error("expected '<->'"));
                    }
                }
                c if c.is_ascii_alphanumeric() || c == '_' => {
                    let mut end = self.pos;
                    while end < bytes.len() {
                        let ch = bytes[end] as char;
                        if ch.is_ascii_alphanumeric()
                            || ch == '_'
                            || ch == '.'
                            || ch == '['
                            || ch == ']'
                        {
                            end += 1;
                        } else {
                            break;
                        }
                    }
                    let word = &self.input[self.pos..end];
                    self.pos = end;
                    let token = match word {
                        "true" | "TRUE" | "1" => Token::True,
                        "false" | "FALSE" | "0" => Token::False,
                        "if" => Token::If,
                        "then" => Token::Then,
                        "else" => Token::Else,
                        "and" => Token::And,
                        "or" => Token::Or,
                        "not" => Token::Not,
                        _ => Token::Ident(word.to_owned()),
                    };
                    tokens.push((start, token));
                }
                other => return Err(self.error(format!("unexpected character '{other}'"))),
            }
        }
        Ok(tokens)
    }
}

struct Parser<'a> {
    tokens: Vec<(usize, Token)>,
    cursor: usize,
    pool: &'a mut VarPool,
    input_len: usize,
    /// Levels enclosing the current parse position.
    depth: usize,
}

/// A parsed subexpression and its height: the levels of nesting below
/// its root (0 for an atom).
type Parsed = (Expr, usize);

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.cursor).map(|(_, t)| t)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.cursor)
            .map(|(p, _)| *p)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<Token> {
        let tok = self.tokens.get(self.cursor).map(|(_, t)| t.clone());
        self.cursor += 1;
        tok
    }

    fn expect(&mut self, expected: &Token, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.cursor += 1;
            Ok(())
        } else {
            Err(ParseError {
                position: self.position(),
                message: format!("expected {what}"),
            })
        }
    }

    fn too_deep(&self) -> ParseError {
        ParseError {
            position: self.position(),
            message: format!("expression nests deeper than {MAX_NESTING} levels"),
        }
    }

    /// Parses one level down with `parse`, refusing to descend past
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// The height of a node over children of heights `children`, refused
    /// when the node would reach past [`MAX_NESTING`].
    fn node(&self, children: &[usize]) -> Result<usize, ParseError> {
        let height = children.iter().max().map_or(0, |h| h + 1);
        if self.depth + height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(height)
    }

    fn parse_expr(&mut self) -> Result<Parsed, ParseError> {
        if self.peek() == Some(&Token::If) {
            self.cursor += 1;
            let ((cond, c), (then, t), (els, e)) = self.nested(|p| {
                let cond = p.parse_expr()?;
                p.expect(&Token::Then, "'then'")?;
                let then = p.parse_expr()?;
                p.expect(&Token::Else, "'else'")?;
                Ok((cond, then, p.parse_expr()?))
            })?;
            return Ok((Expr::ite(cond, then, els), self.node(&[c, t, e])?));
        }
        self.parse_iff()
    }

    fn parse_iff(&mut self) -> Result<Parsed, ParseError> {
        let (mut lhs, mut height) = self.parse_implies()?;
        while self.peek() == Some(&Token::Iff) {
            self.cursor += 1;
            let (rhs, h) = self.parse_implies()?;
            height = self.node(&[height, h])?;
            lhs = Expr::iff(lhs, rhs);
        }
        Ok((lhs, height))
    }

    fn parse_implies(&mut self) -> Result<Parsed, ParseError> {
        let (lhs, l) = self.parse_or()?;
        if self.peek() == Some(&Token::Implies) {
            self.cursor += 1;
            let (rhs, r) = self.nested(Self::parse_implies)?;
            Ok((Expr::implies(lhs, rhs), self.node(&[l, r])?))
        } else {
            Ok((lhs, l))
        }
    }

    fn parse_or(&mut self) -> Result<Parsed, ParseError> {
        let (first, mut height) = self.parse_and()?;
        let mut operands = vec![first];
        loop {
            match self.peek() {
                Some(Token::Or) => {
                    self.cursor += 1;
                    let (rhs, h) = self.parse_and()?;
                    operands.push(rhs);
                    height = height.max(h);
                }
                Some(Token::Xor) => {
                    self.cursor += 1;
                    let (rhs, h) = self.parse_and()?;
                    let lhs = if operands.len() == 1 {
                        operands.pop().expect("one operand")
                    } else {
                        height = self.node(&[height])?;
                        Expr::or(std::mem::take(&mut operands))
                    };
                    height = self.node(&[height, h])?;
                    operands.push(Expr::xor(lhs, rhs));
                }
                _ => break,
            }
        }
        if operands.len() > 1 {
            height = self.node(&[height])?;
        }
        Ok((Expr::or(operands), height))
    }

    fn parse_and(&mut self) -> Result<Parsed, ParseError> {
        let (first, mut height) = self.parse_unary()?;
        let mut operands = vec![first];
        while self.peek() == Some(&Token::And) {
            self.cursor += 1;
            let (rhs, h) = self.parse_unary()?;
            operands.push(rhs);
            height = height.max(h);
        }
        if operands.len() > 1 {
            height = self.node(&[height])?;
        }
        Ok((Expr::and(operands), height))
    }

    fn parse_unary(&mut self) -> Result<Parsed, ParseError> {
        if self.peek() == Some(&Token::Not) {
            self.cursor += 1;
            let (operand, h) = self.nested(Self::parse_unary)?;
            return Ok((Expr::not(operand), self.node(&[h])?));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<Parsed, ParseError> {
        let position = self.position();
        match self.bump() {
            Some(Token::True) => Ok((Expr::TRUE, 0)),
            Some(Token::False) => Ok((Expr::FALSE, 0)),
            Some(Token::Ident(name)) => Ok((Expr::var(self.pool.var(&name)), 0)),
            Some(Token::LParen) => {
                let (inner, h) = self.nested(|p| {
                    let inner = p.parse_expr()?;
                    p.expect(&Token::RParen, "')'")?;
                    Ok(inner)
                })?;
                Ok((inner, self.node(&[h])?))
            }
            other => Err(ParseError {
                position,
                message: format!("expected an atom, found {other:?}"),
            }),
        }
    }
}

/// Parses `input` into an [`Expr`], interning variable names in `pool`.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending position if the
/// input is not a well-formed expression, or if it nests deeper than
/// [`MAX_NESTING`] levels.
///
/// # Example
///
/// ```
/// use ipcl_expr::{parse_expr, VarPool};
///
/// let mut pool = VarPool::new();
/// let e = parse_expr("long.req & !long.gnt -> !long.4.moe", &mut pool)?;
/// assert_eq!(e.vars().len(), 3);
/// # Ok::<(), ipcl_expr::ParseError>(())
/// ```
pub fn parse_expr(input: &str, pool: &mut VarPool) -> Result<Expr, ParseError> {
    let tokens = Lexer::new(input).tokenize()?;
    let mut parser = Parser {
        tokens,
        cursor: 0,
        pool,
        input_len: input.len(),
        depth: 0,
    };
    let (expr, _) = parser.parse_expr()?;
    if parser.cursor != parser.tokens.len() {
        return Err(ParseError {
            position: parser.position(),
            message: "trailing input after expression".to_owned(),
        });
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::semantically_equal;

    fn parse(text: &str) -> (Expr, VarPool) {
        let mut pool = VarPool::new();
        let e = parse_expr(text, &mut pool).expect("parse");
        (e, pool)
    }

    #[test]
    fn atoms() {
        assert_eq!(parse("true").0, Expr::TRUE);
        assert_eq!(parse("false").0, Expr::FALSE);
        assert_eq!(parse("1").0, Expr::TRUE);
        assert_eq!(parse("0").0, Expr::FALSE);
        let (e, pool) = parse("long.1.moe");
        assert_eq!(e, Expr::var(pool.lookup("long.1.moe").unwrap()));
    }

    #[test]
    fn dotted_and_indexed_identifiers() {
        let (e, pool) = parse("scb[3] & c.regaddr[0]");
        assert!(pool.lookup("scb[3]").is_some());
        assert!(pool.lookup("c.regaddr[0]").is_some());
        assert_eq!(e.vars().len(), 2);
    }

    #[test]
    fn precedence_and_over_or() {
        let (e, pool) = parse("a | b & c");
        let a = pool.lookup("a").unwrap();
        let b = pool.lookup("b").unwrap();
        let c = pool.lookup("c").unwrap();
        assert_eq!(
            e,
            Expr::or([Expr::var(a), Expr::and([Expr::var(b), Expr::var(c)])])
        );
    }

    #[test]
    fn implication_is_right_associative_and_lowest() {
        let (e, pool) = parse("a & b -> c -> d");
        let a = pool.lookup("a").unwrap();
        let b = pool.lookup("b").unwrap();
        let c = pool.lookup("c").unwrap();
        let d = pool.lookup("d").unwrap();
        assert_eq!(
            e,
            Expr::implies(
                Expr::and([Expr::var(a), Expr::var(b)]),
                Expr::implies(Expr::var(c), Expr::var(d))
            )
        );
    }

    #[test]
    fn alternative_operator_spellings() {
        let (e1, _) = parse("a && b || !c");
        let (e2, _) = parse("a and b or not c");
        assert!(semantically_equal(&e1, &e2));
        let (e3, _) = parse("~a");
        let (e4, _) = parse("!a");
        assert!(semantically_equal(&e3, &e4));
    }

    #[test]
    fn if_then_else() {
        let (e, pool) = parse("if a then b else c");
        let a = pool.lookup("a").unwrap();
        let b = pool.lookup("b").unwrap();
        let c = pool.lookup("c").unwrap();
        assert_eq!(e, Expr::ite(Expr::var(a), Expr::var(b), Expr::var(c)));
    }

    #[test]
    fn parentheses_override_precedence() {
        let (e, _) = parse("(a | b) & c");
        match e {
            Expr::And(ops) => assert_eq!(ops.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn error_positions() {
        let mut pool = VarPool::new();
        let err = parse_expr("a &", &mut pool).unwrap_err();
        assert!(err.message.contains("atom"));
        let err = parse_expr("a b", &mut pool).unwrap_err();
        assert!(err.message.contains("trailing"));
        let err = parse_expr("a @ b", &mut pool).unwrap_err();
        assert!(err.message.contains("unexpected character"));
        let err = parse_expr("(a", &mut pool).unwrap_err();
        assert!(err.message.contains("')'"));
        let err = parse_expr("a - b", &mut pool).unwrap_err();
        assert!(err.message.contains("->"));
        let err = parse_expr("a <- b", &mut pool).unwrap_err();
        assert!(err.message.contains("<->"));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn paper_fig2_long_pipe_rule_parses() {
        // One conjunct of Figure 2 written in the textual syntax.
        let text = "long.1.rtm & !long.2.moe \
                    | op_is_wait \
                    | !short.1.moe \
                    | long.1.src.outstanding | long.1.dst.outstanding \
                    -> !long.1.moe";
        let (e, pool) = parse(text);
        assert_eq!(e.vars().len(), 7);
        assert!(pool.lookup("op_is_wait").is_some());
        assert!(matches!(e, Expr::Implies(_, _)));
    }

    /// Each nesting construct, `levels` deep around the atom `a`.
    fn nested(levels: usize) -> [(&'static str, String); 6] {
        [
            (
                "parentheses",
                format!("{}a{}", "(".repeat(levels), ")".repeat(levels)),
            ),
            ("negations", format!("{}a", "!".repeat(levels))),
            ("implications", format!("{}a", "a -> ".repeat(levels))),
            (
                "if-then-else",
                format!("{}a", "if a then a else ".repeat(levels)),
            ),
            ("bi-implications", format!("a{}", " <-> a".repeat(levels))),
            ("exclusive ors", format!("a{}", " ^ a".repeat(levels))),
        ]
    }

    #[test]
    fn nesting_up_to_the_cap_parses() {
        for (construct, text) in nested(MAX_NESTING) {
            let mut pool = VarPool::new();
            assert!(parse_expr(&text, &mut pool).is_ok(), "{construct}");
        }
    }

    #[test]
    fn nesting_past_the_cap_is_refused() {
        for (construct, text) in nested(MAX_NESTING + 1) {
            let err = parse_expr(&text, &mut VarPool::new()).unwrap_err();
            assert!(err.message.contains("64 levels"), "{construct}: {err}");
        }
        // An n-ary operator counts one level, like each parenthesis.
        let disjunctions = |n: usize| format!("{}a{}", "a | (".repeat(n), ")".repeat(n));
        assert!(parse_expr(&disjunctions(32), &mut VarPool::new()).is_ok());
        assert!(parse_expr(&disjunctions(33), &mut VarPool::new()).is_err());
    }

    #[test]
    fn hostile_depths_are_refused_without_exhausting_the_stack() {
        let parens = format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000));
        let chain = format!("a{}", " <-> a".repeat(200_000));
        for text in [parens, chain, "!".repeat(100_000) + "a"] {
            let err = parse_expr(&text, &mut VarPool::new()).unwrap_err();
            assert!(err.message.contains("64 levels"), "{err}");
        }
    }
}
