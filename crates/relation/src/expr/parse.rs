//! A small recursive-descent parser for the textual expression form.
//!
//! The grammar is the SQL-flavoured subset printed by `Display for Expr`,
//! so `parse(&e.to_string()) == e` modulo literal spelling. The PLA DSL
//! (crate `bi-pla`) embeds these expressions as intensional conditions.
//!
//! ```text
//! expr     := or
//! or       := and (OR and)*
//! and      := not (AND not)*
//! not      := NOT not | cmp
//! cmp      := add ((= | <> | != | < | <= | > | >=) add
//!            | IS [NOT] NULL
//!            | [NOT] IN '(' literal (',' literal)* ')'
//!            | [NOT] BETWEEN add AND add)?
//! add      := mul (('+' | '-') mul)*
//! mul      := unary (('*' | '/') unary)*
//! unary    := '-' unary | primary
//! primary  := literal | ident '(' args ')' | ident | '(' expr ')'
//! literal  := NULL | TRUE | FALSE | number | string | DATE string
//! ```

use bi_types::{Date, Value};

use crate::error::RelationError;

use super::{BinOp, Expr, Func};

/// Deepest allowed expression nesting. The parser is recursive descent,
/// and everything downstream of it (evaluation, compilation, printing)
/// recurses over the tree too — an adversarial input like 10k opening
/// parentheses or a `NOT NOT NOT …` chain must come back as a typed
/// [`RelationError::TooDeep`], not a stack overflow. Flat chains
/// (`a AND b AND c AND …`) are parsed iteratively and stay unbounded.
///
/// Each nesting level costs several parser frames (one per precedence
/// tier), so the limit is sized to fit comfortably inside a default
/// 2 MiB thread stack even in unoptimized builds.
pub const MAX_DEPTH: usize = 128;

/// Parses the textual expression form.
pub fn parse(input: &str) -> Result<Expr, RelationError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
        depth: 0,
    };
    let e = p.parse_or()?;
    if p.pos < p.tokens.len() {
        return Err(p.error(format!(
            "unexpected trailing token {:?}",
            p.tokens[p.pos].kind
        )));
    }
    Ok(e)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str),
}

#[derive(Debug, Clone)]
struct Token {
    kind: Tok,
    offset: usize,
}

fn lex(input: &str) -> Result<Vec<Token>, RelationError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    // `i` only ever advances by whole characters (every branch below
    // consumes ASCII bytes or `len_utf8` of a decoded char), so slicing
    // `input` at it is always on a char boundary.
    while let Some(c) = input[i..].chars().next() {
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let offset = i;
        match c {
            '(' | ')' | ',' | '+' | '-' | '*' | '/' | '=' => {
                let sym = match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '+' => "+",
                    '-' => "-",
                    '*' => "*",
                    '/' => "/",
                    _ => "=",
                };
                out.push(Token {
                    kind: Tok::Sym(sym),
                    offset,
                });
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        kind: Tok::Sym("<="),
                        offset,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token {
                        kind: Tok::Sym("<>"),
                        offset,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        kind: Tok::Sym("<"),
                        offset,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        kind: Tok::Sym(">="),
                        offset,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        kind: Tok::Sym(">"),
                        offset,
                    });
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token {
                        kind: Tok::Sym("<>"),
                        offset,
                    });
                    i += 2;
                } else {
                    return Err(RelationError::Parse {
                        message: "lone '!'".into(),
                        position: i,
                    });
                }
            }
            '\'' => {
                // SQL string literal with '' escaping.
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(RelationError::Parse {
                                message: "unterminated string literal".into(),
                                position: offset,
                            })
                        }
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(_) => {
                            // Advance over one UTF-8 char.
                            let ch_len = input[i..].chars().next().map(char::len_utf8).unwrap_or(1);
                            s.push_str(&input[i..i + ch_len]);
                            i += ch_len;
                        }
                    }
                }
                out.push(Token {
                    kind: Tok::Str(s),
                    offset,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes
                        .get(i + 1)
                        .is_some_and(|b| (*b as char).is_ascii_digit())
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                let kind = if is_float {
                    Tok::Float(text.parse().map_err(|_| RelationError::Parse {
                        message: format!("bad float {text:?}"),
                        position: start,
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| RelationError::Parse {
                        message: format!("bad integer {text:?}"),
                        position: start,
                    })?)
                };
                out.push(Token { kind, offset });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                // Identifiers may be dotted (qualified names like `p.Drug`)
                // and may hold any Unicode letter or digit.
                for ch in input[i..].chars() {
                    if ch.is_alphanumeric() || ch == '_' || ch == '.' {
                        i += ch.len_utf8();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: Tok::Ident(input[start..i].to_string()),
                    offset,
                });
            }
            other => {
                return Err(RelationError::Parse {
                    message: format!("unexpected character {other:?}"),
                    position: i,
                })
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    input_len: usize,
    /// Current recursion depth; bounded by [`MAX_DEPTH`]. Incremented
    /// at every grammar point that can recurse unboundedly (`parse_or`
    /// for parenthesized/argument subexpressions, and the
    /// self-recursive `NOT` / unary-minus chains).
    depth: usize,
}

impl Parser {
    fn error(&self, message: String) -> RelationError {
        let position = self
            .tokens
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or(self.input_len);
        RelationError::Parse { message, position }
    }

    /// Bumps the recursion depth, rejecting pathological nesting.
    fn enter(&mut self) -> Result<(), RelationError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(RelationError::TooDeep { limit: MAX_DEPTH });
        }
        Ok(())
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes a keyword (case-insensitive identifier) if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), RelationError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw}")))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if let Some(Tok::Sym(s)) = self.peek() {
            if *s == sym {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), RelationError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected {sym:?}")))
        }
    }

    fn parse_or(&mut self) -> Result<Expr, RelationError> {
        self.enter()?;
        let out = self.parse_or_body();
        self.depth -= 1;
        out
    }

    fn parse_or_body(&mut self) -> Result<Expr, RelationError> {
        let mut e = self.parse_and()?;
        while self.eat_kw("OR") {
            let r = self.parse_and()?;
            e = e.or(r);
        }
        Ok(e)
    }

    fn parse_and(&mut self) -> Result<Expr, RelationError> {
        let mut e = self.parse_not()?;
        while self.eat_kw("AND") {
            let r = self.parse_not()?;
            e = e.and(r);
        }
        Ok(e)
    }

    fn parse_not(&mut self) -> Result<Expr, RelationError> {
        if self.eat_kw("NOT") {
            self.enter()?;
            let inner = self.parse_not();
            self.depth -= 1;
            Ok(inner?.not())
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr, RelationError> {
        let e = self.parse_add()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            let base = e.is_null();
            return Ok(if negated { base.not() } else { base });
        }
        // [NOT] IN / [NOT] BETWEEN
        let negated = {
            let save = self.pos;
            if self.eat_kw("NOT") {
                if matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("IN") || s.eq_ignore_ascii_case("BETWEEN"))
                {
                    true
                } else {
                    self.pos = save;
                    false
                }
            } else {
                false
            }
        };
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let mut vals = Vec::new();
            loop {
                vals.push(self.parse_literal_value()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            let base = Expr::InList(Box::new(e), vals);
            return Ok(if negated { base.not() } else { base });
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.parse_add()?;
            self.expect_kw("AND")?;
            let hi = self.parse_add()?;
            let base = Expr::Between(Box::new(e), Box::new(lo), Box::new(hi));
            return Ok(if negated { base.not() } else { base });
        }
        if negated {
            return Err(self.error("expected IN or BETWEEN after NOT".into()));
        }
        // Plain comparison operator.
        let op = match self.peek() {
            Some(Tok::Sym("=")) => Some(BinOp::Eq),
            Some(Tok::Sym("<>")) => Some(BinOp::Ne),
            Some(Tok::Sym("<")) => Some(BinOp::Lt),
            Some(Tok::Sym("<=")) => Some(BinOp::Le),
            Some(Tok::Sym(">")) => Some(BinOp::Gt),
            Some(Tok::Sym(">=")) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let r = self.parse_add()?;
            return Ok(Expr::Bin(op, Box::new(e), Box::new(r)));
        }
        Ok(e)
    }

    fn parse_add(&mut self) -> Result<Expr, RelationError> {
        let mut e = self.parse_mul()?;
        loop {
            if self.eat_sym("+") {
                e = Expr::Bin(BinOp::Add, Box::new(e), Box::new(self.parse_mul()?));
            } else if self.eat_sym("-") {
                e = Expr::Bin(BinOp::Sub, Box::new(e), Box::new(self.parse_mul()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_mul(&mut self) -> Result<Expr, RelationError> {
        let mut e = self.parse_unary()?;
        loop {
            if self.eat_sym("*") {
                e = Expr::Bin(BinOp::Mul, Box::new(e), Box::new(self.parse_unary()?));
            } else if self.eat_sym("/") {
                e = Expr::Bin(BinOp::Div, Box::new(e), Box::new(self.parse_unary()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, RelationError> {
        if self.eat_sym("-") {
            self.enter()?;
            let inner = self.parse_unary();
            self.depth -= 1;
            let inner = inner?;
            // Fold negation into numeric literals so `-1` parses as the
            // literal -1 (which is also how it prints).
            return Ok(match inner {
                Expr::Lit(Value::Int(i)) => Expr::Lit(Value::Int(-i)),
                Expr::Lit(Value::Float(f)) => Expr::Lit(Value::Float(-f)),
                other => Expr::Neg(Box::new(other)),
            });
        }
        self.parse_primary()
    }

    fn parse_literal_value(&mut self) -> Result<Value, RelationError> {
        // Sign for numbers inside IN-lists.
        if self.eat_sym("-") {
            return match self.next() {
                Some(Tok::Int(i)) => Ok(Value::Int(-i)),
                Some(Tok::Float(f)) => Ok(Value::Float(-f)),
                _ => Err(self.error("expected number after '-'".into())),
            };
        }
        match self.next() {
            Some(Tok::Int(i)) => Ok(Value::Int(i)),
            Some(Tok::Float(f)) => Ok(Value::Float(f)),
            Some(Tok::Str(s)) => Ok(Value::text(s)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("nan") => Ok(Value::Float(f64::NAN)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("inf") => Ok(Value::Float(f64::INFINITY)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("DATE") => {
                let txt = match self.next() {
                    Some(Tok::Str(t)) => t,
                    _ => return Err(self.error("expected string after DATE".into())),
                };
                let d: Date = Date::parse_flexible(&txt).map_err(|e| RelationError::Parse {
                    message: e.to_string(),
                    position: self
                        .tokens
                        .get(self.pos.saturating_sub(1))
                        .map(|t| t.offset)
                        .unwrap_or(0),
                })?;
                Ok(Value::Date(d))
            }
            other => {
                let what = other
                    .map(|t| format!("{t:?}"))
                    .unwrap_or_else(|| "end of input".to_string());
                Err(self.error(format!("expected literal, found {what}")))
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, RelationError> {
        if self.eat_sym("(") {
            let e = self.parse_or()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        match self.peek().cloned() {
            Some(Tok::Int(_)) | Some(Tok::Float(_)) | Some(Tok::Str(_)) => {
                Ok(Expr::Lit(self.parse_literal_value()?))
            }
            Some(Tok::Ident(s)) => {
                // Keyword literals first. `DATE` is a literal prefix only
                // when a string follows — plain `Date` is a legal column
                // name (the paper's Prescriptions relation has one).
                let date_literal = s.eq_ignore_ascii_case("DATE")
                    && matches!(
                        self.tokens.get(self.pos + 1).map(|t| &t.kind),
                        Some(Tok::Str(_))
                    );
                if s.eq_ignore_ascii_case("NULL")
                    || s.eq_ignore_ascii_case("TRUE")
                    || s.eq_ignore_ascii_case("FALSE")
                    || s.eq_ignore_ascii_case("nan")
                    || s.eq_ignore_ascii_case("inf")
                    || date_literal
                {
                    return Ok(Expr::Lit(self.parse_literal_value()?));
                }
                self.pos += 1;
                if self.eat_sym("(") {
                    // Function call.
                    let func = Func::by_name(&s)
                        .ok_or_else(|| self.error(format!("unknown function {s:?}")))?;
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            args.push(self.parse_or()?);
                            if !self.eat_sym(",") {
                                break;
                            }
                        }
                        self.expect_sym(")")?;
                    }
                    return Ok(Expr::Func(func, args));
                }
                Ok(Expr::Col(s))
            }
            other => {
                let what = other
                    .map(|t| format!("{t:?}"))
                    .unwrap_or_else(|| "end of input".to_string());
                Err(self.error(format!("expected expression, found {what}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{col, lit};
    use super::*;

    fn roundtrip(text: &str) {
        let e = parse(text).unwrap();
        let printed = e.to_string();
        let e2 = parse(&printed).unwrap();
        assert_eq!(
            e, e2,
            "print/parse roundtrip failed for {text:?} -> {printed:?}"
        );
    }

    #[test]
    fn parses_paper_condition() {
        // §5: "medical examinations results can be shown only for patients
        // that are not HIV positive".
        let e = parse("Disease <> 'HIV'").unwrap();
        assert_eq!(e, col("Disease").ne(lit("HIV")));
    }

    #[test]
    fn precedence_and_grouping() {
        let e = parse("a = 1 OR b = 2 AND c = 3").unwrap();
        // AND binds tighter than OR.
        assert_eq!(
            e,
            col("a")
                .eq(lit(1))
                .or(col("b").eq(lit(2)).and(col("c").eq(lit(3))))
        );
        let e = parse("(a = 1 OR b = 2) AND c = 3").unwrap();
        assert_eq!(
            e,
            col("a")
                .eq(lit(1))
                .or(col("b").eq(lit(2)))
                .and(col("c").eq(lit(3)))
        );
        let e = parse("1 + 2 * 3").unwrap();
        assert_eq!(e, lit(1).bin(BinOp::Add, lit(2).bin(BinOp::Mul, lit(3))));
    }

    #[test]
    fn literals() {
        assert_eq!(parse("NULL").unwrap(), Expr::Lit(Value::Null));
        assert_eq!(parse("TRUE").unwrap(), Expr::Lit(Value::Bool(true)));
        assert_eq!(parse("false").unwrap(), Expr::Lit(Value::Bool(false)));
        assert_eq!(parse("3.5").unwrap(), Expr::Lit(Value::Float(3.5)));
        assert_eq!(parse("'it''s'").unwrap(), Expr::Lit(Value::text("it's")));
        assert_eq!(
            parse("DATE '2007-02-12'").unwrap(),
            Expr::Lit(Value::date("2007-02-12").unwrap())
        );
        // Negation folds into numeric literals (canonical form).
        assert_eq!(parse("-4").unwrap(), lit(-4));
        assert_eq!(parse("-4.5").unwrap(), Expr::Lit(Value::Float(-4.5)));
        assert_eq!(
            parse("-x").unwrap(),
            Expr::Neg(Box::new(Expr::Col("x".into())))
        );
    }

    #[test]
    fn is_null_in_between() {
        assert_eq!(parse("Doctor IS NULL").unwrap(), col("Doctor").is_null());
        assert_eq!(
            parse("Doctor IS NOT NULL").unwrap(),
            col("Doctor").is_null().not()
        );
        let e = parse("Disease IN ('HIV', 'hepatitis')").unwrap();
        assert_eq!(
            e,
            Expr::InList(
                Box::new(col("Disease")),
                vec!["HIV".into(), "hepatitis".into()]
            )
        );
        let e = parse("Disease NOT IN ('HIV')").unwrap();
        assert_eq!(
            e,
            Expr::InList(Box::new(col("Disease")), vec!["HIV".into()]).not()
        );
        let e = parse("Cost BETWEEN 10 AND 60").unwrap();
        assert_eq!(
            e,
            Expr::Between(Box::new(col("Cost")), Box::new(lit(10)), Box::new(lit(60)))
        );
        let e = parse("Cost NOT BETWEEN 10 AND 60 AND x = 1").unwrap();
        assert_eq!(
            e,
            Expr::Between(Box::new(col("Cost")), Box::new(lit(10)), Box::new(lit(60)))
                .not()
                .and(col("x").eq(lit(1)))
        );
    }

    #[test]
    fn functions_and_qualified_names() {
        let e = parse("year(p.Date) = 2007").unwrap();
        assert_eq!(e, Expr::Func(Func::Year, vec![col("p.Date")]).eq(lit(2007)));
        assert!(parse("nosuchfn(x)").is_err());
        let e = parse("coalesce(Doctor, 'unknown')").unwrap();
        assert_eq!(
            e,
            Expr::Func(Func::Coalesce, vec![col("Doctor"), lit("unknown")])
        );
        assert_eq!(
            parse("substr(Name, 1, 3)").unwrap().to_string(),
            "substr(Name, 1, 3)"
        );
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("a = ").unwrap_err();
        assert!(matches!(err, RelationError::Parse { .. }));
        assert!(parse("a = 'oops").is_err(), "unterminated string");
        assert!(parse("a = 1 b").is_err(), "trailing tokens");
        assert!(parse("a ! b").is_err());
        assert!(parse("a NOT 3").is_err());
    }

    #[test]
    fn print_parse_roundtrips() {
        for text in [
            "Disease <> 'HIV' AND (Cost >= 10 OR Doctor IS NULL)",
            "NOT (a = 1 OR b = 2)",
            "year(Date) * 4 + quarter(Date) >= 8030",
            "Patient IN ('Alice', 'Bob', 'Math')",
            "Cost BETWEEN 10 AND 60 OR Cost > 100",
            "-x + 3.5 * (y - 2) <= 0",
            "concat(upper(First), ' ', lower(Last)) = 'X y'",
            "d = DATE '2008-02-29'",
        ] {
            roundtrip(text);
        }
    }

    /// Adversarially deep inputs must come back as a typed error, not a
    /// parser stack overflow (regression for the nesting-depth limit).
    #[test]
    fn pathological_nesting_is_a_typed_error() {
        let deep_parens = format!("{}x{}", "(".repeat(10_000), ")".repeat(10_000));
        assert_eq!(
            parse(&deep_parens),
            Err(RelationError::TooDeep { limit: MAX_DEPTH })
        );

        let deep_not = format!("{}x", "NOT ".repeat(10_000));
        assert_eq!(
            parse(&deep_not),
            Err(RelationError::TooDeep { limit: MAX_DEPTH })
        );

        let deep_neg = format!("{}x", "-".repeat(10_000));
        assert_eq!(
            parse(&deep_neg),
            Err(RelationError::TooDeep { limit: MAX_DEPTH })
        );

        let deep_calls = format!("{}x{}", "abs(".repeat(10_000), ")".repeat(10_000));
        assert_eq!(
            parse(&deep_calls),
            Err(RelationError::TooDeep { limit: MAX_DEPTH })
        );
    }

    /// Reasonable nesting stays well inside the limit, and *flat*
    /// chains are unbounded (they parse iteratively).
    #[test]
    fn sane_nesting_and_flat_chains_still_parse() {
        let nested = format!(
            "{}x{}",
            "(".repeat(MAX_DEPTH / 2),
            ")".repeat(MAX_DEPTH / 2)
        );
        assert!(parse(&nested).is_ok());

        let mut flat = String::from("a = 1");
        for _ in 0..10_000 {
            flat.push_str(" AND a = 1");
        }
        let e = parse(&flat).unwrap();
        assert_eq!(e.conjuncts().len(), 10_001);
    }

    /// Regression: the lexer used to cast single bytes to `char`, so a
    /// multi-byte character ended an identifier mid-character and the
    /// slice panicked. Unicode letters are identifier characters; any
    /// other non-ASCII character is a typed error at its byte offset.
    #[test]
    fn non_ascii_input_never_panics() {
        assert_eq!(parse("é = 1").unwrap(), col("é").eq(lit(1)));
        assert_eq!(parse("naïve = 1").unwrap(), col("naïve").eq(lit(1)));
        roundtrip("naïve = 1 AND é <> 'ü'");
        for (text, position) in [("c¢= 1", 1), ("Dis£ase <> 'HIV'", 3)] {
            match parse(text) {
                Err(RelationError::Parse { position: p, .. }) => {
                    assert_eq!(p, position, "{text:?}");
                }
                other => panic!("{text:?}: expected a parse error, got {other:?}"),
            }
        }
    }
}
