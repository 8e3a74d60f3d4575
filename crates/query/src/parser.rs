//! Hand-rolled tokenizer and recursive-descent parser for the AQE SQL
//! subset.
//!
//! Keywords are case-insensitive; table and column identifiers keep their
//! case. Errors carry the byte offset of the offending token and a typed
//! [`ParseErrorKind`].
//!
//! Grammar (AQE v2):
//!
//! ```text
//! query   := arm (UNION arm)* [order] [limit] [;]
//! arm     := select | ( select )
//! select  := SELECT selector FROM table [join] [where] [group]
//!            [order] [limit] [INCLUDE STALE]
//! join    := JOIN table ON Timestamp [WITHIN duration]
//! where   := WHERE cond (AND cond)*
//! cond    := Timestamp BETWEEN n AND n
//!          | Timestamp (>=|<=) n
//!          | metric (>|>=|<|<=|=) number
//! group   := GROUP BY BUCKET ( Timestamp , duration )
//! duration:= n [ms|s|m|h]        -- bare n means milliseconds
//! ```
//!
//! Scoping rule for a multi-arm UNION: `ORDER BY`/`LIMIT` trailing an
//! **unparenthesized** final arm apply **after the merge** (to the
//! concatenated rows); wrap an arm in parentheses to scope them to that
//! arm alone. `INCLUDE STALE` is always arm-scoped.

use crate::ast::{Aggregate, CmpOp, Join, OrderBy, Query, Select, ValuePred};

/// Why a parse failed, beyond the human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// Generic syntax error.
    Syntax,
    /// The effective time window is reversed/degenerate: the lower bound
    /// exceeds the upper bound, so the scan would silently match nothing.
    /// Covers both `BETWEEN hi AND lo` and a `>= lo` / `<= hi` pair that
    /// intersects to an empty window.
    ReversedTimeBounds {
        /// The (larger) lower bound.
        lo: u64,
        /// The (smaller) upper bound.
        hi: u64,
    },
}

/// A parse failure with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Typed failure class (see [`ParseErrorKind`]).
    pub kind: ParseErrorKind,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A token borrows its identifier from the SQL, so lexing allocates
/// nothing per token.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Ident(&'a str),
    Number(u64),
    Float(f64),
    LParen,
    RParen,
    Comma,
    Star,
    Semicolon,
    Minus,
    /// Comparison operators for WHERE clauses.
    Gt,
    Ge,
    Lt,
    Le,
    EqOp,
}

/// Split `src` into tokens, each with the byte offset it starts at.
fn tokens(src: &str) -> Result<Vec<(Token<'_>, usize)>, ParseError> {
    // A token per two bytes of SQL: a word and its separator. Denser runs
    // (`(*)`, `>=-1`) are short, and at worst grow the `Vec`.
    let mut out = Vec::with_capacity(src.len() / 2 + 1);
    let bytes = src.as_bytes();
    let run_end = |from: usize, more: fn(&u8) -> bool| {
        from + bytes[from..].iter().take_while(|b| more(b)).count()
    };
    let syntax =
        |message: String, offset| ParseError { message, offset, kind: ParseErrorKind::Syntax };
    let mut pos = 0;
    while pos < bytes.len() {
        let wide = bytes.get(pos + 1) == Some(&b'=');
        let (tok, end) = match bytes[pos] as char {
            ' ' | '\t' | '\n' | '\r' => {
                pos += 1;
                continue;
            }
            '(' => (Token::LParen, pos + 1),
            ')' => (Token::RParen, pos + 1),
            ',' => (Token::Comma, pos + 1),
            '*' => (Token::Star, pos + 1),
            ';' => (Token::Semicolon, pos + 1),
            '-' => (Token::Minus, pos + 1),
            '=' => (Token::EqOp, pos + 1),
            '>' if wide => (Token::Ge, pos + 2),
            '>' => (Token::Gt, pos + 1),
            '<' if wide => (Token::Le, pos + 2),
            '<' => (Token::Lt, pos + 1),
            '0'..='9' => {
                let end = run_end(pos, u8::is_ascii_digit);
                // A dot followed by a digit continues a float literal (a
                // bare trailing dot stays with the next token).
                if bytes.get(end) == Some(&b'.')
                    && bytes.get(end + 1).is_some_and(u8::is_ascii_digit)
                {
                    let end = run_end(end + 1, u8::is_ascii_digit);
                    let f = src[pos..end]
                        .parse()
                        .map_err(|_| syntax("bad numeric literal".into(), pos))?;
                    (Token::Float(f), end)
                } else {
                    let n = src[pos..end]
                        .parse()
                        .map_err(|_| syntax("number too large".into(), pos))?;
                    (Token::Number(n), end)
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let end =
                    run_end(pos, |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'.'));
                (Token::Ident(&src[pos..end]), end)
            }
            other => return Err(syntax(format!("unexpected character {other:?}"), pos)),
        };
        out.push((tok, pos));
        pos = end;
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<(Token<'a>, usize)>,
    pos: usize,
    end_offset: usize,
}

/// A parsed WHERE clause: the intersected time window (if any Timestamp
/// bound appeared) plus the value predicates.
type WhereClause = (Option<(u64, u64)>, Vec<ValuePred>);

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).map(|&(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map(|&(_, o)| o).unwrap_or(self.end_offset)
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), offset: self.offset(), kind: ParseErrorKind::Syntax }
    }

    /// Consume the next token if `f` accepts it; a rejected token stays.
    fn eat<T>(&mut self, f: impl FnOnce(Token<'a>) -> Option<T>) -> Option<T> {
        let got = self.peek().and_then(f);
        self.pos += usize::from(got.is_some());
        got
    }

    fn eat_token(&mut self, t: Token<'a>) -> bool {
        self.eat(|got| (got == t).then_some(())).is_some()
    }

    /// Consume keyword `kw`, in any case, if it is next.
    fn eat_kw(&mut self, kw: &str) -> bool {
        self.eat(|t| matches!(t, Token::Ident(s) if s.eq_ignore_ascii_case(kw)).then_some(()))
            .is_some()
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        self.eat_kw(kw).then_some(()).ok_or_else(|| self.err(format!("expected keyword {kw}")))
    }

    fn expect_token(&mut self, t: Token<'a>, what: &str) -> Result<(), ParseError> {
        self.eat_token(t).then_some(()).ok_or_else(|| self.err(format!("expected {what}")))
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        let ident = |t| if let Token::Ident(s) = t { Some(s) } else { None };
        self.eat(ident).ok_or_else(|| self.err("expected identifier"))
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        let number = |t| if let Token::Number(n) = t { Some(n) } else { None };
        self.eat(number).ok_or_else(|| self.err("expected number"))
    }

    /// `[−] (integer | float)` — the literal of a value predicate.
    fn numeric_literal(&mut self) -> Result<f64, ParseError> {
        let negative = self.eat_token(Token::Minus);
        let magnitude = self
            .eat(|t| match t {
                Token::Number(n) => Some(n as f64),
                Token::Float(f) => Some(f),
                _ => None,
            })
            .ok_or_else(|| self.err("expected numeric literal"))?;
        Ok(if negative { -magnitude } else { magnitude })
    }

    /// `n [ms|s|m|h]` → milliseconds. A bare number is milliseconds.
    fn duration_ms(&mut self) -> Result<u64, ParseError> {
        const UNITS: [(&str, u64); 4] = [("ms", 1), ("s", 1_000), ("m", 60_000), ("h", 3_600_000)];
        let n = self.number()?;
        let multiplier = match self.peek() {
            Some(Token::Ident(unit)) => {
                let Some((_, m)) = UNITS.into_iter().find(|(u, _)| unit.eq_ignore_ascii_case(u))
                else {
                    return Err(self.err("expected duration unit (ms, s, m or h)"));
                };
                self.next();
                m
            }
            _ => 1,
        };
        n.checked_mul(multiplier).ok_or_else(|| self.err("duration too large"))
    }

    /// selector := MAX ( Timestamp ) , metric
    ///           | MAX|MIN|AVG|SUM ( metric )
    ///           | COUNT ( * )
    ///           | metric
    fn selector(&mut self) -> Result<Aggregate, ParseError> {
        const SELECTORS: [(&str, Aggregate); 6] = [
            ("MAX", Aggregate::Max),
            ("MIN", Aggregate::Min),
            ("AVG", Aggregate::Avg),
            ("SUM", Aggregate::Sum),
            ("COUNT", Aggregate::Count),
            ("METRIC", Aggregate::All),
        ];
        let name = self.ident()?;
        let Some((_, agg)) = SELECTORS.into_iter().find(|(kw, _)| name.eq_ignore_ascii_case(kw))
        else {
            return Err(ParseError {
                message: format!("unknown selector {name:?}"),
                offset: self.tokens[self.pos - 1].1,
                kind: ParseErrorKind::Syntax,
            });
        };
        if agg == Aggregate::All {
            return Ok(agg);
        }
        self.expect_token(Token::LParen, "(")?;
        if agg == Aggregate::Count {
            self.expect_token(Token::Star, "*")?;
        } else {
            let col = self.ident()?;
            if agg == Aggregate::Max && col.eq_ignore_ascii_case("timestamp") {
                // MAX(Timestamp), metric
                self.expect_token(Token::RParen, ")")?;
                self.expect_token(Token::Comma, ", metric")?;
                let metric = self.ident()?;
                if !metric.eq_ignore_ascii_case("metric") {
                    return Err(self.err("expected `metric` after MAX(Timestamp),"));
                }
                return Ok(Aggregate::Latest);
            }
            if !col.eq_ignore_ascii_case("metric") {
                return Err(self.err("aggregates apply to `metric` or `Timestamp`"));
            }
        }
        self.expect_token(Token::RParen, ")")?;
        Ok(agg)
    }

    /// join := JOIN table ON Timestamp [WITHIN duration]
    fn join_clause(&mut self) -> Result<Option<Join>, ParseError> {
        if !self.eat_kw("join") {
            return Ok(None);
        }
        let table = self.ident()?.to_string();
        self.expect_kw("on")?;
        let col = self.ident()?;
        if !col.eq_ignore_ascii_case("timestamp") {
            return Err(self.err("JOIN matches ON Timestamp"));
        }
        let tolerance_ms = if self.eat_kw("within") { self.duration_ms()? } else { 0 };
        Ok(Some(Join { table, tolerance_ms }))
    }

    /// One WHERE condition; timestamp bounds accumulate into
    /// `(lo, hi, any_ts)`, value predicates append to `preds`.
    fn condition(
        &mut self,
        lo: &mut u64,
        hi: &mut u64,
        any_ts: &mut bool,
        preds: &mut Vec<ValuePred>,
    ) -> Result<(), ParseError> {
        let col_offset = self.offset();
        let col = self.ident()?;
        if col.eq_ignore_ascii_case("timestamp") {
            if self.eat_kw("between") {
                let bounds_offset = self.offset();
                let b_lo = self.number()?;
                self.expect_kw("and")?;
                let b_hi = self.number()?;
                if b_lo > b_hi {
                    return Err(ParseError {
                        message: format!(
                            "BETWEEN bounds out of order: lower bound {b_lo} exceeds upper \
                             bound {b_hi}"
                        ),
                        offset: bounds_offset,
                        kind: ParseErrorKind::ReversedTimeBounds { lo: b_lo, hi: b_hi },
                    });
                }
                *lo = (*lo).max(b_lo);
                *hi = (*hi).min(b_hi);
                *any_ts = true;
                return Ok(());
            }
            match self.next() {
                Some(Token::Ge) => {
                    *lo = (*lo).max(self.number()?);
                    *any_ts = true;
                    Ok(())
                }
                Some(Token::Le) => {
                    *hi = (*hi).min(self.number()?);
                    *any_ts = true;
                    Ok(())
                }
                Some(Token::Gt) | Some(Token::Lt) | Some(Token::EqOp) => {
                    self.pos = self.pos.saturating_sub(1);
                    Err(self.err("unsupported Timestamp operator (only >= and <=, or BETWEEN)"))
                }
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    Err(self.err("expected BETWEEN, >= or <="))
                }
            }
        } else if col.eq_ignore_ascii_case("metric") {
            let op = match self.next() {
                Some(Token::Gt) => CmpOp::Gt,
                Some(Token::Ge) => CmpOp::Ge,
                Some(Token::Lt) => CmpOp::Lt,
                Some(Token::Le) => CmpOp::Le,
                Some(Token::EqOp) => CmpOp::Eq,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected comparison operator after metric"));
                }
            };
            let literal = self.numeric_literal()?;
            preds.push(ValuePred { op, literal });
            Ok(())
        } else {
            Err(ParseError {
                message: "WHERE supports only Timestamp and metric filters".into(),
                offset: col_offset,
                kind: ParseErrorKind::Syntax,
            })
        }
    }

    /// where := WHERE cond (AND cond)*
    ///
    /// Multiple Timestamp bounds intersect; an empty intersection is a
    /// [`ParseErrorKind::ReversedTimeBounds`] error naming both bounds
    /// (the scan would otherwise silently match nothing).
    fn where_clause(&mut self) -> Result<WhereClause, ParseError> {
        if !self.eat_kw("where") {
            return Ok((None, Vec::new()));
        }
        let clause_offset = self.offset();
        let (mut lo, mut hi, mut any_ts) = (0u64, u64::MAX, false);
        let mut preds = Vec::new();
        loop {
            self.condition(&mut lo, &mut hi, &mut any_ts, &mut preds)?;
            if !self.eat_kw("and") {
                break;
            }
        }
        if any_ts && lo > hi {
            return Err(ParseError {
                message: format!(
                    "time bounds out of order: lower bound {lo} exceeds upper bound {hi}, \
                     the window matches nothing"
                ),
                offset: clause_offset,
                kind: ParseErrorKind::ReversedTimeBounds { lo, hi },
            });
        }
        Ok((any_ts.then_some((lo, hi)), preds))
    }

    /// group := GROUP BY BUCKET ( Timestamp , duration )
    fn group_clause(&mut self) -> Result<Option<u64>, ParseError> {
        if !self.eat_kw("group") {
            return Ok(None);
        }
        self.expect_kw("by")?;
        self.expect_kw("bucket")?;
        self.expect_token(Token::LParen, "(")?;
        let col = self.ident()?;
        if !col.eq_ignore_ascii_case("timestamp") {
            return Err(self.err("BUCKET groups by Timestamp"));
        }
        self.expect_token(Token::Comma, ",")?;
        let width_offset = self.offset();
        let width = self.duration_ms()?;
        self.expect_token(Token::RParen, ")")?;
        if width == 0 {
            return Err(ParseError {
                message: "bucket width must be positive".into(),
                offset: width_offset,
                kind: ParseErrorKind::Syntax,
            });
        }
        Ok(Some(width))
    }

    /// order := ORDER BY (Timestamp|metric) [ASC|DESC]
    fn order_clause(&mut self) -> Result<Option<OrderBy>, ParseError> {
        if !self.eat_kw("order") {
            return Ok(None);
        }
        self.expect_kw("by")?;
        let col = self.ident()?;
        // ASC is the default, and may be spelt out.
        let descending = self.eat_kw("desc");
        if !descending {
            self.eat_kw("asc");
        }
        let order = match descending {
            false if col.eq_ignore_ascii_case("timestamp") => OrderBy::TimestampAsc,
            true if col.eq_ignore_ascii_case("timestamp") => OrderBy::TimestampDesc,
            false if col.eq_ignore_ascii_case("metric") => OrderBy::MetricAsc,
            true if col.eq_ignore_ascii_case("metric") => OrderBy::MetricDesc,
            _ => return Err(self.err("ORDER BY supports Timestamp or metric")),
        };
        Ok(Some(order))
    }

    /// limit := LIMIT n
    fn limit_clause(&mut self) -> Result<Option<usize>, ParseError> {
        if !self.eat_kw("limit") {
            return Ok(None);
        }
        let n = self.number()?;
        Ok(Some(usize::try_from(n).map_err(|_| self.err("LIMIT too large"))?))
    }

    /// include := INCLUDE STALE
    fn include_stale_clause(&mut self) -> Result<bool, ParseError> {
        if !self.eat_kw("include") {
            return Ok(false);
        }
        self.expect_kw("stale")?;
        Ok(true)
    }

    fn select(&mut self) -> Result<Select, ParseError> {
        self.expect_kw("select")?;
        let aggregate = self.selector()?;
        self.expect_kw("from")?;
        let table = self.ident()?.to_string();
        let join = self.join_clause()?;
        let (time_range, value_preds) = self.where_clause()?;
        let bucket_ms = self.group_clause()?;
        let order = self.order_clause()?;
        let limit = self.limit_clause()?;
        let include_stale = self.include_stale_clause()?;
        if aggregate == Aggregate::Latest
            && (!value_preds.is_empty() || bucket_ms.is_some() || join.is_some())
        {
            return Err(self.err(
                "MAX(Timestamp), metric supports only Timestamp filters \
                 (no value predicates, GROUP BY or JOIN)",
            ));
        }
        if aggregate == Aggregate::All && bucket_ms.is_some() {
            return Err(self.err("GROUP BY requires an aggregate (MAX/MIN/AVG/SUM/COUNT)"));
        }
        Ok(Select {
            aggregate,
            table,
            time_range,
            value_preds,
            bucket_ms,
            join,
            order,
            limit,
            include_stale,
        })
    }

    /// arm := select | ( select )
    fn arm(&mut self) -> Result<(Select, bool), ParseError> {
        if self.eat_token(Token::LParen) {
            let s = self.select()?;
            self.expect_token(Token::RParen, ")")?;
            Ok((s, true))
        } else {
            Ok((self.select()?, false))
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        let (first, mut last_parenthesized) = self.arm()?;
        let mut selects = vec![first];
        while self.eat_kw("union") {
            let (s, parenthesized) = self.arm()?;
            selects.push(s);
            last_parenthesized = parenthesized;
        }
        // Post-merge clauses: written explicitly after a parenthesized
        // final arm, or — the satellite-3 scoping rule — hoisted from an
        // unparenthesized final arm of a multi-arm union, where a
        // trailing ORDER BY/LIMIT reads as applying to the whole union,
        // not just the last arm.
        let mut order = self.order_clause()?;
        let mut limit = self.limit_clause()?;
        if selects.len() > 1 && !last_parenthesized && order.is_none() && limit.is_none() {
            let last = selects.last_mut().expect("at least one arm");
            order = last.order.take();
            limit = last.limit.take();
        }
        self.eat_token(Token::Semicolon);
        if self.peek().is_some() {
            return Err(self.err("trailing input after query"));
        }
        Ok(Query { selects, order, limit })
    }
}

/// Parse a query string.
pub fn parse(src: &str) -> Result<Query, ParseError> {
    let tokens = tokens(src)?;
    let mut p = Parser { tokens, pos: 0, end_offset: src.len() };
    p.query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_algorithm_441_resource_query() {
        let q = parse(
            "SELECT MAX(Timestamp), metric FROM pfs_capacity \
             UNION SELECT MAX(Timestamp), metric FROM node_1_memory_capacity \
             UNION SELECT MAX(Timestamp), metric FROM node_2_availability;",
        )
        .unwrap();
        assert_eq!(q.complexity(), 3);
        assert!(q.selects.iter().all(|s| s.aggregate == Aggregate::Latest));
        assert_eq!(q.selects[0].table, "pfs_capacity");
        assert_eq!(q.selects[2].table, "node_2_availability");
    }

    #[test]
    fn parses_aggregates() {
        assert_eq!(
            parse("SELECT MAX(metric) FROM t").unwrap().selects[0].aggregate,
            Aggregate::Max
        );
        assert_eq!(
            parse("SELECT MIN(metric) FROM t").unwrap().selects[0].aggregate,
            Aggregate::Min
        );
        assert_eq!(
            parse("SELECT AVG(metric) FROM t").unwrap().selects[0].aggregate,
            Aggregate::Avg
        );
        assert_eq!(
            parse("SELECT SUM(metric) FROM t").unwrap().selects[0].aggregate,
            Aggregate::Sum
        );
        assert_eq!(parse("SELECT COUNT(*) FROM t").unwrap().selects[0].aggregate, Aggregate::Count);
        assert_eq!(parse("SELECT metric FROM t").unwrap().selects[0].aggregate, Aggregate::All);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let q = parse("select max(timestamp), METRIC from T1 union select Metric from t2").unwrap();
        assert_eq!(q.complexity(), 2);
        assert_eq!(q.selects[0].table, "T1", "table case is preserved");
    }

    #[test]
    fn mixed_case_spellings_parse_as_upper_case() {
        for (mixed, upper) in [
            ("sElEcT metric FROM t", "SELECT metric FROM t"),
            ("SELECT count(*) FROM t", "SELECT COUNT(*) FROM t"),
            ("SELECT Max(TIMESTAMP), Metric FROM t", "SELECT MAX(Timestamp), metric FROM t"),
            (
                "SELECT AVG(metric) FROM t group by bucket(timestamp, 2S)",
                "SELECT AVG(metric) FROM t GROUP BY BUCKET(Timestamp, 2s)",
            ),
            (
                "SELECT COUNT(*) FROM a JOIN b ON Timestamp WITHIN 5Ms",
                "SELECT COUNT(*) FROM a JOIN b ON Timestamp WITHIN 5ms",
            ),
            (
                "SELECT metric FROM t order by METRIC desc",
                "SELECT metric FROM t ORDER BY metric DESC",
            ),
            ("SELECT metric FROM t include Stale", "SELECT metric FROM t INCLUDE STALE"),
        ] {
            assert_eq!(parse(mixed).unwrap(), parse(upper).unwrap(), "{mixed}");
        }
    }

    /// Where and how each malformed query fails is part of the parser's
    /// contract: a change to the lexer or the parser must not move it.
    #[test]
    fn malformed_queries_keep_their_offsets_and_kinds() {
        use ParseErrorKind::{ReversedTimeBounds, Syntax};
        for (sql, offset, kind) in [
            ("SELECT MAX(Timestamp), metric FROM", 34, Syntax),
            ("SELECT BOGUS(metric) FROM t", 7, Syntax),
            ("select bogus from t", 7, Syntax),
            ("SELECT AVG(metric) FROM t GROUP BY BUCKET(Timestamp, 5d)", 54, Syntax),
            ("SELECT AVG(metric) FROM t group by bucket(timestamp, 5Days)", 54, Syntax),
            ("SELECT AVG(metric) FROM t GROUP BY BUCKET(Timestamp, 0)", 53, Syntax),
            ("SELECT AVG(metric) FROM t GROUP BY BUCKET(Timestamp, 99999999999999h)", 68, Syntax),
            ("SELECT AVG(metric) FROM t GROUP BY BUCKET(value, 1s)", 47, Syntax),
            ("SELECT metric FROM t ORDER BY value DESC", 40, Syntax),
            ("SELECT metric FROM t order by Value limit 3", 36, Syntax),
            ("SELECT AVG(Timestamp) FROM t", 20, Syntax),
            ("SELECT max(timestamp), value FROM t", 29, Syntax),
            ("SELECT Max(Timestamp) FROM t", 22, Syntax),
            ("SELECT COUNT(metric) FROM t", 13, Syntax),
            (
                "SELECT metric FROM t WHERE Timestamp BETWEEN 9 AND 5",
                45,
                ReversedTimeBounds { lo: 9, hi: 5 },
            ),
            (
                "SELECT metric FROM t WHERE Timestamp >= 200 AND Timestamp <= 100",
                27,
                ReversedTimeBounds { lo: 200, hi: 100 },
            ),
            ("SELECT metric FROM t WHERE value >= 1", 27, Syntax),
            ("SELECT metric FROM t WHERE Timestamp > 1", 37, Syntax),
            ("SELECT metric FROM t WHERE metric ~ 1", 34, Syntax),
            ("SELECT metric FROM t WHERE metric >= x", 37, Syntax),
            ("SELECT metric FROM t; extra", 22, Syntax),
            ("SELECT metric FROM t INCLUDE", 28, Syntax),
            ("SELECT metric FROM t include fresh", 29, Syntax),
            ("SELECT metric FROM a JOIN b ON value", 36, Syntax),
            ("SELECT COUNT(*) FROM a join b on timestamp within 5parsecs", 51, Syntax),
            ("SELECT metric FROM t LIMIT 99999999999999999999999", 27, Syntax),
            ("SELECT MAX(Timestamp), metric FROM t WHERE metric > 1", 53, Syntax),
            ("SELECT metric FROM t GROUP BY BUCKET(Timestamp, 10s)", 52, Syntax),
            ("(SELECT metric FROM t", 21, Syntax),
            ("SELECT metric FROM t UNION", 26, Syntax),
            ("SELECT metric FROM t UNION SELECT COUNT(*) FROM", 47, Syntax),
            ("Select Metric From", 18, Syntax),
            ("FROM t", 0, Syntax),
            ("", 0, Syntax),
            ("SELECT", 6, Syntax),
        ] {
            let err = parse(sql).unwrap_err();
            assert_eq!((err.offset, &err.kind), (offset, &kind), "{sql}: {err}");
        }
    }

    #[test]
    fn where_between() {
        let q = parse("SELECT metric FROM t WHERE Timestamp BETWEEN 100 AND 200").unwrap();
        assert_eq!(q.selects[0].time_range, Some((100, 200)));
    }

    #[test]
    fn where_comparison_forms() {
        let q = parse("SELECT metric FROM t WHERE Timestamp >= 50").unwrap();
        assert_eq!(q.selects[0].time_range, Some((50, u64::MAX)));
        let q = parse("SELECT metric FROM t WHERE Timestamp <= 80").unwrap();
        assert_eq!(q.selects[0].time_range, Some((0, 80)));
        let q = parse("SELECT metric FROM t WHERE Timestamp >= 5 AND Timestamp <= 9").unwrap();
        assert_eq!(q.selects[0].time_range, Some((5, 9)));
    }

    #[test]
    fn value_predicates_parse() {
        let q = parse("SELECT metric FROM t WHERE metric > 1.5").unwrap();
        assert_eq!(q.selects[0].value_preds, vec![ValuePred { op: CmpOp::Gt, literal: 1.5 }]);
        assert_eq!(q.selects[0].time_range, None);

        // Mixed with timestamp bounds, in any order, ANDed together.
        let q = parse(
            "SELECT AVG(metric) FROM t \
             WHERE metric >= 2 AND Timestamp BETWEEN 1 AND 9 AND metric < 10",
        )
        .unwrap();
        assert_eq!(q.selects[0].time_range, Some((1, 9)));
        assert_eq!(
            q.selects[0].value_preds,
            vec![
                ValuePred { op: CmpOp::Ge, literal: 2.0 },
                ValuePred { op: CmpOp::Lt, literal: 10.0 },
            ]
        );

        // Negative literals and equality.
        let q = parse("SELECT COUNT(*) FROM t WHERE metric = -2.5").unwrap();
        assert_eq!(q.selects[0].value_preds, vec![ValuePred { op: CmpOp::Eq, literal: -2.5 }]);
    }

    #[test]
    fn group_by_bucket_parses_duration_units() {
        let q = parse("SELECT AVG(metric) FROM t GROUP BY BUCKET(Timestamp, 10s)").unwrap();
        assert_eq!(q.selects[0].bucket_ms, Some(10_000));
        let q = parse("SELECT COUNT(*) FROM t GROUP BY BUCKET(Timestamp, 500ms)").unwrap();
        assert_eq!(q.selects[0].bucket_ms, Some(500));
        let q = parse("SELECT MAX(metric) FROM t GROUP BY BUCKET(Timestamp, 2m)").unwrap();
        assert_eq!(q.selects[0].bucket_ms, Some(120_000));
        // A bare number is milliseconds.
        let q = parse("SELECT SUM(metric) FROM t GROUP BY BUCKET(Timestamp, 250)").unwrap();
        assert_eq!(q.selects[0].bucket_ms, Some(250));
        // Zero width matches nothing sensible: rejected.
        let err = parse("SELECT AVG(metric) FROM t GROUP BY BUCKET(Timestamp, 0)").unwrap_err();
        assert!(err.message.contains("positive"), "{err}");
        // Unknown unit.
        let err = parse("SELECT AVG(metric) FROM t GROUP BY BUCKET(Timestamp, 5d)").unwrap_err();
        assert!(err.message.contains("duration unit"), "{err}");
    }

    #[test]
    fn join_on_timestamp_parses() {
        let q = parse("SELECT AVG(metric) FROM a JOIN b ON Timestamp WITHIN 5ms").unwrap();
        assert_eq!(q.selects[0].join, Some(Join { table: "b".into(), tolerance_ms: 5 }));
        // Default tolerance is exact-millisecond.
        let q = parse("SELECT metric FROM a JOIN b ON Timestamp").unwrap();
        assert_eq!(q.selects[0].join, Some(Join { table: "b".into(), tolerance_ms: 0 }));
        // Seconds unit.
        let q = parse("SELECT COUNT(*) FROM a JOIN b ON Timestamp WITHIN 2s").unwrap();
        assert_eq!(q.selects[0].join.as_ref().unwrap().tolerance_ms, 2_000);
        // ON a non-Timestamp column is rejected.
        let err = parse("SELECT metric FROM a JOIN b ON value").unwrap_err();
        assert!(err.message.contains("Timestamp"), "{err}");
    }

    #[test]
    fn latest_rejects_v2_clauses() {
        for sql in [
            "SELECT MAX(Timestamp), metric FROM t WHERE metric > 1",
            "SELECT MAX(Timestamp), metric FROM t GROUP BY BUCKET(Timestamp, 10s)",
            "SELECT MAX(Timestamp), metric FROM a JOIN b ON Timestamp",
        ] {
            let err = parse(sql).unwrap_err();
            assert!(err.message.contains("MAX(Timestamp)"), "{sql}: {err}");
        }
        // Plain timestamp filters still work on Latest.
        assert!(parse("SELECT MAX(Timestamp), metric FROM t WHERE Timestamp <= 9").is_ok());
    }

    #[test]
    fn all_rejects_group_by() {
        let err = parse("SELECT metric FROM t GROUP BY BUCKET(Timestamp, 10s)").unwrap_err();
        assert!(err.message.contains("aggregate"), "{err}");
    }

    #[test]
    fn table_names_with_slashes() {
        let q = parse("SELECT MAX(Timestamp), metric FROM node3/nvme0/remaining_capacity").unwrap();
        assert_eq!(q.selects[0].table, "node3/nvme0/remaining_capacity");
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("SELECT MAX(Timestamp), metric FROM").unwrap_err();
        assert!(err.message.contains("identifier"), "{err}");
        assert_eq!(err.offset, 34); // end of input

        let err = parse("SELECT BOGUS(metric) FROM t").unwrap_err();
        assert!(err.message.contains("unknown selector"), "{err}");
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn include_stale_clause_parses() {
        let q = parse("SELECT AVG(metric) FROM t INCLUDE STALE").unwrap();
        assert!(q.selects[0].include_stale);
        let q = parse("SELECT AVG(metric) FROM t").unwrap();
        assert!(!q.selects[0].include_stale);
        // Clause order is fixed: after LIMIT, per-arm in a union.
        let q = parse(
            "SELECT COUNT(*) FROM a WHERE Timestamp >= 5 LIMIT 2 INCLUDE STALE \
             UNION SELECT COUNT(*) FROM b",
        )
        .unwrap();
        assert!(q.selects[0].include_stale);
        assert!(!q.selects[1].include_stale);
        // INCLUDE without STALE is an error.
        assert!(parse("SELECT metric FROM t INCLUDE").is_err());
    }

    #[test]
    fn rejects_out_of_order_between() {
        let err = parse("SELECT metric FROM t WHERE Timestamp BETWEEN 9 AND 5").unwrap_err();
        assert!(err.message.contains("out of order"));
        // The typed kind names both bounds.
        assert_eq!(err.kind, ParseErrorKind::ReversedTimeBounds { lo: 9, hi: 5 });
        assert!(err.message.contains('9') && err.message.contains('5'), "{err}");
    }

    #[test]
    fn rejects_reversed_comparison_bounds() {
        // `>= 200 AND <= 100` intersects to an empty window — previously a
        // silent empty scan, now a typed error naming both bounds.
        let err =
            parse("SELECT metric FROM t WHERE Timestamp >= 200 AND Timestamp <= 100").unwrap_err();
        assert!(err.message.contains("out of order"), "{err}");
        assert_eq!(err.kind, ParseErrorKind::ReversedTimeBounds { lo: 200, hi: 100 });
        assert!(err.message.contains("200") && err.message.contains("100"), "{err}");

        // Same through a BETWEEN intersected with a tighter >=.
        let err =
            parse("SELECT COUNT(*) FROM t WHERE Timestamp BETWEEN 10 AND 20 AND Timestamp >= 50")
                .unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::ReversedTimeBounds { lo: 50, hi: 20 });

        // A degenerate-but-valid single-point window is fine.
        let q = parse("SELECT COUNT(*) FROM t WHERE Timestamp >= 7 AND Timestamp <= 7").unwrap();
        assert_eq!(q.selects[0].time_range, Some((7, 7)));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse("SELECT metric FROM t; extra").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn rejects_non_timestamp_where() {
        let err = parse("SELECT metric FROM t WHERE value >= 1").unwrap_err();
        assert!(err.message.contains("Timestamp"));
    }

    #[test]
    fn rejects_single_angle_operators() {
        let err = parse("SELECT metric FROM t WHERE Timestamp > 1").unwrap_err();
        assert!(err.message.contains("only >= and <="));
    }

    #[test]
    fn union_trailing_clauses_scope_to_the_merge() {
        // Unparenthesized final arm: trailing ORDER BY/LIMIT hoist to the
        // query level (post-merge).
        let q =
            parse("SELECT metric FROM a UNION SELECT metric FROM b ORDER BY metric DESC LIMIT 3")
                .unwrap();
        assert_eq!(q.order, Some(OrderBy::MetricDesc));
        assert_eq!(q.limit, Some(3));
        assert_eq!(q.selects[1].order, None, "hoisted off the final arm");
        assert_eq!(q.selects[1].limit, None);

        // Parenthesized arms pin clauses per-arm…
        let q = parse(
            "(SELECT metric FROM a ORDER BY metric ASC LIMIT 2) \
             UNION (SELECT metric FROM b LIMIT 1)",
        )
        .unwrap();
        assert_eq!(q.selects[0].order, Some(OrderBy::MetricAsc));
        assert_eq!(q.selects[0].limit, Some(2));
        assert_eq!(q.selects[1].limit, Some(1));
        assert_eq!(q.order, None);
        assert_eq!(q.limit, None);

        // …and a trailing clause after a parenthesized final arm is
        // unambiguously post-merge.
        let q = parse(
            "(SELECT metric FROM a LIMIT 2) UNION (SELECT metric FROM b) \
             ORDER BY Timestamp DESC LIMIT 4",
        )
        .unwrap();
        assert_eq!(q.selects[0].limit, Some(2));
        assert_eq!(q.order, Some(OrderBy::TimestampDesc));
        assert_eq!(q.limit, Some(4));

        // Single SELECT keeps the historical per-arm binding.
        let q = parse("SELECT metric FROM t ORDER BY metric DESC LIMIT 3").unwrap();
        assert_eq!(q.selects[0].order, Some(OrderBy::MetricDesc));
        assert_eq!(q.selects[0].limit, Some(3));
        assert_eq!(q.order, None);
        assert_eq!(q.limit, None);

        // Non-final arms keep their clauses per-arm.
        let q = parse("SELECT metric FROM a LIMIT 2 UNION SELECT metric FROM b").unwrap();
        assert_eq!(q.selects[0].limit, Some(2));
        assert_eq!(q.limit, None);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parser must never panic on arbitrary input.
        #[test]
        fn never_panics(input in ".{0,200}") {
            let _ = parse(&input);
        }

        /// Arbitrary input around the v2 grammar fragments must never
        /// panic either, and every error must carry an in-range position.
        #[test]
        fn v2_fragments_never_panic(
            prefix in "(SELECT|select|)( (metric|AVG\\(metric\\)|COUNT\\(\\*\\))| BOGUS)?",
            middle in "( FROM [a-z_/]{1,12})?",
            tail in "( (JOIN [a-z]{1,4} ON Timestamp( WITHIN [0-9]{1,4}(ms|s|m|h)?)?|WHERE (metric|Timestamp|value) (>|>=|<|<=|=|BETWEEN) -?[0-9]{1,6}(\\.[0-9]{1,3})?|GROUP BY BUCKET\\(Timestamp, [0-9]{1,4}(ms|s)?\\)|ORDER BY metric DESC|LIMIT [0-9]{1,3}|INCLUDE STALE)){0,4}",
        ) {
            let input = format!("{prefix}{middle}{tail}");
            if let Err(e) = parse(&input) {
                prop_assert!(e.offset <= input.len(), "offset {} out of range for {input:?}", e.offset);
            }
        }

        /// Queries built from valid fragments round-trip through the
        /// parser with the expected complexity.
        #[test]
        fn union_count_matches(n in 1usize..20) {
            let arms: Vec<String> = (0..n)
                .map(|i| format!("SELECT MAX(Timestamp), metric FROM table_{i}"))
                .collect();
            let q = parse(&arms.join(" UNION ")).unwrap();
            prop_assert_eq!(q.complexity(), n);
        }

        /// Valid v2 arms always parse, whatever the literal values.
        #[test]
        fn v2_round_trip(
            lit in -1000.0f64..1000.0,
            lo in 0u64..1000,
            span in 0u64..1000,
            width in 1u64..600,
            tol in 0u64..100,
        ) {
            let hi = lo + span;
            let sql = format!(
                "SELECT AVG(metric) FROM a JOIN b ON Timestamp WITHIN {tol}ms \
                 WHERE Timestamp BETWEEN {lo} AND {hi} AND metric > {lit} \
                 GROUP BY BUCKET(Timestamp, {width}s)"
            );
            let q = parse(&sql).unwrap();
            let s = &q.selects[0];
            prop_assert_eq!(s.time_range, Some((lo, hi)));
            prop_assert_eq!(s.bucket_ms, Some(width * 1000));
            prop_assert_eq!(s.join.as_ref().unwrap().tolerance_ms, tol);
            prop_assert_eq!(s.value_preds.len(), 1);
        }
    }
}
