//! Compound Boolean range queries.
//!
//! The parallel-coordinates interface of the paper builds queries such as
//! `px > 1e9 && py < 1e8 && y > 0` from per-axis sliders. This module models
//! those queries ([`ValueRange`], [`Predicate`], [`QueryExpr`]), provides a
//! parser for the textual form used throughout the paper, and evaluates
//! expressions either through bitmap indexes or by sequential scan depending
//! on what the [`ColumnProvider`] can supply.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::{FastBitError, Result};
use crate::index::BitmapIndex;
use crate::selection::Selection;

/// A one-dimensional value range with optional, individually inclusive or
/// exclusive bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueRange {
    /// Lower bound, if any.
    pub min: Option<f64>,
    /// Whether the lower bound itself is included.
    pub min_inclusive: bool,
    /// Upper bound, if any.
    pub max: Option<f64>,
    /// Whether the upper bound itself is included.
    pub max_inclusive: bool,
}

impl ValueRange {
    /// The unbounded range (matches every finite value).
    pub fn all() -> Self {
        Self {
            min: None,
            min_inclusive: false,
            max: None,
            max_inclusive: false,
        }
    }

    /// `value > threshold`.
    pub fn gt(threshold: f64) -> Self {
        Self {
            min: Some(threshold),
            min_inclusive: false,
            max: None,
            max_inclusive: false,
        }
    }

    /// `value >= threshold`.
    pub fn ge(threshold: f64) -> Self {
        Self {
            min: Some(threshold),
            min_inclusive: true,
            max: None,
            max_inclusive: false,
        }
    }

    /// `value < threshold`.
    pub fn lt(threshold: f64) -> Self {
        Self {
            min: None,
            min_inclusive: false,
            max: Some(threshold),
            max_inclusive: false,
        }
    }

    /// `value <= threshold`.
    pub fn le(threshold: f64) -> Self {
        Self {
            min: None,
            min_inclusive: false,
            max: Some(threshold),
            max_inclusive: true,
        }
    }

    /// `lo <= value < hi` — the half-open interval produced by axis sliders.
    pub fn between(lo: f64, hi: f64) -> Self {
        Self {
            min: Some(lo),
            min_inclusive: true,
            max: Some(hi),
            max_inclusive: false,
        }
    }

    /// `lo <= value <= hi`.
    pub fn between_inclusive(lo: f64, hi: f64) -> Self {
        Self {
            min: Some(lo),
            min_inclusive: true,
            max: Some(hi),
            max_inclusive: true,
        }
    }

    /// Whether `value` satisfies the range. NaN never matches.
    #[inline]
    pub fn contains(&self, value: f64) -> bool {
        if value.is_nan() {
            return false;
        }
        if let Some(lo) = self.min {
            if value < lo || (!self.min_inclusive && value == lo) {
                return false;
            }
        }
        if let Some(hi) = self.max {
            if value > hi || (!self.max_inclusive && value == hi) {
                return false;
            }
        }
        true
    }

    /// Whether the closed interval `[lo, hi]` is entirely inside the range.
    pub fn contains_interval(&self, lo: f64, hi: f64) -> bool {
        self.contains(lo) && self.contains(hi)
    }

    /// Whether the closed interval `[lo, hi]` intersects the range at all.
    pub fn overlaps_interval(&self, lo: f64, hi: f64) -> bool {
        if let Some(rmin) = self.min {
            if hi < rmin || (hi == rmin && !self.min_inclusive) {
                return false;
            }
        }
        if let Some(rmax) = self.max {
            if lo > rmax || (lo == rmax && !self.max_inclusive) {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for ValueRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min, self.max) {
            (Some(lo), Some(hi)) => write!(
                f,
                "{}{} , {}{}",
                if self.min_inclusive { "[" } else { "(" },
                lo,
                hi,
                if self.max_inclusive { "]" } else { ")" }
            ),
            (Some(lo), None) => write!(f, "{} {}", if self.min_inclusive { ">=" } else { ">" }, lo),
            (None, Some(hi)) => write!(f, "{} {}", if self.max_inclusive { "<=" } else { "<" }, hi),
            (None, None) => write!(f, "(-inf, +inf)"),
        }
    }
}

/// A range condition on a named column.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Column (variable) name, e.g. `"px"`.
    pub column: String,
    /// Range the column value must fall in.
    pub range: ValueRange,
}

impl Predicate {
    /// Construct a predicate on `column` with `range`.
    pub fn new(column: impl Into<String>, range: ValueRange) -> Self {
        Self {
            column: column.into(),
            range,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.column, self.range)
    }
}

/// A compound Boolean combination of range predicates.
///
/// ```
/// use fastbit::{parse_query, QueryExpr, ValueRange};
///
/// // Build programmatically or parse the paper's textual form — both yield
/// // the same expression tree.
/// let built = QueryExpr::pred("px", ValueRange::gt(1e9))
///     .and(QueryExpr::pred("y", ValueRange::gt(0.0)));
/// let parsed = parse_query("px > 1e9 && y > 0").unwrap();
/// assert_eq!(built, parsed);
///
/// // Display round-trips through the parser, and normalization makes the
/// // cache key order-insensitive.
/// assert_eq!(parse_query(&parsed.to_string()).unwrap(), parsed);
/// let swapped = parse_query("y > 0 && px > 1e9").unwrap();
/// assert_eq!(parsed.cache_key(), swapped.cache_key());
///
/// // The referenced columns drive the pipeline's column-projection contract.
/// let columns: Vec<String> = parsed.columns().into_iter().collect();
/// assert_eq!(columns, vec!["px".to_string(), "y".to_string()]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum QueryExpr {
    /// A single range condition.
    Pred(Predicate),
    /// Conjunction of sub-expressions.
    And(Vec<QueryExpr>),
    /// Disjunction of sub-expressions.
    Or(Vec<QueryExpr>),
    /// Negation of a sub-expression.
    Not(Box<QueryExpr>),
}

impl QueryExpr {
    /// Shortcut for a single predicate.
    pub fn pred(column: impl Into<String>, range: ValueRange) -> Self {
        QueryExpr::Pred(Predicate::new(column, range))
    }

    /// Conjunction of this expression with `other`.
    pub fn and(self, other: QueryExpr) -> Self {
        match self {
            QueryExpr::And(mut v) => {
                v.push(other);
                QueryExpr::And(v)
            }
            e => QueryExpr::And(vec![e, other]),
        }
    }

    /// Disjunction of this expression with `other`.
    pub fn or(self, other: QueryExpr) -> Self {
        match self {
            QueryExpr::Or(mut v) => {
                v.push(other);
                QueryExpr::Or(v)
            }
            e => QueryExpr::Or(vec![e, other]),
        }
    }

    /// Negation of this expression.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        QueryExpr::Not(Box::new(self))
    }

    /// A canonical form of the expression suitable for cache keying:
    /// nested `And(And(..))` / `Or(Or(..))` chains are flattened, double
    /// negation is collapsed, single-child conjunctions/disjunctions are
    /// unwrapped, and sibling sub-expressions are sorted by their textual
    /// form so that `a && b` and `b && a` normalize identically.
    ///
    /// Normalization only applies transformations that preserve the exact
    /// row set the expression selects.
    pub fn normalized(&self) -> QueryExpr {
        fn flatten_into(kind_and: bool, e: QueryExpr, out: &mut Vec<QueryExpr>) {
            match (kind_and, e) {
                (true, QueryExpr::And(v)) | (false, QueryExpr::Or(v)) => out.extend(v),
                (_, other) => out.push(other),
            }
        }
        match self {
            QueryExpr::Pred(p) => QueryExpr::Pred(p.clone()),
            QueryExpr::And(v) | QueryExpr::Or(v) => {
                let is_and = matches!(self, QueryExpr::And(_));
                let mut flat = Vec::with_capacity(v.len());
                for e in v {
                    flatten_into(is_and, e.normalized(), &mut flat);
                }
                if flat.len() == 1 {
                    return flat.pop().expect("one element");
                }
                flat.sort_by_cached_key(|e| e.to_string());
                if is_and {
                    QueryExpr::And(flat)
                } else {
                    QueryExpr::Or(flat)
                }
            }
            QueryExpr::Not(e) => match e.normalized() {
                QueryExpr::Not(inner) => *inner,
                other => QueryExpr::Not(Box::new(other)),
            },
        }
    }

    /// The canonical textual key of this expression: the [`fmt::Display`]
    /// form of [`QueryExpr::normalized`]. Two expressions that normalize to
    /// the same shape share one key, which is what the server's query cache
    /// keys memoized results on (together with the timestep). The key is
    /// parseable: `parse_query(&expr.cache_key())` reconstructs the
    /// normalized expression.
    pub fn cache_key(&self) -> String {
        self.normalized().to_string()
    }

    /// The set of columns referenced anywhere in the expression. This is what
    /// the pipeline's contract mechanism pushes upstream so the reader only
    /// touches the columns it truly needs.
    pub fn columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            QueryExpr::Pred(p) => {
                out.insert(p.column.clone());
            }
            QueryExpr::And(v) | QueryExpr::Or(v) => {
                for e in v {
                    e.collect_columns(out);
                }
            }
            QueryExpr::Not(e) => e.collect_columns(out),
        }
    }

    /// Evaluate the expression row-by-row against raw columns only.
    pub fn matches_row(&self, provider: &impl ColumnProvider, row: usize) -> Result<bool> {
        match self {
            QueryExpr::Pred(p) => {
                let col = provider
                    .column(&p.column)
                    .ok_or_else(|| FastBitError::UnknownColumn(p.column.clone()))?;
                Ok(p.range.contains(col[row]))
            }
            QueryExpr::And(v) => {
                for e in v {
                    if !e.matches_row(provider, row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            QueryExpr::Or(v) => {
                for e in v {
                    if e.matches_row(provider, row)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            QueryExpr::Not(e) => Ok(!e.matches_row(provider, row)?),
        }
    }
}

impl fmt::Display for QueryExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_impl(f)
    }
}

impl QueryExpr {
    fn fmt_impl(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryExpr::Pred(p) => write!(f, "{p}"),
            QueryExpr::And(v) => {
                write!(f, "(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    e.fmt_impl(f)?;
                }
                write!(f, ")")
            }
            QueryExpr::Or(v) => {
                write!(f, "(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    e.fmt_impl(f)?;
                }
                write!(f, ")")
            }
            QueryExpr::Not(e) => {
                write!(f, "!(")?;
                e.fmt_impl(f)?;
                write!(f, ")")
            }
        }
    }
}

/// Access to the columns and (optionally) indexes of one dataset.
///
/// This is the implementation-neutral interface mirroring HDF5-FastQuery: the
/// evaluator asks for whatever combination of raw data and index a column
/// offers and picks the cheapest exact strategy.
pub trait ColumnProvider {
    /// Number of rows in the dataset.
    fn num_rows(&self) -> usize;
    /// Raw values of a column, when available in memory.
    fn column(&self, name: &str) -> Option<&[f64]>;
    /// Bitmap index of a column, when one has been built.
    fn index(&self, name: &str) -> Option<&BitmapIndex>;
    /// Per-chunk zone maps of a column at the given chunk size, when the
    /// provider keeps them (see [`crate::par::ZoneMaps`]). The chunked
    /// evaluator falls back to computing zones on the fly when this returns
    /// `None`, so implementing it is purely an optimization.
    fn zone_maps(
        &self,
        _name: &str,
        _chunk_rows: usize,
    ) -> Option<std::sync::Arc<crate::par::ZoneMaps>> {
        None
    }
}

/// How a query should be executed: the paper's index-or-scan question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStrategy {
    /// Use bitmap indexes where available, falling back to scans (FastBit in
    /// the paper's charts).
    Auto,
    /// Force sequential scans even when indexes exist (the "Custom" baseline).
    ScanOnly,
}

/// Evaluate one predicate under `strategy`: the leaf of the
/// [`crate::testing`] oracle.
pub(crate) fn evaluate_predicate(
    pred: &Predicate,
    provider: &impl ColumnProvider,
    strategy: ExecStrategy,
) -> Result<Selection> {
    let data = provider.column(&pred.column);
    let index = provider.index(&pred.column);
    match strategy {
        ExecStrategy::ScanOnly => {
            let data = data.ok_or_else(|| FastBitError::UnknownColumn(pred.column.clone()))?;
            Ok(Selection::from_predicate(data, |&v| pred.range.contains(v)))
        }
        ExecStrategy::Auto => match (index, data) {
            (Some(index), Some(data)) => index.evaluate(&pred.range, data),
            (Some(index), None) if index.answers_exactly(&pred.range) => {
                let (hits, _) = index.evaluate_index_only(&pred.range)?;
                Ok(hits)
            }
            (_, Some(data)) => Ok(Selection::from_predicate(data, |&v| pred.range.contains(v))),
            _ => Err(FastBitError::UnknownColumn(pred.column.clone())),
        },
    }
}

// ---------------------------------------------------------------------------
// Query string parser
// ---------------------------------------------------------------------------

/// Parse a paper-style query string such as
/// `px > 8.872e10 && (y > 0 || z <= 1e-3) && !(id < 100)`.
///
/// Supported syntax: comparisons `<ident> (< | <= | > | >= | ==) <number>`
/// (or with the operands flipped), combined with `&&`, `||`, `!` and
/// parentheses.
pub fn parse_query(input: &str) -> Result<QueryExpr> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let expr = parser.parse_or()?;
    if parser.pos != parser.tokens.len() {
        return Err(FastBitError::Parse(format!(
            "unexpected trailing input near token {:?}",
            parser.tokens[parser.pos]
        )));
    }
    Ok(expr)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(f64),
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    AndAnd,
    OrOr,
    Not,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
}

/// Whether `chars[at..]` spells exactly the keyword `inf` (and not the prefix
/// of a longer identifier such as `infra`).
fn signed_infinity_at(chars: &[char], at: usize) -> bool {
    chars[at..].starts_with(&['i', 'n', 'f'])
        && !matches!(chars.get(at + 3), Some(c) if c.is_ascii_alphanumeric() || *c == '_')
}

fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '[' => {
                tokens.push(Token::LBracket);
                i += 1;
            }
            ']' => {
                tokens.push(Token::RBracket);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '&' => {
                if chars.get(i + 1) == Some(&'&') {
                    tokens.push(Token::AndAnd);
                    i += 2;
                } else {
                    return Err(FastBitError::Parse("expected '&&'".into()));
                }
            }
            '|' => {
                if chars.get(i + 1) == Some(&'|') {
                    tokens.push(Token::OrOr);
                    i += 2;
                } else {
                    return Err(FastBitError::Parse("expected '||'".into()));
                }
            }
            '!' => {
                tokens.push(Token::Not);
                i += 1;
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '=' => {
                if chars.get(i + 1) == Some(&'=') {
                    tokens.push(Token::Eq);
                    i += 2;
                } else {
                    return Err(FastBitError::Parse("expected '=='".into()));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                // `inf` is reserved as the infinity literal of the interval
                // syntax (`px (-inf , 3]`), not a column name.
                if ident == "inf" {
                    tokens.push(Token::Number(f64::INFINITY));
                } else {
                    tokens.push(Token::Ident(ident));
                }
            }
            '-' | '+' if signed_infinity_at(&chars, i + 1) => {
                tokens.push(Token::Number(if c == '-' {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }));
                i += 4;
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' || c == '.' => {
                let start = i;
                i += 1;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || chars[i] == 'E'
                        || ((chars[i] == '-' || chars[i] == '+')
                            && (chars[i - 1] == 'e' || chars[i - 1] == 'E')))
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let value = text
                    .parse::<f64>()
                    .map_err(|_| FastBitError::Parse(format!("bad number literal '{text}'")))?;
                tokens.push(Token::Number(value));
            }
            other => {
                return Err(FastBitError::Parse(format!(
                    "unexpected character '{other}'"
                )));
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    // The chain parsers accumulate children explicitly instead of going
    // through `QueryExpr::or`/`QueryExpr::and`: those constructors flatten
    // an `And`/`Or` left operand, which would silently merge a parenthesized
    // sub-expression into its parent chain and break the
    // `parse(display(expr)) == expr` invariant the query cache relies on
    // (`((a && b) && c)` must stay structurally distinct from
    // `(a && b && c)`).
    fn parse_or(&mut self) -> Result<QueryExpr> {
        let first = self.parse_and()?;
        if self.peek() != Some(&Token::OrOr) {
            return Ok(first);
        }
        let mut children = vec![first];
        while self.peek() == Some(&Token::OrOr) {
            self.bump();
            children.push(self.parse_and()?);
        }
        Ok(QueryExpr::Or(children))
    }

    fn parse_and(&mut self) -> Result<QueryExpr> {
        let first = self.parse_unary()?;
        if self.peek() != Some(&Token::AndAnd) {
            return Ok(first);
        }
        let mut children = vec![first];
        while self.peek() == Some(&Token::AndAnd) {
            self.bump();
            children.push(self.parse_unary()?);
        }
        Ok(QueryExpr::And(children))
    }

    fn parse_unary(&mut self) -> Result<QueryExpr> {
        match self.peek() {
            Some(Token::Not) => {
                self.bump();
                Ok(self.parse_unary()?.not())
            }
            Some(Token::LParen) => {
                self.bump();
                let inner = self.parse_or()?;
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(FastBitError::Parse("expected ')'".into())),
                }
            }
            _ => self.parse_comparison(),
        }
    }

    /// `col [lo , hi)` — the interval form `Display` emits for
    /// double-bounded ranges. `[`/`]` mean inclusive, `(`/`)` exclusive,
    /// and `-inf`/`+inf` stand for a missing bound, so every `ValueRange`
    /// (including `ValueRange::all()`, printed `(-inf, +inf)`) roundtrips.
    fn parse_interval(&mut self, column: String) -> Result<QueryExpr> {
        let min_inclusive = match self.bump() {
            Some(Token::LBracket) => true,
            Some(Token::LParen) => false,
            other => {
                return Err(FastBitError::Parse(format!(
                    "expected '[' or '(': {other:?}"
                )))
            }
        };
        let lo = match self.bump() {
            Some(Token::Number(v)) => v,
            other => {
                return Err(FastBitError::Parse(format!(
                    "expected interval lower bound: {other:?}"
                )))
            }
        };
        if self.bump() != Some(Token::Comma) {
            return Err(FastBitError::Parse("expected ',' in interval".into()));
        }
        let hi = match self.bump() {
            Some(Token::Number(v)) => v,
            other => {
                return Err(FastBitError::Parse(format!(
                    "expected interval upper bound: {other:?}"
                )))
            }
        };
        let max_inclusive = match self.bump() {
            Some(Token::RBracket) => true,
            Some(Token::RParen) => false,
            other => {
                return Err(FastBitError::Parse(format!(
                    "expected ']' or ')': {other:?}"
                )))
            }
        };
        let (min, min_inclusive) = if lo == f64::NEG_INFINITY {
            (None, false)
        } else {
            (Some(lo), min_inclusive)
        };
        let (max, max_inclusive) = if hi == f64::INFINITY {
            (None, false)
        } else {
            (Some(hi), max_inclusive)
        };
        Ok(QueryExpr::pred(
            column,
            ValueRange {
                min,
                min_inclusive,
                max,
                max_inclusive,
            },
        ))
    }

    fn parse_comparison(&mut self) -> Result<QueryExpr> {
        let lhs = self
            .bump()
            .ok_or_else(|| FastBitError::Parse("unexpected end of query".into()))?;
        if let Token::Ident(column) = &lhs {
            if matches!(self.peek(), Some(Token::LBracket) | Some(Token::LParen)) {
                return self.parse_interval(column.clone());
            }
        }
        let op = self
            .bump()
            .ok_or_else(|| FastBitError::Parse("expected comparison operator".into()))?;
        let rhs = self
            .bump()
            .ok_or_else(|| FastBitError::Parse("expected comparison operand".into()))?;
        match (lhs, op, rhs) {
            (Token::Ident(col), op, Token::Number(v)) => {
                let range = match op {
                    Token::Gt => ValueRange::gt(v),
                    Token::Ge => ValueRange::ge(v),
                    Token::Lt => ValueRange::lt(v),
                    Token::Le => ValueRange::le(v),
                    Token::Eq => ValueRange::between_inclusive(v, v),
                    other => return Err(FastBitError::Parse(format!("bad operator {other:?}"))),
                };
                Ok(QueryExpr::pred(col, range))
            }
            (Token::Number(v), op, Token::Ident(col)) => {
                // `1e9 < px` is the same as `px > 1e9`.
                let range = match op {
                    Token::Gt => ValueRange::lt(v),
                    Token::Ge => ValueRange::le(v),
                    Token::Lt => ValueRange::gt(v),
                    Token::Le => ValueRange::ge(v),
                    Token::Eq => ValueRange::between_inclusive(v, v),
                    other => return Err(FastBitError::Parse(format!("bad operator {other:?}"))),
                };
                Ok(QueryExpr::pred(col, range))
            }
            (l, o, r) => Err(FastBitError::Parse(format!(
                "malformed comparison: {l:?} {o:?} {r:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::evaluate_with_strategy;
    use histogram::Binning;
    use std::collections::HashMap;

    fn evaluate(expr: &QueryExpr, provider: &impl ColumnProvider) -> Result<Selection> {
        evaluate_with_strategy(expr, provider, ExecStrategy::Auto)
    }

    struct MemProvider {
        columns: HashMap<String, Vec<f64>>,
        indexes: HashMap<String, BitmapIndex>,
        rows: usize,
    }

    impl MemProvider {
        fn new(columns: Vec<(&str, Vec<f64>)>, index_bins: Option<usize>) -> Self {
            let rows = columns[0].1.len();
            let mut map = HashMap::new();
            let mut indexes = HashMap::new();
            for (name, data) in columns {
                if let Some(bins) = index_bins {
                    indexes.insert(
                        name.to_string(),
                        BitmapIndex::build(&data, &Binning::EqualWidth { bins }).unwrap(),
                    );
                }
                map.insert(name.to_string(), data);
            }
            Self {
                columns: map,
                indexes,
                rows,
            }
        }
    }

    impl ColumnProvider for MemProvider {
        fn num_rows(&self) -> usize {
            self.rows
        }
        fn column(&self, name: &str) -> Option<&[f64]> {
            self.columns.get(name).map(|v| v.as_slice())
        }
        fn index(&self, name: &str) -> Option<&BitmapIndex> {
            self.indexes.get(name)
        }
    }

    fn provider(indexed: bool) -> MemProvider {
        let n = 1000;
        let px: Vec<f64> = (0..n).map(|i| i as f64 * 1e8).collect();
        let py: Vec<f64> = (0..n).map(|i| ((i * 7) % n) as f64 * 1e7).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64) - 500.0).collect();
        MemProvider::new(
            vec![("px", px), ("py", py), ("y", y)],
            if indexed { Some(64) } else { None },
        )
    }

    #[test]
    fn value_range_semantics() {
        assert!(ValueRange::gt(1.0).contains(1.5));
        assert!(!ValueRange::gt(1.0).contains(1.0));
        assert!(ValueRange::ge(1.0).contains(1.0));
        assert!(ValueRange::lt(1.0).contains(0.5));
        assert!(!ValueRange::lt(1.0).contains(1.0));
        assert!(ValueRange::le(1.0).contains(1.0));
        assert!(ValueRange::between(0.0, 1.0).contains(0.0));
        assert!(!ValueRange::between(0.0, 1.0).contains(1.0));
        assert!(ValueRange::between_inclusive(0.0, 1.0).contains(1.0));
        assert!(!ValueRange::all().contains(f64::NAN));
        assert!(ValueRange::all().contains(-1e300));
    }

    #[test]
    fn interval_relations() {
        let r = ValueRange::between(0.0, 10.0);
        assert!(r.contains_interval(1.0, 9.0));
        assert!(!r.contains_interval(-1.0, 9.0));
        assert!(r.overlaps_interval(-5.0, 0.5));
        assert!(r.overlaps_interval(9.0, 20.0));
        assert!(!r.overlaps_interval(10.0, 20.0), "half-open upper bound");
        assert!(!r.overlaps_interval(-5.0, -1.0));
    }

    #[test]
    fn compound_query_matches_paper_example() {
        // px > 1e9 && py < 1e8 && y > 0 — the example from Section III-B.
        let p = provider(true);
        let expr = QueryExpr::pred("px", ValueRange::gt(1e9))
            .and(QueryExpr::pred("py", ValueRange::lt(1e8)))
            .and(QueryExpr::pred("y", ValueRange::gt(0.0)));
        let indexed = evaluate(&expr, &p).unwrap();
        let scanned = evaluate_with_strategy(&expr, &p, ExecStrategy::ScanOnly).unwrap();
        assert_eq!(indexed.to_rows(), scanned.to_rows());
        assert!(indexed.count() > 0);
        // Manual check of a few rows.
        for row in indexed.iter_rows().take(5) {
            assert!(p.column("px").unwrap()[row] > 1e9);
            assert!(p.column("py").unwrap()[row] < 1e8);
            assert!(p.column("y").unwrap()[row] > 0.0);
        }
    }

    #[test]
    fn or_and_not_evaluate_correctly() {
        let p = provider(false);
        let expr = QueryExpr::pred("y", ValueRange::lt(-400.0))
            .or(QueryExpr::pred("y", ValueRange::gt(400.0)));
        let sel = evaluate(&expr, &p).unwrap();
        assert_eq!(sel.count(), 100 + 99);
        let inverted = evaluate(&expr.clone().not(), &p).unwrap();
        assert_eq!(inverted.count() + sel.count(), 1000);
    }

    #[test]
    fn missing_column_is_reported() {
        let p = provider(false);
        let expr = QueryExpr::pred("nope", ValueRange::gt(0.0));
        assert!(matches!(
            evaluate(&expr, &p),
            Err(FastBitError::UnknownColumn(_))
        ));
    }

    #[test]
    fn columns_are_collected_for_contracts() {
        let expr = parse_query("px > 1e9 && (py < 1e8 || y > 0) && !(px <= 2e9)").unwrap();
        let cols: Vec<String> = expr.columns().into_iter().collect();
        assert_eq!(
            cols,
            vec!["px".to_string(), "py".to_string(), "y".to_string()]
        );
    }

    #[test]
    fn matches_row_agrees_with_selection() {
        let p = provider(false);
        let expr = parse_query("px > 5e10 && y <= 100").unwrap();
        let sel = evaluate(&expr, &p).unwrap();
        for row in 0..p.num_rows() {
            assert_eq!(
                expr.matches_row(&p, row).unwrap(),
                sel.to_rows().contains(&row)
            );
        }
    }

    #[test]
    fn parser_handles_paper_queries() {
        let e = parse_query("px > 8.872e10").unwrap();
        assert_eq!(e, QueryExpr::pred("px", ValueRange::gt(8.872e10)));

        let e = parse_query("px >  4.856e10 && x > 5.649e-4").unwrap();
        match e {
            QueryExpr::And(v) => assert_eq!(v.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }

        let e = parse_query("1e9 < px").unwrap();
        assert_eq!(e, QueryExpr::pred("px", ValueRange::gt(1e9)));

        let e = parse_query("pressure <= 1e-5 || momentum >= 2.5e8").unwrap();
        assert!(matches!(e, QueryExpr::Or(_)));

        assert!(parse_query("px >").is_err());
        assert!(parse_query("px ?? 3").is_err());
        assert!(parse_query("px > 1e9 extra").is_err());
        assert!(parse_query("px > abc").is_err());
    }

    #[test]
    fn parser_handles_interval_syntax() {
        assert_eq!(
            parse_query("px [0 , 1)").unwrap(),
            QueryExpr::pred("px", ValueRange::between(0.0, 1.0))
        );
        assert_eq!(
            parse_query("px (-inf, +inf)").unwrap(),
            QueryExpr::pred("px", ValueRange::all())
        );
        assert_eq!(
            parse_query("px [2 , 2]").unwrap(),
            QueryExpr::pred("px", ValueRange::between_inclusive(2.0, 2.0))
        );
        assert_eq!(
            parse_query("x (-1e-3 , 4.5]").unwrap(),
            QueryExpr::pred(
                "x",
                ValueRange {
                    min: Some(-1e-3),
                    min_inclusive: false,
                    max: Some(4.5),
                    max_inclusive: true,
                }
            )
        );
        assert!(parse_query("px [0 ,").is_err());
        assert!(parse_query("px [0 1)").is_err());
        assert!(parse_query("px [0 , 1").is_err());
    }

    #[test]
    fn normalization_flattens_sorts_and_collapses() {
        let e = parse_query("(px > 1 && (y > 2 && z > 3))").unwrap();
        match e.normalized() {
            QueryExpr::And(v) => assert_eq!(v.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
        let a = parse_query("px > 1 || y > 2").unwrap();
        let b = parse_query("y > 2 || px > 1").unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        let nn = parse_query("!(!(px > 1))").unwrap();
        assert_eq!(nn.normalized(), parse_query("px > 1").unwrap());
    }

    #[test]
    fn every_value_range_display_form_parses_back() {
        for range in [
            ValueRange::all(),
            ValueRange::gt(1.5),
            ValueRange::ge(-2.0),
            ValueRange::lt(1e30),
            ValueRange::le(0.0),
            ValueRange::between(-1.0, 1.0),
            ValueRange::between_inclusive(3.0, 4.0),
        ] {
            let expr = QueryExpr::pred("px", range);
            let text = expr.to_string();
            assert_eq!(parse_query(&text).unwrap(), expr, "from {text:?}");
        }
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let e = parse_query("px > 1e9 && !(py < 1e8 || y >= 0)").unwrap();
        let text = format!("{e}");
        let reparsed = parse_query(&text).unwrap();
        assert_eq!(e, reparsed);
    }
}
