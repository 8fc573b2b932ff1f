//! Property suite for query normalization and the cache key the server (and
//! the compiled-plan cache) trust:
//!
//! * `normalized()` is a fixpoint — normalizing twice changes nothing — and
//!   preserves the selected row set exactly;
//! * `parse_query(expr.cache_key())` reconstructs the normalized expression,
//!   including deeply nested `Not`/`And`-inside-`Or` chains;
//! * two expressions sharing a `cache_key()` are semantically equal (their
//!   row sets agree on random data), and commutative/involution rewrites
//!   that *are* equivalent do share one key.

use std::collections::HashMap;

use fastbit::{
    parse_query, testing::evaluate_with_strategy, ColumnProvider, ExecStrategy, Predicate,
    QueryExpr, ValueRange,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

struct MemProvider {
    columns: HashMap<String, Vec<f64>>,
    rows: usize,
}

impl ColumnProvider for MemProvider {
    fn num_rows(&self) -> usize {
        self.rows
    }
    fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns.get(name).map(|v| v.as_slice())
    }
    fn index(&self, _: &str) -> Option<&fastbit::BitmapIndex> {
        None
    }
}

const COLUMNS: [&str; 3] = ["a", "b", "c"];

fn provider(n: usize, seed: u64) -> MemProvider {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut columns = HashMap::new();
    for name in COLUMNS {
        // A small value lattice so distinct predicates still overlap a lot.
        let data: Vec<f64> = (0..n)
            .map(|_| (rng.gen_range(-6..7) as f64) / 2.0)
            .collect();
        columns.insert(name.to_string(), data);
    }
    MemProvider { columns, rows: n }
}

fn random_range(rng: &mut StdRng) -> ValueRange {
    let bound = |rng: &mut StdRng| (rng.gen_range(-8..9) as f64) / 2.0;
    match rng.gen_range(0..5u32) {
        0 => ValueRange::gt(bound(rng)),
        1 => ValueRange::ge(bound(rng)),
        2 => ValueRange::lt(bound(rng)),
        3 => ValueRange::le(bound(rng)),
        _ => {
            let (x, y) = (bound(rng), bound(rng));
            let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
            if rng.gen_range(0.0..1.0) < 0.5 {
                ValueRange::between(lo, hi)
            } else {
                ValueRange::between_inclusive(lo, hi)
            }
        }
    }
}

fn random_expr(rng: &mut StdRng, depth: usize) -> QueryExpr {
    if depth == 0 || rng.gen_range(0.0..1.0) < 0.35 {
        let column = COLUMNS[rng.gen_range(0..COLUMNS.len())];
        return QueryExpr::Pred(Predicate::new(column, random_range(rng)));
    }
    match rng.gen_range(0..3u32) {
        0 => QueryExpr::And(
            (0..rng.gen_range(1..4usize))
                .map(|_| random_expr(rng, depth - 1))
                .collect(),
        ),
        1 => QueryExpr::Or(
            (0..rng.gen_range(1..4usize))
                .map(|_| random_expr(rng, depth - 1))
                .collect(),
        ),
        _ => random_expr(rng, depth - 1).not(),
    }
}

fn rows(expr: &QueryExpr, p: &MemProvider) -> Vec<usize> {
    evaluate_with_strategy(expr, p, ExecStrategy::ScanOnly)
        .unwrap()
        .to_rows()
}

#[test]
fn normalized_is_a_fixpoint_and_preserves_semantics() {
    let p = provider(800, 0xF1F0);
    let mut rng = StdRng::seed_from_u64(0xABCD);
    for round in 0..200 {
        let expr = random_expr(&mut rng, 4);
        let once = expr.normalized();
        let twice = once.normalized();
        assert_eq!(twice, once, "round {round}: not a fixpoint: {expr}");
        assert_eq!(
            twice.to_string(),
            once.to_string(),
            "round {round}: textual fixpoint: {expr}"
        );
        assert_eq!(
            rows(&once, &p),
            rows(&expr, &p),
            "round {round}: normalization changed the row set of {expr}"
        );
    }
}

#[test]
fn cache_key_parses_back_to_the_normalized_expression() {
    let mut rng = StdRng::seed_from_u64(0x9999);
    for round in 0..200 {
        let expr = random_expr(&mut rng, 4);
        let key = expr.cache_key();
        let reparsed = parse_query(&key)
            .unwrap_or_else(|e| panic!("round {round}: cache key `{key}` unparseable: {e}"));
        assert_eq!(
            reparsed,
            expr.normalized(),
            "round {round}: `{key}` did not round-trip"
        );
        assert_eq!(
            reparsed.cache_key(),
            key,
            "round {round}: key of key drifts"
        );
    }
}

#[test]
fn deeply_nested_not_and_or_chains_round_trip() {
    // The shape the issue calls out explicitly: alternating Not over
    // And-inside-Or, many levels deep, including n-ary combiners nested in
    // single-child combiners.
    let leaf = |c: &str, t: f64| QueryExpr::pred(c, ValueRange::gt(t));
    let mut expr = leaf("a", 0.0);
    for level in 0..12 {
        let t = level as f64;
        expr = QueryExpr::Or(vec![
            QueryExpr::And(vec![expr.clone(), leaf("b", t), leaf("c", -t)]).not(),
            QueryExpr::And(vec![QueryExpr::Or(vec![expr]), leaf("a", t + 0.5)]),
        ])
        .not();
    }
    let key = expr.cache_key();
    let reparsed = parse_query(&key).unwrap();
    assert_eq!(reparsed, expr.normalized());
    assert_eq!(reparsed.cache_key(), key);
    // Idempotence survives the depth too.
    assert_eq!(expr.normalized().normalized(), expr.normalized());
}

#[test]
fn equal_cache_keys_imply_equal_semantics() {
    let p = provider(600, 0x7777);
    let mut rng = StdRng::seed_from_u64(0x4242);
    let mut by_key: HashMap<String, (QueryExpr, Vec<usize>)> = HashMap::new();
    let mut collisions = 0;
    for _ in 0..300 {
        let expr = random_expr(&mut rng, 3);
        let key = expr.cache_key();
        let selected = rows(&expr, &p);
        if let Some((prior, prior_rows)) = by_key.get(&key) {
            collisions += 1;
            assert_eq!(
                &selected, prior_rows,
                "`{prior}` and `{expr}` share key `{key}` but select different rows"
            );
        } else {
            by_key.insert(key, (expr, selected));
        }
    }
    // With a small value lattice, some genuine re-draws must have occurred,
    // otherwise the property was never exercised.
    assert!(collisions > 0, "no shared keys in 300 draws");
}

#[test]
fn equivalent_rewrites_share_a_key_and_distinct_ranges_do_not() {
    let a = QueryExpr::pred("a", ValueRange::gt(1.0));
    let b = QueryExpr::pred("b", ValueRange::le(2.0));
    let c = QueryExpr::pred("c", ValueRange::between(0.0, 1.0));

    // Commutativity, associativity-flattening, double negation.
    assert_eq!(
        a.clone().and(b.clone()).cache_key(),
        b.clone().and(a.clone()).cache_key()
    );
    assert_eq!(
        QueryExpr::And(vec![a.clone(), QueryExpr::And(vec![b.clone(), c.clone()])]).cache_key(),
        QueryExpr::And(vec![a.clone(), b.clone(), c.clone()]).cache_key()
    );
    assert_eq!(a.clone().not().not().cache_key(), a.cache_key());
    assert_eq!(QueryExpr::Or(vec![a.clone()]).cache_key(), a.cache_key());

    // Near-miss ranges must all key differently: the four inclusivity
    // combinations of one interval are semantically distinct.
    let keys: Vec<String> = [(false, false), (true, false), (false, true), (true, true)]
        .into_iter()
        .map(|(min_inclusive, max_inclusive)| {
            QueryExpr::pred(
                "a",
                ValueRange {
                    min: Some(0.0),
                    min_inclusive,
                    max: Some(1.0),
                    max_inclusive,
                },
            )
            .cache_key()
        })
        .collect();
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(keys[i], keys[j], "inclusivity lost in the key");
        }
    }
    // And/Or with the same children are distinct.
    assert_ne!(
        a.clone().and(b.clone()).cache_key(),
        a.clone().or(b.clone()).cache_key()
    );
    // Negation is distinct from the plain predicate.
    assert_ne!(a.clone().not().cache_key(), a.cache_key());
}
