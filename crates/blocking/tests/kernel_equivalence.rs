//! The comparison step must be bit-identical across worker counts: {1, 4}
//! workers (with their different shard splits) produce exactly the same
//! feature matrix.

use proptest::prelude::*;
use transer_blocking::{CandidatePair, Comparison};
use transer_common::{AttrValue, Record};
use transer_parallel::Pool;
use transer_similarity::Measure;

fn comparison() -> Comparison {
    Comparison::new(vec![
        (0, Measure::JaroWinkler),
        (0, Measure::TokenJaccard),
        (0, Measure::QgramJaccard(2)),
        (0, Measure::QgramDice(4)),
        (0, Measure::Levenshtein),
        (0, Measure::Lcs),
        (0, Measure::MongeElkanJw),
        (0, Measure::TokenOverlap),
        (1, Measure::Year),
        (1, Measure::Numeric(5.0)),
        (1, Measure::TokenDice),
        (0, Measure::Soundex),
        (0, Measure::Exact),
        (0, Measure::Jaro),
    ])
    .unwrap()
}

/// Deterministic xorshift (proptest drives only the seed).
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

const WORDS: [&str; 12] = [
    "deep",
    "entity",
    "matching",
    "наука",
    "récord",
    "a\u{0301}lbum",
    "1999",
    "o'brien",
    "smith-jones",
    "x",
    "",
    "transfer",
];

fn build_records(n: usize, seed: u64) -> Vec<Record> {
    let mut next = xorshift(seed);
    (0..n)
        .map(|i| {
            let title = match next() % 5 {
                0 => AttrValue::Missing,
                1 => AttrValue::Text(String::new()),
                2 => AttrValue::Number(1900.0 + (next() % 120) as f64),
                _ => {
                    let words = 1 + (next() % 5) as usize;
                    let mut s = String::new();
                    for w in 0..words {
                        if w > 0 {
                            s.push(' ');
                        }
                        s.push_str(WORDS[(next() % WORDS.len() as u64) as usize]);
                    }
                    // Occasionally exceed the 64-char bit-parallel block.
                    if next().is_multiple_of(7) {
                        s.push_str(&"long tail ".repeat(8));
                    }
                    AttrValue::Text(s)
                }
            };
            let year = match next() % 4 {
                0 => AttrValue::Missing,
                1 => AttrValue::Text(format!("{}", 1900 + (next() % 120))),
                _ => AttrValue::Number(1900.0 + (next() % 120) as f64),
            };
            Record::new(i as u64, next() % 13, vec![title, year])
        })
        .collect()
}

/// A ragged, left-sorted pair list like the blocker emits.
fn build_pairs(n: usize, seed: u64) -> Vec<CandidatePair> {
    let mut next = xorshift(seed);
    (0..n)
        .flat_map(|i| {
            let fanout = 1 + (next() % 6) as usize;
            let base = next() as usize;
            (0..fanout).map(move |k| (i, (base + k * 3) % n)).collect::<Vec<_>>()
        })
        .collect()
}

fn assert_bitwise_eq(
    a: &transer_common::FeatureMatrix,
    b: &transer_common::FeatureMatrix,
    what: &str,
) {
    assert_eq!(a.rows(), b.rows(), "{what}: rows");
    for r in 0..a.rows() {
        for (f, (x, y)) in a.row(r).iter().zip(b.row(r)).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {r} feature {f}: {x} vs {y}");
        }
    }
}

fn check_case(records: &[Record], pairs: &[CandidatePair]) {
    let c = comparison();
    let (want, labels_want) =
        c.compare_pairs_with_pool(records, records, pairs, &Pool::new(1)).unwrap();
    for workers in [1usize, 4] {
        let pool = Pool::new(workers);
        let (got, labels) = c.compare_pairs_with_pool(records, records, pairs, &pool).unwrap();
        assert_eq!(labels, labels_want, "labels, workers={workers}");
        assert_bitwise_eq(&want, &got, &format!("workers={workers}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn workers_are_bitwise_equal(
        n in 8usize..40,
        seed in 0u64..1_000_000,
    ) {
        let records = build_records(n, seed);
        let pairs = build_pairs(n, seed.wrapping_add(1));
        check_case(&records, &pairs);
    }
}

/// Duplicated right records across shard boundaries: every shard reads
/// the same few right records' values and must score them identically.
#[test]
fn right_records_shared_by_every_shard_score_alike() {
    let records = build_records(64, 7);
    // Every left record pairs with the same few right records, so those
    // right records appear in every shard's cache.
    let pairs: Vec<CandidatePair> = (0..64).flat_map(|i| [(i, 0), (i, 1), (i, 63 - i)]).collect();
    check_case(&records, &pairs);
}
