//! Property tests on blocking and comparison: candidate-pair invariants,
//! MinHash behaviour, feature-matrix bounds, and the token hashes against
//! a `String`-token oracle.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use transer_blocking::{
    token_hashes, token_hashes_masked, Comparison, MinHashLsh, MinHashLshConfig,
};
use transer_common::{AttrValue, Label, Record};
use transer_similarity::Measure;

fn word() -> impl Strategy<Value = String> {
    "[a-z]{2,8}( [a-z]{2,8}){0,3}"
}

fn records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec((word(), 1900f64..2020.0), 1..max).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (title, year))| {
                Record::new(
                    i as u64,
                    i as u64 / 2, // every two records share an entity
                    vec![AttrValue::Text(title), AttrValue::Number(year)],
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn candidate_pairs_are_valid_sorted_and_unique(
        left in records(30),
        right in records(30),
    ) {
        let blocker = MinHashLsh::new(MinHashLshConfig::default()).expect("valid LSH config");
        let pairs = blocker.candidate_pairs(&left, &right);
        for w in pairs.windows(2) {
            prop_assert!(w[0] < w[1], "not sorted/unique: {:?}", w);
        }
        for &(i, j) in &pairs {
            prop_assert!(i < left.len() && j < right.len());
        }
    }

    #[test]
    fn identical_record_always_becomes_a_candidate(title in "[a-z]{4,12}( [a-z]{4,12}){1,3}") {
        let rec = Record::new(0, 0, vec![AttrValue::Text(title)]);
        let blocker = MinHashLsh::new(MinHashLshConfig::default()).expect("valid LSH config");
        let pairs = blocker.candidate_pairs(std::slice::from_ref(&rec), std::slice::from_ref(&rec));
        prop_assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn bucket_cap_only_removes_pairs(left in records(40), right in records(40)) {
        let base = MinHashLsh::new(MinHashLshConfig::default()).expect("valid LSH config");
        let capped = MinHashLsh::new(MinHashLshConfig { max_bucket: 2, ..Default::default() }).expect("valid LSH config");
        let all = base.candidate_pairs(&left, &right);
        let few = capped.candidate_pairs(&left, &right);
        prop_assert!(few.len() <= all.len());
        for p in &few {
            prop_assert!(all.contains(p), "capped produced a new pair {p:?}");
        }
    }

    #[test]
    fn comparison_output_is_aligned_and_bounded(
        left in records(20),
        right in records(20),
    ) {
        let comparison = Comparison::new(vec![
            (0, Measure::TokenJaccard),
            (1, Measure::Year),
        ]).unwrap();
        let blocker = MinHashLsh::new(MinHashLshConfig::default()).expect("valid LSH config");
        let pairs = blocker.candidate_pairs(&left, &right);
        let (x, y) = comparison.compare_pairs(&left, &right, &pairs).unwrap();
        prop_assert_eq!(x.rows(), pairs.len());
        prop_assert_eq!(y.len(), pairs.len());
        for (k, row) in x.iter_rows().enumerate() {
            for &v in row {
                prop_assert!((0.0..=1.0).contains(&v));
            }
            let (i, j) = pairs[k];
            prop_assert_eq!(y[k], Label::from_bool(left[i].entity == right[j].entity));
        }
    }

    #[test]
    fn signature_length_matches_config(hashes in prop::collection::vec(any::<u64>(), 0..50)) {
        let blocker = MinHashLsh::new(MinHashLshConfig { num_hashes: 48, bands: 8, ..Default::default() }).expect("valid LSH config");
        prop_assert_eq!(blocker.signature(&hashes).len(), 48);
    }
}

/// The `String`-token oracle of the blocking tokenizer, with the word and
/// 3-gram rules written out longhand: every whitespace token and padded
/// 3-gram of each selected text attribute, and `num:<x>` for each number,
/// collected as owned strings, sorted and deduplicated.
fn record_tokens_masked(record: &Record, attrs: Option<&[usize]>) -> Vec<String> {
    let selected: Vec<&AttrValue> = match attrs {
        Some(idx) => idx.iter().filter_map(|&q| record.values.get(q)).collect(),
        None => record.values.iter().collect(),
    };
    let mut out = Vec::new();
    for value in selected {
        match value {
            AttrValue::Text(s) if !s.is_empty() => {
                for word in s.split_whitespace() {
                    let token: String = word
                        .chars()
                        .filter(|c| c.is_alphanumeric() || *c == '\'' || *c == '-')
                        .flat_map(|c| c.to_lowercase())
                        .collect();
                    if !token.is_empty() {
                        out.push(token);
                    }
                }
                let mut chars = vec!['#', '#'];
                chars.extend(s.chars().flat_map(|c| c.to_lowercase()));
                chars.extend(['#', '#']);
                out.extend(chars.windows(3).map(|w| w.iter().collect::<String>()));
            }
            AttrValue::Number(x) => out.push(format!("num:{x}")),
            _ => {}
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn record_tokens(record: &Record) -> Vec<String> {
    record_tokens_masked(record, None)
}

/// The sorted, deduplicated hash set of owned token strings.
fn hash_set(tokens: &[String]) -> Vec<u64> {
    let mut hashes: Vec<u64> = tokens
        .iter()
        .map(|t| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        })
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    hashes
}

/// Text fragments that stress the word and gram rules: lower-case
/// expansions (`İ` → `i̇`), one-char and whitespace-only pieces (`\x0B`
/// splits words; `\x1F` does not), punctuation that words strip but grams
/// keep, the `#` pad character, combining marks and non-Latin scripts.
/// Records built only from ASCII fragments take the tokenizer's byte path.
const FRAGMENTS: [&str; 24] = [
    "İstanbul",
    "ǅemal",
    "STRASSE",
    "ß",
    "x",
    "Ω",
    " ",
    "\t",
    "\n ",
    "o'brien",
    "smith-jones",
    "a\u{301}",
    "наука",
    "1999",
    "3.5",
    "!!",
    "",
    "deep",
    "Learning",
    "#",
    "ﬁ",
    "İ",
    "\x0B",
    "a\x1Fb",
];

/// Attribute masks: all, none selected, one, reordered, out of range and
/// repeated indices.
const MASKS: [Option<&[usize]>; 6] =
    [None, Some(&[]), Some(&[0]), Some(&[2, 0]), Some(&[7]), Some(&[1, 1])];

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

fn oracle_record(seed: u64) -> Record {
    let mut next = xorshift(seed);
    let values = (0..3)
        .map(|_| match next() % 6 {
            0 => AttrValue::Missing,
            1 => AttrValue::Number([0.5, -3.0, 2018.0, 1e21, -0.0][(next() % 5) as usize]),
            2 => AttrValue::Text(FRAGMENTS[(next() % FRAGMENTS.len() as u64) as usize].into()),
            _ => {
                let pieces = 1 + next() % 5;
                let text: String = (0..pieces)
                    .map(|_| FRAGMENTS[(next() % FRAGMENTS.len() as u64) as usize])
                    .collect();
                AttrValue::Text(text)
            }
        })
        .collect();
    Record::new(seed, 0, values)
}

fn assert_hashes_match_oracle(record: &Record) {
    assert_eq!(token_hashes(record), hash_set(&record_tokens(record)), "{record:?}");
    for mask in MASKS {
        assert_eq!(
            token_hashes_masked(record, mask),
            hash_set(&record_tokens_masked(record, mask)),
            "{record:?} under {mask:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn token_hashes_equal_the_string_token_oracle(seed in any::<u64>()) {
        assert_hashes_match_oracle(&oracle_record(seed));
    }
}

#[test]
fn token_hashes_equal_the_oracle_on_edge_cases() {
    let texts = [
        "İ",
        "İSTANBUL",
        "x",
        "ß",
        " ",
        "\t \n",
        "",
        "#",
        "a b a",
        "İ x İ",
        "entity\x0Bresolution",
        "entity\x1Cresolution",
        "O'Brien-Smith\r\n2nd",
    ];
    for text in texts {
        let record = Record::new(0, 0, vec![AttrValue::Text(text.into()), AttrValue::Number(7.0)]);
        assert_hashes_match_oracle(&record);
    }
    for x in [0.0, -0.0, 0.1, 1999.0, -2.5, 1e21, f64::INFINITY] {
        assert_hashes_match_oracle(&Record::new(0, 0, vec![AttrValue::Number(x)]));
    }
    // Whitespace-only text has no words but keeps its padded grams; empty
    // text has neither.
    for text in [" ", "\t \n", ""] {
        let record = Record::new(0, 0, vec![AttrValue::Text(text.into())]);
        assert_eq!(token_hashes(&record).is_empty(), text.is_empty(), "{text:?}");
    }
}

#[test]
fn oracle_tokens_cover_words_grams_and_numbers() {
    let record =
        Record::new(0, 0, vec![AttrValue::Text("deep learning".into()), AttrValue::Number(2018.0)]);
    let t = record_tokens(&record);
    for token in ["deep", "learning", "##d", "num:2018"] {
        assert!(t.contains(&token.to_string()), "{token} missing");
    }
    // One char, with its lower-case expansion: "İ" yields the token "i̇"
    // and the grams of "##i̇##".
    let t = record_tokens(&Record::new(0, 0, vec![AttrValue::Text("İ".into())]));
    assert_eq!(t, ["##i", "#i\u{307}", "i\u{307}", "i\u{307}#", "\u{307}##"]);
}
