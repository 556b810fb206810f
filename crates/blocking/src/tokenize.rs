//! Turning records into the token hashes that blocking operates on.
//!
//! A record is walked once: every whitespace token and character 3-gram
//! of each selected text attribute, and `num:<x>` for each numeric one,
//! is handed to the hasher as a `&str` slice of one reused buffer (the
//! visitors of `transer_similarity` take a byte path on ASCII text). Each
//! token is hashed by the workspace's own SipHash-1-3
//! ([`transer_common::hash::hash_str`]), which feeds the hash exactly the
//! bytes `str::hash` feeds `std`'s `DefaultHasher`: the hash values are
//! the ones `std` gives today, fixed by this repository rather than by
//! the toolchain.

use std::fmt::Write as _;

use transer_common::hash::hash_str;
use transer_common::{AttrValue, Record};
use transer_similarity::{for_each_qgram, for_each_token};

/// Hash every blocking token of a record to a `u64` — MinHash operates on
/// these integers rather than the strings. The tokens are the whitespace
/// tokens plus the character 3-grams of every textual attribute, and the
/// decimal rendering of every numeric attribute (`num:<x>`). The
/// redundancy (words *and* grams) makes the MinHash signature robust to
/// the typographical errors the paper's data sets are full of. Sorted and
/// deduplicated.
pub fn token_hashes(record: &Record) -> Vec<u64> {
    token_hashes_masked(record, None)
}

/// Like [`token_hashes`] but restricted to the attributes in `attrs`
/// (`None` = all). Blocking on a *subset* of attributes — titles for
/// publications, person names for civil registers — is standard ER
/// practice: it targets the identifying attributes and keeps shared
/// low-information attributes (venues, occupations) from flooding blocks.
pub fn token_hashes_masked(record: &Record, attrs: Option<&[usize]>) -> Vec<u64> {
    let mut hashes = Vec::new();
    push_token_hashes(record, attrs, &mut String::new(), &mut hashes);
    hashes.sort_unstable();
    hashes.dedup();
    hashes
}

/// Push the hash of every blocking token of `record` under `attrs` onto
/// `out` in visiting order, repeats included — the unsorted multiset
/// behind [`token_hashes_masked`], which is all a MinHash signature needs
/// (a minimum over a multiset is the minimum over its set). `buf` is the
/// reused token buffer.
pub(crate) fn push_token_hashes(
    record: &Record,
    attrs: Option<&[usize]>,
    buf: &mut String,
    out: &mut Vec<u64>,
) {
    let mut push = |token: &str| out.push(hash_str(token));
    let mut visit = |value: &AttrValue| match value {
        AttrValue::Text(s) if !s.is_empty() => {
            for_each_token(s, buf, &mut push);
            for_each_qgram(s, 3, buf, &mut push);
        }
        AttrValue::Number(x) => {
            buf.clear();
            // Writing into a `String` cannot fail.
            let _ = write!(buf, "num:{x}");
            push(buf);
        }
        _ => {}
    };
    match attrs {
        Some(idx) => idx.iter().filter_map(|&q| record.values.get(q)).for_each(&mut visit),
        None => record.values.iter().for_each(&mut visit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transer_common::AttrValue;

    fn rec(title: &str, year: f64) -> Record {
        Record::new(0, 0, vec![AttrValue::Text(title.into()), AttrValue::Number(year)])
    }

    #[test]
    fn hashes_cover_words_grams_and_numbers() {
        let t = token_hashes(&rec("deep learning", 2018.0));
        for token in ["deep", "learning", "##d", "ng#", "num:2018"] {
            assert!(t.contains(&hash_str(token)), "{token} missing");
        }
    }

    #[test]
    fn missing_values_ignored() {
        let r = Record::new(0, 0, vec![AttrValue::Missing, AttrValue::Text(String::new())]);
        assert!(token_hashes(&r).is_empty());
    }

    #[test]
    fn similar_records_share_most_tokens() {
        let a = token_hashes(&rec("the quick brown fox", 1999.0));
        let b = token_hashes(&rec("the quick browne fox", 1999.0));
        let inter = a.iter().filter(|h| b.contains(h)).count();
        let union = a.len() + b.len() - inter;
        assert!(inter as f64 / union as f64 > 0.6);
    }

    #[test]
    fn hashes_deduplicated_and_sorted() {
        let h = token_hashes(&rec("a a a b", 1.0));
        assert!(h.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pushed_hashes_are_the_set_with_repeats_in_visiting_order() {
        let r = rec("a a", 7.0);
        let mut pushed = Vec::new();
        push_token_hashes(&r, None, &mut String::new(), &mut pushed);
        let order = ["a", "a", "##a", "#a ", "a a", " a#", "a##", "num:7"];
        assert_eq!(pushed, order.map(hash_str));
        pushed.sort_unstable();
        pushed.dedup();
        assert_eq!(pushed, token_hashes(&r));
    }
}
