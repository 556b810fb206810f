//! Turning records into the token hashes that blocking operates on.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use transer_common::{AttrValue, Record};
use transer_similarity::{for_each_qgram, for_each_token};

/// Hash every blocking token of a record to a `u64` (stable within one
/// process run) — MinHash operates on these integers rather than the
/// strings. The tokens are the whitespace tokens plus the character
/// 3-grams of every textual attribute, and the decimal rendering of every
/// numeric attribute (`num:<x>`). The redundancy (words *and* grams) makes
/// the MinHash signature robust to the typographical errors the paper's
/// data sets are full of. Sorted and deduplicated.
pub fn token_hashes(record: &Record) -> Vec<u64> {
    token_hashes_masked(record, None)
}

/// Like [`token_hashes`] but restricted to the attributes in `attrs`
/// (`None` = all). Blocking on a *subset* of attributes — titles for
/// publications, person names for civil registers — is standard ER
/// practice: it targets the identifying attributes and keeps shared
/// low-information attributes (venues, occupations) from flooding blocks.
///
/// Each token is hashed as a `&str` slice of one reused buffer, so no
/// per-token `String` is built. Hashing a `&str` feeds the hasher exactly
/// the bytes that hashing the equal `String` does, so the result is the
/// hash set of the collected token strings.
pub fn token_hashes_masked(record: &Record, attrs: Option<&[usize]>) -> Vec<u64> {
    let mut hashes = Vec::new();
    let mut buf = String::new();
    let mut push = |token: &str| {
        let mut h = DefaultHasher::new();
        token.hash(&mut h);
        hashes.push(h.finish());
    };
    let mut visit = |value: &AttrValue| match value {
        AttrValue::Text(s) if !s.is_empty() => {
            for_each_token(s, &mut buf, &mut push);
            for_each_qgram(s, 3, &mut buf, &mut push);
        }
        AttrValue::Number(x) => {
            buf.clear();
            // Writing into a `String` cannot fail.
            let _ = write!(buf, "num:{x}");
            push(&buf);
        }
        _ => {}
    };
    match attrs {
        Some(idx) => idx.iter().filter_map(|&q| record.values.get(q)).for_each(&mut visit),
        None => record.values.iter().for_each(&mut visit),
    }
    hashes.sort_unstable();
    hashes.dedup();
    hashes
}

#[cfg(test)]
mod tests {
    use super::*;
    use transer_common::AttrValue;

    fn rec(title: &str, year: f64) -> Record {
        Record::new(0, 0, vec![AttrValue::Text(title.into()), AttrValue::Number(year)])
    }

    fn hash_of(token: &str) -> u64 {
        let mut h = DefaultHasher::new();
        token.to_string().hash(&mut h);
        h.finish()
    }

    #[test]
    fn hashes_cover_words_grams_and_numbers() {
        let t = token_hashes(&rec("deep learning", 2018.0));
        for token in ["deep", "learning", "##d", "ng#", "num:2018"] {
            assert!(t.contains(&hash_of(token)), "{token} missing");
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
}
