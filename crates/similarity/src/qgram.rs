//! Tokenisation helpers: whitespace tokens and character q-grams.
//!
//! The word and gram rules are written once, as visitors
//! ([`for_each_token`], [`for_each_qgram`]) that hand each token to a
//! callback as a `&str` borrowed from a caller-owned buffer. The
//! collecting forms ([`tokens`], [`qgrams`], [`qgram_multiset`]), the
//! packed q-gram profiles and the blocking token hashes are built on them,
//! so the hot paths that only need to hash or pack a token never allocate
//! one.

use std::collections::HashMap;

/// Visit the whitespace tokens of `s` in order, repeats included. Each
/// token is lower-cased and stripped of any character that is neither
/// alphanumeric nor one of `'`/`-` (which are meaningful inside names such
/// as `o'brien` or `smith-jones`); tokens left empty are skipped. `buf` is
/// the reused token buffer.
pub fn for_each_token(s: &str, buf: &mut String, mut visit: impl FnMut(&str)) {
    for word in s.split_whitespace() {
        buf.clear();
        buf.extend(
            word.chars()
                .filter(|c| c.is_alphanumeric() || *c == '\'' || *c == '-')
                .flat_map(char::to_lowercase),
        );
        if !buf.is_empty() {
            visit(buf);
        }
    }
}

/// Visit the character q-grams of the lower-cased `s` in order, repeats
/// included, with `q - 1` padding characters (`#`) on both ends so that
/// string boundaries contribute grams too. An empty `s` or `q == 0` has no
/// grams. `buf` holds the padded string; every gram is a slice of it.
pub fn for_each_qgram(s: &str, q: usize, buf: &mut String, mut visit: impl FnMut(&str)) {
    if s.is_empty() || q == 0 {
        return;
    }
    let pad = q - 1;
    buf.clear();
    buf.extend(std::iter::repeat_n('#', pad));
    buf.extend(s.chars().flat_map(char::to_lowercase));
    buf.extend(std::iter::repeat_n('#', pad));
    // Window `k` runs from the `k`-th char boundary to the `(k + q)`-th (or
    // the end). A non-empty `s` pads to at least `2q - 1 >= q` chars, so
    // even the last window is full.
    let starts = buf.char_indices().map(|(at, _)| at);
    let ends = buf.char_indices().map(|(at, _)| at).skip(q).chain(std::iter::once(buf.len()));
    for (start, end) in starts.zip(ends) {
        visit(&buf[start..end]);
    }
}

/// Split a string into lower-cased whitespace-separated tokens (see
/// [`for_each_token`] for the rule).
pub fn tokens(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(s, &mut String::new(), |t| out.push(t.to_owned()));
    out
}

/// The distinct padded character q-grams of a string (see
/// [`for_each_qgram`] for the rule), sorted.
///
/// Returns an empty set for an empty string, and the padded grams otherwise.
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    let mut grams = Vec::new();
    for_each_qgram(s, q, &mut String::new(), |g| grams.push(g.to_owned()));
    grams.sort_unstable();
    grams.dedup();
    grams
}

/// The character q-grams of a string with multiplicities (padded as in
/// [`qgrams`]).
pub fn qgram_multiset(s: &str, q: usize) -> HashMap<String, usize> {
    let mut out = HashMap::new();
    for_each_qgram(s, q, &mut String::new(), |g| *out.entry(g.to_owned()).or_insert(0) += 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_strip_punctuation_and_case() {
        assert_eq!(tokens("The  Quick, Brown fox!"), ["the", "quick", "brown", "fox"]);
        assert_eq!(tokens("O'Brien Smith-Jones"), ["o'brien", "smith-jones"]);
        assert!(tokens("  ,,  !! ").is_empty());
        assert!(tokens("").is_empty());
    }

    #[test]
    fn bigram_padding() {
        let g = qgrams("ab", 2);
        assert_eq!(g, ["#a", "ab", "b#"]);
    }

    #[test]
    fn qgram_multiset_counts() {
        let m = qgram_multiset("aaa", 2);
        // #a aa aa a# -> aa has multiplicity 2.
        assert_eq!(m.get("aa"), Some(&2));
        assert_eq!(m.get("#a"), Some(&1));
        assert_eq!(m.get("a#"), Some(&1));
    }

    #[test]
    fn empty_and_degenerate() {
        assert!(qgrams("", 2).is_empty());
        assert!(qgrams("abc", 0).is_empty());
        // q = 1 means no padding: unigrams only.
        assert_eq!(qgrams("aba", 1), ["a", "b"]);
    }

    #[test]
    fn grams_are_lowercased() {
        assert_eq!(qgrams("AB", 2), qgrams("ab", 2));
    }

    #[test]
    fn visitors_yield_in_order_with_repeats_from_one_buffer() {
        let mut buf = String::from("stale contents");
        let mut seen = Vec::new();
        for_each_token("a  B a", &mut buf, |t| seen.push(t.to_owned()));
        assert_eq!(seen, ["a", "b", "a"]);
        seen.clear();
        for_each_qgram("aa", 2, &mut buf, |g| seen.push(g.to_owned()));
        assert_eq!(seen, ["#a", "aa", "a#"]);
    }

    #[test]
    fn grams_are_char_windows_of_the_lowercase_expansion() {
        // 'İ' lower-cases to two chars ("i" + combining dot), so the
        // padded stream is "##i\u{307}x##" and every window spans 3 chars.
        let mut grams = Vec::new();
        for_each_qgram("İx", 3, &mut String::new(), |g| grams.push(g.to_owned()));
        assert_eq!(grams, ["##i", "#i\u{307}", "i\u{307}x", "\u{307}x#", "x##"]);
        assert_eq!(tokens("İX"), ["i\u{307}x"]);
        // One char, padded: q grams, each holding the char once.
        assert_eq!(qgrams("é", 3), ["##é", "#é#", "é##"]);
    }
}
