//! Tokenisation helpers: whitespace tokens and character q-grams.
//!
//! The word and gram rules are written once, as visitors
//! ([`for_each_token`], [`for_each_qgram`]) that hand each token to a
//! callback as a `&str` borrowed from a caller-owned buffer. The
//! collecting form [`tokens`], the interned compare profiles and the
//! blocking token and 3-gram hashes are built on them, so the hot paths
//! that only need to hash or intern a token never allocate one.
//!
//! Each visitor walks an ASCII string as bytes and any other string as
//! chars. The byte path is the char path specialised to ASCII, token for
//! token: on ASCII, `char::is_whitespace` accepts exactly the six bytes
//! of `is_ascii_word_break`, `char::is_alphanumeric` is
//! `u8::is_ascii_alphanumeric`, and `char::to_lowercase` is the one-char
//! `u8::to_ascii_lowercase`. Beyond ASCII a char can lower-case to several
//! (`İ` → `i̇`), which only the char path handles. Tests pin the two paths
//! equal on every ASCII byte.

/// The ASCII bytes `char::is_whitespace` accepts: `\t \n \x0B \x0C \r`
/// and the space. (`u8::is_ascii_whitespace` omits `\x0B`, which would
/// merge the two words around it.)
#[inline]
fn is_ascii_word_break(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ')
}

/// Visit the whitespace tokens of `s` in order, repeats included. Each
/// token is lower-cased and stripped of any character that is neither
/// alphanumeric nor one of `'`/`-` (which are meaningful inside names such
/// as `o'brien` or `smith-jones`); tokens left empty are skipped. `buf` is
/// the reused token buffer.
pub fn for_each_token(s: &str, buf: &mut String, mut visit: impl FnMut(&str)) {
    if !s.is_ascii() {
        return for_each_token_chars(s, buf, visit);
    }
    buf.clear();
    for b in s.bytes() {
        if is_ascii_word_break(b) {
            if !buf.is_empty() {
                visit(buf);
                buf.clear();
            }
        } else if b.is_ascii_alphanumeric() || b == b'\'' || b == b'-' {
            buf.push(char::from(b.to_ascii_lowercase()));
        }
    }
    if !buf.is_empty() {
        visit(buf);
    }
}

/// [`for_each_token`]'s rule over chars: the path for non-ASCII input.
fn for_each_token_chars(s: &str, buf: &mut String, mut visit: impl FnMut(&str)) {
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
    if !s.is_ascii() {
        return for_each_qgram_chars(s, q, buf, visit);
    }
    let pad = q - 1;
    buf.clear();
    buf.extend(std::iter::repeat_n('#', pad));
    buf.push_str(s);
    buf.make_ascii_lowercase();
    buf.extend(std::iter::repeat_n('#', pad));
    // One byte per char: window `k` is bytes `k..k + q`, and a non-empty
    // `s` pads to at least `2q - 1 >= q` bytes.
    for start in 0..=buf.len() - q {
        visit(&buf[start..start + q]);
    }
}

/// [`for_each_qgram`]'s rule over chars: the path for non-ASCII input.
fn for_each_qgram_chars(s: &str, q: usize, buf: &mut String, mut visit: impl FnMut(&str)) {
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Tokens and `q`-grams of `s` as the public visitors yield them.
    fn dispatched(s: &str, q: usize) -> (Vec<String>, Vec<String>) {
        let (mut tokens, mut grams) = (Vec::new(), Vec::new());
        for_each_token(s, &mut String::new(), |t| tokens.push(t.to_owned()));
        for_each_qgram(s, q, &mut String::new(), |g| grams.push(g.to_owned()));
        (tokens, grams)
    }

    /// The same through the char paths, whatever the input.
    fn by_chars(s: &str, q: usize) -> (Vec<String>, Vec<String>) {
        let (mut tokens, mut grams) = (Vec::new(), Vec::new());
        for_each_token_chars(s, &mut String::new(), |t| tokens.push(t.to_owned()));
        if !s.is_empty() {
            for_each_qgram_chars(s, q, &mut String::new(), |g| grams.push(g.to_owned()));
        }
        (tokens, grams)
    }

    /// The distinct `q`-grams of `s` as the visitor yields them, sorted.
    fn qgrams(s: &str, q: usize) -> Vec<String> {
        let mut grams = Vec::new();
        for_each_qgram(s, q, &mut String::new(), |g| grams.push(g.to_owned()));
        grams.sort_unstable();
        grams.dedup();
        grams
    }

    fn assert_paths_agree(s: &str) {
        assert!(s.is_ascii(), "{s:?} would not take the byte path");
        for q in 1..=4 {
            assert_eq!(dispatched(s, q), by_chars(s, q), "{s:?} at q = {q}");
        }
    }

    #[test]
    fn ascii_byte_path_equals_char_path_on_every_byte() {
        for b in 0u8..0x80 {
            let c = char::from(b);
            for s in
                [c.to_string(), format!("deep{c}learning"), format!("a {c} b"), format!("{c}{c}")]
            {
                assert_paths_agree(&s);
            }
        }
        // \x0B splits words (as `char::is_whitespace` does); \x1C-\x1F do
        // not, and are stripped from the word instead.
        assert_eq!(tokens("entity\x0Bresolution"), ["entity", "resolution"]);
        assert_eq!(tokens("entity\x1Cresolution"), ["entityresolution"]);
    }

    /// ASCII text weighted towards the bytes where the two paths could
    /// part: every ASCII whitespace byte, the information separators
    /// `\x1C`-`\x1F` (Unicode whitespace to some libraries, not to Rust),
    /// the pad `#`, the kept `'` and `-`, digits and capitals.
    fn ascii_text() -> impl Strategy<Value = String> {
        let edge = prop::sample::select(vec![
            ' ', '\t', '\n', '\x0B', '\x0C', '\r', '\x1C', '\x1D', '\x1E', '\x1F', '#', '\'', '-',
        ]);
        let digit_or_capital = prop::sample::select(('0'..='9').chain('A'..='Z').collect());
        let any_ascii = (0u8..0x80).prop_map(char::from);
        prop::collection::vec(prop_oneof![edge, digit_or_capital, any_ascii], 0..40)
            .prop_map(|chars| chars.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ascii_byte_path_equals_char_path(s in ascii_text()) {
            assert_paths_agree(&s);
        }
    }

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
