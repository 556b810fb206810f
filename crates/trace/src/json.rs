//! A minimal JSON value model with a writer and a strict parser: the
//! workspace's one JSON implementation. Every artefact is written through
//! it (trace reports, the run ledger, the persisted model and LSH index,
//! the `bench_*` outputs, and the eval bins' tables and figures, whose
//! result types build a [`Json`] with `to_json`); `trace_report`,
//! `trace_diff` and the loaders read them back with [`parse`]. It supports
//! objects, arrays, strings, finite numbers (a non-finite one is written
//! as `null`), booleans and `null`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys are kept in a `BTreeMap`, so
/// serialisation is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; the report's integers are
    /// far below 2^53, where `f64` is exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The entries when this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The number when this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialise with 2-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialise on one line with no whitespace — the JSONL form used by
    /// the run ledger (`results/ledger.jsonl`, one record per line).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(map) if map.is_empty() => out.push_str("{}"),
            Json::Obj(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, indent + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

/// Build a [`Json::Obj`] from `(key, value)` pairs — the shared literal
/// constructor of every artefact-writing bin.
pub fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Write `doc` to `path` in pretty form, creating parent directories.
/// The shared artefact writer of the `bench_*`/eval bins: one code path
/// for `results/*.json` means one place that creates `results/`.
pub fn write_pretty(path: &str, doc: &Json) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc.to_pretty())
}

fn pad(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        // `{}` on f64 is the shortest representation that round-trips.
        let _ = write!(out, "{n}");
    } else {
        // JSON has no NaN/inf; the report never produces them, but never
        // emit invalid JSON regardless.
        out.push_str("null");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document. Rejects trailing garbage.
///
/// # Errors
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.contains_key(&key) {
                // A BTreeMap would silently keep one of the two values;
                // reports never emit duplicates, so seeing one means the
                // file is corrupt (or hand-edited) — fail loudly.
                return Err(format!("duplicate object key {key:?} at byte {key_at}"));
            }
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates never appear in our own output;
                            // map unpaired ones to U+FFFD rather than fail.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume the maximal run up to the next quote or
                    // escape in one slice. `"` and `\` are ASCII, so they
                    // never occur inside a multi-byte UTF-8 sequence and
                    // the run boundary is always a character boundary.
                    // (Validating per character would rescan the remaining
                    // input each time — quadratic on large artefacts.)
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8")?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_like_document() {
        let mut obj = BTreeMap::new();
        obj.insert("version".into(), Json::Num(1.0));
        obj.insert("task".into(), Json::Str("controlled \"x\"\n".into()));
        obj.insert(
            "spans".into(),
            Json::Arr(vec![Json::Obj(BTreeMap::from([
                ("name".into(), Json::Str("pipeline".into())),
                ("secs".into(), Json::Num(0.012345)),
                ("children".into(), Json::Arr(vec![])),
            ]))]),
        );
        obj.insert("empty".into(), Json::Obj(BTreeMap::new()));
        obj.insert("flag".into(), Json::Bool(true));
        obj.insert("nothing".into(), Json::Null);
        obj.insert("neg".into(), Json::Num(-2.5e-3));
        let doc = Json::Obj(obj);
        let text = doc.to_pretty();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\x\"", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_duplicate_object_keys() {
        let err = parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(err.contains("duplicate object key \"a\""), "{err}");
        // Nested objects are checked too.
        assert!(parse(r#"{"outer": {"x": 1, "x": 1}}"#).is_err());
    }

    #[test]
    fn compact_form_round_trips_and_has_no_whitespace() {
        let doc = Json::Obj(BTreeMap::from([
            ("bin".into(), Json::Str("bench_sel \"q\"".into())),
            ("secs".into(), Json::Num(1.25)),
            ("argv".into(), Json::Arr(vec![Json::Str("--smoke".into()), Json::Null])),
            ("empty".into(), Json::Obj(BTreeMap::new())),
        ]));
        let line = doc.to_compact();
        assert!(!line.contains('\n') && !line.contains(": "), "{line}");
        assert_eq!(parse(&line).unwrap(), doc);
    }

    #[test]
    fn parses_numbers_and_escapes() {
        let v = parse(r#"{"a": 1e3, "b": -0.5, "c": "x\u0041\ty"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_num(), Some(1000.0));
        assert_eq!(v.get("b").unwrap().as_num(), Some(-0.5));
        assert_eq!(v.get("c").unwrap().as_str(), Some("xA\ty"));
    }
}
