//! The workspace's one JSON module: the string and [`Value`] writers every
//! JSON-emitting crate uses, and the [`Json`] parser every JSON-reading
//! crate uses — for `trace.jsonl` ([`crate::report::parse_jsonl`]),
//! `profile.json` and `BENCH_*.json` (`ipcl-tracetool`), and the wire
//! format and proof cache of `ipcl-serve`.
//!
//! The workspace builds offline with no serialisation crate, so the parser
//! is a hand-rolled recursive descent over the full grammar. Integers stay
//! exact: integer text becomes [`Json::U64`] if it fits, else
//! [`Json::I64`], else [`Json::F64`] — the split [`Value`] makes — so event
//! fields round-trip through JSONL unchanged. Nesting is bounded
//! ([`Json::parse`]), so an untrusted request line cannot overflow the
//! parsing thread's stack.

use std::fmt::Write as _;

use crate::Value;

/// Containers a document may nest. The deepest document the workspace
/// writes is a `submit_batch` request, whose stall rules sit at level 8.
const MAX_DEPTH: usize = 64;

/// Escapes `s` into `out` as a JSON string literal (with quotes).
pub fn write_json_string(out: &mut String, s: &str) {
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

/// Writes `value` as a JSON scalar; a non-finite float becomes `null`.
pub fn write_json_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => {
            if v.is_finite() {
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
        }
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(v) => write_json_string(out, v),
    }
}

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits a `u64`.
    U64(u64),
    /// A negative integer that fits an `i64`.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as one JSON document (trailing whitespace allowed).
    /// A document nesting more than 64 arrays and objects is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member `key` of an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer: any `u64`, or a float with no
    /// fraction up to 2^53 (where floats stop being exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            Json::F64(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9.007_199_254_740_992e15 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    /// Consumes the opening bracket `c` of a container, one level deeper.
    fn open(&mut self, c: u8) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.expect(c)
    }

    /// Consumes the closing bracket `c` of a container, one level up.
    fn close(&mut self, c: u8) -> Result<(), String> {
        self.depth -= 1;
        self.expect(c)
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected literal '{lit}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.open(b'{')?;
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.close(b'}')?;
            return Ok(Json::Obj(members));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            if !members.iter().any(|(k, _)| *k == key) {
                members.push((key, value));
            }
            match self.peek() {
                Some(b',') => self.expect(b',')?,
                Some(b'}') => {
                    self.close(b'}')?;
                    return Ok(Json::Obj(members));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.open(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.close(b']')?;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.expect(b',')?,
                Some(b']') => {
                    self.close(b']')?;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash at once. Both
            // stop bytes are ASCII, and a run starts right after one or
            // after an escape's ASCII bytes, so it is whole UTF-8.
            let start = self.pos;
            let Some(run) = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err("unterminated string".to_owned());
            };
            out.push_str(&self.text[start..start + run]);
            self.pos = start + run + 1;
            if self.bytes[start + run] == b'"' {
                return Ok(out);
            }
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err("unterminated escape".to_owned());
            };
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
                        .ok_or("truncated \\u escape")?;
                    self.pos += 4;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                        16,
                    )
                    .map_err(|e| e.to_string())?;
                    out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                }
                other => return Err(format!("bad escape '\\{}'", other as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if text.is_empty() {
            return Err(format!("expected a value at byte {start}"));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(
            r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true, "e": null}, "f": []}"#,
        )
        .unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[0].as_u64(),
            Some(1)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\ny")
        );
        assert_eq!(
            doc.get("b").unwrap().get("d").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(doc.get("b").unwrap().get("e"), Some(&Json::Null));
        assert_eq!(doc.get("f").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn integers_stay_exact_and_as_u64_accepts_integral_floats() {
        let doc = Json::parse("[18446744073709551615, -3, -0, 1.0, 1e3, 2.5, -1, 1e300]").unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(items[0], Json::U64(u64::MAX));
        assert_eq!(items[1], Json::I64(-3));
        let as_u64: Vec<Option<u64>> = items.iter().map(Json::as_u64).collect();
        assert_eq!(
            as_u64,
            [
                Some(u64::MAX),
                None,
                Some(0),
                Some(1),
                Some(1000),
                None,
                None,
                None
            ]
        );
        assert_eq!(items[1].as_f64(), Some(-3.0));
        // Past i64's range, integer text falls back to a float.
        assert_eq!(
            Json::parse("-9223372036854775809").unwrap(),
            Json::F64(-9_223_372_036_854_775_809.0)
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&past).unwrap_err().contains("nesting deeper"));
        let objects = format!(
            "{}1{}",
            "{\"a\": ".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects)
            .unwrap_err()
            .contains("nesting deeper"));
        // An unclosed flood is an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn strings_copy_multibyte_runs_next_to_escapes() {
        let cases = [
            // 2-, 3- and 4-byte characters, alone and in runs.
            (r#""é""#, "é"),
            (r#""€中😀𝄞""#, "€中😀𝄞"),
            // Runs that end at an escape, and escapes between runs.
            (r#""aé\n€\"中\\😀\/x""#, "aé\n€\"中\\😀/x"),
            (r#""\b\f\r\té""#, "\u{8}\u{c}\r\té"),
            (r#""😀\t""#, "😀\t"),
            // \u escapes next to raw multi-byte runs.
            (r#""\u00e9é\u20ac€😀\u0041""#, "éé€€😀A"),
            (r#""\u00E9é""#, "éé"),
            (r#""\u20AC""#, "€"),
            (r#""""#, ""),
        ];
        for (text, expected) in cases {
            assert_eq!(
                Json::parse(text),
                Ok(Json::Str(expected.to_owned())),
                "{text}"
            );
        }
        let doc = Json::parse(r#"{"ключ": ["値", "xéy"]}"#).unwrap();
        let items = doc.get("ключ").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("値"));
        assert_eq!(items[1].as_str(), Some("xéy"));
    }

    #[test]
    fn string_errors_keep_their_texts() {
        let err = |text: &str| Json::parse(text).unwrap_err();
        assert_eq!(err(r#""abc"#), "unterminated string");
        assert_eq!(err(r#""é€😀"#), "unterminated string");
        assert_eq!(err(r#""a\n"#), "unterminated string");
        assert_eq!(err(r#""abc\"#), "unterminated escape");
        assert_eq!(err(r#""é\"#), "unterminated escape");
        assert_eq!(err(r#""\u12"#), "truncated \\u escape");
        assert_eq!(err(r#""€\u0"#), "truncated \\u escape");
        assert_eq!(err(r#""\q""#), "bad escape '\\q'");
        assert_eq!(err(r#""😀\x""#), "bad escape '\\x'");
        assert_eq!(err(r#""\ud83d""#), "invalid \\u escape");
    }

    /// The string scanner before runs were copied at once: one code point
    /// per step. The parity test holds the scanner to it.
    fn per_code_point_string(bytes: &[u8], mut pos: usize) -> (Result<String, String>, usize) {
        let mut out = String::new();
        loop {
            let Some(&b) = bytes.get(pos) else {
                return (Err("unterminated string".to_owned()), pos);
            };
            pos += 1;
            match b {
                b'"' => return (Ok(out), pos),
                b'\\' => {
                    let Some(&esc) = bytes.get(pos) else {
                        return (Err("unterminated escape".to_owned()), pos);
                    };
                    pos += 1;
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
                            let Some(hex) = bytes.get(pos..pos + 4) else {
                                return (Err("truncated \\u escape".to_owned()), pos);
                            };
                            pos += 4;
                            let code = std::str::from_utf8(hex)
                                .map_err(|e| e.to_string())
                                .and_then(|hex| {
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
                                })
                                .and_then(|code| {
                                    char::from_u32(code).ok_or("invalid \\u escape".to_owned())
                                });
                            match code {
                                Ok(c) => out.push(c),
                                Err(e) => return (Err(e), pos),
                            }
                        }
                        other => {
                            return (Err(format!("bad escape '\\{}'", other as char)), pos);
                        }
                    }
                }
                b => {
                    let width = match b {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = &bytes[pos - 1..pos - 1 + width];
                    out.push_str(std::str::from_utf8(chunk).unwrap());
                    pos += width - 1;
                }
            }
        }
    }

    #[test]
    fn the_run_scanner_matches_the_per_code_point_scanner() {
        let pieces = [
            "a", "xyz", " ", "é", "ß", "€", "中", "😀", "𝄞", "\\n", "\\\"", "\\\\", "\\/", "\\t",
            "\\u00e9", "\\u20AC", "\\u0041", "\\ud83d", "\\u+0e9", "\\uzz12", "\\q", "\\é", "\"",
            "\\u12",
        ];
        let mut rng = StdRng::seed_from_u64(0x2545_f491);
        let mut compared = 0;
        for _ in 0..2_000 {
            let mut text = String::from("\"");
            for _ in 0..rng.random_range(0..8) {
                text.push_str(pieces[rng.random_range(0..pieces.len())]);
            }
            if rng.random_bool(0.5) {
                text.push('"');
            }
            // Every prefix that is a whole `str`, as a cut request line is.
            for end in (1..=text.len()).filter(|&end| text.is_char_boundary(end)) {
                let prefix = &text[..end];
                let mut parser = Parser {
                    text: prefix,
                    bytes: prefix.as_bytes(),
                    pos: 0,
                    depth: 0,
                };
                let scanned = parser.string();
                let reference = per_code_point_string(prefix.as_bytes(), 1);
                assert_eq!(scanned, reference.0, "{prefix:?}");
                if scanned.is_ok() {
                    assert_eq!(parser.pos, reference.1, "{prefix:?}");
                }
                compared += 1;
            }
        }
        assert!(compared > 10_000, "{compared}");
    }

    #[test]
    fn round_trips_the_trace_crates_profile_output() {
        // The exact shape `crate::report::profile_json` emits.
        let text = "{\n  \"wall_us\": 123,\n  \"root_span_us\": 100,\n  \"dropped_events\": 0,\n  \
                    \"spans\": [\n    {\"path\": [\"solve\"], \"total_us\": 100, \"self_us\": 40, \
                    \"count\": 1}\n  ],\n  \"counters\": {\n    \"sat.conflicts\": 12\n  },\n  \
                    \"gauges\": {\n    \"depth\": 3.5\n  }\n}\n";
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.get("wall_us").unwrap().as_u64(), Some(123));
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("sat.conflicts")
                .unwrap()
                .as_u64(),
            Some(12)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("depth").unwrap().as_f64(),
            Some(3.5)
        );
    }
}
