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
//!
//! [`Json::parse_deferring`] is the same parser with some members left
//! unbuilt: it validates the values at the paths it is given by the same
//! code, without allocating, and leaves each as [`Json::Deferred`], the
//! byte range of its text. It accepts exactly what [`Json::parse`] accepts,
//! with the same errors. `ipcl-serve` defers a job's spec and netlist this
//! way, so a design it has seen before is looked up by its text instead of
//! being built again.

use std::fmt::Write as _;
use std::ops::Range;

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
    /// A value [`Json::parse_deferring`] validated but did not build: the
    /// byte range of its text in the parsed document. [`Json::parse`] never
    /// makes one.
    Deferred(Range<usize>),
}

/// One step of a path from a document's root to a value: the member of an
/// object under a key, or any element of an array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// The member under this key.
    Key(&'static str),
    /// Every element.
    Each,
}

impl Json {
    /// Parses `text` as one JSON document (trailing whitespace allowed).
    /// A document nesting more than 64 arrays and objects is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        Json::parse_deferring(text, &[])
    }

    /// Parses `text` as [`Json::parse`] does, except that each value whose
    /// path from the root is one of `deferred` is validated without being
    /// built, and stands in the tree as [`Json::Deferred`] with the byte
    /// range of its text. The validation is the building parser's own code,
    /// so a document is accepted exactly when [`Json::parse`] accepts it,
    /// with the same error, nesting counts from the document's root, and a
    /// duplicate key's value is dropped as it is in [`Json::Obj`], so the
    /// first of two deferred members is the one deferred. Parsing a
    /// deferred value's text gives the subtree [`Json::parse`] builds.
    ///
    /// # Panics
    ///
    /// With more than 64 paths.
    pub fn parse_deferring(text: &str, deferred: &[&[Step]]) -> Result<Json, String> {
        assert!(deferred.len() <= 64, "at most 64 deferred paths");
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            deferred,
        };
        let value = p.member(if deferred.is_empty() { 0 } else { u64::MAX })?;
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
    /// The paths of the values to defer.
    deferred: &'a [&'a [Step]],
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

    /// Builds the value at `pos`, or defers it when one of the deferred
    /// paths flagged in `live` ends here. Bit `i` of `live` is set when the
    /// value's path starts with the first [`Parser::depth`] steps of
    /// deferred path `i`.
    fn member(&mut self, live: u64) -> Result<Json, String> {
        let ends_here =
            |(i, path): (usize, &&[Step])| live >> i & 1 == 1 && path.len() == self.depth;
        if live == 0 || !self.deferred.iter().enumerate().any(ends_here) {
            return self.value::<true>(live);
        }
        self.skip_ws();
        let start = self.pos;
        self.value::<false>(0)?;
        Ok(Json::Deferred(start..self.pos))
    }

    /// The deferred paths flagged in `live` that go on to the member `key`
    /// (`None`: an element) of the container just opened.
    fn child(&self, live: u64, key: Option<&str>) -> u64 {
        if live == 0 {
            return 0;
        }
        let step = self.depth - 1;
        let mut next = 0;
        for (i, path) in self.deferred.iter().enumerate() {
            let matches = match (path.get(step), key) {
                (Some(Step::Key(want)), Some(key)) => *want == key,
                (Some(Step::Each), None) => true,
                _ => false,
            };
            if live >> i & 1 == 1 && matches {
                next |= 1 << i;
            }
        }
        next
    }

    /// Parses the value at `pos`. With `BUILD` off it runs the same code
    /// without allocating, only to validate, and answers [`Json::Null`];
    /// with it on, `live` is as in [`Parser::member`].
    fn value<const BUILD: bool>(&mut self, live: u64) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object::<BUILD>(live),
            Some(b'[') => self.array::<BUILD>(live),
            Some(b'"') => Ok(Json::Str(self.string::<BUILD>()?)),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn object<const BUILD: bool>(&mut self, live: u64) -> Result<Json, String> {
        self.open(b'{')?;
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.close(b'}')?;
            return Ok(Json::Obj(members));
        }
        loop {
            let key = self.string::<BUILD>()?;
            self.expect(b':')?;
            // A duplicate key's value is validated and dropped.
            if BUILD && !members.iter().any(|(k, _)| *k == key) {
                let value = self.member(self.child(live, Some(&key)))?;
                members.push((key, value));
            } else {
                self.value::<false>(0)?;
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

    fn array<const BUILD: bool>(&mut self, live: u64) -> Result<Json, String> {
        self.open(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.close(b']')?;
            return Ok(Json::Arr(items));
        }
        loop {
            if BUILD {
                items.push(self.member(self.child(live, None))?);
            } else {
                self.value::<false>(0)?;
            }
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

    /// Scans a string; the text is built only with `BUILD` on.
    fn string<const BUILD: bool>(&mut self) -> Result<String, String> {
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
            if BUILD {
                out.push_str(&self.text[start..start + run]);
            }
            self.pos = start + run + 1;
            if self.bytes[start + run] == b'"' {
                return Ok(out);
            }
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err("unterminated escape".to_owned());
            };
            self.pos += 1;
            let c = match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
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
                    char::from_u32(code).ok_or("invalid \\u escape")?
                }
                other => return Err(format!("bad escape '\\{}'", other as char)),
            };
            if BUILD {
                out.push(c);
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

    /// The string documents the scanner tests cut: seeded runs of pieces
    /// (plain and multi-byte text, good and bad escapes), closed or not.
    fn string_documents() -> Vec<String> {
        let pieces = [
            "a", "xyz", " ", "é", "ß", "€", "中", "😀", "𝄞", "\\n", "\\\"", "\\\\", "\\/", "\\t",
            "\\u00e9", "\\u20AC", "\\u0041", "\\ud83d", "\\u+0e9", "\\uzz12", "\\q", "\\é", "\"",
            "\\u12",
        ];
        let mut rng = StdRng::seed_from_u64(0x2545_f491);
        (0..2_000)
            .map(|_| {
                let mut text = String::from("\"");
                for _ in 0..rng.random_range(0..8) {
                    text.push_str(pieces[rng.random_range(0..pieces.len())]);
                }
                if rng.random_bool(0.5) {
                    text.push('"');
                }
                text
            })
            .collect()
    }

    /// Every prefix of `text` that is a whole `str`, as a cut request line
    /// is.
    fn prefixes(text: &str) -> impl Iterator<Item = &str> {
        (1..=text.len())
            .filter(|&end| text.is_char_boundary(end))
            .map(|end| &text[..end])
    }

    #[test]
    fn the_run_scanner_matches_the_per_code_point_scanner() {
        let mut compared = 0;
        for text in string_documents() {
            for prefix in prefixes(&text) {
                let parser = || Parser {
                    text: prefix,
                    bytes: prefix.as_bytes(),
                    pos: 0,
                    depth: 0,
                    deferred: &[],
                };
                let (mut built, mut validated) = (parser(), parser());
                let scanned = built.string::<true>();
                let reference = per_code_point_string(prefix.as_bytes(), 1);
                assert_eq!(scanned, reference.0, "{prefix:?}");
                if scanned.is_ok() {
                    assert_eq!(built.pos, reference.1, "{prefix:?}");
                }
                // The validate-only scan stops and fails alike.
                let checked = validated.string::<false>();
                assert_eq!(checked.map(|_| validated.pos), scanned.map(|_| built.pos));
                compared += 1;
            }
        }
        assert!(compared > 10_000, "{compared}");
    }

    /// The deferred paths of a `submit` or `submit_batch` request.
    const DESIGN_MEMBERS: &[&[Step]] = &[
        &[Step::Key("job"), Step::Key("spec")],
        &[Step::Key("job"), Step::Key("netlist")],
        &[Step::Key("jobs"), Step::Each, Step::Key("spec")],
        &[Step::Key("jobs"), Step::Each, Step::Key("netlist")],
    ];

    /// `tree` with each deferred value replaced by the parse of its text.
    fn undefer(tree: Json, text: &str) -> Json {
        match tree {
            Json::Deferred(range) => {
                Json::parse(&text[range]).expect("a deferred value's text parses")
            }
            Json::Arr(items) => Json::Arr(items.into_iter().map(|v| undefer(v, text)).collect()),
            Json::Obj(members) => Json::Obj(
                members
                    .into_iter()
                    .map(|(k, v)| (k, undefer(v, text)))
                    .collect(),
            ),
            other => other,
        }
    }

    fn count_deferred(tree: &Json) -> usize {
        match tree {
            Json::Deferred(_) => 1,
            Json::Arr(items) => items.iter().map(count_deferred).sum(),
            Json::Obj(members) => members.iter().map(|(_, v)| count_deferred(v)).sum(),
            _ => 0,
        }
    }

    /// Asserts that deferring `deferred` in `text` accepts exactly when
    /// [`Json::parse`] does, with its error, and that each deferred span
    /// re-parses to the subtree `Json::parse` built. Answers how many values
    /// were deferred.
    fn defers_like_parse(text: &str, deferred: &[&[Step]]) -> usize {
        match (Json::parse(text), Json::parse_deferring(text, deferred)) {
            (Ok(built), Ok(tree)) => {
                let count = count_deferred(&tree);
                assert_eq!(undefer(tree, text), built, "{text:?}");
                count
            }
            (Err(built), Err(deferring)) => {
                assert_eq!(deferring, built, "{text:?}");
                0
            }
            (built, deferring) => panic!("{text:?}: {built:?} but {deferring:?}"),
        }
    }

    #[test]
    fn deferring_accepts_and_fails_exactly_like_parse() {
        let documents = string_documents();
        let mut deferred = 0;
        for text in &documents {
            for prefix in prefixes(text) {
                // The document itself deferred, and placed in a member.
                deferred += defers_like_parse(prefix, &[&[]]);
                let request = format!("{{\"job\": {{\"spec\": {prefix}, \"netlist\": 1}}}}");
                deferred += defers_like_parse(&request, DESIGN_MEMBERS);
            }
        }
        // Whole requests cut at every byte: deferred members of `job` and
        // of each `jobs` element, and lookalikes that are not deferred (a
        // `spec` inside `property`, a `jobs` object).
        for text in documents.iter().take(60) {
            let request = format!(
                "{{\"cmd\": \"submit\", \"job\": {{\"spec\": {{\"stages\": [{text}, -1.5e3]}}, \
                 \"netlist\": [{text}, true, null], \"property\": {{\"spec\": {text}}}}}, \
                 \"jobs\": [{{\"netlist\": {text}, \"spec\": [{text}]}}, {text}], \
                 \"more\": {{\"jobs\": {{\"spec\": 1}}}}}}"
            );
            for prefix in prefixes(&request) {
                deferred += defers_like_parse(prefix, DESIGN_MEMBERS);
            }
        }
        assert!(deferred > 1_000, "{deferred}");
    }

    #[test]
    fn deferred_nesting_counts_from_the_root() {
        for levels in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
            // The root and `job` are two levels; the spec holds the rest.
            let inner = levels - 2;
            let text = format!(
                "{{\"job\": {{\"spec\": {}{}}}}}",
                "[".repeat(inner),
                "]".repeat(inner)
            );
            let expected = usize::from(levels <= MAX_DEPTH);
            assert_eq!(
                defers_like_parse(&text, DESIGN_MEMBERS),
                expected,
                "{levels}"
            );
            // In a batch the root, `jobs` and its element are three.
            let inner = levels - 3;
            let text = format!(
                "{{\"jobs\": [{{\"netlist\": {}{}}}]}}",
                "{\"a\": ".repeat(inner),
                "}".repeat(inner).replacen('}', "1}", 1)
            );
            assert_eq!(
                defers_like_parse(&text, DESIGN_MEMBERS),
                expected,
                "{levels}"
            );
        }
        let past = format!("{{\"job\": {{\"spec\": {}}}}}", "[".repeat(MAX_DEPTH));
        let error = Json::parse_deferring(&past, DESIGN_MEMBERS).unwrap_err();
        assert!(error.contains("nesting deeper"), "{error}");
    }

    #[test]
    fn a_duplicate_deferred_key_defers_the_first() {
        let text = r#"{"job": {"spec": [1], "netlist": 2, "spec": {"a": 3}},
                       "job": {"spec": 4, "netlist": 5}}"#;
        assert_eq!(defers_like_parse(text, DESIGN_MEMBERS), 2);
        let tree = Json::parse_deferring(text, DESIGN_MEMBERS).unwrap();
        let Some(Json::Deferred(spec)) = tree.get("job").and_then(|job| job.get("spec")) else {
            panic!("job.spec is deferred: {tree:?}");
        };
        assert_eq!(&text[spec.clone()], "[1]");
        // A bad duplicate fails the document as it fails `Json::parse`.
        let bad = r#"{"job": {"spec": 1, "spec": [1,]}}"#;
        assert_eq!(defers_like_parse(bad, DESIGN_MEMBERS), 0);
        assert!(Json::parse_deferring(bad, DESIGN_MEMBERS).is_err());
    }

    #[test]
    fn only_the_named_paths_are_deferred() {
        let text = r#"{"spec": 1, "job": {"property": {"spec": 2}, "jobs": [{"spec": 3}]},
                       "jobs": {"spec": 4}, "netlist": [5]}"#;
        assert_eq!(defers_like_parse(text, DESIGN_MEMBERS), 0);
        let batch = r#"{"jobs": [{"spec": 1}, [{"spec": 2}], {"netlist": 3, "x": {"spec": 4}}]}"#;
        assert_eq!(defers_like_parse(batch, DESIGN_MEMBERS), 2);
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
