//! Minimal JSON model, writer and recursive-descent parser.
//!
//! The crate is dependency-free by design, so snapshot serialisation and
//! the round-trip validation used in tests and CI carry their own tiny
//! JSON implementation. Objects preserve insertion order; numbers are
//! `f64` (every telemetry value fits well within the 2^53 exact-integer
//! range).

use std::fmt::{self, Write};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value as a number, if it is one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value's members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Pretty-printed serialisation (two-space indent).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let _ = self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Serialises into `out` with no intermediate allocation: every piece
    /// goes straight to the writer, so `to_string` builds one `String` and
    /// `Display` writes into the caller's formatter.
    fn write<W: Write>(&self, out: &mut W, indent: Option<usize>, depth: usize) -> fmt::Result {
        match self {
            JsonValue::Null => out.write_str("null"),
            JsonValue::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    return out.write_str("[]");
                }
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, depth + 1)?;
                    item.write(out, indent, depth + 1)?;
                }
                newline_indent(out, indent, depth)?;
                out.write_char(']')
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    return out.write_str("{}");
                }
                out.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, depth + 1)?;
                    write_string(out, k)?;
                    out.write_str(if indent.is_some() { ": " } else { ":" })?;
                    v.write(out, indent, depth + 1)?;
                }
                newline_indent(out, indent, depth)?;
                out.write_char('}')
            }
        }
    }
}

/// Compact single-line serialisation (`value.to_string()`).
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None, 0)
    }
}

fn newline_indent<W: Write>(out: &mut W, indent: Option<usize>, depth: usize) -> fmt::Result {
    const SPACES: &str = "                                ";
    let Some(w) = indent else {
        return Ok(());
    };
    out.write_char('\n')?;
    let mut left = w * depth;
    while left > 0 {
        let n = left.min(SPACES.len());
        out.write_str(&SPACES[..n])?;
        left -= n;
    }
    Ok(())
}

pub(crate) fn write_number<W: Write>(out: &mut W, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional fallback.
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

/// Writes `s` quoted, copying each run of characters that need no escape
/// in one piece. Only ASCII bytes are ever escaped, so every cut lands on
/// a character boundary.
pub(crate) fn write_string<W: Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Parses a JSON document. Errors carry a byte offset and a short reason.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = (self.text.as_bytes())
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not paired here; telemetry
                            // names are ASCII, replacement is fine.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Everything up to the next quote or backslash is taken
                    // as it stands, one copy per run. `pos` only ever stops
                    // after ASCII, so it is a character boundary of `text`.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_compound_values() {
        let v = JsonValue::Object(vec![
            ("a".into(), JsonValue::Number(1.0)),
            (
                "b".into(),
                JsonValue::Array(vec![
                    JsonValue::Bool(true),
                    JsonValue::Null,
                    JsonValue::String("x \"y\"\nz".into()),
                ]),
            ),
            ("c".into(), JsonValue::Number(-2.5)),
        ]);
        for text in [v.to_string(), v.pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "via {text}");
        }
    }

    #[test]
    fn parses_nested_whitespace_and_exponents() {
        let v = parse(" { \"k\" : [ 1e3 , 2.5E-1, -0 ] } ").unwrap();
        let arr = v.get("k").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_number(), Some(1000.0));
        assert_eq!(arr[1].as_number(), Some(0.25));
        assert_eq!(arr[2].as_number(), Some(0.0));
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "\"abc", "12 34", "{1:2}"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn escapes_next_to_multibyte_characters() {
        let s = |text: &str| parse(text).map(|v| v.as_str().map(str::to_owned));
        // 2-, 3- and 4-byte characters on both sides of an escape.
        assert_eq!(s(r#""é\nü""#), Ok(Some("é\nü".into())));
        assert_eq!(s(r#""€\"→""#), Ok(Some("€\"→".into())));
        assert_eq!(s(r#""𝄞\\😀\u00e9𝄞""#), Ok(Some("𝄞\\😀é𝄞".into())));
        // An escape as the first and as the last character.
        assert_eq!(s(r#""\té""#), Ok(Some("\té".into())));
        assert_eq!(s(r#""é\t""#), Ok(Some("é\t".into())));
        assert_eq!(s(r#""\u20ac""#), Ok(Some("€".into())));
        // Errors keep their byte offsets: the end of input after a
        // multi-byte run, and the escape character itself.
        assert_eq!(
            s("\"aé€😀"),
            Err("json parse error at byte 11: unterminated string".into())
        );
        assert_eq!(
            s("\"é\\qé\""),
            Err("json parse error at byte 4: bad escape".into())
        );
        assert_eq!(
            s("\"é\\u12€\""),
            Err("json parse error at byte 4: bad \\u escape".into())
        );
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A complexity guard, not a benchmark: re-validating the rest of the
        // document per character needed 445 ms at 227 KB and would need
        // minutes here; one pass needs milliseconds.
        let body = "naïve €uro 😀 ".repeat(4 << 20 >> 4);
        assert!(body.len() >= 4 << 20);
        let doc = format!("{{\"k\": \"{body}\\n\"}}");
        let started = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = started.elapsed();
        assert_eq!(v.get("k").and_then(|k| k.as_str()), Some(&*(body + "\n")));
        assert!(took < std::time::Duration::from_secs(10), "took {took:?}");
    }

    /// The writer as it stood before it streamed into `fmt::Write`: one
    /// `format!` per number and one push per string character. Frozen as
    /// the byte-for-byte reference for the streaming writer; do not edit.
    mod frozen {
        use super::JsonValue;

        pub fn compact(v: &JsonValue) -> String {
            let mut out = String::new();
            write(v, &mut out, None, 0);
            out
        }

        pub fn pretty(v: &JsonValue) -> String {
            let mut out = String::new();
            write(v, &mut out, Some(2), 0);
            out.push('\n');
            out
        }

        fn write(v: &JsonValue, out: &mut String, indent: Option<usize>, depth: usize) {
            match v {
                JsonValue::Null => out.push_str("null"),
                JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                JsonValue::Number(n) => write_number(out, *n),
                JsonValue::String(s) => write_string(out, s),
                JsonValue::Array(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline_indent(out, indent, depth + 1);
                        write(item, out, indent, depth + 1);
                    }
                    newline_indent(out, indent, depth);
                    out.push(']');
                }
                JsonValue::Object(members) => {
                    if members.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push('{');
                    for (i, (k, v)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline_indent(out, indent, depth + 1);
                        write_string(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        write(v, out, indent, depth + 1);
                    }
                    newline_indent(out, indent, depth);
                    out.push('}');
                }
            }
        }

        fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
            if let Some(w) = indent {
                out.push('\n');
                for _ in 0..w * depth {
                    out.push(' ');
                }
            }
        }

        fn write_number(out: &mut String, n: f64) {
            if !n.is_finite() {
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }

        fn write_string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    /// Random `JsonValue` trees whose leaves hit every writer branch:
    /// integers and fractions, ±0, both sides of the 9.0e15 integer cut,
    /// NaN and ±inf; strings mixing every control character, `"`, `\\`,
    /// DEL and 2-, 3- and 4-byte characters next to each other.
    struct Trees;

    impl Trees {
        const NUMBERS: [f64; 16] = [
            0.0,
            -0.0,
            1.0,
            -42.0,
            0.5,
            -2.25,
            1e-7,
            123456.789,
            8.999_999_999_999_998e15,
            9.0e15,
            -9.0e15,
            9.000_000_000_000_002e15,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        const PIECES: [&'static str; 9] = ["a", "key", "\"", "\\", "\u{7f}", "é", "€", "😀", " "];

        fn number(rng: &mut TestRng) -> f64 {
            match rng.below(3) {
                0 => Trees::NUMBERS[rng.below(16) as usize],
                1 => rng.below(1 << 40) as f64 - (1u64 << 39) as f64,
                _ => (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20),
            }
        }

        fn string(rng: &mut TestRng) -> String {
            (0..rng.below(12))
                .map(|_| match rng.below(3) {
                    0 => char::from_u32(rng.below(0x20) as u32).unwrap().to_string(),
                    _ => Trees::PIECES[rng.below(9) as usize].to_string(),
                })
                .collect()
        }

        fn value(rng: &mut TestRng, depth: u32) -> JsonValue {
            let kinds = if depth == 0 { 4 } else { 6 };
            match rng.below(kinds) {
                0 => JsonValue::Null,
                1 => JsonValue::Bool(rng.below(2) == 1),
                2 => JsonValue::Number(Trees::number(rng)),
                3 => JsonValue::String(Trees::string(rng)),
                4 => JsonValue::Array(
                    (0..rng.below(5))
                        .map(|_| Trees::value(rng, depth - 1))
                        .collect(),
                ),
                _ => JsonValue::Object(
                    (0..rng.below(5))
                        .map(|_| (Trees::string(rng), Trees::value(rng, depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    impl Strategy for Trees {
        type Value = JsonValue;
        fn sample(&self, rng: &mut TestRng) -> JsonValue {
            Trees::value(rng, 4)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn streaming_writer_matches_the_frozen_writer(v in Trees) {
            prop_assert_eq!(v.to_string(), frozen::compact(&v));
            prop_assert_eq!(format!("{v}"), frozen::compact(&v));
            prop_assert_eq!(v.pretty(), frozen::pretty(&v));
        }
    }

    #[test]
    fn every_control_character_and_deep_indent_match_the_frozen_writer() {
        let all: String = (0u8..0x80).map(char::from).chain("é€😀".chars()).collect();
        let v = JsonValue::Object(vec![(all.clone(), JsonValue::String(all))]);
        assert_eq!(v.to_string(), frozen::compact(&v));
        assert_eq!(v.pretty(), frozen::pretty(&v));
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        // Indents wider than one chunk of spaces (depth 40 = 80 columns).
        let deep = (0..40).fold(JsonValue::Number(1.5), |inner, _| {
            JsonValue::Array(vec![JsonValue::Null, inner])
        });
        assert_eq!(deep.pretty(), frozen::pretty(&deep));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(JsonValue::Number(42.0).to_string(), "42");
        assert_eq!(JsonValue::Number(0.5).to_string(), "0.5");
    }
}
