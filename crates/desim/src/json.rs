//! Minimal JSON document model, writer, and parser.
//!
//! The harness serialises [`crate::record::RunRecord`]s to disk and the
//! golden-record regression test reads them back; with no external
//! crates available the (small) JSON subset we need lives here. Object
//! member order is preserved so written records diff cleanly.
//!
//! Non-finite numbers (which JSON cannot represent) are written as
//! `null`; the parser maps `null` back to [`Json::Null`].
//!
//! The parser reads its input once, left to right, so parse time is
//! linear in the document. Specs and resumed documents come from
//! outside the program: nesting is bounded ([`MAX_DEPTH`]), a number
//! that overflows `f64` is an error, and every failure is a
//! [`JsonError`] with a byte offset, never a panic.

use std::fmt;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) a member; builder-style.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Insert (or replace) a member. Panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(members) = self else {
            panic!("Json::set on a non-object")
        };
        let value = value.into();
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => members.push((key.to_string(), value)),
        }
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer value, if this is a number that is exactly integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(members) => write_seq(out, indent, '{', '}', members.len(), |out, i, ind| {
                write_string(out, &members[i].0);
                out.push_str(": ");
                members[i].1.write(out, ind);
            }),
        }
    }

    /// Parse a JSON document (must consume the full input). Containers
    /// may nest [`MAX_DEPTH`] deep; numbers must be finite.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

/// Deepest container nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the bound is what keeps a hostile
/// `[[[[…` from overflowing the stack; our deepest document is < 12.
pub const MAX_DEPTH: usize = 128;

fn write_number(out: &mut String, x: f64) {
    use fmt::Write;
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        write!(out, "{}", x as i64).unwrap();
    } else {
        // 17 significant digits round-trips every f64.
        let s = format!("{x:.17e}");
        let parsed: f64 = s.parse().unwrap();
        debug_assert_eq!(parsed, x);
        write!(out, "{s}").unwrap();
    }
}

fn write_string(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', 2 * d));
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * d));
    }
    out.push(close);
}

/// Compact (single-line) serialisation.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// Parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parse one container, refusing to recurse past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = container(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next delimiter in one piece. Both
            // delimiters are ASCII, so the run ends on a char boundary
            // of the (already valid) input text.
            let rest = &self.text[self.pos..];
            let Some(run) = rest.bytes().position(|b| b == b'"' || b == b'\\') else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => out.push(self.unicode_escape()?),
                _ => return Err(self.err("bad escape")),
            }
            self.pos += 1;
        }
    }

    /// The four hex digits after the `u` at `at`.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        self.text
            .get(at + 1..at + 5)
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))
    }

    /// Decode the escape whose `u` is at `pos`, leaving `pos` on its
    /// last digit. A high surrogate must be followed by an escaped low
    /// one (JSON's spelling of a character beyond U+FFFF); any other
    /// surrogate is not a character.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut code = self.hex4(self.pos)?;
        if (0xD800..0xDC00).contains(&code)
            && self.text.as_bytes().get(self.pos + 5..self.pos + 7) == Some(b"\\u")
        {
            let low = self.hex4(self.pos + 6)?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                self.pos += 6;
            }
        }
        let c = char::from_u32(code).ok_or_else(|| self.err("bad \\u code point"))?;
        self.pos += 4;
        Ok(c)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse::<f64>() {
            // `1e999` parses to infinity, which would be written back
            // as `null`.
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("bad number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let doc = Json::obj()
            .with("version", 1u64)
            .with("label", "ffbp spmd")
            .with("ok", true)
            .with("none", Json::Null)
            .with("time_ms", 12.345678901234567)
            .with(
                "phases",
                Json::Arr(vec![
                    Json::obj().with("name", "merge").with("index", 0u64),
                    Json::obj().with("name", "merge").with("index", 1u64),
                ]),
            );
        for text in [doc.to_string(), doc.to_string_pretty()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, doc, "failed on {text}");
        }
    }

    #[test]
    fn numbers_roundtrip_exactly() {
        for x in [
            0.0,
            -1.5,
            1e-300,
            123_456_789.123_456_78,
            f64::MIN_POSITIVE,
            2.0_f64.powi(60),
        ] {
            let text = Json::Num(x).to_string();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_f64().unwrap(), x, "{text}");
        }
        // Counters are u64 but stay below 2^53 in practice.
        let text = Json::from(9_007_199_254_740_992u64 - 1).to_string();
        assert_eq!(
            Json::parse(&text).unwrap().as_u64().unwrap(),
            9_007_199_254_740_991
        );
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nbreak \"quoted\" back\\slash \t tab £ λ";
        let text = Json::from(s).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), s);
        assert_eq!(Json::parse(r#""λ""#).unwrap().as_str().unwrap(), "λ");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::from(f64::NAN), Json::Null);
        assert_eq!(Json::from(f64::INFINITY), Json::Null);
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("01x").is_err());
        assert!(Json::parse("{} extra").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("nesting too deep", MAX_DEPTH)
        );
        // Far past any stack: an error, not an abort. Siblings do not
        // count, only open containers do.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&r#"{"a":["#.repeat(100_000)).is_err());
        assert!(Json::parse(&format!("[{}[]]", "[[]],".repeat(1000))).is_ok());
    }

    #[test]
    fn numbers_must_be_finite() {
        for text in ["1e999", "-1e999", "[1, 1e400]"] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.message, "number out of range", "{text}");
        }
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
        assert_eq!(
            Json::parse("1.7976931348623157e308").unwrap().as_f64(),
            Some(f64::MAX)
        );
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        let parsed = |text: &str| Json::parse(text).map(|j| j.as_str().unwrap().to_string());
        assert_eq!(parsed(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
        assert_eq!(
            parsed(r#""a\ud800\udc00b\uDBFF\uDFFF""#).unwrap(),
            "a\u{10000}b\u{10FFFF}"
        );
        assert_eq!(parsed(r#""\u00e9\u20ac""#).unwrap(), "é€");
        for lone in [
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\udc00""#,
            r#""\ud83dA""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00\ud83d""#,
        ] {
            let err = parsed(lone).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                ("bad \\u code point", 2),
                "{lone}"
            );
        }
        assert_eq!(
            parsed(r#""\ud83d\uzz00""#).unwrap_err().message,
            "bad \\u escape"
        );
        assert_eq!(parsed(r#""\u12"#).unwrap_err().message, "bad \\u escape");
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        let at = |text: &str| {
            let err = Json::parse(text).unwrap_err();
            (err.message, err.offset)
        };
        assert_eq!(at("\"abc"), ("unterminated string".to_string(), 4));
        assert_eq!(at("\"λ"), ("unterminated string".to_string(), 3));
        assert_eq!(at("\"ab\\"), ("bad escape".to_string(), 4));
        assert_eq!(at("\"ab\\x\""), ("bad escape".to_string(), 4));
        assert_eq!(at("[\"a\" \"b\"]"), ("expected ',' or ']'".to_string(), 5));
    }

    #[test]
    fn set_replaces_and_get_finds() {
        let mut o = Json::obj().with("a", 1u64);
        o.set("a", 2u64);
        o.set("b", "x");
        assert_eq!(o.get("a").unwrap().as_u64(), Some(2));
        assert_eq!(o.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(o.get("missing"), None);
        assert_eq!(o.as_object().unwrap().len(), 2);
    }
}
