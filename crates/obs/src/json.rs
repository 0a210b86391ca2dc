//! A minimal, self-contained JSON value: writer and parser.
//!
//! Every machine-readable artifact in the workspace — execution-stats
//! dumps, characterization reports, Chrome traces — goes through this
//! module, so downstream tooling can rely on one consistent encoder and
//! the test suite can round-trip every artifact without external crates.
//!
//! Objects preserve insertion order (they are association lists, not
//! hash maps), which keeps report files diffable across runs.
//!
//! # Example
//!
//! ```
//! use emx_obs::json::Value;
//!
//! let mut report = Value::object();
//! report.set("schema", "demo/1");
//! report.set("cycles", 1234u64);
//! let text = report.to_string();
//! let back = Value::parse(&text).unwrap();
//! assert_eq!(back.get("cycles").unwrap().as_f64(), Some(1234.0));
//! ```

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has only doubles).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn object() -> Value {
        Value::Obj(Vec::new())
    }

    /// An empty array.
    pub fn array() -> Value {
        Value::Arr(Vec::new())
    }

    /// Sets `key` on an object (replacing an existing entry).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        let Value::Obj(entries) = self else {
            panic!("Value::set on a non-object");
        };
        let value = value.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            entries.push((key.to_owned(), value));
        }
    }

    /// Appends to an array.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an array.
    pub fn push(&mut self, value: impl Into<Value>) {
        let Value::Arr(items) = self else {
            panic!("Value::push on a non-array");
        };
        items.push(value.into());
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, one past the range.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// [`ParseError`] with a byte offset on malformed input, including
    /// trailing garbage after the top-level value and arrays or objects
    /// nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 is the shortest representation that
                    // round-trips, and prints integers without a dot.
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Value::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}
impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}
impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Num(f64::from(n))
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Num(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

/// A JSON syntax error with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err_at(offset: usize, message: &str) -> ParseError {
    ParseError {
        offset,
        message: message.to_owned(),
    }
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so without a cap a few kilobytes of `[` would overflow the
/// stack of the thread parsing them; every `emx.*` document is under ten
/// levels deep.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The whole document. It is a `&str`, so every run of bytes between
    /// two ASCII delimiters is valid UTF-8 and can be copied as a slice.
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        err_at(self.pos, message)
    }

    fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses the array or object at `pos` one level deeper, refusing
    /// the level past [`MAX_DEPTH`] at its opening byte.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
            .map(Value::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next `"` or `\` as one slice: both
            // are ASCII, so the run ends on a character boundary.
            let run = self.bytes()[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .map_or(self.text.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..run]);
            self.pos = run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Decodes the `\u` escape whose `u` is at `self.pos`, joining a
    /// high surrogate with an immediately following `\u` low surrogate.
    /// A surrogate without its partner decodes to U+FFFD. Leaves `pos` on
    /// the escape's last hex digit.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let code = self.hex4(self.pos)?;
        self.pos += 4;
        if (0xd800..0xdc00).contains(&code) && self.bytes()[self.pos + 1..].starts_with(b"\\u") {
            let low = self.hex4(self.pos + 2)?;
            if (0xdc00..0xe000).contains(&low) {
                self.pos += 6;
                let joined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                return Ok(char::from_u32(joined).expect("a surrogate pair is a scalar value"));
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits after the `u` at byte `u`.
    fn hex4(&self, u: usize) -> Result<u32, ParseError> {
        let digits = self
            .bytes()
            .get(u + 1..u + 5)
            .ok_or_else(|| err_at(u, "truncated \\u escape"))?;
        digits.iter().try_fold(0, |code, &d| {
            char::from(d)
                .to_digit(16)
                .map(|d| code * 16 + d)
                .ok_or_else(|| err_at(u, "bad \\u escape"))
        })
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let mut doc = Value::object();
        doc.set("name", "emx \"quoted\" \\ path\nline");
        doc.set("pi", 3.25);
        doc.set("count", 42u64);
        doc.set("ok", true);
        doc.set("nothing", Value::Null);
        let mut arr = Value::array();
        arr.push(1u64);
        arr.push("two");
        doc.set("items", arr);

        let text = doc.to_string();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn parses_hand_written_json() {
        let v = Value::parse(r#" { "a": [1, 2.5, -3e2], "b": {"nested": null}, "s": "A\t" } "#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("A\t"));
        assert_eq!(v.get("b").unwrap().get("nested"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "\"\\u+041\"",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let v = Value::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
        let v = Value::parse(r#""a\uD83D\uDE00b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{1f600}b"));
    }

    #[test]
    fn lone_surrogates_decode_to_the_replacement_character() {
        for (text, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
            // A high surrogate followed by a non-low `\u` escape: the
            // second escape decodes on its own.
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}\u{1f600}"),
        ] {
            assert_eq!(Value::parse(text).unwrap().as_str(), Some(want), "{text}");
        }
    }

    #[test]
    fn a_pair_cut_short_is_a_typed_error() {
        for (text, offset) in [
            (r#""\ud83d\ude0"#, 8),
            (r#""\ud83d\u"#, 8),
            (r#""\ud83d\"#, 8),
            (r#""\ud83d"#, 7),
            (r#""\ud83d\udx00""#, 8),
        ] {
            let err = Value::parse(text).unwrap_err();
            assert_eq!(err.offset, offset, "{text}: {err}");
        }
    }

    #[test]
    fn nesting_past_the_cap_is_a_typed_error() {
        // Deep enough to overflow a 2 MiB stack without the cap.
        for open in ["[", "{\"k\":"] {
            let err = Value::parse(&open.repeat(100_000)).unwrap_err();
            assert_eq!(err.offset, MAX_DEPTH * open.len(), "{open}: {err}");
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert_eq!(Value::parse(&past_cap).unwrap_err().offset, MAX_DEPTH);
    }

    #[test]
    fn set_replaces_existing_keys() {
        let mut v = Value::object();
        v.set("k", 1u64);
        v.set("k", 2u64);
        assert_eq!(v.as_object().unwrap().len(), 1);
        assert_eq!(v.get("k").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(7.0).as_u64(), Some(7));
        assert_eq!(Value::Num(18_446_744_073_709_551_616.0).as_u64(), None);
        assert_eq!(Value::Num(1e300).as_u64(), None);
    }
}
