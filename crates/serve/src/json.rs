//! A minimal JSON value, parser, and writers.
//!
//! The workspace builds without registry access, so the service
//! hand-rolls the subset of JSON it needs: UTF-8 text, objects with
//! string keys, arrays, strings with standard escapes, `i64`/`f64`
//! numbers, booleans and null. Parsing is recursive-descent with a
//! depth limit; writing always produces valid, minimally-escaped JSON.
//!
//! Two writers share one string escaper and one integer format:
//!
//! * [`Json::render`] renders a value tree (clients, tests, and the
//!   oracle the direct writer is tested against);
//! * [`object`] writes a response body straight into its `String`,
//!   members in ascending key order — the order a [`Json::Obj`]
//!   renders — so a body is byte-identical to the tree it replaces
//!   without allocating one.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by the parser (request bodies are
/// flat; anything deeper is hostile or broken).
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that parsed as an integer.
    Int(i64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps rendering deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Serializes into a caller-supplied buffer. Appends without
    /// clearing, so responses can assemble into a reused allocation
    /// (the event loop's per-connection outbox) instead of a fresh
    /// `String` per request.
    pub fn render_into(&self, out: &mut String) {
        write_json(out, self);
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_json(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(i) => write_int(out, *i),
        Json::Float(x) => {
            if x.is_finite() {
                out.push_str(&format!("{x}"));
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_json(out, item);
            }
            out.push('}');
        }
    }
}

fn write_int(out: &mut String, i: i64) {
    let _ = write!(out, "{i}");
}

/// The escape of each byte: 0 for none, `u` for `\u00XX`, else the
/// character after the backslash.
const ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

/// Writes `s` as a quoted JSON string. Every byte that needs an escape
/// is ASCII, so the text between two of them is copied as one slice;
/// the room reserved up front fits an escape in every eighth byte (a
/// certificate quotes about one in nine) without regrowing.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + s.len() / 8 + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = ESCAPE[usize::from(b)];
        if escape == 0 {
            continue;
        }
        out.push_str(&s[run..i]);
        out.push('\\');
        if escape == b'u' {
            out.push_str("u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 15)]));
        } else {
            out.push(char::from(escape));
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes one JSON object built by `build` and returns its text.
///
/// A response body goes straight to bytes this way, with no [`Json`]
/// tree in between. Members must be written in ascending key order
/// (byte order, as a `BTreeMap` sorts them); debug builds assert it.
pub fn object(build: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut out = String::new();
    ObjectWriter::write(&mut out, build);
    out
}

/// The members of one object under construction; see [`object`].
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    /// The last key written (`None` before the first member).
    last: Option<&'static str>,
}

impl<'a> ObjectWriter<'a> {
    fn write(out: &'a mut String, build: impl FnOnce(&mut ObjectWriter<'_>)) {
        out.push('{');
        let mut members = ObjectWriter { out, last: None };
        build(&mut members);
        members.out.push('}');
    }

    /// Starts the member `key` and returns the buffer its value goes to.
    fn key(&mut self, key: &'static str) -> &mut String {
        if let Some(last) = self.last {
            debug_assert!(last < key, "object keys must ascend: `{last}` then `{key}`");
            self.out.push(',');
        }
        self.last = Some(key);
        write_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &'static str, value: &str) -> &mut Self {
        write_escaped(self.key(key), value);
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &'static str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// An integer member.
    pub fn int(&mut self, key: &'static str, value: i64) -> &mut Self {
        write_int(self.key(key), value);
        self
    }

    /// A member whose value is `json`, one complete JSON value, spliced
    /// in verbatim.
    pub fn raw(&mut self, key: &'static str, json: &str) -> &mut Self {
        debug_assert!(
            rpr_format::scan_object(json, |_, _| ()).is_ok(),
            "not one JSON value: {json}"
        );
        self.key(key).push_str(json);
        self
    }

    /// An array-of-strings member.
    pub fn strs<S: AsRef<str>>(
        &mut self,
        key: &'static str,
        items: impl IntoIterator<Item = S>,
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(out, item.as_ref());
        }
        out.push(']');
        self
    }

    /// An array-of-objects member: `each` writes the members of the
    /// object for one item.
    pub fn objects<T>(
        &mut self,
        key: &'static str,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut ObjectWriter<'_>, T),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            ObjectWriter::write(out, |members| each(members, item));
        }
        out.push(']');
        self
    }
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

/// Parses a JSON document (exactly one value, trailing whitespace
/// allowed).
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            members.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).expect("valid utf8"));
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        // self.pos is at the `u`.
        let hex4 = |p: &Self, at: usize| -> Result<u32, JsonError> {
            let s = p
                .bytes
                .get(at..at + 4)
                .and_then(|b| std::str::from_utf8(b).ok())
                .ok_or_else(|| p.err("truncated \\u escape"))?;
            u32::from_str_radix(s, 16).map_err(|_| p.err("bad \\u escape"))
        };
        let hi = hex4(self, self.pos + 1)?;
        self.pos += 5;
        if (0xd800..0xdc00).contains(&hi) {
            // Surrogate pair: expect `\uXXXX` low half.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                let lo = hex4(self, self.pos + 2)?;
                self.pos += 6;
                if !(0xdc00..0xe000).contains(&lo) {
                    return Err(self.err("bad surrogate pair"));
                }
                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"));
            }
            return Err(self.err("lone surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_basics() {
        let v = parse_json(r#"{"a": [1, -2.5, "x\ny", true, null], "b": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_i64(), Some(1));
        let text = v.render();
        assert_eq!(parse_json(&text).unwrap(), v);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::str("quote\" slash\\ newline\n tab\t ctrl\u{1} unicode\u{20ac}");
        assert_eq!(parse_json(&v.render()).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(parse_json(r#""€""#).unwrap(), Json::str("\u{20ac}"));
        assert_eq!(parse_json(r#""😀""#).unwrap(), Json::str("\u{1f600}"));
        assert!(parse_json(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} x").is_err());
        assert!(parse_json(&("[".repeat(100) + &"]".repeat(100))).is_err());
    }

    #[test]
    fn the_writer_renders_what_the_tree_renders() {
        let direct = object(|o| {
            o.raw("a", r#"{"z":1,"b":[true,null]}"#)
                .bool("b", false)
                .int("c", -42)
                .objects("d", ["x", "y\"z"], |e, s| {
                    e.int("n", s.len() as i64).str("s", s);
                })
                .objects("e", Vec::<u8>::new(), |_, _| {})
                .str("f", "tab\there")
                .strs("g", ["", "\u{1}"])
                .strs("h", Vec::<String>::new());
        });
        let tree = Json::obj([
            ("a", parse_json(r#"{"b":[true,null],"z":1}"#).unwrap()),
            ("b", Json::Bool(false)),
            ("c", Json::Int(-42)),
            (
                "d",
                Json::Arr(vec![
                    Json::obj([("n", Json::Int(1)), ("s", Json::str("x"))]),
                    Json::obj([("n", Json::Int(3)), ("s", Json::str("y\"z"))]),
                ]),
            ),
            ("e", Json::Arr(vec![])),
            ("f", Json::str("tab\there")),
            ("g", Json::Arr(vec![Json::str(""), Json::str("\u{1}")])),
            ("h", Json::Arr(vec![])),
        ]);
        // `raw` splices its text as given; the tree re-sorts it.
        assert_eq!(direct.replace(r#"{"z":1,"b":[true,null]}"#, "R"), {
            tree.render().replace(r#"{"b":[true,null],"z":1}"#, "R")
        });
        assert_eq!(parse_json(&direct).unwrap(), tree);
        assert_eq!(object(|_| {}), "{}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys must ascend")]
    fn the_writer_rejects_keys_out_of_order() {
        object(|o| {
            o.str("status", "done").bool("cached", true);
        });
    }

    /// The escaper as it was written char by char: the reference for
    /// the run-copying one.
    fn escaped_by_char(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    proptest! {
        #[test]
        fn escaping_copies_runs_and_escapes_like_the_char_loop(
            codes in proptest::collection::vec(0u32..0x2_0000, 0..24),
        ) {
            // Mostly control and ASCII characters, some multi-byte ones.
            let text: String = codes
                .into_iter()
                .filter_map(|c| char::from_u32(if c % 4 == 0 { c } else { c % 0x80 }))
                .collect();
            let mut out = String::new();
            write_escaped(&mut out, &text);
            prop_assert_eq!(&out, &escaped_by_char(&text));
            prop_assert_eq!(parse_json(&out).unwrap(), Json::str(text));
        }
    }

    #[test]
    fn a_certificate_sized_string_escapes_like_the_char_loop() {
        let corpus = include_str!("../../audit/tests/corpus/certificates.jsonl");
        let cert = corpus.lines().max_by_key(|line| line.len()).unwrap();
        assert!(cert.len() > 20_000);
        let text = format!("{cert}\u{1}\t\\ é");
        let mut out = String::from("{\"certificate\":");
        write_escaped(&mut out, &text);
        assert_eq!(out[15..], escaped_by_char(&text));
        assert_eq!(parse_json(&out[15..]).unwrap(), Json::str(text));
    }

    #[test]
    fn numbers() {
        assert_eq!(parse_json("42").unwrap().as_i64(), Some(42));
        assert_eq!(parse_json("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse_json("2.0").unwrap().as_i64(), Some(2));
        assert_eq!(parse_json("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse_json("-1").unwrap().as_u64(), None);
    }
}
