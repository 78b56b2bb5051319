//! A from-slice JSON scanner: shallow, zero-copy field extraction.
//!
//! The serving hot path receives JSON bodies of the shape
//! `{"workspace": "...", "timeout_ms": 100, "repairs": ["J"]}` and
//! needs a handful of top-level fields — building a full document tree
//! (maps, per-key `String`s, boxed values) per request is pure
//! allocation overhead. [`scan_object`] walks the document **once**,
//! in place over the input slice, handing each top-level field to a
//! callback as a [`SliceValue`]:
//!
//! * strings stay **escaped spans** ([`RawStr`]) borrowing the input —
//!   decoding ([`RawStr::cow`]) is deferred until a field is actually
//!   wanted, and borrows when the span contains no escapes;
//! * numbers/booleans are decoded in place;
//! * nested objects are validated and handed over as their span of the
//!   input ([`SliceValue::Obj`]), never materialized;
//! * arrays are scanned shallowly (their elements follow these same
//!   rules).
//!
//! Inside strings, plain bytes are skipped a machine word at a time:
//! a served body is mostly one long `workspace` string, so this scan is
//! most of what a byte-keyed cache hit pays (see `Scanner::skip_plain`).
//! Escapes and control bytes are still checked one byte at a time,
//! with the same offsets and messages.
//!
//! The scanner validates the entire document (including unused fields
//! and trailing input), and it is the only JSON grammar outside the
//! auditor: the serving layer's `Json` tree and the certificate tree
//! ([`crate::parse_certificate`]) are built from [`scan_value`], reading
//! each nested object by [`scan_object`] over its span.
//! [`parse_workspace_raw`] unescapes a scanned `workspace` field to a
//! `Cow` — at most one transient `String`, none when the span is
//! escape-free — and runs the text parser on it.

use crate::format::{parse_workspace, FormatError, Workspace};
use std::borrow::Cow;

/// Maximum nesting depth: the containers open at once. The `Json` and
/// certificate trees are built from this scanner, so it is their limit
/// too.
const MAX_DEPTH: u32 = 64;

/// A syntax error, with the byte offset it was detected at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceError {
    /// Byte offset into the scanned text.
    pub offset: usize,
    /// What was wrong.
    pub message: &'static str,
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SliceError {}

/// A JSON string as an **escaped span** of the input: the bytes between
/// the quotes, backslash sequences intact. Scanning validated the
/// escapes, so decoding cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawStr<'a> {
    raw: &'a str,
}

impl<'a> RawStr<'a> {
    /// Decodes the span. Borrows the input unchanged when it contains
    /// no escapes (the common case for short identifiers); allocates
    /// exactly one `String` otherwise. Escape-free stretches are copied
    /// whole, jumping from backslash to backslash.
    pub fn cow(&self) -> Cow<'a, str> {
        let raw = self.raw;
        let Some(mut at) = raw.find('\\') else {
            return Cow::Borrowed(raw);
        };
        let mut out = String::with_capacity(raw.len());
        out.push_str(&raw[..at]);
        // `at` is on a backslash; the scanner validated every escape.
        loop {
            let escape = raw.as_bytes().get(at + 1).copied();
            at += 2;
            match escape {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let mut code = hex4(raw, at);
                    at += 4;
                    // A high surrogate: the scanner checked that a
                    // `\u` low half follows.
                    if (0xD800..0xDC00).contains(&code) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (hex4(raw, at + 2) - 0xDC00);
                        at += 6;
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                // Unreachable: the scanner rejected unknown escapes.
                Some(other) => out.push(char::from(other)),
                None => break,
            }
            let rest = raw.get(at..).unwrap_or("");
            match rest.find('\\') {
                Some(run) => {
                    out.push_str(&rest[..run]);
                    at += run;
                }
                None => {
                    out.push_str(rest);
                    break;
                }
            }
        }
        Cow::Owned(out)
    }

    /// The span as it appears in the input, escapes intact. Two spans
    /// with equal escaped bytes decode to equal strings, so the serving
    /// cache can key on them without decoding.
    pub fn escaped(&self) -> &'a str {
        self.raw
    }

    /// Does the decoded string equal `s`? Escape-free spans compare
    /// without decoding.
    pub fn is(&self, s: &str) -> bool {
        if !self.raw.contains('\\') {
            return self.raw == s;
        }
        self.cow() == s
    }
}

/// The four hex digits at `raw[at..]` as a code unit.
fn hex4(raw: &str, at: usize) -> u32 {
    let digits = raw.as_bytes().get(at..at + 4).unwrap_or_default();
    digits.iter().fold(0, |code, &d| code * 16 + char::from(d).to_digit(16).unwrap_or(0))
}

/// A shallowly-scanned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum SliceValue<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string, as an undecoded span of the input.
    Str(RawStr<'a>),
    /// An array; elements are themselves shallow.
    Arr(Vec<SliceValue<'a>>),
    /// A nested object, validated but not materialized: its span of the
    /// input, `{` to `}`. [`scan_object`] reads its fields.
    Obj(&'a str),
}

impl<'a> SliceValue<'a> {
    /// The value as a non-negative integer, accepting integral floats
    /// (mirrors the tree parser's `as_u64` coercion so `1e3` and
    /// `1000` behave identically).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            SliceValue::Int(i) => u64::try_from(*i).ok(),
            SliceValue::Float(f) if f.fract() == 0.0 && f.is_finite() && *f >= 0.0 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The string span, if this is a string.
    pub fn as_raw_str(&self) -> Option<RawStr<'a>> {
        match self {
            SliceValue::Str(raw) => Some(*raw),
            _ => None,
        }
    }
}

/// Scans `text` as one JSON document. If the top level is an object,
/// every field is handed to `field` (duplicate keys: every occurrence
/// is reported, so last-wins falls out of overwriting) and the scan
/// returns `Ok(true)`; any other well-formed top level returns
/// `Ok(false)` with no callbacks. The whole document is validated
/// either way, trailing garbage included.
pub fn scan_object<'a>(
    text: &'a str,
    mut field: impl FnMut(RawStr<'a>, SliceValue<'a>),
) -> Result<bool, SliceError> {
    let mut s = Scanner { bytes: text.as_bytes(), text, pos: 0 };
    s.skip_ws();
    let is_object = s.peek() == Some(b'{');
    if is_object {
        s.object(1, Some(&mut field))?;
    } else {
        s.value(0)?;
    }
    s.end()?;
    Ok(is_object)
}

/// Scans `text` as one JSON document of any shape and returns its top
/// level shallowly, as [`scan_object`] hands over a field. The whole
/// document is validated, trailing garbage included.
pub fn scan_value(text: &str) -> Result<SliceValue<'_>, SliceError> {
    let mut s = Scanner { bytes: text.as_bytes(), text, pos: 0 };
    let value = s.value(0)?;
    s.end()?;
    Ok(value)
}

struct Scanner<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
}

type FieldSink<'s, 'a> = &'s mut dyn FnMut(RawStr<'a>, SliceValue<'a>);

impl<'a> Scanner<'a> {
    fn err(&self, message: &'static str) -> SliceError {
        SliceError { offset: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Only whitespace may follow the document.
    fn end(&mut self) -> Result<(), SliceError> {
        self.skip_ws();
        if self.pos < self.bytes.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    /// Opening a container at nesting `level` (1 = the top level).
    fn nest(&self, level: u32) -> Result<(), SliceError> {
        if level > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), SliceError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    /// Scans one value shallowly. `depth` counts the containers around
    /// it.
    fn value(&mut self, depth: u32) -> Result<SliceValue<'a>, SliceError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let start = self.pos;
                self.object(depth + 1, None)?;
                Ok(SliceValue::Obj(&self.text[start..self.pos]))
            }
            Some(b'[') => {
                self.nest(depth + 1)?;
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(SliceValue::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(SliceValue::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'"') => Ok(SliceValue::Str(self.string()?)),
            Some(b't') => self.literal("true", SliceValue::Bool(true)),
            Some(b'f') => self.literal("false", SliceValue::Bool(false)),
            Some(b'n') => self.literal("null", SliceValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Scans `{...}` at nesting `level`; fields go to `sink` when
    /// provided (the top-level object), otherwise the contents are
    /// validated and discarded.
    fn object(
        &mut self,
        level: u32,
        mut sink: Option<FieldSink<'_, 'a>>,
    ) -> Result<(), SliceError> {
        self.nest(level)?;
        self.expect(b'{', "expected `{`")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected `:` after object key")?;
            let value = self.value(level)?;
            if let Some(sink) = sink.as_mut() {
                sink(key, value);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn literal(
        &mut self,
        word: &'static str,
        value: SliceValue<'a>,
    ) -> Result<SliceValue<'a>, SliceError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("expected a value"))
        }
    }

    /// Scans a string, validating escapes; returns the raw span.
    fn string(&mut self) -> Result<RawStr<'a>, SliceError> {
        self.expect(b'"', "expected `\"`")?;
        let start = self.pos;
        loop {
            self.skip_plain();
            match self.peek() {
                Some(b'"') => {
                    let raw = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(RawStr { raw });
                }
                Some(b'\\') => self.escape()?,
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                // A plain byte of a tail shorter than a word. UTF-8
                // lead and continuation bytes are all >= 0x80, so the
                // span still ends on a char boundary (at a `"`).
                Some(_) => self.pos += 1,
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Scans one escape, `self.pos` on its backslash. A `\u` escape of
    /// a UTF-16 surrogate must be a high half followed at once by a
    /// `\u` low half; a lone half is an error at its backslash.
    fn escape(&mut self) -> Result<(), SliceError> {
        let backslash = self.pos;
        self.pos += 1;
        match self.peek() {
            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.pos += 1,
            Some(b'u') => {
                let paired = match self.code_unit()? {
                    0xD800..=0xDBFF => {
                        self.bytes[self.pos..].starts_with(b"\\u") && {
                            self.pos += 1;
                            (0xDC00..0xE000).contains(&self.code_unit()?)
                        }
                    }
                    0xDC00..=0xDFFF => false,
                    _ => true,
                };
                if !paired {
                    return Err(SliceError { offset: backslash, message: "lone surrogate" });
                }
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    /// Scans the `u` and four hex digits of a `\u` escape.
    fn code_unit(&mut self) -> Result<u32, SliceError> {
        self.pos += 1;
        let mut code = 0;
        for _ in 0..4 {
            let Some(digit) = self.peek().and_then(|c| char::from(c).to_digit(16)) else {
                return Err(self.err("bad \\u escape"));
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Advances past plain string bytes (anything but `"`, `\` and a
    /// control byte below 0x20) eight at a time, stopping on the first
    /// special byte or when fewer than eight bytes are left.
    ///
    /// Each word is tested with three has-zero masks OR-ed together.
    /// `(x - 0x01..) & !x & 0x80..` flags every zero byte of `x`, and
    /// `(w - 0x20..) & !w & 0x80..` every byte of `w` below 0x20. Such
    /// a mask may also flag a byte *above* a true hit, where the
    /// subtraction borrows in, but never one below the lowest true
    /// hit: the lowest set bit is always a true hit, so skipping
    /// `trailing_zeros / 8` bytes never skips a special byte.
    fn skip_plain(&mut self) {
        const LO: u64 = 0x0101_0101_0101_0101;
        const HI: u64 = 0x8080_8080_8080_8080;
        const QUOTES: u64 = LO * b'"' as u64;
        const BACKSLASHES: u64 = LO * b'\\' as u64;
        // Flags the bytes of `w` below `n` (for `n <= 0x80`).
        let below = |w: u64, n: u8| w.wrapping_sub(LO * u64::from(n)) & !w & HI;
        let bytes = self.bytes;
        for word in bytes[self.pos..].chunks_exact(8) {
            let w = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
            let special = below(w ^ QUOTES, 1) | below(w ^ BACKSLASHES, 1) | below(w, 0x20);
            if special != 0 {
                self.pos += special.trailing_zeros() as usize / 8;
                return;
            }
            self.pos += 8;
        }
    }

    fn number(&mut self) -> Result<SliceValue<'a>, SliceError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.pos - digits_start > 1 && self.bytes[digits_start] == b'0' {
            return Err(SliceError { offset: digits_start, message: "leading zero in number" });
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac {
                return Err(self.err("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let span = &self.text[start..self.pos];
        if integral {
            if let Ok(i) = span.parse::<i64>() {
                return Ok(SliceValue::Int(i));
            }
        }
        span.parse::<f64>()
            .map(SliceValue::Float)
            .map_err(|_| SliceError { offset: start, message: "malformed number" })
    }
}

/// Parses a scanned `workspace` string field: unescapes the span to a
/// `Cow` (a borrow when it has no escapes, one transient `String`
/// otherwise), then runs the text parser [`parse_workspace`] on it.
/// No JSON tree is built.
pub fn parse_workspace_raw(raw: &RawStr<'_>) -> Result<Workspace, FormatError> {
    parse_workspace(&raw.cow())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time string loop that [`Scanner::string`]'s word
    /// skip replaced, kept as the reference it must agree with.
    fn string_bytewise<'a>(s: &mut Scanner<'a>) -> Result<RawStr<'a>, SliceError> {
        s.expect(b'"', "expected `\"`")?;
        let start = s.pos;
        loop {
            match s.peek() {
                Some(b'"') => {
                    let raw = &s.text[start..s.pos];
                    s.pos += 1;
                    return Ok(RawStr { raw });
                }
                // Escapes are scanned one at a time by both loops.
                Some(b'\\') => s.escape()?,
                Some(c) if c < 0x20 => return Err(s.err("control character in string")),
                Some(_) => {
                    // Skip over one UTF-8 scalar (input is &str, so
                    // continuation bytes are well-formed).
                    s.pos += 1;
                    while matches!(s.peek(), Some(c) if c & 0xC0 == 0x80) {
                        s.pos += 1;
                    }
                }
                None => return Err(s.err("unterminated string")),
            }
        }
    }

    /// The char-at-a-time decoder that [`RawStr::cow`]'s run copy
    /// replaced, kept as the reference it must agree with.
    fn cow_charwise(raw: &str) -> String {
        fn hex4(chars: &mut std::str::Chars<'_>) -> u32 {
            let mut code = 0u32;
            for _ in 0..4 {
                code = code * 16 + chars.next().and_then(|c| c.to_digit(16)).unwrap_or(0);
            }
            code
        }
        let mut out = String::with_capacity(raw.len());
        let mut chars = raw.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('b') => out.push('\u{8}'),
                Some('f') => out.push('\u{c}'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hi = hex4(&mut chars);
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        let mut probe = chars.clone();
                        if probe.next() == Some('\\') && probe.next() == Some('u') {
                            let lo = hex4(&mut probe);
                            if (0xDC00..0xE000).contains(&lo) {
                                chars = probe;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            }
                        } else {
                            hi
                        }
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                Some(other) => out.push(other),
                None => break,
            }
        }
        out
    }

    /// A scanned span as (byte offset into `text`, escaped span).
    fn span_of<'a>(text: &str, raw: RawStr<'a>) -> (usize, &'a str) {
        (raw.escaped().as_ptr() as usize - text.as_ptr() as usize, raw.escaped())
    }

    /// Scans the string opening at `text[at]` with both scanners,
    /// asserts they agree on the span, the end offset and any error,
    /// and returns the common result.
    fn scan_both(text: &str, at: usize) -> Result<(usize, &str), SliceError> {
        let mut word = Scanner { bytes: text.as_bytes(), text, pos: at };
        let mut byte = Scanner { bytes: text.as_bytes(), text, pos: at };
        let got = word.string().map(|raw| span_of(text, raw));
        let want = string_bytewise(&mut byte).map(|raw| span_of(text, raw));
        assert_eq!(got, want, "string scanners disagree on {text:?}");
        if got.is_ok() {
            assert_eq!(word.pos, byte.pos, "end offsets disagree on {text:?}");
        }
        got
    }

    /// Checks `body` as a bare unterminated string, as a terminated
    /// one, and as the value of a one-field object scanned end to end.
    fn assert_scanners_agree(body: &str) {
        let _ = scan_both(&format!("\"{body}"), 0);
        let doc = format!("{{\"k\":\"{body}\"}}");
        let want = scan_both(&doc, 5);
        let mut fields = Vec::new();
        let got = scan_object(&doc, |k, v| fields.push((k.escaped(), v)));
        match want {
            // The string ran to the closing quote: one field, that span.
            Ok((offset, raw)) if offset + raw.len() + 2 == doc.len() => {
                assert_eq!(got, Ok(true), "{doc:?}");
                assert_eq!(fields.len(), 1, "{doc:?}");
                let SliceValue::Str(value) = fields[0].1 else { panic!("string field expected") };
                assert_eq!((fields[0].0, span_of(&doc, value)), ("k", (offset, raw)));
            }
            // An unescaped `"` ended it early: the rest is JSON syntax,
            // which the string scanners do not decide.
            Ok(_) => {}
            Err(e) => assert_eq!(got, Err(e), "{doc:?}"),
        }
    }

    /// One piece of a generated string body, chosen by `kind` and
    /// varied by `seed`.
    fn piece(kind: u8, seed: u32) -> String {
        let pick = |options: &[&str]| options[seed as usize % options.len()].to_string();
        match kind {
            // Plain ASCII, no quote or backslash.
            0 => (0..seed % 12)
                .map(|i| char::from(b' ' + ((seed >> 4).wrapping_add(i * 7) % 95) as u8))
                .filter(|c| !matches!(c, '"' | '\\'))
                .collect(),
            1 => "\"".into(),
            2 => "\\".into(),
            3 => pick(&[
                "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\q", "\\x", "\\ ",
                "\\\u{1}",
            ]),
            4 if seed & 1 == 0 => format!("\\u{:04x}", seed >> 16),
            4 => format!("\\u{:04X}", seed >> 16),
            5 => pick(&["\\u00zz", "\\u12", "\\u", "\\uG000", "\\u0\"", "\\u12\\n"]),
            // The control bytes 0x00..=0x1F and DEL (0x7F, allowed).
            6 => char::from(if seed % 33 == 32 { 0x7F } else { (seed % 32) as u8 }).to_string(),
            7 => char::from_u32(0x80 + seed % 0x780).expect("a 2-byte scalar").to_string(),
            8 => {
                let c = 0x800 + seed % 0xF800;
                char::from_u32(c).unwrap_or('\u{FFFD}').to_string()
            }
            _ => char::from_u32(0x10000 + seed % 0x100000).expect("a 4-byte scalar").to_string(),
        }
    }

    /// A surrogate pair's high and low halves: either end of each
    /// range, or a value inside it.
    fn surrogates(seed: u32) -> (u32, u32) {
        let end = (seed >> 24) as usize % 3;
        let high = [0xD800, 0xDBFF, 0xD800 + seed % 0x400][end];
        let low = [0xDC00, 0xDFFF, 0xDC00 + (seed >> 10) % 0x400][end];
        (high, low)
    }

    /// A piece of a *valid* string body: [`piece`]'s plain text, valid
    /// escapes, `\u` escapes and multi-byte scalars, plus surrogate
    /// pairs, `\u` escapes next to the surrogate ranges and `\u0000`.
    fn valid_piece(kind: u8, seed: u32) -> String {
        let hex = |code: u32| format!("\\u{code:04x}");
        let (high, low) = surrogates(seed);
        match kind {
            // `piece`'s first eight escapes are its valid ones, and its
            // `\u` escapes stay valid outside the surrogate range.
            3 => piece(3, seed % 8),
            4 if (0xD800..0xE000).contains(&(seed >> 16)) => hex(seed >> 16 ^ 0x2000),
            0 | 4 | 7 | 8 | 9 => piece(kind, seed),
            1 => format!("{}{}", hex(high), hex(low)),
            2 => format!("\\u{high:04X}\\u{low:04X}"),
            // Just below and just above the surrogate ranges.
            5 => hex([0xD7FF, 0xE000][seed as usize % 2]),
            // A pair followed by a second pair.
            6 => format!("{}{}{}{}", hex(high), hex(low), hex(low ^ 0x800), hex(high ^ 0x800)),
            _ => "\\u0000".into(),
        }
    }

    /// A lone surrogate half in `body`, as a `\u` escape: a lone low
    /// half, a high half at the end, or a high half followed by
    /// anything but a `\u` low half.
    fn lone_surrogate(seed: u32) -> String {
        let hex = |code: u32| format!("\\u{code:04x}");
        let (high, low) = surrogates(seed);
        let next = [0xDBFF, 0xE000, seed % 0xDC00, 0xE000 + seed % 0x2000];
        match seed % 5 {
            0 => hex(low),
            1 => hex(high),
            2 => format!("{}x", hex(high)),
            3 => format!("{}\\n", hex(high)),
            _ => format!("{}{}", hex(high), hex(next[(seed >> 20) as usize % 4])),
        }
    }

    proptest! {
        #[test]
        fn run_decoder_matches_charwise_reference(
            pieces in proptest::collection::vec((0u8..11, any::<u32>()), 0..16),
        ) {
            let body: String = pieces.iter().map(|&(kind, seed)| valid_piece(kind, seed)).collect();
            let doc = format!("\"{body}\"");
            let scanned = Scanner { bytes: doc.as_bytes(), text: &doc, pos: 0 }.string();
            prop_assert_eq!(scanned, Ok(RawStr { raw: &body }), "{:?} must scan whole", body);
            prop_assert_eq!(RawStr { raw: &body }.cow(), cow_charwise(&body), "{:?}", body);
        }

        #[test]
        fn lone_surrogates_are_rejected_at_their_escape(
            pieces in proptest::collection::vec((0u8..11, any::<u32>()), 0..6),
            seed in any::<u32>(),
        ) {
            let before: String = pieces.iter().map(|&(kind, seed)| valid_piece(kind, seed)).collect();
            let doc = format!("{{\"k\": \"{before}{}\"}}", lone_surrogate(seed));
            let offset = 7 + before.len();
            let want = Err(SliceError { offset, message: "lone surrogate" });
            prop_assert_eq!(scan_object(&doc, |_, _| ()), want, "{:?}", doc);
        }

        #[test]
        fn word_scan_matches_bytewise_reference(
            pieces in proptest::collection::vec((0u8..10, any::<u32>()), 0..16),
        ) {
            let tail: String = pieces.iter().map(|&(kind, seed)| piece(kind, seed)).collect();
            for pad in 0..8 {
                let body = format!("{}{tail}", "a".repeat(pad));
                for cut in (0..=body.len()).filter(|&i| body.is_char_boundary(i)) {
                    assert_scanners_agree(&body[..cut]);
                }
            }
        }
    }

    #[test]
    fn special_bytes_in_every_lane() {
        for lane in 0..16 {
            let pad = "x".repeat(lane);
            let tail = "y".repeat(20);
            assert_eq!(scan_both(&format!("\"{pad}\"{tail}"), 0), Ok((1, pad.as_str())));
            let escaped = format!("\"{pad}\\n{tail}\"");
            assert_eq!(scan_both(&escaped, 0), Ok((1, &escaped[1..escaped.len() - 1])));
            let unknown = SliceError { offset: lane + 2, message: "unknown escape" };
            assert_eq!(scan_both(&format!("\"{pad}\\q{tail}\""), 0), Err(unknown));
            let control = SliceError { offset: lane + 1, message: "control character in string" };
            assert_eq!(scan_both(&format!("\"{pad}\u{1f}{tail}\""), 0), Err(control));
        }
    }

    #[test]
    fn four_byte_scalar_straddles_a_word() {
        for lane in 0..8 {
            let text = format!("\"{}\u{1F600}{}\"", "x".repeat(lane), "y".repeat(12));
            assert_eq!(scan_both(&text, 0), Ok((1, &text[1..text.len() - 1])));
            assert_scanners_agree(&text[1..text.len() - 1]);
        }
    }

    fn fields(text: &str) -> Vec<(String, SliceValue<'_>)> {
        let mut out = Vec::new();
        let is_obj = scan_object(text, |k, v| out.push((k.cow().into_owned(), v))).unwrap();
        assert!(is_obj);
        out
    }

    #[test]
    fn scans_shallow_fields() {
        let got = fields(r#"{"a": 1, "b": "x", "c": true, "d": null, "e": 2.5}"#);
        assert_eq!(got[0].1, SliceValue::Int(1));
        assert_eq!(got[1].1.as_raw_str().unwrap().cow(), "x");
        assert_eq!(got[2].1, SliceValue::Bool(true));
        assert_eq!(got[3].1, SliceValue::Null);
        assert_eq!(got[4].1, SliceValue::Float(2.5));
    }

    #[test]
    fn strings_borrow_when_escape_free() {
        let text = r#"{"plain": "hello", "escaped": "a\nb\u0041"}"#;
        let got = fields(text);
        match got[0].1.as_raw_str().unwrap().cow() {
            Cow::Borrowed(s) => assert_eq!(s, "hello"),
            Cow::Owned(_) => panic!("escape-free string must borrow"),
        }
        assert_eq!(got[1].1.as_raw_str().unwrap().cow(), "a\nbA");
    }

    #[test]
    fn surrogate_pairs_decode() {
        let got = fields(r#"{"emoji": "\ud83d\ude00"}"#);
        assert_eq!(got[0].1.as_raw_str().unwrap().cow(), "😀");
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        let lone = |offset| Err(SliceError { offset, message: "lone surrogate" });
        assert_eq!(scan_value(r#""x\ud800""#), lone(2));
        assert_eq!(scan_value(r#""x\udc00""#), lone(2));
        assert_eq!(scan_value(r#""\ud83d\u0041""#), lone(1));
        assert_eq!(scan_value(r#""\ud83d\ud83d\ude00""#), lone(1));
        let bad_low = SliceError { offset: 12, message: "bad \\u escape" };
        assert_eq!(scan_value(r#""\ud83d\ude0""#), Err(bad_low));
    }

    #[test]
    fn arrays_scan_shallowly_and_objects_skip() {
        let got = fields(r#"{"repairs": ["J", "K"], "nested": {"deep": [1, {"x": 2}]}}"#);
        let SliceValue::Arr(items) = &got[0].1 else { panic!("array expected") };
        assert!(items[0].as_raw_str().unwrap().is("J"));
        assert!(items[1].as_raw_str().unwrap().is("K"));
        assert_eq!(got[1].1, SliceValue::Obj(r#"{"deep": [1, {"x": 2}]}"#));
    }

    #[test]
    fn scan_value_reads_any_top_level_and_objects_by_span() {
        assert_eq!(scan_value(" 7 "), Ok(SliceValue::Int(7)));
        assert_eq!(scan_value(r#" {"a": {}} "#), Ok(SliceValue::Obj(r#"{"a": {}}"#)));
        let Ok(SliceValue::Arr(items)) = scan_value(r#"[{"b": [2]}, "x"]"#) else {
            panic!("array expected")
        };
        let SliceValue::Obj(span) = items[0] else { panic!("object expected") };
        let mut inner = Vec::new();
        assert_eq!(scan_object(span, |k, v| inner.push((k.escaped(), v))), Ok(true));
        assert_eq!(inner, [("b", SliceValue::Arr(vec![SliceValue::Int(2)]))]);
        assert!(scan_value("1 2").is_err());
        assert!(scan_value("").is_err());
    }

    #[test]
    fn nesting_is_limited_to_64_containers_of_either_kind() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            for inner in ["1", "[]", "{}"] {
                let nest = |n: usize| format!("{}{inner}{}", open.repeat(n), close.repeat(n));
                // `inner` itself opens a container unless it is `1`.
                let limit = if inner == "1" { 64 } else { 63 };
                assert!(scan_value(&nest(limit)).is_ok(), "{}", nest(limit));
                assert!(scan_object(&nest(limit), |_, _| ()).is_ok());
                let deep = SliceError { offset: 64 * open.len(), message: "nesting too deep" };
                assert_eq!(scan_value(&nest(limit + 1)), Err(deep));
                assert_eq!(scan_object(&nest(limit + 1), |_, _| ()), Err(deep));
            }
        }
    }

    #[test]
    fn non_object_top_level_validates_without_callbacks() {
        let mut called = false;
        assert!(!scan_object("[1, 2, 3]", |_, _| called = true).unwrap());
        assert!(!called);
        assert!(scan_object("[1, 2", |_, _| ()).is_err());
    }

    #[test]
    fn u64_coercion_matches_tree_parser() {
        assert_eq!(SliceValue::Int(7).as_u64(), Some(7));
        assert_eq!(SliceValue::Int(-1).as_u64(), None);
        assert_eq!(SliceValue::Float(1e3).as_u64(), Some(1000));
        assert_eq!(SliceValue::Float(1.5).as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{\"bad\": \"\\q\"}",
            "{\"bad\": \"\\u00zz\"}",
            "01",
            "1.",
            "1e",
            "nul",
        ] {
            assert!(scan_object(bad, |_, _| ()).is_err(), "must reject: {bad}");
        }
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(scan_object(&deep, |_, _| ()).is_err(), "must reject deep nesting");
    }

    #[test]
    fn workspace_field_round_trips_into_interners() {
        let body = r#"{"workspace": "relation R/2\nfact R(a, b)\n"}"#;
        let mut ws = None;
        scan_object(body, |k, v| {
            if k.is("workspace") {
                ws = v.as_raw_str();
            }
        })
        .unwrap();
        let workspace = parse_workspace_raw(&ws.unwrap()).unwrap();
        assert_eq!(workspace.instance.len(), 1);
    }
}
