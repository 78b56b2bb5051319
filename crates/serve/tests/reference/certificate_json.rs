//! The recursive-descent parser `rpr_format::parse_certificate` was
//! before it became a builder over the request scanner, kept verbatim
//! as the oracle of `json_differential`.

use rpr_format::{CertValue, FormatError};

/// Parses a certificate document (strict JSON, integers only).
///
/// # Errors
/// [`FormatError`] (line 1) describing the first malformed byte.
pub fn parse_certificate(text: &str) -> Result<CertValue, FormatError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing bytes after certificate"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> FormatError {
        FormatError { line: 1, message: format!("byte {}: {}", self.pos, message.into()) }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), FormatError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<CertValue, FormatError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(CertValue::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err(
                "unexpected byte (certificates hold objects, arrays, strings, and integers only)",
            )),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<CertValue, FormatError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(CertValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate field {key:?}")));
            }
            fields.push((key, val));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(CertValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<CertValue, FormatError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(CertValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(CertValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, FormatError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            let c = char::from_u32(cp).ok_or_else(|| {
                                self.err("surrogate escapes are not used by certificates")
                            })?;
                            out.push(c);
                            // hex4 leaves pos on its last digit.
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, escape or control
                    // byte in one go. The input is a `&str` and the run
                    // stops before an ASCII byte, so the slice is whole
                    // UTF-8.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`; leaves `pos` on the last
    /// digit (the caller advances past it).
    fn hex4(&mut self) -> Result<u32, FormatError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            self.pos += 1;
            let d = match self.bytes.get(self.pos) {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("bad \\u escape")),
            };
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<CertValue, FormatError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("certificates contain integers only"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<i64>()
            .map(CertValue::Int)
            .map_err(|_| self.err(format!("bad integer {text:?}")))
    }
}
