//! Canonical JSON serialization of verdict certificates (`cert_v` 1).
//!
//! A serialized certificate is **self-contained**: besides the verdict
//! evidence it embeds the schema (relation names/arities and the FD
//! list), the flat fact table (index = fact id), and the full priority
//! edge list — everything the dependency-free `rpr-audit` crate needs
//! to re-validate the verdict without consulting any other input.
//!
//! The encoding is *canonical*: one line, no whitespace, objects with
//! a fixed field order (documented in DESIGN.md §"Certificates &
//! audit"), integers in decimal without leading zeros, and strings
//! escaped as `\"`, `\\`, and `\u00XX` for control characters only.
//! [`parse_certificate`] + [`render_value`] round-trip byte-identically
//! with [`render_certificate`]'s output, which makes certificates safe
//! to cache, diff, and hash. [`parse_certificate`] builds its tree from
//! the request scanner ([`crate::json_slice`]), the one JSON grammar
//! outside `rpr-audit`.
//!
//! [`render_certificate`] writes straight into one presized `String`:
//! value encodings are escaped in place and integers formatted on the
//! stack, with no buffer per value.
//!
//! Tuple values use a tagged, injective string encoding ([`encode_value`]):
//! `i<decimal>` for integers, `s<byte-len>:<bytes>` for symbols, and
//! `p(<enc>,<enc>)` for pairs. `Display` is *not* injective
//! (`Sym("12")` and `Int(12)` both print `12`), and certificate
//! soundness needs value equality to coincide with encoding equality.

use crate::format::FormatError;
use crate::json_slice::{scan_object, scan_value, RawStr, SliceValue};
use rpr_classify::{CcpClass, HardCase, RelationClass};
use rpr_core::certificate::{
    BlockEvidence, CertVerdict, Certificate, ClassificationCert, OptimalScope,
};
use rpr_data::{AttrSet, FactId, Instance, Value};
use rpr_fd::Schema;
use rpr_priority::{PriorityMode, PriorityRelation};

/// The current certificate format version.
pub const CERT_V: u64 = 1;

/// Appends the tagged injective encoding of one tuple value.
///
/// `i<decimal>` (ints), `s<len>:<bytes>` (symbols, length-prefixed so
/// arbitrary content cannot collide), `p(<enc>,<enc>)` (pairs).
pub fn encode_value(v: &Value, out: &mut String) {
    write_value(v, out, |s, out| out.push_str(s));
}

/// [`encode_value`] with each symbol's bytes written by `symbol`: the
/// tags, lengths and punctuation need no JSON escape, so escaping the
/// symbols is enough to embed an encoding in a JSON string.
fn write_value(v: &Value, out: &mut String, symbol: fn(&str, &mut String)) {
    match v {
        Value::Int(i) => {
            out.push('i');
            push_int(*i, out);
        }
        Value::Sym(s) => {
            out.push('s');
            push_uint(s.len() as u64, out);
            out.push(':');
            symbol(s, out);
        }
        Value::Pair(p) => {
            out.push_str("p(");
            write_value(&p.0, out, symbol);
            out.push(',');
            write_value(&p.1, out, symbol);
            out.push(')');
        }
    }
}

/// Appends `n` in decimal without allocating.
fn push_uint(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

fn push_int(i: i64, out: &mut String) {
    if i < 0 {
        out.push('-');
    }
    push_uint(i.unsigned_abs(), out);
}

/// Appends `s` with `"` and `\` escaped and control characters as
/// `\u00XX`; the text between two escapes is copied as one slice.
fn push_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        out.push('\\');
        match b {
            b'"' | b'\\' => out.push(b as char),
            _ => {
                out.push_str("u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 15)] as char);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

fn push_json_str(s: &str, out: &mut String) {
    out.push('"');
    push_escaped(s, out);
    out.push('"');
}

fn push_attrs(attrs: AttrSet, out: &mut String) {
    out.push('[');
    for (i, a) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_uint(a as u64, out);
    }
    out.push(']');
}

fn push_ids(ids: &[FactId], out: &mut String) {
    out.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_uint(id.0.into(), out);
    }
    out.push(']');
}

fn push_pairs(pairs: &[(FactId, FactId)], out: &mut String) {
    out.push('[');
    for (i, (a, b)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_uint(a.0.into(), out);
        out.push(',');
        push_uint(b.0.into(), out);
        out.push(']');
    }
    out.push(']');
}

fn push_relation_class(class: &RelationClass, out: &mut String) {
    match class {
        RelationClass::SingleFd(fd) => {
            out.push_str("{\"kind\":\"single_fd\",\"lhs\":");
            push_attrs(fd.lhs, out);
            out.push_str(",\"rhs\":");
            push_attrs(fd.rhs, out);
            out.push('}');
        }
        RelationClass::TwoKeys(k1, k2) => {
            out.push_str("{\"kind\":\"two_keys\",\"k1\":");
            push_attrs(*k1, out);
            out.push_str(",\"k2\":");
            push_attrs(*k2, out);
            out.push('}');
        }
        RelationClass::Hard(case) => {
            out.push_str("{\"kind\":\"hard\",\"case\":");
            push_uint(case.number().into(), out);
            match case {
                HardCase::ThreeOrMoreKeys(keys) => {
                    out.push_str(",\"keys\":[");
                    for (i, k) in keys.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        push_attrs(*k, out);
                    }
                    out.push(']');
                }
                HardCase::Case2 { a, b }
                | HardCase::Case3 { a, b }
                | HardCase::Case4 { a, b }
                | HardCase::Case5 { a, b }
                | HardCase::Case6 { a, b }
                | HardCase::Case7 { a, b } => {
                    out.push_str(",\"a\":");
                    push_attrs(*a, out);
                    out.push_str(",\"b\":");
                    push_attrs(*b, out);
                }
                HardCase::Unresolved => {}
            }
            out.push('}');
        }
    }
}

fn push_classification(classification: &ClassificationCert, out: &mut String) {
    match classification {
        ClassificationCert::Classical(per_rel) => {
            out.push_str("{\"scope\":\"classical\",\"relations\":[");
            for (i, (rel, class)) in per_rel.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                push_uint(rel.0.into(), out);
                out.push(',');
                push_relation_class(class, out);
                out.push(']');
            }
            out.push_str("]}");
        }
        ClassificationCert::Ccp(CcpClass::PrimaryKeyAssignment(keys)) => {
            out.push_str("{\"scope\":\"ccp\",\"kind\":\"primary_key\",\"keys\":[");
            for (i, k) in keys.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_attrs(*k, out);
            }
            out.push_str("]}");
        }
        ClassificationCert::Ccp(CcpClass::ConstantAttributeAssignment(consts)) => {
            out.push_str("{\"scope\":\"ccp\",\"kind\":\"constant_attribute\",\"consts\":[");
            for (i, c) in consts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_attrs(*c, out);
            }
            out.push_str("]}");
        }
        ClassificationCert::Ccp(CcpClass::Hard { not_primary_key, not_constant_attribute }) => {
            out.push_str("{\"scope\":\"ccp\",\"kind\":\"hard\",\"not_primary_key\":");
            push_uint(not_primary_key.0.into(), out);
            out.push_str(",\"not_constant_attribute\":");
            push_uint(not_constant_attribute.0.into(), out);
            out.push('}');
        }
    }
}

fn push_block(block: &BlockEvidence, out: &mut String) {
    out.push_str("{\"rel\":");
    push_uint(block.rel.0.into(), out);
    out.push_str(",\"lhs\":");
    push_attrs(block.fd.lhs, out);
    out.push_str(",\"rhs\":");
    push_attrs(block.fd.rhs, out);
    out.push_str(",\"group\":");
    push_uint(block.group.0.into(), out);
    out.push_str(",\"consistency\":");
    push_ids(&block.consistency, out);
    out.push_str(",\"maximality\":");
    push_pairs(&block.maximality, out);
    out.push('}');
}

fn push_verdict(verdict: &CertVerdict, out: &mut String) {
    match verdict {
        CertVerdict::Inconsistent { f, g } => {
            out.push_str("{\"kind\":\"inconsistent\",\"f\":");
            push_uint(f.0.into(), out);
            out.push_str(",\"g\":");
            push_uint(g.0.into(), out);
            out.push('}');
        }
        CertVerdict::Improvable(w) => {
            out.push_str("{\"kind\":\"improvable\",\"from\":");
            push_ids(&w.from, out);
            out.push_str(",\"to\":");
            push_ids(&w.to, out);
            out.push_str(",\"justification\":");
            push_pairs(&w.justification, out);
            out.push('}');
        }
        CertVerdict::Optimal { scope, maximality, blocks } => {
            out.push_str("{\"kind\":\"optimal\",\"scope\":\"");
            out.push_str(match scope {
                OptimalScope::Complete => "complete",
                OptimalScope::RepairOnly => "repair_only",
            });
            out.push_str("\",\"maximality\":");
            push_pairs(maximality, out);
            out.push_str(",\"blocks\":[");
            for (i, b) in blocks.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_block(b, out);
            }
            out.push_str("]}");
        }
    }
}

/// Renders a certificate in the canonical `cert_v` 1 encoding: one
/// line, fixed field order, self-contained (schema + facts + priority
/// embedded).
pub fn render_certificate(
    schema: &Schema,
    instance: &Instance,
    priority: &PriorityRelation,
    cert: &Certificate,
) -> String {
    let sig = schema.signature();
    // Room for the facts (a value takes about 16 bytes), the priority
    // edges and a candidate-sized verdict, so the text is written in
    // place rather than regrown.
    let max_arity = sig.rel_ids().map(|rel| sig.arity(rel)).max().unwrap_or(0);
    let edges = priority.edges().len();
    let mut out = String::with_capacity(256 + instance.len() * (12 + 16 * max_arity) + edges * 12);
    out.push_str("{\"cert_v\":");
    push_uint(CERT_V, &mut out);
    out.push_str(",\"kind\":\"");
    out.push_str(if cert.check.is_some() { "check" } else { "classification" });
    out.push_str("\",\"mode\":\"");
    out.push_str(match cert.mode {
        PriorityMode::ConflictRestricted => "conflict",
        PriorityMode::CrossConflict => "ccp",
    });
    out.push_str("\",\"schema\":{\"relations\":[");
    for (i, rel) in sig.rel_ids().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_json_str(sig.symbol(rel).name(), &mut out);
        out.push(',');
        push_uint(sig.arity(rel) as u64, &mut out);
        out.push(']');
    }
    out.push_str("],\"fds\":[");
    for (i, fd) in schema.fds().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_uint(fd.rel.0.into(), &mut out);
        out.push(',');
        push_attrs(fd.lhs, &mut out);
        out.push(',');
        push_attrs(fd.rhs, &mut out);
        out.push(']');
    }
    out.push_str("]},\"facts\":[");
    for (i, (_, fact)) in instance.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_uint(fact.rel().0.into(), &mut out);
        out.push_str(",[");
        for (k, v) in fact.values().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push('"');
            write_value(v, &mut out, push_escaped);
            out.push('"');
        }
        out.push_str("]]");
    }
    out.push_str("],\"priority\":");
    push_pairs(priority.edges(), &mut out);
    out.push_str(",\"classification\":");
    push_classification(&cert.classification, &mut out);
    if let Some(check) = &cert.check {
        out.push_str(",\"candidate\":");
        push_ids(&check.candidate, &mut out);
        out.push_str(",\"verdict\":");
        push_verdict(&check.verdict, &mut out);
    }
    out.push('}');
    out
}

/// A parsed certificate document. Object fields keep their textual
/// order, so [`render_value`] reproduces a canonical input
/// byte-for-byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertValue {
    /// An integer (certificates contain no floats).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<CertValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, CertValue)>),
}

impl CertValue {
    /// Field lookup on an object; `None` on other shapes.
    pub fn get(&self, key: &str) -> Option<&CertValue> {
        match self {
            CertValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable field lookup on an object.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut CertValue> {
        match self {
            CertValue::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[CertValue]> {
        match self {
            CertValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            CertValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            CertValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a certificate document: JSON by the request scanner's grammar
/// ([`scan_value`]), holding objects without duplicate keys, arrays,
/// strings without surrogate escapes, and integers only.
///
/// # Errors
/// [`FormatError`] (line 1) naming the byte of the first syntax error,
/// or of the string or innermost object a value breaks these rules in.
pub fn parse_certificate(text: &str) -> Result<CertValue, FormatError> {
    let error = |offset: usize, message: &str| FormatError {
        line: 1,
        message: format!("byte {offset}: {message}"),
    };
    let value = scan_value(text).map_err(|e| error(e.offset, e.message))?;
    cert_value(value, text)
        .map_err(|(span, message)| error(span.as_ptr() as usize - text.as_ptr() as usize, message))
}

/// A rule broken, with the span of `text` it was broken in.
type CertError<'a> = (&'a str, &'static str);

/// One scanned value as a [`CertValue`]; `within` is the innermost
/// object around it, or the whole document.
fn cert_value<'a>(value: SliceValue<'a>, within: &'a str) -> Result<CertValue, CertError<'a>> {
    match value {
        SliceValue::Int(i) => Ok(CertValue::Int(i)),
        SliceValue::Str(s) => cert_str(s).map(CertValue::Str),
        SliceValue::Arr(items) => items
            .into_iter()
            .map(|item| cert_value(item, within))
            .collect::<Result<_, _>>()
            .map(CertValue::Arr),
        SliceValue::Obj(span) => {
            let mut fields = Vec::new();
            let mut result = Ok(());
            scan_object(span, |key, value| {
                if result.is_ok() {
                    result = cert_field(&mut fields, key, value, span);
                }
            })
            .expect("a scanned object scans again");
            result.map(|()| CertValue::Obj(fields))
        }
        SliceValue::Float(_) => Err((within, "certificates contain integers only")),
        SliceValue::Null | SliceValue::Bool(_) => {
            Err((within, "certificates hold objects, arrays, strings, and integers only"))
        }
    }
}

/// Appends the field `key: value` of the object `span`.
fn cert_field<'a>(
    fields: &mut Vec<(String, CertValue)>,
    key: RawStr<'a>,
    value: SliceValue<'a>,
    span: &'a str,
) -> Result<(), CertError<'a>> {
    let key = cert_str(key)?;
    if fields.iter().any(|(k, _)| *k == key) {
        return Err((span, "duplicate field"));
    }
    fields.push((key, cert_value(value, span)?));
    Ok(())
}

/// A decoded string. Certificates escape control characters only; a
/// `\u` escape of a surrogate (always half of a pair, as the scanner
/// rejects lone halves) is refused.
fn cert_str(s: RawStr<'_>) -> Result<String, CertError<'_>> {
    let mut rest = s.escaped();
    while let Some(at) = rest.find('\\') {
        let escape = &rest[at + 1..];
        if escape.starts_with('u')
            && matches!(u32::from_str_radix(&escape[1..5], 16), Ok(0xD800..=0xDFFF))
        {
            return Err((s.escaped(), "surrogate escapes are not used by certificates"));
        }
        rest = &escape[1..];
    }
    Ok(s.cow().into_owned())
}

/// Renders a parsed document back to canonical bytes (compact, field
/// order preserved, canonical string escapes).
pub fn render_value(v: &CertValue) -> String {
    let mut out = String::new();
    render_into(v, &mut out);
    out
}

fn render_into(v: &CertValue, out: &mut String) {
    match v {
        CertValue::Int(i) => push_int(*i, out),
        CertValue::Str(s) => push_json_str(s, out),
        CertValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        CertValue::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(k, out);
                out.push(':');
                render_into(val, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trips_hand_written_docs() {
        for text in [
            r#"{"cert_v":1,"kind":"check"}"#,
            r#"{"a":[1,2,[3]],"b":{"c":"x\"y\\z","d":-7}}"#,
            r#"[]"#,
            r#"{"s":"i12","t":"s3:a,b","u":"p(i1,s1:x)"}"#,
            r#"{"é":"s4:café","✓":"a\"ü\\ß"}"#,
        ] {
            let doc = parse_certificate(text).unwrap();
            assert_eq!(render_value(&doc), text);
        }
    }

    #[test]
    fn parser_rejects_malformed_docs() {
        for text in [
            "",
            "{",
            r#"{"a":1,}"#,
            r#"{"a":1.5}"#,
            r#"{"a":true}"#,
            r#"{"a":1}{"#,
            r#"{"a":1,"a":2}"#,
            "\"\u{1}\"",
        ] {
            assert!(parse_certificate(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn value_encoding_is_injective_on_display_collisions() {
        let mut a = String::new();
        encode_value(&Value::sym("12"), &mut a);
        let mut b = String::new();
        encode_value(&Value::int(12), &mut b);
        assert_ne!(a, b);
        assert_eq!(a, "s2:12");
        assert_eq!(b, "i12");
        let mut p = String::new();
        encode_value(&Value::pair(Value::sym("a,b"), Value::int(3)), &mut p);
        assert_eq!(p, "p(s3:a,b,i3)");
    }
}
