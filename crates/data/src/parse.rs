//! A small text format for instances, used by examples and tests.
//!
//! ```text
//! # comment
//! BookLoc(b1, fiction, lib1)
//! LibLoc(lib1, almaden)
//! LibLoc(lib1, 42)        // bare integers parse as Value::Int
//! ```
//!
//! Values are symbols unless they parse as `i64` ([`Atom::from_token`]).
//! Whitespace around values is trimmed. Empty lines and `#`-prefixed
//! lines are skipped.

use crate::error::DataError;
use crate::fact::SigRef;
use crate::instance::Instance;
use crate::value::{Atom, Value};

/// Parses an instance from text.
///
/// # Errors
/// Fails with [`DataError::Parse`] (with a line number) on malformed
/// lines, and propagates unknown-relation/arity errors.
pub fn parse_instance(sig: SigRef, text: &str) -> Result<Instance, DataError> {
    let mut instance = Instance::new(sig);
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let open = line.find('(').ok_or_else(|| DataError::Parse {
            line: lineno,
            message: "expected Relation(v1, ..., vn)".into(),
        })?;
        if !line.ends_with(')') {
            return Err(DataError::Parse {
                line: lineno,
                message: "missing closing parenthesis".into(),
            });
        }
        let rel = line[..open].trim();
        if rel.is_empty() {
            return Err(DataError::Parse { line: lineno, message: "missing relation name".into() });
        }
        let body = &line[open + 1..line.len() - 1];
        if body.trim().is_empty() {
            return Err(DataError::Parse {
                line: lineno,
                message: "facts must have at least one value".into(),
            });
        }
        let values = body.split(',').map(|t| Value::from(Atom::from_token(t.trim())));
        instance.insert_named(rel, values).map_err(|e| match e {
            DataError::Parse { .. } => e,
            other => DataError::Parse { line: lineno, message: other.to_string() },
        })?;
    }
    Ok(instance)
}

/// Serializes an instance back to the text format (sorted for stability).
pub fn render_instance(instance: &Instance) -> String {
    let sig = instance.signature();
    let mut lines: Vec<String> = instance.iter().map(|(_, f)| f.display(sig).to_string()).collect();
    lines.sort();
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;

    fn sig() -> SigRef {
        Signature::new([("R", 2), ("S", 3)]).unwrap()
    }

    #[test]
    fn parses_mixed_values_and_comments() {
        let i = parse_instance(sig(), "# header\n\nR(a, 7)\nS(x, y, -3)\n  R( a ,7 )\n").unwrap();
        assert_eq!(i.len(), 2); // duplicate R(a,7) deduped
        let f = i.fact(crate::instance::FactId(0));
        assert_eq!(f.get(2), &Value::Int(7));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_instance(sig(), "R a b").is_err());
        assert!(parse_instance(sig(), "R(a, b").is_err());
        assert!(parse_instance(sig(), "(a, b)").is_err());
        assert!(parse_instance(sig(), "R()").is_err());
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_instance(sig(), "R(a,b)\nbroken").unwrap_err();
        match err {
            DataError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn arity_errors_become_parse_errors_with_location() {
        let err = parse_instance(sig(), "R(a,b,c)").unwrap_err();
        match err {
            DataError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("arity"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn roundtrip() {
        let text = "R(a,7)\nS(x,y,z)";
        let i = parse_instance(sig(), text).unwrap();
        let rendered = render_instance(&i);
        let j = parse_instance(sig(), &rendered).unwrap();
        assert_eq!(i.len(), j.len());
        for (_, f) in i.iter() {
            assert!(j.contains(f));
        }
    }
}
