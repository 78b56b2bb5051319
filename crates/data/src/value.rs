//! Constants appearing in database facts.
//!
//! The paper assumes an infinite domain `Const` of constants (§2.1). We
//! support integers, symbolic constants (strings), and *pairs* of values.
//! Pair values are what the Π reductions of §5 need: the Case-1 fact
//! mapping sends a constant `c_a, c_b` pair into a single attribute value
//! `⟨c_a, c_b⟩` (Lemma 5.3), and nesting pairs yields the triple
//! `⟨c1, c2, c3⟩`.

use std::fmt;
use std::sync::Arc;

/// A database constant.
///
/// Cloning is cheap: symbolic constants and pairs are reference-counted.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An integer constant.
    Int(i64),
    /// A symbolic (named) constant such as `lib1` or `almaden`.
    Sym(Arc<str>),
    /// An ordered pair of constants, e.g. `⟨c1, c2⟩` from the Π mappings.
    Pair(Arc<(Value, Value)>),
}

impl Value {
    /// Builds a symbolic constant.
    pub fn sym(name: impl AsRef<str>) -> Self {
        Value::Sym(Arc::from(name.as_ref()))
    }

    /// Builds an integer constant.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Builds the pair `⟨a, b⟩`.
    pub fn pair(a: Value, b: Value) -> Self {
        Value::Pair(Arc::new((a, b)))
    }

    /// Builds the right-nested triple `⟨a, ⟨b, c⟩⟩`, the encoding used for
    /// the `⟨c1, c2, c3⟩` values of the Case-1 reduction.
    pub fn triple(a: Value, b: Value, c: Value) -> Self {
        Value::pair(a, Value::pair(b, c))
    }

    /// Returns the symbol name if this is a symbolic constant.
    pub fn as_sym(&self) -> Option<&str> {
        match self {
            Value::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is an integer constant.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the components if this is a pair.
    pub fn as_pair(&self) -> Option<(&Value, &Value)> {
        match self {
            Value::Pair(p) => Some((&p.0, &p.1)),
            _ => None,
        }
    }
}

/// A value as one token of text names it, borrowed from that text:
/// what a `prefer` or `repair` reference holds until it resolves to a
/// fact id. A token is an [`Atom::Int`] when it parses as an `i64`
/// and an [`Atom::Sym`] otherwise ([`Atom::from_token`] — the one token
/// rule of every text format). Pairs have no token form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Atom<'t> {
    /// An integer token.
    Int(i64),
    /// A symbol token.
    Sym(&'t str),
}

impl<'t> Atom<'t> {
    /// Classifies a (trimmed) token: an integer when `str::parse::<i64>`
    /// accepts it (so `+5`, `-0` and `007` are ints), a symbol otherwise
    /// (so are out-of-range numerals and `1_000`).
    pub fn from_token(token: &'t str) -> Self {
        match token.parse::<i64>() {
            Ok(n) => Atom::Int(n),
            Err(_) => Atom::Sym(token),
        }
    }
}

impl From<Atom<'_>> for Value {
    fn from(atom: Atom<'_>) -> Self {
        match atom {
            Atom::Int(n) => Value::Int(n),
            Atom::Sym(s) => Value::sym(s),
        }
    }
}

impl PartialEq<Value> for Atom<'_> {
    fn eq(&self, value: &Value) -> bool {
        match (*self, value) {
            (Atom::Int(n), Value::Int(m)) => n == *m,
            (Atom::Sym(s), Value::Sym(t)) => s == &**t,
            _ => false,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Sym(s) => write!(f, "{s}"),
            Value::Pair(p) => write!(f, "⟨{},{}⟩", p.0, p.1),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::sym(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Sym(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(Value::sym("lib1"), Value::sym("lib1"));
        assert_ne!(Value::sym("lib1"), Value::sym("lib2"));
        assert_ne!(Value::int(1), Value::sym("1"));
        assert_eq!(Value::pair(1.into(), 2.into()), Value::pair(1.into(), 2.into()));
        assert_ne!(Value::pair(1.into(), 2.into()), Value::pair(2.into(), 1.into()));
    }

    #[test]
    fn hash_agrees_with_equality_for_clones() {
        let a = Value::triple("a".into(), "b".into(), "c".into());
        let b = Value::triple("a".into(), "b".into(), "c".into());
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn triple_is_right_nested() {
        let t = Value::triple(1.into(), 2.into(), 3.into());
        let (a, rest) = t.as_pair().unwrap();
        assert_eq!(a, &Value::int(1));
        let (b, c) = rest.as_pair().unwrap();
        assert_eq!(b, &Value::int(2));
        assert_eq!(c, &Value::int(3));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::int(-3).to_string(), "-3");
        assert_eq!(Value::sym("x").to_string(), "x");
        assert_eq!(Value::pair("a".into(), 1.into()).to_string(), "⟨a,1⟩");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::sym("s").as_sym(), Some("s"));
        assert_eq!(Value::int(9).as_int(), Some(9));
        assert_eq!(Value::int(9).as_sym(), None);
        assert!(Value::pair(1.into(), 2.into()).as_pair().is_some());
        assert!(Value::int(1).as_pair().is_none());
    }

    #[test]
    fn atoms_equal_exactly_their_values() {
        assert_eq!(Atom::Int(5), Value::Int(5));
        assert_eq!(Atom::Sym("5"), Value::sym("5"));
        assert_ne!(Atom::Int(5), Value::sym("5"));
        assert_ne!(Atom::Sym("5"), Value::Int(5));
        assert_ne!(Atom::Int(1), Value::pair(1.into(), 1.into()));
        assert_eq!(Value::from(Atom::Sym("x")), Value::sym("x"));
        assert_eq!(Value::from(Atom::Int(-2)), Value::Int(-2));
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = vec![
            Value::sym("b"),
            Value::int(2),
            Value::pair(1.into(), 1.into()),
            Value::sym("a"),
            Value::int(1),
        ];
        vs.sort();
        // Ints sort before syms before pairs (enum declaration order).
        assert_eq!(
            vs,
            vec![
                Value::int(1),
                Value::int(2),
                Value::sym("a"),
                Value::sym("b"),
                Value::pair(1.into(), 1.into()),
            ]
        );
    }
}
