//! Tuples and facts (§2.1).
//!
//! A *fact* is `R(t)` for a relation symbol `R` and a tuple `t` of
//! constants whose width equals `arity(R)`. Instances are identified with
//! their sets of facts.

use crate::attrset::AttrSet;
use crate::dict::ValueId;
use crate::error::DataError;
use crate::signature::{RelId, Signature};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A tuple of constants.
///
/// Stored as a boxed slice (two words, no spare capacity — facts are
/// immutable after construction).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Tuple(values.into_iter().collect())
    }

    /// Width of the tuple.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is the tuple empty? (Never true for well-formed facts.)
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value at (1-based) attribute `attr`.
    ///
    /// # Panics
    /// Panics if `attr` is `0` or exceeds the width.
    pub fn get(&self, attr: usize) -> &Value {
        &self.0[attr - 1]
    }

    /// All values, in attribute order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The projection onto an attribute set, in increasing attribute
    /// order. This is the paper's `f[A]` notation (§4.2).
    pub fn project(&self, attrs: AttrSet) -> Tuple {
        Tuple(attrs.iter().map(|a| self.0[a - 1].clone()).collect())
    }

    /// Do `self` and `other` agree on (have equal values for) every
    /// attribute in `attrs`? This is the paper's "agree on A" (§2.2).
    pub fn agrees_on(&self, other: &Tuple, attrs: AttrSet) -> bool {
        attrs.iter().all(|a| self.0[a - 1] == other.0[a - 1])
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(values: [Value; N]) -> Self {
        Tuple::new(values)
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_row(f, &self.0)
    }
}

/// Writes values as `(v1,…,vn)`.
fn write_row<'v>(
    f: &mut fmt::Formatter<'_>,
    values: impl IntoIterator<Item = &'v Value>,
) -> fmt::Result {
    write!(f, "(")?;
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{v}")?;
    }
    write!(f, ")")
}

/// A fact `R(t)`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    rel: RelId,
    tuple: Tuple,
}

impl Fact {
    /// Builds a fact, checking the tuple width against the signature.
    ///
    /// # Errors
    /// Fails if the tuple width differs from the relation's arity.
    pub fn new(sig: &Signature, rel: RelId, tuple: Tuple) -> Result<Self, DataError> {
        let expected = sig.arity(rel);
        if tuple.len() != expected {
            return Err(DataError::ArityMismatch {
                relation: sig.symbol(rel).name().to_owned(),
                expected,
                got: tuple.len(),
            });
        }
        Ok(Fact { rel, tuple })
    }

    /// Convenience constructor resolving the relation by name.
    ///
    /// # Errors
    /// Fails on unknown relation names or arity mismatches.
    pub fn parse_new<I>(sig: &Signature, rel_name: &str, values: I) -> Result<Self, DataError>
    where
        I: IntoIterator<Item = Value>,
    {
        let rel = sig.require(rel_name)?;
        Fact::new(sig, rel, Tuple::new(values))
    }

    /// The relation this fact belongs to.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The fact's tuple.
    pub fn tuple(&self) -> &Tuple {
        &self.tuple
    }

    /// The value at (1-based) attribute `attr`.
    pub fn get(&self, attr: usize) -> &Value {
        self.tuple.get(attr)
    }

    /// The projection `f[A]` (§4.2).
    pub fn project(&self, attrs: AttrSet) -> Tuple {
        self.tuple.project(attrs)
    }

    /// The values, in attribute order.
    pub fn values(&self) -> &[Value] {
        self.tuple.values()
    }

    /// Renders the fact with its relation name.
    pub fn display<'a>(&'a self, sig: &'a Signature) -> FactDisplay<'a> {
        FactDisplay { name: sig.symbol(self.rel).name(), values: Row::Owned(self.values()) }
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}{}", self.rel.0, self.tuple)
    }
}

/// A fact of an instance, borrowed: its relation and its row of
/// [`ValueId`]s, each read through the instance's value dictionary.
/// Copying the view copies three words.
#[derive(Clone, Copy)]
pub struct FactRef<'a> {
    rel: RelId,
    ids: &'a [ValueId],
    dict: &'a [Value],
}

impl<'a> FactRef<'a> {
    /// The view of the row `ids` of relation `rel` over the dictionary
    /// slots `dict`.
    pub(crate) fn new(rel: RelId, ids: &'a [ValueId], dict: &'a [Value]) -> Self {
        FactRef { rel, ids, dict }
    }

    /// The relation this fact belongs to.
    pub fn rel(self) -> RelId {
        self.rel
    }

    /// Width of the fact (its relation's arity).
    pub fn len(self) -> usize {
        self.ids.len()
    }

    /// Is the fact empty? (Never true for well-formed facts.)
    pub fn is_empty(self) -> bool {
        self.ids.is_empty()
    }

    /// The value at (1-based) attribute `attr`.
    ///
    /// # Panics
    /// Panics if `attr` is `0` or exceeds the width.
    #[inline]
    pub fn get(self, attr: usize) -> &'a Value {
        &self.dict[self.ids[attr - 1].index()]
    }

    /// The dictionary id of the value at (1-based) attribute `attr`:
    /// two facts of one instance hold equal values there exactly when
    /// the ids are equal.
    #[inline]
    pub fn id(self, attr: usize) -> ValueId {
        self.ids[attr - 1]
    }

    /// The row of value ids, in attribute order.
    pub fn ids(self) -> &'a [ValueId] {
        self.ids
    }

    /// The values, in attribute order.
    pub fn values(self) -> impl ExactSizeIterator<Item = &'a Value> + Clone + 'a {
        let dict = self.dict;
        self.ids.iter().map(move |id| &dict[id.index()])
    }

    /// The projection `f[A]` (§4.2), owned.
    pub fn project(self, attrs: AttrSet) -> Tuple {
        Tuple(attrs.iter().map(|a| self.get(a).clone()).collect())
    }

    /// The fact as an owned [`Fact`].
    pub fn to_fact(self) -> Fact {
        Fact { rel: self.rel, tuple: Tuple(self.values().cloned().collect()) }
    }

    /// Do the two facts agree on all attributes of `attrs`? Facts of
    /// different relations never do. Facts of one instance compare ids.
    pub fn agrees_on(self, other: FactRef<'_>, attrs: AttrSet) -> bool {
        self.rel == other.rel
            && if std::ptr::eq(self.dict, other.dict) {
                attrs.iter().all(|a| self.id(a) == other.id(a))
            } else {
                attrs.iter().all(|a| self.get(a) == other.get(a))
            }
    }

    /// Renders the fact with its relation name.
    pub fn display(self, sig: &'a Signature) -> FactDisplay<'a> {
        FactDisplay { name: sig.symbol(self.rel).name(), values: Row::Ids(self.ids, self.dict) }
    }
}

impl PartialEq for FactRef<'_> {
    fn eq(&self, other: &FactRef<'_>) -> bool {
        self.rel == other.rel && self.len() == other.len() && self.values().eq(other.values())
    }
}

impl PartialEq<Fact> for FactRef<'_> {
    fn eq(&self, other: &Fact) -> bool {
        self.rel == other.rel && self.len() == other.tuple.len() && self.values().eq(other.values())
    }
}

impl PartialEq<&Fact> for FactRef<'_> {
    fn eq(&self, other: &&Fact) -> bool {
        self == *other
    }
}

impl PartialEq<FactRef<'_>> for Fact {
    fn eq(&self, other: &FactRef<'_>) -> bool {
        other == self
    }
}

impl fmt::Debug for FactRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.rel.0)?;
        write_row(f, self.values())
    }
}

/// A fact's content, owned ([`&Fact`](Fact)) or borrowed from an
/// instance ([`FactRef`]): what content digests and FD tests read.
pub trait FactContent<'v>: Copy {
    /// The relation.
    fn rel(self) -> RelId;
    /// The values, in attribute order.
    fn values(self) -> impl Iterator<Item = &'v Value>;
    /// The value at (1-based) attribute `attr`.
    fn get(self, attr: usize) -> &'v Value;
}

impl<'v> FactContent<'v> for &'v Fact {
    fn rel(self) -> RelId {
        self.rel
    }
    fn values(self) -> impl Iterator<Item = &'v Value> {
        self.tuple.0.iter()
    }
    fn get(self, attr: usize) -> &'v Value {
        self.tuple.get(attr)
    }
}

impl<'v> FactContent<'v> for FactRef<'v> {
    fn rel(self) -> RelId {
        self.rel
    }
    fn values(self) -> impl Iterator<Item = &'v Value> {
        FactRef::values(self)
    }
    fn get(self, attr: usize) -> &'v Value {
        FactRef::get(self, attr)
    }
}

impl<'v> FactContent<'v> for &FactRef<'v> {
    fn rel(self) -> RelId {
        self.rel
    }
    fn values(self) -> impl Iterator<Item = &'v Value> {
        FactRef::values(*self)
    }
    fn get(self, attr: usize) -> &'v Value {
        FactRef::get(*self, attr)
    }
}

/// A row of values to render: owned by a fact, or ids read through a
/// dictionary.
#[derive(Clone, Copy)]
enum Row<'a> {
    Owned(&'a [Value]),
    Ids(&'a [ValueId], &'a [Value]),
}

/// Helper for rendering a fact with its relation name resolved.
pub struct FactDisplay<'a> {
    name: &'a str,
    values: Row<'a>,
}

impl fmt::Display for FactDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        match self.values {
            Row::Owned(values) => write_row(f, values),
            Row::Ids(ids, dict) => write_row(f, ids.iter().map(|id| &dict[id.index()])),
        }
    }
}

/// Shared handle to a signature, used across facts/instances/schemas.
pub type SigRef = Arc<Signature>;

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> SigRef {
        Signature::new([("R", 3), ("S", 2)]).unwrap()
    }

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    #[test]
    fn tuple_projection_and_agreement() {
        let t = Tuple::new([v("a"), v("b"), v("c")]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(2), &v("b"));
        assert_eq!(t.project(AttrSet::from_attrs([1, 3])), Tuple::new([v("a"), v("c")]));
        assert_eq!(t.project(AttrSet::EMPTY), Tuple::new([]));

        let u = Tuple::new([v("a"), v("x"), v("c")]);
        assert!(t.agrees_on(&u, AttrSet::from_attrs([1, 3])));
        assert!(!t.agrees_on(&u, AttrSet::from_attrs([1, 2])));
        // Every pair of tuples vacuously agrees on the empty set.
        assert!(t.agrees_on(&u, AttrSet::EMPTY));
    }

    #[test]
    fn fact_construction_checks_arity() {
        let sig = sig();
        let r = sig.rel_id("R").unwrap();
        assert!(Fact::new(&sig, r, Tuple::new([v("a"), v("b"), v("c")])).is_ok());
        assert!(matches!(
            Fact::new(&sig, r, Tuple::new([v("a")])),
            Err(DataError::ArityMismatch { .. })
        ));
        assert!(Fact::parse_new(&sig, "T", [v("a")]).is_err());
    }

    #[test]
    fn facts_of_different_relations_never_agree() {
        let mut i = crate::Instance::new(sig());
        let f = i.insert_named("S", [v("a"), v("b")]).unwrap();
        let g = i.insert_named("R", [v("a"), v("b"), v("c")]).unwrap();
        let h = i.insert_named("R", [v("a"), v("x"), v("c")]).unwrap();
        let (f, g, h) = (i.fact(f), i.fact(g), i.fact(h));
        assert!(!f.agrees_on(g, AttrSet::EMPTY));
        assert!(!f.agrees_on(g, AttrSet::singleton(1)));
        // Facts of one relation compare by value id; of another
        // instance, by value.
        assert!(g.agrees_on(h, AttrSet::from_attrs([1, 3])));
        assert!(!g.agrees_on(h, AttrSet::from_attrs([1, 2])));
        // Another instance numbers the same values differently.
        let mut other = crate::Instance::new(sig());
        let x = other.insert_named("R", [v("c"), v("x"), v("a")]).unwrap();
        let y = other.insert_named("R", [v("a"), v("x"), v("c")]).unwrap();
        assert!(g.agrees_on(other.fact(y), AttrSet::from_attrs([1, 3])));
        assert!(!g.agrees_on(other.fact(y), AttrSet::from_attrs([2])));
        assert!(!g.agrees_on(other.fact(x), AttrSet::from_attrs([1])));
    }

    #[test]
    fn display_resolves_relation_name() {
        let sig = sig();
        let f = Fact::parse_new(&sig, "S", [v("lib1"), v("almaden")]).unwrap();
        assert_eq!(f.display(&sig).to_string(), "S(lib1,almaden)");
    }
}
