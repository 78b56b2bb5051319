//! Canonical 128-bit fingerprints of relational content.
//!
//! The serving layer keys its session cache by *content*: two requests
//! carrying the same `(schema, FDs, priority, instance)` — regardless
//! of declaration order — must map to the same cache slot, and
//! different content must (with overwhelming probability) map to
//! different slots. This module provides the hashing substrate:
//!
//! * [`Fingerprint`] — an opaque 128-bit digest with a stable hex
//!   rendering;
//! * [`FingerprintBuilder`] — an *ordered* mixer over words, bytes and
//!   strings, built from two independently-seeded FxHash-style lanes
//!   (the single-lane 64-bit hash in [`crate::hash`] is fine for hash
//!   maps but too collision-prone for cache identity);
//! * [`combine_unordered`] — a commutative fold (sum + xor lanes over
//!   the item digests) so *sets* of facts, FDs, or priority edges
//!   fingerprint identically under any declaration order;
//! * content fingerprints for the types this crate owns:
//!   [`fingerprint_value`], [`fingerprint_fact`],
//!   [`fingerprint_signature`], and [`fingerprint_instance`] (the
//!   instance digest is order-insensitive over its fact multiset).
//!
//! Upper layers compose these into whole-workspace fingerprints (see
//! `rpr-format::workspace_fingerprint`); the digests are **not**
//! cryptographic — they resist accidents, not adversaries, exactly like
//! every other hash in this workspace. Consumers for whom a *crafted*
//! collision would be a correctness problem (the serving session cache,
//! which keys across an HTTP trust boundary) must therefore verify
//! content equality on lookup hits rather than trust the digest alone —
//! `rpr-serve::identity` does exactly that, so a collision there
//! degrades to a cache miss, never to a wrong answer.

use crate::fact::FactContent;
use crate::instance::Instance;
use crate::signature::Signature;
use crate::value::Value;
use std::fmt;

/// The two lane seeds: distinct odd constants (the FxHash multiplier
/// and the golden-ratio constant) so the lanes decorrelate.
const SEED_A: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const SEED_B: u64 = 0x9e_37_79_b9_7f_4a_7c_15;
const ROTATE_A: u32 = 5;
const ROTATE_B: u32 = 23;

/// A 128-bit content digest.
///
/// `Fingerprint` is the session-cache key of the serving layer: equal
/// content yields equal fingerprints (the builders are deterministic,
/// with no per-process seeding), and the 128-bit width makes accidental
/// collisions across a cache's lifetime negligible.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[must_use]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The two 64-bit halves (high, low).
    pub fn halves(self) -> (u64, u64) {
        ((self.0 >> 64) as u64, self.0 as u64)
    }

    /// The canonical 32-hex-digit rendering (what `/check` responses
    /// and the metrics label use).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the canonical hex rendering back.
    pub fn from_hex(text: &str) -> Option<Fingerprint> {
        if text.len() != 32 {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(Fingerprint)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// An ordered 128-bit mixer: two independent multiply-rotate lanes fed
/// with the same word stream under different seeds and rotations.
#[derive(Clone, Debug)]
#[must_use]
pub struct FingerprintBuilder {
    a: u64,
    b: u64,
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintBuilder {
    /// A fresh builder (fixed initial state — no per-process seeding).
    pub fn new() -> Self {
        FingerprintBuilder { a: SEED_A, b: SEED_B }
    }

    /// Mixes one 64-bit word into both lanes.
    #[inline]
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.a = (self.a.rotate_left(ROTATE_A) ^ w).wrapping_mul(SEED_A);
        self.b = (self.b.rotate_left(ROTATE_B) ^ w).wrapping_mul(SEED_B);
        self
    }

    /// Mixes a byte string, length-prefixed so `("ab", "c")` and
    /// `("a", "bc")` digest differently.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
        self
    }

    /// Mixes a string (UTF-8 bytes, length-prefixed).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Mixes a previously-computed digest.
    pub fn fingerprint(&mut self, fp: Fingerprint) -> &mut Self {
        let (hi, lo) = fp.halves();
        self.word(hi).word(lo)
    }

    /// Finalizes: one extra scramble round per lane so trailing zeros
    /// don't collide with absent input.
    pub fn finish(&self) -> Fingerprint {
        let mut tail = self.clone();
        tail.word(0x000f_eed0_f00d);
        Fingerprint(((tail.a as u128) << 64) | tail.b as u128)
    }
}

/// Commutatively combines item digests: a wrapping sum and a xor fold,
/// re-mixed together with the item count. Any permutation of `items`
/// yields the same result; different multisets yield different results
/// with 128-bit-hash probability.
pub fn combine_unordered<I: IntoIterator<Item = Fingerprint>>(items: I) -> Fingerprint {
    let mut sum: u128 = 0;
    let mut xor: u128 = 0;
    let mut count: u64 = 0;
    for fp in items {
        sum = sum.wrapping_add(fp.0);
        xor ^= fp.0.rotate_left(9);
        count += 1;
    }
    let mut b = FingerprintBuilder::new();
    b.word(count)
        .word((sum >> 64) as u64)
        .word(sum as u64)
        .word((xor >> 64) as u64)
        .word(xor as u64);
    b.finish()
}

/// An incrementally-maintained [`combine_unordered`]: the commutative
/// sum/xor/count state kept live so items can be added *and removed*
/// in O(1), with `finish()` producing exactly the digest
/// `combine_unordered` would compute over the current multiset.
///
/// This is what makes workspace fingerprints patchable: a delta that
/// inserts or deletes a fact (or priority edge) updates the affected
/// lane in constant time instead of re-folding the whole multiset.
/// Removal relies on the algebra being a group: the sum lane subtracts,
/// the xor lane is its own inverse, and the count decrements — so any
/// add/remove history that ends in the same multiset ends in the same
/// state, bit for bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnorderedAccumulator {
    sum: u128,
    xor: u128,
    count: u64,
}

impl UnorderedAccumulator {
    /// An accumulator over the empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds an accumulator from an existing multiset of digests.
    pub fn from_items<I: IntoIterator<Item = Fingerprint>>(items: I) -> Self {
        let mut acc = Self::new();
        for fp in items {
            acc.add(fp);
        }
        acc
    }

    /// Adds one item digest to the multiset.
    pub fn add(&mut self, fp: Fingerprint) {
        self.sum = self.sum.wrapping_add(fp.0);
        self.xor ^= fp.0.rotate_left(9);
        self.count += 1;
    }

    /// Removes one item digest from the multiset. The caller must only
    /// remove digests previously added (the count underflows otherwise,
    /// which panics in debug builds like any other integer underflow).
    pub fn remove(&mut self, fp: Fingerprint) {
        self.sum = self.sum.wrapping_sub(fp.0);
        self.xor ^= fp.0.rotate_left(9);
        self.count -= 1;
    }

    /// Number of items currently in the multiset.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Is the multiset empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The digest of the current multiset — identical to
    /// [`combine_unordered`] over the same items.
    pub fn finish(&self) -> Fingerprint {
        let mut b = FingerprintBuilder::new();
        b.word(self.count)
            .word((self.sum >> 64) as u64)
            .word(self.sum as u64)
            .word((self.xor >> 64) as u64)
            .word(self.xor as u64);
        b.finish()
    }
}

/// Digest of a single constant (structural, recursing into pairs).
pub fn fingerprint_value(v: &Value) -> Fingerprint {
    let mut b = FingerprintBuilder::new();
    mix_value(&mut b, v);
    b.finish()
}

fn mix_value(b: &mut FingerprintBuilder, v: &Value) {
    match v {
        Value::Int(i) => {
            b.word(1).word(*i as u64);
        }
        Value::Sym(s) => {
            b.word(2).str(s);
        }
        Value::Pair(p) => {
            b.word(3);
            mix_value(b, &p.0);
            mix_value(b, &p.1);
        }
    }
}

/// Digest of one fact: the relation *name* (not the numeric id, so the
/// digest survives signature reordering) plus the tuple values in
/// attribute order.
pub fn fingerprint_fact<'v>(sig: &Signature, fact: impl FactContent<'v>) -> Fingerprint {
    let mut b = FingerprintBuilder::new();
    b.str(sig.symbol(fact.rel()).name());
    for v in fact.values() {
        mix_value(&mut b, v);
    }
    b.finish()
}

/// [`fingerprint_fact`] of every fact of `instance`, in id order. Each
/// relation's name is mixed once, into a builder every fact of the
/// relation starts from.
pub fn fingerprint_facts(instance: &Instance) -> Vec<Fingerprint> {
    let named: Vec<FingerprintBuilder> = (instance.signature().iter())
        .map(|(_, sym)| {
            let mut b = FingerprintBuilder::new();
            b.str(sym.name());
            b
        })
        .collect();
    instance
        .iter()
        .map(|(_, f)| {
            let mut b = named[f.rel().index()].clone();
            for v in f.values() {
                mix_value(&mut b, v);
            }
            b.finish()
        })
        .collect()
}

/// Digest of a signature: the *set* of `name/arity` symbols,
/// insensitive to declaration order.
pub fn fingerprint_signature(sig: &Signature) -> Fingerprint {
    combine_unordered(sig.iter().map(|(_, sym)| {
        let mut b = FingerprintBuilder::new();
        b.str(sym.name()).word(sym.arity() as u64);
        b.finish()
    }))
}

/// Digest of an instance: its signature plus the *multiset* of facts.
/// Two instances whose facts were inserted in different orders (and so
/// carry different `FactId`s) fingerprint identically.
pub fn fingerprint_instance(instance: &Instance) -> Fingerprint {
    let sig = instance.signature();
    let mut b = FingerprintBuilder::new();
    b.fingerprint(fingerprint_signature(sig));
    b.fingerprint(combine_unordered(fingerprint_facts(instance)));
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Fact;
    use crate::instance::Instance;
    use crate::signature::Signature;

    fn sig2() -> crate::fact::SigRef {
        Signature::new([("R", 2), ("S", 3)]).unwrap()
    }

    #[test]
    fn builder_is_deterministic_and_order_sensitive() {
        let mut a = FingerprintBuilder::new();
        a.str("hello").word(7);
        let mut b = FingerprintBuilder::new();
        b.str("hello").word(7);
        assert_eq!(a.finish(), b.finish());
        let mut c = FingerprintBuilder::new();
        c.word(7).str("hello");
        assert_ne!(a.finish(), c.finish());
        // Length prefixing separates concatenation ambiguities.
        let mut d = FingerprintBuilder::new();
        d.str("he").str("llo7");
        assert_ne!(a.finish(), d.finish());
    }

    #[test]
    fn empty_input_differs_from_zero_words() {
        let empty = FingerprintBuilder::new().finish();
        let mut z = FingerprintBuilder::new();
        z.word(0);
        assert_ne!(empty, z.finish());
    }

    #[test]
    fn unordered_combination_is_permutation_invariant() {
        let items: Vec<Fingerprint> = (0..50u64)
            .map(|i| {
                let mut b = FingerprintBuilder::new();
                b.word(i);
                b.finish()
            })
            .collect();
        let forward = combine_unordered(items.iter().copied());
        let backward = combine_unordered(items.iter().rev().copied());
        let mut shuffled = items.clone();
        shuffled.swap(3, 41);
        shuffled.swap(0, 17);
        assert_eq!(forward, backward);
        assert_eq!(forward, combine_unordered(shuffled));
        // Dropping one item changes the digest.
        assert_ne!(forward, combine_unordered(items[1..].iter().copied()));
        // Duplicating an item changes the digest (multiset, not set).
        let mut dup = items.clone();
        dup.push(items[0]);
        assert_ne!(forward, combine_unordered(dup));
    }

    #[test]
    fn instance_fingerprint_ignores_insertion_order() {
        let sig = sig2();
        let mut i1 = Instance::new(sig.clone());
        i1.insert_named("R", [Value::sym("a"), Value::int(1)]).unwrap();
        i1.insert_named("R", [Value::sym("b"), Value::int(2)]).unwrap();
        i1.insert_named("S", [Value::sym("x"), Value::sym("y"), Value::int(0)]).unwrap();
        let mut i2 = Instance::new(sig.clone());
        i2.insert_named("S", [Value::sym("x"), Value::sym("y"), Value::int(0)]).unwrap();
        i2.insert_named("R", [Value::sym("b"), Value::int(2)]).unwrap();
        i2.insert_named("R", [Value::sym("a"), Value::int(1)]).unwrap();
        assert_eq!(fingerprint_instance(&i1), fingerprint_instance(&i2));

        // Different content separates.
        let mut i3 = Instance::new(sig);
        i3.insert_named("R", [Value::sym("a"), Value::int(1)]).unwrap();
        assert_ne!(fingerprint_instance(&i1), fingerprint_instance(&i3));
    }

    #[test]
    fn fact_fingerprint_distinguishes_relation_and_values() {
        let sig = Signature::new([("R", 1), ("T", 1)]).unwrap();
        let r = Fact::parse_new(&sig, "R", [Value::sym("a")]).unwrap();
        let t = Fact::parse_new(&sig, "T", [Value::sym("a")]).unwrap();
        let r2 = Fact::parse_new(&sig, "R", [Value::sym("b")]).unwrap();
        assert_ne!(fingerprint_fact(&sig, &r), fingerprint_fact(&sig, &t));
        assert_ne!(fingerprint_fact(&sig, &r), fingerprint_fact(&sig, &r2));
        // Int 1 and symbol "1" are different constants.
        let i = Fact::parse_new(&sig, "R", [Value::int(1)]).unwrap();
        let s = Fact::parse_new(&sig, "R", [Value::sym("1")]).unwrap();
        assert_ne!(fingerprint_fact(&sig, &i), fingerprint_fact(&sig, &s));
    }

    #[test]
    fn accumulator_matches_combine_unordered() {
        let item = |i: u64| {
            let mut b = FingerprintBuilder::new();
            b.word(i);
            b.finish()
        };
        let items: Vec<Fingerprint> = (0..40).map(item).collect();
        let mut acc = UnorderedAccumulator::new();
        for &fp in &items {
            acc.add(fp);
        }
        assert_eq!(acc.finish(), combine_unordered(items.iter().copied()));
        assert_eq!(acc.len(), 40);

        // Remove half (in a scrambled order) — equals a fresh fold.
        for i in (0..40).step_by(2) {
            acc.remove(item(i));
        }
        let survivors: Vec<Fingerprint> = (1..40).step_by(2).map(item).collect();
        assert_eq!(acc.finish(), combine_unordered(survivors));

        // Remove-then-re-add round-trips bit for bit.
        let before = acc.clone();
        acc.remove(item(7));
        assert_ne!(acc.finish(), before.finish());
        acc.add(item(7));
        assert_eq!(acc, before);

        // Empty accumulator equals the empty fold.
        let empty = UnorderedAccumulator::new();
        assert_eq!(empty.finish(), combine_unordered(std::iter::empty()));
        assert!(empty.is_empty());
        assert_eq!(UnorderedAccumulator::from_items(items).finish(), {
            let mut a = UnorderedAccumulator::new();
            for i in 0..40 {
                a.add(item(i));
            }
            a.finish()
        });
    }

    #[test]
    fn hex_roundtrip() {
        let mut b = FingerprintBuilder::new();
        b.str("roundtrip");
        let fp = b.finish();
        assert_eq!(fp.to_hex().len(), 32);
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(format!("{fp}"), fp.to_hex());
    }

    #[test]
    fn dense_word_range_has_no_collisions() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..20_000 {
            let mut b = FingerprintBuilder::new();
            b.word(i);
            seen.insert(b.finish());
        }
        assert_eq!(seen.len(), 20_000);
    }
}
