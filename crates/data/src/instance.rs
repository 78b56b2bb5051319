//! Database instances and subinstance bitsets.
//!
//! All the repair-checking algorithms of the paper work with one fixed
//! inconsistent instance `I` and range over its *subinstances* (`J`,
//! `J′`, the sets `X`, `Y`, `F`, `F′` …). We therefore give every fact
//! of `I` a dense [`FactId`] and represent subinstances as [`FactSet`]
//! bitsets over those ids, so that the set algebra in the inner loops
//! (global/Pareto improvement tests, graph constructions) is
//! word-parallel and allocation-free.

use crate::error::DataError;
use crate::fact::{Fact, SigRef, Tuple};
use crate::hash::FxHasher;
use crate::signature::RelId;
use crate::value::{Atom, Value};
use std::fmt;
use std::hash::Hasher;
use std::mem::size_of;

/// Dense identifier of a fact within one [`Instance`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FactId(pub u32);

impl FactId {
    /// The dense index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A finite database instance: a set of facts over a signature.
///
/// Facts are deduplicated on insertion; the id of a fact is stable for
/// the lifetime of the instance. The instance is the only owner of its
/// facts: the deduplicating index holds ids, not fact copies.
#[derive(Clone)]
pub struct Instance {
    sig: SigRef,
    facts: Vec<Fact>,
    index: IdTable,
    by_rel: Vec<Vec<FactId>>,
}

impl Instance {
    /// Creates an empty instance over a signature.
    pub fn new(sig: SigRef) -> Self {
        Self::with_capacity(sig, 0)
    }

    /// Creates an empty instance with room for `facts` facts: the fact
    /// vector and the id index are sized once, so inserting up to that
    /// many facts never regrows or rehashes them. Both get the size
    /// `facts` inserts into an empty instance would grow them to, so
    /// the next insert (a delta's, say) does not reallocate either.
    pub fn with_capacity(sig: SigRef, facts: usize) -> Self {
        let nrels = sig.len();
        Instance {
            sig,
            facts: Vec::with_capacity(if facts == 0 { 0 } else { facts.next_power_of_two() }),
            index: IdTable::with_capacity(facts),
            by_rel: vec![Vec::new(); nrels],
        }
    }

    /// The instance's signature.
    pub fn signature(&self) -> &SigRef {
        &self.sig
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Inserts a fact, returning its id (existing id if already present).
    pub fn insert(&mut self, fact: Fact) -> FactId {
        let hash = fact_hash(&fact);
        if let Some(id) = self.index.get(&self.facts, hash, |f| f == &fact) {
            return id;
        }
        let id = FactId(self.facts.len() as u32);
        self.by_rel[fact.rel().index()].push(id);
        self.facts.push(fact);
        self.index.insert_new(&self.facts, hash, id);
        id
    }

    /// Inserts a fact given by relation name and values.
    ///
    /// # Errors
    /// Fails on unknown relations or arity mismatches.
    pub fn insert_named<I>(&mut self, rel: &str, values: I) -> Result<FactId, DataError>
    where
        I: IntoIterator<Item = Value>,
    {
        let fact = Fact::parse_new(&self.sig, rel, values)?;
        Ok(self.insert(fact))
    }

    /// Removes the fact with the given id, shifting every later id
    /// down by one so the dense layout stays exactly what inserting the
    /// surviving facts in order would produce. That canonical layout is
    /// what lets a patched workspace stay bit-identical (fact ids,
    /// certificates, rendered text) to a from-scratch parse of the
    /// edited content. O(n) — a delete costs one sweep of the instance.
    ///
    /// # Panics
    /// Panics if the id is not from this instance.
    pub fn remove_fact(&mut self, id: FactId) -> Fact {
        self.index.remove(&self.facts, id);
        let removed = self.facts.remove(id.index());
        for rel in &mut self.by_rel {
            rel.retain(|&f| f != id);
            for f in rel.iter_mut() {
                if *f > id {
                    f.0 -= 1;
                }
            }
        }
        removed
    }

    /// The fact with the given id.
    ///
    /// # Panics
    /// Panics if the id is not from this instance.
    pub fn fact(&self, id: FactId) -> &Fact {
        &self.facts[id.index()]
    }

    /// Looks up the id of a fact.
    pub fn id_of(&self, fact: &Fact) -> Option<FactId> {
        self.id_of_parts(fact.rel(), fact.tuple().values())
    }

    /// Looks up the id of the fact `rel(values)` without building it.
    pub fn id_of_parts(&self, rel: RelId, values: &[Value]) -> Option<FactId> {
        self.index.get(&self.facts, content_hash(rel, values), |f| {
            f.rel() == rel && f.tuple().values() == values
        })
    }

    /// Looks up the id of the fact `rel(atoms)`, whose values are given
    /// as borrowed tokens: [`id_of_parts`](Self::id_of_parts) without
    /// building a single value.
    pub fn id_of_atoms(&self, rel: RelId, atoms: &[Atom<'_>]) -> Option<FactId> {
        let mut h = FxHasher::default();
        h.write_u32(rel.0);
        for &atom in atoms {
            hash_atom(&mut h, atom);
        }
        self.index.get(&self.facts, h.finish(), |f| {
            let values = f.tuple().values();
            f.rel() == rel
                && values.len() == atoms.len()
                && atoms.iter().zip(values).all(|(a, v)| a == v)
        })
    }

    /// Does the instance contain the fact?
    pub fn contains(&self, fact: &Fact) -> bool {
        self.id_of(fact).is_some()
    }

    /// Heap bytes owned by the instance: the fact vector, every boxed
    /// tuple, the id index and the per-relation id lists. Values'
    /// own allocations (symbol text, pairs) are shared and not counted.
    pub fn heap_bytes(&self) -> usize {
        let tuples: usize = self.facts.iter().map(|f| f.tuple().len()).sum();
        let by_rel: usize = self.by_rel.iter().map(Vec::capacity).sum();
        self.facts.capacity() * size_of::<Fact>()
            + tuples * size_of::<Value>()
            + self.index.slots.capacity() * size_of::<u32>()
            + self.by_rel.capacity() * size_of::<Vec<FactId>>()
            + by_rel * size_of::<FactId>()
    }

    /// Iterates `(FactId, &Fact)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.facts.iter().enumerate().map(|(i, f)| (FactId(i as u32), f))
    }

    /// All fact ids.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> + '_ {
        (0..self.facts.len() as u32).map(FactId)
    }

    /// The facts of one relation, in insertion order.
    pub fn facts_of(&self, rel: RelId) -> &[FactId] {
        &self.by_rel[rel.index()]
    }

    /// A fresh all-zeros fact set sized to this instance.
    pub fn empty_set(&self) -> FactSet {
        FactSet::empty(self.len())
    }

    /// The fact set containing every fact of the instance.
    pub fn full_set(&self) -> FactSet {
        FactSet::full(self.len())
    }

    /// The fact set of all facts of one relation (the per-relation
    /// decomposition of Proposition 3.5).
    pub fn rel_set(&self, rel: RelId) -> FactSet {
        let mut s = self.empty_set();
        for &id in self.facts_of(rel) {
            s.insert(id);
        }
        s
    }

    /// Builds a fact set from fact ids.
    pub fn set_of<I: IntoIterator<Item = FactId>>(&self, ids: I) -> FactSet {
        let mut s = self.empty_set();
        for id in ids {
            assert!(id.index() < self.len(), "fact id out of range");
            s.insert(id);
        }
        s
    }

    /// Builds a fact set from facts (which must all be present).
    ///
    /// # Errors
    /// Fails if some fact is not in the instance.
    pub fn set_of_facts<'a, I>(&self, facts: I) -> Result<FactSet, DataError>
    where
        I: IntoIterator<Item = &'a Fact>,
    {
        let mut s = self.empty_set();
        for f in facts {
            match self.id_of(f) {
                Some(id) => s.insert(id),
                None => return Err(DataError::SignatureMismatch),
            }
        }
        Ok(s)
    }

    /// Materializes a subinstance as a fresh `Instance` (used by the Π
    /// reductions and by query evaluation, which want standalone
    /// instances).
    pub fn materialize(&self, set: &FactSet) -> Instance {
        let mut out = Instance::new(self.sig.clone());
        for id in set.iter() {
            out.insert(self.fact(id).clone());
        }
        out
    }

    /// Renders a subinstance with relation names, for diagnostics.
    pub fn render_set(&self, set: &FactSet) -> String {
        let mut parts: Vec<String> =
            set.iter().map(|id| self.fact(id).display(&self.sig).to_string()).collect();
        parts.sort();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Hashes a fact by content, as the id index keys it.
fn content_hash(rel: RelId, values: &[Value]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(rel.0);
    for v in values {
        hash_value(&mut h, v);
    }
    h.finish()
}

/// Hashes a value through its [`Atom`] form, so a value and the token
/// naming it hash alike.
fn hash_value(h: &mut FxHasher, v: &Value) {
    match v {
        Value::Int(n) => hash_atom(h, Atom::Int(*n)),
        Value::Sym(s) => hash_atom(h, Atom::Sym(s)),
        Value::Pair(p) => {
            h.write_u8(2);
            hash_value(h, &p.0);
            hash_value(h, &p.1);
        }
    }
}

/// The id index's hash of one value token: its variant, then its
/// integer or its bytes.
fn hash_atom(h: &mut FxHasher, atom: Atom<'_>) {
    match atom {
        Atom::Int(n) => {
            h.write_u8(0);
            h.write_u64(n as u64);
        }
        Atom::Sym(s) => {
            h.write_u8(1);
            h.write(s.as_bytes());
        }
    }
}

fn fact_hash(fact: &Fact) -> u64 {
    content_hash(fact.rel(), fact.tuple().values())
}

/// Marks a free slot of an [`IdTable`].
const FREE: u32 = u32::MAX;

/// The instance's deduplicating index: an open-addressing table of
/// fact ids with linear probing, hashed by fact content and compared
/// against the instance's own fact vector, so it stores no fact.
/// Kept at most half full; a power of two long once non-empty.
#[derive(Clone, Default)]
struct IdTable {
    slots: Vec<u32>,
}

impl IdTable {
    /// A table that indexes `facts` facts without growing: the smallest
    /// power of two at least twice as long, as `facts` inserts into an
    /// empty table would leave it.
    fn with_capacity(facts: usize) -> Self {
        if facts == 0 {
            return IdTable::default();
        }
        IdTable { slots: vec![FREE; (facts * 2).next_power_of_two().max(8)] }
    }

    /// The slot a hash probes first: its top bits, since FxHash mixes
    /// the high bits of its final multiply best.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn next(&self, slot: usize) -> usize {
        (slot + 1) & (self.slots.len() - 1)
    }

    /// The id of the fact hashing to `hash` that `is_it` accepts, if
    /// present.
    fn get(&self, facts: &[Fact], hash: u64, is_it: impl Fn(&Fact) -> bool) -> Option<FactId> {
        if self.slots.is_empty() {
            return None;
        }
        let mut slot = self.home(hash);
        loop {
            let id = self.slots[slot];
            if id == FREE {
                return None;
            }
            if is_it(&facts[id as usize]) {
                return Some(FactId(id));
            }
            slot = self.next(slot);
        }
    }

    /// Indexes `id`, the last fact of `facts` and not yet indexed,
    /// hashing to `hash`. Doubles the table first when it would pass
    /// half full.
    fn insert_new(&mut self, facts: &[Fact], hash: u64, id: FactId) {
        if facts.len() * 2 > self.slots.len() {
            self.slots = vec![FREE; (self.slots.len() * 2).max(8)];
            for (i, fact) in facts[..facts.len() - 1].iter().enumerate() {
                self.place(fact_hash(fact), i as u32);
            }
        }
        self.place(hash, id.0);
    }

    fn place(&mut self, hash: u64, id: u32) {
        let mut slot = self.home(hash);
        while self.slots[slot] != FREE {
            slot = self.next(slot);
        }
        self.slots[slot] = id;
    }

    /// Unindexes `id` by backward-shift deletion, then renumbers every
    /// later id down by one, as [`Instance::remove_fact`] renumbers
    /// the facts. `facts` is still the layout before the removal.
    fn remove(&mut self, facts: &[Fact], id: FactId) {
        let mut hole = self.home(fact_hash(&facts[id.index()]));
        while self.slots[hole] != id.0 {
            hole = self.next(hole);
        }
        // Pull each later member of the probe run back into the hole
        // unless that would move it before its home slot.
        let mask = self.slots.len() - 1;
        let mut slot = hole;
        loop {
            slot = self.next(slot);
            let other = self.slots[slot];
            if other == FREE {
                break;
            }
            let home = self.home(fact_hash(&facts[other as usize]));
            if slot.wrapping_sub(home) & mask >= slot.wrapping_sub(hole) & mask {
                self.slots[hole] = other;
                hole = slot;
            }
        }
        self.slots[hole] = FREE;
        for slot in &mut self.slots {
            if *slot != FREE && *slot > id.0 {
                *slot -= 1;
            }
        }
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Instance over [{}]:", self.sig)?;
        for (_, fact) in self.iter() {
            writeln!(f, "  {}", fact.display(&self.sig))?;
        }
        Ok(())
    }
}

/// A subinstance of a fixed base [`Instance`], as a bitset of fact ids.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactSet {
    words: Vec<u64>,
    universe: usize,
}

impl FactSet {
    /// The empty set over a universe of `universe` facts.
    pub fn empty(universe: usize) -> Self {
        FactSet { words: vec![0; universe.div_ceil(64)], universe }
    }

    /// The full set over a universe of `universe` facts.
    pub fn full(universe: usize) -> Self {
        let mut s = FactSet::empty(universe);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.universe;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Size of the universe this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of facts in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Membership test.
    pub fn contains(&self, id: FactId) -> bool {
        let i = id.index();
        i < self.universe && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Adds a fact.
    ///
    /// # Panics
    /// Panics if the id is outside the universe.
    pub fn insert(&mut self, id: FactId) {
        let i = id.index();
        assert!(i < self.universe, "fact id {i} outside universe {}", self.universe);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes a fact (no-op if absent).
    pub fn remove(&mut self, id: FactId) {
        let i = id.index();
        if i < self.universe {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Extends the universe (new ids start absent). Used by the delta
    /// path when a fact is appended to the base instance.
    ///
    /// # Panics
    /// Panics if `new_universe` is smaller than the current universe.
    pub fn grow(&mut self, new_universe: usize) {
        assert!(new_universe >= self.universe, "universe cannot shrink via grow");
        self.universe = new_universe;
        self.words.resize(new_universe.div_ceil(64), 0);
    }

    /// Deletes position `id` from the universe entirely: the bit at
    /// `id` is dropped and every higher bit shifts down by one, i.e.
    /// the set follows [`Instance::remove_fact`]'s id renumbering.
    ///
    /// # Panics
    /// Panics if the id is outside the universe.
    pub fn remove_shift(&mut self, id: FactId) {
        let i = id.index();
        assert!(i < self.universe, "fact id {i} outside universe {}", self.universe);
        let w = i / 64;
        let b = i % 64;
        let low_mask = (1u64 << b) - 1;
        let word = self.words[w];
        self.words[w] = (word & low_mask) | ((word >> 1) & !low_mask);
        for k in w + 1..self.words.len() {
            let carry = self.words[k] & 1;
            self.words[k - 1] |= carry << 63;
            self.words[k] >>= 1;
        }
        self.universe -= 1;
        self.words.truncate(self.universe.div_ceil(64));
        self.trim();
    }

    /// `self ∪ other`.
    #[must_use]
    pub fn union(&self, other: &FactSet) -> FactSet {
        self.zip_with(other, |a, b| a | b)
    }

    /// `self ∩ other`.
    #[must_use]
    pub fn intersect(&self, other: &FactSet) -> FactSet {
        self.zip_with(other, |a, b| a & b)
    }

    /// `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &FactSet) -> FactSet {
        self.zip_with(other, |a, b| a & !b)
    }

    /// Complement within the universe.
    #[must_use]
    pub fn complement(&self) -> FactSet {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.trim();
        out
    }

    fn zip_with(&self, other: &FactSet, f: impl Fn(u64, u64) -> u64) -> FactSet {
        assert_eq!(self.universe, other.universe, "fact sets over different instances");
        FactSet {
            words: self.words.iter().zip(&other.words).map(|(&a, &b)| f(a, b)).collect(),
            universe: self.universe,
        }
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &FactSet) -> bool {
        assert_eq!(self.universe, other.universe, "fact sets over different instances");
        self.words.iter().zip(&other.words).all(|(&a, &b)| a & !b == 0)
    }

    /// Is `self ∩ other = ∅`?
    pub fn is_disjoint(&self, other: &FactSet) -> bool {
        assert_eq!(self.universe, other.universe, "fact sets over different instances");
        self.words.iter().zip(&other.words).all(|(&a, &b)| a & b == 0)
    }

    /// Iterates members in increasing id order.
    pub fn iter(&self) -> FactSetIter<'_> {
        FactSetIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// An arbitrary member, if any.
    pub fn first(&self) -> Option<FactId> {
        self.iter().next()
    }

    /// Iterates `self ∩ other` in increasing id order without
    /// materializing the intersection.
    pub fn iter_intersect<'a>(&'a self, other: &'a FactSet) -> impl Iterator<Item = FactId> + 'a {
        self.iter_zip(other, |a, b| a & b)
    }

    /// Iterates `self \ other` in increasing id order without
    /// materializing the difference.
    pub fn iter_difference<'a>(&'a self, other: &'a FactSet) -> impl Iterator<Item = FactId> + 'a {
        self.iter_zip(other, |a, b| a & !b)
    }

    fn iter_zip<'a>(
        &'a self,
        other: &'a FactSet,
        f: impl Fn(u64, u64) -> u64 + 'a,
    ) -> impl Iterator<Item = FactId> + 'a {
        assert_eq!(self.universe, other.universe, "fact sets over different instances");
        self.words.iter().zip(&other.words).enumerate().flat_map(move |(w, (&a, &b))| {
            let mut bits = f(a, b);
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(FactId((w * 64 + tz) as u32))
            })
        })
    }
}

impl fmt::Debug for FactSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", id.0)?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the members of a [`FactSet`].
pub struct FactSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for FactSetIter<'_> {
    type Item = FactId;

    fn next(&mut self) -> Option<FactId> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(FactId((self.word_idx * 64 + tz) as u32));
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// Convenience: build a [`Tuple`] from anything convertible to values.
pub fn tuple<const N: usize>(values: [impl Into<Value>; N]) -> Tuple {
    Tuple::new(values.into_iter().map(Into::into))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn small_instance() -> Instance {
        let sig = Signature::new([("R", 2), ("S", 1)]).unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [Value::sym("a"), Value::sym("b")]).unwrap();
        i.insert_named("R", [Value::sym("a"), Value::sym("c")]).unwrap();
        i.insert_named("S", [Value::sym("x")]).unwrap();
        i
    }

    #[test]
    fn insertion_dedups_and_ids_are_stable() {
        let mut i = small_instance();
        assert_eq!(i.len(), 3);
        let id = i.insert_named("R", [Value::sym("a"), Value::sym("b")]).unwrap();
        assert_eq!(id, FactId(0));
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn per_relation_listing() {
        let i = small_instance();
        let r = i.signature().rel_id("R").unwrap();
        let s = i.signature().rel_id("S").unwrap();
        assert_eq!(i.facts_of(r).len(), 2);
        assert_eq!(i.facts_of(s), &[FactId(2)]);
        assert_eq!(i.rel_set(r).len(), 2);
        assert!(!i.rel_set(r).contains(FactId(2)));
    }

    #[test]
    fn unknown_relation_rejected() {
        let mut i = small_instance();
        assert!(i.insert_named("T", [Value::sym("x")]).is_err());
    }

    #[test]
    fn factset_algebra() {
        let a = {
            let mut s = FactSet::empty(130);
            s.insert(FactId(0));
            s.insert(FactId(64));
            s.insert(FactId(129));
            s
        };
        let b = {
            let mut s = FactSet::empty(130);
            s.insert(FactId(64));
            s.insert(FactId(100));
            s
        };
        assert_eq!(a.len(), 3);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersect(&b).iter().collect::<Vec<_>>(), vec![FactId(64)]);
        assert_eq!(a.difference(&b).len(), 2);
        assert!(a.intersect(&b).is_subset(&a));
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
        // The lazy iterators list exactly the materialized sets.
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            let lazy: Vec<_> = x.iter_intersect(y).collect();
            assert_eq!(lazy, x.intersect(y).iter().collect::<Vec<_>>());
            let lazy: Vec<_> = x.iter_difference(y).collect();
            assert_eq!(lazy, x.difference(y).iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn complement_respects_universe() {
        let mut s = FactSet::empty(70);
        s.insert(FactId(3));
        let c = s.complement();
        assert_eq!(c.len(), 69);
        assert!(!c.contains(FactId(3)));
        assert!(c.contains(FactId(69)));
        // No phantom bits beyond the universe.
        assert_eq!(c.union(&s).len(), 70);
        assert_eq!(FactSet::full(70), c.union(&s));
    }

    #[test]
    fn iteration_in_order() {
        let mut s = FactSet::empty(200);
        for i in [5u32, 63, 64, 65, 199] {
            s.insert(FactId(i));
        }
        let got: Vec<u32> = s.iter().map(|f| f.0).collect();
        assert_eq!(got, vec![5, 63, 64, 65, 199]);
        assert_eq!(s.first(), Some(FactId(5)));
        assert_eq!(FactSet::empty(10).first(), None);
    }

    #[test]
    fn remove_fact_shifts_ids_like_a_reinsert() {
        let mut i = small_instance();
        let removed = i.remove_fact(FactId(1)); // R(a,c)
        assert_eq!(removed.display(i.signature()).to_string(), "R(a,c)");
        assert_eq!(i.len(), 2);
        // Survivors keep their relative order under dense renumbering.
        assert_eq!(i.fact(FactId(0)).display(i.signature()).to_string(), "R(a,b)");
        assert_eq!(i.fact(FactId(1)).display(i.signature()).to_string(), "S(x)");
        assert_eq!(i.id_of(&removed), None);
        let s = i.signature().rel_id("S").unwrap();
        assert_eq!(i.facts_of(s), &[FactId(1)]);
        // The layout equals a fresh instance built from the survivors.
        let mut fresh = Instance::new(i.signature().clone());
        fresh.insert_named("R", [Value::sym("a"), Value::sym("b")]).unwrap();
        fresh.insert_named("S", [Value::sym("x")]).unwrap();
        for (id, fact) in i.iter() {
            assert_eq!(fresh.id_of(fact), Some(id));
        }
    }

    #[test]
    fn factset_grow_and_remove_shift() {
        let mut s = FactSet::empty(130);
        for id in [3u32, 63, 64, 65, 129] {
            s.insert(FactId(id));
        }
        // Deleting position 64 drops it and shifts 65→64, 129→128.
        s.remove_shift(FactId(64));
        assert_eq!(s.universe(), 129);
        assert_eq!(s.iter().map(|f| f.0).collect::<Vec<_>>(), vec![3, 63, 64, 128]);
        // Deleting an absent position still renumbers the ones above.
        s.remove_shift(FactId(0));
        assert_eq!(s.iter().map(|f| f.0).collect::<Vec<_>>(), vec![2, 62, 63, 127]);
        assert_eq!(s.universe(), 128);
        // Growing appends absent ids and permits inserting them.
        s.grow(200);
        assert_eq!(s.universe(), 200);
        assert_eq!(s.len(), 4);
        s.insert(FactId(199));
        assert!(s.contains(FactId(199)));
        // Shrinking a universe across a word boundary stays exact.
        let mut t = FactSet::full(65);
        t.remove_shift(FactId(10));
        assert_eq!(t, FactSet::full(64));
    }

    #[test]
    #[should_panic]
    fn insert_outside_universe_panics() {
        let mut s = FactSet::empty(10);
        s.insert(FactId(10));
    }

    #[test]
    #[should_panic]
    fn mixed_universe_algebra_panics() {
        let a = FactSet::empty(10);
        let b = FactSet::empty(11);
        let _ = a.union(&b);
    }

    #[test]
    fn materialize_roundtrip() {
        let i = small_instance();
        let sub = i.set_of([FactId(0), FactId(2)]);
        let m = i.materialize(&sub);
        assert_eq!(m.len(), 2);
        assert!(m.contains(i.fact(FactId(0))));
        assert!(m.contains(i.fact(FactId(2))));
        assert!(!m.contains(i.fact(FactId(1))));
    }

    #[test]
    fn render_set_is_sorted_and_named() {
        let i = small_instance();
        let sub = i.set_of([FactId(1), FactId(2)]);
        assert_eq!(i.render_set(&sub), "{R(a,c), S(x)}");
    }

    /// One step of a random index workload; operands pick from a pool.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Insert(usize),
        Remove(usize),
        Clone,
        Lookup(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..8, 0usize..1 << 16).prop_map(|(kind, n)| match kind {
            0..=3 => Op::Insert(n),
            4 => Op::Remove(n),
            5 => Op::Clone,
            _ => Op::Lookup(n),
        })
    }

    /// Asserts `inst` matches the model: a fact vector in id order and
    /// the map a `HashMap<Fact, FactId>` index would hold.
    fn assert_matches_model(inst: &Instance, facts: &[Fact], pool: &[Fact]) {
        let model: HashMap<&Fact, FactId> =
            facts.iter().enumerate().map(|(i, f)| (f, FactId(i as u32))).collect();
        assert_eq!(inst.len(), facts.len());
        for (id, fact) in inst.iter() {
            assert_eq!(fact, &facts[id.index()]);
        }
        for fact in pool {
            let want = model.get(fact).copied();
            assert_eq!(inst.id_of(fact), want, "{fact:?}");
            assert_eq!(inst.id_of_parts(fact.rel(), fact.tuple().values()), want, "{fact:?}");
            assert_eq!(inst.contains(fact), want.is_some());
        }
        for (r, _) in inst.signature().iter() {
            let want: Vec<FactId> =
                inst.fact_ids().filter(|&id| facts[id.index()].rel() == r).collect();
            assert_eq!(inst.facts_of(r), want.as_slice());
        }
    }

    /// Replays `ops` on an instance and on the model, checking after
    /// every step, and after every removal that the ids equal a fresh
    /// insert of the survivors in order.
    fn replay(sig: &SigRef, pool: &[Fact], ops: &[Op]) {
        let mut inst = Instance::new(sig.clone());
        let mut facts: Vec<Fact> = Vec::new();
        for &op in ops {
            match op {
                Op::Insert(n) => {
                    let fact = &pool[n % pool.len()];
                    let want = match facts.iter().position(|f| f == fact) {
                        Some(i) => FactId(i as u32),
                        None => {
                            facts.push(fact.clone());
                            FactId(facts.len() as u32 - 1)
                        }
                    };
                    assert_eq!(inst.insert(fact.clone()), want);
                }
                Op::Remove(n) if !facts.is_empty() => {
                    let i = n % facts.len();
                    assert_eq!(inst.remove_fact(FactId(i as u32)), facts.remove(i));
                    let mut fresh = Instance::new(sig.clone());
                    for fact in &facts {
                        fresh.insert(fact.clone());
                    }
                    for (id, fact) in inst.iter() {
                        assert_eq!(fresh.id_of(fact), Some(id));
                    }
                }
                Op::Remove(_) => {}
                Op::Clone => {
                    let copy = inst.clone();
                    assert_matches_model(&inst, &facts, pool);
                    inst = copy;
                }
                Op::Lookup(n) => {
                    let fact = &pool[n % pool.len()];
                    let want = facts.iter().position(|f| f == fact).map(|i| FactId(i as u32));
                    assert_eq!(inst.id_of(fact), want);
                }
            }
            assert_matches_model(&inst, &facts, pool);
        }
    }

    fn model_sig() -> SigRef {
        Signature::new([("R", 2), ("S", 1)]).unwrap()
    }

    /// A pool of mixed facts: small domains, so inserts repeat often.
    fn mixed_pool(sig: &SigRef) -> Vec<Fact> {
        let mut pool = Vec::new();
        for a in 0..6 {
            for b in ["x", "y", "z"] {
                pool.push(Fact::parse_new(sig, "R", [Value::Int(a), Value::sym(b)]).unwrap());
            }
            pool.push(Fact::parse_new(sig, "S", [Value::Int(a)]).unwrap());
        }
        pool.push(
            Fact::parse_new(sig, "S", [Value::pair(Value::Int(1), Value::sym("p"))]).unwrap(),
        );
        pool
    }

    /// Facts whose top six hash bits are all ones: every table up to 64
    /// slots homes them all on its last slot, so each probe run
    /// collides and wraps around to slot 0.
    fn colliding_pool(sig: &SigRef) -> Vec<Fact> {
        let s = sig.rel_id("S").unwrap();
        let pool: Vec<Fact> = (0..)
            .map(|n| Fact::new(sig, s, Tuple::new([Value::Int(n)])).unwrap())
            .filter(|f| fact_hash(f) >> 58 == 63)
            .take(30)
            .collect();
        let mut table = IdTable { slots: vec![FREE; 64] };
        assert!(pool.iter().all(|f| table.home(fact_hash(f)) == 63));
        table.slots.truncate(8);
        assert!(pool.iter().all(|f| table.home(fact_hash(f)) == 7));
        pool
    }

    proptest! {
        #[test]
        fn id_index_matches_a_hash_map_model(ops in proptest::collection::vec(op(), 0..120)) {
            let sig = model_sig();
            replay(&sig, &mixed_pool(&sig), &ops);
        }

        #[test]
        fn colliding_and_wrapping_probe_runs_match_the_model(
            ops in proptest::collection::vec(op(), 0..120),
        ) {
            let sig = model_sig();
            replay(&sig, &colliding_pool(&sig), &ops);
        }
    }

    /// The atoms naming `values`, unless one is a pair.
    fn atoms_of(values: &[Value]) -> Option<Vec<Atom<'_>>> {
        values
            .iter()
            .map(|v| match v {
                Value::Int(n) => Some(Atom::Int(*n)),
                Value::Sym(s) => Some(Atom::Sym(s)),
                Value::Pair(_) => None,
            })
            .collect()
    }

    /// `pool` plus each fact's look-alike: every int swapped for the
    /// symbol spelling it.
    fn with_look_alikes(sig: &SigRef, mut pool: Vec<Fact>) -> Vec<Fact> {
        let spelled = |v: &Value| match v {
            Value::Int(n) => Value::sym(n.to_string()),
            other => other.clone(),
        };
        let twins: Vec<Fact> = pool
            .iter()
            .map(|f| Fact::new(sig, f.rel(), Tuple::new(f.tuple().values().iter().map(spelled))))
            .collect::<Result<_, _>>()
            .unwrap();
        pool.extend(twins);
        pool
    }

    proptest! {
        #[test]
        fn atom_lookups_match_value_lookups(
            picks in proptest::collection::vec(0usize..1 << 16, 0..60),
            colliding in any::<bool>(),
        ) {
            let sig = model_sig();
            let base = if colliding { colliding_pool(&sig) } else { mixed_pool(&sig) };
            let pool = with_look_alikes(&sig, base);
            let mut inst = Instance::new(sig.clone());
            // Insert only from the first half: the look-alikes of
            // present facts are probed absent.
            for n in picks {
                inst.insert(pool[n % (pool.len() / 2)].clone());
            }
            for fact in &pool {
                let values = fact.tuple().values();
                if let Some(atoms) = atoms_of(values) {
                    prop_assert_eq!(
                        inst.id_of_atoms(fact.rel(), &atoms),
                        inst.id_of_parts(fact.rel(), values),
                        "{:?}",
                        fact
                    );
                }
            }
        }
    }

    #[test]
    fn an_int_token_never_finds_a_numeric_symbol() {
        let sig = model_sig();
        let s = sig.rel_id("S").unwrap();
        let mut inst = Instance::new(sig.clone());
        inst.insert_named("S", [Value::sym("5")]).unwrap();
        assert_eq!(inst.id_of_atoms(s, &[Atom::Int(5)]), None);
        assert_eq!(inst.id_of_atoms(s, &[Atom::Sym("5")]), Some(FactId(0)));
        inst.insert_named("S", [Value::Int(5)]).unwrap();
        assert_eq!(inst.id_of_atoms(s, &[Atom::Int(5)]), Some(FactId(1)));
        // Wrong relation or width: absent.
        let r = sig.rel_id("R").unwrap();
        assert_eq!(inst.id_of_atoms(r, &[Atom::Int(5)]), None);
        assert_eq!(inst.id_of_atoms(s, &[Atom::Int(5), Atom::Int(5)]), None);
    }

    #[test]
    fn a_presized_instance_matches_a_grown_one() {
        let sig = model_sig();
        let pool = mixed_pool(&sig);
        let mut grown = Instance::new(sig.clone());
        let mut sized = Instance::with_capacity(sig.clone(), pool.len());
        let slots = sized.index.slots.len();
        for fact in &pool {
            assert_eq!(grown.insert(fact.clone()), sized.insert(fact.clone()));
        }
        // Presized to exactly the table and vector the inserts grew to:
        // no rehash, and no reallocation on the next insert either.
        assert_eq!(sized.index.slots.len(), slots);
        assert_eq!(grown.index.slots.len(), slots);
        assert_eq!(sized.facts.capacity(), grown.facts.capacity());
        for fact in &pool {
            assert_eq!(sized.id_of(fact), grown.id_of(fact));
        }
    }

    #[test]
    fn removing_every_colliding_fact_in_turn_keeps_lookups_exact() {
        let sig = model_sig();
        let pool = colliding_pool(&sig);
        // Fill, then delete from the front, the back and the middle of
        // one wrapped probe run.
        for pick in [0usize, usize::MAX, 7] {
            let mut ops: Vec<Op> = (0..pool.len()).map(Op::Insert).collect();
            ops.extend((0..pool.len()).map(|_| Op::Remove(pick)));
            replay(&sig, &pool, &ops);
        }
    }

    #[test]
    fn heap_bytes_counts_facts_tuples_and_index() {
        let i = small_instance();
        let floor = 3 * size_of::<Fact>() + 5 * size_of::<Value>() + 3 * size_of::<u32>();
        assert!(i.heap_bytes() >= floor, "{} < {floor}", i.heap_bytes());
        assert_eq!(Instance::new(model_sig()).heap_bytes(), 2 * size_of::<Vec<FactId>>());
    }

    #[test]
    fn set_of_facts_checks_membership() {
        let i = small_instance();
        let present = i.fact(FactId(0)).clone();
        assert_eq!(i.set_of_facts([&present]).unwrap().len(), 1);
        let absent = Fact::parse_new(i.signature(), "S", [Value::sym("zz")]).unwrap();
        assert!(i.set_of_facts([&absent]).is_err());
    }
}
