//! Database instances and subinstance bitsets.
//!
//! All the repair-checking algorithms of the paper work with one fixed
//! inconsistent instance `I` and range over its *subinstances* (`J`,
//! `J′`, the sets `X`, `Y`, `F`, `F′` …). We therefore give every fact
//! of `I` a dense [`FactId`] and represent subinstances as [`FactSet`]
//! bitsets over those ids, so that the set algebra in the inner loops
//! (global/Pareto improvement tests, graph constructions) is
//! word-parallel and allocation-free.

use crate::attrset::MAX_ARITY;
use crate::dict::{ValueDict, ValueId};
use crate::error::DataError;
use crate::fact::{Fact, FactContent, FactRef, SigRef, Tuple};
use crate::hash::FxHasher;
use crate::signature::RelId;
use crate::table::IdTable;
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

/// One order-preserving compaction of a dense id range: removing some
/// ids from `0..before` closes the survivors up to `0..after`, each
/// keeping its relative order. A delta batch deletes by tombstone and
/// compacts once at its end ([`Instance::remove_facts`]); every other
/// id-keyed structure then applies the same compaction once. Ids below
/// the first removed one keep their number, so applying it costs one
/// pass over the ids from there on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Compaction {
    before: usize,
    /// The removed ids, ascending.
    removed: Vec<u32>,
    /// The new id of each id from [`first`](Self::first) on, or
    /// `u32::MAX` for a removed one.
    tail: Vec<u32>,
}

impl Compaction {
    /// The compaction removing `removed` (any order) from `0..before`.
    ///
    /// # Panics
    /// Panics if an id is out of range or listed twice.
    pub fn new(before: usize, removed: impl IntoIterator<Item = FactId>) -> Self {
        let mut removed: Vec<u32> = removed.into_iter().map(|id| id.0).collect();
        removed.sort_unstable();
        assert!(removed.windows(2).all(|w| w[0] < w[1]), "an id is removed twice");
        assert!(removed.last().is_none_or(|&r| (r as usize) < before), "removed id out of range");
        let first = removed.first().map_or(before, |&r| r as usize);
        let mut tail = Vec::with_capacity(before - first);
        let (mut next, mut gone) = (first as u32, removed.iter().peekable());
        for old in first as u32..before as u32 {
            if gone.next_if_eq(&&old).is_some() {
                tail.push(u32::MAX);
            } else {
                tail.push(next);
                next += 1;
            }
        }
        Compaction { before, removed, tail }
    }

    /// Size of the id range before the compaction.
    pub fn before(&self) -> usize {
        self.before
    }

    /// Size of the id range after the compaction.
    pub fn after(&self) -> usize {
        self.before - self.removed.len()
    }

    /// The smallest removed id (`before` when nothing is removed): ids
    /// below keep their number, every survivor from here on moves down.
    #[inline]
    pub fn first(&self) -> usize {
        self.before - self.tail.len()
    }

    /// The removed ids, ascending.
    pub fn removed(&self) -> impl ExactSizeIterator<Item = FactId> + '_ {
        self.removed.iter().map(|&r| FactId(r))
    }

    /// The new id of `old`, or `None` if it was removed.
    #[inline]
    pub fn new_id(&self, old: FactId) -> Option<FactId> {
        match old.index().checked_sub(self.first()) {
            None => Some(old),
            Some(k) => Some(self.tail[k]).filter(|&id| id != u32::MAX).map(FactId),
        }
    }

    /// The old id of the survivor now numbered `new`, by binary search
    /// over the removed ids.
    pub fn old_id(&self, new: FactId) -> FactId {
        // `removed[j] - j` survivors precede the j-th removed id, so the
        // removed ids below `new`'s old id are those with
        // `removed[j] - j <= new`, a prefix of the list.
        let (mut lo, mut hi) = (0, self.removed.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.removed[mid] as usize - mid <= new.index() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        FactId(new.0 + lo as u32)
    }

    /// Applies the compaction to a vector indexed by old id: the
    /// entries of removed ids are dropped and the rest close up in
    /// order. Entries below [`first`](Self::first) are not touched.
    ///
    /// # Panics
    /// Panics if `v` is not `before` long.
    pub fn compact_vec<T>(&self, v: &mut Vec<T>) {
        assert_eq!(v.len(), self.before, "vector indexed by another id range");
        let first = self.first();
        let mut kept = first;
        for (k, &id) in self.tail.iter().enumerate() {
            if id != u32::MAX {
                v.swap(kept, first + k);
                kept += 1;
            }
        }
        v.truncate(kept);
    }
}

/// A finite database instance: a set of facts over a signature.
///
/// Facts are deduplicated on insertion; the id of a fact is stable
/// until a [`remove_facts`](Self::remove_facts) compaction closes up the
/// ids it removes. Each distinct value is stored once, in the
/// instance's value dictionary; each fact is a row of [`ValueId`]s in
/// one flat arena, read through the [`FactRef`] view
/// [`fact`](Self::fact) returns. The deduplicating fact index hashes
/// and compares those rows.
#[derive(Clone)]
pub struct Instance {
    sig: SigRef,
    dict: ValueDict,
    /// The relation of each fact.
    rels: Vec<RelId>,
    /// Where each fact's row starts in `cells`, then `cells.len()`.
    starts: Vec<u32>,
    /// Every fact's row of value ids, in fact order.
    cells: Vec<ValueId>,
    index: IdTable,
    by_rel: Vec<Vec<FactId>>,
}

impl Instance {
    /// Creates an empty instance over a signature.
    pub fn new(sig: SigRef) -> Self {
        Self::with_capacity(sig, 0)
    }

    /// Creates an empty instance with room for `facts` facts: the fact
    /// vectors and the id index are sized once, so inserting up to that
    /// many facts never regrows or rehashes them. Each gets the size
    /// `facts` inserts into an empty instance would grow it to, so the
    /// next insert (a delta's, say) does not reallocate either. The
    /// value arena is sized for facts of the widest relation.
    pub fn with_capacity(sig: SigRef, facts: usize) -> Self {
        let nrels = sig.len();
        let width = sig.iter().map(|(_, sym)| sym.arity()).max().unwrap_or(0);
        let room = |n: usize| if n == 0 { 0 } else { n.next_power_of_two() };
        let mut starts = Vec::with_capacity(room(facts + 1));
        starts.push(0);
        Instance {
            sig,
            dict: ValueDict::default(),
            rels: Vec::with_capacity(room(facts)),
            starts,
            cells: Vec::with_capacity(room(facts * width)),
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
        self.rels.len()
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Inserts a fact, returning its id (existing id if already present).
    pub fn insert(&mut self, fact: Fact) -> FactId {
        self.insert_values(fact.rel(), fact.values())
    }

    /// Inserts the fact `rel(values)`, interning each value, and returns
    /// its id (the existing id if already present).
    ///
    /// # Panics
    /// Panics if the width is not `rel`'s arity.
    pub fn insert_values(&mut self, rel: RelId, values: &[Value]) -> FactId {
        self.insert_row(rel, values, ValueDict::intern)
    }

    /// Inserts the fact `rel(atoms)` whose values are given as borrowed
    /// tokens: a value already in the dictionary is not built again.
    ///
    /// # Panics
    /// Panics if the width is not `rel`'s arity.
    pub fn insert_atoms(&mut self, rel: RelId, atoms: &[Atom<'_>]) -> FactId {
        self.insert_row(rel, atoms, |dict, &atom| dict.intern_atom(atom))
    }

    /// Interns `items` onto the end of the arena as a row of `rel`,
    /// then keeps it as a new fact unless the index already holds the
    /// row, in which case the row and its uses are taken back.
    fn insert_row<T>(
        &mut self,
        rel: RelId,
        items: &[T],
        intern: impl Fn(&mut ValueDict, &T) -> ValueId,
    ) -> FactId {
        assert_eq!(items.len(), self.sig.arity(rel), "row width is not the arity");
        let start = self.cells.len();
        for item in items {
            let id = intern(&mut self.dict, item);
            self.cells.push(id);
        }
        let row = &self.cells[start..];
        let hash = row_hash(rel, row);
        if let Some(id) = self.index.get(hash, |f| self.row_is(f, rel, row)) {
            for k in start..self.cells.len() {
                self.dict.release(self.cells[k]);
            }
            self.cells.truncate(start);
            return FactId(id);
        }
        let id = FactId(self.len() as u32);
        self.rels.push(rel);
        self.starts.push(u32::try_from(self.cells.len()).expect("fact rows outgrow u32 offsets"));
        self.by_rel[rel.index()].push(id);
        let (rels, starts, cells) = (&self.rels, &self.starts, &self.cells);
        self.index.insert_new(rels.len(), hash, id.0, |f| fact_hash(rels, starts, cells, f));
        id
    }

    /// Is fact `f` the row `rel(row)`?
    fn row_is(&self, f: u32, rel: RelId, row: &[ValueId]) -> bool {
        self.rels[f as usize] == rel && self.row(f as usize) == row
    }

    fn row(&self, f: usize) -> &[ValueId] {
        &self.cells[self.starts[f] as usize..self.starts[f + 1] as usize]
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

    /// Tombstones the fact `id` for a batch of deletes: the id index
    /// drops it at once, so lookups miss it and the same content can be
    /// inserted again (under a fresh id), but no id moves — the fact
    /// keeps its place (and its values their uses) in
    /// [`fact`](Self::fact), [`iter`](Self::iter),
    /// [`facts_of`](Self::facts_of) and [`len`](Self::len) until
    /// [`remove_facts`](Self::remove_facts) compacts it away. Ids stay
    /// stable for the rest of the batch.
    ///
    /// # Panics
    /// Panics if the id is not from this instance.
    pub fn tombstone(&mut self, id: FactId) {
        assert!(id.index() < self.len(), "fact id {} outside the instance", id.0);
        let (rels, starts, cells) = (&self.rels, &self.starts, &self.cells);
        self.index.unindex(id.0, |f| fact_hash(rels, starts, cells, f));
    }

    /// Removes the facts `ids` (tombstoned or not, in any order, each
    /// once) in one order-preserving compaction: survivors keep their
    /// relative order and close up densely, so the layout is exactly
    /// what inserting the surviving facts in order would produce. That
    /// canonical layout is what lets a patched workspace stay
    /// bit-identical (fact ids, certificates, rendered text) to a
    /// from-scratch parse of the edited content. A value whose last use
    /// goes is freed from the dictionary. Returns the [`Compaction`]
    /// for the caller's other id-keyed structures.
    ///
    /// Ids below the smallest removed one keep their number: the cost
    /// is one pass over the facts, their rows and the per-relation
    /// lists from there on, plus one sweep of the id index when a
    /// surviving fact moves.
    ///
    /// # Panics
    /// Panics if an id is out of range or listed twice.
    pub fn remove_facts(&mut self, ids: &[FactId]) -> Compaction {
        let c = Compaction::new(self.len(), ids.iter().copied());
        for &id in ids {
            let (rels, starts, cells) = (&self.rels, &self.starts, &self.cells);
            self.index.unindex(id.0, |f| fact_hash(rels, starts, cells, f));
            for k in self.starts[id.index()]..self.starts[id.index() + 1] {
                self.dict.release(self.cells[k as usize]);
            }
        }
        // Close up the rows of the survivors from the first removed
        // fact on, rewriting their starts.
        let first = c.first();
        let mut to = self.starts[first] as usize;
        for old in first..c.before() {
            let Some(new) = c.new_id(FactId(old as u32)) else { continue };
            let (from, end) = (self.starts[old] as usize, self.starts[old + 1] as usize);
            self.cells.copy_within(from..end, to);
            self.starts[new.index()] = to as u32;
            to += end - from;
        }
        self.cells.truncate(to);
        self.starts.truncate(c.after());
        self.starts.push(to as u32);
        c.compact_vec(&mut self.rels);
        if c.first() < c.after() {
            self.index.renumber(&c);
        }
        for rel in &mut self.by_rel {
            let from = rel.partition_point(|f| f.index() < c.first());
            let mut kept = from;
            for i in from..rel.len() {
                if let Some(id) = c.new_id(rel[i]) {
                    rel[kept] = id;
                    kept += 1;
                }
            }
            rel.truncate(kept);
        }
        c
    }

    /// The fact with the given id.
    ///
    /// # Panics
    /// Panics if the id is not from this instance.
    #[inline]
    pub fn fact(&self, id: FactId) -> FactRef<'_> {
        FactRef::new(self.rels[id.index()], self.row(id.index()), self.dict.slots())
    }

    /// The value with the given id.
    ///
    /// # Panics
    /// Panics if the id is outside the dictionary.
    #[inline]
    pub fn value(&self, id: ValueId) -> &Value {
        self.dict.value(id)
    }

    /// The id of `v` in the dictionary, if some fact holds it.
    pub fn value_id(&self, v: &Value) -> Option<ValueId> {
        self.dict.get(v)
    }

    /// One past the largest value id in use: an array indexed by
    /// [`ValueId`] needs this many entries.
    pub fn value_bound(&self) -> usize {
        self.dict.slots().len()
    }

    /// The live values with their ids, in id order.
    pub fn values(&self) -> impl Iterator<Item = (ValueId, &Value)> {
        let dict = &self.dict;
        (0..self.value_bound() as u32)
            .map(ValueId)
            .filter(|&id| dict.uses(id) > 0)
            .map(|id| (id, dict.value(id)))
    }

    /// How many attribute positions of stored facts (tombstones
    /// included) hold the value `id`; 0 for an id not in use.
    pub fn value_uses(&self, id: ValueId) -> u32 {
        self.dict.uses(id)
    }

    /// Looks up the id of a fact, owned or borrowed from any instance.
    pub fn id_of<'v>(&self, fact: impl FactContent<'v>) -> Option<FactId> {
        self.id_of_values(fact.rel(), fact.values())
    }

    /// Looks up the id of the fact `rel(values)` without building it.
    pub fn id_of_values<'v>(
        &self,
        rel: RelId,
        values: impl IntoIterator<Item = &'v Value>,
    ) -> Option<FactId> {
        let mut row = [ValueId(0); MAX_ARITY];
        let mut width = 0;
        for v in values {
            *row.get_mut(width)? = self.dict.get(v)?;
            width += 1;
        }
        self.id_of_ids(rel, &row[..width])
    }

    /// Looks up the id of the fact `rel(atoms)`, whose values are given
    /// as borrowed tokens: [`id_of_values`](Self::id_of_values) without
    /// building a single value.
    pub fn id_of_atoms(&self, rel: RelId, atoms: &[Atom<'_>]) -> Option<FactId> {
        let mut row = [ValueId(0); MAX_ARITY];
        for (slot, &atom) in row.iter_mut().zip(atoms) {
            *slot = self.dict.get_atom(atom)?;
        }
        self.id_of_ids(rel, row.get(..atoms.len())?)
    }

    /// Looks up the id of the fact `rel(ids)` given by dictionary ids.
    pub fn id_of_ids(&self, rel: RelId, ids: &[ValueId]) -> Option<FactId> {
        self.index.get(row_hash(rel, ids), |f| self.row_is(f, rel, ids)).map(FactId)
    }

    /// Does the instance contain the fact?
    pub fn contains<'v>(&self, fact: impl FactContent<'v>) -> bool {
        self.id_of(fact).is_some()
    }

    /// Heap bytes owned by the instance: the fact rows, the id index,
    /// the per-relation id lists, and the value dictionary with what
    /// its values own (symbol text and pairs, each counted once however
    /// many facts hold it).
    ///
    /// O(relations): the dictionary keeps its byte count as it interns
    /// and frees.
    pub fn heap_bytes(&self) -> usize {
        let by_rel: usize = self.by_rel.iter().map(Vec::capacity).sum();
        self.rels.capacity() * size_of::<RelId>()
            + self.starts.capacity() * size_of::<u32>()
            + self.cells.capacity() * size_of::<ValueId>()
            + self.index.heap_bytes()
            + self.by_rel.capacity() * size_of::<Vec<FactId>>()
            + by_rel * size_of::<FactId>()
            + self.dict.heap_bytes()
    }

    /// Iterates `(FactId, FactRef)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, FactRef<'_>)> {
        self.fact_ids().map(|id| (id, self.fact(id)))
    }

    /// All fact ids.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> + '_ {
        (0..self.len() as u32).map(FactId)
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
            let f = self.fact(id);
            out.insert_row(f.rel(), f.ids(), |dict, &v| dict.intern(self.value(v)));
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

/// The fact index's hash of the row `rel(ids)`.
fn row_hash(rel: RelId, ids: &[ValueId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(rel.0);
    for id in ids {
        h.write_u32(id.0);
    }
    h.finish()
}

/// [`row_hash`] of the stored fact `f`.
fn fact_hash(rels: &[RelId], starts: &[u32], cells: &[ValueId], f: u32) -> u64 {
    let f = f as usize;
    row_hash(rels[f], &cells[starts[f] as usize..starts[f + 1] as usize])
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

    /// Applies a batch's [`Compaction`] to the universe: the positions
    /// it removes are dropped and every later position closes up, as
    /// [`Instance::remove_facts`] renumbers the facts. Positions below
    /// [`Compaction::first`] stay put, so the cost is one pass over the
    /// words from there on, 64 bits at a time.
    ///
    /// # Panics
    /// Panics if the set's universe is not the compaction's `before`.
    pub fn compact(&mut self, c: &Compaction) {
        assert_eq!(self.universe, c.before(), "fact set over another id range");
        // Each run of survivors between two removed positions moves
        // down by the number of removed positions before it.
        let (mut src, mut dst) = (c.first(), c.first());
        for r in c.removed().map(FactId::index).chain([self.universe]) {
            self.copy_down(src, dst, r - src);
            dst += r - src;
            src = r + 1;
        }
        self.universe = c.after();
        self.words.truncate(self.universe.div_ceil(64));
        self.trim();
    }

    /// Copies the `len` bits at `src..` down to `dst..` (`dst <= src`)
    /// in ascending chunks, so no chunk overwrites a bit not yet read.
    fn copy_down(&mut self, mut src: usize, mut dst: usize, mut len: usize) {
        if src == dst {
            return;
        }
        while len > 0 {
            let k = len.min(64);
            let bits = self.read_bits(src, k);
            self.write_bits(dst, k, bits);
            (src, dst, len) = (src + k, dst + k, len - k);
        }
    }

    /// The `k ≤ 64` bits at `pos..`, low bit first.
    fn read_bits(&self, pos: usize, k: usize) -> u64 {
        let (w, b) = (pos / 64, pos % 64);
        let mut bits = self.words[w] >> b;
        if b != 0 && w + 1 < self.words.len() {
            bits |= self.words[w + 1] << (64 - b);
        }
        bits & low_bits(k)
    }

    /// Overwrites the `k ≤ 64` bits at `pos..` with `bits` (no higher
    /// bit set).
    fn write_bits(&mut self, pos: usize, k: usize, bits: u64) {
        let (w, b) = (pos / 64, pos % 64);
        let mask = low_bits(k);
        self.words[w] = (self.words[w] & !(mask << b)) | (bits << b);
        if b + k > 64 {
            let high = mask >> (64 - b);
            self.words[w + 1] = (self.words[w + 1] & !high) | (bits >> (64 - b));
        }
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

/// The `k ≤ 64` low bits set.
fn low_bits(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1 << k) - 1
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
    use crate::dict::{payload_bytes, value_hash};
    use crate::signature::Signature;
    use crate::table::FREE;
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
    fn remove_facts_shifts_ids_like_a_reinsert() {
        let mut i = small_instance();
        let removed = i.fact(FactId(1)).to_fact(); // R(a,c)
        let c = i.remove_facts(&[FactId(1)]);
        assert_eq!((c.before(), c.after(), c.first()), (3, 2, 1));
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
    fn a_tombstone_keeps_every_id_until_the_compaction() {
        let mut i = small_instance();
        let r_ac = i.fact(FactId(1)).to_fact();
        i.tombstone(FactId(1));
        // Lookups miss the tombstone; nothing else moves.
        assert_eq!(i.id_of(&r_ac), None);
        assert_eq!(i.len(), 3);
        assert_eq!(i.fact(FactId(1)), &r_ac);
        // Re-inserting its content appends a fresh id.
        assert_eq!(i.insert(r_ac.clone()), FactId(3));
        assert_eq!(i.id_of(&r_ac), Some(FactId(3)));
        let c = i.remove_facts(&[FactId(1)]);
        assert_eq!(c.new_id(FactId(3)), Some(FactId(2)));
        assert_eq!(c.new_id(FactId(1)), None);
        assert_eq!(c.old_id(FactId(2)), FactId(3));
        assert_eq!(i.id_of(&r_ac), Some(FactId(2)));
        let r = i.signature().rel_id("R").unwrap();
        assert_eq!(i.facts_of(r), &[FactId(0), FactId(2)]);
    }

    #[test]
    fn compaction_maps_both_ways() {
        let c = Compaction::new(10, [FactId(7), FactId(2), FactId(3)]);
        assert_eq!((c.first(), c.after()), (2, 7));
        let survivors = [0u32, 1, 4, 5, 6, 8, 9];
        for (new, &old) in survivors.iter().enumerate() {
            assert_eq!(c.new_id(FactId(old)), Some(FactId(new as u32)));
            assert_eq!(c.old_id(FactId(new as u32)), FactId(old));
        }
        assert_eq!(c.removed().collect::<Vec<_>>(), [FactId(2), FactId(3), FactId(7)]);
        let mut v: Vec<u32> = (0..10).collect();
        c.compact_vec(&mut v);
        assert_eq!(v, survivors);
        // Nothing removed: the identity.
        let id = Compaction::new(4, []);
        assert_eq!((id.first(), id.after()), (4, 4));
        assert_eq!(id.new_id(FactId(3)), Some(FactId(3)));
    }

    #[test]
    fn factset_grow_and_compact() {
        let mut s = FactSet::empty(130);
        for id in [3u32, 63, 64, 65, 129] {
            s.insert(FactId(id));
        }
        // Removing position 64 drops it and shifts 65→64, 129→128.
        s.compact(&Compaction::new(130, [FactId(64)]));
        assert_eq!(s.universe(), 129);
        assert_eq!(s.iter().map(|f| f.0).collect::<Vec<_>>(), vec![3, 63, 64, 128]);
        // Removing an absent position still renumbers the ones above.
        s.compact(&Compaction::new(129, [FactId(0)]));
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
        t.compact(&Compaction::new(65, [FactId(10)]));
        assert_eq!(t, FactSet::full(64));
    }

    proptest! {
        /// One compaction equals removing the same positions bit by bit,
        /// highest first, from a plain bit vector.
        #[test]
        fn factset_compaction_matches_repeated_bit_removal(
            universe in 0usize..300,
            members in proptest::collection::vec(0usize..300, 0..120),
            removed in proptest::collection::btree_set(0usize..300, 0..40),
        ) {
            let removed: Vec<usize> = removed.into_iter().filter(|&r| r < universe).collect();
            let mut set = FactSet::empty(universe);
            let mut model = vec![false; universe];
            for m in members.into_iter().filter(|&m| m < universe) {
                set.insert(FactId(m as u32));
                model[m] = true;
            }
            for &r in removed.iter().rev() {
                model.remove(r);
            }
            set.compact(&Compaction::new(universe, removed.iter().map(|&r| FactId(r as u32))));
            let mut want = FactSet::empty(model.len());
            for (i, _) in model.iter().enumerate().filter(|(_, &b)| b) {
                want.insert(FactId(i as u32));
            }
            prop_assert_eq!(set, want);
        }
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
        /// Tombstone one live fact (a batch delete).
        Tombstone(usize),
        /// Compact the tombstones plus up to `.1` more picked facts.
        Remove(usize, usize),
        Clone,
        Lookup(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..9, 0usize..1 << 16, 0usize..4).prop_map(|(kind, n, k)| match kind {
            0..=3 => Op::Insert(n),
            4 => Op::Tombstone(n),
            5 => Op::Remove(n, k),
            6 => Op::Clone,
            _ => Op::Lookup(n),
        })
    }

    /// The model: every fact slot in id order, tombstones included, and
    /// which slots are tombstones.
    struct Model {
        facts: Vec<Fact>,
        dead: Vec<bool>,
    }

    impl Model {
        fn id_of(&self, fact: &Fact) -> Option<FactId> {
            (0..self.facts.len())
                .find(|&i| !self.dead[i] && &self.facts[i] == fact)
                .map(|i| FactId(i as u32))
        }
    }

    /// Asserts `inst` matches the model: the fact slots in id order
    /// and the map a `HashMap<Fact, FactId>` index over the live slots
    /// would hold.
    fn assert_matches_model(inst: &Instance, model: &Model, pool: &[Fact]) {
        let index: HashMap<&Fact, FactId> = model
            .facts
            .iter()
            .enumerate()
            .filter(|&(i, _)| !model.dead[i])
            .map(|(i, f)| (f, FactId(i as u32)))
            .collect();
        assert_eq!(inst.len(), model.facts.len());
        for (id, fact) in inst.iter() {
            assert_eq!(fact, &model.facts[id.index()]);
        }
        for fact in pool {
            let want = index.get(fact).copied();
            assert_eq!(inst.id_of(fact), want, "{fact:?}");
            assert_eq!(inst.id_of_values(fact.rel(), fact.values()), want, "{fact:?}");
            assert_eq!(inst.contains(fact), want.is_some());
        }
        for (r, _) in inst.signature().iter() {
            let want: Vec<FactId> =
                inst.fact_ids().filter(|&id| model.facts[id.index()].rel() == r).collect();
            assert_eq!(inst.facts_of(r), want.as_slice());
        }
    }

    /// Replays `ops` on an instance and on the model, checking after
    /// every step, and after every compaction that the ids equal a
    /// fresh insert of the survivors in order.
    fn replay(sig: &SigRef, pool: &[Fact], ops: &[Op]) {
        let mut inst = Instance::new(sig.clone());
        let mut model = Model { facts: Vec::new(), dead: Vec::new() };
        for &op in ops {
            match op {
                Op::Insert(n) => {
                    let fact = &pool[n % pool.len()];
                    let want = model.id_of(fact).unwrap_or_else(|| {
                        model.facts.push(fact.clone());
                        model.dead.push(false);
                        FactId(model.facts.len() as u32 - 1)
                    });
                    assert_eq!(inst.insert(fact.clone()), want);
                }
                Op::Tombstone(n) => {
                    let live: Vec<usize> =
                        (0..model.facts.len()).filter(|&i| !model.dead[i]).collect();
                    if !live.is_empty() {
                        let i = live[n % live.len()];
                        model.dead[i] = true;
                        inst.tombstone(FactId(i as u32));
                    }
                }
                Op::Remove(n, extra) => {
                    let mut ids: Vec<FactId> = (0..model.facts.len())
                        .filter(|&i| model.dead[i])
                        .map(|i| FactId(i as u32))
                        .collect();
                    let live: Vec<usize> =
                        (0..model.facts.len()).filter(|&i| !model.dead[i]).collect();
                    for k in 0..extra.min(live.len()) {
                        let id = FactId(live[n.wrapping_add(7 * k) % live.len()] as u32);
                        if !ids.contains(&id) {
                            ids.push(id);
                        }
                    }
                    // Removal order must not matter.
                    ids.reverse();
                    let before = model.facts.len();
                    let c = inst.remove_facts(&ids);
                    let survivors: Vec<usize> =
                        (0..before).filter(|&i| !ids.contains(&FactId(i as u32))).collect();
                    for (new, &old) in survivors.iter().enumerate() {
                        assert_eq!(c.new_id(FactId(old as u32)), Some(FactId(new as u32)));
                        assert_eq!(c.old_id(FactId(new as u32)), FactId(old as u32));
                    }
                    model.facts = survivors.iter().map(|&i| model.facts[i].clone()).collect();
                    model.dead = vec![false; model.facts.len()];
                    let mut fresh = Instance::new(sig.clone());
                    for fact in &model.facts {
                        fresh.insert(fact.clone());
                    }
                    for (id, fact) in inst.iter() {
                        assert_eq!(fresh.id_of(fact), Some(id));
                    }
                }
                Op::Clone => {
                    let copy = inst.clone();
                    assert_matches_model(&inst, &model, pool);
                    inst = copy;
                }
                Op::Lookup(n) => {
                    let fact = &pool[n % pool.len()];
                    assert_eq!(inst.id_of(fact), model.id_of(fact));
                }
            }
            assert_matches_model(&inst, &model, pool);
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

    /// Facts whose values' top six hash bits are all ones: every
    /// dictionary index up to 64 slots homes them all on its last slot,
    /// so each probe run collides and wraps around to slot 0.
    fn colliding_pool(sig: &SigRef) -> Vec<Fact> {
        let s = sig.rel_id("S").unwrap();
        let pool: Vec<Fact> = (0..)
            .map(|n| Fact::new(sig, s, Tuple::new([Value::Int(n)])).unwrap())
            .filter(|f| value_hash(f.get(1)) >> 58 == 63)
            .take(30)
            .collect();
        let mut table = IdTable { slots: vec![FREE; 64] };
        assert!(pool.iter().all(|f| table.home(value_hash(f.get(1))) == 63));
        table.slots.truncate(8);
        assert!(pool.iter().all(|f| table.home(value_hash(f.get(1))) == 7));
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
                        inst.id_of_values(fact.rel(), values),
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
        assert_eq!(sized.rels.capacity(), grown.rels.capacity());
        assert_eq!(sized.starts.capacity(), grown.starts.capacity());
        for fact in &pool {
            assert_eq!(sized.id_of(fact), grown.id_of(fact));
        }
    }

    #[test]
    fn removing_every_colliding_fact_in_turn_keeps_lookups_exact() {
        let sig = model_sig();
        let pool = colliding_pool(&sig);
        // Fill, then delete from the front, the back and the middle of
        // one wrapped probe run: one at a time, by tombstone batches,
        // and several per compaction.
        for pick in [0usize, usize::MAX, 7] {
            for ops_per_fact in [
                vec![Op::Remove(pick, 1)],
                vec![Op::Tombstone(pick), Op::Tombstone(pick / 2), Op::Remove(pick, 0)],
                vec![Op::Remove(pick, 3)],
            ] {
                let mut ops: Vec<Op> = (0..pool.len()).map(Op::Insert).collect();
                for _ in 0..pool.len() {
                    ops.extend(ops_per_fact.iter().copied());
                }
                replay(&sig, &pool, &ops);
            }
        }
    }

    #[test]
    fn heap_bytes_counts_rows_index_and_values() {
        let i = small_instance();
        let symbols = 4 * (2 * size_of::<usize>() + 1);
        let floor = 3 * size_of::<RelId>()
            + 5 * size_of::<ValueId>()
            + 4 * size_of::<Value>()
            + symbols
            + 3 * size_of::<u32>();
        assert!(i.heap_bytes() >= floor, "{} < {floor}", i.heap_bytes());
        assert_eq!(
            Instance::new(model_sig()).heap_bytes(),
            2 * size_of::<Vec<FactId>>() + size_of::<u32>()
        );
    }

    /// The dictionary's running byte count against a walk over the live
    /// values, and each use count against the occurrences in the rows.
    fn assert_dictionary_walks(i: &Instance) {
        let walked: usize = i.values().map(|(_, v)| payload_bytes(v)).sum();
        assert_eq!(i.dict.payload, walked);
        let mut uses = vec![0u32; i.value_bound()];
        for id in &i.cells {
            uses[id.index()] += 1;
        }
        for (v, &n) in uses.iter().enumerate() {
            assert_eq!(i.value_uses(ValueId(v as u32)), n, "value {v}");
        }
    }

    #[test]
    fn the_running_byte_count_equals_the_walked_one() {
        let sig = model_sig();
        let pool = mixed_pool(&sig);
        let mut i = Instance::new(sig);
        for fact in &pool {
            i.insert(fact.clone());
            assert_dictionary_walks(&i);
        }
        for id in [1, 4, 7] {
            i.tombstone(FactId(id));
            assert_dictionary_walks(&i);
        }
        i.remove_facts(&[FactId(1), FactId(4), FactId(7), FactId(0), FactId(12)]);
        assert_dictionary_walks(&i);
        let survivors = i.len();
        i.remove_facts(&(0..survivors as u32).map(FactId).collect::<Vec<_>>());
        assert_dictionary_walks(&i);
        assert_eq!(i.values().count(), 0);
    }

    #[test]
    fn heap_bytes_follows_a_long_symbol_in_and_out() {
        const LONG: usize = 16 * 1024;
        let sig = model_sig();
        let mut i = Instance::with_capacity(sig.clone(), 64);
        for n in 0..8 {
            i.insert_named("S", [Value::Int(n)]).unwrap();
        }
        let before = i.heap_bytes();
        let long = Value::sym("x".repeat(LONG));
        let id = i.insert_named("S", [long.clone()]).unwrap();
        let with_one = i.heap_bytes();
        assert!(with_one >= before + LONG, "{with_one} < {before} + {LONG}");
        // A second fact holding the same symbol adds no text.
        let twice = i.insert_named("R", [long.clone(), Value::Int(0)]).unwrap();
        let with_both = i.heap_bytes();
        assert!(with_both < with_one + LONG / 4, "the repeated symbol counted twice");
        // Deleting both, with compaction, gives the text back.
        i.remove_facts(&[id, twice]);
        assert_eq!(i.value_id(&long), None);
        assert!(i.heap_bytes() + LONG <= with_both, "{} not lowered", i.heap_bytes());
        assert!(i.heap_bytes() < before + LONG / 4, "{} vs {before}", i.heap_bytes());
    }

    #[test]
    fn set_of_facts_checks_membership() {
        let i = small_instance();
        let present = i.fact(FactId(0)).to_fact();
        assert_eq!(i.set_of_facts([&present]).unwrap().len(), 1);
        let absent = Fact::parse_new(i.signature(), "S", [Value::sym("zz")]).unwrap();
        assert!(i.set_of_facts([&absent]).is_err());
    }
}
