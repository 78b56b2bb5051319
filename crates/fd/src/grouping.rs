//! Sort-based lhs/rhs grouping of one relation's facts under one FD.
//!
//! Under `A → B`, two facts conflict iff they agree on `A` and disagree
//! on `B`. Sorting a relation's facts by `A`-projection, then
//! `B`-projection, then id lays that structure out flat: a *group* is a
//! maximal run agreeing on `A`, a *block* a maximal run inside a group
//! agreeing on `B` as well. Facts in different blocks of one group
//! conflict; facts in one block, or in different groups, never do.
//!
//! One [`FdGrouping`] feeds both the CSR conflict rows
//! ([`CsrConflictGraph::from_groupings`](crate::CsrConflictGraph::from_groupings))
//! and, kept as it is, serves as the Lemma 4.2 block structure of
//! `GRepCheck1FD`, so a session groups each single-FD relation once.
//! [`insert`](FdGrouping::insert), [`remove`](FdGrouping::remove) and
//! [`remap`](FdGrouping::remap) patch the flat arrays in place as a
//! delta edits the instance, and the result is exactly what a fresh
//! grouping of the edited relation produces. The comparisons are
//! value-wise in place: no projection tuple is ever materialized.
//!
//! The sort runs on *ranks*: each distinct value the facts hold on
//! `A ∪ B` is ranked once by [`Value`](rpr_data::Value)'s order, and
//! each fact is keyed by its row of ranks, packed into one `u64`
//! whenever the row fits. Equal values share one dictionary id, so a
//! rank per id is a rank per value, and comparing ranks compares
//! values: the order is exactly the value order.
//!
//! Conflicts do not depend on that order, only on which facts share a
//! group and a block. [`for_relation`](FdGrouping::for_relation), which
//! only derives conflicts, keys the facts by their rows of raw value
//! ids instead and reads no value at all.

use crate::fd::Fd;
use crate::schema::Schema;
use rpr_data::{AttrSet, Compaction, FactId, FactSet, Instance, RelId, ValueId};
use std::cmp::Ordering;
use std::ops::Range;

/// Compares two facts on an attribute set, value-wise in place; equal
/// value ids settle an attribute without reading the values.
pub fn cmp_on(instance: &Instance, x: FactId, y: FactId, attrs: AttrSet) -> Ordering {
    let (f, g) = (instance.fact(x), instance.fact(y));
    for a in attrs.iter() {
        let (u, v) = (f.id(a), g.id(a));
        if u != v {
            return instance.value(u).cmp(instance.value(v));
        }
    }
    Ordering::Equal
}

/// Adds `by` to every start in `starts`.
fn shift(starts: &mut [u32], by: i32) {
    for s in starts {
        *s = s.wrapping_add_signed(by);
    }
}

/// The rank, by value order, of every value the facts `ids` hold on
/// `attrs`, indexed by value id, and how many distinct values there are.
fn rank_values(instance: &Instance, ids: &[FactId], attrs: AttrSet) -> (Vec<u32>, usize) {
    let mut rank = vec![u32::MAX; instance.value_bound()];
    let mut distinct = Vec::new();
    for &id in ids {
        let f = instance.fact(id);
        for a in attrs.iter() {
            let v = f.id(a);
            if rank[v.index()] == u32::MAX {
                rank[v.index()] = 0;
                distinct.push(v);
            }
        }
    }
    distinct.sort_unstable_by(|&x, &y| instance.value(x).cmp(instance.value(y)));
    for (r, v) in distinct.iter().enumerate() {
        rank[v.index()] = r as u32;
    }
    (rank, distinct.len())
}

/// The facts of one relation grouped under one FD `A → B`, flat.
///
/// Built by [`new`](Self::new), the order is *canonical*: groups
/// sorted by `A`-projection, blocks within a group by `B`-projection,
/// ids within a block ascending. Two such groupings over equal content
/// are therefore identical, and only they may be patched or searched
/// ([`insert`](Self::insert), [`remove`](Self::remove),
/// [`conflict_row`](Self::conflict_row)). The groupings of
/// [`for_relation`](Self::for_relation) hold the same groups and blocks
/// in value-id order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FdGrouping {
    /// The FD the facts are grouped under.
    fd: Fd,
    /// Fact ids sorted by `A`-projection, then `B`-projection, then id.
    sorted: Vec<FactId>,
    /// Start of every block in `sorted`, then `sorted.len()`.
    block_starts: Vec<u32>,
    /// Index into `block_starts` of every group's first block, then the
    /// block count.
    group_starts: Vec<u32>,
}

impl FdGrouping {
    /// Groups `ids` (facts of `fd`'s relation) under `fd`.
    ///
    /// Ranks each distinct value on `A ∪ B` once, then sorts the facts
    /// on their rows of ranks (`A` first, then `B`, then id) and splits
    /// groups and blocks where the rows change.
    pub fn new(instance: &Instance, fd: Fd, ids: impl IntoIterator<Item = FactId>) -> Self {
        Self::ranked(instance, fd, ids.into_iter().collect(), true)
    }

    /// [`new`](Self::new) over `ids`, `pack` as in [`keyed`](Self::keyed).
    fn ranked(instance: &Instance, fd: Fd, ids: Vec<FactId>, pack: bool) -> Self {
        let (rank, distinct) = rank_values(instance, &ids, fd.lhs.union(fd.rhs));
        Self::keyed(instance, fd, ids, |v| rank[v.index()], distinct, pack)
    }

    /// Groups `ids` by their rows of `key` over `A`, then `B`: `key`
    /// maps each value id to a number below `keys`, equal numbers for
    /// equal values. With `pack`, a row that fits in 64 bits is sorted
    /// as one integer; otherwise, or without `pack`, as a slice.
    fn keyed(
        instance: &Instance,
        fd: Fd,
        ids: Vec<FactId>,
        key: impl Fn(ValueId) -> u32,
        keys: usize,
        pack: bool,
    ) -> Self {
        debug_assert!(ids.iter().all(|&id| instance.fact(id).rel() == fd.rel), "foreign facts");
        let key = &key;
        let row = |id: FactId| {
            let f = instance.fact(id);
            fd.lhs.iter().chain(fd.rhs.iter()).map(move |a| key(f.id(a)))
        };
        let (lhs_len, width) = (fd.lhs.len(), fd.lhs.len() + fd.rhs.len());
        let bits = (usize::BITS - keys.saturating_sub(1).leading_zeros()).max(1) as usize;
        if pack && width * bits <= 64 {
            let keyed = ids
                .iter()
                .map(|&id| (row(id).fold(0u64, |key, r| key << bits | u64::from(r)), id))
                .collect();
            let rhs_bits = ((width - lhs_len) * bits) as u32;
            let lhs = |key: &u64| key.checked_shr(rhs_bits).unwrap_or(0);
            Self::from_keyed(fd, keyed, |x, y| lhs(x) == lhs(y))
        } else {
            let rows: Vec<u32> = ids.iter().flat_map(|&id| row(id)).collect();
            let keyed = (ids.iter().enumerate())
                .map(|(i, &id)| (&rows[i * width..(i + 1) * width], id))
                .collect();
            Self::from_keyed(fd, keyed, |x: &&[u32], y: &&[u32]| x[..lhs_len] == y[..lhs_len])
        }
    }

    /// Sorts `keyed` by key, then id, and splits a group wherever
    /// `same_group` fails and a block wherever the key changes.
    fn from_keyed<K: Ord>(
        fd: Fd,
        mut keyed: Vec<(K, FactId)>,
        same_group: impl Fn(&K, &K) -> bool,
    ) -> Self {
        keyed.sort_unstable();
        let mut block_starts = Vec::new();
        let mut group_starts = Vec::new();
        for (p, (key, _)) in keyed.iter().enumerate() {
            let new_group = p == 0 || !same_group(&keyed[p - 1].0, key);
            if new_group {
                group_starts.push(block_starts.len() as u32);
            }
            if new_group || keyed[p - 1].0 != *key {
                block_starts.push(p as u32);
            }
        }
        group_starts.push(block_starts.len() as u32);
        block_starts.push(keyed.len() as u32);
        let sorted = keyed.into_iter().map(|(_, id)| id).collect();
        FdGrouping { fd, sorted, block_starts, group_starts }
    }

    /// Groups the facts of `domain` (facts of `fd`'s relation) under
    /// `fd`: the Lemma 4.2 block structure of a single-FD relation.
    pub fn build(instance: &Instance, fd: Fd, domain: &FactSet) -> Self {
        Self::new(instance, fd, domain.iter())
    }

    /// One grouping of `rel`'s facts per non-trivial FD of `schema` on
    /// `rel` — together they witness every conflict of the relation.
    /// The groups and blocks are [`new`](Self::new)'s, ordered by value
    /// id rather than by value, so no value is compared.
    pub fn for_relation<'a>(
        schema: &'a Schema,
        instance: &'a Instance,
        rel: RelId,
    ) -> impl Iterator<Item = FdGrouping> + 'a {
        let facts = instance.facts_of(rel);
        schema.fds_for(rel).iter().filter(|fd| !fd.is_trivial()).map(move |&fd| {
            Self::keyed(instance, fd, facts.to_vec(), |v| v.0, instance.value_bound(), true)
        })
    }

    /// The FD the facts are grouped under.
    pub fn fd(&self) -> Fd {
        self.fd
    }

    /// Number of groups (distinct `A`-projections).
    pub fn group_count(&self) -> usize {
        self.group_starts.len() - 1
    }

    /// The indices of group `g`'s blocks, for [`block`](Self::block).
    pub fn group(&self, g: usize) -> Range<usize> {
        self.group_starts[g] as usize..self.group_starts[g + 1] as usize
    }

    /// The blocks of group `g`, in canonical order; each block's ids
    /// ascend.
    pub fn blocks(&self, g: usize) -> impl Iterator<Item = &[FactId]> + '_ {
        self.group(g).map(move |b| self.block(b))
    }

    /// The ids of block `b` (numbered across all groups), ascending.
    pub fn block(&self, b: usize) -> &[FactId] {
        self.span(b, b + 1)
    }

    /// The facts of blocks `first..last`, in canonical order.
    fn span(&self, first: usize, last: usize) -> &[FactId] {
        &self.sorted[self.block_starts[first] as usize..self.block_starts[last] as usize]
    }

    /// The group holding `id`'s `A`-projection, or where a group for it
    /// would go, by binary search on the canonical order.
    fn find_group(&self, instance: &Instance, id: FactId) -> Result<usize, usize> {
        let firsts = &self.group_starts[..self.group_count()];
        firsts.binary_search_by(|&b| cmp_on(instance, self.block(b as usize)[0], id, self.fd.lhs))
    }

    /// The block of group `g` holding `id`'s `B`-projection, or where a
    /// block for it would go, numbered across all groups.
    fn find_block(&self, instance: &Instance, id: FactId, g: usize) -> Result<usize, usize> {
        let blocks = self.group(g);
        let starts = &self.block_starts[blocks.clone()];
        starts
            .binary_search_by(|&s| cmp_on(instance, self.sorted[s as usize], id, self.fd.rhs))
            .map(|b| blocks.start + b)
            .map_err(|b| blocks.start + b)
    }

    /// The group and block of the fact `id`, present in the grouping.
    fn locate(&self, instance: &Instance, id: FactId) -> (usize, usize) {
        let g = self.find_group(instance, id).expect("the fact's group is present");
        (g, self.find_block(instance, id, g).expect("the fact's block is present"))
    }

    /// Patches in the fact `id`, freshly appended to `instance` (so it
    /// carries the maximal id and goes last in its block). The result
    /// is exactly what [`new`](Self::new) over the grown domain
    /// produces.
    pub fn insert(&mut self, instance: &Instance, id: FactId) {
        let (g, b, grows) = match self.find_group(instance, id) {
            Ok(g) => match self.find_block(instance, id, g) {
                Ok(b) => (g, b, true),
                Err(b) => (g, b, false),
            },
            Err(g) => {
                // A new group opens with its one block where the next
                // group's first block is now.
                let b = self.group_starts[g];
                self.group_starts.insert(g, b);
                (g, b as usize, false)
            }
        };
        if grows {
            let at = self.block_starts[b + 1];
            debug_assert!(self.block(b).last().is_none_or(|&last| last < id), "appended id");
            self.sorted.insert(at as usize, id);
            shift(&mut self.block_starts[b + 1..], 1);
        } else {
            let at = self.block_starts[b];
            self.sorted.insert(at as usize, id);
            self.block_starts.insert(b, at);
            shift(&mut self.block_starts[b + 1..], 1);
            shift(&mut self.group_starts[g + 1..], 1);
        }
    }

    /// Patches out the fact `id` (its content still readable in
    /// `instance`, as a tombstone's is), dropping its block and group if
    /// they become empty. The caller follows up with
    /// [`remap`](Self::remap) once the instance compacts. The result is
    /// exactly what [`new`](Self::new) over the shrunken domain
    /// produces.
    pub fn remove(&mut self, instance: &Instance, id: FactId) {
        let (g, b) = self.locate(instance, id);
        let pos = self.block(b).binary_search(&id).expect("the fact is in its block");
        self.sorted.remove(self.block_starts[b] as usize + pos);
        shift(&mut self.block_starts[b + 1..], -1);
        if self.block_starts[b] == self.block_starts[b + 1] {
            self.block_starts.remove(b);
            shift(&mut self.group_starts[g + 1..], -1);
            if self.group_starts[g] == self.group_starts[g + 1] {
                self.group_starts.remove(g);
            }
        }
    }

    /// Applies a [`Compaction`]: every id moves to its new number.
    /// Removed facts must already be out of the grouping
    /// ([`remove`](Self::remove)). The renumbering preserves order, so
    /// ids inside blocks stay ascending.
    pub fn remap(&mut self, c: &Compaction) {
        if c.first() >= c.after() {
            return;
        }
        for id in &mut self.sorted {
            if id.index() >= c.first() {
                *id = c.new_id(*id).expect("removed facts are out of the grouping");
            }
        }
    }

    /// The conflict row of the fact `id` (present in the grouping):
    /// every fact in another block of its group, ascending. Two binary
    /// searches plus the group's size, where a scan of the relation
    /// costs `O(|rel|)`.
    pub fn conflict_row(&self, instance: &Instance, id: FactId) -> Vec<u32> {
        let (g, b) = self.locate(instance, id);
        let blocks = self.group(g);
        let others = self.span(blocks.start, b).iter().chain(self.span(b + 1, blocks.end));
        let mut row: Vec<u32> = others.map(|f| f.0).collect();
        row.sort_unstable();
        row
    }

    /// For every fact sitting in a group of two or more blocks: the fact
    /// and its conflict partners under this FD, as the two runs of the
    /// canonical order around its own block (each run sorted by `B`,
    /// then id — not by id alone).
    pub(crate) fn conflict_runs(&self) -> impl Iterator<Item = (FactId, [&[FactId]; 2])> + '_ {
        (0..self.group_count()).flat_map(move |g| {
            let Range { start: first, end: last } = self.group(g);
            let blocks = if last - first >= 2 { first..last } else { 0..0 };
            blocks.flat_map(move |b| {
                let runs = [self.span(first, b), self.span(b + 1, last)];
                self.block(b).iter().map(move |&f| (f, runs))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rpr_data::{Signature, Value};

    /// The grouping by a full value-wise sort, without ranks: the order
    /// [`FdGrouping::new`] must reproduce exactly.
    fn oracle(instance: &Instance, fd: Fd, ids: &[FactId]) -> FdGrouping {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable_by(|&x, &y| {
            cmp_on(instance, x, y, fd.lhs)
                .then_with(|| cmp_on(instance, x, y, fd.rhs))
                .then(x.cmp(&y))
        });
        let mut block_starts = Vec::new();
        let mut group_starts = Vec::new();
        for (p, &id) in sorted.iter().enumerate() {
            let new_group =
                p == 0 || cmp_on(instance, sorted[p - 1], id, fd.lhs) != Ordering::Equal;
            if new_group {
                group_starts.push(block_starts.len() as u32);
            }
            if new_group || cmp_on(instance, sorted[p - 1], id, fd.rhs) != Ordering::Equal {
                block_starts.push(p as u32);
            }
        }
        group_starts.push(block_starts.len() as u32);
        block_starts.push(sorted.len() as u32);
        FdGrouping { fd, sorted, block_starts, group_starts }
    }

    /// The groups of a grouping as sets of blocks, in no order.
    fn partition(g: &FdGrouping) -> Vec<Vec<Vec<FactId>>> {
        let mut groups: Vec<Vec<Vec<FactId>>> =
            (0..g.group_count()).map(|k| g.blocks(k).map(<[FactId]>::to_vec).collect()).collect();
        for blocks in &mut groups {
            blocks.sort();
        }
        groups.sort();
        groups
    }

    /// Values of every kind, with shared prefixes, embedded NULs and the
    /// ends of the integer range.
    fn tricky_values() -> Vec<Value> {
        let mut values: Vec<Value> = [i64::MIN, i64::MIN + 1, -5, -4, -1, 0, 1, 4, 5, 6, 7]
            .into_iter()
            .chain([i64::MAX - 3, i64::MAX - 1, i64::MAX])
            .map(Value::Int)
            .collect();
        values.extend(
            [
                "",
                "\0",
                "\0\0",
                "a",
                "a\0",
                "a\0b",
                "ab",
                "b",
                "é",
                "abcdefg",
                "abcdefg`",
                "abcdefga",
                "abcdefgc",
                "abcdefgh",
                "abcdefgh\0",
                "abcdefghiX",
                "abcdefghiY",
                "abcdefghiXY",
            ]
            .into_iter()
            .map(Value::sym),
        );
        values.extend([
            Value::pair(1.into(), 2.into()),
            Value::pair(1.into(), "a".into()),
            Value::pair("a".into(), 1.into()),
            Value::pair(Value::pair(0.into(), 0.into()), 0.into()),
        ]);
        values
    }

    /// An arity-4 relation filled from a six-value palette drawn from
    /// [`tricky_values`], so ties on every side are frequent.
    fn instance_of(palette: &[usize], rows: &[(usize, usize, usize, usize)]) -> Instance {
        let values = tricky_values();
        let pick = |i: usize| values[palette[i] % values.len()].clone();
        let mut instance = Instance::new(Signature::new([("R", 4)]).unwrap());
        for &(a, b, c, d) in rows {
            instance.insert_named("R", [pick(a), pick(b), pick(c), pick(d)]).unwrap();
        }
        instance
    }

    proptest! {
        #[test]
        fn ranked_grouping_matches_the_full_sort(
            palette in proptest::collection::vec(0usize..64, 6),
            rows in proptest::collection::vec((0usize..6, 0usize..6, 0usize..6, 0usize..6), 0..48),
            lhs in 0u64..16,
            rhs in 0u64..16,
            pack in any::<bool>(),
        ) {
            let instance = instance_of(&palette, &rows);
            let r = instance.signature().rel_id("R").unwrap();
            let fd = Fd::new(r, AttrSet::from_bits(lhs), AttrSet::from_bits(rhs));
            let ids: Vec<FactId> = instance.fact_ids().collect();
            let group = |ids: &[FactId]| FdGrouping::ranked(&instance, fd, ids.to_vec(), pack);
            prop_assert_eq!(group(&ids), oracle(&instance, fd, &ids));
            // Keyed by raw value ids: the same groups and blocks.
            let by_ids = FdGrouping::keyed(&instance, fd, ids.clone(), |v| v.0, instance.value_bound(), pack);
            prop_assert_eq!(partition(&by_ids), partition(&group(&ids)));
            // A subset in reverse order groups like the oracle too.
            let odd: Vec<FactId> = ids.iter().rev().copied().filter(|id| id.0 % 2 == 1).collect();
            prop_assert_eq!(group(&odd), oracle(&instance, fd, &odd));
        }
    }

    #[test]
    fn rows_too_wide_to_pack_sort_as_slices() {
        // Eight attributes over 300 distinct values need 8 × 9 bits: the
        // packed path declines and the slice path gives the oracle.
        let sig = Signature::new([("W", 8)]).unwrap();
        let w = sig.rel_id("W").unwrap();
        let mut instance = Instance::new(sig);
        for n in 0..300i64 {
            let row = (0..8).map(|k| Value::Int((n * 7 + k * 13) % 300 - (n % 3) * 1000));
            instance.insert_named("W", row).unwrap();
        }
        let fd = Fd::from_attrs(w, [1, 2, 3, 4], [5, 6, 7, 8]);
        let ids: Vec<FactId> = instance.fact_ids().collect();
        assert_eq!(
            FdGrouping::new(&instance, fd, ids.iter().copied()),
            oracle(&instance, fd, &ids)
        );
    }

    #[test]
    fn groups_and_blocks_follow_the_canonical_order() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let r = sig.rel_id("R").unwrap();
        let mut i = Instance::new(sig);
        for (a, b) in [("b", "1"), ("a", "2"), ("a", "1"), ("b", "1x"), ("a", "2x"), ("c", "0")] {
            i.insert_named("R", [Value::sym(a), Value::sym(b)]).unwrap();
        }
        let fd = Fd::from_attrs(r, [1], [2]);
        let g = FdGrouping::new(&i, fd, i.fact_ids());
        let groups: Vec<Vec<Vec<u32>>> = (0..g.group_count())
            .map(|gi| g.blocks(gi).map(|b| b.iter().map(|id| id.0).collect()).collect())
            .collect();
        assert_eq!(
            groups,
            vec![vec![vec![2], vec![1], vec![4]], vec![vec![0], vec![3]], vec![vec![5]]]
        );
        // Group `a` has three blocks, group `b` two, group `c` one: every
        // fact of `a` and `b` conflicts with the rest of its group.
        let runs: Vec<(u32, usize)> =
            g.conflict_runs().map(|(f, [x, y])| (f.0, x.len() + y.len())).collect();
        assert_eq!(runs, vec![(2, 2), (1, 2), (4, 2), (0, 1), (3, 1)]);
    }

    #[test]
    fn empty_input_has_no_groups() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let r = sig.rel_id("R").unwrap();
        let i = Instance::new(sig);
        let g = FdGrouping::new(&i, Fd::from_attrs(r, [1], [2]), []);
        assert_eq!(g.group_count(), 0);
        assert_eq!(g.conflict_runs().count(), 0);
    }
}
