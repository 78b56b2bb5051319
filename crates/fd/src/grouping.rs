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
//! and the Lemma 4.2 block structure of `GRepCheck1FD`, so a session
//! groups each single-FD relation once. The comparisons are value-wise
//! in place: no projection tuple is ever materialized.

use crate::fd::Fd;
use crate::schema::Schema;
use rpr_data::{AttrSet, FactId, Instance, RelId};
use std::cmp::Ordering;

/// Compares two facts on an attribute set, value-wise in place.
pub fn cmp_on(instance: &Instance, x: FactId, y: FactId, attrs: AttrSet) -> Ordering {
    let (f, g) = (instance.fact(x), instance.fact(y));
    for a in attrs.iter() {
        match f.get(a).cmp(g.get(a)) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// The facts of one relation grouped under one FD `A → B`, flat.
///
/// The order is *canonical*: groups sorted by `A`-projection, blocks
/// within a group by `B`-projection, ids within a block ascending. Two
/// groupings over equal content are therefore identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FdGrouping {
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
    pub fn new(instance: &Instance, fd: Fd, ids: impl IntoIterator<Item = FactId>) -> Self {
        let mut sorted: Vec<FactId> = ids.into_iter().collect();
        sorted.sort_unstable_by(|&x, &y| {
            cmp_on(instance, x, y, fd.lhs)
                .then_with(|| cmp_on(instance, x, y, fd.rhs))
                .then(x.cmp(&y))
        });
        let mut block_starts = Vec::new();
        let mut group_starts = Vec::new();
        for (p, &id) in sorted.iter().enumerate() {
            debug_assert_eq!(instance.fact(id).rel(), fd.rel, "grouping foreign facts");
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
        FdGrouping { sorted, block_starts, group_starts }
    }

    /// One grouping of `rel`'s facts per non-trivial FD of `schema` on
    /// `rel` — together they witness every conflict of the relation.
    pub fn for_relation<'a>(
        schema: &'a Schema,
        instance: &'a Instance,
        rel: RelId,
    ) -> impl Iterator<Item = FdGrouping> + 'a {
        let facts = instance.facts_of(rel);
        schema
            .fds_for(rel)
            .iter()
            .filter(|fd| !fd.is_trivial())
            .map(move |&fd| FdGrouping::new(instance, fd, facts.iter().copied()))
    }

    /// Number of groups (distinct `A`-projections).
    pub fn group_count(&self) -> usize {
        self.group_starts.len() - 1
    }

    /// The blocks of group `g`, in canonical order; each block's ids
    /// ascend.
    pub fn blocks(&self, g: usize) -> impl Iterator<Item = &[FactId]> + '_ {
        let (first, last) = (self.group_starts[g] as usize, self.group_starts[g + 1] as usize);
        (first..last).map(move |b| self.block(b))
    }

    fn block(&self, b: usize) -> &[FactId] {
        &self.sorted[self.block_starts[b] as usize..self.block_starts[b + 1] as usize]
    }

    /// For every fact sitting in a group of two or more blocks: the fact
    /// and its conflict partners under this FD, as the two runs of the
    /// canonical order around its own block (each run sorted by `B`,
    /// then id — not by id alone).
    pub(crate) fn conflict_runs(&self) -> impl Iterator<Item = (FactId, [&[FactId]; 2])> + '_ {
        (0..self.group_count()).flat_map(move |g| {
            let (first, last) = (self.group_starts[g] as usize, self.group_starts[g + 1] as usize);
            let (gs, ge) = (self.block_starts[first] as usize, self.block_starts[last] as usize);
            let blocks = if last - first >= 2 { first..last } else { 0..0 };
            blocks.flat_map(move |b| {
                let (bs, be) = (self.block_starts[b] as usize, self.block_starts[b + 1] as usize);
                let runs = [&self.sorted[gs..bs], &self.sorted[be..ge]];
                self.sorted[bs..be].iter().map(move |&f| (f, runs))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Signature, Value};

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
