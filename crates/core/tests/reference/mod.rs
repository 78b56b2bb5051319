//! `GRepCheck1FD` and its Lemma 4.2 block structure as they were before
//! the check became one pass over the flat grouping, kept as the oracle
//! the production checker and the delta patching must agree with.
//!
//! Here the blocks are a nested copy of the grouping (`groups[g][b]`
//! lists the ids of block `b` of group `g`), and the check runs three
//! passes: a consistency scan, a maximality scan, then the block-swap
//! scan, which tests "some fact of the block beats `f′`" with per-pair
//! `prefers` probes.

use rpr_core::{CheckOutcome, Improvement};
use rpr_data::{Compaction, FactId, FactSet, Instance};
use rpr_fd::grouping::cmp_on;
use rpr_fd::{CsrConflictGraph, Fd, FdGrouping};
use rpr_priority::PriorityRelation;

/// The nested block structure: groups in `A`-projection order, blocks
/// within a group in `B`-projection order, ids within a block
/// ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NestedBlocks {
    pub groups: Vec<Vec<Vec<FactId>>>,
}

impl NestedBlocks {
    pub fn build(instance: &Instance, fd: Fd, domain: &FactSet) -> NestedBlocks {
        let grouping = FdGrouping::new(instance, fd, domain.iter());
        let groups = (0..grouping.group_count())
            .map(|g| grouping.blocks(g).map(<[FactId]>::to_vec).collect())
            .collect();
        NestedBlocks { groups }
    }

    pub fn remap(&mut self, c: &Compaction) {
        if c.first() >= c.after() {
            return;
        }
        for id in self.groups.iter_mut().flatten().flatten() {
            if id.index() >= c.first() {
                *id = c.new_id(*id).expect("removed facts are out of the blocks");
            }
        }
    }

    pub fn insert(&mut self, instance: &Instance, fd: Fd, id: FactId) {
        match self.groups.binary_search_by(|g| cmp_on(instance, g[0][0], id, fd.lhs)) {
            Ok(gi) => {
                let group = &mut self.groups[gi];
                match group.binary_search_by(|b| cmp_on(instance, b[0], id, fd.rhs)) {
                    Ok(bi) => group[bi].push(id),
                    Err(bi) => group.insert(bi, vec![id]),
                }
            }
            Err(gi) => self.groups.insert(gi, vec![vec![id]]),
        }
    }

    pub fn remove(&mut self, instance: &Instance, fd: Fd, id: FactId) {
        let (gi, bi) = self.locate(instance, fd, id);
        let group = &mut self.groups[gi];
        let block = &mut group[bi];
        let pos = block.iter().position(|&x| x == id).expect("deleted fact is in its block");
        block.remove(pos);
        if block.is_empty() {
            group.remove(bi);
        }
        if self.groups[gi].is_empty() {
            self.groups.remove(gi);
        }
    }

    fn locate(&self, instance: &Instance, fd: Fd, id: FactId) -> (usize, usize) {
        let gi = self
            .groups
            .binary_search_by(|g| cmp_on(instance, g[0][0], id, fd.lhs))
            .expect("the fact's group is present");
        let bi = self.groups[gi]
            .binary_search_by(|b| cmp_on(instance, b[0], id, fd.rhs))
            .expect("the fact's block is present");
        (gi, bi)
    }

    pub fn conflict_row(&self, instance: &Instance, fd: Fd, id: FactId) -> Vec<u32> {
        let (gi, bi) = self.locate(instance, fd, id);
        let mut row: Vec<u32> = self.groups[gi]
            .iter()
            .enumerate()
            .filter(|&(b, _)| b != bi)
            .flat_map(|(_, block)| block.iter().map(|g| g.0))
            .collect();
        row.sort_unstable();
        row
    }

    fn consistency_witness(&self, j: &FactSet) -> Option<(FactId, FactId)> {
        let mut best: Option<(FactId, FactId)> = None;
        for group in &self.groups {
            if group.len() < 2 {
                continue;
            }
            let mut lo: Option<FactId> = None;
            let mut hi: Option<FactId> = None;
            for block in group {
                let Some(&m) = block.iter().find(|id| j.contains(**id)) else {
                    continue;
                };
                match lo {
                    None => lo = Some(m),
                    Some(f0) if m < f0 => {
                        lo = Some(m);
                        hi = Some(hi.map_or(f0, |h| h.min(f0)));
                    }
                    Some(_) => hi = Some(hi.map_or(m, |h| h.min(m))),
                }
            }
            if let (Some(f), Some(g)) = (lo, hi) {
                if best.is_none_or(|(bf, _)| f < bf) {
                    best = Some((f, g));
                }
            }
        }
        best
    }

    fn maximality_witness(&self, j: &FactSet) -> Option<FactId> {
        let mut best: Option<FactId> = None;
        for group in &self.groups {
            let j_block = group.iter().position(|b| b.iter().any(|id| j.contains(*id)));
            let candidate = match j_block {
                None => group.iter().flatten().copied().min(),
                Some(bf) => group[bf].iter().copied().find(|id| !j.contains(*id)),
            };
            if let Some(c) = candidate {
                if best.is_none_or(|b| c < b) {
                    best = Some(c);
                }
            }
        }
        best
    }
}

/// The three-pass check over the nested blocks.
pub fn check_with_blocks(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    blocks: &NestedBlocks,
    j: &FactSet,
) -> CheckOutcome {
    let _ = cg;
    if let Some((f, g)) = blocks.consistency_witness(j) {
        return CheckOutcome::Inconsistent(f, g);
    }
    if let Some(g) = blocks.maximality_witness(j) {
        let mut added = FactSet::empty(j.universe());
        added.insert(g);
        return CheckOutcome::Improvable(Improvement {
            removed: FactSet::empty(j.universe()),
            added,
        });
    }
    for group in &blocks.groups {
        if group.len() < 2 {
            continue;
        }
        let j_block: Option<usize> = group.iter().position(|b| b.iter().any(|id| j.contains(*id)));
        let Some(bf) = j_block else { continue };
        let removed: Vec<FactId> = group[bf].iter().copied().filter(|id| j.contains(*id)).collect();
        for (bg, block) in group.iter().enumerate() {
            if bg == bf {
                continue;
            }
            let improves =
                removed.iter().all(|&f_prime| block.iter().any(|&g| priority.prefers(g, f_prime)));
            if improves {
                let mut rem = FactSet::empty(j.universe());
                for &f in &removed {
                    rem.insert(f);
                }
                let mut add = FactSet::empty(j.universe());
                for &g in block {
                    add.insert(g);
                }
                return CheckOutcome::Improvable(Improvement { removed: rem, added: add });
            }
        }
    }
    CheckOutcome::Optimal
}
