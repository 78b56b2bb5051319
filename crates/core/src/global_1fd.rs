//! `GRepCheck1FD` — globally-optimal repair checking for a single FD
//! (§4.1, Figure 2, Lemma 4.2).
//!
//! When `Δ|R` is equivalent to a single FD `A → B`, the paper shows that
//! `J` has a global improvement iff it has one of the special form
//! `J[f ↔ g]`: pick conflicting `f ∈ J`, `g ∈ I \ J`, remove from `J`
//! all facts agreeing with `f` on `A` (equivalently on `A ∪ B`, since
//! `J` is consistent), and add all facts of `I` agreeing with `g` on
//! `A` and `B` (Lemma 4.2). There are only quadratically many such
//! candidates, and each is consistent by construction, so the check is
//! polynomial.
//!
//! Our implementation works block-wise rather than fact-wise: group the
//! facts of the relation by their `A`-projection, and within a group by
//! their `B`-projection. `J[f ↔ g]` depends only on the blocks of `f`
//! and `g`, so we test each ordered pair of blocks once. §4.1 notes
//! that this procedure also subsumes the non-maximality and Pareto
//! cases, because a proper consistent superset is itself a global
//! improvement — we still pre-check maximality to give the cheaper
//! witness first.
//!
//! The block structure depends only on `(instance, fd, domain)`, never
//! on the candidate `J` — so amortized callers
//! ([`CheckSession`](crate::session::CheckSession)) build [`FdBlocks`]
//! once and call [`check_global_1fd_with_blocks`] per candidate, which
//! also runs the repair pre-checks block-wise instead of via bitset
//! scans (same witnesses, linear work).

use crate::improvement::{CheckOutcome, Improvement};
use rpr_data::{Compaction, FactId, FactSet, Instance};
use rpr_fd::grouping::cmp_on;
use rpr_fd::{ConflictRows, Fd, FdGrouping};
use rpr_priority::PriorityRelation;

/// The block structure of one relation's facts under a single FD:
/// groups share the `A`-projection; blocks within a group share the
/// `B`-projection. Facts in different blocks of one group conflict;
/// facts in the same block, or in different groups, never do.
pub struct FdBlocks {
    /// `groups[g]` = list of blocks; each block is a list of fact ids.
    groups: Vec<Vec<Vec<FactId>>>,
}

impl FdBlocks {
    /// The group/block structure: `groups()[g]` lists the blocks of
    /// group `g`, each a list of fact ids (certificate emission walks
    /// this to package per-block evidence).
    pub(crate) fn groups(&self) -> &[Vec<Vec<FactId>>] {
        &self.groups
    }

    /// Applies a delta batch's [`Compaction`]: every id moves to its
    /// new number. Removed facts must already be out of the blocks
    /// ([`remove`](Self::remove)). The renumbering is order-preserving,
    /// so ids inside blocks stay ascending and the result is exactly
    /// what [`FdBlocks::build`] over the compacted instance produces.
    /// A batch that moves no surviving id leaves the blocks alone.
    pub(crate) fn remap(&mut self, c: &Compaction) {
        if c.first() >= c.after() {
            return;
        }
        for id in self.groups.iter_mut().flatten().flatten() {
            if id.index() >= c.first() {
                *id = c.new_id(*id).expect("removed facts are out of the blocks");
            }
        }
    }

    /// Groups `domain`'s facts by `A`- then `B`-projection.
    ///
    /// Grouping is the sort-based [`FdGrouping`] (in-place attribute
    /// comparisons, no projection tuples), and the resulting group and
    /// block order is *canonical* — groups sorted by `A`-projection,
    /// blocks within a group by `B`-projection, ids within a block
    /// ascending — so two builds over equal content produce identical
    /// structures, and [`insert`](Self::insert) /
    /// [`remove`](Self::remove) can patch the structure in place while
    /// staying bit-identical to a from-scratch build.
    pub fn build(instance: &Instance, fd: Fd, domain: &FactSet) -> FdBlocks {
        Self::from_grouping(&FdGrouping::new(instance, fd, domain.iter()))
    }

    /// The block structure of an existing grouping — sessions group a
    /// single-FD relation once and derive both these blocks and its CSR
    /// conflict rows from it.
    pub fn from_grouping(grouping: &FdGrouping) -> FdBlocks {
        let groups = (0..grouping.group_count())
            .map(|g| grouping.blocks(g).map(<[FactId]>::to_vec).collect())
            .collect();
        FdBlocks { groups }
    }

    /// Patches in the fact `id`, freshly appended to `instance` (so it
    /// carries the maximal id). Binary-searches the canonical order for
    /// its group and block; the result is exactly what
    /// [`build`](Self::build) over the grown domain produces.
    pub(crate) fn insert(&mut self, instance: &Instance, fd: Fd, id: FactId) {
        match self.groups.binary_search_by(|g| cmp_on(instance, g[0][0], id, fd.lhs)) {
            Ok(gi) => {
                let group = &mut self.groups[gi];
                match group.binary_search_by(|b| cmp_on(instance, b[0], id, fd.rhs)) {
                    // The appended id is maximal, so a push keeps the
                    // block's ids ascending.
                    Ok(bi) => group[bi].push(id),
                    Err(bi) => group.insert(bi, vec![id]),
                }
            }
            Err(gi) => self.groups.insert(gi, vec![vec![id]]),
        }
    }

    /// Patches out the fact `id` (its content still readable in
    /// `instance`, as a tombstone's is), dropping its block and group if
    /// they become empty. The caller follows up with
    /// [`remap`](Self::remap) once the batch compacts the instance. The
    /// result is exactly what [`build`](Self::build) over the shrunken
    /// domain produces.
    pub(crate) fn remove(&mut self, instance: &Instance, fd: Fd, id: FactId) {
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

    /// The group and block indices of the fact `id`, present in the
    /// blocks, by binary search on the canonical order.
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

    /// The conflict row of the fact `id` (present in the blocks):
    /// every fact in another block of its group, ascending. Two binary
    /// searches plus the group's size, where a scan of the relation
    /// costs `O(|rel|)`.
    pub(crate) fn conflict_row(&self, instance: &Instance, fd: Fd, id: FactId) -> Vec<u32> {
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

    /// The minimal `f ∈ j` conflicting inside `j`, with its minimal
    /// conflict partner — the witness the sequential bitset scan
    /// `for f in j { cg.conflicts_in(f, j).first() }` finds. Two
    /// `j`-facts conflict iff they sit in different blocks of one
    /// group.
    fn consistency_witness(&self, j: &FactSet) -> Option<(FactId, FactId)> {
        let mut best: Option<(FactId, FactId)> = None;
        for group in &self.groups {
            if group.len() < 2 {
                continue;
            }
            // The two minimal j-members in distinct blocks, if any.
            let mut lo: Option<FactId> = None;
            let mut hi: Option<FactId> = None;
            for block in group {
                let Some(&m) = block.iter().find(|id| j.contains(**id)) else {
                    continue;
                };
                // Each block is visited once, so `m` is always from a
                // block other than `lo`'s: the loser goes into `hi`.
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

    /// The minimal fact of the domain addable to `j` without conflict
    /// (`j` assumed consistent): any fact of a group without j-members,
    /// or a fact of the j-block itself that is missing from `j`.
    fn maximality_witness(&self, j: &FactSet) -> Option<FactId> {
        let mut best: Option<FactId> = None;
        for group in &self.groups {
            let j_block = group.iter().position(|b| b.iter().any(|id| j.contains(*id)));
            let candidate = match j_block {
                // No j-members: every fact of the group is addable.
                None => group.iter().flatten().copied().min(),
                // Same-block facts agree on A and B — no conflict.
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

/// Per-group-range evaluation of the three 1FD phases, produced by
/// [`eval_1fd_groups`] so sessions can fan the group axis out over
/// workers and reduce deterministically (see
/// `CheckSession::check_1fd_sharded`).
pub(crate) struct GroupRangeEval {
    /// Minimal-`f` consistency witness among the range's groups.
    pub incons: Option<(FactId, FactId)>,
    /// Minimal addable fact among the range's groups.
    pub max_wit: Option<FactId>,
    /// First improvable `(group index, witness)` in the range, in group
    /// then block order.
    pub improvable: Option<(usize, Improvement)>,
}

/// Evaluates consistency, maximality, and the block-swap scan for the
/// groups in `range` only. Reducing range results hierarchically —
/// min-by-`f` inconsistency first, then min maximality witness, then
/// the improvable hit with the smallest group index — reproduces the
/// sequential [`check_global_1fd_with_blocks`] verdict and witness
/// exactly, because that function's phases are themselves global
/// min-reductions (consistency, maximality) or first-in-group-order
/// scans (improvability).
pub(crate) fn eval_1fd_groups(
    priority: &PriorityRelation,
    blocks: &FdBlocks,
    j: &FactSet,
    range: std::ops::Range<usize>,
) -> GroupRangeEval {
    let mut out = GroupRangeEval { incons: None, max_wit: None, improvable: None };
    for gi in range {
        let group = &blocks.groups[gi];
        // Phase 1: the two minimal j-members in distinct blocks.
        if group.len() >= 2 {
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
                if out.incons.is_none_or(|(bf, _)| f < bf) {
                    out.incons = Some((f, g));
                }
            }
        }
        // Phase 2: minimal addable fact (meaningful only when the
        // reduce finds no inconsistency anywhere).
        let j_block = group.iter().position(|b| b.iter().any(|id| j.contains(*id)));
        let candidate = match j_block {
            None => group.iter().flatten().copied().min(),
            Some(bf) => group[bf].iter().copied().find(|id| !j.contains(*id)),
        };
        if let Some(c) = candidate {
            if out.max_wit.is_none_or(|b| c < b) {
                out.max_wit = Some(c);
            }
        }
        // Phase 3: first improvable block swap in this group.
        if out.improvable.is_some() || group.len() < 2 {
            continue;
        }
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
                out.improvable = Some((gi, Improvement { removed: rem, added: add }));
                break;
            }
        }
    }
    out
}

/// Runs `GRepCheck1FD` for the facts in `domain` (one relation), under
/// the single FD `fd` to which `Δ|R` is equivalent.
///
/// `j` is the candidate repair restricted to `domain`; `cg` is the
/// conflict graph of the whole instance (used only to validate
/// witnesses in debug builds). Returns the outcome with a checked
/// witness. One-shot convenience over [`check_global_1fd_with_blocks`].
pub fn check_global_1fd(
    instance: &Instance,
    cg: &impl ConflictRows,
    priority: &PriorityRelation,
    fd: Fd,
    domain: &FactSet,
    j: &FactSet,
) -> CheckOutcome {
    let blocks = FdBlocks::build(instance, fd, domain);
    check_global_1fd_with_blocks(cg, priority, &blocks, j)
}

/// [`check_global_1fd`] against a prebuilt block structure — the
/// amortized path: no hashing, no bitset-row scans, `O(|domain|)` per
/// call. Outcomes and witnesses are identical to the one-shot entry
/// point.
pub fn check_global_1fd_with_blocks(
    cg: &impl ConflictRows,
    priority: &PriorityRelation,
    blocks: &FdBlocks,
    j: &FactSet,
) -> CheckOutcome {
    let _ = cg; // only read by debug assertions

    // Repair pre-checks: J must be consistent and maximal in `domain`.
    if let Some((f, g)) = blocks.consistency_witness(j) {
        debug_assert!(cg.neighbors(f).any(|x| x == g));
        return CheckOutcome::Inconsistent(f, g);
    }
    if let Some(g) = blocks.maximality_witness(j) {
        debug_assert!(!cg.conflicts_with_set(g, j));
        let mut added = FactSet::empty(j.universe());
        added.insert(g);
        return CheckOutcome::Improvable(Improvement {
            removed: FactSet::empty(j.universe()),
            added,
        });
    }

    for group in &blocks.groups {
        if group.len() < 2 {
            continue; // no conflicts inside a single block
        }
        // J ∩ group lives in exactly one block (J is consistent).
        let j_block: Option<usize> = group.iter().position(|b| b.iter().any(|id| j.contains(*id)));
        let Some(bf) = j_block else { continue };
        let removed: Vec<FactId> = group[bf].iter().copied().filter(|id| j.contains(*id)).collect();
        for (bg, block) in group.iter().enumerate() {
            if bg == bf {
                continue;
            }
            // J[f↔g]: remove `removed`, add the whole candidate block.
            // Global improvement ⇔ every removed fact is beaten by some
            // added fact.
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
                let witness = Improvement { removed: rem, added: add };
                debug_assert!(witness.is_valid_global_improvement(cg, priority, j));
                return CheckOutcome::Improvable(witness);
            }
        }
    }
    CheckOutcome::Optimal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::is_globally_optimal_brute_bounded;
    use rpr_data::{Signature, Value};
    use rpr_engine::Budget;
    use rpr_fd::{ConflictGraph, Schema};

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// BookLoc fragment of the running example under 1→2 (Example 4.1).
    fn bookloc() -> (Schema, Instance, Fd) {
        let sig = Signature::new([("BookLoc", 3)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("BookLoc", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        for (a, b, c) in [
            ("b1", "fiction", "lib1"), // 0 g1f1
            ("b1", "fiction", "lib2"), // 1 g1f2
            ("b1", "drama", "lib3"),   // 2 f1d3
            ("b2", "poetry", "lib1"),  // 3 f2p1
            ("b3", "horror", "lib2"),  // 4 h3h2
        ] {
            i.insert_named("BookLoc", [v(a), v(b), v(c)]).unwrap();
        }
        let fd = schema.fds()[0];
        (schema, i, fd)
    }

    #[test]
    fn example_4_1_swap_semantics() {
        // J = {g1f1, g1f2, f2p1}; J[g1f1 ↔ f1d3] must drop BOTH g1f1 and
        // g1f2 and add f1d3.
        let (schema, i, fd) = bookloc();
        let cg = ConflictGraph::new(&schema, &i);
        let p = PriorityRelation::new(i.len(), [(FactId(2), FactId(0)), (FactId(2), FactId(1))])
            .unwrap();
        // With f1d3 preferred over both g-facts, J (completed to a
        // repair with h3h2) is improvable by the block swap.
        let j = i.set_of([0, 1, 3, 4].map(FactId));
        match check_global_1fd(&i, &cg, &p, fd, &i.full_set(), &j) {
            CheckOutcome::Improvable(imp) => {
                assert_eq!(imp.removed.iter().collect::<Vec<_>>(), vec![FactId(0), FactId(1)]);
                assert_eq!(imp.added.iter().collect::<Vec<_>>(), vec![FactId(2)]);
            }
            other => panic!("expected improvement, got {other:?}"),
        }
    }

    #[test]
    fn running_example_priority_makes_g_block_optimal() {
        // Example 2.3's priority: g ≻ f ⇒ J containing the g-block is
        // optimal, J' containing f1d3 is improvable.
        let (schema, i, fd) = bookloc();
        let cg = ConflictGraph::new(&schema, &i);
        let p = PriorityRelation::new(i.len(), [(FactId(0), FactId(2)), (FactId(1), FactId(2))])
            .unwrap();
        let j_good = i.set_of([0, 1, 3, 4].map(FactId));
        assert!(check_global_1fd(&i, &cg, &p, fd, &i.full_set(), &j_good).is_optimal());
        let j_bad = i.set_of([2, 3, 4].map(FactId));
        match check_global_1fd(&i, &cg, &p, fd, &i.full_set(), &j_bad) {
            CheckOutcome::Improvable(imp) => {
                assert!(imp.is_valid_global_improvement(&cg, &p, &j_bad));
            }
            other => panic!("expected improvement, got {other:?}"),
        }
    }

    /// The block structure by its definition: a map from
    /// `A`-projection to a map from `B`-projection to ascending ids —
    /// ordered maps give the canonical group and block order.
    fn reference_groups(i: &Instance, fd: Fd) -> Vec<Vec<Vec<FactId>>> {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<_, BTreeMap<_, Vec<FactId>>> = BTreeMap::new();
        for &id in i.facts_of(fd.rel) {
            let f = i.fact(id);
            groups
                .entry(f.project(fd.lhs))
                .or_default()
                .entry(f.project(fd.rhs))
                .or_default()
                .push(id);
        }
        groups.into_values().map(|g| g.into_values().collect()).collect()
    }

    #[test]
    fn shared_grouping_builds_the_definitional_blocks() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rpr_gen::{random_instance, schemas, InstanceSpec};
        let mut rng = StdRng::seed_from_u64(0xB10C5);
        for (lhs, rhs) in [(&[1][..], &[2][..]), (&[1, 2][..], &[3][..]), (&[][..], &[1][..])] {
            let schema = schemas::single_fd_schema(3, lhs, rhs);
            let fd = schema.fds()[0];
            for domain in [1, 3, 10] {
                let spec = InstanceSpec { facts_per_relation: 80, domain };
                let i = random_instance(&schema, spec, &mut rng);
                let blocks = FdBlocks::build(&i, fd, &i.full_set());
                assert_eq!(blocks.groups(), reference_groups(&i, fd));
                let grouping = FdGrouping::new(&i, fd, i.facts_of(fd.rel).iter().copied());
                assert_eq!(FdBlocks::from_grouping(&grouping).groups(), blocks.groups());
            }
        }
        let (_, i, fd) = bookloc();
        assert_eq!(FdBlocks::build(&i, fd, &i.full_set()).groups(), reference_groups(&i, fd));
    }

    #[test]
    fn inconsistent_and_non_maximal_inputs() {
        let (schema, i, fd) = bookloc();
        let cg = ConflictGraph::new(&schema, &i);
        let p = PriorityRelation::empty(i.len());
        let bad = i.set_of([0, 2].map(FactId));
        assert!(matches!(
            check_global_1fd(&i, &cg, &p, fd, &i.full_set(), &bad),
            CheckOutcome::Inconsistent(..)
        ));
        let partial = i.set_of([0, 1].map(FactId));
        match check_global_1fd(&i, &cg, &p, fd, &i.full_set(), &partial) {
            CheckOutcome::Improvable(imp) => assert!(imp.removed.is_empty()),
            other => panic!("expected vacuous improvement, got {other:?}"),
        }
    }

    #[test]
    fn block_wise_prechecks_match_bitset_scans() {
        // The cached path's consistency/maximality witnesses must be
        // exactly what the sequential bitset scans produce, on every
        // subset of a small instance.
        let (schema, i, fd) = bookloc();
        let cg = ConflictGraph::new(&schema, &i);
        let blocks = FdBlocks::build(&i, fd, &i.full_set());
        for bits in 0u32..(1 << i.len()) {
            let j = i.set_of((0..i.len() as u32).filter(|b| bits >> b & 1 == 1).map(FactId));
            let scan_incons = j.iter().find_map(|f| cg.conflicts_in(f, &j).first().map(|g| (f, g)));
            assert_eq!(blocks.consistency_witness(&j), scan_incons, "J = {bits:b}");
            if scan_incons.is_none() {
                let scan_max =
                    i.full_set().difference(&j).iter().find(|&g| !cg.conflicts_with_set(g, &j));
                assert_eq!(blocks.maximality_witness(&j), scan_max, "J = {bits:b}");
            }
        }
    }

    #[test]
    fn range_eval_reduce_matches_sequential_on_every_subset() {
        // Split the groups into every possible two-range partition and
        // check that the hierarchical reduce reproduces the sequential
        // verdict and witness on every candidate subset.
        let (schema, i, fd) = bookloc();
        let cg = ConflictGraph::new(&schema, &i);
        let p = PriorityRelation::new(i.len(), [(FactId(2), FactId(0)), (FactId(2), FactId(1))])
            .unwrap();
        let blocks = FdBlocks::build(&i, fd, &i.full_set());
        let n_groups = blocks.groups().len();
        for bits in 0u32..(1 << i.len()) {
            let j = i.set_of((0..i.len() as u32).filter(|b| bits >> b & 1 == 1).map(FactId));
            let sequential = check_global_1fd_with_blocks(&cg, &p, &blocks, &j);
            for split in 0..=n_groups {
                let parts = [
                    eval_1fd_groups(&p, &blocks, &j, 0..split),
                    eval_1fd_groups(&p, &blocks, &j, split..n_groups),
                ];
                let incons = parts.iter().filter_map(|e| e.incons).min_by_key(|&(f, _)| f);
                let reduced = if let Some((f, g)) = incons {
                    CheckOutcome::Inconsistent(f, g)
                } else if let Some(g) = parts.iter().filter_map(|e| e.max_wit).min() {
                    let mut added = FactSet::empty(j.universe());
                    added.insert(g);
                    CheckOutcome::Improvable(Improvement {
                        removed: FactSet::empty(j.universe()),
                        added,
                    })
                } else if let Some((_, imp)) =
                    parts.into_iter().filter_map(|e| e.improvable).min_by_key(|&(gi, _)| gi)
                {
                    CheckOutcome::Improvable(imp)
                } else {
                    CheckOutcome::Optimal
                };
                assert_eq!(reduced, sequential, "J = {bits:b}, split at {split}");
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_on_dense_conflicts() {
        // 3 groups of sizes 3/2/2 with a half-ordered priority; check
        // every repair's verdict against the oracle.
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        for (a, b) in [
            ("g1", "x"),
            ("g1", "y"),
            ("g1", "z"),
            ("g2", "x"),
            ("g2", "y"),
            ("g3", "x"),
            ("g3", "y"),
        ] {
            i.insert_named("R", [v(a), v(b)]).unwrap();
        }
        let fd = schema.fds()[0];
        let cg = ConflictGraph::new(&schema, &i);
        let p = PriorityRelation::new(
            i.len(),
            [
                (FactId(0), FactId(1)), // g1: x ≻ y
                (FactId(1), FactId(2)), // g1: y ≻ z
                (FactId(4), FactId(3)), // g2: y ≻ x
            ],
        )
        .unwrap();
        let repairs = crate::brute::enumerate_repairs_bounded(
            &cg,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("repair enumeration");
        assert_eq!(repairs.len(), 3 * 2 * 2);
        for j in &repairs {
            let fast = check_global_1fd(&i, &cg, &p, fd, &i.full_set(), j).is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            assert_eq!(fast, slow, "disagreement on {j:?}");
        }
    }
}
