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
//! improvement — we still report an addable fact first, as the cheaper
//! witness.
//!
//! One pass over the groups ([`scan_groups`]) decides all three: the
//! repair pre-checks (consistency, maximality) and the swap scan. The
//! sequential entry point runs it over every group; a session fans it
//! out over group ranges and [merges](GroupScan::merge) the results,
//! which gives the same verdict and witness.
//!
//! The block structure depends only on `(instance, fd, domain)`, never
//! on the candidate `J` — so amortized callers
//! ([`CheckSession`](crate::session::CheckSession)) build [`FdBlocks`]
//! once and call [`check_global_1fd_with_blocks`] per candidate.

use crate::improvement::{CheckOutcome, Improvement};
use rpr_data::{FactId, FactSet, Instance};
use rpr_fd::{CsrConflictGraph, Fd, FdGrouping};
use rpr_priority::PriorityRelation;
use std::ops::Range;

/// The block structure of one relation's facts under a single FD is the
/// relation's flat [`FdGrouping`]: groups share the `A`-projection;
/// blocks within a group share the `B`-projection. Facts in different
/// blocks of one group conflict; facts in the same block, or in
/// different groups, never do. [`FdBlocks::build`] groups a domain;
/// the delta layer patches the grouping in place.
pub type FdBlocks = FdGrouping;

/// Does some fact of `block` (ids ascending) beat `f`? Reads `f`'s
/// `better_than` row, which is short where the block may be long.
pub(crate) fn beaten_by(priority: &PriorityRelation, block: &[FactId], f: FactId) -> bool {
    priority.better_than(f).iter().any(|g| block.binary_search(g).is_ok())
}

/// A Lemma 4.2 block swap `J[f ↔ g]`: J's block `from` of group `group`
/// out, block `to` of the same group in (blocks numbered across the
/// grouping). Ordered by group first, so the least swap is the first
/// one in group order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Swap {
    group: usize,
    from: usize,
    to: usize,
}

/// What one pass of `GRepCheck1FD` found over a range of groups. Each
/// field is a least element over the range, so the scans of disjoint
/// ranges [`merge`](Self::merge) into the scan of their union, and the
/// verdict reads off the merged scan: an inconsistency first, then an
/// addable fact, then a swap.
#[derive(Default)]
pub(crate) struct GroupScan {
    /// The least `f ∈ J` conflicting inside `J`, with its least partner.
    incons: Option<(FactId, FactId)>,
    /// The least fact addable to `J` without conflict.
    addable: Option<FactId>,
    /// The first improving swap in group order.
    swap: Option<Swap>,
}

fn least<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
    a.into_iter().chain(b).min()
}

impl GroupScan {
    /// The least `f ∈ J` conflicting inside `J`, with its least partner
    /// (only found by a scan not told that `J` is consistent).
    pub(crate) fn inconsistency(&self) -> Option<(FactId, FactId)> {
        self.incons
    }

    /// The scan of two disjoint group ranges together.
    pub(crate) fn merge(self, other: GroupScan) -> GroupScan {
        GroupScan {
            incons: least(self.incons, other.incons),
            addable: least(self.addable, other.addable),
            swap: least(self.swap, other.swap),
        }
    }

    /// The verdict, with its witness sets built for the winning group
    /// only. `cg` and `priority` are read by debug assertions alone.
    pub(crate) fn outcome(
        self,
        cg: &CsrConflictGraph,
        priority: &PriorityRelation,
        blocks: &FdBlocks,
        j: &FactSet,
    ) -> CheckOutcome {
        let set = |ids: &[FactId]| {
            let mut set = FactSet::empty(j.universe());
            ids.iter().for_each(|&id| set.insert(id));
            set
        };
        if let Some((f, g)) = self.incons {
            debug_assert!(cg.neighbors(f).any(|x| x == g));
            return CheckOutcome::Inconsistent(f, g);
        }
        let witness = match (self.addable, self.swap) {
            (Some(g), _) => {
                debug_assert!(!cg.conflicts_with_set(g, j));
                Improvement::adding(j.universe(), g)
            }
            (None, Some(s)) => {
                Improvement { removed: set(blocks.block(s.from)), added: set(blocks.block(s.to)) }
            }
            (None, None) => return CheckOutcome::Optimal,
        };
        debug_assert!(witness.is_valid_global_improvement(cg, priority, j));
        CheckOutcome::Improvable(witness)
    }
}

/// One allocation-free pass of `GRepCheck1FD` over the groups in
/// `groups`. Per group it finds the block holding `J`'s members (two
/// such blocks are an inconsistency), the least fact addable to `J`,
/// and — while neither the range nor the group has settled the verdict
/// otherwise — the first block whose swap for `J`'s block improves `J`.
///
/// With `consistent`, the caller has already found `J` consistent (the
/// session pre-pass), so the pass stops looking at a group's blocks
/// once it has found `J`'s.
pub(crate) fn scan_groups(
    priority: &PriorityRelation,
    blocks: &FdBlocks,
    j: &FactSet,
    groups: Range<usize>,
    consistent: bool,
) -> GroupScan {
    let mut out = GroupScan::default();
    for g in groups {
        // J's block, and the two least of the blocks' least J-members:
        // a second block with J-members makes the group inconsistent.
        let (mut j_block, mut lo, mut hi) = (None, None, None);
        for b in blocks.group(g) {
            let Some(&m) = blocks.block(b).iter().find(|&&id| j.contains(id)) else { continue };
            match lo {
                None => {
                    (j_block, lo) = (Some(b), Some(m));
                    if consistent {
                        break;
                    }
                }
                Some(l) if m < l => (lo, hi) = (Some(m), Some(l)),
                Some(_) => hi = least(hi, Some(m)),
            }
        }
        if let (Some(f), Some(partner)) = (lo, hi) {
            out.incons = least(out.incons, Some((f, partner)));
            continue;
        }
        if out.incons.is_some() {
            continue; // only a lesser inconsistency can change the verdict
        }
        let Some(from) = j_block else {
            // Every fact of a group without J-members is addable.
            let heads = blocks.group(g).map(|b| blocks.block(b)[0]).min();
            out.addable = least(out.addable, heads);
            continue;
        };
        // A fact of J's block missing from J agrees with J's members on
        // A and B, so it is addable.
        let removed = blocks.block(from);
        if let Some(&a) = removed.iter().find(|&&id| !j.contains(id)) {
            out.addable = least(out.addable, Some(a));
            continue;
        }
        if out.addable.is_some() || out.swap.is_some() {
            continue;
        }
        // J holds all of block `from`. J[f↔g] improves J iff every
        // removed fact is beaten by some fact of the added block.
        let to = blocks.group(g).filter(|&to| to != from).find(|&to| {
            let added = blocks.block(to);
            removed.iter().all(|&f| beaten_by(priority, added, f))
        });
        out.swap = to.map(|to| Swap { group: g, from, to });
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
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    fd: Fd,
    domain: &FactSet,
    j: &FactSet,
) -> CheckOutcome {
    let blocks = FdBlocks::build(instance, fd, domain);
    check_global_1fd_with_blocks(cg, priority, &blocks, j)
}

/// [`check_global_1fd`] against a prebuilt block structure — the
/// amortized path: no hashing, no bitset-row scans, one pass of
/// `O(|domain|)` per call that also decides the repair pre-checks.
/// Outcomes and witnesses are identical to the one-shot entry point.
pub fn check_global_1fd_with_blocks(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    blocks: &FdBlocks,
    j: &FactSet,
) -> CheckOutcome {
    scan_groups(priority, blocks, j, 0..blocks.group_count(), false)
        .outcome(cg, priority, blocks, j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::is_globally_optimal_brute_bounded;
    use rpr_data::{Signature, Value};
    use rpr_engine::Budget;
    use rpr_fd::{CsrConflictGraph, Schema};

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
        let cg = CsrConflictGraph::new(&schema, &i);
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
        let cg = CsrConflictGraph::new(&schema, &i);
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

    /// The groups of a grouping, nested, for comparison.
    fn nested(blocks: &FdBlocks) -> Vec<Vec<Vec<FactId>>> {
        (0..blocks.group_count())
            .map(|g| blocks.blocks(g).map(<[FactId]>::to_vec).collect())
            .collect()
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
                assert_eq!(nested(&blocks), reference_groups(&i, fd));
            }
        }
        let (_, i, fd) = bookloc();
        assert_eq!(nested(&FdBlocks::build(&i, fd, &i.full_set())), reference_groups(&i, fd));
    }

    #[test]
    fn inconsistent_and_non_maximal_inputs() {
        let (schema, i, fd) = bookloc();
        let cg = CsrConflictGraph::new(&schema, &i);
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
        // The consistency and maximality witnesses of the one pass must
        // be exactly what the sequential row scans produce, on every
        // subset of a small instance.
        let (schema, i, fd) = bookloc();
        let cg = CsrConflictGraph::new(&schema, &i);
        let p = PriorityRelation::empty(i.len());
        let blocks = FdBlocks::build(&i, fd, &i.full_set());
        for bits in 0u32..(1 << i.len()) {
            let j = i.set_of((0..i.len() as u32).filter(|b| bits >> b & 1 == 1).map(FactId));
            let outcome = check_global_1fd_with_blocks(&cg, &p, &blocks, &j);
            let scan_incons = j.iter().find_map(|f| cg.first_conflict_in(f, &j).map(|g| (f, g)));
            let scan_max =
                i.full_set().difference(&j).iter().find(|&g| !cg.conflicts_with_set(g, &j));
            let expected = match (scan_incons, scan_max) {
                (Some((f, g)), _) => CheckOutcome::Inconsistent(f, g),
                (None, Some(g)) => CheckOutcome::Improvable(Improvement {
                    removed: i.empty_set(),
                    added: i.set_of([g]),
                }),
                // An empty priority admits no swap.
                (None, None) => CheckOutcome::Optimal,
            };
            assert_eq!(outcome, expected, "J = {bits:b}");
        }
    }

    #[test]
    fn range_scans_merge_to_the_whole_scan_on_every_subset() {
        // Split the groups into every possible two-range partition and
        // check that the merged scans reproduce the sequential verdict
        // and witness on every candidate subset, whether or not the
        // scans may assume consistency.
        let (schema, i, fd) = bookloc();
        let cg = CsrConflictGraph::new(&schema, &i);
        let p = PriorityRelation::new(i.len(), [(FactId(2), FactId(0)), (FactId(2), FactId(1))])
            .unwrap();
        let blocks = FdBlocks::build(&i, fd, &i.full_set());
        let n_groups = blocks.group_count();
        for bits in 0u32..(1 << i.len()) {
            let j = i.set_of((0..i.len() as u32).filter(|b| bits >> b & 1 == 1).map(FactId));
            let sequential = check_global_1fd_with_blocks(&cg, &p, &blocks, &j);
            let consistent = cg.is_consistent_set(&j);
            for split in 0..=n_groups {
                for assume in [false, consistent] {
                    let merged = scan_groups(&p, &blocks, &j, 0..split, assume).merge(scan_groups(
                        &p,
                        &blocks,
                        &j,
                        split..n_groups,
                        assume,
                    ));
                    let reduced = merged.outcome(&cg, &p, &blocks, &j);
                    assert_eq!(reduced, sequential, "J = {bits:b}, split at {split}");
                }
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
        let cg = CsrConflictGraph::new(&schema, &i);
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
