//! Brute-force oracles.
//!
//! Definitional, exponential-time implementations of every notion the
//! polynomial algorithms compute. These are first-class library members
//! (guarded by explicit budgets) because the differential tests and the
//! experiment harness check every fast path against them, and because
//! on the hard side of the dichotomy nothing better than exponential
//! search exists unless P = NP.
//!
//! Every oracle runs under an [`rpr_engine::Budget`] — work units, a
//! wall-clock deadline, cooperative cancellation — and returns an
//! [`Outcome`] that carries whatever partial answer had accumulated
//! when a limit tripped. There is exactly one search per notion; a
//! caller that wants a plain step cap arms
//! `Budget::unlimited().with_max_work(n)`. The session oracles
//! ([`globally_optimal_repairs_session_bounded`] and its count) meter
//! enumeration and every session check against the caller's one
//! budget.
//!
//! A useful reduction keeps the search space small: if `J` has a global
//! (resp. Pareto) improvement, it has one that is a *repair* — extend
//! any improving `J′` to a maximal consistent `J″ ⊇ J′`; then
//! `J \ J″ ⊆ J \ J′` and `J′ \ J ⊆ J″ \ J`, so the improvement
//! condition transfers. The oracles therefore only enumerate repairs,
//! i.e. the maximal independent sets of the conflict graph.

use crate::improvement::{is_global_improvement, Improvement};
use crate::session::CheckSession;
use rpr_data::{FactId, FactSet};
use rpr_engine::{Budget, Outcome, Stop};
use rpr_fd::CsrConflictGraph;
use rpr_priority::PriorityRelation;

/// Enumerates all repairs (maximal consistent subinstances) of the
/// instance underlying `cg`, one work unit per recursion node. On
/// [`Outcome::Exceeded`]/[`Outcome::Cancelled`] the partial answer is
/// the repairs enumerated before the limit tripped.
pub fn enumerate_repairs_bounded(cg: &CsrConflictGraph, budget: &Budget) -> Outcome<Vec<FactSet>> {
    let mut out = Vec::new();
    match for_each_repair_stop(cg, budget, |r| {
        out.push(r.clone());
        true
    }) {
        Ok(()) => Outcome::Done(out),
        Err(stop) => Outcome::from_stop(stop, Some(out)),
    }
}

/// Streams every repair to `visit` until exhaustion, early visitor stop
/// (`visit` returns `false`), or a budget stop. Any partial answer
/// lives in the visitor's state.
pub fn for_each_repair_bounded(
    cg: &CsrConflictGraph,
    budget: &Budget,
    visit: impl FnMut(&FactSet) -> bool,
) -> Outcome<()> {
    match for_each_repair_stop(cg, budget, visit) {
        Ok(()) => Outcome::Done(()),
        Err(stop) => Outcome::from_stop(stop, None),
    }
}

/// The enumeration proper: depth-first in/out branching over facts in
/// id order, one work unit per recursion node.
fn for_each_repair_stop(
    cg: &CsrConflictGraph,
    budget: &Budget,
    mut visit: impl FnMut(&FactSet) -> bool,
) -> Result<(), Stop> {
    let n = cg.len();
    let mut current = FactSet::empty(n);
    // A fact conflicting with the current set is forced out; at the
    // leaves we keep exactly the maximal sets (every excluded fact must
    // conflict).
    fn recurse(
        cg: &CsrConflictGraph,
        i: usize,
        current: &mut FactSet,
        budget: &Budget,
        visit: &mut impl FnMut(&FactSet) -> bool,
    ) -> Result<bool, Stop> {
        budget.step()?;
        let n = cg.len();
        if i == n {
            // Maximality check: every fact outside `current` conflicts.
            let maximal = (0..n).all(|k| {
                let id = FactId(k as u32);
                current.contains(id) || cg.conflicts_with_set(id, current)
            });
            if maximal {
                return Ok(visit(current));
            }
            return Ok(true);
        }
        let id = FactId(i as u32);
        if cg.conflicts_with_set(id, current) {
            return recurse(cg, i + 1, current, budget, visit);
        }
        // Branch: include id…
        current.insert(id);
        if !recurse(cg, i + 1, current, budget, visit)? {
            current.remove(id);
            return Ok(false);
        }
        current.remove(id);
        // …or exclude it. Pruning: excluding is only useful if some
        // later or earlier fact conflicts with it (otherwise the leaf
        // fails the maximality check anyway).
        if cg.neighbors(id).next().is_some() && !recurse(cg, i + 1, current, budget, visit)? {
            return Ok(false);
        }
        Ok(true)
    }
    recurse(cg, 0, &mut current, budget, &mut visit).map(|_| ())
}

/// Finds a global improvement of `j` by scanning all repairs
/// (definitional oracle). No improvement had been found when a limit
/// trips (the scan stops at the first one), so degraded outcomes carry
/// no partial.
pub fn find_global_improvement_brute_bounded(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    j: &FactSet,
    budget: &Budget,
) -> Outcome<Option<Improvement>> {
    match find_global_improvement_stop(cg, priority, j, budget) {
        Ok(found) => Outcome::Done(found),
        Err(stop) => Outcome::from_stop(stop, None),
    }
}

fn find_global_improvement_stop(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    j: &FactSet,
    budget: &Budget,
) -> Result<Option<Improvement>, Stop> {
    let mut found = None;
    for_each_repair_stop(cg, budget, |r| {
        if is_global_improvement(priority, j, r) {
            found = Some(Improvement { removed: j.difference(r), added: r.difference(j) });
            false
        } else {
            true
        }
    })?;
    Ok(found)
}

/// Is `j` a globally-optimal repair, by definition (oracle)?
pub fn is_globally_optimal_brute_bounded(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    j: &FactSet,
    budget: &Budget,
) -> Outcome<bool> {
    match is_globally_optimal_stop(cg, priority, j, budget) {
        Ok(ans) => Outcome::Done(ans),
        Err(stop) => Outcome::from_stop(stop, None),
    }
}

fn is_globally_optimal_stop(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    j: &FactSet,
    budget: &Budget,
) -> Result<bool, Stop> {
    if !cg.is_consistent_set(j) {
        return Ok(false);
    }
    if !cg.is_repair(j) {
        return Ok(false);
    }
    Ok(find_global_improvement_stop(cg, priority, j, budget)?.is_none())
}

/// Enumerates all globally-optimal repairs (oracle). The pairwise
/// filter charges one work unit per compared pair, so the quadratic
/// post-pass is bounded too; on degradation the partial answer is the
/// prefix of repairs already confirmed optimal.
pub fn globally_optimal_repairs_bounded(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    budget: &Budget,
) -> Outcome<Vec<FactSet>> {
    let repairs = match enumerate_repairs_bounded(cg, budget) {
        Outcome::Done(r) => r,
        // A prefix of the repairs cannot *confirm* optimality (every
        // later repair is a potential improvement), so an incomplete
        // enumeration degrades with no partial answer.
        Outcome::Exceeded { report, .. } => return Outcome::Exceeded { partial: None, report },
        Outcome::Cancelled { .. } => return Outcome::Cancelled { partial: None },
        Outcome::Panicked { report, .. } => return Outcome::Panicked { partial: None, report },
    };
    let mut out = Vec::new();
    for j in &repairs {
        let mut improvable = false;
        for r in &repairs {
            if let Err(stop) = budget.step() {
                return Outcome::from_stop(stop, Some(out));
            }
            if is_global_improvement(priority, j, r) {
                improvable = true;
                break;
            }
        }
        if !improvable {
            out.push(j.clone());
        }
    }
    Outcome::Done(out)
}

/// Counts globally-optimal repairs; `unique` is a common special case
/// (the "unambiguous cleaning" question of the concluding remarks). The
/// partial count on degradation is a lower bound.
pub fn count_globally_optimal_repairs_bounded(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    budget: &Budget,
) -> Outcome<usize> {
    globally_optimal_repairs_bounded(cg, priority, budget).map(|r| r.len())
}

/// Enumerates the globally-optimal repairs by filtering the repair
/// enumeration through the session's dispatched (polynomial where
/// possible) checker, fanning the checks out across the session's
/// workers. Agrees with [`globally_optimal_repairs_bounded`] and keeps
/// the enumeration order. One [`Budget`] meters both steps: bounded
/// enumeration, then a bounded parallel batch check. On degradation — a
/// tripped limit, a cancellation, or a panicking candidate — the
/// partial answer is every repair whose check *did* complete with an
/// optimal verdict; the first non-`Done` candidate outcome (in
/// enumeration order) determines the variant.
pub fn globally_optimal_repairs_session_bounded(
    session: &CheckSession<'_>,
    budget: &Budget,
) -> Outcome<Vec<FactSet>> {
    let (repairs, enumeration_stopped) =
        match enumerate_repairs_bounded(session.conflict_graph(), budget) {
            Outcome::Done(r) => (r, None),
            Outcome::Exceeded { partial, report } => {
                (partial.unwrap_or_default(), Some(Stop::Exceeded(report)))
            }
            Outcome::Cancelled { partial } => (partial.unwrap_or_default(), Some(Stop::Cancelled)),
            Outcome::Panicked { partial, report } => return Outcome::Panicked { partial, report },
        };
    let outcomes = session.check_batch_bounded(&repairs, budget);
    let mut out = Vec::new();
    let mut degraded: Option<Outcome<Vec<FactSet>>> = None;
    for (j, outcome) in repairs.into_iter().zip(outcomes) {
        match outcome {
            Outcome::Done(o) if o.is_optimal() => out.push(j),
            Outcome::Done(_) => {}
            other if degraded.is_none() => degraded = Some(other.map(|_| Vec::new())),
            _ => {}
        }
    }
    match degraded {
        Some(d) => d.with_partial(out),
        None => match enumeration_stopped {
            Some(stop) => Outcome::from_stop(stop, Some(out)),
            None => Outcome::Done(out),
        },
    }
}

/// Counts globally-optimal repairs via
/// [`globally_optimal_repairs_session_bounded`]; the partial count on
/// degradation is a lower bound.
pub fn count_globally_optimal_repairs_session_bounded(
    session: &CheckSession<'_>,
    budget: &Budget,
) -> Outcome<usize> {
    globally_optimal_repairs_session_bounded(session, budget).map(|r| r.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Instance, Signature, Value};
    use rpr_fd::{CsrConflictGraph, Schema};

    // Work charged on the `grouped` fixture under its chain priority:
    // 30 recursion nodes enumerate its six repairs; the optimal repair is
    // compared with all six, every other one is beaten by the first; and
    // `{R(a,2), R(b,1)}` meets its improvement at the sixth node.
    const WORK_ENUMERATE: u64 = 30;
    const WORK_IS_OPTIMAL: u64 = 30;
    const WORK_OPTIMAL_REPAIRS: u64 = 41;
    const WORK_FIND_IMPROVEMENT: u64 = 6;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// R(a,1..3) ∪ R(b,1..2) under R:1→2: repairs pick one fact per group.
    fn grouped() -> (CsrConflictGraph, Instance) {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        for x in ["1", "2", "3"] {
            i.insert_named("R", [v("a"), v(x)]).unwrap();
        }
        for x in ["1", "2"] {
            i.insert_named("R", [v("b"), v(x)]).unwrap();
        }
        (CsrConflictGraph::new(&schema, &i), i)
    }

    #[test]
    fn repair_enumeration_counts() {
        let (cg, _) = grouped();
        let repairs = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("grouped enumeration");
        // 3 choices × 2 choices.
        assert_eq!(repairs.len(), 6);
        for r in &repairs {
            assert!(cg.is_repair(r));
            assert_eq!(r.len(), 2);
        }
        // All distinct.
        let uniq: std::collections::HashSet<_> = repairs.iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(uniq.len(), 6);
    }

    #[test]
    fn conflict_free_instance_has_one_repair() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [v("a"), v("1")]).unwrap();
        i.insert_named("R", [v("b"), v("1")]).unwrap();
        let cg = CsrConflictGraph::new(&schema, &i);
        let repairs = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("conflict-free enumeration");
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0], i.full_set());
    }

    #[test]
    fn empty_instance_has_the_empty_repair() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let i = Instance::new(sig);
        let cg = CsrConflictGraph::new(&schema, &i);
        let repairs = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1024))
            .expect_done("empty enumeration");
        assert_eq!(repairs.len(), 1);
        assert!(repairs[0].is_empty());
    }

    #[test]
    fn budget_is_enforced() {
        let (cg, _) = grouped();
        assert!(matches!(
            enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(3)),
            Outcome::Exceeded { .. }
        ));
    }

    #[test]
    fn bounded_enumeration_degrades_with_a_partial_prefix() {
        let (cg, _) = grouped();
        let full = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("armed");
        // Unlimited: identical to a generous work allowance.
        assert_eq!(
            enumerate_repairs_bounded(&cg, &Budget::unlimited()).expect_done("unlimited"),
            full
        );
        // Tight allowance: the partial is a strict prefix of the full
        // enumeration (same depth-first order).
        let tight = Budget::unlimited().with_max_work(12);
        match enumerate_repairs_bounded(&cg, &tight) {
            Outcome::Exceeded { partial: Some(prefix), report } => {
                assert!(prefix.len() < full.len());
                assert_eq!(prefix[..], full[..prefix.len()]);
                assert_eq!(report.max_work, Some(12));
            }
            other => panic!("expected Exceeded with partial, got {other:?}"),
        }
        // Cancellation mid-run surfaces as Cancelled (with a partial).
        let b = Budget::unlimited();
        b.cancel_token().cancel();
        assert!(matches!(
            enumerate_repairs_bounded(&cg, &b),
            Outcome::Cancelled { partial: Some(_) }
        ));
    }

    /// Pins the answers and the work charged by every oracle on the
    /// `grouped` fixture, so a change to the search or its meter fails
    /// here instead of silently moving trip points.
    #[test]
    fn oracles_return_pinned_values_and_work_on_full_budgets() {
        let (cg, i) = grouped();
        let p = PriorityRelation::new(
            i.len(),
            [
                (FactId(0), FactId(1)),
                (FactId(1), FactId(2)),
                (FactId(0), FactId(2)),
                (FactId(3), FactId(4)),
            ],
        )
        .unwrap();
        let best = i.set_of([FactId(0), FactId(3)]);
        let b = Budget::unlimited();
        assert_eq!(enumerate_repairs_bounded(&cg, &b).expect_done("unlimited").len(), 6);
        assert_eq!(b.work_done(), WORK_ENUMERATE);
        let b = Budget::unlimited();
        assert!(is_globally_optimal_brute_bounded(&cg, &p, &best, &b).expect_done("unlimited"));
        assert_eq!(b.work_done(), WORK_IS_OPTIMAL);
        let b = Budget::unlimited();
        assert_eq!(
            globally_optimal_repairs_bounded(&cg, &p, &b).expect_done("unlimited"),
            vec![best.clone()]
        );
        assert_eq!(b.work_done(), WORK_OPTIMAL_REPAIRS);
        let b = Budget::unlimited();
        assert_eq!(count_globally_optimal_repairs_bounded(&cg, &p, &b).expect_done("unlimited"), 1);
        assert_eq!(b.work_done(), WORK_OPTIMAL_REPAIRS);
        let j = i.set_of([FactId(1), FactId(3)]);
        let b = Budget::unlimited();
        assert_eq!(
            find_global_improvement_brute_bounded(&cg, &p, &j, &b).expect_done("unlimited"),
            Some(Improvement { removed: i.set_of([FactId(1)]), added: i.set_of([FactId(0)]) })
        );
        assert_eq!(b.work_done(), WORK_FIND_IMPROVEMENT);
        let b = Budget::unlimited();
        let mut seen = 0;
        for_each_repair_bounded(&cg, &b, |_| {
            seen += 1;
            true
        })
        .expect_done("unlimited");
        assert_eq!(seen, 6);
        assert_eq!(b.work_done(), WORK_ENUMERATE);
    }

    #[test]
    fn global_optimality_with_a_chain_priority() {
        let (cg, i) = grouped();
        // Prefer R(a,1) ≻ R(a,2) ≻ R(a,3) and R(b,1) ≻ R(b,2):
        let p = PriorityRelation::new(
            i.len(),
            [
                (FactId(0), FactId(1)),
                (FactId(1), FactId(2)),
                (FactId(0), FactId(2)),
                (FactId(3), FactId(4)),
            ],
        )
        .unwrap();
        // The unique globally-optimal repair is {R(a,1), R(b,1)}.
        let best = i.set_of([FactId(0), FactId(3)]);
        let budget = || Budget::unlimited().with_max_work(1 << 20);
        assert!(is_globally_optimal_brute_bounded(&cg, &p, &best, &budget()).expect_done("best"));
        let worse = i.set_of([FactId(1), FactId(3)]);
        let worse_optimal =
            is_globally_optimal_brute_bounded(&cg, &p, &worse, &budget()).expect_done("worse");
        assert!(!worse_optimal);
        let opt = globally_optimal_repairs_bounded(&cg, &p, &budget()).expect_done("optimal");
        assert_eq!(opt, vec![best]);
        assert_eq!(
            count_globally_optimal_repairs_bounded(&cg, &p, &budget()).expect_done("count"),
            1
        );
    }

    #[test]
    fn empty_priority_makes_every_repair_optimal() {
        let (cg, i) = grouped();
        let p = PriorityRelation::empty(i.len());
        let opt =
            globally_optimal_repairs_bounded(&cg, &p, &Budget::unlimited().with_max_work(1 << 20))
                .expect_done("optimal");
        assert_eq!(opt.len(), 6);
    }

    #[test]
    fn non_repairs_are_never_optimal() {
        let (cg, i) = grouped();
        let p = PriorityRelation::empty(i.len());
        // Consistent but not maximal.
        let partial = i.set_of([FactId(0)]);
        assert!(!is_globally_optimal_brute_bounded(
            &cg,
            &p,
            &partial,
            &Budget::unlimited().with_max_work(1 << 20)
        )
        .expect_done("partial"));
        // Inconsistent.
        let bad = i.set_of([FactId(0), FactId(1)]);
        assert!(!is_globally_optimal_brute_bounded(
            &cg,
            &p,
            &bad,
            &Budget::unlimited().with_max_work(1 << 20)
        )
        .expect_done("inconsistent"));
    }

    #[test]
    fn improvement_witness_from_brute_force_is_valid() {
        let (cg, i) = grouped();
        let p = PriorityRelation::new(i.len(), [(FactId(0), FactId(1))]).unwrap();
        let j = i.set_of([FactId(1), FactId(3)]);
        let imp = find_global_improvement_brute_bounded(
            &cg,
            &p,
            &j,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("witness")
        .unwrap();
        assert!(imp.is_valid_global_improvement(&cg, &p, &j));
    }
}
