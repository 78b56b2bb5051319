//! Completions of a priority relation.
//!
//! Following Staworko, Chomicki and Marcinkowski [14], a *completion* of
//! a priority `≻` (w.r.t. an instance's conflict graph) is an acyclic
//! priority `≻′ ⊇ ≻` that is **total on conflicts**: for every
//! conflicting pair `{f, g}`, either `f ≻′ g` or `g ≻′ f`. Completions
//! define the completion-optimal repairs that the paper contrasts with
//! globally-optimal ones (§1, §3, §4.1).
//!
//! Enumeration is exponential in the number of unordered conflict pairs;
//! it exists as the *oracle* against which the polynomial
//! completion-optimal checker in `rpr-core` is differential-tested, so
//! it runs under an engine [`Budget`] like every other oracle.

use crate::relation::PriorityRelation;
use rpr_data::FactId;
use rpr_engine::{Budget, ExceedReason, Outcome};
use rpr_fd::CsrConflictGraph;

/// From this many unordered conflict pairs on, [`completions`] refuses
/// to start: no allowance pays for `2^63` orientation assignments.
const MAX_FREE_PAIRS: usize = 63;

/// The unordered conflict pairs not yet ordered by `priority`.
pub fn unordered_conflicts(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
) -> Vec<(FactId, FactId)> {
    cg.edges()
        .into_iter()
        .filter(|&(a, b)| !priority.prefers(a, b) && !priority.prefers(b, a))
        .collect()
}

/// Is `candidate` a completion of `base` w.r.t. the conflict graph?
pub fn is_completion(
    cg: &CsrConflictGraph,
    base: &PriorityRelation,
    candidate: &PriorityRelation,
) -> bool {
    // Extends the base…
    base.edges().iter().all(|&(f, g)| candidate.prefers(f, g))
        // …and is total on conflicts. (Acyclicity is intrinsic to
        // `PriorityRelation`.)
        && cg
            .edges()
            .into_iter()
            .all(|(a, b)| candidate.prefers(a, b) || candidate.prefers(b, a))
}

/// Enumerates **all** completions of `priority`, charging one work unit
/// of `budget` per orientation assignment of the unordered conflict
/// pairs. On [`Outcome::Exceeded`]/[`Outcome::Cancelled`] the partial
/// answer is the completions found before the stop. With 63 or more
/// unordered pairs the enumeration is refused before it starts:
/// `Exceeded` with [`ExceedReason::WorkExhausted`] and no partial
/// answer, whatever the allowance.
pub fn completions(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    budget: &Budget,
) -> Outcome<Vec<PriorityRelation>> {
    let free = unordered_conflicts(cg, priority);
    if free.len() >= MAX_FREE_PAIRS {
        return Outcome::Exceeded {
            partial: None,
            report: budget.report(ExceedReason::WorkExhausted),
        };
    }
    let mut out = Vec::new();
    let base: Vec<(FactId, FactId)> = priority.edges().to_vec();
    for mask in 0u64..(1u64 << free.len()) {
        if let Err(stop) = budget.step() {
            return Outcome::from_stop(stop, Some(out));
        }
        let mut edges = base.clone();
        for (i, &(a, b)) in free.iter().enumerate() {
            if mask >> i & 1 == 1 {
                edges.push((a, b));
            } else {
                edges.push((b, a));
            }
        }
        if let Ok(rel) = PriorityRelation::new(priority.len(), edges) {
            out.push(rel);
        }
    }
    Outcome::Done(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Instance, Signature, Value};
    use rpr_fd::Schema;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// Three facts R(a,1), R(a,2), R(a,3) under R:1→2 — a conflict
    /// triangle.
    fn triangle() -> (CsrConflictGraph, usize) {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        for x in ["1", "2", "3"] {
            i.insert_named("R", [v("a"), v(x)]).unwrap();
        }
        (CsrConflictGraph::new(&schema, &i), i.len())
    }

    #[test]
    fn unordered_pairs_shrink_with_priority() {
        let (cg, n) = triangle();
        let empty = PriorityRelation::empty(n);
        assert_eq!(unordered_conflicts(&cg, &empty).len(), 3);
        let p = PriorityRelation::new(n, [(FactId(0), FactId(1))]).unwrap();
        assert_eq!(unordered_conflicts(&cg, &p).len(), 2);
    }

    #[test]
    fn triangle_has_six_completions() {
        // 3 unordered pairs → 8 orientations, of which the 2 cyclic
        // triangles are rejected: 6 completions (the linear orders).
        let (cg, n) = triangle();
        let empty = PriorityRelation::empty(n);
        let all = completions(&cg, &empty, &generous()).expect_done("triangle completions");
        assert_eq!(all.len(), 6);
        for c in &all {
            assert!(is_completion(&cg, &empty, c));
        }
    }

    #[test]
    fn completions_respect_base_edges() {
        let (cg, n) = triangle();
        let base = PriorityRelation::new(n, [(FactId(2), FactId(0))]).unwrap();
        let all = completions(&cg, &base, &generous()).expect_done("completions over a base");
        // Fixing one edge of the triangle leaves 4 orientations, minus
        // the 1 that closes a cycle: 3 completions.
        assert_eq!(all.len(), 3);
        for c in &all {
            assert!(c.prefers(FactId(2), FactId(0)));
            assert!(is_completion(&cg, &base, c));
        }
    }

    #[test]
    fn is_completion_rejects_partial_orders() {
        let (cg, n) = triangle();
        let empty = PriorityRelation::empty(n);
        let partial = PriorityRelation::new(n, [(FactId(0), FactId(1))]).unwrap();
        assert!(!is_completion(&cg, &empty, &partial));
    }

    #[test]
    fn budget_is_enforced() {
        // 8 assignments, one unit each: a 4-unit allowance trips on the
        // fifth, and the completions found before it are genuine.
        let (cg, n) = triangle();
        let empty = PriorityRelation::empty(n);
        match completions(&cg, &empty, &Budget::unlimited().with_max_work(4)) {
            Outcome::Exceeded { partial: Some(found), report } => {
                assert_eq!(report.reason, ExceedReason::WorkExhausted);
                assert_eq!(report.work_done, 5);
                assert!(!found.is_empty() && found.len() <= 4);
                assert!(found.iter().all(|c| is_completion(&cg, &empty, c)));
            }
            other => panic!("expected a work trip, got {other:?}"),
        }
    }

    #[test]
    fn sixty_three_free_pairs_are_refused_before_any_work() {
        // R(a, 0..12) under R:1→2 is a 12-clique: 66 unordered pairs.
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        for x in 0..12 {
            i.insert_named("R", [v("a"), Value::Int(x)]).unwrap();
        }
        let cg = CsrConflictGraph::new(&schema, &i);
        let budget = Budget::unlimited();
        match completions(&cg, &PriorityRelation::empty(i.len()), &budget) {
            Outcome::Exceeded { partial: None, report } => {
                assert_eq!(report.reason, ExceedReason::WorkExhausted);
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(budget.work_done(), 0);
    }

    fn generous() -> Budget {
        Budget::unlimited().with_max_work(1 << 20)
    }
}
