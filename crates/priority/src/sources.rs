//! Building priorities from real-world signals.
//!
//! The paper motivates priorities with two scenarios (§1): "one source
//! is regarded to be more reliable than another", and "timestamp
//! information implies that a more recent fact should be preferred over
//! an earlier fact". This module turns such per-fact scores into
//! priority relations, in either mode:
//!
//! * [`from_scores_conflict_restricted`] — orient only conflicting
//!   pairs (the classical §2.3 model);
//! * [`from_scores_ccp`] — orient every strictly-ranked pair (the §7
//!   cross-conflict model, e.g. whole-source trust).
//!
//! Scores orient edges from the strictly higher-scored fact to the
//! lower; ties are left unordered, which keeps the result acyclic by
//! construction. Utilities for transitive closure and conflict
//! restriction round the module out.

use crate::relation::PriorityRelation;
use rpr_data::{FactId, Instance};
use rpr_fd::{CsrConflictGraph, Schema};

/// Builds a conflict-restricted priority from per-fact scores (higher
/// score = preferred): `f ≻ g` iff `f` and `g` conflict and
/// `score(f) > score(g)`.
///
/// # Panics
/// Panics if `scores.len()` differs from the instance size.
pub fn from_scores_conflict_restricted(
    schema: &Schema,
    instance: &Instance,
    scores: &[i64],
) -> PriorityRelation {
    assert_eq!(scores.len(), instance.len(), "one score per fact");
    let cg = CsrConflictGraph::new(schema, instance);
    let mut edges = Vec::new();
    for (a, b) in cg.edges() {
        match scores[a.index()].cmp(&scores[b.index()]) {
            std::cmp::Ordering::Greater => edges.push((a, b)),
            std::cmp::Ordering::Less => edges.push((b, a)),
            std::cmp::Ordering::Equal => {}
        }
    }
    PriorityRelation::new(instance.len(), edges).expect("score-oriented edges are acyclic")
}

/// Builds a cross-conflict priority from per-fact scores: `f ≻ g` iff
/// `score(f) > score(g)` — every strictly-ranked pair is ordered,
/// conflicting or not (quadratic in the instance size; the §7 model).
///
/// # Panics
/// Panics if `scores.len()` differs from the instance size.
pub fn from_scores_ccp(instance: &Instance, scores: &[i64]) -> PriorityRelation {
    assert_eq!(scores.len(), instance.len(), "one score per fact");
    let n = instance.len();
    let mut edges = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if scores[a] > scores[b] {
                edges.push((FactId(a as u32), FactId(b as u32)));
            }
        }
    }
    PriorityRelation::new(n, edges).expect("score-oriented edges are acyclic")
}

/// Timestamp preference: newer facts beat conflicting older facts.
/// (Alias of [`from_scores_conflict_restricted`] with timestamps as
/// scores, named for call-site readability.)
pub fn from_timestamps(
    schema: &Schema,
    instance: &Instance,
    timestamps: &[i64],
) -> PriorityRelation {
    from_scores_conflict_restricted(schema, instance, timestamps)
}

/// Restricts an arbitrary (ccp) priority to its conflicting pairs,
/// yielding a legal classical priority.
pub fn restrict_to_conflicts(
    schema: &Schema,
    instance: &Instance,
    priority: &PriorityRelation,
) -> PriorityRelation {
    let cg = CsrConflictGraph::new(schema, instance);
    let edges: Vec<(FactId, FactId)> =
        priority.edges().iter().copied().filter(|&(a, b)| cg.conflicting(a, b)).collect();
    PriorityRelation::new(instance.len(), edges)
        .expect("a subset of an acyclic relation is acyclic")
}

/// The transitive closure of a priority (still acyclic; useful when a
/// workload treats `≻` as an order rather than a raw relation).
pub fn transitive_closure(priority: &PriorityRelation) -> PriorityRelation {
    let n = priority.len();
    // DFS from every node over the "worse" adjacency.
    let mut edges = Vec::new();
    for start in 0..n {
        let s = FactId(start as u32);
        let mut seen = vec![false; n];
        let mut stack: Vec<FactId> = priority.worse_than(s).to_vec();
        while let Some(t) = stack.pop() {
            if seen[t.index()] {
                continue;
            }
            seen[t.index()] = true;
            edges.push((s, t));
            stack.extend_from_slice(priority.worse_than(t));
        }
    }
    PriorityRelation::new(n, edges).expect("transitive closure of acyclic is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Signature, Value};

    fn setup() -> (Schema, Instance) {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        let v = Value::sym;
        i.insert_named("R", [v("a"), v("x")]).unwrap(); // 0
        i.insert_named("R", [v("a"), v("y")]).unwrap(); // 1 (conflicts 0)
        i.insert_named("R", [v("b"), v("z")]).unwrap(); // 2 (conflicts none)
        (schema, i)
    }

    #[test]
    fn timestamps_orient_only_conflicts() {
        let (schema, i) = setup();
        let p = from_timestamps(&schema, &i, &[10, 20, 30]);
        assert!(p.prefers(FactId(1), FactId(0))); // newer conflicting fact wins
        assert!(!p.prefers(FactId(2), FactId(0))); // non-conflicting: unordered
        assert_eq!(p.edge_count(), 1);
    }

    #[test]
    fn ties_stay_unordered() {
        let (schema, i) = setup();
        let p = from_scores_conflict_restricted(&schema, &i, &[5, 5, 5]);
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn ccp_scores_order_everything_strictly_ranked() {
        let (_, i) = setup();
        let p = from_scores_ccp(&i, &[2, 1, 1]);
        assert!(p.prefers(FactId(0), FactId(1)));
        assert!(p.prefers(FactId(0), FactId(2)));
        assert!(!p.prefers(FactId(1), FactId(2))); // tie
        assert_eq!(p.edge_count(), 2);
    }

    #[test]
    fn restriction_produces_a_legal_classical_priority() {
        let (schema, i) = setup();
        let ccp = from_scores_ccp(&i, &[3, 2, 1]);
        assert_eq!(ccp.edge_count(), 3);
        let restricted = restrict_to_conflicts(&schema, &i, &ccp);
        assert_eq!(restricted.edge_count(), 1);
        assert!(restricted.prefers(FactId(0), FactId(1)));
        // It validates in conflict-restricted mode.
        let pi = crate::instance::PrioritizedInstance::conflict_restricted(
            &schema,
            i.clone(),
            restricted,
        );
        assert!(pi.is_ok());
    }

    #[test]
    fn transitive_closure_adds_chains_only() {
        let p = PriorityRelation::new(4, [(FactId(0), FactId(1)), (FactId(1), FactId(2))]).unwrap();
        let tc = transitive_closure(&p);
        assert!(tc.prefers(FactId(0), FactId(2)));
        assert!(tc.prefers(FactId(0), FactId(1)));
        assert!(!tc.prefers(FactId(2), FactId(0)));
        assert!(!tc.prefers(FactId(0), FactId(3)));
        assert_eq!(tc.edge_count(), 3);
        // Closure is idempotent.
        assert_eq!(transitive_closure(&tc).edge_count(), 3);
    }
}
