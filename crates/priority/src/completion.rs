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
//! every function takes an explicit budget.

use crate::relation::PriorityRelation;
use rpr_data::FactId;
use rpr_fd::CsrConflictGraph;

/// Error returned when an enumeration exceeds its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The budget that was exhausted.
    pub budget: usize,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "enumeration budget of {} exceeded", self.budget)
    }
}

impl std::error::Error for BudgetExceeded {}

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

/// Enumerates **all** completions of `priority`.
///
/// # Errors
/// [`BudgetExceeded`] if more than `budget` orientation assignments
/// would have to be explored.
pub fn completions(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    budget: usize,
) -> Result<Vec<PriorityRelation>, BudgetExceeded> {
    let free = unordered_conflicts(cg, priority);
    if free.len() >= usize::BITS as usize - 1 || (1usize << free.len()) > budget {
        return Err(BudgetExceeded { budget });
    }
    let mut out = Vec::new();
    let base: Vec<(FactId, FactId)> = priority.edges().to_vec();
    for mask in 0u64..(1u64 << free.len()) {
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
    Ok(out)
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
        let all = completions(&cg, &empty, 1 << 20).unwrap();
        assert_eq!(all.len(), 6);
        for c in &all {
            assert!(is_completion(&cg, &empty, c));
        }
    }

    #[test]
    fn completions_respect_base_edges() {
        let (cg, n) = triangle();
        let base = PriorityRelation::new(n, [(FactId(2), FactId(0))]).unwrap();
        let all = completions(&cg, &base, 1 << 20).unwrap();
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
        let (cg, n) = triangle();
        let empty = PriorityRelation::empty(n);
        assert!(matches!(completions(&cg, &empty, 4), Err(BudgetExceeded { budget: 4 })));
    }
}
