//! Counting and uniqueness of globally-optimal repairs.
//!
//! The paper's concluding remarks single out two follow-up questions:
//! determining the *number* of globally-optimal repairs, and
//! characterizing when exactly one exists — "the existence of precisely
//! one repair implies that the constraints and priorities define an
//! unambiguous cleaning of inconsistencies". These helpers answer both
//! questions by enumeration under an engine [`Budget`], which is
//! the best known general tool.

use rpr_core::{Budget, Outcome};
use rpr_data::FactSet;
use rpr_fd::CsrConflictGraph;
use rpr_priority::PriorityRelation;

/// Summary of the globally-optimal repair space of an instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairSpace {
    /// All globally-optimal repairs.
    pub optimal: Vec<FactSet>,
}

impl RepairSpace {
    /// Computes the space by enumeration under an engine [`Budget`]
    /// (deadline, shared work allowance, cooperative cancellation).
    ///
    /// On degradation the partial space holds the repairs confirmed
    /// optimal so far — see
    /// [`globally_optimal_repairs_bounded`](rpr_core::globally_optimal_repairs_bounded)
    /// for the exact partial-result semantics.
    pub fn compute_bounded(
        cg: &CsrConflictGraph,
        priority: &PriorityRelation,
        budget: &Budget,
    ) -> Outcome<Self> {
        rpr_core::globally_optimal_repairs_bounded(cg, priority, budget)
            .map(|optimal| RepairSpace { optimal })
    }

    /// Number of globally-optimal repairs.
    pub fn count(&self) -> usize {
        self.optimal.len()
    }

    /// The unique globally-optimal repair, if the cleaning is
    /// unambiguous.
    pub fn unique(&self) -> Option<&FactSet> {
        match self.optimal.as_slice() {
            [one] => Some(one),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{FactId, Instance, Signature, Value};
    use rpr_fd::Schema;

    fn setup(edges: &[(u32, u32)]) -> (CsrConflictGraph, PriorityRelation) {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        let v = Value::sym;
        i.insert_named("R", [v("g"), v("a")]).unwrap();
        i.insert_named("R", [v("g"), v("b")]).unwrap();
        i.insert_named("R", [v("g"), v("c")]).unwrap();
        let p = PriorityRelation::new(i.len(), edges.iter().map(|&(a, b)| (FactId(a), FactId(b))))
            .unwrap();
        (CsrConflictGraph::new(&schema, &i), p)
    }

    #[test]
    fn total_priority_gives_unambiguous_cleaning() {
        let (cg, p) = setup(&[(0, 1), (1, 2), (0, 2)]);
        let space =
            RepairSpace::compute_bounded(&cg, &p, &Budget::unlimited().with_max_work(1 << 20))
                .expect_done("total priority");
        assert_eq!(space.count(), 1);
        let unique = space.unique().unwrap();
        assert!(unique.contains(FactId(0)));
    }

    #[test]
    fn empty_priority_keeps_all_repairs_optimal() {
        let (cg, p) = setup(&[]);
        let space =
            RepairSpace::compute_bounded(&cg, &p, &Budget::unlimited().with_max_work(1 << 20))
                .expect_done("empty priority");
        assert_eq!(space.count(), 3);
        assert!(space.unique().is_none());
    }

    #[test]
    fn partial_priority_in_between() {
        let (cg, p) = setup(&[(0, 1)]);
        let space =
            RepairSpace::compute_bounded(&cg, &p, &Budget::unlimited().with_max_work(1 << 20))
                .expect_done("partial priority");
        assert_eq!(space.count(), 2); // {a} and {c}; {b} is improved by {a}
        assert!(space.unique().is_none());
    }

    #[test]
    fn bounded_space_returns_pinned_values_under_unlimited_budgets() {
        let (cg, p) = setup(&[(0, 1)]);
        let budget = Budget::unlimited();
        let bounded = RepairSpace::compute_bounded(&cg, &p, &budget)
            .expect_done("unlimited budget must finish");
        // {a} and {c}, in enumeration order; {b} is improved by {a}.
        let one = |f| {
            let mut set = FactSet::empty(3);
            set.insert(FactId(f));
            set
        };
        assert_eq!(bounded, RepairSpace { optimal: vec![one(0), one(2)] });
    }

    #[test]
    fn bounded_space_degrades_on_a_tiny_work_allowance() {
        let (cg, p) = setup(&[]);
        let budget = Budget::unlimited().with_max_work(1);
        match RepairSpace::compute_bounded(&cg, &p, &budget) {
            Outcome::Exceeded { report, .. } => assert_eq!(report.max_work, Some(1)),
            other => panic!("expected Exceeded, got {other:?}"),
        }
    }
}
