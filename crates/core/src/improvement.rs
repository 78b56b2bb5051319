//! Global and Pareto improvements (Definition 2.4) and checked
//! improvement witnesses.

use rpr_data::{FactId, FactSet};
use rpr_fd::CsrConflictGraph;
use rpr_priority::PriorityRelation;

/// A proposed exchange turning `J` into `J′ = (J \ removed) ∪ added`.
///
/// Every "not optimal" verdict produced by the checkers carries one of
/// these, and the verdict can be re-validated from first principles
/// with [`Improvement::is_valid_global_improvement`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Improvement {
    /// Facts removed from `J` (a subset of `J`).
    pub removed: FactSet,
    /// Facts added (a subset of `I \ J`).
    pub added: FactSet,
}

impl Improvement {
    /// The vacuous exchange adding `g` and removing nothing: the
    /// witness of a non-maximal `J`.
    pub(crate) fn adding(universe: usize, g: FactId) -> Self {
        let mut added = FactSet::empty(universe);
        added.insert(g);
        Improvement { removed: FactSet::empty(universe), added }
    }

    /// Applies the exchange to `j`.
    pub fn apply(&self, j: &FactSet) -> FactSet {
        j.difference(&self.removed).union(&self.added)
    }

    /// Validates from the definition that applying this exchange to `j`
    /// yields a consistent global improvement of `j`.
    pub fn is_valid_global_improvement(
        &self,
        cg: &CsrConflictGraph,
        priority: &PriorityRelation,
        j: &FactSet,
    ) -> bool {
        if !self.removed.is_subset(j) || !self.added.is_disjoint(j) {
            return false;
        }
        let j2 = self.apply(j);
        cg.is_consistent_set(&j2) && is_global_improvement(priority, j, &j2)
    }
}

/// The repair pre-check of the one-shot checkers: the least `f ∈ j`
/// conflicting inside `j`, with its least partner. Session checks skip
/// it, because their pre-pass has already decided it for all of `J`.
pub(crate) fn inconsistency(rows: &CsrConflictGraph, j: &FactSet) -> Option<CheckOutcome> {
    j.iter()
        .find_map(|f| rows.conflicts_among(f, j).next().map(|g| CheckOutcome::Inconsistent(f, g)))
}

/// The least fact outside a consistent `j` that conflicts with no
/// member of `j`, as the exchange adding it.
pub(crate) fn addition(rows: &CsrConflictGraph, j: &FactSet) -> Option<Improvement> {
    let g = j.complement().iter().find(|&g| !rows.conflicts_with_set(g, j))?;
    Some(Improvement::adding(j.universe(), g))
}

/// Definition 2.4: is `j2` a **global improvement** of `j`?
///
/// `j2 ≠ j`, and every fact of `j \ j2` is beaten by some fact of
/// `j2 \ j`. Consistency of `j2` is *not* part of this predicate (the
/// definition quantifies over consistent subinstances; callers check
/// consistency where it is not structurally guaranteed).
pub fn is_global_improvement(priority: &PriorityRelation, j: &FactSet, j2: &FactSet) -> bool {
    if j == j2 {
        return false;
    }
    let lost = j.difference(j2);
    let gained = j2.difference(j);
    lost.iter().all(|f_prime| priority.set_improves(&gained, f_prime))
}

/// Definition 2.4: is `j2` a **Pareto improvement** of `j`?
///
/// Some fact of `j2 \ j` beats *every* fact of `j \ j2`. (When
/// `j ⊊ j2`, the condition holds vacuously for any added fact —
/// consistent proper supersets are always Pareto improvements.)
pub fn is_pareto_improvement(priority: &PriorityRelation, j: &FactSet, j2: &FactSet) -> bool {
    let lost = j.difference(j2);
    let gained = j2.difference(j);
    gained.iter().any(|f| priority.beats_all(f, &lost))
}

/// The outcome of a globally-optimal repair check.
///
/// `#[must_use]`: dropping a check verdict silently is almost always a
/// bug — an `Improvable`/`Inconsistent` answer carries the witness the
/// caller asked the checker to produce.
#[must_use = "a check verdict carries the optimality answer and its witness — inspect it"]
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckOutcome {
    /// `J` is a globally-optimal repair of `I`.
    Optimal,
    /// `J` is consistent but has a global improvement (hence is not a
    /// globally-optimal repair); the witness is attached.
    Improvable(Improvement),
    /// `J` is not even consistent; the conflicting pair is attached.
    Inconsistent(FactId, FactId),
}

impl CheckOutcome {
    /// Is the answer to "is `J` a globally-optimal repair?" *yes*?
    pub fn is_optimal(&self) -> bool {
        matches!(self, CheckOutcome::Optimal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Instance, Signature, Value};
    use rpr_fd::{CsrConflictGraph, Schema};

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// Example 2.5's improvements, restricted to the LibLoc relation
    /// where all the action happens:
    /// J1 ∩ LibLoc = {d1e, f2b, f3a}, J2 ∩ LibLoc = {d1e, g2a, e3b}.
    fn setup() -> (CsrConflictGraph, Instance, PriorityRelation) {
        let sig = Signature::new([("LibLoc", 2)]).unwrap();
        let schema = Schema::from_named(
            sig.clone(),
            [("LibLoc", &[1][..], &[2][..]), ("LibLoc", &[2][..], &[1][..])],
        )
        .unwrap();
        let mut i = Instance::new(sig);
        for (a, b) in [
            ("lib1", "almaden"),  // 0 d1a
            ("lib1", "edenvale"), // 1 d1e
            ("lib2", "almaden"),  // 2 g2a
            ("lib2", "bascom"),   // 3 f2b
            ("lib3", "almaden"),  // 4 f3a
            ("lib3", "cambrian"), // 5 f3c
            ("lib1", "bascom"),   // 6 e1b
            ("lib3", "bascom"),   // 7 e3b
        ] {
            i.insert_named("LibLoc", [v(a), v(b)]).unwrap();
        }
        let cg = CsrConflictGraph::new(&schema, &i);
        // Example 2.3: g ≻ f and e ≻ d for conflicting pairs.
        let edges = [
            (FactId(2), FactId(3)), // g2a ≻ f2b
            (FactId(2), FactId(4)), // g2a ≻ f3a
            (FactId(6), FactId(0)), // e1b ≻ d1a
            (FactId(7), FactId(4)), // e3b ≻ f3a
        ];
        let p = PriorityRelation::new(i.len(), edges).unwrap();
        (cg, i, p)
    }

    #[test]
    fn example_2_5_global_and_pareto() {
        let (cg, i, p) = setup();
        let j1 = i.set_of([FactId(1), FactId(3), FactId(4)]); // d1e, f2b, f3a
        let j2 = i.set_of([FactId(1), FactId(2), FactId(7)]); // d1e, g2a, e3b
                                                              // J1 \ J2 = {f2b, f3a}; g2a ≻ both → Pareto and global improvement.
        assert!(cg.is_consistent_set(&j2));
        assert!(is_global_improvement(&p, &j1, &j2));
        assert!(is_pareto_improvement(&p, &j1, &j2));
        // Not the other way.
        assert!(!is_global_improvement(&p, &j2, &j1));
        assert!(!is_pareto_improvement(&p, &j2, &j1));
    }

    #[test]
    fn global_but_not_pareto() {
        // Build J3/J4-style sets: lost {d1a→?}: use lost = {f2b, f3a, d1a}
        // improved by distinct facts, none dominating all.
        let (cg, i, p) = setup();
        let j3 = i.set_of([FactId(0), FactId(3), FactId(4)]); // d1a, f2b, f3a
        let j4 = i.set_of([FactId(6), FactId(2)]); // e1b, g2a
        assert!(cg.is_consistent_set(&j4));
        // e1b ≻ d1a, g2a ≻ f2b, g2a ≻ f3a: global improvement.
        assert!(is_global_improvement(&p, &j3, &j4));
        // But no single added fact beats all three: not Pareto.
        assert!(!is_pareto_improvement(&p, &j3, &j4));
    }

    #[test]
    fn proper_supersets_improve_vacuously() {
        let (_, i, p) = setup();
        let small = i.set_of([FactId(1)]);
        let big = i.set_of([FactId(1), FactId(3)]);
        assert!(is_global_improvement(&p, &small, &big));
        assert!(is_pareto_improvement(&p, &small, &big));
        // Equal sets never improve.
        assert!(!is_global_improvement(&p, &small, &small));
        assert!(!is_pareto_improvement(&p, &small, &small));
    }

    #[test]
    fn improvement_witness_validation() {
        let (cg, i, p) = setup();
        let j1 = i.set_of([FactId(1), FactId(3), FactId(4)]);
        let imp = Improvement {
            removed: i.set_of([FactId(3), FactId(4)]),
            added: i.set_of([FactId(2), FactId(7)]),
        };
        assert_eq!(
            imp.apply(&j1).iter().collect::<Vec<_>>(),
            vec![FactId(1), FactId(2), FactId(7)]
        );
        assert!(imp.is_valid_global_improvement(&cg, &p, &j1));
        // Removing something not in J invalidates the witness.
        let bad = Improvement { removed: i.set_of([FactId(5)]), added: i.set_of([FactId(2)]) };
        assert!(!bad.is_valid_global_improvement(&cg, &p, &j1));
        // Adding something already in J invalidates it too.
        let bad2 = Improvement { removed: i.empty_set(), added: i.set_of([FactId(1)]) };
        assert!(!bad2.is_valid_global_improvement(&cg, &p, &j1));
    }

    #[test]
    fn outcome_accessor() {
        assert!(CheckOutcome::Optimal.is_optimal());
        assert!(!CheckOutcome::Inconsistent(FactId(0), FactId(1)).is_optimal());
    }
}
