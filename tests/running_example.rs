//! Integration test: every machine-checkable claim in the paper's
//! running example (Figure 1, Examples 2.1–2.5, 3.2, 4.1, 4.3).

use preferred_repairs::classify::{classify_schema, Complexity, RelationClass};
use preferred_repairs::core::{
    is_global_improvement, is_globally_optimal_brute_bounded, is_pareto_improvement,
    is_pareto_optimal, Budget, GRepairChecker,
};
use preferred_repairs::data::AttrSet;
use preferred_repairs::fd::CsrConflictGraph;
use preferred_repairs::gen::RunningExample;

#[test]
fn example_2_2_closures_and_conflicts() {
    let ex = RunningExample::new();
    let sig = ex.schema.signature();
    let book = sig.rel_id("BookLoc").unwrap();
    // ⟦BookLoc.{1}^Δ⟧ = {1,2} and ⟦BookLoc.{1,3}^Δ⟧ = {1,2,3}.
    assert_eq!(ex.schema.closure(book, AttrSet::singleton(1)), AttrSet::from_attrs([1, 2]));
    assert_eq!(
        ex.schema.closure(book, AttrSet::from_attrs([1, 3])),
        AttrSet::from_attrs([1, 2, 3])
    );
    // The instance violates Δ.
    assert!(!ex.schema.is_consistent(&ex.instance));
    // The specific conflicts the example lists.
    let f = RunningExample::fact_ids();
    let cg = CsrConflictGraph::new(&ex.schema, &ex.instance);
    assert!(cg.conflicting(f.g1f1, f.f1d3)); // δ1-conflict
    assert!(cg.conflicting(f.d1a, f.d1e)); // δ2-conflict
    assert!(cg.conflicting(f.d1a, f.g2a)); // δ3-conflict
}

#[test]
fn example_3_2_classification() {
    let ex = RunningExample::new();
    let class = classify_schema(&ex.schema);
    assert_eq!(class.complexity(), Complexity::PolynomialTime);
    let sig = ex.schema.signature();
    assert!(matches!(class.class_of(sig.rel_id("BookLoc").unwrap()), RelationClass::SingleFd(_)));
    assert!(matches!(class.class_of(sig.rel_id("LibLoc").unwrap()), RelationClass::TwoKeys(..)));
}

#[test]
fn example_2_5_improvement_claims() {
    let ex = RunningExample::new();
    let (j1, j2, j3, j4) = (ex.j1(), ex.j2(), ex.j3(), ex.j4());
    let cg = CsrConflictGraph::new(&ex.schema, &ex.instance);
    for (name, j) in [("J1", &j1), ("J2", &j2), ("J3", &j3), ("J4", &j4)] {
        assert!(cg.is_repair(j), "{name} is a repair");
    }
    // "J2 is a Pareto (and global) improvement of J1."
    assert!(is_pareto_improvement(&ex.priority, &j1, &j2));
    assert!(is_global_improvement(&ex.priority, &j1, &j2));
    // "J4 is not a Pareto improvement of J3 … but J4 is a global
    // improvement of J3."
    assert!(!is_pareto_improvement(&ex.priority, &j3, &j4));
    assert!(is_global_improvement(&ex.priority, &j3, &j4));
    // "J3 … is not a globally-optimal repair."
    assert!(!is_globally_optimal_brute_bounded(
        &cg,
        &ex.priority,
        &j3,
        &Budget::unlimited().with_max_work(1 << 22)
    )
    .expect_done("global oracle"));
    // "J2 is a globally-optimal (hence Pareto-optimal) repair."
    assert!(is_globally_optimal_brute_bounded(
        &cg,
        &ex.priority,
        &j2,
        &Budget::unlimited().with_max_work(1 << 22)
    )
    .expect_done("global oracle"));
    assert!(is_pareto_optimal(&cg, &ex.priority, &j2));
    // Fidelity note (see rpr-gen docs): the printed "J3 is
    // Pareto-optimal" claim requires the variant priority without the
    // g2a edges; under it the claim holds.
    let variant = ex.priority_without_g2a_edges();
    assert!(is_pareto_optimal(&cg, &variant, &j3));
    // …and J4 is STILL a global improvement under the variant
    // (e1b ≻ d1e covers d1e, but g2a edges are gone, so f2b/f3a lose
    // their dominators): actually without g2a ≻ f2b the improvement
    // breaks — confirming the two claims need different priorities.
    assert!(!is_global_improvement(&variant, &j3, &j4));
}

#[test]
fn dispatching_checker_agrees_with_oracle_on_the_example() {
    let ex = RunningExample::new();
    let cg = CsrConflictGraph::new(&ex.schema, &ex.instance);
    let checker = GRepairChecker::new(ex.schema.clone());
    let pi = ex.prioritized();
    for j in preferred_repairs::core::enumerate_repairs_bounded(
        &cg,
        &Budget::unlimited().with_max_work(1 << 22),
    )
    .expect_done("repair enumeration")
    {
        let fast = checker.check(&pi, &j).is_optimal();
        let slow = is_globally_optimal_brute_bounded(
            &cg,
            &ex.priority,
            &j,
            &Budget::unlimited().with_max_work(1 << 22),
        )
        .expect_done("global oracle");
        assert_eq!(fast, slow, "disagreement on {}", ex.instance.render_set(&j));
    }
}
