//! Globally-optimal repair checking for constant-attribute assignments
//! over ccp-instances (§7.2.2, Proposition 7.5).
//!
//! When every `Δ|R` is equivalent to `∅ → B_R`, two facts of `R`
//! conflict iff they disagree on `B_R = ⟦R.∅^Δ⟧`. A *consistent
//! partition* of `R^I` is a maximal subset agreeing on `B_R`; a
//! subinstance is a repair iff it consists of exactly one consistent
//! partition per non-empty relation. There are therefore only
//! `∏_R (#partitions of R)` repairs — polynomially many for a fixed
//! schema — and the checker simply enumerates them and tests each as a
//! global improvement of `J`.

use crate::improvement::{
    addition, inconsistency, is_global_improvement, CheckOutcome, Improvement,
};
use rpr_data::{AttrSet, FactSet, FxHashMap, Instance, ValueId};
use rpr_fd::CsrConflictGraph;
use rpr_priority::PriorityRelation;

/// The consistent partitions of each relation (§7.2.2), given the
/// per-relation constant attribute sets `B_R` (signature order).
pub fn consistent_partitions(instance: &Instance, constant_attrs: &[AttrSet]) -> Vec<Vec<FactSet>> {
    let sig = instance.signature();
    let mut out = Vec::with_capacity(sig.len());
    for rel in sig.rel_ids() {
        let b = constant_attrs[rel.index()];
        let mut groups: FxHashMap<Vec<ValueId>, FactSet> = FxHashMap::default();
        for &id in instance.facts_of(rel) {
            let f = instance.fact(id);
            groups
                .entry(b.iter().map(|a| f.id(a)).collect())
                .or_insert_with(|| instance.empty_set())
                .insert(id);
        }
        let mut parts: Vec<FactSet> = groups.into_values().collect();
        parts.sort(); // deterministic enumeration order
        out.push(parts);
    }
    out
}

/// Enumerates all repairs of a constant-attribute instance: the product
/// of one consistent partition per non-empty relation.
pub fn enumerate_const_attr_repairs(
    instance: &Instance,
    constant_attrs: &[AttrSet],
) -> Vec<FactSet> {
    let partitions = consistent_partitions(instance, constant_attrs);
    let nonempty: Vec<&Vec<FactSet>> = partitions.iter().filter(|p| !p.is_empty()).collect();
    let mut out = vec![instance.empty_set()];
    for parts in nonempty {
        let mut next = Vec::with_capacity(out.len() * parts.len());
        for base in &out {
            for p in parts {
                next.push(base.union(p));
            }
        }
        out = next;
    }
    out
}

/// Runs the Proposition 7.5 check on the whole instance.
pub fn check_global_ccp_const(
    instance: &Instance,
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    constant_attrs: &[AttrSet],
    j: &FactSet,
) -> CheckOutcome {
    inconsistency(cg, j)
        .unwrap_or_else(|| check_consistent_ccp_const(instance, cg, priority, constant_attrs, j))
}

/// [`check_global_ccp_const`] for a `j` already known to be consistent:
/// a session's pre-pass has decided that for the whole candidate.
pub(crate) fn check_consistent_ccp_const(
    instance: &Instance,
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    constant_attrs: &[AttrSet],
    j: &FactSet,
) -> CheckOutcome {
    debug_assert!(cg.is_consistent_set(j));
    if let Some(imp) = addition(cg, j) {
        return CheckOutcome::Improvable(imp);
    }

    for candidate in enumerate_const_attr_repairs(instance, constant_attrs) {
        if is_global_improvement(priority, j, &candidate) {
            let witness =
                Improvement { removed: j.difference(&candidate), added: candidate.difference(j) };
            debug_assert!(witness.is_valid_global_improvement(cg, priority, j));
            return CheckOutcome::Improvable(witness);
        }
    }
    CheckOutcome::Optimal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{enumerate_repairs_bounded, is_globally_optimal_brute_bounded};
    use rpr_data::{FactId, Signature, Value};
    use rpr_engine::Budget;
    use rpr_fd::{CsrConflictGraph, Schema};

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// Two relations: R with ∅→2 (all second components equal), S with
    /// ∅→1.
    fn setup() -> (Schema, Instance, Vec<AttrSet>) {
        let sig = Signature::new([("R", 2), ("S", 2)]).unwrap();
        let schema =
            Schema::from_named(sig.clone(), [("R", &[][..], &[2][..]), ("S", &[][..], &[1][..])])
                .unwrap();
        let mut i = Instance::new(sig);
        // R partitions by attr 2: {x: 0,1}, {y: 2}.
        i.insert_named("R", [v("a"), v("x")]).unwrap(); // 0
        i.insert_named("R", [v("b"), v("x")]).unwrap(); // 1
        i.insert_named("R", [v("a"), v("y")]).unwrap(); // 2
                                                        // S partitions by attr 1: {s: 3}, {t: 4}.
        i.insert_named("S", [v("s"), v("1")]).unwrap(); // 3
        i.insert_named("S", [v("t"), v("1")]).unwrap(); // 4
        let consts = vec![AttrSet::singleton(2), AttrSet::singleton(1)];
        (schema, i, consts)
    }

    #[test]
    fn partitions_and_repair_enumeration() {
        let (schema, i, consts) = setup();
        let parts = consistent_partitions(&i, &consts);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 2);
        let repairs = enumerate_const_attr_repairs(&i, &consts);
        assert_eq!(repairs.len(), 4); // 2 × 2
                                      // They are exactly the brute-force repairs.
        let cg = CsrConflictGraph::new(&schema, &i);
        let mut brute = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration");
        let mut fast = repairs.clone();
        brute.sort();
        fast.sort();
        assert_eq!(brute, fast);
    }

    #[test]
    fn cross_relation_ccp_improvement() {
        let (schema, i, consts) = setup();
        let cg = CsrConflictGraph::new(&schema, &i);
        // S(s,1) ≻ R(a,x) and R(a,y) ≻ S(t,1): improving the {x}-side
        // repair requires switching both relations.
        let p = PriorityRelation::new(i.len(), [(FactId(3), FactId(0)), (FactId(2), FactId(4))])
            .unwrap();
        // J = {R-x partition, S-t partition} = {0,1,4}: lost facts
        // {0,1,4}… check which repairs are optimal against brute force.
        for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration")
        {
            let fast = check_global_ccp_const(&i, &cg, &p, &consts, &j).is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                &j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            assert_eq!(fast, slow, "disagreement on {}", i.render_set(&j));
        }
    }

    #[test]
    fn witness_is_checked() {
        let (schema, i, consts) = setup();
        let cg = CsrConflictGraph::new(&schema, &i);
        // Prefer the y-partition over each x-fact.
        let p = PriorityRelation::new(i.len(), [(FactId(2), FactId(0)), (FactId(2), FactId(1))])
            .unwrap();
        let j = i.set_of([0, 1, 3].map(FactId));
        match check_global_ccp_const(&i, &cg, &p, &consts, &j) {
            CheckOutcome::Improvable(imp) => {
                assert!(imp.is_valid_global_improvement(&cg, &p, &j));
                assert!(imp.added.contains(FactId(2)));
            }
            other => panic!("expected improvement, got {other:?}"),
        }
    }

    #[test]
    fn empty_relation_contributes_nothing() {
        let sig = Signature::new([("R", 2), ("Empty", 2)]).unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [v("a"), v("x")]).unwrap();
        let consts = vec![AttrSet::singleton(2), AttrSet::singleton(1)];
        let repairs = enumerate_const_attr_repairs(&i, &consts);
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].len(), 1);
    }

    #[test]
    fn non_repairs_rejected() {
        let (schema, i, consts) = setup();
        let cg = CsrConflictGraph::new(&schema, &i);
        let p = PriorityRelation::empty(i.len());
        let bad = i.set_of([0, 2].map(FactId)); // x and y facts conflict
        assert!(matches!(
            check_global_ccp_const(&i, &cg, &p, &consts, &bad),
            CheckOutcome::Inconsistent(..)
        ));
        let partial = i.set_of([0, 1].map(FactId)); // missing the S choice
        match check_global_ccp_const(&i, &cg, &p, &consts, &partial) {
            CheckOutcome::Improvable(imp) => assert!(imp.removed.is_empty()),
            other => panic!("expected vacuous improvement, got {other:?}"),
        }
    }
}
