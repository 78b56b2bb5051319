//! Moderate-scale smoke tests: the polynomial paths on tens of
//! thousands of facts. No wall-clock assertions (debug builds vary);
//! the point is that nothing panics, overflows, or goes accidentally
//! quadratic in memory thanks to the lazy conflict-graph rows.

use preferred_repairs::core::{
    construct_globally_optimal_repair, is_completion_optimal, is_pareto_optimal, CcpChecker,
    GRepairChecker,
};
use preferred_repairs::data::{Instance, Signature, Value};
use preferred_repairs::fd::{CsrConflictGraph, Schema};
use preferred_repairs::priority::{
    from_scores_conflict_restricted, PrioritizedInstance, PriorityRelation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ~30k facts, ~10k key groups of ≤4 conflicting versions each.
fn big_keyed_instance(n: usize, seed: u64) -> (Schema, Instance, Vec<i64>) {
    let sig = Signature::new([("R", 3)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2, 3][..])]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut instance = Instance::new(sig);
    let mut timestamps = Vec::new();
    for _ in 0..n {
        let key = rng.random_range(0..(n as i64 / 3).max(1));
        let val = rng.random_range(0..1_000_000);
        let before = instance.len();
        instance
            .insert_named(
                "R",
                [Value::Int(key), Value::Int(val), Value::Int(rng.random_range(0..4))],
            )
            .unwrap();
        if instance.len() > before {
            timestamps.push(rng.random_range(0..1_000_000));
        }
    }
    (schema, instance, timestamps)
}

#[test]
fn thirty_thousand_facts_classical_pipeline() {
    let (schema, instance, timestamps) = big_keyed_instance(30_000, 1);
    let priority = from_scores_conflict_restricted(&schema, &instance, &timestamps);
    let cg = CsrConflictGraph::new(&schema, &instance);
    let j = construct_globally_optimal_repair(&cg, &priority);
    assert!(cg.is_repair(&j));
    assert!(is_pareto_optimal(&cg, &priority, &j));
    assert!(is_completion_optimal(&cg, &priority, &j));
    let pi = PrioritizedInstance::conflict_restricted(&schema, instance.clone(), priority).unwrap();
    let checker = GRepairChecker::new(schema);
    assert!(checker.check(&pi, &j).is_optimal());
    // And a deliberately suboptimal repair is caught with a witness.
    let mut rng = StdRng::seed_from_u64(2);
    let other = preferred_repairs::gen::random_repair(&cg, &mut rng);
    if other != j {
        let outcome = checker.check(&pi, &other);
        if let preferred_repairs::core::CheckOutcome::Improvable(imp) = &outcome {
            assert!(imp.is_valid_global_improvement(&cg, pi.priority(), &other));
        }
    }
}

#[test]
fn thirty_thousand_facts_ccp_pipeline() {
    let (schema, instance, timestamps) = big_keyed_instance(30_000, 3);
    // ccp: timestamps order everything (quadratic edge count would be
    // too much; order only conflicts plus a sampled cross slice).
    let cg = CsrConflictGraph::new(&schema, &instance);
    let mut edges = Vec::new();
    for (a, b) in cg.edges() {
        let (ta, tb) = (timestamps[a.index()], timestamps[b.index()]);
        match ta.cmp(&tb) {
            std::cmp::Ordering::Greater => edges.push((a, b)),
            std::cmp::Ordering::Less => edges.push((b, a)),
            std::cmp::Ordering::Equal => {}
        }
    }
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..20_000 {
        let a = rng.random_range(0..instance.len() as u32);
        let b = rng.random_range(0..instance.len() as u32);
        if a != b {
            let (ta, tb) = (timestamps[a as usize], timestamps[b as usize]);
            use preferred_repairs::data::FactId;
            match ta.cmp(&tb) {
                std::cmp::Ordering::Greater => edges.push((FactId(a), FactId(b))),
                std::cmp::Ordering::Less => edges.push((FactId(b), FactId(a))),
                std::cmp::Ordering::Equal => {}
            }
        }
    }
    let priority = PriorityRelation::new(instance.len(), edges).unwrap();
    let j = construct_globally_optimal_repair(&cg, &priority);
    let pi = PrioritizedInstance::cross_conflict(instance, priority);
    let checker = CcpChecker::new(schema);
    assert!(checker.check(&pi, &j).is_optimal());
}

#[test]
fn sparse_instances_do_not_pay_quadratic_memory() {
    // 60k facts, zero conflicts: the conflict graph must be cheap.
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
    let mut instance = Instance::new(sig);
    for k in 0..60_000i64 {
        instance.insert_named("R", [Value::Int(k), Value::Int(k)]).unwrap();
    }
    let cg = CsrConflictGraph::new(&schema, &instance);
    assert!(cg.edges().is_empty());
    assert!(cg.is_repair(&instance.full_set()));
    let p = PriorityRelation::empty(instance.len());
    let j = construct_globally_optimal_repair(&cg, &p);
    assert_eq!(j.len(), 60_000);
}
