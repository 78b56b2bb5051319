//! Cross-cutting structural results:
//!
//! * Proposition 3.5 — globally-optimal repair checking decomposes per
//!   relation symbol for conflict-restricted instances;
//! * the bridge between normal forms and the dichotomies — `Δ|R` is in
//!   BCNF iff it is equivalent to a set of key constraints (the
//!   precondition of §5.2's Case 1 vs Cases 2–7 split);
//! * the polynomial constructor always lands inside every semantics.

use preferred_repairs::core::{
    construct_globally_optimal_repair, is_completion_optimal, is_globally_optimal_brute_bounded,
    is_pareto_optimal, Budget,
};
use preferred_repairs::data::{FactId, Instance, RelId, Signature, Value};
use preferred_repairs::fd::{as_key_set, is_bcnf, CsrConflictGraph, Schema};
use preferred_repairs::gen::{random_conflict_priority, random_schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Proposition 3.5, empirically: J is globally optimal for the
/// two-relation instance iff each per-relation restriction is globally
/// optimal for the per-relation restriction of the input.
#[test]
fn proposition_3_5_decomposition() {
    let sig = Signature::new([("A", 2), ("B", 2)]).unwrap();
    let schema =
        Schema::from_named(sig, [("A", &[1][..], &[2][..]), ("B", &[1][..], &[2][..])]).unwrap();
    let mut rng = StdRng::seed_from_u64(35);
    for _ in 0..25 {
        let mut instance = Instance::new(schema.signature().clone());
        for rel in ["A", "B"] {
            for _ in 0..6 {
                let x = rng.random_range(0..3);
                let y = rng.random_range(0..3);
                instance.insert_named(rel, [Value::Int(x), Value::Int(y)]).unwrap();
            }
        }
        let cg = CsrConflictGraph::new(&schema, &instance);
        let priority = random_conflict_priority(&cg, 0.6, &mut rng);
        for j in preferred_repairs::core::enumerate_repairs_bounded(
            &cg,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("repair enumeration")
        {
            let whole = is_globally_optimal_brute_bounded(
                &cg,
                &priority,
                &j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            // Per-relation: restrict J and check against the oracle
            // with candidates limited to the relation's facts. Build a
            // sub-instance per relation.
            let mut parts = Vec::new();
            for rel in schema.signature().rel_ids() {
                let domain = instance.rel_set(rel);
                let j_rel = j.intersect(&domain);
                // A sub-oracle: J∩R is g-optimal within R's facts iff no
                // repair of the sub-instance improves it. Materialize.
                let sub = instance.materialize(&domain);
                let sub_cg = CsrConflictGraph::new(&schema, &sub);
                // Translate ids: materialize preserves insertion order
                // of the subset.
                let translate: Vec<FactId> = domain.iter().collect();
                let mut sub_j = sub.empty_set();
                for (new_idx, old_id) in translate.iter().enumerate() {
                    if j_rel.contains(*old_id) {
                        sub_j.insert(FactId(new_idx as u32));
                    }
                }
                let sub_edges: Vec<(FactId, FactId)> = priority
                    .edges()
                    .iter()
                    .filter(|(a, b)| domain.contains(*a) && domain.contains(*b))
                    .map(|&(a, b)| {
                        let pos = |x: FactId| {
                            FactId(translate.iter().position(|t| *t == x).unwrap() as u32)
                        };
                        (pos(a), pos(b))
                    })
                    .collect();
                let sub_p =
                    preferred_repairs::priority::PriorityRelation::new(sub.len(), sub_edges)
                        .unwrap();
                parts.push(
                    is_globally_optimal_brute_bounded(
                        &sub_cg,
                        &sub_p,
                        &sub_j,
                        &Budget::unlimited().with_max_work(1 << 20),
                    )
                    .expect_done("global oracle"),
                );
            }
            assert_eq!(
                whole,
                parts.iter().all(|&p| p),
                "Proposition 3.5 violated on {}",
                instance.render_set(&j)
            );
        }
    }
}

/// BCNF ⟺ key-set equivalence, on random FD sets. This is the §5.2
/// Case-1 precondition in database-design clothing.
#[test]
fn bcnf_iff_key_equivalent() {
    let mut rng = StdRng::seed_from_u64(36);
    for trial in 0..300 {
        let arity = 2 + trial % 4;
        let schema = random_schema(&mut rng, arity, 1 + trial % 4, 3);
        let fds = schema.fds_for(RelId(0));
        assert_eq!(
            is_bcnf(fds, arity),
            as_key_set(fds, arity).is_some(),
            "trial {trial}: BCNF and key-equivalence disagree on {fds:?}"
        );
    }
}

/// The polynomial constructor's output is simultaneously C-, G- and
/// P-optimal on mixed multi-relation instances.
#[test]
fn constructor_lands_in_all_three_semantics() {
    let sig = Signature::new([("A", 3), ("B", 2)]).unwrap();
    let schema = Schema::from_named(
        sig,
        [("A", &[1][..], &[2][..]), ("B", &[1][..], &[2][..]), ("B", &[2][..], &[1][..])],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(37);
    for _ in 0..20 {
        let mut instance = Instance::new(schema.signature().clone());
        for _ in 0..6 {
            let (x, y, z) =
                (rng.random_range(0..3), rng.random_range(0..3), rng.random_range(0..9));
            instance.insert_named("A", [Value::Int(x), Value::Int(y), Value::Int(z)]).unwrap();
        }
        for _ in 0..5 {
            let (x, y) = (rng.random_range(0..3), rng.random_range(0..3));
            instance.insert_named("B", [Value::Int(x), Value::Int(y)]).unwrap();
        }
        let cg = CsrConflictGraph::new(&schema, &instance);
        let priority = random_conflict_priority(&cg, 0.7, &mut rng);
        let j = construct_globally_optimal_repair(&cg, &priority);
        assert!(cg.is_repair(&j));
        assert!(is_globally_optimal_brute_bounded(
            &cg,
            &priority,
            &j,
            &Budget::unlimited().with_max_work(1 << 22)
        )
        .expect_done("global oracle"));
        assert!(is_pareto_optimal(&cg, &priority, &j));
        assert!(is_completion_optimal(&cg, &priority, &j));
    }
}
