//! Constructing a globally-optimal repair in polynomial time.
//!
//! Checking globally-optimal repairs can be coNP-complete, but
//! *finding* one never is: process the facts in any linear extension
//! `L` of `≻` and keep every fact consistent with what was kept. The
//! result has no global improvement at all, in either priority mode:
//!
//! Let `J = greedy(L)` and suppose a consistent `J″ ≠ J` globally
//! improves it. Take the `L`-earliest fact `x` in the symmetric
//! difference. If `x ∈ J ∖ J″`, the improvement supplies `y ∈ J″ ∖ J`
//! with `y ≻ x`, so `y` precedes `x` in `L` — contradicting minimality
//! of `x`. If `x ∈ J″ ∖ J`, greedy dropped `x` because some kept `k`
//! conflicting with `x` precedes it; `k ∉ J″` (it conflicts with
//! `x ∈ J″`), so `k` is an earlier member of the difference —
//! contradiction. ∎
//!
//! The construction realizes the completion-optimal semantics (the
//! orientation of `L` is a completion), so it also witnesses the
//! inclusion chain C ⊆ G ⊆ P constructively: the returned repair is
//! simultaneously completion-, globally- and Pareto-optimal.

use rpr_data::FactSet;
use rpr_fd::CsrConflictGraph;
use rpr_priority::PriorityRelation;

/// Builds a repair with **no global improvement** under `priority`
/// (hence globally-, Pareto- and completion-optimal), in polynomial
/// time, for any schema and either priority mode.
///
/// ```
/// use rpr_data::{Instance, Signature, Value};
/// use rpr_fd::{CsrConflictGraph, Schema};
/// use rpr_priority::PriorityRelation;
/// use rpr_core::construct_globally_optimal_repair;
///
/// let sig = Signature::new([("R", 2)]).unwrap();
/// let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
/// let mut i = Instance::new(sig);
/// let worse = i.insert_named("R", ["k".into(), "v1".into()]).unwrap();
/// let better = i.insert_named("R", ["k".into(), "v2".into()]).unwrap();
/// let p = PriorityRelation::new(2, [(better, worse)]).unwrap();
/// let cg = CsrConflictGraph::new(&schema, &i);
/// let j = construct_globally_optimal_repair(&cg, &p);
/// assert!(j.contains(better) && !j.contains(worse));
/// ```
pub fn construct_globally_optimal_repair(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
) -> FactSet {
    cg.extend_greedily(&FactSet::empty(cg.len()), priority.topological_order())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::is_globally_optimal_brute_bounded;
    use crate::completion::is_completion_optimal;
    use crate::pareto::is_pareto_optimal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rpr_data::{Instance, Signature, Value};
    use rpr_engine::Budget;
    use rpr_fd::Schema;
    use rpr_gen::{random_ccp_priority, random_conflict_priority, random_instance, InstanceSpec};

    fn schema() -> Schema {
        let sig = Signature::new([("R", 2)]).unwrap();
        Schema::from_named(sig, [("R", &[1][..], &[2][..])]).unwrap()
    }

    #[test]
    fn constructed_repair_is_optimal_randomized() {
        let schema = schema();
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let instance = random_instance(
                &schema,
                InstanceSpec { facts_per_relation: 9, domain: 3 },
                &mut rng,
            );
            let cg = rpr_fd::CsrConflictGraph::new(&schema, &instance);
            let p = random_conflict_priority(&cg, 0.6, &mut rng);
            let j = construct_globally_optimal_repair(&cg, &p);
            assert!(cg.is_repair(&j), "seed {seed}");
            assert!(
                is_globally_optimal_brute_bounded(
                    &cg,
                    &p,
                    &j,
                    &Budget::unlimited().with_max_work(1 << 22)
                )
                .expect_done("global oracle"),
                "seed {seed}: constructed repair not globally optimal"
            );
            assert!(is_pareto_optimal(&cg, &p, &j), "seed {seed}");
            assert!(is_completion_optimal(&cg, &p, &j), "seed {seed}");
        }
    }

    #[test]
    fn works_for_ccp_priorities_too() {
        let schema = schema();
        for seed in 100..130u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let instance = random_instance(
                &schema,
                InstanceSpec { facts_per_relation: 8, domain: 3 },
                &mut rng,
            );
            let cg = rpr_fd::CsrConflictGraph::new(&schema, &instance);
            let p = random_ccp_priority(&cg, 0.5, 10, &mut rng);
            let j = construct_globally_optimal_repair(&cg, &p);
            assert!(cg.is_repair(&j));
            assert!(
                is_globally_optimal_brute_bounded(
                    &cg,
                    &p,
                    &j,
                    &Budget::unlimited().with_max_work(1 << 22)
                )
                .expect_done("global oracle"),
                "seed {seed}: ccp construction not globally optimal"
            );
        }
    }

    #[test]
    fn respects_total_priorities_exactly() {
        // With a total per-group priority the construction must return
        // THE optimal repair.
        let schema = schema();
        let mut instance = Instance::new(schema.signature().clone());
        let v = Value::sym;
        instance.insert_named("R", [v("g"), v("best")]).unwrap(); // 0
        instance.insert_named("R", [v("g"), v("mid")]).unwrap(); // 1
        instance.insert_named("R", [v("g"), v("worst")]).unwrap(); // 2
        let cg = rpr_fd::CsrConflictGraph::new(&schema, &instance);
        let p = PriorityRelation::new(
            3,
            [
                (rpr_data::FactId(0), rpr_data::FactId(1)),
                (rpr_data::FactId(1), rpr_data::FactId(2)),
                (rpr_data::FactId(0), rpr_data::FactId(2)),
            ],
        )
        .unwrap();
        let j = construct_globally_optimal_repair(&cg, &p);
        assert!(j.contains(rpr_data::FactId(0)));
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn empty_instance_and_empty_priority() {
        let schema = schema();
        let instance = Instance::new(schema.signature().clone());
        let cg = rpr_fd::CsrConflictGraph::new(&schema, &instance);
        let p = PriorityRelation::empty(0);
        assert!(construct_globally_optimal_repair(&cg, &p).is_empty());
    }
}
