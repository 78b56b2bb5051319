//! # rpr-bench — workloads shared by the Criterion benches and the
//! experiment harness.
//!
//! Each workload builder returns a complete repair-checking input
//! `(schema, instance, priority, J)` at a requested size, fully
//! seeded. The benches sweep `n` to measure the scaling of each
//! algorithm; the `experiments` binary replays the paper's figures,
//! examples and lemmas and prints claim-vs-measured lines (recorded in
//! EXPERIMENTS.md).

#![warn(missing_docs)]

pub mod load;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rpr_data::{FactSet, Instance};
use rpr_fd::{CsrConflictGraph, Schema};
use rpr_gen::{
    random_ccp_priority, random_conflict_priority, random_instance, single_fd_schema,
    two_keys_schema, InstanceSpec,
};
use rpr_priority::PriorityRelation;

/// A ready-to-check workload.
pub struct Workload {
    /// The schema.
    pub schema: Schema,
    /// The base instance `I`.
    pub instance: Instance,
    /// The priority `≻`.
    pub priority: PriorityRelation,
    /// The candidate repair `J` (a genuine repair of `I`).
    pub j: FactSet,
}

impl Workload {
    /// Builds the conflict graph of the workload.
    pub fn conflict_graph(&self) -> CsrConflictGraph {
        CsrConflictGraph::new(&self.schema, &self.instance)
    }
}

fn finish(
    schema: Schema,
    instance: Instance,
    priority: PriorityRelation,
    rng: &mut StdRng,
) -> Workload {
    let cg = CsrConflictGraph::new(&schema, &instance);
    let j = rpr_gen::random_repair(&cg, rng);
    Workload { schema, instance, priority, j }
}

/// Single-FD workload (`R: 1→2` over a ternary relation): `n` facts,
/// groups of expected size ~`group`, conflict-restricted priority.
pub fn single_fd_workload(n: usize, group: u32, density: f64, seed: u64) -> Workload {
    let schema = single_fd_schema(3, &[1], &[2]);
    let mut rng = StdRng::seed_from_u64(seed);
    let domain = ((n as u32) / group).max(1);
    // Attribute domains: attr1 picks the group, attrs 2-3 small values.
    let mut instance = Instance::new(schema.signature().clone());
    use rand::Rng;
    for _ in 0..n {
        let g = rng.random_range(0..domain) as i64;
        let b = rng.random_range(0..4) as i64;
        let c = rng.random_range(0..1000) as i64;
        instance.insert_named("R", [g.into(), b.into(), c.into()]).expect("fits schema");
    }
    let cg = CsrConflictGraph::new(&schema, &instance);
    let priority = random_conflict_priority(&cg, density, &mut rng);
    finish(schema, instance, priority, &mut rng)
}

/// Two-keys workload (`{1→⟦R⟧, 2→⟦R⟧}` over a binary relation):
/// matching-style instances with `n` facts over `slots × slots` value
/// pairs.
pub fn two_keys_workload(n: usize, slots: u32, density: f64, seed: u64) -> Workload {
    let schema = two_keys_schema(2, &[1], &[2]);
    let mut rng = StdRng::seed_from_u64(seed);
    let instance =
        random_instance(&schema, InstanceSpec { facts_per_relation: n, domain: slots }, &mut rng);
    let cg = CsrConflictGraph::new(&schema, &instance);
    let priority = random_conflict_priority(&cg, density, &mut rng);
    finish(schema, instance, priority, &mut rng)
}

/// ccp primary-key workload: two keyed relations and a cross-conflict
/// priority with `cross` extra cross-relation edges.
pub fn ccp_pk_workload(n: usize, domain: u32, cross: usize, seed: u64) -> Workload {
    let sig = rpr_data::Signature::new([("R", 2), ("S", 2)]).unwrap();
    let schema =
        Schema::from_named(sig, [("R", &[1][..], &[2][..]), ("S", &[1][..], &[2][..])]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let instance =
        random_instance(&schema, InstanceSpec { facts_per_relation: n / 2, domain }, &mut rng);
    let cg = CsrConflictGraph::new(&schema, &instance);
    let priority = random_ccp_priority(&cg, 0.6, cross, &mut rng);
    finish(schema, instance, priority, &mut rng)
}

/// ccp constant-attribute workload: `∅→2` on one relation, `∅→1` on
/// another.
pub fn ccp_const_workload(n: usize, domain: u32, cross: usize, seed: u64) -> Workload {
    let sig = rpr_data::Signature::new([("R", 2), ("S", 2)]).unwrap();
    let schema =
        Schema::from_named(sig, [("R", &[][..], &[2][..]), ("S", &[][..], &[1][..])]).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let instance =
        random_instance(&schema, InstanceSpec { facts_per_relation: n / 2, domain }, &mut rng);
    let cg = CsrConflictGraph::new(&schema, &instance);
    let priority = random_ccp_priority(&cg, 0.6, cross, &mut rng);
    finish(schema, instance, priority, &mut rng)
}

/// Hard-schema workload over `S4 = {1→2, 2→3}` (a coNP-complete
/// schema), for the dichotomy-gap benchmark. The first attribute picks
/// one of ~`n/3` groups and the second one of `domain` block values, so
/// the number of repairs grows exponentially with `n` — the regime
/// where the exact search exhibits its coNP cost.
pub fn hard_s4_workload(n: usize, domain: u32, density: f64, seed: u64) -> Workload {
    let schema = rpr_gen::hard_schema(4);
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = ((n as u32) / 3).max(1);
    let mut instance = Instance::new(schema.signature().clone());
    use rand::Rng;
    for _ in 0..n {
        let g = rng.random_range(0..groups) as i64;
        let b = rng.random_range(0..domain) as i64;
        let c = rng.random_range(0..domain) as i64;
        instance.insert_named("R4", [g.into(), b.into(), c.into()]).expect("fits schema");
    }
    let cg = CsrConflictGraph::new(&schema, &instance);
    let priority = random_conflict_priority(&cg, density, &mut rng);
    finish(schema, instance, priority, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_produce_genuine_repairs() {
        for w in [
            single_fd_workload(60, 4, 0.6, 1),
            two_keys_workload(60, 10, 0.6, 2),
            ccp_pk_workload(60, 6, 20, 3),
            ccp_const_workload(40, 4, 10, 4),
            hard_s4_workload(30, 4, 0.5, 5),
        ] {
            let cg = w.conflict_graph();
            assert!(cg.is_repair(&w.j));
            assert_eq!(w.priority.len(), w.instance.len());
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = single_fd_workload(50, 5, 0.5, 99);
        let b = single_fd_workload(50, 5, 0.5, 99);
        assert_eq!(a.instance.len(), b.instance.len());
        assert_eq!(a.j, b.j);
        assert_eq!(a.priority.edges(), b.priority.edges());
    }
}
