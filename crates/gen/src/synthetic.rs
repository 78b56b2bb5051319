//! Synthetic workload generation: random instances with tunable
//! conflict structure, random acyclic priorities (conflict-restricted
//! and cross-conflict), and random repairs.
//!
//! The generators are deliberately simple and fully seeded: every
//! experiment in the harness records its seed, so all reported numbers
//! are reproducible.

use rand::Rng;
use rpr_data::{FactId, FactSet, Instance, Value};
use rpr_fd::{CsrConflictGraph, Schema};
use rpr_priority::PriorityRelation;

/// Parameters for random instance generation.
#[derive(Clone, Copy, Debug)]
pub struct InstanceSpec {
    /// Facts to generate per relation.
    pub facts_per_relation: usize,
    /// Domain size per attribute: values are drawn uniformly from
    /// `0..domain`. Smaller domains ⇒ more collisions ⇒ more conflicts.
    pub domain: u32,
}

/// Generates a random instance over the schema's signature.
///
/// Duplicates are deduplicated by the instance, so the actual size may
/// be slightly below `facts_per_relation × #relations` for tiny
/// domains.
pub fn random_instance<R: Rng>(schema: &Schema, spec: InstanceSpec, rng: &mut R) -> Instance {
    let sig = schema.signature();
    let mut instance = Instance::new(sig.clone());
    for rel in sig.rel_ids() {
        let arity = sig.arity(rel);
        for _ in 0..spec.facts_per_relation {
            let values: Vec<Value> =
                (0..arity).map(|_| Value::Int(rng.random_range(0..spec.domain) as i64)).collect();
            let fact = rpr_data::Fact::new(sig, rel, rpr_data::Tuple::new(values))
                .expect("generated tuple fits arity");
            instance.insert(fact);
        }
    }
    instance
}

/// Generates a random acyclic **conflict-restricted** priority: each
/// conflicting pair is oriented (from a hidden random total order) with
/// probability `density`.
pub fn random_conflict_priority<R: Rng>(
    cg: &CsrConflictGraph,
    density: f64,
    rng: &mut R,
) -> PriorityRelation {
    let rank = random_ranks(cg.len(), rng);
    let mut edges = Vec::new();
    for (a, b) in cg.edges() {
        if rng.random_bool(density) {
            edges.push(orient(a, b, &rank));
        }
    }
    PriorityRelation::new(cg.len(), edges).expect("rank-oriented edges are acyclic")
}

/// Generates a random acyclic **cross-conflict** priority: conflict
/// pairs as above, plus `extra_cross` uniformly random (possibly
/// non-conflicting) pairs, all oriented by a hidden total order.
pub fn random_ccp_priority<R: Rng>(
    cg: &CsrConflictGraph,
    density: f64,
    extra_cross: usize,
    rng: &mut R,
) -> PriorityRelation {
    let n = cg.len();
    let rank = random_ranks(n, rng);
    let mut edges = Vec::new();
    for (a, b) in cg.edges() {
        if rng.random_bool(density) {
            edges.push(orient(a, b, &rank));
        }
    }
    if n >= 2 {
        for _ in 0..extra_cross {
            let a = FactId(rng.random_range(0..n as u32));
            let b = FactId(rng.random_range(0..n as u32));
            if a != b {
                edges.push(orient(a, b, &rank));
            }
        }
    }
    PriorityRelation::new(n, edges).expect("rank-oriented edges are acyclic")
}

fn random_ranks<R: Rng>(n: usize, rng: &mut R) -> Vec<u64> {
    (0..n).map(|_| rng.random()).collect()
}

fn orient(a: FactId, b: FactId, rank: &[u64]) -> (FactId, FactId) {
    // Break rank ties by id so the orientation is always antisymmetric.
    let key = |f: FactId| (rank[f.index()], f.0);
    if key(a) > key(b) {
        (a, b)
    } else {
        (b, a)
    }
}

/// Builds the deterministic chain-component workload: `components`
/// disjoint conflict *chains* (paths) of `size` facts each over the
/// hard schema S4 = {1→2, 2→3}.
///
/// Within a chain, facts `2t` and `2t+1` share the first attribute
/// (conflict under 1→2) and facts `2t+1` and `2t+2` share the second
/// with distinct third attributes (conflict under 2→3); all values are
/// namespaced per chain, so the conflict graph is exactly `components`
/// path components. A path of `m` facts has `Fib(m+2)` maximal
/// independent sets, so per-component exact search stays exponential
/// in `size` while the instance itself only grows linearly — the knob
/// for session-sharding experiments (`components` ⇒ available
/// parallelism and shard-reuse granularity, `size` ⇒ per-shard cost).
///
/// Fact ids are contiguous per chain (`k*size..(k+1)*size`); the
/// even-offset facts of every chain together form a repair.
pub fn chain_components(components: usize, size: usize) -> (Schema, Instance) {
    let schema = crate::schemas::hard_schema(4);
    let sig = schema.signature().clone();
    let name = sig.iter().next().expect("S4 has one relation").1.name().to_owned();
    let mut instance = Instance::new(sig);
    for k in 0..components {
        for i in 0..size {
            instance
                .insert_named(
                    &name,
                    [
                        Value::sym(format!("a{k}_{}", i / 2)),
                        Value::sym(format!("b{k}_{}", i.div_ceil(2))),
                        Value::sym(format!("c{k}_{i}")),
                    ],
                )
                .expect("chain tuples are ternary");
        }
    }
    (schema, instance)
}

/// Draws a random repair: greedy completion over a random fact order.
pub fn random_repair<R: Rng>(cg: &CsrConflictGraph, rng: &mut R) -> FactSet {
    let mut order: Vec<FactId> = (0..cg.len() as u32).map(FactId).collect();
    // Fisher–Yates shuffle.
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    cg.extend_greedily(&FactSet::empty(cg.len()), order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemas::{single_fd_schema, two_keys_schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_instances_respect_the_signature() {
        let schema = single_fd_schema(3, &[1], &[2]);
        let mut rng = StdRng::seed_from_u64(1);
        let i =
            random_instance(&schema, InstanceSpec { facts_per_relation: 50, domain: 5 }, &mut rng);
        assert!(i.len() <= 50);
        assert!(i.len() > 10, "domain 5^3 = 125 values, few duplicates expected");
    }

    #[test]
    fn small_domains_create_conflicts() {
        let schema = single_fd_schema(2, &[1], &[2]);
        let mut rng = StdRng::seed_from_u64(2);
        let i =
            random_instance(&schema, InstanceSpec { facts_per_relation: 40, domain: 4 }, &mut rng);
        let cg = CsrConflictGraph::new(&schema, &i);
        assert!(!cg.edges().is_empty());
    }

    #[test]
    fn generated_priorities_are_conflict_restricted_and_acyclic() {
        let schema = two_keys_schema(2, &[1], &[2]);
        let mut rng = StdRng::seed_from_u64(3);
        let i =
            random_instance(&schema, InstanceSpec { facts_per_relation: 30, domain: 6 }, &mut rng);
        let cg = CsrConflictGraph::new(&schema, &i);
        let p = random_conflict_priority(&cg, 0.8, &mut rng);
        for &(a, b) in p.edges() {
            assert!(cg.conflicting(a, b), "edge must join conflicting facts");
        }
        // Construction would have panicked on a cycle; also sanity-check
        // via topological order.
        assert_eq!(p.topological_order().len(), i.len());
    }

    #[test]
    fn ccp_priorities_may_cross() {
        let schema = single_fd_schema(2, &[1], &[2]);
        let mut rng = StdRng::seed_from_u64(4);
        let i =
            random_instance(&schema, InstanceSpec { facts_per_relation: 30, domain: 4 }, &mut rng);
        let cg = CsrConflictGraph::new(&schema, &i);
        let p = random_ccp_priority(&cg, 0.5, 40, &mut rng);
        assert!(p.edge_count() > 0);
        assert_eq!(p.topological_order().len(), i.len());
    }

    #[test]
    fn random_repairs_are_repairs() {
        let schema = single_fd_schema(2, &[1], &[2]);
        let mut rng = StdRng::seed_from_u64(5);
        let i =
            random_instance(&schema, InstanceSpec { facts_per_relation: 40, domain: 4 }, &mut rng);
        let cg = CsrConflictGraph::new(&schema, &i);
        for _ in 0..20 {
            let j = random_repair(&cg, &mut rng);
            assert!(cg.is_repair(&j));
        }
    }

    #[test]
    fn chain_components_are_disjoint_paths() {
        let (schema, i) = chain_components(5, 7);
        assert_eq!(i.len(), 35);
        let cg = CsrConflictGraph::new(&schema, &i);
        // A path of m facts has exactly m-1 edges; chains are disjoint.
        assert_eq!(cg.edges().len(), 5 * 6);
        let layout = rpr_fd::ComponentLayout::from_csr(&cg);
        assert_eq!(layout.nontrivial().len(), 5);
        for &c in layout.nontrivial() {
            assert_eq!(layout.component(c as usize).len(), 7);
        }
        // Even offsets form a maximal independent set of every path.
        let evens = i.fact_ids().filter(|f| f.index() % 7 % 2 == 0).collect::<Vec<_>>();
        let j = i.set_of(evens);
        assert!(cg.is_repair(&j));
    }

    #[test]
    fn determinism_per_seed() {
        let schema = single_fd_schema(2, &[1], &[2]);
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let i = random_instance(
                &schema,
                InstanceSpec { facts_per_relation: 20, domain: 4 },
                &mut rng,
            );
            let cg = CsrConflictGraph::new(&schema, &i);
            let p = random_conflict_priority(&cg, 0.7, &mut rng);
            (i.len(), p.edges().to_vec())
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43));
    }
}
