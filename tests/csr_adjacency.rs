//! The CSR conflict graph against the bitset reference.
//!
//! [`CsrConflictGraph`] is the only conflict graph: sessions, one-shot
//! checkers and the brute-force oracles all run on it. This suite ties
//! it to the definition through the bitset `ConflictGraph` kept in
//! `crates/fd/tests/reference/conflicts.rs`, which hashes projected
//! tuples and shares no code with the sort-based `FdGrouping` the CSR
//! is built from. Every build — [`CsrConflictGraph::new`], and the
//! session's build that groups single-FD relations under their one
//! equivalent FD — must pack exactly the reference's rows, on the named
//! corpus and on every schema generator the differential suites feed
//! to the brute oracles; and every row query, the edge list, the
//! repair tests, the greedy loop and [`ConflictStats`] must answer as
//! the reference does. That includes facts whose bitset row was never
//! allocated (the reference's lazy shared empty row), which a packing
//! bug could easily mistake for "no row yet" rather than "no
//! conflicts".

#[path = "../crates/fd/tests/reference/conflicts.rs"]
mod reference;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::{same_graph, ConflictGraph};
use rpr_core::CheckSession;
use rpr_data::{FactId, FactSet, Instance, Signature, Value};
use rpr_fd::{ComponentLayout, ConflictStats, CsrConflictGraph, Schema};
use rpr_gen::schemas;
use rpr_gen::synthetic::{random_instance, InstanceSpec};
use rpr_priority::{PrioritizedInstance, PriorityRelation};
use rpr_reductions::{hamiltonian_gadget, UGraph};

/// The named schema corpus from `rpr-gen`, spanning every §5.2 class.
fn corpus() -> Vec<(&'static str, Schema)> {
    vec![
        ("running_example", schemas::running_example_schema()),
        ("example_3_3", schemas::example_3_3_schema()),
        ("hard_1", schemas::hard_schema(1)),
        ("hard_2", schemas::hard_schema(2)),
        ("ccp_hard_a", schemas::ccp_hard_schema('a')),
        ("single_fd", schemas::single_fd_schema(3, &[1], &[2, 3])),
        ("two_keys", schemas::two_keys_schema(3, &[1], &[2])),
    ]
}

/// A random schema from `rpr_gen::random_schema` (the classifier
/// oracles' generator) with a random instance over it.
fn random_schema_instance(seed: u64, facts_per_relation: usize) -> (Schema, Instance) {
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = rng.random_range(2..=4);
    let n_fds = rng.random_range(0..=3);
    let schema = schemas::random_schema(&mut rng, arity, n_fds, 2);
    let domain = rng.random_range(1..=5);
    let spec = InstanceSpec { facts_per_relation, domain };
    let instance = random_instance(&schema, spec, &mut rng);
    (schema, instance)
}

fn random_set<R: Rng>(instance: &Instance, rng: &mut R) -> FactSet {
    let mut s = instance.empty_set();
    for id in instance.fact_ids() {
        if rng.random_bool(0.4) {
            s.insert(id);
        }
    }
    s
}

fn shuffled<R: Rng>(instance: &Instance, rng: &mut R) -> Vec<FactId> {
    let mut order: Vec<FactId> = instance.fact_ids().collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// Holds every query of the CSR built from `instance` to the
/// reference's answer: the packing, the edge list in order, each row
/// (degree, neighbors, pairwise probes), set queries on random probe
/// sets, the repair tests and the greedy loop.
fn assert_queries_match<R: Rng>(name: &str, schema: &Schema, instance: &Instance, rng: &mut R) {
    let cg = ConflictGraph::new(schema, instance);
    let csr = CsrConflictGraph::new(schema, instance);
    assert!(same_graph(&cg, &csr), "{name}: the CSR does not pack the reference's rows");
    assert_eq!(csr.len(), cg.len(), "{name}");
    assert_eq!(csr.is_empty(), cg.is_empty(), "{name}");
    assert_eq!(csr.edges(), cg.edges(), "{name}: edge list or its order");
    assert_eq!(csr.edge_count(), cg.edges().len(), "{name}: edge count");
    // Greedy repairs: in id order from a consistent base (the
    // reference's `extend_to_repair`), and in random orders, where
    // every dropped fact must conflict with a fact kept before it.
    let mut probes: Vec<FactSet> = (0..4).map(|_| random_set(instance, rng)).collect();
    for _ in 0..3 {
        let order = shuffled(instance, rng);
        let kept = csr.extend_greedily(&instance.empty_set(), order.iter().copied());
        assert!(cg.is_repair(&kept), "{name}: a greedy walk must end in a repair");
        let mut seen = instance.empty_set();
        for &f in &order {
            if !kept.contains(f) {
                assert!(cg.conflicts_with_set(f, &seen.intersect(&kept)), "{name}: {f:?} dropped");
            }
            seen.insert(f);
        }
        // A prefix of the walk is a consistent base.
        let mut base = instance.empty_set();
        for &f in order.iter().take(order.len() / 3) {
            if kept.contains(f) {
                base.insert(f);
            }
        }
        assert_eq!(
            csr.extend_greedily(&base, instance.fact_ids()),
            cg.extend_to_repair(&base),
            "{name}: greedy extension in id order"
        );
        probes.push(base);
        probes.push(kept);
    }
    for f in instance.fact_ids() {
        let row = cg.conflicts_of(f);
        assert_eq!(csr.degree(f), row.len(), "{name}: degree of {f:?}");
        assert!(csr.neighbors(f).eq(row.iter()), "{name}: neighbors of {f:?}");
        for g in instance.fact_ids() {
            assert_eq!(
                csr.conflicting(f, g),
                cg.conflicting(f, g),
                "{name}: edge query ({f:?},{g:?})"
            );
        }
        for set in &probes {
            let expected: Vec<FactId> = cg.conflicts_in(f, set).iter().collect();
            assert_eq!(
                csr.conflicts_among(f, set).collect::<Vec<_>>(),
                expected,
                "{name}: the allocation-free row walk of {f:?}"
            );
            assert_eq!(
                csr.first_conflict_in(f, set),
                expected.first().copied(),
                "{name}: first conflict witness for {f:?}"
            );
            assert_eq!(
                csr.conflicts_with_set(f, set),
                cg.conflicts_with_set(f, set),
                "{name}: membership probe for {f:?}"
            );
        }
    }
    for set in &probes {
        assert_eq!(csr.is_consistent_set(set), cg.is_consistent_set(set), "{name}: consistency");
        assert_eq!(csr.is_repair(set), cg.is_repair(set), "{name}: repair test");
    }
}

/// Every query the checkers issue, on every fact, must agree with the
/// reference — on dense instances (small domain, many conflicts) and
/// sparse ones alike.
#[test]
fn csr_rows_match_bitset_rows_on_corpus() {
    let mut rng = StdRng::seed_from_u64(0xC5_0FF5E7);
    for (name, schema) in corpus() {
        for domain in [2u32, 6, 40] {
            let spec = InstanceSpec { facts_per_relation: 60, domain };
            let instance = random_instance(&schema, spec, &mut rng);
            assert_queries_match(name, &schema, &instance, &mut rng);
        }
    }
}

#[test]
fn csr_queries_match_the_reference_on_random_schemas() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0C5A);
    for seed in 0..40u64 {
        let (schema, instance) = random_schema_instance(seed, 50);
        assert_queries_match(&format!("random schema seed {seed}"), &schema, &instance, &mut rng);
    }
}

/// `ConflictStats` read off the CSR equal the same statistics read off
/// the reference's rows.
#[test]
fn conflict_stats_match_the_reference() {
    let mut cases: Vec<(String, Schema, Instance)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x57A7_5EED);
    for (name, schema) in corpus() {
        for domain in [1u32, 3, 40] {
            let spec = InstanceSpec { facts_per_relation: 40, domain };
            let instance = random_instance(&schema, spec, &mut rng);
            cases.push((format!("{name}/{domain}"), schema.clone(), instance));
        }
    }
    for seed in 0..20u64 {
        let (schema, instance) = random_schema_instance(seed, 30);
        cases.push((format!("random schema seed {seed}"), schema, instance));
    }
    for (name, schema, instance) in cases {
        let cg = ConflictGraph::new(&schema, &instance);
        let edges = cg.edges();
        let degrees: Vec<usize> = instance.fact_ids().map(|f| cg.conflicts_of(f).len()).collect();
        let sig = schema.signature();
        let per_relation: Vec<(String, usize, usize)> = sig
            .rel_ids()
            .map(|rel| {
                let pairs = edges.iter().filter(|(a, _)| instance.fact(*a).rel() == rel).count();
                (sig.symbol(rel).name().to_owned(), instance.facts_of(rel).len(), pairs)
            })
            .collect();
        let expected = ConflictStats {
            facts: instance.len(),
            conflict_pairs: edges.len(),
            conflicted_facts: degrees.iter().filter(|&&d| d > 0).count(),
            max_degree: degrees.iter().copied().max().unwrap_or(0),
            per_relation,
        };
        assert_eq!(ConflictStats::compute(&schema, &instance), expected, "{name}");
    }
}

/// The brute oracles of the differential suites run on the CSR of
/// these generators' instances, so the CSR must be the reference graph
/// on each: instances over `random_schema`, the two-keys benchmark
/// workload, the chain components of the sharding suites and the
/// Theorem 5.1 Hamiltonian-cycle gadget.
#[test]
fn csr_build_matches_the_reference_on_every_oracle_generator() {
    let mut rng = StdRng::seed_from_u64(0x02AC_1E00);
    for seed in 0..20u64 {
        let (schema, instance) = random_schema_instance(seed, 40);
        assert_direct_build_matches(&format!("random schema seed {seed}"), &schema, &instance);
    }
    for (n, slots, density, seed) in [(60, 3, 0.5, 1), (200, 5, 0.3, 2), (400, 8, 0.9, 3)] {
        let w = rpr_bench::two_keys_workload(n, slots, density, seed);
        let name = format!("two_keys_workload {n}/{slots}");
        assert_direct_build_matches(&name, &w.schema, &w.instance);
        assert_queries_match(&name, &w.schema, &w.instance, &mut rng);
    }
    for (components, size) in [(1, 1), (3, 7), (8, 6)] {
        let (schema, instance) = rpr_gen::chain_components(components, size);
        let name = format!("chain_components {components}x{size}");
        assert_direct_build_matches(&name, &schema, &instance);
        assert_queries_match(&name, &schema, &instance, &mut rng);
    }
    let mut graphs = vec![UGraph::cycle(4), UGraph::complete(4), UGraph::path(5)];
    for _ in 0..4 {
        let n = rng.random_range(2..=5);
        let mut g = UGraph::new(n);
        for a in 0..n {
            for b in a + 1..n {
                if rng.random_bool(0.5) {
                    g.add_edge(a, b);
                }
            }
        }
        graphs.push(g);
    }
    for (k, graph) in graphs.iter().enumerate() {
        let gadget = hamiltonian_gadget(graph);
        let instance = gadget.prioritized.instance();
        let name = format!("hamiltonian gadget {k}");
        assert_direct_build_matches(&name, &gadget.schema, instance);
        assert_queries_match(&name, &gadget.schema, instance, &mut rng);
    }
}

/// Conflict-free facts exercise the lazy shared empty row: their
/// bitset row is `None` internally, and the CSR packing must emit an
/// empty (not missing, not aliased) neighbor range for them.
#[test]
fn lazy_empty_rows_pack_to_empty_csr_ranges() {
    let schema = schemas::single_fd_schema(2, &[1], &[2]);
    let sig = schema.signature().clone();
    let mut instance = Instance::new(sig);
    // Two conflicting facts on key 0, then many isolated facts with
    // unique keys — the isolated ones never allocate a bitset row.
    for v in 0..2 {
        instance.insert_named("R", [rpr_data::Value::Int(0), rpr_data::Value::Int(v)]).unwrap();
    }
    for k in 1..50 {
        instance.insert_named("R", [rpr_data::Value::Int(k), rpr_data::Value::Int(0)]).unwrap();
    }
    let csr = CsrConflictGraph::new(&schema, &instance);
    assert!(same_graph(&ConflictGraph::new(&schema, &instance), &csr));
    assert_eq!(csr.packed_neighbor_count(), 2, "only the one conflict edge is packed");
    let everything = instance.full_set();
    for id in instance.fact_ids().skip(2) {
        assert_eq!(csr.degree(id), 0);
        assert!(!csr.conflicts_with_set(id, &everything));
        assert_eq!(csr.first_conflict_in(id, &everything), None);
        assert_eq!(csr.conflicts_among(id, &everything).next(), None);
    }
    assert_eq!(csr.first_conflict_in(FactId(0), &everything), Some(FactId(1)));
    // Components: one edge + 49 singletons.
    let layout = ComponentLayout::from_csr(&csr);
    assert_eq!(layout.len(), 50);
    assert_eq!(layout.nontrivial(), &[0], "the edge holds the smallest ids");
    assert_eq!(layout.max_component_size(), 2);
}

/// `CsrConflictGraph::new` and a classical session's graph both pack
/// the reference's bitset rows.
fn assert_direct_build_matches(name: &str, schema: &Schema, instance: &Instance) {
    let cg = ConflictGraph::new(schema, instance);
    let direct = CsrConflictGraph::new(schema, instance);
    assert!(same_graph(&cg, &direct), "{name}: direct build differs from the bitset packing");
    let pi = PrioritizedInstance::conflict_restricted(
        schema,
        instance.clone(),
        PriorityRelation::empty(instance.len()),
    )
    .unwrap();
    assert_eq!(
        CheckSession::new(schema, &pi).conflict_graph(),
        &direct,
        "{name}: session build differs"
    );
}

#[test]
fn direct_build_matches_bitset_packing_on_corpus_and_random_schemas() {
    let mut rng = StdRng::seed_from_u64(0xD1_2EC7);
    for (name, schema) in corpus() {
        for domain in [1u32, 2, 6, 40] {
            for facts_per_relation in [0, 5, 60] {
                let spec = InstanceSpec { facts_per_relation, domain };
                let instance = random_instance(&schema, spec, &mut rng);
                assert_direct_build_matches(name, &schema, &instance);
            }
        }
    }
    for seed in 0..40u64 {
        let (schema, instance) = random_schema_instance(seed, 50);
        assert_direct_build_matches(&format!("random schema seed {seed}"), &schema, &instance);
    }
}

#[test]
fn two_fds_witnessing_one_pair_yield_one_edge() {
    // R: 1→2 and 1→3. Facts 0 and 1 disagree on both 2 and 3, so both
    // FDs witness {0, 1}; {0, 2} only under 1→3, {1, 2} only under 1→2.
    let sig = Signature::new([("R", 3)]).unwrap();
    let schema =
        Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..]), ("R", &[1][..], &[3][..])])
            .unwrap();
    let mut i = Instance::new(sig);
    for (b, c) in [("x", "1"), ("y", "2"), ("x", "2")] {
        i.insert_named("R", [Value::sym("a"), Value::sym(b), Value::sym(c)]).unwrap();
    }
    assert_direct_build_matches("two-fd triangle", &schema, &i);
    let csr = CsrConflictGraph::new(&schema, &i);
    assert_eq!(csr.edge_count(), 3);
    for f in i.fact_ids() {
        assert_eq!(csr.degree(f), 2, "no duplicate neighbor for {f:?}");
    }
}

#[test]
fn cliques_pack_dense_and_double_counted_rows_stay_sparse() {
    // One key shared by 201 facts: a clique, every row dense.
    let schema = schemas::single_fd_schema(2, &[1], &[2]);
    let mut i = Instance::new(schema.signature().clone());
    for v in 0..201 {
        i.insert_named("R", [Value::sym("hub"), Value::Int(v)]).unwrap();
    }
    assert_direct_build_matches("clique", &schema, &i);
    let csr = CsrConflictGraph::new(&schema, &i);
    assert_eq!(csr.dense_row_count(), 201);
    assert_eq!(csr.packed_neighbor_count(), 0);

    // Under 1→2 and 1→3 a 5-fact group differing everywhere counts
    // every pair twice: a degree bound of 8 (dense in 200 facts) but a
    // true degree of 4 (sparse), so the rows leave the bitset path.
    let sig = Signature::new([("R", 3)]).unwrap();
    let schema =
        Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..]), ("R", &[1][..], &[3][..])])
            .unwrap();
    let mut i = Instance::new(sig);
    for v in 0..5 {
        i.insert_named("R", [Value::sym("g"), Value::Int(v), Value::Int(v)]).unwrap();
    }
    for k in 0..195 {
        i.insert_named("R", [Value::Int(k), Value::Int(0), Value::Int(0)]).unwrap();
    }
    assert_direct_build_matches("double-counted group", &schema, &i);
    let csr = CsrConflictGraph::new(&schema, &i);
    assert_eq!(csr.dense_row_count(), 0);
    assert_eq!(csr.edge_count(), 10);
}

#[test]
fn trivial_fds_and_empty_relations_build_no_edges() {
    let sig = Signature::new([("R", 2), ("S", 2), ("T", 2)]).unwrap();
    // R: 12→1 is trivial; S: 1→2 over no facts; T has no FDs at all.
    let schema =
        Schema::from_named(sig.clone(), [("R", &[1, 2][..], &[1][..]), ("S", &[1][..], &[2][..])])
            .unwrap();
    let mut i = Instance::new(sig.clone());
    for (a, b) in [("a", "b"), ("a", "c"), ("d", "b")] {
        i.insert_named("R", [Value::sym(a), Value::sym(b)]).unwrap();
        i.insert_named("T", [Value::sym(a), Value::sym(b)]).unwrap();
    }
    assert_direct_build_matches("trivial + empty", &schema, &i);
    assert_eq!(CsrConflictGraph::new(&schema, &i).edge_count(), 0);
    let empty = Instance::new(sig);
    assert_direct_build_matches("empty instance", &schema, &empty);
    assert!(CsrConflictGraph::new(&schema, &empty).is_empty());
}

#[test]
fn mixed_value_kinds_group_by_value_order() {
    let mut rng = StdRng::seed_from_u64(0x05EE_D1A1);
    let pool = [
        Value::Int(0),
        Value::Int(7),
        Value::sym("0"),
        Value::sym("x"),
        Value::pair(Value::Int(0), Value::sym("x")),
        Value::pair(Value::sym("x"), Value::Int(0)),
    ];
    for (name, schema) in [
        ("key", schemas::single_fd_schema(3, &[1], &[2, 3])),
        ("two keys", schemas::two_keys_schema(3, &[1], &[2])),
        ("hard", schemas::hard_schema(1)),
    ] {
        let sig = schema.signature().clone();
        let mut i = Instance::new(sig.clone());
        for rel in sig.rel_ids() {
            for _ in 0..80 {
                let values: Vec<Value> = (0..sig.arity(rel))
                    .map(|_| pool[rng.random_range(0..pool.len())].clone())
                    .collect();
                let fact = rpr_data::Fact::new(&sig, rel, rpr_data::Tuple::new(values)).unwrap();
                i.insert(fact);
            }
        }
        assert_direct_build_matches(name, &schema, &i);
    }
}
