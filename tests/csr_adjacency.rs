//! CSR / bitset adjacency equivalence over the named schema corpus.
//!
//! The hybrid [`CsrConflictGraph`] must answer every adjacency query
//! identically to the bitset [`ConflictGraph`] it was packed from —
//! including on facts whose bitset row was never allocated (the lazy
//! shared empty row in `crates/fd/src/conflicts.rs`), which a packing
//! bug could easily mistake for "no row yet" rather than "no
//! conflicts".
//!
//! The direct sort-based build ([`CsrConflictGraph::new`], and the
//! session's build that groups single-FD relations under their one
//! equivalent FD) must produce exactly the packing of the oracle's
//! bitset graph.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpr_core::CheckSession;
use rpr_data::{FactId, FactSet, Instance, Signature, Value};
use rpr_fd::{ComponentLayout, ConflictGraph, ConflictRows, CsrConflictGraph, Schema};
use rpr_gen::schemas;
use rpr_gen::synthetic::{random_instance, InstanceSpec};
use rpr_priority::{PrioritizedInstance, PriorityRelation};

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

fn random_set<R: Rng>(instance: &Instance, rng: &mut R) -> FactSet {
    let mut s = instance.empty_set();
    for id in instance.fact_ids() {
        if rng.random_bool(0.4) {
            s.insert(id);
        }
    }
    s
}

fn walk(rows: &impl ConflictRows, id: FactId, set: &FactSet) -> Vec<FactId> {
    rows.conflicts_among(id, set).collect()
}

/// Every query the checkers issue, on every fact, must agree between
/// representations — on dense instances (small domain, many conflicts)
/// and sparse ones alike.
#[test]
fn csr_rows_match_bitset_rows_on_corpus() {
    let mut rng = StdRng::seed_from_u64(0xC5_0FF5E7);
    for (name, schema) in corpus() {
        for domain in [2u32, 6, 40] {
            let spec = InstanceSpec { facts_per_relation: 60, domain };
            let instance = random_instance(&schema, spec, &mut rng);
            let cg = ConflictGraph::new(&schema, &instance);
            let csr = CsrConflictGraph::from_graph(&cg);
            assert_eq!(csr.len(), cg.len(), "{name}");
            assert_eq!(csr.edge_count(), cg.edges().len(), "{name}: edge count");
            let probes: Vec<FactSet> = (0..4).map(|_| random_set(&instance, &mut rng)).collect();
            for f in instance.fact_ids() {
                let row = cg.conflicts_of(f);
                assert_eq!(csr.degree(f), row.len(), "{name}: degree of {f:?}");
                for g in instance.fact_ids() {
                    assert_eq!(
                        csr.conflicting(f, g),
                        cg.conflicting(f, g),
                        "{name}: edge query ({f:?},{g:?})"
                    );
                }
                for set in &probes {
                    assert_eq!(
                        csr.conflicts_in(f, set).iter().collect::<Vec<_>>(),
                        cg.conflicts_in(f, set).iter().collect::<Vec<_>>(),
                        "{name}: conflicts_in({f:?})"
                    );
                    assert_eq!(
                        csr.first_conflict_in(f, set),
                        cg.conflicts_in(f, set).first(),
                        "{name}: first conflict witness for {f:?}"
                    );
                    assert_eq!(
                        csr.conflicts_with_set(f, set),
                        cg.conflicts_with_set(f, set),
                        "{name}: membership probe for {f:?}"
                    );
                    // The allocation-free row walk the checkers share.
                    let expected: Vec<FactId> = cg.conflicts_in(f, set).iter().collect();
                    assert_eq!(walk(&csr, f, set), expected, "{name}: CSR row walk of {f:?}");
                    assert_eq!(walk(&cg, f, set), expected, "{name}: bitset row walk of {f:?}");
                }
            }
            for set in &probes {
                assert_eq!(csr.is_consistent_set(set), cg.is_consistent_set(set), "{name}");
                assert_eq!(ConflictRows::is_consistent_set(&cg, set), cg.is_consistent_set(set));
            }
        }
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
    let cg = ConflictGraph::new(&schema, &instance);
    let csr = CsrConflictGraph::from_graph(&cg);
    assert_eq!(csr.packed_neighbor_count(), 2, "only the one conflict edge is packed");
    let everything = instance.full_set();
    for id in instance.fact_ids().skip(2) {
        assert_eq!(csr.degree(id), 0);
        assert!(!csr.conflicts_with_set(id, &everything));
        assert_eq!(csr.first_conflict_in(id, &everything), None);
        assert!(csr.conflicts_in(id, &everything).is_empty());
    }
    assert_eq!(csr.first_conflict_in(FactId(0), &everything), Some(FactId(1)));
    // Components: one edge + 49 singletons.
    let layout = ComponentLayout::from_csr(&csr);
    assert_eq!(layout.len(), 50);
    assert_eq!(layout.nontrivial(), &[0], "the edge holds the smallest ids");
    assert_eq!(layout.max_component_size(), 2);
}

/// `CsrConflictGraph::new` and a classical session's graph both equal
/// the packing of the oracle's bitset graph.
fn assert_direct_build_matches(name: &str, schema: &Schema, instance: &Instance) {
    let packed = CsrConflictGraph::from_graph(&ConflictGraph::new(schema, instance));
    let direct = CsrConflictGraph::new(schema, instance);
    assert_eq!(direct, packed, "{name}: direct build differs from the bitset packing");
    let pi = PrioritizedInstance::conflict_restricted(
        schema,
        instance.clone(),
        PriorityRelation::empty(instance.len()),
    )
    .unwrap();
    assert_eq!(CheckSession::new(schema, &pi).csr(), &packed, "{name}: session build differs");
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
        let mut rng = StdRng::seed_from_u64(seed);
        let arity = rng.random_range(2..=4);
        let n_fds = rng.random_range(0..=3);
        let schema = schemas::random_schema(&mut rng, arity, n_fds, 2);
        let domain = rng.random_range(1..=5);
        let instance =
            random_instance(&schema, InstanceSpec { facts_per_relation: 50, domain }, &mut rng);
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
