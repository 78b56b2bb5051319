//! CSR / bitset adjacency equivalence over the named schema corpus.
//!
//! The hybrid [`CsrConflictGraph`] must answer every adjacency query
//! identically to the bitset [`ConflictGraph`] it was packed from —
//! including on facts whose bitset row was never allocated (the lazy
//! shared empty row in `crates/fd/src/conflicts.rs`), which a packing
//! bug could easily mistake for "no row yet" rather than "no
//! conflicts".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpr_data::{FactId, FactSet, Instance};
use rpr_fd::{ComponentLayout, ConflictGraph, ConflictRows, CsrConflictGraph, Schema};
use rpr_gen::schemas;
use rpr_gen::synthetic::{random_instance, InstanceSpec};

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
