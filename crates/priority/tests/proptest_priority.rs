//! Property-based tests for priority relations: rank-oriented edge
//! sets are always accepted, cycles are always rejected with genuine
//! witnesses, topological orders respect every edge, and completions
//! are exactly the acyclic total-on-conflict extensions.

use proptest::prelude::*;
use rpr_data::{FactId, Instance, Signature, Value};
use rpr_engine::Budget;
use rpr_fd::{CsrConflictGraph, Schema};
use rpr_priority::{completions, is_completion, unordered_conflicts, PriorityRelation};

const N: usize = 10;

/// Random edges oriented by a hidden total rank — guaranteed acyclic.
fn rank_oriented_edges() -> impl Strategy<Value = Vec<(FactId, FactId)>> {
    (
        proptest::collection::vec(0u64..u64::MAX, N),
        proptest::collection::vec((0u32..N as u32, 0u32..N as u32), 0..25),
    )
        .prop_map(|(ranks, pairs)| {
            pairs
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| {
                    let key = |x: u32| (ranks[x as usize], x);
                    if key(a) > key(b) {
                        (FactId(a), FactId(b))
                    } else {
                        (FactId(b), FactId(a))
                    }
                })
                .collect()
        })
}

proptest! {
    #[test]
    fn rank_oriented_edge_sets_are_accepted(edges in rank_oriented_edges()) {
        let p = PriorityRelation::new(N, edges.clone()).expect("rank-oriented is acyclic");
        // Every input edge is queryable.
        for (a, b) in edges {
            prop_assert!(p.prefers(a, b));
            prop_assert!(!p.prefers(b, a));
        }
    }

    #[test]
    fn topological_order_respects_every_edge(edges in rank_oriented_edges()) {
        let p = PriorityRelation::new(N, edges).unwrap();
        let order = p.topological_order();
        prop_assert_eq!(order.len(), N);
        let mut pos = [0usize; N];
        for (i, f) in order.iter().enumerate() {
            pos[f.index()] = i;
        }
        for &(a, b) in p.edges() {
            prop_assert!(pos[a.index()] < pos[b.index()]);
        }
    }

    #[test]
    fn closing_any_path_into_a_cycle_is_rejected(edges in rank_oriented_edges()) {
        let p = PriorityRelation::new(N, edges.clone()).unwrap();
        // Pick any edge a ≻ b and add b ≻ a: must be rejected with a
        // genuine cycle witness.
        if let Some(&(a, b)) = p.edges().first() {
            let mut bad = edges;
            bad.push((b, a));
            let err = PriorityRelation::new(N, bad).unwrap_err();
            match err {
                rpr_priority::PriorityError::Cyclic { cycle } => {
                    prop_assert!(cycle.len() >= 2);
                }
                other => prop_assert!(false, "expected cycle, got {other:?}"),
            }
        }
    }

    #[test]
    fn completions_are_exactly_the_valid_extensions(
        rows in proptest::collection::vec((0i64..3, 0i64..3), 2..7),
        edge_bits in any::<u64>(),
    ) {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut instance = Instance::new(sig);
        for (a, b) in rows {
            instance.insert_named("R", [Value::Int(a), Value::Int(b)]).unwrap();
        }
        let cg = CsrConflictGraph::new(&schema, &instance);
        let conflict_edges = cg.edges();
        prop_assume!(conflict_edges.len() <= 8);
        // Base priority: orient a bitmask-selected subset by id.
        let base_edges: Vec<(FactId, FactId)> = conflict_edges
            .iter()
            .enumerate()
            .filter(|(i, _)| edge_bits >> i & 1 == 1)
            .map(|(_, &(a, b))| (a, b))
            .collect();
        let base = PriorityRelation::new(instance.len(), base_edges).unwrap();
        let all = completions(&cg, &base, &Budget::unlimited().with_max_work(1 << 16))
            .expect_done("completion enumeration");
        // Each completion is valid and extends the base.
        for c in &all {
            prop_assert!(is_completion(&cg, &base, c));
        }
        // Count: orientations of the free pairs minus cyclic ones,
        // which equals the number of acyclic orientation assignments.
        let free = unordered_conflicts(&cg, &base);
        prop_assert!(all.len() <= 1 << free.len());
        // The base itself is a completion iff there are no free pairs.
        prop_assert_eq!(
            is_completion(&cg, &base, &base),
            free.is_empty()
        );
    }
}
