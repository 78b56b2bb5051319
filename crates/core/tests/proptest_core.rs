//! Property-based tests for the checking layer: improvement-predicate
//! laws, witness validity, and cross-algorithm agreement on randomly
//! generated inputs.

use proptest::prelude::*;
use rpr_core::{
    check_global_1fd, enumerate_repairs_bounded, find_pareto_improvement, is_global_improvement,
    is_globally_optimal_brute_bounded, is_pareto_improvement, Budget, Improvement,
};
use rpr_data::{FactId, FactSet, Instance, Signature, Value};
use rpr_fd::{CsrConflictGraph, Schema};
use rpr_priority::PriorityRelation;

/// A complete random single-FD input: instance, conflict-restricted
/// priority, and the conflict graph.
#[derive(Debug, Clone)]
struct Input {
    schema: Schema,
    instance: Instance,
    priority: PriorityRelation,
}

fn input() -> impl Strategy<Value = Input> {
    (
        proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 2..10),
        proptest::collection::vec(0u64..u64::MAX, 10),
        any::<u64>(),
    )
        .prop_map(|(rows, ranks, edge_bits)| {
            let sig = Signature::new([("R", 3)]).unwrap();
            let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
            let mut instance = Instance::new(sig);
            for (a, b, c) in rows {
                instance.insert_named("R", [Value::Int(a), Value::Int(b), Value::Int(c)]).unwrap();
            }
            let cg = CsrConflictGraph::new(&schema, &instance);
            let edges: Vec<(FactId, FactId)> = cg
                .edges()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| edge_bits >> (i % 64) & 1 == 1)
                .map(|(_, (a, b))| {
                    let key = |f: FactId| (ranks[f.index() % 10], f.0);
                    if key(a) > key(b) {
                        (a, b)
                    } else {
                        (b, a)
                    }
                })
                .collect();
            let priority = PriorityRelation::new(instance.len(), edges).unwrap();
            Input { schema, instance, priority }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pareto_improvement_implies_global_improvement(inp in input()) {
        let cg = CsrConflictGraph::new(&inp.schema, &inp.instance);
        let repairs = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration");
        for j in &repairs {
            for j2 in &repairs {
                if is_pareto_improvement(&inp.priority, j, j2) && j != j2 {
                    prop_assert!(is_global_improvement(&inp.priority, j, j2));
                }
            }
        }
    }

    #[test]
    fn improvement_is_irreflexive_and_acyclic_on_pairs(inp in input()) {
        // ≻-based improvement can never hold in both directions between
        // the same pair (that would need f ≻ g and g ≻ f chains that
        // contradict acyclicity on the swapped difference)… the cheap
        // checkable part: irreflexivity and one-directionality for
        // singleton swaps.
        let cg = CsrConflictGraph::new(&inp.schema, &inp.instance);
        let repairs = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration");
        for j in &repairs {
            prop_assert!(!is_global_improvement(&inp.priority, j, j));
            prop_assert!(!is_pareto_improvement(&inp.priority, j, j));
        }
    }

    #[test]
    fn pareto_witness_validates_and_flags_match(inp in input()) {
        let cg = CsrConflictGraph::new(&inp.schema, &inp.instance);
        let full = FactSet::full(inp.instance.len());
        for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration")
        {
            match find_pareto_improvement(&cg, &inp.priority, &j, &full) {
                Some(imp) => {
                    prop_assert!(imp.is_valid_global_improvement(&cg, &inp.priority, &j));
                    let j2 = imp.apply(&j);
                    prop_assert!(is_pareto_improvement(&inp.priority, &j, &j2));
                }
                None => {
                    // No repair Pareto-improves it either.
                    for r in
                        enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
                            .expect_done("repair enumeration")
                    {
                        prop_assert!(!is_pareto_improvement(&inp.priority, &j, &r));
                    }
                }
            }
        }
    }

    #[test]
    fn single_fd_checker_matches_oracle(inp in input()) {
        let cg = CsrConflictGraph::new(&inp.schema, &inp.instance);
        let fd = inp.schema.fds()[0];
        let full = FactSet::full(inp.instance.len());
        for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration")
        {
            let fast = check_global_1fd(&inp.instance, &cg, &inp.priority, fd, &full, &j)
                .is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &inp.priority,
                &j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn improvement_apply_roundtrip(inp in input()) {
        let cg = CsrConflictGraph::new(&inp.schema, &inp.instance);
        let repairs = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration");
        for j in &repairs {
            for j2 in &repairs {
                let imp = Improvement {
                    removed: j.difference(j2),
                    added: j2.difference(j),
                };
                prop_assert_eq!(&imp.apply(j), j2);
            }
        }
    }
}
