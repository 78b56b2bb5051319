//! Property-based tests for policy compilation: acyclicity for every
//! rule stack and scope, lexicographic-composition laws, and agreement
//! between the two scopes on conflicting pairs.

use proptest::prelude::*;
use rpr_data::{Instance, Signature, Value};
use rpr_fd::{CsrConflictGraph, Schema};
use rpr_policy::{Policy, PriorityScope, Rule};

fn schema() -> Schema {
    let sig = Signature::new([("R", 4)]).unwrap();
    Schema::from_named(sig, [("R", &[1][..], &[2, 3, 4][..])]).unwrap()
}

fn instance(rows: &[(i64, i64, u8, i64)]) -> Instance {
    let schema = schema();
    let mut i = Instance::new(schema.signature().clone());
    let sources = ["gold", "bulk", "scrape"];
    for &(k, v, s, t) in rows {
        i.insert_named(
            "R",
            [Value::Int(k), Value::Int(v), Value::sym(sources[(s % 3) as usize]), Value::Int(t)],
        )
        .unwrap();
    }
    i
}

fn rule_strategy() -> impl Strategy<Value = Rule> {
    prop_oneof![
        Just(Rule::NewerWins { attr: 4 }),
        Just(Rule::SourceRanking {
            attr: 3,
            ranking: vec!["gold".into(), "bulk".into(), "scrape".into()],
        }),
        Just(Rule::Lexicographic),
        (1usize..=4).prop_map(|attr| Rule::NewerWins { attr }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_priorities_are_always_acyclic(
        rows in proptest::collection::vec((0i64..3, 0i64..4, any::<u8>(), 0i64..10), 1..12),
        rules in proptest::collection::vec(rule_strategy(), 0..4),
    ) {
        let schema = schema();
        let inst = instance(&rows);
        let mut policy = Policy::new();
        for r in rules {
            policy = policy.rule(r);
        }
        for scope in [PriorityScope::ConflictsOnly, PriorityScope::AllPairs] {
            let p = policy.compile(&schema, &inst, scope).expect("compiles");
            // Construction enforces acyclicity; double-check via topo sort.
            prop_assert_eq!(p.topological_order().len(), inst.len());
        }
    }

    #[test]
    fn conflicts_scope_is_the_restriction_of_all_pairs(
        rows in proptest::collection::vec((0i64..3, 0i64..4, any::<u8>(), 0i64..10), 1..12),
        rules in proptest::collection::vec(rule_strategy(), 1..4),
    ) {
        let schema = schema();
        let inst = instance(&rows);
        let mut policy = Policy::new();
        for r in rules {
            policy = policy.rule(r);
        }
        let cg = CsrConflictGraph::new(&schema, &inst);
        let conflicts = policy.compile(&schema, &inst, PriorityScope::ConflictsOnly).unwrap();
        let all = policy.compile(&schema, &inst, PriorityScope::AllPairs).unwrap();
        // Same orientation on conflicting pairs; nothing extra.
        for &(a, b) in conflicts.edges() {
            prop_assert!(cg.conflicting(a, b));
            prop_assert!(all.prefers(a, b));
        }
        for &(a, b) in all.edges() {
            if cg.conflicting(a, b) {
                prop_assert!(conflicts.prefers(a, b));
            } else {
                prop_assert!(!conflicts.prefers(a, b));
            }
        }
    }

    #[test]
    fn lexicographic_tiebreak_totalizes_conflicts(
        rows in proptest::collection::vec((0i64..3, 0i64..4, any::<u8>(), 0i64..10), 1..12),
    ) {
        let schema = schema();
        let inst = instance(&rows);
        let cg = CsrConflictGraph::new(&schema, &inst);
        let p = Policy::new()
            .break_ties_lexicographically()
            .compile(&schema, &inst, PriorityScope::ConflictsOnly)
            .unwrap();
        for (a, b) in cg.edges() {
            prop_assert!(p.prefers(a, b) ^ p.prefers(b, a));
        }
    }

    #[test]
    fn earlier_rules_dominate_later_ones(
        rows in proptest::collection::vec((0i64..3, 0i64..4, any::<u8>(), 0i64..10), 2..12),
    ) {
        // Wherever the first rule strictly separates a pair, appending
        // more rules never flips the orientation.
        let schema = schema();
        let inst = instance(&rows);
        let first = Policy::new().prefer_newer(4);
        let stacked = Policy::new().prefer_newer(4).break_ties_lexicographically();
        let p1 = first.compile(&schema, &inst, PriorityScope::AllPairs).unwrap();
        let p2 = stacked.compile(&schema, &inst, PriorityScope::AllPairs).unwrap();
        for &(a, b) in p1.edges() {
            prop_assert!(p2.prefers(a, b), "stacking must preserve decided pairs");
        }
    }
}
