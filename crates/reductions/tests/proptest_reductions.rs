//! Property-based tests for the reduction machinery: the Case-1 Π key
//! properties over arbitrary incomparable key families (Lemmas 5.3 and
//! 5.4), gadget well-formedness over random graphs, and the
//! constructive half of Lemma 5.2.

use proptest::prelude::*;
use rpr_core::Improvement;
use rpr_data::{AttrSet, Fact, Value};
use rpr_fd::CsrConflictGraph;
use rpr_reductions::{
    check_injective, check_preserves_consistency, hamiltonian_gadget, improvement_from_cycle,
    CaseOneMapping, FactMapping, UGraph,
};

/// Random pairwise-incomparable key families over arities 3..=6.
fn key_family() -> impl Strategy<Value = (usize, Vec<AttrSet>)> {
    (3usize..=6)
        .prop_flat_map(|arity| {
            let keys = proptest::collection::vec(
                proptest::collection::btree_set(1usize..=arity, 1..=3)
                    .prop_map(AttrSet::from_attrs),
                3..=4,
            );
            (Just(arity), keys)
        })
        .prop_filter("pairwise incomparable", |(_, keys)| {
            keys.iter()
                .enumerate()
                .all(|(i, a)| keys.iter().skip(i + 1).all(|b| !a.is_subset(*b) && !b.is_subset(*a)))
        })
}

/// Random small graphs.
fn graph() -> impl Strategy<Value = UGraph> {
    (2usize..=4, any::<u16>()).prop_map(|(n, bits)| {
        let mut g = UGraph::new(n);
        let mut k = 0;
        for a in 0..n {
            for b in (a + 1)..n {
                if bits >> k & 1 == 1 {
                    g.add_edge(a, b);
                }
                k += 1;
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn case1_pi_satisfies_both_key_properties((arity, keys) in key_family()) {
        let pi = CaseOneMapping::new("R", arity, &keys).unwrap();
        let mut facts = Vec::new();
        for a in 0..2i64 {
            for b in 0..2i64 {
                for c in 0..2i64 {
                    facts.push(
                        Fact::parse_new(
                            pi.source_schema().signature(),
                            "R1",
                            [Value::Int(a), Value::Int(b), Value::Int(c)],
                        )
                        .unwrap(),
                    );
                }
            }
        }
        prop_assert!(check_injective(&pi, &facts), "Lemma 5.3 fails for {keys:?}");
        prop_assert!(
            check_preserves_consistency(&pi, &facts),
            "Lemma 5.4 fails for {keys:?}"
        );
    }

    #[test]
    fn gadget_is_always_well_formed(g in graph()) {
        let gadget = hamiltonian_gadget(&g);
        let cg = CsrConflictGraph::new(&gadget.schema, gadget.prioritized.instance());
        // J is a repair, and the construction sizes are as specified.
        prop_assert!(cg.is_repair(&gadget.j));
        let n = g.len();
        let expected_facts = 5 * n * n + g.edges().len() * 2 * n;
        prop_assert_eq!(gadget.prioritized.instance().len(), expected_facts);
        prop_assert_eq!(gadget.j.len(), 3 * n * n);
    }

    #[test]
    fn proof_improvement_validates_on_every_hamiltonian_graph(g in graph()) {
        if let Some(pi) = g.hamiltonian_cycle() {
            let gadget = hamiltonian_gadget(&g);
            let cg = CsrConflictGraph::new(&gadget.schema, gadget.prioritized.instance());
            let (removed, added) = improvement_from_cycle(&gadget, &pi);
            let imp = Improvement { removed, added };
            prop_assert!(imp.is_valid_global_improvement(
                &cg,
                gadget.prioritized.priority(),
                &gadget.j
            ));
        }
    }
}
