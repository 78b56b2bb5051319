//! Property-based tests for FD theory: the closure-operator laws,
//! cover equivalence, key minimality, and conflict-graph invariants.

#[path = "reference/conflicts.rs"]
mod reference;

use proptest::prelude::*;
use rpr_data::{AttrSet, Instance, RelId, Signature, Value};
use rpr_fd::{
    as_key_set, candidate_keys, closure, equivalent, implies, is_superkey, minimal_cover,
    minimize_key, CsrConflictGraph, Fd, Schema,
};

const ARITY: usize = 5;

fn attrset() -> impl Strategy<Value = AttrSet> {
    any::<u64>().prop_map(|bits| AttrSet::from_bits(bits & AttrSet::full(ARITY).bits()))
}

fn fd() -> impl Strategy<Value = Fd> {
    (attrset(), attrset()).prop_map(|(lhs, rhs)| Fd::new(RelId(0), lhs, rhs))
}

fn fd_set() -> impl Strategy<Value = Vec<Fd>> {
    proptest::collection::vec(fd(), 0..6)
}

proptest! {
    #[test]
    fn closure_is_a_closure_operator(fds in fd_set(), a in attrset(), b in attrset()) {
        let ca = closure(a, &fds);
        prop_assert!(a.is_subset(ca), "extensive");
        prop_assert_eq!(closure(ca, &fds), ca, "idempotent");
        if a.is_subset(b) {
            prop_assert!(ca.is_subset(closure(b, &fds)), "monotone");
        }
    }

    #[test]
    fn implication_is_reflexive_and_respects_union(fds in fd_set(), d in fd()) {
        for &f in &fds {
            prop_assert!(implies(&fds, f), "every member is implied");
        }
        // Trivial FDs are always implied.
        let trivial = Fd::new(d.rel, d.lhs, d.lhs);
        prop_assert!(implies(&fds, trivial));
        // Implication is monotone in the premise set.
        if implies(&fds, d) {
            let mut bigger = fds.clone();
            bigger.push(Fd::new(RelId(0), AttrSet::singleton(1), AttrSet::singleton(2)));
            prop_assert!(implies(&bigger, d));
        }
    }

    #[test]
    fn minimal_cover_is_equivalent_and_irredundant(fds in fd_set()) {
        let cover = minimal_cover(&fds);
        prop_assert!(equivalent(&fds, &cover));
        for (i, c) in cover.iter().enumerate() {
            prop_assert!(!c.is_trivial());
            prop_assert_eq!(c.rhs.len(), 1, "singleton rhs");
            let mut others = cover.clone();
            others.remove(i);
            prop_assert!(!implies(&others, *c), "no redundant member");
            for a in c.lhs.iter() {
                let smaller = Fd::new(c.rel, c.lhs.remove(a), c.rhs);
                prop_assert!(!implies(&cover, smaller), "left-reduced");
            }
        }
    }

    #[test]
    fn candidate_keys_are_minimal_superkeys(fds in fd_set()) {
        let keys = candidate_keys(&fds, ARITY);
        prop_assert!(!keys.is_empty());
        for &k in &keys {
            prop_assert!(is_superkey(k, &fds, ARITY));
            for a in k.iter() {
                prop_assert!(!is_superkey(k.remove(a), &fds, ARITY), "minimal");
            }
        }
        // Pairwise incomparable.
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                prop_assert!(!a.is_subset(*b) && !b.is_subset(*a));
            }
        }
        // minimize_key of the full set yields one of them… at least a
        // minimal superkey.
        let m = minimize_key(AttrSet::full(ARITY), &fds, ARITY);
        prop_assert!(keys.contains(&m));
    }

    #[test]
    fn as_key_set_answers_match_semantics(fds in fd_set()) {
        // If as_key_set succeeds, the returned keys are equivalent to Δ.
        if let Some(keys) = as_key_set(&fds, ARITY) {
            let key_fds: Vec<Fd> =
                keys.iter().map(|&k| Fd::key(RelId(0), k, ARITY)).collect();
            prop_assert!(equivalent(&fds, &key_fds));
        } else {
            // Otherwise no key set over the candidate keys works.
            let keys = candidate_keys(&fds, ARITY);
            let key_fds: Vec<Fd> =
                keys.iter().map(|&k| Fd::key(RelId(0), k, ARITY)).collect();
            prop_assert!(!equivalent(&fds, &key_fds));
        }
    }

    #[test]
    fn conflict_graph_is_symmetric_and_matches_pair_semantics(
        rows in proptest::collection::vec((0i64..4, 0i64..4, 0i64..4), 2..16),
        fds in proptest::collection::vec(fd(), 1..3),
    ) {
        // Restrict FDs to arity 3 for the generated rows.
        let fds: Vec<Fd> = fds
            .into_iter()
            .map(|d| Fd::new(
                RelId(0),
                d.lhs.intersect(AttrSet::full(3)),
                d.rhs.intersect(AttrSet::full(3)),
            ))
            .collect();
        let sig = Signature::new([("R", 3)]).unwrap();
        let schema = Schema::new(sig.clone(), fds).unwrap();
        let mut instance = Instance::new(sig);
        for (a, b, c) in rows {
            instance
                .insert_named("R", [Value::Int(a), Value::Int(b), Value::Int(c)])
                .unwrap();
        }
        let cg = CsrConflictGraph::new(&schema, &instance);
        for (a, fa) in instance.iter() {
            for (b, fb) in instance.iter() {
                if a >= b { continue; }
                let graph_says = cg.conflicting(a, b);
                prop_assert_eq!(graph_says, cg.conflicting(b, a), "symmetry");
                prop_assert_eq!(graph_says, schema.conflicting(fa, fb), "pair semantics");
                // Pairwise: {fa, fb} consistent iff not conflicting.
                let pair = instance.set_of([a, b]);
                prop_assert_eq!(cg.is_consistent_set(&pair), !graph_says);
            }
        }
    }

    #[test]
    fn greedy_extension_yields_repairs(
        rows in proptest::collection::vec((0i64..4, 0i64..4), 1..16),
    ) {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut instance = Instance::new(sig);
        for (a, b) in rows {
            instance.insert_named("R", [Value::Int(a), Value::Int(b)]).unwrap();
        }
        let cg = CsrConflictGraph::new(&schema, &instance);
        let r = cg.extend_greedily(&instance.empty_set(), instance.fact_ids());
        prop_assert!(cg.is_repair(&r));
    }

    /// `Schema::is_consistent` reads the sort-based grouping; the
    /// reference finds a conflicting pair by hashing projections. Two
    /// relations with random FDs (trivial ones included) over small
    /// domains, so both answers come up.
    #[test]
    fn is_consistent_matches_the_reference_first_conflict(
        r_rows in proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 0..12),
        s_rows in proptest::collection::vec((0i64..3, 0i64..3), 0..8),
        r_fds in proptest::collection::vec(fd(), 0..3),
        s_fds in proptest::collection::vec(fd(), 0..3),
    ) {
        let sig = Signature::new([("R", 3), ("S", 2)]).unwrap();
        let restrict = |d: Fd, rel: u32, arity: usize| {
            let full = AttrSet::full(arity);
            Fd::new(RelId(rel), d.lhs.intersect(full), d.rhs.intersect(full))
        };
        let fds = r_fds
            .into_iter()
            .map(|d| restrict(d, 0, 3))
            .chain(s_fds.into_iter().map(|d| restrict(d, 1, 2)));
        let schema = Schema::new(sig.clone(), fds).unwrap();
        let mut instance = Instance::new(sig);
        for (a, b, c) in r_rows {
            instance.insert_named("R", [Value::Int(a), Value::Int(b), Value::Int(c)]).unwrap();
        }
        for (a, b) in s_rows {
            instance.insert_named("S", [Value::Int(a), Value::Int(b)]).unwrap();
        }
        prop_assert_eq!(
            schema.is_consistent(&instance),
            reference::ConflictGraph::first_conflict(&schema, &instance).is_none()
        );
    }
}
