//! Property-based tests for the bitset substrate: the algebra laws the
//! repair algorithms silently rely on.

use proptest::prelude::*;
use rpr_data::{AttrSet, FactId, FactSet, Tuple, Value};

fn attrset() -> impl Strategy<Value = AttrSet> {
    any::<u64>().prop_map(|bits| AttrSet::from_bits(bits & AttrSet::full(16).bits()))
}

fn factset(universe: usize) -> impl Strategy<Value = FactSet> {
    proptest::collection::vec(any::<bool>(), universe).prop_map(move |bools| {
        let mut s = FactSet::empty(universe);
        for (i, b) in bools.into_iter().enumerate() {
            if b {
                s.insert(FactId(i as u32));
            }
        }
        s
    })
}

proptest! {
    #[test]
    fn attrset_de_morgan(a in attrset(), b in attrset()) {
        let u = AttrSet::full(16);
        let not = |s: AttrSet| u.difference(s);
        prop_assert_eq!(not(a.union(b)), not(a).intersect(not(b)));
        prop_assert_eq!(not(a.intersect(b)), not(a).union(not(b)));
    }

    #[test]
    fn attrset_difference_laws(a in attrset(), b in attrset()) {
        prop_assert!(a.difference(b).is_disjoint(b));
        prop_assert_eq!(a.difference(b).union(a.intersect(b)), a);
        prop_assert!(a.difference(b).is_subset(a));
    }

    #[test]
    fn attrset_subset_antisymmetry_transitivity(a in attrset(), b in attrset(), c in attrset()) {
        if a.is_subset(b) && b.is_subset(a) {
            prop_assert_eq!(a, b);
        }
        if a.is_subset(b) && b.is_subset(c) {
            prop_assert!(a.is_subset(c));
        }
    }

    #[test]
    fn attrset_iteration_roundtrip(a in attrset()) {
        let rebuilt: AttrSet = a.iter().collect();
        prop_assert_eq!(rebuilt, a);
        prop_assert_eq!(a.iter().count(), a.len());
        // Iteration is strictly increasing.
        let attrs: Vec<usize> = a.iter().collect();
        for w in attrs.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn attrset_subset_enumeration_is_complete(bits in 0u64..256) {
        let a = AttrSet::from_bits(bits);
        let subs: Vec<AttrSet> = a.subsets().collect();
        prop_assert_eq!(subs.len(), 1 << a.len());
        for s in &subs {
            prop_assert!(s.is_subset(a));
        }
        let uniq: std::collections::HashSet<u64> = subs.iter().map(|s| s.bits()).collect();
        prop_assert_eq!(uniq.len(), subs.len());
    }

    #[test]
    fn factset_algebra(a in factset(130), b in factset(130)) {
        prop_assert_eq!(a.union(&b).len(), a.len() + b.len() - a.intersect(&b).len());
        prop_assert_eq!(a.difference(&b).union(&a.intersect(&b)), a.clone());
        prop_assert!(a.intersect(&b).is_subset(&a));
        prop_assert!(a.is_subset(&a.union(&b)));
        // Complement laws respect the universe.
        let c = a.complement();
        prop_assert!(c.is_disjoint(&a));
        prop_assert_eq!(c.union(&a), FactSet::full(130));
        prop_assert_eq!(c.complement(), a);
    }

    #[test]
    fn factset_iteration_roundtrip(a in factset(100)) {
        let mut rebuilt = FactSet::empty(100);
        for id in a.iter() {
            rebuilt.insert(id);
        }
        prop_assert_eq!(rebuilt, a.clone());
        prop_assert_eq!(a.iter().count(), a.len());
        prop_assert_eq!(a.first(), a.iter().next());
    }

    #[test]
    fn tuple_projection_composes(vals in proptest::collection::vec(0i64..50, 1..10), bits in any::<u64>()) {
        let t = Tuple::new(vals.iter().map(|&v| Value::Int(v)));
        let mask = AttrSet::from_bits(bits & AttrSet::full(t.len()).bits());
        let projected = t.project(mask);
        prop_assert_eq!(projected.len(), mask.len());
        // Projection preserves the values at the selected positions.
        for (k, attr) in mask.iter().enumerate() {
            prop_assert_eq!(projected.get(k + 1), t.get(attr));
        }
        // Agreement on the mask is equivalent to equal projections.
        prop_assert!(t.agrees_on(&t, mask));
    }
}
