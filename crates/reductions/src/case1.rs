//! The Case-1 fact mapping (§5.3): reducing `S1` to any schema whose
//! FDs are equivalent to `k ≥ 3` pairwise-incomparable keys.
//!
//! Fix three of the target's minimized keys and rename them by the
//! `S1`-key they will simulate: `K12` (for `{1,2}→3`), `K23`
//! (for `{2,3}→1`), `K13` (for `{1,3}→2`). For a source fact
//! `R1(c1, c2, c3)`, the target fact `R(d1, …, d_arity)` assigns, per
//! attribute `i`:
//!
//! | membership of `i` | `d_i` |
//! |---|---|
//! | exactly `K{a,b}` | `⟨c_a, c_b⟩` |
//! | exactly `K{a,b} ∩ K{b,c}` (the two keys sharing `b`) | `c_b` |
//! | all three keys | the fixed constant `⊥` |
//! | none of the three | `⟨c1, c2, c3⟩` |
//!
//! The assignments are forced by the proofs of Lemmas 5.3/5.4: every
//! attribute of `K12` must avoid mentioning `c3` (so that agreement on
//! `c1, c2` implies agreement on `K12`), symmetrically for `K13`/`c2`
//! and `K23`/`c1` — which pins the triple intersection to a constant —
//! while attributes outside all three keys must determine the whole
//! source fact so that additional keys `K4, …, Kk` force equality
//! (incomparability guarantees such keys contain an outside attribute
//! or attributes from at least two "sides"). Injectivity (Lemma 5.3)
//! follows because `K12 \ K23` is non-empty and carries `c1`, etc.
//! Both key properties are machine-checked by the property tests and
//! by [`crate::pi::check_injective`] / \
//! [`crate::pi::check_preserves_consistency`] at construction time in
//! debug builds.

use crate::pi::FactMapping;
use rpr_data::{AttrSet, Fact, Signature, Value};
use rpr_fd::{Fd, Schema};

/// The Π mapping of §5.3.
#[derive(Debug)]
pub struct CaseOneMapping {
    source: Schema,
    target: Schema,
    /// The simulated keys `(K12, K23, K13)`.
    keys: (AttrSet, AttrSet, AttrSet),
    arity: usize,
}

/// Errors building a [`CaseOneMapping`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOneError {
    /// Fewer than three keys were supplied.
    NeedThreeKeys,
    /// The supplied keys are not pairwise incomparable.
    ComparableKeys(AttrSet, AttrSet),
}

impl std::fmt::Display for CaseOneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaseOneError::NeedThreeKeys => write!(f, "Case 1 needs at least three keys"),
            CaseOneError::ComparableKeys(a, b) => {
                write!(f, "keys {a} and {b} are comparable; minimize the key set first")
            }
        }
    }
}

impl std::error::Error for CaseOneError {}

impl CaseOneMapping {
    /// Builds the mapping into a single-relation target schema whose
    /// `Δ` is (equivalent to) the key set `keys` over `arity`
    /// attributes. The first three keys simulate `K12`, `K23`, `K13`.
    ///
    /// # Errors
    /// [`CaseOneError`] if fewer than three keys are supplied or the
    /// keys are comparable.
    pub fn new(target_name: &str, arity: usize, keys: &[AttrSet]) -> Result<Self, CaseOneError> {
        if keys.len() < 3 {
            return Err(CaseOneError::NeedThreeKeys);
        }
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                if a.is_subset(*b) || b.is_subset(*a) {
                    return Err(CaseOneError::ComparableKeys(*a, *b));
                }
            }
        }
        let src_sig = Signature::new([("R1", 3)]).unwrap();
        let source = Schema::from_named(
            src_sig,
            [
                ("R1", &[1, 2][..], &[3][..]),
                ("R1", &[1, 3][..], &[2][..]),
                ("R1", &[2, 3][..], &[1][..]),
            ],
        )
        .unwrap();
        let dst_sig = Signature::new([(target_name, arity)]).unwrap();
        let rel = dst_sig.rel_id(target_name).unwrap();
        let target =
            Schema::new(dst_sig, keys.iter().map(|&k| Fd::key(rel, k, arity)).collect::<Vec<_>>())
                .expect("keys fit the arity");
        Ok(CaseOneMapping { source, target, keys: (keys[0], keys[1], keys[2]), arity })
    }
}

impl FactMapping for CaseOneMapping {
    fn source_schema(&self) -> &Schema {
        &self.source
    }

    fn target_schema(&self) -> &Schema {
        &self.target
    }

    fn map_fact(&self, fact: &Fact) -> Fact {
        let (k12, k23, k13) = self.keys;
        let c1 = fact.get(1);
        let c2 = fact.get(2);
        let c3 = fact.get(3);
        let values: Vec<Value> = (1..=self.arity)
            .map(|i| {
                match (k12.contains(i), k23.contains(i), k13.contains(i)) {
                    (true, false, false) => Value::pair(c1.clone(), c2.clone()),
                    (false, true, false) => Value::pair(c2.clone(), c3.clone()),
                    (false, false, true) => Value::pair(c1.clone(), c3.clone()),
                    // Two keys sharing source index b carry c_b:
                    (true, true, false) => c2.clone(), // K12 ∩ K23 share 2
                    (false, true, true) => c3.clone(), // K23 ∩ K13 share 3
                    (true, false, true) => c1.clone(), // K12 ∩ K13 share 1
                    (true, true, true) => Value::sym("⊥"),
                    (false, false, false) => Value::triple(c1.clone(), c2.clone(), c3.clone()),
                }
            })
            .collect();
        Fact::new(self.target.signature(), rpr_data::RelId(0), rpr_data::Tuple::new(values))
            .expect("mapped fact fits the target arity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pi::{check_injective, check_preserves_consistency, map_input};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rpr_core::{enumerate_repairs_bounded, is_globally_optimal_brute_bounded, Budget};
    use rpr_data::{FactId, Instance};
    use rpr_fd::CsrConflictGraph;
    use rpr_priority::{PrioritizedInstance, PriorityRelation};

    fn source_fact(pi: &CaseOneMapping, c: (i64, i64, i64)) -> Fact {
        Fact::parse_new(
            pi.source_schema().signature(),
            "R1",
            [Value::Int(c.0), Value::Int(c.1), Value::Int(c.2)],
        )
        .unwrap()
    }

    fn all_small_facts(pi: &CaseOneMapping, domain: i64) -> Vec<Fact> {
        let mut out = Vec::new();
        for a in 0..domain {
            for b in 0..domain {
                for c in 0..domain {
                    out.push(source_fact(pi, (a, b, c)));
                }
            }
        }
        out
    }

    #[test]
    fn rejects_bad_key_sets() {
        assert_eq!(
            CaseOneMapping::new("R", 3, &[AttrSet::singleton(1), AttrSet::singleton(2)])
                .unwrap_err(),
            CaseOneError::NeedThreeKeys
        );
        let ks = [AttrSet::singleton(1), AttrSet::from_attrs([1, 2]), AttrSet::singleton(3)];
        assert!(matches!(CaseOneMapping::new("R", 3, &ks), Err(CaseOneError::ComparableKeys(..))));
    }

    #[test]
    fn s1_maps_onto_itself() {
        // The identity configuration: target = S1's own three keys.
        let keys =
            [AttrSet::from_attrs([1, 2]), AttrSet::from_attrs([2, 3]), AttrSet::from_attrs([1, 3])];
        let pi = CaseOneMapping::new("R", 3, &keys).unwrap();
        let facts = all_small_facts(&pi, 2);
        assert!(check_injective(&pi, &facts));
        assert!(check_preserves_consistency(&pi, &facts));
    }

    #[test]
    fn key_properties_hold_for_random_key_configurations() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut tried = 0;
        while tried < 30 {
            let arity = rng.random_range(3..=6usize);
            let k = rng.random_range(3..=4usize);
            let keys: Vec<AttrSet> = (0..k)
                .map(|_| {
                    let size = rng.random_range(1..=arity.min(3));
                    let mut s = AttrSet::EMPTY;
                    while s.len() < size {
                        s = s.insert(rng.random_range(1..=arity));
                    }
                    s
                })
                .collect();
            let Ok(pi) = CaseOneMapping::new("R", arity, &keys) else {
                continue;
            };
            tried += 1;
            let facts = all_small_facts(&pi, 2);
            assert!(check_injective(&pi, &facts), "injectivity for keys {keys:?}");
            assert!(
                check_preserves_consistency(&pi, &facts),
                "consistency preservation for keys {keys:?}"
            );
        }
    }

    #[test]
    fn end_to_end_reduction_preserves_optimality() {
        // A small S1 input, mapped into a 5-ary schema with keys
        // {1,2}, {2,3}, {3,4}: the answer must be identical on both
        // sides (checked against the brute-force oracle).
        let keys =
            [AttrSet::from_attrs([1, 2]), AttrSet::from_attrs([2, 3]), AttrSet::from_attrs([3, 4])];
        let pi = CaseOneMapping::new("R", 5, &keys).unwrap();

        let mut instance = Instance::new(pi.source_schema().signature().clone());
        // A conflict triangle plus satellites over S1.
        for c in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 2)] {
            instance.insert(source_fact(&pi, c));
        }
        let priority =
            PriorityRelation::new(instance.len(), [(FactId(1), FactId(0)), (FactId(2), FactId(3))])
                .unwrap();
        let input = PrioritizedInstance::conflict_restricted(
            pi.source_schema(),
            instance.clone(),
            priority.clone(),
        )
        .unwrap();

        let src_cg = CsrConflictGraph::new(pi.source_schema(), &instance);
        for j in enumerate_repairs_bounded(&src_cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration")
        {
            let (mapped, j2) = map_input(&pi, &input, &j);
            let dst_cg = CsrConflictGraph::new(pi.target_schema(), mapped.instance());
            let src_ans = is_globally_optimal_brute_bounded(
                &src_cg,
                &priority,
                &j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            let dst_ans = is_globally_optimal_brute_bounded(
                &dst_cg,
                mapped.priority(),
                &j2,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            assert_eq!(src_ans, dst_ans, "reduction changed the answer on {j:?}");
        }
    }
}
