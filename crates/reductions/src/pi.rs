//! The Π fact-mapping framework (§5.1).
//!
//! Every hardness reduction in §5 follows one pattern: a function `Π`
//! maps facts of the source schema to facts of the target schema in
//! constant time, and the whole input `(I, ≻, J)` is mapped pointwise.
//! Correctness rests on two *key properties*:
//!
//! 1. **Injectivity** on the facts of the source instance;
//! 2. **Preservation of consistency**: `K ⊨ Δ_src` iff `Π(K) ⊨ Δ_dst`.
//!
//! For FD schemas, inconsistency is witnessed by a pair of facts, and
//! injectivity maps pairs to pairs — so property 2 reduces to the
//! *pairwise* check this module performs. With both properties
//! established, `J` is a globally-optimal repair of `(I, ≻)` iff
//! `Π(J)` is one of `(Π(I), Π(≻))` (§5.1), which
//! [`map_input`] packages.

use rpr_data::{Fact, FactId, FactSet, Instance};
use rpr_fd::Schema;
use rpr_priority::{PrioritizedInstance, PriorityMode, PriorityRelation};

/// A fact mapping `Π` from a source schema to a target schema.
pub trait FactMapping {
    /// The source schema.
    fn source_schema(&self) -> &Schema;
    /// The target schema.
    fn target_schema(&self) -> &Schema;
    /// Maps one fact (must be a fact of the source signature).
    fn map_fact(&self, fact: &Fact) -> Fact;
}

/// Maps an instance pointwise, returning the target instance together
/// with the id translation (source id → target id).
pub fn map_instance<M: FactMapping>(pi: &M, instance: &Instance) -> (Instance, Vec<FactId>) {
    let mut out = Instance::new(pi.target_schema().signature().clone());
    let mut translation = Vec::with_capacity(instance.len());
    for (_, fact) in instance.iter() {
        translation.push(out.insert(pi.map_fact(&fact.to_fact())));
    }
    (out, translation)
}

/// Maps a whole repair-checking input `(I, ≻, J)` through `Π`.
///
/// The returned prioritizing instance is validated in the same mode as
/// the input (`Π` preserves conflicts, so conflict-restriction carries
/// over).
pub fn map_input<M: FactMapping>(
    pi: &M,
    input: &PrioritizedInstance,
    j: &FactSet,
) -> (PrioritizedInstance, FactSet) {
    let (target, translation) = map_instance(pi, input.instance());
    assert_eq!(target.len(), input.instance().len(), "Π must be injective on the facts of I");
    let edges: Vec<(FactId, FactId)> = input
        .priority()
        .edges()
        .iter()
        .map(|&(a, b)| (translation[a.index()], translation[b.index()]))
        .collect();
    let priority = PriorityRelation::new(target.len(), edges).expect("Π preserves acyclicity");
    let mut j_out = target.empty_set();
    for f in j.iter() {
        j_out.insert(translation[f.index()]);
    }
    let prioritized = match input.mode() {
        PriorityMode::ConflictRestricted => {
            PrioritizedInstance::conflict_restricted(pi.target_schema(), target, priority)
                .expect("Π preserves conflicts")
        }
        PriorityMode::CrossConflict => PrioritizedInstance::cross_conflict(target, priority),
    };
    (prioritized, j_out)
}

/// Property 1: is `Π` injective on the given facts?
pub fn check_injective<M: FactMapping>(pi: &M, facts: &[Fact]) -> bool {
    let mut seen: Vec<Fact> = Vec::with_capacity(facts.len());
    for f in facts {
        let mapped = pi.map_fact(f);
        if let Some(pos) = seen.iter().position(|m| *m == mapped) {
            if facts[pos] != *f {
                return false;
            }
        }
        seen.push(mapped);
    }
    true
}

/// Property 2 (pairwise form): does `Π` preserve consistency and
/// inconsistency of every pair from `facts`?
pub fn check_preserves_consistency<M: FactMapping>(pi: &M, facts: &[Fact]) -> bool {
    let src = pi.source_schema();
    let dst = pi.target_schema();
    for (i, f) in facts.iter().enumerate() {
        for g in facts.iter().skip(i + 1) {
            let src_conflict = src.conflicting(f, g);
            let dst_conflict = dst.conflicting(&pi.map_fact(f), &pi.map_fact(g));
            if src_conflict != dst_conflict {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Signature, Value};

    /// A toy mapping used to exercise the framework itself: source
    /// R(a,b) with key 1, target T(a,b,pad) with key 1 — pads a
    /// constant column, which preserves conflicts and injectivity.
    struct PadMapping {
        src: Schema,
        dst: Schema,
    }

    impl PadMapping {
        fn new() -> Self {
            let src_sig = Signature::new([("R", 2)]).unwrap();
            let src = Schema::from_named(src_sig, [("R", &[1][..], &[2][..])]).unwrap();
            let dst_sig = Signature::new([("T", 3)]).unwrap();
            let dst = Schema::from_named(dst_sig, [("T", &[1][..], &[2][..])]).unwrap();
            PadMapping { src, dst }
        }
    }

    impl FactMapping for PadMapping {
        fn source_schema(&self) -> &Schema {
            &self.src
        }
        fn target_schema(&self) -> &Schema {
            &self.dst
        }
        fn map_fact(&self, fact: &Fact) -> Fact {
            Fact::parse_new(
                self.dst.signature(),
                "T",
                [fact.get(1).clone(), fact.get(2).clone(), Value::sym("pad")],
            )
            .unwrap()
        }
    }

    /// A broken mapping that collapses the second attribute.
    struct CollapseMapping {
        inner: PadMapping,
    }

    impl FactMapping for CollapseMapping {
        fn source_schema(&self) -> &Schema {
            self.inner.source_schema()
        }
        fn target_schema(&self) -> &Schema {
            self.inner.target_schema()
        }
        fn map_fact(&self, fact: &Fact) -> Fact {
            Fact::parse_new(
                self.inner.dst.signature(),
                "T",
                [fact.get(1).clone(), Value::sym("x"), Value::sym("pad")],
            )
            .unwrap()
        }
    }

    fn facts(pi: &impl FactMapping, pairs: &[(&str, &str)]) -> Vec<Fact> {
        pairs
            .iter()
            .map(|&(a, b)| {
                Fact::parse_new(pi.source_schema().signature(), "R", [Value::sym(a), Value::sym(b)])
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn framework_validates_a_good_mapping() {
        let pi = PadMapping::new();
        let fs = facts(&pi, &[("a", "1"), ("a", "2"), ("b", "1")]);
        assert!(check_injective(&pi, &fs));
        assert!(check_preserves_consistency(&pi, &fs));
    }

    #[test]
    fn framework_rejects_a_broken_mapping() {
        let pi = CollapseMapping { inner: PadMapping::new() };
        let fs = facts(&pi, &[("a", "1"), ("a", "2"), ("b", "1")]);
        // Collapsing the second attribute loses injectivity on the two
        // a-facts and turns their conflict into equality.
        assert!(!check_injective(&pi, &fs));
        assert!(!check_preserves_consistency(&pi, &fs));
    }

    #[test]
    fn map_input_translates_everything() {
        let pi = PadMapping::new();
        let mut instance = Instance::new(pi.src.signature().clone());
        let fs = facts(&pi, &[("a", "1"), ("a", "2"), ("b", "1")]);
        for f in &fs {
            instance.insert(f.clone());
        }
        let priority = PriorityRelation::new(3, [(FactId(0), FactId(1))]).unwrap();
        let input =
            PrioritizedInstance::conflict_restricted(&pi.src, instance.clone(), priority).unwrap();
        let j = instance.set_of([FactId(0), FactId(2)]);
        let (mapped, j2) = map_input(&pi, &input, &j);
        assert_eq!(mapped.instance().len(), 3);
        assert_eq!(mapped.priority().edge_count(), 1);
        assert_eq!(j2.len(), 2);
        assert_eq!(mapped.mode(), PriorityMode::ConflictRestricted);
    }
}
