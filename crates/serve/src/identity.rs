//! Content identity for session-cache hits.
//!
//! The session cache is keyed by a 128-bit fingerprint that is
//! deliberately *non-cryptographic* (see `rpr_data::fingerprint`).
//! Within one trusted process that is plenty — but the serving cache
//! sits behind an HTTP boundary, where a client able to craft a
//! colliding workspace would otherwise be handed *another* workspace's
//! prepared session and receive its verdicts. A collision must degrade
//! to a cache miss, never to a wrong answer, so every hit is verified
//! by comparing the request's parsed content against the cached
//! session's content before the session is reused.
//!
//! The comparison mirrors the fingerprint's canonicalization exactly:
//! relation symbols as a `(name, arity)` set, FDs as a set of
//! `(relation name, lhs, rhs)` triples, facts as a set of
//! `(relation name, values)` rows (instances deduplicate facts, so a
//! set suffices), priority edges as endpoint-content pairs, plus the
//! priority mode. It runs in O(content) with small constants — far
//! cheaper than the artifact build a genuine miss pays.
//!
//! Content equality does not make fact ids agree: two content-equal
//! workspaces may declare their facts (or relations) in different
//! orders. A request's named repairs are therefore moved into the
//! cached session's ids by fact content ([`translate`]) before they are
//! checked or certified there.

use rpr_data::{AttrSet, Fact, FactSet, Instance, Signature, Value};
use rpr_fd::Schema;
use rpr_priority::PrioritizedInstance;
use std::collections::HashSet;

/// The declaration-order-independent identity of one fact: relation
/// name plus tuple values (fact ids are *not* stable across parses).
type FactKey = (String, Vec<Value>);

fn fact_key(sig: &Signature, fact: &Fact) -> FactKey {
    (sig.symbol(fact.rel()).name().to_owned(), fact.tuple().values().to_vec())
}

fn symbol_set(sig: &Signature) -> HashSet<(String, usize)> {
    sig.iter().map(|(_, sym)| (sym.name().to_owned(), sym.arity())).collect()
}

fn fd_set(schema: &Schema) -> HashSet<(String, AttrSet, AttrSet)> {
    schema
        .fds()
        .iter()
        .map(|fd| (schema.signature().symbol(fd.rel).name().to_owned(), fd.lhs, fd.rhs))
        .collect()
}

fn fact_set(pi: &PrioritizedInstance) -> HashSet<FactKey> {
    let sig = pi.instance().signature();
    pi.instance().iter().map(|(_, fact)| fact_key(sig, fact)).collect()
}

fn edge_set(pi: &PrioritizedInstance) -> HashSet<(FactKey, FactKey)> {
    let instance = pi.instance();
    let sig = instance.signature();
    pi.priority()
        .edges()
        .iter()
        .map(|&(f, g)| (fact_key(sig, instance.fact(f)), fact_key(sig, instance.fact(g))))
        .collect()
}

/// Do the two `(schema, prioritized instance)` pairs describe the same
/// content class — the equivalence the workspace fingerprint is meant
/// to key?
pub fn content_equal(
    a_schema: &Schema,
    a: &PrioritizedInstance,
    b_schema: &Schema,
    b: &PrioritizedInstance,
) -> bool {
    a.mode() == b.mode()
        && symbol_set(a_schema.signature()) == symbol_set(b_schema.signature())
        && fd_set(a_schema) == fd_set(b_schema)
        && fact_set(a) == fact_set(b)
        && edge_set(a) == edge_set(b)
}

/// Re-expresses `set`, a fact set over `from`, in the fact ids of `to`
/// by fact content (relation name plus values). `None` if some fact of
/// `set` is not in `to`.
pub(crate) fn translate(set: &FactSet, from: &Instance, to: &Instance) -> Option<FactSet> {
    let (from_sig, to_sig) = (from.signature(), to.signature());
    let mut out = to.empty_set();
    for id in set.iter() {
        let fact = from.fact(id);
        let rel = to_sig.rel_id(from_sig.symbol(fact.rel()).name())?;
        let moved = Fact::new(to_sig, rel, fact.tuple().clone()).ok()?;
        out.insert(to.id_of(&moved)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::Instance;
    use rpr_priority::PriorityRelation;

    fn schema(fds: &[(&'static str, &'static [usize], &'static [usize])]) -> Schema {
        let sig = rpr_data::Signature::new([("R", 2), ("S", 2)]).unwrap();
        Schema::from_named(sig, fds.iter().copied()).unwrap()
    }

    /// `(schema, pi)` over R:1→2 with two conflicting R-facts (and
    /// optionally an edge between them), built in the given insertion
    /// order.
    fn workspace(rows: &[(&str, &str, &str)], edge: bool) -> (Schema, PrioritizedInstance) {
        let schema = schema(&[("R", &[1], &[2])]);
        let mut instance = Instance::new(schema.signature().clone());
        let mut ids = Vec::new();
        for &(rel, a, b) in rows {
            ids.push(instance.insert_named(rel, [Value::sym(a), Value::sym(b)]).unwrap());
        }
        let key = |a: &str| {
            let fact = Fact::parse_new(instance.signature(), "R", [Value::sym("k"), Value::sym(a)])
                .unwrap();
            instance.id_of(&fact).unwrap()
        };
        let priority = if edge {
            PriorityRelation::new(instance.len(), [(key("x"), key("y"))]).unwrap()
        } else {
            PriorityRelation::empty(instance.len())
        };
        let pi = PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
        (schema, pi)
    }

    #[test]
    fn equal_content_in_different_declaration_order() {
        let (s1, p1) = workspace(&[("R", "k", "x"), ("R", "k", "y"), ("S", "a", "b")], true);
        let (s2, p2) = workspace(&[("S", "a", "b"), ("R", "k", "y"), ("R", "k", "x")], true);
        assert!(content_equal(&s1, &p1, &s2, &p2));
    }

    #[test]
    fn different_facts_fds_edges_or_mode_separate() {
        let (s1, p1) = workspace(&[("R", "k", "x"), ("R", "k", "y")], true);

        // Different fact content.
        let (s2, p2) = workspace(&[("R", "k", "x"), ("R", "k", "z")], false);
        assert!(!content_equal(&s1, &p1, &s2, &p2));

        // Same facts, no priority edge.
        let (s3, p3) = workspace(&[("R", "k", "x"), ("R", "k", "y")], false);
        assert!(!content_equal(&s1, &p1, &s3, &p3));

        // Same facts and edge, different FDs.
        let s4 = schema(&[("R", &[1], &[2]), ("S", &[1], &[2])]);
        assert!(!content_equal(&s1, &p1, &s4, &p1));

        // Same everything, different priority mode.
        let mut instance = Instance::new(s1.signature().clone());
        let a = instance.insert_named("R", [Value::sym("k"), Value::sym("x")]).unwrap();
        let b = instance.insert_named("R", [Value::sym("k"), Value::sym("y")]).unwrap();
        let priority = PriorityRelation::new(instance.len(), [(a, b)]).unwrap();
        let ccp = PrioritizedInstance::cross_conflict(instance, priority);
        assert!(!content_equal(&s1, &p1, &s1, &ccp));
    }

    #[test]
    fn translate_moves_sets_by_fact_content() {
        let (_, p1) = workspace(&[("R", "k", "x"), ("R", "k", "y"), ("S", "a", "b")], true);
        let (_, p2) = workspace(&[("R", "k", "y"), ("R", "k", "x"), ("S", "a", "b")], true);
        let (i1, i2) = (p1.instance(), p2.instance());
        let y = |inst: &Instance| {
            let fact =
                Fact::parse_new(inst.signature(), "R", [Value::sym("k"), Value::sym("y")]).unwrap();
            inst.id_of(&fact).unwrap()
        };
        let moved = translate(&i1.set_of([y(i1)]), i1, i2).unwrap();
        assert_eq!(moved, i2.set_of([y(i2)]));
        assert_ne!(y(i1), y(i2), "the fixture must actually permute ids");

        let (_, p3) = workspace(&[("R", "k", "x")], false);
        assert!(translate(&i1.full_set(), i1, p3.instance()).is_none());
    }

    #[test]
    fn reversed_edge_direction_separates() {
        let (s1, p1) = workspace(&[("R", "k", "x"), ("R", "k", "y")], true);
        let schema = schema(&[("R", &[1], &[2])]);
        let mut instance = Instance::new(schema.signature().clone());
        let a = instance.insert_named("R", [Value::sym("k"), Value::sym("x")]).unwrap();
        let b = instance.insert_named("R", [Value::sym("k"), Value::sym("y")]).unwrap();
        let priority = PriorityRelation::new(instance.len(), [(b, a)]).unwrap();
        let p2 = PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
        assert!(!content_equal(&s1, &p1, &schema, &p2));
    }
}
