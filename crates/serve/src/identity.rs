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
//! `(relation name, values)` rows, priority edges as endpoint-content
//! pairs, plus the priority mode. Fact and edge sets are compared
//! without building either: both instances deduplicate their facts and
//! both priorities their edges, so equal counts plus resolving every
//! fact and edge of one side in the other is set equality. Each
//! distinct value of one side is looked up once in the other's value
//! dictionary; a fact then resolves by its row of value ids
//! ([`Instance::id_of_ids`]). It runs in O(content) and copies no fact
//! — far cheaper than the artifact build a genuine miss pays.
//!
//! Content equality does not make fact ids agree: two content-equal
//! workspaces may declare their facts (or relations) in different
//! orders. A request's named repairs are therefore moved into the
//! cached session's ids by fact content ([`translate`]) before they are
//! checked or certified there.

use rpr_data::{AttrSet, FactId, FactSet, Instance, RelId, Signature, ValueId, MAX_ARITY};
use rpr_fd::Schema;
use rpr_priority::PrioritizedInstance;
use std::collections::HashSet;

fn symbol_set(sig: &Signature) -> HashSet<(&str, usize)> {
    sig.iter().map(|(_, sym)| (sym.name(), sym.arity())).collect()
}

fn fd_set(schema: &Schema) -> HashSet<(&str, AttrSet, AttrSet)> {
    schema
        .fds()
        .iter()
        .map(|fd| (schema.signature().symbol(fd.rel).name(), fd.lhs, fd.rhs))
        .collect()
}

/// Each relation of `from` as the same-named relation of `to`, if any.
fn rel_map(from: &Signature, to: &Signature) -> Vec<Option<RelId>> {
    from.iter().map(|(_, sym)| to.rel_id(sym.name())).collect()
}

/// Each value of `from`'s dictionary as the id of the equal value in
/// `to`'s, if any: one lookup per distinct value, so a fact then
/// resolves by its row of ids.
fn value_map(from: &Instance, to: &Instance) -> Vec<Option<ValueId>> {
    let mut map = vec![None; from.value_bound()];
    for (id, v) in from.values() {
        map[id.index()] = to.value_id(v);
    }
    map
}

/// The fact of `to` with the content of `from`'s fact `id`, if any,
/// through the relation and value maps.
fn resolve(
    rels: &[Option<RelId>],
    values: &[Option<ValueId>],
    from: &Instance,
    id: FactId,
    to: &Instance,
) -> Option<FactId> {
    let fact = from.fact(id);
    let mut row = [ValueId(0); MAX_ARITY];
    for (slot, v) in row.iter_mut().zip(fact.ids()) {
        *slot = values[v.index()]?;
    }
    to.id_of_ids(rels[fact.rel().index()]?, &row[..fact.len()])
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
    let (ai, bi) = (a.instance(), b.instance());
    if a.mode() != b.mode()
        || ai.len() != bi.len()
        || a.priority().edge_count() != b.priority().edge_count()
        || symbol_set(a_schema.signature()) != symbol_set(b_schema.signature())
        || fd_set(a_schema) != fd_set(b_schema)
    {
        return false;
    }
    let (rels, values) = (rel_map(ai.signature(), bi.signature()), value_map(ai, bi));
    let Some(ids) =
        ai.fact_ids().map(|id| resolve(&rels, &values, ai, id, bi)).collect::<Option<Vec<_>>>()
    else {
        return false;
    };
    a.priority().edges().iter().all(|&(f, g)| b.priority().prefers(ids[f.index()], ids[g.index()]))
}

/// Re-expresses `set`, a fact set over `from`, in the fact ids of `to`
/// by fact content (relation name plus values). `None` if some fact of
/// `set` is not in `to`.
pub(crate) fn translate(set: &FactSet, from: &Instance, to: &Instance) -> Option<FactSet> {
    let rels = rel_map(from.signature(), to.signature());
    let mut out = to.empty_set();
    for id in set.iter() {
        let fact = from.fact(id);
        out.insert(to.id_of_values(rels[fact.rel().index()]?, fact.values())?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rpr_data::{Fact, FactRef, Value};
    use rpr_priority::PriorityRelation;

    /// The declaration-order-independent identity of one fact: relation
    /// name plus tuple values.
    type FactKey = (String, Vec<Value>);

    /// The set formulation [`content_equal`] replaced, kept as its
    /// oracle: every component as an owned, order-free set.
    fn content_equal_by_sets(
        a_schema: &Schema,
        a: &PrioritizedInstance,
        b_schema: &Schema,
        b: &PrioritizedInstance,
    ) -> bool {
        fn fact_key(sig: &Signature, fact: FactRef<'_>) -> FactKey {
            (sig.symbol(fact.rel()).name().to_owned(), fact.values().cloned().collect())
        }
        fn fact_set(pi: &PrioritizedInstance) -> HashSet<FactKey> {
            let sig = pi.instance().signature();
            pi.instance().iter().map(|(_, fact)| fact_key(sig, fact)).collect()
        }
        fn edge_set(pi: &PrioritizedInstance) -> HashSet<(FactKey, FactKey)> {
            let instance = pi.instance();
            let sig = instance.signature();
            let key = |id| fact_key(sig, instance.fact(id));
            pi.priority().edges().iter().map(|&(f, g)| (key(f), key(g))).collect()
        }
        a.mode() == b.mode()
            && symbol_set(a_schema.signature()) == symbol_set(b_schema.signature())
            && fd_set(a_schema) == fd_set(b_schema)
            && fact_set(a) == fact_set(b)
            && edge_set(a) == edge_set(b)
    }

    /// A small deterministic generator (xorshift) for workspace text.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i + 1));
            }
        }
    }

    /// A generated ccp workspace: relation and FD lines, `(relation,
    /// values)` facts, and edges `i > j` (i < j, so acyclic) between
    /// fact positions.
    #[derive(Clone)]
    struct Gen {
        header: Vec<String>,
        facts: Vec<(&'static str, Vec<String>)>,
        edges: Vec<(usize, usize)>,
        mode: &'static str,
    }

    impl Gen {
        fn new(rng: &mut Rng) -> Gen {
            let header = ["relation R/2", "relation S/3", "fd R: 1 -> 2", "fd S: 1 2 -> 3"]
                .map(str::to_owned)
                .to_vec();
            let mut facts: Vec<(&'static str, Vec<String>)> = Vec::new();
            for _ in 0..rng.below(12) + 1 {
                let (rel, arity) = [("R", 2), ("S", 3)][rng.below(2)];
                let row: Vec<String> = (0..arity).map(|_| format!("v{}", rng.below(3))).collect();
                if !facts.contains(&(rel, row.clone())) {
                    facts.push((rel, row));
                }
            }
            let mut edges = Vec::new();
            for _ in 0..rng.below(8) {
                let (i, j) = (rng.below(facts.len()), rng.below(facts.len()));
                if i < j && !edges.contains(&(i, j)) {
                    edges.push((i, j));
                }
            }
            Gen { header, facts, edges, mode: "ccp" }
        }

        fn fact(&self, i: usize) -> String {
            let (rel, row) = &self.facts[i];
            format!("{rel}({})", row.join(", "))
        }

        /// The workspace text, its lines in `rng`'s order when given.
        fn text(&self, rng: Option<&mut Rng>) -> String {
            let mut lines = self.header.clone();
            lines.push(format!("mode {}", self.mode));
            lines.extend((0..self.facts.len()).map(|i| format!("fact {}", self.fact(i))));
            lines.extend(
                self.edges
                    .iter()
                    .map(|&(i, j)| format!("prefer {} > {}", self.fact(i), self.fact(j))),
            );
            if let Some(rng) = rng {
                rng.shuffle(&mut lines);
            }
            lines.join("\n") + "\n"
        }

        /// One small edit, chosen by `rng`: rename a relation or a
        /// value, change, drop or add one fact, or drop, add or
        /// reverse one edge, or flip the mode.
        fn perturbed(&self, rng: &mut Rng) -> Gen {
            let mut g = self.clone();
            let f = rng.below(g.facts.len());
            match rng.below(8) {
                0 => {
                    g.header = g.header.iter().map(|l| l.replace(" R", " Q")).collect();
                    g.facts.iter_mut().filter(|(r, _)| *r == "R").for_each(|(r, _)| *r = "Q");
                }
                1 => g.facts.iter_mut().flat_map(|(_, row)| row).for_each(|v| {
                    if v == "v0" {
                        *v = "w0".into();
                    }
                }),
                2 => g.facts[f].1[0] = "fresh".into(),
                3 => {
                    g.facts.remove(f);
                    g.edges.retain(|&(i, j)| i != f && j != f);
                    for (i, j) in &mut g.edges {
                        *i -= usize::from(*i > f);
                        *j -= usize::from(*j > f);
                    }
                }
                4 => g.facts.push(("R", vec!["new".into(), "v0".into()])),
                5 if !g.edges.is_empty() => {
                    g.edges.remove(rng.below(g.edges.len()));
                }
                6 if !g.edges.is_empty() => {
                    let e = rng.below(g.edges.len());
                    g.edges[e] = (g.edges[e].1, g.edges[e].0);
                }
                6 | 7 if g.facts.len() > 1 => {
                    let j = rng.below(g.facts.len() - 1) + 1;
                    let i = rng.below(j);
                    if !g.edges.contains(&(i, j)) {
                        g.edges.push((i, j));
                    }
                }
                _ => g.mode = "conflict-restricted",
            }
            g
        }
    }

    /// `(schema, pi)` of a workspace text, `None` when it is rejected.
    fn load(text: &str) -> Option<(Schema, PrioritizedInstance)> {
        let ws = rpr_format::parse_workspace(text).ok()?;
        let pi = ws.prioritized().ok()?;
        Some((ws.schema, pi))
    }

    proptest! {
        #[test]
        fn counted_inclusion_agrees_with_the_set_oracle(seed in any::<u64>()) {
            let mut rng = Rng(seed | 1);
            let base = Gen::new(&mut rng);
            let (s1, p1) = load(&base.text(None)).expect("generated workspaces parse");
            // Reordered: every line shuffled.
            let (s2, p2) = load(&base.text(Some(&mut rng))).expect("a reordering parses");
            prop_assert!(content_equal(&s1, &p1, &s2, &p2));
            prop_assert!(content_equal_by_sets(&s1, &p1, &s2, &p2));
            // Perturbed: renamed, one fact or one edge off, or another
            // mode. An edit may cancel out (a fact changed to a
            // duplicate), so compare against the oracle, both ways.
            for _ in 0..4 {
                let edited = base.perturbed(&mut rng);
                let Some((s3, p3)) = load(&edited.text(Some(&mut rng))) else { continue };
                let want = content_equal_by_sets(&s1, &p1, &s3, &p3);
                prop_assert_eq!(content_equal(&s1, &p1, &s3, &p3), want);
                prop_assert_eq!(content_equal(&s3, &p3, &s1, &p1), want);
            }
        }
    }

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
