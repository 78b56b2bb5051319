//! The per-instance value dictionary: each distinct value is stored
//! once and facts are rows of value ids. The dictionary must hold
//! exactly the values of the stored facts, each with a use count equal
//! to its occurrences, and an instance edited by inserts, tombstones,
//! compactions or delta batches must equal a fresh build of its
//! surviving facts in everything the rest of the system reads: fact
//! ids and order, lookups, groupings and fingerprints.

use preferred_repairs::core::{content_fingerprint, DeltaOp, DeltaSession};
use preferred_repairs::data::{
    fingerprint_instance, AttrSet, Fact, FactId, Instance, RelId, Signature, Value, ValueId,
};
use preferred_repairs::fd::{FdGrouping, Schema};
use preferred_repairs::format::parse_workspace;
use preferred_repairs::priority::{PrioritizedInstance, PriorityRelation};
use preferred_repairs::reductions::{map_instance, CaseOneMapping};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Asserts the dictionary holds exactly the values of `instance`'s
/// stored facts, each used as often as it occurs.
fn assert_dictionary_exact(instance: &Instance) {
    let mut occurrences: BTreeMap<ValueId, u32> = BTreeMap::new();
    for (_, f) in instance.iter() {
        for &id in f.ids() {
            *occurrences.entry(id).or_default() += 1;
        }
    }
    let live: Vec<(ValueId, &Value)> = instance.values().collect();
    assert_eq!(live.len(), occurrences.len(), "values without a use are freed");
    for (id, v) in live {
        assert_eq!(instance.value_uses(id), occurrences[&id], "uses of {v:?}");
        assert_eq!(instance.value_id(v), Some(id), "{v:?} looks up its own id");
    }
    for id in 0..instance.value_bound() as u32 {
        let id = ValueId(id);
        assert_eq!(instance.value_uses(id), occurrences.get(&id).copied().unwrap_or(0));
    }
}

/// Asserts `instance` equals a fresh build of its facts, in id order:
/// same content per id, same lookups over `pool`, same groupings under
/// every FD of `schema`, same fingerprint.
fn assert_equals_fresh_build(schema: &Schema, instance: &Instance, pool: &[Fact]) {
    let mut fresh = Instance::new(instance.signature().clone());
    for (id, f) in instance.iter() {
        assert_eq!(fresh.insert(f.to_fact()), id);
    }
    assert_eq!(fresh.len(), instance.len());
    for (id, f) in fresh.iter() {
        assert_eq!(instance.fact(id), f);
    }
    for fact in pool {
        assert_eq!(instance.id_of(fact), fresh.id_of(fact), "{fact:?}");
    }
    for rel in schema.signature().rel_ids() {
        assert_eq!(instance.facts_of(rel), fresh.facts_of(rel));
        for &fd in schema.fds_for(rel) {
            let group = |i: &Instance| FdGrouping::new(i, fd, i.facts_of(rel).iter().copied());
            assert_eq!(group(instance), group(&fresh), "grouping under {fd:?}");
        }
    }
    assert_eq!(fingerprint_instance(instance), fingerprint_instance(&fresh));
    assert_dictionary_exact(&fresh);
    // A value no surviving fact holds is gone from the dictionary.
    for v in palette() {
        assert_eq!(instance.value_id(&v).is_some(), fresh.value_id(&v).is_some(), "{v:?}");
    }
}

#[test]
fn tokens_intern_by_the_one_token_rule() {
    let ws = parse_workspace(
        "relation R/2\n\
         fact R(7, a)\nfact R(007, b)\nfact R(+7, c)\n\
         fact R(-0, d)\nfact R(0, e)\nfact R(x7, f)\n\
         prefer R(+7, c) > R(007, b)\n",
    )
    .unwrap();
    let i = &ws.instance;
    assert_eq!(i.len(), 6);
    let seven = i.value_id(&Value::Int(7)).expect("7 is interned");
    let zero = i.value_id(&Value::Int(0)).expect("0 is interned");
    let x7 = i.value_id(&Value::sym("x7")).expect("x7 is a symbol");
    for (f, want) in [(0, seven), (1, seven), (2, seven), (3, zero), (4, zero), (5, x7)] {
        assert_eq!(i.fact(FactId(f)).id(1), want, "fact {f}");
    }
    assert_eq!((i.value_uses(seven), i.value_uses(zero), i.value_uses(x7)), (3, 2, 1));
    assert_eq!(i.value_id(&Value::sym("7")), None);
    assert_eq!(i.value_id(&Value::sym("007")), None);
    // 3 ints and symbols plus the six second-column symbols.
    assert_eq!(i.values().count(), 9);
    assert_eq!(ws.priority.edges(), &[(FactId(2), FactId(1))]);
    assert_dictionary_exact(i);
}

#[test]
fn reduction_pairs_intern_by_content() {
    let keys = [[1, 2], [3, 4], [5, 6]].map(AttrSet::from_attrs);
    let pi = CaseOneMapping::new("R", 6, &keys).unwrap();
    let sig = Signature::new([("R1", 3)]).unwrap();
    let mut source = Instance::new(sig);
    for (a, b, c) in [(1, 2, 3), (1, 2, 4), (1, 5, 3), (6, 2, 3), (1, 5, 4)] {
        source.insert_named("R1", [a, b, c].map(Value::Int)).unwrap();
    }
    let (target, _) = map_instance(&pi, &source);
    assert_eq!(target.len(), source.len());
    // Every attribute holds a pair; equal pairs, built apart, share an id.
    let mut by_content: BTreeMap<Value, ValueId> = BTreeMap::new();
    for (_, f) in target.iter() {
        for a in 1..=6 {
            assert!(f.get(a).as_pair().is_some(), "{f:?}");
            assert_eq!(*by_content.entry(f.get(a).clone()).or_insert(f.id(a)), f.id(a));
        }
    }
    assert!(by_content.len() < 6 * target.len(), "some pair repeats");
    assert_eq!(target.values().count(), by_content.len());
    let distinct: BTreeSet<ValueId> = by_content.values().copied().collect();
    assert_eq!(distinct.len(), by_content.len(), "distinct pairs get distinct ids");
    assert_dictionary_exact(&target);
}

/// `R(a, b, c)` under `1 → 2` and `S(x, y)` under two keys.
fn schema() -> Schema {
    let sig = Signature::new([("R", 3), ("S", 2)]).unwrap();
    Schema::from_named(
        sig,
        [("R", &[1][..], &[2][..]), ("S", &[1][..], &[2][..]), ("S", &[2][..], &[1][..])],
    )
    .unwrap()
}

/// A small palette of ints, symbols (one long) and pairs, so values
/// repeat across facts and attributes.
fn palette() -> Vec<Value> {
    vec![
        Value::Int(0),
        Value::Int(1),
        Value::Int(-7),
        Value::sym("a"),
        Value::sym("k1"),
        Value::sym("x".repeat(300)),
        Value::pair(Value::Int(1), Value::sym("a")),
        Value::pair(Value::sym("a"), Value::Int(1)),
    ]
}

/// Every fact an op may name: the pool is indexed by the op's seed.
fn pool(schema: &Schema) -> Vec<Fact> {
    let sig = schema.signature();
    let values = palette();
    let mut pool = Vec::new();
    for (i, a) in values.iter().enumerate() {
        for (j, b) in values.iter().enumerate().filter(|(j, _)| (i + j) % 3 != 1) {
            let c = &values[(i * 5 + j) % values.len()];
            pool.push(Fact::parse_new(sig, "R", [a.clone(), b.clone(), c.clone()]).unwrap());
            pool.push(Fact::parse_new(sig, "S", [a.clone(), b.clone()]).unwrap());
        }
    }
    pool
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(usize),
    Tombstone(usize),
    /// Compact the tombstones plus up to `.1` more facts.
    Compact(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..7, 0usize..1 << 16, 0usize..4).prop_map(|(kind, n, k)| match kind {
        0..=3 => Op::Insert(n),
        4 | 5 => Op::Tombstone(n),
        _ => Op::Compact(n, k),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Inserts, tombstones and compactions: after each step the
    /// dictionary is exact, and after each compaction the instance
    /// equals a fresh build of its survivors.
    #[test]
    fn edited_instances_equal_fresh_builds(ops in proptest::collection::vec(op(), 1..80)) {
        let schema = schema();
        let pool = pool(&schema);
        let mut instance = Instance::new(schema.signature().clone());
        let mut dead: Vec<FactId> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(n) => {
                    instance.insert(pool[n % pool.len()].clone());
                }
                Op::Tombstone(n) => {
                    let live: Vec<FactId> =
                        instance.fact_ids().filter(|id| !dead.contains(id)).collect();
                    if let Some(&id) = live.get(n % live.len().max(1)) {
                        instance.tombstone(id);
                        dead.push(id);
                    }
                }
                Op::Compact(n, extra) => {
                    let live: Vec<FactId> =
                        instance.fact_ids().filter(|id| !dead.contains(id)).collect();
                    let mut ids = std::mem::take(&mut dead);
                    for k in 0..extra.min(live.len()) {
                        let id = live[n.wrapping_add(5 * k) % live.len()];
                        if !ids.contains(&id) {
                            ids.push(id);
                        }
                    }
                    instance.remove_facts(&ids);
                    assert_equals_fresh_build(&schema, &instance, &pool);
                }
            }
            assert_dictionary_exact(&instance);
        }
        // What is left once every tombstone is compacted away.
        instance.remove_facts(&dead);
        assert_equals_fresh_build(&schema, &instance, &pool);
    }

    /// Delta batches of inserts and deletes through a session: the
    /// patched instance equals a fresh build, and the session's
    /// fingerprint equals a cold one's.
    #[test]
    fn delta_batches_keep_the_dictionary_exact(
        seed in proptest::collection::vec(0usize..1 << 16, 0..12),
        batches in proptest::collection::vec(proptest::collection::vec(0usize..1 << 16, 1..6), 1..8),
    ) {
        let schema = Arc::new(schema());
        let pool = pool(&schema);
        let mut start = Instance::new(schema.signature().clone());
        for n in seed {
            start.insert(pool[n % pool.len()].clone());
        }
        let priority = PriorityRelation::empty(start.len());
        let pi = PrioritizedInstance::conflict_restricted(&schema, start, priority).unwrap();
        let mut ds = DeltaSession::prepare(Arc::clone(&schema), pi);
        for batch in batches {
            // Each pick toggles one pool fact, at most once per batch.
            let mut picked: Vec<&Fact> = Vec::new();
            for n in batch {
                let fact = &pool[n % pool.len()];
                if !picked.contains(&fact) {
                    picked.push(fact);
                }
            }
            let instance = ds.prioritized().instance();
            let ops: Vec<DeltaOp> = picked
                .into_iter()
                .map(|f| match instance.contains(f) {
                    true => DeltaOp::DeleteFact(f.clone()),
                    false => DeltaOp::InsertFact(f.clone()),
                })
                .collect();
            ds.apply_delta(&ops).unwrap();
            let instance = ds.prioritized().instance();
            assert_dictionary_exact(instance);
            assert_equals_fresh_build(&schema, instance, &pool);
            let cold = PrioritizedInstance::conflict_restricted(
                &schema,
                instance.clone(),
                PriorityRelation::empty(instance.len()),
            )
            .unwrap();
            prop_assert_eq!(ds.fingerprint(), content_fingerprint(&schema, &cold));
        }
    }
}

#[test]
fn relation_ids_survive_in_the_rows() {
    // Facts of two relations with equal values share value ids but not
    // fact ids.
    let schema = schema();
    let mut i = Instance::new(schema.signature().clone());
    let r = i.insert_named("R", [Value::Int(1), Value::Int(1), Value::Int(1)]).unwrap();
    let s = i.insert_named("S", [Value::Int(1), Value::Int(1)]).unwrap();
    assert_ne!(r, s);
    assert_eq!(i.fact(r).rel(), RelId(0));
    assert_eq!(i.fact(s).rel(), RelId(1));
    assert_eq!(i.fact(r).id(1), i.fact(s).id(2));
    assert_eq!(i.value_uses(i.fact(r).id(1)), 5);
}
