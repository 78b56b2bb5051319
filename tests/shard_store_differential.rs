//! Differential suite for the content-addressed shard store: sessions
//! whose per-component artifacts come from a shared [`ShardStore`]
//! must be *bit-identical* — verdicts, witnesses, certificates,
//! fingerprints, and budget trips — to sessions built with private
//! shards, at every `jobs` setting; the 128-bit shard fingerprint must
//! be injective on shard content (equal fingerprint ⟹ equal member
//! facts, FDs, and intra-component priority edges); content-equal
//! components across different workspaces must share one store entry;
//! and cold-shard eviction must never change any answer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpr_core::{
    construct_globally_optimal_repair, enumerate_repairs_bounded, CheckOutcome, DeltaOp,
    DeltaSession, GRepairChecker, ShardStore,
};
use rpr_data::{Fact, FactId, FactSet, Value};
use rpr_engine::{Budget, ExceedReason, Outcome};
use rpr_fd::{ComponentLayout, CsrConflictGraph, Schema};
use rpr_gen::{
    chain_components, hard_schema, random_conflict_priority, random_instance, InstanceSpec,
};
use rpr_priority::{PrioritizedInstance, PriorityRelation};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

const JOBS: [usize; 3] = [1, 2, 8];
const ENUM_BUDGET: u64 = 1 << 22;

/// Chain workload with the per-chain priority `f2 > f1 > f0`; the
/// even-offset facts are the globally optimal repair.
fn chain_pi(components: usize, size: usize) -> (Schema, PrioritizedInstance, FactSet) {
    let (schema, instance) = chain_components(components, size);
    let at = |k: u32, i: u32| FactId(k * size as u32 + i);
    let mut edges = Vec::new();
    for k in 0..components as u32 {
        edges.push((at(k, 1), at(k, 0)));
        edges.push((at(k, 2), at(k, 1)));
    }
    let priority = PriorityRelation::new(instance.len(), edges).unwrap();
    let evens = instance.fact_ids().filter(|f| (f.index() % size).is_multiple_of(2));
    let j = instance.set_of(evens);
    let pi = PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
    (schema, pi, j)
}

/// Every outcome variant for the chain workload: the optimal repair,
/// an improvable repair, a non-maximal set, and an inconsistent set.
fn chain_candidates(pi: &PrioritizedInstance, size: usize, evens: &FactSet) -> Vec<FactSet> {
    let instance = pi.instance();
    let improvable =
        instance.set_of(instance.fact_ids().filter(|f| matches!(f.index() % size, 1 | 4)));
    vec![evens.clone(), improvable, instance.empty_set(), instance.full_set()]
}

/// A store-backed and a private-shard session over the same workspace.
fn session_pair(
    schema: &Schema,
    pi: &PrioritizedInstance,
    store: &Arc<ShardStore>,
) -> (DeltaSession, DeltaSession) {
    let schema = Arc::new(schema.clone());
    let private = DeltaSession::prepare(schema.clone(), pi.clone());
    let stored = DeltaSession::prepare_with_store(schema, pi.clone(), Some(Arc::clone(store)));
    (private, stored)
}

/// Renders one candidate's certificate exactly as the serving layer
/// does, so certificate comparison is byte-level.
fn certificate_text(ds: &DeltaSession, jobs: usize, j: &FactSet) -> String {
    let session = ds.session().with_jobs(jobs);
    let outcome = session.check(j);
    let cert = session.certify(j, &outcome);
    let pi = ds.prioritized();
    rpr_format::render_certificate(ds.schema(), pi.instance(), pi.priority(), &cert)
}

#[test]
fn store_backed_chain_is_bit_identical_across_jobs() {
    let (schema, pi, evens) = chain_pi(8, 6);
    let store = Arc::new(ShardStore::new());
    let (private, stored) = session_pair(&schema, &pi, &store);
    assert_eq!(private.fingerprint(), stored.fingerprint());
    assert_eq!(store.len(), stored.shard_count(), "one store entry per nontrivial component");
    let candidates = chain_candidates(&pi, 6, &evens);
    for jobs in JOBS {
        for j in &candidates {
            assert_eq!(
                private.session().with_jobs(jobs).check(j),
                stored.session().with_jobs(jobs).check(j),
                "jobs={jobs}"
            );
            assert_eq!(
                certificate_text(&private, jobs, j),
                certificate_text(&stored, jobs, j),
                "jobs={jobs}: certificates must render byte-identically"
            );
        }
    }
    // Re-checking through the warmed memo must not change any verdict.
    for j in &candidates {
        assert_eq!(private.session().check(j), stored.session().check(j), "memoized re-check");
    }
}

/// Two workspaces sharing 4 of their chains: the store must hold one
/// artifact per *distinct* component content, not one per (workspace,
/// component) pair, while each workspace still answers exactly as its
/// private-shard twin.
#[test]
fn content_equal_components_share_store_entries_across_workspaces() {
    let (schema_a, pi_a, evens_a) = chain_pi(4, 6);
    let (schema_b, pi_b, evens_b) = chain_pi(6, 6);
    let store = Arc::new(ShardStore::new());
    let (private_a, stored_a) = session_pair(&schema_a, &pi_a, &store);
    assert_eq!(store.len(), 4);
    let misses_after_a = store.stats().misses;
    let (private_b, stored_b) = session_pair(&schema_b, &pi_b, &store);
    // Chains 0..4 of workspace B are content-equal to workspace A's
    // (values are namespaced per chain index): only chains 4 and 5
    // are new artifacts.
    assert_eq!(store.len(), 6, "shared components must not be duplicated");
    let stats = store.stats();
    assert_eq!(stats.misses - misses_after_a, 2, "only the two new chains build");
    assert_eq!(stats.hits, 4, "the four shared chains are store hits");
    for (private, stored, pi, evens, size) in
        [(&private_a, &stored_a, &pi_a, &evens_a, 6), (&private_b, &stored_b, &pi_b, &evens_b, 6)]
    {
        for j in &chain_candidates(pi, size, evens) {
            for jobs in JOBS {
                assert_eq!(
                    private.session().with_jobs(jobs).check(j),
                    stored.session().with_jobs(jobs).check(j),
                    "jobs={jobs}"
                );
            }
        }
    }
}

#[test]
fn store_backed_delta_chain_matches_cold_private_rebuild() {
    let (schema, pi, _) = chain_pi(4, 6);
    let schema = Arc::new(schema);
    let sig = pi.instance().signature().clone();
    let store = Arc::new(ShardStore::new());
    let mut ds = DeltaSession::prepare_with_store(schema.clone(), pi, Some(Arc::clone(&store)));
    for k in [1usize, 3, 0] {
        // Offset 3 of chain k: an interior path fact with no incident
        // priority edges; deleting it splits the chain, re-inserting
        // merges it back.
        let bridge = Fact::parse_new(
            &sig,
            "R4",
            vec![
                Value::sym(format!("a{k}_1")),
                Value::sym(format!("b{k}_2")),
                Value::sym(format!("c{k}_3")),
            ],
        )
        .unwrap();
        for op in [DeltaOp::DeleteFact(bridge.clone()), DeltaOp::InsertFact(bridge)] {
            ds.apply_delta(std::slice::from_ref(&op)).unwrap();
            let instance = ds.prioritized().instance().clone();
            let priority = ds.prioritized().priority().clone();
            let cold_pi =
                PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
            let cold = DeltaSession::prepare(schema.clone(), cold_pi);
            assert_eq!(ds.fingerprint(), cold.fingerprint());
            assert_eq!(ds.shard_count(), cold.shard_count());
            let cg = CsrConflictGraph::new(&schema, ds.prioritized().instance());
            let optimal = construct_globally_optimal_repair(&cg, ds.prioritized().priority());
            for j in [
                optimal,
                ds.prioritized().instance().empty_set(),
                ds.prioritized().instance().full_set(),
            ] {
                assert_eq!(ds.session().check(&j), cold.session().check(&j));
            }
        }
    }
    // Every dirtied component left a stale (cold) entry behind; the
    // live session pins exactly `shard_count` of them.
    assert!(store.len() >= ds.shard_count());
}

/// A tight engine budget must trip identically whether the shard
/// search runs fresh, through the store, or through a store entry whose
/// memo was warmed under an unlimited budget (the memo cannot-trip
/// rule: a memo hit bulk-charges its recorded node count with
/// `Budget::try_charge`, and when that would trip, the real search
/// re-runs and trips exactly where a cold run does).
#[test]
fn legacy_budget_trips_identically_through_warmed_store_memos() {
    let (schema, pi, evens) = chain_pi(6, 12);
    let store = Arc::new(ShardStore::new());
    let (private, stored) = session_pair(&schema, &pi, &store);
    let tripped = |ds: &DeltaSession, jobs: usize| {
        let budget = Budget::unlimited().with_max_work(5);
        match ds.session().with_jobs(jobs).check_bounded(&evens, &budget) {
            Outcome::Exceeded { report, .. } => report,
            other => panic!("jobs={jobs}: 5 work units must trip, got {other:?}"),
        }
    };
    let tight = tripped(&private, 1);
    assert_eq!(tight.reason, ExceedReason::WorkExhausted);
    assert_eq!(tight.max_work, Some(5));
    assert_eq!(tripped(&stored, 1).work_done, tight.work_done, "cold store");
    for jobs in JOBS {
        let report = tripped(&stored, jobs);
        assert_eq!((report.reason, report.max_work), (tight.reason, tight.max_work), "jobs={jobs}");
    }
    // Warm the memo under an unlimited budget, then re-ask with the
    // tight one: the memoized answer must NOT leak past the smaller
    // budget.
    let generous = stored.session().check(&evens);
    assert_eq!(generous, CheckOutcome::Optimal);
    assert_eq!(private.session().check(&evens), generous);
    assert_eq!(tripped(&stored, 1).work_done, tight.work_done, "warmed memo");
    for jobs in JOBS {
        let report = tripped(&stored, jobs);
        assert_eq!(
            (report.reason, report.max_work),
            (tight.reason, tight.max_work),
            "jobs={jobs}: warmed memo must still trip the tight budget"
        );
    }
}

#[test]
fn engine_budget_exceeds_identically_through_the_store() {
    let (schema, pi, evens) = chain_pi(6, 12);
    let store = Arc::new(ShardStore::new());
    let (_, stored) = session_pair(&schema, &pi, &store);
    for jobs in JOBS {
        let budget = Budget::unlimited().with_max_work(10);
        match stored.session().with_jobs(jobs).check_bounded(&evens, &budget) {
            Outcome::Exceeded { report, .. } => {
                assert_eq!(report.reason, ExceedReason::WorkExhausted, "jobs={jobs}");
            }
            other => panic!("jobs={jobs}: expected Exceeded, got {other:?}"),
        }
    }
}

/// Eviction under a byte ceiling removes only *cold* entries (no live
/// session holds them) and never changes any response: a re-built
/// session after total eviction answers byte-for-byte the same.
#[test]
fn eviction_is_cold_only_and_answers_survive_rebuild() {
    let (schema, pi, evens) = chain_pi(4, 6);
    let store = Arc::new(ShardStore::with_bytes_max(Some(1)));
    let schema = Arc::new(schema);
    let candidates = chain_candidates(&pi, 6, &evens);
    let before: Vec<_> = {
        let ds =
            DeltaSession::prepare_with_store(schema.clone(), pi.clone(), Some(Arc::clone(&store)));
        // The ceiling is 1 byte, yet nothing can go: every shard is
        // pinned by the live session.
        store.enforce_ceiling();
        assert_eq!(store.len(), 4, "hot shards must never be evicted");
        assert_eq!(store.stats().evictions, 0);
        candidates.iter().map(|j| ds.session().check(j)).collect()
    };
    // The session is gone; now every shard is cold and the ceiling
    // can reclaim all of them.
    store.enforce_ceiling();
    assert_eq!(store.len(), 0, "cold shards must all fall to a 1-byte ceiling");
    assert_eq!(store.stats().evictions, 4);
    assert_eq!(store.resident_bytes(), 0);
    let rebuilt = DeltaSession::prepare_with_store(schema, pi, Some(Arc::clone(&store)));
    for (j, expected) in candidates.iter().zip(&before) {
        assert_eq!(&rebuilt.session().check(j), expected, "eviction must not change answers");
    }
}

/// Canonical shard content: member facts, their relations' FDs, and
/// intra-component priority edges, all rendered renumbering-invariant.
type ShardContent = (Vec<String>, Vec<String>, Vec<(String, String)>);

fn shard_content(
    schema: &Schema,
    pi: &PrioritizedInstance,
    layout: &ComponentLayout,
    c: usize,
) -> ShardContent {
    let instance = pi.instance();
    let sig = instance.signature();
    let members = layout.component(c);
    let mut facts: Vec<String> =
        members.iter().map(|&f| instance.fact(f).display(sig).to_string()).collect();
    facts.sort();
    let mut rels: Vec<_> = members.iter().map(|&f| instance.fact(f).rel()).collect();
    rels.sort_unstable();
    rels.dedup();
    let mut fds: Vec<String> = rels
        .iter()
        .flat_map(|&rel| {
            schema.fds_for(rel).iter().map(move |fd| {
                format!("{}: {:#x} -> {:#x}", sig.symbol(rel).name(), fd.lhs.bits(), fd.rhs.bits())
            })
        })
        .collect();
    fds.sort();
    let inside: std::collections::HashSet<FactId> = members.iter().copied().collect();
    let mut edges: Vec<(String, String)> = pi
        .priority()
        .edges()
        .iter()
        .filter(|(hi, lo)| inside.contains(hi) && inside.contains(lo))
        .map(|&(hi, lo)| {
            (instance.fact(hi).display(sig).to_string(), instance.fact(lo).display(sig).to_string())
        })
        .collect();
    edges.sort();
    (facts, fds, edges)
}

/// Fingerprint → content map accumulated across *all* proptest cases
/// (and the deterministic tests), so collisions between workloads that
/// different cases generate are caught too.
fn seen_shards() -> &'static Mutex<HashMap<u128, ShardContent>> {
    static SEEN: OnceLock<Mutex<HashMap<u128, ShardContent>>> = OnceLock::new();
    SEEN.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Registers every nontrivial component of the workspace; panics if a
/// fingerprint maps to two distinct contents.
fn assert_fingerprints_injective(schema: &Schema, pi: &PrioritizedInstance) {
    let cg = CsrConflictGraph::new(schema, pi.instance());
    let layout = ComponentLayout::from_csr(&cg);
    let mut seen = seen_shards().lock().unwrap();
    for &c in layout.nontrivial() {
        let c = c as usize;
        let fp = layout.shard_fingerprint(c, schema, pi.instance(), pi.priority().edges());
        let content = shard_content(schema, pi, &layout, c);
        match seen.get(&fp.0) {
            None => {
                seen.insert(fp.0, content);
            }
            Some(prior) => assert_eq!(
                prior, &content,
                "fingerprint {:032x} maps to two distinct shard contents",
                fp.0
            ),
        }
    }
}

#[test]
fn chain_shard_fingerprints_are_injective_and_reused() {
    let (schema, pi, _) = chain_pi(8, 6);
    assert_fingerprints_injective(&schema, &pi);
    // The 8 chains are pairwise distinct contents (namespaced values):
    // 8 distinct fingerprints.
    let cg = CsrConflictGraph::new(&schema, pi.instance());
    let layout = ComponentLayout::from_csr(&cg);
    let fps: std::collections::HashSet<u128> = layout
        .nontrivial()
        .iter()
        .map(|&c| {
            layout.shard_fingerprint(c as usize, &schema, pi.instance(), pi.priority().edges()).0
        })
        .collect();
    assert_eq!(fps.len(), 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random hard workspaces: shard fingerprints stay injective on
    /// shard content across every workspace any case generates.
    #[test]
    fn random_shard_fingerprints_are_injective(seed in any::<u64>()) {
        let schema = hard_schema(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = random_instance(
            &schema,
            InstanceSpec { facts_per_relation: 9, domain: 3 },
            &mut rng,
        );
        let cg = CsrConflictGraph::new(&schema, &instance);
        let priority = random_conflict_priority(&cg, 0.6, &mut rng);
        let pi = PrioritizedInstance::conflict_restricted(
            &schema,
            instance,
            priority,
        ).unwrap();
        assert_fingerprints_injective(&schema, &pi);
    }

    /// Random hard workspaces: the store-backed session agrees with
    /// the one-shot checker and the private-shard session bit for bit
    /// at every jobs setting, on every repair and on degenerate
    /// candidates.
    #[test]
    fn store_backed_random_hard_check_matches_private(seed in any::<u64>()) {
        let schema = hard_schema(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = random_instance(
            &schema,
            InstanceSpec { facts_per_relation: 9, domain: 3 },
            &mut rng,
        );
        let cg = CsrConflictGraph::new(&schema, &instance);
        let priority = random_conflict_priority(&cg, 0.7, &mut rng);
        let pi = PrioritizedInstance::conflict_restricted(
            &schema,
            instance.clone(),
            priority,
        ).unwrap();
        let checker = GRepairChecker::new(schema.clone());
        let store = Arc::new(ShardStore::new());
        let (private, stored) = session_pair(&schema, &pi, &store);
        prop_assert_eq!(private.fingerprint(), stored.fingerprint());
        let mut candidates =
            enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(ENUM_BUDGET))
                .expect_done("repair enumeration");
        candidates.push(instance.full_set());
        candidates.push(instance.empty_set());
        for j in &candidates {
            let expected = checker.check(&pi, j);
            for jobs in JOBS {
                prop_assert_eq!(
                    &stored.session().with_jobs(jobs).check(j), &expected, "jobs={}", jobs
                );
                prop_assert_eq!(
                    &private.session().with_jobs(jobs).check(j), &expected, "jobs={}", jobs
                );
            }
        }
        // Optimal verdicts must also certify identically.
        for j in &candidates {
            if matches!(stored.session().check(j), CheckOutcome::Optimal) {
                prop_assert_eq!(certificate_text(&private, 1, j), certificate_text(&stored, 1, j));
            }
        }
    }
}
