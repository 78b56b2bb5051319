//! Content-addressed shard store: the shared tier of the two-tier
//! session cache.
//!
//! A **shard** is the per-component unit of exact checking: the local
//! graph of one conflict component (or one union component in ccp
//! mode) — its conflict rows and intra-component priority rows *in
//! local coordinates*, over which the exhaustive search of
//! [`crate::exact`] runs — and a memo of shard verdicts already
//! computed. Shards are immutable and keyed by the
//! canonical 128-bit fingerprint of their content
//! ([`rpr_fd::ComponentLayout::shard_fingerprint`]): component facts in
//! member order, incident FDs, and intra-component priority edges.
//! Because conflicts and (intra-component) priorities never leave a
//! component, two workspaces whose fact ids differ wildly but whose
//! component *content* agrees, in the same relative order, map to the
//! same key and share one [`ShardData`] — the renumbering is absorbed
//! by the local coordinate system (local id = rank of the fact in the
//! component's ascending member list).
//!
//! The [`ShardStore`] is the global tier: a ref-counted
//! (`Arc`-backed) map from shard fingerprint to [`ShardData`] with
//! per-shard LRU stamps, byte accounting, and an optional
//! `--cache-bytes-max` ceiling. Sessions hold `Arc` handles to their
//! shards; eviction only ever removes *cold* shards (entries whose
//! only owner is the store itself, i.e. `Arc::strong_count == 1`), so
//! a hot shard pinned by a live session can never be dropped out from
//! under it — "evicts cold, never hot" is structural, not a policy.
//!
//! ## Bit-identity
//!
//! A shard runs the one exhaustive search of [`crate::exact`] (the
//! search [`crate::check_global_exact_bounded`] runs over its whole
//! domain), so a cold shard check is that search by construction. The
//! verdict memo is consulted only when replaying the recorded search
//! could not possibly trip the caller's budget: a memo hit
//! bulk-charges the recorded node count via [`Budget::try_charge`],
//! which rolls back and reports `false` when the charge would trip —
//! the caller then falls back to the real search, which re-charges
//! step-by-step and trips exactly where a cold session would.
//!
//! A memo hit therefore charges the same total work and returns the
//! same verdict and witness as a cold run, so store-backed sessions
//! are bit-identical to private-shard builds.

use crate::exact::LocalGraph;
use crate::improvement::Improvement;
use rpr_data::{FactId, FactSet, Fingerprint, FxHashMap};
use rpr_engine::{Budget, Stop};
use rpr_fd::ConflictRows;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One memoized shard verdict: the search result (a witness in local
/// coordinates) for a candidate restricted to this shard, plus the
/// exact number of recursion nodes the search visited (= budget work
/// units it charged).
#[derive(Clone, Debug)]
struct MemoEntry {
    found: Option<Improvement>,
    steps: u64,
}

/// Immutable per-component shard artifact, shared across sessions and
/// across workspace fingerprints.
///
/// Its local graph is in local coordinates over the component's
/// ascending global member list, which each call passes in.
pub struct ShardData {
    fingerprint: Fingerprint,
    graph: LocalGraph,
    /// Verdict memo: candidate ∩ component (local) → search result.
    memo: Mutex<FxHashMap<FactSet, MemoEntry>>,
    /// Estimated resident bytes of the immutable part.
    base_bytes: usize,
    /// Estimated resident bytes of the memo (grows as verdicts cache).
    memo_bytes: AtomicUsize,
}

impl ShardData {
    /// Slices component `c`'s shard out of the global structures.
    ///
    /// `members` must be the component's member list, ascending — the
    /// slice `layout.component(c)` is. Conflict neighbors of a member
    /// never leave its component, so every edge maps to a local pair.
    /// `edges` are priority edges `f ≻ g` in workspace order: the
    /// component's bucket from
    /// [`ComponentLayout::bucket_edges`](rpr_fd::ComponentLayout::bucket_edges),
    /// or any superset of it — edges with an endpoint outside the
    /// component are ignored.
    pub fn build(
        fingerprint: Fingerprint,
        members: &[FactId],
        cg: &impl ConflictRows,
        edges: &[(FactId, FactId)],
    ) -> ShardData {
        let (graph, escaped) = LocalGraph::new(members, cg, edges.iter().copied());
        assert_eq!(escaped, 0, "conflict neighbor escapes its component");
        let base_bytes = graph.bytes() + 160;
        ShardData {
            fingerprint,
            graph,
            memo: Mutex::new(FxHashMap::default()),
            base_bytes,
            memo_bytes: AtomicUsize::new(0),
        }
    }

    /// The shard's content address.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Component size.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Is the shard over an empty component? (Never true in practice —
    /// only nontrivial components are sharded.)
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of memoized shard verdicts.
    pub fn memo_len(&self) -> usize {
        self.memo.lock().unwrap().len()
    }

    /// Estimated resident bytes (immutable slice + verdict memo).
    pub fn bytes(&self) -> usize {
        self.base_bytes + self.memo_bytes.load(Ordering::Relaxed)
    }

    fn memoize(&self, key: FactSet, found: Option<Improvement>, steps: u64) {
        let words = self.len().div_ceil(64);
        let witness_bytes = match &found {
            Some(_) => 2 * (8 * words + 40),
            None => 0,
        };
        let entry_bytes = 8 * words + 96 + witness_bytes;
        let mut memo = self.memo.lock().unwrap();
        if memo.insert(key, MemoEntry { found, steps }).is_none() {
            self.memo_bytes.fetch_add(entry_bytes, Ordering::Relaxed);
        }
    }

    /// Checks a candidate against this shard under a caller-supplied
    /// engine [`Budget`].
    ///
    /// A memo hit bulk-charges the recorded node count via
    /// [`Budget::try_charge`]; when the charge would trip, the charge
    /// rolls back and the real search runs instead, re-charging
    /// step-by-step and tripping exactly where a cold session would.
    ///
    /// # Errors
    /// Propagates the budget's [`Stop`] (work, deadline, cancel).
    pub fn check(
        &self,
        members: &[FactId],
        j: &FactSet,
        budget: &Budget,
    ) -> Result<Option<Improvement>, Stop> {
        let local_j = self.graph.localize(members, j);
        let memo_hit = {
            let memo = self.memo.lock().unwrap();
            memo.get(&local_j).map(|e| (e.found.clone(), e.steps))
        };
        let globalize = |imp: &Improvement| self.graph.globalize(members, j.universe(), imp);
        if let Some((found, steps)) = memo_hit {
            if budget.try_charge(steps)? {
                return Ok(found.as_ref().map(globalize));
            }
        }
        let (found, nodes) = self.graph.search(&local_j, budget)?;
        let out = found.as_ref().map(globalize);
        self.memoize(local_j, found, nodes);
        Ok(out)
    }
}

struct StoreEntry {
    data: Arc<ShardData>,
    stamp: u64,
}

struct StoreInner {
    entries: FxHashMap<u128, StoreEntry>,
    tick: u64,
}

/// Aggregate counters for metrics export and reconciliation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ShardStoreStats {
    /// Shards currently resident.
    pub entries: u64,
    /// Estimated resident bytes across all shards (memo included).
    pub bytes: u64,
    /// `get_or_insert` calls answered from the store.
    pub hits: u64,
    /// `get_or_insert` calls that had to build.
    pub misses: u64,
    /// Cold shards dropped by the byte ceiling.
    pub evictions: u64,
}

/// The global content-addressed shard cache (tier one).
///
/// Thread-safe; `get_or_insert` builds under the lock so concurrent
/// requests for the same key observe exactly one miss.
pub struct ShardStore {
    inner: Mutex<StoreInner>,
    bytes_max: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ShardStore {
    fn default() -> Self {
        ShardStore::new()
    }
}

impl ShardStore {
    /// An unbounded store.
    pub fn new() -> ShardStore {
        ShardStore::with_bytes_max(None)
    }

    /// A store that evicts cold shards (LRU) once estimated resident
    /// bytes exceed `bytes_max`.
    pub fn with_bytes_max(bytes_max: Option<u64>) -> ShardStore {
        ShardStore {
            inner: Mutex::new(StoreInner { entries: FxHashMap::default(), tick: 0 }),
            bytes_max,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured byte ceiling, if any.
    pub fn bytes_max(&self) -> Option<u64> {
        self.bytes_max
    }

    /// Fetches the shard at `key`, building and inserting it on miss.
    pub fn get_or_insert(
        &self,
        key: Fingerprint,
        build: impl FnOnce() -> ShardData,
    ) -> Arc<ShardData> {
        self.lock().get_or_insert(key, build)
    }

    /// Takes the store lock for a run of lookups, so a session attach
    /// resolves all its shards under one acquisition.
    pub(crate) fn lock(&self) -> StoreLock<'_> {
        StoreLock { store: self, inner: self.inner.lock().expect("shard store lock poisoned") }
    }

    /// Re-applies the byte ceiling, evicting cold shards LRU-first.
    /// Cheap; serve calls this after requests since memos grow shards
    /// in place.
    pub fn enforce_ceiling(&self) {
        let mut inner = self.inner.lock().unwrap();
        self.evict_cold(&mut inner);
    }

    /// Evicts the oldest cold shard until resident bytes fit the
    /// ceiling. Resident bytes are summed once; each victim's bytes are
    /// then subtracted, which picks the same victims as re-summing
    /// after every eviction.
    fn evict_cold(&self, inner: &mut StoreInner) {
        let Some(max) = self.bytes_max else { return };
        let mut resident: u64 = inner.entries.values().map(|e| e.data.bytes() as u64).sum();
        while resident > max {
            // Oldest cold shard: unreferenced outside the store.
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.data) == 1)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k);
            match victim.and_then(|k| inner.entries.remove(&k)) {
                Some(evicted) => {
                    resident = resident.saturating_sub(evicted.data.bytes() as u64);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Everything is pinned by live sessions: nothing we
                // may evict. Hot shards are never dropped.
                None => return,
            }
        }
    }

    /// Number of resident shards.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated resident bytes across all shards, each counted once.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().unwrap().entries.values().map(|e| e.data.bytes() as u64).sum()
    }

    /// Counter snapshot for metrics export.
    pub fn stats(&self) -> ShardStoreStats {
        let inner = self.inner.lock().unwrap();
        ShardStoreStats {
            entries: inner.entries.len() as u64,
            bytes: inner.entries.values().map(|e| e.data.bytes() as u64).sum(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The store locked for a run of lookups (see [`ShardStore::lock`]).
/// Every lookup stamps and counts exactly as [`ShardStore::get_or_insert`]
/// would, in call order.
pub(crate) struct StoreLock<'a> {
    store: &'a ShardStore,
    inner: MutexGuard<'a, StoreInner>,
}

impl StoreLock<'_> {
    /// [`ShardStore::get_or_insert`] under the held lock.
    pub(crate) fn get_or_insert(
        &mut self,
        key: Fingerprint,
        build: impl FnOnce() -> ShardData,
    ) -> Arc<ShardData> {
        self.resolve(key, || Arc::new(build()))
    }

    /// Re-attaches a shard the caller already holds: a hit that bumps
    /// its LRU stamp, exactly as looking its key up would. (A held
    /// shard is pinned, so it is always resident.)
    pub(crate) fn reattach(&mut self, shard: Arc<ShardData>) -> Arc<ShardData> {
        self.resolve(shard.fingerprint(), || shard)
    }

    fn resolve(
        &mut self,
        key: Fingerprint,
        make: impl FnOnce() -> Arc<ShardData>,
    ) -> Arc<ShardData> {
        let inner = &mut *self.inner;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&key.0) {
            entry.stamp = tick;
            self.store.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&entry.data);
        }
        self.store.misses.fetch_add(1, Ordering::Relaxed);
        let data = make();
        debug_assert_eq!(data.fingerprint(), key, "shard built under the wrong key");
        inner.entries.insert(key.0, StoreEntry { data: Arc::clone(&data), stamp: tick });
        self.store.evict_cold(inner);
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionArtifacts;
    use rand::{Rng, SeedableRng};
    use rpr_fd::{ComponentLayout, CsrConflictGraph};

    /// Every field of two shards, memo aside.
    fn assert_same_shard(a: &ShardData, b: &ShardData) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.base_bytes, b.base_bytes);
    }

    /// Keys and shards read from a component's edge bucket equal the
    /// ones read from the workspace's whole edge list, on conflict
    /// layouts (where cross-component edges are dropped) and on ccp
    /// union layouts (where priority edges join components).
    #[test]
    fn bucketed_keys_and_shards_equal_unbucketed_ones() {
        for seed in 0..24u64 {
            let schema = rpr_gen::hard_schema(4);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let spec = rpr_gen::InstanceSpec { facts_per_relation: 40, domain: 5 };
            let instance = rpr_gen::random_instance(&schema, spec, &mut rng);
            let n = instance.len() as u32;
            let cg = rpr_fd::ConflictGraph::new(&schema, &instance);
            let mut priority = rpr_gen::random_conflict_priority(&cg, 0.5, &mut rng);
            // Cross edges, skipping any that would close a cycle.
            for _ in 0..8 {
                let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                let _ = priority.insert_edge(FactId(a), FactId(b));
            }
            let csr = CsrConflictGraph::new(&schema, &instance);
            let union = SessionArtifacts::ccp_union_layout(&csr, &priority);
            for layout in [ComponentLayout::from_csr(&csr), union] {
                let buckets = layout.bucket_edges(priority.edges());
                for &c in layout.nontrivial() {
                    let c = c as usize;
                    let (bucket, all) = (buckets.of(c), priority.edges());
                    let key = layout.shard_fingerprint(c, &schema, &instance, bucket);
                    assert_eq!(key, layout.shard_fingerprint(c, &schema, &instance, all));
                    let members = layout.component(c);
                    assert_same_shard(
                        &ShardData::build(key, members, &csr, bucket),
                        &ShardData::build(key, members, &csr, all),
                    );
                }
            }
        }
    }

    /// The byte ceiling evicts cold shards oldest-stamp first, never a
    /// pinned one, and stops as soon as the rest fit.
    #[test]
    fn eviction_takes_the_oldest_cold_shards_first() {
        let (schema, instance) = rpr_gen::chain_components(4, 3);
        let csr = CsrConflictGraph::new(&schema, &instance);
        let layout = ComponentLayout::from_csr(&csr);
        let key = |c: usize| layout.shard_fingerprint(c, &schema, &instance, &[]);
        let build = |c: usize| ShardData::build(key(c), layout.component(c), &csr, &[]);
        let shard_bytes = build(0).bytes() as u64;
        let store = ShardStore::with_bytes_max(Some(2 * shard_bytes));
        let resident = |c: usize| store.inner.lock().unwrap().entries.contains_key(&key(c).0);
        drop(store.get_or_insert(key(0), || build(0)));
        drop(store.get_or_insert(key(1), || build(1)));
        drop(store.get_or_insert(key(0), || build(0))); // 0 is now newer than 1
        drop(store.get_or_insert(key(2), || build(2)));
        assert!(!resident(1) && resident(0) && resident(2), "the oldest cold shard goes first");
        let pinned = store.get_or_insert(key(3), || build(3));
        assert!(
            !resident(0) && resident(2) && resident(3),
            "then the next oldest, never a pinned one"
        );
        assert_eq!(store.stats().evictions, 2);
        assert_eq!(store.resident_bytes(), 2 * shard_bytes);
        drop(pinned);
    }
}
