//! The LRU session cache.
//!
//! Keyed by the canonical workspace fingerprint
//! (`rpr_format::workspace_fingerprint`), each entry is a
//! [`SessionSlot`] — a mutable [`DeltaSession`] behind an `RwLock`, so
//! `/check`-style readers share it concurrently while `POST /delta`
//! mutates it in place. Entries are shared out as `Arc`s, so an
//! eviction never invalidates a request that is mid-check on the
//! evicted session; the artifacts are freed when the last in-flight
//! user drops its handle.
//!
//! A successful delta changes the session's content fingerprint, and
//! the cache key must follow it: [`rekey`](SessionCache::rekey) moves
//! the entry under its new fingerprint so subsequent lookups (and
//! deltas) address the mutated state. The slot also carries an
//! approximate byte count (the `rpr_session_cache_bytes` gauge),
//! refreshed after every mutation.
//!
//! **Byte-keyed hits.** A slot may keep one [`Source`]: the exact
//! request bytes it was built from or last verified against, plus that
//! workspace's named repairs in the session's fact ids. A second index
//! maps a hash of those bytes to the entry, so a request whose
//! `workspace` span is byte-equal to a kept source finds its session
//! without parsing ([`get_by_source`](SessionCache::get_by_source),
//! then [`SessionSlot::source_for`]). Byte equality implies content
//! equality, so such a hit needs no further verification. A slot built
//! with a source is indexed when it is inserted, before any other
//! request can reach it; [`arm`](SessionCache::arm) re-arms a verified
//! hit. The index holds at most one hash per entry and never moves a
//! hash between entries: eviction and [`rekey`](SessionCache::rekey)
//! drop it, and a delta clears the slot's source under the session's
//! write guard.
//!
//! Recency is tracked with a monotone touch counter instead of a linked
//! list: lookups bump the entry's stamp under the same mutex, and
//! eviction scans for the minimum. The scan is `O(capacity)`, which is
//! fine for the tens-to-hundreds of instances a repair service
//! realistically keeps warm.
//!
//! Lock order: the cache mutex is never held while a slot's session
//! lock is taken (lookups clone the `Arc` out first), so a delta
//! holding its slot's write lock may call back into
//! [`rekey`](SessionCache::rekey) without deadlock. A slot's source
//! lock is a leaf: it is taken last and never held across another
//! lock.

use rpr_core::DeltaSession;
use rpr_data::{fingerprint::Fingerprint, FactSet, FxHashMap, FxHasher};
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Whether a lookup was served from the cache or had to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// The session was already prepared.
    Hit,
    /// The session was built (and inserted) by this lookup.
    Miss,
}

/// The request bytes a slot was built from or last verified against:
/// the escaped `workspace` span exactly as it arrived, plus the
/// workspace's named repairs already expressed in the session's fact
/// ids.
pub(crate) struct Source {
    text: Box<str>,
    hash: u64,
    repairs: Arc<[(String, FactSet)]>,
}

impl Source {
    /// Keeps `text` (the escaped span) with its named repairs, which
    /// must already be in the fact ids of the session it is armed on.
    pub(crate) fn new(text: &str, repairs: Arc<[(String, FactSet)]>) -> Source {
        Source { text: text.into(), hash: hash_text(text), repairs }
    }

    /// The workspace's named repairs, in the session's fact ids.
    pub(crate) fn repairs(&self) -> &Arc<[(String, FactSet)]> {
        &self.repairs
    }

    fn bytes(&self) -> usize {
        self.text.len()
            + self
                .repairs
                .iter()
                .map(|(name, set)| name.len() + set.universe().div_ceil(64) * 8)
                .sum::<usize>()
    }
}

/// The byte-index key of a `workspace` span. Four FxHash lanes fold
/// the 32-byte blocks, one word each, so the four multiply chains run
/// side by side instead of one chain over the whole span; the lanes,
/// the remainder and the length then finish through one [`FxHasher`].
/// The value only keys the in-process index (a byte comparison decides
/// every hit), so nothing ties it to `FxHasher::write` or persists it.
fn hash_text(text: &str) -> u64 {
    let bytes = text.as_bytes();
    let mut lanes: [FxHasher; 4] = Default::default();
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            lane.write_u64(u64::from_le_bytes(
                word.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
    }
    let mut h = FxHasher::default();
    for lane in &lanes {
        h.write_u64(lane.finish());
    }
    h.write(blocks.remainder());
    h.write_usize(bytes.len());
    h.finish()
}

/// One cache-resident mutable session: the [`DeltaSession`] behind a
/// readers-writer lock, the [`Source`] it may be served by without a
/// parse (in its own lock, so arming never needs the write guard), and
/// approximate resident byte counts (readable without touching either
/// lock, for the cache-size gauge).
pub struct SessionSlot {
    session: RwLock<DeltaSession>,
    source: Mutex<Option<Arc<Source>>>,
    bytes: AtomicUsize,
    source_bytes: AtomicUsize,
}

impl SessionSlot {
    /// Wraps a prepared session in a shareable slot.
    pub fn new(session: DeltaSession) -> Arc<SessionSlot> {
        let bytes = session.approx_bytes();
        Arc::new(SessionSlot {
            session: RwLock::new(session),
            source: Mutex::new(None),
            bytes: AtomicUsize::new(bytes),
            source_bytes: AtomicUsize::new(0),
        })
    }

    /// Read access for checking requests (many may share the slot).
    pub fn read(&self) -> RwLockReadGuard<'_, DeltaSession> {
        self.session.read().expect("session lock poisoned")
    }

    /// Exclusive access for `POST /delta` mutation.
    pub fn write(&self) -> RwLockWriteGuard<'_, DeltaSession> {
        self.session.write().expect("session lock poisoned")
    }

    /// The kept source, if its bytes equal `text`. Call it under the
    /// session's read guard: a delta clears the source under the write
    /// guard, so a match stays valid for as long as the guard is held.
    pub(crate) fn source_for(&self, text: &str) -> Option<Arc<Source>> {
        let source = self.source.lock().expect("source lock poisoned").clone()?;
        (source.text.as_bytes() == text.as_bytes()).then_some(source)
    }

    /// Keeps `source` on a slot no other request can reach yet (the
    /// build closure of [`SessionCache::get_or_build`], which indexes
    /// it on insert). A published slot is armed through
    /// [`SessionCache::arm`] instead.
    pub(crate) fn keep_source(&self, source: Source) {
        self.store_source(Some(Arc::new(source)));
    }

    /// Drops the kept source. `POST /delta` calls this while it still
    /// holds the write guard, so no reader can match the old bytes
    /// against the mutated session.
    pub(crate) fn clear_source(&self) {
        self.store_source(None);
    }

    fn source_hash(&self) -> Option<u64> {
        self.source.lock().expect("source lock poisoned").as_ref().map(|s| s.hash)
    }

    fn store_source(&self, source: Option<Arc<Source>>) {
        self.source_bytes.store(source.as_ref().map_or(0, |s| s.bytes()), Ordering::Relaxed);
        *self.source.lock().expect("source lock poisoned") = source;
    }

    /// Refreshes the byte estimate after a mutation (callers already
    /// hold the write guard, so they pass the session in).
    pub fn sync_bytes(&self, session: &DeltaSession) {
        self.bytes.store(session.approx_bytes(), Ordering::Relaxed);
    }

    /// The slot's approximate resident bytes, kept source included.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed) + self.source_bytes.load(Ordering::Relaxed)
    }
}

struct Entry {
    slot: Arc<SessionSlot>,
    stamp: u64,
    /// The hash under which the byte index points at this entry.
    source: Option<u64>,
}

/// An LRU cache of mutable check sessions keyed by workspace
/// fingerprint.
#[must_use = "a session cache does nothing unless lookups go through it"]
pub struct SessionCache {
    inner: Mutex<Inner>,
}

struct Inner {
    entries: FxHashMap<u128, Entry>,
    /// Source-bytes hash → fingerprint key; at most one per entry.
    by_source: FxHashMap<u64, u128>,
    capacity: usize,
    tick: u64,
    evictions: u64,
}

/// Invariant: `by_source[h] == k` exactly when `entries[k].source ==
/// Some(h)`.
impl Inner {
    /// Inserts an entry, dropping the byte-index hash of any entry it
    /// replaces and indexing the new entry's hash unless another entry
    /// owns it (a hash collision, which just leaves the newcomer to the
    /// parse path).
    fn insert(&mut self, key: u128, mut entry: Entry) {
        if let Some(old) = self.entries.remove(&key) {
            self.unindex(old.source);
        }
        if let Some(hash) = entry.source {
            if *self.by_source.entry(hash).or_insert(key) != key {
                entry.source = None;
            }
        }
        self.entries.insert(key, entry);
    }

    /// Removes an entry and its byte-index hash.
    fn remove(&mut self, key: u128) -> Option<Entry> {
        let entry = self.entries.remove(&key)?;
        self.unindex(entry.source);
        Some(entry)
    }

    fn unindex(&mut self, source: Option<u64>) {
        if let Some(hash) = source {
            self.by_source.remove(&hash);
        }
    }
}

impl SessionCache {
    /// Creates a cache holding at most `capacity` sessions
    /// (`capacity == 0` disables caching: every lookup misses).
    pub fn new(capacity: usize) -> Self {
        SessionCache {
            inner: Mutex::new(Inner {
                entries: FxHashMap::default(),
                by_source: FxHashMap::default(),
                capacity,
                tick: 0,
                evictions: 0,
            }),
        }
    }

    /// Looks up the slot for `key`, building it with `build` on a
    /// miss. The build runs *outside* the cache lock, so a slow
    /// preparation never blocks hits on other keys; if two requests
    /// race on the same cold key, both build and the second insert
    /// wins (they are content-identical, so either result is correct).
    /// A source the built slot keeps is indexed along with the entry.
    pub fn get_or_build(
        &self,
        key: Fingerprint,
        build: impl FnOnce() -> Arc<SessionSlot>,
    ) -> (Arc<SessionSlot>, CacheOutcome) {
        {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(&key.0) {
                entry.stamp = tick;
                return (Arc::clone(&entry.slot), CacheOutcome::Hit);
            }
        }
        let slot = build();
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if inner.capacity > 0 {
            while inner.entries.len() >= inner.capacity && !inner.entries.contains_key(&key.0) {
                let lru = inner
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(&k, _)| k)
                    .expect("non-empty map has a minimum");
                inner.remove(lru);
                inner.evictions += 1;
            }
            let source = slot.source_hash();
            inner.insert(key.0, Entry { slot: Arc::clone(&slot), stamp: tick, source });
        }
        (slot, CacheOutcome::Miss)
    }

    /// Looks up the slot for `key` without building on a miss (the
    /// `POST /delta` path: a miss is the client's 404, not a rebuild).
    /// A hit bumps the entry's recency stamp.
    pub fn get(&self, key: Fingerprint) -> Option<Arc<SessionSlot>> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(&key.0)?;
        entry.stamp = tick;
        Some(Arc::clone(&entry.slot))
    }

    /// Looks up the slot whose kept source hashes like `text`, bumping
    /// its recency stamp. The candidate is unverified: confirm it with
    /// [`SessionSlot::source_for`] under the slot's read guard.
    pub(crate) fn get_by_source(&self, text: &str) -> Option<Arc<SessionSlot>> {
        let hash = hash_text(text);
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let key = *inner.by_source.get(&hash)?;
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(&key).expect("the byte index only names cached entries");
        entry.stamp = tick;
        Some(Arc::clone(&entry.slot))
    }

    /// Replaces the source kept on `slot` and indexes its bytes,
    /// provided `slot` is still the entry cached under `key` (an
    /// evicted or replaced slot is left alone) and no other entry owns
    /// the hash (a collision leaves the slot as it was). The caller
    /// holds the slot's read guard and has verified that `source`
    /// describes the session's content, so no delta can intervene.
    pub(crate) fn arm(&self, key: Fingerprint, slot: &Arc<SessionSlot>, source: Source) {
        let hash = source.hash;
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let Inner { entries, by_source, .. } = &mut *inner;
        let Some(entry) = entries.get_mut(&key.0).filter(|e| Arc::ptr_eq(&e.slot, slot)) else {
            return;
        };
        if by_source.get(&hash).is_some_and(|&owner| owner != key.0) {
            return;
        }
        if let Some(previous) = entry.source.replace(hash) {
            by_source.remove(&previous);
        }
        by_source.insert(hash, key.0);
        slot.store_source(Some(Arc::new(source)));
    }

    /// Moves an entry to its post-delta fingerprint so lookups keep
    /// addressing the mutated session, dropping its byte-index hash (the
    /// mutated session no longer matches any submitted text). A no-op
    /// when `old` is not cached (the slot was evicted mid-delta; the
    /// caller's `Arc` stays valid, it is just no longer cached). When
    /// `new` is already occupied — the mutation converged on another
    /// cached workspace's content — the moved entry replaces it: both
    /// describe identical content, and the mover is more recent.
    /// Returns whether an entry moved.
    pub fn rekey(&self, old: Fingerprint, new: Fingerprint) -> bool {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let Some(mut entry) = inner.remove(old.0) else {
            return false;
        };
        entry.stamp = tick;
        entry.source = None;
        inner.insert(new.0, entry);
        true
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of byte-index entries (never more than [`len`](Self::len)).
    pub fn source_index_len(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").by_source.len()
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().expect("cache lock poisoned").evictions
    }

    /// Approximate resident bytes across all cached sessions, kept
    /// sources included (reads each slot's atomic estimates; no slot
    /// lock is taken).
    pub fn total_bytes(&self) -> u64 {
        let inner = self.inner.lock().expect("cache lock poisoned");
        inner.entries.values().map(|e| e.slot.bytes() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Instance, Signature, Value};
    use rpr_fd::Schema;
    use rpr_priority::{PrioritizedInstance, PriorityRelation};

    fn dummy_session(tag: i64) -> Arc<SessionSlot> {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut instance = Instance::new(sig);
        instance.insert_named("R", [Value::int(tag), Value::sym("x")]).unwrap();
        let priority = PriorityRelation::empty(instance.len());
        let pi = PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
        SessionSlot::new(DeltaSession::prepare(Arc::new(schema), pi))
    }

    fn key(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn hash_text_sees_every_byte_and_the_length() {
        let text: String = (0..256u32).map(|i| char::from(b'a' + (i * 7 % 26) as u8)).collect();
        // Full blocks (every lane), and every remainder length.
        for len in (0..=64).chain([256]) {
            let text = &text[..len];
            for at in 0..len {
                let mut flipped = text.as_bytes().to_vec();
                flipped[at] ^= 0x01;
                let flipped = String::from_utf8(flipped).expect("ASCII stays UTF-8");
                assert_ne!(hash_text(&flipped), hash_text(text), "flip at {at} of {len} unseen");
            }
        }
        // Zero bytes pad the remainder word, so only the length tells
        // these prefixes apart.
        let zeros = "\0".repeat(64);
        let hashes: std::collections::HashSet<u64> =
            (0..=64).map(|len| hash_text(&zeros[..len])).collect();
        assert_eq!(hashes.len(), 65, "two lengths in 0..=64 hash alike");
    }

    #[test]
    fn hit_after_miss() {
        let cache = SessionCache::new(4);
        let (_, o1) = cache.get_or_build(key(1), || dummy_session(1));
        let (_, o2) = cache.get_or_build(key(1), || panic!("must not rebuild"));
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = SessionCache::new(2);
        let _ = cache.get_or_build(key(1), || dummy_session(1));
        let _ = cache.get_or_build(key(2), || dummy_session(2));
        // Touch 1 so 2 becomes the LRU.
        let _ = cache.get_or_build(key(1), || panic!("hit expected"));
        let _ = cache.get_or_build(key(3), || dummy_session(3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let (_, o) = cache.get_or_build(key(1), || dummy_session(1));
        assert_eq!(o, CacheOutcome::Hit, "1 survived");
        let (_, o) = cache.get_or_build(key(2), || dummy_session(2));
        assert_eq!(o, CacheOutcome::Miss, "2 was evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = SessionCache::new(0);
        let (_, o1) = cache.get_or_build(key(1), || dummy_session(1));
        let (_, o2) = cache.get_or_build(key(1), || dummy_session(1));
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Miss);
        assert!(cache.is_empty());
    }

    #[test]
    fn evicted_sessions_stay_usable_through_their_arc() {
        let cache = SessionCache::new(1);
        let (held, _) = cache.get_or_build(key(1), || dummy_session(1));
        let _ = cache.get_or_build(key(2), || dummy_session(2));
        // `held` was evicted but its Arc keeps the artifacts alive.
        let session = held.read();
        let j = session.prioritized().instance().full_set();
        assert!(session.session().check(&j).is_optimal());
    }

    #[test]
    fn rekey_moves_the_entry_and_its_recency() {
        let cache = SessionCache::new(4);
        let (slot, _) = cache.get_or_build(key(1), || dummy_session(1));
        assert!(cache.rekey(key(1), key(9)));
        assert!(cache.get(key(1)).is_none(), "old key must be gone");
        let again = cache.get(key(9)).expect("entry lives under the new key");
        assert!(Arc::ptr_eq(&slot, &again));
        // Rekeying a missing key is a counted no-op.
        assert!(!cache.rekey(key(1), key(2)));
        assert_eq!(cache.len(), 1);
    }

    fn source(text: &str) -> Source {
        Source::new(text, Arc::from(Vec::new()))
    }

    #[test]
    fn armed_sources_are_found_by_their_bytes_only() {
        let cache = SessionCache::new(4);
        let (slot, _) = cache.get_or_build(key(1), || dummy_session(1));
        assert!(cache.get_by_source("ws one").is_none(), "nothing armed yet");
        let before = slot.bytes();
        cache.arm(key(1), &slot, source("ws one"));
        assert_eq!(slot.bytes(), before + "ws one".len(), "kept bytes are counted");
        let found = cache.get_by_source("ws one").expect("indexed by its bytes");
        assert!(Arc::ptr_eq(&found, &slot));
        assert!(found.source_for("ws one").is_some());
        assert!(found.source_for("ws one ").is_none());
        assert!(cache.get_by_source("ws two").is_none());

        // Re-arming replaces the slot's one source and index entry.
        cache.arm(key(1), &slot, source("ws two"));
        assert!(cache.get_by_source("ws one").is_none());
        assert!(cache.get_by_source("ws two").is_some());
        assert_eq!(cache.source_index_len(), 1);

        // A slot that is not the entry under the key is never armed.
        let stray = dummy_session(1);
        cache.arm(key(1), &stray, source("stray"));
        cache.arm(key(7), &stray, source("stray"));
        assert!(cache.get_by_source("stray").is_none());
        assert!(stray.source_for("stray").is_none());

        // A hash owned by another entry stays with its owner.
        let (other, _) = cache.get_or_build(key(2), || dummy_session(2));
        cache.arm(key(2), &other, source("ws two"));
        assert!(other.source_for("ws two").is_none());
        assert!(Arc::ptr_eq(&cache.get_by_source("ws two").unwrap(), &slot));
        assert_eq!(cache.source_index_len(), 1);
    }

    #[test]
    fn a_source_kept_at_build_is_indexed_on_insert() {
        let cache = SessionCache::new(4);
        let build = |tag, text| {
            let slot = dummy_session(tag);
            slot.keep_source(source(text));
            slot
        };
        let (slot, _) = cache.get_or_build(key(1), || build(1, "one"));
        assert!(Arc::ptr_eq(&cache.get_by_source("one").unwrap(), &slot));

        // Another entry inserted with the same hash leaves it with its
        // owner; once the owner drops it, a new entry can take it.
        let (_, outcome) = cache.get_or_build(key(9), || build(9, "one"));
        assert_eq!(outcome, CacheOutcome::Miss);
        assert!(Arc::ptr_eq(&cache.get_by_source("one").unwrap(), &slot), "hash already owned");
        assert_eq!(cache.source_index_len(), 1);
        cache.rekey(key(1), key(3));
        assert!(cache.get_by_source("one").is_none());
        let _ = cache.get_or_build(key(4), || build(4, "one"));
        assert!(cache.get_by_source("one").is_some(), "a freed hash is indexed again");
        assert_eq!(cache.source_index_len(), 1);
    }

    #[test]
    fn eviction_and_rekey_drop_the_byte_index_entry() {
        let cache = SessionCache::new(1);
        let (slot, _) = cache.get_or_build(key(1), || dummy_session(1));
        cache.arm(key(1), &slot, source("one"));
        let _ = cache.get_or_build(key(2), || dummy_session(2));
        assert!(cache.get_by_source("one").is_none(), "evicted with its entry");
        assert_eq!(cache.source_index_len(), 0);

        let slot = cache.get(key(2)).unwrap();
        cache.arm(key(2), &slot, source("two"));
        slot.clear_source();
        assert!(slot.source_for("two").is_none());
        assert!(cache.rekey(key(2), key(3)));
        assert!(cache.get_by_source("two").is_none(), "rekey drops the hash");
        assert_eq!(cache.source_index_len(), 0);
    }

    #[test]
    fn total_bytes_tracks_slots() {
        let cache = SessionCache::new(4);
        assert_eq!(cache.total_bytes(), 0);
        let (slot, _) = cache.get_or_build(key(1), || dummy_session(1));
        assert_eq!(cache.total_bytes(), slot.bytes() as u64);
        assert!(slot.bytes() > 0, "a non-empty session has a size estimate");
        let (slot2, _) = cache.get_or_build(key(2), || dummy_session(2));
        assert_eq!(cache.total_bytes(), (slot.bytes() + slot2.bytes()) as u64);
    }
}
