//! Incremental session mutation: patch cached workspaces instead of
//! rebuilding them.
//!
//! A [`CheckSession`](crate::CheckSession) amortizes the CSR conflict
//! graph and Lemma 4.2 block structures across many candidate checks —
//! but any change to the instance or priority relation used to discard
//! the whole session. A [`DeltaSession`] keeps those artifacts *live*
//! under mutation:
//!
//! * **Ids** — stable for the whole batch. A delete tombstones its fact
//!   ([`Instance::tombstone`](rpr_data::Instance::tombstone)): lookups
//!   miss it at once, so `delete X; insert X` works, but no id moves.
//!   Inserts append. At the end of the batch one order-preserving
//!   compaction ([`PrioritizedInstance::remove_facts`]) drops every
//!   tombstone, and each id-keyed structure below applies that same
//!   [`Compaction`](rpr_data::Compaction) once.
//! * **Conflict graph** — patched in place once per batch that touched
//!   facts, by [`CsrConflictGraph::patch`]: one pass over the packed
//!   neighbor array drops removed entries and renumbers the rest, each
//!   inserted fact's row comes from its single-FD relation's patched
//!   blocks or else one per-FD scan of its relation, and it is spliced
//!   into its surviving neighbors' rows. A batch that only removes
//!   facts it inserted itself (`insert F; delete F`) leaves the graph
//!   untouched.
//! * **Components** — [`ComponentLayout::patch`] re-runs the component
//!   DFS only inside components the batch touched and splices them
//!   back in min-member order; clean ones are renumbered in place.
//! * **FD blocks** — the touched relation's blocks are edited in place
//!   (binary search on the canonical lhs/rhs projection order, so the
//!   patch is bit-identical to `FdBlocks::build`); at the end of the
//!   batch every grouping is remapped once through the compaction,
//!   which preserves that order.
//! * **Shards** — clean shards are carried: each post-batch component
//!   whose members come from a pre-batch component the batch left alone
//!   keeps that component's `Arc<ShardData>` without a re-key (a store
//!   hit in component order, as a lookup would count). Only dirty
//!   components — touched by a delete, merged by an insert, or holding
//!   an endpoint of a classical `prefer`/`unprefer` — are re-keyed from
//!   their own bucket of priority edges. ccp Hard plans re-derive their
//!   union layout and re-key every shard.
//! * **Fingerprint** — the canonical 128-bit content fingerprint is
//!   maintained as [`ContentLanes`], whose fact-multiset and
//!   priority-edge-set lanes take O(1) add/remove, and cross-checked
//!   against the from-scratch [`content_fingerprint`] in debug builds.
//!
//! **Atomicity.** [`apply_delta`](DeltaSession::apply_delta) validates
//! the entire op sequence before touching anything, against an id-keyed
//! overlay of the batch's membership and priority-edge edits on top of
//! the current state; on any [`DeltaError`] the session is unchanged.
//!
//! **Bit-identity.** The id layout after a delta matches a from-scratch
//! build over the mutated workspace: within the batch ids are stable,
//! and the one compaction at its end renumbers survivors densely
//! (relative order preserved) with inserts after them, in insertion
//! order. The differential suite checks the CSR, the components,
//! verdicts, witnesses, certificates, and fingerprints of patched
//! sessions against cold rebuilds over randomized op sequences.
//!
//! **Rebuild threshold.** Batches whose structural churn (inserts +
//! deletes) reaches [`REBUILD_CHURN_PERCENT`] of the instance fall back
//! to a cold [`SessionArtifacts::build`] — above that point the
//! localized patches cost more than the rebuild they avoid. The report
//! says which path ran so operators can count rebuilds.

use crate::fingerprint::{content_fingerprint, ContentLanes};
use crate::session::{CheckSession, SessionArtifacts};
use crate::shard_store::{ShardData, ShardStore};
use rpr_classify::Complexity;
use rpr_data::fingerprint::Fingerprint;
use rpr_data::{Fact, FactId, FxHashMap, FxHashSet};
use rpr_fd::{ComponentLayout, CsrConflictGraph, Schema};
use rpr_priority::{PrioritizedInstance, PriorityMode, PriorityRelation};
use std::fmt;
use std::sync::Arc;

/// Structural churn (inserts + deletes as a percentage of the base
/// instance) at or above which a batch cold-rebuilds the artifacts
/// instead of patching them.
pub const REBUILD_CHURN_PERCENT: usize = 25;

/// One mutation of a prioritized instance. Facts are identified by
/// *content*, not id — ids are an internal dense numbering that shifts
/// under deletes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Add a fact. Errors if the fact is already present.
    InsertFact(Fact),
    /// Remove a fact. Errors if absent or still referenced by priority
    /// edges (drop the edges first).
    DeleteFact(Fact),
    /// Add (`prefer: true`) or remove (`prefer: false`) the priority
    /// edge `better ≻ worse`.
    SetPriority {
        /// The preferred fact.
        better: Fact,
        /// The dominated fact.
        worse: Fact,
        /// Add the edge (`true`) or remove it (`false`).
        prefer: bool,
    },
}

/// Why a delta batch was rejected. The session is unchanged whenever
/// one of these is returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// Insert of a fact that is already present.
    AlreadyPresent {
        /// Index of the offending op in the batch.
        op: usize,
        /// The fact, rendered with its relation name.
        fact: String,
    },
    /// Delete or priority edge referencing a fact not in the instance.
    MissingFact {
        /// Index of the offending op in the batch.
        op: usize,
        /// The fact, rendered with its relation name.
        fact: String,
    },
    /// Delete of a fact that still has incident priority edges.
    HasEdges {
        /// Index of the offending op in the batch.
        op: usize,
        /// The fact, rendered with its relation name.
        fact: String,
    },
    /// Prefer of an edge that already exists.
    DuplicateEdge {
        /// Index of the offending op in the batch.
        op: usize,
    },
    /// Unprefer of an edge that does not exist.
    MissingEdge {
        /// Index of the offending op in the batch.
        op: usize,
    },
    /// Prefer joining non-conflicting facts in conflict-restricted
    /// mode (§2.3 forbids such edges).
    NotConflicting {
        /// Index of the offending op in the batch.
        op: usize,
    },
    /// Prefer that would close a priority cycle (§2.3 demands
    /// acyclicity).
    Cyclic {
        /// Index of the offending op in the batch.
        op: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::AlreadyPresent { op, fact } => {
                write!(f, "op {op}: insert of fact already present: {fact}")
            }
            DeltaError::MissingFact { op, fact } => {
                write!(f, "op {op}: fact not in the instance: {fact}")
            }
            DeltaError::HasEdges { op, fact } => {
                write!(f, "op {op}: delete of fact with incident priority edges: {fact}")
            }
            DeltaError::DuplicateEdge { op } => {
                write!(f, "op {op}: preference already present")
            }
            DeltaError::MissingEdge { op } => {
                write!(f, "op {op}: unprefer of preference not present")
            }
            DeltaError::NotConflicting { op } => {
                write!(f, "op {op}: preference joins non-conflicting facts (conflict mode)")
            }
            DeltaError::Cyclic { op } => {
                write!(f, "op {op}: preference would create a cycle")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// What a successful [`apply_delta`](DeltaSession::apply_delta) did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaReport {
    /// Total ops applied (the batch length).
    pub applied: usize,
    /// Facts inserted.
    pub inserts: usize,
    /// Facts deleted.
    pub deletes: usize,
    /// Priority edges added or removed.
    pub priority_ops: usize,
    /// `true` when churn hit [`REBUILD_CHURN_PERCENT`] and the
    /// artifacts were cold-rebuilt instead of patched.
    pub rebuilt: bool,
    /// Nontrivial conflict components (session shards) after the batch.
    pub components_total: usize,
    /// Nontrivial pre-batch components the patched path carried over
    /// without re-deriving (renumber-only). `0` on the rebuild path;
    /// equal to `components_total` for batches that touched no facts.
    pub components_reused: usize,
}

/// A mutable, cache-resident check session: owned workspace plus live
/// artifacts and an incrementally-maintained content fingerprint.
/// See the module docs.
#[must_use = "a DeltaSession is the cached product of expensive preparation — store or use it"]
pub struct DeltaSession {
    schema: Arc<Schema>,
    pi: PrioritizedInstance,
    artifacts: SessionArtifacts,
    /// The fingerprint lanes of the current state.
    lanes: ContentLanes,
    /// The content-addressed shard store the session resolves its
    /// exact-path shards through; `None` keeps shards private.
    store: Option<Arc<ShardStore>>,
}

impl DeltaSession {
    /// Prepares a mutable session. This is the expensive step (CSR
    /// conflict graph, classification, block structures, lane
    /// accumulators); [`apply_delta`](Self::apply_delta) afterwards
    /// costs work proportional to the ops, not the workspace.
    pub fn prepare(schema: Arc<Schema>, pi: PrioritizedInstance) -> Self {
        Self::prepare_with_store(schema, pi, None)
    }

    /// [`DeltaSession::prepare`] with exact-path shards resolved
    /// through a shared [`ShardStore`]: components already cached by
    /// any workspace are reused instead of rebuilt, and every
    /// [`apply_delta`](Self::apply_delta) re-points the session's
    /// shard index through the store so clean shards stay shared
    /// across fingerprints.
    pub fn prepare_with_store(
        schema: Arc<Schema>,
        pi: PrioritizedInstance,
        store: Option<Arc<ShardStore>>,
    ) -> Self {
        let lanes = ContentLanes::of(&schema, &pi);
        Self::prepare_with_lanes(schema, pi, lanes, store)
    }

    /// [`DeltaSession::prepare_with_store`] for a caller that already
    /// built the workspace's [`ContentLanes`] (to key a cache by their
    /// fingerprint): the lanes move into the session instead of being
    /// digested again. They must be the lanes of `schema` and `pi`.
    pub fn prepare_with_lanes(
        schema: Arc<Schema>,
        pi: PrioritizedInstance,
        lanes: ContentLanes,
        store: Option<Arc<ShardStore>>,
    ) -> Self {
        debug_assert_eq!(
            lanes.fingerprint(),
            content_fingerprint(&schema, &pi),
            "lanes of another workspace"
        );
        let artifacts = SessionArtifacts::build_with_store(&schema, &pi, store.as_deref());
        DeltaSession { schema, pi, artifacts, lanes, store }
    }

    /// The shard store the session is attached to, if any.
    pub fn store(&self) -> Option<&Arc<ShardStore>> {
        self.store.as_ref()
    }

    /// The schema the session was prepared under.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The prioritized instance in its current (post-delta) state.
    pub fn prioritized(&self) -> &PrioritizedInstance {
        &self.pi
    }

    /// The complexity of checking under the cached classification.
    pub fn complexity(&self) -> Complexity {
        self.artifacts.complexity()
    }

    /// A borrowing [`CheckSession`] view over the live artifacts.
    /// Views are cheap; create one per request and configure `jobs` /
    /// budgets on the view.
    pub fn session(&self) -> CheckSession<'_> {
        CheckSession::from_artifacts(&self.schema, &self.pi, &self.artifacts)
    }

    /// The canonical content fingerprint of the current state, composed
    /// from the incrementally-maintained lanes. Bit-identical to
    /// [`content_fingerprint`] over the same workspace.
    pub fn fingerprint(&self) -> Fingerprint {
        self.lanes.fingerprint()
    }

    /// Approximate resident bytes of the workspace plus artifacts
    /// (cache-sizing gauge): the instance's
    /// [`heap_bytes`](rpr_data::Instance::heap_bytes) (fact rows, id
    /// index, and the value dictionary with its symbol text and pairs,
    /// each distinct value once), priority edges, and the session's
    /// [`structure_bytes`](SessionArtifacts::structure_bytes) — CSR
    /// conflict graph, component layout, domain bitsets, FD blocks.
    /// Linear in the workspace for sparse conflicts; shards are counted
    /// by the shard store.
    pub fn approx_bytes(&self) -> usize {
        let edges = self.pi.priority().edge_count() * 24;
        self.pi.instance().heap_bytes() + edges + self.artifacts.structure_bytes(self.pi.instance())
    }

    /// Applies a batch of ops atomically: the whole sequence is
    /// validated against the current state first, and on any error the
    /// session — artifacts, fingerprint, everything — is unchanged.
    ///
    /// # Errors
    /// The first [`DeltaError`] in op order.
    pub fn apply_delta(&mut self, ops: &[DeltaOp]) -> Result<DeltaReport, DeltaError> {
        let (inserts, deletes, priority_ops) = self.validate(ops)?;
        let structural = inserts + deletes;
        let rebuilt = structural * 100 >= self.pi.instance().len().max(4) * REBUILD_CHURN_PERCENT
            && structural > 0;
        let mut components_reused = 0;
        if rebuilt {
            let mut dead = Vec::new();
            for op in ops {
                self.apply_op_data(op, &mut dead);
            }
            self.pi.remove_facts(&dead);
            self.artifacts =
                SessionArtifacts::build_with_store(&self.schema, &self.pi, self.store.as_deref());
        } else {
            let mut tracker = ShardTracker::new(&self.artifacts);
            for op in ops {
                self.apply_op_patched(op, &mut tracker);
            }
            let carry = if structural > 0 {
                let (reused, carry) = self.finish_structural_batch(tracker);
                components_reused = reused;
                carry
            } else {
                components_reused = self.artifacts.shard_count();
                if priority_ops > 0 && self.artifacts.ccp_union.is_some() {
                    // ccp Hard shards follow conflict ∪ priority
                    // connectivity, so priority edits alone can split
                    // or merge them: the union layout is re-derived and
                    // every shard re-keyed.
                    self.artifacts.ccp_union = Some(SessionArtifacts::ccp_union_layout(
                        &self.artifacts.csr,
                        self.pi.priority(),
                    ));
                    Vec::new()
                } else {
                    tracker.settle();
                    let art = &self.artifacts;
                    let clean = tracker.clean_shards(&art.components, &art.exact_shards, |f| f);
                    carry(&art.components, clean)
                }
            };
            if structural > 0 || priority_ops > 0 {
                // Re-point the shard index: clean components keep their
                // handles (store hits, no re-key); dirtied components
                // are re-keyed and resolved by content.
                self.artifacts.attach_shards(&self.schema, &self.pi, self.store.as_deref(), carry);
                debug_assert!(
                    self.artifacts.shard_keys_match_rekey(&self.schema, &self.pi),
                    "carried shard keys diverged from a full re-key"
                );
            }
        }
        debug_assert_eq!(
            self.fingerprint(),
            content_fingerprint(&self.schema, &self.pi),
            "incremental fingerprint lanes diverged from the canonical composition"
        );
        Ok(DeltaReport {
            applied: ops.len(),
            inserts,
            deletes,
            priority_ops,
            rebuilt,
            components_total: self.artifacts.shard_count(),
            components_reused,
        })
    }

    /// Validates the op sequence without mutating anything and returns
    /// the op class counts on success.
    ///
    /// Facts get the ids the batch will give them: a present fact keeps
    /// its id, an insert takes the next free one, and a delete retires
    /// its fact's id (a later re-insert gets a fresh one), exactly as
    /// tombstones do in [`apply_delta`](Self::apply_delta). Only the
    /// facts the batch names enter the membership overlay, and the
    /// priority is read as the base relation's rows plus an overlay of
    /// the edges the batch adds and removes, so a batch costs work in
    /// its ops (and the cycle walks its `prefer`s need), not in the
    /// workspace's edges.
    fn validate(&self, ops: &[DeltaOp]) -> Result<(usize, usize, usize), DeltaError> {
        let inst = self.pi.instance();
        let priority = self.pi.priority();
        let sig = inst.signature();
        let classical = self.pi.mode() == PriorityMode::ConflictRestricted;
        let base = inst.len() as u32;
        // Membership overlay, content → batch id (`None`: deleted);
        // absent facts defer to the base instance.
        let mut ids: FxHashMap<Fact, Option<u32>> = FxHashMap::default();
        let id_of = |ids: &FxHashMap<Fact, Option<u32>>, f: &Fact| match ids.get(f) {
            Some(&id) => id,
            None => inst.id_of(f).map(|id| id.0),
        };
        let missing =
            |op: usize, f: &Fact| DeltaError::MissingFact { op, fact: f.display(sig).to_string() };
        let mut overlay = EdgeOverlay::default();
        let (mut inserts, mut deletes, mut priority_ops) = (0usize, 0usize, 0usize);
        for (i, op) in ops.iter().enumerate() {
            match op {
                DeltaOp::InsertFact(f) => {
                    if id_of(&ids, f).is_some() {
                        return Err(DeltaError::AlreadyPresent {
                            op: i,
                            fact: f.display(sig).to_string(),
                        });
                    }
                    ids.insert(f.clone(), Some(base + inserts as u32));
                    inserts += 1;
                }
                DeltaOp::DeleteFact(f) => {
                    let Some(id) = id_of(&ids, f) else { return Err(missing(i, f)) };
                    let base_degree = if id < base {
                        priority.worse_than(FactId(id)).len()
                            + priority.better_than(FactId(id)).len()
                    } else {
                        0
                    };
                    if base_degree as isize + overlay.degree(id) > 0 {
                        return Err(DeltaError::HasEdges {
                            op: i,
                            fact: f.display(sig).to_string(),
                        });
                    }
                    ids.insert(f.clone(), None);
                    deletes += 1;
                }
                DeltaOp::SetPriority { better, worse, prefer } => {
                    let Some(b) = id_of(&ids, better) else { return Err(missing(i, better)) };
                    let Some(w) = id_of(&ids, worse) else { return Err(missing(i, worse)) };
                    let present = overlay.added.contains(&(b, w))
                        || (priority.prefers(FactId(b), FactId(w))
                            && !overlay.removed.contains(&(b, w)));
                    if *prefer {
                        if present {
                            return Err(DeltaError::DuplicateEdge { op: i });
                        }
                        if classical && !self.schema.conflicting(better, worse) {
                            return Err(DeltaError::NotConflicting { op: i });
                        }
                        if overlay.reaches(priority, w, b) {
                            return Err(DeltaError::Cyclic { op: i });
                        }
                        overlay.prefer(b, w);
                    } else {
                        if !present {
                            return Err(DeltaError::MissingEdge { op: i });
                        }
                        overlay.unprefer(b, w);
                    }
                    priority_ops += 1;
                }
            }
        }
        Ok((inserts, deletes, priority_ops))
    }

    /// The validation [`validate`](Self::validate) replaced, kept as its
    /// oracle: a content-keyed simulation holding a copy of every
    /// priority edge by fact content.
    #[cfg(test)]
    fn validate_by_content(&self, ops: &[DeltaOp]) -> Result<(usize, usize, usize), DeltaError> {
        let inst = self.pi.instance();
        let sig = inst.signature();
        let classical = self.pi.mode() == PriorityMode::ConflictRestricted;
        // Membership overlay: absent key = defer to the base instance.
        let mut member: FxHashMap<Fact, bool> = FxHashMap::default();
        // Priority edges and a worse-adjacency, both by fact content.
        let mut edges: FxHashSet<(Fact, Fact)> = FxHashSet::default();
        let mut worse_of: FxHashMap<Fact, Vec<Fact>> = FxHashMap::default();
        let mut degree: FxHashMap<Fact, usize> = FxHashMap::default();
        for &(hi, lo) in self.pi.priority().edges() {
            let (hi, lo) = (inst.fact(hi).to_fact(), inst.fact(lo).to_fact());
            *degree.entry(hi.clone()).or_default() += 1;
            *degree.entry(lo.clone()).or_default() += 1;
            worse_of.entry(hi.clone()).or_default().push(lo.clone());
            edges.insert((hi, lo));
        }
        // Does `from ≻ … ≻ to` hold (including the trivial `from == to`
        // path, which rejects self-loops)?
        let reaches = |worse_of: &FxHashMap<Fact, Vec<Fact>>, from: &Fact, to: &Fact| {
            if from == to {
                return true;
            }
            let mut seen: FxHashSet<&Fact> = FxHashSet::default();
            let mut stack = vec![from];
            seen.insert(from);
            while let Some(node) = stack.pop() {
                for succ in worse_of.get(node).map_or(&[][..], |v| v) {
                    if succ == to {
                        return true;
                    }
                    if seen.insert(succ) {
                        stack.push(succ);
                    }
                }
            }
            false
        };
        let (mut inserts, mut deletes, mut priority_ops) = (0usize, 0usize, 0usize);
        for (i, op) in ops.iter().enumerate() {
            let present =
                |m: &FxHashMap<Fact, bool>, f: &Fact| *m.get(f).unwrap_or(&inst.id_of(f).is_some());
            match op {
                DeltaOp::InsertFact(f) => {
                    if present(&member, f) {
                        return Err(DeltaError::AlreadyPresent {
                            op: i,
                            fact: f.display(sig).to_string(),
                        });
                    }
                    member.insert(f.clone(), true);
                    inserts += 1;
                }
                DeltaOp::DeleteFact(f) => {
                    if !present(&member, f) {
                        return Err(DeltaError::MissingFact {
                            op: i,
                            fact: f.display(sig).to_string(),
                        });
                    }
                    if degree.get(f).copied().unwrap_or(0) > 0 {
                        return Err(DeltaError::HasEdges {
                            op: i,
                            fact: f.display(sig).to_string(),
                        });
                    }
                    member.insert(f.clone(), false);
                    deletes += 1;
                }
                DeltaOp::SetPriority { better, worse, prefer } => {
                    for f in [better, worse] {
                        if !present(&member, f) {
                            return Err(DeltaError::MissingFact {
                                op: i,
                                fact: f.display(sig).to_string(),
                            });
                        }
                    }
                    let key = (better.clone(), worse.clone());
                    if *prefer {
                        if edges.contains(&key) {
                            return Err(DeltaError::DuplicateEdge { op: i });
                        }
                        if classical && !self.schema.conflicting(better, worse) {
                            return Err(DeltaError::NotConflicting { op: i });
                        }
                        if reaches(&worse_of, worse, better) {
                            return Err(DeltaError::Cyclic { op: i });
                        }
                        *degree.entry(better.clone()).or_default() += 1;
                        *degree.entry(worse.clone()).or_default() += 1;
                        worse_of.entry(better.clone()).or_default().push(worse.clone());
                        edges.insert(key);
                    } else {
                        if !edges.remove(&key) {
                            return Err(DeltaError::MissingEdge { op: i });
                        }
                        *degree.entry(better.clone()).or_default() -= 1;
                        *degree.entry(worse.clone()).or_default() -= 1;
                        if let Some(row) = worse_of.get_mut(better) {
                            if let Some(pos) = row.iter().position(|f| f == worse) {
                                row.remove(pos);
                            }
                        }
                    }
                    priority_ops += 1;
                }
            }
        }
        Ok((inserts, deletes, priority_ops))
    }

    /// Applies one validated op to the workspace and fingerprint lanes
    /// only, returning the id of the fact it inserts or deletes. A
    /// delete tombstones its fact and records its id in `dead` for the
    /// batch's one compaction.
    fn apply_op_data(&mut self, op: &DeltaOp, dead: &mut Vec<FactId>) -> Option<FactId> {
        let sig = self.pi.instance().signature().clone();
        match op {
            DeltaOp::InsertFact(f) => {
                self.lanes.set_fact(&sig, f, true);
                Some(self.pi.insert_fact(f))
            }
            DeltaOp::DeleteFact(f) => {
                self.lanes.set_fact(&sig, f, false);
                let id = self.pi.instance().id_of(f).expect("validated delete");
                self.pi.tombstone_fact(id);
                dead.push(id);
                Some(id)
            }
            DeltaOp::SetPriority { better, worse, prefer } => {
                self.lanes.set_edge(&sig, better, worse, *prefer);
                let (bi, wi) = (
                    self.pi.instance().id_of(better).expect("validated endpoint"),
                    self.pi.instance().id_of(worse).expect("validated endpoint"),
                );
                if *prefer {
                    self.pi.add_edge(&self.schema, bi, wi).expect("validated edge");
                } else {
                    self.pi.remove_edge(bi, wi);
                }
                None
            }
        }
    }

    /// Applies one validated op, patching the artifacts in place. Ids
    /// stay stable for the whole batch: blocks of the touched single-FD
    /// relation are edited in place (canonical order makes the patch
    /// bit-identical to a rebuild), and nothing is renumbered until
    /// [`finish_structural_batch`](Self::finish_structural_batch)
    /// compacts once. `tracker` records the batch's tombstones and
    /// which pre-batch components the op dirtied, so the finish can skip
    /// the clean shards.
    fn apply_op_patched(&mut self, op: &DeltaOp, tracker: &mut ShardTracker) {
        match op {
            DeltaOp::InsertFact(f) => {
                let rel = f.rel();
                let id = self.apply_op_data(op, &mut tracker.dead).expect("an insert has a fact");
                let inst = self.pi.instance();
                for dom in &mut self.artifacts.rel_domains {
                    dom.grow(inst.len());
                }
                self.artifacts.rel_domains[rel.index()].insert(id);
                if let Some(blocks) = self.artifacts.rel_blocks[rel.index()].as_mut() {
                    blocks.insert(inst, id);
                }
            }
            DeltaOp::DeleteFact(f) => {
                // The tombstone keeps the fact's content for the blocks.
                let id = self.apply_op_data(op, &mut tracker.dead).expect("a delete has a fact");
                if let Some(blocks) = self.artifacts.rel_blocks[f.rel().index()].as_mut() {
                    blocks.remove(self.pi.instance(), id);
                }
                tracker.record_delete(&self.artifacts, id);
                // The domain bit goes with the compaction.
            }
            DeltaOp::SetPriority { better, worse, .. } => {
                let inst = self.pi.instance();
                for f in [better, worse] {
                    tracker.record_priority(
                        &self.artifacts,
                        inst.id_of(f).expect("validated endpoint"),
                    );
                }
                self.apply_op_data(op, &mut tracker.dead);
            }
        }
    }

    /// Compacts the batch's tombstones away once and patches the
    /// batch-amortized artifacts, scoped to the shards the batch
    /// dirtied: the instance, priority, domains and blocks apply the one
    /// [`Compaction`](rpr_data::Compaction); the CSR and the component
    /// layout are patched in place (the component DFS re-runs only
    /// inside touched components, clean ones are renumbered). Returns the number of nontrivial
    /// components reused without a re-derivation, and the shard carry
    /// for [`attach_shards`](SessionArtifacts::attach_shards).
    fn finish_structural_batch(
        &mut self,
        mut tracker: ShardTracker,
    ) -> (usize, Vec<Option<Arc<ShardData>>>) {
        let c = self.pi.remove_facts(&tracker.dead);
        let art = &mut self.artifacts;
        for dom in &mut art.rel_domains {
            dom.compact(&c);
        }
        for blocks in art.rel_blocks.iter_mut().flatten() {
            blocks.remap(&c);
        }
        // Rows of inserted facts, which hold the top ids: a single-FD
        // relation reads them off its patched blocks (the group minus
        // the fact's block); any other relation scans its facts.
        let inst = self.pi.instance();
        let first_new =
            tracker.base - tracker.dead.iter().filter(|d| d.index() < tracker.base).count();
        let inserted: Vec<Vec<u32>> = (first_new..inst.len())
            .map(|x| {
                let x = FactId(x as u32);
                match &art.rel_blocks[inst.fact(x).rel().index()] {
                    Some(blocks) => blocks.conflict_row(inst, x),
                    None => CsrConflictGraph::scan_row(&self.schema, inst, x),
                }
            })
            .collect();
        // An inserted fact can *merge* components, so its surviving
        // neighbors' old components count as touched.
        for &g in inserted.iter().flatten().filter(|&&g| (g as usize) < first_new) {
            tracker.touched.push(art.components.component_of(c.old_id(FactId(g))) as u32);
        }
        tracker.settle();
        let clean = if art.ccp_union.is_some() {
            Vec::new()
        } else {
            tracker.clean_shards(&art.components, &art.exact_shards, |lead| {
                c.new_id(lead).expect("a clean component lost no member")
            })
        };
        art.csr.patch(&c, &inserted);
        debug_assert!(
            art.csr == CsrConflictGraph::new(&self.schema, inst),
            "patched CSR diverged from a from-scratch build"
        );
        let reused = art.components.patch(&art.csr, &c, &tracker.touched);
        debug_assert!(
            art.components == ComponentLayout::from_csr(&art.csr),
            "patched component layout diverged from a from-scratch derivation"
        );
        let carry = if art.ccp_union.is_some() {
            // ccp Hard plans shard over the union layout, which is
            // re-derived from scratch: nothing carries.
            art.ccp_union = Some(SessionArtifacts::ccp_union_layout(&art.csr, self.pi.priority()));
            Vec::new()
        } else {
            carry(&art.components, clean)
        };
        (reused, carry)
    }

    /// Number of nontrivial conflict components (session shards) in the
    /// current state — the serve layer's `rpr_session_components`
    /// gauge.
    pub fn shard_count(&self) -> usize {
        self.artifacts.shard_count()
    }
}

/// A batch's priority-edge edits over the base relation, by batch id
/// (see [`DeltaSession::validate`]).
#[derive(Default)]
struct EdgeOverlay {
    /// Edges the batch added that the base lacks.
    added: FxHashSet<(u32, u32)>,
    /// Base edges the batch removed.
    removed: FxHashSet<(u32, u32)>,
    /// `added`, by better endpoint, for the cycle walk.
    added_worse: FxHashMap<u32, Vec<u32>>,
    /// Net change of each endpoint's degree.
    degree: FxHashMap<u32, isize>,
}

impl EdgeOverlay {
    fn degree(&self, id: u32) -> isize {
        self.degree.get(&id).copied().unwrap_or(0)
    }

    /// Records `b ≻ w`, absent so far.
    fn prefer(&mut self, b: u32, w: u32) {
        if !self.removed.remove(&(b, w)) {
            self.added.insert((b, w));
            self.added_worse.entry(b).or_default().push(w);
        }
        *self.degree.entry(b).or_default() += 1;
        *self.degree.entry(w).or_default() += 1;
    }

    /// Drops `b ≻ w`, present so far.
    fn unprefer(&mut self, b: u32, w: u32) {
        if self.added.remove(&(b, w)) {
            let row = self.added_worse.get_mut(&b).expect("added edges are indexed");
            row.retain(|&x| x != w);
        } else {
            self.removed.insert((b, w));
        }
        *self.degree.entry(b).or_default() -= 1;
        *self.degree.entry(w).or_default() -= 1;
    }

    /// Does `from ≻ … ≻ to` hold in `base` with the overlay applied
    /// (including the trivial `from == to` path, which rejects
    /// self-loops)?
    fn reaches(&self, base: &PriorityRelation, from: u32, to: u32) -> bool {
        if from == to {
            return true;
        }
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut stack = vec![from];
        seen.insert(from);
        while let Some(node) = stack.pop() {
            let base_row =
                if (node as usize) < base.len() { base.worse_than(FactId(node)) } else { &[] };
            let kept = base_row.iter().map(|g| g.0).filter(|&g| !self.removed.contains(&(node, g)));
            let added = self.added_worse.get(&node).into_iter().flatten().copied();
            for succ in kept.chain(added) {
                if succ == to {
                    return true;
                }
                if seen.insert(succ) {
                    stack.push(succ);
                }
            }
        }
        false
    }
}

/// Places the clean pre-batch shards — each with its component's lead
/// member in post-batch ids — at their components of the post-batch
/// `layout`. A clean component has exactly its old members (renumbered
/// in order) and its old intra-component edges, so its shard and key
/// are unchanged. Empty when nothing carries.
fn carry(
    layout: &ComponentLayout,
    clean: Vec<(FactId, Arc<ShardData>)>,
) -> Vec<Option<Arc<ShardData>>> {
    if clean.is_empty() {
        return Vec::new();
    }
    let mut carry = vec![None; layout.len()];
    for (lead, shard) in clean {
        carry[layout.component_of(lead)] = Some(shard);
    }
    carry
}

/// Per-batch dirty-shard bookkeeping for the patched delta path: the
/// batch's tombstones plus which pre-batch components it touched.
/// Deletes dirty the deleted fact's whole component (removing a bridge
/// fact can split it); inserts are resolved at batch finish from the
/// final adjacency (an insert can merge several components); priority
/// ops dirty the shard content, not the structure, of their endpoints'
/// components.
struct ShardTracker {
    /// Universe before the batch: batch ids from here on are facts the
    /// batch inserted.
    base: usize,
    /// Batch ids the batch deleted, in op order.
    dead: Vec<FactId>,
    /// Pre-batch components structurally dirtied by this batch.
    touched: Vec<u32>,
    /// Pre-batch components whose priority edges this batch edited.
    reprioritized: Vec<u32>,
}

impl ShardTracker {
    fn new(artifacts: &SessionArtifacts) -> Self {
        ShardTracker {
            base: artifacts.components.universe(),
            dead: Vec::new(),
            touched: Vec::new(),
            reprioritized: Vec::new(),
        }
    }

    /// Records a priority op with endpoint `f` (batch id). A
    /// conflict-restricted edge joins two facts of one component, so
    /// only that component's shard changes; an endpoint inserted by
    /// this batch lies in a component the batch re-derives anyway.
    fn record_priority(&mut self, artifacts: &SessionArtifacts, f: FactId) {
        if f.index() < self.base {
            self.reprioritized.push(artifacts.components.component_of(f) as u32);
        }
    }

    /// Records a delete of the batch id `d`.
    fn record_delete(&mut self, artifacts: &SessionArtifacts, d: FactId) {
        if d.index() < self.base {
            self.touched.push(artifacts.components.component_of(d) as u32);
        }
    }

    /// Sorts and deduplicates the dirty component lists.
    fn settle(&mut self) {
        for list in [&mut self.touched, &mut self.reprioritized] {
            list.sort_unstable();
            list.dedup();
        }
    }

    /// The pre-batch shards of a classical plan (exact layout = conflict
    /// components) that the batch left alone, each with its component's
    /// lead member mapped through `new_id`. Call after
    /// [`settle`](Self::settle) and before the layout is patched.
    fn clean_shards(
        &self,
        old: &ComponentLayout,
        shards: &[Option<Arc<ShardData>>],
        new_id: impl Fn(FactId) -> FactId,
    ) -> Vec<(FactId, Arc<ShardData>)> {
        let dirty = |c: u32| {
            self.touched.binary_search(&c).is_ok() || self.reprioritized.binary_search(&c).is_ok()
        };
        shards
            .iter()
            .enumerate()
            .filter_map(|(c, shard)| {
                let shard = shard.as_ref()?;
                (!dirty(c as u32)).then(|| (new_id(old.component(c)[0]), Arc::clone(shard)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{FactSet, Instance, Signature, Value, ValueId};

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    fn workspace() -> (Arc<Schema>, PrioritizedInstance) {
        let sig = Signature::new([("R", 2), ("S", 2)]).unwrap();
        let schema =
            Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..]), ("S", &[1][..], &[2][..])])
                .unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [v("a"), v("x")]).unwrap(); // 0
        i.insert_named("R", [v("a"), v("y")]).unwrap(); // 1
        i.insert_named("R", [v("b"), v("x")]).unwrap(); // 2
        i.insert_named("S", [v("k"), v("1")]).unwrap(); // 3
        i.insert_named("S", [v("k"), v("2")]).unwrap(); // 4
        let p = PriorityRelation::new(i.len(), [(FactId(0), FactId(1))]).unwrap();
        let pi = PrioritizedInstance::conflict_restricted(&schema, i, p).unwrap();
        (Arc::new(schema), pi)
    }

    fn fact(pi: &PrioritizedInstance, rel: &str, a: &str, b: &str) -> Fact {
        Fact::parse_new(pi.instance().signature(), rel, [v(a), v(b)]).unwrap()
    }

    /// The patched session must agree with a freshly-prepared one on
    /// fingerprint and on every check over every subset.
    fn assert_matches_cold(ds: &DeltaSession) {
        let cold = DeltaSession::prepare(Arc::clone(ds.schema()), ds.prioritized().clone());
        assert_eq!(ds.fingerprint(), cold.fingerprint());
        let n = ds.prioritized().instance().len();
        assert!(n <= 12, "exhaustive subset check needs a small instance");
        for bits in 0..(1u32 << n) {
            let mut j = FactSet::empty(n);
            for b in 0..n {
                if bits >> b & 1 == 1 {
                    j.insert(FactId(b as u32));
                }
            }
            assert_eq!(
                ds.session().check(&j),
                cold.session().check(&j),
                "candidate {j:?} diverged"
            );
        }
    }

    #[test]
    fn patched_inserts_and_deletes_match_cold_rebuild() {
        let (schema, pi) = workspace();
        let mut ds = DeltaSession::prepare(schema, pi);
        let f_new = fact(ds.prioritized(), "R", "b", "z");
        let f_old = fact(ds.prioritized(), "S", "k", "1");
        let report = ds
            .apply_delta(&[DeltaOp::InsertFact(f_new.clone()), DeltaOp::DeleteFact(f_old.clone())])
            .unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!((report.inserts, report.deletes), (1, 1));
        assert_matches_cold(&ds);
    }

    #[test]
    fn priority_ops_match_cold_rebuild() {
        let (schema, pi) = workspace();
        let mut ds = DeltaSession::prepare(schema, pi);
        let (s1, s2) =
            (fact(ds.prioritized(), "S", "k", "1"), fact(ds.prioritized(), "S", "k", "2"));
        let (r_x, r_y) =
            (fact(ds.prioritized(), "R", "a", "x"), fact(ds.prioritized(), "R", "a", "y"));
        let report = ds
            .apply_delta(&[
                DeltaOp::SetPriority { better: s2.clone(), worse: s1.clone(), prefer: true },
                DeltaOp::SetPriority { better: r_x, worse: r_y, prefer: false },
            ])
            .unwrap();
        assert_eq!(report.priority_ops, 2);
        assert!(!report.rebuilt, "priority-only batches never rebuild");
        assert_matches_cold(&ds);
    }

    #[test]
    fn delete_then_reinsert_round_trips_the_fingerprint() {
        let (schema, pi) = workspace();
        let mut ds = DeltaSession::prepare(schema, pi);
        let before = ds.fingerprint();
        let f = fact(ds.prioritized(), "S", "k", "1");
        ds.apply_delta(&[DeltaOp::DeleteFact(f.clone())]).unwrap();
        assert_ne!(ds.fingerprint(), before);
        ds.apply_delta(&[DeltaOp::InsertFact(f)]).unwrap();
        assert_eq!(ds.fingerprint(), before);
        assert_matches_cold(&ds);
    }

    #[test]
    fn failed_batches_leave_the_session_unchanged() {
        let (schema, pi) = workspace();
        let mut ds = DeltaSession::prepare(schema, pi);
        let before = ds.fingerprint();
        let good = fact(ds.prioritized(), "R", "c", "w");
        let dup = fact(ds.prioritized(), "R", "a", "x");
        let err =
            ds.apply_delta(&[DeltaOp::InsertFact(good), DeltaOp::InsertFact(dup)]).unwrap_err();
        assert!(matches!(err, DeltaError::AlreadyPresent { op: 1, .. }));
        assert_eq!(ds.fingerprint(), before);
        assert_eq!(ds.prioritized().instance().len(), 5);
        assert_matches_cold(&ds);
    }

    #[test]
    fn validation_rejects_every_error_class() {
        let (schema, pi) = workspace();
        let mut ds = DeltaSession::prepare(schema, pi);
        let (r_x, r_y) =
            (fact(ds.prioritized(), "R", "a", "x"), fact(ds.prioritized(), "R", "a", "y"));
        let r_b = fact(ds.prioritized(), "R", "b", "x");
        let ghost = fact(ds.prioritized(), "R", "q", "q");
        type ErrCase = (Vec<DeltaOp>, fn(&DeltaError) -> bool);
        let cases: Vec<ErrCase> = vec![
            (vec![DeltaOp::DeleteFact(ghost.clone())], |e| {
                matches!(e, DeltaError::MissingFact { op: 0, .. })
            }),
            // Fact 0 carries the seed edge 0 ≻ 1.
            (vec![DeltaOp::DeleteFact(r_x.clone())], |e| {
                matches!(e, DeltaError::HasEdges { op: 0, .. })
            }),
            (
                vec![DeltaOp::SetPriority {
                    better: r_x.clone(),
                    worse: r_y.clone(),
                    prefer: true,
                }],
                |e| matches!(e, DeltaError::DuplicateEdge { op: 0 }),
            ),
            (
                vec![DeltaOp::SetPriority {
                    better: r_y.clone(),
                    worse: r_x.clone(),
                    prefer: true,
                }],
                |e| matches!(e, DeltaError::Cyclic { op: 0 }),
            ),
            (
                vec![DeltaOp::SetPriority {
                    better: r_x.clone(),
                    worse: r_b.clone(),
                    prefer: true,
                }],
                |e| matches!(e, DeltaError::NotConflicting { op: 0 }),
            ),
            (
                vec![DeltaOp::SetPriority {
                    better: r_y.clone(),
                    worse: r_b.clone(),
                    prefer: false,
                }],
                |e| matches!(e, DeltaError::MissingEdge { op: 0 }),
            ),
            (vec![DeltaOp::InsertFact(r_b.clone())], |e| {
                matches!(e, DeltaError::AlreadyPresent { op: 0, .. })
            }),
        ];
        let before = ds.fingerprint();
        for (ops, check) in cases {
            let err = ds.apply_delta(&ops).unwrap_err();
            assert!(check(&err), "unexpected error {err:?} for {ops:?}");
            assert_eq!(ds.fingerprint(), before, "failed batch mutated state");
        }
    }

    /// `R(k, b, c)` under `1 → 2`, `keys` keys with two blocks of two
    /// facts each and the first block preferred: the shape of the
    /// serving benchmark's large single-FD workspace.
    fn large_1fd(keys: i64) -> DeltaSession {
        let sig = Signature::new([("R", 3)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        let mut edges = Vec::new();
        for k in 0..keys {
            let mut id =
                |b, c| i.insert_named("R", [Value::Int(k), Value::Int(b), Value::Int(c)]).unwrap();
            let (f00, _f01, f10, _f11) = (id(0, 0), id(0, 1), id(1, 0), id(1, 1));
            edges.push((f00, f10));
        }
        let p = PriorityRelation::new(i.len(), edges).unwrap();
        let pi = PrioritizedInstance::conflict_restricted(&schema, i, p).unwrap();
        DeltaSession::prepare(Arc::new(schema), pi)
    }

    #[test]
    fn approx_bytes_is_linear_in_the_workspace() {
        let (small, large) = (large_1fd(2000).approx_bytes(), large_1fd(4000).approx_bytes());
        assert!(large > small);
        assert!(
            large as f64 <= 2.2 * small as f64,
            "doubling the workspace took the estimate from {small} to {large} bytes"
        );
        // Besides the artifacts, at least every fact's relation and row
        // of value ids (4 facts of arity 3 per key) and each of the
        // 4000 distinct keys once.
        let ds = large_1fd(4000);
        let workspace =
            ds.approx_bytes() - ds.artifacts.structure_bytes(ds.prioritized().instance());
        let row = std::mem::size_of::<rpr_data::RelId>() + 3 * std::mem::size_of::<ValueId>();
        let floor = 4 * 4000 * row + 4000 * std::mem::size_of::<Value>();
        assert!(workspace >= floor, "{workspace} workspace bytes for 16 000 facts, below {floor}");
    }

    #[test]
    fn heavy_churn_takes_the_rebuild_path() {
        let (schema, pi) = workspace();
        let mut ds = DeltaSession::prepare(schema, pi);
        let sig = ds.prioritized().instance().signature().clone();
        let ops: Vec<DeltaOp> = (0..4)
            .map(|k| {
                DeltaOp::InsertFact(
                    Fact::parse_new(&sig, "S", [v(&format!("n{k}")), v("1")]).unwrap(),
                )
            })
            .collect();
        let report = ds.apply_delta(&ops).unwrap();
        assert!(report.rebuilt, "4 inserts into 5 facts is 80% churn");
        assert_matches_cold(&ds);
        // A single follow-up op patches instead.
        let one = fact(ds.prioritized(), "S", "n9", "9");
        let report = ds.apply_delta(&[DeltaOp::InsertFact(one)]).unwrap();
        assert!(!report.rebuilt);
        assert_matches_cold(&ds);
    }

    /// `chain_components(64, 6)` under the per-chain priority
    /// `f2 ≻ f1 ≻ f0`, prepared with or without a shard store.
    fn chains(store: Option<Arc<ShardStore>>) -> DeltaSession {
        let (schema, instance) = rpr_gen::chain_components(64, 6);
        let at = |k: u32, i: u32| FactId(6 * k + i);
        let edges = (0..64).flat_map(|k| [(at(k, 1), at(k, 0)), (at(k, 2), at(k, 1))]);
        let priority = PriorityRelation::new(instance.len(), edges).unwrap();
        let pi = PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
        DeltaSession::prepare_with_store(Arc::new(schema), pi, store)
    }

    /// Fact `i` of chain `k`, by content.
    fn chain_fact(ds: &DeltaSession, k: usize, i: usize) -> Fact {
        ds.prioritized().instance().fact(FactId((6 * k + i) as u32)).to_fact()
    }

    /// The shard handle of the component holding `f`.
    fn shard_of(ds: &DeltaSession, f: &Fact) -> Arc<ShardData> {
        let id = ds.prioritized().instance().id_of(f).expect("fact present");
        let c = ds.artifacts.components.component_of(id);
        Arc::clone(ds.artifacts.exact_shards[c].as_ref().expect("nontrivial component"))
    }

    /// Applies `ops` and returns which chains kept their pre-batch
    /// shard handle (by `Arc::ptr_eq`), keyed by each chain's fact 0.
    fn kept_chains(ds: &mut DeltaSession, ops: &[DeltaOp]) -> Vec<bool> {
        let leads: Vec<Fact> = (0..64).map(|k| chain_fact(ds, k, 0)).collect();
        let before: Vec<Arc<ShardData>> = leads.iter().map(|f| shard_of(ds, f)).collect();
        let report = ds.apply_delta(ops).unwrap();
        assert!(!report.rebuilt);
        leads.iter().zip(&before).map(|(f, old)| Arc::ptr_eq(&shard_of(ds, f), old)).collect()
    }

    #[test]
    fn one_op_delta_carries_every_clean_shard() {
        for store in [None, Some(Arc::new(ShardStore::new()))] {
            let mut ds = chains(store.clone());
            let stats = store.as_ref().map(|s| s.stats());
            // Fact 3 carries no edge; deleting it splits chain 5 in two.
            let split = DeltaOp::DeleteFact(chain_fact(&ds, 5, 3));
            let kept = kept_chains(&mut ds, &[split]);
            assert_eq!(kept.iter().filter(|&&k| k).count(), 63);
            assert!(!kept[5], "the split chain is re-keyed");
            assert_eq!(ds.shard_count(), 65);
            if let (Some(store), Some(before)) = (&store, stats) {
                let after = store.stats();
                assert_eq!(after.hits - before.hits, 63, "one hit per clean shard");
                assert_eq!(after.misses - before.misses, 2, "one miss per dirty shard");
            }
        }
    }

    #[test]
    fn classical_prefer_dirties_exactly_its_own_component() {
        for store in [None, Some(Arc::new(ShardStore::new()))] {
            let mut ds = chains(store.clone());
            let stats = store.as_ref().map(|s| s.stats());
            let (better, worse) = (chain_fact(&ds, 9, 4), chain_fact(&ds, 9, 3));
            let old_key = shard_of(&ds, &better).fingerprint();
            let kept = kept_chains(
                &mut ds,
                &[DeltaOp::SetPriority { better: better.clone(), worse, prefer: true }],
            );
            assert_eq!(kept.iter().filter(|&&k| k).count(), 63);
            assert!(!kept[9]);
            assert_ne!(shard_of(&ds, &better).fingerprint(), old_key);
            if let (Some(store), Some(before)) = (&store, stats) {
                let after = store.stats();
                assert_eq!((after.hits - before.hits, after.misses - before.misses), (63, 1));
            }
        }
    }

    #[test]
    fn insert_then_delete_in_one_batch_keeps_every_shard_and_memo() {
        for store in [None, Some(Arc::new(ShardStore::new()))] {
            let mut ds = chains(store.clone());
            // Fill every shard's verdict memo.
            let j = ds
                .prioritized()
                .instance()
                .set_of(ds.prioritized().instance().fact_ids().filter(|f| f.index() % 6 % 2 == 0));
            let verdict = ds.session().check(&j);
            assert!(verdict.is_optimal());
            let stats = store.as_ref().map(|s| s.stats());
            // A fresh fact conflicting with chain 7's fact 0.
            let sig = ds.prioritized().instance().signature().clone();
            let f = Fact::parse_new(&sig, "R4", [v("a7_0"), v("b-new"), v("c-new")]).unwrap();
            let kept =
                kept_chains(&mut ds, &[DeltaOp::InsertFact(f.clone()), DeltaOp::DeleteFact(f)]);
            assert!(kept.iter().all(|&k| k), "a batch that nets out dirties nothing");
            if let (Some(store), Some(before)) = (&store, stats) {
                let after = store.stats();
                assert_eq!((after.hits - before.hits, after.misses - before.misses), (64, 0));
            }
            for shard in ds.artifacts.exact_shards.iter().flatten() {
                assert_eq!(shard.memo_len(), 1, "verdict memos survive the batch");
            }
            assert_eq!(ds.session().check(&j), verdict);
        }
    }

    #[test]
    fn a_dirty_component_whose_content_comes_back_keeps_its_shard_and_memo() {
        for store in [None, Some(Arc::new(ShardStore::new()))] {
            let mut ds = chains(store.clone());
            let inst = ds.prioritized().instance();
            let j = inst.set_of(inst.fact_ids().filter(|f| f.index() % 6 % 2 == 0));
            let verdict = ds.session().check(&j);
            let stats = store.as_ref().map(|s| s.stats());
            // Chain 9 is re-keyed (a priority op touched it) and lands
            // on its pre-batch key.
            let (better, worse) = (chain_fact(&ds, 9, 4), chain_fact(&ds, 9, 3));
            let kept = kept_chains(
                &mut ds,
                &[
                    DeltaOp::SetPriority {
                        better: better.clone(),
                        worse: worse.clone(),
                        prefer: true,
                    },
                    DeltaOp::SetPriority { better: better.clone(), worse, prefer: false },
                ],
            );
            assert!(kept.iter().all(|&k| k));
            assert_eq!(shard_of(&ds, &better).memo_len(), 1, "the re-keyed shard keeps its memo");
            if let (Some(store), Some(before)) = (&store, stats) {
                let after = store.stats();
                assert_eq!((after.hits - before.hits, after.misses - before.misses), (64, 0));
            }
            assert_eq!(ds.session().check(&j), verdict);
        }
    }

    /// Deleting a fact and inserting it back moves it to the end of
    /// the id order: its component keeps its content but not its local
    /// coordinates, so the pre-batch shard must not be reused — neither
    /// from a private session's own handles nor from the store. Every
    /// candidate of random hard workspaces must then answer as a cold
    /// build does.
    #[test]
    fn reordering_deltas_never_reuse_a_misaligned_shard() {
        use rand::SeedableRng;
        for seed in 0..48u64 {
            let schema = rpr_gen::hard_schema(4);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let spec = rpr_gen::InstanceSpec { facts_per_relation: 9, domain: 3 };
            let instance = rpr_gen::random_instance(&schema, spec, &mut rng);
            let n = instance.len();
            let cg = rpr_fd::CsrConflictGraph::new(&schema, &instance);
            let priority = rpr_gen::random_conflict_priority(&cg, 0.5, &mut rng);
            let pi = PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
            let schema = Arc::new(schema);
            for d in (0..n as u32).map(FactId) {
                let p = pi.priority();
                if !(p.worse_than(d).is_empty() && p.better_than(d).is_empty()) {
                    continue;
                }
                let f = pi.instance().fact(d).to_fact();
                let ops = [DeltaOp::DeleteFact(f.clone()), DeltaOp::InsertFact(f)];
                for store in [None, Some(Arc::new(ShardStore::new()))] {
                    let mut ds =
                        DeltaSession::prepare_with_store(Arc::clone(&schema), pi.clone(), store);
                    ds.apply_delta(&ops).unwrap();
                    let cold = DeltaSession::prepare(Arc::clone(&schema), ds.prioritized().clone());
                    for bits in 0..1u32 << n {
                        let j = ds
                            .prioritized()
                            .instance()
                            .set_of((0..n as u32).filter(|b| bits >> b & 1 == 1).map(FactId));
                        assert_eq!(
                            ds.session().check(&j),
                            cold.session().check(&j),
                            "seed {seed}, fact {d:?} moved, candidate {j:?}"
                        );
                    }
                }
            }
        }
    }

    /// The block members the serve gauge counts from relation sizes
    /// equal a walk over every block, before and after deltas.
    #[test]
    fn block_member_count_equals_the_walked_count() {
        let walked = |ds: &DeltaSession| -> usize {
            let blocks = ds.artifacts.rel_blocks.iter().flatten();
            blocks.map(|b| (0..b.group_count()).flat_map(|g| b.blocks(g)).flatten().count()).sum()
        };
        let counted = |ds: &DeltaSession| -> usize {
            let inst = ds.prioritized().instance();
            let rels = inst.signature().rel_ids();
            rels.filter(|rel| ds.artifacts.rel_blocks[rel.index()].is_some())
                .map(|rel| inst.facts_of(rel).len())
                .sum()
        };
        let (schema, pi) = workspace();
        let mut sessions = vec![DeltaSession::prepare(schema, pi), large_1fd(50), chains(None)];
        for ds in &mut sessions {
            assert_eq!(counted(ds), walked(ds));
            let sig = ds.prioritized().instance().signature().clone();
            let (rel, sym) = sig.iter().next().unwrap();
            let fresh = Fact::new(
                &sig,
                rel,
                rpr_data::Tuple::new((0..sym.arity()).map(|k| Value::sym(format!("zz{k}")))),
            )
            .unwrap();
            let free = (0..ds.prioritized().instance().len() as u32).map(FactId).find(|&f| {
                let p = ds.prioritized().priority();
                p.worse_than(f).is_empty() && p.better_than(f).is_empty()
            });
            let victim = ds.prioritized().instance().fact(free.unwrap()).to_fact();
            ds.apply_delta(&[DeltaOp::InsertFact(fresh), DeltaOp::DeleteFact(victim)]).unwrap();
            assert_eq!(counted(ds), walked(ds));
        }
        // The chains are a hard schema: no blocks, counted as none.
        assert!(sessions[..2].iter().all(|ds| walked(ds) > 0), "single-FD workspaces keep blocks");
    }

    /// One random op over a small pool of facts: mostly plausible,
    /// often invalid (present inserts, absent deletes, duplicate or
    /// cyclic or non-conflicting prefers), so every error class shows.
    fn pooled_op(pool: &[Fact], kind: u8, a: usize, b: usize) -> DeltaOp {
        let (fa, fb) = (pool[a % pool.len()].clone(), pool[b % pool.len()].clone());
        match kind % 4 {
            0 => DeltaOp::InsertFact(fa),
            1 => DeltaOp::DeleteFact(fa),
            k => DeltaOp::SetPriority { better: fa, worse: fb, prefer: k == 2 },
        }
    }

    fn pool(ds: &DeltaSession) -> Vec<Fact> {
        let sig = ds.prioritized().instance().signature().clone();
        let mut pool = Vec::new();
        for a in ["a", "b", "c"] {
            for x in ["x", "y", "z"] {
                pool.push(Fact::parse_new(&sig, "R", [v(a), v(x)]).unwrap());
            }
        }
        for k in ["k", "j"] {
            for x in ["1", "2"] {
                pool.push(Fact::parse_new(&sig, "S", [v(k), v(x)]).unwrap());
            }
        }
        pool
    }

    proptest::proptest! {
        /// The id-keyed validation agrees with the content-keyed
        /// simulation it replaced: the same op counts, or the same
        /// first error. Accepted batches are applied, so later batches
        /// validate against edges and ids earlier ones left behind, in
        /// both priority modes.
        #[test]
        fn id_overlay_validation_matches_the_content_keyed_oracle(
            ccp in proptest::prelude::any::<bool>(),
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0usize..13, 0usize..13), 1..10),
                1..8,
            ),
        ) {
            let (schema, pi) = workspace();
            let pi = if ccp {
                let (i, p) = (pi.instance().clone(), pi.priority().clone());
                PrioritizedInstance::cross_conflict(i, p)
            } else {
                pi
            };
            let mut ds = DeltaSession::prepare(schema, pi);
            let pool = pool(&ds);
            for batch in batches {
                let ops: Vec<DeltaOp> =
                    batch.into_iter().map(|(k, a, b)| pooled_op(&pool, k, a, b)).collect();
                let want = ds.validate_by_content(&ops);
                proptest::prop_assert_eq!(ds.validate(&ops), want.clone(), "{:?}", ops);
                if want.is_ok() {
                    ds.apply_delta(&ops).unwrap();
                }
            }
        }
    }
}
