//! Canonical content fingerprints of prioritized instances.
//!
//! The serving layer caches prepared sessions keyed by the *content* of
//! `(schema, FDs, instance, priority, mode)`. This module composes the
//! `rpr-data` fingerprint primitives into that key: every component is
//! hashed by content (relation names, tuple values, endpoint facts of
//! priority edges) and set-valued components are combined
//! order-insensitively, so two workspaces declaring the same data in
//! different orders — and therefore assigning different `FactId`s —
//! produce the same fingerprint.
//!
//! The composition is written once, in [`ContentLanes`]: five lanes
//! (schema, signature, fact multiset, edge set, mode) built from one
//! digest pass over the facts. It lives in rpr-core (rather than the
//! format crate, which applies it to workspace files) because
//! [`DeltaSession`](crate::DeltaSession) keeps the lanes live across
//! mutations and must agree bit-for-bit with a from-scratch build.

use rpr_data::fingerprint::{
    combine_unordered, fingerprint_fact, fingerprint_facts, Fingerprint, FingerprintBuilder,
    UnorderedAccumulator,
};
use rpr_data::{fingerprint_signature, Fact, Instance, Signature};
use rpr_fd::Schema;
use rpr_priority::{PrioritizedInstance, PriorityMode, PriorityRelation};

/// Fingerprint of a schema: its signature plus the *set* of FDs
/// (each hashed by relation name and attribute bitmasks).
pub fn schema_fingerprint(schema: &Schema) -> Fingerprint {
    let sig = schema.signature();
    let mut b = FingerprintBuilder::new();
    b.fingerprint(rpr_data::fingerprint_signature(sig));
    b.fingerprint(combine_unordered(schema.fds().iter().map(|fd| {
        let mut f = FingerprintBuilder::new();
        f.str(sig.symbol(fd.rel).name()).word(fd.lhs.bits()).word(fd.rhs.bits());
        f.finish()
    })));
    b.finish()
}

/// Fingerprint of one priority edge `hi ≻ lo`, hashed as the ordered
/// pair of its endpoint facts' content digests (so renumbering facts
/// does not change the result).
pub fn priority_edge_fingerprint(sig: &Signature, hi: &Fact, lo: &Fact) -> Fingerprint {
    edge_of_digests(fingerprint_fact(sig, hi), fingerprint_fact(sig, lo))
}

/// [`priority_edge_fingerprint`] from its endpoints' digests.
fn edge_of_digests(hi: Fingerprint, lo: Fingerprint) -> Fingerprint {
    let mut b = FingerprintBuilder::new();
    b.fingerprint(hi).fingerprint(lo);
    b.finish()
}

/// The lanes of the canonical 128-bit content fingerprint of a
/// prioritized instance under a schema: the schema (signature + FDs),
/// the instance's signature, the multiset of fact digests, the set of
/// [`priority_edge_fingerprint`]s, and the priority mode. The fact and
/// edge lanes are [`UnorderedAccumulator`]s, so declaration order does
/// not matter and a delta updates them in O(1) per op.
#[derive(Clone, Debug)]
pub struct ContentLanes {
    schema_fp: Fingerprint,
    sig_fp: Fingerprint,
    facts: UnorderedAccumulator,
    edges: UnorderedAccumulator,
    mode_word: u64,
}

impl ContentLanes {
    /// Builds the lanes with one digest per fact: each priority edge
    /// reuses its endpoints' digests.
    pub fn new(
        schema: &Schema,
        instance: &Instance,
        priority: &PriorityRelation,
        mode: PriorityMode,
    ) -> Self {
        let sig = instance.signature();
        let digests = fingerprint_facts(instance);
        let edges = priority
            .edges()
            .iter()
            .map(|&(hi, lo)| edge_of_digests(digests[hi.index()], digests[lo.index()]));
        ContentLanes {
            schema_fp: schema_fingerprint(schema),
            sig_fp: fingerprint_signature(sig),
            edges: UnorderedAccumulator::from_items(edges),
            facts: UnorderedAccumulator::from_items(digests),
            mode_word: match mode {
                PriorityMode::ConflictRestricted => 1,
                PriorityMode::CrossConflict => 2,
            },
        }
    }

    /// The lanes of a prioritized instance.
    pub fn of(schema: &Schema, pi: &PrioritizedInstance) -> Self {
        Self::new(schema, pi.instance(), pi.priority(), pi.mode())
    }

    /// The canonical fingerprint the lanes compose to.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut instance = FingerprintBuilder::new();
        instance.fingerprint(self.sig_fp).fingerprint(self.facts.finish());
        let mut b = FingerprintBuilder::new();
        b.fingerprint(self.schema_fp)
            .fingerprint(instance.finish())
            .fingerprint(self.edges.finish())
            .word(self.mode_word);
        b.finish()
    }

    /// Adds (`present`) or removes a fact's digest.
    pub(crate) fn set_fact(&mut self, sig: &Signature, fact: &Fact, present: bool) {
        let fp = fingerprint_fact(sig, fact);
        if present {
            self.facts.add(fp);
        } else {
            self.facts.remove(fp);
        }
    }

    /// Adds (`present`) or removes the edge `hi ≻ lo`'s digest.
    pub(crate) fn set_edge(&mut self, sig: &Signature, hi: &Fact, lo: &Fact, present: bool) {
        let fp = priority_edge_fingerprint(sig, hi, lo);
        if present {
            self.edges.add(fp);
        } else {
            self.edges.remove(fp);
        }
    }
}

/// The canonical 128-bit fingerprint of a prioritized instance under a
/// schema: [`ContentLanes`] built from scratch. Declaration order of
/// relations, FDs, facts and preferences does not affect the result.
pub fn content_fingerprint(schema: &Schema, pi: &PrioritizedInstance) -> Fingerprint {
    ContentLanes::of(schema, pi).fingerprint()
}
