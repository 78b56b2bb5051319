//! Prioritizing instances (§2.3, §7).
//!
//! The classical model requires every priority edge to join *conflicting*
//! facts; §7 relaxes this to *cross-conflict-prioritizing* (ccp)
//! instances, where any acyclic relation is allowed. The two modes have
//! different dichotomies (Theorem 3.1 vs Theorem 7.1), so the mode is
//! carried in the type and checked at construction.

use crate::relation::{PriorityError, PriorityRelation};
use rpr_data::{Compaction, Fact, FactId, Instance};
use rpr_fd::Schema;
use std::fmt;

/// Whether priorities are restricted to conflicting facts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PriorityMode {
    /// §2.3: `f ≻ g` only for conflicting `f`, `g`.
    ConflictRestricted,
    /// §7: `f ≻ g` for arbitrary facts (ccp-instances).
    CrossConflict,
}

/// An instance together with a priority relation on its facts.
#[derive(Clone)]
pub struct PrioritizedInstance {
    instance: Instance,
    priority: PriorityRelation,
    mode: PriorityMode,
}

impl PrioritizedInstance {
    /// Builds a classical (conflict-restricted) prioritizing instance,
    /// verifying that every edge joins facts conflicting under `schema`.
    ///
    /// # Errors
    /// [`PriorityError::NotConflicting`] if an edge joins facts that do
    /// not conflict. (Acyclicity was already enforced when `priority`
    /// was built.)
    pub fn conflict_restricted(
        schema: &Schema,
        instance: Instance,
        priority: PriorityRelation,
    ) -> Result<Self, PriorityError> {
        assert_eq!(instance.len(), priority.len(), "priority sized to a different instance");
        for &(f, g) in priority.edges() {
            if !schema.conflicting(instance.fact(f), instance.fact(g)) {
                return Err(PriorityError::NotConflicting(f, g));
            }
        }
        Ok(PrioritizedInstance { instance, priority, mode: PriorityMode::ConflictRestricted })
    }

    /// Builds a ccp-instance (§7): any acyclic priority is legal.
    pub fn cross_conflict(instance: Instance, priority: PriorityRelation) -> Self {
        assert_eq!(instance.len(), priority.len(), "priority sized to a different instance");
        PrioritizedInstance { instance, priority, mode: PriorityMode::CrossConflict }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The priority relation.
    pub fn priority(&self) -> &PriorityRelation {
        &self.priority
    }

    /// The mode this instance was validated under.
    pub fn mode(&self) -> PriorityMode {
        self.mode
    }

    /// Appends a fact, growing the priority universe with it. Returns
    /// the new fact's id (or the existing id if the fact was already
    /// present — callers rejecting duplicates check membership first).
    pub fn insert_fact(&mut self, fact: &Fact) -> FactId {
        let id = self.instance.insert_values(fact.rel(), fact.values());
        self.priority.grow(self.instance.len());
        id
    }

    /// Tombstones a fact for a batch of deletes (see
    /// [`Instance::tombstone`]): lookups stop finding it at once, and no
    /// id moves until [`remove_facts`](Self::remove_facts).
    ///
    /// # Panics
    /// Panics if the fact still participates in priority edges — the
    /// delta layer rejects such deletes with a typed error first.
    pub fn tombstone_fact(&mut self, id: FactId) {
        assert!(
            self.priority.worse_than(id).is_empty() && self.priority.better_than(id).is_empty(),
            "tombstone_fact: fact {} still has priority edges",
            id.0
        );
        self.instance.tombstone(id);
    }

    /// Removes the facts `ids` in one order-preserving compaction of the
    /// instance and the priority ([`Instance::remove_facts`],
    /// [`PriorityRelation::remove_facts`]) and returns it, so the
    /// caller can apply the same renumbering to its own structures.
    ///
    /// # Panics
    /// Panics if a fact still participates in priority edges.
    pub fn remove_facts(&mut self, ids: &[FactId]) -> Compaction {
        let c = self.instance.remove_facts(ids);
        self.priority.remove_facts(&c);
        c
    }

    /// Adds the priority edge `f ≻ g`, preserving the mode invariant:
    /// in conflict-restricted mode the endpoints must conflict under
    /// `schema`.
    ///
    /// # Errors
    /// [`PriorityError::NotConflicting`], [`PriorityError::Cyclic`], or
    /// [`PriorityError::OutOfRange`]; the instance is unchanged on error.
    pub fn add_edge(&mut self, schema: &Schema, f: FactId, g: FactId) -> Result<(), PriorityError> {
        if f.index() >= self.instance.len() {
            return Err(PriorityError::OutOfRange(f));
        }
        if g.index() >= self.instance.len() {
            return Err(PriorityError::OutOfRange(g));
        }
        if self.mode == PriorityMode::ConflictRestricted
            && !schema.conflicting(self.instance.fact(f), self.instance.fact(g))
        {
            return Err(PriorityError::NotConflicting(f, g));
        }
        self.priority.insert_edge(f, g)
    }

    /// Removes the priority edge `f ≻ g`; returns whether it existed.
    pub fn remove_edge(&mut self, f: FactId, g: FactId) -> bool {
        self.priority.remove_edge(f, g)
    }
}

impl fmt::Debug for PrioritizedInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:?} mode={:?}", self.instance, self.mode)?;
        let sig = self.instance.signature();
        for &(a, b) in self.priority.edges() {
            writeln!(
                f,
                "  {} ≻ {}",
                self.instance.fact(a).display(sig),
                self.instance.fact(b).display(sig)
            )?;
        }
        Ok(())
    }
}

/// Builder collecting priority edges by [`Fact`] value before freezing
/// them into a [`PriorityRelation`].
pub struct PriorityBuilder<'a> {
    instance: &'a Instance,
    edges: Vec<(FactId, FactId)>,
}

impl<'a> PriorityBuilder<'a> {
    /// Starts an empty builder over an instance.
    pub fn new(instance: &'a Instance) -> Self {
        PriorityBuilder { instance, edges: Vec::new() }
    }

    /// Records `f ≻ g` by fact id.
    pub fn prefer_ids(&mut self, f: FactId, g: FactId) -> &mut Self {
        self.edges.push((f, g));
        self
    }

    /// Records `f ≻ g` by fact value.
    ///
    /// # Panics
    /// Panics if either fact is not in the instance (programming error
    /// in test/workload construction — the ids-based API returns errors
    /// instead).
    pub fn prefer(&mut self, f: &Fact, g: &Fact) -> &mut Self {
        let fi = self.instance.id_of(f).expect("preferred fact not in instance");
        let gi = self.instance.id_of(g).expect("dominated fact not in instance");
        self.prefer_ids(fi, gi)
    }

    /// Freezes the builder into an acyclic [`PriorityRelation`].
    ///
    /// # Errors
    /// [`PriorityError::Cyclic`] if the recorded edges form a cycle.
    pub fn build(&self) -> Result<PriorityRelation, PriorityError> {
        PriorityRelation::new(self.instance.len(), self.edges.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Signature, Value};
    use rpr_fd::Schema;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    fn setup() -> (Schema, Instance) {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [v("a"), v("x")]).unwrap(); // 0
        i.insert_named("R", [v("a"), v("y")]).unwrap(); // 1: conflicts with 0
        i.insert_named("R", [v("b"), v("x")]).unwrap(); // 2: conflicts with none
        (schema, i)
    }

    #[test]
    fn conflict_restricted_accepts_conflicting_edges() {
        let (schema, i) = setup();
        let p = PriorityRelation::new(3, [(FactId(0), FactId(1))]).unwrap();
        let pi = PrioritizedInstance::conflict_restricted(&schema, i, p).unwrap();
        assert_eq!(pi.mode(), PriorityMode::ConflictRestricted);
        assert!(pi.priority().prefers(FactId(0), FactId(1)));
    }

    #[test]
    fn conflict_restricted_rejects_cross_edges() {
        let (schema, i) = setup();
        let p = PriorityRelation::new(3, [(FactId(0), FactId(2))]).unwrap();
        let err = PrioritizedInstance::conflict_restricted(&schema, i, p).unwrap_err();
        assert!(matches!(err, PriorityError::NotConflicting(FactId(0), FactId(2))));
    }

    #[test]
    fn ccp_accepts_cross_edges() {
        let (_, i) = setup();
        let p = PriorityRelation::new(3, [(FactId(0), FactId(2))]).unwrap();
        let pi = PrioritizedInstance::cross_conflict(i, p);
        assert_eq!(pi.mode(), PriorityMode::CrossConflict);
    }

    #[test]
    fn builder_by_fact_value() {
        let (schema, i) = setup();
        let f0 = i.fact(FactId(0)).to_fact();
        let f1 = i.fact(FactId(1)).to_fact();
        let mut b = PriorityBuilder::new(&i);
        b.prefer(&f1, &f0);
        let p = b.build().unwrap();
        assert!(p.prefers(FactId(1), FactId(0)));
        assert!(PrioritizedInstance::conflict_restricted(&schema, i, p).is_ok());
    }

    #[test]
    fn mutators_preserve_mode_invariant() {
        let (schema, i) = setup();
        let p = PriorityRelation::empty(3);
        let mut pi = PrioritizedInstance::conflict_restricted(&schema, i, p).unwrap();
        // Cross edges stay forbidden through the mutator.
        let err = pi.add_edge(&schema, FactId(0), FactId(2)).unwrap_err();
        assert!(matches!(err, PriorityError::NotConflicting(..)));
        pi.add_edge(&schema, FactId(0), FactId(1)).unwrap();
        assert!(pi.priority().prefers(FactId(0), FactId(1)));
        // A new fact grows the universe; edges to it work once it conflicts.
        let sig = pi.instance().signature().clone();
        let id = pi.insert_fact(&Fact::parse_new(&sig, "R", [v("a"), v("z")]).unwrap());
        assert_eq!(id, FactId(3));
        pi.add_edge(&schema, FactId(3), FactId(0)).unwrap();
        assert!(matches!(
            pi.add_edge(&schema, FactId(1), FactId(3)),
            Err(PriorityError::Cyclic { .. })
        ));
        // Deleting requires shedding edges first; then ids renumber.
        assert!(pi.remove_edge(FactId(0), FactId(1)));
        assert!(pi.remove_edge(FactId(3), FactId(0)));
        let removed = pi.instance().fact(FactId(0)).to_fact();
        pi.tombstone_fact(FactId(0));
        assert_eq!(pi.instance().id_of(&removed), None);
        assert_eq!(pi.instance().len(), 4, "a tombstone keeps its id until the compaction");
        let c = pi.remove_facts(&[FactId(0)]);
        assert_eq!(c.new_id(FactId(3)), Some(FactId(2)));
        assert_eq!(pi.instance().len(), 3);
        assert_eq!(pi.priority().len(), 3);
    }

    #[test]
    fn builder_detects_cycles() {
        let (_, i) = setup();
        let mut b = PriorityBuilder::new(&i);
        b.prefer_ids(FactId(0), FactId(1)).prefer_ids(FactId(1), FactId(0));
        assert!(matches!(b.build(), Err(PriorityError::Cyclic { .. })));
    }
}
