//! Self-contained check sessions for long-lived caches.
//!
//! [`CheckSession`] borrows its schema and prioritized instance, which
//! is ideal for batch tools (build once on the stack, check thousands
//! of candidates, drop everything together) but rules out storing a
//! session in a cache that outlives the request that built it. An
//! [`OwnedCheckSession`] closes that gap: it holds the schema and
//! instance behind `Arc`s together with the prepared
//! [`SessionArtifacts`], and vends borrowing [`CheckSession`] views on
//! demand. The serving layer keeps these in its fingerprint-keyed LRU
//! cache and shares one across concurrent requests (`&self` checking
//! is thread-safe — sessions only read the artifacts).

use crate::session::{CheckSession, SessionArtifacts};
use rpr_classify::Complexity;
use rpr_fd::Schema;
use rpr_priority::PrioritizedInstance;
use std::sync::Arc;

/// A cache-resident check session: owned `(schema, instance, priority)`
/// plus prepared artifacts, vending [`CheckSession`] views.
#[must_use = "an OwnedCheckSession is the cached product of expensive preparation — store or use it"]
pub struct OwnedCheckSession {
    schema: Arc<Schema>,
    pi: Arc<PrioritizedInstance>,
    artifacts: SessionArtifacts,
}

impl OwnedCheckSession {
    /// Prepares a session that owns its inputs. This is the expensive
    /// step (conflict graph, CSR packing, classification, block
    /// structures); every [`session`](OwnedCheckSession::session) view
    /// afterwards is free.
    pub fn prepare(schema: Arc<Schema>, pi: Arc<PrioritizedInstance>) -> Self {
        let artifacts = SessionArtifacts::build(&schema, &pi);
        OwnedCheckSession { schema, pi, artifacts }
    }

    /// A borrowing [`CheckSession`] view over the cached artifacts.
    /// Views are cheap; create one per request and configure `jobs` /
    /// budgets on the view.
    pub fn session(&self) -> CheckSession<'_> {
        CheckSession::from_artifacts(&self.schema, &self.pi, &self.artifacts)
    }

    /// The schema the session was prepared under.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The prioritized instance the session checks against.
    pub fn prioritized(&self) -> &Arc<PrioritizedInstance> {
        &self.pi
    }

    /// The complexity of checking under the cached classification.
    pub fn complexity(&self) -> Complexity {
        self.artifacts.complexity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Instance, Signature, Value};
    use rpr_priority::PriorityRelation;

    fn owned_running_example() -> OwnedCheckSession {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut instance = Instance::new(sig);
        let a = instance.insert_named("R", [Value::sym("k"), Value::sym("x")]).unwrap();
        let b = instance.insert_named("R", [Value::sym("k"), Value::sym("y")]).unwrap();
        let priority = PriorityRelation::new(instance.len(), [(a, b)]).unwrap();
        let pi = PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
        OwnedCheckSession::prepare(Arc::new(schema), Arc::new(pi))
    }

    #[test]
    fn views_share_artifacts_and_agree_with_fresh_sessions() {
        let owned = owned_running_example();
        let instance = owned.prioritized().instance();
        let preferred = instance.set_of([rpr_data::FactId(0)]);
        let dominated = instance.set_of([rpr_data::FactId(1)]);

        let via_view = owned.session().check(&preferred);
        assert!(via_view.is_optimal());
        assert!(!owned.session().check(&dominated).is_optimal());

        // Same verdicts as a session built from scratch.
        let fresh = CheckSession::new(owned.schema(), owned.prioritized());
        assert_eq!(fresh.check(&preferred), via_view);
    }

    #[test]
    fn concurrent_views_over_one_owned_session() {
        let owned = Arc::new(owned_running_example());
        let instance = owned.prioritized().instance();
        let j = instance.set_of([rpr_data::FactId(0)]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let owned = Arc::clone(&owned);
                let j = j.clone();
                s.spawn(move || {
                    assert!(owned.session().check(&j).is_optimal());
                });
            }
        });
    }
}
