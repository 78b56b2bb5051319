//! # rpr-priority — priority relations and prioritizing instances
//!
//! Implements §2.3 and the §7 relaxation of *Dichotomies in the
//! Complexity of Preferred Repairs*:
//!
//! * [`PriorityRelation`] — acyclic binary relations `f ≻ g` over the
//!   facts of an instance, with cycle *witnesses* on rejection;
//! * [`PrioritizedInstance`] — an instance plus a priority, validated
//!   either in the classical conflict-restricted mode (§2.3) or the
//!   cross-conflict (ccp) mode (§7);
//! * [`completion`](crate::completion) — completions of a priority
//!   (total on conflicts), the basis of completion-optimal repairs.

#![warn(missing_docs)]

pub mod completion;
pub mod instance;
pub mod relation;
pub mod sources;

pub use completion::{completions, is_completion, unordered_conflicts};
pub use instance::{PrioritizedInstance, PriorityBuilder, PriorityMode};
pub use relation::{PriorityError, PriorityRelation};
pub use sources::{
    from_scores_ccp, from_scores_conflict_restricted, from_timestamps, restrict_to_conflicts,
    transitive_closure,
};
