//! # rpr-cqa — consistent query answering over preferred repairs
//!
//! The concluding remarks of the paper pose preferred consistent query
//! answering and globally-optimal repair counting as follow-up
//! problems; this crate supplies the executable baseline for both:
//!
//! * [`query`] — conjunctive queries with naive join evaluation;
//! * [`answers`] — σ-certain and σ-possible answers for σ ∈ {all,
//!   Pareto, global, completion} repair semantics;
//! * [`count`] — counting globally-optimal repairs and deciding
//!   uniqueness ("unambiguous cleaning").

#![warn(missing_docs)]

pub mod answers;
pub mod count;
pub mod homomorphism;
pub mod query;
pub mod ucq;

pub use answers::{
    answers_bounded, answers_session_bounded, repairs_under_bounded, repairs_under_session_bounded,
    CqaAnswers, RepairSemantics,
};
pub use count::RepairSpace;
pub use homomorphism::{
    are_equivalent, find_homomorphism, is_contained_in, minimize, Homomorphism,
};
pub use query::{atom, Atom, ConjunctiveQuery, Term};
pub use ucq::{ucq_answers_bounded, UnionQuery};
