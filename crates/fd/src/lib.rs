//! # rpr-fd — functional-dependency theory
//!
//! The FD layer of the preferred-repairs system (§2.2, §5.2 and §6 of
//! the paper):
//!
//! * [`Fd`] and [`Schema`] — dependencies `R : A → B` and schemas
//!   `(R, Δ)`;
//! * [`closure`] / [`implies`] / [`equivalent`] — the closure
//!   `⟦R.A^Δ⟧` and polynomial-time implication testing (Theorem 6.3,
//!   Maier–Mendelzon–Sagiv), the engine behind the §6 classifiers;
//! * [`cover`](crate::cover) — minimal covers;
//! * [`keys`](crate::keys) — superkeys, candidate keys, and
//!   key-set-equivalence tests (Case 1 of §5.2);
//! * [`determiners`](crate::determiners) — the nontrivial /
//!   non-redundant / minimal determiners of §5.2;
//! * [`CsrConflictGraph`] — δ-conflicts and the conflict graph whose
//!   maximal independent sets are exactly the repairs, built from the
//!   per-FD lhs/rhs [`FdGrouping`]: the one graph that sessions,
//!   one-shot checkers and oracles share.

#![warn(missing_docs)]

pub mod armstrong;
pub mod closure;
pub mod cover;
pub mod csr;
pub mod determiners;
pub mod discovery;
pub mod fd;
pub mod grouping;
pub mod keys;
pub mod normal_forms;
pub mod projection;
pub mod schema;
pub mod stats;

pub use armstrong::{derive, Derivation};
pub use closure::{closure, closure_linear, equivalent, implies, is_superkey};
pub use cover::{lhs_candidates, merge_by_lhs, minimal_cover, saturate};
pub use csr::{ComponentLayout, CsrConflictGraph, EdgeBuckets, Row as CsrRow};
pub use determiners::{
    hard_case_witnesses, is_minimal_determiner, is_nonredundant_determiner,
    is_nontrivial_determiner, minimal_determiners, minimal_nonredundant_determiners,
    relevant_attrs,
};
pub use discovery::{discover_fds, discover_fds_for, fd_holds, DiscoveryOptions};
pub use fd::Fd;
pub use grouping::FdGrouping;
pub use keys::{as_key_set, candidate_keys, determines, minimize_key};
pub use normal_forms::{is_3nf, is_bcnf, prime_attributes, violations, Violation, ViolationKind};
pub use projection::{is_dependency_preserving, is_lossless_join, project_fds};
pub use schema::Schema;
pub use stats::ConflictStats;
