//! # rpr-data — relational substrate for the preferred-repairs system
//!
//! This crate implements the data model of §2.1 of *Dichotomies in the
//! Complexity of Preferred Repairs* (Fagin, Kimelfeld, Kolaitis, PODS
//! 2015): constants, tuples, facts, relational signatures and instances
//! (each instance stores every distinct constant once, in its value
//! dictionary, and its facts as rows of [`ValueId`]s read through
//! [`FactRef`] views), plus the two bitset work-horses every algorithm
//! in the upper crates relies on:
//!
//! * [`AttrSet`] — subsets of the attribute universe `⟦R⟧` as one
//!   machine word (FD sides, closures, the `A⁺`/`Â` sets of §5.2);
//! * [`FactSet`] — subinstances of a fixed instance `I` as dense
//!   bitsets over [`FactId`]s (the repairs `J`, improvements, and the
//!   `F`/`F′` exchange sets of Lemmas 4.2/4.4/7.3).
//!
//! Nothing in this crate knows about functional dependencies or repairs;
//! see `rpr-fd` and `rpr-core` for those layers.

#![warn(missing_docs)]

pub mod attrset;
pub mod dict;
pub mod error;
pub mod fact;
pub mod fingerprint;
pub mod hash;
pub mod instance;
pub mod signature;
mod table;
pub mod value;

pub use attrset::{AttrSet, MAX_ARITY};
pub use dict::ValueId;
pub use error::DataError;
pub use fact::{Fact, FactContent, FactRef, SigRef, Tuple};
pub use fingerprint::{
    combine_unordered, fingerprint_fact, fingerprint_facts, fingerprint_instance,
    fingerprint_signature, fingerprint_value, Fingerprint, FingerprintBuilder,
};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use instance::{tuple, Compaction, FactId, FactSet, Instance};
pub use signature::{RelId, RelationSymbol, Signature};
pub use value::{Atom, Value};
