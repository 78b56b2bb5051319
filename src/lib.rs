//! # preferred-repairs
//!
//! A complete Rust implementation of **“Dichotomies in the Complexity
//! of Preferred Repairs”** (Ronald Fagin, Benny Kimelfeld, Phokion G.
//! Kolaitis — PODS 2015): the framework of prioritized database
//! repairs under functional dependencies, every polynomial repair-
//! checking algorithm in the paper, both dichotomy classifiers, the
//! hardness gadgets, and consistent query answering over preferred
//! repairs.
//!
//! This crate is a facade re-exporting the workspace layers:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`data`] | `rpr-data` | values, facts, instances, bitsets |
//! | [`fd`] | `rpr-fd` | FD theory: closures, implication, covers, keys, conflict graphs |
//! | [`priority`] | `rpr-priority` | priority relations, prioritizing instances, completions |
//! | [`core`] | `rpr-core` | the checking algorithms (Figure 2, Figure 4, §7.2, oracles, dispatchers) |
//! | [`classify`] | `rpr-classify` | the Theorem 3.1/6.1 and 7.1/7.6 classifiers |
//! | [`reductions`] | `rpr-reductions` | the Lemma 5.2 gadget and the Π framework |
//! | [`cqa`] | `rpr-cqa` | preferred consistent query answering |
//! | [`gen`] | `rpr-gen` | the running example and synthetic workloads |
//! | [`format`] | `rpr-format` | the `.rpr` text / `.rprb` binary formats, queries, fingerprints |
//! | [`serve`] | `rpr-serve` | the concurrent HTTP repair-checking service |
//!
//! ## Quickstart
//!
//! ```
//! use preferred_repairs::prelude::*;
//!
//! // Schema: Emp(name, dept) where name determines dept.
//! let sig = Signature::new([("Emp", 2)]).unwrap();
//! let schema = Schema::from_named(sig.clone(), [("Emp", &[1][..], &[2][..])]).unwrap();
//!
//! // An inconsistent instance: Alice appears in two departments.
//! let mut instance = Instance::new(sig);
//! let a_eng = instance.insert_named("Emp", ["alice".into(), "eng".into()]).unwrap();
//! let a_hr = instance.insert_named("Emp", ["alice".into(), "hr".into()]).unwrap();
//! instance.insert_named("Emp", ["bob".into(), "eng".into()]).unwrap();
//!
//! // Prefer the engineering record (e.g. it is newer).
//! let priority = PriorityRelation::new(instance.len(), [(a_eng, a_hr)]).unwrap();
//! let pi = PrioritizedInstance::conflict_restricted(&schema, instance.clone(), priority).unwrap();
//!
//! // The dispatcher classifies the schema (single FD ⇒ PTIME) and checks.
//! let checker = GRepairChecker::new(schema);
//! let j = instance.set_of([a_eng, FactId(2)]);
//! assert!(checker.check(&pi, &j).is_optimal());
//! let j_bad = instance.set_of([a_hr, FactId(2)]);
//! assert!(!checker.check(&pi, &j_bad).is_optimal());
//! ```

pub use rpr_classify as classify;
pub use rpr_cli as cli;
pub use rpr_core as core;
pub use rpr_cqa as cqa;
pub use rpr_data as data;
pub use rpr_engine as engine;
pub use rpr_fd as fd;
pub use rpr_format as format;
pub use rpr_gen as gen;
pub use rpr_policy as policy;
pub use rpr_priority as priority;
pub use rpr_reductions as reductions;
pub use rpr_serve as serve;

/// The most common imports, for `use preferred_repairs::prelude::*`.
pub mod prelude {
    pub use rpr_classify::{
        classify_schema, classify_schema_ccp, CcpClass, Complexity, SchemaClass,
    };
    pub use rpr_core::{CcpChecker, CheckOutcome, GRepairChecker, Improvement, Method};
    pub use rpr_data::{AttrSet, Fact, FactId, FactSet, Instance, Signature, Tuple, Value};
    pub use rpr_engine::{Budget, BudgetReport, CancelToken, Outcome};
    pub use rpr_fd::{CsrConflictGraph, Fd, Schema};
    pub use rpr_priority::{PrioritizedInstance, PriorityBuilder, PriorityMode, PriorityRelation};
}
