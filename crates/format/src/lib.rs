//! # rpr-format — workspace file formats and canonical fingerprints
//!
//! The serialization layer of the preferred-repairs system, extracted
//! from `rpr-cli` so that non-CLI front ends (notably the `rpr-serve`
//! HTTP service) can parse workspaces without depending on the binary
//! crate:
//!
//! * [`format`] — the textual `.rpr` workspace grammar
//!   (`relation`/`fd`/`fact`/`prefer`/`mode`/`repair` directives) and
//!   its renderer;
//! * [`store`] — the `.rprb` binary codec;
//! * [`json_slice`] — a shallow, zero-copy JSON scanner used by the
//!   serving layer to pull workspace bodies out of request JSON
//!   without building a document tree;
//! * [`delta`] — the delta-op grammar (`insert`/`delete`/`prefer`/
//!   `unprefer` lines) shared by `POST /delta` bodies and `rpr delta`
//!   ops files, plus the brute-force mutation oracle;
//! * [`query_parse`] — conjunctive-query parsing for the CQA commands;
//! * [`fingerprint`] — the canonical 128-bit content fingerprint of a
//!   whole workspace, used as the serving layer's session-cache key.
//!
//! `rpr-cli` re-exports these modules under their old paths, so
//! `rpr_cli::format::Workspace` keeps working for existing callers.

#![warn(missing_docs)]

pub mod certificate_json;
#[cfg(feature = "faults")]
pub mod corrupt;
pub mod delta;
pub mod fingerprint;
pub mod format;
pub mod json_slice;
pub mod query_parse;
pub mod store;

pub use certificate_json::{parse_certificate, render_certificate, render_value, CertValue};
pub use delta::{
    apply_ops_to_workspace, delta_ops_from_strings, parse_delta_op, parse_delta_script,
};
pub use fingerprint::{schema_fingerprint, workspace_fingerprint};
pub use format::{parse_workspace, render_workspace, FormatError, Workspace};
pub use json_slice::{
    parse_workspace_raw, scan_object, scan_value, RawStr, SliceError, SliceValue,
};
pub use query_parse::{parse_query, QueryError};
pub use store::{decode, encode, is_binary, StoreError};
