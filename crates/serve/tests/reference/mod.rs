//! The JSON tree parsers replaced by builders over the request scanner.

pub mod certificate_json;
pub mod json;
