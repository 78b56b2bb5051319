//! Error types for the relational substrate.

use std::error::Error;
use std::fmt;

/// Errors raised while building signatures, facts and instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A relation was declared with arity 0 or above the supported maximum.
    BadArity {
        /// Relation name.
        name: String,
        /// Offending arity.
        arity: usize,
    },
    /// Two relations with the same name in one signature.
    DuplicateRelation(String),
    /// A relation name that the signature does not contain.
    UnknownRelation(String),
    /// A fact whose tuple width differs from its relation's arity.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Declared arity.
        expected: usize,
        /// Tuple width supplied.
        got: usize,
    },
    /// A fact referred to a different signature than the instance.
    SignatureMismatch,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::BadArity { name, arity } => {
                write!(f, "relation {name} has unsupported arity {arity} (must be 1..=64)")
            }
            DataError::DuplicateRelation(name) => {
                write!(f, "duplicate relation symbol {name}")
            }
            DataError::UnknownRelation(name) => {
                write!(f, "unknown relation symbol {name}")
            }
            DataError::ArityMismatch { relation, expected, got } => {
                write!(
                    f,
                    "fact over {relation} has {got} values but the relation has arity {expected}"
                )
            }
            DataError::SignatureMismatch => {
                write!(f, "fact and instance use different signatures")
            }
        }
    }
}

impl Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = DataError::ArityMismatch { relation: "R".into(), expected: 3, got: 2 };
        assert!(e.to_string().contains("R"));
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('2'));
    }
}
