//! Canonical whole-workspace fingerprints.
//!
//! The serving layer caches prepared check sessions keyed by the
//! *content* of `(schema, FDs, priority, instance)`. The composition
//! itself lives in `rpr-core` ([`ContentLanes`]) because the
//! incremental [`DeltaSession`](rpr_core::DeltaSession) maintains the
//! same lanes across mutations and must agree with them bit-for-bit;
//! this module applies it to parsed [`Workspace`]s.
//!
//! Candidate repairs are deliberately **excluded**: they vary per
//! request while the cached session artifacts depend only on the
//! prioritized instance.

use crate::format::Workspace;
use rpr_core::ContentLanes;
use rpr_data::fingerprint::Fingerprint;

pub use rpr_core::fingerprint::schema_fingerprint;

/// The canonical 128-bit fingerprint of a workspace's prioritized
/// instance: schema (signature + FDs), instance facts, priority edges,
/// and priority mode. Declaration order of relations, FDs, facts and
/// preferences does not affect the result; candidate repairs are not
/// part of the key.
pub fn workspace_fingerprint(ws: &Workspace) -> Fingerprint {
    ContentLanes::new(&ws.schema, &ws.instance, &ws.priority, ws.mode).fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_workspace;

    const BASE: &str = "\
relation R/2
fd R: 1 -> 2
relation S/1
fact R(a, x)
fact R(a, y)
fact S(z)
prefer R(a, x) > R(a, y)
mode conflict
";

    /// Same content, every declaration order permuted.
    const SHUFFLED: &str = "\
relation R/2
relation S/1
fd R: 1 -> 2
fact S(z)
fact R(a, y)
fact R(a, x)
prefer R(a, x) > R(a, y)
mode conflict
";

    #[test]
    fn declaration_order_does_not_matter() {
        let a = parse_workspace(BASE).unwrap();
        let b = parse_workspace(SHUFFLED).unwrap();
        assert_eq!(workspace_fingerprint(&a), workspace_fingerprint(&b));
    }

    #[test]
    fn content_changes_change_the_fingerprint() {
        let base = workspace_fingerprint(&parse_workspace(BASE).unwrap());
        // Extra fact.
        let more = BASE.replace("fact S(z)", "fact S(z)\nfact S(w)");
        assert_ne!(base, workspace_fingerprint(&parse_workspace(&more).unwrap()));
        // Reversed preference edge.
        let flipped = BASE.replace("prefer R(a, x) > R(a, y)", "prefer R(a, y) > R(a, x)");
        assert_ne!(base, workspace_fingerprint(&parse_workspace(&flipped).unwrap()));
        // Dropped FD.
        let nofd = BASE.replace("fd R: 1 -> 2\n", "");
        assert_ne!(base, workspace_fingerprint(&parse_workspace(&nofd).unwrap()));
    }

    #[test]
    fn repairs_are_not_part_of_the_key() {
        let with_repair = format!("{BASE}repair J: R(a, x); S(z)\n");
        let a = parse_workspace(BASE).unwrap();
        let b = parse_workspace(&with_repair).unwrap();
        assert_eq!(workspace_fingerprint(&a), workspace_fingerprint(&b));
    }

    #[test]
    fn agrees_with_the_core_composition() {
        let ws = parse_workspace(BASE).unwrap();
        let pi = ws.prioritized().unwrap();
        assert_eq!(workspace_fingerprint(&ws), rpr_core::content_fingerprint(&ws.schema, &pi));
    }
}
