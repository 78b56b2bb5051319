//! The delta-op grammar: textual mutations of a workspace.
//!
//! One op per line (or per JSON array element on the wire), reusing the
//! `.rpr` fact syntax:
//!
//! ```text
//! insert R(a, b)
//! delete R(a, b)
//! prefer R(a, x) > R(a, y)
//! unprefer R(a, x) > R(a, y)
//! ```
//!
//! Every front end — `POST /delta` bodies (whether materialized through
//! a DOM or pulled from the raw bytes by `json_slice`), `rpr delta` ops
//! files — funnels each op string through the single
//! [`parse_delta_op`] entry point, so diagnostics are byte-identical
//! across paths by construction.
//!
//! [`apply_ops_to_workspace`] is the *oracle*: it applies ops to a
//! parsed [`Workspace`] by brute data manipulation (no incremental
//! structures), producing the workspace a cold rebuild sees. The
//! differential suites check `DeltaSession::apply_delta` against it
//! bit-for-bit.

use crate::format::{parse_fact, trim, FormatError, Workspace};
use rpr_core::DeltaOp;
use rpr_data::{FactId, Signature};
use rpr_priority::PriorityRelation;

/// Parses one delta op. `line` is the 1-based line (script files) or
/// op index + 1 (JSON arrays) used in diagnostics.
///
/// # Errors
/// [`FormatError`] naming the offending line/op.
pub fn parse_delta_op(sig: &Signature, text: &str, line: usize) -> Result<DeltaOp, FormatError> {
    let l = trim(text);
    if let Some(rest) = l.strip_prefix("insert ") {
        return Ok(DeltaOp::InsertFact(parse_fact(sig, rest, line)?));
    }
    if let Some(rest) = l.strip_prefix("delete ") {
        return Ok(DeltaOp::DeleteFact(parse_fact(sig, rest, line)?));
    }
    let (prefer, rest) = if let Some(rest) = l.strip_prefix("prefer ") {
        (true, rest)
    } else if let Some(rest) = l.strip_prefix("unprefer ") {
        (false, rest)
    } else {
        return Err(FormatError {
            line,
            message: format!("expected `insert`/`delete`/`prefer`/`unprefer`, got `{l}`"),
        });
    };
    let (a, b) = rest.split_once('>').ok_or_else(|| FormatError {
        line,
        message: format!("expected `{} FACT > FACT`", if prefer { "prefer" } else { "unprefer" }),
    })?;
    Ok(DeltaOp::SetPriority {
        better: parse_fact(sig, a, line)?,
        worse: parse_fact(sig, b, line)?,
        prefer,
    })
}

/// Parses a line-oriented ops script (blank lines and `#` comments
/// ignored), as consumed by `rpr delta FILE OPSFILE`.
///
/// # Errors
/// [`FormatError`] with the 1-based line of the first bad op.
pub fn parse_delta_script(sig: &Signature, text: &str) -> Result<Vec<DeltaOp>, FormatError> {
    let mut ops = Vec::new();
    for (idx, raw) in text.split('\n').enumerate() {
        let l = trim(raw);
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        ops.push(parse_delta_op(sig, l, idx + 1)?);
    }
    Ok(ops)
}

/// Parses the op strings of a JSON `"ops"` array. Diagnostics number
/// ops from 1, mirroring script line numbers.
///
/// # Errors
/// [`FormatError`] with `line` = 1-based index of the first bad op.
pub fn delta_ops_from_strings<S: AsRef<str>>(
    sig: &Signature,
    ops: &[S],
) -> Result<Vec<DeltaOp>, FormatError> {
    ops.iter().enumerate().map(|(i, s)| parse_delta_op(sig, s.as_ref(), i + 1)).collect()
}

/// The oracle: applies `ops` to a parsed workspace by plain data
/// manipulation, with the same semantics and the same resulting id
/// layout as `DeltaSession::apply_delta` (deletes renumber survivors
/// densely, inserts append, edge order is base-minus-removals then
/// additions). Named repairs are remapped; a deleted fact simply drops
/// out of any repair containing it.
///
/// # Errors
/// [`FormatError`] (line = op index + 1) on the first invalid op —
/// the same classes `DeltaSession` rejects, minus the acyclicity /
/// conflict-restriction checks, which surface when the resulting
/// workspace is re-validated.
pub fn apply_ops_to_workspace(ws: &Workspace, ops: &[DeltaOp]) -> Result<Workspace, FormatError> {
    let mut instance = ws.instance.clone();
    let mut edges: Vec<(FactId, FactId)> = ws.priority.edges().to_vec();
    let mut repairs = ws.repairs.clone();
    // Ids stay stable for the whole op list: a delete tombstones its
    // fact, and one compaction at the end renumbers everything.
    let mut dead = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let line = i + 1;
        let sig = instance.signature();
        match op {
            DeltaOp::InsertFact(f) => {
                if instance.id_of(f).is_some() {
                    return Err(FormatError {
                        line,
                        message: format!("insert of fact already present: {}", f.display(sig)),
                    });
                }
                instance.insert(f.clone());
                for (_, set) in &mut repairs {
                    set.grow(instance.len());
                }
            }
            DeltaOp::DeleteFact(f) => {
                let id = instance.id_of(f).ok_or_else(|| FormatError {
                    line,
                    message: format!("fact not in the instance: {}", f.display(sig)),
                })?;
                if edges.iter().any(|&(a, b)| a == id || b == id) {
                    return Err(FormatError {
                        line,
                        message: format!(
                            "delete of fact with incident priority edges: {}",
                            f.display(sig)
                        ),
                    });
                }
                instance.tombstone(id);
                dead.push(id);
            }
            DeltaOp::SetPriority { better, worse, prefer } => {
                let bi = instance.id_of(better).ok_or_else(|| FormatError {
                    line,
                    message: format!("fact not in the instance: {}", better.display(sig)),
                })?;
                let wi = instance.id_of(worse).ok_or_else(|| FormatError {
                    line,
                    message: format!("fact not in the instance: {}", worse.display(sig)),
                })?;
                if *prefer {
                    if edges.contains(&(bi, wi)) {
                        return Err(FormatError {
                            line,
                            message: "preference already present".to_owned(),
                        });
                    }
                    edges.push((bi, wi));
                } else {
                    let Some(pos) = edges.iter().position(|&e| e == (bi, wi)) else {
                        return Err(FormatError {
                            line,
                            message: "unprefer of preference not present".to_owned(),
                        });
                    };
                    edges.remove(pos);
                }
            }
        }
    }
    let c = instance.remove_facts(&dead);
    for (a, b) in edges.iter_mut() {
        (*a, *b) =
            (c.new_id(*a).expect("edge ends survive"), c.new_id(*b).expect("edge ends survive"));
    }
    for (_, set) in &mut repairs {
        set.compact(&c);
    }
    let priority = PriorityRelation::new(instance.len(), edges)
        .map_err(|e| FormatError { line: 0, message: format!("priority rejected: {e}") })?;
    Ok(Workspace { schema: ws.schema.clone(), instance, priority, mode: ws.mode, repairs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::workspace_fingerprint;
    use crate::format::{parse_workspace, render_workspace};
    use rpr_core::DeltaSession;
    use std::sync::Arc;

    const WS: &str = "\
relation R/2
relation S/2
fd R: 1 -> 2
fd S: 1 -> 2
fact R(a, x)
fact R(a, y)
fact R(b, x)
fact S(k, 1)
fact S(k, 2)
prefer R(a, x) > R(a, y)
repair J: R(a, x); R(b, x); S(k, 1)
";

    #[test]
    fn grammar_round_trips_all_op_kinds() {
        let ws = parse_workspace(WS).unwrap();
        let sig = ws.instance.signature();
        let script = "\
# churn
insert R(c, z)
delete S(k, 2)

prefer S(k, 1) > R(a, x)
unprefer R(a, x) > R(a, y)
";
        let ops = parse_delta_script(sig, script).unwrap();
        assert_eq!(ops.len(), 4);
        assert!(matches!(&ops[0], DeltaOp::InsertFact(_)));
        assert!(matches!(&ops[1], DeltaOp::DeleteFact(_)));
        assert!(matches!(&ops[2], DeltaOp::SetPriority { prefer: true, .. }));
        assert!(matches!(&ops[3], DeltaOp::SetPriority { prefer: false, .. }));
        // The JSON-array front end parses identically.
        let strings: Vec<&str> = script
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert_eq!(delta_ops_from_strings(sig, &strings).unwrap(), ops);
    }

    #[test]
    fn diagnostics_name_the_op() {
        let ws = parse_workspace(WS).unwrap();
        let sig = ws.instance.signature();
        let err = parse_delta_script(sig, "insert R(a, x)\nbanana\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("expected `insert`"));
        let err = delta_ops_from_strings(sig, &["insert R(a)"]).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("arity"));
        let err = delta_ops_from_strings(sig, &["prefer R(a, x)"]).unwrap_err();
        assert!(err.message.contains("FACT > FACT"));
    }

    #[test]
    fn oracle_matches_delta_session_bit_for_bit() {
        let ws = parse_workspace(WS).unwrap();
        let sig = ws.instance.signature().clone();
        let ops = parse_delta_script(
            &sig,
            "unprefer R(a, x) > R(a, y)\ndelete R(a, y)\ninsert S(m, 7)\nprefer S(k, 2) > S(k, 1)\n",
        )
        .unwrap();

        // Oracle: plain data manipulation, then render → reparse.
        let mutated = apply_ops_to_workspace(&ws, &ops).unwrap();
        let reparsed = parse_workspace(&render_workspace(&mutated)).unwrap();

        // Patched session over the original workspace.
        let mut ds = DeltaSession::prepare(Arc::new(ws.schema.clone()), ws.prioritized().unwrap());
        ds.apply_delta(&ops).unwrap();

        assert_eq!(ds.fingerprint(), workspace_fingerprint(&reparsed));
        // Same id layout: the fact tables agree position by position.
        for (id, f) in reparsed.instance.iter() {
            assert_eq!(ds.prioritized().instance().fact(id), f);
        }
        assert_eq!(ds.prioritized().priority().edges(), reparsed.priority.edges());
    }

    #[test]
    fn oracle_remaps_named_repairs() {
        let ws = parse_workspace(WS).unwrap();
        let sig = ws.instance.signature().clone();
        // Delete a repair member (S(k,1) = id 3): it drops out and ids shift.
        let ops = parse_delta_script(&sig, "delete S(k, 1)\ninsert R(d, q)\n").unwrap();
        let mutated = apply_ops_to_workspace(&ws, &ops).unwrap();
        let j = mutated.repair("J").unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.universe(), mutated.instance.len());
        for id in j.iter() {
            let f = mutated.instance.fact(id);
            assert!(ws.instance.contains(f), "repair member {f:?} not from the base");
        }
    }

    #[test]
    fn oracle_rejects_invalid_ops() {
        let ws = parse_workspace(WS).unwrap();
        let sig = ws.instance.signature().clone();
        let cases = [
            ("insert R(a, x)", "already present"),
            ("delete R(z, z)", "not in the instance"),
            ("delete R(a, x)", "incident priority edges"),
            ("prefer R(a, x) > R(a, y)", "already present"),
            ("unprefer R(a, y) > R(a, x)", "not present"),
        ];
        for (script, needle) in cases {
            let ops = parse_delta_script(&sig, script).unwrap();
            let err = apply_ops_to_workspace(&ws, &ops).unwrap_err();
            assert!(err.message.contains(needle), "{script}: {err}");
        }
    }
}
