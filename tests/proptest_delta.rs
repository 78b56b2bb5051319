//! Property-based tests of the incrementally-maintained session
//! fingerprint: over arbitrary valid op sequences, the patched
//! [`DeltaSession`]'s fingerprint must equal the canonical fingerprint
//! of a from-scratch reconstruction after *every* op — and undoing the
//! sequence (inverses in reverse order, which includes every
//! delete-then-reinsert round trip) must land exactly back on the
//! starting fingerprint. After every op the patched conflict graph and
//! component layout must also equal a cold session's, so the patch is
//! checked in release builds too, not only by debug assertions.

use preferred_repairs::core::{CheckSession, DeltaOp, DeltaSession};
use preferred_repairs::data::{Fact, FactId, Instance, Signature, Value};
use preferred_repairs::fd::{ConflictGraph, Schema};
use preferred_repairs::format::{apply_ops_to_workspace, workspace_fingerprint, Workspace};
use preferred_repairs::priority::{PriorityMode, PriorityRelation};
use proptest::prelude::*;
use std::sync::Arc;

/// A seed workspace with no priority edges (so a fully-undone op
/// sequence returns to the seed) over the usual two-class schema.
fn seed_workspace(r_rows: Vec<(i64, i64, i64)>, s_rows: Vec<(i64, i64)>) -> Workspace {
    let sig = Signature::new([("R", 3), ("S", 2)]).unwrap();
    let schema = Schema::from_named(
        sig.clone(),
        [("R", &[1][..], &[2][..]), ("S", &[1][..], &[2][..]), ("S", &[2][..], &[1][..])],
    )
    .unwrap();
    let mut instance = Instance::new(sig);
    for (a, b, c) in r_rows {
        let f = Fact::parse_new(
            instance.signature(),
            "R",
            [Value::int(a), Value::int(b), Value::int(c)],
        )
        .unwrap();
        if instance.id_of(&f).is_none() {
            instance.insert(f);
        }
    }
    for (a, b) in s_rows {
        let f = Fact::parse_new(instance.signature(), "S", [Value::int(a), Value::int(b)]).unwrap();
        if instance.id_of(&f).is_none() {
            instance.insert(f);
        }
    }
    let priority = PriorityRelation::empty(instance.len());
    Workspace {
        schema,
        instance,
        priority,
        mode: PriorityMode::ConflictRestricted,
        repairs: Vec::new(),
    }
}

/// Decodes one valid op from a seed, against the current workspace.
/// Edges are oriented by the facts' display order, so the priority
/// stays acyclic however the sequence interleaves.
fn decode_op(seed: u64, ws: &Workspace) -> Option<DeltaOp> {
    let sig = ws.instance.signature().clone();
    let rank = |id: FactId| ws.instance.fact(id).display(&sig).to_string();
    match seed % 4 {
        0 => {
            // Insert a fresh fact derived from the seed.
            let k = (seed / 4) % 64;
            let f = if k.is_multiple_of(2) {
                Fact::parse_new(
                    &sig,
                    "R",
                    [
                        Value::int((k / 2) as i64 % 4),
                        Value::int((k / 8) as i64 % 4),
                        Value::int(50 + k as i64),
                    ],
                )
                .unwrap()
            } else {
                Fact::parse_new(&sig, "S", [Value::int(50 + k as i64), Value::int(50 + k as i64)])
                    .unwrap()
            };
            (ws.instance.id_of(&f).is_none()).then_some(DeltaOp::InsertFact(f))
        }
        1 => {
            // Delete a fact without incident edges.
            let n = ws.instance.len();
            if n == 0 {
                return None;
            }
            let id = FactId(((seed / 4) % n as u64) as u32);
            ws.priority
                .edges()
                .iter()
                .all(|&(a, b)| a != id && b != id)
                .then(|| DeltaOp::DeleteFact(ws.instance.fact(id).clone()))
        }
        2 => {
            // Prefer: an open conflict edge, rank-oriented.
            let cg = ConflictGraph::new(&ws.schema, &ws.instance);
            let open: Vec<(FactId, FactId)> = cg
                .edges()
                .into_iter()
                .map(|(a, b)| if rank(a) < rank(b) { (a, b) } else { (b, a) })
                .filter(|e| !ws.priority.edges().contains(e))
                .collect();
            if open.is_empty() {
                return None;
            }
            let (better, worse) = open[((seed / 4) % open.len() as u64) as usize];
            Some(DeltaOp::SetPriority {
                better: ws.instance.fact(better).clone(),
                worse: ws.instance.fact(worse).clone(),
                prefer: true,
            })
        }
        _ => {
            // Unprefer an existing edge.
            let edges = ws.priority.edges();
            if edges.is_empty() {
                return None;
            }
            let (a, b) = edges[((seed / 4) % edges.len() as u64) as usize];
            Some(DeltaOp::SetPriority {
                better: ws.instance.fact(a).clone(),
                worse: ws.instance.fact(b).clone(),
                prefer: false,
            })
        }
    }
}

/// The exact inverse of an op (valid immediately after it, and at the
/// matching position of a reversed sequence).
fn inverse(op: &DeltaOp) -> DeltaOp {
    match op {
        DeltaOp::InsertFact(f) => DeltaOp::DeleteFact(f.clone()),
        DeltaOp::DeleteFact(f) => DeltaOp::InsertFact(f.clone()),
        DeltaOp::SetPriority { better, worse, prefer } => {
            DeltaOp::SetPriority { better: better.clone(), worse: worse.clone(), prefer: !prefer }
        }
    }
}

/// The patched session's CSR conflict graph and component layout equal
/// those of a cold session over the same workspace.
fn assert_structure_matches_cold(ds: &DeltaSession, ws: &Workspace) {
    let pi = ws.prioritized().unwrap();
    let cold = CheckSession::new(&ws.schema, &pi);
    let patched = ds.session();
    assert_eq!(
        patched.conflict_graph(),
        cold.conflict_graph(),
        "patched CSR diverged from a cold session's"
    );
    assert_eq!(patched.components(), cold.components(), "patched components diverged");
}

fn run_sequence(ws0: &Workspace, seeds: &[u64]) -> (DeltaSession, Workspace, Vec<DeltaOp>) {
    // `Workspace` is not `Clone`; the oracle with no ops is a copy.
    let mut ws = apply_ops_to_workspace(ws0, &[]).unwrap();
    let mut ds = DeltaSession::prepare(Arc::new(ws.schema.clone()), ws.prioritized().unwrap());
    let mut applied = Vec::new();
    for &seed in seeds {
        let Some(op) = decode_op(seed, &ws) else { continue };
        ws = apply_ops_to_workspace(&ws, std::slice::from_ref(&op)).unwrap();
        ds.apply_delta(std::slice::from_ref(&op)).unwrap();
        // The maintained fingerprint equals a from-scratch
        // reconstruction after every single op.
        prop_assert_eq!(ds.fingerprint(), workspace_fingerprint(&ws));
        assert_structure_matches_cold(&ds, &ws);
        applied.push(op);
    }
    (ds, ws, applied)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fingerprint_tracks_from_scratch_reconstruction(
        r_rows in proptest::collection::vec((0i64..4, 0i64..4, 0i64..4), 1..6),
        s_rows in proptest::collection::vec((0i64..4, 0i64..4), 1..5),
        seeds in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let ws0 = seed_workspace(r_rows, s_rows);
        let _ = run_sequence(&ws0, &seeds);
    }

    #[test]
    fn undoing_the_sequence_restores_the_starting_fingerprint(
        r_rows in proptest::collection::vec((0i64..4, 0i64..4, 0i64..4), 1..6),
        s_rows in proptest::collection::vec((0i64..4, 0i64..4), 1..5),
        seeds in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let ws0 = seed_workspace(r_rows, s_rows);
        let before = workspace_fingerprint(&ws0);
        let (mut ds, mut ws, applied) = run_sequence(&ws0, &seeds);
        // Undo everything: inverses in reverse order. This covers every
        // delete-then-reinsert (and insert-then-delete) round trip.
        for op in applied.iter().rev() {
            let undo = inverse(op);
            ws = apply_ops_to_workspace(&ws, std::slice::from_ref(&undo)).unwrap();
            ds.apply_delta(std::slice::from_ref(&undo)).unwrap();
            prop_assert_eq!(ds.fingerprint(), workspace_fingerprint(&ws));
            assert_structure_matches_cold(&ds, &ws);
        }
        // The fingerprint is canonical (content-determined), so the
        // fully-undone session matches the seed workspace exactly.
        prop_assert_eq!(ds.fingerprint(), before);
        prop_assert_eq!(ws.instance.len(), ws0.instance.len());
    }

    #[test]
    fn batched_and_one_at_a_time_application_agree(
        r_rows in proptest::collection::vec((0i64..4, 0i64..4, 0i64..4), 1..6),
        s_rows in proptest::collection::vec((0i64..4, 0i64..4), 1..5),
        seeds in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let ws0 = seed_workspace(r_rows, s_rows);
        // One-at-a-time reference run (also collects the valid ops).
        let (ds_single, ws, applied) = run_sequence(&ws0, &seeds);
        prop_assume!(!applied.is_empty());
        // The same ops as one batch (possibly taking the internal
        // rebuild path) land on the same fingerprint.
        let mut ds_batch =
            DeltaSession::prepare(Arc::new(ws0.schema.clone()), ws0.prioritized().unwrap());
        ds_batch.apply_delta(&applied).unwrap();
        prop_assert_eq!(ds_batch.fingerprint(), ds_single.fingerprint());
        assert_structure_matches_cold(&ds_batch, &ws);
    }
}
