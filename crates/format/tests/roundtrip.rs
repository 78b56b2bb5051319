//! Property test: a workspace's facts survive `render_workspace` →
//! `parse_workspace`, in the one fact grammar every front end reads.

use proptest::prelude::*;
use rpr_data::{Instance, Signature, Value};
use rpr_fd::Schema;
use rpr_format::{parse_workspace, render_workspace, Workspace};
use rpr_priority::{PriorityMode, PriorityRelation};

proptest! {
    #[test]
    fn instance_text_roundtrip(rows in proptest::collection::vec((0i64..6, 0i64..6, 0i64..6), 0..30)) {
        let sig = Signature::new([("R", 3)]).unwrap();
        let mut instance = Instance::new(sig.clone());
        for (a, b, c) in rows {
            instance
                .insert_named("R", [Value::Int(a), Value::Int(b), Value::Int(c)])
                .unwrap();
        }
        let ws = Workspace {
            schema: Schema::new(sig, []).unwrap(),
            priority: PriorityRelation::empty(instance.len()),
            instance,
            mode: PriorityMode::ConflictRestricted,
            repairs: Vec::new(),
        };
        let parsed = parse_workspace(&render_workspace(&ws)).unwrap();
        prop_assert_eq!(parsed.instance.len(), ws.instance.len());
        for (_, f) in ws.instance.iter() {
            prop_assert!(parsed.instance.contains(f));
        }
    }
}
