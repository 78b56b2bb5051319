//! Property-based tests for the CLI's parsing surfaces: the text
//! format, the binary codec, and the query syntax — random structured
//! inputs roundtrip, random garbage fails cleanly (never panics).

use proptest::prelude::*;
use rpr_cli::format::{parse_workspace, render_workspace, Workspace};
use rpr_cli::query_parse::parse_query;
use rpr_cli::store::{decode, encode, is_binary};
use rpr_data::{FactId, Instance, Signature, Value};
use rpr_fd::{Fd, Schema};
use rpr_priority::{PriorityMode, PriorityRelation};

/// Builds a random (but always well-formed) workspace.
fn workspace_strategy() -> impl Strategy<Value = Workspace> {
    (
        proptest::collection::vec((0i64..4, 0i64..4), 0..12),
        proptest::collection::vec(0u64..u64::MAX, 12),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(rows, ranks, edge_bits, ccp)| {
            let sig = Signature::new([("R", 2), ("S", 2)]).unwrap();
            let schema = Schema::new(
                sig.clone(),
                [
                    Fd::from_attrs(sig.rel_id("R").unwrap(), [1], [2]),
                    Fd::from_attrs(sig.rel_id("S").unwrap(), [], [1]),
                ],
            )
            .unwrap();
            let mut instance = Instance::new(sig);
            for (k, (a, b)) in rows.iter().enumerate() {
                let rel = if k % 2 == 0 { "R" } else { "S" };
                instance.insert_named(rel, [Value::Int(*a), Value::Int(*b)]).unwrap();
            }
            // Rank-oriented subset of pairs (acyclic by construction);
            // in classical mode restrict to conflicting pairs.
            let cg = rpr_fd::CsrConflictGraph::new(&schema, &instance);
            let n = instance.len();
            let mut edges = Vec::new();
            let mut k = 0;
            for x in 0..n {
                for y in (x + 1)..n {
                    let wanted = edge_bits >> (k % 64) & 1 == 1;
                    k += 1;
                    let conflicting = cg.conflicting(FactId(x as u32), FactId(y as u32));
                    if wanted && (ccp || conflicting) {
                        let key = |i: usize| (ranks[i % 12], i);
                        if key(x) > key(y) {
                            edges.push((FactId(x as u32), FactId(y as u32)));
                        } else {
                            edges.push((FactId(y as u32), FactId(x as u32)));
                        }
                    }
                }
            }
            let priority = PriorityRelation::new(n, edges).unwrap();
            // One named repair: the greedy completion of ∅.
            let j = cg.extend_greedily(&instance.empty_set(), instance.fact_ids());
            Workspace {
                schema,
                instance,
                priority,
                mode: if ccp {
                    PriorityMode::CrossConflict
                } else {
                    PriorityMode::ConflictRestricted
                },
                repairs: vec![("j".to_owned(), j)],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_roundtrip_random_workspaces(ws in workspace_strategy()) {
        let text = render_workspace(&ws);
        let back = parse_workspace(&text).expect("rendered text parses");
        prop_assert_eq!(back.instance.len(), ws.instance.len());
        for (_, f) in ws.instance.iter() {
            prop_assert!(back.instance.contains(f));
        }
        prop_assert_eq!(back.schema.fds(), ws.schema.fds());
        prop_assert_eq!(back.priority.edges(), ws.priority.edges());
        prop_assert_eq!(back.mode, ws.mode);
        prop_assert_eq!(back.repairs[0].1.len(), ws.repairs[0].1.len());
    }

    #[test]
    fn binary_roundtrip_random_workspaces(ws in workspace_strategy()) {
        let bytes = encode(&ws).expect("generated workspaces fit the format");
        prop_assert!(is_binary(&bytes));
        let back = decode(&bytes).expect("encoded bytes decode");
        prop_assert_eq!(back.instance.len(), ws.instance.len());
        prop_assert_eq!(back.priority.edges(), ws.priority.edges());
        prop_assert_eq!(back.mode, ws.mode);
        // Text and binary agree after a full cycle.
        let text = render_workspace(&back);
        let again = parse_workspace(&text).unwrap();
        prop_assert_eq!(again.instance.len(), ws.instance.len());
    }

    #[test]
    fn random_garbage_never_panics_the_parsers(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        // Binary decoder: any byte soup must yield Ok or Err, not panic.
        let _ = decode(&bytes);
        // Text parser: lossy text from the soup.
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_workspace(&text);
    }

    #[test]
    fn random_garbage_never_panics_the_query_parser(text in "[ -~]{0,80}") {
        let sig = Signature::new([("R", 2)]).unwrap();
        let instance = Instance::new(sig);
        let _ = parse_query(&instance, &text);
    }

    #[test]
    fn well_formed_queries_always_parse(
        n_atoms in 1usize..4,
        constants in proptest::collection::vec(0i64..5, 4),
    ) {
        let sig = Signature::new([("R", 2)]).unwrap();
        let mut instance = Instance::new(sig);
        instance.insert_named("R", [Value::Int(0), Value::Int(1)]).unwrap();
        let mut body = Vec::new();
        for k in 0..n_atoms {
            body.push(format!("R(?v{k}, {})", constants[k % 4]));
        }
        let q = format!("q(?v0) <- {}", body.join(", "));
        let parsed = parse_query(&instance, &q).expect("generated query parses");
        prop_assert_eq!(parsed.atoms.len(), n_atoms);
        let _ = parsed.eval(&instance);
    }
}
