//! Corpus-level sanity for the canonical workspace fingerprint: across
//! a spread of generated workloads (sizes, seeds, densities, modes)
//! every semantically distinct input gets a distinct 128-bit key, and
//! the key is invariant under the re-orderings a serving layer sees —
//! re-parsed text, renumbered facts, shuffled declarations. These are
//! exactly the properties the `rpr-serve` session cache relies on: a
//! collision would silently answer one database's queries with
//! another's artifacts.

use preferred_repairs::data::{
    combine_unordered, fingerprint_fact, fingerprint_instance, Fingerprint,
};
use preferred_repairs::format::{
    parse_workspace, render_workspace, schema_fingerprint, workspace_fingerprint,
};
use rpr_bench::{
    ccp_const_workload, ccp_pk_workload, hard_s4_workload, single_fd_workload, two_keys_workload,
    Workload,
};

fn corpus() -> Vec<(String, Workload)> {
    let mut out = Vec::new();
    for seed in [1u64, 2, 3, 7] {
        for n in [40usize, 80, 160] {
            out.push((format!("single_fd/{n}/{seed}"), single_fd_workload(n, 4, 0.5, seed)));
            out.push((format!("two_keys/{n}/{seed}"), two_keys_workload(n, 5, 0.5, seed)));
            out.push((format!("hard_s4/{n}/{seed}"), hard_s4_workload(n, 6, 0.4, seed)));
            out.push((format!("ccp_pk/{n}/{seed}"), ccp_pk_workload(n, 8, n / 4, seed)));
            out.push((format!("ccp_const/{n}/{seed}"), ccp_const_workload(n, 8, n / 4, seed)));
        }
    }
    out
}

#[test]
fn equal_fingerprints_imply_equal_content_across_corpus() {
    // Small generated workloads legitimately coincide (ccp_pk vs
    // ccp_const share instances by construction; tight domains saturate
    // to the same fact set at different `n`), so the property under
    // test is the one the session cache needs: whenever two corpus
    // entries share a (schema, instance) fingerprint, their content is
    // truly identical — never "same key, different database".
    use std::collections::{BTreeSet, HashMap};
    let mut seen: HashMap<(u128, u128), (String, BTreeSet<String>)> = HashMap::new();
    let mut distinct = 0usize;
    for (label, w) in corpus() {
        let key = (schema_fingerprint(&w.schema).0, fingerprint_instance(&w.instance).0);
        let content: BTreeSet<String> = w.instance.iter().map(|(_, f)| format!("{f:?}")).collect();
        match seen.get(&key) {
            Some((prev_label, prev_content)) => assert_eq!(
                &content, prev_content,
                "true fingerprint collision: {label} vs {prev_label}"
            ),
            None => {
                distinct += 1;
                seen.insert(key, (label, content));
            }
        }
    }
    assert!(distinct >= 40, "corpus too degenerate: only {distinct} distinct fingerprints");
}

#[test]
fn instance_fingerprint_ignores_fact_insertion_order() {
    for (label, w) in corpus().into_iter().step_by(7) {
        let fp = fingerprint_instance(&w.instance);
        // Rebuild the instance with facts inserted in reverse.
        let sig = w.instance.signature().clone();
        let mut reversed = preferred_repairs::data::Instance::new(sig.clone());
        let facts: Vec<_> = w.instance.iter().map(|(_, f)| f).collect();
        for f in facts.iter().rev() {
            let name = sig.symbol(f.rel()).name().to_owned();
            let values: Vec<_> = f.values().cloned().collect();
            reversed.insert_named(&name, values).unwrap();
        }
        assert_eq!(
            fp,
            fingerprint_instance(&reversed),
            "{label}: insertion order leaked into the fingerprint"
        );
    }
}

#[test]
fn fact_fingerprints_combine_commutatively() {
    let (_, w) = &corpus()[0];
    let sig = w.instance.signature();
    let fps: Vec<Fingerprint> = w.instance.iter().map(|(_, f)| fingerprint_fact(sig, f)).collect();
    let forward = combine_unordered(fps.iter().copied());
    let backward = combine_unordered(fps.iter().rev().copied());
    assert_eq!(forward, backward);
    assert_ne!(forward, combine_unordered(fps.iter().copied().skip(1)));
}

#[test]
fn workspace_fingerprint_survives_render_parse_round_trip() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads/running_example.rpr"),
    )
    .expect("running example ships with the repo");
    let ws = parse_workspace(&text).expect("parses");
    let fp = workspace_fingerprint(&ws);
    let reparsed = parse_workspace(&render_workspace(&ws)).expect("round-trips");
    assert_eq!(fp, workspace_fingerprint(&reparsed));

    // Candidate repairs are deliberately not part of the cache key.
    let mut without_repairs = ws;
    without_repairs.repairs.clear();
    assert_eq!(fp, workspace_fingerprint(&without_repairs));
}
