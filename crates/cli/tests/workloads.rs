//! Integration tests driving the shipped `.rpr` workloads through the
//! command layer — the same paths the `rpr` binary exercises.

use rpr_cli::commands::{check, classify, construct, cqa, repairs, BoundedRun, RunStatus};
use rpr_cli::format::parse_workspace;
use rpr_core::Budget;

fn load(name: &str) -> rpr_cli::format::Workspace {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../workloads/");
    let text = std::fs::read_to_string(format!("{path}{name}")).expect("workload file");
    parse_workspace(&text).expect("workload parses")
}

/// A bounded command's report under the binary's default allowance,
/// asserting that the run finished.
fn done(
    run: impl FnOnce(&Budget) -> Result<BoundedRun, rpr_cli::commands::CommandError>,
) -> String {
    let run = run(&Budget::unlimited().with_max_work(1 << 22)).unwrap();
    assert!(matches!(run.status, RunStatus::Done), "{:?}", run.status);
    run.report
}

#[test]
fn running_example_workload_end_to_end() {
    let ws = load("running_example.rpr");
    assert_eq!(ws.instance.len(), 13);
    assert_eq!(ws.priority.edge_count(), 6);

    let report = classify(&ws);
    assert!(report.contains("Theorem 3.1 (conflict-restricted priorities): PTIME"));

    // J2 is the paper's globally-optimal repair; J1 is improvable.
    let r = done(|b| check(&ws, Some("J2"), 1, b));
    assert!(r.contains("J2: globally-optimal repair"), "{r}");
    let r = done(|b| check(&ws, Some("J1"), 1, b));
    assert!(r.contains("NOT globally optimal"), "{r}");
    // J4 is a repair but not globally optimal under the full priority.
    let r = done(|b| check(&ws, Some("J4"), 1, b));
    assert!(r.contains("J4:"));

    // Enumerations shrink with the semantics.
    let count = |s: &str| -> usize {
        done(|b| repairs(&ws, s, 1, b))
            .lines()
            .next()
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let all = count("all");
    let pareto = count("pareto");
    let global = count("global");
    let completion = count("completion");
    assert_eq!(all, 16);
    assert!(completion <= global && global <= pareto && pareto <= all);
    assert_eq!(global, 3);

    // Construction returns one of the optimal repairs.
    let built = construct(&ws);
    assert!(built.contains("globally-optimal repair:"));

    // CQA: almaden is certain under the global semantics.
    let q = "q(?loc) <- BookLoc(b1, ?g, ?l), LibLoc(?l, ?loc)";
    let res = done(|b| cqa(&ws, q, "global", 1, b));
    assert!(res.contains("certain : (almaden)"), "{res}");
}

#[test]
fn source_trust_workload_is_ccp_and_polynomial() {
    let ws = load("source_trust.rpr");
    assert_eq!(ws.mode, rpr_priority::PriorityMode::CrossConflict);
    let report = classify(&ws);
    assert!(report.contains("Theorem 7.1 (cross-conflict priorities): PTIME"), "{report}");

    let r = done(|b| check(&ws, Some("gold_view"), 1, b));
    assert!(r.contains("gold_view: globally-optimal repair"), "{r}");
    let r = done(|b| check(&ws, Some("scratch_view"), 1, b));
    assert!(r.contains("NOT globally optimal"), "{r}");
}

#[test]
fn hard_s4_workload_uses_the_exact_fallback() {
    let ws = load("hard_s4.rpr");
    let report = classify(&ws);
    assert!(report.contains("coNP-complete"), "{report}");
    assert!(report.contains("Case 4"), "{report}");

    // The declared J = {R4(a,y,1), R4(c,y,2)}: R4(a,x,1) ≻ R4(a,y,1)
    // makes it improvable.
    let r = done(|b| check(&ws, Some("J"), 1, b));
    assert!(r.contains("NOT globally optimal"), "{r}");
}
