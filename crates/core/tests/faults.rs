//! Fault-injection suite (requires `--features faults`).
//!
//! Drives the engine's deterministic fault plans through the check
//! session's batch path and asserts the central isolation property:
//! a worker panic, a mid-batch cancellation, or an injected slowdown
//! degrades *only* the affected candidates — every surviving verdict is
//! bit-identical to the verdict an unfaulted run produces.

#![cfg(feature = "faults")]

use rpr_core::{enumerate_repairs_bounded, Budget, CheckSession, ExceedReason, Outcome};
use rpr_data::{FactId, FactSet, Instance, Value};
use rpr_engine::FaultPlan;
use rpr_fd::Schema;
use rpr_gen::hard_schema;
use rpr_priority::{PrioritizedInstance, PriorityRelation};
use std::time::Duration;

/// A prioritized instance over the hard schema S4 = {1→2, 2→3} with a
/// few groups, so the batch has several candidates and every check
/// dispatches to the exponential exact search.
fn s4_input() -> (Schema, PrioritizedInstance) {
    let schema = hard_schema(4);
    let mut i = Instance::new(schema.signature().clone());
    let v = |s: String| Value::sym(&s);
    for g in 0..3 {
        for b in 0..3 {
            i.insert_named(
                "R4",
                [v(format!("g{g}")), v(format!("b{b}")), v(format!("c{}", g % 2))],
            )
            .unwrap();
        }
    }
    // Prefer the first member of each group over the second (edges join
    // conflicting facts: same group, different b).
    let edges: Vec<(FactId, FactId)> = (0..3).map(|g| (FactId(g * 3), FactId(g * 3 + 1))).collect();
    let p = PriorityRelation::new(i.len(), edges).unwrap();
    let pi = PrioritizedInstance::conflict_restricted(&schema, i, p).unwrap();
    (schema, pi)
}

/// All repairs of the instance — the batch of candidates to check.
fn candidates(schema: &Schema, pi: &PrioritizedInstance) -> Vec<FactSet> {
    let cg = rpr_fd::CsrConflictGraph::new(schema, pi.instance());
    enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
        .expect_done("repair enumeration")
}

fn baseline(session: &CheckSession<'_>, js: &[FactSet]) -> Vec<Outcome<rpr_core::CheckOutcome>> {
    let outcomes = session.check_batch_bounded(js, &Budget::unlimited());
    assert!(outcomes.iter().all(Outcome::is_done), "baseline must complete unfaulted");
    outcomes
}

#[test]
fn injected_worker_panic_degrades_only_its_candidate() {
    let (schema, pi) = s4_input();
    let js = candidates(&schema, &pi);
    assert!(js.len() >= 4, "need a real batch, got {}", js.len());
    let session = CheckSession::new(&schema, &pi).with_jobs(1);
    let reference = baseline(&session, &js);

    for victim in [0, js.len() / 2, js.len() - 1] {
        let budget = Budget::unlimited().with_faults(FaultPlan::new().panic_on_candidate(victim));
        let outcomes = session.check_batch_bounded(&js, &budget);
        for (i, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
            if i == victim {
                match got {
                    Outcome::Panicked { report, .. } => {
                        assert!(report.message.contains("injected fault"), "{report}");
                        assert!(report.context.contains(&format!("candidate {victim}")));
                    }
                    other => panic!("candidate {i}: expected Panicked, got {other:?}"),
                }
            } else {
                assert_eq!(got, want, "surviving candidate {i} must match the unfaulted run");
            }
        }
    }
}

#[test]
fn injected_panic_is_isolated_across_parallel_workers() {
    let (schema, pi) = s4_input();
    let js = candidates(&schema, &pi);
    let session = CheckSession::new(&schema, &pi).with_jobs(4);
    let reference = baseline(&session, &js);

    let victim = 1;
    let budget = Budget::unlimited().with_faults(FaultPlan::new().panic_on_candidate(victim));
    let outcomes = session.check_batch_bounded(&js, &budget);
    for (i, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
        if i == victim {
            assert!(matches!(got, Outcome::Panicked { .. }), "candidate {i}: {got:?}");
        } else {
            assert_eq!(got, want, "parallel sibling {i} must be unaffected by the panic");
        }
    }
}

#[test]
fn mid_batch_cancellation_preserves_completed_verdicts() {
    let (schema, pi) = s4_input();
    let js = candidates(&schema, &pi);
    let session = CheckSession::new(&schema, &pi).with_jobs(1);
    let reference = baseline(&session, &js);

    // Cancel once roughly half the baseline work is charged.
    let full_work = {
        let b = Budget::unlimited();
        let _ = session.check_batch_bounded(&js, &b);
        b.work_done()
    };
    let budget = Budget::unlimited().with_faults(FaultPlan::new().cancel_after_work(full_work / 2));
    let outcomes = session.check_batch_bounded(&js, &budget);

    let cancelled = outcomes.iter().filter(|o| matches!(o, Outcome::Cancelled { .. })).count();
    assert!(cancelled > 0, "the cancellation must interrupt at least one candidate");
    assert!(cancelled < js.len(), "some candidates must have completed first");
    for (i, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
        match got {
            Outcome::Cancelled { .. } => {}
            _ => assert_eq!(got, want, "completed candidate {i} must match the unfaulted run"),
        }
    }
    // Sequential batches stop charging after the observation point.
    assert!(
        budget.work_done() <= full_work,
        "a cancelled batch must not keep working: {} > {full_work}",
        budget.work_done()
    );
}

#[test]
fn injected_slowdown_drives_the_deadline_deterministically() {
    let (schema, pi) = s4_input();
    let js = candidates(&schema, &pi);
    let session = CheckSession::new(&schema, &pi).with_jobs(1);
    let reference = baseline(&session, &js);

    // Every work unit sleeps 2ms against a 30ms deadline: the run can
    // complete only a handful of units before the deadline trips.
    let budget = Budget::unlimited()
        .with_deadline(Duration::from_millis(30))
        .with_faults(FaultPlan::new().slow_every(1, Duration::from_millis(2)));
    let outcomes = session.check_batch_bounded(&js, &budget);

    let exceeded = outcomes
        .iter()
        .filter_map(Outcome::budget_report)
        .filter(|r| r.reason == ExceedReason::DeadlineExpired)
        .count();
    assert!(exceeded > 0, "the slowdown must push the run past its deadline");
    for (i, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
        match got {
            Outcome::Exceeded { .. } | Outcome::Cancelled { .. } => {}
            _ => assert_eq!(got, want, "fast candidate {i} must match the unfaulted run"),
        }
    }
}
