//! Adversarial blowup corpus: instances engineered to trigger the
//! worst-case exponential behaviour of the hard side (the Theorem 3.1
//! schemas S1..S6 and the Theorem 7.1 ccp-hard schemas), run under
//! tight budgets. The engine contract under attack: the run answers
//! `Exceeded` — with the deadline observed promptly (within 2× the
//! requested deadline) — instead of hanging.

use rpr_core::{
    construct_globally_optimal_repair, enumerate_repairs_bounded, Budget, CcpChecker, ExceedReason,
    GRepairChecker, Outcome,
};
use rpr_data::{Instance, Value};
use rpr_fd::{CsrConflictGraph, Schema};
use rpr_gen::{ccp_hard_schema, hard_schema};
use rpr_priority::{PrioritizedInstance, PriorityRelation};
use std::time::{Duration, Instant};

/// Fills a single ternary relation with the full value cube
/// `g × b × {c0, c1}` — dense conflicts under every S1..S6 FD set, so
/// the repair space (and with it the exact confirmation search) blows
/// up exponentially.
fn dense_ternary(schema: &Schema, groups: usize, members: usize) -> Instance {
    let name = schema.signature().symbol(rpr_data::RelId(0)).name().to_owned();
    let mut i = Instance::new(schema.signature().clone());
    let v = |s: String| Value::sym(&s);
    for g in 0..groups {
        for b in 0..members {
            i.insert_named(
                &name,
                [v(format!("g{g}")), v(format!("b{b}")), v(format!("c{}", g % 2))],
            )
            .unwrap();
        }
    }
    i
}

/// Asserts that the outcome is a deadline trip and that the observed
/// latency stayed within 2× the requested deadline.
#[track_caller]
fn assert_prompt_deadline_trip<T: std::fmt::Debug>(
    outcome: &Outcome<T>,
    elapsed: Duration,
    deadline: Duration,
    label: &str,
) {
    match outcome {
        Outcome::Exceeded { report, .. } => {
            assert_eq!(report.reason, ExceedReason::DeadlineExpired, "{label}: {report}");
        }
        other => panic!("{label}: expected a deadline trip, got {other:?}"),
    }
    assert!(
        elapsed <= deadline * 2,
        "{label}: deadline {deadline:?} observed only after {elapsed:?} (> 2x)"
    );
}

/// Fills a ternary relation from explicit symbolic rows.
fn ternary_rows(schema: &Schema, rows: impl IntoIterator<Item = [String; 3]>) -> Instance {
    let name = schema.signature().symbol(rpr_data::RelId(0)).name().to_owned();
    let mut i = Instance::new(schema.signature().clone());
    for [a, b, c] in rows {
        i.insert_named(&name, [Value::sym(&a), Value::sym(&b), Value::sym(&c)]).unwrap();
    }
    i
}

/// A blowup instance whose exponential search space lives inside ONE
/// conflict component. The session checker decomposes the exact search
/// per component, so a blowup spread across many small components
/// (a product of cheap per-component searches) no longer blows up —
/// the corpus must concentrate it.
fn single_component_blowup(i: usize, schema: &Schema) -> Instance {
    match i {
        // S3 = {12→3, 3→2}: per-group cliques over `c` (12→3) glued
        // together by shared `c` values across groups (3→2). Maximal
        // repairs pick a near-injective group → c assignment.
        3 => ternary_rows(
            schema,
            (0..18).flat_map(|g| {
                (0..6).map(move |c| [format!("a{g}"), format!("b{g}"), format!("c{c}")])
            }),
        ),
        // S5 = {1→3, 2→3}: a single K_{50,50} under 2→3 (same `b`,
        // two `c` classes); `a` unique so 1→3 stays silent.
        5 => ternary_rows(
            schema,
            (0..100).map(|n| [format!("a{n}"), "b".to_owned(), format!("c{}", n % 2)]),
        ),
        // S6 = {∅→1, 2→3}: two `a` values join everything into one
        // component via ∅→1; within a side, per-`b` cliques under 2→3
        // keep `members^groups` maximal choices.
        6 => ternary_rows(
            schema,
            (0..18).flat_map(|g| {
                (0..6).map(move |c| [format!("k{}", g % 2), format!("b{g}"), format!("c{c}")])
            }),
        ),
        _ => dense_ternary(schema, 18, 6),
    }
}

#[test]
fn hard_schemas_trip_the_deadline_promptly() {
    let deadline = Duration::from_millis(60);
    for i in 1..=6 {
        let schema = hard_schema(i);
        // Sized so even the release-mode exact search cannot finish
        // inside the deadline, with the blowup concentrated in a
        // single conflict component (see `single_component_blowup`).
        let instance = single_component_blowup(i, &schema);
        let cg = CsrConflictGraph::new(&schema, &instance);
        // An empty priority makes every repair globally optimal, so
        // confirming the candidate forces the full exponential search.
        let priority = PriorityRelation::empty(instance.len());
        let j = construct_globally_optimal_repair(&cg, &priority);
        let pi = PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
        let checker = GRepairChecker::new(schema.clone());
        let budget = Budget::unlimited().with_deadline(deadline);
        let start = Instant::now();
        let outcome = checker.check_bounded(&pi, &j, &budget);
        assert_prompt_deadline_trip(&outcome, start.elapsed(), deadline, &format!("S{i}"));
    }
}

#[test]
fn ccp_hard_schemas_trip_the_deadline_promptly() {
    let deadline = Duration::from_millis(60);
    for x in ['b', 'c'] {
        let schema = ccp_hard_schema(x);
        // Sb = {1→2} alone splits `dense_ternary` into per-`a` cliques
        // that the per-component search polishes off instantly; a
        // single K_{50,50} (one `a` group, two `b` classes told apart
        // by unique `c`s) keeps the blowup inside one component.
        let instance = if x == 'b' {
            ternary_rows(
                &schema,
                (0..100).map(|n| ["a".to_owned(), format!("b{}", n % 2), format!("c{n}")]),
            )
        } else {
            dense_ternary(&schema, 18, 6)
        };
        let cg = CsrConflictGraph::new(&schema, &instance);
        let priority = PriorityRelation::empty(instance.len());
        let j = construct_globally_optimal_repair(&cg, &priority);
        let pi = PrioritizedInstance::cross_conflict(instance, priority);
        let checker = CcpChecker::new(schema.clone());
        let budget = Budget::unlimited().with_deadline(deadline);
        let start = Instant::now();
        let outcome = checker.check_bounded(&pi, &j, &budget);
        assert_prompt_deadline_trip(&outcome, start.elapsed(), deadline, &format!("S{x}"));
    }
}

#[test]
fn blowup_enumeration_trips_the_deadline_with_a_partial_prefix() {
    let schema = hard_schema(4);
    let instance = dense_ternary(&schema, 14, 4);
    let cg = CsrConflictGraph::new(&schema, &instance);
    let deadline = Duration::from_millis(50);
    let budget = Budget::unlimited().with_deadline(deadline);
    let start = Instant::now();
    let outcome = enumerate_repairs_bounded(&cg, &budget);
    let elapsed = start.elapsed();
    match &outcome {
        Outcome::Exceeded { partial: Some(prefix), report } => {
            assert_eq!(report.reason, ExceedReason::DeadlineExpired, "{report}");
            assert!(!prefix.is_empty(), "the prefix gathered before the trip is a valid partial");
            for j in prefix {
                let consistent =
                    j.iter().all(|f| j.iter().all(|g| f == g || !cg.conflicting(f, g)));
                assert!(consistent, "every partial member must be a true repair");
            }
        }
        other => panic!("expected Exceeded with a prefix, got {other:?}"),
    }
    assert!(elapsed <= deadline * 2, "deadline {deadline:?} observed only after {elapsed:?}");
}

#[test]
fn work_budgets_trip_near_the_requested_allowance() {
    let schema = hard_schema(4);
    let instance = dense_ternary(&schema, 12, 4);
    let cg = CsrConflictGraph::new(&schema, &instance);
    let priority = PriorityRelation::empty(instance.len());
    let j = construct_globally_optimal_repair(&cg, &priority);
    let pi = PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
    let checker = GRepairChecker::new(schema);
    for max_work in [100u64, 10_000, 1_000_000] {
        let budget = Budget::unlimited().with_max_work(max_work);
        match checker.check_bounded(&pi, &j, &budget) {
            Outcome::Exceeded { report, .. } => {
                assert_eq!(report.reason, ExceedReason::WorkExhausted);
                // Sequential checking overshoots the allowance by at
                // most the final charge.
                assert!(
                    report.work_done <= max_work + 2,
                    "work_done {} far beyond allowance {max_work}",
                    report.work_done
                );
            }
            other => panic!("max_work={max_work}: expected Exceeded, got {other:?}"),
        }
    }
}
