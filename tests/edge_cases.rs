//! Edge cases and failure injection across the stack: budget
//! exhaustion on every budgeted API, boundary arities, empty inputs,
//! and mode misuse.

use preferred_repairs::core::{
    check_global_exact_bounded, count_globally_optimal_repairs_bounded, enumerate_repairs_bounded,
    find_global_improvement_brute_bounded, is_completion_optimal_brute, Budget, CcpChecker,
    CheckOutcome, GRepairChecker, Outcome,
};
use preferred_repairs::data::{AttrSet, Instance, Signature, Value, MAX_ARITY};
use preferred_repairs::fd::{closure, CsrConflictGraph, Fd, Schema};
use preferred_repairs::priority::{PrioritizedInstance, PriorityRelation};

fn dense_conflicts(n: usize) -> (Schema, Instance) {
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
    let mut i = Instance::new(sig);
    for k in 0..n {
        i.insert_named("R", [Value::sym("g"), Value::Int(k as i64)]).unwrap();
    }
    // plus independent groups to blow up the repair count
    for g in 0..n {
        for k in 0..2 {
            i.insert_named("R", [Value::Int(g as i64), Value::Int(k)]).unwrap();
        }
    }
    (schema, i)
}

#[test]
fn every_budgeted_api_respects_its_budget() {
    let (schema, i) = dense_conflicts(6);
    let cg = CsrConflictGraph::new(&schema, &i);
    let p = PriorityRelation::empty(i.len());
    let j = cg.extend_greedily(&i.empty_set(), i.fact_ids());

    assert!(matches!(
        enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(3)),
        Outcome::Exceeded { .. }
    ));
    assert!(matches!(
        find_global_improvement_brute_bounded(&cg, &p, &j, &Budget::unlimited().with_max_work(3)),
        Outcome::Exceeded { .. }
    ));
    assert!(matches!(
        count_globally_optimal_repairs_bounded(&cg, &p, &Budget::unlimited().with_max_work(3)),
        Outcome::Exceeded { .. }
    ));
    assert!(matches!(
        check_global_exact_bounded(
            &cg,
            &p,
            &i.full_set(),
            &j,
            &Budget::unlimited().with_max_work(3)
        ),
        Outcome::Exceeded { .. }
    ));
    assert!(is_completion_optimal_brute(&cg, &p, &j, 1).is_err());
    // …and with generous budgets they all succeed.
    assert!(enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 26)).is_done());
}

#[test]
fn hard_schema_checker_surfaces_budget_errors() {
    // S4 with a big instance: the dispatching checker's exact fall-back
    // must surface Exceeded rather than hang.
    let sig = Signature::new([("R", 3)]).unwrap();
    let schema =
        Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..]), ("R", &[2][..], &[3][..])])
            .unwrap();
    let mut i = Instance::new(sig);
    for g in 0..10 {
        for v in 0..3 {
            i.insert_named("R", [Value::Int(g), Value::Int(v), Value::Int(v)]).unwrap();
        }
    }
    let p = PriorityRelation::empty(i.len());
    let cg = CsrConflictGraph::new(&schema, &i);
    let j = cg.extend_greedily(&i.empty_set(), i.fact_ids());
    let pi = PrioritizedInstance::conflict_restricted(&schema, i, p).unwrap();
    let checker = GRepairChecker::new(schema);
    let budget = Budget::unlimited().with_max_work(4);
    assert!(matches!(checker.check_bounded(&pi, &j, &budget), Outcome::Exceeded { .. }));
}

#[test]
#[should_panic(expected = "ccp instances must use CcpChecker")]
fn classical_checker_rejects_ccp_instances() {
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
    let mut i = Instance::new(sig);
    i.insert_named("R", [Value::sym("a"), Value::sym("x")]).unwrap();
    let pi = PrioritizedInstance::cross_conflict(i.clone(), PriorityRelation::empty(1));
    let _ = GRepairChecker::new(schema).check(&pi, &i.full_set());
}

#[test]
fn ccp_checker_accepts_classical_instances() {
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
    let mut i = Instance::new(sig);
    let a = i.insert_named("R", [Value::sym("k"), Value::sym("x")]).unwrap();
    let b = i.insert_named("R", [Value::sym("k"), Value::sym("y")]).unwrap();
    let p = PriorityRelation::new(2, [(a, b)]).unwrap();
    let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p).unwrap();
    let checker = CcpChecker::new(schema);
    assert!(checker.check(&pi, &i.set_of([a])).is_optimal());
    assert!(!checker.check(&pi, &i.set_of([b])).is_optimal());
}

#[test]
fn max_arity_relation_works_end_to_end() {
    let sig = Signature::new([("Wide", MAX_ARITY)]).unwrap();
    let rel = sig.rel_id("Wide").unwrap();
    let schema =
        Schema::new(sig.clone(), [Fd::new(rel, AttrSet::singleton(1), AttrSet::full(MAX_ARITY))])
            .unwrap();
    let mut i = Instance::new(sig);
    let row = |seed: i64| -> Vec<Value> {
        (0..MAX_ARITY as i64).map(|k| Value::Int(if k == 0 { 7 } else { seed * k })).collect()
    };
    let a = i.insert_named("Wide", row(1)).unwrap();
    let b = i.insert_named("Wide", row(2)).unwrap();
    let cg = CsrConflictGraph::new(&schema, &i);
    assert!(cg.conflicting(a, b)); // same key, different payload
    assert_eq!(closure(AttrSet::singleton(1), schema.fds()), AttrSet::full(MAX_ARITY));
    let p = PriorityRelation::new(2, [(a, b)]).unwrap();
    let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p).unwrap();
    let checker = GRepairChecker::new(schema);
    assert!(checker.check(&pi, &i.set_of([a])).is_optimal());
}

#[test]
fn unicode_symbols_are_plain_values() {
    let sig = Signature::new([("Ünïcode", 2)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("Ünïcode", &[1][..], &[2][..])]).unwrap();
    let mut i = Instance::new(sig);
    let a = i.insert_named("Ünïcode", [Value::sym("clé"), Value::sym("数値")]).unwrap();
    let b = i.insert_named("Ünïcode", [Value::sym("clé"), Value::sym("другое")]).unwrap();
    let cg = CsrConflictGraph::new(&schema, &i);
    assert!(cg.conflicting(a, b));
    assert!(i.render_set(&i.set_of([a])).contains("数値"));
}

#[test]
fn empty_instance_through_every_checker() {
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
    let i = Instance::new(sig);
    let p = PriorityRelation::empty(0);
    let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p.clone()).unwrap();
    let empty = i.empty_set();
    assert!(GRepairChecker::new(schema.clone()).check(&pi, &empty).is_optimal());
    let pi_ccp = PrioritizedInstance::cross_conflict(i.clone(), p);
    assert!(CcpChecker::new(schema).check(&pi_ccp, &empty).is_optimal());
}

#[test]
fn singleton_j_against_everything_conflicting() {
    // One fact conflicting with all others, preferred over none: adding
    // it alone is a repair only if it kills everything else.
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema =
        Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..]), ("R", &[2][..], &[1][..])])
            .unwrap();
    let mut i = Instance::new(sig);
    let hub = i.insert_named("R", [Value::sym("k"), Value::sym("v")]).unwrap();
    for n in 0..4 {
        i.insert_named("R", [Value::sym("k"), Value::Int(n)]).unwrap(); // share the key
    }
    let p = PriorityRelation::empty(i.len());
    let cg = CsrConflictGraph::new(&schema, &i);
    let j = i.set_of([hub]);
    assert!(cg.is_repair(&j));
    let pi = PrioritizedInstance::conflict_restricted(&schema, i, p).unwrap();
    let out = GRepairChecker::new(schema).check(&pi, &j);
    assert!(matches!(out, CheckOutcome::Optimal));
}

#[test]
fn priority_sized_mismatch_is_a_programming_error() {
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
    let mut i = Instance::new(sig);
    i.insert_named("R", [Value::sym("a"), Value::sym("b")]).unwrap();
    let wrong = PriorityRelation::empty(5);
    let result = std::panic::catch_unwind(|| {
        PrioritizedInstance::conflict_restricted(&schema, i.clone(), wrong)
    });
    assert!(result.is_err(), "size mismatch must panic loudly");
}
