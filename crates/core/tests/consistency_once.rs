//! Consistency decided once: a session decides consistency for the
//! whole candidate in its pre-pass, so its PTIME checks (single FD, two
//! keys, ccp primary keys, ccp constant attributes) start from a
//! consistent `J`, while the public one-shot checkers run their own
//! pre-check. On inconsistent, non-maximal, improvable and optimal
//! candidates, the session's outcome — witness included — must equal
//! the one-shot checker's, at one and at four jobs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpr_classify::{classify_schema, classify_schema_ccp, CcpClass, RelationClass};
use rpr_core::{
    check_global_1fd, check_global_2keys, check_global_ccp_const, check_global_ccp_pk,
    enumerate_repairs_bounded, Budget, CheckOutcome, CheckSession,
};
use rpr_data::{FactId, FactSet, Instance, Signature};
use rpr_fd::{CsrConflictGraph, Schema};
use rpr_gen::schemas::{single_fd_schema, two_keys_schema};
use rpr_gen::{random_ccp_priority, random_conflict_priority, random_instance, InstanceSpec};
use rpr_priority::PrioritizedInstance;

/// The four PTIME classes, by their schemas.
fn schemas() -> [(&'static str, Schema); 4] {
    let two = |rels: [(&'static str, usize); 2]| Signature::new(rels).unwrap();
    [
        ("single FD", single_fd_schema(3, &[1], &[2])),
        ("two keys", two_keys_schema(2, &[1], &[2])),
        (
            "ccp primary keys",
            Schema::from_named(
                two([("R", 2), ("S", 3)]),
                [("R", &[1][..], &[2][..]), ("S", &[1][..], &[2, 3][..])],
            )
            .unwrap(),
        ),
        (
            "ccp constant attributes",
            Schema::from_named(
                two([("R", 2), ("S", 2)]),
                [("R", &[][..], &[2][..]), ("S", &[][..], &[1][..])],
            )
            .unwrap(),
        ),
    ]
}

/// The one-shot checker of `schema`'s class, with its own pre-check.
fn one_shot(schema: &Schema, pi: &PrioritizedInstance, j: &FactSet) -> CheckOutcome {
    let (instance, p) = (pi.instance(), pi.priority());
    let cg = CsrConflictGraph::new(schema, instance);
    let full = instance.full_set();
    if pi.mode() == rpr_priority::PriorityMode::CrossConflict {
        return match classify_schema_ccp(schema) {
            CcpClass::PrimaryKeyAssignment(_) => check_global_ccp_pk(&cg, p, j),
            CcpClass::ConstantAttributeAssignment(consts) => {
                check_global_ccp_const(instance, &cg, p, &consts, j)
            }
            CcpClass::Hard { .. } => unreachable!("the ccp schemas are tractable"),
        };
    }
    match classify_schema(schema).per_relation()[0].1 {
        RelationClass::SingleFd(fd) => check_global_1fd(instance, &cg, p, fd, &full, j),
        RelationClass::TwoKeys(a1, a2) => check_global_2keys(instance, &cg, p, a1, a2, &full, j),
        RelationClass::Hard(_) => unreachable!("the classical schemas are tractable"),
    }
}

/// The name of `schema`'s class under the dichotomy of its mode.
fn class_name(schema: &Schema, ccp: bool) -> &'static str {
    if ccp {
        return match classify_schema_ccp(schema) {
            CcpClass::PrimaryKeyAssignment(_) => "ccp primary keys",
            CcpClass::ConstantAttributeAssignment(_) => "ccp constant attributes",
            CcpClass::Hard { .. } => "ccp hard",
        };
    }
    match classify_schema(schema).per_relation()[0].1 {
        RelationClass::SingleFd(_) => "single FD",
        RelationClass::TwoKeys(..) => "two keys",
        RelationClass::Hard(_) => "hard",
    }
}

/// Which kind an outcome is: inconsistent, non-maximal, improvable by
/// an exchange, or optimal.
fn kind(outcome: &CheckOutcome) -> usize {
    match outcome {
        CheckOutcome::Inconsistent(..) => 0,
        CheckOutcome::Improvable(imp) if imp.removed.is_empty() => 1,
        CheckOutcome::Improvable(_) => 2,
        CheckOutcome::Optimal => 3,
    }
}

#[test]
fn session_outcomes_equal_the_one_shot_checkers() {
    for (index, (name, schema)) in schemas().into_iter().enumerate() {
        let ccp = index >= 2;
        assert_eq!(class_name(&schema, ccp), name);
        let mut kinds = [0usize; 4];
        for seed in 0..150 {
            let mut rng = StdRng::seed_from_u64(0xC0_5157 + seed);
            let spec = InstanceSpec { facts_per_relation: 3 + seed as usize % 4, domain: 3 };
            let instance = random_instance(&schema, spec, &mut rng);
            let cg = CsrConflictGraph::new(&schema, &instance);
            let density = [0.3, 0.7, 1.0][seed as usize % 3];
            let pi = if ccp {
                let p = random_ccp_priority(&cg, density, 3, &mut rng);
                PrioritizedInstance::cross_conflict(instance.clone(), p)
            } else {
                let p = random_conflict_priority(&cg, density, &mut rng);
                PrioritizedInstance::conflict_restricted(&schema, instance.clone(), p).unwrap()
            };
            let repairs =
                enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
                    .expect_done("repair enumeration");
            let mut js = vec![instance.empty_set(), instance.full_set()];
            for r in repairs {
                if let Some(f) = r.first() {
                    let mut partial = r.clone();
                    partial.remove(f);
                    js.push(partial);
                }
                // One conflicting outside fact makes the repair inconsistent.
                if let Some(g) = r.complement().first() {
                    let mut bad = r.clone();
                    bad.insert(g);
                    js.push(bad);
                }
                js.push(r);
            }
            let sessions = [1, 4].map(|jobs| CheckSession::new(&schema, &pi).with_jobs(jobs));
            for j in &js {
                let expected = one_shot(&schema, &pi, j);
                kinds[kind(&expected)] += 1;
                for s in &sessions {
                    assert_eq!(
                        s.check(j),
                        expected,
                        "{name}, seed {seed}, {} jobs, {j:?}",
                        s.jobs()
                    );
                }
            }
        }
        assert!(kinds.iter().all(|&k| k > 0), "{name}: every outcome kind is covered: {kinds:?}");
    }
}

/// The witness of the conflict-row pre-pass: the least fact of `j`
/// conflicting inside `j`, with its least partner.
fn pre_pass_witness(cg: &CsrConflictGraph, j: &FactSet) -> Option<(FactId, FactId)> {
    j.iter().find_map(|f| cg.first_conflict_in(f, j).map(|g| (f, g)))
}

/// Sessions over schemas whose relations are all single-FD decide
/// consistency inside their `GRepCheck1FD` passes: on random candidates
/// (most of them inconsistent) the witness is the pre-pass witness, and
/// a consistent candidate gets the first non-optimal one-shot outcome
/// in relation order — at one and at four jobs, on instances small and
/// large enough for the passes to fan out.
#[test]
fn single_fd_sessions_report_the_pre_pass_witness() {
    let sig = Signature::new([("R", 3), ("S", 2), ("T", 3), ("U", 2)]).unwrap();
    let several = Schema::from_named(
        sig,
        [("R", &[1][..], &[2][..]), ("S", &[1][..], &[2][..]), ("T", &[1, 2][..], &[3][..])],
    )
    .unwrap();
    // One relation: four jobs fan its groups out instead of relations.
    let one = single_fd_schema(3, &[1], &[2]);
    let (mut inconsistent, mut consistent) = (0, 0);
    for (seed, schema) in (0..80u64).zip([several, one].iter().cycle()) {
        let class = classify_schema(schema);
        assert!(class.per_relation().iter().all(|(_, c)| matches!(c, RelationClass::SingleFd(_))));
        let facts =
            if seed % 10 >= 8 { 6000 / class.per_relation().len() } else { 4 + seed as usize % 9 };
        let domain = if facts > 100 { 40 } else { 3 };
        let mut rng = StdRng::seed_from_u64(0x0_5CA9 + seed);
        let spec = InstanceSpec { facts_per_relation: facts, domain };
        // The generator inserts relation by relation; reinsert in a
        // shuffled order so the relations' ids interleave.
        let generated = random_instance(schema, spec, &mut rng);
        let mut order: Vec<FactId> = generated.fact_ids().collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        let mut instance = Instance::new(schema.signature().clone());
        for id in order {
            instance.insert(generated.fact(id).to_fact());
        }
        let cg = CsrConflictGraph::new(schema, &instance);
        let p = random_conflict_priority(&cg, 0.5, &mut rng);
        let pi = PrioritizedInstance::conflict_restricted(schema, instance.clone(), p).unwrap();
        let sessions = [1, 4].map(|jobs| CheckSession::new(schema, &pi).with_jobs(jobs));
        for density in [0.02, 0.1, 0.3, 0.6, 1.0] {
            let mut j = instance.empty_set();
            for f in instance.fact_ids() {
                if rng.random_bool(density) {
                    j.insert(f);
                }
            }
            let expected = match pre_pass_witness(&cg, &j) {
                Some((f, g)) => {
                    inconsistent += 1;
                    CheckOutcome::Inconsistent(f, g)
                }
                None => {
                    consistent += 1;
                    (class.per_relation().iter())
                        .map(|&(rel, ref c)| {
                            let RelationClass::SingleFd(fd) = *c else { unreachable!() };
                            let domain = instance.rel_set(rel);
                            let j_rel = j.intersect(&domain);
                            check_global_1fd(&instance, &cg, pi.priority(), fd, &domain, &j_rel)
                        })
                        .find(|o| !o.is_optimal())
                        .unwrap_or(CheckOutcome::Optimal)
                }
            };
            for s in &sessions {
                assert_eq!(
                    s.check(&j),
                    expected,
                    "seed {seed}, {} jobs, density {density}",
                    s.jobs()
                );
            }
        }
    }
    assert!(inconsistent >= 100 && consistent >= 20, "{inconsistent} / {consistent}");
}
