//! Differential test: the one exhaustive improvement search (the local
//! graph search shards run, run by `check_global_exact_bounded` over its
//! whole domain) against the global-coordinate search it replaced (kept
//! in `reference/`).
//!
//! Random S4 instances of at most 12 facts, under conflict-restricted
//! and ccp priorities, are checked on candidates of every kind —
//! optimal, improvable, non-maximal and inconsistent. Half of them are
//! padded with 60 conflict-free facts, so the search's sets span more
//! than one bitset word and most of its facts never branch. On conflict-closed
//! domains (the full set and single components) the two searches must
//! agree on outcome, witness and work charged, and trip at the same
//! work count under every smaller allowance. On domains that are not
//! conflict-closed the outcome and witness must agree, and the one
//! search may only charge less: it does not branch on a fact whose
//! conflicts all leave the domain.

#[path = "reference/exact_search.rs"]
mod reference;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpr_core::{check_global_exact_bounded, enumerate_repairs_bounded, CheckOutcome};
use rpr_data::{FactSet, Value};
use rpr_engine::{Budget, ExceedReason, Outcome};
use rpr_fd::{ComponentLayout, CsrConflictGraph};
use rpr_gen::{random_ccp_priority, random_conflict_priority, random_instance, InstanceSpec};
use rpr_priority::PriorityRelation;

/// Conflict-free facts added to a padded instance.
const PADDING: usize = 60;

/// Runs the one search and the reference under equal allowances,
/// returning both outcomes and the work each charged.
fn run_both(
    cg: &CsrConflictGraph,
    p: &PriorityRelation,
    domain: &FactSet,
    j: &FactSet,
    max_work: u64,
) -> ((Outcome<CheckOutcome>, u64), (Outcome<CheckOutcome>, u64)) {
    let new_budget = Budget::unlimited().with_max_work(max_work);
    let new = check_global_exact_bounded(cg, p, domain, j, &new_budget);
    let old_budget = Budget::unlimited().with_max_work(max_work);
    let old = match reference::check_global_exact_stop(cg, p, domain, j, &old_budget) {
        Ok(o) => Outcome::Done(o),
        Err(stop) => Outcome::from_stop(stop, None),
    };
    ((new, new_budget.work_done()), (old, old_budget.work_done()))
}

/// Tallies of what the cases covered, so a generator change that stops
/// producing some kind of case fails loudly.
#[derive(Default, Debug)]
struct Coverage {
    optimal: usize,
    improvable_by_search: usize,
    improvable_by_precheck: usize,
    inconsistent: usize,
    trips: usize,
    open_domains: usize,
    open_domains_cheaper: usize,
}

#[test]
fn one_search_matches_the_reference_search() {
    let schema = rpr_gen::hard_schema(4);
    let mut cov = Coverage::default();
    for seed in 0..800u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = InstanceSpec { facts_per_relation: rng.random_range(8..=12), domain: 3 };
        let mut instance = random_instance(&schema, spec, &mut rng);
        if seed % 4 >= 2 {
            for i in 0..PADDING {
                let fresh = [format!("a{i}"), format!("b{i}"), format!("c{i}")].map(Value::sym);
                instance.insert_named("R4", fresh).unwrap();
            }
        }
        let cg = CsrConflictGraph::new(&schema, &instance);
        let ccp = seed % 2 == 1;
        let p = if ccp {
            random_ccp_priority(&cg, 0.45, rng.random_range(1..=6), &mut rng)
        } else {
            random_conflict_priority(&cg, 0.45, &mut rng)
        };
        let full = instance.full_set();
        let layout = ComponentLayout::from_csr(&CsrConflictGraph::new(&schema, &instance));

        let repairs = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repairs of 12 conflicting facts");
        let mut candidates = Vec::new();
        for r in repairs.iter() {
            candidates.push(r.clone());
            if let Some(f) = r.first() {
                let mut non_maximal = r.clone();
                non_maximal.remove(f);
                candidates.push(non_maximal);
            }
            if let Some(g) = r.complement().first() {
                let mut inconsistent = r.clone();
                inconsistent.insert(g);
                candidates.push(inconsistent);
            }
        }

        // Conflict-closed domains: the full set and every nontrivial
        // component.
        let closed: Vec<FactSet> = std::iter::once(full.clone())
            .chain(layout.nontrivial().iter().map(|&c| layout.component_set(c as usize)))
            .collect();
        for domain in &closed {
            for j in &candidates {
                let j = j.intersect(domain);
                let ((new, new_work), (old, old_work)) = run_both(&cg, &p, domain, &j, u64::MAX);
                assert_eq!(new, old, "seed {seed}: outcome on {}", instance.render_set(&j));
                assert_eq!(new_work, old_work, "seed {seed}: work on {}", instance.render_set(&j));
                match &new {
                    Outcome::Done(CheckOutcome::Optimal) => cov.optimal += 1,
                    Outcome::Done(CheckOutcome::Improvable(_)) if new_work > 0 => {
                        cov.improvable_by_search += 1
                    }
                    Outcome::Done(CheckOutcome::Improvable(_)) => cov.improvable_by_precheck += 1,
                    Outcome::Done(CheckOutcome::Inconsistent(..)) => cov.inconsistent += 1,
                    other => panic!("seed {seed}: unbounded search stopped: {other:?}"),
                }
                // Every smaller allowance trips both searches at the
                // same node.
                let mut allowances =
                    vec![0, 1, new_work / 4, new_work / 2, new_work.saturating_sub(1)];
                allowances.retain(|&k| k < new_work);
                allowances.sort_unstable();
                allowances.dedup();
                for k in allowances {
                    let ((new, new_work), (old, old_work)) = run_both(&cg, &p, domain, &j, k);
                    for out in [&new, &old] {
                        match out {
                            Outcome::Exceeded { partial: None, report } => {
                                assert_eq!(report.reason, ExceedReason::WorkExhausted);
                                assert_eq!(report.work_done, k + 1, "seed {seed}: trip at {k}");
                            }
                            other => panic!("seed {seed}: allowance {k} did not trip: {other:?}"),
                        }
                    }
                    assert_eq!(new_work, old_work, "seed {seed}: tripped work at {k}");
                    cov.trips += 1;
                }
            }
        }

        // Domains that are not conflict-closed: random halves, with the
        // candidates restricted to them and extended to their repairs.
        for _ in 0..2 {
            let mut domain = FactSet::empty(instance.len());
            for f in full.iter() {
                if rng.random_bool(0.6) {
                    domain.insert(f);
                }
            }
            let is_open = domain.iter().any(|f| cg.neighbors(f).any(|g| !domain.contains(g)));
            cov.open_domains += usize::from(is_open);
            let mut restricted: Vec<FactSet> = Vec::new();
            for j in &candidates {
                let j = j.intersect(&domain);
                if cg.is_consistent_set(&j) {
                    restricted.push(cg.extend_greedily(&j, domain.iter()));
                }
                restricted.push(j);
            }
            for j in &restricted {
                let ((new, new_work), (old, old_work)) = run_both(&cg, &p, &domain, j, u64::MAX);
                assert_eq!(new, old, "seed {seed}: outcome on {}", instance.render_set(j));
                assert!(new_work <= old_work, "seed {seed}: {new_work} > {old_work} work");
                cov.open_domains_cheaper += usize::from(new_work < old_work);
            }
        }
    }
    eprintln!("{cov:?}");
    assert!(cov.optimal >= 100, "{cov:?}");
    assert!(cov.improvable_by_search >= 100, "{cov:?}");
    assert!(cov.improvable_by_precheck >= 100, "{cov:?}");
    assert!(cov.inconsistent >= 100, "{cov:?}");
    assert!(cov.trips >= 100, "{cov:?}");
    assert!(cov.open_domains >= 100, "{cov:?}");
    assert!(cov.open_domains_cheaper >= 20, "{cov:?}");
}
