//! Separations between the three preferred-repair semantics, including
//! the concrete refutation of Proposition 10(iii) of Staworko et al.
//! that §4.1 of the paper reports ("Unfortunately, Proposition 10 (iii)
//! in [14] is incorrect").

use preferred_repairs::core::{
    completion_optimal_repairs_brute, enumerate_repairs_bounded, is_completion_optimal,
    is_completion_optimal_brute, is_globally_optimal_brute_bounded, is_pareto_optimal, Budget,
};
use preferred_repairs::data::{FactId, Instance, Signature, Value};
use preferred_repairs::fd::{CsrConflictGraph, Schema};
use preferred_repairs::gen::{
    random_conflict_priority, random_instance, single_fd_schema, InstanceSpec,
};
use preferred_repairs::priority::PriorityRelation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Proposition 10(iii) of [14] claimed that for a single FD, global
/// and completion optimality coincide. Counterexample (single FD
/// `R: 1→2` over a ternary relation):
///
/// * group `g` has the `J`-block `{j1, j2}` (second attribute `J`) and
///   two singleton blocks `{x1}`, `{x2}`;
/// * priorities `x1 ≻ j1` and `x2 ≻ j2`.
///
/// `J = {j1, j2}` is globally optimal — a swap to block `{x1}` loses
/// `j2` without compensation, and symmetrically for `{x2}` — but no
/// completion produces `J`: a completion must place `x1` before `j1`
/// and `x2` before `j2`, while `x1` can only be killed by a `J`-fact
/// kept before it, forcing `j2 < x1 < j1 < x2 < j2`, a cycle.
#[test]
fn proposition_10_iii_of_staworko_et_al_is_refuted() {
    let sig = Signature::new([("R", 3)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
    let v = Value::sym;
    let mut instance = Instance::new(sig);
    let j1 = instance.insert_named("R", [v("g"), v("J"), v("1")]).unwrap();
    let j2 = instance.insert_named("R", [v("g"), v("J"), v("2")]).unwrap();
    let x1 = instance.insert_named("R", [v("g"), v("X1"), v("1")]).unwrap();
    let x2 = instance.insert_named("R", [v("g"), v("X2"), v("1")]).unwrap();
    let priority = PriorityRelation::new(instance.len(), [(x1, j1), (x2, j2)]).unwrap();
    let cg = CsrConflictGraph::new(&schema, &instance);
    let j = instance.set_of([j1, j2]);
    assert!(cg.is_repair(&j));

    // Globally optimal…
    assert!(is_globally_optimal_brute_bounded(
        &cg,
        &priority,
        &j,
        &Budget::unlimited().with_max_work(1 << 20)
    )
    .expect_done("global oracle"));
    // …and Pareto optimal…
    assert!(is_pareto_optimal(&cg, &priority, &j));
    // …but NOT completion optimal, by the polynomial checker and by
    // exhaustive completion enumeration alike.
    assert!(!is_completion_optimal(&cg, &priority, &j));
    assert!(!is_completion_optimal_brute(
        &cg,
        &priority,
        &j,
        &Budget::unlimited().with_max_work(1 << 20)
    )
    .expect_done("completion enumeration"));
    // Sanity: the schema IS a single FD, so this is exactly the
    // setting of Proposition 10(iii).
    let class = preferred_repairs::classify::classify_relation(
        schema.fds(),
        preferred_repairs::data::RelId(0),
        3,
    );
    assert!(matches!(class, preferred_repairs::classify::RelationClass::SingleFd(_)));
}

/// The chain of inclusions C-repairs ⊆ G-repairs ⊆ P-repairs ⊆ repairs
/// (Staworko et al.; the paper relies on "every globally-optimal repair
/// is Pareto-optimal" in §2.4), on randomized single-FD and mixed
/// instances.
#[test]
fn semantics_inclusion_chain_randomized() {
    // Arity 3 matters: under a binary single-FD schema the conflict
    // graph is a union of cliques and P-optimal = G-optimal; the third
    // attribute creates multipartite blocks that separate them.
    let schema = single_fd_schema(3, &[1], &[2]);
    let mut strict_cg = 0;
    let mut strict_gp = 0;
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance =
            random_instance(&schema, InstanceSpec { facts_per_relation: 7, domain: 3 }, &mut rng);
        let cg = CsrConflictGraph::new(&schema, &instance);
        if cg.edges().len() > 14 {
            continue;
        }
        let priority = random_conflict_priority(&cg, 0.5, &mut rng);
        let repairs = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration");
        let c_repairs = completion_optimal_repairs_brute(
            &cg,
            &priority,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("completion enumeration");
        for j in &repairs {
            let c = c_repairs.contains(j);
            let g = is_globally_optimal_brute_bounded(
                &cg,
                &priority,
                j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            let p = is_pareto_optimal(&cg, &priority, j);
            assert!(!c || g, "seed {seed}: C ⊆ G violated");
            assert!(!g || p, "seed {seed}: G ⊆ P violated");
            strict_cg += usize::from(g && !c);
            strict_gp += usize::from(p && !g);
        }
        // C-repairs always exist (any completion's greedy repair).
        assert!(!c_repairs.is_empty(), "seed {seed}: no C-repair");
    }
    // Strict separations are pinned by deterministic constructions
    // elsewhere (the Proposition 10(iii) counterexample above for G≠C,
    // the running-example test for P≠G); random sampling at this size
    // need not hit them, so only the inclusions are asserted here.
    let _ = (strict_cg, strict_gp);
}

/// Example 2.5's J3/J4 already separate Pareto-optimal from
/// globally-optimal; re-verify via the enumeration oracles.
#[test]
fn pareto_strictly_weaker_than_global_on_the_running_example() {
    let ex = preferred_repairs::gen::RunningExample::new();
    let cg = CsrConflictGraph::new(&ex.schema, &ex.instance);
    let variant = ex.priority_without_g2a_edges();
    let j3 = ex.j3();
    assert!(is_pareto_optimal(&cg, &variant, &j3));
    // Under the variant priority J3 happens to also be globally
    // optimal; under the full Example 2.3 priority it is neither.
    assert!(!is_globally_optimal_brute_bounded(
        &cg,
        &ex.priority,
        &j3,
        &Budget::unlimited().with_max_work(1 << 22)
    )
    .expect_done("global oracle"));
    assert!(!is_pareto_optimal(&cg, &ex.priority, &j3));
    // A genuine P-not-G separation with the full priority, found by
    // scanning the repairs of the running example:
    let mut separated = false;
    for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 22))
        .expect_done("repair enumeration")
    {
        if is_pareto_optimal(&cg, &ex.priority, &j)
            && !is_globally_optimal_brute_bounded(
                &cg,
                &ex.priority,
                &j,
                &Budget::unlimited().with_max_work(1 << 22),
            )
            .expect_done("global oracle")
        {
            separated = true;
            break;
        }
    }
    assert!(separated, "the running example separates P from G");
}

/// Under a *total* (per conflict pair) priority, all three preferred
/// semantics coincide and the cleaning is unambiguous.
#[test]
fn total_priorities_collapse_the_semantics() {
    let sig = Signature::new([("R", 2)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
    let v = Value::sym;
    let mut instance = Instance::new(sig);
    for (a, b) in [("g", "1"), ("g", "2"), ("g", "3"), ("h", "1"), ("h", "2")] {
        instance.insert_named("R", [v(a), v(b)]).unwrap();
    }
    let priority = PriorityRelation::new(
        instance.len(),
        [
            (FactId(0), FactId(1)),
            (FactId(1), FactId(2)),
            (FactId(0), FactId(2)),
            (FactId(3), FactId(4)),
        ],
    )
    .unwrap();
    let cg = CsrConflictGraph::new(&schema, &instance);
    let g: Vec<_> = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
        .expect_done("repair enumeration")
        .into_iter()
        .filter(|j| {
            is_globally_optimal_brute_bounded(
                &cg,
                &priority,
                j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle")
        })
        .collect();
    assert_eq!(g.len(), 1);
    let c = completion_optimal_repairs_brute(
        &cg,
        &priority,
        &Budget::unlimited().with_max_work(1 << 20),
    )
    .expect_done("completion enumeration");
    assert_eq!(c, g);
    assert!(is_pareto_optimal(&cg, &priority, &g[0]));
}
