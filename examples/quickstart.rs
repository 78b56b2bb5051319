//! Quickstart: declare a schema, load inconsistent data, state
//! preferences, and check preferred repairs.
//!
//! Run with `cargo run --example quickstart`.

use preferred_repairs::core::{
    enumerate_repairs_bounded, globally_optimal_repairs_bounded, is_pareto_optimal,
};
use preferred_repairs::prelude::*;

fn main() {
    // A tiny personnel database: Emp(name, dept, office) where an
    // employee's name determines everything (a key on attribute 1).
    let sig = Signature::new([("Emp", 3)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("Emp", &[1][..], &[2, 3][..])]).unwrap();

    // Classify the schema first: Theorem 3.1 tells us checking will be
    // polynomial (a single FD).
    let class = classify_schema(&schema);
    println!("schema complexity (Theorem 3.1): {}", class.complexity());

    // Two sources disagree about Alice and Bob.
    let mut instance = Instance::new(sig);
    let src_a = [("alice", "eng", "b42"), ("bob", "hr", "b17"), ("carol", "legal", "b99")];
    let src_b = [("alice", "eng", "b43"), ("bob", "sales", "b17")];
    let mut ids_a = Vec::new();
    let mut ids_b = Vec::new();
    for (n, d, o) in src_a {
        ids_a.push(instance.insert_named("Emp", [n.into(), d.into(), o.into()]).unwrap());
    }
    for (n, d, o) in src_b {
        ids_b.push(instance.insert_named("Emp", [n.into(), d.into(), o.into()]).unwrap());
    }
    println!("\ninstance I ({} facts):", instance.len());
    print!("{instance:?}");

    // Source B is fresher: prefer its facts over conflicting A facts.
    let mut builder = PriorityBuilder::new(&instance);
    for &b in &ids_b {
        for &a in &ids_a {
            if schema.conflicting(instance.fact(b), instance.fact(a)) {
                builder.prefer_ids(b, a);
            }
        }
    }
    let priority = builder.build().unwrap();
    let pi = PrioritizedInstance::conflict_restricted(&schema, instance.clone(), priority.clone())
        .unwrap();

    // Enumerate the classical repairs, then check each with the
    // dispatching polynomial checker.
    let cg = CsrConflictGraph::new(&schema, &instance);
    let checker = GRepairChecker::new(schema.clone());
    println!("\nrepairs and their status:");
    for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
        .expect_done("repair enumeration")
    {
        let outcome = checker.check(&pi, &j);
        println!(
            "  {}  globally-optimal: {}  pareto-optimal: {}",
            instance.render_set(&j),
            outcome.is_optimal(),
            is_pareto_optimal(&cg, &priority, &j),
        );
        if let CheckOutcome::Improvable(imp) = outcome {
            println!(
                "      improvable: swap out {} for {}",
                instance.render_set(&imp.removed),
                instance.render_set(&imp.added)
            );
        }
    }

    // With a total preference per conflict, the cleaning is
    // unambiguous: exactly one globally-optimal repair.
    let optimal = globally_optimal_repairs_bounded(
        &cg,
        &priority,
        &Budget::unlimited().with_max_work(1 << 20),
    )
    .expect_done("optimal repairs");
    println!("\nglobally-optimal repairs: {}", optimal.len());
    for j in &optimal {
        println!("  {}", instance.render_set(j));
    }
}
