//! Declarative cleaning with `rpr-policy`: compose "prefer newer" and
//! "prefer trusted sources" rules, compile them to a priority, and
//! clean a customer table to a unique globally-optimal repair.
//!
//! Run with `cargo run --example cleaning_policy`.

use preferred_repairs::core::{
    construct_globally_optimal_repair, globally_optimal_repairs_bounded,
};
use preferred_repairs::policy::{Policy, PriorityScope};
use preferred_repairs::prelude::*;

fn main() {
    // Customer(id, email, source, updated_at); id determines the rest.
    let sig = Signature::new([("Customer", 4)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("Customer", &[1][..], &[2, 3, 4][..])]).unwrap();

    let mut instance = Instance::new(sig);
    for (id, email, source, t) in [
        ("c1", "ada@old.example", "crm", 100),
        ("c1", "ada@new.example", "crm", 200),
        ("c1", "ada@typo.example", "scrape", 300),
        ("c2", "bob@a.example", "scrape", 150),
        ("c2", "bob@b.example", "import", 150),
        ("c3", "eve@x.example", "crm", 50),
    ] {
        instance
            .insert_named("Customer", [id.into(), email.into(), source.into(), Value::Int(t)])
            .unwrap();
    }
    println!("dirty table ({} rows):", instance.len());
    print!("{instance:?}");

    // Policy: trust the CRM over imports over scrapes; within a source
    // tier, newer wins; force determinism with a final tie-break.
    let policy = Policy::new()
        .prefer_source_ranking(3, &["crm", "import", "scrape"])
        .prefer_newer(4)
        .break_ties_lexicographically();
    println!("\npolicy: {policy:?}");

    let priority = policy
        .compile(&schema, &instance, PriorityScope::ConflictsOnly)
        .expect("policies compile to acyclic priorities");
    println!("compiled priority: {} edges", priority.edge_count());

    let cg = CsrConflictGraph::new(&schema, &instance);
    let cleaned = construct_globally_optimal_repair(&cg, &priority);
    println!("\ncleaned table: {}", instance.render_set(&cleaned));

    // A total-per-conflict policy yields an unambiguous cleaning.
    let all = globally_optimal_repairs_bounded(
        &cg,
        &priority,
        &Budget::unlimited().with_max_work(1 << 22),
    )
    .expect_done("optimal repairs");
    println!("globally-optimal repairs: {} (unambiguous: {})", all.len(), all.len() == 1);
    assert_eq!(all, vec![cleaned]);

    // The checker agrees (Theorem 3.1: single FD per relation ⇒ PTIME).
    let pi = PrioritizedInstance::conflict_restricted(&schema, instance.clone(), priority).unwrap();
    let checker = GRepairChecker::new(schema);
    println!("checker verdict on the cleaned table: {:?}", checker.check(&pi, &all[0]));
}
