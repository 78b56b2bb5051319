//! Cross-conflict priorities (§7): prefer one data source over another
//! wholesale, even between non-conflicting facts.
//!
//! Two feeds report sensor assignments (`Sensor(id, room)`, key `id`)
//! and calibration owners (`Calib(id, tech)`, key `id`). Feed "gold" is
//! trusted over feed "scratch" *as a whole*: every gold fact outranks
//! every scratch fact — a relation the classical model of §2.3 forbids
//! (the facts need not conflict) but ccp-instances allow. The schema is
//! a primary-key assignment, so Theorem 7.1 puts checking in PTIME via
//! the Lemma 7.3 graph algorithm.
//!
//! Run with `cargo run --example source_reliability`.

use preferred_repairs::core::enumerate_repairs_bounded;
use preferred_repairs::prelude::*;

fn main() {
    let sig = Signature::new([("Sensor", 2), ("Calib", 2)]).unwrap();
    let schema = Schema::from_named(
        sig.clone(),
        [("Sensor", &[1][..], &[2][..]), ("Calib", &[1][..], &[2][..])],
    )
    .unwrap();

    // Theorem 7.6: classify for ccp checking.
    let ccp_class = classify_schema_ccp(&schema);
    println!("ccp classification (Theorem 7.1): {:?}", ccp_class);
    println!("complexity over ccp-instances: {}\n", ccp_class.complexity());

    let mut instance = Instance::new(sig);
    let mut gold = Vec::new();
    let mut scratch = Vec::new();
    for (rel, id, val) in
        [("Sensor", "s1", "lab"), ("Sensor", "s2", "office"), ("Calib", "s1", "dana")]
    {
        gold.push(instance.insert_named(rel, [id.into(), val.into()]).unwrap());
    }
    for (rel, id, val) in [
        ("Sensor", "s1", "closet"),
        ("Sensor", "s3", "roof"),
        ("Calib", "s1", "evan"),
        ("Calib", "s2", "faye"),
    ] {
        scratch.push(instance.insert_named(rel, [id.into(), val.into()]).unwrap());
    }
    println!("instance ({} facts):", instance.len());
    print!("{instance:?}");

    // Source-level trust: every gold fact ≻ every scratch fact.
    // (Cross-conflict: most of these pairs do not conflict.)
    let mut edges = Vec::new();
    for &g in &gold {
        for &s in &scratch {
            edges.push((g, s));
        }
    }
    let priority = PriorityRelation::new(instance.len(), edges).unwrap();
    let pi = PrioritizedInstance::cross_conflict(instance.clone(), priority);

    let checker = CcpChecker::new(schema.clone());
    println!("\nchecker method: {:?}", checker.method());

    let cg = CsrConflictGraph::new(&schema, &instance);
    println!("\nrepairs:");
    for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
        .expect_done("repair enumeration")
    {
        let outcome = checker.check(&pi, &j);
        println!("  {}  globally-optimal: {}", instance.render_set(&j), outcome.is_optimal());
        if let CheckOutcome::Improvable(imp) = outcome {
            println!(
                "      improvement: remove {} / add {}",
                instance.render_set(&imp.removed),
                instance.render_set(&imp.added)
            );
        }
    }

    println!(
        "\nNote: the classical (conflict-restricted) classifier would also\n\
         accept this schema — but validating this *priority* in classical\n\
         mode fails, because gold facts outrank non-conflicting scratch\n\
         facts:"
    );
    let err =
        PrioritizedInstance::conflict_restricted(&schema, instance.clone(), pi.priority().clone())
            .unwrap_err();
    println!("  {err}");
}
