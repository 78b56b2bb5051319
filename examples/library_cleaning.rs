//! The paper's running example, end to end: the library database of
//! Figure 1, the priority of Example 2.3, the repairs of Example 2.5,
//! and both polynomial algorithms (`GRepCheck1FD`, `GRepCheck2Keys`)
//! doing the checking.
//!
//! Run with `cargo run --example library_cleaning`.

use preferred_repairs::core::{check_global_1fd, check_global_2keys, is_pareto_optimal};
use preferred_repairs::gen::RunningExample;
use preferred_repairs::prelude::*;

fn main() {
    let ex = RunningExample::new();
    let instance = &ex.instance;
    let sig = ex.schema.signature().clone();
    println!("Figure 1 instance ({} facts):", instance.len());
    print!("{instance:?}");

    // Example 3.2: the schema is on the tractable side.
    let class = classify_schema(&ex.schema);
    println!("\nTheorem 3.1 classification: {}", class.complexity());
    for (rel, c) in class.per_relation() {
        println!("  {}: {:?}", sig.symbol(*rel).name(), c);
    }

    let cg = CsrConflictGraph::new(&ex.schema, instance);
    println!("\nconflicts: {} pairs", cg.edges().len());

    // Example 2.5: check the four candidate repairs.
    let pi = ex.prioritized();
    let checker = GRepairChecker::new(ex.schema.clone());
    for (name, j) in [("J1", ex.j1()), ("J2", ex.j2()), ("J3", ex.j3()), ("J4", ex.j4())] {
        let outcome = checker.check(&pi, &j);
        println!(
            "\n{name} = {}\n  repair: {}  pareto-optimal: {}  globally-optimal: {}",
            instance.render_set(&j),
            cg.is_repair(&j),
            is_pareto_optimal(&cg, &ex.priority, &j),
            outcome.is_optimal()
        );
        if let CheckOutcome::Improvable(imp) = outcome {
            println!(
                "  improvement: remove {} / add {}",
                instance.render_set(&imp.removed),
                instance.render_set(&imp.added)
            );
        }
    }

    // Drive the two per-relation algorithms directly, as §4 presents
    // them.
    let f = RunningExample::fact_ids();
    let book = sig.rel_id("BookLoc").unwrap();
    let lib = sig.rel_id("LibLoc").unwrap();
    let fd = ex.schema.fds_for(book)[0];
    let book_domain = instance.rel_set(book);
    let j2_book = ex.j2().intersect(&book_domain);
    println!(
        "\nGRepCheck1FD on J2 ∩ BookLoc: {:?}",
        check_global_1fd(instance, &cg, &ex.priority, fd, &book_domain, &j2_book).is_optimal()
    );
    let lib_domain = instance.rel_set(lib);
    let j2_lib = ex.j2().intersect(&lib_domain);
    println!(
        "GRepCheck2Keys on J2 ∩ LibLoc: {:?}",
        check_global_2keys(
            instance,
            &cg,
            &ex.priority,
            AttrSet::singleton(1),
            AttrSet::singleton(2),
            &lib_domain,
            &j2_lib
        )
        .is_optimal()
    );

    // Figure 3's J = {d1a, f2b, f3c}: the G21 cycle shows it is not
    // globally optimal.
    let j_fig3 = instance.set_of([f.d1a, f.f2b, f.f3c]);
    let j_fig3_full = j_fig3.union(&ex.j2().intersect(&book_domain));
    let outcome = checker.check(&pi, &j_fig3_full);
    println!(
        "\nFigure 3's LibLoc repair {} is globally optimal: {}",
        instance.render_set(&j_fig3),
        outcome.is_optimal()
    );
}
