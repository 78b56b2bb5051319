//! Preferred consistent query answering: how certain answers tighten
//! as the repair semantics climbs from all repairs through Pareto- and
//! globally-optimal to completion-optimal repairs — and when the
//! cleaning becomes unambiguous.
//!
//! Run with `cargo run --example preferred_cqa`.

use preferred_repairs::cqa::{
    answers_bounded, atom, ConjunctiveQuery, RepairSemantics, RepairSpace,
};
use preferred_repairs::gen::RunningExample;
use preferred_repairs::prelude::*;

fn main() {
    let ex = RunningExample::new();
    let instance = &ex.instance;

    // q(loc) ← BookLoc(b1, g, lib), LibLoc(lib, loc):
    // where can a copy of book b1 be found?
    let q = ConjunctiveQuery {
        head: vec![3],
        atoms: vec![
            atom(instance, "BookLoc", &["b1", "?1", "?2"]),
            atom(instance, "LibLoc", &["?2", "?3"]),
        ],
    };
    q.validate(instance).unwrap();

    println!("query: q(loc) ← BookLoc(b1, g, lib), LibLoc(lib, loc)\n");
    for (name, sem) in [
        ("all repairs      ", RepairSemantics::All),
        ("Pareto-optimal   ", RepairSemantics::Pareto),
        ("globally-optimal ", RepairSemantics::Global),
        ("completion-optimal", RepairSemantics::Completion),
    ] {
        let res = answers_bounded(
            &ex.schema,
            instance,
            &ex.priority,
            &q,
            sem,
            &Budget::unlimited().with_max_work(1 << 22),
        )
        .expect_done("preferred answers");
        let fmt = |s: &std::collections::BTreeSet<Tuple>| {
            let mut items: Vec<String> = s.iter().map(|t| t.to_string()).collect();
            items.sort();
            items.join(" ")
        };
        println!(
            "{name}: {:3} repairs | certain: {{{}}} | possible: {{{}}}",
            res.repair_count,
            fmt(&res.certain),
            fmt(&res.possible)
        );
    }

    // Counting and uniqueness (the concluding-remarks questions).
    let cg = CsrConflictGraph::new(&ex.schema, instance);
    let space = RepairSpace::compute_bounded(
        &cg,
        &ex.priority,
        &Budget::unlimited().with_max_work(1 << 22),
    )
    .expect_done("repair space");
    println!("\nglobally-optimal repairs: {}", space.count());
    match space.unique() {
        Some(j) => println!("unambiguous cleaning: {}", instance.render_set(j)),
        None => {
            println!("cleaning is ambiguous; the optimal repairs are:");
            for j in &space.optimal {
                println!("  {}", instance.render_set(j));
            }
        }
    }
}
