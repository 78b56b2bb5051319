//! The coNP-hardness gadget of Lemma 5.2, live: encode a graph as a
//! repair-checking input over the schema `S1`, run the exact checker,
//! and read off Hamiltonicity from the answer. Then push the same input
//! through the Case-1 Π mapping into a bigger three-key schema.
//!
//! Run with `cargo run --release --example hardness_gadget`.

use preferred_repairs::core::check_global_exact_bounded;
use preferred_repairs::prelude::*;
use preferred_repairs::reductions::{
    hamiltonian_gadget, improvement_from_cycle, map_input, CaseOneMapping, UGraph,
};

fn check_graph(name: &str, graph: &UGraph) {
    let gadget = hamiltonian_gadget(graph);
    let instance = gadget.prioritized.instance();
    let cg = CsrConflictGraph::new(&gadget.schema, instance);
    println!(
        "{name}: {} vertices, {} edges → gadget instance of {} facts, |J| = {}",
        graph.len(),
        graph.edges().len(),
        instance.len(),
        gadget.j.len()
    );
    let expected = graph.is_hamiltonian();
    match check_global_exact_bounded(
        &cg,
        gadget.prioritized.priority(),
        &instance.full_set(),
        &gadget.j,
        &Budget::unlimited().with_max_work(1 << 26),
    ) {
        Outcome::Done(outcome) => {
            let hamiltonian = !outcome.is_optimal();
            println!(
                "  exact checker: J globally-optimal = {} ⇒ G Hamiltonian = {hamiltonian} (solver says {expected})",
                outcome.is_optimal()
            );
            assert_eq!(hamiltonian, expected, "gadget must agree with the HC solver");
        }
        Outcome::Exceeded { report, .. } => {
            println!("  exact checker hit its budget ({report}) — the coNP wall in person")
        }
        other => unreachable!("a work-only budget can only trip: {other:?}"),
    }
}

fn main() {
    // Small graphs where the exact checker can run to completion.
    let edgeless = UGraph::new(2);
    let mut linked = UGraph::new(2);
    linked.add_edge(0, 1);
    check_graph("2 isolated vertices", &edgeless);
    check_graph("K2 (Figure 5's graph)", &linked);

    // For larger graphs the search space explodes, but the *construct-
    // ive* half of Lemma 5.2 still runs in polynomial time: from a
    // Hamiltonian cycle we can build and verify a global improvement.
    for (name, graph) in
        [("C5", UGraph::cycle(5)), ("K4", UGraph::complete(4)), ("C8", UGraph::cycle(8))]
    {
        let pi = graph.hamiltonian_cycle().expect("these graphs are Hamiltonian");
        let gadget = hamiltonian_gadget(&graph);
        let cg = CsrConflictGraph::new(&gadget.schema, gadget.prioritized.instance());
        let (removed, added) = improvement_from_cycle(&gadget, &pi);
        let imp = Improvement { removed, added };
        let ok = imp.is_valid_global_improvement(&cg, gadget.prioritized.priority(), &gadget.j);
        println!("{name}: proof construction from π = {pi:?} is a valid global improvement: {ok}");
        assert!(ok);
    }

    // Case 1 (§5.3): map the Figure-5 input into a 5-ary schema with
    // three keys {1,2}, {2,3}, {3,4} and check the answer transfers.
    let keys =
        [AttrSet::from_attrs([1, 2]), AttrSet::from_attrs([2, 3]), AttrSet::from_attrs([3, 4])];
    let pi_map = CaseOneMapping::new("R", 5, &keys).unwrap();
    let mut graph = UGraph::new(2);
    graph.add_edge(0, 1);
    let gadget = hamiltonian_gadget(&graph);
    use preferred_repairs::reductions::FactMapping;
    let (mapped, j2) = map_input(&pi_map, &gadget.prioritized, &gadget.j);
    let dst_cg = CsrConflictGraph::new(pi_map.target_schema(), mapped.instance());
    let outcome = check_global_exact_bounded(
        &dst_cg,
        mapped.priority(),
        &mapped.instance().full_set(),
        &j2,
        &Budget::unlimited().with_max_work(1 << 26),
    )
    .expect_done("exact search");
    println!(
        "\nCase-1 Π into keys {{1,2}},{{2,3}},{{3,4}} over arity 5: mapped J globally-optimal = {} (graph Hamiltonian = {})",
        outcome.is_optimal(),
        graph.is_hamiltonian()
    );
    assert_eq!(!outcome.is_optimal(), graph.is_hamiltonian());
}
