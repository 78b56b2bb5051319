//! `GRepCheck2Keys` — globally-optimal repair checking for two key
//! constraints (§4.2, Figure 4, Lemma 4.4).
//!
//! When `Δ|R` is equivalent to two incomparable keys `A1 → ⟦R⟧` and
//! `A2 → ⟦R⟧`, Lemma 4.4 characterizes improvability: a consistent `J`
//! has a global improvement iff it has a Pareto improvement, or one of
//! two bipartite directed graphs has a cycle:
//!
//! * `G12_J`: left vertices are the `A1`-projections of `J`'s facts,
//!   right vertices the `A2`-projections; every `f ∈ J` contributes the
//!   edge `f[A1] → f[A2]`, and every `f′ ∈ I \ J` with `f′ ≻ f` for some
//!   `f ∈ J` sharing its `A2`-projection contributes the *reverse* edge
//!   `f′[A2] → f′[A1]`.
//! * `G21_J`: the same with the roles of `A1`/`A2` swapped.
//!
//! A cycle alternates `J`-edges and reverse edges; exchanging the `J`
//! facts on the cycle (`F`) for the reverse-edge facts (`F′`) yields a
//! global improvement, which this implementation extracts as the
//! witness. Keys make the exchange consistent: on a simple cycle all
//! `A1`-projections are distinct and all `A2`-projections are distinct,
//! and conflicts under two keys require agreeing on one of them.
//!
//! # J-fact vertices
//!
//! A consistent `J` holds at most one fact per projection of each key,
//! so every vertex of `G12`/`G21` is *named by its `J` fact*: the left
//! vertex `f[A1]` and the right vertex `f[A2]` are both `f`, and the
//! `J`-edge between them is implicit. An outside fact `f′` only matters
//! through its *partners* — the unique `J` fact agreeing with it on
//! `A1` and the one agreeing on `A2`. Both conflict with `f′` (two
//! distinct facts agreeing on a key violate `Δ`), so they are found by
//! scanning `f′`'s conflict row against `J` and comparing key values in
//! place; no projection is ever built or hashed. `f′` contributes the
//! reverse edge `partner_A2(f′) → partner_A1(f′)` to `G12` when
//! `f′ ≻ partner_A2(f′)`, and the mirrored edge to `G21`. An outside
//! fact agreeing with one `J` fact on *both* keys gives a self-loop.
//!
//! Rows come from the [`CsrConflictGraph`]: a session's cached one, or
//! one a one-shot caller builds. The DFS starts from `J` facts in
//! ascending order and tries each vertex's reverse edges in ascending
//! outside-fact order, which fixes the witness.
//!
//! [`CsrConflictGraph`]: rpr_fd::CsrConflictGraph

use crate::improvement::{inconsistency, CheckOutcome, Improvement};
use crate::pareto::find_pareto_improvement;
use rpr_data::{AttrSet, FactId, FactSet, Instance};
use rpr_fd::CsrConflictGraph;
use rpr_priority::PriorityRelation;

/// A reverse edge `(from, to, via)`: the outside fact `via` beats the
/// `J` fact `from` sharing its `Y`-projection, and `to` is the `J` fact
/// sharing its `X`-projection.
type Edge = (FactId, FactId, FactId);

/// One direction (`G12` or `G21`) of the Lemma 4.4 graph over `J`-fact
/// vertices. Only the reverse edges are stored; the `J`-edge of a
/// vertex joins its two projections, which are the same `J` fact.
struct ExchangeGraph {
    /// Reverse edges sorted by `(from, via)`.
    edges: Vec<Edge>,
}

/// Builds `[G12, G21]` for keys `(a1, a2)` in one pass over the
/// outside facts of `domain`.
fn build_graphs(
    instance: &Instance,
    rows: &CsrConflictGraph,
    priority: &PriorityRelation,
    (a1, a2): (AttrSet, AttrSet),
    domain: &FactSet,
    j: &FactSet,
) -> [ExchangeGraph; 2] {
    let mut g12: Vec<Edge> = Vec::new();
    let mut g21: Vec<Edge> = Vec::new();
    for fp in domain.iter_difference(j) {
        // An outside fact that beats no J fact adds no reverse edge.
        if !priority.worse_than(fp).iter().any(|&g| j.contains(g)) {
            continue;
        }
        let fact = instance.fact(fp);
        let (mut p1, mut p2) = (None, None);
        for g in rows.conflicts_among(fp, j) {
            let other = instance.fact(g);
            if p1.is_none() && fact.agrees_on(other, a1) {
                p1 = Some(g);
            }
            if p2.is_none() && fact.agrees_on(other, a2) {
                p2 = Some(g);
            }
        }
        // A reverse edge is useful only if it lands on a vertex of the
        // graph, i.e. both partners exist (otherwise it cannot close a
        // cycle).
        let (Some(p1), Some(p2)) = (p1, p2) else { continue };
        if priority.prefers(fp, p2) {
            g12.push((p2, p1, fp));
        }
        if priority.prefers(fp, p1) {
            g21.push((p1, p2, fp));
        }
    }
    [g12, g21].map(|mut edges| {
        // Candidates were visited ascending, so sorting by `from` alone
        // keeps each vertex's edges in outside-fact order.
        edges.sort_by_key(|&(from, _, _)| from);
        ExchangeGraph { edges }
    })
}

impl ExchangeGraph {
    /// Finds a cycle and returns the improvement `(F, F′)` it encodes.
    fn find_cycle_improvement(&self, universe: usize) -> Option<Improvement> {
        // DFS over the J facts with reverse edges, ascending. A J fact
        // without one is a sink: visiting it can neither close a cycle
        // nor change the order in which the others are explored, so it
        // gets no slot at all.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut vertex: Vec<FactId> = Vec::new();
        let mut first_edge: Vec<usize> = Vec::new();
        for (i, &(from, _, _)) in self.edges.iter().enumerate() {
            if vertex.last() != Some(&from) {
                vertex.push(from);
                first_edge.push(i);
            }
        }
        first_edge.push(self.edges.len());
        let n = vertex.len();
        let mut color = vec![WHITE; n];
        // parent[w] = (v, via) when the path v ⇒(via) w was taken.
        let mut parent: Vec<(usize, FactId)> = vec![(usize::MAX, FactId(0)); n];
        // Iterative DFS: stack of (vertex, next edge index).
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            color[start] = GRAY;
            stack.push((start, first_edge[start]));
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                if *next == first_edge[v + 1] {
                    color[v] = BLACK;
                    stack.pop();
                    continue;
                }
                let (_, to, via) = self.edges[*next];
                *next += 1;
                let Ok(w) = vertex.binary_search(&to) else { continue };
                match color[w] {
                    WHITE => {
                        color[w] = GRAY;
                        parent[w] = (v, via);
                        stack.push((w, first_edge[w]));
                    }
                    GRAY => {
                        // Cycle: w ⇒ … ⇒ v ⇒(via) w.
                        let mut removed = FactSet::empty(universe);
                        let mut added = FactSet::empty(universe);
                        added.insert(via);
                        removed.insert(vertex[v]);
                        let mut cur = v;
                        while cur != w {
                            let (prev, pvia) = parent[cur];
                            added.insert(pvia);
                            removed.insert(vertex[prev]);
                            cur = prev;
                        }
                        return Some(Improvement { removed, added });
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

/// Runs `GRepCheck2Keys` for the facts in `domain` (one relation),
/// under the two incomparable keys `a1`, `a2` to which `Δ|R` is
/// equivalent. `rows` is the conflict graph of `instance`.
pub fn check_global_2keys(
    instance: &Instance,
    rows: &CsrConflictGraph,
    priority: &PriorityRelation,
    a1: AttrSet,
    a2: AttrSet,
    domain: &FactSet,
    j: &FactSet,
) -> CheckOutcome {
    inconsistency(rows, j)
        .unwrap_or_else(|| check_consistent_2keys(instance, rows, priority, (a1, a2), domain, j))
}

/// [`check_global_2keys`] for a `j` already known to be consistent: a
/// session's pre-pass has decided that for the whole candidate.
pub(crate) fn check_consistent_2keys(
    instance: &Instance,
    rows: &CsrConflictGraph,
    priority: &PriorityRelation,
    keys: (AttrSet, AttrSet),
    domain: &FactSet,
    j: &FactSet,
) -> CheckOutcome {
    debug_assert!(j.is_subset(domain));
    debug_assert!(rows.is_consistent_set(j));
    // Step 1 of Figure 4: Pareto improvement (also covers
    // non-maximality via the vacuous-superset case).
    if let Some(imp) = find_pareto_improvement(rows, priority, j, domain) {
        debug_assert!(imp.is_valid_global_improvement(rows, priority, j));
        return CheckOutcome::Improvable(imp);
    }
    // Step 2: cycles in G12 and G21.
    for graph in build_graphs(instance, rows, priority, keys, domain, j) {
        if let Some(imp) = graph.find_cycle_improvement(j.universe()) {
            debug_assert!(imp.is_valid_global_improvement(rows, priority, j));
            return CheckOutcome::Improvable(imp);
        }
    }
    CheckOutcome::Optimal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{enumerate_repairs_bounded, is_globally_optimal_brute_bounded};
    use rpr_data::{Signature, Value};
    use rpr_engine::Budget;
    use rpr_fd::{CsrConflictGraph, Schema};

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// The LibLoc fragment of the running example (Figure 1) under
    /// {1→2, 2→1}, with the Example 2.3 priority.
    fn libloc() -> (Schema, Instance, PriorityRelation) {
        let sig = Signature::new([("LibLoc", 2)]).unwrap();
        let schema = Schema::from_named(
            sig.clone(),
            [("LibLoc", &[1][..], &[2][..]), ("LibLoc", &[2][..], &[1][..])],
        )
        .unwrap();
        let mut i = Instance::new(sig);
        for (a, b) in [
            ("lib1", "almaden"),  // 0 d1a
            ("lib1", "edenvale"), // 1 d1e
            ("lib2", "almaden"),  // 2 g2a
            ("lib2", "bascom"),   // 3 f2b
            ("lib3", "almaden"),  // 4 f3a
            ("lib3", "cambrian"), // 5 f3c
            ("lib1", "bascom"),   // 6 e1b
            ("lib3", "bascom"),   // 7 e3b
        ] {
            i.insert_named("LibLoc", [v(a), v(b)]).unwrap();
        }
        // g ≻ f, e ≻ d on conflicting pairs:
        let p = PriorityRelation::new(
            i.len(),
            [
                (FactId(2), FactId(3)), // g2a ≻ f2b   (lib2)
                (FactId(2), FactId(4)), // g2a ≻ f3a   (almaden)
                (FactId(6), FactId(0)), // e1b ≻ d1a   (lib1)
                (FactId(6), FactId(1)), // e1b ≻ d1e   (lib1)
            ],
        )
        .unwrap();
        (schema, i, p)
    }

    #[test]
    fn example_4_3_graph_edges() {
        // J = {d1a, f2b, f3c} (Figure 3). G12 has no reverse edges; G21
        // has exactly two: lib2 → almaden (g2a ≻ f2b) and lib1 → bascom
        // (e1b ≻ d1a).
        let (schema, i, p) = libloc();
        let cg = CsrConflictGraph::new(&schema, &i);
        let j = i.set_of([0, 3, 5].map(FactId));
        let a1 = AttrSet::singleton(1);
        let a2 = AttrSet::singleton(2);
        let [g12, g21] = build_graphs(&i, &cg, &p, (a1, a2), &i.full_set(), &j);
        assert_eq!(g12.edges.len(), 0);
        let mut edge_facts: Vec<u32> = g21.edges.iter().map(|&(_, _, f)| f.0).collect();
        edge_facts.sort();
        // g2a and e1b:
        assert_eq!(edge_facts, vec![2, 6]);
        // Vertices are J facts: g2a runs from f2b's lib2 vertex to d1a's
        // almaden vertex, e1b from d1a's lib1 vertex to f2b's bascom
        // vertex.
        assert_eq!(
            g21.edges,
            vec![(FactId(0), FactId(3), FactId(6)), (FactId(3), FactId(0), FactId(2))]
        );
        // G12 is acyclic, but G21's two reverse edges close the cycle
        // almaden → lib1 → bascom → lib2 → almaden: swapping {d1a, f2b}
        // for {e1b, g2a} is a global improvement of J.
        assert!(g12.find_cycle_improvement(i.len()).is_none());
        let imp = g21.find_cycle_improvement(i.len()).unwrap();
        assert_eq!(imp.removed.iter().collect::<Vec<_>>(), vec![FactId(0), FactId(3)]);
        assert_eq!(imp.added.iter().collect::<Vec<_>>(), vec![FactId(2), FactId(6)]);
    }

    #[test]
    fn outside_fact_agreeing_on_both_keys_is_a_self_loop() {
        // Ternary R under keys {1} and {2}: R(k,v,new) agrees with the
        // J fact R(k,v,old) on both keys, so in both graphs its reverse
        // edge runs from that J fact's vertex back to itself.
        let sig = Signature::new([("R", 3)]).unwrap();
        let schema = Schema::from_named(
            sig.clone(),
            [("R", &[1][..], &[2, 3][..]), ("R", &[2][..], &[1, 3][..])],
        )
        .unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [v("k"), v("v"), v("old")]).unwrap(); // 0
        i.insert_named("R", [v("k"), v("v"), v("new")]).unwrap(); // 1
        let cg = CsrConflictGraph::new(&schema, &i);
        let p = PriorityRelation::new(i.len(), [(FactId(1), FactId(0))]).unwrap();
        let j = i.set_of([FactId(0)]);
        let a1 = AttrSet::singleton(1);
        let a2 = AttrSet::singleton(2);
        for graph in build_graphs(&i, &cg, &p, (a1, a2), &i.full_set(), &j) {
            assert_eq!(graph.edges, vec![(FactId(0), FactId(0), FactId(1))]);
            let imp = graph.find_cycle_improvement(i.len()).unwrap();
            assert_eq!(imp.removed.iter().collect::<Vec<_>>(), vec![FactId(0)]);
            assert_eq!(imp.added.iter().collect::<Vec<_>>(), vec![FactId(1)]);
        }
        // The Pareto step catches it first in the full check.
        match check_global_2keys(&i, &cg, &p, a1, a2, &i.full_set(), &j) {
            CheckOutcome::Improvable(imp) => assert!(imp.is_valid_global_improvement(&cg, &p, &j)),
            other => panic!("expected an improvement, got {other:?}"),
        }
    }

    #[test]
    fn j2_is_globally_optimal_j1_is_not() {
        let (schema, i, p) = libloc();
        let cg = CsrConflictGraph::new(&schema, &i);
        let a1 = AttrSet::singleton(1);
        let a2 = AttrSet::singleton(2);
        // J2 ∩ LibLoc = {d1e, g2a, e3b}.
        let j2 = i.set_of([1, 2, 7].map(FactId));
        assert!(check_global_2keys(&i, &cg, &p, a1, a2, &i.full_set(), &j2).is_optimal());
        // J1 ∩ LibLoc = {d1e, f2b, f3a}: improvable (Pareto, via g2a).
        let j1 = i.set_of([1, 3, 4].map(FactId));
        match check_global_2keys(&i, &cg, &p, a1, a2, &i.full_set(), &j1) {
            CheckOutcome::Improvable(imp) => {
                assert!(imp.is_valid_global_improvement(&cg, &p, &j1));
            }
            other => panic!("expected improvement, got {other:?}"),
        }
    }

    #[test]
    fn cycle_improvement_without_pareto() {
        // Classic swap cycle: facts R(1,a), R(2,b) in J; preferred
        // R(2,a) ≻ R(2,b) and R(1,b) ≻ R(1,a) force a G21-style cycle
        // where the only improvement swaps both facts at once.
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema =
            Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..]), ("R", &[2][..], &[1][..])])
                .unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [v("1"), v("a")]).unwrap(); // 0
        i.insert_named("R", [v("2"), v("b")]).unwrap(); // 1
        i.insert_named("R", [v("2"), v("a")]).unwrap(); // 2
        i.insert_named("R", [v("1"), v("b")]).unwrap(); // 3
        let cg = CsrConflictGraph::new(&schema, &i);
        let p = PriorityRelation::new(i.len(), [(FactId(2), FactId(1)), (FactId(3), FactId(0))])
            .unwrap();
        let j = i.set_of([0, 1].map(FactId));
        assert!(cg.is_repair(&j));
        // No Pareto improvement: R(2,a) conflicts with both J facts but
        // beats only R(2,b); R(1,b) beats only R(1,a).
        assert!(find_pareto_improvement(&cg, &p, &j, &i.full_set()).is_none());
        match check_global_2keys(
            &i,
            &cg,
            &p,
            AttrSet::singleton(1),
            AttrSet::singleton(2),
            &i.full_set(),
            &j,
        ) {
            CheckOutcome::Improvable(imp) => {
                assert_eq!(imp.removed.len(), 2);
                assert_eq!(imp.added.len(), 2);
                assert!(imp.is_valid_global_improvement(&cg, &p, &j));
            }
            other => panic!("expected cycle improvement, got {other:?}"),
        }
        // And the swapped repair is optimal.
        let swapped = i.set_of([2, 3].map(FactId));
        assert!(check_global_2keys(
            &i,
            &cg,
            &p,
            AttrSet::singleton(1),
            AttrSet::singleton(2),
            &i.full_set(),
            &swapped
        )
        .is_optimal());
    }

    #[test]
    fn agrees_with_brute_force_on_all_repairs() {
        let (schema, i, p) = libloc();
        let cg = CsrConflictGraph::new(&schema, &i);
        let repairs = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 22))
            .expect_done("repair enumeration");
        assert!(!repairs.is_empty());
        for j in &repairs {
            let fast = check_global_2keys(
                &i,
                &cg,
                &p,
                AttrSet::singleton(1),
                AttrSet::singleton(2),
                &i.full_set(),
                j,
            )
            .is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                j,
                &Budget::unlimited().with_max_work(1 << 22),
            )
            .expect_done("global oracle");
            assert_eq!(fast, slow, "disagreement on {}", i.render_set(j));
        }
    }

    #[test]
    fn generalized_keys_with_overlap() {
        // Quaternary R with keys {1,2} and {2,3} (sharing attribute 2).
        let sig = Signature::new([("R", 4)]).unwrap();
        let schema = Schema::from_named(
            sig.clone(),
            [("R", &[1, 2][..], &[3, 4][..]), ("R", &[2, 3][..], &[1, 4][..])],
        )
        .unwrap();
        let mut i = Instance::new(sig);
        // Two "slots" sharing attribute-2 value m; a swap cycle like above.
        i.insert_named("R", [v("1"), v("m"), v("a"), v("p")]).unwrap(); // 0
        i.insert_named("R", [v("2"), v("m"), v("b"), v("q")]).unwrap(); // 1
        i.insert_named("R", [v("2"), v("m"), v("a"), v("r")]).unwrap(); // 2
        i.insert_named("R", [v("1"), v("m"), v("b"), v("s")]).unwrap(); // 3
        let cg = CsrConflictGraph::new(&schema, &i);
        let p = PriorityRelation::new(i.len(), [(FactId(2), FactId(1)), (FactId(3), FactId(0))])
            .unwrap();
        let a1 = AttrSet::from_attrs([1, 2]);
        let a2 = AttrSet::from_attrs([2, 3]);
        let repairs = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 22))
            .expect_done("repair enumeration");
        for j in &repairs {
            let fast = check_global_2keys(&i, &cg, &p, a1, a2, &i.full_set(), j).is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                j,
                &Budget::unlimited().with_max_work(1 << 22),
            )
            .expect_done("global oracle");
            assert_eq!(fast, slow, "disagreement on {}", i.render_set(j));
        }
    }
}
