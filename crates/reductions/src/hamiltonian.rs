//! The Lemma 5.2 gadget: reducing Hamiltonian Cycle to globally-optimal
//! repair checking for the schema `S1`.
//!
//! Given `G = (V, E)` with `|V| = n`, the gadget builds a prioritizing
//! instance `(I, ≻)` over `S1 = ({R1}, {{1,2}→3, {1,3}→2, {2,3}→1})`
//! and a repair `J` such that **`J` has a global improvement iff `G`
//! has a Hamiltonian cycle** — so `J` is a globally-optimal repair iff
//! `G` is *not* Hamiltonian, exhibiting coNP-hardness.
//!
//! Facts of `I`, for every position `i ∈ {0..n-1}` and vertex `v_j`
//! (arithmetic on `i` is mod `n`; `p_j^i`, `q_j^i`, `r_j^i` are fresh
//! constants):
//!
//! | fact | in `J`? |
//! |---|---|
//! | `R1(i, p_j^i, v_j)` | yes |
//! | `R1(i−1, q_j^i, r_j^i)` | yes |
//! | `R1(i, v_j, r_j^i)` | yes |
//! | `R1(i, q_j^i, r_j^i)` | no |
//! | `R1(i, v_j, v_j)` | no |
//! | `R1(i, p_j^i, r_k^{i+1})` for each edge `{v_j, v_k} ∈ E` | no |
//!
//! Priorities: `R1(i, p_j^i, r_k^{i+1}) ≻ R1(i, p_j^i, v_j)`,
//! `R1(i, q_j^i, r_j^i) ≻ R1(i−1, q_j^i, r_j^i)`, and
//! `R1(i, v_j, v_j) ≻ R1(i, v_j, r_j^i)`.

use crate::graph::UGraph;
use rpr_data::{Fact, FactId, FactSet, Instance, Signature, Value};
use rpr_fd::Schema;
use rpr_priority::{PrioritizedInstance, PriorityRelation};

/// The output of the Lemma 5.2 construction.
pub struct HamiltonianGadget {
    /// The schema `S1`.
    pub schema: Schema,
    /// The prioritizing instance `(I, ≻)`.
    pub prioritized: PrioritizedInstance,
    /// The candidate repair `J`.
    pub j: FactSet,
    /// The graph the gadget encodes.
    pub graph: UGraph,
}

fn sym(prefix: &str, j: usize, i: usize) -> Value {
    Value::sym(format!("{prefix}{j}_{i}"))
}

fn vertex(j: usize) -> Value {
    Value::sym(format!("v{j}"))
}

/// Builds the Lemma 5.2 gadget for a graph.
///
/// ```
/// use rpr_reductions::{hamiltonian_gadget, UGraph};
/// use rpr_fd::CsrConflictGraph;
///
/// // Figure 5's graph: two vertices joined by an edge.
/// let mut g = UGraph::new(2);
/// g.add_edge(0, 1);
/// let gadget = hamiltonian_gadget(&g);
/// let cg = CsrConflictGraph::new(&gadget.schema, gadget.prioritized.instance());
/// assert!(cg.is_repair(&gadget.j));
/// // 5 facts per (position, vertex) pair + one per (position, edge end):
/// assert_eq!(gadget.prioritized.instance().len(), 5 * 4 + 4);
/// ```
///
/// # Panics
/// Panics on graphs with fewer than 2 vertices (the HC problem is
/// trivially *no* there; the gadget needs `i ± 1 (mod n)` to be
/// meaningful).
pub fn hamiltonian_gadget(graph: &UGraph) -> HamiltonianGadget {
    let n = graph.len();
    assert!(n >= 2, "gadget needs at least two vertices");

    let sig = Signature::new([("R1", 3)]).unwrap();
    let schema = Schema::from_named(
        sig.clone(),
        [
            ("R1", &[1, 2][..], &[3][..]),
            ("R1", &[1, 3][..], &[2][..]),
            ("R1", &[2, 3][..], &[1][..]),
        ],
    )
    .unwrap();

    let mut instance = Instance::new(sig.clone());
    let int = |i: usize| Value::Int(i as i64);
    let fact =
        |a: Value, b: Value, c: Value| Fact::parse_new(&sig, "R1", [a, b, c]).expect("gadget fact");

    let mut j_facts: Vec<Fact> = Vec::new();
    let mut priority_pairs: Vec<(Fact, Fact)> = Vec::new();

    for i in 0..n {
        let prev = (i + n - 1) % n;
        let next = (i + 1) % n;
        for jv in 0..n {
            let p = sym("p", jv, i);
            let q = sym("q", jv, i);
            let r = sym("r", jv, i);
            let v = vertex(jv);

            let f_pv = fact(int(i), p.clone(), v.clone()); // R1(i, p_j^i, v_j)
            let f_qprev = fact(int(prev), q.clone(), r.clone()); // R1(i-1, q_j^i, r_j^i)
            let f_vr = fact(int(i), v.clone(), r.clone()); // R1(i, v_j, r_j^i)
            let f_qi = fact(int(i), q.clone(), r.clone()); // R1(i, q_j^i, r_j^i)
            let f_vv = fact(int(i), v.clone(), v.clone()); // R1(i, v_j, v_j)

            for f in [&f_pv, &f_qprev, &f_vr, &f_qi, &f_vv] {
                instance.insert((*f).clone());
            }
            j_facts.extend([f_pv.clone(), f_qprev.clone(), f_vr.clone()]);

            priority_pairs.push((f_qi, f_qprev)); // R1(i,q,r) ≻ R1(i-1,q,r)
            priority_pairs.push((f_vv, f_vr)); // R1(i,v,v) ≻ R1(i,v,r)

            // Edge facts R1(i, p_j^i, r_k^{i+1}) ≻ R1(i, p_j^i, v_j).
            for kv in 0..n {
                if graph.has_edge(jv, kv) {
                    let rk_next = sym("r", kv, next);
                    let f_edge = fact(int(i), p.clone(), rk_next);
                    instance.insert(f_edge.clone());
                    priority_pairs.push((f_edge, f_pv.clone()));
                }
            }
        }
    }

    let edges: Vec<(FactId, FactId)> = priority_pairs
        .iter()
        .map(|(a, b)| {
            (
                instance.id_of(a).expect("priority source in I"),
                instance.id_of(b).expect("priority target in I"),
            )
        })
        .collect();
    let priority = PriorityRelation::new(instance.len(), edges).expect("gadget priority acyclic");
    let j = instance.set_of_facts(j_facts.iter()).expect("J ⊆ I");

    let prioritized = PrioritizedInstance::conflict_restricted(&schema, instance, priority)
        .expect("gadget priorities join conflicting facts");

    HamiltonianGadget { schema, prioritized, j, graph: graph.clone() }
}

/// The "if" direction of Lemma 5.2, constructively: given a
/// Hamiltonian cycle `π`, the global improvement `J′` of `J` that the
/// proof builds (as an exchange on `J`).
pub fn improvement_from_cycle(gadget: &HamiltonianGadget, pi: &[usize]) -> (FactSet, FactSet) {
    let n = gadget.graph.len();
    assert_eq!(pi.len(), n, "π must be a permutation of the vertices");
    let instance = gadget.prioritized.instance();
    let sig = instance.signature().clone();
    let int = |i: usize| Value::Int(i as i64);
    let fact =
        |a: Value, b: Value, c: Value| Fact::parse_new(&sig, "R1", [a, b, c]).expect("gadget fact");
    let mut removed = instance.empty_set();
    let mut added = instance.empty_set();
    let id = |f: &Fact| instance.id_of(f).expect("fact in I");

    for i in 0..n {
        let prev = (i + n - 1) % n;
        let next = (i + 1) % n;
        let j_v = pi[i];
        let k_v = pi[next];
        // Replace R1(i, p_j^i, v_j) with R1(i, p_j^i, r_k^{i+1}).
        removed.insert(id(&fact(int(i), sym("p", j_v, i), vertex(j_v))));
        added.insert(id(&fact(int(i), sym("p", j_v, i), sym("r", k_v, next))));
        // Replace R1(i-1, q_j^i, r_j^i) with R1(i, q_j^i, r_j^i).
        removed.insert(id(&fact(int(prev), sym("q", j_v, i), sym("r", j_v, i))));
        added.insert(id(&fact(int(i), sym("q", j_v, i), sym("r", j_v, i))));
        // Replace R1(i, v_j, r_j^i) with R1(i, v_j, v_j).
        removed.insert(id(&fact(int(i), vertex(j_v), sym("r", j_v, i))));
        added.insert(id(&fact(int(i), vertex(j_v), vertex(j_v))));
    }
    (removed, added)
}

/// Composes the gadget with the Case-1 Π: a repair-checking input over
/// an arbitrary ≥3-keys schema whose answer decides Hamiltonicity of
/// `graph` — the end-to-end executable form of the paper's Case-1
/// hardness proof.
///
/// # Errors
/// Propagates [`crate::case1::CaseOneError`] for unusable key families.
pub fn hamiltonian_input_for_keys(
    graph: &UGraph,
    target_name: &str,
    arity: usize,
    keys: &[rpr_data::AttrSet],
) -> Result<(crate::case1::CaseOneMapping, PrioritizedInstance, FactSet), crate::case1::CaseOneError>
{
    let gadget = hamiltonian_gadget(graph);
    let pi = crate::case1::CaseOneMapping::new(target_name, arity, keys)?;
    let (mapped, j) = crate::pi::map_input(&pi, &gadget.prioritized, &gadget.j);
    Ok((pi, mapped, j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pi::FactMapping;
    use rpr_core::{
        check_global_exact_bounded, is_global_improvement, Budget, CheckOutcome, Improvement,
    };
    use rpr_fd::CsrConflictGraph;

    fn build(graph: &UGraph) -> (HamiltonianGadget, CsrConflictGraph) {
        let g = hamiltonian_gadget(graph);
        let cg = CsrConflictGraph::new(&g.schema, g.prioritized.instance());
        (g, cg)
    }

    #[test]
    fn gadget_shape_matches_figure_5() {
        // Figure 5: two vertices, one edge → 5 facts per (i, j) pair
        // (4 pairs) plus one edge fact per (i, edge endpoint) = 2·2.
        let mut graph = UGraph::new(2);
        graph.add_edge(0, 1);
        let (g, cg) = build(&graph);
        assert_eq!(g.prioritized.instance().len(), 5 * 4 + 4);
        assert_eq!(g.j.len(), 3 * 4);
        assert!(cg.is_repair(&g.j), "J is a repair");
    }

    #[test]
    fn j_is_a_consistent_repair_for_various_graphs() {
        for graph in [UGraph::cycle(3), UGraph::path(3), UGraph::complete(4)] {
            let (g, cg) = build(&graph);
            assert!(cg.is_repair(&g.j));
        }
    }

    #[test]
    fn hamiltonian_graph_makes_j_improvable() {
        // Figure 5's graph is Hamiltonian ⇒ J has a global improvement.
        let mut graph = UGraph::new(2);
        graph.add_edge(0, 1);
        let (g, cg) = build(&graph);
        let outcome = check_global_exact_bounded(
            &cg,
            g.prioritized.priority(),
            &g.prioritized.instance().full_set(),
            &g.j,
            &Budget::unlimited().with_max_work(1 << 24),
        )
        .expect_done("exact search");
        match outcome {
            CheckOutcome::Improvable(imp) => {
                assert!(imp.is_valid_global_improvement(&cg, g.prioritized.priority(), &g.j));
            }
            other => panic!("expected improvement, got {other:?}"),
        }
    }

    #[test]
    fn non_hamiltonian_graph_makes_j_optimal() {
        // Two isolated vertices: no HC ⇒ J is globally optimal.
        let graph = UGraph::new(2);
        let (g, cg) = build(&graph);
        let outcome = check_global_exact_bounded(
            &cg,
            g.prioritized.priority(),
            &g.prioritized.instance().full_set(),
            &g.j,
            &Budget::unlimited().with_max_work(1 << 24),
        )
        .expect_done("exact search");
        assert!(outcome.is_optimal(), "J must be globally optimal for non-Hamiltonian G");
    }

    #[test]
    fn composed_input_for_arbitrary_keys_decides_hamiltonicity() {
        use rpr_data::AttrSet;
        let keys =
            [AttrSet::from_attrs([1, 2]), AttrSet::from_attrs([2, 3]), AttrSet::from_attrs([1, 3])];
        for (graph, expect_hc) in [
            (
                {
                    let mut g = UGraph::new(2);
                    g.add_edge(0, 1);
                    g
                },
                true,
            ),
            (UGraph::new(2), false),
        ] {
            let (pi, mapped, j) = hamiltonian_input_for_keys(&graph, "T", 4, &keys).unwrap();
            let cg = CsrConflictGraph::new(pi.target_schema(), mapped.instance());
            let outcome = check_global_exact_bounded(
                &cg,
                mapped.priority(),
                &mapped.instance().full_set(),
                &j,
                &Budget::unlimited().with_max_work(1 << 26),
            )
            .expect_done("exact search");
            assert_eq!(!outcome.is_optimal(), expect_hc);
        }
    }

    #[test]
    fn proof_construction_yields_a_global_improvement() {
        // The constructive "if" direction scales to larger graphs
        // (no exhaustive search needed).
        for graph in [UGraph::cycle(3), UGraph::cycle(5), UGraph::complete(4)] {
            let pi = graph.hamiltonian_cycle().expect("test graphs are Hamiltonian");
            let (g, cg) = build(&graph);
            let (removed, added) = improvement_from_cycle(&g, &pi);
            let imp = Improvement { removed, added };
            assert!(
                imp.is_valid_global_improvement(&cg, g.prioritized.priority(), &g.j),
                "proof construction must be a consistent global improvement (n={})",
                graph.len()
            );
            let j2 = imp.apply(&g.j);
            assert!(is_global_improvement(g.prioritized.priority(), &g.j, &j2));
        }
    }
}
