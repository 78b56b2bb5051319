//! Globally-optimal repair checking for primary-key assignments over
//! ccp-instances (§7.2.1, Lemma 7.3, Proposition 7.4).
//!
//! When every `Δ|R` is equivalent to a single key constraint and
//! priorities may cross conflicts (and relations!), Lemma 7.3 reduces
//! the check to cycle detection in the bipartite directed graph
//! `G_{J, I\J}`: vertices are the facts of `I`; `f → g` for `f ∈ J`,
//! `g ∈ I \ J` when `f` and `g` conflict, and `g → f` when `g ≻ f`.
//! A simple cycle `f1 → g1 → … → gk → f1` encodes the improvement
//! `(J \ {f1..fk}) ∪ {g1..gk}`, consistent because all FDs are keys.

use crate::improvement::{addition, inconsistency, CheckOutcome, Improvement};
use rpr_data::{FactId, FactSet};
use rpr_fd::CsrConflictGraph;
use rpr_priority::PriorityRelation;

/// Runs the Lemma 7.3 check on the whole instance.
///
/// Precondition (checked by the dispatching
/// [`CcpChecker`](crate::checker::CcpChecker)): the schema is a
/// primary-key assignment, so every conflict is a key-agreement.
pub fn check_global_ccp_pk(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    j: &FactSet,
) -> CheckOutcome {
    inconsistency(cg, j).unwrap_or_else(|| check_consistent_ccp_pk(cg, priority, j))
}

/// [`check_global_ccp_pk`] for a `j` already known to be consistent: a
/// session's pre-pass has decided that for the whole candidate.
pub(crate) fn check_consistent_ccp_pk(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    j: &FactSet,
) -> CheckOutcome {
    debug_assert!(cg.is_consistent_set(j));
    // The rest of the repair pre-checks ("We assume that J is a
    // repair, since the problem is straightforward otherwise").
    if let Some(imp) = addition(cg, j) {
        return CheckOutcome::Improvable(imp);
    }

    // DFS over G_{J, I\J}, walking J-facts; each move goes
    // f —conflict→ g —≻→ f′ in one step.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = j.universe();
    let mut color = vec![WHITE; n];
    // parent[f′] = (f, g): reached f′ from f via outside fact g.
    let mut parent: Vec<Option<(FactId, FactId)>> = vec![None; n];

    for start in j.iter() {
        if color[start.index()] != WHITE {
            continue;
        }
        // Stack entries: (J-fact, successor list, next index).
        type Frame = (FactId, Vec<(FactId, FactId)>, usize);
        let mut stack: Vec<Frame> = vec![(start, successors(cg, priority, j, start), 0)];
        color[start.index()] = GRAY;
        while let Some((f, succs, idx)) = stack.last_mut() {
            if *idx < succs.len() {
                let (g, f2) = succs[*idx];
                *idx += 1;
                match color[f2.index()] {
                    WHITE => {
                        color[f2.index()] = GRAY;
                        parent[f2.index()] = Some((*f, g));
                        let next = successors(cg, priority, j, f2);
                        stack.push((f2, next, 0));
                    }
                    GRAY => {
                        // Cycle f2 ⇒ … ⇒ f ⇒(g) f2.
                        let mut removed = FactSet::empty(n);
                        let mut added = FactSet::empty(n);
                        removed.insert(*f);
                        added.insert(g);
                        let mut cur = *f;
                        while cur != f2 {
                            let (prev, via) = parent[cur.index()].expect("gray chain");
                            removed.insert(prev);
                            added.insert(via);
                            cur = prev;
                        }
                        let witness = Improvement { removed, added };
                        debug_assert!(witness.is_valid_global_improvement(cg, priority, j));
                        return CheckOutcome::Improvable(witness);
                    }
                    _ => {}
                }
            } else {
                color[f.index()] = BLACK;
                stack.pop();
            }
        }
    }
    CheckOutcome::Optimal
}

/// Two-step successors of a `J`-fact in `G_{J, I\J}`: pairs `(g, f′)`
/// where `f` conflicts with `g ∈ I \ J` and `g ≻ f′ ∈ J`.
fn successors(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    j: &FactSet,
    f: FactId,
) -> Vec<(FactId, FactId)> {
    let mut out = Vec::new();
    for g in cg.neighbors(f).filter(|g| !j.contains(*g)) {
        for &f2 in priority.worse_than(g) {
            if j.contains(f2) {
                out.push((g, f2));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{enumerate_repairs_bounded, is_globally_optimal_brute_bounded};
    use rpr_data::{Instance, Signature, Value};
    use rpr_engine::Budget;
    use rpr_fd::{CsrConflictGraph, Schema};

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// Example 7.2: R binary, Δ = {R : 1→2},
    /// I = {(0,1),(0,2),(0,c),(1,a),(1,b),(1,3)},
    /// priorities R(0,c) ≻ R(1,b) ≻ R(1,c)… (the second chain is
    /// R(1,3) ≻ R(0,2) ≻ R(0,1)), J = {R(0,2), R(1,b)}.
    fn example_7_2() -> (CsrConflictGraph, Instance, PriorityRelation) {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        for (a, b) in [("0", "1"), ("0", "2"), ("0", "c"), ("1", "a"), ("1", "b"), ("1", "3")] {
            i.insert_named("R", [v(a), v(b)]).unwrap();
        }
        // ids: 0:(0,1) 1:(0,2) 2:(0,c) 3:(1,a) 4:(1,b) 5:(1,3)
        let cg = CsrConflictGraph::new(&schema, &i);
        let p = PriorityRelation::new(
            i.len(),
            [
                (FactId(2), FactId(4)), // R(0,c) ≻ R(1,b)   — cross-conflict!
                (FactId(5), FactId(1)), // R(1,3) ≻ R(0,2)   — cross-conflict!
                (FactId(5), FactId(0)), // R(1,3) ≻ R(0,1)
                (FactId(1), FactId(0)), // R(0,2) ≻ R(0,1)
            ],
        )
        .unwrap();
        (cg, i, p)
    }

    #[test]
    fn example_7_2_j_is_improvable_via_the_cycle() {
        // Figure 6: J = {R(0,2), R(1,b)}; the graph has the cycle
        // R(0,2) → R(1,3) → … : R(0,2) conflicts R(0,c), R(0,c) ≻ R(1,b);
        // R(1,b) conflicts R(1,3), R(1,3) ≻ R(0,2). Cycle of length 2.
        let (cg, i, p) = example_7_2();
        let j = i.set_of([1, 4].map(FactId));
        assert!(cg.is_repair(&j));
        match check_global_ccp_pk(&cg, &p, &j) {
            CheckOutcome::Improvable(imp) => {
                assert_eq!(imp.removed.iter().collect::<Vec<_>>(), vec![FactId(1), FactId(4)]);
                assert_eq!(imp.added.iter().collect::<Vec<_>>(), vec![FactId(2), FactId(5)]);
                assert!(imp.is_valid_global_improvement(&cg, &p, &j));
            }
            other => panic!("expected cycle improvement, got {other:?}"),
        }
    }

    #[test]
    fn agrees_with_brute_force_on_example_7_2() {
        let (cg, _, p) = example_7_2();
        for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration")
        {
            let fast = check_global_ccp_pk(&cg, &p, &j).is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                &j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            assert_eq!(fast, slow, "disagreement on {j:?}");
        }
    }

    #[test]
    fn cross_relation_priorities_are_respected() {
        // Two relations, each with key 1: a priority from an S-fact to
        // an R-fact lets improving S enable improving R.
        let sig = Signature::new([("R", 2), ("S", 2)]).unwrap();
        let schema =
            Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..]), ("S", &[1][..], &[2][..])])
                .unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [v("k"), v("x")]).unwrap(); // 0
        i.insert_named("R", [v("k"), v("y")]).unwrap(); // 1
        i.insert_named("S", [v("m"), v("u")]).unwrap(); // 2
        i.insert_named("S", [v("m"), v("w")]).unwrap(); // 3
        let cg = CsrConflictGraph::new(&schema, &i);
        // R(k,y) ≻ S(m,u) and S(m,w) ≻ R(k,x): improving J={R(k,x),S(m,u)}
        // requires swapping both relations at once.
        let p = PriorityRelation::new(i.len(), [(FactId(1), FactId(2)), (FactId(3), FactId(0))])
            .unwrap();
        let j = i.set_of([0, 2].map(FactId));
        match check_global_ccp_pk(&cg, &p, &j) {
            CheckOutcome::Improvable(imp) => {
                assert_eq!(imp.removed.len(), 2);
                assert_eq!(imp.added.len(), 2);
                assert!(imp.is_valid_global_improvement(&cg, &p, &j));
            }
            other => panic!("expected cross-relation improvement, got {other:?}"),
        }
        // The swapped repair is optimal, as are the mixed ones.
        for ids in [[1u32, 3], [0, 3], [1, 2]] {
            let jj = i.set_of(ids.map(FactId));
            let fast = check_global_ccp_pk(&cg, &p, &jj).is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                &jj,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn non_repairs_rejected() {
        let (cg, i, p) = example_7_2();
        let bad = i.set_of([0, 1].map(FactId));
        assert!(matches!(check_global_ccp_pk(&cg, &p, &bad), CheckOutcome::Inconsistent(..)));
        let partial = i.set_of([1].map(FactId));
        match check_global_ccp_pk(&cg, &p, &partial) {
            CheckOutcome::Improvable(imp) => assert!(imp.removed.is_empty()),
            other => panic!("expected vacuous improvement, got {other:?}"),
        }
    }
}
