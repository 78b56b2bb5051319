//! Exact (exponential) globally-optimal repair checking for hard
//! schemas.
//!
//! On the coNP-complete side of the dichotomy nothing polynomial exists
//! unless P = NP, so the dispatching checker falls back to exhaustive
//! search over repairs with early termination. Compared to the plain
//! oracle in [`crate::brute`], this search prunes with the one cheap
//! sound test available — the Pareto pre-check — and runs under an
//! [`rpr_engine::Budget`], so callers can bound it by work units, by a
//! wall-clock deadline, or cancel it cooperatively. The benchmark
//! `dichotomy_gap` measures exactly this fall-back against the
//! polynomial algorithms.
//!
//! `LocalGraph` holds the one search. It runs in local coordinates
//! over an ascending member list: sessions run it once per component
//! shard ([`crate::shard_store::ShardData`]), and
//! [`check_global_exact_bounded`] runs it once over its whole domain.

use crate::improvement::{inconsistency, CheckOutcome, Improvement};
use crate::pareto::find_pareto_improvement;
use rpr_data::{FactId, FactSet};
use rpr_engine::{Budget, Outcome, Stop};
use rpr_fd::ConflictRows;
use rpr_priority::PriorityRelation;

/// Exhaustively searches for a global improvement of `j` among the
/// repairs contained in `domain` (pass the full set for whole-instance
/// checking). The search charges one work unit per recursion node and
/// honours the budget's deadline and cancellation token.
///
/// `j` must be a subset of `domain`.
pub fn check_global_exact_bounded(
    cg: &impl ConflictRows,
    priority: &PriorityRelation,
    domain: &FactSet,
    j: &FactSet,
    budget: &Budget,
) -> Outcome<CheckOutcome> {
    match check_global_exact_stop(cg, priority, domain, j, budget) {
        Ok(o) => Outcome::Done(o),
        Err(stop) => Outcome::from_stop(stop, None),
    }
}

/// The search proper, with [`Stop`] as the control-flow error.
fn check_global_exact_stop(
    cg: &impl ConflictRows,
    priority: &PriorityRelation,
    domain: &FactSet,
    j: &FactSet,
    budget: &Budget,
) -> Result<CheckOutcome, Stop> {
    debug_assert!(j.is_subset(domain), "the candidate must lie inside the domain");
    if let Some(incons) = inconsistency(cg, j) {
        return Ok(incons);
    }
    // Cheap sound pre-check: a Pareto improvement is a global
    // improvement (and covers non-maximality).
    if let Some(imp) = find_pareto_improvement(cg, priority, j, domain) {
        return Ok(CheckOutcome::Improvable(imp));
    }

    // The whole domain as one local view. Conflicts leaving the domain
    // are dropped: such a neighbour is never in a repair of the domain.
    let members: Vec<FactId> = domain.iter().collect();
    let edges = members.iter().flat_map(|&g| priority.better_than(g).iter().map(move |&f| (f, g)));
    let (view, _) = LocalGraph::new(&members, cg, edges);
    let (found, _) = view.search(&view.localize(&members, j), budget)?;
    Ok(match found {
        Some(local) => {
            let imp = view.globalize(&members, j.universe(), &local);
            debug_assert!(imp.is_valid_global_improvement(cg, priority, j));
            CheckOutcome::Improvable(imp)
        }
        None => CheckOutcome::Optimal,
    })
}

/// The conflict and priority structure of an ascending member list, in
/// local coordinates: local id `l` ∈ `0..k` is the rank of a fact in
/// the member list. Mapping a global candidate in and a witness back
/// out through the member slice is the only per-call work it requires.
#[derive(PartialEq, Eq, Debug)]
pub(crate) struct LocalGraph {
    /// CSR offsets into `neighbors`: the conflict neighbors of local
    /// fact `l` are `neighbors[offsets[l]..offsets[l + 1]]`.
    offsets: Vec<u32>,
    /// Conflict adjacency in local ids, ascending within each row.
    neighbors: Vec<u32>,
    /// `better[l]` = local facts preferred over `l` (dispatch plan for
    /// the improvement test at search leaves).
    better: Vec<Vec<u32>>,
}

impl LocalGraph {
    /// Builds the graph over `members` (ascending). `edges` are
    /// priority edges `f ≻ g`; those with an endpoint outside `members`
    /// are ignored. Conflict neighbors outside `members` are dropped
    /// too, and their number is returned with the graph.
    pub(crate) fn new(
        members: &[FactId],
        cg: &impl ConflictRows,
        edges: impl IntoIterator<Item = (FactId, FactId)>,
    ) -> (LocalGraph, usize) {
        let local = |g: FactId| -> Option<u32> { members.binary_search(&g).ok().map(|i| i as u32) };
        let mut offsets = Vec::with_capacity(members.len() + 1);
        let mut neighbors = Vec::new();
        let mut dropped = 0;
        offsets.push(0u32);
        for &f in members {
            for g in cg.neighbors(f) {
                match local(g) {
                    Some(l) => neighbors.push(l),
                    None => dropped += 1,
                }
            }
            offsets.push(neighbors.len() as u32);
        }
        let mut better = vec![Vec::new(); members.len()];
        for (f, g) in edges {
            if let (Some(lf), Some(lg)) = (local(f), local(g)) {
                better[lg as usize].push(lf);
            }
        }
        (LocalGraph { offsets, neighbors, better }, dropped)
    }

    /// Number of members `k`.
    pub(crate) fn len(&self) -> usize {
        self.better.len()
    }

    /// Estimated resident bytes.
    pub(crate) fn bytes(&self) -> usize {
        4 * self.offsets.len()
            + 4 * self.neighbors.len()
            + self.better.iter().map(|b| 4 * b.len() + 24).sum::<usize>()
    }

    fn row(&self, l: usize) -> &[u32] {
        &self.neighbors[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    /// Restricts a global candidate to the local universe.
    pub(crate) fn localize(&self, members: &[FactId], j: &FactSet) -> FactSet {
        let mut local = FactSet::empty(self.len());
        for (l, &g) in members.iter().enumerate() {
            if j.contains(g) {
                local.insert(FactId(l as u32));
            }
        }
        local
    }

    /// Maps a local witness back to global ids in a universe of
    /// `universe` facts.
    pub(crate) fn globalize(
        &self,
        members: &[FactId],
        universe: usize,
        imp: &Improvement,
    ) -> Improvement {
        let lift = |set: &FactSet| {
            let mut out = FactSet::empty(universe);
            for l in set.iter() {
                out.insert(members[l.index()]);
            }
            out
        };
        Improvement { removed: lift(&imp.removed), added: lift(&imp.added) }
    }

    /// The exhaustive search: branches over the local facts in order
    /// (include first, exclude only for facts with conflicts), reaching
    /// every maximal consistent subset of the members as a leaf, and
    /// returns the first global improvement of the local candidate `j`
    /// found, in local coordinates, with the number of recursion nodes
    /// visited. One work unit is charged per node.
    pub(crate) fn search(
        &self,
        j: &FactSet,
        budget: &Budget,
    ) -> Result<(Option<Improvement>, u64), Stop> {
        struct Search<'a> {
            graph: &'a LocalGraph,
            j: &'a FactSet,
            budget: &'a Budget,
            nodes: u64,
            found: Option<Improvement>,
            /// `blocked[l]` = members of the current set conflicting
            /// with `l`, kept as facts enter and leave the set.
            blocked: Vec<u32>,
        }
        impl Search<'_> {
            fn recurse(&mut self, idx: usize, current: &mut FactSet) -> Result<(), Stop> {
                if self.found.is_some() {
                    return Ok(());
                }
                self.budget.step()?;
                self.nodes += 1;
                if idx == self.graph.len() {
                    // No maximality test: an improving `K` missing a free
                    // `f` comes after the leaf `K ∪ {f}`, also improving.
                    if self.is_improvement(current) {
                        self.found = Some(Improvement {
                            removed: self.j.difference(current),
                            added: current.difference(self.j),
                        });
                    }
                    return Ok(());
                }
                if self.blocked[idx] > 0 {
                    return self.recurse(idx + 1, current);
                }
                let row = self.graph.row(idx);
                current.insert(FactId(idx as u32));
                row.iter().for_each(|&g| self.blocked[g as usize] += 1);
                self.recurse(idx + 1, current)?;
                current.remove(FactId(idx as u32));
                row.iter().for_each(|&g| self.blocked[g as usize] -= 1);
                if !row.is_empty() {
                    self.recurse(idx + 1, current)?;
                }
                Ok(())
            }

            /// `is_global_improvement` in local coordinates.
            fn is_improvement(&self, j2: &FactSet) -> bool {
                if self.j == j2 {
                    return false;
                }
                let lost = self.j.difference(j2);
                let gained = j2.difference(self.j);
                lost.iter().all(|f_prime| {
                    self.graph.better[f_prime.index()].iter().any(|&g| gained.contains(FactId(g)))
                })
            }
        }
        let mut current = FactSet::empty(self.len());
        let blocked = vec![0; self.len()];
        let mut search = Search { graph: self, j, budget, nodes: 0, found: None, blocked };
        search.recurse(0, &mut current)?;
        Ok((search.found, search.nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{enumerate_repairs_bounded, is_globally_optimal_brute_bounded};
    use rpr_data::{FactId, Instance, Signature, Value};
    use rpr_fd::{ConflictGraph, Schema};
    use std::time::Duration;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// S4 = {1→2, 2→3} over a ternary relation — a hard schema.
    fn s4_instance() -> (ConflictGraph, Instance) {
        let sig = Signature::new([("R", 3)]).unwrap();
        let schema =
            Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..]), ("R", &[2][..], &[3][..])])
                .unwrap();
        let mut i = Instance::new(sig);
        for (a, b, c) in
            [("a", "x", "1"), ("a", "y", "1"), ("b", "x", "1"), ("b", "x", "2"), ("c", "y", "2")]
        {
            i.insert_named("R", [v(a), v(b), v(c)]).unwrap();
        }
        (ConflictGraph::new(&schema, &i), i)
    }

    #[test]
    fn agrees_with_plain_oracle_on_a_hard_schema() {
        let (cg, i) = s4_instance();
        let p = PriorityRelation::new(i.len(), [(FactId(0), FactId(1)), (FactId(3), FactId(2))])
            .unwrap();
        let domain = i.full_set();
        for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 22))
            .expect_done("S4 enumeration")
        {
            let fast = check_global_exact_bounded(
                &cg,
                &p,
                &domain,
                &j,
                &Budget::unlimited().with_max_work(1 << 22),
            )
            .expect_done("exact")
            .is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                &j,
                &Budget::unlimited().with_max_work(1 << 22),
            )
            .expect_done("oracle");
            assert_eq!(fast, slow, "disagreement on {}", i.render_set(&j));
        }
    }

    #[test]
    fn budget_is_respected() {
        let (cg, i) = s4_instance();
        let p = PriorityRelation::empty(i.len());
        let j = {
            let r = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 22))
                .expect_done("S4 enumeration");
            r[0].clone()
        };
        // With an empty priority every repair is optimal, so the search
        // must run to exhaustion — and trip a tiny budget.
        assert!(matches!(
            check_global_exact_bounded(
                &cg,
                &p,
                &i.full_set(),
                &j,
                &Budget::unlimited().with_max_work(2)
            ),
            Outcome::Exceeded { .. }
        ));
    }

    #[test]
    fn bounded_variant_agrees_and_degrades() {
        let (cg, i) = s4_instance();
        let p = PriorityRelation::empty(i.len());
        let j = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 22))
            .expect_done("S4 enumeration")[0]
            .clone();
        let domain = i.full_set();
        // Unlimited budget: identical verdict to a generous allowance,
        // and every repair is optimal under the empty priority.
        let full = check_global_exact_bounded(&cg, &p, &domain, &j, &Budget::unlimited())
            .expect_done("unlimited budget");
        assert_eq!(
            Outcome::Done(full),
            check_global_exact_bounded(
                &cg,
                &p,
                &domain,
                &j,
                &Budget::unlimited().with_max_work(1 << 22)
            )
        );
        assert_eq!(
            check_global_exact_bounded(&cg, &p, &domain, &j, &Budget::unlimited())
                .expect_done("unlimited budget"),
            CheckOutcome::Optimal
        );
        // Tiny work allowance: Exceeded with a work-exhausted report.
        let tight = Budget::unlimited().with_max_work(2);
        match check_global_exact_bounded(&cg, &p, &domain, &j, &tight) {
            Outcome::Exceeded { report, .. } => {
                assert_eq!(report.max_work, Some(2));
            }
            other => panic!("expected Exceeded, got {other:?}"),
        }
        // Pre-cancelled token: the search stops before exploring.
        let cancelled = Budget::unlimited();
        cancelled.cancel_token().cancel();
        assert!(matches!(
            check_global_exact_bounded(&cg, &p, &domain, &j, &cancelled),
            Outcome::Cancelled { .. }
        ));
        // Expired deadline behaves like Exceeded(DeadlineExpired).
        let expired = Budget::unlimited().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        match check_global_exact_bounded(&cg, &p, &domain, &j, &expired) {
            Outcome::Exceeded { report, .. } => {
                assert_eq!(report.reason, rpr_engine::ExceedReason::DeadlineExpired);
            }
            other => panic!("expected Exceeded(DeadlineExpired), got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_input_short_circuits() {
        let (cg, i) = s4_instance();
        let p = PriorityRelation::empty(i.len());
        let bad = i.set_of([0, 1].map(FactId));
        assert!(matches!(
            check_global_exact_bounded(
                &cg,
                &p,
                &i.full_set(),
                &bad,
                &Budget::unlimited().with_max_work(1024)
            )
            .expect_done("inconsistent"),
            CheckOutcome::Inconsistent(..)
        ));
    }
}
