//! The exhaustive improvement search as it was while the one-shot exact
//! check and the shard search were two separate recursions: the
//! one-shot's pre-checks and its search in global coordinates, kept as
//! the oracle the one remaining search must agree with.
//!
//! The search branches over the domain's facts against the global
//! conflict rows, so a conflict neighbour outside the domain still
//! opens an exclude branch.

use rpr_core::{find_pareto_improvement, is_global_improvement, CheckOutcome, Improvement};
use rpr_data::FactSet;
use rpr_engine::{Budget, Stop};
use rpr_fd::CsrConflictGraph;
use rpr_priority::PriorityRelation;

/// The repair pre-check of the one-shot checkers: the least `f ∈ j`
/// conflicting inside `j`, with its least partner.
fn inconsistency(rows: &CsrConflictGraph, j: &FactSet) -> Option<CheckOutcome> {
    j.iter()
        .find_map(|f| rows.conflicts_among(f, j).next().map(|g| CheckOutcome::Inconsistent(f, g)))
}

/// The search proper, with [`Stop`] as the control-flow error so the
/// session dispatch can propagate it with `?`.
pub fn check_global_exact_stop(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    domain: &FactSet,
    j: &FactSet,
    budget: &Budget,
) -> Result<CheckOutcome, Stop> {
    if let Some(incons) = inconsistency(cg, j) {
        return Ok(incons);
    }
    // Cheap sound pre-check: a Pareto improvement is a global
    // improvement (and covers non-maximality).
    if let Some(imp) = find_pareto_improvement(cg, priority, j, domain) {
        return Ok(CheckOutcome::Improvable(imp));
    }

    // Exhaustive search over repairs within the domain. We enumerate
    // maximal consistent subsets of `domain` by branching over its
    // facts; each leaf is tested as a global improvement.
    let facts: Vec<_> = domain.iter().collect();
    Ok(match exhaustive_improvement(cg, priority, &facts, j, budget)? {
        Some(imp) => {
            debug_assert!(imp.is_valid_global_improvement(cg, priority, j));
            CheckOutcome::Improvable(imp)
        }
        None => CheckOutcome::Optimal,
    })
}

/// The exhaustive core: branches over `facts` (sorted ascending),
/// enumerating the maximal consistent subsets of that universe, and
/// returns the first global improvement of `j` found, if any.
///
/// `j` must be the candidate restricted to the same universe as
/// `facts`. Sessions call this once per conflict component (`facts` =
/// the component's members, `j` = the candidate ∩ component):
/// improvements never span components, so a component-local hit is a
/// valid global improvement, and the search pays `2^|component|`
/// instead of `2^|domain|`. One work unit is charged per recursion
/// node.
pub fn exhaustive_improvement(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    facts: &[rpr_data::FactId],
    j: &FactSet,
    budget: &Budget,
) -> Result<Option<Improvement>, Stop> {
    struct Search<'a> {
        cg: &'a CsrConflictGraph,
        priority: &'a PriorityRelation,
        j: &'a FactSet,
        facts: &'a [rpr_data::FactId],
        budget: &'a Budget,
        found: Option<Improvement>,
    }

    impl Search<'_> {
        fn recurse(&mut self, idx: usize, current: &mut FactSet) -> Result<(), Stop> {
            if self.found.is_some() {
                return Ok(());
            }
            self.budget.step()?;
            if idx == self.facts.len() {
                // Maximality within the branching universe.
                let maximal = self
                    .facts
                    .iter()
                    .all(|&f| current.contains(f) || self.cg.conflicts_with_set(f, current));
                if maximal && is_global_improvement(self.priority, self.j, current) {
                    self.found = Some(Improvement {
                        removed: self.j.difference(current),
                        added: current.difference(self.j),
                    });
                }
                return Ok(());
            }
            let f = self.facts[idx];
            if self.cg.conflicts_with_set(f, current) {
                return self.recurse(idx + 1, current);
            }
            current.insert(f);
            self.recurse(idx + 1, current)?;
            current.remove(f);
            if self.cg.neighbors(f).next().is_some() {
                self.recurse(idx + 1, current)?;
            }
            Ok(())
        }
    }

    let mut current = FactSet::empty(j.universe());
    let mut search = Search { cg, priority, j, facts, budget, found: None };
    search.recurse(0, &mut current)?;
    Ok(search.found)
}
