//! Consistent query answering over preferred repairs.
//!
//! For a repair semantics `σ` (all subset repairs, Pareto-optimal,
//! globally-optimal, completion-optimal), the σ-certain answers of `q`
//! on `(I, ≻)` are `⋂ {q(J) : J a σ-repair}` and the σ-possible answers
//! `⋃ {q(J) : …}` — the preferred generalization of Arenas-Bertossi-
//! Chomicki consistent answers that the paper's concluding remarks pose
//! as the next classification problem. Repairs are enumerated by the
//! oracles in `rpr-core` under an engine [`Budget`], and every entry
//! point returns an [`Outcome`].

use crate::query::ConjunctiveQuery;
use rpr_core::{
    enumerate_repairs_bounded, is_completion_optimal, is_global_improvement, is_pareto_improvement,
    Budget, CheckSession, Outcome,
};
use rpr_data::{FactSet, Instance, Tuple};
use rpr_fd::{CsrConflictGraph, Schema};
use rpr_priority::PriorityRelation;
use std::collections::BTreeSet;

/// The repair semantics to quantify over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RepairSemantics {
    /// All subset repairs (Arenas–Bertossi–Chomicki).
    All,
    /// Pareto-optimal repairs.
    Pareto,
    /// Globally-optimal repairs.
    Global,
    /// Completion-optimal repairs.
    Completion,
}

impl RepairSemantics {
    /// All four semantics, in the inclusion order
    /// `Completion ⊆ Global ⊆ Pareto ⊆ All` (strongest first).
    pub const ALL: [RepairSemantics; 4] = [
        RepairSemantics::Completion,
        RepairSemantics::Global,
        RepairSemantics::Pareto,
        RepairSemantics::All,
    ];
}

impl std::fmt::Display for RepairSemantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RepairSemantics::All => "all",
            RepairSemantics::Pareto => "pareto",
            RepairSemantics::Global => "global",
            RepairSemantics::Completion => "completion",
        };
        write!(f, "{name}")
    }
}

impl std::str::FromStr for RepairSemantics {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "all" => RepairSemantics::All,
            "pareto" => RepairSemantics::Pareto,
            "global" => RepairSemantics::Global,
            "completion" => RepairSemantics::Completion,
            other => {
                return Err(format!(
                    "unknown semantics `{other}` (use all|pareto|global|completion)"
                ))
            }
        })
    }
}

/// Enumerates the repairs of the chosen semantics under an engine
/// [`Budget`] (deadline, shared work allowance, cooperative
/// cancellation). The Pareto, global and completion filters charge one
/// work unit per enumerated repair.
///
/// Partial-result semantics on degradation:
///
/// * `All` — the partial is a prefix of the repair enumeration (every
///   member is a true repair).
/// * `Pareto` / `Global` — confirming optimality requires comparing
///   against *every* repair, so a truncated enumeration cannot certify
///   any candidate and the partial is `None`; when enumeration finishes
///   but the pairwise filter trips mid-scan, the partial holds the
///   candidates confirmed so far.
/// * `Completion` — each repair is judged on its own, so the partial
///   holds the completion-optimal repairs confirmed before the stop.
pub fn repairs_under_bounded(
    semantics: RepairSemantics,
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    budget: &Budget,
) -> Outcome<Vec<FactSet>> {
    let (all, enumeration_stop) = match enumerate_repairs_bounded(cg, budget) {
        Outcome::Done(r) => (r, None),
        Outcome::Exceeded { partial, report } => {
            (partial.unwrap_or_default(), Some(rpr_core::Stop::Exceeded(report)))
        }
        Outcome::Cancelled { partial } => {
            (partial.unwrap_or_default(), Some(rpr_core::Stop::Cancelled))
        }
        Outcome::Panicked { partial, report } => return Outcome::Panicked { partial, report },
    };
    if let Some(stop) = enumeration_stop {
        // A prefix of the repairs is itself a valid partial only under
        // `All`; the optimality filters need the complete set to
        // certify anything, and completion checks on a prefix would
        // silently narrow the answer to that prefix.
        let partial = match semantics {
            RepairSemantics::All => Some(all),
            _ => None,
        };
        return Outcome::from_stop(stop, partial);
    }
    let filtered: Result<Vec<FactSet>, (Vec<FactSet>, rpr_core::Stop)> = match semantics {
        RepairSemantics::All => Ok(all),
        RepairSemantics::Pareto => filter_bounded(&all, budget, |j| {
            !all.iter().any(|r| is_pareto_improvement(priority, j, r))
        }),
        RepairSemantics::Global => filter_bounded(&all, budget, |j| {
            !all.iter().any(|r| is_global_improvement(priority, j, r))
        }),
        RepairSemantics::Completion => {
            filter_bounded(&all, budget, |j| is_completion_optimal(cg, priority, j))
        }
    };
    match filtered {
        Ok(repairs) => Outcome::Done(repairs),
        Err((kept, stop)) => Outcome::from_stop(stop, Some(kept)),
    }
}

/// Retains the repairs passing `keep`, charging one budget unit per
/// candidate; on a stop, returns the candidates confirmed so far.
fn filter_bounded(
    all: &[FactSet],
    budget: &Budget,
    keep: impl Fn(&FactSet) -> bool,
) -> Result<Vec<FactSet>, (Vec<FactSet>, rpr_core::Stop)> {
    let mut out = Vec::new();
    for j in all {
        if let Err(stop) = budget.step() {
            return Err((out, stop));
        }
        if keep(j) {
            out.push(j.clone());
        }
    }
    Ok(out)
}

/// Enumerates the repairs of the chosen semantics against an amortized
/// [`CheckSession`] under an engine [`Budget`] — no per-call
/// conflict-graph construction. The globally-optimal semantics routes
/// through the session's bounded dispatched (polynomial where possible,
/// parallel) checker instead of the pairwise oracle scan; its partial
/// is a sound confirmed-optimal subset. The others share the plain
/// bounded path of [`repairs_under_bounded`]. Agrees with
/// [`repairs_under_bounded`] on the session's conflict graph when the
/// budget does not trip.
pub fn repairs_under_session_bounded(
    semantics: RepairSemantics,
    session: &CheckSession<'_>,
    budget: &Budget,
) -> Outcome<Vec<FactSet>> {
    if semantics == RepairSemantics::Global {
        return rpr_core::globally_optimal_repairs_session_bounded(session, budget);
    }
    repairs_under_bounded(semantics, session.conflict_graph(), session.priority(), budget)
}

/// The result of a preferred-CQA computation.
#[derive(Clone, Debug)]
pub struct CqaAnswers {
    /// Tuples present in the answer on every σ-repair.
    pub certain: BTreeSet<Tuple>,
    /// Tuples present in the answer on at least one σ-repair.
    pub possible: BTreeSet<Tuple>,
    /// How many σ-repairs were quantified over.
    pub repair_count: usize,
}

/// Computes certain and possible answers of `query` on `(instance, ≻)`
/// under the chosen repair semantics and an engine [`Budget`].
///
/// On degradation the partial answers quantify over the partial repair
/// set: `certain` is then an *upper bound* (more repairs can only
/// shrink the intersection) and `possible` a *lower bound* (more
/// repairs can only grow the union) on the true answers. A degraded
/// outcome with no partial repair set carries no partial answers.
pub fn answers_bounded(
    schema: &Schema,
    instance: &Instance,
    priority: &PriorityRelation,
    query: &ConjunctiveQuery,
    semantics: RepairSemantics,
    budget: &Budget,
) -> Outcome<CqaAnswers> {
    let cg = CsrConflictGraph::new(schema, instance);
    repairs_under_bounded(semantics, &cg, priority, budget)
        .map(|repairs| quantify(instance, query, &repairs))
}

/// Computes certain and possible answers against an amortized
/// [`CheckSession`] under an engine [`Budget`]. Answer/count loops over
/// many queries should build one session and call this per query: the
/// conflict graph, classification, and partitions are shared across
/// all of them. Same partial-answer bounds as [`answers_bounded`].
pub fn answers_session_bounded(
    session: &CheckSession<'_>,
    query: &ConjunctiveQuery,
    semantics: RepairSemantics,
    budget: &Budget,
) -> Outcome<CqaAnswers> {
    repairs_under_session_bounded(semantics, session, budget)
        .map(|repairs| quantify(session.instance(), query, &repairs))
}

fn quantify(instance: &Instance, query: &ConjunctiveQuery, repairs: &[FactSet]) -> CqaAnswers {
    let mut certain: Option<BTreeSet<Tuple>> = None;
    let mut possible: BTreeSet<Tuple> = BTreeSet::new();
    for j in repairs {
        let sub = instance.materialize(j);
        let ans = query.eval(&sub);
        possible.extend(ans.iter().cloned());
        certain = Some(match certain {
            None => ans,
            Some(c) => c.intersection(&ans).cloned().collect(),
        });
    }
    CqaAnswers { certain: certain.unwrap_or_default(), possible, repair_count: repairs.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::atom;
    use rpr_data::{FactId, Signature, Value};

    /// R(name, group) with key "group" (R: 2→1 and 2→… wait we want
    /// one winner per group: use R: 1→2 over (group, member)).
    fn setup() -> (Schema, Instance, PriorityRelation) {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        let v = Value::sym;
        i.insert_named("R", [v("g1"), v("a")]).unwrap(); // 0
        i.insert_named("R", [v("g1"), v("b")]).unwrap(); // 1
        i.insert_named("R", [v("g2"), v("c")]).unwrap(); // 2
                                                         // Prefer a over b.
        let p = PriorityRelation::new(i.len(), [(FactId(0), FactId(1))]).unwrap();
        (schema, i, p)
    }

    #[test]
    fn semantics_shrink_the_repair_set() {
        let (schema, i, p) = setup();
        let cg = CsrConflictGraph::new(&schema, &i);
        let under = |sem| {
            repairs_under_bounded(sem, &cg, &p, &Budget::unlimited().with_max_work(1 << 20))
                .expect_done("repairs under a semantics")
        };
        let all = under(RepairSemantics::All);
        let pareto = under(RepairSemantics::Pareto);
        let global = under(RepairSemantics::Global);
        let completion = under(RepairSemantics::Completion);
        assert_eq!(all.len(), 2);
        assert_eq!(pareto.len(), 1);
        assert_eq!(global.len(), 1);
        assert_eq!(completion.len(), 1);
        // C ⊆ G ⊆ P ⊆ All.
        for j in &completion {
            assert!(global.contains(j));
        }
        for j in &global {
            assert!(pareto.contains(j));
        }
    }

    #[test]
    fn certain_answers_differ_by_semantics() {
        let (schema, i, p) = setup();
        // q(x) ← R(g1, x).
        let q = ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "R", &["g1", "?0"])] };
        let all = answers_bounded(
            &schema,
            &i,
            &p,
            &q,
            RepairSemantics::All,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("all-repairs answers");
        // Under plain repairs, neither a nor b is certain.
        assert!(all.certain.is_empty());
        assert_eq!(all.possible.len(), 2);
        // Under globally-optimal repairs the preferred fact is certain.
        let global = answers_bounded(
            &schema,
            &i,
            &p,
            &q,
            RepairSemantics::Global,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("global answers");
        assert_eq!(global.certain.len(), 1);
        assert!(global.certain.contains(&Tuple::new([Value::sym("a")])));
        assert_eq!(global.repair_count, 1);
    }

    #[test]
    fn boolean_certainty() {
        let (schema, i, p) = setup();
        // q() ← R(g1, b): possible under All, refuted under Global.
        let q = ConjunctiveQuery::boolean(vec![atom(&i, "R", &["g1", "b"])]);
        let all = answers_bounded(
            &schema,
            &i,
            &p,
            &q,
            RepairSemantics::All,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("all-repairs answers");
        assert!(all.certain.is_empty());
        assert!(!all.possible.is_empty());
        let global = answers_bounded(
            &schema,
            &i,
            &p,
            &q,
            RepairSemantics::Global,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("global answers");
        assert!(global.possible.is_empty());
    }

    #[test]
    fn bounded_returns_pinned_values_under_unlimited_budgets() {
        let (schema, i, p) = setup();
        let cg = CsrConflictGraph::new(&schema, &i);
        let budget = Budget::unlimited();
        // Repairs {a, c} and {b, c}, in enumeration order; a ≻ b leaves
        // only {a, c} under every preferred semantics.
        let ac = i.set_of([FactId(0), FactId(2)]);
        let bc = i.set_of([FactId(1), FactId(2)]);
        for sem in RepairSemantics::ALL {
            let expected = match sem {
                RepairSemantics::All => vec![ac.clone(), bc.clone()],
                _ => vec![ac.clone()],
            };
            let bounded = repairs_under_bounded(sem, &cg, &p, &budget)
                .expect_done("unlimited budget must finish");
            assert_eq!(bounded, expected, "semantics {sem}");
        }
        let q = ConjunctiveQuery { head: vec![0], atoms: vec![atom(&i, "R", &["g1", "?0"])] };
        let bounded = answers_bounded(&schema, &i, &p, &q, RepairSemantics::Global, &budget)
            .expect_done("unlimited budget must finish");
        let a: BTreeSet<Tuple> = [Tuple::new([Value::sym("a")])].into();
        assert_eq!(bounded.certain, a);
        assert_eq!(bounded.possible, a);
        assert_eq!(bounded.repair_count, 1);
    }

    #[test]
    fn bounded_session_agrees_with_plain_bounded() {
        let (schema, i, p) = setup();
        let pi =
            rpr_priority::PrioritizedInstance::conflict_restricted(&schema, i, p.clone()).unwrap();
        let checker = rpr_core::GRepairChecker::new(schema.clone());
        let session = checker.session(&pi).with_jobs(1);
        let budget = Budget::unlimited();
        for sem in RepairSemantics::ALL {
            let mut plain = repairs_under_bounded(sem, session.conflict_graph(), &p, &budget)
                .expect_done("unlimited");
            let mut via_session =
                repairs_under_session_bounded(sem, &session, &budget).expect_done("unlimited");
            plain.sort();
            via_session.sort();
            assert_eq!(plain, via_session, "semantics {sem}");
        }
    }

    #[test]
    fn bounded_degrades_per_semantics_on_truncated_enumeration() {
        let (schema, i, p) = setup();
        let cg = CsrConflictGraph::new(&schema, &i);
        // Enumeration alone needs more than 2 units here, so every
        // semantics sees a truncated repair enumeration.
        let budget = Budget::unlimited().with_max_work(2);
        match repairs_under_bounded(RepairSemantics::All, &cg, &p, &budget) {
            Outcome::Exceeded { partial: Some(prefix), .. } => {
                let full = repairs_under_bounded(
                    RepairSemantics::All,
                    &cg,
                    &p,
                    &Budget::unlimited().with_max_work(1 << 20),
                )
                .expect_done("full enumeration");
                assert!(prefix.len() < full.len());
                for j in &prefix {
                    assert!(full.contains(j), "partial members must be true repairs");
                }
            }
            other => panic!("expected Exceeded with a prefix, got {other:?}"),
        }
        let budget = Budget::unlimited().with_max_work(2);
        match repairs_under_bounded(RepairSemantics::Global, &cg, &p, &budget) {
            Outcome::Exceeded { partial: None, .. } => {}
            other => panic!("a truncated enumeration cannot certify optimality: {other:?}"),
        }
    }

    #[test]
    fn bounded_answers_observe_cancellation() {
        let (schema, i, p) = setup();
        let q = ConjunctiveQuery::boolean(vec![atom(&i, "R", &["g1", "b"])]);
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        match answers_bounded(&schema, &i, &p, &q, RepairSemantics::All, &budget) {
            Outcome::Cancelled { .. } => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn empty_instance_yields_no_answers_but_one_repair() {
        let (schema, _, _) = setup();
        let i = Instance::new(schema.signature().clone());
        let p = PriorityRelation::empty(0);
        let q = ConjunctiveQuery::boolean(vec![atom(&i, "R", &["g1", "?0"])]);
        let res = answers_bounded(
            &schema,
            &i,
            &p,
            &q,
            RepairSemantics::All,
            &Budget::unlimited().with_max_work(1024),
        )
        .expect_done("empty-instance answers");
        assert_eq!(res.repair_count, 1); // the empty repair
        assert!(res.certain.is_empty());
        assert!(res.possible.is_empty());
    }
}

#[cfg(test)]
mod semantics_name_tests {
    use super::*;

    #[test]
    fn display_fromstr_roundtrip() {
        for sem in RepairSemantics::ALL {
            let back: RepairSemantics = sem.to_string().parse().unwrap();
            assert_eq!(back, sem);
        }
        assert!("bogus".parse::<RepairSemantics>().is_err());
    }

    #[test]
    fn inclusion_order_constant_is_strongest_first() {
        assert_eq!(RepairSemantics::ALL[0], RepairSemantics::Completion);
        assert_eq!(RepairSemantics::ALL[3], RepairSemantics::All);
    }
}
