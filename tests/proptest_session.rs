//! Property-based differential tests for [`CheckSession`]: on random
//! instances and priorities, the amortized session must agree with a
//! freshly-constructed one-shot checker *bit for bit* (outcome and
//! witness) and with the definitional brute-force oracle on the
//! optimality verdict — in conflict-restricted and cross-conflict
//! mode, at `jobs = 1` and `jobs > 1`.

use preferred_repairs::core::{
    enumerate_repairs_bounded, is_globally_optimal_brute_bounded, Budget, CcpChecker, CheckSession,
    GRepairChecker,
};
use preferred_repairs::data::{FactId, FactSet, Instance, Signature, Value};
use preferred_repairs::fd::{CsrConflictGraph, Schema};
use preferred_repairs::priority::{PrioritizedInstance, PriorityRelation};
use proptest::prelude::*;

const BUDGET: u64 = 1 << 20;

/// A random two-relation input. `R` classifies as a single FD and `S`
/// as two keys, so the classical dispatch has two relations to fan out
/// over; ranks order the priority acyclically.
#[derive(Debug, Clone)]
struct Input {
    schema: Schema,
    instance: Instance,
    ranks: Vec<u64>,
    edge_bits: u64,
}

fn input() -> impl Strategy<Value = Input> {
    (
        proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 1..7),
        proptest::collection::vec((0i64..3, 0i64..3), 1..6),
        proptest::collection::vec(0u64..u64::MAX, 16),
        any::<u64>(),
    )
        .prop_map(|(r_rows, s_rows, ranks, edge_bits)| {
            let sig = Signature::new([("R", 3), ("S", 2)]).unwrap();
            let schema = Schema::from_named(
                sig.clone(),
                [("R", &[1][..], &[2][..]), ("S", &[1][..], &[2][..]), ("S", &[2][..], &[1][..])],
            )
            .unwrap();
            let mut instance = Instance::new(sig);
            for (a, b, c) in r_rows {
                instance.insert_named("R", [Value::Int(a), Value::Int(b), Value::Int(c)]).unwrap();
            }
            for (a, b) in s_rows {
                instance.insert_named("S", [Value::Int(a), Value::Int(b)]).unwrap();
            }
            Input { schema, instance, ranks, edge_bits }
        })
}

impl Input {
    fn rank(&self, f: FactId) -> (u64, u32) {
        (self.ranks[f.index() % self.ranks.len()], f.0)
    }

    /// Conflict-restricted priority: a rank-ordered subset of the
    /// conflict edges (acyclic by construction).
    fn conflict_priority(&self, cg: &CsrConflictGraph) -> PriorityRelation {
        let edges: Vec<(FactId, FactId)> = cg
            .edges()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| self.edge_bits >> (i % 64) & 1 == 1)
            .map(|(_, (a, b))| if self.rank(a) > self.rank(b) { (a, b) } else { (b, a) })
            .collect();
        PriorityRelation::new(self.instance.len(), edges).unwrap()
    }

    /// Cross-conflict priority: rank-ordered edges between *arbitrary*
    /// fact pairs, conflicting or not.
    fn ccp_priority(&self) -> PriorityRelation {
        let n = self.instance.len() as u32;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let i = (a * n + b) as usize;
                if self.edge_bits >> (i % 64) & 1 == 1 {
                    let (x, y) = (FactId(a), FactId(b));
                    edges.push(if self.rank(x) > self.rank(y) { (x, y) } else { (y, x) });
                }
            }
        }
        PriorityRelation::new(self.instance.len(), edges).unwrap()
    }

    /// Repairs plus inconsistent and non-maximal sets, so every
    /// outcome variant (and witness) gets compared.
    fn candidates(&self, cg: &CsrConflictGraph) -> Vec<FactSet> {
        let mut out = enumerate_repairs_bounded(cg, &Budget::unlimited().with_max_work(BUDGET))
            .expect_done("repair enumeration");
        out.push(self.instance.empty_set());
        out.push(self.instance.full_set());
        if self.instance.len() >= 2 {
            out.push(self.instance.set_of([FactId(0), FactId(1)]));
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn classical_session_agrees_with_checker_and_oracle(inp in input()) {
        let cg = CsrConflictGraph::new(&inp.schema, &inp.instance);
        let priority = inp.conflict_priority(&cg);
        let pi = PrioritizedInstance::conflict_restricted(
            &inp.schema,
            inp.instance.clone(),
            priority.clone(),
        )
        .unwrap();
        let checker = GRepairChecker::new(inp.schema.clone());
        for jobs in [1usize, 4] {
            let session = CheckSession::new(&inp.schema, &pi).with_jobs(jobs);
            for j in inp.candidates(&cg) {
                let via_session = session.check(&j);
                // Bit-identity: same outcome, same witness.
                prop_assert_eq!(&via_session, &checker.check(&pi, &j), "jobs={}", jobs);
                // Definitional agreement on consistent candidates.
                if cg.is_consistent_set(&j) {
                    let slow = is_globally_optimal_brute_bounded(
                        &cg,
                        &priority,
                        &j,
                        &Budget::unlimited().with_max_work(BUDGET),
                    )
                    .expect_done("global oracle");
                    prop_assert_eq!(via_session.is_optimal(), slow);
                }
            }
        }
    }

    #[test]
    fn ccp_session_agrees_with_checker_and_oracle(inp in input()) {
        let cg = CsrConflictGraph::new(&inp.schema, &inp.instance);
        let priority = inp.ccp_priority();
        let pi = PrioritizedInstance::cross_conflict(inp.instance.clone(), priority.clone());
        let checker = CcpChecker::new(inp.schema.clone());
        for jobs in [1usize, 4] {
            let session = CheckSession::new(&inp.schema, &pi).with_jobs(jobs);
            for j in inp.candidates(&cg) {
                let via_session = session.check(&j);
                prop_assert_eq!(&via_session, &checker.check(&pi, &j), "jobs={}", jobs);
                if cg.is_consistent_set(&j) {
                    let slow = is_globally_optimal_brute_bounded(
                        &cg,
                        &priority,
                        &j,
                        &Budget::unlimited().with_max_work(BUDGET),
                    )
                    .expect_done("global oracle");
                    prop_assert_eq!(via_session.is_optimal(), slow);
                }
            }
        }
    }

    #[test]
    fn batch_results_are_bitwise_equal_to_single_checks(inp in input()) {
        let cg = CsrConflictGraph::new(&inp.schema, &inp.instance);
        let priority = inp.conflict_priority(&cg);
        let pi = PrioritizedInstance::conflict_restricted(
            &inp.schema,
            inp.instance.clone(),
            priority,
        )
        .unwrap();
        let session = CheckSession::new(&inp.schema, &pi).with_jobs(4);
        let js = inp.candidates(&cg);
        let batch = session.check_batch(&js);
        prop_assert_eq!(batch.len(), js.len());
        for (j, outcome) in js.iter().zip(&batch) {
            prop_assert_eq!(outcome, &session.check(j));
        }
    }
}
