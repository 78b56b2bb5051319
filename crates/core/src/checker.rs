//! The dispatching checkers: classify once, then route every check to
//! the matching algorithm.
//!
//! * [`GRepairChecker`] — classical (conflict-restricted) instances.
//!   Per Proposition 3.5 the problem decomposes by relation symbol:
//!   conflicts and priorities never cross relations, so `J` is a
//!   globally-optimal repair of `I` iff for every relation `R`,
//!   `J ∩ R^I` is a globally-optimal repair of `R^I`. Each relation is
//!   routed to `GRepCheck1FD`, `GRepCheck2Keys`, or (on the hard side)
//!   the exact exponential search.
//! * [`CcpChecker`] — cross-conflict instances (§7). No decomposition
//!   (priorities cross relations); routes whole instances to the
//!   primary-key graph algorithm, the constant-attribute enumeration,
//!   or the exact search.

use crate::improvement::CheckOutcome;
use crate::session::CheckSession;
use rpr_classify::{
    classify_schema, classify_schema_ccp, CcpClass, Complexity, RelationClass, SchemaClass,
};
use rpr_data::FactSet;
use rpr_engine::{Budget, Outcome};
use rpr_fd::Schema;
use rpr_priority::PrioritizedInstance;

/// Which algorithm answered a check (for reporting and benchmarks).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// `GRepCheck1FD` (Figure 2).
    SingleFd,
    /// `GRepCheck2Keys` (Figure 4).
    TwoKeys,
    /// The ccp primary-key graph algorithm (Lemma 7.3).
    CcpPrimaryKey,
    /// The ccp constant-attribute enumeration (Proposition 7.5).
    CcpConstantAttribute,
    /// Exhaustive search (hard side of the dichotomy).
    Exact,
    /// Mixed per-relation methods (classical checker over a multi-
    /// relation schema).
    PerRelation,
}

/// Globally-optimal repair checker for classical (conflict-restricted)
/// prioritizing instances over a fixed schema.
pub struct GRepairChecker {
    schema: Schema,
    class: SchemaClass,
}

impl GRepairChecker {
    /// Classifies the schema and prepares the dispatch table.
    pub fn new(schema: Schema) -> Self {
        let class = classify_schema(&schema);
        GRepairChecker { schema, class }
    }

    /// The classification driving the dispatch.
    pub fn class(&self) -> &SchemaClass {
        &self.class
    }

    /// The schema's complexity under Theorem 3.1.
    pub fn complexity(&self) -> Complexity {
        self.class.complexity()
    }

    /// Checks whether `j` is a globally-optimal repair of the instance.
    ///
    /// One-shot convenience: builds a transient single-threaded
    /// [`CheckSession`] for this call. Workloads that check many
    /// candidates against one instance should construct the session
    /// themselves (via [`GRepairChecker::session`]) to amortize the
    /// conflict-graph construction.
    ///
    /// Unbounded, like [`CheckSession::check`]: on a coNP-hard schema
    /// use [`check_bounded`](GRepairChecker::check_bounded).
    ///
    /// # Panics
    /// Panics if `pi` was validated in ccp mode (use [`CcpChecker`]).
    pub fn check(&self, pi: &PrioritizedInstance, j: &FactSet) -> CheckOutcome {
        self.session(pi).check(j)
    }

    /// [`check`](GRepairChecker::check) under a caller-supplied
    /// [`Budget`]: honours its deadline, work allowance, and
    /// cancellation token, and degrades to a typed [`Outcome`] instead
    /// of failing. PTIME schemas complete under any reasonable budget;
    /// hard schemas surface `Exceeded` with a machine-readable report.
    ///
    /// # Panics
    /// Panics if `pi` was validated in ccp mode (use [`CcpChecker`]).
    pub fn check_bounded(
        &self,
        pi: &PrioritizedInstance,
        j: &FactSet,
        budget: &Budget,
    ) -> Outcome<CheckOutcome> {
        self.session(pi).check_bounded(j, budget)
    }

    /// Builds an amortized [`CheckSession`] over `pi`, reusing this
    /// checker's classification.
    ///
    /// # Panics
    /// Panics if `pi` was validated in ccp mode (use [`CcpChecker`]).
    pub fn session<'a>(&'a self, pi: &'a PrioritizedInstance) -> CheckSession<'a> {
        CheckSession::with_classical_class(&self.schema, pi, self.class.clone())
    }

    /// The method used for a given relation (reporting).
    pub fn method_for(&self, rel: rpr_data::RelId) -> Method {
        match self.class.class_of(rel) {
            RelationClass::SingleFd(_) => Method::SingleFd,
            RelationClass::TwoKeys(..) => Method::TwoKeys,
            RelationClass::Hard(_) => Method::Exact,
        }
    }
}

/// Globally-optimal repair checker for ccp-instances (§7) over a fixed
/// schema.
pub struct CcpChecker {
    schema: Schema,
    class: CcpClass,
}

impl CcpChecker {
    /// Classifies the schema under Theorem 7.1 and prepares dispatch.
    pub fn new(schema: Schema) -> Self {
        let class = classify_schema_ccp(&schema);
        CcpChecker { schema, class }
    }

    /// The classification driving the dispatch.
    pub fn class(&self) -> &CcpClass {
        &self.class
    }

    /// The schema's complexity under Theorem 7.1.
    pub fn complexity(&self) -> Complexity {
        self.class.complexity()
    }

    /// The method this checker uses.
    pub fn method(&self) -> Method {
        match &self.class {
            CcpClass::PrimaryKeyAssignment(_) => Method::CcpPrimaryKey,
            CcpClass::ConstantAttributeAssignment(_) => Method::CcpConstantAttribute,
            CcpClass::Hard { .. } => Method::Exact,
        }
    }

    /// Checks whether `j` is a globally-optimal repair of the
    /// ccp-instance. Classical instances are accepted too (they are a
    /// special case of ccp).
    ///
    /// One-shot convenience over a transient [`CheckSession`]; see
    /// [`CcpChecker::session`] for amortized checking. Unbounded, like
    /// [`CheckSession::check`]: on the hard side use
    /// [`check_bounded`](CcpChecker::check_bounded).
    pub fn check(&self, pi: &PrioritizedInstance, j: &FactSet) -> CheckOutcome {
        self.session(pi).check(j)
    }

    /// [`check`](CcpChecker::check) under a caller-supplied [`Budget`];
    /// see [`GRepairChecker::check_bounded`].
    pub fn check_bounded(
        &self,
        pi: &PrioritizedInstance,
        j: &FactSet,
        budget: &Budget,
    ) -> Outcome<CheckOutcome> {
        self.session(pi).check_bounded(j, budget)
    }

    /// Builds an amortized [`CheckSession`] over `pi`, reusing this
    /// checker's classification.
    pub fn session<'a>(&'a self, pi: &'a PrioritizedInstance) -> CheckSession<'a> {
        CheckSession::with_ccp_class(&self.schema, pi, self.class.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{enumerate_repairs_bounded, is_globally_optimal_brute_bounded};
    use rpr_data::{FactId, Instance, Signature, Value};
    use rpr_fd::CsrConflictGraph;
    use rpr_priority::PriorityRelation;

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// The full running example: BookLoc (single FD) + LibLoc (two keys).
    fn running() -> (Schema, Instance, PriorityRelation) {
        let sig = Signature::new([("BookLoc", 3), ("LibLoc", 2)]).unwrap();
        let schema = Schema::from_named(
            sig.clone(),
            [
                ("BookLoc", &[1][..], &[2][..]),
                ("LibLoc", &[1][..], &[2][..]),
                ("LibLoc", &[2][..], &[1][..]),
            ],
        )
        .unwrap();
        let mut i = Instance::new(sig);
        for (a, b, c) in [
            ("b1", "fiction", "lib1"), // 0
            ("b1", "fiction", "lib2"), // 1
            ("b1", "drama", "lib3"),   // 2
            ("b2", "poetry", "lib1"),  // 3
            ("b3", "horror", "lib2"),  // 4
        ] {
            i.insert_named("BookLoc", [v(a), v(b), v(c)]).unwrap();
        }
        for (a, b) in [
            ("lib1", "almaden"),  // 5
            ("lib1", "edenvale"), // 6
            ("lib2", "almaden"),  // 7
            ("lib2", "bascom"),   // 8
            ("lib3", "almaden"),  // 9
            ("lib3", "cambrian"), // 10
            ("lib1", "bascom"),   // 11
            ("lib3", "bascom"),   // 12
        ] {
            i.insert_named("LibLoc", [v(a), v(b)]).unwrap();
        }
        let p = PriorityRelation::new(
            i.len(),
            [
                (FactId(0), FactId(2)),
                (FactId(1), FactId(2)),
                (FactId(7), FactId(8)),
                (FactId(7), FactId(9)),
                (FactId(11), FactId(5)),
                (FactId(11), FactId(6)),
            ],
        )
        .unwrap();
        (schema, i, p)
    }

    #[test]
    fn classical_checker_matches_oracle_on_every_repair() {
        let (schema, i, p) = running();
        let cg = CsrConflictGraph::new(&schema, &i);
        let checker = GRepairChecker::new(schema.clone());
        assert_eq!(checker.complexity(), Complexity::PolynomialTime);
        let pi = PrioritizedInstance::conflict_restricted(&schema, i.clone(), p.clone()).unwrap();
        let repairs = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 22))
            .expect_done("repair enumeration");
        assert!(repairs.len() >= 8);
        let mut optimal_count = 0;
        for j in &repairs {
            let fast = checker.check(&pi, j).is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                j,
                &Budget::unlimited().with_max_work(1 << 22),
            )
            .expect_done("global oracle");
            assert_eq!(fast, slow, "disagreement on {}", i.render_set(j));
            optimal_count += usize::from(fast);
        }
        assert!(optimal_count >= 1, "some repair must be optimal");
    }

    #[test]
    fn methods_reported_per_relation() {
        let (schema, _, _) = running();
        let checker = GRepairChecker::new(schema.clone());
        let b = schema.signature().rel_id("BookLoc").unwrap();
        let l = schema.signature().rel_id("LibLoc").unwrap();
        assert_eq!(checker.method_for(b), Method::SingleFd);
        assert_eq!(checker.method_for(l), Method::TwoKeys);
    }

    #[test]
    fn hard_schema_falls_back_to_exact() {
        let sig = Signature::new([("R", 3)]).unwrap();
        let schema =
            Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..]), ("R", &[2][..], &[3][..])])
                .unwrap();
        let mut i = Instance::new(sig);
        for (a, b, c) in [("a", "x", "1"), ("a", "y", "1"), ("b", "y", "2")] {
            i.insert_named("R", [v(a), v(b), v(c)]).unwrap();
        }
        let p = PriorityRelation::new(i.len(), [(FactId(0), FactId(1))]).unwrap();
        let cg = CsrConflictGraph::new(&schema, &i);
        let checker = GRepairChecker::new(schema.clone());
        assert_eq!(checker.complexity(), Complexity::ConpComplete);
        let pi = PrioritizedInstance::conflict_restricted(&schema, i, p.clone()).unwrap();
        for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration")
        {
            let fast = checker.check(&pi, &j).is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                &j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn ccp_checker_dispatch() {
        // Primary-key assignment.
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let checker = CcpChecker::new(schema.clone());
        assert_eq!(checker.method(), Method::CcpPrimaryKey);
        assert_eq!(checker.complexity(), Complexity::PolynomialTime);

        let mut i = Instance::new(sig);
        i.insert_named("R", [v("a"), v("1")]).unwrap();
        i.insert_named("R", [v("a"), v("2")]).unwrap();
        i.insert_named("R", [v("b"), v("1")]).unwrap();
        // ccp edge between non-conflicting facts:
        let p = PriorityRelation::new(i.len(), [(FactId(2), FactId(0))]).unwrap();
        let cg = CsrConflictGraph::new(&schema, &i);
        let pi = PrioritizedInstance::cross_conflict(i, p.clone());
        for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration")
        {
            let fast = checker.check(&pi, &j).is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                &j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn ccp_constant_attribute_dispatch() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[][..], &[2][..])]).unwrap();
        let checker = CcpChecker::new(schema.clone());
        assert_eq!(checker.method(), Method::CcpConstantAttribute);
        let mut i = Instance::new(sig);
        i.insert_named("R", [v("a"), v("x")]).unwrap();
        i.insert_named("R", [v("b"), v("x")]).unwrap();
        i.insert_named("R", [v("c"), v("y")]).unwrap();
        let p = PriorityRelation::new(i.len(), [(FactId(2), FactId(0))]).unwrap();
        let cg = CsrConflictGraph::new(&schema, &i);
        let pi = PrioritizedInstance::cross_conflict(i, p.clone());
        for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration")
        {
            let fast = checker.check(&pi, &j).is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                &j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn ccp_hard_schema_uses_exact() {
        let sig = Signature::new([("R", 3)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let checker = CcpChecker::new(schema.clone());
        assert_eq!(checker.method(), Method::Exact);
        assert_eq!(checker.complexity(), Complexity::ConpComplete);
        let mut i = Instance::new(sig);
        for (a, b, c) in [("a", "x", "1"), ("a", "y", "2"), ("b", "z", "3")] {
            i.insert_named("R", [v(a), v(b), v(c)]).unwrap();
        }
        let p = PriorityRelation::new(i.len(), [(FactId(2), FactId(0))]).unwrap();
        let cg = CsrConflictGraph::new(&schema, &i);
        let pi = PrioritizedInstance::cross_conflict(i, p.clone());
        for j in enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 20))
            .expect_done("repair enumeration")
        {
            let fast = checker.check(&pi, &j).is_optimal();
            let slow = is_globally_optimal_brute_bounded(
                &cg,
                &p,
                &j,
                &Budget::unlimited().with_max_work(1 << 20),
            )
            .expect_done("global oracle");
            assert_eq!(fast, slow);
        }
    }
}
