//! The paper's running example: the library database of Figure 1, the
//! priority of Example 2.3, and the four subinstances of Example 2.5.
//!
//! Fact names follow the paper's mnemonic encoding (`g1f1` = a `g`-fact
//! for book `b1`, genre `fiction`, library `lib1`; `d1a` = a `d`-fact
//! for `lib1`/`almaden`, …). The priority is `g_y ≻ f_x` and
//! `e_y ≻ d_x` for conflicting pairs.
//!
//! **Fidelity note.** Example 2.5 as printed lists `J3` with exactly the
//! facts of `J1`, while claiming `J1` has a Pareto improvement and `J3`
//! has none — which no single priority can satisfy. We expose the
//! printed sets verbatim; the claims that are mutually consistent
//! (`J2` improves `J1` Pareto-wise, `J2` is globally optimal, `J4` is a
//! global but not Pareto improvement of `J3`, `J3` is not globally
//! optimal) all hold and are verified in tests and the experiment
//! harness; the lone "J3 is Pareto-optimal" claim holds under the
//! variant priority without the two `g2a` edges, which
//! [`RunningExample::priority_without_g2a_edges`] provides.

use rpr_data::{FactId, FactSet, Instance, Signature, Value};
use rpr_fd::Schema;
use rpr_priority::{PrioritizedInstance, PriorityRelation};

/// The assembled running example.
pub struct RunningExample {
    /// The schema of Example 2.2.
    pub schema: Schema,
    /// The instance of Figure 1.
    pub instance: Instance,
    /// The priority of Example 2.3.
    pub priority: PriorityRelation,
}

/// The named facts of Figure 1, as ids into
/// [`RunningExample::instance`].
#[allow(missing_docs)]
#[derive(Clone, Copy)]
pub struct Facts {
    pub g1f1: FactId,
    pub g1f2: FactId,
    pub f1d3: FactId,
    pub f2p1: FactId,
    pub h3h2: FactId,
    pub d1a: FactId,
    pub d1e: FactId,
    pub g2a: FactId,
    pub f2b: FactId,
    pub f3a: FactId,
    pub f3c: FactId,
    pub e1b: FactId,
    pub e3b: FactId,
}

impl RunningExample {
    /// Builds the example.
    pub fn new() -> Self {
        let sig = Signature::new([("BookLoc", 3), ("LibLoc", 2)]).unwrap();
        let schema = Schema::from_named(
            sig.clone(),
            [
                ("BookLoc", &[1][..], &[2][..]), // δ1
                ("LibLoc", &[1][..], &[2][..]),  // δ2
                ("LibLoc", &[2][..], &[1][..]),  // δ3
            ],
        )
        .expect("running-example schema is well-formed");

        let mut instance = Instance::new(sig);
        let v = Value::sym;
        for (a, b, c) in [
            ("b1", "fiction", "lib1"),
            ("b1", "fiction", "lib2"),
            ("b1", "drama", "lib3"),
            ("b2", "poetry", "lib1"),
            ("b3", "horror", "lib2"),
        ] {
            instance.insert_named("BookLoc", [v(a), v(b), v(c)]).expect("BookLoc fact");
        }
        for (a, b) in [
            ("lib1", "almaden"),
            ("lib1", "edenvale"),
            ("lib2", "almaden"),
            ("lib2", "bascom"),
            ("lib3", "almaden"),
            ("lib3", "cambrian"),
            ("lib1", "bascom"),
            ("lib3", "bascom"),
        ] {
            instance.insert_named("LibLoc", [v(a), v(b)]).expect("LibLoc fact");
        }

        // Example 2.3: g_y ≻ f_x and e_y ≻ d_x on conflicting pairs.
        let f = Self::fact_ids();
        let priority = PriorityRelation::new(
            instance.len(),
            [
                (f.g1f1, f.f1d3), // g ≻ f in BookLoc (book b1)
                (f.g1f2, f.f1d3),
                (f.g2a, f.f2b), // g ≻ f in LibLoc (lib2)
                (f.g2a, f.f3a), // g ≻ f in LibLoc (almaden)
                (f.e1b, f.d1a), // e ≻ d in LibLoc (lib1)
                (f.e1b, f.d1e),
            ],
        )
        .expect("example priority is acyclic");

        RunningExample { schema, instance, priority }
    }

    /// The named fact ids (stable: insertion order above).
    pub fn fact_ids() -> Facts {
        Facts {
            g1f1: FactId(0),
            g1f2: FactId(1),
            f1d3: FactId(2),
            f2p1: FactId(3),
            h3h2: FactId(4),
            d1a: FactId(5),
            d1e: FactId(6),
            g2a: FactId(7),
            f2b: FactId(8),
            f3a: FactId(9),
            f3c: FactId(10),
            e1b: FactId(11),
            e3b: FactId(12),
        }
    }

    /// Wraps the example as a validated conflict-restricted
    /// prioritizing instance.
    pub fn prioritized(&self) -> PrioritizedInstance {
        PrioritizedInstance::conflict_restricted(
            &self.schema,
            self.instance.clone(),
            self.priority.clone(),
        )
        .expect("Example 2.3 priority is conflict-restricted")
    }

    /// `J1` of Example 2.5: `{g1f1, g1f2, f2p1, h3h2, d1e, f2b, f3a}`.
    pub fn j1(&self) -> FactSet {
        let f = Self::fact_ids();
        self.instance.set_of([f.g1f1, f.g1f2, f.f2p1, f.h3h2, f.d1e, f.f2b, f.f3a])
    }

    /// `J2` of Example 2.5: `{g1f1, g1f2, f2p1, h3h2, d1e, g2a, e3b}`.
    pub fn j2(&self) -> FactSet {
        let f = Self::fact_ids();
        self.instance.set_of([f.g1f1, f.g1f2, f.f2p1, f.h3h2, f.d1e, f.g2a, f.e3b])
    }

    /// `J3` of Example 2.5, as printed (the same facts as `J1` — see
    /// the module-level fidelity note).
    pub fn j3(&self) -> FactSet {
        self.j1()
    }

    /// `J4` of Example 2.5: `{g1f1, g1f2, f2p1, h3h2, e1b, g2a, f3c}`.
    pub fn j4(&self) -> FactSet {
        let f = Self::fact_ids();
        self.instance.set_of([f.g1f1, f.g1f2, f.f2p1, f.h3h2, f.e1b, f.g2a, f.f3c])
    }

    /// The Example 2.3 priority *without* the two `g2a ≻ …` edges —
    /// the variant under which the printed "J3 is Pareto-optimal"
    /// claim holds (see the module docs).
    pub fn priority_without_g2a_edges(&self) -> PriorityRelation {
        let f = Self::fact_ids();
        PriorityRelation::new(
            self.instance.len(),
            [(f.g1f1, f.f1d3), (f.g1f2, f.f1d3), (f.e1b, f.d1a), (f.e1b, f.d1e)],
        )
        .expect("variant priority is acyclic")
    }
}

impl Default for RunningExample {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_fd::CsrConflictGraph;

    #[test]
    fn figure_1_shape() {
        let ex = RunningExample::new();
        assert_eq!(ex.instance.len(), 13);
        let b = ex.schema.signature().rel_id("BookLoc").unwrap();
        let l = ex.schema.signature().rel_id("LibLoc").unwrap();
        assert_eq!(ex.instance.facts_of(b).len(), 5);
        assert_eq!(ex.instance.facts_of(l).len(), 8);
        // The instance is inconsistent, as the paper requires.
        assert!(!ex.schema.is_consistent(&ex.instance));
    }

    #[test]
    fn example_2_2_conflicts_present() {
        let ex = RunningExample::new();
        let f = RunningExample::fact_ids();
        let cg = CsrConflictGraph::new(&ex.schema, &ex.instance);
        // {g1f1, f1d3} is a δ1-conflict, {d1a, d1e} a δ2-conflict,
        // {d1a, g2a} a δ3-conflict.
        assert!(cg.conflicting(f.g1f1, f.f1d3));
        assert!(cg.conflicting(f.d1a, f.d1e));
        assert!(cg.conflicting(f.d1a, f.g2a));
        assert!(!cg.conflicting(f.g1f1, f.d1a));
    }

    #[test]
    fn example_2_3_priority_is_legal() {
        let ex = RunningExample::new();
        // Conflict-restricted validation must succeed.
        let _ = ex.prioritized();
        assert_eq!(ex.priority.edge_count(), 6);
    }

    #[test]
    fn example_2_5_sets_are_repairs() {
        let ex = RunningExample::new();
        let cg = CsrConflictGraph::new(&ex.schema, &ex.instance);
        for (name, j) in [("J1", ex.j1()), ("J2", ex.j2()), ("J3", ex.j3()), ("J4", ex.j4())] {
            assert!(cg.is_repair(&j), "{name} must be a repair");
            assert_eq!(j.len(), 7, "{name} has 7 facts");
        }
    }
}
