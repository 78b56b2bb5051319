//! Instance/conflict statistics.
//!
//! Cheap descriptive measures of how inconsistent an instance is —
//! used by the CLI's reporting, the experiment harness, and anyone
//! sizing a cleaning job: the number of conflicting pairs bounds the
//! priority-elicitation effort, the largest conflict group bounds the
//! per-group choice space, and the count of conflict-free facts is the
//! part of the database every repair keeps.

use crate::csr::CsrConflictGraph;
use crate::schema::Schema;
use rpr_data::{FactId, Instance};
use std::fmt;

/// Descriptive statistics of an instance under a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictStats {
    /// Total number of facts.
    pub facts: usize,
    /// Number of conflicting (unordered) pairs.
    pub conflict_pairs: usize,
    /// Number of facts involved in at least one conflict.
    pub conflicted_facts: usize,
    /// The maximum conflict degree of any fact.
    pub max_degree: usize,
    /// Per-relation `(name, facts, conflict_pairs)`.
    pub per_relation: Vec<(String, usize, usize)>,
}

impl ConflictStats {
    /// Computes the statistics.
    pub fn compute(schema: &Schema, instance: &Instance) -> Self {
        let cg = CsrConflictGraph::new(schema, instance);
        let sig = schema.signature();
        let mut conflicted = 0usize;
        let mut max_degree = 0usize;
        for i in 0..instance.len() {
            let deg = cg.degree(FactId(i as u32));
            if deg > 0 {
                conflicted += 1;
            }
            max_degree = max_degree.max(deg);
        }
        let edges = cg.edges();
        let mut per_relation = Vec::with_capacity(sig.len());
        for rel in sig.rel_ids() {
            let nfacts = instance.facts_of(rel).len();
            let npairs = edges.iter().filter(|(a, _)| instance.fact(*a).rel() == rel).count();
            per_relation.push((sig.symbol(rel).name().to_owned(), nfacts, npairs));
        }
        ConflictStats {
            facts: instance.len(),
            conflict_pairs: edges.len(),
            conflicted_facts: conflicted,
            max_degree,
            per_relation,
        }
    }

    /// Fraction of facts involved in some conflict (0 for empty
    /// instances).
    pub fn dirty_fraction(&self) -> f64 {
        if self.facts == 0 {
            0.0
        } else {
            self.conflicted_facts as f64 / self.facts as f64
        }
    }

    /// Is the instance consistent?
    pub fn is_consistent(&self) -> bool {
        self.conflict_pairs == 0
    }
}

impl fmt::Display for ConflictStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} facts, {} conflicting pairs, {} facts in conflicts ({:.0}% dirty), max degree {}",
            self.facts,
            self.conflict_pairs,
            self.conflicted_facts,
            self.dirty_fraction() * 100.0,
            self.max_degree
        )?;
        for (name, facts, pairs) in &self.per_relation {
            writeln!(f, "  {name}: {facts} facts, {pairs} conflicting pairs")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Signature, Value};

    fn setup() -> (Schema, Instance) {
        let sig = Signature::new([("R", 2), ("S", 2)]).unwrap();
        let schema =
            Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..]), ("S", &[1][..], &[2][..])])
                .unwrap();
        let mut i = Instance::new(sig);
        let v = Value::sym;
        i.insert_named("R", [v("k"), v("a")]).unwrap();
        i.insert_named("R", [v("k"), v("b")]).unwrap();
        i.insert_named("R", [v("k"), v("c")]).unwrap();
        i.insert_named("R", [v("m"), v("a")]).unwrap();
        i.insert_named("S", [v("x"), v("1")]).unwrap();
        (schema, i)
    }

    #[test]
    fn counts_are_correct() {
        let (schema, i) = setup();
        let stats = ConflictStats::compute(&schema, &i);
        assert_eq!(stats.facts, 5);
        assert_eq!(stats.conflict_pairs, 3); // triangle on the k-group
        assert_eq!(stats.conflicted_facts, 3);
        assert_eq!(stats.max_degree, 2);
        assert!(!stats.is_consistent());
        assert!((stats.dirty_fraction() - 0.6).abs() < 1e-9);
        assert_eq!(stats.per_relation[0], ("R".to_owned(), 4, 3));
        assert_eq!(stats.per_relation[1], ("S".to_owned(), 1, 0));
    }

    #[test]
    fn consistent_and_empty_instances() {
        let (schema, _) = setup();
        let empty = Instance::new(schema.signature().clone());
        let stats = ConflictStats::compute(&schema, &empty);
        assert!(stats.is_consistent());
        assert_eq!(stats.dirty_fraction(), 0.0);
        assert_eq!(stats.max_degree, 0);
    }

    #[test]
    fn display_renders_per_relation_lines() {
        let (schema, i) = setup();
        let text = ConflictStats::compute(&schema, &i).to_string();
        assert!(text.contains("5 facts"));
        assert!(text.contains("R: 4 facts, 3 conflicting pairs"));
        assert!(text.contains("60% dirty"));
    }
}
