//! # rpr-policy — declarative cleaning policies
//!
//! The paper motivates priorities operationally: "one source is
//! regarded to be more reliable than another", "a more recent fact
//! should be preferred over an earlier fact" (§1), and its follow-up
//! work (Fagin et al., PODS'14) turns such rules into a cleaning
//! language for information-extraction systems. This crate is that
//! idea in library form: a [`Policy`] is an ordered list of [`Rule`]s,
//! each scoring facts; rules compose **lexicographically** (the first
//! rule that strictly separates two facts decides), and the policy
//! compiles to an acyclic [`PriorityRelation`] in either priority mode.
//!
//! ```
//! use rpr_data::{Instance, Signature, Value};
//! use rpr_fd::Schema;
//! use rpr_policy::{Policy, PriorityScope};
//!
//! let sig = Signature::new([("Emp", 3)]).unwrap();
//! let schema = Schema::from_named(sig.clone(), [("Emp", &[1][..], &[2, 3][..])]).unwrap();
//! let mut inst = Instance::new(sig);
//! // Emp(name, dept, source)
//! inst.insert_named("Emp", ["alice".into(), "eng".into(), "hr_feed".into()]).unwrap();
//! inst.insert_named("Emp", ["alice".into(), "sales".into(), "scrape".into()]).unwrap();
//!
//! let policy = Policy::new()
//!     .prefer_source_ranking(3, &["hr_feed", "scrape"]) // attribute 3 names the source
//!     .break_ties_lexicographically();
//! let priority = policy
//!     .compile(&schema, &inst, PriorityScope::ConflictsOnly)
//!     .unwrap();
//! assert_eq!(priority.edge_count(), 1); // hr_feed beats scrape on the conflict
//! ```

#![warn(missing_docs)]

use rpr_data::{Fact, FactId, Instance, Value};
use rpr_fd::{CsrConflictGraph, Schema};
use rpr_priority::{PriorityError, PriorityRelation};
use std::cmp::Ordering;
use std::sync::Arc;

/// Whether the compiled priority orders only conflicting pairs (§2.3)
/// or every separated pair (§7 ccp mode).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PriorityScope {
    /// Classical: edges only between conflicting facts.
    ConflictsOnly,
    /// Cross-conflict: edges between all separated pairs.
    AllPairs,
}

/// One scoring rule. Rules never fail; facts they don't speak about
/// get `None` and are tied at this level.
#[derive(Clone)]
pub enum Rule {
    /// Prefer higher values of an integer attribute (e.g. a timestamp
    /// column). Facts of other relations or with non-integer values
    /// are tied.
    NewerWins {
        /// The relation attribute (1-based) holding the timestamp; the
        /// rule applies to every relation whose arity covers it.
        attr: usize,
    },
    /// Prefer facts whose symbolic attribute value ranks earlier in
    /// the given list (source reliability). Unlisted values are tied
    /// below all listed ones.
    SourceRanking {
        /// The attribute (1-based) naming the source.
        attr: usize,
        /// Sources from most to least trusted.
        ranking: Vec<String>,
    },
    /// Prefer facts of one relation over another wholesale (only
    /// meaningful with [`PriorityScope::AllPairs`], where it can order
    /// non-conflicting facts).
    RelationRanking {
        /// Relation names from most to least preferred.
        ranking: Vec<String>,
    },
    /// Arbitrary user score.
    Custom {
        /// The scoring function (higher wins).
        score: Arc<dyn Fn(&Fact) -> i64 + Send + Sync>,
    },
    /// Deterministic total tie-break on the rendered fact (useful to
    /// force unambiguous cleanings).
    Lexicographic,
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rule::NewerWins { attr } => write!(f, "NewerWins(attr {attr})"),
            Rule::SourceRanking { attr, ranking } => {
                write!(f, "SourceRanking(attr {attr}, {ranking:?})")
            }
            Rule::RelationRanking { ranking } => write!(f, "RelationRanking({ranking:?})"),
            Rule::Custom { .. } => write!(f, "Custom(fn)"),
            Rule::Lexicographic => write!(f, "Lexicographic"),
        }
    }
}

impl Rule {
    /// Compares two facts under this rule: `Greater` means the first
    /// fact is preferred.
    fn compare(&self, schema: &Schema, a: &Fact, b: &Fact) -> Ordering {
        match self {
            Rule::NewerWins { attr } => {
                let get = |f: &Fact| -> Option<i64> {
                    let arity = schema.signature().arity(f.rel());
                    if *attr == 0 || *attr > arity {
                        return None;
                    }
                    f.get(*attr).as_int()
                };
                match (get(a), get(b)) {
                    (Some(x), Some(y)) => x.cmp(&y),
                    _ => Ordering::Equal,
                }
            }
            Rule::SourceRanking { attr, ranking } => {
                let rank = |f: &Fact| -> i64 {
                    let arity = schema.signature().arity(f.rel());
                    if *attr == 0 || *attr > arity {
                        return -1;
                    }
                    match f.get(*attr) {
                        Value::Sym(s) => ranking
                            .iter()
                            .position(|r| r == s.as_ref())
                            .map(|p| ranking.len() as i64 - p as i64)
                            .unwrap_or(0),
                        _ => 0,
                    }
                };
                rank(a).cmp(&rank(b))
            }
            Rule::RelationRanking { ranking } => {
                let rank = |f: &Fact| -> i64 {
                    let name = schema.signature().symbol(f.rel()).name();
                    ranking
                        .iter()
                        .position(|r| r == name)
                        .map(|p| ranking.len() as i64 - p as i64)
                        .unwrap_or(0)
                };
                rank(a).cmp(&rank(b))
            }
            Rule::Custom { score } => score(a).cmp(&score(b)),
            Rule::Lexicographic => {
                let key = |f: &Fact| f.display(schema.signature()).to_string();
                // Earlier lexicographically = preferred, to make the
                // rule a deterministic but arbitrary total tiebreak.
                key(b).cmp(&key(a))
            }
        }
    }
}

/// An ordered list of rules, composed lexicographically.
#[derive(Clone, Debug, Default)]
pub struct Policy {
    rules: Vec<Rule>,
}

impl Policy {
    /// The empty policy (compiles to the empty priority).
    pub fn new() -> Self {
        Policy { rules: Vec::new() }
    }

    /// Appends a rule.
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Appends [`Rule::NewerWins`] on the given attribute.
    pub fn prefer_newer(self, attr: usize) -> Self {
        self.rule(Rule::NewerWins { attr })
    }

    /// Appends [`Rule::SourceRanking`].
    pub fn prefer_source_ranking(self, attr: usize, ranking: &[&str]) -> Self {
        self.rule(Rule::SourceRanking {
            attr,
            ranking: ranking.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Appends [`Rule::RelationRanking`].
    pub fn prefer_relations(self, ranking: &[&str]) -> Self {
        self.rule(Rule::RelationRanking {
            ranking: ranking.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Appends a custom scoring rule.
    pub fn prefer_by<F>(self, score: F) -> Self
    where
        F: Fn(&Fact) -> i64 + Send + Sync + 'static,
    {
        self.rule(Rule::Custom { score: Arc::new(score) })
    }

    /// Appends the deterministic total tie-break.
    pub fn break_ties_lexicographically(self) -> Self {
        self.rule(Rule::Lexicographic)
    }

    /// The rules, in application order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Lexicographic comparison of two facts under the policy.
    pub fn compare(&self, schema: &Schema, a: &Fact, b: &Fact) -> Ordering {
        for rule in &self.rules {
            match rule.compare(schema, a, b) {
                Ordering::Equal => continue,
                decided => return decided,
            }
        }
        Ordering::Equal
    }

    /// Compiles the policy into a priority over the instance.
    ///
    /// Every rule is score-based, so the lexicographic composition is a
    /// total preorder and the orientation of its strict part is acyclic
    /// by construction; the `Result` only exists to propagate
    /// [`PriorityRelation::new`]'s validation (which cannot fire here,
    /// but callers should not have to trust that reasoning).
    ///
    /// # Errors
    /// Propagates [`PriorityError`] from relation construction.
    pub fn compile(
        &self,
        schema: &Schema,
        instance: &Instance,
        scope: PriorityScope,
    ) -> Result<PriorityRelation, PriorityError> {
        let mut edges: Vec<(FactId, FactId)> = Vec::new();
        // Rules score owned facts.
        let facts: Vec<Fact> = instance.iter().map(|(_, f)| f.to_fact()).collect();
        match scope {
            PriorityScope::ConflictsOnly => {
                let cg = CsrConflictGraph::new(schema, instance);
                for (a, b) in cg.edges() {
                    match self.compare(schema, &facts[a.index()], &facts[b.index()]) {
                        Ordering::Greater => edges.push((a, b)),
                        Ordering::Less => edges.push((b, a)),
                        Ordering::Equal => {}
                    }
                }
            }
            PriorityScope::AllPairs => {
                for (a, fa) in instance.fact_ids().zip(&facts) {
                    for (b, fb) in instance.fact_ids().zip(&facts) {
                        if a < b {
                            match self.compare(schema, fa, fb) {
                                Ordering::Greater => edges.push((a, b)),
                                Ordering::Less => edges.push((b, a)),
                                Ordering::Equal => {}
                            }
                        }
                    }
                }
            }
        }
        PriorityRelation::new(instance.len(), edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_core::{construct_globally_optimal_repair, is_globally_optimal_brute_bounded, Budget};
    use rpr_data::Signature;

    fn schema_and_instance() -> (Schema, Instance) {
        let sig = Signature::new([("R", 3)]).unwrap();
        // R(key, value, timestamp), key → everything.
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2, 3][..])]).unwrap();
        let mut i = Instance::new(sig);
        let v = Value::sym;
        i.insert_named("R", [v("k1"), v("old"), Value::Int(1)]).unwrap(); // 0
        i.insert_named("R", [v("k1"), v("new"), Value::Int(9)]).unwrap(); // 1
        i.insert_named("R", [v("k2"), v("x"), Value::Int(5)]).unwrap(); // 2
        i.insert_named("R", [v("k2"), v("y"), Value::Int(5)]).unwrap(); // 3 (tie!)
        (schema, i)
    }

    #[test]
    fn newer_wins_orders_conflicts_only() {
        let (schema, i) = schema_and_instance();
        let p = Policy::new()
            .prefer_newer(3)
            .compile(&schema, &i, PriorityScope::ConflictsOnly)
            .unwrap();
        assert!(p.prefers(FactId(1), FactId(0)));
        // The k2 pair is tied on timestamp: unordered.
        assert!(!p.prefers(FactId(2), FactId(3)));
        assert!(!p.prefers(FactId(3), FactId(2)));
        // Non-conflicting pairs stay unordered in this scope.
        assert!(!p.prefers(FactId(1), FactId(2)));
    }

    #[test]
    fn lexicographic_composition_breaks_ties() {
        let (schema, i) = schema_and_instance();
        let p = Policy::new()
            .prefer_newer(3)
            .break_ties_lexicographically()
            .compile(&schema, &i, PriorityScope::ConflictsOnly)
            .unwrap();
        // Now every conflicting pair is ordered.
        assert!(p.prefers(FactId(1), FactId(0)));
        assert!(p.prefers(FactId(2), FactId(3)) ^ p.prefers(FactId(3), FactId(2)));
        // Total policies yield unambiguous cleanings.
        let cg = CsrConflictGraph::new(&schema, &i);
        let j = construct_globally_optimal_repair(&cg, &p);
        assert!(is_globally_optimal_brute_bounded(
            &cg,
            &p,
            &j,
            &Budget::unlimited().with_max_work(1 << 20)
        )
        .expect_done("global oracle"));
        let all = rpr_core::globally_optimal_repairs_bounded(
            &cg,
            &p,
            &Budget::unlimited().with_max_work(1 << 20),
        )
        .expect_done("optimal repairs");
        assert_eq!(all.len(), 1, "total policy ⇒ exactly one optimal repair");
    }

    #[test]
    fn rule_order_matters() {
        let (schema, i) = schema_and_instance();
        // value="old" gets a custom boost; order decides the winner.
        let boost_old = |f: &Fact| i64::from(f.get(2).as_sym() == Some("old"));
        let newest_first = Policy::new()
            .prefer_newer(3)
            .prefer_by(boost_old)
            .compile(&schema, &i, PriorityScope::ConflictsOnly)
            .unwrap();
        assert!(newest_first.prefers(FactId(1), FactId(0)));
        let old_first = Policy::new()
            .prefer_by(boost_old)
            .prefer_newer(3)
            .compile(&schema, &i, PriorityScope::ConflictsOnly)
            .unwrap();
        assert!(old_first.prefers(FactId(0), FactId(1)));
    }

    #[test]
    fn relation_ranking_needs_all_pairs_scope() {
        let sig = Signature::new([("Gold", 2), ("Scratch", 2)]).unwrap();
        let schema = Schema::from_named(
            sig.clone(),
            [("Gold", &[1][..], &[2][..]), ("Scratch", &[1][..], &[2][..])],
        )
        .unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("Gold", [Value::sym("a"), Value::sym("x")]).unwrap();
        i.insert_named("Scratch", [Value::sym("a"), Value::sym("y")]).unwrap();
        let policy = Policy::new().prefer_relations(&["Gold", "Scratch"]);
        // Conflicts-only: the two facts are in different relations, so
        // they never conflict and nothing is ordered.
        let p = policy.compile(&schema, &i, PriorityScope::ConflictsOnly).unwrap();
        assert_eq!(p.edge_count(), 0);
        // All-pairs (ccp): the gold fact dominates.
        let p = policy.compile(&schema, &i, PriorityScope::AllPairs).unwrap();
        assert!(p.prefers(FactId(0), FactId(1)));
    }

    #[test]
    fn source_ranking_unlisted_sources_lose() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [Value::sym("k"), Value::sym("trusted")]).unwrap();
        i.insert_named("R", [Value::sym("k"), Value::sym("unknown")]).unwrap();
        let p = Policy::new()
            .prefer_source_ranking(2, &["trusted"])
            .compile(&schema, &i, PriorityScope::ConflictsOnly)
            .unwrap();
        assert!(p.prefers(FactId(0), FactId(1)));
    }

    #[test]
    fn empty_policy_compiles_to_empty_priority() {
        let (schema, i) = schema_and_instance();
        let p = Policy::new().compile(&schema, &i, PriorityScope::AllPairs).unwrap();
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn compiled_priorities_are_acyclic_even_for_adversarial_customs() {
        // A custom rule with a stable score can't create cycles; check
        // a score designed to collide heavily.
        let (schema, i) = schema_and_instance();
        let p = Policy::new()
            .prefer_by(|f| f.get(1).as_sym().map(|s| s.len() as i64).unwrap_or(0))
            .break_ties_lexicographically()
            .compile(&schema, &i, PriorityScope::AllPairs)
            .unwrap();
        assert_eq!(p.topological_order().len(), i.len());
    }
}
