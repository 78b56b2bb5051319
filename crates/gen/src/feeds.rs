//! Multi-source feed simulation with ground truth.
//!
//! The paper's motivating scenario (§1): several sources report facts
//! about the same entities; sources differ in reliability, and newer
//! reports supersede older ones. This generator synthesizes such a
//! feed *together with the ground truth*, so experiments can measure
//! how much of the truth a cleaning strategy recovers — the
//! quantitative version of "preferences pick the right repair".
//!
//! Schema: `Record(entity, value, source, ts)` with the key
//! `entity → value source ts`. Each source reports each entity with
//! some probability; a report carries the true value unless the source
//! errs (per-source error rate), and error values are drawn from a
//! noise pool. Timestamps are per-report; the latest correct report
//! semantics make "prefer trusted sources, then newer" a sensible
//! policy.

use rand::Rng;
use rpr_data::{FactId, Instance, Signature, Value};
use rpr_fd::Schema;

/// One simulated source.
#[derive(Clone, Debug)]
pub struct SourceSpec {
    /// Source name (becomes the third column).
    pub name: String,
    /// Probability that the source reports a given entity.
    pub coverage: f64,
    /// Probability that a report carries a wrong value.
    pub error_rate: f64,
}

/// Parameters for [`simulate_feed`].
#[derive(Clone, Debug)]
pub struct FeedSpec {
    /// Number of entities.
    pub entities: usize,
    /// The sources, in an arbitrary order (reliability is implied by
    /// their error rates, not their position).
    pub sources: Vec<SourceSpec>,
}

/// The simulated feed.
pub struct Feed {
    /// The schema `Record(entity, value, source, ts)` with key 1.
    pub schema: Schema,
    /// The dirty instance.
    pub instance: Instance,
    /// Ground truth: `truth[e]` is the true value of entity `e`.
    pub truth: Vec<Value>,
}

impl Feed {
    /// The fraction of entities whose surviving record in `repair`
    /// carries the true value (entities with no surviving record count
    /// as misses).
    pub fn accuracy(&self, repair: &rpr_data::FactSet) -> f64 {
        let mut hit = 0usize;
        for id in repair.iter() {
            let fact = self.instance.fact(id);
            let e = fact.get(1).as_int().expect("entity ids are ints") as usize;
            if fact.get(2) == &self.truth[e] {
                hit += 1;
            }
        }
        hit as f64 / self.truth.len() as f64
    }
}

/// Simulates a feed.
///
/// # Panics
/// Panics if `spec.sources` is empty or `spec.entities` is zero.
pub fn simulate_feed<R: Rng>(spec: &FeedSpec, rng: &mut R) -> Feed {
    assert!(!spec.sources.is_empty(), "need at least one source");
    assert!(spec.entities > 0, "need at least one entity");
    let sig = Signature::new([("Record", 4)]).unwrap();
    let schema = Schema::from_named(sig.clone(), [("Record", &[1][..], &[2, 3, 4][..])]).unwrap();
    let mut instance = Instance::new(sig);
    let mut truth = Vec::with_capacity(spec.entities);
    let mut ts = 0i64;
    for e in 0..spec.entities {
        let true_value = Value::Int(1000 + e as i64);
        truth.push(true_value.clone());
        for src in &spec.sources {
            if !rng.random_bool(src.coverage) {
                continue;
            }
            ts += 1;
            let value = if rng.random_bool(src.error_rate) {
                Value::Int(9_000_000 + rng.random_range(0..1000i64))
            } else {
                true_value.clone()
            };
            instance
                .insert_named(
                    "Record",
                    [Value::Int(e as i64), value, Value::sym(&src.name), Value::Int(ts)],
                )
                .expect("record fits schema");
        }
    }
    Feed { schema, instance, truth }
}

/// Convenience: priority edges implementing "rank sources by the given
/// order, break ties by recency", restricted to conflicts. (The richer
/// policy DSL lives in `rpr-policy`; this helper keeps `rpr-gen`
/// dependency-light for the benches.)
pub fn trust_then_recency_priority(
    feed: &Feed,
    source_order: &[&str],
) -> rpr_priority::PriorityRelation {
    let rank = |f: rpr_data::FactRef<'_>| -> (i64, i64) {
        let src = f.get(3).as_sym().unwrap_or("");
        let r = source_order
            .iter()
            .position(|s| *s == src)
            .map(|p| source_order.len() as i64 - p as i64)
            .unwrap_or(0);
        let ts = f.get(4).as_int().unwrap_or(0);
        (r, ts)
    };
    let cg = rpr_fd::CsrConflictGraph::new(&feed.schema, &feed.instance);
    let mut edges: Vec<(FactId, FactId)> = Vec::new();
    for (a, b) in cg.edges() {
        let (ra, rb) = (rank(feed.instance.fact(a)), rank(feed.instance.fact(b)));
        match ra.cmp(&rb) {
            std::cmp::Ordering::Greater => edges.push((a, b)),
            std::cmp::Ordering::Less => edges.push((b, a)),
            std::cmp::Ordering::Equal => {}
        }
    }
    rpr_priority::PriorityRelation::new(feed.instance.len(), edges)
        .expect("rank-oriented edges are acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> FeedSpec {
        FeedSpec {
            entities: 40,
            sources: vec![
                SourceSpec { name: "gold".into(), coverage: 0.9, error_rate: 0.02 },
                SourceSpec { name: "bulk".into(), coverage: 0.8, error_rate: 0.30 },
                SourceSpec { name: "scrape".into(), coverage: 0.7, error_rate: 0.60 },
            ],
        }
    }

    #[test]
    fn feed_shape_and_conflicts() {
        let mut rng = StdRng::seed_from_u64(70);
        let feed = simulate_feed(&spec(), &mut rng);
        assert_eq!(feed.truth.len(), 40);
        assert!(feed.instance.len() > 40, "multiple reports per entity expected");
        // Entities reported by ≥2 sources conflict (same key, different
        // source/ts at least).
        let cg = rpr_fd::CsrConflictGraph::new(&feed.schema, &feed.instance);
        assert!(!cg.edges().is_empty());
    }

    #[test]
    fn trusted_policy_beats_random_repairs_on_accuracy() {
        let mut rng = StdRng::seed_from_u64(71);
        let feed = simulate_feed(&spec(), &mut rng);
        let cg = rpr_fd::CsrConflictGraph::new(&feed.schema, &feed.instance);
        let priority = trust_then_recency_priority(&feed, &["gold", "bulk", "scrape"]);
        // Clean with the policy priority.
        let order = priority.topological_order();
        let mut cleaned = feed.instance.empty_set();
        for f in order {
            if !cg.conflicts_with_set(f, &cleaned) {
                cleaned.insert(f);
            }
        }
        let policy_acc = feed.accuracy(&cleaned);
        // Average accuracy of random repairs.
        let mut rand_acc = 0.0;
        let trials = 20;
        for _ in 0..trials {
            let r = crate::synthetic::random_repair(&cg, &mut rng);
            rand_acc += feed.accuracy(&r);
        }
        rand_acc /= trials as f64;
        assert!(
            policy_acc > rand_acc + 0.05,
            "policy accuracy {policy_acc:.2} should clearly beat random {rand_acc:.2}"
        );
        assert!(policy_acc > 0.8, "gold-first cleaning should be mostly right");
    }

    #[test]
    fn accuracy_of_ground_truth_selection_is_high() {
        // Selecting exactly the true-valued facts (one per entity where
        // available) scores the coverage-weighted maximum.
        let mut rng = StdRng::seed_from_u64(72);
        let feed = simulate_feed(&spec(), &mut rng);
        let mut best = feed.instance.empty_set();
        let mut seen = vec![false; feed.truth.len()];
        for (id, fact) in feed.instance.iter() {
            let e = fact.get(1).as_int().unwrap() as usize;
            if !seen[e] && fact.get(2) == &feed.truth[e] {
                best.insert(id);
                seen[e] = true;
            }
        }
        let acc = feed.accuracy(&best);
        assert!(acc > 0.85);
        // And it bounds the policy accuracy from above structurally:
        // accuracy never exceeds 1.
        assert!(acc <= 1.0);
    }

    #[test]
    fn determinism_per_seed() {
        let a = simulate_feed(&spec(), &mut StdRng::seed_from_u64(99));
        let b = simulate_feed(&spec(), &mut StdRng::seed_from_u64(99));
        assert_eq!(a.instance.len(), b.instance.len());
    }
}
