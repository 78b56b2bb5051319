//! FD discovery: mining the dependencies that hold in data.
//!
//! The paper assumes `Δ` is given, but in practice constraints are
//! often *recovered* from (a consistent sample of) the data before the
//! repair machinery can run — discover `Δ`, classify it (Theorem
//! 3.1/7.1), then check or construct repairs of later, dirtier
//! snapshots. This module implements levelwise discovery in the style
//! of TANE, with stripped-partition refinement as the satisfaction
//! test:
//!
//! * the candidate lattice is explored by left-hand-side size, pruning
//!   supersets of found determinants (only *minimal* FDs are emitted);
//! * `A → b` holds iff the partition of rows by `A`-projection refines
//!   the partition by `A ∪ {b}` — equivalently, equal group counts.
//!
//! The output is a minimal cover of the exact dependencies satisfied by
//! the instance (worst-case exponential in the arity, like every exact
//! FD miner; the `max_lhs` knob bounds the search).

use crate::fd::Fd;
use rpr_data::{AttrSet, FxHashSet, Instance, RelId, ValueId};

/// Options for [`discover_fds`].
#[derive(Clone, Copy, Debug)]
pub struct DiscoveryOptions {
    /// Maximum left-hand-side size to explore (default 3).
    pub max_lhs: usize,
}

impl Default for DiscoveryOptions {
    fn default() -> Self {
        DiscoveryOptions { max_lhs: 3 }
    }
}

/// The number of distinct `attrs`-projections among the relation's
/// facts (the partition rank).
fn partition_rank(instance: &Instance, rel: RelId, attrs: AttrSet) -> usize {
    let mut groups: FxHashSet<Vec<ValueId>> = FxHashSet::default();
    for &id in instance.facts_of(rel) {
        let f = instance.fact(id);
        groups.insert(attrs.iter().map(|a| f.id(a)).collect());
    }
    groups.len()
}

/// Does `A → b` hold in the instance? Partition test: grouping by `A`
/// and by `A ∪ {b}` yields the same number of classes iff `b` is
/// constant within every `A`-class.
pub fn fd_holds(instance: &Instance, rel: RelId, lhs: AttrSet, b: usize) -> bool {
    if lhs.contains(b) {
        return true;
    }
    partition_rank(instance, rel, lhs) == partition_rank(instance, rel, lhs.insert(b))
}

/// Mines the minimal FDs `A → b` (singleton rhs, `|A| ≤ max_lhs`,
/// `b ∉ A`) holding in one relation of the instance.
pub fn discover_fds_for(instance: &Instance, rel: RelId, options: DiscoveryOptions) -> Vec<Fd> {
    let arity = instance.signature().arity(rel);
    let full = AttrSet::full(arity);
    let mut found: Vec<Fd> = Vec::new();

    // For each rhs attribute, explore lhs candidates by size, pruning
    // supersets of already-found determinants of that attribute.
    for b in 1..=arity {
        let pool: Vec<usize> = full.remove(b).iter().collect();
        let mut determinants: Vec<AttrSet> = Vec::new();
        for size in 0..=options.max_lhs.min(pool.len()) {
            let mut chosen = vec![0usize; size];
            combos(&pool, size, 0, &mut chosen, 0, &mut |combo| {
                let lhs = AttrSet::from_attrs(combo.iter().copied());
                if determinants.iter().any(|d| d.is_subset(lhs)) {
                    return; // a smaller determinant already covers it
                }
                if fd_holds(instance, rel, lhs, b) {
                    determinants.push(lhs);
                }
            });
        }
        for lhs in determinants {
            found.push(Fd::new(rel, lhs, AttrSet::singleton(b)));
        }
    }
    found
}

/// Mines minimal FDs for every relation of the instance.
pub fn discover_fds(instance: &Instance, options: DiscoveryOptions) -> Vec<Fd> {
    instance
        .signature()
        .rel_ids()
        .flat_map(|rel| discover_fds_for(instance, rel, options))
        .collect()
}

fn combos(
    pool: &[usize],
    size: usize,
    start: usize,
    chosen: &mut Vec<usize>,
    depth: usize,
    f: &mut impl FnMut(&[usize]),
) {
    if depth == size {
        f(&chosen[..size]);
        return;
    }
    for i in start..pool.len() {
        chosen[depth] = pool[i];
        combos(pool, size, i + 1, chosen, depth + 1, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::implies;
    use crate::schema::Schema;
    use rpr_data::{Signature, Value};

    fn rows(rows: &[(&str, &str, &str)]) -> Instance {
        let sig = Signature::new([("R", 3)]).unwrap();
        let mut i = Instance::new(sig);
        for &(a, b, c) in rows {
            i.insert_named("R", [Value::sym(a), Value::sym(b), Value::sym(c)]).unwrap();
        }
        i
    }

    #[test]
    fn discovers_a_planted_key() {
        // Column 1 is a key; column 2 determines column 3.
        let i = rows(&[("k1", "x", "p"), ("k2", "x", "p"), ("k3", "y", "q"), ("k4", "y", "q")]);
        let fds = discover_fds(&i, DiscoveryOptions::default());
        let rel = RelId(0);
        assert!(implies(&fds, Fd::from_attrs(rel, [1], [2])));
        assert!(implies(&fds, Fd::from_attrs(rel, [1], [3])));
        assert!(implies(&fds, Fd::from_attrs(rel, [2], [3])));
        assert!(implies(&fds, Fd::from_attrs(rel, [3], [2])));
        // …but not the false dependency 2 → 1.
        assert!(!implies(&fds, Fd::from_attrs(rel, [2], [1])));
    }

    #[test]
    fn mined_fds_are_minimal_and_hold() {
        let i = rows(&[
            ("a", "x", "1"),
            ("a", "x", "1"),
            ("b", "x", "2"),
            ("c", "y", "2"),
            ("d", "y", "1"),
        ]);
        let fds = discover_fds(&i, DiscoveryOptions::default());
        let rel = RelId(0);
        for fd in &fds {
            let b = fd.rhs.iter().next().unwrap();
            assert!(fd_holds(&i, rel, fd.lhs, b), "{fd:?} must hold");
            for a in fd.lhs.iter() {
                assert!(!fd_holds(&i, rel, fd.lhs.remove(a), b), "{fd:?} must be left-minimal");
            }
        }
    }

    #[test]
    fn exhaustive_agreement_with_definition() {
        // Every candidate (lhs, b) with |lhs| ≤ 3 holds iff implied by
        // the mined cover.
        let i = rows(&[("a", "x", "1"), ("b", "x", "2"), ("c", "y", "1"), ("a", "x", "1")]);
        let rel = RelId(0);
        let fds = discover_fds(&i, DiscoveryOptions::default());
        for lhs in AttrSet::full(3).subsets() {
            for b in 1..=3usize {
                if lhs.contains(b) {
                    continue;
                }
                let holds = fd_holds(&i, rel, lhs, b);
                let implied = implies(&fds, Fd::new(rel, lhs, AttrSet::singleton(b)));
                assert_eq!(holds, implied, "lhs={lhs}, b={b}");
            }
        }
    }

    #[test]
    fn constant_columns_yield_empty_lhs_fds() {
        let i = rows(&[("a", "x", "same"), ("b", "y", "same")]);
        let fds = discover_fds(&i, DiscoveryOptions::default());
        assert!(fds.iter().any(|fd| fd.lhs.is_empty() && fd.rhs == AttrSet::singleton(3)));
    }

    #[test]
    fn max_lhs_bounds_the_search() {
        let i = rows(&[("a", "x", "1"), ("a", "y", "2"), ("b", "x", "3"), ("b", "y", "4")]);
        // 3 is determined only by {1,2}; with max_lhs = 1 it is missed.
        let narrow = discover_fds(&i, DiscoveryOptions { max_lhs: 1 });
        let rel = RelId(0);
        assert!(!implies(&narrow, Fd::from_attrs(rel, [1, 2], [3])));
        let wide = discover_fds(&i, DiscoveryOptions { max_lhs: 2 });
        assert!(implies(&wide, Fd::from_attrs(rel, [1, 2], [3])));
    }

    #[test]
    fn discovery_feeds_downstream_fd_theory() {
        // End-to-end within this crate: mine Δ from clean data, build a
        // schema, and interrogate it. (The mine → classify pipeline
        // test lives in the CLI crate, which can depend on
        // rpr-classify.)
        let i = rows(&[("k1", "g1", "v1"), ("k2", "g1", "v1"), ("k3", "g2", "v2")]);
        let fds = discover_fds(&i, DiscoveryOptions::default());
        let schema = Schema::new(i.signature().clone(), fds).unwrap();
        let rel = RelId(0);
        // Column 1 is a key of the mined dependencies…
        assert!(crate::closure::is_superkey(AttrSet::singleton(1), schema.fds_for(rel), 3));
        // …but the 2↔3 correlation means Δ is NOT key-equivalent (so a
        // schema mined from this data would be coNP-hard to repair-check).
        assert!(crate::keys::as_key_set(schema.fds_for(rel), 3).is_none());
        // The mined instance satisfies its own mined schema.
        assert!(schema.is_consistent(&i));
    }

    #[test]
    fn empty_and_singleton_instances() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let empty = Instance::new(sig.clone());
        // Everything vacuously holds; ∅ → b is minimal for each b.
        let fds = discover_fds(&empty, DiscoveryOptions::default());
        assert_eq!(fds.len(), 2);
        assert!(fds.iter().all(|fd| fd.lhs.is_empty()));
        let mut single = Instance::new(sig);
        single.insert_named("R", [Value::sym("a"), Value::sym("b")]).unwrap();
        let fds = discover_fds(&single, DiscoveryOptions::default());
        assert!(fds.iter().all(|fd| fd.lhs.is_empty()));
    }
}
