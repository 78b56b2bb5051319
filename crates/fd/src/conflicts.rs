//! Conflict detection and the conflict graph.
//!
//! For FD constraints, inconsistency is a *pairwise* phenomenon: an
//! instance violates `Δ` iff it contains two conflicting facts (§2.2).
//! Every repair notion in the paper is therefore governed by the
//! *conflict graph* of the base instance `I`: facts are vertices, and
//! edges join δ-conflicting pairs. Repairs of `I` are exactly the
//! maximal independent sets of this graph.
//!
//! Two representations share the [`ConflictRows`] read interface. The
//! packed [`CsrConflictGraph`] is the one sessions build, keep, patch
//! and check against. The bitset [`ConflictGraph`] here is the
//! oracle's graph — brute-force enumeration, one-shot checker calls and
//! tests — storing one [`FactSet`] row per conflicted fact so set
//! queries are word-parallel intersections.
//!
//! [`CsrConflictGraph`]: crate::CsrConflictGraph

use crate::fd::Fd;
use crate::schema::Schema;
use rpr_data::{FactId, FactSet, FxHashMap, Instance, Tuple};

/// Read access to conflict adjacency rows, shared by the bitset
/// [`ConflictGraph`] and the packed [`CsrConflictGraph`] so a checker
/// or oracle can run one body over either. Every row query answers in
/// ascending id order.
///
/// [`CsrConflictGraph`]: crate::CsrConflictGraph
pub trait ConflictRows {
    /// Number of facts (vertices).
    fn len(&self) -> usize;

    /// Is the graph over an empty instance?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The facts conflicting with `id`, in ascending id order.
    fn neighbors(&self, id: FactId) -> impl Iterator<Item = FactId> + '_;

    /// The members of `set` conflicting with `id`, in ascending id
    /// order, without allocating: the same facts, in the same order, as
    /// iterating [`ConflictGraph::conflicts_in`].
    fn conflicts_among<'a>(
        &'a self,
        id: FactId,
        set: &'a FactSet,
    ) -> impl Iterator<Item = FactId> + 'a;

    /// Does `id` conflict with some member of `set`?
    fn conflicts_with_set(&self, id: FactId, set: &FactSet) -> bool {
        self.conflicts_among(id, set).next().is_some()
    }

    /// Is the subinstance consistent (an independent set)?
    fn is_consistent_set(&self, set: &FactSet) -> bool {
        set.iter().all(|id| !self.conflicts_with_set(id, set))
    }

    /// Is the subinstance a repair — consistent, and every outside
    /// fact conflicting with it?
    fn is_repair(&self, set: &FactSet) -> bool {
        self.is_consistent_set(set)
            && set.complement().iter().all(|id| self.conflicts_with_set(id, set))
    }
}

impl ConflictRows for ConflictGraph {
    fn len(&self) -> usize {
        self.n
    }

    fn neighbors(&self, id: FactId) -> impl Iterator<Item = FactId> + '_ {
        self.conflicts_of(id).iter()
    }

    fn conflicts_among<'a>(
        &'a self,
        id: FactId,
        set: &'a FactSet,
    ) -> impl Iterator<Item = FactId> + 'a {
        self.adjacency[id.index()].iter().flat_map(move |row| row.iter_intersect(set))
    }

    fn conflicts_with_set(&self, id: FactId, set: &FactSet) -> bool {
        ConflictGraph::conflicts_with_set(self, id, set)
    }
}

/// The bitset conflict graph of an instance under a schema: the
/// oracle's graph (brute force, one-shot checkers, tests). Sessions
/// hold the packed [`CsrConflictGraph`](crate::CsrConflictGraph)
/// instead.
///
/// Adjacency rows are allocated lazily: facts without conflicts share
/// one empty row, so memory is `O(n + c·n/64)` for `c` facts with
/// conflicts rather than `O(n²/64)` — the difference between 50 MB and
/// nothing for a sparse 50k-fact instance.
pub struct ConflictGraph {
    adjacency: Vec<Option<FactSet>>,
    empty_row: FactSet,
    n: usize,
}

impl ConflictGraph {
    /// Builds the conflict graph of `instance` under `schema`.
    ///
    /// Cost: grouping is hash-based per FD; emitting edges is
    /// output-sensitive (quadratic only when the conflicts themselves
    /// are quadratic).
    pub fn new(schema: &Schema, instance: &Instance) -> Self {
        let n = instance.len();
        let mut adjacency: Vec<Option<FactSet>> = vec![None; n];
        for rel in schema.signature().rel_ids() {
            let facts = instance.facts_of(rel);
            for &fd in schema.fds_for(rel) {
                Self::add_fd_conflicts(instance, fd, facts, &mut adjacency);
            }
        }
        ConflictGraph { adjacency, empty_row: FactSet::empty(n), n }
    }

    fn row_mut(adjacency: &mut [Option<FactSet>], id: FactId, n: usize) -> &mut FactSet {
        adjacency[id.index()].get_or_insert_with(|| FactSet::empty(n))
    }

    fn add_fd_conflicts(
        instance: &Instance,
        fd: Fd,
        facts: &[FactId],
        adjacency: &mut [Option<FactSet>],
    ) {
        if fd.is_trivial() {
            return;
        }
        // Group facts by their lhs projection; within a group, facts in
        // different rhs-projection subgroups conflict pairwise.
        let mut groups: FxHashMap<Tuple, FxHashMap<Tuple, Vec<FactId>>> = FxHashMap::default();
        for &id in facts {
            let f = instance.fact(id);
            groups
                .entry(f.project(fd.lhs))
                .or_default()
                .entry(f.project(fd.rhs))
                .or_default()
                .push(id);
        }
        for (_, subgroups) in groups {
            if subgroups.len() < 2 {
                continue;
            }
            let blocks: Vec<&Vec<FactId>> = subgroups.values().collect();
            let n = adjacency.len();
            for (bi, block_a) in blocks.iter().enumerate() {
                for block_b in blocks.iter().skip(bi + 1) {
                    for &a in block_a.iter() {
                        for &b in block_b.iter() {
                            Self::row_mut(adjacency, a, n).insert(b);
                            Self::row_mut(adjacency, b, n).insert(a);
                        }
                    }
                }
            }
        }
    }

    /// Number of facts (vertices).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the graph over an empty instance?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Heap bytes of the materialized bitset rows and the row table.
    pub fn heap_bytes(&self) -> usize {
        let row = 8 * self.n.div_ceil(64);
        self.adjacency.capacity() * std::mem::size_of::<Option<FactSet>>()
            + self.adjacency.iter().flatten().count() * row
    }

    /// The facts conflicting with `id`.
    pub fn conflicts_of(&self, id: FactId) -> &FactSet {
        self.adjacency[id.index()].as_ref().unwrap_or(&self.empty_row)
    }

    /// Do `a` and `b` conflict?
    pub fn conflicting(&self, a: FactId, b: FactId) -> bool {
        self.conflicts_of(a).contains(b)
    }

    /// Does `id` conflict with some member of `set`?
    pub fn conflicts_with_set(&self, id: FactId, set: &FactSet) -> bool {
        match &self.adjacency[id.index()] {
            Some(row) => !row.is_disjoint(set),
            None => false,
        }
    }

    /// The members of `set` that conflict with `id`.
    pub fn conflicts_in(&self, id: FactId, set: &FactSet) -> FactSet {
        match &self.adjacency[id.index()] {
            Some(row) => row.intersect(set),
            None => FactSet::empty(self.n),
        }
    }

    /// Is the subinstance consistent (an independent set)?
    pub fn is_consistent_set(&self, set: &FactSet) -> bool {
        set.iter().all(|id| !self.conflicts_with_set(id, set))
    }

    /// Is the subinstance a repair of the base instance — a *maximal*
    /// consistent subinstance (§2.4, following Arenas et al.)?
    pub fn is_repair(&self, set: &FactSet) -> bool {
        if !self.is_consistent_set(set) {
            return false;
        }
        // Maximality: every outside fact conflicts with the set.
        let outside = set.complement();
        outside.iter().all(|id| self.conflicts_with_set(id, set))
    }

    /// Greedily extends a consistent set to a repair, preferring facts
    /// in ascending id order.
    pub fn extend_to_repair(&self, set: &FactSet) -> FactSet {
        debug_assert!(self.is_consistent_set(set));
        let mut out = set.clone();
        for i in 0..self.n {
            let id = FactId(i as u32);
            if !out.contains(id) && !self.conflicts_with_set(id, &out) {
                out.insert(id);
            }
        }
        out
    }

    /// All conflict edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> Vec<(FactId, FactId)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            let a = FactId(i as u32);
            for b in self.conflicts_of(a).iter() {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Finds one conflicting pair of an instance under a schema without
    /// materializing the whole graph (used by `Schema::is_consistent`).
    pub fn first_conflict(schema: &Schema, instance: &Instance) -> Option<(FactId, FactId)> {
        for rel in schema.signature().rel_ids() {
            let facts = instance.facts_of(rel);
            for &fd in schema.fds_for(rel) {
                if fd.is_trivial() {
                    continue;
                }
                let mut seen: FxHashMap<Tuple, (FactId, Tuple)> = FxHashMap::default();
                for &id in facts {
                    let f = instance.fact(id);
                    let lhs = f.project(fd.lhs);
                    let rhs = f.project(fd.rhs);
                    match seen.get(&lhs) {
                        Some((other, other_rhs)) if *other_rhs != rhs => {
                            return Some((*other, id));
                        }
                        Some(_) => {}
                        None => {
                            seen.insert(lhs, (id, rhs));
                        }
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Signature, Value};

    fn v(s: &str) -> Value {
        Value::sym(s)
    }

    /// LibLoc fragment of the running example (Figure 1) under
    /// Δ = {1→2, 2→1}.
    fn libloc() -> (Schema, Instance) {
        let sig = Signature::new([("LibLoc", 2)]).unwrap();
        let schema = Schema::from_named(
            sig.clone(),
            [("LibLoc", &[1][..], &[2][..]), ("LibLoc", &[2][..], &[1][..])],
        )
        .unwrap();
        let mut i = Instance::new(sig);
        for (a, b) in [
            ("lib1", "almaden"),  // d1a = 0
            ("lib1", "edenvale"), // d1e = 1
            ("lib2", "almaden"),  // g2a = 2
            ("lib2", "bascom"),   // f2b = 3
            ("lib3", "almaden"),  // f3a = 4
            ("lib3", "cambrian"), // f3c = 5
            ("lib1", "bascom"),   // e1b = 6
            ("lib3", "bascom"),   // e3b = 7
        ] {
            i.insert_named("LibLoc", [v(a), v(b)]).unwrap();
        }
        (schema, i)
    }

    #[test]
    fn running_example_conflicts() {
        let (schema, i) = libloc();
        let g = ConflictGraph::new(&schema, &i);
        // {d1a, d1e} conflict via 1→2.
        assert!(g.conflicting(FactId(0), FactId(1)));
        // {d1a, g2a} conflict via 2→1 (Example 2.2's δ3-conflict).
        assert!(g.conflicting(FactId(0), FactId(2)));
        // d1a and f2b share nothing.
        assert!(!g.conflicting(FactId(0), FactId(3)));
        // Symmetry.
        for (a, b) in g.edges() {
            assert!(g.conflicting(b, a));
        }
    }

    #[test]
    fn consistency_and_repairs() {
        let (schema, i) = libloc();
        let g = ConflictGraph::new(&schema, &i);
        // J2's LibLoc part from Example 2.5: {d1e, g2a, e3b} = ids {1,2,7}.
        let j2 = i.set_of([FactId(1), FactId(2), FactId(7)]);
        assert!(g.is_consistent_set(&j2));
        assert!(g.is_repair(&j2));
        // Not maximal: drop e3b.
        let partial = i.set_of([FactId(1), FactId(2)]);
        assert!(g.is_consistent_set(&partial));
        assert!(!g.is_repair(&partial));
        // Inconsistent: d1a + d1e.
        let bad = i.set_of([FactId(0), FactId(1)]);
        assert!(!g.is_consistent_set(&bad));
        assert!(!g.is_repair(&bad));
        // extend_to_repair completes the partial set.
        let ext = g.extend_to_repair(&partial);
        assert!(g.is_repair(&ext));
        assert!(partial.is_subset(&ext));
    }

    #[test]
    fn conflicts_in_set_queries() {
        let (schema, i) = libloc();
        let g = ConflictGraph::new(&schema, &i);
        let j = i.set_of([FactId(0), FactId(3), FactId(5)]); // d1a, f2b, f3c
                                                             // e1b (6) conflicts with d1a (same lib1) and f2b (same bascom).
        let c = g.conflicts_in(FactId(6), &j);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![FactId(0), FactId(3)]);
        assert!(g.conflicts_with_set(FactId(6), &j));
    }

    #[test]
    fn first_conflict_agrees_with_graph() {
        let (schema, i) = libloc();
        assert!(ConflictGraph::first_conflict(&schema, &i).is_some());
        let sub = i.materialize(&i.set_of([FactId(1), FactId(2), FactId(7)]));
        assert!(ConflictGraph::first_conflict(&schema, &sub).is_none());
        assert!(schema.is_consistent(&sub));
    }

    #[test]
    fn trivial_fds_produce_no_conflicts() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let r = sig.rel_id("R").unwrap();
        let schema = Schema::new(sig.clone(), [Fd::from_attrs(r, [1, 2], [1])]).unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [v("a"), v("b")]).unwrap();
        i.insert_named("R", [v("a"), v("c")]).unwrap();
        let g = ConflictGraph::new(&schema, &i);
        assert!(g.edges().is_empty());
        assert!(g.is_repair(&i.full_set()));
    }

    #[test]
    fn empty_instance() {
        let (schema, _) = libloc();
        let empty = Instance::new(schema.signature().clone());
        let g = ConflictGraph::new(&schema, &empty);
        assert!(g.is_empty());
        assert!(g.is_repair(&empty.empty_set()));
    }
}
