//! The bitset conflict graph as it was before the packed
//! [`CsrConflictGraph`] became the only conflict graph, kept as the
//! oracle the CSR build, its row queries and its greedy loop must agree
//! with.
//!
//! It derives the δ-conflict rule on its own: facts are hashed by their
//! projected lhs and rhs tuples, and facts in different rhs subgroups
//! of one lhs group conflict pairwise. Nothing here shares code with
//! `FdGrouping`, so agreement also checks the sort-based grouping.
//! [`same_graph`] stands in for the deleted packing bridge.

#![allow(dead_code)]

use rpr_data::{FactId, FactSet, FxHashMap, Instance, Tuple};
use rpr_fd::{CsrConflictGraph, CsrRow, Fd, Schema};

/// Does `csr` pack exactly `cg`: the same universe, the same row for
/// every fact, and each row stored as a bitset iff its degree passes
/// the density rule (`32·degree > n`)?
pub fn same_graph(cg: &ConflictGraph, csr: &CsrConflictGraph) -> bool {
    let n = cg.len();
    csr.len() == n
        && (0..n as u32).map(FactId).all(|f| {
            let row = cg.conflicts_of(f);
            let dense = matches!(csr.row(f), CsrRow::Dense(_));
            csr.neighbors(f).eq(row.iter()) && dense == (row.len() * 32 > n)
        })
}

/// The bitset conflict graph of an instance under a schema: one
/// [`FactSet`] row per conflicted fact.
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
