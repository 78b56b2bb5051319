//! The conflict graph, CSR-packed.
//!
//! For FD constraints, inconsistency is a *pairwise* phenomenon: an
//! instance violates `Δ` iff it contains two conflicting facts (§2.2).
//! Every repair notion in the paper is therefore governed by the
//! *conflict graph* of the base instance `I`: facts are vertices, and
//! edges join δ-conflicting pairs. Repairs of `I` are exactly the
//! maximal independent sets of this graph.
//!
//! [`CsrConflictGraph`] is the one representation of that graph, for
//! sessions, one-shot checkers and oracles alike. It stores each fact's
//! conflict row as a sorted `u32` neighbor list in compressed sparse
//! row form — one neighbor array plus per-fact offsets — and keeps a
//! bitset row only for facts whose degree exceeds a density threshold
//! (where the bitset is at most comparably sized and intersection
//! wins). Memory is therefore `O(n + e)` for `e` conflict edges on
//! sparse instances, where a bitset row per conflicted fact costs
//! `Θ(n/8)` bytes regardless of degree.
//!
//! [`CsrConflictGraph::new`] builds the rows straight from a sort-based
//! [`FdGrouping`] per relation and FD, and [`CsrConflictGraph::patch`]
//! carries them across a delta batch. Every row query answers in
//! ascending id order, so "first conflicting member of a set" is the
//! minimal one — the checkers rely on this for deterministic
//! witnesses.

use crate::grouping::FdGrouping;
use crate::schema::Schema;
use rpr_data::{Compaction, FactId, FactSet, Instance};

/// Sentinel in `dense_idx` marking a CSR-backed (sparse) row.
const SPARSE: u32 = u32::MAX;

/// One adjacency row, in whichever representation it is stored.
pub enum Row<'a> {
    /// Sorted ascending neighbor ids.
    Sparse(&'a [u32]),
    /// Bitset over the fact universe.
    Dense(&'a FactSet),
}

/// Hybrid CSR / bitset conflict adjacency. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrConflictGraph {
    n: usize,
    /// `offsets[i]..offsets[i+1]` indexes `neighbors` for sparse rows;
    /// for dense rows the range is empty.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists of all sparse rows.
    neighbors: Vec<u32>,
    /// `SPARSE`, or an index into `dense_rows`.
    dense_idx: Vec<u32>,
    dense_rows: Vec<FactSet>,
}

impl CsrConflictGraph {
    /// A row goes dense once its neighbor list would outweigh a bitset
    /// row: `4·degree` bytes of `u32`s versus `n/8` bytes of bits.
    fn is_dense(degree: usize, n: usize) -> bool {
        degree * 32 > n
    }

    /// Builds the conflict graph of `instance` under `schema`: one
    /// [`FdGrouping`] per relation and non-trivial FD.
    pub fn new(schema: &Schema, instance: &Instance) -> Self {
        let groupings: Vec<FdGrouping> = schema
            .signature()
            .rel_ids()
            .flat_map(|rel| FdGrouping::for_relation(schema, instance, rel))
            .collect();
        Self::from_groupings(instance.len(), &groupings)
    }

    /// Packs the conflicts the `groupings` witness over a universe of
    /// `n` facts: facts in different blocks of one group conflict. Two
    /// groupings of one relation may witness the same pair; rows are
    /// sorted and deduplicated, then packed with the usual density
    /// rule.
    ///
    /// Cost: `O(n + e·log d)` for `e` conflict entries and maximal
    /// sparse degree `d`; a dense row is filled straight into its
    /// bitset.
    pub fn from_groupings(n: usize, groupings: &[FdGrouping]) -> Self {
        // Counting sort of the per-fact conflict runs by fact id.
        let mut start = vec![0u32; n + 1];
        for (f, _) in groupings.iter().flat_map(FdGrouping::conflict_runs) {
            start[f.index() + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cursor = start.clone();
        let mut runs: Vec<[&[FactId]; 2]> = vec![[&[], &[]]; start[n] as usize];
        for (f, r) in groupings.iter().flat_map(FdGrouping::conflict_runs) {
            runs[cursor[f.index()] as usize] = r;
            cursor[f.index()] += 1;
        }
        drop(cursor);
        let row = |i: usize| &runs[start[i] as usize..start[i + 1] as usize];
        // Degree bound before deduplication.
        let bound = |i: usize| row(i).iter().map(|[x, y]| x.len() + y.len()).sum::<usize>();
        let sparse = (0..n).map(bound).filter(|&b| !Self::is_dense(b, n)).sum();
        let mut builder = Builder::new(n, sparse);
        let mut buf: Vec<u32> = Vec::new();
        for i in 0..n {
            let row = row(i);
            if Self::is_dense(bound(i), n) {
                let mut bits = FactSet::empty(n);
                for &g in row.iter().flatten().flat_map(|run| run.iter()) {
                    bits.insert(g);
                }
                builder.push_bits(bits);
            } else {
                buf.clear();
                buf.extend(row.iter().flatten().flat_map(|run| run.iter().map(|g| g.0)));
                buf.sort_unstable();
                buf.dedup();
                builder.push_row(buf.iter().copied());
            }
        }
        builder.finish()
    }

    /// Number of facts (vertices).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the graph over an empty instance?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Heap bytes the packing holds: offsets, density index, neighbor
    /// array and dense bitset rows.
    pub fn heap_bytes(&self) -> usize {
        let row_words = self.n.div_ceil(64);
        4 * (self.offsets.capacity() + self.neighbors.capacity() + self.dense_idx.capacity())
            + self.dense_rows.len() * (8 * row_words + std::mem::size_of::<FactSet>())
    }

    /// Number of rows stored as bitsets rather than neighbor lists.
    pub fn dense_row_count(&self) -> usize {
        self.dense_rows.len()
    }

    /// Total `u32` slots in the packed sparse neighbor array.
    pub fn packed_neighbor_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of conflict edges, each unordered pair counted once —
    /// `edges().len()` without listing them.
    pub fn edge_count(&self) -> usize {
        let dense: usize = self.dense_rows.iter().map(FactSet::len).sum();
        (self.neighbors.len() + dense) / 2
    }

    fn sparse_row(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The adjacency row of `id` in its stored representation.
    pub fn row(&self, id: FactId) -> Row<'_> {
        let i = id.index();
        match self.dense_idx[i] {
            SPARSE => Row::Sparse(self.sparse_row(i)),
            d => Row::Dense(&self.dense_rows[d as usize]),
        }
    }

    /// Degree of `id` in the conflict graph.
    pub fn degree(&self, id: FactId) -> usize {
        match self.row(id) {
            Row::Sparse(s) => s.len(),
            Row::Dense(b) => b.len(),
        }
    }

    /// Do `a` and `b` conflict?
    pub fn conflicting(&self, a: FactId, b: FactId) -> bool {
        match self.row(a) {
            Row::Sparse(s) => s.binary_search(&b.0).is_ok(),
            Row::Dense(bits) => bits.contains(b),
        }
    }

    /// Does `id` conflict with some member of `set`?
    pub fn conflicts_with_set(&self, id: FactId, set: &FactSet) -> bool {
        match self.row(id) {
            Row::Sparse(s) => s.iter().any(|&g| set.contains(FactId(g))),
            Row::Dense(bits) => !bits.is_disjoint(set),
        }
    }

    /// The minimal member of `set` conflicting with `id`: the first
    /// item of [`conflicts_among`](Self::conflicts_among).
    pub fn first_conflict_in(&self, id: FactId, set: &FactSet) -> Option<FactId> {
        match self.row(id) {
            Row::Sparse(s) => s.iter().map(|&g| FactId(g)).find(|&g| set.contains(g)),
            Row::Dense(bits) => bits.intersect(set).first(),
        }
    }

    /// The facts conflicting with `id`, in ascending id order.
    pub fn neighbors(&self, id: FactId) -> impl Iterator<Item = FactId> + '_ {
        // One of the two halves is empty, as in `conflicts_among`.
        let (sparse, dense): (&[u32], _) = match self.row(id) {
            Row::Sparse(s) => (s, None),
            Row::Dense(bits) => (&[], Some(bits.iter())),
        };
        sparse.iter().map(|&g| FactId(g)).chain(dense.into_iter().flatten())
    }

    /// The members of `set` conflicting with `id`, in ascending id
    /// order, without allocating.
    pub fn conflicts_among<'a>(
        &'a self,
        id: FactId,
        set: &'a FactSet,
    ) -> impl Iterator<Item = FactId> + 'a {
        // One of the two halves is empty; chaining them gives both
        // representations a single iterator type.
        let (sparse, dense): (&[u32], _) = match self.row(id) {
            Row::Sparse(s) => (s, None),
            Row::Dense(bits) => (&[], Some(bits.iter_intersect(set))),
        };
        let sparse = sparse.iter().map(|&g| FactId(g)).filter(move |&g| set.contains(g));
        sparse.chain(dense.into_iter().flatten())
    }

    /// All conflict edges `(a, b)` with `a < b`, sorted
    /// lexicographically.
    pub fn edges(&self) -> Vec<(FactId, FactId)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for a in (0..self.n as u32).map(FactId) {
            out.extend(self.neighbors(a).filter(|&b| a < b).map(|b| (a, b)));
        }
        out
    }

    /// Is the subinstance consistent (an independent set)?
    pub fn is_consistent_set(&self, set: &FactSet) -> bool {
        set.iter().all(|id| !self.conflicts_with_set(id, set))
    }

    /// Is the subinstance a repair of the base instance — a *maximal*
    /// consistent subinstance (§2.4, following Arenas et al.)? Every
    /// outside fact must conflict with the set.
    pub fn is_repair(&self, set: &FactSet) -> bool {
        self.is_consistent_set(set)
            && set.complement().iter().all(|id| self.conflicts_with_set(id, set))
    }

    /// The greedy repair: starting from the consistent set `base`, walk
    /// `order` and keep each fact that conflicts with nothing kept so
    /// far. When `order` lists every fact, the result is a repair.
    pub fn extend_greedily(
        &self,
        base: &FactSet,
        order: impl IntoIterator<Item = FactId>,
    ) -> FactSet {
        debug_assert!(self.is_consistent_set(base));
        let mut kept = base.clone();
        for f in order {
            if !kept.contains(f) && !self.conflicts_with_set(f, &kept) {
                kept.insert(f);
            }
        }
        kept
    }

    /// The conflict row of fact `x` by one scan of its relation: the
    /// facts agreeing with it on some FD's lhs but not on its rhs,
    /// ascending. `O(|rel|·|Δ|R|)` in-place value comparisons.
    pub fn scan_row(schema: &Schema, instance: &Instance, x: FactId) -> Vec<u32> {
        let f = instance.fact(x);
        let fds: Vec<_> = schema.fds_for(f.rel()).iter().filter(|fd| !fd.is_trivial()).collect();
        instance
            .facts_of(f.rel())
            .iter()
            .filter(|&&g| {
                let g = instance.fact(g);
                fds.iter().any(|fd| g.agrees_on(f, fd.lhs) && !g.agrees_on(f, fd.rhs))
            })
            .map(|g| g.0)
            .collect()
    }

    /// Patches the packing in place after a structural delta batch,
    /// without re-deriving the rows the batch left alone.
    ///
    /// `c` is the batch's [`Compaction`] over its stable batch ids: the
    /// ids below [`len`](Self::len) are the pre-batch facts, the rest
    /// were inserted by the batch. The survivors of the pre-batch facts
    /// close up to `0..s`, and the `inserted.len()` surviving inserted
    /// facts hold the top new ids `s..c.after()`; `inserted[k]` is the
    /// full conflict row of the `k`-th of them — new ids, ascending, as
    /// [`scan_row`](Self::scan_row) returns it.
    ///
    /// A survivor's row is its old row renumbered, plus its inserted
    /// neighbors, which sort after every survivor. Conflicts between two
    /// survivors depend only on their content, so nothing else can
    /// change. The patch runs in place:
    /// - one forward pass over `neighbors` drops removed rows and
    ///   entries and renumbers the rest (skipped when no pre-batch fact
    ///   was removed);
    /// - dense rows are compacted as bitsets;
    /// - one backward pass, from the last row down to the first that
    ///   grows, splices the inserted neighbors into their rows;
    /// - the inserted rows are appended.
    ///
    /// Rows whose degree crosses the density threshold under the new
    /// universe change representation, so the result is identical to
    /// [`new`](Self::new) over the post-batch instance.
    pub fn patch(&mut self, c: &Compaction, inserted: &[Vec<u32>]) {
        let old_n = self.n;
        let n = c.after();
        let s = n - inserted.len();
        let removes_old = c.first() < old_n;
        debug_assert_eq!(s, old_n - c.removed().filter(|r| r.index() < old_n).count());
        if !removes_old && inserted.is_empty() {
            return;
        }
        // (survivor, inserted neighbor), sorted: each survivor's new
        // neighbors in ascending order, grouped into one run per row.
        let mut gained: Vec<(u32, u32)> = inserted
            .iter()
            .zip(s as u32..)
            .flat_map(|(row, x)| {
                row.iter().take_while(|&&g| (g as usize) < s).map(move |&g| (g, x))
            })
            .collect();
        gained.sort_unstable();
        // Each row with gains and its run, ascending.
        let runs = || gained.chunk_by(|a, b| a.0 == b.0).map(|run| (run[0].0 as usize, run));
        let old_dense = self.dense_rows.len();
        // Pass 1, forward, only shrinking: drop removed rows and
        // entries, renumber, and turn the rows the batch makes dense
        // into bitsets. Writes never overtake reads.
        let turns_dense = !removes_old
            && runs().any(|(i, new)| {
                self.dense_idx[i] == SPARSE
                    && Self::is_dense(self.sparse_row(i).len() + new.len(), n)
            });
        if removes_old || turns_dense {
            let mut at = runs().peekable();
            let first = c.first();
            let (mut kept, mut new_i, mut start) = (0usize, 0usize, 0usize);
            for i in 0..old_n {
                let end = self.offsets[i + 1] as usize;
                if i < first || c.new_id(FactId(i as u32)).is_some() {
                    let (d, row_start) = (self.dense_idx[i], kept);
                    self.dense_idx[new_i] = d;
                    let new = at.next_if(|&(r, _)| r == new_i).map_or(&[][..], |(_, run)| run);
                    if d == SPARSE {
                        let row = &mut self.neighbors[..end];
                        if start == end || (row[end - 1] as usize) < first {
                            // Every entry keeps its number: the row only
                            // moves, if anything before it shrank.
                            if kept != start {
                                for r in start..end {
                                    row[kept + r - start] = row[r];
                                }
                            }
                            kept += end - start;
                        } else {
                            for r in start..end {
                                let g = row[r];
                                let g = if (g as usize) < first {
                                    Some(FactId(g))
                                } else {
                                    c.new_id(FactId(g))
                                };
                                if let Some(g) = g {
                                    row[kept] = g.0;
                                    kept += 1;
                                }
                            }
                        }
                        if Self::is_dense(kept - row_start + new.len(), n) {
                            let mut bits = FactSet::empty(n);
                            for &g in &self.neighbors[row_start..kept] {
                                bits.insert(FactId(g));
                            }
                            for &(_, x) in new {
                                bits.insert(FactId(x));
                            }
                            kept = row_start;
                            self.dense_idx[new_i] = self.dense_rows.len() as u32;
                            self.dense_rows.push(bits);
                        }
                    }
                    self.offsets[new_i + 1] = kept as u32;
                    new_i += 1;
                }
                start = end;
            }
            self.neighbors.truncate(kept);
            self.offsets.truncate(s + 1);
            self.dense_idx.truncate(s);
        }
        // Dense pre-batch rows: compact the bitset, add the gains, and
        // go back to a list when the row is no longer dense.
        let mut turned_sparse: Vec<(usize, FactSet)> = Vec::new();
        if old_dense > 0 {
            let mut at = runs().peekable();
            for i in 0..s {
                let new = at.next_if(|&(r, _)| r == i).map_or(&[][..], |(_, run)| run);
                let d = self.dense_idx[i];
                if d == SPARSE || d as usize >= old_dense {
                    continue;
                }
                let bits = &mut self.dense_rows[d as usize];
                bits.grow(c.before());
                bits.compact(c);
                for &(_, x) in new {
                    bits.insert(FactId(x));
                }
                if !Self::is_dense(bits.len(), n) {
                    turned_sparse.push((i, std::mem::replace(bits, FactSet::empty(0))));
                    self.dense_idx[i] = SPARSE;
                }
            }
        }
        // Pass 2, backward, only growing: each row that grows gets its
        // new entries, and the rows between two growing rows move up as
        // one block. Rows below the first one that grows stay put.
        // (row, entries it gains, its new neighbors or, for a row back
        // from a bitset, that bitset's index in `turned_sparse`).
        let turned_at = |i: usize| turned_sparse.binary_search_by_key(&i, |&(r, _)| r).ok();
        let mut growing: Vec<_> = runs()
            .filter(|&(i, _)| self.dense_idx[i] == SPARSE && turned_at(i).is_none())
            .map(|(i, new)| (i, new.len(), Ok(new)))
            .chain(turned_sparse.iter().enumerate().map(|(k, (i, bits))| (*i, bits.len(), Err(k))))
            .collect();
        growing.sort_unstable_by_key(|&(i, ..)| i);
        let old_total = self.neighbors.len();
        let grown: usize = growing.iter().map(|&(_, k, _)| k).sum();
        self.neighbors.resize(old_total + grown, 0);
        // Rows from `hi` on are placed; `end` is their final start and
        // `cur` their start before the pass (`offsets[hi]` already holds
        // the final one).
        let (mut hi, mut end, mut cur) = (s, self.neighbors.len(), old_total);
        for &(g, gain, ref entries) in growing.iter().rev() {
            let from = self.offsets[g] as usize;
            let to = if g + 1 == hi { cur } else { self.offsets[g + 1] as usize };
            let shift = end - cur;
            self.neighbors.copy_within(to..cur, to + shift);
            for o in &mut self.offsets[g + 1..hi] {
                *o += shift as u32;
            }
            let row_end = to + shift;
            let start = row_end - (to - from) - gain;
            match *entries {
                Err(k) => {
                    let bits = &turned_sparse[k].1;
                    for (slot, x) in self.neighbors[start..row_end].iter_mut().zip(bits.iter()) {
                        *slot = x.0;
                    }
                }
                Ok(new) => {
                    self.neighbors.copy_within(from..to, start);
                    let tail = &mut self.neighbors[start + (to - from)..row_end];
                    for (slot, &(_, x)) in tail.iter_mut().zip(new) {
                        *slot = x;
                    }
                }
            }
            self.offsets[g] = start as u32;
            (hi, end, cur) = (g, start, from);
        }
        debug_assert_eq!(end, cur, "every grown entry placed");
        self.offsets[s] = self.neighbors.len() as u32;
        // The inserted rows, appended.
        for row in inserted {
            if Self::is_dense(row.len(), n) {
                let mut bits = FactSet::empty(n);
                for &g in row {
                    bits.insert(FactId(g));
                }
                self.dense_idx.push(self.dense_rows.len() as u32);
                self.dense_rows.push(bits);
            } else {
                self.neighbors.extend_from_slice(row);
                self.dense_idx.push(SPARSE);
            }
            self.offsets.push(self.neighbors.len() as u32);
        }
        self.n = n;
        // Dense rows are stored in row order: re-index them when the
        // batch dropped, converted or added any.
        let reorder = removes_old || turns_dense || !turned_sparse.is_empty();
        if reorder && !self.dense_rows.is_empty() {
            let mut rows: Vec<Option<FactSet>> =
                std::mem::take(&mut self.dense_rows).into_iter().map(Some).collect();
            for d in self.dense_idx.iter_mut().filter(|d| **d != SPARSE) {
                self.dense_rows.push(rows[*d as usize].take().expect("one row per dense index"));
                *d = self.dense_rows.len() as u32 - 1;
            }
        }
    }
}

/// Row-by-row packer behind every constructor: rows arrive in id order
/// and go dense by [`CsrConflictGraph::is_dense`].
struct Builder {
    n: usize,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    dense_idx: Vec<u32>,
    dense_rows: Vec<FactSet>,
}

impl Builder {
    fn new(n: usize, neighbors: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        Builder {
            n,
            offsets,
            neighbors: Vec::with_capacity(neighbors),
            dense_idx: Vec::with_capacity(n),
            dense_rows: Vec::new(),
        }
    }

    /// Appends the next row, given as ascending, duplicate-free ids.
    fn push_row(&mut self, row: impl IntoIterator<Item = u32>) {
        let start = self.neighbors.len();
        self.neighbors.extend(row);
        if CsrConflictGraph::is_dense(self.neighbors.len() - start, self.n) {
            let mut bits = FactSet::empty(self.n);
            for g in self.neighbors.drain(start..) {
                bits.insert(FactId(g));
            }
            self.push_bits(bits);
        } else {
            self.dense_idx.push(SPARSE);
            self.offsets.push(self.neighbors.len() as u32);
        }
    }

    /// Appends the next row, given as a bitset.
    fn push_bits(&mut self, bits: FactSet) {
        if CsrConflictGraph::is_dense(bits.len(), self.n) {
            self.dense_idx.push(self.dense_rows.len() as u32);
            self.dense_rows.push(bits);
        } else {
            self.neighbors.extend(bits.iter().map(|g| g.0));
            self.dense_idx.push(SPARSE);
        }
        self.offsets.push(self.neighbors.len() as u32);
    }

    fn finish(mut self) -> CsrConflictGraph {
        debug_assert_eq!(self.dense_idx.len(), self.n);
        self.neighbors.shrink_to_fit();
        let Builder { n, offsets, neighbors, dense_idx, dense_rows } = self;
        CsrConflictGraph { n, offsets, neighbors, dense_idx, dense_rows }
    }
}

/// Flat CSR-packed partition of the fact universe into connected
/// components: component member lists concatenated into one fact array
/// with offsets, plus the inverse fact → component index. Replaces the
/// allocating `Vec<Vec<FactId>>` the sessions used to rebuild on every
/// structural change.
///
/// Invariants (relied on for bit-identical scheduling at every `jobs`
/// setting): members of a component are sorted ascending, components
/// are ordered by their minimal member, and `nontrivial` lists the
/// indices of components with ≥ 2 members in ascending order. Isolated
/// vertices form singleton components and are included.
#[derive(Clone, Debug, PartialEq)]
pub struct ComponentLayout {
    /// `offsets[c]..offsets[c+1]` indexes `facts` for component `c`.
    offsets: Vec<u32>,
    /// Concatenated sorted member lists of all components.
    facts: Vec<FactId>,
    /// Fact id → component index.
    comp_of: Vec<u32>,
    /// Indices of components with ≥ 2 members, ascending.
    nontrivial: Vec<u32>,
}

impl ComponentLayout {
    /// Derives the connected components of a packed conflict graph.
    pub fn from_csr(csr: &CsrConflictGraph) -> Self {
        let n = csr.len();
        let mut comp_of = vec![u32::MAX; n];
        let mut offsets = Vec::with_capacity(16);
        offsets.push(0u32);
        let mut facts: Vec<FactId> = Vec::with_capacity(n);
        let mut nontrivial = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        for i in 0..n {
            if comp_of[i] != u32::MAX {
                continue;
            }
            let c = (offsets.len() - 1) as u32;
            comp_of[i] = c;
            stack.push(i as u32);
            let start = facts.len();
            while let Some(v) = stack.pop() {
                facts.push(FactId(v));
                match csr.row(FactId(v)) {
                    Row::Sparse(s) => {
                        for &g in s {
                            if comp_of[g as usize] == u32::MAX {
                                comp_of[g as usize] = c;
                                stack.push(g);
                            }
                        }
                    }
                    Row::Dense(bits) => {
                        for g in bits.iter() {
                            if comp_of[g.index()] == u32::MAX {
                                comp_of[g.index()] = c;
                                stack.push(g.0);
                            }
                        }
                    }
                }
            }
            facts[start..].sort_unstable();
            if facts.len() - start > 1 {
                nontrivial.push(c);
            }
            offsets.push(facts.len() as u32);
        }
        ComponentLayout { offsets, facts, comp_of, nontrivial }
    }

    /// Derives components of the union graph given by an explicit edge
    /// list over `n` vertices. Sessions use this for the cross-conflict
    /// mode, where priority edges may join facts that never conflict,
    /// so decomposition must follow conflict ∪ priority connectivity.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (FactId, FactId)>) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (a, b) in edges {
            if a != b {
                adj[a.index()].push(b.0);
                adj[b.index()].push(a.0);
            }
        }
        let mut comp_of = vec![u32::MAX; n];
        let mut offsets = Vec::with_capacity(16);
        offsets.push(0u32);
        let mut facts: Vec<FactId> = Vec::with_capacity(n);
        let mut nontrivial = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        for i in 0..n {
            if comp_of[i] != u32::MAX {
                continue;
            }
            let c = (offsets.len() - 1) as u32;
            comp_of[i] = c;
            stack.push(i as u32);
            let start = facts.len();
            while let Some(v) = stack.pop() {
                facts.push(FactId(v));
                for &g in &adj[v as usize] {
                    if comp_of[g as usize] == u32::MAX {
                        comp_of[g as usize] = c;
                        stack.push(g);
                    }
                }
            }
            facts[start..].sort_unstable();
            if facts.len() - start > 1 {
                nontrivial.push(c);
            }
            offsets.push(facts.len() as u32);
        }
        ComponentLayout { offsets, facts, comp_of, nontrivial }
    }

    /// Patches the layout in place after a structural delta batch,
    /// re-running the component DFS only where the batch changed the
    /// graph.
    ///
    /// `csr` is the patched conflict graph and `c` the batch's
    /// [`Compaction`] over its stable batch ids (see
    /// [`CsrConflictGraph::patch`]). `touched` lists, ascending and
    /// without repeats, the pre-batch components that lost a member or
    /// gained an edge to an inserted fact. The other components keep
    /// their members: the renumbering is order-preserving, so each is
    /// renumbered in place and stays sorted. The surviving members of
    /// the touched components and the surviving inserted facts are
    /// re-derived by DFS, and the new components are spliced back in
    /// min-member order. Components before the first touched one keep
    /// their index; the cost is one pass over the renumbered ids, the
    /// DFS of the touched region, and the member lists from the first
    /// touched component on.
    ///
    /// Returns the number of untouched *nontrivial* pre-batch
    /// components — the per-shard skip count surfaced through delta
    /// reports and serve metrics. The result is bit-identical to
    /// [`from_csr`](Self::from_csr)`(csr)`.
    pub fn patch(&mut self, csr: &CsrConflictGraph, c: &Compaction, touched: &[u32]) -> usize {
        let old_n = self.comp_of.len();
        let n = csr.len();
        debug_assert_eq!(n, c.after());
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched not ascending");
        let s = old_n - c.removed().take_while(|r| r.index() < old_n).count();
        let reused = self.nontrivial.len()
            - touched.iter().filter(|&&t| self.component(t as usize).len() > 1).count();
        if touched.is_empty() && s == n {
            // Only facts the batch inserted were removed: no pre-batch
            // id moved and no component changed.
            return reused;
        }
        // The region to re-derive, ascending in new ids: the survivors
        // of touched components, then the inserted facts.
        let mut region: Vec<u32> = touched
            .iter()
            .flat_map(|&t| self.component(t as usize).iter().filter_map(|&m| c.new_id(m)))
            .map(|m| m.0)
            .collect();
        region.sort_unstable();
        region.extend(s as u32..n as u32);
        if c.first() < old_n {
            for m in &mut self.facts {
                if m.index() >= c.first() {
                    *m = c.new_id(*m).unwrap_or(FactId(u32::MAX));
                }
            }
        }
        self.comp_of.resize(c.before(), u32::MAX);
        c.compact_vec(&mut self.comp_of);
        // Derive the region's components. A DFS started from the
        // smallest unclaimed region fact finds exactly its component
        // (edges never leave the region: an old edge would have put
        // both ends in one touched component, and a new edge has an
        // inserted end whose neighbors' components count as touched),
        // and its start is the component's minimal member, so the
        // components come out in min-member order.
        const PENDING: u32 = u32::MAX;
        const CLAIMED: u32 = u32::MAX - 1;
        for &f in &region {
            self.comp_of[f as usize] = PENDING;
        }
        let (mut found, mut bounds, mut stack) =
            (Vec::with_capacity(region.len()), vec![0], vec![]);
        for &f in &region {
            if self.comp_of[f as usize] != PENDING {
                continue;
            }
            self.comp_of[f as usize] = CLAIMED;
            stack.push(f);
            let start = found.len();
            while let Some(v) = stack.pop() {
                found.push(FactId(v));
                for g in csr.neighbors(FactId(v)) {
                    let slot = &mut self.comp_of[g.index()];
                    debug_assert!(*slot >= CLAIMED, "an edge leaves the re-derived region");
                    if *slot == PENDING {
                        *slot = CLAIMED;
                        stack.push(g.0);
                    }
                }
            }
            found[start..].sort_unstable();
            bounds.push(found.len());
        }
        // Splice: from the first touched component on, merge the
        // untouched components with the derived ones by minimal member.
        let c0 = touched.first().map_or(self.len(), |&t| t as usize);
        let old_len = self.len();
        let tail_offsets = self.offsets.split_off(c0 + 1);
        let tail_facts = self.facts.split_off(self.offsets[c0] as usize);
        let base = self.offsets[c0] as usize;
        self.nontrivial.truncate(self.nontrivial.partition_point(|&x| (x as usize) < c0));
        let old_members = |oc: usize| {
            let from = if oc == c0 { base } else { tail_offsets[oc - c0 - 1] as usize };
            &tail_facts[from - base..tail_offsets[oc - c0] as usize - base]
        };
        let mut untouched =
            (c0..old_len).filter(|oc| touched.binary_search(&(*oc as u32)).is_err());
        let mut derived = bounds.windows(2).map(|w| &found[w[0]..w[1]]);
        let (mut next_old, mut next_new) = (untouched.next().map(old_members), derived.next());
        loop {
            let members = match (next_old, next_new) {
                (Some(o), Some(d)) if o[0] < d[0] => next_old.take(),
                (Some(_), None) => next_old.take(),
                (_, Some(_)) => next_new.take(),
                (None, None) => break,
            }
            .expect("a component was picked");
            let ci = self.len() as u32;
            for &m in members {
                self.comp_of[m.index()] = ci;
            }
            self.facts.extend_from_slice(members);
            self.offsets.push(self.facts.len() as u32);
            if members.len() > 1 {
                self.nontrivial.push(ci);
            }
            if next_old.is_none() {
                next_old = untouched.next().map(old_members);
            }
            if next_new.is_none() {
                next_new = derived.next();
            }
        }
        reused
    }

    /// Number of components (including singletons).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Is the underlying universe empty?
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Size of the fact universe the layout partitions.
    pub fn universe(&self) -> usize {
        self.comp_of.len()
    }

    /// Heap bytes the layout holds: offsets, members, the fact →
    /// component index and the nontrivial list.
    pub fn heap_bytes(&self) -> usize {
        4 * (self.offsets.capacity()
            + self.facts.capacity()
            + self.comp_of.capacity()
            + self.nontrivial.capacity())
    }

    /// The sorted member list of component `c`.
    pub fn component(&self, c: usize) -> &[FactId] {
        &self.facts[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// The component index of fact `f`.
    pub fn component_of(&self, f: FactId) -> usize {
        self.comp_of[f.index()] as usize
    }

    /// Indices of components with ≥ 2 members, ascending.
    pub fn nontrivial(&self) -> &[u32] {
        &self.nontrivial
    }

    /// The members of component `c` as a bitset over the universe.
    pub fn component_set(&self, c: usize) -> FactSet {
        let mut out = FactSet::empty(self.universe());
        for &f in self.component(c) {
            out.insert(f);
        }
        out
    }

    /// Size of the largest component (0 when the universe is empty).
    pub fn max_component_size(&self) -> usize {
        (0..self.len()).map(|c| self.component(c).len()).max().unwrap_or(0)
    }

    /// Groups `edges` by the component holding both endpoints, in one
    /// stable counting-sort pass: each component's bucket keeps the
    /// order of `edges`, so [`shard_fingerprint`](Self::shard_fingerprint)
    /// and a shard build read only their own component's edges and
    /// still see exactly what a filter over the whole list yields.
    /// Edges whose endpoints lie in different components belong to no
    /// shard and are dropped. `O(components + edges)`.
    pub fn bucket_edges(&self, edges: &[(FactId, FactId)]) -> EdgeBuckets {
        let inside = |&(a, b): &(FactId, FactId)| {
            let c = self.comp_of[a.index()];
            (c == self.comp_of[b.index()]).then_some(c as usize)
        };
        let mut offsets = vec![0u32; self.len() + 1];
        for c in edges.iter().filter_map(inside) {
            offsets[c + 1] += 1;
        }
        for c in 0..self.len() {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut bucketed = vec![(FactId(0), FactId(0)); offsets[self.len()] as usize];
        for e in edges {
            if let Some(c) = inside(e) {
                bucketed[cursor[c] as usize] = *e;
                cursor[c] += 1;
            }
        }
        EdgeBuckets { offsets, edges: bucketed }
    }

    /// The canonical 128-bit content address of component `c`: a hash
    /// over the member facts' *contents* (relation name + tuple values)
    /// in ascending id order, the FDs of every relation present in the
    /// component, and the intra-component `priority` edges as ordered
    /// pairs of fact contents. Two components — in the same workspace
    /// or across workspaces with entirely different `FactId`
    /// numberings — get the same fingerprint iff they describe the same
    /// shard-local checking problem in the same local coordinates
    /// (local id = rank in the member list), which is what lets the
    /// shard store share one artifact between them. An order-preserving
    /// renumbering (dense deletes, appends) keeps the key; the same
    /// facts in another relative order get another key, because a
    /// shard built for one order answers for the wrong facts under the
    /// other.
    ///
    /// `priority` is the component's bucket from
    /// [`bucket_edges`](Self::bucket_edges) or the workspace's full edge
    /// list — edges with either endpoint outside the component are
    /// ignored, so both give the same key. Edges are hashed by endpoint
    /// content, so renumbering-invariant.
    pub fn shard_fingerprint(
        &self,
        c: usize,
        schema: &Schema,
        instance: &Instance,
        priority: &[(FactId, FactId)],
    ) -> rpr_data::Fingerprint {
        use rpr_data::{combine_unordered, fingerprint_fact, FingerprintBuilder};
        let sig = instance.signature();
        let members = self.component(c);
        // Ordered: the shard's local ids are ranks in this member
        // order, so only components listing the same facts in the same
        // relative order may share a shard.
        let mut facts = FingerprintBuilder::new();
        for &f in members {
            facts.fingerprint(fingerprint_fact(sig, instance.fact(f)));
        }
        let facts_fp = facts.finish();
        // Distinct relations of the component, each contributing its
        // full FD set (the conflicts the shard's facts can witness).
        let mut rels: Vec<_> = members.iter().map(|&f| instance.fact(f).rel()).collect();
        rels.sort_unstable();
        rels.dedup();
        let fds_fp = combine_unordered(rels.iter().flat_map(|&rel| {
            schema.fds_for(rel).iter().map(move |fd| {
                let mut b = FingerprintBuilder::new();
                b.str(sig.symbol(rel).name()).word(fd.lhs.bits()).word(fd.rhs.bits());
                b.finish()
            })
        }));
        let edges_fp = combine_unordered(priority.iter().filter_map(|&(hi, lo)| {
            let inside =
                self.comp_of[hi.index()] as usize == c && self.comp_of[lo.index()] as usize == c;
            inside.then(|| {
                let mut b = FingerprintBuilder::new();
                b.fingerprint(fingerprint_fact(sig, instance.fact(hi)))
                    .fingerprint(fingerprint_fact(sig, instance.fact(lo)));
                b.finish()
            })
        }));
        let mut b = FingerprintBuilder::new();
        b.str("shard")
            .word(members.len() as u64)
            .fingerprint(facts_fp)
            .fingerprint(fds_fp)
            .fingerprint(edges_fp);
        b.finish()
    }
}

/// Priority edges grouped per component by
/// [`ComponentLayout::bucket_edges`], CSR-packed.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeBuckets {
    /// `offsets[c]..offsets[c+1]` indexes `edges` for component `c`.
    offsets: Vec<u32>,
    edges: Vec<(FactId, FactId)>,
}

impl EdgeBuckets {
    /// The edges inside component `c`, in the order they were given.
    pub fn of(&self, c: usize) -> &[(FactId, FactId)] {
        &self.edges[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Fact, Signature, Value};

    fn star(n_leaves: usize) -> (Schema, Instance) {
        // R(k, v) with key 1: one hub key shared by all facts → clique;
        // plus singleton keys → isolated vertices. Here: same key for
        // all n_leaves + 1 facts, pairwise conflicting (a dense clique).
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig);
        for k in 0..=n_leaves {
            i.insert_named("R", [Value::sym("hub"), Value::Int(k as i64)]).unwrap();
        }
        (schema, i)
    }

    #[test]
    fn dense_rows_kick_in_for_cliques() {
        let (schema, i) = star(200);
        let csr = CsrConflictGraph::new(&schema, &i);
        // Every vertex has degree 200 in a 201-vertex graph → dense.
        assert_eq!(csr.dense_row_count(), 201);
        assert_eq!(csr.packed_neighbor_count(), 0);
        assert!(csr.conflicting(FactId(0), FactId(200)));
    }

    #[test]
    fn sparse_rows_for_scattered_conflicts() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut inst = Instance::new(sig);
        // 100 key groups of 2 → 100 disjoint edges.
        for k in 0..100 {
            for v in 0..2 {
                inst.insert_named("R", [Value::Int(k), Value::Int(v)]).unwrap();
            }
        }
        let csr = CsrConflictGraph::new(&schema, &inst);
        assert_eq!(csr.dense_row_count(), 0);
        assert_eq!(csr.packed_neighbor_count(), 200);
        assert_eq!(ComponentLayout::from_csr(&csr).len(), 100);
        let edges = csr.edges();
        assert_eq!(edges.len(), 100);
        for (a, b) in edges {
            assert_eq!((a.0, b.0), (a.0 & !1, a.0 | 1), "the two facts of one key");
            assert!(csr.conflicting(b, a));
        }
    }

    #[test]
    fn layout_partitions_disjoint_edges() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut inst = Instance::new(sig);
        for k in 0..10 {
            for v in 0..2 {
                inst.insert_named("R", [Value::Int(k), Value::Int(v)]).unwrap();
            }
        }
        // One conflict-free fact in its own key group → singleton.
        inst.insert_named("R", [Value::Int(99), Value::Int(0)]).unwrap();
        let csr = CsrConflictGraph::new(&schema, &inst);
        let layout = ComponentLayout::from_csr(&csr);
        assert_eq!(layout.len(), 11);
        assert_eq!(layout.universe(), 21);
        assert_eq!(layout.nontrivial().len(), 10);
        assert_eq!(layout.max_component_size(), 2);
        for c in 0..layout.len() {
            let members = layout.component(c);
            assert!(members.windows(2).all(|w| w[0] < w[1]));
            for &f in members {
                assert_eq!(layout.component_of(f), c);
                assert!(layout.component_set(c).contains(f));
            }
        }
        // Components are ordered by minimal member.
        let leads: Vec<_> = (0..layout.len()).map(|c| layout.component(c)[0]).collect();
        assert!(leads.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn from_edges_unions_extra_connectivity() {
        // 6 isolated vertices plus explicit edges 0–1, 1–2, 4–5.
        let edges = [(FactId(0), FactId(1)), (FactId(1), FactId(2)), (FactId(4), FactId(5))];
        let layout = ComponentLayout::from_edges(6, edges);
        assert_eq!(layout.len(), 3);
        assert_eq!(layout.component(0), &[FactId(0), FactId(1), FactId(2)]);
        assert_eq!(layout.component(1), &[FactId(3)]);
        assert_eq!(layout.component(2), &[FactId(4), FactId(5)]);
        assert_eq!(layout.nontrivial(), &[0, 2]);
    }

    /// LibLoc of the running example under Δ = {1→2, 2→1}: two FDs, so
    /// inserted rows must merge both FDs' conflicts.
    fn libloc() -> (Schema, Instance) {
        let sig = Signature::new([("LibLoc", 2)]).unwrap();
        let schema = Schema::from_named(
            sig.clone(),
            [("LibLoc", &[1][..], &[2][..]), ("LibLoc", &[2][..], &[1][..])],
        )
        .unwrap();
        let mut i = Instance::new(sig);
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
            i.insert_named("LibLoc", [Value::sym(a), Value::sym(b)]).unwrap();
        }
        (schema, i)
    }

    /// One structural op of a delta batch, by fact content.
    enum Op {
        Delete(Fact),
        Insert(Fact),
    }

    fn lib(a: &str, b: &str) -> Fact {
        let (_, i) = libloc();
        Fact::parse_new(i.signature(), "LibLoc", [Value::sym(a), Value::sym(b)]).unwrap()
    }

    /// Applies `ops` as one batch the way the delta layer does — a
    /// delete tombstones, one compaction at the end — then patches the
    /// packing and the layout in place.
    fn apply_batch(
        schema: &Schema,
        i: &mut Instance,
        csr: &mut CsrConflictGraph,
        layout: &mut ComponentLayout,
        ops: &[Op],
    ) -> usize {
        let base = i.len();
        let (mut dead, mut touched) = (Vec::new(), Vec::new());
        for op in ops {
            match op {
                Op::Delete(f) => {
                    let id = i.id_of(f).expect("deleted fact present");
                    i.tombstone(id);
                    dead.push(id);
                    if id.index() < base {
                        touched.push(layout.component_of(id) as u32);
                    }
                }
                Op::Insert(f) => {
                    assert!(i.id_of(f).is_none(), "inserted fact absent");
                    i.insert(f.clone());
                }
            }
        }
        let c = i.remove_facts(&dead);
        let s = base - dead.iter().filter(|d| d.index() < base).count();
        let inserted: Vec<Vec<u32>> =
            (s..i.len()).map(|x| CsrConflictGraph::scan_row(schema, i, FactId(x as u32))).collect();
        // An inserted fact merges its surviving neighbors' components.
        for &g in inserted.iter().flatten().filter(|&&g| (g as usize) < s) {
            touched.push(layout.component_of(c.old_id(FactId(g))) as u32);
        }
        touched.sort_unstable();
        touched.dedup();
        csr.patch(&c, &inserted);
        layout.patch(csr, &c, &touched)
    }

    /// Patches one batch and checks both structures against
    /// from-scratch builds of the mutated instance.
    fn assert_patch_matches_cold(schema: &Schema, i: &mut Instance, ops: &[Op]) {
        let mut csr = CsrConflictGraph::new(schema, i);
        let mut layout = ComponentLayout::from_csr(&csr);
        apply_batch(schema, i, &mut csr, &mut layout, ops);
        assert_eq!(csr, CsrConflictGraph::new(schema, i));
        assert_eq!(layout, ComponentLayout::from_csr(&csr));
    }

    #[test]
    fn patched_deletes_match_cold_build() {
        let (schema, mut i) = libloc();
        // A fact from the middle, then from the front, one batch each.
        assert_patch_matches_cold(&schema, &mut i, &[Op::Delete(lib("lib2", "almaden"))]);
        assert_patch_matches_cold(&schema, &mut i, &[Op::Delete(lib("lib1", "almaden"))]);
        // Several deletes in one batch, descending id order.
        let batch = [Op::Delete(lib("lib3", "bascom")), Op::Delete(lib("lib2", "bascom"))];
        assert_patch_matches_cold(&schema, &mut i, &batch);
    }

    #[test]
    fn patched_inserts_match_cold_build() {
        let (schema, mut i) = libloc();
        for (a, b) in [("lib4", "almaden"), ("lib1", "downtown"), ("lib9", "nowhere")] {
            assert_patch_matches_cold(&schema, &mut i, &[Op::Insert(lib(a, b))]);
        }
        // Several inserts conflicting with each other in one batch.
        let batch = [
            Op::Insert(lib("lib5", "x")),
            Op::Insert(lib("lib5", "y")),
            Op::Insert(lib("lib6", "x")),
        ];
        assert_patch_matches_cold(&schema, &mut i, &batch);
    }

    #[test]
    fn patched_interleaved_batches_match_cold_build() {
        let (schema, mut i) = libloc();
        let batch = [
            Op::Delete(lib("lib3", "cambrian")),
            Op::Insert(lib("lib2", "cambrian")),
            Op::Delete(lib("lib1", "edenvale")),
        ];
        assert_patch_matches_cold(&schema, &mut i, &batch);
        // Delete a fact and re-insert its content in the same batch; an
        // insert deleted again before the batch ends leaves no trace.
        let batch = [
            Op::Delete(lib("lib1", "almaden")),
            Op::Insert(lib("lib1", "almaden")),
            Op::Insert(lib("lib7", "q")),
        ];
        assert_patch_matches_cold(&schema, &mut i, &batch);
        let batch = [Op::Insert(lib("lib7", "r")), Op::Delete(lib("lib7", "r"))];
        assert_patch_matches_cold(&schema, &mut i, &batch);
    }

    #[test]
    fn patched_remaps_dense_rows() {
        // A 41-clique is dense; deleting and inserting members must
        // compact old bitset rows and add the new member to them.
        let (schema, mut i) = star(40);
        assert_eq!(CsrConflictGraph::new(&schema, &i).dense_row_count(), 41);
        let hub = |k: i64| {
            Fact::parse_new(i.signature(), "R", [Value::sym("hub"), Value::Int(k)]).unwrap()
        };
        let batch = [Op::Delete(hub(3)), Op::Insert(hub(99))];
        assert_patch_matches_cold(&schema, &mut i, &batch);
        assert_eq!(CsrConflictGraph::new(&schema, &i).dense_row_count(), 41);
    }

    #[test]
    fn rows_change_representation_when_the_universe_moves() {
        // 6 two-fact groups plus isolated facts: degree 1 is sparse at
        // n = 40 (32 ≤ 40) and dense at n = 31 (32 > 31).
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut i = Instance::new(sig.clone());
        for k in 0..6 {
            for v in 0..2 {
                i.insert_named("R", [Value::Int(k), Value::Int(v)]).unwrap();
            }
        }
        for k in 100..128 {
            i.insert_named("R", [Value::Int(k), Value::Int(0)]).unwrap();
        }
        let r =
            |k: i64, v: i64| Fact::parse_new(&sig, "R", [Value::Int(k), Value::Int(v)]).unwrap();
        assert_eq!(CsrConflictGraph::new(&schema, &i).dense_row_count(), 0);
        // Shrink below the threshold: every conflicted row goes dense.
        let shrink: Vec<Op> = (100..109).map(|k| Op::Delete(r(k, 0))).collect();
        assert_patch_matches_cold(&schema, &mut i, &shrink);
        assert_eq!(CsrConflictGraph::new(&schema, &i).dense_row_count(), 12);
        // Grow past it again (with a new conflict): back to lists.
        let grow: Vec<Op> = (200..210)
            .map(|k| Op::Insert(r(k, 0)))
            .chain([Op::Insert(r(50, 0)), Op::Insert(r(50, 1))])
            .collect();
        assert_patch_matches_cold(&schema, &mut i, &grow);
        assert_eq!(CsrConflictGraph::new(&schema, &i).dense_row_count(), 0);
    }

    #[test]
    fn the_layout_splits_and_merges_in_one_batch() {
        // Components {almaden, lib1, lib2, lib3 …}: LibLoc is connected
        // through shared libraries and locations. Deleting a bridge
        // splits; inserting a fact joining two libraries merges.
        let (schema, mut i) = libloc();
        let batch = [
            Op::Delete(lib("lib1", "bascom")),
            Op::Delete(lib("lib3", "bascom")),
            Op::Insert(lib("lib8", "p")),
            Op::Insert(lib("lib9", "p2")),
            Op::Insert(lib("lib8", "p2")),
        ];
        assert_patch_matches_cold(&schema, &mut i, &batch);
    }

    proptest::proptest! {
        /// Random batches of inserts and deletes — repeated contents,
        /// delete-then-reinsert, insert-then-delete, rows crossing the
        /// density threshold both ways — patch to exactly the
        /// from-scratch packing and layout, batch after batch. Narrow
        /// value domains over few facts make most rows dense; wide ones
        /// over hundreds of facts keep them sparse, so runs of adjacent
        /// rows gain entries in one batch.
        #[test]
        fn random_batches_patch_to_the_cold_build(
            wide in proptest::prelude::any::<bool>(),
            seed_facts in proptest::collection::vec((0u8..100, 0u8..100), 0..400),
            batches in proptest::collection::vec(
                proptest::collection::vec((proptest::prelude::any::<bool>(), 0u8..100, 0u8..100), 1..12),
                1..6,
            ),
        ) {
            let (schema, _) = libloc();
            let sig = schema.signature().clone();
            let (seeds, da, db) = if wide { (400, 100, 100) } else { (40, 6, 4) };
            let f = |a: u8, b: u8| {
                let (a, b) = (i64::from(a % da), i64::from(b % db));
                Fact::parse_new(&sig, "LibLoc", [Value::Int(a), Value::Int(b)]).unwrap()
            };
            let mut i = Instance::new(sig.clone());
            for &(a, b) in seed_facts.iter().take(seeds) {
                i.insert(f(a, b));
            }
            let mut csr = CsrConflictGraph::new(&schema, &i);
            let mut layout = ComponentLayout::from_csr(&csr);
            for batch in batches {
                // Each op is valid at its position: track membership.
                let mut present: Vec<Fact> = i.iter().map(|(_, g)| g.to_fact()).collect();
                let mut ops = Vec::new();
                for (delete, a, b) in batch {
                    let g = f(a, b);
                    let at = present.iter().position(|p| p == &g);
                    match (delete, at) {
                        (true, Some(k)) => {
                            present.remove(k);
                            ops.push(Op::Delete(g));
                        }
                        (false, None) => {
                            present.push(g.clone());
                            ops.push(Op::Insert(g));
                        }
                        // A delete of an absent fact deletes a present one.
                        (true, None) if !present.is_empty() => {
                            let g = present.remove(usize::from(a) % present.len());
                            ops.push(Op::Delete(g));
                        }
                        _ => {}
                    }
                }
                apply_batch(&schema, &mut i, &mut csr, &mut layout, &ops);
                proptest::prop_assert_eq!(&csr, &CsrConflictGraph::new(&schema, &i));
                proptest::prop_assert_eq!(&layout, &ComponentLayout::from_csr(&csr));
            }
        }
    }

    #[test]
    fn edge_buckets_keep_edge_order_and_drop_cross_edges() {
        // Components {0, 1, 4}, {2, 3}, {5}.
        let f = FactId;
        let layout = ComponentLayout::from_edges(6, [(f(0), f(1)), (f(1), f(4)), (f(2), f(3))]);
        let edges = [(f(4), f(0)), (f(3), f(2)), (f(0), f(2)), (f(1), f(0)), (f(2), f(3))];
        let buckets = layout.bucket_edges(&edges);
        let c = |x: u32| layout.component_of(f(x));
        assert_eq!(buckets.of(c(0)), &[(f(4), f(0)), (f(1), f(0))]);
        assert_eq!(buckets.of(c(2)), &[(f(3), f(2)), (f(2), f(3))]);
        assert!(buckets.of(c(5)).is_empty());
    }

    #[test]
    fn running_example_conflicts() {
        let (schema, i) = libloc();
        let g = CsrConflictGraph::new(&schema, &i);
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
        let g = CsrConflictGraph::new(&schema, &i);
        // J2's LibLoc part from Example 2.5: {d1e, g2a, e3b} = ids {1,2,7}.
        let j2 = i.set_of([FactId(1), FactId(2), FactId(7)]);
        assert!(g.is_consistent_set(&j2));
        assert!(g.is_repair(&j2));
        assert!(schema.is_consistent(&i.materialize(&j2)));
        assert!(!schema.is_consistent(&i));
        // Not maximal: drop e3b.
        let partial = i.set_of([FactId(1), FactId(2)]);
        assert!(g.is_consistent_set(&partial));
        assert!(!g.is_repair(&partial));
        // Inconsistent: d1a + d1e.
        let bad = i.set_of([FactId(0), FactId(1)]);
        assert!(!g.is_consistent_set(&bad));
        assert!(!g.is_repair(&bad));
        // The greedy extension in id order completes the partial set.
        let ext = g.extend_greedily(&partial, i.fact_ids());
        assert!(g.is_repair(&ext));
        assert!(partial.is_subset(&ext));
    }

    #[test]
    fn conflicts_in_set_queries() {
        let (schema, i) = libloc();
        let g = CsrConflictGraph::new(&schema, &i);
        let j = i.set_of([FactId(0), FactId(3), FactId(5)]); // d1a, f2b, f3c
                                                             // e1b (6) conflicts with d1a (same lib1) and f2b (same bascom).
        let c: Vec<_> = g.conflicts_among(FactId(6), &j).collect();
        assert_eq!(c, vec![FactId(0), FactId(3)]);
        assert_eq!(g.first_conflict_in(FactId(6), &j), Some(FactId(0)));
        assert!(g.conflicts_with_set(FactId(6), &j));
    }

    #[test]
    fn trivial_fds_produce_no_conflicts() {
        let sig = Signature::new([("R", 2)]).unwrap();
        let r = sig.rel_id("R").unwrap();
        let schema = Schema::new(sig.clone(), [crate::Fd::from_attrs(r, [1, 2], [1])]).unwrap();
        let mut i = Instance::new(sig);
        i.insert_named("R", [Value::sym("a"), Value::sym("b")]).unwrap();
        i.insert_named("R", [Value::sym("a"), Value::sym("c")]).unwrap();
        let g = CsrConflictGraph::new(&schema, &i);
        assert!(g.edges().is_empty());
        assert!(g.is_repair(&i.full_set()));
        assert!(schema.is_consistent(&i));
    }

    #[test]
    fn empty_instance() {
        let (schema, _) = libloc();
        let empty = Instance::new(schema.signature().clone());
        let g = CsrConflictGraph::new(&schema, &empty);
        assert!(g.is_empty());
        assert!(g.is_repair(&empty.empty_set()));
    }
}
