//! CSR-packed conflict adjacency: the conflict graph sessions build,
//! keep, patch and check against.
//!
//! [`CsrConflictGraph`] stores each fact's conflict row as a sorted
//! `u32` neighbor list in compressed sparse row form — one neighbor
//! array plus per-fact offsets — and keeps a bitset row only for facts
//! whose degree exceeds a density threshold (where the bitset is at
//! most comparably sized and intersection wins). Memory is therefore
//! `O(n + e)` for `e` conflict edges on sparse instances, where a
//! bitset row per conflicted fact costs `Θ(n/8)` bytes regardless of
//! degree.
//!
//! [`CsrConflictGraph::new`] builds the rows straight from a sort-based
//! [`FdGrouping`] per relation and FD, with no bitset intermediate, and
//! [`CsrConflictGraph::patched`] carries them across a delta batch. The
//! bitset [`ConflictGraph`] remains the oracle's graph; the two are
//! pinned together by [`CsrConflictGraph::from_graph`] in tests.
//! Neighbor lists are sorted ascending, so "first conflicting member of
//! a set" queries return exactly the fact that
//! [`ConflictGraph::conflicts_in`]`.first()` would — the checkers rely
//! on this to keep witnesses bit-identical across representations.

use crate::conflicts::{ConflictGraph, ConflictRows};
use crate::grouping::FdGrouping;
use crate::schema::Schema;
use rpr_data::{FactId, FactSet, Instance};

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

    /// Packs an existing [`ConflictGraph`] into hybrid CSR form — the
    /// bridge from the oracle's bitset graph, used by tests to pin
    /// [`new`](Self::new) to it.
    pub fn from_graph(cg: &ConflictGraph) -> Self {
        let n = cg.len();
        let mut builder = Builder::new(n, 0);
        for i in 0..n {
            // FactSet iteration is ascending, so the row is sorted.
            builder.push_row(cg.conflicts_of(FactId(i as u32)).iter().map(|id| id.0));
        }
        builder.finish()
    }

    /// Builds the conflict graph of `instance` under `schema` straight
    /// into CSR form: one [`FdGrouping`] per relation and non-trivial
    /// FD, no bitset intermediate. Identical to
    /// `from_graph(&ConflictGraph::new(schema, instance))`.
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
    /// `ConflictGraph::edges().len()` without walking every bitset row.
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

    /// The minimal member of `set` conflicting with `id`.
    ///
    /// Agrees exactly with `ConflictGraph::conflicts_in(id, set).first()`
    /// because sparse rows are sorted ascending and bitset iteration is
    /// ascending.
    pub fn first_conflict_in(&self, id: FactId, set: &FactSet) -> Option<FactId> {
        match self.row(id) {
            Row::Sparse(s) => s.iter().map(|&g| FactId(g)).find(|&g| set.contains(g)),
            Row::Dense(bits) => bits.intersect(set).first(),
        }
    }

    /// The members of `set` conflicting with `id`, as a bitset.
    pub fn conflicts_in(&self, id: FactId, set: &FactSet) -> FactSet {
        match self.row(id) {
            Row::Sparse(s) => {
                let mut out = FactSet::empty(self.n);
                for &g in s {
                    let g = FactId(g);
                    if set.contains(g) {
                        out.insert(g);
                    }
                }
                out
            }
            Row::Dense(bits) => bits.intersect(set),
        }
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

    /// Repacks after a structural delta batch without re-deriving the
    /// rows the batch left alone.
    ///
    /// `old` is the pre-batch packing. Ids were densely renumbered by
    /// the batch: `old_to_new[o]` maps a surviving old id to its new id
    /// (`u32::MAX` if deleted) and `new_to_old[i]` the inverse
    /// (`u32::MAX` for facts inserted by the batch). Inserted facts hold
    /// the top ids, above every survivor, and `inserted[k]` is the full
    /// conflict row of the `k`-th of them — ascending, as
    /// [`scan_row`](Self::scan_row) returns it.
    ///
    /// A survivor's row is its old row — sparse or dense — remapped
    /// through `old_to_new`, plus its inserted neighbors, which sort
    /// after every survivor. Conflicts between two survivors depend only
    /// on their content, so nothing else can change: the result is
    /// identical to [`new`](Self::new) over the post-batch instance, in
    /// `O(n + e)`.
    pub fn patched(
        old: &CsrConflictGraph,
        old_to_new: &[u32],
        new_to_old: &[u32],
        inserted: &[Vec<u32>],
    ) -> Self {
        let n = new_to_old.len();
        let first_new = n - inserted.len();
        debug_assert!(new_to_old[..first_new].iter().all(|&o| o != u32::MAX));
        debug_assert!(new_to_old[first_new..].iter().all(|&o| o == u32::MAX));
        // (survivor, inserted neighbor), sorted: each survivor's extra
        // neighbors in ascending order.
        let mut extra: Vec<(u32, u32)> = inserted
            .iter()
            .zip(first_new as u32..)
            .flat_map(|(row, x)| {
                row.iter().take_while(|&&g| (g as usize) < first_new).map(move |&g| (g, x))
            })
            .collect();
        extra.sort_unstable();
        let added: usize = inserted.iter().map(Vec::len).sum();
        let mut builder = Builder::new(n, old.neighbors.len() + 2 * added);
        let mut extra = extra.into_iter().peekable();
        // Deleted neighbors map to u32::MAX and are dropped; renumbering
        // is order-preserving, so remapped rows stay sorted.
        let live = |g: u32| Some(old_to_new[g as usize]).filter(|&g| g != u32::MAX);
        for (i, &o) in new_to_old[..first_new].iter().enumerate() {
            let gained =
                std::iter::from_fn(|| extra.next_if(|&(v, _)| v as usize == i)).map(|(_, x)| x);
            match old.row(FactId(o)) {
                Row::Sparse(s) => builder.push_row(s.iter().filter_map(|&g| live(g)).chain(gained)),
                Row::Dense(bits) => {
                    builder.push_row(bits.iter().filter_map(|g| live(g.0)).chain(gained))
                }
            }
        }
        for row in inserted {
            builder.push_row(row.iter().copied());
        }
        builder.finish()
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

impl ConflictRows for CsrConflictGraph {
    fn len(&self) -> usize {
        self.n
    }

    fn neighbors(&self, id: FactId) -> impl Iterator<Item = FactId> + '_ {
        // One of the two halves is empty, as in `conflicts_among`.
        let (sparse, dense): (&[u32], _) = match self.row(id) {
            Row::Sparse(s) => (s, None),
            Row::Dense(bits) => (&[], Some(bits.iter())),
        };
        sparse.iter().map(|&g| FactId(g)).chain(dense.into_iter().flatten())
    }

    fn conflicts_with_set(&self, id: FactId, set: &FactSet) -> bool {
        CsrConflictGraph::conflicts_with_set(self, id, set)
    }

    fn conflicts_among<'a>(
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

    /// Rebuilds the layout after a structural delta batch, re-running
    /// the component DFS only inside components the batch touched.
    ///
    /// `touched_old[c]` marks pre-batch components that lost a member,
    /// gained an edge to an inserted fact, or otherwise changed;
    /// members of untouched components are renumbered in place (the
    /// dense renumbering is order-preserving, so sortedness and the
    /// min-member component order survive). Inserted facts (where
    /// `new_to_old` is `u32::MAX`) are always re-derived.
    ///
    /// Returns the layout plus the number of untouched *nontrivial*
    /// pre-batch components that were reused without a DFS — the
    /// per-shard skip count surfaced through delta reports and serve
    /// metrics. The result is bit-identical to `from_csr(csr)`.
    pub fn patched(
        old: &ComponentLayout,
        csr: &CsrConflictGraph,
        old_to_new: &[u32],
        new_to_old: &[u32],
        touched_old: &[bool],
    ) -> (Self, usize) {
        let n = csr.len();
        debug_assert_eq!(n, new_to_old.len());
        debug_assert_eq!(old.len(), touched_old.len());
        // Canonical label of each fact's component: its minimal member.
        let mut label = vec![u32::MAX; n];
        let mut reused = 0usize;
        for (c, &dirty) in touched_old.iter().enumerate() {
            if dirty {
                continue;
            }
            let members = old.component(c);
            // Untouched components lost no members, so every mapping is
            // live, and order preservation makes the first member the
            // minimal one after renumbering too.
            let lead = old_to_new[members[0].index()];
            debug_assert_ne!(lead, u32::MAX);
            for &m in members {
                label[old_to_new[m.index()] as usize] = lead;
            }
            if members.len() > 1 {
                reused += 1;
            }
        }
        // DFS the touched region over the patched adjacency. Edges
        // cannot escape into untouched components: an old edge would
        // have put both endpoints in the same (touched) component, and
        // new edges only involve inserted facts, whose neighbors'
        // components are marked touched by the caller.
        let mut visited = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut members: Vec<u32> = Vec::new();
        for i in 0..n {
            if label[i] != u32::MAX || visited[i] {
                continue;
            }
            visited[i] = true;
            stack.push(i as u32);
            members.clear();
            while let Some(v) = stack.pop() {
                members.push(v);
                match csr.row(FactId(v)) {
                    Row::Sparse(s) => {
                        for &g in s {
                            if !visited[g as usize] {
                                debug_assert_eq!(label[g as usize], u32::MAX);
                                visited[g as usize] = true;
                                stack.push(g);
                            }
                        }
                    }
                    Row::Dense(bits) => {
                        for g in bits.iter() {
                            if !visited[g.index()] {
                                debug_assert_eq!(label[g.index()], u32::MAX);
                                visited[g.index()] = true;
                                stack.push(g.0);
                            }
                        }
                    }
                }
            }
            // The DFS started from the minimal unlabeled member, but
            // the component may contain smaller ids discovered later in
            // the walk — take the true minimum as the label.
            let lead = *members.iter().min().unwrap();
            for &m in &members {
                label[m as usize] = lead;
            }
        }
        // Flatten: scanning ascending, a fact equal to its label is the
        // lead of a fresh component, and leads appear in min-member
        // order — exactly the from_csr component order.
        let mut index_of = vec![u32::MAX; n];
        let mut sizes: Vec<u32> = Vec::new();
        for (f, &l) in label.iter().enumerate() {
            if l == f as u32 {
                index_of[f] = sizes.len() as u32;
                sizes.push(0);
            }
        }
        for &l in &label {
            sizes[index_of[l as usize] as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        offsets.push(0u32);
        for &s in &sizes {
            offsets.push(offsets.last().unwrap() + s);
        }
        let mut cursor: Vec<u32> = offsets[..sizes.len()].to_vec();
        let mut facts = vec![FactId(0); n];
        let mut comp_of = vec![u32::MAX; n];
        for (f, &l) in label.iter().enumerate() {
            let c = index_of[l as usize];
            facts[cursor[c as usize] as usize] = FactId(f as u32);
            cursor[c as usize] += 1;
            comp_of[f] = c;
        }
        let nontrivial = (0..sizes.len() as u32).filter(|&c| sizes[c as usize] > 1).collect();
        (ComponentLayout { offsets, facts, comp_of, nontrivial }, reused)
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
    use rpr_data::{Signature, Value};

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
        let cg = ConflictGraph::new(&schema, &i);
        let csr = CsrConflictGraph::from_graph(&cg);
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
        let cg = ConflictGraph::new(&schema, &inst);
        let csr = CsrConflictGraph::from_graph(&cg);
        assert_eq!(csr.dense_row_count(), 0);
        assert_eq!(csr.packed_neighbor_count(), 200);
        assert_eq!(ComponentLayout::from_csr(&csr).len(), 100);
        for (a, b) in cg.edges() {
            assert!(csr.conflicting(a, b));
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

    #[test]
    fn queries_agree_with_bitset_graph() {
        let (schema, i) = star(40);
        let cg = ConflictGraph::new(&schema, &i);
        let csr = CsrConflictGraph::from_graph(&cg);
        let set = i.set_of([FactId(3), FactId(17), FactId(29)]);
        for f in i.fact_ids() {
            assert_eq!(csr.first_conflict_in(f, &set), cg.conflicts_in(f, &set).first(),);
            assert_eq!(csr.conflicts_with_set(f, &set), cg.conflicts_with_set(f, &set));
            assert_eq!(csr.degree(f), cg.conflicts_of(f).len());
        }
        assert_eq!(csr.is_consistent_set(&set), cg.is_consistent_set(&set));
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

    /// One structural op of a delta batch.
    enum Op {
        Delete(u32),
        Insert(&'static str, &'static str),
    }

    /// Applies `ops` as one batch and checks the patched packing
    /// against a from-scratch build of the mutated instance.
    fn assert_patch_matches_cold(schema: &Schema, i: &mut Instance, ops: &[Op]) {
        let old = CsrConflictGraph::new(schema, i);
        let mut new_to_old: Vec<u32> = (0..i.len() as u32).collect();
        for op in ops {
            match *op {
                Op::Delete(d) => {
                    i.remove_fact(FactId(d));
                    new_to_old.remove(d as usize);
                }
                Op::Insert(a, b) => {
                    i.insert_named("LibLoc", [Value::sym(a), Value::sym(b)]).unwrap();
                    new_to_old.push(u32::MAX);
                }
            }
        }
        let mut old_to_new = vec![u32::MAX; old.len()];
        for (n, &o) in new_to_old.iter().enumerate() {
            if o != u32::MAX {
                old_to_new[o as usize] = n as u32;
            }
        }
        let first_new = new_to_old.iter().position(|&o| o == u32::MAX).unwrap_or(i.len());
        let inserted: Vec<Vec<u32>> = (first_new..i.len())
            .map(|x| CsrConflictGraph::scan_row(schema, i, FactId(x as u32)))
            .collect();
        let patched = CsrConflictGraph::patched(&old, &old_to_new, &new_to_old, &inserted);
        assert_eq!(patched, CsrConflictGraph::new(schema, i));
        assert_eq!(patched, CsrConflictGraph::from_graph(&ConflictGraph::new(schema, i)));
    }

    #[test]
    fn patched_deletes_match_cold_build() {
        let (schema, mut i) = libloc();
        // A fact from the middle, then from the front, one batch each.
        assert_patch_matches_cold(&schema, &mut i, &[Op::Delete(2)]);
        assert_patch_matches_cold(&schema, &mut i, &[Op::Delete(0)]);
    }

    #[test]
    fn patched_inserts_match_cold_build() {
        let (schema, mut i) = libloc();
        for (a, b) in [("lib4", "almaden"), ("lib1", "downtown"), ("lib9", "nowhere")] {
            assert_patch_matches_cold(&schema, &mut i, &[Op::Insert(a, b)]);
        }
        // Several inserts conflicting with each other in one batch.
        let batch = [Op::Insert("lib5", "x"), Op::Insert("lib5", "y"), Op::Insert("lib6", "x")];
        assert_patch_matches_cold(&schema, &mut i, &batch);
    }

    #[test]
    fn patched_interleaved_batches_match_cold_build() {
        let (schema, mut i) = libloc();
        let batch = [Op::Delete(5), Op::Insert("lib2", "cambrian"), Op::Delete(1)];
        assert_patch_matches_cold(&schema, &mut i, &batch);
        // Delete a fact and re-insert its content in the same batch; an
        // insert deleted again before the batch ends leaves no trace.
        let batch = [Op::Delete(0), Op::Insert("lib1", "almaden"), Op::Insert("lib7", "q")];
        assert_patch_matches_cold(&schema, &mut i, &batch);
        let last = i.len() as u32 - 1;
        assert_patch_matches_cold(&schema, &mut i, &[Op::Insert("lib7", "r"), Op::Delete(last)]);
    }

    #[test]
    fn patched_remaps_dense_rows() {
        // A 41-clique is dense; deleting and inserting members must
        // remap old bitset rows and re-pack them.
        let (schema, mut i) = star(40);
        assert_eq!(CsrConflictGraph::new(&schema, &i).dense_row_count(), 41);
        let mut old = CsrConflictGraph::new(&schema, &i);
        i.remove_fact(FactId(3));
        let id = i.insert_named("R", [Value::sym("hub"), Value::Int(99)]).unwrap();
        let mut new_to_old: Vec<u32> = (0..41).filter(|&o| o != 3).collect();
        new_to_old.push(u32::MAX);
        let old_to_new: Vec<u32> =
            (0..41u32).map(|o| if o == 3 { u32::MAX } else { o - u32::from(o > 3) }).collect();
        assert_eq!(id, FactId(40));
        let inserted = [CsrConflictGraph::scan_row(&schema, &i, id)];
        old = CsrConflictGraph::patched(&old, &old_to_new, &new_to_old, &inserted);
        assert_eq!(old, CsrConflictGraph::new(&schema, &i));
        assert_eq!(old.dense_row_count(), 41);
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
    fn direct_build_matches_bitset_packing() {
        for (schema, i) in [star(200), star(3), libloc()] {
            let cg = ConflictGraph::new(&schema, &i);
            assert_eq!(CsrConflictGraph::new(&schema, &i), CsrConflictGraph::from_graph(&cg));
        }
    }
}
