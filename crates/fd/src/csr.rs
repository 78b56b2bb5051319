//! CSR-packed conflict adjacency.
//!
//! [`ConflictGraph`] stores one bitset row per conflicted fact, which
//! makes set intersections word-parallel but costs `Θ(n/8)` bytes per
//! row regardless of degree. Check workloads that probe the same graph
//! thousands of times (see `rpr-core::session`) are dominated by
//! walking *sparse* rows, where a flat sorted neighbor list is both
//! smaller and faster to scan.
//!
//! [`CsrConflictGraph`] packs the same adjacency into compressed
//! sparse row form — one `u32` neighbor array plus per-fact offsets —
//! and keeps a bitset row only for facts whose degree exceeds a
//! density threshold (where the bitset is at most comparably sized and
//! intersection wins). Neighbor lists are sorted ascending, so
//! "first conflicting member of a set" queries return exactly the fact
//! that [`ConflictGraph::conflicts_in`]`.first()` would — the checkers
//! rely on this to keep witnesses bit-identical across representations.

use crate::conflicts::{ConflictGraph, ConflictRows};
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
#[derive(Clone, PartialEq)]
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

    /// Packs an existing [`ConflictGraph`] into hybrid CSR form.
    pub fn from_graph(cg: &ConflictGraph) -> Self {
        let n = cg.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        let mut dense_idx = vec![SPARSE; n];
        let mut dense_rows = Vec::new();
        offsets.push(0u32);
        for (i, slot) in dense_idx.iter_mut().enumerate() {
            let row = cg.conflicts_of(FactId(i as u32));
            let degree = row.len();
            if Self::is_dense(degree, n) {
                *slot = dense_rows.len() as u32;
                dense_rows.push(row.clone());
            } else {
                // FactSet iteration is ascending, so the list is sorted.
                neighbors.extend(row.iter().map(|id| id.0));
            }
            offsets.push(neighbors.len() as u32);
        }
        neighbors.shrink_to_fit();
        CsrConflictGraph { n, offsets, neighbors, dense_idx, dense_rows }
    }

    /// Builds the conflict graph of `instance` under `schema` and packs
    /// it. Convenience for callers that never need the bitset-only
    /// original.
    pub fn new(schema: &Schema, instance: &Instance) -> Self {
        Self::from_graph(&ConflictGraph::new(schema, instance))
    }

    /// Number of facts (vertices).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the graph over an empty instance?
    pub fn is_empty(&self) -> bool {
        self.n == 0
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

    /// Incrementally repack after a structural delta batch, reusing the
    /// neighbor lists of rows the batch did not touch.
    ///
    /// `cg` is the already-patched bitset graph (the source of truth),
    /// `old` the pre-batch packing. Ids were densely renumbered by the
    /// batch: `old_to_new[o]` maps a surviving old id to its new id
    /// (`u32::MAX` if deleted) and `new_to_old[i]` the inverse
    /// (`u32::MAX` for facts inserted by the batch). `rederive` holds
    /// the new ids whose adjacency actually changed shape (inserted
    /// facts and their neighbors); every other surviving sparse row is
    /// produced by remapping the old list through `old_to_new`, which
    /// costs `O(degree)` instead of an `O(n/64)` bitset walk.
    ///
    /// The result is bit-identical to `from_graph(cg)`.
    pub fn patched(
        old: &CsrConflictGraph,
        cg: &ConflictGraph,
        old_to_new: &[u32],
        new_to_old: &[u32],
        rederive: &FactSet,
    ) -> Self {
        let n = cg.len();
        debug_assert_eq!(n, new_to_old.len());
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        let mut dense_idx = vec![SPARSE; n];
        let mut dense_rows = Vec::new();
        offsets.push(0u32);
        for (i, slot) in dense_idx.iter_mut().enumerate() {
            let o = new_to_old[i];
            let remap: Option<&[u32]> = if o != u32::MAX && !rederive.contains(FactId(i as u32)) {
                match old.row(FactId(o)) {
                    // Deleted neighbors map to u32::MAX and are dropped
                    // below; renumbering is order-preserving, so the
                    // mapped list stays sorted.
                    Row::Sparse(s) => Some(s),
                    // An old dense row: the patched bitset row is the
                    // same data, so fall through to the derive path.
                    Row::Dense(_) => None,
                }
            } else {
                None
            };
            match remap {
                Some(s) => {
                    let start = neighbors.len();
                    neighbors.extend(
                        s.iter().map(|&g| old_to_new[g as usize]).filter(|&g| g != u32::MAX),
                    );
                    let degree = neighbors.len() - start;
                    if Self::is_dense(degree, n) {
                        neighbors.truncate(start);
                        *slot = dense_rows.len() as u32;
                        dense_rows.push(cg.conflicts_of(FactId(i as u32)).clone());
                    }
                }
                None => {
                    let row = cg.conflicts_of(FactId(i as u32));
                    if Self::is_dense(row.len(), n) {
                        *slot = dense_rows.len() as u32;
                        dense_rows.push(row.clone());
                    } else {
                        neighbors.extend(row.iter().map(|id| id.0));
                    }
                }
            }
            offsets.push(neighbors.len() as u32);
        }
        neighbors.shrink_to_fit();
        CsrConflictGraph { n, offsets, neighbors, dense_idx, dense_rows }
    }
}

impl ConflictRows for CsrConflictGraph {
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
#[derive(Clone, PartialEq)]
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

    /// The canonical 128-bit content address of component `c`: a hash
    /// over the member facts' *contents* (relation name + tuple values,
    /// order-insensitive), the FDs of every relation present in the
    /// component, and the intra-component `priority` edges as ordered
    /// pairs of fact contents. Two components — in the same workspace
    /// or across workspaces with entirely different `FactId`
    /// numberings — get the same fingerprint iff they describe the same
    /// shard-local checking problem, which is what lets the shard store
    /// share one artifact between them.
    ///
    /// `priority` is the workspace's full edge list; edges with either
    /// endpoint outside the component are ignored. Edges are hashed by
    /// endpoint content, so renumbering-invariant.
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
        let facts_fp =
            combine_unordered(members.iter().map(|&f| fingerprint_fact(sig, instance.fact(f))));
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
}
