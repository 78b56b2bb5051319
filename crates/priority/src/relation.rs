//! Priority relations (§2.3).
//!
//! A priority on an instance `I` is an **acyclic** binary relation `≻`
//! on the facts of `I`; `f ≻ g` reads "`f` has higher priority than
//! `g`". Acyclicity is part of the definition — a cyclic relation is
//! rejected at construction time.

use rpr_data::{Compaction, FactId, FactSet, FxHashMap, FxHashSet};
use std::collections::hash_map::Entry;
use std::fmt;

/// Errors raised while building priority relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PriorityError {
    /// The relation has a cycle `f1 ≻ f2 ≻ … ≻ fk ≻ f1` (including
    /// self-loops `f ≻ f`).
    Cyclic {
        /// One cycle witnessing the violation, in order.
        cycle: Vec<FactId>,
    },
    /// An edge referred to a fact id outside the instance.
    OutOfRange(FactId),
    /// A priority edge joins two non-conflicting facts, which the
    /// classical (conflict-restricted) model of §2.3 forbids.
    NotConflicting(FactId, FactId),
}

impl fmt::Display for PriorityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorityError::Cyclic { cycle } => {
                write!(f, "priority relation has a cycle through {} facts", cycle.len())
            }
            PriorityError::OutOfRange(id) => {
                write!(f, "priority edge mentions fact id {} outside the instance", id.0)
            }
            PriorityError::NotConflicting(a, b) => write!(
                f,
                "priority edge {} ≻ {} joins non-conflicting facts (use a ccp-instance for that)",
                a.0, b.0
            ),
        }
    }
}

impl std::error::Error for PriorityError {}

/// An acyclic priority relation over the facts `0..n` of an instance.
///
/// ```
/// use rpr_data::FactId;
/// use rpr_priority::{PriorityError, PriorityRelation};
///
/// let p = PriorityRelation::new(3, [(FactId(0), FactId(1))]).unwrap();
/// assert!(p.prefers(FactId(0), FactId(1)));
/// assert!(!p.prefers(FactId(1), FactId(0)));
///
/// // Cycles are rejected with a witness (§2.3 demands acyclicity).
/// let err = PriorityRelation::new(2, [(FactId(0), FactId(1)), (FactId(1), FactId(0))]);
/// assert!(matches!(err, Err(PriorityError::Cyclic { .. })));
/// ```
#[derive(Clone)]
pub struct PriorityRelation {
    n: usize,
    /// `worse[f]` = facts `g` with `f ≻ g`.
    worse: Vec<Vec<FactId>>,
    /// `better[g]` = facts `f` with `f ≻ g`.
    better: Vec<Vec<FactId>>,
    /// All edges as a hash set for O(1) `prefers` queries.
    edge_set: FxHashSet<(u32, u32)>,
    /// Canonical edge list in insertion order.
    edges: Vec<(FactId, FactId)>,
}

impl PriorityRelation {
    /// Builds a priority relation from edges `f ≻ g`, rejecting cycles
    /// and out-of-range ids.
    ///
    /// # Errors
    /// [`PriorityError::Cyclic`] or [`PriorityError::OutOfRange`].
    pub fn new<I>(n: usize, edge_iter: I) -> Result<Self, PriorityError>
    where
        I: IntoIterator<Item = (FactId, FactId)>,
    {
        let edge_iter = edge_iter.into_iter();
        let hint = edge_iter.size_hint().0;
        let mut rel = PriorityRelation {
            n,
            worse: vec![Vec::new(); n],
            better: vec![Vec::new(); n],
            edge_set: FxHashSet::with_capacity_and_hasher(hint, Default::default()),
            edges: Vec::with_capacity(hint),
        };
        for (f, g) in edge_iter {
            if f.index() >= n {
                return Err(PriorityError::OutOfRange(f));
            }
            if g.index() >= n {
                return Err(PriorityError::OutOfRange(g));
            }
            if rel.edge_set.insert((f.0, g.0)) {
                rel.worse[f.index()].push(g);
                rel.better[g.index()].push(f);
                rel.edges.push((f, g));
            }
        }
        if let Some(cycle) = rel.find_cycle() {
            return Err(PriorityError::Cyclic { cycle });
        }
        Ok(rel)
    }

    /// The empty priority over `n` facts.
    pub fn empty(n: usize) -> Self {
        PriorityRelation::new(n, []).expect("empty relation is acyclic")
    }

    /// Number of facts the relation ranges over.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Is the relation over an empty instance?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Does `f ≻ g` hold?
    pub fn prefers(&self, f: FactId, g: FactId) -> bool {
        self.edge_set.contains(&(f.0, g.0))
    }

    /// The facts worse than `f` (i.e. `{g : f ≻ g}`).
    pub fn worse_than(&self, f: FactId) -> &[FactId] {
        &self.worse[f.index()]
    }

    /// The facts better than `g` (i.e. `{f : f ≻ g}`).
    pub fn better_than(&self, g: FactId) -> &[FactId] {
        &self.better[g.index()]
    }

    /// All edges `(f, g)` with `f ≻ g`, in insertion order.
    pub fn edges(&self) -> &[(FactId, FactId)] {
        &self.edges
    }

    /// Is some member of `set` better than `g`?
    pub fn set_improves(&self, set: &FactSet, g: FactId) -> bool {
        self.better[g.index()].iter().any(|f| set.contains(*f))
    }

    /// Does `f` beat every member of `set`?
    pub fn beats_all(&self, f: FactId, set: &FactSet) -> bool {
        set.iter().all(|g| self.prefers(f, g))
    }

    /// Is `f` maximal within `set` (no member of `set` is better)?
    pub fn is_maximal_in(&self, f: FactId, set: &FactSet) -> bool {
        !self.better[f.index()].iter().any(|g| set.contains(*g))
    }

    /// Extends the relation's universe to `n` facts (new facts carry no
    /// edges). Used by the delta path when a fact is appended.
    pub fn grow(&mut self, n: usize) {
        assert!(n >= self.n, "grow cannot shrink the relation");
        self.worse.resize(n, Vec::new());
        self.better.resize(n, Vec::new());
        self.n = n;
    }

    /// Adds the edge `f ≻ g`, preserving acyclicity.
    ///
    /// A duplicate edge is a silent no-op (callers wanting to reject
    /// duplicates should consult [`prefers`](Self::prefers) first).
    ///
    /// # Errors
    /// [`PriorityError::OutOfRange`] for ids outside the universe;
    /// [`PriorityError::Cyclic`] (with a witness) if `g` already
    /// reaches `f`, in which case the relation is unchanged.
    pub fn insert_edge(&mut self, f: FactId, g: FactId) -> Result<(), PriorityError> {
        if f.index() >= self.n {
            return Err(PriorityError::OutOfRange(f));
        }
        if g.index() >= self.n {
            return Err(PriorityError::OutOfRange(g));
        }
        if self.edge_set.contains(&(f.0, g.0)) {
            return Ok(());
        }
        if let Some(path) = self.path_between(g, f) {
            // path = g ≻ … ≻ f; the new edge f ≻ g closes the cycle.
            return Err(PriorityError::Cyclic { cycle: path });
        }
        self.edge_set.insert((f.0, g.0));
        self.worse[f.index()].push(g);
        self.better[g.index()].push(f);
        self.edges.push((f, g));
        Ok(())
    }

    /// Removes the edge `f ≻ g`; returns whether it was present.
    pub fn remove_edge(&mut self, f: FactId, g: FactId) -> bool {
        if !self.edge_set.remove(&(f.0, g.0)) {
            return false;
        }
        self.worse[f.index()].retain(|&x| x != g);
        self.better[g.index()].retain(|&x| x != f);
        self.edges.retain(|&e| e != (f, g));
        true
    }

    /// Applies a delta batch's [`Compaction`] (see
    /// [`Instance::remove_facts`](rpr_data::Instance::remove_facts)):
    /// the removed facts leave the universe and every later id closes
    /// up — the same dense layout a rebuild over the compacted instance
    /// produces. Edges and the `prefers` index are renumbered only when
    /// some edge endpoint actually moves, and then once for the whole
    /// batch.
    ///
    /// # Panics
    /// Panics if the compaction is over another universe, or if a
    /// removed fact still has incident edges; the delta layer rejects
    /// such deletes before getting here.
    pub fn remove_facts(&mut self, c: &Compaction) {
        assert_eq!(c.before(), self.n, "compaction over another universe");
        for d in c.removed() {
            assert!(
                self.worse[d.index()].is_empty() && self.better[d.index()].is_empty(),
                "remove_facts: fact {} still has priority edges",
                d.0
            );
        }
        c.compact_vec(&mut self.worse);
        c.compact_vec(&mut self.better);
        self.n = c.after();
        let first = c.first();
        if self.edges.iter().all(|&(a, b)| a.index() < first && b.index() < first) {
            return;
        }
        let new_id = |id: FactId| c.new_id(id).expect("edge endpoints survive");
        for (a, b) in self.edges.iter_mut() {
            (*a, *b) = (new_id(*a), new_id(*b));
        }
        // Each row lists its edges in edge-list order: rebuild the
        // non-empty ones from the renumbered list.
        for &(a, b) in &self.edges {
            self.worse[a.index()].clear();
            self.better[b.index()].clear();
        }
        for &(a, b) in &self.edges {
            self.worse[a.index()].push(b);
            self.better[b.index()].push(a);
        }
        self.edge_set = self.edges.iter().map(|&(a, b)| (a.0, b.0)).collect();
    }

    /// A directed path `from ≻ … ≻ to`, if one exists: the first one a
    /// depth-first search from `from` reaches. The parents live in a
    /// map, so a search costs what it reaches, not the universe.
    fn path_between(&self, from: FactId, to: FactId) -> Option<Vec<FactId>> {
        if from == to {
            return Some(vec![from]);
        }
        if self.worse[from.index()].is_empty() || self.better[to.index()].is_empty() {
            return None;
        }
        let mut parent: FxHashMap<FactId, FactId> = FxHashMap::default();
        let mut stack = vec![from];
        parent.insert(from, from);
        while let Some(node) = stack.pop() {
            for &succ in &self.worse[node.index()] {
                if let Entry::Vacant(slot) = parent.entry(succ) {
                    slot.insert(node);
                    if succ == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while cur != from {
                            cur = parent[&cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    stack.push(succ);
                }
            }
        }
        None
    }

    /// A topological order of the facts (better facts first). `None` is
    /// impossible for a constructed relation (acyclicity is enforced),
    /// so this returns the order directly.
    pub fn topological_order(&self) -> Vec<FactId> {
        self.try_topological_order().expect("constructed relations are acyclic")
    }

    fn try_topological_order(&self) -> Option<Vec<FactId>> {
        let mut indegree: Vec<usize> = vec![0; self.n];
        for &(_, g) in &self.edges {
            indegree[g.index()] += 1;
        }
        let mut queue: Vec<FactId> =
            (0..self.n as u32).map(FactId).filter(|f| indegree[f.index()] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(f) = queue.pop() {
            order.push(f);
            for &g in &self.worse[f.index()] {
                indegree[g.index()] -= 1;
                if indegree[g.index()] == 0 {
                    queue.push(g);
                }
            }
        }
        if order.len() == self.n {
            Some(order)
        } else {
            None
        }
    }

    /// Finds a cycle, if any (used during construction): the first back
    /// edge of a depth-first search that starts from each fact in id
    /// order. One stack serves every start, and a fact with no `worse`
    /// edge starts none, since no cycle leaves it.
    fn find_cycle(&self) -> Option<Vec<FactId>> {
        // Iterative DFS with colors; parent chain recovers the cycle.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        if self.edges.is_empty() {
            return None;
        }
        let mut color = vec![WHITE; self.n];
        let mut parent: Vec<Option<FactId>> = vec![None; self.n];
        let mut stack: Vec<(FactId, usize)> = Vec::new();
        for start in 0..self.n {
            if color[start] != WHITE || self.worse[start].is_empty() {
                continue;
            }
            stack.push((FactId(start as u32), 0));
            color[start] = GRAY;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < self.worse[node.index()].len() {
                    let succ = self.worse[node.index()][*next];
                    *next += 1;
                    match color[succ.index()] {
                        WHITE => {
                            color[succ.index()] = GRAY;
                            parent[succ.index()] = Some(node);
                            stack.push((succ, 0));
                        }
                        GRAY => {
                            // Found a back edge node → succ; walk parents.
                            let mut cycle = vec![node];
                            let mut cur = node;
                            while cur != succ {
                                cur = parent[cur.index()].expect("gray chain");
                                cycle.push(cur);
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        _ => {}
                    }
                } else {
                    color[node.index()] = BLACK;
                    stack.pop();
                }
            }
        }
        None
    }
}

impl fmt::Debug for PriorityRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Priority[{} facts; ", self.n)?;
        for (i, (a, b)) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}≻{}", a.0, b.0)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FactId {
        FactId(i)
    }

    #[test]
    fn basic_queries() {
        let p = PriorityRelation::new(4, [(f(0), f(1)), (f(0), f(2)), (f(3), f(1))]).unwrap();
        assert!(p.prefers(f(0), f(1)));
        assert!(!p.prefers(f(1), f(0)));
        assert_eq!(p.worse_than(f(0)), &[f(1), f(2)]);
        assert_eq!(p.better_than(f(1)), &[f(0), f(3)]);
        assert_eq!(p.edge_count(), 3);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let p = PriorityRelation::new(2, [(f(0), f(1)), (f(0), f(1))]).unwrap();
        assert_eq!(p.edge_count(), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let err = PriorityRelation::new(1, [(f(0), f(0))]).unwrap_err();
        assert!(matches!(err, PriorityError::Cyclic { cycle } if cycle == vec![f(0)]));
    }

    #[test]
    fn long_cycle_rejected_with_witness() {
        let err =
            PriorityRelation::new(4, [(f(0), f(1)), (f(1), f(2)), (f(2), f(0)), (f(2), f(3))])
                .unwrap_err();
        match err {
            PriorityError::Cyclic { cycle } => {
                assert_eq!(cycle.len(), 3);
                // Verify the cycle is genuine edge-wise.
                let p =
                    PriorityRelation::new(4, [(f(0), f(1)), (f(1), f(2)), (f(2), f(3))]).unwrap();
                let _ = p; // edges of the reported cycle come from the input
                for w in cycle.windows(2) {
                    assert!([(0, 1), (1, 2), (2, 0)].contains(&(w[0].0 as usize, w[1].0 as usize)));
                }
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            PriorityRelation::new(2, [(f(0), f(5))]),
            Err(PriorityError::OutOfRange(_))
        ));
    }

    #[test]
    fn set_queries() {
        let p = PriorityRelation::new(4, [(f(0), f(1)), (f(0), f(2))]).unwrap();
        let mut set = FactSet::empty(4);
        set.insert(f(1));
        set.insert(f(2));
        assert!(p.beats_all(f(0), &set));
        assert!(!p.beats_all(f(3), &set));
        assert!(p.set_improves(
            &{
                let mut s = FactSet::empty(4);
                s.insert(f(0));
                s
            },
            f(1)
        ));
        assert!(p.is_maximal_in(f(0), &set));
        assert!(!p.is_maximal_in(f(1), &{
            let mut s = FactSet::empty(4);
            s.insert(f(0));
            s
        }));
    }

    #[test]
    fn topological_order_respects_edges() {
        let p = PriorityRelation::new(5, [(f(0), f(1)), (f(1), f(2)), (f(3), f(2)), (f(2), f(4))])
            .unwrap();
        let order = p.topological_order();
        assert_eq!(order.len(), 5);
        let pos: Vec<usize> = {
            let mut pos = vec![0; 5];
            for (i, id) in order.iter().enumerate() {
                pos[id.index()] = i;
            }
            pos
        };
        for &(a, b) in p.edges() {
            assert!(pos[a.index()] < pos[b.index()], "{a:?} must precede {b:?}");
        }
    }

    #[test]
    fn incremental_edges_match_fresh_build() {
        let mut p = PriorityRelation::empty(4);
        p.insert_edge(f(0), f(1)).unwrap();
        p.insert_edge(f(2), f(1)).unwrap();
        p.insert_edge(f(1), f(3)).unwrap();
        let fresh = PriorityRelation::new(4, [(f(0), f(1)), (f(2), f(1)), (f(1), f(3))]).unwrap();
        assert_eq!(p.edges(), fresh.edges());
        // Closing a cycle is rejected and leaves the relation unchanged.
        let err = p.insert_edge(f(3), f(0)).unwrap_err();
        assert!(matches!(err, PriorityError::Cyclic { cycle } if cycle == vec![f(0), f(1), f(3)]));
        assert_eq!(p.edges(), fresh.edges());
        // Self-loops too.
        assert!(matches!(p.insert_edge(f(2), f(2)), Err(PriorityError::Cyclic { .. })));
        // Duplicates are a no-op.
        p.insert_edge(f(0), f(1)).unwrap();
        assert_eq!(p.edge_count(), 3);
    }

    #[test]
    fn remove_edge_and_reinsert() {
        let mut p = PriorityRelation::new(3, [(f(0), f(1)), (f(1), f(2))]).unwrap();
        assert!(p.remove_edge(f(0), f(1)));
        assert!(!p.remove_edge(f(0), f(1)));
        assert!(!p.prefers(f(0), f(1)));
        assert_eq!(p.edges(), &[(f(1), f(2))]);
        // Removal re-enables the reverse direction.
        p.insert_edge(f(2), f(0)).unwrap();
        p.insert_edge(f(1), f(0)).unwrap();
        assert_eq!(p.worse_than(f(1)), &[f(2), f(0)]);
    }

    #[test]
    fn grow_and_remove_facts_renumber() {
        let mut p = PriorityRelation::new(3, [(f(0), f(2))]).unwrap();
        p.grow(5);
        p.insert_edge(f(4), f(3)).unwrap();
        // Remove fact 1 (no incident edges): ids above shift down.
        p.remove_facts(&Compaction::new(5, [f(1)]));
        let fresh = PriorityRelation::new(4, [(f(0), f(1)), (f(3), f(2))]).unwrap();
        assert_eq!(p.edges(), fresh.edges());
        assert!(p.prefers(f(0), f(1)));
        assert!(p.prefers(f(3), f(2)));
        assert_eq!(p.len(), 4);
        assert_eq!(p.better_than(f(1)), &[f(0)]);
    }

    #[test]
    #[should_panic(expected = "still has priority edges")]
    fn remove_facts_with_edges_panics() {
        let mut p = PriorityRelation::new(2, [(f(0), f(1))]).unwrap();
        p.remove_facts(&Compaction::new(2, [f(0)]));
    }

    /// Every query of `p` equals the same query of `q`.
    fn assert_same_relation(p: &PriorityRelation, q: &PriorityRelation) {
        assert_eq!(p.len(), q.len());
        assert_eq!(p.edges(), q.edges());
        for a in (0..p.len() as u32).map(f) {
            assert_eq!(p.worse_than(a), q.worse_than(a));
            assert_eq!(p.better_than(a), q.better_than(a));
            for b in (0..p.len() as u32).map(f) {
                assert_eq!(p.prefers(a, b), q.prefers(a, b));
            }
        }
    }

    proptest::proptest! {
        /// A compaction equals a rebuild from the renumbered edge list,
        /// whichever edge-free facts it removes.
        #[test]
        fn remove_facts_matches_a_rebuild_from_the_renumbered_edges(
            n in 1usize..40,
            raw_edges in proptest::collection::vec((0usize..40, 0usize..40), 0..60),
            picks in proptest::collection::vec(0usize..40, 0..12),
        ) {
            // Down-pointing edges stay acyclic; unprefer a few so rows
            // see removals too.
            let edges: Vec<(FactId, FactId)> = raw_edges
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .filter(|(a, b)| a < b)
                .map(|(a, b)| (f(a as u32), f(b as u32)))
                .collect();
            let mut p = PriorityRelation::new(n, edges.iter().copied()).unwrap();
            for &(a, b) in edges.iter().step_by(3) {
                p.remove_edge(a, b);
            }
            let incident = |x: FactId| !p.worse_than(x).is_empty() || !p.better_than(x).is_empty();
            let mut removed: Vec<FactId> =
                picks.into_iter().map(|k| f((k % n) as u32)).filter(|&x| !incident(x)).collect();
            removed.sort_unstable();
            removed.dedup();
            let c = Compaction::new(n, removed.iter().copied());
            let renumbered: Vec<(FactId, FactId)> = p
                .edges()
                .iter()
                .map(|&(a, b)| (c.new_id(a).unwrap(), c.new_id(b).unwrap()))
                .collect();
            let want = PriorityRelation::new(c.after(), renumbered).unwrap();
            p.remove_facts(&c);
            assert_same_relation(&p, &want);
        }
    }

    #[test]
    fn empty_relation() {
        let p = PriorityRelation::empty(3);
        assert_eq!(p.edge_count(), 0);
        assert_eq!(p.topological_order().len(), 3);
        assert!(PriorityRelation::empty(0).is_empty());
    }
}
