//! Differential test: `GRepCheck1FD` as one pass over the flat grouping
//! against the three-pass check over nested blocks it replaced (kept in
//! `reference/`).
//!
//! Random single-FD relations (empty, one- and two-attribute lhs) with
//! random conflict-restricted priorities are checked on candidates of
//! every kind — inconsistent, non-maximal, improvable and optimal — by
//! the one-shot entry points and by sessions at one and four jobs; every
//! outcome, witness included, must equal the oracle's. Large instances
//! (past the session's parallel threshold) exercise the fanned-out
//! group scan. Random insert/delete batches with compaction must leave
//! the patched grouping equal to a fresh build, block for block and
//! conflict row for conflict row.

mod reference;

use reference::NestedBlocks;
use rpr_core::global_1fd::{check_global_1fd_with_blocks, FdBlocks};
use rpr_core::{check_global_1fd, CheckOutcome, CheckSession};
use rpr_data::{FactId, FactSet, Instance, Value};
use rpr_fd::{CsrConflictGraph, Fd, Schema};
use rpr_gen::schemas::single_fd_schema;
use rpr_priority::{PrioritizedInstance, PriorityRelation};

/// A splitmix64 stream, so one seed drives a whole case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// The three FD shapes: `(arity, lhs, rhs)`.
const SHAPES: [(usize, &[usize], &[usize]); 3] =
    [(2, &[], &[1]), (3, &[1], &[2]), (4, &[1, 2], &[3])];

/// A relation of the given shape with up to `facts` distinct facts
/// over small value domains, so groups and blocks repeat.
fn relation(rng: &mut Rng, shape: usize, facts: usize) -> (Schema, Instance, Fd) {
    let (arity, lhs, rhs) = SHAPES[shape];
    let schema = single_fd_schema(arity, lhs, rhs);
    let fd = schema.fds()[0];
    let mut instance = Instance::new(schema.signature().clone());
    let groups = 1 + facts / (1 + rng.below(6));
    let (blocks, width) = (1 + rng.below(4), 1 + rng.below(3));
    for _ in 0..4 * facts {
        if instance.len() == facts {
            break;
        }
        let g = rng.below(groups) as i64;
        let values = (1..=arity).map(|a| {
            Value::Int(match a {
                _ if lhs.contains(&a) => g + a as i64 * rng.below(2) as i64,
                _ if rhs.contains(&a) => rng.below(blocks) as i64,
                _ => rng.below(width) as i64,
            })
        });
        instance.insert_named("R", values.collect::<Vec<_>>()).unwrap();
    }
    (schema, instance, fd)
}

/// A random conflict-restricted priority, acyclic by orienting every
/// edge from the higher to the lower of a random rank. Returns the
/// ranks too.
fn priority(rng: &mut Rng, cg: &CsrConflictGraph, n: usize) -> (PriorityRelation, Vec<usize>) {
    let rank: Vec<usize> = (0..n).map(|_| rng.below(1 << 20)).collect();
    let density = rng.below(101);
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in cg.neighbors(FactId(a)).filter(|b| b.0 > a) {
            if rng.chance(density) {
                let (a, b) = (FactId(a), b);
                edges.push(if (rank[a.index()], a) > (rank[b.index()], b) {
                    (a, b)
                } else {
                    (b, a)
                });
            }
        }
    }
    (PriorityRelation::new(n, edges).unwrap(), rank)
}

/// A repair choosing one block per group: a random one, or with
/// `best`, the block of the group's top-ranked fact — which no other
/// block can beat, so the repair is globally optimal.
fn repair(rng: &mut Rng, blocks: &NestedBlocks, n: usize, best: Option<&[usize]>) -> FactSet {
    let mut j = FactSet::empty(n);
    for group in &blocks.groups {
        let pick = match best {
            None => rng.below(group.len()),
            Some(rank) => (0..group.len())
                .max_by_key(|&b| group[b].iter().map(|f| (rank[f.index()], *f)).max())
                .unwrap(),
        };
        group[pick].iter().for_each(|&f| j.insert(f));
    }
    j
}

/// Candidates of every kind: random subsets (mostly inconsistent),
/// random repairs (improvable or optimal), those repairs minus a fact
/// (non-maximal), and an optimal repair.
fn candidates(rng: &mut Rng, blocks: &NestedBlocks, n: usize, rank: &[usize]) -> Vec<FactSet> {
    let mut out = vec![FactSet::empty(n), FactSet::full(n)];
    for _ in 0..3 {
        let mut subset = FactSet::empty(n);
        (0..n as u32).filter(|_| rng.chance(40)).for_each(|f| subset.insert(FactId(f)));
        out.push(subset);
        let r = repair(rng, blocks, n, None);
        if let Some(f) = r.iter().nth(rng.below(r.len().max(1))) {
            let mut partial = r.clone();
            partial.remove(f);
            out.push(partial);
        }
        out.push(r);
    }
    out.push(repair(rng, blocks, n, Some(rank)));
    out
}

/// Which of the four kinds an outcome is.
fn kind(outcome: &CheckOutcome) -> usize {
    match outcome {
        CheckOutcome::Inconsistent(..) => 0,
        CheckOutcome::Improvable(imp) if imp.removed.is_empty() => 1,
        CheckOutcome::Improvable(_) => 2,
        CheckOutcome::Optimal => 3,
    }
}

/// Checks every candidate of one relation every way and returns how
/// many outcomes of each kind the oracle gave.
fn differential(rng: &mut Rng, shape: usize, facts: usize) -> [usize; 4] {
    let (schema, instance, fd) = relation(rng, shape, facts);
    let n = instance.len();
    assert!(facts < 4096 || n >= 4096, "a large case reaches the parallel threshold");
    let cg = CsrConflictGraph::new(&schema, &instance);
    let (p, rank) = priority(rng, &cg, n);
    let domain = instance.full_set();
    let nested = NestedBlocks::build(&instance, fd, &domain);
    let flat = FdBlocks::build(&instance, fd, &domain);
    let js = candidates(rng, &nested, n, &rank);
    let pi =
        PrioritizedInstance::conflict_restricted(&schema, instance.clone(), p.clone()).unwrap();
    let sessions = [1, 4].map(|jobs| CheckSession::new(&schema, &pi).with_jobs(jobs));
    let mut kinds = [0; 4];
    for j in &js {
        let expected = reference::check_with_blocks(&cg, &p, &nested, j);
        kinds[kind(&expected)] += 1;
        assert_eq!(check_global_1fd_with_blocks(&cg, &p, &flat, j), expected, "with blocks, {j:?}");
        assert_eq!(check_global_1fd(&instance, &cg, &p, fd, &domain, j), expected, "one-shot");
        for s in &sessions {
            assert_eq!(s.check(j), expected, "session at {} jobs, {j:?}", s.jobs());
        }
    }
    kinds
}

#[test]
fn one_pass_matches_the_three_pass_oracle() {
    let mut kinds = [0; 4];
    for seed in 0..600 {
        let mut rng = Rng(seed);
        let facts = rng.below(48);
        let found = differential(&mut rng, seed as usize % SHAPES.len(), facts);
        kinds.iter_mut().zip(found).for_each(|(k, f)| *k += f);
    }
    assert!(kinds.iter().all(|&k| k >= 100), "every outcome kind is covered: {kinds:?}");
}

#[test]
fn fanned_out_scan_matches_the_oracle_past_the_parallel_threshold() {
    let mut kinds = [0; 4];
    for seed in 0..6 {
        let mut rng = Rng(0x5CA1E + seed);
        let facts = 4200 + rng.below(800);
        // Shapes with a nonempty lhs: an empty one puts the thousands of
        // facts in one group, quadratic in conflicts and priority edges.
        let found = differential(&mut rng, 1 + seed as usize % 2, facts);
        kinds.iter_mut().zip(found).for_each(|(k, f)| *k += f);
    }
    assert!(kinds.iter().all(|&k| k > 0), "every outcome kind is covered: {kinds:?}");
}

#[test]
fn patched_groupings_equal_a_fresh_build() {
    for seed in 0..300 {
        let mut rng = Rng(0xDE17A + seed);
        let shape = seed as usize % SHAPES.len();
        let facts = rng.below(40);
        let (_, mut instance, fd) = relation(&mut rng, shape, facts);
        let mut flat = FdBlocks::build(&instance, fd, &instance.full_set());
        let mut nested = NestedBlocks::build(&instance, fd, &instance.full_set());
        // A pool of contents to insert from: another draw of the shape.
        let (_, pool, _) = relation(&mut rng, shape, 30);
        for _ in 0..1 + rng.below(6) {
            let mut dead: Vec<FactId> = Vec::new();
            for _ in 0..rng.below(8) {
                let live: Vec<FactId> = instance.fact_ids().filter(|f| !dead.contains(f)).collect();
                if rng.chance(50) && !live.is_empty() {
                    let id = live[rng.below(live.len())];
                    flat.remove(&instance, id);
                    nested.remove(&instance, fd, id);
                    instance.tombstone(id);
                    dead.push(id);
                } else if !pool.is_empty() {
                    let fact = pool.fact(FactId(rng.below(pool.len()) as u32)).to_fact();
                    let before = instance.len();
                    let id = instance.insert(fact);
                    if id.index() == before {
                        flat.insert(&instance, id);
                        nested.insert(&instance, fd, id);
                    }
                }
            }
            // Mid-batch, ids are stable and tombstones still grouped out.
            for id in instance.fact_ids().filter(|f| !dead.contains(f)) {
                assert_eq!(
                    flat.conflict_row(&instance, id),
                    nested.conflict_row(&instance, fd, id)
                );
            }
            let c = instance.remove_facts(&dead);
            flat.remap(&c);
            nested.remap(&c);
            let fresh = FdBlocks::build(&instance, fd, &instance.full_set());
            assert_eq!(flat, fresh, "seed {seed}");
            assert_eq!(nested, NestedBlocks::build(&instance, fd, &instance.full_set()));
            let flat_groups: Vec<Vec<Vec<FactId>>> = (0..flat.group_count())
                .map(|g| flat.blocks(g).map(<[FactId]>::to_vec).collect())
                .collect();
            assert_eq!(flat_groups, nested.groups, "seed {seed}");
        }
    }
}
