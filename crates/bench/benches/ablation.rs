//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! 1. **FactSet bitsets** for the improvement predicates, vs the naive
//!    `BTreeSet<FactId>` formulation a direct transcription of
//!    Definition 2.4 would use;
//! 2. **FxHash** grouping in conflict-graph construction, vs the
//!    standard library's SipHash;
//! 3. the cost of the brute-force repair enumeration itself (the
//!    oracle all differential tests leans on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpr_bench::single_fd_workload;
use rpr_core::{enumerate_repairs_bounded, is_global_improvement, Budget};
use rpr_data::{FactId, FactSet, FxHashMap, Instance, Tuple};
use rpr_fd::Fd;
use rpr_priority::PriorityRelation;
use std::collections::{BTreeSet, HashMap};

/// Definition 2.4 transcribed over BTreeSets (the ablated baseline).
fn is_global_improvement_naive(
    priority: &PriorityRelation,
    j: &BTreeSet<FactId>,
    j2: &BTreeSet<FactId>,
) -> bool {
    if j == j2 {
        return false;
    }
    let lost: Vec<FactId> = j.difference(j2).copied().collect();
    let gained: BTreeSet<FactId> = j2.difference(j).copied().collect();
    lost.iter().all(|f_prime| priority.better_than(*f_prime).iter().any(|f| gained.contains(f)))
}

fn to_btree(s: &FactSet) -> BTreeSet<FactId> {
    s.iter().collect()
}

fn bench_improvement_representation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/improvement_predicate");
    for &n in &[200usize, 800, 3200] {
        let w = single_fd_workload(n, 6, 0.6, 60);
        let cg = w.conflict_graph();
        // A second repair to compare against.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(61);
        let j2 = rpr_gen::random_repair(&cg, &mut rng);
        let (bj, bj2) = (to_btree(&w.j), to_btree(&j2));

        group.bench_with_input(BenchmarkId::new("bitset", n), &n, |b, _| {
            b.iter(|| is_global_improvement(&w.priority, &w.j, &j2))
        });
        group.bench_with_input(BenchmarkId::new("btreeset", n), &n, |b, _| {
            b.iter(|| is_global_improvement_naive(&w.priority, &bj, &bj2))
        });
    }
    group.finish();
}

/// Conflict grouping with the standard hasher (the ablated baseline for
/// the FxHash choice).
fn group_with_siphash(instance: &Instance, fd: Fd) -> usize {
    let mut groups: HashMap<Tuple, Vec<FactId>> = HashMap::new();
    for (id, f) in instance.iter() {
        groups.entry(f.project(fd.lhs)).or_default().push(id);
    }
    groups.len()
}

fn group_with_fxhash(instance: &Instance, fd: Fd) -> usize {
    let mut groups: FxHashMap<Tuple, Vec<FactId>> = FxHashMap::default();
    for (id, f) in instance.iter() {
        groups.entry(f.project(fd.lhs)).or_default().push(id);
    }
    groups.len()
}

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/grouping_hasher");
    for &n in &[800usize, 3200, 12800] {
        let w = single_fd_workload(n, 6, 0.6, 62);
        let fd = w.schema.fds()[0];
        group.bench_with_input(BenchmarkId::new("fxhash", n), &n, |b, _| {
            b.iter(|| group_with_fxhash(&w.instance, fd))
        });
        group.bench_with_input(BenchmarkId::new("siphash", n), &n, |b, _| {
            b.iter(|| group_with_siphash(&w.instance, fd))
        });
    }
    group.finish();
}

fn bench_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/brute_repair_enumeration");
    group.sample_size(10);
    for &n in &[10usize, 14, 18, 22] {
        let w = single_fd_workload(n, 3, 0.6, 63);
        let cg = w.conflict_graph();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 30))
                    .expect_done("repair enumeration")
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_improvement_representation, bench_hashing, bench_oracle);
criterion_main!(benches);
