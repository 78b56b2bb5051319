//! Scaling of `GRepCheck2Keys` (Figure 4): Pareto pre-check plus
//! G12/G21 construction and cycle detection (experiment E08).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpr_bench::two_keys_workload;
use rpr_core::GRepairChecker;
use rpr_priority::PrioritizedInstance;

fn bench_two_keys(c: &mut Criterion) {
    let mut group = c.benchmark_group("grepcheck_2keys");
    for &n in &[100usize, 400, 1600, 6400] {
        // slots ≈ n/4 keeps conflict density roughly constant.
        let w = two_keys_workload(n, (n as u32 / 4).max(2), 0.6, 43);
        let checker = GRepairChecker::new(w.schema.clone());
        let pi = PrioritizedInstance::conflict_restricted(
            &w.schema,
            w.instance.clone(),
            w.priority.clone(),
        )
        .unwrap();
        group.throughput(Throughput::Elements(w.instance.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| checker.check(&pi, &w.j).is_optimal())
        });
    }
    group.finish();

    // Dense-conflict variant: few slots, many collisions.
    let mut group = c.benchmark_group("grepcheck_2keys_dense");
    for &n in &[100usize, 400, 1600] {
        let w = two_keys_workload(n, 8, 0.6, 44);
        let checker = GRepairChecker::new(w.schema.clone());
        let pi = PrioritizedInstance::conflict_restricted(
            &w.schema,
            w.instance.clone(),
            w.priority.clone(),
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| checker.check(&pi, &w.j).is_optimal())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_two_keys);
criterion_main!(benches);
