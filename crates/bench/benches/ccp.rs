//! The §7.2 ccp algorithms (experiments E13/E14): the Lemma 7.3
//! primary-key graph checker and the Proposition 7.5 constant-attribute
//! enumeration, swept over instance size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpr_bench::{ccp_const_workload, ccp_pk_workload};
use rpr_core::CcpChecker;
use rpr_priority::PrioritizedInstance;

fn bench_ccp_pk(c: &mut Criterion) {
    let mut group = c.benchmark_group("ccp_primary_key");
    for &n in &[100usize, 400, 1600, 6400] {
        let w = ccp_pk_workload(n, (n as u32 / 6).max(2), n, 47);
        let checker = CcpChecker::new(w.schema.clone());
        let pi = PrioritizedInstance::cross_conflict(w.instance.clone(), w.priority.clone());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| checker.check(&pi, &w.j).is_optimal())
        });
    }
    group.finish();
}

fn bench_ccp_const(c: &mut Criterion) {
    let mut group = c.benchmark_group("ccp_constant_attribute");
    for &n in &[100usize, 400, 1600] {
        // Fixed number of partitions per relation (domain), growing
        // partition sizes: the repair count stays polynomial while the
        // instance grows.
        let w = ccp_const_workload(n, 6, n / 4, 48);
        let checker = CcpChecker::new(w.schema.clone());
        let pi = PrioritizedInstance::cross_conflict(w.instance.clone(), w.priority.clone());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| checker.check(&pi, &w.j).is_optimal())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ccp_pk, bench_ccp_const);
criterion_main!(benches);
