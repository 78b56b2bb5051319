//! The dichotomy in wall-clock form (experiment E17): polynomial
//! checkers on tractable schemas vs exact exponential search on the
//! hard schema `S4`, over the same instance sizes. The hard column is
//! expected to blow past the polynomial ones within a few sizes — that
//! *shape* is Theorem 3.1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpr_bench::{hard_s4_workload, single_fd_workload, two_keys_workload};
use rpr_core::{check_global_exact_bounded, Budget, GRepairChecker};
use rpr_priority::PrioritizedInstance;

const SIZES: &[usize] = &[10, 16, 22, 28, 34];

fn bench_poly_side(c: &mut Criterion) {
    let mut group = c.benchmark_group("dichotomy/poly_1fd");
    for &n in SIZES {
        let w = single_fd_workload(n, 3, 0.6, 51);
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

    let mut group = c.benchmark_group("dichotomy/poly_2keys");
    for &n in SIZES {
        let w = two_keys_workload(n, (n as u32) / 2, 0.6, 51);
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

fn bench_hard_side(c: &mut Criterion) {
    let mut group = c.benchmark_group("dichotomy/hard_s4_exact");
    group.sample_size(10);
    for &n in SIZES {
        let w = hard_s4_workload(n, 3, 0.6, 51);
        let cg = w.conflict_graph();
        // Empty priority ⇒ J is optimal ⇒ the search must run to
        // exhaustion: the coNP-side worst case.
        let empty = rpr_priority::PriorityRelation::empty(w.instance.len());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                check_global_exact_bounded(
                    &cg,
                    &empty,
                    &w.instance.full_set(),
                    &w.j,
                    &Budget::unlimited().with_max_work(1 << 30),
                )
                .expect_done("exact search")
                .is_optimal()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_poly_side, bench_hard_side);
criterion_main!(benches);
