//! The FD-theory substrate: closure computation (Theorem 6.3's
//! engine), implication, minimal covers and conflict-graph
//! construction, which dominate classifier and checker setup costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpr_bench::single_fd_workload;
use rpr_data::AttrSet;
use rpr_fd::{closure, closure_linear, minimal_cover, CsrConflictGraph};
use rpr_gen::random_schema;

fn bench_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("fd_closure");
    for &(arity, n_fds) in &[(8usize, 8usize), (32, 32), (64, 128)] {
        let mut rng = StdRng::seed_from_u64(52);
        let schema = random_schema(&mut rng, arity, n_fds, 4);
        let fds = schema.fds().to_vec();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{arity}attrs_{n_fds}fds")),
            &fds,
            |b, fds| b.iter(|| closure(AttrSet::singleton(1), fds)),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("linear_{arity}attrs_{n_fds}fds")),
            &fds,
            |b, fds| b.iter(|| closure_linear(AttrSet::singleton(1), fds)),
        );
    }
    group.finish();
}

fn bench_cover(c: &mut Criterion) {
    let mut group = c.benchmark_group("fd_minimal_cover");
    for &(arity, n_fds) in &[(8usize, 8usize), (32, 32)] {
        let mut rng = StdRng::seed_from_u64(53);
        let schema = random_schema(&mut rng, arity, n_fds, 4);
        let fds = schema.fds().to_vec();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{arity}attrs_{n_fds}fds")),
            &fds,
            |b, fds| b.iter(|| minimal_cover(fds).len()),
        );
    }
    group.finish();
}

fn bench_conflict_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_graph_build");
    for &n in &[200usize, 800, 3200] {
        let w = single_fd_workload(n, 6, 0.6, 54);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| CsrConflictGraph::new(&w.schema, &w.instance).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_closure, bench_cover, bench_conflict_graph);
criterion_main!(benches);
