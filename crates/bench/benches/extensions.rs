//! Benches for the extension surfaces: polynomial repair construction
//! (E20), FD discovery, and feed cleaning end to end (E22).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpr_bench::single_fd_workload;
use rpr_core::construct_globally_optimal_repair;
use rpr_fd::{discover_fds, CsrConflictGraph, DiscoveryOptions};
use rpr_gen::{simulate_feed, trust_then_recency_priority, FeedSpec, SourceSpec};

fn bench_construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("construct_global_repair");
    for &n in &[400usize, 1600, 6400, 25600] {
        let w = single_fd_workload(n, 6, 0.6, 80);
        let cg = w.conflict_graph();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| construct_globally_optimal_repair(&cg, &w.priority).len())
        });
    }
    group.finish();
}

fn bench_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("fd_discovery");
    for &n in &[200usize, 800, 3200] {
        let w = single_fd_workload(n, 6, 0.0, 81);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| discover_fds(&w.instance, DiscoveryOptions { max_lhs: 2 }).len())
        });
    }
    group.finish();
}

fn bench_feed_cleaning(c: &mut Criterion) {
    let mut group = c.benchmark_group("feed_cleaning_end_to_end");
    group.sample_size(20);
    for &entities in &[200usize, 800, 3200] {
        let spec = FeedSpec {
            entities,
            sources: vec![
                SourceSpec { name: "gold".into(), coverage: 0.9, error_rate: 0.05 },
                SourceSpec { name: "bulk".into(), coverage: 0.8, error_rate: 0.3 },
                SourceSpec { name: "scrape".into(), coverage: 0.7, error_rate: 0.6 },
            ],
        };
        let mut rng = StdRng::seed_from_u64(82);
        let feed = simulate_feed(&spec, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(entities), &entities, |b, _| {
            b.iter(|| {
                let cg = CsrConflictGraph::new(&feed.schema, &feed.instance);
                let p = trust_then_recency_priority(&feed, &["gold", "bulk", "scrape"]);
                let cleaned = construct_globally_optimal_repair(&cg, &p);
                feed.accuracy(&cleaned)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construct, bench_discovery, bench_feed_cleaning);
criterion_main!(benches);
