//! Amortized [`CheckSession`] vs one-shot checking: the per-call
//! conflict-graph rebuild dominates one-shot `GRepairChecker::check`
//! on enumeration-style workloads, and the session amortizes it away.
//! Sweeps candidate-batch sizes and the `jobs` knob; a JSON summary
//! line (`session_bench_json: {...}`) is printed for machines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpr_bench::single_fd_workload;
use rpr_core::{default_jobs, CheckSession, GRepairChecker};
use rpr_data::FactSet;
use rpr_priority::PrioritizedInstance;
use std::time::Instant;

/// Many distinct candidate repairs of the workload instance.
fn candidates(w: &rpr_bench::Workload, count: usize, seed: u64) -> Vec<FactSet> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let cg = w.conflict_graph();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rpr_gen::random_repair(&cg, &mut rng)).collect()
}

fn bench_session(c: &mut Criterion) {
    let n = 10_000;
    let w = single_fd_workload(n, 6, 0.6, 42);
    let pi =
        PrioritizedInstance::conflict_restricted(&w.schema, w.instance.clone(), w.priority.clone())
            .unwrap();
    let checker = GRepairChecker::new(w.schema.clone());
    let js = candidates(&w, 64, 7);

    // One-shot: conflict graph + CSR + partitions rebuilt per check.
    let mut group = c.benchmark_group("session/one_shot");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::from_parameter(n), |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            checker.check(&pi, &js[i % js.len()]).is_optimal()
        })
    });
    group.finish();

    // Amortized: one session, sequential checks.
    let mut group = c.benchmark_group("session/amortized_jobs1");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::from_parameter(n), |b| {
        let session = CheckSession::new(&w.schema, &pi).with_jobs(1);
        let mut i = 0;
        b.iter(|| {
            i += 1;
            session.check(&js[i % js.len()]).is_optimal()
        })
    });
    group.finish();

    // Parallel batch: candidates fan out over the jobs workers.
    let mut group = c.benchmark_group("session/batch");
    for jobs in [1, default_jobs()] {
        group.sample_size(10);
        group.throughput(Throughput::Elements((n * js.len()) as u64));
        group.bench_function(BenchmarkId::new("jobs", jobs), |b| {
            let session = CheckSession::new(&w.schema, &pi).with_jobs(jobs);
            b.iter(|| session.check_batch(&js).len())
        });
    }
    group.finish();

    // Machine-readable summary: one timed pass of each mode.
    let t0 = Instant::now();
    for j in &js {
        let _ = checker.check(&pi, j);
    }
    let one_shot = t0.elapsed().as_secs_f64();
    let session = CheckSession::new(&w.schema, &pi).with_jobs(1);
    let t1 = Instant::now();
    for j in &js {
        let _ = session.check(j);
    }
    let amortized = t1.elapsed().as_secs_f64();
    let parallel_session = CheckSession::new(&w.schema, &pi).with_jobs(default_jobs());
    let t2 = Instant::now();
    let _ = parallel_session.check_batch(&js);
    let parallel = t2.elapsed().as_secs_f64();
    println!(
        "session_bench_json: {{\"facts\": {n}, \"candidates\": {}, \
         \"one_shot_s\": {one_shot:.6}, \"amortized_s\": {amortized:.6}, \
         \"parallel_s\": {parallel:.6}, \"jobs\": {}, \
         \"amortized_speedup\": {:.2}, \"parallel_speedup\": {:.2}}}",
        js.len(),
        default_jobs(),
        one_shot / amortized.max(1e-9),
        one_shot / parallel.max(1e-9),
    );
}

criterion_group!(benches, bench_session);
criterion_main!(benches);
