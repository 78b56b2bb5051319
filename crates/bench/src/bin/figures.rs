//! Generates the CSV data series behind the EXPERIMENTS.md plots:
//!
//! * `dichotomy.csv` — polynomial checkers vs exact search over `n`
//!   (the wall-clock form of Theorem 3.1, experiment E17);
//! * `poly_scaling.csv` — every polynomial checker to 6400 facts;
//! * `semantics_pruning.csv` — repair counts per semantics (E21);
//! * `classifier.csv` — Theorem 6.1/7.6 classification time vs schema
//!   width.
//!
//! Usage: `cargo run --release -p rpr-bench --bin figures [OUT_DIR]`
//! (default `target/figures`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rpr_bench::{
    ccp_pk_workload, hard_s4_workload, single_fd_workload, two_keys_workload, Workload,
};
use rpr_classify::{classify_schema, classify_schema_ccp};
use rpr_core::{
    check_global_exact_bounded, enumerate_repairs_bounded, is_completion_optimal,
    is_globally_optimal_brute_bounded, is_pareto_optimal, Budget, CcpChecker, GRepairChecker,
};
use rpr_gen::random_schema;
use rpr_priority::{PrioritizedInstance, PriorityRelation};
use std::fmt::Write as _;
use std::time::Instant;

fn time_us<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn classical_check_time(w: &Workload, reps: u32) -> f64 {
    let checker = GRepairChecker::new(w.schema.clone());
    let pi =
        PrioritizedInstance::conflict_restricted(&w.schema, w.instance.clone(), w.priority.clone())
            .expect("workload priorities are conflict-restricted");
    time_us(reps, || checker.check(&pi, &w.j).is_optimal())
}

fn dichotomy_csv() -> String {
    let mut out = String::from("n,grepcheck_1fd_us,grepcheck_2keys_us,s4_exact_us\n");
    for &n in &[10usize, 14, 18, 22, 26, 30, 34, 38, 42] {
        let t1 = classical_check_time(&single_fd_workload(n, 3, 0.6, 17), 50);
        let t2 = classical_check_time(&two_keys_workload(n, (n as u32) / 2, 0.6, 17), 50);
        let wh = hard_s4_workload(n, 3, 0.6, 17);
        let cg = wh.conflict_graph();
        let empty = PriorityRelation::empty(wh.instance.len());
        let t3 = time_us(3, || {
            check_global_exact_bounded(
                &cg,
                &empty,
                &wh.instance.full_set(),
                &wh.j,
                &Budget::unlimited().with_max_work(1 << 30),
            )
            .expect_done("exact search")
            .is_optimal()
        });
        let _ = writeln!(out, "{n},{t1:.2},{t2:.2},{t3:.2}");
    }
    out
}

fn poly_scaling_csv() -> String {
    let mut out =
        String::from("n,grepcheck_1fd_us,grepcheck_2keys_us,ccp_pk_us,pareto_us,completion_us\n");
    for &n in &[100usize, 200, 400, 800, 1600, 3200, 6400] {
        let w1 = single_fd_workload(n, 6, 0.6, 42);
        let t1 = classical_check_time(&w1, 10);
        let w2 = two_keys_workload(n, (n as u32 / 4).max(2), 0.6, 43);
        let t2 = classical_check_time(&w2, 10);
        let w3 = ccp_pk_workload(n, (n as u32 / 6).max(2), n, 47);
        let checker = CcpChecker::new(w3.schema.clone());
        let pi = PrioritizedInstance::cross_conflict(w3.instance.clone(), w3.priority.clone());
        let t3 = time_us(10, || checker.check(&pi, &w3.j).is_optimal());
        let cg1 = w1.conflict_graph();
        let t4 = time_us(10, || is_pareto_optimal(&cg1, &w1.priority, &w1.j));
        let t5 = time_us(10, || is_completion_optimal(&cg1, &w1.priority, &w1.j));
        let _ = writeln!(out, "{n},{t1:.2},{t2:.2},{t3:.2},{t4:.2},{t5:.2}");
    }
    out
}

fn semantics_pruning_csv() -> String {
    let mut out = String::from("seed,repairs,pareto,global,completion\n");
    for seed in 0..40u64 {
        let w = single_fd_workload(9, 3, 0.5, 3000 + seed);
        let cg = w.conflict_graph();
        let all = enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(1 << 22))
            .expect_done("repair enumeration");
        let pareto = all.iter().filter(|j| is_pareto_optimal(&cg, &w.priority, j)).count();
        let global = all
            .iter()
            .filter(|j| {
                is_globally_optimal_brute_bounded(
                    &cg,
                    &w.priority,
                    j,
                    &Budget::unlimited().with_max_work(1 << 22),
                )
                .expect_done("global oracle")
            })
            .count();
        let completion = all.iter().filter(|j| is_completion_optimal(&cg, &w.priority, j)).count();
        let _ = writeln!(out, "{seed},{},{pareto},{global},{completion}", all.len());
    }
    out
}

fn classifier_csv() -> String {
    let mut out = String::from("arity,fds,theorem_3_1_us,theorem_7_1_us\n");
    for &(arity, n_fds) in
        &[(4usize, 4usize), (8, 8), (16, 16), (24, 24), (32, 32), (48, 48), (64, 64)]
    {
        let mut rng = StdRng::seed_from_u64(49);
        let schema = random_schema(&mut rng, arity, n_fds, 4);
        let t1 = time_us(200, || classify_schema(&schema).complexity());
        let t2 = time_us(200, || classify_schema_ccp(&schema).complexity());
        let _ = writeln!(out, "{arity},{n_fds},{t1:.2},{t2:.2}");
    }
    out
}

fn main() -> std::io::Result<()> {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "target/figures".to_owned());
    std::fs::create_dir_all(&dir)?;
    for (name, data) in [
        ("dichotomy.csv", dichotomy_csv()),
        ("poly_scaling.csv", poly_scaling_csv()),
        ("semantics_pruning.csv", semantics_pruning_csv()),
        ("classifier.csv", classifier_csv()),
    ] {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, &data)?;
        println!("wrote {path} ({} rows)", data.lines().count() - 1);
    }
    Ok(())
}
