//! Golden witnesses for `GRepCheck2Keys`: verdicts, witnesses and
//! certificate bytes on seeded two-keys instances, pinned as digests.
//!
//! The digests were recorded with the earlier projection-hashing
//! implementation; the J-fact-vertex one reproduces them bit for bit.
//! Any change to the DFS start order, the per-vertex edge order, the
//! Pareto step or the pre-check witnesses moves them. Each case checks every
//! candidate three ways — the public `check_global_2keys` over a
//! one-shot conflict graph, a `CheckSession` (its cached graph, session
//! dispatch), and the session's rendered certificate — and folds the
//! `Debug`/JSON bytes into one FNV-1a digest.
//!
//! On a mismatch the test prints every case's actual digest, so a
//! deliberate witness change can be re-pinned in one run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpr_bench::two_keys_workload;
use rpr_core::{
    check_global_2keys, enumerate_repairs_bounded, find_pareto_improvement, Budget, CheckOutcome,
};
use rpr_data::{AttrSet, FactSet, Instance, Value};
use rpr_fd::{CsrConflictGraph, Schema};
use rpr_gen::{random_conflict_priority, random_repair, two_keys_schema};
use rpr_priority::{PrioritizedInstance, PriorityRelation};

const ENUM_BUDGET: u64 = 1 << 22;

/// FNV-1a over every recorded line, plus tallies that prove which
/// paths the case exercised.
#[derive(Default)]
struct Digest {
    hash: u64,
    checks: usize,
    cycles: usize,
}

impl Digest {
    fn new() -> Self {
        Digest { hash: 0xcbf2_9ce4_8422_2325, ..Digest::default() }
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(b"\n") {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

struct Case {
    schema: Schema,
    instance: Instance,
    priority: PriorityRelation,
    keys: (AttrSet, AttrSet),
    candidates: Vec<FactSet>,
}

impl Case {
    fn digest(&self) -> Digest {
        let cg = CsrConflictGraph::new(&self.schema, &self.instance);
        let pi = PrioritizedInstance::conflict_restricted(
            &self.schema,
            self.instance.clone(),
            self.priority.clone(),
        )
        .expect("conflict-restricted priority");
        let checker = rpr_core::GRepairChecker::new(self.schema.clone());
        let session = checker.session(&pi);
        let full = self.instance.full_set();
        let (a1, a2) = self.keys;
        let mut d = Digest::new();
        for j in &self.candidates {
            let direct = check_global_2keys(&self.instance, &cg, &self.priority, a1, a2, &full, j);
            let served = session.check(j);
            assert_eq!(direct, served, "session and one-shot disagree on {j:?}");
            if let CheckOutcome::Improvable(imp) = &direct {
                if imp.added.len() >= 2 {
                    d.cycles += 1;
                }
            }
            let cert = session.certify(j, &served);
            d.feed(format!("{j:?} {direct:?}").as_bytes());
            d.feed(
                rpr_format::render_certificate(&self.schema, &self.instance, &self.priority, &cert)
                    .as_bytes(),
            );
            d.checks += 1;
        }
        d
    }
}

/// Applies Pareto improvements until none is left: the result is
/// Pareto-optimal, so any remaining improvement is a G12/G21 cycle.
fn pareto_climb(cg: &CsrConflictGraph, priority: &PriorityRelation, j: &FactSet) -> FactSet {
    let full = FactSet::full(j.universe());
    let mut j = j.clone();
    for _ in 0..10_000 {
        match find_pareto_improvement(cg, priority, &j, &full) {
            Some(imp) => j = imp.apply(&j),
            None => return j,
        }
    }
    panic!("Pareto climb did not terminate");
}

/// Random repairs, their Pareto-optimal climbs, a non-maximal subset
/// and an inconsistent superset of each.
fn sampled_candidates(
    cg: &CsrConflictGraph,
    priority: &PriorityRelation,
    rng: &mut StdRng,
    count: usize,
) -> Vec<FactSet> {
    let mut out = Vec::new();
    for _ in 0..count {
        let j = random_repair(cg, rng);
        out.push(pareto_climb(cg, priority, &j));
        let mut short = j.clone();
        if let Some(f) = j.iter().nth(rng.random_range(0..j.len().max(1))) {
            short.remove(f);
        }
        out.push(short);
        let mut bad = j.clone();
        if let Some(g) = j.complement().iter().next() {
            bad.insert(g);
        }
        out.push(bad);
        out.push(j);
    }
    out
}

fn workload_case(n: usize, slots: u32, density: f64, seed: u64, samples: usize) -> Case {
    let w = two_keys_workload(n, slots, density, seed);
    let cg = w.conflict_graph();
    let mut candidates = if samples == 0 {
        enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(ENUM_BUDGET))
            .expect_done("small instance")
    } else {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        sampled_candidates(&cg, &w.priority, &mut rng, samples)
    };
    candidates.push(w.j.clone());
    Case {
        schema: w.schema,
        instance: w.instance,
        priority: w.priority,
        keys: (AttrSet::singleton(1), AttrSet::singleton(2)),
        candidates,
    }
}

/// Ternary `R` under keys `{1}` and `{2}` with a two-valued third
/// attribute: many outside facts agree with a `J` fact on *both* keys,
/// which puts a self-loop on that fact's vertex.
fn ternary_case(seed: u64) -> Case {
    let schema = two_keys_schema(3, &[1], &[2]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut instance = Instance::new(schema.signature().clone());
    for _ in 0..9 {
        let vals = [rng.random_range(0..3), rng.random_range(0..3), rng.random_range(0..2)];
        instance.insert_named("R", vals.map(|x: i64| Value::Int(x))).expect("fits schema");
    }
    let cg = CsrConflictGraph::new(&schema, &instance);
    let priority = random_conflict_priority(&cg, 0.8, &mut rng);
    let mut candidates =
        enumerate_repairs_bounded(&cg, &Budget::unlimited().with_max_work(ENUM_BUDGET))
            .expect_done("small instance");
    candidates.extend(sampled_candidates(&cg, &priority, &mut rng, 3));
    Case {
        schema,
        instance,
        priority,
        keys: (AttrSet::singleton(1), AttrSet::singleton(2)),
        candidates,
    }
}

/// Binary `R` under keys `{1}` and `{2}` built from two random
/// perfect matchings `A_i = R(i, π(i))` and `B_i = R(i, σ(i))` plus
/// noise. Every `B` fact beats the `A` fact sharing its second value
/// but rarely the one sharing its first, so the `A` matching is mostly
/// improvable only by swapping a whole cycle of `π⁻¹σ` — a G12/G21
/// cycle, not a Pareto step.
fn ring_case(seed: u64) -> Case {
    let schema = two_keys_schema(2, &[1], &[2]);
    let mut rng = StdRng::seed_from_u64(seed);
    let k = 10i64;
    let perm = |rng: &mut StdRng| {
        let mut p: Vec<i64> = (0..k).collect();
        for i in (1..p.len()).rev() {
            p.swap(i, rng.random_range(0..=i));
        }
        p
    };
    let (pi, sigma) = (perm(&mut rng), perm(&mut rng));
    // (tier, tuple): tier 1 = A, tier 2 = B, noise is 0 or 3.
    let mut rows: Vec<(i64, [i64; 2])> = Vec::new();
    for i in 0..k {
        rows.push((1, [i, pi[i as usize]]));
        rows.push((2, [i, sigma[i as usize]]));
    }
    for _ in 0..3 {
        let tier = if rng.random_bool(0.5) { 0 } else { 3 };
        rows.push((tier, [rng.random_range(0..k), rng.random_range(0..k)]));
    }
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.random_range(0..=i));
    }
    let mut instance = Instance::new(schema.signature().clone());
    let mut tier = Vec::new();
    for (t, values) in &rows {
        let id = instance.insert_named("R", values.map(Value::Int)).expect("fits schema");
        if id.index() == tier.len() {
            tier.push(*t);
        }
    }
    let cg = CsrConflictGraph::new(&schema, &instance);
    let mut edges = Vec::new();
    for (a, b) in cg.edges() {
        let (hi, lo) = if tier[a.index()] >= tier[b.index()] { (a, b) } else { (b, a) };
        let keep = match (tier[hi.index()], tier[lo.index()]) {
            (2, 1) if instance.fact(hi).agrees_on(instance.fact(lo), AttrSet::singleton(2)) => true,
            (2, 1) => rng.random_bool(0.15),
            (x, y) => x > y && rng.random_bool(0.8),
        };
        if keep {
            edges.push((hi, lo));
        }
    }
    let priority = PriorityRelation::new(instance.len(), edges).expect("tier-oriented");
    let a_facts = instance.fact_ids().filter(|f| tier[f.index()] == 1);
    let j = cg.extend_greedily(&instance.set_of(a_facts), instance.fact_ids());
    let mut candidates = vec![pareto_climb(&cg, &priority, &j), j];
    candidates.extend(sampled_candidates(&cg, &priority, &mut rng, 4));
    Case {
        schema,
        instance,
        priority,
        keys: (AttrSet::singleton(1), AttrSet::singleton(2)),
        candidates,
    }
}

/// Does some outside fact agree with a candidate's fact on both keys
/// and beat it (a self-loop edge in G12 and G21)?
fn has_self_loop(case: &Case) -> bool {
    let (a1, a2) = case.keys;
    case.candidates.iter().any(|j| {
        j.iter().any(|g| {
            let gf = case.instance.fact(g);
            case.instance.fact_ids().any(|fp| {
                let f = case.instance.fact(fp);
                !j.contains(fp)
                    && f.agrees_on(gf, a1)
                    && f.agrees_on(gf, a2)
                    && case.priority.prefers(fp, g)
            })
        })
    })
}

/// `(name, digest, checks)` recorded from the replaced implementation.
const PINNED: &[(&str, u64, usize)] = &[
    ("enum-0", 0xb68edfc52fc9e52f, 7),
    ("enum-1", 0x607001111ab3c518, 8),
    ("enum-2", 0x98ddd33a256dbb7b, 7),
    ("enum-3", 0x77748d03dfef8991, 6),
    ("enum-4", 0xd3f0d2f481e004e8, 7),
    ("enum-5", 0x7891edeb71f1c705, 11),
    ("sampled-0", 0xf16bf5e267401cb2, 65),
    ("sampled-1", 0xfa216ebc1e726ed6, 65),
    ("sampled-2", 0x2ee96d8098ce520d, 65),
    ("sampled-3", 0xca8d308cc8cd9f85, 65),
    ("ring-0", 0x8830c7759969e25d, 18),
    ("ring-1", 0xcb5592eb0b6a35da, 18),
    ("ring-2", 0x557b4bcde6de566b, 18),
    ("ring-3", 0xb419536268b0522e, 18),
    ("ring-4", 0xaf57562b8026282a, 18),
    ("ring-5", 0xb96baa7756ff1c98, 18),
    ("ring-6", 0x0848dc96abd54a67, 18),
    ("ring-7", 0x04a20a1882deb6dd, 18),
    ("ring-8", 0x7f48f04d560bf730, 18),
    ("ring-9", 0xb988d5d27bc46fc4, 18),
    ("ring-10", 0x5985d7b3ba7c57bb, 18),
    ("ring-11", 0xabacc9bdb2e3c1af, 18),
    ("ternary-0", 0x75f464a7986270ff, 19),
    ("ternary-1", 0x49fcc968e967f32f, 18),
    ("ternary-2", 0x44384a53dc49dc89, 21),
    ("ternary-3", 0xb7753abd45a065d2, 18),
    ("ternary-4", 0x4f394972d077ee7a, 17),
    ("ternary-5", 0xd628d9fb7a0adcf0, 20),
];

#[test]
fn two_keys_witnesses_match_the_pinned_digests() {
    let mut cases: Vec<(String, Case)> = Vec::new();
    for seed in 0..6u64 {
        cases.push((format!("enum-{seed}"), workload_case(9, 4, 0.7, seed, 0)));
    }
    for seed in 0..4u64 {
        cases.push((format!("sampled-{seed}"), workload_case(300, 60, 0.9, 40 + seed, 16)));
    }
    for seed in 0..12u64 {
        cases.push((format!("ring-{seed}"), ring_case(90 + seed)));
    }
    for seed in 0..6u64 {
        cases.push((format!("ternary-{seed}"), ternary_case(70 + seed)));
    }
    assert!(
        cases.iter().filter(|(n, _)| n.starts_with("ternary")).any(|(_, c)| has_self_loop(c)),
        "no ternary case exercises a self-loop edge"
    );
    let mut actual = Vec::new();
    let mut cycles = Vec::new();
    for (name, case) in &cases {
        let d = case.digest();
        cycles.push(d.cycles);
        actual.push((name.clone(), d.hash, d.checks));
    }
    let total_cycles: usize = cycles.iter().sum();
    assert!(total_cycles >= 10, "only {total_cycles} candidates reached the cycle search");
    let expected: Vec<(String, u64, usize)> =
        PINNED.iter().map(|&(n, h, c)| (n.to_string(), h, c)).collect();
    if actual != expected {
        for ((name, hash, checks), c) in actual.iter().zip(&cycles) {
            eprintln!("    (\"{name}\", {hash:#018x}, {checks}), // {c} cycle witnesses");
        }
        panic!("two-keys witnesses drifted from the pinned digests");
    }
}
