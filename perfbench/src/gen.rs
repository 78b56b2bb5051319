//! Seeded inputs: the workspace texts of each workload, the request
//! stream the client replays, and the expected answer of every request.
//!
//! The seed only renames values (every generated name carries a short
//! seed-drawn token); the structure of each workspace — fact order,
//! conflicts, priorities, candidate repairs — is fixed. Two seeds
//! therefore send different bytes while doing identical work, so a
//! claim measured on one seed can be re-checked on an unused one.
//!
//! Expected answers are computed in-process before the server starts:
//! verdicts through `CheckSession`, post-delta fingerprints through
//! `apply_ops_to_workspace` + `workspace_fingerprint`, shard reuse
//! through a private `DeltaSession`, and budget trips by re-running the
//! tripping check under the same work allowance.

use rpr_core::{Budget, CheckOutcome, CheckSession, DeltaSession, Outcome};
use rpr_format::{
    apply_ops_to_workspace, delta_ops_from_strings, parse_workspace, render_workspace,
    workspace_fingerprint, Workspace,
};
use rpr_priority::PrioritizedInstance;
use std::fmt::Write as _;
use std::sync::Arc;

/// The three workloads, by name.
pub const WORKLOADS: [&str; 3] = ["hit_small", "hit_large", "churn"];

/// Pool size of `churn`: more workspaces than the server's session
/// cache holds, so every visit starts with a true miss.
pub const CHURN_POOL: usize = 8;
/// Session-cache capacity `churn` runs the server with.
pub const CHURN_CACHE: usize = 4;
/// Shard-store byte ceiling for `churn`: below the pool's shard bytes,
/// so cold shards of evicted sessions are dropped between visits.
pub const CHURN_CACHE_BYTES_MAX: u64 = 96 * 1024;
/// Chains per churn workspace; the first half is byte-identical across
/// the pool, the second half is private to each workspace.
const CHURN_CHAINS: usize = 64;
const CHURN_SHARED: usize = 32;
/// Facts per chain (as in `many_components.rpr`).
const CHAIN_LEN: usize = 6;
/// The tripping workspace: one S4 chain whose exhaustive search needs
/// far more than [`TRIP_MAX_WORK`] recursion nodes.
const TRIP_CHAIN_LEN: usize = 24;
/// Work allowance of the tripping `/check`.
pub const TRIP_MAX_WORK: u64 = 20_000;
/// Keys per large workspace (4 facts each, ≈4k facts).
const LARGE_KEYS: usize = 1000;

/// A splitmix64 stream: tiny, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A three-letter lowercase name token.
    fn token(&mut self) -> String {
        (0..3).map(|_| (b'a' + (self.next_u64() % 26) as u8) as char).collect()
    }
}

/// What a request is, for per-class latency and for its expected answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// `/check` of a cached workspace.
    Hit,
    /// `/check` that starts a churn visit: a true session-cache miss.
    Cold,
    /// `/delta` batch.
    Delta,
    /// `/check` of the mid-delta state (a hit on the patched session).
    Plain,
    /// `certify: true` `/check` of the mid-delta state.
    Certify,
    /// `/check` under a work allowance that must trip (422).
    Trip,
}

/// The expected answer of one request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Expect {
    /// 200 with one `(repair, verdict)` per declared candidate.
    Check { cached: bool, results: Vec<(String, &'static str)>, certify: bool },
    /// 422 with a `work-exhausted` budget report.
    Trip { cached: bool, work_done: u64, max_work: u64 },
    /// 200 applying `applied` ops and moving the session from
    /// `previous` to `fingerprint`, re-attaching `reused` of `total`
    /// shards.
    Delta {
        previous: String,
        fingerprint: String,
        applied: u64,
        rebuilt: bool,
        total: usize,
        reused: usize,
    },
}

/// One request: its class, the exact bytes sent, and what must come back.
pub struct Req {
    pub class: Class,
    pub path: &'static str,
    pub body: String,
    /// The full HTTP/1.1 request (head + body), rendered once.
    pub raw: Vec<u8>,
    pub expect: Expect,
}

impl Req {
    fn new(class: Class, path: &'static str, body: String, expect: Expect) -> Req {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Req { class, path, body, raw, expect }
    }
}

/// A workload: server flags, the warm-up that fills the caches, and one
/// period of the measured stream (replayed cyclically).
pub struct Workload {
    /// The server's session-cache capacity and shard-store byte ceiling:
    /// the live run passes them as flags ([`Workload::serve_args`]), the
    /// traced run builds its in-process state from them.
    pub cache: usize,
    pub cache_bytes_max: Option<u64>,
    pub warmup: Vec<Req>,
    pub stream: Vec<Req>,
    /// `/delta` requests sent between slices of the window on workloads
    /// whose stream has none, so every workload reports a delta latency.
    pub probe: Vec<Req>,
    /// Nontrivial conflict components of each distinct workspace the
    /// warm-up uploads, in upload order.
    pub shards: Vec<usize>,
}

impl Workload {
    /// The `rpr` arguments that start this workload's server.
    pub fn serve_args(&self) -> Vec<String> {
        let mut args: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "1",
            "--self-audit",
            "--requests-per-conn",
            "1000000000",
            "--idle-timeout-ms",
            "600000",
            "--timeout-ms",
            "60000",
            "--cache",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.push(self.cache.to_string());
        if let Some(b) = self.cache_bytes_max {
            args.push("--cache-bytes-max".to_owned());
            args.push(b.to_string());
        }
        args
    }

    /// The work-shape summary two seeds must agree on: per request the
    /// class and expected answer with every seed-dependent string
    /// (fingerprints) blanked, plus the shard count of every workspace.
    #[cfg(test)]
    pub fn work_counts(&self) -> (Vec<(Class, Expect)>, Vec<usize>) {
        let shape = |r: &Req| {
            let e = match &r.expect {
                Expect::Delta { applied, rebuilt, total, reused, .. } => Expect::Delta {
                    previous: String::new(),
                    fingerprint: String::new(),
                    applied: *applied,
                    rebuilt: *rebuilt,
                    total: *total,
                    reused: *reused,
                },
                other => other.clone(),
            };
            (r.class, e)
        };
        let reqs = self.warmup.iter().chain(&self.stream).chain(&self.probe);
        (reqs.map(shape).collect(), self.shards.clone())
    }
}

/// Builds the named workload from `seed`; `None` for an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = Rng::new(seed);
    let tok = rng.token();
    match name {
        "hit_small" => Some(hits(
            32,
            &tok,
            vec![
                include_str!("../fixtures/running_example.rpr").to_owned(),
                include_str!("../fixtures/source_trust.rpr").to_owned(),
                include_str!("../fixtures/hard_s4.rpr").to_owned(),
                tiny_1fd(&tok),
                tiny_2keys(&tok),
                tiny_s4(&tok),
                tiny_mixed(&tok),
            ],
            &[0, 1, 2, 3, 4, 5, 6],
        )),
        // Two single-FD workspaces beside the two-keys one, so the median
        // of both the hits and the warm-up misses falls inside the
        // single-FD population instead of between two populations.
        "hit_large" => Some(hits(
            8,
            &tok,
            vec![large_1fd(&tok), large_2keys(&tok), large_1fd(&format!("{tok}b"))],
            &[0, 1, 2],
        )),
        "churn" => Some(churn(&tok)),
        _ => None,
    }
}

/// A hit workload: the warm-up uploads every workspace once (misses),
/// the stream visits them in `cycle` order (hits), and the probe sends
/// each cached session one self-inverting insert+delete batch of a
/// fresh fact. Cycles have odd length so the latency median falls
/// inside one workspace's population rather than between two.
fn hits(cache: usize, tok: &str, texts: Vec<String>, cycle: &[usize]) -> Workload {
    assert!(cycle.len() % 2 == 1, "odd cycle length");
    let mut warmup = Vec::new();
    let mut probe = Vec::new();
    let mut shards = Vec::new();
    let mut expected = Vec::new();
    for text in &texts {
        let ws = parse(text);
        let results = verdicts(&ws);
        shards.push(shard_count(&ws));
        warmup.push(check_req(Class::Cold, text, false, None, false, results.clone()));
        probe.push(probe_delta(&ws, tok));
        expected.push(results);
    }
    let stream = cycle
        .iter()
        .map(|&i| check_req(Class::Hit, &texts[i], true, None, false, expected[i].clone()))
        .collect();
    Workload {
        cache,
        cache_bytes_max: None,
        warmup,
        stream,
        probe,
        shards,
    }
}

/// A batch inserting and deleting one fresh fact of the workspace's
/// first relation: the session's content (and fingerprint) is
/// unchanged, so the same request stays valid however often it is sent.
fn probe_delta(ws: &Workspace, tok: &str) -> Req {
    let sig = ws.instance.signature();
    let (_, sym) = sig.iter().next().expect("workspaces declare a relation");
    let values: Vec<String> = (0..sym.arity()).map(|i| format!("zz{tok}{i}")).collect();
    let fact = format!("{}({})", sym.name(), values.join(", "));
    let ops = [format!("insert {fact}"), format!("delete {fact}")];
    let mut ds = DeltaSession::prepare(Arc::new(ws.schema.clone()), prioritized(ws));
    let (_, req) = delta_req(ws, &mut ds, &ops);
    req
}

/// `churn`: one visit per pool workspace — cold `/check`, a delta that
/// inserts a fact, a plain and a certified `/check` of that mid-delta
/// state, three more deltas that bring the content back to its start, a
/// plain `/check` of the start state, and a `/check` that trips its work
/// allowance. Nine requests: the latency median falls inside the trip
/// population rather than on the edge of the delta one.
fn churn(tok: &str) -> Workload {
    let trip_text = trip_workspace(tok);
    let trip_ws = parse(&trip_text);
    let trip_work = trip_work_done(&trip_ws, TRIP_MAX_WORK);
    let pool: Vec<String> = (0..CHURN_POOL).map(|w| churn_workspace(tok, w)).collect();

    let mut shards = Vec::new();
    let mut visits: Vec<Vec<Req>> = Vec::new();
    for (w, text) in pool.iter().enumerate() {
        let ws = parse(text);
        shards.push(shard_count(&ws));
        let mut ds = DeltaSession::prepare(Arc::new(ws.schema.clone()), prioritized(&ws));
        let mut visit = vec![check_req(Class::Cold, text, false, None, false, verdicts(&ws))];

        // Two insert/delete pairs: one in a shared chain, one in a
        // private chain, rotating with the visit.
        let shared = (3 * w) % CHURN_SHARED;
        let private = CHURN_SHARED + (3 * w) % (CHURN_CHAINS - CHURN_SHARED);
        let mut state = ws;
        for (pair, chain) in [shared, private].into_iter().enumerate() {
            let fact = churn_insert(tok, w, chain, pair);
            for (step, op) in
                [format!("insert {fact}"), format!("delete {fact}")].iter().enumerate()
            {
                let (next, req) = delta_req(&state, &mut ds, std::slice::from_ref(op));
                state = next;
                visit.push(req);
                if pair == 0 && step == 0 {
                    // Reads beside writes: the patched session serves
                    // a plain and a certified check of this state.
                    let mid = render_workspace(&state);
                    let results = verdicts(&parse(&mid));
                    visit.push(check_req(Class::Plain, &mid, true, None, false, results.clone()));
                    visit.push(check_req(Class::Certify, &mid, true, None, true, results));
                }
            }
        }
        assert_eq!(
            workspace_fingerprint(&state),
            workspace_fingerprint(&parse(text)),
            "a churn visit must return its workspace to its starting content"
        );
        // The round-tripped session still answers the original text.
        visit.push(check_req(Class::Plain, text, true, None, false, verdicts(&state)));
        visit.push(trip_req(&trip_text, true, trip_work));
        visits.push(visit);
    }
    shards.push(shard_count(&trip_ws));

    let stream: Vec<Req> = visits.into_iter().flatten().collect();
    // The warm-up is one full pass; only the very first trip builds its
    // session (later visits find it cached).
    let mut first_trip = true;
    let warmup = stream
        .iter()
        .map(|r| {
            let mut expect = r.expect.clone();
            if let Expect::Trip { cached, .. } = &mut expect {
                *cached = !std::mem::take(&mut first_trip);
            }
            Req::new(r.class, r.path, r.body.clone(), expect)
        })
        .collect();
    Workload {
        cache: CHURN_CACHE,
        cache_bytes_max: Some(CHURN_CACHE_BYTES_MAX),
        warmup,
        stream,
        probe: Vec::new(),
        shards,
    }
}

fn parse(text: &str) -> Workspace {
    parse_workspace(text).expect("generated workspaces parse")
}

pub fn prioritized(ws: &Workspace) -> PrioritizedInstance {
    ws.prioritized().expect("generated priorities are valid")
}

fn shard_count(ws: &Workspace) -> usize {
    DeltaSession::prepare(Arc::new(ws.schema.clone()), prioritized(ws)).shard_count()
}

pub fn verdict_str(outcome: &CheckOutcome) -> &'static str {
    match outcome {
        CheckOutcome::Optimal => "optimal",
        CheckOutcome::Improvable(_) => "improvable",
        CheckOutcome::Inconsistent(_, _) => "inconsistent",
    }
}

/// Every declared candidate's verdict, through `CheckSession`.
fn verdicts(ws: &Workspace) -> Vec<(String, &'static str)> {
    let pi = prioritized(ws);
    let session = CheckSession::new(&ws.schema, &pi).with_jobs(1);
    ws.repairs
        .iter()
        .map(|(name, set)| match session.check_bounded(set, &Budget::unlimited()) {
            Outcome::Done(outcome) => (name.clone(), verdict_str(&outcome)),
            _ => panic!("unbounded check of `{name}` must complete"),
        })
        .collect()
}

/// The work units charged when the first candidate's check trips
/// `max_work` — the `work_done` the server's budget report must carry.
fn trip_work_done(ws: &Workspace, max_work: u64) -> u64 {
    let pi = prioritized(ws);
    let session = CheckSession::new(&ws.schema, &pi).with_jobs(1);
    let sets: Vec<_> = ws.repairs.iter().map(|(_, s)| s.clone()).collect();
    let budget = Budget::unlimited().with_max_work(max_work);
    match session.check_batch_bounded(&sets, &budget).into_iter().next() {
        Some(Outcome::Exceeded { report, .. }) => report.work_done,
        _ => panic!("the trip workspace must exceed {max_work} work units"),
    }
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn check_req(
    class: Class,
    text: &str,
    cached: bool,
    max_work: Option<u64>,
    certify: bool,
    results: Vec<(String, &'static str)>,
) -> Req {
    let mut body = format!("{{\"workspace\":{}", json_str(text));
    if let Some(w) = max_work {
        let _ = write!(body, ",\"max_work\":{w}");
    }
    if certify {
        body.push_str(",\"certify\":true");
    }
    body.push('}');
    Req::new(class, "/check", body, Expect::Check { cached, results, certify })
}

fn trip_req(text: &str, cached: bool, work_done: u64) -> Req {
    let mut req = check_req(Class::Trip, text, cached, Some(TRIP_MAX_WORK), false, Vec::new());
    req.expect = Expect::Trip { cached, work_done, max_work: TRIP_MAX_WORK };
    req
}

/// One `/delta` batch from `state`; returns the post-delta state and
/// the request with its expected fingerprints and shard reuse.
fn delta_req(state: &Workspace, ds: &mut DeltaSession, ops: &[String]) -> (Workspace, Req) {
    let parsed =
        delta_ops_from_strings(state.instance.signature(), ops).expect("generated ops parse");
    let next = apply_ops_to_workspace(state, &parsed).expect("generated ops apply");
    let previous = workspace_fingerprint(state).to_hex();
    let fingerprint = workspace_fingerprint(&next).to_hex();
    let parsed = delta_ops_from_strings(ds.prioritized().instance().signature(), ops)
        .expect("generated ops parse");
    let report = ds.apply_delta(&parsed).expect("generated ops apply to the session");
    assert_eq!(ds.fingerprint().to_hex(), fingerprint, "session and oracle fingerprints agree");
    let list: Vec<String> = ops.iter().map(|op| json_str(op)).collect();
    let body = format!("{{\"fingerprint\":\"{previous}\",\"ops\":[{}]}}", list.join(","));
    let expect = Expect::Delta {
        previous,
        fingerprint,
        applied: ops.len() as u64,
        rebuilt: report.rebuilt,
        total: report.components_total,
        reused: report.components_reused,
    };
    (next, Req::new(Class::Delta, "/delta", body, expect))
}

fn repair_line(out: &mut String, facts: &[String]) {
    let _ = writeln!(out, "repair J: {}", facts.join("; "));
}

/// An S4 chain of `len` facts namespaced by `ns` (the layout of
/// `rpr_gen::chain_components`): facts `2t`/`2t+1` share attribute 1,
/// facts `2t+1`/`2t+2` share attribute 2. One priority edge; the
/// even-offset facts form the optimal repair. Returns
/// `(facts, prefer line, repair members)`.
fn chain(ns: &str, len: usize) -> (Vec<String>, String, Vec<String>) {
    let facts: Vec<String> = (0..len)
        .map(|i| format!("R4(a{ns}_{}, b{ns}_{}, c{ns}_{i})", i / 2, i.div_ceil(2)))
        .collect();
    let prefer = format!("prefer {} > {}", facts[1], facts[0]);
    let repair = facts.iter().step_by(2).cloned().collect();
    (facts, prefer, repair)
}

const S4_HEADER: &str = "relation R4/3\n\nfd R4: 1 -> 2\nfd R4: 2 -> 3\n\n";

/// A churn pool workspace: 64 S4 chains (the first 32 shared by the
/// whole pool, the rest private to workspace `w`) plus a small
/// single-FD and a small two-keys relation, so one check dispatches all
/// three algorithms of the dichotomy.
fn churn_workspace(tok: &str, w: usize) -> String {
    let mut out = String::from("relation R4/3\nrelation P1/2\nrelation K2/2\n\n");
    out.push_str("fd R4: 1 -> 2\nfd R4: 2 -> 3\nfd P1: 1 -> 2\nfd K2: 1 -> 2\nfd K2: 2 -> 1\n\n");
    let mut prefers = Vec::new();
    let mut repair = Vec::new();
    for k in 0..CHURN_CHAINS {
        let (facts, prefer, members) = chain(&churn_ns(tok, w, k), CHAIN_LEN);
        for f in facts {
            let _ = writeln!(out, "fact {f}");
        }
        prefers.push(prefer);
        repair.extend(members);
    }
    let (facts, p, r) = keyed_groups("P1", &format!("{tok}p"), 4);
    push_parts(&mut out, &mut prefers, &mut repair, facts, p, r);
    let (facts, p, r) = key_cycles("K2", &format!("{tok}q"), 2);
    push_parts(&mut out, &mut prefers, &mut repair, facts, p, r);
    out.push('\n');
    for p in prefers {
        let _ = writeln!(out, "{p}");
    }
    repair_line(&mut out, &repair);
    out
}

fn push_parts(
    out: &mut String,
    prefers: &mut Vec<String>,
    repair: &mut Vec<String>,
    facts: Vec<String>,
    p: Vec<String>,
    r: Vec<String>,
) {
    for f in facts {
        let _ = writeln!(out, "fact {f}");
    }
    prefers.extend(p);
    repair.extend(r);
}

fn churn_ns(tok: &str, w: usize, chain: usize) -> String {
    if chain < CHURN_SHARED {
        format!("{tok}s{chain}")
    } else {
        format!("{tok}u{w}x{chain}")
    }
}

/// The fact a churn delta inserts into `chain`: it shares attribute 1
/// with the chain's facts 4 and 5 (so the component grows and its shard
/// is dirtied) and keeps the repair maximal and optimal.
fn churn_insert(tok: &str, w: usize, chain: usize, pair: usize) -> String {
    let ns = churn_ns(tok, w, chain);
    format!("R4(a{ns}_2, d{ns}_{pair}, e{ns}_{pair})")
}

/// The tripping workspace: one long S4 chain.
fn trip_workspace(tok: &str) -> String {
    let mut out = String::from(S4_HEADER);
    let (facts, prefer, repair) = chain(&format!("{tok}t"), TRIP_CHAIN_LEN);
    for f in &facts {
        let _ = writeln!(out, "fact {f}");
    }
    let _ = writeln!(out, "\n{prefer}");
    repair_line(&mut out, &repair);
    out
}

/// `keys` groups of a single-FD relation `rel(k, v)` (FD 1 -> 2): two
/// conflicting facts per key, the first preferred and kept.
fn keyed_groups(rel: &str, ns: &str, keys: usize) -> (Vec<String>, Vec<String>, Vec<String>) {
    let mut facts = Vec::new();
    let mut prefers = Vec::new();
    let mut repair = Vec::new();
    for k in 0..keys {
        let a = format!("{rel}(k{ns}{k}, 0)");
        let b = format!("{rel}(k{ns}{k}, 1)");
        prefers.push(format!("prefer {a} > {b}"));
        repair.push(a.clone());
        facts.push(a);
        facts.push(b);
    }
    (facts, prefers, repair)
}

/// `n` 4-cycles of a two-keys relation `rel(x, y)` (FDs 1 -> 2 and
/// 2 -> 1): `(x,y)`, `(x,z)`, `(w,y)`, `(w,z)`, with `(x,y)` preferred
/// over `(x,z)` and the repair `{(x,y), (w,z)}` optimal.
fn key_cycles(rel: &str, ns: &str, n: usize) -> (Vec<String>, Vec<String>, Vec<String>) {
    let mut facts = Vec::new();
    let mut prefers = Vec::new();
    let mut repair = Vec::new();
    for i in 0..n {
        let f = |a: &str, b: &str| format!("{rel}({a}{ns}{i}, {b}{ns}{i})");
        let (xy, xz, wy, wz) = (f("x", "y"), f("x", "z"), f("w", "y"), f("w", "z"));
        prefers.push(format!("prefer {xy} > {xz}"));
        repair.push(xy.clone());
        repair.push(wz.clone());
        facts.extend([xy, xz, wy, wz]);
    }
    (facts, prefers, repair)
}

fn assemble(header: &str, parts: (Vec<String>, Vec<String>, Vec<String>)) -> String {
    let (facts, prefers, repair) = parts;
    let mut out = String::from(header);
    for f in &facts {
        let _ = writeln!(out, "fact {f}");
    }
    out.push('\n');
    for p in &prefers {
        let _ = writeln!(out, "{p}");
    }
    repair_line(&mut out, &repair);
    out
}

fn tiny_1fd(tok: &str) -> String {
    assemble("relation T/2\n\nfd T: 1 -> 2\n\n", keyed_groups("T", &format!("{tok}t"), 4))
}

fn tiny_2keys(tok: &str) -> String {
    assemble(
        "relation U/2\n\nfd U: 1 -> 2\nfd U: 2 -> 1\n\n",
        key_cycles("U", &format!("{tok}u"), 2),
    )
}

/// A single-FD and a two-keys relation side by side.
fn tiny_mixed(tok: &str) -> String {
    let (mut facts, mut prefers, mut repair) = keyed_groups("T", &format!("{tok}m"), 3);
    let (f, p, r) = key_cycles("U", &format!("{tok}m"), 1);
    facts.extend(f);
    prefers.extend(p);
    repair.extend(r);
    assemble(
        "relation T/2\nrelation U/2\n\nfd T: 1 -> 2\nfd U: 1 -> 2\nfd U: 2 -> 1\n\n",
        (facts, prefers, repair),
    )
}

fn tiny_s4(tok: &str) -> String {
    let (facts, prefer, repair) = chain(&format!("{tok}c"), CHAIN_LEN);
    assemble(S4_HEADER, (facts, vec![prefer], repair))
}

/// ≈4k facts under one FD `1 -> 2`: per key two blocks of two facts,
/// the first block preferred and kept (`GRepCheck1FD` at scale).
fn large_1fd(tok: &str) -> String {
    let mut facts = Vec::with_capacity(4 * LARGE_KEYS);
    let mut prefers = Vec::with_capacity(LARGE_KEYS);
    let mut repair = Vec::with_capacity(2 * LARGE_KEYS);
    for k in 0..LARGE_KEYS {
        let f = |b: u8, c: u8| format!("R(k{tok}{k}, {b}, {c})");
        prefers.push(format!("prefer {} > {}", f(0, 0), f(1, 0)));
        repair.push(f(0, 0));
        repair.push(f(0, 1));
        facts.extend([f(0, 0), f(0, 1), f(1, 0), f(1, 1)]);
    }
    assemble("relation R/3\n\nfd R: 1 -> 2\n\n", (facts, prefers, repair))
}

/// ≈4k facts under two keys `{1}`, `{2}`: 1000 preferred 4-cycles
/// (`GRepCheck2Keys` at scale).
fn large_2keys(tok: &str) -> String {
    assemble("relation S/2\n\nfd S: 1 -> 2\nfd S: 2 -> 1\n\n", key_cycles("S", tok, LARGE_KEYS))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(w: &Workload) -> Vec<u8> {
        w.warmup.iter().chain(&w.stream).flat_map(|r| r.raw.iter().copied()).collect()
    }

    #[test]
    fn a_seed_yields_a_byte_identical_stream() {
        for name in WORKLOADS {
            let a = workload(name, 7).unwrap();
            let b = workload(name, 7).unwrap();
            assert_eq!(stream_bytes(&a), stream_bytes(&b), "{name}");
            assert_eq!(a.serve_args(), b.serve_args(), "{name}");
        }
    }

    #[test]
    fn two_seeds_differ_in_bytes_but_not_in_work() {
        for name in WORKLOADS {
            let a = workload(name, 1).unwrap();
            let b = workload(name, 2).unwrap();
            assert_ne!(stream_bytes(&a), stream_bytes(&b), "{name}");
            assert_eq!(a.work_counts(), b.work_counts(), "{name}");
        }
    }

    #[test]
    fn churn_visits_have_the_designed_shape() {
        let w = workload("churn", 3).unwrap();
        let per_visit = w.stream.len() / CHURN_POOL;
        assert_eq!(per_visit * CHURN_POOL, w.stream.len());
        for visit in w.stream.chunks(per_visit) {
            let classes: Vec<Class> = visit.iter().map(|r| r.class).collect();
            use Class::*;
            assert_eq!(classes, [Cold, Delta, Plain, Certify, Delta, Delta, Delta, Plain, Trip]);
            // One miss per visit, and every delta re-attaches all but
            // the one component it touched.
            for r in visit {
                if let Expect::Delta { total, reused, .. } = &r.expect {
                    assert_eq!(*reused + 1, *total, "one dirty shard per single-fact delta");
                }
            }
        }
        // The pool outnumbers the session cache, so no visit can hit.
        const { assert!(CHURN_POOL > CHURN_CACHE) };
        assert!(w.shards.iter().all(|&s| s > 0));
    }

    #[test]
    fn large_workspaces_are_about_4k_facts() {
        let w = workload("hit_large", 5).unwrap();
        for r in &w.stream {
            let ws = parse_workspace(&crate::json::unescape_workspace(&r.body)).unwrap();
            assert!((3900..=4100).contains(&ws.instance.len()));
            assert!(r.body.len() > 100_000, "body {} bytes", r.body.len());
        }
    }
}
