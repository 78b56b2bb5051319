//! The traced run: per-layer timings of the same request stream.
//!
//! Three phases, all on the workload's generated requests:
//!
//! 1. **live** — a short replay against a spawned `rpr serve`, for the
//!    client-side latency `serve.transport_us` is derived from;
//! 2. **staged** — an in-process replay over two identically configured
//!    `ServerState`s: each request goes once through
//!    `handlers::handle` on the first (the `serve.handle_us` sample) and
//!    once through the same steps called one public function at a time
//!    on the second, each call timed. Both states must end identical, so
//!    the staged steps are the handler's steps;
//! 3. **untraced** — `handle` alone, for `trace.overhead`.
//!
//! Layers the stream never reaches on a workload (deltas, certificates
//! and budget trips on the hit workloads, exact search on PTIME-only
//! workspaces) are probed afterwards on the workload's own workspaces,
//! so every per-layer time is a measurement on every workload. Counts
//! are per stream pass (the last complete one), so they repeat exactly.

use crate::check::verify;
use crate::client::{Client, Server};
use crate::gen::{verdict_str, Class, Expect, Req, Workload};
use crate::{median, Metric, Report};
use rpr_classify::{classify_schema, RelationClass};
use rpr_core::global_1fd::{check_global_1fd_with_blocks, FdBlocks};
use rpr_core::{
    check_global_2keys, check_global_exact_bounded, Budget, CancelToken, CheckSession,
    DeltaSession, Outcome, ShardStore,
};
use rpr_data::fingerprint::Fingerprint;
use rpr_data::FactSet;
use rpr_fd::ComponentLayout;
use rpr_format::{
    delta_ops_from_strings, parse_workspace_raw, render_certificate, scan_object,
    workspace_fingerprint, SliceValue, Workspace,
};
use rpr_priority::PriorityMode;
use rpr_serve::handlers::handle;
use rpr_serve::http::{parse_request, Parsed};
use rpr_serve::identity::content_equal;
use rpr_serve::{
    BudgetDefaults, CacheOutcome, Json, Metrics, ServerState, SessionCache, SessionSlot,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-call samples in microseconds, by metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, us: f64) {
        self.0.entry(name).or_default().push(us);
    }

    fn has(&self, name: &str) -> bool {
        self.0.get(name).is_some_and(|v| !v.is_empty())
    }

    fn quantile(&self, name: &str, q: f64) -> f64 {
        let Some(v) = self.0.get(name).filter(|v| !v.is_empty()) else { return f64::NAN };
        let mut v = v.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((v.len() as f64) * q).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Times `f` into `name`, adding the span to the request's staged total.
fn span<T>(s: &mut Samples, total: &mut f64, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    let dt = us(t);
    s.push(name, dt);
    *total += dt;
    out
}

/// Count-type figures of one stream pass, and their pass-to-pass
/// difference.
macro_rules! counts {
    ($($field:ident),+) => {
        #[derive(Default, Clone, Copy)]
        struct Counts {
            $($field: u64,)+
        }

        impl std::ops::Sub for Counts {
            type Output = Counts;

            fn sub(self, before: Counts) -> Counts {
                Counts { $($field: self.$field - before.$field,)+ }
            }
        }
    };
}

counts!(
    hits,
    misses,
    evictions,
    facts_parsed,
    shards_built,
    work_units,
    store_hits,
    store_misses,
    store_evictions,
    delta_reused,
    delta_total,
    rebuilds,
    trips,
    trip_work,
    audit_failures
);

fn server_state(w: &Workload) -> ServerState {
    ServerState {
        cache: SessionCache::new(w.cache),
        shard_store: Arc::new(ShardStore::with_bytes_max(w.cache_bytes_max)),
        metrics: Metrics::default(),
        defaults: BudgetDefaults { timeout: Some(Duration::from_secs(60)), max_work: None },
        jobs: 1,
        drain: CancelToken::new(),
        self_audit: true,
    }
}

fn budget(st: &ServerState, max_work: Option<u64>) -> Budget {
    let mut b = Budget::unlimited()
        .with_cancel(st.drain.clone())
        .with_deadline(st.defaults.timeout.expect("a default deadline"));
    if let Some(w) = max_work {
        b = b.with_max_work(w);
    }
    b
}

fn complexity_str(c: rpr_classify::Complexity) -> &'static str {
    match c {
        rpr_classify::Complexity::PolynomialTime => "ptime",
        rpr_classify::Complexity::ConpComplete => "conp-complete",
    }
}

/// The staged `/check`: the handler's steps, one timed call each.
/// Returns the staged total in µs.
fn stage_check(
    st: &ServerState,
    req: &Req,
    s: &mut Samples,
    c: &mut Counts,
) -> Result<f64, String> {
    let mut total = 0.0;
    let mut ws_raw = None;
    let mut certify = false;
    let mut max_work = None;
    span(s, &mut total, "format.scan_object_us", || {
        scan_object(&req.body, |k, v| {
            if k.is("workspace") {
                ws_raw = v.as_raw_str();
            } else if k.is("certify") {
                certify = matches!(v, SliceValue::Bool(true));
            } else if k.is("max_work") {
                max_work = v.as_u64();
            }
        })
    })
    .map_err(|e| e.to_string())?;
    let raw = ws_raw.ok_or("body has no workspace")?;
    let ws = span(s, &mut total, "format.parse_workspace_us", || parse_workspace_raw(&raw))
        .map_err(|e| e.to_string())?;
    c.facts_parsed += ws.instance.len() as u64;
    let fp = span(s, &mut total, "format.fingerprint_us", || workspace_fingerprint(&ws));
    let pi = span(s, &mut total, "priority.prioritized_us", || ws.prioritized())
        .map_err(|e| e.to_string())?;
    let budget = budget(st, max_work);
    let candidates = ws.repairs.clone();
    let sets: Vec<FactSet> = candidates.iter().map(|(_, set)| set.clone()).collect();

    let mut pi = Some(pi);
    let mut build_us = None;
    let (slot, outcome) = span(s, &mut total, "serve.cache.get_or_build_us", || {
        st.cache.get_or_build(fp, || {
            let t = Instant::now();
            let slot = SessionSlot::new(DeltaSession::prepare_with_store(
                Arc::new(ws.schema.clone()),
                pi.take().expect("build closure runs at most once"),
                Some(Arc::clone(&st.shard_store)),
            ));
            build_us = Some(us(t));
            slot
        })
    });
    let guard = slot.read();
    if let Some(b) = build_us {
        s.push("core.session.build_us", b);
        c.shards_built += guard.shard_count() as u64;
    }
    let cached = outcome == CacheOutcome::Hit;
    if cached {
        let request_pi = pi.take().expect("a hit leaves the parsed instance untouched");
        let same = span(s, &mut total, "serve.identity.content_equal_us", || {
            content_equal(guard.schema(), guard.prioritized(), &ws.schema, &request_pi)
        });
        if !same {
            return Err("cache hit failed content verification".to_owned());
        }
        c.hits += 1;
    } else {
        c.misses += 1;
    }

    let session: CheckSession<'_> =
        span(s, &mut total, "core.session.view_us", || guard.session().with_jobs(1));
    let t = Instant::now();
    let outcomes = session.check_batch_bounded(&sets, &budget);
    let dispatch = us(t);
    s.push("core.check.dispatch_us", dispatch);
    total += dispatch;
    c.work_units += budget.work_done();

    let mut certs: Vec<Option<String>> = vec![None; outcomes.len()];
    if certify {
        for (i, outcome) in outcomes.iter().enumerate() {
            if let Outcome::Done(o) = outcome {
                let cert = span(s, &mut total, "core.certificate.certify_us", || {
                    session.certify(&sets[i], o)
                });
                let pi = guard.prioritized();
                let text = span(s, &mut total, "format.render_certificate_us", || {
                    render_certificate(guard.schema(), pi.instance(), pi.priority(), &cert)
                });
                certs[i] = Some(text);
            }
        }
        // A certified cache hit is audited twice: once to catch a stale
        // cached session, once more by `--self-audit`.
        for _ in 0..1 + usize::from(cached) {
            for text in certs.iter().flatten() {
                if span(s, &mut total, "audit.audit_us", || rpr_audit::audit(text)).is_err() {
                    c.audit_failures += 1;
                }
            }
        }
    }

    // Answer check of the staged verdicts, then the response render.
    let mut verdicts = Vec::new();
    let mut exceeded = None;
    for outcome in &outcomes {
        match outcome {
            Outcome::Done(o) => verdicts.push(verdict_str(o)),
            Outcome::Exceeded { report, .. } => {
                exceeded.get_or_insert(report.clone());
            }
            _ => return Err("staged check cancelled or panicked".to_owned()),
        }
    }
    match (&req.expect, &exceeded) {
        (Expect::Check { results, .. }, None) => {
            let want: Vec<&str> = results.iter().map(|(_, v)| *v).collect();
            if want != verdicts {
                return Err(format!("staged verdicts {verdicts:?}, expected {want:?}"));
            }
        }
        (Expect::Trip { work_done, .. }, Some(report)) => {
            if report.work_done != *work_done {
                return Err(format!("staged trip after {} units", report.work_done));
            }
            c.trips += 1;
            c.trip_work += report.work_done;
            s.push("engine.budget.trip_us", dispatch);
        }
        _ => return Err("staged check outcome does not match its class".to_owned()),
    }
    span(s, &mut total, "serve.json.render_us", || {
        let results = candidates
            .iter()
            .zip(&outcomes)
            .zip(&certs)
            .map(|(((name, _), outcome), cert)| {
                let mut e = BTreeMap::new();
                e.insert("repair".to_owned(), Json::str(name.clone()));
                if let Outcome::Done(o) = outcome {
                    e.insert("status".to_owned(), Json::str("done"));
                    e.insert("optimal".to_owned(), Json::Bool(o.is_optimal()));
                    e.insert("verdict".to_owned(), Json::str(verdict_str(o)));
                    if let Some(text) = cert {
                        e.insert("certificate".to_owned(), Json::str(text.clone()));
                    }
                } else {
                    e.insert("status".to_owned(), Json::str("exceeded"));
                }
                Json::Obj(e)
            })
            .collect();
        let mut fields = BTreeMap::new();
        fields.insert("fingerprint".to_owned(), Json::str(fp.to_hex()));
        fields.insert("cached".to_owned(), Json::Bool(cached));
        fields.insert("complexity".to_owned(), Json::str(complexity_str(guard.complexity())));
        fields.insert("results".to_owned(), Json::Arr(results));
        let status = if exceeded.is_some() { "exceeded" } else { "done" };
        fields.insert("status".to_owned(), Json::str(status));
        if let Some(report) = &exceeded {
            fields.insert("budget_report".to_owned(), Json::str(report.to_json()));
        }
        Json::Obj(fields).render()
    });
    drop(guard);
    span(s, &mut total, "core.shard_store.enforce_us", || st.shard_store.enforce_ceiling());
    span(s, &mut total, "serve.request_drop_us", || drop((ws, pi, candidates, sets, outcomes)));
    Ok(total)
}

/// The staged `/delta`. Returns the staged total in µs.
fn stage_delta(
    st: &ServerState,
    req: &Req,
    s: &mut Samples,
    c: &mut Counts,
) -> Result<f64, String> {
    let mut total = 0.0;
    let mut fp_raw = None;
    let mut ops_raw = None;
    span(s, &mut total, "format.scan_object_us", || {
        scan_object(&req.body, |k, v| {
            if k.is("fingerprint") {
                fp_raw = v.as_raw_str();
            } else if k.is("ops") {
                if let SliceValue::Arr(items) = v {
                    ops_raw = Some(items);
                }
            }
        })
    })
    .map_err(|e| e.to_string())?;
    let fp = fp_raw.and_then(|r| Fingerprint::from_hex(&r.cow())).ok_or("bad fingerprint")?;
    let op_strings: Vec<String> = ops_raw
        .ok_or("no ops")?
        .iter()
        .map(|v| v.as_raw_str().map(|r| r.cow().into_owned()).ok_or("op is not a string"))
        .collect::<Result<_, _>>()?;
    let budget = budget(st, None);
    let t = Instant::now();
    let slot = st.cache.get(fp).ok_or("no cached session under the fingerprint")?;
    let mut lookup = us(t);
    let mut session = slot.write();
    if session.fingerprint() != fp {
        return Err("stale fingerprint".to_owned());
    }
    let ops = span(s, &mut total, "format.delta_ops_us", || {
        delta_ops_from_strings(session.prioritized().instance().signature(), &op_strings)
    })
    .map_err(|e| e.to_string())?;
    budget.charge(ops.len() as u64).map_err(|e| e.to_string())?;
    let report = span(s, &mut total, "core.delta.apply_us", || session.apply_delta(&ops))
        .map_err(|e| e.to_string())?;
    let new_fp = session.fingerprint();
    slot.sync_bytes(&session);
    let t = Instant::now();
    st.cache.rekey(fp, new_fp);
    lookup += us(t);
    s.push("serve.cache.get_rekey_us", lookup);
    total += lookup;
    c.delta_reused += report.components_reused as u64;
    c.delta_total += report.components_total as u64;
    c.rebuilds += u64::from(report.rebuilt);
    if let Expect::Delta { fingerprint, .. } = &req.expect {
        if new_fp.to_hex() != *fingerprint {
            return Err("staged delta reached another fingerprint".to_owned());
        }
    }
    span(s, &mut total, "serve.json.render_us", || {
        Json::obj([
            ("fingerprint", Json::str(new_fp.to_hex())),
            ("previous_fingerprint", Json::str(fp.to_hex())),
            ("status", Json::str("done")),
            ("applied", Json::Int(report.applied as i64)),
            ("inserts", Json::Int(report.inserts as i64)),
            ("deletes", Json::Int(report.deletes as i64)),
            ("priority_ops", Json::Int(report.priority_ops as i64)),
            ("rebuilt", Json::Bool(report.rebuilt)),
            ("components_total", Json::Int(report.components_total as i64)),
            ("components_reused", Json::Int(report.components_reused as i64)),
            ("complexity", Json::str(complexity_str(session.complexity()))),
        ])
        .render()
    });
    drop(session);
    span(s, &mut total, "core.shard_store.enforce_us", || st.shard_store.enforce_ceiling());
    Ok(total)
}

/// Direct calls into the dichotomy's algorithms, one sample per
/// relation and candidate: `GRepCheck1FD` on single-FD relations,
/// `GRepCheck2Keys` on two-keys relations, and the exact search over
/// each hard relation's conflict components. With `exact_everywhere`
/// the exact search also runs on tractable relations (the probe for
/// workspaces without a hard relation).
fn algorithms(ws: &Workspace, sets: &[FactSet], s: &mut Samples, exact_everywhere: bool) {
    let pi = crate::gen::prioritized(ws);
    let session = CheckSession::new(&ws.schema, &pi).with_jobs(1);
    let cg = session.conflict_graph();
    let instance = pi.instance();
    let priority = pi.priority();
    let layout = ComponentLayout::from_csr(session.csr());
    for (rel, class) in classify_schema(&ws.schema).per_relation() {
        let domain = instance.rel_set(*rel);
        for j in sets {
            let j_rel = j.intersect(&domain);
            let exact = match class {
                RelationClass::SingleFd(fd) => {
                    let blocks = FdBlocks::build(instance, *fd, &domain);
                    let t = Instant::now();
                    let _ = black_box(check_global_1fd_with_blocks(cg, priority, &blocks, &j_rel));
                    s.push("core.check.1fd_us", us(t));
                    exact_everywhere
                }
                RelationClass::TwoKeys(a1, a2) => {
                    let t = Instant::now();
                    let _ = black_box(check_global_2keys(
                        instance, cg, priority, *a1, *a2, &domain, &j_rel,
                    ));
                    s.push("core.check.2keys_us", us(t));
                    exact_everywhere
                }
                RelationClass::Hard(_) => true,
            };
            if exact {
                let t = Instant::now();
                for &c in layout.nontrivial() {
                    let members = layout.component(c as usize);
                    if domain.contains(members[0]) {
                        let comp = layout.component_set(c as usize);
                        let _ = black_box(check_global_exact_bounded(
                            cg,
                            priority,
                            &comp,
                            &j_rel.intersect(&comp),
                            &Budget::unlimited(),
                        ));
                    }
                }
                s.push("core.check.exact_us", us(t));
            }
        }
    }
}

/// One request through `handle` on `st`; returns the handle time (µs)
/// and whether the response was correct.
fn handled(st: &ServerState, req: &Req, s: &mut Samples) -> (f64, bool) {
    let t = Instant::now();
    let parsed = parse_request(&req.raw);
    s.push("serve.http.parse_request_us", us(t));
    let Ok(Parsed::Complete { request, .. }) = parsed else { return (0.0, false) };
    let t = Instant::now();
    let response = handle(st, &request);
    let dt = us(t);
    (dt, verify(req, response.status, &response.body).is_ok())
}

fn stage(st: &ServerState, req: &Req, s: &mut Samples, c: &mut Counts) -> Result<f64, String> {
    match req.path {
        "/delta" => stage_delta(st, req, s, c),
        _ => stage_check(st, req, s, c),
    }
}

/// Store and cache counters at a pass boundary.
fn snapshot(st: &ServerState, c: &Counts) -> Counts {
    let stats = st.shard_store.stats();
    Counts {
        evictions: st.cache.evictions(),
        store_hits: stats.hits,
        store_misses: stats.misses,
        store_evictions: stats.evictions,
        ..*c
    }
}

/// Client-side latency (µs) of the stream against a live server.
fn live_latencies(w: &Workload, rpr: &Path, window: Duration) -> Result<Vec<f64>, String> {
    let server = Server::spawn(rpr, &w.serve_args()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(&server.addr).map_err(|e| e.to_string())?;
    for req in &w.warmup {
        client.send(&req.raw).map_err(|e| e.to_string())?;
    }
    let mut lat = Vec::new();
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        for req in &w.stream {
            let t = Instant::now();
            let (status, body) = client.send(&req.raw).map_err(|e| e.to_string())?;
            lat.push(us(t));
            verify(req, status, &body)?;
        }
    }
    drop(client);
    server.stop().map_err(|e| e.to_string())?;
    Ok(lat)
}

pub fn run(w: &Workload, rpr: &Path, seconds: u64) -> Result<Report, String> {
    let budget = Duration::from_secs(seconds);
    let mut client_lat = live_latencies(w, rpr, budget / 4)?;
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // Staged phase: both states see the warm-up, then whole passes.
    let handle_state = server_state(w);
    let stage_state = server_state(w);
    let mut s = Samples::default();
    let mut c = Counts::default();
    let mut handle_traced = Vec::new();
    let mut staged_sum = 0.0;
    let mut handle_sum = 0.0;
    // The order alternates per pass so neither side always runs on the
    // caches the other just warmed.
    let mut run_one =
        |req: &Req, s: &mut Samples, c: &mut Counts, keep: bool, stage_first: bool| {
            let early = stage_first.then(|| stage(&stage_state, req, s, c));
            let (dt, ok) = handled(&handle_state, req, s);
            let staged = early.unwrap_or_else(|| stage(&stage_state, req, s, c));
            if let Err(e) = &staged {
                eprintln!("perfbench: staged {:?} {}: {e}", req.class, req.path);
            }
            if keep {
                handle_traced.push(dt);
                handle_sum += dt;
                staged_sum += staged.as_ref().copied().unwrap_or(0.0);
            }
            ok && staged.is_ok()
        };
    for req in &w.warmup {
        attempted += 1;
        failed += u64::from(!run_one(req, &mut s, &mut c, false, false));
    }
    let warmup_shards = c.shards_built;
    let started = Instant::now();
    let mut pass_counts = Counts::default();
    let mut passes = 0;
    while passes < 2 || started.elapsed() < budget / 2 {
        let before = snapshot(&stage_state, &c);
        for req in &w.stream {
            attempted += 1;
            failed += u64::from(!run_one(req, &mut s, &mut c, true, passes % 2 == 1));
        }
        pass_counts = snapshot(&stage_state, &c) - before;
        passes += 1;
    }
    let resident = stage_state.shard_store.stats();
    let in_step = resident == handle_state.shard_store.stats()
        && stage_state.cache.len() == handle_state.cache.len()
        && stage_state.cache.evictions() == handle_state.cache.evictions();
    if !in_step {
        eprintln!("perfbench: staged state diverged from the handler's");
    }

    // Untraced phase: `handle` alone, whole passes.
    let mut handle_untraced = Vec::new();
    let started = Instant::now();
    let mut discarded = Samples::default();
    while handle_untraced.len() < w.stream.len() || started.elapsed() < budget / 4 {
        for req in &w.stream {
            attempted += 1;
            let (dt, ok) = handled(&handle_state, req, &mut discarded);
            failed += u64::from(!ok);
            handle_untraced.push(dt);
        }
    }

    // Probes for layers the stream does not reach.
    let probe_counts = probe(w, &stage_state, &mut s, &mut failed)?;
    let delta_counts = if pass_counts.delta_total > 0 { pass_counts } else { probe_counts };

    for t in &handle_untraced {
        s.push("serve.handle_us", *t);
    }
    let untraced_p50 = median(&mut handle_untraced);
    let traced_p50 = median(&mut handle_traced);
    let transport = median(&mut client_lat) - untraced_p50;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let store = stage_state.shard_store.stats();

    let mut metrics = vec![Metric::new("serve.transport_us", transport, "us")];
    for name in TIMED {
        metrics.push(Metric::new(*name, s.quantile(name, 0.5), "us"));
    }
    metrics.push(Metric::new("serve.handle_p99_us", s.quantile("serve.handle_us", 0.99), "us"));
    let counts = [
        ("format.facts_parsed", pass_counts.facts_parsed as f64, "count"),
        ("serve.cache.hits", pass_counts.hits as f64, "count"),
        ("serve.cache.misses", pass_counts.misses as f64, "count"),
        ("serve.cache.evictions", pass_counts.evictions as f64, "count"),
        ("core.session.shards", warmup_shards as f64, "count"),
        ("core.shard_store.hits", pass_counts.store_hits as f64, "count"),
        (
            "core.shard_store.hit_ratio",
            ratio(pass_counts.store_hits, pass_counts.store_hits + pass_counts.store_misses),
            "ratio",
        ),
        ("core.shard_store.entries", store.entries as f64, "count"),
        ("core.shard_store.evictions", pass_counts.store_evictions as f64, "count"),
        ("core.shard_store.resident_bytes", store.bytes as f64, "bytes"),
        ("core.check.work_units", pass_counts.work_units as f64, "count"),
        (
            "core.delta.reuse_ratio",
            ratio(delta_counts.delta_reused, delta_counts.delta_total),
            "ratio",
        ),
        ("core.delta.rebuilds", delta_counts.rebuilds as f64, "count"),
        ("engine.budget.trips", pass_counts.trips as f64, "count"),
        ("engine.budget.trip_work_units", pass_counts.trip_work as f64, "count"),
        (
            "audit.failures",
            (pass_counts.audit_failures + probe_counts.audit_failures) as f64,
            "count",
        ),
        ("trace.coverage", staged_sum / handle_sum, "ratio"),
        ("trace.overhead", traced_p50 / untraced_p50, "ratio"),
    ];
    for (name, value, unit) in counts {
        metrics.push(Metric::new(name, value, unit));
    }
    println!(
        "perfbench: traced {passes} pass(es); coverage {:.3}, overhead {:.3}, states in step: {in_step}",
        staged_sum / handle_sum,
        traced_p50 / untraced_p50
    );
    let missing: Vec<&str> = TIMED.iter().copied().filter(|n| !s.has(n)).collect();
    if !missing.is_empty() {
        eprintln!("perfbench: no samples for {missing:?}");
    }
    let audit_ok = pass_counts.audit_failures + probe_counts.audit_failures == 0;
    Ok(Report {
        correct: failed == 0 && in_step && missing.is_empty() && audit_ok,
        attempted,
        failed,
        metrics,
    })
}

/// The per-call timings the traced run reports (p50, µs).
const TIMED: &[&str] = &[
    "serve.http.parse_request_us",
    "serve.handle_us",
    "serve.json.render_us",
    "format.scan_object_us",
    "format.parse_workspace_us",
    "format.fingerprint_us",
    "priority.prioritized_us",
    "serve.identity.content_equal_us",
    "serve.cache.get_or_build_us",
    "serve.cache.get_rekey_us",
    "core.session.build_us",
    "core.shard_store.enforce_us",
    "serve.request_drop_us",
    "core.session.view_us",
    "core.check.dispatch_us",
    "core.check.1fd_us",
    "core.check.2keys_us",
    "core.check.exact_us",
    "format.delta_ops_us",
    "core.delta.apply_us",
    "engine.budget.trip_us",
    "core.certificate.certify_us",
    "format.render_certificate_us",
    "audit.audit_us",
];

/// Probes the layers the stream did not reach, on the workload's own
/// workspaces: the delta probe batches through the staged `/delta`;
/// certify + render + audit of every candidate; each candidate under
/// half its work units (must trip). Then the direct algorithm calls,
/// over every distinct workspace the stream checks (with exact search
/// over every relation's components when no relation is hard). Returns
/// the counts of the last delta probe round.
fn probe(
    w: &Workload,
    st: &ServerState,
    s: &mut Samples,
    failed: &mut u64,
) -> Result<Counts, String> {
    let mut c = Counts::default();
    if !s.has("core.delta.apply_us") {
        for _ in 0..PROBE_ROUNDS {
            c = Counts::default();
            for req in &w.probe {
                if let Err(e) = stage_delta(st, req, s, &mut c) {
                    eprintln!("perfbench: delta probe: {e}");
                    *failed += 1;
                }
            }
        }
    }
    let certify = !s.has("core.certificate.certify_us");
    let trip = !s.has("engine.budget.trip_us");
    let mut checked: Vec<(Workspace, Vec<FactSet>)> = Vec::new();
    for req in w.stream.iter().filter(|r| r.path == "/check" && r.class != Class::Trip) {
        let doc = crate::json::parse(&req.body)?;
        let text = doc.str_at("workspace").ok_or("no workspace")?;
        let ws = rpr_format::parse_workspace(text).map_err(|e| e.to_string())?;
        if checked.iter().any(|(seen, _)| workspace_fingerprint(seen) == workspace_fingerprint(&ws))
        {
            continue;
        }
        let sets: Vec<FactSet> = ws.repairs.iter().map(|(_, set)| set.clone()).collect();
        checked.push((ws, sets));
    }
    for (ws, sets) in &checked {
        let pi = crate::gen::prioritized(ws);
        let session = CheckSession::new(&ws.schema, &pi).with_jobs(1);
        for j in sets {
            let full = Budget::unlimited();
            let Outcome::Done(outcome) = session.check_bounded(j, &full) else {
                return Err("probe check must complete".to_owned());
            };
            if certify {
                let mut total = 0.0;
                let cert = span(s, &mut total, "core.certificate.certify_us", || {
                    session.certify(j, &outcome)
                });
                let text = span(s, &mut total, "format.render_certificate_us", || {
                    render_certificate(&ws.schema, pi.instance(), pi.priority(), &cert)
                });
                if span(s, &mut total, "audit.audit_us", || rpr_audit::audit(&text)).is_err() {
                    c.audit_failures += 1;
                }
            }
            if trip {
                let half = Budget::unlimited().with_max_work(full.work_done() / 2);
                let t = Instant::now();
                let tripped = session.check_bounded(j, &half);
                let dt = us(t);
                match tripped {
                    Outcome::Exceeded { .. } => s.push("engine.budget.trip_us", dt),
                    _ => return Err("half the work units must trip".to_owned()),
                }
            }
        }
    }
    let classical = |ws: &Workspace| ws.mode == PriorityMode::ConflictRestricted;
    for _ in 0..PROBE_ROUNDS {
        for (ws, sets) in checked.iter().filter(|(ws, _)| classical(ws)) {
            algorithms(ws, sets, s, false);
        }
    }
    if !s.has("core.check.exact_us") {
        for _ in 0..PROBE_ROUNDS {
            for (ws, sets) in checked.iter().filter(|(ws, _)| classical(ws)) {
                algorithms(ws, sets, s, true);
            }
        }
    }
    Ok(c)
}

/// Rounds of each probe.
const PROBE_ROUNDS: usize = 5;
