//! Endpoint logic: request body → budgeted computation → JSON response.
//!
//! Every handler is a pure function of `(state, request)`; the server
//! module owns sockets, admission, and threads. Request bodies are
//! pulled apart with `rpr_format`'s from-slice scanner — top-level
//! fields come out as borrowed spans of the request buffer, so the hot
//! cache-hit path never materializes a JSON tree. Outcome → status
//! mapping (mirroring the CLI's exit codes):
//!
//! | outcome                    | status                          |
//! |----------------------------|---------------------------------|
//! | full answer                | 200                             |
//! | budget tripped             | 422 + partial + budget report   |
//! | cancelled (server drain)   | 503 + `Retry-After`             |
//! | handler/worker panic       | 500 (isolated, server survives) |
//! | malformed request          | 400                             |
//! | unknown route / bad method | 404 / 405                       |
//!
//! `POST /delta` adds two of its own: 404 when no session is cached
//! under the request's fingerprint (the client re-uploads via
//! `/check`), and 409 when the fingerprint is stale (a concurrent
//! delta moved the session on; the response carries the current
//! fingerprint to re-sync against).
//!
//! Sessions are cached as mutable [`SessionSlot`]s: checking endpoints
//! hold a slot's read lock for the whole request, so a concurrent
//! delta can never mutate the workspace out from under a half-finished
//! batch check.

use crate::cache::{SessionCache, SessionSlot, Source};
use crate::http::{Request, Response};
use crate::identity::translate;
use crate::json::object;
use crate::metrics::Metrics;
use rpr_core::{
    Budget, CancelToken, CheckOutcome, CheckSession, ContentLanes, DeltaSession, Outcome,
    ShardStore, Stop,
};
use rpr_cqa::RepairSemantics;
use rpr_data::{fingerprint::Fingerprint, FactSet};
use rpr_format::{
    delta_ops_from_strings, parse_workspace_raw, render_certificate, scan_object, RawStr,
    SliceValue, Workspace,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Budget knobs every request runs under; the server supplies defaults
/// and request bodies may override per call.
#[derive(Clone, Copy, Debug)]
pub struct BudgetDefaults {
    /// Wall-clock deadline applied when the request names none.
    pub timeout: Option<Duration>,
    /// Work allowance applied when the request names none.
    pub max_work: Option<u64>,
}

/// Shared, immutable server state handed to every handler.
pub struct ServerState {
    /// The fingerprint-keyed LRU of prepared sessions.
    pub cache: SessionCache,
    /// The content-addressed shard store shared by every cached
    /// session: immutable per-component artifacts keyed by shard
    /// fingerprint, ref-counted across workspace fingerprints.
    pub shard_store: Arc<ShardStore>,
    /// The metrics registry.
    pub metrics: Metrics,
    /// Server-level budget defaults.
    pub defaults: BudgetDefaults,
    /// Worker threads used inside one check (the `--jobs` convention).
    pub jobs: usize,
    /// Fires when the server starts draining; attached to every budget.
    pub drain: CancelToken,
    /// Re-audit every issued certificate before responding; an audit
    /// failure answers 500 rather than risking a wrong 200.
    pub self_audit: bool,
    /// Fault injection: corrupt every issued certificate (differential
    /// testing of the audit path only).
    #[cfg(feature = "faults")]
    pub corrupt_certificates: bool,
}

/// Routes one parsed request. Never panics outward: the server wraps
/// this in `catch_unwind`, but handlers themselves also isolate
/// per-candidate panics via the bounded session API.
pub fn handle(state: &ServerState, req: &Request<'_>) -> Response {
    state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
    match (req.method, req.path) {
        ("GET", "/healthz") => {
            state.metrics.done_total.fetch_add(1, Ordering::Relaxed);
            Response::json(200, r#"{"status":"ok"}"#)
        }
        ("GET", "/metrics") => {
            state.metrics.done_total.fetch_add(1, Ordering::Relaxed);
            // The cache and shard store count evictions and sizes
            // under their own locks; sync at scrape time so the
            // rendered values are exact. Session bytes are
            // deduplication-aware: per-session private bytes plus the
            // store's resident bytes, each shared shard counted once.
            state.metrics.cache_evictions_total.store(state.cache.evictions(), Ordering::Relaxed);
            let shards = state.shard_store.stats();
            state
                .metrics
                .session_cache_bytes
                .store(state.cache.total_bytes() + shards.bytes, Ordering::Relaxed);
            state.metrics.shard_store_entries.store(shards.entries, Ordering::Relaxed);
            state.metrics.shard_store_bytes.store(shards.bytes, Ordering::Relaxed);
            state.metrics.shard_hits_total.store(shards.hits, Ordering::Relaxed);
            state.metrics.shard_evictions_total.store(shards.evictions, Ordering::Relaxed);
            Response::text(200, state.metrics.render_prometheus())
        }
        ("POST", "/check") => timed(state, &state.metrics.check_latency, req, check),
        ("POST", "/classify") => timed(state, &state.metrics.classify_latency, req, classify),
        ("POST", "/cqa") => timed(state, &state.metrics.cqa_latency, req, cqa),
        ("POST", "/delta") => timed(state, &state.metrics.delta_latency, req, delta),
        (_, "/healthz" | "/metrics") | (_, "/check" | "/classify" | "/cqa" | "/delta") => {
            state.metrics.bad_request_total.fetch_add(1, Ordering::Relaxed);
            error_response(405, "method not allowed for this path")
        }
        _ => {
            state.metrics.bad_request_total.fetch_add(1, Ordering::Relaxed);
            error_response(404, "unknown path")
        }
    }
}

fn timed(
    state: &ServerState,
    histogram: &crate::metrics::Histogram,
    req: &Request<'_>,
    f: impl Fn(&ServerState, &Request<'_>) -> Result<Response, Response>,
) -> Response {
    let start = Instant::now();
    let response = match f(state, req) {
        Ok(r) | Err(r) => r,
    };
    // Memoization grows shards in place and deltas re-point shard
    // keys, so re-apply the store's byte ceiling after every mutating
    // endpoint (cold shards only; live sessions pin theirs).
    state.shard_store.enforce_ceiling();
    histogram.observe(start.elapsed());
    count_status(&state.metrics, response.status);
    response
}

fn count_status(metrics: &Metrics, status: u16) {
    let counter = match status {
        200 => &metrics.done_total,
        422 => &metrics.exceeded_total,
        503 => &metrics.cancelled_total,
        500 => &metrics.panicked_total,
        _ => &metrics.bad_request_total,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The 400 for a workspace that does not parse or validate.
fn workspace_error(e: rpr_format::FormatError) -> Response {
    error_response(400, &format!("workspace: {e}"))
}

/// The `{"error": message}` answer.
pub(crate) fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        object(|o| {
            o.str("error", message);
        }),
    )
}

/// The top-level fields a POST body may carry, as borrowed spans of
/// the request buffer (unknown fields are validated and ignored;
/// duplicate keys: last wins, matching the old tree parser).
#[derive(Default)]
struct Body<'a> {
    workspace: Option<RawStr<'a>>,
    query: Option<RawStr<'a>>,
    /// Only set when the field is a string (a non-string `semantics`
    /// silently meant "default" under the tree parser too).
    semantics: Option<RawStr<'a>>,
    timeout_ms: Option<SliceValue<'a>>,
    max_work: Option<SliceValue<'a>>,
    /// Only set when the field is an array (a non-array `repairs`
    /// silently fell back to the workspace's declared repairs before).
    repairs: Option<Vec<SliceValue<'a>>>,
    /// `"certify": true` asks `/check` to attach a verdict certificate
    /// to every completed result.
    certify: bool,
    /// `/delta`: the hex fingerprint naming the cached session.
    fingerprint: Option<RawStr<'a>>,
    /// `/delta`: the op strings to apply, in order. Only set when the
    /// field is an array.
    ops: Option<Vec<SliceValue<'a>>>,
}

/// Scans the body once, in place. No JSON tree is built: strings stay
/// escaped spans, nested objects are validated and skipped.
fn parse_body<'a>(req: &Request<'a>) -> Result<Body<'a>, Response> {
    let text =
        std::str::from_utf8(req.body).map_err(|_| error_response(400, "body is not UTF-8"))?;
    let mut body = Body::default();
    scan_object(text, |key, value| {
        if key.is("workspace") {
            body.workspace = value.as_raw_str();
        } else if key.is("query") {
            body.query = value.as_raw_str();
        } else if key.is("semantics") {
            body.semantics = value.as_raw_str();
        } else if key.is("timeout_ms") {
            body.timeout_ms = Some(value);
        } else if key.is("max_work") {
            body.max_work = Some(value);
        } else if key.is("repairs") {
            if let SliceValue::Arr(items) = value {
                body.repairs = Some(items);
            }
        } else if key.is("certify") {
            if let SliceValue::Bool(b) = value {
                body.certify = b;
            }
        } else if key.is("fingerprint") {
            body.fingerprint = value.as_raw_str();
        } else if key.is("ops") {
            if let SliceValue::Arr(items) = value {
                body.ops = Some(items);
            }
        }
    })
    .map_err(|e| error_response(400, &e.to_string()))?;
    Ok(body)
}

/// The request's budget: body override, else server default; the
/// drain token is always attached.
fn request_budget(state: &ServerState, body: &Body<'_>) -> Result<Budget, Response> {
    let timeout =
        match &body.timeout_ms {
            Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
                error_response(400, "`timeout_ms` must be a non-negative integer")
            })?)),
            None => state.defaults.timeout,
        };
    let max_work = match &body.max_work {
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| error_response(400, "`max_work` must be a non-negative integer"))?,
        ),
        None => state.defaults.max_work,
    };
    let mut budget = Budget::unlimited().with_cancel(state.drain.clone());
    if let Some(t) = timeout {
        budget = budget.with_deadline(t);
    }
    if let Some(w) = max_work {
        budget = budget.with_max_work(w);
    }
    Ok(budget)
}

/// A read-locked session serving one workspace-carrying request. The
/// guard is held until the response is built, so `POST /delta` (which
/// takes the write lock) serializes against in-flight checks instead of
/// mutating under them. When a cache hit fails content verification (a
/// crafted fingerprint collision), `fresh` carries a session built from
/// the request's own workspace and the guard only keeps the slot alive.
struct ActiveSession<'a> {
    guard: std::sync::RwLockReadGuard<'a, DeltaSession>,
    fresh: Option<DeltaSession>,
    cached: bool,
    /// Served by a kept source matching the request's bytes (a subset
    /// of the cached lookups).
    byte_hit: bool,
    /// The request's workspace fingerprint.
    fingerprint: Fingerprint,
    /// The workspace's named repairs, in the served session's fact ids.
    repairs: Arc<[(String, FactSet)]>,
    budget: Budget,
}

impl ActiveSession<'_> {
    fn get(&self) -> &DeltaSession {
        self.fresh.as_ref().unwrap_or(&self.guard)
    }
}

/// Resolves the request's `workspace` to a read-locked session and
/// hands it to `serve`.
///
/// * **Byte hit.** A cached slot whose kept [`Source`] is byte-equal to
///   the escaped `workspace` span is that content, so it is served as
///   is: no parse, fingerprint or content compare.
/// * **Fingerprint hit.** Otherwise the workspace is parsed and
///   fingerprinted. The fingerprint is content-based but not
///   collision-resistant against adversaries, and the cache crosses the
///   HTTP trust boundary, so a hit is only reused after verifying it is
///   the same content; a collision degrades to a counted miss served
///   fresh, never to another workspace's verdicts. A verified hit moves
///   the request's repairs into the session's fact ids and re-arms the
///   slot with the request's bytes.
/// * **Miss.** The request's parsed instance and priority move into
///   the new session uncopied, and it keeps the request's bytes and
///   repairs before it is cached, so the insert indexes them. Between
///   the insert and the read guard a delta may mutate the session, even
///   without changing its fingerprint (a delete and re-insert renumbers
///   the facts), and clears the kept source as it does. So the request
///   is served by the source found under the read guard, or, when it is
///   gone, by a fresh build from a second parse of the request.
fn with_session(
    state: &ServerState,
    body: &Body<'_>,
    serve: impl FnOnce(ActiveSession<'_>) -> Result<Response, Response>,
) -> Result<Response, Response> {
    let ws_raw =
        body.workspace.ok_or_else(|| error_response(400, "missing string field `workspace`"))?;
    let text = ws_raw.escaped();
    if let Some(slot) = state.cache.get_by_source(text) {
        let guard = slot.read();
        if let Some(source) = slot.source_for(text) {
            let budget = request_budget(state, body)?;
            return serve(ActiveSession::kept(guard, &source, true, budget));
        }
    }

    let mut workspace = parse_workspace_raw(&ws_raw).map_err(workspace_error)?;
    let lanes = ContentLanes::new(
        &workspace.schema,
        &workspace.instance,
        &workspace.priority,
        workspace.mode,
    );
    let fingerprint = lanes.fingerprint();
    let repairs: Arc<[(String, FactSet)]> = std::mem::take(&mut workspace.repairs).into();
    // Validate before touching the cache so a broken workspace can
    // never leave a placeholder entry behind.
    let (schema, pi) = workspace.into_prioritized().map_err(workspace_error)?;
    let schema = Arc::new(schema);
    let budget = request_budget(state, body)?;
    let mut pi = Some(pi);
    let (slot, _) = state.cache.get_or_build(fingerprint, || {
        let slot = SessionSlot::new(DeltaSession::prepare_with_lanes(
            Arc::clone(&schema),
            pi.take().expect("build closure runs at most once"),
            lanes,
            Some(Arc::clone(&state.shard_store)),
        ));
        // The new session's fact ids are the request's.
        slot.keep_source(Source::new(text, Arc::clone(&repairs)));
        slot
    });
    #[cfg(test)]
    tests::after_insert(state, fingerprint);
    let guard = slot.read();
    let pi = match pi {
        None => match slot.source_for(text) {
            Some(source) => return serve(ActiveSession::kept(guard, &source, false, budget)),
            // A delta got in between the insert and the read guard,
            // and the request's instance is in the session it built:
            // parse the request again (it parsed and validated above).
            None => {
                parse_workspace_raw(&ws_raw)
                    .and_then(Workspace::into_prioritized)
                    .expect("parsed and validated above")
                    .1
            }
        },
        Some(request_pi) => {
            let session_facts = guard.prioritized().instance();
            let translated = crate::identity::content_equal(
                guard.schema(),
                guard.prioritized(),
                &schema,
                &request_pi,
            )
            .then(|| {
                repairs
                    .iter()
                    .map(|(name, set)| {
                        Some((name.clone(), translate(set, request_pi.instance(), session_facts)?))
                    })
                    .collect::<Option<Arc<[_]>>>()
            })
            .flatten();
            if let Some(repairs) = translated {
                drop(request_pi);
                state.cache.arm(fingerprint, &slot, Source::new(text, Arc::clone(&repairs)));
                return serve(ActiveSession {
                    guard,
                    fresh: None,
                    cached: true,
                    byte_hit: false,
                    fingerprint,
                    repairs,
                    budget,
                });
            }
            // Fingerprint collision: serving the cached session would
            // return another workspace's verdicts. Build fresh and
            // leave the cache alone (caching the collider would only
            // make the two keys thrash one slot).
            state.metrics.cache_collisions_total.fetch_add(1, Ordering::Relaxed);
            request_pi
        }
    };
    let fresh = Some(DeltaSession::prepare(schema, pi));
    serve(ActiveSession {
        guard,
        fresh,
        cached: false,
        byte_hit: false,
        fingerprint,
        repairs,
        budget,
    })
}

impl<'a> ActiveSession<'a> {
    /// Serves the slot's session by a source matched under `guard`: a
    /// byte hit when `cached`, else the miss that built the slot.
    fn kept(
        guard: std::sync::RwLockReadGuard<'a, DeltaSession>,
        source: &Source,
        cached: bool,
        budget: Budget,
    ) -> ActiveSession<'a> {
        let fingerprint = guard.fingerprint();
        let repairs = Arc::clone(source.repairs());
        ActiveSession { guard, fresh: None, cached, byte_hit: cached, fingerprint, repairs, budget }
    }

    /// Counts the lookup's outcome and syncs the components gauge.
    /// `/check` calls this once its candidate repairs resolve and `/cqa`
    /// once its `semantics` does, so such a 400 counts no lookup.
    fn count(&self, state: &ServerState) {
        let counter = if self.cached {
            &state.metrics.cache_hits_total
        } else {
            &state.metrics.cache_misses_total
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if self.byte_hit {
            state.metrics.cache_byte_hits_total.fetch_add(1, Ordering::Relaxed);
        }
        state.metrics.session_components.store(self.get().shard_count() as u64, Ordering::Relaxed);
    }
}

/// The members every workspace-carrying response shares.
struct Head {
    cached: bool,
    complexity: &'static str,
    fingerprint: Fingerprint,
}

impl Head {
    fn of(active: &ActiveSession<'_>) -> Head {
        Head {
            cached: active.cached,
            complexity: complexity_str(active.get().complexity()),
            fingerprint: active.fingerprint,
        }
    }
}

fn complexity_str(c: rpr_classify::Complexity) -> &'static str {
    match c {
        rpr_classify::Complexity::PolynomialTime => "ptime",
        rpr_classify::Complexity::ConpComplete => "conp-complete",
    }
}

/// `POST /classify` — schema classification under the workspace's
/// dichotomy, plus cache/fingerprint info.
fn classify(state: &ServerState, req: &Request<'_>) -> Result<Response, Response> {
    let body = parse_body(req)?;
    with_session(state, &body, |active| {
        active.count(state);
        Ok(Response::json(
            200,
            classify_body(&Head::of(&active), active.get().prioritized().mode()),
        ))
    })
}

fn classify_body(head: &Head, mode: rpr_priority::PriorityMode) -> String {
    object(|o| {
        o.bool("cached", head.cached)
            .str("complexity", head.complexity)
            .str("fingerprint", &head.fingerprint.to_hex())
            .str(
                "mode",
                match mode {
                    rpr_priority::PriorityMode::ConflictRestricted => "conflict",
                    rpr_priority::PriorityMode::CrossConflict => "ccp",
                },
            )
            .str("status", "done");
    })
}

/// Resolves which of the workspace's named candidate repairs the
/// request asks about.
fn requested_repairs(
    body_repairs: Option<&[SliceValue<'_>]>,
    declared: &[(String, FactSet)],
) -> Result<Vec<(String, FactSet)>, Response> {
    match body_repairs {
        None => Ok(declared.to_vec()),
        Some(names) => {
            names
                .iter()
                .map(|n| {
                    let name = n.as_raw_str().ok_or_else(|| {
                        error_response(400, "`repairs` must be an array of names")
                    })?;
                    declared.iter().find(|(declared, _)| name.is(declared)).cloned().ok_or_else(
                        || error_response(400, &format!("unknown repair `{}`", name.cow())),
                    )
                })
                .collect()
        }
    }
}

/// One pass of the batch checker, with certificates rendered for every
/// completed verdict when asked. `certs[i]` is aligned with
/// `outcomes[i]` (None for candidates without a final verdict).
struct CheckRun {
    outcomes: Vec<Outcome<CheckOutcome>>,
    certs: Vec<Option<String>>,
}

fn run_check(
    state: &ServerState,
    ds: &DeltaSession,
    sets: &[FactSet],
    budget: &Budget,
    certify: bool,
) -> CheckRun {
    let session: CheckSession<'_> = ds.session().with_jobs(state.jobs);
    let outcomes = session.check_batch_bounded(sets, budget);
    let mut certs = vec![None; outcomes.len()];
    if certify {
        for (i, outcome) in outcomes.iter().enumerate() {
            if let Outcome::Done(check_outcome) = outcome {
                let cert = session.certify(&sets[i], check_outcome);
                let pi = ds.prioritized();
                #[allow(unused_mut)]
                let mut text = render_certificate(ds.schema(), pi.instance(), pi.priority(), &cert);
                #[cfg(feature = "faults")]
                if state.corrupt_certificates {
                    if let Some(bad) =
                        rpr_format::corrupt::CORRUPTIONS.iter().find_map(|(_, f)| f(&text))
                    {
                        text = bad;
                    }
                }
                certs[i] = Some(text);
            }
        }
    }
    CheckRun { outcomes, certs }
}

/// Audits every rendered certificate; returns the number that failed
/// (and counts them in `rpr_audit_failures_total`).
fn audit_certs(state: &ServerState, certs: &[Option<String>]) -> usize {
    #[cfg(test)]
    tests::audited(certs.iter().flatten().count());
    let failures = certs.iter().flatten().filter(|text| rpr_audit::audit(text).is_err()).count();
    if failures > 0 {
        state.metrics.audit_failures_total.fetch_add(failures as u64, Ordering::Relaxed);
    }
    failures
}

/// `POST /check` — batch repair checking through the cached session.
fn check(state: &ServerState, req: &Request<'_>) -> Result<Response, Response> {
    let body = parse_body(req)?;
    with_session(state, &body, |active| check_session(state, &body, &active))
}

fn check_session(
    state: &ServerState,
    body: &Body<'_>,
    active: &ActiveSession<'_>,
) -> Result<Response, Response> {
    let candidates = requested_repairs(body.repairs.as_deref(), &active.repairs)?;
    if candidates.is_empty() {
        return Err(error_response(400, "workspace declares no candidate repairs (add `repair NAME: ...` lines or pass `repairs`)"));
    }
    active.count(state);
    let sets: Vec<FactSet> = candidates.iter().map(|(_, s)| s.clone()).collect();
    let mut run = run_check(state, active.get(), &sets, &active.budget, body.certify);

    // Cache-hit audit: a stale or colliding cached session surfaces as
    // certificates whose evidence does not re-validate. Such a hit
    // degrades to a counted miss — rebuild from the request's own
    // workspace and recompute — instead of serving the cached lie. A
    // byte hit did not parse the request, so this rare branch does.
    // Certificates that pass it are audited: it is their self-audit.
    let mut unaudited = !active.cached;
    if body.certify && active.cached && audit_certs(state, &run.certs) > 0 {
        state.metrics.cache_misses_total.fetch_add(1, Ordering::Relaxed);
        let ws_raw = body.workspace.expect("a served request carries a workspace");
        let workspace = parse_workspace_raw(&ws_raw).map_err(workspace_error)?;
        let own: Vec<FactSet> = requested_repairs(body.repairs.as_deref(), &workspace.repairs)?
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        let (schema, pi) = workspace.into_prioritized().map_err(workspace_error)?;
        let fresh = DeltaSession::prepare(Arc::new(schema), pi);
        run = run_check(state, &fresh, &own, &active.budget, true);
        unaudited = true;
    }

    // Self-audit: never send a certificate this server cannot itself
    // re-validate — a failed audit is a 500, not a wrong 200. Each
    // certificate is audited once: only fresh ones (a cold session's,
    // or a rebuild's) are still unaudited here.
    if body.certify && state.self_audit && unaudited && audit_certs(state, &run.certs) > 0 {
        return Err(error_response(500, "certificate audit failed"));
    }

    // Certificates exist for completed verdicts only.
    let issued = run.certs.iter().flatten().count() as u64;
    if issued > 0 {
        state.metrics.certificates_issued_total.fetch_add(issued, Ordering::Relaxed);
    }
    let (status, body) = check_body(&Head::of(active), &candidates, &run.outcomes, &run.certs);
    let mut response = Response::json(status, body);
    if status == 503 {
        response = response.with_header("retry-after", "1");
    }
    Ok(response)
}

/// The `/check` status and body. Any cancelled candidate makes the
/// batch a 503, else any exceeded one a 422 carrying the first trip's
/// `budget_report`, else any panicked one a 500.
fn check_body(
    head: &Head,
    candidates: &[(String, FactSet)],
    outcomes: &[Outcome<CheckOutcome>],
    certs: &[Option<String>],
) -> (u16, String) {
    let exceeded = outcomes.iter().find_map(|outcome| match outcome {
        Outcome::Exceeded { report, .. } => Some(report),
        _ => None,
    });
    let any = |f: fn(&Outcome<CheckOutcome>) -> bool| outcomes.iter().any(f);
    let (status, status_str) = if any(|o| matches!(o, Outcome::Cancelled { .. })) {
        (503, "cancelled")
    } else if exceeded.is_some() {
        (422, "exceeded")
    } else if any(|o| matches!(o, Outcome::Panicked { .. })) {
        (500, "panicked")
    } else {
        (200, "done")
    };
    let body = object(|o| {
        if let (422, Some(report)) = (status, exceeded) {
            o.raw("budget_report", &report.to_json());
        }
        o.bool("cached", head.cached)
            .str("complexity", head.complexity)
            .str("fingerprint", &head.fingerprint.to_hex());
        let results = candidates.iter().zip(outcomes).zip(certs);
        o.objects("results", results, |e, (((name, _), outcome), cert)| match outcome {
            Outcome::Done(check_outcome) => {
                if let Some(text) = cert {
                    e.str("certificate", text);
                }
                e.bool("optimal", check_outcome.is_optimal())
                    .str("repair", name)
                    .str("status", "done")
                    .str("verdict", verdict_str(check_outcome));
            }
            Outcome::Exceeded { .. } => {
                e.str("repair", name).str("status", "exceeded");
            }
            Outcome::Cancelled { .. } => {
                e.str("repair", name).str("status", "cancelled");
            }
            Outcome::Panicked { report, .. } => {
                e.str("panic", &report.to_string()).str("repair", name).str("status", "panicked");
            }
        })
        .str("status", status_str);
    });
    (status, body)
}

fn verdict_str(outcome: &CheckOutcome) -> &'static str {
    match outcome {
        CheckOutcome::Optimal => "optimal",
        CheckOutcome::Improvable(_) => "improvable",
        CheckOutcome::Inconsistent(_, _) => "inconsistent",
    }
}

/// `POST /delta` — mutate a cached session in place. The body names
/// the session by its current fingerprint and carries op strings in
/// the delta grammar:
///
/// ```json
/// {"fingerprint": "…32 hex…", "ops": ["insert R(a, b)", "prefer R(a, b) > R(a, c)"]}
/// ```
///
/// The whole batch is atomic: any invalid op is a 400 and the session
/// is untouched. On success the cache entry moves under the new
/// fingerprint (returned in the response) so follow-up requests —
/// including further deltas — address the mutated state.
fn delta(state: &ServerState, req: &Request<'_>) -> Result<Response, Response> {
    let body = parse_body(req)?;
    let fp_raw = body
        .fingerprint
        .ok_or_else(|| error_response(400, "missing string field `fingerprint`"))?;
    let fingerprint = Fingerprint::from_hex(&fp_raw.cow())
        .ok_or_else(|| error_response(400, "`fingerprint` must be 32 hex digits"))?;
    let ops_raw =
        body.ops.as_deref().ok_or_else(|| error_response(400, "missing array field `ops`"))?;
    let op_strings: Vec<std::borrow::Cow<'_, str>> = ops_raw
        .iter()
        .map(|v| {
            v.as_raw_str()
                .map(|r| r.cow())
                .ok_or_else(|| error_response(400, "`ops` must be an array of strings"))
        })
        .collect::<Result<_, _>>()?;
    let budget = request_budget(state, &body)?;

    let Some(slot) = state.cache.get(fingerprint) else {
        return Err(error_response(
            404,
            "no cached session under this fingerprint (POST the workspace to /check first)",
        ));
    };
    let mut session = slot.write();
    // Fingerprint compare-and-swap: the key the client targeted must
    // still be the session's content. A concurrent delta that got in
    // first moved it on; answer 409 with the current fingerprint so
    // the client can re-sync instead of blindly mutating state it has
    // not seen.
    let current = session.fingerprint();
    if current != fingerprint {
        return Err(Response::json(409, stale_body(current)));
    }
    let ops = delta_ops_from_strings(session.prioritized().instance().signature(), &op_strings)
        .map_err(|e| error_response(400, &format!("ops: {e}")))?;
    // Admission against the request budget: one work unit per op,
    // charged before anything mutates, so a tripped budget is a clean
    // 422 no-op (and a draining server a clean 503).
    match budget.charge(ops.len() as u64) {
        Ok(()) => {}
        Err(Stop::Cancelled) => {
            return Err(error_response(503, "server is draining").with_header("retry-after", "1"));
        }
        Err(Stop::Exceeded(report)) => {
            return Err(Response::json(422, delta_exceeded_body(&report)));
        }
    }
    let report = session.apply_delta(&ops).map_err(|e| error_response(400, &e.to_string()))?;
    let new_fp = session.fingerprint();
    // Still under the write guard: no reader may match the kept bytes
    // against the mutated session (`rekey` drops their index entry).
    slot.clear_source();
    slot.sync_bytes(&session);
    state.cache.rekey(fingerprint, new_fp);
    state.metrics.delta_ops_total.fetch_add(report.applied as u64, Ordering::Relaxed);
    if report.rebuilt {
        state.metrics.delta_rebuilds_total.fetch_add(1, Ordering::Relaxed);
    }
    state
        .metrics
        .component_skips_total
        .fetch_add(report.components_reused as u64, Ordering::Relaxed);
    state.metrics.session_components.store(session.shard_count() as u64, Ordering::Relaxed);
    let complexity = complexity_str(session.complexity());
    Ok(Response::json(200, delta_body(&report, new_fp, fingerprint, complexity)))
}

/// The 409 of a `/delta` that named a fingerprint the session left.
fn stale_body(current: Fingerprint) -> String {
    object(|o| {
        o.str("error", "fingerprint is stale: the session was mutated concurrently")
            .str("fingerprint", &current.to_hex());
    })
}

/// The 422 of a `/delta` whose ops overran the request budget.
fn delta_exceeded_body(report: &rpr_core::BudgetReport) -> String {
    object(|o| {
        o.raw("budget_report", &report.to_json()).str("status", "exceeded");
    })
}

fn delta_body(
    report: &rpr_core::DeltaReport,
    fingerprint: Fingerprint,
    previous: Fingerprint,
    complexity: &str,
) -> String {
    object(|o| {
        o.int("applied", report.applied as i64)
            .str("complexity", complexity)
            .int("components_reused", report.components_reused as i64)
            .int("components_total", report.components_total as i64)
            .int("deletes", report.deletes as i64)
            .str("fingerprint", &fingerprint.to_hex())
            .int("inserts", report.inserts as i64)
            .str("previous_fingerprint", &previous.to_hex())
            .int("priority_ops", report.priority_ops as i64)
            .bool("rebuilt", report.rebuilt)
            .str("status", "done");
    })
}

/// `POST /cqa` — consistent query answering over the cached session.
fn cqa(state: &ServerState, req: &Request<'_>) -> Result<Response, Response> {
    let body = parse_body(req)?;
    with_session(state, &body, |active| cqa_session(state, &body, &active))
}

fn cqa_session(
    state: &ServerState,
    body: &Body<'_>,
    active: &ActiveSession<'_>,
) -> Result<Response, Response> {
    let query_raw =
        body.query.ok_or_else(|| error_response(400, "missing string field `query`"))?;
    let semantics: RepairSemantics = body
        .semantics
        .map(|s| s.cow().into_owned())
        .unwrap_or_else(|| "global".to_owned())
        .parse()
        .map_err(|_| {
            error_response(400, "unknown `semantics` (use all|pareto|global|completion)")
        })?;
    active.count(state);
    let ds = active.get();
    let query = rpr_format::parse_query(ds.prioritized().instance(), &query_raw.cow())
        .map_err(|e| error_response(400, &format!("query: {e}")))?;

    let session: CheckSession<'_> = ds.session().with_jobs(state.jobs);
    let outcome = rpr_cqa::answers_session_bounded(&session, &query, semantics, &active.budget);

    let (status, body) = cqa_body(&Head::of(active), &outcome);
    let mut response = Response::json(status, body);
    if status == 503 {
        response = response.with_header("retry-after", "1");
    }
    Ok(response)
}

/// The `/cqa` status and body; an exceeded run carries its partial
/// answers, when it has any, beside the `budget_report`.
fn cqa_body(head: &Head, outcome: &Outcome<rpr_cqa::CqaAnswers>) -> (u16, String) {
    let (status, status_str, answers) = match outcome {
        Outcome::Done(answers) => (200, "done", Some(answers)),
        Outcome::Exceeded { partial, .. } => (422, "exceeded", partial.as_ref()),
        Outcome::Cancelled { .. } => (503, "cancelled", None),
        Outcome::Panicked { .. } => (500, "panicked", None),
    };
    let body = object(|o| {
        if let Outcome::Exceeded { report, .. } = outcome {
            o.raw("budget_report", &report.to_json());
        }
        o.bool("cached", head.cached);
        if let Some(answers) = answers {
            o.strs("certain", answers.certain.iter().map(ToString::to_string));
        }
        o.str("complexity", head.complexity).str("fingerprint", &head.fingerprint.to_hex());
        if let Outcome::Panicked { report, .. } = outcome {
            o.str("panic", &report.to_string());
        }
        if let Some(answers) = answers {
            o.strs("possible", answers.possible.iter().map(ToString::to_string))
                .int("repair_count", answers.repair_count as i64);
        }
        o.str("status", status_str);
    });
    (status, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheOutcome;
    use crate::json::{parse_json, Json};
    use proptest::prelude::*;
    use rpr_format::workspace_fingerprint;
    use std::cell::Cell;

    type Hook = fn(&ServerState, Fingerprint);

    thread_local! {
        /// Runs once, between a lookup's cache insert (on a miss) and
        /// its read guard.
        static AFTER_INSERT: Cell<Option<Hook>> = const { Cell::new(None) };
    }

    pub(super) fn after_insert(state: &ServerState, fingerprint: Fingerprint) {
        if let Some(hook) = AFTER_INSERT.take() {
            hook(state, fingerprint);
        }
    }

    thread_local! {
        /// Certificates audited on this thread (`handle` runs on the
        /// caller's thread in these tests).
        static AUDITS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn audited(certificates: usize) {
        AUDITS.set(AUDITS.get() + certificates);
    }

    /// The certificates audited since the last call.
    fn audits() -> usize {
        AUDITS.replace(0)
    }

    /// R(k,x) preferred over R(k,y); repair J = {R(k,x)} is optimal.
    const WS_A: &str = "relation R/2\nfd R: 1 -> 2\nfact R(k, x)\nfact R(k, y)\n\
                        prefer R(k, x) > R(k, y)\nrepair J: R(k, x)\n";
    /// Same shape but z preferred over x — under this session the fact
    /// set {id 0} = {R(k,x)} would be *improvable*, so serving it for a
    /// WS_A request would return a wrong verdict.
    const WS_B: &str = "relation R/2\nfd R: 1 -> 2\nfact R(k, x)\nfact R(k, z)\n\
                        prefer R(k, z) > R(k, x)\nrepair J: R(k, z)\n";

    fn state(cache_capacity: usize) -> ServerState {
        ServerState {
            cache: SessionCache::new(cache_capacity),
            shard_store: Arc::new(ShardStore::new()),
            metrics: Metrics::default(),
            defaults: BudgetDefaults { timeout: None, max_work: None },
            jobs: 1,
            drain: CancelToken::new(),
            self_audit: false,
            #[cfg(feature = "faults")]
            corrupt_certificates: false,
        }
    }

    fn workspace_body(ws: &str) -> Vec<u8> {
        format!("{{\"workspace\":{}}}", Json::str(ws).render()).into_bytes()
    }

    fn post_check(state: &ServerState, ws: &str) -> Response {
        let body = workspace_body(ws);
        handle(state, &Request { method: "POST", path: "/check", body: &body, close: false })
    }

    fn body_json(response: &Response) -> Json {
        parse_json(std::str::from_utf8(&response.body).unwrap()).unwrap()
    }

    #[test]
    fn metrics_scrape_syncs_cache_evictions() {
        let state = state(1);
        assert_eq!(post_check(&state, WS_A).status, 200);
        assert_eq!(post_check(&state, WS_B).status, 200);
        let scrape =
            handle(&state, &Request { method: "GET", path: "/metrics", body: b"", close: false });
        let text = String::from_utf8(scrape.body).unwrap();
        assert!(text.contains("rpr_cache_evictions_total 1\n"), "got:\n{text}");
    }

    #[test]
    fn metrics_scrape_syncs_cache_bytes() {
        let state = state(4);
        assert_eq!(post_check(&state, WS_A).status, 200);
        let scrape =
            handle(&state, &Request { method: "GET", path: "/metrics", body: b"", close: false });
        let text = String::from_utf8(scrape.body).unwrap();
        // Dedup-aware: private session bytes plus shared shard bytes,
        // each shard counted once.
        let expected = format!(
            "rpr_session_cache_bytes {}\n",
            state.cache.total_bytes() + state.shard_store.resident_bytes()
        );
        assert!(state.cache.total_bytes() > 0);
        assert!(text.contains(&expected), "got:\n{text}");
    }

    #[test]
    fn malformed_bodies_keep_their_diagnostics() {
        let state = state(2);
        for (body, expect) in [
            (&b"\xff\xfe"[..], "body is not UTF-8"),
            (b"{\"workspace\": }", "invalid JSON at byte"),
            (b"{}", "missing string field `workspace`"),
            (b"{\"workspace\": 7}", "missing string field `workspace`"),
        ] {
            let response =
                handle(&state, &Request { method: "POST", path: "/check", body, close: false });
            assert_eq!(response.status, 400);
            let text = String::from_utf8(response.body).unwrap();
            assert!(text.contains(expect), "body {body:?}: got {text}");
        }
    }

    #[test]
    fn lone_surrogate_escapes_are_a_400_and_pairs_decode() {
        let state = state(2);
        // `\\n` is a JSON escape inside the body's `workspace` string.
        let body = |a: &str, b: &str| {
            format!(
                "{{\"workspace\":\"relation R/2\\nfd R: 1 -> 2\\nfact R(x{a}, a)\\n\
                 fact R(x{b}, b)\\nrepair J: R(x{a}, a); R(x{b}, b)\\n\"}}"
            )
        };
        let post = |body: &str| {
            let body = body.as_bytes();
            handle(&state, &Request { method: "POST", path: "/check", body, close: false })
        };
        for (a, b) in [(r"\ud800", r"\udc00"), (r"\ud83d", "y"), ("y", r"\ude00")] {
            let response = post(&body(a, b));
            assert_eq!(response.status, 400, "{a} {b}");
            let text = String::from_utf8(response.body).unwrap();
            assert!(text.contains("lone surrogate"), "{a} {b}: got {text}");
        }
        // A pair decodes to the character it encodes.
        let escaped = post(&body(r"\ud83d\ude00", "y"));
        let raw = post(&body("😀", "y"));
        assert_eq!((escaped.status, raw.status), (200, 200));
        let fingerprint = |r: &Response| body_json(r).get("fingerprint").cloned().unwrap();
        assert_eq!(fingerprint(&escaped), fingerprint(&raw));
    }

    #[test]
    fn budget_overrides_reject_non_integers() {
        let state = state(2);
        let body =
            format!("{{\"workspace\":{},\"timeout_ms\":\"fast\"}}", Json::str(WS_A).render())
                .into_bytes();
        let response =
            handle(&state, &Request { method: "POST", path: "/check", body: &body, close: false });
        assert_eq!(response.status, 400);
        assert!(String::from_utf8(response.body)
            .unwrap()
            .contains("`timeout_ms` must be a non-negative integer"));
    }

    #[test]
    fn colliding_cache_entry_is_rejected_not_served() {
        let state = state(2);
        // Plant WS_B's session under WS_A's fingerprint, simulating a
        // crafted collision.
        let ws_a = rpr_format::parse_workspace(WS_A).unwrap();
        let ws_b = rpr_format::parse_workspace(WS_B).unwrap();
        let pi_b = ws_b.prioritized().unwrap();
        let (_, outcome) = state.cache.get_or_build(workspace_fingerprint(&ws_a), || {
            SessionSlot::new(DeltaSession::prepare(Arc::new(ws_b.schema.clone()), pi_b))
        });
        assert_eq!(outcome, CacheOutcome::Miss);

        // The WS_A request hits the planted key, must detect the
        // mismatch, rebuild, and answer with WS_A's verdict.
        let response = post_check(&state, WS_A);
        assert_eq!(response.status, 200);
        let json = body_json(&response);
        assert_eq!(json.get("cached").and_then(Json::as_bool), Some(false));
        let results = json.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results[0].get("verdict").and_then(Json::as_str), Some("optimal"));
        assert_eq!(state.metrics.cache_collisions_total.load(Ordering::Relaxed), 1);
        // The planted entry stays; the collider is served uncached
        // every time rather than thrashing the slot.
        assert_eq!(state.cache.len(), 1);
    }

    #[test]
    fn reordered_workspace_hits_check_the_requests_own_facts() {
        // R(k,x) ≻ R(k,y), so J = {R(k,y)} is improvable. The two texts
        // declare the same content in two fact orders, so J's fact id
        // differs between their parses.
        let xy = "relation R/2\nfd R: 1 -> 2\nfact R(k, x)\nfact R(k, y)\n\
                  prefer R(k, x) > R(k, y)\nrepair J: R(k, y)\n";
        let yx = "relation R/2\nfd R: 1 -> 2\nfact R(k, y)\nfact R(k, x)\n\
                  prefer R(k, x) > R(k, y)\nrepair J: R(k, y)\n";
        for certify in [false, true] {
            let state = state(2);
            for (i, ws) in [yx, yx, xy, xy].into_iter().enumerate() {
                let body =
                    format!("{{\"workspace\":{},\"certify\":{certify}}}", Json::str(ws).render())
                        .into_bytes();
                let response = handle(
                    &state,
                    &Request { method: "POST", path: "/check", body: &body, close: false },
                );
                assert_eq!(response.status, 200);
                let json = body_json(&response);
                assert_eq!(json.get("cached").and_then(Json::as_bool), Some(i > 0));
                let result = &json.get("results").and_then(Json::as_arr).unwrap()[0];
                assert_eq!(
                    result.get("verdict").and_then(Json::as_str),
                    Some("improvable"),
                    "request {i}, certify {certify}"
                );
                if certify {
                    // The certificate's candidate must be R(k, y).
                    let cert = result.get("certificate").and_then(Json::as_str).unwrap();
                    assert!(rpr_audit::audit(cert).is_ok(), "request {i}: {cert}");
                    let doc = parse_json(cert).unwrap();
                    let facts = doc.get("facts").and_then(Json::as_arr).unwrap();
                    let named: Vec<String> = doc
                        .get("candidate")
                        .and_then(Json::as_arr)
                        .unwrap()
                        .iter()
                        .map(|id| facts[id.as_i64().unwrap() as usize].render())
                        .collect();
                    assert_eq!(named, [r#"[0,["s1:k","s1:y"]]"#], "request {i}: {cert}");
                }
            }
            assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 3);
            // The second text of each pair matched the bytes kept by the
            // first; the first `xy` was a verified fingerprint hit.
            assert_eq!(state.metrics.cache_byte_hits_total.load(Ordering::Relaxed), 2);
        }
    }

    /// R(k,x) ≻ R(k,y), declared y first: J = {R(k,y)} = {fact 0} is
    /// improvable.
    const WS_YX: &str = "relation R/2\nfd R: 1 -> 2\nfact R(k, y)\nfact R(k, x)\n\
                         prefer R(k, x) > R(k, y)\nrepair J: R(k, y)\n";

    /// Deletes and re-inserts R(k,y): the content and fingerprint stay,
    /// but R(k,y) moves from fact 0 to fact 1.
    fn renumber(state: &ServerState, fingerprint: Fingerprint) {
        let ops = ["unprefer R(k, x) > R(k, y)", "delete R(k, y)", "insert R(k, y)"]
            .into_iter()
            .chain(["prefer R(k, x) > R(k, y)"])
            .map(Json::str)
            .collect();
        let body =
            Json::obj([("fingerprint", Json::str(fingerprint.to_hex())), ("ops", Json::Arr(ops))])
                .render()
                .into_bytes();
        let response =
            handle(state, &Request { method: "POST", path: "/delta", body: &body, close: false });
        assert_eq!(response.status, 200, "{}", String::from_utf8_lossy(&response.body));
        let json = body_json(&response);
        assert_eq!(json.get("fingerprint").and_then(Json::as_str), Some(&*fingerprint.to_hex()));
    }

    #[test]
    fn a_delta_between_a_miss_insert_and_its_read_never_misnames_facts() {
        let state = state(2);
        let body = format!("{{\"workspace\":{},\"certify\":true}}", Json::str(WS_YX).render())
            .into_bytes();
        AFTER_INSERT.set(Some(renumber));
        for i in 0..3 {
            let response = handle(
                &state,
                &Request { method: "POST", path: "/check", body: &body, close: false },
            );
            assert_eq!(response.status, 200);
            let json = body_json(&response);
            let result = &json.get("results").and_then(Json::as_arr).unwrap()[0];
            assert_eq!(
                result.get("verdict").and_then(Json::as_str),
                Some("improvable"),
                "request {i}"
            );
            let cert =
                parse_json(result.get("certificate").and_then(Json::as_str).unwrap()).unwrap();
            let facts = cert.get("facts").and_then(Json::as_arr).unwrap();
            let candidate = cert.get("candidate").and_then(Json::as_arr).unwrap();
            let named = facts[candidate[0].as_i64().unwrap() as usize].render();
            assert_eq!(named, r#"[0,["s1:k","s1:y"]]"#, "request {i}");
        }
        assert!(AFTER_INSERT.get().is_none(), "the delta ran");
        // The delta did renumber the cached session.
        let slot =
            state.cache.get(workspace_fingerprint(&rpr_format::parse_workspace(WS_YX).unwrap()));
        let session = slot.unwrap();
        let session = session.read();
        let instance = session.prioritized().instance();
        let y =
            rpr_format::parse_workspace(WS_YX).unwrap().instance.fact(rpr_data::FactId(0)).clone();
        assert_eq!(instance.id_of(&y), Some(rpr_data::FactId(1)));
        // The miss was served fresh; the later requests re-armed the
        // slot through a verified hit and then hit its bytes.
        assert_eq!(state.metrics.cache_misses_total.load(Ordering::Relaxed), 1);
        assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 2);
        assert_eq!(state.metrics.cache_byte_hits_total.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn rejected_requests_count_no_cache_lookup() {
        let state = state(2);
        let reordered = "relation R/2\nfd R: 1 -> 2\nfact R(k, y)\nfact R(k, x)\n\
                         prefer R(k, x) > R(k, y)\nrepair J: R(k, x)\n";
        let counters = |state: &ServerState| {
            [
                &state.metrics.cache_hits_total,
                &state.metrics.cache_misses_total,
                &state.metrics.cache_byte_hits_total,
            ]
            .map(|c| c.load(Ordering::Relaxed))
        };
        // A miss, a byte hit and a fingerprint hit, each rejected.
        for ws in [WS_A, WS_A, reordered] {
            let ws = Json::str(ws).render();
            let unknown = format!("{{\"workspace\":{ws},\"repairs\":[\"nope\"]}}");
            let semantics = format!(
                "{{\"workspace\":{ws},\"query\":\"q(?y) <- R(k, ?y)\",\"semantics\":\"best\"}}"
            );
            for (path, body) in [("/check", unknown), ("/cqa", semantics)] {
                let request = Request { method: "POST", path, body: body.as_bytes(), close: false };
                assert_eq!(handle(&state, &request).status, 400, "{path} {body}");
            }
            assert_eq!(counters(&state), [0, 0, 0]);
        }
        assert_eq!(post_check(&state, WS_A).status, 200);
        assert_eq!(post_check(&state, WS_A).status, 200);
        assert_eq!(counters(&state), [2, 0, 1]);
    }

    #[test]
    fn alternating_workspaces_all_hit_by_bytes() {
        let state = state(4);
        let ws_c = "relation R/2\nfd R: 1 -> 2\nfact R(k, x)\nfact R(k, y)\nrepair J: R(k, y)\n";
        for round in 0..4 {
            for ws in [WS_A, WS_B, ws_c] {
                let response = post_check(&state, ws);
                assert_eq!(response.status, 200);
                let cached = body_json(&response).get("cached").and_then(Json::as_bool);
                assert_eq!(cached, Some(round > 0), "round {round}: {ws}");
            }
        }
        // After the three misses every request found its session by
        // its bytes; a degenerate byte-index hash would have sent them
        // to the parse path as fingerprint hits.
        assert_eq!(state.metrics.cache_misses_total.load(Ordering::Relaxed), 3);
        assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 9);
        assert_eq!(state.metrics.cache_byte_hits_total.load(Ordering::Relaxed), 9);
    }

    /// The bodies as the handlers rendered them through a [`Json`]
    /// tree: the oracle every direct body is compared with.
    mod tree {
        use super::*;

        fn render(fields: Vec<(&str, Json)>) -> String {
            Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()).render()
        }

        fn head(head: &Head) -> Vec<(&'static str, Json)> {
            vec![
                ("fingerprint", Json::str(head.fingerprint.to_hex())),
                ("cached", Json::Bool(head.cached)),
                ("complexity", Json::str(head.complexity)),
            ]
        }

        fn report(report: &rpr_core::BudgetReport) -> Json {
            parse_json(&report.to_json()).unwrap_or(Json::Null)
        }

        pub fn error(message: &str) -> String {
            Json::obj([("error", Json::str(message))]).render()
        }

        pub fn classify(h: &Head, mode: rpr_priority::PriorityMode) -> String {
            let mut fields = head(h);
            fields.push(("status", Json::str("done")));
            fields.push((
                "mode",
                Json::str(match mode {
                    rpr_priority::PriorityMode::ConflictRestricted => "conflict",
                    rpr_priority::PriorityMode::CrossConflict => "ccp",
                }),
            ));
            render(fields)
        }

        pub fn check(
            h: &Head,
            candidates: &[(String, FactSet)],
            outcomes: &[Outcome<CheckOutcome>],
            certs: &[Option<String>],
        ) -> (u16, String) {
            let mut results = Vec::new();
            let mut exceeded_report = None;
            let mut any_cancelled = false;
            let mut any_panicked = false;
            for (((name, _), outcome), cert) in candidates.iter().zip(outcomes).zip(certs) {
                let mut entry = vec![("repair".to_owned(), Json::str(name.clone()))];
                match outcome {
                    Outcome::Done(check_outcome) => {
                        entry.push(("status".to_owned(), Json::str("done")));
                        entry.push(("optimal".to_owned(), Json::Bool(check_outcome.is_optimal())));
                        entry.push(("verdict".to_owned(), Json::str(verdict_str(check_outcome))));
                        if let Some(text) = cert {
                            entry.push(("certificate".to_owned(), Json::str(text.clone())));
                        }
                    }
                    Outcome::Exceeded { report, .. } => {
                        entry.push(("status".to_owned(), Json::str("exceeded")));
                        exceeded_report.get_or_insert(report);
                    }
                    Outcome::Cancelled { .. } => {
                        entry.push(("status".to_owned(), Json::str("cancelled")));
                        any_cancelled = true;
                    }
                    Outcome::Panicked { report, .. } => {
                        entry.push(("status".to_owned(), Json::str("panicked")));
                        entry.push(("panic".to_owned(), Json::str(report.to_string())));
                        any_panicked = true;
                    }
                }
                results.push(Json::Obj(entry.into_iter().collect()));
            }
            let mut fields = head(h);
            fields.push(("results", Json::Arr(results)));
            let status = if any_cancelled {
                fields.push(("status", Json::str("cancelled")));
                503
            } else if let Some(r) = exceeded_report {
                fields.push(("status", Json::str("exceeded")));
                fields.push(("budget_report", report(r)));
                422
            } else if any_panicked {
                fields.push(("status", Json::str("panicked")));
                500
            } else {
                fields.push(("status", Json::str("done")));
                200
            };
            (status, render(fields))
        }

        pub fn cqa(h: &Head, outcome: &Outcome<rpr_cqa::CqaAnswers>) -> (u16, String) {
            let mut fields = head(h);
            let answers = |fields: &mut Vec<_>, answers: &rpr_cqa::CqaAnswers| {
                let strs = |set: &std::collections::BTreeSet<rpr_data::Tuple>| {
                    Json::Arr(set.iter().map(|t| Json::str(t.to_string())).collect())
                };
                fields.push(("certain", strs(&answers.certain)));
                fields.push(("possible", strs(&answers.possible)));
                fields.push(("repair_count", Json::Int(answers.repair_count as i64)));
            };
            let status = match outcome {
                Outcome::Done(a) => {
                    fields.push(("status", Json::str("done")));
                    answers(&mut fields, a);
                    200
                }
                Outcome::Exceeded { partial, report: r } => {
                    fields.push(("status", Json::str("exceeded")));
                    fields.push(("budget_report", report(r)));
                    if let Some(a) = partial {
                        answers(&mut fields, a);
                    }
                    422
                }
                Outcome::Cancelled { .. } => {
                    fields.push(("status", Json::str("cancelled")));
                    503
                }
                Outcome::Panicked { report, .. } => {
                    fields.push(("status", Json::str("panicked")));
                    fields.push(("panic", Json::str(report.to_string())));
                    500
                }
            };
            (status, render(fields))
        }

        pub fn delta(
            r: &rpr_core::DeltaReport,
            fingerprint: Fingerprint,
            previous: Fingerprint,
            complexity: &str,
        ) -> String {
            Json::obj([
                ("fingerprint", Json::str(fingerprint.to_hex())),
                ("previous_fingerprint", Json::str(previous.to_hex())),
                ("status", Json::str("done")),
                ("applied", Json::Int(r.applied as i64)),
                ("inserts", Json::Int(r.inserts as i64)),
                ("deletes", Json::Int(r.deletes as i64)),
                ("priority_ops", Json::Int(r.priority_ops as i64)),
                ("rebuilt", Json::Bool(r.rebuilt)),
                ("components_total", Json::Int(r.components_total as i64)),
                ("components_reused", Json::Int(r.components_reused as i64)),
                ("complexity", Json::str(complexity)),
            ])
            .render()
        }

        pub fn stale(current: Fingerprint) -> String {
            Json::obj([
                ("error", Json::str("fingerprint is stale: the session was mutated concurrently")),
                ("fingerprint", Json::str(current.to_hex())),
            ])
            .render()
        }

        pub fn delta_exceeded(r: &rpr_core::BudgetReport) -> String {
            Json::obj([("status", Json::str("exceeded")), ("budget_report", report(r))]).render()
        }
    }

    /// Asserts a direct body equals the tree's byte for byte, except
    /// inside `budget_report`: the direct body splices
    /// [`BudgetReport::to_json`](rpr_core::BudgetReport::to_json) as is
    /// where the tree re-rendered it, so that member is compared parsed.
    fn assert_same_body(direct: &str, tree: &str, report: Option<&rpr_core::BudgetReport>) {
        let (mut direct, mut tree) = (direct.to_owned(), tree.to_owned());
        if let Some(report) = report {
            let text = report.to_json();
            let parsed = parse_json(&text).unwrap();
            assert_eq!(direct.matches(&text).count(), 1, "{direct}");
            assert_eq!(tree.matches(&parsed.render()).count(), 1, "{tree}");
            direct = direct.replacen(&text, "null", 1);
            tree = tree.replacen(&parsed.render(), "null", 1);
        }
        assert_eq!(direct, tree);
    }

    fn fp(seed: u8) -> Fingerprint {
        Fingerprint::from_hex(&format!("{seed:02x}").repeat(16)).unwrap()
    }

    fn budget_report(deadline: bool) -> rpr_core::BudgetReport {
        rpr_core::BudgetReport {
            reason: if deadline {
                rpr_core::ExceedReason::DeadlineExpired
            } else {
                rpr_core::ExceedReason::WorkExhausted
            },
            work_done: 1234,
            max_work: (!deadline).then_some(1000),
            elapsed: Duration::from_micros(2500),
            deadline: deadline.then(|| Duration::from_millis(2)),
        }
    }

    fn panic_report(message: &str) -> rpr_core::PanicReport {
        rpr_core::PanicReport { message: message.to_owned(), context: "batch candidate 1".into() }
    }

    /// WS_A plus an improvable candidate: real `Done` outcomes, and
    /// real certificates when `certify`.
    fn done_run(certify: bool) -> (Vec<(String, FactSet)>, CheckRun) {
        let ws = rpr_format::parse_workspace(&format!("{WS_A}repair K: R(k, y)\n")).unwrap();
        let candidates = ws.repairs.clone();
        let ds = DeltaSession::prepare(Arc::new(ws.schema.clone()), ws.prioritized().unwrap());
        let sets: Vec<FactSet> = candidates.iter().map(|(_, s)| s.clone()).collect();
        let run = run_check(&state(1), &ds, &sets, &Budget::unlimited(), certify);
        assert!(run.outcomes.iter().all(Outcome::is_done));
        (candidates, run)
    }

    fn heads() -> [Head; 2] {
        [
            Head { cached: true, complexity: "ptime", fingerprint: fp(0xab) },
            Head { cached: false, complexity: "conp-complete", fingerprint: fp(0x01) },
        ]
    }

    #[test]
    fn check_bodies_match_the_tree() {
        for certify in [false, true] {
            let (mut candidates, run) = done_run(certify);
            assert_eq!(run.certs.iter().flatten().count(), if certify { 2 } else { 0 });
            let mut outcomes = run.outcomes.clone();
            let mut certs = run.certs.clone();
            // Appends one candidate per stopped outcome: every status
            // of the batch is then reachable by taking a prefix.
            let stopped = [
                Outcome::Exceeded { partial: None, report: budget_report(false) },
                Outcome::Exceeded { partial: None, report: budget_report(true) },
                Outcome::Panicked { partial: None, report: panic_report("boom \"x\"") },
                Outcome::Cancelled { partial: None },
            ];
            for (i, outcome) in stopped.into_iter().enumerate() {
                candidates.push((format!("S{i}"), FactSet::empty(2)));
                outcomes.push(outcome);
                certs.push(None);
            }
            let mut statuses = Vec::new();
            for head in heads() {
                // Done only; + exceeded; + panicked; + cancelled; and a
                // panicked candidate without an exceeded one.
                for n in [2, 3, 4, 5, 6] {
                    let args = (&candidates[..n], &outcomes[..n], &certs[..n]);
                    let (status, direct) = check_body(&head, args.0, args.1, args.2);
                    let (tree_status, tree) = tree::check(&head, args.0, args.1, args.2);
                    assert_eq!(status, tree_status);
                    let report = (status == 422).then(|| budget_report(false));
                    assert_same_body(&direct, &tree, report.as_ref());
                    statuses.push(status);
                }
                fn pick<T: Clone>(v: &[T]) -> Vec<T> {
                    [0, 1, 4].iter().map(|&i| v[i].clone()).collect()
                }
                let (c, o, k) = (pick(&candidates), pick(&outcomes), pick(&certs));
                let (status, direct) = check_body(&head, &c, &o, &k);
                let (tree_status, tree) = tree::check(&head, &c, &o, &k);
                assert_eq!((status, direct), (tree_status, tree));
                statuses.push(status);
            }
            statuses.sort_unstable();
            statuses.dedup();
            assert_eq!(statuses, [200, 422, 500, 503]);
        }
    }

    #[test]
    fn classify_delta_and_error_bodies_match_the_tree() {
        for head in heads() {
            for mode in [
                rpr_priority::PriorityMode::ConflictRestricted,
                rpr_priority::PriorityMode::CrossConflict,
            ] {
                assert_eq!(classify_body(&head, mode), tree::classify(&head, mode));
            }
        }
        for rebuilt in [false, true] {
            let report = rpr_core::DeltaReport {
                applied: 7,
                inserts: 3,
                deletes: 2,
                priority_ops: 2,
                rebuilt,
                components_total: 12,
                components_reused: 11,
            };
            for complexity in ["ptime", "conp-complete"] {
                assert_eq!(
                    delta_body(&report, fp(2), fp(3), complexity),
                    tree::delta(&report, fp(2), fp(3), complexity)
                );
            }
        }
        assert_eq!(stale_body(fp(9)), tree::stale(fp(9)));
        for deadline in [false, true] {
            let report = budget_report(deadline);
            let direct = delta_exceeded_body(&report);
            assert_same_body(&direct, &tree::delta_exceeded(&report), Some(&report));
        }
        for message in ["unknown path", "workspace: line 3: `fd R: 1 -> 9`", ""] {
            let response = error_response(404, message);
            assert_eq!(std::str::from_utf8(&response.body).unwrap(), tree::error(message));
        }
    }

    fn answers(symbols: &[&str], repair_count: usize) -> rpr_cqa::CqaAnswers {
        let tuple = |s: &str| rpr_data::Tuple::new([rpr_data::Value::sym(s)]);
        rpr_cqa::CqaAnswers {
            certain: symbols.iter().take(1).map(|s| tuple(s)).collect(),
            possible: symbols.iter().map(|s| tuple(s)).collect(),
            repair_count,
        }
    }

    #[test]
    fn cqa_bodies_match_the_tree() {
        let report = budget_report(false);
        let outcomes = [
            Outcome::Done(answers(&["a", "b"], 3)),
            Outcome::Done(answers(&[], 1)),
            Outcome::Exceeded { partial: Some(answers(&["c"], 2)), report: report.clone() },
            Outcome::Exceeded { partial: None, report: report.clone() },
            Outcome::Cancelled { partial: None },
            Outcome::Panicked { partial: None, report: panic_report("cqa \\ worker") },
        ];
        for head in heads() {
            for outcome in &outcomes {
                let (status, direct) = cqa_body(&head, outcome);
                let (tree_status, tree) = tree::cqa(&head, outcome);
                assert_eq!(status, tree_status);
                let report = matches!(outcome, Outcome::Exceeded { .. }).then_some(&report);
                assert_same_body(&direct, &tree, report);
            }
        }
    }

    /// Characters a name or message may carry that need escaping, or
    /// span several UTF-8 bytes.
    const AWKWARD: &[char] = &[
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}',
        ' ', 'a', 'Z', '0', 'é', '€', '\u{2028}', '😀',
    ];

    fn awkward_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..AWKWARD.len(), 0..16)
            .prop_map(|picks| picks.into_iter().map(|i| AWKWARD[i]).collect())
    }

    proptest! {
        #[test]
        fn awkward_names_and_messages_render_as_the_tree_does(
            name in awkward_text(),
            message in awkward_text(),
            symbol in awkward_text(),
        ) {
            let (mut candidates, run) = done_run(false);
            candidates[0].0 = name.clone();
            candidates[1].0 = message.clone();
            let mut outcomes = run.outcomes.clone();
            outcomes[1] = Outcome::Panicked { partial: None, report: panic_report(&message) };
            for head in heads() {
                let (status, direct) = check_body(&head, &candidates, &outcomes, &run.certs);
                prop_assert_eq!((status, direct), tree::check(&head, &candidates, &outcomes, &run.certs));
                let panicked = Outcome::Panicked { partial: None, report: panic_report(&message) };
                for outcome in [Outcome::Done(answers(&[&symbol, &name], 2)), panicked] {
                    prop_assert_eq!(cqa_body(&head, &outcome), tree::cqa(&head, &outcome));
                }
            }
            let response = error_response(400, &message);
            prop_assert_eq!(std::str::from_utf8(&response.body).unwrap(), tree::error(&message));
            prop_assert_eq!(parse_json(&tree::error(&message)).unwrap(), Json::obj([("error", Json::str(message))]));
        }
    }

    #[test]
    fn genuine_hits_still_verify_and_serve_cached() {
        let state = state(2);
        let cold = post_check(&state, WS_A);
        assert_eq!(body_json(&cold).get("cached").and_then(Json::as_bool), Some(false));
        let warm = post_check(&state, WS_A);
        assert_eq!(body_json(&warm).get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(state.metrics.cache_collisions_total.load(Ordering::Relaxed), 0);
        assert_eq!(state.metrics.cache_hits_total.load(Ordering::Relaxed), 1);
    }

    fn post_certify(state: &ServerState, ws: &str) -> Response {
        let mut body = workspace_body(ws);
        body.truncate(body.len() - 1);
        body.extend_from_slice(b",\"certify\":true}");
        handle(state, &Request { method: "POST", path: "/check", body: &body, close: false })
    }

    fn self_auditing(cache_capacity: usize) -> ServerState {
        ServerState { self_audit: true, ..state(cache_capacity) }
    }

    #[test]
    fn a_cached_self_audited_certify_audits_each_certificate_once() {
        let state = self_auditing(2);
        audits();
        // WS_A declares one repair, so each certify issues one certificate.
        assert_eq!(post_certify(&state, WS_A).status, 200);
        assert_eq!(audits(), 1, "a cold certify is self-audited once");
        for _ in 0..3 {
            let warm = post_certify(&state, WS_A);
            assert_eq!(body_json(&warm).get("cached").and_then(Json::as_bool), Some(true));
            assert_eq!(audits(), 1, "the cache-hit audit is the self-audit");
        }
        assert_eq!(state.metrics.audit_failures_total.load(Ordering::Relaxed), 0);
        assert_eq!(state.metrics.cache_misses_total.load(Ordering::Relaxed), 1);
        assert_eq!(state.metrics.certificates_issued_total.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_cold_certify_audits_once_under_self_audit_and_never_without() {
        let plain = state(2);
        audits();
        assert_eq!(post_certify(&plain, WS_A).status, 200);
        assert_eq!(audits(), 0, "no self-audit, no cached session to distrust");
        assert_eq!(post_certify(&plain, WS_A).status, 200);
        assert_eq!(audits(), 1, "a cached certify is audited once either way");

        let auditing = self_auditing(2);
        assert_eq!(post_certify(&auditing, WS_B).status, 200);
        assert_eq!(audits(), 1);
        // A check without `certify` renders and audits nothing.
        assert_eq!(post_check(&auditing, WS_B).status, 200);
        assert_eq!(audits(), 0);
    }

    /// Corrupted certificates: a cold certify fails its one self-audit;
    /// a cached one fails the cache-hit audit, degrades to a counted
    /// miss, and its rebuilt certificates fail their own self-audit.
    #[cfg(feature = "faults")]
    #[test]
    fn corrupted_certificates_are_audited_once_per_rendering() {
        let state = ServerState { corrupt_certificates: true, ..self_auditing(2) };
        audits();
        assert_eq!(post_certify(&state, WS_A).status, 500);
        assert_eq!(audits(), 1);
        assert_eq!(post_certify(&state, WS_A).status, 500);
        assert_eq!(audits(), 2);
        assert_eq!(state.metrics.audit_failures_total.load(Ordering::Relaxed), 3);
        assert_eq!(state.metrics.cache_misses_total.load(Ordering::Relaxed), 2);
    }
}
