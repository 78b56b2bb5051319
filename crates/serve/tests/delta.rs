//! End-to-end tests of `POST /delta`: the full protocol surface (404 /
//! 409 / 400 / 422 / 200), the rekeyed cache hit after a mutation, and
//! the certificate story — a patched session's certificates must be
//! byte-identical to a cold server's and must audit identically,
//! including the tamper case.

use rpr_data::fingerprint::Fingerprint;
use rpr_serve::handlers::{handle, BudgetDefaults, ServerState};
use rpr_serve::http::{Request, Response};
use rpr_serve::json::{parse_json, Json};
use rpr_serve::{Metrics, SessionCache};
use std::sync::atomic::Ordering;

/// Two FD classes, one optimal and one improvable declared repair.
const WS: &str = "relation R/2\n\
                  fd R: 1 -> 2\n\
                  fact R(a, x)\n\
                  fact R(a, y)\n\
                  fact R(b, z)\n\
                  prefer R(a, x) > R(a, y)\n\
                  repair J: R(a, x); R(b, z)\n\
                  repair K: R(a, y); R(b, z)\n";

fn state() -> ServerState {
    ServerState {
        cache: SessionCache::new(8),
        shard_store: std::sync::Arc::new(rpr_core::ShardStore::new()),
        metrics: Metrics::default(),
        defaults: BudgetDefaults { timeout: None, max_work: None },
        jobs: 1,
        drain: rpr_core::CancelToken::new(),
        self_audit: false,
        #[cfg(feature = "faults")]
        corrupt_certificates: false,
    }
}

fn post(state: &ServerState, path: &'static str, body: &str) -> Response {
    handle(state, &Request { method: "POST", path, body: body.as_bytes(), close: false })
}

fn check_body(ws: &str, certify: bool) -> String {
    let mut fields = vec![("workspace".to_owned(), Json::str(ws))];
    if certify {
        fields.push(("certify".to_owned(), Json::Bool(true)));
    }
    Json::Obj(fields.into_iter().collect()).render()
}

fn delta_body(fp: &str, ops: &[&str]) -> String {
    Json::obj([
        ("fingerprint", Json::str(fp)),
        ("ops", Json::Arr(ops.iter().map(|o| Json::str(*o)).collect())),
    ])
    .render()
}

fn body_json(response: &Response) -> Json {
    parse_json(std::str::from_utf8(&response.body).unwrap()).unwrap()
}

fn fingerprint_of(response: &Response) -> String {
    body_json(response).get("fingerprint").and_then(Json::as_str).unwrap().to_owned()
}

#[test]
fn delta_mutates_the_cached_session_end_to_end() {
    let state = state();
    let checked = post(&state, "/check", &check_body(WS, false));
    assert_eq!(checked.status, 200);
    let fp0 = fingerprint_of(&checked);

    // Mutate: one insert + one delete of it again is a no-op pair; use
    // a real mutation instead and compare with the oracle.
    let ops = ["insert R(c, w)", "unprefer R(a, x) > R(a, y)"];
    let response = post(&state, "/delta", &delta_body(&fp0, &ops));
    assert_eq!(response.status, 200, "{}", String::from_utf8_lossy(&response.body));
    let json = body_json(&response);
    assert_eq!(json.get("applied").and_then(Json::as_i64), Some(2));
    assert_eq!(json.get("inserts").and_then(Json::as_i64), Some(1));
    assert_eq!(json.get("priority_ops").and_then(Json::as_i64), Some(1));
    assert_eq!(json.get("previous_fingerprint").and_then(Json::as_str), Some(fp0.as_str()));
    let fp1 = json.get("fingerprint").and_then(Json::as_str).unwrap().to_owned();
    assert_ne!(fp0, fp1);

    // The new fingerprint is the canonical one of the oracle rebuild.
    let ws = rpr_format::parse_workspace(WS).unwrap();
    let parsed = rpr_format::delta_ops_from_strings(ws.instance.signature(), &ops).unwrap();
    let mutated = rpr_format::apply_ops_to_workspace(&ws, &parsed).unwrap();
    assert_eq!(rpr_format::workspace_fingerprint(&mutated).to_hex(), fp1);

    // A /check of the mutated workspace hits the rekeyed entry (and
    // verify-on-hit passes against the patched content).
    let rendered = rpr_format::render_workspace(&mutated);
    let hit = post(&state, "/check", &check_body(&rendered, false));
    assert_eq!(hit.status, 200);
    let hit_json = body_json(&hit);
    assert_eq!(hit_json.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(hit_json.get("fingerprint").and_then(Json::as_str), Some(fp1.as_str()));
    // Verdicts from the patched session equal a cold check of the
    // oracle workspace, repair by repair.
    let pi = mutated.prioritized().unwrap();
    let cold = rpr_core::CheckSession::new(&mutated.schema, &pi);
    let results = hit_json.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), mutated.repairs.len());
    for (result, (name, set)) in results.iter().zip(&mutated.repairs) {
        assert_eq!(result.get("repair").and_then(Json::as_str), Some(name.as_str()));
        let expected = match cold.check(set) {
            rpr_core::CheckOutcome::Optimal => "optimal",
            rpr_core::CheckOutcome::Improvable(_) => "improvable",
            rpr_core::CheckOutcome::Inconsistent(_, _) => "inconsistent",
        };
        assert_eq!(result.get("verdict").and_then(Json::as_str), Some(expected), "{name}");
    }

    // Metrics: ops counted, gauge synced at scrape time.
    assert_eq!(state.metrics.delta_ops_total.load(Ordering::Relaxed), 2);
    let scrape =
        handle(&state, &Request { method: "GET", path: "/metrics", body: b"", close: false });
    let text = String::from_utf8(scrape.body).unwrap();
    assert!(text.contains("rpr_delta_ops_total 2\n"), "got:\n{text}");
    assert!(text.contains(&format!("rpr_session_cache_bytes {}\n", state.cache.total_bytes())));
}

#[test]
fn delta_without_a_cached_session_is_404() {
    let state = state();
    let response = post(&state, "/delta", &delta_body(&"0".repeat(32), &["insert R(q, q)"]));
    assert_eq!(response.status, 404);
    let text = String::from_utf8(response.body).unwrap();
    assert!(text.contains("POST the workspace to /check first"), "{text}");
}

#[test]
fn stale_fingerprint_is_409_with_the_current_one() {
    let state = state();
    let fp0 = fingerprint_of(&post(&state, "/check", &check_body(WS, false)));
    let first = post(&state, "/delta", &delta_body(&fp0, &["insert R(c, w)"]));
    assert_eq!(first.status, 200);
    let fp1 = fingerprint_of(&first);

    // Replaying against the old fingerprint misses the cache (the
    // entry moved), so the client is told to re-sync.
    let replay = post(&state, "/delta", &delta_body(&fp0, &["insert R(d, w)"]));
    assert_eq!(replay.status, 404);

    // Simulate losing the race: the entry sits under a key a slower
    // client still holds while the session content already moved on.
    let k0 = Fingerprint::from_hex(&fp0).unwrap();
    let k1 = Fingerprint::from_hex(&fp1).unwrap();
    assert!(state.cache.rekey(k1, k0));
    let stale = post(&state, "/delta", &delta_body(&fp0, &["insert R(d, w)"]));
    assert_eq!(stale.status, 409);
    let json = body_json(&stale);
    assert_eq!(json.get("fingerprint").and_then(Json::as_str), Some(fp1.as_str()));

    // Re-syncing on the advertised fingerprint succeeds.
    assert!(state.cache.rekey(k0, k1));
    let current = post(&state, "/delta", &delta_body(&fp1, &["insert R(d, w)"]));
    assert_eq!(current.status, 200);
}

#[test]
fn bad_requests_keep_shared_diagnostics() {
    let state = state();
    let fp0 = fingerprint_of(&post(&state, "/check", &check_body(WS, false)));

    // The op diagnostics are the exact `parse_delta_op` text, prefixed
    // `ops:` — byte-identical to the CLI's script/JSON paths.
    let ws = rpr_format::parse_workspace(WS).unwrap();
    let expected =
        rpr_format::delta_ops_from_strings(ws.instance.signature(), &["banana"]).unwrap_err();
    let response = post(&state, "/delta", &delta_body(&fp0, &["banana"]));
    assert_eq!(response.status, 400);
    let text = String::from_utf8(response.body).unwrap();
    assert!(text.contains(&format!("ops: {expected}")), "{text}");

    // Session-level rejections surface the DeltaError text.
    let response = post(&state, "/delta", &delta_body(&fp0, &["delete R(zz, zz)"]));
    assert_eq!(response.status, 400);
    assert!(String::from_utf8(response.body).unwrap().contains("fact not in the instance"));

    // Protocol-shape errors.
    for (body, status, needle) in [
        (r#"{"ops":["insert R(q, q)"]}"#.to_owned(), 400, "missing string field `fingerprint`"),
        (r#"{"fingerprint":"xyz","ops":[]}"#.to_owned(), 400, "32 hex digits"),
        (format!(r#"{{"fingerprint":"{fp0}"}}"#), 400, "missing array field `ops`"),
        (format!(r#"{{"fingerprint":"{fp0}","ops":[7]}}"#), 400, "array of strings"),
    ] {
        let response = post(&state, "/delta", &body);
        assert_eq!(response.status, status, "{body}");
        assert!(String::from_utf8(response.body).unwrap().contains(needle), "{body}");
    }
}

#[test]
fn exceeded_budget_is_a_clean_no_op() {
    let state = state();
    let fp0 = fingerprint_of(&post(&state, "/check", &check_body(WS, false)));
    let body = Json::obj([
        ("fingerprint", Json::str(fp0.clone())),
        (
            "ops",
            Json::Arr(
                ["insert R(c, w)", "insert R(d, w)", "insert R(e, w)"]
                    .iter()
                    .map(|o| Json::str(*o))
                    .collect(),
            ),
        ),
        ("max_work", Json::Int(1)),
    ])
    .render();
    let response = post(&state, "/delta", &body);
    assert_eq!(response.status, 422, "{}", String::from_utf8_lossy(&response.body));
    let json = body_json(&response);
    assert_eq!(json.get("status").and_then(Json::as_str), Some("exceeded"));
    // Rejected before anything ran: no ops counted, no rebuild.
    assert_eq!(state.metrics.delta_ops_total.load(Ordering::Relaxed), 0);
    assert_eq!(state.metrics.delta_rebuilds_total.load(Ordering::Relaxed), 0);

    // Nothing mutated: the original fingerprint still addresses the
    // session and the same ops now apply cleanly.
    let retry = post(&state, "/delta", &delta_body(&fp0, &["insert R(c, w)"]));
    assert_eq!(retry.status, 200);
}

#[test]
fn patched_session_certificates_match_cold_and_audit_identically() {
    // Warm server: check → delta → certify on the mutated workspace.
    let warm = state();
    let fp0 = fingerprint_of(&post(&warm, "/check", &check_body(WS, false)));
    let ops = ["insert R(c, w)", "unprefer R(a, x) > R(a, y)"];
    let deltad = post(&warm, "/delta", &delta_body(&fp0, &ops));
    assert_eq!(deltad.status, 200);

    let ws = rpr_format::parse_workspace(WS).unwrap();
    let parsed = rpr_format::delta_ops_from_strings(ws.instance.signature(), &ops).unwrap();
    let mutated = rpr_format::apply_ops_to_workspace(&ws, &parsed).unwrap();
    let rendered = rpr_format::render_workspace(&mutated);

    let warm_response = post(&warm, "/check", &check_body(&rendered, true));
    assert_eq!(warm_response.status, 200);
    let warm_json = body_json(&warm_response);
    assert_eq!(
        warm_json.get("cached").and_then(Json::as_bool),
        Some(true),
        "certify ran against the patched session"
    );
    let warm_certs: Vec<String> = warm_json
        .get("results")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| r.get("certificate").and_then(Json::as_str).unwrap().to_owned())
        .collect();

    // Cold server: first contact is the mutated workspace itself.
    let cold = state();
    let cold_response = post(&cold, "/check", &check_body(&rendered, true));
    assert_eq!(cold_response.status, 200);
    let cold_json = body_json(&cold_response);
    assert_eq!(cold_json.get("cached").and_then(Json::as_bool), Some(false));
    let cold_certs: Vec<String> = cold_json
        .get("results")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| r.get("certificate").and_then(Json::as_str).unwrap().to_owned())
        .collect();

    assert_eq!(warm_certs, cold_certs, "patched and cold certificates must be byte-identical");

    // Both audit clean; a tampered patched-session certificate is
    // rejected exactly like a tampered cold one.
    for cert in &warm_certs {
        rpr_audit::audit(cert).expect("patched-session certificates re-validate");
        let mut doc = rpr_format::parse_certificate(cert).expect("certificates parse");
        let candidate = doc.get_mut("candidate").expect("check certificates carry a candidate");
        if let rpr_format::CertValue::Arr(ids) = candidate {
            ids.remove(0);
        }
        let tampered = rpr_format::render_value(&doc);
        assert!(rpr_audit::audit(&tampered).is_err(), "tampered certificate must fail the audit");
    }
}
