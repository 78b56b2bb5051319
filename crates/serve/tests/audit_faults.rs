//! Differential fault suite for the serve-side certificate path
//! (`--features faults`): with certificate corruption injected, a
//! `--self-audit` server must answer `500` on every request — never a
//! wrong `200` — and `rpr_audit_failures_total` must reconcile exactly
//! with the audits that ran (cache-hit audits included). Without
//! corruption, certificates flow, re-validate, and
//! `rpr_certificates_issued_total` reconciles with what clients saw.

#![cfg(feature = "faults")]

use rpr_serve::handlers::{handle, BudgetDefaults, ServerState};
use rpr_serve::http::{Request, Response};
use rpr_serve::json::Json;
use rpr_serve::{Metrics, SessionCache};
use std::sync::atomic::Ordering;

/// One single-FD relation with one optimal declared repair, so every
/// certify request issues exactly one certificate.
const WS: &str = "relation R/2\n\
                  fd R: 1 -> 2\n\
                  fact R(a, x)\n\
                  fact R(a, y)\n\
                  fact R(b, z)\n\
                  prefer R(a, x) > R(a, y)\n\
                  repair J: R(a, x); R(b, z)\n";

fn state(self_audit: bool, corrupt_certificates: bool) -> ServerState {
    ServerState {
        cache: SessionCache::new(8),
        shard_store: std::sync::Arc::new(rpr_core::ShardStore::new()),
        metrics: Metrics::default(),
        defaults: BudgetDefaults { timeout: None, max_work: None },
        jobs: 1,
        drain: rpr_core::CancelToken::new(),
        self_audit,
        corrupt_certificates,
    }
}

fn post_check(state: &ServerState, certify: bool) -> Response {
    let body =
        format!("{{\"workspace\":{},\"certify\":{certify}}}", Json::str(WS).render()).into_bytes();
    handle(state, &Request { method: "POST", path: "/check", body: &body, close: false })
}

fn counter(state: &ServerState, pick: fn(&Metrics) -> &std::sync::atomic::AtomicU64) -> u64 {
    pick(&state.metrics).load(Ordering::Relaxed)
}

/// Extracts every `certificate` field from a 200 response body.
fn certificates(response: &Response) -> Vec<String> {
    let text = std::str::from_utf8(&response.body).unwrap();
    let json = rpr_serve::parse_json(text).unwrap();
    let Some(Json::Arr(results)) = json.get("results") else {
        panic!("response has no results array: {text}");
    };
    results
        .iter()
        .filter_map(|entry| match entry.get("certificate") {
            Some(Json::Str(cert)) => Some(cert.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn corrupted_certificates_answer_500_and_failures_reconcile() {
    let state = state(true, true);
    let n = 4u64;
    for i in 0..n {
        let response = post_check(&state, true);
        assert_eq!(response.status, 500, "request {i} must not certify a corrupted answer");
        let text = std::str::from_utf8(&response.body).unwrap();
        assert!(text.contains("certificate audit failed"), "unexpected 500 body: {text}");
    }
    // Request 1 misses the cache and fails only the self-audit (+1);
    // each warm request fails the cache-hit audit (+1), degrades to a
    // rebuilt miss, and fails the self-audit on the rebuilt (still
    // corrupted) certificate (+1).
    assert_eq!(counter(&state, |m| &m.audit_failures_total), 1 + 2 * (n - 1));
    // No corrupted certificate was ever issued to a client.
    assert_eq!(counter(&state, |m| &m.certificates_issued_total), 0);
    // The degraded hits are counted as misses: the cold miss plus one
    // per warm request.
    assert_eq!(counter(&state, |m| &m.cache_hits_total), n - 1);
    assert_eq!(counter(&state, |m| &m.cache_misses_total), n);
}

#[test]
fn genuine_certificates_flow_audit_clean_and_reconcile() {
    let state = state(true, false);
    let n = 3u64;
    let mut seen = 0u64;
    for _ in 0..n {
        let response = post_check(&state, true);
        assert_eq!(response.status, 200);
        let certs = certificates(&response);
        assert_eq!(certs.len(), 1, "one declared repair → one certificate");
        for cert in &certs {
            let report = rpr_audit::audit(cert).expect("issued certificates re-validate");
            assert_eq!(report.verdict.as_deref(), Some("optimal"));
        }
        seen += certs.len() as u64;
    }
    // A request without `certify` issues nothing.
    let plain = post_check(&state, false);
    assert_eq!(plain.status, 200);
    assert!(certificates(&plain).is_empty());

    assert_eq!(counter(&state, |m| &m.certificates_issued_total), seen);
    assert_eq!(counter(&state, |m| &m.audit_failures_total), 0);
}

#[test]
fn cache_hit_audit_degrades_to_counted_miss_without_self_audit() {
    let state = state(false, true);
    // Cold request: no cached artifact to distrust and no self-audit,
    // so the (corrupted) certificate goes out and the client's own
    // audit is what catches it.
    let cold = post_check(&state, true);
    assert_eq!(cold.status, 200);
    let certs = certificates(&cold);
    assert_eq!(certs.len(), 1);
    assert!(rpr_audit::audit(&certs[0]).is_err(), "client-side audit catches the corruption");
    assert_eq!(counter(&state, |m| &m.audit_failures_total), 0);

    // Warm request: the cache-hit audit fires, counts the failure,
    // degrades the hit to a miss, and recomputes from scratch.
    let warm = post_check(&state, true);
    assert_eq!(warm.status, 200);
    assert_eq!(counter(&state, |m| &m.audit_failures_total), 1);
    assert_eq!(counter(&state, |m| &m.cache_hits_total), 1);
    assert_eq!(counter(&state, |m| &m.cache_misses_total), 2);
}
