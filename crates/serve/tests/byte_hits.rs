//! Byte-keyed cache hits: a `/check` whose `workspace` bytes equal the
//! bytes a cached session was last verified against is served without a
//! parse. These tests pin down when such a hit may happen: never after a
//! delta mutated the session, again after a verified fingerprint hit
//! re-arms it, never for more sessions than the cache holds, and never
//! for content or fact ids other than the request's under a concurrent
//! delta.

use rpr_format::{parse_workspace, workspace_fingerprint};
use rpr_serve::handlers::{handle, BudgetDefaults, ServerState};
use rpr_serve::http::{Request, Response};
use rpr_serve::json::{parse_json, Json};
use rpr_serve::{Metrics, SessionCache};
use std::sync::atomic::Ordering;

/// `R(a,x) ≻ R(a,y)`: J is optimal, K improvable.
const WS: &str = "relation R/2\n\
                  fd R: 1 -> 2\n\
                  fact R(a, x)\n\
                  fact R(a, y)\n\
                  fact R(b, z)\n\
                  prefer R(a, x) > R(a, y)\n\
                  repair J: R(a, x); R(b, z)\n\
                  repair K: R(a, y); R(b, z)\n";

/// `WS` with the preference flipped: J is improvable, K optimal.
const WS_FLIPPED: &str = "relation R/2\n\
                          fd R: 1 -> 2\n\
                          fact R(a, x)\n\
                          fact R(a, y)\n\
                          fact R(b, z)\n\
                          prefer R(a, y) > R(a, x)\n\
                          repair J: R(a, x); R(b, z)\n\
                          repair K: R(a, y); R(b, z)\n";

const FLIP: [&str; 2] = ["unprefer R(a, x) > R(a, y)", "prefer R(a, y) > R(a, x)"];
const UNFLIP: [&str; 2] = ["unprefer R(a, y) > R(a, x)", "prefer R(a, x) > R(a, y)"];

fn state(capacity: usize) -> ServerState {
    ServerState {
        cache: SessionCache::new(capacity),
        shard_store: std::sync::Arc::new(rpr_core::ShardStore::new()),
        metrics: Metrics::default(),
        defaults: BudgetDefaults { timeout: None, max_work: None },
        jobs: 1,
        drain: rpr_core::CancelToken::new(),
        self_audit: true,
        #[cfg(feature = "faults")]
        corrupt_certificates: false,
    }
}

fn post(state: &ServerState, path: &'static str, body: &str) -> Response {
    handle(state, &Request { method: "POST", path, body: body.as_bytes(), close: false })
}

fn check(state: &ServerState, ws: &str, certify: bool) -> Json {
    let body = Json::obj([("workspace", Json::str(ws)), ("certify", Json::Bool(certify))]);
    let response = post(state, "/check", &body.render());
    assert_eq!(response.status, 200, "{}", String::from_utf8_lossy(&response.body));
    parse_json(std::str::from_utf8(&response.body).unwrap()).unwrap()
}

fn delta(state: &ServerState, fp: &str, ops: &[&str]) -> Response {
    let body = Json::obj([
        ("fingerprint", Json::str(fp)),
        ("ops", Json::Arr(ops.iter().map(|o| Json::str(*o)).collect())),
    ]);
    post(state, "/delta", &body.render())
}

fn fingerprint(ws: &str) -> String {
    workspace_fingerprint(&parse_workspace(ws).unwrap()).to_hex()
}

fn str_at<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no `{key}`"))
}

fn cached(json: &Json) -> bool {
    json.get("cached").and_then(Json::as_bool).unwrap()
}

fn verdicts(json: &Json) -> Vec<String> {
    let results = json.get("results").and_then(Json::as_arr).unwrap();
    results.iter().map(|r| str_at(r, "verdict").to_owned()).collect()
}

fn byte_hits(state: &ServerState) -> u64 {
    state.metrics.cache_byte_hits_total.load(Ordering::Relaxed)
}

#[test]
fn original_bytes_are_never_served_the_mutated_session() {
    let state = state(8);
    let fp0 = fingerprint(WS);
    assert!(!cached(&check(&state, WS, false)));
    assert!(cached(&check(&state, WS, false)));
    assert_eq!(byte_hits(&state), 1);

    let response = delta(&state, &fp0, &FLIP);
    assert_eq!(response.status, 200);

    // The session moved on to WS_FLIPPED's content; WS's bytes must be
    // answered for WS: rebuilt under its own fingerprint, same verdicts.
    let again = check(&state, WS, false);
    assert!(!cached(&again), "the mutated session must not serve the old bytes");
    assert_eq!(str_at(&again, "fingerprint"), fp0);
    assert_eq!(verdicts(&again), ["optimal", "improvable"]);
    assert_eq!(byte_hits(&state), 1);

    // The mutated session still serves its own content.
    let flipped = check(&state, WS_FLIPPED, false);
    assert!(cached(&flipped));
    assert_eq!(verdicts(&flipped), ["improvable", "optimal"]);
}

#[test]
fn round_trip_delta_then_original_bytes_verifies_then_byte_hits() {
    let state = state(8);
    let fp0 = fingerprint(WS);
    check(&state, WS, false);
    check(&state, WS, false);
    assert_eq!(byte_hits(&state), 1);

    let response = delta(&state, &fp0, &["insert R(c, w)", "delete R(c, w)"]);
    assert_eq!(response.status, 200, "{}", String::from_utf8_lossy(&response.body));

    // Same content again, but the delta dropped the kept bytes: the
    // next request is a verified fingerprint hit, which re-arms.
    let verified = check(&state, WS, true);
    assert!(cached(&verified));
    assert_eq!(str_at(&verified, "fingerprint"), fp0);
    assert_eq!(byte_hits(&state), 1, "no byte hit right after a delta");
    let byte_hit = check(&state, WS, true);
    assert!(cached(&byte_hit));
    assert_eq!(byte_hits(&state), 2);
    assert_eq!(verdicts(&byte_hit), ["optimal", "improvable"]);
    assert_eq!(byte_hit.get("results"), verified.get("results"), "certificates included");

    let scrape =
        handle(&state, &Request { method: "GET", path: "/metrics", body: b"", close: false });
    let text = String::from_utf8(scrape.body).unwrap();
    assert!(text.contains("rpr_cache_byte_hits_total 2\n"), "got:\n{text}");
    assert!(text.contains("rpr_cache_hits_total 3\n"), "got:\n{text}");
    assert!(text.contains("rpr_cache_collisions_total 0\n"), "got:\n{text}");
}

#[test]
fn byte_hits_answer_every_endpoint_like_the_parse_path() {
    let classify = Json::obj([("workspace", Json::str(WS))]).render();
    let cqa = Json::obj([("workspace", Json::str(WS)), ("query", Json::str("q(?y) <- R(a, ?y)"))])
        .render();
    for (path, body) in [("/classify", &classify), ("/cqa", &cqa)] {
        let state = state(8);
        let parsed = post(&state, path, body);
        let hit = post(&state, path, body);
        assert_eq!(parsed.status, 200, "{}", String::from_utf8_lossy(&parsed.body));
        assert_eq!(byte_hits(&state), 1, "{path}");
        let strip = |r: &Response| {
            String::from_utf8_lossy(&r.body).replace(r#""cached":true"#, r#""cached":false"#)
        };
        assert_eq!(strip(&parsed), strip(&hit), "{path}");
    }

    // Every endpoint shares the kept bytes, and a `repairs` selection
    // resolves against the kept repairs.
    let state = state(8);
    post(&state, "/classify", &classify);
    assert_eq!(post(&state, "/cqa", &cqa).status, 200);

    let body =
        Json::obj([("workspace", Json::str(WS)), ("repairs", Json::Arr(vec![Json::str("K")]))]);
    let response = post(&state, "/check", &body.render());
    let json = parse_json(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(verdicts(&json), ["improvable"]);
    assert_eq!(byte_hits(&state), 2);
}

#[test]
fn evictions_keep_the_byte_index_within_the_cache() {
    let state = state(2);
    let workspaces: Vec<String> = (0..6)
        .map(|i| format!("relation R/2\nfd R: 1 -> 2\nfact R(a, x{i})\nrepair J: R(a, x{i})\n"))
        .collect();
    for round in 0..2 {
        for ws in &workspaces {
            for _ in 0..2 {
                assert_eq!(verdicts(&check(&state, ws, false)), ["optimal"]);
                assert!(
                    state.cache.source_index_len() <= state.cache.len(),
                    "round {round}: {} indexed, {} cached",
                    state.cache.source_index_len(),
                    state.cache.len()
                );
            }
        }
    }
    assert_eq!(state.cache.len(), 2);
    assert_eq!(state.cache.source_index_len(), 2);
    assert!(state.cache.evictions() >= 10);
    // Each workspace's second request matched the bytes its first armed.
    assert_eq!(byte_hits(&state), 12);
}

#[test]
fn concurrent_deltas_never_make_a_check_answer_other_content() {
    let state = state(8);
    let (fp0, fp1) = (fingerprint(WS), fingerprint(WS_FLIPPED));
    check(&state, WS, false);
    // All three threads start together, so checks and deltas overlap.
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        for (ws, fp, want) in
            [(WS, &fp0, ["optimal", "improvable"]), (WS_FLIPPED, &fp1, ["improvable", "optimal"])]
        {
            let (state, start) = (&state, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..150 {
                    let json = check(state, ws, i % 5 == 0);
                    assert_eq!(str_at(&json, "fingerprint"), fp.as_str());
                    assert_eq!(verdicts(&json), want, "request {i} for {fp}");
                }
            });
        }
        let (state, start, fp0, fp1) = (&state, &start, &fp0, &fp1);
        scope.spawn(move || {
            start.wait();
            let mut current = fp0.clone();
            for i in 0..150 {
                let preferred =
                    if current == *fp0 { "R(a, x) > R(a, y)" } else { "R(a, y) > R(a, x)" };
                // Every third batch keeps the content but renumbers the
                // facts, so a verdict read through stale ids shows.
                let moved = if i % 2 == 0 { "R(a, x)" } else { "R(a, y)" };
                let renumber = [
                    format!("unprefer {preferred}"),
                    format!("delete {moved}"),
                    format!("insert {moved}"),
                    format!("prefer {preferred}"),
                ];
                let flip = if current == *fp0 { FLIP } else { UNFLIP };
                let ops: Vec<&str> = if i % 3 == 0 {
                    renumber.iter().map(String::as_str).collect()
                } else {
                    flip.to_vec()
                };
                let response = delta(state, &current, &ops);
                let json = parse_json(std::str::from_utf8(&response.body).unwrap()).unwrap();
                match response.status {
                    // Moved on, or re-synced to the session's current state.
                    200 | 409 => current = str_at(&json, "fingerprint").to_owned(),
                    // Replaced under its key by a check's fresh build.
                    404 => current = if current == *fp0 { fp1.clone() } else { fp0.clone() },
                    other => panic!("delta answered {other}: {json:?}"),
                }
            }
        });
    });
    assert_eq!(state.metrics.audit_failures_total.load(Ordering::Relaxed), 0);
    assert!(byte_hits(&state) > 0, "the race must exercise the byte path");
}
