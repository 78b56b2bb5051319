//! # rpr-serve — the concurrent repair-checking service
//!
//! A dependency-light HTTP/1.1 JSON service over the preferred-repairs
//! stack, built on [`std::net::TcpListener`] plus a fixed worker pool
//! (the `--jobs` convention). The paper's dichotomy shapes the serving
//! story: PTIME-side schemas (Theorems 3.1/7.1) answer at interactive
//! latency, while coNP-side requests are only admitted under strict
//! [`Budget`](rpr_core::Budget)s and degrade to
//! 422-with-partial-results instead of hanging a worker.
//!
//! ## Endpoints
//!
//! | route             | body                                            | answer |
//! |-------------------|--------------------------------------------------|--------|
//! | `POST /check`     | `{workspace, repairs?, timeout_ms?, max_work?}`  | per-candidate verdicts |
//! | `POST /classify`  | `{workspace}`                                    | dichotomy side + mode |
//! | `POST /cqa`       | `{workspace, query, semantics?, …}`              | certain/possible answers |
//! | `POST /delta`     | `{fingerprint, ops, timeout_ms?, max_work?}`     | mutates the cached session in place |
//! | `GET /healthz`    | —                                                | liveness |
//! | `GET /metrics`    | —                                                | Prometheus text |
//! | `POST /shutdown`  | —                                                | initiates graceful drain |
//!
//! ## Architecture
//!
//! * [`cache`] — LRU of mutable [`DeltaSession`](rpr_core::DeltaSession)
//!   slots keyed by the canonical workspace fingerprint, so repeated
//!   traffic against one database hits the amortized path and
//!   `POST /delta` patches the cached artifacts in place (the entry
//!   is re-keyed under its post-delta fingerprint);
//! * [`identity`] — content-equality verification of cache hits: the
//!   fingerprint is not collision-resistant against adversaries, so a
//!   hit is only reused after proving it is the same content (a crafted
//!   collision degrades to a miss, never to another workspace's
//!   verdicts);
//! * [`event_loop`] — the readiness-driven I/O core: one thread owns
//!   every socket (nonblocking accept + `poll(2)`), frames pipelined
//!   keep-alive requests in place, and applies admission control (a
//!   full job queue → `503 + Retry-After` without a worker);
//! * [`poll`] — `poll(2)` via a libc-free raw-syscall shim on Linux,
//!   with a portable everything-ready fallback;
//! * [`server`] — configuration, worker pool, graceful drain via
//!   [`CancelToken`](rpr_core::CancelToken);
//! * [`handlers`] — budgeted endpoint logic (outcome → status
//!   mapping): request bodies are read with `rpr_format`'s from-slice
//!   JSON scanner and response bodies written with
//!   [`json::object`], so no document tree is built either way;
//! * [`metrics`] — atomic counters and fixed-bucket histograms;
//! * [`http`] / [`json`] — hand-rolled framing (the build environment
//!   vendors no HTTP or JSON crates): zero-copy request parsing over
//!   the connection buffer, keep-alive and one-shot clients.

#![warn(missing_docs)]

pub mod cache;
pub mod event_loop;
pub mod handlers;
pub mod http;
pub mod identity;
pub mod json;
pub mod metrics;
pub mod poll;
pub mod server;

pub use cache::{CacheOutcome, SessionCache, SessionSlot};
pub use handlers::{BudgetDefaults, ServerState};
pub use http::{client_call, HttpClient};
pub use json::{parse_json, Json};
pub use metrics::Metrics;
pub use server::{ServeConfig, Server};
