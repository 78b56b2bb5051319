//! The server: event loop, bounded job queue, worker pool, drain.
//!
//! Threading model (one line per moving part):
//!
//! * **event loop** (the caller of [`Server::run`]) — owns the
//!   listener and every connection socket; nonblocking accept, poll(2)
//!   readiness, in-place framing of pipelined keep-alive requests (see
//!   [`event_loop`](crate::event_loop)). Admission control lives at
//!   dispatch: a full job queue answers `503 + Retry-After` from the
//!   loop, before any worker is involved;
//! * **N workers** (`jobs` convention) — pop fully-framed requests
//!   from the bounded queue, route + compute + respond, each request
//!   wrapped in `catch_unwind` so a handler panic downs one response,
//!   not the pool; finished responses travel back over an mpsc channel
//!   and a one-byte write to a Unix socket pair that wakes the loop;
//! * **drain** — a [`CancelToken`] shared with every request budget.
//!   `SIGTERM`/`SIGINT` (opt-in) or `POST /shutdown` fires it: the
//!   loop stops accepting, closes idle keep-alive connections, answers
//!   everything already framed (their budgets observe the token, so
//!   long checks come back `cancelled` → 503 quickly) with
//!   `Connection: close`, and exits once no connection remains; a
//!   *bounded* backlog sweep then answers handshakes that completed
//!   before the drain with `503 + Retry-After` instead of a reset.
//!   Transient `accept` failures (aborted handshakes, `EINTR`, fd
//!   exhaustion) are retried; a truly fatal listener error closes the
//!   queue first so workers exit and the error surfaces instead of
//!   deadlocking the join.

use crate::event_loop::{Completion, EventLoop, JobQueue};
use crate::handlers::{handle, BudgetDefaults, ServerState};
use crate::http::{finish, parse_request, HttpError, Parsed, Response};
use crate::metrics::Metrics;
use rpr_core::CancelToken;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Global drain flag written by the (async-signal-safe) signal handler
/// and polled by the event loop.
static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// Server configuration. All knobs have serving-sane defaults.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (port `0` for ephemeral).
    pub addr: String,
    /// Worker threads (the `--jobs` convention: `None`/`0` → available
    /// parallelism).
    pub jobs: Option<usize>,
    /// Admission queue bound; requests beyond it get `503`.
    pub queue_capacity: usize,
    /// LRU session-cache capacity (entries).
    pub cache_capacity: usize,
    /// Shard-store byte ceiling: past it, cold shards (not referenced
    /// by any cached session) are evicted LRU-first. `None` = no cap.
    pub cache_bytes_max: Option<u64>,
    /// Default per-request deadline (ms); requests may override.
    pub default_timeout_ms: Option<u64>,
    /// Default per-request work allowance; requests may override.
    pub default_max_work: Option<u64>,
    /// Install `SIGINT`/`SIGTERM` handlers that trigger drain.
    pub install_signal_handlers: bool,
    /// Close keep-alive connections idle longer than this (also the
    /// slow-loris bound for half-sent requests).
    pub idle_timeout_ms: u64,
    /// Requests served per connection before the server closes it
    /// (bounds how long one client can monopolize a poll slot).
    pub max_requests_per_conn: u64,
    /// Concurrent connection bound; past it the listener stops
    /// accepting (backlog queues in the kernel) until a slot frees.
    pub max_connections: usize,
    /// Re-audit every issued certificate with `rpr-audit` before
    /// responding; a failed audit answers `500`, never a wrong `200`.
    pub self_audit: bool,
    /// Fault injection: corrupt every issued certificate before the
    /// audit/response path sees it (differential testing only).
    #[cfg(feature = "faults")]
    pub corrupt_certificates: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_owned(),
            jobs: None,
            queue_capacity: 64,
            cache_capacity: 32,
            cache_bytes_max: None,
            default_timeout_ms: Some(10_000),
            default_max_work: None,
            install_signal_handlers: false,
            idle_timeout_ms: 5_000,
            max_requests_per_conn: 1024,
            max_connections: 4096,
            self_audit: false,
            #[cfg(feature = "faults")]
            corrupt_certificates: false,
        }
    }
}

/// A bound, running repair-checking service.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    config: ServeConfig,
}

impl Server {
    /// Binds the listener and prepares shared state. The service does
    /// not accept connections until [`run`](Server::run).
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let state = Arc::new(ServerState {
            cache: crate::cache::SessionCache::new(config.cache_capacity),
            shard_store: Arc::new(rpr_core::ShardStore::with_bytes_max(config.cache_bytes_max)),
            metrics: Metrics::default(),
            defaults: BudgetDefaults {
                timeout: config.default_timeout_ms.map(Duration::from_millis),
                max_work: config.default_max_work,
            },
            jobs: rpr_core::resolve_jobs(config.jobs),
            drain: CancelToken::new(),
            self_audit: config.self_audit,
            #[cfg(feature = "faults")]
            corrupt_certificates: config.corrupt_certificates,
        });
        Ok(Server { listener, state, config })
    }

    /// The bound address (for ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The drain token: cancel it to initiate graceful shutdown from
    /// another thread.
    pub fn drain_token(&self) -> CancelToken {
        self.state.drain.clone()
    }

    /// Shared metrics (e.g. for in-process load tests).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Runs the event loop until drain, then joins the workers.
    /// Returns the number of connections accepted over the lifetime.
    pub fn run(self) -> std::io::Result<u64> {
        if self.config.install_signal_handlers {
            install_signal_handlers();
        }
        self.listener.set_nonblocking(true)?;
        let jobs = Arc::new(JobQueue::new(self.config.queue_capacity));
        let (completion_tx, completion_rx) = mpsc::channel::<Completion>();
        let (wake_rx, wake_tx) = wake_pair()?;
        let wake_tx = Arc::new(wake_tx);

        std::thread::scope(|scope| -> std::io::Result<u64> {
            // Workers: pool size = jobs, but each check itself also
            // fans out with `jobs` — a deliberate 2-level model where
            // light traffic lets single requests use the whole machine
            // and heavy traffic degrades to ~1 thread per request.
            for worker_id in 0..self.state.jobs {
                let jobs = Arc::clone(&jobs);
                let state = Arc::clone(&self.state);
                let tx = completion_tx.clone();
                let wake = Arc::clone(&wake_tx);
                std::thread::Builder::new()
                    .name(format!("rpr-serve-{worker_id}"))
                    .spawn_scoped(scope, move || worker_loop(&jobs, &state, &tx, &wake))
                    .expect("spawn worker");
            }

            let result = EventLoop {
                listener: &self.listener,
                state: &self.state,
                config: &self.config,
                jobs: &jobs,
                completions: &completion_rx,
                wake_rx: &wake_rx,
                signal_drain: &SIGNAL_DRAIN,
            }
            .run();

            let mut accepted = match result {
                Ok(accepted) => accepted,
                Err(e) => {
                    // Fatal loop error: close the queue *before*
                    // returning — bailing out of the scope with the
                    // queue open would leave workers blocked in `pop`
                    // and the scope's implicit join would hang the
                    // process instead of surfacing `e`.
                    jobs.close();
                    return Err(e);
                }
            };

            // Bounded drain sweep: connections whose TCP handshake
            // completed before the drain deserve an answer rather than
            // the reset a closed listener would send — but "accept
            // until WouldBlock" never terminates under sustained
            // closed-loop traffic, so the sweep is count-limited and
            // answers `503 + Retry-After` (the service is going away;
            // retry-elsewhere is the only honest response).
            for _ in 0..self.config.queue_capacity.max(1) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        accepted += 1;
                        self.state.metrics.rejected_total.fetch_add(1, Ordering::Relaxed);
                        self.state.metrics.http_connections_total.fetch_add(1, Ordering::Relaxed);
                        let mut stream = stream_nodelay(stream);
                        scope.spawn(move || {
                            let response = Response::json(503, r#"{"error":"server draining"}"#)
                                .with_header("retry-after", "1");
                            finish(&mut stream, &response);
                        });
                    }
                    Err(_) => break,
                }
            }

            // Drain: stop admitting, let workers finish the queue.
            jobs.close();
            Ok(accepted)
        })
    }
}

/// One end of the socket pair workers wake the event loop through: a
/// Unix stream socket where there is one, else a loopback TCP
/// connection (the platforms where [`poll`](crate::poll) falls back to
/// its everything-ready tick).
#[cfg(unix)]
pub(crate) type WakeStream = std::os::unix::net::UnixStream;
#[cfg(not(unix))]
pub(crate) type WakeStream = TcpStream;

/// The `(read, write)` ends of the worker → loop wake-up pair. A Unix
/// socket pair queues the byte straight onto its peer, where loopback
/// TCP runs it through the whole TCP/IP stack, so a wake costs a
/// fraction of a loopback TCP round trip. Both ends are nonblocking:
/// the reader drains on wake, and a writer whose byte hits a full
/// buffer can skip the write — a full buffer already guarantees a
/// pending wake-up.
#[cfg(unix)]
pub(crate) fn wake_pair() -> std::io::Result<(WakeStream, WakeStream)> {
    let (rx, tx) = WakeStream::pair()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    Ok((rx, tx))
}

#[cfg(not(unix))]
pub(crate) fn wake_pair() -> std::io::Result<(WakeStream, WakeStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    let _ = tx.set_nodelay(true);
    Ok((rx, tx))
}

/// Disables Nagle so small JSON responses flush immediately.
fn stream_nodelay(stream: TcpStream) -> TcpStream {
    let _ = stream.set_nodelay(true);
    stream
}

/// Accept errors a server retries rather than dies on: handshakes the
/// peer aborted (`ECONNABORTED`/`ECONNRESET`), signal interruption
/// (`EINTR`), and fd exhaustion (`EMFILE`/`ENFILE`, which clears as
/// in-flight connections close).
pub(crate) fn is_transient_accept_error(e: &std::io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
    ) || matches!(e.raw_os_error(), Some(ENFILE | EMFILE))
}

fn worker_loop(
    jobs: &JobQueue,
    state: &ServerState,
    completions: &mpsc::Sender<Completion>,
    wake: &WakeStream,
) {
    while let Some(job) = jobs.pop() {
        Metrics::gauge_dec(&state.metrics.queue_depth);
        Metrics::gauge_inc(&state.metrics.in_flight);
        let (response, close) = serve_request(&job.raw, state);
        Metrics::gauge_dec(&state.metrics.in_flight);
        let conn_id = job.conn_id;
        drop(job); // the request bytes die here, not after the send
        if completions.send(Completion { conn_id, response, close }).is_err() {
            return; // event loop is gone; nothing left to serve
        }
        // One byte wakes the loop. `WouldBlock` means the buffer is
        // full, which already guarantees a pending wake-up.
        let _ = (&*wake).write(&[1u8]);
    }
}

/// Routes one framed request (workers re-parse the raw bytes — two
/// allocation-free header scans per request, one in the loop for
/// framing and one here for routing). Returns the response plus the
/// request's `Connection: close` wish.
fn serve_request(raw: &[u8], state: &ServerState) -> (Response, bool) {
    let request = match parse_request(raw) {
        Ok(Parsed::Complete { request, .. }) => request,
        // The event loop only dispatches fully-framed requests, so
        // these are defensive:
        Ok(Parsed::Partial) => {
            return (Response::json(400, r#"{"error":"malformed request: truncated"}"#), true)
        }
        Err(HttpError::TooLarge) => {
            return (Response::json(400, r#"{"error":"request too large"}"#), true)
        }
        Err(HttpError::Malformed(what)) => {
            return (
                Response::json(400, format!(r#"{{"error":"malformed request: {what}"}}"#)),
                true,
            )
        }
        Err(HttpError::Io(_)) => {
            return (Response::json(400, r#"{"error":"malformed request"}"#), true)
        }
    };
    let close = request.close;
    if request.method == "POST" && request.path == "/shutdown" {
        state.drain.cancel();
        state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        state.metrics.done_total.fetch_add(1, Ordering::Relaxed);
        return (Response::json(200, r#"{"status":"draining"}"#), close);
    }
    // Panic isolation: a handler bug downs this response, not the
    // worker (and therefore not the pool).
    let response =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle(state, &request))) {
            Ok(response) => response,
            Err(payload) => {
                state.metrics.panicked_total.fetch_add(1, Ordering::Relaxed);
                let message = rpr_core::PanicReport::from_payload("request handler", payload);
                crate::handlers::error_response(500, &message.to_string())
            }
        };
    (response, close)
}

/// Installs `SIGINT`/`SIGTERM` handlers that set the drain flag. The
/// handler body is a single atomic store — async-signal-safe.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNAL_DRAIN.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn request(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn healthz_metrics_and_drain() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: Some(2),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let health = request(addr, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(health.contains("200 OK"), "got: {health}");
        assert!(health.contains(r#"{"status":"ok"}"#));

        let metrics = request(addr, "GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(metrics.contains("rpr_requests_total"), "got: {metrics}");
        assert!(metrics.contains("rpr_http_connections_total"), "got: {metrics}");

        let nf = request(addr, "GET /nope HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(nf.contains("404"), "got: {nf}");

        let shutdown = request(
            addr,
            "POST /shutdown HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
        );
        assert!(shutdown.contains("draining"), "got: {shutdown}");
        let admitted = handle.join().unwrap();
        assert!(admitted >= 4);
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_socket() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: Some(2),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let token = server.drain_token();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut client = crate::http::HttpClient::new(addr.to_string());
        for _ in 0..5 {
            let (status, body) = client.call("GET", "/healthz", b"").unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, br#"{"status":"ok"}"#);
        }
        let (status, body) = client.call("GET", "/metrics", b"").unwrap();
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        // Six requests, one TCP connection.
        assert!(text.contains("rpr_requests_total 6\n"), "got:\n{text}");
        assert!(text.contains("rpr_http_connections_total 1\n"), "got:\n{text}");

        token.cancel();
        handle.join().unwrap();
    }

    #[test]
    fn transient_accept_errors_are_not_fatal() {
        let aborted = std::io::Error::from(std::io::ErrorKind::ConnectionAborted);
        let interrupted = std::io::Error::from(std::io::ErrorKind::Interrupted);
        let emfile = std::io::Error::from_raw_os_error(24);
        let addr_in_use = std::io::Error::from(std::io::ErrorKind::AddrInUse);
        assert!(is_transient_accept_error(&aborted));
        assert!(is_transient_accept_error(&interrupted));
        assert!(is_transient_accept_error(&emfile));
        assert!(!is_transient_accept_error(&addr_in_use));
    }

    #[test]
    fn drain_terminates_under_sustained_traffic() {
        use std::sync::mpsc;

        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: Some(2),
            queue_capacity: 4,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let token = server.drain_token();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let health = request(addr, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(health.contains("200 OK"), "got: {health}");

        // Closed-loop hammers keep a connection pending at all times;
        // they stop once the listener is gone (connect starts failing).
        let hammers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    while let Ok(mut stream) = TcpStream::connect(addr) {
                        let _ =
                            stream.write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
                        let mut out = String::new();
                        let _ = stream.read_to_string(&mut out);
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();

        // The loop's drain plus the bounded sweep guarantee completion
        // even though the hammers never let the backlog run dry.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(handle.join().unwrap());
        });
        let admitted = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("drain must terminate under sustained traffic");
        assert!(admitted >= 1);
        for hammer in hammers {
            hammer.join().unwrap();
        }
    }
}
