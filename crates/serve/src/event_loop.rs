//! The readiness-driven event loop: one thread owns every socket.
//!
//! Connection lifecycle (states are fields of [`Conn`], not an enum,
//! because several are orthogonal — a connection can be flushing a
//! response while its next pipelined request is already framed):
//!
//! ```text
//!   accept ──► READING ──frame──► PENDING ──dispatch──► INFLIGHT
//!                 ▲                  │  (admission: queue full → 503)
//!                 │                  ▼
//!                 └──────────── FLUSHING ◄──completion (worker)
//!                                    │
//!                 keep-alive ◄───────┤ connection: close / cap /
//!                                    ▼ drain / framing error
//!                                LINGERING ──EOF/deadline──► closed
//!   (idle timeout at any quiet point ──► closed)
//! ```
//!
//! The loop does **only** nonblocking I/O and in-place framing; every
//! framed request is handed to the worker pool through the bounded
//! [`JobQueue`] (admission control happens at dispatch: a full queue
//! turns into an immediate `503 + Retry-After` response without
//! consuming a worker). Workers hand finished [`Response`]s back over
//! an mpsc channel and wake the loop by writing one byte to a Unix
//! socket pair ([`wake_pair`](crate::server::wake_pair)), so a
//! completion is picked up within one poll round-trip rather than one
//! poll timeout. One read drains the wake bytes: `poll` is
//! level-triggered, so a byte written after that read wakes the next
//! round instead of being lost.
//!
//! Responses are written in request order per connection: at most one
//! request per connection is in flight at a time, later pipelined
//! requests wait in `Conn::pending`. This serializes each connection
//! (HTTP/1.1 semantics require ordered responses) while different
//! connections still use the whole pool.

use crate::http::{parse_request, HttpError, Parsed, Response};
use crate::metrics::Metrics;
use crate::poll::{poll, raw_fd, PollFd, POLLIN, POLLOUT, READABLE};
use crate::server::{ServeConfig, WakeStream};
use crate::ServerState;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Poll timeout: the upper bound on how stale the drain flag or an
/// idle-timeout deadline can get. Completions and fresh I/O interrupt
/// the wait via readiness, so this is a heartbeat, not a latency floor.
pub(crate) const POLL_TICK_MS: i32 = 25;

/// Per-connection bound on framed-but-undispatched requests. Past it
/// the loop stops reading the socket (TCP backpressure) instead of
/// buffering an unbounded pipelined burst in memory.
const PIPELINE_MAX: usize = 64;

/// How long a closing connection lingers after `shutdown(Write)`,
/// waiting for the peer's FIN so unread bytes in the kernel buffer
/// cannot turn into an `RST` that destroys the in-flight response.
const LINGER: Duration = Duration::from_millis(500);

/// Read chunk size (one scratch buffer shared across connections).
const READ_CHUNK: usize = 16 * 1024;

/// Outbox capacity retained across responses on a keep-alive
/// connection; larger allocations shrink back to this bound after a
/// complete flush.
const OUTBOX_RETAIN_MAX: usize = 64 * 1024;

/// One framed request travelling to the worker pool.
pub(crate) struct Job {
    /// Which connection the response must return to.
    pub conn_id: u64,
    /// The complete framed request bytes (headers + body).
    pub raw: Vec<u8>,
}

/// A finished response travelling back from a worker.
pub(crate) struct Completion {
    /// The connection the job came from (may have died meanwhile).
    pub conn_id: u64,
    /// The response to serialize into that connection's outbox.
    pub response: Response,
    /// The request carried `Connection: close`.
    pub close: bool,
}

/// The bounded job queue between the event loop and the worker pool.
pub(crate) struct JobQueue {
    deque: Mutex<VecDeque<Job>>,
    ready: Condvar,
    capacity: usize,
    closed: AtomicBool,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        JobQueue {
            deque: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity,
            closed: AtomicBool::new(false),
        }
    }

    /// Pushes if below capacity; a saturated queue hands the job back
    /// so the event loop can answer `503` (admission control).
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut deque = self.deque.lock().expect("job queue lock poisoned");
        if deque.len() >= self.capacity {
            return Err(job);
        }
        deque.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops, blocking until a job arrives or the queue closes; `None`
    /// means shutdown with the queue fully drained.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut deque = self.deque.lock().expect("job queue lock poisoned");
        loop {
            if let Some(job) = deque.pop_front() {
                return Some(job);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(deque, Duration::from_millis(50))
                .expect("job queue lock poisoned");
            deque = guard;
        }
    }

    /// Closes the queue: workers drain what is left and exit.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.ready.notify_all();
    }
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Unconsumed read bytes (a framed request is sliced off the front).
    buf: Vec<u8>,
    /// Framed requests awaiting dispatch, with their `Connection: close`
    /// flags (only the front one can be in flight).
    pending: VecDeque<Vec<u8>>,
    /// A job from this connection sits in the queue or a worker.
    inflight: bool,
    /// Serialized responses not yet written to the socket.
    outbox: Vec<u8>,
    out_pos: usize,
    /// Requests framed over the connection's lifetime (cap accounting).
    framed: u64,
    /// Responses rendered over the lifetime (per-connection histogram).
    responded: u64,
    /// No more requests will be framed: cap reached, framing error,
    /// drain, or peer EOF with no complete request left in `buf`.
    stop_reading: bool,
    /// The peer finished sending: the socket is not read again, but
    /// complete requests still in `buf` are framed and answered.
    peer_eof: bool,
    /// The response that ends the connection has been rendered; close
    /// once the outbox flushes.
    close_after_flush: bool,
    /// A framing error to report once earlier responses have flushed
    /// (pipelined responses must stay in order).
    pending_error: Option<Response>,
    /// `Some(deadline)` once `shutdown(Write)` was sent: reads are
    /// discarded until EOF or the deadline, then the socket drops.
    lingering: Option<Instant>,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            pending: VecDeque::new(),
            inflight: false,
            outbox: Vec::new(),
            out_pos: 0,
            framed: 0,
            responded: 0,
            stop_reading: false,
            peer_eof: false,
            close_after_flush: false,
            pending_error: None,
            lingering: None,
            last_activity: now,
        }
    }

    fn has_unflushed_output(&self) -> bool {
        self.out_pos < self.outbox.len()
    }

    /// Nothing queued, in flight, or unflushed — safe to close without
    /// losing a response.
    fn is_quiet(&self) -> bool {
        self.pending.is_empty()
            && !self.inflight
            && !self.has_unflushed_output()
            && self.pending_error.is_none()
    }
}

/// Everything the loop needs, borrowed from [`Server::run`].
pub(crate) struct EventLoop<'a> {
    pub listener: &'a TcpListener,
    pub state: &'a ServerState,
    pub config: &'a ServeConfig,
    pub jobs: &'a Arc<JobQueue>,
    pub completions: &'a Receiver<Completion>,
    /// Read side of the worker → loop wake-up socket pair.
    pub wake_rx: &'a WakeStream,
    /// Observed in addition to `state.drain` (signal handlers).
    pub signal_drain: &'a AtomicBool,
}

impl EventLoop<'_> {
    /// Runs until drain completes. Returns the number of connections
    /// accepted over the lifetime.
    pub(crate) fn run(self) -> std::io::Result<u64> {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id: u64 = 0;
        let mut accepted: u64 = 0;
        let mut draining = false;
        let mut chunk = [0u8; READ_CHUNK];
        // Rebuilt every tick: [wake] [listener?] [conns...].
        let mut fds: Vec<PollFd> = Vec::new();
        let mut fd_ids: Vec<u64> = Vec::new();
        let idle_timeout = Duration::from_millis(self.config.idle_timeout_ms.max(1));

        loop {
            // Drain is observed at the top of every iteration so a
            // token fired by a worker (`POST /shutdown`) or a signal
            // takes effect within one poll round-trip.
            if !draining
                && (self.state.drain.is_cancelled() || self.signal_drain.load(Ordering::Relaxed))
            {
                self.state.drain.cancel();
                draining = true;
                // Idle keep-alive connections get closed outright; busy
                // ones finish their queued requests (whose budgets see
                // the token) and close after the final flush.
                let idle: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| c.is_quiet() || c.lingering.is_some())
                    .map(|(&id, _)| id)
                    .collect();
                for id in idle {
                    self.remove(&mut conns, id);
                }
                for conn in conns.values_mut() {
                    conn.stop_reading = true;
                }
            }
            if draining && conns.is_empty() {
                return Ok(accepted);
            }

            // Build the poll set.
            fds.clear();
            fd_ids.clear();
            fds.push(PollFd { fd: raw_fd(self.wake_rx), events: POLLIN, revents: 0 });
            let listening = !draining && conns.len() < self.config.max_connections;
            if listening {
                fds.push(PollFd { fd: raw_fd(self.listener), events: POLLIN, revents: 0 });
            }
            for (&id, conn) in &conns {
                let mut events = 0i16;
                // `pump` frames until `pending` is full or `buf` holds no
                // complete request, so a short `pending` means the socket
                // is the only source of the next request.
                if conn.lingering.is_some()
                    || (!conn.stop_reading && !conn.peer_eof && conn.pending.len() < PIPELINE_MAX)
                {
                    events |= POLLIN;
                }
                if conn.has_unflushed_output() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd { fd: raw_fd(&conn.stream), events, revents: 0 });
                    fd_ids.push(id);
                }
            }

            poll(&mut fds, POLL_TICK_MS)?;
            let now = Instant::now();

            // Consume wake-up bytes (their only content is "look at the
            // completion channel").
            if fds[0].revents & READABLE != 0 {
                drain_wake(self.wake_rx, &mut chunk);
            }

            // Apply completed responses before touching sockets, so a
            // response and the next pipelined request coalesce into one
            // write where possible.
            while let Ok(done) = self.completions.try_recv() {
                let Some(conn) = conns.get_mut(&done.conn_id) else {
                    continue; // connection died while the job ran
                };
                conn.inflight = false;
                self.render(conn, &done.response, done.close, draining);
                self.pump(done.conn_id, conn, draining);
                if !self.flush(conn, now) {
                    self.remove(&mut conns, done.conn_id);
                }
            }

            // Accept every connection the backlog holds.
            if listening && fds[1].revents & READABLE != 0 {
                loop {
                    if conns.len() >= self.config.max_connections {
                        break; // resumes when a slot frees up
                    }
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            accepted += 1;
                            self.state
                                .metrics
                                .http_connections_total
                                .fetch_add(1, Ordering::Relaxed);
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            next_id += 1;
                            conns.insert(next_id, Conn::new(stream, now));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if crate::server::is_transient_accept_error(&e) => break,
                        Err(e) => {
                            // Fatal listener error: surface it; the
                            // caller closes the job queue so workers
                            // exit instead of deadlocking the join.
                            return Err(e);
                        }
                    }
                }
            }

            // Socket I/O for every ready connection.
            let conn_fds_start = if listening { 2 } else { 1 };
            for (slot, &id) in fd_ids.iter().enumerate() {
                let revents = fds[conn_fds_start + slot].revents;
                if revents == 0 {
                    continue;
                }
                let Some(conn) = conns.get_mut(&id) else { continue };
                let mut keep = true;
                if revents & READABLE != 0 {
                    keep = self.read_socket(conn, &mut chunk, now);
                    if keep {
                        self.pump(id, conn, draining);
                    }
                }
                // Flush eagerly whenever output exists (covers both a
                // POLLOUT wake-up and responses rendered just above —
                // sockets are writable in the common case, so waiting
                // for the next tick would only add latency).
                if keep && conn.has_unflushed_output() {
                    keep = self.flush(conn, now);
                }
                if !keep {
                    self.remove(&mut conns, id);
                }
            }

            // Sweeps: linger deadlines and idle/slow-loris timeouts.
            let expired: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| match c.lingering {
                    Some(deadline) => now >= deadline,
                    None => false,
                })
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                self.remove(&mut conns, id);
            }
            let idle: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    c.lingering.is_none()
                        && c.is_quiet()
                        && now.duration_since(c.last_activity) >= idle_timeout
                })
                .map(|(&id, _)| id)
                .collect();
            for id in idle {
                self.state.metrics.http_idle_closed_total.fetch_add(1, Ordering::Relaxed);
                self.remove(&mut conns, id);
            }
        }
    }

    /// Closes a connection and records its per-connection stats.
    fn remove(&self, conns: &mut HashMap<u64, Conn>, id: u64) {
        if let Some(conn) = conns.remove(&id) {
            self.state.metrics.requests_per_connection.observe(conn.responded);
            // An inflight job's completion finds no connection and is
            // dropped; nothing leaks.
        }
    }

    /// Reads everything the socket has into the connection buffer.
    /// Returns `false` when the connection must close immediately (hard
    /// error, or EOF with nothing left to answer).
    fn read_socket(&self, conn: &mut Conn, chunk: &mut [u8], now: Instant) -> bool {
        let mut saw_eof = false;
        loop {
            match conn.stream.read(chunk) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = now;
                    if conn.lingering.is_none() && !conn.stop_reading {
                        conn.buf.extend_from_slice(&chunk[..n]);
                    }
                    // Lingering/stopped connections discard input: the
                    // peer is flushing bytes we will never answer.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }

        if conn.lingering.is_some() {
            // Only EOF (or the deadline sweep) ends a lingering socket.
            return !saw_eof;
        }
        if saw_eof {
            // Peer finished sending (maybe after pipelining several
            // requests): answer what is buffered, then close.
            conn.peer_eof = true;
            self.frame(conn);
            if conn.is_quiet() {
                return false;
            }
        }
        true
    }

    /// Frames complete requests off the buffer front until `pending`
    /// is full or the buffer holds none. Called before and after every
    /// dispatch, so requests buffered past `PIPELINE_MAX` are framed
    /// as their predecessors complete, whether or not the socket reads
    /// again.
    fn frame(&self, conn: &mut Conn) {
        let mut offset = 0;
        let mut exhausted = false;
        while !conn.stop_reading && conn.pending.len() < PIPELINE_MAX {
            match parse_request(&conn.buf[offset..]) {
                Ok(Parsed::Complete { request: _, consumed }) => {
                    conn.framed += 1;
                    let raw = if offset == 0 && consumed == conn.buf.len() {
                        // Fast path: the buffer is exactly one request —
                        // hand it over whole, no copy.
                        std::mem::take(&mut conn.buf)
                    } else {
                        conn.buf[offset..offset + consumed].to_vec()
                    };
                    if !conn.buf.is_empty() {
                        offset += consumed;
                    }
                    conn.pending.push_back(raw);
                    if conn.framed >= self.config.max_requests_per_conn {
                        // Cap reached: the final response closes the
                        // connection (rendered with `close` once
                        // `pending` drains).
                        conn.stop_reading = true;
                    }
                }
                Ok(Parsed::Partial) => {
                    exhausted = true;
                    break;
                }
                Err(err) => {
                    conn.pending_error = Some(match err {
                        HttpError::TooLarge => {
                            Response::json(400, r#"{"error":"request too large"}"#)
                        }
                        HttpError::Malformed(what) => Response::json(
                            400,
                            format!(r#"{{"error":"malformed request: {what}"}}"#),
                        ),
                        // Framing reads no socket; answered as a
                        // worker answers it.
                        HttpError::Io(_) => Response::json(400, r#"{"error":"malformed request"}"#),
                    });
                    conn.stop_reading = true;
                    break;
                }
            }
        }
        if offset > 0 {
            conn.buf.drain(..offset);
        }
        if conn.peer_eof && (exhausted || conn.buf.is_empty()) {
            // Nothing more can arrive to complete what is left.
            conn.stop_reading = true;
        }
    }

    /// Frames what the buffer holds, dispatches this connection's next
    /// pending request (admission control included) and, once nothing
    /// is left, the deferred framing error.
    fn pump(&self, conn_id: u64, conn: &mut Conn, draining: bool) {
        loop {
            self.frame(conn);
            if conn.inflight {
                break;
            }
            let Some(raw) = conn.pending.pop_front() else {
                if let Some(err) = conn.pending_error.take() {
                    self.render(conn, &err, true, draining);
                }
                break;
            };
            match self.jobs.try_push(Job { conn_id, raw }) {
                Ok(()) => {
                    Metrics::gauge_inc(&self.state.metrics.queue_depth);
                    conn.inflight = true;
                }
                Err(job) => {
                    // Admission control: the queue is full, so this
                    // request is turned away right here — no worker
                    // time, no unbounded buffering. The connection may
                    // stay open; the *next* pipelined request is tried
                    // against the then-current queue.
                    self.state.metrics.rejected_total.fetch_add(1, Ordering::Relaxed);
                    let request_close = match parse_request(&job.raw) {
                        Ok(Parsed::Complete { request, .. }) => request.close,
                        _ => true,
                    };
                    let response = Response::json(503, r#"{"error":"server saturated"}"#)
                        .with_header("retry-after", "1");
                    self.render(conn, &response, request_close, draining);
                }
            }
        }
    }

    /// Serializes a response into the outbox, deciding keep-alive vs
    /// close: the request asked (`Connection: close`), the server is
    /// draining, or this is the connection's final answer (request cap,
    /// peer EOF, or framing error).
    fn render(&self, conn: &mut Conn, response: &Response, request_close: bool, draining: bool) {
        let last = conn.stop_reading
            && conn.pending.is_empty()
            && !conn.inflight
            && conn.pending_error.is_none();
        let close = request_close || draining || last;
        conn.responded += 1;
        response.render_into(&mut conn.outbox, close);
        conn.close_after_flush |= close;
    }

    /// Writes as much outbox as the socket accepts. Returns `false`
    /// when the connection died; on a complete flush of a closing
    /// connection, transitions to lingering.
    fn flush(&self, conn: &mut Conn, now: Instant) -> bool {
        while conn.has_unflushed_output() {
            match (&conn.stream).write(&conn.outbox[conn.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        conn.outbox.clear();
        // Keep the allocation for the next response, but do not let one
        // outsized answer (a certificate-laden batch, say) pin its peak
        // capacity for the connection's whole keep-alive lifetime.
        if conn.outbox.capacity() > OUTBOX_RETAIN_MAX {
            conn.outbox.shrink_to(OUTBOX_RETAIN_MAX);
        }
        conn.out_pos = 0;
        if conn.close_after_flush && conn.lingering.is_none() {
            // Half-close and wait briefly for the peer's FIN; closing
            // outright with unread bytes pending would RST the line and
            // could destroy the response we just wrote.
            let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            conn.lingering = Some(now + LINGER);
            conn.stop_reading = true;
            conn.buf.clear();
        }
        true
    }
}

/// Reads the pending wake-up bytes, stopping at the first short read:
/// a read that did not fill `chunk` emptied the socket as it stood, so
/// a further read would only return `WouldBlock`. A byte written after
/// that read keeps the socket readable, and the next (level-triggered)
/// `poll` reports it.
fn drain_wake(wake_rx: &WakeStream, chunk: &mut [u8]) {
    loop {
        match (&*wake_rx).read(chunk) {
            Ok(n) if n == chunk.len() => continue,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{wake_pair, Server};
    use std::io::Write;
    use std::net::SocketAddr;

    /// Does `poll` report the wake socket readable within `timeout_ms`?
    fn readable(rx: &WakeStream, timeout_ms: i32) -> bool {
        let mut set = [PollFd { fd: raw_fd(rx), events: POLLIN, revents: 0 }];
        poll(&mut set, timeout_ms).unwrap() > 0 && set[0].revents & READABLE != 0
    }

    // The portable `poll` reports every socket ready, so only the
    // syscall shim can show a socket empty.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn a_wake_after_a_short_drain_read_is_seen_by_the_next_poll() {
        let (rx, tx) = wake_pair().unwrap();
        let mut chunk = [0u8; 4];
        assert!(!readable(&rx, 0));
        for pending in [3, 4, 8, 10] {
            (&tx).write_all(&vec![1u8; pending]).unwrap();
            assert!(readable(&rx, 1000), "{pending} bytes pending");
            // Full reads go on, the first short (or empty) read stops.
            drain_wake(&rx, &mut chunk);
            assert!(!readable(&rx, 0), "the drain left bytes of {pending}");
            // A byte written after that read keeps the socket readable
            // for the next round.
            (&tx).write_all(&[1]).unwrap();
            assert!(readable(&rx, 1000), "the late byte after {pending} was lost");
            drain_wake(&rx, &mut chunk);
        }
    }

    /// Two repairs, one optimal and one improvable, under eight names.
    const WS: &str = "relation R/2\nfd R: 1 -> 2\nfact R(k, x)\nfact R(k, y)\n\
                      prefer R(k, x) > R(k, y)\nrepair J0: R(k, x)\nrepair J1: R(k, y)\n\
                      repair J2: R(k, x)\nrepair J3: R(k, y)\nrepair J4: R(k, x)\n\
                      repair J5: R(k, y)\nrepair J6: R(k, x)\nrepair J7: R(k, y)\n";

    fn check_request(repair: usize, close: bool) -> Vec<u8> {
        let workspace = crate::json::Json::str(WS).render();
        let body = format!(r#"{{"workspace":{workspace},"repairs":["J{repair}"]}}"#);
        let connection = if close { "close" } else { "keep-alive" };
        let head = format!(
            "POST /check HTTP/1.1\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
            body.len()
        );
        [head.into_bytes(), body.into_bytes()].concat()
    }

    /// Splits a stream of `Content-Length`-framed responses into
    /// `(status, body)` pairs.
    fn responses(mut raw: &[u8]) -> Vec<(u16, String)> {
        let mut out = Vec::new();
        while !raw.is_empty() {
            let end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("header end") + 4;
            let head = std::str::from_utf8(&raw[..end]).unwrap();
            let status = head[9..12].parse().unwrap();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length: "))
                .and_then(|v| v.trim().parse().ok())
                .expect("content-length");
            out.push((status, String::from_utf8(raw[end..end + length].to_vec()).unwrap()));
            raw = &raw[end + length..];
        }
        out
    }

    /// Pipelines `count` checks on a fresh connection and returns the
    /// responses in arrival order. The last request asks to close, or
    /// with `half_close` the client shuts its sending side instead.
    fn pipelined_burst(
        addr: SocketAddr,
        first: usize,
        count: usize,
        half_close: bool,
    ) -> Vec<(u16, String)> {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let requests: Vec<u8> = (0..count)
            .flat_map(|i| check_request((first + i) % 8, !half_close && i + 1 == count))
            .collect();
        // Written from another thread, so responses flow back while
        // later requests are still going out.
        let sender = std::thread::spawn(move || {
            writer.write_all(&requests).unwrap();
            if half_close {
                writer.shutdown(std::net::Shutdown::Write).unwrap();
            }
        });
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        sender.join().unwrap();
        responses(&raw)
    }

    /// A 240-request pipelined burst on one connection plus three
    /// concurrent bursts, under `jobs` workers. Two bursts outrun the
    /// per-connection pipeline bound, one of them ending in the peer's
    /// EOF rather than `Connection: close`.
    fn burst(jobs: usize) {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: Some(jobs),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let token = server.drain_token();
        let running = std::thread::spawn(move || server.run().unwrap());
        // The one cold build; every burst request is a cache hit.
        assert_eq!(pipelined_burst(addr, 0, 1, false)[0].0, 200);

        let bursts = [(0, 240, false), (1, 100, true), (2, 40, false), (3, 40, true)];
        let start = Instant::now();
        let clients: Vec<_> = bursts
            .iter()
            .map(|&(first, count, half_close)| {
                std::thread::spawn(move || pipelined_burst(addr, first, count, half_close))
            })
            .collect();
        for (client, (first, count, _)) in clients.into_iter().zip(bursts) {
            let got = client.join().unwrap();
            assert_eq!(got.len(), count, "jobs {jobs}: a burst lost responses");
            for (i, (status, body)) in got.iter().enumerate() {
                assert_eq!(*status, 200, "{body}");
                let repair = format!(r#""repair":"J{}""#, (first + i) % 8);
                assert!(body.contains(&repair), "jobs {jobs}: response {i} out of order: {body}");
            }
        }
        let elapsed = start.elapsed();
        let total: usize = bursts.iter().map(|&(_, count, _)| count).sum();
        // A completion stranded until the poll tick costs a whole tick;
        // the burst must finish far below one tick per request.
        let bound = Duration::from_millis(total as u64 * POLL_TICK_MS as u64 / 10);
        assert!(
            elapsed < bound,
            "jobs {jobs}: {total} requests took {elapsed:?} (bound {bound:?})"
        );

        let (status, text) = crate::http::client_call(&addr.to_string(), "GET", "/metrics", b"")
            .expect("metrics scrape");
        assert_eq!(status, 200);
        // The warmup, every burst request, and the scrape itself.
        let text = String::from_utf8(text).unwrap();
        let expected = format!("rpr_requests_total {}\n", total + 2);
        assert!(text.contains(&expected), "jobs {jobs}: want {expected} in\n{text}");
        token.cancel();
        running.join().unwrap();
    }

    #[test]
    fn pipelined_bursts_come_back_whole_in_order_and_without_tick_stalls() {
        for jobs in [2, 4] {
            burst(jobs);
        }
    }
}
