//! The load side: one keep-alive HTTP/1.1 connection, and the spawned
//! `rpr serve` process it talks to.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A closed-loop client over one persistent connection: write a
/// pre-rendered request, read its `Content-Length`-framed response.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client { stream, buf: Vec::with_capacity(1 << 16) })
    }

    /// Sends `raw` (a complete request) and returns `(status, body)`.
    pub fn send(&mut self, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(raw)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("content-length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        Ok((status, self.buf[head_end..head_end + len].to_vec()))
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
        self.send(format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n").as_bytes())
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let start = self.buf.len();
        self.buf.resize(start + (1 << 16), 0);
        let n = self.stream.read(&mut self.buf[start..]);
        self.buf.truncate(start + *n.as_ref().unwrap_or(&0));
        match n? {
            0 => Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")),
            _ => Ok(()),
        }
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("malformed response {what}"))
}

/// Scrapes `/metrics` into `name → value` (unlabelled samples only).
pub fn scrape(client: &mut Client) -> std::io::Result<BTreeMap<String, f64>> {
    let (status, body) = client.get("/metrics")?;
    if status != 200 {
        return Err(bad("status from /metrics"));
    }
    Ok(String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_owned(), v.trim().parse().ok()?))
        })
        .collect())
}

/// A running `rpr serve` child. Dropping it kills and reaps the
/// process; [`Server::stop`] drains it gracefully first.
pub struct Server {
    child: Child,
    // Held open until the child exits: it prints a farewell line.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns `rpr <args>` and waits for its `listening on` line.
    pub fn spawn(rpr: &Path, args: &[String]) -> std::io::Result<Server> {
        let mut child = Command::new(rpr)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line.trim().rsplit("http://").next().unwrap_or("").to_owned();
        let server = Server { child, _stdout: stdout, addr };
        if !line.contains("listening on http://") {
            return Err(std::io::Error::other(format!("rpr serve did not start: {line:?}")));
        }
        Ok(server)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// `POST /shutdown`, then waits (bounded) for the process to exit.
    pub fn stop(mut self) -> std::io::Result<()> {
        let sent = Client::connect(&self.addr).and_then(|mut c| {
            c.send(b"POST /shutdown HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\nconnection: close\r\n\r\n")
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while sent.is_ok() && Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(std::io::Error::other("rpr serve did not drain; killed"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
