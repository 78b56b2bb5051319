//! The end-to-end run: a release `rpr serve --jobs 1` driven by one
//! closed-loop client over one keep-alive connection.

use crate::check::verify;
use crate::client::{scrape, Client, Server};
use crate::gen::{Class, Req, Workload};
use crate::{median, quantile, Metric, Report};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Delta probe rounds after each slice (hit workloads).
const PROBE_ROUNDS: usize = 4;
/// Calibration windows per one-second slice. The host's speed is taken
/// as constant within a window.
const WINDOWS_PER_SLICE: u32 = 4;
/// How often the client times the calibration workload within a window.
const CALIBRATE_EVERY: Duration = Duration::from_millis(10);
/// The calibration: `stat` calls on a file of the checkout, resolved
/// from the repository root.
const CALIBRATION_PATH: &str = "perfbench/Cargo.toml";
const CALIBRATION_CALLS: usize = 50;
/// The calibration's time on the reference host, in µs (about its
/// median on a 2-vCPU Xeon VM). Every time is reported as it would read
/// on that host: scaled by this ÷ its window's median calibration time.
const REFERENCE_US: f64 = 50.0;

/// Times one calibration, in µs: a host-speed signal the program under
/// test does not produce. In the host's slow phases a CPU loop over an
/// L1-sized buffer stays flat while requests slow by up to 1.7x; of the
/// probes tried (CPU loops over L1- to LLC-sized buffers, allocation and
/// hashing, thread ping-pong, `getpid`, path lookups), path lookups
/// tracked request latency best on every workload.
fn calibrate() -> f64 {
    let t = Instant::now();
    for _ in 0..CALIBRATION_CALLS {
        let _ = std::hint::black_box(std::fs::metadata(CALIBRATION_PATH));
    }
    t.elapsed().as_secs_f64() * 1e6
}

/// One calibration window: a quarter second of the measured stream, or
/// a side window holding one set-up and the delta probe before it.
#[derive(Default)]
struct Window {
    calibrations: Vec<f64>,
    /// Seconds spent on stream requests (calibration excluded; 0 in a
    /// side window).
    busy: f64,
    correct: u64,
}

/// One timed request: the calibration window it ran in, its class and
/// its latency.
struct Sample {
    window: usize,
    class: Class,
    latency: Duration,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    hits: u64,
    misses: u64,
    certificates: u64,
    delta_ops: u64,
    samples: Vec<Sample>,
}

impl Tally {
    /// Sends `req`, checks the answer, and files the sample; returns
    /// whether the answer was correct.
    fn send(&mut self, client: &mut Client, req: &Req, window: usize) -> bool {
        self.attempted += 1;
        let t = Instant::now();
        let result = client.send(&req.raw);
        let latency = t.elapsed();
        let outcome = match result {
            Ok((status, body)) => verify(req, status, &body),
            Err(e) => Err(format!("transport: {e}")),
        };
        self.samples.push(Sample { window, class: req.class, latency });
        match outcome {
            Ok(seen) => {
                match seen.cached {
                    Some(true) => self.hits += 1,
                    Some(false) => self.misses += 1,
                    None => {}
                }
                self.certificates += seen.certificates;
                self.delta_ops += seen.delta_ops;
                true
            }
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: {:?} {} failed: {e}", req.class, req.path);
                }
                false
            }
        }
    }

    /// Sorted scaled latencies (ms) of the samples `keep` selects.
    fn latencies(&self, scale: &[f64], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.latency.as_secs_f64() * 1e3 * scale[s.window])
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// Spawns a server and replays the warm-up, filing the warm-up's
/// samples under `window`; returns the server, its connection, and the
/// set-up time in seconds.
fn set_up(
    rpr: &Path,
    w: &Workload,
    window: usize,
    tally: &mut Tally,
) -> Result<(Server, Client, f64), String> {
    let t = Instant::now();
    let server = Server::spawn(rpr, &w.serve_args()).map_err(io)?;
    let mut client = Client::connect(&server.addr).map_err(io)?;
    let (status, _) = client.get("/healthz").map_err(io)?;
    if status != 200 {
        return Err(format!("/healthz answered {status}"));
    }
    for req in &w.warmup {
        tally.send(&mut client, req, window);
    }
    Ok((server, client, t.elapsed().as_secs_f64()))
}

/// Counter deltas between two scrapes.
fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, key: &str) -> u64 {
    (after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)) as u64
}

/// Exact `/metrics` reconciliation of a window in which the client was
/// the server's only peer and sent `tally`'s requests between the two
/// scrapes (the closing scrape counts itself).
fn reconcile(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    tally: &Tally,
) -> Vec<String> {
    let mut bad = Vec::new();
    for (key, want) in [
        ("rpr_requests_total", tally.attempted + 1),
        ("rpr_cache_hits_total", tally.hits),
        ("rpr_cache_misses_total", tally.misses),
        ("rpr_delta_ops_total", tally.delta_ops),
        ("rpr_certificates_issued_total", tally.certificates),
    ] {
        let got = delta(before, after, key);
        if got != want {
            bad.push(format!("{key} moved by {got}, client counted {want}"));
        }
    }
    if after.get("rpr_audit_failures_total").copied().unwrap_or(0.0) != 0.0 {
        bad.push("rpr_audit_failures_total is not 0".to_owned());
    }
    bad
}

/// The run: `seconds` one-second slices of stream traffic against the
/// first set-up's server. After each slice run the delta probe (hit
/// workloads) and another set-up, on a server of its own. The host's
/// speed swings about twofold in phases of seconds to minutes, so every
/// time is scaled to the reference host by the calibration of the window
/// it ran in, and every figure is taken over all windows. Set-ups and
/// probes run in side windows, calibrated before each request and after
/// the set-up.
pub fn run(w: &Workload, rpr: &Path, seconds: u64) -> Result<Report, String> {
    std::fs::metadata(CALIBRATION_PATH).map_err(|e| format!("{CALIBRATION_PATH}: {e}"))?;
    let mut setups = Tally::default();
    let mut setup_times = vec![];
    let mut windows = vec![Window::default()];
    windows[0].calibrations.push(calibrate());
    let (server, mut client, first) = set_up(rpr, w, 0, &mut setups)?;
    windows[0].calibrations.push(calibrate());
    setup_times.push((0, first));

    let before = scrape(&mut client).map_err(io)?;
    let mut tally = Tally::default();
    let mut next = 0;
    for _ in 0..seconds {
        for _ in 0..WINDOWS_PER_SLICE {
            let index = windows.len();
            let mut window = Window::default();
            let started = Instant::now();
            let end = started + Duration::from_secs(1) / WINDOWS_PER_SLICE;
            let mut next_calibration = started;
            while Instant::now() < end {
                if Instant::now() >= next_calibration {
                    window.calibrations.push(calibrate());
                    next_calibration += CALIBRATE_EVERY;
                }
                let req = &w.stream[next];
                next = (next + 1) % w.stream.len();
                window.correct += u64::from(tally.send(&mut client, req, index));
            }
            window.busy = started.elapsed().as_secs_f64()
                - window.calibrations.iter().sum::<f64>() * 1e-6;
            windows.push(window);
        }
        let index = windows.len();
        let mut side = Window::default();
        for _ in 0..PROBE_ROUNDS * usize::from(!w.probe.is_empty()) {
            for req in &w.probe {
                side.calibrations.push(calibrate());
                tally.send(&mut client, req, index);
            }
        }
        side.calibrations.push(calibrate());
        let (extra, extra_client, t) = set_up(rpr, w, index, &mut setups)?;
        side.calibrations.push(calibrate());
        setup_times.push((index, t));
        windows.push(side);
        drop(extra_client);
        extra.stop().map_err(io)?;
    }
    let after = scrape(&mut client).map_err(io)?;
    let mismatches = reconcile(&before, &after, &tally);
    print_counts(&after);
    let peak_rss_mb = server.peak_rss_mb().ok_or("cannot read VmHWM")?;
    drop(client);
    server.stop().map_err(io)?;

    let mut host: Vec<f64> = windows.iter_mut().map(|w| median(&mut w.calibrations)).collect();
    let scale: Vec<f64> = host.iter().map(|c| REFERENCE_US / c).collect();

    for m in &mismatches {
        eprintln!("perfbench: reconciliation MISMATCH: {m}");
    }
    // Per slice: its stream windows, then its side window.
    let per_slice = WINDOWS_PER_SLICE as usize + 1;
    let rates: Vec<u64> = windows[1..]
        .chunks(per_slice)
        .map(|s| {
            let (busy, correct) = s.iter().fold((0.0, 0), |(b, c), w| (b + w.busy, c + w.correct));
            (correct as f64 / busy).round() as u64
        })
        .collect();
    println!("perfbench: stream requests per second, by slice: {rates:?}");
    let host_us: Vec<u64> = host[1..]
        .chunks_mut(per_slice)
        .map(|s| median(&mut s[..per_slice - 1]).round() as u64)
        .collect();
    println!("perfbench: median calibration time (µs), by slice: {host_us:?}");
    println!("perfbench: shards per uploaded workspace: {:?}", w.shards);
    println!(
        "perfbench: available parallelism {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "perfbench: {} requests to the measured server ({} hits, {} misses, {} certificates, \
         {} delta ops), {} failed; reconciled: {}",
        tally.attempted,
        tally.hits,
        tally.misses,
        tally.certificates,
        tally.delta_ops,
        tally.failed,
        mismatches.is_empty()
    );
    for class in [Class::Hit, Class::Cold, Class::Delta, Class::Plain, Class::Certify, Class::Trip]
    {
        let v = tally.latencies(&scale, |s| s.class == class);
        if !v.is_empty() {
            println!(
                "perfbench:   {class:?}: {} requests, scaled p50 {:.3} ms, p99 {:.3} ms",
                v.len(),
                quantile(&v, 0.5),
                quantile(&v, 0.99)
            );
        }
    }

    let busy: f64 = windows.iter().zip(&scale).map(|(w, s)| w.busy * s).sum();
    let correct: u64 = windows.iter().map(|w| w.correct).sum();
    let stream_classes: Vec<Class> = w.stream.iter().map(|r| r.class).collect();
    let lat = tally.latencies(&scale, |s| stream_classes.contains(&s.class));
    // The 99th percentile is printed, not reported: on a shared 2-vCPU
    // host it spreads by a quarter or more between runs of one program.
    println!("perfbench: {} stream requests, scaled p99 {:.3} ms", lat.len(), quantile(&lat, 0.99));
    // Misses: the stream's cold checks, or (hit workloads) the set-ups'
    // uploads. Deltas: the stream's, or the delta probe's.
    let misses = if w.probe.is_empty() {
        tally.latencies(&scale, |s| s.class == Class::Cold)
    } else {
        setups.latencies(&scale, |s| s.class == Class::Cold)
    };
    let deltas = tally.latencies(&scale, |s| s.class == Class::Delta);
    let mut setup_s: Vec<f64> = setup_times.iter().map(|&(k, t)| t * scale[k]).collect();
    let failed = tally.failed + setups.failed;
    let metrics = vec![
        Metric::new("goodput_rps", correct as f64 / busy, "1/s"),
        Metric::new("latency_p50_ms", quantile(&lat, 0.50), "ms"),
        Metric::new("latency_p90_ms", quantile(&lat, 0.90), "ms"),
        Metric::new("setup_s", median(&mut setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        Metric::new("miss_p50_ms", quantile(&misses, 0.50), "ms"),
        Metric::new("delta_p50_ms", quantile(&deltas, 0.50), "ms"),
    ];
    Ok(Report {
        correct: failed == 0 && mismatches.is_empty(),
        attempted: tally.attempted + setups.attempted,
        failed,
        metrics,
    })
}

/// Prints the count-type layer figures `/metrics` exposes.
fn print_counts(m: &BTreeMap<String, f64>) {
    let keys = [
        "rpr_cache_hits_total",
        "rpr_cache_misses_total",
        "rpr_cache_evictions_total",
        "rpr_session_components",
        "rpr_shard_hits_total",
        "rpr_shard_store_entries",
        "rpr_shard_evictions_total",
        "rpr_shard_store_bytes",
        "rpr_delta_ops_total",
        "rpr_component_skips_total",
        "rpr_certificates_issued_total",
        "rpr_exceeded_total",
        "rpr_audit_failures_total",
    ];
    let line: Vec<String> =
        keys.iter().map(|k| format!("{k}={}", m.get(*k).copied().unwrap_or(0.0))).collect();
    println!("perfbench: server counts: {}", line.join(" "));
}
