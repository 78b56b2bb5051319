//! The service's metrics registry: atomic counters, gauges, and
//! fixed-bucket latency histograms, exported in Prometheus text
//! exposition format from `GET /metrics`.
//!
//! Everything is lock-free (`AtomicU64` with relaxed ordering —
//! metrics tolerate torn cross-counter reads) and allocation-free on
//! the hot path; rendering allocates, but only the scrape pays for it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (microseconds) of the latency histogram buckets, 1-2-5
/// per decade from 20 µs to 5 s, rendered in seconds; the implicit last
/// bucket is `+Inf`. The low end resolves the sub-millisecond hot path
/// (a cache hit).
pub const LATENCY_BUCKETS_US: [u64; 17] = [
    20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000,
];

/// A fixed-bucket latency histogram.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation, in the first bucket whose bound it does
    /// not exceed (compared untruncated: 1.9 ms lands under
    /// `le="0.002"`).
    pub fn observe(&self, latency: Duration) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| latency <= Duration::from_micros(b))
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Renders the histogram in Prometheus exposition format.
    fn render(&self, name: &str, out: &mut String) {
        writeln_type(out, name, "histogram");
        let mut cumulative = 0u64;
        for (i, &bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let seconds = bound as f64 / 1e6;
            out.push_str(&format!("{name}_bucket{{le=\"{seconds}\"}} {cumulative}\n"));
        }
        cumulative += self.buckets[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!(
            "{name}_sum {:.6}\n{name}_count {}\n",
            self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6,
            self.count.load(Ordering::Relaxed),
        ));
    }
}

fn writeln_type(out: &mut String, name: &str, kind: &str) {
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

/// Upper bounds of the requests-per-connection histogram buckets; the
/// implicit last bucket is `+Inf`. A connection landing in the `1`
/// bucket got no keep-alive benefit; healthy keep-alive traffic lands
/// far to the right.
pub const PER_CONN_BUCKETS: [u64; 9] = [1, 2, 5, 10, 25, 50, 100, 250, 1000];

/// A fixed-bucket histogram over dimensionless counts (requests served
/// per connection), as opposed to [`Histogram`]'s latencies.
#[derive(Default)]
pub struct CountHistogram {
    buckets: [AtomicU64; PER_CONN_BUCKETS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl CountHistogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx =
            PER_CONN_BUCKETS.iter().position(|&b| value <= b).unwrap_or(PER_CONN_BUCKETS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Renders the histogram in Prometheus exposition format.
    fn render(&self, name: &str, out: &mut String) {
        writeln_type(out, name, "histogram");
        let mut cumulative = 0u64;
        for (i, bound) in PER_CONN_BUCKETS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
        }
        cumulative += self.buckets[PER_CONN_BUCKETS.len()].load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!(
            "{name}_sum {}\n{name}_count {}\n",
            self.sum.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
        ));
    }
}

macro_rules! counters {
    ($(#[$doc:meta] $field:ident => $metric:literal,)+) => {
        /// The service-wide metrics registry. One instance lives in the
        /// server and is shared (by reference) with every worker.
        #[derive(Default)]
        pub struct Metrics {
            $(#[$doc] pub $field: AtomicU64,)+
            /// Requests currently queued for admission (gauge).
            pub queue_depth: AtomicU64,
            /// Requests currently being handled by workers (gauge).
            pub in_flight: AtomicU64,
            /// Actual resident bytes of the session tier: per-session
            /// private bytes plus shared shard-store bytes, each shard
            /// counted once however many sessions reference it (gauge;
            /// synced from the cache and store at scrape time).
            pub session_cache_bytes: AtomicU64,
            /// Shards resident in the content-addressed shard store
            /// (gauge; synced at scrape time).
            pub shard_store_entries: AtomicU64,
            /// Estimated resident bytes of the shard store, each shard
            /// counted once (gauge; synced at scrape time).
            pub shard_store_bytes: AtomicU64,
            /// Nontrivial conflict components (session shards) of the
            /// most recently prepared or patched session (gauge).
            pub session_components: AtomicU64,
            /// Latency of completed `/check` requests.
            pub check_latency: Histogram,
            /// Latency of completed `/classify` requests.
            pub classify_latency: Histogram,
            /// Latency of completed `/cqa` requests.
            pub cqa_latency: Histogram,
            /// Latency of completed `/delta` requests.
            pub delta_latency: Histogram,
            /// Requests served per connection, observed at connection
            /// close (histogram; keep-alive efficacy).
            pub requests_per_connection: CountHistogram,
        }

        impl Metrics {
            fn render_counters(&self, out: &mut String) {
                $(
                    writeln_type(out, $metric, "counter");
                    out.push_str(&format!(
                        concat!($metric, " {}\n"),
                        self.$field.load(Ordering::Relaxed)
                    ));
                )+
            }
        }
    };
}

counters! {
    /// Total requests received (any endpoint, any outcome).
    requests_total => "rpr_requests_total",
    /// Requests that completed with a full answer (HTTP 200).
    done_total => "rpr_done_total",
    /// Requests rejected as malformed (HTTP 400/404/405).
    bad_request_total => "rpr_bad_request_total",
    /// Requests whose budget tripped; partial results returned (HTTP 422).
    exceeded_total => "rpr_exceeded_total",
    /// Requests cancelled by drain (HTTP 503).
    cancelled_total => "rpr_cancelled_total",
    /// Requests whose handler panicked (HTTP 500, panic isolated).
    panicked_total => "rpr_panicked_total",
    /// Requests rejected at admission because the queue was full (HTTP 503).
    rejected_total => "rpr_rejected_total",
    /// Session-cache hits.
    cache_hits_total => "rpr_cache_hits_total",
    /// The subset of cache hits served by a byte match of the request's workspace (no parse).
    cache_byte_hits_total => "rpr_cache_byte_hits_total",
    /// Session-cache misses (artifact builds).
    cache_misses_total => "rpr_cache_misses_total",
    /// Sessions evicted from the cache.
    cache_evictions_total => "rpr_cache_evictions_total",
    /// Cache hits rejected as fingerprint collisions (content mismatch; rebuilt fresh).
    cache_collisions_total => "rpr_cache_collisions_total",
    /// TCP connections accepted over the server's lifetime.
    http_connections_total => "rpr_http_connections_total",
    /// Keep-alive connections closed by the idle timeout (slow-loris defense included).
    http_idle_closed_total => "rpr_http_idle_closed_total",
    /// Verdict certificates attached to responses (`"certify": true`).
    certificates_issued_total => "rpr_certificates_issued_total",
    /// Certificates failing `rpr-audit` re-validation (cache-hit and `--self-audit` checks).
    audit_failures_total => "rpr_audit_failures_total",
    /// Delta ops applied to cached sessions (`POST /delta`).
    delta_ops_total => "rpr_delta_ops_total",
    /// Delta batches whose churn forced a cold artifact rebuild.
    delta_rebuilds_total => "rpr_delta_rebuilds_total",
    /// Conflict components reused without re-derivation by patched delta batches.
    component_skips_total => "rpr_component_skips_total",
    /// Shard-store lookups answered by an existing shard (cross-fingerprint reuse included).
    shard_hits_total => "rpr_shard_hits_total",
    /// Cold shards evicted by the `--cache-bytes-max` ceiling.
    shard_evictions_total => "rpr_shard_evictions_total",
}

impl Metrics {
    /// Increments a gauge.
    pub fn gauge_inc(gauge: &AtomicU64) {
        gauge.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements a gauge (saturating: a scrape between paired inc/dec
    /// calls must never see a wrapped value).
    pub fn gauge_dec(gauge: &AtomicU64) {
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Renders the whole registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        self.render_counters(&mut out);
        for (name, gauge) in [
            ("rpr_queue_depth", &self.queue_depth),
            ("rpr_in_flight", &self.in_flight),
            ("rpr_session_cache_bytes", &self.session_cache_bytes),
            ("rpr_session_components", &self.session_components),
            ("rpr_shard_store_entries", &self.shard_store_entries),
            ("rpr_shard_store_bytes", &self.shard_store_bytes),
        ] {
            writeln_type(&mut out, name, "gauge");
            out.push_str(&format!("{name} {}\n", gauge.load(Ordering::Relaxed)));
        }
        self.check_latency.render("rpr_check_latency_seconds", &mut out);
        self.classify_latency.render("rpr_classify_latency_seconds", &mut out);
        self.cqa_latency.render("rpr_cqa_latency_seconds", &mut out);
        self.delta_latency.render("rpr_delta_latency_seconds", &mut out);
        self.requests_per_connection.render("rpr_http_requests_per_connection", &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.observe(Duration::from_millis(1));
        h.observe(Duration::from_millis(3));
        h.observe(Duration::from_secs(60));
        assert_eq!(h.count(), 3);
        let mut out = String::new();
        h.render("t", &mut out);
        assert!(out.contains("t_bucket{le=\"0.001\"} 1\n"));
        assert!(out.contains("t_bucket{le=\"0.005\"} 2\n"));
        assert!(out.contains("t_bucket{le=\"+Inf\"} 3\n"));
        assert!(out.contains("t_count 3\n"));
    }

    #[test]
    fn histogram_buckets_untruncated_durations() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(1900));
        h.observe(Duration::from_millis(2));
        h.observe(Duration::from_micros(1001));
        let mut out = String::new();
        h.render("t", &mut out);
        assert!(out.contains("t_bucket{le=\"0.001\"} 0\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.002\"} 3\n"), "{out}");
    }

    #[test]
    fn histogram_buckets_resolve_sub_millisecond_latencies() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(300));
        h.observe(Duration::from_micros(700));
        let mut out = String::new();
        h.render("t", &mut out);
        assert!(out.starts_with("# TYPE t histogram\nt_bucket{le=\"0.00002\"} 0\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.0002\"} 0\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.0005\"} 1\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"0.001\"} 2\n"), "{out}");
        assert!(out.contains("t_bucket{le=\"5\"} 2\n"), "{out}");
        assert!(out.contains("t_sum 0.001000\n"), "{out}");
    }

    #[test]
    fn registry_renders_all_families() {
        let m = Metrics::default();
        m.requests_total.fetch_add(2, Ordering::Relaxed);
        m.cache_hits_total.fetch_add(1, Ordering::Relaxed);
        Metrics::gauge_inc(&m.queue_depth);
        let text = m.render_prometheus();
        assert!(text.contains("rpr_requests_total 2"));
        assert!(text.contains("rpr_cache_hits_total 1"));
        assert!(text.contains("rpr_queue_depth 1"));
        assert!(text.contains("# TYPE rpr_check_latency_seconds histogram"));
    }

    #[test]
    fn per_connection_histogram_renders() {
        let m = Metrics::default();
        m.requests_per_connection.observe(1);
        m.requests_per_connection.observe(7);
        m.requests_per_connection.observe(5000);
        let text = m.render_prometheus();
        assert!(text.contains("rpr_http_requests_per_connection_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("rpr_http_requests_per_connection_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("rpr_http_requests_per_connection_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("rpr_http_requests_per_connection_sum 5008\n"));
        assert!(text.contains("rpr_http_connections_total 0\n"));
        assert!(text.contains("rpr_http_idle_closed_total 0\n"));
    }

    #[test]
    fn gauge_dec_saturates() {
        let m = Metrics::default();
        Metrics::gauge_dec(&m.queue_depth);
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);
    }
}
