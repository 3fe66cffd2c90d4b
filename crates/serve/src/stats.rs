//! Server-wide metrics and their `/metrics` (Prometheus text) and
//! `/stats` (JSON) renderings, backed by the shared
//! [`MetricsRegistry`].
//!
//! Monotonic series carry the `_total` suffix and render with
//! `# TYPE … counter`; point-in-time samples (cache occupancy, queue
//! depth, drain flag, latency quantiles) are gauges refreshed just
//! before each render; the three latency distributions are log-bucket
//! [`Histogram`]s with full `_bucket` / `_sum` / `_count` exposition.

use crate::cache::CacheStats;
use plurality_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Clamps a duration to whole microseconds for histogram recording.
pub fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Server-wide metrics. Counters and histograms are updated on the
/// handler/worker hot paths; the sampled gauges are refreshed inside
/// [`ServerStats::metrics_text`] / [`ServerStats::stats_json`].
#[derive(Debug)]
pub struct ServerStats {
    registry: MetricsRegistry,
    /// Serializes renders so the sampled gauges and the eviction-delta
    /// counter are updated atomically with respect to each other.
    render_lock: Mutex<()>,
    /// Requests that reached routing (any endpoint, any outcome).
    pub requests: Arc<Counter>,
    /// `/run` responses served from the report cache.
    pub cache_hits: Arc<Counter>,
    /// `/run` responses that required a fresh engine run.
    pub cache_misses: Arc<Counter>,
    /// `/run` requests rejected with `400` (spec did not validate).
    pub rejected_bad_spec: Arc<Counter>,
    /// `/run` requests rejected with `429` (queue full).
    pub rejected_busy: Arc<Counter>,
    /// `/run` requests that hit their deadline and got `503`.
    pub deadline_exceeded: Arc<Counter>,
    /// `/run` requests answered `500` (worker panic or send failure).
    pub internal_errors: Arc<Counter>,
    /// End-to-end request handling time (µs), every endpoint.
    pub request_latency_us: Arc<Histogram>,
    /// Time a `/run` job waited in the queue before a worker took it
    /// (µs).
    pub queue_wait_us: Arc<Histogram>,
    /// Engine service time of fresh `/run` executions (µs) — its
    /// mean backs the `Retry-After` estimate.
    pub service_time_us: Arc<Histogram>,
    evictions: Arc<Counter>,
    latency_p50: Arc<Gauge>,
    latency_p95: Arc<Gauge>,
    latency_p99: Arc<Gauge>,
    cache_entries: Arc<Gauge>,
    cache_bytes: Arc<Gauge>,
    cache_capacity_bytes: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    draining: Arc<Gauge>,
}

impl Default for ServerStats {
    fn default() -> Self {
        let registry = MetricsRegistry::new();
        let requests =
            registry.counter("plurality_requests_total", "Requests routed since startup.");
        let cache_hits = registry.counter(
            "plurality_cache_hits_total",
            "Run responses served from the report cache.",
        );
        let cache_misses = registry.counter(
            "plurality_cache_misses_total",
            "Run responses that required a fresh engine run.",
        );
        let rejected_bad_spec = registry.counter(
            "plurality_rejected_bad_spec_total",
            "Run requests rejected with 400.",
        );
        let rejected_busy = registry.counter(
            "plurality_rejected_busy_total",
            "Run requests rejected with 429 (queue full).",
        );
        let deadline_exceeded = registry.counter(
            "plurality_deadline_exceeded_total",
            "Run requests answered 503 after their deadline.",
        );
        let internal_errors = registry.counter(
            "plurality_internal_errors_total",
            "Run requests answered 500.",
        );
        let evictions = registry.counter(
            "plurality_cache_evictions_total",
            "Report-cache LRU evictions since startup.",
        );
        let request_latency_us = registry.histogram(
            "plurality_request_latency_us",
            "Request handling time in microseconds, from routing through the response write.",
        );
        let queue_wait_us = registry.histogram(
            "plurality_queue_wait_us",
            "Queue wait of /run jobs in microseconds.",
        );
        let service_time_us = registry.histogram(
            "plurality_service_time_us",
            "Engine service time of fresh runs in microseconds.",
        );
        let latency_p50 = registry.gauge(
            "plurality_request_latency_us_p50",
            "Median request latency (µs), from the log-bucket histogram.",
        );
        let latency_p95 = registry.gauge(
            "plurality_request_latency_us_p95",
            "95th-percentile request latency (µs).",
        );
        let latency_p99 = registry.gauge(
            "plurality_request_latency_us_p99",
            "99th-percentile request latency (µs).",
        );
        let cache_entries = registry.gauge("plurality_cache_entries", "Live report-cache entries.");
        let cache_bytes = registry.gauge("plurality_cache_bytes", "Charged report-cache bytes.");
        let cache_capacity_bytes = registry.gauge(
            "plurality_cache_capacity_bytes",
            "Report-cache byte budget.",
        );
        let queue_depth = registry.gauge(
            "plurality_queue_depth",
            "Jobs waiting for a worker right now.",
        );
        let draining = registry.gauge(
            "plurality_draining",
            "1 while the server is draining, else 0.",
        );
        Self {
            registry,
            render_lock: Mutex::new(()),
            requests,
            cache_hits,
            cache_misses,
            rejected_bad_spec,
            rejected_busy,
            deadline_exceeded,
            internal_errors,
            request_latency_us,
            queue_wait_us,
            service_time_us,
            evictions,
            latency_p50,
            latency_p95,
            latency_p99,
            cache_entries,
            cache_bytes,
            cache_capacity_bytes,
            queue_depth,
            draining,
        }
    }
}

impl ServerStats {
    /// Cache hit rate over `/run` responses served so far (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.cache_hits.get() as f64;
        let misses = self.cache_misses.get() as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }

    /// Refreshes the sampled families (cache occupancy, queue depth,
    /// drain flag, eviction total, latency quantiles) from the current
    /// snapshot, under the render lock.
    fn refresh_samples(&self, cache: &CacheStats, queue_depth: usize, draining: bool) {
        // Evictions accumulate inside the cache shards; fold the delta
        // into the counter so the family stays an honest monotonic
        // counter rather than a gauge wearing a `_total` name.
        let seen = self.evictions.get();
        self.evictions.add(cache.evictions.saturating_sub(seen));
        self.cache_entries.set(cache.entries as f64);
        self.cache_bytes.set(cache.bytes as f64);
        self.cache_capacity_bytes.set(cache.capacity_bytes as f64);
        self.queue_depth.set(queue_depth as f64);
        self.draining.set(f64::from(u8::from(draining)));
        self.latency_p50
            .set(self.request_latency_us.quantile(0.50) as f64);
        self.latency_p95
            .set(self.request_latency_us.quantile(0.95) as f64);
        self.latency_p99
            .set(self.request_latency_us.quantile(0.99) as f64);
    }

    /// Prometheus text exposition for `/metrics`.
    pub fn metrics_text(&self, cache: &CacheStats, queue_depth: usize, draining: bool) -> String {
        let _guard = self.render_lock.lock().expect("stats render lock poisoned");
        self.refresh_samples(cache, queue_depth, draining);
        self.registry.render()
    }

    /// JSON body for `/stats`. Hand-rolled (flat object, numeric
    /// values) — same discipline as the benchmark snapshot writer.
    pub fn stats_json(&self, cache: &CacheStats, queue_depth: usize, draining: bool) -> String {
        let _guard = self.render_lock.lock().expect("stats render lock poisoned");
        self.refresh_samples(cache, queue_depth, draining);
        format!(
            "{{\n  \"requests\": {},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
             \"hit_rate\": {:.6},\n  \"rejected_bad_spec\": {},\n  \"rejected_busy\": {},\n  \
             \"deadline_exceeded\": {},\n  \"internal_errors\": {},\n  \"cache_entries\": {},\n  \
             \"cache_bytes\": {},\n  \"cache_capacity_bytes\": {},\n  \"cache_evictions\": {},\n  \
             \"queue_depth\": {},\n  \"draining\": {},\n  \"request_latency_us_p50\": {},\n  \
             \"request_latency_us_p95\": {},\n  \"request_latency_us_p99\": {}\n}}\n",
            self.requests.get(),
            self.cache_hits.get(),
            self.cache_misses.get(),
            self.hit_rate(),
            self.rejected_bad_spec.get(),
            self.rejected_busy.get(),
            self.deadline_exceeded.get(),
            self.internal_errors.get(),
            cache.entries,
            cache.bytes,
            cache.capacity_bytes,
            cache.evictions,
            queue_depth,
            u64::from(draining),
            self.request_latency_us.quantile(0.50),
            self.request_latency_us.quantile(0.95),
            self.request_latency_us.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_obs::validate_exposition;

    #[test]
    fn hit_rate_counts_hits_over_responses() {
        let stats = ServerStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        stats.cache_hits.add(3);
        stats.cache_misses.inc();
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn monotonic_series_are_typed_counter_and_samples_gauge() {
        let stats = ServerStats::default();
        stats.requests.add(7);
        let text = stats.metrics_text(&CacheStats::default(), 2, true);
        // The `_total` families must not lie about their type.
        assert!(text.contains("# TYPE plurality_requests_total counter"));
        assert!(text.contains("# TYPE plurality_cache_hits_total counter"));
        assert!(text.contains("# TYPE plurality_cache_evictions_total counter"));
        assert!(text.contains("# TYPE plurality_queue_depth gauge"));
        assert!(text.contains("# TYPE plurality_request_latency_us histogram"));
        assert!(text.contains("plurality_requests_total 7\n"));
        assert!(text.contains("plurality_queue_depth 2\n"));
        assert!(text.contains("plurality_draining 1\n"));
    }

    #[test]
    fn metrics_text_is_valid_exposition_format() {
        let stats = ServerStats::default();
        stats.requests.add(3);
        stats.request_latency_us.record(120);
        stats.request_latency_us.record(4_500);
        stats.queue_wait_us.record(15);
        stats.service_time_us.record(2_000);
        let text = stats.metrics_text(&CacheStats::default(), 0, false);
        validate_exposition(&text).expect("well-formed exposition");
    }

    #[test]
    fn eviction_counter_tracks_the_sampled_total_monotonically() {
        let stats = ServerStats::default();
        let sample = |evictions| CacheStats {
            evictions,
            ..CacheStats::default()
        };
        let _ = stats.metrics_text(&sample(4), 0, false);
        let text = stats.metrics_text(&sample(9), 0, false);
        assert!(text.contains("plurality_cache_evictions_total 9\n"));
        // A stale (smaller) sample must never decrement the counter.
        let text = stats.metrics_text(&sample(7), 0, false);
        assert!(text.contains("plurality_cache_evictions_total 9\n"));
    }

    #[test]
    fn stats_json_has_the_monitored_keys() {
        let stats = ServerStats::default();
        stats.cache_hits.add(9);
        stats.cache_misses.inc();
        let json = stats.stats_json(&CacheStats::default(), 0, false);
        assert!(json.contains("\"hit_rate\": 0.900000"));
        assert!(json.contains("\"cache_hits\": 9"));
        assert!(json.contains("\"draining\": 0"));
        assert!(json.contains("\"request_latency_us_p99\": 0"));
        assert!(json.trim_end().ends_with('}'));
    }
}
