//! `/metrics` must be well-formed Prometheus text exposition: one
//! `# HELP` / `# TYPE` per family, honest types (`*_total` families are
//! counters, samples are gauges), and full `_bucket` / `_sum` /
//! `_count` triples with cumulative `le` buckets ending in `+Inf` for
//! every histogram. The shape is checked by the same
//! [`plurality_obs::validate_exposition`] the CI mid-load scrape uses.

use plurality_obs::validate_exposition;
use plurality_serve::{run_target, HttpClient, ServeConfig, Server};
use std::time::Duration;

fn start() -> (Server, HttpClient) {
    let server = Server::start(ServeConfig::default()).expect("bind loopback");
    let client = HttpClient::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("socket option");
    (server, client)
}

#[test]
fn metrics_parse_as_prometheus_exposition_after_traffic() {
    let (server, mut client) = start();

    // Generate a mix of traffic: a fresh run, a cache hit, and a 400.
    let spec = "sync?n=400&k=2&alpha=3.0&seed=5";
    assert_eq!(client.get(&run_target(spec, None)).unwrap().status, 200);
    assert_eq!(client.get(&run_target(spec, None)).unwrap().status, 200);
    assert_eq!(client.get("/run?spec=nonsense").unwrap().status, 400);

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.body;
    validate_exposition(&text).expect("well-formed exposition");

    // Monotonic `_total` families are counters…
    for family in [
        "plurality_requests_total",
        "plurality_cache_hits_total",
        "plurality_cache_misses_total",
        "plurality_rejected_bad_spec_total",
        "plurality_cache_evictions_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} counter")),
            "{family} must be TYPE counter:\n{text}"
        );
    }
    // …point-in-time samples are gauges…
    for family in [
        "plurality_queue_depth",
        "plurality_draining",
        "plurality_cache_entries",
        "plurality_request_latency_us_p50",
        "plurality_request_latency_us_p99",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} gauge")),
            "{family} must be TYPE gauge:\n{text}"
        );
    }
    // …and the latency distributions expose full histogram triples.
    for family in [
        "plurality_request_latency_us",
        "plurality_queue_wait_us",
        "plurality_service_time_us",
    ] {
        assert!(text.contains(&format!("# TYPE {family} histogram")));
        assert!(text.contains(&format!("{family}_bucket{{le=\"+Inf\"}}")));
        assert!(text.contains(&format!("{family}_sum ")));
        assert!(text.contains(&format!("{family}_count ")));
    }

    // Three requests handled before this scrape, all through the
    // latency histogram.
    let count_line = text
        .lines()
        .find(|l| l.starts_with("plurality_request_latency_us_count "))
        .expect("latency count sample");
    let count: u64 = count_line.split(' ').nth(1).unwrap().parse().unwrap();
    assert!(count >= 3, "expected >= 3 recorded requests, got {count}");

    // The fresh run went through a worker, so queue-wait and
    // service-time each saw at least one sample.
    for family in ["plurality_queue_wait_us", "plurality_service_time_us"] {
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("{family}_count ")))
            .expect("histogram count sample");
        let count: u64 = line.split(' ').nth(1).unwrap().parse().unwrap();
        assert!(count >= 1, "{family} never recorded:\n{text}");
    }

    server.drain();
    server.join();
}

#[test]
fn request_latency_counts_every_routed_request_once_written() {
    let (server, mut client) = start();
    const N: u64 = 7;
    for _ in 0..N {
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    }

    // Latency is recorded after each reply is written, and one
    // connection is served in order, so every earlier request is in the
    // histogram before this scrape is read. The scrape itself is routed
    // (and counted) but not yet written when it renders.
    let text = client.get("/metrics").unwrap().body;
    let sample = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {name} sample in:\n{text}"))
            .parse()
            .unwrap()
    };
    let routed = sample("plurality_requests_total");
    assert_eq!(routed, N + 1);
    assert_eq!(sample("plurality_request_latency_us_count"), routed - 1);

    server.drain();
    server.join();
}

#[test]
fn stats_json_quantiles_follow_the_latency_histogram() {
    let (server, mut client) = start();
    let spec = "sync?n=400&k=2&alpha=3.0&seed=6";
    assert_eq!(client.get(&run_target(spec, None)).unwrap().status, 200);
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    for key in [
        "\"request_latency_us_p50\":",
        "\"request_latency_us_p95\":",
        "\"request_latency_us_p99\":",
    ] {
        assert!(
            stats.body.contains(key),
            "missing {key} in:\n{}",
            stats.body
        );
    }
    server.drain();
    server.join();
}
