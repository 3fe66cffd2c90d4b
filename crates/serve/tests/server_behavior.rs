//! End-to-end behavior of the daemon over real loopback sockets:
//! routing, teaching 400s, backpressure (429 + `Retry-After`),
//! deadlines (503), the drain protocol, the queue order, and the
//! monitoring endpoints.

use plurality_serve::{run_target, ClientResponse, HttpClient, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(config: ServeConfig) -> (Server, HttpClient) {
    let server = Server::start(config).expect("bind loopback");
    let client = HttpClient::connect(server.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("socket option");
    (server, client)
}

fn get(client: &mut HttpClient, target: &str) -> ClientResponse {
    client.get(target).expect("request")
}

#[test]
fn routing_covers_health_metrics_stats_and_the_error_paths() {
    let (server, mut client) = start(ServeConfig::default());

    let health = get(&mut client, "/healthz");
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));

    // Warm one entry so the counters are non-trivial.
    let run = get(
        &mut client,
        &run_target("sync?n=400&k=2&alpha=3.0&seed=5", None),
    );
    assert_eq!(run.status, 200);
    assert!(run.body.starts_with("plurality-report/1\n"));

    let metrics = get(&mut client, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .body
        .contains("# TYPE plurality_requests_total counter"));
    assert!(metrics.body.contains("plurality_cache_misses_total 1\n"));

    let stats = get(&mut client, "/stats");
    assert_eq!(stats.status, 200);
    assert_eq!(
        stats.headers.get("content-type").map(String::as_str),
        Some("application/json")
    );
    assert!(stats.body.contains("\"cache_misses\": 1"));

    let missing = get(&mut client, "/no/such/endpoint");
    assert_eq!(missing.status, 404);
    assert!(missing.body.contains("/run"), "404 should list endpoints");

    server.drain();
    server.join();
}

#[test]
fn sequential_keep_alive_requests_do_not_stall_on_delayed_acks() {
    // A reply split across two sends on a Nagle socket waits for the
    // peer's delayed ACK, ~40 ms per request: 50 requests would take
    // two seconds or more. Sent whole on a nodelay socket they take
    // milliseconds.
    let (server, mut client) = start(ServeConfig::default());
    let started = Instant::now();
    for _ in 0..50 {
        assert_eq!(get(&mut client, "/healthz").status, 200);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 keep-alive /healthz took {elapsed:?}"
    );
    server.drain();
    server.join();
}

#[test]
fn bad_specs_get_the_registry_teaching_errors_as_400s() {
    let (server, mut client) = start(ServeConfig::default());

    let no_spec = get(&mut client, "/run");
    assert_eq!(no_spec.status, 400);
    assert!(no_spec.body.contains("missing `spec`"));

    let unknown = get(&mut client, &run_target("paxos?n=100", None));
    assert_eq!(unknown.status, 400);
    assert!(
        unknown.body.contains("unknown protocol") && unknown.body.contains("sync"),
        "the 400 must carry the teaching error: {}",
        unknown.body
    );

    let bad_key = get(
        &mut client,
        &run_target("sync?n=100&k=2&alpha=3.0&bogus=1", None),
    );
    assert_eq!(bad_key.status, 400);

    let bad_seed = get(&mut client, "/run?spec=sync&seed=not-a-number");
    assert_eq!(bad_seed.status, 400);
    assert!(bad_seed.body.contains("seed"));

    let stats = get(&mut client, "/stats");
    assert!(
        stats.body.contains("\"rejected_bad_spec\": 4"),
        "every rejection must be counted: {}",
        stats.body
    );
    server.drain();
    server.join();
}

#[test]
fn a_leader_mf_dt_below_one_sixty_fourth_is_a_400_not_a_wedged_worker() {
    // A run's sub-steps and completion ring grow as 1/dt, so a tiny dt
    // would hold a worker far past any deadline; it is refused up front.
    let (server, mut client) = start(ServeConfig::default());
    let started = Instant::now();
    let tiny = get(
        &mut client,
        &run_target("leader-mf?n=1000000&k=2&alpha=2.0&dt=1e-6", None),
    );
    assert_eq!(tiny.status, 400);
    assert!(
        tiny.body.contains("`dt`") && tiny.body.contains("at least 1/64"),
        "the 400 must name the accepted range: {}",
        tiny.body
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "rejection took {:?}",
        started.elapsed()
    );
    server.drain();
    server.join();
}

#[test]
fn a_per_node_spec_below_the_engine_minimum_is_a_400_not_a_500() {
    // The multi-leader engine needs a few nodes to elect its leaders; a
    // smaller population is refused with a teaching error naming `n`.
    let (server, mut client) = start(ServeConfig::default());
    let small = get(&mut client, &run_target("cluster?n=5&k=2", None));
    assert_eq!(small.status, 400, "{}", small.body);
    assert!(
        small.body.contains("`n`") && small.body.contains("at least 8"),
        "the 400 must name the parameter: {}",
        small.body
    );
    server.drain();
    server.join();
}

#[test]
fn method_and_framing_violations_are_rejected() {
    let (server, mut client) = start(ServeConfig::default());

    // Wrong method on a known endpoint. `Connection: close` makes the
    // server hang up after the 405 so read_to_string sees EOF (a bare
    // HTTP/1.1 request defaults to keep-alive); the read timeout is the
    // backstop that turns any regression into a failure, not a hang.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(b"DELETE /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 405 "), "{response}");

    // Not HTTP at all: the server answers 400 and closes on its own.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(b"definitely not http\r\n\r\n").unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");

    // Announcing a body (which the server never reads) closes the
    // connection rather than desynchronizing keep-alive framing.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc")
        .unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("Connection: close"), "{response}");

    let alive = get(&mut client, "/healthz");
    assert_eq!(alive.status, 200, "bad peers must not hurt good ones");
    server.drain();
    server.join();
}

#[test]
fn full_queue_answers_429_with_retry_after_instead_of_buffering() {
    // One worker, a one-slot queue, and a spec slow enough (~hundreds
    // of ms) that a burst of distinct-seed requests must overflow.
    let (server, mut client) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let barrier = Arc::new(std::sync::Barrier::new(12));
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("socket option");
                barrier.wait();
                let spec = format!("leader?n=2000&k=2&alpha=3.0&c1=9.3&seed={i}");
                client.get(&run_target(&spec, None)).expect("request")
            })
        })
        .collect();
    let responses: Vec<ClientResponse> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let ok = responses.iter().filter(|r| r.status == 200).count();
    let busy: Vec<_> = responses.iter().filter(|r| r.status == 429).collect();
    assert_eq!(
        ok + busy.len(),
        responses.len(),
        "overload must degrade into 200s and 429s only: {:?}",
        responses.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    assert!(ok >= 1, "the worker must have served someone");
    assert!(
        !busy.is_empty(),
        "a one-slot queue must overflow under a 12-burst"
    );
    for rejected in &busy {
        let retry_after: u64 = rejected
            .headers
            .get("retry-after")
            .expect("429 must carry Retry-After")
            .parse()
            .expect("Retry-After is whole seconds");
        assert!((1..=30).contains(&retry_after));
    }

    let stats = get(&mut client, "/stats");
    assert!(stats.body.contains("\"rejected_busy\""), "{}", stats.body);
    server.drain();
    server.join();
}

/// The value of the first `/metrics` sample line starting with `name`.
fn metric(client: &mut HttpClient, name: &str) -> f64 {
    let metrics = get(client, "/metrics").body;
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no sample {name} in:\n{metrics}"))
}

/// Polls `/metrics` until `name` reads `value`.
fn await_metric(client: &mut HttpClient, name: &str, value: f64) {
    while metric(client, name) != value {
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_later_cheap_miss_is_answered_before_an_earlier_expensive_one() {
    // One worker, so the queue's order is the service order.
    let (server, mut client) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let expensive = |n: u64, seed: u64| format!("cluster?n={n}&k=2&alpha=2.0&c1=9.3&seed={seed}");
    let cheap = |seed: u64| format!("sync-mf?n=1000000&k=2&alpha=2.0&seed={seed}");
    // Calibrate: one completed run of each protocol.
    for spec in [expensive(5_000, 1), cheap(1)] {
        assert_eq!(get(&mut client, &run_target(&spec, None)).status, 200);
    }
    let addr = server.addr();
    let request = |spec: String| {
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_secs(120)))
                .expect("socket option");
            let response = client.get(&run_target(&spec, None)).expect("request");
            assert_eq!(response.status, 200, "{spec}: {}", response.body);
            Instant::now()
        })
    };
    // Busy the worker with a long run: the third job it has dequeued.
    let busy = request(expensive(30_000, 2));
    await_metric(&mut client, "plurality_queue_wait_us_count", 3.0);
    // Queue an expensive miss, then a cheap one, behind it.
    let earlier_expensive = request(expensive(10_000, 3));
    await_metric(&mut client, "plurality_queue_depth", 1.0);
    let later_cheap = request(cheap(3));
    await_metric(&mut client, "plurality_queue_depth", 2.0);

    // Depth 2 means both waited behind the busy run: the order they are
    // answered in is the order the queue chose.
    busy.join().unwrap();
    let cheap_done = later_cheap.join().unwrap();
    let expensive_done = earlier_expensive.join().unwrap();
    assert!(
        cheap_done < expensive_done,
        "the cheap miss must be served before the earlier expensive one"
    );
    server.drain();
    server.join();
}

#[test]
fn expired_deadlines_answer_503_not_a_hung_connection() {
    let (server, mut client) = start(ServeConfig {
        workers: 1,
        deadline: Duration::from_millis(1),
        ..ServeConfig::default()
    });
    let response = get(
        &mut client,
        &run_target("leader?n=2000&k=2&alpha=3.0&c1=9.3&seed=77", None),
    );
    assert_eq!(response.status, 503, "{}", response.body);
    assert!(response.body.contains("deadline"));
    assert!(response.headers.contains_key("retry-after"));
    server.drain();
    server.join();
}

#[test]
fn drain_refuses_new_work_finishes_the_queue_and_lets_join_return() {
    let (server, mut client) = start(ServeConfig::default());
    let warm = get(
        &mut client,
        &run_target("sync?n=400&k=2&alpha=3.0&seed=1", None),
    );
    assert_eq!(warm.status, 200);

    let drain = get(&mut client, "/admin/drain");
    assert_eq!((drain.status, drain.body.as_str()), (200, "draining\n"));

    let refused = get(
        &mut client,
        &run_target("sync?n=400&k=2&alpha=3.0&seed=2", None),
    );
    assert_eq!(refused.status, 503);
    assert!(refused.body.contains("draining"));

    let health = get(&mut client, "/healthz");
    assert_eq!(health.status, 503, "liveness must flip during a drain");

    // join() returning is the whole point: accept loop and workers all
    // exit. (The test harness timeout catches a hang.)
    server.join();
}
