//! The daemon workload: a `plurality-serve` instance on loopback and
//! closed-loop clients on keep-alive connections, each waiting for its
//! reply before sending the next request. Three in four requests name
//! one of a small hot set of (spec, seed) keys, so after its first miss
//! the report cache answers them; the fourth names a fresh key, which
//! the daemon must validate, queue and run.
//!
//! Times here are plain wall time: clients and daemon share the CPU, so
//! the speed probe of the facade workloads cannot run alone between
//! requests, and socket timers, not CPU speed, bound much of a reply.

use crate::inputs::{self, SplitMix, Workload};
use crate::{median, Outcome};
use plurality_serve::{run_target, HttpClient, ServeConfig, Server};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CLIENTS: u64 = 4;
const WORKERS: usize = 2;
const HOT_KEYS: usize = 12;
/// Fresh keys per client whose bodies are checked against a local run.
const CHECKED_COLD: usize = 2;

pub struct Prepared {
    server: Server,
    hot: Vec<String>,
    /// `/run` responses already served before timing (warm-up).
    warm_hits: u64,
    warm_misses: u64,
}

/// Starts the daemon, waits until `/healthz` answers, and requests the
/// warm-up specs (keys the measured load never repeats) so lazily built
/// state is in place before timing starts.
pub fn setup(seed: u64) -> Result<Prepared, String> {
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon failed to start: {e}"))?;
    let mut client = ready_client(server.addr())?;
    let (mut warm_hits, mut warm_misses) = (0, 0);
    for key in inputs::warm_up(Workload::ServeMixed, seed) {
        let response = client
            .get(&run_target(&key, None))
            .map_err(|e| format!("warm-up request failed: {e}"))?;
        if response.status != 200 {
            return Err(format!("warm-up {key}: status {}", response.status));
        }
        match response.cache_disposition() {
            Some("hit") => warm_hits += 1,
            _ => warm_misses += 1,
        }
    }
    Ok(Prepared {
        server,
        hot: inputs::batch(Workload::ServeMixed, seed, HOT_KEYS),
        warm_hits,
        warm_misses,
    })
}

/// Stops the daemon and waits for its accept loop and workers.
pub fn teardown(prepared: Prepared) {
    prepared.server.drain();
    prepared.server.join();
}

fn ready_client(addr: SocketAddr) -> Result<HttpClient, String> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut client) = HttpClient::connect(addr) {
            if matches!(client.get("/healthz"), Ok(r) if r.status == 200) {
                return Ok(client);
            }
        }
        if Instant::now() > give_up {
            return Err(format!("daemon on {addr} never became healthy"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    failed: u64,
    body_bytes: f64,
    /// First body seen per key, for the byte-equality checks.
    bodies: HashMap<String, String>,
    problems: Vec<String>,
}

pub fn measure(prepared: &Prepared, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let addr = prepared.server.addr();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client_seed = seed ^ (c + 1).wrapping_mul(0xA24B_AED4_963E_E407);
                scope.spawn(move || client_loop(addr, &prepared.hot, client_seed, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Outcome {
        busy_s: started.elapsed().as_secs_f64(),
        ..Outcome::default()
    };

    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let mut body_bytes = 0.0;
    let mut bodies: HashMap<String, String> = HashMap::new();
    for log in logs {
        out.attempted += log.latencies_ms.len() as u64;
        out.failed += log.failed;
        out.latencies_ms.extend(log.latencies_ms);
        hits.extend(log.hit_ms);
        misses.extend(log.miss_ms);
        body_bytes += log.body_bytes;
        for problem in log.problems {
            out.problem(problem);
        }
        for (key, body) in log.bodies {
            match bodies.get(&key) {
                Some(seen) if *seen != body => {
                    out.problem(format!("{key}: clients received different bodies"));
                }
                Some(_) => {}
                None => {
                    bodies.insert(key, body);
                }
            }
        }
    }

    // Cache soundness: whatever the daemon served must equal the bytes
    // of a fresh in-process run of the same spec.
    for (key, body) in &bodies {
        match plurality_api::run_spec(key) {
            Ok(report) if report.wire_text() == *body => {}
            Ok(_) => out.problem(format!("{key}: served body differs from a fresh run")),
            Err(e) => out.problem(format!("{key}: local run failed: {e}")),
        }
    }

    let metrics = match HttpClient::connect(addr).and_then(|mut c| c.get("/metrics")) {
        Ok(r) if r.status == 200 => parse_exposition(&r.body),
        _ => {
            out.problem("GET /metrics failed".to_string());
            HashMap::new()
        }
    };
    let metric = |name: &str| metrics.get(name).copied().unwrap_or(0.0);
    let served_hits = metric("plurality_cache_hits_total");
    let served_misses = metric("plurality_cache_misses_total");
    // The daemon's counters must agree with what clients were told.
    let told_hits = (hits.len() as u64 + prepared.warm_hits) as f64;
    let told_misses = (misses.len() as u64 + prepared.warm_misses) as f64;
    if served_hits != told_hits || served_misses != told_misses {
        out.problem(format!(
            "daemon counted {served_hits} hits / {served_misses} misses, \
             clients saw {told_hits} / {told_misses}"
        ));
    }

    if trace {
        let mean = |family: &str| {
            let count = metric(&format!("{family}_count"));
            if count > 0.0 {
                metric(&format!("{family}_sum")) / count
            } else {
                0.0
            }
        };
        let served = out.latencies_ms.len().max(1) as f64;
        let client_mean_ms = out.latencies_ms.iter().sum::<f64>() / served;
        let server_request_us = mean("plurality_request_latency_us");
        out.layer("http_hit_ms", median(&hits));
        out.layer("http_miss_ms", median(&misses));
        out.layer("wire_bytes", body_bytes / served);
        out.layer("server_request_us", server_request_us);
        out.layer("server_queue_wait_us", mean("plurality_queue_wait_us"));
        out.layer("server_service_ms", mean("plurality_service_time_us") / 1e3);
        out.layer(
            "http_unattributed_ms",
            client_mean_ms - server_request_us / 1e3,
        );
        out.layer("cache_hits", served_hits);
        out.layer("cache_misses", served_misses);
    }
    out
}

fn client_loop(addr: SocketAddr, hot: &[String], seed: u64, deadline: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = SplitMix::new(!seed);
    let mut fresh = inputs::specs(Workload::ServeMixed, seed);
    let mut client = match HttpClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            log.failed += 1;
            log.problems.push(format!("connect failed: {e}"));
            return log;
        }
    };
    let mut cold_checked = 0;
    for j in 0u64.. {
        if Instant::now() >= deadline {
            break;
        }
        let cold = j % 4 == 0;
        let key = if cold {
            fresh.next().expect("the spec stream is endless")
        } else {
            hot[(rng.next_u64() % hot.len() as u64) as usize].clone()
        };
        let t0 = Instant::now();
        let response = client.get(&run_target(&key, None));
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        log.latencies_ms.push(elapsed_ms);
        let response = match response {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                log.failed += 1;
                log.problems.push(format!("{key}: status {}", r.status));
                continue;
            }
            Err(e) => {
                log.failed += 1;
                log.problems.push(format!("{key}: {e}"));
                continue;
            }
        };
        match response.cache_disposition() {
            Some("hit") => log.hit_ms.push(elapsed_ms),
            _ => log.miss_ms.push(elapsed_ms),
        }
        log.body_bytes += response.body.len() as f64;
        if !cold || cold_checked < CHECKED_COLD {
            cold_checked += usize::from(cold);
            match log.bodies.get(&key) {
                Some(seen) if *seen != response.body => log
                    .problems
                    .push(format!("{key}: a repeat request got different bytes")),
                Some(_) => {}
                None => {
                    log.bodies.insert(key, response.body);
                }
            }
        }
    }
    log
}

/// `name value` samples of a Prometheus text exposition (labelled
/// series and comments skipped).
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.contains('{'))
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}
