//! The daemon: accept loop, connection handlers, and the worker pool,
//! glued together by the [`JobQueue`] and the
//! [`ReportCache`].
//!
//! ## Request flow for `GET /run`
//!
//! 1. **Cache probe** — the canonical spec string (seed override
//!    applied) is looked up first; a hit returns the stored bytes with
//!    `X-Cache: hit` without touching the queue *or* the validator
//!    (whatever is in the cache was validated when it was inserted).
//! 2. **Validation** — [`Registry::validate_only`] runs the full
//!    resolution pipeline and rejects bad specs with `400` and the same
//!    teaching message the CLI prints, before the request can occupy a
//!    queue slot. It also prices the run, and the queue serves the
//!    cheapest predicted job first (see [`crate::pool`]).
//! 3. **Backpressure** — `try_submit` never blocks: a full queue means
//!    `429 Too Many Requests` with a `Retry-After` estimated from the
//!    queued jobs' summed predicted service time and the worker count.
//! 4. **Deadline** — the handler waits on the job's reply channel with
//!    `recv_timeout`; an expired deadline is `503`, and workers skip
//!    jobs whose requester already gave up.
//! 5. **Coalescing** — a worker re-probes the cache after dequeuing, so
//!    identical requests racing through the queue run the engine once.
//!
//! ## Drain protocol
//!
//! [`Server::drain`] (also reachable as `POST /admin/drain`) closes the
//! queue: new `/run` submissions get `503`, already-queued jobs run to
//! completion, workers exit when the queue is empty, and the accept
//! loop is woken by a loopback self-connection so [`Server::join`]
//! returns without dropping accepted work.

use crate::cache::ReportCache;
use crate::http::{read_request, ReadOutcome, Request, Response};
use crate::pool::{Job, JobQueue, JobReply, SubmitError};
use crate::stats::{duration_us, ServerStats};
use plurality_api::{Registry, RunSpec};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads running engine jobs.
    pub workers: usize,
    /// Bounded queue capacity between handlers and workers.
    pub queue_capacity: usize,
    /// Report-cache byte budget.
    pub cache_bytes: usize,
    /// Per-request deadline: how long a `/run` handler waits for its
    /// reply before answering `503`.
    pub deadline: Duration,
    /// Assumed service time (ms) of every queued job until the first
    /// fresh run has been measured: the queue's prediction, and so the
    /// `Retry-After` estimate, before calibration.
    pub fallback_service_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            cache_bytes: 32 << 20,
            deadline: Duration::from_secs(30),
            fallback_service_ms: 50,
        }
    }
}

struct Inner {
    registry: &'static Registry,
    queue: JobQueue,
    cache: ReportCache,
    stats: ServerStats,
    workers: usize,
    deadline: Duration,
    addr: SocketAddr,
}

/// A running daemon. Dropping the handle does *not* stop it — call
/// [`Server::drain`] then [`Server::join`] for an orderly shutdown.
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` (the queue would never drain) or the
    /// queue/cache capacities are zero.
    pub fn start(config: ServeConfig) -> std::io::Result<Self> {
        assert!(config.workers > 0, "Server: need at least one worker");
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            registry: Registry::standard(),
            queue: JobQueue::new(
                config.queue_capacity,
                Duration::from_millis(config.fallback_service_ms),
            ),
            cache: ReportCache::new(config.cache_bytes),
            stats: ServerStats::default(),
            workers: config.workers,
            deadline: config.deadline,
            addr,
        });

        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("plurality-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();

        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("plurality-accept".to_string())
                .spawn(move || accept_loop(&listener, &inner))
                .expect("spawn accept thread")
        };

        Ok(Self {
            inner,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Begins a graceful drain: new `/run` work is refused, queued jobs
    /// finish, workers exit, the accept loop stops. Idempotent.
    pub fn drain(&self) {
        self.inner.queue.drain();
        // Wake the accept loop: `incoming()` has no timeout, so poke it
        // with a throwaway loopback connection it will drop on sight.
        let _ = TcpStream::connect(self.inner.addr);
    }

    /// Waits for the accept loop and every worker to exit (i.e. for a
    /// drain to complete). Detached per-connection handler threads are
    /// not joined; they die with their connections.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    for stream in listener.incoming() {
        if inner.queue.is_draining() {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        let inner = Arc::clone(inner);
        let _ = std::thread::Builder::new()
            .name("plurality-conn".to_string())
            .spawn(move || handle_connection(stream, &inner));
    }
}

fn handle_connection(stream: TcpStream, inner: &Arc<Inner>) {
    // Every reply is one write (`Response::write_to`), so Nagle has
    // nothing to coalesce; left on, it would hold a reply behind the
    // peer's delayed ACK of the previous one.
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(ReadOutcome::Request(request)) => request,
            Ok(ReadOutcome::Closed) | Err(_) => return,
            Ok(ReadOutcome::Malformed(reason)) => {
                let _ = Response::error(400, reason).write_to(&mut write_half, false);
                return;
            }
        };
        // Bodies are never read, so a request announcing one would
        // desynchronize keep-alive framing — refuse and close.
        if request.headers.contains_key("content-length")
            || request.headers.contains_key("transfer-encoding")
        {
            let _ = Response::error(400, "request bodies are not supported")
                .write_to(&mut write_half, false);
            return;
        }
        let keep_alive = request.keep_alive();
        let is_drain =
            request.path == "/admin/drain" && matches!(request.method.as_str(), "GET" | "POST");
        let started = Instant::now();
        let response = route(&request, inner);
        // Recorded after the write, so the latency covers the socket
        // send the client waits for, not just routing.
        let written = response.write_to(&mut write_half, keep_alive).is_ok();
        inner
            .stats
            .request_latency_us
            .record(duration_us(started.elapsed()));
        if is_drain {
            // Acknowledge *before* closing the queue: once the drain
            // starts, `join()` can return and the process may exit, so
            // the 200 must already be in the socket buffer by then.
            inner.queue.drain();
            let _ = TcpStream::connect(inner.addr);
        }
        if !written || !keep_alive {
            return;
        }
    }
}

fn route(request: &Request, inner: &Arc<Inner>) -> Response {
    inner.stats.requests.inc();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            if inner.queue.is_draining() {
                Response::error(503, "draining")
            } else {
                Response::ok("ok\n")
            }
        }
        ("GET", "/metrics") => Response::ok(inner.stats.metrics_text(
            &inner.cache.stats(),
            inner.queue.depth(),
            inner.queue.is_draining(),
        )),
        ("GET", "/stats") => Response {
            content_type: "application/json",
            ..Response::ok(inner.stats.stats_json(
                &inner.cache.stats(),
                inner.queue.depth(),
                inner.queue.is_draining(),
            ))
        },
        ("GET", "/run") => handle_run(request, inner),
        // The drain itself happens in `handle_connection`, after this
        // acknowledgment has been written — see the ordering note there.
        ("GET" | "POST", "/admin/drain") => Response::ok("draining\n"),
        (_, "/healthz" | "/metrics" | "/stats" | "/run") => Response::error(
            405,
            format!("{} is not supported here; use GET", request.method),
        ),
        (_, path) => Response::error(
            404,
            format!("no such endpoint {path:?}; try /run, /healthz, /metrics, /stats"),
        ),
    }
}

fn handle_run(request: &Request, inner: &Arc<Inner>) -> Response {
    let Some(raw_spec) = request.query_value("spec") else {
        inner.stats.rejected_bad_spec.inc();
        return Response::error(
            400,
            "missing `spec` query parameter, e.g. /run?spec=sync%3Fn%3D1000%26k%3D4",
        );
    };
    let spec = match RunSpec::parse(raw_spec) {
        Ok(spec) => spec,
        Err(e) => {
            inner.stats.rejected_bad_spec.inc();
            return Response::error(400, e.to_string());
        }
    };
    let spec = match request.query_value("seed") {
        None => spec,
        Some(raw_seed) => match raw_seed.parse::<u64>() {
            Ok(seed) => spec.with("seed", seed),
            Err(_) => {
                inner.stats.rejected_bad_spec.inc();
                return Response::error(
                    400,
                    format!("`seed` must be an unsigned integer, got {raw_seed:?}"),
                );
            }
        },
    };
    // The canonical string — seed override applied — is the cache key,
    // so `/run?spec=sync&seed=7` and `/run?spec=sync%3Fseed%3D7` share
    // an entry.
    let key = spec.to_string();

    if let Some(body) = inner.cache.get(&key) {
        inner.stats.cache_hits.inc();
        return Response::ok(body.to_string()).with_header("X-Cache", "hit");
    }

    let cost = match inner.registry.validate_only(&spec) {
        Ok(cost) => cost,
        Err(e) => {
            inner.stats.rejected_bad_spec.inc();
            return Response::error(400, e.to_string());
        }
    };
    // Validation found the entry, so the canonical name exists; aliases
    // (`sync-mf` for `urn`) share their protocol's calibration.
    let protocol = inner
        .registry
        .find(spec.protocol())
        .map_or("unknown", |entry| entry.name());

    let deadline = Instant::now() + inner.deadline;
    let (reply_tx, reply_rx) = sync_channel(1);
    let job = Job {
        key,
        protocol,
        events: cost.events,
        reply: reply_tx,
        deadline,
        submitted: Instant::now(),
    };
    match inner.queue.try_submit(job) {
        Ok(()) => {}
        Err(SubmitError::Full { depth }) => {
            inner.stats.rejected_busy.inc();
            let retry_after = retry_after_secs(inner.queue.backlog_us(), inner.workers);
            return Response::error(429, format!("queue full ({depth} jobs pending)"))
                .with_header("Retry-After", retry_after.to_string());
        }
        Err(SubmitError::Draining) => {
            return Response::error(503, "server is draining; no new runs accepted");
        }
    }

    match reply_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        Ok(JobReply {
            result: Ok(body),
            from_cache,
        }) => Response::ok(body.to_string())
            .with_header("X-Cache", if from_cache { "hit" } else { "miss" }),
        Ok(JobReply {
            result: Err(reason),
            ..
        }) => {
            inner.stats.internal_errors.inc();
            Response::error(500, reason)
        }
        Err(RecvTimeoutError::Timeout) => {
            inner.stats.deadline_exceeded.inc();
            Response::error(503, "deadline exceeded before a worker finished the run").with_header(
                "Retry-After",
                retry_after_secs(inner.queue.backlog_us(), inner.workers).to_string(),
            )
        }
        Err(RecvTimeoutError::Disconnected) => {
            inner.stats.internal_errors.inc();
            Response::error(500, "worker dropped the job without replying")
        }
    }
}

/// `Retry-After` estimate in whole seconds: the queued jobs' summed
/// predicted service time (µs), divided across the worker pool, clamped
/// to [1, 30].
fn retry_after_secs(backlog_us: f64, workers: usize) -> u64 {
    let secs = (backlog_us / workers.max(1) as f64 / 1e6).ceil();
    // `as` saturates, so a huge backlog clamps to 30, not to 0.
    (secs as u64).clamp(1, 30)
}

fn worker_loop(inner: &Arc<Inner>) {
    while let Some(job) = inner.queue.pop_blocking() {
        inner
            .stats
            .queue_wait_us
            .record(duration_us(job.submitted.elapsed()));
        if Instant::now() >= job.deadline {
            // The requester already got its 503 — don't run for nobody.
            inner.stats.deadline_exceeded.inc();
            continue;
        }
        // Coalesce: an identical request may have populated the cache
        // while this job sat in the queue.
        if let Some(body) = inner.cache.get(&job.key) {
            inner.stats.cache_hits.inc();
            let _ = job.reply.send(JobReply {
                result: Ok(body),
                from_cache: true,
            });
            continue;
        }
        let started = Instant::now();
        let key = job.key.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let spec = RunSpec::parse(&key)?;
            let resolved = inner.registry.resolve(&spec)?;
            Ok::<String, plurality_api::SpecError>(resolved.run().wire_text())
        }));
        let result = match outcome {
            Ok(Ok(text)) => {
                let service_us = duration_us(started.elapsed());
                inner.stats.service_time_us.record(service_us);
                inner
                    .queue
                    .record_service(job.protocol, job.events, service_us);
                inner.stats.cache_misses.inc();
                let body: Arc<str> = Arc::from(text.as_str());
                inner.cache.insert(key, Arc::clone(&body));
                Ok(body)
            }
            // Can't normally happen — the spec was validated before it
            // was queued — but a worker must never die on one job.
            Ok(Err(e)) => Err(format!("spec failed to resolve after validation: {e}")),
            Err(panic) => Err(format!("engine panicked: {}", panic_message(panic))),
        };
        let _ = job.reply.send(JobReply {
            result,
            from_cache: false,
        });
    }
}

/// The message of a panic payload as `catch_unwind` returns it: a
/// `&str` for a literal `panic!` message, a `String` for a formatted one.
/// Taking the `Box` itself keeps callers from handing over a reference
/// to it, which would downcast the box rather than its payload.
fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let payload = &*panic;
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_spreads_the_predicted_backlog_over_the_workers() {
        let q = JobQueue::new(8, Duration::from_millis(50));
        // 2 µs per event.
        q.record_service("sync", 1_000_000, 2_000_000);
        let mut replies = Vec::new();
        for events in [1_000_000, 2_500_000, 500_000] {
            let (reply, rx) = sync_channel(1);
            replies.push(rx);
            let job = Job {
                key: format!("sync?seed={events}"),
                protocol: "sync",
                events,
                reply,
                deadline: Instant::now() + Duration::from_secs(60),
                submitted: Instant::now(),
            };
            q.try_submit(job).unwrap();
        }
        // 2 + 5 + 1 = 8 s of predicted work.
        assert!((q.backlog_us() - 8e6).abs() < 1e-3);
        assert_eq!(retry_after_secs(q.backlog_us(), 1), 8);
        assert_eq!(retry_after_secs(q.backlog_us(), 3), 3, "8/3 s rounds up");
        assert_eq!(retry_after_secs(0.0, 2), 1, "never below 1 s");
        assert_eq!(retry_after_secs(1e12, 2), 30, "never above 30 s");
    }

    #[test]
    fn panic_message_reads_literal_and_formatted_payloads() {
        let formatted = catch_unwind(|| panic!("boom {}", 1)).unwrap_err();
        assert_eq!(panic_message(formatted), "boom 1");
        let literal = catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(panic_message(literal), "boom");
    }
}
