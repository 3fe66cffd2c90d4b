//! The bounded job queue between connection handlers and the worker
//! pool.
//!
//! Connection handlers [`JobQueue::try_submit`] jobs and wait on a
//! per-job reply channel; workers [`JobQueue::pop_blocking`] them. The
//! queue is the backpressure point of the whole server: when it is full,
//! `try_submit` fails *immediately* and the handler turns that into a
//! `429 Too Many Requests` with a `Retry-After` estimate — no request
//! ever waits in an unbounded buffer, so an overloaded server degrades
//! into fast rejections instead of unbounded latency.
//!
//! ## Order: cheapest predicted service time first
//!
//! Every job carries its run's price ([`plurality_api::Cost`], from
//! [`plurality_api::Registry::validate_only`]). The queue turns a price
//! into a predicted service time with its own measurements
//! ([`JobQueue::record_service`]): per protocol, summed service time over
//! summed priced events of its completed runs; a protocol with no
//! completed run uses that ratio over all protocols; before any run
//! completes every job is predicted alike, which is FIFO. `pop_blocking`
//! hands out the job with the least predicted time, in submission order
//! among equals — shortest job first, which minimises the mean wait when
//! run costs differ by orders of magnitude. One exception bounds what a
//! large job pays: a job that would still meet its deadline if served
//! now, but not after one more run of the cheapest job, goes first.
//!
//! Draining ([`JobQueue::drain`]) closes the queue for new submissions
//! while letting workers finish everything already accepted:
//! `pop_blocking` keeps handing out queued jobs and only returns `None`
//! once the queue is both draining *and* empty, which is each worker's
//! signal to exit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A unit of work: run the canonical spec string and reply with the
/// serialized report.
pub struct Job {
    /// Canonical [`plurality_api::RunSpec`] string — seed override
    /// already applied — doubling as the cache key.
    pub key: String,
    /// The canonical protocol name, which keys the service-time
    /// calibration.
    pub protocol: &'static str,
    /// The run's price in events ([`plurality_api::Cost::events`]).
    pub events: u64,
    /// Where the handler waits for the result (capacity-1 channel; the
    /// send never blocks).
    pub reply: SyncSender<JobReply>,
    /// When the requester stops waiting. Workers skip jobs whose
    /// deadline already passed instead of running them for nobody.
    pub deadline: Instant,
    /// When the handler submitted the job — the worker records the
    /// dequeue delay into the queue-wait histogram.
    pub submitted: Instant,
}

/// A worker's answer to a [`Job`].
pub struct JobReply {
    /// The serialized report, or an internal-error description.
    pub result: Result<Arc<str>, String>,
    /// Whether the body came from the report cache (either found by the
    /// handler before submitting, or by the worker after dequeuing —
    /// the latter happens when identical requests race).
    pub from_cache: bool,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — the client should retry later.
    Full {
        /// Queue depth observed at rejection time (== capacity).
        depth: usize,
    },
    /// The server is draining and accepts no new work.
    Draining,
}

/// Summed service time (µs) over summed priced events.
#[derive(Debug, Clone, Copy, Default)]
struct Ratio {
    us: f64,
    events: f64,
}

impl Ratio {
    fn add(&mut self, events: u64, us: u64) {
        self.us += us as f64;
        self.events += events as f64;
    }

    fn per_event(self) -> Option<f64> {
        (self.events > 0.0).then(|| self.us / self.events)
    }
}

/// What the queue holds behind its lock: the jobs in submission order,
/// and the measured service time per priced event.
#[derive(Default)]
struct Queued {
    jobs: Vec<Job>,
    per_protocol: HashMap<&'static str, Ratio>,
    all: Ratio,
}

impl Queued {
    /// Predicted service time of `job` in µs (`fallback_us` before any
    /// run has completed).
    fn predict_us(&self, job: &Job, fallback_us: f64) -> f64 {
        let ratio = self.per_protocol.get(job.protocol).copied();
        match ratio.and_then(Ratio::per_event).or(self.all.per_event()) {
            Some(per_event) => per_event * job.events as f64,
            None => fallback_us,
        }
    }

    /// Index of the job to serve next at `now` (the queue is non-empty).
    fn next(&self, now: Instant, fallback_us: f64) -> usize {
        let predicted: Vec<f64> = self
            .jobs
            .iter()
            .map(|job| self.predict_us(job, fallback_us))
            .collect();
        // The first of the least predicted: FIFO among equals.
        let cheapest = (1..predicted.len()).fold(0, |best, i| {
            if predicted[i] < predicted[best] {
                i
            } else {
                best
            }
        });
        // Jobs that can still meet their deadline if served now but
        // not after the cheapest one: the earliest deadline goes first.
        let urgent = self
            .jobs
            .iter()
            .enumerate()
            .filter(|&(i, job)| {
                let slack_us = job.deadline.saturating_duration_since(now).as_secs_f64() * 1e6;
                i != cheapest
                    && predicted[i] <= slack_us
                    && slack_us < predicted[cheapest] + predicted[i]
            })
            .min_by_key(|&(_, job)| job.deadline);
        urgent.map_or(cheapest, |(i, _)| i)
    }
}

/// Bounded multi-producer multi-consumer queue, served cheapest
/// predicted job first, with a drain protocol.
pub struct JobQueue {
    queued: Mutex<Queued>,
    not_empty: Condvar,
    capacity: usize,
    /// Predicted service time of every job before any run completes.
    fallback_us: f64,
    depth: AtomicUsize,
    draining: AtomicBool,
}

impl JobQueue {
    /// Creates a queue holding at most `capacity` pending jobs, which
    /// predicts `fallback` per job until the first run is measured.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a zero-capacity queue would reject
    /// every request.
    pub fn new(capacity: usize, fallback: Duration) -> Self {
        assert!(capacity > 0, "JobQueue: capacity must be positive");
        Self {
            queued: Mutex::new(Queued {
                jobs: Vec::with_capacity(capacity),
                ..Queued::default()
            }),
            not_empty: Condvar::new(),
            capacity,
            fallback_us: fallback.as_secs_f64() * 1e6,
            depth: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pending jobs right now (monitoring gauge; racy by nature).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Whether [`JobQueue::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Enqueues a job unless the queue is full or draining. Never
    /// blocks — this is the backpressure point.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] at capacity, [`SubmitError::Draining`]
    /// after [`JobQueue::drain`]; the job is dropped either way (its
    /// reply channel disconnects, which the handler observes).
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        if self.is_draining() {
            return Err(SubmitError::Draining);
        }
        let mut queued = self.queued.lock().expect("job queue poisoned");
        // Re-check under the lock: a drain begun between the fast check
        // and the lock must not lose the race.
        if self.is_draining() {
            return Err(SubmitError::Draining);
        }
        if queued.jobs.len() >= self.capacity {
            return Err(SubmitError::Full {
                depth: queued.jobs.len(),
            });
        }
        queued.jobs.push(job);
        self.depth.store(queued.jobs.len(), Ordering::Relaxed);
        drop(queued);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until a job is available and returns the one to serve
    /// next (see the module docs), or returns `None` once the queue is
    /// draining *and* empty — the worker's exit signal. Jobs accepted
    /// before the drain are always handed out, never dropped.
    pub fn pop_blocking(&self) -> Option<Job> {
        let mut queued = self.queued.lock().expect("job queue poisoned");
        loop {
            if !queued.jobs.is_empty() {
                let next = queued.next(Instant::now(), self.fallback_us);
                let job = queued.jobs.remove(next);
                self.depth.store(queued.jobs.len(), Ordering::Relaxed);
                return Some(job);
            }
            if self.is_draining() {
                return None;
            }
            queued = self.not_empty.wait(queued).expect("job queue poisoned");
        }
    }

    /// Feeds one completed run's measured service time into the
    /// predictions: `events` is the price its job carried.
    pub fn record_service(&self, protocol: &'static str, events: u64, service_us: u64) {
        let mut queued = self.queued.lock().expect("job queue poisoned");
        queued
            .per_protocol
            .entry(protocol)
            .or_default()
            .add(events, service_us);
        queued.all.add(events, service_us);
    }

    /// Summed predicted service time of the queued jobs, in µs.
    pub fn backlog_us(&self) -> f64 {
        let queued = self.queued.lock().expect("job queue poisoned");
        queued
            .jobs
            .iter()
            .map(|job| queued.predict_us(job, self.fallback_us))
            .sum()
    }

    /// Closes the queue for new work and wakes every blocked worker.
    /// Already-queued jobs still run to completion (graceful drain).
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Take the lock so no `pop_blocking` can miss the flag between
        // its empty-check and its wait.
        drop(self.queued.lock().expect("job queue poisoned"));
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use std::time::Duration;

    fn job(key: &str) -> (Job, std::sync::mpsc::Receiver<JobReply>) {
        priced(key, "sync", 1, Duration::from_secs(5))
    }

    /// A job of `protocol` priced at `events`, due `within` from now.
    fn priced(
        key: &str,
        protocol: &'static str,
        events: u64,
        within: Duration,
    ) -> (Job, std::sync::mpsc::Receiver<JobReply>) {
        let (tx, rx) = sync_channel(1);
        (
            Job {
                key: key.to_string(),
                protocol,
                events,
                reply: tx,
                deadline: Instant::now() + within,
                submitted: Instant::now(),
            },
            rx,
        )
    }

    fn queue(capacity: usize) -> JobQueue {
        JobQueue::new(capacity, Duration::from_millis(50))
    }

    /// Submits `(key, protocol, events)` jobs due in a minute and pops
    /// every one, returning the keys in the order they were served.
    fn served(q: &JobQueue, jobs: &[(&str, &'static str, u64)]) -> Vec<String> {
        let mut replies = Vec::new();
        for &(key, protocol, events) in jobs {
            let (job, rx) = priced(key, protocol, events, Duration::from_secs(60));
            q.try_submit(job).unwrap();
            replies.push(rx);
        }
        (0..jobs.len())
            .map(|_| q.pop_blocking().unwrap().key)
            .collect()
    }

    #[test]
    fn submissions_beyond_capacity_are_rejected_not_queued() {
        let q = queue(2);
        let (a, _ra) = job("a");
        let (b, _rb) = job("b");
        let (c, _rc) = job("c");
        assert!(q.try_submit(a).is_ok());
        assert!(q.try_submit(b).is_ok());
        assert_eq!(q.try_submit(c), Err(SubmitError::Full { depth: 2 }));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn drain_rejects_new_work_but_hands_out_queued_jobs() {
        let q = queue(4);
        let (a, _ra) = job("a");
        q.try_submit(a).unwrap();
        q.drain();
        let (b, _rb) = job("b");
        assert_eq!(q.try_submit(b), Err(SubmitError::Draining));
        // The queued job is still delivered…
        assert_eq!(q.pop_blocking().map(|j| j.key), Some("a".to_string()));
        // …and after it, workers are told to exit.
        assert!(q.pop_blocking().is_none());
    }

    #[test]
    fn pop_blocks_until_submit_and_drain_wakes_everyone() {
        let q = Arc::new(queue(4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_blocking().map(|j| j.key));
        std::thread::sleep(Duration::from_millis(20));
        let (a, _ra) = job("late");
        q.try_submit(a).unwrap();
        assert_eq!(popper.join().unwrap(), Some("late".to_string()));

        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop_blocking().is_none())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        q.drain();
        for w in waiters {
            assert!(w.join().unwrap(), "drained pop must return None");
        }
    }

    #[test]
    fn the_cheapest_predicted_job_goes_first() {
        let q = queue(8);
        // 10 µs per event for `leader`, 1 µs per event for `urn`.
        q.record_service("leader", 1_000, 10_000);
        q.record_service("urn", 1_000, 1_000);
        let order = served(
            &q,
            &[
                ("leader-big", "leader", 3_000),
                ("urn", "urn", 5_000),
                ("leader-small", "leader", 1_000),
            ],
        );
        // Predicted 30 ms, 5 ms and 10 ms.
        assert_eq!(order, ["urn", "leader-small", "leader-big"]);
    }

    #[test]
    fn an_uncalibrated_protocol_is_predicted_from_the_ratio_over_all() {
        let q = queue(8);
        q.record_service("leader", 1_000, 10_000);
        q.record_service("urn", 3_000, 2_000);
        // 12 ms over 4,000 events: 3 µs per event for `sync`.
        let order = served(&q, &[("leader", "leader", 1_000), ("sync", "sync", 3_000)]);
        assert_eq!(order, ["sync", "leader"], "9 ms before 10 ms");
        let (job, _rx) = priced("sync", "sync", 3_000, Duration::from_secs(60));
        q.try_submit(job).unwrap();
        assert!((q.backlog_us() - 9_000.0).abs() < 1e-6);
    }

    #[test]
    fn equal_predictions_and_an_uncalibrated_queue_serve_in_submission_order() {
        let q = queue(8);
        // Before any run completes, every job is predicted alike: FIFO.
        let jobs = [
            ("a", "cluster", 9_000),
            ("b", "urn", 10),
            ("c", "sync", 500),
        ];
        assert_eq!(served(&q, &jobs), ["a", "b", "c"]);
        assert!((q.backlog_us() - 0.0).abs() < 1e-9);
        let (job, _rx) = priced("d", "urn", 10, Duration::from_secs(60));
        q.try_submit(job).unwrap();
        assert!((q.backlog_us() - 50_000.0).abs() < 1e-6, "the fallback");
        q.pop_blocking().unwrap();

        q.record_service("sync", 100, 100);
        let jobs = [("x", "sync", 7), ("y", "sync", 7), ("z", "sync", 7)];
        assert_eq!(served(&q, &jobs), ["x", "y", "z"]);
    }

    #[test]
    fn a_job_that_would_miss_its_deadline_behind_one_more_cheap_job_goes_first() {
        let q = queue(8);
        // One second per event.
        q.record_service("leader", 1, 1_000_000);
        let (cheap, _r1) = priced("cheap", "leader", 1, Duration::from_secs(600));
        // 2 s of work due in 2.5 s: it makes it now, not after the 1 s job.
        let (tight, _r2) = priced("tight", "leader", 2, Duration::from_millis(2_500));
        // 2 s of work due in 10 s: it can wait.
        let (loose, _r3) = priced("loose", "leader", 2, Duration::from_secs(10));
        // 5 s of work due in 3 s: lost either way, so it does not jump.
        let (hopeless, _r4) = priced("hopeless", "leader", 5, Duration::from_secs(3));
        for job in [loose, hopeless, cheap, tight] {
            q.try_submit(job).unwrap();
        }
        let order: Vec<String> = (0..4).map(|_| q.pop_blocking().unwrap().key).collect();
        assert_eq!(order, ["tight", "cheap", "loose", "hopeless"]);
    }

    #[test]
    fn drain_hands_out_every_queued_job_cheapest_first() {
        let q = queue(8);
        q.record_service("sync", 1, 1);
        for (key, events) in [("c", 30), ("a", 10), ("b", 20)] {
            let (job, _rx) = priced(key, "sync", events, Duration::from_secs(60));
            q.try_submit(job).unwrap();
        }
        q.drain();
        let (late, _rx) = job("late");
        assert_eq!(q.try_submit(late), Err(SubmitError::Draining));
        let order: Vec<String> = std::iter::from_fn(|| q.pop_blocking().map(|j| j.key)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = queue(0);
    }
}
