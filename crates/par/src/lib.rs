//! # plurality-par
//!
//! Deterministic parallel execution layer for the `plurality` workspace.
//!
//! Every theorem-scale experiment is embarrassingly parallel over its
//! repetitions: repetition `i` owns the private seed
//! `derive_seed(master, i)`, so no RNG state is shared between jobs and
//! the only ordering that could leak into results is the order in which
//! per-job outputs are *merged*. The maps in this crate pin that order to
//! the job index, which yields the workspace's parallel determinism
//! contract:
//!
//! > For any thread count (including 1), [`par_map_seeded`] returns a
//! > vector that is bitwise identical to the serial evaluation
//! > `(0..jobs).map(|i| f(i, derive_seed(master, i))).collect()`.
//!
//! The contract holds because
//!
//! 1. **seed streams cannot collide** — `derive_seed` is an injective-in-
//!    practice splitmix64-style mix over `(master, index)`, and each job
//!    seeds its own `Xoshiro256PlusPlus`, so jobs never observe each
//!    other's randomness;
//! 2. **merge order is fixed** — workers return `(index, result)` pairs
//!    and results are placed into the output vector by index, never in
//!    completion order;
//! 3. **no shared mutable state** — the job closure is `Fn` (`&self`)
//!    and results are moved, not accumulated in place.
//!
//! The scheduler is a `std::thread::scope`-based work-stealing loop over
//! an index-chunked job list: workers repeatedly `fetch_add` a chunk of
//! indices off a shared atomic cursor, so long-running jobs do not
//! serialize behind a static partition. There are no dependencies beyond
//! `std` and `plurality-dist` (for [`derive_seed`]), keeping the crate
//! offline-friendly.
//!
//! The thread count comes from the `PLURALITY_THREADS` environment
//! variable (see [`configured_threads`]); `PLURALITY_THREADS=1` is the
//! escape hatch that forces fully serial execution, which — by the
//! contract above — must not change any result. [`par_map_seeded_with`]
//! takes an explicit thread count for callers (tests, benchmarks) that
//! need to compare thread counts inside one process.
//!
//! # Examples
//!
//! ```
//! use plurality_par::{par_map_seeded, par_map_seeded_with};
//!
//! // Four jobs, each hashing its own derived seed.
//! let parallel = par_map_seeded(7, 4, |i, seed| (i, seed.wrapping_mul(2)));
//! let serial = par_map_seeded_with(1, 7, 4, |i, seed| (i, seed.wrapping_mul(2)));
//! assert_eq!(parallel, serial);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use plurality_dist::rng::derive_seed;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable controlling the worker-thread count
/// (`PLURALITY_THREADS`). Unset or unparsable values fall back to the
/// host's available parallelism; `1` forces serial execution.
pub const THREADS_ENV: &str = "PLURALITY_THREADS";

/// The worker-thread count in effect: `PLURALITY_THREADS` if set to a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (or 1 if even that is unavailable).
pub fn configured_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(t) if t >= 1 => t,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `0..jobs` on `threads` workers, returning results in
/// index order. The core primitive behind every other map in this crate;
/// see the crate docs for the determinism contract.
///
/// With `threads == 1` (or fewer than two jobs) the map runs inline on
/// the calling thread with zero scheduling overhead.
///
/// # Panics
///
/// Panics if `threads == 0`, or re-raises the first worker panic
/// observed (jobs already claimed by other workers still run to
/// completion before the panic propagates).
fn par_map_indexed_with<R, F>(threads: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(threads >= 1, "par_map: thread count must be positive");
    if threads == 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    let workers = threads.min(jobs);
    // Index-chunked job list: hand out small contiguous runs so the
    // atomic cursor is touched O(jobs / chunk) times, while chunks stay
    // small enough that slow jobs cannot strand work on one thread.
    let chunk = (jobs / (workers * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let job = &f;
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= jobs {
                            break;
                        }
                        let end = (start + chunk).min(jobs);
                        for index in start..end {
                            local.push((index, job(index)));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(results) => results,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Merge in index order — the completion order of workers never
    // influences the output.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs);
    slots.resize_with(jobs, || None);
    for (index, result) in buckets.into_iter().flatten() {
        debug_assert!(slots[index].is_none(), "job {index} produced twice");
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index filled exactly once"))
        .collect()
}

/// Maps `f(index, derive_seed(master, index))` over `0..jobs` in
/// parallel, with results in index order — the repetition fan-out every
/// experiment binary runs on.
///
/// # Examples
///
/// ```
/// use plurality_dist::rng::derive_seed;
/// use plurality_par::par_map_seeded;
///
/// let seeds = par_map_seeded(42, 3, |_, seed| seed);
/// assert_eq!(seeds, (0..3).map(|i| derive_seed(42, i)).collect::<Vec<_>>());
/// ```
pub fn par_map_seeded<R, F>(master: u64, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, u64) -> R + Sync,
{
    par_map_seeded_with(configured_threads(), master, jobs, f)
}

/// [`par_map_seeded`] with an explicit thread count.
pub fn par_map_seeded_with<R, F>(threads: usize, master: u64, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, u64) -> R + Sync,
{
    par_map_indexed_with(threads, jobs, |i| f(i, derive_seed(master, i as u64)))
}

/// Maps `f` over a slice in parallel, preserving item order — for
/// parameter sweeps whose cells draw no shared randomness (each cell
/// either owns a fixed seed or derives its own).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed_with(configured_threads(), items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn matches_serial_for_every_thread_count() {
        let serial: Vec<u64> = (0..97)
            .map(|i| (i as u64).wrapping_mul(0x9E37) ^ 13)
            .collect();
        for threads in [1, 2, 3, 4, 8, 97, 200] {
            let parallel =
                par_map_indexed_with(threads, 97, |i| (i as u64).wrapping_mul(0x9E37) ^ 13);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn seeded_map_matches_derive_seed_stream() {
        let expected: Vec<u64> = (0..32).map(|i| derive_seed(0xFEED, i)).collect();
        for threads in [1, 4] {
            let got = par_map_seeded_with(threads, 0xFEED, 32, |_, seed| seed);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = par_map_indexed_with(4, 1000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn slice_map_preserves_order() {
        let items: Vec<i32> = (0..50).rev().collect();
        let doubled = par_map(&items, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_jobs() {
        assert_eq!(par_map_indexed_with(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed_with(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            par_map_indexed_with(2, 8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        par_map_indexed_with(0, 4, |i| i);
    }
}
