//! # plurality-bench
//!
//! Experiment harness for the `plurality` workspace. The `experiments`
//! binary runs the line-based manifests under `experiments/` (see
//! [`manifest`]): each one reproduces the tables of one EXPERIMENTS.md
//! entry and checks its claims with `assert` lines. The other binaries
//! in `src/bin/` cover what a manifest cannot express (per-generation
//! dumps of single runs, paired specs, the time-unit estimate, the perf
//! snapshot and the load generator); the Criterion benches in `benches/`
//! cover engine and sampler throughput plus smoke-size versions of the
//! main experiments.
//!
//! Every experiment accepts an optional `full` argument (or the
//! environment variable `PLURALITY_EFFORT=full`) to run at publication
//! scale; the default "quick" scale finishes in seconds to a few minutes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;

use plurality_dist::rng::derive_seed;
use std::path::PathBuf;

/// Whether the current invocation asked for the full-scale experiment
/// (argument `full` or `PLURALITY_EFFORT=full`).
pub fn is_full() -> bool {
    std::env::args().any(|a| a == "full")
        || std::env::var("PLURALITY_EFFORT")
            .map(|v| v == "full")
            .unwrap_or(false)
}

/// Directory where experiment CSVs are written (`results/` under the
/// workspace root, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("PLURALITY_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Derives `reps` per-repetition seeds from a master seed — stable across
/// runs so experiments are reproducible. [`run_many`] walks the same
/// stream, so converting a serial `for seed in seeds(m, reps)` loop into
/// `run_many(m, reps, ...)` preserves every per-repetition seed.
pub fn seeds(master: u64, reps: usize) -> Vec<u64> {
    (0..reps as u64).map(|i| derive_seed(master, i)).collect()
}

/// One repetition of a seeded experiment: its index in the repetition
/// stream and the private seed `derive_seed(master, index)` it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repetition {
    /// Position in the repetition stream (`0..reps`).
    pub index: usize,
    /// The repetition's private RNG seed.
    pub seed: u64,
}

/// Runs `reps` independent repetitions of a seeded experiment in
/// parallel (worker count from `PLURALITY_THREADS`, see
/// [`plurality_par::configured_threads`]), returning results in
/// repetition order.
///
/// This is the one rep loop all experiment binaries share. The results
/// are **identical to serial execution** for any thread count: each
/// repetition owns the seed `derive_seed(master, index)` (the same
/// stream [`seeds`] produces), no RNG state is shared, and the output
/// order is fixed by repetition index — so folding the returned vector
/// into `OnlineStats`/tables in order reproduces exactly what the old
/// hand-rolled `for seed in seeds(...)` loops computed.
///
/// # Examples
///
/// ```
/// use plurality_bench::{run_many, seeds};
///
/// let results = run_many(7, 4, |rep| rep.seed);
/// assert_eq!(results, seeds(7, 4));
/// ```
pub fn run_many<R, F>(master: u64, reps: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Repetition) -> R + Sync,
{
    plurality_par::par_map_seeded(master, reps, |index, seed| f(Repetition { index, seed }))
}

/// Maps `f` over the cells of a parameter sweep in parallel, preserving
/// cell order. For sweeps whose cells are deterministic given their own
/// parameters (fixed or derived seeds) — e.g. the Figure 1 Monte-Carlo
/// quantile curve.
pub fn run_sweep<T, R, F>(cells: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    plurality_par::par_map(cells, f)
}

/// Resolves a [`plurality_api::RunSpec`] string once and runs `reps`
/// seeded repetitions in parallel — [`run_many`] for the unified
/// facade. Repetition `i` runs with seed `derive_seed(master, i)`, the
/// same stream [`seeds`] produces, so a converted experiment reproduces
/// its direct-builder numbers exactly (the facade's bitwise contract).
///
/// # Panics
///
/// Panics if the spec does not parse or resolve — experiment binaries
/// hard-code their specs, so a bad spec is a bug, not an input error.
///
/// # Examples
///
/// ```
/// use plurality_bench::run_spec_many;
///
/// let reports = run_spec_many("two-choices?n=400&k=2&alpha=3.0", 7, 2);
/// assert_eq!(reports.len(), 2);
/// assert!(reports.iter().all(|r| r.outcome.plurality_preserved()));
/// ```
pub fn run_spec_many(spec: &str, master: u64, reps: usize) -> Vec<plurality_api::Report> {
    let parsed = plurality_api::RunSpec::parse(spec).expect("valid run spec");
    let resolved = plurality_api::Registry::standard()
        .resolve(&parsed)
        .unwrap_or_else(|e| panic!("unresolvable run spec `{spec}`: {e}"));
    run_many(master, reps, |rep| resolved.run_seeded(rep.seed))
}

/// Logarithmically spaced values from `lo` to `hi` (inclusive).
///
/// # Panics
///
/// Panics if `lo ≤ 0`, `hi ≤ lo`, or `points < 2`.
pub fn log_spaced(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(
        lo > 0.0 && hi > lo && points >= 2,
        "bad log_spaced arguments"
    );
    let step = (hi / lo).ln() / (points - 1) as f64;
    (0..points).map(|i| lo * (step * i as f64).exp()).collect()
}

/// The paper's bias lower bound `1 + (k·log n/√n)·log k` (Theorems 1, 13,
/// 26), clamped to at least `1 + 10/√n` so tiny instances stay feasible.
pub fn theorem_bias(n: u64, k: u32) -> f64 {
    let nf = n as f64;
    let kf = k as f64;
    let bound = kf * nf.log2() / nf.sqrt() * kf.log2().max(1.0);
    1.0 + bound.max(10.0 / nf.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_spaced_endpoints_and_monotone() {
        let v = log_spaced(1.0, 1000.0, 4);
        assert_eq!(v.len(), 4);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[3] - 1000.0).abs() < 1e-9);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = seeds(1, 5);
        let b = seeds(1, 5);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn run_many_matches_serial_seed_stream() {
        let serial: Vec<u64> = seeds(0xAB, 9).iter().map(|s| s.wrapping_mul(3)).collect();
        let parallel = run_many(0xAB, 9, |rep| rep.seed.wrapping_mul(3));
        assert_eq!(parallel, serial);
        let indices: Vec<usize> = run_many(0xAB, 9, |rep| rep.index);
        assert_eq!(indices, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn run_sweep_preserves_cell_order() {
        let cells = [3.0f64, 1.0, 2.0];
        let out = run_sweep(&cells, |x| x * 10.0);
        assert_eq!(out, vec![30.0, 10.0, 20.0]);
    }

    #[test]
    fn theorem_bias_exceeds_one() {
        assert!(theorem_bias(10_000, 8) > 1.0);
        assert!(theorem_bias(100, 2) > 1.0);
        // Larger k needs more bias at fixed n.
        assert!(theorem_bias(100_000, 64) > theorem_bias(100_000, 4));
    }
}
