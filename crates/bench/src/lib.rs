//! # plurality-bench
//!
//! Experiment harness for the `plurality` workspace. The `experiments`
//! binary runs the line-based manifests under `experiments/` (see
//! [`manifest`]): each one reproduces the tables of one EXPERIMENTS.md
//! entry and checks its claims with `assert` lines. The other binaries
//! in `src/bin/` cover what a manifest cannot express (Figure 1's
//! time-unit estimate, per-generation dumps of single runs, the schedule
//! ablation's `α` hint, the perf snapshot, the load generator and
//! `ab_pairs`, the A/B command over two perfbench builds). The snapshot
//! and the load generator record their numbers as
//! `benchmarks/BENCH_<suite>.json` snapshots, whose format
//! [`write_suite_json`] and [`baseline_entries`] own.
//!
//! Every experiment accepts an optional `full` argument (or the
//! environment variable `PLURALITY_EFFORT=full`) to run at publication
//! scale; the default "quick" scale finishes in seconds to a few minutes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;

use plurality_dist::rng::derive_seed;
use std::path::{Path, PathBuf};

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

/// Environment variable naming the directory the `BENCH_<suite>.json`
/// snapshots are written to and read from (default `benchmarks/`).
pub const BENCH_JSON_ENV: &str = "PLURALITY_BENCH_JSON";

/// The directory of the committed snapshots, relative to the repository
/// root.
pub const COMMITTED_DIR: &str = "benchmarks";

/// The snapshot directory: `PLURALITY_BENCH_JSON`, else `benchmarks/`.
pub fn snapshot_dir() -> PathBuf {
    std::env::var(BENCH_JSON_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(COMMITTED_DIR))
}

/// Writes a `BENCH_<suite>.json` snapshot: a `suite`/`unit` header plus
/// a flat `"results"` map with one `"name": value` pair per line, in
/// the order given. Values are written with two decimals; NaN and ±∞
/// are not JSON tokens, so they are written as `null`.
pub fn write_suite_json(
    path: &Path,
    suite: &str,
    unit: &str,
    results: &[(String, f64)],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"suite\": \"{}\",\n", escape_json(suite)));
    out.push_str(&format!("  \"unit\": \"{}\",\n", escape_json(unit)));
    out.push_str("  \"results\": {\n");
    for (i, (name, value)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let rendered = if value.is_finite() {
            format!("{value:.2}")
        } else {
            "null".to_string()
        };
        out.push_str(&format!(
            "    \"{}\": {rendered}{comma}\n",
            escape_json(name)
        ));
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out)
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Reads back the `"name": value` pairs of the `"results"` object of a
/// snapshot written by [`write_suite_json`], in file order; a `null`
/// value reads as NaN. Names are returned as written (still escaped).
pub fn baseline_entries(text: &str) -> Vec<(String, f64)> {
    let mut entries = Vec::new();
    let mut in_results = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("\"results\"") {
            in_results = true;
            continue;
        }
        if !in_results {
            continue;
        }
        if trimmed.starts_with('}') {
            break;
        }
        if let Some((key, value)) = trimmed.strip_prefix('"').and_then(|r| r.split_once("\": ")) {
            let value = value.trim_end_matches(',').parse().unwrap_or(f64::NAN);
            entries.push((key.to_string(), value));
        }
    }
    entries
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
    fn snapshot_round_trips_in_order_with_escapes_and_nulls() {
        let dir = std::env::temp_dir().join(format!("plurality-snapshot-{}", std::process::id()));
        let path = dir.join("BENCH_demo.json");
        let rows = vec![
            ("group/plain".to_string(), 123.456),
            ("group/quo\"te".to_string(), 7.0),
            ("group/broken".to_string(), f64::NAN),
            ("group/last".to_string(), 0.004),
        ];
        write_suite_json(&path, "demo", "ns", &rows).expect("write snapshot");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_dir_all(&dir).ok();
        assert!(text.starts_with("{\n  \"suite\": \"demo\",\n  \"unit\": \"ns\",\n"));
        assert!(text.contains("    \"group/plain\": 123.46,\n"));
        assert!(text.contains("    \"group/broken\": null,\n"));
        assert!(text.ends_with("    \"group/last\": 0.00\n  }\n}\n"));
        assert!(!text.contains("NaN"), "NaN must never reach the file");

        let read = baseline_entries(&text);
        let names: Vec<&str> = read.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            [
                "group/plain",
                "group/quo\\\"te",
                "group/broken",
                "group/last"
            ]
        );
        assert_eq!(read[0].1, 123.46);
        assert_eq!(read[1].1, 7.0);
        assert!(read[2].1.is_nan());
        assert_eq!(read[3].1, 0.0);
    }

    #[test]
    fn committed_snapshots_rewrite_byte_identically() {
        let dir = std::env::temp_dir().join(format!("plurality-rewrite-{}", std::process::id()));
        for name in ["BENCH_perf_snapshot.json", "BENCH_serve.json"] {
            let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
            let text = std::fs::read_to_string(committed.join(name)).expect("committed snapshot");
            let header = |key: &str| {
                let line = text.lines().find_map(|l| l.trim().strip_prefix(key));
                line.and_then(|rest| rest.strip_suffix("\","))
                    .expect("header line")
                    .to_string()
            };
            let (suite, unit) = (header("\"suite\": \""), header("\"unit\": \""));
            let path = dir.join(name);
            write_suite_json(&path, &suite, &unit, &baseline_entries(&text)).expect("write");
            let rewritten = std::fs::read_to_string(&path).expect("read back");
            assert_eq!(rewritten, text, "{name} changed on rewrite");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn theorem_bias_exceeds_one() {
        assert!(theorem_bias(10_000, 8) > 1.0);
        assert!(theorem_bias(100, 2) > 1.0);
        // Larger k needs more bias at fixed n.
        assert!(theorem_bias(100_000, 64) > theorem_bias(100_000, 4));
    }
}
