//! **Experiment E22 — mean-field scaling**: rounds-to-consensus vs `n`
//! over `n = 10⁴ … 10⁹` on the count-pool engines.
//!
//! The per-node engines stop near 10⁶–10⁷ agents; the count-pool
//! backends have cost independent of `n`, so this sweep runs the same
//! protocol across six orders of magnitude and fits the growth law
//! directly:
//!
//! * `urn` (alias `sync-mf`) — the paper's synchronous protocol reduces
//!   all `log` terms to `log log n` at fixed `k`, so rounds should be
//!   *almost flat* in `ln n` (slope well below 1 round per e-fold);
//! * `leader-mf` — Theorem 13's `O(log n)` time-unit bound should show
//!   as a clean *linear* fit of consensus time against `ln n`;
//! * `majority3-mf` / `undecided-mf` — the classical `Θ(log n)`
//!   gossip bounds, again linear in `ln n`.
//!
//! Each cell averages fixed-seed repetitions via the shared
//! `run_many` seed stream, so the sweep is reproducible bit for bit.

use plurality_agg::{LeaderMfConfig, Majority3MfConfig, UndecidedMfConfig};
use plurality_bench::{is_full, results_dir, run_many, run_sweep};
use plurality_core::sync::UrnConfig;
use plurality_stats::{fit, fmt_f64, Axis, OnlineStats, Table};

const NS: [u64; 6] = [
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

struct Cell {
    n: u64,
    stats: OnlineStats,
    preserved: u64,
}

fn sweep(reps: usize, f: impl Fn(u64, u64) -> (f64, bool) + Sync) -> Vec<Cell> {
    run_sweep(&NS, |&n| {
        let mut stats = OnlineStats::new();
        let mut preserved = 0u64;
        for (value, ok) in run_many(0xE22 ^ n, reps, |rep| f(n, rep.seed)) {
            stats.push(value);
            preserved += u64::from(ok);
        }
        Cell {
            n,
            stats,
            preserved,
        }
    })
}

/// Renders one protocol's sweep and returns the `(ln n, mean)` fit.
fn report(title: &str, unit: &str, cells: &[Cell], reps: usize) -> (Table, f64, f64) {
    let mut table = Table::new(title, &["n", unit, "sd", "plurality kept"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for cell in cells {
        table.row(&[
            format!("{:e}", cell.n as f64),
            fmt_f64(cell.stats.mean()),
            fmt_f64(cell.stats.sample_sd()),
            format!("{}/{reps}", cell.preserved),
        ]);
        xs.push(cell.n as f64);
        ys.push(cell.stats.mean());
    }
    let f = fit(&xs, &ys, Axis::Log, Axis::Linear);
    (table, f.slope, f.r_squared)
}

fn main() {
    let reps = if is_full() { 50 } else { 10 };
    let (k, alpha) = (8u32, 1.5f64);

    let sync = sweep(reps, |n, seed| {
        let r = UrnConfig::new(n, k, alpha)
            .expect("valid")
            .with_seed(seed)
            .run();
        (r.rounds as f64, r.outcome.plurality_preserved())
    });
    let (t, slope, r2) = report(
        format!("E22 (a): urn rounds vs n (k = {k}, α₀ = {alpha})").as_str(),
        "rounds",
        &sync,
        reps,
    );
    println!("{}", t.render());
    println!(
        "rounds vs ln n: slope {slope:.3}, R² {r2:.4} \
         (paper: additive log log n — near-flat)\n"
    );
    assert!(
        slope.abs() < 1.0,
        "urn rounds grew {slope:.3} per e-fold of n — faster than log log n allows"
    );
    let csv_sync = t;

    let leader = sweep(reps, |n, seed| {
        let r = LeaderMfConfig::new(n, 4, 3.0)
            .expect("valid")
            .with_seed(seed)
            .run();
        (
            r.outcome.consensus_time.expect("leader-mf converges"),
            r.outcome.plurality_preserved(),
        )
    });
    let (t, slope, r2) = report(
        "E22 (b): leader-mf consensus time vs n (k = 4, α₀ = 3)",
        "time units",
        &leader,
        reps,
    );
    println!("{}", t.render());
    println!(
        "time vs ln n: slope {slope:.3}, R² {r2:.4} \
         (Theorem 13: O(log n) time units — linear in ln n)\n"
    );
    assert!(
        slope > 0.0 && r2 > 0.9,
        "leader-mf time is not linear in ln n (slope {slope:.3}, R² {r2:.4})"
    );
    let csv_leader = t;

    let m3 = sweep(reps, |n, seed| {
        let r = Majority3MfConfig::new(n, k, alpha)
            .expect("valid")
            .with_seed(seed)
            .run();
        (r.rounds as f64, r.outcome.plurality_preserved())
    });
    let (t, slope, r2) = report(
        format!("E22 (c): 3-majority-mf rounds vs n (k = {k}, α₀ = {alpha})").as_str(),
        "rounds",
        &m3,
        reps,
    );
    println!("{}", t.render());
    println!("rounds vs ln n: slope {slope:.3}, R² {r2:.4} (classical Θ(log n))\n");
    let csv_m3 = t;

    let ud = sweep(reps, |n, seed| {
        let r = UndecidedMfConfig::new(n, k, alpha)
            .expect("valid")
            .with_seed(seed)
            .run();
        (r.rounds as f64, r.outcome.plurality_preserved())
    });
    let (t, slope, r2) = report(
        format!("E22 (d): undecided-mf rounds vs n (k = {k}, α₀ = {alpha})").as_str(),
        "rounds",
        &ud,
        reps,
    );
    println!("{}", t.render());
    println!("rounds vs ln n: slope {slope:.3}, R² {r2:.4} (classical Θ(log n))\n");
    let csv_ud = t;

    for (name, table) in [
        ("e22_mf_sync_vs_n.csv", &csv_sync),
        ("e22_mf_leader_vs_n.csv", &csv_leader),
        ("e22_mf_majority3_vs_n.csv", &csv_m3),
        ("e22_mf_undecided_vs_n.csv", &csv_ud),
    ] {
        let path = results_dir().join(name);
        table.write_csv(&path).expect("write csv");
        println!("wrote {}", path.display());
    }
}
