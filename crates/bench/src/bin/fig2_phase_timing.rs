//! **Experiment E2 — Figure 2**: the phase-timing diagram of the
//! multi-leader protocol.
//!
//! Figure 2 sketches, for one generation, how fast and slow cluster leaders
//! pass through the two-choices → sleeping → propagation phases, with the
//! `t̂₀ … t̂₅` marks bounding the spread. Proposition 31 proves the spreads
//! are `O(1)` time units and that (a) every cluster runs two-choices for at
//! least one unit before the fastest sleeps, and (c) the first leader does
//! not wake before the last one sleeps. We run the multi-leader engine and
//! print the measured `t̂` marks per generation.

use plurality_bench::{is_full, results_dir, run_many};
use plurality_core::cluster::{phase_spread, ClusterConfig, ClusterPhase};
use plurality_core::InitialAssignment;
use plurality_stats::{fmt_f64, Table};

fn main() {
    let full = is_full();
    let n: u64 = if full { 100_000 } else { 30_000 };
    let k = 8u32;
    let alpha = 1.5;

    let result = run_many(0xF2, 1, |rep| {
        let assignment = InitialAssignment::with_bias(n, k, alpha).expect("valid assignment");
        ClusterConfig::new(assignment).with_seed(rep.seed).run()
    })
    .pop()
    .expect("one repetition");
    let c1 = result.steps_per_unit;

    println!(
        "n = {n}, k = {k}, α₀ = {:.3}; clusters = {} ({} participating, {:.1}% of nodes); C1 = {:.2} steps/unit",
        result.outcome.initial_bias,
        result.cluster_count,
        result.participating_clusters,
        100.0 * result.participating_fraction,
        c1
    );
    if let (Some(tf), Some(tl)) = (result.first_switch_time, result.last_switch_time) {
        println!(
            "consensus switch: t_f = {:.2}, t_l = {:.2}, spread = {:.3} units (Theorem 27: O(1))\n",
            tf,
            tl,
            (tl - tf) / c1
        );
    }

    let two = phase_spread(&result.phase_log, ClusterPhase::TwoChoices);
    let sleep = phase_spread(&result.phase_log, ClusterPhase::Sleeping);
    let prop = phase_spread(&result.phase_log, ClusterPhase::Propagation);

    let mut table = Table::new(
        "Figure 2: per-generation phase-change marks across clusters (t̂₀…t̂₅, time units)",
        &[
            "gen",
            "t̂₀ 2-choices first",
            "t̂₁ 2-choices last",
            "t̂₂ sleep first",
            "t̂₃ sleep last",
            "t̂₄ prop first",
            "t̂₅ prop last",
            "max spread",
        ],
    );
    let find = |list: &[(u32, f64, f64)], g: u32| -> Option<(f64, f64)> {
        list.iter()
            .find(|&&(gen, _, _)| gen == g)
            .map(|&(_, a, b)| (a, b))
    };
    let mut violations = 0u32;
    for &(g, t0_raw, t1_raw) in &two {
        let (t0, t1) = (t0_raw / c1, t1_raw / c1);
        let s = find(&sleep, g).map(|(a, b)| (a / c1, b / c1));
        let p = find(&prop, g).map(|(a, b)| (a / c1, b / c1));
        let spread = [
            t1 - t0,
            s.map(|(a, b)| b - a).unwrap_or(0.0),
            p.map(|(a, b)| b - a).unwrap_or(0.0),
        ]
        .into_iter()
        .fold(0.0f64, f64::max);
        // Prop 31(c): the first propagation must not precede the last sleep.
        if let (Some((_, s_last)), Some((p_first, _))) = (s, p) {
            if p_first < s_last - 1e-9 {
                violations += 1;
            }
        }
        table.row(&[
            g.to_string(),
            fmt_f64(t0),
            fmt_f64(t1),
            s.map(|(a, _)| fmt_f64(a)).unwrap_or_else(|| "-".into()),
            s.map(|(_, b)| fmt_f64(b)).unwrap_or_else(|| "-".into()),
            p.map(|(a, _)| fmt_f64(a)).unwrap_or_else(|| "-".into()),
            p.map(|(_, b)| fmt_f64(b)).unwrap_or_else(|| "-".into()),
            fmt_f64(spread),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Prop 31(c) violations (first propagation before last sleep): {violations} (paper: 0 whp.)"
    );
    println!(
        "note: a sleeping/propagation column shows '-' when every cluster advanced to the next\n\
         generation before that window opened (possible when promotions saturate early)."
    );

    let path = results_dir().join("fig2_phase_timing.csv");
    table.write_csv(&path).expect("write csv");
    println!("wrote {}", path.display());
}
