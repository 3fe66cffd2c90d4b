//! Cross-validation: the mean-field aggregate engines must agree with
//! the per-node engines **in distribution** at overlapping `n`.
//!
//! Each pair runs ≥ 200 repetitions of both backends over a shared seed
//! set and compares
//!
//! * rounds / time to consensus with a two-sample Kolmogorov–Smirnov
//!   test, and
//! * the final-support marginal (winner identity) with a chi-square
//!   homogeneity test,
//!
//! using the helpers from `plurality-stats`. Every run is
//! seed-deterministic, so these are fixed-sample assertions, not flaky
//! statistical gates: a failure means the laws diverged, not bad luck.
//! The quick scales run in tier-1; the ≥ 10⁷-node cases are
//! `#[ignore]`d tier-2.

use plurality_agg::{LeaderMfConfig, Majority3MfConfig, PopulationMfConfig, UndecidedMfConfig};
use plurality_baselines::{Dynamics, DynamicsConfig, PopulationConfig, PopulationProtocol};
use plurality_core::leader::LeaderConfig;
use plurality_core::sync::{SyncConfig, UrnConfig};
use plurality_core::{InitialAssignment, RunOutcome};
use plurality_stats::{chi_square_homogeneity, ks_test};

const REPS: u64 = 200;
/// Fixed-seed acceptance threshold: with deterministic samples this is
/// a reproducible pass/fail line, far below any p the exact law attains.
const P_MIN: f64 = 1e-3;

fn winner_index(outcome: &RunOutcome) -> usize {
    outcome.winner().expect("run must reach consensus").index() as usize
}

fn tally(winners: &[usize], k: usize) -> Vec<u64> {
    let mut t = vec![0u64; k];
    for &w in winners {
        t[w] += 1;
    }
    t
}

fn assert_same_distribution(label: &str, a: &[f64], b: &[f64]) {
    let t = ks_test(a, b);
    assert!(
        t.p_value > P_MIN,
        "{label}: KS rejected, D = {:.4}, p = {:.2e}",
        t.statistic,
        t.p_value
    );
}

fn assert_same_marginal(label: &str, a: &[u64], b: &[u64]) {
    let nonzero = a.iter().zip(b).filter(|(&x, &y)| x + y > 0).count();
    if nonzero < 2 {
        // Both samples are concentrated on one category; homogeneity
        // then just means it is the *same* category.
        assert_eq!(a, b, "{label}: degenerate marginals differ");
        return;
    }
    let t = chi_square_homogeneity(a, b);
    assert!(
        t.p_value > P_MIN,
        "{label}: chi-square rejected, X² = {:.3} (df {}), p = {:.2e}",
        t.statistic,
        t.df,
        t.p_value
    );
}

#[test]
fn urn_agrees_with_per_node_sync() {
    let (n, k, alpha) = (2_000u64, 3u32, 1.5f64);
    let assignment = InitialAssignment::with_bias(n, k, alpha).unwrap();
    let mut rounds_node = Vec::new();
    let mut rounds_mf = Vec::new();
    let mut win_node = Vec::new();
    let mut win_mf = Vec::new();
    for seed in 0..REPS {
        let r = SyncConfig::new(assignment.clone()).with_seed(seed).run();
        rounds_node.push(r.rounds as f64);
        win_node.push(winner_index(&r.outcome));
        let m = UrnConfig::new(n, k, alpha).unwrap().with_seed(seed).run();
        rounds_mf.push(m.rounds as f64);
        win_mf.push(winner_index(&m.outcome));
    }
    assert_same_distribution("sync rounds", &rounds_node, &rounds_mf);
    assert_same_marginal(
        "sync winner",
        &tally(&win_node, k as usize),
        &tally(&win_mf, k as usize),
    );
}

#[test]
fn majority3_mf_agrees_with_per_node_3_majority() {
    let (n, k, alpha) = (1_000u64, 3u32, 1.3f64);
    let assignment = InitialAssignment::with_bias(n, k, alpha).unwrap();
    let mut rounds_node = Vec::new();
    let mut rounds_mf = Vec::new();
    let mut win_node = Vec::new();
    let mut win_mf = Vec::new();
    for seed in 0..REPS {
        let r = DynamicsConfig::new(Dynamics::ThreeMajority, assignment.clone())
            .with_seed(seed)
            .run();
        rounds_node.push(r.rounds as f64);
        win_node.push(winner_index(&r.outcome));
        let m = Majority3MfConfig::new(n, k, alpha)
            .unwrap()
            .with_seed(seed)
            .run();
        rounds_mf.push(m.rounds as f64);
        win_mf.push(winner_index(&m.outcome));
    }
    assert_same_distribution("3-majority rounds", &rounds_node, &rounds_mf);
    assert_same_marginal(
        "3-majority winner",
        &tally(&win_node, k as usize),
        &tally(&win_mf, k as usize),
    );
}

#[test]
fn undecided_mf_agrees_with_per_node_undecided() {
    let (n, k, alpha) = (1_000u64, 3u32, 1.3f64);
    let assignment = InitialAssignment::with_bias(n, k, alpha).unwrap();
    let mut rounds_node = Vec::new();
    let mut rounds_mf = Vec::new();
    let mut win_node = Vec::new();
    let mut win_mf = Vec::new();
    for seed in 0..REPS {
        let r = DynamicsConfig::new(Dynamics::Undecided, assignment.clone())
            .with_seed(seed)
            .run();
        rounds_node.push(r.rounds as f64);
        win_node.push(winner_index(&r.outcome));
        let m = UndecidedMfConfig::new(n, k, alpha)
            .unwrap()
            .with_seed(seed)
            .run();
        rounds_mf.push(m.rounds as f64);
        win_mf.push(winner_index(&m.outcome));
    }
    assert_same_distribution("undecided rounds", &rounds_node, &rounds_mf);
    assert_same_marginal(
        "undecided winner",
        &tally(&win_node, k as usize),
        &tally(&win_mf, k as usize),
    );
}

#[test]
fn population_mf_agrees_with_per_node_approx_majority() {
    let (n, a) = (600u64, 330u64);
    let mut time_node = Vec::new();
    let mut time_mf = Vec::new();
    let mut win_node = Vec::new();
    let mut win_mf = Vec::new();
    for seed in 0..REPS {
        let r = PopulationConfig::new(PopulationProtocol::ApproximateMajority, n, a)
            .with_seed(seed)
            .run();
        assert!(r.converged);
        time_node.push(r.outcome.consensus_time.unwrap());
        win_node.push(winner_index(&r.outcome));
        let m = PopulationMfConfig::new(n, a).with_seed(seed).run();
        assert!(m.converged);
        time_mf.push(m.outcome.consensus_time.unwrap());
        win_mf.push(winner_index(&m.outcome));
    }
    assert_same_distribution("approx-majority parallel time", &time_node, &time_mf);
    assert_same_marginal(
        "approx-majority winner",
        &tally(&win_node, 2),
        &tally(&win_mf, 2),
    );
}

#[test]
fn leader_mf_agrees_with_per_node_leader() {
    // The per-node event engine is the expensive side, so this pair runs
    // fewer (but still ≥ 100) repetitions; the mf side is negligible.
    let (n, k, alpha, reps) = (1_000u64, 2u32, 3.0f64, 120u64);
    let assignment = InitialAssignment::with_bias(n, k, alpha).unwrap();
    let mut time_node = Vec::new();
    let mut time_mf = Vec::new();
    for seed in 0..reps {
        let r = LeaderConfig::new(assignment.clone()).with_seed(seed).run();
        let m = LeaderMfConfig::new(n, k, alpha)
            .unwrap()
            .with_seed(seed)
            .run();
        if let (Some(tn), Some(tm)) = (r.outcome.consensus_time, m.outcome.consensus_time) {
            time_node.push(tn);
            time_mf.push(tm);
        }
    }
    // Consensus itself must be (nearly) universal on both sides.
    assert!(
        time_node.len() as u64 >= reps - reps / 10,
        "only {} / {reps} joint consensus runs",
        time_node.len()
    );
    assert_same_distribution("leader consensus time", &time_node, &time_mf);
}

// ---------------------------------------------------------------------
// Tier-2: the same laws at n ≥ 10⁷, where only aggregate backends (and
// the urn reduction, whose cost is n-independent) can run at all.
// ---------------------------------------------------------------------

#[test]
#[ignore = "tier-2: 400 ten-million-node urn runs"]
fn urn_at_ten_million_agrees_across_seed_windows() {
    // Disjoint seed windows make this a genuine two-sample comparison
    // (same seeds would reproduce the identical stream bitwise). At
    // alpha = 1 the start is perfectly uniform, so the winner marginal
    // is non-degenerate even at n = 10⁷.
    let (n, k) = (10_000_000u64, 8u32);
    let mut rounds_a = Vec::new();
    let mut rounds_b = Vec::new();
    let mut win_a = Vec::new();
    let mut win_b = Vec::new();
    for seed in 0..REPS {
        let a = UrnConfig::new(n, k, 1.0).unwrap().with_seed(seed).run();
        rounds_a.push(a.rounds as f64);
        win_a.push(winner_index(&a.outcome));
        let b = UrnConfig::new(n, k, 1.0)
            .unwrap()
            .with_seed(10_000 + seed)
            .run();
        rounds_b.push(b.rounds as f64);
        win_b.push(winner_index(&b.outcome));
    }
    assert_same_distribution("urn@1e7 rounds", &rounds_a, &rounds_b);
    assert_same_marginal(
        "urn@1e7 winner",
        &tally(&win_a, k as usize),
        &tally(&win_b, k as usize),
    );
}

#[test]
#[ignore = "tier-2: 200 ten-million-node tau-leap runs at two step sizes"]
fn leader_mf_at_ten_million_is_dt_robust() {
    // The leader backend is a discretization: halving the sub-step must
    // not move the consensus-time law (disjoint seed windows again).
    let (n, k, alpha, reps) = (10_000_000u64, 4u32, 3.0f64, 100u64);
    let mut coarse = Vec::new();
    let mut fine = Vec::new();
    for seed in 0..reps {
        let c = LeaderMfConfig::new(n, k, alpha)
            .unwrap()
            .with_seed(seed)
            .run();
        coarse.push(c.outcome.consensus_time.expect("coarse run converges"));
        let f = LeaderMfConfig::new(n, k, alpha)
            .unwrap()
            .with_dt(0.0625)
            .with_seed(10_000 + seed)
            .run();
        fine.push(f.outcome.consensus_time.expect("fine run converges"));
    }
    assert_same_distribution("leader-mf@1e7 dt robustness", &coarse, &fine);
}

#[test]
#[ignore = "tier-2: 800 ten-million-node gossip/population aggregate runs"]
fn gossip_and_population_mf_at_ten_million_are_seed_window_consistent() {
    // Self-consistency across disjoint seed windows at a scale no
    // per-node engine reaches: the law may not depend on which seeds
    // realized it.
    let n = 10_000_000u64;
    let mut m3_a = Vec::new();
    let mut m3_b = Vec::new();
    let mut ud_a = Vec::new();
    let mut ud_b = Vec::new();
    for seed in 0..REPS {
        m3_a.push(
            Majority3MfConfig::new(n, 8, 1.0)
                .unwrap()
                .with_seed(seed)
                .run()
                .rounds as f64,
        );
        m3_b.push(
            Majority3MfConfig::new(n, 8, 1.0)
                .unwrap()
                .with_seed(10_000 + seed)
                .run()
                .rounds as f64,
        );
        ud_a.push(
            UndecidedMfConfig::new(n, 8, 1.0)
                .unwrap()
                .with_seed(seed)
                .run()
                .rounds as f64,
        );
        ud_b.push(
            UndecidedMfConfig::new(n, 8, 1.0)
                .unwrap()
                .with_seed(10_000 + seed)
                .run()
                .rounds as f64,
        );
    }
    assert_same_distribution("majority3-mf@1e7 rounds", &m3_a, &m3_b);
    assert_same_distribution("undecided-mf@1e7 rounds", &ud_a, &ud_b);

    // Population winner marginal at a near-tie (gap ~ √n), where the
    // winner is genuinely random.
    let a0 = n / 2 + 1_000;
    let mut win_a = Vec::new();
    let mut win_b = Vec::new();
    for seed in 0..REPS {
        win_a.push(winner_index(
            &PopulationMfConfig::new(n, a0).with_seed(seed).run().outcome,
        ));
        win_b.push(winner_index(
            &PopulationMfConfig::new(n, a0)
                .with_seed(10_000 + seed)
                .run()
                .outcome,
        ));
    }
    assert_same_marginal(
        "population-mf@1e7 near-tie winner",
        &tally(&win_a, 2),
        &tally(&win_b, 2),
    );
}
