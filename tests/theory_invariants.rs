//! Integration: quantitative invariants from the paper's analysis, checked
//! on real end-to-end runs (moderate sizes, fixed seeds; the experiments
//! check the same claims at scale with repetitions).

use plurality::core::cluster::{phase_spread, ClusterConfig, ClusterPhase};
use plurality::core::leader::LeaderConfig;
use plurality::core::sync::{generations_needed, SyncConfig, GENERATION_CAP};
use plurality::core::{InitialAssignment, RecordLevel, RunOutcome};
use plurality::dist::{ChannelPattern, Latency, WaitingTime};
use plurality::par::par_map;
use plurality::scenario::Scenario;
use plurality::stats::ks_test;

#[test]
fn bias_roughly_squares_between_sync_generations() {
    // Lemma 4: α_i ≈ α²_{i−1} at generation birth. With n = 100k and α₀
    // around 1.2 the early chain is well concentrated; require the measured
    // ratio to be within [0.5, 2] of the squared prediction.
    let assignment = InitialAssignment::with_bias(100_000, 8, 1.2).unwrap();
    let r = SyncConfig::new(assignment).with_seed(41).run();
    let births = &r.outcome.generations;
    assert!(births.len() >= 3, "need a few generations");
    let mut checked = 0;
    for w in births.windows(2) {
        let predicted = w[0].bias * w[0].bias;
        if !predicted.is_finite() || !w[1].bias.is_finite() || predicted > 1e4 {
            break; // concentration no longer meaningful at extreme bias
        }
        let ratio = w[1].bias / predicted;
        assert!(
            (0.5..2.0).contains(&ratio),
            "generation {}: ratio {ratio} (bias {} vs predicted {predicted})",
            w[1].generation,
            w[1].bias
        );
        checked += 1;
    }
    assert!(checked >= 2, "checked too few generation pairs");
}

#[test]
fn sync_growth_factor_respects_two_minus_gamma() {
    // Proposition 9: within the growth window the newest generation grows
    // by ≈ (2 − γ) per round; sampling noise allows small dips.
    let gamma = 0.5;
    let assignment = InitialAssignment::with_bias(100_000, 16, 1.5).unwrap();
    let r = SyncConfig::new(assignment)
        .with_seed(42)
        .with_gamma(gamma)
        .with_record(RecordLevel::Full)
        .run();
    let series = r.newest_generation_fraction.expect("full record");
    let mut factors = Vec::new();
    let lo = gamma * gamma / 16.0;
    for w in series.values().windows(2) {
        if w[0] > lo && w[0] < gamma && w[1] > w[0] {
            factors.push(w[1] / w[0]);
        }
    }
    assert!(!factors.is_empty(), "no growth rounds observed");
    let mean = factors.iter().sum::<f64>() / factors.len() as f64;
    assert!(
        mean > 1.3,
        "mean growth factor {mean} far below (2 − γ) = {}",
        2.0 - gamma
    );
}

#[test]
#[ignore = "tier-2: n = 20 000 sampling run; run with `cargo test -- --ignored`"]
fn leader_phases_follow_the_protocol_order() {
    // Per generation: allowed ≤ first promotion < propagation (when the
    // propagation window opens at all).
    let assignment = InitialAssignment::with_bias(20_000, 32, 1.5).unwrap();
    let r = LeaderConfig::new(assignment)
        .with_seed(43)
        .with_steps_per_unit(9.3)
        .run();
    assert!(r.phases.len() >= 2);
    let mut prop_seen = 0;
    for p in &r.phases {
        if let Some(first) = p.first_promotion_at {
            assert!(p.allowed_at <= first, "gen {} promoted early", p.generation);
        }
        if let (Some(first), Some(prop)) = (p.first_promotion_at, p.propagation_at) {
            assert!(
                first < prop,
                "gen {}: propagation before any promotion",
                p.generation
            );
            prop_seen += 1;
        }
    }
    // With k = 32 the two-choices phase cannot saturate n/2, so propagation
    // windows must actually open.
    assert!(
        prop_seen >= 1,
        "no propagation window ever opened at k = 32"
    );
}

#[test]
#[ignore = "tier-2: n = 20 000 sampling run; run with `cargo test -- --ignored`"]
fn async_two_choices_window_is_about_two_units() {
    // Proposition 16: t′ ∈ (2, 2(1 + log n/√n)) time units. Allow slack for
    // the finite-n signal-travel latency the proof ignores.
    let n = 20_000u64;
    let assignment = InitialAssignment::with_bias(n, 32, 1.5).unwrap();
    let r = LeaderConfig::new(assignment)
        .with_seed(44)
        .with_steps_per_unit(9.3)
        .run();
    let c1 = r.steps_per_unit;
    let mut measured = Vec::new();
    for p in &r.phases {
        if let Some(prop) = p.propagation_at {
            measured.push((prop - p.allowed_at) / c1);
        }
    }
    assert!(!measured.is_empty());
    for t in &measured {
        assert!(
            (1.8..3.0).contains(t),
            "two-choices window {t} units outside (2, 2 + o(1)) with slack; all: {measured:?}"
        );
    }
}

#[test]
fn cluster_phase_lattice_never_regresses() {
    let assignment = InitialAssignment::with_bias(2_000, 2, 3.0).unwrap();
    let r = ClusterConfig::new(assignment)
        .with_seed(45)
        .with_steps_per_unit(12.0)
        .run();
    // Per cluster, the (generation, phase) pairs in the log must be
    // lexicographically non-decreasing over time.
    let mut last: std::collections::HashMap<u32, (u32, ClusterPhase)> =
        std::collections::HashMap::new();
    for &(_, e) in r.phase_log.entries() {
        if let Some(&(g, p)) = last.get(&e.cluster) {
            assert!(
                (e.generation, e.phase) >= (g, p),
                "cluster {} regressed from {:?} to {:?}",
                e.cluster,
                (g, p),
                (e.generation, e.phase)
            );
        }
        last.insert(e.cluster, (e.generation, e.phase));
    }
}

#[test]
fn generation_cap_matches_double_log_formula() {
    // G* = ⌈log₂ log_α n⌉ (+2 slack in our implementation): spot-check the
    // monotonicity and rough magnitude used by every engine.
    let g_weak = generations_needed(1_000_000, 1.01, GENERATION_CAP);
    let g_strong = generations_needed(1_000_000, 4.0, GENERATION_CAP);
    assert!(g_weak > g_strong);
    // log₂(ln 1e6 / ln 4) ≈ 3.3 ⇒ cap ≈ 4 + 2.
    assert!((4..=8).contains(&g_strong), "g_strong = {g_strong}");
}

#[test]
fn remark14_discrepancy_is_stable() {
    // Reproduction finding (EXPERIMENTS.md, E1): measured C1 exceeds the
    // paper's claimed 10/(3β) for slow channels but stays below the correct
    // Γ(7, β) majorant quantile.
    let wt = WaitingTime::new(
        Latency::exponential(1.0).unwrap(),
        ChannelPattern::SingleLeader,
    );
    let c1 = wt.time_unit(60_000, 4);
    assert!(c1 > wt.remark14_bound().unwrap());
    assert!(c1 <= wt.majorant_time_unit().unwrap());
}

#[test]
fn e17_pocket_blocks_full_consensus_off_the_complete_graph() {
    // Regression pin for EXPERIMENTS.md E17: on a sparse expander the
    // single-leader protocol still ε-converges, but a top-generation
    // minority pocket survives and full consensus never happens — while
    // the identical instance on the complete graph finishes cleanly.
    // Fixed seed; the contrast held for every probed seed.
    use plurality::api::run_spec;
    let sparse = run_spec("leader?n=2500&k=2&alpha=3&c1=9.3&max=600&topology=regular:8&seed=1")
        .expect("valid spec");
    assert!(
        sparse.outcome.epsilon_time.is_some(),
        "regular(8): ε-convergence should still happen"
    );
    assert!(
        sparse.outcome.consensus_time.is_none(),
        "regular(8): the E17 pocket should block full consensus"
    );
    let complete = run_spec("leader?n=2500&k=2&alpha=3&c1=9.3&max=600&seed=1").expect("valid spec");
    assert!(
        complete.outcome.plurality_preserved(),
        "complete graph: the same instance should fully converge"
    );
}

#[test]
fn e18_corruption_response_is_not_monotone_in_budget() {
    // Regression pin for EXPERIMENTS.md E18a: under the early ×3 adaptive
    // corruption schedule the *smaller* budget (0.05) leaves residual
    // pockets that block full consensus, while the larger one (0.10)
    // triggers enough re-mixing that the run finishes. ε-convergence and
    // plurality preservation hold either way.
    use plurality::api::run_spec;
    let spec_for = |budget: &str| {
        format!(
            "sync?n=20000&k=4&alpha=2&seed=7&scenario=corrupt:{budget}:adaptive@2;\
             corrupt:{budget}:adaptive@5;corrupt:{budget}:adaptive@8"
        )
    };
    let small = run_spec(&spec_for("0.05")).expect("valid spec");
    assert!(small.outcome.epsilon_time.is_some());
    assert!(
        small.outcome.consensus_time.is_none(),
        "budget 0.05 should strand corrupted pockets"
    );
    assert_eq!(small.outcome.winner(), Some(small.outcome.initial_winner));

    let large = run_spec(&spec_for("0.1")).expect("valid spec");
    assert!(
        large.outcome.plurality_preserved(),
        "budget 0.10 should fully converge on the initial plurality"
    );
}

#[test]
fn multi_leader_broadcast_spread_is_constant_units() {
    let assignment = InitialAssignment::with_bias(4_000, 2, 3.0).unwrap();
    let r = ClusterConfig::new(assignment)
        .with_seed(46)
        .with_steps_per_unit(12.0)
        .run();
    let c1 = r.steps_per_unit;
    for (g, first, last) in phase_spread(&r.phase_log, ClusterPhase::TwoChoices) {
        if g >= 2 {
            let spread = (last - first) / c1;
            assert!(spread < 8.0, "generation {g} spread {spread} units");
        }
    }
}

/// Runs `REPS` seeds of `run` with the run-long actions alone (the
/// jump-chain path, where loss is Poisson thinning of the send rates) and
/// with the same actions plus an inert scripted event (a latency factor
/// of 1 changes no law, but any timed event instantiates the environment,
/// which forces the per-signal path, where loss is a coin per signal).
/// Both are simulations of one process, so their ε-time distributions
/// must agree under KS, and so must their reached and `preserved` counts.
fn assert_jump_chains_match_per_signal<F>(label: &str, run: F)
where
    F: Fn(u64, Scenario) -> RunOutcome + Sync,
{
    const REPS: usize = 80;
    const RUN_LONG: &str = "signal-loss:0.3;stragglers:0.2:0.1";
    let sample = |spec: &str| {
        let scenario = Scenario::parse(spec).unwrap();
        let seeds: Vec<u64> = (0..REPS as u64).collect();
        let outcomes = par_map(&seeds, |&seed| run(seed, scenario.clone()));
        let eps: Vec<f64> = outcomes.iter().filter_map(|o| o.epsilon_time).collect();
        let preserved = outcomes.iter().filter(|o| o.plurality_preserved()).count();
        (eps, preserved)
    };
    let (chain, chain_preserved) = sample(RUN_LONG);
    let (signal, signal_preserved) = sample(&format!("{RUN_LONG};latency:1@0..1"));
    assert!(
        chain.len() >= REPS * 9 / 10 && signal.len() >= REPS * 9 / 10,
        "{label}: too few ε-convergences ({} / {})",
        chain.len(),
        signal.len()
    );
    let ks = ks_test(&chain, &signal);
    assert!(
        ks.p_value > 1e-3,
        "{label}: KS rejected, D = {:.4}, p = {:.2e}",
        ks.statistic,
        ks.p_value
    );
    assert!(
        chain_preserved.abs_diff(signal_preserved) <= REPS / 10,
        "{label}: preserved {chain_preserved} vs {signal_preserved}"
    );
}

#[test]
fn run_long_failures_keep_the_jump_chains_exact() {
    let assignment = InitialAssignment::with_bias(1_000, 2, 3.0).unwrap();
    assert_jump_chains_match_per_signal("leader", |seed, scenario| {
        LeaderConfig::new(assignment.clone())
            .with_seed(seed)
            .with_steps_per_unit(9.3)
            .with_scenario(scenario)
            .run()
            .outcome
    });
    // 30% loss sits past the clusters' cliff (≈ 18% at n = 800): no
    // cluster allows generation 2, so `preserved` is ≈ 0 on both paths.
    // A strong bias still ε-converges inside generation 1, and its
    // ε-time is set by the 0-signal windows the jump chains solve.
    let assignment = InitialAssignment::with_bias(800, 2, 8.0).unwrap();
    assert_jump_chains_match_per_signal("cluster", |seed, scenario| {
        ClusterConfig::new(assignment.clone())
            .with_seed(seed)
            .with_steps_per_unit(12.0)
            .with_max_time(400.0)
            .with_scenario(scenario)
            .run()
            .outcome
    });
}
