//! # plurality-agg
//!
//! Mean-field **aggregate engines**: a second execution layer that
//! represents the population as per-(opinion, generation/phase,
//! node-state) *counts* and advances whole Poisson-clock pools at once,
//! instead of simulating nodes one by one. Every per-node engine in the
//! workspace costs at least `O(n)` per round; the engines here cost
//! `O(cells²)` per step — independent of `n` — which moves the feasible
//! scale from `n ≈ 10⁴–10⁵` to `n ≈ 10⁹`, the regime the paper's
//! asymptotic `O(log n)` statements are actually about.
//!
//! Three mechanisms, all seed-deterministic on the workspace's xoshiro
//! streams:
//!
//! * **Multinomial pool splits** — conditioned on the current
//!   configuration, the occupants of a cell are exchangeable (complete
//!   graph), so their joint next-state is an exact multinomial over the
//!   cell's common outcome distribution, drawn via
//!   [`plurality_dist::multinomial_split`] (exact sequential conditioned
//!   binomials — no approximation in the law).
//! * **Pool-level jump chains** — waiting times for rare effective events
//!   (a population-protocol interaction that actually changes state, the
//!   κ-th 0-signal arrival at the leader) are drawn in closed form
//!   (negative-binomial skips, the displaced-Poisson
//!   [`plurality_core::signalflow::SignalFlow`] machinery) instead of
//!   iterating the uneventful steps.
//! * **Tau-leap pool advancement** — the asynchronous leader protocol's
//!   continuous-time pools (unlocked/locked, in-flight signals) advance
//!   in small time sub-steps with binomially-sampled pool transitions,
//!   converging to the per-node law as the sub-step shrinks.
//!
//! The gossip backends ([`Majority3MfConfig`], [`UndecidedMfConfig`])
//! are *exact*: they sample from the identical process law as their
//! per-node counterparts. The synchronous generation protocol needs no
//! backend here: its exact count-pool law is urn mode,
//! [`plurality_core::sync::UrnConfig`].
//! The population and leader backends ([`PopulationMfConfig`],
//! [`LeaderMfConfig`]) are distributionally faithful discretizations;
//! the cross-validation suite (`tests/cross_validation.rs`) pins the
//! agreement with two-sample KS / chi-square tests at overlapping `n`.
//!
//! These engines are mean-field by definition: the multinomial split is
//! exact *because* every node samples every other node uniformly. They
//! therefore deliberately have no topology or scenario knobs; the
//! unified facade (`plurality-api`, spec names `leader-mf`,
//! `population-mf`, `majority3-mf`, `undecided-mf`) enforces that as a
//! teaching error, exactly like urn mode.
//!
//! ## Example
//!
//! ```
//! use plurality_agg::Majority3MfConfig;
//! // 100 million nodes, 8 opinions — impossible node-by-node.
//! let r = Majority3MfConfig::new(100_000_000, 8, 2.0).unwrap().with_seed(1).run();
//! assert!(r.outcome.plurality_preserved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gossip;
mod leader;
mod population;

pub use gossip::{
    Majority3MfConfig, Majority3MfResult, UndecidedMfConfig, UndecidedMfResult, UNDECIDED_CELL,
};
pub use leader::{LeaderMfConfig, LeaderMfResult};
pub use population::{PopulationMfConfig, PopulationMfResult};

use plurality_dist::InvalidParameterError;

/// Derives the paper's canonical biased initial counts (opinion 0 leads
/// by the multiplicative factor `alpha`) shared by every aggregate
/// backend — count-level, never materializing `n` nodes.
///
/// This is the same arithmetic as `InitialAssignment::with_bias` /
/// `UrnConfig::new`: all trailing opinions get
/// `⌊n / (alpha + k − 1)⌋` supporters and opinion 0 the remainder.
pub(crate) fn biased_counts(n: u64, k: u32, alpha: f64) -> Result<Vec<u64>, InvalidParameterError> {
    if k < 2 {
        return Err(InvalidParameterError::new(format!(
            "mean-field engines require k ≥ 2, got {k}"
        )));
    }
    if !(alpha >= 1.0 && alpha.is_finite()) {
        return Err(InvalidParameterError::new(format!(
            "alpha must be finite and ≥ 1, got {alpha}"
        )));
    }
    let cb = (n as f64 / (alpha + k as f64 - 1.0)).floor() as u64;
    if cb == 0 {
        return Err(InvalidParameterError::new(format!(
            "n = {n} too small for k = {k}, alpha = {alpha}"
        )));
    }
    let mut counts = vec![cb; k as usize];
    counts[0] = n - cb * (k as u64 - 1);
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biased_counts_match_urn_config() {
        let counts = biased_counts(1_000, 4, 2.0).unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 1_000);
        assert!(counts[0] > counts[1]);
        assert_eq!(counts[1], counts[2]);
        assert_eq!(counts[2], counts[3]);
    }

    #[test]
    fn biased_counts_reject_bad_parameters() {
        assert!(biased_counts(100, 1, 2.0).is_err());
        assert!(biased_counts(100, 4, 0.5).is_err());
        assert!(biased_counts(3, 8, 100.0).is_err());
    }
}
