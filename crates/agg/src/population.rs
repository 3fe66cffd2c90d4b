//! Mean-field backend for the 3-state approximate-majority population
//! protocol (AAE08).
//!
//! The per-node scheduler draws one ordered agent pair per step; almost
//! all of those steps change nothing (both agents agree, or two blanks
//! meet). At pool granularity only four *effective* ordered-pair types
//! exist on the complete graph:
//!
//! | initiator, responder | transition            | probability           |
//! |----------------------|-----------------------|-----------------------|
//! | `A, B`               | `B → blank`           | `sa·sb / n(n−1)`      |
//! | `B, A`               | `A → blank`           | `sb·sa / n(n−1)`      |
//! | `A, blank`           | `blank → A`           | `sa·blank / n(n−1)`   |
//! | `B, blank`           | `blank → B`           | `sb·blank / n(n−1)`   |
//!
//! The jump chain skips the ineffective steps in closed form: to observe
//! `E` effective interactions at per-step success probability `p`, the
//! number of skipped steps is `F ~ NegBin(E, p)`, drawn exactly as a
//! Poisson–Gamma mixture (`F ~ Poisson(Λ)`, `Λ ~ Gamma(E, p/(1−p))`).
//! The types of the `E` effective events are one multinomial draw over
//! the normalized effective probabilities, with `E` capped at a quarter
//! of the smallest decrementable pool so the frozen-probability
//! approximation stays tight (and counts can never go negative). This
//! is the one backend in the crate whose law is a *discretization*
//! rather than exact — the cross-validation suite pins the agreement.
//!
//! The 4-state **exact**-majority protocol is deliberately not offered
//! here: its endgame is `Θ(n²)` interactions of individually vanishing
//! probability driven by token *differences* of order 1, exactly the
//! regime where pool batching degenerates to one event per batch —
//! aggregation buys nothing. Use the per-node `exact-majority` spec.

use plurality_core::{OpinionCounts, RunOutcome};
use plurality_dist::rng::Xoshiro256PlusPlus;
use plurality_dist::{sample_multinomial, sample_poisson, Gamma};

/// Configuration for a mean-field approximate-majority run (facade spec
/// name `"population-mf"`).
///
/// # Examples
///
/// ```
/// use plurality_agg::PopulationMfConfig;
/// // A billion agents, 60/40 split.
/// let r = PopulationMfConfig::new(1_000_000_000, 600_000_000).with_seed(1).run();
/// assert!(r.converged);
/// assert!(r.outcome.plurality_preserved());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationMfConfig {
    n: u64,
    initial_a: u64,
    seed: u64,
    max_interactions: Option<u64>,
}

impl PopulationMfConfig {
    /// Creates a configuration for `n` agents of which `initial_a` start
    /// with opinion A (index 0) and the rest with B (index 1).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `initial_a > n`.
    pub fn new(n: u64, initial_a: u64) -> Self {
        assert!(n >= 2, "population needs at least 2 agents");
        assert!(initial_a <= n, "initial_a cannot exceed n");
        Self {
            n,
            initial_a,
            seed: 0,
            max_interactions: None,
        }
    }

    /// Sets the RNG seed (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the number of (skipped plus effective) interactions
    /// (default `500·n·ln n`, like the per-node engine). The final
    /// batch may overshoot the cap by at most its own span.
    pub fn with_max_interactions(mut self, max: u64) -> Self {
        self.max_interactions = Some(max);
        self
    }

    /// Runs the mean-field approximate-majority jump chain.
    pub fn run(&self) -> PopulationMfResult {
        let n = self.n;
        let nf = n as f64;
        let pairs = nf * (nf - 1.0);
        let mut rng = Xoshiro256PlusPlus::from_u64(self.seed);

        let (mut sa, mut sb, mut blank) = (self.initial_a, n - self.initial_a, 0u64);
        let initial_counts = OpinionCounts::from_counts(vec![sa, sb]);
        let initial_winner = initial_counts.winner().expect("non-empty population");
        let initial_bias = initial_counts.bias().unwrap_or(f64::INFINITY);
        let max_interactions = self
            .max_interactions
            .unwrap_or_else(|| (500.0 * nf * nf.ln()).ceil() as u64);

        let converged_now = |sa: u64, sb: u64, blank: u64| (sa == 0 || sb == 0) && blank == 0;

        let mut interactions = 0u64;
        let mut effective_interactions = 0u64;
        let mut batches = 0u64;

        while !converged_now(sa, sb, blank) && interactions < max_interactions {
            let (fa, fb, fu) = (sa as f64, sb as f64, blank as f64);
            // Effective ordered-pair masses (divide by `pairs` for
            // probabilities; the multinomial only needs the ratios).
            let mass = [fa * fb, fb * fa, fa * fu, fb * fu];
            let total_mass: f64 = mass.iter().sum();
            let p_eff = (total_mass / pairs).min(1.0);
            if total_mass <= 0.0 {
                // All blank pairs with one side extinct can no longer
                // interact effectively; cannot happen from an all-strong
                // start, but guard against explicit-count pathologies.
                break;
            }

            // Largest batch that cannot drive any pool negative even if
            // every event lands on the same decrementable cell; /4 keeps
            // the frozen per-batch probabilities honest.
            let mut min_decrementable = u64::MAX;
            if mass[0] > 0.0 {
                min_decrementable = min_decrementable.min(sb);
            }
            if mass[1] > 0.0 {
                min_decrementable = min_decrementable.min(sa);
            }
            if mass[2] > 0.0 || mass[3] > 0.0 {
                min_decrementable = min_decrementable.min(blank);
            }
            let batch = (min_decrementable / 4).max(1);

            // Steps skipped before `batch` effective events arrive:
            // NegBin(batch, p_eff) via the exact Poisson–Gamma mixture.
            let skipped = if p_eff >= 1.0 {
                0
            } else {
                let lambda = Gamma::new(batch as f64, p_eff / (1.0 - p_eff))
                    .expect("positive shape and rate")
                    .sample(&mut rng);
                sample_poisson(lambda, &mut rng)
            };
            interactions = interactions.saturating_add(skipped).saturating_add(batch);
            effective_interactions += batch;
            batches += 1;

            let probs: Vec<f64> = mass.iter().map(|m| m / total_mass).collect();
            let events = sample_multinomial(batch, &probs, &mut rng);
            // (A,B): B → blank; (B,A): A → blank; (A,·): blank → A;
            // (B,·): blank → B.
            sb -= events[0];
            sa -= events[1];
            blank += events[0] + events[1];
            blank -= events[2] + events[3];
            sa += events[2];
            sb += events[3];
        }

        let converged = converged_now(sa, sb, blank);
        let parallel_time = interactions as f64 / nf;
        let consensus_time = converged.then_some(parallel_time);
        let outcome = RunOutcome {
            n,
            k: 2,
            initial_winner,
            initial_bias,
            final_counts: OpinionCounts::from_counts(vec![sa, sb]),
            epsilon_time: consensus_time,
            consensus_time,
            duration: parallel_time,
            generations: Vec::new(),
        };
        PopulationMfResult {
            outcome,
            interactions,
            effective_interactions,
            batches,
            converged,
        }
    }
}

/// Result of a mean-field approximate-majority run.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationMfResult {
    /// Common outcome report; times are in *parallel time* (interactions
    /// divided by `n`).
    pub outcome: RunOutcome,
    /// Total interactions accounted for, skipped steps included.
    pub interactions: u64,
    /// State-changing interactions actually sampled.
    pub effective_interactions: u64,
    /// Jump-chain batches executed (each is one multinomial plus one
    /// negative-binomial draw — the cost measure that replaces `n`).
    pub batches: u64,
    /// Whether the run converged (one strong side and no blanks left).
    pub converged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_core::Opinion;

    #[test]
    fn converges_with_clear_bias_in_logarithmic_parallel_time() {
        let r = PopulationMfConfig::new(1_000_000, 700_000)
            .with_seed(1)
            .run();
        assert!(r.converged, "did not converge");
        assert!(r.outcome.plurality_preserved());
        assert!(
            r.outcome.duration < 200.0,
            "parallel time {}",
            r.outcome.duration
        );
        assert!(r.effective_interactions < r.interactions);
    }

    #[test]
    fn billion_agents_in_few_batches() {
        let r = PopulationMfConfig::new(1_000_000_000, 600_000_000)
            .with_seed(2)
            .run();
        assert!(r.converged);
        assert_eq!(r.outcome.winner(), Some(Opinion::new(0)));
        // The whole point: batch count is O(log n)-ish, not O(n log n).
        assert!(r.batches < 20_000, "batches {}", r.batches);
    }

    #[test]
    fn minority_b_start_elects_b() {
        let r = PopulationMfConfig::new(1_000_000, 300_000)
            .with_seed(3)
            .run();
        assert!(r.converged);
        assert_eq!(r.outcome.winner(), Some(Opinion::new(1)));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PopulationMfConfig::new(500_000, 300_000).with_seed(7).run();
        let b = PopulationMfConfig::new(500_000, 300_000).with_seed(7).run();
        assert_eq!(a, b);
    }

    #[test]
    fn monochromatic_start_is_instant() {
        let r = PopulationMfConfig::new(1_000, 1_000).with_seed(4).run();
        assert!(r.converged);
        assert_eq!(r.interactions, 0);
        assert_eq!(r.outcome.consensus_time, Some(0.0));
    }

    #[test]
    fn interaction_cap_halts_unconverged_ties() {
        // A perfect tie keeps sa == sb by symmetry of the drift; the cap
        // must end the run. (The stochastic chain can still break the
        // tie, so only the cap ceiling is asserted.)
        let r = PopulationMfConfig::new(10_000, 5_000)
            .with_seed(5)
            .with_max_interactions(2_000)
            .run();
        assert!(r.interactions >= 2_000 || r.converged);
    }

    #[test]
    fn counts_always_conserved() {
        for seed in 0..10 {
            let r = PopulationMfConfig::new(100_000, 55_000)
                .with_seed(seed)
                .run();
            assert!(r.outcome.final_counts.n() <= 100_000);
            if r.converged {
                assert_eq!(r.outcome.final_counts.n(), 100_000);
            }
        }
    }
}
