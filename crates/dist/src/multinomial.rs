//! Exact multinomial splits via conditioned sequential binomials.
//!
//! The mean-field engines (urn mode in `plurality-core`, the aggregate
//! backends in `plurality-agg`) advance whole pools of exchangeable nodes
//! at once: conditioned on the current configuration, the occupants of a
//! pool scatter over their common outcome distribution as one exact
//! multinomial draw. This module is the single shared implementation of
//! that draw.
//!
//! The sampling identity is the standard chain-rule factorization: if
//! `(X₁, …, X_m) ~ Multinomial(n; p₁, …, p_m)` then
//!
//! ```text
//! X₁ ~ Binomial(n, p₁),
//! Xᵢ | X₁..Xᵢ₋₁ ~ Binomial(n − ΣⱼXⱼ, pᵢ / (1 − Σⱼpⱼ))   (j < i).
//! ```
//!
//! Each conditioned binomial is drawn with the exact BTPE/inversion
//! sampler [`crate::sample_binomial`], so the resulting vector has
//! *exactly* the multinomial law — no normal approximation, no Poisson
//! thinning — at `O(m)` cost independent of `n`. This is what lets a
//! billion-node population advance in microseconds per round.

use crate::discrete::PreparedBinomial;
use crate::sample_binomial;
use rand::Rng;

/// Splits `count` exchangeable items over sparse `targets`, accumulating
/// into `out`, and returns the residual that "stays" (the mass of the
/// implicit complement category).
///
/// `targets` is a list of `(index, probability)` pairs; probabilities
/// must be non-negative and sum to at most 1 (up to rounding). The items
/// not assigned to any listed target — the residual probability mass —
/// are returned to the caller, which decides where stayers live (the urn
/// engine adds them back to the source cell).
///
/// The draw is the exact conditioned-binomial factorization of the
/// multinomial law, consuming one [`sample_binomial`] draw per non-empty
/// target in order. Callers that depend on byte-stable RNG streams (the
/// urn engine's pinned determinism tests) therefore must keep the target
/// order stable.
///
/// # Examples
///
/// ```
/// use plurality_dist::rng::Xoshiro256PlusPlus;
/// use plurality_dist::multinomial_split;
///
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// let mut out = vec![0u64; 3];
/// let stayed = multinomial_split(1_000, &[(0, 0.25), (2, 0.25)], &mut out, &mut rng);
/// assert_eq!(out[0] + out[2] + stayed, 1_000);
/// assert_eq!(out[1], 0);
/// ```
pub fn multinomial_split<R: Rng + ?Sized>(
    count: u64,
    targets: &[(usize, f64)],
    out: &mut [u64],
    rng: &mut R,
) -> u64 {
    let mut remaining = count;
    for (t, q) in conditionals(targets) {
        if remaining == 0 {
            break;
        }
        let moved = sample_binomial(remaining, q, rng);
        out[t] += moved;
        remaining -= moved;
    }
    remaining
}

/// Each target's conditional success probability `p / rest` in turn, up
/// to and including the target that exhausts the probability mass.
fn conditionals(targets: &[(usize, f64)]) -> impl Iterator<Item = (usize, f64)> + '_ {
    let mut rest_prob = 1.0f64;
    targets.iter().map_while(move |&(t, p)| {
        if rest_prob <= 0.0 {
            return None;
        }
        let q = (p / rest_prob).clamp(0.0, 1.0);
        rest_prob -= p;
        Some((t, q))
    })
}

/// [`multinomial_split`] over one fixed target list, prepared once for
/// many splits: each target's conditional probability `p / rest` and
/// its binomial inversion constants are computed up front.
///
/// Every split is bitwise equal to `multinomial_split` over the same
/// targets: the same counts, and the same uniforms consumed.
///
/// # Examples
///
/// ```
/// use plurality_dist::rng::Xoshiro256PlusPlus;
/// use plurality_dist::{multinomial_split, PreparedSplit};
///
/// let targets = [(0, 0.25), (2, 0.25)];
/// let split = PreparedSplit::new(&targets);
/// let (mut a, mut b) = (Xoshiro256PlusPlus::from_u64(1), Xoshiro256PlusPlus::from_u64(1));
/// let (mut out_a, mut out_b) = (vec![0u64; 3], vec![0u64; 3]);
/// let stayed = split.split(1_000, &mut out_a, &mut a);
/// assert_eq!(stayed, multinomial_split(1_000, &targets, &mut out_b, &mut b));
/// assert_eq!(out_a, out_b);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedSplit {
    /// `(index, conditional law)` for each of the split's targets.
    steps: Vec<(usize, PreparedBinomial)>,
}

impl PreparedSplit {
    /// Prepares the split over `targets`, as for [`multinomial_split`].
    pub fn new(targets: &[(usize, f64)]) -> Self {
        let steps = conditionals(targets)
            .map(|(t, q)| (t, PreparedBinomial::new(q)))
            .collect();
        Self { steps }
    }

    /// Splits `count` items, accumulating into `out`, and returns the
    /// residual, exactly as [`multinomial_split`] does.
    pub fn split<R: Rng + ?Sized>(&self, count: u64, out: &mut [u64], rng: &mut R) -> u64 {
        let mut remaining = count;
        for &(t, law) in &self.steps {
            if remaining == 0 {
                break;
            }
            let moved = law.sample(remaining, rng);
            out[t] += moved;
            remaining -= moved;
        }
        remaining
    }
}

/// Draws one exact `Multinomial(count; probs)` vector.
///
/// `probs` must be a full probability vector (non-negative entries
/// summing to 1 up to rounding); every item lands in some category, with
/// float-rounding residue folded into the final one so the output always
/// sums to `count` exactly.
///
/// # Panics
///
/// Panics if `probs` is empty.
///
/// # Examples
///
/// ```
/// use plurality_dist::rng::Xoshiro256PlusPlus;
/// use plurality_dist::sample_multinomial;
///
/// let mut rng = Xoshiro256PlusPlus::from_u64(2);
/// let counts = sample_multinomial(1_000_000, &[0.5, 0.3, 0.2], &mut rng);
/// assert_eq!(counts.iter().sum::<u64>(), 1_000_000);
/// assert!(counts[0] > counts[2]);
/// ```
pub fn sample_multinomial<R: Rng + ?Sized>(count: u64, probs: &[f64], rng: &mut R) -> Vec<u64> {
    assert!(!probs.is_empty(), "multinomial needs at least one category");
    let mut out = vec![0u64; probs.len()];
    let last = probs.len() - 1;
    // Split over all but the last category; the conditioned residual IS
    // the last category's draw (its conditional success probability is 1).
    let targets: Vec<(usize, f64)> = probs[..last]
        .iter()
        .enumerate()
        .map(|(i, &p)| (i, p))
        .collect();
    let residual = multinomial_split(count, &targets, &mut out, rng);
    out[last] += residual;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256PlusPlus;

    #[test]
    fn conserves_count() {
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        for &n in &[0u64, 1, 17, 10_000, 1_000_000_000] {
            let counts = sample_multinomial(n, &[0.1, 0.2, 0.3, 0.4], &mut rng);
            assert_eq!(counts.iter().sum::<u64>(), n, "n = {n}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let draw = || {
            let mut rng = Xoshiro256PlusPlus::from_u64(11);
            sample_multinomial(123_456, &[0.25, 0.25, 0.5], &mut rng)
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn zero_probability_categories_stay_empty() {
        let mut rng = Xoshiro256PlusPlus::from_u64(5);
        let counts = sample_multinomial(50_000, &[0.5, 0.0, 0.5], &mut rng);
        assert_eq!(counts[1], 0);
        assert_eq!(counts.iter().sum::<u64>(), 50_000);
    }

    #[test]
    fn split_residual_complements_listed_targets() {
        let mut rng = Xoshiro256PlusPlus::from_u64(7);
        let mut out = vec![0u64; 4];
        let stayed = multinomial_split(200_000, &[(1, 0.1), (3, 0.4)], &mut out, &mut rng);
        assert_eq!(out[1] + out[3] + stayed, 200_000);
        assert_eq!(out[0], 0);
        assert_eq!(out[2], 0);
        // Mean of the residual is 100 000; exact binomials concentrate hard.
        assert!(
            (stayed as f64 - 100_000.0).abs() < 2_000.0,
            "stayed {stayed}"
        );
    }

    #[test]
    fn split_accumulates_into_existing_counts() {
        let mut rng = Xoshiro256PlusPlus::from_u64(9);
        let mut out = vec![10u64, 20];
        let stayed = multinomial_split(100, &[(0, 0.5), (1, 0.5)], &mut out, &mut rng);
        assert_eq!(out[0] + out[1] + stayed, 130);
        assert!(out[0] >= 10 && out[1] >= 20);
    }

    #[test]
    fn marginals_match_binomial_moments() {
        // Each marginal Xᵢ ~ Binomial(n, pᵢ): check mean and variance over
        // replicates against 5σ bands.
        let probs = [0.6, 0.3, 0.1];
        let n = 100_000u64;
        let reps = 400;
        let mut sums = [0.0f64; 3];
        let mut sq = [0.0f64; 3];
        let mut rng = Xoshiro256PlusPlus::from_u64(13);
        for _ in 0..reps {
            let c = sample_multinomial(n, &probs, &mut rng);
            for i in 0..3 {
                sums[i] += c[i] as f64;
                sq[i] += (c[i] as f64) * (c[i] as f64);
            }
        }
        for i in 0..3 {
            let mean = sums[i] / reps as f64;
            let var = sq[i] / reps as f64 - mean * mean;
            let expect_mean = n as f64 * probs[i];
            let expect_var = n as f64 * probs[i] * (1.0 - probs[i]);
            let mean_tol = 5.0 * (expect_var / reps as f64).sqrt();
            assert!(
                (mean - expect_mean).abs() < mean_tol,
                "marginal {i}: mean {mean} vs {expect_mean}"
            );
            assert!(
                var > 0.5 * expect_var && var < 2.0 * expect_var,
                "marginal {i}: var {var} vs {expect_var}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one category")]
    fn rejects_empty_probability_vector() {
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        let _ = sample_multinomial(10, &[], &mut rng);
    }
}
