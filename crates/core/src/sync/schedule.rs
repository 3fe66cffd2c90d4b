//! The predefined two-choices schedule `{t_i}` of the synchronous protocol.
//!
//! Section 2.2 defines the life-cycle length of generation `i` as
//!
//! ```text
//! X_i = (2·ln(α^{2^{i−1}} + k − 1) − ln(α^{2^i} + k − 1) − ln γ) / ln(2 − γ) + 2,
//! ```
//!
//! the number of rounds generation `i` needs to grow from its birth size
//! `≈ γ²·p_{i−1}` to a `γ` fraction of all nodes at growth factor `(2 − γ)`
//! per round (Proposition 9). Generation `i+1` is then born by a two-choices
//! round at `t_{i+1} = t_i + X_i`, with `t_1 = 1`. The schedule stops after
//! `G* ≈ log₂ log_α n` generations, at which point the newest generation is
//! monochromatic whp. (Corollary 10 + Lemma 11).
//!
//! Powers like `α^{2^i}` overflow `f64` almost immediately, so everything is
//! computed in the log domain via `log-add-exp`.

/// Numerically stable `ln(eᵃ + eᵇ)`.
fn log_add_exp(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    hi + (lo - hi).exp().ln_1p()
}

/// `ln(α^{2^e} + k − 1)` computed in the log domain.
///
/// `e` may be negative (the `i = 0` case uses `α^{1/2}`).
fn ln_alpha_power_plus_k(alpha: f64, e: i32, k: u32) -> f64 {
    let l = 2f64.powi(e) * alpha.ln();
    if k <= 1 {
        l
    } else {
        log_add_exp(l, f64::from(k - 1).ln())
    }
}

/// The paper's generation life-cycle length `X_i` (a real number; the
/// schedule rounds it up and clamps it to at least one round).
///
/// # Panics
///
/// Panics if `alpha < 1`, `gamma ∉ (0, 1)`, or `k == 0`.
pub fn lifecycle_length(alpha: f64, k: u32, gamma: f64, i: u32) -> f64 {
    assert!(alpha >= 1.0, "lifecycle_length: alpha must be ≥ 1");
    assert!(
        gamma > 0.0 && gamma < 1.0,
        "lifecycle_length: gamma must lie in (0, 1)"
    );
    assert!(k >= 1, "lifecycle_length: k must be ≥ 1");
    let a = ln_alpha_power_plus_k(alpha, i as i32 - 1, k);
    let b = ln_alpha_power_plus_k(alpha, i as i32, k);
    (2.0 * a - b - gamma.ln()) / (2.0 - gamma).ln() + 2.0
}

/// Number of generations `G*` needed so that the bias in the final
/// generation exceeds `n` whp.: `⌈log₂ log_α n⌉` plus a two-generation
/// safety margin, clamped to `[1, cap]`.
///
/// For `alpha` at or below `1 + 1e-9` (no usable bias) the cap is returned.
///
/// # Panics
///
/// Panics if `n < 2` or `cap == 0`.
pub fn generations_needed(n: u64, alpha: f64, cap: u32) -> u32 {
    assert!(n >= 2, "generations_needed: n must be ≥ 2");
    assert!(cap >= 1, "generations_needed: cap must be ≥ 1");
    if alpha <= 1.0 + 1e-9 {
        return cap;
    }
    let g = ((n as f64).ln() / alpha.ln()).ln() / std::f64::consts::LN_2;
    let g = g.ceil().max(0.0) as u32 + 2;
    g.clamp(1, cap)
}

/// Hard upper limit on generations regardless of bias, protecting against
/// degenerate `α → 1` inputs. `2^64` bias doublings exceed any practical `n`.
pub const GENERATION_CAP: u32 = 64;

/// The predefined sequence of two-choices rounds `{t_i}, i = 1..=G*`.
///
/// # Examples
///
/// ```
/// use plurality_core::sync::Schedule;
/// let s = Schedule::predefined(100_000, 8, 1.2, 0.5);
/// assert!(s.g_star() >= 1);
/// assert!(s.is_two_choices_round(1)); // t₁ = 1
/// assert!(!s.is_two_choices_round(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    rounds: Vec<u64>,
    g_star: u32,
}

impl Schedule {
    /// Builds the schedule for population `n`, `k` opinions, initial bias
    /// `alpha` and growth threshold `gamma`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters (see [`lifecycle_length`] and
    /// [`generations_needed`]).
    pub fn predefined(n: u64, k: u32, alpha: f64, gamma: f64) -> Self {
        let g_star = generations_needed(n, alpha, GENERATION_CAP);
        let mut rounds = Vec::with_capacity(g_star as usize);
        let mut t = 1u64;
        rounds.push(t);
        for i in 1..g_star {
            let x = lifecycle_length(alpha, k, gamma, i);
            let x = x.ceil().max(1.0) as u64;
            t += x;
            rounds.push(t);
        }
        Self { rounds, g_star }
    }

    /// Whether `round` is a two-choices round.
    pub fn is_two_choices_round(&self, round: u64) -> bool {
        self.rounds.binary_search(&round).is_ok()
    }

    /// The scheduled rounds `t_1 < t_2 < … < t_{G*}`.
    pub fn rounds(&self) -> &[u64] {
        &self.rounds
    }

    /// The number of generations `G*` the schedule creates.
    pub fn g_star(&self) -> u32 {
        self.g_star
    }

    /// The last scheduled two-choices round `t_{G*}`.
    pub fn final_round(&self) -> u64 {
        *self.rounds.last().expect("schedule is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schedule from explicit two-choices rounds, which must be
    /// non-empty and strictly increasing.
    fn from_rounds(rounds: Vec<u64>) -> Schedule {
        assert!(!rounds.is_empty(), "from_rounds: empty schedule");
        assert!(
            rounds.windows(2).all(|w| w[0] < w[1]),
            "from_rounds: rounds must be strictly increasing"
        );
        let g_star = rounds.len() as u32;
        Schedule { rounds, g_star }
    }

    #[test]
    fn log_add_exp_matches_naive_in_safe_range() {
        for &(a, b) in &[(0.0f64, 0.0f64), (1.0, 2.0), (-3.0, 4.0), (10.0, 10.0)] {
            let naive = (a.exp() + b.exp()).ln();
            assert!((log_add_exp(a, b) - naive).abs() < 1e-12);
        }
    }

    #[test]
    fn log_add_exp_handles_huge_inputs() {
        // Would overflow naively: e^1000 + e^999.
        let v = log_add_exp(1000.0, 999.0);
        assert!((v - (1000.0 + (1.0 + (-1.0f64).exp()).ln())).abs() < 1e-9);
    }

    #[test]
    fn lifecycle_is_order_log_k() {
        // For α near 1, X_1 ≈ (ln k − ln γ)/ln(2−γ) + 2 = O(log k).
        let x_small = lifecycle_length(1.01, 8, 0.5, 1);
        let x_large = lifecycle_length(1.01, 512, 0.5, 1);
        assert!(x_large > x_small);
        // Doubling k adds ~ln(2)/ln(1.5) ≈ 1.7 rounds; 512 vs 8 is 6 doublings.
        let expected_gap = 6.0 * std::f64::consts::LN_2 / 1.5f64.ln();
        assert!((x_large - x_small - expected_gap).abs() < 1.0);
    }

    #[test]
    fn lifecycle_shrinks_to_constant_for_large_bias() {
        // Once α^{2^i} ≫ k the 2a − b term vanishes and X_i approaches
        // (−ln γ)/ln(2−γ) + 2 = O(1). (The paper's Eq. (11) evaluates the
        // schedule at the k-crossing point, where the constant is
        // (ln 4 − ln γ)/ln(2−γ) + 2.)
        let late = lifecycle_length(1.5, 16, 0.5, 12);
        let limit = -(0.5f64.ln()) / 1.5f64.ln() + 2.0;
        assert!((late - limit).abs() < 0.3, "late {late} vs limit {limit}");
        // At the crossing point i with α^{2^{i-1}} ≈ k = 16: i = 4 for α=1.5
        // (1.5^8 ≈ 25.6); the value lies between the two constants.
        let crossing = lifecycle_length(1.5, 16, 0.5, 4);
        let upper = (4f64.ln() - 0.5f64.ln()) / 1.5f64.ln() + 2.0;
        assert!(crossing > limit - 0.5 && crossing < upper + 2.0);
    }

    #[test]
    fn generations_needed_shrinks_with_bias() {
        let weak = generations_needed(1_000_000, 1.01, GENERATION_CAP);
        let strong = generations_needed(1_000_000, 2.0, GENERATION_CAP);
        assert!(weak > strong, "weak {weak} strong {strong}");
        assert!(strong >= 1);
    }

    #[test]
    fn generations_needed_caps_on_degenerate_alpha() {
        assert_eq!(generations_needed(1000, 1.0, 64), 64);
    }

    #[test]
    fn predefined_schedule_is_increasing_and_starts_at_one() {
        let s = Schedule::predefined(1_000_000, 32, 1.05, 0.5);
        assert_eq!(s.rounds()[0], 1);
        assert!(s.rounds().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.rounds().len() as u32, s.g_star());
        assert_eq!(s.final_round(), *s.rounds().last().unwrap());
    }

    #[test]
    fn membership_queries() {
        let s = from_rounds(vec![1, 5, 9]);
        assert!(s.is_two_choices_round(1));
        assert!(s.is_two_choices_round(5));
        assert!(!s.is_two_choices_round(4));
        assert_eq!(s.g_star(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_rounds_rejects_unsorted() {
        let _ = from_rounds(vec![3, 2]);
    }

    #[test]
    fn early_lifecycles_longest() {
        // X_i decreases in i (the paper: "as i increases, Xi decreases").
        let alpha = 1.1;
        let xs: Vec<f64> = (1..10)
            .map(|i| lifecycle_length(alpha, 64, 0.5, i))
            .collect();
        for w in xs.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "X_i not non-increasing: {xs:?}");
        }
    }
}
