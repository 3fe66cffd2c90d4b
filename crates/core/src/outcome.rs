//! Shared run-outcome types and convergence tracking.
//!
//! Every protocol in the workspace (synchronous, single-leader, multi-leader,
//! and all baselines) reports a [`RunOutcome`]: who won, whether the initial
//! plurality was preserved, when ε-convergence and full consensus happened,
//! and — for the generation-based protocols — the per-generation birth
//! telemetry that experiments E5/E6 turn into the paper's concentration
//! checks.

use crate::opinion::{Opinion, OpinionCounts};

/// How much telemetry a run records.
///
/// More detail costs memory and a little time; the default for experiments is
/// [`RecordLevel::Generations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordLevel {
    /// Final outcome and convergence times only.
    Outcome,
    /// Outcome plus per-generation birth records.
    #[default]
    Generations,
    /// Everything, including per-round/time series of key fractions.
    Full,
}

/// Telemetry recorded when a new generation first appears.
///
/// The paper's central concentration claims are statements about these
/// numbers: the bias in generation `i` at its birth is `≈ α_{i-1}²`
/// (Lemma 4 / Lemma 22) and the new generation is born with fraction
/// `≈ γ² p_{i-1}` (Proposition 9) or `≥ p_{i-1}/9` (Proposition 16).
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationBirth {
    /// The generation index `i ≥ 1`.
    pub generation: u32,
    /// Birth time: round index (synchronous) or continuous time
    /// (asynchronous).
    pub time: f64,
    /// Bias `α_{i}` measured inside the new generation at birth
    /// (`f64::INFINITY` if its runner-up color is empty).
    pub bias: f64,
    /// Bias `α_{i−1}` measured inside the parent generation just before
    /// birth.
    pub parent_bias: f64,
    /// Fraction of all nodes inside the new generation at birth.
    pub initial_fraction: f64,
    /// Collision probability `p_{i-1}` of the parent generation just before
    /// birth.
    pub parent_collision: f64,
}

/// Final report of a consensus run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Population size.
    pub n: u64,
    /// Number of opinions.
    pub k: u32,
    /// The initial plurality opinion.
    pub initial_winner: Opinion,
    /// Initial bias `α₀` between top-two opinions.
    pub initial_bias: f64,
    /// Final opinion counts.
    pub final_counts: OpinionCounts,
    /// First time the initial plurality opinion was held by at least a
    /// `1 − ε` fraction, if it happened.
    pub epsilon_time: Option<f64>,
    /// First time the population became monochromatic, if it happened.
    pub consensus_time: Option<f64>,
    /// Total simulated duration (rounds or continuous time).
    pub duration: f64,
    /// Per-generation birth telemetry (empty at [`RecordLevel::Outcome`]).
    pub generations: Vec<GenerationBirth>,
}

impl RunOutcome {
    /// The final plurality opinion, if the population is non-empty.
    pub fn winner(&self) -> Option<Opinion> {
        self.final_counts.winner()
    }

    /// Whether the run converged fully *and* on the initial plurality
    /// opinion — the paper's success condition.
    pub fn plurality_preserved(&self) -> bool {
        self.consensus_time.is_some() && self.winner() == Some(self.initial_winner)
    }
}

/// Incremental tracker for ε-convergence and full consensus.
///
/// Protocol engines call [`ConvergenceTracker::observe`] whenever the support
/// counts change; the tracker latches the *first* crossing times.
///
/// # Examples
///
/// ```
/// use plurality_core::{ConvergenceTracker, Opinion};
/// let mut t = ConvergenceTracker::new(100, Opinion::new(0), 0.1);
/// t.observe(1.0, 80, 80);
/// assert_eq!(t.epsilon_time(), None);
/// t.observe(2.0, 92, 92);
/// assert_eq!(t.epsilon_time(), Some(2.0));
/// t.observe(5.0, 100, 100);
/// assert_eq!(t.consensus_time(), Some(5.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTracker {
    n: u64,
    initial_winner: Opinion,
    epsilon_threshold: u64,
    epsilon_time: Option<f64>,
    consensus_time: Option<f64>,
}

impl ConvergenceTracker {
    /// Creates a tracker for a population of `n` nodes whose initial
    /// plurality opinion is `initial_winner`, with tolerance `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ∉ [0, 1]` or `n == 0`.
    pub fn new(n: u64, initial_winner: Opinion, epsilon: f64) -> Self {
        assert!(n > 0, "ConvergenceTracker: n must be positive");
        assert!(
            (0.0..=1.0).contains(&epsilon),
            "ConvergenceTracker: epsilon must lie in [0, 1]"
        );
        let epsilon_threshold = ((1.0 - epsilon) * n as f64).ceil() as u64;
        Self {
            n,
            initial_winner,
            epsilon_threshold,
            epsilon_time: None,
            consensus_time: None,
        }
    }

    /// The initial plurality opinion being tracked.
    pub fn initial_winner(&self) -> Opinion {
        self.initial_winner
    }

    /// Records the state at `time`: `winner_support` is the support of the
    /// initial plurality opinion, `max_support` the largest support of any
    /// opinion.
    pub fn observe(&mut self, time: f64, winner_support: u64, max_support: u64) {
        if self.epsilon_time.is_none() && winner_support >= self.epsilon_threshold {
            self.epsilon_time = Some(time);
        }
        if self.consensus_time.is_none() && max_support == self.n {
            self.consensus_time = Some(time);
        }
    }

    /// First ε-convergence time, if reached.
    pub fn epsilon_time(&self) -> Option<f64> {
        self.epsilon_time
    }

    /// First full-consensus time, if reached.
    pub fn consensus_time(&self) -> Option<f64> {
        self.consensus_time
    }

    /// Whether full consensus has been observed.
    pub fn is_consensus(&self) -> bool {
        self.consensus_time.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_latches_first_crossings() {
        let mut t = ConvergenceTracker::new(10, Opinion::new(1), 0.2);
        t.observe(1.0, 7, 7);
        assert_eq!(t.epsilon_time(), None);
        t.observe(2.0, 8, 8); // 8 ≥ ceil(0.8·10)
        assert_eq!(t.epsilon_time(), Some(2.0));
        t.observe(3.0, 9, 9);
        assert_eq!(t.epsilon_time(), Some(2.0)); // latched
        assert!(!t.is_consensus());
        t.observe(4.0, 10, 10);
        assert_eq!(t.consensus_time(), Some(4.0));
    }

    #[test]
    fn consensus_on_wrong_opinion_still_counts_as_consensus() {
        // max_support reaching n means monochromatic, even if the winner
        // support is 0 — plurality_preserved() distinguishes the cases.
        let mut t = ConvergenceTracker::new(5, Opinion::new(0), 0.0);
        t.observe(1.0, 0, 5);
        assert!(t.is_consensus());
        assert_eq!(t.epsilon_time(), None);
    }

    #[test]
    fn epsilon_zero_requires_unanimity() {
        let mut t = ConvergenceTracker::new(4, Opinion::new(0), 0.0);
        t.observe(1.0, 3, 3);
        assert_eq!(t.epsilon_time(), None);
        t.observe(2.0, 4, 4);
        assert_eq!(t.epsilon_time(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_panics() {
        let _ = ConvergenceTracker::new(5, Opinion::new(0), 1.5);
    }

    #[test]
    fn outcome_predicates() {
        let outcome = RunOutcome {
            n: 3,
            k: 2,
            initial_winner: Opinion::new(0),
            initial_bias: 2.0,
            final_counts: OpinionCounts::from_counts(vec![3, 0]),
            epsilon_time: Some(1.0),
            consensus_time: Some(2.0),
            duration: 2.0,
            generations: vec![],
        };
        assert!(outcome.plurality_preserved());
        assert_eq!(outcome.winner(), Some(Opinion::new(0)));

        let lost = RunOutcome {
            final_counts: OpinionCounts::from_counts(vec![0, 3]),
            ..outcome.clone()
        };
        assert!(!lost.plurality_preserved());
    }
}
