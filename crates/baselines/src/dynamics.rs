//! Synchronous gossip dynamics on the complete graph.
//!
//! These are the baselines the paper's related-work section measures
//! against (experiment E12):
//!
//! * **Pull voting** [HP01, NIY99] — adopt one uniform sample; `Ω(n)`
//!   expected convergence, preserves the plurality only in expectation.
//! * **Two-choices voting** [CER14] — adopt when two uniform samples agree;
//!   `O(log n)` for two opinions with sufficient bias.
//! * **3-majority** [BCN+14] — adopt the majority of three samples, random
//!   tie-break; `Θ(k log n)` with sufficient absolute bias.
//! * **Undecided-state dynamics** [AAE08, BCN+15] — one sample, disagreeing
//!   nodes pass through an *undecided* state before flipping.
//!
//! All four run in simultaneous rounds against the previous round's state,
//! exactly like the paper's synchronous protocol, so round counts are
//! directly comparable.

use plurality_core::round::{Round, RoundProtocol};
use plurality_core::{InitialAssignment, Opinion, OpinionCounts, RunAxes, RunOutcome};
use plurality_obs::TraceEvent;
use rand::Rng;
use std::borrow::Cow;

/// Sentinel color index for the undecided state (only used internally by
/// [`Dynamics::Undecided`]).
const UNDECIDED: u32 = u32::MAX;

/// A synchronous baseline dynamic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dynamics {
    /// Pull voting: adopt one uniform sample.
    PullVoting,
    /// Two-choices: adopt if two uniform samples agree.
    TwoChoices,
    /// 3-majority: adopt the majority among three samples (random
    /// tie-break).
    ThreeMajority,
    /// Undecided-state dynamics: one sample; disagreement makes a node
    /// undecided, undecided nodes adopt the next decided sample.
    Undecided,
}

impl Dynamics {
    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::PullVoting => "pull-voting",
            Self::TwoChoices => "two-choices",
            Self::ThreeMajority => "3-majority",
            Self::Undecided => "undecided-state",
        }
    }

    /// All baseline dynamics, for sweeps.
    pub fn all() -> [Dynamics; 4] {
        [
            Self::PullVoting,
            Self::TwoChoices,
            Self::ThreeMajority,
            Self::Undecided,
        ]
    }
}

/// Configuration for a baseline run. Also runnable through the unified
/// facade (`plurality-api`'s `GossipEngine`; spec names `"pull"`,
/// `"two-choices"`, `"3-majority"`, `"undecided"`), which consumes the
/// byte-identical RNG stream.
///
/// Runs on the round kernel (`plurality_core::round`) like the
/// synchronous protocol: scenario event times are in rounds, effects act
/// as that module's docs say, and `corrupt` re-colors decided and
/// undecided nodes alike. Every sample is a uniform neighbor on the
/// configured topology (isolated nodes sample themselves).
///
/// # Examples
///
/// ```
/// use plurality_baselines::{Dynamics, DynamicsConfig};
/// use plurality_core::InitialAssignment;
/// let assignment = InitialAssignment::with_bias(2_000, 3, 3.0).unwrap();
/// let result = DynamicsConfig::new(Dynamics::ThreeMajority, assignment)
///     .with_seed(1)
///     .run();
/// assert!(result.outcome.consensus_time.is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsConfig {
    dynamics: Dynamics,
    run: RunAxes,
    max_rounds: Option<u64>,
}

impl From<(Dynamics, RunAxes)> for DynamicsConfig {
    /// `dynamics` on `axes`, with the default round cap of
    /// [`DynamicsConfig::new`].
    fn from((dynamics, run): (Dynamics, RunAxes)) -> Self {
        Self {
            dynamics,
            run,
            max_rounds: None,
        }
    }
}

impl DynamicsConfig {
    /// Creates a configuration with `ε = 0.05`, seed 0, and a default
    /// round cap of `200·log₂n + 200` (pull voting needs `Ω(n)` and will
    /// usually hit the cap — that is part of the measurement). With a
    /// scenario attached, the default cap additionally stretches past
    /// the scenario horizon so scripted events actually fire.
    pub fn new(dynamics: Dynamics, assignment: InitialAssignment) -> Self {
        Self::from((dynamics, RunAxes::from(assignment)))
    }

    plurality_core::run_axes_setters!(run, epsilon);

    /// Sets the round cap, overriding the default formula.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Runs the dynamic.
    ///
    /// # Panics
    ///
    /// Panics if the assignment materializes fewer than 2 nodes, or if
    /// the configured topology cannot be built for that population size.
    pub fn run(&self) -> DynamicsResult {
        let (kernel, col) = Round::new(&self.run, self.max_rounds, "baseline");
        let mut rule = Rule {
            dynamics: self.dynamics,
            initial_winner: kernel.initial_winner,
            next: col.clone(),
            col,
            counts: kernel.initial_counts.clone(),
            undecided: 0,
            peak_undecided: 0.0,
        };
        let run = kernel.run(&mut rule);
        DynamicsResult {
            dynamics: self.dynamics,
            outcome: run.outcome,
            rounds: run.steps,
            peak_undecided: rule.peak_undecided,
            trace: run.trace,
        }
    }
}

/// Result of a baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsResult {
    /// Which dynamic ran.
    pub dynamics: Dynamics,
    /// Common outcome report (no generation telemetry — these dynamics have
    /// no generations).
    pub outcome: RunOutcome,
    /// Rounds simulated.
    pub rounds: u64,
    /// Peak fraction of undecided nodes (always 0 except for
    /// [`Dynamics::Undecided`]).
    pub peak_undecided: f64,
    /// Structured trace events, sorted by time (only when
    /// [`DynamicsConfig::with_trace`] was enabled).
    pub trace: Option<Vec<TraceEvent>>,
}

/// A gossip dynamic's node colors and round, run by the round kernel.
struct Rule {
    dynamics: Dynamics,
    initial_winner: Opinion,
    col: Vec<u32>,
    next: Vec<u32>,
    counts: OpinionCounts,
    undecided: u64,
    peak_undecided: f64,
}

impl Dynamics {
    /// Node `v`'s next color under this rule, against the colors `cols`
    /// of the previous round. Each sample is checked as soon as it is
    /// drawn (a blocked channel keeps the node's own color and skips the
    /// remaining checks), and 3-majority's tie-break comes last.
    #[inline]
    fn update<const SCENARIO: bool>(self, cols: &[u32], k: &mut Round, v: u32, own: u32) -> u32 {
        let col = |s: u32| cols[s as usize];
        // A sampled channel is unusable if the peer is crashed or,
        // failing that, the channel is lost to a burst.
        let blocked = |k: &mut Round, s: u32| {
            SCENARIO && k.env().is_some_and(|e| e.is_crashed(s) || e.message_lost())
        };
        match self {
            Dynamics::PullVoting => {
                let s = k.sample(v);
                if blocked(k, s) {
                    own
                } else {
                    col(s)
                }
            }
            Dynamics::TwoChoices => {
                let (sa, sb) = (k.sample(v), k.sample(v));
                if blocked(k, sa) || blocked(k, sb) {
                    own
                } else if col(sa) == col(sb) {
                    col(sa)
                } else {
                    own
                }
            }
            Dynamics::ThreeMajority => {
                let (sa, sb, sc) = (k.sample(v), k.sample(v), k.sample(v));
                if blocked(k, sa) || blocked(k, sb) || blocked(k, sc) {
                    return own;
                }
                let (a, b, c) = (col(sa), col(sb), col(sc));
                if a == b || a == c {
                    a
                } else if b == c {
                    b
                } else {
                    // All distinct: uniform tie-break among them.
                    [a, b, c][k.rng.gen_range(0..3usize)]
                }
            }
            Dynamics::Undecided => {
                let su = k.sample(v);
                if blocked(k, su) {
                    return own;
                }
                let s = col(su);
                if own == UNDECIDED {
                    s // adopt whatever the sample holds (or stay undecided)
                } else if s == UNDECIDED || s == own {
                    own
                } else {
                    UNDECIDED
                }
            }
        }
    }
}

impl RoundProtocol for Rule {
    fn default_cap(&self, n: usize) -> (u64, f64) {
        ((200.0 * (n as f64).log2()).ceil() as u64 + 200, 200.0)
    }

    /// Consensus additionally requires that no node is undecided.
    fn is_done(&self) -> bool {
        self.undecided == 0 && self.counts.is_monochromatic()
    }

    fn step<const SCENARIO: bool>(&mut self, k: &mut Round, round: u64) -> Option<bool> {
        let cols = &self.col[..];
        for (v, next) in self.next.iter_mut().enumerate() {
            let (vu, own) = (v as u32, cols[v]);
            *next = if SCENARIO && k.env().is_some_and(|e| e.is_crashed(vu)) {
                own
            } else {
                self.dynamics.update::<SCENARIO>(cols, k, vu, own)
            };
        }
        // Re-tally (cheaper than incremental transfer bookkeeping here).
        self.undecided = 0;
        let mut tally = vec![0u64; self.counts.as_slice().len()];
        for &c in &self.next {
            if c == UNDECIDED {
                self.undecided += 1;
            } else {
                tally[c as usize] += 1;
            }
        }
        self.counts = OpinionCounts::from_counts(tally);
        std::mem::swap(&mut self.col, &mut self.next);

        let n = self.col.len() as f64;
        self.peak_undecided = self.peak_undecided.max(self.undecided as f64 / n);
        let max_support = self.counts.as_slice().iter().copied().max().unwrap_or(0);
        k.observe(
            round as f64,
            self.counts.support(self.initial_winner),
            if self.undecided == 0 { max_support } else { 0 },
        );
        Some(self.is_done())
    }

    fn on_join(&mut self, v: usize, c: u32) {
        self.col[v] = c;
    }

    fn recolor(&mut self, v: usize, c: u32) {
        self.col[v] = c;
    }

    /// Undecided nodes carry the sentinel (≥ k), which hides them from
    /// the adaptive adversary's support count.
    fn colors(&self) -> Cow<'_, [u32]> {
        Cow::Borrowed(&self.col)
    }

    fn final_counts(&self) -> OpinionCounts {
        self.counts.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_scenario::Scenario;
    use plurality_topology::Topology;

    fn biased(n: u64, k: u32, alpha: f64) -> InitialAssignment {
        InitialAssignment::with_bias(n, k, alpha).unwrap()
    }

    #[test]
    fn two_choices_preserves_large_bias() {
        let r = DynamicsConfig::new(Dynamics::TwoChoices, biased(2_000, 2, 3.0))
            .with_seed(1)
            .run();
        assert!(r.outcome.plurality_preserved());
        assert_eq!(r.outcome.winner(), Some(Opinion::new(0)));
    }

    #[test]
    fn three_majority_preserves_large_bias_multi_opinion() {
        let r = DynamicsConfig::new(Dynamics::ThreeMajority, biased(3_000, 5, 3.0))
            .with_seed(2)
            .run();
        assert!(r.outcome.plurality_preserved());
    }

    #[test]
    fn undecided_dynamics_converges_and_uses_undecided_state() {
        let r = DynamicsConfig::new(Dynamics::Undecided, biased(3_000, 2, 3.0))
            .with_seed(3)
            .run();
        assert!(r.outcome.consensus_time.is_some(), "did not converge");
        assert!(r.peak_undecided > 0.0, "never used the undecided state");
        assert!(r.outcome.plurality_preserved());
    }

    #[test]
    fn pull_voting_converges_with_overwhelming_majority() {
        // 95% initial majority: pull voting wins this whp.
        let assignment = InitialAssignment::Exact(vec![950, 50]);
        let r = DynamicsConfig::new(Dynamics::PullVoting, assignment)
            .with_seed(4)
            .run();
        assert!(r.outcome.consensus_time.is_some(), "no consensus");
        assert!(r.outcome.plurality_preserved());
    }

    #[test]
    fn pull_voting_is_slower_than_two_choices() {
        let a = biased(2_000, 2, 3.0);
        let pull = DynamicsConfig::new(Dynamics::PullVoting, a.clone())
            .with_seed(5)
            .run();
        let two = DynamicsConfig::new(Dynamics::TwoChoices, a)
            .with_seed(5)
            .run();
        let two_time = two.outcome.consensus_time.expect("two-choices converges");
        // Pull voting either did not converge at all or took longer.
        match pull.outcome.consensus_time {
            None => {}
            Some(t) => assert!(t > two_time, "pull {t} ≤ two-choices {two_time}"),
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = biased(800, 3, 2.0);
        let r1 = DynamicsConfig::new(Dynamics::ThreeMajority, a.clone())
            .with_seed(9)
            .run();
        let r2 = DynamicsConfig::new(Dynamics::ThreeMajority, a)
            .with_seed(9)
            .run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn monochromatic_start_is_instant() {
        let a = InitialAssignment::Exact(vec![100, 0]);
        for d in Dynamics::all() {
            let r = DynamicsConfig::new(d, a.clone()).run();
            assert_eq!(r.outcome.consensus_time, Some(0.0), "{}", d.name());
            assert_eq!(r.rounds, 0);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Dynamics::PullVoting.name(), "pull-voting");
        assert_eq!(Dynamics::all().len(), 4);
    }

    #[test]
    fn explicit_complete_topology_is_bitwise_identical_to_default() {
        let a = biased(900, 3, 2.5);
        let default = DynamicsConfig::new(Dynamics::ThreeMajority, a.clone())
            .with_seed(11)
            .run();
        let explicit = DynamicsConfig::new(Dynamics::ThreeMajority, a)
            .with_seed(11)
            .with_topology(Topology::Complete)
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn sparse_expander_preserves_large_bias() {
        for d in [Dynamics::TwoChoices, Dynamics::ThreeMajority] {
            let r = DynamicsConfig::new(d, biased(2_000, 2, 3.0))
                .with_seed(12)
                .with_topology(Topology::Regular { d: 8 })
                .run();
            assert!(r.outcome.consensus_time.is_some(), "{} stalled", d.name());
            assert!(r.outcome.plurality_preserved(), "{}", d.name());
        }
    }

    #[test]
    fn empty_scenario_is_bitwise_identical_to_default() {
        let a = biased(900, 3, 2.5);
        let default = DynamicsConfig::new(Dynamics::ThreeMajority, a.clone())
            .with_seed(21)
            .run();
        let explicit = DynamicsConfig::new(Dynamics::ThreeMajority, a)
            .with_seed(21)
            .with_scenario(Scenario::new())
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn tracing_off_is_bitwise_identical_to_default() {
        let a = biased(900, 3, 2.5);
        let default = DynamicsConfig::new(Dynamics::ThreeMajority, a.clone())
            .with_seed(31)
            .run();
        let explicit = DynamicsConfig::new(Dynamics::ThreeMajority, a)
            .with_seed(31)
            .with_trace(false)
            .run();
        assert_eq!(default, explicit);
        assert!(default.trace.is_none());
    }

    #[test]
    fn tracing_on_changes_nothing_but_the_trace() {
        let a = biased(900, 3, 2.5);
        let plain = DynamicsConfig::new(Dynamics::ThreeMajority, a.clone())
            .with_seed(32)
            .run();
        let traced = DynamicsConfig::new(Dynamics::ThreeMajority, a)
            .with_seed(32)
            .with_trace(true)
            .run();
        let events = traced.trace.clone().expect("trace recorded");
        // Converging runs always carry the convergence milestones.
        assert!(events.iter().any(|e| e.kind.label() == "consensus"));
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        let mut untraced = traced.clone();
        untraced.trace = None;
        assert_eq!(untraced, plain, "tracing perturbed the run");
    }

    #[test]
    fn scenario_churn_and_corruption_run_deterministically() {
        for dynamics in [Dynamics::ThreeMajority, Dynamics::Undecided] {
            let mk = || {
                DynamicsConfig::new(dynamics, biased(1_000, 3, 3.0))
                    .with_seed(22)
                    .with_scenario(
                        Scenario::parse("crash:0.3@2;corrupt:0.15:adaptive@4;join:0.3@8").unwrap(),
                    )
                    .run()
            };
            let r = mk();
            assert_eq!(r, mk(), "{}", dynamics.name());
            assert!(
                r.outcome.consensus_time.is_some(),
                "{} did not converge",
                dynamics.name()
            );
        }
    }

    #[test]
    fn oblivious_corruption_perturbs_the_trajectory() {
        let a = biased(2_000, 2, 3.0);
        let clean = DynamicsConfig::new(Dynamics::TwoChoices, a.clone())
            .with_seed(23)
            .run();
        let attacked = DynamicsConfig::new(Dynamics::TwoChoices, a)
            .with_seed(23)
            .with_scenario(Scenario::parse("corrupt:0.2@3").unwrap())
            .run();
        assert_ne!(clean, attacked, "corruption left the run untouched");
    }

    #[test]
    fn respects_round_cap() {
        // Bias 1.0 with two huge camps: pull voting will not finish in 3
        // rounds; the cap must hold.
        let a = InitialAssignment::Uniform { n: 1_000, k: 2 };
        let r = DynamicsConfig::new(Dynamics::PullVoting, a)
            .with_seed(6)
            .with_max_rounds(3)
            .run();
        assert!(r.rounds <= 3);
    }
}
