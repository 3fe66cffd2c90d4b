//! Population protocols for (approximate and exact) majority.
//!
//! The paper positions its asynchronous model against the population
//! protocol literature (Section 1.1): discrete steps, one ordered pair of
//! agents interacting per step, run time divided by `n` to obtain *parallel
//! time*. Two classic two-opinion protocols are implemented:
//!
//! * the **3-state approximate majority** protocol of Angluin, Aspnes and
//!   Eisenstat [AAE08] — `O(n log n)` interactions given bias
//!   `ω(√(n log n))`, but may err for tiny bias;
//! * the **4-state exact majority** protocol of Draief–Vojnović [DV10] and
//!   Mertzios et al. [MNRS14] — always outputs the true majority
//!   (differences are conserved), at the price of `O(n² log n)`
//!   interactions in the worst case.

use plurality_core::round::{Round, RoundParams, RoundProtocol};
use plurality_core::{InitialAssignment, Opinion, OpinionCounts, RunOutcome};
use plurality_dist::rng::Xoshiro256PlusPlus;
use plurality_obs::TraceEvent;
use plurality_scenario::Environment;
use std::borrow::Cow;

/// A two-opinion population protocol for majority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PopulationProtocol {
    /// AAE08 3-state protocol: states {A, B, blank}.
    ApproximateMajority,
    /// DV10/MNRS14 4-state protocol: states {A, B, a, b}; |A|−|B| is
    /// conserved, so the output is always the true initial majority.
    ExactMajority,
}

impl PopulationProtocol {
    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::ApproximateMajority => "3-state-approximate-majority",
            Self::ExactMajority => "4-state-exact-majority",
        }
    }
}

/// Agent states shared by both protocols. `StrongA/StrongB` double as the
/// plain A/B states of the 3-state protocol; `Blank` is its third state;
/// `WeakA/WeakB` only occur in the 4-state protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    StrongA,
    StrongB,
    WeakA,
    WeakB,
    Blank,
}

impl State {
    /// The fresh strong state of opinion `c` (0 = A, 1 = B).
    fn strong(c: u32) -> Self {
        if c == 0 {
            State::StrongA
        } else {
            State::StrongB
        }
    }
}

/// Configuration for a population-protocol run. Also runnable through
/// the unified facade (`plurality-api`'s `PopulationEngine`; spec names
/// `"approx-majority"`, `"exact-majority"`), which consumes the
/// byte-identical RNG stream.
///
/// Runs on the round kernel (`plurality_core::round`) with one
/// interaction per step, `n` per unit of parallel time, the clock of
/// scenario events. A scheduler draw that picks a crashed agent — or
/// falls inside a `burst-loss` window — consumes a step without an
/// interaction. `corrupt` and `join` overwrite agent states with fresh
/// strong opinions, which voids the 4-state protocol's exactness
/// guarantee (precisely what E18 measures). On a topology, each pair is
/// a uniformly random *directed edge* (initiator degree-proportional,
/// responder a uniform neighbor); an edgeless graph admits no
/// interaction at all.
///
/// # Examples
///
/// ```
/// use plurality_baselines::{PopulationConfig, PopulationProtocol};
/// let result = PopulationConfig::new(PopulationProtocol::ExactMajority, 120, 70)
///     .with_seed(1)
///     .run();
/// assert_eq!(result.outcome.winner(), Some(plurality_core::Opinion::new(0)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    protocol: PopulationProtocol,
    run: RoundParams,
}

impl PopulationConfig {
    /// Creates a configuration for `n` agents of which `initial_a` start
    /// with opinion A (index 0) and the rest with B (index 1).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `initial_a > n`.
    pub fn new(protocol: PopulationProtocol, n: u64, initial_a: u64) -> Self {
        assert!(n >= 2, "population needs at least 2 agents");
        assert!(initial_a <= n, "initial_a cannot exceed n");
        let assignment = InitialAssignment::Exact(vec![initial_a, n - initial_a]);
        Self {
            protocol,
            run: RoundParams::new(assignment),
        }
    }

    /// Builds from an [`InitialAssignment`] with `k = 2`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment has `k != 2`.
    pub fn from_assignment(
        protocol: PopulationProtocol,
        assignment: &InitialAssignment,
        seed: u64,
    ) -> Self {
        assert_eq!(assignment.k(), 2, "population protocols here are binary");
        // Only the size of opinion A matters. The deterministic recipes
        // state it; a Zipf split is drawn and tallied on its own stream.
        let (n, a) = match assignment {
            InitialAssignment::Exact(counts) => (counts[0] + counts[1], counts[0]),
            InitialAssignment::Uniform { n, .. } => (*n, n - n / 2),
            InitialAssignment::Zipf { .. } => {
                let mut rng = Xoshiro256PlusPlus::from_u64(seed);
                let counts = OpinionCounts::tally(&assignment.materialize(&mut rng), 2);
                (counts.n(), counts.support(Opinion::new(0)))
            }
        };
        Self::new(protocol, n, a).with_seed(seed)
    }

    plurality_core::round_param_setters!();

    /// Caps the number of interactions (default: `500·n·ln n` for the
    /// 3-state protocol, `50·n² ln n / max(1, bias gap)` for the 4-state).
    pub fn with_max_interactions(mut self, max: u64) -> Self {
        self.run.max_steps = Some(max);
        self
    }

    /// Runs the protocol.
    pub fn run(&self) -> PopulationResult {
        let (kernel, opinions) = Round::new(&self.run, "population");
        let states: Vec<State> = opinions.iter().map(|o| State::strong(o.index())).collect();
        let initial = kernel.initial_counts.as_slice();
        let mut agents = Agents {
            protocol: self.protocol,
            gap: initial[0].abs_diff(initial[1]),
            tally: Tally::of(&states),
            states,
        };
        let run = kernel.run(&mut agents);
        PopulationResult {
            protocol: self.protocol,
            outcome: run.outcome,
            interactions: run.steps,
            converged: agents.is_done(),
            trace: run.trace,
        }
    }
}

/// Result of a population-protocol run.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationResult {
    /// Which protocol ran.
    pub protocol: PopulationProtocol,
    /// Common outcome report; times are in *parallel time* (interactions
    /// divided by `n`).
    pub outcome: RunOutcome,
    /// Total pairwise interactions executed.
    pub interactions: u64,
    /// Whether the run converged (all agents output the same opinion and no
    /// strong opponents remain).
    pub converged: bool,
    /// Structured trace events, sorted by time (only when
    /// [`PopulationConfig::with_trace`] was enabled). Times are in
    /// *parallel time*, the protocols' native clock.
    pub trace: Option<Vec<TraceEvent>>,
}

/// Agents per state: strong A/B, weak A/B, blank.
#[derive(Debug, Clone, Copy, Default)]
struct Tally([u64; 5]);

impl Tally {
    fn of(states: &[State]) -> Self {
        let mut t = Self::default();
        for &s in states {
            t.0[s as usize] += 1;
        }
        t
    }

    /// All agents output one opinion: no opponent, weak or strong, and no
    /// blank agent remains.
    fn converged(&self) -> bool {
        let [sa, sb, wa, wb, blank] = self.0;
        blank == 0 && ((sb == 0 && wb == 0) || (sa == 0 && wa == 0))
    }
}

/// The agents of a population-protocol run, one interaction per kernel
/// step.
struct Agents {
    protocol: PopulationProtocol,
    /// `|A| − |B|` at the start, for the 4-state protocol's default cap.
    gap: u64,
    states: Vec<State>,
    tally: Tally,
}

impl RoundProtocol for Agents {
    const PAIRWISE: bool = true;
    const TRACKS_EPSILON: bool = false;

    fn default_cap(&self, n: usize) -> (u64, f64) {
        let nf = n as f64;
        let derived = match self.protocol {
            PopulationProtocol::ApproximateMajority => (500.0 * nf * nf.ln()).ceil() as u64,
            PopulationProtocol::ExactMajority => {
                ((50.0 * nf * nf * nf.ln()) / self.gap.max(1) as f64).ceil() as u64
            }
        };
        (derived, 50.0)
    }

    fn is_done(&self) -> bool {
        self.tally.converged()
    }

    #[inline]
    fn step<const SCENARIO: bool>(&mut self, k: &mut Round, _step: u64) -> Option<bool> {
        // Ordered pair of distinct agents (initiator, responder); on a
        // graph: a uniformly random directed edge.
        let (iu, ju) = k.sample_pair()?;
        // A step whose initiator or responder is crashed — or that falls
        // inside a loss burst — consumes scheduler time without an
        // interaction.
        let aborted =
            |e: &mut Environment| e.is_crashed(iu) || e.is_crashed(ju) || e.message_lost();
        if SCENARIO && k.env().is_some_and(aborted) {
            return Some(false);
        }
        let (i, j) = (iu as usize, ju as usize);
        let (x, y) = (self.states[i], self.states[j]);
        let (nx, ny) = match self.protocol {
            PopulationProtocol::ApproximateMajority => match (x, y) {
                (State::StrongA, State::StrongB) => (x, State::Blank),
                (State::StrongB, State::StrongA) => (x, State::Blank),
                (State::StrongA, State::Blank) => (x, State::StrongA),
                (State::StrongB, State::Blank) => (x, State::StrongB),
                _ => (x, y),
            },
            PopulationProtocol::ExactMajority => match (x, y) {
                // Strong tokens annihilate pairwise into weak ones; the
                // difference |A| − |B| is conserved.
                (State::StrongA, State::StrongB) => (State::WeakA, State::WeakB),
                (State::StrongB, State::StrongA) => (State::WeakB, State::WeakA),
                // A surviving strong side converts opposing weak tokens.
                (State::StrongA, State::WeakB) => (x, State::WeakA),
                (State::StrongB, State::WeakA) => (x, State::WeakB),
                _ => (x, y),
            },
        };
        for (agent, old, new) in [(i, x, nx), (j, y, ny)] {
            if old != new {
                self.tally.0[old as usize] -= 1;
                self.tally.0[new as usize] += 1;
                self.states[agent] = new;
            }
        }
        Some(self.tally.converged())
    }

    /// Bulk state edits: recount, then re-check convergence before the
    /// next interaction.
    fn after_effects(&mut self) -> bool {
        self.tally = Tally::of(&self.states);
        self.tally.converged()
    }

    fn on_join(&mut self, v: usize, c: u32) {
        self.states[v] = State::strong(c);
    }

    fn recolor(&mut self, v: usize, c: u32) {
        self.states[v] = State::strong(c);
    }

    /// Blank agents map to the out-of-range color 2, hiding them from the
    /// adaptive adversary's support count (oblivious victims are uniform
    /// over all alive agents, Blank included).
    fn colors(&self) -> Cow<'_, [u32]> {
        let color = |s: &State| match s {
            State::StrongA | State::WeakA => 0,
            State::StrongB | State::WeakB => 1,
            State::Blank => 2,
        };
        Cow::Owned(self.states.iter().map(color).collect())
    }

    fn final_counts(&self) -> OpinionCounts {
        let [sa, sb, wa, wb, _] = self.tally.0;
        OpinionCounts::from_counts(vec![sa + wa, sb + wb])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_obs::TraceKind;
    use plurality_scenario::Scenario;
    use plurality_topology::Topology;

    #[test]
    fn state_output_mapping() {
        // The opinion an agent outputs is the color the adversary reads.
        let agents = Agents {
            protocol: PopulationProtocol::ExactMajority,
            gap: 0,
            states: vec![
                State::StrongA,
                State::WeakA,
                State::StrongB,
                State::WeakB,
                State::Blank,
            ],
            tally: Tally::default(),
        };
        assert_eq!(agents.colors().as_ref(), [0, 0, 1, 1, 2]);
    }

    #[test]
    fn approximate_majority_converges_with_clear_bias() {
        let r = PopulationConfig::new(PopulationProtocol::ApproximateMajority, 1_000, 700)
            .with_seed(1)
            .run();
        assert!(r.converged, "did not converge");
        assert!(r.outcome.plurality_preserved());
        // O(n log n) interactions ⇒ parallel time O(log n); be generous.
        assert!(
            r.outcome.duration < 200.0,
            "parallel time {}",
            r.outcome.duration
        );
    }

    #[test]
    fn exact_majority_is_exact_even_with_minimal_bias() {
        // 51 vs 49: the 3-state protocol may err here; the 4-state never.
        for seed in 0..5 {
            let r = PopulationConfig::new(PopulationProtocol::ExactMajority, 100, 51)
                .with_seed(seed)
                .run();
            assert!(r.converged, "seed {seed} did not converge");
            assert_eq!(
                r.outcome.winner(),
                Some(Opinion::new(0)),
                "seed {seed} output the minority"
            );
        }
    }

    #[test]
    fn exact_majority_favors_b_when_b_larger() {
        let r = PopulationConfig::new(PopulationProtocol::ExactMajority, 100, 40)
            .with_seed(3)
            .run();
        assert!(r.converged);
        assert_eq!(r.outcome.winner(), Some(Opinion::new(1)));
    }

    #[test]
    fn exact_majority_slower_than_approximate_on_small_bias() {
        let approx = PopulationConfig::new(PopulationProtocol::ApproximateMajority, 500, 300)
            .with_seed(4)
            .run();
        let exact = PopulationConfig::new(PopulationProtocol::ExactMajority, 500, 260)
            .with_seed(4)
            .run();
        assert!(approx.converged && exact.converged);
        assert!(
            exact.interactions > approx.interactions,
            "exact {} ≤ approx {}",
            exact.interactions,
            approx.interactions
        );
    }

    #[test]
    fn explicit_complete_topology_is_bitwise_identical_to_default() {
        let default = PopulationConfig::new(PopulationProtocol::ApproximateMajority, 400, 260)
            .with_seed(9)
            .run();
        let explicit = PopulationConfig::new(PopulationProtocol::ApproximateMajority, 400, 260)
            .with_seed(9)
            .with_topology(Topology::Complete)
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn sparse_expander_still_finds_the_majority() {
        let r = PopulationConfig::new(PopulationProtocol::ApproximateMajority, 600, 420)
            .with_seed(10)
            .with_topology(Topology::Regular { d: 8 })
            .run();
        assert!(r.converged, "did not converge on the expander");
        assert_eq!(r.outcome.winner(), Some(Opinion::new(0)));
    }

    #[test]
    fn edgeless_topology_never_interacts() {
        let r = PopulationConfig::new(PopulationProtocol::ExactMajority, 50, 30)
            .with_seed(11)
            .with_topology(Topology::ErdosRenyi { p: 0.0 })
            .run();
        assert!(!r.converged);
        assert_eq!(r.interactions, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let r1 = PopulationConfig::new(PopulationProtocol::ApproximateMajority, 300, 200)
            .with_seed(7)
            .run();
        let r2 = PopulationConfig::new(PopulationProtocol::ApproximateMajority, 300, 200)
            .with_seed(7)
            .run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn from_assignment_maps_counts() {
        let a = InitialAssignment::Exact(vec![60, 40]);
        let cfg = PopulationConfig::from_assignment(PopulationProtocol::ExactMajority, &a, 1);
        let r = cfg.run();
        assert_eq!(r.outcome.n, 100);
        assert_eq!(r.outcome.winner(), Some(Opinion::new(0)));
    }

    #[test]
    fn from_assignment_counts_match_a_materialized_tally() {
        let assignments = [
            InitialAssignment::Exact(vec![60, 40]),
            InitialAssignment::Exact(vec![0, 7]),
            InitialAssignment::Exact(vec![1_000, 999]),
            InitialAssignment::Uniform { n: 100, k: 2 },
            InitialAssignment::Uniform { n: 101, k: 2 },
            InitialAssignment::Zipf {
                n: 500,
                k: 2,
                s: 1.2,
            },
        ];
        for a in &assignments {
            for seed in 0..6 {
                let mut rng = Xoshiro256PlusPlus::from_u64(seed);
                let counts = OpinionCounts::tally(&a.materialize(&mut rng), 2);
                for protocol in [
                    PopulationProtocol::ApproximateMajority,
                    PopulationProtocol::ExactMajority,
                ] {
                    let tallied = PopulationConfig::new(
                        protocol,
                        counts.n(),
                        counts.support(Opinion::new(0)),
                    )
                    .with_seed(seed);
                    assert_eq!(
                        PopulationConfig::from_assignment(protocol, a, seed),
                        tallied,
                        "{a:?}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn from_assignment_rejects_k3() {
        let a = InitialAssignment::Uniform { n: 30, k: 3 };
        let _ = PopulationConfig::from_assignment(PopulationProtocol::ExactMajority, &a, 1);
    }

    #[test]
    fn empty_scenario_is_bitwise_identical_to_default() {
        let default = PopulationConfig::new(PopulationProtocol::ApproximateMajority, 400, 260)
            .with_seed(13)
            .run();
        let explicit = PopulationConfig::new(PopulationProtocol::ApproximateMajority, 400, 260)
            .with_seed(13)
            .with_scenario(Scenario::new())
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn corruption_can_defeat_exact_majority() {
        // The 4-state protocol's exactness rests on |A| − |B| being
        // conserved; a large adaptive corruption wave breaks the
        // conservation law, so the output may flip — deterministically
        // reproducible either way.
        let mk = || {
            PopulationConfig::new(PopulationProtocol::ExactMajority, 300, 160)
                .with_seed(14)
                .with_scenario(Scenario::parse("corrupt:0.4:adaptive@2").unwrap())
                .run()
        };
        let r = mk();
        assert_eq!(r, mk());
        assert!(r.converged, "did not converge");
        assert_eq!(
            r.outcome.winner(),
            Some(Opinion::new(1)),
            "a 40% adaptive flip of a 160/140 split must hand B the win"
        );
    }

    #[test]
    fn crash_churn_runs_deterministically_and_converges() {
        let mk = || {
            PopulationConfig::new(PopulationProtocol::ApproximateMajority, 500, 350)
                .with_seed(15)
                .with_scenario(Scenario::parse("crash:0.3@1;join:1@5;burst-loss:0.5@2..4").unwrap())
                .run()
        };
        let r = mk();
        assert_eq!(r, mk());
        assert!(r.converged, "did not converge");
    }

    #[test]
    fn tracing_off_is_bitwise_identical_to_default() {
        let plain = PopulationConfig::new(PopulationProtocol::ApproximateMajority, 400, 260)
            .with_seed(16)
            .run();
        let knob = PopulationConfig::new(PopulationProtocol::ApproximateMajority, 400, 260)
            .with_seed(16)
            .with_trace(false)
            .run();
        assert_eq!(plain, knob);
        assert!(plain.trace.is_none());
    }

    #[test]
    fn tracing_on_changes_nothing_but_the_trace() {
        let plain = PopulationConfig::new(PopulationProtocol::ExactMajority, 300, 160)
            .with_seed(17)
            .with_scenario(Scenario::parse("corrupt:0.4:adaptive@2").unwrap())
            .run();
        let mut traced = PopulationConfig::new(PopulationProtocol::ExactMajority, 300, 160)
            .with_seed(17)
            .with_scenario(Scenario::parse("corrupt:0.4:adaptive@2").unwrap())
            .with_trace(true)
            .run();
        let events = traced.trace.take().expect("trace requested");
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            TraceKind::ScenarioEffect {
                name: "corrupt",
                ..
            }
        )));
        assert!(traced.converged);
        assert!(events.iter().any(|e| matches!(
            e.kind,
            TraceKind::Milestone {
                name: "consensus",
                ..
            }
        )));
        assert_eq!(plain, traced);
    }

    #[test]
    fn interaction_cap_is_respected() {
        let r = PopulationConfig::new(PopulationProtocol::ExactMajority, 100, 50)
            .with_seed(5)
            .with_max_interactions(1_000)
            .run();
        assert!(r.interactions <= 1_000);
        // A perfect tie cannot converge to a single opinion.
        assert!(!r.converged);
    }
}
