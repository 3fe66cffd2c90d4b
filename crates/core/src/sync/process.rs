//! The synchronous generation protocol (Algorithm 1).
//!
//! Rounds are simultaneous: every node samples two uniform nodes and updates
//! against the *previous* round's state. At scheduled two-choices rounds
//! `{t_i}` a node that sees two same-generation, same-color samples at least
//! as high as itself promotes to the next generation; at every round, a node
//! seeing a strictly higher-generation sample adopts its generation and
//! color (the propagation / pull-voting step).

use crate::genstate::GenerationTable;
use crate::opinion::{InitialAssignment, Opinion, OpinionCounts};
use crate::outcome::{GenerationBirth, RecordLevel, RunOutcome};
use crate::round::{Round, RoundProtocol, RunAxes};
use crate::sync::schedule::{generations_needed, lifecycle_length, Schedule, GENERATION_CAP};
use plurality_obs::{TraceEvent, TraceKind};
use plurality_scenario::Environment;
use plurality_sim::Series;
use std::borrow::Cow;

/// How two-choices rounds are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// The paper's predefined `{t_i}` computed from `(n, k, α, γ)`
    /// (Section 2.2). Requires the initial bias to be known (or hinted).
    #[default]
    Predefined,
    /// Ablation (E15): trigger a two-choices round whenever the newest
    /// generation holds at least a `γ` fraction of nodes — the synchronous
    /// analogue of what the asynchronous leader does by counting signals.
    Adaptive,
}

/// Configuration for a synchronous run. Construct with
/// [`SyncConfig::new`] and chain the `with_*` setters — or run through
/// the unified facade (`plurality-api`'s `SyncEngine`, spec name
/// `"sync"`), which consumes the byte-identical RNG stream.
///
/// Runs on the [round kernel](crate::round): scenario event times are
/// in rounds, and an event at time `t` takes effect just before the
/// updates of the first round ≥ `t`; the module docs say what each
/// effect does. Both per-round samples of every node are uniform
/// neighbors on the configured topology (isolated nodes sample
/// themselves).
///
/// # Examples
///
/// ```
/// use plurality_core::sync::{ScheduleMode, SyncConfig};
/// use plurality_core::InitialAssignment;
/// let assignment = InitialAssignment::with_bias(2_000, 4, 2.0).unwrap();
/// let result = SyncConfig::new(assignment)
///     .with_seed(7)
///     .with_mode(ScheduleMode::Adaptive)
///     .run();
/// assert!(result.outcome.consensus_time.is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyncConfig {
    run: RunAxes,
    max_rounds: Option<u64>,
    gamma: f64,
    mode: ScheduleMode,
    record: RecordLevel,
    alpha_hint: Option<f64>,
}

impl From<RunAxes> for SyncConfig {
    /// A configuration on `axes`, with the defaults of [`SyncConfig::new`].
    fn from(axes: RunAxes) -> Self {
        Self {
            run: axes,
            max_rounds: None,
            gamma: 0.5,
            mode: ScheduleMode::Predefined,
            record: RecordLevel::Generations,
            alpha_hint: None,
        }
    }
}

impl SyncConfig {
    /// Creates a configuration with the paper's defaults: `γ = 1/2`,
    /// predefined schedule, `ε = 0.05`, seed 0.
    pub fn new(assignment: InitialAssignment) -> Self {
        Self::from(RunAxes::from(assignment))
    }

    crate::run_axes_setters!(run, epsilon);

    /// Sets the generation-density threshold `γ ∈ (0, 1)` (default 1/2).
    ///
    /// # Panics
    ///
    /// Panics if `gamma ∉ (0, 1)`.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        assert!(gamma > 0.0 && gamma < 1.0, "gamma must lie in (0, 1)");
        self.gamma = gamma;
        self
    }

    /// Sets the schedule mode (default [`ScheduleMode::Predefined`]).
    pub fn with_mode(mut self, mode: ScheduleMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the telemetry level (default [`RecordLevel::Generations`]).
    pub fn with_record(mut self, record: RecordLevel) -> Self {
        self.record = record;
        self
    }

    /// Caps the number of rounds (default: derived from the schedule).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Overrides the bias `α₀` used to build the predefined schedule
    /// (default: the realized initial bias).
    pub fn with_alpha_hint(mut self, alpha: f64) -> Self {
        self.alpha_hint = Some(alpha);
        self
    }

    /// Runs the synchronous protocol.
    ///
    /// # Panics
    ///
    /// Panics if the assignment materializes fewer than 2 nodes, or if
    /// the configured topology cannot be built for that population size
    /// (see [`Topology::build`](plurality_topology::Topology::build)).
    pub fn run(&self) -> SyncResult {
        let (kernel, col) = Round::new(&self.run, self.max_rounds, "synchronous");
        let (n, k) = (col.len(), self.run.assignment.k());
        let table = GenerationTable::from_states(&vec![0; n], &col, k as usize);
        let bias = kernel.initial_bias;
        let alpha = self
            .alpha_hint
            .unwrap_or(if bias.is_finite() { bias.max(1.0) } else { 2.0 });
        let winner = kernel.initial_winner;
        let series = |name: &str, first: f64| {
            matches!(self.record, RecordLevel::Full).then(|| {
                let mut s = Series::new(name);
                s.push(0.0, first);
                s
            })
        };
        let mut rule = SyncRule {
            cfg: self,
            winner,
            gen: vec![0; n],
            new_gen: vec![0; n],
            new_col: col.clone(),
            col,
            table,
            alpha,
            g_star: generations_needed(n as u64, alpha, GENERATION_CAP),
            schedule: matches!(self.mode, ScheduleMode::Predefined)
                .then(|| Schedule::predefined(n as u64, k, alpha, self.gamma)),
            births: Vec::new(),
            two_choices_rounds: Vec::new(),
            newest_frac: series("newest_generation_fraction", 1.0),
            winner_frac: series("winner_fraction", kernel.initial_counts.fraction(winner)),
        };
        let run = kernel.run(&mut rule);
        SyncResult {
            outcome: run.outcome,
            rounds: run.steps,
            g_star: rule.g_star,
            two_choices_rounds: rule.two_choices_rounds,
            newest_generation_fraction: rule.newest_frac,
            winner_fraction: rule.winner_frac,
            trace: run.trace,
        }
    }
}

/// Result of a synchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncResult {
    /// Common outcome report.
    pub outcome: RunOutcome,
    /// Number of rounds simulated.
    pub rounds: u64,
    /// The `G*` used.
    pub g_star: u32,
    /// The two-choices rounds actually executed.
    pub two_choices_rounds: Vec<u64>,
    /// Per-round fraction of the newest generation
    /// (only at [`RecordLevel::Full`]).
    pub newest_generation_fraction: Option<Series>,
    /// Per-round fraction of nodes holding the initial plurality opinion
    /// (only at [`RecordLevel::Full`]).
    pub winner_fraction: Option<Series>,
    /// Structured trace events, sorted by time (only when
    /// [`SyncConfig::with_trace`] was enabled).
    pub trace: Option<Vec<TraceEvent>>,
}

/// One node's update rule (Algorithm 1), as a pure function.
///
/// `(vg, vc)` is the node's generation/color; `(g1, c1)` and `(g2, c2)` are
/// the two samples; `two_choices` says whether this round is in `{t_i}`.
/// Returns the node's next `(generation, color)`.
#[inline]
pub fn step_node(
    vg: u32,
    vc: u32,
    g1: u32,
    c1: u32,
    g2: u32,
    c2: u32,
    two_choices: bool,
) -> (u32, u32) {
    // Lines 3–5: two-choices promotion.
    if two_choices && g1 == g2 && c1 == c2 && vg <= g1 {
        return (g1 + 1, c1);
    }
    // Lines 6–8: propagation from the higher-generation sample.
    let (hg, hc) = if g1 >= g2 { (g1, c1) } else { (g2, c2) };
    if hg > vg {
        (hg, hc)
    } else {
        (vg, vc)
    }
}

/// Every node's next state for one round into `new_gen`/`new_col`. A
/// crashed node freezes; a node whose samples hit a crashed peer or a
/// lost channel aborts this round's interaction and keeps its state.
#[inline]
fn update<const SCENARIO: bool>(
    k: &mut Round,
    gen: &[u32],
    col: &[u32],
    new_gen: &mut [u32],
    new_col: &mut [u32],
    two_choices: bool,
) {
    for v in 0..gen.len() {
        let vu = v as u32;
        let (g, c) = if SCENARIO && k.env().is_some_and(|e| e.is_crashed(vu)) {
            (gen[v], col[v])
        } else {
            let (a, b) = (k.sample(vu), k.sample(vu));
            let aborted = |e: &mut Environment| {
                e.is_crashed(a) || e.is_crashed(b) || e.message_lost() || e.message_lost()
            };
            if SCENARIO && k.env().is_some_and(aborted) {
                (gen[v], col[v])
            } else {
                let (a, b) = (a as usize, b as usize);
                step_node(gen[v], col[v], gen[a], col[a], gen[b], col[b], two_choices)
            }
        };
        new_gen[v] = g;
        new_col[v] = c;
    }
}

/// Algorithm 1's node state and round, run by the round kernel.
struct SyncRule<'a> {
    cfg: &'a SyncConfig,
    winner: Opinion,
    gen: Vec<u32>,
    col: Vec<u32>,
    /// Each node's generation and color after the current round.
    new_gen: Vec<u32>,
    new_col: Vec<u32>,
    table: GenerationTable,
    alpha: f64,
    g_star: u32,
    schedule: Option<Schedule>,
    births: Vec<GenerationBirth>,
    two_choices_rounds: Vec<u64>,
    newest_frac: Option<Series>,
    winner_frac: Option<Series>,
}

impl RoundProtocol for SyncRule<'_> {
    fn default_cap(&self, n: usize) -> (u64, f64) {
        let k = self.table.k() as u32;
        let x1 = lifecycle_length(self.alpha.max(1.0 + 1e-9), k, self.cfg.gamma, 1)
            .ceil()
            .max(1.0) as u64;
        let tail = 4 * (n as f64).log2().ceil() as u64 + 100;
        let derived = match &self.schedule {
            Some(s) => s.final_round() + tail,
            None => self.g_star as u64 * (x1 + 4) + tail,
        };
        (derived, tail as f64)
    }

    fn is_done(&self) -> bool {
        self.table.is_monochromatic()
    }

    fn step<const SCENARIO: bool>(&mut self, k: &mut Round, round: u64) -> Option<bool> {
        let now = round as f64;
        let table = &mut self.table;
        let created = table.max_generation();
        let two_choices = match &self.schedule {
            Some(s) => s.is_two_choices_round(round),
            None => created < self.g_star && table.fraction_in(created) >= self.cfg.gamma,
        };
        if two_choices {
            self.two_choices_rounds.push(round);
            let name = "two-choices-round";
            k.emit(now, TraceKind::Milestone { name, value: now });
        }

        // Snapshot of the would-be parent generation, just before the round.
        let parent_gen = table.max_generation();
        let parent_bias = table.bias_in(parent_gen).unwrap_or(f64::INFINITY);
        let parent_collision = table.collision_in(parent_gen);

        let (gen, col) = (&self.gen, &self.col);
        update::<SCENARIO>(
            k,
            gen,
            col,
            &mut self.new_gen,
            &mut self.new_col,
            two_choices,
        );
        let table = &mut self.table;
        for v in 0..gen.len() {
            if self.new_gen[v] != gen[v] || self.new_col[v] != col[v] {
                table.transfer(gen[v], col[v], self.new_gen[v], self.new_col[v]);
            }
        }
        std::mem::swap(&mut self.gen, &mut self.new_gen);
        std::mem::swap(&mut self.col, &mut self.new_col);

        let newest = table.max_generation();
        if newest > parent_gen {
            k.emit(now, TraceKind::Birth { generation: newest });
            if !matches!(self.cfg.record, RecordLevel::Outcome) {
                self.births.push(GenerationBirth {
                    generation: newest,
                    time: now,
                    bias: table.bias_in(newest).unwrap_or(f64::INFINITY),
                    parent_bias,
                    initial_fraction: table.fraction_in(newest),
                    parent_collision,
                });
            }
        }

        let support = table.color_support(self.winner);
        k.observe(now, support, table.max_color_support());
        if let Some(s) = self.newest_frac.as_mut() {
            s.push(now, table.fraction_in(newest));
        }
        if let Some(s) = self.winner_frac.as_mut() {
            s.push(now, support as f64 / table.n() as f64);
        }
        Some(table.is_monochromatic())
    }

    fn on_join(&mut self, v: usize, c: u32) {
        if (self.gen[v], self.col[v]) != (0, c) {
            self.table.transfer(self.gen[v], self.col[v], 0, c);
            self.gen[v] = 0;
            self.col[v] = c;
        }
    }

    fn recolor(&mut self, v: usize, c: u32) {
        if self.col[v] != c {
            self.table
                .transfer(self.gen[v], self.col[v], self.gen[v], c);
            self.col[v] = c;
        }
    }

    fn colors(&self) -> Cow<'_, [u32]> {
        Cow::Borrowed(&self.col)
    }

    fn final_counts(&self) -> OpinionCounts {
        self.table.global_counts()
    }

    fn generations(&mut self) -> Vec<GenerationBirth> {
        std::mem::take(&mut self.births)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_scenario::Scenario;
    use plurality_topology::Topology;

    #[test]
    fn step_node_two_choices_promotes() {
        // Two same-gen, same-color samples at or above v's generation.
        assert_eq!(step_node(0, 9, 0, 3, 0, 3, true), (1, 3));
        assert_eq!(step_node(2, 9, 2, 3, 2, 3, true), (3, 3));
        // v above the samples: no promotion, no propagation.
        assert_eq!(step_node(3, 9, 2, 3, 2, 3, true), (3, 9));
    }

    #[test]
    fn step_node_two_choices_requires_agreement() {
        // Different colors: falls through to propagation (no higher gen).
        assert_eq!(step_node(0, 9, 0, 3, 0, 4, true), (0, 9));
        // Different generations: propagation from the higher one.
        assert_eq!(step_node(0, 9, 2, 3, 1, 4, true), (2, 3));
    }

    #[test]
    fn step_node_propagation_only_outside_schedule() {
        // Same conditions as promotion, but not a two-choices round.
        assert_eq!(step_node(0, 9, 0, 3, 0, 3, false), (0, 9));
        // Higher-generation sample wins.
        assert_eq!(step_node(0, 9, 1, 3, 0, 5, false), (1, 3));
        assert_eq!(step_node(0, 9, 0, 5, 1, 3, false), (1, 3));
    }

    #[test]
    fn converges_to_plurality_with_large_bias() {
        let assignment = InitialAssignment::with_bias(2_000, 3, 3.0).unwrap();
        let result = SyncConfig::new(assignment).with_seed(1).run();
        assert!(result.outcome.consensus_time.is_some(), "did not converge");
        assert!(result.outcome.plurality_preserved());
        assert_eq!(result.outcome.winner(), Some(Opinion::new(0)));
    }

    #[test]
    fn adaptive_mode_converges_too() {
        let assignment = InitialAssignment::with_bias(2_000, 3, 3.0).unwrap();
        let result = SyncConfig::new(assignment)
            .with_seed(2)
            .with_mode(ScheduleMode::Adaptive)
            .run();
        assert!(result.outcome.plurality_preserved());
        assert!(!result.two_choices_rounds.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let assignment = InitialAssignment::with_bias(500, 4, 2.0).unwrap();
        let r1 = SyncConfig::new(assignment.clone()).with_seed(42).run();
        let r2 = SyncConfig::new(assignment.clone()).with_seed(42).run();
        assert_eq!(r1, r2);
        // A different seed produces a different trajectory; generation-birth
        // telemetry carries enough precision that collisions are absurd.
        let r3 = SyncConfig::new(assignment).with_seed(43).run();
        assert_ne!(r1.outcome.generations, r3.outcome.generations);
    }

    #[test]
    fn monochromatic_start_is_instant_consensus() {
        let assignment = InitialAssignment::Exact(vec![100, 0]);
        let result = SyncConfig::new(assignment).run();
        assert_eq!(result.outcome.consensus_time, Some(0.0));
        assert_eq!(result.rounds, 0);
        assert!(result.outcome.plurality_preserved());
    }

    #[test]
    fn generation_births_are_recorded_in_order() {
        let assignment = InitialAssignment::with_bias(20_000, 4, 1.5).unwrap();
        let result = SyncConfig::new(assignment).with_seed(3).run();
        let gens: Vec<u32> = result
            .outcome
            .generations
            .iter()
            .map(|b| b.generation)
            .collect();
        assert!(!gens.is_empty());
        for (i, &g) in gens.iter().enumerate() {
            assert_eq!(g, i as u32 + 1, "births out of order: {gens:?}");
        }
        // First birth happens at round t₁ = 1.
        assert_eq!(result.outcome.generations[0].time, 1.0);
    }

    #[test]
    fn bias_grows_across_generations() {
        // The squaring dynamics (Lemma 4): later generations have higher
        // bias; the last one should exceed k by a wide margin.
        let assignment = InitialAssignment::with_bias(50_000, 4, 1.5).unwrap();
        let result = SyncConfig::new(assignment).with_seed(4).run();
        let births = &result.outcome.generations;
        assert!(births.len() >= 2);
        let finite: Vec<f64> = births
            .iter()
            .map(|b| b.bias)
            .take_while(|b| b.is_finite())
            .collect();
        for w in finite.windows(2) {
            assert!(
                w[1] > w[0] * 1.2,
                "bias did not grow: {:?}",
                births.iter().map(|b| b.bias).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn epsilon_before_full_consensus() {
        let assignment = InitialAssignment::with_bias(5_000, 3, 2.0).unwrap();
        let result = SyncConfig::new(assignment)
            .with_seed(5)
            .with_epsilon(0.1)
            .run();
        let eps = result.outcome.epsilon_time.expect("eps-converged");
        let full = result.outcome.consensus_time.expect("converged");
        assert!(eps <= full);
    }

    #[test]
    fn full_record_produces_series() {
        let assignment = InitialAssignment::with_bias(1_000, 3, 2.0).unwrap();
        let result = SyncConfig::new(assignment)
            .with_seed(6)
            .with_record(RecordLevel::Full)
            .run();
        let growth = result.newest_generation_fraction.expect("series");
        assert!(growth.len() as u64 >= result.rounds);
        let wf = result.winner_fraction.expect("series");
        assert!(wf.last_value().unwrap() > 0.99);
    }

    #[test]
    fn explicit_complete_topology_is_bitwise_identical_to_default() {
        let assignment = InitialAssignment::with_bias(1_500, 3, 2.5).unwrap();
        let default = SyncConfig::new(assignment.clone()).with_seed(21).run();
        let explicit = SyncConfig::new(assignment)
            .with_seed(21)
            .with_topology(Topology::Complete)
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn sparse_expander_converges_to_plurality() {
        let assignment = InitialAssignment::with_bias(2_048, 2, 3.0).unwrap();
        let result = SyncConfig::new(assignment)
            .with_seed(22)
            .with_topology(Topology::Regular { d: 8 })
            .run();
        assert!(result.outcome.consensus_time.is_some(), "did not converge");
        assert!(result.outcome.plurality_preserved());
    }

    #[test]
    fn sparse_runs_are_deterministic_per_seed() {
        let mk = || {
            let assignment = InitialAssignment::with_bias(600, 2, 3.0).unwrap();
            SyncConfig::new(assignment)
                .with_seed(23)
                .with_topology(Topology::ErdosRenyi { p: 0.02 })
                .run()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn bad_gamma_panics() {
        let assignment = InitialAssignment::with_bias(100, 2, 2.0).unwrap();
        let _ = SyncConfig::new(assignment).with_gamma(1.5);
    }

    #[test]
    fn empty_scenario_is_bitwise_identical_to_default() {
        // The tentpole acceptance check: attaching an explicitly empty
        // scenario must leave the process RNG stream byte-identical.
        let assignment = InitialAssignment::with_bias(1_500, 3, 2.5).unwrap();
        let default = SyncConfig::new(assignment.clone()).with_seed(51).run();
        let explicit = SyncConfig::new(assignment)
            .with_seed(51)
            .with_scenario(Scenario::new())
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn tracing_off_is_bitwise_identical_to_default() {
        let assignment = InitialAssignment::with_bias(1_500, 3, 2.5).unwrap();
        let default = SyncConfig::new(assignment.clone()).with_seed(57).run();
        let explicit = SyncConfig::new(assignment)
            .with_seed(57)
            .with_trace(false)
            .run();
        assert_eq!(default, explicit);
        assert!(default.trace.is_none());
    }

    #[test]
    fn tracing_on_changes_nothing_but_the_trace() {
        let assignment = InitialAssignment::with_bias(1_500, 3, 2.5).unwrap();
        let plain = SyncConfig::new(assignment.clone()).with_seed(58).run();
        let traced = SyncConfig::new(assignment)
            .with_seed(58)
            .with_trace(true)
            .run();
        let events = traced.trace.clone().expect("trace recorded");
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        // One birth event per recorded generation, one milestone per
        // executed two-choices round.
        let births = events
            .iter()
            .filter(|e| e.kind.category() == "birth")
            .count();
        assert_eq!(births, traced.outcome.generations.len());
        let tc = events
            .iter()
            .filter(|e| e.kind.label() == "two-choices-round")
            .count();
        assert_eq!(tc, traced.two_choices_rounds.len());
        let mut untraced = traced.clone();
        untraced.trace = None;
        assert_eq!(untraced, plain, "tracing perturbed the run");
    }

    #[test]
    fn crash_then_recover_still_converges_to_plurality() {
        let assignment = InitialAssignment::with_bias(2_000, 3, 3.0).unwrap();
        let scenario = Scenario::new().crash(0.3, 2.0).recover(1.0, 6.0);
        let result = SyncConfig::new(assignment)
            .with_seed(52)
            .with_scenario(scenario)
            .run();
        assert!(result.outcome.consensus_time.is_some(), "did not converge");
        assert!(result.outcome.plurality_preserved());
    }

    #[test]
    fn early_adaptive_corruption_perturbs_but_is_absorbed() {
        // Two 20% adaptive waves during the squaring phase visibly
        // perturb the trajectory, yet the generation machinery absorbs
        // them — the aging robustness E18 measures at scale.
        let assignment = InitialAssignment::with_bias(3_000, 2, 1.5).unwrap();
        let clean = SyncConfig::new(assignment.clone()).with_seed(53).run();
        let attacked = SyncConfig::new(assignment)
            .with_seed(53)
            .with_scenario(
                Scenario::parse("corrupt:0.2:adaptive@2;corrupt:0.2:adaptive@4").unwrap(),
            )
            .run();
        assert_ne!(clean, attacked, "corruption left the run untouched");
        assert!(attacked.outcome.plurality_preserved());
    }

    #[test]
    fn late_adaptive_corruption_costs_rounds() {
        // The same budget spent near the end of the run (round 20 of a
        // 22-round clean trajectory) must do real damage: cost rounds,
        // steal the win, or prevent consensus outright.
        let assignment = InitialAssignment::with_bias(3_000, 2, 1.5).unwrap();
        let clean = SyncConfig::new(assignment.clone()).with_seed(53).run();
        let attacked = SyncConfig::new(assignment)
            .with_seed(53)
            .with_scenario(Scenario::parse("corrupt:0.2:adaptive@20").unwrap())
            .run();
        let clean_t = clean.outcome.consensus_time.expect("clean run converges");
        let damaged = match attacked.outcome.consensus_time {
            None => true,
            Some(t) => t > clean_t || !attacked.outcome.plurality_preserved(),
        };
        assert!(
            damaged,
            "a late 20% adaptive adversary left the run untouched (clean {clean_t}, attacked {:?})",
            attacked.outcome.consensus_time
        );
    }

    #[test]
    fn join_churn_resets_generations_and_converges() {
        let assignment = InitialAssignment::with_bias(2_000, 2, 3.0).unwrap();
        let scenario = Scenario::parse("crash:0.25@1;join:0.25@3").unwrap();
        let result = SyncConfig::new(assignment)
            .with_seed(54)
            .with_scenario(scenario)
            .run();
        assert!(result.outcome.consensus_time.is_some(), "did not converge");
    }

    #[test]
    fn burst_loss_and_rewire_runs_are_deterministic_per_seed() {
        let mk = || {
            let assignment = InitialAssignment::with_bias(900, 2, 3.0).unwrap();
            SyncConfig::new(assignment)
                .with_seed(55)
                .with_scenario(
                    Scenario::parse("burst-loss:0.5@1..3;rewire:regular:8@4;rewire:complete@8")
                        .unwrap(),
                )
                .run()
        };
        let r = mk();
        assert_eq!(r, mk());
        assert!(r.outcome.consensus_time.is_some(), "did not converge");
    }

    #[test]
    fn full_crash_freezes_the_population() {
        // Everyone crashes at round 1 and never recovers: no state can
        // change, so the run must time out without converging.
        let assignment = InitialAssignment::with_bias(400, 2, 2.0).unwrap();
        let result = SyncConfig::new(assignment)
            .with_seed(56)
            .with_scenario(Scenario::new().crash(1.0, 1.0))
            .with_max_rounds(50)
            .run();
        assert_eq!(result.outcome.consensus_time, None);
        assert_eq!(result.rounds, 50);
    }
}
