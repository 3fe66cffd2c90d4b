//! The [`Protocol`] trait and its engine implementations — the six
//! per-node engines plus the four mean-field aggregate (`*-mf`)
//! backends from `plurality-agg`.
//!
//! Each implementation is a plain-data handle carrying only the
//! genuinely protocol-specific parameters; everything every protocol
//! has (assignment, ε, seed, record level, topology, scenario, cap)
//! arrives through the shared [`RunConfig`]. Unset knobs (`None`)
//! delegate to the engine builder's own default, so a facade run is
//! indistinguishable — bitwise, including the RNG stream — from the
//! direct builder call it stands for.

use crate::config::RunConfig;
use crate::report::Report;
use plurality_agg::{LeaderMfConfig, Majority3MfConfig, PopulationMfConfig, UndecidedMfConfig};
use plurality_baselines::{Dynamics, DynamicsConfig, PopulationConfig, PopulationProtocol};
use plurality_core::cluster::{self, ClusterConfig};
use plurality_core::leader::{self, LeaderConfig};
use plurality_core::sync::{ScheduleMode, SyncConfig, UrnConfig};
use plurality_core::{InitialAssignment, OpinionCounts};
use plurality_dist::rng::Xoshiro256PlusPlus;
use plurality_dist::{InvalidParameterError, Latency};
use plurality_scenario::Action;
use plurality_topology::Topology;

/// One protocol, runnable from the shared [`RunConfig`].
///
/// The contract mirrors the engine builders: [`Protocol::run`] panics on
/// configurations the engine itself would panic on (too-small
/// populations, unbuildable topologies); [`Protocol::check`] is the
/// non-panicking gate front ends call first to turn those — and
/// protocol/config incompatibilities like a topology on the mean-field
/// urn — into teaching errors.
pub trait Protocol: Send + Sync {
    /// The canonical registry name (`"sync"`, `"leader"`, …).
    fn name(&self) -> &'static str;

    /// Checks that `cfg` is compatible with this protocol. The default
    /// validates the common axes ([`RunConfig::validate`]) and rejects
    /// the run-long scenario actions `signal-loss` and `stragglers`,
    /// which only the asynchronous engines ([`LeaderEngine`],
    /// [`ClusterEngine`]) read; protocols with extra
    /// constraints (urn's mean-field exemption, the binary population
    /// protocols) layer theirs on top via [`Protocol::check_extra`].
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] describing the first violated
    /// constraint.
    fn check(&self, cfg: &RunConfig) -> Result<(), InvalidParameterError> {
        cfg.validate()?;
        if let Some(action) = cfg
            .scenario()
            .events()
            .iter()
            .map(|e| e.action)
            .find(|a| a.is_run_long())
        {
            let alternative = match action {
                Action::SignalLoss { p } => format!(
                    "; for message loss on `{}` script a burst instead, e.g. \
                     `burst-loss:{p}@0..1000000`",
                    self.name()
                ),
                _ => String::new(),
            };
            return Err(InvalidParameterError::new(format!(
                "scenario action `{}` is read only by the asynchronous engines, \
                 so run `leader` or `cluster`{alternative}",
                action.keyword()
            )));
        }
        self.check_extra(cfg)
    }

    /// Protocol-specific constraints on top of [`Protocol::check`]'s
    /// shared ones (default: none).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] describing the first violated
    /// constraint.
    fn check_extra(&self, _cfg: &RunConfig) -> Result<(), InvalidParameterError> {
        Ok(())
    }

    /// Runs the protocol. Consumes the byte-identical RNG stream of the
    /// corresponding direct engine-builder call.
    ///
    /// # Panics
    ///
    /// Panics exactly where the underlying engine builder's `run` does
    /// (see each engine's documentation); call [`Protocol::check`] first
    /// to surface those as errors instead.
    fn run(&self, cfg: &RunConfig) -> Report;
}

/// The synchronous generation protocol (Algorithm 1) — see
/// [`SyncConfig`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SyncEngine {
    /// Generation-density threshold `γ` (engine default 1/2).
    pub gamma: Option<f64>,
    /// How two-choices rounds are chosen (default
    /// [`ScheduleMode::Predefined`]).
    pub mode: ScheduleMode,
}

impl Protocol for SyncEngine {
    fn name(&self) -> &'static str {
        "sync"
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        let mut c = SyncConfig::from(cfg.axes().clone())
            .with_record(cfg.record())
            .with_mode(self.mode);
        if let Some(gamma) = self.gamma {
            c = c.with_gamma(gamma);
        }
        if let Some(max) = cfg.max_duration() {
            c = c.with_max_rounds(max.ceil() as u64);
        }
        c.run().into()
    }
}

/// The urn-mode (mean-field) synchronous protocol — see [`UrnConfig`].
/// The registry resolves both `urn` and its alias `sync-mf` to it.
///
/// Urn mode is definitionally mean-field: the exact multinomial
/// reduction requires every node to sample every other node with equal
/// probability, so [`Protocol::check`] rejects non-complete topologies
/// and non-empty scenarios with a pointer at the agent-based
/// [`SyncEngine`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UrnEngine {
    /// Generation-density threshold `γ` (engine default 1/2).
    pub gamma: Option<f64>,
}

/// The exact per-opinion counts an assignment stands for, computed
/// without consuming the process RNG stream where the recipe is
/// deterministic (`Exact`, `Uniform`); the `Zipf` recipe is sampled on a
/// throwaway RNG seeded from `seed`.
fn assignment_counts(assignment: &InitialAssignment, seed: u64) -> Vec<u64> {
    match assignment {
        InitialAssignment::Exact(counts) => counts.clone(),
        InitialAssignment::Uniform { n, k } => {
            let base = n / u64::from(*k);
            let rem = n % u64::from(*k);
            (0..*k)
                .map(|idx| base + u64::from(u64::from(idx) < rem))
                .collect()
        }
        zipf @ InitialAssignment::Zipf { k, .. } => {
            let mut rng = Xoshiro256PlusPlus::from_u64(seed);
            OpinionCounts::tally(&zipf.materialize(&mut rng), *k as usize)
                .as_slice()
                .to_vec()
        }
    }
}

impl Protocol for UrnEngine {
    fn name(&self) -> &'static str {
        "urn"
    }

    fn check_extra(&self, cfg: &RunConfig) -> Result<(), InvalidParameterError> {
        check_mean_field("urn", "sync", cfg)
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        self.check(cfg)
            .expect("urn run config must pass UrnEngine::check");
        let mut c = UrnConfig::from_counts(assignment_counts(cfg.assignment(), cfg.seed()))
            .with_seed(cfg.seed())
            .with_epsilon(cfg.epsilon());
        if let Some(gamma) = self.gamma {
            c = c.with_gamma(gamma);
        }
        if let Some(max) = cfg.max_duration() {
            c = c.with_max_rounds(max.ceil() as u64);
        }
        c.run().into()
    }
}

/// The asynchronous single-leader protocol (Algorithms 2 + 3) — see
/// [`LeaderConfig`]. Its failure injection is the scenario's, including
/// the run-long `signal-loss` and `stragglers` actions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LeaderEngine {
    /// Channel-establishment latency law (engine default `Exp(1)`).
    pub latency: Option<Latency>,
    /// Overrides the time-unit length `C1` in steps (default:
    /// memoized Monte-Carlo estimate).
    pub steps_per_unit: Option<f64>,
}

impl Protocol for LeaderEngine {
    fn name(&self) -> &'static str {
        "leader"
    }

    /// Accepts every valid config of at least [`leader::MIN_NODES`]
    /// nodes, run-long scenario actions included.
    fn check(&self, cfg: &RunConfig) -> Result<(), InvalidParameterError> {
        check_min_nodes(self.name(), leader::MIN_NODES, cfg)
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        let mut c = LeaderConfig::from(cfg.axes().clone()).with_record(cfg.record());
        if let Some(latency) = self.latency {
            c = c.with_latency(latency);
        }
        if let Some(c1) = self.steps_per_unit {
            c = c.with_steps_per_unit(c1);
        }
        if let Some(max) = cfg.max_duration() {
            c = c.with_max_time(max);
        }
        c.run().into()
    }
}

/// The decentralized multi-leader protocol (Algorithms 4 + 5) — see
/// [`ClusterConfig`]. Its failure injection is the scenario's, including
/// the run-long `signal-loss` and `stragglers` actions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterEngine {
    /// Channel-establishment latency law (engine default `Exp(1)`).
    pub latency: Option<Latency>,
    /// Overrides the time-unit length `C1` in steps.
    pub steps_per_unit: Option<f64>,
    /// Participation size — the paper's `log^{c−1} n`.
    pub participation_size: Option<u64>,
    /// Probability of a node declaring itself a leader.
    pub leader_probability: Option<f64>,
}

impl Protocol for ClusterEngine {
    fn name(&self) -> &'static str {
        "cluster"
    }

    /// Accepts every valid config of at least [`cluster::MIN_NODES`]
    /// nodes, run-long scenario actions included.
    fn check(&self, cfg: &RunConfig) -> Result<(), InvalidParameterError> {
        check_min_nodes(self.name(), cluster::MIN_NODES, cfg)
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        let mut c = ClusterConfig::from(cfg.axes().clone()).with_record(cfg.record());
        if let Some(latency) = self.latency {
            c = c.with_latency(latency);
        }
        if let Some(c1) = self.steps_per_unit {
            c = c.with_steps_per_unit(c1);
        }
        if let Some(size) = self.participation_size {
            c = c.with_participation_size(size);
        }
        if let Some(p) = self.leader_probability {
            c = c.with_leader_probability(p);
        }
        if let Some(max) = cfg.max_duration() {
            c = c.with_max_time(max);
        }
        c.run().into()
    }
}

/// Validates `cfg` for a per-node asynchronous engine, which needs at
/// least `min` nodes.
fn check_min_nodes(
    protocol: &str,
    min: usize,
    cfg: &RunConfig,
) -> Result<(), InvalidParameterError> {
    if cfg.n() < min as u64 {
        return Err(InvalidParameterError::new(format!(
            "parameter `n` must be at least {min} for `{protocol}`, got {}",
            cfg.n()
        )));
    }
    cfg.validate()
}

/// A synchronous gossip baseline dynamic (pull voting, two-choices,
/// 3-majority, undecided-state) — see [`DynamicsConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipEngine {
    /// Which dynamic to run.
    pub dynamics: Dynamics,
}

impl GossipEngine {
    /// A handle for the given dynamic.
    pub fn new(dynamics: Dynamics) -> Self {
        Self { dynamics }
    }
}

impl Protocol for GossipEngine {
    fn name(&self) -> &'static str {
        crate::report::dynamics_protocol_name(self.dynamics)
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        let mut c = DynamicsConfig::from((self.dynamics, cfg.axes().clone()));
        if let Some(max) = cfg.max_duration() {
            c = c.with_max_rounds(max.ceil() as u64);
        }
        c.run().into()
    }
}

/// A two-opinion population protocol (3-state approximate majority or
/// 4-state exact majority) — see [`PopulationConfig`].
///
/// The sequential scheduler has no ε knob: the reported ε-time equals
/// the consensus time. [`RunConfig::max_duration`] is in the protocols'
/// native *parallel time* (interactions divided by `n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationEngine {
    /// Which protocol to run.
    pub protocol: PopulationProtocol,
    /// Explicit initial support of opinion A (index 0). `None` derives
    /// the split from the [`RunConfig`] assignment via
    /// [`PopulationConfig::from_assignment`].
    pub initial_a: Option<u64>,
}

impl PopulationEngine {
    /// A handle for the given protocol, deriving the A/B split from the
    /// run configuration's assignment.
    pub fn new(protocol: PopulationProtocol) -> Self {
        Self {
            protocol,
            initial_a: None,
        }
    }
}

impl Protocol for PopulationEngine {
    fn name(&self) -> &'static str {
        crate::report::population_protocol_name(self.protocol)
    }

    fn check_extra(&self, cfg: &RunConfig) -> Result<(), InvalidParameterError> {
        if self.initial_a.is_none() && cfg.k() != 2 {
            return Err(InvalidParameterError::new(format!(
                "population protocols are binary: k must be 2, got {} \
                 (or pass the explicit A-count parameter `a`)",
                cfg.k()
            )));
        }
        if let Some(a) = self.initial_a {
            if a > cfg.n() {
                return Err(InvalidParameterError::new(format!(
                    "initial A-count {a} exceeds the population size {}",
                    cfg.n()
                )));
            }
        }
        Ok(())
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        let mut axes = cfg.axes().clone();
        if let Some(a) = self.initial_a {
            let b = cfg.n().checked_sub(a).expect("initial_a cannot exceed n");
            axes.assignment = InitialAssignment::Exact(vec![a, b]);
        }
        let mut c = PopulationConfig::from((self.protocol, axes));
        if let Some(max) = cfg.max_duration() {
            c = c.with_max_interactions((max * cfg.n() as f64).ceil() as u64);
        }
        c.run().into()
    }
}

/// Shared mean-field exemption for urn mode and the aggregate (`*-mf`)
/// engines: the count-pool reductions require every node to sample
/// uniformly from the whole population, so neither topologies nor
/// per-node scenario events can apply. `per_node` names the agent-based
/// protocol the teaching error points at.
fn check_mean_field(
    name: &str,
    per_node: &str,
    cfg: &RunConfig,
) -> Result<(), InvalidParameterError> {
    if cfg.topology() != Topology::Complete {
        return Err(InvalidParameterError::new(format!(
            "`{name}` advances anonymous count pools and is definitionally \
             mean-field (= complete graph); run the per-node `{per_node}` \
             with topology {} instead",
            cfg.topology().spec()
        )));
    }
    if !cfg.scenario().is_empty() {
        return Err(InvalidParameterError::new(format!(
            "`{name}` advances anonymous count pools, so per-node scenario \
             events do not apply; run the per-node `{per_node}` with the \
             scenario instead"
        )));
    }
    Ok(())
}

/// The mean-field single-leader protocol — see [`LeaderMfConfig`]. A
/// tau-leaped jump chain over `(generation, color, freshness)` pools
/// sharing the per-node engine's thresholds and state machine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LeaderMfEngine {
    /// Tau-leap sub-step length in time units, in
    /// `[LeaderMfConfig::MIN_DT, 1] = [1/64, 1]` (engine default 1/8).
    pub dt: Option<f64>,
}

impl Protocol for LeaderMfEngine {
    fn name(&self) -> &'static str {
        "leader-mf"
    }

    fn check_extra(&self, cfg: &RunConfig) -> Result<(), InvalidParameterError> {
        check_mean_field("leader-mf", "leader", cfg)?;
        if let Some(dt) = self.dt {
            if !(LeaderMfConfig::MIN_DT..=1.0).contains(&dt) {
                return Err(InvalidParameterError::new(format!(
                    "leader-mf sub-step dt must lie in (0, 1] and be at least 1/64 \
                     (a run's sub-steps and memory grow as 1/dt), got {dt}"
                )));
            }
        }
        Ok(())
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        self.check(cfg)
            .expect("leader-mf run config must pass LeaderMfEngine::check");
        let mut c = LeaderMfConfig::from_counts(assignment_counts(cfg.assignment(), cfg.seed()))
            .with_seed(cfg.seed())
            .with_epsilon(cfg.epsilon());
        if let Some(dt) = self.dt {
            c = c.with_dt(dt);
        }
        if let Some(max) = cfg.max_duration() {
            c = c.with_max_time(max);
        }
        c.run().into()
    }
}

/// The mean-field 3-majority dynamic — see [`Majority3MfConfig`]. One
/// closed-form multinomial draw per round over the ordered-triple law.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Majority3MfEngine;

impl Protocol for Majority3MfEngine {
    fn name(&self) -> &'static str {
        "majority3-mf"
    }

    fn check_extra(&self, cfg: &RunConfig) -> Result<(), InvalidParameterError> {
        check_mean_field("majority3-mf", "3-majority", cfg)
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        self.check(cfg)
            .expect("majority3-mf run config must pass Majority3MfEngine::check");
        let mut c = Majority3MfConfig::from_counts(assignment_counts(cfg.assignment(), cfg.seed()))
            .with_seed(cfg.seed())
            .with_epsilon(cfg.epsilon());
        if let Some(max) = cfg.max_duration() {
            c = c.with_max_rounds(max.ceil() as u64);
        }
        c.run().into()
    }
}

/// The mean-field undecided-state dynamic — see [`UndecidedMfConfig`].
/// Scatters the undecided pool and each color pool with one conditioned
/// multinomial per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UndecidedMfEngine;

impl Protocol for UndecidedMfEngine {
    fn name(&self) -> &'static str {
        "undecided-mf"
    }

    fn check_extra(&self, cfg: &RunConfig) -> Result<(), InvalidParameterError> {
        check_mean_field("undecided-mf", "undecided", cfg)
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        self.check(cfg)
            .expect("undecided-mf run config must pass UndecidedMfEngine::check");
        let mut c = UndecidedMfConfig::from_counts(assignment_counts(cfg.assignment(), cfg.seed()))
            .with_seed(cfg.seed())
            .with_epsilon(cfg.epsilon());
        if let Some(max) = cfg.max_duration() {
            c = c.with_max_rounds(max.ceil() as u64);
        }
        c.run().into()
    }
}

/// The mean-field approximate-majority population protocol — see
/// [`PopulationMfConfig`]. A negative-binomial jump chain over the four
/// effective ordered-pair types; like the per-node [`PopulationEngine`]
/// it is binary, and [`RunConfig::max_duration`] is in parallel time.
///
/// The 4-state exact-majority protocol has no aggregate backend: its
/// `Θ(n²)`-interaction endgame defeats pool batching (see the
/// `plurality-agg` population module docs). Use the per-node
/// `exact-majority` spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PopulationMfEngine {
    /// Explicit initial support of opinion A (index 0). `None` derives
    /// the split from the [`RunConfig`] assignment counts.
    pub initial_a: Option<u64>,
}

impl Protocol for PopulationMfEngine {
    fn name(&self) -> &'static str {
        "population-mf"
    }

    fn check_extra(&self, cfg: &RunConfig) -> Result<(), InvalidParameterError> {
        check_mean_field("population-mf", "approx-majority", cfg)?;
        if self.initial_a.is_none() && cfg.k() != 2 {
            return Err(InvalidParameterError::new(format!(
                "population protocols are binary: k must be 2, got {} \
                 (or pass the explicit A-count parameter `a`)",
                cfg.k()
            )));
        }
        if let Some(a) = self.initial_a {
            if a > cfg.n() {
                return Err(InvalidParameterError::new(format!(
                    "initial A-count {a} exceeds the population size {}",
                    cfg.n()
                )));
            }
        }
        Ok(())
    }

    fn run(&self, cfg: &RunConfig) -> Report {
        self.check(cfg)
            .expect("population-mf run config must pass PopulationMfEngine::check");
        let initial_a = self
            .initial_a
            .unwrap_or_else(|| assignment_counts(cfg.assignment(), cfg.seed())[0]);
        let mut c = PopulationMfConfig::new(cfg.n(), initial_a).with_seed(cfg.seed());
        if let Some(max) = cfg.max_duration() {
            c = c.with_max_interactions((max * cfg.n() as f64).ceil() as u64);
        }
        c.run().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Telemetry;
    use plurality_scenario::Scenario;

    #[test]
    fn every_engine_runs_from_one_config() {
        let cfg = RunConfig::with_bias(600, 2, 3.0).unwrap().with_seed(7);
        let engines: Vec<Box<dyn Protocol>> = vec![
            Box::new(SyncEngine::default()),
            Box::new(UrnEngine::default()),
            Box::new(LeaderEngine {
                steps_per_unit: Some(9.3),
                ..Default::default()
            }),
            Box::new(ClusterEngine {
                steps_per_unit: Some(12.0),
                ..Default::default()
            }),
            Box::new(GossipEngine::new(Dynamics::ThreeMajority)),
            Box::new(PopulationEngine::new(
                PopulationProtocol::ApproximateMajority,
            )),
            Box::new(LeaderMfEngine::default()),
            Box::new(Majority3MfEngine),
            Box::new(UndecidedMfEngine),
            Box::new(PopulationMfEngine::default()),
        ];
        for engine in engines {
            engine.check(&cfg).expect("config compatible");
            let report = engine.run(&cfg);
            assert_eq!(report.protocol, engine.name());
            assert_eq!(report.outcome.n, 600);
            assert!(
                report.outcome.epsilon_time.is_some(),
                "{} did not ε-converge",
                engine.name()
            );
        }
    }

    #[test]
    fn trace_knob_flows_through_every_engine_without_changing_outcomes() {
        let cfg = RunConfig::with_bias(600, 2, 3.0).unwrap().with_seed(7);
        let traced_cfg = cfg.clone().with_trace(true);
        let engines: Vec<Box<dyn Protocol>> = vec![
            Box::new(SyncEngine::default()),
            Box::new(UrnEngine::default()),
            Box::new(LeaderEngine {
                steps_per_unit: Some(9.3),
                ..Default::default()
            }),
            Box::new(ClusterEngine {
                steps_per_unit: Some(12.0),
                ..Default::default()
            }),
            Box::new(GossipEngine::new(Dynamics::ThreeMajority)),
            Box::new(PopulationEngine::new(
                PopulationProtocol::ApproximateMajority,
            )),
        ];
        for engine in engines {
            let plain = engine.run(&cfg);
            let mut traced = engine.run(&traced_cfg);
            assert!(
                plain.trace.is_none(),
                "{}: untraced run has a trace",
                engine.name()
            );
            if engine.name() == "urn" {
                // Mean-field: no discrete events to trace.
                assert!(traced.trace.is_none());
            } else {
                let events = traced
                    .trace
                    .take()
                    .unwrap_or_else(|| panic!("{}: traced run lost its trace", engine.name()));
                assert!(!events.is_empty(), "{}: empty trace", engine.name());
                assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
            }
            assert_eq!(
                plain,
                traced,
                "{}: trace knob changed the run",
                engine.name()
            );
        }
    }

    #[test]
    fn urn_rejects_topology_and_scenario_with_teaching_errors() {
        let urn = UrnEngine::default();
        let cfg = RunConfig::with_bias(1_000, 2, 2.0)
            .unwrap()
            .with_topology(Topology::Ring);
        let err = urn.check(&cfg).unwrap_err();
        assert!(err.to_string().contains("mean-field"), "{err}");
        assert!(err.to_string().contains("sync"), "{err}");

        let cfg = RunConfig::with_bias(1_000, 2, 2.0)
            .unwrap()
            .with_scenario(Scenario::new().crash(0.2, 5.0));
        assert!(urn.check(&cfg).is_err());
    }

    #[test]
    fn mean_field_engines_reject_topology_and_scenario_with_teaching_errors() {
        let engines: Vec<(Box<dyn Protocol>, &str)> = vec![
            (Box::new(UrnEngine::default()), "sync"),
            (Box::new(LeaderMfEngine::default()), "leader"),
            (Box::new(Majority3MfEngine), "3-majority"),
            (Box::new(UndecidedMfEngine), "undecided"),
            (Box::new(PopulationMfEngine::default()), "approx-majority"),
        ];
        for (engine, per_node) in engines {
            let cfg = RunConfig::with_bias(1_000, 2, 2.0)
                .unwrap()
                .with_topology(Topology::Ring);
            let err = engine.check(&cfg).unwrap_err();
            assert!(err.to_string().contains("mean-field"), "{err}");
            assert!(err.to_string().contains(engine.name()), "{err}");
            assert!(err.to_string().contains(per_node), "{err}");

            let cfg = RunConfig::with_bias(1_000, 2, 2.0)
                .unwrap()
                .with_scenario(Scenario::new().crash(0.2, 5.0));
            let err = engine.check(&cfg).unwrap_err();
            assert!(err.to_string().contains("scenario"), "{err}");
            assert!(err.to_string().contains(per_node), "{err}");
        }
    }

    #[test]
    fn sync_mf_teaching_error_is_pinned() {
        // `sync-mf` is an alias of `urn`, so it teaches urn's error.
        let err = crate::Registry::standard()
            .resolve(&crate::RunSpec::parse("sync-mf?n=1000&k=2&topology=ring").unwrap())
            .unwrap_err();
        assert_eq!(
            err.message(),
            "`urn` advances anonymous count pools and is definitionally \
             mean-field (= complete graph); run the per-node `sync` with \
             topology ring instead"
        );
    }

    #[test]
    fn leader_mf_rejects_out_of_range_dt() {
        let cfg = RunConfig::with_bias(1_000, 2, 2.0).unwrap();
        let engine = LeaderMfEngine { dt: Some(1.5) };
        let err = engine.check(&cfg).unwrap_err();
        assert!(err.to_string().contains("(0, 1]"), "{err}");
    }

    #[test]
    fn leader_mf_rejects_a_dt_below_one_sixty_fourth() {
        let cfg = RunConfig::with_bias(1_000, 2, 2.0).unwrap();
        for dt in [0.01, 1e-6] {
            let err = LeaderMfEngine { dt: Some(dt) }.check(&cfg).unwrap_err();
            assert!(err.to_string().contains("at least 1/64"), "{err}");
        }
        let floor = LeaderMfEngine {
            dt: Some(LeaderMfConfig::MIN_DT),
        };
        assert!(floor.check(&cfg).is_ok());
    }

    #[test]
    fn sync_mf_facade_matches_urn_outcome() {
        // `sync-mf` names the urn law, so its report is the urn report,
        // byte for byte on the wire.
        let mf = crate::run_spec("sync-mf?n=1e6&k=4&alpha=2&seed=1").unwrap();
        let urn = crate::run_spec("urn?n=1e6&k=4&alpha=2&seed=1").unwrap();
        assert_eq!(mf.protocol, "urn");
        assert_eq!(mf.wire_text(), urn.wire_text());
    }

    #[test]
    fn population_mf_rejects_non_binary_assignments() {
        let engine = PopulationMfEngine::default();
        let cfg = RunConfig::with_bias(300, 3, 2.0).unwrap();
        let err = engine.check(&cfg).unwrap_err();
        assert!(err.to_string().contains("binary"), "{err}");
        // An explicit A-count sidesteps the k = 2 requirement.
        let with_a = PopulationMfEngine {
            initial_a: Some(200),
        };
        assert!(with_a.check(&cfg).is_ok());
        let report = with_a.run(&cfg);
        assert_eq!(report.protocol, "population-mf");
        assert_eq!(report.outcome.n, 300);
    }

    #[test]
    fn population_rejects_non_binary_assignments() {
        let engine = PopulationEngine::new(PopulationProtocol::ExactMajority);
        let cfg = RunConfig::with_bias(300, 3, 2.0).unwrap();
        let err = engine.check(&cfg).unwrap_err();
        assert!(err.to_string().contains("binary"), "{err}");
        // An explicit A-count sidesteps the k = 2 requirement.
        let with_a = PopulationEngine {
            protocol: PopulationProtocol::ExactMajority,
            initial_a: Some(200),
        };
        assert!(with_a.check(&cfg).is_ok());
    }

    #[test]
    fn urn_counts_match_the_direct_constructor() {
        // RunConfig::with_bias and UrnConfig::new share the count
        // formula, so the facade urn run equals the direct one.
        let direct = UrnConfig::new(50_000, 3, 2.0).unwrap().with_seed(7).run();
        let cfg = RunConfig::with_bias(50_000, 3, 2.0).unwrap().with_seed(7);
        let facade = UrnEngine::default().run(&cfg);
        assert_eq!(facade.outcome, direct.outcome);
        match facade.telemetry {
            Telemetry::Urn(t) => {
                assert_eq!(t.rounds, direct.rounds);
                assert_eq!(t.g_star, direct.g_star);
            }
            other => panic!("wrong telemetry variant: {other:?}"),
        }
    }

    #[test]
    fn uniform_assignment_counts_are_exact() {
        let counts = assignment_counts(&InitialAssignment::Uniform { n: 103, k: 10 }, 0);
        assert_eq!(counts.iter().sum::<u64>(), 103);
        assert!(counts.iter().all(|&c| c == 10 || c == 11));
    }
}
