//! The shared run configuration: the axes every protocol has.

use plurality_core::{InitialAssignment, RecordLevel, RunAxes};
use plurality_dist::InvalidParameterError;
use plurality_scenario::Scenario;
use plurality_topology::Topology;

/// The axes common to every protocol run: the per-node engines'
/// [`RunAxes`] (who starts with which opinion, the ε used for convergence
/// reporting, the RNG seed, the communication [`Topology`], the scripted
/// [`Scenario`] and tracing), the telemetry level, and an optional
/// duration cap.
///
/// Everything genuinely protocol-specific (latency laws, γ, thresholds)
/// lives on the [`crate::Protocol`] implementation instead, so a
/// `RunConfig` can be handed unchanged to any engine. Failures all live
/// in the scenario; the run-long actions, which only the asynchronous
/// engines read, are rejected by every other protocol's
/// [`crate::Protocol::check`].
///
/// What the axes mean on the facade:
///
/// * `epsilon` panics outside `[0, 1]`, the same contract as the engines.
/// * The topology defaults to [`Topology::Complete`], the paper's model.
///   Urn mode and the other mean-field engines are definitionally
///   mean-field and reject anything else — see [`crate::UrnEngine`].
/// * Scenario event times are in the engine's native clock — rounds for
///   the synchronous engines, time steps for the event-driven ones,
///   parallel time for population protocols.
/// * Tracing consumes no process RNG, so the run outcome is
///   byte-identical with the knob on or off; only [`crate::Report::trace`]
///   changes. The urn engine (mean-field, no discrete events) ignores
///   the knob and always reports `None`.
///
/// Defaults match every engine builder exactly: `ε = 0.05`, seed 0,
/// [`RecordLevel::Generations`], complete graph, empty scenario, derived
/// duration cap. A facade-driven run with defaults therefore consumes
/// the byte-identical RNG stream of the corresponding direct builder
/// call (asserted per engine by the `facade_bitwise` test suite).
///
/// # Examples
///
/// ```
/// use plurality_api::{Protocol, RunConfig, SyncEngine};
///
/// let cfg = RunConfig::with_bias(2_000, 4, 2.0).unwrap().with_seed(1);
/// let report = SyncEngine::default().run(&cfg);
/// assert!(report.outcome.plurality_preserved());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    axes: RunAxes,
    record: RecordLevel,
    max_duration: Option<f64>,
}

impl RunConfig {
    /// Creates a configuration from an explicit assignment, with the
    /// engines' shared defaults.
    pub fn new(assignment: InitialAssignment) -> Self {
        Self {
            axes: RunAxes::from(assignment),
            record: RecordLevel::default(),
            max_duration: None,
        }
    }

    /// The paper's canonical biased start: `n` nodes, `k` opinions,
    /// opinion 0 leading by the multiplicative factor `alpha`
    /// (see [`InitialAssignment::with_bias`]).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] for invalid `(n, k, alpha)`.
    pub fn with_bias(n: u64, k: u32, alpha: f64) -> Result<Self, InvalidParameterError> {
        Ok(Self::new(InitialAssignment::with_bias(n, k, alpha)?))
    }

    plurality_core::run_axes_setters!(axes, epsilon);

    /// Sets the telemetry level (default [`RecordLevel::Generations`]).
    /// Engines without the knob (urn, gossip dynamics, population
    /// protocols) record their fixed telemetry regardless.
    pub fn with_record(mut self, record: RecordLevel) -> Self {
        self.record = record;
        self
    }

    /// Caps the run duration in the engine's native clock: rounds
    /// (sync / urn / gossip dynamics), time steps (leader / cluster), or
    /// parallel time (population protocols). Default: each engine's
    /// derived bound.
    ///
    /// # Panics
    ///
    /// Panics if `max_duration` is not positive and finite.
    pub fn with_max_duration(mut self, max_duration: f64) -> Self {
        assert!(
            max_duration > 0.0 && max_duration.is_finite(),
            "max_duration must be positive and finite"
        );
        self.max_duration = Some(max_duration);
        self
    }

    /// The per-node axes, which each per-node engine builder takes whole.
    pub fn axes(&self) -> &RunAxes {
        &self.axes
    }

    /// The initial assignment.
    pub fn assignment(&self) -> &InitialAssignment {
        &self.axes.assignment
    }

    /// Population size.
    pub fn n(&self) -> u64 {
        self.axes.assignment.n()
    }

    /// Number of opinions.
    pub fn k(&self) -> u32 {
        self.axes.assignment.k()
    }

    /// The ε used for ε-convergence reporting.
    pub fn epsilon(&self) -> f64 {
        self.axes.epsilon
    }

    /// The RNG seed.
    pub fn seed(&self) -> u64 {
        self.axes.seed
    }

    /// The telemetry level.
    pub fn record(&self) -> RecordLevel {
        self.record
    }

    /// The communication topology.
    pub fn topology(&self) -> Topology {
        self.axes.topology
    }

    /// The scripted scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.axes.scenario
    }

    /// The duration cap, if set.
    pub fn max_duration(&self) -> Option<f64> {
        self.max_duration
    }

    /// Whether structured run tracing is enabled.
    pub fn trace(&self) -> bool {
        self.axes.trace
    }

    /// Checks the common axes against the configured population size:
    /// topology buildability and scenario validity. Protocols layer
    /// their own compatibility checks on top in
    /// [`crate::Protocol::check`].
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), InvalidParameterError> {
        let n = self.n() as usize;
        self.axes.topology.validate(n)?;
        self.axes.scenario.validate(n)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_engine_builders() {
        let cfg = RunConfig::with_bias(100, 2, 2.0).unwrap();
        assert_eq!(cfg.epsilon(), 0.05);
        assert_eq!(cfg.seed(), 0);
        assert_eq!(cfg.record(), RecordLevel::Generations);
        assert_eq!(cfg.topology(), Topology::Complete);
        assert!(cfg.scenario().is_empty());
        assert_eq!(cfg.max_duration(), None);
        assert!(!cfg.trace());
        assert_eq!(cfg.n(), 100);
        assert_eq!(cfg.k(), 2);
    }

    #[test]
    fn validate_catches_unbuildable_topology_and_scenario() {
        let cfg = RunConfig::with_bias(32, 2, 2.0)
            .unwrap()
            .with_topology(Topology::Regular { d: 64 });
        assert!(cfg.validate().is_err());
        let cfg = RunConfig::with_bias(32, 2, 2.0)
            .unwrap()
            .with_scenario(Scenario::new().rewire(Topology::Regular { d: 64 }, 5.0));
        assert!(cfg.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_panics_like_the_engines() {
        let _ = RunConfig::with_bias(100, 2, 2.0).unwrap().with_epsilon(1.5);
    }
}
