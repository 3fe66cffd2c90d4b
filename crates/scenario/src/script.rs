//! The declarative scenario script: typed events on the simulation
//! clock, the fluent builder API, and the canonical DSL rendering.

use crate::env::Environment;
use crate::parse;
use crate::SCENARIO_STREAM;
use plurality_dist::rng::derive_seed;
use plurality_dist::InvalidParameterError;
use plurality_topology::Topology;
use std::fmt;

/// How the corruption adversary chooses its victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdversaryMode {
    /// Oblivious: victims are uniform alive nodes and each is re-colored
    /// uniformly at random — the adversary never looks at the
    /// configuration (the weak adversary of the undecided-state
    /// literature).
    #[default]
    Oblivious,
    /// State-adaptive: the adversary inspects the current configuration,
    /// targets alive nodes holding the currently-leading opinion, and
    /// flips them to the strongest rival — the most damaging
    /// budget-limited attack expressible without touching generations.
    Adaptive,
}

impl AdversaryMode {
    /// The DSL keyword for this mode.
    pub fn keyword(self) -> &'static str {
        match self {
            Self::Oblivious => "oblivious",
            Self::Adaptive => "adaptive",
        }
    }
}

/// What a scenario event does when the clock reaches it.
///
/// Fractions are of the *total* population `n` (not of the currently
/// alive sub-population), so budgets are comparable across protocols
/// and across points in time — the "matched budgets" the E18 experiment
/// needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Crash `⌈fraction·n⌉` uniformly random alive nodes (capped at the
    /// alive count). A crashed node freezes: it initiates nothing,
    /// responds to nothing, and sends no signals; interactions that
    /// sample it abort.
    Crash {
        /// Fraction of `n` to crash, in `[0, 1]`.
        fraction: f64,
    },
    /// Recover `⌈fraction·n⌉` uniformly random crashed nodes (capped at
    /// the crashed count). A recovered node resumes with the state it
    /// crashed with.
    Recover {
        /// Fraction of `n` to recover, in `[0, 1]`.
        fraction: f64,
    },
    /// Join churn: like [`Action::Recover`], but each returning slot is
    /// a *fresh* node — generation 0, a uniformly random opinion, and no
    /// memory of the crashed node it replaces. This is the standard
    /// fixed-slot churn model: total capacity `n` is constant, identity
    /// is not.
    Join {
        /// Fraction of `n` to replace with fresh nodes, in `[0, 1]`.
        fraction: f64,
    },
    /// Budgeted adversarial corruption: up to `⌈fraction·n⌉` alive nodes
    /// have their opinion overwritten in place (generations and
    /// protocol flags are untouched — the adversary corrupts *opinions*,
    /// not control state).
    Corrupt {
        /// The corruption budget as a fraction of `n`, in `[0, 1]`.
        fraction: f64,
        /// How victims are chosen.
        mode: AdversaryMode,
    },
    /// A message-loss burst: while active, every message (peer channel,
    /// leader signal, member signal, population interaction) is dropped
    /// independently with probability `p`. Requires a `@from..until`
    /// window; overlapping bursts compose as independent loss layers
    /// (`1 − Π(1 − pᵢ)`).
    BurstLoss {
        /// The per-message drop probability, in `[0, 1]`.
        p: f64,
    },
    /// A latency regime shift: every latency drawn while the shift is
    /// active is multiplied by `factor`. With a window the factor
    /// reverts at the window's end; without one it holds for the rest of
    /// the run. Concurrent shifts multiply. Round-based engines have no
    /// latency and ignore this action.
    LatencyScale {
        /// The multiplicative latency factor, positive and finite.
        factor: f64,
    },
    /// Epoch-based topology rewiring: peer sampling switches to a fresh
    /// graph of the given family, built at fire time from the
    /// environment's private RNG stream.
    Rewire {
        /// The topology family to rewire onto.
        topology: Topology,
    },
    /// Persistent signal loss, held for the whole run: each signal
    /// towards a leader is dropped independently with probability `p` —
    /// the single leader's 0-signals and gen-signals, and a cluster
    /// member's 0-signals and promotion signals towards its cluster
    /// leader. Peer channels, and with them the cluster leaders'
    /// broadcast and lattice sync, are untouched (script `burst-loss`
    /// for loss on every message). Both protocols tolerate loss while
    /// enough promotion signals reach their gen-size threshold — `n/2`
    /// for the leader, about `card·(1/2 + 1/√log₂ n)` per cluster — and
    /// stall beyond it. The coin is drawn on the process stream.
    SignalLoss {
        /// The per-signal drop probability, in `[0, 1]`.
        p: f64,
    },
    /// Straggler clocks, held for the whole run: a uniformly random
    /// `fraction` of the nodes tick at `rate` instead of rate 1. On a
    /// sparse topology the straggler identities come from a private
    /// seeded permutation, so graph structure (hubs, lattice patches)
    /// does not leak into which nodes are slow.
    Stragglers {
        /// Fraction of the nodes that straggle, in `[0, 1]`.
        fraction: f64,
        /// Their Poisson clock rate, positive and finite.
        rate: f64,
    },
}

/// Whether an action accepts the `@from..until` window form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WindowRule {
    /// The action only makes sense over a window (`burst-loss`).
    Required,
    /// The action accepts both `@t` and `@from..until` (`latency`).
    Optional,
    /// The action is instantaneous (`crash`, `corrupt`, `rewire`, …).
    Forbidden,
    /// The action holds for the whole run and takes no time at all
    /// (`signal-loss`, `stragglers`).
    RunLong,
}

impl Action {
    /// The DSL keyword of this action.
    pub fn keyword(&self) -> &'static str {
        match self {
            Self::Crash { .. } => "crash",
            Self::Recover { .. } => "recover",
            Self::Join { .. } => "join",
            Self::Corrupt { .. } => "corrupt",
            Self::BurstLoss { .. } => "burst-loss",
            Self::LatencyScale { .. } => "latency",
            Self::Rewire { .. } => "rewire",
            Self::SignalLoss { .. } => "signal-loss",
            Self::Stragglers { .. } => "stragglers",
        }
    }

    pub(crate) fn window_rule(&self) -> WindowRule {
        match self {
            Self::BurstLoss { .. } => WindowRule::Required,
            Self::LatencyScale { .. } => WindowRule::Optional,
            Self::SignalLoss { .. } | Self::Stragglers { .. } => WindowRule::RunLong,
            _ => WindowRule::Forbidden,
        }
    }

    /// Whether the action holds for the whole run (`signal-loss`,
    /// `stragglers`) rather than firing on the clock. Run-long actions
    /// take no `@TIME`, are never polled, and only the asynchronous
    /// engines (single-leader and multi-leader) read them; a scenario
    /// holding only run-long actions keeps their failure-free fast path.
    pub fn is_run_long(&self) -> bool {
        self.window_rule() == WindowRule::RunLong
    }

    /// Checks the action's own parameter constraints (`n`-independent).
    pub(crate) fn check(&self) -> Result<(), InvalidParameterError> {
        let frac_in_unit = |what: &str, f: f64| {
            if (0.0..=1.0).contains(&f) {
                Ok(())
            } else {
                Err(InvalidParameterError::new(format!(
                    "{what} must lie in [0, 1], got {f}"
                )))
            }
        };
        let positive_finite = |what: &str, x: f64| {
            if x > 0.0 && x.is_finite() {
                Ok(())
            } else {
                Err(InvalidParameterError::new(format!(
                    "{what} must be positive and finite, got {x}"
                )))
            }
        };
        match *self {
            Self::Crash { fraction } => frac_in_unit("crash fraction", fraction),
            Self::Recover { fraction } => frac_in_unit("recover fraction", fraction),
            Self::Join { fraction } => frac_in_unit("join fraction", fraction),
            Self::Corrupt { fraction, .. } => frac_in_unit("corruption budget", fraction),
            Self::BurstLoss { p } => frac_in_unit("burst-loss probability", p),
            Self::SignalLoss { p } => frac_in_unit("signal-loss probability", p),
            Self::Stragglers { fraction, rate } => frac_in_unit("straggler fraction", fraction)
                .and(positive_finite("straggler rate", rate)),
            Self::LatencyScale { factor } => positive_finite("latency factor", factor),
            // n-dependent constraints are checked by `Scenario::validate`.
            Self::Rewire { .. } => Ok(()),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Crash { fraction } => write!(f, "crash:{fraction}"),
            Self::Recover { fraction } => write!(f, "recover:{fraction}"),
            Self::Join { fraction } => write!(f, "join:{fraction}"),
            Self::Corrupt { fraction, mode } => {
                write!(f, "corrupt:{fraction}:{}", mode.keyword())
            }
            Self::BurstLoss { p } => write!(f, "burst-loss:{p}"),
            Self::LatencyScale { factor } => write!(f, "latency:{factor}"),
            Self::Rewire { topology } => write!(f, "rewire:{}", topology.spec()),
            Self::SignalLoss { p } => write!(f, "signal-loss:{p}"),
            Self::Stragglers { fraction, rate } => write!(f, "stragglers:{fraction}:{rate}"),
        }
    }
}

/// One scripted event: an [`Action`] and when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioEvent {
    /// When the event fires, in the engine's native clock (rounds for
    /// the synchronous engines, time steps for the event-driven ones,
    /// parallel time for population protocols); `0.0` for run-long
    /// actions.
    pub at: f64,
    /// For windowed actions: when the effect reverts. `None` for
    /// instantaneous actions and open-ended latency shifts.
    pub until: Option<f64>,
    /// What happens.
    pub action: Action,
}

impl ScenarioEvent {
    /// Checks timing plus the action's parameter constraints.
    pub(crate) fn check(&self) -> Result<(), InvalidParameterError> {
        if !(self.at.is_finite() && self.at >= 0.0) {
            return Err(InvalidParameterError::new(format!(
                "event time must be finite and ≥ 0, got {}",
                self.at
            )));
        }
        match (self.action.window_rule(), self.until) {
            (WindowRule::Forbidden, Some(_)) => {
                return Err(InvalidParameterError::new(format!(
                    "`{}` is instantaneous and takes no window",
                    self.action.keyword()
                )));
            }
            (WindowRule::Required, None) => {
                return Err(InvalidParameterError::new(format!(
                    "`{}` needs a window (`@from..until`)",
                    self.action.keyword()
                )));
            }
            (_, Some(until)) => {
                if !(until.is_finite() && until > self.at) {
                    return Err(InvalidParameterError::new(format!(
                        "window end must be finite and after its start, got {}..{until}",
                        self.at
                    )));
                }
            }
            (_, None) => {}
        }
        self.action.check()
    }
}

impl fmt::Display for ScenarioEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.action.is_run_long() {
            return write!(f, "{}", self.action);
        }
        write!(f, "{}@{}", self.action, self.at)?;
        if let Some(until) = self.until {
            write!(f, "..{until}")?;
        }
        Ok(())
    }
}

/// A deterministic, time-scripted environment specification.
///
/// Cheap to clone and comparable, so engine configs stay
/// `Clone + PartialEq`. Build one fluently, or parse the DSL:
///
/// ```
/// use plurality_scenario::{AdversaryMode, Scenario};
/// use plurality_topology::Topology;
///
/// let built = Scenario::new()
///     .crash(0.2, 5.0)
///     .burst_loss(0.5, 8.0, 12.0)
///     .rewire(Topology::ErdosRenyi { p: 0.01 }, 20.0);
/// let parsed = Scenario::parse("crash:0.2@5;burst-loss:0.5@8..12;rewire:er:0.01@20").unwrap();
/// assert_eq!(built, parsed);
/// assert_eq!(built.to_string(), "crash:0.2@5;burst-loss:0.5@8..12;rewire:er:0.01@20");
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scenario {
    events: Vec<ScenarioEvent>,
}

impl Scenario {
    /// The empty scenario — every engine's default, and the zero-cost
    /// fast path ([`Scenario::for_run`] returns `None` for it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses the scenario DSL:
    ///
    /// ```text
    /// scenario   := "" | event (";" event)*
    /// event      := action "@" time-spec | run-long
    /// time-spec  := TIME | TIME ".." TIME          (window [from, until))
    /// action     := "crash:" F | "recover:" F | "join:" F
    ///             | "corrupt:" F [":oblivious" | ":adaptive"]
    ///             | "burst-loss:" P                (window required)
    ///             | "latency:" FACTOR              (window optional)
    ///             | "rewire:" TOPOLOGY-SPEC        (see Topology::parse_spec)
    /// run-long   := "signal-loss:" P               (no time, at most once)
    ///             | "stragglers:" F [":" RATE]     (no time, at most once)
    /// ```
    ///
    /// Fractions/probabilities lie in `[0, 1]`, times are finite floats
    /// ≥ 0 in the engine's native clock, `corrupt` defaults to the
    /// oblivious adversary, and the straggler `RATE` (positive, finite)
    /// defaults to 0.1. Run-long actions hold for the whole run; only
    /// the asynchronous engines read them. Examples:
    ///
    /// ```
    /// use plurality_scenario::Scenario;
    /// assert!(Scenario::parse("crash:0.2@5").is_ok());
    /// assert!(Scenario::parse("corrupt:0.1:adaptive@5;join:0.1@9").is_ok());
    /// assert!(Scenario::parse("burst-loss:0.5@8").is_err()); // needs a window
    /// assert!(Scenario::parse("signal-loss:0.3;stragglers:0.2").is_ok());
    /// assert!(Scenario::parse("signal-loss:0.3@5").is_err()); // run-long
    /// assert!(Scenario::parse("").unwrap().is_empty());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`crate::ScenarioParseError`] describing the offending
    /// event and why it was rejected.
    pub fn parse(spec: &str) -> Result<Self, crate::ScenarioParseError> {
        parse::parse(spec)
    }

    /// Appends a checked event; a run-long action may appear only once.
    pub(crate) fn try_push(mut self, event: ScenarioEvent) -> Result<Self, InvalidParameterError> {
        event.check()?;
        let keyword = event.action.keyword();
        if event.action.is_run_long() && self.events.iter().any(|e| e.action.keyword() == keyword) {
            return Err(InvalidParameterError::new(format!(
                "`{keyword}` holds for the whole run and may appear only once"
            )));
        }
        self.events.push(event);
        Ok(self)
    }

    fn push(self, event: ScenarioEvent) -> Self {
        self.try_push(event)
            .expect("scenario builder arguments must be valid")
    }

    fn run_long(self, action: Action) -> Self {
        self.push(ScenarioEvent {
            at: 0.0,
            until: None,
            action,
        })
    }

    /// Crashes a `fraction` of the population at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction ∉ [0, 1]` or `at` is not finite and ≥ 0 (all
    /// builder methods validate the same way).
    pub fn crash(self, fraction: f64, at: f64) -> Self {
        self.push(ScenarioEvent {
            at,
            until: None,
            action: Action::Crash { fraction },
        })
    }

    /// Recovers a `fraction` of the population from crashed slots at
    /// time `at`, resuming their frozen state.
    pub fn recover(self, fraction: f64, at: f64) -> Self {
        self.push(ScenarioEvent {
            at,
            until: None,
            action: Action::Recover { fraction },
        })
    }

    /// Fills a `fraction` of the population's crashed slots with fresh
    /// nodes (generation 0, uniform opinions) at time `at`.
    pub fn join(self, fraction: f64, at: f64) -> Self {
        self.push(ScenarioEvent {
            at,
            until: None,
            action: Action::Join { fraction },
        })
    }

    /// Corrupts up to a `fraction` of the population at time `at`.
    pub fn corrupt(self, fraction: f64, mode: AdversaryMode, at: f64) -> Self {
        self.push(ScenarioEvent {
            at,
            until: None,
            action: Action::Corrupt { fraction, mode },
        })
    }

    /// Drops every message with probability `p` during `[from, until)`.
    pub fn burst_loss(self, p: f64, from: f64, until: f64) -> Self {
        self.push(ScenarioEvent {
            at: from,
            until: Some(until),
            action: Action::BurstLoss { p },
        })
    }

    /// Multiplies all drawn latencies by `factor` from time `at` on.
    pub fn latency_scale(self, factor: f64, at: f64) -> Self {
        self.push(ScenarioEvent {
            at,
            until: None,
            action: Action::LatencyScale { factor },
        })
    }

    /// Multiplies all drawn latencies by `factor` during `[from, until)`.
    pub fn latency_scale_during(self, factor: f64, from: f64, until: f64) -> Self {
        self.push(ScenarioEvent {
            at: from,
            until: Some(until),
            action: Action::LatencyScale { factor },
        })
    }

    /// Rewires peer sampling onto a fresh graph of the given family at
    /// time `at`.
    pub fn rewire(self, topology: Topology, at: f64) -> Self {
        self.push(ScenarioEvent {
            at,
            until: None,
            action: Action::Rewire { topology },
        })
    }

    /// Drops each signal towards a leader with probability `p` for the
    /// whole run (DSL `signal-loss:P`).
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]` or the scenario already has a
    /// `signal-loss`.
    pub fn with_signal_loss(self, p: f64) -> Self {
        self.run_long(Action::SignalLoss { p })
    }

    /// Makes a `fraction` of the nodes tick at `rate` for the whole run
    /// (DSL `stragglers:FRAC:RATE`).
    ///
    /// # Panics
    ///
    /// Panics if `fraction ∉ [0, 1]`, `rate` is not positive and finite,
    /// or the scenario already has `stragglers`.
    pub fn with_stragglers(self, fraction: f64, rate: f64) -> Self {
        self.run_long(Action::Stragglers { fraction, rate })
    }

    /// The run-long `signal-loss` probability; `0.0` without one.
    pub fn signal_loss(&self) -> f64 {
        self.events
            .iter()
            .find_map(|e| match e.action {
                Action::SignalLoss { p } => Some(p),
                _ => None,
            })
            .unwrap_or(0.0)
    }

    /// The run-long `stragglers` as `(fraction, rate)`, if any.
    pub fn stragglers(&self) -> Option<(f64, f64)> {
        self.events.iter().find_map(|e| match e.action {
            Action::Stragglers { fraction, rate } => Some((fraction, rate)),
            _ => None,
        })
    }

    /// Whether the scenario contains no events, run-long ones included.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scripted events, in script order.
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }

    /// The latest clock value at which anything happens (a window end
    /// counts); `0.0` for the empty scenario.
    pub fn last_time(&self) -> f64 {
        self.events
            .iter()
            .map(|e| e.until.unwrap_or(e.at))
            .fold(0.0, f64::max)
    }

    /// The latest event *start* time; `0.0` for the empty scenario.
    ///
    /// This is the horizon engines extend their default run caps past,
    /// so every scripted event actually starts. Window *ends* are
    /// deliberately excluded: a window's end only reverts a regime, so
    /// a run that would have ended anyway observes nothing new — and
    /// the "effectively permanent" idiom (`burst-loss:0.5@0..1000000`)
    /// must not inflate the cap by the window length.
    pub fn horizon(&self) -> f64 {
        self.events.iter().map(|e| e.at).fold(0.0, f64::max)
    }

    /// Checks every event against a population of `n` nodes — parameter
    /// ranges, window rules, and buildability of every rewire topology.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] for the first offending event.
    pub fn validate(&self, n: usize) -> Result<(), InvalidParameterError> {
        for (i, event) in self.events.iter().enumerate() {
            let with_context = |e: InvalidParameterError| {
                InvalidParameterError::new(format!("scenario event #{}: {}", i + 1, e.message()))
            };
            event.check().map_err(with_context)?;
            if let Action::Rewire { topology } = event.action {
                topology.validate(n).map_err(with_context)?;
            }
        }
        Ok(())
    }

    /// Instantiates the runtime [`Environment`] for a run: `n` nodes,
    /// `k` opinions, all scenario randomness seeded from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] if [`Scenario::validate`]
    /// rejects the scenario for this `n`, or if `n == 0` / `k == 0`.
    pub fn instantiate(
        &self,
        n: usize,
        k: u32,
        seed: u64,
    ) -> Result<Environment, InvalidParameterError> {
        self.validate(n)?;
        Environment::new(self, n, k, seed)
    }

    /// The engine entry point: `None` when nothing happens on the clock
    /// — the empty scenario, or one holding only run-long actions (the
    /// historical code path, byte-identical RNG stream) — otherwise the
    /// runtime environment seeded from the run seed via the private
    /// [`SCENARIO_STREAM`].
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid for this population size (the
    /// engines surface this exactly like an unbuildable topology).
    pub fn for_run(&self, n: usize, k: u32, run_seed: u64) -> Option<Environment> {
        if self.events.iter().all(|e| e.action.is_run_long()) {
            return None;
        }
        Some(
            self.instantiate(n, k, derive_seed(run_seed, SCENARIO_STREAM))
                .expect("scenario must be valid for this population size"),
        )
    }
}

impl fmt::Display for Scenario {
    /// Renders the canonical DSL form; `Scenario::parse` inverts it
    /// exactly (numbers use Rust's shortest round-trip formatting).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_display_round_trip() {
        let s = Scenario::new()
            .crash(0.25, 3.0)
            .recover(0.1, 6.5)
            .join(0.15, 9.0)
            .corrupt(0.05, AdversaryMode::Adaptive, 4.0)
            .burst_loss(0.5, 8.0, 12.0)
            .latency_scale(2.0, 20.0)
            .latency_scale_during(4.0, 25.0, 30.0)
            .rewire(Topology::Regular { d: 8 }, 40.0)
            .with_signal_loss(0.3)
            .with_stragglers(0.2, 0.5);
        let rendered = s.to_string();
        assert!(
            rendered.ends_with(";signal-loss:0.3;stragglers:0.2:0.5"),
            "{rendered}"
        );
        assert_eq!(Scenario::parse(&rendered).unwrap(), s);
        assert_eq!(s.len(), 10);
        assert_eq!(s.last_time(), 40.0);
        assert_eq!(s.signal_loss(), 0.3);
        assert_eq!(s.stragglers(), Some((0.2, 0.5)));
    }

    #[test]
    fn run_long_only_scenarios_keep_the_fast_path() {
        let s = Scenario::new()
            .with_signal_loss(0.3)
            .with_stragglers(0.2, 0.1);
        assert!(!s.is_empty());
        assert_eq!(s.horizon(), 0.0);
        assert!(s.for_run(100, 2, 0).is_none());
        assert!(s.clone().crash(0.1, 5.0).for_run(100, 2, 0).is_some());
        assert_eq!(Scenario::new().signal_loss(), 0.0);
        assert_eq!(Scenario::new().stragglers(), None);
    }

    #[test]
    #[should_panic(expected = "valid")]
    fn builder_rejects_a_second_run_long_action() {
        let _ = Scenario::new().with_signal_loss(0.1).with_signal_loss(0.2);
    }

    #[test]
    fn empty_scenario_is_the_fast_path() {
        let s = Scenario::new();
        assert!(s.is_empty());
        assert_eq!(s.to_string(), "");
        assert_eq!(s.last_time(), 0.0);
        assert!(s.for_run(100, 2, 0).is_none());
    }

    #[test]
    fn validate_checks_rewire_against_n() {
        // d-regular with d ≥ n is impossible.
        let s = Scenario::new().rewire(Topology::Regular { d: 64 }, 5.0);
        assert!(s.validate(1_000).is_ok());
        assert!(s.validate(32).is_err());
    }

    #[test]
    #[should_panic(expected = "valid")]
    fn builder_rejects_bad_fraction() {
        let _ = Scenario::new().crash(1.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "valid")]
    fn builder_rejects_inverted_window() {
        let _ = Scenario::new().burst_loss(0.5, 10.0, 4.0);
    }

    #[test]
    fn last_time_counts_window_ends_but_horizon_does_not() {
        let s = Scenario::new().crash(0.1, 50.0).burst_loss(0.2, 10.0, 80.0);
        assert_eq!(s.last_time(), 80.0);
        assert_eq!(s.horizon(), 50.0);
        // The "effectively permanent burst" idiom must not inflate the
        // horizon engines extend their run caps past.
        let permanent = Scenario::new().burst_loss(0.5, 0.0, 1e6).crash(0.2, 30.0);
        assert_eq!(permanent.horizon(), 30.0);
    }
}
