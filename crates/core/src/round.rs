//! The round kernel shared by the per-node engines that advance in
//! discrete steps: the synchronous generation protocol
//! ([`crate::sync::SyncConfig`]) and, in `plurality-baselines`, the four
//! gossip dynamics and the two population protocols.
//!
//! A *step* is one synchronous round or one ordered-pair interaction of
//! the sequential scheduler, `n` of which make one unit of parallel time.
//! The kernel owns the run set-up (process RNG and `materialize`, the
//! topology on its private `TOPOLOGY_STREAM`, [`Scenario::for_run`], the
//! initial winner and bias, the step cap stretched past
//! [`Scenario::horizon`]), the environment poll, the sampler, tracer and
//! convergence tracker, and the closing milestones and [`RunOutcome`].
//! Scenario effects go through the one function the asynchronous kernel
//! also calls. A protocol supplies a [`RoundProtocol`], monomorphized
//! into [`Round::run`], so the per-node hot loop pays no dynamic dispatch.
//!
//! # Examples
//!
//! ```
//! use plurality_core::sync::SyncConfig;
//! use plurality_core::InitialAssignment;
//! use plurality_scenario::Scenario;
//!
//! let assignment = InitialAssignment::with_bias(2_000, 3, 3.0).unwrap();
//! let scenario = Scenario::parse("crash:0.3@2;recover:0.3@6").unwrap();
//! let result = SyncConfig::new(assignment)
//!     .with_scenario(scenario)
//!     .with_seed(5)
//!     .run();
//! assert!(result.outcome.plurality_preserved());
//! ```

use crate::opinion::{InitialAssignment, Opinion, OpinionCounts};
use crate::outcome::{ConvergenceTracker, GenerationBirth, RunOutcome};
use plurality_dist::rng::{derive_seed, Xoshiro256PlusPlus};
use plurality_obs::{TraceEvent, TraceKind, Tracer};
use plurality_scenario::{Effect, Environment, Scenario};
use plurality_topology::{PeerSampler, Topology, TOPOLOGY_STREAM};
use std::borrow::Cow;

/// The run parameters every round-kernel config embeds as its `run`
/// field, set through [`round_param_setters!`](crate::round_param_setters)
/// and the config's own setters.
///
/// # Examples
///
/// ```
/// use plurality_core::sync::SyncConfig;
/// use plurality_core::InitialAssignment;
/// use plurality_topology::Topology;
///
/// let assignment = InitialAssignment::with_bias(1_024, 2, 3.0).unwrap();
/// let result = SyncConfig::new(assignment)
///     .with_topology(Topology::Regular { d: 8 })
///     .with_seed(1)
///     .run();
/// assert!(result.outcome.plurality_preserved());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RoundParams {
    /// The initial opinions.
    pub assignment: InitialAssignment,
    /// ε for ε-convergence reporting (default 0.05).
    pub epsilon: f64,
    /// The run seed (default 0).
    pub seed: u64,
    /// The communication topology (default the complete graph).
    pub topology: Topology,
    /// The time-scripted environment (default empty).
    pub scenario: Scenario,
    /// Whether to record a structured trace (default off).
    pub trace: bool,
    /// An explicit step cap (default derived per run).
    pub max_steps: Option<u64>,
}

impl RoundParams {
    /// The defaults above for `assignment`.
    pub fn new(assignment: InitialAssignment) -> Self {
        Self {
            assignment,
            epsilon: 0.05,
            seed: 0,
            topology: Topology::Complete,
            scenario: Scenario::new(),
            trace: false,
            max_steps: None,
        }
    }
}

/// The `with_*` setters of the [`RoundParams`] fields, expanded inside
/// each round-kernel config's `impl`; `(epsilon)` adds `with_epsilon`.
#[doc(hidden)]
#[macro_export]
macro_rules! round_param_setters {
    () => {
        /// Enables structured run tracing (default off). Tracing draws no
        /// RNG: only the result's `trace` field changes.
        pub fn with_trace(mut self, trace: bool) -> Self {
            self.run.trace = trace;
            self
        }

        /// Attaches a time-scripted environment (default empty). Crashed
        /// nodes freeze; an interaction that samples a crashed node or
        /// loses a channel to a `burst-loss` window aborts; `join` and
        /// `corrupt` overwrite node states; `latency:` is a no-op.
        /// Scenario randomness has a private stream, so the empty
        /// scenario leaves the process RNG stream untouched.
        pub fn with_scenario(mut self, scenario: ::plurality_scenario::Scenario) -> Self {
            self.run.scenario = scenario;
            self
        }

        /// Sets the communication topology (default the complete graph).
        /// Samples are uniform neighbors (isolated nodes sample
        /// themselves); random graphs are rebuilt per run from
        /// `derive_seed(seed, TOPOLOGY_STREAM)`.
        pub fn with_topology(mut self, topology: ::plurality_topology::Topology) -> Self {
            self.run.topology = topology;
            self
        }

        /// Sets the RNG seed (default 0). Runs are pure functions of it.
        pub fn with_seed(mut self, seed: u64) -> Self {
            self.run.seed = seed;
            self
        }
    };
    (epsilon) => {
        $crate::round_param_setters!();

        /// Sets ε for ε-convergence reporting (default 0.05).
        ///
        /// # Panics
        ///
        /// Panics if `epsilon ∉ [0, 1]`.
        pub fn with_epsilon(mut self, epsilon: f64) -> Self {
            assert!((0.0..=1.0).contains(&epsilon), "epsilon must lie in [0, 1]");
            self.run.epsilon = epsilon;
            self
        }
    };
}

/// A protocol's node state and step rule, run by [`Round::run`]. Where
/// engines differ in the loop itself, the difference is a const.
pub trait RoundProtocol {
    /// Whether a step is one ordered-pair interaction, `n` per time
    /// unit, due the scenario effects up to its *start* (`false`: a
    /// synchronous round, due the effects up to its end time).
    const PAIRWISE: bool = false;
    /// Whether ε-convergence is tracked ([`Round::observe`]); if not,
    /// ε-time is the consensus time and only `consensus` is traced.
    const TRACKS_EPSILON: bool = true;

    /// The derived step cap, and the tail in time units that the kernel
    /// keeps past the scenario horizon.
    fn default_cap(&self, n: usize) -> (u64, f64);
    /// Whether consensus is reached.
    fn is_done(&self) -> bool;
    /// Runs step `step` (1-based) and returns whether consensus is
    /// reached; `None` if no step is possible (an edgeless graph admits
    /// no interaction), which ends the run with the step uncounted. The
    /// kernel unswitches its loop on whether a scenario is attached, so
    /// a step guards its crash and loss checks with `SCENARIO`.
    fn step<const SCENARIO: bool>(&mut self, k: &mut Round, step: u64) -> Option<bool>;
    /// Called after a non-empty batch of scenario effects; true ends the
    /// run before the next step (default: the step runs regardless).
    fn after_effects(&mut self) -> bool {
        false
    }
    /// Slot `v` was re-filled by a fresh node holding opinion `c`.
    fn on_join(&mut self, v: usize, c: u32);
    /// The adversary re-colors node `v` to opinion `c`.
    fn recolor(&mut self, v: usize, c: u32);
    /// The opinions the adaptive adversary reads; entries `≥ k` hide
    /// their node from its support count.
    fn colors(&self) -> Cow<'_, [u32]>;
    /// The final opinion counts.
    fn final_counts(&self) -> OpinionCounts;
    /// The recorded generation births (none by default).
    fn generations(&mut self) -> Vec<GenerationBirth> {
        Vec::new()
    }
}

/// An engine's side of the scenario effects, applied by [`apply_effects`].
pub(crate) trait EffectTarget {
    fn k(&self) -> u32;
    fn colors(&self) -> Cow<'_, [u32]>;
    fn join(&mut self, now: f64, v: usize, c: u32);
    fn recolor(&mut self, now: f64, v: usize, c: u32);
    fn rewire(&mut self, sampler: PeerSampler);
    fn tracer(&mut self) -> &mut Tracer;
}

/// Applies the scenario effects due at `now`, tracing each after it is
/// applied (a join may trace a generation birth first). The one match on
/// [`Effect`] outside `plurality-scenario`; crash, recover, loss and
/// latency effects need no engine action.
pub(crate) fn apply_effects<T: EffectTarget>(
    env: &mut Environment,
    now: f64,
    effects: Vec<Effect>,
    t: &mut T,
) {
    for effect in effects {
        let (name, count) = match effect {
            Effect::Joined(joins) => {
                for &(v, c) in &joins {
                    t.join(now, v as usize, c);
                }
                ("joined", joins.len())
            }
            Effect::Corrupt { budget, mode } => {
                let targets = env.corruption_targets(budget, mode, &t.colors(), t.k());
                for &(v, c) in &targets {
                    t.recolor(now, v as usize, c);
                }
                ("corrupt", targets.len())
            }
            Effect::Rewired(sampler) => {
                t.rewire(sampler);
                ("rewired", 1)
            }
            _ => continue,
        };
        let count = count as u64;
        t.tracer()
            .emit(now, TraceKind::ScenarioEffect { name, count });
    }
}

/// A round protocol with the kernel parts its effects touch.
struct RoundEffects<'a, P>(&'a mut P, u32, &'a mut PeerSampler, &'a mut Tracer);

impl<P: RoundProtocol> EffectTarget for RoundEffects<'_, P> {
    fn k(&self) -> u32 {
        self.1
    }
    fn colors(&self) -> Cow<'_, [u32]> {
        self.0.colors()
    }
    fn join(&mut self, _now: f64, v: usize, c: u32) {
        self.0.on_join(v, c);
    }
    fn recolor(&mut self, _now: f64, v: usize, c: u32) {
        self.0.recolor(v, c);
    }
    fn rewire(&mut self, sampler: PeerSampler) {
        *self.2 = sampler;
    }
    fn tracer(&mut self) -> &mut Tracer {
        self.3
    }
}

/// What [`Round::run`] reports back to its engine.
pub struct RoundRun {
    /// The common outcome report.
    pub outcome: RunOutcome,
    /// Steps executed (rounds or interactions).
    pub steps: u64,
    /// Structured trace events, sorted by time (only when tracing).
    pub trace: Option<Vec<TraceEvent>>,
}

/// The shared run state of a round-kernel engine.
pub struct Round {
    /// The process RNG, for protocol draws beyond peer sampling.
    pub rng: Xoshiro256PlusPlus,
    /// The initial opinion counts.
    pub initial_counts: OpinionCounts,
    /// The initial plurality opinion.
    pub initial_winner: Opinion,
    /// The initial bias `α₀` (∞ when the runner-up is empty).
    pub initial_bias: f64,
    n: usize,
    k: u32,
    sampler: PeerSampler,
    /// `None` for the empty scenario: the zero-cost fast path.
    env: Option<Environment>,
    tracer: Tracer,
    tracker: ConvergenceTracker,
    horizon: f64,
    max_steps: Option<u64>,
}

impl Round {
    /// Materializes the population on the process stream and builds the
    /// topology, scenario environment, tracer and tracker (observed at
    /// time 0). Returns the kernel and the initial opinions.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 nodes materialize (`protocol` names the run
    /// in the message) or the topology cannot be built for that size.
    pub fn new(params: &RoundParams, protocol: &str) -> (Self, Vec<Opinion>) {
        let mut rng = Xoshiro256PlusPlus::from_u64(params.seed);
        let opinions = params.assignment.materialize(&mut rng);
        let n = opinions.len();
        assert!(n >= 2, "{protocol} run needs at least 2 nodes");
        let k = params.assignment.k();
        // Private RNG streams: complete-graph and empty-scenario runs
        // leave the process stream untouched.
        let sampler = params
            .topology
            .build(n, derive_seed(params.seed, TOPOLOGY_STREAM))
            .expect("topology must be buildable for this population size");
        let initial_counts = OpinionCounts::tally(&opinions, k as usize);
        let initial_winner = initial_counts.winner().expect("non-empty population");
        let mut tracker = ConvergenceTracker::new(n as u64, initial_winner, params.epsilon);
        let max_support = initial_counts.as_slice().iter().copied().max();
        let support = initial_counts.support(initial_winner);
        tracker.observe(0.0, support, max_support.unwrap_or(0));
        let kernel = Self {
            rng,
            n,
            initial_bias: initial_counts.bias().unwrap_or(f64::INFINITY),
            initial_counts,
            initial_winner,
            k,
            sampler,
            env: params.scenario.for_run(n, k, params.seed),
            tracer: Tracer::new(params.trace),
            tracker,
            horizon: params.scenario.horizon(),
            max_steps: params.max_steps,
        };
        (kernel, opinions)
    }

    /// One uniform neighbor of `v` on the current topology.
    #[inline]
    pub fn sample(&mut self, v: u32) -> u32 {
        self.sampler.sample(v, &mut self.rng)
    }

    /// One ordered pair, a uniform directed edge; `None` if edgeless.
    #[inline]
    pub fn sample_pair(&mut self) -> Option<(u32, u32)> {
        self.sampler.sample_interaction_pair(&mut self.rng)
    }

    /// The scenario environment a step's crash and loss checks read
    /// (`None` without a scenario).
    #[inline]
    pub fn env(&mut self) -> Option<&mut Environment> {
        self.env.as_mut()
    }

    /// Feeds the supports at `now` to the convergence tracker.
    #[inline]
    pub fn observe(&mut self, now: f64, winner_support: u64, max_support: u64) {
        self.tracker.observe(now, winner_support, max_support);
    }

    /// Emits a trace event (a no-op when tracing is off).
    #[inline]
    pub fn emit(&mut self, now: f64, kind: TraceKind) {
        self.tracer.emit(now, kind);
    }

    /// The step loop of [`Round::run`]; returns the steps taken.
    fn steps<P: RoundProtocol, const SCENARIO: bool>(
        &mut self,
        p: &mut P,
        cap: u64,
        per_unit: f64,
    ) -> u64 {
        let (mut steps, mut done) = (0u64, p.is_done());
        while !done && steps < cap {
            if let (true, Some(env)) = (SCENARIO, self.env.as_mut()) {
                let now = (steps + u64::from(!P::PAIRWISE)) as f64 / per_unit;
                let effects = env.poll(now);
                if !effects.is_empty() {
                    let (sampler, tracer) = (&mut self.sampler, &mut self.tracer);
                    let mut target = RoundEffects(&mut *p, self.k, sampler, tracer);
                    apply_effects(env, now, effects, &mut target);
                    if p.after_effects() {
                        break;
                    }
                }
            }
            match p.step::<SCENARIO>(self, steps + 1) {
                Some(over) => (steps, done) = (steps + 1, over),
                None => break,
            }
        }
        steps
    }

    /// Runs `p` to consensus, the step cap, or a step that cannot be
    /// taken, and reports the outcome. A finished start returns at once.
    pub fn run<P: RoundProtocol>(mut self, p: &mut P) -> RoundRun {
        let per_unit = if P::PAIRWISE { self.n as f64 } else { 1.0 };
        let cap = self.max_steps.unwrap_or_else(|| {
            // Scripted events must fire: stretch the derived cap past the
            // step the last event is due at, plus the tail.
            let (derived, tail) = p.default_cap(self.n);
            let horizon = if P::PAIRWISE {
                self.horizon
            } else {
                self.horizon.ceil()
            };
            derived.max(((horizon + tail) * per_unit).ceil() as u64)
        });
        // Unswitched on the scenario: the failure-free loop polls nothing
        // and its steps carry no crash or loss checks.
        let steps = if self.env.is_some() {
            self.steps::<P, true>(p, cap, per_unit)
        } else {
            self.steps::<P, false>(p, cap, per_unit)
        };

        // The loop ends at the first finished step, so consensus time is
        // the run's duration whenever the run ends finished.
        let duration = steps as f64 / per_unit;
        let consensus_time = p.is_done().then_some(duration);
        let epsilon_time = if P::TRACKS_EPSILON {
            self.tracker.epsilon_time()
        } else {
            consensus_time
        };
        let traced_epsilon = epsilon_time.filter(|_| P::TRACKS_EPSILON);
        for (name, t) in [
            ("epsilon-converged", traced_epsilon),
            ("consensus", consensus_time),
        ] {
            if let Some(value) = t {
                self.tracer
                    .emit(value, TraceKind::Milestone { name, value });
            }
        }
        RoundRun {
            outcome: RunOutcome {
                n: self.n as u64,
                k: self.k,
                initial_winner: self.initial_winner,
                initial_bias: self.initial_bias,
                final_counts: p.final_counts(),
                epsilon_time,
                consensus_time,
                duration,
                generations: p.generations(),
            },
            steps,
            trace: self.tracer.finish(),
        }
    }
}
