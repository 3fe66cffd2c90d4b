//! The round kernel shared by the per-node engines that advance in
//! discrete steps: the synchronous generation protocol
//! ([`crate::sync::SyncConfig`]) and, in `plurality-baselines`, the four
//! gossip dynamics and the two population protocols.
//!
//! A *step* is one synchronous round or one ordered-pair interaction of
//! the sequential scheduler, `n` of which make one unit of parallel time.
//! The kernel owns the step cap stretched past [`Scenario::horizon`], the
//! environment poll, the sampler, tracer and convergence tracker, and the
//! closing milestones and [`RunOutcome`]. Its run set-up and its
//! scenario effects are the ones the asynchronous kernel also calls. A protocol supplies a
//! [`RoundProtocol`], monomorphized into [`Round::run`], so the per-node
//! hot loop pays no dynamic dispatch.
//!
//! On this kernel crashed nodes freeze; an interaction that samples a
//! crashed node or loses a channel to a `burst-loss` window aborts;
//! `join` and `corrupt` overwrite node states; `latency:` is a no-op.
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

/// The axes every per-node run is stated on: the initial opinions, ε,
/// the seed, the topology, the scenario and tracing. Every per-node
/// config embeds them — the round-kernel configs as their `run` field,
/// the asynchronous configs in their run parameters, and the facade's
/// `RunConfig` — and gets their `with_*` setters from
/// [`run_axes_setters!`](crate::run_axes_setters). Each config's own
/// docs say what a topology and a scenario mean to its engine.
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
pub struct RunAxes {
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
}

impl From<InitialAssignment> for RunAxes {
    /// `assignment` with the defaults above.
    fn from(assignment: InitialAssignment) -> Self {
        Self {
            assignment,
            epsilon: 0.05,
            seed: 0,
            topology: Topology::Complete,
            scenario: Scenario::new(),
            trace: false,
        }
    }
}

/// The `with_*` setters of the [`RunAxes`] a config embeds at the field
/// path given (`run`, `run.axes`, …), expanded inside the config's
/// `impl`; `, epsilon` adds `with_epsilon`.
#[doc(hidden)]
#[macro_export]
macro_rules! run_axes_setters {
    ($($axes:ident).+) => {
        /// Enables structured run tracing (default off). The tracer
        /// draws no process RNG and reads no clock: a traced run has the
        /// byte-identical outcome of an untraced one, plus the event log
        /// in the result's `trace` field.
        pub fn with_trace(mut self, trace: bool) -> Self {
            self.$($axes).+.trace = trace;
            self
        }

        /// Attaches a time-scripted environment (default: the empty
        /// scenario, the paper's failure-free static model). Scenario
        /// randomness lives on a private stream, so the empty scenario
        /// leaves the process RNG stream untouched. This type's docs give
        /// the clock of event times and what each effect does.
        pub fn with_scenario(mut self, scenario: ::plurality_scenario::Scenario) -> Self {
            self.$($axes).+.scenario = scenario;
            self
        }

        /// Sets the communication topology (default the complete graph,
        /// the paper's model). Random graph families are rebuilt per run
        /// from `derive_seed(seed, TOPOLOGY_STREAM)`. This type's docs
        /// say which samples the graph constrains.
        pub fn with_topology(mut self, topology: ::plurality_topology::Topology) -> Self {
            self.$($axes).+.topology = topology;
            self
        }

        /// Sets the RNG seed (default 0). Runs are pure functions of it.
        pub fn with_seed(mut self, seed: u64) -> Self {
            self.$($axes).+.seed = seed;
            self
        }
    };
    ($($axes:ident).+, epsilon) => {
        $crate::run_axes_setters!($($axes).+);

        /// Sets ε for ε-convergence reporting (default 0.05).
        ///
        /// # Panics
        ///
        /// Panics if `epsilon ∉ [0, 1]`.
        pub fn with_epsilon(mut self, epsilon: f64) -> Self {
            assert!((0.0..=1.0).contains(&epsilon), "epsilon must lie in [0, 1]");
            self.$($axes).+.epsilon = epsilon;
            self
        }
    };
}

/// What [`RunAxes::start`] hands a kernel, each part moved into the
/// kernel's own field.
pub(crate) struct Start {
    pub rng: Xoshiro256PlusPlus,
    /// The initial colour of every node.
    pub cols: Vec<u32>,
    pub counts: OpinionCounts,
    pub winner: Opinion,
    /// The initial bias `α₀` (∞ when the runner-up is empty).
    pub bias: f64,
    pub sampler: PeerSampler,
    /// `None` for the empty scenario: the zero-cost fast path.
    pub env: Option<Environment>,
    pub tracker: ConvergenceTracker,
    pub tracer: Tracer,
}

impl RunAxes {
    /// The run set-up both kernels share: seeds the process RNG and
    /// materializes the population, checks its size, builds the topology
    /// and the scenario environment, takes the initial colours, counts,
    /// winner and bias, observes the tracker at time 0 and creates the
    /// tracer. Draws nothing from the process stream beyond
    /// `materialize`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `min_nodes` nodes materialize (`protocol`
    /// names the run in the message) or the topology cannot be built for
    /// that population size.
    pub(crate) fn start(&self, protocol: &str, min_nodes: usize) -> Start {
        let mut rng = Xoshiro256PlusPlus::from_u64(self.seed);
        let opinions = self.assignment.materialize(&mut rng);
        let n = opinions.len();
        assert!(
            n >= min_nodes,
            "{protocol} run needs at least {min_nodes} nodes"
        );
        let k = self.assignment.k();
        // Private RNG streams: complete-graph and empty-scenario runs
        // leave the process stream untouched.
        let sampler = self
            .topology
            .build(n, derive_seed(self.seed, TOPOLOGY_STREAM))
            .expect("topology must be buildable for this population size");
        let env = self.scenario.for_run(n, k, self.seed);
        let counts = OpinionCounts::tally(&opinions, k as usize);
        let winner = counts.winner().expect("non-empty population");
        let mut tracker = ConvergenceTracker::new(n as u64, winner, self.epsilon);
        let max_support = counts.as_slice().iter().copied().max();
        tracker.observe(0.0, counts.support(winner), max_support.unwrap_or(0));
        Start {
            rng,
            cols: opinions.iter().map(|o| o.index()).collect(),
            bias: counts.bias().unwrap_or(f64::INFINITY),
            counts,
            winner,
            sampler,
            env,
            tracker,
            tracer: Tracer::new(self.trace),
        }
    }
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
    /// Runs the set-up both kernels share, for at most `max_steps` steps
    /// (`None`: derived per run): materializes the population on the
    /// process stream and builds the topology, scenario environment,
    /// tracer and tracker (observed at time 0). Returns the kernel and
    /// the initial colour of every node.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 nodes materialize (`protocol` names the run
    /// in the message) or the topology cannot be built for that size.
    pub fn new(axes: &RunAxes, max_steps: Option<u64>, protocol: &str) -> (Self, Vec<u32>) {
        let s = axes.start(protocol, 2);
        let kernel = Self {
            rng: s.rng,
            initial_counts: s.counts,
            initial_winner: s.winner,
            initial_bias: s.bias,
            n: s.cols.len(),
            k: axes.assignment.k(),
            sampler: s.sampler,
            env: s.env,
            tracer: s.tracer,
            tracker: s.tracker,
            horizon: axes.scenario.horizon(),
            max_steps,
        };
        (kernel, s.cols)
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
