//! The asynchronous-engine kernel shared by the single-leader
//! ([`crate::leader`]) and multi-leader ([`crate::cluster`]) engines.
//!
//! Both protocols run in the paper's one model: every node ticks on a
//! Poisson clock, a tick sends a 0-signal towards the node's leader and,
//! unless the node is locked, opens channels to sampled peers whose
//! completion runs the protocol's decision rule. The kernel owns that
//! model — run set-up, clocks, the event queue, thinning, jump chains,
//! scenario effects, convergence tracking and the run-end report — and
//! calls the protocol back through [`Handlers`] for what differs.
//!
//! ## Hot-path structure
//!
//! Standard discrete-event reductions keep the event queue small:
//!
//! * **Clock superposition** — the union of independent Poisson clocks is
//!   a Poisson process whose rate is the sum of the per-node rates, each
//!   event belonging to node `v` with probability `rate_v / Σ rate`. The
//!   kernel keeps *one* pending tick per rate pool (unit-rate nodes, the
//!   leader's stragglers) as a scalar compared against the queue head and
//!   samples the ticking node uniformly inside the pool at fire time,
//!   instead of queueing `n` tick events.
//! * **Absorbed-leader gating** — a leader that can provably never
//!   transition again (a terminal single leader, a non-participating or
//!   terminal cluster) makes signals towards it unobservable; the
//!   protocols stop scheduling them.
//! * **Displaced-Poisson 0-signals** — on the failure-free path with
//!   exponential travel latency, each leader's 0-signal *arrival* stream
//!   is an inhomogeneous Poisson process (coloring + displacement
//!   theorems), and every counting window is a pure count against a
//!   threshold. The kernel jumps straight to each crossing with one
//!   `Gamma(κ, 1)` draw per window ([`crate::signalflow`]) instead of
//!   scheduling ~`n` signal events per time step. Scenario runs and
//!   non-exponential latencies keep the per-signal path, whose loss and
//!   crash modulation is per event.
//! * **Tick thinning** — on that path with unit-rate clocks, a tick on a
//!   *locked* node does nothing at all: its 0-signal is carried by the
//!   jump chains and the interaction gate fails. The kernel simulates
//!   only the unlocked sub-stream: by Poisson splitting, ticks of the `u`
//!   unlocked nodes form a rate-`u` process with uniform marks over the
//!   unlocked set, redrawable (memorylessness) whenever `u` changes. The
//!   suppressed ticks only feed the `ticks` counter, whose total is
//!   `Poisson(∫ (n − u(t)) dt)` — accrued piecewise and drawn once at run
//!   end, exact in distribution.
//!
//! ## RNG draw order
//!
//! The kernel exposes building blocks ([`Kernel::new`], the pool and flow
//! set-up, [`Kernel::run`], [`Kernel::adopt`], [`Kernel::unlock`],
//! [`Kernel::send`], [`Kernel::finish`]) that each engine calls in its
//! own historical order, so both keep their byte-identical process RNG
//! stream: the cluster engine draws its election coins before the first
//! tick, and a leader interaction unlocks its initiator after the
//! decision while a cluster interaction unlocks it before.

use crate::genstate::GenerationTable;
use crate::opinion::InitialAssignment;
use crate::outcome::{ConvergenceTracker, GenerationBirth, RecordLevel, RunOutcome};
use crate::signalflow::SignalFlow;
use crate::sync::{generations_needed, GENERATION_CAP};
use crate::Opinion;
use plurality_dist::rng::{derive_seed, Xoshiro256PlusPlus};
use plurality_dist::{sample_poisson, unit_exp, ChannelPattern, Latency, WaitingTime};
use plurality_obs::{EngineProfile, TraceEvent, TraceKind, Tracer};
use plurality_scenario::{Effect, Environment, Scenario};
use plurality_sim::{CalendarQueue, PoissonClock};
use plurality_topology::{PeerSampler, Topology, TOPOLOGY_STREAM};
use rand::Rng;
use std::ops::Range;

/// A queued event: the channel completion of an interaction that node
/// `v` opened to `peers`, or a protocol signal in flight to a leader.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event<S, const M: usize> {
    Op {
        v: u32,
        peers: [u32; M],
        /// The initiator's slot epoch at scheduling time; a join-churn
        /// event bumps the slot's epoch, voiding in-flight interactions
        /// of the node the joiner replaced.
        epoch: u32,
    },
    Signal(S),
}

/// A protocol's handlers, monomorphized into [`Kernel::run`]. `M` is the
/// number of peers an interaction samples.
pub(crate) trait Handlers<const M: usize>: Sized {
    /// The signals this protocol sends to its leaders.
    type Signal: Copy;

    /// Whether a batch of scenario effects observes convergence after
    /// every node it moves (`true`) or once after the whole batch.
    const OBSERVE_EACH_MOVE: bool;

    /// A tick of node `v` on the per-signal path: send its 0-signal (via
    /// [`Kernel::send`]) unless the receiving leader is absorbed.
    fn send_zero(&mut self, k: &mut Kernel<Self::Signal, M>, now: f64, v: u32);

    /// The interaction of `v` with `peers` completed; returns true when
    /// the run is finished. Must [`Kernel::unlock`] `v` unless finished.
    fn on_op(&mut self, k: &mut Kernel<Self::Signal, M>, now: f64, v: u32, peers: [u32; M])
        -> bool;

    /// A queued signal arrived at its leader.
    fn on_signal(&mut self, k: &mut Kernel<Self::Signal, M>, now: f64, signal: Self::Signal);

    /// The jump chain of `scope` crossed its armed window threshold.
    fn on_crossing(&mut self, k: &mut Kernel<Self::Signal, M>, now: f64, scope: u32);

    /// Clears the protocol flags of slot `v`, just re-filled by a join.
    fn on_join(&mut self, v: usize);

    /// Called once per loop step, after scenario effects and before the
    /// step's event is handled.
    fn on_step(&mut self, _k: &Kernel<Self::Signal, M>, _now: f64) {}
}

/// The run parameters both engines' configs embed as their `run` field.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RunParams {
    pub assignment: InitialAssignment,
    pub latency: Latency,
    pub epsilon: f64,
    pub seed: u64,
    pub record: RecordLevel,
    pub max_time: Option<f64>,
    pub steps_per_unit: Option<f64>,
    pub two_choices_units: f64,
    pub generation_cap: Option<u32>,
    pub alpha_hint: Option<f64>,
    pub topology: Topology,
    pub scenario: Scenario,
    pub trace: bool,
}

impl RunParams {
    /// Defaults: `Exp(1)` latency, `ε = 0.05`, seed 0, generation-level
    /// telemetry, a two-choices window of 2 time units, the complete
    /// graph, no scenario, no trace; the time cap, `C1`, the generation
    /// cap and the bias hint are derived per run.
    pub fn new(assignment: InitialAssignment) -> Self {
        Self {
            assignment,
            latency: Latency::exponential(1.0).expect("rate 1 valid"),
            epsilon: 0.05,
            seed: 0,
            record: RecordLevel::Generations,
            max_time: None,
            steps_per_unit: None,
            two_choices_units: 2.0,
            generation_cap: None,
            alpha_hint: None,
            topology: Topology::Complete,
            scenario: Scenario::new(),
            trace: false,
        }
    }
}

/// The `with_*` setters of the [`RunParams`] fields whose meaning does
/// not depend on the protocol, expanded inside each config's `impl`.
macro_rules! run_param_setters {
    () => {
        /// Enables structured run tracing (default off). The tracer
        /// consumes no process RNG and reads no clock: a traced run
        /// produces the byte-identical outcome of an untraced one, plus
        /// the event log in the result's `trace` field.
        pub fn with_trace(mut self, trace: bool) -> Self {
            self.run.trace = trace;
            self
        }

        /// Sets the channel-establishment latency law (default `Exp(1)`).
        pub fn with_latency(mut self, latency: ::plurality_dist::Latency) -> Self {
            self.run.latency = latency;
            self
        }

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

        /// Sets the RNG seed (default 0).
        pub fn with_seed(mut self, seed: u64) -> Self {
            self.run.seed = seed;
            self
        }

        /// Sets the telemetry level (default
        /// [`RecordLevel::Generations`](crate::RecordLevel::Generations)).
        pub fn with_record(mut self, record: $crate::RecordLevel) -> Self {
            self.run.record = record;
            self
        }

        /// Caps the simulated time in time *steps* (default: derived bound).
        ///
        /// # Panics
        ///
        /// Panics if `max_time` is not positive.
        pub fn with_max_time(mut self, max_time: f64) -> Self {
            assert!(max_time > 0.0, "max_time must be positive");
            self.run.max_time = Some(max_time);
            self
        }

        /// Overrides the time-unit length `C1` in steps (default:
        /// Monte-Carlo estimate of `F⁻¹(0.9)` for the configured latency
        /// and the protocol's channel pattern).
        ///
        /// # Panics
        ///
        /// Panics if `c1` is not positive.
        pub fn with_steps_per_unit(mut self, c1: f64) -> Self {
            assert!(c1 > 0.0, "steps_per_unit must be positive");
            self.run.steps_per_unit = Some(c1);
            self
        }

        /// Sets the length of the two-choices window per generation, in
        /// time units (default 2: the paper's constant 2 in
        /// `C3 = C1(2 + log n/√n)`, Proposition 16).
        ///
        /// # Panics
        ///
        /// Panics if `units` is not positive.
        pub fn with_two_choices_units(mut self, units: f64) -> Self {
            assert!(units > 0.0, "two_choices_units must be positive");
            self.run.two_choices_units = units;
            self
        }

        /// Overrides the generation cap `⌈log log_α n⌉`.
        pub fn with_generation_cap(mut self, cap: u32) -> Self {
            self.run.generation_cap = Some(cap);
            self
        }

        /// Overrides the bias `α₀` used for the generation cap.
        pub fn with_alpha_hint(mut self, alpha: f64) -> Self {
            self.run.alpha_hint = Some(alpha);
            self
        }
    };
}
pub(crate) use run_param_setters;

/// One superposed tick chain over the pool slots `lo..lo + size`.
struct Pool {
    clock: PoissonClock,
    lo: usize,
    size: usize,
    next: f64,
}

/// What a finished run reports back to its engine.
pub(crate) struct Finished {
    pub outcome: RunOutcome,
    pub ticks: u64,
    pub trace: Option<Vec<TraceEvent>>,
    pub profile: EngineProfile,
}

/// The shared run state of an asynchronous engine.
pub(crate) struct Kernel<S, const M: usize> {
    pub rng: Xoshiro256PlusPlus,
    pub n: usize,
    pub cols: Vec<u32>,
    pub gens: Vec<u32>,
    locked: Vec<bool>,
    /// Slot epochs, bumped by join churn (all-zero without a scenario).
    op_epoch: Vec<u32>,
    pub table: GenerationTable,
    pub initial_winner: Opinion,
    initial_bias: f64,
    /// `None` for the empty scenario: the zero-cost fast path.
    env: Option<Environment>,
    pub sampler: PeerSampler,
    waiting: WaitingTime,
    /// The time-unit length `C1` in steps.
    pub c1: f64,
    /// The generation cap `⌈log log_α n⌉`.
    pub cap: u32,
    pub max_time: f64,
    record: RecordLevel,
    tracker: ConvergenceTracker,
    tracer: Tracer,
    births: Vec<GenerationBirth>,
    queue: CalendarQueue<Event<S, M>>,
    pools: Vec<Pool>,
    /// Pool slot → node id (identity when `None`).
    pub slot_ids: Option<Vec<u32>>,
    /// Per-scope displaced-Poisson 0-signal jump chains; `None` on the
    /// per-signal path (scenario or non-exponential latency).
    pub flows: Option<Vec<SignalFlow>>,
    /// Minimum of the flows' solved crossing times, and its scope.
    cross: f64,
    cross_scope: u32,
    /// Tick thinning: the unlocked nodes, in swap-remove order.
    thinned: bool,
    unlocked: Vec<u32>,
    /// Accrued intensity `∫ (n − u(t)) dt` of the suppressed locked-node
    /// ticks, and the time up to which it has been accrued.
    tick_exposure: f64,
    exposure_from: f64,
    ticks: u64,
    /// Ticks that opened an interaction (node neither locked nor crashed).
    pub interactions: u64,
    window_crossings: u64,
    end_time: f64,
}

impl<S: Copy, const M: usize> Kernel<S, M> {
    /// Materializes the population and builds topology, scenario
    /// environment, generation table, `C1`, generation cap, tracker,
    /// tracer and queue. Draws nothing from the process stream beyond
    /// `materialize`; `max_time` is left unbounded for the engine to set.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `min_nodes` nodes materialize (`protocol`
    /// names the run in the message) or the topology cannot be built for
    /// that population size.
    pub fn new(s: &RunParams, pattern: ChannelPattern, protocol: &str, min_nodes: usize) -> Self {
        let mut rng = Xoshiro256PlusPlus::from_u64(s.seed);
        let opinions = s.assignment.materialize(&mut rng);
        let n = opinions.len();
        assert!(
            n >= min_nodes,
            "{protocol} run needs at least {min_nodes} nodes"
        );
        // Built from private RNG streams; complete-graph and empty-scenario
        // runs keep the historical process stream intact.
        let sampler = s
            .topology
            .build(n, derive_seed(s.seed, TOPOLOGY_STREAM))
            .expect("topology must be buildable for this population size");
        let env = s.scenario.for_run(n, s.assignment.k(), s.seed);

        let cols: Vec<u32> = opinions.iter().map(|o| o.index()).collect();
        let gens = vec![0; n];
        let table = GenerationTable::from_states(&gens, &cols, s.assignment.k() as usize);
        let initial_counts = table.global_counts();
        let initial_winner = initial_counts.winner().expect("non-empty population");
        let initial_bias = initial_counts.bias().unwrap_or(f64::INFINITY);

        let waiting = WaitingTime::new(s.latency, pattern);
        // Memoized per (latency, pattern): repetitions share one Monte-Carlo
        // estimate instead of re-running 20k composite draws each.
        let c1 = s
            .steps_per_unit
            .unwrap_or_else(|| waiting.time_unit_cached(20_000));
        let alpha = s.alpha_hint.unwrap_or(if initial_bias.is_finite() {
            initial_bias.max(1.0)
        } else {
            2.0
        });
        let cap = s
            .generation_cap
            .unwrap_or_else(|| generations_needed(n as u64, alpha, GENERATION_CAP));

        let mut tracker = ConvergenceTracker::new(n as u64, initial_winner, s.epsilon);
        tracker.observe(
            0.0,
            table.color_support(initial_winner),
            table.max_color_support(),
        );
        // Pending events at any time: ≤ n open interactions plus in-flight
        // signals (≈ n·E[T1] for unit-rate ticking) — `3n` covers the
        // steady state without rehashing.
        let mut queue = CalendarQueue::with_capacity(3 * n);
        queue.set_trace(s.trace);
        Self {
            rng,
            n,
            cols,
            gens,
            locked: vec![false; n],
            op_epoch: vec![0; n],
            table,
            initial_winner,
            initial_bias,
            env,
            sampler,
            waiting,
            c1,
            cap,
            max_time: f64::INFINITY,
            record: s.record,
            tracker,
            tracer: Tracer::new(s.trace),
            births: Vec::new(),
            queue,
            pools: Vec::new(),
            slot_ids: None,
            flows: None,
            cross: f64::INFINITY,
            cross_scope: u32::MAX,
            thinned: false,
            unlocked: Vec::new(),
            tick_exposure: 0.0,
            exposure_from: 0.0,
            ticks: 0,
            interactions: 0,
            window_crossings: 0,
            end_time: 0.0,
        }
    }

    /// Adds a superposed tick chain for the pool slots `slots`, each
    /// ticking at `rate`. Earlier pools win exact tick-time ties.
    pub fn add_pool(&mut self, rate: f64, slots: Range<usize>) {
        self.pools.push(Pool {
            clock: PoissonClock::new(slots.len() as f64 * rate).expect("positive pool rate"),
            lo: slots.start,
            size: slots.len(),
            next: f64::INFINITY,
        });
    }

    /// Draws each pool's first tick, in pool order.
    pub fn start_ticks(&mut self) {
        for pool in &mut self.pools {
            pool.next = pool.clock.next_tick(0.0, &mut self.rng);
        }
    }

    /// Creates one jump chain per entry of `rates` (send rates at time 0,
    /// no window armed) when the travel law is exponential and no
    /// scenario modulates individual signals.
    pub fn enable_flows(&mut self, rates: &[f64]) {
        if let (None, Latency::Exponential { rate }) = (&self.env, self.waiting.latency()) {
            let mut flows = vec![SignalFlow::new(rate); rates.len()];
            for (flow, &r) in flows.iter_mut().zip(rates) {
                flow.set_rate(0.0, r);
            }
            self.flows = Some(flows);
        }
    }

    /// Turns tick thinning on (requires the jump chains and a single
    /// unit-rate pool): only unlocked nodes' ticks are simulated.
    pub fn enable_thinning(&mut self) {
        debug_assert!(self.flows.is_some() && self.pools.len() == 1);
        self.thinned = true;
        self.unlocked = (0..self.n as u32).collect();
    }

    /// Sets `scope`'s send rate and arms a fresh window of `window`
    /// arrivals — or disarms it for `None`. Exact whenever the window just
    /// crossed or the counters were reset (see `signalflow`).
    pub fn set_flow(&mut self, now: f64, scope: u32, rate: f64, window: Option<u64>) {
        let Some(flows) = self.flows.as_mut() else {
            return;
        };
        let flow = &mut flows[scope as usize];
        flow.set_rate(now, rate);
        match window {
            Some(kappa) => {
                debug_assert!(kappa > 0, "crossings are handled before re-arming");
                flow.arm(now, kappa, &mut self.rng);
            }
            None => flow.disarm(now),
        }
        self.rescan();
    }

    /// Changes `scope`'s send rate mid-window, keeping accrued progress.
    pub fn set_flow_rate(&mut self, now: f64, scope: u32, rate: f64) {
        if let Some(flows) = self.flows.as_mut() {
            flows[scope as usize].set_rate(now, rate);
            self.rescan();
        }
    }

    /// Recomputes the minimum solved crossing over all jump chains (ties
    /// break towards the lowest scope, deterministically).
    fn rescan(&mut self) {
        let Some(flows) = self.flows.as_ref() else {
            return;
        };
        self.cross = f64::INFINITY;
        self.cross_scope = u32::MAX;
        for (i, f) in flows.iter().enumerate() {
            if f.pred() < self.cross {
                self.cross = f.pred();
                self.cross_scope = i as u32;
            }
        }
    }

    /// Runs the event loop to consensus, `max_time`, or exhaustion. A
    /// monochromatic start returns at once.
    pub fn run<P: Handlers<M, Signal = S>>(&mut self, p: &mut P) {
        if self.table.is_monochromatic() {
            return;
        }
        loop {
            // At most two pools; the first wins exact ties.
            let (mut tick, mut pool) = (self.pools[0].next, 0);
            if let Some(second) = self.pools.get(1) {
                if second.next < tick {
                    (tick, pool) = (second.next, 1);
                }
            }
            // The jump chains' next crossing competes with the tick chains;
            // queued events win exact time ties against both (a
            // probability-zero event: tick times stay continuous).
            let forced = tick.min(self.cross);
            let popped = self.queue.pop_before(forced.min(self.max_time));
            let now = match popped {
                Some((t, _)) => t,
                None if forced > self.max_time => {
                    self.end_time = self.max_time;
                    return;
                }
                None => {
                    self.queue.advance_to(forced);
                    forced
                }
            };
            self.end_time = now;
            if let Some(env) = self.env.as_mut() {
                let effects = env.poll(now);
                if !effects.is_empty() && self.apply_effects(p, now, effects) {
                    return;
                }
            }
            p.on_step(self, now);
            let done = match popped {
                None if self.cross <= tick => {
                    let scope = self.cross_scope;
                    self.window_crossings += 1;
                    self.tracer.emit(now, TraceKind::WindowCrossing { scope });
                    p.on_crossing(self, now, scope);
                    false
                }
                None => {
                    self.tick(p, now, pool);
                    false
                }
                Some((_, Event::Op { v, peers, epoch })) => self.op_done(p, now, v, peers, epoch),
                Some((_, Event::Signal(signal))) => {
                    p.on_signal(self, now, signal);
                    false
                }
            };
            if done {
                return;
            }
        }
    }

    /// Fires the next tick of `pool`: picks the ticking node, sends its
    /// 0-signal on the per-signal path, and opens its interaction unless
    /// it is locked or crashed.
    #[inline]
    fn tick<P: Handlers<M, Signal = S>>(&mut self, p: &mut P, now: f64, pool: usize) {
        self.ticks += 1;
        let (v, scale) = if self.thinned {
            // Only unlocked-node ticks are simulated, so this one opens an
            // interaction with certainty; env is `None` on this path.
            self.accrue_exposure(now);
            let j = self.rng.gen_range(0..self.unlocked.len());
            let v = self.lock_node(j);
            self.redraw_tick(now);
            (v, 1.0)
        } else {
            // The pool's next tick is redrawn *first*, preserving the RNG
            // draw order of the queued-tick implementation this replaced.
            let pl = &mut self.pools[pool];
            pl.next = pl.clock.next_tick(now, &mut self.rng);
            let slot = pl.lo + self.rng.gen_range(0..pl.size);
            let v = self.slot_ids.as_ref().map_or(slot as u32, |ids| ids[slot]);
            // A crashed node's tick is inert (Poisson thinning).
            if self.env.as_ref().is_some_and(|e| e.is_crashed(v)) {
                return;
            }
            if self.flows.is_none() {
                p.send_zero(self, now, v);
            }
            if self.locked[v as usize] {
                return;
            }
            self.locked[v as usize] = true;
            (v, self.env.as_ref().map_or(1.0, |e| e.latency_scale()))
        };
        self.interactions += 1;
        let mut peers = [0u32; M];
        for peer in &mut peers {
            *peer = self.sampler.sample(v, &mut self.rng);
        }
        let phase = self.waiting.sample_channel_phase(&mut self.rng) * scale;
        let epoch = self.op_epoch[v as usize];
        self.queue
            .schedule(now + phase, Event::Op { v, peers, epoch });
    }

    /// A channel completion: void if the initiator's slot was re-filled
    /// meanwhile; aborted if anyone on the line is crashed or a channel
    /// falls inside a loss burst; otherwise handed to the protocol.
    #[inline]
    fn op_done<P: Handlers<M, Signal = S>>(
        &mut self,
        p: &mut P,
        now: f64,
        v: u32,
        peers: [u32; M],
        epoch: u32,
    ) -> bool {
        let vi = v as usize;
        if epoch != self.op_epoch[vi] {
            // The fresh node in the slot must not inherit the interaction
            // (its lock was already released at join time).
            return false;
        }
        if let Some(env) = self.env.as_mut() {
            if env.is_crashed(v)
                || peers.iter().any(|&s| env.is_crashed(s))
                || (0..M).any(|_| env.message_lost())
            {
                self.locked[vi] = false;
                return false;
            }
        }
        p.on_op(self, now, v, peers)
    }

    /// Applies the scenario effects due at `now`. Returns true if the
    /// population became monochromatic.
    fn apply_effects<P: Handlers<M, Signal = S>>(
        &mut self,
        p: &mut P,
        now: f64,
        effects: Vec<Effect>,
    ) -> bool {
        // Taken out and restored so effects can borrow the kernel mutably.
        let mut env = self.env.take().expect("effects come from an environment");
        let mut mono = false;
        for effect in effects {
            let (name, count) = match effect {
                Effect::Joined(joins) => {
                    for &(v, c) in &joins {
                        // A fresh node in a reused slot: the epoch bump voids
                        // the replaced node's in-flight interaction and the
                        // slot unlocks, so the fresh node starts unentangled.
                        let vi = v as usize;
                        p.on_join(vi);
                        self.op_epoch[vi] = self.op_epoch[vi].wrapping_add(1);
                        self.locked[vi] = false;
                        mono |= self.effect_move::<P>(now, vi, 0, c);
                    }
                    ("joined", joins.len())
                }
                Effect::Corrupt { budget, mode } => {
                    let k = self.table.k() as u32;
                    let targets = env.corruption_targets(budget, mode, &self.cols, k);
                    for &(v, c) in &targets {
                        mono |= self.effect_move::<P>(now, v as usize, self.gens[v as usize], c);
                    }
                    ("corrupt", targets.len())
                }
                Effect::Rewired(s) => {
                    self.sampler = s;
                    ("rewired", 1)
                }
                _ => continue,
            };
            let count = count as u64;
            self.tracer
                .emit(now, TraceKind::ScenarioEffect { name, count });
        }
        self.env = Some(env);
        if !P::OBSERVE_EACH_MOVE {
            mono = self.observe(now);
        }
        mono
    }

    /// Moves node `v` for a scenario effect, observing convergence per
    /// move or (for the batch) in [`Kernel::apply_effects`].
    fn effect_move<P: Handlers<M, Signal = S>>(
        &mut self,
        now: f64,
        v: usize,
        gen: u32,
        col: u32,
    ) -> bool {
        if P::OBSERVE_EACH_MOVE {
            return self.adopt(now, v, gen, col);
        }
        if (self.gens[v], self.cols[v]) != (gen, col) {
            self.place(v, gen, col);
        }
        false
    }

    /// Moves node `v` from its current state to `(gen, col)`.
    #[inline]
    fn place(&mut self, v: usize, gen: u32, col: u32) {
        self.table.transfer(self.gens[v], self.cols[v], gen, col);
        self.gens[v] = gen;
        self.cols[v] = col;
    }

    /// Moves node `v` to `(gen, col)`, recording a generation birth and
    /// observing convergence. Returns true if the population became
    /// monochromatic.
    #[inline]
    pub fn adopt(&mut self, now: f64, v: usize, gen: u32, col: u32) -> bool {
        if (self.gens[v], self.cols[v]) == (gen, col) {
            return false;
        }
        let is_birth = gen > self.table.max_generation();
        if is_birth {
            self.tracer.emit(now, TraceKind::Birth { generation: gen });
        }
        let record = is_birth && !matches!(self.record, RecordLevel::Outcome);
        let parent = record.then(|| {
            (
                self.table.bias_in(gen - 1).unwrap_or(f64::INFINITY),
                self.table.collision_in(gen - 1),
            )
        });
        self.place(v, gen, col);
        if let Some((parent_bias, parent_collision)) = parent {
            self.births.push(GenerationBirth {
                generation: gen,
                time: now,
                // Measured when propagation opens (Lemma 22: α at t_i + t′).
                bias: f64::INFINITY,
                parent_bias,
                initial_fraction: self.table.fraction_in(gen),
                parent_collision,
            });
        }
        self.observe(now)
    }

    /// Feeds the current supports to the convergence tracker; returns
    /// whether the population is monochromatic.
    #[inline]
    fn observe(&mut self, now: f64) -> bool {
        self.tracker.observe(
            now,
            self.table.color_support(self.initial_winner),
            self.table.max_color_support(),
        );
        self.table.is_monochromatic()
    }

    /// Emits a protocol phase change to the trace.
    pub fn trace_phase(&mut self, now: f64, name: &'static str, generation: u32, scope: u32) {
        let kind = TraceKind::Phase {
            name,
            generation,
            scope,
        };
        self.tracer.emit(now, kind);
    }

    /// Lemma 22: records generation `g`'s bias unless already measured.
    /// Births are recorded in strictly increasing generation order, so
    /// binary search applies.
    pub fn measure_bias(&mut self, g: u32) {
        if let Ok(i) = self.births.binary_search_by_key(&g, |b| b.generation) {
            if !self.births[i].bias.is_finite() {
                self.births[i].bias = self.table.bias_in(g).unwrap_or(f64::INFINITY);
            }
        }
    }

    /// Sends `signal` towards a leader: lost inside a loss burst,
    /// otherwise queued after one (scaled) travel latency.
    #[inline]
    pub fn send(&mut self, now: f64, signal: S) {
        if self.env.as_mut().is_some_and(|e| e.message_lost()) {
            return;
        }
        let scale = self.env.as_ref().map_or(1.0, |e| e.latency_scale());
        let travel = self.waiting.latency().sample(&mut self.rng) * scale;
        self.queue.schedule(now + travel, Event::Signal(signal));
    }

    /// Unlocks node `v`; under thinning, settles the exposure and redraws
    /// the unlocked-set tick at its new rate.
    #[inline]
    pub fn unlock(&mut self, now: f64, v: usize) {
        self.locked[v] = false;
        if self.thinned {
            self.accrue_exposure(now);
            self.unlocked.push(v as u32);
            self.redraw_tick(now);
        }
    }

    /// Accrues the suppressed locked-node tick intensity up to `now`.
    /// Per-node rate is 1, so the intensity is `locked_count · dt`.
    #[inline]
    fn accrue_exposure(&mut self, now: f64) {
        let locked = self.n - self.unlocked.len();
        self.tick_exposure += locked as f64 * (now - self.exposure_from);
        self.exposure_from = now;
    }

    /// Redraws the next unlocked-set tick after a membership change; by
    /// memorylessness a fresh draw after any rate change is exact.
    #[inline]
    fn redraw_tick(&mut self, now: f64) {
        let u = self.unlocked.len();
        self.pools[0].next = if u == 0 {
            f64::INFINITY
        } else {
            now + unit_exp(&mut self.rng) / u as f64
        };
    }

    /// Locks the node at position `j` of the unlocked list (swap-remove).
    #[inline]
    fn lock_node(&mut self, j: usize) -> u32 {
        let v = self.unlocked.swap_remove(j);
        self.locked[v as usize] = true;
        v
    }

    /// Settles the thinned tick stream with one Poisson draw and reports
    /// the outcome, profile counters and trace.
    pub fn finish(mut self) -> Finished {
        let mut thinned = 0;
        if self.thinned {
            // A monochromatic start leaves the exposure at zero and
            // consumes no RNG.
            self.accrue_exposure(self.end_time);
            if self.tick_exposure > 0.0 {
                thinned = sample_poisson(self.tick_exposure, &mut self.rng);
                self.ticks += thinned;
            }
        }
        // Queue resizes recorded while tracing become trace events; the
        // final sort in `Tracer::finish` interleaves them on the time axis.
        let resizes = self.queue.take_resize_log().into_iter();
        self.tracer.extend(resizes.map(|r| TraceEvent {
            time: r.at,
            kind: TraceKind::QueueResize {
                buckets: r.buckets,
                width: r.width,
            },
        }));
        let q = self.queue.profile();
        Finished {
            outcome: RunOutcome {
                n: self.n as u64,
                k: self.table.k() as u32,
                initial_winner: self.initial_winner,
                initial_bias: self.initial_bias,
                final_counts: self.table.global_counts(),
                epsilon_time: self.tracker.epsilon_time(),
                consensus_time: self.tracker.consensus_time(),
                duration: self.end_time,
                generations: self.births,
            },
            ticks: self.ticks,
            trace: self.tracer.finish(),
            profile: EngineProfile {
                events_popped: q.pops,
                signals_thinned: thinned,
                queue_resizes: q.resizes,
                window_crossings: self.window_crossings,
            },
        }
    }
}
