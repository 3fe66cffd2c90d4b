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
//!   kernel keeps *one* pending tick per rate pool (unit-rate nodes,
//!   stragglers) as a scalar compared against the queue head and
//!   samples the ticking node uniformly inside the pool at fire time,
//!   instead of queueing `n` tick events.
//! * **Absorbed-leader gating** — a leader that can provably never
//!   transition again (a terminal single leader, a non-participating or
//!   terminal cluster) makes signals towards it unobservable; the
//!   protocols stop scheduling them.
//! * **Displaced-Poisson 0-signals** — with exponential travel latency
//!   and no scenario environment, each leader's 0-signal *arrival*
//!   stream is an inhomogeneous Poisson process (coloring + displacement
//!   theorems), and every counting window is a pure count against a
//!   threshold. The kernel jumps straight to each crossing with one
//!   `Gamma(κ, 1)` draw per window ([`crate::signalflow`]) instead of
//!   sending ~`n` signals per time step.
//! * **Exact 0-signal counting** — every other run (any other travel
//!   law, or a scenario environment, whose loss and crashes act per
//!   signal) sends each 0-signal individually: it draws its loss coin
//!   and its latency at send time, and its arrival key `(time, send
//!   order)` goes into its scope's counter ([`crate::arrivals`]). The
//!   counter reports the exact key of the arrival that reaches the armed
//!   window's threshold, which the loop races like a jump chain's
//!   crossing. No 0-signal is ever queued, and a 0-signal arrival is
//!   never a loop step.
//! * **Scenario effects at their times** — the environment's next
//!   timeline time is one more key in the loop's race, and wins exact
//!   time ties against everything else, so each effect applies at
//!   exactly its scripted time and no step polls for it.
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
//! ## Run-long failure model
//!
//! The scenario's `signal-loss` and `stragglers` actions (semantics in
//! `plurality_scenario::Action`) are applied here, for both engines.
//! Loss is one coin at the start of [`Kernel::send`] — drawn on the
//! process stream only when `p > 0`, before the burst-loss check — and,
//! on the jump-chain path, Poisson thinning by [`Kernel::send_rate`].
//! Stragglers are a second rate pool over the slots `0..round(F·n)`,
//! mapped to nodes through a private-stream permutation off the complete
//! graph; they turn tick thinning off but keep the jump chains.
//!
//! ## RNG draw order
//!
//! The kernel exposes building blocks ([`Kernel::new`], [`Kernel::start`],
//! the flow setters, [`Kernel::run`], [`Kernel::adopt`], [`Kernel::send`],
//! [`Kernel::unlock`], [`Kernel::finish`]) that each engine calls in its
//! own historical order, so both keep their byte-identical process RNG
//! stream: the cluster engine draws its election coins before the first
//! tick, and a leader interaction unlocks its initiator after the
//! decision while a cluster interaction unlocks it before.

use crate::arrivals::{Arrival, ArrivalCounter};
use crate::genstate::GenerationTable;
use crate::opinion::InitialAssignment;
use crate::outcome::{ConvergenceTracker, GenerationBirth, RecordLevel, RunOutcome};
use crate::round::{apply_effects, EffectTarget};
use crate::signalflow::SignalFlow;
use crate::sync::{generations_needed, GENERATION_CAP};
use crate::Opinion;
use plurality_dist::rng::{derive_seed, Xoshiro256PlusPlus};
use plurality_dist::{sample_poisson, ChannelPattern, Latency, UnitExp, WaitingTime};
use plurality_obs::{EngineProfile, TraceEvent, TraceKind, Tracer};
use plurality_scenario::{Environment, Scenario};
use plurality_sim::{CalendarQueue, PoissonClock};
use plurality_topology::{PeerSampler, Topology, TOPOLOGY_STREAM};
use rand::Rng;
use std::borrow::Cow;

/// Seed-stream tag for the straggler-identity permutation used on
/// sparse topologies (private, like `TOPOLOGY_STREAM`, so it never
/// perturbs the process stream).
const STRAGGLER_STREAM: u64 = 0x5752_A661;

/// A queued event: the channel completion of an interaction that node
/// `v` opened to `peers`, or a promotion signal in flight to a leader.
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

    /// A tick of node `v` off the jump-chain path: send its 0-signal (via
    /// [`Kernel::send_zero`]) unless the receiving leader is absorbed.
    fn send_zero(&mut self, k: &mut Kernel<Self::Signal, M>, now: f64, v: u32);

    /// The interaction of `v` with `peers` completed; returns true when
    /// the run is finished. Must [`Kernel::unlock`] `v` unless finished.
    fn on_op(&mut self, k: &mut Kernel<Self::Signal, M>, now: f64, v: u32, peers: [u32; M])
        -> bool;

    /// A queued promotion signal arrived at its leader (0-signals are
    /// counted, never queued).
    fn on_signal(&mut self, k: &mut Kernel<Self::Signal, M>, now: f64, signal: Self::Signal);

    /// The armed window of `scope` crossed its threshold: a jump chain's
    /// solved crossing, or the counted arrival that reached it. Must
    /// re-arm or disarm the window through [`Kernel::set_flow`].
    fn on_crossing(&mut self, k: &mut Kernel<Self::Signal, M>, now: f64, scope: u32);

    /// Clears the protocol flags of slot `v`, just re-filled by a join.
    fn on_join(&mut self, v: usize);

    /// Called once per loop step at its time `now`, before the step's
    /// event is handled. A step is a tick, a queued event, a window
    /// crossing or the scenario effects due at one time; a counted
    /// 0-signal arrival is not a step. No state changes between steps, so
    /// the state seen here is the one after every change before `now`.
    fn on_step(&mut self, _k: &Kernel<Self::Signal, M>, _now: f64) {}
}

/// Length of the two-choices window per generation, in time units: the
/// paper's constant 2 in `C3 = C1(2 + log n/√n)` (Proposition 16).
pub(crate) const TWO_CHOICES_UNITS: f64 = 2.0;

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
    pub generation_cap: Option<u32>,
    pub topology: Topology,
    pub scenario: Scenario,
    pub trace: bool,
}

impl RunParams {
    /// Defaults: `Exp(1)` latency, `ε = 0.05`, seed 0, generation-level
    /// telemetry, the complete graph, no scenario, no trace; the time
    /// cap, `C1` and the generation cap are derived per run.
    pub fn new(assignment: InitialAssignment) -> Self {
        Self {
            assignment,
            latency: Latency::exponential(1.0).expect("rate 1 valid"),
            epsilon: 0.05,
            seed: 0,
            record: RecordLevel::Generations,
            max_time: None,
            steps_per_unit: None,
            generation_cap: None,
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

        /// Overrides the generation cap `⌈log log_α n⌉`.
        pub fn with_generation_cap(mut self, cap: u32) -> Self {
            self.run.generation_cap = Some(cap);
            self
        }
    };
}
pub(crate) use run_param_setters;

/// An async protocol with its kernel, as the shared [`apply_effects`]
/// target; `.2` records whether a move saw a monochromatic population.
struct KernelEffects<'a, P, S, const M: usize>(&'a mut Kernel<S, M>, &'a mut P, bool);

impl<P: Handlers<M, Signal = S>, S: Copy, const M: usize> EffectTarget
    for KernelEffects<'_, P, S, M>
{
    fn k(&self) -> u32 {
        self.0.table.k() as u32
    }
    fn colors(&self) -> Cow<'_, [u32]> {
        Cow::Borrowed(&self.0.cols)
    }
    /// A fresh node in a reused slot: the epoch bump voids the replaced
    /// node's in-flight interaction and the slot unlocks, so the fresh
    /// node starts unentangled.
    fn join(&mut self, now: f64, v: usize, c: u32) {
        self.1.on_join(v);
        self.0.op_epoch[v] = self.0.op_epoch[v].wrapping_add(1);
        self.0.locked[v] = false;
        self.2 |= self.0.effect_move::<P>(now, v, 0, c);
    }
    fn recolor(&mut self, now: f64, v: usize, c: u32) {
        self.2 |= self.0.effect_move::<P>(now, v, self.0.gens[v], c);
    }
    fn rewire(&mut self, sampler: PeerSampler) {
        self.0.sampler = sampler;
    }
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.0.tracer
    }
}

/// One superposed tick chain over the pool slots `lo..lo + size`.
struct Pool {
    clock: PoissonClock,
    lo: usize,
    size: usize,
    next: f64,
}

/// How 0-signal arrivals reach the leaders' counting windows.
enum Zeros {
    /// Per-scope displaced-Poisson jump chains: no 0-signal is sent.
    Chains(Vec<SignalFlow>),
    /// Per-scope exact arrival counters: 0-signals are sent but not
    /// queued.
    Counted(Vec<ArrivalCounter>),
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
    /// The ziggurat tables of the thinned tick redraws, fetched once.
    unit_exp: UnitExp,
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
    slot_ids: Option<Vec<u32>>,
    /// Per-node tick rates; empty when every node ticks at rate 1.
    node_rates: Vec<f64>,
    /// The run-long `signal-loss` probability.
    signal_loss: f64,
    /// Where 0-signal arrivals go.
    zeros: Zeros,
    /// The earliest pending window crossing over all scopes, and its
    /// scope. A jump chain's crossing has `seq = u64::MAX`: queued events
    /// win exact time ties against it.
    cross: Arrival,
    cross_scope: u32,
    /// The loop's position: every key below it has happened.
    at: Arrival,
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
    pub end_time: f64,
}

impl<S: Copy, const M: usize> Kernel<S, M> {
    /// Materializes the population and builds topology, scenario
    /// environment, rate pools, generation table, `C1`, generation cap,
    /// tracker, tracer and queue. Draws nothing from the process stream
    /// beyond `materialize`; `max_time` is left for the engine to set.
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
        let alpha = if initial_bias.is_finite() {
            initial_bias.max(1.0)
        } else {
            2.0
        };
        let cap = s
            .generation_cap
            .unwrap_or_else(|| generations_needed(n as u64, alpha, GENERATION_CAP));

        let mut tracker = ConvergenceTracker::new(n as u64, initial_winner, s.epsilon);
        tracker.observe(
            0.0,
            table.color_support(initial_winner),
            table.max_color_support(),
        );
        let mut queue = CalendarQueue::new();
        queue.set_trace(s.trace);

        // Slots `0..slow` tick at the straggler rate, the rest at rate 1
        // (earlier pools win exact tick-time ties).
        let (fraction, slow_rate) = s.scenario.stragglers().unwrap_or((0.0, 1.0));
        let slow = (fraction * n as f64).round() as usize;
        let pools = [(1.0, slow..n), (slow_rate, 0..slow)]
            .into_iter()
            .filter(|(_, slots)| !slots.is_empty())
            .map(|(rate, slots)| Pool {
                clock: PoissonClock::new(slots.len() as f64 * rate).expect("positive pool rate"),
                lo: slots.start,
                size: slots.len(),
                next: f64::INFINITY,
            })
            .collect();
        // Off the complete graph node ids carry structure (hubs at low
        // ids, geometric ring/torus ids): permute so stragglers stay a
        // uniform subset.
        let slot_ids = (slow > 0 && !sampler.is_complete()).then(|| {
            let mut srng = Xoshiro256PlusPlus::from_u64(derive_seed(s.seed, STRAGGLER_STREAM));
            let mut ids: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                ids.swap(i, srng.gen_range(0..=i));
            }
            ids
        });
        let mut node_rates = vec![1.0; if slow > 0 { n } else { 0 }];
        for slot in 0..slow {
            node_rates[slot_ids.as_ref().map_or(slot, |ids| ids[slot] as usize)] = slow_rate;
        }
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
            unit_exp: UnitExp::fetch(),
            c1,
            cap,
            max_time: f64::INFINITY,
            record: s.record,
            tracker,
            tracer: Tracer::new(s.trace),
            births: Vec::new(),
            queue,
            pools,
            slot_ids,
            node_rates,
            signal_loss: s.scenario.signal_loss(),
            zeros: Zeros::Counted(Vec::new()),
            cross: Arrival::NEVER,
            cross_scope: u32::MAX,
            at: Arrival { time: 0.0, seq: 0 },
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

    /// Starts the run's clocks: draws each pool's first tick, in pool
    /// order, and picks where 0-signals go, one scope per entry of
    /// `rates` (send rates at time 0, no window armed). Exponential
    /// travel with no scenario environment gets jump chains, plus tick
    /// thinning when every node ticks at rate 1 (only unlocked nodes'
    /// ticks are then simulated); every other run gets exact arrival
    /// counters.
    pub fn start(&mut self, rates: &[f64]) {
        for pool in &mut self.pools {
            pool.next = pool.clock.next_tick(0.0, &mut self.rng);
        }
        match self.waiting.latency() {
            Latency::Exponential { rate } if self.env.is_none() => {
                let mut flows = vec![SignalFlow::new(rate); rates.len()];
                for (flow, &r) in flows.iter_mut().zip(rates) {
                    flow.set_rate(0.0, r);
                }
                self.zeros = Zeros::Chains(flows);
                if self.node_rates.is_empty() {
                    self.thinned = true;
                    self.unlocked = (0..self.n as u32).collect();
                }
            }
            _ => self.zeros = Zeros::Counted(vec![ArrivalCounter::default(); rates.len()]),
        }
    }

    /// The tick rate of node `v`.
    pub fn tick_rate(&self, v: usize) -> f64 {
        self.node_rates.get(v).copied().unwrap_or(1.0)
    }

    /// The summed tick rate of the whole population.
    pub fn tick_mass(&self) -> f64 {
        self.pools.iter().map(|p| p.clock.rate()).sum()
    }

    /// The rate at which nodes whose tick rates sum to `mass` send
    /// signals that survive the run-long loss: `mass · (1 − p)`.
    pub fn send_rate(&self, mass: f64) -> f64 {
        mass * (1.0 - self.signal_loss)
    }

    /// Sets `scope`'s send rate and arms a fresh window of `window`
    /// arrivals after the loop's position — or disarms it for `None`.
    /// Exact whenever the window just crossed or the counters were reset
    /// (see `signalflow`); an arrival counter ignores the rate.
    pub fn set_flow(&mut self, now: f64, scope: u32, rate: f64, window: Option<u64>) {
        let s = scope as usize;
        match (&mut self.zeros, window) {
            (Zeros::Chains(flows), Some(kappa)) => {
                debug_assert!(kappa > 0, "crossings are handled before re-arming");
                flows[s].set_rate(now, rate);
                flows[s].arm(now, kappa, &mut self.rng);
            }
            (Zeros::Chains(flows), None) => {
                flows[s].set_rate(now, rate);
                flows[s].disarm(now);
            }
            (Zeros::Counted(counters), Some(kappa)) => counters[s].arm(self.at, kappa),
            (Zeros::Counted(counters), None) => counters[s].disarm(),
        }
        self.rescan();
    }

    /// Changes `scope`'s send rate mid-window, keeping accrued progress
    /// (jump chains only: a counter's window does not depend on it).
    pub fn set_flow_rate(&mut self, now: f64, scope: u32, rate: f64) {
        if let Zeros::Chains(flows) = &mut self.zeros {
            flows[scope as usize].set_rate(now, rate);
            self.rescan();
        }
    }

    /// Recomputes the earliest crossing over all scopes (jump-chain time
    /// ties break towards the lowest scope, deterministically).
    fn rescan(&mut self) {
        let mut cross = (Arrival::NEVER, u32::MAX);
        let mut consider = |i: usize, c: Arrival| {
            if c < cross.0 {
                cross = (c, i as u32);
            }
        };
        match &self.zeros {
            Zeros::Chains(flows) => {
                for (i, f) in flows.iter().enumerate() {
                    consider(
                        i,
                        Arrival {
                            time: f.pred(),
                            seq: u64::MAX,
                        },
                    );
                }
            }
            Zeros::Counted(counters) => {
                for (i, c) in counters.iter().enumerate() {
                    if let Some(c) = c.crossing() {
                        consider(i, c);
                    }
                }
            }
        }
        (self.cross, self.cross_scope) = cross;
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
            // The next window crossing competes with the tick chains and
            // wins exact time ties against them. Queued events win exact
            // time ties against ticks and jump-chain crossings (a
            // probability-zero event: tick times stay continuous) and
            // meet a counted crossing in send order. The next scenario
            // effect wins exact time ties against all of them.
            let effect_at = self
                .env
                .as_ref()
                .map_or(f64::INFINITY, Environment::next_time);
            let effect = effect_at <= self.cross.time.min(tick);
            let crossing = !effect && self.cross.time <= tick;
            let forced = if effect {
                Arrival {
                    time: effect_at,
                    seq: 0,
                }
            } else if crossing {
                self.cross
            } else {
                Arrival {
                    time: tick,
                    seq: u64::MAX,
                }
            };
            let popped = if forced.time > self.max_time {
                self.queue.pop_below(self.max_time, u64::MAX)
            } else {
                self.queue.pop_below(forced.time, forced.seq)
            };
            let now = match popped {
                Some((t, seq, _)) => {
                    self.at = Arrival {
                        time: t,
                        seq: seq + 1,
                    };
                    t
                }
                None if forced.time > self.max_time => {
                    self.end_time = self.max_time;
                    return;
                }
                None => {
                    self.queue.advance_to(forced.time);
                    // Effects (`seq = 0`) precede everything queued at
                    // their time; a counted crossing follows its own
                    // arrival; a tick or jump-chain crossing (`seq =
                    // u64::MAX`) follows everything queued so far.
                    let after = u64::from(!effect);
                    self.at = Arrival {
                        time: forced.time,
                        seq: forced.seq.saturating_add(after).min(self.queue.next_seq()),
                    };
                    forced.time
                }
            };
            self.end_time = now;
            p.on_step(self, now);
            let done = match popped {
                None if effect => self.apply_effects(p, now),
                None if crossing => {
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
                Some((_, _, Event::Op { v, peers, epoch })) => {
                    self.op_done(p, now, v, peers, epoch)
                }
                Some((_, _, Event::Signal(signal))) => {
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
            if !matches!(self.zeros, Zeros::Chains(_)) {
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

    /// Applies the scenario effects due at `now`, the environment's next
    /// timeline time, through the shared [`apply_effects`]. Returns true
    /// if the population became monochromatic.
    fn apply_effects<P: Handlers<M, Signal = S>>(&mut self, p: &mut P, now: f64) -> bool {
        // Taken out and restored so effects can borrow the kernel mutably.
        let mut env = self.env.take().expect("effects come from an environment");
        let effects = env.poll(now);
        let mut target = KernelEffects(&mut *self, p, false);
        apply_effects(&mut env, now, effects, &mut target);
        let mut mono = target.2;
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

    /// Sends `signal` towards a leader: lost to the run-long signal loss
    /// or inside a loss burst, otherwise queued after one (scaled) travel
    /// latency.
    #[inline]
    pub fn send(&mut self, now: f64, signal: S) {
        if let Some(arrival) = self.travel(now) {
            self.queue.schedule(arrival, Event::Signal(signal));
        }
    }

    /// Sends a 0-signal towards the leader of `scope`, with the draws of
    /// [`Kernel::send`]; the scope's arrival counter takes it in place of
    /// the queue, under the sequence number it would have had there.
    #[inline]
    pub fn send_zero(&mut self, now: f64, scope: u32) {
        let Some(time) = self.travel(now) else {
            return;
        };
        let Zeros::Counted(counters) = &mut self.zeros else {
            unreachable!("jump chains send no 0-signal");
        };
        let arrival = Arrival {
            time,
            seq: self.queue.take_seq(),
        };
        if let Some(c) = counters[scope as usize].push(arrival, self.at) {
            // The scope's crossing only ever moves earlier.
            if scope == self.cross_scope || c < self.cross {
                (self.cross, self.cross_scope) = (c, scope);
            }
        }
    }

    /// The arrival time of a signal sent at `now`, or `None` if it is
    /// lost: one coin for the run-long loss (drawn only when `p > 0`),
    /// the loss-burst check, then one (scaled) travel latency.
    #[inline]
    fn travel(&mut self, now: f64) -> Option<f64> {
        if self.signal_loss > 0.0 && self.rng.gen::<f64>() < self.signal_loss {
            return None;
        }
        if self.env.as_mut().is_some_and(|e| e.message_lost()) {
            return None;
        }
        let scale = self.env.as_ref().map_or(1.0, |e| e.latency_scale());
        Some(now + self.waiting.latency().sample(&mut self.rng) * scale)
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
            now + self.unit_exp.sample(&mut self.rng) / u as f64
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

#[cfg(test)]
mod tests {
    use crate::cluster::ClusterConfig;
    use crate::leader::LeaderConfig;
    use crate::InitialAssignment;
    use plurality_dist::Latency;
    use plurality_obs::{TraceEvent, TraceKind};
    use plurality_scenario::Scenario;

    /// The time and name of every traced scenario effect.
    fn effects(trace: Option<Vec<TraceEvent>>) -> Vec<(f64, &'static str)> {
        let trace = trace.expect("traced run");
        trace
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::ScenarioEffect { name, .. } => Some((e.time, name)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn scenario_effects_apply_at_their_scripted_times() {
        let scenario = Scenario::parse(
            "corrupt:0.1:adaptive@3.25;crash:0.2@4.5;rewire:er:0.05@5.125;join:1@6.75",
        )
        .unwrap();
        let expected = [(3.25, "corrupt"), (5.125, "rewired"), (6.75, "joined")];
        for latency in [Latency::exponential(1.0), Latency::erlang(3, 3.0)] {
            let latency = latency.unwrap();
            let assignment = InitialAssignment::with_bias(600, 2, 3.0).unwrap();
            let leader = LeaderConfig::new(assignment.clone())
                .with_seed(1)
                .with_steps_per_unit(9.3)
                .with_latency(latency)
                .with_scenario(scenario.clone())
                .with_trace(true)
                .run();
            assert_eq!(effects(leader.trace), expected, "leader, {latency:?}");
            let cluster = ClusterConfig::new(assignment)
                .with_seed(1)
                .with_steps_per_unit(12.0)
                .with_latency(latency)
                .with_scenario(scenario.clone())
                .with_trace(true)
                .run();
            assert_eq!(effects(cluster.trace), expected, "cluster, {latency:?}");
        }
    }
}
