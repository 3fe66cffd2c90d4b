//! Event-driven execution of the decentralized multi-leader protocol
//! (Section 4): clustering, constant-time broadcast among cluster leaders,
//! and the clustered consensus phase of Algorithms 4 + 5.
//!
//! The run has two parts sharing one event loop:
//!
//! 1. **Clustering** (Section 4.1): every node is a leader with a small
//!    probability; followers join the cluster of the first sampled node
//!    whose leader is accepting. A cluster that reaches the participation
//!    size pauses for a counted interval, accepts more followers for
//!    another counted interval, and then switches to consensus mode —
//!    broadcasting the switch to all other leaders.
//! 2. **Consensus** (Section 4.4): nodes execute Algorithm 4 against the
//!    cluster leaders' `(generation, phase)` lattice; leaders count member
//!    signals per Algorithm 5 and synchronize by adopting the
//!    lexicographic maximum whenever two leaders are contacted in the same
//!    interaction (the Section 4.2 broadcast).
//!
//! Scale substitution (see DESIGN.md): the paper's `log^{c−1} n` cluster
//! size with "sufficiently large c" exceeds `n` for any feasible `n`, so the
//! participation size is an explicit parameter defaulting to
//! `max(8, ⌈log₂(n)^1.5⌉)`.
//!
//! Hot-path structure: see `crate::kernel`, which runs these handlers.

use crate::cluster::leader::{
    ClusterLeaderParams, ClusterLeaderState, ClusterPhase, ClusterTransition,
};
use crate::cluster::node::{
    decide_member, finished_exchange, FinishedExchange, MemberDecision, MemberSample, MemberView,
};
use crate::kernel::{run_param_setters, Handlers, Kernel, RunParams, TWO_CHOICES_UNITS};
use crate::opinion::InitialAssignment;
use crate::outcome::{RecordLevel, RunOutcome};
use crate::round::RunAxes;
use plurality_dist::ChannelPattern;
use plurality_obs::{EngineProfile, TraceEvent};
use plurality_sim::EventLog;
use rand::Rng;
#[cfg(test)] // named by the tests through `use super::*`
use {plurality_scenario::Scenario, plurality_topology::Topology};

/// The fewest nodes a multi-leader run accepts.
pub const MIN_NODES: usize = 8;

/// Sentinel for "not in any cluster".
const UNCLUSTERED: u32 = u32::MAX;

/// The counting pause after a cluster fills, in time units.
const PAUSE_UNITS: f64 = 1.0;
/// The post-pause accepting window, in time units: long enough for
/// near-total coverage (the paper's windows scale with `log log n`).
const ACCEPT_UNITS: f64 = 8.0;
/// The sleeping window per generation, in time units.
const SLEEP_UNITS: f64 = 2.0;

/// Configuration for a multi-leader run. Construct with
/// [`ClusterConfig::new`] and chain the `with_*` setters — or run
/// through the unified facade (`plurality-api`'s `ClusterEngine`, spec
/// name `"cluster"`), which consumes the byte-identical RNG stream.
///
/// **Topology** constrains the *peer-sampling* step: the three channels
/// a ticking node opens go to uniform neighbors on the graph, which also
/// constrains which clusters a node can discover and join. Member
/// signals towards the own cluster leader model the intra-cluster
/// control channel and stay direct.
///
/// **Scenario** event times are in time *steps*. Crashed nodes tick
/// inertly and abort interactions that sample them; joined slots come
/// back fresh (generation 0, random opinion, `finished` cleared) but keep
/// their cluster membership, so cluster size counters stay consistent;
/// `burst-loss` drops member signals and peer channels; `latency:`
/// shifts scale every drawn latency; `rewire:` swaps the peer sampler.
/// Cluster-leader counter state is engine-side bookkeeping, not a node,
/// and is unaffected by crashes. The run-long `signal-loss` and
/// `stragglers` actions hold from the start (see
/// [`Action`](plurality_scenario::Action)).
///
/// # Examples
///
/// ```
/// use plurality_core::cluster::ClusterConfig;
/// use plurality_core::InitialAssignment;
///
/// let assignment = InitialAssignment::with_bias(1_200, 2, 3.0).unwrap();
/// let result = ClusterConfig::new(assignment)
///     .with_seed(1)
///     .with_steps_per_unit(12.0)
///     .run();
/// assert!(result.cluster_count > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    run: RunParams,
    participation_size: Option<u64>,
    leader_probability: Option<f64>,
}

impl From<RunAxes> for ClusterConfig {
    /// A configuration on `axes`, with the defaults of [`ClusterConfig::new`].
    fn from(axes: RunAxes) -> Self {
        Self {
            run: RunParams::new(axes),
            participation_size: None,
            leader_probability: None,
        }
    }
}

impl ClusterConfig {
    /// Creates a configuration with defaults: exponential latency rate 1,
    /// `ε = 0.05`, seed 0. The pause (1 unit), accept (8 units),
    /// two-choices (2 units) and sleep (2 units) windows are fixed.
    pub fn new(assignment: InitialAssignment) -> Self {
        Self::from(RunAxes::from(assignment))
    }

    crate::run_axes_setters!(run.axes, epsilon);
    run_param_setters!();

    /// Sets the participation size — the paper's `log^{c−1} n` (default
    /// `max(8, ⌈log₂(n)^1.5⌉)`).
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn with_participation_size(mut self, size: u64) -> Self {
        assert!(size > 0, "participation_size must be positive");
        self.participation_size = Some(size);
        self
    }

    /// Sets the probability of a node declaring itself a leader (default
    /// `1/(4·participation_size)`).
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ (0, 1]`.
    pub fn with_leader_probability(mut self, p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "leader_probability must lie in (0, 1]");
        self.leader_probability = Some(p);
        self
    }

    /// Runs the protocol.
    ///
    /// # Panics
    ///
    /// Panics if the assignment materializes fewer than [`MIN_NODES`]
    /// nodes, or if
    /// the configured topology cannot be built for that population size
    /// (see [`Topology::build`](plurality_topology::Topology::build)).
    pub fn run(&self) -> ClusterResult {
        run_cluster(self)
    }
}

/// One entry of the per-cluster phase log (Figure 2's raw data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseLogEntry {
    /// Cluster id.
    pub cluster: u32,
    /// Generation whose phase changed.
    pub generation: u32,
    /// The phase entered.
    pub phase: ClusterPhase,
    /// Whether the change came from the cluster's own counters (`false` if
    /// adopted from a peer via broadcast/relay).
    pub organic: bool,
}

/// Result of a multi-leader run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResult {
    /// Common outcome report.
    pub outcome: RunOutcome,
    /// The time-unit length `C1` (steps) used for all thresholds.
    pub steps_per_unit: f64,
    /// Number of clusters created (leaders that attracted any state).
    pub cluster_count: usize,
    /// Clusters that reached the participation size and switched to
    /// consensus mode.
    pub participating_clusters: usize,
    /// Fraction of nodes inside participating clusters at their switch.
    pub participating_fraction: f64,
    /// Fraction of nodes in any cluster at the end of the run.
    pub clustered_fraction: f64,
    /// When the first participating cluster switched to consensus mode
    /// (the paper's `t_f`, Theorem 27).
    pub first_switch_time: Option<f64>,
    /// When the last participating cluster switched (`t_l`); Theorem 27
    /// claims `t_l − t_f = O(1)`.
    pub last_switch_time: Option<f64>,
    /// Per-cluster phase-change log (Figure 2).
    pub phase_log: EventLog<PhaseLogEntry>,
    /// Total clock ticks processed.
    pub ticks: u64,
    /// Fraction of nodes with the `finished` flag at the end.
    pub finished_fraction: f64,
    /// Structured trace events, sorted by time (only when
    /// [`ClusterConfig::with_trace`] was enabled).
    pub trace: Option<Vec<TraceEvent>>,
    /// Deterministic profiling counters (always collected; pure
    /// arithmetic, no RNG).
    pub profile: EngineProfile,
}

/// Per-generation spread between the first and last cluster entering
/// `phase` in a [`ClusterResult::phase_log`] — the de-synchronization
/// Figure 2 visualizes and Proposition 31 bounds by `O(1)` time units.
///
/// Returns `(generation, first_time, last_time)` tuples, ascending by
/// generation, for generations in which at least one cluster entered
/// `phase`.
pub fn phase_spread(log: &EventLog<PhaseLogEntry>, phase: ClusterPhase) -> Vec<(u32, f64, f64)> {
    let mut per_gen: Vec<(u32, f64, f64)> = Vec::new();
    for &(time, entry) in log.entries() {
        if entry.phase != phase {
            continue;
        }
        match per_gen.iter_mut().find(|(g, _, _)| *g == entry.generation) {
            Some((_, first, last)) => {
                if time < *first {
                    *first = time;
                }
                if time > *last {
                    *last = time;
                }
            }
            None => per_gen.push((entry.generation, time, time)),
        }
    }
    per_gen.sort_by_key(|&(g, _, _)| g);
    per_gen
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClusterMode {
    /// Accepting members up to the participation size.
    Filling,
    /// Full; counting member ticks, rejecting joins.
    Pausing,
    /// Counting member ticks while accepting more members.
    Accepting,
    /// Running Algorithm 5.
    Consensus,
    /// Too small when the consensus switch arrived; inert.
    NonParticipating,
}

#[derive(Debug, Clone)]
struct Cluster {
    size: u64,
    /// The members' summed tick rate.
    mass: f64,
    mode: ClusterMode,
    /// The 0-signal count that closes the Pausing/Accepting window.
    window_threshold: u64,
    state: Option<ClusterLeaderState>,
}

impl Cluster {
    /// A fresh leader's cluster: just the leader, ticking at `rate`.
    fn new(rate: f64) -> Self {
        Self {
            size: 1,
            mass: rate,
            mode: ClusterMode::Filling,
            window_threshold: 0,
            state: None,
        }
    }
}

/// A member's promotion signal in flight to its cluster leader (member
/// 0-signals are counted, never queued).
#[derive(Debug, Clone, Copy)]
struct Promoted {
    cluster: u32,
    gen: u32,
}

type K = Kernel<Promoted, 3>;

/// The multi-leader protocol state the kernel calls back into.
struct Engine<'cfg> {
    cfg: &'cfg ClusterConfig,
    participation_size: u64,
    finished: Vec<bool>,
    stored_gen: Vec<u32>,
    stored_phase: Vec<u8>,
    cluster_of: Vec<u32>,
    clusters: Vec<Cluster>,
    phase_log: EventLog<PhaseLogEntry>,
    first_switch: Option<f64>,
    last_switch: Option<f64>,
}

/// Trace label for a cluster phase (the consensus lattice's axis).
fn phase_name(phase: ClusterPhase) -> &'static str {
    match phase {
        ClusterPhase::TwoChoices => "two-choices",
        ClusterPhase::Sleeping => "sleeping",
        ClusterPhase::Propagation => "propagation",
    }
}

fn run_cluster(cfg: &ClusterConfig) -> ClusterResult {
    let mut k: K = Kernel::new(
        &cfg.run,
        ChannelPattern::MultiLeader,
        "multi-leader",
        MIN_NODES,
    );
    let (n, c1, cap) = (k.n, k.c1, k.cap);
    let participation_size = cfg
        .participation_size
        .unwrap_or_else(|| ((n as f64).log2().powf(1.5).ceil() as u64).max(8))
        .min(n as u64 / 2);
    let p_lead = cfg
        .leader_probability
        .unwrap_or_else(|| (1.0 / (4.0 * participation_size as f64)).min(1.0));

    // Leader election: every node flips a coin; force at least two leaders.
    let mut cluster_of = vec![UNCLUSTERED; n];
    let mut clusters: Vec<Cluster> = Vec::new();
    for (v, slot) in cluster_of.iter_mut().enumerate() {
        if k.rng.gen::<f64>() < p_lead {
            *slot = clusters.len() as u32;
            clusters.push(Cluster::new(k.tick_rate(v)));
        }
    }
    while clusters.len() < 2 {
        let v = k.rng.gen_range(0..n);
        if cluster_of[v] == UNCLUSTERED {
            cluster_of[v] = clusters.len() as u32;
            clusters.push(Cluster::new(k.tick_rate(v)));
        }
    }

    k.max_time = cfg.run.max_time.unwrap_or_else(|| {
        let nf = n as f64;
        let colors = f64::from(cfg.run.axes.assignment.k());
        let clustering = c1 * (PAUSE_UNITS + ACCEPT_UNITS + 8.0);
        let per_gen = 2.0 * (colors + 2.0).log2() + TWO_CHOICES_UNITS + SLEEP_UNITS + 12.0;
        let derived = clustering + c1 * (cap as f64 + 2.0) * per_gen + 12.0 * nf.ln() + 200.0;
        // Scripted events must actually fire: stretch the default cap
        // past the scenario horizon plus a recovery tail.
        derived.max(cfg.run.axes.scenario.horizon() + 12.0 * nf.ln() + 200.0)
    });

    // The per-cluster jump chains start disarmed — every cluster starts
    // `Filling`, whose arrivals are unobservable — charging intensity
    // from each cluster's initial (leader-only) membership.
    let rates: Vec<f64> = clusters.iter().map(|c| k.send_rate(c.mass)).collect();
    k.start(&rates);

    let mut engine = Engine {
        cfg,
        participation_size,
        finished: vec![false; n],
        stored_gen: vec![0; n],
        stored_phase: vec![0; n],
        cluster_of,
        clusters,
        phase_log: EventLog::new(),
        first_switch: None,
        last_switch: None,
    };
    k.run(&mut engine);
    let done = k.finish();

    let participating: Vec<&Cluster> = engine
        .clusters
        .iter()
        .filter(|c| c.mode == ClusterMode::Consensus)
        .collect();
    let participating_nodes: u64 = participating.iter().map(|c| c.size).sum();
    let clustered_nodes = engine
        .cluster_of
        .iter()
        .filter(|&&c| c != UNCLUSTERED)
        .count();
    let finished_count = engine.finished.iter().filter(|&&f| f).count();
    ClusterResult {
        outcome: done.outcome,
        steps_per_unit: c1,
        cluster_count: engine.clusters.len(),
        participating_clusters: participating.len(),
        participating_fraction: participating_nodes as f64 / n as f64,
        clustered_fraction: clustered_nodes as f64 / n as f64,
        first_switch_time: engine.first_switch,
        last_switch_time: engine.last_switch,
        phase_log: engine.phase_log,
        ticks: done.ticks,
        finished_fraction: finished_count as f64 / n as f64,
        trace: done.trace,
        profile: done.profile,
    }
}

impl Handlers<3> for Engine<'_> {
    type Signal = Promoted;
    const OBSERVE_EACH_MOVE: bool = true;

    fn send_zero(&mut self, k: &mut K, now: f64, v: u32) {
        // Line 1 of Algorithm 4: the 0-signal to the own leader, subject
        // to one travel latency. Also drives the clustering counters.
        let c = self.cluster_of[v as usize];
        if c != UNCLUSTERED && !self.cluster_absorbed(c) {
            k.send_zero(now, c);
        }
    }

    fn on_op(&mut self, k: &mut K, now: f64, v: u32, [s1, s2, s3]: [u32; 3]) -> bool {
        let vi = v as usize;
        k.unlock(now, vi);

        // Lines 5–7 of Algorithm 4: finished-flag exchange (push + pull),
        // resolved by the shared rule in `cluster::node` — the same
        // function the plurality-check model checker drives.
        let line = [s1, s2, s3];
        let line_finished = line.map(|s| self.finished[s as usize]);
        match finished_exchange(self.finished[vi], &line_finished) {
            FinishedExchange::Push => {
                let col = k.cols[vi];
                for s in line {
                    // Live re-check: a repeated sample is flagged once.
                    let si = s as usize;
                    if !self.finished[si] {
                        self.finished[si] = true;
                        if k.adopt(now, si, k.gens[si], col) {
                            return true;
                        }
                    }
                }
                return false;
            }
            FinishedExchange::Pull { from } => {
                self.finished[vi] = true;
                let col = k.cols[line[from] as usize];
                return k.adopt(now, vi, k.gens[vi], col);
            }
            FinishedExchange::None => {}
        }

        // Unclustered nodes attempt to join a sampled node's cluster.
        if self.cluster_of[vi] == UNCLUSTERED {
            for s in line {
                let c = self.cluster_of[s as usize];
                if c == UNCLUSTERED {
                    continue;
                }
                let ci = c as usize;
                match self.clusters[ci].mode {
                    ClusterMode::Filling => {
                        self.join(k, vi, c);
                        if self.clusters[ci].size >= self.participation_size {
                            self.open_window(k, ci, ClusterMode::Pausing, PAUSE_UNITS);
                            // The pause window opens now: arm it afresh.
                            self.rearm_flow(k, now, c);
                        } else {
                            self.flow_set_rate(k, now, c);
                        }
                        break;
                    }
                    ClusterMode::Accepting => {
                        self.join(k, vi, c);
                        // Mid-window membership change: rate only, the
                        // accept window keeps its accrued count.
                        self.flow_set_rate(k, now, c);
                        break;
                    }
                    _ => {}
                }
            }
            return false;
        }

        let own = self.cluster_of[vi];
        let sampled_cluster = self.cluster_of[s3 as usize];

        // Consensus-switch broadcast and leader lattice sync happen whenever
        // two leaders are on the line (own + the sampled node's).
        if sampled_cluster != UNCLUSTERED {
            self.spread_switch(k, now, own, sampled_cluster);
            self.sync_leaders(k, now, own, sampled_cluster);
        }

        if self.clusters[own as usize].mode != ClusterMode::Consensus {
            return false;
        }
        // Line 8: a non-active sampled cluster ends the interaction.
        if sampled_cluster == UNCLUSTERED
            || self.clusters[sampled_cluster as usize].mode != ClusterMode::Consensus
        {
            return false;
        }

        let (l_gen, l_phase) = self.lattice(sampled_cluster);
        // Lines 9–19 are the shared member decision rule in `cluster::node`
        // — the same function the plurality-check model checker drives.
        let view = MemberView {
            gen: k.gens[vi],
            col: k.cols[vi],
            stored_gen: self.stored_gen[vi],
            stored_phase: self.stored_phase[vi],
        };
        let sample = |s: u32| MemberSample {
            gen: k.gens[s as usize],
            col: k.cols[s as usize],
        };
        match decide_member(view, sample(s1), sample(s2), l_gen, l_phase, k.cap) {
            MemberDecision::Promote {
                gen,
                col,
                increased,
                finished,
            } => {
                if k.adopt(now, vi, gen, col) {
                    return true;
                }
                // Lines 12/16: notify the own leader (travel latency);
                // skipped when the leader is provably past reacting.
                if increased && !self.cluster_absorbed(own) {
                    k.send(now, Promoted { cluster: own, gen });
                }
                // Line 20: reaching the final generation finishes the node.
                if finished {
                    self.finished[vi] = true;
                }
            }
            MemberDecision::Refresh { gen, phase } => {
                // Lines 17–19: relay the observed leader state to the own
                // leader (already covered by sync_leaders above) and refresh
                // the stored copy.
                self.stored_gen[vi] = gen;
                self.stored_phase[vi] = phase;
            }
        }
        false
    }

    fn on_signal(&mut self, k: &mut K, now: f64, Promoted { cluster, gen }: Promoted) {
        self.on_member_promoted(k, now, cluster, gen);
    }

    /// Cluster `c`'s armed 0-signal window crossed its threshold: closes
    /// the window at the crossing time (every counter here is a pure
    /// count-to-threshold, so the whole window's arrivals batch in at
    /// once), then re-arms for whatever window the cluster is in
    /// afterwards.
    fn on_crossing(&mut self, k: &mut K, now: f64, c: u32) {
        let gap = self
            .window_gap(c)
            .expect("armed window in a counting phase");
        let ci = c as usize;
        match self.clusters[ci].mode {
            ClusterMode::Pausing => self.open_window(k, ci, ClusterMode::Accepting, ACCEPT_UNITS),
            ClusterMode::Accepting => self.switch_to_consensus(k, now, c),
            _ => {
                let transition = self.clusters[ci]
                    .state
                    .as_mut()
                    .expect("consensus cluster has a state")
                    .on_zero_batch(gap);
                if let Some(t) = transition {
                    self.log_transition(k, now, c, t, true);
                }
            }
        }
        self.rearm_flow(k, now, c);
    }

    fn on_join(&mut self, v: usize) {
        // Fresh node in a reused slot: protocol flags cleared, cluster
        // membership (a slot property) kept so cluster sizes stay
        // consistent.
        self.finished[v] = false;
        self.stored_gen[v] = 0;
        self.stored_phase[v] = 0;
    }
}

impl Engine<'_> {
    /// Whether signals towards cluster `c` can never be observed again:
    /// a non-participating cluster ignores everything forever, and a
    /// consensus leader in its terminal lattice state
    /// ([`ClusterLeaderState::is_terminal`]) cannot transition. Both modes
    /// are absorbing, so skipping the event is exact, not approximate.
    fn cluster_absorbed(&self, c: u32) -> bool {
        let cluster = &self.clusters[c as usize];
        match cluster.mode {
            ClusterMode::NonParticipating => true,
            ClusterMode::Consensus => cluster
                .state
                .as_ref()
                .expect("consensus cluster has a state")
                .is_terminal(),
            _ => false,
        }
    }

    /// The public `(generation, phase)` of consensus cluster `c`'s leader.
    fn lattice(&self, c: u32) -> (u32, ClusterPhase) {
        let s = self.clusters[c as usize]
            .state
            .as_ref()
            .expect("consensus cluster has a state");
        (s.generation(), s.phase())
    }

    fn log_transition(
        &mut self,
        k: &mut K,
        now: f64,
        cluster: u32,
        t: ClusterTransition,
        organic: bool,
    ) {
        let (generation, phase) = match t {
            ClusterTransition::Slept { generation } => (generation, ClusterPhase::Sleeping),
            ClusterTransition::PropagationEnabled { generation } => {
                (generation, ClusterPhase::Propagation)
            }
            ClusterTransition::GenerationAllowed { generation } => {
                (generation, ClusterPhase::TwoChoices)
            }
            ClusterTransition::Synchronized { generation, phase } => (generation, phase),
        };
        if phase == ClusterPhase::Propagation {
            // Lemma 22 analogue: measure the generation's bias when its
            // propagation window first opens anywhere.
            k.measure_bias(generation);
        }
        // A generation can mature without its propagation window opening
        // (small k: two-choices alone reaches the gen-size threshold);
        // measure its bias when the next generation is first allowed.
        if generation >= 2 && phase == ClusterPhase::TwoChoices {
            k.measure_bias(generation - 1);
        }
        self.record_phase(k, now, cluster, generation, phase, organic);
    }

    /// Traces and logs cluster `c` entering `phase` of `generation`.
    fn record_phase(
        &mut self,
        k: &mut K,
        now: f64,
        cluster: u32,
        generation: u32,
        phase: ClusterPhase,
        organic: bool,
    ) {
        k.trace_phase(now, phase_name(phase), generation, cluster);
        if !matches!(self.cfg.run.record, RecordLevel::Outcome) {
            let entry = PhaseLogEntry {
                cluster,
                generation,
                phase,
                organic,
            };
            self.phase_log.record(now, entry);
        }
    }

    /// Puts cluster `ci` into the counting `mode`, whose window closes
    /// after `units` time units' worth of its members' 0-signals.
    fn open_window(&mut self, k: &K, ci: usize, mode: ClusterMode, units: f64) {
        let cluster = &mut self.clusters[ci];
        cluster.mode = mode;
        cluster.window_threshold = (cluster.size as f64 * k.c1 * units).ceil() as u64;
    }

    /// Node `v` joins cluster `c`.
    fn join(&mut self, k: &K, v: usize, c: u32) {
        self.cluster_of[v] = c;
        let cluster = &mut self.clusters[c as usize];
        cluster.size += 1;
        cluster.mass += k.tick_rate(v);
    }

    /// Effective 0-signal send rate of cluster `c` on the jump-chain fast
    /// path: its members' tick rates thinned by the run-long loss, or 0
    /// once absorbed — the per-signal path's gates at send time (no
    /// crashes or loss bursts exist on this path).
    fn flow_rate(&self, k: &K, c: u32) -> f64 {
        if self.cluster_absorbed(c) {
            0.0
        } else {
            k.send_rate(self.clusters[c as usize].mass)
        }
    }

    /// Arrivals left until the counting window cluster `c` sits in
    /// crosses; `None` when no window is open.
    fn window_gap(&self, c: u32) -> Option<u64> {
        let cluster = &self.clusters[c as usize];
        match cluster.mode {
            ClusterMode::Filling | ClusterMode::NonParticipating => None,
            ClusterMode::Pausing | ClusterMode::Accepting => Some(cluster.window_threshold),
            ClusterMode::Consensus => {
                let s = cluster
                    .state
                    .as_ref()
                    .expect("consensus cluster has a state");
                match s.phase() {
                    ClusterPhase::TwoChoices => Some(s.params().sleep_threshold - s.tick_count()),
                    ClusterPhase::Sleeping => Some(s.params().prop_threshold - s.tick_count()),
                    ClusterPhase::Propagation => None,
                }
            }
        }
    }

    /// Refreshes cluster `c`'s jump-chain send rate after a membership or
    /// absorption change, preserving any armed window's accrued progress.
    fn flow_set_rate(&mut self, k: &mut K, now: f64, c: u32) {
        k.set_flow_rate(now, c, self.flow_rate(k, c));
    }

    /// Re-arms cluster `c`'s 0-signal window (a jump chain with a fresh
    /// `Γ` draw, or an arrival counter) for the counting window its
    /// counters currently sit in — exact whenever
    /// the window just crossed or the counters were reset/jumped (see
    /// `signalflow`); must NOT be used for rate-only changes, which
    /// [`Self::flow_set_rate`] handles without discarding progress.
    fn rearm_flow(&mut self, k: &mut K, now: f64, c: u32) {
        k.set_flow(now, c, self.flow_rate(k, c), self.window_gap(c));
    }

    /// Handles a member promotion signal arriving at a cluster leader.
    fn on_member_promoted(&mut self, k: &mut K, now: f64, c: u32, gen: u32) {
        let ci = c as usize;
        if self.clusters[ci].mode != ClusterMode::Consensus {
            return;
        }
        let state = self.clusters[ci]
            .state
            .as_mut()
            .expect("consensus cluster has a state");
        // The signal may predate a leader sync that advanced the leader past
        // `gen`; such signals are stale and ignored by on_promoted anyway.
        if gen <= state.generation() {
            if let Some(t) = state.on_promoted(gen) {
                self.log_transition(k, now, c, t, true);
                // A birth reset the tick counter: arm the new
                // generation's two-choices window.
                self.rearm_flow(k, now, c);
            }
        }
    }

    fn consensus_params(&self, k: &K, card: u64) -> ClusterLeaderParams {
        let nf = k.n as f64;
        let sleep = (card as f64 * k.c1 * TWO_CHOICES_UNITS).ceil() as u64;
        let prop = (card as f64 * k.c1 * (TWO_CHOICES_UNITS + SLEEP_UNITS)).ceil() as u64;
        let gen_size =
            ((card as f64 * (0.5 + 1.0 / nf.log2().sqrt())).ceil() as u64).clamp(1, card);
        ClusterLeaderParams {
            sleep_threshold: sleep.max(1),
            prop_threshold: prop.max(sleep.max(1) + 1),
            gen_size_threshold: gen_size,
            generation_cap: k.cap,
        }
    }

    fn switch_to_consensus(&mut self, k: &mut K, now: f64, c: u32) {
        let ci = c as usize;
        if matches!(
            self.clusters[ci].mode,
            ClusterMode::Consensus | ClusterMode::NonParticipating
        ) {
            return;
        }
        if self.clusters[ci].size < self.participation_size {
            self.clusters[ci].mode = ClusterMode::NonParticipating;
            // Absorbed: members stop sending, nothing counts any more.
            self.rearm_flow(k, now, c);
            return;
        }
        let params = self.consensus_params(k, self.clusters[ci].size);
        self.clusters[ci].state = Some(ClusterLeaderState::new(params));
        self.clusters[ci].mode = ClusterMode::Consensus;
        if self.first_switch.is_none() {
            self.first_switch = Some(now);
        }
        self.last_switch = Some(now);
        // The cluster enters consensus in generation 1's two-choices
        // phase; organic log_transition calls cover later phases.
        self.record_phase(k, now, c, 1, ClusterPhase::TwoChoices, true);
        // The fresh consensus state starts its first two-choices window
        // now; any abandoned pause/accept window progress is discarded
        // with it (the counter reset makes the fresh arm exact).
        self.rearm_flow(k, now, c);
    }

    /// Spreads the consensus switch between two clusters that met in an
    /// interaction (Section 4.2 broadcast of the "switch" message).
    fn spread_switch(&mut self, k: &mut K, now: f64, a: u32, b: u32) {
        if a == b {
            return;
        }
        let a_cons = self.clusters[a as usize].mode == ClusterMode::Consensus;
        let b_cons = self.clusters[b as usize].mode == ClusterMode::Consensus;
        if a_cons && !b_cons {
            self.switch_to_consensus(k, now, b);
        } else if b_cons && !a_cons {
            self.switch_to_consensus(k, now, a);
        }
    }

    /// Merges the `(generation, phase)` lattice states of two consensus
    /// leaders that met in an interaction (Section 4.2 / Algorithm 5
    /// line 1).
    fn sync_leaders(&mut self, k: &mut K, now: f64, a: u32, b: u32) {
        if a == b {
            return;
        }
        let (ai, bi) = (a as usize, b as usize);
        if self.clusters[ai].mode != ClusterMode::Consensus
            || self.clusters[bi].mode != ClusterMode::Consensus
        {
            return;
        }
        let (a_pub, b_pub) = (self.lattice(a), self.lattice(b));
        for (c, (gen, phase)) in [(a, b_pub), (b, a_pub)] {
            let state = self.clusters[c as usize].state.as_mut().expect("state");
            if let Some(t) = state.merge_from(gen, phase) {
                self.log_transition(k, now, c, t, false);
                // The merge jumped the tick counter: re-arm for the adopted
                // window (and drop the rate to zero if now terminal).
                self.rearm_flow(k, now, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::Opinion;

    fn quick(n: u64, k: u32, alpha: f64, seed: u64) -> ClusterConfig {
        let assignment = InitialAssignment::with_bias(n, k, alpha).unwrap();
        ClusterConfig::new(assignment)
            .with_seed(seed)
            .with_steps_per_unit(12.0) // skip the MC estimate in tests
    }

    #[test]
    fn forms_clusters_and_converges() {
        let result = quick(1_500, 2, 3.0, 1).run();
        assert!(result.cluster_count >= 2);
        assert!(
            result.participating_clusters >= 1,
            "no participating clusters (coverage {})",
            result.clustered_fraction
        );
        assert!(result.outcome.epsilon_time.is_some(), "no ε-convergence");
        assert!(
            result.outcome.consensus_time.is_some(),
            "no consensus (duration {}, finished {})",
            result.outcome.duration,
            result.finished_fraction
        );
        assert!(result.outcome.plurality_preserved());
        assert_eq!(result.outcome.winner(), Some(Opinion::new(0)));
    }

    #[test]
    fn deterministic_per_seed() {
        let r1 = quick(800, 2, 3.0, 7).run();
        let r2 = quick(800, 2, 3.0, 7).run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn switch_spread_is_small() {
        let result = quick(2_000, 2, 3.0, 2).run();
        let (first, last) = (
            result.first_switch_time.expect("first switch"),
            result.last_switch_time.expect("last switch"),
        );
        assert!(first <= last);
        // Theorem 27: t_l − t_f = O(1) time units; allow a generous constant.
        let units = (last - first) / result.steps_per_unit;
        assert!(units < 8.0, "switch spread {units} units");
    }

    #[test]
    fn clustering_covers_most_nodes() {
        let result = quick(2_000, 2, 3.0, 3).run();
        assert!(
            result.clustered_fraction > 0.8,
            "coverage {}",
            result.clustered_fraction
        );
        assert!(
            result.participating_fraction > 0.5,
            "participating {}",
            result.participating_fraction
        );
    }

    #[test]
    fn phase_log_ordering_per_cluster_generation() {
        let result = quick(1_500, 2, 3.0, 4).run();
        // For each (cluster, generation), phases must appear in lattice
        // order over time: TwoChoices ≤ Sleeping ≤ Propagation.
        let mut seen: std::collections::HashMap<(u32, u32), ClusterPhase> =
            std::collections::HashMap::new();
        for &(_, e) in result.phase_log.entries() {
            if let Some(prev) = seen.get(&(e.cluster, e.generation)) {
                assert!(
                    *prev <= e.phase,
                    "cluster {} gen {} regressed {:?} → {:?}",
                    e.cluster,
                    e.generation,
                    prev,
                    e.phase
                );
            }
            seen.insert((e.cluster, e.generation), e.phase);
        }
        assert!(!result.phase_log.is_empty());
    }

    #[test]
    fn phase_spread_reports_each_generation_once() {
        let result = quick(1_500, 2, 3.0, 5).run();
        let spreads = phase_spread(&result.phase_log, ClusterPhase::Propagation);
        let mut last_gen = 0;
        for (g, first, last) in spreads {
            assert!(g > last_gen);
            last_gen = g;
            assert!(first <= last);
        }
    }

    #[test]
    fn finished_flag_spreads() {
        let result = quick(1_200, 2, 3.0, 7).run();
        if result.outcome.consensus_time.is_some() {
            assert!(
                result.finished_fraction > 0.0,
                "consensus without any finished nodes"
            );
        }
    }

    #[test]
    fn tolerates_moderate_signal_loss() {
        // 10% loss: ≈ 0.9·card promotion signals reach each leader, above
        // the gen-size threshold card·(0.5 + 1/√log₂ n) ≈ 0.81·card.
        let result = quick(1_500, 2, 3.0, 31)
            .with_scenario(Scenario::new().with_signal_loss(0.1))
            .run();
        assert!(result.participating_clusters >= 1);
        assert!(result.outcome.consensus_time.is_some(), "did not converge");
        assert!(result.outcome.plurality_preserved());
    }

    #[test]
    fn extreme_signal_loss_stalls_generation_progress() {
        // 90% loss: only ≈ 0.1·card promotion signals arrive, far below
        // the gen-size threshold — no cluster ever allows generation 2.
        let result = quick(800, 2, 3.0, 32)
            .with_scenario(Scenario::new().with_signal_loss(0.9))
            .with_max_time(4_000.0)
            .run();
        assert!(result.participating_clusters >= 1, "no cluster switched");
        let entries = result.phase_log.entries();
        assert!(
            entries.iter().all(|&(_, e)| e.generation == 1),
            "generation advanced despite loss"
        );
    }

    #[test]
    fn signal_loss_changes_the_run() {
        let plain = quick(800, 2, 3.0, 34).run();
        let lossy = quick(800, 2, 3.0, 34)
            .with_scenario(Scenario::parse("signal-loss:0.9").unwrap())
            .run();
        assert_ne!(plain, lossy, "signal loss was ignored");
    }

    #[test]
    fn tolerates_straggler_clocks() {
        // 20% of nodes tick at a tenth of the rate: slower but safe.
        let fast = quick(1_500, 2, 3.0, 33).run();
        let slow = quick(1_500, 2, 3.0, 33)
            .with_scenario(Scenario::new().with_stragglers(0.2, 0.1))
            .run();
        assert!(slow.outcome.plurality_preserved());
        let (f, s) = (
            fast.outcome.consensus_time.expect("fast converges"),
            slow.outcome.consensus_time.expect("slow converges"),
        );
        assert!(s > f, "stragglers should slow full consensus: {s} ≤ {f}");
    }

    #[test]
    fn stragglers_compose_with_sparse_topology() {
        // Straggler identities on a sparse graph come from a private
        // seeded permutation: the run must stay deterministic and the
        // slow nodes must not prevent ε-convergence.
        let mk = || {
            quick(1_000, 2, 3.0, 44)
                .with_topology(Topology::PreferentialAttachment { m: 4 })
                .with_scenario(Scenario::new().with_stragglers(0.2, 0.2))
                .run()
        };
        let r = mk();
        assert_eq!(r, mk());
        assert!(r.outcome.epsilon_time.is_some(), "no ε-convergence");
    }

    #[test]
    fn explicit_complete_topology_is_bitwise_identical_to_default() {
        let default = quick(900, 2, 3.0, 9).run();
        let explicit = quick(900, 2, 3.0, 9)
            .with_topology(Topology::Complete)
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn sparse_expander_converges_to_plurality() {
        let result = quick(1_200, 2, 3.0, 10)
            .with_topology(Topology::Regular { d: 8 })
            .run();
        assert!(result.cluster_count >= 2);
        assert!(result.outcome.consensus_time.is_some(), "did not converge");
        assert!(result.outcome.plurality_preserved());
    }

    #[test]
    fn respects_max_time() {
        let assignment = InitialAssignment::with_bias(600, 2, 1.01).unwrap();
        let result = ClusterConfig::new(assignment)
            .with_seed(8)
            .with_steps_per_unit(12.0)
            .with_max_time(10.0)
            .run();
        assert!(result.outcome.duration <= 10.0 + 1e-9);
    }

    #[test]
    fn empty_scenario_is_bitwise_identical_to_default() {
        let default = quick(900, 2, 3.0, 11).run();
        let explicit = quick(900, 2, 3.0, 11)
            .with_scenario(plurality_scenario::Scenario::new())
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn tracing_off_is_bitwise_identical_to_default() {
        let default = quick(900, 2, 3.0, 21).run();
        let explicit = quick(900, 2, 3.0, 21).with_trace(false).run();
        assert_eq!(default, explicit);
        assert!(default.trace.is_none());
    }

    #[test]
    fn tracing_on_changes_nothing_but_the_trace() {
        let plain = quick(900, 2, 3.0, 22).run();
        let traced = quick(900, 2, 3.0, 22).with_trace(true).run();
        let events = traced.trace.clone().expect("trace recorded");
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        // Every phase_log entry has a matching phase trace event.
        let phase_events = events
            .iter()
            .filter(|e| e.kind.category() == "phase")
            .count();
        assert!(phase_events >= traced.phase_log.entries().len());
        let mut untraced = traced.clone();
        untraced.trace = None;
        assert_eq!(untraced, plain, "tracing perturbed the run");
    }

    #[test]
    fn profile_counts_hot_path_traffic() {
        let r = quick(900, 2, 3.0, 23).run();
        assert!(r.profile.events_popped > 0, "no events popped");
        assert!(r.profile.window_crossings > 0, "jump chains never crossed");
        assert!(r.profile.signals_thinned <= r.ticks);
    }

    #[test]
    fn crash_join_churn_still_converges() {
        // 25% of the population crashes during clustering and comes back
        // as fresh nodes mid-consensus; the finished-flag mechanism must
        // still pull everyone over.
        let scenario = plurality_scenario::Scenario::parse("crash:0.25@20;join:1@80").unwrap();
        let result = quick(1_200, 2, 3.0, 12).with_scenario(scenario).run();
        assert!(result.outcome.consensus_time.is_some(), "did not converge");
    }

    #[test]
    fn scenario_runs_are_deterministic_per_seed() {
        let mk = || {
            let scenario = plurality_scenario::Scenario::parse(
                "burst-loss:0.3@10..40;corrupt:0.1:adaptive@60;latency:2@50..90",
            )
            .unwrap();
            quick(800, 2, 3.0, 13).with_scenario(scenario).run()
        };
        let r = mk();
        assert_eq!(r, mk());
        assert!(r.outcome.epsilon_time.is_some(), "no ε-convergence");
    }
}
