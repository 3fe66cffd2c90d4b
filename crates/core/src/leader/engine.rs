//! Event-driven execution of the single-leader asynchronous protocol
//! (Algorithms 2 + 3) in the Poisson clock model with edge latencies.
//!
//! Every node ticks at rate 1. At each tick it fires a 0-signal towards the
//! leader (subject to one latency for travel) and — if it is not locked by a
//! previous attempt — opens channels to two uniform peers in parallel and
//! then to the leader (`T′2 = max(T2, T2) + T2`). When the channels complete
//! it reads the *current* states of the peers and the leader, applies the
//! decision rule of [`crate::leader::decide`], possibly promotes itself, and
//! notifies the leader with a gen-signal (again subject to travel latency).
//!
//! Hot-path structure: see `crate::kernel`, which runs these handlers.

use crate::kernel::{run_param_setters, Handlers, Kernel, RunParams, TWO_CHOICES_UNITS};
use crate::leader::node::{apply, decide, NodeDecision, NodeState, SampleView};
use crate::leader::state::{LeaderParams, LeaderState, LeaderTransition, Signal};
use crate::opinion::InitialAssignment;
use crate::outcome::{RecordLevel, RunOutcome};
use plurality_dist::ChannelPattern;
use plurality_obs::{EngineProfile, TraceEvent};
use plurality_scenario::Scenario;
use plurality_sim::Series;
use plurality_topology::Topology;

/// The fewest nodes a single-leader run accepts.
pub const MIN_NODES: usize = 2;

/// The gen-size threshold as a fraction of `n`: the leader allows the
/// next generation once `n/2` nodes reported the current one.
const GEN_SIZE_FRACTION: f64 = 0.5;

/// Configuration for a single-leader asynchronous run. Construct with
/// [`LeaderConfig::new`] and chain the `with_*` setters — or run
/// through the unified facade (`plurality-api`'s `LeaderEngine`, spec
/// name `"leader"`), which consumes the byte-identical RNG stream.
///
/// # Examples
///
/// ```
/// use plurality_core::leader::LeaderConfig;
/// use plurality_core::InitialAssignment;
/// use plurality_dist::Latency;
///
/// let assignment = InitialAssignment::with_bias(1_500, 2, 3.0).unwrap();
/// let result = LeaderConfig::new(assignment)
///     .with_latency(Latency::exponential(1.0).unwrap())
///     .with_seed(3)
///     .run();
/// assert!(result.outcome.epsilon_time.is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderConfig {
    run: RunParams,
}

impl LeaderConfig {
    /// Creates a configuration with defaults: exponential latency with rate
    /// 1, `ε = 0.05`, two-choices window of 2 time units, generation-size
    /// threshold `n/2`, seed 0.
    pub fn new(assignment: InitialAssignment) -> Self {
        Self {
            run: RunParams::new(assignment),
        }
    }

    run_param_setters!();

    /// Attaches a time-scripted environment (default: the empty
    /// scenario, the paper's failure-free static model). Event times are
    /// in time *steps* (the event clock). Crashed nodes tick inertly —
    /// no 0-signal, no interaction — and interactions whose initiator or
    /// sampled peers are crashed at channel completion abort.
    /// `burst-loss` drops each 0-/gen-signal and each peer channel
    /// independently; `latency:` shifts multiply every drawn travel and
    /// channel latency; `rewire:` swaps the peer sampler mid-run. The
    /// run-long `signal-loss` and `stragglers` actions hold from the
    /// start (see [`Action`](plurality_scenario::Action)). Scenario
    /// randomness lives on a private stream, so the empty scenario
    /// consumes the byte-identical process RNG stream as before the
    /// subsystem existed.
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.run.scenario = scenario;
        self
    }

    /// Sets the communication topology for the *peer-sampling* step
    /// (default [`Topology::Complete`], the paper's model): the two
    /// parallel channels a ticking node opens go to uniform neighbors on
    /// the given graph (isolated nodes sample themselves). The 0-/gen-
    /// signals towards the leader model a dedicated control channel and
    /// stay direct, exactly as in Algorithms 2 + 3. Random graph
    /// families are rebuilt per run from `derive_seed(seed,
    /// TOPOLOGY_STREAM)`.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.run.topology = topology;
        self
    }

    /// Runs the protocol.
    ///
    /// # Panics
    ///
    /// Panics if the assignment materializes fewer than [`MIN_NODES`]
    /// nodes, or if
    /// the configured topology cannot be built for that population size
    /// (see [`Topology::build`]).
    pub fn run(&self) -> LeaderResult {
        run_leader(self)
    }
}

/// Per-generation phase telemetry of the leader (Figure 2's `t̂` marks in
/// the single-leader setting; used by experiments E5–E7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationPhase {
    /// The generation.
    pub generation: u32,
    /// When the leader allowed this generation (`gen ← generation`).
    pub allowed_at: f64,
    /// When a node first promoted itself into it.
    pub first_promotion_at: Option<f64>,
    /// When the leader opened propagation for it.
    pub propagation_at: Option<f64>,
}

/// Result of a single-leader asynchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderResult {
    /// Common outcome report. Generation `bias` fields are measured when the
    /// propagation window opens (the paper's `α_{i, t_i + t′}`, Lemma 22).
    pub outcome: RunOutcome,
    /// The time-unit length `C1` (steps) used to derive leader thresholds.
    pub steps_per_unit: f64,
    /// Per-generation leader phase telemetry.
    pub phases: Vec<GenerationPhase>,
    /// Total clock ticks processed.
    pub ticks: u64,
    /// Ticks that initiated an interaction (node not locked).
    pub good_ticks: u64,
    /// Number of promotions via the two-choices rule.
    pub two_choices_promotions: u64,
    /// Number of adoptions via propagation.
    pub propagation_promotions: u64,
    /// Winner-fraction time series (only at [`RecordLevel::Full`]): at
    /// each integer step `g` up to the run's end, the state after `g`.
    pub winner_fraction: Option<Series>,
    /// Per-node `(generation, color)` at run end (only at
    /// [`RecordLevel::Full`]); lets the plurality-check model checker
    /// cross-validate that a recorded engine run ends inside the
    /// exhaustively explored reachable set.
    pub final_node_states: Option<Vec<(u32, u32)>>,
    /// Structured trace events, sorted by time (only when
    /// [`LeaderConfig::with_trace`] was enabled).
    pub trace: Option<Vec<TraceEvent>>,
    /// Deterministic profiling counters (always collected; pure
    /// arithmetic, no RNG).
    pub profile: EngineProfile,
}

/// The single-leader protocol state the kernel calls back into.
struct Leader {
    leader: LeaderState,
    /// Per-node stored leader state; starts stale (leader starts at gen 1).
    seen_gen: Vec<u32>,
    seen_prop: Vec<bool>,
    /// The jump chain's 0-signal send rate (see `Kernel::send_rate`).
    send_rate: f64,
    phases: Vec<GenerationPhase>,
    two_choices_promotions: u64,
    propagation_promotions: u64,
    winner_series: Option<Series>,
    /// The next grid point the winner series has not stamped.
    next_sample: f64,
}

fn run_leader(cfg: &LeaderConfig) -> LeaderResult {
    let mut k: Kernel<Signal, 2> = Kernel::new(
        &cfg.run,
        ChannelPattern::SingleLeader,
        "single-leader",
        MIN_NODES,
    );
    let (n, c1, cap) = (k.n, k.c1, k.cap);
    let nf = n as f64;
    let zero_signal_threshold = (nf * c1 * (TWO_CHOICES_UNITS + nf.ln() / nf.sqrt())).ceil() as u64;
    let gen_size_threshold = (nf * GEN_SIZE_FRACTION).ceil() as u64;
    k.max_time = cfg.run.max_time.unwrap_or_else(|| {
        let colors = f64::from(cfg.run.assignment.k());
        let units = (cap as f64 + 2.0) * (2.0 * (colors + 2.0).log2() + 12.0);
        let derived = c1 * units + 10.0 * nf.ln() + 100.0;
        // Scripted events must actually fire: stretch the default cap
        // past the scenario horizon plus a recovery tail.
        derived.max(cfg.run.scenario.horizon() + 10.0 * nf.ln() + 100.0)
    });
    k.trace_phase(0.0, "generation-allowed", 1, 0);
    let winner_series = matches!(cfg.run.record, RecordLevel::Full).then(|| {
        let mut s = Series::new("winner_fraction");
        s.push(0.0, k.table.global_counts().fraction(k.initial_winner));
        s
    });

    let send_rate = k.send_rate(k.tick_mass());
    k.start(&[send_rate]);
    if send_rate > 0.0 {
        k.set_flow(0.0, 0, send_rate, Some(zero_signal_threshold));
    }

    let mut leader = Leader {
        leader: LeaderState::new(LeaderParams {
            zero_signal_threshold,
            gen_size_threshold,
            generation_cap: cap,
        }),
        seen_gen: vec![0; n],
        seen_prop: vec![false; n],
        send_rate,
        phases: vec![GenerationPhase {
            generation: 1,
            allowed_at: 0.0,
            first_promotion_at: None,
            propagation_at: None,
        }],
        two_choices_promotions: 0,
        propagation_promotions: 0,
        winner_series,
        next_sample: 1.0,
    };
    k.run(&mut leader);
    // The grid points after the last step, up to the run's end.
    leader.on_step(&k, k.end_time.floor() + 1.0);

    let final_node_states = matches!(cfg.run.record, RecordLevel::Full)
        .then(|| k.gens.iter().copied().zip(k.cols.iter().copied()).collect());
    let good_ticks = k.interactions;
    let done = k.finish();
    LeaderResult {
        outcome: done.outcome,
        steps_per_unit: c1,
        phases: leader.phases,
        ticks: done.ticks,
        good_ticks,
        two_choices_promotions: leader.two_choices_promotions,
        propagation_promotions: leader.propagation_promotions,
        winner_fraction: leader.winner_series,
        final_node_states,
        trace: done.trace,
        profile: done.profile,
    }
}

impl Leader {
    fn on_transition(&mut self, k: &mut Kernel<Signal, 2>, now: f64, t: LeaderTransition) {
        match t {
            LeaderTransition::PropagationEnabled { generation } => {
                k.trace_phase(now, "propagation-enabled", generation, 0);
                if let Some(p) = self.phases.get_mut(generation as usize - 1) {
                    p.propagation_at.get_or_insert(now);
                }
                // Lemma 22: measure the generation's bias when its
                // propagation phase opens.
                k.measure_bias(generation);
            }
            LeaderTransition::GenerationAllowed { generation } => {
                k.trace_phase(now, "generation-allowed", generation, 0);
                self.phases.push(GenerationPhase {
                    generation,
                    allowed_at: now,
                    first_promotion_at: None,
                    propagation_at: None,
                });
                // The birth reset the 0-signal counter: arm the new
                // generation's counting window.
                let window = self.leader.params().zero_signal_threshold;
                k.set_flow(now, 0, self.send_rate, Some(window));
                // If generation g−1 matured without its propagation window
                // ever opening (possible for small k, where two-choices
                // alone reaches the n/2 threshold), measure its bias now.
                if generation >= 2 {
                    k.measure_bias(generation - 1);
                }
            }
        }
    }
}

impl Handlers<2> for Leader {
    type Signal = Signal;
    const OBSERVE_EACH_MOVE: bool = false;

    fn send_zero(&mut self, k: &mut Kernel<Signal, 2>, now: f64, _v: u32) {
        // Line 1: the 0-signal travels one latency, without locking;
        // skipped once the leader is terminal (the arrival would be
        // unobservable).
        if !self.leader.is_terminal() {
            k.send_zero(now, 0);
        }
    }

    fn on_op(&mut self, k: &mut Kernel<Signal, 2>, now: f64, v: u32, [a, b]: [u32; 2]) -> bool {
        let vi = v as usize;
        // The node's slot and the decision/apply pair are the shared
        // transition function (`leader::node`): the plurality-check model
        // checker drives the identical functions, so the checked state
        // machine cannot drift from this engine.
        let mut slot = NodeState {
            gen: k.gens[vi],
            col: k.cols[vi],
            seen_gen: self.seen_gen[vi],
            seen_prop: self.seen_prop[vi],
        };
        let sample = |s: u32| SampleView {
            gen: k.gens[s as usize],
            col: k.cols[s as usize],
        };
        let (gen_now, prop_now) = (self.leader.generation(), self.leader.propagation());
        let decision = decide(slot.view(), sample(a), sample(b), gen_now, prop_now);
        let signal = apply(&mut slot, decision, gen_now, prop_now);
        match decision {
            NodeDecision::Refresh => {
                self.seen_gen[vi] = slot.seen_gen;
                self.seen_prop[vi] = slot.seen_prop;
            }
            NodeDecision::Adopt {
                gen,
                col,
                via_two_choices,
            } => {
                let is_birth = gen > k.table.max_generation();
                let mono = k.adopt(now, vi, gen, col);
                if via_two_choices {
                    self.two_choices_promotions += 1;
                } else {
                    self.propagation_promotions += 1;
                }
                if is_birth {
                    // Generations are allowed in order: phase g sits at g − 1.
                    if let Some(p) = self.phases.get_mut(gen as usize - 1) {
                        p.first_promotion_at.get_or_insert(now);
                    }
                }
                // `apply` says the adoption increased the node's generation,
                // so a gen-signal departs — unless the leader is provably
                // past reacting.
                if let Some(sig) = signal {
                    if !self.leader.is_terminal() {
                        k.send(now, sig);
                    }
                }
                if mono {
                    return true;
                }
            }
            NodeDecision::Nothing => {}
        }
        k.unlock(now, vi);
        false
    }

    fn on_signal(&mut self, k: &mut Kernel<Signal, 2>, now: f64, signal: Signal) {
        if let Some(t) = self.leader.on_signal(signal) {
            self.on_transition(k, now, t);
        }
    }

    fn on_crossing(&mut self, k: &mut Kernel<Signal, 2>, now: f64, _scope: u32) {
        // The armed window crossed its threshold: batch in the whole
        // window's count at the crossing time. The next window arms
        // at the next generation birth.
        k.set_flow(now, 0, self.send_rate, None);
        let gap = self.leader.params().zero_signal_threshold - self.leader.zero_count();
        if let Some(t) = self.leader.on_zero_batch(gap) {
            self.on_transition(k, now, t);
        }
    }

    fn on_join(&mut self, v: usize) {
        self.seen_gen[v] = 0;
        self.seen_prop[v] = false;
    }

    /// Stamps the winner series at every grid point below `now` not yet
    /// stamped: the state before a step is the state at each of them.
    fn on_step(&mut self, k: &Kernel<Signal, 2>, now: f64) {
        if let Some(series) = self.winner_series.as_mut() {
            let fraction = k.table.color_support(k.initial_winner) as f64 / k.n as f64;
            while self.next_sample < now {
                series.push(self.next_sample, fraction);
                self.next_sample += 1.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::Opinion;
    use plurality_dist::Latency;
    use plurality_obs::TraceKind;

    fn quick_config(n: u64, k: u32, alpha: f64, seed: u64) -> LeaderConfig {
        let assignment = InitialAssignment::with_bias(n, k, alpha).unwrap();
        LeaderConfig::new(assignment)
            .with_seed(seed)
            .with_steps_per_unit(9.3) // skip the MC estimate in tests
    }

    #[test]
    fn converges_to_plurality_with_large_bias() {
        let result = quick_config(1_500, 2, 3.0, 1).run();
        assert!(result.outcome.epsilon_time.is_some(), "no ε-convergence");
        assert!(
            result.outcome.consensus_time.is_some(),
            "no full consensus (duration {})",
            result.outcome.duration
        );
        assert!(result.outcome.plurality_preserved());
        assert_eq!(result.outcome.winner(), Some(Opinion::new(0)));
    }

    #[test]
    fn epsilon_no_later_than_consensus() {
        let result = quick_config(1_000, 3, 2.5, 2).run();
        let (eps, full) = (
            result.outcome.epsilon_time.unwrap(),
            result.outcome.consensus_time.unwrap(),
        );
        assert!(eps <= full, "eps {eps} > full {full}");
    }

    #[test]
    fn deterministic_per_seed() {
        let r1 = quick_config(600, 2, 2.0, 42).run();
        let r2 = quick_config(600, 2, 2.0, 42).run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn two_choices_precede_propagation_per_generation() {
        let result = quick_config(2_000, 2, 2.0, 3).run();
        for p in &result.phases {
            if let (Some(first), Some(prop)) = (p.first_promotion_at, p.propagation_at) {
                assert!(
                    p.allowed_at <= first,
                    "gen {} promoted before allowed",
                    p.generation
                );
                assert!(
                    first < prop,
                    "gen {}: first promotion after propagation opened",
                    p.generation
                );
            }
        }
    }

    #[test]
    fn generations_allowed_in_order() {
        let result = quick_config(2_000, 2, 2.0, 4).run();
        for (i, p) in result.phases.iter().enumerate() {
            assert_eq!(p.generation, i as u32 + 1);
        }
        for w in result.phases.windows(2) {
            assert!(w[0].allowed_at <= w[1].allowed_at);
        }
    }

    #[test]
    fn both_promotion_mechanisms_fire() {
        let result = quick_config(2_000, 2, 2.0, 5).run();
        assert!(
            result.two_choices_promotions > 0,
            "no two-choices promotions"
        );
        assert!(
            result.propagation_promotions > 0,
            "no propagation promotions"
        );
        assert!(result.good_ticks <= result.ticks);
    }

    #[test]
    fn monochromatic_start_ends_immediately() {
        let assignment = InitialAssignment::Exact(vec![300, 0]);
        let result = LeaderConfig::new(assignment)
            .with_seed(6)
            .with_steps_per_unit(9.3)
            .run();
        assert_eq!(result.outcome.consensus_time, Some(0.0));
        assert_eq!(result.ticks, 0);
    }

    #[test]
    fn full_record_produces_series() {
        for latency in [Latency::exponential(1.0), Latency::erlang(3, 3.0)] {
            let result = quick_config(800, 2, 3.0, 7)
                .with_latency(latency.unwrap())
                .with_record(RecordLevel::Full)
                .run();
            let series = result.winner_fraction.expect("series recorded");
            assert!(series.len() > 1);
            assert!(series.last_value().unwrap() > 0.9);
            // One stamp per integer grid point, from 0 to the run's end.
            let last = result.outcome.duration.floor() as u32;
            let grid: Vec<f64> = (0..=last).map(f64::from).collect();
            assert_eq!(series.times(), grid.as_slice());
        }
    }

    #[test]
    fn grid_samples_show_effects_at_or_before_their_point_only() {
        // Scenario randomness has its own stream, so until the corruption
        // the runs agree; the sample at grid point g includes an effect
        // at time g and excludes one after it.
        let run = |script: &str| {
            quick_config(800, 2, 3.0, 7)
                .with_latency(Latency::erlang(3, 3.0).unwrap())
                .with_record(RecordLevel::Full)
                .with_scenario(Scenario::parse(script).unwrap())
                .run()
                .winner_fraction
                .expect("series recorded")
        };
        let plain = run("");
        for (script, first_hit) in [
            ("corrupt:0.1:adaptive@10", 10),
            ("corrupt:0.1:adaptive@10.5", 11),
        ] {
            let hit = run(script);
            assert_eq!(
                hit.values()[..first_hit],
                plain.values()[..first_hit],
                "{script}"
            );
            assert!(
                hit.values()[first_hit] < plain.values()[first_hit],
                "{script}"
            );
        }
    }

    #[test]
    fn respects_max_time() {
        let assignment = InitialAssignment::with_bias(500, 2, 1.01).unwrap();
        let result = LeaderConfig::new(assignment)
            .with_seed(8)
            .with_steps_per_unit(9.3)
            .with_max_time(5.0)
            .run();
        assert!(result.outcome.duration <= 5.0 + 1e-9);
    }

    #[test]
    fn tolerates_moderate_signal_loss() {
        // 30% loss: the gen-size threshold n/2 still fires (≈ 0.7·n
        // promotion signals arrive per generation).
        let result = quick_config(1_500, 2, 3.0, 31)
            .with_scenario(Scenario::new().with_signal_loss(0.3))
            .run();
        assert!(result.outcome.consensus_time.is_some(), "did not converge");
        assert!(result.outcome.plurality_preserved());
    }

    #[test]
    fn extreme_signal_loss_stalls_generation_progress() {
        // 90% loss: only ≈ 0.1·n gen-signals arrive, below the n/2
        // threshold — the leader can never allow generation 2.
        let result = quick_config(800, 2, 3.0, 32)
            .with_scenario(Scenario::new().with_signal_loss(0.9))
            .with_max_time(120.0)
            .run();
        assert!(result.phases.len() <= 1, "generation advanced despite loss");
    }

    #[test]
    fn tolerates_straggler_clocks() {
        // 20% of nodes tick at a tenth of the rate: slower but safe.
        let fast = quick_config(1_500, 2, 3.0, 33).run();
        let slow = quick_config(1_500, 2, 3.0, 33)
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
    fn explicit_complete_topology_is_bitwise_identical_to_default() {
        let default = quick_config(900, 2, 3.0, 41).run();
        let explicit = quick_config(900, 2, 3.0, 41)
            .with_topology(Topology::Complete)
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn sparse_expander_reaches_epsilon_consensus() {
        // On sparse graphs the protocol ε-converges fast, but a minority
        // pocket promoted to the top generation can never be converted
        // afterwards (no strictly higher generation exists to propagate
        // from), so *full* consensus may never come — see the E17
        // discussion in EXPERIMENTS.md. The paper's whp full-consensus
        // claim is specific to the complete graph.
        let result = quick_config(1_200, 2, 3.0, 42)
            .with_topology(Topology::Regular { d: 8 })
            .run();
        assert!(
            result.outcome.epsilon_time.is_some(),
            "no ε-convergence on the expander"
        );
        let winner_support = result.outcome.final_counts.support(crate::Opinion::new(0));
        assert!(
            winner_support as f64 >= 0.9 * 1_200.0,
            "plurality did not dominate: {winner_support}/1200"
        );
    }

    #[test]
    fn stragglers_compose_with_sparse_topology() {
        // Straggler identities on a sparse graph come from a private
        // seeded permutation: the run must stay deterministic and the
        // hubs-are-slow bias must not prevent ε-convergence.
        let mk = || {
            quick_config(1_000, 2, 3.0, 44)
                .with_topology(Topology::PreferentialAttachment { m: 4 })
                .with_scenario(Scenario::new().with_stragglers(0.2, 0.2))
                .run()
        };
        let r = mk();
        assert_eq!(r, mk());
        assert!(r.outcome.epsilon_time.is_some(), "no ε-convergence");
    }

    #[test]
    fn empty_scenario_is_bitwise_identical_to_default() {
        let default = quick_config(900, 2, 3.0, 61).run();
        let explicit = quick_config(900, 2, 3.0, 61)
            .with_scenario(plurality_scenario::Scenario::new())
            .run();
        assert_eq!(default, explicit);
    }

    #[test]
    fn tracing_off_is_bitwise_identical_to_default() {
        let default = quick_config(900, 2, 3.0, 71).run();
        let explicit = quick_config(900, 2, 3.0, 71).with_trace(false).run();
        assert_eq!(default, explicit);
        assert!(default.trace.is_none());
    }

    #[test]
    fn tracing_on_changes_nothing_but_the_trace() {
        let plain = quick_config(900, 2, 3.0, 72).run();
        let traced = quick_config(900, 2, 3.0, 72).with_trace(true).run();
        let events = traced.trace.clone().expect("trace recorded");
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(matches!(
            events[0].kind,
            TraceKind::Phase {
                name: "generation-allowed",
                generation: 1,
                ..
            }
        ));
        // One generation-allowed phase event per recorded phase.
        let allowed = events
            .iter()
            .filter(|e| e.kind.label() == "generation-allowed")
            .count();
        assert_eq!(allowed, traced.phases.len());
        let mut untraced = traced.clone();
        untraced.trace = None;
        assert_eq!(untraced, plain, "tracing perturbed the run");
    }

    #[test]
    fn profile_counts_hot_path_traffic() {
        let r = quick_config(900, 2, 3.0, 73).run();
        assert!(r.profile.events_popped > 0, "no events popped");
        assert!(r.profile.window_crossings > 0, "jump chain never crossed");
        // Thinned ticks were settled in bulk and included in `ticks`.
        assert!(r.profile.signals_thinned <= r.ticks);
    }

    #[test]
    fn crash_then_recover_still_converges() {
        let scenario = plurality_scenario::Scenario::parse("crash:0.3@5;recover:1@30").unwrap();
        let result = quick_config(1_200, 2, 3.0, 62)
            .with_scenario(scenario)
            .run();
        assert!(result.outcome.consensus_time.is_some(), "did not converge");
        assert!(result.outcome.plurality_preserved());
    }

    #[test]
    fn burst_loss_and_latency_shift_runs_are_deterministic() {
        let mk = || {
            let scenario = plurality_scenario::Scenario::parse(
                "burst-loss:0.4@5..20;latency:3@10..40;corrupt:0.1:adaptive@25",
            )
            .unwrap();
            quick_config(800, 2, 3.0, 63).with_scenario(scenario).run()
        };
        let r = mk();
        assert_eq!(r, mk());
        assert!(r.outcome.epsilon_time.is_some(), "no ε-convergence");
    }

    #[test]
    fn scenario_composes_with_sparse_topology_and_rewire() {
        let mk = || {
            let scenario =
                plurality_scenario::Scenario::parse("rewire:er:0.02@10;crash:0.2@15;join:0.2@40")
                    .unwrap();
            quick_config(1_000, 2, 3.0, 64)
                .with_topology(Topology::Regular { d: 8 })
                .with_scenario(scenario)
                .run()
        };
        let r = mk();
        assert_eq!(r, mk());
        assert!(r.outcome.epsilon_time.is_some(), "no ε-convergence");
    }

    #[test]
    #[ignore = "tier-2: n = 30 000 sampling run; run with `cargo test -- --ignored`"]
    fn bias_grows_across_generations() {
        let result = quick_config(30_000, 2, 1.5, 9).run();
        let finite: Vec<f64> = result
            .outcome
            .generations
            .iter()
            .map(|b| b.bias)
            .take_while(|b| b.is_finite())
            .collect();
        assert!(finite.len() >= 2, "need ≥ 2 measured generations");
        for w in finite.windows(2) {
            assert!(w[1] > w[0], "bias not growing: {finite:?}");
        }
    }
}
