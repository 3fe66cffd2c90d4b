//! The unified run report: one common [`RunOutcome`] plus a typed
//! [`Telemetry`] enum preserving every engine-specific field.

use plurality_agg::{LeaderMfResult, Majority3MfResult, PopulationMfResult, UndecidedMfResult};
use plurality_baselines::{Dynamics, DynamicsResult, PopulationProtocol, PopulationResult};
use plurality_core::cluster::{ClusterResult, PhaseLogEntry};
use plurality_core::leader::{GenerationPhase, LeaderResult};
use plurality_core::sync::{SyncResult, UrnResult};
use plurality_core::RunOutcome;
use plurality_obs::{EngineProfile, TraceEvent};
use plurality_sim::{EventLog, Series};

/// The canonical registry name of a [`Dynamics`] variant (the name
/// [`crate::Registry`] lists and [`crate::RunSpec`] parses).
pub(crate) fn dynamics_protocol_name(dynamics: Dynamics) -> &'static str {
    match dynamics {
        Dynamics::PullVoting => "pull",
        Dynamics::TwoChoices => "two-choices",
        Dynamics::ThreeMajority => "3-majority",
        Dynamics::Undecided => "undecided",
    }
}

/// The canonical registry name of a [`PopulationProtocol`] variant.
pub(crate) fn population_protocol_name(protocol: PopulationProtocol) -> &'static str {
    match protocol {
        PopulationProtocol::ApproximateMajority => "approx-majority",
        PopulationProtocol::ExactMajority => "exact-majority",
    }
}

/// Final report of any protocol run: the shared outcome plus the
/// engine-specific telemetry, so experiment code never pattern-matches
/// on six result types again.
///
/// Every field of the underlying engine result survives — the
/// [`Telemetry`] variants are exact decompositions of
/// `SyncResult` / `UrnResult` / `LeaderResult` / `ClusterResult` /
/// `DynamicsResult` / `PopulationResult` minus the shared `outcome` —
/// and the common questions ("how many rounds?", "which C1?", "how many
/// interactions?") have flat [`Report`] accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Canonical registry name of the protocol that ran (e.g.
    /// `"leader"`, `"3-majority"`).
    pub protocol: &'static str,
    /// The common outcome every engine reports.
    pub outcome: RunOutcome,
    /// Everything engine-specific.
    pub telemetry: Telemetry,
    /// Structured trace events, sorted by time (only when
    /// [`crate::RunConfig::with_trace`] was enabled on a tracing-capable
    /// engine; the mean-field urn never traces). Deliberately excluded
    /// from the wire text: two runs differing only in the trace knob
    /// serialize identically.
    pub trace: Option<Vec<TraceEvent>>,
}

/// Engine-specific telemetry, preserving every field of the per-engine
/// result structs.
#[derive(Debug, Clone, PartialEq)]
pub enum Telemetry {
    /// The synchronous generation protocol (Algorithm 1).
    Sync(SyncTelemetry),
    /// The urn-mode (mean-field) synchronous protocol.
    Urn(UrnTelemetry),
    /// The asynchronous single-leader protocol (Algorithms 2 + 3).
    Leader(LeaderTelemetry),
    /// The decentralized multi-leader protocol (Algorithms 4 + 5).
    Cluster(ClusterTelemetry),
    /// A synchronous gossip baseline dynamic.
    Gossip(GossipTelemetry),
    /// A two-opinion population protocol.
    Population(PopulationTelemetry),
    /// The mean-field single-leader protocol (`leader-mf`).
    LeaderMf(LeaderMfTelemetry),
    /// A mean-field gossip dynamic (`majority3-mf`, `undecided-mf`).
    GossipMf(GossipTelemetry),
    /// The mean-field approximate-majority population protocol
    /// (`population-mf`).
    PopulationMf(PopulationMfTelemetry),
}

/// Telemetry of a [`SyncResult`] beyond the shared outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncTelemetry {
    /// Number of rounds simulated.
    pub rounds: u64,
    /// The `G*` used.
    pub g_star: u32,
    /// The two-choices rounds actually executed.
    pub two_choices_rounds: Vec<u64>,
    /// Per-round fraction of the newest generation (only at
    /// [`plurality_core::RecordLevel::Full`]).
    pub newest_generation_fraction: Option<Series>,
    /// Per-round winner fraction (only at
    /// [`plurality_core::RecordLevel::Full`]).
    pub winner_fraction: Option<Series>,
}

/// Telemetry of an [`UrnResult`] beyond the shared outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct UrnTelemetry {
    /// Rounds simulated.
    pub rounds: u64,
    /// The `G*` used by the schedule.
    pub g_star: u32,
}

/// Telemetry of a [`LeaderResult`] beyond the shared outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderTelemetry {
    /// The time-unit length `C1` (steps) used to derive leader
    /// thresholds.
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
    /// Winner-fraction time series (only at
    /// [`plurality_core::RecordLevel::Full`]).
    pub winner_fraction: Option<Series>,
    /// Per-node `(generation, color)` at run end (only at
    /// [`plurality_core::RecordLevel::Full`]).
    pub final_node_states: Option<Vec<(u32, u32)>>,
    /// Deterministic profiling counters (always collected).
    pub profile: EngineProfile,
}

/// Telemetry of a [`ClusterResult`] beyond the shared outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTelemetry {
    /// The time-unit length `C1` (steps) used for all thresholds.
    pub steps_per_unit: f64,
    /// Number of clusters created.
    pub cluster_count: usize,
    /// Clusters that reached the participation size and switched to
    /// consensus mode.
    pub participating_clusters: usize,
    /// Fraction of nodes inside participating clusters at their switch.
    pub participating_fraction: f64,
    /// Fraction of nodes in any cluster at the end of the run.
    pub clustered_fraction: f64,
    /// When the first participating cluster switched (`t_f`).
    pub first_switch_time: Option<f64>,
    /// When the last participating cluster switched (`t_l`).
    pub last_switch_time: Option<f64>,
    /// Per-cluster phase-change log (Figure 2).
    pub phase_log: EventLog<PhaseLogEntry>,
    /// Total clock ticks processed.
    pub ticks: u64,
    /// Fraction of nodes with the `finished` flag at the end.
    pub finished_fraction: f64,
    /// Deterministic profiling counters (always collected).
    pub profile: EngineProfile,
}

/// Telemetry of a [`DynamicsResult`] — or of its mean-field
/// counterpart, [`Majority3MfResult`] / [`UndecidedMfResult`] — beyond
/// the shared outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipTelemetry {
    /// Which dynamic ran.
    pub dynamics: Dynamics,
    /// Rounds simulated.
    pub rounds: u64,
    /// Peak fraction of undecided nodes (always 0 except for
    /// [`Dynamics::Undecided`]).
    pub peak_undecided: f64,
}

/// Telemetry of a [`PopulationResult`] beyond the shared outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationTelemetry {
    /// Which protocol ran.
    pub protocol: PopulationProtocol,
    /// Total pairwise interactions executed.
    pub interactions: u64,
    /// Whether the run converged (all agents output the same opinion and
    /// no strong opponents remain).
    pub converged: bool,
}

/// Telemetry of a [`LeaderMfResult`] beyond the shared outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderMfTelemetry {
    /// Tau-leap sub-steps executed (the cost measure replacing ticks).
    pub sub_steps: u64,
    /// The `c₁` time-unit estimate shared with the per-node engine.
    pub steps_per_unit: f64,
    /// The leader's final allowed generation.
    pub leader_generation: u32,
    /// Whether the leader ended terminal.
    pub leader_terminal: bool,
}

/// Telemetry of a [`PopulationMfResult`] beyond the shared outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationMfTelemetry {
    /// Total interactions accounted for, skipped steps included.
    pub interactions: u64,
    /// State-changing interactions actually sampled.
    pub effective_interactions: u64,
    /// Jump-chain batches executed.
    pub batches: u64,
    /// Whether the run converged.
    pub converged: bool,
}

impl Report {
    /// Rounds simulated, for the round-based engines (sync, urn, gossip
    /// dynamics, and their mean-field counterparts).
    pub fn rounds(&self) -> Option<u64> {
        match &self.telemetry {
            Telemetry::Sync(t) => Some(t.rounds),
            Telemetry::Urn(t) => Some(t.rounds),
            Telemetry::Gossip(t) | Telemetry::GossipMf(t) => Some(t.rounds),
            _ => None,
        }
    }

    /// The generation target `G*`, for the schedule-driven engines
    /// (sync, urn).
    pub fn g_star(&self) -> Option<u32> {
        match &self.telemetry {
            Telemetry::Sync(t) => Some(t.g_star),
            Telemetry::Urn(t) => Some(t.g_star),
            _ => None,
        }
    }

    /// The time-unit length `C1` in steps, for the event-driven engines
    /// (leader, cluster, leader-mf).
    pub fn steps_per_unit(&self) -> Option<f64> {
        match &self.telemetry {
            Telemetry::Leader(t) => Some(t.steps_per_unit),
            Telemetry::Cluster(t) => Some(t.steps_per_unit),
            Telemetry::LeaderMf(t) => Some(t.steps_per_unit),
            _ => None,
        }
    }

    /// Clock ticks processed, for the event-driven engines.
    pub fn ticks(&self) -> Option<u64> {
        match &self.telemetry {
            Telemetry::Leader(t) => Some(t.ticks),
            Telemetry::Cluster(t) => Some(t.ticks),
            _ => None,
        }
    }

    /// The single-leader per-generation phase telemetry.
    pub fn phases(&self) -> Option<&[GenerationPhase]> {
        match &self.telemetry {
            Telemetry::Leader(t) => Some(&t.phases),
            _ => None,
        }
    }

    /// Number of clusters created (multi-leader only).
    pub fn cluster_count(&self) -> Option<usize> {
        match &self.telemetry {
            Telemetry::Cluster(t) => Some(t.cluster_count),
            _ => None,
        }
    }

    /// Pairwise interactions executed (population protocols only).
    pub fn interactions(&self) -> Option<u64> {
        match &self.telemetry {
            Telemetry::Population(t) => Some(t.interactions),
            Telemetry::PopulationMf(t) => Some(t.interactions),
            _ => None,
        }
    }

    /// Peak undecided fraction (gossip dynamics only).
    pub fn peak_undecided(&self) -> Option<f64> {
        match &self.telemetry {
            Telemetry::Gossip(t) | Telemetry::GossipMf(t) => Some(t.peak_undecided),
            _ => None,
        }
    }

    /// Deterministic profiling counters, for the event-driven engines
    /// (leader, cluster).
    pub fn profile(&self) -> Option<&EngineProfile> {
        match &self.telemetry {
            Telemetry::Leader(t) => Some(&t.profile),
            Telemetry::Cluster(t) => Some(&t.profile),
            _ => None,
        }
    }

    /// Winner-fraction time series, where the engine recorded one
    /// ([`plurality_core::RecordLevel::Full`] sync / leader runs).
    pub fn winner_fraction(&self) -> Option<&Series> {
        match &self.telemetry {
            Telemetry::Sync(t) => t.winner_fraction.as_ref(),
            Telemetry::Leader(t) => t.winner_fraction.as_ref(),
            _ => None,
        }
    }
}

impl From<SyncResult> for Report {
    fn from(r: SyncResult) -> Self {
        let SyncResult {
            outcome,
            rounds,
            g_star,
            two_choices_rounds,
            newest_generation_fraction,
            winner_fraction,
            trace,
        } = r;
        Report {
            protocol: "sync",
            outcome,
            telemetry: Telemetry::Sync(SyncTelemetry {
                rounds,
                g_star,
                two_choices_rounds,
                newest_generation_fraction,
                winner_fraction,
            }),
            trace,
        }
    }
}

impl From<UrnResult> for Report {
    fn from(r: UrnResult) -> Self {
        let UrnResult {
            outcome,
            rounds,
            g_star,
        } = r;
        Report {
            protocol: "urn",
            outcome,
            telemetry: Telemetry::Urn(UrnTelemetry { rounds, g_star }),
            trace: None,
        }
    }
}

impl From<LeaderResult> for Report {
    fn from(r: LeaderResult) -> Self {
        let LeaderResult {
            outcome,
            steps_per_unit,
            phases,
            ticks,
            good_ticks,
            two_choices_promotions,
            propagation_promotions,
            winner_fraction,
            final_node_states,
            trace,
            profile,
        } = r;
        Report {
            protocol: "leader",
            outcome,
            telemetry: Telemetry::Leader(LeaderTelemetry {
                steps_per_unit,
                phases,
                ticks,
                good_ticks,
                two_choices_promotions,
                propagation_promotions,
                winner_fraction,
                final_node_states,
                profile,
            }),
            trace,
        }
    }
}

impl From<ClusterResult> for Report {
    fn from(r: ClusterResult) -> Self {
        let ClusterResult {
            outcome,
            steps_per_unit,
            cluster_count,
            participating_clusters,
            participating_fraction,
            clustered_fraction,
            first_switch_time,
            last_switch_time,
            phase_log,
            ticks,
            finished_fraction,
            trace,
            profile,
        } = r;
        Report {
            protocol: "cluster",
            outcome,
            telemetry: Telemetry::Cluster(ClusterTelemetry {
                steps_per_unit,
                cluster_count,
                participating_clusters,
                participating_fraction,
                clustered_fraction,
                first_switch_time,
                last_switch_time,
                phase_log,
                ticks,
                finished_fraction,
                profile,
            }),
            trace,
        }
    }
}

impl From<DynamicsResult> for Report {
    fn from(r: DynamicsResult) -> Self {
        let DynamicsResult {
            dynamics,
            outcome,
            rounds,
            peak_undecided,
            trace,
        } = r;
        Report {
            protocol: dynamics_protocol_name(dynamics),
            outcome,
            telemetry: Telemetry::Gossip(GossipTelemetry {
                dynamics,
                rounds,
                peak_undecided,
            }),
            trace,
        }
    }
}

impl From<LeaderMfResult> for Report {
    fn from(r: LeaderMfResult) -> Self {
        let LeaderMfResult {
            outcome,
            sub_steps,
            steps_per_unit,
            leader_generation,
            leader_terminal,
        } = r;
        Report {
            protocol: "leader-mf",
            outcome,
            telemetry: Telemetry::LeaderMf(LeaderMfTelemetry {
                sub_steps,
                steps_per_unit,
                leader_generation,
                leader_terminal,
            }),
            trace: None,
        }
    }
}

impl From<Majority3MfResult> for Report {
    fn from(r: Majority3MfResult) -> Self {
        let Majority3MfResult { outcome, rounds } = r;
        Report {
            protocol: "majority3-mf",
            outcome,
            telemetry: Telemetry::GossipMf(GossipTelemetry {
                dynamics: Dynamics::ThreeMajority,
                rounds,
                peak_undecided: 0.0,
            }),
            trace: None,
        }
    }
}

impl From<UndecidedMfResult> for Report {
    fn from(r: UndecidedMfResult) -> Self {
        let UndecidedMfResult {
            outcome,
            rounds,
            peak_undecided,
        } = r;
        Report {
            protocol: "undecided-mf",
            outcome,
            telemetry: Telemetry::GossipMf(GossipTelemetry {
                dynamics: Dynamics::Undecided,
                rounds,
                peak_undecided,
            }),
            trace: None,
        }
    }
}

impl From<PopulationMfResult> for Report {
    fn from(r: PopulationMfResult) -> Self {
        let PopulationMfResult {
            outcome,
            interactions,
            effective_interactions,
            batches,
            converged,
        } = r;
        Report {
            protocol: "population-mf",
            outcome,
            telemetry: Telemetry::PopulationMf(PopulationMfTelemetry {
                interactions,
                effective_interactions,
                batches,
                converged,
            }),
            trace: None,
        }
    }
}

impl From<PopulationResult> for Report {
    fn from(r: PopulationResult) -> Self {
        let PopulationResult {
            protocol,
            outcome,
            interactions,
            converged,
            trace,
        } = r;
        Report {
            protocol: population_protocol_name(protocol),
            outcome,
            telemetry: Telemetry::Population(PopulationTelemetry {
                protocol,
                interactions,
                converged,
            }),
            trace,
        }
    }
}
