//! The price of a run before it starts: [`Cost`] and the event models
//! behind [`crate::Protocol::cost`].
//!
//! Every model is closed-form arithmetic on the resolved configuration:
//! no engine runs, no RNG is drawn and no Monte-Carlo time-unit estimate
//! is made. Each counts the engine's own unit of work:
//!
//! | engines | events |
//! |---|---|
//! | `leader`, `cluster` | clock ticks + event-queue pops |
//! | `sync`, gossip dynamics | rounds × n node updates |
//! | population protocols | interactions |
//! | `urn`, `majority3-mf`, `undecided-mf` | rounds × pools |
//! | `leader-mf` | sub-steps × pools |
//! | `population-mf` | batches × pools |
//!
//! The constants are fitted to runs on the complete graph at
//! n = 10²–10⁴; `crates/api/tests/cost_model.rs` holds the measured
//! counters within a stated factor of the price. Off the complete graph
//! the per-node engines often never reach full consensus, so those runs
//! are priced at their duration cap.

use crate::config::RunConfig;
use plurality_core::sync::{generations_needed, Schedule, GENERATION_CAP};
use plurality_core::InitialAssignment;
use plurality_dist::Latency;
use plurality_topology::Topology;

/// What a run will cost, known before it starts — see
/// [`crate::Protocol::cost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// Expected engine work in elementary events (at least 1); the unit
    /// is each engine's own, listed in the module docs.
    pub events: u64,
}

impl Cost {
    /// Rounds a modelled event count to a price of at least one event.
    pub(crate) fn of(events: f64) -> Self {
        // `as` saturates at u64::MAX and maps NaN to 0.
        Self {
            events: (events.ceil() as u64).max(1),
        }
    }
}

/// Steps per time unit `C1` per unit of mean latency: the exponential
/// law's Monte-Carlo `C1` (8.74 single-leader, 9.26 multi-leader)
/// rounded. Lighter-tailed laws read 5–7, heavier ones more.
const C1_PER_MEAN_LATENCY: f64 = 9.0;

/// Ticks plus pops per node per simulated step: about one tick and a
/// fifth of a pop.
const EVENTS_PER_NODE_STEP: f64 = 1.2;

/// Time units per generation on the complete graph with exponential
/// latency, fitted: the multi-leader protocol's include its cluster
/// phases.
const LEADER_UNITS_PER_GENERATION: f64 = 2.6;
const CLUSTER_UNITS_PER_GENERATION: f64 = 5.0;

/// The run's initial multiplicative bias (largest over second-largest
/// count), at least 1; infinite when one opinion holds everyone.
fn initial_bias(assignment: &InitialAssignment) -> f64 {
    match assignment {
        InitialAssignment::Exact(counts) => {
            let (mut first, mut second) = (0u64, 0u64);
            for &c in counts {
                if c > first {
                    (first, second) = (c, first);
                } else if c > second {
                    second = c;
                }
            }
            first as f64 / second as f64
        }
        InitialAssignment::Uniform { .. } => 1.0,
        // Zipf weights fall as 1/rank^s, so the top two stand at 2^s.
        InitialAssignment::Zipf { s, .. } => 2f64.powf(*s),
    }
}

/// Opinion A's initial support in a two-opinion assignment (a Zipf
/// split at its expected share).
pub(crate) fn initial_a(assignment: &InitialAssignment) -> u64 {
    match assignment {
        InitialAssignment::Exact(counts) => counts.first().copied().unwrap_or(0),
        InitialAssignment::Uniform { n, .. } => n - n / 2,
        InitialAssignment::Zipf { n, s, .. } => {
            let head = 2f64.powf(*s);
            (*n as f64 * head / (head + 1.0)) as u64
        }
    }
}

/// `generations_needed` for the run's own bias: the generations the
/// paper's protocols create before the bias exceeds `n`.
fn generations(n: u64, alpha: f64) -> f64 {
    f64::from(generations_needed(
        n.max(2),
        alpha.min(n as f64),
        GENERATION_CAP,
    ))
}

fn ln(n: u64) -> f64 {
    (n.max(2) as f64).ln()
}

/// `ln ln n`, at least 1.
fn ln_ln(n: u64) -> f64 {
    ln(n).max(std::f64::consts::E).ln()
}

/// The gossip engines' default round cap, `⌈200 log₂ n⌉ + 200`.
fn gossip_round_cap(n: u64) -> f64 {
    (200.0 * (n.max(2) as f64).log2()).ceil() + 200.0
}

/// Rounds of the paper's synchronous protocol: consensus comes at about
/// 0.6 of the last scheduled two-choices round, plus `2 log₂ k`; off the
/// complete graph,
/// the engine's derived cap (the schedule plus `4⌈log₂ n⌉ + 100`).
pub(crate) fn sync_rounds(cfg: &RunConfig, gamma: Option<f64>, alpha_hint: Option<f64>) -> f64 {
    let (n, k) = (cfg.n().max(2), cfg.k().max(1));
    let alpha = alpha_hint
        .unwrap_or_else(|| initial_bias(cfg.assignment()))
        .clamp(1.0, n as f64);
    let last = Schedule::predefined(n, k, alpha, gamma.unwrap_or(0.5)).final_round() as f64;
    let rounds = if cfg.topology() == Topology::Complete {
        0.6 * last + 2.0 * f64::from(k).log2()
    } else {
        last + 4.0 * (n as f64).log2().ceil() + 100.0
    };
    capped(rounds, cfg.max_duration().map(f64::ceil))
}

/// Rounds of a biased gossip dynamic on the complete graph: an
/// `ln ln n` endgame plus `ln k / ln α` rounds to lift the plurality out
/// of the crowd (`undecided` pays ~1.4× both); pull voting has no bias
/// amplification and drifts for ~1.5 n rounds. Capped at the engine's
/// round cap, which is also the price off the complete graph.
pub(crate) fn gossip_rounds(cfg: &RunConfig, pull: bool, undecided: bool) -> f64 {
    let n = cfg.n().max(2);
    let cap = cfg
        .max_duration()
        .map_or_else(|| gossip_round_cap(n), f64::ceil);
    if cfg.topology() != Topology::Complete {
        return cap;
    }
    let lift = f64::from(cfg.k().max(2)).ln() / initial_bias(cfg.assignment()).ln();
    let rounds = match (pull, undecided) {
        (true, _) => 1.5 * n as f64,
        (false, false) => 2.0 * ln_ln(n) + 2.5 * lift,
        (false, true) => 3.0 * ln_ln(n) + 3.5 * lift,
    };
    capped(rounds, Some(cap))
}

/// Interactions of a two-opinion population protocol from `a` nodes of
/// opinion A: ~1.7 n ln n for approximate majority; n ln n · n / |A − B|
/// for exact majority, whose gap drives it. Off the complete graph, and
/// for an exact-majority tie, the engine's default cap.
pub(crate) fn population_interactions(cfg: &RunConfig, a: u64, exact: bool) -> f64 {
    let n = cfg.n().max(2);
    let (nf, gap) = (n as f64, a.abs_diff(n.saturating_sub(a)));
    let cap = match cfg.max_duration() {
        Some(max) => (max * nf).ceil(),
        None if exact => 50.0 * nf * nf * ln(n) / gap.max(1) as f64,
        None => 500.0 * nf * ln(n),
    };
    let interactions = if cfg.topology() != Topology::Complete || (exact && gap == 0) {
        cap
    } else if exact {
        nf * ln(n) * nf / gap as f64
    } else {
        1.7 * nf * ln(n)
    };
    interactions.min(cap)
}

/// Ticks plus pops of an asynchronous per-node run (`leader` when
/// `multi` is false, `cluster` when true): `n` nodes ticking for `G`
/// generations of a few time units of `C1` steps each. Off the complete
/// graph, the engine's derived time cap.
pub(crate) fn async_events(
    cfg: &RunConfig,
    latency: Option<Latency>,
    steps_per_unit: Option<f64>,
    multi: bool,
) -> f64 {
    let n = cfg.n().max(2);
    let c1 =
        steps_per_unit.unwrap_or_else(|| C1_PER_MEAN_LATENCY * latency.map_or(1.0, |l| l.mean()));
    let g = generations(n, initial_bias(cfg.assignment()));
    let steps = if cfg.topology() == Topology::Complete {
        let units = if multi {
            CLUSTER_UNITS_PER_GENERATION
        } else {
            LEADER_UNITS_PER_GENERATION
        };
        c1 * units * g
    } else {
        // Mirrors the engines' derived caps (leader and cluster
        // `max_time`): generation phases, plus cluster formation.
        let colors = (f64::from(cfg.k()) + 2.0).log2();
        if multi {
            c1 * (17.0 + (g + 2.0) * (2.0 * colors + 16.0)) + 12.0 * ln(n) + 200.0
        } else {
            c1 * (g + 2.0) * (2.0 * colors + 12.0) + 10.0 * ln(n) + 100.0
        }
    };
    EVENTS_PER_NODE_STEP * n as f64 * capped(steps, cfg.max_duration())
}

/// Pool updates of the mean-field single leader: ~22.5 steps per
/// generation in sub-steps of `dt` (default 1/8), over the `(G + 1) · k`
/// generation-color pools.
pub(crate) fn leader_mf_events(cfg: &RunConfig, dt: Option<f64>) -> f64 {
    let n = cfg.n().max(2);
    let (g, dt) = (
        generations(n, initial_bias(cfg.assignment())),
        dt.unwrap_or(0.125),
    );
    let sub_steps = capped(22.5 * g / dt, cfg.max_duration().map(|max| max / dt));
    sub_steps * (g + 1.0) * f64::from(cfg.k())
}

/// Pool updates of the mean-field gossip dynamics: [`gossip_rounds`]
/// times the pools (`k` colors, plus the undecided pool).
pub(crate) fn gossip_mf_events(cfg: &RunConfig, undecided: bool) -> f64 {
    let pools = f64::from(cfg.k()) + f64::from(u8::from(undecided));
    gossip_rounds(cfg, false, undecided) * pools
}

/// Pool updates of the mean-field approximate majority: ~3.8 (ln n)²
/// jump-chain batches over its four pair types.
pub(crate) fn population_mf_events(cfg: &RunConfig) -> f64 {
    let batches = 3.8 * ln(cfg.n()).powi(2);
    4.0 * capped(batches, cfg.max_duration().map(|max| max * cfg.n() as f64))
}

fn capped(value: f64, cap: Option<f64>) -> f64 {
    cap.map_or(value, |cap| value.min(cap))
}
