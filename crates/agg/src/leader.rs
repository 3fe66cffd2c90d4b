//! Mean-field backend for the single-leader asynchronous protocol
//! (Algorithms 2 + 3) on the failure-free complete graph with
//! exponential latencies.
//!
//! The per-node engine is event-driven: every tick of every node enters
//! a queue. Here the population lives in count pools keyed by
//! `(generation, color, fresh | stale)` — *fresh* meaning the node's
//! stored leader copy `(seen_gen, seen_prop)` equals the leader's
//! current values — and time advances in fixed sub-steps `Δ`
//! (tau-leaping):
//!
//! * **Locks.** An unlocked node ticks at rate 1 and opens its three
//!   channels, so each unlocked pool loses `Binomial(count, 1 − e^{−Δ})`
//!   members per sub-step into the in-flight ring. The channel-phase
//!   duration `T′₂ = max(T₂, T₂) + T₂` is discretized into sub-step
//!   buckets by an empirical CDF over a *fixed-seed* sample (quadrature
//!   of a run-independent law, not process randomness). The sample is
//!   drawn once per process and bucketed by each run's `Δ`, and each
//!   locked batch is scattered over completion slots by one multinomial.
//! * **Completions.** A stale batch refreshes (Algorithm 2 lines 13–14)
//!   and returns to its pool fresh. A fresh batch applies the exact
//!   [`plurality_core::leader::decide`] rule *in law*: because peers are
//!   sampled uniformly and their states are read at completion time, the
//!   two-sample outcome distribution is a pure function of the current
//!   global `(gen, color)` fractions, enumerated exactly over the
//!   occupied cells and sampled with one multinomial per pool.
//! * **Leader.** Promotions into generation `i` feed per-generation
//!   in-flight gen-signal pools (exponential travel ⇒ memoryless
//!   `Binomial(pool, 1 − e^{−νΔ})` arrivals), batch-counted by
//!   [`plurality_core::leader::LeaderState::on_generation_batch`]. The
//!   0-signal stream is the same displaced-Poisson jump chain the
//!   per-node fast path uses ([`plurality_core::signalflow::SignalFlow`]
//!   at send rate `n`): the κ-th-arrival crossing time is drawn in
//!   closed form and applied at the following sub-step boundary. Every
//!   leader transition folds all fresh pools to stale — exactly the
//!   "stored copy no longer matches" predicate — including batches
//!   already in flight.
//!
//! The thresholds (`C₃·n` zero-signal window, `⌈n/2⌉` generation size,
//! `⌈log log_α n⌉` cap) and the time-unit estimate `c₁` are computed
//! exactly as in [`plurality_core::leader::LeaderConfig`], so the two
//! engines run the same protocol schedule. The tau-leap discretization
//! is the approximation; the cross-validation suite pins distributional
//! agreement with the event-driven engine at overlapping `n`.

use plurality_core::leader::{LeaderParams, LeaderState, LeaderTransition};
use plurality_core::signalflow::SignalFlow;
use plurality_core::sync::{generations_needed, GENERATION_CAP};
use plurality_core::{ConvergenceTracker, OpinionCounts, RunOutcome};
use plurality_dist::rng::Xoshiro256PlusPlus;
use plurality_dist::{
    multinomial_split, sample_binomial, ChannelPattern, InvalidParameterError, Latency,
    PreparedSplit, WaitingTime,
};
use std::sync::{Arc, Mutex, OnceLock};

use crate::biased_counts;

/// Fixed seed for the channel-phase ECDF quadrature. Constant by design:
/// the discretized phase law must depend only on the latency family, not
/// on the run seed, so that runs differ only through process randomness.
const PHASE_ECDF_SEED: u64 = 0x00EC_DF00;

/// Sample size for the channel-phase ECDF.
const PHASE_ECDF_SAMPLES: usize = 1 << 16;

/// The waiting-time law of the core model: `Exp(1)` latencies, one
/// leader channel.
fn core_waiting_time() -> WaitingTime {
    WaitingTime::new(
        Latency::exponential(1.0).expect("rate 1 valid"),
        ChannelPattern::SingleLeader,
    )
}

/// The fixed-seed channel-phase sample behind the ECDF, drawn once per
/// process (512 KB).
fn phase_samples() -> &'static [f64] {
    static SAMPLES: OnceLock<Vec<f64>> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let waiting = core_waiting_time();
        let mut ecdf_rng = Xoshiro256PlusPlus::from_u64(PHASE_ECDF_SEED);
        (0..PHASE_ECDF_SAMPLES)
            .map(|_| waiting.sample_channel_phase(&mut ecdf_rng))
            .collect()
    })
}

/// The channel-phase law bucketed by one sub-step `Δ`.
struct PhaseSplit {
    /// The split over completion offsets: every occupied offset but the
    /// last, whose draw is the split's residual.
    split: PreparedSplit,
    /// The number of completion offsets.
    offsets: usize,
}

/// The [`PhaseSplit`] at sub-step `dt`. The one for the last `dt` asked
/// for is kept, so back-to-back runs at one `dt` bucket the sample once.
fn phase_split(dt: f64) -> Arc<PhaseSplit> {
    static LAST: Mutex<Option<(u64, Arc<PhaseSplit>)>> = Mutex::new(None);
    if let Some((bits, split)) = &*LAST.lock().expect("phase split memo poisoned") {
        if *bits == dt.to_bits() {
            return Arc::clone(split);
        }
    }
    let mut buckets: Vec<u64> = Vec::new();
    for &phase in phase_samples() {
        let j = (phase / dt) as usize;
        if j >= buckets.len() {
            buckets.resize(j + 1, 0);
        }
        buckets[j] += 1;
    }
    let last_offset = buckets.len() - 1;
    let targets: Vec<(usize, f64)> = buckets[..last_offset]
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b > 0)
        .map(|(j, &b)| (j, b as f64 / PHASE_ECDF_SAMPLES as f64))
        .collect();
    let split = Arc::new(PhaseSplit {
        split: PreparedSplit::new(&targets),
        offsets: buckets.len(),
    });
    *LAST.lock().expect("phase split memo poisoned") = Some((dt.to_bits(), Arc::clone(&split)));
    split
}

/// Configuration for a mean-field single-leader run (facade spec name
/// `"leader-mf"`). Restricted to the paper's core model: complete
/// graph, unit-rate Poisson clocks, `Exp(1)` latencies, no failures —
/// the regime where pools are exchangeable.
///
/// # Examples
///
/// ```
/// use plurality_agg::LeaderMfConfig;
/// let r = LeaderMfConfig::new(1_000_000, 2, 4.0).unwrap().with_seed(1).run();
/// assert!(r.outcome.epsilon_time.is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderMfConfig {
    counts: Vec<u64>,
    epsilon: f64,
    seed: u64,
    dt: f64,
    max_time: Option<f64>,
}

impl LeaderMfConfig {
    /// The smallest accepted tau-leap sub-step `Δ`. A run's sub-steps and
    /// its completion ring both grow as `1/Δ`, and its cost faster: at
    /// `n = 10⁶`, `k = 4`, `α = 2` a run takes 0.33 s at `Δ = 1/16`,
    /// 1.8 s at `Δ = 1/64` and 3.4 s at `Δ = 0.01` (2-vCPU container),
    /// so a tiny `Δ` would hold a daemon worker far past its deadline.
    pub const MIN_DT: f64 = 1.0 / 64.0;

    /// Creates a configuration with the canonical biased start: opinion 0
    /// leads by the multiplicative factor `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] for invalid `(n, k, alpha)`.
    pub fn new(n: u64, k: u32, alpha: f64) -> Result<Self, InvalidParameterError> {
        Ok(Self::from_counts(biased_counts(n, k, alpha)?))
    }

    /// Creates a configuration from explicit per-opinion counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        Self {
            counts,
            epsilon: 0.05,
            seed: 0,
            dt: 0.125,
            max_time: None,
        }
    }

    /// Sets ε for ε-convergence reporting (default 0.05).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ∉ [0, 1]`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must lie in [0, 1]");
        self.epsilon = epsilon;
        self
    }

    /// Sets the RNG seed (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the tau-leap sub-step `Δ` (default 0.125 time units).
    /// Smaller values converge to the per-node law at proportionally
    /// more sub-steps.
    ///
    /// # Panics
    ///
    /// Panics if `dt ∉ [1/64, 1]` ([`LeaderMfConfig::MIN_DT`] is the floor).
    pub fn with_dt(mut self, dt: f64) -> Self {
        assert!(
            (Self::MIN_DT..=1.0).contains(&dt),
            "dt must lie in (0, 1] and be at least 1/64, got {dt}"
        );
        self.dt = dt;
        self
    }

    /// Caps the simulated time (default: the per-node engine's
    /// failure-free budget).
    ///
    /// # Panics
    ///
    /// Panics if `max_time` is not positive and finite.
    pub fn with_max_time(mut self, max_time: f64) -> Self {
        assert!(
            max_time > 0.0 && max_time.is_finite(),
            "max_time must be positive and finite"
        );
        self.max_time = Some(max_time);
        self
    }

    /// The split that scatters a batch of nodes locking in one sub-step
    /// over their completion offsets: the channel-phase law bucketed by
    /// this configuration's `Δ`.
    pub fn phase_split(&self) -> PreparedSplit {
        phase_split(self.dt).split.clone()
    }

    /// Runs the mean-field tau-leap process.
    ///
    /// # Panics
    ///
    /// Panics if the total population is below 2.
    pub fn run(&self) -> LeaderMfResult {
        run_leader_mf(self)
    }
}

/// Result of a mean-field single-leader run.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderMfResult {
    /// Common outcome report; times are in continuous time units.
    pub outcome: RunOutcome,
    /// Tau-leap sub-steps executed (the cost measure replacing ticks).
    pub sub_steps: u64,
    /// The `c₁` time-unit estimate shared with the per-node engine.
    pub steps_per_unit: f64,
    /// The leader's final allowed generation.
    pub leader_generation: u32,
    /// Whether the leader ended terminal (cap reached, propagation open).
    pub leader_terminal: bool,
}

/// An occupied `(gen, color)` cell of a sub-step's completion step, with
/// its dense index and its current count.
struct Occupied {
    gen: u32,
    col: usize,
    cell: usize,
    count: f64,
}

/// Dense cell index for `(gen, color)` pools.
#[inline]
fn cell(gen: u32, col: usize, k: usize) -> usize {
    gen as usize * k + col
}

fn run_leader_mf(cfg: &LeaderMfConfig) -> LeaderMfResult {
    let k = cfg.counts.len();
    let n: u64 = cfg.counts.iter().sum();
    assert!(n >= 2, "mean-field run needs at least 2 nodes");
    let nf = n as f64;
    let dt = cfg.dt;
    let mut rng = Xoshiro256PlusPlus::from_u64(cfg.seed);

    // --- Protocol schedule, mirroring LeaderConfig::run -------------------
    let c1 = core_waiting_time().time_unit_cached(20_000);
    let initial = OpinionCounts::from_counts(cfg.counts.clone());
    let initial_winner = initial.winner().expect("non-empty population");
    let initial_bias = initial.bias().unwrap_or(f64::INFINITY);
    let alpha = if initial_bias.is_finite() {
        initial_bias.max(1.0)
    } else {
        2.0
    };
    let cap = generations_needed(n, alpha, GENERATION_CAP);
    let two_choices_units = 2.0;
    let zero_signal_threshold = (nf * c1 * (two_choices_units + nf.ln() / nf.sqrt())).ceil() as u64;
    let gen_size_threshold = (nf * 0.5).ceil().max(1.0) as u64;
    let max_time = cfg.max_time.unwrap_or_else(|| {
        c1 * f64::from(cap + 2) * (2.0 * f64::from(k as u32 + 2).log2() + 12.0)
            + 10.0 * nf.ln()
            + 100.0
    });

    let mut leader = LeaderState::new(LeaderParams {
        zero_signal_threshold,
        gen_size_threshold,
        generation_cap: cap,
    });
    // Displaced-Poisson 0-signal stream: every node ticks at rate 1 and
    // each signal travels an Exp(1) latency, so the arrival intensity at
    // the leader relaxes from 0 towards n with time constant 1.
    let mut zero_flow = SignalFlow::new(1.0);
    zero_flow.set_rate(0.0, nf);
    zero_flow.arm(0.0, zero_signal_threshold, &mut rng);

    // --- Channel-phase quadrature ----------------------------------------
    // Completion slot offsets: a node locking in sub-step s completes in
    // sub-step s + 1 + ⌊phase/Δ⌋ (the +1 centers the tick-time jitter
    // within the locking sub-step).
    let phase = phase_split(dt);
    let offsets = phase.offsets;
    let last_offset = offsets - 1;
    let ring_len = offsets + 1;

    // --- Pools ------------------------------------------------------------
    let cells = (cap as usize + 1) * k;
    // Unlocked pools by freshness; `total` additionally covers in-flight
    // nodes (peer samples read *current* states, locked or not).
    let mut unlocked_fresh = vec![0u64; cells];
    let mut unlocked_stale = vec![0u64; cells];
    let mut total = vec![0u64; cells];
    for (c, &m) in cfg.counts.iter().enumerate() {
        // Nodes start at generation 0 with a zeroed leader copy, which
        // mismatches the leader's initial (1, false): everyone is stale.
        unlocked_stale[cell(0, c, k)] = m;
        total[cell(0, c, k)] = m;
    }
    // ring[slot] = (fresh, stale) in-flight counts per cell.
    let mut ring_fresh = vec![vec![0u64; cells]; ring_len];
    let mut ring_stale = vec![vec![0u64; cells]; ring_len];
    // In-flight gen-signals per generation (Exp(1) travel).
    let mut inflight_signals = vec![0u64; cap as usize + 1];

    let mut tracker = ConvergenceTracker::new(n, initial_winner, cfg.epsilon);
    let winner_idx = initial_winner.index() as usize;
    let support =
        |total: &[u64], col: usize| -> u64 { (0..=cap).map(|g| total[cell(g, col, k)]).sum() };
    let observe = |total: &[u64], tracker: &mut ConvergenceTracker, t: f64| {
        let winner_support = support(total, winner_idx);
        let max_support = (0..k).map(|c| support(total, c)).max().unwrap_or(0);
        tracker.observe(t, winner_support, max_support);
    };
    observe(&total, &mut tracker, 0.0);

    // Fold every fresh pool (unlocked and in flight) to stale: the
    // leader transitioned, so all stored copies are outdated at once.
    let fold_fresh = |unlocked_fresh: &mut [u64],
                      unlocked_stale: &mut [u64],
                      ring_fresh: &mut [Vec<u64>],
                      ring_stale: &mut [Vec<u64>]| {
        for (f, s) in unlocked_fresh.iter_mut().zip(unlocked_stale.iter_mut()) {
            *s += *f;
            *f = 0;
        }
        for (rf, rs) in ring_fresh.iter_mut().zip(ring_stale.iter_mut()) {
            for (f, s) in rf.iter_mut().zip(rs.iter_mut()) {
                *s += *f;
                *f = 0;
            }
        }
    };

    let p_lock = 1.0 - (-dt).exp();
    let p_arrival = 1.0 - (-dt).exp(); // ν = 1 travel rate
    let mut sub_steps = 0u64;
    let mut t = 0.0f64;
    let mut slot = 0usize;
    // Scratch buffers reused across sub-steps. `scattered` and `by_slot`
    // are all-zero between uses: each reader takes what it reads.
    let mut occupied: Vec<Occupied> = Vec::new();
    let mut targets: Vec<(usize, f64)> = Vec::new();
    let mut target_mass = vec![0.0f64; cells];
    let mut scattered = vec![0u64; cells];
    let mut by_slot = vec![0u64; offsets];

    while !tracker.is_consensus() && t < max_time {
        sub_steps += 1;
        let t_next = t + dt;

        // 1. 0-signal window crossing (jump chain, applied at the
        //    boundary of the sub-step containing the predicted time).
        if !leader.is_terminal() && zero_flow.pred() <= t {
            let missing = zero_signal_threshold - leader.zero_count();
            if let Some(LeaderTransition::PropagationEnabled { .. }) = leader.on_zero_batch(missing)
            {
                fold_fresh(
                    &mut unlocked_fresh,
                    &mut unlocked_stale,
                    &mut ring_fresh,
                    &mut ring_stale,
                );
            }
            zero_flow.disarm(t);
        }

        // 2. Gen-signal arrivals from the in-flight pools.
        for g in 1..=cap {
            let pool = inflight_signals[g as usize];
            if pool == 0 {
                continue;
            }
            let arrivals = sample_binomial(pool, p_arrival, &mut rng);
            inflight_signals[g as usize] = pool - arrivals;
            if arrivals == 0 || leader.is_terminal() {
                continue;
            }
            if let Some(LeaderTransition::GenerationAllowed { .. }) =
                leader.on_generation_batch(g, arrivals)
            {
                fold_fresh(
                    &mut unlocked_fresh,
                    &mut unlocked_stale,
                    &mut ring_fresh,
                    &mut ring_stale,
                );
                // New window: the counter restarts at the birth.
                zero_flow.arm(t, zero_signal_threshold, &mut rng);
            }
        }

        // 3. Completions due in this sub-step.
        let lg = leader.generation();
        let prop = leader.propagation();
        // Stale batches refresh and return unlocked (nothing else).
        for (c, pool) in ring_stale[slot].iter_mut().enumerate() {
            if *pool > 0 {
                unlocked_fresh[c] += *pool;
                *pool = 0;
            }
        }
        // Fresh batches decide against the current fractions.
        if ring_fresh[slot].iter().any(|&m| m > 0) {
            occupied.clear();
            occupied.extend((0..cells).filter(|&c| total[c] > 0).map(|c| Occupied {
                gen: (c / k) as u32,
                col: c % k,
                cell: c,
                count: 0.0,
            }));
            for g in 0..=cap {
                let row = &mut ring_fresh[slot][cell(g, 0, k)..cell(g, 0, k) + k];
                if row.iter().all(|&m| m == 0) {
                    continue;
                }
                // Outcome distribution for a fresh gen-g node: exact
                // enumeration of ordered sample pairs over occupied
                // cells (decide() reads only the samples' (gen, col)).
                targets.clear();
                target_mass.fill(0.0);
                // Earlier rows' moves change `total`: refresh the counts.
                for o in &mut occupied {
                    o.count = total[o.cell] as f64;
                }
                let mut move_mass = 0.0f64;
                for o1 in &occupied {
                    let (g1, col1) = (o1.gen, o1.col);
                    let f1 = o1.count / nf;
                    for o2 in &occupied {
                        let (g2, col2) = (o2.gen, o2.col);
                        let pr = f1 * o2.count / nf;
                        // Two-choices (line 6): no own-generation guard.
                        if !prop && lg >= 1 && g1 == g2 && g1 + 1 == lg && col1 == col2 {
                            target_mass[cell(lg, col1, k)] += pr;
                            move_mass += pr;
                            continue;
                        }
                        // Propagation (line 9): best qualifying sample,
                        // first sample winning generation ties.
                        let q1 = g1 > g && (g1 < lg || prop);
                        let q2 = g2 > g && (g2 < lg || prop);
                        let best = if q1 && (!q2 || g1 >= g2) {
                            Some((g1, col1))
                        } else if q2 {
                            Some((g2, col2))
                        } else {
                            None
                        };
                        if let Some((bg, bc)) = best {
                            target_mass[cell(bg, bc, k)] += pr;
                            move_mass += pr;
                        }
                    }
                }
                if move_mass <= 0.0 {
                    // Nothing can fire: the whole row returns unlocked.
                    for (col, m) in row.iter_mut().enumerate() {
                        if *m > 0 {
                            unlocked_fresh[cell(g, col, k)] += *m;
                            *m = 0;
                        }
                    }
                    continue;
                }
                targets.extend(
                    target_mass
                        .iter()
                        .enumerate()
                        .filter(|&(_, &m)| m > 0.0)
                        .map(|(c, &m)| (c, m)),
                );
                for col in 0..k {
                    let m = row[col];
                    if m == 0 {
                        continue;
                    }
                    row[col] = 0;
                    let stayed = multinomial_split(m, &targets, &mut scattered, &mut rng);
                    unlocked_fresh[cell(g, col, k)] += stayed;
                    let src = cell(g, col, k);
                    for &(dst, _) in &targets {
                        let moved = std::mem::take(&mut scattered[dst]);
                        if moved == 0 {
                            continue;
                        }
                        unlocked_fresh[dst] += moved;
                        total[src] -= moved;
                        total[dst] += moved;
                        let dst_gen = (dst / k) as u32;
                        if dst_gen > g && !leader.is_terminal() {
                            // Promotion: gen-signal departs towards the
                            // leader with Exp(1) travel.
                            inflight_signals[dst_gen as usize] += moved;
                        }
                    }
                }
            }
        }

        // 4. Locks: unlocked nodes tick at rate 1 and enter the ring.
        for c in 0..cells {
            for (pools, ring) in [
                (&mut unlocked_fresh, &mut ring_fresh),
                (&mut unlocked_stale, &mut ring_stale),
            ] {
                let m = pools[c];
                if m == 0 {
                    continue;
                }
                let locked = sample_binomial(m, p_lock, &mut rng);
                if locked == 0 {
                    continue;
                }
                pools[c] = m - locked;
                let stayed = phase.split.split(locked, &mut by_slot, &mut rng);
                by_slot[last_offset] += stayed;
                for (j, batch) in by_slot.iter_mut().enumerate() {
                    if *batch > 0 {
                        ring[(slot + 1 + j) % ring_len][c] += std::mem::take(batch);
                    }
                }
            }
        }

        t = t_next;
        slot = (slot + 1) % ring_len;
        observe(&total, &mut tracker, t);
    }

    let final_counts = OpinionCounts::from_counts((0..k).map(|c| support(&total, c)).collect());
    let outcome = RunOutcome {
        n,
        k: k as u32,
        initial_winner,
        initial_bias,
        final_counts,
        epsilon_time: tracker.epsilon_time(),
        consensus_time: tracker.consensus_time(),
        duration: t,
        generations: Vec::new(),
    };
    LeaderMfResult {
        outcome,
        sub_steps,
        steps_per_unit: c1,
        leader_generation: leader.generation(),
        leader_terminal: leader.is_terminal(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_and_preserves_plurality() {
        let r = LeaderMfConfig::new(1_000_000, 2, 4.0)
            .unwrap()
            .with_seed(1)
            .run();
        assert!(r.outcome.consensus_time.is_some(), "did not converge");
        assert!(r.outcome.plurality_preserved());
        assert_eq!(r.outcome.final_counts.n(), 1_000_000);
        assert!(r.leader_generation >= 1);
    }

    #[test]
    fn hundred_million_nodes_run_in_bounded_sub_steps() {
        let start = std::time::Instant::now();
        let r = LeaderMfConfig::new(100_000_000, 2, 4.0)
            .unwrap()
            .with_seed(2)
            .run();
        assert!(r.outcome.epsilon_time.is_some(), "no ε-convergence");
        assert!(r.outcome.plurality_preserved());
        assert!(start.elapsed().as_secs() < 30, "took {:?}", start.elapsed());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = LeaderMfConfig::new(200_000, 3, 3.0)
            .unwrap()
            .with_seed(7)
            .run();
        let b = LeaderMfConfig::new(200_000, 3, 3.0)
            .unwrap()
            .with_seed(7)
            .run();
        assert_eq!(a, b);
    }

    #[test]
    fn runs_at_alternating_dt_match_runs_at_one_dt() {
        // The phase split is kept for the last dt only: switching away
        // and back must rebuild the same split.
        let run = |dt| {
            LeaderMfConfig::new(100_000, 2, 3.0)
                .unwrap()
                .with_seed(8)
                .with_dt(dt)
                .run()
        };
        let first = run(0.5);
        assert_ne!(run(0.25), first);
        assert_eq!(run(0.5), first);
    }

    #[test]
    #[should_panic(expected = "at least 1/64")]
    fn dt_below_one_sixty_fourth_is_refused() {
        let _ = LeaderMfConfig::from_counts(vec![600, 400]).with_dt(0.01);
    }

    #[test]
    #[should_panic(expected = "max_time must be positive and finite")]
    fn infinite_max_time_is_refused() {
        let _ = LeaderMfConfig::from_counts(vec![600, 400]).with_max_time(f64::INFINITY);
    }

    #[test]
    fn smaller_dt_still_converges_correctly() {
        let r = LeaderMfConfig::new(500_000, 2, 4.0)
            .unwrap()
            .with_seed(3)
            .with_dt(0.0625)
            .run();
        assert!(r.outcome.plurality_preserved());
    }

    #[test]
    fn leader_advances_generations() {
        let r = LeaderMfConfig::new(1_000_000, 2, 3.0)
            .unwrap()
            .with_seed(4)
            .run();
        // With α₀ = 3 and n = 10⁶ the cap is ≥ 2: at least one birth
        // must have happened on the way to consensus.
        assert!(r.leader_generation >= 2, "gen {}", r.leader_generation);
    }

    #[test]
    fn population_is_conserved_even_without_convergence() {
        let r = LeaderMfConfig::new(10_000, 2, 1.05)
            .unwrap()
            .with_seed(5)
            .with_max_time(30.0)
            .run();
        assert_eq!(r.outcome.final_counts.n(), 10_000);
    }
}
