//! The runtime environment an engine polls while it runs.

use crate::script::{Action, AdversaryMode, Scenario};
use plurality_dist::rng::Xoshiro256PlusPlus;
use plurality_dist::InvalidParameterError;
use plurality_topology::{PeerSampler, Topology};
use rand::Rng;

/// Sentinel in `alive_pos` marking a crashed node.
const CRASHED: u32 = u32::MAX;

/// A state change the environment asks the engine to apply (or informs
/// it about) when the clock passes a scripted event.
///
/// Crash/recover bookkeeping lives inside the environment — engines
/// query [`Environment::is_crashed`] on their hot paths — so the node
/// lists here are informational (telemetry, tests). [`Effect::Joined`],
/// [`Effect::Corrupt`] and [`Effect::Rewired`] require engine action:
/// joins and corruptions touch engine-owned state tables, and the
/// sampler swap replaces the engine's local peer sampler.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// These nodes just crashed (their state freezes in place).
    Crashed(Vec<u32>),
    /// These nodes just recovered, resuming their frozen state.
    Recovered(Vec<u32>),
    /// These slots were re-filled with fresh nodes: the engine must
    /// reset each node to generation 0 with the given opinion and clear
    /// any protocol flags it keeps for it.
    Joined(Vec<(u32, u32)>),
    /// The adversary spends its budget now: the engine must call
    /// [`Environment::corruption_targets`] with its current opinion
    /// array and apply the returned re-colorings through its own
    /// bookkeeping.
    Corrupt {
        /// Maximum number of nodes corrupted (`⌈fraction·n⌉`).
        budget: u64,
        /// How victims are chosen.
        mode: AdversaryMode,
    },
    /// The effective message-loss probability changed (burst started,
    /// ended, or overlapped). Engines usually just query
    /// [`Environment::loss`] / [`Environment::message_lost`] instead.
    LossChanged(f64),
    /// The effective latency factor changed. Engines usually just query
    /// [`Environment::latency_scale`] instead.
    LatencyScaleChanged(f64),
    /// Peer sampling must switch to this freshly built sampler.
    Rewired(PeerSampler),
}

/// One compiled timeline entry. Windowed script events become two
/// entries (start/end) sharing a regime id.
#[derive(Debug, Clone, Copy)]
enum Change {
    Crash(f64),
    Recover(f64),
    Join(f64),
    Corrupt(f64, AdversaryMode),
    StartLoss(u32, f64),
    EndLoss(u32),
    StartLatency(u32, f64),
    EndLatency(u32),
    Rewire(Topology),
}

/// The mutable scenario runtime for one run: a compiled event timeline,
/// the crash roster, the active loss/latency regimes, and a private RNG
/// that owns **all** scenario randomness.
///
/// Created via [`Scenario::instantiate`] / [`Scenario::for_run`]. An
/// engine reads [`Environment::next_time`] to know when to poll; the
/// hot-path cost of a message outside bursts is the `loss == 0` branch
/// in [`Environment::message_lost`].
#[derive(Debug, Clone)]
pub struct Environment {
    n: usize,
    k: u32,
    rng: Xoshiro256PlusPlus,
    timeline: Vec<(f64, Change)>,
    next: usize,
    /// Alive node ids, unordered; shrunk/grown by crash/recover.
    alive: Vec<u32>,
    /// `alive_pos[v]` = index of `v` in `alive`, or [`CRASHED`].
    alive_pos: Vec<u32>,
    /// Crashed node ids, unordered.
    crashed: Vec<u32>,
    active_loss: Vec<(u32, f64)>,
    active_latency: Vec<(u32, f64)>,
    loss: f64,
    latency_scale: f64,
}

impl Environment {
    pub(crate) fn new(
        scenario: &Scenario,
        n: usize,
        k: u32,
        seed: u64,
    ) -> Result<Self, InvalidParameterError> {
        if n == 0 {
            return Err(InvalidParameterError::new(
                "environment needs at least one node",
            ));
        }
        match u32::try_from(n) {
            Ok(v) if v != CRASHED => {}
            _ => {
                return Err(InvalidParameterError::new(format!(
                    "population {n} exceeds the u32 node-id space"
                )))
            }
        }
        if k == 0 {
            return Err(InvalidParameterError::new(
                "environment needs at least one opinion",
            ));
        }
        let mut timeline: Vec<(f64, Change)> = Vec::with_capacity(scenario.len() * 2);
        let mut regime_id = 0u32;
        for event in scenario.events() {
            match event.action {
                Action::Crash { fraction } => timeline.push((event.at, Change::Crash(fraction))),
                Action::Recover { fraction } => {
                    timeline.push((event.at, Change::Recover(fraction)))
                }
                Action::Join { fraction } => timeline.push((event.at, Change::Join(fraction))),
                Action::Corrupt { fraction, mode } => {
                    timeline.push((event.at, Change::Corrupt(fraction, mode)))
                }
                Action::BurstLoss { p } => {
                    let id = regime_id;
                    regime_id += 1;
                    timeline.push((event.at, Change::StartLoss(id, p)));
                    timeline.push((event.until.expect("validated"), Change::EndLoss(id)));
                }
                Action::LatencyScale { factor } => {
                    let id = regime_id;
                    regime_id += 1;
                    timeline.push((event.at, Change::StartLatency(id, factor)));
                    if let Some(until) = event.until {
                        timeline.push((until, Change::EndLatency(id)));
                    }
                }
                Action::Rewire { topology } => timeline.push((event.at, Change::Rewire(topology))),
                // Run-long actions are engine parameters, never polled.
                Action::SignalLoss { .. } | Action::Stragglers { .. } => {}
            }
        }
        // Stable sort: simultaneous events fire in script order.
        timeline.sort_by(|a, b| a.0.total_cmp(&b.0));
        Ok(Self {
            n,
            k,
            rng: Xoshiro256PlusPlus::from_u64(seed),
            timeline,
            next: 0,
            alive: (0..n as u32).collect(),
            alive_pos: (0..n as u32).collect(),
            crashed: Vec::new(),
            active_loss: Vec::new(),
            active_latency: Vec::new(),
            loss: 0.0,
            latency_scale: 1.0,
        })
    }

    /// The population size the environment was instantiated for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether node `v` is currently crashed.
    #[inline(always)]
    pub fn is_crashed(&self, v: u32) -> bool {
        self.alive_pos[v as usize] == CRASHED
    }

    /// Number of currently alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.len()
    }

    /// Number of currently crashed nodes.
    pub fn crashed_count(&self) -> usize {
        self.crashed.len()
    }

    /// The effective message-loss probability right now (`1 − Π(1 − pᵢ)`
    /// over active bursts; 0 outside bursts).
    #[inline(always)]
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// The effective latency multiplier right now (product of active
    /// regime factors; 1 outside regimes).
    #[inline(always)]
    pub fn latency_scale(&self) -> f64 {
        self.latency_scale
    }

    /// Flips one loss coin against the current burst probability, using
    /// the environment's private RNG. Free (no draw) outside bursts.
    #[inline(always)]
    pub fn message_lost(&mut self) -> bool {
        self.loss > 0.0 && self.rng.gen::<f64>() < self.loss
    }

    /// The time of the next timeline entry not yet fired, or infinity
    /// once every entry has fired.
    #[inline]
    pub fn next_time(&self) -> f64 {
        self.timeline.get(self.next).map_or(f64::INFINITY, |e| e.0)
    }

    /// Advances the environment clock to `now`, firing every timeline
    /// entry with time ≤ `now` in order, and returns the effects the
    /// engine must apply (none if no entry is due): the asynchronous
    /// engines poll at each [`Environment::next_time`], round engines
    /// every step.
    pub fn poll(&mut self, now: f64) -> Vec<Effect> {
        let mut effects = Vec::new();
        while self.next < self.timeline.len() && self.timeline[self.next].0 <= now {
            let (_, change) = self.timeline[self.next];
            self.next += 1;
            match change {
                Change::Crash(fraction) => {
                    let budget = self.budget(fraction).min(self.alive.len());
                    effects.push(Effect::Crashed(self.crash_nodes(budget)));
                }
                Change::Recover(fraction) => {
                    let budget = self.budget(fraction).min(self.crashed.len());
                    let nodes: Vec<u32> = (0..budget).map(|_| self.revive_one()).collect();
                    effects.push(Effect::Recovered(nodes));
                }
                Change::Join(fraction) => {
                    let budget = self.budget(fraction).min(self.crashed.len());
                    let joins: Vec<(u32, u32)> = (0..budget)
                        .map(|_| {
                            let v = self.revive_one();
                            let color = self.rng.gen_range(0..self.k);
                            (v, color)
                        })
                        .collect();
                    effects.push(Effect::Joined(joins));
                }
                Change::Corrupt(fraction, mode) => effects.push(Effect::Corrupt {
                    budget: self.budget(fraction) as u64,
                    mode,
                }),
                Change::StartLoss(id, p) => {
                    self.active_loss.push((id, p));
                    self.recompute_loss();
                    effects.push(Effect::LossChanged(self.loss));
                }
                Change::EndLoss(id) => {
                    self.active_loss.retain(|&(i, _)| i != id);
                    self.recompute_loss();
                    effects.push(Effect::LossChanged(self.loss));
                }
                Change::StartLatency(id, factor) => {
                    self.active_latency.push((id, factor));
                    self.recompute_latency();
                    effects.push(Effect::LatencyScaleChanged(self.latency_scale));
                }
                Change::EndLatency(id) => {
                    self.active_latency.retain(|&(i, _)| i != id);
                    self.recompute_latency();
                    effects.push(Effect::LatencyScaleChanged(self.latency_scale));
                }
                Change::Rewire(topology) => {
                    let seed = self.rng.gen::<u64>();
                    let sampler = topology
                        .build(self.n, seed)
                        .expect("rewire topology validated at instantiation");
                    effects.push(Effect::Rewired(sampler));
                }
            }
        }
        effects
    }

    /// Chooses the adversary's victims for one [`Effect::Corrupt`]:
    /// up to `budget` distinct alive nodes with their new opinions, drawn
    /// from the environment's private RNG.
    ///
    /// * [`AdversaryMode::Oblivious`] — uniform alive victims, each
    ///   re-colored uniformly in `0..k` (a draw may repeat the victim's
    ///   current color; engines skip no-op assignments).
    /// * [`AdversaryMode::Adaptive`] — victims are uniform among alive
    ///   nodes holding the currently-leading opinion (computed from
    ///   `colors`, ignoring entries ≥ `k` such as the undecided
    ///   sentinel), re-colored to the strongest rival opinion. Ties
    ///   break towards the lowest opinion index.
    ///
    /// `colors[v]` must be node `v`'s current opinion index.
    pub fn corruption_targets(
        &mut self,
        budget: u64,
        mode: AdversaryMode,
        colors: &[u32],
        k: u32,
    ) -> Vec<(u32, u32)> {
        assert_eq!(colors.len(), self.n, "colors must cover the population");
        let budget = budget as usize;
        match mode {
            AdversaryMode::Oblivious => {
                let m = budget.min(self.alive.len());
                self.shuffle_alive_prefix(m);
                (0..m)
                    .map(|i| {
                        let v = self.alive[i];
                        (v, self.rng.gen_range(0..k))
                    })
                    .collect()
            }
            AdversaryMode::Adaptive => {
                let mut support = vec![0u64; k as usize];
                for &v in &self.alive {
                    let c = colors[v as usize];
                    if c < k {
                        support[c as usize] += 1;
                    }
                }
                let winner = match argmax(&support) {
                    Some(w) => w,
                    None => return Vec::new(),
                };
                let mut rival_support = support;
                rival_support[winner] = 0;
                // The strongest rival even if its support is zero: flipping
                // leaders to a dead color is the most damaging legal move.
                let rival = rival_support
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                    .map(|(i, _)| i as u32)
                    .expect("k ≥ 1 validated at instantiation");
                let mut victims: Vec<u32> = self
                    .alive
                    .iter()
                    .copied()
                    .filter(|&v| colors[v as usize] == winner as u32)
                    .collect();
                let m = budget.min(victims.len());
                for i in 0..m {
                    let j = i + self.rng.gen_range(0..victims.len() - i);
                    victims.swap(i, j);
                }
                victims.truncate(m);
                victims.into_iter().map(|v| (v, rival)).collect()
            }
        }
    }

    fn budget(&self, fraction: f64) -> usize {
        // Nudge below the product before ceiling: `0.07 * 100.0` is
        // 7.000000000000001 in f64, and a bare ceil would overshoot the
        // documented `⌈fraction·n⌉` by one for many fraction/n pairs.
        ((fraction * self.n as f64) - 1e-9).ceil().max(0.0) as usize
    }

    fn recompute_loss(&mut self) {
        self.loss = 1.0
            - self
                .active_loss
                .iter()
                .fold(1.0, |acc, &(_, p)| acc * (1.0 - p));
    }

    fn recompute_latency(&mut self) {
        self.latency_scale = self.active_latency.iter().fold(1.0, |acc, &(_, f)| acc * f);
    }

    /// Crashes `budget` uniform alive nodes (`budget ≤ alive.len()`).
    fn crash_nodes(&mut self, budget: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(budget);
        for _ in 0..budget {
            let i = self.rng.gen_range(0..self.alive.len());
            let v = self.alive.swap_remove(i);
            if let Some(&moved) = self.alive.get(i) {
                self.alive_pos[moved as usize] = i as u32;
            }
            self.alive_pos[v as usize] = CRASHED;
            self.crashed.push(v);
            out.push(v);
        }
        out
    }

    /// Revives one uniform crashed node (caller ensures one exists).
    fn revive_one(&mut self) -> u32 {
        let i = self.rng.gen_range(0..self.crashed.len());
        let v = self.crashed.swap_remove(i);
        self.alive_pos[v as usize] = self.alive.len() as u32;
        self.alive.push(v);
        v
    }

    /// Partial Fisher–Yates over the alive list, keeping `alive_pos`
    /// consistent: after the call, `alive[0..m]` is a uniform sample of
    /// distinct alive nodes.
    fn shuffle_alive_prefix(&mut self, m: usize) {
        let len = self.alive.len();
        for i in 0..m {
            let j = i + self.rng.gen_range(0..len - i);
            self.alive.swap(i, j);
            self.alive_pos[self.alive[i] as usize] = i as u32;
            self.alive_pos[self.alive[j] as usize] = j as u32;
        }
    }
}

/// Index of the maximum entry (lowest index wins ties); `None` if all
/// entries are zero or the slice is empty.
fn argmax(support: &[u64]) -> Option<usize> {
    let (idx, &max) = support
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
    (max > 0).then_some(idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(spec: &str, n: usize, k: u32) -> Environment {
        Scenario::parse(spec)
            .unwrap()
            .instantiate(n, k, 42)
            .unwrap()
    }

    #[test]
    fn budgets_do_not_overshoot_on_inexact_products() {
        // 0.07 · 100 = 7.000000000000001 in f64; the budget must still
        // be the documented ⌈0.07 · 100⌉ = 7, not 8.
        let mut e = env("crash:0.07@1;crash:0.155@2", 100, 2);
        assert!(matches!(&e.poll(1.0)[0], Effect::Crashed(v) if v.len() == 7));
        // A genuinely fractional product still rounds up: ⌈15.5⌉ = 16.
        assert!(matches!(&e.poll(2.0)[0], Effect::Crashed(v) if v.len() == 16));
    }

    #[test]
    fn crash_recover_roundtrip_keeps_roster_consistent() {
        let mut e = env("crash:0.3@1;recover:0.3@2", 100, 2);
        assert!(e.poll(0.5).is_empty());
        let fired = e.poll(1.0);
        let Effect::Crashed(nodes) = &fired[0] else {
            panic!("expected Crashed, got {fired:?}");
        };
        assert_eq!(nodes.len(), 30);
        assert_eq!(e.alive_count(), 70);
        assert_eq!(e.crashed_count(), 30);
        for &v in nodes {
            assert!(e.is_crashed(v));
        }
        let fired = e.poll(2.0);
        assert!(matches!(&fired[0], Effect::Recovered(r) if r.len() == 30));
        assert_eq!(e.alive_count(), 100);
        for v in 0..100 {
            assert!(!e.is_crashed(v));
        }
    }

    #[test]
    fn join_emits_fresh_colors_in_range() {
        let mut e = env("crash:0.5@1;join:0.2@2", 50, 4);
        e.poll(1.0);
        let fired = e.poll(2.0);
        let Effect::Joined(joins) = &fired[0] else {
            panic!("expected Joined, got {fired:?}");
        };
        assert_eq!(joins.len(), 10);
        for &(v, c) in joins {
            assert!(!e.is_crashed(v));
            assert!(c < 4);
        }
    }

    #[test]
    fn recover_and_join_are_capped_by_crashed_count() {
        let mut e = env("recover:0.5@1;join:1.0@2", 40, 2);
        assert!(matches!(&e.poll(1.0)[0], Effect::Recovered(r) if r.is_empty()));
        assert!(matches!(&e.poll(2.0)[0], Effect::Joined(j) if j.is_empty()));
    }

    #[test]
    fn overlapping_bursts_compose_and_revert() {
        let mut e = env("burst-loss:0.5@1..3;burst-loss:0.5@2..4", 10, 2);
        e.poll(1.0);
        assert_eq!(e.loss(), 0.5);
        e.poll(2.0);
        assert!((e.loss() - 0.75).abs() < 1e-12);
        e.poll(3.0);
        assert_eq!(e.loss(), 0.5);
        e.poll(4.0);
        assert_eq!(e.loss(), 0.0);
        assert!(!e.message_lost()); // no burst active: free, no draw
    }

    #[test]
    fn latency_regimes_multiply_and_open_ended_holds() {
        let mut e = env("latency:2@1..3;latency:4@2", 10, 2);
        assert_eq!(e.latency_scale(), 1.0);
        e.poll(1.0);
        assert_eq!(e.latency_scale(), 2.0);
        e.poll(2.0);
        assert_eq!(e.latency_scale(), 8.0);
        e.poll(10.0);
        assert_eq!(e.latency_scale(), 4.0); // open-ended shift persists
    }

    #[test]
    fn rewire_builds_the_requested_family() {
        let mut e = env("rewire:regular:4@1", 60, 2);
        let fired = e.poll(1.0);
        let Effect::Rewired(sampler) = &fired[0] else {
            panic!("expected Rewired, got {fired:?}");
        };
        let g = sampler.graph().expect("sparse");
        assert_eq!((g.min_degree(), g.max_degree()), (4, 4));
    }

    #[test]
    fn oblivious_corruption_targets_are_distinct_alive_nodes() {
        let mut e = env("crash:0.5@1;corrupt:0.3@2", 100, 3);
        e.poll(1.0);
        let fired = e.poll(2.0);
        let Effect::Corrupt { budget, mode } = fired[0] else {
            panic!("expected Corrupt, got {fired:?}");
        };
        assert_eq!(budget, 30);
        let colors = vec![0u32; 100];
        let targets = e.corruption_targets(budget, mode, &colors, 3);
        assert_eq!(targets.len(), 30);
        let mut seen = std::collections::HashSet::new();
        for &(v, c) in &targets {
            assert!(!e.is_crashed(v));
            assert!(c < 3);
            assert!(seen.insert(v), "node {v} targeted twice");
        }
    }

    #[test]
    fn adaptive_corruption_flips_leaders_to_the_strongest_rival() {
        let mut e = env("corrupt:0.2:adaptive@1", 100, 3);
        let fired = e.poll(1.0);
        let Effect::Corrupt { budget, mode } = fired[0] else {
            panic!("expected Corrupt, got {fired:?}");
        };
        assert_eq!(mode, AdversaryMode::Adaptive);
        // 60 of color 0, 30 of color 1, 10 of color 2.
        let mut colors = vec![0u32; 100];
        for c in colors.iter_mut().skip(60).take(30) {
            *c = 1;
        }
        for c in colors.iter_mut().skip(90) {
            *c = 2;
        }
        let targets = e.corruption_targets(budget, mode, &colors, 3);
        assert_eq!(targets.len(), 20);
        for &(v, c) in &targets {
            assert_eq!(colors[v as usize], 0, "victim not a leader holder");
            assert_eq!(c, 1, "rival must be the strongest minority");
        }
    }

    #[test]
    fn adaptive_corruption_on_monochromatic_population_is_a_noop() {
        let mut e = env("corrupt:0.5:adaptive@1", 20, 2);
        e.poll(1.0);
        let colors = vec![1u32; 20];
        // Rival (color 0) has zero support, but still exists as a target
        // color: the adversary flips towards it.
        let targets = e.corruption_targets(10, AdversaryMode::Adaptive, &colors, 2);
        assert!(targets.iter().all(|&(_, c)| c == 0));
        assert_eq!(targets.len(), 10);
    }

    #[test]
    fn environment_is_a_pure_function_of_its_seed() {
        let s = Scenario::parse("crash:0.4@1;join:0.2@2;corrupt:0.2@3").unwrap();
        let colors = vec![0u32; 200];
        let run = |seed: u64| {
            let mut e = s.instantiate(200, 2, seed).unwrap();
            let a = e.poll(1.0);
            let b = e.poll(2.0);
            let c = e.poll(3.0);
            let t = e.corruption_targets(40, AdversaryMode::Oblivious, &colors, 2);
            (a, b, c, t)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn simultaneous_events_fire_in_script_order() {
        let mut e = env("crash:0.1@5;recover:0.1@5", 100, 2);
        let fired = e.poll(5.0);
        assert!(matches!(fired[0], Effect::Crashed(_)));
        assert!(matches!(fired[1], Effect::Recovered(_)));
        assert_eq!(e.alive_count(), 100);
    }
}
