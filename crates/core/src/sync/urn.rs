//! Urn-mode (mean-field) execution of the synchronous protocol.
//!
//! The agent-based engine in [`crate::sync`] costs `O(n)` per round. For
//! concentration experiments at astronomical `n` (the paper's statements are
//! asymptotic) we exploit a symmetry: in Algorithm 1, a node's update
//! distribution depends only on its own *(generation, color)* cell and on
//! the current cell fractions — not on its identity. Conditioned on the
//! current configuration, the next counts of each cell are an exact
//! multinomial split of the cell's occupants over their common outcome
//! distribution. Sampling those multinomials (via exact sequential
//! conditioned binomials, [`plurality_dist::multinomial_split`])
//! reproduces the process law *exactly* while costing `O((G·k)²)` per
//! round — independent of `n`.
//!
//! This makes runs with `n = 10⁹` take milliseconds, which experiment E5
//! uses to check the bias-squaring chain deep into the asymptotic regime.
//!
//! **Topology.** Urn mode is definitionally mean-field: the multinomial
//! split is exact *because* nodes inside a `(generation, color)` cell are
//! exchangeable, which requires every node to sample every other node
//! with equal probability — i.e. the complete graph. On a sparse
//! topology a node's update law depends on its neighborhood, the cell
//! symmetry breaks, and no `O((G·k)²)` reduction exists; use the
//! agent-based [`crate::sync::SyncConfig::with_topology`] engine for
//! graphs. `UrnConfig` therefore deliberately has no topology knob.

use crate::opinion::OpinionCounts;
use crate::outcome::{ConvergenceTracker, GenerationBirth, RunOutcome};
use crate::sync::schedule::{generations_needed, Schedule, GENERATION_CAP};
use plurality_dist::rng::Xoshiro256PlusPlus;
use plurality_dist::{multinomial_split, InvalidParameterError};

/// Configuration for an urn-mode synchronous run. Also runnable
/// through the unified facade (`plurality-api`'s `UrnEngine`, spec name
/// `"urn"`), which enforces the mean-field exemption above as a
/// teaching error.
///
/// # Examples
///
/// ```
/// use plurality_core::sync::UrnConfig;
/// // One billion nodes, 8 opinions, bias 1.2 — impossible agent-by-agent.
/// let result = UrnConfig::new(1_000_000_000, 8, 1.2).unwrap().with_seed(1).run();
/// assert!(result.outcome.plurality_preserved());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UrnConfig {
    counts: Vec<u64>,
    gamma: f64,
    epsilon: f64,
    seed: u64,
    max_rounds: Option<u64>,
}

impl UrnConfig {
    /// Creates a configuration with the paper's canonical biased start
    /// (see [`crate::InitialAssignment::with_bias`]): opinion 0 leads by
    /// the multiplicative factor `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] for invalid `(n, k, alpha)`
    /// combinations.
    pub fn new(n: u64, k: u32, alpha: f64) -> Result<Self, InvalidParameterError> {
        if k < 2 {
            return Err(InvalidParameterError::new(format!(
                "urn mode requires k ≥ 2, got {k}"
            )));
        }
        if !(alpha >= 1.0 && alpha.is_finite()) {
            return Err(InvalidParameterError::new(format!(
                "alpha must be finite and ≥ 1, got {alpha}"
            )));
        }
        let cb = (n as f64 / (alpha + k as f64 - 1.0)).floor() as u64;
        if cb == 0 {
            return Err(InvalidParameterError::new(format!(
                "n = {n} too small for k = {k}, alpha = {alpha}"
            )));
        }
        let mut counts = vec![cb; k as usize];
        counts[0] = n - cb * (k as u64 - 1);
        Ok(Self::from_counts(counts))
    }

    /// Creates a configuration from explicit per-opinion counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        Self {
            counts,
            gamma: 0.5,
            epsilon: 0.05,
            seed: 0,
            max_rounds: None,
        }
    }

    /// Sets the generation-density threshold `γ ∈ (0, 1)` (default 1/2).
    ///
    /// # Panics
    ///
    /// Panics if `gamma ∉ (0, 1)`.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        assert!(gamma > 0.0 && gamma < 1.0, "gamma must lie in (0, 1)");
        self.gamma = gamma;
        self
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

    /// Caps the number of rounds.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Runs the urn-mode process.
    ///
    /// # Panics
    ///
    /// Panics if the total population is below 2.
    pub fn run(&self) -> UrnResult {
        run_urn(self)
    }
}

/// Result of an urn-mode run.
#[derive(Debug, Clone, PartialEq)]
pub struct UrnResult {
    /// Common outcome report (birth telemetry included).
    pub outcome: RunOutcome,
    /// Rounds simulated.
    pub rounds: u64,
    /// The `G*` used by the schedule.
    pub g_star: u32,
}

/// Dense cell index for `(generation, color)` with `k` colors.
#[inline]
fn cell(g: usize, c: usize, k: usize) -> usize {
    g * k + c
}

fn run_urn(cfg: &UrnConfig) -> UrnResult {
    let k = cfg.counts.len();
    let n: u64 = cfg.counts.iter().sum();
    assert!(n >= 2, "urn run needs at least 2 nodes");
    let nf = n as f64;
    let mut rng = Xoshiro256PlusPlus::from_u64(cfg.seed);

    let initial_counts = OpinionCounts::from_counts(cfg.counts.clone());
    let initial_winner = initial_counts.winner().expect("non-empty population");
    let initial_bias = initial_counts.bias().unwrap_or(f64::INFINITY);

    let alpha = if initial_bias.is_finite() {
        initial_bias.max(1.0)
    } else {
        2.0
    };
    let g_star = generations_needed(n, alpha, GENERATION_CAP);
    let schedule = Schedule::predefined(n, k as u32, alpha, cfg.gamma);
    let max_rounds = cfg
        .max_rounds
        .unwrap_or_else(|| schedule.final_round() + 4 * (nf.log2().ceil() as u64) + 100);

    // counts[cell(g, c)] — generations 0..=G (grown on demand).
    let mut gens: usize = 1;
    let mut counts: Vec<u64> = cfg.counts.clone();
    let mut tracker = ConvergenceTracker::new(n, initial_winner, cfg.epsilon);
    let mut births: Vec<GenerationBirth> = Vec::new();

    // Per-round cache of the global color supports. The counts vector
    // mutates exactly once per round (the multinomial split), so the
    // O(G·k) column sums are computed once per mutation and every query
    // in the round — convergence tracking, the monochromatic check, the
    // final report — reads the cache instead of re-summing.
    let refresh_color_sums = |counts: &[u64], gens: usize, sums: &mut Vec<u64>| {
        sums.clear();
        sums.resize(k, 0);
        for g in 0..gens {
            for (c, sum) in sums.iter_mut().enumerate() {
                *sum += counts[cell(g, c, k)];
            }
        }
    };
    let mut color_sums: Vec<u64> = Vec::with_capacity(k);
    refresh_color_sums(&counts, gens, &mut color_sums);

    let observe = |sums: &[u64], tracker: &mut ConvergenceTracker, t: f64| {
        let winner_support = sums[initial_winner.index() as usize];
        let max_support = sums.iter().copied().max().unwrap_or(0);
        tracker.observe(t, winner_support, max_support);
    };
    observe(&color_sums, &mut tracker, 0.0);

    let bias_in_gen = |counts: &[u64], g: usize| -> f64 {
        let row: Vec<u64> = (0..k).map(|c| counts[cell(g, c, k)]).collect();
        OpinionCounts::from_counts(row)
            .bias()
            .unwrap_or(f64::INFINITY)
    };
    let collision_in_gen = |counts: &[u64], g: usize| -> f64 {
        let total: u64 = (0..k).map(|c| counts[cell(g, c, k)]).sum();
        if total == 0 {
            return 0.0;
        }
        (0..k)
            .map(|c| {
                let f = counts[cell(g, c, k)] as f64 / total as f64;
                f * f
            })
            .sum()
    };

    let mut rounds = 0u64;
    let is_mono = |sums: &[u64]| -> bool { sums.contains(&n) };

    if !is_mono(&color_sums) {
        for round in 1..=max_rounds {
            rounds = round;
            let two_choices = schedule.is_two_choices_round(round);

            // Cell fractions of the current configuration.
            let fracs: Vec<f64> = counts.iter().map(|&c| c as f64 / nf).collect();
            // Cumulative fraction of generations > g (the "strictly higher"
            // mass a node can be pulled into) per target cell is needed; we
            // instead compute, per source generation g, the outcome
            // distribution over target cells shared by all its colors.
            //
            // Outcome of a node in generation g sampling cells A=(gA,cA),
            // B=(gB,cB) with independent probabilities f_A·f_B:
            // * two-choices round and A == B with gA ≥ g → (gA+1, cA);
            // * else with H = A if gA ≥ gB else B: if gH > g → H, else stay.
            let total_cells = gens * k;
            let mut new_counts = vec![0u64; (gens + 1) * k];

            // Precompute per-source-generation outcome distributions.
            // targets[g] = Vec<(target_cell_in_new_layout, prob)>, with the
            // residual probability meaning "stay".
            let mut per_gen_targets: Vec<Vec<(usize, f64)>> = Vec::with_capacity(gens);
            for g in 0..gens {
                let mut probs = vec![0.0f64; (gens + 1) * k];
                for a in 0..total_cells {
                    let fa = fracs[a];
                    if fa == 0.0 {
                        continue;
                    }
                    let (ga, ca) = (a / k, a % k);
                    for (b, &fb) in fracs.iter().enumerate().take(total_cells) {
                        if fb == 0.0 {
                            continue;
                        }
                        let gb = b / k;
                        let p = fa * fb;
                        if two_choices && a == b && ga >= g {
                            probs[cell(ga + 1, ca, k)] += p;
                            continue;
                        }
                        let h = if ga >= gb { a } else { b };
                        let gh = h / k;
                        if gh > g {
                            probs[h] += p;
                        }
                        // else: stay (residual mass).
                    }
                }
                let targets: Vec<(usize, f64)> = probs
                    .iter()
                    .enumerate()
                    .filter(|&(_, &p)| p > 0.0)
                    .map(|(i, &p)| (i, p))
                    .collect();
                per_gen_targets.push(targets);
            }

            // Multinomial split of every cell over its targets.
            for g in 0..gens {
                let targets = &per_gen_targets[g];
                for c in 0..k {
                    let m = counts[cell(g, c, k)];
                    if m == 0 {
                        continue;
                    }
                    // Exact multinomial scatter (shared sampler consumes
                    // the byte-identical binomial stream the hand-rolled
                    // loop used to); whoever is left stays in place.
                    let stayed = multinomial_split(m, targets, &mut new_counts, &mut rng);
                    new_counts[cell(g, c, k)] += stayed;
                }
            }

            // Did a new generation appear?
            let top_row_total: u64 = (0..k).map(|c| new_counts[cell(gens, c, k)]).sum();
            let parent = gens - 1;
            let parent_bias = bias_in_gen(&counts, parent);
            let parent_collision = collision_in_gen(&counts, parent);
            counts = new_counts;
            if top_row_total > 0 {
                gens += 1;
                births.push(GenerationBirth {
                    generation: (gens - 1) as u32,
                    time: round as f64,
                    bias: bias_in_gen(&counts, gens - 1),
                    parent_bias,
                    initial_fraction: top_row_total as f64 / nf,
                    parent_collision,
                });
            } else {
                // Trim the unused extra row for the next iteration.
                counts.truncate(gens * k);
            }

            refresh_color_sums(&counts, gens, &mut color_sums);
            observe(&color_sums, &mut tracker, round as f64);
            if is_mono(&color_sums) {
                break;
            }
        }
    }

    let final_counts = OpinionCounts::from_counts(color_sums);
    let outcome = RunOutcome {
        n,
        k: k as u32,
        initial_winner,
        initial_bias,
        final_counts,
        epsilon_time: tracker.epsilon_time(),
        consensus_time: tracker.consensus_time(),
        duration: rounds as f64,
        generations: births,
    };
    UrnResult {
        outcome,
        rounds,
        g_star,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::Opinion;
    use crate::sync::SyncConfig;
    use crate::InitialAssignment;

    #[test]
    fn conserves_population_and_elects_plurality() {
        let r = UrnConfig::new(100_000, 4, 2.0).unwrap().with_seed(1).run();
        assert_eq!(r.outcome.final_counts.n(), 100_000);
        assert!(r.outcome.plurality_preserved());
        assert_eq!(r.outcome.winner(), Some(Opinion::new(0)));
    }

    #[test]
    fn handles_billion_node_populations() {
        let r = UrnConfig::new(1_000_000_000, 8, 1.5)
            .unwrap()
            .with_seed(2)
            .run();
        assert_eq!(r.outcome.final_counts.n(), 1_000_000_000);
        assert!(r.outcome.plurality_preserved());
        assert!(r.rounds < 200);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = UrnConfig::new(50_000, 3, 2.0).unwrap().with_seed(7).run();
        let b = UrnConfig::new(50_000, 3, 2.0).unwrap().with_seed(7).run();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(UrnConfig::new(100, 1, 2.0).is_err());
        assert!(UrnConfig::new(100, 4, 0.5).is_err());
        assert!(UrnConfig::new(3, 8, 100.0).is_err());
    }

    #[test]
    fn bias_squares_along_the_chain() {
        let r = UrnConfig::new(10_000_000, 8, 1.2)
            .unwrap()
            .with_seed(3)
            .run();
        let births = &r.outcome.generations;
        assert!(births.len() >= 3);
        for w in births.windows(2) {
            let predicted = w[0].bias * w[0].bias;
            if !predicted.is_finite() || !w[1].bias.is_finite() || predicted > 1e6 {
                break;
            }
            let ratio = w[1].bias / predicted;
            assert!(
                (0.7..1.4).contains(&ratio),
                "generation {}: ratio {ratio}",
                w[1].generation
            );
        }
    }

    #[test]
    fn agrees_with_agent_based_engine_on_round_counts() {
        // Same (n, k, α): urn and agent-based rounds should be within a
        // small factor (both follow the same schedule).
        let n = 30_000u64;
        let urn = UrnConfig::new(n, 4, 2.0).unwrap().with_seed(4).run();
        let assignment = InitialAssignment::with_bias(n, 4, 2.0).unwrap();
        let agent = SyncConfig::new(assignment).with_seed(4).run();
        assert!(urn.outcome.plurality_preserved());
        assert!(agent.outcome.plurality_preserved());
        let (a, b) = (urn.rounds as f64, agent.rounds as f64);
        assert!(
            (a / b) < 2.0 && (b / a) < 2.0,
            "urn {a} rounds vs agent {b} rounds"
        );
    }

    #[test]
    fn monochromatic_start_is_instant() {
        let r = UrnConfig::from_counts(vec![500, 0, 0]).with_seed(5).run();
        assert_eq!(r.outcome.consensus_time, Some(0.0));
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn generation_fractions_match_growth_theory_loosely() {
        // The newest generation's birth fraction is ≈ γ²·p (Prop 9);
        // with k = 4 equal-ish colors p ≈ 0.28 ⇒ fraction ≈ 0.07.
        let r = UrnConfig::new(1_000_000, 4, 1.2)
            .unwrap()
            .with_seed(6)
            .run();
        let b = &r.outcome.generations[0];
        assert!(
            b.initial_fraction > 0.01 && b.initial_fraction < 0.6,
            "birth fraction {}",
            b.initial_fraction
        );
    }
}
