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

/// One round's outcome law, shared by every source generation.
///
/// A node of generation `g` samples cells `A = (gA, cA)` and `B = (gB,
/// cB)` with probability `f_A·f_B`. In a two-choices round with `A == B`
/// and `gA ≥ g` it moves to `(gA+1, cA)`; otherwise, with `H = A` if
/// `gA ≥ gB` else `B`, it moves to `H` if `gH > g`, else it stays. A
/// pair's destination `t` thus never depends on `g`, and the pair counts
/// exactly when `gen(t) > g` (the diagonal lands on generation `gA+1`,
/// which exceeds `g` iff `gA ≥ g`). So every target collects the same
/// pairs in the same order for each `g < gen(t)` and none for larger
/// `g`: one ordered sum per target, listed in ascending cell order, gives
/// generation `g`'s law bit for bit as the suffix `t ≥ (g+1)·k`.
#[derive(Default)]
struct RoundLaw {
    /// Occupied cells as `(cell, generation, fraction)`, ascending.
    live: Vec<(usize, usize, f64)>,
    /// Summed pair probability per destination cell.
    mass: Vec<f64>,
    /// Destinations with positive mass, ascending.
    targets: Vec<(usize, f64)>,
}

impl RoundLaw {
    /// Builds the law of the configuration `counts` (generation-major
    /// cells of `k` colors, `nf` nodes in all).
    fn build(&mut self, counts: &[u64], k: usize, nf: f64, two_choices: bool) {
        let fractions = counts.iter().map(|&m| m as f64 / nf).enumerate();
        self.live.clear();
        self.live.extend(
            fractions
                .filter(|&(_, f)| f != 0.0)
                .map(|(a, f)| (a, a / k, f)),
        );
        self.mass.clear();
        self.mass.resize(counts.len() + k, 0.0);
        for &(a, ga, fa) in &self.live {
            for &(b, gb, fb) in &self.live {
                let t = if two_choices && a == b {
                    a + k
                } else if ga >= gb {
                    a
                } else {
                    b
                };
                self.mass[t] += fa * fb;
            }
        }
        let mass = self.mass.iter().copied().enumerate().skip(k);
        self.targets.clear();
        self.targets.extend(mass.filter(|&(_, p)| p > 0.0));
    }

    /// Generation `g`'s targets; the residual probability means "stay".
    fn for_generation(&self, g: usize, k: usize) -> &[(usize, f64)] {
        let from = self.targets.partition_point(|&(t, _)| t < (g + 1) * k);
        &self.targets[from..]
    }
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
    let mut counts: Vec<u64> = cfg.counts.clone();
    let mut tracker = ConvergenceTracker::new(n, initial_winner, cfg.epsilon);
    let mut births: Vec<GenerationBirth> = Vec::new();

    // Per-round cache of the global color supports. The counts vector
    // mutates exactly once per round (the multinomial split), so the
    // O(G·k) column sums are computed once per mutation and every query
    // in the round — convergence tracking, the monochromatic check, the
    // final report — reads the cache instead of re-summing.
    let refresh_color_sums = |counts: &[u64], sums: &mut Vec<u64>| {
        sums.clear();
        sums.resize(k, 0);
        for row in counts.chunks_exact(k) {
            for (sum, &m) in sums.iter_mut().zip(row) {
                *sum += m;
            }
        }
    };
    let mut color_sums: Vec<u64> = Vec::with_capacity(k);
    refresh_color_sums(&counts, &mut color_sums);

    let observe = |sums: &[u64], tracker: &mut ConvergenceTracker, t: f64| {
        let winner_support = sums[initial_winner.index() as usize];
        let max_support = sums.iter().copied().max().unwrap_or(0);
        tracker.observe(t, winner_support, max_support);
    };
    observe(&color_sums, &mut tracker, 0.0);

    let bias_in_gen = |counts: &[u64], g: usize| -> f64 {
        OpinionCounts::from_counts(counts[cell(g, 0, k)..][..k].to_vec())
            .bias()
            .unwrap_or(f64::INFINITY)
    };
    let collision_in_gen = |counts: &[u64], g: usize| -> f64 {
        // Only read at a birth, whose parent row is occupied.
        let row = &counts[cell(g, 0, k)..][..k];
        let total = row.iter().sum::<u64>() as f64;
        row.iter().map(|&m| m as f64 / total).map(|f| f * f).sum()
    };

    let mut rounds = 0u64;
    let is_mono = |sums: &[u64]| -> bool { sums.contains(&n) };

    // Buffers reused across rounds.
    let mut law = RoundLaw::default();
    let mut new_counts: Vec<u64> = Vec::new();

    if !is_mono(&color_sums) {
        for round in 1..=max_rounds {
            rounds = round;
            let gens = counts.len() / k;
            law.build(&counts, k, nf, schedule.is_two_choices_round(round));

            // Multinomial split of every cell over its generation's
            // targets; whoever is left stays in place.
            new_counts.clear();
            new_counts.resize(counts.len() + k, 0);
            for (a, &m) in counts.iter().enumerate().filter(|&(_, &m)| m > 0) {
                let targets = law.for_generation(a / k, k);
                let stayed = multinomial_split(m, targets, &mut new_counts, &mut rng);
                new_counts[a] += stayed;
            }

            // Did a new generation appear?
            let top_row_total: u64 = new_counts[counts.len()..].iter().sum();
            if top_row_total > 0 {
                let parent_bias = bias_in_gen(&counts, gens - 1);
                let parent_collision = collision_in_gen(&counts, gens - 1);
                births.push(GenerationBirth {
                    generation: gens as u32,
                    time: round as f64,
                    bias: bias_in_gen(&new_counts, gens),
                    parent_bias,
                    initial_fraction: top_row_total as f64 / nf,
                    parent_collision,
                });
            } else {
                // Drop the unused extra row.
                new_counts.truncate(counts.len());
            }
            std::mem::swap(&mut counts, &mut new_counts);

            refresh_color_sums(&counts, &mut color_sums);
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

    /// The per-generation law builder `run_urn` used before
    /// [`RoundLaw`], kept verbatim as the reference.
    fn per_generation_targets(
        fracs: &[f64],
        gens: usize,
        k: usize,
        two_choices: bool,
    ) -> Vec<Vec<(usize, f64)>> {
        let total_cells = gens * k;
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
        per_gen_targets
    }

    #[test]
    fn one_pass_law_matches_per_generation_laws_bit_for_bit() {
        use rand::Rng;
        let mut rng = Xoshiro256PlusPlus::from_u64(21);
        let mut law = RoundLaw::default();
        let mut compared = [0usize; 2];
        for case in 0..20_000 {
            let k = rng.gen_range(2..=8usize);
            let gens = rng.gen_range(1..=8usize);
            let two_choices = case % 2 == 0;
            // About a third of the cells empty; magnitudes from 1 to 1e9.
            let mut counts: Vec<u64> = (0..gens * k)
                .map(|_| {
                    if rng.gen_range(0..3u32) == 0 {
                        0
                    } else {
                        10f64.powf(rng.gen::<f64>() * 9.0) as u64
                    }
                })
                .collect();
            if counts.iter().all(|&m| m == 0) {
                counts[rng.gen_range(0..gens * k)] = 1;
            }
            let nf = counts.iter().sum::<u64>() as f64;
            let fracs: Vec<f64> = counts.iter().map(|&c| c as f64 / nf).collect();
            let reference = per_generation_targets(&fracs, gens, k, two_choices);
            law.build(&counts, k, nf, two_choices);
            for (g, want) in reference.iter().enumerate() {
                let got = law.for_generation(g, k);
                let same = got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits());
                assert!(
                    same,
                    "case {case} (k={k}, gens={gens}, g={g}): {got:?} vs {want:?}"
                );
                compared[usize::from(want.is_empty())] += 1;
            }
        }
        // Both non-empty and empty laws were exercised.
        assert!(compared[0] > 10_000 && compared[1] > 1_000, "{compared:?}");
    }

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
