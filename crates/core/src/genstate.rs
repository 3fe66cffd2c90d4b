//! Generation × color bookkeeping shared by all generation-based engines.
//!
//! The analysis of the paper is phrased entirely in terms of the quantities
//! tracked here: `g_t(i)` (fraction of nodes in generation `i`), `c_{j,i,t}`
//! (color fractions inside a generation), the per-generation bias
//! `α_{i,t}` and the collision probability `p_{i,t} = Σ_j c²_{j,i,t}`
//! (Section 2.2). [`GenerationTable`] maintains these incrementally so the
//! simulation engines can expose them at any time in `O(k)` per query.

use crate::opinion::{Opinion, OpinionCounts};

/// Incremental `generation → color → count` table for `n` nodes.
///
/// # Examples
///
/// ```
/// use plurality_core::GenerationTable;
/// let mut t = GenerationTable::new(2);
/// t.insert(0, 0);
/// t.insert(0, 1);
/// t.insert(0, 0);
/// assert_eq!(t.n(), 3);
/// assert_eq!(t.bias_in(0), Some(2.0));
/// t.transfer(0, 1, 1, 0); // node moves to generation 1 adopting color 0
/// assert_eq!(t.max_generation(), 1);
/// assert!(t.is_monochromatic());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationTable {
    k: usize,
    /// `counts[g][c]` = number of nodes in generation `g` with color `c`.
    counts: Vec<Vec<u64>>,
    /// `totals[g]` = number of nodes in generation `g`.
    totals: Vec<u64>,
    /// Global support per color.
    color_totals: Vec<u64>,
    n: u64,
    max_generation: u32,
    /// Cached `max(color_totals)`, maintained incrementally so the
    /// engines' convergence tracking ([`GenerationTable::max_color_support`]
    /// runs on every adoption) costs O(1) instead of O(k). Repaired by an
    /// O(k) rescan only when the unique maximum color loses support.
    max_support: u64,
}

impl GenerationTable {
    /// Creates an empty table for `k` colors.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "GenerationTable: k must be positive");
        Self {
            k,
            counts: vec![vec![0; k]],
            totals: vec![0],
            color_totals: vec![0; k],
            n: 0,
            max_generation: 0,
            max_support: 0,
        }
    }

    /// Builds a table from parallel generation/color state slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a color index is `≥ k`.
    pub fn from_states(gens: &[u32], cols: &[u32], k: usize) -> Self {
        assert_eq!(gens.len(), cols.len(), "state slices must match");
        let mut table = Self::new(k);
        for (&g, &c) in gens.iter().zip(cols) {
            table.insert(g, c);
        }
        table
    }

    fn ensure_generation(&mut self, g: u32) {
        while self.counts.len() <= g as usize {
            self.counts.push(vec![0; self.k]);
            self.totals.push(0);
        }
        if g > self.max_generation {
            self.max_generation = g;
        }
    }

    /// Number of colors.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of nodes.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The highest generation that has ever held a node.
    pub fn max_generation(&self) -> u32 {
        self.max_generation
    }

    /// Adds a node in generation `g` with color `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ k`.
    pub fn insert(&mut self, g: u32, c: u32) {
        assert!((c as usize) < self.k, "color {c} out of range");
        self.ensure_generation(g);
        self.counts[g as usize][c as usize] += 1;
        self.totals[g as usize] += 1;
        let gained = self.color_totals[c as usize] + 1;
        self.color_totals[c as usize] = gained;
        if gained > self.max_support {
            self.max_support = gained;
        }
        self.n += 1;
    }

    /// Moves one node from `(from_gen, from_col)` to `(to_gen, to_col)`.
    ///
    /// # Panics
    ///
    /// Panics if there is no node at the source cell or a color is `≥ k`.
    pub fn transfer(&mut self, from_gen: u32, from_col: u32, to_gen: u32, to_col: u32) {
        assert!(
            (from_col as usize) < self.k,
            "color {from_col} out of range"
        );
        assert!((to_col as usize) < self.k, "color {to_col} out of range");
        let src = &mut self.counts[from_gen as usize][from_col as usize];
        assert!(
            *src > 0,
            "transfer from empty cell (gen {from_gen}, col {from_col})"
        );
        *src -= 1;
        self.totals[from_gen as usize] -= 1;
        self.ensure_generation(to_gen);
        self.counts[to_gen as usize][to_col as usize] += 1;
        self.totals[to_gen as usize] += 1;
        // Generation promotions that keep the color — the common case in
        // every engine — leave the global color tallies untouched.
        if from_col != to_col {
            let old_max = self.max_support;
            self.color_totals[from_col as usize] -= 1;
            let gained = self.color_totals[to_col as usize] + 1;
            self.color_totals[to_col as usize] = gained;
            if gained > self.max_support {
                self.max_support = gained;
            } else if self.color_totals[from_col as usize] + 1 == old_max {
                // The shrinking color sat at the maximum; it may have been
                // the unique one there, so rescan.
                self.max_support = self.color_totals.iter().copied().max().unwrap_or(0);
            }
        }
    }

    /// Number of nodes in generation `g` (0 if never populated).
    fn generation_total(&self, g: u32) -> u64 {
        self.totals.get(g as usize).copied().unwrap_or(0)
    }

    /// Fraction of all nodes in generation `g`.
    pub fn fraction_in(&self, g: u32) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.generation_total(g) as f64 / self.n as f64
        }
    }

    /// Bias `α_{g} = c_a / c_b` inside generation `g` (see
    /// [`OpinionCounts::bias`]); `None` if the generation is empty or
    /// `k < 2`. Computed allocation-free from the top two counts of the
    /// generation's row.
    pub fn bias_in(&self, g: u32) -> Option<f64> {
        if self.generation_total(g) == 0 || self.k < 2 {
            return None;
        }
        let row = &self.counts[g as usize];
        let (mut best, mut second) = (0u64, 0u64);
        for &c in row {
            if c > best {
                second = best;
                best = c;
            } else if c > second {
                second = c;
            }
        }
        Some(if second == 0 {
            f64::INFINITY
        } else {
            best as f64 / second as f64
        })
    }

    /// Collision probability `p_g = Σ_j c²_{j,g}` inside generation `g`
    /// (0 for an empty generation).
    pub fn collision_in(&self, g: u32) -> f64 {
        let total = self.generation_total(g);
        if total == 0 {
            return 0.0;
        }
        let row = &self.counts[g as usize];
        let t = total as f64;
        row.iter()
            .map(|&c| {
                let f = c as f64 / t;
                f * f
            })
            .sum()
    }

    /// Global support of `color`.
    pub fn color_support(&self, color: Opinion) -> u64 {
        self.color_totals[color.index() as usize]
    }

    /// The largest global support of any color — O(1), served from the
    /// incrementally maintained cache.
    pub fn max_color_support(&self) -> u64 {
        debug_assert_eq!(
            self.max_support,
            self.color_totals.iter().copied().max().unwrap_or(0),
            "cached max support out of sync"
        );
        self.max_support
    }

    /// Global color counts.
    pub fn global_counts(&self) -> OpinionCounts {
        OpinionCounts::from_counts(self.color_totals.clone())
    }

    /// Whether all nodes share one color.
    pub fn is_monochromatic(&self) -> bool {
        self.n > 0 && self.max_color_support() == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut t = GenerationTable::new(3);
        t.insert(0, 0);
        t.insert(0, 0);
        t.insert(0, 1);
        t.insert(2, 2); // skipping generation 1 is allowed
        assert_eq!(t.n(), 4);
        assert_eq!(t.max_generation(), 2);
        assert_eq!(t.generation_total(0), 3);
        assert_eq!(t.generation_total(1), 0);
        assert_eq!(t.generation_total(2), 1);
        assert_eq!(t.fraction_in(0), 0.75);
        assert_eq!(t.color_support(Opinion::new(0)), 2);
    }

    #[test]
    fn transfer_conserves_population() {
        let mut t = GenerationTable::new(2);
        for _ in 0..10 {
            t.insert(0, 1);
        }
        t.transfer(0, 1, 1, 0);
        t.transfer(0, 1, 1, 0);
        assert_eq!(t.n(), 10);
        assert_eq!(t.generation_total(0), 8);
        assert_eq!(t.generation_total(1), 2);
        assert_eq!(t.color_support(Opinion::new(0)), 2);
        assert_eq!(t.color_support(Opinion::new(1)), 8);
    }

    #[test]
    #[should_panic(expected = "transfer from empty cell")]
    fn transfer_from_empty_panics() {
        let mut t = GenerationTable::new(2);
        t.transfer(0, 0, 1, 0);
    }

    #[test]
    fn bias_and_collision() {
        let mut t = GenerationTable::new(2);
        for _ in 0..6 {
            t.insert(1, 0);
        }
        for _ in 0..3 {
            t.insert(1, 1);
        }
        assert_eq!(t.bias_in(1), Some(2.0));
        // p = (2/3)² + (1/3)² = 5/9
        assert!((t.collision_in(1) - 5.0 / 9.0).abs() < 1e-12);
        assert_eq!(t.bias_in(0), None);
        assert_eq!(t.collision_in(0), 0.0);
    }

    #[test]
    fn monochromatic_detection() {
        let mut t = GenerationTable::new(2);
        t.insert(0, 1);
        t.insert(3, 1);
        assert!(t.is_monochromatic());
        t.insert(1, 0);
        assert!(!t.is_monochromatic());
    }

    #[test]
    fn cached_max_support_tracks_mutations() {
        let mut t = GenerationTable::new(3);
        for _ in 0..5 {
            t.insert(0, 0);
        }
        for _ in 0..5 {
            t.insert(0, 1);
        }
        t.insert(0, 2);
        assert_eq!(t.max_color_support(), 5);
        // Unique-max decrement forces the rescan path.
        t.transfer(0, 0, 1, 2);
        assert_eq!(t.max_color_support(), 5); // color 1 still at 5
        t.transfer(0, 1, 1, 2);
        assert_eq!(t.max_color_support(), 4);
        // Same-color generation promotion leaves tallies untouched.
        t.transfer(0, 0, 2, 0);
        assert_eq!(t.max_color_support(), 4);
        assert_eq!(t.color_support(Opinion::new(0)), 4);
        // Growth through the increment path.
        for _ in 0..3 {
            t.insert(2, 2);
        }
        assert_eq!(t.max_color_support(), 6);
    }

    #[test]
    fn bias_in_matches_opinion_counts_bias() {
        let mut t = GenerationTable::new(4);
        for (c, reps) in [(0u32, 7usize), (1, 3), (2, 3), (3, 0)] {
            for _ in 0..reps {
                t.insert(1, c);
            }
        }
        // Oracle: the generation's row as an `OpinionCounts`.
        let counts_in =
            |t: &GenerationTable, g: u32| OpinionCounts::from_counts(t.counts[g as usize].clone());
        assert_eq!(t.bias_in(1), counts_in(&t, 1).bias());
        // Monochromatic generation: infinite bias both ways.
        let mut m = GenerationTable::new(2);
        m.insert(0, 1);
        assert_eq!(m.bias_in(0), Some(f64::INFINITY));
        assert_eq!(m.bias_in(0), counts_in(&m, 0).bias());
    }

    #[test]
    fn from_states_matches_manual_inserts() {
        let gens = [0, 1, 1, 2];
        let cols = [0, 1, 1, 0];
        let t = GenerationTable::from_states(&gens, &cols, 2);
        assert_eq!(t.n(), 4);
        assert_eq!(t.generation_total(1), 2);
        assert_eq!(t.color_support(Opinion::new(1)), 2);
        assert_eq!(t.generation_total(1) + t.generation_total(2), 3);
    }
}
