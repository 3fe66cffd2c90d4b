//! Opinions, opinion-count bookkeeping, and initial assignments.
//!
//! The paper's processes start from `n` nodes holding one of `k` opinions
//! ("colors"), with a *multiplicative bias* `α = c_a / c_b` between the
//! largest and second-largest opinion. [`InitialAssignment`] constructs the
//! initial vectors used by every protocol and baseline in the workspace;
//! [`OpinionCounts`] tracks support counts and computes the bias.

use plurality_dist::{AliasTable, InvalidParameterError};
use rand::Rng;
use std::fmt;

/// An opinion (the paper's "color"), identified by a dense index in
/// `0..k`.
///
/// # Examples
///
/// ```
/// use plurality_core::Opinion;
/// let a = Opinion::new(0);
/// assert_eq!(a.index(), 0);
/// assert_eq!(a.to_string(), "opinion#0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Opinion(u32);

impl Opinion {
    /// Creates an opinion with the given index.
    pub fn new(index: u32) -> Self {
        Self(index)
    }

    /// The dense index of this opinion.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Opinion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "opinion#{}", self.0)
    }
}

impl From<u32> for Opinion {
    fn from(index: u32) -> Self {
        Self(index)
    }
}

/// Support counts for `k` opinions over a population.
///
/// # Examples
///
/// ```
/// use plurality_core::{Opinion, OpinionCounts};
/// let counts = OpinionCounts::from_counts(vec![60, 30, 10]);
/// assert_eq!(counts.n(), 100);
/// assert_eq!(counts.winner(), Some(Opinion::new(0)));
/// assert_eq!(counts.bias(), Some(2.0)); // 60 / 30
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpinionCounts {
    counts: Vec<u64>,
}

impl OpinionCounts {
    /// Creates counts from an explicit vector (index = opinion).
    pub fn from_counts(counts: Vec<u64>) -> Self {
        Self { counts }
    }

    /// Tallies an opinion slice.
    ///
    /// # Panics
    ///
    /// Panics if an opinion index is `≥ k`.
    pub fn tally(opinions: &[Opinion], k: usize) -> Self {
        let mut counts = vec![0u64; k];
        for &op in opinions {
            counts[op.index() as usize] += 1;
        }
        Self { counts }
    }

    /// Number of opinions `k` (including zero-support ones).
    pub fn k(&self) -> usize {
        self.counts.len()
    }

    /// Total population size.
    pub fn n(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Support of one opinion.
    ///
    /// # Panics
    ///
    /// Panics if `opinion.index() ≥ k`.
    pub fn support(&self, opinion: Opinion) -> u64 {
        self.counts[opinion.index() as usize]
    }

    /// All counts, indexed by opinion.
    pub fn as_slice(&self) -> &[u64] {
        &self.counts
    }

    /// Increments the support of `opinion` by one.
    pub fn increment(&mut self, opinion: Opinion) {
        self.counts[opinion.index() as usize] += 1;
    }

    /// Decrements the support of `opinion` by one.
    ///
    /// # Panics
    ///
    /// Panics if the support is already zero.
    pub fn decrement(&mut self, opinion: Opinion) {
        let c = &mut self.counts[opinion.index() as usize];
        assert!(*c > 0, "decrement below zero for {opinion}");
        *c -= 1;
    }

    /// The opinion with the largest support (lowest index wins ties), or
    /// `None` if the population is empty.
    pub fn winner(&self) -> Option<Opinion> {
        let (idx, &max) = self
            .counts
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))?;
        if max == 0 {
            None
        } else {
            Some(Opinion::new(idx as u32))
        }
    }

    /// The two most supported opinions with their counts:
    /// `((winner, c_a), (runner_up, c_b))`. Requires `k ≥ 2`.
    pub fn top_two(&self) -> Option<((Opinion, u64), (Opinion, u64))> {
        if self.counts.len() < 2 {
            return None;
        }
        let mut best = (0usize, 0u64);
        let mut second = (0usize, 0u64);
        let mut have_best = false;
        for (i, &c) in self.counts.iter().enumerate() {
            if !have_best || c > best.1 {
                if have_best {
                    second = best;
                }
                best = (i, c);
                have_best = true;
            } else if c > second.1 || second.0 == best.0 {
                second = (i, c);
            }
        }
        // Fix up the degenerate case where second never moved off best.
        if second.0 == best.0 {
            let mut sec = None;
            for (i, &c) in self.counts.iter().enumerate() {
                if i != best.0 && (sec.is_none() || c > self.counts[sec.unwrap()]) {
                    sec = Some(i);
                }
            }
            let i = sec?;
            second = (i, self.counts[i]);
        }
        Some((
            (Opinion::new(best.0 as u32), best.1),
            (Opinion::new(second.0 as u32), second.1),
        ))
    }

    /// The multiplicative bias `α = c_a / c_b` between the largest and
    /// second-largest opinion. Returns `None` for `k < 2` populations and
    /// `Some(f64::INFINITY)` when the runner-up has no support.
    pub fn bias(&self) -> Option<f64> {
        let ((_, ca), (_, cb)) = self.top_two()?;
        if cb == 0 {
            if ca == 0 {
                None
            } else {
                Some(f64::INFINITY)
            }
        } else {
            Some(ca as f64 / cb as f64)
        }
    }

    /// Fraction of the population holding `opinion` (0 if empty).
    pub fn fraction(&self, opinion: Opinion) -> f64 {
        let n = self.n();
        if n == 0 {
            0.0
        } else {
            self.support(opinion) as f64 / n as f64
        }
    }

    /// Whether every node holds the same opinion (vacuously false for an
    /// empty population).
    pub fn is_monochromatic(&self) -> bool {
        let n = self.n();
        n > 0 && self.counts.contains(&n)
    }
}

/// Recipe for an initial opinion distribution.
///
/// Generation is deterministic given an RNG: counts are computed exactly,
/// then the opinion vector is shuffled so node index carries no information.
///
/// # Examples
///
/// ```
/// use plurality_core::InitialAssignment;
/// use plurality_dist::rng::Xoshiro256PlusPlus;
/// let assignment = InitialAssignment::with_bias(1_000, 5, 1.5).unwrap();
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// let opinions = assignment.materialize(&mut rng);
/// assert_eq!(opinions.len(), 1_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum InitialAssignment {
    /// Exact counts, indexed by opinion.
    Exact(Vec<u64>),
    /// Every opinion near `n/k`; remainders to the lowest indices (so
    /// opinion 0 is the plurality winner with bias ≈ 1).
    Uniform {
        /// Population size.
        n: u64,
        /// Number of opinions.
        k: u32,
    },
    /// Zipf-weighted random counts with exponent `s` (heavier head for
    /// larger `s`) — a "realistic" skewed electorate.
    Zipf {
        /// Population size.
        n: u64,
        /// Number of opinions.
        k: u32,
        /// Zipf exponent.
        s: f64,
    },
}

impl InitialAssignment {
    /// The paper's canonical setup: opinion 0 has multiplicative bias
    /// `alpha ≥ 1` over every other opinion, all others equal.
    ///
    /// Counts are `c_b = ⌊n / (α + k − 1)⌋` for opinions `1..k` and the
    /// remainder for opinion 0, so the realized bias is ≥ `alpha` (up to
    /// rounding) and the total is exactly `n`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] if `k < 2`, `alpha < 1`, or the
    /// rounding would leave the runner-up empty.
    pub fn with_bias(n: u64, k: u32, alpha: f64) -> Result<Self, InvalidParameterError> {
        if k < 2 {
            return Err(InvalidParameterError::new(format!(
                "with_bias requires k ≥ 2, got {k}"
            )));
        }
        if !(alpha >= 1.0 && alpha.is_finite()) {
            return Err(InvalidParameterError::new(format!(
                "with_bias requires finite alpha ≥ 1, got {alpha}"
            )));
        }
        let cb = (n as f64 / (alpha + k as f64 - 1.0)).floor() as u64;
        if cb == 0 {
            return Err(InvalidParameterError::new(format!(
                "population n = {n} too small for k = {k}, alpha = {alpha}: runner-up would be empty"
            )));
        }
        let mut counts = vec![cb; k as usize];
        counts[0] = n - cb * (k as u64 - 1);
        Ok(Self::Exact(counts))
    }

    /// Population size.
    pub fn n(&self) -> u64 {
        match self {
            Self::Exact(counts) => counts.iter().sum(),
            Self::Uniform { n, .. } | Self::Zipf { n, .. } => *n,
        }
    }

    /// Number of opinions.
    pub fn k(&self) -> u32 {
        match self {
            Self::Exact(counts) => counts.len() as u32,
            Self::Uniform { k, .. } | Self::Zipf { k, .. } => *k,
        }
    }

    /// Materializes the opinion vector, shuffled with `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the recipe is internally inconsistent (e.g. `k == 0` with
    /// positive `n`).
    pub fn materialize<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Opinion> {
        let mut opinions: Vec<Opinion> = match self {
            Self::Exact(counts) => {
                let mut v = Vec::with_capacity(counts.iter().sum::<u64>() as usize);
                for (idx, &c) in counts.iter().enumerate() {
                    let len = v.len() + c as usize;
                    v.resize(len, Opinion::new(idx as u32));
                }
                v
            }
            Self::Uniform { n, k } => {
                assert!(*k > 0 || *n == 0, "uniform assignment needs k ≥ 1");
                let base = n / *k as u64;
                let rem = (n % *k as u64) as usize;
                let mut v = Vec::with_capacity(*n as usize);
                for idx in 0..*k {
                    let c = base + u64::from((idx as usize) < rem);
                    let len = v.len() + c as usize;
                    v.resize(len, Opinion::new(idx));
                }
                v
            }
            Self::Zipf { n, k, s } => {
                assert!(*k > 0 || *n == 0, "zipf assignment needs k ≥ 1");
                let weights: Vec<f64> = (1..=*k).map(|rank| (rank as f64).powf(-s)).collect();
                let table = AliasTable::new(&weights).expect("valid zipf weights");
                let mut v = Vec::with_capacity(*n as usize);
                for _ in 0..*n {
                    v.push(Opinion::new(table.sample(rng) as u32));
                }
                v
            }
        };
        // Fisher–Yates shuffle so that node index is independent of opinion.
        for i in (1..opinions.len()).rev() {
            let j = rng.gen_range(0..=i);
            opinions.swap(i, j);
        }
        opinions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_dist::rng::Xoshiro256PlusPlus;

    #[test]
    fn counts_tally_and_query() {
        let ops = vec![
            Opinion::new(0),
            Opinion::new(1),
            Opinion::new(0),
            Opinion::new(2),
            Opinion::new(0),
        ];
        let c = OpinionCounts::tally(&ops, 3);
        assert_eq!(c.n(), 5);
        assert_eq!(c.support(Opinion::new(0)), 3);
        assert_eq!(c.winner(), Some(Opinion::new(0)));
        assert!(!c.is_monochromatic());
        assert_eq!(c.fraction(Opinion::new(0)), 0.6);
    }

    #[test]
    fn top_two_and_bias() {
        let c = OpinionCounts::from_counts(vec![10, 40, 20, 5]);
        let ((a, ca), (b, cb)) = c.top_two().unwrap();
        assert_eq!((a, ca), (Opinion::new(1), 40));
        assert_eq!((b, cb), (Opinion::new(2), 20));
        assert_eq!(c.bias(), Some(2.0));
    }

    #[test]
    fn bias_with_zero_runner_up_is_infinite() {
        let c = OpinionCounts::from_counts(vec![10, 0, 0]);
        assert_eq!(c.bias(), Some(f64::INFINITY));
        assert!(c.is_monochromatic());
    }

    #[test]
    fn top_two_handles_ties() {
        let c = OpinionCounts::from_counts(vec![5, 5, 5]);
        let ((a, ca), (_, cb)) = c.top_two().unwrap();
        assert_eq!(ca, 5);
        assert_eq!(cb, 5);
        assert_eq!(a, Opinion::new(0)); // lowest index wins ties
        assert_eq!(c.bias(), Some(1.0));
    }

    #[test]
    fn increment_decrement_roundtrip() {
        let mut c = OpinionCounts::from_counts(vec![0; 2]);
        c.increment(Opinion::new(1));
        assert_eq!(c.support(Opinion::new(1)), 1);
        c.decrement(Opinion::new(1));
        assert_eq!(c.support(Opinion::new(1)), 0);
    }

    #[test]
    #[should_panic(expected = "decrement below zero")]
    fn decrement_below_zero_panics() {
        let mut c = OpinionCounts::from_counts(vec![0; 2]);
        c.decrement(Opinion::new(0));
    }

    #[test]
    fn with_bias_realizes_requested_bias() {
        let a = InitialAssignment::with_bias(10_000, 10, 2.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        let ops = a.materialize(&mut rng);
        assert_eq!(ops.len(), 10_000);
        let counts = OpinionCounts::tally(&ops, 10);
        let bias = counts.bias().unwrap();
        assert!((2.0..2.2).contains(&bias), "bias {bias}");
        assert_eq!(counts.winner(), Some(Opinion::new(0)));
    }

    #[test]
    fn with_bias_rejects_bad_parameters() {
        assert!(InitialAssignment::with_bias(100, 1, 2.0).is_err());
        assert!(InitialAssignment::with_bias(100, 5, 0.5).is_err());
        assert!(InitialAssignment::with_bias(3, 5, 100.0).is_err());
    }

    #[test]
    fn uniform_counts_are_balanced() {
        let a = InitialAssignment::Uniform { n: 103, k: 10 };
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        let counts = OpinionCounts::tally(&a.materialize(&mut rng), 10);
        for op in 0..10 {
            let c = counts.support(Opinion::new(op));
            assert!(c == 10 || c == 11, "count {c}");
        }
        assert_eq!(counts.n(), 103);
    }

    #[test]
    fn zipf_is_head_heavy() {
        let a = InitialAssignment::Zipf {
            n: 50_000,
            k: 20,
            s: 1.2,
        };
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let counts = OpinionCounts::tally(&a.materialize(&mut rng), 20);
        assert!(counts.support(Opinion::new(0)) > counts.support(Opinion::new(10)));
    }

    #[test]
    fn materialize_is_deterministic_per_seed() {
        let a = InitialAssignment::with_bias(1_000, 4, 1.3).unwrap();
        let v1 = a.materialize(&mut Xoshiro256PlusPlus::from_u64(9));
        let v2 = a.materialize(&mut Xoshiro256PlusPlus::from_u64(9));
        assert_eq!(v1, v2);
        let v3 = a.materialize(&mut Xoshiro256PlusPlus::from_u64(10));
        assert_ne!(v1, v3);
    }
}
