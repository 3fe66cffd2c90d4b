//! Streaming summary statistics and success-rate intervals.

use plurality_dist::special::normal_quantile;

/// Welford-style online accumulator for mean/variance/extrema.
///
/// # Examples
///
/// ```
/// use plurality_stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert!((s.sample_sd() - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds an accumulator from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "OnlineStats::push: NaN observation");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than 2 observations).
    fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_sd(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = (self.count + other.count) as f64;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total;
        self.mean = new_mean;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fraction of `true` outcomes with a Wilson score interval — used for
/// success-rate reporting ("whp." surrogates).
///
/// Returns `(fraction, lo, hi)` at the given confidence.
///
/// # Panics
///
/// Panics if `trials == 0` or `successes > trials` or
/// `confidence ∉ (0, 1)`.
///
/// # Examples
///
/// ```
/// use plurality_stats::success_rate;
/// let (p, lo, hi) = success_rate(98, 100, 0.95);
/// assert_eq!(p, 0.98);
/// assert!(lo > 0.9 && hi <= 1.0);
/// ```
pub fn success_rate(successes: u64, trials: u64, confidence: f64) -> (f64, f64, f64) {
    assert!(trials > 0, "success_rate: trials must be positive");
    assert!(successes <= trials, "success_rate: successes > trials");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "success_rate: confidence must lie in (0, 1)"
    );
    let n = trials as f64;
    let p = successes as f64 / n;
    let z = normal_quantile(0.5 + confidence / 2.0);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / denom;
    (p, (centre - half).max(0.0), (centre + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = OnlineStats::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_and_singleton() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.sample_variance(), 0.0);
        let mut s = OnlineStats::new();
        s.push(3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn merge_matches_concatenation() {
        let xs = [1.0, 2.0, 3.5, 7.0, -1.0];
        let ys = [0.5, 10.0, 2.2];
        let mut a = OnlineStats::from_slice(&xs);
        let b = OnlineStats::from_slice(&ys);
        a.merge(&b);
        let all: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        let c = OnlineStats::from_slice(&all);
        assert_eq!(a.count(), c.count());
        assert!((a.mean() - c.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - c.sample_variance()).abs() < 1e-12);
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_push_panics() {
        let mut s = OnlineStats::new();
        s.push(f64::NAN);
    }

    #[test]
    fn wilson_interval_sane() {
        let (p, lo, hi) = success_rate(50, 100, 0.95);
        assert_eq!(p, 0.5);
        assert!(lo > 0.39 && lo < 0.41, "lo {lo}");
        assert!(hi > 0.59 && hi < 0.61, "hi {hi}");
        // Perfect record: interval stays below 1 but close.
        let (_, lo, hi) = success_rate(100, 100, 0.95);
        assert!(hi <= 1.0 && lo > 0.94);
    }
}
