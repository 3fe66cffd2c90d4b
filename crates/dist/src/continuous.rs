//! Continuous distributions: exponential, gamma, and Weibull.
//!
//! These are the building blocks of the asynchronous model: Poisson clocks
//! are exponential inter-arrival samplers, Erlang/Weibull edge latencies
//! model positively aging channels, and the Γ(7, β) law majorizes the
//! composite waiting time of a full communication step (Remark 14).

use crate::special::normal_quantile;
use crate::InvalidParameterError;
use rand::Rng;

/// A uniform draw from the *open* interval `(0, 1)` — safe to pass to
/// `ln` without producing `-inf`.
#[inline]
pub(crate) fn open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            return u;
        }
    }
}

/// A standard normal draw via the inverse-CDF method (accurate to ~1e-9,
/// far below simulation noise).
#[inline]
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    normal_quantile(open01(rng))
}

/// The exponential distribution with rate `λ` (mean `1/λ`).
///
/// # Examples
///
/// ```
/// use plurality_dist::rng::Xoshiro256PlusPlus;
/// use plurality_dist::Exponential;
///
/// let d = Exponential::new(4.0)?;
/// assert_eq!(d.rate(), 4.0);
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// assert!(d.sample(&mut rng) > 0.0);
/// # Ok::<(), plurality_dist::InvalidParameterError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] if `rate` is not positive and
    /// finite.
    pub fn new(rate: f64) -> Result<Self, InvalidParameterError> {
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(InvalidParameterError::new(format!(
                "exponential rate must be positive and finite, got {rate}"
            )));
        }
        Ok(Self { rate })
    }

    /// The rate parameter `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Draws one value (strictly positive) by CDF inversion.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -open01(rng).ln() / self.rate
    }

    /// Draws one value (strictly positive) with the ziggurat method —
    /// the same law as [`Self::sample`] but a different (and faster)
    /// consumption of the RNG stream: ~99% of draws cost one `u64` and
    /// one multiply, no `ln`. Hot paths that are free to re-shape their
    /// stream use this; code bound to a historical stream keeps
    /// [`Self::sample`].
    #[inline]
    pub fn sample_fast<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        unit_exp(rng) / self.rate
    }
}

/// Right edge of the base ziggurat layer for the unit exponential
/// (Marsaglia & Tsang 2000 / Doornik 2005, 256 layers).
const ZIG_R: f64 = 7.697_117_470_131_487;
/// Common area of each ziggurat layer (base rectangle + tail for layer 0).
const ZIG_V: f64 = 3.949_659_822_581_572e-3;

/// Ziggurat layer tables for the unit exponential: `x[i]` are the layer
/// right edges (`x[0] = V·e^R` spans the tail, `x[1] = R`, `x[256] = 0`),
/// `f[i] = e^{−x[i]}`.
struct ZigTables {
    x: [f64; 257],
    f: [f64; 257],
}

static ZIG_TABLES: std::sync::OnceLock<ZigTables> = std::sync::OnceLock::new();

fn zig_tables() -> &'static ZigTables {
    ZIG_TABLES.get_or_init(|| {
        let mut x = [0.0f64; 257];
        x[0] = ZIG_V * ZIG_R.exp();
        x[1] = ZIG_R;
        for i in 2..256 {
            x[i] = -((-x[i - 1]).exp() + ZIG_V / x[i - 1]).ln();
        }
        x[256] = 0.0;
        let mut f = [0.0f64; 257];
        for i in 0..257 {
            f[i] = (-x[i]).exp();
        }
        ZigTables { x, f }
    })
}

/// A unit-rate exponential draw via the 256-layer ziggurat: one `u64`
/// draw and one multiply on the ~98.9% fast path, a wedge rejection test
/// otherwise, and — since the exponential is memoryless — a shifted
/// restart for the `e^{−R} ≈ 4.5·10⁻⁴` tail. Each call fetches the
/// tables through a `OnceLock`; a loop of draws fetches a [`UnitExp`]
/// once instead.
#[inline]
pub fn unit_exp<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    UnitExp::fetch().sample(rng)
}

/// The ziggurat tables of [`unit_exp`], fetched once: its draws are
/// bit-identical to [`unit_exp`]'s, without the per-draw `OnceLock`
/// check.
#[derive(Clone, Copy)]
pub struct UnitExp(&'static ZigTables);

impl UnitExp {
    /// Fetches the tables, building them on first use.
    #[inline]
    pub fn fetch() -> Self {
        Self(zig_tables())
    }

    /// One unit-rate exponential draw (see [`unit_exp`]).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let t = self.0;
        let mut shift = 0.0;
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xFF) as usize;
            // Bits 11..64 form the mantissa (disjoint from the index bits).
            let u = (bits >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
            let x = u * t.x[i];
            if x < t.x[i + 1] {
                // Inside the layer's rectangle: accept (rejecting the
                // measure-zero x = 0, as `open01` does for `sample`).
                if x > 0.0 {
                    return shift + x;
                }
                continue;
            }
            if i == 0 {
                shift += ZIG_R;
                continue;
            }
            if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>() < (-x).exp() {
                return shift + x;
            }
        }
    }
}

/// The gamma distribution with shape `k` and rate `β` (mean `k/β`).
///
/// Sampling uses Marsaglia & Tsang's squeeze method for `k ≥ 1` and the
/// standard `U^{1/k}` boost for `k < 1`; both are exact
/// acceptance-rejection schemes.
///
/// # Examples
///
/// ```
/// use plurality_dist::rng::Xoshiro256PlusPlus;
/// use plurality_dist::Gamma;
///
/// let d = Gamma::new(7.0, 2.0)?;
/// assert_eq!(d.mean(), 3.5);
/// let mut rng = Xoshiro256PlusPlus::from_u64(2);
/// assert!(d.sample(&mut rng) > 0.0);
/// # Ok::<(), plurality_dist::InvalidParameterError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    rate: f64,
}

impl Gamma {
    /// Creates a gamma distribution with the given shape and rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] if either parameter is not
    /// positive and finite.
    pub fn new(shape: f64, rate: f64) -> Result<Self, InvalidParameterError> {
        if !(shape > 0.0 && shape.is_finite()) {
            return Err(InvalidParameterError::new(format!(
                "gamma shape must be positive and finite, got {shape}"
            )));
        }
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(InvalidParameterError::new(format!(
                "gamma rate must be positive and finite, got {rate}"
            )));
        }
        Ok(Self { shape, rate })
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The rate parameter `β`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The mean `k/β`.
    pub fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    /// Draws one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.shape < 1.0 {
            // Boost: if X ~ Gamma(k+1) and U ~ U(0,1) then X·U^{1/k} ~ Gamma(k).
            let boosted = Self {
                shape: self.shape + 1.0,
                rate: self.rate,
            };
            return boosted.sample(rng) * open01(rng).powf(1.0 / self.shape);
        }
        // Marsaglia & Tsang (2000).
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u = open01(rng);
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 {
                return d * v / self.rate;
            }
            if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return d * v / self.rate;
            }
        }
    }
}

/// The Weibull distribution with shape `k` and scale `λ`
/// (mean `λ·Γ(1 + 1/k)`).
///
/// For `k ≥ 1` the hazard rate is non-decreasing — the *positive aging*
/// property the paper's title refers to; `k = 1` recovers the exponential.
///
/// # Examples
///
/// ```
/// use plurality_dist::rng::Xoshiro256PlusPlus;
/// use plurality_dist::Weibull;
///
/// let d = Weibull::new(1.5, 1.0)?;
/// let mut rng = Xoshiro256PlusPlus::from_u64(3);
/// assert!(d.sample(&mut rng) > 0.0);
/// # Ok::<(), plurality_dist::InvalidParameterError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution with the given shape and scale.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] if either parameter is not
    /// positive and finite.
    pub fn new(shape: f64, scale: f64) -> Result<Self, InvalidParameterError> {
        if !(shape > 0.0 && shape.is_finite()) {
            return Err(InvalidParameterError::new(format!(
                "weibull shape must be positive and finite, got {shape}"
            )));
        }
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(InvalidParameterError::new(format!(
                "weibull scale must be positive and finite, got {scale}"
            )));
        }
        Ok(Self { shape, scale })
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The mean `λ·Γ(1 + 1/k)`.
    pub fn mean(&self) -> f64 {
        self.scale * crate::special::gamma_fn(1.0 + 1.0 / self.shape)
    }

    /// Draws one value by CDF inversion.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.scale * (-open01(rng).ln()).powf(1.0 / self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256PlusPlus;

    fn sample_stats(mut draw: impl FnMut() -> f64, n: usize) -> (f64, f64) {
        let xs: Vec<f64> = (0..n).map(|_| draw()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        (mean, var)
    }

    #[test]
    fn exponential_rejects_bad_rates() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-2.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn exponential_mean_and_variance_match_theory() {
        let d = Exponential::new(2.5).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(10);
        let (mean, var) = sample_stats(|| d.sample(&mut rng), 200_000);
        assert!((mean - 0.4).abs() < 0.01, "mean {mean}");
        assert!((var - 0.16).abs() < 0.01, "var {var}");
    }

    #[test]
    fn ziggurat_tables_are_well_formed() {
        let t = zig_tables();
        // Edges strictly decrease from the tail edge down to 0, and the
        // recurrence must stay well away from the complex domain.
        for i in 1..257 {
            assert!(t.x[i] < t.x[i - 1], "x not decreasing at {i}");
            assert!(t.x[i].is_finite());
        }
        assert!((t.x[1] - ZIG_R).abs() < 1e-12);
        assert_eq!(t.x[256], 0.0);
        // The recurrence should close: the top layer's rectangle
        // (width x[255], height 1 − f[255]) has area ≈ V, i.e. the
        // published (R, V) pair is consistent with 256 layers.
        let top_area = t.x[255] * (1.0 - t.f[255]);
        assert!((top_area - ZIG_V).abs() < 1e-8, "top area {top_area}");
        for i in 0..257 {
            assert!(t.f[i] > 0.0 && t.f[i] <= 1.0);
            assert!((t.f[i] - (-t.x[i]).exp()).abs() < 1e-15);
        }
    }

    #[test]
    fn ziggurat_moments_and_tail_match_unit_exponential() {
        let mut rng = Xoshiro256PlusPlus::from_u64(15);
        let n = 400_000;
        let xs: Vec<f64> = (0..n).map(|_| unit_exp(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        // Quantile checks across the body and the shifted tail.
        for (q, p) in [
            (0.5, 1.0 - (-0.5f64).exp()),
            (2.0, 1.0 - (-2.0f64).exp()),
            (8.0, 1.0 - (-8.0f64).exp()),
        ] {
            let hits = xs.iter().filter(|&&x| x <= q).count() as f64 / n as f64;
            let tol = 3.0 * (p * (1.0 - p) / n as f64).sqrt() + 1e-4;
            assert!((hits - p).abs() < tol, "P(X<={q}) = {hits}, want {p}");
        }
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn sample_fast_scales_by_rate() {
        let d = Exponential::new(2.5).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(16);
        let (mean, var) = sample_stats(|| d.sample_fast(&mut rng), 200_000);
        assert!((mean - 0.4).abs() < 0.01, "mean {mean}");
        assert!((var - 0.16).abs() < 0.01, "var {var}");
    }

    #[test]
    fn gamma_mean_and_variance_match_theory() {
        // Gamma(7, 2): mean 3.5, variance 7/4.
        let d = Gamma::new(7.0, 2.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(11);
        let (mean, var) = sample_stats(|| d.sample(&mut rng), 200_000);
        assert!((mean - 3.5).abs() < 0.03, "mean {mean}");
        assert!((var - 1.75).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gamma_small_shape_boost_is_unbiased() {
        // Gamma(0.5, 1): mean 0.5, variance 0.5.
        let d = Gamma::new(0.5, 1.0).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(12);
        let (mean, var) = sample_stats(|| d.sample(&mut rng), 200_000);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 0.5).abs() < 0.03, "var {var}");
    }

    #[test]
    fn weibull_mean_matches_gamma_function_formula() {
        // Weibull(2, 1): mean Γ(1.5) = √π/2 ≈ 0.886227.
        let d = Weibull::new(2.0, 1.0).unwrap();
        assert!((d.mean() - 0.886_226_925_452_758).abs() < 1e-12);
        let mut rng = Xoshiro256PlusPlus::from_u64(13);
        let (mean, _) = sample_stats(|| d.sample(&mut rng), 200_000);
        assert!((mean - d.mean()).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = Weibull::new(1.0, 2.0).unwrap();
        assert!((w.mean() - 2.0).abs() < 1e-12);
        let mut rng = Xoshiro256PlusPlus::from_u64(14);
        let (mean, var) = sample_stats(|| w.sample(&mut rng), 100_000);
        assert!((mean - 2.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.3);
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let d = Gamma::new(3.0, 1.0).unwrap();
        let mut a = Xoshiro256PlusPlus::from_u64(15);
        let mut b = Xoshiro256PlusPlus::from_u64(15);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
