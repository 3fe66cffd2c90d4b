//! Edge-latency laws and composite channel waiting times.
//!
//! In the asynchronous model (Section 3.1 of arXiv 1806.02596), every
//! message crossing an edge is delayed by an i.i.d. draw from a latency
//! law `F` with **positive aging** — a non-decreasing hazard rate. The
//! protocol's real-time behaviour is measured in *time units*
//! `C1 = F⁻¹(0.9)` of the composite waiting time `T3` of one full
//! interaction (Figure 1):
//!
//! * `T1` — one edge traversal (a single latency draw);
//! * `T2 = T1 + T1` — establishing one channel (request + accept);
//! * channel phase — the node's parallel channels followed by the leader
//!   channel (`max(T2, T2) + T2` in the single-leader pattern);
//! * `T3` — channel phase plus the final one-way signal to the leader.
//!
//! For exponential latencies `Exp(β)`, `T3` is stochastically dominated by
//! a `Γ(7, β)` variable (sum of 7 edge traversals), which is the majorant
//! the analysis quantifies against; the paper's Remark 14 claims the
//! cruder bound `10/(3β)`, which the measured `C1` exceeds for slow
//! channels (see EXPERIMENTS.md, E1).

use crate::continuous::{open01, Exponential, Gamma, UnitExp, Weibull};
use crate::quantile::quantile_sorted;
use crate::rng::{derive_seed, Xoshiro256PlusPlus};
use crate::special::gamma_quantile_integer;
use crate::InvalidParameterError;
use rand::Rng;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An edge-latency law. All stock families have non-decreasing hazard
/// rates for the parameter ranges their constructors accept with
/// `shape ≥ 1` — the *positive aging* property of the paper's title
/// ([`Latency::is_positive_aging`]).
///
/// # Examples
///
/// ```
/// use plurality_dist::rng::Xoshiro256PlusPlus;
/// use plurality_dist::Latency;
///
/// // Mean-1 members of different families:
/// let families = [
///     Latency::exponential(1.0)?,
///     Latency::erlang(4, 4.0)?,
///     Latency::weibull_with_mean(1.5, 1.0)?,
///     Latency::uniform(0.0, 2.0)?,
///     Latency::deterministic(1.0)?,
/// ];
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// for latency in families {
///     assert!((latency.mean() - 1.0).abs() < 1e-12);
///     assert!(latency.sample(&mut rng) >= 0.0);
/// }
/// # Ok::<(), plurality_dist::InvalidParameterError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Latency {
    /// Exponential with the given rate — the memoryless boundary case of
    /// positive aging (constant hazard).
    Exponential {
        /// Rate `λ` (mean `1/λ`).
        rate: f64,
    },
    /// Erlang (integer-shape gamma): the sum of `shape` independent
    /// `Exp(rate)` stages; strictly aging for `shape ≥ 2`.
    Erlang {
        /// Number of exponential stages.
        shape: u32,
        /// Per-stage rate (mean `shape/rate`).
        rate: f64,
    },
    /// Weibull; strictly aging for `shape > 1`.
    Weibull {
        /// Shape `k`.
        shape: f64,
        /// Scale `λ` (mean `λ·Γ(1 + 1/k)`).
        scale: f64,
    },
    /// Uniform on `[lo, hi)`; bounded support gives an increasing hazard.
    Uniform {
        /// Inclusive lower bound (≥ 0).
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// A deterministic latency — the extreme of positive aging.
    Deterministic {
        /// The fixed latency value.
        value: f64,
    },
}

impl Latency {
    /// Exponential latency with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] if `rate` is not positive and
    /// finite.
    pub fn exponential(rate: f64) -> Result<Self, InvalidParameterError> {
        Exponential::new(rate)?;
        Ok(Self::Exponential { rate })
    }

    /// Erlang latency: the sum of `shape` independent `Exp(rate)` stages.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] if `shape == 0` or `rate` is not
    /// positive and finite.
    pub fn erlang(shape: u32, rate: f64) -> Result<Self, InvalidParameterError> {
        if shape == 0 {
            return Err(InvalidParameterError::new(
                "erlang shape must be at least 1",
            ));
        }
        Exponential::new(rate)?;
        Ok(Self::Erlang { shape, rate })
    }

    /// Weibull latency with the given shape, scaled so the mean equals
    /// `mean` (convenient for fixed-mean family comparisons).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] if `shape` or `mean` is not
    /// positive and finite.
    pub fn weibull_with_mean(shape: f64, mean: f64) -> Result<Self, InvalidParameterError> {
        if !(mean > 0.0 && mean.is_finite()) {
            return Err(InvalidParameterError::new(format!(
                "weibull mean must be positive and finite, got {mean}"
            )));
        }
        // Validates the shape.
        Weibull::new(shape, 1.0)?;
        let scale = mean / crate::special::gamma_fn(1.0 + 1.0 / shape);
        Ok(Self::Weibull { shape, scale })
    }

    /// Uniform latency on `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] unless `0 ≤ lo < hi` with both
    /// bounds finite.
    pub fn uniform(lo: f64, hi: f64) -> Result<Self, InvalidParameterError> {
        if !(lo >= 0.0 && lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(InvalidParameterError::new(format!(
                "uniform latency needs 0 ≤ lo < hi, got [{lo}, {hi})"
            )));
        }
        Ok(Self::Uniform { lo, hi })
    }

    /// Deterministic latency of the given value.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] if `value` is not positive and
    /// finite.
    pub fn deterministic(value: f64) -> Result<Self, InvalidParameterError> {
        if !(value > 0.0 && value.is_finite()) {
            return Err(InvalidParameterError::new(format!(
                "deterministic latency must be positive and finite, got {value}"
            )));
        }
        Ok(Self::Deterministic { value })
    }

    /// Draws one edge latency (`T1`).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Self::Exponential { rate } => -open01(rng).ln() / rate,
            Self::Erlang { shape, rate } => {
                if shape <= 16 {
                    let mut acc = 0.0;
                    for _ in 0..shape {
                        acc -= open01(rng).ln();
                    }
                    acc / rate
                } else {
                    Gamma::new(f64::from(shape), rate)
                        .expect("validated at construction")
                        .sample(rng)
                }
            }
            Self::Weibull { shape, scale } => scale * (-open01(rng).ln()).powf(1.0 / shape),
            Self::Uniform { lo, hi } => lo + rng.gen::<f64>() * (hi - lo),
            Self::Deterministic { value } => value,
        }
    }

    /// The expected latency `E[T1]`.
    pub fn mean(&self) -> f64 {
        match *self {
            Self::Exponential { rate } => 1.0 / rate,
            Self::Erlang { shape, rate } => f64::from(shape) / rate,
            Self::Weibull { shape, scale } => scale * crate::special::gamma_fn(1.0 + 1.0 / shape),
            Self::Uniform { lo, hi } => 0.5 * (lo + hi),
            Self::Deterministic { value } => value,
        }
    }

    /// Whether the law has a non-decreasing hazard rate — the paper's
    /// *positive aging* assumption. True for every stock family except
    /// sub-exponential Weibulls (`shape < 1`), whose hazard decreases.
    pub fn is_positive_aging(&self) -> bool {
        match *self {
            Self::Exponential { .. } => true, // constant hazard: boundary case
            Self::Erlang { shape, .. } => shape >= 1,
            Self::Weibull { shape, .. } => shape >= 1.0,
            Self::Uniform { .. } => true,
            Self::Deterministic { .. } => true,
        }
    }

    /// The machine-readable spec of this law, in the grammar of
    /// [`Latency::parse_spec`]. The CLI, the scenario DSL ecosystem, and
    /// the `plurality-api` run specs all share this one grammar.
    ///
    /// `Latency::parse_spec(&l.spec())` reproduces `l` exactly for the
    /// exponential, Erlang, uniform, and deterministic families; the
    /// Weibull family is mean-parameterized in the grammar, so its
    /// round-trip is exact up to the floating-point `scale ↔ mean`
    /// conversion.
    pub fn spec(&self) -> String {
        match *self {
            Self::Exponential { rate } => format!("exp:{rate}"),
            Self::Erlang { shape, rate } => format!("erlang:{shape}:{rate}"),
            Self::Weibull { shape, .. } => format!("weibull:{shape}:{}", self.mean()),
            Self::Uniform { lo, hi } => format!("uniform:{lo}:{hi}"),
            Self::Deterministic { value } => format!("det:{value}"),
        }
    }

    /// Parses a latency spec:
    ///
    /// ```text
    /// exp:RATE | erlang:SHAPE:RATE | weibull:SHAPE:MEAN
    ///          | uniform:LO:HI     | det:VALUE
    /// ```
    ///
    /// # Examples
    ///
    /// ```
    /// use plurality_dist::Latency;
    /// assert_eq!(Latency::parse_spec("exp:2.0"), Latency::exponential(2.0));
    /// assert_eq!(Latency::parse_spec("erlang:3:1.5"), Latency::erlang(3, 1.5));
    /// assert!(Latency::parse_spec("cauchy:1").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] for unknown families, malformed
    /// numbers, or parameters the family constructors reject.
    pub fn parse_spec(spec: &str) -> Result<Self, InvalidParameterError> {
        let parts: Vec<&str> = spec.split(':').collect();
        let num = |s: &str| -> Result<f64, InvalidParameterError> {
            s.parse()
                .map_err(|_| InvalidParameterError::new(format!("`{s}` is not a number")))
        };
        match parts.as_slice() {
            ["exp", rate] => Self::exponential(num(rate)?),
            ["erlang", shape, rate] => {
                let shape: u32 = shape.parse().map_err(|_| {
                    InvalidParameterError::new(format!("`{shape}` is not an integer"))
                })?;
                Self::erlang(shape, num(rate)?)
            }
            ["weibull", shape, mean] => Self::weibull_with_mean(num(shape)?, num(mean)?),
            ["uniform", lo, hi] => Self::uniform(num(lo)?, num(hi)?),
            ["det", value] => Self::deterministic(num(value)?),
            _ => Err(InvalidParameterError::new(format!(
                "unknown latency spec `{spec}` (expected exp:RATE, erlang:SHAPE:RATE, \
                 weibull:SHAPE:MEAN, uniform:LO:HI, or det:VALUE)"
            ))),
        }
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Exponential { rate } => write!(f, "Exp({rate})"),
            Self::Erlang { shape, rate } => write!(f, "Erlang({shape}, {rate})"),
            Self::Weibull { shape, scale } => write!(f, "Weibull({shape}, scale {scale:.4})"),
            Self::Uniform { lo, hi } => write!(f, "Uniform[{lo}, {hi})"),
            Self::Deterministic { value } => write!(f, "Deterministic({value})"),
        }
    }
}

/// Which channels a node opens per interaction — determines the shape of
/// the composite waiting time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelPattern {
    /// Algorithm 2: two peer channels in parallel, then the leader
    /// channel (`max(T2, T2) + T2`).
    SingleLeader,
    /// Algorithm 4: three peer channels in parallel (the third doubles as
    /// the line to the sampled node's cluster leader), then the relay
    /// channel (`max(T2, T2, T2) + T2`).
    MultiLeader,
}

impl ChannelPattern {
    /// How many parallel peer channels the pattern opens.
    fn parallel_channels(self) -> u32 {
        match self {
            Self::SingleLeader => 2,
            Self::MultiLeader => 3,
        }
    }

    /// Edge traversals in the Γ majorant of `T3`: each parallel channel
    /// majorized by its 2-traversal sum, plus 2 for the sequential channel
    /// and 1 for the final signal.
    fn majorant_stages(self) -> u32 {
        2 * self.parallel_channels() + 2 + 1
    }
}

/// The composite waiting time of one interaction under a latency law and
/// channel pattern: the sampler behind the paper's time unit
/// `C1 = F⁻¹(0.9)` (Figure 1).
///
/// # Examples
///
/// ```
/// use plurality_dist::{ChannelPattern, Latency, WaitingTime};
///
/// let wt = WaitingTime::new(
///     Latency::exponential(1.0)?,
///     ChannelPattern::SingleLeader,
/// );
/// let c1 = wt.time_unit(20_000, 42);
/// // Above the paper's claimed Remark 14 constant, below the Γ(7, β)
/// // majorant quantile (the reproduction finding of experiment E1).
/// assert!(c1 > wt.remark14_bound().unwrap());
/// assert!(c1 <= wt.majorant_time_unit().unwrap());
/// # Ok::<(), plurality_dist::InvalidParameterError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaitingTime {
    latency: Latency,
    pattern: ChannelPattern,
}

impl WaitingTime {
    /// Creates the waiting-time law for a latency and channel pattern.
    pub fn new(latency: Latency, pattern: ChannelPattern) -> Self {
        Self { latency, pattern }
    }

    /// The underlying edge-latency law.
    pub fn latency(&self) -> Latency {
        self.latency
    }

    /// The channel pattern.
    pub fn pattern(&self) -> ChannelPattern {
        self.pattern
    }

    /// One channel-establishment time `T2 = T1 + T1`.
    #[inline]
    fn sample_t2<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.latency.sample(rng) + self.latency.sample(rng)
    }

    /// The channel phase of one interaction: the parallel peer channels
    /// (their maximum) followed by the sequential leader/relay channel.
    /// This is the delay the engines schedule between a tick and its
    /// `OpComplete` event.
    ///
    /// For exponential latencies each `T2`, an `Erlang(2, β)` variable, is
    /// the sum of a pair of unit-rate ziggurat draws ([`UnitExp`]), and
    /// the phase is divided by `β` once at the end: the same law as two
    /// `Latency::sample` calls per channel, with no transcendental on the
    /// ziggurat's fast path (one `u64` per draw there, more on its rare
    /// wedge and tail steps) on the engines' hottest sampling path.
    #[inline]
    pub fn sample_channel_phase<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if let Latency::Exponential { rate } = self.latency {
            let z = UnitExp::fetch();
            let mut slowest = z.sample(rng) + z.sample(rng);
            for _ in 1..self.pattern.parallel_channels() {
                slowest = slowest.max(z.sample(rng) + z.sample(rng));
            }
            return (slowest + z.sample(rng) + z.sample(rng)) / rate;
        }
        let mut slowest = self.sample_t2(rng);
        for _ in 1..self.pattern.parallel_channels() {
            slowest = slowest.max(self.sample_t2(rng));
        }
        slowest + self.sample_t2(rng)
    }

    /// The full composite waiting time `T3`: channel phase plus the final
    /// one-way signal travel. The time unit is the 0.9-quantile of this
    /// law.
    #[inline]
    pub fn sample_t3<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_channel_phase(rng) + self.latency.sample(rng)
    }

    /// Monte-Carlo estimate of the time unit `C1 = F⁻¹(0.9)` of `T3`,
    /// from `samples` draws of a dedicated generator seeded with `seed` —
    /// deterministic, so engines deriving thresholds from it stay pure
    /// functions of their seed.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn time_unit(&self, samples: usize, seed: u64) -> f64 {
        assert!(samples > 0, "time_unit: need at least one sample");
        let mut rng = Xoshiro256PlusPlus::from_u64(seed);
        let mut draws: Vec<f64> = (0..samples).map(|_| self.sample_t3(&mut rng)).collect();
        draws.sort_by(|a, b| a.partial_cmp(b).expect("waiting times are finite"));
        quantile_sorted(&draws, 0.9)
    }

    /// Memoized [`WaitingTime::time_unit`]: the estimate for this
    /// `(latency, pattern, samples)` triple, computed once per process
    /// under a deterministic seed derived from the latency law and the
    /// channel pattern, and served from a global cache afterwards.
    ///
    /// Engines use this so sweeping thousands of repetitions re-runs the
    /// Monte-Carlo quantile estimate once per latency law instead of once
    /// per repetition. Because the seed is a pure function of the triple,
    /// the cached value is identical across processes, threads, and
    /// repetition counts — a run configured by it remains a pure function
    /// of its own seed.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn time_unit_cached(&self, samples: usize) -> f64 {
        /// Cache key: latency family tag, its two parameter bit patterns,
        /// the channel pattern, and the sample count.
        type TimeUnitKey = (u8, u64, u64, u8, usize);
        static CACHE: OnceLock<Mutex<HashMap<TimeUnitKey, f64>>> = OnceLock::new();
        let key = self.cache_key(samples);
        let mut cache = CACHE
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("time-unit cache poisoned");
        // The estimate is computed while holding the lock: concurrent
        // callers wanting the same triple wait for one computation rather
        // than racing through redundant 20k-sample estimates.
        *cache
            .entry(key)
            .or_insert_with(|| self.time_unit(samples, self.time_unit_cache_seed()))
    }

    /// The deterministic seed [`WaitingTime::time_unit_cached`] feeds to
    /// [`WaitingTime::time_unit`]: a `derive_seed` fold over the latency
    /// family, its parameter bits, and the channel pattern.
    fn time_unit_cache_seed(&self) -> u64 {
        let (tag, p0, p1, pattern, _) = self.cache_key(0);
        let mut seed = derive_seed(0x0C1C_AC4E, u64::from(tag));
        seed = derive_seed(seed, p0);
        seed = derive_seed(seed, p1);
        derive_seed(seed, u64::from(pattern))
    }

    /// Canonical cache key for this waiting-time law: latency family tag,
    /// its two parameter payloads (f64 bit patterns / integer shapes),
    /// channel pattern, and sample count.
    fn cache_key(&self, samples: usize) -> (u8, u64, u64, u8, usize) {
        let (tag, p0, p1) = match self.latency {
            Latency::Exponential { rate } => (0u8, rate.to_bits(), 0),
            Latency::Erlang { shape, rate } => (1, u64::from(shape), rate.to_bits()),
            Latency::Weibull { shape, scale } => (2, shape.to_bits(), scale.to_bits()),
            Latency::Uniform { lo, hi } => (3, lo.to_bits(), hi.to_bits()),
            Latency::Deterministic { value } => (4, value.to_bits(), 0),
        };
        let pattern = match self.pattern {
            ChannelPattern::SingleLeader => 0u8,
            ChannelPattern::MultiLeader => 1,
        };
        (tag, p0, p1, pattern, samples)
    }

    /// The exact 0.9-quantile of the `Γ(s, β)` majorant of `T3` for
    /// exponential latencies (`s = 7` single-leader, `s = 9`
    /// multi-leader): every `max` replaced by a sum. `None` for
    /// non-exponential latencies, where no closed-form majorant is used.
    pub fn majorant_time_unit(&self) -> Option<f64> {
        match self.latency {
            Latency::Exponential { rate } => Some(gamma_quantile_integer(
                self.pattern.majorant_stages(),
                rate,
                0.9,
            )),
            _ => None,
        }
    }

    /// The paper's claimed Remark 14 bound `10/(3β)` on the single-leader
    /// time unit for exponential latencies. The measured `C1` *exceeds*
    /// this for slow channels — the reproduction's E1 finding (the
    /// Remark's proof drops an `e^{−βx}` factor); the Γ majorant of
    /// [`WaitingTime::majorant_time_unit`] is the corrected bound.
    /// `None` for other latency families or the multi-leader pattern.
    pub fn remark14_bound(&self) -> Option<f64> {
        match (self.latency, self.pattern) {
            (Latency::Exponential { rate }, ChannelPattern::SingleLeader) => {
                Some(10.0 / (3.0 * rate))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate_parameters() {
        assert!(Latency::exponential(0.0).is_err());
        assert!(Latency::exponential(-1.0).is_err());
        assert!(Latency::erlang(0, 1.0).is_err());
        assert!(Latency::erlang(2, 0.0).is_err());
        assert!(Latency::weibull_with_mean(0.0, 1.0).is_err());
        assert!(Latency::weibull_with_mean(1.5, -1.0).is_err());
        assert!(Latency::uniform(2.0, 1.0).is_err());
        assert!(Latency::uniform(-1.0, 1.0).is_err());
        assert!(Latency::deterministic(0.0).is_err());
        assert!(Latency::deterministic(f64::INFINITY).is_err());
    }

    #[test]
    fn means_match_constructions() {
        assert_eq!(Latency::exponential(4.0).unwrap().mean(), 0.25);
        assert_eq!(Latency::erlang(6, 3.0).unwrap().mean(), 2.0);
        assert!((Latency::weibull_with_mean(1.5, 2.5).unwrap().mean() - 2.5).abs() < 1e-12);
        assert_eq!(Latency::uniform(1.0, 3.0).unwrap().mean(), 2.0);
        assert_eq!(Latency::deterministic(0.7).unwrap().mean(), 0.7);
    }

    #[test]
    fn empirical_means_match_theory() {
        let mut rng = Xoshiro256PlusPlus::from_u64(20);
        for latency in [
            Latency::exponential(2.0).unwrap(),
            Latency::erlang(3, 3.0).unwrap(),
            Latency::weibull_with_mean(1.5, 1.0).unwrap(),
            Latency::uniform(0.5, 1.5).unwrap(),
            Latency::deterministic(1.0).unwrap(),
        ] {
            const N: usize = 100_000;
            let mean = (0..N).map(|_| latency.sample(&mut rng)).sum::<f64>() / N as f64;
            assert!(
                (mean - latency.mean()).abs() < 0.01,
                "{latency}: empirical {mean} vs {}",
                latency.mean()
            );
        }
    }

    #[test]
    fn every_stock_family_is_positive_aging() {
        for latency in [
            Latency::exponential(1.0).unwrap(),
            Latency::erlang(5, 5.0).unwrap(),
            Latency::weibull_with_mean(3.0, 1.0).unwrap(),
            Latency::uniform(0.0, 2.0).unwrap(),
            Latency::deterministic(1.0).unwrap(),
        ] {
            assert!(latency.is_positive_aging(), "{latency}");
        }
        // A sub-exponential Weibull would not be.
        let decreasing = Latency::Weibull {
            shape: 0.5,
            scale: 1.0,
        };
        assert!(!decreasing.is_positive_aging());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Latency::exponential(1.0).unwrap().to_string(), "Exp(1)");
        assert!(Latency::erlang(2, 2.0)
            .unwrap()
            .to_string()
            .contains("Erlang"));
    }

    #[test]
    fn time_unit_is_deterministic_and_seed_sensitive() {
        let wt = WaitingTime::new(
            Latency::exponential(0.5).unwrap(),
            ChannelPattern::SingleLeader,
        );
        assert_eq!(wt.time_unit(5_000, 9), wt.time_unit(5_000, 9));
        assert_ne!(wt.time_unit(5_000, 9), wt.time_unit(5_000, 10));
    }

    #[test]
    fn memoized_time_unit_matches_fresh_estimate() {
        let wt = WaitingTime::new(
            Latency::erlang(3, 3.0).unwrap(),
            ChannelPattern::MultiLeader,
        );
        let fresh = wt.time_unit(4_000, wt.time_unit_cache_seed());
        assert_eq!(wt.time_unit_cached(4_000), fresh);
        // Second call serves the cache — still the same value.
        assert_eq!(wt.time_unit_cached(4_000), fresh);
        // A different law misses the cache and differs.
        let other = WaitingTime::new(
            Latency::erlang(3, 3.0).unwrap(),
            ChannelPattern::SingleLeader,
        );
        assert_ne!(other.time_unit_cached(4_000), fresh);
    }

    #[test]
    fn cache_seed_separates_laws_and_patterns() {
        let exp = Latency::exponential(1.0).unwrap();
        let single = WaitingTime::new(exp, ChannelPattern::SingleLeader);
        let multi = WaitingTime::new(exp, ChannelPattern::MultiLeader);
        assert_ne!(single.time_unit_cache_seed(), multi.time_unit_cache_seed());
        let slower = WaitingTime::new(
            Latency::exponential(0.5).unwrap(),
            ChannelPattern::SingleLeader,
        );
        assert_ne!(single.time_unit_cache_seed(), slower.time_unit_cache_seed());
    }

    #[test]
    fn time_unit_scales_linearly_with_mean_latency() {
        let fast = WaitingTime::new(
            Latency::exponential(1.0).unwrap(),
            ChannelPattern::SingleLeader,
        );
        let slow = WaitingTime::new(
            Latency::exponential(0.1).unwrap(),
            ChannelPattern::SingleLeader,
        );
        let ratio = slow.time_unit(40_000, 1) / fast.time_unit(40_000, 1);
        assert!((ratio - 10.0).abs() < 0.7, "ratio {ratio}");
    }

    #[test]
    fn measured_c1_sits_between_remark14_and_majorant() {
        let wt = WaitingTime::new(
            Latency::exponential(1.0).unwrap(),
            ChannelPattern::SingleLeader,
        );
        let c1 = wt.time_unit(60_000, 4);
        assert!(c1 > wt.remark14_bound().unwrap(), "C1 {c1}");
        assert!(c1 <= wt.majorant_time_unit().unwrap(), "C1 {c1}");
    }

    #[test]
    fn multi_leader_waits_longer_than_single_leader() {
        let latency = Latency::exponential(1.0).unwrap();
        let single = WaitingTime::new(latency, ChannelPattern::SingleLeader);
        let multi = WaitingTime::new(latency, ChannelPattern::MultiLeader);
        assert!(multi.time_unit(40_000, 2) > single.time_unit(40_000, 2));
        assert!(multi.majorant_time_unit().unwrap() > single.majorant_time_unit().unwrap());
        assert_eq!(multi.remark14_bound(), None);
    }

    #[test]
    fn non_exponential_latencies_have_no_closed_form_bounds() {
        let wt = WaitingTime::new(
            Latency::deterministic(1.0).unwrap(),
            ChannelPattern::SingleLeader,
        );
        assert_eq!(wt.majorant_time_unit(), None);
        assert_eq!(wt.remark14_bound(), None);
        // Deterministic latency 1: T2 = 2, channel phase max(2, 2) + 2 = 4,
        // T3 = 4 + 1 = 5 — all degenerate point masses.
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        assert_eq!(wt.sample_channel_phase(&mut rng), 4.0);
        assert_eq!(wt.sample_t3(&mut rng), 5.0);
        assert_eq!(wt.time_unit(100, 0), 5.0);
    }

    #[test]
    fn spec_round_trips_for_exactly_parameterized_families() {
        for latency in [
            Latency::exponential(0.5).unwrap(),
            Latency::erlang(3, 1.5).unwrap(),
            Latency::uniform(0.25, 2.0).unwrap(),
            Latency::deterministic(1.25).unwrap(),
        ] {
            assert_eq!(
                Latency::parse_spec(&latency.spec()),
                Ok(latency),
                "{}",
                latency.spec()
            );
        }
        // Weibull is mean-parameterized: round-trip up to scale ↔ mean
        // conversion error.
        let w = Latency::weibull_with_mean(1.5, 2.0).unwrap();
        let back = Latency::parse_spec(&w.spec()).unwrap();
        assert!((back.mean() - w.mean()).abs() < 1e-12);
    }

    #[test]
    fn parse_spec_rejects_malformed_input() {
        assert!(Latency::parse_spec("exp").is_err());
        assert!(Latency::parse_spec("exp:-1").is_err());
        assert!(Latency::parse_spec("erlang:x:1").is_err());
        assert!(Latency::parse_spec("cauchy:1").is_err());
        assert!(Latency::parse_spec("uniform:2:1").is_err());
    }
}
