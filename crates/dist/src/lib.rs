//! # plurality-dist
//!
//! Probability substrate for the `plurality` workspace — every random
//! quantity the simulation engines draw comes from this crate:
//!
//! * [`rng`] — the deterministic [`rng::Xoshiro256PlusPlus`] generator and
//!   [`rng::derive_seed`] for stable per-repetition seed streams. Every
//!   simulation run in the workspace is a pure function of its `u64` seed;
//!   this module is what makes that contract possible.
//! * [`Exponential`], [`Gamma`], [`Weibull`] — continuous samplers for the
//!   Poisson clocks and edge-latency families of the asynchronous model
//!   (arXiv 1806.02596, Section 3.1).
//! * [`AliasTable`] — O(1) sampling from arbitrary discrete weight vectors
//!   (Walker/Vose), used for Zipf-skewed initial opinion assignments.
//! * [`sample_binomial`] / [`sample_poisson`] — exact O(1) counting-law
//!   samplers (BTPE and transformed rejection), the workhorses of the
//!   urn-mode engine that simulates billion-node populations.
//! * [`multinomial_split`] / [`sample_multinomial`] — exact multinomial
//!   splits via conditioned sequential binomials, shared by every
//!   mean-field engine (urn mode and the `plurality-agg` backends).
//! * [`Latency`], [`ChannelPattern`], [`WaitingTime`] — the edge-latency
//!   laws with positive aging and the composite channel waiting times
//!   behind the paper's time unit `C1 = F⁻¹(0.9)` (Figure 1, Remark 14).
//! * [`special`] — the scalar special functions (normal quantile,
//!   log-gamma) the statistics crate builds confidence intervals from.
//! * [`quantile`] — empirical quantiles of sorted samples.
//!
//! ## Example
//!
//! ```
//! use plurality_dist::rng::Xoshiro256PlusPlus;
//! use plurality_dist::Exponential;
//!
//! let mut rng = Xoshiro256PlusPlus::from_u64(7);
//! let clock = Exponential::new(2.0)?;
//! let tick = clock.sample(&mut rng);
//! assert!(tick > 0.0);
//! # Ok::<(), plurality_dist::InvalidParameterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod continuous;
mod discrete;
mod latency;
mod multinomial;
pub mod quantile;
pub mod rng;
pub mod special;

pub use alias::AliasTable;
pub use continuous::{unit_exp, Exponential, Gamma, UnitExp, Weibull};
pub use discrete::{sample_binomial, sample_poisson};
pub use latency::{ChannelPattern, Latency, WaitingTime};
pub use multinomial::{multinomial_split, sample_multinomial, PreparedSplit};

use std::error::Error;
use std::fmt;

/// Error returned when a distribution is constructed with parameters
/// outside its domain (non-positive rate, negative weight, …).
///
/// # Examples
///
/// ```
/// use plurality_dist::Exponential;
/// let err = Exponential::new(-1.0).unwrap_err();
/// assert!(err.to_string().contains("rate"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidParameterError {
    message: String,
}

impl InvalidParameterError {
    /// Creates an error with a human-readable description of the violated
    /// constraint.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The bare description, without the `Display` prefix — for callers
    /// that wrap this error with their own context and must not stack
    /// prefixes.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for InvalidParameterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.message)
    }
}

impl Error for InvalidParameterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_formats_its_message() {
        let err = InvalidParameterError::new("rate must be positive, got -1");
        let rendered = err.to_string();
        assert!(rendered.contains("invalid distribution parameter"));
        assert!(rendered.contains("rate must be positive"));
    }
}
