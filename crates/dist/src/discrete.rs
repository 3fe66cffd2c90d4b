//! Exact counting-law samplers: binomial and Poisson.
//!
//! The urn-mode engine evolves exact multinomial counts over
//! `(generation × color)` cells, so it needs a binomial sampler that is
//! *exact* (the process law must be reproduced, not approximated) and
//! *O(1)* in `n` (populations reach 10⁹). Small means use plain CDF
//! inversion; large means use acceptance-rejection from the BTPE envelope
//! (Kachitvichyanukul & Schmeiser 1988) with the decisions of an exact
//! log-pmf acceptance test, and the transformed-rejection method of
//! Hörmann (1993) for the Poisson law.

use crate::special::{binomial_ln_ratio_stirling, ln_gamma};
use rand::Rng;

/// Draws an exact `Binomial(n, p)` sample in O(1) expected time.
///
/// `p` outside `[0, 1]` is clamped; the result always lies in `[0, n]`.
///
/// # Examples
///
/// ```
/// use plurality_dist::rng::Xoshiro256PlusPlus;
/// use plurality_dist::sample_binomial;
///
/// let mut rng = Xoshiro256PlusPlus::from_u64(1);
/// let x = sample_binomial(1_000_000_000, 0.25, &mut rng);
/// // Tightly concentrated around n·p at this scale.
/// assert!((x as f64 - 2.5e8).abs() < 1e6);
/// assert_eq!(sample_binomial(10, 0.0, &mut rng), 0);
/// assert_eq!(sample_binomial(10, 1.0, &mut rng), 10);
/// ```
pub fn sample_binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    binomial(n, p, None, rng)
}

/// [`sample_binomial`] at one fixed `p`, with the CDF-inversion
/// constants computed once for every draw. Each draw returns the value
/// and consumes the uniforms that `sample_binomial(n, p, ·)` would.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreparedBinomial {
    p: f64,
    inversion: Inversion,
}

impl PreparedBinomial {
    pub(crate) fn new(p: f64) -> Self {
        Self {
            p,
            inversion: Inversion::new(p.min(1.0 - p)),
        }
    }

    #[inline]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, n: u64, rng: &mut R) -> u64 {
        binomial(n, self.p, Some(&self.inversion), rng)
    }
}

/// The body of [`sample_binomial`]; `inversion`, when given, holds the
/// inversion constants of `min(p, 1 − p)`.
#[inline]
fn binomial<R: Rng + ?Sized>(n: u64, p: f64, inversion: Option<&Inversion>, rng: &mut R) -> u64 {
    if n == 0 || p.is_nan() || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Work with q ≤ 1/2 and flip back at the end.
    let (q, flipped) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
    let successes = if (n as f64) * q < 10.0 {
        let inversion = inversion.copied().unwrap_or_else(|| Inversion::new(q));
        binomial_inversion(n, &inversion, rng)
    } else {
        binomial_btpe(n, q, rng)
    };
    if flipped {
        n - successes
    } else {
        successes
    }
}

/// The per-`p` constants of [`binomial_inversion`].
#[derive(Debug, Clone, Copy)]
struct Inversion {
    /// The success odds `p / (1 − p)`.
    odds: f64,
    /// `ln(1 − p)`.
    ln_fail: f64,
}

impl Inversion {
    fn new(p: f64) -> Self {
        let q = 1.0 - p;
        Self {
            odds: p / q,
            ln_fail: q.ln(),
        }
    }
}

/// BINV: sequential CDF inversion, exact, O(n·p) expected time.
/// Requires `n·p < 10` and `p ≤ 1/2`.
fn binomial_inversion<R: Rng + ?Sized>(n: u64, c: &Inversion, rng: &mut R) -> u64 {
    let s = c.odds;
    let a = (n + 1) as f64 * s;
    // q^n via the log to survive huge n with tiny p.
    let qn = ((n as f64) * c.ln_fail).exp();
    loop {
        let mut f = qn;
        let mut u: f64 = rng.gen();
        let mut x = 0u64;
        // With n·p < 10 the mass above 110 is below 1e-60; restart on the
        // (theoretically impossible) overflow to stay exact.
        loop {
            if u <= f {
                return x.min(n);
            }
            if x >= 110 {
                break;
            }
            u -= f;
            x += 1;
            f *= a / x as f64 - s;
        }
    }
}

/// BTPE envelope sampling with an exact acceptance test.
///
/// The proposal is the classic four-region envelope (triangle,
/// parallelogram, two exponential tails). Region 1 lies entirely under the
/// scaled pmf and is accepted outright. The other regions meet three
/// estimates of `ln f(y)/f(m)` in turn, each of which decides a proposal
/// only when `ln v` clears it by a margin:
///
/// 1. the Kachitvichyanukul–Schmeiser squeeze (step 5.2), which bounds
///    the ratio by `t ± ρ` for `|y − m| < npq/2 − 1`;
/// 2. Stirling's estimate (step 5.3, [`binomial_ln_ratio_stirling`]),
///    within 3e-6 of the ratio once `y`, `m`, `n − y` and `n − m` are all
///    at least 16;
/// 3. the exact pmf ratio through [`ln_gamma`], whose constants are
///    computed on the first proposal that needs them.
///
/// The margin exceeds the float error of the `ln_gamma` path plus the
/// error of either estimate, so every decision — and so every draw and
/// every uniform consumed — is the one the `ln_gamma` test alone would
/// make.
/// Requires `n·p ≥ 10` and `p ≤ 1/2`.
fn binomial_btpe<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let nf = n as f64;
    let q = 1.0 - p;
    let npq = nf * p * q;
    let f_m = nf * p + p;
    let m = floor(f_m);
    let p1 = floor(2.195 * npq.sqrt() - 4.6 * q) + 0.5;
    let x_m = m + 0.5;
    let x_l = x_m - p1;
    let x_r = x_m + p1;
    let c = 0.134 + 20.5 / (15.3 + m);
    let lambda_l = {
        let a = (f_m - x_l) / (f_m - x_l * p);
        a * (1.0 + 0.5 * a)
    };
    let lambda_r = {
        let a = (x_r - f_m) / (x_r * q);
        a * (1.0 + 0.5 * a)
    };
    let p2 = p1 * (1.0 + 2.0 * c);
    let p3 = p2 + c / lambda_l;
    let p4 = p3 + c / lambda_r;
    // The exact test differences `ln_gamma` values of size
    // ln Γ(n + 1) ≈ n ln n, so its absolute float error is about
    // 3e-16·ln Γ(n + 1): 8e-6 at n = 1e9, 5e-3 at n = 1e12. This margin
    // (1e-3 up to n = 2e9) stays ≥ 40× that at every n.
    let margin = 1e-3_f64.max(5e-13 * nf);
    // Stirling's tier needs m and n − m at least 16.
    let m_clear = m >= 16.0 && nf - m >= 16.0;
    // (ln Γ(n + 1), ln(p/q), ln C(n, m)), on the first exact test.
    let mut exact: Option<(f64, f64, f64)> = None;

    loop {
        let u: f64 = rng.gen::<f64>() * p4;
        let mut v: f64 = rng.gen();
        let y: f64;
        if u <= p1 {
            // Triangular centre: lies under the pmf, accept outright.
            y = floor(x_m - p1 * v + u);
            return y.clamp(0.0, nf) as u64;
        } else if u <= p2 {
            // Parallelogram.
            let x = x_l + (u - p1) / c;
            v = v * c + 1.0 - (x - x_m).abs() / p1;
            if v > 1.0 {
                continue;
            }
            y = floor(x);
        } else if u <= p3 {
            // Left exponential tail.
            y = floor(x_l + v.ln() / lambda_l);
            if y < 0.0 {
                continue;
            }
            v *= (u - p2) * lambda_l;
        } else {
            // Right exponential tail.
            y = floor(x_r - v.ln() / lambda_r);
            if y > nf {
                continue;
            }
            v *= (u - p3) * lambda_r;
        }

        let ln_v = v.ln();
        // Squeeze: ln f(y)/f(m) lies in [t − ρ, t + ρ].
        let k = (y - m).abs();
        if k < npq / 2.0 - 1.0 {
            let rho = (k / npq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / npq + 0.5);
            let t = -k * k / (2.0 * npq);
            if ln_v < t - rho - margin {
                return y.clamp(0.0, nf) as u64;
            }
            if ln_v > t + rho + margin {
                continue;
            }
        }

        // Stirling (step 5.3): within 3e-6 of the exact ratio once y, m,
        // n − y and n − m are all at least 16, so the margin holds here
        // as it does for the squeeze.
        if m_clear && y >= 16.0 && nf - y >= 16.0 {
            let ln_ratio = binomial_ln_ratio_stirling(nf, p, m, y);
            if ln_v < ln_ratio - margin {
                return y.clamp(0.0, nf) as u64;
            }
            if ln_v > ln_ratio + margin {
                continue;
            }
        }

        // Exact acceptance: v ≤ f(y) / f(m).
        let (ln_f_n, ln_odds, ln_f_m) = *exact.get_or_insert_with(|| {
            let ln_f_n = ln_gamma(nf + 1.0);
            // ln C(n, m) without assuming m fits a table.
            let ln_f_m = ln_f_n - ln_gamma(m + 1.0) - ln_gamma(nf - m + 1.0);
            (ln_f_n, (p / q).ln(), ln_f_m)
        });
        let ln_f_y =
            ln_f_n - ln_gamma(y + 1.0) - ln_gamma(nf - y + 1.0) + (y - m) * ln_odds - ln_f_m;
        if v <= ln_f_y.exp() {
            return y.clamp(0.0, nf) as u64;
        }
    }
}

/// `x.floor()` without a libm call: on the x86-64 baseline (no SSE4.1
/// `roundsd`) `f64::floor` compiles to one. Exact for every input, except
/// that `-0.0` comes out as `+0.0`.
#[inline]
fn floor(x: f64) -> f64 {
    // From 2⁵² on every f64 is an integer; NaN and ±∞ pass through too.
    if x.abs() < 4_503_599_627_370_496.0 {
        let t = x as i64 as f64;
        if t > x {
            t - 1.0
        } else {
            t
        }
    } else {
        x
    }
}

/// Draws an exact `Poisson(λ)` sample in O(1) expected time.
///
/// Non-positive or non-finite `λ` yields 0.
///
/// # Examples
///
/// ```
/// use plurality_dist::rng::Xoshiro256PlusPlus;
/// use plurality_dist::sample_poisson;
///
/// let mut rng = Xoshiro256PlusPlus::from_u64(2);
/// let x = sample_poisson(1000.0, &mut rng);
/// assert!((x as f64 - 1000.0).abs() < 200.0);
/// assert_eq!(sample_poisson(0.0, &mut rng), 0);
/// ```
pub fn sample_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    if !lambda.is_finite() || lambda <= 0.0 {
        return 0;
    }
    if lambda < 10.0 {
        poisson_knuth(lambda, rng)
    } else {
        poisson_ptrs(lambda, rng)
    }
}

/// Knuth's product-of-uniforms method, exact, O(λ) expected time.
fn poisson_knuth<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    let threshold = (-lambda).exp();
    let mut k = 0u64;
    let mut product: f64 = rng.gen();
    while product > threshold {
        k += 1;
        product *= rng.gen::<f64>();
    }
    k
}

/// Hörmann's PTRS transformed-rejection method, exact, O(1) for λ ≥ 10.
fn poisson_ptrs<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    let ln_lambda = lambda.ln();
    let b = 0.931 + 2.53 * lambda.sqrt();
    let a = -0.059 + 0.02483 * b;
    let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    loop {
        let u: f64 = rng.gen::<f64>() - 0.5;
        let v: f64 = rng.gen();
        let u_shifted = 0.5 - u.abs();
        let k = ((2.0 * a / u_shifted + b) * u + lambda + 0.43).floor();
        if u_shifted >= 0.07 && v <= v_r {
            return k as u64;
        }
        if k < 0.0 || (u_shifted < 0.013 && v > u_shifted) {
            continue;
        }
        let lhs = (v * inv_alpha / (a / (u_shifted * u_shifted) + b)).ln();
        let rhs = k * ln_lambda - lambda - ln_gamma(k + 1.0);
        if lhs <= rhs {
            return k as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256PlusPlus;

    fn binomial_pmf(n: u64, p: f64, k: u64) -> f64 {
        let (nf, kf) = (n as f64, k as f64);
        (ln_gamma(nf + 1.0) - ln_gamma(kf + 1.0) - ln_gamma(nf - kf + 1.0)
            + kf * p.ln()
            + (nf - kf) * (1.0 - p).ln())
        .exp()
    }

    #[test]
    fn inline_floor_matches_f64_floor() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            1.0 - f64::EPSILON,
            -1.0 + f64::EPSILON,
            4_503_599_627_370_495.5,
            -4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        let mut rng = Xoshiro256PlusPlus::from_u64(9);
        let random = (0..100_000).map(|i| {
            let scale = 10f64.powi(i % 19 - 3);
            (rng.gen::<f64>() - 0.5) * scale
        });
        for x in edges.into_iter().chain(random) {
            let (got, want) = (floor(x), x.floor());
            // Equal bits, except that −0.0 may come out as +0.0.
            assert!(
                got.to_bits() == want.to_bits() || (got == 0.0 && want == 0.0),
                "floor({x:e}) = {got:e}, want {want:e}"
            );
        }
        assert!(floor(f64::NAN).is_nan());
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        assert_eq!(sample_binomial(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial(100, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial(100, 1.0, &mut rng), 100);
        assert_eq!(sample_binomial(100, -0.5, &mut rng), 0);
        assert_eq!(sample_binomial(100, 1.5, &mut rng), 100);
        for _ in 0..1_000 {
            assert!(sample_binomial(7, 0.4, &mut rng) <= 7);
        }
    }

    #[test]
    fn binomial_small_regime_passes_chi_square() {
        // n = 12, p = 0.3 exercises BINV; χ²(12) 99.9th pct ≈ 32.91.
        let (n, p) = (12u64, 0.3f64);
        let mut rng = Xoshiro256PlusPlus::from_u64(2);
        const DRAWS: usize = 300_000;
        let mut counts = vec![0u64; (n + 1) as usize];
        for _ in 0..DRAWS {
            counts[sample_binomial(n, p, &mut rng) as usize] += 1;
        }
        let chi2: f64 = (0..=n)
            .map(|k| {
                let expected = DRAWS as f64 * binomial_pmf(n, p, k);
                let d = counts[k as usize] as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 32.91, "chi-square statistic {chi2}");
    }

    #[test]
    fn binomial_btpe_regime_matches_moments() {
        // n·p = 300 ⇒ BTPE. Mean 300, variance 210.
        let (n, p) = (1_000u64, 0.3f64);
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        const DRAWS: usize = 200_000;
        let xs: Vec<f64> = (0..DRAWS)
            .map(|_| sample_binomial(n, p, &mut rng) as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / DRAWS as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (DRAWS - 1) as f64;
        assert!((mean - 300.0).abs() < 0.2, "mean {mean}");
        assert!((var - 210.0).abs() < 3.0, "var {var}");
    }

    #[test]
    fn binomial_btpe_regime_passes_chi_square_on_binned_support() {
        // n = 100, p = 0.5 ⇒ BTPE (npq = 25). Bin the support into the
        // central values and a pooled tail; compare against exact pmf.
        let (n, p) = (100u64, 0.5f64);
        let mut rng = Xoshiro256PlusPlus::from_u64(4);
        const DRAWS: usize = 300_000;
        let (lo, hi) = (35u64, 65u64);
        let bins = (hi - lo + 1) as usize;
        let mut counts = vec![0u64; bins + 2];
        for _ in 0..DRAWS {
            let x = sample_binomial(n, p, &mut rng);
            if x < lo {
                counts[0] += 1;
            } else if x > hi {
                counts[bins + 1] += 1;
            } else {
                counts[(x - lo + 1) as usize] += 1;
            }
        }
        let mut expected = vec![0.0f64; bins + 2];
        for k in 0..=n {
            let mass = DRAWS as f64 * binomial_pmf(n, p, k);
            if k < lo {
                expected[0] += mass;
            } else if k > hi {
                expected[bins + 1] += mass;
            } else {
                expected[(k - lo + 1) as usize] += mass;
            }
        }
        let chi2: f64 = counts
            .iter()
            .zip(&expected)
            .map(|(&c, &e)| {
                let d = c as f64 - e;
                d * d / e
            })
            .sum();
        // χ²(32) 99.9th percentile ≈ 62.49.
        assert!(chi2 < 62.49, "chi-square statistic {chi2}");
    }

    #[test]
    fn binomial_flipped_p_is_symmetric() {
        let mut rng_a = Xoshiro256PlusPlus::from_u64(5);
        let mut rng_b = Xoshiro256PlusPlus::from_u64(5);
        for _ in 0..2_000 {
            let a = sample_binomial(50, 0.7, &mut rng_a);
            let b = sample_binomial(50, 0.3, &mut rng_b);
            assert_eq!(a, 50 - b);
        }
    }

    #[test]
    fn binomial_huge_n_concentrates() {
        let mut rng = Xoshiro256PlusPlus::from_u64(6);
        let n = 1_000_000_000u64;
        for _ in 0..50 {
            let x = sample_binomial(n, 0.5, &mut rng) as f64;
            // ±6 standard deviations (σ ≈ 15 811).
            assert!((x - 5e8).abs() < 6.0 * 15_811.0, "x = {x}");
        }
    }

    #[test]
    fn binomial_is_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = Xoshiro256PlusPlus::from_u64(seed);
            (0..32)
                .map(|_| sample_binomial(10_000, 0.37, &mut rng))
                .collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn poisson_small_lambda_matches_moments() {
        let mut rng = Xoshiro256PlusPlus::from_u64(8);
        const DRAWS: usize = 200_000;
        let xs: Vec<f64> = (0..DRAWS)
            .map(|_| sample_poisson(3.0, &mut rng) as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / DRAWS as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (DRAWS - 1) as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 3.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn poisson_large_lambda_matches_moments() {
        let mut rng = Xoshiro256PlusPlus::from_u64(9);
        const DRAWS: usize = 200_000;
        let xs: Vec<f64> = (0..DRAWS)
            .map(|_| sample_poisson(1000.0, &mut rng) as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / DRAWS as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (DRAWS - 1) as f64;
        assert!((mean - 1000.0).abs() < 0.5, "mean {mean}");
        assert!((var - 1000.0).abs() < 15.0, "var {var}");
    }

    #[test]
    fn poisson_degenerate_lambda_is_zero() {
        let mut rng = Xoshiro256PlusPlus::from_u64(10);
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
        assert_eq!(sample_poisson(-1.0, &mut rng), 0);
        assert_eq!(sample_poisson(f64::NAN, &mut rng), 0);
        assert_eq!(sample_poisson(f64::INFINITY, &mut rng), 0);
    }
}
