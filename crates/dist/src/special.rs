//! Scalar special functions: normal quantile, log-gamma, two estimates
//! of the binomial pmf ratio (Stirling's and the small-count one), and
//! the regularized incomplete gamma function.
//!
//! Confidence intervals (`plurality-stats`) need the standard normal
//! quantile; the Weibull mean and the Γ(7, β) waiting-time majorant
//! (Remark 14) need the gamma function and its CDF.

/// The quantile function (inverse CDF) of the standard normal
/// distribution, via Acklam's rational approximation (absolute error
/// below 1.2e-9 across `(0, 1)` — far below the Monte-Carlo noise of
/// every consumer).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use plurality_dist::special::normal_quantile;
/// assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-5);
/// assert_eq!(normal_quantile(0.5), 0.0);
/// assert!((normal_quantile(0.1) + normal_quantile(0.9)).abs() < 1e-12);
/// ```
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile: p must lie strictly in (0, 1), got {p}"
    );
    if p == 0.5 {
        return 0.0;
    }

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The CDF of the standard normal distribution, `Φ(x)`, via the
/// complementary error function.
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// The complementary error function (Cody-style rational approximation;
/// absolute error below 1.2e-7 — plenty for CDF round-trip checks and
/// simulation-scale comparisons).
fn erfc(x: f64) -> f64 {
    // W. J. Cody–style rational approximation (Numerical Recipes erfc).
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// The natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`,
/// via the Lanczos approximation (g = 7, n = 9; relative error ~1e-13).
///
/// # Panics
///
/// Panics if `x` is not positive and finite.
///
/// # Examples
///
/// ```
/// use plurality_dist::special::ln_gamma;
/// assert!((ln_gamma(1.0)).abs() < 1e-12);           // Γ(1) = 1
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10); // Γ(5) = 4!
/// ```
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(
        x > 0.0 && x.is_finite(),
        "ln_gamma: x must be positive and finite, got {x}"
    );
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The gamma function `Γ(x)` for `x > 0`.
///
/// # Panics
///
/// Panics if `x` is not positive and finite.
#[must_use]
pub fn gamma_fn(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Stirling's estimate of the binomial log pmf ratio `ln f(y)/f(m)` for
/// `Binomial(n, p)`: the step 5.3 formula of Kachitvichyanukul &
/// Schmeiser's BTPE, three `ln` calls plus the `1/(12x)` terms of
/// Stirling's series for the four factorials `y!`, `m!`, `(n − y)!` and
/// `(n − m)!`. Each term the cut leaves out is below `1/(360x³)` with
/// `x` the factorial's argument plus one, so when `y`, `m`, `n − y` and
/// `n − m` are all at least 16 the estimate lies within 3e-6 of the
/// exact ratio, before float rounding.
///
/// # Examples
///
/// ```
/// use plurality_dist::special::{binomial_ln_ratio_stirling, ln_gamma};
/// let (n, p, m, y) = (1_000.0, 0.3_f64, 300.0, 320.0);
/// let ln_pmf = |x: f64| {
///     ln_gamma(n + 1.0) - ln_gamma(x + 1.0) - ln_gamma(n - x + 1.0)
///         + x * p.ln()
///         + (n - x) * (1.0 - p).ln()
/// };
/// let exact = ln_pmf(y) - ln_pmf(m);
/// assert!((binomial_ln_ratio_stirling(n, p, m, y) - exact).abs() < 3e-6);
/// ```
#[must_use]
#[inline]
pub fn binomial_ln_ratio_stirling(n: f64, p: f64, m: f64, y: f64) -> f64 {
    let q = 1.0 - p;
    let (x1, f1, z, w) = (y + 1.0, m + 1.0, n - m + 1.0, n - y + 1.0);
    // 1/(12 f1) − 1/(12 x1) + 1/(12 z) − 1/(12 w), over one division.
    let tails = (y - m) * (z * w - f1 * x1) / (12.0 * f1 * x1 * z * w);
    (m + 0.5) * (f1 / x1).ln()
        + (n - m + 0.5) * (z / w).ln()
        + (y - m) * (w * p / (x1 * q)).ln()
        + tails
}

/// Number of entries in the `ln k!` table of [`SmallCountRatio`].
const LN_FACTORIALS_LEN: usize = 1024;

/// `ln k! = ln Γ(k + 1)` for `k < 1024`, from [`ln_gamma`], built on
/// first use.
fn ln_factorials() -> &'static [f64; LN_FACTORIALS_LEN] {
    static TABLE: std::sync::OnceLock<[f64; LN_FACTORIALS_LEN]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|k| ln_gamma(k as f64 + 1.0)))
}

/// The binomial log pmf ratio `ln f(y)/f(m)` for `Binomial(n, p)` when
/// the mode `m` and the proposal `y` are both below
/// [`SmallCountRatio::LIMIT`]:
/// `ln m! − ln y! + ln (n − m)! − ln (n − y)! + (y − m)·ln(p/q)`.
///
/// Factorials below the limit come from a table of [`ln_gamma`] values,
/// the ones the exact acceptance test uses. Larger ones come from
/// Stirling's series cut after its `1/(12x)` term, whose remainder is
/// below `1/(360·1025³) < 3e-12`; when `n − m` and `n − y` both reach the
/// limit their difference is formed directly, as
/// `(z − ½)·ln(z/w) + (y − m)·(ln w − 1) + 1/(12z) − 1/(12w)` with
/// `z = n − m + 1`, `w = n − y + 1`, so its rounding error stays near
/// `n·2⁻⁵³` instead of that of `n ln n`. The constants of one `(n, p,
/// m)` are computed once, by [`SmallCountRatio::new`].
///
/// # Examples
///
/// ```
/// use plurality_dist::special::{ln_gamma, SmallCountRatio};
/// let (n, p, m) = (1.0e9, 3.0e-7_f64, 300.0);
/// let ln_pmf = |x: f64| {
///     ln_gamma(n + 1.0) - ln_gamma(x + 1.0) - ln_gamma(n - x + 1.0)
///         + x * p.ln()
///         + (n - x) * (1.0 - p).ln()
/// };
/// let ratio = SmallCountRatio::new(n, p, m);
/// for y in [0.0, 250.0, 320.0, 1_000.0] {
///     assert!((ratio.ln_ratio(y) - (ln_pmf(y) - ln_pmf(m))).abs() < 1e-4);
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SmallCountRatio {
    table: &'static [f64; LN_FACTORIALS_LEN],
    n: f64,
    m: f64,
    /// `ln m!`.
    ln_f_m: f64,
    /// `ln(p/q)`.
    ln_odds: f64,
    /// `z = n − m + 1`, `ln z` and `1/(12z)`, for the direct difference.
    z: f64,
    ln_z: f64,
    tail_z: f64,
}

impl SmallCountRatio {
    /// Both `m` and `y` must lie below this.
    pub const LIMIT: f64 = LN_FACTORIALS_LEN as f64;

    /// The constants of `Binomial(n, p)` with mode `m`, an integer in
    /// `[0, min(n, LIMIT))`.
    #[must_use]
    pub fn new(n: f64, p: f64, m: f64) -> Self {
        debug_assert!((0.0..Self::LIMIT).contains(&m) && m <= n);
        let table = ln_factorials();
        let z = n - m + 1.0;
        Self {
            table,
            n,
            m,
            ln_f_m: table[m as usize],
            ln_odds: (p / (1.0 - p)).ln(),
            z,
            ln_z: z.ln(),
            tail_z: 1.0 / (12.0 * z),
        }
    }

    /// `ln y!` for an integer `y ≥ 0`: the table below the limit, the
    /// one-term Stirling series from it on.
    #[inline]
    fn ln_factorial(table: &[f64; LN_FACTORIALS_LEN], y: f64) -> f64 {
        if y < Self::LIMIT {
            return table[y as usize];
        }
        let x = y + 1.0;
        (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x)
    }

    /// The estimate of `ln f(y)/f(m)` for an integer `y` in
    /// `[0, min(n, LIMIT))`.
    #[must_use]
    #[inline]
    pub fn ln_ratio(&self, y: f64) -> f64 {
        debug_assert!((0.0..Self::LIMIT).contains(&y) && y <= self.n);
        let n_minus = if self.n - self.m >= Self::LIMIT && self.n - y >= Self::LIMIT {
            // ln (n − m)! − ln (n − y)!, as one difference.
            let w = self.n - y + 1.0;
            let r = (self.z / w).ln();
            (self.z - 0.5) * r + (y - self.m) * (self.ln_z - r - 1.0) + self.tail_z
                - 1.0 / (12.0 * w)
        } else {
            // n < 2·LIMIT here: at least one side is tabled.
            Self::ln_factorial(self.table, self.n - self.m)
                - Self::ln_factorial(self.table, self.n - y)
        };
        self.ln_f_m - self.table[y as usize] + n_minus + (y - self.m) * self.ln_odds
    }
}

/// The regularized lower incomplete gamma function `P(k, x)` for integer
/// shape `k ≥ 1`: the CDF of a `Gamma(k, 1)` variable at `x`.
///
/// Uses the closed form `P(k, x) = 1 − e^{−x} Σ_{i<k} xⁱ/i!`.
pub(crate) fn gamma_p_integer(k: u32, x: f64) -> f64 {
    debug_assert!(k >= 1);
    if x <= 0.0 {
        return 0.0;
    }
    let mut term = 1.0f64; // x^0 / 0!
    let mut sum = 1.0f64;
    for i in 1..k {
        term *= x / i as f64;
        sum += term;
    }
    1.0 - (-x).exp() * sum
}

/// The quantile of a `Gamma(k, rate)` distribution with integer shape,
/// solved by bisection on [`gamma_p_integer`] (absolute tolerance 1e-12
/// on the unit-rate axis).
pub(crate) fn gamma_quantile_integer(k: u32, rate: f64, p: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&p) && p > 0.0);
    // Bracket on the unit-rate axis: mean k, generous upper bound.
    let mut lo = 0.0f64;
    let mut hi = (k as f64) * 4.0 + 40.0;
    while gamma_p_integer(k, hi) < p {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if gamma_p_integer(k, mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 {
            break;
        }
    }
    0.5 * (lo + hi) / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_classic_z_values() {
        for (p, z) in [
            (0.975, 1.959_963_985),
            (0.995, 2.575_829_304),
            (0.95, 1.644_853_627),
            (0.84134474606854, 1.0),
        ] {
            assert!(
                (normal_quantile(p) - z).abs() < 1e-7,
                "p = {p}: got {}",
                normal_quantile(p)
            );
        }
    }

    #[test]
    fn quantile_is_antisymmetric_and_monotone() {
        for &p in &[0.001, 0.01, 0.2, 0.4, 0.49] {
            assert!((normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-9);
        }
        let mut last = f64::NEG_INFINITY;
        for i in 1..200 {
            let q = normal_quantile(i as f64 / 200.0);
            assert!(q > last);
            last = q;
        }
    }

    #[test]
    fn quantile_roundtrips_through_the_cdf() {
        // Round-trip accuracy is limited by the erfc approximation (~1e-7).
        for &p in &[0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 5e-7, "p = {p}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly in (0, 1)")]
    fn quantile_rejects_the_boundary() {
        let _ = normal_quantile(1.0);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut factorial = 1.0f64;
        for n in 1..15u32 {
            if n > 1 {
                factorial *= (n - 1) as f64;
            }
            let expected = factorial.ln();
            assert!(
                (ln_gamma(n as f64) - expected).abs() < 1e-9 * expected.abs().max(1.0),
                "n = {n}"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer_values() {
        // Γ(1/2) = √π.
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!((gamma_fn(0.5) - sqrt_pi).abs() < 1e-10);
        // Γ(3/2) = √π/2.
        assert!((gamma_fn(1.5) - sqrt_pi / 2.0).abs() < 1e-10);
    }

    #[test]
    fn gamma_p_is_a_cdf() {
        assert_eq!(gamma_p_integer(7, 0.0), 0.0);
        assert!(gamma_p_integer(7, 7.0) > 0.4 && gamma_p_integer(7, 7.0) < 0.6);
        assert!(gamma_p_integer(7, 100.0) > 0.999_999);
        let mut last = 0.0;
        for i in 1..100 {
            let v = gamma_p_integer(3, i as f64 * 0.2);
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn gamma_quantile_inverts_the_cdf() {
        for &(k, p) in &[(1u32, 0.9f64), (3, 0.5), (7, 0.9), (9, 0.99)] {
            let x = gamma_quantile_integer(k, 1.0, p);
            assert!((gamma_p_integer(k, x) - p).abs() < 1e-9, "k={k}, p={p}");
        }
        // Rate scaling: quantile of Gamma(k, 2) is half that of Gamma(k, 1).
        let q1 = gamma_quantile_integer(7, 1.0, 0.9);
        let q2 = gamma_quantile_integer(7, 2.0, 0.9);
        assert!((q1 / q2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_quantile_special_case() {
        // Gamma(1, λ) is Exp(λ): F⁻¹(p) = −ln(1−p)/λ.
        let q = gamma_quantile_integer(1, 3.0, 0.9);
        assert!((q - (-(0.1f64).ln() / 3.0)).abs() < 1e-9);
    }
}
