//! Frozen-reference check of the exact binomial sampler.
//!
//! `reference` below is a verbatim copy of `sample_binomial` as it stood
//! before its BTPE branch gained lazily computed constants and the
//! Kachitvichyanukul–Schmeiser squeeze: every constant computed up front
//! and every non-triangle proposal decided by the `ln_gamma` pmf ratio.
//! The sampler the mean-field engines use must return the same value for
//! every draw *and* leave the RNG in the same state, so that every stream
//! built on it (urn, leader-mf, the pinned wire texts) stays bit-identical.
//!
//! The sweep draws `(n, p)` afresh for every call, over `n` from 10 to
//! 3·10⁹ and `p` on both sides of ½, and counts which envelope region
//! each first proposal falls in and which test decides it, so that the
//! test also proves it reached inversion, the triangle, the
//! parallelogram, both tails, the squeeze, Stirling's tier and the
//! `ln_gamma` test inside Stirling's margin.
//!
//! The prepared multinomial split is checked here too: it must equal
//! `multinomial_split` draw for draw and leave the stream in the same
//! state.

use plurality_dist::rng::Xoshiro256PlusPlus;
use plurality_dist::special::{binomial_ln_ratio_stirling, ln_gamma};
use plurality_dist::{multinomial_split, sample_binomial, PreparedSplit};
use rand::{Rng, RngCore};

mod reference {
    use plurality_dist::special::ln_gamma;
    use rand::Rng;

    pub fn sample_binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
        if n == 0 || p.is_nan() || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // Work with q ≤ 1/2 and flip back at the end.
        let (q, flipped) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
        let successes = if (n as f64) * q < 10.0 {
            binomial_inversion(n, q, rng)
        } else {
            binomial_btpe(n, q, rng)
        };
        if flipped {
            n - successes
        } else {
            successes
        }
    }

    fn binomial_inversion<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
        let q = 1.0 - p;
        let s = p / q;
        let a = (n + 1) as f64 * s;
        // q^n via the log to survive huge n with tiny p.
        let qn = ((n as f64) * q.ln()).exp();
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

    fn binomial_btpe<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
        let nf = n as f64;
        let q = 1.0 - p;
        let npq = nf * p * q;
        let f_m = nf * p + p;
        let m = f_m.floor();
        let p1 = (2.195 * npq.sqrt() - 4.6 * q).floor() + 0.5;
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
        let ln_odds = (p / q).ln();
        // ln C(n, m) without assuming m fits a table.
        let ln_f_m = ln_gamma(nf + 1.0) - ln_gamma(m + 1.0) - ln_gamma(nf - m + 1.0);

        loop {
            let u: f64 = rng.gen::<f64>() * p4;
            let mut v: f64 = rng.gen();
            let y: f64;
            if u <= p1 {
                // Triangular centre: lies under the pmf, accept outright.
                y = (x_m - p1 * v + u).floor();
                return y.clamp(0.0, nf) as u64;
            } else if u <= p2 {
                // Parallelogram.
                let x = x_l + (u - p1) / c;
                v = v * c + 1.0 - (x - x_m).abs() / p1;
                if v > 1.0 {
                    continue;
                }
                y = x.floor();
            } else if u <= p3 {
                // Left exponential tail.
                y = (x_l + v.ln() / lambda_l).floor();
                if y < 0.0 {
                    continue;
                }
                v *= (u - p2) * lambda_l;
            } else {
                // Right exponential tail.
                y = (x_r - v.ln() / lambda_r).floor();
                if y > nf {
                    continue;
                }
                v *= (u - p3) * lambda_r;
            }

            // Exact acceptance: v ≤ f(y) / f(m).
            let ln_f_y = ln_gamma(nf + 1.0) - ln_gamma(y + 1.0) - ln_gamma(nf - y + 1.0)
                + (y - m) * ln_odds
                - ln_f_m;
            if v <= ln_f_y.exp() {
                return y.clamp(0.0, nf) as u64;
            }
        }
    }
}

/// Where a draw's first proposal lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Inversion,
    Triangle,
    Parallelogram,
    LeftTail,
    RightTail,
}

/// Which test decides a proposal that leaves the triangle and lies
/// inside the envelope's support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// `ln v` clears the squeeze bounds `t ± ρ` by the margin.
    Squeeze,
    /// `ln v` clears Stirling's estimate by the margin.
    Stirling,
    /// Stirling's guard holds but `ln v` lies within the margin of its
    /// estimate: the `ln_gamma` test decides.
    StirlingBand,
    /// Stirling's guard fails: the `ln_gamma` test decides.
    Unguarded,
}

/// The first proposal of a draw from `rng` (a clone, so the sweep's
/// streams are untouched): its region, and which test decides it.
fn first_proposal(n: u64, p: f64, mut rng: Xoshiro256PlusPlus) -> (Region, Option<Tier>) {
    let q = p.min(1.0 - p);
    let nf = n as f64;
    if nf * q < 10.0 {
        return (Region::Inversion, None);
    }
    let (p, q) = (q, 1.0 - q);
    let npq = nf * p * q;
    let f_m = nf * p + p;
    let m = f_m.floor();
    let p1 = (2.195 * npq.sqrt() - 4.6 * q).floor() + 0.5;
    let x_m = m + 0.5;
    let x_l = x_m - p1;
    let x_r = x_m + p1;
    let c = 0.134 + 20.5 / (15.3 + m);
    let a_l = (f_m - x_l) / (f_m - x_l * p);
    let lambda_l = a_l * (1.0 + 0.5 * a_l);
    let a_r = (x_r - f_m) / (x_r * q);
    let lambda_r = a_r * (1.0 + 0.5 * a_r);
    let p2 = p1 * (1.0 + 2.0 * c);
    let p3 = p2 + c / lambda_l;
    let p4 = p3 + c / lambda_r;
    let u: f64 = rng.gen::<f64>() * p4;
    let v: f64 = rng.gen();
    let (region, y, v) = if u <= p1 {
        return (Region::Triangle, None);
    } else if u <= p2 {
        let x = x_l + (u - p1) / c;
        (
            Region::Parallelogram,
            x.floor(),
            v * c + 1.0 - (x - x_m).abs() / p1,
        )
    } else if u <= p3 {
        (
            Region::LeftTail,
            (x_l + v.ln() / lambda_l).floor(),
            v * ((u - p2) * lambda_l),
        )
    } else {
        (
            Region::RightTail,
            (x_r - v.ln() / lambda_r).floor(),
            v * ((u - p3) * lambda_r),
        )
    };
    if !(v > 0.0 && v <= 1.0 && y >= 0.0 && y <= nf) {
        return (region, None);
    }
    let margin = 1e-3_f64.max(5e-13 * nf);
    let ln_v = v.ln();
    let k = (y - m).abs();
    if k < npq / 2.0 - 1.0 {
        let rho = (k / npq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / npq + 0.5);
        let t = -k * k / (2.0 * npq);
        if ln_v < t - rho - margin || ln_v > t + rho + margin {
            return (region, Some(Tier::Squeeze));
        }
    }
    let tier = if [y, m, nf - y, nf - m].iter().all(|&x| x >= 16.0) {
        let ln_ratio = binomial_ln_ratio_stirling(nf, p, m, y);
        if (ln_v - ln_ratio).abs() > margin {
            Tier::Stirling
        } else {
            Tier::StirlingBand
        }
    } else {
        Tier::Unguarded
    };
    (region, Some(tier))
}

/// Draws `Binomial(n, p)` for each `(n, p)` from `params` from both
/// samplers, asserting equal values and equal next `u64`s, and returns
/// how many first proposals landed in each region and were decided by
/// each tier.
fn sweep(
    draws: usize,
    seed: u64,
    mut params: impl FnMut(usize) -> (u64, f64),
) -> ([u64; 5], [u64; 4]) {
    let mut rng_new = Xoshiro256PlusPlus::from_u64(seed);
    let mut rng_ref = rng_new.clone();
    let mut seen = [0u64; 5];
    let mut tiers = [0u64; 4];
    for i in 0..draws {
        let (n, p) = params(i);
        let (region, tier) = first_proposal(n, p, rng_new.clone());
        seen[region as usize] += 1;
        if let Some(tier) = tier {
            tiers[tier as usize] += 1;
        }

        let got = sample_binomial(n, p, &mut rng_new);
        let want = reference::sample_binomial(n, p, &mut rng_ref);
        assert_eq!(got, want, "draw {i}: Binomial({n}, {p})");
        assert_eq!(
            rng_new.next_u64(),
            rng_ref.next_u64(),
            "draw {i}: Binomial({n}, {p}) consumed a different number of uniforms"
        );
    }
    (seen, tiers)
}

/// Asserts that the squeeze, Stirling's tier and the `ln_gamma` test
/// inside Stirling's margin each decided at least the given number of
/// first proposals.
fn assert_tiers_reached(tiers: [u64; 4], min: [u64; 3]) {
    for (tier, (&count, min)) in [Tier::Squeeze, Tier::Stirling, Tier::StirlingBand]
        .iter()
        .zip(tiers.iter().zip(min))
    {
        assert!(count >= min, "{tier:?} decided only {count} proposals");
    }
}

#[test]
fn sampler_matches_the_frozen_reference_draw_for_draw() {
    let mut params = Xoshiro256PlusPlus::from_u64(0xB1_0E1A1);
    let mut above_half = 0u64;
    let mut huge = 0u64;
    let (seen, tiers) = sweep(1_200_000, 0x5EED_0001, |i| {
        // n log-uniform over [10, 3·10⁹]; p uniform on (0, 1) for half
        // the draws and near the inversion/BTPE switch for the rest.
        let n = (10.0 * 3e8f64.powf(params.gen::<f64>())) as u64;
        let mut p = if i % 2 == 0 {
            params.gen::<f64>()
        } else {
            (4.0 + 16.0 * params.gen::<f64>()) / n as f64
        };
        if i % 4 == 1 {
            p = 1.0 - p;
        }
        above_half += u64::from(p > 0.5);
        huge += u64::from(n >= 1_000_000_000);
        (n, p)
    });
    for (region, &count) in [
        Region::Inversion,
        Region::Triangle,
        Region::Parallelogram,
        Region::LeftTail,
        Region::RightTail,
    ]
    .iter()
    .zip(&seen)
    {
        assert!(count >= 1_000, "{region:?} reached by only {count} draws");
    }
    assert_tiers_reached(tiers, [1_000, 10_000, 100]);
    assert!(above_half >= 100_000, "p > 1/2 in only {above_half} draws");
    assert!(huge >= 10_000, "n ≥ 10⁹ in only {huge} draws");
}

#[test]
#[ignore = "tier-2: 10^7 draws; run with `cargo test -- --ignored`"]
fn sampler_matches_the_frozen_reference_where_exact_tests_are_densest() {
    // npq log-uniform over [5, 200], where the squeeze band is widest and
    // proposals most often pass it to Stirling's tier and ln_gamma, with
    // n log-uniform over [4·npq + 1, 3·10⁹] and p on both sides of ½.
    let mut params = Xoshiro256PlusPlus::from_u64(0xDE_5E5);
    let (_, tiers) = sweep(10_000_000, 0x5EED_0003, |i| {
        let npq = 5.0 * 40f64.powf(params.gen::<f64>());
        let lo = 4.0 * npq + 1.0;
        let n = (lo * (3e9 / lo).powf(params.gen::<f64>())) as u64;
        let p = (1.0 - (1.0 - 4.0 * npq / n as f64).max(0.0).sqrt()) / 2.0;
        (n, if i % 2 == 1 { 1.0 - p } else { p })
    });
    assert_tiers_reached(tiers, [1_000_000, 1_000_000, 5_000]);
}

#[test]
fn sampler_matches_the_frozen_reference_at_fixed_extremes() {
    // Long runs at single parameter points: both sides of the
    // inversion/BTPE switch at n·p = 10, and n up to 3·10⁹ on both sides
    // of ½.
    for &(n, p) in &[
        (10u64, 0.5f64),
        (20, 0.5),
        (21, 0.49),
        (1_000, 0.01),
        (1_000_000, 0.3),
        (1_000_000, 0.7),
        (1_000_000_000, 0.25),
        (1_000_000_000, 1e-8),
        (3_000_000_000, 0.5),
        (3_000_000_000, 0.999_999),
    ] {
        let mut rng_new = Xoshiro256PlusPlus::from_u64(n ^ p.to_bits());
        let mut rng_ref = rng_new.clone();
        for i in 0..20_000 {
            let got = sample_binomial(n, p, &mut rng_new);
            let want = reference::sample_binomial(n, p, &mut rng_ref);
            assert_eq!(got, want, "draw {i}: Binomial({n}, {p})");
            assert_eq!(rng_new.next_u64(), rng_ref.next_u64(), "draw {i}");
        }
    }
}

#[test]
fn squeeze_bounds_hold_against_the_exact_log_ratio() {
    // Kachitvichyanukul & Schmeiser's bounds t ± ρ on ln f(m + d)/f(m),
    // checked against the ln_gamma ratio at every |d| < npq/2 − 1 for
    // small npq, where the bound's higher-order terms are largest.
    for &(n, p) in &[
        (20u64, 0.5f64),
        (25, 0.4),
        (100, 0.1),
        (1_000, 0.01),
        (1_000, 0.5),
        (100_000, 0.0002),
        (10_000, 0.3),
    ] {
        let nf = n as f64;
        let q = 1.0 - p;
        let npq = nf * p * q;
        let m = (nf * p + p).floor();
        let ln_f = |y: f64| {
            ln_gamma(nf + 1.0) - ln_gamma(y + 1.0) - ln_gamma(nf - y + 1.0)
                + y * p.ln()
                + (nf - y) * q.ln()
        };
        let mut k = 0.0f64;
        while k < npq / 2.0 - 1.0 {
            let rho = (k / npq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / npq + 0.5);
            let t = -k * k / (2.0 * npq);
            for y in [m - k, m + k] {
                if y < 0.0 || y > nf {
                    continue;
                }
                let l = ln_f(y) - ln_f(m);
                assert!(
                    l >= t - rho - 1e-9 && l <= t + rho + 1e-9,
                    "Binomial({n}, {p}) at y = {y}: ln ratio {l} outside [{}, {}]",
                    t - rho,
                    t + rho
                );
            }
            k += 1.0;
        }
    }
}

#[test]
fn stirling_estimate_stays_within_a_tenth_of_the_margin() {
    // Stirling's estimate of ln f(y)/f(m) against the ln_gamma ratio as
    // the exact test computes it, over n = 10²…3·10⁹ and npq = 5…10⁶,
    // at y on the guard edges (16 and n − 16) and at 0…1000 standard
    // deviations from the mode. A tenth of the margin leaves the rest
    // for the float error of `ln v` and of the exact test.
    let mut checked = 0u32;
    for i in 0..=40 {
        let nf = (1e2 * 3e7f64.powf(f64::from(i) / 40.0)).floor();
        for j in 0..=24 {
            let npq = 5.0 * 2e5f64.powf(f64::from(j) / 24.0);
            if 4.0 * npq >= nf {
                continue;
            }
            let p = (1.0 - (1.0 - 4.0 * npq / nf).sqrt()) / 2.0;
            let q = 1.0 - p;
            let m = (nf * p + p).floor();
            if m < 16.0 || nf - m < 16.0 {
                continue;
            }
            let margin = 1e-3_f64.max(5e-13 * nf);
            let ln_f_n = ln_gamma(nf + 1.0);
            let ln_f_m = ln_f_n - ln_gamma(m + 1.0) - ln_gamma(nf - m + 1.0);
            let ln_odds = (p / q).ln();
            let sd = npq.sqrt();
            let mut ys = vec![16.0, nf - 16.0];
            for d in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 1_000.0] {
                ys.extend([(m - d * sd).floor(), (m + d * sd).floor()]);
            }
            for y in ys.into_iter().filter(|&y| y >= 16.0 && nf - y >= 16.0) {
                let exact = ln_f_n - ln_gamma(y + 1.0) - ln_gamma(nf - y + 1.0) + (y - m) * ln_odds
                    - ln_f_m;
                let stirling = binomial_ln_ratio_stirling(nf, p, m, y);
                assert!(
                    (stirling - exact).abs() <= margin / 10.0,
                    "Binomial({nf}, {p}) at y = {y}, m = {m}: Stirling {stirling} vs ln_gamma {exact}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 5_000, "only {checked} points checked");
}

/// A random split target list: `len` targets over `0..width`, with
/// probabilities that sum to at most 1 or, for `exhaust`, past it.
fn random_targets(rng: &mut Xoshiro256PlusPlus, width: usize, exhaust: bool) -> Vec<(usize, f64)> {
    let len = 1 + rng.gen_range(0..width);
    let weights: Vec<f64> = (0..len)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => 0.0,
            1 => 1e-9 * rng.gen::<f64>(),
            _ => rng.gen::<f64>(),
        })
        .collect();
    let total: f64 = weights.iter().sum::<f64>() + if exhaust { 0.0 } else { rng.gen::<f64>() };
    let mut targets: Vec<(usize, f64)> = weights
        .iter()
        .enumerate()
        .map(|(t, &w)| (t, if total > 0.0 { w / total } else { 0.0 }))
        .collect();
    if exhaust {
        // Rounding past 1, as an ECDF's buckets can.
        if let Some(last) = targets.last_mut() {
            last.1 += 1e-12;
        }
    }
    targets
}

#[test]
fn prepared_split_matches_multinomial_split_draw_for_draw() {
    let mut params = Xoshiro256PlusPlus::from_u64(0x5_9117);
    let mut rng_new = Xoshiro256PlusPlus::from_u64(0x5EED_0002);
    let mut rng_ref = rng_new.clone();
    for list in 0..600 {
        let targets = random_targets(&mut params, 48, list % 3 == 0);
        let split = PreparedSplit::new(&targets);
        let width = targets.len();
        for draw in 0..200 {
            // Counts log-uniform over [1, 3·10⁹], and 0.
            let count = if draw == 0 {
                0
            } else {
                3e9f64.powf(params.gen::<f64>()) as u64
            };
            let (mut got, mut want) = (vec![7u64; width], vec![7u64; width]);
            let stayed = split.split(count, &mut got, &mut rng_new);
            let expected = multinomial_split(count, &targets, &mut want, &mut rng_ref);
            assert_eq!(
                (stayed, &got),
                (expected, &want),
                "list {list}, draw {draw}: {count} over {targets:?}"
            );
            assert_eq!(
                rng_new.next_u64(),
                rng_ref.next_u64(),
                "list {list}, draw {draw}: a different number of uniforms"
            );
        }
    }
}
