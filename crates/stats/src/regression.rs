//! Least-squares fits on (optionally log-transformed) axes.
//!
//! The scaling experiments check statements like "the convergence time grows
//! as `log k`" by fitting a line on a transformed axis and reporting slope
//! and `R²`.

/// Result of a simple linear regression `y ≈ intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
}

/// Axis transformation applied before fitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Identity.
    Linear,
    /// Natural logarithm (requires positive values).
    Log,
    /// Iterated logarithm `ln ∘ ln` (requires values > 1).
    LogLog,
}

impl Axis {
    fn apply(self, x: f64) -> f64 {
        match self {
            Axis::Linear => x,
            Axis::Log => {
                assert!(x > 0.0, "log axis requires positive values, got {x}");
                x.ln()
            }
            Axis::LogLog => {
                assert!(x > 1.0, "log-log axis requires values > 1, got {x}");
                x.ln().ln()
            }
        }
    }
}

/// Fits `y_axis(y) ≈ a + b · x_axis(x)` by ordinary least squares.
///
/// # Panics
///
/// Panics if the slices differ in length, contain fewer than 2 points, or
/// violate the axis domain.
///
/// # Examples
///
/// ```
/// use plurality_stats::{fit, Axis};
/// // y = 3·log(x): slope 3 on a semilog-x fit.
/// let xs = [2.0, 4.0, 8.0, 16.0, 32.0];
/// let ys: Vec<f64> = xs.iter().map(|x: &f64| 3.0 * x.ln()).collect();
/// let f = fit(&xs, &ys, Axis::Log, Axis::Linear);
/// assert!((f.slope - 3.0).abs() < 1e-9);
/// assert!(f.r_squared > 0.999);
/// ```
pub fn fit(xs: &[f64], ys: &[f64], x_axis: Axis, y_axis: Axis) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "fit: length mismatch");
    assert!(xs.len() >= 2, "fit: need at least 2 points");
    let tx: Vec<f64> = xs.iter().map(|&x| x_axis.apply(x)).collect();
    let ty: Vec<f64> = ys.iter().map(|&y| y_axis.apply(y)).collect();

    let n = tx.len() as f64;
    let mean_x = tx.iter().sum::<f64>() / n;
    let mean_y = ty.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in tx.iter().zip(&ty) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    assert!(sxx > 0.0, "fit: x values are all identical");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0 // constant y is fit perfectly by slope 0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LinearFit {
        slope,
        intercept,
        r_squared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [5.0, 7.0, 9.0, 11.0];
        let f = fit(&xs, &ys, Axis::Linear, Axis::Linear);
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_law_on_log_log_axes() {
        // y = 2·x^1.5 ⇒ ln y = ln 2 + 1.5 ln x.
        let xs = [1.0, 2.0, 5.0, 10.0, 50.0];
        let ys: Vec<f64> = xs.iter().map(|&x: &f64| 2.0 * x.powf(1.5)).collect();
        let f = fit(&xs, &ys, Axis::Log, Axis::Log);
        assert!((f.slope - 1.5).abs() < 1e-9, "slope {}", f.slope);
        assert!((f.intercept - 2f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn loglog_axis_applies_iterated_log() {
        let xs = [10.0, 100.0, 10_000.0];
        let ys: Vec<f64> = xs.iter().map(|&x: &f64| 4.0 * x.ln().ln() + 1.0).collect();
        let f = fit(&xs, &ys, Axis::LogLog, Axis::Linear);
        assert!((f.slope - 4.0).abs() < 1e-9);
        assert!((f.intercept - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_data_has_r_squared_below_one() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.1, 3.9, 6.2, 7.8, 10.3];
        let f = fit(&xs, &ys, Axis::Linear, Axis::Linear);
        assert!(f.r_squared > 0.98 && f.r_squared < 1.0);
    }

    #[test]
    fn constant_y_is_perfect_zero_slope() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [4.0, 4.0, 4.0];
        let f = fit(&xs, &ys, Axis::Linear, Axis::Linear);
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r_squared, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn log_axis_rejects_nonpositive() {
        let _ = fit(&[0.0, 1.0], &[1.0, 2.0], Axis::Log, Axis::Linear);
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn degenerate_x_panics() {
        let _ = fit(&[2.0, 2.0], &[1.0, 2.0], Axis::Linear, Axis::Linear);
    }
}
