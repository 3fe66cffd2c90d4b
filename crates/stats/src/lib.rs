//! # plurality-stats
//!
//! Statistics and reporting utilities for the experiment harness:
//!
//! * [`OnlineStats`] — streaming mean/standard-deviation/extrema with
//!   mergeable state;
//! * [`success_rate`] — Wilson score intervals for whp.-style success
//!   fractions;
//! * [`fit`] — least-squares fits on log-transformed axes, for checking
//!   the paper's scaling laws (`log k`, `log log n`, …);
//! * [`Table`] — paper-style ASCII tables with CSV export;
//! * [`ks_test`] / [`chi_square_homogeneity`] — two-sample
//!   goodness-of-fit tests, backing the aggregate-vs-per-node
//!   cross-validation suite in `plurality-agg`.
//!
//! ## Example
//!
//! ```
//! use plurality_stats::{OnlineStats, Table, fmt_f64};
//! let stats = OnlineStats::from_slice(&[10.0, 12.0, 11.0]);
//! let mut table = Table::new("convergence", &["n", "mean rounds"]);
//! table.row(&["1000".into(), fmt_f64(stats.mean())]);
//! println!("{}", table.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod regression;
mod summary;
mod table;
mod twosample;

pub use regression::{fit, Axis, LinearFit};
pub use summary::{success_rate, OnlineStats};
pub use table::{fmt_f64, Table};
pub use twosample::{chi_square_homogeneity, ks_test, ChiSquareTest, KsTest};
