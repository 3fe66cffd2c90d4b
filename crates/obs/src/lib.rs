//! Zero-dependency instrumentation for the plurality workspace.
//!
//! Two halves, both `std`-only:
//!
//! * **Metrics** ([`metrics`]): lock-free [`Counter`] / [`Gauge`] atomics
//!   and a log-linear-bucket [`Histogram`] (HdrHistogram-style:
//!   power-of-two majors × linear minors, O(1) record, mergeable, exact
//!   quantile-from-bucket accessors), collected in a named
//!   [`MetricsRegistry`] with one canonical Prometheus text encoder that
//!   distinguishes `counter` / `gauge` / `histogram` types. The encoder's
//!   output is checked by [`validate_exposition`], shared between unit
//!   tests and the CI scrape of the live daemon.
//!
//! * **Tracing** ([`trace`]): structured per-run events
//!   ([`TraceEvent`] / [`TraceKind`]) the engines emit behind an opt-in
//!   knob — phase transitions, generation births, 0-signal window
//!   crossings, calendar-queue resizes, scenario effect firings — plus
//!   JSONL and Chrome-trace-format exporters behind the [`TraceSink`]
//!   trait. The contract is *bitwise determinism*: recording a trace
//!   consumes **no** process RNG, so tracing off reproduces the
//!   historical RNG stream byte-identically and tracing on yields an
//!   identical run outcome with the events on the side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{validate_exposition, Counter, Gauge, Histogram, MetricsRegistry};
pub use trace::{
    export, ChromeSink, EngineProfile, JsonlSink, TraceEvent, TraceFormat, TraceKind, TraceSink,
    Tracer,
};
