//! Lock-free metric primitives and the canonical Prometheus text encoder.
//!
//! Everything here is plain `std` atomics: recording a sample is a
//! handful of relaxed `fetch_add`s, safe to call from any thread and
//! cheap enough for engine hot paths. Reads (rendering, quantiles) are
//! racy snapshots by design — exactly what a monitoring scrape wants.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter (`# TYPE … counter`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (`# TYPE … gauge`), stored as `f64`
/// bits in an atomic.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A log-linear-bucket histogram of `u64` samples (HdrHistogram-style).
///
/// One layout, `S = 32` sub-buckets: values below 32 get their own slot
/// (exact); above that, each power-of-two major bucket is split into 16
/// linear minors, so every recorded value lands in a bucket whose width
/// is at most `1/16` of its magnitude — the **relative error bound** of
/// every quantile read. The 976 slots (~8 KiB) cover all of `u64`: the
/// top slot ends at `u64::MAX`, so no value is clamped. Recording is one
/// index computation (a leading-zeros count) plus three relaxed
/// `fetch_add`s: O(1), no allocation, no locks. Histograms merge by
/// bucket-wise addition, which makes per-thread recording + end-of-run
/// [`Histogram::merge_from`] exact, not approximate.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// The layout's `S`: sub-buckets per major bucket, and the number of
    /// exact low slots. A power of two; the relative error bound is `2/S`.
    pub const SUB_BUCKETS: u64 = 32;

    /// Number of slots: the index of `u64::MAX` plus one.
    const SLOTS: usize = Self::index_for(u64::MAX) + 1;

    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: (0..Self::SLOTS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    const fn index_for(v: u64) -> usize {
        const S: u64 = Histogram::SUB_BUCKETS;
        if v < S {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let b = (msb - S.trailing_zeros() + 1) as u64;
        let sub = v >> b; // in [S/2, S)
        (b * (S / 2) + sub) as usize
    }

    /// The highest value mapping to slot `i` — the representative
    /// returned by quantile reads and the inclusive `le` upper bound of
    /// the Prometheus bucket.
    fn value_at(i: usize) -> u64 {
        let half = (Self::SUB_BUCKETS / 2) as usize;
        if i < Self::SUB_BUCKETS as usize {
            return i as u64;
        }
        let b = i / half - 1;
        let sub = i % half + half;
        let upper = ((sub as u128 + 1) << b) - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[Self::index_for(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), exact up to bucket resolution:
    /// the representative (highest) value of the bucket holding the
    /// `⌈q·count⌉`-th smallest sample. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            if cum >= target {
                return Self::value_at(i);
            }
        }
        u64::MAX
    }

    /// Adds every bucket of `other` into `self` (exact, associative).
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.counts.iter().zip(&other.counts) {
            let c = src.load(Ordering::Relaxed);
            if c > 0 {
                dst.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.total
            .fetch_add(other.total.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs, in
    /// increasing bound order (non-cumulative).
    fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then(|| (Self::value_at(i), c))
            })
            .collect()
    }
}

/// What a registered family is, for the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    name: String,
    help: String,
    metric: Metric,
}

impl Family {
    fn kind(&self) -> MetricKind {
        match self.metric {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// A named collection of metric families with one canonical Prometheus
/// text encoder ([`MetricsRegistry::render`]).
///
/// Registration hands back an `Arc` handle the instrumented code keeps;
/// rendering walks the families in registration order, so the exposition
/// is deterministic.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self
            .families
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|fam| fam.name.clone())
            .collect();
        f.debug_struct("MetricsRegistry")
            .field("families", &names)
            .finish()
    }
}

fn assert_metric_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    assert!(
        head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "invalid metric name `{name}`"
    );
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, metric: Metric) {
        assert_metric_name(name);
        let mut families = self.families.lock().expect("metrics registry poisoned");
        assert!(
            families.iter().all(|f| f.name != name),
            "metric `{name}` registered twice"
        );
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            metric,
        });
    }

    /// Registers a counter family and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name (a programming error).
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.register(name, help, Metric::Counter(Arc::clone(&c)));
        c
    }

    /// Registers a gauge family and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.register(name, help, Metric::Gauge(Arc::clone(&g)));
        g
    }

    /// Registers a histogram family and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or duplicate name.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.register(name, help, Metric::Histogram(Arc::clone(&h)));
        h
    }

    /// Renders every family in Prometheus text exposition format —
    /// `# HELP` / `# TYPE` headers with the correct `counter` / `gauge`
    /// / `histogram` kinds, cumulative `_bucket{le=…}` series ending in
    /// `+Inf`, and `_sum` / `_count` for histograms.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for fam in families.iter() {
            let kind = match fam.kind() {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", fam.name, fam.help);
            let _ = writeln!(out, "# TYPE {} {}", fam.name, kind);
            match &fam.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{} {}", fam.name, c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", fam.name, fmt_value(g.get()));
                }
                Metric::Histogram(h) => {
                    // `+Inf` and `_count` come from the same bucket pass
                    // as the finite buckets: a `record` racing the scrape
                    // may land between separate loads of the buckets and
                    // the total, which would tear the exposition. `_sum`
                    // may lag the buckets by the racing samples.
                    let mut cum = 0u64;
                    for (le, count) in h.nonzero_buckets() {
                        cum += count;
                        let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cum}", fam.name);
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {cum}", fam.name);
                    let _ = writeln!(out, "{}_sum {}", fam.name, h.sum());
                    let _ = writeln!(out, "{}_count {cum}", fam.name);
                }
            }
        }
        out
    }
}

/// Formats a gauge value: integral values print without a fraction.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Validates a Prometheus text exposition: unique `# HELP` / `# TYPE`
/// per family with `TYPE` preceding its samples, sample names that
/// belong to a declared family (with `_bucket` / `_sum` / `_count` for
/// histograms), parseable values, and for every histogram cumulative
/// `le` buckets in strictly increasing bound order ending in `+Inf`
/// whose final count equals `_count`.
///
/// Shared by the serve exposition tests and the CI mid-load scrape, so
/// there is exactly one definition of "well-formed metrics".
///
/// # Errors
///
/// Returns the first problem found, described with its line.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::HashMap;

    #[derive(Default)]
    struct HistState {
        last_le: Option<f64>,
        last_cum: Option<u64>,
        saw_inf: bool,
        inf_count: Option<u64>,
        count_value: Option<u64>,
        saw_sum: bool,
    }

    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashMap<String, ()> = HashMap::new();
    let mut hists: HashMap<String, HistState> = HashMap::new();

    let base_of = |name: &str, types: &HashMap<String, String>| -> Option<(String, String)> {
        if let Some(kind) = types.get(name) {
            return Some((name.to_string(), kind.clone()));
        }
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if types.get(base).map(String::as_str) == Some("histogram") {
                    return Some((base.to_string(), "histogram".to_string()));
                }
            }
        }
        None
    };

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or_default();
            if helps.insert(name.to_string(), ()).is_some() {
                return Err(format!("line {lineno}: duplicate HELP for `{name}`"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_default().to_string();
            let kind = parts.next().unwrap_or_default().to_string();
            if !matches!(kind.as_str(), "counter" | "gauge" | "histogram") {
                return Err(format!("line {lineno}: unknown metric type `{kind}`"));
            }
            if types.insert(name.clone(), kind).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        // A sample line: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => return Err(format!("line {lineno}: malformed sample `{line}`")),
        };
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {lineno}: unparseable value `{value_part}`"))?;
        let (name, labels) = match name_part.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated labels"))?;
                (n, Some(labels))
            }
            None => (name_part, None),
        };
        let Some((base, kind)) = base_of(name, &types) else {
            return Err(format!(
                "line {lineno}: sample `{name}` has no preceding TYPE declaration"
            ));
        };
        if kind != "histogram" {
            continue;
        }
        let st = hists.entry(base.clone()).or_default();
        if name.ends_with("_bucket") {
            let labels =
                labels.ok_or_else(|| format!("line {lineno}: histogram bucket without labels"))?;
            let le = labels
                .strip_prefix("le=\"")
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| format!("line {lineno}: bucket without le label: `{labels}`"))?;
            let le_num = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse::<f64>()
                    .map_err(|_| format!("line {lineno}: unparseable le `{le}`"))?
            };
            if let Some(prev) = st.last_le {
                if le_num <= prev {
                    return Err(format!(
                        "line {lineno}: `{base}` le buckets not increasing ({prev} then {le_num})"
                    ));
                }
            }
            let cum = value as u64;
            if let Some(prev) = st.last_cum {
                if cum < prev {
                    return Err(format!(
                        "line {lineno}: `{base}` bucket counts not cumulative ({prev} then {cum})"
                    ));
                }
            }
            st.last_le = Some(le_num);
            st.last_cum = Some(cum);
            if le == "+Inf" {
                st.saw_inf = true;
                st.inf_count = Some(cum);
            }
        } else if name.ends_with("_sum") {
            st.saw_sum = true;
        } else if name.ends_with("_count") {
            st.count_value = Some(value as u64);
        }
    }
    for (base, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        let st = hists
            .get(base)
            .ok_or_else(|| format!("histogram `{base}` has no samples"))?;
        if !st.saw_inf {
            return Err(format!("histogram `{base}` has no `+Inf` bucket"));
        }
        if !st.saw_sum {
            return Err(format!("histogram `{base}` has no `_sum` sample"));
        }
        match (st.inf_count, st.count_value) {
            (Some(inf), Some(count)) if inf == count => {}
            (inf, count) => {
                return Err(format!(
                    "histogram `{base}`: +Inf bucket {inf:?} must equal _count {count:?}"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        for q in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
            let want = ((q * 32.0).ceil() as u64).clamp(1, 32) - 1;
            assert_eq!(h.quantile(q), want, "q={q}");
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.sum(), (0..32).sum::<u64>());
    }

    #[test]
    fn histogram_relative_error_is_bounded() {
        let h = Histogram::new();
        for v in [100u64, 1_000, 65_536, 1 << 40, u64::MAX / 3] {
            h.record(v);
            let rep = Histogram::value_at(Histogram::index_for(v));
            assert!(rep >= v, "representative below the sample");
            let err = (rep - v) as f64 / v as f64;
            assert!(err <= 2.0 / 32.0, "error {err} for {v}");
        }
    }

    #[test]
    fn histogram_saturates_at_top_bucket() {
        let h = Histogram::new();
        assert_eq!(h.counts.len(), 976);
        for _ in 0..3 {
            h.record(u64::MAX);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..1_000u64 {
            let x = v * v % 7_919;
            (if v % 2 == 0 { &a } else { &b }).record(x);
            all.record(x);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    fn hist_of(values: &[u64]) -> Histogram {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn merge_is_associative_and_order_independent(
            a in prop::collection::vec(0u64..1_000_000, 0..200),
            b in prop::collection::vec(0u64..1_000_000, 0..200),
            c in prop::collection::vec(0u64..1_000_000, 0..200),
        ) {
            // (a ⊕ b) ⊕ c
            let left = hist_of(&a);
            left.merge_from(&hist_of(&b));
            left.merge_from(&hist_of(&c));
            // a ⊕ (b ⊕ c)
            let bc = hist_of(&b);
            bc.merge_from(&hist_of(&c));
            let right = hist_of(&a);
            right.merge_from(&bc);
            // One histogram fed everything directly.
            let mut all = a.clone();
            all.extend_from_slice(&b);
            all.extend_from_slice(&c);
            let direct = hist_of(&all);

            prop_assert_eq!(left.count(), right.count());
            prop_assert_eq!(left.count(), direct.count());
            prop_assert_eq!(left.sum(), right.sum());
            prop_assert_eq!(left.sum(), direct.sum());
            prop_assert_eq!(left.nonzero_buckets(), right.nonzero_buckets());
            prop_assert_eq!(left.nonzero_buckets(), direct.nonzero_buckets());
            for q in [0.0f64, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(left.quantile(q), right.quantile(q));
                prop_assert_eq!(left.quantile(q), direct.quantile(q));
            }
        }

        #[test]
        fn huge_values_saturate_into_the_top_bucket(
            values in prop::collection::vec(u64::MAX - 1_000..u64::MAX, 1..50),
        ) {
            let h = hist_of(&values);
            prop_assert_eq!(h.count(), values.len() as u64);
            // Everything near u64::MAX lands in the single top bucket, so
            // every quantile reads the top representative.
            prop_assert_eq!(h.quantile(0.0), h.quantile(1.0));
            prop_assert_eq!(h.quantile(1.0), u64::MAX);
            let buckets = h.nonzero_buckets();
            prop_assert_eq!(buckets.len(), 1);
            prop_assert_eq!(buckets[0], (u64::MAX, values.len() as u64));
        }
    }

    #[test]
    fn registry_renders_all_three_kinds() {
        let r = MetricsRegistry::new();
        let c = r.counter("demo_total", "a counter");
        let g = r.gauge("demo_depth", "a gauge");
        let h = r.histogram("demo_latency_us", "a histogram");
        c.add(3);
        g.set(1.5);
        h.record(10);
        h.record(500);
        let text = r.render();
        assert!(text.contains("# TYPE demo_total counter"));
        assert!(text.contains("# TYPE demo_depth gauge"));
        assert!(text.contains("# TYPE demo_latency_us histogram"));
        assert!(text.contains("demo_total 3"));
        assert!(text.contains("demo_depth 1.5"));
        assert!(text.contains("demo_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("demo_latency_us_count 2"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn render_stays_well_formed_while_threads_record() {
        use std::sync::atomic::AtomicBool;
        let r = MetricsRegistry::new();
        let h = r.histogram("race_us", "recorded while rendered");
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let (h, stop) = (&h, &stop);
                scope.spawn(move || {
                    let mut v = t;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(v % 5_000);
                        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    }
                });
            }
            for _ in 0..2_000 {
                let text = r.render();
                if let Err(e) = validate_exposition(&text) {
                    stop.store(true, Ordering::Relaxed);
                    panic!("torn exposition: {e}\n{text}");
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(h.count() > 0, "the recorders never ran");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_are_rejected() {
        let r = MetricsRegistry::new();
        let _ = r.counter("dup_total", "one");
        let _ = r.gauge("dup_total", "two");
    }

    #[test]
    fn validator_catches_type_lies_and_broken_buckets() {
        assert!(validate_exposition("# TYPE a counter\n# TYPE a counter\na 1\n").is_err());
        assert!(validate_exposition("orphan 1\n").is_err());
        // Non-cumulative buckets.
        let bad = "# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(bad).is_err());
        // Missing +Inf.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(bad).is_err());
        // +Inf disagrees with _count.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(bad).is_err());
        // A well-formed family passes.
        let good = "# HELP h help\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        validate_exposition(good).unwrap();
    }
}
