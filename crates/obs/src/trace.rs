//! Deterministic run tracing: structured per-run events and exporters.
//!
//! Engines emit [`TraceEvent`]s through a [`Tracer`] behind an opt-in
//! knob. Recording touches no process RNG and no wall clock — every
//! timestamp is *simulated* time — so the trace of a seeded run is a
//! pure function of its configuration: tracing off reproduces the
//! historical RNG stream byte-identically, tracing on yields the same
//! run outcome plus the event stream. Exporters write JSONL (one event
//! per line, grep/jq-friendly) or the Chrome trace-event JSON format
//! loadable by `chrome://tracing` / Perfetto.

use std::io::{self, Write};
use std::str::FromStr;

/// One structured run event at a simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event (engine time units).
    pub time: f64,
    /// What happened.
    pub kind: TraceKind,
}

/// The event taxonomy shared by all engines.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A protocol phase transition (leader / cluster state machines,
    /// synchronous two-choices rounds).
    Phase {
        /// Phase or transition name (e.g. `generation-allowed`).
        name: &'static str,
        /// Generation the transition concerns.
        generation: u32,
        /// Sub-entity: cluster index for the multi-leader engine, 0 for
        /// global events.
        scope: u32,
    },
    /// A new generation appeared in the generation table.
    Birth {
        /// The generation born.
        generation: u32,
    },
    /// A zero-signal window crossing: a jump chain's, or the counted
    /// arrival that reached the window's threshold.
    WindowCrossing {
        /// Cluster index (0 for the single-leader engine).
        scope: u32,
    },
    /// The calendar event queue resized its bucket array.
    QueueResize {
        /// New bucket count.
        buckets: u64,
        /// New bucket width (simulated time units).
        width: f64,
    },
    /// A scenario effect fired.
    ScenarioEffect {
        /// Effect name (`joined`, `corrupt`, `rewired`, …).
        name: &'static str,
        /// How many nodes (or units) the effect touched.
        count: u64,
    },
    /// A generic milestone (convergence times, round markers, …).
    Milestone {
        /// Milestone name.
        name: &'static str,
        /// Associated value.
        value: f64,
    },
}

impl TraceKind {
    /// The event's display label (the inner name for named variants).
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::Phase { name, .. } => name,
            TraceKind::Birth { .. } => "generation-birth",
            TraceKind::WindowCrossing { .. } => "window-crossing",
            TraceKind::QueueResize { .. } => "queue-resize",
            TraceKind::ScenarioEffect { name, .. } => name,
            TraceKind::Milestone { name, .. } => name,
        }
    }

    /// The event's category (stable across labels).
    pub fn category(&self) -> &'static str {
        match self {
            TraceKind::Phase { .. } => "phase",
            TraceKind::Birth { .. } => "birth",
            TraceKind::WindowCrossing { .. } => "window",
            TraceKind::QueueResize { .. } => "queue",
            TraceKind::ScenarioEffect { .. } => "scenario",
            TraceKind::Milestone { .. } => "milestone",
        }
    }

    /// JSON-object fragment with the variant's payload fields (no
    /// braces), deterministic field order.
    fn args_json(&self) -> String {
        match self {
            TraceKind::Phase {
                generation, scope, ..
            } => format!("\"generation\":{generation},\"scope\":{scope}"),
            TraceKind::Birth { generation } => format!("\"generation\":{generation}"),
            TraceKind::WindowCrossing { scope } => format!("\"scope\":{scope}"),
            TraceKind::QueueResize { buckets, width } => {
                format!("\"buckets\":{buckets},\"width\":{width}")
            }
            TraceKind::ScenarioEffect { count, .. } => format!("\"count\":{count}"),
            TraceKind::Milestone { value, .. } => format!("\"value\":{value}"),
        }
    }

    /// The Chrome `tid` lane: cluster scope where one exists, 0
    /// otherwise, so per-cluster phases render as separate tracks.
    fn lane(&self) -> u32 {
        match self {
            TraceKind::Phase { scope, .. } | TraceKind::WindowCrossing { scope } => *scope,
            _ => 0,
        }
    }
}

/// The opt-in event collector the engines thread through their run
/// loops. Disabled, it is a single branch per emission site and
/// allocates nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Option<Vec<TraceEvent>>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            events: enabled.then(Vec::new),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn emit(&mut self, time: f64, kind: TraceKind) {
        if let Some(events) = self.events.as_mut() {
            events.push(TraceEvent { time, kind });
        }
    }

    /// Bulk-appends events gathered elsewhere (e.g. the event queue's
    /// resize log); no-op when disabled.
    pub fn extend(&mut self, more: impl IntoIterator<Item = TraceEvent>) {
        if let Some(events) = self.events.as_mut() {
            events.extend(more);
        }
    }

    /// Finishes the trace: events stably sorted by time (`None` when
    /// disabled).
    pub fn finish(self) -> Option<Vec<TraceEvent>> {
        self.events.map(|mut events| {
            events.sort_by(|a, b| a.time.total_cmp(&b.time));
            events
        })
    }
}

/// Always-on, RNG-free hot-path counters an engine reports next to its
/// result, so `perf_snapshot` can localize regressions (did we pop more
/// events? thin fewer signals?) instead of only seeing wall time move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineProfile {
    /// Events popped from the event queue.
    pub events_popped: u64,
    /// Ticks settled by thinning instead of being simulated
    /// individually.
    pub signals_thinned: u64,
    /// Calendar-queue bucket-array resizes.
    pub queue_resizes: u64,
    /// Zero-signal window crossings (jump chains or counted arrivals).
    pub window_crossings: u64,
}

/// Trace output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line.
    Jsonl,
    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    Chrome,
}

impl FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" => Ok(Self::Jsonl),
            "chrome" => Ok(Self::Chrome),
            other => Err(format!("unknown trace format `{other}` (jsonl or chrome)")),
        }
    }
}

/// A consumer of trace events. Implementations must tolerate events in
/// any time order (the engines sort before export, but sinks should not
/// depend on it).
pub trait TraceSink {
    /// Consumes one event.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    fn event(&mut self, ev: &TraceEvent) -> io::Result<()>;

    /// Flushes and finalizes the output (closes JSON arrays etc.).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// JSONL exporter: one `{"t":…,"event":…,"cat":…,…}` object per line.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    w: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        Self { w }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn event(&mut self, ev: &TraceEvent) -> io::Result<()> {
        writeln!(
            self.w,
            "{{\"t\":{},\"event\":\"{}\",\"cat\":\"{}\",{}}}",
            ev.time,
            ev.kind.label(),
            ev.kind.category(),
            ev.kind.args_json()
        )
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// Chrome trace-event exporter: instant events (`"ph":"i"`) with
/// microsecond timestamps derived from simulated time and one `tid`
/// lane per cluster scope.
#[derive(Debug)]
pub struct ChromeSink<W: Write> {
    w: W,
    first: bool,
}

impl<W: Write> ChromeSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        Self { w, first: true }
    }
}

impl<W: Write> TraceSink for ChromeSink<W> {
    fn event(&mut self, ev: &TraceEvent) -> io::Result<()> {
        if self.first {
            self.w.write_all(b"{\"traceEvents\":[\n")?;
            self.first = false;
        } else {
            self.w.write_all(b",\n")?;
        }
        // Simulated time units → integer microseconds.
        let ts = (ev.time * 1e6).round().max(0.0) as u64;
        write!(
            self.w,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"g\",\"args\":{{{}}}}}",
            ev.kind.label(),
            ev.kind.category(),
            ts,
            ev.kind.lane(),
            ev.kind.args_json()
        )
    }

    fn finish(&mut self) -> io::Result<()> {
        if self.first {
            self.w.write_all(b"{\"traceEvents\":[\n")?;
            self.first = false;
        }
        self.w.write_all(b"\n]}\n")?;
        self.w.flush()
    }
}

/// Exports `events` to `w` in the given format (convenience over the
/// sink types).
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn export<W: Write>(events: &[TraceEvent], format: TraceFormat, w: W) -> io::Result<()> {
    match format {
        TraceFormat::Jsonl => {
            let mut sink = JsonlSink::new(w);
            for ev in events {
                sink.event(ev)?;
            }
            sink.finish()
        }
        TraceFormat::Chrome => {
            let mut sink = ChromeSink::new(w);
            for ev in events {
                sink.event(ev)?;
            }
            sink.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                time: 0.5,
                kind: TraceKind::Phase {
                    name: "generation-allowed",
                    generation: 1,
                    scope: 0,
                },
            },
            TraceEvent {
                time: 1.25,
                kind: TraceKind::Birth { generation: 2 },
            },
            TraceEvent {
                time: 2.0,
                kind: TraceKind::QueueResize {
                    buckets: 64,
                    width: 0.125,
                },
            },
        ]
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert!(!t.enabled());
        t.emit(1.0, TraceKind::Birth { generation: 1 });
        t.extend(demo_events());
        assert_eq!(t.finish(), None);
    }

    #[test]
    fn tracer_sorts_by_time_stably() {
        let mut t = Tracer::new(true);
        t.emit(2.0, TraceKind::Birth { generation: 3 });
        t.emit(1.0, TraceKind::Birth { generation: 1 });
        t.emit(1.0, TraceKind::Birth { generation: 2 });
        let evs = t.finish().unwrap();
        let gens: Vec<u32> = evs
            .iter()
            .map(|e| match e.kind {
                TraceKind::Birth { generation } => generation,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(gens, vec![1, 2, 3]);
    }

    #[test]
    fn jsonl_lines_are_json_objects() {
        let mut buf = Vec::new();
        export(&demo_events(), TraceFormat::Jsonl, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"t\":"));
            assert!(line.contains("\"event\":"));
        }
        assert!(lines[0].contains("\"event\":\"generation-allowed\""));
        assert!(lines[2].contains("\"buckets\":64"));
    }

    #[test]
    fn chrome_output_has_the_trace_events_envelope() {
        let mut buf = Vec::new();
        export(&demo_events(), TraceFormat::Chrome, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"ts\":500000"));
        assert!(text.contains("\"ts\":1250000"));
        // Exactly one object per event.
        assert_eq!(text.matches("\"ph\":\"i\"").count(), 3);
    }

    #[test]
    fn empty_chrome_trace_is_still_well_formed() {
        let mut buf = Vec::new();
        export(&[], TraceFormat::Chrome, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
    }

    #[test]
    fn format_parses_and_rejects() {
        assert_eq!("jsonl".parse::<TraceFormat>(), Ok(TraceFormat::Jsonl));
        assert_eq!("chrome".parse::<TraceFormat>(), Ok(TraceFormat::Chrome));
        assert!("xml".parse::<TraceFormat>().is_err());
    }
}
