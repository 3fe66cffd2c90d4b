//! The facade workloads: spec string → registry → engine → wire text,
//! in this process, one run at a time — the path behind
//! `plurality --spec` and behind every daemon cache miss.

use crate::inputs::{self, Workload};
use crate::probe::SpeedProbe;
use crate::{median, Outcome};
use plurality_api::{Registry, Report, RunSpec, Telemetry, WIRE_HEADER};
use std::time::Instant;

/// Distinct specs a run cycles through.
const BATCH: usize = 240;
/// Leading measured runs re-run at the end to check seed purity.
const RECHECKED: usize = 4;

pub struct Prepared {
    specs: Vec<String>,
}

/// Draws and validates the batch, then runs the warm-up specs so lazily
/// built tables and memoized time-unit estimates are in place before
/// timing starts.
pub fn setup(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let registry = Registry::standard();
    let specs = inputs::batch(workload, seed, BATCH);
    for raw in &specs {
        let spec = RunSpec::parse(raw).map_err(|e| format!("{raw}: {e}"))?;
        registry
            .validate_only(&spec)
            .map_err(|e| format!("{raw}: {e}"))?;
    }
    for raw in &inputs::warm_up(workload, seed) {
        plurality_api::run_spec(raw).map_err(|e| format!("{raw}: {e}"))?;
    }
    Ok(Prepared { specs })
}

/// Per-layer sums over the measured runs.
#[derive(Default)]
struct Layers {
    spec_us: Vec<f64>,
    engine_ms: Vec<f64>,
    wire_us: Vec<f64>,
    wire_bytes: f64,
    trace_events: f64,
    steps: f64,
    profiled: f64,
    events_popped: f64,
    signals_thinned: f64,
    queue_resizes: f64,
}

/// Runs the batch round-robin until `seconds` have passed. With
/// `trace`, engines record their trace events and each layer boundary
/// is timed; without, only the whole request is. Times are scaled to
/// the reference speed (see [`crate::probe`]).
pub fn measure(prepared: &Prepared, seconds: f64, trace: bool) -> Outcome {
    let registry = Registry::standard();
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut first_wires = Vec::new();
    let mut speed = SpeedProbe::new();
    let started = Instant::now();
    for raw in prepared.specs.iter().cycle() {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        speed.refresh();
        out.attempted += 1;
        let t0 = Instant::now();
        let resolved = match RunSpec::parse(raw).and_then(|spec| registry.resolve(&spec)) {
            Ok(resolved) => resolved,
            Err(e) => {
                out.failed += 1;
                out.problem(format!("{raw}: {e}"));
                continue;
            }
        };
        let t1 = Instant::now();
        let report = if trace {
            let config = resolved.config.clone().with_trace(true);
            resolved.protocol.run(&config)
        } else {
            resolved.run()
        };
        let t2 = Instant::now();
        let wire = report.wire_text();
        let t3 = Instant::now();
        let scale = speed.scale();
        out.latencies_ms.push(ms(t3 - t0) * scale);
        out.busy_s += (t3 - t0).as_secs_f64() * scale;

        check_report(&mut out, raw, resolved.config.n(), &report, &wire);
        if trace {
            layers.spec_us.push(ms(t1 - t0) * scale * 1e3);
            layers.engine_ms.push(ms(t2 - t1) * scale);
            layers.wire_us.push(ms(t3 - t2) * scale * 1e3);
            layers.record(&report, &wire);
        }
        if first_wires.len() < RECHECKED {
            first_wires.push((raw, wire));
        }
    }

    // Seed purity: the same spec must reproduce the same bytes, and a
    // traced run must serialize exactly like an untraced one.
    for (raw, wire) in first_wires {
        match plurality_api::run_spec(raw) {
            Ok(again) if again.wire_text() == wire => {}
            Ok(_) => out.problem(format!("{raw}: re-run produced different wire text")),
            Err(e) => out.problem(format!("{raw}: re-run failed: {e}")),
        }
    }
    if trace {
        layers.report(&mut out);
    }
    out
}

fn check_report(out: &mut Outcome, raw: &str, n: u64, report: &Report, wire: &str) {
    let counted: u64 = report.outcome.final_counts.as_slice().iter().sum();
    if report.outcome.n != n || counted != n {
        out.problem(format!(
            "{raw}: report covers n={} with {counted} nodes counted, expected {n}",
            report.outcome.n
        ));
    }
    if wire.lines().next() != Some(WIRE_HEADER) {
        out.problem(format!("{raw}: wire text lacks the {WIRE_HEADER} header"));
    }
}

impl Layers {
    fn record(&mut self, report: &Report, wire: &str) {
        self.wire_bytes += wire.len() as f64;
        self.trace_events += report.trace.as_ref().map_or(0, Vec::len) as f64;
        self.steps += engine_steps(report) as f64;
        if let Some(p) = report.profile() {
            self.profiled += 1.0;
            self.events_popped += p.events_popped as f64;
            self.signals_thinned += p.signals_thinned as f64;
            self.queue_resizes += p.queue_resizes as f64;
        }
    }

    fn report(self, out: &mut Outcome) {
        let runs = self.engine_ms.len().max(1) as f64;
        let profiled = self.profiled.max(1.0);
        out.layer("spec_us", median(&self.spec_us));
        out.layer("engine_ms", median(&self.engine_ms));
        out.layer("wire_us", median(&self.wire_us));
        out.layer("wire_bytes", self.wire_bytes / runs);
        out.layer("trace_events_per_run", self.trace_events / runs);
        out.layer("engine_steps_per_run", self.steps / runs);
        out.layer("events_popped_per_run", self.events_popped / profiled);
        out.layer("signals_thinned_per_run", self.signals_thinned / profiled);
        out.layer("queue_resizes_per_run", self.queue_resizes / profiled);
    }
}

/// The engine's own unit of work: sub-steps or batches for the
/// mean-field jump chains, clock ticks for the per-node asynchronous
/// engines, rounds for the round-based ones.
fn engine_steps(report: &Report) -> u64 {
    match &report.telemetry {
        Telemetry::LeaderMf(t) => t.sub_steps,
        Telemetry::PopulationMf(t) => t.batches,
        _ => report.ticks().or(report.rounds()).unwrap_or(0),
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
