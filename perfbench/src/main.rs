//! End-to-end and per-layer benchmark of the plurality run path.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload async-complete|async-event|mf-scale|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The seed draws the workload's inputs; the run measures for `S`
//! seconds, checks every output, and prints one JSON object as its last
//! line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones (request latency
//! median and 90th percentile, throughput, set-up time); with
//! `--trace 1` the engines record trace events and the benchmark times
//! each layer boundary, and the metrics are the per-layer ones.
//!
//! Set-up time is the median of seven cold set-ups: six in child
//! processes of this binary (`--setup-probe`) and the run's own, since
//! process-wide lazy state makes a second set-up in one process warm.
//!
//! The facade workloads scale their times to a reference machine speed
//! (see [`probe`]); the daemon workload reports plain wall time.

mod engine;
mod inputs;
mod probe;
mod serve;

use inputs::Workload;
use probe::SpeedProbe;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

const SETUP_PROBES: usize = 6;

/// The metrics `--trace 1` reports, for every workload; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("spec_us", "us"),
    ("engine_ms", "ms"),
    ("wire_us", "us"),
    ("wire_bytes", "bytes"),
    ("trace_events_per_run", "count"),
    ("engine_steps_per_run", "count"),
    ("events_popped_per_run", "count"),
    ("signals_thinned_per_run", "count"),
    ("queue_resizes_per_run", "count"),
    ("http_hit_ms", "ms"),
    ("http_miss_ms", "ms"),
    ("server_request_us", "us"),
    ("server_queue_wait_us", "us"),
    ("server_service_ms", "ms"),
    ("http_unattributed_ms", "ms"),
    ("cache_hits", "count"),
    ("cache_misses", "count"),
];

/// What one measured run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Seconds the requests kept the system busy, for throughput.
    pub busy_s: f64,
    /// Time of every attempted request.
    pub latencies_ms: Vec<f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            eprintln!("check failed: {what}");
        }
        self.problems.push(what);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }
}

/// Nearest-rank quantile (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        setup_probe,
    })
}

enum Prepared {
    Engine(engine::Prepared),
    Serve(serve::Prepared),
}

/// Sets the workload up; returns it with the seconds set-up took.
fn setup(args: &Args) -> Result<(Prepared, f64), String> {
    if args.workload == Workload::ServeMixed {
        let started = Instant::now();
        let prepared = serve::setup(args.seed)?;
        return Ok((Prepared::Serve(prepared), started.elapsed().as_secs_f64()));
    }
    let mut speed = SpeedProbe::new();
    speed.refresh();
    let started = Instant::now();
    let prepared = engine::setup(args.workload, args.seed)?;
    let secs = started.elapsed().as_secs_f64() * speed.scale();
    Ok((Prepared::Engine(prepared), secs))
}

/// One cold set-up in a fresh process; returns its seconds.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--setup-probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("setup probe failed to start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "setup probe failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    stdout
        .trim()
        .parse()
        .map_err(|_| format!("setup probe printed {stdout:?}"))
}

fn run(args: &Args) -> Result<String, String> {
    if args.setup_probe {
        let (prepared, secs) = setup(args)?;
        if let Prepared::Serve(s) = prepared {
            serve::teardown(s);
        }
        return Ok(format!("{secs}"));
    }

    let mut setups = (0..SETUP_PROBES)
        .map(|_| setup_probe(args))
        .collect::<Result<Vec<_>, _>>()?;
    let (prepared, secs) = setup(args)?;
    setups.push(secs);

    let out = match &prepared {
        Prepared::Engine(p) => engine::measure(p, args.seconds, args.trace),
        Prepared::Serve(p) => serve::measure(p, args.seed, args.seconds, args.trace),
    };
    if let Prepared::Serve(s) = prepared {
        serve::teardown(s);
    }
    if out.latencies_ms.is_empty() {
        return Err("no request completed inside the measuring window".to_string());
    }

    let mut metrics = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            metrics.push((*name, out.layers.get(name).copied().unwrap_or(0.0), *unit));
        }
    } else {
        let completed = out.attempted - out.failed;
        metrics.push(("latency_p50_ms", quantile(&out.latencies_ms, 0.5), "ms"));
        metrics.push(("latency_p90_ms", quantile(&out.latencies_ms, 0.9), "ms"));
        metrics.push(("throughput_per_s", completed as f64 / out.busy_s, "1/s"));
        metrics.push(("setup_s", median(&setups), "s"));
    }
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
