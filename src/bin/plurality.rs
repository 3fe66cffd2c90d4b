//! `plurality` — command-line front end for the consensus simulators,
//! driven by the unified protocol facade of `plurality-api`.
//!
//! ```text
//! plurality --spec "leader?n=4096&k=8&topology=er:0.01&scenario=crash:0.2@5"
//! plurality --list
//! plurality run --protocol leader --n 10000 --k 4 --alpha 2.0 --seed 7
//! plurality run --protocol cluster --n 20000 --k 8 --alpha 1.5 --latency weibull:1.5:1.0
//! plurality run --protocol 3-majority --n 30000 --k 16 --alpha 2.0
//! plurality run --protocol sync --topology regular:8
//! plurality run --protocol sync --scenario "crash:0.2@5;burst-loss:0.5@8..12;rewire:er:0.01@20"
//! plurality run --protocol leader --scenario "signal-loss:0.3;stragglers:0.2:0.1"
//! plurality time-unit --latency exp:0.1 --pattern single
//! ```
//!
//! `run --protocol P --key value …` and `--spec "P?key=value&…"` are the
//! same thing: every flag is a run-spec parameter, validated by the
//! protocol registry with teaching errors. Argument parsing is
//! hand-rolled (the workspace keeps its dependency set to `rand` +
//! dev-tools); every parameter has a default, so
//! `plurality run --protocol sync` already works.

use plurality::api::{Registry, Report, Resolved, RunSpec, SpecError, Telemetry, COMMON_KEYS};
use plurality::check::{
    check_cluster, check_leader, CheckReport, CheckTopology, ClusterCheckConfig, LeaderCheckConfig,
    Limits, SearchOrder, VerdictSummary,
};
use plurality::dist::{ChannelPattern, Latency, WaitingTime};
use plurality::obs::{export, TraceFormat};
use plurality::serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed `--key value` options plus the leading subcommand.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    command: String,
    options: HashMap<String, String>,
}

/// Splits raw arguments into a subcommand and `--key value` pairs.
fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut iter = raw.iter();
    let command = iter
        .next()
        .cloned()
        .ok_or_else(|| "missing subcommand (try `run`, `list`, or `time-unit`)".to_string())?;
    let mut options = HashMap::new();
    while let Some(flag) = iter.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
        let value = iter
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        options.insert(key.to_string(), value.clone());
    }
    Ok(Args { command, options })
}

impl Args {
    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: `{v}` is not an integer")),
        }
    }

    fn get_str(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

fn print_outcome(protocol: &str, outcome: &plurality::core::RunOutcome) {
    println!("protocol:            {protocol}");
    println!("population:          n = {}, k = {}", outcome.n, outcome.k);
    println!(
        "initial:             plurality = {}, bias α₀ = {:.4}",
        outcome.initial_winner, outcome.initial_bias
    );
    match outcome.epsilon_time {
        Some(t) => println!("ε-convergence:       t = {t:.3}"),
        None => println!("ε-convergence:       not reached"),
    }
    match outcome.consensus_time {
        Some(t) => println!("full consensus:      t = {t:.3}"),
        None => println!(
            "full consensus:      not reached (ran to t = {:.3})",
            outcome.duration
        ),
    }
    match outcome.winner() {
        Some(w) => println!(
            "winner:              {w} (initial plurality preserved: {})",
            outcome.plurality_preserved()
        ),
        None => println!("winner:              none"),
    }
    if !outcome.generations.is_empty() {
        println!("generations created: {}", outcome.generations.len());
    }
}

/// Prints the unified report: the shared outcome plus the telemetry
/// lines each engine family earns.
fn print_report(report: &Report) {
    let display_name = match &report.telemetry {
        Telemetry::Sync(_) => "synchronous (Algorithm 1)".to_string(),
        Telemetry::Urn(_) => "urn mode (mean-field Algorithm 1)".to_string(),
        Telemetry::Leader(_) => "async single-leader (Algorithms 2+3)".to_string(),
        Telemetry::Cluster(_) => "async multi-leader (Algorithms 4+5)".to_string(),
        Telemetry::Gossip(t) => t.dynamics.name().to_string(),
        Telemetry::Population(t) => t.protocol.name().to_string(),
        Telemetry::LeaderMf(_) => "mean-field single-leader (tau-leap pools)".to_string(),
        Telemetry::GossipMf(t) => format!("mean-field {}", t.dynamics.name()),
        Telemetry::PopulationMf(_) => "mean-field approximate majority (jump chain)".to_string(),
    };
    print_outcome(&display_name, &report.outcome);
    match &report.telemetry {
        Telemetry::Sync(t) => println!("rounds:              {}", t.rounds),
        Telemetry::Urn(t) => println!("rounds:              {} (G* = {})", t.rounds, t.g_star),
        Telemetry::Leader(t) => println!(
            "time unit:           C1 = {:.3} steps ({} ticks processed)",
            t.steps_per_unit, t.ticks
        ),
        Telemetry::Cluster(t) => println!(
            "clusters:            {} ({} participating, {:.1}% of nodes)",
            t.cluster_count,
            t.participating_clusters,
            100.0 * t.participating_fraction
        ),
        Telemetry::Gossip(t) | Telemetry::GossipMf(t) => {
            println!("rounds:              {}", t.rounds)
        }
        Telemetry::Population(t) => println!(
            "interactions:        {} (converged: {})",
            t.interactions, t.converged
        ),
        Telemetry::LeaderMf(t) => println!(
            "time unit:           C1 = {:.3} steps ({} sub-steps processed)",
            t.steps_per_unit, t.sub_steps
        ),
        Telemetry::PopulationMf(t) => println!(
            "interactions:        {} ({} effective in {} batches, converged: {})",
            t.interactions, t.effective_interactions, t.batches, t.converged
        ),
    }
}

fn resolve_spec(spec: &RunSpec) -> Result<Resolved, String> {
    Registry::standard()
        .resolve(spec)
        .map_err(|e: SpecError| e.message().to_string())
}

/// `--trace-out FILE` (+ optional `--trace-format jsonl|chrome`) on the
/// `run` subcommand: an output option, not a spec parameter — it rides
/// along with `--spec` and never reaches the registry.
#[derive(Debug)]
struct TraceOut {
    path: String,
    format: TraceFormat,
}

impl TraceOut {
    fn format_name(&self) -> &'static str {
        match self.format {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Chrome => "chrome",
        }
    }
}

/// Extracts the trace output flags from a `run` invocation.
/// `--trace-format` without `--trace-out` is a mistake (where would the
/// trace go?), not a request for a default destination.
fn parse_trace_out(args: &Args) -> Result<Option<TraceOut>, String> {
    let path = args.options.get("trace-out");
    let format = args.options.get("trace-format");
    match (path, format) {
        (None, None) => Ok(None),
        (None, Some(_)) => Err("--trace-format needs --trace-out FILE".to_string()),
        (Some(path), format) => {
            if path.is_empty() {
                return Err("flag --trace-out has an empty value".to_string());
            }
            Ok(Some(TraceOut {
                path: path.clone(),
                format: format.map_or(Ok(TraceFormat::Jsonl), |f| f.parse())?,
            }))
        }
    }
}

/// Runs a resolved spec, prints the unified report, and — when
/// `--trace-out` asked for it — flips the trace knob and writes the
/// structured event stream to disk. Tracing consumes no process RNG, so
/// the printed report is byte-identical with or without it.
fn run_and_report(mut resolved: Resolved, trace_out: Option<TraceOut>) -> Result<ExitCode, String> {
    if trace_out.is_some() {
        resolved.config = resolved.config.with_trace(true);
    }
    let report = resolved.run();
    print_report(&report);
    if let Some(out) = trace_out {
        // The urn engine (mean-field, no discrete events) reports no
        // trace; an empty-but-well-formed file beats a missing one.
        let events = report.trace.as_deref().unwrap_or_default();
        let file = std::fs::File::create(&out.path)
            .map_err(|e| format!("--trace-out {}: {e}", out.path))?;
        export(events, out.format, std::io::BufWriter::new(file))
            .map_err(|e| format!("--trace-out {}: {e}", out.path))?;
        println!(
            "trace:               {} events -> {} ({})",
            events.len(),
            out.path,
            out.format_name()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_spec(raw: &str, trace_out: Option<TraceOut>) -> Result<ExitCode, String> {
    let spec = RunSpec::parse(raw).map_err(|e| e.message().to_string())?;
    run_and_report(resolve_spec(&spec)?, trace_out)
}

fn cmd_list() -> Result<ExitCode, String> {
    println!("registered protocols (run with --spec \"NAME?key=value&…\"):\n");
    for entry in Registry::standard().entries() {
        let aliases = if entry.aliases().is_empty() {
            String::new()
        } else {
            format!(" (aliases: {})", entry.aliases().join(", "))
        };
        println!("  {:<16} {}{aliases}", entry.name(), entry.summary());
        for (key, help) in entry.keys() {
            println!("      {key:<14} {help}");
        }
    }
    println!("\ncommon parameters (every protocol):");
    for (key, help) in COMMON_KEYS {
        println!("      {key:<14} {help}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Flags of `run` that shape its *output* rather than the run itself;
/// they ride along with `--spec` and never become spec parameters.
const RUN_OUTPUT_FLAGS: [&str; 2] = ["trace-out", "trace-format"];

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let trace_out = parse_trace_out(args)?;
    if let Some(raw) = args.options.get("spec") {
        let extra = args
            .options
            .keys()
            .any(|k| k != "spec" && !RUN_OUTPUT_FLAGS.contains(&k.as_str()));
        if extra {
            return Err(
                "--spec is self-contained; pass parameters inside the spec string \
                 instead of as extra flags (only the output options --trace-out and \
                 --trace-format ride along)"
                    .to_string(),
            );
        }
        return cmd_spec(raw, trace_out);
    }
    let protocol = args.get_str("protocol", "sync");
    // Reject unknown protocols before any flag is looked at, so a typo'd
    // protocol never gets key advice addressed to it.
    let Some(entry) = Registry::standard().find(&protocol) else {
        return Err(format!(
            "unknown protocol `{protocol}` (expected {})",
            Registry::standard().names().join(", ")
        ));
    };
    // Every other flag is a run-spec parameter — one grammar, one
    // validator, one set of teaching errors shared with `--spec`.
    let mut spec = RunSpec::new(entry.name());
    let mut keys: Vec<&String> = args.options.keys().collect();
    keys.sort(); // deterministic parameter order in errors and Display
    for key in keys {
        if key == "protocol" || RUN_OUTPUT_FLAGS.contains(&key.as_str()) {
            continue;
        }
        let value = &args.options[key];
        if value.is_empty() {
            // Only the historical `--scenario ""` idiom means "default";
            // an empty value anywhere else is a mistake (typically an
            // unset shell variable), not a request for the default.
            if key == "scenario" {
                continue;
            }
            return Err(format!("flag --{key} has an empty value"));
        }
        if key.contains(['?', '&', '=']) || value.contains(['?', '&', '=']) {
            return Err(format!(
                "flag --{key} {value}: `?`, `&`, and `=` are reserved by the spec grammar"
            ));
        }
        spec = spec.with(key, value);
    }
    run_and_report(resolve_spec(&spec)?, trace_out)
}

fn cmd_time_unit(args: &Args) -> Result<ExitCode, String> {
    let latency =
        Latency::parse_spec(&args.get_str("latency", "exp:1.0")).map_err(|e| e.to_string())?;
    let pattern = match args.get_str("pattern", "single").as_str() {
        "single" => ChannelPattern::SingleLeader,
        "multi" => ChannelPattern::MultiLeader,
        other => return Err(format!("unknown pattern `{other}` (single or multi)")),
    };
    let samples = args.get_u64("samples", 100_000)? as usize;
    let seed = args.get_u64("seed", 42)?;
    let wt = WaitingTime::new(latency, pattern);
    let c1 = wt.time_unit(samples, seed);
    println!("latency:     {latency}");
    println!("pattern:     {pattern:?}");
    println!("C1 = F⁻¹(0.9) = {c1:.4} steps per time unit");
    if let Some(m) = wt.majorant_time_unit() {
        println!("Γ majorant 0.9-quantile: {m:.4}");
    }
    if let Some(r) = wt.remark14_bound() {
        println!("paper's claimed Remark 14 bound: {r:.4} (see EXPERIMENTS.md E1)");
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses `reachable` / `unreachable` expectation values for `cmd_check`.
fn parse_expectation(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "reachable" => Ok(true),
        "unreachable" => Ok(false),
        other => Err(format!(
            "--{flag}: `{other}` is not an expectation (reachable or unreachable)"
        )),
    }
}

/// Collects everything that makes a finished check a failure: truncation,
/// invariant violations, and expectation mismatches from `--expect-*`.
fn check_failures(args: &Args, report: &CheckReport) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    if !report.exhaustive {
        failures
            .push("state budget exhausted before full coverage (raise --max-states)".to_string());
    }
    for p in &report.properties {
        if matches!(p.verdict, VerdictSummary::Violated { .. }) {
            failures.push(format!("invariant `{}` violated", p.name));
        }
    }
    for (flag, prop) in [
        ("expect-pocket", "pocket"),
        ("expect-conflict", "finished-conflict"),
    ] {
        let Some(want) = args.options.get(flag) else {
            continue;
        };
        let want_reachable = parse_expectation(flag, want)?;
        let Some(p) = report.property(prop) else {
            return Err(format!(
                "--{flag}: property `{prop}` is not checked for protocol `{}`",
                report.protocol
            ));
        };
        let got_reachable = matches!(p.verdict, VerdictSummary::Reachable { .. });
        if got_reachable != want_reachable {
            failures.push(format!(
                "expected `{prop}` to be {}, found it {}",
                if want_reachable {
                    "reachable"
                } else {
                    "unreachable"
                },
                if got_reachable {
                    "reachable"
                } else {
                    "unreachable"
                },
            ));
        }
    }
    Ok(failures)
}

/// `plurality check` — exhaustive model checking of small instances via
/// `plurality-check`. Exits nonzero on any violation, truncation, or
/// `--expect-*` mismatch, so CI can pin verdicts.
fn cmd_check(args: &Args) -> Result<ExitCode, String> {
    let protocol = args.get_str("protocol", "leader");
    let n = args.get_u64("n", 4)? as usize;
    let k = args.get_u64("k", 2)? as u32;
    let topology: CheckTopology = args.get_str("topology", "complete").parse()?;
    let cap = args.get_u64("cap", 2)? as u32;
    let with_trace = args.options.contains_key("trace");
    let limits = Limits {
        max_states: args.get_u64("max-states", Limits::default().max_states as u64)? as usize,
        order: match args.get_str("order", "bfs").as_str() {
            "bfs" => SearchOrder::BreadthFirst,
            "dfs" => SearchOrder::DepthFirst,
            other => return Err(format!("unknown search order `{other}` (bfs or dfs)")),
        },
    };
    let started = std::time::Instant::now();
    let report = match protocol.as_str() {
        "leader" => {
            let mut cfg = LeaderCheckConfig::new(n, k, topology);
            cfg.params.generation_cap = cap;
            check_leader(cfg, &limits)?
        }
        "cluster" => {
            let mut cfg = ClusterCheckConfig::new(n, k, topology);
            cfg.generation_cap = cap;
            cfg.sleep_units = args.get_u64("sleep-units", cfg.sleep_units)?;
            cfg.prop_units = args.get_u64("prop-units", cfg.prop_units)?;
            if let Some(sizes) = args.options.get("sizes") {
                cfg.sizes = sizes
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("--sizes: `{s}` is not an integer"))
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
            }
            check_cluster(cfg, &limits)?
        }
        other => {
            return Err(format!(
                "check knows protocols `leader` and `cluster`, got `{other}`"
            ))
        }
    };
    print!("{}", report.render(with_trace));
    println!("elapsed: {:.2?}", started.elapsed());
    let failures = check_failures(args, &report)?;
    if failures.is_empty() {
        println!("check passed");
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failures {
            println!("CHECK FAILED: {f}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// `plurality serve` — the long-running daemon, wrapping
/// [`plurality::serve::Server`]. Blocks until a graceful drain
/// (`POST /admin/drain`) completes.
fn cmd_serve(args: &Args) -> Result<ExitCode, String> {
    let config = ServeConfig {
        addr: args.get_str("addr", "127.0.0.1:8080"),
        workers: args.get_u64("workers", 2)? as usize,
        queue_capacity: args.get_u64("queue", 64)? as usize,
        cache_bytes: (args.get_u64("cache-mb", 32)? as usize) << 20,
        deadline: Duration::from_secs(args.get_u64("deadline-secs", 30)?),
        ..ServeConfig::default()
    };
    if config.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if config.queue_capacity == 0 || config.cache_bytes == 0 {
        return Err("--queue and --cache-mb must be at least 1".to_string());
    }
    let server = Server::start(config.clone())
        .map_err(|e| format!("could not bind {}: {e}", config.addr))?;
    println!(
        "plurality serve: listening on http://{} ({} workers, queue {}, cache {} MiB)",
        server.addr(),
        config.workers,
        config.queue_capacity,
        config.cache_bytes >> 20,
    );
    println!("endpoints: /run?spec=…&seed=…  /healthz  /metrics  /stats  POST /admin/drain");
    server.join();
    println!("plurality serve: drained, exiting");
    Ok(ExitCode::SUCCESS)
}

const USAGE: &str = "usage:
  plurality --spec \"PROTOCOL?key=value&key=value…\"
  plurality --list                        (registered protocols and their parameters)
  plurality run --protocol PROTOCOL [--key value …]
                [--trace-out FILE [--trace-format jsonl|chrome]]
  plurality run --spec \"…\" [--trace-out FILE [--trace-format jsonl|chrome]]
  plurality serve [--addr HOST:PORT] [--workers N] [--queue Q] [--cache-mb M]
                  [--deadline-secs S]
  plurality time-unit [--latency SPEC] [--pattern single|multi] [--samples M] [--seed S]
  plurality check --protocol leader|cluster [--n N] [--k K] [--topology complete|ring]
                  [--cap G] [--sizes A,B…] [--max-states M] [--order bfs|dfs] [--trace]
                  [--expect-pocket reachable|unreachable]
                  [--expect-conflict reachable|unreachable]

`check` explores EVERY schedule of a small instance (n <= 8) and verifies
the safety properties of the leader / cluster state machines; --trace
prints minimal counterexample or witness schedules. Exit status is
nonzero on any violation, truncation, or --expect-* mismatch.

`run --trace-out FILE` writes the structured run trace (phase
transitions, generation births, window crossings, scenario effects) as
JSONL, or as Chrome trace-event JSON with --trace-format chrome (load
it in chrome://tracing or Perfetto). Tracing never perturbs the run:
the RNG stream is byte-identical with the knob on or off.

`run` flags and `--spec` parameters are the same grammar. Common keys:
  n, k, alpha, epsilon, seed, record, topology, scenario, max
protocol-specific keys (see --list): gamma, mode (sync/urn);
  latency, c1 (leader); latency, c1, participation, leader-prob (cluster);
  a (population protocols)

latency SPEC:  exp:RATE | erlang:SHAPE:RATE | weibull:SHAPE:MEAN | uniform:LO:HI | det:VALUE
topology SPEC: complete | ring | torus | er:P | regular:D | pa:M
scenario SPEC: ACTION@TIME[..UNTIL] joined by ';' — e.g. \"crash:0.2@5;burst-loss:0.5@8..12\"
               actions: crash:F | recover:F | join:F | corrupt:F[:oblivious|:adaptive]
                        | burst-loss:P (window req.) | latency:FACTOR | rewire:TOPOLOGY
               run-long, no @TIME, leader and cluster: signal-loss:P | stragglers:F[:RATE]";

/// Gives the boolean `--trace` flag an implicit value so it fits the
/// parser's strict `--key value` grammar.
fn expand_boolean_flags(raw: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(raw.len() + 1);
    let mut iter = raw.iter().peekable();
    while let Some(tok) = iter.next() {
        out.push(tok.clone());
        let next_is_flag = match iter.peek() {
            None => true,
            Some(next) => next.starts_with("--"),
        };
        if tok == "--trace" && next_is_flag {
            out.push("1".to_string());
        }
    }
    out
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--spec` and `--list` work as top-level commands: the facade makes
    // a whole run a single string, so no subcommand is needed.
    let result = match raw.first().map(String::as_str) {
        Some("--spec") => match raw.get(1) {
            Some(spec) if raw.len() == 2 => cmd_spec(spec, None),
            _ => Err("--spec takes exactly one argument (the spec string)".to_string()),
        },
        Some("--list") | Some("list") => cmd_list(),
        _ => match parse_args(&expand_boolean_flags(&raw)) {
            Err(e) => Err(e),
            Ok(args) => match args.command.as_str() {
                "run" => cmd_run(&args),
                "serve" => cmd_serve(&args),
                "time-unit" => cmd_time_unit(&args),
                "check" => cmd_check(&args),
                "help" | "--help" | "-h" => {
                    println!("{USAGE}");
                    Ok(ExitCode::SUCCESS)
                }
                other => Err(format!("unknown subcommand `{other}`")),
            },
        },
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality::scenario::Scenario;
    use plurality::topology::Topology;

    fn raw(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let args = parse_args(&raw(&["run", "--n", "100", "--protocol", "leader"])).unwrap();
        assert_eq!(args.command, "run");
        assert_eq!(args.get_u64("n", 0).unwrap(), 100);
        assert_eq!(args.get_str("protocol", "sync"), "leader");
        assert_eq!(args.get_str("alpha", "2.0"), "2.0"); // default
    }

    #[test]
    fn rejects_missing_value_and_bad_flag() {
        assert!(parse_args(&raw(&["run", "--n"])).is_err());
        assert!(parse_args(&raw(&["run", "n", "5"])).is_err());
        assert!(parse_args(&raw(&[])).is_err());
    }

    #[test]
    fn rejects_non_numeric_values() {
        let args = parse_args(&raw(&["run", "--samples", "many"])).unwrap();
        assert!(args.get_u64("samples", 0).is_err());
    }

    #[test]
    fn bare_trace_flag_gets_an_implicit_value() {
        let args = parse_args(&expand_boolean_flags(&raw(&[
            "check", "--trace", "--n", "4",
        ])))
        .unwrap();
        assert!(args.options.contains_key("trace"));
        assert_eq!(args.get_u64("n", 0).unwrap(), 4);
        // Trailing position works too.
        let args = parse_args(&expand_boolean_flags(&raw(&["check", "--trace"]))).unwrap();
        assert!(args.options.contains_key("trace"));
        // Other flags still require explicit values.
        assert!(parse_args(&expand_boolean_flags(&raw(&["check", "--n"]))).is_err());
    }

    #[test]
    fn trace_out_flags_parse_with_a_jsonl_default() {
        let args = parse_args(&raw(&["run", "--spec", "sync", "--trace-out", "t.jsonl"])).unwrap();
        let out = parse_trace_out(&args).unwrap().unwrap();
        assert_eq!(
            (out.path.as_str(), out.format),
            ("t.jsonl", TraceFormat::Jsonl)
        );

        let args = parse_args(&raw(&[
            "run",
            "--trace-out",
            "t.json",
            "--trace-format",
            "chrome",
        ]))
        .unwrap();
        let out = parse_trace_out(&args).unwrap().unwrap();
        assert_eq!(out.format, TraceFormat::Chrome);

        // No trace flags → no trace.
        let args = parse_args(&raw(&["run", "--protocol", "sync"])).unwrap();
        assert!(parse_trace_out(&args).unwrap().is_none());
    }

    #[test]
    fn trace_format_alone_and_bad_values_are_rejected() {
        let args = parse_args(&raw(&["run", "--trace-format", "chrome"])).unwrap();
        assert!(parse_trace_out(&args)
            .unwrap_err()
            .contains("--trace-out FILE"));

        let args = parse_args(&raw(&["run", "--trace-out", "t", "--trace-format", "xml"])).unwrap();
        assert!(parse_trace_out(&args).unwrap_err().contains("xml"));

        let args = parse_args(&raw(&["run", "--trace-out", ""])).unwrap();
        assert!(parse_trace_out(&args).unwrap_err().contains("empty"));
    }

    #[test]
    fn expectations_parse_and_reject() {
        assert_eq!(parse_expectation("expect-pocket", "reachable"), Ok(true));
        assert_eq!(parse_expectation("expect-pocket", "unreachable"), Ok(false));
        assert!(parse_expectation("expect-pocket", "maybe").is_err());
    }

    #[test]
    fn topology_specs_share_the_library_grammar() {
        assert_eq!(Topology::parse_spec("complete"), Ok(Topology::Complete));
        assert_eq!(
            Topology::parse_spec("er:0.01"),
            Ok(Topology::ErdosRenyi { p: 0.01 })
        );
        assert!(Topology::parse_spec("hypercube").is_err());
    }

    #[test]
    fn straggler_specs_share_the_facade_grammar() {
        let stragglers = |spec: &str| Scenario::parse(spec).map(|s| s.stragglers());
        assert_eq!(stragglers("stragglers:0.2"), Ok(Some((0.2, 0.1))));
        assert_eq!(stragglers("stragglers:0.2:0.5"), Ok(Some((0.2, 0.5))));
        assert!(stragglers("stragglers:x").is_err());
        assert!(stragglers("stragglers:0.2:y").is_err());
    }

    #[test]
    fn latency_specs_share_the_library_grammar() {
        assert!(Latency::parse_spec("exp:2.0").is_ok());
        assert!(Latency::parse_spec("erlang:3:1.5").is_ok());
        assert!(Latency::parse_spec("weibull:1.5:1.0").is_ok());
        assert!(Latency::parse_spec("uniform:0:2").is_ok());
        assert!(Latency::parse_spec("det:1").is_ok());
        assert!(Latency::parse_spec("exp").is_err());
        assert!(Latency::parse_spec("cauchy:1").is_err());
        assert!(Latency::parse_spec("exp:-1").is_err());
        assert!(Latency::parse_spec("erlang:x:1").is_err());
    }
}
