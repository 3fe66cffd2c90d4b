//! Integration tests for the `plurality` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn plurality(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_plurality"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn plurality_env(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_plurality"))
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .expect("binary runs")
}

/// A per-test scratch path that multiple test binaries can't collide on.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("plurality-cli-{}-{name}", std::process::id()))
}

#[test]
fn run_sync_small_instance() {
    let out = plurality(&[
        "run",
        "--protocol",
        "sync",
        "--n",
        "800",
        "--k",
        "2",
        "--alpha",
        "3.0",
        "--seed",
        "1",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("synchronous"));
    assert!(stdout.contains("initial plurality preserved: true"));
}

#[test]
fn run_baseline_dynamics() {
    let out = plurality(&[
        "run",
        "--protocol",
        "3-majority",
        "--n",
        "600",
        "--k",
        "3",
        "--alpha",
        "3.0",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3-majority"));
    assert!(stdout.contains("rounds:"));
}

#[test]
fn time_unit_reports_c1_and_bounds() {
    let out = plurality(&["time-unit", "--latency", "exp:1.0", "--samples", "20000"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("steps per time unit"));
    assert!(stdout.contains("majorant"));
}

#[test]
fn unknown_protocol_fails_with_usage() {
    let out = plurality(&["run", "--protocol", "paxos"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown protocol"));
    assert!(stderr.contains("usage:"));
}

#[test]
fn missing_subcommand_fails() {
    let out = plurality(&[]);
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = plurality(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn run_sync_with_scenario_spec() {
    let out = plurality(&[
        "run",
        "--protocol",
        "sync",
        "--n",
        "800",
        "--k",
        "2",
        "--alpha",
        "3.0",
        "--seed",
        "2",
        "--scenario",
        "crash:0.2@2;recover:1@5;corrupt:0.05:adaptive@3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("synchronous"));
}

#[test]
fn bad_scenario_spec_fails_with_event_context() {
    let out = plurality(&[
        "run",
        "--protocol",
        "sync",
        "--scenario",
        "crash:0.2@2;burst-loss:0.5@8",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("event #2"), "stderr: {stderr}");
    assert!(stderr.contains("window"), "stderr: {stderr}");
}

#[test]
fn scenario_rewire_is_validated_against_n() {
    // A 64-regular rewire cannot be built on 20 nodes; must fail before
    // the run starts, not panic mid-run.
    let out = plurality(&[
        "run",
        "--protocol",
        "sync",
        "--n",
        "20",
        "--scenario",
        "rewire:regular:64@5",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("regular"), "stderr: {stderr}");
}

#[test]
fn run_leader_with_loss_and_stragglers() {
    let out = plurality(&[
        "run",
        "--protocol",
        "leader",
        "--n",
        "600",
        "--k",
        "2",
        "--alpha",
        "3.0",
        "--seed",
        "3",
        "--scenario",
        "signal-loss:0.2;stragglers:0.1:0.5",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("single-leader"));
}

#[test]
fn run_cluster_with_loss_and_stragglers() {
    let out = plurality(&[
        "run",
        "--protocol",
        "cluster",
        "--n",
        "600",
        "--k",
        "2",
        "--alpha",
        "3.0",
        "--seed",
        "3",
        "--scenario",
        "signal-loss:0.2;stragglers:0.1:0.5",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("multi-leader"));
}

#[test]
fn loss_and_stragglers_are_rejected_for_non_async_protocols() {
    let out = plurality(&["run", "--protocol", "sync", "--scenario", "signal-loss:0.2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("run `leader` or `cluster`"),
        "stderr: {stderr}"
    );
    // The error teaches the all-protocol equivalent.
    assert!(stderr.contains("burst-loss"), "stderr: {stderr}");

    let out = plurality(&["run", "--protocol", "sync", "--scenario", "stragglers:0.2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("run `leader` or `cluster`"),
        "stderr: {stderr}"
    );

    // The old leader flags are gone.
    let out = plurality(&["run", "--protocol", "leader", "--loss", "0.2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`loss` is not a parameter"),
        "stderr: {stderr}"
    );
}

#[test]
fn out_of_range_loss_and_stragglers_are_cli_errors_not_panics() {
    let out = plurality(&[
        "run",
        "--protocol",
        "leader",
        "--scenario",
        "signal-loss:1.5",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("signal-loss probability must lie in [0, 1]"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    let out = plurality(&[
        "run",
        "--protocol",
        "leader",
        "--scenario",
        "stragglers:1.5",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("straggler fraction"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    let out = plurality(&[
        "run",
        "--protocol",
        "leader",
        "--scenario",
        "stragglers:0.2:0",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("straggler rate"));

    let out = plurality(&[
        "run",
        "--protocol",
        "leader",
        "--scenario",
        "signal-loss:0.2@5",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("takes no `@TIME`"), "stderr: {stderr}");
}

#[test]
fn unknown_protocol_wins_over_flag_compatibility_advice() {
    // A typo'd protocol must get the unknown-protocol error, not advice
    // about which scenario actions the (nonexistent) protocol supports.
    let out = plurality(&["run", "--protocol", "sink", "--scenario", "signal-loss:0.2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown protocol"), "stderr: {stderr}");
    assert!(
        !stderr.contains("run `leader` or `cluster`"),
        "stderr: {stderr}"
    );
}

#[test]
fn spec_runs_accept_every_registered_protocol() {
    // `plurality --spec <s>` must work for every protocol `--list`
    // shows. Event-driven engines get an explicit C1 so the smoke stays
    // fast.
    for (protocol, extra) in [
        ("sync", ""),
        ("urn", ""),
        ("leader", "&c1=9.3"),
        ("cluster", "&c1=12.0"),
        ("pull", "&max=50"),
        ("two-choices", ""),
        ("3-majority", ""),
        ("undecided", ""),
        ("approx-majority", ""),
        ("exact-majority", ""),
    ] {
        let spec = format!("{protocol}?n=600&k=2&alpha=3.0&seed=1{extra}");
        let out = plurality(&["--spec", &spec]);
        assert!(
            out.status.success(),
            "`{spec}` failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("protocol:"), "`{spec}`: {stdout}");
    }
}

#[test]
fn list_names_every_protocol_the_spec_grammar_accepts() {
    let out = plurality(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "sync",
        "urn",
        "leader",
        "cluster",
        "pull",
        "two-choices",
        "3-majority",
        "undecided",
        "approx-majority",
        "exact-majority",
    ] {
        assert!(stdout.contains(name), "missing `{name}` in: {stdout}");
    }
    // Common parameters are documented too.
    assert!(stdout.contains("topology"));
    assert!(stdout.contains("scenario"));
}

#[test]
fn spec_and_flags_produce_identical_output() {
    let by_flags = plurality(&[
        "run",
        "--protocol",
        "sync",
        "--n",
        "800",
        "--k",
        "2",
        "--alpha",
        "3.0",
        "--seed",
        "1",
    ]);
    let by_spec = plurality(&["--spec", "sync?n=800&k=2&alpha=3.0&seed=1"]);
    assert!(by_flags.status.success() && by_spec.status.success());
    assert_eq!(by_flags.stdout, by_spec.stdout);
}

/// Minimal structural validation of the Chrome trace-event format:
/// a `traceEvents` array of objects each carrying the keys
/// `chrome://tracing` / Perfetto require for instant events.
fn assert_chrome_trace_schema(text: &str) {
    assert!(text.starts_with("{\"traceEvents\":["), "envelope: {text}");
    assert!(text.trim_end().ends_with("]}"), "envelope: {text}");
    let events: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with('{') && l.contains("\"ph\""))
        .collect();
    assert!(!events.is_empty(), "a leader run must emit events: {text}");
    for ev in events {
        for key in [
            "\"name\":",
            "\"cat\":",
            "\"ph\":\"i\"",
            "\"pid\":",
            "\"tid\":",
            "\"args\":",
        ] {
            assert!(ev.contains(key), "event missing {key}: {ev}");
        }
        // `ts` must be an integer (microseconds), not a float.
        let ts = ev
            .split("\"ts\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .expect("ts field");
        assert!(
            ts.parse::<u64>().is_ok(),
            "ts `{ts}` is not an integer: {ev}"
        );
    }
}

#[test]
fn trace_out_chrome_writes_a_loadable_trace_file() {
    let path = scratch("chrome.json");
    let out = plurality(&[
        "run",
        "--spec",
        "leader?n=256&k=2&seed=1&c1=9.3",
        "--trace-out",
        path.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace:"), "{stdout}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    assert_chrome_trace_schema(&text);
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_out_jsonl_is_identical_across_thread_counts() {
    // The trace is part of the deterministic run contract: the same
    // seeded spec must produce byte-identical JSONL no matter how many
    // worker threads the process is allowed.
    let spec = "leader?n=256&k=2&seed=1&c1=9.3";
    let mut bodies = Vec::new();
    for threads in ["1", "4"] {
        let path = scratch(&format!("jsonl-t{threads}"));
        let out = plurality_env(
            &["run", "--spec", spec, "--trace-out", path.to_str().unwrap()],
            &[("PLURALITY_THREADS", threads)],
        );
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        bodies.push(std::fs::read(&path).expect("trace file written"));
        std::fs::remove_file(&path).ok();
    }
    assert!(!bodies[0].is_empty(), "leader trace must not be empty");
    assert_eq!(
        bodies[0], bodies[1],
        "trace bytes differ across PLURALITY_THREADS"
    );
    // Every line is a JSON object with the stable field set.
    let text = String::from_utf8(bodies[0].clone()).unwrap();
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(
            line.contains("\"t\":") && line.contains("\"event\":"),
            "{line}"
        );
    }
}

#[test]
fn trace_flags_ride_along_with_spec_but_parameters_do_not() {
    // Output options are exempt from the self-contained rule…
    let path = scratch("ridealong.jsonl");
    let out = plurality(&[
        "run",
        "--spec",
        "sync?n=400&k=2&alpha=3.0&seed=1",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&path).ok();
    // …but run parameters still are not.
    let out = plurality(&["run", "--spec", "sync?n=400", "--seed", "2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("self-contained"), "stderr: {stderr}");

    // --trace-format without a destination is a teaching error.
    let out = plurality(&["run", "--spec", "sync?n=400", "--trace-format", "chrome"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace-out"));
}

#[test]
fn tracing_does_not_change_the_printed_report() {
    let spec = "cluster?n=400&k=2&alpha=3.0&seed=9&c1=12.0";
    let plain = plurality(&["run", "--spec", spec]);
    let path = scratch("report-invariance.jsonl");
    let traced = plurality(&["run", "--spec", spec, "--trace-out", path.to_str().unwrap()]);
    assert!(plain.status.success() && traced.status.success());
    std::fs::remove_file(&path).ok();
    let plain = String::from_utf8_lossy(&plain.stdout);
    let traced = String::from_utf8_lossy(&traced.stdout);
    // The traced run prints one extra `trace:` line; everything else is
    // byte-identical.
    let traced_without: Vec<&str> = traced
        .lines()
        .filter(|l| !l.starts_with("trace:"))
        .collect();
    assert_eq!(plain.lines().collect::<Vec<_>>(), traced_without);
    assert!(traced.lines().any(|l| l.starts_with("trace:")), "{traced}");
}

#[test]
fn spec_errors_teach_the_valid_keys() {
    let out = plurality(&["--spec", "leader?gamma=0.4"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("is not a parameter"), "stderr: {stderr}");
    assert!(stderr.contains("leader-specific"), "stderr: {stderr}");
}

#[test]
fn urn_rejects_topology_with_a_teaching_error() {
    let out = plurality(&["--spec", "urn?topology=ring"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mean-field"), "stderr: {stderr}");
    assert!(stderr.contains("sync"), "stderr: {stderr}");
}

#[test]
fn empty_scenario_selects_the_default_but_other_empty_values_error() {
    // The historical `--scenario ""` idiom: an explicit empty scenario
    // is the same as not passing the flag at all…
    let explicit = plurality(&[
        "run",
        "--protocol",
        "sync",
        "--n",
        "800",
        "--seed",
        "1",
        "--scenario",
        "",
    ]);
    let implicit = plurality(&["run", "--protocol", "sync", "--n", "800", "--seed", "1"]);
    assert!(
        explicit.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&explicit.stderr)
    );
    assert_eq!(explicit.stdout, implicit.stdout);
    // …but an empty value anywhere else (an unset shell variable, say)
    // must fail loudly instead of silently running with the default.
    for flag in ["n", "alpha", "topology", "seed"] {
        let out = plurality(&["run", "--protocol", "sync", &format!("--{flag}"), ""]);
        assert!(!out.status.success(), "--{flag} '' was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("empty value"), "stderr: {stderr}");
    }
}

#[test]
fn unknown_flags_get_spec_teaching_errors() {
    // Flags are spec parameters: a typo'd flag is caught by the
    // registry instead of being silently ignored.
    let out = plurality(&["run", "--protocol", "sync", "--gama", "0.4"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`gama`"), "stderr: {stderr}");
    assert!(stderr.contains("sync-specific"), "stderr: {stderr}");
}
