//! `ab_pairs` end to end, with shell scripts standing in for the two
//! perfbench binaries: each prints one canned summary line.

#![cfg(unix)]

use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory of one test, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ab_pairs_{}_{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Self(dir)
    }

    /// Writes an executable stand-in for perfbench that prints `line`.
    fn fake_perfbench(&self, name: &str, line: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(
            &path,
            format!("#!/bin/sh\necho 'warming up'\necho '{line}'\n"),
        )
        .expect("write the stand-in");
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755))
            .expect("make the stand-in executable");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn summary(correct: bool, failed: u64, p50: f64) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": 40, \"failed\": {failed}, \"metrics\": {{\
         \"latency_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}, \
         \"latency_p90_ms\": {{\"value\": 20.25, \"unit\": \"ms\"}}, \
         \"throughput_per_s\": {{\"value\": 93.5, \"unit\": \"1/s\"}}, \
         \"setup_s\": {{\"value\": 0.0202, \"unit\": \"s\"}}}}}}"
    )
}

fn ab_pairs(parent: &Path, change: &Path, seeds: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ab_pairs"))
        .args(["--parent".as_ref(), parent.as_os_str()])
        .args(["--change".as_ref(), change.as_os_str()])
        .args([
            "--workload",
            "async-complete",
            "--seeds",
            seeds,
            "--seconds",
            "1",
        ])
        .output()
        .expect("run ab_pairs")
}

#[test]
fn a_faster_change_passes_the_rule_on_every_latency_pair() {
    let scratch = Scratch::new("faster");
    let parent = scratch.fake_perfbench("slow", &summary(true, 0, 9.0));
    let change = scratch.fake_perfbench("fast", &summary(true, 0, 8.0));
    let out = ab_pairs(&parent, &change, "901-910");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let p50 = stdout
        .lines()
        .find(|l| l.starts_with("latency_p50_ms "))
        .expect("a latency_p50_ms row");
    assert!(p50.contains("10/10") && p50.ends_with("holds"), "{p50}");
    // Equal values: every pair a tie.
    let p90 = stdout
        .lines()
        .find(|l| l.starts_with("latency_p90_ms "))
        .expect("a latency_p90_ms row");
    assert!(p90.contains("0/10") && p90.ends_with("fails"), "{p90}");
    assert_eq!(stdout.matches("(parent first)").count(), 5);
    assert_eq!(stdout.matches("(change first)").count(), 5);
}

#[test]
fn a_refused_run_exits_non_zero() {
    let scratch = Scratch::new("refused");
    let good = scratch.fake_perfbench("good", &summary(true, 0, 9.0));
    for (name, line) in [
        ("incorrect", summary(false, 0, 8.0)),
        ("failing", summary(true, 3, 8.0)),
    ] {
        let bad = scratch.fake_perfbench(name, &line);
        let out = ab_pairs(&good, &bad, "1-2");
        assert_eq!(out.status.code(), Some(1), "{name}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("ab_pairs: "), "{name}: {stderr}");
    }
}
