//! **ab_pairs** — interleaved parent/change runs of the end-to-end
//! benchmark, with the claim rule applied.
//!
//! Takes two built `perfbench` binaries (the parent commit's and the
//! change's), a workload, a seed range and a run length. For each seed
//! it runs one pair, one process at a time: the parent first on even
//! pairs, the change first on odd ones, so drift in the machine's speed
//! falls on both sides alike. Each run is
//! `<binary> --workload W --seed N --seconds S --trace 0`, and its last
//! stdout line is perfbench's JSON summary.
//!
//! For each end-to-end metric it prints each side's median and
//! quartiles, the change's win count (ties count for neither side) and
//! whether the claim rule holds: the change wins at least nine tenths of
//! the pairs, and its median beats the parent's by more than the
//! parent's interquartile range. Quartiles are nearest-rank: the `q`
//! quartile of `n` sorted values is the `⌈q·n⌉`-th. The median is the
//! middle value, or the mean of the two middle ones.
//!
//! A run that exits non-zero, reports `"correct": false` or
//! `"failed"` above 0, or lacks an end-to-end metric refuses the whole
//! comparison: the command stops and exits 1.
//!
//! Usage (from the repository root):
//!
//! ```sh
//! cargo build --release --offline --manifest-path perfbench/Cargo.toml
//! cp perfbench/target/release/plurality-perfbench /tmp/change
//! # ... build the parent commit's perfbench the same way into /tmp/parent
//! cargo run --release --offline -p plurality-bench --bin ab_pairs -- \
//!     --parent /tmp/parent --change /tmp/change \
//!     --workload async-complete --seeds 901-910 --seconds 25
//! ```

use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
ab_pairs: interleaved parent/change perfbench pairs with the claim rule

USAGE:
    ab_pairs --parent <BIN> --change <BIN> --workload <NAME> \\
             --seeds <FIRST>[-<LAST>] --seconds <S>

One pair per seed (inclusive range), sides alternating which runs first.
Exits 1 on a refused run (non-zero exit, \"correct\": false, failed > 0).";

/// The end-to-end metrics `BENCHMARK.json` declares, with whether a
/// higher value is better.
const METRICS: [(&str, bool); 4] = [
    ("latency_p50_ms", false),
    ("latency_p90_ms", false),
    ("throughput_per_s", true),
    ("setup_s", false),
];

/// One run's values of [`METRICS`], in that order.
type Run = [f64; METRICS.len()];

#[derive(Debug)]
struct Args {
    parent: String,
    change: String,
    workload: String,
    seeds: std::ops::RangeInclusive<u64>,
    seconds: f64,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut parent, mut change, mut workload, mut seeds, mut seconds) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--parent" => parent = Some(value),
            "--change" => change = Some(value),
            "--workload" => workload = Some(value),
            "--seeds" => {
                let (first, last) = value.split_once('-').unwrap_or((&value, &value));
                let parse = |s: &str| {
                    s.parse::<u64>()
                        .map_err(|_| format!("bad --seeds {value:?}"))
                };
                let (first, last) = (parse(first)?, parse(last)?);
                if last < first {
                    return Err(format!("--seeds {value:?} is an empty range"));
                }
                seeds = Some(first..=last);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        parent: parent.ok_or("--parent is required")?,
        change: change.ok_or("--change is required")?,
        workload: workload.ok_or("--workload is required")?,
        seeds: seeds.ok_or("--seeds is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
    })
}

/// The raw text after `"key": ` in `line`, up to the next `,` or `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let rest = &line[line.find(&pattern)? + pattern.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Reads perfbench's JSON summary line; a run that is not correct, had
/// failures or lacks a metric is refused.
fn parse_run(line: &str) -> Result<Run, String> {
    match field(line, "correct") {
        Some("true") => {}
        Some(_) => return Err(format!("run not correct: {line}")),
        None => return Err(format!("no \"correct\" field: {line}")),
    }
    match field(line, "failed").map(str::parse::<u64>) {
        Some(Ok(0)) => {}
        Some(Ok(_)) => return Err(format!("run had failures: {line}")),
        _ => return Err(format!("no \"failed\" count: {line}")),
    }
    let mut run = [0.0; METRICS.len()];
    for (value, (name, _)) in run.iter_mut().zip(METRICS) {
        let metric = line
            .find(&format!("\"{name}\": {{"))
            .map(|at| &line[at..])
            .and_then(|rest| field(rest, "value"))
            .ok_or_else(|| format!("no {name} value: {line}"))?;
        *value = metric
            .parse()
            .map_err(|_| format!("bad {name} value {metric:?}"))?;
    }
    Ok(run)
}

/// Runs one side once and parses its last stdout line.
fn run_once(bin: &str, args: &Args, seed: u64) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["--workload", &args.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {bin}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{bin} (seed {seed}) exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().rfind(|l| !l.trim().is_empty()).unwrap_or("");
    parse_run(line).map_err(|e| format!("{bin} (seed {seed}): {e}"))
}

/// Median and nearest-rank quartiles of one side's values.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

fn spread(values: &[f64]) -> Spread {
    assert!(!values.is_empty(), "a spread needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // The ⌈q·n⌉-th smallest value, 1-based.
    let rank = |num: usize| v[(num * n).div_ceil(4).max(1) - 1];
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Spread {
        q1: rank(1),
        median,
        q3: rank(3),
    }
}

/// One metric's comparison over all pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Verdict {
    parent: Spread,
    change: Spread,
    /// Pairs the change won outright.
    wins: usize,
    pairs: usize,
    /// At least 9/10 wins and a median gain wider than the parent's IQR.
    holds: bool,
}

fn verdict(parent: &[f64], change: &[f64], higher_better: bool) -> Verdict {
    assert_eq!(parent.len(), change.len(), "values come in pairs");
    let better = |c: f64, p: f64| if higher_better { c > p } else { c < p };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let (ps, cs) = (spread(parent), spread(change));
    let gain = if higher_better {
        cs.median - ps.median
    } else {
        ps.median - cs.median
    };
    Verdict {
        parent: ps,
        change: cs,
        wins,
        pairs: parent.len(),
        holds: 10 * wins >= 9 * parent.len() && gain > ps.q3 - ps.q1,
    }
}

/// The result table: one row per metric.
fn table(parent: &[Run], change: &[Run]) -> String {
    let mut out = format!(
        "{:<18} {:>36} {:>36} {:>9} {:>7}  rule\n",
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"
    );
    for (i, (name, higher_better)) in METRICS.iter().enumerate() {
        let column = |runs: &[Run]| runs.iter().map(|r| r[i]).collect::<Vec<_>>();
        let v = verdict(&column(parent), &column(change), *higher_better);
        let side = |s: Spread| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
        let pct = 100.0 * (v.change.median - v.parent.median) / v.parent.median;
        out.push_str(&format!(
            "{name:<18} {:>36} {:>36} {pct:>+8.2}% {:>7}  {}\n",
            side(v.parent),
            side(v.change),
            format!("{}/{}", v.wins, v.pairs),
            if v.holds { "holds" } else { "fails" },
        ));
    }
    out
}

fn run(args: &Args) -> Result<String, String> {
    println!(
        "ab_pairs: {}, seeds {}-{}, {} s per run",
        args.workload,
        args.seeds.start(),
        args.seeds.end(),
        args.seconds
    );
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    for (i, seed) in args.seeds.clone().enumerate() {
        let parent_first = i % 2 == 0;
        let (p, c) = if parent_first {
            let p = run_once(&args.parent, args, seed)?;
            (p, run_once(&args.change, args, seed)?)
        } else {
            let c = run_once(&args.change, args, seed)?;
            (run_once(&args.parent, args, seed)?, c)
        };
        let cells: Vec<String> = METRICS
            .iter()
            .enumerate()
            .map(|(m, (name, _))| format!("{name} {} -> {}", p[m], c[m]))
            .collect();
        let first = if parent_first { "parent" } else { "change" };
        println!("seed {seed} ({first} first): {}", cells.join(", "));
        parent.push(p);
        change.push(c);
    }
    Ok(table(&parent, &change))
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ab_pairs: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(correct: bool, failed: u64, p50: f64) -> String {
        format!(
            "{{\"correct\": {correct}, \"attempted\": 40, \"failed\": {failed}, \"metrics\": {{\
             \"latency_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}, \
             \"latency_p90_ms\": {{\"value\": 20.25, \"unit\": \"ms\"}}, \
             \"throughput_per_s\": {{\"value\": 93.5, \"unit\": \"1/s\"}}, \
             \"setup_s\": {{\"value\": 0.0202, \"unit\": \"s\"}}}}}}"
        )
    }

    #[test]
    fn parses_every_end_to_end_metric() {
        assert_eq!(
            parse_run(&line(true, 0, 8.94)),
            Ok([8.94, 20.25, 93.5, 0.0202])
        );
    }

    #[test]
    fn refuses_incorrect_failed_or_incomplete_runs() {
        assert!(parse_run(&line(false, 0, 8.94)).is_err());
        assert!(parse_run(&line(true, 2, 8.94)).is_err());
        let partial = line(true, 0, 8.94).replace("setup_s", "setup");
        assert!(parse_run(&partial).unwrap_err().contains("setup_s"));
        assert!(parse_run("perfbench: no request completed").is_err());
    }

    #[test]
    fn quartiles_are_nearest_rank() {
        // n = 10: Q1 is the 3rd value, Q3 the 8th, the median the mean
        // of the 5th and 6th.
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(
            spread(&v),
            Spread {
                q1: 3.0,
                median: 5.5,
                q3: 8.0
            }
        );
        // n = 4: the 1st and 3rd values; n = 1: the value itself.
        let four = spread(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((four.q1, four.median, four.q3), (1.0, 2.5, 3.0));
        let one = spread(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        // n = 5: the 2nd, 3rd and 4th values.
        let five = spread(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((five.q1, five.median, five.q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = [9.0, 9.0, 9.0, 9.0];
        let v = verdict(&parent, &[8.0, 9.0, 9.0, 10.0], false);
        assert_eq!(v.wins, 1);
        // Identical sides: no wins, and a zero gap is not wider than a
        // zero IQR.
        let same = verdict(&parent, &parent, false);
        assert_eq!((same.wins, same.holds), (0, false));
    }

    #[test]
    fn the_rule_needs_nine_tenths_and_a_gap_wider_than_the_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 9.0 + 0.1 * f64::from(i)).collect();
        // Every pair 1.0 better: parent IQR is 0.5 (9.2 to 9.7).
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert!(verdict(&parent, &change, false).holds);
        // Same gap, but two losses: 8/10 wins fails.
        let mut two_lost = change.clone();
        two_lost[0] = 20.0;
        two_lost[1] = 20.0;
        let v = verdict(&parent, &two_lost, false);
        assert_eq!((v.wins, v.holds), (8, false));
        // 10/10 wins by less than the IQR fails too.
        let close: Vec<f64> = parent.iter().map(|p| p - 0.3).collect();
        let v = verdict(&parent, &close, false);
        assert_eq!((v.wins, v.holds), (10, false));
        // Higher-is-better metrics win upwards.
        let up: Vec<f64> = parent.iter().map(|p| p + 1.0).collect();
        assert!(verdict(&parent, &up, true).holds);
        assert_eq!(verdict(&parent, &up, false).wins, 0);
    }

    #[test]
    fn seeds_are_an_inclusive_range() {
        let args = |seeds: &str| {
            parse_args(
                [
                    "--parent",
                    "a",
                    "--change",
                    "b",
                    "--workload",
                    "w",
                    "--seeds",
                    seeds,
                    "--seconds",
                    "1",
                ]
                .into_iter()
                .map(String::from),
            )
        };
        assert_eq!(args("901-910").unwrap().seeds, 901..=910);
        assert_eq!(args("5").unwrap().seeds, 5..=5);
        assert!(args("9-1").is_err());
        assert!(args("x").is_err());
    }
}
