//! Stable wire text serialization of [`Report`] — the format
//! `plurality-serve` puts on the network and the `(spec, seed) → Report`
//! cache stores.
//!
//! ## Format (`plurality-report/1`)
//!
//! A report renders as UTF-8 text, one `key=value` pair per line, LF
//! line endings, no trailing whitespace:
//!
//! ```text
//! plurality-report/1
//! protocol=sync
//! n=400
//! k=2
//! initial_winner=0
//! initial_bias=3.0150753768844223
//! final_counts=400,0
//! epsilon_time=6
//! consensus_time=9
//! duration=9
//! generations=2
//! generation.0=1,3,9.5,3.0150753768844223,0.105,0.5537...
//! generation.1=2,6,112,9.5,0.1125,0.8618...
//! telemetry=sync
//! sync.rounds=9
//! …
//! ```
//!
//! The keys come in three fixed blocks: the header (`plurality-report/1`
//! and `protocol`), the shared [`RunOutcome`] fields, and one
//! telemetry block per engine family whose keys are prefixed with the
//! [`Telemetry`] variant name (`sync.` / `urn.` / `leader.` /
//! `cluster.` / `gossip.` / `population.`, plus `leader-mf.` /
//! `gossip-mf.` / `population-mf.` for the mean-field aggregate
//! engines). Within a block, key order is fixed; every field
//! of the in-memory report is rendered, so nothing is lost on the wire.
//!
//! ## Stability and determinism
//!
//! Rendering is a pure function of the report value: two equal
//! [`Report`]s always produce byte-identical text. Floating-point values
//! use Rust's shortest-round-trip `Display`, so the text recovers the
//! exact `f64` bit pattern when parsed back (infinite biases render as
//! `inf`). Absent optionals render as `none`; empty lists render as an
//! explicit `0` count (for indexed records) or an empty value (for
//! inline lists). This determinism is what makes the serve-side report
//! cache *sound* rather than heuristic: a fixed `(spec, seed)` run is
//! bitwise-reproducible, so its serialized bytes are too — asserted
//! end-to-end by `crates/serve/tests/cache_soundness.rs`.

use crate::report::{dynamics_protocol_name, population_protocol_name, Report, Telemetry};
use plurality_core::{GenerationBirth, RunOutcome};
use plurality_sim::{EventLog, Series};
use std::fmt::Write as _;

/// The first line of every serialized report; bump the suffix when the
/// format changes incompatibly.
pub const WIRE_HEADER: &str = "plurality-report/1";

/// Renders `value` with shortest-round-trip `Display` (`inf` /`-inf`
/// for the infinities the bias fields can carry).
fn float(value: f64) -> String {
    format!("{value}")
}

/// Renders an `Option<f64>` as the value or `none`.
fn opt_float(value: Option<f64>) -> String {
    value.map_or_else(|| "none".to_string(), float)
}

/// Appends one `key=value` line.
fn line(out: &mut String, key: &str, value: impl AsRef<str>) {
    out.push_str(key);
    out.push('=');
    out.push_str(value.as_ref());
    out.push('\n');
}

/// Renders a [`Series`] as `name;t,v;t,v;…` (just `name` when empty).
fn series(s: &Series) -> String {
    let mut text = s.name().to_string();
    for (t, v) in s.iter() {
        let _ = write!(text, ";{},{}", float(t), float(v));
    }
    text
}

/// Renders an optional [`Series`] (`none` when absent).
fn opt_series(s: &Option<Series>) -> String {
    s.as_ref().map_or_else(|| "none".to_string(), series)
}

fn outcome_block(out: &mut String, o: &RunOutcome) {
    line(out, "n", o.n.to_string());
    line(out, "k", o.k.to_string());
    line(out, "initial_winner", o.initial_winner.index().to_string());
    line(out, "initial_bias", float(o.initial_bias));
    let counts: Vec<String> = o
        .final_counts
        .as_slice()
        .iter()
        .map(|c| c.to_string())
        .collect();
    line(out, "final_counts", counts.join(","));
    line(out, "epsilon_time", opt_float(o.epsilon_time));
    line(out, "consensus_time", opt_float(o.consensus_time));
    line(out, "duration", float(o.duration));
    line(out, "generations", o.generations.len().to_string());
    for (i, g) in o.generations.iter().enumerate() {
        let GenerationBirth {
            generation,
            time,
            bias,
            parent_bias,
            initial_fraction,
            parent_collision,
        } = g;
        line(
            out,
            &format!("generation.{i}"),
            format!(
                "{generation},{},{},{},{},{}",
                float(*time),
                float(*bias),
                float(*parent_bias),
                float(*initial_fraction),
                float(*parent_collision)
            ),
        );
    }
}

fn telemetry_block(out: &mut String, telemetry: &Telemetry) {
    match telemetry {
        Telemetry::Sync(t) => {
            line(out, "telemetry", "sync");
            line(out, "sync.rounds", t.rounds.to_string());
            line(out, "sync.g_star", t.g_star.to_string());
            let rounds: Vec<String> = t.two_choices_rounds.iter().map(u64::to_string).collect();
            line(out, "sync.two_choices_rounds", rounds.join(","));
            line(
                out,
                "sync.newest_generation_fraction",
                opt_series(&t.newest_generation_fraction),
            );
            line(out, "sync.winner_fraction", opt_series(&t.winner_fraction));
        }
        Telemetry::Urn(t) => {
            line(out, "telemetry", "urn");
            line(out, "urn.rounds", t.rounds.to_string());
            line(out, "urn.g_star", t.g_star.to_string());
        }
        Telemetry::Leader(t) => {
            line(out, "telemetry", "leader");
            line(out, "leader.steps_per_unit", float(t.steps_per_unit));
            line(out, "leader.ticks", t.ticks.to_string());
            line(out, "leader.good_ticks", t.good_ticks.to_string());
            line(
                out,
                "leader.two_choices_promotions",
                t.two_choices_promotions.to_string(),
            );
            line(
                out,
                "leader.propagation_promotions",
                t.propagation_promotions.to_string(),
            );
            line(out, "leader.phases", t.phases.len().to_string());
            for (i, p) in t.phases.iter().enumerate() {
                line(
                    out,
                    &format!("leader.phase.{i}"),
                    format!(
                        "{},{},{},{}",
                        p.generation,
                        float(p.allowed_at),
                        opt_float(p.first_promotion_at),
                        opt_float(p.propagation_at)
                    ),
                );
            }
            line(
                out,
                "leader.winner_fraction",
                opt_series(&t.winner_fraction),
            );
            let states = t.final_node_states.as_ref().map_or_else(
                || "none".to_string(),
                |states| {
                    states
                        .iter()
                        .map(|(g, c)| format!("{g},{c}"))
                        .collect::<Vec<_>>()
                        .join(";")
                },
            );
            line(out, "leader.final_node_states", states);
        }
        Telemetry::Cluster(t) => {
            line(out, "telemetry", "cluster");
            line(out, "cluster.steps_per_unit", float(t.steps_per_unit));
            line(out, "cluster.cluster_count", t.cluster_count.to_string());
            line(
                out,
                "cluster.participating_clusters",
                t.participating_clusters.to_string(),
            );
            line(
                out,
                "cluster.participating_fraction",
                float(t.participating_fraction),
            );
            line(
                out,
                "cluster.clustered_fraction",
                float(t.clustered_fraction),
            );
            line(
                out,
                "cluster.first_switch_time",
                opt_float(t.first_switch_time),
            );
            line(
                out,
                "cluster.last_switch_time",
                opt_float(t.last_switch_time),
            );
            line(out, "cluster.ticks", t.ticks.to_string());
            line(out, "cluster.finished_fraction", float(t.finished_fraction));
            phase_log_block(out, &t.phase_log);
        }
        Telemetry::Gossip(t) => {
            line(out, "telemetry", "gossip");
            line(out, "gossip.dynamics", dynamics_protocol_name(t.dynamics));
            line(out, "gossip.rounds", t.rounds.to_string());
            line(out, "gossip.peak_undecided", float(t.peak_undecided));
        }
        Telemetry::Population(t) => {
            line(out, "telemetry", "population");
            line(
                out,
                "population.protocol",
                population_protocol_name(t.protocol),
            );
            line(out, "population.interactions", t.interactions.to_string());
            line(
                out,
                "population.converged",
                if t.converged { "1" } else { "0" },
            );
        }
        Telemetry::LeaderMf(t) => {
            line(out, "telemetry", "leader-mf");
            line(out, "leader-mf.sub_steps", t.sub_steps.to_string());
            line(out, "leader-mf.steps_per_unit", float(t.steps_per_unit));
            line(
                out,
                "leader-mf.leader_generation",
                t.leader_generation.to_string(),
            );
            line(
                out,
                "leader-mf.leader_terminal",
                if t.leader_terminal { "1" } else { "0" },
            );
        }
        Telemetry::GossipMf(t) => {
            line(out, "telemetry", "gossip-mf");
            line(
                out,
                "gossip-mf.dynamics",
                dynamics_protocol_name(t.dynamics),
            );
            line(out, "gossip-mf.rounds", t.rounds.to_string());
            line(out, "gossip-mf.peak_undecided", float(t.peak_undecided));
        }
        Telemetry::PopulationMf(t) => {
            line(out, "telemetry", "population-mf");
            line(
                out,
                "population-mf.interactions",
                t.interactions.to_string(),
            );
            line(
                out,
                "population-mf.effective_interactions",
                t.effective_interactions.to_string(),
            );
            line(out, "population-mf.batches", t.batches.to_string());
            line(
                out,
                "population-mf.converged",
                if t.converged { "1" } else { "0" },
            );
        }
    }
}

fn phase_log_block(out: &mut String, log: &EventLog<plurality_core::cluster::PhaseLogEntry>) {
    line(out, "cluster.phase_log", log.len().to_string());
    for (i, (time, entry)) in log.iter().enumerate() {
        line(
            out,
            &format!("cluster.phase_log.{i}"),
            format!(
                "{},{},{},{},{}",
                float(*time),
                entry.cluster,
                entry.generation,
                entry.phase.as_state(),
                u8::from(entry.organic)
            ),
        );
    }
}

/// Serializes a [`Report`] to the `plurality-report/1` wire text.
///
/// Every field of the report is rendered; rendering is a pure function
/// of the value, so equal reports produce byte-identical text (the
/// property the serve-side cache-soundness tests pin down).
///
/// # Examples
///
/// ```
/// let report = plurality_api::run_spec("sync?n=400&k=2&alpha=3.0&seed=1").unwrap();
/// let text = plurality_api::to_wire(&report);
/// assert!(text.starts_with("plurality-report/1\nprotocol=sync\n"));
/// assert_eq!(text, plurality_api::to_wire(&report)); // deterministic
/// ```
pub fn to_wire(report: &Report) -> String {
    let mut out = String::with_capacity(512);
    out.push_str(WIRE_HEADER);
    out.push('\n');
    line(&mut out, "protocol", report.protocol);
    outcome_block(&mut out, &report.outcome);
    telemetry_block(&mut out, &report.telemetry);
    out
}

impl Report {
    /// The report's `plurality-report/1` wire text — see [`to_wire`].
    pub fn wire_text(&self) -> String {
        to_wire(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::run_spec;

    #[test]
    fn header_protocol_and_outcome_keys_present() {
        let report = run_spec("sync?n=400&k=2&alpha=3.0&seed=1").unwrap();
        let text = to_wire(&report);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(WIRE_HEADER));
        assert_eq!(lines.next(), Some("protocol=sync"));
        for key in ["n=400", "k=2", "telemetry=sync"] {
            assert!(
                text.lines().any(|l| l == key),
                "missing `{key}` in:\n{text}"
            );
        }
        for prefix in [
            "initial_bias=",
            "final_counts=",
            "duration=",
            "sync.rounds=",
        ] {
            assert!(
                text.lines().any(|l| l.starts_with(prefix)),
                "missing `{prefix}…` in:\n{text}"
            );
        }
    }

    #[test]
    fn equal_reports_serialize_to_identical_bytes() {
        let a = run_spec("leader?n=250&k=2&alpha=3.0&seed=7&c1=9.3").unwrap();
        let b = run_spec("leader?n=250&k=2&alpha=3.0&seed=7&c1=9.3").unwrap();
        assert_eq!(a, b);
        assert_eq!(to_wire(&a), to_wire(&b));
        let c = run_spec("leader?n=250&k=2&alpha=3.0&seed=8&c1=9.3").unwrap();
        assert_ne!(to_wire(&a), to_wire(&c));
    }

    #[test]
    fn every_family_serializes_with_its_telemetry_block() {
        for (spec, block) in [
            ("sync?n=400&k=2&alpha=3.0&seed=1", "telemetry=sync"),
            ("urn?n=50000&k=4&alpha=2.0&seed=1", "telemetry=urn"),
            (
                "leader?n=250&k=2&alpha=3.0&seed=1&c1=9.3",
                "telemetry=leader",
            ),
            (
                "cluster?n=250&k=2&alpha=3.0&seed=1&c1=12.0",
                "telemetry=cluster",
            ),
            ("3-majority?n=400&k=2&alpha=3.0&seed=1", "telemetry=gossip"),
            (
                "approx-majority?n=400&alpha=3.0&seed=1",
                "telemetry=population",
            ),
            ("sync-mf?n=1e6&k=4&alpha=2.0&seed=1", "telemetry=urn"),
            (
                "leader-mf?n=100000&k=2&alpha=3.0&seed=1",
                "telemetry=leader-mf",
            ),
            (
                "majority3-mf?n=1e6&k=4&alpha=2.0&seed=1",
                "telemetry=gossip-mf",
            ),
            (
                "undecided-mf?n=1e6&k=4&alpha=2.0&seed=1",
                "telemetry=gossip-mf",
            ),
            (
                "population-mf?n=1e6&alpha=3.0&seed=1",
                "telemetry=population-mf",
            ),
        ] {
            let report = run_spec(spec).unwrap();
            let text = to_wire(&report);
            assert!(
                text.lines().any(|l| l == block),
                "{spec}: missing `{block}`"
            );
            assert!(text.ends_with('\n') && !text.contains("\n\n"), "{spec}");
        }
    }

    #[test]
    fn optionals_and_floats_render_stably() {
        assert_eq!(opt_float(None), "none");
        assert_eq!(opt_float(Some(1.5)), "1.5");
        assert_eq!(float(f64::INFINITY), "inf");
        // Shortest-round-trip Display recovers the exact bit pattern.
        let x = 0.1_f64 + 0.2_f64;
        assert_eq!(float(x).parse::<f64>().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn one_sided_population_starts_report_infinite_bias() {
        // An empty runner-up means α₀ = ∞, as for every other engine.
        for spec in [
            "exact-majority?n=100&a=0&seed=1",
            "exact-majority?n=100&a=100&seed=1",
            "approx-majority?n=100&a=100&seed=1",
            "population-mf?n=1000000&a=0&seed=1",
            "population-mf?n=1000000&a=1000000&seed=1",
        ] {
            let text = to_wire(&run_spec(spec).unwrap());
            assert!(
                text.lines().any(|l| l == "initial_bias=inf"),
                "{spec}:\n{text}"
            );
        }
    }
}
