//! Table-driven coverage of the flat [`Report`] accessors: each one must
//! be `Some` exactly for the telemetry variants it documents, across all
//! ten variants (six per-node plus the four mean-field aggregates), so a
//! new engine (or a refactor of [`Telemetry`]) cannot silently widen or
//! narrow an accessor.

use plurality_api::{run_spec, Report, Telemetry};

/// Which accessors are populated, as one row of the expectation matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    rounds: bool,
    g_star: bool,
    steps_per_unit: bool,
    ticks: bool,
    phases: bool,
    cluster_count: bool,
    interactions: bool,
    peak_undecided: bool,
    winner_fraction: bool,
}

fn observed(report: &Report) -> Row {
    Row {
        rounds: report.rounds().is_some(),
        g_star: report.g_star().is_some(),
        steps_per_unit: report.steps_per_unit().is_some(),
        ticks: report.ticks().is_some(),
        phases: report.phases().is_some(),
        cluster_count: report.cluster_count().is_some(),
        interactions: report.interactions().is_some(),
        peak_undecided: report.peak_undecided().is_some(),
        winner_fraction: report.winner_fraction().is_some(),
    }
}

fn variant_name(report: &Report) -> &'static str {
    match report.telemetry {
        Telemetry::Sync(_) => "Sync",
        Telemetry::Urn(_) => "Urn",
        Telemetry::Leader(_) => "Leader",
        Telemetry::Cluster(_) => "Cluster",
        Telemetry::Gossip(_) => "Gossip",
        Telemetry::Population(_) => "Population",
        Telemetry::LeaderMf(_) => "LeaderMf",
        Telemetry::GossipMf(_) => "GossipMf",
        Telemetry::PopulationMf(_) => "PopulationMf",
    }
}

#[test]
fn every_accessor_matches_its_documented_variants() {
    // One small fixed-seed run per telemetry variant. Sync and leader run
    // at `record=full` so their winner-fraction series exists — the
    // matrix marks the *capability*; the record-level dependence is
    // checked separately below.
    let table: [(&str, &str, Row); 9] = [
        (
            "sync?n=400&k=2&alpha=2&seed=1&record=full",
            "Sync",
            Row {
                rounds: true,
                g_star: true,
                steps_per_unit: false,
                ticks: false,
                phases: false,
                cluster_count: false,
                interactions: false,
                peak_undecided: false,
                winner_fraction: true,
            },
        ),
        (
            "urn?n=400&k=2&alpha=2&seed=1",
            "Urn",
            Row {
                rounds: true,
                g_star: true,
                steps_per_unit: false,
                ticks: false,
                phases: false,
                cluster_count: false,
                interactions: false,
                peak_undecided: false,
                winner_fraction: false,
            },
        ),
        (
            "leader?n=400&k=2&alpha=3&seed=1&max=80&record=full",
            "Leader",
            Row {
                rounds: false,
                g_star: false,
                steps_per_unit: true,
                ticks: true,
                phases: true,
                cluster_count: false,
                interactions: false,
                peak_undecided: false,
                winner_fraction: true,
            },
        ),
        (
            "cluster?n=400&k=2&alpha=3&seed=1&max=80",
            "Cluster",
            Row {
                rounds: false,
                g_star: false,
                steps_per_unit: true,
                ticks: true,
                phases: false,
                cluster_count: true,
                interactions: false,
                peak_undecided: false,
                winner_fraction: false,
            },
        ),
        (
            "undecided?n=400&k=2&alpha=2&seed=1&max=500",
            "Gossip",
            Row {
                rounds: true,
                g_star: false,
                steps_per_unit: false,
                ticks: false,
                phases: false,
                cluster_count: false,
                interactions: false,
                peak_undecided: true,
                winner_fraction: false,
            },
        ),
        (
            "approx-majority?n=400&k=2&alpha=2&seed=1&max=4000000",
            "Population",
            Row {
                rounds: false,
                g_star: false,
                steps_per_unit: false,
                ticks: false,
                phases: false,
                cluster_count: false,
                interactions: true,
                peak_undecided: false,
                winner_fraction: false,
            },
        ),
        (
            "leader-mf?n=100000&k=2&alpha=3&seed=1",
            "LeaderMf",
            Row {
                rounds: false,
                g_star: false,
                steps_per_unit: true,
                ticks: false,
                phases: false,
                cluster_count: false,
                interactions: false,
                peak_undecided: false,
                winner_fraction: false,
            },
        ),
        (
            "undecided-mf?n=1e6&k=4&alpha=2&seed=1",
            "GossipMf",
            Row {
                rounds: true,
                g_star: false,
                steps_per_unit: false,
                ticks: false,
                phases: false,
                cluster_count: false,
                interactions: false,
                peak_undecided: true,
                winner_fraction: false,
            },
        ),
        (
            "population-mf?n=1e6&alpha=3&seed=1",
            "PopulationMf",
            Row {
                rounds: false,
                g_star: false,
                steps_per_unit: false,
                ticks: false,
                phases: false,
                cluster_count: false,
                interactions: true,
                peak_undecided: false,
                winner_fraction: false,
            },
        ),
    ];

    for (spec, variant, expected) in table {
        let report = run_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(
            variant_name(&report),
            variant,
            "{spec}: unexpected telemetry variant"
        );
        assert_eq!(
            observed(&report),
            expected,
            "{spec}: accessor availability diverged from the matrix"
        );
    }
}

#[test]
fn winner_fraction_requires_the_full_record_level() {
    // The capable variants (sync, leader) still return None below
    // `RecordLevel::Full` — the accessor reflects what was recorded, not
    // just which engine ran.
    for spec in [
        "sync?n=400&k=2&alpha=2&seed=1",
        "leader?n=400&k=2&alpha=3&seed=1&max=80",
    ] {
        let report = run_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(
            report.winner_fraction().is_none(),
            "{spec}: series recorded without record=full"
        );
    }
}
