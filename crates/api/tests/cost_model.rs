//! The price of a run against the work its engine then does.
//!
//! [`plurality_api::Protocol::cost`] prices a run in its engine's own
//! unit of work before it starts. Here every protocol runs on the
//! complete graph at n = 10²–10⁴ (10⁵ in tier 2), k ∈ {2, 4} (2 for the
//! binary population protocols) and α ∈ {2, 3}, and the median of
//! three seeds' work counters must lie within [`FACTOR`] of the price:
//!
//! * ticks + event-queue pops for `leader` and `cluster`;
//! * rounds × n for `sync` and the gossip dynamics;
//! * interactions for the population protocols;
//! * rounds × pools for `urn`, `majority3-mf` and `undecided-mf`,
//!   sub-steps × pools for `leader-mf`, batches × pools for
//!   `population-mf`.
//!
//! One row is left out: `leader-mf` at n = 100 with k = 4, α = 2 misses
//! consensus on most seeds and runs to its time cap (~10× the price), a
//! mean-field backend far outside the large-n regime it approximates.

use plurality_api::{Registry, Report, RunSpec, Telemetry};
use plurality_core::sync::{generations_needed, GENERATION_CAP};

/// How far the measured work may stray from the price, either way.
const FACTOR: f64 = 2.5;

/// The engine's own work counter for a finished run.
fn work(report: &Report) -> f64 {
    let (n, k) = (report.outcome.n, u64::from(report.outcome.k));
    let events = match &report.telemetry {
        Telemetry::Sync(t) => t.rounds * n,
        Telemetry::Gossip(t) => t.rounds * n,
        Telemetry::Urn(t) => t.rounds * k,
        Telemetry::GossipMf(t) => t.rounds * (k + u64::from(report.protocol == "undecided-mf")),
        Telemetry::Leader(t) => t.ticks + t.profile.events_popped,
        Telemetry::Cluster(t) => t.ticks + t.profile.events_popped,
        Telemetry::Population(t) => t.interactions,
        Telemetry::LeaderMf(t) => {
            // `(G + 1) · k` generation-color pools, G from the run's bias.
            let g = generations_needed(n, report.outcome.initial_bias.max(1.0), GENERATION_CAP);
            t.sub_steps * (u64::from(g) + 1) * k
        }
        Telemetry::PopulationMf(t) => t.batches * 4,
    };
    events as f64
}

/// Checks `protocol` over the grid at each of `sizes`.
fn assert_priced(protocol: &str, sizes: &[u64]) {
    let registry = Registry::standard();
    let binary = matches!(
        protocol,
        "approx-majority" | "exact-majority" | "population-mf"
    );
    let ks: &[u32] = if binary { &[2] } else { &[2, 4] };
    for &n in sizes {
        for &k in ks {
            for alpha in [2.0, 3.0] {
                if protocol == "leader-mf" && (n, k, alpha) == (100, 4, 2.0) {
                    continue;
                }
                let mut measured: Vec<f64> = (1..=3)
                    .map(|seed| {
                        let raw = format!("{protocol}?n={n}&k={k}&alpha={alpha}&seed={seed}");
                        let spec = RunSpec::parse(&raw).unwrap();
                        let price = registry.validate_only(&spec).unwrap().events as f64;
                        work(&registry.resolve(&spec).unwrap().run()) / price
                    })
                    .collect();
                measured.sort_by(f64::total_cmp);
                let ratio = measured[1];
                assert!(
                    (1.0 / FACTOR..=FACTOR).contains(&ratio),
                    "{protocol} n={n} k={k} alpha={alpha}: median work is {ratio:.2}× the price"
                );
            }
        }
    }
}

const SIZES: &[u64] = &[100, 1_000, 10_000];

macro_rules! priced {
    ($($test:ident => $protocol:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                assert_priced($protocol, SIZES);
            }
        )*
    };
}

priced! {
    sync_is_priced_within_the_factor => "sync",
    urn_is_priced_within_the_factor => "urn",
    leader_is_priced_within_the_factor => "leader",
    cluster_is_priced_within_the_factor => "cluster",
    pull_is_priced_within_the_factor => "pull",
    two_choices_is_priced_within_the_factor => "two-choices",
    three_majority_is_priced_within_the_factor => "3-majority",
    undecided_is_priced_within_the_factor => "undecided",
    approx_majority_is_priced_within_the_factor => "approx-majority",
    exact_majority_is_priced_within_the_factor => "exact-majority",
    leader_mf_is_priced_within_the_factor => "leader-mf",
    majority3_mf_is_priced_within_the_factor => "majority3-mf",
    undecided_mf_is_priced_within_the_factor => "undecided-mf",
    population_mf_is_priced_within_the_factor => "population-mf",
}

#[test]
fn every_registry_entry_is_priced_here() {
    let tested = [
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
        "leader-mf",
        "majority3-mf",
        "undecided-mf",
        "population-mf",
    ];
    assert_eq!(Registry::standard().names(), tested);
}

#[test]
#[ignore = "tier 2: n = 10⁵ per-node runs take seconds each"]
fn every_protocol_is_priced_within_the_factor_at_a_hundred_thousand_nodes() {
    for protocol in Registry::standard().names() {
        assert_priced(protocol, &[100_000]);
    }
}

#[test]
fn a_price_is_arithmetic_on_the_config_alone() {
    let registry = Registry::standard();
    let price = |raw: &str| {
        registry
            .validate_only(&RunSpec::parse(raw).unwrap())
            .unwrap()
            .events
    };
    // The seed picks a trajectory, not a price.
    assert_eq!(price("leader?n=2000&seed=1"), price("leader?n=2000&seed=2"));
    // More nodes cost more; a cap bounds the cost; a slower latency law
    // stretches the time unit and with it the run.
    assert!(price("cluster?n=4000") > price("cluster?n=2000"));
    assert!(price("leader?n=2000&max=5") < price("leader?n=2000"));
    assert!(price("leader?n=2000&latency=exp:0.5") > price("leader?n=2000"));
    // Off the complete graph a per-node run is priced at its cap.
    assert!(price("sync?n=2000&topology=ring") > 3 * price("sync?n=2000"));
    // A mean-field run's price does not follow n: 10⁹ nodes cost about
    // what 10⁶ do, far below one per-node sync run.
    assert!(price("urn?n=1e9") < 2 * price("urn?n=1e6"));
    assert!(price("urn?n=1e9") < price("sync?n=2000") / 100);
}
