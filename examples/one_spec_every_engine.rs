//! The unified facade in one screen: every registered protocol runs
//! from one spec string on the same instance, and every run comes back
//! as the same `Report` type.
//!
//! ```sh
//! cargo run --release --example one_spec_every_engine
//! ```

use plurality::api::{Registry, RunSpec, Telemetry};

fn main() {
    // The shared instance: 2000 nodes, 2 opinions, bias 3 — expressed
    // once, as spec parameters. `c1` (a fixed time-unit length) only
    // exists on the event-driven engines, so it is attached per entry.
    let n = 2_000u64;
    println!("one spec per protocol, one report type back (n = {n}, k = 2, α₀ = 3):\n");

    let registry = Registry::standard();
    for entry in registry.entries() {
        let mut spec = RunSpec::new(entry.name())
            .with("n", n)
            .with("k", 2)
            .with("alpha", 3.0)
            .with("seed", 1);
        if entry.keys().iter().any(|(key, _)| *key == "c1") {
            spec = spec.with("c1", 9.3);
        }
        let report = registry.resolve(&spec).expect("spec resolves").run();

        // The common outcome answers the common questions…
        let consensus = report
            .outcome
            .consensus_time
            .map(|t| format!("consensus at {t:>8.2}"))
            .unwrap_or_else(|| "no consensus".to_string());
        // …and the typed telemetry still carries every engine-specific
        // field, without six result types to pattern-match.
        let detail = match &report.telemetry {
            Telemetry::Sync(t) => format!("{} two-choices rounds", t.two_choices_rounds.len()),
            Telemetry::Urn(t) => format!("G* = {}", t.g_star),
            Telemetry::Leader(t) => {
                format!("{} generations, C1 = {}", t.phases.len(), t.steps_per_unit)
            }
            Telemetry::Cluster(t) => format!("{} clusters", t.cluster_count),
            Telemetry::Gossip(t) => format!("peak undecided {:.2}", t.peak_undecided),
            Telemetry::Population(t) => format!("{} interactions", t.interactions),
            Telemetry::LeaderMf(t) => format!("{} tau-leap sub-steps", t.sub_steps),
            Telemetry::GossipMf(t) => format!("{} mean-field rounds", t.rounds),
            Telemetry::PopulationMf(t) => {
                format!("{} interactions in {} batches", t.interactions, t.batches)
            }
        };
        println!(
            "  {:<16} {} (plurality preserved: {}); {}",
            report.protocol,
            consensus,
            report.outcome.plurality_preserved(),
            detail
        );
        assert_eq!(report.outcome.n, n);
    }

    println!("\nthe same run as a single string:");
    let report =
        plurality::api::run_spec("leader?n=2000&k=2&alpha=3.0&seed=1&c1=9.3&topology=regular:8")
            .expect("spec runs");
    println!(
        "  leader on a random 8-regular graph: ε-convergence at {:.2}",
        report.outcome.epsilon_time.expect("ε-converges")
    );
}
