//! The facade's hard contract, asserted per engine: a facade-driven run
//! consumes the byte-identical RNG stream of the direct engine-builder
//! call it stands for — same seed ⇒ identical `RunOutcome` *and*
//! identical engine telemetry, with and without a scenario attached.
//!
//! The comparison goes through `Report::from(direct_result)`, which is
//! an exact decomposition of the engine result struct, so every field
//! of the direct run participates in the equality.

use plurality_api::{
    ClusterEngine, GossipEngine, LeaderEngine, PopulationEngine, Protocol, Report, RunConfig,
    SyncEngine, UrnEngine,
};
use plurality_baselines::{Dynamics, DynamicsConfig, PopulationConfig, PopulationProtocol};
use plurality_core::cluster::ClusterConfig;
use plurality_core::leader::LeaderConfig;
use plurality_core::sync::{SyncConfig, UrnConfig};
use plurality_core::InitialAssignment;
use plurality_scenario::Scenario;
use plurality_topology::Topology;

fn assignment(n: u64, k: u32, alpha: f64) -> InitialAssignment {
    InitialAssignment::with_bias(n, k, alpha).expect("valid assignment")
}

fn round_scenario() -> Scenario {
    Scenario::parse("crash:0.2@2;corrupt:0.05:adaptive@3;recover:1@6").expect("valid scenario")
}

fn event_scenario() -> Scenario {
    Scenario::parse("crash:0.3@5;burst-loss:0.3@8..20;recover:1@30").expect("valid scenario")
}

#[test]
fn facade_run_is_bitwise_identical_to_direct_builder_sync() {
    for scenario in [Scenario::new(), round_scenario()] {
        let a = assignment(1_500, 3, 2.5);
        let direct = SyncConfig::new(a.clone())
            .with_seed(21)
            .with_scenario(scenario.clone())
            .run();
        let facade = SyncEngine::default().run(
            &RunConfig::new(a)
                .with_seed(21)
                .with_scenario(scenario.clone()),
        );
        assert_eq!(Report::from(direct), facade, "scenario `{scenario}`");
    }
}

#[test]
fn facade_run_is_bitwise_identical_to_direct_builder_sync_on_a_sparse_topology() {
    // Topology pass-through rides the same stream contract.
    let a = assignment(1_024, 2, 3.0);
    let direct = SyncConfig::new(a.clone())
        .with_seed(22)
        .with_topology(Topology::Regular { d: 8 })
        .run();
    let facade = SyncEngine::default().run(
        &RunConfig::new(a)
            .with_seed(22)
            .with_topology(Topology::Regular { d: 8 }),
    );
    assert_eq!(Report::from(direct), facade);
}

#[test]
fn facade_run_is_bitwise_identical_to_direct_builder_urn() {
    // Urn mode is mean-field by definition: no scenario variant exists,
    // and the facade turns an attached scenario into a teaching error
    // instead of silently ignoring it.
    let direct = UrnConfig::new(200_000, 4, 2.0).unwrap().with_seed(5).run();
    let cfg = RunConfig::with_bias(200_000, 4, 2.0).unwrap().with_seed(5);
    let facade = UrnEngine::default().run(&cfg);
    assert_eq!(Report::from(direct), facade);

    let err = UrnEngine::default()
        .check(&cfg.with_scenario(round_scenario()))
        .unwrap_err();
    assert!(err.to_string().contains("sync"), "{err}");
}

#[test]
fn facade_run_is_bitwise_identical_to_direct_builder_leader() {
    for scenario in [Scenario::new(), event_scenario()] {
        let a = assignment(900, 2, 3.0);
        let direct = LeaderConfig::new(a.clone())
            .with_seed(61)
            .with_steps_per_unit(9.3)
            .with_scenario(scenario.clone())
            .run();
        let facade = LeaderEngine {
            steps_per_unit: Some(9.3),
            ..Default::default()
        }
        .run(
            &RunConfig::new(a)
                .with_seed(61)
                .with_scenario(scenario.clone()),
        );
        assert_eq!(Report::from(direct), facade, "scenario `{scenario}`");
    }
}

#[test]
fn facade_run_is_bitwise_identical_to_direct_builder_leader_with_failure_knobs() {
    // The leader's failure knobs are run-long scenario actions: the spec
    // carries them inside `scenario=` and the engine reads them from
    // the scenario it is handed.
    let direct = LeaderConfig::new(assignment(800, 2, 3.0))
        .with_seed(33)
        .with_steps_per_unit(9.3)
        .with_scenario(
            Scenario::new()
                .with_signal_loss(0.2)
                .with_stragglers(0.2, 0.1),
        )
        .run();
    let facade = plurality_api::run_spec(
        "leader?n=800&k=2&alpha=3.0&seed=33&c1=9.3&scenario=signal-loss:0.2;stragglers:0.2:0.1",
    )
    .unwrap();
    assert_eq!(Report::from(direct), facade);
}

#[test]
fn facade_run_is_bitwise_identical_to_direct_builder_cluster() {
    let run_long = Scenario::new()
        .with_signal_loss(0.1)
        .with_stragglers(0.2, 0.1);
    for scenario in [Scenario::new(), event_scenario(), run_long] {
        let a = assignment(1_000, 2, 3.0);
        let direct = ClusterConfig::new(a.clone())
            .with_seed(71)
            .with_steps_per_unit(12.0)
            .with_scenario(scenario.clone())
            .run();
        let facade = ClusterEngine {
            steps_per_unit: Some(12.0),
            ..Default::default()
        }
        .run(
            &RunConfig::new(a)
                .with_seed(71)
                .with_scenario(scenario.clone()),
        );
        assert_eq!(Report::from(direct), facade, "scenario `{scenario}`");
    }
}

#[test]
fn facade_run_is_bitwise_identical_to_direct_builder_gossip() {
    for dynamics in Dynamics::all() {
        for scenario in [Scenario::new(), round_scenario()] {
            let a = assignment(900, 3, 3.0);
            let direct = DynamicsConfig::new(dynamics, a.clone())
                .with_seed(11)
                .with_max_rounds(500)
                .with_scenario(scenario.clone())
                .run();
            let facade = GossipEngine::new(dynamics).run(
                &RunConfig::new(a)
                    .with_seed(11)
                    .with_max_duration(500.0)
                    .with_scenario(scenario.clone()),
            );
            assert_eq!(
                Report::from(direct),
                facade,
                "{} under `{scenario}`",
                dynamics.name()
            );
        }
    }
}

#[test]
fn facade_run_is_bitwise_identical_to_direct_builder_population() {
    for protocol in [
        PopulationProtocol::ApproximateMajority,
        PopulationProtocol::ExactMajority,
    ] {
        for scenario in [
            Scenario::new(),
            Scenario::parse("crash:0.3@1;join:1@5").expect("valid scenario"),
        ] {
            // Explicit A-count path ↔ PopulationConfig::new.
            let direct = PopulationConfig::new(protocol, 400, 260)
                .with_seed(9)
                .with_scenario(scenario.clone())
                .run();
            let facade = PopulationEngine {
                protocol,
                initial_a: Some(260),
            }
            .run(
                &RunConfig::with_bias(400, 2, 2.0)
                    .unwrap()
                    .with_seed(9)
                    .with_scenario(scenario.clone()),
            );
            assert_eq!(
                Report::from(direct),
                facade,
                "{} under `{scenario}`",
                protocol.name()
            );

            // Assignment-derived path ↔ PopulationConfig::from_assignment.
            let a = assignment(400, 2, 2.0);
            let direct = PopulationConfig::from_assignment(protocol, &a, 9)
                .with_scenario(scenario.clone())
                .run();
            let facade = PopulationEngine::new(protocol).run(
                &RunConfig::new(a)
                    .with_seed(9)
                    .with_scenario(scenario.clone()),
            );
            assert_eq!(
                Report::from(direct),
                facade,
                "{} (from_assignment) under `{scenario}`",
                protocol.name()
            );
        }
    }
}

#[test]
fn spec_driven_runs_match_direct_builders_end_to_end() {
    // The whole chain — RunSpec::parse → Registry::resolve → run —
    // reproduces the direct builder call, scenario included.
    let direct = SyncConfig::new(assignment(1_200, 4, 2.0))
        .with_seed(3)
        .with_scenario(round_scenario())
        .run();
    let facade = plurality_api::run_spec(
        "sync?n=1200&k=4&alpha=2.0&seed=3&scenario=crash:0.2@2;corrupt:0.05:adaptive@3;recover:1@6",
    )
    .unwrap();
    assert_eq!(Report::from(direct), facade);

    // The predefined schedule's α hint rides the spec as `alpha_hint`.
    let direct = SyncConfig::new(assignment(2_000, 4, 1.2))
        .with_seed(5)
        .with_alpha_hint(8.0)
        .run();
    let facade = plurality_api::run_spec("sync?n=2000&k=4&alpha=1.2&seed=5&alpha_hint=8").unwrap();
    assert_eq!(Report::from(direct), facade);
    let unhinted = plurality_api::run_spec("sync?n=2000&k=4&alpha=1.2&seed=5").unwrap();
    assert_ne!(unhinted, facade, "the hint must reach the schedule");

    let direct = LeaderConfig::new(assignment(700, 2, 3.0))
        .with_seed(4)
        .with_steps_per_unit(9.3)
        .with_scenario(Scenario::new().with_signal_loss(0.1))
        .run();
    let facade = plurality_api::run_spec(
        "leader?n=700&k=2&alpha=3.0&seed=4&c1=9.3&scenario=signal-loss:0.1",
    )
    .unwrap();
    assert_eq!(Report::from(direct), facade);
}
