//! Stream pins: fixed-seed gossip-dynamics and population-protocol runs
//! whose fingerprints were recorded once and must never move.
//!
//! Each case fixes the round or interaction count, the exact bits of the
//! run duration, the final opinion counts, and an FNV-1a hash of the
//! whole result's `Debug` text (trace included where tracing is on), all
//! under one scenario that exercises every effect the engines act on. A
//! refactor of the engines must leave every line below byte-identical; a
//! deliberate re-stream must re-record them and say so.

use plurality_baselines::{Dynamics, DynamicsConfig, PopulationConfig, PopulationProtocol};
use plurality_core::{InitialAssignment, RunOutcome};
use plurality_scenario::Scenario;

/// Loss burst, crash, adaptive corruption, rewire, join and recover, in
/// rounds (gossip) or parallel time (population protocols).
const SCENARIO: &str = "burst-loss:0.3@1..4;crash:0.2@2;corrupt:0.1:adaptive@3;\
                        rewire:er:0.02@4;join:0.2@5;recover:0.2@6";

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pin(steps: u64, o: &RunOutcome, debug: &str) -> String {
    format!(
        "steps={steps} duration={:#018x} counts={:?} hash={:#018x}",
        o.duration.to_bits(),
        o.final_counts.as_slice(),
        fnv1a(debug),
    )
}

fn check_dynamics(dynamics: Dynamics, seed: u64, trace: bool, expected: &str) {
    let r = DynamicsConfig::new(
        dynamics,
        InitialAssignment::with_bias(1_000, 3, 2.0).unwrap(),
    )
    .with_seed(seed)
    .with_scenario(Scenario::parse(SCENARIO).unwrap())
    .with_trace(trace)
    .run();
    assert_eq!(pin(r.rounds, &r.outcome, &format!("{r:?}")), expected);
}

fn check_population(
    protocol: PopulationProtocol,
    n: u64,
    a: u64,
    seed: u64,
    trace: bool,
    expected: &str,
) {
    let r = PopulationConfig::new(protocol, n, a)
        .with_seed(seed)
        .with_scenario(Scenario::parse(SCENARIO).unwrap())
        .with_trace(trace)
        .run();
    assert_eq!(pin(r.interactions, &r.outcome, &format!("{r:?}")), expected);
}

#[test]
fn pull_voting_scenario() {
    check_dynamics(
        Dynamics::PullVoting,
        1,
        false,
        "steps=2194 duration=0x40a1240000000000 counts=[24, 0, 976] hash=0x442d62ef6c76bd37",
    );
}

#[test]
fn two_choices_scenario() {
    check_dynamics(
        Dynamics::TwoChoices,
        2,
        false,
        "steps=16 duration=0x4030000000000000 counts=[1000, 0, 0] hash=0xec8459723077c5fc",
    );
}

#[test]
fn three_majority_scenario() {
    check_dynamics(
        Dynamics::ThreeMajority,
        3,
        false,
        "steps=16 duration=0x4030000000000000 counts=[1000, 0, 0] hash=0x7a367bd7daba6fc9",
    );
}

#[test]
fn undecided_scenario_traced() {
    check_dynamics(
        Dynamics::Undecided,
        4,
        true,
        "steps=31 duration=0x403f000000000000 counts=[1000, 0, 0] hash=0x5b4ab3edd43e2876",
    );
}

#[test]
fn approximate_majority_scenario_traced() {
    check_population(
        PopulationProtocol::ApproximateMajority,
        1_000,
        600,
        5,
        true,
        "steps=23420 duration=0x40376b851eb851ec counts=[1000, 0] hash=0x1fae0cdac955f398",
    );
}

#[test]
fn exact_majority_scenario() {
    check_population(
        PopulationProtocol::ExactMajority,
        300,
        170,
        6,
        false,
        "steps=641676 duration=0x40a0b5d70a3d70a4 counts=[114, 186] hash=0x944cbb6eb1900d8a",
    );
}
