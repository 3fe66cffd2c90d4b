//! Cross-validation: the checker's reachable state space must cover real
//! engine executions. The asynchronous single-leader *engine*
//! (`plurality-core`) runs a small instance to completion under its
//! sampled schedule; the *checker* enumerates every schedule of the
//! matching instance. The engine's final per-node `(generation, color)`
//! profile must then appear among the checker's reachable states — if
//! the oracle's transition logic ever drifted from the engine's, the
//! profile would fall outside the enumerated space and this test would
//! catch it.

use std::collections::{HashSet, VecDeque};

use plurality_check::{canonical_key, CheckTopology, LeaderCheckConfig, StepOracle};
use plurality_core::leader::LeaderConfig;
use plurality_core::{InitialAssignment, RecordLevel};

/// Sorted multiset of per-node `(generation, color)` pairs.
fn profile(mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    pairs.sort_unstable();
    pairs
}

/// Enumerates the full reachable state space of the standard n = 4
/// leader instance (complete topology, cap 2) through the public oracle
/// API and returns every reachable node-state profile.
fn reachable_profiles() -> (usize, HashSet<Vec<(u32, u32)>>) {
    let oracle = LeaderCheckConfig::new(4, 2, CheckTopology::Complete)
        .oracle()
        .expect("valid instance");
    let mut profiles = HashSet::new();
    let mut visited = HashSet::new();
    let mut frontier = VecDeque::new();

    let root = canonical_key(&oracle, &oracle.initial());
    visited.insert(root.clone());
    frontier.push_back(root);
    let mut acts = Vec::new();
    while let Some(key) = frontier.pop_front() {
        let state = oracle.decode(&key);
        profiles.insert(profile(
            state.nodes.iter().map(|n| (n.gen, n.col)).collect(),
        ));
        acts.clear();
        oracle.actions(&state, &mut acts);
        for a in acts.clone() {
            let succ = oracle.step(&state, &a);
            let succ_key = canonical_key(&oracle, &succ);
            if visited.insert(succ_key.clone()) {
                frontier.push_back(succ_key);
            }
        }
    }
    (visited.len(), profiles)
}

#[test]
fn engine_runs_land_inside_the_checker_state_space() {
    // The engine instance mirrors the checker's standard n = 4 one:
    // α₀ = 3 over k = 2 gives the same 3-vs-1 initial split as the
    // checker's majority construction, the engine's fixed gen-size
    // fraction 1/2 gives the same threshold (⌈n/2⌉ = 2), and the generation cap
    // is pinned to the checker's 2. The zero-signal threshold need not
    // match: the checker's scheduler may delay 0-signal deliveries
    // arbitrarily, so every engine phase sequence has a checker schedule.
    let (states, profiles) = reachable_profiles();
    assert!(states > 10_000, "state space implausibly small: {states}");
    assert!(profiles.len() > 20, "too few profiles: {}", profiles.len());

    for seed in [1u64, 7, 23, 101] {
        let assignment = InitialAssignment::with_bias(4, 2, 3.0).unwrap();
        let result = LeaderConfig::new(assignment)
            .with_seed(seed)
            .with_steps_per_unit(9.3)
            .with_generation_cap(2)
            .with_record(RecordLevel::Full)
            .run();
        let final_states = result
            .final_node_states
            .expect("full record keeps node states");
        let engine_profile = profile(final_states);
        assert!(
            profiles.contains(&engine_profile),
            "seed {seed}: engine profile {engine_profile:?} is not reachable in the checker"
        );
    }
}

#[test]
fn engine_initial_profile_is_the_checker_root() {
    // The mapping between the two instance descriptions is itself worth
    // pinning: `with_bias(4, 2, 3)` seats 3-vs-1, exactly the checker's
    // majority construction, so the cross-validation above really does
    // start both systems from the same configuration.
    let assignment = InitialAssignment::with_bias(4, 2, 3.0).unwrap();
    assert_eq!(assignment.n(), 4);
    let outcome = LeaderConfig::new(assignment).with_seed(1).run().outcome;
    assert_eq!(outcome.initial_bias, 3.0);

    let oracle = LeaderCheckConfig::new(4, 2, CheckTopology::Complete)
        .oracle()
        .unwrap();
    let root = oracle.initial();
    let mut root_counts = [0u64; 2];
    for node in &root.nodes {
        assert_eq!(node.gen, 0);
        root_counts[node.col as usize] += 1;
    }
    assert_eq!(root_counts, [3, 1]);
}
