//! Property tests for *composed* specs: a [`RunSpec`] whose `scenario`
//! and `topology` parameters are themselves generated structures (not
//! strings from a fixed pool). The whole composition must survive one
//! trip through the flat spec string — `parse ∘ to_string = id` on the
//! outer spec — and the embedded sub-specs must parse back to the exact
//! [`Scenario`] / [`Topology`] values they rendered from, so the three
//! grammars cannot drift apart at their seams.

use plurality_api::{Registry, RunSpec};
use plurality_scenario::{AdversaryMode, Scenario};
use plurality_topology::Topology;
use proptest::prelude::*;

/// Draws one topology from raw material. Parameters stay in each
/// family's valid range; float parameters exercise shortest-round-trip
/// formatting (the `er:P` probability is an arbitrary f64 in (0, 1)).
fn build_topology(pick: usize, frac: f64) -> Topology {
    match pick % 6 {
        0 => Topology::Complete,
        1 => Topology::Ring,
        2 => Topology::Torus2D,
        3 => Topology::ErdosRenyi {
            p: frac.clamp(1e-9, 1.0),
        },
        4 => Topology::Regular { d: 3 + pick % 14 },
        _ => Topology::PreferentialAttachment { m: 1 + pick % 9 },
    }
}

/// Builds one scenario the same way the DSL property tests do, plus a
/// nested rewire target drawn through [`build_topology`] — so the
/// topology grammar is exercised both at the RunSpec seam *and* inside
/// the scenario grammar.
fn build_scenario(picks: &[usize], fracs: &[f64], times: &[f64], spans: &[f64]) -> Scenario {
    let mut s = Scenario::new();
    for (i, &pick) in picks.iter().enumerate() {
        let frac = fracs[i % fracs.len()];
        let at = times[i % times.len()];
        let span = spans[i % spans.len()];
        s = match pick % 8 {
            0 => s.crash(frac, at),
            1 => s.recover(frac, at),
            2 => s.join(frac, at),
            3 => s.corrupt(frac, AdversaryMode::Oblivious, at),
            4 => s.corrupt(frac, AdversaryMode::Adaptive, at),
            5 => s.burst_loss(frac, at, at + span),
            6 => s.latency_scale_during(0.25 + frac * 8.0, at, at + span),
            _ => s.rewire(build_topology(pick / 8, frac), at),
        };
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn composed_specs_round_trip_and_rehydrate(
        proto in 0usize..1_000,
        topo_pick in 0usize..1_000,
        topo_frac in 0.0f64..1.0,
        picks in prop::collection::vec(0usize..1_000, 1..8),
        fracs in prop::collection::vec(0.0f64..1.0, 1..8),
        times in prop::collection::vec(0.0f64..1e6, 1..8),
        spans in prop::collection::vec(1e-3f64..1e3, 1..8),
        n in 100u64..100_000,
        seed in 0u64..u64::MAX,
    ) {
        let protocol = ["sync", "leader", "cluster", "3-majority"][proto % 4];
        let topology = build_topology(topo_pick, topo_frac);
        let scenario = build_scenario(&picks, &fracs, &times, &spans);
        let spec = RunSpec::new(protocol)
            .with("n", n)
            .with("seed", seed)
            .with("topology", topology.spec())
            .with("scenario", &scenario);

        // Outer grammar: display-then-parse is the identity, and the
        // rendering is a fixed point.
        let rendered = spec.to_string();
        let reparsed = RunSpec::parse(&rendered);
        prop_assert_eq!(reparsed.as_ref(), Ok(&spec), "rendered: {}", rendered);
        prop_assert_eq!(reparsed.unwrap().to_string(), rendered);

        // Seams: the embedded sub-specs rehydrate to the exact values
        // they were rendered from.
        let spec = RunSpec::parse(&rendered).unwrap();
        let topo_back = Topology::parse_spec(spec.get("topology").expect("topology param"));
        prop_assert_eq!(topo_back, Ok(topology), "rendered: {}", rendered);
        let scenario_back = Scenario::parse(spec.get("scenario").expect("scenario param"));
        prop_assert_eq!(scenario_back.as_ref(), Ok(&scenario), "rendered: {}", rendered);
    }

    #[test]
    fn composed_specs_resolve_through_the_registry(
        proto in 0usize..1_000,
        topo_pick in 0usize..1_000,
        frac in 0.01f64..0.99,
        at in 0.5f64..100.0,
        span in 0.5f64..50.0,
    ) {
        // A denser topology pool (no parameter so sparse it would be
        // rejected for small n) and a modest scenario: the full spec must
        // not just parse but *resolve* to a runnable configuration.
        let protocol = ["sync", "leader", "cluster", "3-majority"][proto % 4];
        let topology = match topo_pick % 4 {
            0 => Topology::Complete,
            1 => Topology::Ring,
            2 => Topology::Torus2D,
            _ => Topology::Regular { d: 4 + topo_pick % 5 },
        };
        let scenario = Scenario::new()
            .crash(frac, at)
            .burst_loss(frac, at + span, at + 2.0 * span)
            .rewire(topology, at + 3.0 * span)
            .recover(1.0, at + 4.0 * span);
        let spec = RunSpec::new(protocol)
            .with("n", 1024u64)
            .with("k", 2)
            .with("topology", topology.spec())
            .with("scenario", &scenario);
        prop_assert!(
            Registry::standard().resolve(&spec).is_ok(),
            "spec `{}` did not resolve",
            spec
        );
        let events = Registry::standard().validate_only(&spec).unwrap().events;
        prop_assert!((1..u64::MAX).contains(&events), "spec `{}`: {} events", spec, events);
    }
}
