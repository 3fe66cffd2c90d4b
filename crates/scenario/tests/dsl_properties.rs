//! Property tests for the scenario DSL: every scenario the builder can
//! produce renders to a string that parses back to the identical
//! scenario, and malformed inputs are rejected rather than silently
//! reinterpreted.

use plurality_scenario::{AdversaryMode, Scenario};
use plurality_topology::Topology;
use proptest::prelude::*;

/// Builds one scenario from drawn raw material: `picks` selects the
/// action variant per event, the float vectors supply parameters. Each
/// run-long action is added at most once, at the position of its first
/// pick.
fn build_scenario(picks: &[usize], fracs: &[f64], times: &[f64], spans: &[f64]) -> Scenario {
    let mut s = Scenario::new();
    for (i, &pick) in picks.iter().enumerate() {
        let frac = fracs[i % fracs.len()];
        let at = times[i % times.len()];
        let span = spans[i % spans.len()];
        s = match pick % 11 {
            9 if s.signal_loss() == 0.0 && frac > 0.0 => s.with_signal_loss(frac),
            10 if s.stragglers().is_none() => s.with_stragglers(frac, span),
            9 | 10 => s,
            0 => s.crash(frac, at),
            1 => s.recover(frac, at),
            2 => s.join(frac, at),
            3 => s.corrupt(frac, AdversaryMode::Oblivious, at),
            4 => s.corrupt(frac, AdversaryMode::Adaptive, at),
            5 => s.burst_loss(frac, at, at + span),
            6 => s.latency_scale(0.25 + frac * 8.0, at),
            7 => s.latency_scale_during(0.25 + frac * 8.0, at, at + span),
            _ => s.rewire(
                match pick % 5 {
                    0 => Topology::Complete,
                    1 => Topology::Ring,
                    2 => Topology::ErdosRenyi { p: frac },
                    3 => Topology::Regular { d: 4 + pick % 7 },
                    _ => Topology::PreferentialAttachment { m: 1 + pick % 5 },
                },
                at,
            ),
        };
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_then_parse_is_the_identity(
        picks in prop::collection::vec(0usize..1_000, 1..12),
        fracs in prop::collection::vec(0.0f64..1.0, 1..12),
        times in prop::collection::vec(0.0f64..1e6, 1..12),
        spans in prop::collection::vec(1e-3f64..1e3, 1..12),
    ) {
        let scenario = build_scenario(&picks, &fracs, &times, &spans);
        let rendered = scenario.to_string();
        let reparsed = Scenario::parse(&rendered);
        prop_assert_eq!(reparsed.as_ref(), Ok(&scenario), "rendered: {}", rendered);
        // Rendering is canonical: a second round trip is a fixed point.
        prop_assert_eq!(reparsed.unwrap().to_string(), rendered);
    }

    #[test]
    fn out_of_range_fractions_are_rejected(
        frac in 1.0f64..100.0,
        at in 0.0f64..1e6,
    ) {
        prop_assume!(frac > 1.0);
        for keyword in ["crash", "recover", "join", "corrupt"] {
            prop_assert!(Scenario::parse(&format!("{keyword}:{frac}@{at}")).is_err());
        }
    }

    #[test]
    fn negative_times_are_rejected(
        frac in 0.0f64..1.0,
        at in -1e6f64..-1e-9,
    ) {
        prop_assert!(Scenario::parse(&format!("crash:{frac}@{at}")).is_err());
    }

    #[test]
    fn inverted_or_empty_windows_are_rejected(
        p in 0.0f64..1.0,
        from in 0.0f64..1e6,
        shrink in 0.0f64..1.0,
    ) {
        // until ≤ from: both the inverted and the empty window must fail.
        let until = from * shrink;
        prop_assert!(
            Scenario::parse(&format!("burst-loss:{p}@{from}..{until}")).is_err()
        );
        prop_assert!(Scenario::parse(&format!("burst-loss:{p}@{from}..{from}")).is_err());
    }

    #[test]
    fn windows_on_instantaneous_actions_are_rejected(
        frac in 0.0f64..1.0,
        from in 0.0f64..1e6,
        span in 1e-3f64..1e3,
    ) {
        let until = from + span;
        for keyword in ["crash", "recover", "join", "corrupt"] {
            prop_assert!(
                Scenario::parse(&format!("{keyword}:{frac}@{from}..{until}")).is_err()
            );
        }
        prop_assert!(
            Scenario::parse(&format!("rewire:regular:4@{from}..{until}")).is_err()
        );
    }

    #[test]
    fn garbage_keywords_are_rejected(
        pick in 0usize..6,
        frac in 0.0f64..1.0,
        at in 0.0f64..1e6,
    ) {
        let keyword = ["crush", "heal", "corrupts", "loss-burst", "lag", "wire"][pick];
        prop_assert!(Scenario::parse(&format!("{keyword}:{frac}@{at}")).is_err());
    }
}

#[test]
fn parse_accepts_a_kitchen_sink_example() {
    let s = Scenario::parse(
        "crash:0.2@5;burst-loss:0.5@8..12;rewire:er:0.01@20;signal-loss:0.3;\
         corrupt:0.05:adaptive@22;join:0.2@25;latency:3@30..40;recover:1@50;stragglers:0.2",
    )
    .unwrap();
    assert_eq!(s.len(), 9);
    assert_eq!(s.signal_loss(), 0.3);
    assert_eq!(s.stragglers(), Some((0.2, 0.1)));
    assert_eq!(s.last_time(), 50.0);
    assert_eq!(Scenario::parse(&s.to_string()).unwrap(), s);
}
