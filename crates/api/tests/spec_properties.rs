//! Property tests for the `RunSpec` grammar, mirroring
//! `crates/scenario/tests/dsl_properties.rs`: every spec the builder
//! can produce renders to a string that parses back to the identical
//! spec (`parse ∘ to_string = id`), and malformed or out-of-range
//! inputs are rejected with the documented teaching messages rather
//! than silently reinterpreted.

use plurality_api::{Registry, RunSpec};
use proptest::prelude::*;

const PROTOCOLS: [&str; 10] = [
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
];

const TOPOLOGIES: [&str; 6] = ["complete", "ring", "torus", "er:0.01", "regular:8", "pa:3"];
const SCENARIOS: [&str; 4] = [
    "crash:0.2@5",
    "crash:0.2@5;burst-loss:0.5@8..12;rewire:er:0.01@20",
    "corrupt:0.1:adaptive@5;join:0.1@9",
    "latency:3@10..40",
];
const LATENCIES: [&str; 5] = [
    "exp:1.0",
    "erlang:3:1.5",
    "weibull:1.5:1.0",
    "uniform:0:2",
    "det:1",
];

/// Builds one spec from drawn raw material: `proto` picks the protocol,
/// `picks` selects which common parameters to attach, and the scalar
/// vectors supply values. Values render through `Display`, exactly as a
/// user would write them.
fn build_spec(proto: usize, picks: &[usize], ints: &[u64], floats: &[f64]) -> RunSpec {
    let mut spec = RunSpec::new(PROTOCOLS[proto % PROTOCOLS.len()]);
    for (i, &pick) in picks.iter().enumerate() {
        let int = ints[i % ints.len()];
        let float = floats[i % floats.len()];
        spec = match pick % 10 {
            0 => spec.with("n", 100 + int % 1_000_000),
            1 => spec.with("k", 2 + int % 62),
            2 => spec.with("alpha", 1.0 + float * 4.0),
            3 => spec.with("epsilon", float),
            4 => spec.with("seed", int),
            5 => spec.with("record", ["outcome", "generations", "full"][pick % 3]),
            6 => spec.with("topology", TOPOLOGIES[pick % TOPOLOGIES.len()]),
            7 => spec.with("scenario", SCENARIOS[pick % SCENARIOS.len()]),
            // Parsing is syntax-only, so protocol-specific keys round-trip
            // on any protocol (the registry rejects misplacements later).
            8 => spec.with("latency", LATENCIES[pick % LATENCIES.len()]),
            _ => spec.with("max", 1.0 + float * 10_000.0),
        };
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_then_parse_is_the_identity(
        proto in 0usize..1_000,
        picks in prop::collection::vec(0usize..1_000, 0..10),
        ints in prop::collection::vec(0u64..u64::MAX, 1..10),
        floats in prop::collection::vec(0.0f64..1.0, 1..10),
    ) {
        let spec = build_spec(proto, &picks, &ints, &floats);
        let rendered = spec.to_string();
        let reparsed = RunSpec::parse(&rendered);
        prop_assert_eq!(reparsed.as_ref(), Ok(&spec), "rendered: {}", rendered);
        // Rendering is canonical: a second round trip is a fixed point.
        prop_assert_eq!(reparsed.unwrap().to_string(), rendered);
    }

    #[test]
    fn valid_common_parameter_specs_resolve(
        proto in 0usize..1_000,
        n in 200u64..20_000,
        k in 2u32..8,
        alpha in 0.0f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        // Population protocols are binary; the complete graph and the
        // empty scenario fit every engine.
        let name = PROTOCOLS[proto % PROTOCOLS.len()];
        let k = if name.ends_with("majority") && name != "3-majority" { 2 } else { k };
        let spec = RunSpec::new(name)
            .with("n", n)
            .with("k", k)
            .with("alpha", 1.0 + 3.0 * alpha)
            .with("seed", seed);
        prop_assert!(
            Registry::standard().resolve(&spec).is_ok(),
            "spec `{}` did not resolve",
            spec
        );
    }

    #[test]
    fn every_accepted_spec_gets_a_positive_finite_price(
        proto in 0usize..1_000,
        decades in 1.0f64..9.0,
        k in 2u32..16,
        alpha in 0.0f64..1.0,
        max in 0.5f64..1e5,
        variant in 0usize..4,
    ) {
        // Every registry entry, n from 10 to 10⁹, with or without a cap
        // and a ring: whatever `validate_only` accepts is priced at least
        // one event, short of the saturated u64::MAX that an infinite or
        // NaN model would give.
        let names = Registry::standard().names();
        let name = names[proto % names.len()];
        let mut spec = RunSpec::new(name)
            .with("n", 10f64.powf(decades).round() as u64)
            .with("k", k)
            .with("alpha", 1.0 + 3.0 * alpha);
        if variant & 1 == 1 {
            spec = spec.with("max", max);
        }
        if variant & 2 == 2 {
            spec = spec.with("topology", "ring");
        }
        if let Ok(cost) = Registry::standard().validate_only(&spec) {
            prop_assert!(
                (1..u64::MAX).contains(&cost.events),
                "spec `{}` priced at {} events",
                spec,
                cost.events
            );
        }
    }

    #[test]
    fn out_of_range_fractions_are_rejected(
        frac in 1.0f64..100.0,
    ) {
        prop_assume!(frac > 1.0);
        for spec in [
            format!("sync?epsilon={frac}"),
            format!("sync?gamma={frac}"),
            format!("leader?scenario=signal-loss:{frac}"),
            format!("leader?scenario=stragglers:{frac}"),
            format!("cluster?leader-prob={frac}"),
        ] {
            let parsed = RunSpec::parse(&spec).unwrap();
            prop_assert!(
                Registry::standard().resolve(&parsed).is_err(),
                "`{}` resolved",
                spec
            );
        }
    }

    #[test]
    fn garbage_protocols_are_rejected(
        pick in 0usize..6,
    ) {
        let name = ["sink", "paxos", "raft", "syncs", "leaders", "urns"][pick];
        let err = Registry::standard()
            .resolve(&RunSpec::parse(name).unwrap())
            .unwrap_err();
        prop_assert!(err.message().contains("unknown protocol"), "{}", err);
    }

    #[test]
    fn garbage_values_are_rejected_with_the_key_named(
        pick in 0usize..5,
    ) {
        let (spec, key) = [
            ("sync?n=many", "`n`"),
            ("sync?alpha=big", "`alpha`"),
            ("leader?latency=cauchy:1", "`latency`"),
            ("sync?topology=hypercube", "`topology`"),
            ("sync?scenario=crush:0.2@5", "`scenario`"),
        ][pick];
        let err = Registry::standard()
            .resolve(&RunSpec::parse(spec).unwrap())
            .unwrap_err();
        prop_assert!(err.message().contains(key), "{}: {}", spec, err);
    }
}

/// Exact error-message snapshots: the teaching errors are part of the
/// API surface (the CLI prints them verbatim), so changes must be
/// deliberate.
#[test]
fn rejection_error_messages_are_stable() {
    let cases: [(&str, &str); 6] = [
        (
            "paxos",
            "invalid run spec: unknown protocol `paxos` (registered: sync, urn, leader, \
             cluster, pull, two-choices, 3-majority, undecided, approx-majority, \
             exact-majority, leader-mf, majority3-mf, undecided-mf, population-mf)",
        ),
        (
            "sync?loss=0.2",
            "invalid run spec: `loss` is not a parameter of `sync` (common: n, k, alpha, \
             epsilon, seed, record, topology, scenario, max; sync-specific: gamma, mode, \
             alpha_hint)",
        ),
        (
            "sync?scenario=signal-loss:0.2",
            "invalid run spec: scenario action `signal-loss` is read only by the \
             asynchronous engines, so run `leader` or `cluster`; for message loss on \
             `sync` script a burst instead, e.g. `burst-loss:0.2@0..1000000`",
        ),
        (
            "pull?gamma=0.4",
            "invalid run spec: `gamma` is not a parameter of `pull` (common: n, k, alpha, \
             epsilon, seed, record, topology, scenario, max; `pull` has no protocol-specific \
             parameters)",
        ),
        (
            "sync?n=many",
            "invalid run spec: parameter `n`: `many` is not an integer (scientific \
             notation like 1e8 is accepted when it denotes an exact non-negative \
             integer)",
        ),
        (
            "sync?mode=psychic",
            "invalid run spec: parameter `mode`: `psychic` is not a schedule mode \
             (predefined | adaptive)",
        ),
    ];
    for (spec, expected) in cases {
        let err = Registry::standard()
            .resolve(&RunSpec::parse(spec).unwrap())
            .unwrap_err();
        assert_eq!(err.to_string(), expected, "spec `{spec}`");
    }
}

#[test]
fn syntax_rejections_are_stable() {
    let cases: [(&str, &str); 3] = [
        (
            "sync?n",
            "invalid run spec: parameter `n` must have the form key=value",
        ),
        ("sync?n=5&n=6", "invalid run spec: duplicate parameter `n`"),
        (
            "sync?n=&k=2",
            "invalid run spec: parameter `n=` must have a non-empty key and value",
        ),
    ];
    for (spec, expected) in cases {
        let err = RunSpec::parse(spec).unwrap_err();
        assert_eq!(err.to_string(), expected, "spec `{spec}`");
    }
}

#[test]
fn kitchen_sink_spec_parses_and_resolves() {
    let raw = "leader?n=4096&k=8&topology=er:0.01&scenario=crash:0.2@5;signal-loss:0.1;\
               stragglers:0.2:0.5&latency=erlang:3:1.5&c1=9.3&seed=7&record=full&max=500";
    let spec = RunSpec::parse(raw).unwrap();
    assert_eq!(spec.to_string(), raw);
    let resolved = Registry::standard().resolve(&spec).unwrap();
    assert_eq!(resolved.protocol.name(), "leader");
    assert_eq!(resolved.config.n(), 4096);
}

#[test]
fn run_long_scenario_actions_are_async_only() {
    // The two asynchronous engines run them; every other protocol turns
    // them into one teaching error at resolve time, never a panic and
    // never a silent ignore.
    for entry in Registry::standard().entries() {
        for action in ["signal-loss:0.1", "stragglers:0.2"] {
            let spec =
                RunSpec::parse(&format!("{}?n=1000&k=2&scenario={action}", entry.name())).unwrap();
            let resolved = Registry::standard().resolve(&spec);
            if matches!(entry.name(), "leader" | "cluster") {
                assert!(resolved.is_ok(), "{} rejected `{action}`", entry.name());
                continue;
            }
            let err = resolved.err().unwrap_or_else(|| panic!("{spec} resolved"));
            assert!(
                err.message().contains("run `leader` or `cluster`"),
                "{spec}: {err}"
            );
            if action.starts_with("signal-loss") {
                assert!(err.message().contains("burst-loss"), "{spec}: {err}");
            }
        }
    }
}
