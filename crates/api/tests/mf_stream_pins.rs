//! Stream pins for the mean-field backends: fixed-seed runs whose wire
//! text was recorded once and must never move.
//!
//! The per-node pins in `plurality-core` cannot see the count-pool
//! engines, whose whole RNG stream runs through the exact binomial and
//! multinomial samplers. Each case below fixes the run duration's exact
//! bits, the final opinion counts, the wire text's length, and an FNV-1a
//! hash of the whole `plurality-report/1` text. A change to a sampler or
//! an engine loop must leave every line byte-identical; a deliberate
//! re-stream must re-record them and say so.

use plurality_api::run_spec;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn check(spec: &str, expected: &str) {
    let report = run_spec(spec).expect("valid spec");
    let wire = report.wire_text();
    let got = format!(
        "duration={:#018x} counts={:?} bytes={} hash={:#018x}",
        report.outcome.duration.to_bits(),
        report.outcome.final_counts.as_slice(),
        wire.len(),
        fnv1a(&wire),
    );
    assert_eq!(got, expected, "spec `{spec}`");
}

#[test]
fn urn_n1e9() {
    check(
        "urn?n=1000000000&k=8&alpha=1.2&seed=1",
        "duration=0x4047800000000000 counts=[1000000000, 0, 0, 0, 0, 0, 0, 0] bytes=826 hash=0x91d9ff0c4f9d9a43",
    );
}

#[test]
fn urn_k3_many_generations() {
    check(
        "urn?n=100000000&k=3&alpha=1.1&seed=7",
        "duration=0x4046000000000000 counts=[100000000, 0, 0] bytes=892 hash=0xbb44fbcbd7e6d41d",
    );
}

#[test]
fn urn_k6_many_generations() {
    check(
        "urn?n=1000000000&k=6&alpha=1.1&seed=8",
        "duration=0x404a000000000000 counts=[1000000000, 0, 0, 0, 0, 0] bytes=905 hash=0x2b97b20d98234a94",
    );
}

#[test]
fn leader_mf_default_dt_n1e8() {
    check(
        "leader-mf?n=100000000&k=3&alpha=2.0&seed=2",
        "duration=0x4066440000000000 counts=[100000000, 0, 0] bytes=332 hash=0x4becbc4d700e41b6",
    );
}

#[test]
fn leader_mf_dt_half_n1e9() {
    check(
        "leader-mf?n=1000000000&k=4&alpha=2.5&seed=3&dt=0.5",
        "duration=0x4066d00000000000 counts=[1000000000, 0, 0, 0] bytes=345 hash=0x55de59b2cc3c088c",
    );
}

#[test]
fn majority3_mf_n1e8() {
    check(
        "majority3-mf?n=100000000&k=5&alpha=1.3&seed=4",
        "duration=0x4030000000000000 counts=[100000000, 0, 0, 0, 0] bytes=293 hash=0xa311b8e330ff2a67",
    );
}

#[test]
fn undecided_mf_n1e9() {
    check(
        "undecided-mf?n=1000000000&k=6&alpha=1.25&seed=5",
        "duration=0x403c000000000000 counts=[1000000000, 0, 0, 0, 0, 0] bytes=292 hash=0x7ecab38f0a10a119",
    );
}

#[test]
fn population_mf_n1e8() {
    check(
        "population-mf?n=100000000&k=2&alpha=1.2&seed=6",
        "duration=0x403af19ff2cf14fc counts=[100000000, 0] bytes=381 hash=0xa684c6d20f8765b2",
    );
}
