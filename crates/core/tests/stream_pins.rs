//! Stream pins: fixed-seed leader and cluster runs whose fingerprints
//! were recorded once and must never move.
//!
//! The engines' bitwise tests compare two paths of the *same* build
//! (tracing off vs on, empty vs absent scenario), so they cannot see a
//! change that shifts the RNG stream of every path alike. These pins can:
//! each case fixes the tick count, the `EngineProfile` counters, the exact
//! bits of the run duration, the final opinion counts, and an FNV-1a hash
//! of the whole result's `Debug` text. A refactor of the engines must
//! leave every line below byte-identical; a deliberate re-stream must
//! re-record them and say so.

use plurality_core::cluster::ClusterConfig;
use plurality_core::leader::LeaderConfig;
use plurality_core::{InitialAssignment, RecordLevel, RunOutcome};
use plurality_dist::Latency;
use plurality_obs::EngineProfile;
use plurality_scenario::Scenario;
use plurality_topology::Topology;

const SCENARIO: &str = "rewire:er:0.02@10;crash:0.2@15;burst-loss:0.4@5..20;\
                        latency:3@10..40;corrupt:0.1:adaptive@25;join:0.2@40";

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pin(ticks: u64, p: EngineProfile, o: &RunOutcome, debug: &str) -> String {
    format!(
        "ticks={ticks} popped={} thinned={} resizes={} crossings={} duration={:#018x} counts={:?} hash={:#018x}",
        p.events_popped,
        p.signals_thinned,
        p.queue_resizes,
        p.window_crossings,
        o.duration.to_bits(),
        o.final_counts.as_slice(),
        fnv1a(debug),
    )
}

fn leader(n: u64, seed: u64) -> LeaderConfig {
    LeaderConfig::new(InitialAssignment::with_bias(n, 2, 3.0).unwrap())
        .with_seed(seed)
        .with_steps_per_unit(9.3)
}

fn cluster(n: u64, seed: u64) -> ClusterConfig {
    ClusterConfig::new(InitialAssignment::with_bias(n, 2, 3.0).unwrap())
        .with_seed(seed)
        .with_steps_per_unit(12.0)
}

fn check_leader(cfg: LeaderConfig, expected: &str) {
    let r = cfg.run();
    assert_eq!(
        pin(r.ticks, r.profile, &r.outcome, &format!("{r:?}")),
        expected
    );
}

fn check_cluster(cfg: ClusterConfig, expected: &str) {
    let r = cfg.run();
    assert_eq!(
        pin(r.ticks, r.profile, &r.outcome, &format!("{r:?}")),
        expected
    );
}

#[test]
fn leader_default_complete_exponential() {
    let cfg = LeaderConfig::new(InitialAssignment::with_bias(1_200, 3, 2.5).unwrap()).with_seed(1);
    check_leader(cfg, "ticks=132473 popped=26794 thinned=109082 resizes=5 crossings=3 duration=0x405b92784f96e855 counts=[1200, 0, 0] hash=0x263057f87edf8ed7");
}

#[test]
fn leader_stragglers() {
    check_leader(leader(1_000, 2).with_stragglers(0.2, 0.1), "ticks=148753 popped=30995 thinned=0 resizes=5 crossings=5 duration=0x4066c27848c8b1f4 counts=[1000, 0] hash=0x6a259715c037627e");
}

#[test]
fn leader_signal_loss() {
    check_leader(leader(1_000, 3).with_signal_loss(0.3), "ticks=125896 popped=23719 thinned=103532 resizes=5 crossings=3 duration=0x405f9525c85c9cef counts=[1000, 0] hash=0xb227b1136c4c7373");
}

#[test]
fn leader_ring() {
    check_leader(leader(600, 4).with_topology(Topology::Ring), "ticks=722821 popped=127259 thinned=596826 resizes=5 crossings=1 duration=0x4092d646f5ace50a counts=[504, 96] hash=0x344e859a72122a62");
}

#[test]
fn leader_erlang_latency() {
    check_leader(
        leader(1_000, 5).with_latency(Latency::erlang(3, 3.0).unwrap()),
        "ticks=68364 popped=81930 thinned=0 resizes=5 crossings=0 duration=0x4050f82a3f094f7e counts=[1000, 0] hash=0xf91ac12013b07d65",
    );
}

#[test]
fn leader_scenario() {
    check_leader(
        leader(1_000, 6).with_scenario(Scenario::parse(SCENARIO).unwrap()),
        "ticks=153008 popped=158409 thinned=0 resizes=11 crossings=0 duration=0x40631239660da2ce counts=[1000, 0] hash=0x58f55e89a0254a5a",
    );
}

#[test]
fn leader_monochromatic_start() {
    let cfg = LeaderConfig::new(InitialAssignment::Exact(vec![300, 0])).with_seed(7);
    check_leader(cfg.with_steps_per_unit(9.3), "ticks=0 popped=0 thinned=0 resizes=0 crossings=0 duration=0x0000000000000000 counts=[300, 0] hash=0xee89604502430aa5");
}

#[test]
fn leader_full_record() {
    check_leader(leader(800, 8).with_record(RecordLevel::Full), "ticks=61830 popped=12583 thinned=50808 resizes=5 crossings=1 duration=0x405352eb8c802a0c counts=[800, 0] hash=0x63e95290be9ee9ec");
}

#[test]
fn leader_traced() {
    check_leader(leader(800, 9).with_trace(true), "ticks=76601 popped=15912 thinned=62935 resizes=5 crossings=1 duration=0x4057fa3afb8f6e20 counts=[800, 0] hash=0x02f936a85f4d6ad8");
}

#[test]
fn cluster_default_complete_exponential() {
    let cfg = ClusterConfig::new(InitialAssignment::with_bias(1_200, 3, 2.5).unwrap()).with_seed(1);
    check_cluster(cfg, "ticks=279673 popped=49260 thinned=234293 resizes=5 crossings=20 duration=0x406d1eb928ddef46 counts=[1200, 0, 0] hash=0x7bb89728c90a4a61");
}

#[test]
fn cluster_ring() {
    check_cluster(cluster(600, 2).with_topology(Topology::Ring), "ticks=1297762 popped=209767 thinned=1089039 resizes=5 crossings=82 duration=0x40a0e186bc5d7f2e counts=[424, 176] hash=0xb997b54fb817d1f2");
}

#[test]
fn cluster_weibull_latency() {
    let latency = Latency::weibull_with_mean(2.0, 1.0).unwrap();
    check_cluster(cluster(1_000, 3).with_latency(latency), "ticks=205225 popped=217028 thinned=0 resizes=9 crossings=0 duration=0x40699bc3dd1f4676 counts=[1000, 0] hash=0x93b990f80cd53e88");
}

#[test]
fn cluster_scenario() {
    check_cluster(
        cluster(1_000, 4).with_scenario(Scenario::parse(SCENARIO).unwrap()),
        "ticks=303427 popped=292465 thinned=0 resizes=10 crossings=0 duration=0x4072f1e26c7f63ac counts=[1000, 0] hash=0xd3da1c82fcdb94b7",
    );
}

#[test]
fn cluster_full_record() {
    check_cluster(cluster(800, 5).with_record(RecordLevel::Full), "ticks=218348 popped=37958 thinned=182924 resizes=5 crossings=17 duration=0x40710599e9e83e62 counts=[800, 0] hash=0xe2d066e179ea4328");
}
