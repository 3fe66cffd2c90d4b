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
//! re-record them and say so. The `*_outcomes` pins of the
//! non-exponential travel laws leave the `EngineProfile` counters out
//! (see [`outcome_pin`]): they pin the run, not its queue traffic.

use plurality_core::cluster::ClusterConfig;
use plurality_core::leader::LeaderConfig;
use plurality_core::sync::SyncConfig;
use plurality_core::{InitialAssignment, RecordLevel, RunOutcome};
use plurality_dist::Latency;
use plurality_obs::EngineProfile;
use plurality_scenario::Scenario;
use plurality_topology::Topology;

const SCENARIO: &str = "rewire:er:0.02@10;crash:0.2@15;burst-loss:0.4@5..20;\
                        latency:3@10..40;corrupt:0.1:adaptive@25;join:0.2@40";

/// The round-engine scenario: every effect kind the round engines act
/// on (loss burst, crash, adaptive corruption, rewire, join, recover)
/// inside the first six rounds.
const ROUND_SCENARIO: &str = "burst-loss:0.3@1..4;crash:0.2@2;corrupt:0.1:adaptive@3;\
                              rewire:er:0.02@4;join:0.2@5;recover:0.2@6";

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
    let cfg = leader(1_000, 2).with_scenario(Scenario::parse("stragglers:0.2:0.1").unwrap());
    check_leader(cfg, "ticks=148753 popped=30995 thinned=0 resizes=5 crossings=5 duration=0x4066c27848c8b1f4 counts=[1000, 0] hash=0x6a259715c037627e");
}

#[test]
fn leader_stragglers_sparse() {
    let cfg = leader(1_000, 5).with_topology(Topology::PreferentialAttachment { m: 4 });
    check_leader(cfg.with_scenario(Scenario::parse("stragglers:0.2:0.2").unwrap()), "ticks=1018200 popped=196600 thinned=0 resizes=5 crossings=1 duration=0x4092eab5d0660663 counts=[996, 4] hash=0x78b392ab1554369f");
}

#[test]
fn leader_signal_loss() {
    let cfg = leader(1_000, 3).with_scenario(Scenario::parse("signal-loss:0.3").unwrap());
    check_leader(cfg, "ticks=125896 popped=23719 thinned=103532 resizes=5 crossings=3 duration=0x405f9525c85c9cef counts=[1000, 0] hash=0xb227b1136c4c7373");
}

#[test]
fn leader_ring() {
    check_leader(leader(600, 4).with_topology(Topology::Ring), "ticks=722821 popped=127259 thinned=596826 resizes=5 crossings=1 duration=0x4092d646f5ace50a counts=[504, 96] hash=0x344e859a72122a62");
}

#[test]
fn leader_erlang_latency() {
    check_leader(
        leader(1_000, 5).with_latency(Latency::erlang(3, 3.0).unwrap()),
        "ticks=68364 popped=14599 thinned=0 resizes=4 crossings=0 duration=0x4050f82a3f094f7e counts=[1000, 0] hash=0xd3153be439d3ab75",
    );
}

#[test]
fn leader_scenario() {
    check_leader(
        leader(1_000, 6).with_scenario(Scenario::parse(SCENARIO).unwrap()),
        "ticks=153008 popped=26022 thinned=0 resizes=9 crossings=5 duration=0x40631239660da2ce counts=[1000, 0] hash=0xb8fa6c59af835d15",
    );
}

#[test]
fn leader_monochromatic_start() {
    let cfg = LeaderConfig::new(InitialAssignment::Exact(vec![300, 0])).with_seed(7);
    check_leader(cfg.with_steps_per_unit(9.3), "ticks=0 popped=0 thinned=0 resizes=0 crossings=0 duration=0x0000000000000000 counts=[300, 0] hash=0xee89604502430aa5");
}

#[test]
fn leader_full_record() {
    check_leader(leader(800, 8).with_record(RecordLevel::Full), "ticks=61830 popped=12583 thinned=50808 resizes=5 crossings=1 duration=0x405352eb8c802a0c counts=[800, 0] hash=0x5299effdebfe3b69");
}

#[test]
fn leader_full_record_erlang() {
    // A full-record leader run off the jump-chain path: the winner
    // series stamps its grid while the 0-signals are counted.
    let cfg = LeaderConfig::new(InitialAssignment::with_bias(800, 4, 1.5).unwrap())
        .with_seed(1)
        .with_steps_per_unit(9.3)
        .with_latency(Latency::erlang(3, 3.0).unwrap())
        .with_record(RecordLevel::Full);
    check_leader(cfg, "ticks=121289 popped=25774 thinned=0 resizes=4 crossings=4 duration=0x4062f47d0c3733fd counts=[800, 0, 0, 0] hash=0x565b7c3a31bf4326");
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
    check_cluster(cluster(1_000, 3).with_latency(latency), "ticks=205225 popped=38684 thinned=0 resizes=6 crossings=12 duration=0x40699bc3dd1f4676 counts=[1000, 0] hash=0x76254ccd55a0edb9");
}

#[test]
fn cluster_scenario() {
    check_cluster(
        cluster(1_000, 4).with_scenario(Scenario::parse(SCENARIO).unwrap()),
        "ticks=303427 popped=48566 thinned=0 resizes=8 crossings=26 duration=0x4072f1e26c7f63ac counts=[1000, 0] hash=0xbb62415bd0865ffb",
    );
}

#[test]
fn cluster_full_record() {
    check_cluster(cluster(800, 5).with_record(RecordLevel::Full), "ticks=218348 popped=37958 thinned=182924 resizes=5 crossings=17 duration=0x40710599e9e83e62 counts=[800, 0] hash=0xe2d066e179ea4328");
}

#[test]
fn cluster_scenario_sparse() {
    let cfg = cluster(1_000, 6).with_topology(Topology::PreferentialAttachment { m: 4 });
    let scenario = Scenario::parse("burst-loss:0.3@10..40;crash:0.1@20;recover:1@60").unwrap();
    check_cluster(cfg.with_scenario(scenario), "ticks=316339 popped=53163 thinned=0 resizes=5 crossings=17 duration=0x4073ccb72b77c256 counts=[1000, 0] hash=0xc4b16bf0d2be029c");
}

#[test]
fn cluster_signal_loss() {
    let cfg = cluster(1_000, 7).with_scenario(Scenario::parse("signal-loss:0.1").unwrap());
    check_cluster(cfg, "ticks=310375 popped=53283 thinned=259917 resizes=5 crossings=16 duration=0x4073718ab7743110 counts=[1000, 0] hash=0x01ab0ffe15c3e0b7");
}

#[test]
fn cluster_stragglers() {
    let cfg = cluster(1_000, 8).with_scenario(Scenario::parse("stragglers:0.2:0.1").unwrap());
    check_cluster(cfg, "ticks=263039 popped=49195 thinned=0 resizes=5 crossings=17 duration=0x407415f8c5146c76 counts=[1000, 0] hash=0xbe58037e512011fb");
}

#[test]
fn cluster_stragglers_sparse() {
    let cfg = cluster(1_000, 9).with_topology(Topology::PreferentialAttachment { m: 4 });
    check_cluster(cfg.with_scenario(Scenario::parse("stragglers:0.2:0.2").unwrap()), "ticks=269505 popped=51225 thinned=0 resizes=5 crossings=21 duration=0x40741b9bdc07b8bc counts=[1000, 0] hash=0xa6de53ea63331245");
}

/// An outcome-only pin: the tick count, the duration's bits, the final
/// counts and the FNV-1a hash of the result's `Debug` text with its
/// `profile` and `trace` cleared. The cases below run the 0-signal path
/// of non-exponential travel laws, which may route its arrivals through
/// any exact mechanism (and so pop, resize and cross differently) but
/// must keep every observable of the run.
fn outcome_pin(ticks: u64, o: &RunOutcome, debug: &str) -> String {
    format!(
        "ticks={ticks} duration={:#018x} counts={:?} hash={:#018x}",
        o.duration.to_bits(),
        o.final_counts.as_slice(),
        fnv1a(debug),
    )
}

/// The four non-exponential travel laws of the outcome pins.
fn law(name: &str) -> Latency {
    match name {
        "erlang" => Latency::erlang(3, 3.0),
        "weibull" => Latency::weibull_with_mean(2.0, 1.0),
        "uniform" => Latency::uniform(0.5, 1.5),
        "deterministic" => Latency::deterministic(1.0),
        _ => unreachable!("unknown law {name}"),
    }
    .unwrap()
}

/// Each law's outcome cases: two seeds on the complete graph, then two
/// on a smaller ring whose runs are capped at 400 steps.
fn outcome_cases() -> [(u64, Topology, u64); 4] {
    [
        (800, Topology::Complete, 21),
        (800, Topology::Complete, 22),
        (200, Topology::Ring, 23),
        (200, Topology::Ring, 24),
    ]
}

fn leader_outcome(cfg: LeaderConfig) -> String {
    let mut r = cfg.run();
    (r.profile, r.trace) = (EngineProfile::default(), None);
    outcome_pin(r.ticks, &r.outcome, &format!("{r:?}"))
}

fn cluster_outcome(cfg: ClusterConfig) -> String {
    let mut r = cfg.run();
    (r.profile, r.trace) = (EngineProfile::default(), None);
    outcome_pin(r.ticks, &r.outcome, &format!("{r:?}"))
}

fn check_leader_outcomes(name: &str, expected: [&str; 4]) {
    let got = outcome_cases().map(|(n, topology, seed)| {
        let cfg = leader(n, seed)
            .with_latency(law(name))
            .with_topology(topology);
        leader_outcome(match topology {
            Topology::Ring => cfg.with_max_time(400.0),
            _ => cfg,
        })
    });
    assert_eq!(got, expected, "leader, {name} latency");
}

fn check_cluster_outcomes(name: &str, expected: [&str; 4]) {
    let got = outcome_cases().map(|(n, topology, seed)| {
        let cfg = cluster(n, seed)
            .with_latency(law(name))
            .with_topology(topology);
        cluster_outcome(match topology {
            Topology::Ring => cfg.with_max_time(400.0),
            _ => cfg,
        })
    });
    assert_eq!(got, expected, "cluster, {name} latency");
}

#[test]
fn leader_erlang_outcomes() {
    check_leader_outcomes(
        "erlang",
        [
            "ticks=54436 duration=0x40510021aede0ff0 counts=[800, 0] hash=0xd6974677b1f7720b",
            "ticks=61334 duration=0x4052f843b3bcddc7 counts=[800, 0] hash=0x0f755c5bf091a544",
            "ticks=80405 duration=0x4079000000000000 counts=[158, 42] hash=0x77deb03dff12fa4e",
            "ticks=80016 duration=0x4079000000000000 counts=[142, 58] hash=0x80d62cdf5ce1041c",
        ],
    );
}

#[test]
fn leader_weibull_outcomes() {
    check_leader_outcomes(
        "weibull",
        [
            "ticks=52785 duration=0x4050949758e3c0b0 counts=[800, 0] hash=0xa9e9acca679bac07",
            "ticks=59799 duration=0x4052a0620773be37 counts=[800, 0] hash=0xb3b575d45216f9cc",
            "ticks=80363 duration=0x4079000000000000 counts=[167, 33] hash=0x39f60d2c32a3aacb",
            "ticks=79555 duration=0x4079000000000000 counts=[153, 47] hash=0x8bad5562a75e70c6",
        ],
    );
}

#[test]
fn leader_uniform_outcomes() {
    check_leader_outcomes(
        "uniform",
        [
            "ticks=54525 duration=0x40511e0d83bfe906 counts=[800, 0] hash=0xab8dd7d7f4f1479c",
            "ticks=58285 duration=0x40521ef44cf5c6ce counts=[800, 0] hash=0x1483233883467468",
            "ticks=80321 duration=0x4079000000000000 counts=[153, 47] hash=0xeab80ff5032256fe",
            "ticks=80026 duration=0x4079000000000000 counts=[144, 56] hash=0xe8cb4f163d503bb6",
        ],
    );
}

#[test]
fn leader_deterministic_outcomes() {
    check_leader_outcomes(
        "deterministic",
        [
            "ticks=48093 duration=0x404de91844af22ec counts=[800, 0] hash=0xb4d37c4b28a4cff2",
            "ticks=52328 duration=0x4050574750ef8e23 counts=[800, 0] hash=0xe18d7ab2c780216f",
            "ticks=79664 duration=0x4079000000000000 counts=[162, 38] hash=0x9837fcf558d6f82c",
            "ticks=79648 duration=0x4079000000000000 counts=[152, 48] hash=0x714788904d081b9c",
        ],
    );
}

#[test]
fn cluster_erlang_outcomes() {
    check_cluster_outcomes(
        "erlang",
        [
            "ticks=215177 duration=0x4070caa39afccc6d counts=[800, 0] hash=0x6034e6fe08ca82fa",
            "ticks=219436 duration=0x40713137437a45a1 counts=[800, 0] hash=0x656ade7f108a9984",
            "ticks=79443 duration=0x4079000000000000 counts=[158, 42] hash=0x73c6e18d0ff30a74",
            "ticks=80408 duration=0x4079000000000000 counts=[166, 34] hash=0x48580619b188e93e",
        ],
    );
}

#[test]
fn cluster_weibull_outcomes() {
    check_cluster_outcomes(
        "weibull",
        [
            "ticks=132139 duration=0x40649ebefa0973f9 counts=[800, 0] hash=0x6c67f6d691b4e4b8",
            "ticks=166041 duration=0x4069fa6bfae18b8e counts=[800, 0] hash=0xa3359056ffd5e516",
            "ticks=79781 duration=0x4079000000000000 counts=[162, 38] hash=0x5521289f2a7ef617",
            "ticks=80181 duration=0x4079000000000000 counts=[178, 22] hash=0xadd17d3f5d20eb80",
        ],
    );
}

#[test]
fn cluster_uniform_outcomes() {
    check_cluster_outcomes(
        "uniform",
        [
            "ticks=162953 duration=0x406985858f8a64a3 counts=[800, 0] hash=0x6e5a7a7eae9d2a7f",
            "ticks=214777 duration=0x4070d6681a0bfc99 counts=[800, 0] hash=0xe0c57851b8054241",
            "ticks=79651 duration=0x4079000000000000 counts=[144, 56] hash=0xd4b33f174b4db87e",
            "ticks=80151 duration=0x4079000000000000 counts=[162, 38] hash=0x585d0c95eddf1888",
        ],
    );
}

#[test]
fn cluster_deterministic_outcomes() {
    check_cluster_outcomes(
        "deterministic",
        [
            "ticks=158399 duration=0x4068bebb4f35e4c3 counts=[800, 0] hash=0xd142ac249e76a683",
            "ticks=209097 duration=0x4070485a7bf9a314 counts=[800, 0] hash=0xaa6ff06ac7efbb32",
            "ticks=80090 duration=0x4079000000000000 counts=[158, 42] hash=0xf036657fbdd409d8",
            "ticks=80111 duration=0x4079000000000000 counts=[178, 22] hash=0x47d1e67586806ab2",
        ],
    );
}

#[test]
fn leader_crossing_outcomes() {
    // Four opinions at bias 1.5: the leader's 0-signal window closes
    // three or four times per run, not only on the ring.
    let got = [
        ("erlang", 27),
        ("erlang", 28),
        ("deterministic", 27),
        ("deterministic", 28),
    ]
    .map(|(name, seed)| {
        let assignment = InitialAssignment::with_bias(800, 4, 1.5).unwrap();
        let cfg = LeaderConfig::new(assignment).with_seed(seed);
        leader_outcome(cfg.with_steps_per_unit(9.3).with_latency(law(name)))
    });
    assert_eq!(
        got,
        [
            "ticks=108460 duration=0x4060f685c5132441 counts=[800, 0, 0, 0] hash=0x7e0806d663594f71",
            "ticks=113374 duration=0x4061c00c9906edc5 counts=[800, 0, 0, 0] hash=0x8bb17ccf76731c90",
            "ticks=124228 duration=0x406357a6bb67d7d8 counts=[800, 0, 0, 0] hash=0xba798b6b91976ccb",
            "ticks=115810 duration=0x406216047e81960a counts=[800, 0, 0, 0] hash=0x496db6df9c8159fb",
        ]
    );
}

#[test]
fn run_long_actions_outcomes() {
    let scenario = Scenario::parse("signal-loss:0.2;stragglers:0.2:0.1").unwrap();
    let got = [
        leader_outcome(
            leader(800, 25)
                .with_latency(law("erlang"))
                .with_scenario(scenario.clone()),
        ),
        cluster_outcome(
            cluster(800, 26)
                .with_latency(law("uniform"))
                .with_scenario(scenario),
        ),
    ];
    assert_eq!(
        got,
        [
            "ticks=137489 duration=0x406a168dab869a9d counts=[800, 0] hash=0xef0faf488644b4cb",
            "ticks=1419032 duration=0x40a0e86e4123f301 counts=[791, 9] hash=0x190810a1af85d638",
        ]
    );
}

/// The timeline scenarios of the outcome pins: between them they script
/// every timeline action, some at non-integer times. The first runs on
/// the complete graph, the second (which rewires it) on the ring.
const TIMELINE: [&str; 2] = [
    "burst-loss:0.4@5.5..20.25;latency:3@10..40.5;crash:0.2@15.75;\
     corrupt:0.1:adaptive@25.5;join:0.2@40.25",
    "crash:0.1@8.5;corrupt:0.05@12.25;rewire:er:0.02@20.75;recover:1@30;latency:0.5@35",
];

/// Each engine's timeline cases: exponential and Erlang travel, each
/// on the complete graph (n = 800) and on a ring (n = 200, capped at
/// 400 steps).
fn timeline_cases() -> [(&'static str, u64, Topology, u64); 4] {
    [
        ("exp", 800, Topology::Complete, 31),
        ("erlang", 800, Topology::Complete, 32),
        ("exp", 200, Topology::Ring, 33),
        ("erlang", 200, Topology::Ring, 34),
    ]
}

fn timeline_latency(name: &str) -> Latency {
    match name {
        "exp" => Latency::exponential(1.0).unwrap(),
        _ => law(name),
    }
}

fn timeline_scenario(topology: Topology) -> Scenario {
    let script = match topology {
        Topology::Ring => TIMELINE[1],
        _ => TIMELINE[0],
    };
    Scenario::parse(script).unwrap()
}

#[test]
fn leader_timeline_outcomes() {
    let got = timeline_cases().map(|(name, n, topology, seed)| {
        let cfg = leader(n, seed)
            .with_latency(timeline_latency(name))
            .with_topology(topology)
            .with_scenario(timeline_scenario(topology));
        leader_outcome(match topology {
            Topology::Ring => cfg.with_max_time(400.0),
            _ => cfg,
        })
    });
    assert_eq!(
        got,
        [
            "ticks=103218 duration=0x40601949977aede2 counts=[800, 0] hash=0x24633f543f333839",
            "ticks=119799 duration=0x4062c2b5b5ce7e9f counts=[800, 0] hash=0xde50c30a49df7ed7",
            "ticks=79989 duration=0x4079000000000000 counts=[194, 6] hash=0x2524d900e3b1156e",
            "ticks=80246 duration=0x4079000000000000 counts=[190, 10] hash=0x6359947dd4ef657b",
        ]
    );
}

#[test]
fn cluster_timeline_outcomes() {
    let got = timeline_cases().map(|(name, n, topology, seed)| {
        let cfg = cluster(n, seed)
            .with_latency(timeline_latency(name))
            .with_topology(topology)
            .with_scenario(timeline_scenario(topology));
        cluster_outcome(match topology {
            Topology::Ring => cfg.with_max_time(400.0),
            _ => cfg,
        })
    });
    assert_eq!(
        got,
        [
            "ticks=258850 duration=0x407435e91f01fd4c counts=[800, 0] hash=0xee3d78533c981795",
            "ticks=241789 duration=0x4072e672b4217916 counts=[800, 0] hash=0xade254e846f753d2",
            "ticks=80012 duration=0x4079000000000000 counts=[199, 1] hash=0xcc07f7d082528c78",
            "ticks=56971 duration=0x4071efd84d5da78e counts=[200, 0] hash=0x462ae2105ea5f258",
        ]
    );
}

fn sync(n: u64, seed: u64) -> SyncConfig {
    SyncConfig::new(InitialAssignment::with_bias(n, 3, 2.0).unwrap())
        .with_seed(seed)
        .with_scenario(Scenario::parse(ROUND_SCENARIO).unwrap())
}

fn check_sync(cfg: SyncConfig, expected: &str) {
    let r = cfg.run();
    let line = format!(
        "rounds={} duration={:#018x} counts={:?} hash={:#018x}",
        r.rounds,
        r.outcome.duration.to_bits(),
        r.outcome.final_counts.as_slice(),
        fnv1a(&format!("{r:?}")),
    );
    assert_eq!(line, expected);
}

#[test]
fn sync_scenario_complete() {
    check_sync(
        sync(2_000, 1),
        "rounds=171 duration=0x4065600000000000 counts=[1998, 2, 0] hash=0x2373118d3d813761",
    );
}

#[test]
fn sync_scenario_ring() {
    check_sync(
        sync(1_000, 2).with_topology(Topology::Ring),
        "rounds=167 duration=0x4064e00000000000 counts=[775, 0, 225] hash=0x1b45b75d4a66b651",
    );
}

#[test]
fn sync_scenario_full_record_traced() {
    let cfg = sync(1_500, 3)
        .with_record(RecordLevel::Full)
        .with_trace(true);
    check_sync(
        cfg,
        "rounds=27 duration=0x403b000000000000 counts=[1500, 0, 0] hash=0x08efea96fe42af68",
    );
}
