//! **Perf snapshot** — machine-readable performance trajectory.
//!
//! Measures median throughput of the hot samplers, wall-clock of one
//! smoke-scale run per engine, and the serial-vs-parallel wall-clock of a
//! smoke-scale Theorem 13 (E8) cell (with a bitwise equality check
//! of the aggregate results, exercising the parallel determinism
//! contract end to end). Writes everything as a flat JSON map to
//! `benchmarks/BENCH_perf_snapshot.json` (directory overridable via
//! `PLURALITY_BENCH_JSON`) so future PRs can diff performance.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p plurality-bench --bin perf_snapshot            # write snapshot
//! cargo run --release -p plurality-bench --bin perf_snapshot -- --check # CI: compare
//! ```
//!
//! With `--check`, the freshly measured snapshot is *not* written;
//! instead it is compared against the committed baseline
//! `benchmarks/BENCH_perf_snapshot.json` (read first, relative to the
//! working directory, whatever `PLURALITY_BENCH_JSON` says; exit 1 at
//! once if it is missing), and the process
//! exits non-zero if the baseline contains a metric the fresh snapshot no
//! longer produces (a silently dropped benchmark), or if any `profile/*`
//! counter differs from its baseline value. Those counters are pure
//! functions of fixed seeds, so they must match to the digit; timing keys
//! are machine-dependent and only checked for presence.

use plurality_agg::LeaderMfConfig;
use plurality_baselines::{Dynamics, DynamicsConfig, PopulationConfig, PopulationProtocol};
use plurality_core::cluster::ClusterConfig;
use plurality_core::leader::LeaderConfig;
use plurality_core::sync::{SyncConfig, UrnConfig};
use plurality_core::InitialAssignment;
use plurality_dist::rng::Xoshiro256PlusPlus;
use plurality_dist::{
    sample_binomial, sample_poisson, AliasTable, ChannelPattern, Exponential, Gamma, Latency,
    WaitingTime, Weibull,
};
use plurality_sim::CalendarQueue;
use plurality_topology::Topology;
use rand::{Rng, RngCore};
use std::path::Path;
use std::time::Instant;

/// The snapshot's file name, in `benchmarks/` or the snapshot directory.
const SNAPSHOT_FILE: &str = "BENCH_perf_snapshot.json";

/// Measurement effort. [`Effort::full`] produces the committed
/// snapshot; [`Effort::quick`] backs `--check`, which needs only the
/// timing keys' *names* — every batch and repetition shrinks to near-zero
/// cost while the names keep a single source of truth (the measurement
/// code itself). The `profile/*` counters do not depend on the effort.
#[derive(Clone, Copy)]
struct Effort {
    timing_samples: usize,
    batch_divisor: u32,
    engine_runs: usize,
    thm13_n: u64,
    thm13_reps: usize,
}

impl Effort {
    fn full() -> Self {
        Self {
            timing_samples: 9,
            batch_divisor: 1,
            engine_runs: 3,
            thm13_n: 5_000,
            thm13_reps: 6,
        }
    }

    fn quick() -> Self {
        Self {
            timing_samples: 1,
            batch_divisor: 1_000,
            engine_runs: 1,
            thm13_n: 500,
            thm13_reps: 2,
        }
    }

    fn batch(&self, full: u32) -> u32 {
        (full / self.batch_divisor).max(1)
    }
}

/// Median of `samples` timed batches of `batch` calls, in ns per call.
fn median_ns<F: FnMut()>(batch: u32, samples: usize, mut f: F) -> f64 {
    let mut timings = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        timings.push(start.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    timings[timings.len() / 2]
}

/// Median wall-clock of `samples` runs of `f`, in milliseconds.
fn median_ms<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    let mut timings = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        f();
        timings.push(start.elapsed().as_nanos() as f64 / 1e6);
    }
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    timings[timings.len() / 2]
}

fn sampler_metrics(metrics: &mut Vec<(String, f64)>, eff: Effort) {
    let mut rng = Xoshiro256PlusPlus::from_u64(1);
    metrics.push((
        "sampler/xoshiro_u64_ns".into(),
        median_ns(eff.batch(100_000), eff.timing_samples, || {
            std::hint::black_box(rng.next_u64());
        }),
    ));
    let exp = Exponential::new(1.0).expect("valid rate");
    metrics.push((
        "sampler/exponential_ns".into(),
        median_ns(eff.batch(100_000), eff.timing_samples, || {
            std::hint::black_box(exp.sample(&mut rng));
        }),
    ));
    let gamma = Gamma::new(7.0, 1.0).expect("valid params");
    metrics.push((
        "sampler/gamma_shape7_ns".into(),
        median_ns(eff.batch(50_000), eff.timing_samples, || {
            std::hint::black_box(gamma.sample(&mut rng));
        }),
    ));
    let weibull = Weibull::new(1.5, 1.0).expect("valid params");
    metrics.push((
        "sampler/weibull_ns".into(),
        median_ns(eff.batch(50_000), eff.timing_samples, || {
            std::hint::black_box(weibull.sample(&mut rng));
        }),
    ));
    metrics.push((
        "sampler/binomial_n1e6_ns".into(),
        median_ns(eff.batch(20_000), eff.timing_samples, || {
            std::hint::black_box(sample_binomial(1_000_000, 0.3, &mut rng));
        }),
    ));
    // The split leader-mf's lock step draws most (37 offsets at dt 0.5),
    // at counts log-uniform over 10²–10⁸: ns per split.
    let phase_split = LeaderMfConfig::from_counts(vec![1, 1])
        .with_dt(0.5)
        .phase_split();
    let counts: Vec<u64> = (0..1024)
        .map(|_| 10f64.powf(2.0 + 6.0 * rng.gen::<f64>()) as u64)
        .collect();
    let mut out = vec![0u64; 64];
    let mut next = 0usize;
    metrics.push((
        "sampler/binomial_mf_split_ns".into(),
        median_ns(eff.batch(5_000), eff.timing_samples, || {
            next = (next + 1) & 1023;
            std::hint::black_box(phase_split.split(counts[next], &mut out, &mut rng));
        }),
    ));
    metrics.push((
        "sampler/poisson_1000_ns".into(),
        median_ns(eff.batch(50_000), eff.timing_samples, || {
            std::hint::black_box(sample_poisson(1000.0, &mut rng));
        }),
    ));
    let weights: Vec<f64> = (1..=64).map(|i| 1.0 / f64::from(i)).collect();
    let alias = AliasTable::new(&weights).expect("valid weights");
    metrics.push((
        "sampler/alias_table_k64_ns".into(),
        median_ns(eff.batch(100_000), eff.timing_samples, || {
            std::hint::black_box(alias.sample(&mut rng));
        }),
    ));
    let wt = WaitingTime::new(
        Latency::exponential(1.0).expect("valid rate"),
        ChannelPattern::SingleLeader,
    );
    metrics.push((
        "sampler/waiting_time_t3_ns".into(),
        median_ns(eff.batch(50_000), eff.timing_samples, || {
            std::hint::black_box(wt.sample_t3(&mut rng));
        }),
    ));
    metrics.push((
        "sim/calendar_queue_push_pop_1k_ns".into(),
        median_ns(eff.batch(50), eff.timing_samples, || {
            let mut q = CalendarQueue::new();
            for i in 0..1000u32 {
                q.schedule(f64::from(i.wrapping_mul(2654435761) % 10_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc += u64::from(v);
            }
            std::hint::black_box(acc);
        }),
    ));
    // The async kernel's own queue pattern, one loop iteration per call:
    // a steady hold model of ~2k pending 20-byte events (the size of the
    // kernel's `Event`) raced by an external tick chain through
    // `pop_before`. A hit schedules the event's successor an Erlang(3)
    // delay later; a miss advances the clock to the tick (one in five
    // iterations). Delays come from a precomputed table, so the key times
    // the queue, not the samplers.
    let delays: Vec<f64> = (0..4096).map(|_| exp.sample(&mut rng)).collect();
    let mut q = CalendarQueue::new();
    for i in 0..2_000u32 {
        q.schedule(delays[i as usize], [i; 5]);
    }
    let (mut tick, mut d) = (0.0f64, 0usize);
    let mut hold_step = || {
        let mut draw = || {
            d = (d + 1) & 4095;
            delays[d]
        };
        match q.pop_before(tick) {
            Some((t, ev)) => q.schedule(t + (draw() + draw() + draw()) / 3.0, ev),
            None => {
                q.advance_to(tick);
                tick += 0.002 * draw();
            }
        }
    };
    // Settle the ramp-up resizes before timing.
    for _ in 0..100_000 {
        hold_step();
    }
    metrics.push((
        "sim/calendar_queue_hold_2k_ns".into(),
        median_ns(eff.batch(200_000), eff.timing_samples, hold_step),
    ));
}

fn engine_metrics(metrics: &mut Vec<(String, f64)>, eff: Effort) {
    metrics.push((
        "engine/sync_n10k_k4_ms".into(),
        median_ms(eff.engine_runs, || {
            let assignment = InitialAssignment::with_bias(10_000, 4, 2.0).expect("valid");
            std::hint::black_box(SyncConfig::new(assignment).with_seed(1).run().rounds);
        }),
    ));
    // The round kernel's other engines: one gossip dynamic (simultaneous
    // rounds, per-round re-tally) and one population protocol (one pair
    // per step, n steps per unit of parallel time).
    metrics.push((
        "engine/three_majority_n10k_ms".into(),
        median_ms(eff.engine_runs, || {
            let assignment = InitialAssignment::with_bias(10_000, 4, 2.0).expect("valid");
            let r = DynamicsConfig::new(Dynamics::ThreeMajority, assignment)
                .with_seed(1)
                .run();
            std::hint::black_box(r.rounds);
        }),
    ));
    metrics.push((
        "engine/approx_majority_n10k_ms".into(),
        median_ms(eff.engine_runs, || {
            let protocol = PopulationProtocol::ApproximateMajority;
            let r = PopulationConfig::new(protocol, 10_000, 6_000)
                .with_seed(1)
                .run();
            std::hint::black_box(r.interactions);
        }),
    ));
    metrics.push((
        "engine/leader_n2k_k2_ms".into(),
        median_ms(eff.engine_runs, || {
            let assignment = InitialAssignment::with_bias(2_000, 2, 3.0).expect("valid");
            let r = LeaderConfig::new(assignment)
                .with_seed(1)
                .with_steps_per_unit(9.3)
                .run();
            std::hint::black_box(r.ticks);
        }),
    ));
    // Erlang travel: no jump chains, so every 0-signal is sent and
    // counted exactly (the non-exponential 0-signal path).
    metrics.push((
        "engine/leader_erlang_n1k_ms".into(),
        median_ms(eff.engine_runs, || {
            std::hint::black_box(leader_erlang_n1k().ticks);
        }),
    ));
    metrics.push((
        "engine/cluster_n2k_k2_ms".into(),
        median_ms(eff.engine_runs, || {
            let assignment = InitialAssignment::with_bias(2_000, 2, 3.0).expect("valid");
            let r = ClusterConfig::new(assignment)
                .with_seed(1)
                .with_steps_per_unit(12.0)
                .run();
            std::hint::black_box(r.ticks);
        }),
    ));
    // Sparse-topology keys: the ring is the slowest-mixing connected
    // graph, so consensus does not arrive inside the horizon — the runs
    // are fixed-horizon sweeps (`max_time = 500`) that measure the
    // adjacency-sampling hot path rather than the complete-graph fast
    // path above.
    metrics.push((
        "engine/leader_ring_n2k_k2_ms".into(),
        median_ms(eff.engine_runs, || {
            let assignment = InitialAssignment::with_bias(2_000, 2, 3.0).expect("valid");
            let r = LeaderConfig::new(assignment)
                .with_seed(1)
                .with_steps_per_unit(9.3)
                .with_topology(Topology::Ring)
                .with_max_time(500.0)
                .run();
            std::hint::black_box(r.ticks);
        }),
    ));
    metrics.push((
        "engine/cluster_ring_n2k_k2_ms".into(),
        median_ms(eff.engine_runs, || {
            let assignment = InitialAssignment::with_bias(2_000, 2, 3.0).expect("valid");
            let r = ClusterConfig::new(assignment)
                .with_seed(1)
                .with_steps_per_unit(12.0)
                .with_topology(Topology::Ring)
                .with_max_time(500.0)
                .run();
            std::hint::black_box(r.ticks);
        }),
    ));
    // Mean-field keys: cost is independent of n, so these hold the
    // 10⁸-node wall-clock on the trajectory.
    metrics.push((
        "engine/urn_n1e8_k8_ms".into(),
        median_ms(eff.engine_runs, || {
            let r = UrnConfig::new(100_000_000, 8, 1.5)
                .expect("valid")
                .with_seed(2)
                .run();
            std::hint::black_box(r.rounds);
        }),
    ));
    metrics.push((
        "engine/urn_n1e8_k3_ms".into(),
        median_ms(eff.engine_runs, || {
            let r = UrnConfig::new(100_000_000, 3, 1.5)
                .expect("valid")
                .with_seed(2)
                .run();
            std::hint::black_box(r.rounds);
        }),
    ));
    metrics.push((
        "engine/leader_mf_n1e8_ms".into(),
        median_ms(eff.engine_runs, || {
            let r = LeaderMfConfig::new(100_000_000, 4, 3.0)
                .expect("valid")
                .with_seed(2)
                .run();
            std::hint::black_box(r.sub_steps);
        }),
    ));
}

/// The leader run behind the `leader_erlang` keys: n = 1000, Erlang(3, 3)
/// travel latency.
fn leader_erlang_n1k() -> plurality_core::leader::LeaderResult {
    let assignment = InitialAssignment::with_bias(1_000, 2, 3.0).expect("valid");
    LeaderConfig::new(assignment)
        .with_seed(1)
        .with_steps_per_unit(9.3)
        .with_latency(Latency::erlang(3, 3.0).expect("valid"))
        .run()
}

/// One smoke-scale Theorem 13 (E8) cell under an explicit thread
/// count, for the serial-vs-parallel determinism check.
fn thm13_smoke(threads: usize, eff: Effort) -> Vec<plurality_core::leader::LeaderResult> {
    let (n, k, reps) = (eff.thm13_n, 4u32, eff.thm13_reps);
    let alpha = plurality_bench::theorem_bias(n, k).max(1.2);
    plurality_par::par_map_seeded_with(threads, 0xB13, reps, |_, seed| {
        let assignment = InitialAssignment::with_bias(n, k, alpha).expect("valid assignment");
        LeaderConfig::new(assignment).with_seed(seed).run()
    })
}

/// Serial and parallel runs of the Theorem 13 cell must agree bit for
/// bit. No wall time is recorded: at one worker (how the committed
/// snapshot is taken) the two timings would only measure run order.
fn experiment_metrics(metrics: &mut Vec<(String, f64)>, eff: Effort) {
    let threads = plurality_par::configured_threads();
    let identical = thm13_smoke(1, eff) == thm13_smoke(threads, eff);
    assert!(
        identical,
        "parallel determinism violated: thm13 smoke results differ between 1 and {threads} threads"
    );
    metrics.push(("thm13_smoke/parallel_threads".into(), threads as f64));
    metrics.push((
        "thm13_smoke/results_identical".into(),
        f64::from(u8::from(identical)),
    ));
}

/// Deterministic profiling counters: the engines' always-on
/// [`plurality_obs::EngineProfile`] numbers from fixed-seed smoke runs
/// (pure functions of the seed — they move only when the hot path
/// itself changes shape, making regressions in event traffic visible
/// on the trajectory), plus a fixed report-cache exercise counting
/// shard hits and misses.
fn profile_metrics(metrics: &mut Vec<(String, f64)>) {
    let assignment = InitialAssignment::with_bias(2_000, 2, 3.0).expect("valid");
    let leader = LeaderConfig::new(assignment.clone())
        .with_seed(1)
        .with_steps_per_unit(9.3)
        .run();
    metrics.push((
        "profile/leader_events_popped".into(),
        leader.profile.events_popped as f64,
    ));
    metrics.push((
        "profile/leader_signals_thinned".into(),
        leader.profile.signals_thinned as f64,
    ));
    metrics.push((
        "profile/leader_window_crossings".into(),
        leader.profile.window_crossings as f64,
    ));
    metrics.push((
        "profile/leader_erlang_events_popped".into(),
        leader_erlang_n1k().profile.events_popped as f64,
    ));
    let cluster = ClusterConfig::new(assignment)
        .with_seed(1)
        .with_steps_per_unit(12.0)
        .run();
    metrics.push((
        "profile/cluster_events_popped".into(),
        cluster.profile.events_popped as f64,
    ));
    metrics.push((
        "profile/cluster_queue_resizes".into(),
        cluster.profile.queue_resizes as f64,
    ));

    // Fixed cache exercise: 8 inserts, 12 probes → 8 shard hits and
    // 4 misses, spread across shards by the key hash.
    let cache = plurality_serve::ReportCache::new(1 << 20);
    let mut hits = 0u64;
    let mut misses = 0u64;
    for i in 0..8 {
        cache.insert(format!("spec-{i}"), std::sync::Arc::from("body"));
    }
    for i in 0..12 {
        match cache.get(&format!("spec-{i}")) {
            Some(_) => hits += 1,
            None => misses += 1,
        }
    }
    metrics.push(("profile/cache_shard_hits".into(), hits as f64));
    metrics.push(("profile/cache_shard_misses".into(), misses as f64));
}

/// Compares a fresh snapshot with the baseline entries: every baseline
/// key must still be measured, and every `profile/*` counter on either
/// side must equal its baseline value exactly. Returns one line per
/// failure.
fn check_failures(baseline: &[(String, f64)], fresh: &[(String, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, base) in baseline {
        match fresh.iter().find(|(name, _)| name == key) {
            None => failures.push(format!("{key}: missing from the fresh snapshot")),
            Some((_, value)) if key.starts_with("profile/") && value != base => {
                failures.push(format!("{key}: baseline {base} != fresh {value}"));
            }
            Some(_) => {}
        }
    }
    for (name, value) in fresh {
        if name.starts_with("profile/") && !baseline.iter().any(|(key, _)| key == name) {
            failures.push(format!("{name}: fresh {value} has no baseline value"));
        }
    }
    failures
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    // --check reads the committed baseline before it measures anything,
    // whatever the snapshot directory.
    let baseline = check.then(|| {
        let path = Path::new(plurality_bench::COMMITTED_DIR).join(SNAPSHOT_FILE);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read committed baseline {}: {e}", path.display());
            std::process::exit(1);
        });
        plurality_bench::baseline_entries(&text)
    });
    // --check only needs the timing keys' names: measure at token effort.
    let eff = if check {
        Effort::quick()
    } else {
        Effort::full()
    };

    let mut metrics: Vec<(String, f64)> = Vec::new();
    metrics.push((
        "host/available_parallelism".into(),
        std::thread::available_parallelism().map_or(1.0, |p| p.get() as f64),
    ));
    metrics.push((
        "host/configured_threads".into(),
        plurality_par::configured_threads() as f64,
    ));
    sampler_metrics(&mut metrics, eff);
    engine_metrics(&mut metrics, eff);
    profile_metrics(&mut metrics);
    experiment_metrics(&mut metrics, eff);

    for (name, value) in &metrics {
        println!("{name}: {value:.2}");
    }

    if let Some(baseline) = baseline {
        let failures = check_failures(&baseline, &metrics);
        if failures.is_empty() {
            println!(
                "check ok: all {} baseline metrics present, profile counters exact",
                baseline.len()
            );
        } else {
            for failure in &failures {
                eprintln!("check failed: {failure}");
            }
            std::process::exit(1);
        }
    } else {
        let path = plurality_bench::snapshot_dir().join(SNAPSHOT_FILE);
        plurality_bench::write_suite_json(
            &path,
            "perf_snapshot",
            "ns per op (…_ns), wall-clock ms (…_ms), ratios otherwise",
            &metrics,
        )
        .expect("write snapshot");
        println!("wrote {}", path.display());
    }
}
