//! B3–B6: smoke-size versions of the main experiments, wired into
//! Criterion so `cargo bench` regenerates every figure-shaped series.
//!
//! Each bench reproduces the *computation* of one experiment at reduced
//! scale; the manifests under `experiments/` (run by the `experiments`
//! binary) and the remaining binaries in `src/bin/` print the full
//! tables.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use plurality_baselines::{Dynamics, DynamicsConfig};
use plurality_core::leader::LeaderConfig;
use plurality_core::sync::SyncConfig;
use plurality_core::InitialAssignment;
use plurality_dist::{ChannelPattern, Latency, WaitingTime};

fn bench_fig1(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_time_unit");
    group.sample_size(10);
    for inv_lambda in [1.0, 10.0, 100.0] {
        group.bench_function(format!("c1_invlambda_{inv_lambda}"), |b| {
            let wt = WaitingTime::new(
                Latency::exponential(1.0 / inv_lambda).unwrap(),
                ChannelPattern::SingleLeader,
            );
            b.iter(|| black_box(wt.time_unit(10_000, 42)));
        });
    }
    group.finish();
}

fn bench_thm1(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm1_sync");
    group.sample_size(10);
    for k in [2u32, 16] {
        group.bench_function(format!("sync_n20k_k{k}"), |b| {
            let assignment = InitialAssignment::with_bias(20_000, k, 2.0).unwrap();
            b.iter(|| {
                let r = SyncConfig::new(assignment.clone()).with_seed(7).run();
                black_box(r.rounds)
            });
        });
    }
    group.finish();
}

fn bench_thm13(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm13_async");
    group.sample_size(10);
    group.bench_function("leader_n5k_k4", |b| {
        let assignment = InitialAssignment::with_bias(5_000, 4, 2.0).unwrap();
        b.iter(|| {
            let r = LeaderConfig::new(assignment.clone())
                .with_seed(7)
                .with_steps_per_unit(9.3)
                .run();
            black_box(r.outcome.epsilon_time)
        });
    });
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_race");
    group.sample_size(10);
    for dynamics in [Dynamics::ThreeMajority, Dynamics::TwoChoices] {
        group.bench_function(dynamics.name(), |b| {
            let assignment = InitialAssignment::with_bias(20_000, 8, 2.0).unwrap();
            b.iter(|| {
                let r = DynamicsConfig::new(dynamics, assignment.clone())
                    .with_seed(7)
                    .with_max_rounds(500)
                    .run();
                black_box(r.rounds)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fig1,
    bench_thm1,
    bench_thm13,
    bench_baselines
);
criterion_main!(benches);
