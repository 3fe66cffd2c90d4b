//! B1: engine throughput — event queue operations and end-to-end protocol
//! runs at fixed small sizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use plurality_core::cluster::ClusterConfig;
use plurality_core::leader::LeaderConfig;
use plurality_core::sync::SyncConfig;
use plurality_core::InitialAssignment;
use plurality_sim::CalendarQueue;

fn bench_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(20);
    group.bench_function("push_pop_1k", |b| {
        b.iter(|| {
            let mut q = CalendarQueue::with_capacity(1024);
            for i in 0..1000u32 {
                // Deterministic pseudo-random times.
                let t = ((i.wrapping_mul(2654435761)) % 10_000) as f64;
                q.schedule(t, i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc += v as u64;
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_runs");
    group.sample_size(10);

    group.bench_function("sync_n10k_k4", |b| {
        let assignment = InitialAssignment::with_bias(10_000, 4, 2.0).unwrap();
        b.iter(|| {
            let r = SyncConfig::new(assignment.clone()).with_seed(1).run();
            black_box(r.rounds)
        });
    });

    group.bench_function("leader_n2k_k2", |b| {
        let assignment = InitialAssignment::with_bias(2_000, 2, 3.0).unwrap();
        b.iter(|| {
            let r = LeaderConfig::new(assignment.clone())
                .with_seed(1)
                .with_steps_per_unit(9.3)
                .run();
            black_box(r.ticks)
        });
    });

    group.bench_function("cluster_n2k_k2", |b| {
        let assignment = InitialAssignment::with_bias(2_000, 2, 3.0).unwrap();
        b.iter(|| {
            let r = ClusterConfig::new(assignment.clone())
                .with_seed(1)
                .with_steps_per_unit(12.0)
                .run();
            black_box(r.ticks)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_queue, bench_protocols);
criterion_main!(benches);
