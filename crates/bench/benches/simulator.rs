//! Criterion micro-benchmarks of the discrete-event simulation engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddio_sim::sync::{unbounded, Resource};
use ddio_sim::{Sim, SimDuration};

/// Thousands of interleaved sleeping tasks: measures raw event throughput.
fn bench_timer_wheel(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/timers");
    for tasks in [100u64, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |b, &tasks| {
            b.iter(|| {
                let mut sim = Sim::new();
                let ctx = sim.context();
                for i in 0..tasks {
                    let ctx = ctx.clone();
                    sim.spawn(async move {
                        for round in 0..10u64 {
                            ctx.sleep(SimDuration::from_micros((i + round) % 17 + 1))
                                .await;
                        }
                    });
                }
                sim.run()
            });
        });
    }
    group.finish();
}

/// A producer/consumer pipeline over a channel: measures message handoff cost.
fn bench_channel_pipeline(c: &mut Criterion) {
    c.bench_function("simulator/channel_pipeline_10k", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            let ctx = sim.context();
            let (tx, rx) = unbounded::<u64>();
            sim.spawn(async move {
                for i in 0..10_000u64 {
                    tx.send(i).await.unwrap();
                }
            });
            let ctx2 = ctx.clone();
            sim.spawn(async move {
                while let Some(_v) = rx.recv().await {
                    ctx2.sleep(SimDuration::from_nanos(100)).await;
                }
            });
            sim.run()
        });
    });
}

/// Contention on one resource: measures the FIFO queue and its hand-off.
fn bench_resource_contention(c: &mut Criterion) {
    c.bench_function("simulator/resource_contention", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            let bus = Resource::new(sim.context(), "bus");
            for _ in 0..200 {
                let bus = bus.clone();
                sim.spawn(async move {
                    for _ in 0..20 {
                        bus.use_for(SimDuration::from_micros(3)).await;
                    }
                });
            }
            sim.run()
        });
    });
}

/// Pure wake-queue churn: tasks that yield in a tight loop, no timers and no
/// channels, so the cost measured is push/pop on the ready queue plus one
/// poll per wake.
fn bench_wake_queue(c: &mut Criterion) {
    c.bench_function("simulator/wake_queue_yield_storm", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            let ctx = sim.context();
            for _ in 0..100u64 {
                let ctx = ctx.clone();
                sim.spawn(async move {
                    for _ in 0..100u64 {
                        ctx.yield_now().await;
                    }
                });
            }
            sim.run()
        });
    });
}

/// Timer registration across widely spread deadlines: nanoseconds to seconds
/// in one run, exercising every wheel level and the overflow heap rather
/// than the near-future slots the throughput benches concentrate on.
fn bench_timer_wheel_spread(c: &mut Criterion) {
    c.bench_function("simulator/timer_wheel_spread", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            let ctx = sim.context();
            for i in 0..500u64 {
                let ctx = ctx.clone();
                sim.spawn(async move {
                    // 1 ns .. ~512 s: deadline magnitude doubles with the
                    // task index bucket, hitting a different wheel level.
                    let nanos = 1u64 << (i % 40);
                    ctx.sleep(SimDuration::from_nanos(nanos)).await;
                });
            }
            sim.run()
        });
    });
}

/// Spawn-path cost: create and drain thousands of trivial tasks, measuring
/// slab slot reuse; the reset variant reuses one simulator's allocations the
/// way the experiment harness does across trials.
fn bench_spawn(c: &mut Criterion) {
    c.bench_function("simulator/spawn_drain_5k", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            for i in 0..5_000u64 {
                sim.spawn(async move {
                    let _ = i;
                });
            }
            sim.run()
        });
    });
    c.bench_function("simulator/spawn_drain_5k_reset", |b| {
        let mut sim = Sim::new();
        b.iter(|| {
            sim.reset();
            for i in 0..5_000u64 {
                sim.spawn(async move {
                    let _ = i;
                });
            }
            sim.run()
        });
    });
}

criterion_group!(
    benches,
    bench_timer_wheel,
    bench_channel_pipeline,
    bench_resource_contention,
    bench_wake_queue,
    bench_timer_wheel_spread,
    bench_spawn
);
criterion_main!(benches);
