//! Criterion micro-benchmarks of the discrete-event simulation engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddio_sim::sync::{CountdownEvent, Resource};
use ddio_sim::{Sim, SimDuration};

/// Thousands of interleaved sleeping tasks: measures raw event throughput.
fn bench_timers(c: &mut Criterion) {
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

/// A producer/consumer pipeline over a latch: measures handoff cost. The
/// producer opens the latch every 100 ns; the consumer wakes, takes the
/// item and closes it again. (The row keeps the name it had when the handoff
/// was a channel.)
fn bench_channel_pipeline(c: &mut Criterion) {
    c.bench_function("simulator/channel_pipeline_10k", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            let ctx = sim.context();
            let gate = CountdownEvent::new(1);
            let consumer = gate.clone();
            sim.spawn(async move {
                for _ in 0..10_000u64 {
                    consumer.wait().await;
                    consumer.add(1);
                }
            });
            sim.spawn(async move {
                for _ in 0..10_000u64 {
                    ctx.sleep(SimDuration::from_nanos(100)).await;
                    gate.signal();
                }
            });
            sim.run()
        });
    });
}

/// Contention on one resource: 200 users booking one server in turn.
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
/// latches, so the cost measured is push/pop on the ready queue plus one
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
/// in one run, rather than the near-future deadlines the throughput benches
/// concentrate on.
fn bench_timer_spread(c: &mut Criterion) {
    c.bench_function("simulator/timer_spread", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            let ctx = sim.context();
            for i in 0..500u64 {
                let ctx = ctx.clone();
                sim.spawn(async move {
                    // 1 ns .. ~512 s: deadline magnitude doubles with the
                    // task index bucket.
                    let nanos = 1u64 << (i % 40);
                    ctx.sleep(SimDuration::from_nanos(nanos)).await;
                });
            }
            sim.run()
        });
    });
}

/// A deep calendar: 1,000 tasks re-sleeping over deadlines spread from a
/// microsecond to a millisecond keep about 1,000 timers pending, the depth
/// a 512-node machine runs at (the rows above keep the calendar shallow).
/// Reuses one simulator across iterations, as the experiment harness does.
fn bench_timer_depth(c: &mut Criterion) {
    c.bench_function("simulator/timer_depth_1k", |b| {
        let mut sim = Sim::new();
        b.iter(|| {
            sim.reset();
            let ctx = sim.context();
            for i in 0..1_000u64 {
                let ctx = ctx.clone();
                sim.spawn(async move {
                    for round in 0..20u64 {
                        let micros = 1u64 << ((i * 7 + round * 3) % 11);
                        let jitter = (i * 131 + round * 17) % 997;
                        ctx.sleep(SimDuration::from_nanos(micros * 1_000 + jitter))
                            .await;
                    }
                });
            }
            sim.run()
        });
    });
}

/// The executor's fixed cost per timer at the calendar depths the benchmark
/// workloads run at: each task re-sleeps 100 ns to 0.8 ms, spread evenly in
/// log scale, so about as many timers stay pending as there are tasks
/// (perfbench's paper-grid averages ~41, large-machine ~596). Every
/// depth makes the same 48,000 sleeps on a reused simulator;
/// `crates/sim/tests/speed_test.rs` prints the same mix as ns per sleep.
fn bench_timer_mix(c: &mut Criterion) {
    const SLEEPS: u64 = 48_000;
    let mut group = c.benchmark_group("simulator/timer_mix");
    for tasks in [8u64, 48, 600] {
        group.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |b, &tasks| {
            let mut sim = Sim::new();
            b.iter(|| {
                sim.reset();
                let ctx = sim.context();
                for i in 0..tasks {
                    let ctx = ctx.clone();
                    sim.spawn(async move {
                        for round in 0..SLEEPS / tasks {
                            let octave = 100u64 << ((i * 7 + round * 3) % 13);
                            let within = (i * 2_654_435_761 + round * 40_503) % octave;
                            ctx.sleep(SimDuration::from_nanos(octave + within)).await;
                        }
                    });
                }
                sim.run()
            });
        });
    }
    group.finish();
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
    bench_timers,
    bench_channel_pipeline,
    bench_resource_contention,
    bench_wake_queue,
    bench_timer_spread,
    bench_timer_depth,
    bench_timer_mix,
    bench_spawn
);
criterion_main!(benches);
