//! Executor throughput smoke test (asim-style).
//!
//! Drives the runtime through its three hot paths — task spawning, timer
//! registration/firing, and channel handoff — with a workload of roughly
//! 100k events, and prints the measured events/sec so `--nocapture` runs
//! double as a quick profile (CI runs it that way, so every log shows the
//! executor's events/sec), then prints the fixed cost per timer as ns per
//! sleep at three calendar depths. The assertions are correctness-only: a
//! wall-clock floor here would flake on loaded CI machines.

use std::time::Instant;

use ddio_sim::sync::unbounded;
use ddio_sim::{Sim, SimDuration};

/// Workers × rounds of sleep + send, one consumer per worker group: the mix
/// a collective transfer produces (every request sleeps in the disk model
/// and crosses at least one channel).
fn spawn_sleep_channel_workload(sim: &mut Sim, workers: u64, rounds: u64) {
    let ctx = sim.context();
    let (tx, rx) = unbounded::<u64>();
    for w in 0..workers {
        let ctx = ctx.clone();
        let tx = tx.clone();
        sim.spawn(async move {
            for r in 0..rounds {
                // Deterministic pseudo-random spread of deadlines so the
                // event calendar holds many distinct deadlines.
                ctx.sleep(SimDuration::from_nanos(
                    (w * 2654435761 + r * 40503) % 50_000 + 1,
                ))
                .await;
                tx.try_send(w * rounds + r).unwrap();
            }
        });
    }
    drop(tx);
    let ctx2 = ctx.clone();
    sim.spawn(async move {
        let mut received = 0u64;
        while let Some(_v) = rx.recv().await {
            received += 1;
            if received % 64 == 0 {
                ctx2.yield_now().await;
            }
        }
        assert_eq!(received, workers * rounds, "messages lost in flight");
    });
}

#[test]
fn executor_throughput_100k_events() {
    let mut sim = Sim::new();
    spawn_sleep_channel_workload(&mut sim, 800, 50);
    let start = Instant::now();
    let end = sim.run();
    let wall = start.elapsed();
    let events = sim.events_processed();
    assert!(events >= 100_000, "workload too small: {events} events");
    assert_eq!(sim.live_tasks(), 0, "tasks leaked after quiescence");
    assert!(end.as_nanos() > 0);
    eprintln!(
        "speed_test: {events} events in {wall:?} ({:.0} events/sec)",
        events as f64 / wall.as_secs_f64()
    );
}

#[test]
fn executor_throughput_is_deterministic() {
    let run = || {
        let mut sim = Sim::new();
        spawn_sleep_channel_workload(&mut sim, 100, 20);
        let end = sim.run();
        (end, sim.events_processed())
    };
    assert_eq!(run(), run());
}

/// Tasks that each re-sleep 100 ns to 0.8 ms, spread evenly in log scale,
/// `sleeps` sleeps in all: about as many timers stay pending as there are
/// tasks. The `simulator/timer_mix` bench row runs the same mix.
fn spawn_timer_mix(sim: &mut Sim, tasks: u64, sleeps: u64) {
    let ctx = sim.context();
    for i in 0..tasks {
        let ctx = ctx.clone();
        sim.spawn(async move {
            for round in 0..sleeps / tasks {
                let octave = 100u64 << ((i * 7 + round * 3) % 13);
                let within = (i * 2_654_435_761 + round * 40_503) % octave;
                ctx.sleep(SimDuration::from_nanos(octave + within)).await;
            }
        });
    }
}

#[test]
fn timer_mix_ns_per_sleep() {
    // 48 tasks keep about as many timers pending as perfbench's paper-grid
    // (~41 on average), 600 as its large-machine (~596).
    const SLEEPS: u64 = 48_000;
    let mut sim = Sim::new();
    for tasks in [8u64, 48, 600] {
        // A warm-up pass sizes the slab and the calendar, as a reused
        // simulator has them.
        spawn_timer_mix(&mut sim, tasks, SLEEPS);
        sim.run();
        sim.reset();
        spawn_timer_mix(&mut sim, tasks, SLEEPS);
        let start = Instant::now();
        sim.run();
        let wall = start.elapsed();
        assert_eq!(sim.live_tasks(), 0, "tasks leaked after quiescence");
        // Each task's first poll, then a timer and a poll per sleep.
        assert_eq!(sim.events_processed(), tasks + 2 * SLEEPS);
        eprintln!(
            "speed_test: timer mix, {tasks} tasks: {:.1} ns per sleep",
            wall.as_nanos() as f64 / SLEEPS as f64
        );
        sim.reset();
    }
}
