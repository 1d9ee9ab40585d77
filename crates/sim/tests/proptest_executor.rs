//! Property-based tests of the executor itself under adversarial schedules:
//! random scripts of spawns, sleeps, yields, and channel traffic must run
//! deterministically (identical final clock and event count on every run)
//! and leave no live tasks behind after quiescence.

use proptest::prelude::*;

use ddio_sim::sync::unbounded;
use ddio_sim::{Sim, SimDuration};

/// One step of a task's random script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Sleep for the given number of nanoseconds.
    Sleep(u64),
    /// Yield to the back of the ready queue.
    Yield,
    /// Send one message on the shared channel.
    Send,
    /// Poll the shared channel without blocking. (A blocking receive could
    /// genuinely deadlock: every script task holds a sender clone, so a
    /// parked receiver would keep the channel open forever.)
    Recv,
    /// Spawn a child task that sleeps and then exits.
    SpawnChild(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..100_000).prop_map(Op::Sleep),
        Just(Op::Yield),
        Just(Op::Send),
        Just(Op::Recv),
        (1u64..10_000).prop_map(Op::SpawnChild),
    ]
}

/// Runs `scripts` to completion on a fresh simulator and reports the
/// observable outcome `(final time in ns, events processed)`.
fn run_scripts(sim: &mut Sim, scripts: &[Vec<Op>]) -> (u64, u64) {
    let ctx = sim.context();
    let (tx, rx) = unbounded::<u64>();
    for script in scripts.iter().cloned() {
        let ctx = ctx.clone();
        let tx = tx.clone();
        let rx = rx.clone();
        sim.spawn(async move {
            for op in script {
                match op {
                    Op::Sleep(ns) => ctx.sleep(SimDuration::from_nanos(ns)).await,
                    Op::Yield => ctx.yield_now().await,
                    Op::Send => {
                        let _ = tx.try_send(1);
                    }
                    Op::Recv => {
                        let _ = rx.try_recv();
                    }
                    Op::SpawnChild(ns) => {
                        let ctx = ctx.clone();
                        ctx.clone().spawn(async move {
                            ctx.sleep(SimDuration::from_nanos(ns)).await;
                        });
                    }
                }
            }
        });
    }
    // Drop the root handles so `Recv` steps see `None` once every task-held
    // sender is gone, and drain whatever was sent but never received.
    drop(tx);
    sim.spawn(async move { while rx.recv().await.is_some() {} });
    let end = sim.run();
    (end.as_nanos(), sim.events_processed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random script set runs to quiescence with an identical
    /// `(final time, events_processed)` on every execution — on a fresh
    /// simulator and on a reused (reset) one — and leaks no tasks.
    #[test]
    fn random_schedules_are_deterministic_and_leak_free(
        scripts in prop::collection::vec(prop::collection::vec(op_strategy(), 0..12), 1..16)
    ) {
        let mut fresh_a = Sim::new();
        let a = run_scripts(&mut fresh_a, &scripts);
        prop_assert_eq!(fresh_a.live_tasks(), 0, "tasks leaked after quiescence");

        let mut fresh_b = Sim::new();
        let b = run_scripts(&mut fresh_b, &scripts);
        prop_assert_eq!(a, b, "two fresh runs diverged");

        // A reused simulator must behave exactly like a fresh one.
        let mut reused = Sim::new();
        reused.spawn(async {});
        reused.run();
        reused.reset();
        let c = run_scripts(&mut reused, &scripts);
        prop_assert_eq!(reused.live_tasks(), 0);
        prop_assert_eq!(a, c, "a reset simulator diverged from a fresh one");
    }

}
