//! Property-based tests of the simulation engine: timing composition,
//! determinism, and single-server serialization hold for arbitrary task
//! sets.

use proptest::prelude::*;

use ddio_sim::sync::Resource;
use ddio_sim::{Sim, SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Independent sleeping tasks finish exactly at the maximum requested
    /// deadline, and sequential sleeps add up exactly.
    #[test]
    fn concurrent_sleeps_end_at_the_maximum(delays in prop::collection::vec(0u64..10_000, 1..40)) {
        let mut sim = Sim::new();
        let ctx = sim.context();
        for &d in &delays {
            let ctx = ctx.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_micros(d)).await;
            });
        }
        let end = sim.run();
        let max = delays.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(end, SimTime::ZERO + SimDuration::from_micros(max));
    }

    /// Two runs of the same random task set produce identical clocks and
    /// event counts.
    #[test]
    fn execution_is_deterministic(delays in prop::collection::vec(0u64..1000, 1..30)) {
        let run = |delays: &[u64]| {
            let mut sim = Sim::new();
            let ctx = sim.context();
            for (i, &d) in delays.iter().enumerate() {
                let ctx = ctx.clone();
                sim.spawn(async move {
                    ctx.sleep(SimDuration::from_micros(d)).await;
                    ctx.sleep(SimDuration::from_micros((i as u64 * 7) % 13)).await;
                });
            }
            sim.run();
            (sim.now(), sim.events_processed())
        };
        prop_assert_eq!(run(&delays), run(&delays));
    }

    /// A resource serializes its users: total elapsed time equals
    /// the sum of the individual service times.
    #[test]
    fn unit_resource_serializes_exactly(services in prop::collection::vec(1u64..500, 1..30)) {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let bus = Resource::new(ctx.clone(), "bus");
        for &s in &services {
            let bus = bus.clone();
            sim.spawn(async move {
                bus.use_for(SimDuration::from_micros(s)).await;
            });
        }
        let end = sim.run();
        let total: u64 = services.iter().sum();
        prop_assert_eq!(end, SimTime::ZERO + SimDuration::from_micros(total));
        prop_assert_eq!(bus.acquisitions(), services.len() as u64);
    }
}
