//! Property-based tests of the disk-scheduling subsystem: every policy
//! serves exactly the set of requests it was given (starvation-free on a
//! finite closed batch), SSTF always picks the nearest pending cylinder,
//! CSCAN serves each sweep in nondecreasing cylinder order, and the FIFO
//! policies preserve arrival order.

use proptest::prelude::*;

use ddio_disk::{DiskQueue, DiskRequest, Geometry, SchedPolicy};

const G: Geometry = Geometry::HP_97560;

/// Builds one request per (cylinder, sector-offset) pair and pushes the
/// whole batch, tagging each with its arrival index.
fn load(policy: SchedPolicy, cylinders: &[u32]) -> DiskQueue<usize> {
    let mut sched = DiskQueue::new(policy, G);
    for (i, &c) in cylinders.iter().enumerate() {
        sched.push(
            DiskRequest::read(c as u64 * G.sectors_per_cylinder(), 16),
            i,
        );
    }
    sched
}

/// Drains the queue, tracking the arm: after serving a request the arm
/// sits on its start cylinder (single-cylinder test requests). Returns the
/// served (cylinder, arrival-index) sequence.
fn drain(sched: &mut DiskQueue<usize>, mut current: u32) -> Vec<(u32, usize)> {
    let mut served = Vec::new();
    while let Some((req, idx)) = sched.pop_next(current) {
        current = G.lbn_to_chs(req.start_sector).cylinder;
        served.push((current, idx));
    }
    served
}

fn cylinder_batch() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..1962, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every policy is starvation-free on a finite closed batch and serves
    /// exactly the request *set* it was given (no drops, no duplicates).
    #[test]
    fn all_policies_serve_the_same_request_set(
        cylinders in cylinder_batch(),
        start in 0u32..1962,
    ) {
        for policy in SchedPolicy::ALL {
            let mut sched = load(policy, &cylinders);
            let served = drain(&mut sched, start);
            prop_assert_eq!(served.len(), cylinders.len(), "{} dropped requests", policy);
            prop_assert!(sched.is_empty());
            let mut indices: Vec<usize> = served.iter().map(|&(_, i)| i).collect();
            indices.sort_unstable();
            let expected: Vec<usize> = (0..cylinders.len()).collect();
            prop_assert_eq!(indices, expected, "{} lost or duplicated a request", policy);
        }
    }

    /// SSTF always picks the pending request nearest the arm.
    #[test]
    fn sstf_always_picks_the_nearest_pending_cylinder(
        cylinders in cylinder_batch(),
        start in 0u32..1962,
    ) {
        let mut sched = load(SchedPolicy::Sstf, &cylinders);
        // Shadow model of the pending set, by arrival index.
        let mut pending: Vec<(usize, u32)> = cylinders.iter().copied().enumerate().collect();
        let mut current = start;
        while let Some((req, idx)) = sched.pop_next(current) {
            let cyl = G.lbn_to_chs(req.start_sector).cylinder;
            let nearest = pending
                .iter()
                .map(|&(_, c)| c.abs_diff(current))
                .min()
                .expect("shadow queue non-empty");
            prop_assert_eq!(
                cyl.abs_diff(current), nearest,
                "SSTF picked cylinder {} (distance {}) with a nearer request pending",
                cyl, cyl.abs_diff(current)
            );
            let pos = pending.iter().position(|&(i, _)| i == idx).expect("served twice");
            pending.remove(pos);
            current = cyl;
        }
        prop_assert!(pending.is_empty());
    }

    /// CSCAN serves each sweep in nondecreasing cylinder order: on a closed
    /// batch the served sequence descends at most once (the single wrap back
    /// to the lowest pending cylinder).
    #[test]
    fn cscan_serves_each_sweep_in_nondecreasing_order(
        cylinders in cylinder_batch(),
        start in 0u32..1962,
    ) {
        let mut sched = load(SchedPolicy::Cscan, &cylinders);
        let served = drain(&mut sched, start);
        let cyls: Vec<u32> = served.iter().map(|&(c, _)| c).collect();
        let descents = cyls.windows(2).filter(|w| w[1] < w[0]).count();
        prop_assert!(
            descents <= 1,
            "CSCAN descended {} times over {:?} (start {})",
            descents, cyls, start
        );
        // And the first sweep never reaches below the starting position.
        if let Some(wrap) = cyls.windows(2).position(|w| w[1] < w[0]) {
            for &c in &cyls[..=wrap] {
                prop_assert!(c >= start, "pre-wrap cylinder {} below start {}", c, start);
            }
        }
    }

    /// FCFS and (drive-level) Presort preserve arrival order exactly.
    #[test]
    fn fifo_policies_preserve_arrival_order(
        cylinders in cylinder_batch(),
        start in 0u32..1962,
    ) {
        for policy in [SchedPolicy::Fcfs, SchedPolicy::Presort] {
            let mut sched = load(policy, &cylinders);
            let served = drain(&mut sched, start);
            let indices: Vec<usize> = served.iter().map(|&(_, i)| i).collect();
            let expected: Vec<usize> = (0..cylinders.len()).collect();
            prop_assert_eq!(indices, expected, "{} reordered arrivals", policy);
        }
    }
}
