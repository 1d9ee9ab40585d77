//! Pluggable disk-arm scheduling: the policy that decides which pending
//! request a drive serves next.
//!
//! The paper's central observation is that disk-directed I/O wins largely
//! because the IOP can present the disk with a location-sorted stream of
//! requests. This module turns that one trick into a family of first-class
//! policies: a [`DiskScheduler`] owns a drive's pending queue and, every time
//! the mechanism goes idle, picks the next request using the cylinder the arm
//! currently sits on (reported by the service model). The drive server in
//! [`crate::spawn_disk`] consults the scheduler of the policy it was spawned
//! with, so every client of a drive — disk-directed IOPs and the
//! traditional-caching baseline alike — gets the same queue discipline.

use std::collections::VecDeque;

use crate::geometry::Geometry;
use crate::request::DiskRequest;

ddio_sim::policy_enum! {
    /// The queue-scheduling policy of one drive.
    pub enum SchedPolicy: "scheduling policy" {
        /// First come, first served: requests are served strictly in arrival
        /// order (the behavior of the original hardwired FIFO drive).
        #[default]
        Fcfs = "fcfs",
        /// Shortest seek time first: serve the pending request whose start
        /// cylinder is nearest the arm. Greedy and throughput-oriented, but
        /// can starve outlying requests under an open arrival stream.
        Sstf = "sstf",
        /// Circular elevator (CSCAN): sweep the arm toward higher cylinders,
        /// serving pending requests in nondecreasing cylinder order; when
        /// nothing is pending at or above the arm, wrap to the lowest
        /// pending cylinder and start the next sweep.
        Cscan = "cscan",
        /// Submission-side location sort — the paper's "presort" variant of
        /// disk-directed I/O. The *submitter* sorts its whole batch by
        /// physical location before issuing it, so the drive itself serves
        /// in arrival order (at the drive this policy is FIFO; the sort
        /// happens where the complete block list is known).
        Presort = "presort",
    }
}

impl SchedPolicy {
    /// Builds the scheduler implementing this policy for a drive with the
    /// given geometry. `T` is the per-request payload the drive threads
    /// through the queue (its completion channel).
    pub fn scheduler<T: 'static>(self, geometry: Geometry) -> Box<dyn DiskScheduler<T>> {
        match self {
            // Presort sorts at the submitter; the drive queue stays FIFO.
            SchedPolicy::Fcfs | SchedPolicy::Presort => Box::new(FifoScheduler {
                policy: self,
                queue: VecDeque::new(),
            }),
            SchedPolicy::Sstf => Box::new(SstfScheduler {
                geometry,
                next_seq: 0,
                entries: Vec::new(),
            }),
            SchedPolicy::Cscan => Box::new(CscanScheduler {
                geometry,
                next_seq: 0,
                entries: Vec::new(),
            }),
        }
    }
}

/// A drive's pending-request queue plus the policy that orders it.
///
/// The drive pushes every arriving request and, whenever the mechanism is
/// free, pops the next one to serve given the arm's current cylinder. `T` is
/// an opaque per-request payload (the drive's completion channel) threaded
/// through unchanged.
pub trait DiskScheduler<T> {
    /// The policy this scheduler implements.
    fn policy(&self) -> SchedPolicy;

    /// Adds a request to the pending queue.
    fn push(&mut self, request: DiskRequest, payload: T);

    /// Removes and returns the next request to serve, given the cylinder the
    /// arm currently sits on. Returns `None` when nothing is pending.
    fn pop_next(&mut self, current_cylinder: u32) -> Option<(DiskRequest, T)>;

    /// Number of pending requests.
    fn len(&self) -> usize;

    /// True if nothing is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// FIFO queue shared by the [`SchedPolicy::Fcfs`] and
/// [`SchedPolicy::Presort`] policies (for the latter, the location sort
/// happens at the submitter, so arrival order *is* sorted order).
struct FifoScheduler<T> {
    policy: SchedPolicy,
    queue: VecDeque<(DiskRequest, T)>,
}

impl<T> DiskScheduler<T> for FifoScheduler<T> {
    fn policy(&self) -> SchedPolicy {
        self.policy
    }

    fn push(&mut self, request: DiskRequest, payload: T) {
        self.queue.push_back((request, payload));
    }

    fn pop_next(&mut self, _current_cylinder: u32) -> Option<(DiskRequest, T)> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// One queued request with its precomputed start cylinder and arrival
/// sequence number (the deterministic tie-breaker).
struct Entry<T> {
    request: DiskRequest,
    cylinder: u32,
    seq: u64,
    payload: T,
}

fn make_entry<T>(
    geometry: Geometry,
    next_seq: &mut u64,
    request: DiskRequest,
    payload: T,
) -> Entry<T> {
    let seq = *next_seq;
    *next_seq += 1;
    Entry {
        request,
        cylinder: geometry.lbn_to_chs(request.start_sector).cylinder,
        seq,
        payload,
    }
}

fn take_entry<T>(entries: &mut Vec<Entry<T>>, idx: usize) -> (DiskRequest, T) {
    let e = entries.swap_remove(idx);
    (e.request, e.payload)
}

/// Shortest seek time first.
struct SstfScheduler<T> {
    geometry: Geometry,
    next_seq: u64,
    entries: Vec<Entry<T>>,
}

impl<T> DiskScheduler<T> for SstfScheduler<T> {
    fn policy(&self) -> SchedPolicy {
        SchedPolicy::Sstf
    }

    fn push(&mut self, request: DiskRequest, payload: T) {
        let e = make_entry(self.geometry, &mut self.next_seq, request, payload);
        self.entries.push(e);
    }

    fn pop_next(&mut self, current_cylinder: u32) -> Option<(DiskRequest, T)> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.cylinder.abs_diff(current_cylinder), e.seq))?
            .0;
        Some(take_entry(&mut self.entries, idx))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Circular elevator: ascending sweeps with a wrap to the lowest pending
/// cylinder when the sweep runs dry.
struct CscanScheduler<T> {
    geometry: Geometry,
    next_seq: u64,
    entries: Vec<Entry<T>>,
}

impl<T> DiskScheduler<T> for CscanScheduler<T> {
    fn policy(&self) -> SchedPolicy {
        SchedPolicy::Cscan
    }

    fn push(&mut self, request: DiskRequest, payload: T) {
        let e = make_entry(self.geometry, &mut self.next_seq, request, payload);
        self.entries.push(e);
    }

    fn pop_next(&mut self, current_cylinder: u32) -> Option<(DiskRequest, T)> {
        if self.entries.is_empty() {
            return None;
        }
        // Continue the upward sweep if anything is pending at or above the
        // arm; otherwise wrap to the lowest pending cylinder.
        let ahead = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.cylinder >= current_cylinder)
            .min_by_key(|(_, e)| (e.cylinder, e.seq))
            .map(|(i, _)| i);
        let idx = ahead.unwrap_or_else(|| {
            self.entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.cylinder, e.seq))
                .expect("checked non-empty")
                .0
        });
        Some(take_entry(&mut self.entries, idx))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(cylinder: u64) -> DiskRequest {
        // One request at the start of the given cylinder.
        let g = Geometry::HP_97560;
        DiskRequest::read(cylinder * g.sectors_per_cylinder(), 16)
    }

    fn drain<T>(sched: &mut dyn DiskScheduler<T>, mut current: u32) -> Vec<u32> {
        let g = Geometry::HP_97560;
        let mut order = Vec::new();
        while let Some((r, _)) = sched.pop_next(current) {
            current = g.lbn_to_chs(r.start_sector).cylinder;
            order.push(current);
        }
        order
    }

    #[test]
    fn names_round_trip() {
        for p in SchedPolicy::ALL {
            assert_eq!(SchedPolicy::parse(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(SchedPolicy::parse("elevator"), None);
        assert_eq!(SchedPolicy::default(), SchedPolicy::Fcfs);
    }

    #[test]
    fn sched_set_parses_lists() {
        let list = ["fcfs", "cscan"].map(|n| SchedPolicy::from_name(n).unwrap());
        assert_eq!(list, [SchedPolicy::Fcfs, SchedPolicy::Cscan]);
        assert_eq!(
            SchedPolicy::from_name("bogus").unwrap_err(),
            "unknown scheduling policy \"bogus\" (expected fcfs, sstf, cscan, or presort)"
        );
        assert!(SchedPolicy::from_name("").is_err());
    }

    #[test]
    fn fifo_policies_preserve_arrival_order() {
        for policy in [SchedPolicy::Fcfs, SchedPolicy::Presort] {
            let mut s = policy.scheduler::<usize>(Geometry::HP_97560);
            for (i, c) in [1500u64, 3, 800].into_iter().enumerate() {
                s.push(req(c), i);
            }
            assert_eq!(s.policy(), policy);
            assert_eq!(s.len(), 3);
            assert_eq!(drain(s.as_mut(), 0), vec![1500, 3, 800]);
        }
    }

    #[test]
    fn sstf_walks_to_the_nearest_cylinder() {
        let mut s = SchedPolicy::Sstf.scheduler::<usize>(Geometry::HP_97560);
        for (i, c) in [1500u64, 100, 900, 120].into_iter().enumerate() {
            s.push(req(c), i);
        }
        // From cylinder 0: 100, then 120 (nearest to 100), then 900, 1500.
        assert_eq!(drain(s.as_mut(), 0), vec![100, 120, 900, 1500]);
    }

    #[test]
    fn cscan_sweeps_up_and_wraps_once() {
        let mut s = SchedPolicy::Cscan.scheduler::<usize>(Geometry::HP_97560);
        for (i, c) in [1500u64, 100, 900, 120].into_iter().enumerate() {
            s.push(req(c), i);
        }
        // From cylinder 800: upward sweep 900, 1500, then wrap to 100, 120.
        assert_eq!(drain(s.as_mut(), 800), vec![900, 1500, 100, 120]);
    }

    #[test]
    fn equal_cylinders_tie_break_by_arrival() {
        for policy in [SchedPolicy::Sstf, SchedPolicy::Cscan] {
            let mut s = policy.scheduler::<usize>(Geometry::HP_97560);
            s.push(req(500), 0);
            s.push(req(500), 1);
            let (_, first) = s.pop_next(0).unwrap();
            let (_, second) = s.pop_next(500).unwrap();
            assert_eq!((first, second), (0, 1), "{policy} broke the FIFO tie");
        }
    }
}
