//! Disk-arm scheduling: the policy that decides which pending request a
//! drive serves next.
//!
//! The paper's central observation is that disk-directed I/O wins largely
//! because the IOP can present the disk with a location-sorted stream of
//! requests. This module turns that one trick into a family of first-class
//! policies: a [`DiskQueue`] holds a drive's pending requests and, every
//! time the mechanism goes idle, picks the next one by its [`SchedPolicy`]
//! and the cylinder the arm currently sits on (reported by the service
//! model). Every [`DiskHandle`](crate::DiskHandle) owns a queue of the
//! policy it was built with, and the drive, which has no task of its own,
//! picks from it each time it takes a request up, so every client of a
//! drive — disk-directed IOPs and the traditional-caching baseline alike —
//! gets the same queue discipline.

use std::collections::VecDeque;

use crate::geometry::Geometry;
use crate::request::DiskRequest;

ddio_sim::policy_enum! {
    /// The queue-scheduling policy of one drive.
    pub enum SchedPolicy {
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

/// One queued request with its precomputed start cylinder and arrival
/// sequence number (the deterministic tie-breaker).
struct Entry<T> {
    request: DiskRequest,
    cylinder: u32,
    seq: u64,
    payload: T,
}

/// A drive's pending-request queue, ordered by its [`SchedPolicy`].
///
/// The drive pushes every arriving request and, whenever the mechanism is
/// free, pops the next one to serve given the arm's current cylinder. `T` is
/// an opaque per-request payload (the drive's ticket and requester)
/// threaded through unchanged.
///
/// Entries stay in arrival order. Every policy's pick key ends in the
/// unique arrival number, so the request served never depends on how the
/// entries are stored.
pub struct DiskQueue<T> {
    policy: SchedPolicy,
    geometry: Geometry,
    next_seq: u64,
    entries: VecDeque<Entry<T>>,
}

impl<T> DiskQueue<T> {
    /// An empty queue ordered by `policy` for a drive with `geometry`.
    pub fn new(policy: SchedPolicy, geometry: Geometry) -> Self {
        DiskQueue {
            policy,
            geometry,
            next_seq: 0,
            entries: VecDeque::new(),
        }
    }

    /// The policy ordering this queue.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Adds a request to the pending queue.
    pub fn push(&mut self, request: DiskRequest, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(Entry {
            request,
            cylinder: self.geometry.lbn_to_chs(request.start_sector).cylinder,
            seq,
            payload,
        });
    }

    /// Removes and returns the next request to serve, given the cylinder the
    /// arm currently sits on. Returns `None` when nothing is pending.
    pub fn pop_next(&mut self, arm: u32) -> Option<(DiskRequest, T)> {
        let idx = match self.policy {
            // Presort sorts at the submitter; the drive queue stays FIFO.
            SchedPolicy::Fcfs | SchedPolicy::Presort => 0,
            SchedPolicy::Sstf => self.argmin(|e| (e.cylinder.abs_diff(arm), e.seq))?,
            // Sweep up from the arm; with nothing at or above it, wrap to
            // the lowest pending cylinder.
            SchedPolicy::Cscan => self.argmin(|e| (e.cylinder < arm, e.cylinder, e.seq))?,
        };
        let e = self.entries.remove(idx)?;
        Some((e.request, e.payload))
    }

    /// Index of the pending entry with the smallest `key`.
    fn argmin<K: Ord>(&self, key: impl Fn(&Entry<T>) -> K) -> Option<usize> {
        let (idx, _) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| key(e))?;
        Some(idx)
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `policy` queue holding one request at the start of each cylinder,
    /// tagged with its arrival index.
    fn load(policy: SchedPolicy, cylinders: &[u64]) -> DiskQueue<usize> {
        let g = Geometry::HP_97560;
        let mut s = DiskQueue::new(policy, g);
        for (i, &c) in cylinders.iter().enumerate() {
            s.push(DiskRequest::read(c * g.sectors_per_cylinder(), 16), i);
        }
        s
    }

    fn drain<T>(sched: &mut DiskQueue<T>, mut current: u32) -> Vec<u32> {
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
        let list = ["fcfs", "cscan"].map(|n| SchedPolicy::parse(n).unwrap());
        assert_eq!(list, [SchedPolicy::Fcfs, SchedPolicy::Cscan]);
        assert_eq!(SchedPolicy::parse("bogus"), None);
        assert_eq!(SchedPolicy::parse(""), None);
    }

    #[test]
    fn fifo_policies_preserve_arrival_order() {
        for policy in [SchedPolicy::Fcfs, SchedPolicy::Presort] {
            let mut s = load(policy, &[1500, 3, 800]);
            assert_eq!(s.policy(), policy);
            assert_eq!(s.len(), 3);
            assert_eq!(drain(&mut s, 0), vec![1500, 3, 800]);
        }
    }

    #[test]
    fn sstf_walks_to_the_nearest_cylinder() {
        let mut s = load(SchedPolicy::Sstf, &[1500, 100, 900, 120]);
        // From cylinder 0: 100, then 120 (nearest to 100), then 900, 1500.
        assert_eq!(drain(&mut s, 0), vec![100, 120, 900, 1500]);
    }

    #[test]
    fn cscan_sweeps_up_and_wraps_once() {
        let mut s = load(SchedPolicy::Cscan, &[1500, 100, 900, 120]);
        // From cylinder 800: upward sweep 900, 1500, then wrap to 100, 120.
        assert_eq!(drain(&mut s, 800), vec![900, 1500, 100, 120]);
    }

    #[test]
    fn equal_cylinders_tie_break_by_arrival() {
        for policy in [SchedPolicy::Sstf, SchedPolicy::Cscan] {
            let mut s = load(policy, &[500, 500]);
            let (_, first) = s.pop_next(0).unwrap();
            let (_, second) = s.pop_next(500).unwrap();
            assert_eq!((first, second), (0, 1), "{policy} broke the FIFO tie");
        }
    }
}
