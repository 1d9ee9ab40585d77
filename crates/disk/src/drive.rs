//! A drive served without a task. The paper gives each disk "a thread
//! permanently running on its IOP, that controlled access to the disk"; here
//! the requests do that thread's work, since a drive's whole service is
//! known the moment it takes a request up.
//!
//! A request enters the drive's [`DiskQueue`], ordered by the drive's
//! [`SchedPolicy`]. At an idle drive the requester yields once, so every
//! request arriving in that instant is queued, and then takes the drive up:
//! the queue picks a request by the arm's current cylinder, and the drive
//! works out its whole service and wakes its requester at the end. That
//! requester hands the drive to the next pick before it returns. The FCFS
//! policy reproduces the original hardwired FIFO exactly.
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use ddio_sim::{SimContext, SimDuration, SimTime, TaskRef};

use crate::model::{DiskModel, DiskParams, DiskStats};
use crate::request::{DiskRequest, ServiceBreakdown};
use crate::sched::{DiskQueue, SchedPolicy};

/// Timed faults injected into one drive's service.
///
/// The plan is consulted each time the drive takes a request up, against
/// the simulated clock: a dead drive fails requests after paying the
/// controller overhead
/// (the error reply), a stalled drive holds its queue until the window ends
/// (an IOP crash + restart), and a slowed drive stretches each service by a
/// factor (a drive in internal recovery). The default (empty) plan takes no
/// fault branch, and no plan adds an event: a request's whole service,
/// stall and stretch included, ends on one timer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriveFaultPlan {
    /// The drive fails permanently at this instant: every request taken up
    /// at or after it returns `failed: true` after the controller overhead.
    pub dead_at: Option<SimTime>,
    /// Windows `[from, until)` during which the drive holds the requests it
    /// takes up, serving them when the window closes (IOP crash + restart).
    pub stalls: Vec<(SimTime, SimTime)>,
    /// Windows `[from, until, factor)` during which service is degraded:
    /// any service overlapping a window is stretched by `factor` (≥ 1).
    pub slows: Vec<(SimTime, SimTime, f64)>,
}

impl DriveFaultPlan {
    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.dead_at.is_none() && self.stalls.is_empty() && self.slows.is_empty()
    }

    /// True if the drive has permanently failed at `now`.
    pub fn is_dead(&self, now: SimTime) -> bool {
        self.dead_at.is_some_and(|t| now >= t)
    }

    /// The end of a stall window covering `now`, if any.
    pub fn stall_until(&self, now: SimTime) -> Option<SimTime> {
        self.stalls
            .iter()
            .find(|&&(from, until)| now >= from && now < until)
            .map(|&(_, until)| until)
    }

    /// The stretch factor for a service occupying `[start, end)`: the
    /// largest factor of any window the service overlaps (1.0 when healthy).
    /// Overlap — not the instant the request is taken up — so a degradation
    /// that begins and ends mid-service still costs time.
    pub fn slow_factor(&self, start: SimTime, end: SimTime) -> f64 {
        self.slows
            .iter()
            .filter(|&&(from, until, _)| start < until && from < end)
            .map(|&(_, _, factor)| factor)
            .fold(1.0, f64::max)
    }
}

/// One drive: the mechanism, its queue and the request it is serving.
struct Drive {
    ctx: SimContext,
    plan: DriveFaultPlan,
    model: DiskModel,
    /// The queued requests, each with its ticket and its requester.
    queue: DiskQueue<(u64, TaskRef)>,
    /// The ticket of the next request to arrive.
    next_ticket: u64,
    /// The request taken up: its ticket, the end of its service, and where
    /// that service's time went.
    serving: Option<(u64, SimTime, ServiceBreakdown)>,
    /// True from the instant a request reaches an idle drive until the
    /// drive finishes with nothing queued.
    busy: bool,
}

impl Drive {
    /// Takes up the request the policy picks next: works out its whole
    /// service now (stall, failure, model, slowdown) and wakes its requester
    /// when that ends. With nothing queued the drive goes idle.
    fn take_up(&mut self) {
        let cylinder = self.model.current_cylinder();
        let Some((request, (ticket, requester))) = self.queue.pop_next(cylinder) else {
            self.busy = false;
            return;
        };
        // A stall window (IOP crash + restart) holds the request until the
        // window closes; it then proceeds normally.
        let now = self.ctx.now();
        let start = self.plan.stall_until(now).unwrap_or(now);
        let breakdown = if self.plan.is_dead(start) {
            // The dead drive answers with an error after the controller
            // overhead; no media transfer, no mechanism movement.
            let overhead = self.model.params().controller_overhead;
            ServiceBreakdown {
                overhead,
                total: overhead,
                failed: true,
                ..ServiceBreakdown::default()
            }
        } else {
            let mut breakdown = self.model.service(request, start);
            let factor = self.plan.slow_factor(start, start + breakdown.total);
            if factor > 1.0 {
                // The stretch is charged to the requester (and the simulated
                // clock), not to `DiskStats::busy_time`, which keeps counting
                // healthy service time only.
                breakdown.total =
                    SimDuration::from_secs_f64(breakdown.total.as_secs_f64() * factor);
            }
            breakdown
        };
        self.model.record_queue_depth(self.queue.len() as u64);
        let end = start + breakdown.total;
        self.serving = Some((ticket, end, breakdown));
        requester.wake_at(end);
    }
}

/// Handle used by file-system code to issue requests to one drive.
///
/// The handle is cheap to clone; all clones feed the same pending queue, and
/// the drive serves exactly one request at a time, in the order chosen by
/// the configured [`SchedPolicy`].
#[derive(Clone)]
pub struct DiskHandle {
    drive: Rc<RefCell<Drive>>,
}

impl DiskHandle {
    /// An idle drive with `params`, serving its queue in the order `sched`
    /// picks, with `plan`'s faults injected into its service (the empty
    /// [`DriveFaultPlan::default`] takes no fault branch).
    pub fn new(
        ctx: &SimContext,
        params: DiskParams,
        sched: SchedPolicy,
        plan: DriveFaultPlan,
    ) -> DiskHandle {
        let drive = Drive {
            ctx: ctx.clone(),
            plan,
            model: DiskModel::new(params),
            queue: DiskQueue::new(sched, params.geometry),
            next_ticket: 0,
            serving: None,
            busy: false,
        };
        DiskHandle {
            drive: Rc::new(RefCell::new(drive)),
        }
    }

    /// Issues a request and waits for the drive to complete it.
    ///
    /// The returned breakdown says where the service time went.
    pub fn io(&self, request: DiskRequest) -> DiskIo<'_> {
        DiskIo {
            disk: self,
            step: Step::Arrive(request),
        }
    }

    /// Statistics accumulated by the drive so far.
    pub fn stats(&self) -> DiskStats {
        self.drive.borrow().model.stats()
    }
}

/// Future returned by [`DiskHandle::io`]: queues the request at its first
/// poll and completes, with the request's [`ServiceBreakdown`], at the end
/// of its service. A request that finds the drive idle costs a yield, a
/// timer and the poll that ends it; a queued one only the timer and that
/// poll. Nothing is allocated: the queue keeps its storage.
///
/// A drive never outlives its transfer (every transfer builds its own
/// drives), so a request keeps no reset epoch and has no cancel path: one
/// dropped before it completes stays queued, and once taken up keeps the
/// drive busy for good.
pub struct DiskIo<'a> {
    disk: &'a DiskHandle,
    step: Step,
}

enum Step {
    /// Not polled yet.
    Arrive(DiskRequest),
    /// Queued with this ticket at an idle drive, which it takes up at its
    /// next poll.
    TakeUp(u64),
    /// Queued, or taken up, with this ticket.
    Wait(u64),
}

// A drive request is no larger than the `async fn` it replaced.
const _: () = assert!(std::mem::size_of::<DiskIo<'static>>() <= 40);

impl Future for DiskIo<'_> {
    type Output = ServiceBreakdown;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<ServiceBreakdown> {
        let this = &mut *self;
        let mut drive = this.disk.drive.borrow_mut();
        match this.step {
            Step::Arrive(request) => {
                let ticket = drive.next_ticket;
                drive.next_ticket += 1;
                drive.queue.push(request, (ticket, TaskRef::capture()));
                this.step = if drive.busy {
                    Step::Wait(ticket)
                } else {
                    // Yield once, so every request reaching the idle drive
                    // in this instant is queued before the policy picks.
                    drive.busy = true;
                    TaskRef::capture().wake();
                    Step::TakeUp(ticket)
                };
                Poll::Pending
            }
            Step::TakeUp(ticket) => {
                drive.take_up();
                this.step = Step::Wait(ticket);
                Poll::Pending
            }
            Step::Wait(ticket) => match drive.serving {
                Some((served, end, breakdown)) if served == ticket && drive.ctx.now() >= end => {
                    // Hand the drive to the next request before returning.
                    drive.take_up();
                    Poll::Ready(breakdown)
                }
                _ => Poll::Pending,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddio_sim::{Sim, SimDuration};
    use std::cell::Cell;

    /// An FCFS HP 97560 drive with `plan`'s faults.
    fn fcfs_drive(ctx: &SimContext, plan: DriveFaultPlan) -> DiskHandle {
        DiskHandle::new(ctx, DiskParams::hp_97560(), SchedPolicy::Fcfs, plan)
    }

    #[test]
    fn serves_requests_in_fifo_order_one_at_a_time() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let disk = fcfs_drive(&ctx, DriveFaultPlan::default());
        let finished = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u64 {
            let disk = disk.clone();
            let ctx = ctx.clone();
            let finished = Rc::clone(&finished);
            sim.spawn(async move {
                let b = disk.io(DiskRequest::read(i * 16, 16)).await;
                finished.borrow_mut().push((i, ctx.now(), b.sequential_hit));
            });
        }
        sim.run();
        let comps = finished.borrow();
        assert_eq!(comps.len(), 4);
        // FIFO: completion order matches issue order, times strictly increase.
        for w in comps.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        // Blocks 1..3 continue the sequential streak built by block 0.
        assert!(comps[1].2 && comps[2].2 && comps[3].2);
        assert_eq!(disk.stats().requests, 4);
        // A queued request costs its task's first poll, a timer and the poll
        // that ends it; the first, which found the drive idle, also yields.
        assert_eq!(sim.events_processed(), 3 * 4 + 1);
    }

    #[test]
    fn concurrent_clients_share_one_mechanism() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let disk = DiskHandle::new(
            &ctx,
            DiskParams::hp_97560(),
            SchedPolicy::Fcfs,
            DriveFaultPlan::default(),
        );
        let total_busy = Rc::new(Cell::new(SimDuration::ZERO));
        for client in 0..2u64 {
            let disk = disk.clone();
            let total_busy = Rc::clone(&total_busy);
            sim.spawn(async move {
                for i in 0..5u64 {
                    let lbn = (client * 100_000 + i * 997) * 16 % 2_000_000;
                    let b = disk.io(DiskRequest::read(lbn, 16)).await;
                    total_busy.set(total_busy.get() + b.total);
                }
            });
        }
        let end = sim.run();
        // The drive is a single server: total elapsed time equals the sum of
        // individual service times (no overlap).
        assert_eq!(
            end.duration_since(ddio_sim::SimTime::ZERO),
            total_busy.get()
        );
        assert_eq!(disk.stats().requests, 10);
    }

    /// Queues one read per cylinder in `cylinders` (all at time zero) on a
    /// drive with the given policy and returns the cylinder completion order
    /// and the time the last read finished.
    fn serve_batch(policy: SchedPolicy, cylinders: &[u64]) -> (Vec<u64>, SimDuration) {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let params = DiskParams::hp_97560();
        let spc = params.geometry.sectors_per_cylinder();
        let disk = DiskHandle::new(&ctx, params, policy, DriveFaultPlan::default());
        let order = Rc::new(RefCell::new(Vec::new()));
        // One task per request, all at time zero: the first requester yields
        // once at the idle drive, so the whole batch is queued before the
        // policy first picks.
        for &c in cylinders {
            let disk = disk.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                disk.io(DiskRequest::read(c * spc, 16)).await;
                order.borrow_mut().push(c);
            });
        }
        let end = sim.run();
        assert_eq!(disk.stats().requests, cylinders.len() as u64);
        let order = order.borrow().clone();
        (order, end.duration_since(SimTime::ZERO))
    }

    #[test]
    fn policies_reorder_a_queued_batch() {
        let batch = [1500u64, 100, 900, 120];
        let order = |policy| serve_batch(policy, &batch).0;
        // FCFS (and drive-level Presort) serve in arrival order.
        assert_eq!(order(SchedPolicy::Fcfs), batch);
        assert_eq!(order(SchedPolicy::Presort), batch);
        // SSTF walks nearest-first from cylinder 0.
        assert_eq!(order(SchedPolicy::Sstf), vec![100, 120, 900, 1500]);
        // CSCAN sweeps upward from cylinder 0.
        assert_eq!(order(SchedPolicy::Cscan), vec![100, 120, 900, 1500]);
    }

    #[test]
    fn scheduling_a_batch_beats_fifo_on_scrambled_cylinders() {
        let batch = [1800u64, 40, 1300, 200, 950, 600, 1550, 90];
        let elapsed = |policy| serve_batch(policy, &batch).1;
        let fcfs = elapsed(SchedPolicy::Fcfs);
        assert!(elapsed(SchedPolicy::Sstf) < fcfs);
        assert!(elapsed(SchedPolicy::Cscan) < fcfs);
    }

    #[test]
    fn queue_depth_counters_accumulate() {
        let (order, _) = serve_batch(SchedPolicy::Fcfs, &[10, 20, 30, 40]);
        assert_eq!(order.len(), 4);
        // Reuse the harness but inspect stats directly for a fresh run.
        let mut sim = Sim::new();
        let ctx = sim.context();
        let disk = fcfs_drive(&ctx, DriveFaultPlan::default());
        for i in 0..4u64 {
            let disk = disk.clone();
            sim.spawn(async move {
                disk.io(DiskRequest::read(i * 16, 16)).await;
            });
        }
        sim.run();
        let s = disk.stats();
        // Three requests waited when the drive took up the first, two when
        // it took up the second, one when it took up the third.
        assert_eq!(s.queue_depth_sum, 3 + 2 + 1);
        assert_eq!(s.max_queue_depth, 3);
        assert_eq!(s.mean_queue_depth(), 6.0 / 4.0);
    }

    #[test]
    fn dead_drive_fails_requests_after_the_deadline() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let plan = DriveFaultPlan {
            dead_at: Some(SimTime::ZERO + SimDuration::from_millis(50)),
            ..DriveFaultPlan::default()
        };
        let disk = fcfs_drive(&ctx, plan);
        let results = Rc::new(RefCell::new(Vec::new()));
        {
            let disk = disk.clone();
            let ctx = ctx.clone();
            let results = Rc::clone(&results);
            sim.spawn(async move {
                let healthy = disk.io(DiskRequest::read(0, 16)).await;
                results.borrow_mut().push(healthy.failed);
                ctx.sleep(SimDuration::from_millis(100)).await;
                let failed = disk.io(DiskRequest::read(16, 16)).await;
                results.borrow_mut().push(failed.failed);
                assert_eq!(failed.total, DiskParams::hp_97560().controller_overhead);
                assert_eq!(failed.transfer, SimDuration::ZERO);
            });
        }
        sim.run();
        assert_eq!(*results.borrow(), vec![false, true]);
        // The dead-drive reply never touched the mechanism.
        assert_eq!(disk.stats().requests, 1);
    }

    #[test]
    fn stall_window_holds_the_queue_until_it_closes() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let until = SimTime::ZERO + SimDuration::from_millis(500);
        let plan = DriveFaultPlan {
            stalls: vec![(SimTime::ZERO, until)],
            ..DriveFaultPlan::default()
        };
        let disk = fcfs_drive(&ctx, plan);
        let done_at = Rc::new(Cell::new(SimTime::ZERO));
        {
            let disk = disk.clone();
            let ctx = ctx.clone();
            let done_at = Rc::clone(&done_at);
            sim.spawn(async move {
                let b = disk.io(DiskRequest::read(0, 16)).await;
                assert!(!b.failed);
                done_at.set(ctx.now());
            });
        }
        sim.run();
        assert!(done_at.get() >= until, "request completed inside the stall");
    }

    #[test]
    fn slow_window_stretches_service_time() {
        let elapsed = |plan: DriveFaultPlan| {
            let mut sim = Sim::new();
            let ctx = sim.context();
            let disk = fcfs_drive(&ctx, plan);
            sim.spawn(async move {
                disk.io(DiskRequest::read(0, 16)).await;
            });
            sim.run().duration_since(SimTime::ZERO)
        };
        let healthy = elapsed(DriveFaultPlan::default());
        let slowed = elapsed(DriveFaultPlan {
            slows: vec![(
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_secs(10),
                4.0,
            )],
            ..DriveFaultPlan::default()
        });
        assert_eq!(slowed.as_nanos(), healthy.as_nanos() * 4);
    }

    #[test]
    fn empty_plan_is_event_identical_to_spawn_disk() {
        // A plan whose windows all open after the run has ended is consulted
        // each time the drive takes a request up but never fires: it must cost exactly what the
        // empty plan costs, event for event.
        let later = SimTime::ZERO + SimDuration::from_secs(1000);
        let idle_plan = DriveFaultPlan {
            dead_at: Some(later),
            stalls: vec![(later, later + SimDuration::from_secs(1))],
            slows: vec![(later, later + SimDuration::from_secs(1), 4.0)],
        };
        let run = |plan: DriveFaultPlan| {
            let mut sim = Sim::new();
            let ctx = sim.context();
            let disk = fcfs_drive(&ctx, plan);
            for i in 0..4u64 {
                let disk = disk.clone();
                sim.spawn(async move {
                    disk.io(DiskRequest::read(i * 16, 16)).await;
                });
            }
            let end = sim.run();
            (end, sim.events_processed())
        };
        let (end, events) = run(DriveFaultPlan::default());
        assert!(end < later);
        assert_eq!(run(idle_plan), (end, events));
    }

    #[test]
    fn stats_visible_through_handle() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let disk = DiskHandle::new(
            &ctx,
            DiskParams::tiny_test(),
            SchedPolicy::Fcfs,
            DriveFaultPlan::default(),
        );
        {
            let disk = disk.clone();
            sim.spawn(async move {
                disk.io(DiskRequest::write(0, 8)).await;
                disk.io(DiskRequest::write(8, 8)).await;
            });
        }
        sim.run();
        // Each request finds the drive idle and costs a yield, a timer and
        // the poll that ends it, after the task's first poll.
        assert_eq!(sim.events_processed(), 1 + 3 * 2);
        let s = disk.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.sectors, 16);
        assert!(s.busy_time > SimDuration::ZERO);
    }
}
