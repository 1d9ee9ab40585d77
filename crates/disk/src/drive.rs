//! The asynchronous disk server: one task per drive, as in the paper
//! ("Each disk had a thread permanently running on its IOP, that controlled
//! access to the disk").
//!
//! The server task owns the drive's [`DiskQueue`], ordered by the
//! [`SchedPolicy`] the drive is spawned with: arriving requests are moved
//! from the command channel into the queue, and every time the mechanism
//! goes idle the queue picks the next request using the arm's current
//! cylinder. The FCFS policy reproduces the original hardwired FIFO exactly.

use std::cell::RefCell;
use std::rc::Rc;

use ddio_sim::sync::{oneshot, unbounded, Receiver, Sender};
use ddio_sim::{SimContext, SimDuration, SimTime};

use crate::model::{DiskModel, DiskParams, DiskStats};
use crate::request::{DiskRequest, ServiceBreakdown};
use crate::sched::{DiskQueue, SchedPolicy};

/// Timed faults injected into one drive's server loop.
///
/// The plan is consulted at every dispatch, against the simulated clock: a
/// dead drive fails requests after paying the controller overhead
/// (the error reply), a stalled drive holds its queue until the window ends
/// (an IOP crash + restart), and a slowed drive stretches each service by a
/// factor (a drive in internal recovery). The default (empty) plan adds no
/// awaits and no branches taken, so a drive with no faults is
/// event-for-event identical to the pre-fault server.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriveFaultPlan {
    /// The drive fails permanently at this instant: every request dispatched
    /// at or after it returns `failed: true` after the controller overhead.
    pub dead_at: Option<SimTime>,
    /// Windows `[from, until)` during which the server holds dispatches and
    /// resumes when the window closes (IOP crash + restart).
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
    /// Overlap — not the dispatch instant — so a degradation that begins and
    /// ends mid-service still costs time.
    pub fn slow_factor(&self, start: SimTime, end: SimTime) -> f64 {
        self.slows
            .iter()
            .filter(|&&(from, until, _)| start < until && from < end)
            .map(|&(_, _, factor)| factor)
            .fold(1.0, f64::max)
    }
}

/// The payload a drive threads through its queue: the completion channel.
type Done = oneshot::OneSender<ServiceBreakdown>;

/// A command sent to a disk server: the request plus a completion channel.
struct DiskCommand {
    request: DiskRequest,
    done: Done,
}

/// Handle used by file-system code to issue requests to one drive.
///
/// The handle is cheap to clone; all clones feed the same pending queue, and
/// the drive serves exactly one request at a time, in the order chosen by
/// the configured [`SchedPolicy`].
#[derive(Clone)]
pub struct DiskHandle {
    tx: Sender<DiskCommand>,
    model: Rc<RefCell<DiskModel>>,
    id: usize,
}

impl DiskHandle {
    /// This drive's index within its I/O processor.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Issues a request and waits for the drive to complete it.
    ///
    /// The returned breakdown says where the service time went.
    pub async fn io(&self, request: DiskRequest) -> ServiceBreakdown {
        let (done_tx, done_rx) = oneshot::channel();
        self.tx
            .try_send(DiskCommand {
                request,
                done: done_tx,
            })
            .unwrap_or_else(|_| panic!("disk server task terminated while clients still exist"));
        done_rx.await.expect("disk server dropped a request")
    }

    /// Statistics accumulated by the drive so far.
    pub fn stats(&self) -> DiskStats {
        self.model.borrow().stats()
    }
}

/// Spawns a disk-server task on the simulation and returns a handle to it.
///
/// The drive serves its pending queue in the order `sched` picks, with
/// `plan`'s faults injected into its dispatch loop (the empty
/// [`DriveFaultPlan::default`] takes no fault branch and adds no events).
/// The server runs until every [`DiskHandle`] clone has been dropped.
pub fn spawn_disk(
    ctx: &SimContext,
    id: usize,
    params: DiskParams,
    sched: SchedPolicy,
    plan: DriveFaultPlan,
) -> DiskHandle {
    let (tx, rx): (Sender<DiskCommand>, Receiver<DiskCommand>) = unbounded();
    let model = Rc::new(RefCell::new(DiskModel::new(params)));
    let mut pending = DiskQueue::new(sched, params.geometry);
    let handle = DiskHandle {
        tx,
        model: Rc::clone(&model),
        id,
    };
    let server_ctx = ctx.clone();
    ctx.spawn(async move {
        loop {
            // Move every command that has already arrived into the queue so
            // the policy sees the whole pending set.
            while let Some(cmd) = rx.try_recv() {
                pending.push(cmd.request, cmd.done);
            }
            if pending.is_empty() {
                // Idle: block for the next arrival, or shut down once every
                // handle clone has been dropped.
                match rx.recv().await {
                    Some(cmd) => {
                        pending.push(cmd.request, cmd.done);
                        continue;
                    }
                    None => break,
                }
            }
            let current = model.borrow().current_cylinder();
            let (request, done) = pending.pop_next(current).expect("queue checked non-empty");
            model.borrow_mut().record_queue_depth(pending.len() as u64);
            let mut now: SimTime = server_ctx.now();
            // A stall window (IOP crash + restart) holds the dispatch until
            // the window closes; the request then proceeds normally.
            if let Some(until) = plan.stall_until(now) {
                server_ctx.sleep(until - now).await;
                now = server_ctx.now();
            }
            if plan.is_dead(now) {
                // The dead drive answers with an error after the controller
                // overhead; no media transfer, no mechanism movement.
                let overhead = model.borrow().params().controller_overhead;
                server_ctx.sleep(overhead).await;
                done.send(ServiceBreakdown {
                    overhead,
                    total: overhead,
                    failed: true,
                    ..ServiceBreakdown::default()
                });
                continue;
            }
            let mut breakdown = model.borrow_mut().service(request, now);
            let factor = plan.slow_factor(now, now + breakdown.total);
            if factor > 1.0 {
                // The stretch is charged to the requester (and the simulated
                // clock), not to `DiskStats::busy_time`, which keeps counting
                // healthy service time only.
                breakdown.total =
                    SimDuration::from_secs_f64(breakdown.total.as_secs_f64() * factor);
            }
            server_ctx.sleep(breakdown.total).await;
            done.send(breakdown);
        }
    });
    handle
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddio_sim::{Sim, SimDuration};
    use std::cell::Cell;

    /// An FCFS HP 97560 drive with `plan`'s faults.
    fn fcfs_drive(ctx: &SimContext, plan: DriveFaultPlan) -> DiskHandle {
        spawn_disk(ctx, 0, DiskParams::hp_97560(), SchedPolicy::Fcfs, plan)
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
    }

    #[test]
    fn concurrent_clients_share_one_mechanism() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let disk = spawn_disk(
            &ctx,
            3,
            DiskParams::hp_97560(),
            SchedPolicy::Fcfs,
            DriveFaultPlan::default(),
        );
        assert_eq!(disk.id(), 3);
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
        let disk = spawn_disk(&ctx, 0, params, policy, DriveFaultPlan::default());
        let order = Rc::new(RefCell::new(Vec::new()));
        // One task per request, spawned after the (already waiting) server
        // task: the whole batch is enqueued before the first dispatch.
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
        // Three requests waited behind the first dispatch, two behind the
        // second, one behind the third.
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
        // at every dispatch but never fires: it must cost exactly what the
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
        let disk = spawn_disk(
            &ctx,
            0,
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
        let s = disk.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.sectors, 16);
        assert!(s.busy_time > SimDuration::ZERO);
    }
}
