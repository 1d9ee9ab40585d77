//! A served resource: a single server, used in arrival order for a service
//! time per use.
//!
//! Buses, NIs and CPUs are all "use me for this long" facilities that serve
//! one request at a time in arrival order. [`Resource`] is that server, with
//! the usage accounting the experiment harness reports.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::SimContext;
use crate::time::{SimDuration, SimTime};

/// A lazily rendered resource name.
///
/// Machines build thousands of resources per cell ("cp0.cpu", "iop3.bus",
/// "link2-5", …) but the names are only ever read by debug and tracing paths,
/// so constructing them must not allocate. The enum captures the handful of
/// shapes the models use and renders on [`fmt::Display`] only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourceName {
    /// A fixed name, e.g. `"scsi-bus"`.
    Static(&'static str),
    /// `"{prefix}{index}{suffix}"`, e.g. `"iop3.cpu"`.
    Indexed {
        /// Leading literal, e.g. `"iop"`.
        prefix: &'static str,
        /// The numeric component.
        index: usize,
        /// Trailing literal, e.g. `".cpu"`.
        suffix: &'static str,
    },
    /// `"{prefix}{a}{sep}{b}"`, e.g. `"link2-5"`.
    Pair {
        /// Leading literal, e.g. `"link"`.
        prefix: &'static str,
        /// First numeric component.
        a: usize,
        /// Separator literal, e.g. `"-"`.
        sep: &'static str,
        /// Second numeric component.
        b: usize,
    },
}

impl From<&'static str> for ResourceName {
    fn from(name: &'static str) -> Self {
        ResourceName::Static(name)
    }
}

impl fmt::Display for ResourceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceName::Static(name) => f.write_str(name),
            ResourceName::Indexed {
                prefix,
                index,
                suffix,
            } => write!(f, "{prefix}{index}{suffix}"),
            ResourceName::Pair { prefix, a, sep, b } => write!(f, "{prefix}{a}{sep}{b}"),
        }
    }
}

/// A single server, served in arrival order, with usage statistics.
///
/// Each use has a known length, so the server needs no queue: a user that
/// arrives at `now` is served from `max(now, free_at)` for its duration,
/// and the server is free again from there. [`Resource::book`] reserves
/// that slot and returns its end; [`Resource::use_for`] books at its first
/// poll and sleeps to the end, one timer per use however busy the server.
/// Users are served in the order they book, so a newcomer never overtakes
/// an earlier user, and after a `Sim::reset` the server is free at zero.
///
/// # Example
///
/// ```
/// use ddio_sim::{Sim, SimDuration, sync::Resource};
///
/// let mut sim = Sim::new();
/// let ctx = sim.context();
/// // A 10 MB/s bus shared by two talkers.
/// let bus = Resource::new(ctx.clone(), "scsi-bus");
/// for _ in 0..2 {
///     let bus = bus.clone();
///     sim.spawn(async move {
///         // Each moves 1 MB: 100 ms of bus time, serialized.
///         bus.use_for(SimDuration::from_millis(100)).await;
///     });
/// }
/// assert_eq!(sim.run().as_nanos(), 200_000_000);
/// assert_eq!(bus.acquisitions(), 2);
/// ```
#[derive(Clone)]
pub struct Resource {
    /// One shared allocation for everything: cloning a handle is a single
    /// refcount bump — resources are used on every bus transfer, NI
    /// occupancy and CPU charge, so handle traffic is a hot path.
    inner: Rc<ResourceInner>,
}

struct ResourceInner {
    ctx: SimContext,
    name: ResourceName,
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    /// When the last booking ends: the server is free from then on, and
    /// its usage window closes there.
    free_at: SimTime,
    /// The simulation's reset epoch `free_at` was booked in.
    epoch: u64,
    acquisitions: u64,
    busy_time: SimDuration,
    queue_wait: SimDuration,
    first_use: Option<SimTime>,
}

impl Resource {
    /// Creates an idle resource. The name is stored un-rendered; see
    /// [`ResourceName`].
    pub fn new(ctx: SimContext, name: impl Into<ResourceName>) -> Self {
        Resource {
            inner: Rc::new(ResourceInner {
                ctx,
                name: name.into(),
                state: RefCell::new(State::default()),
            }),
        }
    }

    /// The resource's name (rendered on demand for debug/tracing output).
    pub fn name(&self) -> ResourceName {
        self.inner.name
    }

    /// Books the server for `duration` from the first instant it is free,
    /// behind every earlier booking, and returns when the booking ends: the
    /// instant the caller's use is done and the server is free for the next
    /// user. The caller sleeps to that instant, or past it.
    pub fn book(&self, duration: SimDuration) -> SimTime {
        let now = self.inner.ctx.now();
        let mut st = self.inner.state.borrow_mut();
        let epoch = self.inner.ctx.epoch();
        if st.epoch != epoch {
            // The clock restarted at zero: bookings from before the reset
            // were dropped with their tasks.
            st.epoch = epoch;
            st.free_at = SimTime::ZERO;
        }
        let start = now.max(st.free_at);
        let end = start + duration;
        st.free_at = end;
        st.acquisitions += 1;
        st.busy_time += duration;
        st.queue_wait += start - now;
        st.first_use.get_or_insert(start);
        end
    }

    /// Takes back the part of a booking ending at `end` that has not
    /// happened yet: its service not yet given and its wait not yet
    /// waited, and the whole use if it has not started. The slot itself
    /// stays booked, so users booked behind it keep their times.
    fn cancel(&self, end: SimTime, duration: SimDuration) {
        let now = self.inner.ctx.now();
        if now >= end {
            return;
        }
        let start = end - duration;
        let mut st = self.inner.state.borrow_mut();
        st.busy_time -= end - now.max(start);
        if now < start {
            st.queue_wait -= start - now;
            st.acquisitions -= 1;
        }
    }

    /// Uses the resource for `duration` of simulated time: books it at the
    /// first poll and completes when the booking ends. This is the common
    /// "transfer n bytes over the bus" call.
    pub fn use_for(&self, duration: SimDuration) -> UseFor<'_> {
        UseFor {
            resource: self,
            duration,
            end: None,
        }
    }

    /// Number of uses booked, less those dropped before they started.
    pub fn acquisitions(&self) -> u64 {
        self.inner.state.borrow().acquisitions
    }

    /// Total simulated time the server has been booked for.
    pub fn busy_time(&self) -> SimDuration {
        self.inner.state.borrow().busy_time
    }

    /// Total time users waited for the server before being served.
    pub fn total_queue_wait(&self) -> SimDuration {
        self.inner.state.borrow().queue_wait
    }

    /// Busy time divided by the window from first use to the end of the
    /// last booking. Returns zero before any use.
    pub fn utilization(&self) -> f64 {
        let st = self.inner.state.borrow();
        let Some(first) = st.first_use else {
            return 0.0;
        };
        let window = st.free_at.saturating_duration_since(first);
        if window.is_zero() {
            return 0.0;
        }
        st.busy_time.as_secs_f64() / window.as_secs_f64()
    }
}

/// Future returned by [`Resource::use_for`]: books the server at its first
/// poll and completes when the booking ends, with one timer in between.
///
/// Dropping it before then takes back the part of the booking that has not
/// happened yet (see [`Resource::busy_time`] and
/// [`Resource::total_queue_wait`]).
pub struct UseFor<'a> {
    resource: &'a Resource,
    duration: SimDuration,
    /// When the booking ends, once the first poll has made it (and set the
    /// timer for it).
    end: Option<SimTime>,
}

impl Future for UseFor<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut registered = this.end.is_some();
        let end = *this
            .end
            .get_or_insert_with(|| this.resource.book(this.duration));
        this.resource.inner.ctx.poll_sleep(end, &mut registered)
    }
}

impl Drop for UseFor<'_> {
    fn drop(&mut self) {
        if let Some(end) = self.end {
            self.resource.cancel(end, self.duration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;
    use std::cell::Cell;

    #[test]
    fn serializes_when_capacity_one() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let bus = Resource::new(ctx, "bus");
        for _ in 0..3 {
            let bus = bus.clone();
            sim.spawn(async move {
                bus.use_for(SimDuration::from_millis(5)).await;
            });
        }
        assert_eq!(sim.run().as_nanos(), 15_000_000);
        assert_eq!(bus.acquisitions(), 3);
        assert_eq!(bus.busy_time(), SimDuration::from_millis(15));
        assert!((bus.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn queue_wait_is_tracked() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let r = Resource::new(ctx, "single");
        for _ in 0..2 {
            let r = r.clone();
            sim.spawn(async move {
                r.use_for(SimDuration::from_millis(10)).await;
            });
        }
        sim.run();
        // The second task waits 10 ms for the first to finish.
        assert_eq!(r.total_queue_wait(), SimDuration::from_millis(10));
    }

    #[test]
    fn utilization_zero_when_unused() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let r = Resource::new(ctx, "idle");
        sim.run();
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.acquisitions(), 0);
    }

    #[test]
    fn utilization_counts_idle_gaps() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let r = Resource::new(ctx.clone(), "gappy");
        let r2 = r.clone();
        sim.spawn(async move {
            r2.use_for(SimDuration::from_millis(1)).await;
            ctx.sleep(SimDuration::from_millis(2)).await;
            r2.use_for(SimDuration::from_millis(1)).await;
        });
        sim.run();
        assert!((r.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn uncontended_acquire_is_immediate() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let r = Resource::new(ctx.clone(), "free");
        let r2 = r.clone();
        let held_at = Rc::new(Cell::new(u64::MAX));
        let held_at2 = Rc::clone(&held_at);
        sim.spawn(async move {
            // A zero-length use is served and released in its first poll.
            r2.use_for(SimDuration::ZERO).await;
            held_at2.set(ctx.now().as_nanos());
        });
        sim.run();
        assert_eq!(held_at.get(), 0);
        assert_eq!(r.total_queue_wait(), SimDuration::ZERO);
        assert_eq!(r.acquisitions(), 1);
    }

    #[test]
    fn fifo_ordering() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let r = Resource::new(ctx.clone(), "fifo");
        let order = Rc::new(RefCell::new(Vec::new()));
        // A holder keeps the server while the others book behind it.
        {
            let r = r.clone();
            sim.spawn(async move {
                r.use_for(SimDuration::from_micros(1)).await;
            });
        }
        for i in 0..4u32 {
            let r = r.clone();
            let order = Rc::clone(&order);
            let ctx = ctx.clone();
            sim.spawn(async move {
                // Stagger arrival so booking order is well-defined, and
                // against spawn order so only arrival decides.
                ctx.sleep(SimDuration::from_nanos(4 - i as u64)).await;
                r.use_for(SimDuration::from_micros(1)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn no_barging_on_release() {
        // A newcomer that arrives at the very instant the holder's use ends
        // is served after the user already booked behind the holder.
        let mut sim = Sim::new();
        let ctx = sim.context();
        let r = Resource::new(ctx.clone(), "handoff");
        let order = Rc::new(RefCell::new(Vec::new()));
        for (name, arrive_ns) in [("holder", 0u64), ("queued", 1), ("newcomer", 10)] {
            let r = r.clone();
            let ctx = ctx.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_nanos(arrive_ns)).await;
                r.use_for(SimDuration::from_nanos(10)).await;
                // Each user held the server for the 10 ns just ended.
                order.borrow_mut().push((name, ctx.now().as_nanos() - 10));
            });
        }
        sim.run();
        assert_eq!(
            *order.borrow(),
            vec![("holder", 0), ("queued", 10), ("newcomer", 20)]
        );
    }

    #[test]
    fn reset_cancels_queued_acquirers() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let r = Resource::new(ctx.clone(), "cancel");
        {
            // The holder is still holding the server when the run unwinds.
            let r = r.clone();
            sim.spawn(async move {
                r.use_for(SimDuration::from_millis(10)).await;
            });
        }
        let served = Rc::new(Cell::new(false));
        {
            let r = r.clone();
            let served = Rc::clone(&served);
            sim.spawn(async move {
                r.use_for(SimDuration::from_millis(1)).await;
                served.set(true);
            });
        }
        // A run that unwinds at time zero, the way a harness that catches a
        // panicking transfer leaves its `Sim`: the holder and the user
        // booked behind it stay parked.
        sim.spawn(async move {
            panic!("transfer failed");
        });
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(unwound.is_err());
        assert_eq!(
            sim.live_tasks(),
            2,
            "holder and queued acquirer parked; the task that unwound is gone"
        );
        sim.reset();
        assert!(!served.get(), "a dropped acquirer never takes the server");
        // A new user is served at once, and the booking dropped before its
        // start added no queue wait.
        let r2 = r.clone();
        sim.spawn(async move {
            r2.use_for(SimDuration::from_millis(5)).await;
        });
        assert_eq!(sim.run().as_nanos(), 5_000_000);
        assert_eq!(r.total_queue_wait(), SimDuration::ZERO);
    }

    #[test]
    fn a_contended_use_costs_no_more_events_than_an_uncontended_one() {
        // Events of `users` tasks each using one server once, all arriving
        // at time zero.
        let events = |users: u64| {
            let mut sim = Sim::new();
            let r = Resource::new(sim.context(), "booked");
            for _ in 0..users {
                let r = r.clone();
                sim.spawn(async move {
                    r.use_for(SimDuration::from_micros(3)).await;
                });
            }
            assert_eq!(sim.run().as_nanos(), 3_000 * users);
            sim.events_processed()
        };
        // A use is its first poll, its timer and the poll that ends it,
        // however many users are booked ahead of it.
        assert_eq!(events(1), 3);
        assert_eq!(events(4), 4 * events(1));
    }

    #[test]
    fn a_use_dropped_part_way_gives_back_what_it_did_not_use() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let r = Resource::new(ctx.clone(), "dropped");
        {
            let r = r.clone();
            sim.spawn(async move {
                r.use_for(SimDuration::from_millis(10)).await;
            });
        }
        {
            let r = r.clone();
            sim.spawn(async move {
                r.use_for(SimDuration::from_millis(4)).await;
            });
        }
        // Unwind 3 ms in: the holder has served 3 ms of its 10, and the user
        // booked behind it has waited 3 ms of its 10.
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(3)).await;
            panic!("transfer failed");
        });
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(unwound.is_err());
        sim.reset();
        assert_eq!(r.busy_time(), SimDuration::from_millis(3));
        assert_eq!(r.total_queue_wait(), SimDuration::from_millis(3));
        assert_eq!(r.acquisitions(), 1, "the waiting user never started");
    }

    #[test]
    fn use_for_future_stays_small() {
        let sim = Sim::new();
        let r = Resource::new(sim.context(), "small");
        let use_for = r.use_for(SimDuration::from_nanos(1));
        assert!(
            std::mem::size_of_val(&use_for) <= 32,
            "use_for future is {} bytes",
            std::mem::size_of_val(&use_for)
        );
    }
}
