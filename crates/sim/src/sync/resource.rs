//! A served resource: a single server with a FIFO queue and a service time.
//!
//! Buses, NIs and CPUs are all "use me for this long" facilities that serve
//! one request at a time in arrival order. [`Resource`] is that server, with
//! the usage accounting the experiment harness reports.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{SimContext, TaskRef};
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

/// A single server with a FIFO queue and usage statistics.
///
/// Users are served one at a time in arrival order. A release hands the
/// server straight to the head of the queue, so a newcomer never overtakes a
/// queued user.
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
    /// True while a user holds the server, including a queued user it was
    /// handed to that has not run yet.
    busy: bool,
    /// Queued users in arrival order, each with the ticket it queued under.
    /// The deque keeps its capacity, so steady-state queueing never
    /// allocates.
    queue: VecDeque<(u64, TaskRef)>,
    /// The ticket the next queued user takes.
    next_ticket: u64,
    /// The ticket the server was last handed to, until that user runs.
    handed_to: Option<u64>,
    acquisitions: u64,
    busy_time: SimDuration,
    queue_wait: SimDuration,
    first_use: Option<SimTime>,
    last_release: SimTime,
}

impl State {
    /// Grants the server to a user that asked for it at `requested`.
    fn grant(&mut self, requested: SimTime, now: SimTime) {
        self.acquisitions += 1;
        self.queue_wait += now - requested;
        self.first_use.get_or_insert(now);
    }

    /// Ends a hold that began at `acquired_at`: records its busy time, then
    /// frees the server or hands it to the head of the queue.
    fn release(&mut self, acquired_at: SimTime, now: SimTime) {
        self.busy_time += now - acquired_at;
        if now > self.last_release {
            self.last_release = now;
        }
        self.pass_on();
    }

    /// Frees the server, or hands it to the head of the queue.
    fn pass_on(&mut self) {
        match self.queue.pop_front() {
            Some((ticket, waiter)) => {
                self.handed_to = Some(ticket);
                waiter.wake();
            }
            None => self.busy = false,
        }
    }
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

    /// Acquires the resource, holds it for `duration` of simulated time, and
    /// releases it. This is the common "transfer n bytes over the bus" call.
    pub fn use_for(&self, duration: SimDuration) -> UseFor<'_> {
        UseFor {
            inner: &self.inner,
            duration,
            hold: Hold::Start,
        }
    }

    /// Number of completed or in-progress acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.inner.state.borrow().acquisitions
    }

    /// Total simulated time the server has been held.
    pub fn busy_time(&self) -> SimDuration {
        self.inner.state.borrow().busy_time
    }

    /// Total time users spent queued before being served.
    pub fn total_queue_wait(&self) -> SimDuration {
        self.inner.state.borrow().queue_wait
    }

    /// Busy time divided by the window from first use to last release.
    /// Returns zero before any use.
    pub fn utilization(&self) -> f64 {
        let st = self.inner.state.borrow();
        let Some(first) = st.first_use else {
            return 0.0;
        };
        let window = st.last_release.saturating_duration_since(first);
        if window.is_zero() {
            return 0.0;
        }
        st.busy_time.as_secs_f64() / window.as_secs_f64()
    }
}

/// Future returned by [`Resource::use_for`]: queues for the server, holds it
/// for the duration, and releases it, as one state machine.
///
/// Dropping it part-way never strands the server: a queued user leaves the
/// queue, a user the server was already handed to passes it on, and a
/// holder releases it (recording the time it held).
pub struct UseFor<'a> {
    inner: &'a ResourceInner,
    duration: SimDuration,
    hold: Hold,
}

/// Where one [`UseFor`] stands.
enum Hold {
    /// Holds nothing: not polled yet, or finished.
    Start,
    /// Waiting in the queue under `ticket` since `requested`.
    Queued { ticket: u64, requested: SimTime },
    /// Holding the server since `acquired_at`, with the timer that ends the
    /// hold set by the poll that granted it.
    Holding { acquired_at: SimTime },
}

impl Future for UseFor<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let inner = this.inner;
        // When the hold began, and whether an earlier poll set its timer.
        let (acquired_at, mut registered) = match this.hold {
            Hold::Start => {
                let now = inner.ctx.now();
                let mut st = inner.state.borrow_mut();
                if st.busy {
                    let ticket = st.next_ticket;
                    st.next_ticket += 1;
                    st.queue.push_back((ticket, TaskRef::capture()));
                    this.hold = Hold::Queued {
                        ticket,
                        requested: now,
                    };
                    return Poll::Pending;
                }
                st.busy = true;
                st.grant(now, now);
                (now, false)
            }
            Hold::Queued { ticket, requested } => {
                let mut st = inner.state.borrow_mut();
                // Polled again while still queued: the queued `TaskRef`
                // already names this task.
                if st.handed_to != Some(ticket) {
                    return Poll::Pending;
                }
                st.handed_to = None;
                let now = inner.ctx.now();
                st.grant(requested, now);
                (now, false)
            }
            Hold::Holding { acquired_at } => (acquired_at, true),
        };
        this.hold = Hold::Holding { acquired_at };
        if inner
            .ctx
            .poll_sleep(acquired_at + this.duration, &mut registered)
            .is_pending()
        {
            return Poll::Pending;
        }
        this.hold = Hold::Start;
        inner
            .state
            .borrow_mut()
            .release(acquired_at, inner.ctx.now());
        Poll::Ready(())
    }
}

impl Drop for UseFor<'_> {
    fn drop(&mut self) {
        let inner = self.inner;
        match self.hold {
            Hold::Start => {}
            Hold::Queued { ticket, .. } => {
                let mut st = inner.state.borrow_mut();
                if st.handed_to == Some(ticket) {
                    st.handed_to = None;
                    st.pass_on();
                } else if let Some(pos) = st.queue.iter().position(|(t, _)| *t == ticket) {
                    st.queue.remove(pos);
                }
            }
            Hold::Holding { acquired_at } => inner
                .state
                .borrow_mut()
                .release(acquired_at, inner.ctx.now()),
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
        // A holder keeps the server while the others queue up.
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
                // Stagger arrival so queue order is well-defined, and
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
        // A newcomer that arrives at the very instant the server is released
        // queues behind the user the server was handed to.
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
        // panicking transfer leaves its `Sim`: the holder and the queued
        // user stay parked.
        sim.spawn(async move {
            panic!("transfer failed");
        });
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
        assert!(unwound.is_err());
        assert_eq!(
            sim.live_tasks(),
            3,
            "holder and queued acquirer parked, beside the task that unwound"
        );
        sim.reset();
        assert!(!served.get(), "a dropped acquirer never takes the server");
        // A new user is served at once.
        let r2 = r.clone();
        sim.spawn(async move {
            r2.use_for(SimDuration::from_millis(5)).await;
        });
        assert_eq!(sim.run().as_nanos(), 5_000_000);
        assert_eq!(r.total_queue_wait(), SimDuration::ZERO);
    }

    #[test]
    fn use_for_future_stays_small() {
        let sim = Sim::new();
        let r = Resource::new(sim.context(), "small");
        let use_for = r.use_for(SimDuration::from_nanos(1));
        assert!(
            std::mem::size_of_val(&use_for) <= 48,
            "use_for future is {} bytes",
            std::mem::size_of_val(&use_for)
        );
    }
}
