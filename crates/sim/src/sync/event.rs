//! The counting latch.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::TaskRef;

struct CountdownInner {
    remaining: u64,
    /// The first waiter, kept inline so a single-waiter latch (a reply, a
    /// cache fill) allocates nothing beyond its `Rc`.
    first: Option<TaskRef>,
    /// The second waiter and beyond, in registration order.
    rest: Vec<TaskRef>,
}

/// A latch that is open while its count is zero.
///
/// Models "wait for all IOPs to respond that they are finished" (Figure 1c of
/// the paper): the requesting CP creates a countdown of `n_iops` and each IOP
/// completion counts it down once. The same latch with a count of one is a
/// one-shot event (a cache fill, or the reply to one request, which carries
/// the latch back for its receiver to signal); started at zero and raised
/// with [`CountdownEvent::add`] it counts outstanding background work; and
/// with one count per party it is the paper's barrier: each party signals,
/// the one that sees [`CountdownEvent::remaining`] reach zero is the last
/// arriver, and every party waits.
///
/// Waiters wake in registration order at the moment the count reaches zero.
///
/// # Example
///
/// ```
/// use ddio_sim::{Sim, SimDuration, sync::CountdownEvent};
///
/// let mut sim = Sim::new();
/// let ctx = sim.context();
/// let arrived = CountdownEvent::new(4);
/// for i in 0..4u64 {
///     let ctx = ctx.clone();
///     let arrived = arrived.clone();
///     sim.spawn(async move {
///         ctx.sleep(SimDuration::from_millis(i)).await;
///         arrived.signal();
///         let last = arrived.remaining() == 0;
///         arrived.wait().await;
///         // Everyone is released when the last task arrives, and the last
///         // arriver is the one that saw the count reach zero.
///         assert_eq!(ctx.now().as_nanos(), 3_000_000);
///         assert_eq!(last, i == 3);
///     });
/// }
/// sim.run();
/// ```
#[derive(Clone)]
pub struct CountdownEvent {
    inner: Rc<RefCell<CountdownInner>>,
}

impl CountdownEvent {
    /// Creates a latch that opens after `count` calls to
    /// [`CountdownEvent::signal`]. A zero count is already open.
    pub fn new(count: u64) -> Self {
        CountdownEvent {
            inner: Rc::new(RefCell::new(CountdownInner {
                remaining: count,
                first: None,
                rest: Vec::new(),
            })),
        }
    }

    /// Raises the count by `n`, closing an open latch.
    pub fn add(&self, n: u64) {
        self.inner.borrow_mut().remaining += n;
    }

    /// Counts down once; opens the latch when the count reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if signalled more times than its count — that would mean a
    /// protocol error (e.g. an IOP acknowledging a request twice).
    pub fn signal(&self) {
        let mut inner = self.inner.borrow_mut();
        assert!(
            inner.remaining > 0,
            "CountdownEvent signalled more times than its count"
        );
        inner.remaining -= 1;
        if inner.remaining == 0 {
            if let Some(w) = inner.first.take() {
                w.wake();
            }
            for w in inner.rest.drain(..) {
                w.wake();
            }
        }
    }

    /// Remaining signals before the latch opens.
    pub fn remaining(&self) -> u64 {
        self.inner.borrow().remaining
    }

    /// Waits until the latch opens.
    pub fn wait(&self) -> CountdownWait {
        CountdownWait {
            latch: self.clone(),
        }
    }
}

impl std::fmt::Debug for CountdownEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountdownEvent")
            .field("remaining", &self.remaining())
            .finish()
    }
}

/// Future returned by [`CountdownEvent::wait`].
pub struct CountdownWait {
    latch: CountdownEvent,
}

impl Future for CountdownWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.latch.inner.borrow_mut();
        if inner.remaining == 0 {
            Poll::Ready(())
        } else {
            let waiter = TaskRef::capture();
            if inner.first.is_none() {
                inner.first = Some(waiter);
            } else {
                inner.rest.push(waiter);
            }
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::Cell;

    #[test]
    fn event_wakes_waiters() {
        // A latch of one is a one-shot event: one signal releases every
        // waiter, in registration order.
        let mut sim = Sim::new();
        let ctx = sim.context();
        let ev = CountdownEvent::new(1);
        let woken = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let ev = ev.clone();
            let ctx = ctx.clone();
            let woken = Rc::clone(&woken);
            sim.spawn(async move {
                ev.wait().await;
                woken.borrow_mut().push((i, ctx.now().as_nanos()));
            });
        }
        {
            let ev = ev.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(2)).await;
                ev.signal();
            });
        }
        sim.run();
        assert_eq!(
            *woken.borrow(),
            vec![(0, 2_000_000), (1, 2_000_000), (2, 2_000_000)]
        );
        assert_eq!(ev.remaining(), 0);
    }

    #[test]
    fn wait_after_set_is_immediate() {
        let mut sim = Sim::new();
        let ev = CountdownEvent::new(1);
        ev.signal();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        let ev2 = ev.clone();
        sim.spawn(async move {
            ev2.wait().await;
            done2.set(true);
        });
        assert_eq!(sim.run(), crate::SimTime::ZERO);
        assert!(done.get());
    }

    #[test]
    fn countdown_opens_only_after_all_signals() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let latch = CountdownEvent::new(4);
        let opened_at = Rc::new(Cell::new(0u64));
        {
            let latch = latch.clone();
            let ctx = ctx.clone();
            let opened_at = Rc::clone(&opened_at);
            sim.spawn(async move {
                latch.wait().await;
                opened_at.set(ctx.now().as_nanos());
            });
        }
        for i in 1..=4u64 {
            let latch = latch.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(i)).await;
                latch.signal();
            });
        }
        sim.run();
        assert_eq!(opened_at.get(), 4_000_000);
        assert_eq!(latch.remaining(), 0);
    }

    #[test]
    fn zero_countdown_is_open() {
        let mut sim = Sim::new();
        let latch = CountdownEvent::new(0);
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            latch.wait().await;
            done2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    #[should_panic(expected = "more times")]
    fn over_signalling_panics() {
        let latch = CountdownEvent::new(1);
        latch.signal();
        latch.signal();
    }

    #[test]
    fn add_counts_background_work() {
        // Started at zero and raised per job, the latch waits for all
        // background work, including jobs started while others run.
        let mut sim = Sim::new();
        let ctx = sim.context();
        let pending = CountdownEvent::new(0);
        let idle_at = Rc::new(Cell::new(0u64));
        for d in [3u64, 1, 2] {
            pending.add(1);
            let ctx = ctx.clone();
            let pending = pending.clone();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(d)).await;
                if d == 1 {
                    // A job that spawns a follow-up before it finishes.
                    pending.add(1);
                    let ctx = ctx.clone();
                    let follow = pending.clone();
                    ctx.clone().spawn(async move {
                        ctx.sleep(SimDuration::from_millis(4)).await;
                        follow.signal();
                    });
                }
                pending.signal();
            });
        }
        {
            let ctx = ctx.clone();
            let pending = pending.clone();
            let idle_at = Rc::clone(&idle_at);
            sim.spawn(async move {
                pending.wait().await;
                idle_at.set(ctx.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(idle_at.get(), 5_000_000);
        assert_eq!(pending.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "more times")]
    fn signal_without_add_panics() {
        CountdownEvent::new(0).signal();
    }

    /// One party's arrival at a latch used as a barrier: signal, note
    /// whether this arrival opened it, then wait for the others.
    async fn arrive(latch: &CountdownEvent) -> bool {
        latch.signal();
        let last = latch.remaining() == 0;
        latch.wait().await;
        last
    }

    #[test]
    fn barrier_releases_everyone_at_the_last_arrival_in_registration_order() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let arrived = CountdownEvent::new(3);
        let released = Rc::new(RefCell::new(Vec::new()));
        // Parties arrive in the order 2, 0, 1.
        for (i, delay) in [(0u64, 10u64), (1, 20), (2, 0)] {
            let ctx = ctx.clone();
            let arrived = arrived.clone();
            let released = Rc::clone(&released);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(delay)).await;
                arrive(&arrived).await;
                released.borrow_mut().push((i, ctx.now().as_nanos()));
            });
        }
        sim.run();
        // The last arriver (1) runs on without blocking; the waiters resume
        // in the order they registered.
        assert_eq!(
            *released.borrow(),
            vec![(1, 20_000_000), (2, 20_000_000), (0, 20_000_000)]
        );
    }

    #[test]
    fn exactly_one_signaller_sees_the_latch_open() {
        let mut sim = Sim::new();
        let arrived = CountdownEvent::new(5);
        let last = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let arrived = arrived.clone();
            let last = Rc::clone(&last);
            sim.spawn(async move {
                if arrive(&arrived).await {
                    last.borrow_mut().push(i);
                }
            });
        }
        sim.run();
        assert_eq!(*last.borrow(), vec![4], "the last arriver, alone");
    }

    #[test]
    fn two_latches_give_two_barrier_rounds() {
        // The disk-directed protocol's pattern: every party meets at `ready`,
        // the last arriver does some work, then every party meets at `done`,
        // which cannot open before that work is over.
        let mut sim = Sim::new();
        let ctx = sim.context();
        let (ready, done) = (CountdownEvent::new(3), CountdownEvent::new(3));
        let released = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u64 {
            let ctx = ctx.clone();
            let (ready, done) = (ready.clone(), done.clone());
            let released = Rc::clone(&released);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(i)).await;
                if arrive(&ready).await {
                    assert_eq!(ctx.now().as_nanos(), 2_000_000);
                    ctx.sleep(SimDuration::from_millis(5)).await;
                }
                arrive(&done).await;
                released.borrow_mut().push(ctx.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(*released.borrow(), vec![7_000_000; 3]);
    }

    #[test]
    fn a_one_party_latch_never_blocks() {
        let mut sim = Sim::new();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            for _ in 0..10 {
                assert!(arrive(&CountdownEvent::new(1)).await);
            }
            done2.set(true);
        });
        assert_eq!(sim.run(), crate::SimTime::ZERO);
        assert!(done.get());
    }

    #[test]
    fn debug_prints_the_remaining_count() {
        let latch = CountdownEvent::new(3);
        latch.signal();
        assert_eq!(format!("{latch:?}"), "CountdownEvent { remaining: 2 }");
    }
}
