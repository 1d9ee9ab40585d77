//! The counting latch.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::TaskRef;

struct CountdownInner {
    remaining: u64,
    waiters: Vec<TaskRef>,
}

/// A latch that is open while its count is zero.
///
/// Models "wait for all IOPs to respond that they are finished" (Figure 1c of
/// the paper): the requesting CP creates a countdown of `n_iops` and each IOP
/// completion counts it down once. The same latch with a count of one is a
/// one-shot event (a cache fill), and started at zero and raised with
/// [`CountdownEvent::add`] it counts outstanding background work.
///
/// Waiters wake in registration order at the moment the count reaches zero.
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
                waiters: Vec::new(),
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
            for w in inner.waiters.drain(..) {
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
            inner.waiters.push(TaskRef::capture());
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
                    ctx.clone().spawn_detached(async move {
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
}
