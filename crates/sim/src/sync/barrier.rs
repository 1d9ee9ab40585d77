//! A reusable barrier for SPMD-style synchronization.
//!
//! The paper's collective operations synchronize the compute processors with
//! barriers ("Barrier (CPs using this file)"); this is that primitive.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::TaskRef;

struct Inner {
    parties: u64,
    arrived: u64,
    generation: u64,
    waiters: Vec<TaskRef>,
}

/// A cyclic barrier for `parties` tasks.
///
/// Every call to [`Barrier::wait`] blocks until `parties` tasks have called
/// it; then all are released and the barrier resets for the next round.
///
/// # Example
///
/// ```
/// use ddio_sim::{Sim, SimDuration, sync::Barrier};
///
/// let mut sim = Sim::new();
/// let ctx = sim.context();
/// let barrier = Barrier::new(4);
/// for i in 0..4u64 {
///     let ctx = ctx.clone();
///     let barrier = barrier.clone();
///     sim.spawn(async move {
///         ctx.sleep(SimDuration::from_millis(i)).await;
///         let outcome = barrier.wait().await;
///         // Everyone is released at the time the last task arrives.
///         assert_eq!(ctx.now().as_nanos(), 3_000_000);
///         let _ = outcome.is_leader();
///     });
/// }
/// sim.run();
/// ```
#[derive(Clone)]
pub struct Barrier {
    inner: Rc<RefCell<Inner>>,
}

/// Result of a barrier wait; exactly one waiter per round is the "leader".
///
/// The paper uses the leader role for "any one CP multicasts the collective
/// request to all IOPs" (Figure 1c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierWaitResult {
    leader: bool,
}

impl BarrierWaitResult {
    /// True for exactly one task per barrier round (the last arriver).
    pub fn is_leader(self) -> bool {
        self.leader
    }
}

impl Barrier {
    /// Creates a barrier for `parties` tasks.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: u64) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        Barrier {
            inner: Rc::new(RefCell::new(Inner {
                parties,
                arrived: 0,
                generation: 0,
                waiters: Vec::new(),
            })),
        }
    }

    /// Waits for all parties to arrive.
    pub fn wait(&self) -> BarrierWait {
        BarrierWait {
            barrier: self.clone(),
            state: WaitState::NotArrived,
        }
    }
}

enum WaitState {
    NotArrived,
    Waiting { generation: u64 },
    Done { leader: bool },
}

/// Future returned by [`Barrier::wait`].
pub struct BarrierWait {
    barrier: Barrier,
    state: WaitState,
}

impl Future for BarrierWait {
    type Output = BarrierWaitResult;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<BarrierWaitResult> {
        let this = &mut *self;
        loop {
            match this.state {
                WaitState::Done { leader } => return Poll::Ready(BarrierWaitResult { leader }),
                WaitState::Waiting { generation } => {
                    let inner = this.barrier.inner.borrow();
                    if inner.generation != generation {
                        drop(inner);
                        this.state = WaitState::Done { leader: false };
                        continue;
                    }
                    drop(inner);
                    this.barrier
                        .inner
                        .borrow_mut()
                        .waiters
                        .push(TaskRef::capture());
                    return Poll::Pending;
                }
                WaitState::NotArrived => {
                    let mut inner = this.barrier.inner.borrow_mut();
                    inner.arrived += 1;
                    if inner.arrived == inner.parties {
                        inner.arrived = 0;
                        inner.generation += 1;
                        for w in inner.waiters.drain(..) {
                            w.wake();
                        }
                        drop(inner);
                        this.state = WaitState::Done { leader: true };
                    } else {
                        let generation = inner.generation;
                        drop(inner);
                        this.state = WaitState::Waiting { generation };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::Cell;

    #[test]
    fn all_released_when_last_arrives() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let barrier = Barrier::new(3);
        let release_times = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u64 {
            let ctx = ctx.clone();
            let barrier = barrier.clone();
            let release_times = Rc::clone(&release_times);
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(i * 10)).await;
                barrier.wait().await;
                release_times.borrow_mut().push(ctx.now().as_nanos());
            });
        }
        sim.run();
        assert_eq!(*release_times.borrow(), vec![20_000_000; 3]);
    }

    #[test]
    fn exactly_one_leader_per_round() {
        let mut sim = Sim::new();
        let barrier = Barrier::new(5);
        let leaders = Rc::new(Cell::new(0u32));
        for _ in 0..5 {
            let barrier = barrier.clone();
            let leaders = Rc::clone(&leaders);
            sim.spawn(async move {
                if barrier.wait().await.is_leader() {
                    leaders.set(leaders.get() + 1);
                }
            });
        }
        sim.run();
        assert_eq!(leaders.get(), 1);
    }

    #[test]
    fn barrier_is_reusable_across_rounds() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let barrier = Barrier::new(2);
        let rounds_done = Rc::new(Cell::new(0u32));
        for i in 0..2u64 {
            let ctx = ctx.clone();
            let barrier = barrier.clone();
            let rounds_done = Rc::clone(&rounds_done);
            sim.spawn(async move {
                for round in 0..4u64 {
                    ctx.sleep(SimDuration::from_millis(i + round)).await;
                    barrier.wait().await;
                }
                rounds_done.set(rounds_done.get() + 1);
            });
        }
        sim.run();
        assert_eq!(rounds_done.get(), 2);
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let mut sim = Sim::new();
        let barrier = Barrier::new(1);
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn(async move {
            for _ in 0..10 {
                assert!(barrier.wait().await.is_leader());
            }
            done2.set(true);
        });
        sim.run();
        assert!(done.get());
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_party_barrier_panics() {
        let _ = Barrier::new(0);
    }
}
