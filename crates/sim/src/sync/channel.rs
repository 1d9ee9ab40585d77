//! Asynchronous FIFO message channels.
//!
//! A channel is the one queue primitive: a disk-directed CP's inbox and
//! serving's arrival tokens are channels. Channels are unbounded and
//! support multiple senders and multiple receivers.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::TaskRef;

struct Inner<T> {
    queue: VecDeque<T>,
    recv_waiters: VecDeque<TaskRef>,
    senders: usize,
    receivers: usize,
}

/// Creates an unbounded FIFO channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(Inner {
        queue: VecDeque::new(),
        recv_waiters: VecDeque::new(),
        senders: 1,
        receivers: 1,
    }));
    (
        Sender {
            inner: Rc::clone(&inner),
        },
        Receiver { inner },
    )
}

/// Sending half of a channel.
pub struct Sender<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().senders += 1;
        Sender {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.senders -= 1;
        if inner.senders == 0 {
            for w in inner.recv_waiters.drain(..) {
                w.wake();
            }
        }
    }
}

impl<T> Sender<T> {
    /// Sends a message. The channel is unbounded, so this never waits; the
    /// value comes back in `Err` if every receiver has been dropped. Wakes
    /// only the longest-parked receiver: one message feeds one receiver (see
    /// [`Receiver::recv`]).
    pub fn try_send(&self, value: T) -> Result<(), T> {
        let mut inner = self.inner.borrow_mut();
        if inner.receivers == 0 {
            return Err(value);
        }
        inner.queue.push_back(value);
        if let Some(w) = inner.recv_waiters.pop_front() {
            w.wake();
        }
        Ok(())
    }
}

/// Receiving half of a channel.
pub struct Receiver<T> {
    inner: Rc<RefCell<Inner<T>>>,
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.borrow_mut().receivers += 1;
        Receiver {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.borrow_mut().receivers -= 1;
    }
}

impl<T> Receiver<T> {
    /// Receives the next message, waiting if the channel is empty.
    ///
    /// Returns `None` once the channel is empty and every sender has been
    /// dropped.
    ///
    /// A send wakes one parked receiver, not all of them, so each pending
    /// `recv` must be polled again once woken, and must not be dropped
    /// while parked: a woken receiver that never polls would strand the
    /// message it was woken for while other receivers stay parked. Every
    /// receive loop in this workspace awaits `recv` to completion.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv { receiver: self }
    }

    /// Receives without waiting.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.borrow_mut().queue.pop_front()
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut inner = self.receiver.inner.borrow_mut();
        if let Some(v) = inner.queue.pop_front() {
            return Poll::Ready(Some(v));
        }
        if inner.senders == 0 {
            return Poll::Ready(None);
        }
        inner.recv_waiters.push_back(TaskRef::capture());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};
    use std::cell::Cell;

    #[test]
    fn unbounded_fifo_order() {
        let mut sim = Sim::new();
        let (tx, rx) = unbounded::<u32>();
        let received = Rc::new(RefCell::new(Vec::new()));
        let received2 = Rc::clone(&received);
        sim.spawn(async move {
            for i in 0..5 {
                tx.try_send(i).unwrap();
            }
        });
        sim.spawn(async move {
            while let Some(v) = rx.recv().await {
                received2.borrow_mut().push(v);
            }
        });
        sim.run();
        assert_eq!(*received.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_returns_none_after_all_senders_drop() {
        let mut sim = Sim::new();
        let (tx, rx) = unbounded::<u32>();
        let saw_none = Rc::new(Cell::new(false));
        let saw_none2 = Rc::clone(&saw_none);
        sim.spawn(async move {
            tx.try_send(7).unwrap();
            // tx dropped here
        });
        sim.spawn(async move {
            assert_eq!(rx.recv().await, Some(7));
            assert_eq!(rx.recv().await, None);
            saw_none2.set(true);
        });
        sim.run();
        assert!(saw_none.get());
    }

    #[test]
    fn send_errors_when_receiver_dropped() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.try_send(1), Err(1));
    }

    #[test]
    fn multiple_receivers_share_work() {
        let mut sim = Sim::new();
        let (tx, rx) = unbounded::<u32>();
        let count = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let rx = rx.clone();
            let count = Rc::clone(&count);
            sim.spawn(async move {
                while let Some(_v) = rx.recv().await {
                    count.set(count.get() + 1);
                }
            });
        }
        drop(rx);
        sim.spawn(async move {
            for i in 0..30 {
                tx.try_send(i).unwrap();
            }
        });
        sim.run();
        assert_eq!(count.get(), 30);
    }

    #[test]
    fn a_send_wakes_one_parked_receiver_and_close_wakes_all() {
        const N: usize = 4;
        let mut sim = Sim::new();
        let ctx = sim.context();
        let (tx, rx) = unbounded::<u32>();
        // (receiver, value) of every delivery; polls of a parked `recv` that
        // found nothing (a receiver woken in vain); receivers that saw close.
        // A receiver spends `work` on each message before it asks again, so
        // the first one woken cannot drain the queue for the others.
        let (work, step) = (SimDuration::from_micros(1), SimDuration::from_micros(10));
        let got = Rc::new(RefCell::new(Vec::new()));
        let vain = Rc::new(Cell::new(0));
        let closed = Rc::new(Cell::new(0));
        for i in 0..N {
            let (rx, got, vain, closed) = (rx.clone(), got.clone(), vain.clone(), closed.clone());
            let ctx = ctx.clone();
            sim.spawn(async move {
                loop {
                    let mut recv = rx.recv();
                    let mut parked = false;
                    let next = std::future::poll_fn(|cx| {
                        let poll = Pin::new(&mut recv).poll(cx);
                        if poll.is_pending() {
                            vain.set(vain.get() + usize::from(parked));
                            parked = true;
                        }
                        poll
                    })
                    .await;
                    match next {
                        Some(v) => got.borrow_mut().push((i, v)),
                        None => break closed.set(closed.get() + 1),
                    }
                    ctx.sleep(work).await;
                }
            });
        }
        drop(rx);
        let (got2, vain2, closed2) = (got.clone(), vain.clone(), closed.clone());
        sim.spawn(async move {
            ctx.sleep(step).await;
            tx.try_send(0).unwrap();
            ctx.sleep(step).await;
            assert_eq!(*got2.borrow(), [(0, 0)]);
            assert_eq!(vain2.get(), 0, "one push woke more than one receiver");
            for v in 1..=N as u32 {
                tx.try_send(v).unwrap();
            }
            ctx.sleep(step).await;
            let mut receivers: Vec<usize> = got2.borrow()[1..].iter().map(|&(i, _)| i).collect();
            receivers.sort_unstable();
            assert_eq!(receivers, [0, 1, 2, 3], "N pushes must reach N receivers");
            assert_eq!(vain2.get(), 0);
            drop(tx);
            ctx.sleep(step).await;
            assert_eq!(closed2.get(), N, "close must wake every receiver");
        });
        sim.run();
        assert_eq!(closed.get(), N);
        assert_eq!(vain.get(), 0);
    }

    #[test]
    fn try_recv_takes_queued_messages_in_order() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.try_recv(), None);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), None);
    }
}
