//! Asynchronous FIFO message channels.
//!
//! Channels are the backbone of the simulated machine: every request, reply,
//! Memput and Memget ultimately travels through one. Channels are unbounded
//! and support multiple senders and multiple receivers.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::TaskRef;

struct Inner<T> {
    queue: VecDeque<T>,
    recv_waiters: Vec<TaskRef>,
    senders: usize,
    receivers: usize,
}

impl<T> Inner<T> {
    fn wake_receivers(&mut self) {
        for w in self.recv_waiters.drain(..) {
            w.wake();
        }
    }
}

/// Error returned by [`Sender::send`] / [`Sender::try_send`] when every
/// [`Receiver`] has been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed: all receivers dropped")
    }
}
impl std::error::Error for SendError {}

/// Creates an unbounded FIFO channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Rc::new(RefCell::new(Inner {
        queue: VecDeque::new(),
        recv_waiters: Vec::new(),
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
            inner.wake_receivers();
        }
    }
}

impl<T> Sender<T> {
    /// Sends a message. The channel is unbounded, so the returned future is
    /// ready at its first poll.
    ///
    /// Returns an error if all receivers have been dropped.
    pub fn send(&self, value: T) -> Send<'_, T> {
        Send {
            sender: self,
            value: Some(value),
        }
    }

    /// Sends without waiting; the value comes back in `Err` if every
    /// receiver has been dropped.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        let mut inner = self.inner.borrow_mut();
        if inner.receivers == 0 {
            return Err(value);
        }
        inner.queue.push_back(value);
        inner.wake_receivers();
        Ok(())
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Returns true if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Sender::send`].
pub struct Send<'a, T> {
    sender: &'a Sender<T>,
    value: Option<T>,
}

// The future stores no self-references, so it can be moved freely even while
// pending; this lets `poll` use `Pin::get_mut` without an `Unpin` bound on T.
impl<T> Unpin for Send<'_, T> {}

impl<T> Future for Send<'_, T> {
    type Output = Result<(), SendError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let value = match this.value.take() {
            Some(v) => v,
            None => return Poll::Ready(Ok(())), // polled after completion
        };
        Poll::Ready(this.sender.try_send(value).map_err(|_| SendError))
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
    pub fn recv(&self) -> Recv<'_, T> {
        Recv { receiver: self }
    }

    /// Receives without waiting.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.borrow_mut().queue.pop_front()
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Returns true if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        inner.recv_waiters.push(TaskRef::capture());
        Poll::Pending
    }
}

/// A single-use channel carrying exactly one value, used for request/reply
/// pairs ("send me the answer here").
pub mod oneshot {
    use super::*;

    struct OneInner<T> {
        value: Option<T>,
        waker: Option<TaskRef>,
        sender_dropped: bool,
    }

    /// Creates a oneshot channel.
    pub fn channel<T>() -> (OneSender<T>, OneReceiver<T>) {
        let inner = Rc::new(RefCell::new(OneInner {
            value: None,
            waker: None,
            sender_dropped: false,
        }));
        (
            OneSender {
                inner: Rc::clone(&inner),
                sent: false,
            },
            OneReceiver { inner },
        )
    }

    /// Sending half of a oneshot channel.
    pub struct OneSender<T> {
        inner: Rc<RefCell<OneInner<T>>>,
        sent: bool,
    }

    impl<T> OneSender<T> {
        /// Delivers the value, waking the receiver if it is waiting.
        pub fn send(mut self, value: T) {
            let mut inner = self.inner.borrow_mut();
            inner.value = Some(value);
            if let Some(w) = inner.waker.take() {
                w.wake();
            }
            self.sent = true;
        }
    }

    impl<T> Drop for OneSender<T> {
        fn drop(&mut self) {
            if !self.sent {
                let mut inner = self.inner.borrow_mut();
                inner.sender_dropped = true;
                if let Some(w) = inner.waker.take() {
                    w.wake();
                }
            }
        }
    }

    /// Receiving half of a oneshot channel.
    pub struct OneReceiver<T> {
        inner: Rc<RefCell<OneInner<T>>>,
    }

    impl<T> Future for OneReceiver<T> {
        type Output = Option<T>;

        fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Option<T>> {
            let mut inner = self.inner.borrow_mut();
            if let Some(v) = inner.value.take() {
                return Poll::Ready(Some(v));
            }
            if inner.sender_dropped {
                return Poll::Ready(None);
            }
            inner.waker = Some(TaskRef::capture());
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
    fn unbounded_fifo_order() {
        let mut sim = Sim::new();
        let (tx, rx) = unbounded::<u32>();
        let received = Rc::new(RefCell::new(Vec::new()));
        let received2 = Rc::clone(&received);
        sim.spawn(async move {
            for i in 0..5 {
                tx.send(i).await.unwrap();
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
            tx.send(7).await.unwrap();
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
        let mut sim = Sim::new();
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        let got_err = Rc::new(Cell::new(false));
        let got_err2 = Rc::clone(&got_err);
        sim.spawn(async move {
            got_err2.set(tx.send(1).await.is_err());
        });
        sim.run();
        assert!(got_err.get());
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
                tx.send(i).await.unwrap();
            }
        });
        sim.run();
        assert_eq!(count.get(), 30);
    }

    #[test]
    fn oneshot_round_trip() {
        let mut sim = Sim::new();
        let ctx = sim.context();
        let (tx, rx) = oneshot::channel::<&'static str>();
        let got = Rc::new(RefCell::new(None));
        let got2 = Rc::clone(&got);
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_micros(3)).await;
            tx.send("done");
        });
        sim.spawn(async move {
            *got2.borrow_mut() = rx.await;
        });
        sim.run();
        assert_eq!(*got.borrow(), Some("done"));
    }

    #[test]
    fn oneshot_none_when_sender_dropped() {
        let mut sim = Sim::new();
        let (tx, rx) = oneshot::channel::<u32>();
        drop(tx);
        let got = Rc::new(Cell::new(Some(1u32)));
        let got2 = Rc::clone(&got);
        sim.spawn(async move {
            got2.set(rx.await);
        });
        sim.run();
        assert_eq!(got.get(), None);
    }

    #[test]
    fn len_and_is_empty_track_queue() {
        let (tx, rx) = unbounded::<u32>();
        assert!(tx.is_empty() && rx.is_empty());
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(rx.len(), 1);
    }
}
