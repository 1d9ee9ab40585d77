//! Simulation-aware synchronization primitives.
//!
//! Both primitives are FIFO-fair and deterministic; they are the only way
//! simulated tasks should coordinate (never real threads or OS locks). There
//! are two ways to wait: for a booking on a [`Resource`]'s server to end,
//! and for a [`CountdownEvent`] to open. The latch covers every completion,
//! rendezvous and reply: a barrier is a latch of one count per party, and a
//! request whose handlers run in parallel carries the latch their replies
//! signal. A request that waits for one handler calls it. A queue is plain
//! data its producer fills: the producer starts a consumer task when none
//! is running, and the consumer ends when the queue is empty.

mod event;
mod resource;

pub use event::CountdownEvent;
pub use resource::{Resource, ResourceName, UseFor};
