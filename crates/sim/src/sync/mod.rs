//! Simulation-aware synchronization and communication primitives.
//!
//! All primitives are FIFO-fair and deterministic; they are the only way
//! simulated tasks should coordinate (never real threads or OS locks). There
//! are three ways to wait: for a [`Resource`]'s server, for a
//! [`CountdownEvent`] to open, and on a channel. The latch covers every
//! completion, rendezvous and reply: a barrier is a latch of one count per
//! party, and a request whose handlers run in parallel carries the latch
//! their replies signal. A request that waits for one handler calls it.

mod channel;
mod event;
mod resource;

pub use channel::{unbounded, Receiver, Sender};
pub use event::CountdownEvent;
pub use resource::{Resource, ResourceName, UseFor};
