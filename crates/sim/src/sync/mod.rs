//! Simulation-aware synchronization and communication primitives.
//!
//! All primitives are FIFO-fair and deterministic; they are the only way
//! simulated tasks should coordinate (never real threads or OS locks). There
//! are four ways to wait: for a [`Resource`]'s server, for a
//! [`CountdownEvent`] to open, at a [`Barrier`], and on a channel.

mod barrier;
mod channel;
mod event;
mod resource;

pub use barrier::{Barrier, BarrierWaitResult};
pub use channel::{oneshot, unbounded, Receiver, SendError, Sender};
pub use event::CountdownEvent;
pub use resource::{Resource, ResourceName};
