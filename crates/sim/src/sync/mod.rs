//! Simulation-aware synchronization and communication primitives.
//!
//! All primitives are FIFO-fair and deterministic; they are the only way
//! simulated tasks should coordinate (never real threads or OS locks).

mod barrier;
mod channel;
mod event;
mod resource;
mod semaphore;

pub use barrier::{Barrier, BarrierWaitResult};
pub use channel::{oneshot, unbounded, Receiver, SendError, Sender};
pub use event::{CountdownEvent, Event};
pub use resource::{Resource, ResourceGuard, ResourceName};
pub use semaphore::{Permit, Semaphore};
