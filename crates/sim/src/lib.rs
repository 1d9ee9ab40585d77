//! `ddio-sim`: a deterministic discrete-event simulation engine.
//!
//! This crate is the substrate that replaces the Proteus parallel-architecture
//! simulator used in Kotz's *Disk-Directed I/O for MIMD Multiprocessors*
//! (OSDI 1994). Simulated processors and file-system threads are modeled as
//! async tasks scheduled by a single-threaded executor whose clock is
//! simulated time. Servers whose work is known when a request reaches them
//! (buses, NIs, CPUs, drives) have no task: they book their time, or set
//! their requesters' wake-ups.
//!
//! The main pieces are:
//!
//! * [`Sim`] / [`SimContext`] — the executor and the handle tasks use to read
//!   the clock, sleep, and spawn further tasks.
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time.
//! * [`sync`] — FIFO-fair primitives and the two ways to wait: a booking on
//!   a single-server [`sync::Resource`] (buses, NIs, CPUs), and the
//!   [`sync::CountdownEvent`] latch (every completion, rendezvous and reply).
//! * [`SimRng`] — seeded randomness, one stream per trial.
//! * [`stats`] — counters and trial summaries.
//! * [`policy_enum!`] — the name vocabulary every policy enum shares.
//!
//! # Example: three requests to a disk, and a client that waits for them
//!
//! ```
//! use ddio_sim::{Sim, SimDuration, sync};
//!
//! let mut sim = Sim::new();
//! let ctx = sim.context();
//!
//! // A "disk" that takes 10 ms per request, serving one at a time.
//! let disk = sync::Resource::new(ctx.clone(), "disk");
//! let served = sync::CountdownEvent::new(3);
//! for _block in 0..3 {
//!     let (disk, served) = (disk.clone(), served.clone());
//!     sim.spawn(async move {
//!         disk.use_for(SimDuration::from_millis(10)).await;
//!         served.signal();
//!     });
//! }
//!
//! // A client that sleeps until all three are served.
//! sim.spawn(async move {
//!     served.wait().await;
//!     assert_eq!(ctx.now().as_nanos(), 30_000_000);
//! });
//!
//! let end = sim.run();
//! assert_eq!(end.as_nanos(), 30_000_000);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod executor;
pub mod policy;
mod rng;
pub mod stats;
pub mod sync;
mod time;

pub use executor::{Sim, SimContext, Sleep, TaskId, TaskRef, YieldNow};
pub use rng::{mix64, SimRng};
pub use time::{SimDuration, SimTime};
