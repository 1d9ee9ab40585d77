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
//! * [`sync`] — FIFO-fair primitives and the three ways to wait: a
//!   single-server [`sync::Resource`] (buses, NIs, CPUs), the
//!   [`sync::CountdownEvent`] latch (every completion, rendezvous and reply),
//!   and a channel (every queue).
//! * [`SimRng`] — seeded randomness, one stream per trial.
//! * [`stats`] — counters and trial summaries.
//! * [`policy_enum!`] — the name vocabulary every policy enum shares.
//!
//! # Example: two communicating processes
//!
//! ```
//! use ddio_sim::{Sim, SimDuration, sync};
//!
//! let mut sim = Sim::new();
//! let ctx = sim.context();
//! let (tx, rx) = sync::unbounded::<u64>();
//!
//! // A "disk" that takes 10 ms per request.
//! let disk_ctx = ctx.clone();
//! sim.spawn(async move {
//!     while let Some(block) = rx.recv().await {
//!         disk_ctx.sleep(SimDuration::from_millis(10)).await;
//!         let _ = block;
//!     }
//! });
//!
//! // A client issuing three requests.
//! sim.spawn(async move {
//!     for block in 0..3 {
//!         tx.try_send(block).unwrap();
//!     }
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
