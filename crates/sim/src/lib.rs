//! `ddio-sim`: a deterministic discrete-event simulation engine.
//!
//! This crate is the substrate that replaces the Proteus parallel-architecture
//! simulator used in Kotz's *Disk-Directed I/O for MIMD Multiprocessors*
//! (OSDI 1994). Simulated processors, disk servers, and file-system threads
//! are modeled as async tasks scheduled by a single-threaded executor whose
//! clock is simulated time.
//!
//! The main pieces are:
//!
//! * [`Sim`] / [`SimContext`] — the executor and the handle tasks use to read
//!   the clock, sleep, and spawn further tasks.
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time.
//! * [`sync`] — FIFO-fair primitives: single-server [`sync::Resource`]s
//!   (buses, NIs, CPUs), the [`sync::CountdownEvent`] latch, barriers, and
//!   channels.
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
//!         tx.send(block).await.unwrap();
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

pub use executor::{join_all, JoinHandle, Sim, SimContext, Sleep, TaskId, TaskRef, YieldNow};
pub use rng::{mix64, SimRng};
pub use time::{SimDuration, SimTime};
