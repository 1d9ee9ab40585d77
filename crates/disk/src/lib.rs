//! `ddio-disk`: a model of the HP 97560 disk drive and its SCSI bus.
//!
//! The paper's simulator uses a reimplementation of Ruemmler and Wilkes'
//! HP 97560 model, validated against traces from HP. That validation data is
//! proprietary, so this crate instead implements the *published* parameters of
//! the drive (geometry, seek curve, rotation speed, skews, on-board read-ahead
//! cache) and validates itself against the derived figures the paper quotes:
//! a 1.3 GB capacity, a 2.34 MiB/s peak transfer rate, and sequential streams
//! that approach that rate while random 8 KB accesses cost tens of
//! milliseconds.
//!
//! Pieces:
//!
//! * [`Geometry`] — cylinders/heads/sectors, LBN mapping, skews.
//! * [`SeekCurve`] — the two-regime HP 97560 seek-time curve.
//! * [`DiskModel`] — the pure service-time model (seek + rotation + transfer
//!   + read-ahead cache).
//! * [`DiskQueue`] / [`SchedPolicy`] — a drive's pending queue and the
//!   policy ordering it (FCFS, SSTF, CSCAN, and the paper's presort).
//! * [`DiskHandle`] / [`DiskIo`] — a drive served without a task: a request
//!   queues, and the drive works out its whole service when it takes it up.
//! * [`ScsiBus`] — the shared 10 MB/s bus between an IOP and its drives.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bus;
mod drive;
mod geometry;
mod model;
mod request;
mod sched;
mod seek;

pub use bus::{ScsiBus, SCSI_ARBITRATION, SCSI_BUS_BANDWIDTH};
pub use drive::{DiskHandle, DiskIo, DriveFaultPlan};
pub use geometry::{Chs, Geometry};
pub use model::{DiskModel, DiskParams, DiskStats};
pub use request::{DiskOp, DiskRequest, ServiceBreakdown};
pub use sched::{DiskQueue, SchedPolicy};
pub use seek::SeekCurve;
