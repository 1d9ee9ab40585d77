//! `ddio-core`: the parallel file system of Kotz's *Disk-Directed I/O for
//! MIMD Multiprocessors* (OSDI 1994), reproduced in simulation.
//!
//! The crate contains both file-system designs the paper compares:
//!
//! * **Traditional caching** ([`Method::TC`]): each CP issues
//!   one request per contiguous chunk of the file; IOPs run a
//!   policy-composed block cache — by default the paper's LRU replacement,
//!   one-block-ahead prefetch, and flush-on-full write-behind.
//! * **Disk-directed I/O** ([`Method::DDIO`] /
//!   [`Method::DDIO_SORTED`]): the CPs issue a single collective
//!   request; each IOP derives its own block list, optionally presorts it by
//!   physical location, and streams data directly between its disks and the
//!   CP memories with Memput/Memget messages and two buffers per disk.
//!
//! Both file systems run their drives under a pluggable disk-scheduling
//! policy ([`SchedPolicy`]): each [`Method`] variant carries the policy, so
//! FCFS, SSTF, CSCAN, and the paper's submission-side presort are all
//! configurations of one subsystem rather than special cases. The
//! traditional-caching baseline's cache is equally pluggable
//! ([`CacheConfig`] in [`cache`]): the `Method` carries a composition of
//! replacement ([`ReplacementPolicy`]: LRU/MRU/clock), prefetch
//! ([`PrefetchPolicy`]: none/one-ahead/strided), and write-back
//! ([`WritePolicy`]: write-through/flush-on-full/high-watermark) policies,
//! so the paper's "how much could smarter caching help?" question is a
//! sweep (`cache-sweep`), not a rewrite. The interconnect is the third
//! pluggable subsystem ([`NetConfig`] on [`MachineConfig::fabric`]): a
//! [`TopologyKind`] (the paper's torus, or mesh / hypercube / crossbar)
//! composed with a [`ContentionModel`] (`ni-only`, the paper's
//! NI-bottleneck model, or `link`, which serializes overlapping routes on
//! shared fabric links), so "when does the fabric itself become the
//! bottleneck?" is the `net-sweep` scenario rather than a rewrite. The
//! fourth pluggable subsystem is fault injection and redundancy
//! ([`FaultPolicy`] × [`RedundancyPolicy`] in [`fault`]): a deterministic
//! schedule of timed failures (a slow drive, a crashed IOP, a dead drive)
//! composed with a redundancy layout (mirrored pairs or rotated parity)
//! that reconstructs failed reads, so "how gracefully does each file system
//! degrade?" is the `fault-sweep` scenario rather than a rewrite. The fifth
//! pluggable subsystem is open-loop serving ([`ArrivalProcess`] ×
//! [`QosPolicy`] in [`serve`]): a deterministic per-tenant request schedule
//! (Poisson or bursty MMPP arrivals) composed with a QoS admission policy
//! (fifo, fair-share, weighted, or tenant-priority), recording
//! enqueue→admission→completion latencies into a streaming log-bucket
//! histogram, so "does disk-directed I/O's advantage survive many
//! independent clients?" is the `serve-sweep` scenario rather than a
//! rewrite.
//!
//! On top sit the striped-file layout machinery ([`FileLayout`],
//! [`LayoutPolicy`]), the user-facing collective API ([`CollectiveFile`]),
//! the single-transfer runner ([`run_transfer`]), and the experiment harness
//! ([`experiment`]) that regenerates the paper's figures.
//!
//! # Quick start
//!
//! ```
//! use ddio_core::{run_transfer, MachineConfig, Method, LayoutPolicy};
//! use ddio_patterns::AccessPattern;
//!
//! let config = MachineConfig {
//!     file_bytes: 1024 * 1024, // 1 MiB keeps the doctest fast
//!     layout: LayoutPolicy::Contiguous,
//!     ..MachineConfig::default()
//! };
//! let pattern = AccessPattern::parse("rb").unwrap();
//! let ddio = run_transfer(&config, Method::DDIO_SORTED, pattern, 8192, 1);
//! let tc = run_transfer(&config, Method::TC, pattern, 8192, 1);
//! assert!(ddio.throughput_mibs > tc.throughput_mibs * 0.9);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
mod collective;
mod config;
mod ddio;
pub mod experiment;
pub mod fault;
mod layout;
mod machine;
mod msg;
pub mod serve;
mod tc;
mod util;

pub use cache::{CacheConfig, CacheStats, PrefetchPolicy, ReplacementPolicy, WritePolicy};
pub use collective::{CollectiveError, CollectiveFile};
pub use config::{
    CacheParams, ContentionModel, CostModel, LayoutPolicy, MachineConfig, Method, NetConfig,
    SchedPolicy, TopologyKind,
};
pub use ddio_net::LinkStat;
pub use fault::{FaultConfig, FaultEvent, FaultKind, FaultPolicy, FaultStats, RedundancyPolicy};
pub use layout::{BlockLocation, FileLayout, LayoutStorage};
pub use machine::{run_transfer, MachineArena, TransferOutcome, VerifyReport};
pub use msg::FsMessage;
pub use serve::{
    AdmissionQueue, ArrivalProcess, LatencyHistogram, QosPolicy, ServeConfig, ServeParams,
    ServeRequestSpec, ServeStats, TenantStats,
};
pub use util::IntervalSet;

// Re-export the pattern vocabulary so downstream users need only one import.
pub use ddio_patterns::{AccessKind, AccessPattern, ArrayShape, Chunk, Dist, PatternInstance};
