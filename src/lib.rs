//! Disk-Directed I/O for MIMD Multiprocessors — a full reproduction in Rust.
//!
//! This is the umbrella crate of the workspace: it re-exports the public API
//! of every component so applications (and the examples in `examples/`) need
//! a single dependency.
//!
//! * [`sim`] — the deterministic discrete-event simulation engine.
//! * [`disk`] — the HP 97560 disk model and SCSI bus.
//! * [`net`] — the pluggable interconnect (torus / mesh / hypercube /
//!   crossbar topologies, NI-only or link-level contention) with
//!   Memput/Memget-style DMA messages.
//! * [`patterns`] — HPF array-distribution access patterns.
//! * [`core`] — the parallel file system: traditional caching, disk-directed
//!   I/O, the collective API, fault injection with redundant layouts,
//!   open-loop multi-tenant serving with QoS admission and tail-latency
//!   histograms, and the experiment harness.
//!
//! The most common entry points are re-exported at the top level:
//!
//! ```
//! use disk_directed_io::{CollectiveFile, LayoutPolicy, MachineConfig, Method};
//!
//! let config = MachineConfig {
//!     n_cps: 4,
//!     n_iops: 4,
//!     n_disks: 4,
//!     file_bytes: 512 * 1024,
//!     layout: LayoutPolicy::Contiguous,
//!     ..MachineConfig::default()
//! };
//! let file = CollectiveFile::new(config);
//! let outcome = file
//!     .read_distributed("rbb", 8192, Method::DDIO_SORTED, 7)
//!     .unwrap();
//! assert!(outcome.throughput_mibs > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use ddio_core as core;
pub use ddio_disk as disk;
pub use ddio_net as net;
pub use ddio_patterns as patterns;
pub use ddio_sim as sim;

pub use ddio_core::{
    run_transfer, AccessKind, AccessPattern, ArrayShape, ArrivalProcess, CacheConfig, CacheParams,
    CacheStats, Chunk, CollectiveError, CollectiveFile, ContentionModel, CostModel, Dist,
    FaultConfig, FaultPolicy, FaultStats, FileLayout, LatencyHistogram, LayoutPolicy, LinkStat,
    MachineConfig, Method, NetConfig, PatternInstance, PrefetchPolicy, QosPolicy, RedundancyPolicy,
    ReplacementPolicy, SchedPolicy, ServeConfig, ServeParams, ServeStats, TenantStats,
    TopologyKind, TransferOutcome, WritePolicy,
};
