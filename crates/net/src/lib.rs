//! `ddio-net`: the multiprocessor interconnect model.
//!
//! Models the machine of Table 1 in Kotz's *Disk-Directed I/O for MIMD
//! Multiprocessors* — a 6x6 torus with wormhole routing, 200 MB/s
//! bidirectional links, and 20 ns per router, with per-node network
//! interfaces that serialize concurrent traffic — as one composition of a
//! pluggable fabric subsystem:
//!
//! * [`Topology`] — node placement, hop counts, and minimal routes, built
//!   from a named [`TopologyKind`]: `torus` (the paper's machine and the
//!   bit-identical default), `mesh` (no wraparound links), `hypercube`
//!   (logarithmic diameter), `crossbar` (every pair one hop apart).
//! * [`ContentionModel`] — what messages pay for the fabric between the
//!   network interfaces: `ni-only` (the default: NIs serialize, the fabric
//!   is an ideal pipe) or `link` (each message also charges serialization
//!   on every link of its route, so overlapping routes contend).
//! * [`NetConfig`] — the topology × contention composition a machine runs.
//! * [`NetworkParams`] — bandwidth, router latency, DMA setup costs.
//! * [`Network`] — the message fabric. [`Network::send`] returns when the
//!   message has landed, so the caller's next statement does the landing
//!   (starts the receiver's handler, or opens the latch a waiter sleeps
//!   on). [`Network::post`] returns once the sender's NI is free and lands
//!   a [`Delivery`] in the background — a message into the destination's
//!   inbox, which only a node that reads one opens ([`Network::inbox`]), or
//!   a latch opened — for concurrent Memput/Memget traffic.
//!
//! # Worked example: hop counts and uncontended latency
//!
//! An 8 KB file-system block crossing the paper's 6x6 torus is dominated by
//! serialization, not distance — the observation behind the default
//! `ni-only` contention model:
//!
//! ```
//! use ddio_net::{NetworkParams, TopologyKind};
//!
//! let torus = TopologyKind::Torus.build(32);
//! // Opposite corners of the 6x6 torus: 3 hops per axis via wraparound.
//! let hops = torus.hops(0, 21);
//! assert_eq!(hops, torus.diameter());
//! assert_eq!(hops, 6);
//!
//! let params = NetworkParams::default();
//! // 8192 bytes at 200 MB/s is 40.96 us of serialization; six 20 ns
//! // routers add a mere 120 ns; DMA setup 1 us at each end.
//! let latency = params.uncontended_latency(8192, hops);
//! assert_eq!(latency.as_nanos(), 40_960 + 120 + 2_000);
//! // The same block on a single-hop crossbar is barely faster.
//! let one_hop = params.uncontended_latency(8192, 1);
//! assert_eq!(latency.as_nanos() - one_hop.as_nanos(), 100);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod fabric;
mod latency;
mod network;
mod topology;

pub use fabric::{ContentionModel, NetConfig};
pub use latency::NetworkParams;
pub use network::{Delivery, LinkStat, Network, NiOutage};
pub use topology::{Link, NodeId, Topology, TopologyKind};
