//! Machine, file-system, and cost-model configuration.
//!
//! [`MachineConfig::default`] reproduces Table 1 of the paper. The
//! [`CostModel`] holds the software-overhead constants that the OSDI paper
//! defers to its technical report; the values here are chosen for a 50 MHz
//! RISC CPU and are listed, with rationale, in DESIGN.md §4.

use ddio_disk::DiskParams;
use ddio_net::NetworkParams;
use ddio_sim::SimDuration;

pub use crate::cache::CacheConfig;
pub use crate::fault::{FaultPolicy, RedundancyPolicy};
pub use crate::serve::ServeParams;
pub use ddio_disk::SchedPolicy;
pub use ddio_net::{ContentionModel, NetConfig, TopologyKind};

/// Physical placement of the file's blocks on each disk (§5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutPolicy {
    /// Logical file blocks occupy consecutive physical blocks on each disk.
    Contiguous,
    /// Each file block is placed at a random physical block on its disk.
    RandomBlocks,
}

impl LayoutPolicy {
    /// Short name used in reports ("contig" / "random").
    pub fn short_name(self) -> &'static str {
        match self {
            LayoutPolicy::Contiguous => "contig",
            LayoutPolicy::RandomBlocks => "random",
        }
    }
}

/// The CPU / software cost constants of the simulated file-system code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// CP-side CPU time to compose and send one file-system request and later
    /// process its reply (traditional caching).
    pub cp_request_cpu: SimDuration,
    /// IOP-side CPU time to accept an incoming request and start a thread
    /// for it (traditional caching).
    pub iop_dispatch_cpu: SimDuration,
    /// IOP-side CPU time per cache lookup / cache-management action.
    pub iop_cache_cpu: SimDuration,
    /// IOP-side CPU time to compose a reply message.
    pub iop_reply_cpu: SimDuration,
    /// IOP-side CPU time to issue one Memput (disk-directed reads).
    pub memput_cpu: SimDuration,
    /// IOP-side CPU time to issue one Memget and absorb its reply
    /// (disk-directed writes).
    pub memget_cpu: SimDuration,
    /// CP-side CPU time to service one incoming Memput or Memget.
    pub cp_mem_msg_cpu: SimDuration,
    /// IOP-side CPU time to process one block in a disk-directed buffer task
    /// (pick next block, set up DMA, bookkeeping).
    pub ddio_block_cpu: SimDuration,
    /// IOP-side CPU time to parse a collective request and build + sort the
    /// block list.
    pub collective_setup_cpu: SimDuration,
    /// Memory-to-memory copy bandwidth at the IOP (used when traditional
    /// caching copies incoming write data into a cache buffer).
    pub memcpy_bytes_per_sec: f64,
    /// Bytes of header added to every message on the wire.
    pub message_header_bytes: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cp_request_cpu: SimDuration::from_micros(25),
            iop_dispatch_cpu: SimDuration::from_micros(40),
            iop_cache_cpu: SimDuration::from_micros(20),
            iop_reply_cpu: SimDuration::from_micros(10),
            memput_cpu: SimDuration::from_micros(5),
            memget_cpu: SimDuration::from_micros(5),
            cp_mem_msg_cpu: SimDuration::from_micros(5),
            ddio_block_cpu: SimDuration::from_micros(20),
            collective_setup_cpu: SimDuration::from_micros(200),
            memcpy_bytes_per_sec: 400.0e6,
            message_header_bytes: 64,
        }
    }
}

impl CostModel {
    /// Time to copy `bytes` from one IOP memory buffer to another.
    pub fn memcpy_time(&self, bytes: u64) -> SimDuration {
        SimDuration::for_bytes(bytes, self.memcpy_bytes_per_sec)
    }
}

/// Which file-system implementation services the transfer, and the policies
/// it runs under: the disk-scheduling policy of its drives (and, for DDIO,
/// its block lists), plus — for the traditional-caching baseline — the cache
/// policy composition of its IOP block caches.
///
/// The `Method` is the only home of both policies; the machine configuration
/// carries neither. The scheduling policy is one of the two knobs of a
/// transfer: `run_transfer` spawns every drive with it, and the
/// [`SchedPolicy::Presort`] policy additionally sorts the submission-side
/// queues (the DDIO block list per disk; the baseline's per-disk request
/// streams). The [`CacheConfig`] is the other: it selects the replacement,
/// prefetch, and write-back policies of every IOP cache (disk-directed I/O
/// has no cache, so it carries none). The paper's three configurations are
/// the constants [`Method::TC`], [`Method::DDIO`], and
/// [`Method::DDIO_SORTED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The Intel-CFS-like baseline: per-IOP cache, prefetch, write-behind,
    /// with the given drive-queue scheduling policy and cache composition.
    TraditionalCaching(SchedPolicy, CacheConfig),
    /// Disk-directed I/O with the given scheduling policy
    /// ([`SchedPolicy::Presort`] is the paper's sorted variant).
    DiskDirected(SchedPolicy),
}

impl Method {
    /// The paper's baseline: traditional caching, FCFS drive queues, and the
    /// paper's cache composition (LRU + one-ahead + flush-on-full).
    pub const TC: Method = Method::TraditionalCaching(SchedPolicy::Fcfs, CacheConfig::DEFAULT);
    /// Disk-directed I/O without any request reordering.
    pub const DDIO: Method = Method::DiskDirected(SchedPolicy::Fcfs);
    /// Disk-directed I/O with each disk's block list presorted by physical
    /// location (the paper's winning variant).
    pub const DDIO_SORTED: Method = Method::DiskDirected(SchedPolicy::Presort);

    /// Short label used in tables: `"TC"`, `"DDIO"`, `"DDIO(sort)"` for the
    /// paper's configurations, `"TC(cscan)"` / `"DDIO(sstf)"` style for the
    /// newer scheduler configurations, and a `"TC[mru+one+onfull]"` suffix
    /// for non-default cache compositions. The paper-configuration labels
    /// are load-bearing: cell seeds and golden snapshots derive from them,
    /// so the default composition adds no suffix.
    pub fn label(self) -> String {
        let base = match self {
            Method::TraditionalCaching(SchedPolicy::Fcfs, _) => "TC".to_owned(),
            Method::TraditionalCaching(SchedPolicy::Presort, _) => "TC(sort)".to_owned(),
            Method::TraditionalCaching(p, _) => format!("TC({p})"),
            Method::DiskDirected(SchedPolicy::Fcfs) => "DDIO".to_owned(),
            Method::DiskDirected(SchedPolicy::Presort) => "DDIO(sort)".to_owned(),
            Method::DiskDirected(p) => format!("DDIO({p})"),
        };
        match self.cache() {
            Some(cache) if cache != CacheConfig::DEFAULT => format!("{base}[{}]", cache.label()),
            _ => base,
        }
    }

    /// The scheduling policy this method runs under.
    pub fn sched(self) -> SchedPolicy {
        match self {
            Method::TraditionalCaching(p, _) | Method::DiskDirected(p) => p,
        }
    }

    /// The cache policy composition, for methods that have a cache.
    pub fn cache(self) -> Option<CacheConfig> {
        match self {
            Method::TraditionalCaching(_, cache) => Some(cache),
            Method::DiskDirected(_) => None,
        }
    }

    /// The same file system under a different scheduling policy.
    pub fn with_sched(self, sched: SchedPolicy) -> Method {
        match self {
            Method::TraditionalCaching(_, cache) => Method::TraditionalCaching(sched, cache),
            Method::DiskDirected(_) => Method::DiskDirected(sched),
        }
    }

    /// The same file system under a different cache composition (a no-op
    /// for disk-directed I/O, which has no cache).
    pub fn with_cache(self, cache: CacheConfig) -> Method {
        match self {
            Method::TraditionalCaching(sched, _) => Method::TraditionalCaching(sched, cache),
            Method::DiskDirected(_) => self,
        }
    }

    /// True for any disk-directed configuration.
    pub fn is_disk_directed(self) -> bool {
        matches!(self, Method::DiskDirected(_))
    }
}

/// Sizing of the traditional-caching IOP block caches.
///
/// The capacity follows the paper's Table 1 footnote: each IOP's cache holds
/// `buffers_per_disk_per_cp × n_cps × disks-per-IOP` blocks ("large enough
/// to double-buffer an independent stream of requests from each CP to each
/// disk" at the default of 2). The cache's policy composition is not a
/// machine parameter: the [`Method`] carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Cache buffers per disk per CP (2 = the paper's double-buffering).
    pub buffers_per_disk_per_cp: usize,
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams {
            buffers_per_disk_per_cp: 2,
        }
    }
}

impl CacheParams {
    /// Total cache capacity in blocks of one IOP serving `disks` disks on a
    /// machine with `n_cps` CPs (never zero).
    pub fn capacity(&self, n_cps: usize, disks: usize) -> usize {
        (self.buffers_per_disk_per_cp * n_cps * disks).max(1)
    }
}

/// Full configuration of one simulated machine + file system.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of compute processors.
    pub n_cps: usize,
    /// Number of I/O processors (each with one SCSI bus).
    pub n_iops: usize,
    /// Number of disks (distributed evenly over the IOPs).
    pub n_disks: usize,
    /// File-system block size in bytes.
    pub block_bytes: u64,
    /// Size of the transferred file in bytes.
    pub file_bytes: u64,
    /// Physical placement policy.
    pub layout: LayoutPolicy,
    /// Disk-drive model parameters.
    pub disk: DiskParams,
    /// Interconnect hardware parameters (bandwidth, router latency, DMA
    /// setup).
    pub net: NetworkParams,
    /// Interconnect policy composition: topology × contention model. The
    /// default (`torus` + `ni-only`) is the paper's machine.
    pub fabric: NetConfig,
    /// SCSI bus bandwidth in bytes per second.
    pub bus_bytes_per_sec: f64,
    /// SCSI bus per-transfer arbitration overhead.
    pub bus_arbitration: SimDuration,
    /// Software cost constants.
    pub costs: CostModel,
    /// Traditional caching: IOP cache sizing.
    pub cache: CacheParams,
    /// Disk-directed I/O: buffers per disk (the paper uses two).
    pub ddio_buffers_per_disk: usize,
    /// Fault-injection policy: which deterministic failure schedule the
    /// transfer runs under. The default (`none`) injects nothing.
    pub faults: FaultPolicy,
    /// Redundancy policy: how the layout places spare copies and how reads
    /// recover from a dead drive. The default (`none`) places nothing.
    pub redundancy: RedundancyPolicy,
    /// Open-loop serving composition: arrival process, QoS admission policy,
    /// tenant population, and offered load. The default (`closed-loop` +
    /// `fifo`) runs the scenario's collective transfer instead.
    pub serve: ServeParams,
    /// When true, every CP records the byte ranges it received/sent so tests
    /// can verify data placement. Adds memory overhead; off for benchmarks.
    pub verify: bool,
}

impl Default for MachineConfig {
    /// The Table 1 configuration: 16 CPs, 16 IOPs, 16 disks, 8 KB blocks,
    /// a 10 MB file, and the HP 97560 / torus parameters.
    fn default() -> Self {
        MachineConfig {
            n_cps: 16,
            n_iops: 16,
            n_disks: 16,
            block_bytes: 8192,
            file_bytes: 10 * 1024 * 1024,
            layout: LayoutPolicy::RandomBlocks,
            disk: DiskParams::hp_97560(),
            net: NetworkParams::default(),
            fabric: NetConfig::DEFAULT,
            bus_bytes_per_sec: ddio_disk::SCSI_BUS_BANDWIDTH,
            bus_arbitration: ddio_disk::SCSI_ARBITRATION,
            costs: CostModel::default(),
            cache: CacheParams::default(),
            ddio_buffers_per_disk: 2,
            faults: FaultPolicy::default(),
            redundancy: RedundancyPolicy::default(),
            serve: ServeParams::default(),
            verify: false,
        }
    }
}

impl MachineConfig {
    /// Number of file-system blocks in the file.
    pub fn n_blocks(&self) -> u64 {
        self.file_bytes.div_ceil(self.block_bytes)
    }

    /// Number of disks attached to each IOP.
    ///
    /// # Panics
    ///
    /// Panics if the disks do not divide evenly over the IOPs (the paper
    /// always uses whole disks per IOP).
    pub fn disks_per_iop(&self) -> usize {
        assert!(
            self.n_disks % self.n_iops == 0,
            "{} disks do not divide evenly over {} IOPs",
            self.n_disks,
            self.n_iops
        );
        self.n_disks / self.n_iops
    }

    /// Sectors per file-system block on the configured drive.
    pub fn sectors_per_block(&self) -> u32 {
        (self.block_bytes / self.disk.geometry.bytes_per_sector as u64) as u32
    }

    /// Aggregate peak disk bandwidth in bytes per second (the "maximum
    /// bandwidth" line of Figures 5-8 when the disks are the bottleneck).
    pub fn peak_disk_bandwidth(&self) -> f64 {
        self.disk.geometry.peak_transfer_bytes_per_sec() * self.n_disks as f64
    }

    /// Aggregate peak bus bandwidth in bytes per second (the bottleneck when
    /// few IOPs serve many disks).
    pub fn peak_bus_bandwidth(&self) -> f64 {
        self.bus_bytes_per_sec * self.n_iops as f64
    }

    /// The hardware bandwidth limit for this configuration: the smaller of
    /// the aggregate disk and bus rates.
    pub fn hardware_limit(&self) -> f64 {
        self.peak_disk_bandwidth().min(self.peak_bus_bandwidth())
    }

    /// Total network nodes (CPs + IOPs).
    pub fn n_nodes(&self) -> usize {
        self.n_cps + self.n_iops
    }

    /// The network node id of CP `cp`.
    pub fn cp_node(&self, cp: usize) -> usize {
        assert!(cp < self.n_cps, "CP {cp} out of range");
        cp
    }

    /// The network node id of IOP `iop`.
    pub fn iop_node(&self, iop: usize) -> usize {
        assert!(iop < self.n_iops, "IOP {iop} out of range");
        self.n_cps + iop
    }

    /// The IOP that owns disk `disk` (disks are grouped contiguously).
    pub fn iop_of_disk(&self, disk: usize) -> usize {
        assert!(disk < self.n_disks, "disk {disk} out of range");
        disk / self.disks_per_iop()
    }

    /// The disks owned by IOP `iop`, as global disk indices.
    pub fn disks_of_iop(&self, iop: usize) -> std::ops::Range<usize> {
        assert!(iop < self.n_iops, "IOP {iop} out of range");
        let dpi = self.disks_per_iop();
        iop * dpi..(iop + 1) * dpi
    }

    /// Validates internal consistency; called by the machine builder.
    ///
    /// # Panics
    ///
    /// Panics (with a descriptive message) if the configuration is unusable.
    pub fn validate(&self) {
        assert!(self.n_cps > 0, "need at least one CP");
        assert!(self.n_iops > 0, "need at least one IOP");
        assert!(self.n_disks > 0, "need at least one disk");
        let _ = self.disks_per_iop();
        assert!(self.block_bytes > 0, "block size must be non-zero");
        assert!(
            self.block_bytes % self.disk.geometry.bytes_per_sector as u64 == 0,
            "block size must be a whole number of sectors"
        );
        assert!(self.file_bytes > 0, "file must be non-empty");
        let per_disk_blocks = self.n_blocks().div_ceil(self.n_disks as u64);
        let disk_capacity_blocks = self.disk.geometry.capacity_bytes() / self.block_bytes;
        assert!(
            per_disk_blocks <= disk_capacity_blocks,
            "file does not fit: {per_disk_blocks} blocks per disk but capacity is {disk_capacity_blocks}"
        );
        assert!(
            self.ddio_buffers_per_disk >= 1,
            "DDIO needs at least one buffer per disk"
        );
        assert!(
            self.cache.buffers_per_disk_per_cp >= 1,
            "traditional caching needs at least one buffer per disk per CP"
        );
        match self.redundancy {
            RedundancyPolicy::None => {}
            RedundancyPolicy::Mirrored => {
                assert!(
                    self.n_disks % 2 == 0,
                    "mirrored pairs need an even number of disks, not {}",
                    self.n_disks
                );
            }
            RedundancyPolicy::Parity => {
                assert!(
                    self.n_disks >= 2,
                    "parity needs at least two disks to separate data from parity"
                );
            }
        }
        if self.redundancy != RedundancyPolicy::None {
            // Each disk holds its primary blocks plus (at most) as many
            // redundant blocks again.
            assert!(
                2 * per_disk_blocks <= disk_capacity_blocks,
                "redundant copies do not fit: {per_disk_blocks} primary blocks per disk \
                 plus copies, but capacity is {disk_capacity_blocks}"
            );
        }
        self.serve.validate();
        assert!(
            !(self.verify && self.serve.is_open_loop()),
            "verify mode tracks collective-transfer data placement and does not \
             support open-loop serving"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ReplacementPolicy;

    #[test]
    fn default_matches_table_1() {
        let c = MachineConfig::default();
        assert_eq!(c.n_cps, 16);
        assert_eq!(c.n_iops, 16);
        assert_eq!(c.n_disks, 16);
        assert_eq!(c.block_bytes, 8192);
        assert_eq!(c.file_bytes, 10 * 1024 * 1024);
        assert_eq!(c.n_blocks(), 1280);
        assert_eq!(c.disks_per_iop(), 1);
        assert_eq!(c.sectors_per_block(), 16);
        // Aggregate peak disk bandwidth ~ 37.5 MiB/s (16 x 2.34).
        let mibs = c.peak_disk_bandwidth() / (1024.0 * 1024.0);
        assert!((37.0..38.0).contains(&mibs), "peak {mibs}");
        c.validate();
    }

    #[test]
    fn node_numbering_puts_cps_before_iops() {
        let c = MachineConfig::default();
        assert_eq!(c.cp_node(0), 0);
        assert_eq!(c.cp_node(15), 15);
        assert_eq!(c.iop_node(0), 16);
        assert_eq!(c.iop_node(15), 31);
        assert_eq!(c.n_nodes(), 32);
    }

    #[test]
    fn disk_to_iop_grouping() {
        let c = MachineConfig {
            n_iops: 4,
            n_disks: 16,
            ..MachineConfig::default()
        };
        assert_eq!(c.disks_per_iop(), 4);
        assert_eq!(c.iop_of_disk(0), 0);
        assert_eq!(c.iop_of_disk(3), 0);
        assert_eq!(c.iop_of_disk(4), 1);
        assert_eq!(c.iop_of_disk(15), 3);
        assert_eq!(c.disks_of_iop(2), 8..12);
    }

    #[test]
    fn hardware_limit_is_bus_bound_with_few_iops() {
        let one_iop = MachineConfig {
            n_iops: 1,
            n_disks: 8,
            ..MachineConfig::default()
        };
        // 8 disks could do ~19.7 MB/s but a single 10 MB/s bus caps it.
        assert!(one_iop.hardware_limit() <= 10.0e6 + 1.0);
        let many = MachineConfig::default();
        assert!(many.hardware_limit() > 30.0e6);
    }

    #[test]
    #[should_panic(expected = "do not divide evenly")]
    fn uneven_disk_distribution_panics() {
        let c = MachineConfig {
            n_iops: 3,
            n_disks: 16,
            ..MachineConfig::default()
        };
        let _ = c.disks_per_iop();
    }

    #[test]
    fn cost_model_helpers() {
        let m = CostModel::default();
        assert_eq!(m.memcpy_time(400_000_000).as_secs_f64(), 1.0);
    }

    #[test]
    fn method_labels() {
        // The paper-configuration labels are pinned: scenario seeds are
        // derived from them, so changing one changes every golden number.
        assert_eq!(Method::TC.label(), "TC");
        assert_eq!(Method::DDIO.label(), "DDIO");
        assert_eq!(Method::DDIO_SORTED.label(), "DDIO(sort)");
        assert_eq!(
            Method::TC.with_sched(SchedPolicy::Cscan).label(),
            "TC(cscan)"
        );
        assert_eq!(
            Method::TC.with_sched(SchedPolicy::Presort).label(),
            "TC(sort)"
        );
        assert_eq!(
            Method::DiskDirected(SchedPolicy::Sstf).label(),
            "DDIO(sstf)"
        );
        assert!(Method::DDIO.is_disk_directed());
        assert!(!Method::TC.is_disk_directed());
        assert_eq!(Method::DDIO_SORTED.sched(), SchedPolicy::Presort);
        assert_eq!(
            Method::TC.with_sched(SchedPolicy::Sstf),
            Method::TraditionalCaching(SchedPolicy::Sstf, CacheConfig::DEFAULT)
        );
        assert_eq!(
            Method::DDIO.with_sched(SchedPolicy::Presort),
            Method::DDIO_SORTED
        );
    }

    #[test]
    fn method_cache_composition() {
        // The paper-configuration labels stay suffix-free: seeds and golden
        // snapshots derive from them.
        let mru = CacheConfig {
            replacement: ReplacementPolicy::Mru,
            ..CacheConfig::DEFAULT
        };
        assert_eq!(Method::TC.cache(), Some(CacheConfig::DEFAULT));
        assert_eq!(Method::DDIO.cache(), None);
        assert_eq!(Method::TC.with_cache(mru).label(), "TC[mru+one+onfull]");
        assert_eq!(
            Method::TC
                .with_sched(SchedPolicy::Cscan)
                .with_cache(mru)
                .label(),
            "TC(cscan)[mru+one+onfull]"
        );
        assert_eq!(Method::TC.with_cache(CacheConfig::DEFAULT).label(), "TC");
        // with_cache is a no-op on the cacheless disk-directed path.
        assert_eq!(Method::DDIO.with_cache(mru), Method::DDIO);
        // A cache change survives a scheduling change.
        assert_eq!(
            Method::TC
                .with_cache(mru)
                .with_sched(SchedPolicy::Sstf)
                .cache(),
            Some(mru)
        );
    }

    #[test]
    fn cache_params_capacity() {
        let p = CacheParams::default();
        assert_eq!(p.buffers_per_disk_per_cp, 2);
        assert_eq!(p.capacity(16, 1), 32);
        assert_eq!(p.capacity(4, 2), 16);
        let tiny = CacheParams {
            buffers_per_disk_per_cp: 1,
        };
        assert_eq!(tiny.capacity(0, 0), 1, "capacity never reaches zero");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_file_fails_validation() {
        let c = MachineConfig {
            n_disks: 1,
            n_iops: 1,
            file_bytes: 10 * 1024 * 1024 * 1024,
            ..MachineConfig::default()
        };
        c.validate();
    }
}
