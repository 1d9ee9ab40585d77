//! Assembly of the simulated machine and the top-level transfer runner.
//!
//! [`run_transfer`] builds one simulated machine (CPs, IOPs, disks, buses,
//! interconnect) per the configuration, runs a single collective transfer with
//! the chosen file system, and reports the elapsed simulated time and
//! throughput — one data point of one trial in the paper's figures.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ddio_disk::{spawn_disk, DiskHandle, DiskRequest, DiskStats, ScsiBus};
use ddio_net::{LinkStat, NetConfig, Network};
use ddio_patterns::{AccessKind, AccessPattern, PatternInstance};
use ddio_sim::stats::throughput_mibs;
use ddio_sim::sync::{CountdownEvent, Resource, ResourceName};
use ddio_sim::{Sim, SimContext, SimDuration, SimRng};

use crate::cache::CacheStats;
use crate::config::{MachineConfig, Method};
use crate::ddio;
use crate::fault::{FaultConfig, FaultPolicy, FaultStats, RedundancyPolicy};
use crate::layout::{BlockLocation, FileLayout};
use crate::serve::{self, ServeConfig, ServeStats};
use crate::tc;
use crate::util::IntervalSet;

/// RNG stream tag of the fault schedule (disjoint from the layout streams).
const FAULT_STREAM: u64 = 0xFA17;

/// RNG stream tag of the serving request schedule (disjoint from the layout
/// and fault streams).
const SERVE_STREAM: u64 = 0x5E12;

/// Per-CP simulation state shared with the file-system implementations.
pub(crate) struct CpParts {
    /// CP index.
    pub cp: usize,
    /// Network node id.
    pub node: usize,
    /// The CP's processor (requests, replies and Memget service consume it).
    pub cpu: Resource,
}

/// Per-IOP simulation state shared with the file-system implementations.
pub(crate) struct IopParts {
    /// IOP index.
    pub iop: usize,
    /// Network node id.
    pub node: usize,
    /// The IOP's processor.
    pub cpu: Resource,
    /// The IOP's SCSI bus (shared by all of its disks).
    pub bus: ScsiBus,
    /// The IOP's disks as (global disk index, handle).
    pub disks: Vec<(usize, DiskHandle)>,
}

/// Data-placement tracking used by the `verify` mode.
pub(crate) struct VerifyState {
    /// For reads: the byte ranges each CP's local buffer has received.
    pub cp_mem: Vec<IntervalSet>,
    /// For writes: the byte ranges of the file that reached a disk.
    pub file_written: IntervalSet,
}

/// The fault subsystem's per-run state: the compiled schedule and the
/// recovery counters.
pub(crate) struct FaultSession {
    /// The compiled schedule (empty under `FaultPolicy::None` and the
    /// static policies).
    pub schedule: FaultConfig,
    /// Reads issued against redundant copies.
    pub reconstruction_reads: Cell<u64>,
    /// Blocks with no surviving copy.
    pub lost_blocks: Cell<u64>,
}

impl FaultSession {
    fn count_lost(&self) {
        self.lost_blocks.set(self.lost_blocks.get() + 1);
    }
}

/// Everything the file-system implementations need to know about the run.
pub(crate) struct RunContext {
    /// The simulation: its clock, and where landing messages spawn their
    /// handlers.
    pub ctx: SimContext,
    /// The machine configuration.
    pub config: Rc<MachineConfig>,
    /// The bound access pattern.
    pub pattern: PatternInstance,
    /// The file's physical layout.
    pub layout: Rc<FileLayout>,
    /// The interconnect. Only disk-directed CPs read an inbox.
    pub net: Network<ddio::CpMessage>,
    /// Every IOP, indexed by IOP number: block I/O reaches any drive (a
    /// reconstruction source may live on another IOP) through its owner.
    pub iops: Vec<Rc<IopParts>>,
    /// Optional data-placement tracking.
    pub verify: Option<Rc<RefCell<VerifyState>>>,
    /// Per-IOP cache statistics, published by each traditional-caching IOP
    /// server at the end-of-transfer sync (`None` for cacheless methods).
    pub cache_stats: RefCell<Vec<Option<CacheStats>>>,
    /// Fault schedule and recovery counters.
    pub fault: FaultSession,
}

impl RunContext {
    /// Records that CP `cp` received (or supplied) its local buffer bytes
    /// `[mem_offset, mem_offset + len)`.
    pub fn record_cp_bytes(&self, cp: usize, mem_offset: u64, len: u64) {
        if let Some(v) = &self.verify {
            v.borrow_mut().cp_mem[cp].add(mem_offset, len);
        }
    }

    /// Records that file bytes `[file_offset, file_offset + len)` reached a
    /// disk.
    pub fn record_file_bytes(&self, file_offset: u64, len: u64) {
        if let Some(v) = &self.verify {
            v.borrow_mut().file_written.add(file_offset, len);
        }
    }

    /// Publishes IOP `iop`'s final cache statistics.
    pub fn publish_cache_stats(&self, iop: usize, stats: CacheStats) {
        self.cache_stats.borrow_mut()[iop] = Some(stats);
    }

    /// Valid bytes of `block` (the file's last block may be short).
    pub fn block_bytes(&self, block: u64) -> u64 {
        let (start, end) = self.layout.block_byte_range(block);
        end - start
    }

    /// Reads `block` into a buffer of `iop`, the IOP owning its primary
    /// copy: the drive, then reconstruction if the drive failed, then the
    /// IOP's SCSI bus. Returns the block's valid bytes.
    ///
    /// Here and in [`RunContext::write_block`] the fault and redundancy
    /// branches are boxed where they are taken, so an in-flight block I/O
    /// does not carry room for their (much larger) state; a healthy run
    /// without redundancy never takes them.
    pub async fn read_block(&self, iop: &IopParts, block: u64) -> u64 {
        let bytes = self.block_bytes(block);
        if !self
            .drive_io(AccessKind::Read, self.layout.location(block), bytes)
            .await
        {
            Box::pin(self.recover_block_read(block, bytes, iop.node)).await;
        }
        iop.bus.transfer(bytes).await;
        bytes
    }

    /// Writes `bytes` of `block` from a buffer of `iop`, the IOP owning its
    /// primary copy: the SCSI bus, then the drive, then either a redirect to
    /// the redundant location (the drive failed) or the redundant copy.
    pub async fn write_block(&self, iop: &IopParts, block: u64, bytes: u64) {
        iop.bus.transfer(bytes).await;
        if !self
            .drive_io(AccessKind::Write, self.layout.location(block), bytes)
            .await
        {
            Box::pin(self.redirect_failed_write(block, iop.node, bytes)).await;
        } else if self.layout.redundancy() != RedundancyPolicy::None {
            Box::pin(self.redundant_write(block, iop.node, bytes)).await;
        }
    }

    /// One drive access of `bytes` at `loc`; true unless the drive failed
    /// the request.
    async fn drive_io(&self, op: AccessKind, loc: BlockLocation, bytes: u64) -> bool {
        let sectors = bytes.div_ceil(self.config.disk.geometry.bytes_per_sector as u64) as u32;
        let request = match op {
            AccessKind::Read => DiskRequest::read(loc.start_sector, sectors),
            AccessKind::Write => DiskRequest::write(loc.start_sector, sectors),
        };
        let owner = self.owner_of(loc.disk);
        let drive = owner
            .disks
            .iter()
            .find(|(d, _)| *d == loc.disk)
            .map(|(_, handle)| handle)
            .unwrap_or_else(|| panic!("IOP {} does not own disk {}", owner.iop, loc.disk));
        !drive.io(request).await.failed
    }

    /// The IOP whose bus and drive serve `disk`.
    fn owner_of(&self, disk: usize) -> &IopParts {
        &self.iops[self.config.iop_of_disk(disk)]
    }

    /// Handles a failed primary read of `block` observed by the IOP at
    /// `requester_node`: reads every reconstruction source that is still
    /// alive, charging the source drive, its owning IOP's SCSI bus, and a
    /// fabric hop when the source lives on another IOP. A block whose full
    /// source set cannot be read is counted lost — but the caller proceeds
    /// regardless, so the transfer protocol always terminates.
    async fn recover_block_read(&self, block: u64, bytes: u64, requester_node: usize) {
        let f = &self.fault;
        let sources = self.layout.reconstruction_sources(block);
        let mut complete = !sources.is_empty();
        for loc in sources {
            if f.schedule.is_dead(loc.disk, self.ctx.now())
                || !self.drive_io(AccessKind::Read, loc, bytes).await
            {
                complete = false;
                continue;
            }
            let source = self.owner_of(loc.disk);
            source.bus.transfer(bytes).await;
            if source.node != requester_node {
                self.ship_reconstruction(source.node, requester_node, bytes)
                    .await;
            }
            f.reconstruction_reads.set(f.reconstruction_reads.get() + 1);
        }
        if !complete {
            f.count_lost();
        }
    }

    /// Updates `block`'s redundant copy (mirror or parity) after a
    /// successful primary write — the steady-state cost of running
    /// redundancy. A copy whose disk has died is skipped (the primary
    /// survives).
    async fn redundant_write(&self, block: u64, requester_node: usize, bytes: u64) {
        let Some(loc) = self.layout.redundant_location(block) else {
            return;
        };
        if self.fault.schedule.is_dead(loc.disk, self.ctx.now()) {
            return;
        }
        self.write_copy(loc, requester_node, bytes).await;
    }

    /// Redirects a write whose primary disk is dead to the block's redundant
    /// location. With no live redundant location the block is lost.
    async fn redirect_failed_write(&self, block: u64, requester_node: usize, bytes: u64) {
        let f = &self.fault;
        let live = self
            .layout
            .redundant_location(block)
            .filter(|loc| !f.schedule.is_dead(loc.disk, self.ctx.now()));
        match live {
            Some(loc) => {
                if !self.write_copy(loc, requester_node, bytes).await {
                    f.count_lost();
                }
            }
            None => f.count_lost(),
        }
    }

    /// Ships `bytes` to the IOP owning `loc` (if remote), charges its bus,
    /// and writes the copy. True on success.
    async fn write_copy(&self, loc: BlockLocation, requester_node: usize, bytes: u64) -> bool {
        let target = self.owner_of(loc.disk);
        if target.node != requester_node {
            self.ship_reconstruction(requester_node, target.node, bytes)
                .await;
        }
        target.bus.transfer(bytes).await;
        self.drive_io(AccessKind::Write, loc, bytes).await
    }

    /// One cross-IOP hop of reconstruction data (a mirror copy, a
    /// surviving parity-group member, or a redirected write) over the
    /// fabric. The recovering task continues once it lands; nothing at the
    /// receiver handles it.
    async fn ship_reconstruction(&self, from: usize, to: usize, bytes: u64) {
        let wire = self.config.costs.message_header_bytes + bytes;
        self.net.send(from, to, wire).await;
    }
}

/// The result of verifying data placement after a transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// True if every expected byte was covered exactly once.
    pub complete: bool,
    /// Human-readable description of any problem found.
    pub detail: String,
}

/// The outcome of one simulated transfer (one trial of one data point).
#[derive(Debug, Clone)]
pub struct TransferOutcome {
    /// The file-system method used.
    pub method: Method,
    /// The pattern name (paper notation).
    pub pattern: String,
    /// Record size in bytes.
    pub record_bytes: u64,
    /// Elapsed simulated time for the whole collective transfer, including
    /// all write-behind and prefetch activity.
    pub elapsed: SimDuration,
    /// File size in bytes.
    pub file_bytes: u64,
    /// Total bytes deposited in (or gathered from) CP memories; equals the
    /// file size except for `ra`, where it is `n_cps` times larger.
    pub transferred_bytes: u64,
    /// Throughput as plotted in the paper: file size / elapsed time, which
    /// equals per-CP-normalized throughput for `ra`.
    pub throughput_mibs: f64,
    /// Aggregate throughput: transferred bytes / elapsed time.
    pub aggregate_mibs: f64,
    /// Number of messages that crossed the interconnect.
    pub messages: u64,
    /// Bytes that crossed the interconnect.
    pub network_bytes: u64,
    /// The fabric composition the transfer ran on.
    pub fabric: NetConfig,
    /// The fault policy the transfer ran under.
    pub faults: FaultPolicy,
    /// The redundancy policy the transfer ran under.
    pub redundancy: RedundancyPolicy,
    /// Fault and recovery counters (all zero under the default
    /// composition). A transfer that lost blocks reports zero throughput.
    pub fault_stats: FaultStats,
    /// Open-loop serving statistics (latency percentiles, per-tenant
    /// throughput). All-`NaN`/empty under the closed-loop default.
    pub serve: ServeStats,
    /// Per-node sending-NI utilization over each NI's active window
    /// (index = network node id; CPs first, then IOPs).
    pub ni_send_utilization: Vec<f64>,
    /// Per-node receiving-NI utilization over each NI's active window.
    pub ni_recv_utilization: Vec<f64>,
    /// Per-link busy-time counters, in deterministic `(from, to)` order
    /// (empty under the `ni-only` contention model).
    pub link_stats: Vec<LinkStat>,
    /// Per-disk statistics.
    pub disk_stats: Vec<DiskStats>,
    /// Per-disk utilization: busy time as a fraction of the whole transfer.
    pub disk_utilization: Vec<f64>,
    /// Per-IOP bus utilization over each bus's active window.
    pub bus_utilization: Vec<f64>,
    /// Per-IOP cache statistics (populated by traditional caching; `None`
    /// entries for cacheless methods).
    pub cache_stats: Vec<Option<CacheStats>>,
    /// Data-placement verification (present only when `config.verify`).
    pub verify: Option<VerifyReport>,
    /// Executor events processed during the transfer — a deterministic
    /// measure of simulation work (task polls + timer firings).
    pub sim_events: u64,
    /// Host wall-clock seconds spent building and running the transfer.
    /// Non-deterministic; reported only by perf tooling, never in goldens.
    pub host_wall_secs: f64,
    /// Host wall-clock seconds spent building the machine (layout, fabric,
    /// nodes, disks) before the simulation started. Non-deterministic;
    /// perf tooling only.
    pub build_wall_secs: f64,
    /// Host wall-clock seconds spent inside the simulation run itself.
    /// Non-deterministic; perf tooling only. Build plus run is slightly
    /// less than `host_wall_secs`, which also covers stat collection.
    pub run_wall_secs: f64,
}

impl TransferOutcome {
    /// Fraction of requests across all disks that were sequential-streak /
    /// read-ahead hits — a useful diagnostic for layout effects.
    pub fn disk_sequential_fraction(&self) -> f64 {
        let total: u64 = self.disk_stats.iter().map(|s| s.requests).sum();
        if total == 0 {
            return 0.0;
        }
        let hits: u64 = self.disk_stats.iter().map(|s| s.sequential_hits).sum();
        hits as f64 / total as f64
    }

    /// Mean pending-queue depth observed at dispatch, pooled over all disks.
    pub fn mean_disk_queue_depth(&self) -> f64 {
        let requests: u64 = self.disk_stats.iter().map(|s| s.requests).sum();
        if requests == 0 {
            return 0.0;
        }
        let sum: u64 = self.disk_stats.iter().map(|s| s.queue_depth_sum).sum();
        sum as f64 / requests as f64
    }

    /// Deepest drive queue observed at any dispatch on any disk.
    pub fn max_disk_queue_depth(&self) -> u64 {
        self.disk_stats
            .iter()
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Total busy time summed over every fabric link, in seconds (zero
    /// under the `ni-only` contention model, which never charges a link).
    pub fn link_busy_total_secs(&self) -> f64 {
        self.link_stats.iter().map(|l| l.busy.as_secs_f64()).sum()
    }

    /// The highest per-node receiving-NI utilization — the contention
    /// hotspot diagnostic (an IOP hammered by every CP, or vice versa).
    pub fn max_ni_recv_utilization(&self) -> f64 {
        self.ni_recv_utilization
            .iter()
            .fold(0.0, |acc, &u| acc.max(u))
    }

    /// Cache counters pooled over every IOP, or `None` when the method ran
    /// no cache (disk-directed I/O).
    pub fn cache_totals(&self) -> Option<CacheStats> {
        let mut total: Option<CacheStats> = None;
        for stats in self.cache_stats.iter().flatten() {
            total
                .get_or_insert_with(CacheStats::default)
                .accumulate(*stats);
        }
        total
    }
}

/// Runs one collective transfer and returns its outcome.
///
/// `seed` controls the random disk layout (and any other randomness); the
/// same seed always reproduces the same result.
///
/// # Panics
///
/// Panics if the configuration is invalid or the record size does not divide
/// the file size.
pub fn run_transfer(
    config: &MachineConfig,
    method: Method,
    pattern: AccessPattern,
    record_bytes: u64,
    seed: u64,
) -> TransferOutcome {
    run_transfer_in(&mut Sim::new(), config, method, pattern, record_bytes, seed)
}

/// Runs one collective transfer on a caller-provided simulator.
///
/// The simulator is [`Sim::reset`] before use, so back-to-back transfers
/// through one `Sim` reuse its task slots and event calendar. Semantics are
/// identical to [`run_transfer`].
///
/// # Panics
///
/// Panics if the configuration is invalid or the record size does not divide
/// the file size.
pub fn run_transfer_in(
    sim: &mut Sim,
    config: &MachineConfig,
    method: Method,
    pattern: AccessPattern,
    record_bytes: u64,
    seed: u64,
) -> TransferOutcome {
    let wall_start = std::time::Instant::now();
    sim.reset();
    config.validate();
    assert!(
        config.file_bytes % record_bytes == 0,
        "record size {record_bytes} does not divide the file size {}",
        config.file_bytes
    );
    let n_records = config.file_bytes / record_bytes;
    let pattern_instance = PatternInstance::new(pattern, config.n_cps, n_records, record_bytes);

    let rng = SimRng::seed_from_u64(seed);
    let layout = Rc::new(FileLayout::generate(config, &rng.derive(0xD15C)));

    // The fault schedule comes from its own derived stream, so enabling
    // faults never perturbs the layout (and vice versa). Static and absent
    // policies compile to an empty schedule.
    let fault_schedule = FaultConfig::derive(config.faults, config, &rng.derive(FAULT_STREAM));

    // Likewise the serving request schedule: its own stream, empty under the
    // closed-loop default.
    let serve_schedule = ServeConfig::derive(&config.serve, config, &rng.derive(SERVE_STREAM));

    let ctx = sim.context();

    // Interconnect: CPs occupy nodes [0, n_cps), IOPs the next n_iops nodes,
    // placed on the configured fabric (the paper's torus by default).
    let net =
        Network::<ddio::CpMessage>::new(ctx.clone(), config.fabric, config.net, config.n_nodes());
    net.set_outages(fault_schedule.outages.clone());

    let verify = config.verify.then(|| {
        Rc::new(RefCell::new(VerifyState {
            cp_mem: vec![IntervalSet::new(); config.n_cps],
            file_written: IntervalSet::new(),
        }))
    });

    // Build the CPs.
    let mut cps = Vec::with_capacity(config.n_cps);
    for cp in 0..config.n_cps {
        cps.push(Rc::new(CpParts {
            cp,
            node: config.cp_node(cp),
            cpu: Resource::new(
                ctx.clone(),
                ResourceName::Indexed {
                    prefix: "cp",
                    index: cp,
                    suffix: ".cpu",
                },
            ),
        }));
    }

    // Build the IOPs with their buses and disks. The drives run the method's
    // scheduling policy: the Method is the only scheduling knob of a
    // transfer.
    let mut drive_params = config.disk;
    // Static fault policies (cacheless / worn) degrade every drive from
    // time zero; timed policies leave the parameters pristine and act
    // through the per-drive plans instead.
    config.faults.degrade(&mut drive_params);
    let mut iops = Vec::with_capacity(config.n_iops);
    for iop in 0..config.n_iops {
        let bus = ScsiBus::with_bandwidth(
            ctx.clone(),
            ResourceName::Indexed {
                prefix: "iop",
                index: iop,
                suffix: ".bus",
            },
            config.bus_bytes_per_sec,
            config.bus_arbitration,
        );
        let disks = config
            .disks_of_iop(iop)
            .map(|disk| {
                let plan = fault_schedule.plan(disk);
                let handle = spawn_disk(&ctx, disk, drive_params, method.sched(), plan);
                (disk, handle)
            })
            .collect();
        iops.push(Rc::new(IopParts {
            iop,
            node: config.iop_node(iop),
            cpu: Resource::new(
                ctx.clone(),
                ResourceName::Indexed {
                    prefix: "iop",
                    index: iop,
                    suffix: ".cpu",
                },
            ),
            bus,
            disks,
        }));
    }

    let run = Rc::new(RunContext {
        ctx: ctx.clone(),
        config: Rc::new(config.clone()),
        pattern: pattern_instance,
        layout: Rc::clone(&layout),
        net: net.clone(),
        iops: iops.clone(),
        verify,
        cache_stats: RefCell::new(vec![None; config.n_iops]),
        fault: FaultSession {
            schedule: fault_schedule,
            reconstruction_reads: Cell::new(0),
            lost_blocks: Cell::new(0),
        },
    });

    // Every closed-loop CP application task signals this latch as its last
    // step. Nothing waits on it, so it adds no events.
    let finished = CountdownEvent::new(config.n_cps as u64);

    // An active serving schedule replaces the collective transfer: the same
    // machine serves the open-loop request stream under the chosen method's
    // service path instead.
    let serve_session = if serve_schedule.is_active() {
        Some(serve::spawn_serving(
            sim,
            &run,
            &cps,
            method,
            serve_schedule,
        ))
    } else {
        match method {
            Method::TraditionalCaching(sched, cache) => {
                tc::spawn_transfer(sim, &run, &cps, sched, cache, &finished);
            }
            Method::DiskDirected(sched) => {
                ddio::spawn_transfer(sim, &run, &cps, sched, &finished);
            }
        }
        None
    };

    let build_wall_secs = wall_start.elapsed().as_secs_f64();
    let run_wall_start = std::time::Instant::now();
    let end = sim.run();
    let run_wall_secs = run_wall_start.elapsed().as_secs_f64();
    match &serve_session {
        Some(s) => assert_finished(method, pattern, &s.unfinished, "requests"),
        None => assert_finished(method, pattern, &finished, "CPs"),
    }
    let elapsed = end.duration_since(ddio_sim::SimTime::ZERO);

    let disk_stats: Vec<DiskStats> = iops
        .iter()
        .flat_map(|iop| iop.disks.iter().map(|(_, d)| d.stats()))
        .collect();
    let disk_utilization = disk_stats
        .iter()
        .map(|s| {
            if elapsed > SimDuration::ZERO {
                s.busy_time.as_secs_f64() / elapsed.as_secs_f64()
            } else {
                0.0
            }
        })
        .collect();
    let bus_utilization = iops.iter().map(|iop| iop.bus.utilization()).collect();

    let verify_report = run.verify.as_ref().map(|v| {
        let v = v.borrow();
        verify_transfer(&run.pattern, &v)
    });

    // A serving run transfers whatever its completed requests read; a
    // collective transfer moves the pattern's bytes.
    let serve_stats = serve_session
        .as_ref()
        .map(|s| s.stats(elapsed))
        .unwrap_or_default();
    let transferred_bytes = match &serve_session {
        Some(s) => s.served_bytes(),
        None => run.pattern.total_transfer_bytes(),
    };
    let measured_bytes = match &serve_session {
        Some(s) => s.served_bytes(),
        None => config.file_bytes,
    };
    let cache_stats = run.cache_stats.borrow().clone();
    let fault_stats = FaultStats {
        events_fired: run.fault.schedule.events_fired(end),
        reconstruction_reads: run.fault.reconstruction_reads.get(),
        degraded_secs: run.fault.schedule.degraded_secs(end),
        lost_blocks: run.fault.lost_blocks.get(),
    };
    // A transfer that lost data did not transfer the file: its throughput
    // is reported as zero rather than rewarding the shortcut.
    let data_survived = fault_stats.lost_blocks == 0;
    let ni_send_utilization = (0..config.n_nodes())
        .map(|n| net.send_utilization(n))
        .collect();
    let ni_recv_utilization = (0..config.n_nodes())
        .map(|n| net.recv_utilization(n))
        .collect();
    TransferOutcome {
        method,
        pattern: pattern.name(),
        record_bytes,
        elapsed,
        file_bytes: config.file_bytes,
        transferred_bytes,
        throughput_mibs: if data_survived {
            throughput_mibs(measured_bytes, elapsed)
        } else {
            0.0
        },
        aggregate_mibs: if data_survived {
            throughput_mibs(transferred_bytes, elapsed)
        } else {
            0.0
        },
        messages: net.messages_sent(),
        network_bytes: net.bytes_sent(),
        fabric: config.fabric,
        faults: config.faults,
        redundancy: config.redundancy,
        fault_stats,
        serve: serve_stats,
        ni_send_utilization,
        ni_recv_utilization,
        link_stats: net.link_stats(),
        disk_stats,
        disk_utilization,
        bus_utilization,
        cache_stats,
        verify: verify_report,
        sim_events: sim.events_processed(),
        host_wall_secs: wall_start.elapsed().as_secs_f64(),
        build_wall_secs,
        run_wall_secs,
    }
}

/// Panics unless `unfinished` is open once the simulation went idle: a
/// transfer that stopped with CPs (or served requests) still outstanding did
/// not complete, and must fail loudly rather than report a number.
fn assert_finished(
    method: Method,
    pattern: AccessPattern,
    unfinished: &CountdownEvent,
    what: &str,
) {
    let left = unfinished.remaining();
    assert!(
        left == 0,
        "{} {} transfer stopped with {left} {what} unfinished",
        method.label(),
        pattern.name()
    );
}

/// Checks data placement: for reads every CP buffer must be covered exactly
/// once; for writes every file byte must have reached a disk exactly once.
fn verify_transfer(pattern: &PatternInstance, v: &VerifyState) -> VerifyReport {
    if pattern.is_write() {
        if v.file_written.covers_exactly(pattern.file_bytes()) {
            VerifyReport {
                complete: true,
                detail: "every file byte written exactly once".to_owned(),
            }
        } else {
            VerifyReport {
                complete: false,
                detail: format!(
                    "file coverage {} of {} bytes (overlap: {})",
                    v.file_written.covered_bytes(),
                    pattern.file_bytes(),
                    v.file_written.has_overlap()
                ),
            }
        }
    } else {
        for cp in 0..pattern.n_cps() {
            let expected = pattern.cp_bytes(cp);
            if !v.cp_mem[cp].covers_exactly(expected) {
                return VerifyReport {
                    complete: false,
                    detail: format!(
                        "CP {cp} buffer coverage {} of {expected} bytes (overlap: {})",
                        v.cp_mem[cp].covered_bytes(),
                        v.cp_mem[cp].has_overlap()
                    ),
                };
            }
        }
        VerifyReport {
            complete: true,
            detail: "every CP buffer filled exactly once".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ReplacementPolicy;
    use crate::config::{CacheConfig, LayoutPolicy, SchedPolicy};
    use ddio_patterns::AccessPattern;

    fn tiny_config() -> MachineConfig {
        MachineConfig {
            n_cps: 2,
            n_iops: 2,
            n_disks: 2,
            file_bytes: 128 * 1024,
            layout: LayoutPolicy::Contiguous,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn matching_config_cache_is_accepted_and_reports_stats() {
        // The Method alone carries the cache composition.
        let config = tiny_config();
        let mru = CacheConfig {
            replacement: ReplacementPolicy::Mru,
            ..CacheConfig::DEFAULT
        };
        let outcome = run_transfer(
            &config,
            Method::TC.with_cache(mru),
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        assert!(outcome.throughput_mibs > 0.0);
        let totals = outcome.cache_totals().expect("TC publishes cache stats");
        assert!(totals.misses > 0, "a cold cache must miss");
        assert_eq!(outcome.cache_stats.len(), config.n_iops);
        assert!(outcome.cache_stats.iter().all(|s| s.is_some()));
    }

    #[test]
    #[should_panic(expected = "DDIO rb transfer stopped with 2 CPs unfinished")]
    fn an_open_completion_latch_fails_the_transfer() {
        let open = CountdownEvent::new(2);
        assert_finished(
            Method::DDIO,
            AccessPattern::parse("rb").unwrap(),
            &open,
            "CPs",
        );
    }

    #[test]
    fn ddio_reports_no_cache_stats() {
        let outcome = run_transfer(
            &tiny_config(),
            Method::DDIO,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        assert!(outcome.cache_totals().is_none());
        assert!(outcome.cache_stats.iter().all(|s| s.is_none()));
    }

    #[test]
    fn default_fabric_reports_ni_occupancy_but_no_links() {
        let outcome = run_transfer(
            &tiny_config(),
            Method::DDIO,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        assert_eq!(outcome.fabric, NetConfig::DEFAULT);
        assert!(outcome.link_stats.is_empty(), "ni-only charged a link");
        assert_eq!(outcome.link_busy_total_secs(), 0.0);
        assert_eq!(outcome.ni_send_utilization.len(), 4);
        assert_eq!(outcome.ni_recv_utilization.len(), 4);
        assert!(outcome.max_ni_recv_utilization() > 0.0);
    }

    #[test]
    fn link_model_surfaces_per_link_counters() {
        use crate::config::{ContentionModel, TopologyKind};
        let mut config = tiny_config();
        config.fabric = NetConfig {
            topology: TopologyKind::Crossbar,
            contention: ContentionModel::Link,
        };
        config.verify = true;
        let outcome = run_transfer(
            &config,
            Method::DDIO,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        assert!(outcome.verify.as_ref().unwrap().complete);
        assert!(outcome.throughput_mibs > 0.0);
        assert!(!outcome.link_stats.is_empty(), "no link was ever charged");
        assert!(outcome.link_busy_total_secs() > 0.0);
        for l in &outcome.link_stats {
            assert!(l.messages > 0);
            assert_ne!(l.from, l.to);
        }
    }

    #[test]
    fn default_composition_reports_empty_fault_stats() {
        let outcome = run_transfer(
            &tiny_config(),
            Method::TC,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        assert_eq!(outcome.faults, FaultPolicy::None);
        assert_eq!(outcome.redundancy, RedundancyPolicy::None);
        assert_eq!(outcome.fault_stats, FaultStats::default());
    }

    #[test]
    fn transient_faults_slow_the_transfer_but_lose_nothing() {
        let mut config = tiny_config();
        config.faults = FaultPolicy::Transient;
        let healthy = run_transfer(
            &tiny_config(),
            Method::DDIO_SORTED,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        let outcome = run_transfer(
            &config,
            Method::DDIO_SORTED,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        assert_eq!(outcome.fault_stats.events_fired, 2);
        assert!(outcome.fault_stats.degraded_secs > 0.0);
        assert_eq!(outcome.fault_stats.lost_blocks, 0);
        assert_eq!(outcome.fault_stats.reconstruction_reads, 0);
        assert!(outcome.elapsed > healthy.elapsed, "faults must cost time");
        assert!(outcome.throughput_mibs > 0.0);
    }

    #[test]
    fn a_dead_drive_without_redundancy_loses_blocks() {
        let mut config = tiny_config();
        config.layout = LayoutPolicy::RandomBlocks;
        config.faults = FaultPolicy::Failure;
        let outcome = run_transfer(
            &config,
            Method::TC,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        assert_eq!(outcome.fault_stats.events_fired, 3);
        assert!(outcome.fault_stats.lost_blocks > 0);
        assert_eq!(outcome.throughput_mibs, 0.0, "lost data earns no credit");
        assert_eq!(outcome.aggregate_mibs, 0.0);
    }

    #[test]
    fn mirrored_redundancy_reconstructs_a_dead_drives_blocks() {
        let mut config = tiny_config();
        config.layout = LayoutPolicy::RandomBlocks;
        config.faults = FaultPolicy::Failure;
        config.redundancy = RedundancyPolicy::Mirrored;
        config.verify = true;
        let outcome = run_transfer(
            &config,
            Method::DDIO_SORTED,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        assert!(outcome.fault_stats.reconstruction_reads > 0);
        assert_eq!(outcome.fault_stats.lost_blocks, 0);
        assert!(outcome.throughput_mibs > 0.0);
        assert!(outcome.verify.unwrap().complete);
    }

    #[test]
    fn parity_reconstruction_reads_the_surviving_group() {
        let mut config = tiny_config();
        config.n_disks = 4;
        config.layout = LayoutPolicy::RandomBlocks;
        config.faults = FaultPolicy::Failure;
        config.redundancy = RedundancyPolicy::Parity;
        let outcome = run_transfer(
            &config,
            Method::DDIO_SORTED,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        assert!(outcome.fault_stats.reconstruction_reads > 0);
        assert_eq!(outcome.fault_stats.lost_blocks, 0);
        // Rebuilding one block from a 4-disk parity group costs three reads,
        // so parity pays at least as many reconstruction reads as mirroring
        // would for the same loss.
        assert!(outcome.fault_stats.reconstruction_reads >= 3);
        assert!(outcome.throughput_mibs > 0.0);
    }

    #[test]
    fn default_composition_reports_empty_serve_stats() {
        let outcome = run_transfer(
            &tiny_config(),
            Method::TC,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        assert_eq!(outcome.serve.requests, 0);
        assert_eq!(outcome.serve.served_bytes, 0);
        assert!(outcome.serve.p50_ms.is_nan(), "no requests, no percentile");
        assert!(outcome.serve.p999_ms.is_nan());
        assert!(outcome.serve.per_tenant.is_empty());
    }

    #[test]
    fn open_loop_serving_completes_every_request() {
        use crate::serve::{ArrivalProcess, ServeParams};
        let mut config = tiny_config();
        config.serve = ServeParams {
            arrival: ArrivalProcess::Poisson,
            tenants: 3,
            requests_per_tenant: 16,
            ..ServeParams::default()
        };
        for method in [Method::TC, Method::DDIO, Method::DDIO_SORTED] {
            let outcome = run_transfer(
                &config,
                method,
                AccessPattern::parse("rb").unwrap(),
                8192,
                5,
            );
            assert_eq!(outcome.serve.requests, 48, "{method:?} must serve all");
            assert_eq!(outcome.serve.served_bytes, 48 * 8192);
            assert_eq!(outcome.transferred_bytes, 48 * 8192);
            assert!(outcome.serve.p50_ms > 0.0);
            assert!(outcome.serve.p99_ms >= outcome.serve.p50_ms);
            assert!(outcome.serve.p999_ms >= outcome.serve.p99_ms);
            assert!(outcome.serve.max_ms >= outcome.serve.mean_ms);
            assert!(outcome.serve.mean_queue_ms >= 0.0);
            assert!(outcome.throughput_mibs > 0.0);
            assert_eq!(outcome.serve.per_tenant.len(), 3);
            let per_tenant_total: u64 = outcome.serve.per_tenant.iter().map(|t| t.requests).sum();
            assert_eq!(per_tenant_total, 48);
            assert!(outcome.serve.per_tenant.iter().all(|t| t.mibs > 0.0));
        }
    }

    #[test]
    fn serving_is_seed_deterministic() {
        use crate::serve::{ArrivalProcess, QosPolicy, ServeParams};
        let mut config = tiny_config();
        config.serve = ServeParams {
            arrival: ArrivalProcess::Bursty,
            qos: QosPolicy::FairShare,
            tenants: 2,
            requests_per_tenant: 12,
            ..ServeParams::default()
        };
        let run = |seed| {
            run_transfer(
                &config,
                Method::DDIO_SORTED,
                AccessPattern::parse("rb").unwrap(),
                8192,
                seed,
            )
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.serve.p999_ms.to_bits(), b.serve.p999_ms.to_bits());
        assert_eq!(
            a.serve.mean_queue_ms.to_bits(),
            b.serve.mean_queue_ms.to_bits()
        );
        let c = run(10);
        assert_ne!(a.elapsed, c.elapsed, "a new seed must reshuffle arrivals");
    }

    #[test]
    #[should_panic(expected = "does not support open-loop serving")]
    fn verify_mode_rejects_open_loop_serving() {
        use crate::serve::{ArrivalProcess, ServeParams};
        let mut config = tiny_config();
        config.verify = true;
        config.serve = ServeParams {
            arrival: ArrivalProcess::Poisson,
            ..ServeParams::default()
        };
        run_transfer(
            &config,
            Method::TC,
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
    }

    #[test]
    fn matching_config_sched_is_accepted() {
        // The Method alone carries the drive policy.
        let outcome = run_transfer(
            &tiny_config(),
            Method::TC.with_sched(SchedPolicy::Cscan),
            AccessPattern::parse("rb").unwrap(),
            8192,
            1,
        );
        assert!(outcome.throughput_mibs > 0.0);
    }
}
