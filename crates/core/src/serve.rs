//! The open-loop serving subsystem: *who asks for blocks, when, and in what
//! order the file system admits them*.
//!
//! Every other scenario runs one closed-loop collective transfer, which
//! answers the paper's figure questions but not the "millions of users"
//! question: does disk-directed I/O's advantage survive contention from many
//! independent clients, and at what load does it invert? This module is the
//! fifth pluggable subsystem (after disk scheduling, IOP caching, the
//! interconnect, and fault injection): a machine composes an
//! [`ArrivalProcess`] — a deterministic per-tenant request schedule drawn
//! from the trial seed — with a [`QosPolicy`] — the order in which pending
//! requests are admitted to the file system. The default composition
//! (`closed-loop` + `fifo`) generates nothing and is bit-identical to a
//! machine that has never heard of serving.
//!
//! The schedule itself is a [`ServeConfig`]: per-tenant
//! [`ServeRequestSpec`]s (arrive at `t`, read block `b`), derived *before*
//! the simulation starts from an RNG stream independent of the layout and
//! fault streams, so enabling serving never perturbs block placement.
//! Latency is recorded into a fixed-log-bucket [`LatencyHistogram`] —
//! streaming, allocation-free after construction, and deterministic — so
//! every cell can report p50/p99/p999 without storing per-request samples.
//!
//! An admitted request travels like a traditional-caching request: it
//! starts its IOP handler where it lands (the issuing CP task, whose send
//! just returned, spawns it), and the handler's reply carries the block
//! back and then opens the latch the CP waits on. No node runs a message
//! dispatcher.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use ddio_disk::SchedPolicy;
use ddio_sim::sync::{unbounded, CountdownEvent};
use ddio_sim::{Sim, SimDuration, SimRng, SimTime};

use crate::config::{MachineConfig, Method};
use crate::machine::{CpParts, IopParts, RunContext};

ddio_sim::policy_enum! {
    /// How client requests arrive at the file system.
    pub enum ArrivalProcess {
        /// No open-loop clients: the scenario's single collective transfer runs
        /// instead. The bit-identical default.
        #[default]
        ClosedLoop = "closed-loop",
        /// Each tenant issues requests as an independent Poisson stream
        /// (exponential inter-arrival gaps at the tenant's share of the offered
        /// load).
        Poisson = "poisson",
        /// A bursty MMPP on-off stream per tenant: bursts arrive at 4× the
        /// tenant's mean rate (mean burst length 8 requests) separated by
        /// exponential off periods, preserving the same mean rate as `poisson`.
        Bursty = "bursty",
    }
}

impl ArrivalProcess {
    /// True if the process generates an open-loop request stream (anything
    /// but the closed-loop baseline).
    pub fn is_open_loop(self) -> bool {
        self != ArrivalProcess::ClosedLoop
    }
}

ddio_sim::policy_enum! {
    /// The order in which pending requests are admitted to the file system.
    pub enum QosPolicy {
        /// Global arrival order, tenant-blind. The default.
        #[default]
        Fifo = "fifo",
        /// Per-tenant round-robin at admission: each admission takes the next
        /// request of the next non-empty tenant, so no tenant waits more than
        /// one round behind any other.
        FairShare = "fair-share",
        /// Smooth weighted round-robin with weight `tenant + 1`: higher-index
        /// tenants are admitted proportionally more often.
        Weighted = "weighted",
        /// Strict priority by tenant index: tenant 0's requests always go first.
        TenantPriority = "tenant-priority",
    }
}

/// The serving knobs carried by [`MachineConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeParams {
    /// How requests arrive (`closed-loop` disables serving entirely).
    pub arrival: ArrivalProcess,
    /// The admission order of pending requests.
    pub qos: QosPolicy,
    /// Number of independent tenants (client populations).
    pub tenants: usize,
    /// Requests each tenant issues over the run.
    pub requests_per_tenant: usize,
    /// Aggregate offered load as a fraction of the machine's hardware
    /// bandwidth limit (1.0 = arrivals offer exactly the hardware limit).
    pub offered_load: f64,
}

impl Default for ServeParams {
    fn default() -> Self {
        ServeParams {
            arrival: ArrivalProcess::ClosedLoop,
            qos: QosPolicy::Fifo,
            tenants: 4,
            requests_per_tenant: 64,
            offered_load: 0.6,
        }
    }
}

impl ServeParams {
    /// True if the composition generates an open-loop request stream.
    pub fn is_open_loop(&self) -> bool {
        self.arrival.is_open_loop()
    }

    /// Validates the knobs; called by [`MachineConfig::validate`].
    ///
    /// # Panics
    ///
    /// Panics (with a descriptive message) when an open-loop composition is
    /// unusable. The closed-loop default never panics: its knobs are unused.
    pub fn validate(&self) {
        if !self.is_open_loop() {
            return;
        }
        assert!(self.tenants >= 1, "serving needs at least one tenant");
        assert!(
            self.requests_per_tenant >= 1,
            "serving needs at least one request per tenant"
        );
        assert!(
            self.offered_load.is_finite() && self.offered_load > 0.0,
            "offered load must be a positive finite fraction, not {}",
            self.offered_load
        );
    }
}

/// One scheduled client request: tenant `tenant`'s `seq`-th request arrives
/// at `arrival` and reads file block `block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeRequestSpec {
    /// The issuing tenant.
    pub tenant: usize,
    /// The request's sequence number within its tenant's stream.
    pub seq: usize,
    /// The virtual time the request enters the system.
    pub arrival: SimTime,
    /// The file block it reads.
    pub block: u64,
}

/// The compiled request schedule of one trial: every tenant's stream, merged
/// and sorted by arrival time.
///
/// Derived once, deterministically, before the simulation starts — see
/// [`ServeConfig::derive`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeConfig {
    /// The admission policy the trial runs.
    pub qos: QosPolicy,
    /// Number of tenants (streams).
    pub tenants: usize,
    /// The merged schedule, sorted by `(arrival, tenant, seq)`.
    pub requests: Vec<ServeRequestSpec>,
}

impl ServeConfig {
    /// A schedule that generates nothing (the closed-loop baseline).
    pub fn empty() -> ServeConfig {
        ServeConfig::default()
    }

    /// True if the schedule has requests to serve (the machine runs the
    /// serving front end instead of a collective transfer).
    pub fn is_active(&self) -> bool {
        !self.requests.is_empty()
    }

    /// Derives the schedule for `params` on `config`'s machine from `rng`.
    ///
    /// The derivation is a pure function of the RNG seed: each tenant's
    /// stream comes from its own derived sub-stream (`rng.derive(tenant)`),
    /// in a fixed per-request draw order, so adding tenants never perturbs
    /// existing streams. The aggregate arrival rate is
    /// `offered_load × hardware_limit / block_bytes` requests per second,
    /// split evenly over the tenants. The closed-loop baseline draws nothing
    /// and returns an empty schedule.
    pub fn derive(params: &ServeParams, config: &MachineConfig, rng: &SimRng) -> ServeConfig {
        if !params.is_open_loop() {
            return ServeConfig::empty();
        }
        params.validate();
        let rate = params.offered_load * config.hardware_limit() / config.block_bytes as f64;
        let per_tenant = rate / params.tenants as f64;
        let n_blocks = config.n_blocks();
        let mut requests = Vec::with_capacity(params.tenants * params.requests_per_tenant);
        // An exponential gap at `rate` events/sec; `1 - gen_f64()` is in
        // (0, 1], so the log is finite.
        let exp_gap = |stream: &SimRng, rate: f64| -(1.0 - stream.gen_f64()).ln() / rate;
        for tenant in 0..params.tenants {
            let stream = rng.derive(tenant as u64);
            let mut at = 0.0f64;
            match params.arrival {
                ArrivalProcess::ClosedLoop => unreachable!("handled above"),
                ArrivalProcess::Poisson => {
                    // Fixed draw order per request: gap, then block. New
                    // draws must go at the end.
                    for seq in 0..params.requests_per_tenant {
                        at += exp_gap(&stream, per_tenant);
                        let block = stream.gen_range(n_blocks);
                        requests.push(ServeRequestSpec {
                            tenant,
                            seq,
                            arrival: SimTime::ZERO + SimDuration::from_secs_f64(at),
                            block,
                        });
                    }
                }
                ArrivalProcess::Bursty => {
                    // MMPP on-off: bursts at 4× the mean rate, mean burst
                    // length 8, off periods sized so the long-run mean rate
                    // equals `per_tenant` (ON spans 2/λ_t per cycle of
                    // 8/λ_t, so OFF gaps are exponential at λ_t/6).
                    let lambda_on = 4.0 * per_tenant;
                    let off_rate = per_tenant / 6.0;
                    let mut in_burst = false;
                    // Fixed draw order per request: gap, block, then the
                    // burst-continuation coin. New draws must go at the end.
                    for seq in 0..params.requests_per_tenant {
                        at += if in_burst {
                            exp_gap(&stream, lambda_on)
                        } else {
                            in_burst = true;
                            exp_gap(&stream, off_rate)
                        };
                        let block = stream.gen_range(n_blocks);
                        requests.push(ServeRequestSpec {
                            tenant,
                            seq,
                            arrival: SimTime::ZERO + SimDuration::from_secs_f64(at),
                            block,
                        });
                        // Geometric burst length with mean 8.
                        if stream.gen_f64() >= 7.0 / 8.0 {
                            in_burst = false;
                        }
                    }
                }
            }
        }
        requests.sort_by_key(|r| (r.arrival.as_nanos(), r.tenant, r.seq));
        ServeConfig {
            qos: params.qos,
            tenants: params.tenants,
            requests,
        }
    }
}

/// Sub-bucket resolution bits: 32 sub-buckets per power of two.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Bucket count: exact buckets below 32, then 32 per octave up to `u64::MAX`.
const N_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// A fixed-size log-bucket histogram of `u64` samples (latencies in
/// nanoseconds), streaming and deterministic.
///
/// Values below 32 are recorded exactly; larger values land in one of 32
/// sub-buckets per power of two, so any reported percentile is within
/// [`LatencyHistogram::RELATIVE_ERROR`] of the true sample. Recording never
/// allocates: the bucket table is built once at construction.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// The worst-case relative error of a reported percentile (one
    /// sub-bucket's width over its lower bound, at the safe bound of 1/32).
    pub const RELATIVE_ERROR: f64 = 1.0 / 32.0;

    /// An empty histogram (allocates its bucket table once).
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index of `value`.
    fn bucket(value: u64) -> usize {
        if value < SUBS as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros();
        let shift = octave - SUB_BITS;
        let sub = (value >> shift) as usize - SUBS;
        SUBS + (octave - SUB_BITS) as usize * SUBS + sub
    }

    /// The representative value of bucket `idx` (the bucket's midpoint;
    /// exact below 32).
    fn representative(idx: usize) -> u64 {
        if idx < SUBS {
            return idx as u64;
        }
        let octave = (idx - SUBS) / SUBS;
        let sub = (idx - SUBS) % SUBS;
        let shift = octave as u32;
        let lower = ((SUBS + sub) as u64) << shift;
        let width = 1u64 << shift;
        lower + width / 2
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[LatencyHistogram::bucket(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact mean of the recorded samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        self.sum as f64 / self.count as f64
    }

    /// The exact maximum of the recorded samples (`NaN` when empty).
    pub fn max_value(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        self.max as f64
    }

    /// The nearest-rank percentile `p` in `[0, 1]`, as the matching bucket's
    /// representative value. `NaN` when the histogram is empty or `p` is out
    /// of range.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 || !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return LatencyHistogram::representative(idx) as f64;
            }
        }
        // Unreachable: the buckets sum to `count`.
        self.max as f64
    }
}

/// The pending-request queue of one trial, ordered by the [`QosPolicy`].
///
/// `push` enqueues an arrived request under its tenant; `pop` yields the
/// next request the policy admits. Deterministic: ties always break toward
/// the lowest tenant index.
#[derive(Debug)]
pub struct AdmissionQueue {
    qos: QosPolicy,
    /// Fifo: the single global queue (unused by the per-tenant policies).
    global: VecDeque<(usize, u64)>,
    /// Per-tenant queues (unused by fifo).
    per_tenant: Vec<VecDeque<u64>>,
    /// FairShare: the next tenant the round-robin scan starts from.
    cursor: usize,
    /// Weighted: each tenant's accumulated smooth-WRR credit.
    credit: Vec<i64>,
    len: usize,
}

impl AdmissionQueue {
    /// An empty queue admitting under `qos` across `tenants` tenants.
    pub fn new(qos: QosPolicy, tenants: usize) -> AdmissionQueue {
        AdmissionQueue {
            qos,
            global: VecDeque::new(),
            per_tenant: vec![VecDeque::new(); tenants],
            cursor: 0,
            credit: vec![0; tenants],
            len: 0,
        }
    }

    /// The smooth-WRR weight of tenant `t` (higher index, higher weight).
    pub fn weight(tenant: usize) -> u64 {
        tenant as u64 + 1
    }

    /// Enqueues request `id` of `tenant`.
    pub fn push(&mut self, tenant: usize, id: u64) {
        match self.qos {
            QosPolicy::Fifo => self.global.push_back((tenant, id)),
            _ => self.per_tenant[tenant].push_back(id),
        }
        self.len += 1;
    }

    /// Admits the next request per the policy, as `(tenant, id)`.
    pub fn pop(&mut self) -> Option<(usize, u64)> {
        if self.len == 0 {
            return None;
        }
        let popped = match self.qos {
            QosPolicy::Fifo => self.global.pop_front(),
            QosPolicy::FairShare => {
                let n = self.per_tenant.len();
                (0..n)
                    .map(|i| (self.cursor + i) % n)
                    .find(|&t| !self.per_tenant[t].is_empty())
                    .map(|t| {
                        self.cursor = (t + 1) % n;
                        (t, self.per_tenant[t].pop_front().expect("non-empty"))
                    })
            }
            QosPolicy::Weighted => {
                // Smooth weighted round-robin over the non-empty tenants:
                // every active tenant earns its weight, the richest one
                // (ties to the lowest index) is admitted and pays back the
                // total active weight.
                let mut total = 0i64;
                let mut best: Option<usize> = None;
                for t in 0..self.per_tenant.len() {
                    if self.per_tenant[t].is_empty() {
                        continue;
                    }
                    self.credit[t] += AdmissionQueue::weight(t) as i64;
                    total += AdmissionQueue::weight(t) as i64;
                    if best.map_or(true, |b| self.credit[t] > self.credit[b]) {
                        best = Some(t);
                    }
                }
                best.map(|t| {
                    self.credit[t] -= total;
                    let id = self.per_tenant[t].pop_front().expect("non-empty");
                    if self.per_tenant[t].is_empty() {
                        self.credit[t] = 0;
                    }
                    (t, id)
                })
            }
            QosPolicy::TenantPriority => self
                .per_tenant
                .iter_mut()
                .enumerate()
                .find(|(_, q)| !q.is_empty())
                .map(|(t, q)| (t, q.pop_front().expect("non-empty"))),
        };
        if popped.is_some() {
            self.len -= 1;
        }
        popped
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One tenant's share of a serving run, surfaced per JSON cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// The tenant index.
    pub tenant: usize,
    /// Requests completed.
    pub requests: u64,
    /// Bytes served.
    pub bytes: u64,
    /// Throughput over the whole run, in MiB/s.
    pub mibs: f64,
}

/// Latency and throughput of one serving run, surfaced per JSON cell.
///
/// All latency fields are in milliseconds of virtual time and are `NaN`
/// under the closed-loop default (no requests), which the report layer
/// renders as `null`.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Requests completed.
    pub requests: u64,
    /// Bytes served across all tenants.
    pub served_bytes: u64,
    /// Median enqueue→completion latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, ms.
    pub p999_ms: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// Worst observed latency, ms.
    pub max_ms: f64,
    /// Mean enqueue→admission queueing delay, ms.
    pub mean_queue_ms: f64,
    /// Per-tenant completion counts and throughput.
    pub per_tenant: Vec<TenantStats>,
}

impl Default for ServeStats {
    /// The closed-loop default: zero requests, `NaN` latencies (rendered as
    /// `null`), no tenants.
    fn default() -> Self {
        ServeStats {
            requests: 0,
            served_bytes: 0,
            p50_ms: f64::NAN,
            p99_ms: f64::NAN,
            p999_ms: f64::NAN,
            mean_ms: f64::NAN,
            max_ms: f64::NAN,
            mean_queue_ms: f64::NAN,
            per_tenant: Vec::new(),
        }
    }
}

/// Nanoseconds to milliseconds.
fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The serving front end's per-run state: the streaming recorders every
/// request task writes into.
pub(crate) struct ServeSession {
    latency: RefCell<LatencyHistogram>,
    queue_wait: RefCell<LatencyHistogram>,
    tenant_requests: RefCell<Vec<u64>>,
    tenant_bytes: RefCell<Vec<u64>>,
    served: Cell<u64>,
    /// Signalled once per completed request; open once every scheduled
    /// request completed.
    pub unfinished: CountdownEvent,
}

impl ServeSession {
    fn new(tenants: usize, requests: usize) -> ServeSession {
        ServeSession {
            latency: RefCell::new(LatencyHistogram::new()),
            queue_wait: RefCell::new(LatencyHistogram::new()),
            tenant_requests: RefCell::new(vec![0; tenants]),
            tenant_bytes: RefCell::new(vec![0; tenants]),
            served: Cell::new(0),
            unfinished: CountdownEvent::new(requests as u64),
        }
    }

    /// Records one request's enqueue→admission delay.
    fn record_admission(&self, wait: SimDuration) {
        self.queue_wait.borrow_mut().record(wait.as_nanos());
    }

    /// Records one request's completion: its enqueue→completion latency and
    /// the bytes it served.
    fn record_completion(&self, tenant: usize, latency: SimDuration, bytes: u64) {
        self.latency.borrow_mut().record(latency.as_nanos());
        self.tenant_requests.borrow_mut()[tenant] += 1;
        self.tenant_bytes.borrow_mut()[tenant] += bytes;
        self.served.set(self.served.get() + bytes);
        self.unfinished.signal();
    }

    /// Bytes served so far.
    pub fn served_bytes(&self) -> u64 {
        self.served.get()
    }

    /// The run's final statistics, with throughput over `elapsed`.
    pub fn stats(&self, elapsed: SimDuration) -> ServeStats {
        let latency = self.latency.borrow();
        let per_tenant = self
            .tenant_requests
            .borrow()
            .iter()
            .zip(self.tenant_bytes.borrow().iter())
            .enumerate()
            .map(|(tenant, (&requests, &bytes))| TenantStats {
                tenant,
                requests,
                bytes,
                mibs: ddio_sim::stats::throughput_mibs(bytes, elapsed),
            })
            .collect();
        ServeStats {
            requests: latency.count(),
            served_bytes: self.served.get(),
            p50_ms: ns_to_ms(latency.percentile(0.50)),
            p99_ms: ns_to_ms(latency.percentile(0.99)),
            p999_ms: ns_to_ms(latency.percentile(0.999)),
            mean_ms: ns_to_ms(latency.mean()),
            max_ms: ns_to_ms(latency.max_value()),
            mean_queue_ms: ns_to_ms(self.queue_wait.borrow().mean()),
            per_tenant,
        }
    }
}

/// How many admitted requests one worker groups into a disk-directed batch
/// (the batch shares one collective setup per IOP).
const SERVE_BATCH: usize = 8;

/// Per-CP client state: issues admitted requests.
struct ServeClient {
    parts: Rc<CpParts>,
    run: Rc<RunContext>,
    session: Rc<ServeSession>,
    /// Every IOP's server, indexed by IOP number.
    servers: Rc<[Rc<ServeServer>]>,
}

impl ServeClient {
    /// Issues one admitted request to the IOP owning its block and records
    /// its completion when the data comes back.
    async fn drive(self: Rc<Self>, spec: ServeRequestSpec, setup: bool) {
        let costs = &self.run.config.costs;
        self.parts.cpu.use_for(costs.cp_request_cpu).await;
        let disk = self.run.layout.disk_of_block(spec.block);
        let iop = self.run.config.iop_of_disk(disk);
        // Serving is read-only: the request carries no data.
        self.run
            .net
            .send(
                self.parts.node,
                self.run.config.iop_node(iop),
                costs.message_header_bytes,
            )
            .await;
        let done = CountdownEvent::new(1);
        let server = Rc::clone(&self.servers[iop]);
        self.run
            .ctx
            .spawn(server.handle(self.parts.cp, spec.block, setup, done.clone()));
        done.wait().await;
        self.parts.cpu.use_for(costs.cp_mem_msg_cpu).await;
        // The reply carries the whole block.
        let now = self.run.ctx.now();
        let latency = now.saturating_duration_since(spec.arrival);
        self.session
            .record_completion(spec.tenant, latency, self.run.block_bytes(spec.block));
    }
}

/// Per-IOP server state.
struct ServeServer {
    parts: Rc<IopParts>,
    run: Rc<RunContext>,
    /// True when the run serves via disk-directed I/O (amortized collective
    /// setup, no cache pass); false for the traditional request-reply path.
    ddio: bool,
}

impl ServeServer {
    /// Serves one request: CPU costs per the method, the disk read, the SCSI
    /// bus, and the data-carrying reply, whose landing opens `done`.
    async fn handle(self: Rc<Self>, cp: usize, block: u64, setup: bool, done: CountdownEvent) {
        let costs = &self.run.config.costs;
        if self.ddio {
            // Disk-directed: the first request of a batch's per-IOP group
            // pays the collective setup; every request pays the block-task
            // cost. At batch size 1 the setup dominates (traditional
            // caching wins); a full batch amortizes it away.
            if setup {
                self.parts.cpu.use_for(costs.collective_setup_cpu).await;
            }
            self.parts.cpu.use_for(costs.ddio_block_cpu).await;
        } else {
            self.parts.cpu.use_for(costs.iop_dispatch_cpu).await;
            self.parts.cpu.use_for(costs.iop_cache_cpu).await;
        }
        let bytes = self.run.read_block(&self.parts, block).await;
        if self.ddio {
            self.parts.cpu.use_for(costs.memput_cpu).await;
        } else {
            self.parts.cpu.use_for(costs.iop_reply_cpu).await;
        }
        let wire = costs.message_header_bytes + bytes;
        self.run
            .net
            .send(self.parts.node, self.run.config.cp_node(cp), wire)
            .await;
        done.signal();
    }
}

/// Spawns every task of an open-loop serving run: per-IOP servers, per-CP
/// clients, the arrival injector, and the admission workers. Returns the
/// session whose recorders accumulate the run's statistics.
pub(crate) fn spawn_serving(
    sim: &mut Sim,
    run: &Rc<RunContext>,
    cps: &[Rc<CpParts>],
    method: Method,
    schedule: ServeConfig,
) -> Rc<ServeSession> {
    let ctx = sim.context();
    let session = Rc::new(ServeSession::new(schedule.tenants, schedule.requests.len()));
    let ddio = method.is_disk_directed();
    let presort = method.sched() == SchedPolicy::Presort;

    // IOP servers and CP clients.
    let servers: Rc<[Rc<ServeServer>]> = run
        .iops
        .iter()
        .map(|iop_parts| {
            Rc::new(ServeServer {
                parts: Rc::clone(iop_parts),
                run: Rc::clone(run),
                ddio,
            })
        })
        .collect();
    let clients: Vec<Rc<ServeClient>> = cps
        .iter()
        .map(|cp_parts| {
            Rc::new(ServeClient {
                parts: Rc::clone(cp_parts),
                run: Rc::clone(run),
                session: Rc::clone(&session),
                servers: Rc::clone(&servers),
            })
        })
        .collect();

    // The arrival injector: requests enter the shared admission queue at
    // their scheduled virtual times, in schedule order, each announced by
    // one token on the arrivals channel. Dropping the sender at the end of
    // the schedule closes the channel, which releases the workers.
    let queue = Rc::new(RefCell::new(AdmissionQueue::new(
        schedule.qos,
        schedule.tenants,
    )));
    let (arrived, arrivals) = unbounded::<()>();
    let specs = Rc::new(schedule.requests);
    {
        let queue = Rc::clone(&queue);
        let specs = Rc::clone(&specs);
        let inject_ctx = ctx.clone();
        sim.spawn(async move {
            for (id, spec) in specs.iter().enumerate() {
                inject_ctx
                    .sleep(spec.arrival.saturating_duration_since(inject_ctx.now()))
                    .await;
                queue.borrow_mut().push(spec.tenant, id as u64);
                arrived
                    .try_send(())
                    .expect("admission workers outlive arrivals");
            }
        });
    }

    // Admission workers: each admits the QoS policy's next request (for
    // disk-directed runs, an opportunistic batch sharing one collective
    // setup per IOP) and issues it through the block's home CP, waiting for
    // the whole batch before admitting more. The bounded window is what
    // makes fair-share starvation-free: a pending tenant is admitted within
    // `workers × SERVE_BATCH` admissions.
    let workers = (2 * cps.len()).max(1);
    let layout = Rc::clone(&run.layout);
    let config = Rc::clone(&run.config);
    for _ in 0..workers {
        let queue = Rc::clone(&queue);
        let arrivals = arrivals.clone();
        let specs = Rc::clone(&specs);
        let session = Rc::clone(&session);
        let clients = clients.clone();
        let layout = Rc::clone(&layout);
        let config = Rc::clone(&config);
        let worker_ctx = ctx.clone();
        sim.spawn(async move {
            let mut batch: Vec<(usize, u64)> = Vec::with_capacity(SERVE_BATCH);
            // One token per queued request: holding a token entitles a
            // worker to one pop.
            let pop = || queue.borrow_mut().pop().expect("a token per request");
            while arrivals.recv().await.is_some() {
                batch.clear();
                batch.push(pop());
                if ddio {
                    while batch.len() < SERVE_BATCH && arrivals.try_recv().is_some() {
                        batch.push(pop());
                    }
                    // Group per IOP so each group shares one collective
                    // setup; the sorted variant additionally orders each
                    // group by physical location, like its block lists.
                    if presort {
                        batch.sort_by_key(|&(_, id)| {
                            let loc = layout.location(specs[id as usize].block);
                            (config.iop_of_disk(loc.disk), loc.start_sector)
                        });
                    } else {
                        batch.sort_by_key(|&(_, id)| {
                            config.iop_of_disk(layout.disk_of_block(specs[id as usize].block))
                        });
                    }
                }
                let now = worker_ctx.now();
                let inflight = CountdownEvent::new(0);
                let mut prev_iop: Option<usize> = None;
                for &(_, id) in &batch {
                    let spec = specs[id as usize];
                    session.record_admission(now.saturating_duration_since(spec.arrival));
                    let iop = config.iop_of_disk(layout.disk_of_block(spec.block));
                    // Under DDIO the first request of each per-IOP group
                    // carries the (amortized) collective setup.
                    let setup = ddio && prev_iop != Some(iop);
                    prev_iop = Some(iop);
                    let client = Rc::clone(&clients[id as usize % clients.len()]);
                    let inflight2 = inflight.clone();
                    inflight.add(1);
                    worker_ctx.spawn(async move {
                        client.drive(spec, setup).await;
                        inflight2.signal();
                    });
                }
                inflight.wait().await;
            }
        });
    }

    session
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n_cps: usize, n_iops: usize, n_disks: usize) -> MachineConfig {
        MachineConfig {
            n_cps,
            n_iops,
            n_disks,
            file_bytes: 1 << 20,
            ..MachineConfig::default()
        }
    }

    fn open_params(arrival: ArrivalProcess) -> ServeParams {
        ServeParams {
            arrival,
            ..ServeParams::default()
        }
    }

    #[test]
    fn names_round_trip() {
        for a in ArrivalProcess::ALL {
            assert_eq!(ArrivalProcess::parse(a.name()), Some(a));
        }
        for q in QosPolicy::ALL {
            assert_eq!(QosPolicy::parse(q.name()), Some(q));
        }
        assert_eq!(ArrivalProcess::parse("meteor"), None);
        assert_eq!(QosPolicy::parse("edf"), None);
        assert!(!ArrivalProcess::ClosedLoop.is_open_loop());
        assert!(ArrivalProcess::Poisson.is_open_loop());
        assert!(ArrivalProcess::Bursty.is_open_loop());
    }

    #[test]
    fn sets_parse_and_filter() {
        let arrivals = ["poisson", "bursty"].map(|n| ArrivalProcess::parse(n).unwrap());
        assert_eq!(arrivals, [ArrivalProcess::Poisson, ArrivalProcess::Bursty]);
        let open: Vec<_> = ArrivalProcess::ALL
            .into_iter()
            .filter(|a| a.is_open_loop())
            .collect();
        assert_eq!(open, arrivals);
        assert_eq!(ArrivalProcess::parse("meteor"), None);
        let qos = ["fifo", "tenant-priority"].map(|n| QosPolicy::parse(n).unwrap());
        assert_eq!(qos, [QosPolicy::Fifo, QosPolicy::TenantPriority]);
        assert_eq!(QosPolicy::ALL.len(), 4);
        assert_eq!(QosPolicy::parse("edf"), None);
    }

    #[test]
    fn closed_loop_derives_an_empty_schedule() {
        let config = config(2, 2, 2);
        let params = ServeParams::default();
        assert!(!params.is_open_loop());
        let sc = ServeConfig::derive(&params, &config, &SimRng::seed_from_u64(7));
        assert!(!sc.is_active());
        assert_eq!(sc, ServeConfig::empty());
    }

    #[test]
    fn schedules_are_seed_deterministic_and_sorted() {
        let config = config(4, 4, 4);
        for arrival in [ArrivalProcess::Poisson, ArrivalProcess::Bursty] {
            let params = open_params(arrival);
            let a = ServeConfig::derive(&params, &config, &SimRng::seed_from_u64(42));
            let b = ServeConfig::derive(&params, &config, &SimRng::seed_from_u64(42));
            assert_eq!(a, b, "{arrival} schedule must be a pure function of seed");
            let c = ServeConfig::derive(&params, &config, &SimRng::seed_from_u64(43));
            assert_ne!(a, c, "{arrival} schedules must vary with the seed");

            assert_eq!(
                a.requests.len(),
                params.tenants * params.requests_per_tenant
            );
            assert!(a.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
            assert!(a.requests.iter().all(|r| r.block < config.n_blocks()));
            for tenant in 0..params.tenants {
                let n = a.requests.iter().filter(|r| r.tenant == tenant).count();
                assert_eq!(n, params.requests_per_tenant);
            }
        }
    }

    #[test]
    fn bursty_arrivals_cluster_more_than_poisson() {
        // Same seed, same mean rate: the MMPP stream must show more
        // short-gap clustering than the Poisson stream.
        let config = config(4, 4, 4);
        let median_gap = |sc: &ServeConfig| {
            let mut gaps: Vec<u64> = sc
                .requests
                .windows(2)
                .map(|w| w[1].arrival.as_nanos() - w[0].arrival.as_nanos())
                .collect();
            gaps.sort_unstable();
            gaps[gaps.len() / 2]
        };
        let rng = SimRng::seed_from_u64(11);
        let poisson = ServeConfig::derive(&open_params(ArrivalProcess::Poisson), &config, &rng);
        let bursty = ServeConfig::derive(&open_params(ArrivalProcess::Bursty), &config, &rng);
        assert!(
            median_gap(&bursty) < median_gap(&poisson),
            "bursts must compress the typical inter-arrival gap"
        );
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn open_loop_rejects_a_nonpositive_load() {
        ServeParams {
            arrival: ArrivalProcess::Poisson,
            offered_load: 0.0,
            ..ServeParams::default()
        }
        .validate();
    }

    #[test]
    fn histogram_is_exact_below_32() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        // Nearest-rank percentiles over 0..32 are exact.
        assert_eq!(h.percentile(1.0 / 32.0), 0.0);
        assert_eq!(h.percentile(0.5), 15.0);
        assert_eq!(h.percentile(1.0), 31.0);
        assert_eq!(h.max_value(), 31.0);
        assert_eq!(h.mean(), 15.5);
    }

    #[test]
    fn histogram_percentiles_stay_within_the_relative_error() {
        let rng = SimRng::seed_from_u64(3);
        let mut h = LatencyHistogram::new();
        let mut samples = Vec::new();
        for _ in 0..10_000 {
            // Latency-like spread: ~1µs to ~100ms in nanoseconds.
            let v = 1_000 + rng.gen_range(100_000_000);
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for p in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1] as f64;
            let approx = h.percentile(p);
            let err = (approx - exact).abs() / exact;
            assert!(
                err <= LatencyHistogram::RELATIVE_ERROR,
                "p{p}: approx {approx} vs exact {exact} (err {err})"
            );
        }
    }

    #[test]
    fn empty_histogram_reports_nan() {
        let h = LatencyHistogram::new();
        assert!(h.percentile(0.5).is_nan());
        assert!(h.mean().is_nan());
        assert!(h.max_value().is_nan());
        let mut h = LatencyHistogram::new();
        h.record(7);
        assert!(h.percentile(1.5).is_nan(), "out-of-range p is NaN");
        assert!(h.percentile(-0.1).is_nan());
    }

    #[test]
    fn histogram_handles_extreme_values() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(0.0), 0.0);
        let top = h.percentile(1.0);
        let err = (top - u64::MAX as f64).abs() / u64::MAX as f64;
        assert!(err <= LatencyHistogram::RELATIVE_ERROR);
    }

    #[test]
    fn fifo_admits_in_arrival_order() {
        let mut q = AdmissionQueue::new(QosPolicy::Fifo, 2);
        q.push(1, 10);
        q.push(0, 20);
        q.push(1, 30);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1, 10)));
        assert_eq!(q.pop(), Some((0, 20)));
        assert_eq!(q.pop(), Some((1, 30)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn fair_share_round_robins_tenants() {
        let mut q = AdmissionQueue::new(QosPolicy::FairShare, 3);
        for id in 0..3u64 {
            q.push(0, id);
        }
        q.push(2, 100);
        q.push(2, 101);
        // Round-robin: 0, skip empty 1, 2, 0, 2, 0.
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((2, 100)));
        assert_eq!(q.pop(), Some((0, 1)));
        assert_eq!(q.pop(), Some((2, 101)));
        assert_eq!(q.pop(), Some((0, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn weighted_admits_proportionally_to_weight() {
        // Tenant weights 1 and 2: over 3 admissions tenant 1 gets 2.
        let mut q = AdmissionQueue::new(QosPolicy::Weighted, 2);
        for id in 0..6u64 {
            q.push((id % 2) as usize, id);
        }
        let mut counts = [0usize; 2];
        for _ in 0..3 {
            let (t, _) = q.pop().unwrap();
            counts[t] += 1;
        }
        assert_eq!(counts, [1, 2], "weight 2 earns twice the admissions");
        while q.pop().is_some() {}
        assert!(q.is_empty());
    }

    #[test]
    fn tenant_priority_starves_the_low_priority_tenant() {
        let mut q = AdmissionQueue::new(QosPolicy::TenantPriority, 2);
        q.push(1, 10);
        q.push(0, 20);
        q.push(1, 11);
        q.push(0, 21);
        assert_eq!(q.pop(), Some((0, 20)));
        assert_eq!(q.pop(), Some((0, 21)));
        assert_eq!(q.pop(), Some((1, 10)));
        assert_eq!(q.pop(), Some((1, 11)));
    }

    #[test]
    fn fair_share_bounds_every_tenants_wait() {
        // With T tenants, any pending tenant is admitted within T pops.
        let tenants = 5;
        let mut q = AdmissionQueue::new(QosPolicy::FairShare, tenants);
        for t in 0..tenants {
            for id in 0..10u64 {
                q.push(t, (t as u64) * 100 + id);
            }
        }
        let mut since_seen = vec![0usize; tenants];
        while let Some((t, _)) = q.pop() {
            for (other, gap) in since_seen.iter_mut().enumerate() {
                if other == t {
                    *gap = 0;
                } else {
                    *gap += 1;
                    assert!(
                        *gap <= tenants,
                        "tenant {other} waited {gap} admissions while pending"
                    );
                }
            }
        }
    }
}
