//! The traditional-caching parallel file system (the paper's baseline).
//!
//! Follows the pseudo-code of Figure 1a and the description in §4:
//!
//! * CPs do not cache; each contiguous chunk of the file a CP needs becomes
//!   one request (split at file-system block boundaries), with at most one
//!   outstanding request per disk per CP.
//! * Each incoming request at an IOP is handled by a new thread: cache
//!   lookup, disk read on a miss, prefetch, and a reply that carries the
//!   data. Write requests carry data to the IOP, which copies it into a
//!   cache buffer and writes it back per the cache's [`WritePolicy`]. The
//!   paper's design — one-block-ahead prefetch, flush once a block is
//!   entirely written — is [`CacheConfig::DEFAULT`]; the transfer's
//!   [`CacheConfig`] selects the replacement, prefetch, and write-back
//!   policies actually run (see [`crate::cache`]).
//! * The measured transfer ends only when all write-behind and prefetch
//!   activity has drained: the CPs meet at the paper's barrier (here a latch
//!   every CP signals and waits on), and the last to arrive issues an
//!   explicit sync to every IOP.
//! * A request runs its IOP handler where it lands: the paper's "new
//!   thread" at the IOP runs in parallel with nothing, since its CP waits
//!   for the reply, so the CP's request calls the handler once its send
//!   returns and resumes when the handler's reply has landed. No
//!   dispatcher sits between the NI and the work, and neither side keeps a
//!   table of outstanding requests. A sync to every IOP does run in
//!   parallel: the CP spawns each IOP's handler, whose acknowledgement
//!   opens the latch the CP waits on.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use ddio_disk::SchedPolicy;
use ddio_patterns::AccessKind;
use ddio_sim::sync::CountdownEvent;
use ddio_sim::Sim;

use crate::cache::{
    BlockCache, CacheConfig, FillReason, Lookup, Prefetcher, WriteAction, WritePolicy,
};
use crate::machine::{CpParts, IopParts, RunContext};

/// A chunk split at block boundaries: the unit of one CP request.
#[derive(Debug, Clone, Copy)]
struct SubRequest {
    block: u64,
    offset: u32,
    len: u32,
    mem_offset: u64,
}

/// Splits a CP's chunks into per-block sub-requests.
fn split_chunks(run: &RunContext, cp: usize) -> Vec<SubRequest> {
    let block_bytes = run.layout.block_bytes();
    let mut subs = Vec::new();
    for chunk in run.pattern.chunks_for_cp(cp) {
        let mut file_off = chunk.file_offset;
        let mut mem_off = chunk.mem_offset;
        let mut remaining = chunk.bytes;
        while remaining > 0 {
            let block = file_off / block_bytes;
            let within = file_off % block_bytes;
            let len = remaining.min(block_bytes - within);
            subs.push(SubRequest {
                block,
                offset: within as u32,
                len: len as u32,
                mem_offset: mem_off,
            });
            file_off += len;
            mem_off += len;
            remaining -= len;
        }
    }
    subs
}

/// Per-IOP server state.
struct IopServer {
    parts: Rc<IopParts>,
    run: Rc<RunContext>,
    cache: RefCell<BlockCache>,
    /// The prefetcher observing this IOP's demand-read stream.
    prefetcher: RefCell<Prefetcher>,
    /// Reusable buffer the prefetcher plans into (no per-read allocation).
    prefetch_buf: RefCell<Vec<u64>>,
    /// True while a watermark flush sweep is running (at most one at a time).
    sweeping: Cell<bool>,
    /// Outstanding background work (prefetches and write-behind flushes):
    /// open while none is running.
    background: CountdownEvent,
}

impl IopServer {
    /// Writes `bytes` of `block` from the cache buffer back to its disk.
    async fn flush_block(&self, block: u64, bytes: u64) {
        self.cache.borrow_mut().note_flush();
        self.run.write_block(&self.parts, block, bytes).await;
    }

    /// Brings the uncached `block` in for `reason`, leaving it pinned:
    /// inserts it as filling, flushes the victim it displaced if dirty,
    /// reads it from disk (unless it is a write allocation, which needs a
    /// buffer but not the old contents: the collective patterns always
    /// overwrite whole blocks by the end of the transfer), then wakes its
    /// waiters.
    async fn fill(&self, block: u64, reason: FillReason) {
        let evicted = self.cache.borrow_mut().insert_filling(block, reason);
        if let Some(victim) = evicted.filter(|v| v.dirty) {
            self.flush_block(victim.block, victim.written_bytes.max(1))
                .await;
        }
        if reason != FillReason::WriteAllocate {
            self.run.read_block(&self.parts, block).await;
        }
        self.cache.borrow_mut().mark_present(block);
    }

    /// Ensures `block` is resident (waiting on a fill in progress, or
    /// filling it for `reason`), leaving it pinned.
    async fn ensure_block(&self, block: u64, reason: FillReason) {
        let costs = &self.run.config.costs;
        self.parts.cpu.use_for(costs.iop_cache_cpu).await;
        let lookup = self.cache.borrow_mut().lookup(block);
        match lookup {
            Lookup::Hit(Some(fill)) => fill.wait().await,
            Lookup::Hit(None) => {}
            Lookup::Miss => self.fill(block, reason).await,
        }
    }

    /// Feeds the demand read of `block` to the prefetch policy and starts a
    /// background fetch for every planned block that exists and is not
    /// already cached.
    fn maybe_prefetch(self: &Rc<Self>, block: u64) {
        let stride = self.run.config.n_disks as u64;
        let disk = self.run.layout.disk_of_block(block);
        let mut buf = self.prefetch_buf.borrow_mut();
        buf.clear();
        self.prefetcher
            .borrow_mut()
            .plan(disk, block, stride, &mut buf);
        for &next in buf.iter() {
            if next >= self.run.layout.n_blocks() || self.cache.borrow().contains(next) {
                continue;
            }
            let server = Rc::clone(self);
            self.background.add(1);
            self.run.ctx.spawn(async move {
                let costs = &server.run.config.costs;
                server.parts.cpu.use_for(costs.iop_cache_cpu).await;
                // Re-check: another request may have brought the block in
                // while we were charged for the cache access.
                if !server.cache.borrow().contains(next) {
                    server.fill(next, FillReason::Prefetch).await;
                    server.cache.borrow_mut().unpin(next);
                }
                server.background.signal();
            });
        }
    }

    /// Starts the watermark flush sweep if none is running: dirty blocks go
    /// to disk lowest-block-first until the cache is back at the low
    /// watermark (re-reading the dirty set each step, so writes that land
    /// mid-sweep extend it).
    fn start_flush_sweep(self: &Rc<Self>) {
        if self.sweeping.replace(true) {
            return;
        }
        let server = Rc::clone(self);
        self.background.add(1);
        self.run.ctx.spawn(async move {
            let low = WritePolicy::low_watermark(server.cache.borrow().capacity());
            while server.cache.borrow().dirty_count() > low {
                let lowest = server.cache.borrow().lowest_dirty();
                let (block, written) = lowest.expect("a dirty count above zero");
                server.flush_block(block, written.max(1)).await;
                // Subtract only the snapshot that was flushed: bytes written
                // into the block while the flush was in flight stay dirty
                // for a later sweep step or the end-of-transfer sync.
                server.cache.borrow_mut().complete_flush(block, written);
            }
            server.sweeping.set(false);
            server.background.signal();
        });
    }

    /// Handles one CP request, the paper's per-request IOP thread, called by
    /// the requesting CP; completes when the reply has landed.
    ///
    /// An `async move` block rather than an `async fn`: the future then
    /// holds each argument once, where an `async fn` keeps both the argument
    /// and its moved copy.
    #[expect(
        clippy::manual_async_fn,
        reason = "an async fn stores every argument twice"
    )]
    fn handle_request(
        self: &Rc<Self>,
        cp: usize,
        op: AccessKind,
        sub: SubRequest,
    ) -> impl Future<Output = ()> + '_ {
        async move {
            let costs = &self.run.config.costs;
            self.parts.cpu.use_for(costs.iop_dispatch_cpu).await;
            match op {
                AccessKind::Read => {
                    self.ensure_block(sub.block, FillReason::Demand).await;
                    self.maybe_prefetch(sub.block);
                }
                AccessKind::Write => {
                    self.ensure_block(sub.block, FillReason::WriteAllocate)
                        .await;
                    // Copy the arriving data into the cache buffer (the one
                    // memory-memory copy of the traditional path).
                    self.parts
                        .cpu
                        .use_for(costs.memcpy_time(sub.len as u64))
                        .await;
                    self.run.record_file_bytes(
                        sub.block * self.run.layout.block_bytes() + sub.offset as u64,
                        sub.len as u64,
                    );
                    let written = self
                        .cache
                        .borrow_mut()
                        .record_write(sub.block, sub.len as u64);
                    let (policy, dirty, capacity) = {
                        let c = self.cache.borrow();
                        (c.config().write, c.dirty_count(), c.capacity())
                    };
                    match policy.on_write(written, self.run.block_bytes(sub.block), dirty, capacity)
                    {
                        WriteAction::None => {}
                        WriteAction::FlushNow => {
                            // Write-through: this request's bytes reach the disk
                            // before the reply is composed. Only this request's
                            // `len` is flushed — a concurrent writer's bytes are
                            // its own flush's responsibility.
                            self.flush_block(sub.block, sub.len as u64).await;
                            self.cache
                                .borrow_mut()
                                .complete_flush(sub.block, sub.len as u64);
                        }
                        WriteAction::FlushBehind => {
                            // Write-behind: flush the now-full block in the
                            // background.
                            let server = Rc::clone(self);
                            let bytes = self.run.block_bytes(sub.block);
                            self.background.add(1);
                            self.run.ctx.spawn(async move {
                                server.flush_block(sub.block, bytes).await;
                                server.cache.borrow_mut().mark_clean(sub.block);
                                server.background.signal();
                            });
                        }
                        WriteAction::FlushDirty => self.start_flush_sweep(),
                    }
                }
            }
            self.parts.cpu.use_for(costs.iop_reply_cpu).await;
            self.cache.borrow_mut().unpin(sub.block);
            // A read reply carries the data.
            let data = match op {
                AccessKind::Read => sub.len as u64,
                AccessKind::Write => 0,
            };
            let bytes = costs.message_header_bytes + data;
            self.run
                .net
                .send(self.parts.node, self.run.config.cp_node(cp), bytes)
                .await;
        }
    }

    /// Handles an end-of-transfer sync: flush every remaining dirty block and
    /// wait for all background activity, then acknowledge; the
    /// acknowledgement's landing counts `done` down.
    async fn handle_sync(self: Rc<Self>, cp: usize, done: CountdownEvent) {
        // Flush partial blocks that never filled (possible when dirty blocks
        // were evicted mid-stream and re-written, or when the file's last
        // block is short).
        let remaining = self.cache.borrow().dirty_blocks();
        for (block, written) in remaining {
            self.flush_block(block, written.max(1)).await;
            self.cache.borrow_mut().mark_clean(block);
        }
        self.background.wait().await;
        // Every request has been served and all background work has drained:
        // publish this IOP's final cache counters for the report.
        self.run
            .publish_cache_stats(self.parts.iop, self.cache.borrow().stats());
        let bytes = self.run.config.costs.message_header_bytes;
        self.run
            .net
            .send(self.parts.node, self.run.config.cp_node(cp), bytes)
            .await;
        done.signal();
    }
}

/// Per-CP client state.
struct CpClient {
    parts: Rc<CpParts>,
    run: Rc<RunContext>,
    /// Every IOP's server, indexed by IOP number.
    servers: Rc<[Rc<IopServer>]>,
}

impl CpClient {
    /// Sends one sub-request to the owning IOP and runs its handler there,
    /// which ends when the reply lands (an `async move` block, like
    /// [`IopServer::handle_request`]).
    #[expect(
        clippy::manual_async_fn,
        reason = "an async fn stores every argument twice"
    )]
    fn do_request(&self, sub: SubRequest, op: AccessKind) -> impl Future<Output = ()> + '_ {
        async move {
            let costs = &self.run.config.costs;
            self.parts.cpu.use_for(costs.cp_request_cpu).await;
            let disk = self.run.layout.disk_of_block(sub.block);
            let iop = self.run.config.iop_of_disk(disk);
            // A write request carries the data.
            let data = match op {
                AccessKind::Read => 0,
                AccessKind::Write => sub.len as u64,
            };
            let bytes = costs.message_header_bytes + data;
            self.run
                .net
                .send(self.parts.node, self.run.config.iop_node(iop), bytes)
                .await;
            self.servers[iop]
                .handle_request(self.parts.cp, op, sub)
                .await;
            self.parts.cpu.use_for(costs.cp_mem_msg_cpu).await;
            // A read reply carries the requested bytes; a write reply none.
            let received = match op {
                AccessKind::Read => sub.len as u64,
                AccessKind::Write => 0,
            };
            self.run
                .record_cp_bytes(self.parts.cp, sub.mem_offset, received);
        }
    }
}

/// Spawns every task of a traditional-caching transfer.
///
/// `sched` is the transfer's scheduling policy. The drives themselves were
/// already spawned with it; here it additionally controls the baseline's
/// submission order: under [`SchedPolicy::Presort`] each CP sorts its
/// per-disk request stream by physical location (the baseline analog of the
/// disk-directed block-list presort), while the drive-level policies
/// (SSTF/CSCAN) leave the streams in request order and reorder at the drive.
///
/// `cache` is the policy composition every IOP's block cache runs
/// (replacement, prefetch, write-back); [`CacheConfig::DEFAULT`] is the
/// paper's design.
///
/// Each CP's application task signals `finished` as its last step.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_transfer(
    sim: &mut Sim,
    run: &Rc<RunContext>,
    cps: &[Rc<CpParts>],
    sched: SchedPolicy,
    cache: CacheConfig,
    finished: &CountdownEvent,
) {
    let config = &run.config;
    let ctx = sim.context();
    let op = if run.pattern.is_write() {
        AccessKind::Write
    } else {
        AccessKind::Read
    };

    // IOP servers.
    let servers: Rc<[Rc<IopServer>]> = run
        .iops
        .iter()
        .map(|iop_parts| {
            let cache_capacity = config.cache.capacity(config.n_cps, iop_parts.disks.len());
            Rc::new(IopServer {
                parts: Rc::clone(iop_parts),
                run: Rc::clone(run),
                cache: RefCell::new(BlockCache::with_config(cache_capacity, cache)),
                prefetcher: RefCell::new(Prefetcher::new(cache.prefetch)),
                prefetch_buf: RefCell::new(Vec::new()),
                sweeping: Cell::new(false),
                background: CountdownEvent::new(0),
            })
        })
        .collect();

    // CP clients and application workers.
    // The paper's barrier of the CPs using this file: a latch every CP
    // signals once.
    let issued = CountdownEvent::new(config.n_cps as u64);
    for cp_parts in cps {
        let client = Rc::new(CpClient {
            parts: Rc::clone(cp_parts),
            run: Rc::clone(run),
            servers: Rc::clone(&servers),
        });

        // Application worker.
        let run2 = Rc::clone(run);
        let issued = issued.clone();
        let finished = finished.clone();
        let worker_ctx = ctx.clone();
        let n_iops = config.n_iops;
        sim.spawn(async move {
            let mut subs = split_chunks(&run2, client.parts.cp);
            // "The CP sent concurrent requests to all the relevant IOPs, with
            // up to one outstanding request per disk per CP" (§4): requests
            // are grouped by disk in ascending disk order (a stable sort
            // keeps each disk's requests in request order), each disk's
            // stream proceeds one request at a time, and all streams run
            // concurrently.
            let layout = &run2.layout;
            if sched == SchedPolicy::Presort {
                // The baseline's presort: each disk stream is issued in
                // physical-location order instead of request order.
                subs.sort_by_key(|sub| {
                    let loc = layout.location(sub.block);
                    (loc.disk, loc.start_sector)
                });
            } else {
                subs.sort_by_key(|sub| layout.disk_of_block(sub.block));
            }
            let subs = Rc::new(subs);
            let inflight = CountdownEvent::new(0);
            let mut start = 0;
            while start < subs.len() {
                let disk = layout.disk_of_block(subs[start].block);
                let len = subs[start..]
                    .iter()
                    .take_while(|sub| layout.disk_of_block(sub.block) == disk)
                    .count();
                let stream = start..start + len;
                start = stream.end;
                inflight.add(1);
                let (client, subs) = (Rc::clone(&client), Rc::clone(&subs));
                let inflight2 = inflight.clone();
                worker_ctx.spawn(async move {
                    for &sub in &subs[stream] {
                        client.do_request(sub, op).await;
                    }
                    inflight2.signal();
                });
            }
            inflight.wait().await;

            // Wait for every CP to finish issuing its requests, then have the
            // last to arrive ask the IOPs to drain their background work so
            // the measured time includes outstanding write-behind and
            // prefetch requests.
            issued.signal();
            let last = issued.remaining() == 0;
            issued.wait().await;
            if last {
                let costs = &run2.config.costs;
                let synced = CountdownEvent::new(n_iops as u64);
                for (iop, server) in client.servers.iter().enumerate() {
                    client
                        .run
                        .net
                        .send(
                            client.parts.node,
                            run2.config.iop_node(iop),
                            costs.message_header_bytes,
                        )
                        .await;
                    worker_ctx
                        .spawn(Rc::clone(server).handle_sync(client.parts.cp, synced.clone()));
                }
                synced.wait().await;
            }
            finished.signal();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_one_block_read_costs_an_exact_number_of_events() {
        // One CP reads a one-block file from one disk: a single uncontended
        // request. Its handler runs inside it and the drive has no task; a
        // handler task whose reply opened a latch would add two events (its
        // first poll and the CP's wake), and a drive task two more (its
        // first poll and its wake by the request).
        let config = crate::MachineConfig {
            n_cps: 1,
            n_iops: 1,
            n_disks: 1,
            file_bytes: 8192,
            ..crate::MachineConfig::default()
        };
        let rb = ddio_patterns::AccessPattern::parse("rb").expect("a paper pattern");
        let outcome = crate::run_transfer(&config, crate::Method::TC, rb, 8192, 1994);
        assert_eq!((outcome.transferred_bytes, outcome.sim_events), (8192, 36));
    }

    #[test]
    fn request_futures_store_each_argument_once() {
        // The size of the future a function returns, read off its signature
        // without calling it.
        fn handler<A, B, C, D, F: std::future::Future>(_: fn(A, B, C, D) -> F) -> usize {
            std::mem::size_of::<F>()
        }
        fn request<A, B, C, F: std::future::Future>(_: fn(A, B, C) -> F) -> usize {
            std::mem::size_of::<F>()
        }
        // As `async fn`s, the handler (then with a latch) held 400 bytes and
        // the request 288: every argument twice. The request now awaits the
        // handler in place, so it holds the handler's future once beside
        // its own few words.
        let (handler, request) = (
            handler(IopServer::handle_request),
            request(CpClient::do_request),
        );
        assert!(
            handler <= 344 && request <= handler + 64,
            "request handler and CP request futures are {handler} and {request} bytes"
        );
    }
}
