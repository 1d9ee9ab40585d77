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
//!   activity has drained (the CPs issue an explicit sync at the end).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use ddio_disk::SchedPolicy;
use ddio_patterns::AccessKind;
use ddio_sim::sync::{oneshot, Barrier, CountdownEvent};
use ddio_sim::{Sim, SimContext};

use crate::cache::{
    BlockCache, CacheConfig, FillReason, Lookup, Prefetcher, WriteAction, WritePolicy,
};
use crate::machine::{CpParts, Inbox, IopParts, RunContext};
use crate::msg::FsMessage;

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
    prefetcher: RefCell<Box<dyn Prefetcher>>,
    /// Reusable buffer the prefetcher plans into (no per-read allocation).
    prefetch_buf: RefCell<Vec<u64>>,
    /// True while a watermark flush sweep is running (at most one at a time).
    sweeping: Cell<bool>,
    /// Outstanding background work (prefetches and write-behind flushes):
    /// open while none is running.
    background: CountdownEvent,
}

impl IopServer {
    /// Reads `block` from its disk into an IOP cache buffer.
    async fn fetch_block(&self, block: u64) {
        self.run.read_block(&self.parts, block).await;
    }

    /// Writes `bytes` of `block` from the cache buffer back to its disk.
    async fn flush_block(&self, block: u64, bytes: u64) {
        self.cache.borrow_mut().note_flush();
        self.run.write_block(&self.parts, block, bytes).await;
    }

    /// Ensures `block` is resident (waiting on a fill in progress, or reading
    /// it from disk), leaving it pinned. `allocate_only` is used for writes,
    /// which need a buffer but not the old contents (the collective patterns
    /// always overwrite whole blocks by the end of the transfer).
    async fn ensure_block(&self, block: u64, allocate_only: bool) {
        let costs = self.run.config.costs;
        self.parts.cpu.use_for(costs.iop_cache_cpu).await;
        let lookup = self.cache.borrow_mut().lookup(block);
        match lookup {
            Lookup::Hit(entry) => {
                let fill = self.cache.borrow().fill_event(entry);
                if let Some(ev) = fill {
                    ev.wait().await;
                }
            }
            Lookup::Miss => {
                let reason = if allocate_only {
                    FillReason::WriteAllocate
                } else {
                    FillReason::Demand
                };
                let (_entry, evicted) = self.cache.borrow_mut().insert_filling(block, reason);
                if let Some(victim) = evicted {
                    if victim.dirty {
                        self.flush_block(victim.block, victim.written_bytes.max(1))
                            .await;
                    }
                }
                if !allocate_only {
                    self.fetch_block(block).await;
                }
                self.cache.borrow_mut().mark_present(block);
            }
        }
    }

    /// Feeds the demand read of `block` to the prefetch policy and starts a
    /// background fetch for every planned block that exists and is not
    /// already cached.
    fn maybe_prefetch(self: &Rc<Self>, ctx: &SimContext, block: u64) {
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
            ctx.spawn_detached(async move {
                let costs = server.run.config.costs;
                server.parts.cpu.use_for(costs.iop_cache_cpu).await;
                // Re-check: another request may have brought the block in
                // while we were charged for the cache access.
                if !server.cache.borrow().contains(next) {
                    let (_e, evicted) = server
                        .cache
                        .borrow_mut()
                        .insert_filling(next, FillReason::Prefetch);
                    if let Some(victim) = evicted {
                        if victim.dirty {
                            server
                                .flush_block(victim.block, victim.written_bytes.max(1))
                                .await;
                        }
                    }
                    server.fetch_block(next).await;
                    server.cache.borrow_mut().mark_present(next);
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
    fn start_flush_sweep(self: &Rc<Self>, ctx: &SimContext) {
        if self.sweeping.replace(true) {
            return;
        }
        let server = Rc::clone(self);
        self.background.add(1);
        ctx.spawn_detached(async move {
            let low = WritePolicy::low_watermark(server.cache.borrow().capacity());
            loop {
                let dirty = server.cache.borrow().dirty_blocks();
                if dirty.len() <= low {
                    break;
                }
                let (block, written) = dirty[0];
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

    /// Handles one CP request (runs as its own task, like the paper's
    /// per-request IOP threads).
    #[allow(clippy::too_many_arguments)] // mirrors the on-the-wire request fields
    async fn handle_request(
        self: Rc<Self>,
        ctx: SimContext,
        id: u64,
        cp: usize,
        op: AccessKind,
        block: u64,
        offset: u32,
        len: u32,
    ) {
        let costs = self.run.config.costs;
        self.parts.cpu.use_for(costs.iop_dispatch_cpu).await;
        match op {
            AccessKind::Read => {
                self.ensure_block(block, false).await;
                self.maybe_prefetch(&ctx, block);
            }
            AccessKind::Write => {
                self.ensure_block(block, true).await;
                // Copy the arriving data into the cache buffer (the one
                // memory-memory copy of the traditional path).
                self.parts.cpu.use_for(costs.memcpy_time(len as u64)).await;
                self.run.record_file_bytes(
                    block * self.run.layout.block_bytes() + offset as u64,
                    len as u64,
                );
                let written = self.cache.borrow_mut().record_write(block, len as u64);
                let policy = self.cache.borrow().config().write;
                let (dirty, capacity) = {
                    let c = self.cache.borrow();
                    (c.dirty_count(), c.capacity())
                };
                match policy.on_write(written, self.run.block_bytes(block), dirty, capacity) {
                    WriteAction::None => {}
                    WriteAction::FlushBlock if policy == WritePolicy::Through => {
                        // Write-through: this request's bytes reach the disk
                        // before the reply is composed. Only this request's
                        // `len` is flushed — a concurrent writer's bytes are
                        // its own flush's responsibility.
                        self.flush_block(block, len as u64).await;
                        self.cache.borrow_mut().complete_flush(block, len as u64);
                    }
                    WriteAction::FlushBlock => {
                        // Write-behind: flush the now-full block in the
                        // background.
                        let server = Rc::clone(&self);
                        let bytes = self.run.block_bytes(block);
                        self.background.add(1);
                        ctx.spawn_detached(async move {
                            server.flush_block(block, bytes).await;
                            server.cache.borrow_mut().mark_clean(block);
                            server.background.signal();
                        });
                    }
                    WriteAction::FlushDirty => self.start_flush_sweep(&ctx),
                }
            }
        }
        self.parts.cpu.use_for(costs.iop_reply_cpu).await;
        self.cache.borrow_mut().unpin(block);
        let reply = FsMessage::TcReply { id, op, len };
        let bytes = costs.message_header_bytes + reply.payload_bytes();
        self.run
            .net
            .send(self.parts.node, self.run.config.cp_node(cp), bytes, reply)
            .await;
    }

    /// Handles an end-of-transfer sync: flush every remaining dirty block and
    /// wait for all background activity, then acknowledge.
    async fn handle_sync(self: Rc<Self>, cp: usize) {
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
        let reply = FsMessage::TcSyncDone;
        let bytes = self.run.config.costs.message_header_bytes;
        self.run
            .net
            .send(self.parts.node, self.run.config.cp_node(cp), bytes, reply)
            .await;
    }
}

/// Per-CP client state: routes replies back to the request tasks.
struct CpClient {
    parts: Rc<CpParts>,
    run: Rc<RunContext>,
    pending: RefCell<HashMap<u64, oneshot::OneSender<FsMessage>>>,
    sync_done: RefCell<Option<CountdownEvent>>,
    next_id: std::cell::Cell<u64>,
}

impl CpClient {
    fn allocate_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// Sends one sub-request to the owning IOP and waits for the reply.
    async fn do_request(self: Rc<Self>, sub: SubRequest, op: AccessKind) {
        let costs = self.run.config.costs;
        let id = self.allocate_id();
        let (tx, rx) = oneshot::channel();
        self.pending.borrow_mut().insert(id, tx);

        self.parts.cpu.use_for(costs.cp_request_cpu).await;
        let disk = self.run.layout.disk_of_block(sub.block);
        let iop = self.run.config.iop_of_disk(disk);
        let request = FsMessage::TcRequest {
            id,
            cp: self.parts.cp,
            op,
            block: sub.block,
            offset: sub.offset,
            len: sub.len,
        };
        let bytes = costs.message_header_bytes + request.payload_bytes();
        self.run
            .net
            .send(
                self.parts.node,
                self.run.config.iop_node(iop),
                bytes,
                request,
            )
            .await;

        let reply = rx.await.expect("IOP dropped a request");
        self.parts.cpu.use_for(costs.cp_mem_msg_cpu).await;
        if let FsMessage::TcReply {
            op: AccessKind::Read,
            len,
            ..
        } = reply
        {
            self.run
                .record_cp_bytes(self.parts.cp, sub.mem_offset, len as u64);
        } else {
            self.run.record_cp_bytes(self.parts.cp, sub.mem_offset, 0);
        }
    }

    /// The CP's inbox dispatcher.
    async fn dispatch(self: Rc<Self>, inbox: Inbox) {
        while let Some(env) = inbox.recv().await {
            match env.payload {
                FsMessage::TcReply { id, .. } => {
                    if let Some(tx) = self.pending.borrow_mut().remove(&id) {
                        tx.send(env.payload);
                    }
                }
                FsMessage::TcSyncDone => {
                    if let Some(cd) = self.sync_done.borrow().as_ref() {
                        cd.signal();
                    }
                }
                other => panic!(
                    "CP {} received unexpected message under traditional caching: {other:?}",
                    self.parts.cp
                ),
            }
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
    ctx: &SimContext,
    run: &Rc<RunContext>,
    cps: &[Rc<CpParts>],
    iops: &[Rc<IopParts>],
    cp_inboxes: Vec<Inbox>,
    iop_inboxes: Vec<Inbox>,
    sched: SchedPolicy,
    cache: CacheConfig,
    finished: &CountdownEvent,
) {
    let config = &run.config;
    let op = if run.pattern.is_write() {
        AccessKind::Write
    } else {
        AccessKind::Read
    };

    // IOP servers.
    for (iop_parts, inbox) in iops.iter().zip(iop_inboxes) {
        let cache_capacity = config.cache.capacity(config.n_cps, iop_parts.disks.len());
        let server = Rc::new(IopServer {
            parts: Rc::clone(iop_parts),
            run: Rc::clone(run),
            cache: RefCell::new(BlockCache::with_config(cache_capacity, cache)),
            prefetcher: RefCell::new(cache.prefetch.prefetcher()),
            prefetch_buf: RefCell::new(Vec::new()),
            sweeping: Cell::new(false),
            background: CountdownEvent::new(0),
        });
        let server_ctx = ctx.clone();
        sim.spawn(async move {
            while let Some(env) = inbox.recv().await {
                match env.payload {
                    FsMessage::TcRequest {
                        id,
                        cp,
                        op,
                        block,
                        offset,
                        len,
                    } => {
                        let server = Rc::clone(&server);
                        let task_ctx = server_ctx.clone();
                        server_ctx.spawn_detached(async move {
                            server
                                .handle_request(task_ctx, id, cp, op, block, offset, len)
                                .await;
                        });
                    }
                    FsMessage::TcSync { cp } => {
                        let server = Rc::clone(&server);
                        server_ctx.spawn_detached(async move {
                            server.handle_sync(cp).await;
                        });
                    }
                    // Reconstruction data: the recovering task awaited the
                    // delivery itself; nothing to route.
                    FsMessage::Reconstructed { .. } => {}
                    other => panic!(
                        "IOP received unexpected message under traditional caching: {other:?}"
                    ),
                }
            }
        });
    }

    // CP clients and application workers.
    let barrier = Barrier::new(config.n_cps as u64);
    for (cp_parts, inbox) in cps.iter().zip(cp_inboxes) {
        let client = Rc::new(CpClient {
            parts: Rc::clone(cp_parts),
            run: Rc::clone(run),
            pending: RefCell::new(HashMap::new()),
            sync_done: RefCell::new(None),
            next_id: std::cell::Cell::new(0),
        });

        // Inbox dispatcher.
        {
            let client = Rc::clone(&client);
            sim.spawn(async move {
                client.dispatch(inbox).await;
            });
        }

        // Application worker.
        let run2 = Rc::clone(run);
        let barrier = barrier.clone();
        let finished = finished.clone();
        let worker_ctx = ctx.clone();
        let n_disks = config.n_disks;
        let n_iops = config.n_iops;
        sim.spawn(async move {
            let subs = split_chunks(&run2, client.parts.cp);
            // "The CP sent concurrent requests to all the relevant IOPs, with
            // up to one outstanding request per disk per CP" (§4): requests
            // are grouped by disk, each disk's stream proceeds one request at
            // a time, and all streams run concurrently.
            let mut per_disk: Vec<Vec<SubRequest>> = vec![Vec::new(); n_disks];
            for sub in subs {
                per_disk[run2.layout.disk_of_block(sub.block)].push(sub);
            }
            if sched == SchedPolicy::Presort {
                // The baseline's presort: each disk stream is issued in
                // physical-location order instead of request order.
                for stream in &mut per_disk {
                    stream.sort_by_key(|sub| run2.layout.location(sub.block).start_sector);
                }
            }
            let inflight = CountdownEvent::new(0);
            for stream in per_disk {
                if stream.is_empty() {
                    continue;
                }
                inflight.add(1);
                let client = Rc::clone(&client);
                let inflight2 = inflight.clone();
                worker_ctx.spawn_detached(async move {
                    for sub in stream {
                        Rc::clone(&client).do_request(sub, op).await;
                    }
                    inflight2.signal();
                });
            }
            inflight.wait().await;

            // Wait for every CP to finish issuing its requests, then have one
            // CP ask the IOPs to drain their background work so the measured
            // time includes outstanding write-behind and prefetch requests.
            let result = barrier.wait().await;
            if result.is_leader() {
                let costs = run2.config.costs;
                let countdown = CountdownEvent::new(n_iops as u64);
                *client.sync_done.borrow_mut() = Some(countdown.clone());
                for iop in 0..n_iops {
                    let msg = FsMessage::TcSync {
                        cp: client.parts.cp,
                    };
                    client
                        .run
                        .net
                        .send(
                            client.parts.node,
                            run2.config.iop_node(iop),
                            costs.message_header_bytes,
                            msg,
                        )
                        .await;
                }
                countdown.wait().await;
            }
            finished.signal();
        });
    }
}
