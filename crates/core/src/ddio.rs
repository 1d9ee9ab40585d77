//! Disk-directed I/O (the paper's contribution).
//!
//! Follows the pseudo-code of Figure 1c and the description in §4:
//!
//! * The CPs barrier, then one of them multicasts a single collective request
//!   to every IOP.
//! * Each IOP determines which of the file's blocks live on its disks, sorts
//!   the list by physical location when the scheduling policy is
//!   [`SchedPolicy::Presort`] (the paper's sorted variant; other policies
//!   leave the list unsorted and let the drive's own scheduler reorder), and
//!   runs two buffer tasks per disk that keep the drive continuously busy
//!   (double-buffering).
//! * For reads, each block's contents are routed directly into the right CP
//!   memories with Memput messages; for writes, the IOP issues concurrent
//!   Memgets and the CPs reply with the data, which then goes to disk.
//! * When an IOP finishes its share it notifies the requesting CP; the CPs
//!   barrier once more and the transfer is complete.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use ddio_disk::SchedPolicy;
use ddio_patterns::AccessKind;
use ddio_sim::sync::{Barrier, CountdownEvent};
use ddio_sim::{join_all, Sim, SimContext};

use crate::machine::{CpParts, Inbox, IopParts, RunContext};
use crate::msg::FsMessage;

/// Per-IOP state shared between the dispatcher and the buffer tasks.
struct IopServer {
    parts: Rc<IopParts>,
    run: Rc<RunContext>,
    /// Routes Memget replies back to the waiting buffer task.
    pending_gets: RefCell<HashMap<u64, CountdownEvent>>,
    next_get_id: Cell<u64>,
}

impl IopServer {
    /// Processes one block of a collective read: disk, bus, then Memputs to
    /// the owning CPs.
    async fn read_block(&self, block: u64) {
        let costs = self.run.config.costs;
        self.parts.cpu.use_for(costs.ddio_block_cpu).await;
        self.run.read_block(&self.parts, block).await;

        let (bstart, bend) = self.run.layout.block_byte_range(block);
        let pieces = self.run.pattern.pieces_in(bstart, bend - bstart);
        for piece in pieces {
            self.parts.cpu.use_for(costs.memput_cpu).await;
            let msg = FsMessage::Memput { piece };
            let bytes = costs.message_header_bytes + msg.payload_bytes();
            // Fire-and-forget so Memputs to many CPs proceed concurrently.
            self.run
                .net
                .post(
                    self.parts.node,
                    self.run.config.cp_node(piece.cp),
                    bytes,
                    msg,
                )
                .await;
        }
    }

    /// Processes one block of a collective write: concurrent Memgets, then
    /// bus and disk.
    async fn write_block(&self, block: u64) {
        let costs = self.run.config.costs;
        self.parts.cpu.use_for(costs.ddio_block_cpu).await;

        let (bstart, bend) = self.run.layout.block_byte_range(block);
        let pieces = self.run.pattern.pieces_in(bstart, bend - bstart);
        let arrived = CountdownEvent::new(pieces.len() as u64);
        for piece in pieces {
            self.parts.cpu.use_for(costs.memget_cpu).await;
            let id = self.next_get_id.get();
            self.next_get_id.set(id + 1);
            self.pending_gets.borrow_mut().insert(id, arrived.clone());
            let msg = FsMessage::Memget {
                id,
                iop: self.parts.iop,
                piece,
            };
            let bytes = costs.message_header_bytes + msg.payload_bytes();
            self.run
                .net
                .post(
                    self.parts.node,
                    self.run.config.cp_node(piece.cp),
                    bytes,
                    msg,
                )
                .await;
        }
        arrived.wait().await;

        self.run
            .write_block(&self.parts, block, bend - bstart)
            .await;
        self.run.record_file_bytes(bstart, bend - bstart);
    }

    /// Runs the whole collective operation on this IOP: build (and, under
    /// the presort policy, sort) each disk's block list, run the buffer
    /// tasks, then notify the requesting CP.
    async fn run_collective(
        self: Rc<Self>,
        ctx: SimContext,
        requesting_cp: usize,
        op: AccessKind,
        sched: SchedPolicy,
    ) {
        let costs = self.run.config.costs;
        self.parts.cpu.use_for(costs.collective_setup_cpu).await;

        let mut buffer_tasks = Vec::new();
        for (disk, _) in &self.parts.disks {
            let mut blocks: Vec<(u64, u64)> = self.run.layout.blocks_on_disk(*disk);
            if sched == SchedPolicy::Presort {
                // Sort by physical location to minimize arm movement.
                blocks.sort_by_key(|&(_, sector)| sector);
            }
            let queue: Rc<RefCell<VecDeque<u64>>> = Rc::new(RefCell::new(
                blocks.into_iter().map(|(block, _)| block).collect(),
            ));
            for _ in 0..self.run.config.ddio_buffers_per_disk {
                let server = Rc::clone(&self);
                let queue = Rc::clone(&queue);
                buffer_tasks.push(ctx.spawn(async move {
                    loop {
                        let block = queue.borrow_mut().pop_front();
                        let Some(block) = block else { break };
                        match op {
                            AccessKind::Read => server.read_block(block).await,
                            AccessKind::Write => server.write_block(block).await,
                        }
                    }
                }));
            }
        }
        join_all(buffer_tasks).await;

        let msg = FsMessage::CollectiveDone {
            iop: self.parts.iop,
        };
        self.run
            .net
            .send(
                self.parts.node,
                self.run.config.cp_node(requesting_cp),
                costs.message_header_bytes,
                msg,
            )
            .await;
    }
}

/// Per-CP state for a disk-directed transfer.
struct CpClient {
    parts: Rc<CpParts>,
    run: Rc<RunContext>,
    /// Set when this CP is the one that multicast the request; counts
    /// CollectiveDone messages.
    completions: RefCell<Option<CountdownEvent>>,
}

impl CpClient {
    /// The CP's inbox dispatcher: absorbs Memputs, answers Memgets, counts
    /// completions.
    async fn dispatch(self: Rc<Self>, inbox: Inbox) {
        let costs = self.run.config.costs;
        while let Some(env) = inbox.recv().await {
            match env.payload {
                FsMessage::Memput { piece } => {
                    self.parts.cpu.use_for(costs.cp_mem_msg_cpu).await;
                    self.run
                        .record_cp_bytes(self.parts.cp, piece.mem_offset, piece.bytes);
                }
                FsMessage::Memget { id, iop, piece } => {
                    self.parts.cpu.use_for(costs.cp_mem_msg_cpu).await;
                    let reply = FsMessage::MemgetReply { id, piece };
                    let bytes = costs.message_header_bytes + reply.payload_bytes();
                    self.run
                        .record_cp_bytes(self.parts.cp, piece.mem_offset, piece.bytes);
                    self.run
                        .net
                        .post(self.parts.node, self.run.config.iop_node(iop), bytes, reply)
                        .await;
                }
                FsMessage::CollectiveDone { .. } => {
                    if let Some(cd) = self.completions.borrow().as_ref() {
                        cd.signal();
                    } else {
                        panic!(
                            "CP {} received CollectiveDone but did not issue the request",
                            self.parts.cp
                        );
                    }
                }
                other => panic!(
                    "CP {} received unexpected message under disk-directed I/O: {other:?}",
                    self.parts.cp
                ),
            }
        }
    }
}

/// Spawns every task of a disk-directed transfer. Each CP's application
/// task signals `finished` as its last step.
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
    finished: &CountdownEvent,
) {
    let config = &run.config;
    let op = if run.pattern.is_write() {
        AccessKind::Write
    } else {
        AccessKind::Read
    };

    // IOP dispatchers.
    for (iop_parts, inbox) in iops.iter().zip(iop_inboxes) {
        let server = Rc::new(IopServer {
            parts: Rc::clone(iop_parts),
            run: Rc::clone(run),
            pending_gets: RefCell::new(HashMap::new()),
            next_get_id: Cell::new(0),
        });
        let server_ctx = ctx.clone();
        sim.spawn(async move {
            while let Some(env) = inbox.recv().await {
                match env.payload {
                    FsMessage::CollectiveRequest { cp, op } => {
                        let server = Rc::clone(&server);
                        let task_ctx = server_ctx.clone();
                        server_ctx.spawn_detached(async move {
                            server.run_collective(task_ctx, cp, op, sched).await;
                        });
                    }
                    // Reconstruction data: the recovering task awaited the
                    // delivery itself; nothing to route.
                    FsMessage::Reconstructed { .. } => {}
                    FsMessage::MemgetReply { id, .. } => {
                        let waiter = server.pending_gets.borrow_mut().remove(&id);
                        match waiter {
                            Some(cd) => cd.signal(),
                            None => panic!("IOP received MemgetReply for unknown id {id}"),
                        }
                    }
                    other => {
                        panic!("IOP received unexpected message under disk-directed I/O: {other:?}")
                    }
                }
            }
        });
    }

    // CP dispatchers and application tasks.
    let barrier = Barrier::new(config.n_cps as u64);
    for (cp_parts, inbox) in cps.iter().zip(cp_inboxes) {
        let client = Rc::new(CpClient {
            parts: Rc::clone(cp_parts),
            run: Rc::clone(run),
            completions: RefCell::new(None),
        });
        {
            let client = Rc::clone(&client);
            sim.spawn(async move {
                client.dispatch(inbox).await;
            });
        }

        let run2 = Rc::clone(run);
        let barrier = barrier.clone();
        let finished = finished.clone();
        let n_iops = config.n_iops;
        sim.spawn(async move {
            // Barrier: ensure every CP's buffers are ready before any data
            // can arrive.
            let result = barrier.wait().await;
            if result.is_leader() {
                // Any one CP multicasts the collective request to all IOPs.
                let costs = run2.config.costs;
                let countdown = CountdownEvent::new(n_iops as u64);
                *client.completions.borrow_mut() = Some(countdown.clone());
                for iop in 0..n_iops {
                    client.parts.cpu.use_for(costs.cp_request_cpu).await;
                    let msg = FsMessage::CollectiveRequest {
                        cp: client.parts.cp,
                        op,
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
                // Wait for all IOPs to report completion.
                countdown.wait().await;
            }
            // Final barrier: all CPs wait for the transfer to complete.
            barrier.wait().await;
            finished.signal();
        });
    }
}
