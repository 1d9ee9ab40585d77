//! Disk-directed I/O (the paper's contribution).
//!
//! Follows the pseudo-code of Figure 1c and the description in §4:
//!
//! * The CPs barrier, then one of them multicasts a single collective request
//!   to every IOP. Each of the paper's two barriers is a latch here: every CP
//!   signals it and waits on it, and the last to arrive is the CP that
//!   multicasts.
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
//! * The collective request starts its IOP's work where it lands: the CP
//!   whose send just returned spawns the IOP's collective task, which
//!   opens the CP's latch once its notification lands. A Memget carries the
//!   latch its reply opens on landing, so neither side keeps a table of
//!   outstanding requests.
//! * Memputs and Memgets are the only messages that queue at a node. Each
//!   lands in its CP's mailbox, and the first to find the CP idle starts
//!   the CP's message handler. The handler takes them one at a time, blocks
//!   on its sending NI while it answers a Memget, and ends once the mailbox
//!   is empty, so no CP task outlives the transfer.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;

use ddio_disk::SchedPolicy;
use ddio_patterns::{AccessKind, Chunk};
use ddio_sim::sync::CountdownEvent;
use ddio_sim::Sim;

use crate::machine::{CpParts, IopParts, RunContext};

/// A message that lands in a CP's mailbox during a disk-directed transfer.
#[derive(Debug)]
enum CpMessage {
    /// Data moved from IOP memory directly into CP memory.
    Memput {
        /// The piece of the file this data corresponds to.
        piece: Chunk,
    },
    /// An IOP asks the CP to send it a piece of data.
    Memget {
        /// The requesting IOP.
        iop: usize,
        /// The piece of the file being requested.
        piece: Chunk,
        /// Counted down by the landing of the reply carrying the data.
        done: CountdownEvent,
    },
}

/// Per-IOP state shared by the collective task and its buffer tasks.
struct IopServer {
    parts: Rc<IopParts>,
    run: Rc<RunContext>,
    /// Every CP, indexed by CP number: where Memputs and Memgets land.
    cps: Rc<[Rc<CpClient>]>,
}

impl IopServer {
    /// Posts `msg` to CP `cp` as `bytes` on the wire; its landing hands it
    /// to the CP.
    fn post_to_cp(&self, cp: usize, bytes: u64, msg: CpMessage) -> impl Future<Output = ()> + '_ {
        let client = Rc::clone(&self.cps[cp]);
        let to = self.run.config.cp_node(cp);
        let on_land = move || client.deliver(msg);
        self.run.net.post(self.parts.node, to, bytes, on_land)
    }

    /// Processes one block of a collective read: disk, bus, then Memputs to
    /// the owning CPs (an `async move` block, like `tc.rs`'s request
    /// handler, so the future holds each argument once).
    #[expect(
        clippy::manual_async_fn,
        reason = "an async fn stores every argument twice"
    )]
    fn read_block(&self, block: u64) -> impl Future<Output = ()> + '_ {
        async move {
            let costs = &self.run.config.costs;
            self.parts.cpu.use_for(costs.ddio_block_cpu).await;
            self.run.read_block(&self.parts, block).await;

            let (bstart, bend) = self.run.layout.block_byte_range(block);
            let pieces = self.run.pattern.pieces_in(bstart, bend - bstart);
            for piece in pieces {
                self.parts.cpu.use_for(costs.memput_cpu).await;
                // Fire-and-forget so Memputs to many CPs proceed concurrently.
                let bytes = costs.message_header_bytes + piece.bytes;
                let msg = CpMessage::Memput { piece };
                self.post_to_cp(piece.cp, bytes, msg).await;
            }
        }
    }

    /// Processes one block of a collective write: concurrent Memgets, then
    /// bus and disk (an `async move` block, like [`IopServer::read_block`]).
    #[expect(
        clippy::manual_async_fn,
        reason = "an async fn stores every argument twice"
    )]
    fn write_block(&self, block: u64) -> impl Future<Output = ()> + '_ {
        async move {
            let costs = &self.run.config.costs;
            self.parts.cpu.use_for(costs.ddio_block_cpu).await;

            let (bstart, bend) = self.run.layout.block_byte_range(block);
            let pieces = self.run.pattern.pieces_in(bstart, bend - bstart);
            let arrived = CountdownEvent::new(pieces.len() as u64);
            for piece in pieces {
                self.parts.cpu.use_for(costs.memget_cpu).await;
                let msg = CpMessage::Memget {
                    iop: self.parts.iop,
                    piece,
                    done: arrived.clone(),
                };
                self.post_to_cp(piece.cp, costs.message_header_bytes, msg)
                    .await;
            }
            arrived.wait().await;

            self.run
                .write_block(&self.parts, block, bend - bstart)
                .await;
            self.run.record_file_bytes(bstart, bend - bstart);
        }
    }

    /// Runs the whole collective operation on this IOP: build (and, under
    /// the presort policy, sort) each disk's block list, run the buffer
    /// tasks, then notify the requesting CP, whose landing counts `done`
    /// down.
    async fn run_collective(
        self: Rc<Self>,
        requesting_cp: usize,
        op: AccessKind,
        sched: SchedPolicy,
        done: CountdownEvent,
    ) {
        let costs = &self.run.config.costs;
        self.parts.cpu.use_for(costs.collective_setup_cpu).await;

        // Counts the running buffer tasks; each signals as its last step.
        let buffers = CountdownEvent::new(0);
        for disk in self.run.config.disks_of_iop(self.parts.iop) {
            let mut blocks: Vec<(u64, u64)> = self.run.layout.blocks_on_disk(disk);
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
                let buffers2 = buffers.clone();
                buffers.add(1);
                self.run.ctx.spawn(async move {
                    loop {
                        let block = queue.borrow_mut().pop_front();
                        let Some(block) = block else { break };
                        match op {
                            AccessKind::Read => server.read_block(block).await,
                            AccessKind::Write => server.write_block(block).await,
                        }
                    }
                    buffers2.signal();
                });
            }
        }
        buffers.wait().await;

        self.run
            .net
            .send(
                self.parts.node,
                self.run.config.cp_node(requesting_cp),
                costs.message_header_bytes,
            )
            .await;
        done.signal();
    }
}

/// Per-CP state for a disk-directed transfer.
struct CpClient {
    parts: Rc<CpParts>,
    run: Rc<RunContext>,
    /// Landed Memputs and Memgets the handler has not taken yet, in landing
    /// order.
    mailbox: RefCell<VecDeque<CpMessage>>,
    /// True while a handler task serves the mailbox.
    busy: Cell<bool>,
}

impl CpClient {
    /// Takes a landed Memput or Memget: queues it, and starts the CP's
    /// handler unless one is running.
    fn deliver(self: &Rc<Self>, msg: CpMessage) {
        self.mailbox.borrow_mut().push_back(msg);
        if !self.busy.replace(true) {
            self.run.ctx.spawn(Rc::clone(self).handle_mailbox());
        }
    }

    /// The CP's message handler: takes the mailbox's messages one at a time,
    /// absorbs Memputs and answers Memgets with the data, whose landing opens
    /// the Memget's latch. Ends when the mailbox is empty.
    async fn handle_mailbox(self: Rc<Self>) {
        let costs = &self.run.config.costs;
        loop {
            let msg = self.mailbox.borrow_mut().pop_front();
            let Some(msg) = msg else { break };
            self.parts.cpu.use_for(costs.cp_mem_msg_cpu).await;
            match msg {
                CpMessage::Memput { piece } => {
                    self.run
                        .record_cp_bytes(self.parts.cp, piece.mem_offset, piece.bytes);
                }
                CpMessage::Memget { iop, piece, done } => {
                    self.run
                        .record_cp_bytes(self.parts.cp, piece.mem_offset, piece.bytes);
                    self.run
                        .net
                        .post(
                            self.parts.node,
                            self.run.config.iop_node(iop),
                            costs.message_header_bytes + piece.bytes,
                            move || done.signal(),
                        )
                        .await;
                }
            }
        }
        self.busy.set(false);
    }
}

/// Spawns every task of a disk-directed transfer. Each CP's application
/// task signals `finished` as its last step.
pub(crate) fn spawn_transfer(
    sim: &mut Sim,
    run: &Rc<RunContext>,
    cps: &[Rc<CpParts>],
    sched: SchedPolicy,
    finished: &CountdownEvent,
) {
    let config = &run.config;
    let op = if run.pattern.is_write() {
        AccessKind::Write
    } else {
        AccessKind::Read
    };

    // CP clients, whose handlers the IOPs' messages start.
    let clients: Rc<[Rc<CpClient>]> = cps
        .iter()
        .map(|cp_parts| {
            Rc::new(CpClient {
                parts: Rc::clone(cp_parts),
                run: Rc::clone(run),
                mailbox: RefCell::new(VecDeque::new()),
                busy: Cell::new(false),
            })
        })
        .collect();

    // IOP servers, started by the collective request's landing.
    let servers: Rc<[Rc<IopServer>]> = run
        .iops
        .iter()
        .map(|iop_parts| {
            Rc::new(IopServer {
                parts: Rc::clone(iop_parts),
                run: Rc::clone(run),
                cps: Rc::clone(&clients),
            })
        })
        .collect();

    // CP application tasks. The paper's two barriers are two latches every
    // CP signals once.
    let ready = CountdownEvent::new(config.n_cps as u64);
    let done = CountdownEvent::new(config.n_cps as u64);
    for client in clients.iter() {
        let client = Rc::clone(client);
        let run2 = Rc::clone(run);
        let servers = Rc::clone(&servers);
        let (ready, done) = (ready.clone(), done.clone());
        let finished = finished.clone();
        let n_iops = config.n_iops;
        sim.spawn(async move {
            // First barrier: ensure every CP's buffers are ready before any
            // data can arrive.
            ready.signal();
            let last = ready.remaining() == 0;
            ready.wait().await;
            if last {
                // Any one CP (the last to arrive) multicasts the collective
                // request to all IOPs.
                let costs = &run2.config.costs;
                let iops_done = CountdownEvent::new(n_iops as u64);
                for (iop, server) in servers.iter().enumerate() {
                    client.parts.cpu.use_for(costs.cp_request_cpu).await;
                    client
                        .run
                        .net
                        .send(
                            client.parts.node,
                            run2.config.iop_node(iop),
                            costs.message_header_bytes,
                        )
                        .await;
                    run2.ctx.spawn(Rc::clone(server).run_collective(
                        client.parts.cp,
                        op,
                        sched,
                        iops_done.clone(),
                    ));
                }
                // Wait for all IOPs to report completion.
                iops_done.wait().await;
            }
            // Final barrier: all CPs wait for the transfer to complete.
            done.signal();
            done.wait().await;
            finished.signal();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_futures_store_each_argument_once() {
        // The size of the future a function returns, read off its signature
        // without calling it. As `async fn`s the read and write block
        // futures held 392 and 440 bytes: every argument twice.
        fn block<A, B, F: Future>(_: fn(A, B) -> F) -> usize {
            std::mem::size_of::<F>()
        }
        let (read, write) = (block(IopServer::read_block), block(IopServer::write_block));
        assert!(
            read <= 320 && write <= 368,
            "read and write block futures are {read} and {write} bytes"
        );
    }
}
