//! Messages exchanged between compute processors and I/O processors.

use ddio_patterns::{AccessKind, Chunk};
use ddio_sim::sync::CountdownEvent;

/// A file-system message. The wire size is computed by
/// [`FsMessage::payload_bytes`] plus the configured header size.
///
/// A request that expects an answer carries the latch its requester waits
/// on, and the answer hands it back: the receiving dispatcher signals the
/// latch it carries, so no node keeps a table routing replies to waiters.
#[derive(Debug, Clone)]
pub enum FsMessage {
    /// Traditional caching: a CP asks an IOP for part of one file block.
    /// Write requests carry the data with them.
    TcRequest {
        /// Issuing CP.
        cp: usize,
        /// Read or write.
        op: AccessKind,
        /// File block number.
        block: u64,
        /// Byte offset within the block.
        offset: u32,
        /// Length in bytes.
        len: u32,
        /// Signalled when the reply arrives.
        done: CountdownEvent,
    },
    /// Traditional caching: the IOP's reply. Read replies carry the data.
    TcReply {
        /// Read or write (determines whether data rode along).
        op: AccessKind,
        /// Length in bytes of the data (for reads).
        len: u32,
        /// The request's latch, handed back.
        done: CountdownEvent,
    },
    /// Traditional caching: a CP asks an IOP to finish all outstanding
    /// write-behind and prefetch activity (issued once per IOP at the end of
    /// the measured transfer, so "total transfer time includes waiting for
    /// all I/O to complete").
    TcSync {
        /// Issuing CP.
        cp: usize,
        /// Counted down once per IOP's acknowledgement.
        done: CountdownEvent,
    },
    /// Traditional caching: the IOP has drained all background activity.
    TcSyncDone {
        /// The sync's latch, handed back.
        done: CountdownEvent,
    },
    /// Disk-directed I/O: the collective request, multicast by one CP to all
    /// IOPs. The array distribution itself is shared configuration.
    CollectiveRequest {
        /// The CP that multicast the request (receives every IOP's `CollectiveDone`).
        cp: usize,
        /// Read or write.
        op: AccessKind,
        /// Counted down once per IOP's completion.
        done: CountdownEvent,
    },
    /// Disk-directed I/O: an IOP reports that it has finished its share.
    CollectiveDone {
        /// The collective request's latch, handed back.
        done: CountdownEvent,
    },
    /// Disk-directed I/O: data moved from IOP memory directly into CP memory.
    Memput {
        /// The piece of the file this data corresponds to.
        piece: Chunk,
    },
    /// Disk-directed I/O: an IOP asks a CP to send it a piece of data.
    Memget {
        /// The requesting IOP.
        iop: usize,
        /// The piece of the file being requested.
        piece: Chunk,
        /// Counted down once per piece of the block that arrives.
        done: CountdownEvent,
    },
    /// Disk-directed I/O: the CP's reply to a [`FsMessage::Memget`],
    /// carrying the data.
    MemgetReply {
        /// The piece of the file carried.
        piece: Chunk,
        /// The Memget's latch, handed back.
        done: CountdownEvent,
    },
    /// Open-loop serving: a CP asks the IOP owning a block to read and
    /// return it (always a read; the serving workload is read-only).
    ServeRequest {
        /// Issuing CP.
        cp: usize,
        /// File block number.
        block: u64,
        /// True if this request is the first of its batch's per-IOP group
        /// under disk-directed serving, and so pays the collective setup.
        setup: bool,
        /// Signalled when the reply arrives.
        done: CountdownEvent,
    },
    /// Open-loop serving: the IOP's reply, carrying the block's data.
    ServeReply {
        /// Bytes of data carried.
        len: u32,
        /// The request's latch, handed back.
        done: CountdownEvent,
    },
    /// Fault recovery: reconstruction data (a mirror copy, a surviving
    /// parity-group member, or a redirected write) shipped between the IOP
    /// owning the redundant copy and the IOP recovering the block. Carries
    /// the data; the receiver needs no routing — the recovering task awaits
    /// delivery through [`Network::send`](ddio_net::Network::send).
    Reconstructed {
        /// The file block being reconstructed.
        block: u64,
        /// Bytes of data carried.
        bytes: u64,
    },
}

impl FsMessage {
    /// Bytes of data (not counting the fixed header) this message carries on
    /// the wire.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            FsMessage::TcRequest { op, len, .. } => match op {
                AccessKind::Write => *len as u64,
                AccessKind::Read => 0,
            },
            FsMessage::TcReply { op, len, .. } => match op {
                AccessKind::Read => *len as u64,
                AccessKind::Write => 0,
            },
            FsMessage::Memput { piece } | FsMessage::MemgetReply { piece, .. } => piece.bytes,
            FsMessage::Reconstructed { bytes, .. } => *bytes,
            FsMessage::ServeReply { len, .. } => *len as u64,
            FsMessage::ServeRequest { .. }
            | FsMessage::TcSync { .. }
            | FsMessage::TcSyncDone { .. }
            | FsMessage::CollectiveRequest { .. }
            | FsMessage::CollectiveDone { .. }
            | FsMessage::Memget { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_rides_with_the_right_messages() {
        let done = CountdownEvent::new(1);
        let tc_request = |op| FsMessage::TcRequest {
            cp: 0,
            op,
            block: 0,
            offset: 0,
            len: 8192,
            done: done.clone(),
        };
        assert_eq!(tc_request(AccessKind::Read).payload_bytes(), 0);
        assert_eq!(tc_request(AccessKind::Write).payload_bytes(), 8192);
        let read_reply = FsMessage::TcReply {
            op: AccessKind::Read,
            len: 4096,
            done: done.clone(),
        };
        assert_eq!(read_reply.payload_bytes(), 4096);
        let piece = Chunk {
            cp: 3,
            file_offset: 0,
            bytes: 512,
            mem_offset: 0,
        };
        assert_eq!(FsMessage::Memput { piece }.payload_bytes(), 512);
        let memget = FsMessage::Memget {
            iop: 1,
            piece,
            done: done.clone(),
        };
        assert_eq!(memget.payload_bytes(), 0);
        let memget_reply = FsMessage::MemgetReply {
            piece,
            done: done.clone(),
        };
        assert_eq!(memget_reply.payload_bytes(), 512);
        let sync_ack = FsMessage::TcSyncDone { done: done.clone() };
        assert_eq!(sync_ack.payload_bytes(), 0);
        let serve_req = FsMessage::ServeRequest {
            cp: 0,
            block: 17,
            setup: true,
            done: done.clone(),
        };
        assert_eq!(serve_req.payload_bytes(), 0, "serving is read-only");
        let serve_reply = FsMessage::ServeReply { len: 8192, done };
        assert_eq!(serve_reply.payload_bytes(), 8192);
    }
}
