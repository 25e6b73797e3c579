//! Packets and the identifiers that tie the simulator together.

use crate::time::SimTime;

/// Index of a node (host or switch) in the simulator arena.
pub type NodeId = usize;
/// Index of a unidirectional link in the simulator arena.
pub type LinkId = usize;
/// Index of a transport flow in the simulator arena.
pub type FlowId = usize;
/// Index of an application in the simulator arena.
pub type AppId = usize;
/// Per-flow message counter.
pub type MsgId = u64;

/// Payload-bearing vs acknowledgment packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Carries `seq` and application payload bytes.
    Data,
    /// Carries `ack` = next expected sequence number (cumulative).
    Ack,
}

/// A simulated packet. Packet-granularity sequence numbers: one `seq`
/// per MSS-sized chunk (ns-3-style simplification; byte-level sequence
/// space is deliberately not modelled).
#[derive(Debug, Clone)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    pub kind: PacketKind,
    /// Data: this packet's sequence number. Ack: unused (0).
    pub seq: u64,
    /// Ack: cumulative acknowledgment (next expected seq). Data: unused.
    pub ack: u64,
    /// Bytes on the wire (payload + fixed header for data, header only
    /// for ACKs).
    pub size_bytes: u32,
    pub src: NodeId,
    pub dst: NodeId,
    /// Time this copy was first placed on the sender's egress queue.
    /// Retransmissions get a fresh timestamp.
    pub sent_at: SimTime,
    /// True if this copy is a retransmission (excluded from RTT sampling
    /// per Karn's algorithm).
    pub retransmit: bool,
    /// Message this chunk belongs to.
    pub msg_id: MsgId,
    /// Total size of that message in bytes.
    pub msg_size: u64,
    /// True for the final chunk of its message.
    pub msg_last: bool,
    /// When the application submitted the owning message (travels with
    /// the packet so the receiver can compute message completion times).
    pub msg_submitted: SimTime,
}

/// Fixed per-packet header overhead (rough Ethernet+IP+TCP).
pub const HEADER_BYTES: u32 = 54;
/// ACK wire size.
pub const ACK_BYTES: u32 = 54;
/// Maximum segment size: payload bytes per data packet.
pub const MSS: u32 = 1446;

impl Packet {
    /// A data packet carrying `payload` bytes.
    #[allow(clippy::too_many_arguments)] // flat constructor mirrors the on-wire record layout
    pub fn data(
        flow: FlowId,
        seq: u64,
        payload: u32,
        src: NodeId,
        dst: NodeId,
        msg_id: MsgId,
        msg_size: u64,
        msg_last: bool,
    ) -> Self {
        assert!(
            payload > 0 && payload <= MSS,
            "payload {payload} out of range"
        );
        Packet {
            flow,
            kind: PacketKind::Data,
            seq,
            ack: 0,
            size_bytes: payload + HEADER_BYTES,
            src,
            dst,
            sent_at: SimTime::ZERO,
            retransmit: false,
            msg_id,
            msg_size,
            msg_last,
            msg_submitted: SimTime::ZERO,
        }
    }

    /// An acknowledgment for `flow`, flowing `src -> dst` (receiver to
    /// sender), acknowledging everything below `ack`.
    pub fn ack(flow: FlowId, ack: u64, src: NodeId, dst: NodeId) -> Self {
        Packet {
            flow,
            kind: PacketKind::Ack,
            seq: 0,
            ack,
            size_bytes: ACK_BYTES,
            src,
            dst,
            sent_at: SimTime::ZERO,
            retransmit: false,
            msg_id: 0,
            msg_size: 0,
            msg_last: false,
            msg_submitted: SimTime::ZERO,
        }
    }

    /// Payload bytes carried (0 for ACKs).
    pub fn payload_bytes(&self) -> u32 {
        match self.kind {
            PacketKind::Data => self.size_bytes - HEADER_BYTES,
            PacketKind::Ack => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_accounts_header() {
        let p = Packet::data(0, 7, MSS, 1, 2, 3, 9000, false);
        assert_eq!(p.size_bytes, MSS + HEADER_BYTES);
        assert_eq!(p.payload_bytes(), MSS);
        assert_eq!(p.kind, PacketKind::Data);
        assert_eq!(p.seq, 7);
    }

    #[test]
    fn ack_packet_is_header_only() {
        let a = Packet::ack(0, 42, 2, 1);
        assert_eq!(a.size_bytes, ACK_BYTES);
        assert_eq!(a.payload_bytes(), 0);
        assert_eq!(a.ack, 42);
        assert_eq!(a.kind, PacketKind::Ack);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_oversized_payload() {
        Packet::data(0, 0, MSS + 1, 0, 1, 0, 0, false);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_empty_payload() {
        Packet::data(0, 0, 0, 0, 1, 0, 0, false);
    }
}
