//! Trace collection: the datasets of Fig. 4.
//!
//! The collector records one [`PacketRecord`] per *foreground* data
//! packet delivered to a receiver (the paper's fine-tuning datasets "do
//! not contain the cross-traffic packets, only those from the senders"),
//! plus one [`MessageRecord`] per completed message for the MCT task.

use crate::packet::{FlowId, MsgId, NodeId};

/// One delivered data packet, as a receiver-side observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Arrival time at the receiver (ns).
    pub recv_ns: u64,
    /// Time this copy left the sender (ns).
    pub sent_ns: u64,
    /// End-to-end one-way delay of the delivered copy (ns).
    pub delay_ns: u64,
    /// Wire size in bytes.
    pub size_bytes: u32,
    pub flow: FlowId,
    pub sender: NodeId,
    pub receiver: NodeId,
    /// Small dense receiver index — the paper's "receiver ID" feature
    /// (an IP-address proxy).
    pub receiver_group: u32,
    pub seq: u64,
    pub msg_id: MsgId,
    pub msg_size: u64,
    /// True if this packet is the last chunk of its message.
    pub msg_last: bool,
    /// True if the delivered copy was a retransmission.
    pub retransmit: bool,
}

/// One completed message (for message-completion-time prediction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageRecord {
    pub flow: FlowId,
    pub msg_id: MsgId,
    pub size_bytes: u64,
    /// When the application handed the message to the transport (ns).
    pub submitted_ns: u64,
    /// When the final chunk was delivered in order (ns).
    pub completed_ns: u64,
}

impl MessageRecord {
    /// Message completion time in nanoseconds.
    pub fn mct_ns(&self) -> u64 {
        self.completed_ns - self.submitted_ns
    }
}

/// Receiver-side trace accumulator.
#[derive(Default)]
pub struct TraceCollector {
    /// `record[flow]` — whether this flow's packets are traced
    /// (foreground senders yes, cross-traffic no).
    recorded: Vec<bool>,
    /// Dense receiver index per node (u32::MAX = not a traced receiver).
    receiver_group: Vec<u32>,
    pub packets: Vec<PacketRecord>,
    pub messages: Vec<MessageRecord>,
}

impl TraceCollector {
    pub fn new(n_flows: usize, n_nodes: usize) -> Self {
        TraceCollector {
            recorded: vec![false; n_flows],
            receiver_group: vec![u32::MAX; n_nodes],
            packets: Vec::new(),
            messages: Vec::new(),
        }
    }

    /// Mark a flow as foreground (traced).
    pub fn record_flow(&mut self, flow: FlowId) {
        if flow >= self.recorded.len() {
            self.recorded.resize(flow + 1, false);
        }
        self.recorded[flow] = true;
    }

    /// Assign the dense receiver index for a node.
    pub fn set_receiver_group(&mut self, node: NodeId, group: u32) {
        if node >= self.receiver_group.len() {
            self.receiver_group.resize(node + 1, u32::MAX);
        }
        self.receiver_group[node] = group;
    }

    /// Whether `flow` is traced.
    pub fn is_recorded(&self, flow: FlowId) -> bool {
        self.recorded.get(flow).copied().unwrap_or(false)
    }

    /// Dense receiver index of `node` (0 if unset — single-receiver
    /// topologies need no explicit assignment).
    pub fn group_of(&self, node: NodeId) -> u32 {
        match self.receiver_group.get(node).copied() {
            Some(g) if g != u32::MAX => g,
            _ => 0,
        }
    }

    /// Record a delivered foreground packet (no-op for untraced flows).
    pub fn on_packet(&mut self, rec: PacketRecord) {
        if self.is_recorded(rec.flow) {
            self.packets.push(rec);
        }
    }

    /// Record a completed foreground message.
    pub fn on_message(&mut self, rec: MessageRecord) {
        if self.is_recorded(rec.flow) {
            self.messages.push(rec);
        }
    }

    /// Mean delivered delay in seconds (diagnostic).
    pub fn mean_delay_secs(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        self.packets.iter().map(|p| p.delay_ns as f64).sum::<f64>()
            / self.packets.len() as f64
            / 1e9
    }

    /// Delay percentile in seconds (p in [0, 100]).
    pub fn delay_percentile_secs(&self, p: f64) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        let mut d: Vec<u64> = self.packets.iter().map(|r| r.delay_ns).collect();
        d.sort_unstable();
        let idx = ((p / 100.0) * (d.len() - 1) as f64).round() as usize;
        d[idx.min(d.len() - 1)] as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(flow: FlowId, delay_ns: u64) -> PacketRecord {
        PacketRecord {
            recv_ns: 1000 + delay_ns,
            sent_ns: 1000,
            delay_ns,
            size_bytes: 1500,
            flow,
            sender: 0,
            receiver: 1,
            receiver_group: 0,
            seq: 0,
            msg_id: 0,
            msg_size: 1500,
            msg_last: true,
            retransmit: false,
        }
    }

    #[test]
    fn only_recorded_flows_are_traced() {
        let mut t = TraceCollector::new(2, 2);
        t.record_flow(0);
        t.on_packet(rec(0, 10));
        t.on_packet(rec(1, 10)); // cross traffic: ignored
        assert_eq!(t.packets.len(), 1);
        assert!(t.is_recorded(0));
        assert!(!t.is_recorded(1));
    }

    #[test]
    fn message_records_compute_mct() {
        let m = MessageRecord {
            flow: 0,
            msg_id: 3,
            size_bytes: 5000,
            submitted_ns: 1_000,
            completed_ns: 51_000,
        };
        assert_eq!(m.mct_ns(), 50_000);
    }

    #[test]
    fn receiver_groups_default_to_zero() {
        let mut t = TraceCollector::new(1, 3);
        assert_eq!(t.group_of(2), 0);
        t.set_receiver_group(2, 5);
        assert_eq!(t.group_of(2), 5);
        assert_eq!(t.group_of(1), 0);
    }

    #[test]
    fn delay_statistics() {
        let mut t = TraceCollector::new(1, 1);
        t.record_flow(0);
        for d in [10_000_000u64, 20_000_000, 30_000_000] {
            t.on_packet(rec(0, d));
        }
        assert!((t.mean_delay_secs() - 0.02).abs() < 1e-9);
        assert!((t.delay_percentile_secs(0.0) - 0.01).abs() < 1e-9);
        assert!((t.delay_percentile_secs(100.0) - 0.03).abs() < 1e-9);
    }

    #[test]
    fn grows_for_late_registrations() {
        let mut t = TraceCollector::new(0, 0);
        t.record_flow(5);
        t.set_receiver_group(7, 2);
        assert!(t.is_recorded(5));
        assert_eq!(t.group_of(7), 2);
    }
}
