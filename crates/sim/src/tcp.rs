//! Simplified TCP Reno, as an explicit state machine.
//!
//! Implements the mechanisms the paper's dynamics depend on — window-based
//! congestion control (slow start + AIMD), cumulative ACKs, duplicate-ACK
//! fast retransmit, and RTO with Karn's rule and exponential backoff —
//! at packet granularity (one sequence number per MSS chunk).
//!
//! Omitted — this models the congestion dynamics above, not a complete
//! TCP: SACK, byte-level sequence space, full Reno fast-recovery window
//! inflation, delayed ACKs, Nagle, window scaling.
//!
//! Following the smoltcp philosophy, the flow never touches the network:
//! every entry point is a pure state transition returning the packets to
//! transmit and the timer to arm. The simulator owns scheduling.

use crate::packet::{FlowId, MsgId, NodeId, Packet, PacketKind, MSS};
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Transport tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Initial congestion window (packets).
    pub init_cwnd: f64,
    /// Initial slow-start threshold (packets).
    pub init_ssthresh: f64,
    /// RTO before any RTT sample exists.
    pub rto_init: SimTime,
    pub rto_min: SimTime,
    pub rto_max: SimTime,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            init_cwnd: 2.0,
            init_ssthresh: 64.0,
            rto_init: SimTime::from_millis(200),
            rto_min: SimTime::from_millis(10),
            rto_max: SimTime::from_secs(4),
        }
    }
}

/// An MSS-or-smaller application chunk awaiting or in transmission.
#[derive(Debug, Clone)]
pub struct Chunk {
    pub payload: u32,
    pub msg_id: MsgId,
    pub msg_size: u64,
    pub msg_last: bool,
    /// When the application submitted the owning message.
    pub submitted: SimTime,
}

#[derive(Debug, Clone)]
struct Sent {
    chunk: Chunk,
    last_sent: SimTime,
    retransmitted: bool,
}

/// Request to (re)arm the retransmission timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerArm {
    pub delay: SimTime,
    pub epoch: u64,
}

/// Sender-side result: packets to hand to routing + timer action.
#[derive(Debug, Default)]
pub struct SendResult {
    pub packets: Vec<Packet>,
    pub timer: Option<TimerArm>,
}

/// A message that finished delivering in order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedMsg {
    pub msg_id: MsgId,
    pub msg_size: u64,
    pub submitted: SimTime,
}

/// Receiver-side result of processing one data packet.
#[derive(Debug)]
pub struct RecvResult {
    /// Cumulative acknowledgment to send back.
    pub ack: Packet,
    /// True if this packet's sequence number was seen for the first time
    /// (the simulator traces it in that case).
    pub newly_received: bool,
    /// Messages completed by this arrival (in-order delivery of their
    /// final chunk).
    pub completed: Vec<CompletedMsg>,
}

/// Counters for experiments and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowStats {
    pub packets_sent: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub fast_retransmits: u64,
    pub packets_delivered: u64,
    pub msgs_submitted: u64,
    pub msgs_completed: u64,
}

/// One bidirectional transport association (sender state toward `dst`,
/// receiver state at `dst`). Data flows `src -> dst`; ACKs flow back.
pub struct TcpFlow {
    pub id: FlowId,
    pub src: NodeId,
    pub dst: NodeId,
    cfg: TcpConfig,

    // ---- sender ----
    snd_next: u64,
    snd_una: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    backlog: VecDeque<Chunk>,
    in_flight: VecDeque<Sent>,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimTime,
    timer_epoch: u64,
    next_msg_id: MsgId,

    // ---- receiver ----
    rcv_next: u64,
    ooo: BTreeMap<u64, Chunk>,

    pub stats: FlowStats,
}

impl TcpFlow {
    pub fn new(id: FlowId, src: NodeId, dst: NodeId, cfg: TcpConfig) -> Self {
        TcpFlow {
            id,
            src,
            dst,
            cfg,
            snd_next: 0,
            snd_una: 0,
            cwnd: cfg.init_cwnd,
            ssthresh: cfg.init_ssthresh,
            dup_acks: 0,
            backlog: VecDeque::new(),
            in_flight: VecDeque::new(),
            srtt: None,
            rttvar: 0.0,
            rto: cfg.rto_init,
            timer_epoch: 0,
            next_msg_id: 0,
            rcv_next: 0,
            ooo: BTreeMap::new(),
            stats: FlowStats::default(),
        }
    }

    /// Congestion window in packets.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Packets sent but not yet cumulatively acknowledged.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Application chunks waiting for window space.
    pub fn backlog_chunks(&self) -> usize {
        self.backlog.len()
    }

    /// Smoothed RTT estimate in seconds, if sampled yet.
    pub fn srtt_secs(&self) -> Option<f64> {
        self.srtt
    }

    /// Next sequence number the receiver expects (test/diagnostic).
    pub fn rcv_next(&self) -> u64 {
        self.rcv_next
    }

    /// True when nothing is queued or unacknowledged.
    pub fn idle(&self) -> bool {
        self.backlog.is_empty() && self.in_flight.is_empty()
    }

    // ------------------------------------------------------------------
    // Sender side
    // ------------------------------------------------------------------

    /// Application submits a message of `size_bytes`; it is chunked into
    /// MSS segments and transmission starts as the window allows.
    /// Returns the assigned message id and the send actions.
    pub fn app_submit(&mut self, now: SimTime, size_bytes: u64) -> (MsgId, SendResult) {
        assert!(size_bytes > 0, "empty message");
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        self.stats.msgs_submitted += 1;
        let mut remaining = size_bytes;
        while remaining > 0 {
            let payload = remaining.min(MSS as u64) as u32;
            remaining -= payload as u64;
            self.backlog.push_back(Chunk {
                payload,
                msg_id,
                msg_size: size_bytes,
                msg_last: remaining == 0,
                submitted: now,
            });
        }
        (msg_id, self.pump(now))
    }

    /// Process a cumulative acknowledgment.
    pub fn on_ack(&mut self, now: SimTime, ack: u64) -> SendResult {
        if ack > self.snd_next {
            // Acknowledging unsent data would be a simulator bug.
            panic!(
                "flow {}: ack {ack} beyond snd_next {}",
                self.id, self.snd_next
            );
        }
        if ack > self.snd_una {
            let newly = (ack - self.snd_una) as usize;
            // RTT sample from the oldest acked segment (Karn: skip if it
            // was ever retransmitted).
            if let Some(front) = self.in_flight.front() {
                if !front.retransmitted {
                    let sample = now.saturating_since(front.last_sent).as_secs_f64();
                    self.update_rtt(sample);
                }
            }
            for _ in 0..newly.min(self.in_flight.len()) {
                self.in_flight.pop_front();
            }
            self.snd_una = ack;
            self.dup_acks = 0;
            // Window growth: slow start below ssthresh, else AIMD.
            for _ in 0..newly {
                if self.cwnd < self.ssthresh {
                    self.cwnd += 1.0;
                } else {
                    self.cwnd += 1.0 / self.cwnd;
                }
            }
            return self.pump(now);
        }
        // Duplicate ACK (only meaningful while data is outstanding).
        if !self.in_flight.is_empty() && ack == self.snd_una {
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                self.stats.fast_retransmits += 1;
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                return self.retransmit_front(now);
            }
        }
        SendResult::default()
    }

    /// Retransmission-timer expiry. Stale epochs are ignored.
    pub fn on_rto(&mut self, now: SimTime, epoch: u64) -> SendResult {
        if epoch != self.timer_epoch || self.in_flight.is_empty() {
            return SendResult::default();
        }
        self.stats.timeouts += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dup_acks = 0;
        // Exponential backoff, clamped.
        self.rto = self.rto.mul_f64(2.0).min(self.cfg.rto_max);
        self.retransmit_front(now)
    }

    fn retransmit_front(&mut self, now: SimTime) -> SendResult {
        let seq = self.snd_una;
        let chunk = {
            let front = self
                .in_flight
                .front_mut()
                .expect("retransmit with empty in-flight");
            front.retransmitted = true;
            front.last_sent = now;
            front.chunk.clone()
        };
        let mut pkt = self.make_packet(seq, &chunk, now);
        pkt.retransmit = true;
        self.stats.retransmits += 1;
        self.stats.packets_sent += 1;
        SendResult {
            packets: vec![pkt],
            timer: Some(self.arm_timer()),
        }
    }

    /// Send as much backlog as the window allows.
    fn pump(&mut self, now: SimTime) -> SendResult {
        let mut packets = Vec::new();
        let window = self.cwnd.floor().max(1.0) as usize;
        while self.in_flight.len() < window {
            let Some(chunk) = self.backlog.pop_front() else {
                break;
            };
            let seq = self.snd_next;
            self.snd_next += 1;
            let pkt = self.make_packet(seq, &chunk, now);
            self.in_flight.push_back(Sent {
                chunk,
                last_sent: now,
                retransmitted: false,
            });
            self.stats.packets_sent += 1;
            packets.push(pkt);
        }
        let timer = if self.in_flight.is_empty() {
            // Nothing outstanding: invalidate any pending timer.
            self.timer_epoch += 1;
            None
        } else if packets.is_empty() {
            None
        } else {
            Some(self.arm_timer())
        };
        SendResult { packets, timer }
    }

    fn arm_timer(&mut self) -> TimerArm {
        self.timer_epoch += 1;
        TimerArm {
            delay: self.rto,
            epoch: self.timer_epoch,
        }
    }

    fn make_packet(&self, seq: u64, chunk: &Chunk, now: SimTime) -> Packet {
        let mut p = Packet::data(
            self.id,
            seq,
            chunk.payload,
            self.src,
            self.dst,
            chunk.msg_id,
            chunk.msg_size,
            chunk.msg_last,
        );
        p.sent_at = now;
        p.msg_submitted = chunk.submitted;
        p
    }

    fn update_rtt(&mut self, sample: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * sample);
            }
        }
        let rto = SimTime::from_secs_f64(self.srtt.unwrap() + 4.0 * self.rttvar);
        self.rto = rto.max(self.cfg.rto_min).min(self.cfg.rto_max);
    }

    // ------------------------------------------------------------------
    // Receiver side
    // ------------------------------------------------------------------

    /// Process an arriving data packet at the receiver.
    pub fn on_data(&mut self, pkt: &Packet) -> RecvResult {
        assert_eq!(pkt.kind, PacketKind::Data);
        assert_eq!(pkt.flow, self.id);
        let mut completed = Vec::new();
        let newly_received = if pkt.seq < self.rcv_next || self.ooo.contains_key(&pkt.seq) {
            false // duplicate
        } else if pkt.seq == self.rcv_next {
            self.deliver(pkt.chunk_meta(), &mut completed);
            // Drain any buffered continuation.
            while let Some(chunk) = self.ooo.remove(&self.rcv_next) {
                self.deliver(chunk, &mut completed);
            }
            true
        } else {
            self.ooo.insert(pkt.seq, pkt.chunk_meta());
            true
        };
        if newly_received {
            self.stats.packets_delivered += 1;
        }
        RecvResult {
            ack: Packet::ack(self.id, self.rcv_next, self.dst, self.src),
            newly_received,
            completed,
        }
    }

    fn deliver(&mut self, chunk: Chunk, completed: &mut Vec<CompletedMsg>) {
        self.rcv_next += 1;
        if chunk.msg_last {
            self.stats.msgs_completed += 1;
            completed.push(CompletedMsg {
                msg_id: chunk.msg_id,
                msg_size: chunk.msg_size,
                submitted: chunk.submitted,
            });
        }
    }
}

impl Packet {
    /// Receiver-side view of the chunk this data packet carries.
    fn chunk_meta(&self) -> Chunk {
        Chunk {
            payload: self.payload_bytes(),
            msg_id: self.msg_id,
            msg_size: self.msg_size,
            msg_last: self.msg_last,
            submitted: self.msg_submitted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> TcpFlow {
        TcpFlow::new(0, 0, 1, TcpConfig::default())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn submit_chunks_message_into_mss_segments() {
        let mut f = flow();
        let (msg_id, out) = f.app_submit(t(0), MSS as u64 * 3 + 10);
        assert_eq!(msg_id, 0);
        // init_cwnd = 2: two packets leave, two chunks wait.
        assert_eq!(out.packets.len(), 2);
        assert_eq!(f.backlog_chunks(), 2);
        assert_eq!(f.in_flight(), 2);
        assert!(out.timer.is_some());
        // Last chunk carries the remainder and msg_last.
        let (_, out2) = f.app_submit(t(1), 10);
        assert!(out2.packets.is_empty(), "window is full");
    }

    #[test]
    fn cumulative_ack_advances_and_grows_window_slow_start() {
        let mut f = flow();
        let (_, out) = f.app_submit(t(0), MSS as u64 * 10);
        assert_eq!(out.packets.len(), 2);
        let r = f.on_ack(t(10), 2);
        assert_eq!(f.cwnd(), 4.0, "slow start doubles per window");
        assert_eq!(r.packets.len(), 4);
        assert_eq!(f.in_flight(), 4);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut f = flow();
        // Force CA: drop ssthresh to 2.
        f.ssthresh = 2.0;
        f.app_submit(t(0), MSS as u64 * 100);
        let cwnd0 = f.cwnd();
        f.on_ack(t(5), 1);
        let cwnd1 = f.cwnd();
        assert!((cwnd1 - (cwnd0 + 1.0 / cwnd0)).abs() < 1e-9);
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut f = flow();
        f.app_submit(t(0), MSS as u64 * 8);
        f.on_ack(t(5), 2); // window now 4, sends more
        let cwnd_before = f.cwnd();
        // Three duplicate ACKs for seq 2.
        assert!(f.on_ack(t(6), 2).packets.is_empty());
        assert!(f.on_ack(t(7), 2).packets.is_empty());
        let r = f.on_ack(t(8), 2);
        assert_eq!(r.packets.len(), 1, "fast retransmit of snd_una");
        assert_eq!(r.packets[0].seq, 2);
        assert!(r.packets[0].retransmit);
        assert!(f.cwnd() < cwnd_before, "multiplicative decrease");
        assert_eq!(f.stats.fast_retransmits, 1);
    }

    #[test]
    fn rto_collapses_window_and_backs_off() {
        let mut f = flow();
        let (_, out) = f.app_submit(t(0), MSS as u64 * 4);
        let arm = out.timer.unwrap();
        let rto_before = f.rto;
        let r = f.on_rto(t(500), arm.epoch);
        assert_eq!(r.packets.len(), 1);
        assert_eq!(r.packets[0].seq, 0);
        assert_eq!(f.cwnd(), 1.0);
        assert!(f.rto > rto_before, "exponential backoff");
        assert_eq!(f.stats.timeouts, 1);
    }

    #[test]
    fn stale_rto_epochs_are_ignored() {
        let mut f = flow();
        let (_, out) = f.app_submit(t(0), MSS as u64 * 4);
        let arm = out.timer.unwrap();
        // ACK everything outstanding: epoch is invalidated (in-flight
        // drains in two windows).
        let r = f.on_ack(t(5), 2);
        let arm2 = r.timer;
        let r2 = f.on_ack(t(6), 4);
        assert!(r2.packets.is_empty());
        let stale = f.on_rto(t(500), arm.epoch);
        assert!(stale.packets.is_empty(), "stale epoch must be ignored");
        if let Some(a2) = arm2 {
            let stale2 = f.on_rto(t(501), a2.epoch);
            assert!(stale2.packets.is_empty(), "no outstanding data");
        }
        assert_eq!(f.stats.timeouts, 0);
    }

    #[test]
    fn receiver_delivers_in_order_and_acks_cumulatively() {
        let mut snd = flow();
        let (_, out) = snd.app_submit(t(0), MSS as u64 * 2);
        let mut rcv = flow();
        let r0 = rcv.on_data(&out.packets[0]);
        assert_eq!(r0.ack.ack, 1);
        assert!(r0.newly_received);
        let r1 = rcv.on_data(&out.packets[1]);
        assert_eq!(r1.ack.ack, 2);
        assert_eq!(r1.completed.len(), 1, "two-chunk message completes");
        assert_eq!(r1.completed[0].msg_size, MSS as u64 * 2);
    }

    #[test]
    fn out_of_order_arrival_is_buffered_then_drained() {
        let mut snd = flow();
        snd.cwnd = 8.0;
        let (_, out) = snd.app_submit(t(0), MSS as u64 * 3);
        assert_eq!(out.packets.len(), 3);
        let mut rcv = flow();
        // Deliver 2, 0, 1.
        let r2 = rcv.on_data(&out.packets[2]);
        assert_eq!(r2.ack.ack, 0, "hole: still expecting 0");
        assert!(r2.newly_received);
        let r0 = rcv.on_data(&out.packets[0]);
        assert_eq!(r0.ack.ack, 1);
        let r1 = rcv.on_data(&out.packets[1]);
        assert_eq!(r1.ack.ack, 3, "drains buffered seq 2");
        assert_eq!(r1.completed.len(), 1);
    }

    #[test]
    fn duplicate_data_is_not_double_delivered() {
        let mut snd = flow();
        let (_, out) = snd.app_submit(t(0), 500);
        let mut rcv = flow();
        let r = rcv.on_data(&out.packets[0]);
        assert!(r.newly_received);
        assert_eq!(r.completed.len(), 1);
        let rdup = rcv.on_data(&out.packets[0]);
        assert!(!rdup.newly_received);
        assert!(rdup.completed.is_empty());
        assert_eq!(rcv.stats.packets_delivered, 1);
        assert_eq!(rdup.ack.ack, 1, "dup still acked cumulatively");
    }

    #[test]
    fn rtt_estimator_sets_rto() {
        let mut f = flow();
        f.app_submit(t(0), MSS as u64);
        f.on_ack(t(50), 1);
        let srtt = f.srtt_secs().expect("sampled");
        assert!((srtt - 0.05).abs() < 1e-9);
        // rto = srtt + 4*rttvar = 0.05 + 4*0.025 = 0.15
        assert_eq!(f.rto, SimTime::from_millis(150));
    }

    #[test]
    fn karn_skips_retransmitted_samples() {
        let mut f = flow();
        let (_, out) = f.app_submit(t(0), MSS as u64 * 2);
        let arm = out.timer.unwrap();
        f.on_rto(t(400), arm.epoch); // retransmit seq 0
        f.on_ack(t(800), 1); // covers a retransmitted segment
        assert!(f.srtt_secs().is_none(), "no sample from retransmits");
    }

    #[test]
    fn ack_monotonicity_invariant() {
        // Receiver ACKs never decrease, whatever the arrival order.
        let mut snd = flow();
        snd.cwnd = 16.0;
        let (_, out) = snd.app_submit(t(0), MSS as u64 * 6);
        let mut rcv = flow();
        let order = [5usize, 3, 0, 4, 1, 2];
        let mut last_ack = 0;
        for idx in order {
            let r = rcv.on_data(&out.packets[idx]);
            assert!(r.ack.ack >= last_ack, "ACK went backwards");
            last_ack = r.ack.ack;
        }
        assert_eq!(last_ack, 6);
    }

    #[test]
    #[should_panic(expected = "beyond snd_next")]
    fn ack_beyond_sent_data_is_a_bug() {
        let mut f = flow();
        f.app_submit(t(0), 500);
        f.on_ack(t(1), 99);
    }
}
