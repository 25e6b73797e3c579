//! Store-and-forward links with drop-tail FIFO queues.
//!
//! A [`Link`] is unidirectional: it serializes one packet at a time at
//! `rate_bps`, holds up to `queue_capacity` *waiting* packets (the
//! packet being serialized has left the queue, matching ns-3's
//! `DropTailQueue` semantics), and delivers after a fixed propagation
//! delay. Queue overflow drops the arriving packet (drop-tail).
//!
//! A serialized packet waits out its propagation delay in a second FIFO
//! on the link ([`Link::finish_tx`] pushes, [`Link::arrive`] pops). That
//! FIFO is in arrival order: packets finish serializing one at a time,
//! each at least a nanosecond after the last, and all take the same
//! propagation delay.
//!
//! Fault injection: `loss_prob` drops packets at enqueue time with the
//! given probability — the smoltcp-style `--drop-chance` knob, used by
//! robustness tests.

use crate::packet::{NodeId, Packet};
use crate::time::SimTime;
use std::collections::VecDeque;

/// Static link parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    pub rate_bps: u64,
    pub prop_delay: SimTime,
    /// Maximum number of waiting packets (the paper's bottleneck uses
    /// 1000).
    pub queue_capacity: usize,
    /// Random loss probability applied per enqueue (fault injection;
    /// 0.0 = reliable).
    pub loss_prob: f64,
}

impl LinkConfig {
    /// A sensible default: 1 Gbps, 10 us, large queue, no loss.
    pub fn lan() -> Self {
        LinkConfig {
            rate_bps: 1_000_000_000,
            prop_delay: SimTime::from_micros(10),
            queue_capacity: 10_000,
            loss_prob: 0.0,
        }
    }
}

/// Counters exposed for experiments and invariant tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    pub enqueued: u64,
    pub dropped_overflow: u64,
    pub dropped_fault: u64,
    pub transmitted: u64,
    pub bytes_transmitted: u64,
    /// Running peak of the waiting-queue length.
    pub max_queue_len: usize,
}

/// Outcome of offering a packet to a link.
#[derive(Debug, PartialEq, Eq)]
pub enum Enqueue {
    /// Link was idle: start serializing now.
    StartTx,
    /// Placed at the tail of the waiting queue.
    Queued,
    /// Dropped (queue full or injected fault).
    Dropped,
}

/// A unidirectional link `from -> to`.
pub struct Link {
    pub from: NodeId,
    pub to: NodeId,
    pub cfg: LinkConfig,
    queue: VecDeque<Packet>,
    /// Packet currently being serialized, if any.
    in_flight: Option<Packet>,
    /// Serialized packets still propagating, oldest (next to arrive)
    /// first.
    propagating: VecDeque<Packet>,
    pub stats: LinkStats,
}

impl Link {
    pub fn new(from: NodeId, to: NodeId, cfg: LinkConfig) -> Self {
        Link {
            from,
            to,
            cfg,
            queue: VecDeque::new(),
            in_flight: None,
            propagating: VecDeque::new(),
            stats: LinkStats::default(),
        }
    }

    /// Waiting-queue length (excludes the packet being serialized).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True while a packet is being serialized.
    pub fn busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Offer a packet. `drop_roll` is a uniform [0,1) sample supplied by
    /// the simulator's RNG (keeps all randomness seeded centrally).
    pub fn offer(&mut self, packet: Packet, drop_roll: f64) -> Enqueue {
        if self.cfg.loss_prob > 0.0 && drop_roll < self.cfg.loss_prob {
            self.stats.dropped_fault += 1;
            return Enqueue::Dropped;
        }
        if self.in_flight.is_none() {
            debug_assert!(self.queue.is_empty(), "idle link with non-empty queue");
            self.in_flight = Some(packet);
            self.stats.enqueued += 1;
            return Enqueue::StartTx;
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            self.stats.dropped_overflow += 1;
            return Enqueue::Dropped;
        }
        self.queue.push_back(packet);
        self.stats.enqueued += 1;
        self.stats.max_queue_len = self.stats.max_queue_len.max(self.queue.len());
        Enqueue::Queued
    }

    /// Serialization time of the packet currently in flight.
    pub fn current_tx_time(&self) -> SimTime {
        let p = self.in_flight.as_ref().expect("no packet in flight");
        SimTime::tx_time(p.size_bytes as u64, self.cfg.rate_bps)
    }

    /// Complete the current transmission: the packet starts propagating
    /// and, if the queue was non-empty, the next one starts serializing
    /// (returned as `true`).
    pub fn finish_tx(&mut self) -> bool {
        let done = self.in_flight.take().expect("finish_tx on idle link");
        self.stats.transmitted += 1;
        self.stats.bytes_transmitted += done.size_bytes as u64;
        self.propagating.push_back(done);
        self.in_flight = self.queue.pop_front();
        self.in_flight.is_some()
    }

    /// The oldest propagating packet reaches the far end.
    pub fn arrive(&mut self) -> Packet {
        self.propagating
            .pop_front()
            .expect("arrival on a link with nothing propagating")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: u64) -> Packet {
        Packet::data(0, seq, 1000, 0, 1, 0, 1000, true)
    }

    fn tiny_link(cap: usize) -> Link {
        Link::new(
            0,
            1,
            LinkConfig {
                rate_bps: 8_000_000, // 1 byte per microsecond
                prop_delay: SimTime::from_micros(100),
                queue_capacity: cap,
                loss_prob: 0.0,
            },
        )
    }

    #[test]
    fn idle_link_starts_transmitting_immediately() {
        let mut l = tiny_link(2);
        assert_eq!(l.offer(pkt(0), 1.0), Enqueue::StartTx);
        assert!(l.busy());
        assert_eq!(l.queue_len(), 0);
    }

    #[test]
    fn busy_link_queues_then_drops_at_capacity() {
        let mut l = tiny_link(2);
        assert_eq!(l.offer(pkt(0), 1.0), Enqueue::StartTx);
        assert_eq!(l.offer(pkt(1), 1.0), Enqueue::Queued);
        assert_eq!(l.offer(pkt(2), 1.0), Enqueue::Queued);
        assert_eq!(l.offer(pkt(3), 1.0), Enqueue::Dropped);
        assert_eq!(l.stats.dropped_overflow, 1);
        assert_eq!(l.queue_len(), 2);
        assert_eq!(l.stats.max_queue_len, 2);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut l = tiny_link(10);
        l.offer(pkt(0), 1.0);
        l.offer(pkt(1), 1.0);
        l.offer(pkt(2), 1.0);
        assert!(l.finish_tx());
        assert_eq!(l.arrive().seq, 0);
        assert!(l.finish_tx());
        assert_eq!(l.arrive().seq, 1);
        assert!(!l.finish_tx());
        assert_eq!(l.arrive().seq, 2);
        assert!(!l.busy());
    }

    #[test]
    fn packets_arrive_in_the_order_they_finished_serializing() {
        let mut l = tiny_link(10);
        l.offer(pkt(0), 1.0);
        l.offer(pkt(1), 1.0);
        l.finish_tx();
        l.offer(pkt(2), 1.0);
        l.finish_tx();
        l.finish_tx();
        // Three packets on the wire at once; the first one sent lands first.
        let order: Vec<u64> = (0..3).map(|_| l.arrive().seq).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "nothing propagating")]
    fn arrival_with_nothing_propagating_is_a_bug() {
        let mut l = tiny_link(1);
        l.offer(pkt(0), 1.0);
        l.arrive();
    }

    #[test]
    fn tx_time_uses_packet_size() {
        let mut l = tiny_link(1);
        l.offer(pkt(0), 1.0); // 1054 bytes at 1 B/us
        assert_eq!(l.current_tx_time(), SimTime::from_micros(1054));
    }

    #[test]
    fn fault_injection_drops_by_roll() {
        let mut l = Link::new(
            0,
            1,
            LinkConfig {
                loss_prob: 0.5,
                ..LinkConfig::lan()
            },
        );
        assert_eq!(l.offer(pkt(0), 0.4), Enqueue::Dropped);
        assert_eq!(l.stats.dropped_fault, 1);
        assert_eq!(l.offer(pkt(1), 0.6), Enqueue::StartTx);
    }

    #[test]
    #[should_panic(expected = "finish_tx on idle link")]
    fn finish_on_idle_is_a_bug() {
        tiny_link(1).finish_tx();
    }
}
