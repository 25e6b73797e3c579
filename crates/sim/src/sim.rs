//! The simulator: event dispatch loop tying apps, flows, nodes, and
//! links together.
//!
//! Separation of concerns mirrors an async runtime turned inside-out
//! (reactor = [`EventQueue`], state machines = [`TcpFlow`]/[`Link`]):
//! every component is a passive state machine and this module is the
//! only place where effects (packet routing, timer arming, tracing)
//! happen. All randomness flows through one seeded RNG, so a
//! `(topology, seed)` pair fully determines the trace.

use crate::app::App;
use crate::event::{Event, EventQueue};
use crate::link::{Enqueue, Link};
use crate::node::Node;
use crate::packet::{AppId, FlowId, NodeId, Packet, PacketKind};
use crate::tcp::{SendResult, TcpFlow};
use crate::time::SimTime;
use crate::trace::{MessageRecord, PacketRecord, TraceCollector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Aggregate counters for a finished run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    pub events_processed: u64,
    pub packets_forwarded: u64,
    pub packets_dropped: u64,
}

/// One flow's retransmission timer, keyed by `(deadline, seq)`.
#[derive(Debug, Clone, Copy, Default)]
struct RtoTimer {
    /// The latest arming and its epoch: the only one that can fire.
    armed: Option<((SimTime, u64), u64)>,
    /// The flow's tracked queue entry, never later than `armed`.
    queued: Option<(SimTime, u64)>,
}

/// A packet-level network simulator instance.
pub struct Simulator {
    pub queue: EventQueue,
    pub nodes: Vec<Node>,
    pub links: Vec<Link>,
    pub flows: Vec<TcpFlow>,
    pub apps: Vec<App>,
    pub trace: TraceCollector,
    rng: StdRng,
    pub stats: SimStats,
    /// `timers[flow]`: that flow's retransmission timer.
    timers: Vec<RtoTimer>,
}

impl Simulator {
    /// Assemble a simulator from parts (usually via
    /// [`crate::topology::TopologyBuilder`] and `crate::scenarios`).
    pub fn new(
        nodes: Vec<Node>,
        links: Vec<Link>,
        flows: Vec<TcpFlow>,
        apps: Vec<App>,
        seed: u64,
    ) -> Self {
        let trace = TraceCollector::new(flows.len(), nodes.len());
        let timers = vec![RtoTimer::default(); flows.len()];
        Simulator {
            queue: EventQueue::new(),
            nodes,
            links,
            flows,
            apps,
            trace,
            rng: StdRng::seed_from_u64(seed),
            stats: SimStats::default(),
            timers,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedule an application's first wake-up.
    pub fn start_app(&mut self, app: AppId, at: SimTime) {
        assert!(app < self.apps.len(), "unknown app {app}");
        self.queue.schedule(at, Event::AppWake { app });
    }

    /// Schedule every app's first wake at a uniformly random offset in
    /// `[0, jitter)` — the paper's "randomized application start times".
    pub fn start_all_apps_jittered(&mut self, jitter: SimTime) {
        for app in 0..self.apps.len() {
            let off = if jitter == SimTime::ZERO {
                SimTime::ZERO
            } else {
                SimTime(self.rng.gen_range(0..jitter.as_nanos()))
            };
            self.queue.schedule(off, Event::AppWake { app });
        }
    }

    /// Run until the event queue is exhausted or the next event is past
    /// `end`. Events exactly at `end` are processed.
    pub fn run_until(&mut self, end: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let (now, seq, ev) = self.queue.pop().expect("peeked event vanished");
            self.stats.events_processed += 1;
            self.handle(now, seq, ev);
        }
    }

    fn handle(&mut self, now: SimTime, seq: u64, ev: Event) {
        match ev {
            Event::AppWake { app } => {
                let action = self.apps[app].on_wake(now, &mut self.rng);
                if let Some(bytes) = action.submit_bytes {
                    let flow = self.apps[app].flow();
                    let (_, send) = self.flows[flow].app_submit(now, bytes);
                    self.dispatch(flow, send, now);
                }
                if let Some(at) = action.next_wake {
                    self.queue.schedule(at, Event::AppWake { app });
                }
            }
            Event::TxComplete { link } => {
                let more = self.links[link].finish_tx();
                let delay = self.links[link].cfg.prop_delay;
                self.queue.schedule_in(delay, Event::Arrival { link });
                if more {
                    let tx = self.links[link].current_tx_time();
                    self.queue.schedule_in(tx, Event::TxComplete { link });
                }
            }
            Event::Arrival { link } => {
                let node = self.links[link].to;
                let packet = self.links[link].arrive();
                self.receive_at(node, packet, now);
            }
            Event::RtoCheck { flow } => {
                let timer = &mut self.timers[flow];
                if timer.queued != Some((now, seq)) {
                    return; // replaced by an entry with an earlier deadline
                }
                timer.queued = None;
                let Some((key, epoch)) = timer.armed else {
                    return;
                };
                if key == (now, seq) {
                    timer.armed = None;
                    let send = self.flows[flow].on_rto(now, epoch);
                    self.dispatch(flow, send, now);
                } else {
                    // Re-armed since this entry was queued: queue the
                    // armed timer at the place it reserved.
                    timer.queued = Some(key);
                    self.queue
                        .schedule_reserved(key.0, key.1, Event::RtoCheck { flow });
                }
            }
        }
    }

    /// A packet arrives at `node`: deliver locally or forward.
    fn receive_at(&mut self, node: NodeId, pkt: Packet, now: SimTime) {
        if pkt.dst != node {
            self.stats.packets_forwarded += 1;
            self.transmit_from(node, pkt);
            return;
        }
        match pkt.kind {
            PacketKind::Data => {
                let flow = pkt.flow;
                let res = self.flows[flow].on_data(&pkt);
                if res.newly_received {
                    self.trace.on_packet(PacketRecord {
                        recv_ns: now.as_nanos(),
                        sent_ns: pkt.sent_at.as_nanos(),
                        delay_ns: now.saturating_since(pkt.sent_at).as_nanos(),
                        size_bytes: pkt.size_bytes,
                        flow,
                        sender: pkt.src,
                        receiver: node,
                        receiver_group: self.trace.group_of(node),
                        seq: pkt.seq,
                        msg_id: pkt.msg_id,
                        msg_size: pkt.msg_size,
                        msg_last: pkt.msg_last,
                        retransmit: pkt.retransmit,
                    });
                }
                for c in res.completed {
                    self.trace.on_message(MessageRecord {
                        flow,
                        msg_id: c.msg_id,
                        size_bytes: c.msg_size,
                        submitted_ns: c.submitted.as_nanos(),
                        completed_ns: now.as_nanos(),
                    });
                }
                self.transmit_from(node, res.ack);
            }
            PacketKind::Ack => {
                let flow = pkt.flow;
                let send = self.flows[flow].on_ack(now, pkt.ack);
                self.dispatch(flow, send, now);
            }
        }
    }

    /// Apply a flow's send actions: route its packets, arm its timer.
    ///
    /// Arming reserves an event number, as scheduling would, but queues an
    /// entry only if its deadline beats the flow's queued one; otherwise
    /// that entry re-queues the armed timer when it pops. The timer that
    /// fires pops at its own `(time, seq)`, and the stale armings it
    /// overrode get no entry.
    fn dispatch(&mut self, flow: FlowId, send: SendResult, now: SimTime) {
        for pkt in send.packets {
            let origin = pkt.src;
            self.transmit_from(origin, pkt);
        }
        if let Some(arm) = send.timer {
            let key = (now + arm.delay, self.queue.reserve());
            let timer = &mut self.timers[flow];
            timer.armed = Some((key, arm.epoch));
            if timer.queued.is_none_or(|queued| key < queued) {
                timer.queued = Some(key);
                self.queue
                    .schedule_reserved(key.0, key.1, Event::RtoCheck { flow });
            }
        }
    }

    /// Put a packet on `node`'s next-hop link toward its destination.
    fn transmit_from(&mut self, node: NodeId, pkt: Packet) {
        let link_id = self.nodes[node].route(pkt.dst);
        let roll: f64 = self.rng.gen();
        match self.links[link_id].offer(pkt, roll) {
            Enqueue::StartTx => {
                let tx = self.links[link_id].current_tx_time();
                self.queue
                    .schedule_in(tx, Event::TxComplete { link: link_id });
            }
            Enqueue::Queued => {}
            Enqueue::Dropped => {
                self.stats.packets_dropped += 1;
            }
        }
    }

    /// Total packets dropped across all links (overflow + faults).
    pub fn total_drops(&self) -> u64 {
        self.links
            .iter()
            .map(|l| l.stats.dropped_overflow + l.stats.dropped_fault)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::node::NodeKind;
    use crate::packet::MSS;
    use crate::tcp::TcpConfig;
    use crate::workload::MsgSizeDist;

    /// Two hosts, one bidirectional link, one flow, one app.
    fn two_host_sim(msg_bytes: u64, rate_bps: u64) -> Simulator {
        let mut h0 = Node::new(0, NodeKind::Host, "h0");
        let mut h1 = Node::new(1, NodeKind::Host, "h1");
        h0.set_routes(vec![None, Some(0)]);
        h1.set_routes(vec![Some(1), None]);
        let cfg = LinkConfig {
            rate_bps,
            prop_delay: SimTime::from_millis(1),
            queue_capacity: 1000,
            loss_prob: 0.0,
        };
        let links = vec![Link::new(0, 1, cfg), Link::new(1, 0, cfg)];
        let flows = vec![TcpFlow::new(0, 0, 1, TcpConfig::default())];
        let apps = vec![App::message_source(
            0,
            MsgSizeDist::Fixed { bytes: msg_bytes },
            1_000_000.0,
            SimTime::from_millis(1), // one message, then stop
        )];
        let mut sim = Simulator::new(vec![h0, h1], links, flows, apps, 42);
        sim.trace.record_flow(0);
        sim
    }

    #[test]
    fn single_message_is_delivered_and_traced() {
        let mut sim = two_host_sim(MSS as u64 * 5, 10_000_000);
        sim.start_app(0, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.trace.messages.len(), 1, "one message completes");
        assert_eq!(sim.trace.packets.len(), 5, "five data packets traced");
        assert_eq!(sim.flows[0].stats.retransmits, 0);
        assert!(sim.flows[0].idle());
        // Delay = queueing + serialization + propagation >= 1 ms prop.
        for p in &sim.trace.packets {
            assert!(p.delay_ns >= 1_000_000, "delay below propagation");
        }
    }

    #[test]
    fn delays_include_serialization_in_order() {
        // At 1.2 Mbps a 1500 B packet serializes in 10 ms >> 1 ms prop:
        // with cwnd=2, packet 1 queues behind packet 0, so its delay is
        // roughly serialization longer.
        let mut sim = two_host_sim(MSS as u64 * 2, 1_200_000);
        sim.start_app(0, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.trace.packets.len(), 2);
        let d0 = sim.trace.packets[0].delay_ns;
        let d1 = sim.trace.packets[1].delay_ns;
        assert!(d1 > d0 + 5_000_000, "queueing not visible: {d0} vs {d1}");
    }

    #[test]
    fn mct_covers_submission_to_final_delivery() {
        let mut sim = two_host_sim(MSS as u64 * 10, 10_000_000);
        sim.start_app(0, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(5));
        let m = &sim.trace.messages[0];
        let last = sim.trace.packets.iter().map(|p| p.recv_ns).max().unwrap();
        assert_eq!(m.completed_ns, last);
        assert!(m.mct_ns() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = two_host_sim(MSS as u64 * 7, 5_000_000);
            sim.start_app(0, SimTime::ZERO);
            sim.run_until(SimTime::from_secs(5));
            (
                sim.stats.events_processed,
                sim.trace
                    .packets
                    .iter()
                    .map(|p| (p.recv_ns, p.seq))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn timer_events_do_not_grow_with_message_length() {
        // Lossless, and the whole message is acknowledged within one RTO:
        // each data packet costs exactly four events (its TxComplete and
        // Arrival, then its ACK's), so the timer pops must be a constant.
        let events = |pkts: u64| {
            let mut sim = two_host_sim(MSS as u64 * pkts, 1_000_000_000);
            sim.start_app(0, SimTime::ZERO);
            sim.run_until(SimTime::from_secs(5));
            assert_eq!(sim.trace.packets.len() as u64, pkts);
            assert_eq!(sim.flows[0].stats.timeouts, 0);
            sim.stats.events_processed - 4 * pkts
        };
        assert_eq!(
            events(8),
            events(16),
            "timer pops grew with the window count"
        );
    }

    #[test]
    fn lossy_link_forces_retransmissions_but_delivers() {
        let mut sim = two_host_sim(MSS as u64 * 20, 10_000_000);
        sim.links[0].cfg.loss_prob = 0.2; // forward path drops 20%
        sim.start_app(0, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(sim.trace.messages.len(), 1, "reliability despite loss");
        assert!(sim.flows[0].stats.retransmits > 0);
        assert_eq!(sim.trace.packets.len(), 20, "each seq traced exactly once");
    }
}
