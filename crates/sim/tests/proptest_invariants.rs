//! Property-based tests of the simulator's core invariants: queue
//! bounds, FIFO order, TCP reliability under arbitrary loss, ACK
//! monotonicity, and event-queue ordering.

use ntt_sim::workload::MsgSizeDist;
use ntt_sim::{
    App, Enqueue, Event, EventQueue, Link, LinkConfig, Node, NodeKind, Packet, SimTime, Simulator,
    TcpConfig, TcpFlow, MSS,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn event_queue_pops_sorted(ops in proptest::collection::vec(0u32..40, 1..200)) {
        // Interleave schedule, pop, and reserve-now-schedule-later, all
        // within 8 ns of the clock so that many events tie on time, then
        // drain. Every pop must be the minimum of a (time, seq) reference.
        // Each event's app id is its seq, so the payload is checked too.
        let mut q = EventQueue::new();
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut reserved: Vec<u64> = Vec::new();
        let mut next_seq = 0u64;
        let mut i = 0;
        loop {
            let op = match ops.get(i) {
                Some(&op) => op,
                None if !pending.is_empty() => 2, // drain
                None => break,
            };
            i += 1;
            let at = q.now().as_nanos() + (op / 5) as u64;
            match op % 5 {
                0 | 1 => {
                    q.schedule(SimTime(at), Event::AppWake { app: next_seq as usize });
                    pending.push((at, next_seq));
                    next_seq += 1;
                }
                2 => {
                    let want = pending.iter().copied().min();
                    let got = q.pop().map(|(t, seq, ev)| {
                        assert_eq!(ev, Event::AppWake { app: seq as usize });
                        (t.as_nanos(), seq)
                    });
                    prop_assert_eq!(got, want);
                    pending.retain(|&p| Some(p) != want);
                }
                3 => {
                    prop_assert_eq!(q.reserve(), next_seq);
                    reserved.push(next_seq);
                    next_seq += 1;
                }
                _ => {
                    if let Some(seq) = reserved.pop() {
                        // One past the clock: a reservation older than the
                        // last pop may not land at the clock's own instant.
                        let at = at + 1;
                        q.schedule_reserved(SimTime(at), seq, Event::AppWake { app: seq as usize });
                        pending.push((at, seq));
                    }
                }
            }
            prop_assert_eq!(q.len(), pending.len());
        }
        prop_assert!(q.pop().is_none());
    }

    #[test]
    fn link_queue_never_exceeds_capacity(cap in 1usize..20, offers in 2usize..64) {
        let mut link = Link::new(0, 1, LinkConfig {
            rate_bps: 1_000_000,
            prop_delay: SimTime::from_micros(10),
            queue_capacity: cap,
            loss_prob: 0.0,
        });
        let mut accepted = 0u64;
        for s in 0..offers {
            let p = Packet::data(0, s as u64, 100, 0, 1, 0, 100, true);
            if link.offer(p, 1.0) != Enqueue::Dropped {
                accepted += 1;
            }
            prop_assert!(link.queue_len() <= cap, "queue over capacity");
        }
        // One in flight + at most cap waiting.
        prop_assert!(accepted <= cap as u64 + 1);
        prop_assert_eq!(link.stats.dropped_overflow, offers as u64 - accepted);
        // Drain preserves FIFO order.
        let mut last_seq = None;
        while link.busy() {
            link.finish_tx();
            let pkt = link.arrive();
            if let Some(prev) = last_seq {
                prop_assert!(pkt.seq > prev, "FIFO violated");
            }
            last_seq = Some(pkt.seq);
        }
    }

    #[test]
    fn tcp_delivers_everything_under_any_loss(loss in 0.0f64..0.35, msg_pkts in 1u64..40, seed in 0u64..1000) {
        // Two hosts, lossy forward path: every chunk must still be
        // delivered exactly once, in order.
        let mut h0 = Node::new(0, NodeKind::Host, "h0");
        let mut h1 = Node::new(1, NodeKind::Host, "h1");
        h0.set_routes(vec![None, Some(0)]);
        h1.set_routes(vec![Some(1), None]);
        let fwd = LinkConfig {
            rate_bps: 10_000_000,
            prop_delay: SimTime::from_millis(1),
            queue_capacity: 1000,
            loss_prob: loss,
        };
        let rev = LinkConfig { loss_prob: 0.0, ..fwd };
        let links = vec![Link::new(0, 1, fwd), Link::new(1, 0, rev)];
        let flows = vec![TcpFlow::new(0, 0, 1, TcpConfig::default())];
        let apps = vec![App::message_source(
            0,
            MsgSizeDist::Fixed { bytes: msg_pkts * MSS as u64 },
            1e6,
            SimTime::from_millis(1),
        )];
        let mut sim = Simulator::new(vec![h0, h1], links, flows, apps, seed);
        sim.trace.record_flow(0);
        sim.start_app(0, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(120));
        prop_assert_eq!(sim.trace.messages.len(), 1, "message must complete (loss {})", loss);
        prop_assert_eq!(sim.trace.packets.len(), msg_pkts as usize, "each seq traced once");
        // Receiver state: everything delivered in order.
        prop_assert_eq!(sim.flows[0].rcv_next(), msg_pkts);
        prop_assert!(sim.flows[0].idle());
    }

    #[test]
    fn tcp_ack_stream_is_monotone(seed in 0u64..500, n_pkts in 2u64..30) {
        // Wide initial window so the whole message leaves at once.
        let wide = TcpConfig { init_cwnd: 64.0, ..TcpConfig::default() };
        let mut snd = TcpFlow::new(0, 0, 1, wide);
        let (_, out) = snd.app_submit(SimTime::ZERO, n_pkts * MSS as u64);
        let pkts = out.packets;
        prop_assert_eq!(pkts.len() as u64, n_pkts);
        // Deliver in a seed-shuffled order; cumulative ACKs must never
        // decrease and must end at n_pkts.
        let mut order: Vec<usize> = (0..pkts.len()).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s as usize) % (i + 1));
        }
        let mut rcv = TcpFlow::new(0, 0, 1, TcpConfig::default());
        let mut last = 0u64;
        for i in order {
            let r = rcv.on_data(&pkts[i]);
            prop_assert!(r.ack.ack >= last, "cumulative ACK decreased");
            last = r.ack.ack;
        }
        prop_assert_eq!(last, n_pkts);
    }

    #[test]
    fn homa_sampler_is_positive_and_bounded(seed in 0u64..2000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let s = MsgSizeDist::HomaLike.sample(&mut rng);
            prop_assert!(s >= 1);
            prop_assert!(s <= 5_784_000);
        }
    }
}
