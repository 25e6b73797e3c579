//! The paper's dataset-generation setups (Fig. 4) plus the topology
//! families used by the fleet's scenario grid.
//!
//! Builders:
//! * [`pretrain`] — 60 senders × 1 Mbps of messages through one 30 Mbps
//!   bottleneck (queue 1000 packets) to a single receiver.
//! * [`case1`] — the same topology plus 20 Mbps of TCP cross-traffic
//!   (fine-tuning case 1; cross-traffic packets are *not* traced).
//! * [`case2`] — a larger chain topology with three receivers at
//!   different path depths and a cross-traffic source on every hop, so
//!   packets toward different receivers see different delays and
//!   congestion (fine-tuning case 2).
//! * [`parking_lot`] — the case-2 family generalized to a configurable
//!   hop count: a chain of `hops` bottlenecks with one receiver and one
//!   cross-traffic bundle per hop ([`Scenario::ParkingLot`]).
//! * [`leaf_spine`] — a two-tier datacenter-style fabric: senders on
//!   one leaf, a receiver behind every other leaf, leaf-spine links as
//!   bottlenecks, destination-skewed cross-traffic so each spine path
//!   congests differently ([`Scenario::LeafSpine`]).
//!
//! The extra families exist for the generalization story: a model
//! pre-trained on one dumbbell cannot be expected to transfer, so the
//! fleet (`ntt-fleet`) sweeps (scenario × load × seed) grids across
//! these builders to produce diverse pre-training sets.

use crate::app::App;
use crate::link::LinkConfig;
use crate::packet::NodeId;
use crate::sim::Simulator;
use crate::tcp::{TcpConfig, TcpFlow};
use crate::time::SimTime;
use crate::topology::TopologyBuilder;
use crate::trace::{MessageRecord, PacketRecord};
use crate::workload::MsgSizeDist;

/// Which setup to build: the paper's three Fig. 4 scenarios plus the
/// parameterized topology families the fleet grid sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    Pretrain,
    Case1,
    Case2,
    /// Parking-lot chain with `hops` bottleneck hops, one receiver per
    /// hop (path depths 1..=hops) and cross-traffic on every hop.
    /// `ParkingLot { hops: 3 }` is topologically [`Scenario::Case2`].
    ParkingLot {
        hops: u8,
    },
    /// Two-tier leaf-spine fabric: senders on leaf 0, one receiver
    /// behind each of the other `leaves - 1` leaves, every leaf-spine
    /// link a bottleneck, cross-traffic skewed by destination leaf.
    LeafSpine {
        leaves: u8,
        spines: u8,
    },
}

impl Scenario {
    /// Number of distinct receiver groups this scenario produces.
    /// Degenerate parameters (0 hops, fewer than 2 leaves, 0 spines)
    /// are not clamped anywhere: [`run`] panics on them via the builder
    /// asserts, so a sweep fails fast instead of silently generating
    /// mislabeled or duplicate topologies.
    pub fn n_receiver_groups(&self) -> usize {
        match *self {
            Scenario::Pretrain | Scenario::Case1 => 1,
            Scenario::Case2 => 3,
            Scenario::ParkingLot { hops } => hops as usize,
            Scenario::LeafSpine { leaves, .. } => (leaves as usize).saturating_sub(1),
        }
    }

    /// A short stable label for file names and reports.
    pub fn label(&self) -> String {
        match *self {
            Scenario::Pretrain => "pretrain".into(),
            Scenario::Case1 => "case1".into(),
            Scenario::Case2 => "case2".into(),
            Scenario::ParkingLot { hops } => format!("parkinglot{hops}"),
            Scenario::LeafSpine { leaves, spines } => format!("leafspine{leaves}x{spines}"),
        }
    }
}

/// All tunables of the Fig. 4 setups. `Default` reproduces the paper's
/// numbers.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Foreground message senders (paper: 60).
    pub n_senders: usize,
    /// Average offered rate per sender (paper: 1 Mbps).
    pub sender_rate_bps: f64,
    /// Access link speed for hosts.
    pub access_bps: u64,
    pub access_delay: SimTime,
    /// Bottleneck link speed (paper: 30 Mbps).
    pub bottleneck_bps: u64,
    pub bottleneck_delay: SimTime,
    /// Bottleneck queue capacity in packets (paper: 1000).
    pub bottleneck_queue: usize,
    /// Message size distribution (paper: real-world / Homa-like).
    pub msg_dist: MsgSizeDist,
    /// Traffic generation period per run (paper: 1 minute).
    pub duration: SimTime,
    /// Extra time after `duration` to let in-flight traffic drain.
    pub drain: SimTime,
    /// Application start jitter (paper: randomized start times).
    pub start_jitter: SimTime,
    /// Aggregate cross-traffic rate (cases 1-2; paper: 20 Mbps).
    pub cross_rate_bps: f64,
    /// Number of TCP flows the cross-traffic is split over.
    pub n_cross_flows: usize,
    pub tcp: TcpConfig,
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            n_senders: 60,
            sender_rate_bps: 1_000_000.0,
            access_bps: 100_000_000,
            access_delay: SimTime::from_micros(50),
            bottleneck_bps: 30_000_000,
            bottleneck_delay: SimTime::from_millis(10),
            bottleneck_queue: 1000,
            msg_dist: MsgSizeDist::HomaLike,
            duration: SimTime::from_secs(60),
            drain: SimTime::from_secs(2),
            start_jitter: SimTime::from_secs(1),
            cross_rate_bps: 20_000_000.0,
            n_cross_flows: 4,
            tcp: TcpConfig::default(),
            seed: 0,
        }
    }
}

impl ScenarioConfig {
    /// A miniaturized config for tests and quick experiments: fewer
    /// senders, shorter runs, proportionally scaled-down links, and a
    /// bounded message-size distribution (the unbounded Homa-like tail
    /// makes 3-second runs statistically unstable). Foreground load is
    /// ~60% of the bottleneck so that adding cross-traffic visibly
    /// shifts the delay distribution.
    pub fn tiny(seed: u64) -> Self {
        ScenarioConfig {
            n_senders: 6,
            sender_rate_bps: 400_000.0,
            bottleneck_bps: 4_000_000,
            bottleneck_queue: 100,
            msg_dist: MsgSizeDist::LogUniform {
                min: 2_000,
                max: 200_000,
            },
            duration: SimTime::from_secs(4),
            drain: SimTime::from_secs(1),
            start_jitter: SimTime::from_millis(200),
            cross_rate_bps: 2_000_000.0,
            n_cross_flows: 2,
            seed,
            ..ScenarioConfig::default()
        }
    }
}

/// The trace produced by one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    pub packets: Vec<PacketRecord>,
    pub messages: Vec<MessageRecord>,
    pub events: u64,
    pub drops: u64,
}

fn access_cfg(cfg: &ScenarioConfig) -> LinkConfig {
    LinkConfig {
        rate_bps: cfg.access_bps,
        prop_delay: cfg.access_delay,
        queue_capacity: 10_000,
        loss_prob: 0.0,
    }
}

fn bottleneck_cfg(cfg: &ScenarioConfig) -> LinkConfig {
    LinkConfig {
        rate_bps: cfg.bottleneck_bps,
        prop_delay: cfg.bottleneck_delay,
        queue_capacity: cfg.bottleneck_queue,
        loss_prob: 0.0,
    }
}

/// Shared assembly: attach `n_senders` message apps, one per flow
/// `sender -> receivers[i % len]`, plus cross-traffic flows.
struct Assembly {
    topo: TopologyBuilder,
    flows: Vec<TcpFlow>,
    apps: Vec<App>,
    foreground: Vec<usize>,
    receivers: Vec<NodeId>,
}

impl Assembly {
    fn finish(self, cfg: &ScenarioConfig) -> Simulator {
        let (nodes, links) = self.topo.build();
        let mut sim = Simulator::new(nodes, links, self.flows, self.apps, cfg.seed);
        for f in &self.foreground {
            sim.trace.record_flow(*f);
        }
        for (group, r) in self.receivers.iter().enumerate() {
            sim.trace.set_receiver_group(*r, group as u32);
        }
        sim
    }
}

/// Attach foreground senders (hosts + flows + apps) at `edge_switch`,
/// targeting `receivers` round-robin.
fn add_senders(a: &mut Assembly, cfg: &ScenarioConfig, edge_switch: NodeId, receivers: &[NodeId]) {
    for i in 0..cfg.n_senders {
        let host = a.topo.add_host(format!("sender{i}"));
        a.topo.connect(host, edge_switch, access_cfg(cfg));
        let dst = receivers[i % receivers.len()];
        let flow_id = a.flows.len();
        a.flows.push(TcpFlow::new(flow_id, host, dst, cfg.tcp));
        a.foreground.push(flow_id);
        a.apps.push(App::message_source(
            flow_id,
            cfg.msg_dist,
            cfg.sender_rate_bps,
            cfg.duration,
        ));
    }
}

/// Attach `n` cross-traffic flows from fresh hosts at `src_switch` to
/// fresh sinks at `dst_switch`, sharing `rate_bps` equally.
fn add_cross(
    a: &mut Assembly,
    cfg: &ScenarioConfig,
    src_switch: NodeId,
    dst_switch: NodeId,
    n: usize,
    rate_bps: f64,
) {
    if n == 0 || rate_bps <= 0.0 {
        return;
    }
    let per_flow = rate_bps / n as f64;
    for i in 0..n {
        let src = a.topo.add_host(format!("cross_src{}_{i}", src_switch));
        let dst = a.topo.add_host(format!("cross_dst{}_{i}", dst_switch));
        a.topo.connect(src, src_switch, access_cfg(cfg));
        a.topo.connect(dst, dst_switch, access_cfg(cfg));
        let flow_id = a.flows.len();
        a.flows.push(TcpFlow::new(flow_id, src, dst, cfg.tcp));
        a.apps.push(App::cbr_source(
            flow_id,
            crate::packet::MSS as u64,
            per_flow,
            cfg.duration,
        ));
    }
}

/// Pre-training setup: senders -> SW_L =bottleneck=> SW_R -> receiver.
pub fn pretrain(cfg: &ScenarioConfig) -> Simulator {
    build_dumbbell(cfg, false)
}

/// Fine-tuning case 1: pre-training topology + cross-traffic over the
/// same bottleneck.
pub fn case1(cfg: &ScenarioConfig) -> Simulator {
    build_dumbbell(cfg, true)
}

fn build_dumbbell(cfg: &ScenarioConfig, cross: bool) -> Simulator {
    let mut a = Assembly {
        topo: TopologyBuilder::new(),
        flows: Vec::new(),
        apps: Vec::new(),
        foreground: Vec::new(),
        receivers: Vec::new(),
    };
    let sw_l = a.topo.add_switch("sw_l");
    let sw_r = a.topo.add_switch("sw_r");
    a.topo.connect(sw_l, sw_r, bottleneck_cfg(cfg));
    let recv = a.topo.add_host("receiver");
    a.topo.connect(sw_r, recv, access_cfg(cfg));
    a.receivers.push(recv);
    add_senders(&mut a, cfg, sw_l, &[recv]);
    if cross {
        add_cross(
            &mut a,
            cfg,
            sw_l,
            sw_r,
            cfg.n_cross_flows,
            cfg.cross_rate_bps,
        );
    }
    a.finish(cfg)
}

/// Fine-tuning case 2: a chain SW0 => SW1 => SW2 => SW3 with receivers
/// R1@SW1, R2@SW2, R3@SW3 (different path depths) and cross-traffic
/// entering at every hop. Equivalent to [`parking_lot`] with 3 hops.
pub fn case2(cfg: &ScenarioConfig) -> Simulator {
    parking_lot(cfg, 3)
}

/// Parking-lot chain with a configurable number of bottleneck hops:
/// SW0 => SW1 => ... => SWhops, receiver Ri behind SWi (path depth i),
/// senders at SW0 targeting the receivers round-robin, and one
/// cross-traffic bundle per hop sharing `cross_rate_bps` equally.
pub fn parking_lot(cfg: &ScenarioConfig, hops: usize) -> Simulator {
    assert!(hops >= 1, "a parking lot needs at least one hop");
    let mut a = Assembly {
        topo: TopologyBuilder::new(),
        flows: Vec::new(),
        apps: Vec::new(),
        foreground: Vec::new(),
        receivers: Vec::new(),
    };
    let sw = a.topo.chain(hops + 1, bottleneck_cfg(cfg));
    for (i, &s) in sw[1..].iter().enumerate() {
        let r = a.topo.add_host(format!("recv{}", i + 1));
        a.topo.connect(s, r, access_cfg(cfg));
        a.receivers.push(r);
    }
    let receivers = a.receivers.clone();
    add_senders(&mut a, cfg, sw[0], &receivers);
    // One cross-traffic bundle per hop, each taking a share of the rate.
    let per_hop = cfg.cross_rate_bps / hops as f64;
    let flows_per_hop = cfg.n_cross_flows.div_ceil(hops);
    for h in 0..hops {
        add_cross(&mut a, cfg, sw[h], sw[h + 1], flows_per_hop, per_hop);
    }
    a.finish(cfg)
}

/// Two-tier leaf-spine fabric. Senders sit on leaf 0; each other leaf
/// hosts one receiver, so every foreground path is leaf0 => spine =>
/// leaf (the spine is chosen per destination leaf by deterministic BFS
/// tie-breaking, see [`TopologyBuilder::leaf_spine`]). Leaf-spine links
/// use the bottleneck config. Cross-traffic toward receiver leaf `k` is
/// *skewed by leaf index* (a share proportional to `k`) and enters at
/// the spine that serves leaf `k`, so it loads exactly that group's
/// egress hop — different receiver groups see different congestion
/// without coupling through the shared sender uplink.
pub fn leaf_spine(cfg: &ScenarioConfig, leaves: usize, spines: usize) -> Simulator {
    assert!(leaves >= 2, "need at least one receiver leaf");
    let mut a = Assembly {
        topo: TopologyBuilder::new(),
        flows: Vec::new(),
        apps: Vec::new(),
        foreground: Vec::new(),
        receivers: Vec::new(),
    };
    let (leaf_ids, spine_ids) = a.topo.leaf_spine(leaves, spines, bottleneck_cfg(cfg));
    for (i, &leaf) in leaf_ids[1..].iter().enumerate() {
        let r = a.topo.add_host(format!("recv{}", i + 1));
        a.topo.connect(leaf, r, access_cfg(cfg));
        a.receivers.push(r);
    }
    let receivers = a.receivers.clone();
    add_senders(&mut a, cfg, leaf_ids[0], &receivers);
    // Cross-traffic share of receiver leaf k (1-based): k / sum(1..n),
    // injected at leaf k's serving spine (BFS tie-breaking routes leaf
    // k's traffic via spine k % spines, see TopologyBuilder::leaf_spine).
    let n_recv = leaves - 1;
    let weight_sum = (n_recv * (n_recv + 1) / 2) as f64;
    let flows_per_leaf = cfg.n_cross_flows.div_ceil(n_recv).max(1);
    for k in 1..leaves {
        let share = cfg.cross_rate_bps * k as f64 / weight_sum;
        let spine = spine_ids[k % spines];
        add_cross(&mut a, cfg, spine, leaf_ids[k], flows_per_leaf, share);
    }
    a.finish(cfg)
}

/// Build, start apps with jitter, run to completion, and extract the
/// trace — one paper "simulation run".
pub fn run(scenario: Scenario, cfg: &ScenarioConfig) -> RunTrace {
    let mut sim = match scenario {
        Scenario::Pretrain => pretrain(cfg),
        Scenario::Case1 => case1(cfg),
        Scenario::Case2 => case2(cfg),
        Scenario::ParkingLot { hops } => parking_lot(cfg, hops as usize),
        Scenario::LeafSpine { leaves, spines } => leaf_spine(cfg, leaves as usize, spines as usize),
    };
    sim.start_all_apps_jittered(cfg.start_jitter);
    sim.run_until(cfg.duration + cfg.drain);
    let mut packets = std::mem::take(&mut sim.trace.packets);
    packets.sort_by_key(|p| (p.recv_ns, p.flow, p.seq));
    let mut messages = std::mem::take(&mut sim.trace.messages);
    messages.sort_by_key(|m| (m.completed_ns, m.flow, m.msg_id));
    RunTrace {
        packets,
        messages,
        events: sim.stats.events_processed,
        drops: sim.total_drops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pretrain_produces_congested_trace() {
        let cfg = ScenarioConfig::tiny(1);
        let trace = run(Scenario::Pretrain, &cfg);
        assert!(
            trace.packets.len() > 300,
            "got {} packets",
            trace.packets.len()
        );
        assert!(!trace.messages.is_empty());
        // Message bursts through the bottleneck: delays must vary.
        let min = trace.packets.iter().map(|p| p.delay_ns).min().unwrap();
        let max = trace.packets.iter().map(|p| p.delay_ns).max().unwrap();
        assert!(max > 3 * min, "no delay dynamics: {min}..{max}");
    }

    #[test]
    fn traces_are_sorted_by_arrival() {
        let trace = run(Scenario::Pretrain, &ScenarioConfig::tiny(2));
        assert!(trace
            .packets
            .windows(2)
            .all(|w| w[0].recv_ns <= w[1].recv_ns));
    }

    #[test]
    fn case1_has_more_delay_than_pretrain_same_seed() {
        let cfg = ScenarioConfig::tiny(3);
        let base = run(Scenario::Pretrain, &cfg);
        let crossed = run(Scenario::Case1, &cfg);
        let mean = |t: &RunTrace| {
            t.packets.iter().map(|p| p.delay_ns as f64).sum::<f64>() / t.packets.len() as f64
        };
        assert!(
            mean(&crossed) > mean(&base),
            "cross traffic should add queueing: {} vs {}",
            mean(&crossed),
            mean(&base)
        );
    }

    #[test]
    fn case1_never_traces_cross_traffic() {
        let cfg = ScenarioConfig::tiny(4);
        let sim = case1(&cfg);
        // Cross flows are those beyond the foreground senders.
        let trace = run(Scenario::Case1, &cfg);
        for p in &trace.packets {
            assert!(p.flow < cfg.n_senders, "cross flow {} traced", p.flow);
        }
        drop(sim);
    }

    #[test]
    fn case2_has_multiple_receiver_groups_with_different_delays() {
        let cfg = ScenarioConfig::tiny(5);
        let trace = run(Scenario::Case2, &cfg);
        let mut per_group: std::collections::HashMap<u32, Vec<f64>> = Default::default();
        for p in &trace.packets {
            per_group
                .entry(p.receiver_group)
                .or_default()
                .push(p.delay_ns as f64);
        }
        assert_eq!(per_group.len(), 3, "three receiver groups");
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let m0 = mean(&per_group[&0]);
        let m2 = mean(&per_group[&2]);
        assert!(
            m2 > m0,
            "deeper receiver should see larger delay: {m0} vs {m2}"
        );
    }

    #[test]
    fn sequential_seed_schedule_varies_but_is_reproducible() {
        // The contract `ntt_fleet::run_many_parallel` builds on: seeds
        // `cfg.seed, cfg.seed+1, ...`, each run a pure function of its seed.
        let cfg = ScenarioConfig::tiny(7);
        let seeded = |offset: u64| {
            let mut c = cfg;
            c.seed = cfg.seed + offset;
            run(Scenario::Pretrain, &c)
        };
        let (a0, a1) = (seeded(0), seeded(1));
        let (b0, b1) = (seeded(0), seeded(1));
        assert_eq!(a0.packets.len(), b0.packets.len());
        assert_eq!(a1.packets.len(), b1.packets.len());
        assert_ne!(
            a0.packets.len(),
            a1.packets.len(),
            "different seeds should differ (extremely unlikely to tie)"
        );
    }

    #[test]
    fn parking_lot_depth_scales_delay() {
        let cfg = ScenarioConfig::tiny(11);
        let trace = run(Scenario::ParkingLot { hops: 5 }, &cfg);
        let mut per_group: std::collections::HashMap<u32, Vec<f64>> = Default::default();
        for p in &trace.packets {
            per_group
                .entry(p.receiver_group)
                .or_default()
                .push(p.delay_ns as f64);
        }
        assert_eq!(per_group.len(), 5, "five receiver groups, one per hop");
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&per_group[&4]) > mean(&per_group[&0]),
            "deepest receiver must see larger mean delay"
        );
    }

    #[test]
    fn case2_is_parking_lot_with_three_hops() {
        let cfg = ScenarioConfig::tiny(12);
        let a = run(Scenario::Case2, &cfg);
        let b = run(Scenario::ParkingLot { hops: 3 }, &cfg);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn leaf_spine_produces_distinct_receiver_groups() {
        let cfg = ScenarioConfig::tiny(13);
        let trace = run(
            Scenario::LeafSpine {
                leaves: 4,
                spines: 2,
            },
            &cfg,
        );
        let groups: std::collections::HashSet<u32> =
            trace.packets.iter().map(|p| p.receiver_group).collect();
        assert_eq!(
            groups.len(),
            3,
            "one group per receiver leaf, saw {groups:?}"
        );
        assert!(
            trace.packets.len() > 300,
            "got {} packets",
            trace.packets.len()
        );
    }

    #[test]
    fn leaf_spine_groups_see_diverse_congestion() {
        // The family exists to diversify conditions: cross-traffic is
        // skewed per destination leaf and spine paths are shared
        // asymmetrically, so per-group delay distributions must spread
        // out. (Which group is slowest is emergent — heavy-tailed
        // message draws move it around — so only the spread is stable.)
        let cfg = ScenarioConfig::tiny(14);
        let trace = run(
            Scenario::LeafSpine {
                leaves: 4,
                spines: 2,
            },
            &cfg,
        );
        let mut per_group: std::collections::HashMap<u32, Vec<f64>> = Default::default();
        for p in &trace.packets {
            per_group
                .entry(p.receiver_group)
                .or_default()
                .push(p.delay_ns as f64);
        }
        assert_eq!(per_group.len(), 3);
        let means: Vec<f64> = (0..3)
            .map(|g| {
                let v = &per_group[&(g as u32)];
                v.iter().sum::<f64>() / v.len() as f64
            })
            .collect();
        let spread = means.iter().cloned().fold(f64::MIN, f64::max)
            / means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread > 1.2,
            "receiver groups should see distinct congestion, means {means:?}"
        );
    }

    #[test]
    fn new_scenarios_are_deterministic() {
        for sc in [
            Scenario::ParkingLot { hops: 4 },
            Scenario::LeafSpine {
                leaves: 3,
                spines: 2,
            },
        ] {
            let cfg = ScenarioConfig::tiny(15);
            let a = run(sc, &cfg);
            let b = run(sc, &cfg);
            assert_eq!(a.packets, b.packets, "{sc:?} must be reproducible");
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn degenerate_parking_lot_fails_fast() {
        run(Scenario::ParkingLot { hops: 0 }, &ScenarioConfig::tiny(0));
    }

    #[test]
    #[should_panic(expected = "at least one receiver leaf")]
    fn degenerate_leaf_spine_fails_fast() {
        run(
            Scenario::LeafSpine {
                leaves: 1,
                spines: 1,
            },
            &ScenarioConfig::tiny(0),
        );
    }

    #[test]
    fn scenario_labels_and_groups_are_consistent() {
        assert_eq!(Scenario::Pretrain.label(), "pretrain");
        assert_eq!(Scenario::ParkingLot { hops: 5 }.label(), "parkinglot5");
        assert_eq!(
            Scenario::LeafSpine {
                leaves: 4,
                spines: 2
            }
            .label(),
            "leafspine4x2"
        );
        assert_eq!(Scenario::Case2.n_receiver_groups(), 3);
        assert_eq!(Scenario::ParkingLot { hops: 5 }.n_receiver_groups(), 5);
        assert_eq!(
            Scenario::LeafSpine {
                leaves: 4,
                spines: 2
            }
            .n_receiver_groups(),
            3
        );
    }
}
