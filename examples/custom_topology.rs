//! Using the simulator substrate directly: build a custom three-switch
//! topology, attach message senders and a lossy wireless-like edge link
//! (fault injection), run it, and inspect per-link and per-flow
//! statistics.
//!
//! This is the "collect a task-specific dataset" half of Fig. 1 — the
//! simulator is a reusable library, not just a fixture for the paper's
//! three scenarios.
//!
//! Run: `cargo run --release --example custom_topology`

use ntt::sim::{
    workload::MsgSizeDist, App, LinkConfig, SimTime, Simulator, TcpConfig, TcpFlow, TopologyBuilder,
};

fn main() {
    // Topology: two sender sites feed a core ring of three switches;
    // one receiver sits behind a lossy "wireless" last hop.
    let mut topo = TopologyBuilder::new();
    let sw = [
        topo.add_switch("core0"),
        topo.add_switch("core1"),
        topo.add_switch("core2"),
    ];
    let trunk = LinkConfig {
        rate_bps: 20_000_000,
        prop_delay: SimTime::from_millis(5),
        queue_capacity: 200,
        loss_prob: 0.0,
    };
    topo.connect(sw[0], sw[1], trunk);
    topo.connect(sw[1], sw[2], trunk);
    topo.connect(sw[0], sw[2], trunk); // ring: BFS picks shortest paths

    let access = LinkConfig::lan();
    let senders: Vec<_> = (0..4)
        .map(|i| {
            let h = topo.add_host(format!("sender{i}"));
            topo.connect(h, sw[i % 2], access);
            h
        })
        .collect();

    // The lossy last hop: 2% random loss, small buffer.
    let receiver = topo.add_host("mobile_receiver");
    let wireless = LinkConfig {
        rate_bps: 12_000_000,
        prop_delay: SimTime::from_millis(2),
        queue_capacity: 50,
        loss_prob: 0.02,
    };
    topo.connect(sw[2], receiver, wireless);

    let (nodes, links) = topo.build();

    // One TCP flow and one message app per sender.
    let mut flows = Vec::new();
    let mut apps = Vec::new();
    for (i, &h) in senders.iter().enumerate() {
        flows.push(TcpFlow::new(i, h, receiver, TcpConfig::default()));
        apps.push(App::message_source(
            i,
            MsgSizeDist::LogUniform {
                min: 2_000,
                max: 500_000,
            },
            2_000_000.0, // 2 Mbps offered each
            SimTime::from_secs(5),
        ));
    }

    let mut sim = Simulator::new(nodes, links, flows, apps, 42);
    for f in 0..senders.len() {
        sim.trace.record_flow(f);
    }
    sim.start_all_apps_jittered(SimTime::from_millis(300));
    sim.run_until(SimTime::from_secs(7));

    println!(
        "=== run summary ({} events) ===",
        sim.stats.events_processed
    );
    println!(
        "delivered {} packets, completed {} messages, mean delay {:.1} ms, p99 {:.1} ms",
        sim.trace.packets.len(),
        sim.trace.messages.len(),
        sim.trace.mean_delay_secs() * 1e3,
        sim.trace.delay_percentile_secs(99.0) * 1e3,
    );

    println!("\nper-link: transmitted / dropped(queue) / dropped(loss) / peak queue");
    for (i, l) in sim.links.iter().enumerate() {
        if l.stats.transmitted > 0 {
            println!(
                "  link{i:2} {:>2} -> {:<2} {:>8} / {:>4} / {:>4} / {:>4}",
                l.from,
                l.to,
                l.stats.transmitted,
                l.stats.dropped_overflow,
                l.stats.dropped_fault,
                l.stats.max_queue_len,
            );
        }
    }

    println!("\nper-flow: sent / retransmits / fast-rtx / timeouts / msgs done");
    for f in &sim.flows {
        println!(
            "  flow{} {:>7} / {:>4} / {:>3} / {:>3} / {:>4}",
            f.id,
            f.stats.packets_sent,
            f.stats.retransmits,
            f.stats.fast_retransmits,
            f.stats.timeouts,
            f.stats.msgs_completed,
        );
    }

    // The wireless hop forces retransmissions; TCP still delivers.
    let rtx: u64 = sim.flows.iter().map(|f| f.stats.retransmits).sum();
    println!(
        "\nthe 2% lossy hop caused {rtx} retransmissions — delays and losses like these are exactly \
         the dynamics the NTT learns from traces (each delivered retransmission is flagged in the \
         trace)"
    );
}
