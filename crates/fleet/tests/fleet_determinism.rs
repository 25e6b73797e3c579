//! The fleet's core guarantee: thread count is invisible in the output.
//! An 8-shard grid run on 1 thread and on 4+ threads must produce
//! byte-identical trace sets, and streaming ingestion must match the
//! batch path.

use ntt_data::TraceData;
use ntt_fleet::{
    run_fleet_dataset, run_fleet_traces, run_many_parallel, FleetConfig, SeedSchedule, SweepSpec,
};
use ntt_sim::scenarios::{Scenario, ScenarioConfig};
use ntt_sim::SimTime;

/// A fast config: full tiny topology, short runs.
fn fast_cfg(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny(seed);
    cfg.duration = SimTime::from_millis(800);
    cfg.drain = SimTime::from_millis(200);
    cfg
}

/// 2 scenarios x 2 loads x 2 runs = 8 shards over 3 topology families.
fn grid() -> SweepSpec {
    SweepSpec::new(fast_cfg(42))
        .scenarios(vec![
            Scenario::ParkingLot { hops: 4 },
            Scenario::LeafSpine {
                leaves: 3,
                spines: 2,
            },
        ])
        .load_factors(vec![0.6, 1.0])
        .runs_per_cell(2)
}

#[test]
fn eight_shards_identical_on_one_and_four_threads() {
    let spec = grid();
    assert_eq!(spec.len(), 8, "acceptance criterion wants >= 8 shards");
    let (serial, serial_report) = run_fleet_traces(&spec, &FleetConfig::with_threads(1));
    let (parallel, parallel_report) = run_fleet_traces(&spec, &FleetConfig::with_threads(4));

    assert_eq!(serial_report.threads, 1);
    assert_eq!(parallel_report.threads, 4);
    assert_eq!(serial.len(), 8);
    assert_eq!(parallel.len(), 8);
    for (i, (a, b)) in serial.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(a.events, b.events, "shard {i} event count differs");
        assert_eq!(a.drops, b.drops, "shard {i} drop count differs");
        assert_eq!(a.packets, b.packets, "shard {i} packet records differ");
        assert_eq!(a.messages, b.messages, "shard {i} message records differ");
    }
    // The grid must actually produce diverse shards, not 8 copies.
    let sizes: std::collections::HashSet<usize> = serial.iter().map(|t| t.packets.len()).collect();
    assert!(
        sizes.len() >= 4,
        "shards should differ across the grid: {sizes:?}"
    );
}

#[test]
fn run_many_parallel_matches_the_serial_reference() {
    // The reference is an inline serial loop (seeds `cfg.seed,
    // cfg.seed+1, ...`): the parallel path must reproduce it byte for
    // byte at any thread count.
    let cfg = fast_cfg(7);
    let serial: Vec<_> = (0..3u64)
        .map(|i| {
            let mut c = cfg;
            c.seed = cfg.seed + i;
            ntt_sim::scenarios::run(Scenario::Case1, &c)
        })
        .collect();
    let fleet = run_many_parallel(Scenario::Case1, &cfg, 3, 4);
    assert_eq!(serial.len(), fleet.len());
    for (a, b) in serial.iter().zip(fleet.iter()) {
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.events, b.events);
    }
}

#[test]
fn streaming_ingestion_matches_batch_construction() {
    let spec = SweepSpec::new(fast_cfg(3))
        .scenarios(vec![Scenario::Pretrain, Scenario::Case1])
        .runs_per_cell(2);
    let (streamed, _) = run_fleet_dataset(&spec, &FleetConfig::default());
    let (traces, _) = run_fleet_traces(&spec, &FleetConfig::default());
    let batch = TraceData::from_traces(&traces);

    assert_eq!(streamed.runs.len(), batch.runs.len());
    assert_eq!(streamed.n_packets(), batch.n_packets());
    assert_eq!(streamed.n_messages(), batch.n_messages());
    for (rs, rb) in streamed.runs.iter().zip(batch.runs.iter()) {
        assert_eq!(rs.pkts.len(), rb.pkts.len());
        assert_eq!(rs.anchors.len(), rb.anchors.len());
        for (ps, pb) in rs.pkts.iter().zip(rb.pkts.iter()) {
            assert_eq!(ps.t, pb.t);
            assert_eq!(ps.delay, pb.delay);
            assert_eq!(ps.size, pb.size);
            assert_eq!(ps.receiver, pb.receiver);
        }
    }
}

#[test]
fn seed_schedules_produce_different_but_reproducible_grids() {
    let spec = grid();
    let mixed: Vec<u64> = spec.expand().iter().map(|s| s.cfg.seed).collect();
    let sequential: Vec<u64> = spec
        .clone()
        .seed_schedule(SeedSchedule::Sequential)
        .expand()
        .iter()
        .map(|s| s.cfg.seed)
        .collect();
    assert_ne!(mixed, sequential);
    assert_eq!(
        mixed,
        grid()
            .expand()
            .iter()
            .map(|s| s.cfg.seed)
            .collect::<Vec<_>>()
    );
}
