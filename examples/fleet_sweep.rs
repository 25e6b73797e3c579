//! Fleet quickstart: expand a declarative (scenario × load × seed) grid
//! into shards, run it serially and then on all cores, verify the
//! traces are identical, and stream the parallel run straight into a
//! training dataset.
//!
//! This is the dataset-diversity story of the paper operationalized:
//! one spec describes four topology families at two load levels, and
//! the fleet turns it into a pre-training corpus at the speed of the
//! machine, not the speed of one core.
//!
//! Run: `cargo run --release --example fleet_sweep`

use ntt::fleet::{run_fleet_dataset, run_fleet_traces, FleetConfig, SweepSpec};
use ntt::sim::scenarios::{Scenario, ScenarioConfig};
use ntt::sim::SimTime;
use std::time::Instant;

fn main() {
    // 1. Declare the grid: 4 topology families x 2 load levels x 1 seed
    //    = 8 shards. Every shard gets a deterministically derived seed.
    let mut base = ScenarioConfig::tiny(42);
    base.duration = SimTime::from_secs(20);
    base.drain = SimTime::from_millis(500);
    let spec = SweepSpec::new(base)
        .scenarios(vec![
            Scenario::Pretrain,
            Scenario::Case1,
            Scenario::ParkingLot { hops: 5 },
            Scenario::LeafSpine {
                leaves: 4,
                spines: 2,
            },
        ])
        .load_factors(vec![0.7, 1.0])
        .runs_per_cell(1);
    println!("grid: {} shards", spec.len());
    for shard in spec.expand() {
        println!(
            "  #{:<2} {:<14} load {:.1}  seed {:#018x}",
            shard.index,
            shard.scenario.label(),
            shard.load_factor,
            shard.cfg.seed
        );
    }

    // 2. Serial reference: the same shards, one at a time.
    let t0 = Instant::now();
    let (serial_traces, serial_report) = run_fleet_traces(&spec, &FleetConfig::with_threads(1));
    let serial_wall = t0.elapsed();
    println!("\nserial   : {}", serial_report.summary());

    // 3. The fleet: same spec, every core.
    let t0 = Instant::now();
    let (fleet_traces, fleet_report) = run_fleet_traces(&spec, &FleetConfig::default());
    let fleet_wall = t0.elapsed();
    println!("parallel : {}", fleet_report.summary());
    println!(
        "speedup  : {:.2}x on {} threads",
        serial_wall.as_secs_f64() / fleet_wall.as_secs_f64().max(1e-9),
        fleet_report.threads
    );
    if fleet_report.threads == 1 {
        println!("           (single-core host: the fleet degrades to serial; speedup scales with cores)");
    }

    // 4. Thread count must be invisible in the data.
    assert_eq!(serial_traces.len(), fleet_traces.len());
    for (a, b) in serial_traces.iter().zip(fleet_traces.iter()) {
        assert_eq!(a.packets, b.packets, "parallelism must not change traces");
    }
    println!("determinism: serial and parallel traces are byte-identical");

    // 5. Streaming ingestion: shards fold into a compact dataset as
    //    they finish; raw traces never accumulate.
    let (data, report) = run_fleet_dataset(&spec, &FleetConfig::default());
    println!(
        "\nstreamed dataset: {} runs, {} packets, {} message anchors ({:.0}k events/s)",
        data.runs.len(),
        data.n_packets(),
        data.n_messages(),
        report.events_per_sec() / 1e3
    );
    let slowest = report
        .shards
        .iter()
        .max_by_key(|s| s.wall)
        .expect("non-empty fleet");
    println!(
        "slowest shard: #{} {} ({:.2}s, {} events)",
        slowest.index,
        slowest.scenario.label(),
        slowest.wall.as_secs_f64(),
        slowest.events
    );

    // 6. The sweep→training bridge: hand the streamed dataset straight
    //    to the Experiment pipeline (a short pre-training, to show the
    //    whole path: grid spec -> fleet -> windows -> trained model).
    use ntt::core::{Experiment, NttConfig, TrainConfig};
    let exp = Experiment::new(NttConfig {
        aggregation: ntt::core::Aggregation::MultiScale { block: 1 },
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        ..NttConfig::default()
    })
    .stride(16)
    .with_train(TrainConfig {
        epochs: 1,
        batch_size: 32,
        max_steps_per_epoch: Some(10),
        ..TrainConfig::default()
    });
    let pre = exp.pretrain_on(data, spec.describe(), Some(report));
    println!(
        "\npretrained on the sweep: {} windows from 4 topology families, held-out MSE {:.4}",
        pre.meta("train_windows").unwrap(),
        pre.eval.unwrap().mse_norm
    );
}
