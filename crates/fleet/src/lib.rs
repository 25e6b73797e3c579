//! # ntt-fleet
//!
//! Parallel scenario-fleet engine for the Network Traffic Transformer
//! reproduction: dataset generation that scales with cores and with
//! scenario diversity.
//!
//! The paper's central claim is that the NTT generalizes only if its
//! pre-training data spans diverse network conditions. A serial loop
//! over `ntt_sim::scenarios::run` can only produce one scenario at
//! a time on one core; this crate replaces it with:
//!
//! * [`SweepSpec`] — a declarative (scenario × load × seed) grid that
//!   expands into a [`Shard`] list with deterministic per-shard seed
//!   derivation ([`SeedSchedule`]);
//! * [`run_fleet`] — a work-stealing multi-threaded executor
//!   (`std::thread::scope` + channels, no external deps) whose output
//!   is **provably identical for any thread count**: shard traces
//!   depend only on the shard config, and a reorder buffer folds
//!   finished shards into the sink in grid order;
//! * [`ShardSink`] streaming ingestion — each finished shard's
//!   `RunTrace` is folded straight into compact [`ntt_data::RunData`],
//!   so peak memory stays bounded by shards-in-flight instead of all raw
//!   traces;
//! * [`FleetReport`] — fleet-level aggregates (simulated packets/sec,
//!   drops, per-shard timing);
//! * [`ordered_fanout`] — the executor's worker pool and reorder buffer
//!   on their own, which the trainer's microbatch fan-out runs on too.
//!
//! ```
//! use ntt_fleet::{FleetConfig, SweepSpec, run_fleet_dataset};
//! use ntt_sim::scenarios::{Scenario, ScenarioConfig};
//! use ntt_sim::SimTime;
//!
//! let mut base = ScenarioConfig::tiny(0);
//! base.duration = SimTime::from_millis(500);
//! let spec = SweepSpec::new(base)
//!     .scenarios(vec![Scenario::Pretrain, Scenario::ParkingLot { hops: 4 }])
//!     .load_factors(vec![0.5, 1.0])
//!     .runs_per_cell(1);
//! assert_eq!(spec.len(), 4);
//!
//! let (data, report) = run_fleet_dataset(&spec, &FleetConfig::default());
//! assert_eq!(data.runs.len(), 4);
//! assert!(report.total_packets() > 0);
//! ```

mod executor;
mod fanout;
mod grid;

pub use executor::{
    run_fleet, run_fleet_dataset, run_fleet_traces, run_many_parallel, CollectTraces, FleetConfig,
    FleetReport, ShardSink, ShardStat, StreamToData,
};
pub use fanout::{ordered_fanout, worker_count};
pub use grid::{splitmix64, Scenario, ScenarioConfig, SeedSchedule, Shard, SweepSpec};
