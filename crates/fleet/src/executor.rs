//! The work-stealing executor and streaming ingestion sinks.
//!
//! Workers claim shards from a shared atomic cursor (the degenerate but
//! contention-free form of work stealing: one global deque, steals from
//! the front) and push finished traces over a channel. The collector
//! holds a reorder buffer and folds results into the [`ShardSink`] in
//! shard order, so ingestion is deterministic regardless of thread
//! count or completion order — a shard's trace is a pure function of
//! its config, and the sink always observes the same sequence.

use crate::grid::{Shard, SweepSpec};
use ntt_data::{RunData, TraceData};
use ntt_sim::scenarios::{run, RunTrace, Scenario};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Executor settings.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Worker threads; `0` = one per available core (capped at the
    /// shard count either way).
    pub threads: usize,
    /// Times a failed shard attempt (panic in the simulator, or an
    /// injected chaos fault) is retried before the failure propagates.
    /// Safe to retry blindly: a shard's trace is a pure function of its
    /// config, so a retried shard is byte-identical to one that
    /// succeeded first try — retries can change wall time, never data.
    pub max_retries: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            threads: 0,
            max_retries: 2,
        }
    }
}

impl FleetConfig {
    /// Run on exactly `threads` workers (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        FleetConfig {
            threads,
            ..Self::default()
        }
    }

    fn resolve(&self, n_shards: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let requested = if self.threads == 0 {
            auto
        } else {
            self.threads
        };
        requested.min(n_shards).max(1)
    }
}

/// Receives each finished shard **in shard order** (the reorder buffer
/// guarantees it). Implementations decide what to keep: raw traces,
/// folded datasets, files on disk, or just statistics.
pub trait ShardSink {
    fn on_shard(&mut self, shard: &Shard, trace: RunTrace);
}

/// Keeps every raw trace. Memory grows with the whole sweep; prefer
/// [`StreamToData`] for large grids.
#[derive(Default)]
pub struct CollectTraces {
    pub traces: Vec<RunTrace>,
}

impl CollectTraces {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_traces(self) -> Vec<RunTrace> {
        self.traces
    }
}

impl ShardSink for CollectTraces {
    fn on_shard(&mut self, _shard: &Shard, trace: RunTrace) {
        self.traces.push(trace);
    }
}

/// Streaming ingestion: folds each trace into compact
/// [`ntt_data::RunData`] the moment it arrives and drops the raw trace,
/// so peak memory is bounded by shards-in-flight plus the (much
/// smaller) preprocessed runs.
#[derive(Default)]
pub struct StreamToData {
    runs: Vec<RunData>,
}

impl StreamToData {
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish ingestion and hand the dataset over.
    pub fn into_data(self) -> Arc<TraceData> {
        TraceData::from_runs(self.runs)
    }
}

impl ShardSink for StreamToData {
    fn on_shard(&mut self, _shard: &Shard, trace: RunTrace) {
        self.runs.push(RunData::from_trace(&trace));
        // `trace` dropped here: streaming, not accumulation.
    }
}

/// Per-shard accounting.
#[derive(Debug, Clone, Copy)]
pub struct ShardStat {
    pub index: usize,
    pub scenario: Scenario,
    pub load_factor: f64,
    pub seed: u64,
    pub packets: usize,
    pub messages: usize,
    pub events: u64,
    pub drops: u64,
    /// Wall-clock time this shard's simulation took on its worker.
    pub wall: Duration,
}

/// Fleet-level aggregates for a finished sweep.
#[derive(Debug, Clone)]
pub struct FleetReport {
    pub shards: Vec<ShardStat>,
    pub threads: usize,
    /// End-to-end wall time of the fleet run (including ingestion).
    pub wall: Duration,
}

impl FleetReport {
    pub fn total_packets(&self) -> usize {
        self.shards.iter().map(|s| s.packets).sum()
    }

    pub fn total_messages(&self) -> usize {
        self.shards.iter().map(|s| s.messages).sum()
    }

    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    pub fn total_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.drops).sum()
    }

    /// Sum of per-shard simulation times (the serial-equivalent cost).
    pub fn cpu_time(&self) -> Duration {
        self.shards.iter().map(|s| s.wall).sum()
    }

    /// Traced packets simulated per wall-clock second.
    pub fn packets_per_sec(&self) -> f64 {
        self.total_packets() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Simulator events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.total_events() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} shards on {} threads in {:.2}s (cpu {:.2}s): {} packets, {} messages, {} drops, {:.0}k events/s",
            self.shards.len(),
            self.threads,
            self.wall.as_secs_f64(),
            self.cpu_time().as_secs_f64(),
            self.total_packets(),
            self.total_messages(),
            self.total_drops(),
            self.events_per_sec() / 1e3,
        )
    }
}

/// One shard, with bounded retry: a failed attempt — a panic inside the
/// simulator, or a fault injected at the `fleet.shard.attempt` chaos
/// site — is retried up to `max_retries` times with a short fixed
/// backoff before the failure propagates. Retrying is *correctness-
/// neutral*: `run(scenario, cfg)` is a pure function of the shard
/// config, so the attempt that finally succeeds produces the same bytes
/// any attempt would have. The chaos decision is keyed by
/// `(shard index, attempt)`, making the fault schedule a pure function
/// of the plan seed — invariant across thread counts and claim order.
fn run_shard_with_retries(shard: &Shard, index: usize, max_retries: usize) -> RunTrace {
    let mut attempt: usize = 0;
    loop {
        // Key = shard index in the high bits, attempt in the low bits:
        // an injected failure on attempt 0 does not doom attempt 1.
        let key = (index as u64) << 8 | (attempt as u64).min(0xff);
        let result: Result<RunTrace, Box<dyn std::any::Any + Send>> =
            if ntt_chaos::should_fail_keyed("fleet.shard.attempt", key) {
                Err(Box::new("chaos: injected shard failure"))
            } else {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(shard.scenario, &shard.cfg)
                }))
            };
        match result {
            Ok(trace) => return trace,
            Err(payload) => {
                if attempt >= max_retries {
                    // Budget exhausted: surface the original failure
                    // (the collector's recv unblocks and reports it).
                    std::panic::resume_unwind(payload);
                }
                attempt += 1;
                ntt_obs::counter!("fleet.shard_retries").inc();
                // Fixed exponential backoff, no clock read: the delay
                // schedule is part of the deterministic plan, not a
                // function of observed time.
                std::thread::sleep(Duration::from_millis(1u64 << attempt.min(6)));
            }
        }
    }
}

/// Run every shard of `spec` across a worker pool, folding results into
/// `sink` in shard order.
///
/// Determinism: each shard's trace is a pure function of `shard.cfg`
/// (the simulator threads its own seeded RNG), workers never share
/// state, and the reorder buffer serializes sink calls by shard index —
/// so the sink observes byte-identical input for any `threads` setting.
pub fn run_fleet(spec: &SweepSpec, cfg: &FleetConfig, sink: &mut dyn ShardSink) -> FleetReport {
    let shards = spec.expand();
    let n = shards.len();
    let threads = cfg.resolve(n);
    // Wall clock through the audited obs seam (lint R3): sweep timings
    // are report output only, never an input to the sweep itself.
    let started = ntt_obs::Stopwatch::start();
    let mut stats: Vec<Option<ShardStat>> = (0..n).map(|_| None).collect();

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, RunTrace, Duration)>();
    // Ingestion-progress throttle: workers may run at most `window`
    // shards ahead of the sink, which bounds the reorder buffer (and
    // thus peak raw-trace memory) at O(threads) even when one early
    // shard is much slower than everything behind it.
    let window = threads * 2;
    let emitted = std::sync::Mutex::new(0usize);
    let emitted_cv = std::sync::Condvar::new();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let shards = &shards;
            let next = &next;
            let emitted = &emitted;
            let emitted_cv = &emitted_cv;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= shards.len() {
                    break;
                }
                // Each cursor claim is a "steal" off the shared deque.
                ntt_obs::counter!("fleet.steals").inc();
                // Claims are strictly increasing, so the worker holding
                // the lowest unfinished shard always satisfies
                // `i < emitted + window` and progress is guaranteed.
                {
                    let mut e = emitted.lock().expect("fleet collector panicked");
                    while i >= e.saturating_add(window) {
                        e = emitted_cv.wait(e).expect("fleet collector panicked");
                    }
                }
                let shard = shards[i];
                let t0 = ntt_obs::Stopwatch::start();
                let trace = run_shard_with_retries(&shard, i, cfg.max_retries);
                if tx.send((i, trace, t0.elapsed())).is_err() {
                    break; // collector gone; nothing left to do
                }
            });
        }
        drop(tx);

        // If the sink panics below, throttled workers must still wake
        // or the scope's implicit join would deadlock; this guard lifts
        // the window on any exit from the collector.
        struct UnblockOnExit<'a>(&'a std::sync::Mutex<usize>, &'a std::sync::Condvar);
        impl Drop for UnblockOnExit<'_> {
            fn drop(&mut self) {
                *self.0.lock().unwrap_or_else(|e| e.into_inner()) = usize::MAX;
                self.1.notify_all();
            }
        }
        let _unblock = UnblockOnExit(&emitted, &emitted_cv);

        // Reorder buffer: hold out-of-order completions until all
        // predecessors arrived, then fold into the sink in shard order.
        let mut pending: BTreeMap<usize, (RunTrace, Duration)> = BTreeMap::new();
        let mut next_emit = 0usize;
        for _ in 0..n {
            let (i, trace, wall) = rx.recv().expect("fleet worker panicked");
            pending.insert(i, (trace, wall));
            // Depth observed on every arrival: how far completion order
            // ran ahead of shard order (1 = perfectly in order).
            ntt_obs::histogram!("fleet.reorder_depth").record(pending.len() as u64);
            while let Some((trace, wall)) = pending.remove(&next_emit) {
                let shard = &shards[next_emit];
                stats[next_emit] = Some(ShardStat {
                    index: shard.index,
                    scenario: shard.scenario,
                    load_factor: shard.load_factor,
                    seed: shard.cfg.seed,
                    packets: trace.packets.len(),
                    messages: trace.messages.len(),
                    events: trace.events,
                    drops: trace.drops,
                    wall,
                });
                ntt_obs::counter!("fleet.shards_run").inc();
                ntt_obs::histogram!("fleet.shard_ns")
                    .record(wall.as_nanos().min(u64::MAX as u128) as u64);
                sink.on_shard(shard, trace);
                next_emit += 1;
            }
            *emitted.lock().expect("fleet worker panicked") = next_emit;
            emitted_cv.notify_all();
        }
    });

    FleetReport {
        shards: stats
            .into_iter()
            .map(|s| s.expect("shard not run"))
            .collect(),
        threads,
        wall: started.elapsed(),
    }
}

/// Run a sweep and collect every raw trace (shard order).
pub fn run_fleet_traces(spec: &SweepSpec, cfg: &FleetConfig) -> (Vec<RunTrace>, FleetReport) {
    let mut sink = CollectTraces::new();
    let report = run_fleet(spec, cfg, &mut sink);
    (sink.into_traces(), report)
}

/// Run a sweep with streaming ingestion straight into a training
/// dataset (raw traces are dropped shard by shard).
pub fn run_fleet_dataset(spec: &SweepSpec, cfg: &FleetConfig) -> (Arc<TraceData>, FleetReport) {
    let mut sink = StreamToData::new();
    let report = run_fleet(spec, cfg, &mut sink);
    (sink.into_data(), report)
}

/// `n_runs` of one scenario on the sequential seed schedule
/// (`cfg.seed, cfg.seed+1, ...`): traces byte-identical to a serial
/// loop over `ntt_sim::scenarios::run`, fanned out over `threads`
/// workers (`0` = one per core).
pub fn run_many_parallel(
    scenario: Scenario,
    cfg: &ntt_sim::ScenarioConfig,
    n_runs: usize,
    threads: usize,
) -> Vec<RunTrace> {
    let spec = SweepSpec::single(scenario, *cfg, n_runs);
    run_fleet_traces(&spec, &FleetConfig::with_threads(threads)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ScenarioConfig;
    use ntt_sim::SimTime;

    fn fast_cfg(seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::tiny(seed);
        cfg.duration = SimTime::from_millis(500);
        cfg.drain = SimTime::from_millis(200);
        cfg
    }

    #[test]
    fn sink_sees_shards_in_order_regardless_of_threads() {
        let spec = SweepSpec::new(fast_cfg(1))
            .scenarios(vec![Scenario::Pretrain, Scenario::Case1])
            .runs_per_cell(3);

        struct OrderCheck(Vec<usize>);
        impl ShardSink for OrderCheck {
            fn on_shard(&mut self, shard: &Shard, _trace: RunTrace) {
                self.0.push(shard.index);
            }
        }
        let mut sink = OrderCheck(Vec::new());
        let report = run_fleet(&spec, &FleetConfig::with_threads(4), &mut sink);
        assert_eq!(sink.0, (0..6).collect::<Vec<_>>());
        assert_eq!(report.shards.len(), 6);
        assert!(report.total_events() > 0);
        assert_eq!(report.threads, 4);
    }

    #[test]
    fn report_aggregates_match_traces() {
        let spec = SweepSpec::new(fast_cfg(2)).runs_per_cell(2);
        let (traces, report) = run_fleet_traces(&spec, &FleetConfig::default());
        assert_eq!(traces.len(), 2);
        assert_eq!(
            report.total_packets(),
            traces.iter().map(|t| t.packets.len()).sum::<usize>()
        );
        assert_eq!(
            report.total_events(),
            traces.iter().map(|t| t.events).sum::<u64>()
        );
        assert!(report.packets_per_sec() > 0.0);
        assert!(!report.summary().is_empty());
    }
}
