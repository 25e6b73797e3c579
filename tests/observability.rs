//! Observability contracts at the workspace level: deterministic
//! metrics are bit-stable across thread counts, and flipping the kill
//! switch can never change a numeric result.

use ntt::core::{
    train, Aggregation, DelayHead, HeadTask, Ntt, NttConfig, ParStrategy, TrainConfig, TrainMode,
};
use ntt::data::{DatasetConfig, DelayDataset, TraceData};
use ntt::sim::scenarios::{run, Scenario, ScenarioConfig};

/// Deterministic slice of the registry around one training run:
/// logical-event counters and computed-value gauges (never wall-clock).
#[derive(Debug, PartialEq)]
struct TrainDeltas {
    steps: u64,
    /// (count, sum) of the microbatch fan-out histogram — shard counts
    /// are a pure function of batch size and `microbatch`.
    fanout: (u64, u64),
    /// Last pre-clip gradient norm, bit-exact.
    grad_norm_bits: u64,
    workers_seen: f64,
}

fn counter(name: &str) -> u64 {
    ntt::obs::snapshot().counter(name).unwrap_or(0)
}

fn fanout_hist() -> (u64, u64) {
    ntt::obs::snapshot()
        .histogram("train.fanout_shards")
        .map_or((0, 0), |h| (h.count, h.sum))
}

fn train_once(threads: usize) -> (Vec<f64>, TrainDeltas) {
    let steps0 = counter("train.steps");
    let fanout0 = fanout_hist();

    let traces = vec![run(Scenario::Pretrain, &ScenarioConfig::tiny(5))];
    let (train_ds, _) = DelayDataset::build(
        TraceData::from_traces(&traces),
        DatasetConfig {
            seq_len: 64,
            stride: 8,
            test_fraction: 0.2,
        },
        None,
    );
    let cfg = NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 },
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        dropout: 0.1,
        seed: 13,
        ..NttConfig::default()
    };
    let model = Ntt::new(cfg);
    let head = DelayHead::new(16, 13);
    let report = train(
        &model,
        &HeadTask::new(&head, &train_ds),
        &TrainConfig {
            epochs: 1,
            batch_size: 16,
            max_steps_per_epoch: Some(6),
            par: ParStrategy::with_threads(threads),
            ..TrainConfig::default()
        },
        TrainMode::Full,
    );

    let steps1 = counter("train.steps");
    let fanout1 = fanout_hist();
    let snap = ntt::obs::snapshot();
    let deltas = TrainDeltas {
        steps: steps1 - steps0,
        fanout: (fanout1.0 - fanout0.0, fanout1.1 - fanout0.1),
        grad_norm_bits: snap.gauge("train.grad_norm").unwrap_or(f64::NAN).to_bits(),
        workers_seen: snap.gauge("train.fanout_workers").unwrap_or(f64::NAN),
    };
    (report.epoch_losses, deltas)
}

/// One test body (not several) because the phases toggle the
/// process-global kill switch and must not interleave.
#[test]
fn deterministic_metrics_are_thread_count_invariant_and_inert() {
    ntt::obs::set_enabled(true);

    // --- Bit-stability: NTT_THREADS-style 1 vs 4 worker runs ---
    let (losses_1, deltas_1) = train_once(1);
    let (losses_4, deltas_4) = train_once(4);
    assert_eq!(losses_1, losses_4, "training itself must be invariant");
    assert_eq!(deltas_1.steps, 6, "6 capped steps → 6 counter bumps");
    // Same steps, same shard decomposition, same final grad norm —
    // only the worker gauge is allowed to differ.
    assert_eq!(deltas_1.steps, deltas_4.steps);
    assert_eq!(deltas_1.fanout, deltas_4.fanout);
    assert_eq!(
        deltas_1.grad_norm_bits, deltas_4.grad_norm_bits,
        "grad-norm gauge must be bit-stable across thread counts"
    );
    assert_eq!(deltas_1.workers_seen, 1.0);
    assert!(deltas_4.workers_seen > 1.0, "4-thread run used >1 worker");

    // --- Inertness: the kill switch silences metrics, not numerics ---
    ntt::obs::set_enabled(false);
    let steps_before = counter("train.steps");
    let (losses_off, _) = train_once(1);
    assert_eq!(
        losses_off, losses_1,
        "disabling observability must not change a loss"
    );
    assert_eq!(
        counter("train.steps"),
        steps_before,
        "disabled counters must not move"
    );
    ntt::obs::set_enabled(true);

    // --- Export round-trip over real training metrics ---
    let snap = ntt::obs::snapshot();
    let json = snap.to_json();
    assert!(json.contains("\"train.steps\""));
    assert!(json.contains("\"train.fanout_shards\""));
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE train_steps counter"));
    assert!(prom.contains("train_step_ns{quantile=\"0.5\"}"));
}
