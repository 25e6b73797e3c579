//! Drift gate between the two paths a paper-shape model runs on: the
//! recording tape that trains it — classic attention chain — and the
//! serving engine — fused attention. Both fold the front end with the
//! same code (training on its tape every step, the engine once at
//! load), so the front contributes no drift at all; what is left is the
//! attention's rounding, and the contract elsewhere is 1e-4. This test
//! pins the worst relative difference at **1e-5**, more than ten times
//! what is measured (6.0e-7; 4.9e-7 when training still ran the
//! unfolded front, whose trained weights differ), so drift between
//! training and serving numerics fails here as a number instead of
//! widening an epsilon.

use ntt::core::{train, DelayHead, HeadTask, Ntt, NttConfig, TrainConfig, TrainMode};
use ntt::data::{DatasetConfig, DelayDataset, Normalizer, TraceData, NUM_FEATURES};
use ntt::nn::Head;
use ntt::serve::InferenceEngine;
use ntt::sim::scenarios::{run, Scenario, ScenarioConfig};
use ntt::sim::SimTime;
use ntt::tensor::{Tape, Tensor};

const PINNED: f32 = 1e-5;
const WINDOWS: usize = 16;

/// Worst `|engine − recording| / (1 + |recording|)` over `WINDOWS`
/// random windows of one model.
fn worst_drift(ntt: Ntt, head: DelayHead, seed: u64) -> f32 {
    let x = Tensor::randn(&[WINDOWS, ntt.cfg.seq_len(), NUM_FEATURES], seed);
    let engine = InferenceEngine::from_parts(
        ntt,
        vec![Box::new(head) as Box<dyn Head>],
        Normalizer::identity(NUM_FEATURES),
    );
    let served = engine.predict("delay", &x, None);
    let rec = Tape::new();
    let encoded = engine.model().forward(&rec, rec.input(x));
    let recorded = engine.heads()[0].forward_head(&rec, encoded, None).value();
    served
        .data()
        .iter()
        .zip(recorded.data())
        .map(|(s, r)| (s - r).abs() / (1.0 + r.abs()))
        .fold(0.0, f32::max)
}

#[test]
fn engine_stays_within_the_pinned_drift_of_the_recording_tape_at_paper_shape() {
    let mut worst = 0.0f32;
    for seed in 0..4u64 {
        let cfg = NttConfig {
            seed,
            ..NttConfig::default()
        };
        let fresh = || (Ntt::new(cfg), DelayHead::new(cfg.d_model, seed));
        let (ntt, head) = fresh();
        worst = worst.max(worst_drift(ntt, head, 40 + seed));

        // The same with the weights moved off their initialization
        // (biases included: they start at zero) by a few optimizer steps.
        let (ntt, head) = fresh();
        // (Long enough a run for a few dozen 1024-packet windows.)
        let scenario = ScenarioConfig {
            duration: SimTime::from_secs(12),
            ..ScenarioConfig::tiny(31 + seed)
        };
        let traces = vec![run(Scenario::Pretrain, &scenario)];
        let (train_ds, _) = DelayDataset::build(
            TraceData::from_traces(&traces),
            DatasetConfig {
                seq_len: cfg.seq_len(),
                stride: 16,
                test_fraction: 0.2,
            },
            None,
        );
        let steps = TrainConfig {
            epochs: 1,
            batch_size: 8,
            max_steps_per_epoch: Some(4),
            seed,
            ..TrainConfig::default()
        };
        let report = train(
            &ntt,
            &HeadTask::new(&head, &train_ds),
            &steps,
            TrainMode::Full,
        );
        assert_eq!(report.steps, 4);
        worst = worst.max(worst_drift(ntt, head, 80 + seed));
    }
    eprintln!("worst train/serve drift at paper shape: {worst:e}");
    assert!(
        worst <= PINNED,
        "train/serve drift {worst:e} exceeds the pinned {PINNED:e}"
    );
}
