//! Drift gate between the two paths a paper-shape model runs on: the
//! recording tape that trains it and the serving engine. Both fold the
//! front end with the same code (training on its tape every step, the
//! engine once at load), and both run the one attention op, which keeps
//! the softmax weights on a recording tape and nothing on an inference
//! tape but computes the same bits either way. The pinned drift is
//! therefore zero: every served prediction equals the recording-tape
//! `Ntt::forward` bit for bit, at initialization and after a few
//! optimizer steps, so a numeric divergence between training and serving
//! fails here instead of hiding inside an epsilon.

use ntt::core::{train, DelayHead, HeadTask, Ntt, NttConfig, TrainConfig, TrainMode};
use ntt::data::{DatasetConfig, DelayDataset, Normalizer, TraceData, NUM_FEATURES};
use ntt::nn::Head;
use ntt::serve::InferenceEngine;
use ntt::sim::scenarios::{run, Scenario, ScenarioConfig};
use ntt::sim::SimTime;
use ntt::tensor::{Tape, Tensor};

const WINDOWS: usize = 16;

/// Served and recording-tape predictions of one model over `WINDOWS`
/// random windows.
fn both_paths(ntt: Ntt, head: DelayHead, seed: u64) -> (Tensor, Tensor) {
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
    (served, recorded)
}

#[test]
fn engine_stays_within_the_pinned_drift_of_the_recording_tape_at_paper_shape() {
    for seed in 0..4u64 {
        let cfg = NttConfig {
            seed,
            ..NttConfig::default()
        };
        let fresh = || (Ntt::new(cfg), DelayHead::new(cfg.d_model, seed));
        let (ntt, head) = fresh();
        let (served, recorded) = both_paths(ntt, head, 40 + seed);
        assert_eq!(
            served, recorded,
            "seed {seed}: engine drifted at initialization"
        );

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
        let (served, recorded) = both_paths(ntt, head, 80 + seed);
        assert_eq!(
            served, recorded,
            "seed {seed}: engine drifted after training"
        );
    }
}
