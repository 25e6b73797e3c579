//! Cross-crate integration tests: simulator → dataset → model →
//! training → evaluation, exercising the public API exactly as the
//! examples and the paper's workflow do.

use ntt::core::{
    evaluate, train, Aggregation, DelayHead, HeadTask, MctHead, Ntt, NttConfig, ParStrategy,
    TrainConfig, TrainMode,
};
use ntt::data::{DatasetConfig, DelayDataset, FeatureMask, MctDataset, TraceData};
use ntt::fleet::run_many_parallel;
use ntt::nn::Module;
use ntt::sim::scenarios::{run, Scenario, ScenarioConfig};
use std::sync::Arc;

fn model_cfg() -> NttConfig {
    NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 }, // 64-pkt windows
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        seed: 5,
        ..NttConfig::default()
    }
}

fn ds_cfg() -> DatasetConfig {
    DatasetConfig {
        seq_len: 64,
        stride: 8,
        test_fraction: 0.2,
    }
}

fn quick_train() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 2e-3,
        max_steps_per_epoch: Some(15),
        ..TrainConfig::default()
    }
}

#[test]
fn sim_to_training_pipeline_learns() {
    let traces = run_many_parallel(Scenario::Pretrain, &ScenarioConfig::tiny(100), 2, 0);
    let (train_ds, test) = DelayDataset::build(TraceData::from_traces(&traces), ds_cfg(), None);
    assert!(train_ds.len() > 100 && test.len() > 10);

    let model = Ntt::new(model_cfg());
    let head = DelayHead::new(16, 0);
    let (train_task, test_task) = (HeadTask::new(&head, &train_ds), HeadTask::new(&head, &test));
    let par = ParStrategy::from_env();
    let before = evaluate(&model, &test_task, 32, &par);
    let report = train(&model, &train_task, &quick_train(), TrainMode::Full);
    let after = evaluate(&model, &test_task, 32, &par);
    assert!(
        after.mse_norm < before.mse_norm,
        "training must improve held-out MSE: {} -> {}",
        before.mse_norm,
        after.mse_norm
    );
    assert!(report.final_loss() < report.epoch_losses[0]);
}

#[test]
fn task_transfer_delay_trunk_to_mct_head() {
    let traces = run_many_parallel(Scenario::Case1, &ScenarioConfig::tiny(101), 2, 0);
    let data = TraceData::from_traces(&traces);
    let (d_train, _) = DelayDataset::build(Arc::clone(&data), ds_cfg(), None);
    let model = Ntt::new(model_cfg());
    let d_head = DelayHead::new(16, 1);
    let d_task = HeadTask::new(&d_head, &d_train);
    train(&model, &d_task, &quick_train(), TrainMode::Full);

    // Swap the decoder for the new task, freeze the trunk.
    let (m_train, m_test) = MctDataset::build(data, ds_cfg(), d_train.norm.clone());
    assert!(
        m_train.len() > 20,
        "need MCT anchors, got {}",
        m_train.len()
    );
    let m_head = MctHead::new(16, 2);
    let trunk_before: Vec<_> = model.params().iter().map(|p| p.value()).collect();
    let m_task = HeadTask::new(&m_head, &m_train);
    train(&model, &m_task, &quick_train(), TrainMode::DecoderOnly);
    for (p, b) in model.params().iter().zip(trunk_before) {
        assert_eq!(p.value(), b, "frozen trunk moved: {}", p.name());
    }
    let m_test_task = HeadTask::new(&m_head, &m_test);
    let ev = evaluate(&model, &m_test_task, 32, &ParStrategy::from_env());
    assert!(ev.mse_norm.is_finite());
}

#[test]
fn feature_ablation_without_delay_cannot_predict_delay() {
    // The paper's strongest ablation: without delay information the
    // model "can logically not produce any sensible prediction".
    let traces = vec![run(Scenario::Pretrain, &ScenarioConfig::tiny(102))];
    let data = TraceData::from_traces(&traces);
    let (train_full, test_full) = DelayDataset::build(Arc::clone(&data), ds_cfg(), None);
    let (train_blind, test_blind) = (
        train_full.with_mask(FeatureMask::without_delay()),
        test_full.with_mask(FeatureMask::without_delay()),
    );

    let full = Ntt::new(model_cfg());
    let full_head = DelayHead::new(16, 3);
    let par = ParStrategy::from_env();
    let full_task = HeadTask::new(&full_head, &train_full);
    train(&full, &full_task, &quick_train(), TrainMode::Full);
    let ev_full = evaluate(&full, &HeadTask::new(&full_head, &test_full), 32, &par);

    let blind = Ntt::new(NttConfig {
        seed: 6,
        ..model_cfg()
    });
    let blind_head = DelayHead::new(16, 4);
    let blind_task = HeadTask::new(&blind_head, &train_blind);
    train(&blind, &blind_task, &quick_train(), TrainMode::Full);
    let ev_blind = evaluate(&blind, &HeadTask::new(&blind_head, &test_blind), 32, &par);

    assert!(
        ev_blind.mse_norm > ev_full.mse_norm,
        "delay-blind model must be worse: {} vs {}",
        ev_blind.mse_norm,
        ev_full.mse_norm
    );
}

#[test]
fn all_three_aggregation_variants_train() {
    let traces = vec![run(Scenario::Pretrain, &ScenarioConfig::tiny(103))];
    let data = TraceData::from_traces(&traces);
    for agg in [
        Aggregation::MultiScale { block: 1 },
        Aggregation::Fixed { block: 1 },
        Aggregation::None,
    ] {
        let cfg = NttConfig {
            aggregation: agg,
            ..model_cfg()
        };
        let (train_ds, test) = DelayDataset::build(
            Arc::clone(&data),
            DatasetConfig {
                seq_len: cfg.seq_len(),
                ..ds_cfg()
            },
            None,
        );
        let model = Ntt::new(cfg);
        let head = DelayHead::new(16, 7);
        let task = HeadTask::new(&head, &train_ds);
        let rep = train(&model, &task, &quick_train(), TrainMode::Full);
        assert!(rep.final_loss().is_finite(), "agg {agg:?} diverged");
        let test_task = HeadTask::new(&head, &test);
        let ev = evaluate(&model, &test_task, 32, &ParStrategy::from_env());
        assert!(ev.mse_norm.is_finite(), "agg {agg:?} eval broken");
    }
}

#[test]
fn experiment_covers_both_tasks_end_to_end() {
    // One pipeline object, both task heads: delay (pre-training) and
    // MCT (new task) — through the same generic engine, sharing one
    // normalizer.
    use ntt::core::{Experiment, FinetuneOpts};

    let traces = run_many_parallel(Scenario::Case1, &ScenarioConfig::tiny(105), 2, 0);
    let data = TraceData::from_traces(&traces);
    let exp = Experiment::new(model_cfg())
        .stride(8)
        .with_train(quick_train());
    let pre = exp.pretrain_on(Arc::clone(&data), "e2e case1 x2".into(), None);
    assert!(pre.eval.unwrap().mse_norm.is_finite());

    // Decoder-only MCT fine-tuning must leave the shared trunk
    // untouched (it trains a weight clone).
    let trunk_before: Vec<_> = pre.model.params().iter().map(|p| p.value()).collect();
    let mct = pre.finetune_mct_on(Arc::clone(&data), &FinetuneOpts::decoder_only());
    assert_eq!(mct.task, "mct");
    assert_eq!(mct.head.kind(), "mct");
    assert!(mct.eval.mse_norm.is_finite());
    assert_eq!(
        mct.baselines.len(),
        2,
        "MCT ships with both naive baselines"
    );
    for (p, b) in pre.model.params().iter().zip(trunk_before) {
        assert_eq!(p.value(), b, "shared trunk moved: {}", p.name());
    }
}

#[test]
fn case2_receiver_feature_matters() {
    // On the larger topology, receivers sit at different depths; the
    // receiver-ID feature must carry measurable signal (the paper's
    // "no addressing" in-text result).
    let traces = run_many_parallel(Scenario::Case2, &ScenarioConfig::tiny(104), 2, 0);
    let data = TraceData::from_traces(&traces);
    let (train, _) = DelayDataset::build(Arc::clone(&data), ds_cfg(), None);
    // Raw windows contain at least two distinct receiver groups.
    let mut groups = std::collections::HashSet::new();
    for i in 0..train.len().min(200) {
        for p in train.window_packets(i) {
            groups.insert(p.receiver as u32);
        }
    }
    assert!(
        groups.len() >= 2,
        "case 2 must mix receivers, saw {groups:?}"
    );
}
