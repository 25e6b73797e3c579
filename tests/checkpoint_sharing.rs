//! The Fig. 1 sharing story: a pre-trained model survives a checkpoint
//! round-trip bit-for-bit and behaves identically afterwards — the
//! prerequisite for "share pre-trained models instead of data".

use ntt::core::{
    evaluate, train, Aggregation, Checkpoint, DelayHead, HeadTask, Ntt, NttConfig, ParStrategy,
    TrainConfig, TrainMode,
};
use ntt::data::{DatasetConfig, DelayDataset, TraceData};
use ntt::sim::scenarios::{run, Scenario, ScenarioConfig};

fn cfg() -> NttConfig {
    NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 },
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        seed: 31,
        ..NttConfig::default()
    }
}

#[test]
fn shared_checkpoint_reproduces_evaluation_exactly() {
    let traces = vec![run(Scenario::Pretrain, &ScenarioConfig::tiny(55))];
    let (train_ds, test) = DelayDataset::build(
        TraceData::from_traces(&traces),
        DatasetConfig {
            seq_len: 64,
            stride: 8,
            test_fraction: 0.2,
        },
        None,
    );
    let model = Ntt::new(cfg());
    let head = DelayHead::new(16, 31);
    train(
        &model,
        &HeadTask::new(&head, &train_ds),
        &TrainConfig {
            epochs: 1,
            batch_size: 16,
            max_steps_per_epoch: Some(10),
            ..TrainConfig::default()
        },
        TrainMode::Full,
    );
    let par = ParStrategy::from_env();
    let before = evaluate(&model, &HeadTask::new(&head, &test), 32, &par);

    let path = std::env::temp_dir().join(format!("ntt_share_{}.ckpt", std::process::id()));
    Checkpoint::capture(&model, &[&head], None, vec![])
        .unwrap()
        .save(&path)
        .unwrap();

    // "Download" at another site: the file alone rebuilds model and head.
    let downloaded = Checkpoint::load(&path).unwrap();
    let shared = HeadTask::new(downloaded.head("delay").unwrap(), &test);
    let after = evaluate(&downloaded.model, &shared, 32, &par);
    assert_eq!(before.mse_norm, after.mse_norm, "bit-exact behaviour");
    std::fs::remove_file(path).ok();
}

#[test]
fn self_describing_checkpoint_shares_without_any_receiver_setup() {
    // The v2 sharing story: the receiver has the FILE and nothing else —
    // no NttConfig, no pre-built heads, no normalizer — and still gets a
    // bit-identical evaluation.
    use ntt::core::Experiment;
    use ntt::data::TraceData;

    let trace = run(Scenario::Pretrain, &ScenarioConfig::tiny(56));
    let data = TraceData::from_traces(&[trace]);
    let exp = Experiment::new(cfg()).stride(8).with_train(TrainConfig {
        epochs: 1,
        batch_size: 16,
        max_steps_per_epoch: Some(10),
        ..TrainConfig::default()
    });
    let pre = exp.pretrain_on(data.clone(), "sharing test".into(), None);
    let before = pre.eval_delay_on(data.clone());

    let path = std::env::temp_dir().join(format!("ntt_share_v2_{}.ckpt", std::process::id()));
    pre.save(&path).unwrap();

    // Receiver side: file → runnable (Ntt, heads, norm, provenance).
    let loaded = Checkpoint::load(&path).unwrap();
    assert_eq!(loaded.model.cfg.d_model, cfg().d_model);
    assert_eq!(loaded.heads.len(), 1);
    assert!(loaded.norm.is_some(), "normalizer travels with the model");
    assert!(loaded.provenance.iter().any(|(k, _)| k == "scenario_grid"));
    let shared = ntt::core::Pretrained::load(&path).unwrap();
    let after = shared.eval_delay_on(data);
    assert_eq!(before.mse_norm, after.mse_norm, "bit-exact behaviour");
    std::fs::remove_file(path).ok();
}

#[test]
fn checkpoint_rejects_architecture_mismatch() {
    let mut ckpt = Checkpoint::capture(&Ntt::new(cfg()), &[], None, vec![]).unwrap();
    let path = std::env::temp_dir().join(format!("ntt_arch_{}.ckpt", std::process::id()));
    // A file describing a different width cannot absorb these weights.
    ckpt.config.d_model = 32;
    ckpt.config.d_ff = 64;
    ckpt.save(&path).unwrap();
    assert!(Checkpoint::load(&path).is_err());
    std::fs::remove_file(path).ok();
}
