//! Reproducibility guarantees: everything in this repository is a pure
//! function of its seeds.

use ntt::core::{
    train, Aggregation, DelayHead, HeadTask, Ntt, NttConfig, ParStrategy, TrainConfig, TrainMode,
};
use ntt::data::{DatasetConfig, DelayDataset, TraceData};
use ntt::sim::scenarios::{run, Scenario, ScenarioConfig};

#[test]
fn experiment_pipeline_reproduces_manual_workflow_bit_exactly() {
    // The API redesign is behavior-preserving: a seeded pretrain →
    // share → fine-tune run through `Experiment` must produce the SAME
    // bits — epoch losses, gradient norms, final parameters, eval MSE —
    // as the hand-wired `train`/`evaluate` workflow it wraps.
    use ntt::core::{evaluate, Experiment, FinetuneOpts, MctHead};
    use ntt::data::MctDataset;
    use ntt::fleet::{run_many_parallel, SweepSpec};
    use ntt::nn::Module;
    use ntt::sim::SimTime;
    use ntt::tensor::Param;
    use std::sync::Arc;

    let model_cfg = NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 },
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        seed: 41,
        ..NttConfig::default()
    };
    let ds_cfg = DatasetConfig {
        seq_len: 64,
        stride: 8,
        test_fraction: 0.2,
    };
    let train_cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 2e-3,
        max_steps_per_epoch: Some(6),
        ..TrainConfig::default()
    };
    let mut pre_scen = ScenarioConfig::tiny(71);
    pre_scen.duration = SimTime::from_millis(1500);
    let mut ft_scen = ScenarioConfig::tiny(72);
    ft_scen.duration = SimTime::from_millis(1500);

    // ---- Manual path: the pre-redesign boilerplate, spelled out ----
    let traces = run_many_parallel(Scenario::Pretrain, &pre_scen, 2, 0);
    let (m_train, m_test) = DelayDataset::build(TraceData::from_traces(&traces), ds_cfg, None);
    let model = Ntt::new(model_cfg);
    let head = DelayHead::new(model_cfg.d_model, model_cfg.seed);
    let par = ParStrategy::from_env();
    let pre_task = HeadTask::new(&head, &m_train);
    let manual_pre = train(&model, &pre_task, &train_cfg, TrainMode::Full);
    let manual_pre_eval = evaluate(&model, &HeadTask::new(&head, &m_test), 64, &par);

    let ft_data = TraceData::from_traces(&run_many_parallel(Scenario::Case1, &ft_scen, 2, 0));
    let (ft_all, ft_test) =
        DelayDataset::build(Arc::clone(&ft_data), ds_cfg, Some(m_train.norm.clone()));
    let ft_small = ft_all.subsample(0.5, 0);
    let ft_task = HeadTask::new(&head, &ft_small);
    let manual_ft = train(&model, &ft_task, &train_cfg, TrainMode::DecoderOnly);
    let manual_ft_eval = evaluate(&model, &HeadTask::new(&head, &ft_test), 64, &par);

    // A new task on a weight-cloned trunk (frozen so far, so still the
    // pre-trained one): fresh MCT head, everything trainable.
    let (mct_all, mct_test) = MctDataset::build(Arc::clone(&ft_data), ds_cfg, m_train.norm.clone());
    let mct_small = mct_all.subsample(0.5, 0);
    let mct_model = model.clone_weights();
    let mct_head = MctHead::new(model_cfg.d_model, model_cfg.seed);
    let mct_task = HeadTask::new(&mct_head, &mct_small);
    let manual_mct = train(&mct_model, &mct_task, &train_cfg, TrainMode::Full);
    let manual_mct_eval = evaluate(&mct_model, &HeadTask::new(&mct_head, &mct_test), 64, &par);

    // ---- Pipeline path: the same seeds through Experiment ----
    let exp = Experiment::new(model_cfg).stride(8).with_train(train_cfg);
    let pre = exp.pretrain(&SweepSpec::single(Scenario::Pretrain, pre_scen, 2));
    let pre_report = pre.report.as_ref().unwrap();
    assert_eq!(
        pre_report.epoch_losses, manual_pre.epoch_losses,
        "pre-training losses diverged from the manual workflow"
    );
    assert_eq!(pre_report.grad_norms, manual_pre.grad_norms);
    assert_eq!(pre.eval.unwrap().mse_norm, manual_pre_eval.mse_norm);

    let ft = pre.finetune(
        &SweepSpec::single(Scenario::Case1, ft_scen, 2),
        &FinetuneOpts::decoder_only().fraction(0.5).seed(0),
    );
    assert_eq!(
        ft.report.epoch_losses, manual_ft.epoch_losses,
        "fine-tuning losses diverged from the manual workflow"
    );
    assert_eq!(ft.report.grad_norms, manual_ft.grad_norms);
    assert_eq!(ft.eval.mse_norm, manual_ft_eval.mse_norm);

    let mct = pre.finetune_mct_on(ft_data, &FinetuneOpts::full().fraction(0.5).seed(0));
    assert_eq!(
        mct.report.epoch_losses, manual_mct.epoch_losses,
        "MCT fine-tuning losses diverged from the manual workflow"
    );
    assert_eq!(mct.report.grad_norms, manual_mct.grad_norms);
    assert_eq!(mct.eval.mse_norm, manual_mct_eval.mse_norm);

    // Final parameters byte-for-byte: trunk and head, both arms.
    let assert_same_bits = |manual: Vec<Param>, pipeline: Vec<Param>| {
        assert_eq!(manual.len(), pipeline.len());
        for (a, b) in manual.iter().zip(pipeline.iter()) {
            let (av, bv) = (a.value(), b.value());
            assert_eq!(av.shape(), bv.shape());
            for (x, y) in av.data().iter().zip(bv.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "param {} diverged", a.name());
            }
        }
    };
    assert_same_bits(
        [model.params(), head.params()].concat(),
        [ft.model.params(), ft.head.params()].concat(),
    );
    assert_same_bits(
        [mct_model.params(), mct_head.params()].concat(),
        [mct.model.params(), mct.head.params()].concat(),
    );
}

#[test]
fn experiment_checkpoint_roundtrip_preserves_every_bit() {
    // Sharing through NTTCKPT2 must be invisible: the loaded model
    // fine-tunes to the same bits as the in-memory one.
    use ntt::core::{Experiment, FinetuneOpts, Pretrained};
    use ntt::fleet::SweepSpec;
    use ntt::sim::SimTime;

    let mut scen = ScenarioConfig::tiny(81);
    scen.duration = SimTime::from_millis(1200);
    let mut ft_scen = ScenarioConfig::tiny(82);
    ft_scen.duration = SimTime::from_millis(1200);

    let exp = Experiment::new(NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 },
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        seed: 51,
        ..NttConfig::default()
    })
    .stride(8)
    .with_train(TrainConfig {
        epochs: 1,
        batch_size: 16,
        max_steps_per_epoch: Some(5),
        ..TrainConfig::default()
    });
    let pre = exp.pretrain(&SweepSpec::single(Scenario::Pretrain, scen, 1));
    let path = std::env::temp_dir().join(format!("ntt_det_ckpt_{}.ckpt", std::process::id()));
    pre.save(&path).unwrap();
    let mut shared = Pretrained::load(&path).unwrap();
    // Model, heads, normalizer, and window geometry travel in the file;
    // the training-loop parameters are the fine-tuning site's own
    // choice — make the same choice on both sides.
    shared.exp.train = pre.exp.train;

    let spec = SweepSpec::single(Scenario::Case1, ft_scen, 1);
    let opts = FinetuneOpts::decoder_only();
    let direct = pre.finetune(&spec, &opts);
    let via_file = shared.finetune(&spec, &opts);
    assert_eq!(direct.report.epoch_losses, via_file.report.epoch_losses);
    assert_eq!(direct.eval.mse_norm, via_file.eval.mse_norm);
    assert_eq!(
        direct.zero_shot.unwrap().mse_norm,
        via_file.zero_shot.unwrap().mse_norm
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn simulation_is_bit_reproducible() {
    let a = run(Scenario::Case1, &ScenarioConfig::tiny(9));
    let b = run(Scenario::Case1, &ScenarioConfig::tiny(9));
    assert_eq!(a.packets.len(), b.packets.len());
    assert_eq!(a.events, b.events);
    for (x, y) in a.packets.iter().zip(b.packets.iter()) {
        assert_eq!(x, y);
    }
    for (x, y) in a.messages.iter().zip(b.messages.iter()) {
        assert_eq!(x, y);
    }
}

#[test]
fn different_seeds_give_different_traces() {
    let a = run(Scenario::Pretrain, &ScenarioConfig::tiny(1));
    let b = run(Scenario::Pretrain, &ScenarioConfig::tiny(2));
    assert_ne!(
        (a.packets.len(), a.events),
        (b.packets.len(), b.events),
        "distinct seeds should differ"
    );
}

#[test]
fn fleet_grid_is_thread_count_invariant() {
    use ntt::fleet::{run_fleet_traces, FleetConfig, SweepSpec};
    use ntt::sim::SimTime;
    let mut base = ScenarioConfig::tiny(17);
    base.duration = SimTime::from_millis(600);
    let spec = SweepSpec::new(base)
        .scenarios(vec![Scenario::Pretrain, Scenario::Case2])
        .runs_per_cell(2);
    let (a, _) = run_fleet_traces(&spec, &FleetConfig::with_threads(1));
    let (b, _) = run_fleet_traces(&spec, &FleetConfig::with_threads(3));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.packets, y.packets);
        assert_eq!(x.messages, y.messages);
    }
}

#[test]
fn training_is_reproducible_end_to_end() {
    let run_once = || {
        let traces = vec![run(Scenario::Pretrain, &ScenarioConfig::tiny(3))];
        let (train_ds, _) = DelayDataset::build(
            TraceData::from_traces(&traces),
            DatasetConfig {
                seq_len: 64,
                stride: 16,
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
            seed: 11,
            ..NttConfig::default()
        };
        let model = Ntt::new(cfg);
        let head = DelayHead::new(16, 11);
        let report = train(
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
        report.epoch_losses
    };
    assert_eq!(
        run_once(),
        run_once(),
        "identical seeds must give identical losses"
    );
}

#[test]
fn model_init_is_seed_deterministic() {
    use ntt::nn::Module;
    let cfg = NttConfig {
        aggregation: Aggregation::None,
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        seed: 21,
        ..NttConfig::default()
    };
    let a = Ntt::new(cfg);
    let b = Ntt::new(cfg);
    for (pa, pb) in a.params().iter().zip(b.params().iter()) {
        assert_eq!(pa.value(), pb.value(), "param {}", pa.name());
    }
    let c = Ntt::new(NttConfig { seed: 22, ..cfg });
    assert!(
        a.params()
            .iter()
            .zip(c.params().iter())
            .any(|(x, y)| x.value() != y.value()),
        "different seeds must differ"
    );
}

#[test]
fn training_is_thread_count_invariant() {
    // The data-parallel trainer's contract, mirroring
    // `fleet_determinism`: 1 worker vs 4 workers must produce
    // bit-identical epoch losses, grad-norm traces, and final
    // parameter bytes.
    use ntt::nn::Module;
    let run_with = |threads: usize| {
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
            seed: 13,
            ..NttConfig::default()
        };
        let model = Ntt::new(cfg);
        let head = DelayHead::new(16, 13);
        let report = train(
            &model,
            &HeadTask::new(&head, &train_ds),
            &TrainConfig {
                epochs: 2,
                batch_size: 16,
                max_steps_per_epoch: Some(6),
                par: ParStrategy::with_threads(threads),
                ..TrainConfig::default()
            },
            TrainMode::Full,
        );
        let param_bits: Vec<Vec<u32>> = model
            .params()
            .iter()
            .chain(head.params().iter())
            .map(|p| p.value().data().iter().map(|v| v.to_bits()).collect())
            .collect();
        (report.epoch_losses, report.grad_norms, param_bits)
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(serial.0, parallel.0, "epoch losses diverged");
    assert_eq!(serial.1, parallel.1, "grad-norm traces diverged");
    assert_eq!(serial.2, parallel.2, "final parameter bytes diverged");
}
