//! Convergence probe (development tool): how many steps until the NTT
//! crosses the last-observed baseline, in normalized MSE units.
//!
//! Run: `cargo run --release -p ntt-bench --bin probe`

use ntt_bench::runner::{delay_sets, mct_sets, Env, Scale};
use ntt_core::baselines::*;
use ntt_core::*;
use ntt_data::FeatureMask;
use ntt_nn::Module;
use ntt_sim::Scenario;

fn main() {
    let env = Env {
        scale: Scale::Quick,
        seed: 0,
        threads: 0,
    };
    let traces = env.traces(Scenario::Pretrain);
    let agg = env.agg_multiscale();
    let (train_ds, test) = delay_sets(&env, &traces, agg.seq_len(), None);
    let std2 = (train_ds.delay_std() as f64).powi(2);
    let lo_norm = delay_last_observed_mse(&test) / std2;
    let ew_norm = delay_ewma_mse(&test, EWMA_ALPHA) / std2;
    eprintln!(
        "baselines (norm x1e-3): last-observed {:.3}, ewma {:.3}",
        lo_norm * 1e3,
        ew_norm * 1e3
    );

    let cfg = env.model_cfg(agg, FeatureMask::all());
    let model = Ntt::new(cfg);
    let head = DelayHead::new(cfg.d_model, 0);
    eprintln!(
        "{} params, {} windows",
        model.num_params() + head.num_params(),
        train_ds.len()
    );
    let mut tc = TrainConfig {
        epochs: 1,
        batch_size: 32,
        lr: 2e-3,
        max_steps_per_epoch: Some(100),
        seed: 0,
        ..TrainConfig::default()
    };
    let par = ParStrategy::from_env();
    let (task, test_task) = (HeadTask::new(&head, &train_ds), HeadTask::new(&head, &test));
    for round in 0..12 {
        tc.seed = round;
        let rep = train(&model, &task, &tc, TrainMode::Full);
        let ev = evaluate(&model, &test_task, 64, &par);
        eprintln!(
            "steps {:>4}: train loss {:.5}, test mse_norm {:.4}e-3 ({:.1}s)",
            (round + 1) * 100,
            rep.final_loss(),
            ev.mse_norm * 1e3,
            rep.wall.as_secs_f64()
        );
    }

    // MCT from scratch on full data.
    let (mtrain, mtest) = mct_sets(&env, &traces, agg.seq_len(), train_ds.norm.clone());
    let mstd2 = (mtrain.mct_std() as f64).powi(2);
    eprintln!(
        "mct baselines (norm): last-observed {:.3}, ewma {:.3}; {} anchors",
        mct_last_observed_mse(&mtest) / mstd2,
        mct_ewma_mse(&mtest, EWMA_ALPHA) / mstd2,
        mtrain.len()
    );
    let m2 = Ntt::new(cfg);
    let mh = MctHead::new(cfg.d_model, 1);
    let mut mc = TrainConfig {
        epochs: 1,
        batch_size: 32,
        lr: 2e-3,
        max_steps_per_epoch: Some(100),
        seed: 0,
        ..TrainConfig::default()
    };
    let (mtask, mtest_task) = (HeadTask::new(&mh, &mtrain), HeadTask::new(&mh, &mtest));
    for round in 0..6 {
        mc.seed = round;
        let rep = train(&m2, &mtask, &mc, TrainMode::Full);
        let ev = evaluate(&m2, &mtest_task, 64, &par);
        eprintln!(
            "mct steps {:>4}: train loss {:.4}, test mse_norm {:.4} ({:.1}s)",
            (round + 1) * 100,
            rep.final_loss(),
            ev.mse_norm,
            rep.wall.as_secs_f64()
        );
    }
}
