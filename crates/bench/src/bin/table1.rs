//! Regenerates **Table 1**: MSE for all models and tasks.
//!
//! Columns: delay prediction on the pre-training dataset; delay
//! prediction after fine-tuning on the 10% case-1 dataset (unseen
//! cross-traffic); message completion time (log scale) after
//! fine-tuning on the same 10% dataset.
//!
//! Rows: pre-trained NTT, from-scratch NTT, the two naive baselines,
//! and the four ablations of §3/Table 1.
//!
//! Run: `cargo run --release -p ntt-bench --bin table1 [--scale quick|paper]`
//!
//! Absolute MSEs differ from the paper (different simulator substrate
//! and scale); the comparisons — who wins, which ablations break — are
//! the reproduced result.

use ntt_bench::report::{fmt_duration, fmt_e3, Table};
use ntt_bench::runner::{delay_sets, experiment, mct_sets, pretrain_variant, Env};
use ntt_core::baselines::{
    delay_ewma_mse, delay_last_observed_mse, mct_ewma_mse, mct_last_observed_mse, EWMA_ALPHA,
};
use ntt_core::FinetuneOpts;
use ntt_data::{FeatureMask, TraceData};
use ntt_sim::Scenario;
use std::sync::Arc;
use std::time::Instant;

/// The fraction defining the paper's "smaller" fine-tuning datasets.
const TEN_PERCENT: f64 = 0.10;

fn main() {
    let env = Env::from_args();
    let t0 = Instant::now();
    eprintln!("[table1] scale {:?}", env.scale);

    let pre_traces = env.traces(Scenario::Pretrain);
    let ft_traces = env.traces(Scenario::Case1);

    // (label, aggregation, feature mask, paper reference values x1e-3).
    let variants: Vec<(&str, ntt_core::Aggregation, FeatureMask, [f64; 3])> = vec![
        (
            "Pre-trained",
            env.agg_multiscale(),
            FeatureMask::all(),
            [0.072, 0.097, 65.0],
        ),
        (
            "No aggregation",
            ntt_core::Aggregation::None,
            FeatureMask::all(),
            [0.258, 0.430, 61.0],
        ),
        (
            "Fixed aggregation",
            env.agg_fixed(),
            FeatureMask::all(),
            [0.055, 0.134, 115.0],
        ),
        (
            "Without packet size",
            env.agg_multiscale(),
            FeatureMask::without_size(),
            [0.001, 8.688, 94.0],
        ),
        (
            "Without delay",
            env.agg_multiscale(),
            FeatureMask::without_delay(),
            [15.797, 10.898, 802.0],
        ),
    ];

    let mut table = Table::new(
        "Table 1 - variance-relative MSE x1e-3 for all models and tasks (paper reference in [brackets])",
        &[
            "Model",
            "Delay pre-train",
            "[paper]",
            "Delay fine-tune 10%",
            "[paper]",
            "MCT log",
            "[paper]",
        ],
    );

    // ---- NTT variants: pre-train, then fine-tune decoder-only.
    // Every row runs through the Experiment pipeline: the feature mask
    // rides in the model config, the pre-training normalizer flows into
    // every fine-tuning dataset, and fine-tuning works on weight clones
    // so rows stay independent without checkpoint gymnastics. ----
    let ft_data = TraceData::from_traces(&ft_traces);
    let ten_pct = FinetuneOpts::decoder_only()
        .fraction(TEN_PERCENT)
        .seed(env.seed);
    let mut scratch_row: Option<[String; 2]> = None;
    for (label, agg, mask, paper) in &variants {
        let v = pretrain_variant(&env, &pre_traces, *agg, *mask, label);
        let mut pre = v.pre;
        pre.exp.train = env.finetune_cfg();

        // Fine-tune the delay decoder on the 10% case-1 dataset.
        let ft = pre.finetune_on(Arc::clone(&ft_data), &ten_pct);
        let ft_nmse = ft.eval.mse_raw / ft.test_target_variance;
        eprintln!("[ft-delay:{label}] test MSE {:.3}e-3", ft_nmse * 1e3);

        // Fine-tune a fresh MCT decoder on the 10% case-1 MCT dataset.
        let mct = pre.finetune_mct_on(Arc::clone(&ft_data), &ten_pct);
        let mct_nmse = mct.eval.mse_raw / mct.test_target_variance;
        eprintln!("[ft-mct:{label}] test MSE {:.3}e-3", mct_nmse * 1e3);

        table.row(&[
            label.to_string(),
            fmt_e3(v.pretrain_nmse),
            format!("[{:.3}]", paper[0]),
            fmt_e3(ft_nmse),
            format!("[{:.3}]", paper[1]),
            fmt_e3(mct_nmse),
            format!("[{:.0}]", paper[2]),
        ]);

        // The "from scratch" row trains the same architecture directly
        // on the 10% fine-tuning datasets (computed once, for the
        // unablated architecture). A scratch experiment fits its own
        // normalization — it never saw the pre-training data.
        if *label == "Pre-trained" {
            let mut s_exp = experiment(&env, *agg, *mask);
            s_exp.model.seed ^= 0xff;
            s_exp.train = env.finetune_cfg();
            let s = s_exp.scratch_on(
                Arc::clone(&ft_data),
                &FinetuneOpts::full().fraction(TEN_PERCENT).seed(env.seed),
            );
            let s_nmse = s.eval.mse_raw / s.test_target_variance;
            eprintln!("[scratch-delay] test MSE {:.3}e-3", s_nmse * 1e3);

            // Scratch MCT: an untrained trunk plus a fresh MCT head,
            // trained together — its normalizer is fitted on the
            // fine-tuning windows (a scratch site owns no other data).
            let (s_train_all, _) = s_exp.delay_datasets(Arc::clone(&ft_data), None);
            let mut s2_exp = s_exp;
            s2_exp.model.seed ^= 0x01;
            let m = s2_exp.untrained(s_train_all.norm.clone()).finetune_mct_on(
                Arc::clone(&ft_data),
                &FinetuneOpts::full().fraction(TEN_PERCENT).seed(env.seed),
            );
            let m_nmse = m.eval.mse_raw / m.test_target_variance;
            eprintln!("[scratch-mct] test MSE {:.3}e-3", m_nmse * 1e3);
            scratch_row = Some([fmt_e3(s_nmse), fmt_e3(m_nmse)]);
        }
    }

    // ---- From-scratch row ----
    let [s_delay, s_mct] = scratch_row.expect("scratch row computed with first variant");
    table.row(&[
        "From scratch".into(),
        "-".into(),
        "[-]".into(),
        s_delay,
        "[0.313]".into(),
        s_mct,
        "[117]".into(),
    ]);

    // ---- Naive baselines (no learning; computed on the test splits) ----
    let seq = env.agg_multiscale().seq_len();
    let (_, pre_test) = delay_sets(&env, &pre_traces, seq, None);
    let (_, ft_test) = delay_sets(&env, &ft_traces, seq, None);
    let (_, mct_test) = {
        let (tr, te) = mct_sets(&env, &ft_traces, seq, pre_test.norm.clone());
        (tr, te)
    };
    let (pre_var, ft_var, mct_var) = (
        pre_test.target_variance(),
        ft_test.target_variance(),
        mct_test.target_log_variance(),
    );
    table.row(&[
        "Last observed".into(),
        fmt_e3(delay_last_observed_mse(&pre_test) / pre_var),
        "[0.142]".into(),
        fmt_e3(delay_last_observed_mse(&ft_test) / ft_var),
        "[0.121]".into(),
        fmt_e3(mct_last_observed_mse(&mct_test) / mct_var),
        "[2189]".into(),
    ]);
    table.row(&[
        "EWMA (a=0.01)".into(),
        fmt_e3(delay_ewma_mse(&pre_test, EWMA_ALPHA) / pre_var),
        "[0.259]".into(),
        fmt_e3(delay_ewma_mse(&ft_test, EWMA_ALPHA) / ft_var),
        "[0.211]".into(),
        fmt_e3(mct_ewma_mse(&mct_test, EWMA_ALPHA) / mct_var),
        "[1147]".into(),
    ]);

    println!("{}", table.render());
    match table.write_tsv("table1") {
        Ok(p) => eprintln!("[table1] wrote {}", p.display()),
        Err(e) => eprintln!("[table1] tsv write failed: {e}"),
    }
    eprintln!(
        "[table1] done in {} (all values: MSE / Var(test targets), x1e-3; 1000 = predicting the mean)",
        fmt_duration(t0.elapsed().as_secs_f64())
    );
}
