//! Golden fingerprints: committed FNV-1a-64 hashes of the bytes this
//! repository produces at fixed seeds — simulator traces, training
//! losses and parameters, served predictions, and checkpoint files.
//!
//! `tests/determinism.rs` checks that the code agrees with itself (two
//! runs, two thread counts); this file checks that it agrees with what
//! it produced when the constants below were recorded. A regrouped sum,
//! a reordered event or a changed kernel moves a fingerprint and fails
//! here. A change that moves one on purpose updates the constant and
//! says why in `CHANGES.md`; on a mismatch each test prints every
//! current value of its group, ready to paste.
//!
//! The baseline and AVX2 kernels are bit-equal by construction (no
//! `mul_add`, no contraction), so the constants hold on any x86-64 host.

use ntt::core::{
    train, Aggregation, Checkpoint, DelayHead, HeadTask, Ntt, NttConfig, ParStrategy, TrainConfig,
    TrainMode,
};
use ntt::data::{DatasetConfig, DelayDataset, Normalizer, TraceData, NUM_FEATURES};
use ntt::nn::{Head, Module};
use ntt::serve::InferenceEngine;
use ntt::sim::persist::save_trace;
use ntt::sim::scenarios::{pretrain, run, RunTrace, Scenario, ScenarioConfig};
use ntt::sim::tcp::FlowStats;
use ntt::tensor::{Param, Tensor};
use std::path::PathBuf;

const TRACE_CASE2: u64 = 0x9531_4c26_8694_2648;
const TRACE_LEAFSPINE: u64 = 0x71f3_dcf6_1d0e_836c;
const TRACE_LOSSY: u64 = 0x2503_2a9e_7a02_f241;
const TRAIN_FULL_LOSSES: u64 = 0x0054_e62d_3253_b839;
const TRAIN_FULL_PARAMS: u64 = 0x679f_1f54_a7bb_281f;
const TRAIN_DECODER_ONLY_LOSSES: u64 = 0x23fc_4d6a_7465_52c0;
const TRAIN_DECODER_ONLY_PARAMS: u64 = 0x0538_5ee0_1442_b5d0;
const PREDICT_PAPER_B1: u64 = 0xf177_964d_653c_4e51;
const PREDICT_PAPER_B16: u64 = 0xf177_964d_653c_4e51;
const CHECKPOINT_TINY: u64 = 0xae43_68f3_b9cd_b7c0;

/// FNV-1a 64-bit, the hash NTTCKPT2 checksums its body with.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn f32_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Compare `(name, recorded, current)` rows. On any mismatch, fail
/// with the current value of every row, so one run gives all the new
/// constants.
fn check(rows: &[(&str, u64, u64)]) {
    if rows.iter().all(|&(_, want, got)| want == got) {
        return;
    }
    let mut msg = String::from("golden fingerprints moved; current values:\n");
    for &(name, want, got) in rows {
        let mark = if want == got { "" } else { " // changed" };
        msg += &format!("const {name}: u64 = 0x{got:016x};{mark}\n");
    }
    panic!("{msg}");
}

/// A per-process scratch path under the system temp directory.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ntt_golden_{}_{name}", std::process::id()))
}

fn trace_fingerprint(scenario: Scenario, seed: u64) -> u64 {
    persisted_fingerprint(
        &scenario.label(),
        &run(scenario, &ScenarioConfig::tiny(seed)),
    )
}

/// A tiny `Pretrain` run with 2 % random loss on the bottleneck. The
/// lossless scenarios drop almost nothing, so this is the one that pins
/// loss recovery: timeouts, dup-ACK fast retransmits and out-of-order
/// buffering at the receiver. Records stay in delivery order (unsorted),
/// so a reordered same-time event moves the bytes too.
fn lossy_trace_fingerprint(seed: u64) -> u64 {
    let cfg = ScenarioConfig::tiny(seed);
    let mut sim = pretrain(&cfg);
    sim.links[0].cfg.loss_prob = 0.02; // sw_l -> sw_r, the bottleneck
    sim.start_all_apps_jittered(cfg.start_jitter);
    sim.run_until(cfg.duration + cfg.drain);
    let stat = |f: fn(&FlowStats) -> u64| sim.flows.iter().map(|fl| f(&fl.stats)).sum::<u64>();
    assert!(stat(|s| s.timeouts) > 0, "lossy run saw no timeout");
    assert!(
        stat(|s| s.fast_retransmits) > 0,
        "lossy run saw no fast retransmit"
    );
    let trace = RunTrace {
        packets: std::mem::take(&mut sim.trace.packets),
        messages: std::mem::take(&mut sim.trace.messages),
        events: sim.stats.events_processed,
        drops: sim.total_drops(),
    };
    persisted_fingerprint("pretrain_lossy", &trace)
}

/// FNV-1a of the bytes `save_trace` writes for `trace`.
fn persisted_fingerprint(label: &str, trace: &RunTrace) -> u64 {
    let base = temp_path(label);
    save_trace(&base, trace).expect("save trace");
    let mut bytes = Vec::new();
    for suffix in [".packets.tsv", ".messages.tsv"] {
        let mut path = base.clone().into_os_string();
        path.push(suffix);
        bytes.extend(std::fs::read(&path).expect("read saved trace"));
        std::fs::remove_file(&path).ok();
    }
    fnv1a(&bytes)
}

#[test]
fn persisted_traces_hold() {
    let leaf_spine = Scenario::LeafSpine {
        leaves: 3,
        spines: 2,
    };
    check(&[
        (
            "TRACE_CASE2",
            TRACE_CASE2,
            trace_fingerprint(Scenario::Case2, 1),
        ),
        (
            "TRACE_LEAFSPINE",
            TRACE_LEAFSPINE,
            trace_fingerprint(leaf_spine, 2),
        ),
        ("TRACE_LOSSY", TRACE_LOSSY, lossy_trace_fingerprint(3)),
    ]);
}

fn tiny_cfg() -> NttConfig {
    NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 }, // 64-packet windows
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        seed: 7,
        ..NttConfig::default()
    }
}

fn losses_fingerprint(losses: &[f64]) -> u64 {
    let bytes: Vec<u8> = losses.iter().flat_map(|v| v.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn params_fingerprint(params: &[Param]) -> u64 {
    let bytes: Vec<u8> = params
        .iter()
        .flat_map(|p| f32_bytes(p.value().data()))
        .collect();
    fnv1a(&bytes)
}

#[test]
fn training_losses_and_parameters_hold() {
    // Pre-train trunk + head in `Full`, then fine-tune the head alone in
    // `DecoderOnly` on a second scenario: the paper's recipe, in small.
    let ds_cfg = DatasetConfig {
        seq_len: tiny_cfg().seq_len(),
        stride: 16,
        test_fraction: 0.2,
    };
    let (pre_ds, _) = DelayDataset::build(
        TraceData::from_traces(&[run(Scenario::Pretrain, &ScenarioConfig::tiny(3))]),
        ds_cfg,
        None,
    );
    let (ft_ds, _) = DelayDataset::build(
        TraceData::from_traces(&[run(Scenario::Case1, &ScenarioConfig::tiny(4))]),
        ds_cfg,
        Some(pre_ds.norm.clone()),
    );
    let model = Ntt::new(tiny_cfg());
    let head = DelayHead::new(16, 7);
    let train_cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        lr: 2e-3,
        max_steps_per_epoch: Some(6),
        par: ParStrategy::single(),
        ..TrainConfig::default()
    };
    let all_params = || [model.params(), head.params()].concat();

    let full = train(
        &model,
        &HeadTask::new(&head, &pre_ds),
        &train_cfg,
        TrainMode::Full,
    );
    let full_params = params_fingerprint(&all_params());
    let decoder = train(
        &model,
        &HeadTask::new(&head, &ft_ds),
        &train_cfg,
        TrainMode::DecoderOnly,
    );
    check(&[
        (
            "TRAIN_FULL_LOSSES",
            TRAIN_FULL_LOSSES,
            losses_fingerprint(&full.epoch_losses),
        ),
        ("TRAIN_FULL_PARAMS", TRAIN_FULL_PARAMS, full_params),
        (
            "TRAIN_DECODER_ONLY_LOSSES",
            TRAIN_DECODER_ONLY_LOSSES,
            losses_fingerprint(&decoder.epoch_losses),
        ),
        (
            "TRAIN_DECODER_ONLY_PARAMS",
            TRAIN_DECODER_ONLY_PARAMS,
            params_fingerprint(&all_params()),
        ),
    ]);
}

#[test]
fn paper_shape_predictions_hold() {
    let cfg = NttConfig::default();
    let engine = InferenceEngine::from_parts(
        Ntt::new(cfg),
        vec![Box::new(DelayHead::new(cfg.d_model, 0)) as Box<dyn Head>],
        Normalizer::identity(NUM_FEATURES),
    );
    let (n, per_window) = (16, cfg.seq_len() * NUM_FEATURES);
    let windows = Tensor::randn(&[n, cfg.seq_len(), NUM_FEATURES], 11);
    let one_at_a_time: Vec<f32> = windows
        .data()
        .chunks(per_window)
        .flat_map(|w| {
            let x = Tensor::from_vec(w.to_vec(), &[1, cfg.seq_len(), NUM_FEATURES]);
            engine.predict("delay", &x, None).data().to_vec()
        })
        .collect();
    let batched = engine.predict("delay", &windows, None);
    check(&[
        (
            "PREDICT_PAPER_B1",
            PREDICT_PAPER_B1,
            fnv1a(&f32_bytes(&one_at_a_time)),
        ),
        (
            "PREDICT_PAPER_B16",
            PREDICT_PAPER_B16,
            fnv1a(&f32_bytes(batched.data())),
        ),
    ]);
}

#[test]
fn tiny_checkpoint_bytes_hold() {
    let model = Ntt::new(tiny_cfg());
    let head = DelayHead::new(16, 7);
    let norm = Normalizer::from_stats(vec![0.5, 1.0, 1.5, 2.0], vec![1.0, 2.0, 3.0, 4.0]);
    let ckpt = Checkpoint::capture(
        &model,
        &[&head],
        Some(norm),
        vec![("origin".into(), "golden".into())],
    )
    .expect("capture");
    let path = temp_path("tiny.ckpt");
    ckpt.save(&path).expect("save checkpoint");
    let bytes = std::fs::read(&path).expect("read checkpoint");
    std::fs::remove_file(&path).ok();
    check(&[("CHECKPOINT_TINY", CHECKPOINT_TINY, fnv1a(&bytes))]);
}
