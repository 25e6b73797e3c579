//! A task this repository has never heard of, defined entirely in this
//! example: predict the **95th-percentile delay of the window** from
//! the packet sequence. The head implements `ntt::nn::Head`, the
//! dataset implements `ntt::data::TaskDataset`, and the generic
//! pipeline trains and evaluates the pair — zero changes to any core
//! crate, ~40 lines of task-specific code.
//!
//! The built-in delay and MCT tasks are the same two impls inside
//! `ntt-core`; this example proves the extension point works from
//! outside.
//!
//! Run: `cargo run --release --example custom_task`

use ntt::core::{Aggregation, Experiment, NttConfig, TrainConfig, TrainMode};
use ntt::data::{DelayDataset, TaskDataset};
use ntt::fleet::SweepSpec;
use ntt::nn::{Head, Mlp, Module};
use ntt::sim::scenarios::{Scenario, ScenarioConfig};
use ntt::tensor::{Param, Tape, Tensor, Var};

// ---- The custom task: ~40 lines, no core crate touched. ------------

/// MLP over the mean-pooled encoded window -> one p95-delay value.
struct P95Head(Mlp);

impl P95Head {
    fn new(d_model: usize, seed: u64) -> Self {
        P95Head(Mlp::new("p95_head", &[d_model, d_model, 1], seed))
    }
}

impl Module for P95Head {
    fn params(&self) -> Vec<Param> {
        self.0.params()
    }
}

impl Head for P95Head {
    fn kind(&self) -> &'static str {
        "p95-delay"
    }
    fn d_model(&self) -> usize {
        self.0.in_features()
    }
    fn forward_head<'t>(&self, tape: &'t Tape, encoded: Var<'t>, _aux: Option<Var<'t>>) -> Var<'t> {
        self.0.forward(tape, encoded.mean_axis1())
    }
}

/// Delay windows with the target swapped for the window's p95 delay
/// (normalized with the delay channel's shared statistics).
struct P95Windows(DelayDataset);

impl P95Windows {
    fn p95(&self, i: usize) -> f32 {
        let mut delays: Vec<f32> = self.0.window_packets(i).iter().map(|p| p.delay).collect();
        delays.sort_by(f32::total_cmp);
        delays[(delays.len() - 1) * 95 / 100]
    }
}

impl TaskDataset for P95Windows {
    fn label(&self) -> &'static str {
        "p95-delay"
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn target_std(&self) -> f32 {
        self.0.delay_std()
    }
    fn batch_xy(&self, idx: &[usize]) -> (Tensor, Option<Tensor>, Tensor) {
        let (x, _) = self.0.batch(idx);
        let y: Vec<f32> = idx
            .iter()
            .map(|&i| {
                let raw = self.p95(i);
                (raw - self.0.norm.mean_of(ntt::data::CH_DELAY)) / self.0.delay_std()
            })
            .collect();
        (x, None, Tensor::from_vec(y, &[idx.len(), 1]))
    }
}

// ---- Everything below is the stock pipeline. ------------------------

fn main() {
    let exp = Experiment::new(NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 },
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        ..NttConfig::default()
    })
    .stride(8)
    .with_train(TrainConfig {
        epochs: 3,
        batch_size: 32,
        lr: 2e-3,
        max_steps_per_epoch: Some(25),
        ..TrainConfig::default()
    });

    // Pre-train on the delay task as usual.
    let pre = exp.pretrain(&SweepSpec::single(
        Scenario::Pretrain,
        ScenarioConfig::tiny(61),
        1,
    ));
    println!(
        "pre-trained: {} windows, held-out delay MSE {:.4}",
        pre.meta("train_windows").unwrap(),
        pre.eval.unwrap().mse_norm
    );

    // Build the custom datasets over new traffic, with the *shared*
    // normalizer, and fine-tune the custom head decoder-only.
    let (data, _) = exp.sweep(&SweepSpec::single(
        Scenario::Case1,
        ScenarioConfig::tiny(62),
        1,
    ));
    let (train_delay_ds, test_delay_ds) = exp.delay_datasets(data, Some(pre.norm.clone()));
    let (train_ds, test_ds) = (P95Windows(train_delay_ds), P95Windows(test_delay_ds));

    let head = P95Head::new(16, 1);
    let (_model, report, eval) =
        pre.finetune_custom(&head, &train_ds, &test_ds, TrainMode::DecoderOnly);
    println!(
        "custom p95-delay task: {} steps, {:.1?}; test MSE {:.4} (normalized) = {:.3e} s^2",
        report.steps, report.wall, eval.mse_norm, eval.mse_raw
    );

    println!(
        "\na new task = one Head impl + one TaskDataset impl; the trainer, checkpoints, \
         and pipeline never changed"
    );
}
