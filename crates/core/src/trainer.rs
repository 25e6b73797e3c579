//! The task-generic, data-parallel training and evaluation engine.
//!
//! Implements the paper's two training regimes:
//! * **pre-train / fine-tune** — train trunk+head on the pre-training
//!   dataset, then adapt to a new dataset/task updating either only the
//!   head ([`TrainMode::DecoderOnly`], Table 2 "Decoder only") or
//!   everything ([`TrainMode::Full`]);
//! * **from scratch** — train the full model directly on the
//!   fine-tuning dataset (Table 2 "Full NTT").
//!
//! Both regimes run through one generic loop over the [`Task`] trait
//! (every head/dataset pair is one [`crate::task::HeadTask`]).
//!
//! # Data parallelism and determinism
//!
//! Each optimizer step's batch is split into microbatches of eight
//! samples; workers on `ntt-fleet`'s [`ordered_fanout`] claim shards
//! from an atomic cursor, run forward/backward on their own
//! [`ntt_tensor::Tape`], and return a detached
//! [`ParamGrads`](ntt_tensor::ParamGrads) bundle. The coordinator
//! reduces bundles **in shard-index order** as the fan-out's reorder
//! buffer hands them over, and applies one [`Adam::step_with`] update,
//! so losses and parameters are **bit-identical for any thread
//! count**. The microbatch decomposition (and therefore the numerics)
//! never depends on `threads`.
//!
//! Wall-clock time is captured in every report because training *time*
//! is itself a result in Tables 2 and 3.

use crate::model::Ntt;
use crate::task::Task;
use ntt_data::BatchIter;
use ntt_fleet::{ordered_fanout, worker_count};
use ntt_nn::{clip_param_grads, Adam, LrSchedule, Module};
use ntt_tensor::{Param, ParamGrads, TapePool};
use std::time::Duration;

/// Samples per microbatch shard. This defines the numerics (it fixes
/// how the batch loss and gradients are associated in f32), so no
/// thread count changes it: small enough that a batch of 32 fans out
/// over 4 workers, large enough to amortize per-tape overhead.
const MICROBATCH: usize = 8;

/// Which parameters fine-tuning updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainMode {
    /// Update trunk and head.
    Full,
    /// Freeze the trunk, update only the task head (paper: "Decoder
    /// only", the cheap fine-tuning path enabled by pre-training).
    DecoderOnly,
}

/// How one optimizer step fans out over worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParStrategy {
    /// Worker threads (`0` = one per available core). Results are
    /// bit-identical for every setting — this is purely a throughput
    /// knob.
    pub threads: usize,
}

impl ParStrategy {
    /// Sequential execution (still microbatched, so numerics match the
    /// parallel strategies exactly).
    pub fn single() -> Self {
        Self::with_threads(1)
    }

    /// Run on `threads` workers (`0` = one per core).
    pub fn with_threads(threads: usize) -> Self {
        ParStrategy { threads }
    }

    /// Honor `NTT_THREADS` (`0` = auto, unset = sequential; one parser
    /// for the whole workspace, see [`crate::env_threads`]). Training
    /// results do not depend on the value — only wall-clock does.
    pub fn from_env() -> Self {
        Self::with_threads(crate::env_threads(1))
    }
}

impl Default for ParStrategy {
    fn default() -> Self {
        Self::single()
    }
}

/// Loop hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    /// Peak learning rate (warmup-cosine schedule).
    pub lr: f32,
    /// Gradient clipping threshold (global L2 norm). Must be positive:
    /// `train` panics otherwise, since 0 would zero every step and a
    /// negative value would flip it into gradient ascent.
    pub clip: f32,
    pub seed: u64,
    /// Optional cap on optimizer steps per epoch (quick experiment
    /// modes subsample each epoch instead of shrinking the dataset).
    pub max_steps_per_epoch: Option<usize>,
    /// Data-parallel fan-out. The default honors `NTT_THREADS`; safe
    /// because results are bit-identical at every thread count.
    pub par: ParStrategy,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            batch_size: 32,
            lr: 1e-3,
            clip: 1.0,
            seed: 0,
            max_steps_per_epoch: None,
            par: ParStrategy::from_env(),
        }
    }
}

/// What a training run did.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean normalized training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Mean pre-clip global gradient L2 norm per epoch — the divergence
    /// diagnostic (a blow-up shows here before the loss goes NaN).
    pub grad_norms: Vec<f64>,
    pub steps: usize,
    pub wall: Duration,
    /// Number of parameters that actually received updates.
    pub trainable_params: usize,
}

impl TrainReport {
    /// Final epoch's mean loss.
    pub fn final_loss(&self) -> f64 {
        *self.epoch_losses.last().expect("no epochs ran")
    }

    /// Final epoch's mean pre-clip gradient norm.
    pub fn final_grad_norm(&self) -> f64 {
        *self.grad_norms.last().expect("no epochs ran")
    }
}

/// Evaluation result. `mse_norm` is in normalized target units;
/// `mse_raw` converts back to task units (seconds² for delay,
/// ln(seconds)² for MCT) via the dataset's target std.
#[derive(Debug, Clone, Copy)]
pub struct EvalReport {
    pub mse_norm: f64,
    pub mse_raw: f64,
    pub n: usize,
}

fn steps_of(n_samples: usize, cfg: &TrainConfig) -> usize {
    let per_epoch = n_samples.div_ceil(cfg.batch_size);
    cfg.max_steps_per_epoch
        .map_or(per_epoch, |cap| per_epoch.min(cap))
}

fn optimizer_for(
    ntt: &Ntt,
    head_params: Vec<Param>,
    cfg: &TrainConfig,
    total_steps: usize,
    mode: TrainMode,
) -> (Adam, usize) {
    ntt.set_trainable(mode == TrainMode::Full);
    let mut params = ntt.params();
    params.extend(head_params);
    let trainable = params
        .iter()
        .filter(|p| p.is_trainable())
        .map(|p| p.numel())
        .sum();
    let schedule = LrSchedule::WarmupCosine {
        peak: cfg.lr,
        warmup: (total_steps / 10).max(1),
        total: total_steps.max(2),
        floor_frac: 0.1,
    };
    (Adam::new(params, schedule), trainable)
}

/// [`ordered_fanout`] of `work` over `0..n` on `threads` workers, each
/// result to `emit` in index order, unbounded; when one worker would run
/// every job, the calling thread runs them instead, with no spawn. The
/// trainer's microbatch steps, [`evaluate`]'s batches and the serving
/// engine's batch shards run on it, so each reduces or concatenates in
/// the same order at any thread count. A panic in `work` or `emit`
/// propagates to the caller.
pub fn fan_out<R: Send>(
    n: usize,
    threads: usize,
    work: impl Fn(usize) -> R + Sync,
    mut emit: impl FnMut(R),
) {
    if threads <= 1 || n <= 1 {
        (0..n).for_each(|i| emit(work(i)));
    } else {
        ordered_fanout(n, threads, usize::MAX, work, |_| {}, |_, r| emit(r));
    }
}

/// One optimizer step: fan the batch out as microbatches, reduce the
/// per-shard gradient bundles in shard-index order, and return the
/// recombined batch loss plus the reduced bundle.
fn fanout_step(
    ntt: &Ntt,
    task: &dyn Task,
    batch: &[usize],
    par: &ParStrategy,
    tapes: &TapePool,
) -> (f64, ParamGrads) {
    let shards: Vec<&[usize]> = batch.chunks(MICROBATCH).collect();
    let n_total = batch.len();
    let run_shard = |si: usize| -> (f64, ParamGrads) {
        let idx = shards[si];
        tapes.with(0, |tape| {
            let mse = task.batch_loss(tape, ntt, idx);
            debug_assert_eq!(mse.shape(), vec![1], "batch_loss must be scalar");
            // Weight so that Σ shard losses == the whole-batch mean loss.
            let loss = mse.scale(idx.len() as f32 / n_total as f32);
            let value = loss.value().item() as f64;
            (value, tape.backward_params(loss))
        })
    };
    // Microbatch fan-out occupancy: how many shards this step produced
    // and how many workers actually ran them.
    let workers = worker_count(par.threads, shards.len());
    ntt_obs::histogram!("train.fanout_shards").record(shards.len() as u64);
    ntt_obs::gauge!("train.fanout_workers").set(workers as f64);
    // Fixed-order reduction: shard 0 + shard 1 + ..., as the reorder
    // buffer hands them over.
    let mut total: Option<(f64, ParamGrads)> = None;
    fan_out(
        shards.len(),
        workers,
        run_shard,
        |(lv, pg)| match &mut total {
            Some((loss, acc)) => {
                *loss += lv;
                acc.add_assign(&pg);
            }
            None => total = Some((lv, pg)),
        },
    );
    total.expect("batch produced no shards")
}

/// Train `task` on `ntt` with the given mode and fan-out strategy.
///
/// Bit-reproducibility: for a fixed `(cfg, mode)` the returned losses
/// and the final parameters are identical for every `cfg.par.threads`
/// setting.
pub fn train(ntt: &Ntt, task: &dyn Task, cfg: &TrainConfig, mode: TrainMode) -> TrainReport {
    assert!(!task.is_empty(), "training on an empty dataset");
    assert!(
        cfg.clip > 0.0,
        "gradient clip must be positive, got {}",
        cfg.clip
    );
    let steps_per_epoch = steps_of(task.len(), cfg);
    let (mut opt, trainable) = optimizer_for(
        ntt,
        task.head_params(),
        cfg,
        steps_per_epoch * cfg.epochs,
        mode,
    );
    // Wall clock through the audited obs seam (lint R3): the timing is
    // a write-only report field, it never feeds back into training.
    let start = ntt_obs::Stopwatch::start();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut grad_norms = Vec::with_capacity(cfg.epochs);
    let mut steps = 0usize;
    // One pool of tapes for the whole run: scratch arenas survive from
    // step to step, so steady-state steps allocate (almost) nothing.
    let tapes = TapePool::training();
    for epoch in 0..cfg.epochs {
        let _epoch_span = ntt_obs::span!("train.epoch_ns");
        let mut sum = 0.0f64;
        let mut norm_sum = 0.0f64;
        let mut count = 0usize;
        for batch in BatchIter::new(
            task.len(),
            cfg.batch_size,
            cfg.seed ^ (epoch as u64) << 17,
            true,
        )
        .take(steps_per_epoch)
        {
            let _step_span = ntt_obs::span!("train.step_ns");
            let (loss, mut grads) = fanout_step(ntt, task, &batch, &cfg.par, &tapes);
            let pre_norm = clip_param_grads(&mut grads, cfg.clip);
            opt.step_with(&grads);
            sum += loss;
            norm_sum += pre_norm as f64;
            count += 1;
            steps += 1;
            ntt_obs::counter!("train.steps").inc();
            ntt_obs::gauge!("train.grad_norm").set(pre_norm as f64);
        }
        epoch_losses.push(sum / count.max(1) as f64);
        grad_norms.push(norm_sum / count.max(1) as f64);
    }
    ntt.set_trainable(true); // leave the model unfrozen for the caller
    TrainReport {
        epoch_losses,
        grad_norms,
        steps,
        wall: start.elapsed(),
        trainable_params: trainable,
    }
}

/// Evaluate `task` on `ntt` (grad-free). Each batch runs
/// on a pooled **inference** tape — no backward graph or backward-only
/// tensors recorded, the attention weights included, so evaluation pays
/// neither the autodiff overhead nor a `[B, H, T, T]` allocation per
/// layer. Results are deterministic (bit-identical across runs, thread
/// counts, and batch compositions) and equal to a recording tape's bit
/// for bit: both tape kinds run the same ops. Batches fan out over
/// `par` workers; squared errors are accumulated in batch order, so the
/// result is thread-count invariant like training.
pub fn evaluate(ntt: &Ntt, task: &dyn Task, batch_size: usize, par: &ParStrategy) -> EvalReport {
    assert!(!task.is_empty(), "evaluating on an empty dataset");
    let batches: Vec<Vec<usize>> = BatchIter::new(task.len(), batch_size, 0, false).collect();
    let tapes = TapePool::inference();
    let run_batch = |bi: usize| -> (f64, usize) {
        let idx = &batches[bi];
        tapes.with(0, |tape| {
            let mse = task.batch_loss(tape, ntt, idx);
            (mse.value().item() as f64 * idx.len() as f64, idx.len())
        })
    };
    let _eval_span = ntt_obs::span!("train.eval_ns");
    ntt_obs::counter!("train.eval_batches").add(batches.len() as u64);
    let (mut se, mut n) = (0.0f64, 0usize);
    let workers = worker_count(par.threads, batches.len());
    fan_out(batches.len(), workers, run_batch, |(s, c)| {
        se += s;
        n += c;
    });
    let mse_norm = se / n as f64;
    let std = task.target_std() as f64;
    EvalReport {
        mse_norm,
        mse_raw: mse_norm * std * std,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Aggregation, NttConfig};
    use crate::model::{DelayHead, MctHead};
    use crate::task::HeadTask;
    use ntt_data::{DatasetConfig, DelayDataset, MctDataset, TraceData};
    use ntt_sim::scenarios::{run, Scenario, ScenarioConfig};
    use ntt_tensor::Tape;
    use std::sync::Arc;

    fn tiny_model() -> (Ntt, DelayHead, MctHead) {
        let cfg = NttConfig {
            aggregation: Aggregation::MultiScale { block: 1 }, // seq 64
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            seed: 9,
            ..NttConfig::default()
        };
        (Ntt::new(cfg), DelayHead::new(16, 9), MctHead::new(16, 9))
    }

    fn tiny_datasets() -> (DelayDataset, DelayDataset, MctDataset) {
        let traces = vec![run(Scenario::Pretrain, &ScenarioConfig::tiny(31))];
        let data = TraceData::from_traces(&traces);
        let cfg = DatasetConfig {
            seq_len: 64,
            stride: 8,
            test_fraction: 0.2,
        };
        let (train_ds, test) = ntt_data::DelayDataset::build(Arc::clone(&data), cfg, None);
        let (mct_train, _) = ntt_data::MctDataset::build(data, cfg, train_ds.norm.clone());
        (train_ds, test, mct_train)
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 3e-3,
            max_steps_per_epoch: Some(8),
            ..TrainConfig::default()
        }
    }

    #[test]
    fn delay_training_reduces_loss() {
        let (ntt, head, _) = tiny_model();
        let (train_ds, _, _) = tiny_datasets();
        let task = HeadTask::new(&head, &train_ds);
        let report = train(&ntt, &task, &quick_cfg(), TrainMode::Full);
        assert_eq!(report.epoch_losses.len(), 2);
        assert!(
            report.final_loss() < report.epoch_losses[0],
            "loss should fall: {:?}",
            report.epoch_losses
        );
        assert!(report.steps <= 16);
        assert!(report.wall.as_nanos() > 0);
        assert_eq!(report.grad_norms.len(), 2);
        assert!(
            report.grad_norms.iter().all(|&n| n.is_finite() && n > 0.0),
            "grad-norm trace must be usable as a divergence diagnostic: {:?}",
            report.grad_norms
        );
    }

    #[test]
    fn training_is_thread_count_invariant() {
        // The core determinism contract, on the tiny model: any thread
        // count produces bit-identical losses and parameters. (The full
        // 1-vs-4-thread mirror of `fleet_determinism` lives in
        // tests/determinism.rs; this keeps a fast in-crate guard.)
        let run_with = |threads: usize| {
            let (ntt, head, _) = tiny_model();
            let (train_ds, _, _) = tiny_datasets();
            let cfg = TrainConfig {
                par: ParStrategy::with_threads(threads),
                ..quick_cfg()
            };
            let task = HeadTask::new(&head, &train_ds);
            let report = train(&ntt, &task, &cfg, TrainMode::Full);
            let params: Vec<Vec<u32>> = ntt
                .params()
                .iter()
                .chain(head.params().iter())
                .map(|p| p.value().data().iter().map(|v| v.to_bits()).collect())
                .collect();
            (report.epoch_losses, report.grad_norms, params)
        };
        let a = run_with(1);
        let b = run_with(3);
        assert_eq!(a.0, b.0, "epoch losses must be bit-identical");
        assert_eq!(a.1, b.1, "grad norms must be bit-identical");
        assert_eq!(a.2, b.2, "final parameters must be bit-identical");
    }

    #[test]
    fn decoder_only_updates_fewer_params_and_leaves_trunk_unchanged() {
        let (ntt, head, _) = tiny_model();
        let (train_ds, _, _) = tiny_datasets();
        let trunk_before: Vec<_> = ntt.params().iter().map(|p| p.value()).collect();
        let full_report = {
            let (ntt2, head2, _) = tiny_model();
            let task = HeadTask::new(&head2, &train_ds);
            train(&ntt2, &task, &quick_cfg(), TrainMode::Full)
        };
        let task = HeadTask::new(&head, &train_ds);
        let dec_report = train(&ntt, &task, &quick_cfg(), TrainMode::DecoderOnly);
        assert!(dec_report.trainable_params < full_report.trainable_params);
        for (p, before) in ntt.params().iter().zip(trunk_before) {
            assert_eq!(p.value(), before, "trunk param {} moved", p.name());
        }
        assert!(
            ntt.params().iter().all(|p| p.is_trainable()),
            "unfrozen after"
        );
    }

    #[test]
    fn eval_reports_consistent_units() {
        let (ntt, head, _) = tiny_model();
        let (train_ds, test, _) = tiny_datasets();
        let task = HeadTask::new(&head, &train_ds);
        train(&ntt, &task, &quick_cfg(), TrainMode::Full);
        let test_task = HeadTask::new(&head, &test);
        let ev = evaluate(&ntt, &test_task, 16, &ParStrategy::from_env());
        assert!(ev.mse_norm.is_finite() && ev.mse_norm > 0.0);
        let std = train_ds.delay_std() as f64;
        assert!((ev.mse_raw - ev.mse_norm * std * std).abs() < 1e-12);
        assert_eq!(ev.n, test.len());
    }

    #[test]
    fn mct_training_works_end_to_end() {
        let (ntt, _, head) = tiny_model();
        let (_, _, mct) = tiny_datasets();
        let task = HeadTask::new(&head, &mct);
        let report = train(&ntt, &task, &quick_cfg(), TrainMode::Full);
        assert!(report.final_loss().is_finite());
        assert!(report.final_grad_norm().is_finite());
        let ev = evaluate(&ntt, &task, 16, &ParStrategy::from_env());
        assert!(ev.mse_raw.is_finite() && ev.mse_raw > 0.0);
    }

    /// Shared Task-trait conformance check: every impl must satisfy the
    /// engine's contract (scalar mean loss, gradient flow into both the
    /// head and — when unfrozen — the trunk).
    fn assert_task_conforms(task: &dyn Task, ntt: &Ntt) {
        assert!(!task.name().is_empty());
        assert!(task.len() >= 4 && !task.is_empty());
        assert!(task.target_std() > 0.0, "{}: target std", task.name());
        let head_params = task.head_params();
        assert!(!head_params.is_empty(), "{}: no head params", task.name());

        let idx: Vec<usize> = (0..task.len().min(4)).collect();
        let tape = Tape::new();
        let loss = task.batch_loss(&tape, ntt, &idx);
        assert_eq!(loss.shape(), vec![1], "{}: loss not scalar", task.name());
        assert!(loss.value().item().is_finite(), "{}: loss", task.name());
        let bundle = tape.backward_params(loss);
        for p in &head_params {
            assert!(
                bundle.get(p).is_some(),
                "{}: no gradient reached head param {}",
                task.name(),
                p.name()
            );
        }
        let trunk_covered = ntt.params().iter().all(|p| bundle.get(p).is_some());
        assert!(trunk_covered, "{}: trunk params missed", task.name());

        // The same microbatch must reproduce bit-identically (purity in
        // params + indices — what the parallel engine relies on).
        let tape2 = Tape::new();
        let loss2 = task.batch_loss(&tape2, ntt, &idx);
        assert_eq!(
            loss.value().item(),
            loss2.value().item(),
            "{}: batch_loss is not a pure function of (params, idx)",
            task.name()
        );
    }

    #[test]
    fn delay_and_mct_tasks_conform() {
        let (ntt, head, mct_head) = tiny_model();
        let (train_ds, _, mct) = tiny_datasets();
        assert_task_conforms(&HeadTask::new(&head, &train_ds), &ntt);
        assert_task_conforms(&HeadTask::new(&mct_head, &mct), &ntt);
    }

    #[test]
    fn head_task_drives_trait_objects() {
        // The pipeline holds checkpoint-reconstructed heads as
        // `Box<dyn Head>`; the generic task must accept them unsized.
        use ntt_nn::Head;
        let (ntt, head, _) = tiny_model();
        let (train_ds, _, _) = tiny_datasets();
        let boxed: Box<dyn Head> = Box::new(head);
        let task = HeadTask::new(boxed.as_ref(), &train_ds);
        let report = train(&ntt, &task, &quick_cfg(), TrainMode::DecoderOnly);
        assert!(report.final_loss().is_finite());
        assert!(report.trainable_params > 0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn training_on_empty_dataset_is_an_error() {
        let (ntt, head, _) = tiny_model();
        // A genuinely empty dataset: no run is long enough to yield a
        // single window.
        let traces = vec![run(Scenario::Pretrain, &ScenarioConfig::tiny(32))];
        let data = TraceData::from_traces(&traces);
        let cfg = DatasetConfig {
            seq_len: 10_000_000, // longer than any run
            stride: 1,
            test_fraction: 0.2,
        };
        let (empty_train, _) = ntt_data::DelayDataset::build(data, cfg, None);
        let task = HeadTask::new(&head, &empty_train);
        train(&ntt, &task, &quick_cfg(), TrainMode::Full);
    }

    #[test]
    #[should_panic(expected = "gradient clip must be positive")]
    fn non_positive_clip_is_an_error() {
        // A zero clip would scale every gradient to zero (Adam's moments
        // stay zero, nothing moves) and a negative one would ascend, both
        // behind a normal-looking report.
        let (ntt, head, _) = tiny_model();
        let (train_ds, _, _) = tiny_datasets();
        let task = HeadTask::new(&head, &train_ds);
        let cfg = TrainConfig {
            clip: 0.0,
            ..quick_cfg()
        };
        train(&ntt, &task, &cfg, TrainMode::Full);
    }
}
