//! The [`Experiment`] pipeline: the paper's full workflow — fleet sweep
//! → dataset build → pre-train → checkpoint → fine-tune → evaluate
//! against baselines — as chained stages with one shared seed and
//! normalization story.
//!
//! # Why a pipeline object
//!
//! Fig. 1's proposition is *share pre-trained models, not data*. Before
//! this module, every example and bench binary hand-wired the same ~60
//! lines: derive the window length from the model config, run the
//! fleet, build datasets, remember to thread the pre-training
//! normalizer into every fine-tuning dataset, construct model and head
//! with coordinated seeds, train, evaluate. Each copy was one missed
//! `Some(norm)` away from silently leaking statistics. `Experiment`
//! owns those invariants once.
//!
//! # Seed flow
//!
//! One experiment has exactly three seed roots, all recorded in the
//! checkpoint's provenance:
//! * **simulation** — the sweep's `base_seed`; the fleet derives one
//!   unique seed per shard ([`ntt_fleet::SeedSchedule`]), so traces are
//!   a pure function of the spec;
//! * **model** — `NttConfig::seed` initializes the trunk, and the
//!   pre-training head derives its init from the same value;
//! * **training** — `TrainConfig::seed` drives batch shuffling; the
//!   forward pass itself draws no randomness.
//!
//! Every stage is bit-reproducible at any thread count (the fleet's
//! reorder buffer, the trainer's fixed-order gradient reduction), so a
//! seeded `Experiment` run is one deterministic value.
//!
//! # Normalization flow
//!
//! The feature normalizer is **fitted once**, on the pre-training
//! *training* split, and then flows forward only: into the held-out
//! pre-training evaluation, into the checkpoint (`NTTCKPT2` embeds it),
//! and into every fine-tuning dataset built through [`Pretrained`] —
//! the model's learned representations assume that scaling, so a
//! fine-tuning site must never re-fit it. Target normalizers (MCT) are
//! task-local and fitted on the fine-tuning training split, which is
//! statistics the fine-tuning site legitimately owns.
//!
//! # The 10-line workflow
//!
//! ```no_run
//! use ntt_core::{Experiment, FinetuneOpts, NttConfig, Pretrained};
//! use ntt_fleet::SweepSpec;
//! use ntt_sim::scenarios::{Scenario, ScenarioConfig};
//!
//! let exp = Experiment::new(NttConfig::reduced(0)).stride(8);
//! let pre = exp.pretrain(&SweepSpec::single(Scenario::Pretrain, ScenarioConfig::tiny(1), 2));
//! pre.save("pretrained.ckpt").unwrap();                  // ship this file
//! // --- another site, another process: no config, no data travels ---
//! let shared = Pretrained::load("pretrained.ckpt").unwrap();
//! let ft = shared.finetune(
//!     &SweepSpec::single(Scenario::Case1, ScenarioConfig::tiny(2), 2),
//!     &FinetuneOpts::decoder_only().fraction(0.1),
//! );
//! println!("zero-shot {:?} -> fine-tuned {}", ft.zero_shot, ft.eval.mse_norm);
//! ```

use crate::baselines::{
    delay_ewma_mse, delay_last_observed_mse, mct_ewma_mse, mct_last_observed_mse, EWMA_ALPHA,
};
use crate::checkpoint::Checkpoint;
use crate::config::NttConfig;
use crate::model::{build_head, copy_params, DelayHead, MctHead, Ntt};
use crate::task::HeadTask;
use crate::trainer::{
    evaluate, train, EvalReport, ParStrategy, TrainConfig, TrainMode, TrainReport,
};
use ntt_data::{DatasetConfig, DelayDataset, MctDataset, Normalizer, TaskDataset, TraceData};
use ntt_fleet::{run_fleet_dataset, FleetConfig, FleetReport, SweepSpec};
use ntt_nn::{Head, Module};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Shared stage configuration: model, windowing, training loop, and the
/// thread knob that drives both the fleet and the trainer.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    pub model: NttConfig,
    /// Window extraction; `seq_len` is always kept equal to
    /// `model.seq_len()` — the one coupling everyone used to re-derive
    /// by hand.
    pub data: DatasetConfig,
    /// Training-loop hyper-parameters. Its `par` field is ignored by
    /// the pipeline stages: [`Experiment::threads`] is the single
    /// source of truth for parallelism, applied to the fleet, the
    /// trainer, and evaluation alike.
    pub train: TrainConfig,
    /// Worker threads for simulation and training (0 = one per core).
    /// Purely a throughput knob: all results are bit-identical at any
    /// value.
    pub threads: usize,
    /// Evaluation batch size.
    pub eval_batch: usize,
}

impl Experiment {
    /// A pipeline for the given model. Dataset and training parameters
    /// start from their defaults; chain the builder methods (or set the
    /// public fields) to adjust them.
    pub fn new(model: NttConfig) -> Experiment {
        Experiment {
            model,
            data: DatasetConfig {
                seq_len: model.seq_len(),
                ..DatasetConfig::default()
            },
            train: TrainConfig::default(),
            threads: 0,
            eval_batch: 64,
        }
    }

    /// Window stride in packets.
    pub fn stride(mut self, stride: usize) -> Experiment {
        self.data.stride = stride;
        self
    }

    /// Fraction of each run (by time) reserved for testing.
    pub fn test_fraction(mut self, f: f64) -> Experiment {
        self.data.test_fraction = f;
        self
    }

    /// Training-loop hyper-parameters (shared by pre-training and
    /// fine-tuning; override per stage by mutating the field between
    /// calls).
    pub fn with_train(mut self, train: TrainConfig) -> Experiment {
        self.train = train;
        self
    }

    /// Worker threads for the whole pipeline (0 = one per core).
    pub fn threads(mut self, threads: usize) -> Experiment {
        self.threads = threads;
        self
    }

    fn ds_cfg(&self) -> DatasetConfig {
        DatasetConfig {
            seq_len: self.model.seq_len(),
            ..self.data
        }
    }

    fn par(&self) -> ParStrategy {
        ParStrategy::with_threads(self.threads)
    }

    /// The training config the stages actually run: `self.train` with
    /// its parallelism pinned to the shared `threads` knob, so builder
    /// call order (`threads` before or after `with_train`) cannot
    /// silently change the fan-out.
    fn train_cfg(&self) -> TrainConfig {
        TrainConfig {
            par: self.par(),
            ..self.train
        }
    }

    fn eval_head<D: TaskDataset + ?Sized>(
        &self,
        model: &Ntt,
        head: &dyn Head,
        ds: &D,
    ) -> EvalReport {
        evaluate(
            model,
            &HeadTask::new(head, ds),
            self.eval_batch,
            &self.par(),
        )
    }

    /// The one train → evaluate core under every stage.
    fn fit<D: TaskDataset + ?Sized>(
        &self,
        model: &Ntt,
        head: &dyn Head,
        train_ds: &D,
        test_ds: &D,
        mode: TrainMode,
    ) -> (TrainReport, EvalReport) {
        let report = train(
            model,
            &HeadTask::new(head, train_ds),
            &self.train_cfg(),
            mode,
        );
        (report, self.eval_head(model, head, test_ds))
    }

    /// A freshly initialized trunk and delay head trained in full —
    /// what pre-training and the from-scratch arm share.
    fn fit_fresh(
        &self,
        train_ds: &DelayDataset,
        test_ds: &DelayDataset,
    ) -> (Ntt, DelayHead, TrainReport, EvalReport) {
        let model = Ntt::new(self.model);
        let head = DelayHead::new(self.model.d_model, self.model.seed);
        let (report, eval) = self.fit(&model, &head, train_ds, test_ds, TrainMode::Full);
        (model, head, report, eval)
    }

    /// Stage 1: run the sweep with streaming ingestion (raw traces are
    /// folded into the compact dataset shard by shard).
    pub fn sweep(&self, spec: &SweepSpec) -> (Arc<TraceData>, FleetReport) {
        run_fleet_dataset(spec, &FleetConfig::with_threads(self.threads))
    }

    /// Stage 2 helper: build delay train/test datasets. `norm = None`
    /// fits the normalizer on the training windows (pre-training);
    /// `Some` reuses existing statistics (fine-tuning). The model
    /// config's feature-ablation mask is applied to both splits, so an
    /// ablated experiment cannot accidentally train on full features.
    pub fn delay_datasets(
        &self,
        data: Arc<TraceData>,
        norm: Option<Normalizer>,
    ) -> (DelayDataset, DelayDataset) {
        let (train_ds, test_ds) = DelayDataset::build(data, self.ds_cfg(), norm);
        (
            train_ds.with_mask(self.model.features),
            test_ds.with_mask(self.model.features),
        )
    }

    /// [`Experiment::delay_datasets`] for a fine-tuning stage: the
    /// training split cut to `opts.fraction`.
    fn delay_split(
        &self,
        data: Arc<TraceData>,
        norm: Option<Normalizer>,
        opts: &FinetuneOpts,
    ) -> (DelayDataset, DelayDataset) {
        let (train_all, test_ds) = self.delay_datasets(data, norm);
        (opts.cut(train_all, DelayDataset::subsample), test_ds)
    }

    /// Stages 1–3 chained: sweep → dataset → pre-train the delay task,
    /// evaluating on the held-out split.
    pub fn pretrain(&self, spec: &SweepSpec) -> Pretrained {
        let (data, fleet) = self.sweep(spec);
        self.pretrain_on(data, spec.describe(), Some(fleet))
    }

    /// Stage 3 alone, for callers that already hold preprocessed data
    /// (`grid` labels the data's origin in the checkpoint provenance).
    pub fn pretrain_on(
        &self,
        data: Arc<TraceData>,
        grid: String,
        fleet: Option<FleetReport>,
    ) -> Pretrained {
        let (train_ds, test_ds) = self.delay_datasets(data, None);
        let (model, head, report, eval) = self.fit_fresh(&train_ds, &test_ds);
        let test_target_variance = test_ds.target_variance();
        // Besides human-readable provenance, the entries carry the window
        // geometry (stride, test fraction) so a loading site rebuilds
        // datasets exactly as the pre-training site did.
        let provenance = vec![
            ("scenario_grid".to_string(), grid),
            ("model_seed".to_string(), self.model.seed.to_string()),
            ("train_seed".to_string(), self.train.seed.to_string()),
            ("train_steps".to_string(), report.steps.to_string()),
            ("epochs".to_string(), self.train.epochs.to_string()),
            ("train_windows".to_string(), train_ds.len().to_string()),
            ("stride".to_string(), self.data.stride.to_string()),
            (
                "test_fraction".to_string(),
                self.data.test_fraction.to_string(),
            ),
        ];
        Pretrained {
            exp: *self,
            model,
            heads: vec![Box::new(head)],
            norm: train_ds.norm.clone(),
            report: Some(report),
            eval: Some(eval),
            fleet,
            test_target_variance: Some(test_target_variance),
            provenance,
        }
    }

    /// Wrap a freshly initialized, **untrained** model as a
    /// [`Pretrained`] carrying the given normalizer — the from-scratch
    /// comparison arm for tasks other than delay. E.g.
    /// `exp.untrained(norm).finetune_mct_on(data, &FinetuneOpts::full())`
    /// trains trunk and MCT head together with no pre-training.
    pub fn untrained(&self, norm: Normalizer) -> Pretrained {
        Pretrained {
            exp: *self,
            model: Ntt::new(self.model),
            heads: Vec::new(),
            norm,
            report: None,
            eval: None,
            fleet: None,
            test_target_variance: None,
            provenance: vec![("origin".to_string(), "untrained".to_string())],
        }
    }

    /// The comparison arm of Tables 2/3: train the full model **from
    /// scratch** directly on (a fraction of) the fine-tuning
    /// environment's data, with its own freshly fitted normalization
    /// (a scratch model never saw pre-training data).
    pub fn scratch(&self, spec: &SweepSpec, opts: &FinetuneOpts) -> Finetuned {
        let (data, _) = self.sweep(spec);
        self.scratch_on(data, opts)
    }

    /// [`Experiment::scratch`] over already-simulated data.
    pub fn scratch_on(&self, data: Arc<TraceData>, opts: &FinetuneOpts) -> Finetuned {
        let (train_ds, test_ds) = self.delay_split(data, None, opts);
        let (model, head, report, eval) = self.fit_fresh(&train_ds, &test_ds);
        Finetuned {
            task: "delay",
            model,
            head: Box::new(head),
            report,
            eval,
            zero_shot: None,
            baselines: delay_baselines(&test_ds),
            train_windows: train_ds.len(),
            test_target_variance: test_ds.target_variance(),
        }
    }
}

/// A pre-trained model plus everything a fine-tuning site needs: the
/// heads, the feature normalizer, and the provenance trail. Produced by
/// [`Experiment::pretrain`] or reconstructed from a checkpoint by
/// [`Pretrained::load`].
pub struct Pretrained {
    pub exp: Experiment,
    pub model: Ntt,
    pub heads: Vec<Box<dyn Head>>,
    /// Feature normalizer fitted on the pre-training training split —
    /// reused by every downstream dataset (see module docs).
    pub norm: Normalizer,
    /// Pre-training report (absent when loaded from a checkpoint).
    pub report: Option<TrainReport>,
    /// Held-out pre-training evaluation (absent when loaded).
    pub eval: Option<EvalReport>,
    /// Fleet aggregates of the pre-training sweep, when one ran here.
    pub fleet: Option<FleetReport>,
    /// Variance of the held-out test targets (raw units) — divide
    /// `eval.mse_raw` by this for the paper's variance-relative MSE
    /// (1.0 = predicting the mean). Absent when loaded from a file.
    pub test_target_variance: Option<f64>,
    pub provenance: Vec<(String, String)>,
}

/// Fine-tuning options: which parameters move, and how much data the
/// paper's "10% dataset" subsampling keeps.
#[derive(Debug, Clone, Copy)]
pub struct FinetuneOpts {
    pub mode: TrainMode,
    /// Keep a seeded random fraction of the fine-tuning training
    /// windows (`None` = all of them).
    pub fraction: Option<f64>,
    /// Seed for the subsample draw.
    pub seed: u64,
}

impl FinetuneOpts {
    /// The cheap path pre-training enables: freeze the trunk, adapt the
    /// decoder (Table 2 "Decoder only").
    pub fn decoder_only() -> FinetuneOpts {
        FinetuneOpts {
            mode: TrainMode::DecoderOnly,
            fraction: None,
            seed: 0,
        }
    }

    /// Update trunk and head.
    pub fn full() -> FinetuneOpts {
        FinetuneOpts {
            mode: TrainMode::Full,
            fraction: None,
            seed: 0,
        }
    }

    /// Subsample the fine-tuning training set.
    pub fn fraction(mut self, f: f64) -> FinetuneOpts {
        self.fraction = Some(f);
        self
    }

    /// Seed for the subsample draw.
    pub fn seed(mut self, seed: u64) -> FinetuneOpts {
        self.seed = seed;
        self
    }

    /// `all` cut to `fraction` by the dataset's own seeded `subsample`.
    fn cut<D>(&self, all: D, subsample: impl FnOnce(&D, f64, u64) -> D) -> D {
        match self.fraction {
            Some(f) => subsample(&all, f, self.seed),
            None => all,
        }
    }
}

/// The outcome of one fine-tuning stage: the adapted model/head (the
/// shared pre-trained weights are never mutated — fine-tuning always
/// works on a weight-cloned copy), reports, and the comparisons the
/// paper makes (zero-shot, naive baselines).
pub struct Finetuned {
    /// Task label (`"delay"` or `"mct"`).
    pub task: &'static str,
    pub model: Ntt,
    pub head: Box<dyn Head>,
    pub report: TrainReport,
    /// Fine-tuned model on the fine-tuning test split.
    pub eval: EvalReport,
    /// The untouched pre-trained model on the same test split, when the
    /// pre-trained side already had a head for this task.
    pub zero_shot: Option<EvalReport>,
    /// Naive baselines on the same test split, in raw task units
    /// (comparable to `eval.mse_raw`).
    pub baselines: Vec<(&'static str, f64)>,
    /// Training windows actually used (after subsampling).
    pub train_windows: usize,
    /// Variance of the test targets in raw task units (the
    /// denominator of the paper's variance-relative MSE).
    pub test_target_variance: f64,
}

fn delay_baselines(test_ds: &DelayDataset) -> Vec<(&'static str, f64)> {
    vec![
        ("last-observed", delay_last_observed_mse(test_ds)),
        ("ewma", delay_ewma_mse(test_ds, EWMA_ALPHA)),
    ]
}

fn clone_head(head: &dyn Head) -> Box<dyn Head> {
    let fresh = build_head(head.kind(), head.d_model())
        .unwrap_or_else(|| panic!("head kind {:?} not in the registry", head.kind()));
    copy_params(head as &dyn Module, fresh.as_ref() as &dyn Module);
    fresh
}

impl Pretrained {
    /// Write the `NTTCKPT2` checkpoint: weights, config, head
    /// descriptors, normalizer, provenance, checksum.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let heads: Vec<&dyn Head> = self.heads.iter().map(|h| h.as_ref()).collect();
        Checkpoint::capture(
            &self.model,
            &heads,
            Some(self.norm.clone()),
            self.provenance.clone(),
        )?
        .save(path)
    }

    /// Reconstruct a shared model from a checkpoint file alone — the
    /// receiving half of Fig. 1. The embedded config rebuilds the
    /// model, the head descriptors rebuild the decoders, and the
    /// embedded normalizer keeps downstream datasets consistent.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Pretrained> {
        let loaded = Checkpoint::load(path)?;
        let norm = loaded.norm.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "checkpoint carries no normalizer; it was not written by the Experiment pipeline",
            )
        })?;
        // Restore the window geometry recorded at save time, so the
        // loading site's datasets line up with the pre-training site's.
        let mut exp = Experiment::new(loaded.model.cfg);
        let meta = |key: &str| {
            loaded
                .provenance
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        };
        if let Some(stride) = meta("stride").and_then(|v| v.parse().ok()) {
            exp.data.stride = stride;
        }
        if let Some(tf) = meta("test_fraction").and_then(|v| v.parse().ok()) {
            exp.data.test_fraction = tf;
        }
        Ok(Pretrained {
            exp,
            model: loaded.model,
            heads: loaded.heads,
            norm,
            report: None,
            eval: None,
            fleet: None,
            test_target_variance: None,
            provenance: loaded.provenance,
        })
    }

    /// The first head of the given kind, if present.
    pub fn head(&self, kind: &str) -> Option<&dyn Head> {
        self.heads
            .iter()
            .find(|h| h.kind() == kind)
            .map(|h| h.as_ref())
    }

    fn delay_head(&self) -> &dyn Head {
        self.head("delay")
            .expect("pre-trained model carries no delay head")
    }

    /// Provenance value for `key`, if recorded.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.provenance
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Fine-tune the **delay task in a new environment** (Fig. 1's
    /// "adapt to a new network"): sweep the new environment, build
    /// datasets with the *pre-training* normalizer, measure zero-shot
    /// transfer, then fine-tune a weight-cloned copy.
    pub fn finetune(&self, spec: &SweepSpec, opts: &FinetuneOpts) -> Finetuned {
        let (data, _) = self.exp.sweep(spec);
        self.finetune_on(data, opts)
    }

    /// [`Pretrained::finetune`] over already-simulated data.
    pub fn finetune_on(&self, data: Arc<TraceData>, opts: &FinetuneOpts) -> Finetuned {
        let (train_ds, test_ds) = self.exp.delay_split(data, Some(self.norm.clone()), opts);
        self.adapt(
            "delay",
            |_, _| panic!("pre-trained model carries no delay head"),
            (&train_ds, &test_ds),
            opts.mode,
            delay_baselines(&test_ds),
            test_ds.target_variance(),
        )
    }

    /// Fine-tune the **MCT task** (Fig. 1's "adapt to a new task"): a
    /// fresh MCT head on a weight-cloned trunk, datasets sharing the
    /// pre-training feature normalizer.
    pub fn finetune_mct(&self, spec: &SweepSpec, opts: &FinetuneOpts) -> Finetuned {
        let (data, _) = self.exp.sweep(spec);
        self.finetune_mct_on(data, opts)
    }

    /// [`Pretrained::finetune_mct`] over already-simulated data.
    pub fn finetune_mct_on(&self, data: Arc<TraceData>, opts: &FinetuneOpts) -> Finetuned {
        let mask = self.exp.model.features;
        let (train_all, test_ds) = MctDataset::build(data, self.exp.ds_cfg(), self.norm.clone());
        let train_ds = opts.cut(train_all.with_mask(mask), MctDataset::subsample);
        let test_ds = test_ds.with_mask(mask);
        let baselines = vec![
            ("last-observed", mct_last_observed_mse(&test_ds)),
            ("ewma", mct_ewma_mse(&test_ds, EWMA_ALPHA)),
        ];
        self.adapt(
            "mct",
            |d_model, seed| Box::new(MctHead::new(d_model, seed)),
            (&train_ds, &test_ds),
            opts.mode,
            baselines,
            test_ds.target_log_variance(),
        )
    }

    /// The one body under every built-in fine-tuning stage: measure the
    /// stored head of kind `task` zero-shot (when there is one), then
    /// train a clone of it — or a `fresh(d_model, seed)` head — on a
    /// weight-cloned trunk and evaluate.
    fn adapt<D: TaskDataset + ?Sized>(
        &self,
        task: &'static str,
        fresh: impl FnOnce(usize, u64) -> Box<dyn Head>,
        (train_ds, test_ds): (&D, &D),
        mode: TrainMode,
        baselines: Vec<(&'static str, f64)>,
        test_target_variance: f64,
    ) -> Finetuned {
        let stored = self.head(task);
        let zero_shot = stored.map(|h| self.exp.eval_head(&self.model, h, test_ds));
        let model = self.model.clone_weights();
        let head = match stored {
            Some(h) => clone_head(h),
            None => fresh(self.exp.model.d_model, self.exp.model.seed),
        };
        let (report, eval) = self.exp.fit(&model, head.as_ref(), train_ds, test_ds, mode);
        Finetuned {
            task,
            model,
            head,
            report,
            eval,
            zero_shot,
            baselines,
            train_windows: train_ds.len(),
            test_target_variance,
        }
    }

    /// The pluggability escape hatch: fine-tune **any** (head, dataset)
    /// pair — including ones defined outside this crate — on a
    /// weight-cloned copy of the pre-trained trunk. The head is trained
    /// in place (the caller owns it); the returned model is the adapted
    /// trunk copy.
    pub fn finetune_custom<D: TaskDataset + ?Sized>(
        &self,
        head: &dyn Head,
        train_ds: &D,
        test_ds: &D,
        mode: TrainMode,
    ) -> (Ntt, TrainReport, EvalReport) {
        let model = self.model.clone_weights();
        let (report, eval) = self.exp.fit(&model, head, train_ds, test_ds, mode);
        (model, report, eval)
    }

    /// Evaluate a stored head on a delay dataset built from new data
    /// with the shared normalizer (zero-shot transfer measurement).
    pub fn eval_delay_on(&self, data: Arc<TraceData>) -> EvalReport {
        let (_, test_ds) = self.exp.delay_datasets(data, Some(self.norm.clone()));
        self.exp.eval_head(&self.model, self.delay_head(), &test_ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Aggregation;
    use ntt_sim::scenarios::{Scenario, ScenarioConfig};
    use ntt_sim::SimTime;

    fn tiny_exp() -> Experiment {
        Experiment::new(NttConfig {
            aggregation: Aggregation::MultiScale { block: 1 },
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            seed: 9,
            ..NttConfig::default()
        })
        .stride(8)
        .with_train(TrainConfig {
            epochs: 1,
            batch_size: 16,
            lr: 2e-3,
            max_steps_per_epoch: Some(6),
            ..TrainConfig::default()
        })
    }

    fn fast_scenario(seed: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::tiny(seed);
        cfg.duration = SimTime::from_millis(1500);
        cfg.drain = SimTime::from_millis(300);
        cfg
    }

    #[test]
    fn pretrain_share_finetune_end_to_end() {
        let exp = tiny_exp();
        let pre = exp.pretrain(&SweepSpec::single(Scenario::Pretrain, fast_scenario(3), 1));
        assert!(pre.report.as_ref().unwrap().final_loss().is_finite());
        assert!(pre.eval.unwrap().mse_norm > 0.0);
        assert_eq!(pre.heads.len(), 1);
        assert!(pre.meta("scenario_grid").is_some());

        let path =
            std::env::temp_dir().join(format!("ntt_pipeline_e2e_{}.ckpt", std::process::id()));
        pre.save(&path).unwrap();

        // The receiving site: file alone, no config.
        let shared = Pretrained::load(&path).unwrap();
        assert_eq!(shared.model.cfg.d_model, 16);
        assert_eq!(shared.norm, pre.norm);
        let ft = shared.finetune(
            &SweepSpec::single(Scenario::Case1, fast_scenario(4), 1),
            &FinetuneOpts::decoder_only(),
        );
        assert_eq!(ft.task, "delay");
        assert!(ft.eval.mse_norm.is_finite());
        assert!(ft.zero_shot.unwrap().mse_norm.is_finite());
        assert_eq!(ft.baselines.len(), 2);
        // Decoder-only must not have moved the shared trunk.
        for (a, b) in pre.model.params().iter().zip(shared.model.params().iter()) {
            assert_eq!(a.value(), b.value(), "shared trunk moved: {}", a.name());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn finetune_leaves_the_pretrained_weights_intact() {
        let exp = tiny_exp();
        let pre = exp.pretrain(&SweepSpec::single(Scenario::Pretrain, fast_scenario(5), 1));
        let before: Vec<_> = pre.model.params().iter().map(|p| p.value()).collect();
        let head_before: Vec<_> = pre
            .delay_head()
            .params()
            .iter()
            .map(|p| p.value())
            .collect();
        let ft = pre.finetune(
            &SweepSpec::single(Scenario::Case1, fast_scenario(6), 1),
            &FinetuneOpts::full(),
        );
        // Full fine-tuning moved the *copy*...
        assert!(ft
            .model
            .params()
            .iter()
            .zip(before.iter())
            .any(|(p, b)| p.value() != *b));
        // ...but the shared originals are untouched.
        for (p, b) in pre.model.params().iter().zip(before) {
            assert_eq!(p.value(), b, "pre-trained trunk moved: {}", p.name());
        }
        for (p, b) in pre.delay_head().params().iter().zip(head_before) {
            assert_eq!(p.value(), b, "pre-trained head moved: {}", p.name());
        }
    }

    #[test]
    fn mct_task_runs_through_the_same_pipeline() {
        let exp = tiny_exp();
        let pre = exp.pretrain(&SweepSpec::single(Scenario::Pretrain, fast_scenario(7), 1));
        let spec = SweepSpec::single(Scenario::Case1, fast_scenario(8), 1);
        let mct = pre.finetune_mct(&spec, &FinetuneOpts::decoder_only());
        assert_eq!(mct.task, "mct");
        assert_eq!(mct.head.kind(), "mct");
        assert!(mct.eval.mse_norm.is_finite());
        assert!(mct.zero_shot.is_none(), "no pre-trained MCT head existed");
        assert_eq!(mct.baselines.len(), 2);
    }

    #[test]
    fn subsampling_shrinks_the_training_set() {
        let exp = tiny_exp();
        let pre = exp.pretrain(&SweepSpec::single(Scenario::Pretrain, fast_scenario(9), 1));
        let spec = SweepSpec::single(Scenario::Case1, fast_scenario(10), 1);
        let full = pre.finetune(&spec, &FinetuneOpts::decoder_only());
        let small = pre.finetune(&spec, &FinetuneOpts::decoder_only().fraction(0.1).seed(1));
        assert!(small.train_windows < full.train_windows);
        assert_eq!(
            small.train_windows,
            ((full.train_windows as f64) * 0.1).round() as usize
        );
    }
}
