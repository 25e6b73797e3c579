//! Shared experiment plumbing: scales, datasets, and training wrappers
//! used by the `table1`/`table2`/`table3`/`datasets` binaries.
//!
//! Two scales:
//! * `--scale quick` (default): the paper's topology and protocol stack
//!   with shorter simulations (15 s × 2 runs) and a proportionally
//!   scaled model (256-packet windows, d_model 32). Runs in minutes on
//!   one core.
//! * `--scale paper`: the paper's full dimensions (60 s × 10 runs,
//!   1024-packet windows, d_model 64). Hours of CPU training.
//!
//! Both scales preserve every *comparison* the paper makes; only
//! absolute numbers shrink.

use ntt_core::{
    Aggregation, EvalReport, Experiment, NttConfig, ParStrategy, Pretrained, TrainConfig,
    TrainReport,
};
use ntt_data::{DatasetConfig, DelayDataset, FeatureMask, MctDataset, Normalizer, TraceData};
use ntt_fleet::{run_fleet_traces, FleetConfig, SweepSpec};
use ntt_sim::scenarios::{Scenario, ScenarioConfig};
use ntt_sim::{RunTrace, SimTime};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Paper,
}

/// Parsed experiment environment.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    pub scale: Scale,
    pub seed: u64,
    /// Worker threads for *both* halves of the pipeline (0 = one per
    /// core): the simulation fleet fans scenario runs out per shard,
    /// and the trainer fans each optimizer step's batch out as
    /// microbatches. Both are bit-reproducible at any thread count, so
    /// this is purely a throughput knob.
    pub threads: usize,
}

impl Env {
    /// Parse `--scale quick|paper`, `--seed N`, and `--threads N` from
    /// argv (also honors `NTT_SCALE`/`NTT_THREADS`). Unknown flags
    /// abort with usage help.
    pub fn from_args() -> Env {
        let mut scale = match std::env::var("NTT_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Quick,
        };
        let mut seed = 0u64;
        // One NTT_THREADS parser for the workspace (trainer, fleet,
        // serve bench, and every table binary): ntt_core::env_threads.
        let mut threads = ntt_core::env_threads(0);
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    scale = match args.get(i).map(String::as_str) {
                        Some("quick") => Scale::Quick,
                        Some("paper") => Scale::Paper,
                        other => {
                            eprintln!("unknown scale {other:?}; use quick|paper");
                            std::process::exit(2);
                        }
                    };
                }
                "--seed" => {
                    i += 1;
                    seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--seed needs an integer");
                        std::process::exit(2);
                    });
                }
                "--threads" => {
                    i += 1;
                    threads = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--threads needs an integer (0 = auto): worker threads for simulation AND training, results identical at any value");
                        std::process::exit(2);
                    });
                }
                other => {
                    eprintln!(
                        "unknown argument {other:?} (supported: --scale quick|paper, --seed N, --threads N [sim+train workers, 0 = auto])"
                    );
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        // Re-export the resolved thread count so every ParStrategy
        // derived from the environment (evaluation wrappers,
        // TrainConfig::default) sees the flag too — "--threads" means
        // the whole pipeline, not just the calls that take it
        // explicitly. Safe only because from_args is the first thing
        // each binary's main() does, before any thread could read the
        // environment concurrently.
        std::env::set_var("NTT_THREADS", threads.to_string());
        Env {
            scale,
            seed,
            threads,
        }
    }

    /// Simulation setup (paper topology at both scales; only duration
    /// and run count shrink in quick mode).
    pub fn scenario_cfg(&self) -> ScenarioConfig {
        let mut cfg = ScenarioConfig {
            seed: self.seed,
            ..ScenarioConfig::default()
        };
        if self.scale == Scale::Quick {
            cfg.duration = SimTime::from_secs(15);
            cfg.drain = SimTime::from_secs(2);
        }
        cfg
    }

    /// Simulation runs per dataset (paper: 10).
    pub fn n_runs(&self) -> usize {
        match self.scale {
            Scale::Quick => 2,
            Scale::Paper => 10,
        }
    }

    /// Multi-timescale aggregation at this scale.
    pub fn agg_multiscale(&self) -> Aggregation {
        match self.scale {
            Scale::Quick => Aggregation::MultiScale { block: 5 }, // 256 pkts
            Scale::Paper => Aggregation::paper_multiscale(),      // 1024 pkts
        }
    }

    /// Fixed-aggregation ablation at this scale.
    pub fn agg_fixed(&self) -> Aggregation {
        match self.scale {
            Scale::Quick => Aggregation::Fixed { block: 5 }, // 240 pkts
            Scale::Paper => Aggregation::paper_fixed(),      // 1008 pkts
        }
    }

    /// Model configuration for a given aggregation + feature ablation.
    pub fn model_cfg(&self, aggregation: Aggregation, features: FeatureMask) -> NttConfig {
        let (d_model, d_ff) = match self.scale {
            Scale::Quick => (32, 64),
            Scale::Paper => (64, 128),
        };
        NttConfig {
            aggregation,
            d_model,
            n_heads: 4,
            n_layers: 2,
            d_ff,
            features,
            seed: self.seed ^ 0x5eed,
        }
    }

    /// Window extraction parameters for a given sequence length.
    pub fn ds_cfg(&self, seq_len: usize) -> DatasetConfig {
        DatasetConfig {
            seq_len,
            stride: match self.scale {
                Scale::Quick => 24,
                Scale::Paper => 32,
            },
            test_fraction: 0.2,
        }
    }

    /// Pre-training loop parameters. The quick budget (600 steps) is
    /// calibrated so the MCT task crosses below the naive baselines;
    /// the delay task keeps improving well past it.
    pub fn pretrain_cfg(&self) -> TrainConfig {
        match self.scale {
            Scale::Quick => TrainConfig {
                epochs: 6,
                batch_size: 32,
                lr: 2e-3,
                max_steps_per_epoch: Some(100),
                seed: self.seed,
                par: ParStrategy::with_threads(self.threads),
                ..TrainConfig::default()
            },
            Scale::Paper => TrainConfig {
                epochs: 8,
                batch_size: 32,
                lr: 1e-3,
                max_steps_per_epoch: None,
                seed: self.seed,
                par: ParStrategy::with_threads(self.threads),
                ..TrainConfig::default()
            },
        }
    }

    /// Fine-tuning loop parameters: a fixed epoch count (like the
    /// paper), so wall-clock scales with dataset size — that is
    /// Table 2's training-time story. The quick-scale step cap keeps
    /// full-dataset fine-tuning at ~800 steps and 10%-dataset runs at
    /// ~300 (enough for the MCT head to cross the naive baselines).
    pub fn finetune_cfg(&self) -> TrainConfig {
        match self.scale {
            Scale::Quick => TrainConfig {
                epochs: 40,
                batch_size: 32,
                lr: 2e-3,
                max_steps_per_epoch: Some(20),
                seed: self.seed ^ 1,
                par: ParStrategy::with_threads(self.threads),
                ..TrainConfig::default()
            },
            Scale::Paper => TrainConfig {
                epochs: 10,
                batch_size: 32,
                lr: 1e-3,
                max_steps_per_epoch: None,
                seed: self.seed ^ 1,
                par: ParStrategy::with_threads(self.threads),
                ..TrainConfig::default()
            },
        }
    }

    /// Generate the traces for one Fig. 4 scenario through the fleet
    /// executor (sequential seed schedule, so traces are bit-identical
    /// to a serial loop over seeds at any thread count).
    pub fn traces(&self, scenario: Scenario) -> Vec<RunTrace> {
        let label = format!("{scenario:?}");
        eprintln!("[fleet] generating {} x {label} runs...", self.n_runs());
        let spec = SweepSpec::single(scenario, self.scenario_cfg(), self.n_runs());
        let (traces, report) = run_fleet_traces(&spec, &FleetConfig::with_threads(self.threads));
        eprintln!("[fleet] {label}: {}", report.summary());
        traces
    }
}

/// Build delay train/test datasets from traces. Pass `norm` to reuse
/// pre-training normalization during fine-tuning.
pub fn delay_sets(
    env: &Env,
    traces: &[RunTrace],
    seq_len: usize,
    norm: Option<Normalizer>,
) -> (DelayDataset, DelayDataset) {
    let data = TraceData::from_traces(traces);
    DelayDataset::build(data, env.ds_cfg(seq_len), norm)
}

/// Build MCT train/test datasets from traces.
pub fn mct_sets(
    env: &Env,
    traces: &[RunTrace],
    seq_len: usize,
    feature_norm: Normalizer,
) -> (MctDataset, MctDataset) {
    let data = TraceData::from_traces(traces);
    MctDataset::build(data, env.ds_cfg(seq_len), feature_norm)
}

/// The [`Experiment`] pipeline for one (aggregation, mask) variant at
/// this scale: model config, per-scale windowing/stride, the
/// pre-training loop parameters, and the shared thread knob.
pub fn experiment(env: &Env, aggregation: Aggregation, mask: FeatureMask) -> Experiment {
    let cfg = env.model_cfg(aggregation, mask);
    let mut exp = Experiment::new(cfg)
        .with_train(env.pretrain_cfg())
        .threads(env.threads);
    exp.data = env.ds_cfg(cfg.seq_len());
    exp
}

/// A pre-trained NTT variant (one Table 1 row's model).
pub struct PretrainedVariant {
    pub label: String,
    /// The full pipeline object: model, heads, normalizer, provenance.
    pub pre: Pretrained,
    /// Delay MSE (raw seconds²) on the pre-training test split.
    pub pretrain_eval: EvalReport,
    /// `mse_raw / Var(test targets)` — the paper's apparent unit
    /// (variance-relative MSE; 1.0 = predicting the mean).
    pub pretrain_nmse: f64,
    pub report: TrainReport,
    pub mask: FeatureMask,
}

impl PretrainedVariant {
    /// Feature normalizer fitted on the pre-training data (reused when
    /// fine-tuning, so representations stay comparable).
    pub fn norm(&self) -> &Normalizer {
        &self.pre.norm
    }
}

/// Pre-train one NTT variant on the pre-training traces, through the
/// `Experiment` pipeline (the mask rides in `NttConfig::features` and
/// is applied to every dataset the pipeline builds).
pub fn pretrain_variant(
    env: &Env,
    traces: &[RunTrace],
    aggregation: Aggregation,
    mask: FeatureMask,
    label: &str,
) -> PretrainedVariant {
    let exp = experiment(env, aggregation, mask);
    eprintln!("[pretrain:{label}] pre-training via Experiment pipeline...");
    let pre = exp.pretrain_on(
        TraceData::from_traces(traces),
        format!("{label}: {} pretrain traces", traces.len()),
        None,
    );
    let report = pre.report.clone().expect("pretrain_on always reports");
    let pretrain_eval = pre.eval.expect("pretrain_on always evaluates");
    let pretrain_nmse = pretrain_eval.mse_raw
        / pre
            .test_target_variance
            .expect("pretrain_on records variance");
    eprintln!(
        "[pretrain:{label}] {} steps in {}; test MSE {:.3}e-3 (variance-relative); grad norm {:.3} -> {:.3}",
        report.steps,
        crate::report::fmt_duration(report.wall.as_secs_f64()),
        pretrain_nmse * 1e3,
        report.grad_norms.first().copied().unwrap_or(0.0),
        report.final_grad_norm(),
    );
    PretrainedVariant {
        label: label.to_string(),
        pre,
        pretrain_eval,
        pretrain_nmse,
        report,
        mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_env() -> Env {
        Env {
            scale: Scale::Quick,
            seed: 0,
            threads: 0,
        }
    }

    #[test]
    fn scales_produce_consistent_configs() {
        let e = quick_env();
        let agg = e.agg_multiscale();
        assert_eq!(agg.seq_len(), 256);
        let cfg = e.model_cfg(agg, FeatureMask::all());
        assert_eq!(cfg.seq_len(), 256);
        assert_eq!(cfg.d_model % cfg.n_heads, 0);
        let p = Env {
            scale: Scale::Paper,
            seed: 0,
            threads: 0,
        };
        assert_eq!(p.agg_multiscale().seq_len(), 1024);
        assert_eq!(p.agg_fixed().seq_len(), 1008);
        assert_eq!(p.n_runs(), 10);
    }

    #[test]
    fn quick_scenario_is_shorter_but_same_topology() {
        let e = quick_env();
        let s = e.scenario_cfg();
        assert_eq!(s.n_senders, 60, "topology is the paper's");
        assert_eq!(s.bottleneck_bps, 30_000_000);
        assert_eq!(s.bottleneck_queue, 1000);
        assert!(s.duration < ScenarioConfig::default().duration);
    }
}
