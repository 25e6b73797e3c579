//! `train_paper`: packets to a trained, saved, reloaded, fine-tuned and
//! serving model. Set-up simulates the traces; a pass is one trip through
//! `Experiment::pretrain_on`, `Pretrained::save`/`load`,
//! `finetune_on` and 512 single-window predictions from the reloaded
//! model, and every pass is a stretch.

use crate::host;
use crate::phase::{Opts, Outcome, Stretch};
use crate::serving::{TempFile, HEAD};
use crate::stats::FAILED_ATTEMPT;
use crate::trace::Recorder;
use ntt_core::{Experiment, FinetuneOpts, NttConfig, Pretrained, TrainConfig, TrainReport};
use ntt_data::{RunData, TraceData};
use ntt_fleet::{FleetReport, SweepSpec};
use ntt_serve::InferenceEngine;
use ntt_sim::scenarios::{Scenario, ScenarioConfig};
use ntt_sim::SimTime;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// How much work set-up and a pass are. Full scale is the paper's ten
/// pre-training runs and one fine-tuning run of a simulated minute each;
/// every run is then cut to a fixed packet count, so the work of a pass
/// does not depend on the seed.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub pre_runs: usize,
    pub sim_secs: u64,
    /// Packets kept of each pre-training run.
    pub pre_pkts: usize,
    /// Packets kept of the fine-tuning run.
    pub ft_pkts: usize,
    /// Cap on optimizer steps per epoch (two epochs per training).
    pub steps_per_epoch: usize,
    /// Single-window predictions that end a pass.
    pub predictions: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    pub fn of(smoke: bool) -> Scale {
        if smoke {
            Scale {
                pre_runs: 3,
                sim_secs: 3,
                pre_pkts: 3072,
                ft_pkts: 3072,
                steps_per_epoch: 2,
                predictions: 256,
                setups: 2,
            }
        } else {
            // 81 windows a run at stride 64: 648 to train on, so forty
            // steps of 32 in two epochs, ~1.8 s of a ~2.4 s pass.
            Scale {
                pre_runs: 10,
                sim_secs: 60,
                pre_pkts: 6144,
                ft_pkts: 8192,
                steps_per_epoch: 20,
                // Twice the 256 the issue asked for: with twelve samples
                // beyond p95 the best pass's p95 spread 13-18 % between
                // runs; with twenty-five it is the neighbours' again.
                predictions: 512,
                setups: 3,
            }
        }
    }
}

/// Untimed predictions before a pass's timed ones.
const WARM_PREDICTIONS: usize = 16;

/// Passes a run makes at least, so the pooled p99 of their predictions
/// has ten samples beyond it.
const MIN_PASSES: usize = 4;

/// The pipeline at the workload's shape: stride 64, batch 32, two
/// epochs, threads one per core (the `Experiment` default).
pub fn experiment(cfg: NttConfig, seed: u64, scale: &Scale) -> Experiment {
    Experiment::new(cfg).stride(64).with_train(TrainConfig {
        epochs: 2,
        batch_size: 32,
        max_steps_per_epoch: Some(scale.steps_per_epoch),
        seed,
        ..TrainConfig::default()
    })
}

/// Simulated traces, cut to size, and what making them cost.
pub struct Data {
    pub pre: Arc<TraceData>,
    pub ft: Arc<TraceData>,
    /// Report of the pre-training sweep.
    pub fleet: FleetReport,
    pub steals: u64,
    pub shard_retries: u64,
    pub secs: f64,
}

fn cut(data: &TraceData, pkts: usize) -> Result<Arc<TraceData>, String> {
    let runs = data
        .runs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if r.pkts.len() < pkts {
                return Err(format!(
                    "simulated run {i} has {} packets, the workload wants {pkts}",
                    r.pkts.len()
                ));
            }
            Ok(RunData {
                pkts: r.pkts[..pkts].to_vec(),
                anchors: r
                    .anchors
                    .iter()
                    .filter(|a| a.anchor < pkts)
                    .copied()
                    .collect(),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TraceData::from_runs(runs))
}

fn counter(name: &str) -> u64 {
    ntt_obs::counter(name).get()
}

/// One set-up: both sweeps through `Experiment::sweep`, then the cut.
pub fn setup(exp: &Experiment, seed: u64, scale: &Scale) -> Result<Data, String> {
    let t = Instant::now();
    let (steals0, retries0) = (counter("fleet.steals"), counter("fleet.shard_retries"));
    let scenario = |seed| ScenarioConfig {
        duration: SimTime::from_secs(scale.sim_secs),
        seed,
        ..ScenarioConfig::default()
    };
    let (pre, fleet) = exp.sweep(&SweepSpec::single(
        Scenario::Pretrain,
        scenario(seed),
        scale.pre_runs,
    ));
    let (ft, _) = exp.sweep(&SweepSpec::single(
        Scenario::Case1,
        scenario(seed ^ 0xca5e_0001),
        1,
    ));
    Ok(Data {
        pre: cut(&pre, scale.pre_pkts)?,
        ft: cut(&ft, scale.ft_pkts)?,
        fleet,
        steals: counter("fleet.steals") - steals0,
        shard_retries: counter("fleet.shard_retries") - retries0,
        secs: t.elapsed().as_secs_f64(),
    })
}

/// What one pass did and how long each part took.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Traces in memory to the fine-tuned, evaluated model; the
    /// predictions that follow are not in it.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Optimizer steps of pre-training and fine-tuning together.
    pub steps: u64,
    pub pre_train_s: f64,
    pub pre_steps: u64,
    pub save_ms: f64,
    pub load_ms: f64,
    pub ckpt_bytes: u64,
    pub ft_train_s: f64,
    pub ft_steps: u64,
    /// Mean loss of pre-training's last epoch.
    pub final_loss: f64,
    /// One latency per prediction, microseconds.
    pub lat_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

fn losses_ok(what: &str, report: &TrainReport, failed: &mut u64) {
    let l = &report.epoch_losses;
    let ok = l.iter().all(|v| v.is_finite()) && l.last() < l.first();
    if !ok {
        eprintln!("e2e: {what} epoch losses {l:?} are not finite and decreasing");
        *failed += 1;
    }
}

fn finite(what: &str, v: f64, failed: &mut u64) {
    if !v.is_finite() {
        eprintln!("e2e: {what} is {v}");
        *failed += 1;
    }
}

/// One pass. `rec` records its spans when this pass is a traced one.
pub fn pass(
    exp: &Experiment,
    data: &Data,
    scale: &Scale,
    dir: &Path,
    flip_expected_bit: bool,
    rec: Option<&mut Recorder>,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();

    let pre = exp.pretrain_on(Arc::clone(&data.pre), "e2e".into(), None);
    let t_pre = Instant::now();
    let ckpt = TempFile::new(dir, "train").map_err(|e| e.to_string())?;
    pre.save(ckpt.path())
        .map_err(|e| format!("Pretrained::save: {e}"))?;
    let t_save = Instant::now();
    let mut shared = Pretrained::load(ckpt.path()).map_err(|e| format!("Pretrained::load: {e}"))?;
    let t_load = Instant::now();
    // A checkpoint carries the window geometry, not the training loop.
    shared.exp.train = exp.train;
    shared.exp.threads = exp.threads;
    let ft = shared.finetune_on(
        Arc::clone(&data.ft),
        &FinetuneOpts::decoder_only().fraction(0.5),
    );
    let t_ft = Instant::now();

    p.wall_s = (t_ft - t0).as_secs_f64();
    p.cpu_s = host::cpu_seconds() - cpu0;
    let pre_report = pre.report.as_ref().ok_or("pretrain_on made no report")?;
    let pre_eval = pre.eval.ok_or("pretrain_on made no evaluation")?;
    p.pre_train_s = pre_report.wall.as_secs_f64();
    p.pre_steps = pre_report.steps as u64;
    p.save_ms = (t_save - t_pre).as_secs_f64() * 1e3;
    p.load_ms = (t_load - t_save).as_secs_f64() * 1e3;
    p.ckpt_bytes = std::fs::metadata(ckpt.path()).map_or(0, |m| m.len());
    p.ft_train_s = ft.report.wall.as_secs_f64();
    p.ft_steps = ft.report.steps as u64;
    p.steps = p.pre_steps + p.ft_steps;
    p.final_loss = pre_report.final_loss();

    losses_ok("pre-training", pre_report, &mut p.failed);
    losses_ok("fine-tuning", &ft.report, &mut p.failed);
    finite("pre-training evaluation", pre_eval.mse_norm, &mut p.failed);
    finite("fine-tuned evaluation", ft.eval.mse_norm, &mut p.failed);
    finite(
        "zero-shot evaluation",
        ft.zero_shot.map_or(f64::NAN, |z| z.mse_norm),
        &mut p.failed,
    );

    // What training wrote must serve: windows of the fine-tuning test
    // split, predicted one at a time by the reloaded checkpoint; one in
    // eight is compared with the model that never left memory.
    let (_, test) = shared
        .exp
        .delay_datasets(Arc::clone(&data.ft), Some(shared.norm.clone()));
    if test.is_empty() {
        return Err("the fine-tuning run has no test windows".into());
    }
    let windows: Vec<_> = (0..scale.predictions)
        .map(|i| test.batch(&[i % test.len()]).0)
        .collect();
    let memory = InferenceEngine::from_pretrained(pre);
    let reloaded = InferenceEngine::from_pretrained(shared);
    // A new engine's first forwards fill its tape arena; with a few dozen
    // samples beyond p95 they must not be among the timed ones.
    for w in &windows[..WARM_PREDICTIONS.min(windows.len())] {
        reloaded.predict(HEAD, w, None);
    }
    let mut predict_spans = Vec::new();
    for (i, w) in windows.iter().enumerate() {
        let at = Instant::now();
        let got = reloaded.predict(HEAD, w, None).item();
        let done = Instant::now();
        let mut ok = got.is_finite();
        if i % 8 == 0 {
            let mut want = memory.predict(HEAD, w, None).item();
            if flip_expected_bit && i == 0 {
                want = f32::from_bits(want.to_bits() ^ 1);
            }
            if got.to_bits() != want.to_bits() {
                eprintln!("e2e: prediction {i}: reloaded {got}, in memory {want}");
                ok = false;
            }
        }
        if ok {
            p.lat_us.push((done - at).as_secs_f64() * 1e6);
        } else {
            p.failed += 1;
            p.lat_us.push(FAILED_ATTEMPT);
        }
        predict_spans.push((at, done));
    }
    p.attempted = p.steps + scale.predictions as u64;
    p.failed = p.failed.min(p.attempted);

    if let Some(rec) = rec {
        let ns = |secs: f64| (secs * 1e9) as u64;
        let root = rec.span(None, "train.pass", rec.ns_of(t0), rec.now_ns());
        let mut pretrain = rec.span(
            Some(&root),
            "core.pretrain_on",
            rec.ns_of(t0),
            rec.ns_of(t_pre),
        );
        rec.lay(&mut pretrain, "core.train", ns(p.pre_train_s));
        rec.span(
            Some(&root),
            "core.ckpt_save",
            rec.ns_of(t_pre),
            rec.ns_of(t_save),
        );
        rec.span(
            Some(&root),
            "core.ckpt_load",
            rec.ns_of(t_save),
            rec.ns_of(t_load),
        );
        let mut finetune = rec.span(
            Some(&root),
            "core.finetune_on",
            rec.ns_of(t_load),
            rec.ns_of(t_ft),
        );
        rec.lay(&mut finetune, "core.train", ns(p.ft_train_s));
        let predictions = rec.span(
            Some(&root),
            "serve.predictions",
            rec.ns_of(t_ft),
            rec.now_ns(),
        );
        for (at, done) in predict_spans {
            rec.span(
                Some(&predictions),
                "serve.predict",
                rec.ns_of(at),
                rec.ns_of(done),
            );
        }
    }
    Ok(p)
}

/// What `--fresh-process-sample` prints: seconds of one set-up, and
/// `VmHWM` in MiB once one pass has followed it.
pub fn sample(opts: &Opts, cfg: NttConfig) -> Result<(f64, f64), String> {
    // Single-window predictions add time and no memory worth the name.
    let scale = Scale {
        predictions: 0,
        ..Scale::of(opts.smoke)
    };
    let exp = experiment(cfg, opts.seed, &scale);
    let data = setup(&exp, opts.seed, &scale)?;
    pass(&exp, &data, &scale, &opts.out_dir, false, None)?;
    let peak = host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    Ok((data.secs, peak))
}

/// Run [`sample`] in a process of its own and wait for it.
fn sample_in_fresh_process(opts: &Opts) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        "train_paper",
        "--seconds",
        "1",
        "--trace",
        "0",
    ])
    .args(["--seed", &opts.seed.to_string(), "--fresh-process-sample"])
    .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting a sample process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let numbers: Vec<f64> = text
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    match numbers[..] {
        [setup_s, peak_mb] if out.status.success() => Ok((setup_s, peak_mb)),
        _ => Err(format!(
            "a sample process ended with {} and {text:?}",
            out.status
        )),
    }
}

/// What the per-layer report reads besides the outcome: the last set-up
/// and the last pass.
pub struct Artifacts {
    pub data: Data,
    pub last: Pass,
}

/// Set-ups, one untimed warm-up pass, then passes until the time is up.
pub fn run(
    opts: &Opts,
    cfg: NttConfig,
    mut rec: Option<&mut Recorder>,
) -> Result<(Outcome, Artifacts), String> {
    let scale = Scale::of(opts.smoke);
    let exp = experiment(cfg, opts.seed, &scale);
    let mut outcome = Outcome::default();
    let data = setup(&exp, opts.seed, &scale)?;
    outcome.setups_s.push(data.secs);
    pass(&exp, &data, &scale, &opts.out_dir, false, None)?;
    // Peak memory of a training pass is the allocator's luck as much as
    // the program's need: worker threads come and go every step, and
    // which arena a tape's buffers land in moves VmHWM by 32 MiB steps
    // (280 to 350 MiB after one pass, 380 to 510 after eight). Luck only
    // ever adds, so the lowest of a few processes that did the same work
    // from nothing is the steady reading; they time a set-up each, too.
    let mut peaks = vec![host::peak_rss_mb().unwrap_or(0.0)];
    for _ in 1..scale.setups {
        let (setup_s, peak_mb) = sample_in_fresh_process(opts)?;
        outcome.setups_s.push(setup_s);
        peaks.push(peak_mb);
    }
    outcome.peak_rss_mb = peaks.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "e2e: set-ups {:?} s, peaks {peaks:?} MiB; {} + {} packets kept",
        outcome.setups_s,
        data.pre.n_packets(),
        data.ft.n_packets()
    );

    let tracing = rec.is_some();
    let t0 = Instant::now();
    let mut last = Pass::default();
    while t0.elapsed().as_secs_f64() < opts.seconds || outcome.stretches.len() < MIN_PASSES {
        // A traced run records every other pass, so it has both rates.
        let traced = tracing && outcome.stretches.len() % 2 == 0;
        let p = pass(
            &exp,
            &data,
            &scale,
            &opts.out_dir,
            opts.flip_expected_bit,
            rec.as_deref_mut().filter(|_| traced),
        )?;
        let mut stretch = Stretch {
            ops: p.steps,
            secs: p.wall_s,
            lat_us: p.lat_us.clone(),
            attempted: p.attempted,
            failed: p.failed,
            cpu_s: p.cpu_s,
            ..Stretch::default()
        };
        if tracing {
            stretch.halves.add(traced, p.steps, p.wall_s);
        }
        outcome.stretches.push(stretch);
        last = p;
    }
    Ok((outcome, Artifacts { data, last }))
}
