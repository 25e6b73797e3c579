//! The experiment runner behind the `paper` binary: the paper's tables
//! as data, over arms that are each wired once.
//!
//! A table is a list of rows; a row is label text plus MSE cells; a
//! cell names an arm (which model, or which naive baseline), the task,
//! the scenario the arm is fine-tuned and evaluated on, the share of
//! that scenario's training windows it may use, and the trunk's
//! aggregation and feature mask. [`Paper`] computes cells on
//! demand and shares the work across tables: each scenario is simulated
//! once, each (aggregation, mask) pair is pre-trained once, and a cell
//! that two tables print is computed once.
//!
//! Two scales ([`Env::new`]):
//! * `quick` (default): the paper's topology and protocol stack with
//!   shorter simulations (15 s × 2 runs) and a proportionally scaled
//!   model (256-packet windows, d_model 32). Minutes on one core.
//! * `paper`: the paper's dimensions (60 s × 10 runs, 1024-packet
//!   windows, d_model 64). Hours of CPU training.
//!
//! Both scales keep every comparison the paper makes; only absolute
//! numbers shrink. Every MSE cell is variance-relative
//! (`MSE / Var(test targets)`, printed ×1e-3; 1000 = predicting the
//! test mean).

use crate::report::{fmt_duration, fmt_e3, Table};
use ntt_core::baselines::{
    delay_ewma_mse, delay_last_observed_mse, mct_ewma_mse, mct_last_observed_mse, EWMA_ALPHA,
};
use ntt_core::{
    Aggregation, Experiment, FinetuneOpts, Finetuned, NttConfig, Pretrained, TrainConfig,
};
use ntt_data::{FeatureMask, MctDataset, Normalizer, TraceData, NUM_FEATURES};
use ntt_fleet::{run_fleet_traces, FleetConfig, SweepSpec};
use ntt_sim::scenarios::{RunTrace, Scenario, ScenarioConfig};
use ntt_sim::SimTime;
use std::sync::Arc;

/// The tables `paper` knows, in the order a bare run prints them.
pub const TABLES: [&str; 4] = ["datasets", "table1", "table2", "table3"];

pub const USAGE: &str = "usage: paper [--scale quick|paper] [--seed N] [--threads N] \
     [datasets|table1|table2|table3 ...] (no table: all four; --threads = sim+train workers, \
     0 = one per core, results identical at any value)";

/// The paper's "smaller" fine-tuning datasets.
const TEN_PCT: Option<f64> = Some(0.10);

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Paper,
}

/// Everything the tables read that depends on scale, as one plain
/// value.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// Simulation setup of every scenario; its seed seeds the runs.
    pub scenario: ScenarioConfig,
    /// Simulation runs per scenario (paper: 10).
    pub n_runs: usize,
    /// Trunk shape and init seed; each cell sets `aggregation` and
    /// `features`.
    pub model: NttConfig,
    /// Multi-timescale aggregation, and its fixed-block ablation.
    pub multiscale: Aggregation,
    pub fixed: Aggregation,
    /// Window stride in packets.
    pub stride: usize,
    pub pretrain: TrainConfig,
    /// Every fine-tune's loop, from scratch included: a fixed epoch
    /// count (like the paper), so wall-clock scales with dataset size —
    /// Table 2's training-time story.
    pub finetune: TrainConfig,
    /// Seed of the "10 %" subsample draws.
    pub seed: u64,
    /// Worker threads for simulation, training and evaluation (0 = one
    /// per core); results are bit-identical at any value.
    pub threads: usize,
}

impl Env {
    /// The environment of a scale. The quick budget is at most 6 × 100
    /// pre-training steps (522 at seed 1: the split holds 87 batches)
    /// and at most 40 × 20 = 800 steps per fine-tune. At seed 1 that
    /// leaves every NTT MCT cell worse than EWMA and the delay cells far
    /// behind last-observed; ROADMAP item 1 measures longer budgets.
    pub fn new(scale: Scale, seed: u64, threads: usize) -> Env {
        let quick = scale == Scale::Quick;
        let mut scenario = ScenarioConfig {
            seed,
            ..ScenarioConfig::default()
        };
        if quick {
            scenario.duration = SimTime::from_secs(15);
            scenario.drain = SimTime::from_secs(2);
        }
        let (d_model, d_ff) = if quick { (32, 64) } else { (64, 128) };
        let lr = if quick { 2e-3 } else { 1e-3 };
        let train = |epochs, max_steps_per_epoch, seed| TrainConfig {
            epochs,
            batch_size: 32,
            lr,
            max_steps_per_epoch,
            seed,
            ..TrainConfig::default()
        };
        Env {
            scenario,
            n_runs: if quick { 2 } else { 10 },
            model: NttConfig {
                d_model,
                n_heads: 4,
                n_layers: 2,
                d_ff,
                seed: seed ^ 0x5eed,
                ..NttConfig::default()
            },
            multiscale: if quick {
                Aggregation::MultiScale { block: 5 } // 256 packets
            } else {
                Aggregation::paper_multiscale() // 1024 packets
            },
            fixed: if quick {
                Aggregation::Fixed { block: 5 } // 240 packets
            } else {
                Aggregation::paper_fixed() // 1008 packets
            },
            stride: if quick { 24 } else { 32 },
            pretrain: if quick {
                train(6, Some(100), seed)
            } else {
                train(8, None, seed)
            },
            finetune: if quick {
                train(40, Some(20), seed ^ 1)
            } else {
                train(10, None, seed ^ 1)
            },
            seed,
            threads,
        }
    }
}

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    pub env: Env,
    /// Tables to print, in order.
    pub tables: Vec<&'static str>,
}

/// Parse `[--scale quick|paper] [--seed N] [--threads N] [TABLE ...]`
/// (`--threads` defaults to `NTT_THREADS`, else one per core).
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut scale, mut seed, mut threads) = (Scale::Quick, 0, ntt_core::env_threads(0));
    let mut tables = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut int = || {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{arg} needs an integer"))
        };
        match arg.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("paper") => Scale::Paper,
                    _ => return Err("--scale needs quick|paper".into()),
                }
            }
            "--seed" => seed = int()?,
            "--threads" => threads = int()? as usize,
            name => match TABLES.iter().find(|t| **t == name) {
                Some(t) => tables.push(*t),
                None => return Err(format!("unknown argument {name:?}")),
            },
        }
    }
    if tables.is_empty() {
        tables = TABLES.to_vec();
    }
    Ok(Args {
        env: Env::new(scale, seed, threads),
        tables,
    })
}

/// Which model — or which naive baseline — produces a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// The pre-trained model on the pre-training test split.
    PretrainEval,
    /// The pre-trained trunk frozen, its head fine-tuned.
    DecoderOnly,
    /// The pre-trained trunk and head both fine-tuned.
    Full,
    /// No pre-training: delay trains a fresh trunk and head, MCT an
    /// untrained trunk together with a fresh MCT head. Either fits its
    /// own normalizer on the fine-tuning data (it never saw any other).
    Scratch,
    LastObserved,
    /// EWMA with the paper's α = 0.01.
    Ewma,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    Delay,
    Mct,
}

/// What one MSE cell measures.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    arm: Arm,
    task: Task,
    /// The scenario the arm is fine-tuned and evaluated on.
    data: Scenario,
    /// Share of that scenario's training windows the arm trains on
    /// (`None` = all).
    fraction: Option<f64>,
    agg: Aggregation,
    mask: FeatureMask,
}

fn cell(
    arm: Arm,
    task: Task,
    data: Scenario,
    fraction: Option<f64>,
    agg: Aggregation,
    mask: FeatureMask,
) -> Option<Cell> {
    Some(Cell {
        arm,
        task,
        data,
        fraction,
        agg,
        mask,
    })
}

/// One printed row.
struct Row {
    /// Leading text columns.
    text: Vec<&'static str>,
    /// MSE cells, each followed by the paper's value; `None` prints `-`.
    cells: Vec<(Option<Cell>, &'static str)>,
    /// The paper's training time; `Some` appends the first cell's
    /// measured training time (`-` for a baseline) beside it.
    paper_time: Option<&'static str>,
}

struct TableSpec {
    title: &'static str,
    header: &'static [&'static str],
    rows: Vec<Row>,
}

/// A one-cell row of Tables 2 and 3: (text columns, arm, fraction,
/// mask, paper MSE, paper time).
type TimedRow = (
    Vec<&'static str>,
    Arm,
    Option<f64>,
    FeatureMask,
    &'static str,
    &'static str,
);

/// Multi-scale delay rows on `data`, each with a training-time column.
fn timed(env: &Env, data: Scenario, rows: Vec<TimedRow>) -> Vec<Row> {
    rows.into_iter()
        .map(|(text, arm, fraction, mask, paper, time)| Row {
            text,
            cells: vec![(
                cell(arm, Task::Delay, data, fraction, env.multiscale, mask),
                paper,
            )],
            paper_time: Some(time),
        })
        .collect()
}

/// Table 1: delay MSE on the pre-training data, then delay and MCT
/// after decoder-only fine-tuning on 10 % of case 1 (unseen
/// cross-traffic), for the pre-trained NTT, the four ablations of §3,
/// from scratch, and the two naive baselines.
fn table1(env: &Env) -> TableSpec {
    use Arm::*;
    use Scenario::{Case1, Pretrain};
    use Task::*;
    let (ms, all) = (env.multiscale, FeatureMask::all());
    let row = |label, cells: [Option<Cell>; 3], paper: [&'static str; 3]| Row {
        text: vec![label],
        cells: cells.into_iter().zip(paper).collect(),
        paper_time: None,
    };
    #[rustfmt::skip]
    let variants = [
        ("Pre-trained", ms, all, ["0.072", "0.097", "65"]),
        ("No aggregation", Aggregation::None, all, ["0.258", "0.430", "61"]),
        ("Fixed aggregation", env.fixed, all, ["0.055", "0.134", "115"]),
        ("Without packet size", ms, FeatureMask::without_size(), ["0.001", "8.688", "94"]),
        ("Without delay", ms, FeatureMask::without_delay(), ["15.797", "10.898", "802"]),
    ];
    let mut rows: Vec<Row> = variants
        .into_iter()
        .map(|(label, agg, mask, paper)| {
            let cells = [
                cell(PretrainEval, Delay, Pretrain, None, agg, mask),
                cell(DecoderOnly, Delay, Case1, TEN_PCT, agg, mask),
                cell(DecoderOnly, Mct, Case1, TEN_PCT, agg, mask),
            ];
            row(label, cells, paper)
        })
        .collect();
    let scratch = [
        None,
        cell(Scratch, Delay, Case1, TEN_PCT, ms, all),
        cell(Scratch, Mct, Case1, TEN_PCT, ms, all),
    ];
    rows.push(row("From scratch", scratch, ["-", "0.313", "117"]));
    for (label, arm, paper) in [
        ("Last observed", LastObserved, ["0.142", "0.121", "2189"]),
        ("EWMA (a=0.01)", Ewma, ["0.259", "0.211", "1147"]),
    ] {
        let cells = [
            cell(arm, Delay, Pretrain, None, ms, all),
            cell(arm, Delay, Case1, None, ms, all),
            cell(arm, Mct, Case1, None, ms, all),
        ];
        rows.push(row(label, cells, paper));
    }
    TableSpec {
        title: "Table 1 - variance-relative MSE x1e-3 for all models and tasks (paper reference in [brackets])",
        header: &[
            "Model",
            "Delay pre-train",
            "[paper]",
            "Delay fine-tune 10%",
            "[paper]",
            "MCT log",
            "[paper]",
        ],
        rows,
    }
}

/// Table 2: what fine-tuning costs on the same topology (case 1) —
/// pre-trained + decoder-only vs from scratch, on the full and the
/// 10 % fine-tuning set, with training time.
fn table2(env: &Env) -> TableSpec {
    use Arm::{DecoderOnly, Scratch};
    let (pre, scratch, all) = ("Decoder only", "Full NTT", FeatureMask::all());
    #[rustfmt::skip]
    let rows = vec![
        (vec!["Pre-trained + Fine-tuning (full)", pre], DecoderOnly, None, all, "0.033", "8h45"),
        (vec!["Pre-trained + Fine-tuning (10%)", pre], DecoderOnly, TEN_PCT, all, "0.037", "3h45"),
        (vec!["From scratch + Fine-tuning (full)", scratch], Scratch, None, all, "0.036", "26h"),
        (vec!["From scratch + Fine-tuning (10%)", scratch], Scratch, TEN_PCT, all, "0.118", "8h40"),
    ];
    TableSpec {
        title: "Table 2 - fine-tuning cost on the same topology (variance-relative delay MSE x1e-3; paper in [brackets])",
        header: &["Setting", "Layers trained", "MSE", "[paper]", "Train time", "[paper]"],
        rows: timed(env, Scenario::Case1, rows),
    }
}

/// Table 3: the larger topology (case 2), where receivers sit at
/// different path depths. The paper fine-tunes the full model here;
/// in-text it adds the naive baselines and the no-addressing ablation.
fn table3(env: &Env) -> TableSpec {
    use Arm::*;
    let (all, no_addr) = (FeatureMask::all(), FeatureMask::without_receiver());
    #[rustfmt::skip]
    let rows = vec![
        (vec!["Pre-trained + full data"], Full, None, all, "0.004", "10h"),
        (vec!["Pre-trained + 10% data"], Full, TEN_PCT, all, "0.035", "8h"),
        (vec!["From scratch + full data"], Scratch, None, all, "5.2", "20h"),
        (vec!["From scratch + 10% data"], Scratch, TEN_PCT, all, "8.2", "11h"),
        (vec!["Last observed (baseline)"], LastObserved, None, all, "11.2", "-"),
        (vec!["EWMA (baseline)"], Ewma, None, all, "4.0", "-"),
        (vec!["Pre-trained, no addressing + 10%"], Full, TEN_PCT, no_addr, "2.8", "-"),
    ];
    TableSpec {
        title: "Table 3 - larger topology (variance-relative delay MSE x1e-3; paper in [brackets])",
        header: &["Setting", "MSE", "[paper]", "Train time", "[paper]"],
        rows: timed(env, Scenario::Case2, rows),
    }
}

/// One scenario's simulated runs.
struct Sim {
    scenario: Scenario,
    data: Arc<TraceData>,
    /// Its row of the Fig. 4 datasets table.
    stats: Vec<String>,
}

/// A computed cell.
#[derive(Debug, Clone, Copy)]
struct Measured {
    /// Variance-relative MSE.
    nmse: f64,
    /// Training wall time in seconds (`None` for a naive baseline).
    wall: Option<f64>,
}

/// One invocation's shared work: simulations, pre-trainings and cells,
/// each computed on first use and reused by every later table.
pub struct Paper {
    env: Env,
    sims: Vec<Sim>,
    pretrained: Vec<((Aggregation, FeatureMask), Pretrained)>,
    cells: Vec<(Cell, Measured)>,
}

impl Paper {
    pub fn new(env: Env) -> Paper {
        Paper {
            env,
            sims: Vec::new(),
            pretrained: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Compute the table named `name` (one of [`TABLES`]).
    pub fn table(&mut self, name: &str) -> Table {
        let spec = match name {
            "datasets" => return self.datasets(),
            "table1" => table1(&self.env),
            "table2" => table2(&self.env),
            "table3" => table3(&self.env),
            other => panic!("unknown table {other:?}"),
        };
        let mut table = Table::new(spec.title, spec.header);
        for row in spec.rows {
            let mut out: Vec<String> = row.text.iter().map(|s| s.to_string()).collect();
            let measured: Vec<Option<Measured>> = row
                .cells
                .iter()
                .map(|(c, _)| c.map(|c| self.measure(c)))
                .collect();
            for (m, (_, paper)) in measured.iter().zip(&row.cells) {
                out.push(m.map_or("-".into(), |m| fmt_e3(m.nmse)));
                out.push(format!("[{paper}]"));
            }
            if let Some(time) = row.paper_time {
                let wall = measured[0].and_then(|m| m.wall);
                out.push(wall.map_or("-".into(), fmt_duration));
                out.push(format!("[{time}]"));
            }
            table.row(&out);
        }
        table
    }

    /// Fig. 4's datasets: packet and message counts, drops, and the
    /// delay and MCT distributions of each scenario's runs.
    fn datasets(&mut self) -> Table {
        let mut table = Table::new(
            "Fig. 4 datasets (paper pre-training: ~1.2M packets; MCT mean 0.2s, p99.9 23s)",
            &[
                "Dataset",
                "packets",
                "messages",
                "drops",
                "delay mean",
                "delay p50",
                "delay p99",
                "MCT mean",
                "MCT p99.9",
            ],
        );
        for (scenario, label) in [
            (Scenario::Pretrain, "Pre-training"),
            (Scenario::Case1, "Case 1 (+cross-traffic)"),
            (Scenario::Case2, "Case 2 (larger topology)"),
        ] {
            let sim = self.sim(scenario);
            let mut row = vec![label.to_string()];
            row.extend_from_slice(&self.sims[sim].stats);
            table.row(&row);
        }
        table
    }

    /// Index of `scenario` in `sims`, simulating it on first use.
    fn sim(&mut self, scenario: Scenario) -> usize {
        if let Some(i) = self.sims.iter().position(|s| s.scenario == scenario) {
            return i;
        }
        let env = &self.env;
        eprintln!("[fleet] generating {} x {scenario:?} runs...", env.n_runs);
        let spec = SweepSpec::single(scenario, env.scenario, env.n_runs);
        let (traces, report) = run_fleet_traces(&spec, &FleetConfig::with_threads(env.threads));
        eprintln!("[fleet] {scenario:?}: {}", report.summary());
        self.sims.push(Sim {
            scenario,
            data: TraceData::from_traces(&traces),
            stats: trace_stats(&traces),
        });
        self.sims.len() - 1
    }

    fn data(&mut self, scenario: Scenario) -> Arc<TraceData> {
        let i = self.sim(scenario);
        Arc::clone(&self.sims[i].data)
    }

    /// The pipeline of one (aggregation, mask) variant at this scale.
    fn experiment(&self, aggregation: Aggregation, features: FeatureMask) -> Experiment {
        let env = &self.env;
        Experiment::new(NttConfig {
            aggregation,
            features,
            ..env.model
        })
        .stride(env.stride)
        .with_train(env.pretrain)
        .threads(env.threads)
    }

    /// The variant pre-trained on the pre-training scenario, trained on
    /// first use; it carries the fine-tuning loop for every arm over it.
    fn pretrained(&mut self, agg: Aggregation, mask: FeatureMask) -> &Pretrained {
        let i = match self.pretrained.iter().position(|(k, _)| *k == (agg, mask)) {
            Some(i) => i,
            None => {
                let data = self.data(Scenario::Pretrain);
                let grid = format!("{agg:?}, {mask:?}");
                let mut pre = self.experiment(agg, mask).pretrain_on(data, grid, None);
                let report = pre.report.as_ref().expect("pretrain_on always reports");
                eprintln!(
                    "[pretrain] {agg:?} {mask:?}: {} steps in {}; grad norm {:.3} -> {:.3}",
                    report.steps,
                    fmt_duration(report.wall.as_secs_f64()),
                    report.grad_norms.first().copied().unwrap_or(0.0),
                    report.final_grad_norm(),
                );
                pre.exp.train = self.env.finetune;
                self.pretrained.push(((agg, mask), pre));
                self.pretrained.len() - 1
            }
        };
        &self.pretrained[i].1
    }

    fn measure(&mut self, cell: Cell) -> Measured {
        if let Some((_, m)) = self.cells.iter().find(|(c, _)| *c == cell) {
            return *m;
        }
        let m = self.compute(cell);
        eprintln!("[cell] {cell:?}: MSE {}e-3", fmt_e3(m.nmse));
        self.cells.push((cell, m));
        m
    }

    /// The one place each arm is wired.
    fn compute(&mut self, c: Cell) -> Measured {
        let data = self.data(c.data);
        let seed = self.env.seed;
        let opts = |o: FinetuneOpts| match c.fraction {
            Some(f) => o.fraction(f).seed(seed),
            None => o.seed(seed),
        };
        let trained = |ft: Finetuned| Measured {
            nmse: ft.eval.mse_raw / ft.test_target_variance,
            wall: Some(ft.report.wall.as_secs_f64()),
        };
        let baseline = |mse: f64, variance: f64| Measured {
            nmse: mse / variance,
            wall: None,
        };
        let exp = self.experiment(c.agg, c.mask);
        match (c.arm, c.task) {
            (Arm::PretrainEval, Task::Delay) => {
                assert_eq!(c.data, Scenario::Pretrain, "pre-training data only");
                let pre = self.pretrained(c.agg, c.mask);
                let eval = pre.eval.as_ref().expect("pretrain_on always evaluates");
                Measured {
                    nmse: eval.mse_raw / pre.test_target_variance.expect("recorded"),
                    wall: pre.report.as_ref().map(|r| r.wall.as_secs_f64()),
                }
            }
            (Arm::PretrainEval, Task::Mct) => panic!("pre-training trains the delay task only"),
            (Arm::DecoderOnly | Arm::Full, task) => {
                let o = opts(match c.arm {
                    Arm::Full => FinetuneOpts::full(),
                    _ => FinetuneOpts::decoder_only(),
                });
                let pre = self.pretrained(c.agg, c.mask);
                trained(match task {
                    Task::Delay => pre.finetune_on(data, &o),
                    Task::Mct => pre.finetune_mct_on(data, &o),
                })
            }
            (Arm::Scratch, task) => {
                let mut exp = exp.with_train(self.env.finetune);
                exp.model.seed ^= 0xff;
                let o = opts(FinetuneOpts::full());
                trained(match task {
                    Task::Delay => exp.scratch_on(data, &o),
                    Task::Mct => {
                        let norm = exp.delay_datasets(Arc::clone(&data), None).0.norm;
                        exp.model.seed ^= 0x01;
                        exp.untrained(norm).finetune_mct_on(data, &o)
                    }
                })
            }
            (Arm::LastObserved | Arm::Ewma, Task::Delay) => {
                let (_, test) = exp.delay_datasets(data, None);
                let mse = match c.arm {
                    Arm::Ewma => delay_ewma_mse(&test, EWMA_ALPHA),
                    _ => delay_last_observed_mse(&test),
                };
                baseline(mse, test.target_variance())
            }
            (Arm::LastObserved | Arm::Ewma, Task::Mct) => {
                // The baselines read raw log-MCTs; no feature scaling.
                let identity = Normalizer::identity(NUM_FEATURES);
                let (_, test) = MctDataset::build(data, exp.data, identity);
                let mse = match c.arm {
                    Arm::Ewma => mct_ewma_mse(&test, EWMA_ALPHA),
                    _ => mct_last_observed_mse(&test),
                };
                baseline(mse, test.target_log_variance())
            }
        }
    }
}

/// A scenario's Fig. 4 statistics: packets, messages, drops, delay
/// mean/p50/p99 and MCT mean/p99.9.
fn trace_stats(traces: &[RunTrace]) -> Vec<String> {
    let sorted = |mut v: Vec<u64>| {
        v.sort_unstable();
        v
    };
    let secs = |ns: u64| ns as f64 / 1e9;
    let mean = |v: &[u64]| v.iter().map(|&d| d as f64).sum::<f64>() / v.len().max(1) as f64 / 1e9;
    let ms = |s: f64| format!("{:.1} ms", s * 1e3);
    let packets = traces.iter().flat_map(|t| &t.packets);
    let messages = traces.iter().flat_map(|t| &t.messages);
    let delays = sorted(packets.clone().map(|p| p.delay_ns).collect());
    let mcts = sorted(messages.clone().map(|m| m.mct_ns()).collect());
    let (n, m) = (delays.len().max(1), mcts.len().max(1));
    vec![
        packets.count().to_string(),
        messages.count().to_string(),
        traces.iter().map(|t| t.drops).sum::<u64>().to_string(),
        ms(mean(&delays)),
        ms(secs(delays[n / 2])),
        ms(secs(delays[(n as f64 * 0.99) as usize % n])),
        format!("{:.2} s", mean(&mcts)),
        format!(
            "{:.1} s",
            secs(mcts[((m as f64 * 0.999) as usize).min(m - 1)])
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_consistent_configs() {
        let e = Env::new(Scale::Quick, 0, 0);
        assert_eq!(e.multiscale.seq_len(), 256);
        assert_eq!(e.model.d_model % e.model.n_heads, 0);
        let p = Env::new(Scale::Paper, 0, 0);
        assert_eq!(p.multiscale.seq_len(), 1024);
        assert_eq!(p.fixed.seq_len(), 1008);
        assert_eq!(p.n_runs, 10);
    }

    #[test]
    fn quick_scenario_is_shorter_but_same_topology() {
        let s = Env::new(Scale::Quick, 0, 0).scenario;
        assert_eq!(s.n_senders, 60, "topology is the paper's");
        assert_eq!(s.bottleneck_bps, 30_000_000);
        assert_eq!(s.bottleneck_queue, 1000);
        assert!(s.duration < ScenarioConfig::default().duration);
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_or_name_what_is_wrong() {
        let all = parse(&[]).unwrap();
        assert_eq!(all.tables, TABLES);
        let one = parse(&["--scale", "paper", "--seed", "7", "table2"]).unwrap();
        assert_eq!(one.tables, ["table2"]);
        assert_eq!((one.env.seed, one.env.n_runs), (7, 10));
        for (bad, says) in [
            (&["--fast"][..], "\"--fast\""),
            (&["--seed", "x"], "--seed needs an integer"),
            (&["--seed"], "--seed needs an integer"),
            (&["table4"], "\"table4\""),
            (&["--scale", "huge"], "--scale needs quick|paper"),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(says), "{bad:?}: {err}");
        }
    }

    /// Every table end to end on one tiny seed: simulations of a few
    /// seconds, 64-packet windows, d_model 16, three steps per loop.
    #[test]
    fn every_table_runs_at_tiny_scale() {
        let quick = Env::new(Scale::Quick, 1, 0);
        let train = TrainConfig {
            epochs: 1,
            batch_size: 16,
            max_steps_per_epoch: Some(3),
            ..quick.pretrain
        };
        let env = Env {
            scenario: ScenarioConfig::tiny(1),
            n_runs: 2,
            model: NttConfig {
                d_model: 16,
                n_heads: 2,
                n_layers: 1,
                d_ff: 32,
                ..quick.model
            },
            multiscale: Aggregation::MultiScale { block: 1 }, // 64 packets
            fixed: Aggregation::Fixed { block: 1 },           // 48 packets
            stride: 8,
            pretrain: train,
            finetune: train,
            ..quick
        };
        let mut paper = Paper::new(env);
        for (name, rows) in TABLES.into_iter().zip([3, 8, 4, 7]) {
            let table = paper.table(name);
            assert_eq!(table.rows().len(), rows, "{name}");
            // `inf` and `NaN` parse too, so every MSE cell is checked.
            for cell in table.rows().iter().flatten() {
                if let Ok(v) = cell.parse::<f64>() {
                    assert!(v.is_finite(), "{name}: {cell}");
                }
            }
        }
        // Shared work ran once: three scenarios, six distinct
        // pre-trainings, and two of the 34 printed cells are repeats.
        assert_eq!(paper.sims.len(), 3);
        assert_eq!(paper.pretrained.len(), 6);
        assert_eq!(paper.cells.len(), 32);
    }
}
