//! # ntt-bench
//!
//! Experiment harness regenerating every table and figure of
//! "A New Hope for Network Model Generalization" (HotNets '22).
//!
//! One binary, `paper` (`--scale quick|paper`, `--seed N`,
//! `--threads N`, then any of `datasets`, `table1`, `table2`, `table3`;
//! default all): Fig. 4's dataset statistics, MSE for all models,
//! tasks, baselines and ablations (Table 1), fine-tuning cost on the
//! same topology (Table 2), and generalization to the larger topology
//! (Table 3). [`runner`] holds the table specs and wires each arm once.
//!
//! Four benches remain under `benches/`, each for an assertion with no
//! other home (`kernels`, `serve_throughput`, `obs_overhead`,
//! `chaos_soak`); timing lives in the `e2e` benchmark.

pub mod report;
pub mod runner;
pub mod synth;
