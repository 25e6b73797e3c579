//! # ntt-bench
//!
//! Experiment harness regenerating every table and figure of
//! "A New Hope for Network Model Generalization" (HotNets '22).
//!
//! Binaries (all accept `--scale quick|paper` and `--seed N`):
//! * `datasets` — Fig. 4 dataset generation + statistics
//! * `table1` — MSE for all models, tasks, baselines, and ablations
//! * `table2` — fine-tuning cost (data and time) on the same topology
//! * `table3` — generalization on the larger topology
//!
//! Four benches remain under `benches/`, each for an assertion with no
//! other home (`kernels`, `serve_throughput`, `obs_overhead`,
//! `chaos_soak`); timing lives in the `e2e` benchmark.

pub mod report;
pub mod runner;
pub mod synth;
