//! # ntt — Network Traffic Transformer
//!
//! Facade crate for the Rust reproduction of *"A New Hope for Network
//! Model Generalization"* (HotNets '22): re-exports every workspace
//! crate under one roof so examples, tests, and downstream users need a
//! single dependency.
//!
//! * [`tensor`] — dense f32 tensors + tape autodiff (PyTorch substitute)
//! * [`nn`] — layers, attention, transformer encoder, optimizers
//! * [`sim`] — deterministic packet-level network simulator (ns-3 substitute)
//! * [`data`] — traces → training windows (features, splits, normalization)
//! * [`core`] — the NTT model, the task-generic trainer, baselines,
//!   self-describing checkpoints (`NTTCKPT2`), and the `Experiment`
//!   pipeline (sweep → pretrain → share → fine-tune in a few calls)
//! * [`fleet`] — parallel scenario-fleet engine: declarative sweep
//!   grids over (scenario × topology × load × seed), a work-stealing
//!   executor, and streaming trace ingestion
//! * [`serve`] — batched model serving: checkpoint registry, grad-free
//!   inference engine, streaming sessions, and micro-batching request
//!   coalescing
//! * [`net`] — the wire-protocol serving tier: `NTTWIRE1` length-
//!   prefixed binary framing over TCP/unix sockets, multi-model
//!   routing through the registry into per-model batcher pools, and
//!   stable protocol error codes for every serving failure
//! * [`obs`] — zero-overhead observability: process-global counters,
//!   gauges, log-scale latency histograms, RAII span timers, and
//!   JSON/Prometheus snapshot export (`NTT_OBS=off` kill switch)
//! * [`chaos`] — deterministic fault injection: seed-driven schedules
//!   of worker panics, injected latency, read corruption, and queue
//!   stalls (`NTT_CHAOS` spec, off by default), driving the serving
//!   stack's self-healing paths with replayable failures
//!
//! ```
//! use ntt::sim::scenarios::{run, Scenario, ScenarioConfig};
//! use ntt::data::{DatasetConfig, DelayDataset, TraceData};
//!
//! // Simulate the paper's Fig. 4 setup (miniaturized) and build the
//! // pre-training task in four lines.
//! let trace = run(Scenario::Pretrain, &ScenarioConfig::tiny(0));
//! let data = TraceData::from_traces(&[trace]);
//! let cfg = DatasetConfig { seq_len: 64, stride: 16, test_fraction: 0.2 };
//! let (train, _test) = DelayDataset::build(data, cfg, None);
//! assert!(train.len() > 0);
//! ```

pub use ntt_chaos as chaos;
pub use ntt_core as core;
pub use ntt_data as data;
pub use ntt_fleet as fleet;
pub use ntt_net as net;
pub use ntt_nn as nn;
pub use ntt_obs as obs;
pub use ntt_serve as serve;
pub use ntt_sim as sim;
pub use ntt_tensor as tensor;
