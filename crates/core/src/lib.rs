//! # ntt-core
//!
//! The **Network Traffic Transformer** — the primary contribution of
//! "A New Hope for Network Model Generalization" (HotNets '22) — plus
//! its baselines, trainer, and checkpointing.
//!
//! The model (Fig. 3) embeds raw per-packet features, compresses 1024
//! packets into 48 sequence elements with learned multi-timescale
//! aggregation, runs a transformer encoder, and attaches replaceable
//! task heads ([`ntt_nn::Head`] impls — delay, MCT, or your
//! own). Pre-training masks the most recent packet's delay; fine-tuning
//! adapts the head (and optionally the trunk) to new environments and
//! tasks. The [`pipeline::Experiment`] builder chains the whole
//! workflow — fleet sweep → dataset → pretrain → self-describing
//! checkpoint → fine-tune → evaluate — with one shared seed and
//! normalization story.
//!
//! ```
//! use ntt_core::{Aggregation, DelayHead, Ntt, NttConfig};
//! use ntt_nn::Module;
//! use ntt_tensor::{Tape, Tensor};
//!
//! let cfg = NttConfig {
//!     aggregation: Aggregation::MultiScale { block: 2 }, // 112-packet windows
//!     d_model: 32, n_heads: 4, n_layers: 2, d_ff: 64,
//!     ..NttConfig::default()
//! };
//! let model = Ntt::new(cfg);
//! let head = DelayHead::new(32, 0);
//! let tape = Tape::new();
//! let x = tape.input(Tensor::randn(&[4, cfg.seq_len(), ntt_data::NUM_FEATURES], 1));
//! let pred = head.forward(&tape, model.forward(&tape, x));
//! assert_eq!(pred.shape(), vec![4, 1]);
//! assert!(model.num_params() > 0);
//! ```

pub mod baselines;
pub mod checkpoint;
mod config;
mod model;
pub mod pipeline;
mod task;
mod threads;
mod trainer;

pub use checkpoint::{Checkpoint, HeadSpec, LoadedModel};
pub use config::{Aggregation, NttConfig, OUT_SLOTS, ZONE_SLOTS};
pub use model::{build_head, DelayHead, FoldedFront, MctHead, Ntt};
pub use ntt_fleet::worker_count;
pub use ntt_nn::Head;
pub use pipeline::{Experiment, FinetuneOpts, Finetuned, Pretrained};
pub use task::{HeadTask, Task};
pub use threads::env_threads;
pub use trainer::{
    evaluate, fan_out, train, EvalReport, ParStrategy, TrainConfig, TrainMode, TrainReport,
};
