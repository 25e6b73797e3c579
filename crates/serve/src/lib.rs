//! # ntt-serve
//!
//! Batched model serving for the Network Traffic Transformer: the layer
//! an operator actually touches once a model exists. Load an `NTTCKPT2`
//! checkpoint, stream windows of packet features at it, read
//! predictions — at hardware speed, with none of training's autodiff
//! cost.
//!
//! * [`InferenceEngine`] — one loaded model (trunk + heads +
//!   normalizer) executing on grad-free inference tapes
//!   ([`ntt_tensor::Tape::inference`]): the training kernels, no
//!   backward graph, arena-recycled memory, and the trunk's affine
//!   front end folded into one matrix per zone at load (a snapshot of
//!   the weights; the fold training runs on its tape, to the bit). Weights
//!   live once; `Arc` clones share them across threads.
//! * [`ModelRegistry`] — named engines for multi-model processes.
//! * [`InferenceSession`] — single-stream serving: push packets, get
//!   windowed delay predictions featurized by the *same* code path the
//!   training datasets use.
//! * [`Batcher`] — micro-batching: concurrent requests coalesce (FIFO,
//!   arrival order) into one `[B, T, F]` forward pass and fan back out
//!   over per-request channels. Row-wise kernels make coalescing
//!   answer-preserving: every window's prediction is bit-identical at
//!   any batch size.
//!
//! ```
//! use ntt_core::{Aggregation, DelayHead, Ntt, NttConfig};
//! use ntt_data::{Normalizer, NUM_FEATURES};
//! use ntt_serve::{BatchConfig, Batcher, InferenceEngine, ModelRegistry};
//! use ntt_tensor::Tensor;
//! use std::sync::Arc;
//!
//! // Any trained model serves; here, a fresh tiny one.
//! let cfg = NttConfig {
//!     aggregation: Aggregation::MultiScale { block: 1 },
//!     d_model: 16, n_heads: 2, n_layers: 1, d_ff: 32,
//!     ..NttConfig::default()
//! };
//! let engine = InferenceEngine::from_parts(
//!     Ntt::new(cfg),
//!     vec![Box::new(DelayHead::new(16, 0))],
//!     Normalizer::identity(NUM_FEATURES),
//! );
//! let registry = ModelRegistry::new();
//! let engine = registry.insert("pretrain", engine);
//!
//! // Direct batched prediction...
//! let x = Tensor::randn(&[8, cfg.seq_len(), NUM_FEATURES], 1);
//! let y = engine.predict("delay", &x, None);
//! assert_eq!(y.shape(), &[8, 1]);
//!
//! // ...or micro-batched request coalescing. Client-reachable failures
//! // (bad window length, aux mismatch, dead pool) surface as typed
//! // `ServeError`s, never as server panics.
//! let batcher = Batcher::new(Arc::clone(&engine), BatchConfig::default());
//! let row = cfg.seq_len() * NUM_FEATURES;
//! let tickets: Vec<_> = (0..8)
//!     .map(|i| {
//!         batcher
//!             .submit(x.data()[i * row..(i + 1) * row].to_vec(), None)
//!             .expect("well-formed request")
//!     })
//!     .collect();
//! for (i, t) in tickets.into_iter().enumerate() {
//!     assert_eq!(t.wait().unwrap().to_bits(), y.data()[i].to_bits());
//! }
//! ```

mod batcher;
mod engine;
mod error;
mod registry;
mod session;

pub use batcher::{BatchConfig, Batcher, BatcherMetrics, BatcherStats, Ticket};
pub use engine::InferenceEngine;
pub use error::ServeError;
pub use registry::ModelRegistry;
pub use session::{DelayPrediction, InferenceSession, SessionConfig};

#[cfg(test)]
pub(crate) mod test_util {
    use crate::engine::InferenceEngine;
    use ntt_core::{Aggregation, Checkpoint, DelayHead, MctHead, Ntt, NttConfig};
    use ntt_data::{Normalizer, PacketView, NUM_FEATURES};
    use ntt_nn::Head;
    use ntt_tensor::splitmix64;
    use std::path::Path;

    pub fn tiny_cfg() -> NttConfig {
        NttConfig {
            aggregation: Aggregation::MultiScale { block: 1 }, // seq 64
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            seed: 11,
            ..NttConfig::default()
        }
    }

    /// A small engine with both heads and identity normalization.
    pub fn tiny_engine() -> InferenceEngine {
        let cfg = tiny_cfg();
        let heads: Vec<Box<dyn Head>> = vec![
            Box::new(DelayHead::new(cfg.d_model, 1)),
            Box::new(MctHead::new(cfg.d_model, 2)),
        ];
        InferenceEngine::from_parts(Ntt::new(cfg), heads, Normalizer::identity(NUM_FEATURES))
    }

    /// Deterministic synthetic packet stream (monotone arrival times).
    pub fn synth_packets(n: usize, seed: u64) -> Vec<PacketView> {
        let mut state = seed ^ 0x5eed_5eed;
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                let r = splitmix64(&mut state);
                t += 1e-4 + (r & 0xff) as f64 * 1e-6;
                PacketView {
                    t,
                    size: 200.0 + ((r >> 8) & 0x3ff) as f32,
                    receiver: ((r >> 20) & 0x3) as f32,
                    delay: 0.01 + ((r >> 24) & 0xffff) as f32 * 1e-7,
                    retransmit: false,
                }
            })
            .collect()
    }

    /// Write the engine's model/heads/norm as an `NTTCKPT2` file.
    pub fn save_engine_checkpoint(engine: &InferenceEngine, path: impl AsRef<Path>) {
        let heads: Vec<&dyn Head> = engine.heads().iter().map(|h| h.as_ref()).collect();
        Checkpoint::capture(
            engine.model(),
            &heads,
            Some(engine.norm().clone()),
            vec![("origin".into(), "ntt-serve test".into())],
        )
        .expect("capture checkpoint")
        .save(path)
        .expect("save checkpoint");
    }
}
