//! # ntt-nn
//!
//! Neural-network layers and optimizers on top of [`ntt_tensor`] — the
//! `torch.nn`/`torch.optim` substitute for the Network Traffic
//! Transformer reproduction (HotNets '22).
//!
//! Provides exactly the blocks Fig. 2/3 of the paper require:
//! linear layers, layer norm, GELU, dropout, sinusoidal
//! positional encoding, multi-head self-attention, a pre-LN transformer
//! encoder, MLP task heads, and Adam with a warmup-cosine LR schedule
//! and gradient clipping.
//!
//! ```
//! use ntt_nn::{EncoderConfig, Module, TransformerEncoder};
//! use ntt_tensor::{Tape, Tensor};
//!
//! let cfg = EncoderConfig::small(32, 4, 2);
//! let encoder = TransformerEncoder::new("enc", &cfg, 0);
//! let tape = Tape::new();
//! let x = tape.input(Tensor::randn(&[8, 48, 32], 1));
//! let y = encoder.forward(&tape, x);
//! assert_eq!(y.shape(), vec![8, 48, 32]);
//! ```

mod attention;
mod dropout;
mod head;
pub mod init;
mod linear;
mod mlp;
mod module;
mod norm;
mod optim;
mod positional;
mod transformer;

pub use attention::MultiHeadAttention;
pub use dropout::Dropout;
pub use head::Head;
pub use linear::Linear;
pub use mlp::Mlp;
pub use module::Module;
pub use norm::LayerNorm;
pub use optim::{clip_param_grads, Adam, LrSchedule};
pub use positional::PositionalEncoding;
pub use transformer::{EncoderConfig, TransformerEncoder, TransformerEncoderLayer};
