//! # ntt-tensor
//!
//! Minimal dense-tensor and reverse-mode autodiff library: the PyTorch
//! substitute underpinning the Network Traffic Transformer reproduction
//! ("A New Hope for Network Model Generalization", HotNets '22).
//!
//! Everything is `f32`, row-major, and materialized — no lazy views, no
//! dtype zoo. The design optimizes for auditability: each tape op has a
//! hand-written backward rule validated against finite differences
//! ([`grad_check`]), and the matmul kernels ([`kernels`]) are the only
//! performance-tuned (blocked + threaded) code.
//!
//! ```
//! use ntt_tensor::{Param, Tape, Tensor};
//!
//! // One gradient step on w for loss = mean((x·w - y)^2).
//! let w = Param::new("w", Tensor::randn(&[3, 1], 0));
//! let x = Tensor::randn(&[8, 3], 1);
//! let y = Tensor::zeros(&[8, 1]);
//!
//! let tape = Tape::new();
//! let loss = tape.input(x).matmul(tape.param(&w)).mse_loss(&y);
//! // The one gradient path: a detached per-parameter bundle.
//! let grads = tape.backward_params(loss);
//! let grad = grads.get(&w).expect("w reached the loss");
//! w.update(|value| {
//!     for (v, g) in value.data_mut().iter_mut().zip(grad.data()) {
//!         *v -= 0.1 * g;
//!     }
//! });
//! ```

pub mod grad_check;
pub mod kernels;
pub mod shape;

mod param;
mod tape;
#[allow(clippy::module_inception)] // the crate-defining module shares the crate name by convention
mod tensor;

pub use param::Param;
pub use tape::{splitmix64, ParamGrads, Tape, TapePool, Var};
pub use tensor::Tensor;
