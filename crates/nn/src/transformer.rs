//! Transformer encoder (stack of attention + feed-forward blocks).
//!
//! Supports both normalization placements:
//! * **Pre-LN** (default): `x + Attn(LN(x))`, `x + FF(LN(x))` — more
//!   stable without a warmup-tuned schedule, the right default for the
//!   small proof-of-concept models in this reproduction.
//! * **Post-LN** (original Vaswani): `LN(x + Attn(x))` — kept selectable
//!   so the design choice is testable.

use crate::activation::Activation;
use crate::attention::MultiHeadAttention;
use crate::dropout::Dropout;
use crate::linear::Linear;
use crate::module::Module;
use crate::norm::LayerNorm;
use ntt_tensor::{Param, Tape, Var};

/// Where layer norm sits relative to each sublayer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormPlacement {
    PreNorm,
    PostNorm,
}

/// Configuration of one encoder layer / the whole stack.
#[derive(Debug, Clone, Copy)]
pub struct EncoderConfig {
    pub d_model: usize,
    pub n_heads: usize,
    /// Hidden width of the position-wise feed-forward block.
    pub d_ff: usize,
    pub n_layers: usize,
    pub dropout: f32,
    pub activation: Activation,
    pub norm: NormPlacement,
}

impl EncoderConfig {
    /// The proof-of-concept scale used throughout this reproduction.
    pub fn small(d_model: usize, n_heads: usize, n_layers: usize) -> Self {
        EncoderConfig {
            d_model,
            n_heads,
            d_ff: d_model * 2,
            n_layers,
            dropout: 0.0,
            activation: Activation::Gelu,
            norm: NormPlacement::PreNorm,
        }
    }
}

/// One encoder block: self-attention + position-wise feed-forward,
/// each with residual connection and layer norm.
pub struct TransformerEncoderLayer {
    attn: MultiHeadAttention,
    ff1: Linear,
    ff2: Linear,
    ln1: LayerNorm,
    ln2: LayerNorm,
    drop_attn: Dropout,
    drop_ff: Dropout,
    activation: Activation,
    norm: NormPlacement,
}

impl TransformerEncoderLayer {
    pub fn new(name: &str, cfg: &EncoderConfig, seed: u64) -> Self {
        TransformerEncoderLayer {
            attn: MultiHeadAttention::new(&format!("{name}.attn"), cfg.d_model, cfg.n_heads, seed),
            ff1: Linear::new(&format!("{name}.ff1"), cfg.d_model, cfg.d_ff, seed ^ 0xf1),
            ff2: Linear::new(&format!("{name}.ff2"), cfg.d_ff, cfg.d_model, seed ^ 0xf2),
            ln1: LayerNorm::new(&format!("{name}.ln1"), cfg.d_model),
            ln2: LayerNorm::new(&format!("{name}.ln2"), cfg.d_model),
            drop_attn: Dropout::new(cfg.dropout, seed ^ 0xd1),
            drop_ff: Dropout::new(cfg.dropout, seed ^ 0xd2),
            activation: cfg.activation,
            norm: cfg.norm,
        }
    }

    /// `[B, T, D] -> [B, T, D]`.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        match self.norm {
            NormPlacement::PreNorm => {
                let a = self.ln1.forward(tape, x);
                let a = self.drop_attn.forward(self.attn.forward(tape, a));
                let x = x.add(a);
                let f = self.ln2.forward(tape, x);
                let f = self.ff_block(tape, f);
                x.add(f)
            }
            NormPlacement::PostNorm => {
                let a = self.drop_attn.forward(self.attn.forward(tape, x));
                let x = self.ln1.forward(tape, x.add(a));
                let f = self.ff_block(tape, x);
                self.ln2.forward(tape, x.add(f))
            }
        }
    }

    fn ff_block<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        let h = self.activation.forward(self.ff1.forward(tape, x));
        self.drop_ff.forward(self.ff2.forward(tape, h))
    }

    fn set_training(&self, training: bool) {
        self.drop_attn.set_training(training);
        self.drop_ff.set_training(training);
    }
}

impl Module for TransformerEncoderLayer {
    fn params(&self) -> Vec<Param> {
        let mut p = self.attn.params();
        p.extend(self.ff1.params());
        p.extend(self.ff2.params());
        p.extend(self.ln1.params());
        p.extend(self.ln2.params());
        p
    }
}

/// Stack of encoder layers (+ a final layer norm in pre-norm mode,
/// following the GPT-2/ViT convention).
pub struct TransformerEncoder {
    layers: Vec<TransformerEncoderLayer>,
    final_ln: Option<LayerNorm>,
}

impl TransformerEncoder {
    pub fn new(name: &str, cfg: &EncoderConfig, seed: u64) -> Self {
        let layers = (0..cfg.n_layers)
            .map(|i| {
                TransformerEncoderLayer::new(
                    &format!("{name}.layer{i}"),
                    cfg,
                    seed.wrapping_add(i as u64 * 7919),
                )
            })
            .collect();
        let final_ln = match cfg.norm {
            NormPlacement::PreNorm => {
                Some(LayerNorm::new(&format!("{name}.final_ln"), cfg.d_model))
            }
            NormPlacement::PostNorm => None,
        };
        TransformerEncoder { layers, final_ln }
    }

    /// `[B, T, D] -> [B, T, D]`.
    pub fn forward<'t>(&self, tape: &'t Tape, mut x: Var<'t>) -> Var<'t> {
        for layer in &self.layers {
            x = layer.forward(tape, x);
        }
        match &self.final_ln {
            Some(ln) => ln.forward(tape, x),
            None => x,
        }
    }

    /// Propagate train/eval mode to dropout layers.
    pub fn set_training(&self, training: bool) {
        for layer in &self.layers {
            layer.set_training(training);
        }
    }

    /// Number of stacked layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }
}

impl Module for TransformerEncoder {
    fn params(&self) -> Vec<Param> {
        let mut p: Vec<Param> = self.layers.iter().flat_map(|l| l.params()).collect();
        if let Some(ln) = &self.final_ln {
            p.extend(ln.params());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_tensor::{Tape, Tensor};

    fn cfg(norm: NormPlacement) -> EncoderConfig {
        EncoderConfig {
            d_model: 16,
            n_heads: 4,
            d_ff: 32,
            n_layers: 2,
            dropout: 0.0,
            activation: Activation::Gelu,
            norm,
        }
    }

    #[test]
    fn shapes_preserved_both_placements() {
        for norm in [NormPlacement::PreNorm, NormPlacement::PostNorm] {
            let enc = TransformerEncoder::new("e", &cfg(norm), 0);
            let tape = Tape::new();
            let x = tape.input(Tensor::randn(&[3, 5, 16], 1));
            assert_eq!(enc.forward(&tape, x).shape(), vec![3, 5, 16]);
        }
    }

    #[test]
    fn output_is_finite_after_deep_stack() {
        let mut c = cfg(NormPlacement::PreNorm);
        c.n_layers = 6;
        let enc = TransformerEncoder::new("e", &c, 2);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[2, 8, 16], 3).map(|v| v * 5.0));
        assert!(!enc.forward(&tape, x).value().has_non_finite());
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let enc = TransformerEncoder::new("e", &cfg(NormPlacement::PreNorm), 4);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[2, 4, 16], 5));
        let y = enc.forward(&tape, x);
        let loss = y.mse_loss(&Tensor::zeros(&[2, 4, 16]));
        tape.backward(loss);
        for p in enc.params() {
            assert!(
                p.grad().norm() > 0.0,
                "no gradient reached {} (dead path)",
                p.name()
            );
        }
    }

    #[test]
    fn param_count_formula() {
        let c = cfg(NormPlacement::PreNorm);
        let enc = TransformerEncoder::new("e", &c, 0);
        let attn = 4 * (16 * 16 + 16);
        let ff = (16 * 32 + 32) + (32 * 16 + 16);
        let lns = 2 * (16 + 16);
        let per_layer = attn + ff + lns;
        assert_eq!(enc.num_params(), 2 * per_layer + 32);
    }

    #[test]
    fn post_norm_also_trains_and_differs_from_pre_norm() {
        // Both placements must produce gradients everywhere and must
        // not be numerically identical (they are different functions).
        let pre = TransformerEncoder::new("p", &cfg(NormPlacement::PreNorm), 9);
        let post = TransformerEncoder::new("q", &cfg(NormPlacement::PostNorm), 9);
        let x = Tensor::randn(&[2, 5, 16], 10);
        let tape = Tape::new();
        let ya = pre.forward(&tape, tape.input(x.clone())).value();
        let yb = post.forward(&tape, tape.input(x.clone())).value();
        assert_ne!(ya, yb);
        let tape2 = Tape::new();
        let y = post.forward(&tape2, tape2.input(x));
        let loss = y.mse_loss(&Tensor::zeros(&[2, 5, 16]));
        tape2.backward(loss);
        for p in post.params() {
            assert!(p.grad().norm() > 0.0, "post-norm dead path at {}", p.name());
        }
    }

    #[test]
    fn encoder_is_deterministic_across_forwards() {
        let enc = TransformerEncoder::new("e", &cfg(NormPlacement::PreNorm), 11);
        let x = Tensor::randn(&[1, 6, 16], 12);
        let tape = Tape::new();
        let a = enc.forward(&tape, tape.input(x.clone())).value();
        let b = enc.forward(&tape, tape.input(x)).value();
        assert_eq!(a, b, "no hidden state between forwards");
    }

    #[test]
    fn dropout_only_acts_in_training_mode() {
        let mut c = cfg(NormPlacement::PreNorm);
        c.dropout = 0.4;
        let enc = TransformerEncoder::new("e", &c, 13);
        let x = Tensor::randn(&[1, 4, 16], 14);
        enc.set_training(false);
        let tape = Tape::new();
        let a = enc.forward(&tape, tape.input(x.clone())).value();
        let b = enc.forward(&tape, tape.input(x.clone())).value();
        assert_eq!(a, b, "eval mode must be deterministic");
        enc.set_training(true);
        let c1 = enc.forward(&tape, tape.input(x.clone())).value();
        let c2 = enc.forward(&tape, tape.input(x)).value();
        assert_ne!(c1, c2, "training mode must sample fresh masks");
        enc.set_training(false);
    }

    #[test]
    fn one_gradient_step_reduces_loss() {
        // Minimal end-to-end sanity: encoder + SGD shrinks a fixed-target loss.
        let enc = TransformerEncoder::new("e", &cfg(NormPlacement::PreNorm), 6);
        let x = Tensor::randn(&[2, 4, 16], 7);
        let target = Tensor::randn(&[2, 4, 16], 8);
        let run = |backprop: bool| {
            let tape = Tape::new();
            let y = enc.forward(&tape, tape.input(x.clone()));
            let loss = y.mse_loss(&target);
            let v = loss.value().item();
            if backprop {
                tape.backward(loss);
            }
            v
        };
        let l0 = run(true);
        for p in enc.params() {
            p.update(|v, g| {
                for (vi, gi) in v.data_mut().iter_mut().zip(g.data()) {
                    *vi -= 0.05 * gi;
                }
            });
            p.zero_grad();
        }
        let l1 = run(false);
        assert!(l1 < l0, "loss did not decrease: {l0} -> {l1}");
    }
}
