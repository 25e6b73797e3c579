//! Transformer encoder (stack of attention + feed-forward blocks).
//!
//! Layer norm is **pre-LN**: `x + Attn(LN(x))`, `x + FF(LN(x))`, with a
//! final LN after the stack — more stable without a warmup-tuned
//! schedule, the right choice for the small proof-of-concept models in
//! this reproduction.

use crate::attention::MultiHeadAttention;
use crate::dropout::Dropout;
use crate::linear::Linear;
use crate::module::Module;
use crate::norm::LayerNorm;
use ntt_tensor::{Param, Tape, Var};

/// Configuration of one encoder layer / the whole stack.
#[derive(Debug, Clone, Copy)]
pub struct EncoderConfig {
    pub d_model: usize,
    pub n_heads: usize,
    /// Hidden width of the position-wise feed-forward block.
    pub d_ff: usize,
    pub n_layers: usize,
    pub dropout: f32,
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
        }
    }
}

/// One encoder block: self-attention + position-wise feed-forward,
/// each with a pre-LN residual connection.
pub struct TransformerEncoderLayer {
    attn: MultiHeadAttention,
    ff1: Linear,
    ff2: Linear,
    ln1: LayerNorm,
    ln2: LayerNorm,
    drop_attn: Dropout,
    drop_ff: Dropout,
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
        }
    }

    /// `[B, T, D] -> [B, T, D]`.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        let a = self.ln1.forward(tape, x);
        let a = self.drop_attn.forward(self.attn.forward(tape, a));
        let x = x.add(a);
        let f = self.ln2.forward(tape, x);
        let f = self.ff_block(tape, f);
        x.add(f)
    }

    fn ff_block<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        let h = self.ff1.forward(tape, x).gelu();
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

/// Stack of encoder layers + a final layer norm (the GPT-2/ViT
/// pre-LN convention).
pub struct TransformerEncoder {
    layers: Vec<TransformerEncoderLayer>,
    final_ln: LayerNorm,
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
        let final_ln = LayerNorm::new(&format!("{name}.final_ln"), cfg.d_model);
        TransformerEncoder { layers, final_ln }
    }

    /// `[B, T, D] -> [B, T, D]`.
    pub fn forward<'t>(&self, tape: &'t Tape, mut x: Var<'t>) -> Var<'t> {
        for layer in &self.layers {
            x = layer.forward(tape, x);
        }
        self.final_ln.forward(tape, x)
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
        p.extend(self.final_ln.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_tensor::{Tape, Tensor};

    fn cfg() -> EncoderConfig {
        EncoderConfig {
            d_model: 16,
            n_heads: 4,
            d_ff: 32,
            n_layers: 2,
            dropout: 0.0,
        }
    }

    #[test]
    fn shapes_preserved_both_placements() {
        let enc = TransformerEncoder::new("e", &cfg(), 0);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[3, 5, 16], 1));
        assert_eq!(enc.forward(&tape, x).shape(), vec![3, 5, 16]);
    }

    #[test]
    fn output_is_finite_after_deep_stack() {
        let mut c = cfg();
        c.n_layers = 6;
        let enc = TransformerEncoder::new("e", &c, 2);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[2, 8, 16], 3).map(|v| v * 5.0));
        assert!(!enc.forward(&tape, x).value().has_non_finite());
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let enc = TransformerEncoder::new("e", &cfg(), 4);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[2, 4, 16], 5));
        let y = enc.forward(&tape, x);
        let loss = y.mse_loss(&Tensor::zeros(&[2, 4, 16]));
        let grads = tape.backward_params(loss);
        for p in enc.params() {
            assert!(
                grads.get(&p).is_some_and(|g| g.norm() > 0.0),
                "no gradient reached {} (dead path)",
                p.name()
            );
        }
    }

    #[test]
    fn param_count_formula() {
        let enc = TransformerEncoder::new("e", &cfg(), 0);
        let attn = 4 * (16 * 16 + 16);
        let ff = (16 * 32 + 32) + (32 * 16 + 16);
        let lns = 2 * (16 + 16);
        let per_layer = attn + ff + lns;
        assert_eq!(enc.num_params(), 2 * per_layer + 32);
    }

    #[test]
    fn encoder_is_deterministic_across_forwards() {
        let enc = TransformerEncoder::new("e", &cfg(), 11);
        let x = Tensor::randn(&[1, 6, 16], 12);
        let tape = Tape::new();
        let a = enc.forward(&tape, tape.input(x.clone())).value();
        let b = enc.forward(&tape, tape.input(x)).value();
        assert_eq!(a, b, "no hidden state between forwards");
    }

    #[test]
    fn dropout_only_acts_in_training_mode() {
        let mut c = cfg();
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
        // Minimal end-to-end sanity: encoder + one plain gradient-descent
        // step shrinks a fixed-target loss.
        let enc = TransformerEncoder::new("e", &cfg(), 6);
        let x = Tensor::randn(&[2, 4, 16], 7);
        let target = Tensor::randn(&[2, 4, 16], 8);
        let tape = Tape::new();
        let loss = enc.forward(&tape, tape.input(x.clone())).mse_loss(&target);
        let l0 = loss.value().item();
        for (p, g) in tape.backward_params(loss).iter() {
            p.update(|v| {
                for (vi, gi) in v.data_mut().iter_mut().zip(g.data()) {
                    *vi -= 0.05 * gi;
                }
            });
        }
        let tape = Tape::new();
        let l1 = enc.forward(&tape, tape.input(x)).mse_loss(&target);
        let l1 = l1.value().item();
        assert!(l1 < l0, "loss did not decrease: {l0} -> {l1}");
    }
}
