//! Multi-head scaled dot-product self-attention.
//!
//! The mechanism behind Transformers (§2 of the paper): every output
//! position encodes its own information *and* its context. Cost is
//! quadratic in sequence length — the very property that motivates the
//! NTT's multi-timescale aggregation layer.

use crate::linear::Linear;
use crate::module::Module;
use ntt_tensor::{kernels, Param, Tape, Tensor, Var};

/// Multi-head self-attention with separate Q/K/V/O projections.
pub struct MultiHeadAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    d_model: usize,
    n_heads: usize,
}

impl MultiHeadAttention {
    /// `d_model` must be divisible by `n_heads`.
    pub fn new(name: &str, d_model: usize, n_heads: usize, seed: u64) -> Self {
        assert!(n_heads > 0, "attention needs at least one head");
        assert_eq!(
            d_model % n_heads,
            0,
            "d_model {d_model} not divisible by n_heads {n_heads}"
        );
        MultiHeadAttention {
            wq: Linear::new(&format!("{name}.wq"), d_model, d_model, seed ^ 0x51),
            wk: Linear::new(&format!("{name}.wk"), d_model, d_model, seed ^ 0x52),
            wv: Linear::new(&format!("{name}.wv"), d_model, d_model, seed ^ 0x53),
            wo: Linear::new(&format!("{name}.wo"), d_model, d_model, seed ^ 0x54),
            d_model,
            n_heads,
        }
    }

    /// Number of attention heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// The single forward path shared by [`Self::forward`] and
    /// [`Self::forward_with_weights`]: transpose-free scaled dot-product
    /// attention. Q/K/V stay in the head-interleaved `[B, T, H, dh]`
    /// layout their projections naturally reshape into, and the head
    /// merge is a plain reshape — no `Kᵀ` or axis-swap copy is ever
    /// materialized, in forward or backward.
    ///
    /// On **inference tapes** the score→softmax→context pipeline runs as
    /// one fused streaming-softmax op ([`Var::attn_fused`]): the
    /// `[B, H, T, T]` score matrix is never allocated. That buys memory,
    /// not time, at the served shape: at 48 slots and `dh` 16 the score
    /// matrix is 36 KiB a window and, with `exp` vectorised, the classic
    /// chain measures *faster* — 56–61 µs against the fused tile's 86–89
    /// per window-layer, at batch 1 and batch 16 alike (PR 21, 2-core
    /// Xeon 2.1 GHz). The fused op stays on inference tapes because the
    /// benchmark calls and counts it (`e2e/src/probes.rs`); choosing one
    /// formulation is ROADMAP's "Make the encoder pay for a batch". On
    /// **recording tapes** the classic `attn_scores → scaled_softmax →
    /// attn_context` chain is kept — its backward reuses the
    /// materialized weights instead of recomputing exponentials (fused
    /// on recording tapes cost 12 % of `train_paper`, PR 13). The two paths
    /// agree to epsilon, not bitwise (the online softmax reorders the
    /// IEEE sequence); each is individually bit-deterministic across
    /// thread counts and batch compositions.
    fn attend<'t>(
        &self,
        tape: &'t Tape,
        x: Var<'t>,
        want_weights: bool,
    ) -> (Var<'t>, Option<Tensor>) {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "attention expects [B, T, D]");
        let (b, t, d) = (shape[0], shape[1], shape[2]);
        assert_eq!(d, self.d_model, "d_model mismatch");
        let h = self.n_heads;
        let dh = d / h;
        let scale = 1.0 / (dh as f32).sqrt();

        // Project; [B, T, D] reshapes to [B, T, H, dh] for free.
        let split = |v: Var<'t>| v.reshape(&[b, t, h, dh]);
        let q = split(self.wq.forward(tape, x));
        let k = split(self.wk.forward(tape, x));
        let v = split(self.wv.forward(tape, x));

        let (ctx, weights) = if tape.records_grad() {
            let attn = q.attn_scores(k).scaled_softmax(scale);
            (attn.attn_context(v), want_weights.then(|| attn.value()))
        } else {
            let ctx = q.attn_fused(k, v, scale);
            // Diagnostics only: materialize the weights off-tape, from
            // the detached Q/K values. The serving hot path never asks
            // for them, so the fused forward stays score-matrix-free.
            let w = want_weights.then(|| {
                let (vq, vk) = (q.value(), k.value());
                let mut s = vec![0.0; b * h * t * t];
                kernels::attn_scores(vq.data(), vk.data(), &mut s, b, t, h, dh);
                let mut w = vec![0.0; b * h * t * t];
                kernels::scaled_softmax_fwd(&s, scale, t, &mut w);
                Tensor::from_vec(w, &[b, h, t, t])
            });
            (ctx, w)
        };

        // Merge heads and apply the output projection.
        let merged = ctx.reshape(&[b, t, d]);
        (self.wo.forward(tape, merged), weights)
    }

    /// Self-attention over `x: [B, T, D] -> [B, T, D]`.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        self.attend(tape, x, false).0
    }

    /// Forward pass that also returns the attention weights `[B, H, T, T]`
    /// (diagnostics / interpretability; weights are a detached clone).
    pub fn forward_with_weights<'t>(&self, tape: &'t Tape, x: Var<'t>) -> (Var<'t>, Tensor) {
        let (out, weights) = self.attend(tape, x, true);
        (out, weights.expect("attend(want_weights) returns weights"))
    }
}

impl Module for MultiHeadAttention {
    fn params(&self) -> Vec<Param> {
        let mut p = self.wq.params();
        p.extend(self.wk.params());
        p.extend(self.wv.params());
        p.extend(self.wo.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_tensor::{Tape, Tensor};

    #[test]
    fn output_shape_matches_input() {
        let mha = MultiHeadAttention::new("a", 16, 4, 0);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[2, 6, 16], 1));
        assert_eq!(mha.forward(&tape, x).shape(), vec![2, 6, 16]);
    }

    #[test]
    fn attention_weights_are_row_stochastic() {
        let mha = MultiHeadAttention::new("a", 8, 2, 0);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[1, 5, 8], 2));
        let (_, w) = mha.forward_with_weights(&tape, x);
        assert_eq!(w.shape(), &[1, 2, 5, 5]);
        for row in w.data().chunks(5) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn output_depends_on_context_not_just_own_token() {
        // Same token value at position 0, different context at position 1:
        // the attention output for position 0 must differ — the paper's
        // "stick" example in §1.
        let mha = MultiHeadAttention::new("a", 8, 2, 3);
        let tape = Tape::new();
        let mut a = Tensor::randn(&[1, 2, 8], 4);
        let b = {
            let mut b = a.clone();
            for j in 0..8 {
                let v = b.at(&[0, 1, j]);
                b.set(&[0, 1, j], v + 1.0);
            }
            b
        };
        // Keep position 0 identical.
        for j in 0..8 {
            let v = b.at(&[0, 0, j]);
            a.set(&[0, 0, j], v);
        }
        let ya = mha.forward(&tape, tape.input(a)).value();
        let yb = mha.forward(&tape, tape.input(b)).value();
        let pos0_a: Vec<f32> = (0..8).map(|j| ya.at(&[0, 0, j])).collect();
        let pos0_b: Vec<f32> = (0..8).map(|j| yb.at(&[0, 0, j])).collect();
        assert_ne!(pos0_a, pos0_b);
    }

    #[test]
    fn single_head_equals_multi_head_param_count() {
        let a = MultiHeadAttention::new("a", 16, 1, 0);
        let b = MultiHeadAttention::new("b", 16, 4, 0);
        assert_eq!(a.num_params(), b.num_params());
        assert_eq!(a.num_params(), 4 * (16 * 16 + 16));
    }

    #[test]
    fn gradients_reach_all_projections() {
        let mha = MultiHeadAttention::new("a", 8, 2, 5);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[2, 4, 8], 6));
        let y = mha.forward(&tape, x);
        let loss = y.mse_loss(&Tensor::zeros(&[2, 4, 8]));
        tape.backward(loss);
        for p in mha.params() {
            assert!(p.grad().norm() > 0.0, "no gradient for {}", p.name());
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_heads() {
        MultiHeadAttention::new("a", 10, 3, 0);
    }

    #[test]
    fn grad_check_end_to_end_transpose_free_path() {
        // Finite-difference validation of the full fused pipeline:
        // projections -> attn_scores -> scaled_softmax -> attn_context
        // -> merge -> output projection, for every projection matrix.
        use ntt_tensor::grad_check::check_param_grad;
        let mha = MultiHeadAttention::new("a", 6, 2, 7);
        let x = Tensor::randn(&[2, 3, 6], 8).map(|v| v * 0.5);
        let target = Tensor::randn(&[2, 3, 6], 9);
        for p in [
            &mha.wq.weight,
            &mha.wk.weight,
            &mha.wv.weight,
            &mha.wo.weight,
            &mha.wq.bias,
        ] {
            p.zero_grad();
            let report = check_param_grad(p, 1e-2, |tape| {
                mha.forward(tape, tape.input(x.clone())).mse_loss(&target)
            });
            assert!(
                report.passes(2e-2),
                "gradient check failed for {}: {report:?}",
                p.name()
            );
        }
    }

    #[test]
    fn forward_with_weights_shares_the_forward_path() {
        // The two entry points are one implementation: outputs must be
        // bit-identical, not merely close — on both tape modes.
        let mha = MultiHeadAttention::new("a", 16, 4, 11);
        let x = Tensor::randn(&[2, 5, 16], 12);
        for tape in [Tape::with_seed(0), Tape::inference_with_seed(0)] {
            let y = mha.forward(&tape, tape.input(x.clone())).value();
            let (y2, w) = mha.forward_with_weights(&tape, tape.input(x.clone()));
            assert_eq!(y, y2.value());
            assert_eq!(w.shape(), &[2, 4, 5, 5]);
        }
    }

    #[test]
    fn inference_forward_matches_recording_within_eps() {
        // Inference tapes run the fused streaming-softmax attention, so
        // cross-mode equality is epsilon-level (the documented
        // contract), while inference-vs-inference stays bit-identical.
        let mha = MultiHeadAttention::new("a", 16, 4, 13);
        let x = Tensor::randn(&[3, 7, 16], 14);
        let run = |tape: &Tape| mha.forward(tape, tape.input(x.clone())).value();
        let recorded = run(&Tape::with_seed(1));
        let inferred = run(&Tape::inference_with_seed(1));
        let inferred2 = run(&Tape::inference_with_seed(99));
        assert!(recorded.allclose(&inferred, 1e-5), "fused path drifted");
        assert_eq!(inferred, inferred2, "inference must be bit-reproducible");
    }

    #[test]
    fn inference_weights_match_recording_weights() {
        // The fused path reconstructs diagnostic weights off-tape; they
        // must be row-stochastic and agree with the classic path.
        let mha = MultiHeadAttention::new("a", 8, 2, 15);
        let x = Tensor::randn(&[1, 5, 8], 16);
        let rec = Tape::with_seed(2);
        let inf = Tape::inference_with_seed(2);
        let (_, wr) = mha.forward_with_weights(&rec, rec.input(x.clone()));
        let (_, wi) = mha.forward_with_weights(&inf, inf.input(x));
        assert!(wr.allclose(&wi, 1e-5), "weights diverged across modes");
        for row in wi.data().chunks(5) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn inference_attend_never_allocates_score_matrix() {
        // The full attention layer — projections included — on an
        // inference tape must leave no [B,H,T,T]- or [B,T,T]-sized
        // buffer behind in the tape arena (t chosen so those lengths
        // collide with no projection/context shape).
        let (b, t, d, h) = (2usize, 19, 8, 2);
        let mha = MultiHeadAttention::new("a", d, h, 17);
        let x = Tensor::randn(&[b, t, d], 18);
        let mut tape = Tape::inference_with_seed(3);
        mha.forward(&tape, tape.input(x.clone())).value();
        tape.reset(3);
        let forbidden = [b * h * t * t, b * t * t, h * t * t, t * t];
        for (len, _) in tape.arena_bucket_lens() {
            assert!(
                !forbidden.contains(&len),
                "inference attention retired a score-matrix-sized buffer ({len})"
            );
        }
        // Sanity: the run did retire context/projection-sized buffers.
        assert!(tape.scratch_buffers() > 0);
    }
}
