//! Multi-head scaled dot-product self-attention.
//!
//! The mechanism behind Transformers (§2 of the paper): every output
//! position encodes its own information *and* its context. Cost is
//! quadratic in sequence length — the very property that motivates the
//! NTT's multi-timescale aggregation layer.

use crate::linear::Linear;
use crate::module::Module;
use ntt_tensor::{Param, Tape, Var};

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

    /// Self-attention over `x: [B, T, D] -> [B, T, D]`: transpose-free
    /// scaled dot-product attention. Q/K/V stay in the head-interleaved
    /// `[B, T, H, dh]` layout their projections naturally reshape into,
    /// and the head merge is a plain reshape — no `Kᵀ` or axis-swap copy
    /// is ever materialized, in forward or backward. One attention op,
    /// [`Var::attn_fused`], runs on both tape kinds, so training,
    /// evaluation and serving compute the same bits.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
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

        // Merge heads and apply the output projection.
        let merged = q.attn_fused(k, v, scale).reshape(&[b, t, d]);
        self.wo.forward(tape, merged)
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
        // With the value projection's weight zeroed, every value row is
        // its bias `c`, so each context row is `c` times its weight row's
        // sum: if the rows sum to one, every position outputs `wo(c)`
        // whatever the input.
        let mha = MultiHeadAttention::new("a", 8, 2, 0);
        mha.wv.weight.set_value(Tensor::zeros(&[8, 8]));
        let c = Tensor::randn(&[8], 1);
        mha.wv.bias.set_value(c.clone());
        let tape = Tape::new();
        let y = mha.forward(&tape, tape.input(Tensor::randn(&[1, 5, 8], 2)));
        let want = mha
            .wo
            .forward(&tape, tape.input(c.reshape(&[1, 8])))
            .value();
        for row in y.value().data().chunks(8) {
            let row = Tensor::from_vec(row.to_vec(), &[1, 8]);
            assert!(row.allclose(&want, 1e-5), "{row:?} vs {want:?}");
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
        let grads = tape.backward_params(loss);
        for p in mha.params() {
            assert!(
                grads.get(&p).is_some_and(|g| g.norm() > 0.0),
                "no gradient for {}",
                p.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_heads() {
        MultiHeadAttention::new("a", 10, 3, 0);
    }

    #[test]
    fn grad_check_end_to_end_transpose_free_path() {
        // Finite-difference validation of the full pipeline: projections
        // -> attention -> merge -> output projection, for every
        // projection matrix.
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
    fn inference_forward_matches_recording_within_eps() {
        // One attention op on both tape kinds: an inference forward is
        // the recording forward to the bit, and reproduces itself.
        let mha = MultiHeadAttention::new("a", 16, 4, 13);
        let x = Tensor::randn(&[3, 7, 16], 14);
        let run = |tape: &Tape| mha.forward(tape, tape.input(x.clone())).value();
        let recorded = run(&Tape::with_seed(1));
        let inferred = run(&Tape::inference_with_seed(1));
        let inferred2 = run(&Tape::inference_with_seed(99));
        assert_eq!(recorded, inferred, "inference drifted from recording");
        assert_eq!(inferred, inferred2, "inference must be bit-reproducible");
    }

    #[test]
    fn inference_attend_never_allocates_score_matrix() {
        // The full attention layer — projections included — leaves no
        // [B,H,T,T]- or [B,T,T]-sized buffer in the arena of an inference
        // tape, and exactly one, the kept softmax weights, in that of a
        // recording tape (t chosen so those lengths collide with no
        // projection/context shape).
        let (b, t, d, h) = (2usize, 19, 8, 2);
        let mha = MultiHeadAttention::new("a", d, h, 17);
        let x = Tensor::randn(&[b, t, d], 18);
        let square = [b * h * t * t, b * t * t, h * t * t, t * t];
        for (mut tape, kept) in [
            (Tape::inference_with_seed(3), vec![]),
            (Tape::with_seed(3), vec![(b * h * t * t, 1)]),
        ] {
            mha.forward(&tape, tape.input(x.clone())).value();
            tape.reset(3);
            let lens = tape.arena_bucket_lens();
            // Sanity: the run did retire context/projection-sized buffers.
            assert!(!lens.is_empty());
            let got: Vec<(usize, usize)> = lens
                .into_iter()
                .filter(|(len, _)| square.contains(len))
                .collect();
            assert_eq!(got, kept, "score-matrix-sized buffers retired");
        }
    }
}
