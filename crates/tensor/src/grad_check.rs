//! Finite-difference gradient checking.
//!
//! Every backward rule on the tape is validated against a central
//! finite-difference approximation. This is the ground truth that lets
//! the rest of the workspace trust the autodiff engine.

#[cfg(test)]
use crate::Tensor;
use crate::{Param, Tape};

/// Result of a gradient check: worst absolute and relative error seen.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    pub max_abs_err: f32,
    pub max_rel_err: f32,
}

impl GradCheckReport {
    /// True when the analytic gradient matches finite differences to
    /// within `tol` in either absolute or relative terms per element.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_abs_err <= tol || self.max_rel_err <= tol
    }
}

/// Identity helper that pins the higher-ranked lifetime of a loss-builder
/// closure. Rust's closure inference cannot deduce
/// `for<'a> Fn(&'a Tape) -> Var<'a>` for a closure bound to a variable;
/// passing it through this function fixes the signature.
pub fn loss_fn<F>(f: F) -> F
where
    F: for<'a> Fn(&'a Tape) -> crate::Var<'a>,
{
    f
}

/// Compare the analytic gradient of `f` w.r.t. `param` against central
/// finite differences with step `eps`.
///
/// `f` must build a scalar loss (shape `[1]`) on the provided tape from
/// the parameter's current value. It is invoked `2 * numel + 1` times.
pub fn check_param_grad(
    param: &Param,
    eps: f32,
    f: impl Fn(&Tape) -> crate::Var<'_>,
) -> GradCheckReport {
    // Analytic gradient, from the one backward path.
    let analytic = {
        let tape = Tape::new();
        let loss = f(&tape);
        assert_eq!(loss.shape(), vec![1], "grad check requires scalar loss");
        tape.backward_params(loss)
            .get(param)
            .expect("param missing from gradient bundle")
            .clone()
    };

    // Numeric gradient, one coordinate at a time.
    let base = param.value();
    let n = base.numel();
    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    for i in 0..n {
        let mut plus = base.clone();
        plus.data_mut()[i] += eps;
        param.set_value(plus);
        let lp = {
            let tape = Tape::new();
            f(&tape).value().item()
        };
        let mut minus = base.clone();
        minus.data_mut()[i] -= eps;
        param.set_value(minus);
        let lm = {
            let tape = Tape::new();
            f(&tape).value().item()
        };
        let numeric = (lp - lm) / (2.0 * eps);
        let a = analytic.data()[i];
        let abs = (a - numeric).abs();
        let rel = abs / a.abs().max(numeric.abs()).max(1e-6);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    param.set_value(base);
    GradCheckReport {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(param: &Param, f: impl Fn(&Tape) -> crate::Var<'_>) {
        let report = check_param_grad(param, 1e-2, f);
        assert!(
            report.passes(2e-2),
            "gradient check failed: {report:?} for {}",
            param.name()
        );
    }

    #[test]
    fn matmul_grads() {
        let w = Param::new("w", Tensor::randn(&[4, 3], 1).map(|x| x * 0.5));
        let x = Tensor::randn(&[2, 4], 2);
        let t = Tensor::randn(&[2, 3], 3);
        check(&w, |tape| {
            tape.input(x.clone()).matmul(tape.param(&w)).mse_loss(&t)
        });
    }

    #[test]
    fn batched_matmul_grads() {
        let w = Param::new("w", Tensor::randn(&[2, 3, 2], 4).map(|x| x * 0.5));
        let x = Tensor::randn(&[2, 2, 3], 5);
        let t = Tensor::randn(&[2, 2, 2], 6);
        check(&w, |tape| {
            tape.input(x.clone()).matmul(tape.param(&w)).mse_loss(&t)
        });
    }

    #[test]
    fn scaled_softmax_grads() {
        // The attention softmax on its own: with K = V = I the scores are
        // Q and the context is the weights. At the attention scale (1/√dh)
        // and at a scale > 1 to catch a dropped factor.
        let eye = (0..25).map(|i| if i % 6 == 0 { 1.0 } else { 0.0 });
        let eye = Tensor::from_vec(eye.collect(), &[1, 5, 1, 5]);
        for scale in [0.25f32, 1.7] {
            let w = Param::new("w", Tensor::randn(&[1, 5, 1, 5], 31));
            let t = Tensor::randn(&[1, 5, 1, 5], 32);
            check(&w, |tape| {
                let id = tape.input(eye.clone());
                tape.param(&w).attn_fused(id, id, scale).mse_loss(&t)
            });
        }
    }

    #[test]
    fn attn_scores_and_context_grads() {
        // The transpose-free attention products — scores through Q and K,
        // context through V — checked through the one attention op.
        let (b, t_len, h, dh) = (2usize, 3, 2, 2);
        let q = Param::new("q", Tensor::randn(&[b, t_len, h, dh], 41).map(|v| v * 0.5));
        let k = Param::new("k", Tensor::randn(&[b, t_len, h, dh], 42).map(|v| v * 0.5));
        let v = Param::new("v", Tensor::randn(&[b, t_len, h, dh], 43).map(|v| v * 0.5));
        let target = Tensor::randn(&[b, t_len, h, dh], 44);
        let f = loss_fn(|tape: &Tape| {
            tape.param(&q)
                .attn_fused(tape.param(&k), tape.param(&v), 1.0 / (dh as f32).sqrt())
                .mse_loss(&target)
        });
        for p in [&q, &k, &v] {
            check(p, f);
        }
    }

    #[test]
    fn activations_grads() {
        // GELU, the one activation.
        let w = Param::new("gelu", Tensor::randn(&[2, 6], 9).map(|x| x * 1.5 + 0.1));
        let t = Tensor::randn(&[2, 6], 10);
        check(&w, |tape| tape.param(&w).gelu().mse_loss(&t));
    }

    #[test]
    fn layer_norm_grads_all_three_inputs() {
        let x = Param::new("x", Tensor::randn(&[3, 8], 11));
        let gamma = Param::new("gamma", Tensor::randn(&[8], 12).map(|v| v * 0.3 + 1.0));
        let beta = Param::new("beta", Tensor::randn(&[8], 13).map(|v| v * 0.3));
        let t = Tensor::randn(&[3, 8], 14);
        let f = loss_fn(|tape: &Tape| {
            tape.param(&x)
                .layer_norm(tape.param(&gamma), tape.param(&beta), 1e-5)
                .mse_loss(&t)
        });
        check(&x, f);
        check(&gamma, f);
        check(&beta, f);
    }

    #[test]
    fn broadcast_add_grads() {
        // bias [D] broadcast over [B, T, D]
        let b = Param::new("b", Tensor::randn(&[3], 15));
        let x = Tensor::randn(&[2, 4, 3], 16);
        let t = Tensor::randn(&[2, 4, 3], 17);
        check(&b, |tape| {
            tape.input(x.clone()).add(tape.param(&b)).mse_loss(&t)
        });
        // positional encoding [T, D] broadcast over [B, T, D]
        let pe = Param::new("pe", Tensor::randn(&[4, 3], 18));
        check(&pe, |tape| {
            tape.input(x.clone()).add(tape.param(&pe)).mse_loss(&t)
        });
    }

    #[test]
    fn sequence_ops_grads() {
        let x = Param::new("x", Tensor::randn(&[2, 6, 3], 19));
        let t2 = Tensor::randn(&[2, 3], 20);
        check(&x, |tape| tape.param(&x).select_axis1(5).mse_loss(&t2));
        check(&x, |tape| tape.param(&x).mean_axis1().mse_loss(&t2));
        let t3 = Tensor::randn(&[2, 4, 3], 21);
        check(&x, |tape| tape.param(&x).slice_axis1(1, 4).mse_loss(&t3));
    }

    #[test]
    fn transpose_and_reshape_grads() {
        let x = Param::new("x", Tensor::randn(&[2, 3, 4], 22));
        let t2 = Tensor::randn(&[6, 4], 24);
        check(&x, |tape| tape.param(&x).reshape(&[6, 4]).mse_loss(&t2));
    }

    #[test]
    fn composite_mlp_grads() {
        // A 2-layer MLP with layer norm: the full op mix used by the NTT.
        let w1 = Param::new("w1", Tensor::randn(&[4, 8], 25).map(|x| x * 0.4));
        let b1 = Param::new("b1", Tensor::zeros(&[8]));
        let w2 = Param::new("w2", Tensor::randn(&[8, 2], 26).map(|x| x * 0.4));
        let g = Param::new("g", Tensor::ones(&[8]));
        let be = Param::new("be", Tensor::zeros(&[8]));
        let x = Tensor::randn(&[3, 4], 27);
        let t = Tensor::randn(&[3, 2], 28);
        let f = loss_fn(|tape: &Tape| {
            tape.input(x.clone())
                .matmul(tape.param(&w1))
                .add(tape.param(&b1))
                .layer_norm(tape.param(&g), tape.param(&be), 1e-5)
                .gelu()
                .matmul(tape.param(&w2))
                .mse_loss(&t)
        });
        for p in [&w1, &b1, &w2, &g, &be] {
            check(p, f);
        }
    }
}
