//! Fully-connected layer.

use crate::init;
use crate::module::Module;
use ntt_tensor::{Param, Tape, Var};

/// `y = x · W + b`, applied to the last axis of any rank >= 2 input
/// (leading axes are flattened for the product and restored afterwards).
pub struct Linear {
    pub weight: Param,
    pub bias: Param,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Xavier-initialized layer. `name` prefixes the parameter names so
    /// checkpoints stay readable.
    pub fn new(name: &str, in_features: usize, out_features: usize, seed: u64) -> Self {
        Linear {
            weight: Param::new(
                format!("{name}.weight"),
                init::xavier_uniform(in_features, out_features, seed),
            ),
            bias: Param::new(
                format!("{name}.bias"),
                ntt_tensor::Tensor::zeros(&[out_features]),
            ),
            in_features,
            out_features,
        }
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Apply the layer on the tape. The weight broadcasts over every
    /// leading axis of `x` directly (one fused flat GEMM inside
    /// `matmul`), so no reshape copies are materialized on either side.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        let shape = x.shape();
        let d = *shape.last().expect("linear input must have rank >= 1");
        assert_eq!(
            d, self.in_features,
            "linear: input has {d} features, layer expects {}",
            self.in_features
        );
        let w = tape.param(&self.weight);
        let b = tape.param(&self.bias);
        x.matmul(w).add(b)
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_tensor::{Tape, Tensor};

    #[test]
    fn forward_shapes_rank2_and_rank3() {
        let l = Linear::new("l", 4, 6, 0);
        let tape = Tape::new();
        let x2 = tape.input(Tensor::randn(&[5, 4], 1));
        assert_eq!(l.forward(&tape, x2).shape(), vec![5, 6]);
        let x3 = tape.input(Tensor::randn(&[2, 3, 4], 2));
        assert_eq!(l.forward(&tape, x3).shape(), vec![2, 3, 6]);
    }

    #[test]
    fn forward_matches_manual_computation() {
        let l = Linear::new("l", 2, 2, 0);
        l.weight
            .set_value(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        l.bias.set_value(Tensor::from_vec(vec![0.5, -0.5], &[2]));
        let tape = Tape::new();
        let x = tape.input(Tensor::from_vec(vec![1.0, 1.0], &[1, 2]));
        let y = l.forward(&tape, x).value();
        // [1,1] @ [[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert!(y.allclose(&Tensor::from_vec(vec![4.5, 5.5], &[1, 2]), 1e-6));
    }

    #[test]
    fn rank3_equals_rowwise_rank2() {
        let l = Linear::new("l", 3, 2, 7);
        let data = Tensor::randn(&[2, 5, 3], 8);
        let tape = Tape::new();
        let y3 = l.forward(&tape, tape.input(data.clone())).value();
        let y2 = l.forward(&tape, tape.input(data.reshape(&[10, 3]))).value();
        assert!(y3.reshape(&[10, 2]).allclose(&y2, 1e-6));
    }

    #[test]
    fn gradients_flow_to_both_params() {
        let l = Linear::new("l", 3, 2, 3);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[4, 3], 4));
        let y = l.forward(&tape, x);
        let loss = y.mse_loss(&Tensor::zeros(&[4, 2]));
        let grads = tape.backward_params(loss);
        assert!(grads.get(&l.weight).unwrap().norm() > 0.0);
        assert!(grads.get(&l.bias).unwrap().norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "layer expects")]
    fn rejects_wrong_feature_count() {
        let l = Linear::new("l", 3, 2, 0);
        let tape = Tape::new();
        let x = tape.input(Tensor::zeros(&[4, 5]));
        l.forward(&tape, x);
    }
}
