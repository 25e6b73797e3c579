//! Multilayer perceptron — the paper's replaceable "decoder" / task head.
//!
//! BERT-style pre-train/fine-tune keeps the transformer trunk and swaps a
//! small MLP head per task (§2, Fig. 2b/3). `Mlp` is that head.

use crate::linear::Linear;
use crate::module::Module;
use ntt_tensor::{Param, Tape, Var};

/// A stack of linear layers with GELU between them (none after the
/// final layer: heads regress unbounded values).
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Build from a width list, e.g. `[64, 32, 1]` = two layers.
    pub fn new(name: &str, widths: &[usize], seed: u64) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                Linear::new(
                    &format!("{name}.fc{i}"),
                    w[0],
                    w[1],
                    seed.wrapping_add(i as u64 * 31),
                )
            })
            .collect();
        Mlp { layers }
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.layers.first().unwrap().in_features()
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.layers.last().unwrap().out_features()
    }

    /// Apply on the tape.
    pub fn forward<'t>(&self, tape: &'t Tape, mut x: Var<'t>) -> Var<'t> {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(tape, x);
            if i != last {
                x = x.gelu();
            }
        }
        x
    }
}

impl Module for Mlp {
    fn params(&self) -> Vec<Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_tensor::{Tape, Tensor};

    #[test]
    fn widths_define_structure() {
        let m = Mlp::new("head", &[64, 32, 1], 0);
        assert_eq!(m.in_features(), 64);
        assert_eq!(m.out_features(), 1);
        assert_eq!(m.num_params(), 64 * 32 + 32 + 32 + 1);
    }

    #[test]
    fn forward_shape() {
        let m = Mlp::new("head", &[8, 4, 2], 1);
        let tape = Tape::new();
        let y = m.forward(&tape, tape.input(Tensor::randn(&[5, 8], 2)));
        assert_eq!(y.shape(), vec![5, 2]);
    }

    #[test]
    fn no_activation_after_last_layer_allows_negative_outputs() {
        let m = Mlp::new("head", &[4, 4, 1], 3);
        let tape = Tape::new();
        let y = m.forward(&tape, tape.input(Tensor::randn(&[200, 4], 4)));
        assert!(
            y.value().data().iter().any(|&v| v < 0.0),
            "regression head should produce negative values"
        );
    }

    #[test]
    fn single_layer_is_linear() {
        let m = Mlp::new("head", &[3, 2], 5);
        assert_eq!(m.params().len(), 2);
    }

    #[test]
    fn hidden_activation_is_gelu() {
        // A 1 → 1 → 1 stack of identity layers is GELU itself.
        let m = Mlp::new("head", &[1, 1, 1], 6);
        for p in m.params() {
            let one = p.name().ends_with("weight");
            p.set_value(Tensor::full(&p.shape(), if one { 1.0 } else { 0.0 }));
        }
        let tape = Tape::new();
        let x = tape.input(Tensor::from_vec(vec![0.0, 1.0, -1.0], &[3, 1]));
        let y = m.forward(&tape, x).value();
        assert!((y.data()[0]).abs() < 1e-6);
        assert!((y.data()[1] - 0.8412).abs() < 1e-3);
        assert!((y.data()[2] + 0.1588).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_trivial_widths() {
        Mlp::new("head", &[3], 0);
    }
}
