//! The [`Module`] trait: a uniform handle over anything with parameters.

use ntt_tensor::Param;

/// Anything holding trainable parameters.
///
/// The contract is intentionally tiny — forward passes have
/// layer-specific signatures, so only parameter plumbing is shared.
pub trait Module {
    /// Every parameter owned (transitively) by this module, in a stable
    /// order. Checkpointing relies on the order being deterministic.
    fn params(&self) -> Vec<Param>;

    /// Total scalar parameter count.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Freeze / unfreeze all parameters (used for the paper's
    /// "decoder only" fine-tuning mode, Table 2).
    fn set_trainable(&self, trainable: bool) {
        for p in self.params() {
            p.set_trainable(trainable);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_tensor::Tensor;

    struct Two(Param, Param);
    impl Module for Two {
        fn params(&self) -> Vec<Param> {
            vec![self.0.clone(), self.1.clone()]
        }
    }

    #[test]
    fn default_methods_cover_all_params() {
        let m = Two(
            Param::new("a", Tensor::zeros(&[2, 3])),
            Param::new("b", Tensor::zeros(&[4])),
        );
        assert_eq!(m.num_params(), 10);
        m.set_trainable(false);
        assert!(!m.params()[0].is_trainable());
        assert!(!m.params()[1].is_trainable());
        m.set_trainable(true);
        assert!(m.params()[1].is_trainable());
    }
}
