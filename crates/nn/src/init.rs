//! Weight initializers.
//!
//! Transformers are sensitive to initialization scale; linear layers
//! follow the standard Glorot recipe, deterministic in the given seed.

use ntt_tensor::Tensor;

/// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
/// The default for linear layers feeding into soft nonlinearities.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, seed: u64) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::uniform(&[fan_in, fan_out], -a, a, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_bounds_and_determinism() {
        let w = xavier_uniform(64, 64, 1);
        let a = (6.0f32 / 128.0).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= a));
        assert_eq!(w, xavier_uniform(64, 64, 1));
        assert_ne!(w, xavier_uniform(64, 64, 2));
        assert_eq!(w.shape(), &[64, 64]);
    }
}
