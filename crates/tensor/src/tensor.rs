//! Dense row-major `f32` tensor.
//!
//! `Tensor` is the plain value type used throughout the workspace: the
//! simulator produces feature tensors, the tape records them, optimizers
//! mutate them. It owns a contiguous `Vec<f32>` and a dimension list; all
//! views are materialized (no stride tricks), which keeps every code path
//! simple and predictable — the smoltcp philosophy of robustness over
//! cleverness.

use crate::shape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A dense, row-major, heap-allocated `f32` tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Build a tensor from raw data and a shape. Panics if sizes disagree.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape::numel(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// A single-element tensor (shape `[1]`) holding `v`.
    pub fn scalar(v: f32) -> Self {
        Self::from_vec(vec![v], &[1])
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; shape::numel(shape)],
            shape: shape.to_vec(),
        }
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], v: f32) -> Self {
        Self {
            data: vec![v; shape::numel(shape)],
            shape: shape.to_vec(),
        }
    }

    /// `[0, 1, 2, ...]` as a 1-D tensor of length `n`.
    pub fn arange(n: usize) -> Self {
        Self::from_vec((0..n).map(|i| i as f32).collect(), &[n])
    }

    /// Standard-normal samples (Box-Muller), deterministic in `seed`.
    pub fn randn(shape: &[usize], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = shape::numel(shape);
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let t = 2.0 * std::f32::consts::PI * u2;
            data.push(r * t.cos());
            if data.len() < n {
                data.push(r * t.sin());
            }
        }
        Self::from_vec(data, shape)
    }

    /// Uniform samples in `[lo, hi)`, deterministic in `seed`.
    pub fn uniform(shape: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        assert!(lo < hi, "uniform requires lo < hi");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = shape::numel(shape);
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Self::from_vec(data, shape)
    }

    /// Dimension list.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its flat buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[shape::offset(&self.shape, index)]
    }

    /// Set the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], v: f32) {
        let off = shape::offset(&self.shape, index);
        self.data[off] = v;
    }

    /// The value of a single-element tensor. Panics otherwise.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires exactly one element");
        self.data[0]
    }

    /// Same data, new shape (must preserve element count).
    pub fn reshape(&self, new_shape: &[usize]) -> Tensor {
        shape::check_reshape(&self.shape, new_shape);
        Tensor {
            data: self.data.clone(),
            shape: new_shape.to_vec(),
        }
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Elementwise combine with an equally-shaped tensor.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip requires identical shapes ({:?} vs {:?})",
            self.shape, other.shape
        );
        Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// In-place `self += other` (identical shapes).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        assert!(self.numel() > 0, "mean of empty tensor");
        self.sum() / self.numel() as f32
    }

    /// Maximum element (NaN-ignoring would hide bugs; NaN propagates).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        (self
            .data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>())
        .sqrt() as f32
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Copy rows `[start, start+len)` along axis 1 of a rank-3 tensor.
    pub fn slice_axis1(&self, start: usize, len: usize) -> Tensor {
        assert_eq!(self.rank(), 3, "slice_axis1 requires rank 3");
        let (b, t, d) = (self.shape[0], self.shape[1], self.shape[2]);
        assert!(start + len <= t, "slice_axis1 out of range");
        let mut out = Vec::with_capacity(b * len * d);
        for bi in 0..b {
            let base = bi * t * d + start * d;
            out.extend_from_slice(&self.data[base..base + len * d]);
        }
        Tensor::from_vec(out, &[b, len, d])
    }

    /// Approximate equality within `tol` (absolute), same shape required.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, ... ; n={}, mean={:.4}]",
                self.data[0],
                self.data[1],
                self.numel(),
                self.mean()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.at(&[0, 0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[3]).data(), &[0.0, 0.0, 0.0]);
        assert_eq!(Tensor::ones(&[2]).data(), &[1.0, 1.0]);
        assert_eq!(Tensor::full(&[2], 7.5).data(), &[7.5, 7.5]);
    }

    #[test]
    fn randn_is_deterministic_and_roughly_normal() {
        let a = Tensor::randn(&[10_000], 42);
        let b = Tensor::randn(&[10_000], 42);
        assert_eq!(a, b);
        let mean = a.mean();
        let var = a.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds_and_seed() {
        let a = Tensor::uniform(&[1000], -2.0, 3.0, 7);
        assert!(a.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
        assert_eq!(a, Tensor::uniform(&[1000], -2.0, 3.0, 7));
        assert_ne!(a, Tensor::uniform(&[1000], -2.0, 3.0, 8));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(t.at(&[1, 0]), 3.0);
        let back = t.reshape(&[6]);
        assert_eq!(back.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn map_zip_and_inplace() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, -4.0]);
        assert_eq!(a.zip(&b, |x, y| x + y).data(), &[11.0, 18.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[11.0, 18.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -4.0], &[4]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
        assert!((t.norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn slice_axis1_copies_rows() {
        let t = Tensor::arange(24).reshape(&[2, 4, 3]);
        let s = t.slice_axis1(1, 2);
        assert_eq!(s.shape(), &[2, 2, 3]);
        assert_eq!(s.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        assert_eq!(s.at(&[1, 1, 2]), t.at(&[1, 2, 2]));
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.set(&[1], f32::NAN);
        assert!(t.has_non_finite());
    }

    #[test]
    fn allclose_tolerates_small_differences() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0 + 1e-7, 2.0 - 1e-7], &[2]);
        assert!(a.allclose(&b, 1e-6));
        assert!(!a.allclose(&b, 1e-9));
        assert!(!a.allclose(&Tensor::zeros(&[3]), 1.0));
    }
}
