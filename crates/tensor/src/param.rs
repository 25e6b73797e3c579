//! Trainable parameters.
//!
//! A [`Param`] is a shared, named tensor. The tape records a clone of
//! the handle at each use, so that `Tape::backward_params` can key the
//! gradients it collects by parameter; optimizers iterate over the same
//! handles to apply updates. A `Param` holds no gradient of its own:
//! gradients live only in the `ParamGrads` bundle a backward pass
//! returns. Storage is `Arc<RwLock<..>>` so parameter sets are
//! `Send + Sync`: the data-parallel trainer shares one model across
//! worker threads, each running its own forward/backward over a
//! microbatch. Workers only *read* values (gradient reduction happens in
//! a fixed order on the coordinating thread), so the lock is effectively
//! uncontended on the hot path.

use crate::Tensor;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[derive(Debug)]
struct ParamInner {
    name: String,
    value: Tensor,
    /// Frozen parameters receive no gradient and are skipped by
    /// optimizers — this implements the paper's "decoder only"
    /// fine-tuning mode (Table 2).
    trainable: bool,
}

/// Shared handle to a trainable tensor (`Send + Sync`; clones share
/// storage and identity).
#[derive(Clone, Debug)]
pub struct Param(Arc<RwLock<ParamInner>>);

impl Param {
    /// Create a parameter initialized to `value`.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        Param(Arc::new(RwLock::new(ParamInner {
            name: name.into(),
            value,
            trainable: true,
        })))
    }

    /// Read lock, tolerating poison: a panic mid-update in another
    /// thread (e.g. a failed shape assert under test) must not cascade
    /// into every later accessor.
    fn read(&self) -> RwLockReadGuard<'_, ParamInner> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, ParamInner> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Parameter name (used in checkpoints and diagnostics).
    pub fn name(&self) -> String {
        self.read().name.clone()
    }

    /// Clone of the current value.
    pub fn value(&self) -> Tensor {
        self.read().value.clone()
    }

    /// Run `f` against the current value under the read lock, without
    /// cloning it. The tape uses this to take arena-pooled copies; the
    /// serving engine uses it for zero-copy weight reads.
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.read().value)
    }

    /// Shape of the value.
    pub fn shape(&self) -> Vec<usize> {
        self.read().value.shape().to_vec()
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.read().value.numel()
    }

    /// Replace the value (e.g. when loading a checkpoint).
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.write();
        assert_eq!(
            inner.value.shape(),
            value.shape(),
            "set_value shape mismatch for {}",
            inner.name
        );
        inner.value = value;
    }

    /// Whether optimizers should update this parameter.
    pub fn is_trainable(&self) -> bool {
        self.read().trainable
    }

    /// Freeze or unfreeze the parameter.
    pub fn set_trainable(&self, trainable: bool) {
        self.write().trainable = trainable;
    }

    /// Mutate the value in place under the write lock (the optimizer
    /// update hook).
    pub fn update(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.write().value);
    }

    /// Stable identity for optimizer state maps (two clones of the same
    /// `Param` compare equal).
    pub fn key(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }
}

impl PartialEq for Param {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}
impl Eq for Param {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    #[test]
    fn update_sees_value_and_grad() {
        // One gradient-descent step: the update closure reads the value
        // it mutates, and the gradient comes from the backward bundle.
        let p = Param::new("w", Tensor::from_vec(vec![1.0], &[1]));
        let tape = Tape::new();
        let loss = tape.param(&p).scale(10.0).mean_all(); // dL/dw = 10
        let g = tape.backward_params(loss).get(&p).unwrap().item();
        p.update(|v| {
            v.data_mut()[0] -= 0.1 * g;
        });
        assert!((p.value().data()[0] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn clones_share_identity() {
        let p = Param::new("w", Tensor::zeros(&[1]));
        let q = p.clone();
        assert_eq!(p, q);
        assert_eq!(p.key(), q.key());
        q.set_value(Tensor::ones(&[1]));
        assert_eq!(p.value().data(), &[1.0]);
        q.set_trainable(false);
        assert!(!p.is_trainable());
        let r = Param::new("w", Tensor::zeros(&[1]));
        assert_ne!(p, r);
    }

    #[test]
    #[should_panic(expected = "set_value shape mismatch")]
    fn set_value_checks_shape() {
        let p = Param::new("w", Tensor::zeros(&[2]));
        p.set_value(Tensor::zeros(&[3]));
    }

    #[test]
    fn params_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Param>();
        // Writes from another thread land in the same storage.
        let p = Param::new("w", Tensor::from_vec(vec![7.0], &[1]));
        let q = p.clone();
        std::thread::spawn(move || {
            assert_eq!(q.value().data(), &[7.0]);
            q.update(|v| v.data_mut()[0] += 1.0);
        })
        .join()
        .unwrap();
        assert_eq!(p.value().data(), &[8.0]);
    }
}
