//! The [`TaskDataset`] trait: what the generic training engine needs
//! from a task's data, decoupled from any concrete dataset type.
//!
//! Every supervised task in the paper's workflow is "windows of packet
//! features in, one scalar target out, with at most one auxiliary
//! per-sample input" (the MCT task's message size). This trait captures
//! exactly that shape so `ntt-core`'s generic `HeadTask` can drive any
//! dataset — the two paper tasks or a downstream crate's own — through
//! one training loop.

use crate::dataset::{DelayDataset, MctDataset};
use ntt_tensor::Tensor;

/// A supervised task's data: indexable samples that materialize into
/// `(windows, optional aux input, targets)` batches.
///
/// `Sync` because the data-parallel trainer shares one dataset across
/// worker threads, each materializing its own microbatch.
pub trait TaskDataset: Sync {
    /// Short stable label for logs, reports, and checkpoint metadata.
    fn label(&self) -> &'static str;

    /// Number of samples.
    fn len(&self) -> usize;

    /// True when there is nothing to train on.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Std of the raw-unit target, for converting normalized MSE back
    /// to task units in evaluation reports.
    fn target_std(&self) -> f32;

    /// Materialize a batch: `(x [B, T, F], aux [B, 1] if the task has
    /// one, y [B, 1])` — all normalized.
    fn batch_xy(&self, idx: &[usize]) -> (Tensor, Option<Tensor>, Tensor);
}

impl TaskDataset for DelayDataset {
    fn label(&self) -> &'static str {
        "delay"
    }

    fn len(&self) -> usize {
        DelayDataset::len(self)
    }

    fn target_std(&self) -> f32 {
        self.delay_std()
    }

    fn batch_xy(&self, idx: &[usize]) -> (Tensor, Option<Tensor>, Tensor) {
        let (x, y) = self.batch(idx);
        (x, None, y)
    }
}

impl TaskDataset for MctDataset {
    fn label(&self) -> &'static str {
        "mct"
    }

    fn len(&self) -> usize {
        MctDataset::len(self)
    }

    fn target_std(&self) -> f32 {
        self.mct_std()
    }

    fn batch_xy(&self, idx: &[usize]) -> (Tensor, Option<Tensor>, Tensor) {
        let (x, sizes, y) = self.batch(idx);
        (x, Some(sizes), y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetConfig, TraceData};
    use ntt_sim::scenarios::{run, Scenario, ScenarioConfig};

    fn windows() -> (DelayDataset, DelayDataset) {
        let traces = vec![run(Scenario::Pretrain, &ScenarioConfig::tiny(11))];
        let data = TraceData::from_traces(&traces);
        let cfg = DatasetConfig {
            seq_len: 64,
            stride: 4,
            test_fraction: 0.2,
        };
        DelayDataset::build(data, cfg, None)
    }

    #[test]
    fn trait_impls_agree_with_inherent_batches() {
        let (train, _) = windows();
        let (x, aux, y) = TaskDataset::batch_xy(&train, &[0, 1]);
        let (xi, yi) = train.batch(&[0, 1]);
        assert_eq!(x, xi);
        assert_eq!(y, yi);
        assert!(aux.is_none());
        assert_eq!(TaskDataset::label(&train), "delay");
        assert_eq!(TaskDataset::len(&train), train.len());
        assert_eq!(TaskDataset::target_std(&train), train.delay_std());
    }
}
