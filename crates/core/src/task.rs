//! The [`Task`] trait: what the generic train/eval engine needs to know
//! about a prediction task — and [`HeadTask`], the one impl that covers
//! every (head, dataset) pair.
//!
//! The paper's tasks — masked-delay prediction (pre-training),
//! message-completion-time regression, drop-count regression — differ
//! only in their dataset and head. Everything else (batching,
//! shuffling, the optimizer loop, microbatch fan-out, deterministic
//! gradient reduction, evaluation accounting) is task-independent and
//! lives once in [`crate::trainer`]. Since PR 3, the dataset side is
//! abstracted too ([`ntt_data::TaskDataset`]), so a new task is a
//! [`Head`] impl plus a `TaskDataset` impl — `HeadTask` wires any such
//! pair into the engine with zero new trainer code.

use crate::model::Ntt;
use ntt_data::TaskDataset;
use ntt_nn::Head;
use ntt_tensor::{Param, Tape, Var};

/// A supervised task the engine can train and evaluate.
///
/// `Sync` is a supertrait because the data-parallel trainer shares one
/// task across worker threads, each building its own microbatch graph.
///
/// # Contract
///
/// [`Task::batch_loss`] must build the forward graph for the given
/// sample indices on `tape` and return a **scalar** (shape `[1]`) loss
/// that is a *mean with uniform per-sample weighting* — the engine
/// relies on this to recombine microbatch losses as
/// `Σ (|shard| / |batch|) · loss_shard`, which reproduces the
/// whole-batch mean exactly. The loss must be a pure function of
/// `(parameters, indices)`, whichever thread calls it.
pub trait Task: Sync {
    /// Short label for logs and reports.
    fn name(&self) -> &'static str;

    /// Number of samples in the dataset.
    fn len(&self) -> usize;

    /// True when there is nothing to train on.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parameters of the task head (the trunk's come from the shared
    /// [`Ntt`]).
    fn head_params(&self) -> Vec<Param>;

    /// Std of the raw-unit target, for converting normalized MSE back
    /// to task units in evaluation reports.
    fn target_std(&self) -> f32;

    /// Forward pass + mean loss over the samples at `idx`.
    fn batch_loss<'t>(&self, tape: &'t Tape, ntt: &Ntt, idx: &[usize]) -> Var<'t>;
}

/// The generic task: any [`Head`] over any [`TaskDataset`].
///
/// `?Sized` bounds let the pipeline drive trait objects — e.g. a
/// `&dyn Head` reconstructed from a checkpoint — through the same impl
/// that serves concrete head types.
pub struct HeadTask<'a, H: Head + ?Sized, D: TaskDataset + ?Sized> {
    head: &'a H,
    ds: &'a D,
}

impl<'a, H: Head + ?Sized, D: TaskDataset + ?Sized> HeadTask<'a, H, D> {
    pub fn new(head: &'a H, ds: &'a D) -> Self {
        HeadTask { head, ds }
    }
}

impl<H: Head + ?Sized, D: TaskDataset + ?Sized> Task for HeadTask<'_, H, D> {
    fn name(&self) -> &'static str {
        self.ds.label()
    }

    fn len(&self) -> usize {
        self.ds.len()
    }

    fn head_params(&self) -> Vec<Param> {
        self.head.params()
    }

    fn target_std(&self) -> f32 {
        self.ds.target_std()
    }

    fn batch_loss<'t>(&self, tape: &'t Tape, ntt: &Ntt, idx: &[usize]) -> Var<'t> {
        let (x, aux, y) = self.ds.batch_xy(idx);
        let enc = ntt.forward(tape, tape.input(x));
        let pred = self
            .head
            .forward_head(tape, enc, aux.map(|a| tape.input(a)));
        pred.mse_loss(&y)
    }
}
