//! The [`Head`] trait: a replaceable task head ("decoder" in the
//! paper's BERT-inspired terminology).
//!
//! The transfer story of Fig. 1 hinges on heads being swappable: the
//! pre-trained trunk stays, and each new task attaches a small decoder
//! that reads the encoded window (plus, for some tasks, an auxiliary
//! per-sample input such as a message size). This trait is the uniform
//! surface the trainer, the checkpoint format, and the `Experiment`
//! pipeline program against — adding a task means implementing `Head`
//! (and a `TaskDataset`), never touching the engine.

use crate::module::Module;
use ntt_tensor::{Tape, Var};

/// A replaceable task head over the encoder output.
///
/// `Send + Sync` is required because the data-parallel trainer shares
/// one head across worker threads and the serving engine holds boxed
/// heads inside `Arc`-shared, thread-pooled engines; `Module` supplies
/// parameter plumbing (uniquely named parameters, so checkpoints can
/// address them).
pub trait Head: Module + Send + Sync {
    /// Stable kind descriptor, e.g. `"delay"`. Written into
    /// self-describing checkpoints and used to rebuild the head on
    /// load, so it must never change for a shipped head.
    fn kind(&self) -> &'static str;

    /// Encoder width (`d_model`) this head was built for.
    fn d_model(&self) -> usize;

    /// Whether [`Head::forward_head`] requires the auxiliary input.
    fn needs_aux(&self) -> bool {
        false
    }

    /// Forward over the encoded window `[B, S, D]`, with an optional
    /// auxiliary per-sample input `[B, 1]` (e.g. the MCT task's message
    /// size), producing a `[B, 1]` prediction.
    fn forward_head<'t>(&self, tape: &'t Tape, encoded: Var<'t>, aux: Option<Var<'t>>) -> Var<'t>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;
    use ntt_tensor::{Param, Tensor};

    /// A minimal custom head, as a downstream crate would write one.
    struct PoolHead(Mlp);
    impl Module for PoolHead {
        fn params(&self) -> Vec<Param> {
            self.0.params()
        }
    }
    impl Head for PoolHead {
        fn kind(&self) -> &'static str {
            "pool"
        }
        fn d_model(&self) -> usize {
            self.0.in_features()
        }
        fn forward_head<'t>(
            &self,
            tape: &'t Tape,
            encoded: Var<'t>,
            _aux: Option<Var<'t>>,
        ) -> Var<'t> {
            self.0.forward(tape, encoded.mean_axis1())
        }
    }

    #[test]
    fn custom_heads_plug_in_through_the_trait() {
        let head = PoolHead(Mlp::new("pool_head", &[8, 4, 1], 0));
        assert_eq!(head.kind(), "pool");
        assert_eq!(head.d_model(), 8);
        assert!(!head.needs_aux());
        let tape = Tape::new();
        let enc = tape.input(Tensor::randn(&[3, 6, 8], 1));
        let out = head.forward_head(&tape, enc, None);
        assert_eq!(out.shape(), vec![3, 1]);
        // Works as a trait object (how the pipeline holds loaded heads).
        let boxed: Box<dyn Head> = Box::new(head);
        assert!(boxed.num_params() > 0);
    }
}
