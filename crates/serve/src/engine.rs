//! The grad-free inference engine: one loaded model, shared by every
//! session and batcher worker that serves it.
//!
//! An [`InferenceEngine`] owns an [`Ntt`] trunk, its task heads, and
//! the feature normalizer the model trained with. Weights live once —
//! wrapping the engine in an `Arc` and handing clones to worker threads
//! duplicates nothing.
//!
//! An engine is a **snapshot** of a fixed model. Construction folds the
//! trunk's affine front end — embedding → `agg1` → `agg2`, three
//! `Linear` layers with no activation between them — into one matrix
//! and bias per zone ([`Ntt::fold_front`]), so a request runs folded
//! front end → [`Ntt::encode`] → head and the `[B, seq_len, D]` embedded
//! window never exists. The fold is the one `Ntt::forward` runs on its
//! tape every training step, built once here, so an engine's front end
//! matches the training front end to the bit. A later `Param::set_value`
//! on the trunk's front end is therefore not seen by a built engine: to
//! change a served model, build a new engine — hot-swap through the
//! [`crate::ModelRegistry`].
//!
//! Every forward pass runs on a pooled **inference tape**
//! ([`Tape::inference`]): no backward graph or backward-only tensors
//! recorded — attention (`Var::attn_fused`) keeps no `[B, H, T, T]`
//! weights, each `(b, h)` block's living in kernel scratch. Inference
//! outputs are **deterministic** — bit-identical across runs, thread
//! counts, and batch compositions — and equal to the training path's
//! recording-tape forward bit for bit: both tape kinds run the same
//! ops. The tape's scratch arena recycles the same buffers request
//! after request, so a steady-state serving loop stops allocating.

use ntt_core::{FoldedFront, Ntt, NttConfig, Pretrained};
use ntt_data::{Normalizer, CH_DELAY, NUM_FEATURES};
use ntt_nn::Head;
use ntt_obs::Counter;
use ntt_tensor::{TapePool, Tensor};
use std::io;
use std::path::Path;

/// A loaded model ready to serve: trunk + heads + normalizer, executing
/// grad-free. Construct once, share via `Arc`.
pub struct InferenceEngine {
    model: Ntt,
    /// `model`'s front end, folded at construction.
    front: FoldedFront,
    heads: Vec<Box<dyn Head>>,
    norm: Normalizer,
    /// Pooled inference tapes (one per concurrent forward; a tape's
    /// scratch arena survives between requests).
    tapes: TapePool,
    /// Windows predicted since construction (all entry points). An
    /// `ntt_obs` counter: it holds its last value while `NTT_OBS=off`.
    served: Counter,
}

impl InferenceEngine {
    /// Wrap a model for serving. Dropout is forced off: serving is
    /// deterministic evaluation, never a stochastic training pass. The
    /// front end is folded here, once (~0.4 ms at paper shape), so the
    /// engine serves the weights the model has now.
    pub fn from_parts(model: Ntt, heads: Vec<Box<dyn Head>>, norm: Normalizer) -> Self {
        assert!(!heads.is_empty(), "an engine needs at least one head");
        model.set_training(false);
        InferenceEngine {
            front: model.fold_front(),
            model,
            heads,
            norm,
            tapes: TapePool::inference(),
            served: Counter::new(),
        }
    }

    /// Engine over a [`Pretrained`] pipeline result: a snapshot of its
    /// weights as they are now (the front end is folded, see the module
    /// docs), not a live view of parameters that keep training.
    pub fn from_pretrained(pre: Pretrained) -> Self {
        Self::from_parts(pre.model, pre.heads, pre.norm)
    }

    /// Load an `NTTCKPT2` checkpoint into a fresh engine: the embedded
    /// config rebuilds the trunk, the head descriptors rebuild the
    /// decoders, and the embedded normalizer keeps live featurization
    /// identical to training.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::from_pretrained(Pretrained::load(path)?))
    }

    /// Model configuration (window geometry, aggregation, width).
    pub fn cfg(&self) -> &NttConfig {
        &self.model.cfg
    }

    /// The trunk (read-only: serving never mutates weights).
    pub fn model(&self) -> &Ntt {
        &self.model
    }

    /// Every loaded head, in checkpoint order.
    pub fn heads(&self) -> &[Box<dyn Head>] {
        &self.heads
    }

    /// Input window length in packets.
    pub fn seq_len(&self) -> usize {
        self.model.cfg.seq_len()
    }

    /// The feature normalizer this model trained with.
    pub fn norm(&self) -> &Normalizer {
        &self.norm
    }

    /// The first head of the given kind, if loaded.
    pub fn head(&self, kind: &str) -> Option<&dyn Head> {
        self.heads
            .iter()
            .find(|h| h.kind() == kind)
            .map(|h| h.as_ref())
    }

    /// Kinds of every loaded head, in checkpoint order.
    pub fn head_kinds(&self) -> Vec<&'static str> {
        self.heads.iter().map(|h| h.kind()).collect()
    }

    /// Total windows predicted since construction. Counts only while
    /// observability is enabled (the `NTT_OBS` kill switch stops it);
    /// the process-wide total across every engine is the registry's
    /// `serve.windows_served` counter.
    pub fn windows_served(&self) -> u64 {
        self.served.get()
    }

    /// Predict a batch of already-featurized windows through the head
    /// of `kind`: `[B, seq_len, F]` (+ optional aux `[B, 1]`, e.g. the
    /// MCT head's message size) `-> [B, 1]` normalized predictions.
    ///
    /// Per-window results are **batch-composition invariant**: every
    /// kernel in the forward path works row-wise (GEMM rows, per-row
    /// softmax/layer-norm, per-sample attention), so window `i` of a
    /// batch gets bit-for-bit the prediction it would get alone — the
    /// property that lets the [`crate::Batcher`] coalesce arbitrary
    /// requests without changing anyone's answer.
    pub fn predict(&self, kind: &str, windows: &Tensor, aux: Option<&Tensor>) -> Tensor {
        let head = self.head(kind).unwrap_or_else(|| {
            panic!(
                "engine has no {kind:?} head (loaded: {:?})",
                self.head_kinds()
            )
        });
        let shape = windows.shape();
        assert_eq!(shape.len(), 3, "predict expects [B, T, F] windows");
        assert_eq!(shape[1], self.seq_len(), "window length mismatch");
        assert_eq!(shape[2], NUM_FEATURES, "feature count mismatch");
        assert_eq!(
            head.needs_aux(),
            aux.is_some(),
            "{kind:?} head aux-input mismatch"
        );
        // Chaos site: a seeded plan can stretch this forward pass
        // (simulating a slow model or contended accelerator) so the
        // layers above prove their queue bounds and deadlines hold
        // under slow service. One relaxed load when chaos is off.
        ntt_chaos::maybe_delay("serve.predict.delay");
        // The reset seed is constant: nothing stochastic runs in eval
        // mode, and a fixed seed keeps serving a pure function of the
        // inputs. Inputs are staged as arena-pooled copies, so a warm
        // engine allocates nothing per request.
        let _span = ntt_obs::span!("serve.predict_ns");
        let out = self.tapes.with(0, |tape| {
            let slots = self.front.forward(tape, tape.input_copy(windows));
            let encoded = self.model.encode(tape, slots);
            head.forward_head(tape, encoded, aux.map(|a| tape.input_copy(a)))
                .value()
        });
        self.served.add(shape[0] as u64);
        ntt_obs::counter!("serve.windows_served").add(shape[0] as u64);
        out
    }

    /// Convert a normalized delay prediction back to seconds.
    pub fn denorm_delay(&self, z: f32) -> f32 {
        self.norm.invert_one(CH_DELAY, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{save_engine_checkpoint, tiny_engine};
    use ntt_tensor::{Tape, Tensor};

    #[test]
    fn predict_matches_a_hand_wired_inference_tape_bit_for_bit() {
        let eng = tiny_engine(0.1);
        let x = Tensor::randn(&[3, eng.seq_len(), NUM_FEATURES], 5);
        let served = eng.predict("delay", &x, None);
        let head = eng.head("delay").unwrap();
        // Bit-exact reference: the engine's own path — folded front
        // end, `encode`, head — hand-wired on a fresh inference tape.
        let infer = Tape::inference_with_seed(0);
        let slots = eng
            .model
            .fold_front()
            .forward(&infer, infer.input(x.clone()));
        let expect = head
            .forward_head(&infer, eng.model.encode(&infer, slots), None)
            .value();
        assert_eq!(served, expect);
        // `Ntt::forward` folds its front end on the tape with the same
        // code and runs the same attention op, so it is the same bits on
        // either tape kind.
        let through = |tape: &Tape| {
            head.forward_head(tape, eng.model.forward(tape, tape.input(x.clone())), None)
                .value()
        };
        assert_eq!(served, through(&Tape::inference_with_seed(0)));
        assert_eq!(
            served,
            through(&Tape::new()),
            "serving drifted from training"
        );
        assert_eq!(eng.windows_served(), 3);
        // Repeat through the pooled (reset) tape: still identical.
        assert_eq!(eng.predict("delay", &x, None), expect);
    }

    #[test]
    fn an_engine_reloaded_from_its_checkpoint_serves_the_same_bits() {
        // The fold is a pure function of the weights: an engine folded
        // in memory and one folded after NTTCKPT2 save → load agree to
        // the bit, for every head.
        let eng = tiny_engine(0.0);
        let path = std::env::temp_dir().join(format!("ntt_refold_{}.ckpt", std::process::id()));
        save_engine_checkpoint(&eng, &path);
        let reloaded = InferenceEngine::load(&path).expect("load checkpoint");
        std::fs::remove_file(path).ok();
        let x = Tensor::randn(&[3, eng.seq_len(), NUM_FEATURES], 12);
        let aux = Tensor::randn(&[3, 1], 13);
        for kind in eng.head_kinds() {
            let aux = eng.head(kind).unwrap().needs_aux().then_some(&aux);
            assert_eq!(
                eng.predict(kind, &x, aux),
                reloaded.predict(kind, &x, aux),
                "{kind} head"
            );
        }
    }

    #[test]
    fn per_window_results_are_batch_composition_invariant() {
        let eng = tiny_engine(0.0);
        let x = Tensor::randn(&[4, eng.seq_len(), NUM_FEATURES], 6);
        let batched = eng.predict("delay", &x, None);
        let row = eng.seq_len() * NUM_FEATURES;
        for i in 0..4 {
            let one = Tensor::from_vec(
                x.data()[i * row..(i + 1) * row].to_vec(),
                &[1, eng.seq_len(), NUM_FEATURES],
            );
            let alone = eng.predict("delay", &one, None);
            assert_eq!(
                alone.data()[0].to_bits(),
                batched.data()[i].to_bits(),
                "window {i} changed under batching"
            );
        }
    }

    #[test]
    fn results_are_invariant_across_mixed_batch_compositions() {
        // Stronger than solo-vs-batched: the same window must produce
        // identical bits whatever its companions and position are —
        // batch 4 (position i), batch 2 pairings, and reversed order
        // all agree. This is what lets the batcher coalesce arbitrary
        // request mixes without changing anyone's answer.
        let eng = tiny_engine(0.0);
        let x = Tensor::randn(&[4, eng.seq_len(), NUM_FEATURES], 16);
        let row = eng.seq_len() * NUM_FEATURES;
        let window = |i: usize| x.data()[i * row..(i + 1) * row].to_vec();
        let compose = |ids: &[usize]| {
            let mut data = Vec::new();
            for &i in ids {
                data.extend_from_slice(&window(i));
            }
            Tensor::from_vec(data, &[ids.len(), eng.seq_len(), NUM_FEATURES])
        };
        let full = eng.predict("delay", &compose(&[0, 1, 2, 3]), None);
        for (ids, pick) in [
            (&[3, 2, 1, 0][..], &[(3usize, 0usize), (0, 3)][..]),
            (&[1, 3][..], &[(1, 0), (3, 1)][..]),
            (&[2][..], &[(2, 0)][..]),
        ] {
            let out = eng.predict("delay", &compose(ids), None);
            for &(win, pos) in pick {
                assert_eq!(
                    full.data()[win].to_bits(),
                    out.data()[pos].to_bits(),
                    "window {win} changed riding at position {pos} of {ids:?}"
                );
            }
        }
    }

    #[test]
    fn aux_heads_are_enforced() {
        let eng = tiny_engine(0.0);
        let x = Tensor::randn(&[2, eng.seq_len(), NUM_FEATURES], 7);
        let aux = Tensor::randn(&[2, 1], 8);
        let out = eng.predict("mct", &x, Some(&aux));
        assert_eq!(out.shape(), &[2, 1]);
    }

    #[test]
    #[should_panic(expected = "aux-input mismatch")]
    fn missing_aux_is_rejected() {
        let eng = tiny_engine(0.0);
        let x = Tensor::randn(&[1, eng.seq_len(), NUM_FEATURES], 9);
        eng.predict("mct", &x, None);
    }

    #[test]
    #[should_panic(expected = "no \"nope\" head")]
    fn unknown_head_is_rejected() {
        let eng = tiny_engine(0.0);
        let x = Tensor::zeros(&[1, eng.seq_len(), NUM_FEATURES]);
        eng.predict("nope", &x, None);
    }
}
