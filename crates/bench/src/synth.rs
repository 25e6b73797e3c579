//! Synthetic training task for engine benchmarks: the delay task's
//! shapes (random windows, fixed targets) without its simulation or
//! dataset-construction cost, so the `kernels` and `obs_overhead`
//! benches isolate exactly the tensor/training engine.

use ntt_core::{Ntt, Task};
use ntt_data::NUM_FEATURES;
use ntt_nn::Module;
use ntt_tensor::{Param, Tape, Tensor, Var};

/// Random windows + zero targets behind the [`Task`] trait.
pub struct SynthTask {
    head: ntt_core::DelayHead,
    windows: Tensor, // [N, seq, F]
    seq: usize,
}

impl SynthTask {
    /// `n` windows of `seq` packets for a `d_model`-wide head.
    pub fn new(n: usize, seq: usize, d_model: usize, seed: u64) -> Self {
        SynthTask {
            head: ntt_core::DelayHead::new(d_model, seed),
            windows: Tensor::randn(&[n, seq, NUM_FEATURES], seed ^ 0xbe),
            seq,
        }
    }
}

impl Task for SynthTask {
    fn name(&self) -> &'static str {
        "synth-delay"
    }

    fn len(&self) -> usize {
        self.windows.shape()[0]
    }

    fn head_params(&self) -> Vec<Param> {
        self.head.params()
    }

    fn target_std(&self) -> f32 {
        1.0
    }

    fn batch_loss<'t>(&self, tape: &'t Tape, ntt: &Ntt, idx: &[usize]) -> Var<'t> {
        let row = self.seq * NUM_FEATURES;
        let mut x = Vec::with_capacity(idx.len() * row);
        for &i in idx {
            x.extend_from_slice(&self.windows.data()[i * row..(i + 1) * row]);
        }
        let x = Tensor::from_vec(x, &[idx.len(), self.seq, NUM_FEATURES]);
        let pred = self.head.forward(tape, ntt.forward(tape, tape.input(x)));
        pred.mse_loss(&Tensor::zeros(&[idx.len(), 1]))
    }
}
