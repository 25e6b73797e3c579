//! Optimizers, learning-rate schedules, and gradient clipping.

use ntt_tensor::{Param, ParamGrads, Tensor};
use std::collections::BTreeMap;

/// Learning-rate schedule, evaluated per optimizer step.
#[derive(Debug, Clone, Copy)]
pub enum LrSchedule {
    /// Linear warmup to `peak` over `warmup` steps, then cosine decay to
    /// `peak * floor_frac` at `total` steps (the transformer default).
    WarmupCosine {
        peak: f32,
        warmup: usize,
        total: usize,
        floor_frac: f32,
    },
}

impl LrSchedule {
    /// Learning rate at a zero-based step index.
    pub fn at(&self, step: usize) -> f32 {
        match *self {
            LrSchedule::WarmupCosine {
                peak,
                warmup,
                total,
                floor_frac,
            } => {
                if warmup > 0 && step < warmup {
                    return peak * (step + 1) as f32 / warmup as f32;
                }
                let span = total.saturating_sub(warmup).max(1);
                let t = ((step - warmup).min(span)) as f32 / span as f32;
                let cos = 0.5 * (1.0 + (std::f32::consts::PI * t).cos());
                let floor = peak * floor_frac;
                floor + (peak - floor) * cos
            }
        }
    }
}

/// Scale a reduced [`ParamGrads`] bundle so its global L2 norm is at
/// most `max_norm`. Returns the pre-clip norm (useful for divergence
/// diagnostics).
pub fn clip_param_grads(grads: &mut ParamGrads, max_norm: f32) -> f32 {
    let norm = grads.global_norm();
    if norm > max_norm && norm > 0.0 {
        grads.scale(max_norm / norm);
    }
    norm
}

/// Adam (Kingma & Ba 2015) with bias-corrected moments. State is keyed
/// by parameter identity, so freezing/unfreezing parameters between
/// phases keeps their moments.
pub struct Adam {
    schedule: LrSchedule,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: usize,
    state: BTreeMap<usize, (Tensor, Tensor)>,
}

impl Adam {
    /// Standard betas (0.9, 0.999). `_params` are the parameters the
    /// caller will pass gradients for; moments are keyed by parameter
    /// identity and created on a parameter's first update, so the list
    /// itself is not kept.
    pub fn new(_params: Vec<Param>, schedule: LrSchedule) -> Self {
        Adam {
            schedule,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            state: BTreeMap::new(),
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.step
    }

    /// Advance the step counter; returns `(lr, bias corrections)`.
    fn begin_step(&mut self) -> (f32, f32, f32) {
        let lr = self.schedule.at(self.step);
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        (lr, bc1, bc2)
    }

    /// Apply one update from a [`ParamGrads`] bundle (one backward
    /// pass's, or a reduced and clipped sum of several). Every step
    /// advances the schedule and the bias corrections. Parameters absent
    /// from the bundle (frozen, or not on this step's tape) are left
    /// untouched, moments included, so a frozen phase resumes where it
    /// stopped.
    pub fn step_with(&mut self, grads: &ParamGrads) {
        let (lr, bc1, bc2) = self.begin_step();
        for (p, g) in grads.iter() {
            if !p.is_trainable() {
                continue;
            }
            adam_apply(
                &mut self.state,
                AdamHyper {
                    beta1: self.beta1,
                    beta2: self.beta2,
                    eps: self.eps,
                },
                p,
                g,
                (lr, bc1, bc2),
            );
        }
    }
}

/// Adam's Copy hyper-parameters, bundled so the update helper can
/// borrow the moment state mutably.
#[derive(Clone, Copy)]
struct AdamHyper {
    beta1: f32,
    beta2: f32,
    eps: f32,
}

/// Moment update + parameter write for one `(param, grad)` pair;
/// `sched` is `(lr, bias correction 1, bias correction 2)`.
fn adam_apply(
    state: &mut BTreeMap<usize, (Tensor, Tensor)>,
    h: AdamHyper,
    p: &Param,
    g: &Tensor,
    sched: (f32, f32, f32),
) {
    let (lr, bc1, bc2) = sched;
    let (m, v) = state
        .entry(p.key())
        .or_insert_with(|| (Tensor::zeros(g.shape()), Tensor::zeros(g.shape())));
    for ((mi, vi), gi) in m
        .data_mut()
        .iter_mut()
        .zip(v.data_mut().iter_mut())
        .zip(g.data().iter())
    {
        *mi = h.beta1 * *mi + (1.0 - h.beta1) * gi;
        *vi = h.beta2 * *vi + (1.0 - h.beta2) * gi * gi;
    }
    let (md, vd) = (m.data(), v.data());
    p.update(|value| {
        for (i, val) in value.data_mut().iter_mut().enumerate() {
            let mhat = md[i] / bc1;
            let vhat = vd[i] / bc2;
            *val -= lr * (mhat / (vhat.sqrt() + h.eps));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_tensor::{Tape, Tensor};

    /// `lr` at every step: no warmup, and a floor equal to the peak.
    fn constant(lr: f32) -> LrSchedule {
        LrSchedule::WarmupCosine {
            peak: lr,
            warmup: 0,
            total: 1,
            floor_frac: 1.0,
        }
    }

    /// Gradient bundle of loss = mean((w - 3)^2), minimum at w = 3.
    fn quadratic_grads(p: &Param) -> ParamGrads {
        let tape = Tape::new();
        let loss = tape.param(p).mse_loss(&Tensor::full(&p.shape(), 3.0));
        tape.backward_params(loss)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let p = Param::new("w", Tensor::zeros(&[4]));
        let mut opt = Adam::new(vec![p.clone()], constant(0.1));
        for _ in 0..300 {
            opt.step_with(&quadratic_grads(&p));
        }
        assert!(p.value().allclose(&Tensor::full(&[4], 3.0), 1e-2));
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn warmup_cosine_shape() {
        let s = LrSchedule::WarmupCosine {
            peak: 1.0,
            warmup: 10,
            total: 110,
            floor_frac: 0.1,
        };
        assert!(s.at(0) < s.at(5));
        assert!((s.at(9) - 1.0).abs() < 1e-6);
        assert!(s.at(50) < 1.0);
        assert!((s.at(1000) - 0.1).abs() < 1e-6);
        assert!([0, 1, 7, 1000].iter().all(|&i| constant(0.1).at(i) == 0.1));
    }

    #[test]
    fn clip_param_grads_matches_slot_clipping() {
        let p = Param::new("w", Tensor::zeros(&[3]));
        let tape = Tape::new();
        // loss with a known large gradient
        let loss = tape.param(&p).mse_loss(&Tensor::full(&[3], -10.0));
        let mut bundle = tape.backward_params(loss.scale(100.0));
        let pre = clip_param_grads(&mut bundle, 1.0);
        assert!(pre > 1.0);
        assert!((bundle.global_norm() - 1.0).abs() < 1e-5);
        // Below the threshold: untouched.
        let n_before = bundle.global_norm();
        let pre2 = clip_param_grads(&mut bundle, 5.0);
        assert_eq!(pre2, n_before);
        assert_eq!(bundle.global_norm(), n_before);
    }

    #[test]
    fn adam_state_survives_freeze_unfreeze() {
        let p = Param::new("w", Tensor::zeros(&[1]));
        let mut opt = Adam::new(vec![p.clone()], constant(0.1));
        opt.step_with(&quadratic_grads(&p));
        let after_one = p.value().item();
        p.set_trainable(false);
        opt.step_with(&quadratic_grads(&p));
        assert_eq!(p.value().item(), after_one, "frozen step must not move w");
        p.set_trainable(true);
        opt.step_with(&quadratic_grads(&p));
        assert!(p.value().item() > after_one, "unfrozen step moves w again");
    }
}
