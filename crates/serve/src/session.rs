//! Single-stream windowed inference: feed packets, read predictions.
//!
//! An [`InferenceSession`] is the operator-facing serving primitive for
//! one traffic stream: push receiver-side packet observations
//! ([`ntt_data::PacketView`]) as they arrive; once `seq_len` packets of
//! history exist, every `stride`-th push featurizes the current window
//! — through the **same** [`ntt_data::featurize_window`] path the
//! training datasets use, with the most recent packet's delay masked
//! exactly as in pre-training — and predicts that packet's delay.

use crate::engine::InferenceEngine;
use ntt_data::{featurize_window, PacketView, NUM_FEATURES};
use ntt_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::Arc;

/// Session knobs.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Predict on every `stride`-th packet once the window is warm
    /// (1 = every packet).
    pub stride: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { stride: 1 }
    }
}

/// One delay prediction for the stream's most recent packet.
#[derive(Debug, Clone, Copy)]
pub struct DelayPrediction {
    /// Arrival time of the predicted packet (seconds).
    pub t_secs: f64,
    /// Model output in normalized units.
    pub predicted_norm: f32,
    /// Model output converted back to seconds.
    pub predicted_secs: f32,
    /// Ground-truth delay carried on the observation (seconds) — what
    /// the masked feature hid from the model.
    pub actual_secs: f32,
}

/// Sliding-window inference over one packet stream.
pub struct InferenceSession {
    engine: Arc<InferenceEngine>,
    cfg: SessionConfig,
    window: VecDeque<PacketView>,
    seq_len: usize,
    /// Pushes since the last prediction (drives the stride).
    since_pred: usize,
    pushed: u64,
    predicted: u64,
}

impl InferenceSession {
    /// A session over `engine` (which must carry a `"delay"` head).
    pub fn new(engine: Arc<InferenceEngine>, cfg: SessionConfig) -> Self {
        assert!(cfg.stride >= 1, "stride must be at least 1");
        assert!(
            engine.head("delay").is_some(),
            "delay sessions need an engine with a \"delay\" head (loaded: {:?})",
            engine.head_kinds()
        );
        let seq_len = engine.seq_len();
        InferenceSession {
            engine,
            cfg,
            window: VecDeque::with_capacity(seq_len),
            seq_len,
            since_pred: 0,
            pushed: 0,
            predicted: 0,
        }
    }

    /// Packets observed so far.
    pub fn packets_seen(&self) -> u64 {
        self.pushed
    }

    /// Predictions produced so far.
    pub fn predictions_made(&self) -> u64 {
        self.predicted
    }

    /// True once `seq_len` packets of history exist.
    pub fn is_warm(&self) -> bool {
        self.window.len() == self.seq_len
    }

    /// Observe one packet. Returns a prediction when the window is warm
    /// and the stride says this packet is a prediction point.
    pub fn push(&mut self, pkt: PacketView) -> Option<DelayPrediction> {
        if self.window.len() == self.seq_len {
            self.window.pop_front();
        }
        self.window.push_back(pkt);
        self.pushed += 1;
        ntt_obs::counter!("serve.session.packets").inc();
        if self.window.len() < self.seq_len {
            // Warming up: lag = packets still missing before the first
            // prediction can happen.
            ntt_obs::gauge!("serve.session.window_lag")
                .set((self.seq_len - self.window.len()) as f64);
            return None;
        }
        self.since_pred += 1;
        // Window lag: packets observed since the stream's last
        // prediction — how stale the newest answer is right now.
        ntt_obs::gauge!("serve.session.window_lag").set(if self.since_pred < self.cfg.stride {
            self.since_pred as f64
        } else {
            0.0
        });
        if self.since_pred < self.cfg.stride {
            return None;
        }
        self.since_pred = 0;
        Some(self.predict_current(pkt))
    }

    fn predict_current(&mut self, last: PacketView) -> DelayPrediction {
        let feats = featurize_window(
            self.window.make_contiguous(),
            self.engine.norm(),
            self.engine.cfg().features,
            true, // mask the delay being predicted, as in pre-training
        );
        let x = Tensor::from_vec(feats, &[1, self.seq_len, NUM_FEATURES]);
        let z = self.engine.predict("delay", &x, None).item();
        self.predicted += 1;
        ntt_obs::counter!("serve.session.predictions").inc();
        DelayPrediction {
            t_secs: last.t,
            predicted_norm: z,
            predicted_secs: self.engine.denorm_delay(z),
            actual_secs: last.delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{synth_packets, tiny_engine};

    #[test]
    fn warms_up_then_predicts_every_stride() {
        let eng = Arc::new(tiny_engine());
        let seq = eng.seq_len();
        let mut sess = InferenceSession::new(Arc::clone(&eng), SessionConfig { stride: 3 });
        let pkts = synth_packets(seq + 9, 1);
        let mut preds = Vec::new();
        for (i, &p) in pkts.iter().enumerate() {
            let out = sess.push(p);
            if i + 1 < seq {
                assert!(out.is_none(), "no prediction before warmup");
            }
            preds.extend(out);
        }
        assert!(sess.is_warm());
        assert_eq!(sess.packets_seen(), (seq + 9) as u64);
        // Warm at seq; strides of 3 over the remaining 10 pushes.
        assert_eq!(preds.len(), 3);
        assert_eq!(sess.predictions_made(), 3);
        for p in &preds {
            assert!(p.predicted_secs.is_finite());
            assert!(p.actual_secs >= 0.0);
        }
    }

    #[test]
    fn session_features_match_dataset_featurization() {
        // The window the session predicts on must be bit-identical to
        // what a DelayDataset would build for the same packets.
        use ntt_data::{DatasetConfig, DelayDataset, RunData, TraceData};
        let eng = Arc::new(tiny_engine());
        let seq = eng.seq_len();
        let pkts = synth_packets(seq, 2);
        let mut sess = InferenceSession::new(Arc::clone(&eng), SessionConfig::default());
        let pred = pkts
            .iter()
            .filter_map(|&p| sess.push(p))
            .next()
            .expect("one full window predicts");
        // Dataset route over the same packets and normalizer.
        let data = TraceData::from_runs(vec![RunData {
            pkts: pkts.clone(),
            anchors: vec![],
        }]);
        let cfg = DatasetConfig {
            seq_len: seq,
            stride: 1,
            test_fraction: 0.0,
        };
        let (train, _) = DelayDataset::build(data, cfg, Some(eng.norm().clone()));
        let (x, y) = train.batch(&[0]);
        let direct = eng.predict("delay", &x, None).item();
        assert_eq!(pred.predicted_norm.to_bits(), direct.to_bits());
        // And the dataset's target is the same ground truth.
        assert_eq!(train.denorm_delay(y.item()), pred.actual_secs);
    }
}
