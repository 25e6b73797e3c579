//! Trace → training-sequence datasets.
//!
//! Converts simulator traces into the two tasks of §4:
//! * [`DelayDataset`] — sliding windows of `seq_len` packets; the target
//!   is the (masked) end-to-end delay of the most recent packet. Used
//!   both for pre-training and the delay fine-tuning task.
//! * [`MctDataset`] — windows anchored at the first packet of each
//!   message; the target is the log message completion time, with the
//!   message size as an extra decoder input.
//!
//! Splits are temporal within each run (early 80% train, late 20% test),
//! normalization statistics are fitted on training data only, and the
//! paper's "10% datasets" are seeded subsamples.

use crate::features::{FeatureMask, CH_DELAY, CH_RECEIVER, CH_SIZE, CH_TIME, NUM_FEATURES};
use crate::normalize::Normalizer;
use ntt_sim::RunTrace;
use ntt_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One packet as the model sees it (receiver-side observation).
#[derive(Debug, Clone, Copy)]
pub struct PacketView {
    /// Arrival time in seconds (f64: absolute times need the precision;
    /// only window-relative differences are cast to f32).
    pub t: f64,
    /// Wire size in bytes.
    pub size: f32,
    /// Dense receiver index (the paper's receiver-ID feature).
    pub receiver: f32,
    /// End-to-end delay in seconds.
    pub delay: f32,
    /// Whether the delivered copy was a retransmission — i.e. an
    /// earlier copy was dropped. Not a model input feature (the paper's
    /// four channels stay as they are).
    pub retransmit: bool,
}

/// Anchor for one completed message.
#[derive(Debug, Clone, Copy)]
pub struct MsgAnchor {
    /// Index (into the run's packet list) of the message's first
    /// delivered packet.
    pub anchor: usize,
    /// Message completion time in seconds.
    pub mct_secs: f64,
    /// Message size in bytes.
    pub msg_size: u64,
}

/// One simulation run, preprocessed.
pub struct RunData {
    pub pkts: Vec<PacketView>,
    pub anchors: Vec<MsgAnchor>,
}

/// All runs of a dataset (shared by delay and MCT datasets).
pub struct TraceData {
    pub runs: Vec<RunData>,
}

impl RunData {
    /// Preprocess one simulator trace. This is the streaming-ingestion
    /// unit: `ntt-fleet` folds each finished shard through this and
    /// drops the raw trace immediately, so peak memory scales with the
    /// compact [`RunData`] form rather than every raw [`RunTrace`].
    pub fn from_trace(tr: &RunTrace) -> RunData {
        let pkts: Vec<PacketView> = tr
            .packets
            .iter()
            .map(|p| PacketView {
                t: p.recv_ns as f64 / 1e9,
                size: p.size_bytes as f32,
                receiver: p.receiver_group as f32,
                delay: (p.delay_ns as f64 / 1e9) as f32,
                retransmit: p.retransmit,
            })
            .collect();
        // First-arrival index per (flow, msg) for MCT anchoring.
        let mut first: BTreeMap<(usize, u64), usize> = BTreeMap::new();
        for (i, p) in tr.packets.iter().enumerate() {
            first.entry((p.flow, p.msg_id)).or_insert(i);
        }
        let anchors = tr
            .messages
            .iter()
            .filter_map(|m| {
                let a = *first.get(&(m.flow, m.msg_id))?;
                let mct = m.mct_ns() as f64 / 1e9;
                (mct > 0.0).then_some(MsgAnchor {
                    anchor: a,
                    mct_secs: mct,
                    msg_size: m.size_bytes,
                })
            })
            .collect();
        RunData { pkts, anchors }
    }
}

impl TraceData {
    /// Preprocess simulator traces.
    pub fn from_traces(traces: &[RunTrace]) -> Arc<Self> {
        Self::from_runs(traces.iter().map(RunData::from_trace).collect())
    }

    /// Assemble a dataset from already-preprocessed runs (the streaming
    /// path: runs arrive one at a time from the fleet executor).
    pub fn from_runs(runs: Vec<RunData>) -> Arc<Self> {
        Arc::new(TraceData { runs })
    }

    /// Total packets across runs.
    pub fn n_packets(&self) -> usize {
        self.runs.iter().map(|r| r.pkts.len()).sum()
    }

    /// Total message anchors across runs.
    pub fn n_messages(&self) -> usize {
        self.runs.iter().map(|r| r.anchors.len()).sum()
    }
}

/// Dataset construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// Input sequence length in packets (paper: 1024).
    pub seq_len: usize,
    /// Take a delay window ending at every `stride`-th packet.
    pub stride: usize,
    /// Fraction of each run (by time) reserved for testing.
    pub test_fraction: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            seq_len: 1024,
            stride: 32,
            test_fraction: 0.2,
        }
    }
}

/// Featurize one window of packets exactly as the training pipeline
/// does: times relative to the window's first packet, per-channel
/// z-scores from `norm`, optional §3 masking of the most recent
/// packet's delay (the pre-training target — at serving time the value
/// being predicted), then the feature-ablation `mask`. This is the
/// **single** featurization path: the datasets call it per window, and
/// `ntt-serve` sessions call it on live packet streams, so a served
/// model can never see features scaled differently than it trained on.
pub fn featurize_window(
    pkts: &[PacketView],
    norm: &Normalizer,
    mask: FeatureMask,
    mask_last_delay: bool,
) -> Vec<f32> {
    assert!(!pkts.is_empty(), "featurizing an empty window");
    let t0 = pkts[0].t;
    let mut out = Vec::with_capacity(pkts.len() * NUM_FEATURES);
    for p in pkts {
        out.push(norm.apply_one(CH_TIME, (p.t - t0) as f32));
        out.push(norm.apply_one(CH_SIZE, p.size));
        out.push(norm.apply_one(CH_RECEIVER, p.receiver));
        out.push(norm.apply_one(CH_DELAY, p.delay));
    }
    if mask_last_delay {
        // The pre-training task masks the most recent packet's delay
        // (§3); zero is the post-normalization mean.
        let last = out.len() - NUM_FEATURES;
        out[last + CH_DELAY] = 0.0;
    }
    mask.apply(&mut out);
    out
}

fn window_features(
    pkts: &[PacketView],
    end: usize,
    seq_len: usize,
    norm: &Normalizer,
    mask: FeatureMask,
    mask_last_delay: bool,
) -> Vec<f32> {
    let start = end + 1 - seq_len;
    featurize_window(&pkts[start..=end], norm, mask, mask_last_delay)
}

/// Fit the feature normalizer over (a sample of) training windows.
fn fit_feature_norm(data: &TraceData, samples: &[(u32, u32)], seq_len: usize) -> Normalizer {
    let budget = 200usize.min(samples.len().max(1));
    let step = (samples.len() / budget).max(1);
    let mut rows = Vec::new();
    for (run, end) in samples.iter().step_by(step) {
        let pkts = &data.runs[*run as usize].pkts;
        let start = *end as usize + 1 - seq_len;
        let t0 = pkts[start].t;
        for p in &pkts[start..=*end as usize] {
            rows.push((p.t - t0) as f32);
            rows.push(p.size);
            rows.push(p.receiver);
            rows.push(p.delay);
        }
    }
    if rows.is_empty() {
        return Normalizer::identity(NUM_FEATURES);
    }
    Normalizer::fit(&rows, NUM_FEATURES)
}

/// Delay-prediction dataset (pre-training task and fine-tuning task 1).
#[derive(Clone)]
pub struct DelayDataset {
    data: Arc<TraceData>,
    samples: Vec<(u32, u32)>,
    pub seq_len: usize,
    pub norm: Normalizer,
    pub mask: FeatureMask,
}

impl DelayDataset {
    /// Build train/test datasets. The normalizer is fitted on the
    /// training windows; pass `Some(norm)` to reuse pre-training
    /// statistics when fine-tuning.
    pub fn build(
        data: Arc<TraceData>,
        cfg: DatasetConfig,
        norm: Option<Normalizer>,
    ) -> (DelayDataset, DelayDataset) {
        assert!(cfg.seq_len >= 1 && cfg.stride >= 1);
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (ri, run) in data.runs.iter().enumerate() {
            let n = run.pkts.len();
            if n < cfg.seq_len {
                continue;
            }
            let split = ((n as f64) * (1.0 - cfg.test_fraction)) as usize;
            for end in ((cfg.seq_len - 1)..n).step_by(cfg.stride) {
                let s = (ri as u32, end as u32);
                if end < split {
                    train.push(s);
                } else {
                    test.push(s);
                }
            }
        }
        let norm = norm.unwrap_or_else(|| fit_feature_norm(&data, &train, cfg.seq_len));
        let mk = |samples| DelayDataset {
            data: Arc::clone(&data),
            samples,
            seq_len: cfg.seq_len,
            norm: norm.clone(),
            mask: FeatureMask::all(),
        };
        (mk(train), mk(test))
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no windows exist.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The paper's "10%" datasets: keep a seeded random fraction.
    pub fn subsample(&self, fraction: f64, seed: u64) -> DelayDataset {
        assert!((0.0..=1.0).contains(&fraction));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = self.samples.clone();
        samples.shuffle(&mut rng);
        samples.truncate(((samples.len() as f64) * fraction).round().max(1.0) as usize);
        samples.sort_unstable();
        DelayDataset {
            data: Arc::clone(&self.data),
            samples,
            seq_len: self.seq_len,
            norm: self.norm.clone(),
            mask: self.mask,
        }
    }

    /// Same windows with an ablated feature set.
    pub fn with_mask(&self, mask: FeatureMask) -> DelayDataset {
        DelayDataset {
            mask,
            ..self.clone()
        }
    }

    /// Materialize a batch: `(x [B, T, F], y [B, 1])`, both normalized.
    pub fn batch(&self, idxs: &[usize]) -> (Tensor, Tensor) {
        let b = idxs.len();
        let mut x = Vec::with_capacity(b * self.seq_len * NUM_FEATURES);
        let mut y = Vec::with_capacity(b);
        for &i in idxs {
            let (run, end) = self.samples[i];
            let pkts = &self.data.runs[run as usize].pkts;
            x.extend(window_features(
                pkts,
                end as usize,
                self.seq_len,
                &self.norm,
                self.mask,
                true,
            ));
            y.push(self.norm.apply_one(CH_DELAY, pkts[end as usize].delay));
        }
        (
            Tensor::from_vec(x, &[b, self.seq_len, NUM_FEATURES]),
            Tensor::from_vec(y, &[b, 1]),
        )
    }

    /// Raw (seconds) delay target of window `i`.
    pub fn target_raw(&self, i: usize) -> f32 {
        let (run, end) = self.samples[i];
        self.data.runs[run as usize].pkts[end as usize].delay
    }

    /// Raw packet views of window `i` (for baselines).
    pub fn window_packets(&self, i: usize) -> &[PacketView] {
        let (run, end) = self.samples[i];
        let end = end as usize;
        &self.data.runs[run as usize].pkts[end + 1 - self.seq_len..=end]
    }

    /// Convert a normalized prediction back to seconds.
    pub fn denorm_delay(&self, z: f32) -> f32 {
        self.norm.invert_one(CH_DELAY, z)
    }

    /// Std of the delay channel (to convert normalized MSE to seconds²).
    pub fn delay_std(&self) -> f32 {
        self.norm.std_of(CH_DELAY)
    }

    /// Variance of this dataset's raw delay targets (seconds²). MSEs
    /// divided by this are comparable across models regardless of which
    /// normalizer each model trained with (1.0 = predicting the mean).
    pub fn target_variance(&self) -> f64 {
        let n = self.samples.len().max(1) as f64;
        let mean = (0..self.samples.len())
            .map(|i| self.target_raw(i) as f64)
            .sum::<f64>()
            / n;
        (0..self.samples.len())
            .map(|i| {
                let d = self.target_raw(i) as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n
    }
}

/// Message-completion-time dataset (fine-tuning task 2).
#[derive(Clone)]
pub struct MctDataset {
    data: Arc<TraceData>,
    /// (run, anchor packet index, ln mct, ln size)
    samples: Vec<(u32, u32, f32, f32)>,
    pub seq_len: usize,
    pub norm: Normalizer,
    /// 2-channel normalizer over (ln mct, ln size).
    pub target_norm: Normalizer,
    pub mask: FeatureMask,
}

impl MctDataset {
    /// Build train/test MCT datasets. `norm` is the *feature* normalizer
    /// (reuse the delay dataset's); target stats are fitted on train.
    pub fn build(
        data: Arc<TraceData>,
        cfg: DatasetConfig,
        norm: Normalizer,
    ) -> (MctDataset, MctDataset) {
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (ri, run) in data.runs.iter().enumerate() {
            let n = run.pkts.len();
            if n < cfg.seq_len {
                continue;
            }
            let split = ((n as f64) * (1.0 - cfg.test_fraction)) as usize;
            for a in &run.anchors {
                if a.anchor < cfg.seq_len - 1 {
                    continue; // not enough history yet
                }
                let s = (
                    ri as u32,
                    a.anchor as u32,
                    (a.mct_secs.max(1e-9)).ln() as f32,
                    (a.msg_size.max(1) as f64).ln() as f32,
                );
                if a.anchor < split {
                    train.push(s);
                } else {
                    test.push(s);
                }
            }
        }
        let rows: Vec<f32> = train.iter().flat_map(|s| [s.2, s.3]).collect();
        let target_norm = if rows.is_empty() {
            Normalizer::identity(2)
        } else {
            Normalizer::fit(&rows, 2)
        };
        let mk = |samples| MctDataset {
            data: Arc::clone(&data),
            samples,
            seq_len: cfg.seq_len,
            norm: norm.clone(),
            target_norm: target_norm.clone(),
            mask: FeatureMask::all(),
        };
        (mk(train), mk(test))
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Seeded random subsample (the "10%" fine-tuning datasets).
    pub fn subsample(&self, fraction: f64, seed: u64) -> MctDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = self.samples.clone();
        samples.shuffle(&mut rng);
        samples.truncate(((samples.len() as f64) * fraction).round().max(1.0) as usize);
        MctDataset {
            data: Arc::clone(&self.data),
            samples,
            seq_len: self.seq_len,
            norm: self.norm.clone(),
            target_norm: self.target_norm.clone(),
            mask: self.mask,
        }
    }

    /// Same anchors with an ablated feature set.
    pub fn with_mask(&self, mask: FeatureMask) -> MctDataset {
        MctDataset {
            mask,
            ..self.clone()
        }
    }

    /// Materialize a batch:
    /// `(x [B, T, F], msg_size [B, 1], y [B, 1])` — size and target on
    /// normalized log scales.
    pub fn batch(&self, idxs: &[usize]) -> (Tensor, Tensor, Tensor) {
        let b = idxs.len();
        let mut x = Vec::with_capacity(b * self.seq_len * NUM_FEATURES);
        let mut sizes = Vec::with_capacity(b);
        let mut y = Vec::with_capacity(b);
        for &i in idxs {
            let (run, anchor, log_mct, log_size) = self.samples[i];
            let pkts = &self.data.runs[run as usize].pkts;
            x.extend(window_features(
                pkts,
                anchor as usize,
                self.seq_len,
                &self.norm,
                self.mask,
                false,
            ));
            sizes.push(self.target_norm.apply_one(1, log_size));
            y.push(self.target_norm.apply_one(0, log_mct));
        }
        (
            Tensor::from_vec(x, &[b, self.seq_len, NUM_FEATURES]),
            Tensor::from_vec(sizes, &[b, 1]),
            Tensor::from_vec(y, &[b, 1]),
        )
    }

    /// Raw ln(MCT) of sample `i` (for baselines, unnormalized).
    pub fn target_log_raw(&self, i: usize) -> f32 {
        self.samples[i].2
    }

    /// All (run, anchor) pairs, exposing history for baselines.
    pub fn anchor_of(&self, i: usize) -> (usize, usize) {
        (self.samples[i].0 as usize, self.samples[i].1 as usize)
    }

    /// ln(MCT)s of messages completed *before* the anchor of sample `i`
    /// (what an online baseline could have observed), in completion
    /// order. Completion order is approximated by anchor order.
    pub fn history_log_mcts(&self, i: usize) -> Vec<f32> {
        let (run, anchor) = self.anchor_of(i);
        self.data.runs[run]
            .anchors
            .iter()
            .filter(|a| a.anchor < anchor)
            .map(|a| (a.mct_secs.max(1e-9)).ln() as f32)
            .collect()
    }

    /// Std of the normalized log-MCT target channel.
    pub fn mct_std(&self) -> f32 {
        self.target_norm.std_of(0)
    }

    /// Variance of this dataset's raw ln(MCT) targets; see
    /// [`DelayDataset::target_variance`] for the comparability rationale.
    pub fn target_log_variance(&self) -> f64 {
        let n = self.samples.len().max(1) as f64;
        let mean = self.samples.iter().map(|s| s.2 as f64).sum::<f64>() / n;
        self.samples
            .iter()
            .map(|s| {
                let d = s.2 as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n
    }
}

/// Shuffled mini-batch index iterator.
pub struct BatchIter {
    order: Vec<usize>,
    pos: usize,
    batch_size: usize,
}

impl BatchIter {
    /// Iterate `len` samples in batches of `batch_size`, shuffled with
    /// `seed` (shuffling off when `shuffle` is false, e.g. evaluation).
    pub fn new(len: usize, batch_size: usize, seed: u64, shuffle: bool) -> Self {
        assert!(batch_size > 0);
        let mut order: Vec<usize> = (0..len).collect();
        if shuffle {
            order.shuffle(&mut StdRng::seed_from_u64(seed));
        }
        BatchIter {
            order,
            pos: 0,
            batch_size,
        }
    }
}

impl Iterator for BatchIter {
    type Item = Vec<usize>;
    fn next(&mut self) -> Option<Vec<usize>> {
        if self.pos >= self.order.len() {
            return None;
        }
        let end = (self.pos + self.batch_size).min(self.order.len());
        let batch = self.order[self.pos..end].to_vec();
        self.pos = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_sim::scenarios::{run, Scenario, ScenarioConfig};

    fn tiny_data() -> Arc<TraceData> {
        let traces = vec![
            run(Scenario::Pretrain, &ScenarioConfig::tiny(11)),
            run(Scenario::Pretrain, &ScenarioConfig::tiny(12)),
        ];
        TraceData::from_traces(&traces)
    }

    fn small_cfg() -> DatasetConfig {
        DatasetConfig {
            seq_len: 64,
            stride: 4,
            test_fraction: 0.2,
        }
    }

    #[test]
    fn build_splits_temporally() {
        let data = tiny_data();
        let (train, test) = DelayDataset::build(Arc::clone(&data), small_cfg(), None);
        assert!(train.len() > 50, "train {}", train.len());
        assert!(test.len() > 5, "test {}", test.len());
        assert!(train.len() > test.len());
    }

    #[test]
    fn batch_shapes_and_masking() {
        let data = tiny_data();
        let (train, _) = DelayDataset::build(data, small_cfg(), None);
        let (x, y) = train.batch(&[0, 1, 2]);
        assert_eq!(x.shape(), &[3, 64, NUM_FEATURES]);
        assert_eq!(y.shape(), &[3, 1]);
        // The last packet's delay channel must be masked to 0.
        for b in 0..3 {
            assert_eq!(x.at(&[b, 63, CH_DELAY]), 0.0);
        }
        // Other packets' delay channels are not all zero.
        let any_nonzero = (0..63).any(|t| x.at(&[0, t, CH_DELAY]) != 0.0);
        assert!(any_nonzero);
    }

    #[test]
    fn features_are_roughly_standardized() {
        let data = tiny_data();
        let (train, _) = DelayDataset::build(data, small_cfg(), None);
        let idxs: Vec<usize> = (0..train.len().min(32)).collect();
        let (x, _) = train.batch(&idxs);
        // Delay channel over non-masked packets: mean near 0, std near 1.
        let mut vals = Vec::new();
        for b in 0..idxs.len() {
            for t in 0..63 {
                vals.push(x.at(&[b, t, CH_DELAY]));
            }
        }
        let mean = vals.iter().sum::<f32>() / vals.len() as f32;
        assert!(mean.abs() < 1.0, "delay channel mean {mean}");
    }

    #[test]
    fn subsample_keeps_fraction_and_is_seeded() {
        let data = tiny_data();
        let (train, _) = DelayDataset::build(data, small_cfg(), None);
        let ten = train.subsample(0.1, 7);
        assert_eq!(ten.len(), ((train.len() as f64) * 0.1).round() as usize);
        let again = train.subsample(0.1, 7);
        assert_eq!(ten.len(), again.len());
        assert_eq!(ten.target_raw(0), again.target_raw(0));
    }

    #[test]
    fn mask_ablation_zeroes_channel_in_batches() {
        let data = tiny_data();
        let (train, _) = DelayDataset::build(data, small_cfg(), None);
        let ablated = train.with_mask(FeatureMask::without_size());
        let (x, _) = ablated.batch(&[0, 1]);
        for b in 0..2 {
            for t in 0..64 {
                assert_eq!(x.at(&[b, t, CH_SIZE]), 0.0);
            }
        }
    }

    #[test]
    fn denorm_roundtrips_target() {
        let data = tiny_data();
        let (train, _) = DelayDataset::build(data, small_cfg(), None);
        let (_, y) = train.batch(&[5]);
        let raw = train.denorm_delay(y.at(&[0, 0]));
        assert!((raw - train.target_raw(5)).abs() < 1e-5);
    }

    #[test]
    fn mct_dataset_builds_with_history() {
        let data = tiny_data();
        let (dtrain, _) = DelayDataset::build(Arc::clone(&data), small_cfg(), None);
        let (train, test) = MctDataset::build(data, small_cfg(), dtrain.norm.clone());
        assert!(train.len() > 10, "train {}", train.len());
        assert!(!test.is_empty());
        let (x, s, y) = train.batch(&[0, 1]);
        assert_eq!(x.shape(), &[2, 64, NUM_FEATURES]);
        assert_eq!(s.shape(), &[2, 1]);
        assert_eq!(y.shape(), &[2, 1]);
        // History exists for late anchors.
        let last = train.len() - 1;
        assert!(!train.history_log_mcts(last).is_empty());
    }

    #[test]
    fn batch_iter_covers_everything_once() {
        let mut seen = [0u32; 10];
        for batch in BatchIter::new(10, 3, 0, true) {
            for i in batch {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        // Unshuffled iteration is in order.
        let batches: Vec<Vec<usize>> = BatchIter::new(5, 2, 0, false).collect();
        assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn reusing_norm_transfers_statistics() {
        let data = tiny_data();
        let (train, _) = DelayDataset::build(Arc::clone(&data), small_cfg(), None);
        let (ft_train, _) =
            DelayDataset::build(Arc::clone(&data), small_cfg(), Some(train.norm.clone()));
        assert_eq!(train.norm, ft_train.norm);
    }
}
