//! Z-score normalization with statistics frozen on the training set.
//!
//! Statistics are computed once (on training data) and then applied to
//! both splits — test-set leakage through normalization would
//! overstate every held-out result.

/// Per-channel mean/std.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Normalizer {
    /// Fit per-channel statistics over `rows` of `channels` values each.
    /// Channels with (near-)zero variance get std 1 so they pass through
    /// as constant offsets instead of dividing by zero.
    pub fn fit(rows: &[f32], channels: usize) -> Self {
        assert!(channels > 0 && !rows.is_empty(), "nothing to fit");
        assert_eq!(rows.len() % channels, 0, "ragged rows");
        let n = (rows.len() / channels) as f64;
        let mut mean = vec![0.0f64; channels];
        for row in rows.chunks(channels) {
            for (m, &v) in mean.iter_mut().zip(row.iter()) {
                *m += v as f64;
            }
        }
        for m in mean.iter_mut() {
            *m /= n;
        }
        let mut var = vec![0.0f64; channels];
        for row in rows.chunks(channels) {
            for ((s, &v), m) in var.iter_mut().zip(row.iter()).zip(mean.iter()) {
                let d = v as f64 - m;
                *s += d * d;
            }
        }
        let std = var
            .iter()
            .map(|s| {
                let sd = (s / n).sqrt();
                if sd < 1e-12 {
                    1.0
                } else {
                    sd as f32
                }
            })
            .collect();
        Normalizer {
            mean: mean.into_iter().map(|m| m as f32).collect(),
            std,
        }
    }

    /// Identity normalizer for `channels` channels.
    pub fn identity(channels: usize) -> Self {
        Normalizer {
            mean: vec![0.0; channels],
            std: vec![1.0; channels],
        }
    }

    /// Rebuild from stored statistics (checkpoint deserialization —
    /// sharing a model means sharing the scaler it was trained with).
    pub fn from_stats(mean: Vec<f32>, std: Vec<f32>) -> Self {
        assert_eq!(mean.len(), std.len(), "ragged statistics");
        assert!(!mean.is_empty(), "empty statistics");
        Normalizer { mean, std }
    }

    pub fn channels(&self) -> usize {
        self.mean.len()
    }

    /// Per-channel means (checkpoint serialization).
    pub fn means(&self) -> &[f32] {
        &self.mean
    }

    /// Per-channel stds (checkpoint serialization).
    pub fn stds(&self) -> &[f32] {
        &self.std
    }

    /// Mean of one channel.
    pub fn mean_of(&self, ch: usize) -> f32 {
        self.mean[ch]
    }

    /// Std of one channel.
    pub fn std_of(&self, ch: usize) -> f32 {
        self.std[ch]
    }

    /// Normalize a flat buffer of rows in place.
    pub fn apply(&self, rows: &mut [f32]) {
        let c = self.channels();
        debug_assert_eq!(rows.len() % c, 0);
        for row in rows.chunks_mut(c) {
            for ((v, m), s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
                *v = (*v - m) / s;
            }
        }
    }

    /// Normalize a single channel value.
    pub fn apply_one(&self, ch: usize, v: f32) -> f32 {
        (v - self.mean[ch]) / self.std[ch]
    }

    /// Invert normalization for a single channel value.
    pub fn invert_one(&self, ch: usize, v: f32) -> f32 {
        v * self.std[ch] + self.mean[ch]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_produces_zero_mean_unit_std() {
        // Two channels with different scales.
        let rows: Vec<f32> = (0..200)
            .flat_map(|i| vec![i as f32, i as f32 * 100.0 + 5.0])
            .collect();
        let n = Normalizer::fit(&rows, 2);
        let mut x = rows.clone();
        n.apply(&mut x);
        for ch in 0..2 {
            let vals: Vec<f32> = x.chunks(2).map(|r| r[ch]).collect();
            let mean = vals.iter().sum::<f32>() / vals.len() as f32;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "ch{ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "ch{ch} var {var}");
        }
    }

    #[test]
    fn roundtrip_single_values() {
        let rows = vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0];
        let n = Normalizer::fit(&rows, 2);
        for v in [0.5f32, 7.3, -2.0] {
            let z = n.apply_one(1, v);
            assert!((n.invert_one(1, z) - v).abs() < 1e-5);
        }
    }

    #[test]
    fn constant_channel_does_not_explode() {
        let rows = vec![5.0, 1.0, 5.0, 2.0, 5.0, 3.0];
        let n = Normalizer::fit(&rows, 2);
        assert_eq!(n.std_of(0), 1.0);
        let mut x = rows.clone();
        n.apply(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        assert_eq!(x[0], 0.0);
    }

    #[test]
    fn identity_is_noop() {
        let n = Normalizer::identity(3);
        let mut x = vec![1.0, 2.0, 3.0];
        n.apply(&mut x);
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn rejects_ragged_input() {
        Normalizer::fit(&[1.0, 2.0, 3.0], 2);
    }
}
