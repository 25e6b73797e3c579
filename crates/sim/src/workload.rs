//! Message-size and inter-arrival distributions.
//!
//! The paper's senders "generate 1 Mbps of messages each, following
//! real-world traffic distributions [26]" (Homa, SIGCOMM '18). The
//! published Homa workloads are heavy-tailed: most messages are a single
//! packet, a small fraction are megabytes and dominate the byte count.
//! [`MsgSizeDist::HomaLike`] reproduces that *shape* with a piecewise
//! log-uniform CDF (the substitution preserves the bursty, highly
//! variable offered load the paper relies on; no claim rests on the
//! exact CDF values, only on the heavy tail).

use rand::rngs::StdRng;
use rand::Rng;

/// Message size distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MsgSizeDist {
    /// Heavy-tailed, Homa-workload-shaped piecewise distribution.
    HomaLike,
    /// Every message is exactly `bytes`.
    Fixed { bytes: u64 },
    /// Log-uniform between `min` and `max` bytes.
    LogUniform { min: u64, max: u64 },
}

/// (cumulative probability, upper bound in bytes) knots of the
/// Homa-like CDF; log-uniform interpolation inside each segment.
const HOMA_KNOTS: &[(f64, u64)] = &[
    (0.00, 100),
    (0.50, 1_446),     // half the messages fit in one packet
    (0.80, 14_460),    // ~10 packets
    (0.95, 144_600),   // ~100 packets
    (0.99, 1_446_000), // ~1000 packets
    (1.00, 5_784_000), // tail: ~4000 packets
];

impl MsgSizeDist {
    /// Draw one message size in bytes (always >= 1).
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            MsgSizeDist::Fixed { bytes } => bytes.max(1),
            MsgSizeDist::LogUniform { min, max } => log_uniform(rng, min.max(1), max.max(2)),
            MsgSizeDist::HomaLike => {
                let u: f64 = rng.gen();
                for w in HOMA_KNOTS.windows(2) {
                    let (p0, b0) = w[0];
                    let (p1, b1) = w[1];
                    if u <= p1 {
                        // Log-uniform within the segment, linear in CDF.
                        let frac = if p1 > p0 { (u - p0) / (p1 - p0) } else { 0.0 };
                        let lo = (b0 as f64).ln();
                        let hi = (b1 as f64).ln();
                        return (lo + frac * (hi - lo)).exp().round().max(1.0) as u64;
                    }
                }
                HOMA_KNOTS.last().unwrap().1
            }
        }
    }

    /// Mean message size in bytes (analytic for Fixed, numeric otherwise;
    /// used to convert a target bit rate into a Poisson arrival rate).
    pub fn mean_bytes(&self) -> f64 {
        match *self {
            MsgSizeDist::Fixed { bytes } => bytes as f64,
            MsgSizeDist::LogUniform { min, max } => {
                let (a, b) = (min.max(1) as f64, max.max(2) as f64);
                (b - a) / (b.ln() - a.ln())
            }
            MsgSizeDist::HomaLike => {
                // E[X] = sum over segments of P(segment) * E[log-uniform].
                let mut mean = 0.0;
                for w in HOMA_KNOTS.windows(2) {
                    let (p0, b0) = w[0];
                    let (p1, b1) = w[1];
                    let (a, b) = (b0 as f64, b1 as f64);
                    let seg_mean = (b - a) / (b.ln() - a.ln());
                    mean += (p1 - p0) * seg_mean;
                }
                mean
            }
        }
    }
}

fn log_uniform(rng: &mut StdRng, min: u64, max: u64) -> u64 {
    let (lo, hi) = ((min as f64).ln(), (max as f64).ln());
    let u: f64 = rng.gen();
    (lo + u * (hi - lo)).exp().round().max(1.0) as u64
}

/// Draw an exponential inter-arrival gap with the given mean (seconds).
/// Used for Poisson message arrivals.
pub fn exp_interarrival(rng: &mut StdRng, mean_secs: f64) -> f64 {
    assert!(mean_secs > 0.0, "mean inter-arrival must be positive");
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean_secs * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn fixed_is_constant() {
        let mut r = rng(1);
        let d = MsgSizeDist::Fixed { bytes: 5000 };
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 5000);
        }
        assert_eq!(d.mean_bytes(), 5000.0);
    }

    #[test]
    fn log_uniform_respects_bounds() {
        let mut r = rng(2);
        let d = MsgSizeDist::LogUniform {
            min: 100,
            max: 10_000,
        };
        for _ in 0..1000 {
            let s = d.sample(&mut r);
            assert!((100..=10_000).contains(&s), "sample {s}");
        }
    }

    #[test]
    fn homa_like_is_heavy_tailed() {
        let mut r = rng(3);
        let d = MsgSizeDist::HomaLike;
        let samples: Vec<u64> = (0..50_000).map(|_| d.sample(&mut r)).collect();
        let one_pkt = samples.iter().filter(|&&s| s <= 1_446).count() as f64 / 50_000.0;
        assert!(
            (one_pkt - 0.5).abs() < 0.02,
            "single-packet fraction {one_pkt}"
        );
        let big = samples.iter().filter(|&&s| s > 144_600).count() as f64 / 50_000.0;
        assert!((big - 0.05).abs() < 0.01, "large-message fraction {big}");
        // Mean is dominated by the tail: far above the median.
        let mean = samples.iter().sum::<u64>() as f64 / 50_000.0;
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[25_000] as f64;
        assert!(mean > 5.0 * median, "mean {mean} vs median {median}");
    }

    #[test]
    fn homa_mean_estimate_matches_samples() {
        let mut r = rng(4);
        let d = MsgSizeDist::HomaLike;
        let n = 200_000;
        let emp = (0..n).map(|_| d.sample(&mut r)).sum::<u64>() as f64 / n as f64;
        let analytic = d.mean_bytes();
        let rel = (emp - analytic).abs() / analytic;
        assert!(rel < 0.1, "empirical {emp} vs analytic {analytic}");
    }

    #[test]
    fn exponential_interarrival_mean() {
        let mut r = rng(5);
        let n = 100_000;
        let mean = (0..n).map(|_| exp_interarrival(&mut r, 0.02)).sum::<f64>() / n as f64;
        assert!((mean - 0.02).abs() < 0.001, "mean {mean}");
    }

    #[test]
    fn samples_are_deterministic_in_seed() {
        let d = MsgSizeDist::HomaLike;
        let a: Vec<u64> = {
            let mut r = rng(7);
            (0..100).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = rng(7);
            (0..100).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
