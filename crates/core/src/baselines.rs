//! The paper's naive baselines (Table 1): last-observed and EWMA, plus
//! a delay-only "last observed at the same receiver".
//!
//! * Delay task: predict the masked last-packet delay from the delays of
//!   the preceding packets in the window.
//! * MCT task: predict a message's log completion time from the log
//!   completion times of previously completed messages on the same run.

use ntt_data::{DelayDataset, MctDataset, PacketView};

/// EWMA smoothing factor — the paper uses α = 0.01.
pub const EWMA_ALPHA: f32 = 0.01;

/// Mean squared error between two slices.
pub fn mse(pred: &[f32], truth: &[f32]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    assert!(!pred.is_empty(), "empty evaluation");
    pred.iter()
        .zip(truth.iter())
        .map(|(p, t)| {
            let d = (*p - *t) as f64;
            d * d
        })
        .sum::<f64>()
        / pred.len() as f64
}

/// "Last observed": the previous packet's delay, in raw seconds².
pub fn delay_last_observed_mse(ds: &DelayDataset) -> f64 {
    let (mut pred, mut truth) = (Vec::new(), Vec::new());
    for i in 0..ds.len() {
        let w = ds.window_packets(i);
        pred.push(w[w.len() - 2].delay);
        truth.push(ds.target_raw(i));
    }
    mse(&pred, &truth)
}

/// The delay of the window's most recent earlier packet to the last
/// packet's receiver, or of packet t−1 if no earlier packet went there.
fn last_same_receiver(window: &[PacketView]) -> f32 {
    let (last, earlier) = window.split_last().expect("empty window");
    let same = earlier.iter().rev().find(|p| p.receiver == last.receiver);
    same.unwrap_or(&earlier[earlier.len() - 1]).delay
}

/// "Last observed at the same receiver": where receivers sit at
/// different path depths (Table 3's larger topology) the previous
/// packet may have crossed a different path, so this predicts from the
/// most recent packet that went where the masked one goes. With one
/// receiver group it equals [`delay_last_observed_mse`]. Raw seconds².
pub fn delay_last_same_receiver_mse(ds: &DelayDataset) -> f64 {
    let (mut pred, mut truth) = (Vec::new(), Vec::new());
    for i in 0..ds.len() {
        pred.push(last_same_receiver(ds.window_packets(i)));
        truth.push(ds.target_raw(i));
    }
    mse(&pred, &truth)
}

/// EWMA over the window's preceding delays, in raw seconds².
pub fn delay_ewma_mse(ds: &DelayDataset, alpha: f32) -> f64 {
    let (mut pred, mut truth) = (Vec::new(), Vec::new());
    for i in 0..ds.len() {
        let w = ds.window_packets(i);
        let mut e = w[0].delay;
        for p in &w[1..w.len() - 1] {
            e = alpha * p.delay + (1.0 - alpha) * e;
        }
        pred.push(e);
        truth.push(ds.target_raw(i));
    }
    mse(&pred, &truth)
}

/// "Last observed" for MCT: the log-MCT of the most recently completed
/// message (falling back to the sample's own history mean, then 0).
pub fn mct_last_observed_mse(ds: &MctDataset) -> f64 {
    let (mut pred, mut truth) = (Vec::new(), Vec::new());
    for i in 0..ds.len() {
        let hist = ds.history_log_mcts(i);
        pred.push(hist.last().copied().unwrap_or(0.0));
        truth.push(ds.target_log_raw(i));
    }
    mse(&pred, &truth)
}

/// EWMA over previously completed messages' log-MCTs.
pub fn mct_ewma_mse(ds: &MctDataset, alpha: f32) -> f64 {
    let (mut pred, mut truth) = (Vec::new(), Vec::new());
    for i in 0..ds.len() {
        let hist = ds.history_log_mcts(i);
        let p = match hist.split_first() {
            None => 0.0,
            Some((first, rest)) => {
                let mut e = *first;
                for v in rest {
                    e = alpha * v + (1.0 - alpha) * e;
                }
                e
            }
        };
        pred.push(p);
        truth.push(ds.target_log_raw(i));
    }
    mse(&pred, &truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_data::{DatasetConfig, DelayDataset, MctDataset, TraceData};
    use ntt_sim::scenarios::{run, Scenario, ScenarioConfig};

    fn datasets() -> (DelayDataset, MctDataset) {
        let traces = vec![run(Scenario::Pretrain, &ScenarioConfig::tiny(21))];
        let data = TraceData::from_traces(&traces);
        let cfg = DatasetConfig {
            seq_len: 48,
            stride: 4,
            test_fraction: 0.2,
        };
        let (dtrain, _) = DelayDataset::build(std::sync::Arc::clone(&data), cfg, None);
        let (mtrain, _) = MctDataset::build(data, cfg, dtrain.norm.clone());
        (dtrain, mtrain)
    }

    #[test]
    fn mse_basics() {
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((mse(&[1.0, 3.0], &[0.0, 0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty evaluation")]
    fn mse_rejects_empty() {
        mse(&[], &[]);
    }

    #[test]
    fn baselines_produce_finite_positive_errors() {
        let (d, m) = datasets();
        for v in [
            delay_last_observed_mse(&d),
            delay_last_same_receiver_mse(&d),
            delay_ewma_mse(&d, EWMA_ALPHA),
            mct_last_observed_mse(&m),
            mct_ewma_mse(&m, EWMA_ALPHA),
        ] {
            assert!(v.is_finite() && v > 0.0, "baseline mse {v}");
        }
    }

    #[test]
    fn last_observed_beats_nothing_on_smooth_delays() {
        // Delays are strongly autocorrelated under queueing, so the
        // last-observed baseline must beat predicting the dataset mean.
        let (d, _) = datasets();
        let truths: Vec<f32> = (0..d.len()).map(|i| d.target_raw(i)).collect();
        let mean = truths.iter().sum::<f32>() / truths.len() as f32;
        let mean_mse = mse(&vec![mean; truths.len()], &truths);
        let lo = delay_last_observed_mse(&d);
        assert!(lo < mean_mse, "last-observed {lo} vs mean {mean_mse}");
    }

    #[test]
    fn same_receiver_takes_the_latest_earlier_packet_to_that_receiver() {
        let window: Vec<PacketView> = [(0.0, 1.0), (1.0, 2.0), (0.0, 3.0), (1.0, 4.0), (1.0, 5.0)]
            .into_iter()
            .map(|(receiver, delay)| PacketView {
                t: 0.0,
                size: 1000.0,
                receiver,
                delay,
                retransmit: false,
            })
            .collect();
        let with_last = |receiver: f32| {
            let mut w = window.clone();
            w.push(PacketView { receiver, ..w[0] });
            last_same_receiver(&w)
        };
        assert_eq!(with_last(0.0), 3.0, "packet 2 is the latest to receiver 0");
        assert_eq!(with_last(1.0), 5.0, "packet t-1 went to receiver 1 too");
        assert_eq!(with_last(2.0), 5.0, "no packet to receiver 2: packet t-1");
    }

    #[test]
    fn same_receiver_equals_last_observed_with_one_receiver_group() {
        let (d, _) = datasets();
        assert_eq!(
            delay_last_same_receiver_mse(&d),
            delay_last_observed_mse(&d)
        );
    }

    #[test]
    fn ewma_is_smoother_than_last_observed_for_mct() {
        // Not asserting which wins (the paper finds EWMA better for MCT,
        // last-observed better for delay) — just that they differ, i.e.
        // the two baselines are genuinely distinct estimators.
        let (_, m) = datasets();
        let lo = mct_last_observed_mse(&m);
        let ew = mct_ewma_mse(&m, EWMA_ALPHA);
        assert_ne!(lo, ew);
    }
}
