//! # ntt-data
//!
//! Packet-trace → training-sequence pipeline for the Network Traffic
//! Transformer reproduction (HotNets '22).
//!
//! Turns [`ntt_sim`] traces into the paper's two tasks: masked
//! last-packet **delay prediction** (pre-training, §3) and **message
//! completion time** prediction (fine-tuning, §4), with temporal
//! train/test splits, train-set-only normalization, feature-ablation
//! masks (Table 1), and seeded "10%" subsampling (Tables 2/3).
//!
//! ```
//! use ntt_data::{DatasetConfig, DelayDataset, TraceData};
//! use ntt_sim::scenarios::{run, Scenario, ScenarioConfig};
//!
//! let trace = run(Scenario::Pretrain, &ScenarioConfig::tiny(1));
//! let data = TraceData::from_traces(&[trace]);
//! let cfg = DatasetConfig { seq_len: 64, stride: 8, test_fraction: 0.2 };
//! let (train, test) = DelayDataset::build(data, cfg, None);
//! let (x, y) = train.batch(&[0]);
//! assert_eq!(x.shape(), &[1, 64, ntt_data::NUM_FEATURES]);
//! assert_eq!(y.shape(), &[1, 1]);
//! assert!(test.len() > 0);
//! ```

mod dataset;
mod features;
mod normalize;
mod task;

pub use dataset::{
    featurize_window, BatchIter, DatasetConfig, DelayDataset, MctDataset, MsgAnchor, PacketView,
    RunData, TraceData,
};
pub use features::{FeatureMask, CH_DELAY, CH_RECEIVER, CH_SIZE, CH_TIME, NUM_FEATURES};
pub use normalize::Normalizer;
pub use task::TaskDataset;
