pub mod host;
pub mod metrics;
pub mod phase;
pub mod probes;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod train;
