//! NTT model configuration, including the aggregation variants of §3
//! and the ablations of Table 1.

use ntt_data::FeatureMask;
use ntt_nn::EncoderConfig;

/// Slots produced per zone by the multi-timescale aggregator. Three
/// zones of 16 give the paper's 48-element encoder input.
pub const ZONE_SLOTS: usize = 16;
/// Encoder sequence length after aggregation (the paper's 48).
pub const OUT_SLOTS: usize = 3 * ZONE_SLOTS;

/// How the input packet sequence is compressed before the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// §3 multi-timescale aggregation. With `block` = 21:
    /// oldest 672 packets -> 16 slots (aggregated twice: 21 then 2),
    /// middle 336 packets -> 16 slots (aggregated once),
    /// recent 16 packets  -> 16 slots (raw); total 1024 -> 48.
    /// Smaller `block` values scale the window down proportionally
    /// (e.g. block 5 -> 256 packets), keeping 48 output slots.
    MultiScale { block: usize },
    /// Table 1 ablation "Fixed aggregation": 48 uniform blocks of
    /// `block` packets (paper: 21, i.e. 1008-packet windows).
    Fixed { block: usize },
    /// Table 1 ablation "No aggregation": the 48 most recent packets,
    /// unaggregated.
    None,
}

impl Aggregation {
    /// The paper's configuration: 1024 packets -> 48 slots.
    pub fn paper_multiscale() -> Self {
        Aggregation::MultiScale { block: 21 }
    }

    /// The paper's fixed-aggregation ablation: 1008 packets -> 48 slots.
    pub fn paper_fixed() -> Self {
        Aggregation::Fixed { block: 21 }
    }

    /// The window's zones, oldest packets first, as `(slots, packets
    /// per slot)` — the one description of the geometry that
    /// [`Aggregation::seq_len`], the model's factored front end and its
    /// folded form all read. Padded with empty zones to a fixed three.
    pub(crate) fn zones(&self) -> [(usize, usize); 3] {
        match *self {
            // aggregated twice (block, then pairs) | once | raw
            Aggregation::MultiScale { block } => [
                (ZONE_SLOTS, 2 * block),
                (ZONE_SLOTS, block),
                (ZONE_SLOTS, 1),
            ],
            Aggregation::Fixed { block } => [(OUT_SLOTS, block), (0, 0), (0, 0)],
            Aggregation::None => [(OUT_SLOTS, 1), (0, 0), (0, 0)],
        }
    }

    /// Input window length in packets.
    pub fn seq_len(&self) -> usize {
        self.zones().iter().map(|&(slots, pkts)| slots * pkts).sum()
    }

    /// Encoder input length (always 48 — that is the point).
    pub fn out_slots(&self) -> usize {
        OUT_SLOTS
    }
}

/// Full model configuration.
#[derive(Debug, Clone, Copy)]
pub struct NttConfig {
    pub aggregation: Aggregation,
    pub d_model: usize,
    pub n_heads: usize,
    pub n_layers: usize,
    pub d_ff: usize,
    pub dropout: f32,
    /// Feature ablations (Table 1 "without packet size"/"without delay").
    pub features: FeatureMask,
    pub seed: u64,
}

impl Default for NttConfig {
    fn default() -> Self {
        NttConfig {
            aggregation: Aggregation::paper_multiscale(),
            d_model: 64,
            n_heads: 4,
            n_layers: 2,
            d_ff: 128,
            dropout: 0.0,
            features: FeatureMask::all(),
            seed: 0,
        }
    }
}

impl NttConfig {
    /// Input window length implied by the aggregation mode.
    pub fn seq_len(&self) -> usize {
        self.aggregation.seq_len()
    }

    /// A reduced-scale config (block 5 -> 256-packet windows) for tests
    /// and quick experiment modes; same architecture shape as the paper.
    pub fn reduced(seed: u64) -> Self {
        NttConfig {
            aggregation: Aggregation::MultiScale { block: 5 },
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            d_ff: 64,
            seed,
            ..NttConfig::default()
        }
    }

    /// Encoder stack configuration.
    pub fn encoder(&self) -> EncoderConfig {
        EncoderConfig {
            d_model: self.d_model,
            n_heads: self.n_heads,
            d_ff: self.d_ff,
            n_layers: self.n_layers,
            dropout: self.dropout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_multiscale_matches_section3() {
        let a = Aggregation::paper_multiscale();
        assert_eq!(a.seq_len(), 1024, "16 + 336 + 672");
        assert_eq!(a.out_slots(), 48);
    }

    #[test]
    fn paper_fixed_matches_table1_footnote() {
        let a = Aggregation::paper_fixed();
        assert_eq!(a.seq_len(), 1008, "48 aggregates of 21 packets");
        assert_eq!(a.out_slots(), 48);
    }

    #[test]
    fn no_aggregation_is_48_raw_packets() {
        assert_eq!(Aggregation::None.seq_len(), 48);
        assert_eq!(Aggregation::None.out_slots(), 48);
    }

    #[test]
    fn zone_accounting_always_adds_up() {
        for block in 1..32 {
            let a = Aggregation::MultiScale { block };
            let raw = ZONE_SLOTS;
            let mid = ZONE_SLOTS * block;
            let old = ZONE_SLOTS * block * 2;
            assert_eq!(a.seq_len(), raw + mid + old);
        }
    }

    #[test]
    fn default_config_is_paper_scale() {
        let c = NttConfig::default();
        assert_eq!(c.seq_len(), 1024);
        assert_eq!(c.d_model % c.n_heads, 0);
    }
}
