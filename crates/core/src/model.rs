//! The Network Traffic Transformer (Fig. 3).
//!
//! Three trunk stages — per-packet embedding, multi-timescale
//! aggregation, transformer encoder — producing a context-rich encoded
//! sequence, plus small replaceable task heads ("decoders" in the
//! paper's BERT-inspired terminology):
//! * [`DelayHead`] reads the final slot and predicts the masked delay of
//!   the most recent packet (pre-training task),
//! * [`MctHead`] pools the sequence, appends the message size, and
//!   predicts the log message completion time (fine-tuning task).

use crate::config::{Aggregation, NttConfig, OUT_SLOTS};
use ntt_data::NUM_FEATURES;
use ntt_nn::{Head, Linear, Mlp, Module, PositionalEncoding, TransformerEncoder};
use ntt_tensor::{Param, Tape, Tensor, Var};

/// The NTT trunk: embedding + aggregation + encoder.
pub struct Ntt {
    pub cfg: NttConfig,
    embedding: Linear,
    /// First-level aggregation (blocks of `block` packets). Shared by
    /// the middle zone (applied once) and the oldest zone (first of its
    /// two applications) — hierarchical reuse per §3.
    agg1: Option<Linear>,
    /// Second-level aggregation (pairs of level-1 aggregates).
    agg2: Option<Linear>,
    pos: PositionalEncoding,
    encoder: TransformerEncoder,
}

impl Ntt {
    pub fn new(cfg: NttConfig) -> Self {
        let d = cfg.d_model;
        let (agg1, agg2) = match cfg.aggregation {
            Aggregation::MultiScale { block } => (
                Some(Linear::new("ntt.agg1", block * d, d, cfg.seed ^ 0xa1)),
                Some(Linear::new("ntt.agg2", 2 * d, d, cfg.seed ^ 0xa2)),
            ),
            Aggregation::Fixed { block } => (
                Some(Linear::new("ntt.agg1", block * d, d, cfg.seed ^ 0xa1)),
                None,
            ),
            Aggregation::None => (None, None),
        };
        Ntt {
            embedding: Linear::new("ntt.embedding", NUM_FEATURES, d, cfg.seed ^ 0xe0),
            agg1,
            agg2,
            pos: PositionalEncoding::new(OUT_SLOTS, d),
            encoder: TransformerEncoder::new("ntt.encoder", &cfg.encoder(), cfg.seed),
            cfg,
        }
    }

    /// Encode a batch of packet windows:
    /// `[B, seq_len, NUM_FEATURES] -> [B, 48, d_model]`.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        self.encode(tape, self.front(tape, x))
    }

    /// The front end, `[B, seq_len, NUM_FEATURES] -> [B, 48, d_model]`:
    /// each zone's affine map built on `tape` from the live parameters
    /// ([`Ntt::zone_maps`]), then applied to that zone's raw packets.
    /// On a recording tape gradients reach the embedding and the shared
    /// `agg1`/`agg2` through the fold, and the `[B, seq_len, d_model]`
    /// embedded window never exists.
    fn front<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        zone_slots(self.cfg.aggregation, x, &self.zone_maps(tape))
    }

    /// Everything behind the front end: positional encoding, then the
    /// transformer encoder, `[B, 48, d_model] -> [B, 48, d_model]`.
    /// `forward` is `encode` of the front end; a serving engine calls it
    /// on the slots of a [`FoldedFront`].
    pub fn encode<'t>(&self, tape: &'t Tape, slots: Var<'t>) -> Var<'t> {
        let with_pos = self.pos.forward(tape, slots);
        self.encoder.forward(tape, with_pos)
    }

    /// Each zone's `(weight, bias)`, oldest first, as
    /// [`Aggregation::zones`]. Embedding, `agg1` and `agg2` are `Linear`
    /// layers with no activation between them, so each zone's slots are
    /// one affine map of that zone's raw packets:
    ///
    /// * recent zone — the embedding as it is;
    /// * middle zone — `W_mid[j·F + f, :] = W_e[f, :] · W_1[j·D..(j+1)·D, :]`,
    ///   `b_mid = b_1 + Σ_j b_e · W_1[j]`;
    /// * oldest zone — `W_old = [W_mid · W_2[0..D]; W_mid · W_2[D..2D]]`,
    ///   `b_old = b_2 + [b_mid, b_mid] · W_2`.
    ///
    /// With [`Aggregation::None`] there is nothing to fold and the map
    /// is the embedding's own parameters, so the front runs the
    /// embedding's op sequence, bit for bit.
    fn zone_maps<'t>(&self, tape: &'t Tape) -> Vec<(Var<'t>, Var<'t>)> {
        let embed = (
            tape.param(&self.embedding.weight),
            tape.param(&self.embedding.bias),
        );
        match (&self.agg1, &self.agg2) {
            (Some(agg1), Some(agg2)) => {
                let mid = fold(tape, embed, agg1);
                vec![fold(tape, mid, agg2), mid, embed]
            }
            (Some(agg1), None) => vec![fold(tape, embed, agg1)],
            _ => vec![embed],
        }
    }

    /// The front end's zone maps (`Ntt::zone_maps`) built once on an
    /// inference tape and kept, for a model that will no longer train:
    /// the same code and the same deterministic `gemm_nn` products as
    /// every training step, so the engine's front is bit-equal to
    /// [`Ntt::forward`]'s. The result is a snapshot: later updates to
    /// this model's parameters do not reach it.
    pub fn fold_front(&self) -> FoldedFront {
        let tape = Tape::inference();
        let maps = self
            .zone_maps(&tape)
            .into_iter()
            .map(|(w, b)| (w.value(), b.value()))
            .collect();
        FoldedFront {
            aggregation: self.cfg.aggregation,
            maps,
        }
    }

    /// No-op: the model has no train/eval mode. Kept only because the
    /// `e2e` benchmark package calls it.
    pub fn set_training(&self, _training: bool) {}

    /// A structurally identical model with the same parameter *values*
    /// (fresh storage). The pipeline fine-tunes clones so the shared
    /// pre-trained weights stay intact for the next fine-tuning.
    pub fn clone_weights(&self) -> Ntt {
        let fresh = Ntt::new(self.cfg);
        copy_params(self, &fresh);
        fresh
    }
}

/// Copy parameter values from `src` to `dst` positionally. Both modules
/// must have identical structure (params in the same stable order with
/// the same shapes) — guaranteed when both were built from the same
/// config/kind.
pub(crate) fn copy_params(src: &dyn Module, dst: &dyn Module) {
    let (s, d) = (src.params(), dst.params());
    assert_eq!(s.len(), d.len(), "param count mismatch in weight copy");
    for (a, b) in s.iter().zip(d.iter()) {
        assert_eq!(a.shape(), b.shape(), "shape mismatch for {}", a.name());
        b.set_value(a.value());
    }
}

/// Check a `[B, seq_len, NUM_FEATURES]` batch of windows against the
/// aggregation's geometry; returns `B`.
fn check_windows(x: Var<'_>, aggregation: Aggregation) -> usize {
    let shape = x.shape();
    assert_eq!(shape.len(), 3, "NTT expects [B, T, F]");
    let (b, t, f) = (shape[0], shape[1], shape[2]);
    assert_eq!(f, NUM_FEATURES, "feature count mismatch");
    assert_eq!(
        t,
        aggregation.seq_len(),
        "window length {t} does not match aggregation {aggregation:?}"
    );
    b
}

/// `inner` (`[K, D]` weight, `[D]` bias) applied to each of the `n`
/// blocks that `outer` (`[n·D, D]`) concatenates, then `outer` itself,
/// as one `[n·K, D]` weight and `[D]` bias, recorded on `tape`. Per
/// block `j`, the homogeneous `[W_in; b_in]` (`[K+1, D]`) times
/// `W_out[j·D..(j+1)·D]` gives block `j` of the weight in its first `K`
/// rows and block `j`'s bias term in its last, added into `b_out` in
/// ascending `j`.
fn fold<'t>(tape: &'t Tape, inner: (Var<'t>, Var<'t>), outer: &Linear) -> (Var<'t>, Var<'t>) {
    let (w_in, b_in) = inner;
    let (k, d) = (w_in.shape()[0], w_in.shape()[1]);
    let n = outer.in_features() / d;
    let homogeneous = Var::concat_axis1(&[w_in.reshape(&[1, k, d]), b_in.reshape(&[1, 1, d])])
        .reshape(&[k + 1, d]);
    let w_out = tape.param(&outer.weight).reshape(&[1, n * d, d]);
    let mut bias = tape.param(&outer.bias);
    let blocks: Vec<Var<'t>> = (0..n)
        .map(|j| {
            let block = w_out.slice_axis1(j * d, d).reshape(&[d, d]);
            let rows = homogeneous.matmul(block).reshape(&[1, k + 1, d]);
            bias = bias.add(rows.slice_axis1(k, 1).reshape(&[d]));
            rows.slice_axis1(0, k)
        })
        .collect();
    (Var::concat_axis1(&blocks).reshape(&[n * k, d]), bias)
}

/// The front end's one zone loop, `[B, seq_len, NUM_FEATURES] ->
/// [B, 48, d_model]`, over `maps` (`(weight, bias)` per zone, oldest
/// first): per zone, slice → reshape to one row per slot → one product
/// plus bias; then concat. A zone that is the whole window is not
/// sliced, one packet per slot is not reshaped.
fn zone_slots<'t>(aggregation: Aggregation, x: Var<'t>, maps: &[(Var<'t>, Var<'t>)]) -> Var<'t> {
    let b = check_windows(x, aggregation);
    let whole = maps.len() == 1;
    let mut start = 0;
    let slots: Vec<Var<'t>> = aggregation
        .zones()
        .iter()
        .zip(maps)
        .map(|(&(slots, pkts), &(weight, bias))| {
            let len = slots * pkts;
            let mut rows = if whole { x } else { x.slice_axis1(start, len) };
            start += len;
            if pkts > 1 {
                rows = rows.reshape(&[b, slots, pkts * NUM_FEATURES]);
            }
            rows.matmul(weight).add(bias)
        })
        .collect();
    let slots = match slots[..] {
        [only] => only,
        _ => Var::concat_axis1(&slots),
    };
    debug_assert_eq!(slots.shape()[1], OUT_SLOTS);
    slots
}

/// The front end of a frozen [`Ntt`] with its zone maps built once
/// ([`Ntt::fold_front`]): one `[packets·F, D]` matrix and bias per zone,
/// staged as constants and run through the same zone loop as
/// [`Ntt::forward`]. Serving only — it holds plain tensors, not
/// parameters, and cannot train.
pub struct FoldedFront {
    aggregation: Aggregation,
    /// `(weight, bias)` per zone, oldest first, as [`Aggregation::zones`].
    maps: Vec<(Tensor, Tensor)>,
}

impl FoldedFront {
    /// `[B, seq_len, NUM_FEATURES] -> [B, 48, d_model]`, the slots
    /// [`Ntt::encode`] takes.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        let maps: Vec<_> = self
            .maps
            .iter()
            .map(|(w, b)| (tape.input_copy(w), tape.input_copy(b)))
            .collect();
        zone_slots(self.aggregation, x, &maps)
    }
}

impl Module for Ntt {
    fn params(&self) -> Vec<Param> {
        let mut p = self.embedding.params();
        if let Some(a) = &self.agg1 {
            p.extend(a.params());
        }
        if let Some(a) = &self.agg2 {
            p.extend(a.params());
        }
        p.extend(self.encoder.params());
        p
    }
}

/// Delay-prediction head: MLP on the final encoded slot (the masked
/// most-recent packet).
pub struct DelayHead {
    mlp: Mlp,
}

impl DelayHead {
    pub fn new(d_model: usize, seed: u64) -> Self {
        DelayHead {
            mlp: Mlp::new("delay_head", &[d_model, d_model, 1], seed ^ 0xd3),
        }
    }

    /// `[B, 48, D] -> [B, 1]` (normalized delay).
    pub fn forward<'t>(&self, tape: &'t Tape, encoded: Var<'t>) -> Var<'t> {
        let last = encoded.shape()[1] - 1;
        self.mlp.forward(tape, encoded.select_axis1(last))
    }
}

impl Module for DelayHead {
    fn params(&self) -> Vec<Param> {
        self.mlp.params()
    }
}

impl Head for DelayHead {
    fn kind(&self) -> &'static str {
        "delay"
    }

    fn d_model(&self) -> usize {
        self.mlp.in_features()
    }

    fn forward_head<'t>(&self, tape: &'t Tape, encoded: Var<'t>, _aux: Option<Var<'t>>) -> Var<'t> {
        self.forward(tape, encoded)
    }
}

/// Message-completion-time head: MLP on (mean-pooled sequence ⊕ log
/// message size) — "a decoder with two inputs: the NTT outputs for the
/// past packets and the message size" (§4).
pub struct MctHead {
    mlp: Mlp,
}

impl MctHead {
    pub fn new(d_model: usize, seed: u64) -> Self {
        MctHead {
            mlp: Mlp::new("mct_head", &[d_model + 1, d_model, 1], seed ^ 0xd4),
        }
    }

    /// `([B, 48, D], [B, 1]) -> [B, 1]` (normalized log MCT).
    pub fn forward<'t>(&self, tape: &'t Tape, encoded: Var<'t>, msg_size: Var<'t>) -> Var<'t> {
        let pooled = encoded.mean_axis1();
        self.mlp.forward(tape, pooled.concat_last(msg_size))
    }
}

impl Module for MctHead {
    fn params(&self) -> Vec<Param> {
        self.mlp.params()
    }
}

impl Head for MctHead {
    fn kind(&self) -> &'static str {
        "mct"
    }

    fn d_model(&self) -> usize {
        self.mlp.in_features() - 1 // the aux channel is appended
    }

    fn needs_aux(&self) -> bool {
        true
    }

    fn forward_head<'t>(&self, tape: &'t Tape, encoded: Var<'t>, aux: Option<Var<'t>>) -> Var<'t> {
        self.forward(
            tape,
            encoded,
            aux.expect("MCT head needs the message size input"),
        )
    }
}

/// Drop-count head: MLP on the mean-pooled sequence predicting the
/// number of retransmitted (≈ dropped upstream) packets in the window —
/// the §5 telemetry task, and the proof that a new head is a few dozen
/// lines against the [`Head`]/[`ntt_data::TaskDataset`] traits with no
/// engine changes.
pub struct DropHead {
    mlp: Mlp,
}

impl DropHead {
    pub fn new(d_model: usize, seed: u64) -> Self {
        DropHead {
            mlp: Mlp::new("drop_head", &[d_model, d_model, 1], seed ^ 0xd5),
        }
    }

    /// `[B, 48, D] -> [B, 1]` (normalized drop count).
    pub fn forward<'t>(&self, tape: &'t Tape, encoded: Var<'t>) -> Var<'t> {
        self.mlp.forward(tape, encoded.mean_axis1())
    }
}

impl Module for DropHead {
    fn params(&self) -> Vec<Param> {
        self.mlp.params()
    }
}

impl Head for DropHead {
    fn kind(&self) -> &'static str {
        "drop"
    }

    fn d_model(&self) -> usize {
        self.mlp.in_features()
    }

    fn forward_head<'t>(&self, tape: &'t Tape, encoded: Var<'t>, _aux: Option<Var<'t>>) -> Var<'t> {
        self.forward(tape, encoded)
    }
}

/// Build a fresh head of the given `kind` — the registry the
/// self-describing checkpoint loader uses to reconstruct heads from
/// their descriptors. Weights are overwritten right after construction,
/// so the init seed is immaterial; it is fixed for reproducibility.
pub fn build_head(kind: &str, d_model: usize) -> Option<Box<dyn Head>> {
    match kind {
        "delay" => Some(Box::new(DelayHead::new(d_model, 0))),
        "mct" => Some(Box::new(MctHead::new(d_model, 0))),
        "drop" => Some(Box::new(DropHead::new(d_model, 0))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(aggregation: Aggregation) -> NttConfig {
        NttConfig {
            aggregation,
            d_model: 16,
            n_heads: 4,
            n_layers: 1,
            d_ff: 32,
            seed: 3,
            ..NttConfig::default()
        }
    }

    #[test]
    fn forward_shapes_all_aggregations() {
        for agg in [
            Aggregation::MultiScale { block: 3 },
            Aggregation::Fixed { block: 3 },
            Aggregation::None,
        ] {
            let cfg = tiny_cfg(agg);
            let ntt = Ntt::new(cfg);
            let tape = Tape::new();
            let x = tape.input(Tensor::randn(&[2, cfg.seq_len(), NUM_FEATURES], 1));
            let out = ntt.forward(&tape, x);
            assert_eq!(out.shape(), vec![2, OUT_SLOTS, 16], "agg {agg:?}");
        }
    }

    #[test]
    fn heads_produce_scalars() {
        let cfg = tiny_cfg(Aggregation::None);
        let ntt = Ntt::new(cfg);
        let delay = DelayHead::new(16, 0);
        let mct = MctHead::new(16, 0);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[3, 48, NUM_FEATURES], 2));
        let enc = ntt.forward(&tape, x);
        assert_eq!(delay.forward(&tape, enc).shape(), vec![3, 1]);
        let sizes = tape.input(Tensor::randn(&[3, 1], 3));
        assert_eq!(mct.forward(&tape, enc, sizes).shape(), vec![3, 1]);
    }

    #[test]
    fn head_trait_descriptors_and_registry_agree() {
        let delay = DelayHead::new(16, 0);
        let mct = MctHead::new(16, 0);
        let drop = DropHead::new(16, 0);
        for (h, kind, needs_aux) in [
            (&delay as &dyn Head, "delay", false),
            (&mct, "mct", true),
            (&drop, "drop", false),
        ] {
            assert_eq!(h.kind(), kind);
            assert_eq!(h.d_model(), 16, "{kind}: d_model");
            assert_eq!(h.needs_aux(), needs_aux, "{kind}: needs_aux");
            let rebuilt = build_head(kind, 16).expect("registry knows its own kinds");
            assert_eq!(rebuilt.kind(), kind);
            assert_eq!(
                rebuilt.params().len(),
                h.params().len(),
                "{kind}: registry rebuild must be structurally identical"
            );
        }
        assert!(build_head("nope", 16).is_none());
    }

    #[test]
    fn head_trait_forward_matches_inherent_forward() {
        let cfg = tiny_cfg(Aggregation::None);
        let ntt = Ntt::new(cfg);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[2, 48, NUM_FEATURES], 5));
        let enc = ntt.forward(&tape, x);
        let delay = DelayHead::new(16, 1);
        assert_eq!(
            delay.forward(&tape, enc).value(),
            delay.forward_head(&tape, enc, None).value()
        );
        let drop = DropHead::new(16, 1);
        assert_eq!(
            drop.forward(&tape, enc).value(),
            drop.forward_head(&tape, enc, None).value()
        );
        let mct = MctHead::new(16, 1);
        let sizes = tape.input(Tensor::randn(&[2, 1], 6));
        assert_eq!(
            mct.forward(&tape, enc, sizes).value(),
            mct.forward_head(&tape, enc, Some(sizes)).value()
        );
    }

    #[test]
    fn clone_weights_copies_values_into_fresh_storage() {
        let cfg = tiny_cfg(Aggregation::MultiScale { block: 2 });
        let a = Ntt::new(cfg);
        let b = a.clone_weights();
        for (x, y) in a.params().iter().zip(b.params().iter()) {
            assert_eq!(x.value(), y.value(), "param {}", x.name());
        }
        // Fresh storage: mutating the clone leaves the original alone.
        let p = &b.params()[0];
        p.set_value(Tensor::zeros(&p.shape()));
        assert_ne!(a.params()[0].value(), b.params()[0].value());
    }

    #[test]
    #[should_panic(expected = "needs the message size")]
    fn mct_head_rejects_missing_aux() {
        let cfg = tiny_cfg(Aggregation::None);
        let ntt = Ntt::new(cfg);
        let tape = Tape::new();
        let enc = ntt.forward(&tape, tape.input(Tensor::randn(&[1, 48, NUM_FEATURES], 7)));
        MctHead::new(16, 0).forward_head(&tape, enc, None);
    }

    #[test]
    fn multiscale_has_two_agg_layers_fixed_one_none_zero() {
        let count = |agg| {
            let ntt = Ntt::new(tiny_cfg(agg));
            ntt.params().len()
        };
        let base = count(Aggregation::None);
        let fixed = count(Aggregation::Fixed { block: 3 });
        let multi = count(Aggregation::MultiScale { block: 3 });
        assert_eq!(fixed, base + 2, "agg1 weight+bias");
        assert_eq!(multi, base + 4, "agg1 + agg2");
    }

    #[test]
    fn gradients_reach_trunk_and_heads() {
        let cfg = tiny_cfg(Aggregation::MultiScale { block: 2 });
        let ntt = Ntt::new(cfg);
        let head = DelayHead::new(16, 1);
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[2, cfg.seq_len(), NUM_FEATURES], 4));
        let pred = head.forward(&tape, ntt.forward(&tape, x));
        let loss = pred.mse_loss(&Tensor::zeros(&[2, 1]));
        let grads = tape.backward_params(loss);
        for p in ntt.params().iter().chain(head.params().iter()) {
            assert!(
                grads.get(p).is_some_and(|g| g.norm() > 0.0),
                "no gradient for {}",
                p.name()
            );
        }
    }

    #[test]
    fn recent_packets_influence_output_more_directly() {
        // Changing the most recent packet must change the delay head
        // input slot; the architecture keeps recent packets raw.
        let cfg = tiny_cfg(Aggregation::MultiScale { block: 2 });
        let ntt = Ntt::new(cfg);
        let t = cfg.seq_len();
        let base = Tensor::randn(&[1, t, NUM_FEATURES], 5);
        let mut bumped = base.clone();
        for f in 0..NUM_FEATURES {
            let v = bumped.at(&[0, t - 1, f]);
            bumped.set(&[0, t - 1, f], v + 1.0);
        }
        let tape = Tape::new();
        let a = ntt.forward(&tape, tape.input(base)).value();
        let b = ntt.forward(&tape, tape.input(bumped)).value();
        assert!(!a.allclose(&b, 1e-6), "recent packet change must matter");
    }

    /// A tiny model of the given aggregation with every bias random
    /// (they initialize to zero, which would hide the folded bias terms).
    fn biased(aggregation: Aggregation) -> Ntt {
        let ntt = Ntt::new(tiny_cfg(aggregation));
        for (i, p) in ntt.params().iter().enumerate() {
            if p.name().ends_with(".bias") {
                p.set_value(Tensor::randn(&p.shape(), 100 + i as u64));
            }
        }
        ntt
    }

    #[test]
    fn folded_front_matches_the_factored_one() {
        for block in [1, 2, 5, 21] {
            for agg in [
                Aggregation::MultiScale { block },
                Aggregation::Fixed { block },
                Aggregation::None,
            ] {
                let ntt = biased(agg);
                let folded = ntt.fold_front();
                for batch in [1, 3] {
                    let x = Tensor::randn(&[batch, agg.seq_len(), NUM_FEATURES], block as u64);
                    let served = Tape::inference();
                    let want = folded.forward(&served, served.input(x.clone())).value();
                    assert_eq!(want.shape(), [batch, OUT_SLOTS, 16]);
                    // The training front, on both tape kinds: the same
                    // map-building code and zone loop, the same bits.
                    for tape in [Tape::new(), Tape::inference()] {
                        let got = ntt.front(&tape, tape.input(x.clone())).value();
                        assert_eq!(got, want, "{agg:?} batch {batch}");
                    }
                    if agg == Aggregation::None {
                        // Nothing to fold: the embedding's own ops.
                        let tape = Tape::new();
                        let e = ntt.embedding.forward(&tape, tape.input(x)).value();
                        assert_eq!(e, want);
                    }
                }
            }
        }
    }

    #[test]
    fn front_gradients_match_finite_differences() {
        use ntt_tensor::grad_check::check_param_grad;
        for agg in [
            Aggregation::MultiScale { block: 2 },
            Aggregation::Fixed { block: 3 },
        ] {
            let ntt = biased(agg);
            let x = Tensor::randn(&[2, agg.seq_len(), NUM_FEATURES], 11).map(|v| v * 0.5);
            let target = Tensor::randn(&[2, OUT_SLOTS, 16], 12);
            let layers = [Some(&ntt.embedding), ntt.agg1.as_ref(), ntt.agg2.as_ref()];
            for p in layers
                .into_iter()
                .flatten()
                .flat_map(|l| [&l.weight, &l.bias])
            {
                let report = check_param_grad(p, 1e-2, |tape| {
                    ntt.forward(tape, tape.input(x.clone())).mse_loss(&target)
                });
                assert!(
                    report.passes(2e-2),
                    "{agg:?}: gradient check failed for {}: {report:?}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn training_step_never_allocates_the_embedded_window() {
        // A recording-tape forward + backward of a multi-scale model
        // must retire no [B, seq_len, d_model]-sized buffer into the
        // arena: the front folds before it touches a packet (B chosen
        // so that length collides with no encoder or zone shape).
        let agg = Aggregation::MultiScale { block: 2 };
        let (b, t, d) = (3, agg.seq_len(), 16);
        let ntt = biased(agg);
        let head = DelayHead::new(d, 1);
        let x = Tensor::randn(&[b, t, NUM_FEATURES], 13);
        let mut tape = Tape::new();
        let pred = head.forward(&tape, ntt.forward(&tape, tape.input(x)));
        let grads = tape.backward_params(pred.mse_loss(&Tensor::zeros(&[b, 1])));
        assert_eq!(grads.len(), ntt.params().len() + head.params().len());
        tape.reset(0);
        let lens: Vec<usize> = tape
            .arena_bucket_lens()
            .iter()
            .map(|&(len, _)| len)
            .collect();
        assert!(
            !lens.contains(&(b * t * d)),
            "a training step retired a [B, seq_len, d_model] buffer: {lens:?}"
        );
        // Sanity: the run did retire slot-sized buffers.
        assert!(lens.contains(&(b * OUT_SLOTS * d)), "{lens:?}");
    }

    #[test]
    fn folding_twice_gives_the_same_bits() {
        let ntt = biased(Aggregation::MultiScale { block: 5 });
        let (a, b) = (ntt.fold_front(), ntt.fold_front());
        assert_eq!(a.maps.len(), 3);
        assert_eq!(a.maps, b.maps);
        // One row per packet feature of a slot, oldest zone first.
        let rows: Vec<usize> = a.maps.iter().map(|(w, _)| w.shape()[0]).collect();
        assert_eq!(rows, [10 * NUM_FEATURES, 5 * NUM_FEATURES, NUM_FEATURES]);
    }

    #[test]
    #[should_panic(expected = "does not match aggregation")]
    fn folded_front_rejects_wrong_window_length() {
        let ntt = Ntt::new(tiny_cfg(Aggregation::Fixed { block: 3 }));
        let tape = Tape::inference();
        let x = tape.input(Tensor::zeros(&[1, 47, NUM_FEATURES]));
        ntt.fold_front().forward(&tape, x);
    }

    #[test]
    #[should_panic(expected = "does not match aggregation")]
    fn rejects_wrong_window_length() {
        let cfg = tiny_cfg(Aggregation::MultiScale { block: 3 });
        let ntt = Ntt::new(cfg);
        let tape = Tape::new();
        let x = tape.input(Tensor::zeros(&[1, 47, NUM_FEATURES]));
        ntt.forward(&tape, x);
    }
}
