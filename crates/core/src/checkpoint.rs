//! Binary checkpointing: self-describing model sharing.
//!
//! The vision of Fig. 1 is *sharing pre-trained models* instead of
//! data, so the serialization format is part of the system. Version 2
//! (`NTTCKPT2`) makes checkpoints **self-describing**: the file embeds
//! the [`NttConfig`], descriptors of every attached head, the feature
//! normalizer the model was trained with, and free-form provenance
//! metadata (scenario grid, seeds, train steps) — so
//! [`Checkpoint::load`] reconstructs a runnable `(Ntt, heads)` from the
//! file alone, with no caller-side pre-building. A trailing FNV-1a
//! checksum detects corruption. (No serde: the workspace builds
//! offline against no external format crate, so the layout below is
//! written and read by hand.)
//!
//! ```text
//! magic  b"NTTCKPT2"
//! config: u8 aggregation tag, u32 block, u32 d_model, u32 n_heads,
//!         u32 n_layers, u32 d_ff, f32 dropout (always 0), u8
//!         feature-mask bits, u64 seed
//! heads:  u8 count, then per head: (u16 len + kind, u32 d_model)
//! norm:   u8 present, then u32 channels, f32 means..., f32 stds...
//! meta:   u16 count, then per entry: (u16 len + key, u16 len + value)
//! params: u32 count, then per param:
//!   u16      name length, then name (UTF-8)
//!   u8       rank, then u32 dims...
//!   f32...   row-major data
//! u64    FNV-1a-64 checksum of everything after the magic
//! ```
//!
//! The reader parses from memory with bounds checks: truncated files,
//! wrong magics, corrupted sizes, duplicate names, checksum mismatches,
//! a config the model cannot be built from (a nonzero dropout, a head
//! whose width is not the trunk's `d_model`) and a normalizer
//! that cannot scale the model's features (a channel count other than
//! `NUM_FEATURES`, a non-finite mean, a std that is not finite and
//! positive) return typed [`io::Error`]s — never panic, never
//! over-allocate beyond the file size.

use crate::config::{Aggregation, NttConfig};
use crate::model::{build_head, Ntt};
use ntt_data::{FeatureMask, Normalizer, NUM_FEATURES};
use ntt_nn::{Head, Module};
use ntt_tensor::Tensor;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

const MAGIC_V2: &[u8; 8] = b"NTTCKPT2";

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn bad_input(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.into())
}

/// Why a normalizer with these statistics cannot scale the model's
/// input features, if it cannot: it needs one channel per feature,
/// finite means and finite positive stds.
fn norm_problem(means: &[f32], stds: &[f32]) -> Option<String> {
    if means.len() != NUM_FEATURES {
        return Some(format!(
            "normalizer has {} channels, the model reads {NUM_FEATURES} features",
            means.len()
        ));
    }
    if let Some(m) = means.iter().find(|m| !m.is_finite()) {
        return Some(format!("normalizer mean {m} is not finite"));
    }
    if let Some(s) = stds.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
        return Some(format!("normalizer std {s} is not finite and positive"));
    }
    None
}

fn head_width_problem(kind: &str, head: usize, trunk: usize) -> String {
    format!("head {kind:?} is {head} wide but the trunk's d_model is {trunk}")
}

/// FNV-1a 64-bit content checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Bounds-checked in-memory reader / writer primitives.

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(bad_data(format!(
                "truncated checkpoint: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// u16-length-prefixed UTF-8 string.
    fn string(&mut self) -> io::Result<String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| bad_data(e.to_string()))
    }

    /// `n` little-endian f32s, length-checked up front.
    fn f32s(&mut self, n: usize) -> io::Result<Vec<f32>> {
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| bad_data("f32 run length overflows"))?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

fn push_string(out: &mut Vec<u8>, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    if bytes.len() > u16::MAX as usize {
        let head: String = s.chars().take(32).collect();
        return Err(bad_input(format!("string too long: {head:?}...")));
    }
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
    Ok(())
}

// ---------------------------------------------------------------------
// The params section.

fn write_params(out: &mut Vec<u8>, params: &[(String, Tensor)]) -> io::Result<()> {
    {
        let mut seen = BTreeMap::new();
        for (name, _) in params {
            if seen.insert(name.clone(), ()).is_some() {
                return Err(bad_input(format!("duplicate parameter name {name:?}")));
            }
        }
    }
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for (name, value) in params {
        push_string(out, name)?;
        let shape = value.shape();
        if shape.len() > u8::MAX as usize {
            return Err(bad_input(format!("rank too large for {name:?}")));
        }
        out.push(shape.len() as u8);
        for &d in shape {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for v in value.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(())
}

fn read_params(r: &mut Reader) -> io::Result<Vec<(String, Tensor)>> {
    let count = r.u32()? as usize;
    let mut out: Vec<(String, Tensor)> = Vec::new();
    let mut seen = BTreeMap::new();
    for _ in 0..count {
        let name = r.string()?;
        if seen.insert(name.clone(), ()).is_some() {
            return Err(bad_data(format!("duplicate parameter name {name:?}")));
        }
        let rank = r.u8()? as usize;
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(r.u32()? as usize);
        }
        let n = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| bad_data(format!("shape of {name:?} overflows: {shape:?}")))?;
        // f32s() bounds the element count by the bytes actually present,
        // so a corrupt huge dim fails cleanly instead of allocating.
        let data = r.f32s(n)?;
        out.push((name, Tensor::from_vec(data, &shape)));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Config / normalizer codecs.

fn write_config(out: &mut Vec<u8>, cfg: &NttConfig) {
    let (tag, block) = match cfg.aggregation {
        Aggregation::MultiScale { block } => (0u8, block as u32),
        Aggregation::Fixed { block } => (1, block as u32),
        Aggregation::None => (2, 0),
    };
    out.push(tag);
    out.extend_from_slice(&block.to_le_bytes());
    for v in [cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.d_ff] {
        out.extend_from_slice(&(v as u32).to_le_bytes());
    }
    // The dropout slot: the model has no dropout, so it is always 0.
    out.extend_from_slice(&0.0f32.to_le_bytes());
    let m = &cfg.features;
    let bits =
        (m.time as u8) | (m.size as u8) << 1 | (m.receiver as u8) << 2 | (m.delay as u8) << 3;
    out.push(bits);
    out.extend_from_slice(&cfg.seed.to_le_bytes());
}

fn read_config(r: &mut Reader) -> io::Result<NttConfig> {
    let tag = r.u8()?;
    let block = r.u32()? as usize;
    let aggregation = match tag {
        0 => Aggregation::MultiScale { block },
        1 => Aggregation::Fixed { block },
        2 => Aggregation::None,
        other => return Err(bad_data(format!("unknown aggregation tag {other}"))),
    };
    if matches!(tag, 0 | 1) && block == 0 {
        return Err(bad_data("aggregation block of 0"));
    }
    let d_model = r.u32()? as usize;
    let n_heads = r.u32()? as usize;
    let n_layers = r.u32()? as usize;
    let d_ff = r.u32()? as usize;
    let dropout = r.f32()?;
    let bits = r.u8()?;
    let features = FeatureMask {
        time: bits & 1 != 0,
        size: bits & 2 != 0,
        receiver: bits & 4 != 0,
        delay: bits & 8 != 0,
    };
    let seed = r.u64()?;
    if d_model == 0
        || n_heads == 0
        || n_layers == 0
        || d_ff == 0
        || !d_model.is_multiple_of(n_heads)
    {
        return Err(bad_data(format!(
            "implausible model dimensions: d_model {d_model}, n_heads {n_heads}, n_layers {n_layers}, d_ff {d_ff}"
        )));
    }
    if dropout != 0.0 {
        return Err(bad_data(format!(
            "dropout {dropout}: the model has no dropout, the slot must be 0"
        )));
    }
    Ok(NttConfig {
        aggregation,
        d_model,
        n_heads,
        n_layers,
        d_ff,
        features,
        seed,
    })
}

// ---------------------------------------------------------------------
// The checkpoint object.

/// Descriptor of one head stored in a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadSpec {
    /// Stable kind ([`Head::kind`]), resolved through
    /// [`crate::model::build_head`] on load.
    pub kind: String,
    /// Encoder width the head was built for.
    pub d_model: usize,
}

/// A parsed (or to-be-written) self-describing checkpoint: format
/// version 2. This is the raw file content; [`Checkpoint::restore`] /
/// [`Checkpoint::load`] turn it into a runnable model.
pub struct Checkpoint {
    pub config: NttConfig,
    pub heads: Vec<HeadSpec>,
    /// Feature normalizer the model was trained with — sharing a model
    /// is only useful if the receiver scales inputs the same way.
    pub norm: Option<Normalizer>,
    /// Free-form provenance metadata (scenario grid, seeds, train
    /// steps, ...), preserved in insertion order.
    pub provenance: Vec<(String, String)>,
    /// Parameter tensors in capture order.
    pub params: Vec<(String, Tensor)>,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("config", &self.config)
            .field("heads", &self.heads)
            .field("norm_channels", &self.norm.as_ref().map(|n| n.channels()))
            .field("provenance", &self.provenance)
            .field("params", &self.params.len())
            .finish()
    }
}

/// A model reconstructed from a checkpoint file alone.
pub struct LoadedModel {
    pub model: Ntt,
    pub heads: Vec<Box<dyn Head>>,
    pub norm: Option<Normalizer>,
    pub provenance: Vec<(String, String)>,
}

impl std::fmt::Debug for LoadedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kinds: Vec<&str> = self.heads.iter().map(|h| h.kind()).collect();
        f.debug_struct("LoadedModel")
            .field("config", &self.model.cfg)
            .field("heads", &kinds)
            .field("norm_channels", &self.norm.as_ref().map(|n| n.channels()))
            .field("provenance", &self.provenance)
            .finish()
    }
}

impl LoadedModel {
    /// The first head of the given kind, if present.
    pub fn head(&self, kind: &str) -> Option<&dyn Head> {
        self.heads
            .iter()
            .find(|h| h.kind() == kind)
            .map(|h| h.as_ref())
    }
}

impl Checkpoint {
    /// Snapshot a model + heads (+ normalizer, + provenance) into a
    /// checkpoint object ready to [`save`](Checkpoint::save). A
    /// normalizer that cannot scale the model's features, or a head
    /// built for another encoder width, is an `InvalidInput` error.
    pub fn capture(
        model: &Ntt,
        heads: &[&dyn Head],
        norm: Option<Normalizer>,
        provenance: Vec<(String, String)>,
    ) -> io::Result<Checkpoint> {
        if let Some(msg) = norm
            .as_ref()
            .and_then(|n| norm_problem(n.means(), n.stds()))
        {
            return Err(bad_input(msg));
        }
        let mut modules: Vec<&dyn Module> = vec![model];
        let mut specs = Vec::with_capacity(heads.len());
        for h in heads {
            if h.d_model() != model.cfg.d_model {
                return Err(bad_input(head_width_problem(
                    h.kind(),
                    h.d_model(),
                    model.cfg.d_model,
                )));
            }
            specs.push(HeadSpec {
                kind: h.kind().to_string(),
                d_model: h.d_model(),
            });
            modules.push(*h as &dyn Module);
        }
        let params: Vec<(String, Tensor)> = modules
            .iter()
            .flat_map(|m| m.params())
            .map(|p| (p.name(), p.value()))
            .collect();
        {
            let mut seen = BTreeMap::new();
            for (name, _) in &params {
                if seen.insert(name.clone(), ()).is_some() {
                    return Err(bad_input(format!(
                        "duplicate parameter name {name:?} (two heads of the same kind?)"
                    )));
                }
            }
        }
        Ok(Checkpoint {
            config: model.cfg,
            heads: specs,
            norm,
            provenance,
            params,
        })
    }

    /// Serialize to `path` in the `NTTCKPT2` format.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut body = Vec::new();
        write_config(&mut body, &self.config);
        if self.heads.len() > u8::MAX as usize {
            return Err(bad_input("too many heads"));
        }
        body.push(self.heads.len() as u8);
        for spec in &self.heads {
            push_string(&mut body, &spec.kind)?;
            body.extend_from_slice(&(spec.d_model as u32).to_le_bytes());
        }
        match &self.norm {
            None => body.push(0),
            Some(n) => {
                body.push(1);
                body.extend_from_slice(&(n.channels() as u32).to_le_bytes());
                for v in n.means().iter().chain(n.stds()) {
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        if self.provenance.len() > u16::MAX as usize {
            return Err(bad_input("too many provenance entries"));
        }
        body.extend_from_slice(&(self.provenance.len() as u16).to_le_bytes());
        for (k, v) in &self.provenance {
            push_string(&mut body, k)?;
            push_string(&mut body, v)?;
        }
        write_params(&mut body, &self.params)?;
        body.extend_from_slice(&fnv1a(&body).to_le_bytes());

        let mut file = Vec::with_capacity(8 + body.len());
        file.extend_from_slice(MAGIC_V2);
        file.extend_from_slice(&body);
        std::fs::write(path, file)
    }

    /// Parse a `NTTCKPT2` file without instantiating the model.
    ///
    /// This is the chokepoint every load funnels through
    /// ([`Checkpoint::load`], `Pretrained::load`, the serving
    /// registry), so it carries the `core.checkpoint.read` chaos site:
    /// a seeded plan can corrupt or truncate the bytes between disk and
    /// parser, proving the checksum/underrun validation catches damage
    /// and that callers holding a live model keep it on failure. One
    /// relaxed load when chaos is off.
    pub fn read(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
        let mut bytes = std::fs::read(path)?;
        ntt_chaos::mangle("core.checkpoint.read", &mut bytes);
        Self::parse(&bytes)
    }

    /// Parse `NTTCKPT2` bytes already in memory.
    fn parse(bytes: &[u8]) -> io::Result<Checkpoint> {
        if !bytes.starts_with(MAGIC_V2) {
            if bytes.starts_with(b"NTTCKPT1") {
                return Err(bad_data(
                    "NTTCKPT1 file: v1 checkpoints carry no model config and \
                     are no longer read; re-save the model as NTTCKPT2",
                ));
            }
            return Err(bad_data("bad magic: not an NTT checkpoint"));
        }
        let body = &bytes[8..];
        if body.len() < 8 {
            return Err(bad_data("truncated checkpoint: missing checksum"));
        }
        let (payload, tail) = body.split_at(body.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        let actual = fnv1a(payload);
        if stored != actual {
            return Err(bad_data(format!(
                "checksum mismatch: stored {stored:#018x}, computed {actual:#018x} — corrupt file"
            )));
        }
        let mut r = Reader::new(payload);
        let config = read_config(&mut r)?;
        let n_heads = r.u8()? as usize;
        let mut heads = Vec::with_capacity(n_heads);
        for _ in 0..n_heads {
            let kind = r.string()?;
            let d_model = r.u32()? as usize;
            if d_model != config.d_model {
                return Err(bad_data(head_width_problem(&kind, d_model, config.d_model)));
            }
            heads.push(HeadSpec { kind, d_model });
        }
        let norm = match r.u8()? {
            0 => None,
            1 => {
                let channels = r.u32()? as usize;
                let means = r.f32s(channels)?;
                let stds = r.f32s(channels)?;
                if let Some(msg) = norm_problem(&means, &stds) {
                    return Err(bad_data(msg));
                }
                Some(Normalizer::from_stats(means, stds))
            }
            other => return Err(bad_data(format!("bad normalizer flag {other}"))),
        };
        let n_meta = r.u16()? as usize;
        let mut provenance = Vec::with_capacity(n_meta);
        for _ in 0..n_meta {
            let k = r.string()?;
            let v = r.string()?;
            provenance.push((k, v));
        }
        let params = read_params(&mut r)?;
        if r.remaining() != 0 {
            return Err(bad_data(format!(
                "{} trailing bytes after the params section",
                r.remaining()
            )));
        }
        Ok(Checkpoint {
            config,
            heads,
            norm,
            provenance,
            params,
        })
    }

    /// Instantiate the model and heads this checkpoint describes and
    /// fill in the stored weights. Every stored parameter must be
    /// consumed and every model/head parameter must be present.
    pub fn restore(&self) -> io::Result<LoadedModel> {
        let model = Ntt::new(self.config);
        let mut heads: Vec<Box<dyn Head>> = Vec::with_capacity(self.heads.len());
        for spec in &self.heads {
            let head = build_head(&spec.kind, spec.d_model).ok_or_else(|| {
                bad_data(format!(
                    "unknown head kind {:?}: not in the registry (see ntt_core::build_head)",
                    spec.kind
                ))
            })?;
            heads.push(head);
        }
        let mut stored: BTreeMap<&str, &Tensor> =
            self.params.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let mut fill = |m: &dyn Module| -> io::Result<()> {
            for p in m.params() {
                let name = p.name();
                let t = stored
                    .remove(name.as_str())
                    .ok_or_else(|| bad_data(format!("checkpoint missing parameter {name:?}")))?;
                if t.shape() != p.shape() {
                    return Err(bad_data(format!(
                        "shape mismatch for {name:?}: checkpoint {:?} vs model {:?}",
                        t.shape(),
                        p.shape()
                    )));
                }
                p.set_value(t.clone());
            }
            Ok(())
        };
        fill(&model)?;
        for h in &heads {
            fill(h.as_ref() as &dyn Module)?;
        }
        if !stored.is_empty() {
            let mut extra: Vec<&str> = stored.into_keys().collect();
            extra.sort_unstable();
            return Err(bad_data(format!(
                "checkpoint holds parameters the described model does not: {extra:?}"
            )));
        }
        Ok(LoadedModel {
            model,
            heads,
            norm: self.norm.clone(),
            provenance: self.provenance.clone(),
        })
    }

    /// One-call sharing: parse `path` and reconstruct the runnable
    /// `(Ntt, heads)` it describes — no caller-supplied config.
    pub fn load(path: impl AsRef<Path>) -> io::Result<LoadedModel> {
        Self::read(path)?.restore()
    }

    /// Provenance value for `key`, if recorded.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.provenance
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Aggregation, NttConfig};
    use crate::model::{DelayHead, MctHead, Ntt};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ntt_ckpt_test_{name}_{}", std::process::id()))
    }

    fn tiny_cfg(seed: u64) -> NttConfig {
        NttConfig {
            aggregation: Aggregation::MultiScale { block: 1 },
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            seed,
            ..NttConfig::default()
        }
    }

    #[test]
    fn v2_reconstructs_model_and_heads_from_the_file_alone() {
        let cfg = tiny_cfg(3);
        let model = Ntt::new(cfg);
        let delay = DelayHead::new(16, 3);
        let mct = MctHead::new(16, 3);
        let ckpt = Checkpoint::capture(
            &model,
            &[&delay, &mct],
            None,
            vec![("scenario_grid".into(), "pretrain x1".into())],
        )
        .unwrap();
        let path = tmp("v2_roundtrip");
        ckpt.save(&path).unwrap();

        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.model.cfg.d_model, 16);
        assert_eq!(loaded.model.cfg.aggregation, cfg.aggregation);
        assert_eq!(loaded.heads.len(), 2);
        let kinds: Vec<&str> = loaded.heads.iter().map(|h| h.kind()).collect();
        assert_eq!(kinds, vec!["delay", "mct"]);
        for (a, b) in model.params().iter().zip(loaded.model.params().iter()) {
            assert_eq!(a.value(), b.value(), "trunk param {}", a.name());
        }
        for (orig, rebuilt) in [&delay as &dyn Head, &mct].iter().zip(loaded.heads.iter()) {
            for (a, b) in orig.params().iter().zip(rebuilt.params().iter()) {
                assert_eq!(a.value(), b.value(), "head param {}", a.name());
            }
        }
        assert_eq!(
            loaded.provenance,
            vec![("scenario_grid".to_string(), "pretrain x1".to_string())]
        );
        assert!(loaded.head("mct").is_some());
        assert!(loaded.head("nope").is_none());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn v2_embeds_and_restores_the_normalizer() {
        let model = Ntt::new(tiny_cfg(4));
        let norm = Normalizer::from_stats(vec![1.0, 2.0, 3.0, 4.0], vec![0.5, 1.5, 2.5, 3.5]);
        let ckpt = Checkpoint::capture(&model, &[], Some(norm.clone()), vec![]).unwrap();
        let path = tmp("v2_norm");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.norm, Some(norm));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_normalizer_that_cannot_scale_the_features_is_refused() {
        let model = Ntt::new(tiny_cfg(14));
        let ones = || vec![1.0; NUM_FEATURES];
        let bad = [
            Normalizer::identity(1),
            Normalizer::from_stats(vec![0.0; NUM_FEATURES], vec![0.0; NUM_FEATURES]),
            Normalizer::from_stats(vec![f32::NAN, 0.0, 0.0, 0.0], ones()),
            Normalizer::from_stats(vec![0.0, f32::INFINITY, 0.0, 0.0], ones()),
            Normalizer::from_stats(ones(), vec![1.0, f32::INFINITY, 1.0, 1.0]),
            Normalizer::from_stats(ones(), vec![1.0, 1.0, -1.0, f32::NAN]),
        ];
        let path = tmp("bad_norm");
        for norm in bad {
            let err = Checkpoint::capture(&model, &[], Some(norm.clone()), vec![]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{norm:?}");
            // The same statistics written past `capture` fail to load.
            let mut ckpt = Checkpoint::capture(&model, &[], None, vec![]).unwrap();
            ckpt.norm = Some(norm.clone());
            ckpt.save(&path).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{norm:?}");
            assert!(err.to_string().contains("normalizer"), "{err}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_checkpoint_the_model_cannot_be_built_from_is_refused() {
        // Each case edits a good checkpoint past `capture`, as a foreign
        // or hand-built file would; loading it must be a typed error,
        // never a panic in a layer constructor or the first forward.
        let model = Ntt::new(tiny_cfg(15));
        let narrow = DelayHead::new(8, 1);
        let err = Checkpoint::capture(&model, &[&narrow], None, vec![]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("d_model"), "{err}");

        // A head narrower than the trunk.
        let path = tmp("unbuildable");
        let mut ckpt = Checkpoint::capture(&model, &[], None, vec![]).unwrap();
        ckpt.heads.push(HeadSpec {
            kind: "delay".into(),
            d_model: 8,
        });
        ckpt.params
            .extend(narrow.params().iter().map(|p| (p.name(), p.value())));
        ckpt.save(&path).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("d_model"), "{err}");

        // A foreign file with a nonzero f32 in the dropout slot (after
        // magic, aggregation tag, block and four u32 dims), re-checksummed.
        Checkpoint::capture(&model, &[], None, vec![])
            .unwrap()
            .save(&path)
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let slot = 8 + 1 + 4 + 4 * 4;
        assert_eq!(bytes[slot..slot + 4], 0.0f32.to_le_bytes());
        bytes[slot..slot + 4].copy_from_slice(&0.1f32.to_le_bytes());
        let end = bytes.len() - 8;
        let sum = fnv1a(&bytes[8..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("dropout"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checksum_mismatch_is_a_typed_error() {
        let model = Ntt::new(tiny_cfg(5));
        let ckpt = Checkpoint::capture(&model, &[], None, vec![]).unwrap();
        let path = tmp("checksum");
        ckpt.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_files_error_at_every_cut() {
        let model = Ntt::new(tiny_cfg(6));
        let head = DelayHead::new(16, 6);
        let ckpt = Checkpoint::capture(&model, &[&head], None, vec![]).unwrap();
        let path = tmp("truncate");
        ckpt.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut at a spread of offsets, including mid-header and mid-data.
        for cut in [
            0,
            4,
            9,
            20,
            40,
            full.len() / 2,
            full.len() - 9,
            full.len() - 1,
        ] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let mut ckpt = Checkpoint::capture(&Ntt::new(tiny_cfg(11)), &[], None, vec![]).unwrap();
        ckpt.params[0].1 = Tensor::zeros(&[2, 2]);
        let err = ckpt.restore().unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
    }

    #[test]
    fn load_rejects_missing_param() {
        let mut ckpt = Checkpoint::capture(&Ntt::new(tiny_cfg(12)), &[], None, vec![]).unwrap();
        ckpt.params.remove(0);
        let err = ckpt.restore().unwrap_err();
        assert!(err.to_string().contains("missing parameter"), "{err}");
    }

    #[test]
    fn save_rejects_duplicate_names() {
        let mut ckpt = Checkpoint::capture(&Ntt::new(tiny_cfg(13)), &[], None, vec![]).unwrap();
        ckpt.params.push(ckpt.params[0].clone());
        let err = ckpt.save(tmp("dup")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn capture_rejects_two_heads_of_the_same_kind() {
        let model = Ntt::new(tiny_cfg(7));
        let a = DelayHead::new(16, 1);
        let b = DelayHead::new(16, 2);
        let err = Checkpoint::capture(&model, &[&a, &b], None, vec![]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("duplicate"));
    }

    /// A well-formed `NTTCKPT2` container (no heads, normalizer or
    /// provenance; valid checksum) around a hand-built params section,
    /// so hostile bytes get past the checksum and reach `read_params`.
    fn container_around(params_section: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        write_config(&mut body, &tiny_cfg(0));
        body.push(0); // heads
        body.push(0); // no normalizer
        body.extend_from_slice(&0u16.to_le_bytes()); // provenance entries
        body.extend_from_slice(params_section);
        body.extend_from_slice(&fnv1a(&body).to_le_bytes());
        [MAGIC_V2.as_slice(), &body].concat()
    }

    #[test]
    fn duplicate_names_in_a_file_are_rejected_on_read() {
        let mut params = 2u32.to_le_bytes().to_vec();
        for _ in 0..2 {
            params.extend_from_slice(&1u16.to_le_bytes());
            params.push(b'x');
            params.push(1); // rank
            params.extend_from_slice(&1u32.to_le_bytes());
            params.extend_from_slice(&1.0f32.to_le_bytes());
        }
        let err = Checkpoint::parse(&container_around(&params)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTACKPT....").unwrap();
        assert!(Checkpoint::load(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn huge_corrupt_dims_fail_without_allocating() {
        // A [u32::MAX, u32::MAX] tensor claimed over 4 bytes of data:
        // must error on bounds, not abort on allocation.
        let mut params = 1u32.to_le_bytes().to_vec();
        params.extend_from_slice(&1u16.to_le_bytes());
        params.push(b'w');
        params.push(2); // rank
        params.extend_from_slice(&u32::MAX.to_le_bytes());
        params.extend_from_slice(&u32::MAX.to_le_bytes());
        params.extend_from_slice(&0.0f32.to_le_bytes());
        let err = Checkpoint::parse(&container_around(&params)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn v1_files_are_refused_by_the_v2_loader_with_guidance() {
        let path = tmp("v1_guidance");
        std::fs::write(&path, b"NTTCKPT1\0\0\0\0").unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("NTTCKPT1"), "{err}");
        assert!(err.to_string().contains("NTTCKPT2"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_head_kind_is_a_typed_error() {
        // "drop" was a built-in head once; a file that still stores one
        // is refused like any other unregistered kind.
        for kind in ["quantile", "drop"] {
            let model = Ntt::new(tiny_cfg(9));
            let mut ckpt = Checkpoint::capture(&model, &[], None, vec![]).unwrap();
            ckpt.heads.push(HeadSpec {
                kind: kind.into(),
                d_model: 16,
            });
            let path = tmp(&format!("unknown_head_{kind}"));
            ckpt.save(&path).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            std::fs::remove_file(path).ok();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{kind}: {err}");
            assert!(
                err.to_string().contains("unknown head kind"),
                "{kind}: {err}"
            );
        }
    }

    #[test]
    fn restore_rejects_unclaimed_parameters() {
        let model = Ntt::new(tiny_cfg(10));
        let mut ckpt = Checkpoint::capture(&model, &[], None, vec![]).unwrap();
        ckpt.params
            .push(("stray".into(), ntt_tensor::Tensor::zeros(&[2])));
        let path = tmp("stray");
        ckpt.save(&path).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("stray"), "{err}");
        std::fs::remove_file(path).ok();
    }
}
