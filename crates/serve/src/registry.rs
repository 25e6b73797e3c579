//! Named, `Arc`-shared engines: the multi-model front door.
//!
//! A serving process typically holds several models at once (per
//! environment, per task mix, per rollout stage). The registry maps
//! names to immutable [`InferenceEngine`]s behind `Arc`s — loading a
//! checkpoint materializes the weights exactly once, and every session
//! or batcher that serves the model clones only the `Arc`.
//!
//! The map is a `BTreeMap` on purpose: listings (`names`) and any
//! future iteration over the registry come out in stable sorted order,
//! never in a hash order that varies per process.

use crate::engine::InferenceEngine;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// Thread-safe name → engine map (sorted, so enumeration is stable).
#[derive(Default)]
pub struct ModelRegistry {
    engines: RwLock<BTreeMap<String, Arc<InferenceEngine>>>,
}

impl ModelRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirror the current model count onto the `serve.registry.models`
    /// gauge (called under the write lock, so the gauge tracks every
    /// mutation in order).
    fn track_count(&self, n: usize) {
        ntt_obs::gauge!("serve.registry.models").set(n as f64);
    }

    /// Load an `NTTCKPT2` checkpoint under `name`. Replaces any engine
    /// previously registered under that name (in-flight requests on the
    /// old engine finish on their own `Arc`).
    ///
    /// **Atomic on failure — last-good retention.** The checkpoint is
    /// fully read, validated, and instantiated *before* the map is
    /// touched; a corrupt, truncated, or missing file returns the
    /// `io::Error` and leaves any engine already live under `name`
    /// serving untouched. A hot-swap that fails therefore degrades to
    /// "keep the last good model", never to "no model". Failed loads
    /// count on `serve.registry.load_failures`.
    pub fn load(&self, name: &str, path: impl AsRef<Path>) -> io::Result<Arc<InferenceEngine>> {
        let engine = match InferenceEngine::load(path) {
            Ok(e) => Arc::new(e),
            Err(e) => {
                ntt_obs::counter!("serve.registry.load_failures").inc();
                return Err(e);
            }
        };
        // A poisoned lock means some writer panicked mid-update; the
        // map itself (String -> Arc) is never torn, so recover it.
        let mut map = self.engines.write().unwrap_or_else(|e| e.into_inner());
        map.insert(name.to_string(), Arc::clone(&engine));
        self.track_count(map.len());
        Ok(engine)
    }

    /// Register an already-built engine under `name`.
    pub fn insert(&self, name: &str, engine: InferenceEngine) -> Arc<InferenceEngine> {
        let engine = Arc::new(engine);
        // Recoverable for the same reason as `load`.
        let mut map = self.engines.write().unwrap_or_else(|e| e.into_inner());
        map.insert(name.to_string(), Arc::clone(&engine));
        self.track_count(map.len());
        engine
    }

    /// The engine registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<InferenceEngine>> {
        // Recoverable: lookups on a recovered map are always coherent.
        self.engines
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Unregister `name`, returning the engine if it was present.
    pub fn remove(&self, name: &str) -> Option<Arc<InferenceEngine>> {
        // Recoverable for the same reason as `load`.
        let mut map = self.engines.write().unwrap_or_else(|e| e.into_inner());
        let removed = map.remove(name);
        self.track_count(map.len());
        removed
    }

    /// Registered names, sorted (free: the map is ordered).
    pub fn names(&self) -> Vec<String> {
        // Recoverable: lookups on a recovered map are always coherent.
        self.engines
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        // Recoverable: lookups on a recovered map are always coherent.
        self.engines.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::tiny_engine;

    #[test]
    fn insert_get_remove_roundtrip() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let a = reg.insert("case1", tiny_engine());
        reg.insert("case2", tiny_engine());
        assert_eq!(reg.names(), vec!["case1", "case2"]);
        assert!(Arc::ptr_eq(&reg.get("case1").unwrap(), &a));
        assert!(reg.get("missing").is_none());
        let removed = reg.remove("case1").unwrap();
        assert!(Arc::ptr_eq(&removed, &a));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn loading_a_checkpoint_shares_one_engine() {
        // Save a tiny pretrained model, load it through the registry,
        // and confirm clones of the Arc are the same engine.
        let eng = tiny_engine();
        let path = std::env::temp_dir().join(format!("ntt_registry_{}.ckpt", std::process::id()));
        crate::test_util::save_engine_checkpoint(&eng, &path);
        let reg = ModelRegistry::new();
        let loaded = reg.load("m", &path).expect("load checkpoint");
        assert_eq!(loaded.seq_len(), eng.seq_len());
        assert!(Arc::ptr_eq(&loaded, &reg.get("m").unwrap()));
        assert!(reg.load("bad", "/nonexistent/file.ckpt").is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_hot_swap_keeps_the_last_good_model() {
        // A rollout writes a damaged checkpoint and reloads it over a
        // live name: the load must fail with a typed io::Error and the
        // registry must keep serving the previous engine — atomic on
        // failure, no window where `get` comes back empty or broken.
        let eng = tiny_engine();
        let dir = std::env::temp_dir();
        let good = dir.join(format!("ntt_lastgood_ok_{}.ckpt", std::process::id()));
        let bad = dir.join(format!("ntt_lastgood_bad_{}.ckpt", std::process::id()));
        crate::test_util::save_engine_checkpoint(&eng, &good);
        // Damage two ways: truncation (mid-file cut) and corruption
        // (flipped byte under an intact length).
        let bytes = std::fs::read(&good).expect("read good checkpoint");
        let reg = ModelRegistry::new();
        let live = reg.load("model", &good).expect("initial load");
        for (label, damaged) in [
            ("truncated", bytes[..bytes.len() / 3].to_vec()),
            ("corrupted", {
                let mut b = bytes.clone();
                let mid = b.len() / 2;
                b[mid] ^= 0x5a;
                b
            }),
        ] {
            std::fs::write(&bad, &damaged).expect("write damaged checkpoint");
            let err = match reg.load("model", &bad) {
                Err(e) => e,
                Ok(_) => panic!("{label} checkpoint must fail to load"),
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{label}");
            // The old engine is still the registered one, still serving.
            let still = reg.get("model").expect("name still registered");
            assert!(
                Arc::ptr_eq(&still, &live),
                "{label} load must not disturb the live engine"
            );
            assert_eq!(reg.len(), 1);
        }
        // A subsequent good load still swaps cleanly.
        let swapped = reg.load("model", &good).expect("recovery load");
        assert!(!Arc::ptr_eq(&swapped, &live), "fresh engine after recovery");
        std::fs::remove_file(good).ok();
        std::fs::remove_file(bad).ok();
    }
}
