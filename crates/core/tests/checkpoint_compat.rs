//! Checkpoint format robustness: random model configurations must
//! survive an `NTTCKPT2` save→load round-trip (proptest).

use ntt_core::checkpoint::Checkpoint;
use ntt_core::{Aggregation, Ntt, NttConfig};
use ntt_nn::Module;
use ntt_tensor::Param;
use proptest::prelude::*;

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ntt_ckpt_prop_{tag}_{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random model configurations survive a v2 save→load round-trip:
    /// config, head set, and every parameter bit.
    #[test]
    fn v2_roundtrips_random_models(
        d_model_half in 1usize..5,
        n_layers in 1usize..3,
        seed in 0u64..1_000_000,
        with_mct in any::<bool>(),
    ) {
        let cfg = NttConfig {
            aggregation: Aggregation::None,
            d_model: d_model_half * 2,
            n_heads: 2,
            n_layers,
            d_ff: d_model_half * 4,
            seed,
            ..NttConfig::default()
        };
        let model = Ntt::new(cfg);
        let delay = ntt_core::DelayHead::new(cfg.d_model, seed);
        let mct = ntt_core::MctHead::new(cfg.d_model, seed);
        let heads: Vec<&dyn ntt_core::Head> =
            if with_mct { vec![&delay, &mct] } else { vec![&delay] };
        let ckpt = Checkpoint::capture(&model, &heads, None, vec![
            ("seed".into(), seed.to_string()),
        ]).unwrap();
        let path = tmp(&format!("v2_{seed}_{d_model_half}_{n_layers}_{with_mct}"));
        ckpt.save(&path).unwrap();

        let loaded = Checkpoint::load(&path).unwrap();
        prop_assert_eq!(loaded.model.cfg.d_model, cfg.d_model);
        prop_assert_eq!(loaded.heads.len(), heads.len());
        let orig: Vec<Param> = model
            .params()
            .into_iter()
            .chain(heads.iter().flat_map(|h| h.params()))
            .collect();
        let rebuilt: Vec<Param> = loaded
            .model
            .params()
            .into_iter()
            .chain(loaded.heads.iter().flat_map(|h| h.params()))
            .collect();
        prop_assert_eq!(orig.len(), rebuilt.len());
        for (a, b) in orig.iter().zip(rebuilt.iter()) {
            prop_assert_eq!(a.name(), b.name());
            for (x, y) in a.value().data().iter().zip(b.value().data().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_file(path).ok();
    }
}
