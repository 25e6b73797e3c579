//! Property-based tests: the tiled, packed GEMM engine and the attention
//! kernels against the naive triple-loop references, across
//! odd and degenerate shapes (0, 1, primes, and sizes straddling every
//! tile boundary: MR=4, NR=16, MC=64, KC=256).

use ntt_tensor::kernels::{self, reference};
use ntt_tensor::Tensor;
use proptest::prelude::*;

/// Dimension menu mixing degenerate sizes, primes, tile-edge values,
/// and sizes larger than a whole tile in that axis.
const DIMS: [usize; 14] = [0, 1, 2, 3, 5, 7, 13, 15, 16, 17, 31, 64, 67, 130];

/// Depth menu including sizes beyond KC so k-blocking is exercised.
const KDIMS: [usize; 12] = [0, 1, 2, 3, 5, 13, 17, 63, 64, 65, 257, 300];

/// Sequence lengths straddling the GEMM tile edges: 1, primes, the
/// panel width NR=16 ± 1, the MR=4 row-tile edge, and the encoder's
/// 48-slot shape.
const TDIMS: [usize; 10] = [1, 2, 3, 5, 13, 15, 16, 17, 31, 48];

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    if n == 0 {
        Vec::new()
    } else {
        Tensor::randn(&[n], seed).into_data()
    }
}

fn assert_close(got: &[f32], want: &[f32], k: usize, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    // Error scales with the dot-product length; randn values are O(1).
    let tol = 1e-4 * (k as f32 + 4.0);
    for (i, (x, y)) in got.iter().zip(want.iter()).enumerate() {
        prop_assert!((x - y).abs() <= tol, "{label}[{i}]: {x} vs {y} (tol {tol})");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tiled_nn_matches_reference(mi in 0usize..DIMS.len(), ki in 0usize..KDIMS.len(), ni in 0usize..DIMS.len(), seed in 0u64..1000) {
        let (m, k, n) = (DIMS[mi], KDIMS[ki], DIMS[ni]);
        let a = rand_vec(m * k, seed);
        let b = rand_vec(k * n, seed ^ 1);
        let mut got = vec![0.5; m * n]; // non-zero: accumulation must be preserved
        let mut want = vec![0.5; m * n];
        kernels::gemm_nn(&a, &b, &mut got, m, k, n);
        reference::gemm_nn(&a, &b, &mut want, m, k, n);
        assert_close(&got, &want, k, "nn")?;
    }

    #[test]
    fn tiled_nt_matches_reference(mi in 0usize..DIMS.len(), ki in 0usize..KDIMS.len(), ni in 0usize..DIMS.len(), seed in 0u64..1000) {
        let (m, k, n) = (DIMS[mi], KDIMS[ki], DIMS[ni]);
        let a = rand_vec(m * k, seed);
        let b = rand_vec(n * k, seed ^ 2);
        let mut got = vec![0.0; m * n];
        let mut want = vec![0.0; m * n];
        kernels::gemm_nt(&a, &b, &mut got, m, k, n);
        reference::gemm_nt(&a, &b, &mut want, m, k, n);
        assert_close(&got, &want, k, "nt")?;
    }

    #[test]
    fn tiled_tn_matches_reference(mi in 0usize..DIMS.len(), ki in 0usize..KDIMS.len(), ni in 0usize..DIMS.len(), seed in 0u64..1000) {
        let (m, k, n) = (DIMS[mi], KDIMS[ki], DIMS[ni]);
        let a = rand_vec(k * m, seed);
        let b = rand_vec(k * n, seed ^ 3);
        let mut got = vec![0.0; m * n];
        let mut want = vec![0.0; m * n];
        kernels::gemm_tn(&a, &b, &mut got, m, k, n);
        reference::gemm_tn(&a, &b, &mut want, m, k, n);
        assert_close(&got, &want, k, "tn")?;
    }

    #[test]
    fn attn_kernels_match_transpose_composition(b in 1usize..3, t in 1usize..8, h in 1usize..4, dhi in 0usize..4, seed in 0u64..500) {
        // Forward, context and kept weights. Every depth here fits one KC
        // block, where the engine sums each product in the reference's
        // order: the match is exact.
        let dh = [1usize, 2, 5, 16][dhi];
        let n = b * t * h * dh;
        let (q, k, v) = (rand_vec(n, seed), rand_vec(n, seed ^ 7), rand_vec(n, seed ^ 8));
        let scale = 1.0 / (dh as f32).sqrt();
        let [want, want_w, ..] = reference::attention([&q, &k, &v, &q], scale, [b, t, h, dh]);
        let mut ctx = vec![f32::NAN; n];
        let mut w = vec![f32::NAN; b * h * t * t];
        kernels::attn_fused_fwd(&q, &k, &v, scale, &mut ctx, Some(&mut w), b, t, h, dh);
        prop_assert_eq!(ctx, want);
        prop_assert_eq!(w, want_w);
    }

    #[test]
    fn fused_attention_matches_classic_composition(b in 1usize..4, ti in 0usize..TDIMS.len(), h in 1usize..4, dhi in 0usize..5, scale in 0.1f32..2.0, seed in 0u64..500) {
        // The one attention op against the classic chain composed from
        // transposes and reference GEMMs, forward without kept weights
        // and backward from them: the same bits.
        let t = TDIMS[ti];
        let dh = [1usize, 2, 5, 7, 16][dhi];
        let n = b * t * h * dh;
        let [q, k, v, g] = [0, 21, 22, 23].map(|s| rand_vec(n, seed ^ s));
        let [want, w, want_grads @ ..] = reference::attention([&q, &k, &v, &g], scale, [b, t, h, dh]);
        let mut ctx = vec![f32::NAN; n];
        kernels::attn_fused_fwd(&q, &k, &v, scale, &mut ctx, None, b, t, h, dh);
        prop_assert_eq!(ctx, want);
        let mut grads = [(); 3].map(|_| vec![0.0; n]);
        let [gq, gk, gv] = &mut grads;
        kernels::attn_fused_bwd(&q, &k, &v, &g, &w, scale, gq, gk, gv, b, t, h, dh);
        prop_assert_eq!(grads, want_grads);
    }

    #[test]
    fn scaled_softmax_fwd_bwd_are_consistent(t in 1usize..17, scale in 0.1f32..2.0, seed in 0u64..500) {
        // With K = V = I (`[1, t, 1, t]`), attention's context is
        // softmax(scale · Q) row by row, and its dQ from the kept
        // weights is softmax's backward of the upstream gradient.
        let id: Vec<f32> = (0..t * t).map(|e| if e % (t + 1) == 0 { 1.0 } else { 0.0 }).collect();
        let x = rand_vec(t * t, seed);
        let mut y = vec![0.0; t * t];
        let mut w = vec![0.0; t * t];
        kernels::attn_fused_fwd(&x, &id, &id, scale, &mut y, Some(&mut w), 1, t, 1, t);
        for row in y.chunks(t) {
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
        // Backward against the analytic Jacobian-vector product.
        let g = rand_vec(t * t, seed ^ 11);
        let mut grads = [(); 3].map(|_| vec![0.0; t * t]);
        let [gx, gk, gv] = &mut grads;
        kernels::attn_fused_bwd(&x, &id, &id, &g, &w, scale, gx, gk, gv, 1, t, 1, t);
        for r in 0..t {
            let ys = &y[r * t..(r + 1) * t];
            let gs = &g[r * t..(r + 1) * t];
            let dot: f32 = ys.iter().zip(gs).map(|(a, b)| a * b).sum();
            for j in 0..t {
                let want = scale * ys[j] * (gs[j] - dot);
                prop_assert!((gx[r * t + j] - want).abs() < 1e-4);
            }
        }
    }
}
