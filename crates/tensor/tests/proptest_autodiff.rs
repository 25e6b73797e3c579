//! Property-based tests: the autodiff engine against randomized shapes,
//! values, and op compositions.

use ntt_tensor::{grad_check, kernels, shape, Param, Tape, Tensor};
use proptest::prelude::*;

fn finite_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-3.0f32..3.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_matches_naive(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1000) {
        let a = Tensor::randn(&[m, k], seed);
        let b = Tensor::randn(&[k, n], seed ^ 1);
        let mut c = vec![0.0f32; m * n];
        kernels::gemm_nn(a.data(), b.data(), &mut c, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                prop_assert!((c[i * n + j] - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..6, d in 1usize..8, vals_seed in 0u64..1000) {
        // The attention softmax read out directly: with K = V = I per
        // batch row the scores are Q and the context is the weights.
        let t = Tape::new();
        let eye: Vec<f32> = (0..rows * d * d)
            .map(|i| if (i % (d * d)) % (d + 1) == 0 { 1.0 } else { 0.0 })
            .collect();
        let id = t.input(Tensor::from_vec(eye, &[rows, d, 1, d]));
        let q = t.input(Tensor::randn(&[rows, d, 1, d], vals_seed).map(|v| v * 5.0));
        let y = q.attn_fused(id, id, 1.0).value();
        for row in y.data().chunks(d) {
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn slice_concat_axis1_roundtrip(b in 1usize..3, t1 in 1usize..5, t2 in 1usize..5, d in 1usize..4, seed in 0u64..1000) {
        let tape = Tape::new();
        let x = tape.input(Tensor::randn(&[b, t1 + t2, d], seed));
        let lo = x.slice_axis1(0, t1);
        let hi = x.slice_axis1(t1, t2);
        let back = ntt_tensor::Var::concat_axis1(&[lo, hi]);
        prop_assert_eq!(back.value(), x.value());
    }

    #[test]
    fn reshape_preserves_sum(dims in proptest::collection::vec(1usize..5, 1..4), seed in 0u64..1000) {
        let n: usize = dims.iter().product();
        let t = Tensor::randn(&[n], seed);
        let r = t.reshape(&dims);
        prop_assert!((t.sum() - r.sum()).abs() < 1e-3);
    }

    #[test]
    fn broadcast_kind_is_consistent_with_add(b_dims in 1usize..4, t_dims in 1usize..4, d in 1usize..4) {
        // [B,T,D] + [D] and [B,T,D] + [T,D] are the supported broadcasts.
        prop_assert_eq!(shape::broadcast_kind(&[b_dims, t_dims, d], &[d]),
            Some(if d == d { shape::Broadcast::Inner } else { unreachable!() }));
        let k = shape::broadcast_kind(&[b_dims, t_dims, d], &[t_dims, d]);
        prop_assert!(k == Some(shape::Broadcast::Leading) || k == Some(shape::Broadcast::Same));
    }

    #[test]
    fn linear_layer_gradcheck_random_shapes(m in 1usize..4, k in 2usize..5, n in 1usize..4, seed in 0u64..500) {
        let w = Param::new("w", Tensor::randn(&[k, n], seed).map(|x| x * 0.5));
        let x = Tensor::randn(&[m, k], seed ^ 7);
        let t = Tensor::randn(&[m, n], seed ^ 9);
        let report = grad_check::check_param_grad(&w, 1e-2, |tape| {
            tape.input(x.clone()).matmul(tape.param(&w)).mse_loss(&t)
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn mse_loss_is_nonnegative_and_zero_iff_equal(vals in finite_vec(6)) {
        let tape = Tape::new();
        let x = Tensor::from_vec(vals.clone(), &[6]);
        let v = tape.input(x.clone());
        prop_assert_eq!(v.mse_loss(&x).value().item(), 0.0);
        let shifted = x.map(|a| a + 1.0);
        prop_assert!(v.mse_loss(&shifted).value().item() > 0.99);
    }

    #[test]
    fn backward_accumulates_linearly(seed in 0u64..1000) {
        // d/dw of (k * loss) == k * d/dw loss
        let w = Param::new("w", Tensor::randn(&[3], seed));
        let t = Tensor::randn(&[3], seed ^ 3);
        let grad_of = |k: f32| {
            let tape = Tape::new();
            let loss = tape.param(&w).mse_loss(&t).scale(k);
            tape.backward_params(loss).get(&w).unwrap().clone()
        };
        let g1 = grad_of(1.0);
        let g2 = grad_of(2.0);
        prop_assert!(g2.allclose(&g1.map(|x| x * 2.0), 1e-4));
    }
}
