//! Tensor-engine throughput: the tiled/packed GEMM kernels against the
//! naive reference, and the paper-scale training step rate against the
//! pre-overhaul baseline.
//!
//! Custom harness. Four measurements land in
//! `results/BENCH_kernels.json`, with the kernel arm that ran
//! (`kernels::microkernel_arm`: `avx512f`, `avx2` or `baseline`, the
//! one arm every kernel runs on, recorded as `"microkernel"`):
//!
//! 1. **GEMM GFLOP/s**, tiled vs `kernels::reference`, on a square
//!    reference point and the products a paper-shape training
//!    microbatch runs most: the encoder linears over 8 · 48 slot rows
//!    (Q/K/V/O 64 → 64, `ff1` 64 → 128, `ff2` 128 → 64). GEMM packs its
//!    operands and runs attention's register tile on them; attention
//!    itself does not go through the packing engine. The run
//!    *asserts* that the tiled `nn` kernel beats
//!    [`NAIVE_FLOOR_GFLOPS`] on the square shape, a committed floor
//!    above anything the naive kernel reaches on supported hardware —
//!    CI fails if the kernel layer regresses to naive-level throughput.
//! 2. **Attention block**, one 48-slot head (`dh` 16): the block kernel
//!    (`attn_fused_fwd` keeping its weights, then `attn_fused_bwd`)
//!    against `reference::attention`, which computes the same five
//!    outputs to the same bits; the forward alone is recorded too.
//! 3. **Paper-scale `train_steps_per_sec`** (single-threaded),
//!    compared against [`BASELINE_STEPS_PER_SEC`] — the number the
//!    since-retired `train_scaling` bench measured on this container
//!    *before* the tensor-engine overhaul (i-k-j loop kernels,
//!    transpose-heavy attention, fresh allocations per step).
//! 4. **Thread-count invariance**: a short 1-vs-3-worker training run
//!    whose losses must be bit-identical — the determinism contract the
//!    kernel rewrite must preserve, re-checked in the same process that
//!    produced the perf numbers.
//!
//! Run: `cargo bench -p ntt-bench --bench kernels`

use ntt_bench::report::host_context_json;
use ntt_bench::synth::SynthTask;
use ntt_core::{train, Ntt, NttConfig, ParStrategy, TrainConfig, TrainMode};
use ntt_tensor::kernels::{self, reference};
use ntt_tensor::Tensor;
use std::fmt::Write as _;
use std::time::Instant;

/// Pre-overhaul paper-scale steps/s, as measured by the
/// data-parallel-trainer PR (threads = 1, this container). The
/// "before" of the before/after this file records.
const BASELINE_STEPS_PER_SEC: f64 = 3.6342;

/// GFLOP/s floor the tiled `nn` kernel must beat on the reference
/// 256³ shape. The naive kernel measures ~1-3 GFLOP/s here (scalar
/// dot-product order) — staying above this catches a regression to
/// unblocked code while leaving headroom for slow CI machines.
const NAIVE_FLOOR_GFLOPS: f64 = 4.0;

struct GemmRow {
    label: &'static str,
    m: usize,
    k: usize,
    n: usize,
    tiled_gflops: f64,
    naive_gflops: f64,
}

/// Seconds per call of `f`: calls repeat until [`MIN_TIMED_SECS`] have
/// passed, and the best of five such runs counts (a shared host's
/// speed drifts over seconds).
fn time_call(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    (0..5)
        .map(|_| {
            let (t0, mut calls) = (Instant::now(), 0u32);
            while calls == 0 || t0.elapsed().as_secs_f64() < MIN_TIMED_SECS {
                f();
                calls += 1;
            }
            t0.elapsed().as_secs_f64() / f64::from(calls)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Time one timed run must at least take.
const MIN_TIMED_SECS: f64 = 0.02;

fn bench_gemms() -> Vec<GemmRow> {
    type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
    type Pair = (Kernel, Kernel);
    // (label, tiled, naive, m, k, n): the square 256³ floor case first,
    // then the encoder linears of a microbatch of eight paper-shape
    // windows (8 · 48 = 384 rows).
    let nn: Pair = (kernels::gemm_nn, reference::gemm_nn);
    let cases: [(&'static str, Pair, usize, usize, usize); 4] = [
        ("nn_256x256x256", nn, 256, 256, 256),
        ("nn_qkvo", nn, 384, 64, 64),
        ("nn_ff1", nn, 384, 64, 128),
        ("nn_ff2", nn, 384, 128, 64),
    ];
    cases
        .iter()
        .map(|&(label, (tiled, naive), m, k, n)| {
            let a = Tensor::randn(&[m * k], 1).into_data();
            let b = Tensor::randn(&[k * n], 2).into_data();
            let mut c = vec![0.0f32; m * n];
            let flops = 2.0 * (m * k * n) as f64;
            let tiled_gflops = flops / time_call(|| tiled(&a, &b, &mut c, m, k, n)) / 1e9;
            let naive_gflops = flops / time_call(|| naive(&a, &b, &mut c, m, k, n)) / 1e9;
            eprintln!(
                "  gemm {label:<16} {m:>4}x{k:>4}x{n:>4}: tiled {tiled_gflops:7.2} GFLOP/s, naive {naive_gflops:6.2} GFLOP/s ({:.1}x)",
                tiled_gflops / naive_gflops
            );
            GemmRow {
                label,
                m,
                k,
                n,
                tiled_gflops,
                naive_gflops,
            }
        })
        .collect()
}

/// Microseconds per 48-slot attention head (`dh` 16): (kernel forward,
/// kernel forward + backward, reference forward + backward).
fn bench_attention() -> (f64, f64, f64) {
    let (t, dh) = (48, 16);
    let [q, k, v, g] = [3, 4, 5, 6].map(|seed| Tensor::randn(&[t * dh], seed).into_data());
    let (mut ctx, mut w) = (vec![0.0f32; t * dh], vec![0.0f32; t * t]);
    let mut grads = [(); 3].map(|_| vec![0.0f32; t * dh]);
    let scale = 0.25;
    let fwd = time_call(|| kernels::attn_fused_fwd(&q, &k, &v, scale, &mut ctx, None, 1, t, 1, dh));
    let both = time_call(|| {
        kernels::attn_fused_fwd(&q, &k, &v, scale, &mut ctx, Some(&mut w), 1, t, 1, dh);
        let [gq, gk, gv] = &mut grads;
        kernels::attn_fused_bwd(&q, &k, &v, &g, &w, scale, gq, gk, gv, 1, t, 1, dh);
    });
    let reference = time_call(|| {
        std::hint::black_box(reference::attention([&q, &k, &v, &g], scale, [1, t, 1, dh]));
    });
    let [fwd, both, reference] = [fwd, both, reference].map(|s| s * 1e6);
    eprintln!(
        "  attention 48x16 block: forward {fwd:.2} us, forward+backward {both:.2} us, reference {reference:.2} us ({:.1}x)",
        reference / both
    );
    (fwd, both, reference)
}

fn paper_model() -> NttConfig {
    NttConfig {
        aggregation: ntt_core::Aggregation::paper_multiscale(),
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        d_ff: 128,
        ..NttConfig::default()
    }
}

/// Paper-scale steps/s at a given worker count, plus the epoch losses
/// for the invariance cross-check.
fn train_run(threads: usize, steps: usize) -> (f64, Vec<f64>) {
    let model_cfg = paper_model();
    let batch_size = 32usize;
    let task = SynthTask::new(2 * batch_size, model_cfg.seq_len(), model_cfg.d_model, 7);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size,
        max_steps_per_epoch: Some(steps),
        seed: 3,
        par: ParStrategy::with_threads(threads),
        ..TrainConfig::default()
    };
    // One unmeasured warmup step (page-in, lazy allocs).
    let warm = TrainConfig {
        max_steps_per_epoch: Some(1),
        ..cfg
    };
    train(&Ntt::new(model_cfg), &task, &warm, TrainMode::Full);
    let ntt = Ntt::new(model_cfg);
    let t0 = Instant::now();
    let report = train(&ntt, &task, &cfg, TrainMode::Full);
    let sps = report.steps as f64 / t0.elapsed().as_secs_f64();
    (sps, report.epoch_losses)
}

fn main() {
    let arm = kernels::microkernel_arm();
    eprintln!("kernels: tiled GEMM ({arm} arm) vs naive reference, attention block, then paper-scale train steps/s");
    let gemms = bench_gemms();
    let (attn_fwd_us, attn_us, attn_reference_us) = bench_attention();

    let floor_case = &gemms[0];
    assert!(
        floor_case.tiled_gflops > NAIVE_FLOOR_GFLOPS,
        "tiled gemm_nn at {}x{}x{} reached only {:.2} GFLOP/s — below the committed \
         naive-reference floor of {NAIVE_FLOOR_GFLOPS} GFLOP/s",
        floor_case.m,
        floor_case.k,
        floor_case.n,
        floor_case.tiled_gflops,
    );
    eprintln!(
        "  floor: tiled nn {:.2} GFLOP/s > {NAIVE_FLOOR_GFLOPS} GFLOP/s committed floor ✓",
        floor_case.tiled_gflops
    );

    let (steps_per_sec, losses_1) = train_run(1, 4);
    let speedup = steps_per_sec / BASELINE_STEPS_PER_SEC;
    eprintln!(
        "  train: {steps_per_sec:.3} steps/s vs {BASELINE_STEPS_PER_SEC} baseline ({speedup:.2}x)"
    );

    // Determinism cross-check in the same process: worker count must not
    // change a bit of the losses.
    let (_, losses_3) = train_run(3, 4);
    let invariant = losses_1 == losses_3;
    assert!(
        invariant,
        "losses diverged between 1 and 3 workers — determinism contract broken"
    );
    eprintln!("  losses bit-identical across thread counts ✓");

    let mut json = String::from("{\n  \"bench\": \"kernels\",\n");
    let _ = writeln!(json, "  \"host\": {},", host_context_json());
    let _ = writeln!(json, "  \"microkernel\": \"{arm}\",");
    let _ = writeln!(json, "  \"gemm\": [");
    for (i, r) in gemms.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"case\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"tiled_gflops\": {:.3}, \"naive_gflops\": {:.3}, \"speedup\": {:.3}}}{}",
            r.label,
            r.m,
            r.k,
            r.n,
            r.tiled_gflops,
            r.naive_gflops,
            r.tiled_gflops / r.naive_gflops,
            if i + 1 == gemms.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"naive_floor_gflops\": {NAIVE_FLOOR_GFLOPS},");
    let _ = writeln!(
        json,
        "  \"attention_block_48x16\": {{\"kernel_fwd_us\": {attn_fwd_us:.3}, \"kernel_fwd_bwd_us\": {attn_us:.3}, \"reference_fwd_bwd_us\": {attn_reference_us:.3}, \"speedup\": {:.3}}},",
        attn_reference_us / attn_us
    );
    let _ = writeln!(json, "  \"train\": {{");
    let _ = writeln!(json, "    \"model\": \"paper\",");
    let _ = writeln!(json, "    \"threads\": 1,");
    let _ = writeln!(
        json,
        "    \"baseline_steps_per_sec\": {BASELINE_STEPS_PER_SEC},"
    );
    let _ = writeln!(json, "    \"steps_per_sec\": {steps_per_sec:.4},");
    let _ = writeln!(json, "    \"speedup_vs_baseline\": {speedup:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"training_is_thread_count_invariant\": {invariant}"
    );
    json.push_str("}\n");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let path = dir.join("BENCH_kernels.json");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        eprintln!("  (could not write {}: {e})", path.display());
    } else {
        eprintln!("  wrote {}", path.display());
    }
}
