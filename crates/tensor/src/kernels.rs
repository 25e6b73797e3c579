//! Matrix-multiplication and attention kernels.
//!
//! One register-blocked, cache-tiled GEMM engine (`gemm_core`) serves
//! every layout the tape needs:
//!
//! * `gemm_nn`: `C += A[m,k] · B[k,n]`
//! * `gemm_nt`: `C += A[m,k] · B[n,k]ᵀ`   (gradient w.r.t. the left operand)
//! * `gemm_tn`: `C += A[k,m]ᵀ · B[k,n]`   (gradient w.r.t. the right operand)
//!
//! plus `_strided` variants taking explicit leading dimensions, which let
//! the attention kernels ([`attn_fused_fwd`], [`attn_fused_bwd`])
//! multiply head-interleaved `[B, T, H, dh]` views directly — no `Kᵀ`
//! or head-transpose copies are ever materialized.
//!
//! # Kernel design
//!
//! The engine is a scaled-down BLIS: the innermost unit is an
//! [`MR`]`×`[`NR`] *microkernel* whose accumulator tile lives in
//! registers across the whole depth loop, fed by *packed* operand
//! panels:
//!
//! * B is packed once per `k`-block into `[KC × NR]` column panels, so
//!   the microkernel streams it contiguously regardless of the source
//!   layout or stride;
//! * A is packed per `[MC]`-row block into `[KC × MR]` micro-panels,
//!   turning both `nn` (rows) and `tn` (columns) sources into the same
//!   contiguous broadcast-friendly layout;
//! * the depth dimension is blocked by [`KC`] so packed panels stay
//!   cache-resident; within a row block, the column-panel loop runs
//!   outermost so each B panel is L1-hot across all micro-rows.
//!
//! Packing converts `nt`'s dot-product inner loop (a reduction rustc
//! cannot vectorize under strict f32 semantics) into the same
//! independent-lane multiply-add form as `nn`, and there is deliberately
//! no zero-skip branch anywhere: dense activations autovectorize, and a
//! data-dependent branch in the inner loop would defeat that.
//!
//! The microkernel has three arms, picked once per process by CPU
//! feature (`micro_fn`): AVX-512F, written with `core::arch` intrinsics
//! so each accumulator row is one 512-bit register; AVX2, the portable
//! loop recompiled so LLVM vectorizes it 256 bits wide; and that loop
//! at the build's baseline. The element-wise maps ([`gelu_fwd`],
//! [`gelu_bwd`]) and the row-wise reductions ([`scaled_softmax_fwd`],
//! [`softmax_bwd`], and `layer_norm_stats` and `layer_norm_bwd` behind
//! `Var::layer_norm`) are plain loops compiled twice, baseline and AVX2.
//!
//! A row-wise reduction run a row at a time is one serial chain of
//! dependent adds (or maxes) per row, which leaves the vector units
//! idle. These kernels take rows eight at a time and advance them side
//! by side, one lane per row: 8 independent chains instead of one.
//!
//! # Threading
//!
//! Kernels never spawn threads: every GEMM and attention call runs on
//! its caller's thread. Parallelism lives one level up, at the natural
//! unit of each path — fleet shards, the trainer's microbatch shards,
//! evaluation batches and `Batcher` workers. A second level beneath
//! those would oversubscribe the cores they already divide, and a
//! `std::thread::scope` spawn + join (40–75 µs for two threads) costs
//! more than an entire 48-row encoder product.
//!
//! # Determinism
//!
//! Every output element accumulates its `k` products in ascending `p`
//! order, grouped only by the fixed [`KC`] blocking — an order that does
//! not depend on partial-tile boundaries or on which thread calls, so
//! results are bit-identical at any thread count.
//!
//! No kernel fuses a multiply into an add. Rust never contracts
//! `a * b + c` into an FMA, and the AVX-512 arm calls `_mm512_mul_ps`
//! and then `_mm512_add_ps`, never `fmadd`. An FMA rounds once where a
//! multiply and an add round twice, so one arm using it would make the
//! bits depend on the host. Without it, and with each element's order
//! of operations fixed, every arm executes the same IEEE operation
//! sequence per element: a host with AVX-512, AVX2 or neither gets the
//! same bits, and the dispatch changes throughput, never a bit.
//!
//! The row groups keep that order too: lanes run across rows, never
//! within a row. Each row still folds its own columns left to right
//! from the same starting value, so its result does not depend on the
//! group size, the vector width, or which rows share its group.
//!
//! `exp` is the crate's own branch-free polynomial (`exp`, behind
//! [`gelu_fwd`], [`gelu_bwd`] and [`scaled_softmax_fwd`]), not the
//! platform libm: the same weights and inputs give the same bits on
//! every host and libc.

use std::cell::RefCell;
use std::sync::OnceLock;

/// Microkernel rows: accumulator tile height (distinct A values held as
/// broadcasts per depth step).
pub const MR: usize = 4;
/// Microkernel columns: accumulator tile width. `MR × NR = 64` f32
/// accumulators are 4 × 512-bit registers on AVX-512F and 8 × 256-bit
/// on AVX2 (the dispatched arms — see `micro_fn`), leaving room for the
/// A broadcast and B loads; the baseline-SSE2 fallback spills some but
/// stays correct.
pub const NR: usize = 16;
/// Depth blocking: packed panels cover at most `KC` of `k` per pass, so
/// a B column panel (`KC × NR` = 8 KiB) stays L1-resident.
pub const KC: usize = 256;
/// Row blocking: A is packed `MC` rows at a time (`MC × KC` = 64 KiB,
/// L2-resident and streamed once per column panel).
pub const MC: usize = 64;

std::thread_local! {
    /// Reusable packing buffers (per thread, so trainer shards and
    /// `Batcher` workers never contend): B panels for the current
    /// k-block, A micro-panels for the current row block.
    static BPACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static APACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f`. Kernels never spawn threads, so there is nothing left to
/// make sequential; this identity is kept only because the benchmark
/// harness's `e2e/src/probes.rs` calls it, and goes when `e2e` joins the
/// workspace.
pub fn with_sequential<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// The register-resident core: `acc[r][j] += apanel[p][r] * bpanel[p][j]`
/// over `kc` depth steps. Panels are contiguous (packed), so every load
/// is sequential and the accumulator tile never leaves registers.
#[inline(always)]
fn micro_impl(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    // Dynamic complement to the SAFETY comments (lint R1): the packed
    // panels must cover all kc depth steps, or chunks_exact would
    // silently truncate the accumulation. Free in release builds.
    debug_assert!(
        apanel.len() >= kc * MR,
        "A panel shorter than kc depth steps"
    );
    debug_assert!(
        bpanel.len() >= kc * NR,
        "B panel shorter than kc depth steps"
    );
    // Accumulate into a by-value local: with no live pointer to it, the
    // tile provably stays in registers and is stored exactly once.
    let mut local = [[0.0f32; NR]; MR];
    for (av, bv) in apanel
        .chunks_exact(MR)
        .zip(bpanel.chunks_exact(NR))
        .take(kc)
    {
        for r in 0..MR {
            let ar = av[r];
            for j in 0..NR {
                local[r][j] += ar * bv[j];
            }
        }
    }
    *acc = local;
}

/// Microkernel compiled for the build's baseline target features.
///
/// # Safety
/// Always safe to call; `unsafe fn` only to share a signature with the
/// feature-gated variants behind one dispatched pointer.
unsafe fn micro_baseline(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    micro_impl(kc, apanel, bpanel, acc);
}

/// The same microkernel recompiled with AVX2 enabled, so LLVM
/// autovectorizes the [`NR`]-wide lanes as 256-bit `vmulps`/`vaddps`.
/// Rust never contracts `a * b + c` into an FMA, so this executes the
/// exact same IEEE operation sequence as [`micro_baseline`] — the
/// dispatch can change throughput, never a bit of output.
///
/// # Safety
/// Caller must have verified AVX2 support (see [`micro_fn`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn micro_avx2(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    micro_impl(kc, apanel, bpanel, acc);
}

/// The microkernel at full AVX-512 width, by hand: each of the [`MR`]
/// accumulator rows is one 512-bit register of [`NR`] lanes, and every
/// depth step is a broadcast of the A value, `_mm512_mul_ps` by the B
/// row, then `_mm512_add_ps` into the row — two roundings, never a
/// fused `fmadd`, so each lane is exactly [`micro_impl`]'s
/// `local[r][j] += ar * bv[j]` in the same ascending-`p` order.
///
/// # Safety
/// Caller must have verified AVX-512F support (see [`micro_fn`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_avx512(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::{_mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps};
    use std::arch::x86_64::{_mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps};
    debug_assert!(
        apanel.len() >= kc * MR,
        "A panel shorter than kc depth steps"
    );
    debug_assert!(
        bpanel.len() >= kc * NR,
        "B panel shorter than kc depth steps"
    );
    let mut rows = [_mm512_setzero_ps(); MR];
    for (av, bv) in apanel
        .chunks_exact(MR)
        .zip(bpanel.chunks_exact(NR))
        .take(kc)
    {
        // SAFETY: `bv` is a chunk of exactly NR = 16 f32, one unaligned
        // 512-bit load.
        let b = unsafe { _mm512_loadu_ps(bv.as_ptr()) };
        for (row, &a) in rows.iter_mut().zip(av) {
            *row = _mm512_add_ps(*row, _mm512_mul_ps(_mm512_set1_ps(a), b));
        }
    }
    for (out, row) in acc.iter_mut().zip(rows) {
        // SAFETY: `out` is an [f32; NR] = 16 f32, one unaligned 512-bit
        // store.
        unsafe { _mm512_storeu_ps(out.as_mut_ptr(), row) };
    }
}

type MicroFn = unsafe fn(usize, &[f32], &[f32], &mut [[f32; NR]; MR]);

/// The one place CPU features are detected: every multi-compiled kernel
/// in this file (the microkernel, [`gelu_fwd`], [`gelu_bwd`] and the
/// row-grouped reductions) asks here. std caches the `cpuid` result, so
/// this is a relaxed load after the first call.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

/// AVX-512F, for [`micro_avx512`]; detected beside [`has_avx2`].
#[cfg(target_arch = "x86_64")]
fn has_avx512f() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// Pick the widest microkernel this CPU supports, once per process:
/// AVX-512F, then AVX2, then the baseline. All three return the same
/// bits.
fn micro_arm() -> &'static (&'static str, MicroFn) {
    static MICRO: OnceLock<(&'static str, MicroFn)> = OnceLock::new();
    MICRO.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if has_avx512f() {
            return ("avx512f", micro_avx512 as MicroFn);
        }
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            return ("avx2", micro_avx2 as MicroFn);
        }
        ("baseline", micro_baseline as MicroFn)
    })
}

fn micro_fn() -> MicroFn {
    micro_arm().1
}

/// The microkernel arm this process runs — `"avx512f"`, `"avx2"` or
/// `"baseline"` — for benchmark records. Every arm gives the same bits.
pub fn microkernel_arm() -> &'static str {
    micro_arm().0
}

/// Pack B depth-rows `pc..pc+kc` into `[kc × NR]` column panels
/// (tail panel zero-padded; `out` must be pre-zeroed and hold at least
/// `n.div_ceil(NR) * kc * NR`). `(p, j)` of the logical `B[k, n]` lives
/// at `b[p * brs + j * bcs]`, which covers both `nn`/`tn` (`bcs == 1`)
/// and `nt` (`brs == 1`, `bcs == ldb`) sources.
fn pack_b(b: &[f32], brs: usize, bcs: usize, pc: usize, kc: usize, n: usize, out: &mut [f32]) {
    let n_panels = n.div_ceil(NR);
    // Entry bounds checks (compiled out in release): the destination
    // must hold every zero-padded panel and the source must cover the
    // last element this depth block reads.
    debug_assert!(
        out.len() >= n_panels * kc * NR,
        "pack_b destination too short"
    );
    debug_assert!(
        kc == 0 || n == 0 || b.len() > (pc + kc - 1) * brs + (n - 1) * bcs,
        "pack_b source too short for depth block"
    );
    for jp in 0..n_panels {
        let j0 = jp * NR;
        let jw = NR.min(n - j0);
        let panel = &mut out[jp * kc * NR..(jp + 1) * kc * NR];
        if bcs == 1 {
            for p in 0..kc {
                let src = (pc + p) * brs + j0;
                panel[p * NR..p * NR + jw].copy_from_slice(&b[src..src + jw]);
            }
        } else if brs == 1 {
            // Transposed source (`nt`): each logical column is a
            // contiguous source row — read it sequentially, scatter into
            // the (cache-resident) panel.
            for jj in 0..jw {
                let src = &b[(j0 + jj) * bcs + pc..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * NR + jj] = v;
                }
            }
        } else {
            for p in 0..kc {
                let src = (pc + p) * brs + j0 * bcs;
                for jj in 0..jw {
                    panel[p * NR + jj] = b[src + jj * bcs];
                }
            }
        }
    }
}

/// Pack A rows `ic..ic+mc`, depth `pc..pc+kc`, into `[kc × MR]`
/// micro-panels at `out` (micro-panel-major; pad rows pre-zeroed by the
/// caller). `(i, p)` of the logical `A[m, k]` lives at
/// `a[i * ars + p * acs]`. Both layouts are packed in a single pass in
/// *source* memory order — the `tn` case in particular reads each depth
/// row of A exactly once instead of restriding per micro-panel.
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
fn pack_a_block(
    a: &[f32],
    ars: usize,
    acs: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    out: &mut [f32],
) {
    // Entry bounds checks (compiled out in release): every micro-panel
    // this block writes must fit, and the furthest source element read
    // — row ic+mc-1 at depth pc+kc-1 — must exist.
    debug_assert!(
        out.len() >= mc.div_ceil(MR) * kc * MR,
        "pack_a destination too short"
    );
    debug_assert!(
        mc == 0 || kc == 0 || a.len() > (ic + mc - 1) * ars + (pc + kc - 1) * acs,
        "pack_a source too short for row/depth block"
    );
    if acs == 1 {
        // Row-major A (nn/nt): each source row is contiguous in p.
        for r in 0..mc {
            let src = &a[(ic + r) * ars + pc..][..kc];
            let panel = &mut out[(r / MR) * kc * MR..][..kc * MR];
            let lane = r % MR;
            for (p, &v) in src.iter().enumerate() {
                panel[p * MR + lane] = v;
            }
        }
    } else {
        // Column-source A (tn, ars == 1): each depth step is a
        // contiguous run of mc source elements. Fixed-size micro-copies
        // compile to plain vector moves (a dynamic length here becomes
        // a memcpy call per 16-byte chunk).
        let full = mc - mc % MR;
        for p in 0..kc {
            let src = &a[(pc + p) * acs + ic..][..mc];
            for (ip, chunk) in src[..full].chunks_exact(MR).enumerate() {
                let chunk: &[f32; MR] = chunk.try_into().unwrap();
                out[ip * kc * MR + p * MR..][..MR].copy_from_slice(chunk);
            }
            for (r, &v) in src[full..].iter().enumerate() {
                out[(full / MR) * kc * MR + p * MR + r] = v;
            }
        }
    }
}

/// Strided GEMM core: `C[i*ldc + j] += Σ_p A(i,p) · B(p,j)` where the
/// operand layouts are described by stride pairs (see [`pack_b`] /
/// [`pack_a_block`]). All public gemm entry points funnel here.
///
/// Depth blocks run in ascending `pc`: B's block is packed, then every
/// [`MC`]-row block of A is packed and multiplied against it.
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
fn gemm_core(
    a: &[f32],
    ars: usize,
    acs: usize,
    b: &[f32],
    brs: usize,
    bcs: usize,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // One counter at the funnel covers every public gemm entry point.
    ntt_obs::counter!("tensor.gemm_calls").inc();
    debug_assert!(a.len() > (m - 1) * ars + (k - 1) * acs, "A too short");
    debug_assert!(b.len() > (k - 1) * brs + (n - 1) * bcs, "B too short");
    debug_assert!(c.len() >= (m - 1) * ldc + n, "C too short");
    let n_panels = n.div_ceil(NR);
    let micro = micro_fn();
    BPACK.with(|bp| {
        APACK.with(|ap| {
            let (mut bp, mut ap) = (bp.borrow_mut(), ap.borrow_mut());
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                bp.clear();
                bp.resize(n_panels * kc * NR, 0.0);
                pack_b(b, brs, bcs, pc, kc, n, &mut bp);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    let mp = mc.div_ceil(MR);
                    ap.clear();
                    ap.resize(mp * kc * MR, 0.0);
                    pack_a_block(a, ars, acs, ic, mc, pc, kc, &mut ap);
                    // Column panels outermost: each B panel stays L1-hot
                    // across every micro-row of this MC block.
                    for jp in 0..n_panels {
                        let j0 = jp * NR;
                        let jw = NR.min(n - j0);
                        let bpanel = &bp[jp * kc * NR..(jp + 1) * kc * NR];
                        for ip in 0..mp {
                            let i0 = ic + ip * MR;
                            let iw = MR.min(m - i0);
                            let apanel = &ap[ip * kc * MR..(ip + 1) * kc * MR];
                            let mut acc = [[0.0f32; NR]; MR];
                            // SAFETY: micro_fn verified the required CPU features.
                            unsafe { micro(kc, apanel, bpanel, &mut acc) };
                            for r in 0..iw {
                                let crow = &mut c[(i0 + r) * ldc + j0..][..jw];
                                for (cv, av) in crow.iter_mut().zip(acc[r].iter()) {
                                    *cv += av;
                                }
                            }
                        }
                    }
                }
            }
        })
    });
}

/// `C[m,n] += A[m,k] · B[k,n]`.
pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_core(a, k, 1, b, n, 1, c, n, m, k, n);
}

/// [`gemm_nn`] over strided views: `A` rows are `lda` apart, `B` rows
/// `ldb` apart, `C` rows `ldc` apart.
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
pub fn gemm_nn_strided(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_core(a, lda, 1, b, ldb, 1, c, ldc, m, k, n);
}

/// `C[m,n] += A[m,k] · B[n,k]ᵀ` — rows of `B` are dotted against rows
/// of `A`. Packing transposes `B` into column panels, so the inner loop
/// is the same independent-lane FMA form as `nn` (a plain dot-product
/// loop is a reduction rustc will not vectorize under strict f32).
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    gemm_core(a, k, 1, b, 1, k, c, n, m, k, n);
}

/// [`gemm_nt`] over strided views (`B` stored `[n, k]` with rows `ldb`
/// apart).
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
pub fn gemm_nt_strided(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_core(a, lda, 1, b, 1, ldb, c, ldc, m, k, n);
}

/// `C[m,n] += A[k,m]ᵀ · B[k,n]`.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_core(a, 1, m, b, n, 1, c, n, m, k, n);
}

/// [`gemm_tn`] over strided views (`A` stored `[k, m]` with rows `lda`
/// apart).
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
pub fn gemm_tn_strided(
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    gemm_core(a, 1, lda, b, ldb, 1, c, ldc, m, k, n);
}

// ---------------------------------------------------------------------------
// exp, and the element-wise kernels built on it.
//
// One branch-free polynomial replaces every libm `expf`/`tanhf` of the
// forward and backward passes. The slice kernels here and the row-wise
// reductions below are plain loops, written once (`*_impl`,
// `#[inline(always)]`) and compiled twice: at the build's baseline, and
// again inside a `#[target_feature(enable = "avx2")]` wrapper where
// LLVM vectorizes the same loop eight lanes wide. No intrinsics, no
// `mul_add`: both compilations are the same IEEE sequence per element.
// ---------------------------------------------------------------------------

/// `eˣ` in f32, branch-free: clamp, `n = round(x·log₂e)` by the
/// add-and-subtract-`1.5·2²³` trick (no `floor`, so the loop vectorizes
/// at the SSE2 baseline too), Cody–Waite reduction `r = x − n·ln2` in
/// two steps, the Cephes `expf` degree-5 polynomial on `r`, and `2ⁿ`
/// built by shifting `n` into the exponent field.
///
/// Contract (each line is a test): within 2e-7 relative of the real
/// `eˣ` on `[-87, 88]` (measured worst, over every f32 in the range:
/// 8.2e-8; glibc `expf`: 6.0e-8);
/// exactly `0.0` for `x < -87`, `-inf` included; exactly `1.0` at `0`;
/// `exp(88)` (finite) for `x > 88`; NaN in, NaN out.
#[inline(always)]
fn exp(x: f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    // ln 2 split so that `n * LN2_HI` is exact (355 is nine bits, |n| ≤ 127).
    const LN2_HI: f32 = 355.0 / 512.0; // 0.693359375
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5·2²³: adding it pushes the fraction bits out of an f32, leaving
    // round-to-nearest-even(v) + 0x4B40_0000 in the bit pattern.
    const ROUND: f32 = 12_582_912.0;
    // Comparisons, not `f32::min`/`max`: a NaN fails both and passes
    // through to the result.
    let c = if x > 88.0 { 88.0 } else { x };
    let c = if c < -87.0 { -87.0 } else { c };
    let shifted = c * LOG2_E + ROUND;
    let n = shifted - ROUND;
    let r = c - n * LN2_HI - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 0.5; // Cephes' 5.0000001201e-1 is 0.5 in f32
    let y = p * (r * r) + r + 1.0;
    // n ∈ [-126, 127] sits in the low bits of `shifted`; the shift drops
    // the 0x4B4 prefix and lands `n + 127` in the exponent field.
    let pow2 = f32::from_bits((shifted.to_bits() << 23).wrapping_add(0x3F80_0000));
    if x < -87.0 {
        0.0
    } else {
        y * pow2
    }
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044_715;

/// `σ(2u)` for `u = √(2/π)·(x + 0.044715·x³)`: the tanh-approximation
/// GELU is `0.5·x·(1 + tanh u) = x·σ(2u)`, so one `exp` serves both the
/// forward and the backward.
#[inline(always)]
fn gelu_gate(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    1.0 / (1.0 + exp(-2.0 * u))
}

#[inline(always)]
fn gelu_fwd_impl(x: &[f32], out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(x) {
        *o = x * gelu_gate(x);
    }
}

#[inline(always)]
fn gelu_bwd_impl(x: &[f32], g: &[f32], out: &mut [f32]) {
    for ((o, &x), &g) in out.iter_mut().zip(x).zip(g) {
        let s = gelu_gate(x);
        let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
        *o = g * (s + x * s * (1.0 - s) * 2.0 * du);
    }
}

/// [`gelu_fwd_impl`] recompiled with AVX2 enabled.
///
/// # Safety
/// Caller must have verified AVX2 support (see [`has_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gelu_fwd_avx2(x: &[f32], out: &mut [f32]) {
    gelu_fwd_impl(x, out);
}

/// [`gelu_bwd_impl`] recompiled with AVX2 enabled.
///
/// # Safety
/// Caller must have verified AVX2 support (see [`has_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gelu_bwd_avx2(x: &[f32], g: &[f32], out: &mut [f32]) {
    gelu_bwd_impl(x, g, out);
}

/// GELU (tanh approximation, as in BERT/ViT) over a slice:
/// `out[i] = x[i] / (1 + exp(-2u))`, which *is* `0.5·x·(1 + tanh u)`.
/// Within 2e-7·(1 + |y|) of the f64 tanh form on `[-12, 12]` (measured
/// 9.7e-8; the libm `tanhf` form it replaces: 8.2e-8), at ~1.5 ns an
/// element with AVX2 and ~2.4 at the SSE2 baseline instead of 18–24.
pub fn gelu_fwd(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: has_avx2 verified the CPU feature the callee needs.
        return unsafe { gelu_fwd_avx2(x, out) };
    }
    gelu_fwd_impl(x, out);
}

/// GELU backward over a slice: `out[i] = g[i] · d/dx gelu(x[i])`, from
/// the same gate as the forward: `g·(s + x·s·(1−s)·2·u′)`.
pub fn gelu_bwd(x: &[f32], g: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(g.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: has_avx2 verified the CPU feature the callee needs.
        return unsafe { gelu_bwd_avx2(x, g, out) };
    }
    gelu_bwd_impl(x, g, out);
}

// ---------------------------------------------------------------------------
// Row-wise reductions: softmax forward and backward, LayerNorm statistics
// and backward.
//
// Each output row needs one or two sums (or a max) over its own `d`
// columns, folded left to right. Run a row at a time, that fold is one
// serial chain of `d` dependent adds, so the kernel waits on add latency
// with the vector units idle. Instead rows are taken `ROW_GROUP` at a
// time and advance side by side, one lane per row: column `j` of every
// row of the group is folded in before column `j + 1` of any. Each lane
// is still its own row's fold, in ascending column order from the same
// starting value, so every row keeps its bits — the lanes run across
// rows, never within a row. The last `rows % ROW_GROUP` rows run as
// groups of one. Like GELU, each kernel is written once (`*_impl`) and
// compiled at the baseline and again with AVX2.
// ---------------------------------------------------------------------------

/// Rows folded side by side by the row-wise reductions: one 256-bit
/// lane per row on the AVX2 path.
const ROW_GROUP: usize = 8;

/// The `G` rows of width `d` at the front of `x`, one slice each.
#[inline(always)]
fn group_rows<const G: usize>(x: &[f32], d: usize) -> [&[f32]; G] {
    // A plain loop, not `array::from_fn`, which does not inline into
    // the AVX2 compilation: there the rows would be reloaded from the
    // stack, with a bounds check, at every `row[j]`.
    let mut rows = [&x[..0]; G];
    for (r, row) in rows.iter_mut().enumerate() {
        *row = &x[r * d..][..d];
    }
    rows
}

/// Softmax forward of the `G` rows starting at row `r0`: the max and the
/// sum row-grouped, the exponent and the scaling passes row by row.
#[inline(always)]
fn softmax_fwd_rows<const G: usize>(r0: usize, x: &[f32], scale: f32, d: usize, out: &mut [f32]) {
    let xs: [&[f32]; G] = group_rows(&x[r0 * d..], d);
    let out = &mut out[r0 * d..][..G * d];
    let mut mx = [f32::NEG_INFINITY; G];
    for j in 0..d {
        for (m, row) in mx.iter_mut().zip(&xs) {
            *m = m.max(scale * row[j]);
        }
    }
    for ((orow, row), &m) in out.chunks_exact_mut(d).zip(&xs).zip(&mx) {
        for (o, &v) in orow.iter_mut().zip(*row) {
            *o = exp(scale * v - m);
        }
    }
    let mut sum = [0.0f32; G];
    let os: [&[f32]; G] = group_rows(out, d);
    for j in 0..d {
        for (s, row) in sum.iter_mut().zip(&os) {
            *s += row[j];
        }
    }
    for (orow, &s) in out.chunks_exact_mut(d).zip(&sum) {
        let inv = 1.0 / s;
        for o in orow {
            *o *= inv;
        }
    }
}

#[inline(always)]
fn scaled_softmax_fwd_impl(x: &[f32], scale: f32, d: usize, out: &mut [f32]) {
    let rows = x.len() / d;
    let split = rows - rows % ROW_GROUP;
    for r0 in (0..split).step_by(ROW_GROUP) {
        softmax_fwd_rows::<ROW_GROUP>(r0, x, scale, d, out);
    }
    for r0 in split..rows {
        softmax_fwd_rows::<1>(r0, x, scale, d, out);
    }
}

/// Softmax backward of the `G` rows starting at row `r0`: the products
/// `y ⊙ g` row by row into `gx`, their sums (the dot products)
/// row-grouped, then the output pass row by row over them.
#[inline(always)]
fn softmax_bwd_rows<const G: usize>(
    r0: usize,
    y: &[f32],
    g: &[f32],
    scale: f32,
    d: usize,
    gx: &mut [f32],
) {
    let span = r0 * d..(r0 + G) * d;
    let (y, g, gx) = (&y[span.clone()], &g[span.clone()], &mut gx[span]);
    for ((o, &yv), &gv) in gx.iter_mut().zip(y).zip(g) {
        *o = yv * gv;
    }
    let mut dot = [0.0f32; G];
    let products: [&[f32]; G] = group_rows(gx, d);
    for j in 0..d {
        for (acc, row) in dot.iter_mut().zip(&products) {
            *acc += row[j];
        }
    }
    let rows = gx
        .chunks_exact_mut(d)
        .zip(y.chunks_exact(d))
        .zip(g.chunks_exact(d));
    for (((o, yr), gr), &dt) in rows.zip(&dot) {
        for ((o, &yv), &gv) in o.iter_mut().zip(yr).zip(gr) {
            *o = scale * (yv * (gv - dt));
        }
    }
}

#[inline(always)]
fn softmax_bwd_impl(y: &[f32], g: &[f32], scale: f32, d: usize, gx: &mut [f32]) {
    let rows = y.len() / d;
    let split = rows - rows % ROW_GROUP;
    for r0 in (0..split).step_by(ROW_GROUP) {
        softmax_bwd_rows::<ROW_GROUP>(r0, y, g, scale, d, gx);
    }
    for r0 in split..rows {
        softmax_bwd_rows::<1>(r0, y, g, scale, d, gx);
    }
}

/// LayerNorm statistics of the `G` rows starting at row `r0`: both sums
/// row-grouped, each from `Iterator::sum`'s `-0.0`, so a row's mean and
/// variance are exactly `row.iter().sum::<f32>() / d` and the same of
/// the squared deviations.
#[inline(always)]
fn layer_norm_stats_rows<const G: usize>(
    r0: usize,
    x: &[f32],
    d: usize,
    eps: f32,
    mean: &mut [f32],
    rstd: &mut [f32],
) {
    let xs: [&[f32]; G] = group_rows(&x[r0 * d..], d);
    let mut mu = [-0.0f32; G];
    for j in 0..d {
        for (s, row) in mu.iter_mut().zip(&xs) {
            *s += row[j];
        }
    }
    for s in &mut mu {
        *s /= d as f32;
    }
    let mut var = [-0.0f32; G];
    for j in 0..d {
        for ((s, row), &m) in var.iter_mut().zip(&xs).zip(&mu) {
            *s += (row[j] - m) * (row[j] - m);
        }
    }
    mean[r0..r0 + G].copy_from_slice(&mu);
    for (rs, &v) in rstd[r0..r0 + G].iter_mut().zip(&var) {
        *rs = 1.0 / (v / d as f32 + eps).sqrt();
    }
}

#[inline(always)]
fn layer_norm_stats_impl(x: &[f32], d: usize, eps: f32, mean: &mut [f32], rstd: &mut [f32]) {
    let rows = x.len() / d;
    let split = rows - rows % ROW_GROUP;
    for r0 in (0..split).step_by(ROW_GROUP) {
        layer_norm_stats_rows::<ROW_GROUP>(r0, x, d, eps, mean, rstd);
    }
    for r0 in split..rows {
        layer_norm_stats_rows::<1>(r0, x, d, eps, mean, rstd);
    }
}

/// LayerNorm input gradient of the `G` rows starting at row `r0`: the
/// two row means of `gx̂ = g ⊙ γ` and `gx̂ ⊙ x̂` row-grouped, the output
/// pass row by row.
#[inline(always)]
fn layer_norm_bwd_rows<const G: usize>(
    r0: usize,
    xhat: &[f32],
    g: &[f32],
    gamma: &[f32],
    rstd: &[f32],
    d: usize,
    gx: &mut [f32],
) {
    let xs: [&[f32]; G] = group_rows(&xhat[r0 * d..], d);
    let gs: [&[f32]; G] = group_rows(&g[r0 * d..], d);
    let mut m1 = [0.0f32; G];
    let mut m2 = [0.0f32; G];
    for (j, &gm) in gamma.iter().enumerate() {
        for (((a, b), xr), gr) in m1.iter_mut().zip(&mut m2).zip(&xs).zip(&gs) {
            let gxh = gr[j] * gm;
            *a += gxh;
            *b += gxh * xr[j];
        }
    }
    let gx = &mut gx[r0 * d..][..G * d];
    for r in 0..G {
        let (m1, m2, rs) = (m1[r] / d as f32, m2[r] / d as f32, rstd[r0 + r]);
        let row = gx[r * d..][..d].iter_mut().zip(xs[r]).zip(gs[r]).zip(gamma);
        for (((o, &xh), &gv), &gm) in row {
            *o = rs * (gv * gm - m1 - xh * m2);
        }
    }
}

#[inline(always)]
fn layer_norm_bwd_impl(
    xhat: &[f32],
    g: &[f32],
    gamma: &[f32],
    rstd: &[f32],
    gx: &mut [f32],
    ggamma: &mut [f32],
    gbeta: &mut [f32],
) {
    let d = gamma.len();
    // γ and β gradients sum over rows, each column in ascending row
    // order: a row at a time, lanes across columns.
    for (xr, gr) in xhat.chunks_exact(d).zip(g.chunks_exact(d)) {
        for (((gg, gb), &xh), &gv) in ggamma.iter_mut().zip(gbeta.iter_mut()).zip(xr).zip(gr) {
            *gg += gv * xh;
            *gb += gv;
        }
    }
    let rows = xhat.len() / d;
    let split = rows - rows % ROW_GROUP;
    for r0 in (0..split).step_by(ROW_GROUP) {
        layer_norm_bwd_rows::<ROW_GROUP>(r0, xhat, g, gamma, rstd, d, gx);
    }
    for r0 in split..rows {
        layer_norm_bwd_rows::<1>(r0, xhat, g, gamma, rstd, d, gx);
    }
}

/// [`scaled_softmax_fwd_impl`] recompiled with AVX2 enabled.
///
/// # Safety
/// Caller must have verified AVX2 support (see [`has_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scaled_softmax_fwd_avx2(x: &[f32], scale: f32, d: usize, out: &mut [f32]) {
    scaled_softmax_fwd_impl(x, scale, d, out);
}

/// [`softmax_bwd_impl`] recompiled with AVX2 enabled.
///
/// # Safety
/// Caller must have verified AVX2 support (see [`has_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn softmax_bwd_avx2(y: &[f32], g: &[f32], scale: f32, d: usize, gx: &mut [f32]) {
    softmax_bwd_impl(y, g, scale, d, gx);
}

/// [`layer_norm_stats_impl`] recompiled with AVX2 enabled.
///
/// # Safety
/// Caller must have verified AVX2 support (see [`has_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn layer_norm_stats_avx2(x: &[f32], d: usize, eps: f32, mean: &mut [f32], rstd: &mut [f32]) {
    layer_norm_stats_impl(x, d, eps, mean, rstd);
}

/// [`layer_norm_bwd_impl`] recompiled with AVX2 enabled.
///
/// # Safety
/// Caller must have verified AVX2 support (see [`has_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn layer_norm_bwd_avx2(
    xhat: &[f32],
    g: &[f32],
    gamma: &[f32],
    rstd: &[f32],
    gx: &mut [f32],
    ggamma: &mut [f32],
    gbeta: &mut [f32],
) {
    layer_norm_bwd_impl(xhat, g, gamma, rstd, gx, ggamma, gbeta);
}

/// `out = softmax(scale * x)` over rows of width `d`, numerically
/// stabilized: the weights of one attention block, in one pass per row
/// with no scaled-score copy. Panics if `d == 0`.
pub fn scaled_softmax_fwd(x: &[f32], scale: f32, d: usize, out: &mut [f32]) {
    assert!(d > 0, "softmax over empty axis");
    assert_eq!(
        x.len(),
        out.len(),
        "softmax input and output lengths differ"
    );
    debug_assert_eq!(x.len() % d, 0);
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: has_avx2 verified the CPU feature the callee needs.
        return unsafe { scaled_softmax_fwd_avx2(x, scale, d, out) };
    }
    scaled_softmax_fwd_impl(x, scale, d, out);
}

/// Softmax backward in one pass over the rows: given `y = softmax(scale·x)`
/// and upstream `g`, writes `gx = scale · y ⊙ (g − ⟨y, g⟩)` without any
/// intermediate tensor: the softmax step of [`attn_fused_bwd`]. Panics
/// if `d == 0`.
pub fn softmax_bwd(y: &[f32], g: &[f32], scale: f32, d: usize, gx: &mut [f32]) {
    assert!(d > 0, "softmax over empty axis");
    assert_eq!(
        y.len(),
        g.len(),
        "softmax weights and gradient lengths differ"
    );
    assert_eq!(
        y.len(),
        gx.len(),
        "softmax weights and output lengths differ"
    );
    debug_assert_eq!(y.len() % d, 0);
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: has_avx2 verified the CPU feature the callee needs.
        return unsafe { softmax_bwd_avx2(y, g, scale, d, gx) };
    }
    softmax_bwd_impl(y, g, scale, d, gx);
}

/// LayerNorm statistics over rows of width `d`: `mean[r]` is the row's
/// mean and `rstd[r] = 1 / √(var + eps)` its reciprocal standard
/// deviation, each sum taken as `row.iter().sum::<f32>()` would. Panics
/// if `d == 0`.
pub(crate) fn layer_norm_stats(x: &[f32], d: usize, eps: f32, mean: &mut [f32], rstd: &mut [f32]) {
    assert!(d > 0, "layer norm over empty axis");
    assert_eq!(x.len(), mean.len() * d, "one mean per row");
    assert_eq!(x.len(), rstd.len() * d, "one rstd per row");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: has_avx2 verified the CPU feature the callee needs.
        return unsafe { layer_norm_stats_avx2(x, d, eps, mean, rstd) };
    }
    layer_norm_stats_impl(x, d, eps, mean, rstd);
}

/// LayerNorm backward over rows of width `d = gamma.len()`, from the
/// normalized input `xhat`, the reciprocal standard deviations `rstd`
/// (one per row) and the upstream gradient `g`: overwrites `gx` with
/// `rstd · (gx̂ − mean(gx̂) − x̂ · mean(gx̂ ⊙ x̂))` for `gx̂ = g ⊙ γ`, and
/// adds the γ and β gradients into `ggamma` and `gbeta`. Panics if
/// `gamma` is empty.
pub(crate) fn layer_norm_bwd(
    xhat: &[f32],
    g: &[f32],
    gamma: &[f32],
    rstd: &[f32],
    gx: &mut [f32],
    ggamma: &mut [f32],
    gbeta: &mut [f32],
) {
    let d = gamma.len();
    assert!(d > 0, "layer norm over empty axis");
    assert_eq!(xhat.len(), rstd.len() * d, "one rstd per row");
    assert_eq!(g.len(), xhat.len(), "gradient and input lengths differ");
    assert_eq!(gx.len(), xhat.len(), "output and input lengths differ");
    assert_eq!(ggamma.len(), d, "gamma gradient must be [D]");
    assert_eq!(gbeta.len(), d, "beta gradient must be [D]");
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: has_avx2 verified the CPU feature the callee needs.
        return unsafe { layer_norm_bwd_avx2(xhat, g, gamma, rstd, gx, ggamma, gbeta) };
    }
    layer_norm_bwd_impl(xhat, g, gamma, rstd, gx, ggamma, gbeta);
}

// ---------------------------------------------------------------------------
// Attention over head-interleaved [B, T, H, dh] layouts.
//
// Q/K/V stay exactly as the per-head reshape of the projection output —
// `[B, T, H, dh]` row-major — and every product below reads them through
// a row stride of `h * dh`: nothing is transposed or copied. Each
// `(b, h)` block runs the classic math on one `T × T` weight matrix —
// `S = Q·Kᵀ`, `W = softmax(scale · S)` row by row, `ctx = W·V` — with the
// strided GEMMs and the softmax kernel above, so a block's bits are
// those of the same kernels run over whole `[B, H, T, T]` tensors.
// Each `b` is an independent, contiguous slice of every operand and
// output, so results are bit-identical across batch compositions.
// ---------------------------------------------------------------------------

std::thread_local! {
    /// Two `T × T` blocks per thread: the forward's scores and, when the
    /// caller keeps no weights, its weights; the backward's `∂W` and
    /// `∂S`. Capacity is retained across calls: steady-state serving
    /// does not allocate here.
    static ATTN_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's two `tt`-long attention scratch blocks.
fn with_attn_scratch<R>(tt: usize, f: impl FnOnce(&mut [f32], &mut [f32]) -> R) -> R {
    ATTN_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        if scratch.len() < 2 * tt {
            scratch.resize(2 * tt, 0.0);
        }
        let (first, second) = scratch[..2 * tt].split_at_mut(tt);
        f(first, second)
    })
}

/// Attention forward: `ctx[b,i,h,:] = Σ_j softmax_j(scale · q_i·k_j) · v_j`
/// over `[B, T, H, dh]` views, overwriting `ctx` (same layout). When
/// `weights` is `Some`, the softmax weights are written to it
/// (`[B, H, T, T]`) for [`attn_fused_bwd`]; with `None` each block's
/// weights live only in a per-thread `T × T` scratch. Either way the
/// context is the same bits.
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
pub fn attn_fused_fwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    ctx: &mut [f32],
    weights: Option<&mut [f32]>,
    b: usize,
    t: usize,
    h: usize,
    dh: usize,
) {
    debug_assert_eq!(q.len(), b * t * h * dh);
    debug_assert_eq!(k.len(), b * t * h * dh);
    debug_assert_eq!(v.len(), b * t * h * dh);
    debug_assert_eq!(ctx.len(), b * t * h * dh);
    if b == 0 || t == 0 || h == 0 {
        return;
    }
    ntt_obs::counter!("tensor.attn_fused_calls").inc();
    let (hd, tt) = (h * dh, t * t);
    // An empty slice stands for "keep no weights".
    let weights = weights.unwrap_or_default();
    debug_assert!(weights.is_empty() || weights.len() == b * h * tt);
    with_attn_scratch(tt, |scores, own| {
        ctx.fill(0.0);
        for bi in 0..b {
            for hi in 0..h {
                let base = bi * t * hd + hi * dh;
                let w = if weights.is_empty() {
                    &mut own[..]
                } else {
                    &mut weights[(bi * h + hi) * tt..][..tt]
                };
                scores.fill(0.0);
                gemm_nt_strided(&q[base..], hd, &k[base..], hd, scores, t, t, dh, t);
                scaled_softmax_fwd(scores, scale, t, w);
                gemm_nn_strided(w, t, &v[base..], hd, &mut ctx[base..], hd, t, t, dh);
            }
        }
    })
}

/// Attention backward from the forward's softmax `weights`
/// (`[B, H, T, T]`) and the upstream gradient `g` (`[B, T, H, dh]`): per
/// block `∂W = G·Vᵀ` and `∂S = softmax_bwd(W, ∂W)`, then `dQ = ∂S·K`,
/// `dK = ∂Sᵀ·Q` and `dV = Wᵀ·G`, accumulated into `gq`/`gk`/`gv` (`+=`,
/// matching the other backward kernels).
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
pub fn attn_fused_bwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    g: &[f32],
    weights: &[f32],
    scale: f32,
    gq: &mut [f32],
    gk: &mut [f32],
    gv: &mut [f32],
    b: usize,
    t: usize,
    h: usize,
    dh: usize,
) {
    debug_assert_eq!(g.len(), b * t * h * dh);
    debug_assert_eq!(weights.len(), b * h * t * t);
    if b == 0 || t == 0 || h == 0 {
        return;
    }
    let (hd, tt) = (h * dh, t * t);
    with_attn_scratch(tt, |gw, gs| {
        for bi in 0..b {
            for hi in 0..h {
                let base = bi * t * hd + hi * dh;
                let w = &weights[(bi * h + hi) * tt..][..tt];
                gw.fill(0.0);
                gemm_nt_strided(&g[base..], hd, &v[base..], hd, gw, t, t, dh, t);
                softmax_bwd(w, gw, scale, t, gs);
                gemm_nn_strided(gs, t, &k[base..], hd, &mut gq[base..], hd, t, t, dh);
                gemm_tn_strided(gs, t, &q[base..], hd, &mut gk[base..], hd, t, t, dh);
                gemm_tn_strided(w, t, &g[base..], hd, &mut gv[base..], hd, t, t, dh);
            }
        }
    })
}

/// Naive triple-loop reference GEMMs, row-serial copies of the
/// row-grouped reductions, and attention composed from them: the
/// ground truth the tiled engine and the row groups are tested against
/// (the reductions bit for bit), and the baseline the `kernels` bench
/// measures its GFLOP/s floor from. Deliberately unblocked, unpacked
/// and a row at a time — do not "optimize" these.
pub mod reference {
    /// `C[m,n] += A[m,k] · B[k,n]`, i-j-k order.
    pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] += acc;
            }
        }
    }

    /// `C[m,n] += A[m,k] · B[n,k]ᵀ`.
    pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[j * k + p];
                }
                c[i * n + j] += acc;
            }
        }
    }

    /// `C[m,n] += A[k,m]ᵀ · B[k,n]`.
    pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[p * m + i] * b[p * n + j];
                }
                c[i * n + j] += acc;
            }
        }
    }

    /// Softmax forward a row at a time, each row's max and sum one
    /// serial fold: the per-row order the row-grouped
    /// [`super::scaled_softmax_fwd`] keeps.
    pub fn scaled_softmax_fwd(x: &[f32], scale: f32, d: usize, out: &mut [f32]) {
        for (row, orow) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            let mut mx = f32::NEG_INFINITY;
            for &v in row {
                mx = mx.max(scale * v);
            }
            for (o, &v) in orow.iter_mut().zip(row) {
                *o = super::exp(scale * v - mx);
            }
            let mut sum = 0.0f32;
            for &e in orow.iter() {
                sum += e;
            }
            let inv = 1.0 / sum;
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
    }

    /// Softmax backward a row at a time (see [`super::softmax_bwd`]).
    pub fn softmax_bwd(y: &[f32], g: &[f32], scale: f32, d: usize, gx: &mut [f32]) {
        for ((ys, gs), gxs) in y
            .chunks_exact(d)
            .zip(g.chunks_exact(d))
            .zip(gx.chunks_exact_mut(d))
        {
            let mut dot = 0.0f32;
            for (&yv, &gv) in ys.iter().zip(gs.iter()) {
                dot += yv * gv;
            }
            for ((o, &yv), &gv) in gxs.iter_mut().zip(ys.iter()).zip(gs.iter()) {
                *o = scale * (yv * (gv - dot));
            }
        }
    }

    /// LayerNorm statistics a row at a time, by `Iterator::sum` (see
    /// `super::layer_norm_stats`).
    #[cfg(test)]
    pub(crate) fn layer_norm_stats(
        x: &[f32],
        d: usize,
        eps: f32,
        mean: &mut [f32],
        rstd: &mut [f32],
    ) {
        for (r, row) in x.chunks_exact(d).enumerate() {
            let mu = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            mean[r] = mu;
            rstd[r] = 1.0 / (var + eps).sqrt();
        }
    }

    /// LayerNorm backward a row at a time, every column's four
    /// accumulations in one loop (see `super::layer_norm_bwd`).
    #[cfg(test)]
    pub(crate) fn layer_norm_bwd(
        xhat: &[f32],
        g: &[f32],
        gamma: &[f32],
        rstd: &[f32],
        gx: &mut [f32],
        ggamma: &mut [f32],
        gbeta: &mut [f32],
    ) {
        let d = gamma.len();
        for (row, (xh, gs)) in xhat.chunks(d).zip(g.chunks(d)).enumerate() {
            let mut mean_gxh = 0.0f32;
            let mut mean_gxh_xh = 0.0f32;
            for j in 0..d {
                let gxh = gs[j] * gamma[j];
                mean_gxh += gxh;
                mean_gxh_xh += gxh * xh[j];
                ggamma[j] += gs[j] * xh[j];
                gbeta[j] += gs[j];
            }
            mean_gxh /= d as f32;
            mean_gxh_xh /= d as f32;
            for j in 0..d {
                let gxh = gs[j] * gamma[j];
                gx[row * d + j] = rstd[row] * (gxh - mean_gxh - xh[j] * mean_gxh_xh);
            }
        }
    }

    /// Attention by definition: each `(b, h)` head of the interleaved
    /// `[B, T, H, dh]` layout transposed out into dense `[T, dh]`
    /// matrices, the classic chain and its backward run on them with the
    /// GEMMs and the row-serial softmax above, and the results
    /// scattered back. Returns `[ctx, weights, dQ, dK, dV]` for the
    /// upstream gradient `g`.
    pub fn attention(
        [q, k, v, g]: [&[f32]; 4],
        scale: f32,
        [b, t, h, dh]: [usize; 4],
    ) -> [Vec<f32>; 5] {
        let [mut ctx, mut gq, mut gk, mut gv] = [(); 4].map(|_| vec![0.0; b * t * h * dh]);
        let mut weights = vec![0.0; b * h * t * t];
        let at = |bi: usize, e: usize, hi: usize| ((bi * t + e / dh) * h + hi) * dh + e % dh;
        for bi in 0..b {
            for hi in 0..h {
                let head =
                    |x: &[f32]| -> Vec<f32> { (0..t * dh).map(|e| x[at(bi, e, hi)]).collect() };
                let (qh, kh, vh, gh) = (head(q), head(k), head(v), head(g));
                let [mut s, mut gw, mut gs] = [(); 3].map(|_| vec![0.0; t * t]);
                gemm_nt(&qh, &kh, &mut s, t, dh, t);
                let w = &mut weights[(bi * h + hi) * t * t..][..t * t];
                scaled_softmax_fwd(&s, scale, t, w);
                gemm_nt(&gh, &vh, &mut gw, t, dh, t);
                softmax_bwd(w, &gw, scale, t, &mut gs);
                let mut outs = [(); 4].map(|_| vec![0.0; t * dh]);
                gemm_nn(w, &vh, &mut outs[0], t, t, dh);
                gemm_nn(&gs, &kh, &mut outs[1], t, t, dh);
                gemm_tn(&gs, &qh, &mut outs[2], t, t, dh);
                gemm_tn(w, &gh, &mut outs[3], t, t, dh);
                for (dst, src) in [&mut ctx, &mut gq, &mut gk, &mut gv].into_iter().zip(&outs) {
                    for (e, &x) in src.iter().enumerate() {
                        dst[at(bi, e, hi)] = x;
                    }
                }
            }
        }
        [ctx, weights, gq, gk, gv]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        reference::gemm_nn(a, b, &mut c, m, k, n);
        c
    }

    fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
        crate::Tensor::randn(&[n], seed).into_data()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn nn_matches_naive_small() {
        let (m, k, n) = (3, 4, 5);
        let a = rand_vec(m * k, 1);
        let b = rand_vec(k * n, 2);
        let mut c = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        assert_close(&c, &naive_nn(&a, &b, m, k, n));
    }

    #[test]
    fn nn_matches_naive_large() {
        // Larger than every tile dimension and odd in every axis.
        let (m, k, n) = (97, 300, 130);
        let a = rand_vec(m * k, 3);
        let b = rand_vec(k * n, 4);
        let mut c = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        assert_close(&c, &naive_nn(&a, &b, m, k, n));
    }

    #[test]
    fn nn_accumulates_into_c() {
        let (m, k, n) = (2, 2, 2);
        let a = vec![1.0, 0.0, 0.0, 1.0]; // identity
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![1.0; 4];
        gemm_nn(&a, &b, &mut c, m, k, n);
        assert_close(&c, &[6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn nt_matches_transposed_naive() {
        let (m, k, n) = (6, 7, 5);
        let a = rand_vec(m * k, 5);
        let bt = rand_vec(n * k, 6); // B stored as [n, k]
                                     // Reference: build B=[k,n] from bt and run naive.
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_nt(&a, &bt, &mut c, m, k, n);
        assert_close(&c, &naive_nn(&a, &b, m, k, n));
    }

    #[test]
    fn tn_matches_transposed_naive() {
        let (m, k, n) = (5, 8, 4);
        let at = rand_vec(k * m, 7); // A stored as [k, m]
        let b = rand_vec(k * n, 8);
        let mut a = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = at[p * m + i];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_tn(&at, &b, &mut c, m, k, n);
        assert_close(&c, &naive_nn(&a, &b, m, k, n));
    }

    #[test]
    fn tn_large() {
        let (m, k, n) = (80, 270, 90);
        let at = rand_vec(k * m, 9);
        let b = rand_vec(k * n, 10);
        let mut a = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = at[p * m + i];
            }
        }
        let mut c1 = vec![0.0; m * n];
        gemm_tn(&at, &b, &mut c1, m, k, n);
        assert_close(&c1, &naive_nn(&a, &b, m, k, n));
    }

    #[test]
    fn strided_views_match_dense() {
        // Embed a [5, 6] A and [6, 7] B inside wider buffers and check
        // the strided entry points against the dense ones.
        let (m, k, n) = (5usize, 6, 7);
        let (lda, ldb, ldc) = (k + 3, n + 2, n + 4);
        let a = rand_vec(m * lda, 21);
        let b = rand_vec(k * ldb, 22);
        let dense_a: Vec<f32> = (0..m * k).map(|i| a[(i / k) * lda + i % k]).collect();
        let dense_b: Vec<f32> = (0..k * n).map(|i| b[(i / n) * ldb + i % n]).collect();
        let mut c = vec![0.0; (m - 1) * ldc + n];
        gemm_nn_strided(&a, lda, &b, ldb, &mut c, ldc, m, k, n);
        let want = naive_nn(&dense_a, &dense_b, m, k, n);
        for i in 0..m {
            for j in 0..n {
                assert!((c[i * ldc + j] - want[i * n + j]).abs() < 1e-3);
            }
        }
    }

    /// `[q, k, v, g]` of one `[B, T, H, dh]` shape.
    fn attn_inputs(n: usize, seed: u64) -> [Vec<f32>; 4] {
        [0, 1, 2, 3].map(|i| rand_vec(n, seed + i))
    }

    fn attn_refs(inputs: &[Vec<f32>; 4]) -> [&[f32]; 4] {
        inputs.each_ref().map(Vec::as_slice)
    }

    /// Shapes straddling every tile boundary: `t` below/at/above NR,
    /// `t = 1`, primes, `dh` a multiple of nothing, and the served shape.
    const ATTN_SHAPES: [(usize, usize, usize, usize); 7] = [
        (1, 1, 1, 3),
        (2, 5, 3, 4),
        (1, 15, 2, 7),
        (1, 16, 1, 8),
        (2, 17, 2, 5),
        (1, 31, 1, 16),
        (1, 48, 4, 16),
    ];

    #[test]
    fn attn_kernels_match_transpose_reference() {
        // Every depth here fits one KC block, where the engine sums each
        // product in the reference's order: the match is exact.
        for (b, t, h, dh) in ATTN_SHAPES {
            let inputs = attn_inputs(b * t * h * dh, 31);
            let [q, k, v, _] = &inputs;
            let scale = 1.0 / (dh as f32).sqrt();
            let [want, want_w, ..] = reference::attention(attn_refs(&inputs), scale, [b, t, h, dh]);
            let mut ctx = vec![f32::NAN; want.len()];
            let mut w = vec![f32::NAN; want_w.len()];
            attn_fused_fwd(q, k, v, scale, &mut ctx, Some(&mut w), b, t, h, dh);
            assert_eq!(ctx, want, "context at (b={b},t={t},h={h},dh={dh})");
            assert_eq!(w, want_w, "weights at (b={b},t={t},h={h},dh={dh})");
        }
    }

    #[test]
    fn scaled_softmax_rows_are_distributions() {
        let x = rand_vec(6 * 9, 41);
        let mut y = vec![0.0; x.len()];
        scaled_softmax_fwd(&x, 0.5, 9, &mut y);
        for row in y.chunks(9) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn softmax_bwd_matches_formula() {
        let y = vec![0.2f32, 0.3, 0.5, 0.6, 0.1, 0.3];
        let g = vec![1.0f32, -1.0, 0.5, 0.0, 2.0, 1.0];
        let mut gx = vec![0.0; 6];
        softmax_bwd(&y, &g, 2.0, 3, &mut gx);
        for r in 0..2 {
            let ys = &y[r * 3..r * 3 + 3];
            let gs = &g[r * 3..r * 3 + 3];
            let dot: f32 = ys.iter().zip(gs).map(|(a, b)| a * b).sum();
            for j in 0..3 {
                let want = 2.0 * ys[j] * (gs[j] - dot);
                assert!((gx[r * 3 + j] - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn degenerate_dims_are_fine() {
        let mut c = vec![0.0; 0];
        gemm_nn(&[], &[], &mut c, 0, 0, 0);
        let a = vec![2.0];
        let b = vec![3.0];
        let mut c = vec![0.0];
        gemm_nn(&a, &b, &mut c, 1, 1, 1);
        assert_eq!(c, vec![6.0]);
        scaled_softmax_fwd(&[], 1.0, 3, &mut []);
        softmax_bwd(&[], &[], 1.0, 3, &mut []);
        attn_fused_fwd(&[], &[], &[], 1.0, &mut [], None, 0, 3, 2, 4);
        attn_fused_bwd(
            &[],
            &[],
            &[],
            &[],
            &[],
            1.0,
            &mut [],
            &mut [],
            &mut [],
            0,
            3,
            2,
            4,
        );
    }

    #[test]
    #[should_panic(expected = "softmax over empty axis")]
    fn softmax_fwd_rejects_an_empty_axis() {
        scaled_softmax_fwd(&[], 1.0, 0, &mut []);
    }

    #[test]
    #[should_panic(expected = "softmax over empty axis")]
    fn softmax_bwd_rejects_an_empty_axis() {
        softmax_bwd(&[], &[], 1.0, 0, &mut []);
    }

    #[test]
    fn fused_attention_matches_classic_chain() {
        // The context is the classic chain's whether the caller keeps the
        // weights or not, and a stale `ctx` never leaks into it.
        for (b, t, h, dh) in ATTN_SHAPES {
            let inputs = attn_inputs(b * t * h * dh, 51);
            let [q, k, v, _] = &inputs;
            let [want, ..] = reference::attention(attn_refs(&inputs), 0.7, [b, t, h, dh]);
            let mut ctx = vec![f32::NAN; want.len()];
            attn_fused_fwd(q, k, v, 0.7, &mut ctx, None, b, t, h, dh);
            assert_eq!(ctx, want, "(b={b},t={t},h={h},dh={dh})");
        }
    }

    #[test]
    fn fused_attention_is_batch_composition_invariant() {
        // Window w's context must be bit-identical whether it rides in
        // a batch of 4 or alone — each batch row is an independent,
        // identically-ordered computation.
        let (b, t, h, dh) = (4usize, 13, 2, 6);
        let n = b * t * h * dh;
        let [q, k, v, _] = attn_inputs(n, 71);
        let mut batched = vec![0.0; n];
        attn_fused_fwd(&q, &k, &v, 0.3, &mut batched, None, b, t, h, dh);
        let per = t * h * dh;
        for bi in 0..b {
            let mut solo = vec![0.0; per];
            let row = |x: &[f32]| x[bi * per..][..per].to_vec();
            attn_fused_fwd(
                &row(&q),
                &row(&k),
                &row(&v),
                0.3,
                &mut solo,
                None,
                1,
                t,
                h,
                dh,
            );
            assert_eq!(
                &batched[bi * per..][..per],
                &solo[..],
                "window {bi} bits differ"
            );
        }
    }

    #[test]
    fn fused_backward_matches_classic_chain_backward() {
        // dQ, dK and dV from the kept weights, exactly the reference
        // chain's backward: ∂W = G·Vᵀ, ∂S by softmax_bwd, dQ = ∂S·K,
        // dK = ∂Sᵀ·Q, dV = Wᵀ·G.
        for (b, t, h, dh) in ATTN_SHAPES {
            let n = b * t * h * dh;
            let inputs = attn_inputs(n, 81);
            let [q, k, v, g] = &inputs;
            let scale = 1.0 / (dh as f32).sqrt();
            let [_, w, want @ ..] = reference::attention(attn_refs(&inputs), scale, [b, t, h, dh]);
            let mut got = [(); 3].map(|_| vec![0.0; n]);
            let [gq, gk, gv] = &mut got;
            attn_fused_bwd(q, k, v, g, &w, scale, gq, gk, gv, b, t, h, dh);
            assert_eq!(got, want, "(b={b},t={t},h={h},dh={dh})");
        }
    }

    // ---- exp, GELU, softmax: the polynomial is a contract ----

    #[test]
    fn exp_is_within_2e7_relative_on_its_whole_domain() {
        // 1.75 M points, 1e-4 apart: dense enough to land on both sides
        // of every rounding boundary of the reduction (they sit ln2 apart).
        let worst = (0..=1_750_000)
            .map(|i| {
                let x = -87.0 + i as f32 * 1e-4;
                let want = (x as f64).exp();
                ((exp(x) as f64 - want) / want).abs()
            })
            .fold(0.0, f64::max);
        assert!(worst <= 2e-7, "worst relative error {worst:e}");
    }

    #[test]
    fn exp_edge_values_are_exact() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        for x in [-87.000_01f32, -88.0, -1e3, -1e30, f32::MIN] {
            assert_eq!(exp(x), 0.0, "exp({x})");
        }
        assert!(exp(-87.0) > 0.0);
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        // Above the clamp the result saturates at exp(88), finite.
        assert_eq!(exp(1e3), exp(88.0));
        assert_eq!(exp(f32::INFINITY), exp(88.0));
        assert!(exp(88.0).is_finite());
        // A softmax row's -inf score less its finite row max.
        assert_eq!(exp(f32::NEG_INFINITY - 3.5), 0.0);
    }

    fn gelu_ref(x: f64) -> f64 {
        let u = (2.0 / std::f64::consts::PI).sqrt() * (x + 0.044715 * x * x * x);
        0.5 * x * (1.0 + u.tanh())
    }

    fn gelu1(x: f32) -> f32 {
        let mut y = [0.0];
        gelu_fwd(&[x], &mut y);
        y[0]
    }

    #[test]
    fn gelu_fwd_matches_f64_tanh_form() {
        let mut worst = 0.0f64;
        for i in 0..=240_000 {
            let x = -12.0 + i as f32 * 1e-4;
            let want = gelu_ref(x as f64);
            worst = worst.max((gelu1(x) as f64 - want).abs() / (1.0 + want.abs()));
        }
        assert!(worst <= 2e-7, "worst |Δ|/(1+|y|) = {worst:e}");
        // Saturation: the gate reaches 0 and 1 without NaN or overflow.
        assert!(gelu1(-40.0).abs() < 1e-30);
        assert_eq!(gelu1(40.0), 40.0);
        assert_eq!(gelu1(0.0), 0.0);
        assert!(gelu1(f32::NAN).is_nan());
    }

    #[test]
    fn gelu_bwd_matches_central_difference() {
        let h = 1e-6f64;
        for i in 0..=2400 {
            let x = -12.0 + i as f32 * 1e-2;
            let want = (gelu_ref(x as f64 + h) - gelu_ref(x as f64 - h)) / (2.0 * h);
            let mut got = [0.0];
            gelu_bwd(&[x], &[1.0], &mut got);
            assert!(
                (got[0] as f64 - want).abs() <= 1e-6 * (1.0 + want.abs()),
                "gelu'({x}) = {} vs {want}",
                got[0]
            );
            // The upstream gradient is a plain factor.
            let mut scaled = [0.0];
            gelu_bwd(&[x], &[-2.5], &mut scaled);
            assert_eq!(scaled[0], -2.5 * got[0]);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_shift_invariant() {
        let d = 48;
        let x = rand_vec(16 * d, 101);
        let mut y = vec![0.0; x.len()];
        scaled_softmax_fwd(&x, 0.25, d, &mut y);
        for row in y.chunks(d) {
            let s: f64 = row.iter().map(|&p| p as f64).sum();
            assert!((s - 1.0).abs() < 1e-6, "row sums to {s}");
        }
        // Adding a constant to a row cancels against the row max; what
        // is left is the rounding of `v + 64` itself (half an ulp of 64,
        // 4e-6, times the scale), far inside the tolerance.
        let shifted: Vec<f32> = x.iter().map(|v| v + 64.0).collect();
        let mut ys = vec![0.0; x.len()];
        scaled_softmax_fwd(&shifted, 0.25, d, &mut ys);
        for (a, b) in y.iter().zip(&ys) {
            assert!((a - b).abs() <= 1e-6, "{a} vs {b}");
        }
        // A row with a -inf entry gives that entry exactly zero weight.
        let mut row = x[..d].to_vec();
        row[3] = f32::NEG_INFINITY;
        let mut out = vec![0.0; d];
        scaled_softmax_fwd(&row, 1.0, d, &mut out);
        assert_eq!(out[3], 0.0);
        assert!(out.iter().all(|p| p.is_finite()));
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn baseline_and_avx2_compilations_agree_bit_for_bit() {
        // Lengths around the 4- and 8-lane vector widths exercise the
        // scalar tail of both compilations; 6144 is one 48×128 GELU map.
        for len in [0usize, 1, 7, 8, 9, 6144] {
            // Spread over the saturating range as well as the O(1) bulk.
            let x: Vec<f32> = rand_vec(len, 7 + len as u64)
                .into_iter()
                .map(|v| v * 6.0)
                .collect();
            let g = rand_vec(len, 70 + len as u64);

            let (mut f0, mut b0) = (vec![0.0; len], vec![0.0; len]);
            gelu_fwd_impl(&x, &mut f0);
            gelu_bwd_impl(&x, &g, &mut b0);
            // Whatever the dispatcher picked on this host agrees too.
            let (mut f1, mut b1) = (vec![0.0; len], vec![0.0; len]);
            gelu_fwd(&x, &mut f1);
            gelu_bwd(&x, &g, &mut b1);
            assert_eq!(bits(&f0), bits(&f1), "gelu_fwd, len {len}");
            assert_eq!(bits(&b0), bits(&b1), "gelu_bwd, len {len}");
            // And element i does not depend on which lane it rode in.
            for i in 0..len {
                assert_eq!(f0[i].to_bits(), gelu1(x[i]).to_bits());
            }

            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                let (mut f2, mut b2) = (vec![0.0; len], vec![0.0; len]);
                // SAFETY: has_avx2 verified the CPU feature the callees need.
                unsafe {
                    gelu_fwd_avx2(&x, &mut f2);
                    gelu_bwd_avx2(&x, &g, &mut b2);
                }
                assert_eq!(bits(&f0), bits(&f2), "gelu_fwd avx2, len {len}");
                assert_eq!(bits(&b0), bits(&b2), "gelu_bwd avx2, len {len}");
            }
        }
        microkernel_arms_agree_bit_for_bit();
        row_groups_match_row_serial_reference_bit_for_bit();
    }

    /// Every microkernel arm this CPU has, and the one `micro_fn` picked,
    /// against the baseline compilation and a scalar ascending-`p` fold
    /// on random packed panels.
    fn microkernel_arms_agree_bit_for_bit() {
        type Tile = [[f32; NR]; MR];
        for kc in [1usize, 3, 16, 64, 256] {
            let a = rand_vec(kc * MR, 300 + kc as u64);
            let b = rand_vec(kc * NR, 400 + kc as u64);
            let run = |f: MicroFn| -> Vec<u32> {
                let mut acc: Tile = [[f32::NAN; NR]; MR];
                // SAFETY: every caller below checked the CPU features `f` needs.
                unsafe { f(kc, &a, &b, &mut acc) };
                bits(acc.as_flattened())
            };
            let want = run(micro_baseline);
            let mut fold: Tile = [[0.0; NR]; MR];
            for p in 0..kc {
                for r in 0..MR {
                    for j in 0..NR {
                        fold[r][j] += a[p * MR + r] * b[p * NR + j];
                    }
                }
            }
            assert_eq!(want, bits(fold.as_flattened()), "baseline vs fold, kc {kc}");
            assert_eq!(want, run(micro_fn()), "dispatched arm, kc {kc}");
            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                assert_eq!(want, run(micro_avx2), "avx2 arm, kc {kc}");
            }
            #[cfg(target_arch = "x86_64")]
            if has_avx512f() {
                assert_eq!(want, run(micro_avx512), "avx512 arm, kc {kc}");
            }
        }
    }

    /// The `mean` and `rstd` bits a LayerNorm-statistics kernel `f`
    /// writes for `rows` rows.
    fn ln_stats<F: FnOnce(&mut [f32], &mut [f32])>(rows: usize, f: F) -> [Vec<u32>; 2] {
        let (mut mean, mut rstd) = (vec![f32::NAN; rows], vec![f32::NAN; rows]);
        f(&mut mean, &mut rstd);
        [bits(&mean), bits(&rstd)]
    }

    /// The `gx`, `ggamma` and `gbeta` bits a LayerNorm backward `f`
    /// leaves for `n` elements in rows of width `d`; the last two start non-zero, since
    /// the kernel accumulates into them.
    fn ln_bwd<F>(n: usize, d: usize, f: F) -> [Vec<u32>; 3]
    where
        F: FnOnce(&mut [f32], &mut [f32], &mut [f32]),
    {
        let mut gx = vec![f32::NAN; n];
        let (mut gg, mut gb) = (vec![0.5; d], vec![-0.5; d]);
        f(&mut gx, &mut gg, &mut gb);
        [bits(&gx), bits(&gg), bits(&gb)]
    }

    /// Rows 1..=17 cross the row group; `d` 1, 7 and 48 cover a single
    /// column, a width no vector divides, and the served block.
    fn row_groups_match_row_serial_reference_bit_for_bit() {
        for rows in 1usize..=17 {
            for d in [1usize, 7, 48] {
                let n = rows * d;
                let seed = (rows * 100 + d) as u64;
                let mut x: Vec<f32> = rand_vec(n, seed).into_iter().map(|v| v * 4.0).collect();
                let g = rand_vec(n, seed + 1);
                let gamma = rand_vec(d, seed + 2);
                // Row 0 all negative zeros: its sums are `-0.0` only if
                // they start from `Iterator::sum`'s `-0.0`, as LayerNorm's
                // do. Row 1 carries a `-inf` score when it has a second
                // column.
                x[..d].fill(-0.0);
                if rows > 1 && d > 1 {
                    x[d + 1] = f32::NEG_INFINITY;
                }
                let ln_x: Vec<f32> = x.iter().map(|v| v.max(-1e3)).collect();
                let ctx = format!("rows {rows}, d {d}");

                let mut want = vec![0.0; n];
                reference::scaled_softmax_fwd(&x, 0.3, d, &mut want);
                let y = want.clone();
                let mut got = vec![0.0; n];
                scaled_softmax_fwd_impl(&x, 0.3, d, &mut got);
                assert_eq!(bits(&want), bits(&got), "softmax fwd, {ctx}");
                scaled_softmax_fwd(&x, 0.3, d, &mut got);
                assert_eq!(bits(&want), bits(&got), "softmax fwd dispatched, {ctx}");

                reference::softmax_bwd(&y, &g, 0.3, d, &mut want);
                softmax_bwd_impl(&y, &g, 0.3, d, &mut got);
                assert_eq!(bits(&want), bits(&got), "softmax bwd, {ctx}");
                softmax_bwd(&y, &g, 0.3, d, &mut got);
                assert_eq!(bits(&want), bits(&got), "softmax bwd dispatched, {ctx}");

                let want_stats = ln_stats(rows, |m, r| {
                    reference::layer_norm_stats(&ln_x, d, 1e-5, m, r)
                });
                assert_eq!(want_stats[0][0], (-0.0f32).to_bits(), "mean of -0s, {ctx}");
                let base = ln_stats(rows, |m, r| layer_norm_stats_impl(&ln_x, d, 1e-5, m, r));
                assert_eq!(want_stats, base, "layer norm stats, {ctx}");
                let picked = ln_stats(rows, |m, r| layer_norm_stats(&ln_x, d, 1e-5, m, r));
                assert_eq!(want_stats, picked, "layer norm stats dispatched, {ctx}");

                let rstd: Vec<f32> = (0..rows).map(|r| 0.5 + r as f32).collect();
                let want_bwd = ln_bwd(n, d, |gx, gg, gb| {
                    reference::layer_norm_bwd(&y, &g, &gamma, &rstd, gx, gg, gb)
                });
                let base = ln_bwd(n, d, |gx, gg, gb| {
                    layer_norm_bwd_impl(&y, &g, &gamma, &rstd, gx, gg, gb)
                });
                assert_eq!(want_bwd, base, "layer norm bwd, {ctx}");
                let picked = ln_bwd(n, d, |gx, gg, gb| {
                    layer_norm_bwd(&y, &g, &gamma, &rstd, gx, gg, gb)
                });
                assert_eq!(want_bwd, picked, "layer norm bwd dispatched, {ctx}");

                #[cfg(target_arch = "x86_64")]
                if has_avx2() {
                    // SAFETY: has_avx2 verified the CPU feature the callees need.
                    unsafe {
                        scaled_softmax_fwd_avx2(&x, 0.3, d, &mut got);
                        assert_eq!(bits(&y), bits(&got), "softmax fwd avx2, {ctx}");
                        softmax_bwd_avx2(&y, &g, 0.3, d, &mut got);
                        assert_eq!(bits(&want), bits(&got), "softmax bwd avx2, {ctx}");
                        let avx2 =
                            ln_stats(rows, |m, r| layer_norm_stats_avx2(&ln_x, d, 1e-5, m, r));
                        assert_eq!(want_stats, avx2, "layer norm stats avx2, {ctx}");
                        let avx2 = ln_bwd(n, d, |gx, gg, gb| {
                            layer_norm_bwd_avx2(&y, &g, &gamma, &rstd, gx, gg, gb)
                        });
                        assert_eq!(want_bwd, avx2, "layer norm bwd avx2, {ctx}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn exp_relative_error_holds_at_random_points(x in -87.0f32..88.0) {
            let want = (x as f64).exp();
            let rel = ((exp(x) as f64 - want) / want).abs();
            proptest::prop_assert!(rel <= 2e-7, "exp({x}): relative error {rel:e}");
        }

        #[test]
        fn exp_is_finite_and_non_negative_for_every_finite_input(bits in proptest::any::<u32>()) {
            let x = f32::from_bits(bits);
            let y = exp(x);
            if x.is_nan() {
                proptest::prop_assert!(y.is_nan());
            } else {
                proptest::prop_assert!(y.is_finite() && y >= 0.0, "exp({x}) = {y}");
                proptest::prop_assert_eq!(y == 0.0, x < -87.0);
            }
        }
    }
}
