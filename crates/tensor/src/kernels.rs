//! Matrix-multiplication and attention kernels.
//!
//! One register-blocked, cache-tiled GEMM engine (`gemm_core`) serves
//! every layout the tape needs:
//!
//! * `gemm_nn`: `C += A[m,k] · B[k,n]`
//! * `gemm_nt`: `C += A[m,k] · B[n,k]ᵀ`   (gradient w.r.t. the left operand)
//! * `gemm_tn`: `C += A[k,m]ᵀ · B[k,n]`   (gradient w.r.t. the right operand)
//! * `gemm_nn_bias`: `gemm_nn`, then `+ bias[j]` in the same pass — the
//!   forward of `Var::linear`.
//!
//! Attention ([`attn_fused_fwd`], [`attn_fused_bwd`]) does not go
//! through the engine: each `(b, h)` block of the head-interleaved
//! `[B, T, H, dh]` layout runs one register kernel of its own, described
//! in "Attention" below.
//!
//! # Kernel design
//!
//! The engine is a scaled-down BLIS: the innermost unit is an
//! [`MR`]`×`[`NR`] tile whose accumulators live in registers across the
//! whole depth loop. It is the one product tile of this file (`tile`),
//! the same one attention's products run, fed here by *packed* operand
//! panels: the A micro-panel is its left operand with `MR` rows side by
//! side per depth step, the B panel its right operand with rows
//! [`NR`] apart.
//!
//! * B is packed once per `k`-block into `[KC × NR]` column panels, so
//!   the tile streams it contiguously regardless of the source layout
//!   or stride;
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
//! data-dependent branch in the inner loop would defeat that. A bias
//! rides the store of the last depth block, `c = (c + acc) + bias[j]`,
//! so an affine layer makes one trip through its output instead of two.
//!
//! Every kernel has three arms (`Arm`), and one switch picks among them:
//! the widest the CPU supports, detected once per process (`Arm::host`,
//! the only place CPU features are read). A kernel's whole loop nest is
//! one `#[inline(always)]` closure that `Arm::run` compiles into one of
//! two `target_feature` trampolines (`on_avx2`, `on_avx512f`) or runs at
//! the build's baseline, so there is one call per kernel and no
//! per-kernel wrapper. On AVX-512F the tile is written with `core::arch`
//! intrinsics, each accumulator row one 512-bit register; on AVX2 the
//! portable tile is recompiled so LLVM vectorizes it 256 bits wide; the
//! baseline runs that loop as it is. The element-wise maps
//! ([`gelu_fwd`], [`gelu_bwd`]) and the row-wise LayerNorm reductions
//! (`layer_norm_stats` and `layer_norm_bwd` behind `Var::layer_norm`)
//! are plain loops that keep their AVX2 compilation on AVX-512F hosts.
//!
//! A row-wise reduction run a row at a time is one serial chain of
//! dependent adds per row, which leaves the vector units idle. The
//! LayerNorm kernels take rows eight at a time and advance them side by
//! side, one lane per row: 8 independent chains instead of one.
//!
//! # Attention
//!
//! A block's `T × T` scores are held transposed — row `j` holds key `j`'s
//! score against every query, one query per lane — so the softmax over
//! keys is a vertical fold down contiguous 16-lane rows, and its
//! backward's `⟨w, ∂w⟩` dot products fold the same way. The products
//! (scores, context, and the backward's `∂W`, `dQ`, `dK`, `dV`) are
//! outer-product tiles of 16-lane accumulator rows that stay in
//! registers across the depth loop. Operand rows are read in place when
//! `dh` is a multiple of 16 (else from a padded copy); Q and the
//! upstream gradient are also transposed into a `dh × T` panel per
//! block, the left side of the scores and `∂W`. The kept softmax
//! weights are key-major.
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
//! order, grouped only by the fixed [`KC`] blocking: per block a sum
//! from `0.0` in the tile, then added into the output. That order does
//! not depend on partial-tile boundaries, on the tile's height or on
//! which thread calls, so results are bit-identical at any thread
//! count. GEMM and attention run the same tile in the same order, so
//! attention gives the bits of the same math composed from the GEMMs
//! and a row-by-row softmax (`reference::attention`), whatever `T` and
//! `dh`.
//!
//! No kernel fuses a multiply into an add. Rust never contracts
//! `a * b + c` into an FMA, and the AVX-512 tile calls `_mm512_mul_ps`
//! and then `_mm512_add_ps`, never `fmadd`. An FMA rounds once where a
//! multiply and an add round twice, so one arm using it would make the
//! bits depend on the host. Without it, and with each element's order
//! of operations fixed, every arm executes the same IEEE operation
//! sequence per element: a host with AVX-512, AVX2 or neither gets the
//! same bits, and the dispatch changes throughput, never a bit. The arm
//! tests hold each arm the host has to those bits, and `ntt-lint` rule
//! R7 rejects every fused form in this crate on any host.
//!
//! Lanes never run within one output's fold: the LayerNorm row groups
//! put one row per lane, and attention puts one query (or one output
//! column) per lane. Each lane still folds its own sum in its own order
//! from the same starting value, so its result does not depend on the
//! group size, the tile shape, the vector width, or its neighbours.
//!
//! `exp` is the crate's own branch-free polynomial (`exp`, behind
//! [`gelu_fwd`], [`gelu_bwd`] and the attention softmax), not the
//! platform libm: the same weights and inputs give the same bits on
//! every host and libc.

use std::cell::RefCell;
use std::sync::OnceLock;

/// GEMM tile rows: the accumulator tile's height (distinct A values
/// held as broadcasts per depth step).
pub const MR: usize = 4;
/// GEMM tile columns: one vector of the product tile, `LANES` = 16 wide,
/// the same constant, so the two cannot drift apart. `MR × NR = 64` f32
/// accumulators are 4 × 512-bit registers on AVX-512F and 8 × 256-bit
/// on AVX2, leaving room for the A broadcast and B loads; the
/// baseline-SSE2 arm spills some but stays correct.
pub const NR: usize = LANES;
/// Depth blocking: packed panels cover at most `KC` of `k` per pass, so
/// a B column panel (`KC × NR` = 8 KiB) stays L1-resident.
pub const KC: usize = 256;
/// Row blocking: A is packed `MC` rows at a time (`MC × KC` = 64 KiB,
/// L2-resident and streamed once per column panel).
pub const MC: usize = 64;
/// Lanes of one product-tile vector: a row of packed B, a transposed
/// attention score row (one query per lane), or `p` columns of an
/// output row.
const LANES: usize = 16;

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

/// An instruction-set arm of the kernels, narrowest first. Every arm
/// runs the same IEEE operation sequence per element, so a wider arm
/// changes throughput, never a bit. No `Arm` wider than the host's is
/// ever made: [`Arm::host`] detects it, and the tests run only the arms
/// up to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Arm {
    /// The build's baseline target features (SSE2 on x86_64).
    Baseline,
    /// The portable loops recompiled with AVX2, 256 bits wide.
    Avx2,
    /// AVX-512F (which implies AVX2): the product tiles by hand in
    /// 512-bit registers ([`tile_avx512`]).
    Avx512f,
}

impl Arm {
    /// The widest arm this CPU supports: the one place CPU features are
    /// detected, once per process.
    fn host() -> Arm {
        static HOST: OnceLock<Arm> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx512f") {
                return Arm::Avx512f;
            }
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                return Arm::Avx2;
            }
            Arm::Baseline
        })
    }

    /// The arm of the plain element-wise and row-wise loops (GELU,
    /// LayerNorm): AVX-512F hosts keep their AVX2 compilation.
    fn loops(self) -> Arm {
        self.min(Arm::Avx2)
    }

    /// `f(self)` compiled for this arm: `f`, an `#[inline(always)]`
    /// closure, is inlined into [`on_avx2`] or [`on_avx512f`], so LLVM
    /// vectorizes its loops at the arm's width. One call per kernel.
    #[inline(always)]
    fn run<T>(self, f: impl FnOnce(Arm) -> T) -> T {
        match self {
            // SAFETY: no arm is wider than the host's (see `Arm`).
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512f => unsafe { on_avx512f(f) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => unsafe { on_avx2(f) },
            _ => f(Arm::Baseline),
        }
    }
}

/// `f(Arm::Avx2)` with AVX2 enabled: an `#[inline(always)]` closure is
/// compiled into this frame, where LLVM vectorizes its loops 256 bits
/// wide.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn on_avx2<T>(f: impl FnOnce(Arm) -> T) -> T {
    f(Arm::Avx2)
}

/// [`on_avx2`] for `f(Arm::Avx512f)`, with AVX-512F enabled.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn on_avx512f<T>(f: impl FnOnce(Arm) -> T) -> T {
    f(Arm::Avx512f)
}

/// The arm this process runs — `"avx512f"`, `"avx2"` or `"baseline"` —
/// for benchmark records. Every arm gives the same bits.
pub fn microkernel_arm() -> &'static str {
    match Arm::host() {
        Arm::Baseline => "baseline",
        Arm::Avx2 => "avx2",
        Arm::Avx512f => "avx512f",
    }
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
/// [`pack_a_block`]), then `+ bias[j]` when a bias is given. All public
/// gemm entry points funnel here.
///
/// Depth blocks run in ascending `pc`: B's block is packed, then every
/// [`MC`]-row block of A is packed and multiplied against it. The last
/// block's store adds the bias: `c = (c + acc) + bias[j]`.
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
fn gemm_core(
    arm: Arm,
    a: &[f32],
    ars: usize,
    acs: usize,
    b: &[f32],
    brs: usize,
    bcs: usize,
    c: &mut [f32],
    ldc: usize,
    bias: Option<&[f32]>,
    [m, k, n]: [usize; 3],
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // No depth block to store through: the bias alone.
        if let Some(bias) = bias {
            for crow in c.chunks_mut(ldc).take(m) {
                for (cv, bv) in crow.iter_mut().zip(&bias[..n]) {
                    *cv += bv;
                }
            }
        }
        return;
    }
    // One counter at the funnel covers every public gemm entry point.
    ntt_obs::counter!("tensor.gemm_calls").inc();
    debug_assert!(a.len() > (m - 1) * ars + (k - 1) * acs, "A too short");
    debug_assert!(b.len() > (k - 1) * brs + (n - 1) * bcs, "B too short");
    debug_assert!(c.len() >= (m - 1) * ldc + n, "C too short");
    let n_panels = n.div_ceil(NR);
    BPACK.with_borrow_mut(|bp| {
        APACK.with_borrow_mut(|ap| {
            arm.run(
                #[inline(always)]
                |arm| {
                    for pc in (0..k).step_by(KC) {
                        let kc = KC.min(k - pc);
                        // The bias rides the last depth block's store.
                        let last_bias = bias.filter(|_| pc + kc == k);
                        bp.clear();
                        bp.resize(n_panels * kc * NR, 0.0);
                        pack_b(b, brs, bcs, pc, kc, n, bp);
                        for ic in (0..m).step_by(MC) {
                            let mc = MC.min(m - ic);
                            let mp = mc.div_ceil(MR);
                            ap.clear();
                            ap.resize(mp * kc * MR, 0.0);
                            pack_a_block(a, ars, acs, ic, mc, pc, kc, ap);
                            // Column panels outermost: each B panel stays
                            // L1-hot across every micro-row of this MC block.
                            for jp in 0..n_panels {
                                let j0 = jp * NR;
                                let jw = NR.min(n - j0);
                                let bpanel = &bp[jp * kc * NR..(jp + 1) * kc * NR];
                                for ip in 0..mp {
                                    let i0 = ic + ip * MR;
                                    let iw = MR.min(m - i0);
                                    let apanel = &ap[ip * kc * MR..(ip + 1) * kc * MR];
                                    let left = Left::Cols(apanel, MR);
                                    let acc = tile::<MR>(arm, kc, left, &[&[]; MR], bpanel, NR);
                                    for r in 0..iw {
                                        let crow = &mut c[(i0 + r) * ldc + j0..][..jw];
                                        let crow = crow.iter_mut().zip(acc[r].iter());
                                        match last_bias {
                                            Some(bias) => {
                                                let bias = &bias[j0..j0 + jw];
                                                for ((cv, av), bv) in crow.zip(bias) {
                                                    *cv = (*cv + av) + bv;
                                                }
                                            }
                                            None => crow.for_each(|(cv, av)| *cv += av),
                                        }
                                    }
                                }
                            }
                        }
                    }
                },
            )
        })
    });
}

/// `C[m,n] += A[m,k] · B[k,n]`.
pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_core(Arm::host(), a, k, 1, b, n, 1, c, n, None, [m, k, n]);
}

/// `C[m,n] += A[m,k] · B[k,n]`, then `+ bias[j]` on every row: the
/// bias is added in the store of the last depth block, `c = (c + acc) +
/// bias[j]`, so the result is bit-equal to [`gemm_nn`] followed by a
/// separate bias pass, with one trip through `C` instead of two.
pub fn gemm_nn_bias(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    assert_eq!(bias.len(), n, "bias must be [n]");
    gemm_core(Arm::host(), a, k, 1, b, n, 1, c, n, Some(bias), [m, k, n]);
}

/// `C[m,n] += A[m,k] · B[n,k]ᵀ` — rows of `B` are dotted against rows
/// of `A`. Packing transposes `B` into column panels, so the inner loop
/// is the same independent-lane FMA form as `nn` (a plain dot-product
/// loop is a reduction rustc will not vectorize under strict f32).
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    gemm_core(Arm::host(), a, k, 1, b, 1, k, c, n, None, [m, k, n]);
}

/// `C[m,n] += A[k,m]ᵀ · B[k,n]`.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_core(Arm::host(), a, 1, m, b, n, 1, c, n, None, [m, k, n]);
}

// ---------------------------------------------------------------------------
// exp, and the element-wise kernels built on it.
//
// One branch-free polynomial replaces every libm `expf`/`tanhf` of the
// forward and backward passes. The slice kernels here and the row-wise
// reductions below are plain loops, written once (`*_impl`,
// `#[inline(always)]`) and run through `Arm::run` at most at AVX2:
// at the build's baseline, or inside `on_avx2`, where LLVM vectorizes
// the same loop eight lanes wide. No intrinsics, no `mul_add`: both
// compilations are the same IEEE sequence per element.
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

/// GELU (tanh approximation, as in BERT/ViT) over a slice:
/// `out[i] = x[i] / (1 + exp(-2u))`, which *is* `0.5·x·(1 + tanh u)`.
/// Within 2e-7·(1 + |y|) of the f64 tanh form on `[-12, 12]` (measured
/// 9.7e-8; the libm `tanhf` form it replaces: 8.2e-8), at ~1.5 ns an
/// element with AVX2 and ~2.4 at the SSE2 baseline instead of 18–24.
pub fn gelu_fwd(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    Arm::host().loops().run(
        #[inline(always)]
        |_| gelu_fwd_impl(x, out),
    );
}

/// GELU backward over a slice: `out[i] = g[i] · d/dx gelu(x[i])`, from
/// the same gate as the forward: `g·(s + x·s·(1−s)·2·u′)`.
pub fn gelu_bwd(x: &[f32], g: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(g.len(), out.len());
    Arm::host().loops().run(
        #[inline(always)]
        |_| gelu_bwd_impl(x, g, out),
    );
}

// ---------------------------------------------------------------------------
// Row-wise reductions: LayerNorm statistics and backward.
//
// Each output row needs one or two sums over its own `d` columns, folded left to right. Run a row at a time, that fold is one
// serial chain of `d` dependent adds, so the kernel waits on add latency
// with the vector units idle. Instead rows are taken `ROW_GROUP` at a
// time and advance side by side, one lane per row: column `j` of every
// row of the group is folded in before column `j + 1` of any. Each lane
// is still its own row's fold, in ascending column order from the same
// starting value, so every row keeps its bits — the lanes run across
// rows, never within a row. The last `rows % ROW_GROUP` rows run as
// groups of one. Like GELU, each kernel is written once (`*_impl`) and
// runs at the baseline or with AVX2.
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

/// LayerNorm statistics over rows of width `d`: `mean[r]` is the row's
/// mean and `rstd[r] = 1 / √(var + eps)` its reciprocal standard
/// deviation, each sum taken as `row.iter().sum::<f32>()` would. Panics
/// if `d == 0`.
pub(crate) fn layer_norm_stats(x: &[f32], d: usize, eps: f32, mean: &mut [f32], rstd: &mut [f32]) {
    assert!(d > 0, "layer norm over empty axis");
    assert_eq!(x.len(), mean.len() * d, "one mean per row");
    assert_eq!(x.len(), rstd.len() * d, "one rstd per row");
    Arm::host().loops().run(
        #[inline(always)]
        |_| layer_norm_stats_impl(x, d, eps, mean, rstd),
    );
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
    Arm::host().loops().run(
        #[inline(always)]
        |_| layer_norm_bwd_impl(xhat, g, gamma, rstd, gx, ggamma, gbeta),
    );
}

// ---------------------------------------------------------------------------
// Attention over head-interleaved [B, T, H, dh] layouts: one register
// kernel per (b, h) block.
//
// Q/K/V stay exactly as the per-head reshape of the projection output —
// `[B, T, H, dh]` row-major, each head's rows `h · dh` apart. A block's
// `T × T` scores are held *transposed*: row `j` holds key `j`'s score
// against every query, one query per lane, `tp = ⌈T/16⌉·16` lanes wide.
// Softmax over keys is then a vertical fold down the rows of a 16-lane
// column, the same serial ascending-`j` chain per query that a row-wise
// softmax runs, with no strided loads. Every product runs the GEMM's
// tile: `R` rows by 16 lanes of accumulators that stay in registers
// across the depth loop, one broadcast left value times one 16-lane
// right row per row and depth step (`R` = 8 on AVX-512F, else 4).
//
// * scores `Sᵀ[j][i] = Σ_p K[j,p]·Qᵀ[p][i]`: K's rows read in place, Q
//   transposed into a `dh × tp` panel;
// * `Wᵀ = softmax` down each lane, computed in the kept-weights buffer
//   itself when `T` is a multiple of 16;
// * context `ctx[i][p] = Σ_j Wᵀ[j][i]·V[j][p]`: `R` consecutive queries of
//   a `Wᵀ` row broadcast against V's rows read in place.
//
// The backward runs the same two forms: `∂Wᵀ = V·Gᵀ` like the scores
// (G transposed), softmax's backward down each lane, then `dQ = ∂S·K`,
// `dK = ∂Sᵀ·Q` and `dV = Wᵀ·G` like the context. A right operand whose
// `dh` is not a multiple of 16 is first copied into 16-lane-padded rows,
// so no load reads past a head.
//
// Bits: each output element is the IEEE operation sequence of the
// strided GEMMs and row softmax these kernels replaced. A product sums
// its `k` terms from `0.0` in ascending depth, in `KC` blocks, and adds
// each block's sum into an output that starts at zero (`gemm_core`'s
// order); a multiply then an add, never an FMA. The softmax's sums and
// `exp` are the row-serial ones of `reference::scaled_softmax_fwd` and
// `softmax_bwd`, and its max takes the same value. Lanes run across
// queries or across `p`, never within one output's sum, so the tile
// shape, the vector width and the `Arm` change throughput, never a
// bit. Each `b` is an independent, contiguous slice of every operand
// and output, so results are bit-identical across batch compositions.
// ---------------------------------------------------------------------------

std::thread_local! {
    /// Per-thread panels of the attention kernels. Capacity is retained
    /// across calls: steady-state serving does not allocate here.
    static ATTN_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `scratch` split into panels of the given lengths, grown first if it
/// is short. Contents are stale: every kernel writes a panel before it
/// reads it.
#[inline(always)]
fn panels<const N: usize>(scratch: &mut Vec<f32>, lens: [usize; N]) -> [&mut [f32]; N] {
    let total = lens.iter().sum();
    if scratch.len() < total {
        scratch.resize(total, 0.0);
    }
    let mut rest = &mut scratch[..total];
    let mut out: [&mut [f32]; N] = std::array::from_fn(|_| Default::default());
    for (panel, &len) in out.iter_mut().zip(&lens) {
        (*panel, rest) = std::mem::take(&mut rest).split_at_mut(len);
    }
    out
}

/// `x`'s `t × dh` block (rows `ld` apart) transposed into `out` as `dh`
/// rows of `tp` lanes, the lanes past `t` zero.
fn transpose_block(x: &[f32], ld: usize, t: usize, dh: usize, tp: usize, out: &mut [f32]) {
    if dh == 0 {
        return;
    }
    for (i, row) in x.chunks(ld).take(t).enumerate() {
        for (p, &v) in row[..dh].iter().enumerate() {
            out[p * tp + i] = v;
        }
    }
    for p in 0..dh {
        out[p * tp + t..(p + 1) * tp].fill(0.0);
    }
}

/// `x`'s `t × dh` block as a right operand of 16-lane rows: in place
/// (rows `ld` apart) when `dh` is a multiple of [`LANES`], else copied
/// into `pad` as rows of `dh` rounded up to [`LANES`], zero-padded.
fn lane_rows<'a>(
    x: &'a [f32],
    ld: usize,
    t: usize,
    dh: usize,
    pad: &'a mut [f32],
) -> (&'a [f32], usize) {
    if dh.is_multiple_of(LANES) {
        return (x, ld);
    }
    let dp = dh.next_multiple_of(LANES);
    for (row, src) in pad.chunks_exact_mut(dp).zip(x.chunks(ld)).take(t) {
        row[..dh].copy_from_slice(&src[..dh]);
        row[dh..].fill(0.0);
    }
    (pad, dp)
}

/// Where a product's left operand `A(r, p)` lives.
#[derive(Clone, Copy)]
enum Left<'a> {
    /// `a[p·ld + r]`: each depth step holds the rows side by side (a
    /// `Wᵀ` or `∂Sᵀ` row, one query per lane, or a packed GEMM A
    /// micro-panel), with a whole tile's rows from every tile's first row.
    Cols(&'a [f32], usize),
    /// `a[r·ld + p]`: each row holds its depth side by side (a K or V
    /// row, or a `Wᵀ`/`∂Sᵀ` row read along its queries).
    Rows(&'a [f32], usize),
}

/// The `kc` depth steps of an `R`-row tile, in ascending `p`: each hands
/// `step` the right row `b[p·ldb..][..LANES]` and the tile's left values
/// `A(r, p)`. `left` is [`Left::Cols`] already offset to the tile's
/// first row and depth, or [`Left::Rows`], whose rows are then `rows`
/// (each sliced to the depth block). The bounds are checked once, before
/// the loop, so a step is its loads and the loop branch.
#[inline(always)]
fn depth_steps<const R: usize>(
    kc: usize,
    left: Left,
    rows: &[&[f32]; R],
    b: &[f32],
    ldb: usize,
    mut step: impl FnMut(&[f32; LANES], [f32; R]),
) {
    if kc == 0 {
        return;
    }
    // One past the last element a run of `kc` steps `ld` apart reads.
    let end = |ld: usize, w: usize| (kc - 1).checked_mul(ld).and_then(|e| e.checked_add(w));
    assert!(
        end(ldb, LANES).is_some_and(|e| e <= b.len()),
        "right operand short of the depth block"
    );
    let b = b.as_ptr();
    match left {
        Left::Cols(a, lda) => {
            assert!(
                end(lda, R).is_some_and(|e| e <= a.len()),
                "left operand short of the depth block"
            );
            for p in 0..kc {
                // SAFETY: p < kc, so the R values at p·lda and the LANES
                // at p·ldb lie inside `a` and `b`, as asserted above.
                let (bv, x) = unsafe {
                    let bv = &*b.add(p * ldb).cast::<[f32; LANES]>();
                    (bv, a.as_ptr().add(p * lda).cast::<[f32; R]>().read())
                };
                step(bv, x);
            }
        }
        Left::Rows(..) => {
            assert!(
                rows.iter().all(|row| row.len() >= kc),
                "left row short of the depth block"
            );
            for p in 0..kc {
                let mut x = [0.0; R];
                for (x, row) in x.iter_mut().zip(rows) {
                    // SAFETY: p < kc ≤ row.len(), as asserted above.
                    *x = unsafe { *row.get_unchecked(p) };
                }
                // SAFETY: p < kc, so the LANES at p·ldb lie inside `b`, as
                // asserted above.
                step(unsafe { &*b.add(p * ldb).cast() }, x);
            }
        }
    }
}

/// One `R × LANES` tile over `kc` depth steps, from `0.0`:
/// `acc[r][l] = Σ_p A(r, p)·b[p·ldb + l]` in ascending `p`, a multiply
/// then an add per step ([`depth_steps`] reads `left`, `rows` and `b`).
/// On the AVX-512F arm [`tile_avx512`] computes it.
#[inline(always)]
fn tile<const R: usize>(
    arm: Arm,
    kc: usize,
    left: Left,
    rows: &[&[f32]; R],
    b: &[f32],
    ldb: usize,
) -> [[f32; LANES]; R] {
    #[cfg(target_arch = "x86_64")]
    if arm == Arm::Avx512f {
        // SAFETY: no arm is wider than the host's (see `Arm`).
        return unsafe { tile_avx512(kc, left, rows, b, ldb) };
    }
    let mut acc = [[0.0f32; LANES]; R];
    depth_steps(
        kc,
        left,
        rows,
        b,
        ldb,
        #[inline(always)]
        |bv, x| {
            for (acc_row, x) in acc.iter_mut().zip(x) {
                for (o, &y) in acc_row.iter_mut().zip(bv) {
                    *o += x * y;
                }
            }
        },
    );
    acc
}

/// [`tile`] by hand at AVX-512 width: each tile row is one 512-bit
/// register across the depth loop, and a step is `_mm512_mul_ps` of
/// the broadcast left value and the right row, then `_mm512_add_ps` —
/// never a fused `fmadd`, so each lane is [`tile`]'s sum exactly.
/// Written by hand because, given the portable loop at eight rows, LLVM
/// vectorizes across the rows through memory instead of keeping the
/// tile in registers; at four rows it keeps them, but then four
/// accumulators cannot hide the add latency of two vector pipes.
/// Inlined always, and not a `target_feature` function, so that it
/// compiles into its kernel's [`on_avx512f`] frame at every call site.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_avx512<const R: usize>(
    kc: usize,
    left: Left,
    rows: &[&[f32]; R],
    b: &[f32],
    ldb: usize,
) -> [[f32; LANES]; R] {
    use std::arch::x86_64::{_mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps};
    use std::arch::x86_64::{_mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps};
    let mut acc = [[0.0f32; LANES]; R];
    // SAFETY: the caller guarantees AVX-512F; each load is a `bv` of
    // exactly LANES = 16 f32 and each store an `[f32; LANES]` row.
    unsafe {
        let mut regs = [_mm512_setzero_ps(); R];
        depth_steps(
            kc,
            left,
            rows,
            b,
            ldb,
            #[inline(always)]
            |bv, x| {
                let bv = _mm512_loadu_ps(bv.as_ptr());
                for (reg, x) in regs.iter_mut().zip(x) {
                    *reg = _mm512_add_ps(*reg, _mm512_mul_ps(_mm512_set1_ps(x), bv));
                }
            },
        );
        for (out, reg) in acc.iter_mut().zip(regs) {
            _mm512_storeu_ps(out.as_mut_ptr(), reg);
        }
    }
    acc
}

/// `dst[r·ldd + c] += Σ_p A(r, p)·B(p, c)` for `r < m`, `c < n`, depth
/// `k`, with `B(p, c) = b[p·ldb + c]`: `gemm_core`'s order — per [`KC`]
/// block of depth, a sum from `0.0` in ascending `p`, added into `dst`.
/// With `zeroed`, `dst` is taken to hold zeros: the first block stores
/// `0.0 + sum` without reading it, the same bits. Tiles are `R` rows by
/// [`LANES`] lanes, eight rows on AVX-512F (whose 32 registers hold
/// them) and four otherwise. `b` must hold 16 lanes from every tile's
/// first column at every depth step; a [`Left::Rows`] tile past row `m`
/// repeats row `m − 1` and is not stored.
#[allow(clippy::too_many_arguments)] // the product contract plus its arm
#[inline(always)]
fn product(
    arm: Arm,
    left: Left,
    b: &[f32],
    ldb: usize,
    dst: &mut [f32],
    ldd: usize,
    dims: [usize; 3],
    zeroed: bool,
) {
    if arm == Arm::Avx512f {
        tiled::<8>(arm, left, b, ldb, dst, ldd, dims, zeroed);
    } else {
        tiled::<4>(arm, left, b, ldb, dst, ldd, dims, zeroed);
    }
}

/// The loop nest of [`product`] around `R`-row tiles.
#[allow(clippy::too_many_arguments)] // the product contract plus its arm
#[inline(always)]
fn tiled<const R: usize>(
    arm: Arm,
    left: Left,
    b: &[f32],
    ldb: usize,
    dst: &mut [f32],
    ldd: usize,
    [m, k, n]: [usize; 3],
    zeroed: bool,
) {
    if zeroed && k == 0 {
        for row in dst.chunks_mut(ldd).take(m) {
            row[..n].fill(0.0);
        }
    }
    let empty: &[f32] = &[];
    for pc in (0..k).step_by(KC) {
        let fresh = zeroed && pc == 0;
        let kc = KC.min(k - pc);
        for r0 in (0..m).step_by(R) {
            let mut rows = [empty; R];
            let left = match left {
                Left::Cols(a, lda) => Left::Cols(&a[pc * lda + r0..][..(kc - 1) * lda + R], lda),
                Left::Rows(a, lda) => {
                    for (r, row) in rows.iter_mut().enumerate() {
                        *row = &a[(r0 + r).min(m - 1) * lda + pc..][..kc];
                    }
                    left
                }
            };
            for c0 in (0..n).step_by(LANES) {
                let acc = tile::<R>(arm, kc, left, &rows, &b[pc * ldb + c0..], ldb);
                let cw = LANES.min(n - c0);
                for (r, acc_row) in acc.iter().enumerate().take(R.min(m - r0)) {
                    let out = &mut dst[(r0 + r) * ldd + c0..][..cw];
                    if fresh {
                        for (o, &x) in out.iter_mut().zip(acc_row) {
                            *o = 0.0 + x;
                        }
                    } else {
                        for (o, &x) in out.iter_mut().zip(acc_row) {
                            *o += x;
                        }
                    }
                }
            }
        }
    }
}

/// Softmax of `scale · Sᵀ` down each lane of the `t` rows of `s` (`tp`
/// lanes each), in place: per lane, the max and the sum are serial
/// ascending-`j` folds, as a row-wise softmax runs them.
#[inline(always)]
fn softmax_lanes(s: &mut [f32], t: usize, tp: usize, scale: f32) {
    for c0 in (0..tp).step_by(LANES) {
        let at_rows = || (0..t).map(|j| j * tp + c0);
        let mut mx = [f32::NEG_INFINITY; LANES];
        for at in at_rows() {
            let row: &[f32; LANES] = s[at..][..LANES].try_into().unwrap();
            for (m, &v) in mx.iter_mut().zip(row) {
                // `f32::max`'s value by one compare: a NaN never wins,
                // and only the sign of a zero max can differ, which
                // `exp(x − m)` cannot see.
                let x = scale * v;
                *m = if x > *m { x } else { *m };
            }
        }
        let mut sum = [0.0f32; LANES];
        for at in at_rows() {
            let row: &mut [f32; LANES] = (&mut s[at..][..LANES]).try_into().unwrap();
            for ((o, acc), &m) in row.iter_mut().zip(&mut sum).zip(&mx) {
                *o = exp(scale * *o - m);
                *acc += *o;
            }
        }
        let mut inv = [0.0f32; LANES];
        for (f, &s) in inv.iter_mut().zip(&sum) {
            *f = 1.0 / s;
        }
        for at in at_rows() {
            for (o, &f) in s[at..][..LANES].iter_mut().zip(&inv) {
                *o *= f;
            }
        }
    }
}

/// Softmax backward down each lane, in place: `ds` holds `∂Wᵀ` in and
/// `∂Sᵀ = scale · Wᵀ ⊙ (∂Wᵀ − ⟨w, ∂w⟩)` out, the dot product per lane
/// a serial ascending-`j` fold.
#[inline(always)]
fn softmax_bwd_lanes(w: &[f32], ds: &mut [f32], t: usize, tp: usize, scale: f32) {
    for c0 in (0..tp).step_by(LANES) {
        let at_rows = || (0..t).map(|j| j * tp + c0);
        let mut dot = [0.0f32; LANES];
        for at in at_rows() {
            let (wr, gr) = (&w[at..][..LANES], &ds[at..][..LANES]);
            for ((acc, &wv), &gv) in dot.iter_mut().zip(wr).zip(gr) {
                *acc += wv * gv;
            }
        }
        for at in at_rows() {
            let wr = &w[at..][..LANES];
            for ((o, &wv), &d) in ds[at..][..LANES].iter_mut().zip(wr).zip(&dot) {
                *o = scale * (wv * (*o - d));
            }
        }
    }
}

/// The attention forward of every `(b, h)` block (see
/// [`attn_fused_fwd`]); `weights` empty keeps none.
#[inline(always)]
fn attn_fwd_impl(
    arm: Arm,
    [q, k, v]: [&[f32]; 3],
    scale: f32,
    ctx: &mut [f32],
    weights: &mut [f32],
    [b, t, h, dh]: [usize; 4],
    scratch: &mut Vec<f32>,
) {
    let (hd, tp) = (h * dh, t.next_multiple_of(LANES));
    let [qt, own, pad] = panels(scratch, [dh * tp, t * tp, t * dh.next_multiple_of(LANES)]);
    for bi in 0..b {
        for hi in 0..h {
            let (base, blk) = (bi * t * hd + hi * dh, (bi * h + hi) * t * t);
            // Kept weights whose rows need no lane padding are computed
            // where they are kept.
            let in_place = !weights.is_empty() && t == tp;
            let s = if in_place {
                &mut weights[blk..][..t * t]
            } else {
                &mut own[..]
            };
            transpose_block(&q[base..], hd, t, dh, tp, qt);
            product(
                arm,
                Left::Rows(&k[base..], hd),
                qt,
                tp,
                s,
                tp,
                [t, dh, tp],
                true,
            );
            softmax_lanes(s, t, tp, scale);
            let (vb, ldv) = lane_rows(&v[base..], hd, t, dh, pad);
            product(
                arm,
                Left::Cols(s, tp),
                vb,
                ldv,
                &mut ctx[base..],
                hd,
                [t, t, dh],
                true,
            );
            if !weights.is_empty() && !in_place {
                let kept = weights[blk..][..t * t].chunks_exact_mut(t);
                for (dst, src) in kept.zip(own.chunks(tp)) {
                    dst.copy_from_slice(&src[..t]);
                }
            }
        }
    }
}

/// The attention backward of every `(b, h)` block (see
/// [`attn_fused_bwd`]).
#[inline(always)]
fn attn_bwd_impl(
    arm: Arm,
    [q, k, v, g]: [&[f32]; 4],
    weights: &[f32],
    scale: f32,
    [gq, gk, gv]: [&mut [f32]; 3],
    [b, t, h, dh]: [usize; 4],
    scratch: &mut Vec<f32>,
) {
    let (hd, tp) = (h * dh, t.next_multiple_of(LANES));
    let pad = t * dh.next_multiple_of(LANES);
    let [gt, own, ds, kpad, qpad, gpad] = panels(scratch, [dh * tp, t * tp, t * tp, pad, pad, pad]);
    for bi in 0..b {
        for hi in 0..h {
            let (base, blk) = (bi * t * hd + hi * dh, (bi * h + hi) * t * t);
            // The kept weights, read in place unless their rows need lane
            // padding.
            let kept = &weights[blk..][..t * t];
            let w: &[f32] = if t == tp {
                kept
            } else {
                for (dst, src) in own.chunks_exact_mut(tp).zip(kept.chunks_exact(t)) {
                    dst[..t].copy_from_slice(src);
                    dst[t..].fill(0.0);
                }
                own
            };
            transpose_block(&g[base..], hd, t, dh, tp, gt);
            product(
                arm,
                Left::Rows(&v[base..], hd),
                gt,
                tp,
                ds,
                tp,
                [t, dh, tp],
                true,
            );
            softmax_bwd_lanes(w, ds, t, tp, scale);
            let (kb, ldk) = lane_rows(&k[base..], hd, t, dh, kpad);
            product(
                arm,
                Left::Cols(ds, tp),
                kb,
                ldk,
                &mut gq[base..],
                hd,
                [t, t, dh],
                false,
            );
            let (qb, ldq) = lane_rows(&q[base..], hd, t, dh, qpad);
            product(
                arm,
                Left::Rows(ds, tp),
                qb,
                ldq,
                &mut gk[base..],
                hd,
                [t, t, dh],
                false,
            );
            let (gb, ldg) = lane_rows(&g[base..], hd, t, dh, gpad);
            product(
                arm,
                Left::Rows(w, tp),
                gb,
                ldg,
                &mut gv[base..],
                hd,
                [t, t, dh],
                false,
            );
        }
    }
}

/// Attention forward: `ctx[b,i,h,:] = Σ_j softmax_j(scale · q_i·k_j) · v_j`
/// over `[B, T, H, dh]` views, overwriting `ctx` (same layout). When
/// `weights` is `Some`, the softmax weights are written to it for
/// [`attn_fused_bwd`], key-major: `[B, H, T, T]` with element
/// `[b, h, j, i]` the weight query `i` gives key `j`. With `None` each
/// block's weights live only in per-thread scratch. Either way the
/// context is the same bits.
#[allow(clippy::too_many_arguments)] // kernel contract: operands, outputs and dims flat
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
    // An empty slice stands for "keep no weights".
    let weights = weights.unwrap_or_default();
    assert!(
        weights.is_empty() || weights.len() == b * h * t * t,
        "attention weights must be [B, H, T, T]"
    );
    ATTN_SCRATCH.with_borrow_mut(|scratch| {
        Arm::host().run(
            #[inline(always)]
            |arm| attn_fwd_impl(arm, [q, k, v], scale, ctx, weights, [b, t, h, dh], scratch),
        )
    })
}

/// Attention backward from the forward's key-major softmax `weights`
/// (`[B, H, T, T]`, see [`attn_fused_fwd`]) and the upstream gradient
/// `g` (`[B, T, H, dh]`): per block `∂W = G·Vᵀ` and
/// `∂S = scale · W ⊙ (∂W − ⟨W, ∂W⟩)`, then `dQ = ∂S·K`, `dK = ∂Sᵀ·Q` and
/// `dV = Wᵀ·G`, accumulated into `gq`/`gk`/`gv` (`+=`, matching the
/// other backward kernels).
#[allow(clippy::too_many_arguments)] // kernel contract: operands, outputs and dims flat
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
    let n = b * t * h * dh;
    for x in [q, k, v, g] {
        assert_eq!(x.len(), n, "attention operands must be [B, T, H, dh]");
    }
    for x in [&*gq, &*gk, &*gv] {
        assert_eq!(x.len(), n, "attention gradients must be [B, T, H, dh]");
    }
    assert_eq!(
        weights.len(),
        b * h * t * t,
        "attention weights must be [B, H, T, T]"
    );
    if b == 0 || t == 0 || h == 0 {
        return;
    }
    ATTN_SCRATCH.with_borrow_mut(|scratch| {
        Arm::host().run(
            #[inline(always)]
            |arm| {
                let (ins, grads) = ([q, k, v, g], [gq, gk, gv]);
                attn_bwd_impl(arm, ins, weights, scale, grads, [b, t, h, dh], scratch)
            },
        )
    })
}

/// Naive triple-loop reference GEMMs, a row-serial softmax and
/// LayerNorm, and attention composed from them: the ground truth the
/// tiled engine, the row groups and the attention block kernel are
/// tested against (the reductions and attention bit for bit), and the
/// baselines the `kernels` bench measures against. Deliberately
/// unblocked, unpacked and a row at a time — do not "optimize" these.
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
    /// serial fold: the per-query order the attention kernels keep.
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

    /// Softmax backward a row at a time: `gx = scale · y ⊙ (g − ⟨y, g⟩)`,
    /// each row's dot product one serial fold.
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
    /// upstream gradient `g`, the weights in the key-major layout
    /// [`super::attn_fused_fwd`] keeps (`[b, h, j, i]` is query `i`'s
    /// weight on key `j`).
    pub fn attention(qkvg: [&[f32]; 4], scale: f32, dims: [usize; 4]) -> [Vec<f32>; 5] {
        composed([gemm_nn, gemm_nt, gemm_tn], qkvg, scale, dims)
    }

    /// A GEMM of this module's signature (`C += op(A)·op(B)`).
    pub(crate) type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

    /// [`attention`] with its `[nn, nt, tn]` GEMMs swapped for `gemms`:
    /// with the tiled engine's, the blocked composition the attention
    /// kernels replaced, whose sums group depth in `KC` blocks.
    pub(crate) fn composed(
        [gemm_nn, gemm_nt, gemm_tn]: [Gemm; 3],
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
                let mut w = vec![0.0; t * t];
                scaled_softmax_fwd(&s, scale, t, &mut w);
                let kept = &mut weights[(bi * h + hi) * t * t..][..t * t];
                for (e, &x) in w.iter().enumerate() {
                    kept[(e % t) * t + e / t] = x;
                }
                gemm_nt(&gh, &vh, &mut gw, t, dh, t);
                softmax_bwd(&w, &gw, scale, t, &mut gs);
                let mut outs = [(); 4].map(|_| vec![0.0; t * dh]);
                gemm_nn(&w, &vh, &mut outs[0], t, t, dh);
                gemm_nn(&gs, &kh, &mut outs[1], t, t, dh);
                gemm_tn(&gs, &qh, &mut outs[2], t, t, dh);
                gemm_tn(&w, &gh, &mut outs[3], t, t, dh);
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

    /// Query `i`'s kept weights of one `t`-slot block: column `i` of
    /// the key-major `[T, T]` weights.
    fn query_weights(w: &[f32], t: usize, i: usize) -> Vec<f32> {
        (0..t).map(|j| w[j * t + i]).collect()
    }

    #[test]
    fn scaled_softmax_rows_are_distributions() {
        // Every query's kept weights are a distribution over the keys.
        let (t, dh) = (9, 4);
        let [q, k, v, _] = attn_inputs(t * dh, 41);
        let mut ctx = vec![0.0; t * dh];
        let mut w = vec![0.0; t * t];
        attn_fused_fwd(&q, &k, &v, 0.5, &mut ctx, Some(&mut w), 1, t, 1, dh);
        for i in 0..t {
            let row = query_weights(&w, t, i);
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p > 0.0));
        }
    }

    /// `[1, t, 1, t]` identity: as attention's K and V it makes the
    /// scores Q itself and the context the softmax weights.
    fn eye(t: usize) -> Vec<f32> {
        (0..t * t)
            .map(|e| if e % (t + 1) == 0 { 1.0 } else { 0.0 })
            .collect()
    }

    /// `softmax(scale · x)` over the rows of a square `t × t` `x`, read
    /// out of the attention kernel as the context of `Q = x`, `K = V = I`.
    fn softmax_rows(x: &[f32], scale: f32, t: usize) -> Vec<f32> {
        let id = eye(t);
        let mut ctx = vec![0.0; t * t];
        attn_fused_fwd(x, &id, &id, scale, &mut ctx, None, 1, t, 1, t);
        ctx
    }

    #[test]
    fn softmax_bwd_matches_formula() {
        // With K = V = I, dQ is softmax's backward itself: ∂W = G and
        // dQ = ∂S = scale · W ⊙ (G − ⟨W, G⟩), from any kept weights.
        let y = [0.2f32, 0.3, 0.5, 0.6, 0.1, 0.3, 0.1, 0.1, 0.8];
        let g = [1.0f32, -1.0, 0.5, 0.0, 2.0, 1.0, -0.5, 0.25, 3.0];
        let kept: Vec<f32> = (0..9).map(|e| y[(e % 3) * 3 + e / 3]).collect();
        let (id, q) = (eye(3), rand_vec(9, 61));
        let mut gx = vec![0.0; 9];
        let (mut gk, mut gv) = (vec![0.0; 9], vec![0.0; 9]);
        attn_fused_bwd(
            &q, &id, &id, &g, &kept, 2.0, &mut gx, &mut gk, &mut gv, 1, 3, 1, 3,
        );
        for r in 0..3 {
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

    /// Every arm this host can run, narrowest first: the attention
    /// arms, and the list every other arm test runs too. Each arm is
    /// called through `Arm::run`, as the kernels call it.
    fn attn_arm_list() -> Vec<Arm> {
        [Arm::Baseline, Arm::Avx2, Arm::Avx512f]
            .into_iter()
            .filter(|&arm| arm <= Arm::host())
            .collect()
    }

    /// `[ctx, kept weights, dQ, dK, dV]` bits of one arm, the backward
    /// from the weights its own forward kept.
    fn run_attn_arm(
        arm: Arm,
        [q, k, v, g]: [&[f32]; 4],
        scale: f32,
        dims: [usize; 4],
    ) -> [Vec<u32>; 5] {
        let [b, t, h, dh] = dims;
        let n = b * t * h * dh;
        let (mut ctx, mut w) = (vec![f32::NAN; n], vec![f32::NAN; b * h * t * t]);
        let mut grads = [(); 3].map(|_| vec![0.0; n]);
        let [gq, gk, gv] = &mut grads;
        let mut scratch = Vec::new();
        arm.run(
            #[inline(always)]
            |arm| attn_fwd_impl(arm, [q, k, v], scale, &mut ctx, &mut w, dims, &mut scratch),
        );
        arm.run(
            #[inline(always)]
            |arm| {
                let grads = [&mut gq[..], gk, gv];
                attn_bwd_impl(arm, [q, k, v, g], &w, scale, grads, dims, &mut scratch)
            },
        );
        [bits(&ctx), bits(&w), bits(gq), bits(gk), bits(gv)]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]
        #[test]
        fn attn_block_kernel_matches_reference_on_every_arm(b in 1usize..3, h in 1usize..3, scale in 0.1f32..2.0, seed in 0u64..1000) {
            // Every T across the 16-lane and 4-row tile edges up to the
            // served 48 slots, every dh below, at and across a vector.
            for t in [1usize, 15, 16, 17, 33, 48] {
                for dh in [1usize, 7, 8, 16, 17] {
                    let inputs = attn_inputs(b * t * h * dh, seed);
                    let want = reference::attention(attn_refs(&inputs), scale, [b, t, h, dh]).map(|x| bits(&x));
                    for arm in attn_arm_list() {
                        let got = run_attn_arm(arm, attn_refs(&inputs), scale, [b, t, h, dh]);
                        for (part, (got, want)) in ["ctx", "weights", "dQ", "dK", "dV"].iter().zip(got.iter().zip(&want)) {
                            proptest::prop_assert!(got == want, "{arm:?} {part} at (b={b},t={t},h={h},dh={dh})");
                        }
                    }
                }
            }
        }
    }

    /// The bits `layout`'s public entry point leaves in a `c` that
    /// starts non-zero, run through `gemm_core` on `arm` with that entry
    /// point's strides; `public` runs the entry point itself instead.
    fn run_gemm(
        arm: Arm,
        layout: &str,
        public: bool,
        [a, b, bias]: [&[f32]; 3],
        dims: [usize; 3],
    ) -> Vec<u32> {
        let [m, k, n] = dims;
        let mut c = rand_vec(m * n, 7);
        match (layout, public) {
            ("nn", false) => gemm_core(arm, a, k, 1, b, n, 1, &mut c, n, None, dims),
            ("nn", true) => gemm_nn(a, b, &mut c, m, k, n),
            ("nn_bias", false) => gemm_core(arm, a, k, 1, b, n, 1, &mut c, n, Some(bias), dims),
            ("nn_bias", true) => gemm_nn_bias(a, b, bias, &mut c, m, k, n),
            ("nt", false) => gemm_core(arm, a, k, 1, b, 1, k, &mut c, n, None, dims),
            ("nt", true) => gemm_nt(a, b, &mut c, m, k, n),
            ("tn", false) => gemm_core(arm, a, 1, m, b, n, 1, &mut c, n, None, dims),
            ("tn", true) => gemm_tn(a, b, &mut c, m, k, n),
            _ => unreachable!("no layout {layout}"),
        }
        bits(&c)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]
        #[test]
        fn gemm_arms_agree_through_packing_and_bias_store(m0 in 1usize..=70, n0 in 1usize..=40, k0 in 1usize..=300, seed in 0u64..1000) {
            // m across MR (4) and MC (64), n across NR (16), k across KC
            // (256), and one drawn shape.
            let grid = [1usize, 4, 5, 64, 67].into_iter().flat_map(|m| {
                [1usize, 16, 17, 40].into_iter().flat_map(move |n| [1usize, 256, 300].map(|k| [m, k, n]))
            });
            for dims @ [m, k, n] in grid.chain([[m0, k0, n0]]) {
                let (a, b, bias) = (rand_vec(m * k, seed), rand_vec(k * n, seed + 1), rand_vec(n, seed + 2));
                for layout in ["nn", "nn_bias", "nt", "tn"] {
                    let run = |arm, public| run_gemm(arm, layout, public, [&a, &b, &bias], dims);
                    let want = run(Arm::Baseline, false);
                    for arm in attn_arm_list() {
                        proptest::prop_assert!(run(arm, false) == want, "{layout} {arm:?} at {dims:?}");
                    }
                    proptest::prop_assert!(run(Arm::host(), true) == want, "{layout} public at {dims:?}");
                }
            }
        }
    }

    #[test]
    fn attn_block_kernel_blocks_depth_past_kc_like_the_tiled_composition() {
        // T = 300 > KC: the context and the backward products sum their
        // depth in two KC blocks, as the tiled engine's composition did.
        let dims = [1, 300, 2, 3];
        let inputs = attn_inputs(300 * 2 * 3, 91);
        let tiled = [gemm_nn as reference::Gemm, gemm_nt, gemm_tn];
        let want = reference::composed(tiled, attn_refs(&inputs), 0.6, dims).map(|x| bits(&x));
        for arm in attn_arm_list() {
            assert!(
                run_attn_arm(arm, attn_refs(&inputs), 0.6, dims) == want,
                "{arm:?}"
            );
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
        let x = rand_vec(d * d, 101);
        let y = softmax_rows(&x, 0.25, d);
        for row in y.chunks(d) {
            let s: f64 = row.iter().map(|&p| p as f64).sum();
            assert!((s - 1.0).abs() < 1e-6, "row sums to {s}");
        }
        // Adding a constant to a row cancels against the row max; what
        // is left is the rounding of `v + 64` itself (half an ulp of 64,
        // 4e-6, times the scale), far inside the tolerance.
        let shifted: Vec<f32> = x.iter().map(|v| v + 64.0).collect();
        let ys = softmax_rows(&shifted, 0.25, d);
        for (a, b) in y.iter().zip(&ys) {
            assert!((a - b).abs() <= 1e-6, "{a} vs {b}");
        }
        // A score far below its row max gets exactly zero weight (`exp`
        // is exactly 0 below -87); -inf itself cannot pass through the
        // identity product, where it would meet a zero.
        let mut rows = x.clone();
        rows[3] = -1e30;
        let out = softmax_rows(&rows, 1.0, d);
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

            // And so does every arm's compilation.
            for arm in attn_arm_list() {
                let (mut f2, mut b2) = (vec![0.0; len], vec![0.0; len]);
                arm.run(
                    #[inline(always)]
                    |_| gelu_fwd_impl(&x, &mut f2),
                );
                arm.run(
                    #[inline(always)]
                    |_| gelu_bwd_impl(&x, &g, &mut b2),
                );
                assert_eq!(bits(&f0), bits(&f2), "gelu_fwd {arm:?}, len {len}");
                assert_eq!(bits(&b0), bits(&b2), "gelu_bwd {arm:?}, len {len}");
            }
        }
        microkernel_arms_agree_bit_for_bit();
        row_groups_match_row_serial_reference_bit_for_bit();
    }

    /// The GEMM tile on every arm this CPU has, over random packed
    /// panels (`Left::Cols` with `lda = MR`, `ldb = NR`, as `gemm_core`
    /// reads them), against a scalar ascending-`p` fold.
    fn microkernel_arms_agree_bit_for_bit() {
        type Tile = [[f32; NR]; MR];
        for kc in [1usize, 3, 16, 64, 256] {
            let a = rand_vec(kc * MR, 300 + kc as u64);
            let b = rand_vec(kc * NR, 400 + kc as u64);
            let mut fold: Tile = [[0.0; NR]; MR];
            for p in 0..kc {
                for r in 0..MR {
                    for j in 0..NR {
                        fold[r][j] += a[p * MR + r] * b[p * NR + j];
                    }
                }
            }
            for arm in attn_arm_list() {
                let acc = arm.run(
                    #[inline(always)]
                    |arm| tile::<MR>(arm, kc, Left::Cols(&a, MR), &[&[]; MR], &b, NR),
                );
                let want = bits(fold.as_flattened());
                assert_eq!(want, bits(acc.as_flattened()), "{arm:?} vs fold, kc {kc}");
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
                // do. Row 1 carries a `-inf` when it has a second column
                // (clamped to -1e3 for LayerNorm).
                x[..d].fill(-0.0);
                if rows > 1 && d > 1 {
                    x[d + 1] = f32::NEG_INFINITY;
                }
                let ln_x: Vec<f32> = x.iter().map(|v| v.max(-1e3)).collect();
                let ctx = format!("rows {rows}, d {d}");

                // Softmax rows stand in for the normalized input `x̂`.
                let mut y = vec![0.0; n];
                reference::scaled_softmax_fwd(&x, 0.3, d, &mut y);

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

                for arm in attn_arm_list() {
                    let on_arm = ln_stats(rows, |m, r| {
                        arm.run(
                            #[inline(always)]
                            |_| layer_norm_stats_impl(&ln_x, d, 1e-5, m, r),
                        )
                    });
                    assert_eq!(want_stats, on_arm, "layer norm stats {arm:?}, {ctx}");
                    let on_arm = ln_bwd(n, d, |gx, gg, gb| {
                        arm.run(
                            #[inline(always)]
                            |_| layer_norm_bwd_impl(&y, &g, &gamma, &rstd, gx, gg, gb),
                        )
                    });
                    assert_eq!(want_bwd, on_arm, "layer norm bwd {arm:?}, {ctx}");
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
