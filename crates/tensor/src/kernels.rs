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
//! the attention kernels ([`attn_scores`], [`attn_context`],
//! [`attn_context_t`]) multiply head-interleaved `[B, T, H, dh]` views
//! directly — no `Kᵀ` or head-transpose copies are ever materialized.
//!
//! # Kernel design
//!
//! The engine is a scaled-down BLIS: the innermost unit is an
//! [`MR`]`×`[`NR`] *microkernel* whose accumulator tile lives in
//! registers across the whole depth loop, fed by *packed* operand
//! panels:
//!
//! * B is packed once per `k`-block into `[KC × NR]` column panels
//!   (shared read-only by all row threads), so the microkernel streams
//!   it contiguously regardless of the source layout or stride;
//! * A is packed per `[MC]`-row block into `[KC × MR]` micro-panels,
//!   turning both `nn` (rows) and `tn` (columns) sources into the same
//!   contiguous broadcast-friendly layout;
//! * the depth dimension is blocked by [`KC`] so packed panels stay
//!   cache-resident; within a row block, the column-panel loop runs
//!   outermost so each B panel is L1-hot across all micro-rows.
//!
//! Packing converts `nt`'s dot-product inner loop (a reduction rustc
//! cannot vectorize under strict f32 semantics) into the same
//! independent-lane FMA form as `nn`, and there is deliberately no
//! zero-skip branch anywhere: dense activations autovectorize, and a
//! data-dependent branch in the inner loop would defeat that.
//!
//! # Threading
//!
//! A product is divided over row blocks on scoped std threads only when
//! a spawn pays for itself: at or above [`PAR_THRESHOLD`]
//! multiply-accumulates, and never with less than half of that per
//! thread (the arithmetic is on the constant). A `std::thread::scope`
//! spawn + join costs 40–75 µs for two threads and 165–250 µs for eight
//! on the hosts this was measured on — more than an entire 48-row
//! encoder product — so nothing in a served paper-shape forward, at
//! batch 1 or batch 16, threads at all, and nothing in a paper-shape
//! training microbatch either: since the trainer folds the front end
//! on its tape, its largest product is `ff1`/`ff2` at 3.1 M MACs, and
//! training's parallelism is its microbatch shards. The core count is
//! read once per process (`cores`), and every spawned thread is
//! counted in `tensor.kernel_spawns`.
//!
//! # Determinism
//!
//! Every output element accumulates its `k` products in ascending `p`
//! order, grouped only by the fixed [`KC`] blocking — an order that does
//! not depend on the row split, the thread count, or partial-tile
//! boundaries, so results are bit-identical at any thread count.
//!
//! `exp` is the crate's own branch-free polynomial (`exp`, behind
//! [`gelu_fwd`], [`gelu_bwd`], [`scaled_softmax_fwd`] and the fused
//! attention tile), not the platform libm: the same weights and inputs
//! give the same bits on every host and libc. The element-wise kernels
//! built on it are compiled twice — baseline and AVX2, picked by
//! `has_avx2` like the microkernel — and because Rust never contracts
//! `a * b + c` into an FMA, both compilations execute the same IEEE
//! operation sequence per element: the dispatch changes throughput,
//! never a bit.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::OnceLock;

/// Minimum multiply-accumulate count before a kernel spawns row-block
/// threads, and twice the least work a spawned thread is ever handed
/// (`threads = min(cores, rows, total / (PAR_THRESHOLD / 2))`).
///
/// The arithmetic: one thread retires ~21 G MAC/s (the engine's own
/// 42 GFLOP/s), so 2²² MACs are ~200 µs — the first size at which
/// halving the work repays a `std::thread::scope` spawn + join, which
/// measures 41 µs p50 / 75 µs p95 for two threads (67/128 for four,
/// 165/250 for eight; 2-core Xeon 2.1 GHz). Hence two threads from 2²³
/// MACs, a third only from 1.5·2²³. The previous value, 2¹⁸ (~12 µs of
/// work), made every paper-shape `ff1`/`ff2` product (48·64·128 = 393 K
/// MACs, ~19 µs) pay a spawn that cost two to four times the product.
/// The largest product of a served forward — `ff1` at batch 16,
/// 768·64·128 = 6.3 M MACs — stays below this line, and so does the
/// largest of a training microbatch of eight — `ff1`/`ff2` at
/// 384·64·128 = 3.1 M MACs, the front end being folded on the tape
/// (`tests/serving.rs` pins both). At paper shape no product of either
/// path reaches it. Sweep and end-to-end numbers are in `CHANGES.md`.
pub const PAR_THRESHOLD: usize = 1 << 23;

/// Microkernel rows: accumulator tile height (distinct A values held as
/// broadcasts per depth step).
pub const MR: usize = 4;
/// Microkernel columns: accumulator tile width. `MR × NR = 64` f32
/// accumulators are 8 × 256-bit registers on AVX2 (the dispatched fast
/// path — see `micro_fn`), leaving room for the A broadcast and B
/// loads; the baseline-SSE2 fallback spills some but stays correct.
pub const NR: usize = 16;
/// Depth blocking: packed panels cover at most `KC` of `k` per pass, so
/// a B column panel (`KC × NR` = 8 KiB) stays L1-resident.
pub const KC: usize = 256;
/// Row blocking: A is packed `MC` rows at a time (`MC × KC` = 64 KiB,
/// L2-resident and streamed once per column panel).
pub const MC: usize = 64;

std::thread_local! {
    /// When set, kernels on this thread never spawn row-block threads.
    /// The data-parallel trainer sets it on its workers: parallelism
    /// then comes from microbatch shards, and nesting gemm threads
    /// underneath would oversubscribe the cores.
    static SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
    /// Reusable packing buffers (per thread, so row-block workers and
    /// trainer shards never contend): B panels for the current k-block,
    /// A micro-panels for the current row block.
    static BPACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static APACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
std::thread_local! {
    /// Test hook: force a row-split thread count so the chunked path is
    /// exercised (and proven bit-identical) even on single-core hosts.
    static FORCE_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` with this thread's kernels forced sequential (restored on
/// exit, panic included). Results are bit-identical either way — the
/// row partition assigns every output element to exactly one thread
/// with an unchanged inner loop — so this is purely a scheduling knob,
/// and it only matters for products of at least [`PAR_THRESHOLD`] MACs:
/// callers that already divide the machine themselves (trainer shards,
/// a multi-worker `Batcher`) use it so the aggregation-sized GEMMs do
/// not oversubscribe the cores; everything smaller never threads anyway.
pub fn with_sequential<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SEQUENTIAL.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SEQUENTIAL.with(|s| s.replace(true)));
    f()
}

fn par_rows(m: usize, work_per_row: usize) -> usize {
    #[cfg(test)]
    {
        let forced = FORCE_THREADS.with(|f| f.get());
        if forced > 0 {
            return forced.min(m).max(1);
        }
    }
    let total = m * work_per_row;
    if total < PAR_THRESHOLD || SEQUENTIAL.with(|s| s.get()) {
        return 1;
    }
    cores().min(m).min(total / (PAR_THRESHOLD / 2)).max(1)
}

/// Rows each spawned thread takes when `m` rows are split `threads`
/// ways. Every kernel that spawns sizes its chunks here, so this is
/// also where `tensor.kernel_spawns` counts the threads about to start.
fn rows_per_thread(m: usize, threads: usize) -> usize {
    let rows_per = m.div_ceil(threads);
    ntt_obs::counter!("tensor.kernel_spawns").add(m.div_ceil(rows_per) as u64);
    rows_per
}

/// Cores available to this process, read once: a fresh
/// `std::thread::available_parallelism()` re-reads the cgroup files and
/// costs 12 µs p50 / 21 µs p95 — as long as a whole 48×64×64 product —
/// and std's own docs say to cache it. An affinity or quota change after
/// the first call of at least [`PAR_THRESHOLD`] MACs is therefore not
/// seen; only the thread count can be stale, never a result.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `body(row_range, c_chunk)` over `m` rows of a C whose rows are
/// `ldc` apart (`n` live columns each), in parallel when profitable.
/// `c_chunk[0]` is the first element of row `row_range.start`.
fn for_row_blocks<F>(m: usize, n: usize, ldc: usize, work_per_row: usize, c: &mut [f32], body: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    debug_assert!(n <= ldc || m <= 1, "row chunks would overlap");
    let threads = par_rows(m, work_per_row);
    if threads <= 1 {
        body(0..m, c);
        return;
    }
    let rows_per = rows_per_thread(m, threads);
    std::thread::scope(|s| {
        let mut rest = c;
        let mut consumed = 0usize;
        let mut start = 0usize;
        while start < m {
            let rows = rows_per.min(m - start);
            // Rows start..start+rows occupy [start*ldc, (start+rows-1)*ldc + n):
            // chunks are disjoint ascending because n <= ldc.
            let end = (start + rows - 1) * ldc + n;
            let (head, tail) = rest.split_at_mut(end - consumed);
            let chunk = &mut head[start * ldc - consumed..];
            rest = tail;
            consumed = end;
            let range = start..start + rows;
            let body = &body;
            s.spawn(move || body(range, chunk));
            start += rows;
        }
    });
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

type MicroFn = unsafe fn(usize, &[f32], &[f32], &mut [[f32; NR]; MR]);

/// The one place CPU features are detected: every twice-compiled kernel
/// in this file (the microkernel, [`gelu_fwd`], [`gelu_bwd`],
/// [`exp_shifted`]) asks here. std caches the `cpuid` result, so this
/// is a relaxed load after the first call.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Pick the widest microkernel this CPU supports, once per process.
fn micro_fn() -> MicroFn {
    static MICRO: OnceLock<MicroFn> = OnceLock::new();
    *MICRO.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            return micro_avx2 as MicroFn;
        }
        micro_baseline as MicroFn
    })
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
/// Every KC depth block of B is packed up front, then one thread scope
/// covers the entire product: each row worker walks the depth blocks
/// itself, so a multi-block `k` pays a single spawn/join instead of one
/// barrier (with a serialized re-pack) per block. The per-element
/// accumulation order — ascending `pc`, then ascending `p` within the
/// block — is unchanged.
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
    let n_blocks = k.div_ceil(KC);
    // Fixed per-block stride: a full KC block when there are several
    // (the tail block simply leaves its region partially used), exactly
    // what is packed when there is one — a 64-deep weight is not
    // preceded by a 256-deep memset. Panels *within* a block are
    // `kc * NR` apart, matching `gemm_row_block`'s indexing.
    let block_stride = n_panels * KC.min(k) * NR;
    BPACK.with(|bp| {
        let mut bp = bp.borrow_mut();
        bp.clear();
        bp.resize(n_blocks * block_stride, 0.0);
        for (bi, pc) in (0..k).step_by(KC).enumerate() {
            let kc = KC.min(k - pc);
            pack_b(b, brs, bcs, pc, kc, n, &mut bp[bi * block_stride..]);
        }
        let bp = &*bp;
        for_row_blocks(m, n, ldc, k * n, c, |rows, chunk| {
            for (bi, pc) in (0..k).step_by(KC).enumerate() {
                let kc = KC.min(k - pc);
                gemm_row_block(
                    a,
                    ars,
                    acs,
                    &bp[bi * block_stride..],
                    chunk,
                    ldc,
                    rows.clone(),
                    pc,
                    kc,
                    n,
                    n_panels,
                );
            }
        });
    });
}

/// One thread's share of [`gemm_core`]: rows `rows` of C (chunk-relative,
/// stride `ldc`) against the packed B panels for depth block `pc..pc+kc`.
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
fn gemm_row_block(
    a: &[f32],
    ars: usize,
    acs: usize,
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    rows: Range<usize>,
    pc: usize,
    kc: usize,
    n: usize,
    n_panels: usize,
) {
    APACK.with(|ap| {
        let mut ap = ap.borrow_mut();
        let row0 = rows.start;
        let mut ic = rows.start;
        while ic < rows.end {
            let mc = MC.min(rows.end - ic);
            let mp = mc.div_ceil(MR);
            ap.clear();
            ap.resize(mp * kc * MR, 0.0);
            pack_a_block(a, ars, acs, ic, mc, pc, kc, &mut ap);
            // Column panels outermost: each B panel stays L1-hot across
            // every micro-row of this MC block.
            let micro = micro_fn();
            for jp in 0..n_panels {
                let j0 = jp * NR;
                let jw = NR.min(n - j0);
                let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
                for ip in 0..mp {
                    let i0 = ic + ip * MR;
                    let iw = MR.min(rows.end - i0);
                    let apanel = &ap[ip * kc * MR..(ip + 1) * kc * MR];
                    let mut acc = [[0.0f32; NR]; MR];
                    // SAFETY: micro_fn verified the required CPU features.
                    unsafe { micro(kc, apanel, bpanel, &mut acc) };
                    for r in 0..iw {
                        let crow = &mut c[(i0 + r - row0) * ldc + j0..][..jw];
                        for (cv, av) in crow.iter_mut().zip(acc[r].iter()) {
                            *cv += av;
                        }
                    }
                }
            }
            ic += mc;
        }
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
// Attention products over head-interleaved [B, T, H, dh] layouts.
//
// Q/K/V stay exactly as the per-head reshape of the projection output —
// `[B, T, H, dh]` row-major — and every product below reads them through
// a row stride of `h * dh`. Nothing is transposed or copied.
// ---------------------------------------------------------------------------

/// `scores[b,h,i,j] += Σ_d q[b,i,h,d] · k[b,j,h,d]` — the `Q·Kᵀ` of
/// every head, from `[B, T, H, dh]` views into `[B, H, T, T]`.
pub fn attn_scores(
    q: &[f32],
    k: &[f32],
    scores: &mut [f32],
    b: usize,
    t: usize,
    h: usize,
    dh: usize,
) {
    debug_assert_eq!(q.len(), b * t * h * dh);
    debug_assert_eq!(k.len(), b * t * h * dh);
    debug_assert_eq!(scores.len(), b * h * t * t);
    if b * t * h * dh == 0 {
        return;
    }
    let hd = h * dh;
    for bi in 0..b {
        for hi in 0..h {
            let qo = bi * t * hd + hi * dh;
            let so = (bi * h + hi) * t * t;
            gemm_nt_strided(
                &q[qo..],
                hd,
                &k[qo..],
                hd,
                &mut scores[so..so + t * t],
                t,
                t,
                dh,
                t,
            );
        }
    }
}

/// `ctx[b,i,h,d] += Σ_j w[b,h,i,j] · v[b,j,h,d]` — attention-weighted
/// values, written straight back into `[B, T, H, dh]` layout (so the
/// head merge is a plain reshape). Also the gradient `dQ = G · K` of
/// [`attn_scores`] when called as `attn_context(g, k, dq, ..)`.
pub fn attn_context(
    w: &[f32],
    v: &[f32],
    ctx: &mut [f32],
    b: usize,
    t: usize,
    h: usize,
    dh: usize,
) {
    debug_assert_eq!(w.len(), b * h * t * t);
    debug_assert_eq!(v.len(), b * t * h * dh);
    debug_assert_eq!(ctx.len(), b * t * h * dh);
    if b * t * h * dh == 0 {
        return;
    }
    let hd = h * dh;
    for bi in 0..b {
        for hi in 0..h {
            let wo = (bi * h + hi) * t * t;
            let vo = bi * t * hd + hi * dh;
            gemm_nn_strided(
                &w[wo..wo + t * t],
                t,
                &v[vo..],
                hd,
                &mut ctx[vo..],
                hd,
                t,
                t,
                dh,
            );
        }
    }
}

/// `out[b,j,h,d] += Σ_i w[b,h,i,j] · x[b,i,h,d]` — the transposed
/// counterpart of [`attn_context`], covering the remaining attention
/// gradients: `dK = Gᵀ · Q` and `dV = Wᵀ · G_ctx`.
pub fn attn_context_t(
    w: &[f32],
    x: &[f32],
    out: &mut [f32],
    b: usize,
    t: usize,
    h: usize,
    dh: usize,
) {
    debug_assert_eq!(w.len(), b * h * t * t);
    debug_assert_eq!(x.len(), b * t * h * dh);
    debug_assert_eq!(out.len(), b * t * h * dh);
    if b * t * h * dh == 0 {
        return;
    }
    let hd = h * dh;
    for bi in 0..b {
        for hi in 0..h {
            let wo = (bi * h + hi) * t * t;
            let xo = bi * t * hd + hi * dh;
            gemm_tn_strided(
                &w[wo..wo + t * t],
                t,
                &x[xo..],
                hd,
                &mut out[xo..],
                hd,
                t,
                t,
                dh,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// exp, and the element-wise kernels built on it.
//
// One branch-free polynomial replaces every libm `expf`/`tanhf` of the
// forward and backward passes. The slice kernels are plain loops over
// `exp`, written once (`*_impl`, `#[inline(always)]`) and compiled
// twice: at the build's baseline, and again inside a
// `#[target_feature(enable = "avx2")]` wrapper where LLVM vectorizes
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
/// exactly `0.0` for `x < -87`, `-inf` included — the fused attention
/// tile's first-panel `exp(-inf - m)` relies on that zero; exactly `1.0`
/// at `0`; `exp(88)` (finite) for `x > 88`; NaN in, NaN out.
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

#[inline(always)]
fn exp_shifted_impl(x: &[f32], scale: f32, shift: f32, out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(x) {
        *o = exp(scale * x - shift);
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

/// [`exp_shifted_impl`] recompiled with AVX2 enabled.
///
/// # Safety
/// Caller must have verified AVX2 support (see [`has_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exp_shifted_avx2(x: &[f32], scale: f32, shift: f32, out: &mut [f32]) {
    exp_shifted_impl(x, scale, shift, out);
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

/// `out[i] = exp(scale · x[i] − shift)`: the exponent pass of a softmax
/// row, shared by [`scaled_softmax_fwd`] and the fused attention tile.
fn exp_shifted(x: &[f32], scale: f32, shift: f32, out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: has_avx2 verified the CPU feature the callee needs.
        return unsafe { exp_shifted_avx2(x, scale, shift, out) };
    }
    exp_shifted_impl(x, scale, shift, out);
}

/// Fused `out = softmax(scale * x)` over rows of width `d`, numerically
/// stabilized. One kernel replaces the previous `scale` op (a full
/// tensor materialization and tape node) plus the separate softmax.
pub fn scaled_softmax_fwd(x: &[f32], scale: f32, d: usize, out: &mut [f32]) {
    assert!(d > 0, "softmax over empty axis");
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(x.len() % d, 0);
    for (row, orow) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        let mut mx = f32::NEG_INFINITY;
        for &v in row {
            mx = mx.max(scale * v);
        }
        exp_shifted(row, scale, mx, orow);
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

/// Softmax backward in one pass over the rows: given `y = softmax(scale·x)`
/// and upstream `g`, writes `gx = scale · y ⊙ (g − ⟨y, g⟩)` without any
/// intermediate tensor. Used by both the fused scaled softmax
/// (`scale = 1/√dh`) and the plain softmax op (`scale = 1`).
pub fn softmax_bwd(y: &[f32], g: &[f32], scale: f32, d: usize, gx: &mut [f32]) {
    debug_assert_eq!(y.len(), g.len());
    debug_assert_eq!(y.len(), gx.len());
    debug_assert_eq!(y.len() % d.max(1), 0);
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

// ---------------------------------------------------------------------------
// Fused streaming-softmax attention (flash-attention style).
//
// `attn_fused_fwd` computes `softmax(scale · Q·Kᵀ) · V` per `(b, h)`
// without ever materializing the `[B, H, T, T]` score matrix: for each
// MR-row tile of queries it walks NR-wide key panels, computes the
// score tile with the same packed microkernel as the GEMM engine, and
// folds it into a running (max, sum, context) triple — the online
// softmax. The context accumulator is rescaled by
// `exp(m_old − m_new)` whenever a panel raises the running max, and
// divided by the final sum once per row. Peak extra memory per thread
// is the packed K panels (`T × dh` floats) plus an `MR × dh` context
// tile — independent of `T²`.
//
// Determinism: panels and row tiles are walked in fixed ascending
// order, and threads split only the batch dimension (each `bi` is an
// independent, contiguous slice of every operand), so results are
// bit-identical across thread counts and batch compositions. The
// online rescaling *does* reorder the IEEE sequence relative to the
// classic `attn_scores → scaled_softmax → attn_context` chain, so
// fused-vs-classic equality is epsilon-level, not bitwise — by design.
// ---------------------------------------------------------------------------

std::thread_local! {
    /// Fused-attention packing/accumulator scratch, separate from
    /// BPACK/APACK so a fused call can never clobber an enclosing
    /// gemm's panels. Capacity is retained across calls: steady-state
    /// serving does not allocate here.
    static FUSED_KPACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static FUSED_QPACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static FUSED_ROW: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static FUSED_D: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Per-row softmax statistics saved by [`attn_fused_fwd`] for the
/// backward pass: `(running max, exp-sum)` pairs, laid out `[B, H, T, 2]`.
pub const FUSED_STATS_PER_ROW: usize = 2;

/// Fused attention forward: `ctx[b,i,h,:] = softmax_j(scale · q_i·k_j) · V`
/// over `[B, T, H, dh]` views, overwriting `ctx` (same layout). When
/// `stats` is `Some`, the per-row `(max, sum)` pairs are written to it
/// (`[B, H, T, 2]`) so the backward can recompute score tiles exactly.
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
pub fn attn_fused_fwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    ctx: &mut [f32],
    stats: Option<&mut [f32]>,
    b: usize,
    t: usize,
    h: usize,
    dh: usize,
) {
    debug_assert_eq!(q.len(), b * t * h * dh);
    debug_assert_eq!(k.len(), b * t * h * dh);
    debug_assert_eq!(v.len(), b * t * h * dh);
    debug_assert_eq!(ctx.len(), b * t * h * dh);
    if let Some(st) = stats.as_deref() {
        debug_assert_eq!(st.len(), b * h * t * FUSED_STATS_PER_ROW);
    }
    if b == 0 || t == 0 || h == 0 {
        return;
    }
    ntt_obs::counter!("tensor.attn_fused_calls").inc();
    let hd = h * dh;
    // Scores + context flops per batch row; the same threshold heuristic
    // as the GEMM engine decides whether threads pay for themselves.
    let threads = par_rows(b, 2 * h * t * t * dh.max(1));
    if threads <= 1 {
        fused_fwd_rows(q, k, v, scale, ctx, stats, 0..b, t, h, dh);
        return;
    }
    let rows_per = rows_per_thread(b, threads);
    std::thread::scope(|s| {
        let mut ctx_rest = ctx;
        let mut stats_rest = stats;
        let mut start = 0usize;
        while start < b {
            let rows = rows_per.min(b - start);
            let (ctx_chunk, ctx_tail) = ctx_rest.split_at_mut(rows * t * hd);
            ctx_rest = ctx_tail;
            let stats_chunk = match stats_rest.take() {
                Some(st) => {
                    let (head, tail) = st.split_at_mut(rows * h * t * FUSED_STATS_PER_ROW);
                    stats_rest = Some(tail);
                    Some(head)
                }
                None => None,
            };
            let range = start..start + rows;
            s.spawn(move || {
                fused_fwd_rows(q, k, v, scale, ctx_chunk, stats_chunk, range, t, h, dh)
            });
            start += rows;
        }
    });
}

/// Pack the K rows of one `(b, h)` slice (`k_sub` starting at that
/// head's first element, row stride `hd`) into NR-column panels, KC
/// depth blocks — exactly the layout [`gemm_core`] feeds the
/// microkernel. Returns the per-block stride.
fn fused_pack_k(k_sub: &[f32], hd: usize, t: usize, dh: usize, out: &mut Vec<f32>) -> usize {
    let n_panels = t.div_ceil(NR);
    let n_blocks = dh.div_ceil(KC);
    let block_stride = n_panels * KC.min(dh) * NR;
    out.clear();
    out.resize(n_blocks * block_stride, 0.0);
    for (blk, pc) in (0..dh).step_by(KC).enumerate() {
        let kc = KC.min(dh - pc);
        // Logical B[p, j] = k_sub[j * hd + p]: a transposed (`nt`)
        // source, so each key row is read contiguously.
        pack_b(k_sub, 1, hd, pc, kc, t, &mut out[blk * block_stride..]);
    }
    block_stride
}

/// Pack one MR-row tile of Q (`rows ic..ic+mc` of `q_sub`, row stride
/// `hd`) into per-depth-block micro-panels of fixed `KC × MR` stride.
fn fused_pack_q(q_sub: &[f32], hd: usize, ic: usize, mc: usize, dh: usize, out: &mut Vec<f32>) {
    let n_blocks = dh.div_ceil(KC).max(1);
    out.clear();
    out.resize(n_blocks * KC * MR, 0.0);
    for (blk, pc) in (0..dh).step_by(KC).enumerate() {
        let kc = KC.min(dh - pc);
        pack_a_block(
            q_sub,
            hd,
            1,
            ic,
            mc,
            pc,
            kc,
            &mut out[blk * KC * MR..][..kc * MR],
        );
    }
}

/// One `Q·Kᵀ` score tile: MR query rows × NR key columns, summed over
/// the KC depth blocks (the microkernel overwrites its accumulator, so
/// multi-block depths are added here — same ascending-`pc` order as the
/// GEMM engine).
fn fused_score_tile(
    qpack: &[f32],
    kpack: &[f32],
    block_stride: usize,
    jp: usize,
    dh: usize,
) -> [[f32; NR]; MR] {
    let micro = micro_fn();
    let mut stile = [[0.0f32; NR]; MR];
    for (blk, pc) in (0..dh).step_by(KC).enumerate() {
        let kc = KC.min(dh - pc);
        let qpanel = &qpack[blk * KC * MR..][..kc * MR];
        let kpanel = &kpack[blk * block_stride + jp * kc * NR..][..kc * NR];
        let mut acc = [[0.0f32; NR]; MR];
        // SAFETY: micro_fn verified the required CPU features.
        unsafe { micro(kc, qpanel, kpanel, &mut acc) };
        for r in 0..MR {
            for j in 0..NR {
                stile[r][j] += acc[r][j];
            }
        }
    }
    stile
}

/// One thread's share of [`attn_fused_fwd`]: batch rows `range`, with
/// `ctx_chunk`/`stats_chunk` starting at row `range.start`.
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
fn fused_fwd_rows(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: f32,
    ctx_chunk: &mut [f32],
    mut stats_chunk: Option<&mut [f32]>,
    range: Range<usize>,
    t: usize,
    h: usize,
    dh: usize,
) {
    let hd = h * dh;
    let n_panels = t.div_ceil(NR);
    FUSED_KPACK.with(|kp| {
        FUSED_QPACK.with(|qp| {
            FUSED_ROW.with(|rowbuf| {
                let kp = &mut *kp.borrow_mut();
                let qp = &mut *qp.borrow_mut();
                let acc = &mut *rowbuf.borrow_mut();
                for bi in range.clone() {
                    for hi in 0..h {
                        let base = bi * t * hd + hi * dh;
                        let block_stride = fused_pack_k(&k[base..], hd, t, dh, kp);
                        let mut ic = 0usize;
                        while ic < t {
                            let mc = MR.min(t - ic);
                            fused_pack_q(&q[base..], hd, ic, mc, dh, qp);
                            let mut mrow = [f32::NEG_INFINITY; MR];
                            let mut lrow = [0.0f32; MR];
                            acc.clear();
                            acc.resize(MR * dh, 0.0);
                            for jp in 0..n_panels {
                                let j0 = jp * NR;
                                let jw = NR.min(t - j0);
                                let stile = fused_score_tile(qp, kp, block_stride, jp, dh);
                                for r in 0..mc {
                                    // Only the jw live lanes enter the
                                    // softmax: zero-padded tails never
                                    // contribute an exp term.
                                    let mut mnew = mrow[r];
                                    for &s in &stile[r][..jw] {
                                        mnew = mnew.max(scale * s);
                                    }
                                    // First panel: mrow is -inf, so
                                    // corr = exp(-inf) = 0 and the
                                    // (all-zero) accumulator is wiped.
                                    let corr = exp(mrow[r] - mnew);
                                    mrow[r] = mnew;
                                    let mut e = [0.0f32; NR];
                                    exp_shifted(&stile[r][..jw], scale, mnew, &mut e[..jw]);
                                    let mut lsum = 0.0f32;
                                    for &ej in &e[..jw] {
                                        lsum += ej;
                                    }
                                    lrow[r] = lrow[r] * corr + lsum;
                                    let acc_row = &mut acc[r * dh..(r + 1) * dh];
                                    for a in acc_row.iter_mut() {
                                        *a *= corr;
                                    }
                                    for (j, &ej) in e[..jw].iter().enumerate() {
                                        let vrow = &v[base + (j0 + j) * hd..][..dh];
                                        for (a, &vd) in acc_row.iter_mut().zip(vrow) {
                                            *a += ej * vd;
                                        }
                                    }
                                }
                            }
                            for r in 0..mc {
                                let i = ic + r;
                                let inv = 1.0 / lrow[r];
                                let off = ((bi - range.start) * t + i) * hd + hi * dh;
                                for (dst, &a) in
                                    ctx_chunk[off..off + dh].iter_mut().zip(&acc[r * dh..])
                                {
                                    *dst = a * inv;
                                }
                                if let Some(st) = stats_chunk.as_deref_mut() {
                                    let so = (((bi - range.start) * h + hi) * t + i)
                                        * FUSED_STATS_PER_ROW;
                                    st[so] = mrow[r];
                                    st[so + 1] = lrow[r];
                                }
                            }
                            ic += mc;
                        }
                    }
                }
            });
        });
    });
}

/// Fused attention backward: given the forward inputs, output `o`,
/// upstream gradient `g` (all `[B, T, H, dh]`) and the saved softmax
/// stats (`[B, H, T, 2]`), accumulates `dQ`, `dK`, `dV` into
/// `gq`/`gk`/`gv` (`+=`, matching the other backward kernels). Score
/// tiles are recomputed on the fly with the same packed microkernel and
/// tile order as the forward — the probabilities are bit-identical to
/// the ones the forward folded in, and nothing `T²`-sized is allocated.
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
pub fn attn_fused_bwd(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    g: &[f32],
    o: &[f32],
    stats: &[f32],
    scale: f32,
    gq: &mut [f32],
    gk: &mut [f32],
    gv: &mut [f32],
    b: usize,
    t: usize,
    h: usize,
    dh: usize,
) {
    debug_assert_eq!(q.len(), b * t * h * dh);
    debug_assert_eq!(g.len(), b * t * h * dh);
    debug_assert_eq!(o.len(), b * t * h * dh);
    debug_assert_eq!(stats.len(), b * h * t * FUSED_STATS_PER_ROW);
    if b == 0 || t == 0 || h == 0 {
        return;
    }
    let hd = h * dh;
    let threads = par_rows(b, 5 * h * t * t * dh.max(1));
    if threads <= 1 {
        fused_bwd_rows(q, k, v, g, o, stats, scale, gq, gk, gv, 0..b, t, h, dh);
        return;
    }
    let rows_per = rows_per_thread(b, threads);
    std::thread::scope(|s| {
        let (mut gq_rest, mut gk_rest, mut gv_rest) = (gq, gk, gv);
        let mut start = 0usize;
        while start < b {
            let rows = rows_per.min(b - start);
            let (gq_chunk, gq_tail) = gq_rest.split_at_mut(rows * t * hd);
            let (gk_chunk, gk_tail) = gk_rest.split_at_mut(rows * t * hd);
            let (gv_chunk, gv_tail) = gv_rest.split_at_mut(rows * t * hd);
            gq_rest = gq_tail;
            gk_rest = gk_tail;
            gv_rest = gv_tail;
            let range = start..start + rows;
            s.spawn(move || {
                fused_bwd_rows(
                    q, k, v, g, o, stats, scale, gq_chunk, gk_chunk, gv_chunk, range, t, h, dh,
                );
            });
            start += rows;
        }
    });
}

/// One thread's share of [`attn_fused_bwd`]: batch rows `range`, grad
/// chunks starting at row `range.start`.
#[allow(clippy::too_many_arguments)] // GEMM kernels take the full (dims, strides, panels) contract flat
fn fused_bwd_rows(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    g: &[f32],
    o: &[f32],
    stats: &[f32],
    scale: f32,
    gq_chunk: &mut [f32],
    gk_chunk: &mut [f32],
    gv_chunk: &mut [f32],
    range: Range<usize>,
    t: usize,
    h: usize,
    dh: usize,
) {
    let hd = h * dh;
    let n_panels = t.div_ceil(NR);
    FUSED_KPACK.with(|kp| {
        FUSED_QPACK.with(|qp| {
            FUSED_ROW.with(|rowbuf| {
                FUSED_D.with(|dbuf| {
                    let kp = &mut *kp.borrow_mut();
                    let qp = &mut *qp.borrow_mut();
                    let gqacc = &mut *rowbuf.borrow_mut();
                    let dvec = &mut *dbuf.borrow_mut();
                    for bi in range.clone() {
                        for hi in 0..h {
                            let base = bi * t * hd + hi * dh;
                            let rel = (bi - range.start) * t * hd + hi * dh;
                            // D_i = ⟨dO_i, O_i⟩ — the softmax-row dot
                            // term, precomputed once per (b, h).
                            dvec.clear();
                            dvec.resize(t, 0.0);
                            for (i, d) in dvec.iter_mut().enumerate() {
                                let grow = &g[base + i * hd..][..dh];
                                let orow = &o[base + i * hd..][..dh];
                                for (&gd, &od) in grow.iter().zip(orow) {
                                    *d += gd * od;
                                }
                            }
                            let block_stride = fused_pack_k(&k[base..], hd, t, dh, kp);
                            let mut ic = 0usize;
                            while ic < t {
                                let mc = MR.min(t - ic);
                                fused_pack_q(&q[base..], hd, ic, mc, dh, qp);
                                gqacc.clear();
                                gqacc.resize(MR * dh, 0.0);
                                for jp in 0..n_panels {
                                    let j0 = jp * NR;
                                    let jw = NR.min(t - j0);
                                    let stile = fused_score_tile(qp, kp, block_stride, jp, dh);
                                    for r in 0..mc {
                                        let i = ic + r;
                                        let so = ((bi * h + hi) * t + i) * FUSED_STATS_PER_ROW;
                                        let (mi, li) = (stats[so], stats[so + 1]);
                                        let inv_l = 1.0 / li;
                                        let grow = &g[base + i * hd..][..dh];
                                        let qrow = &q[base + i * hd..][..dh];
                                        let di = dvec[i];
                                        let gqrow = &mut gqacc[r * dh..(r + 1) * dh];
                                        let mut e = [0.0f32; NR];
                                        exp_shifted(&stile[r][..jw], scale, mi, &mut e[..jw]);
                                        for (j, &ej) in e[..jw].iter().enumerate() {
                                            let jj = j0 + j;
                                            let krow = &k[base + jj * hd..][..dh];
                                            let vrow = &v[base + jj * hd..][..dh];
                                            // P_ij from the recomputed
                                            // score and saved stats.
                                            let p = ej * inv_l;
                                            let mut dp = 0.0f32;
                                            for (&gd, &vd) in grow.iter().zip(vrow) {
                                                dp += gd * vd;
                                            }
                                            let ds = scale * p * (dp - di);
                                            for (a, &kd) in gqrow.iter_mut().zip(krow) {
                                                *a += ds * kd;
                                            }
                                            let goff = rel + jj * hd;
                                            for (a, &qd) in
                                                gk_chunk[goff..goff + dh].iter_mut().zip(qrow)
                                            {
                                                *a += ds * qd;
                                            }
                                            for (a, &gd) in
                                                gv_chunk[goff..goff + dh].iter_mut().zip(grow)
                                            {
                                                *a += p * gd;
                                            }
                                        }
                                    }
                                }
                                for r in 0..mc {
                                    let off = rel + (ic + r) * hd;
                                    for (dst, &a) in
                                        gq_chunk[off..off + dh].iter_mut().zip(&gqacc[r * dh..])
                                    {
                                        *dst += a;
                                    }
                                }
                                ic += mc;
                            }
                        }
                    }
                });
            });
        });
    });
}

/// Naive triple-loop reference kernels: the ground truth the tiled
/// engine is proptested against, and the baseline the `kernels` bench
/// measures its GFLOP/s floor from. Deliberately unblocked and
/// unpacked — do not "optimize" these.
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

    fn with_forced_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        FORCE_THREADS.with(|t| t.set(threads));
        let r = f();
        FORCE_THREADS.with(|t| t.set(0));
        r
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
    fn nn_matches_naive_large_parallel() {
        // Larger than every tile dimension, odd in every axis, and run
        // with a forced row split to exercise the threaded path.
        let (m, k, n) = (97, 300, 130);
        let a = rand_vec(m * k, 3);
        let b = rand_vec(k * n, 4);
        let mut c = vec![0.0; m * n];
        with_forced_threads(3, || gemm_nn(&a, &b, &mut c, m, k, n));
        assert_close(&c, &naive_nn(&a, &b, m, k, n));
    }

    #[test]
    fn row_split_is_bit_identical() {
        // The determinism contract behind `with_sequential`: the thread
        // count must not change a single bit, in any layout.
        let (m, k, n) = (53, 67, 41);
        type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let cases: [(&str, Kernel, usize, usize); 3] = [
            ("nn", gemm_nn, m * k, k * n),
            ("nt", gemm_nt, m * k, n * k),
            ("tn", gemm_tn, k * m, k * n),
        ];
        for (name, run, alen, blen) in cases {
            let a = rand_vec(alen, 11);
            let b = rand_vec(blen, 12);
            for threads in [2, 3, 7] {
                let mut c1 = vec![0.0; m * n];
                run(&a, &b, &mut c1, m, k, n);
                let mut c2 = vec![0.0; m * n];
                with_forced_threads(threads, || run(&a, &b, &mut c2, m, k, n));
                assert_eq!(
                    c1, c2,
                    "{name}: thread count changed bits ({threads} threads)"
                );
            }
        }
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
    fn tn_large_parallel_path() {
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
        with_forced_threads(4, || gemm_tn(&at, &b, &mut c1, m, k, n));
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

    #[test]
    fn attn_kernels_match_transpose_reference() {
        let (b, t, h, dh) = (2usize, 5, 3, 4);
        let q = rand_vec(b * t * h * dh, 31);
        let k = rand_vec(b * t * h * dh, 32);
        let v = rand_vec(b * t * h * dh, 33);
        let mut scores = vec![0.0; b * h * t * t];
        attn_scores(&q, &k, &mut scores, b, t, h, dh);
        let idx = |bi: usize, ti: usize, hi: usize, d: usize| ((bi * t + ti) * h + hi) * dh + d;
        for bi in 0..b {
            for hi in 0..h {
                for i in 0..t {
                    for j in 0..t {
                        let mut want = 0.0f32;
                        for d in 0..dh {
                            want += q[idx(bi, i, hi, d)] * k[idx(bi, j, hi, d)];
                        }
                        let got = scores[((bi * h + hi) * t + i) * t + j];
                        assert!((got - want).abs() < 1e-4, "scores {got} vs {want}");
                    }
                }
            }
        }
        let mut ctx = vec![0.0; b * t * h * dh];
        attn_context(&scores, &v, &mut ctx, b, t, h, dh);
        let mut ctx_t = vec![0.0; b * t * h * dh];
        attn_context_t(&scores, &v, &mut ctx_t, b, t, h, dh);
        for bi in 0..b {
            for hi in 0..h {
                for i in 0..t {
                    for d in 0..dh {
                        let (mut want, mut want_t) = (0.0f32, 0.0f32);
                        for j in 0..t {
                            want += scores[((bi * h + hi) * t + i) * t + j] * v[idx(bi, j, hi, d)];
                            want_t +=
                                scores[((bi * h + hi) * t + j) * t + i] * v[idx(bi, j, hi, d)];
                        }
                        assert!((ctx[idx(bi, i, hi, d)] - want).abs() < 1e-3);
                        assert!((ctx_t[idx(bi, i, hi, d)] - want_t).abs() < 1e-3);
                    }
                }
            }
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
        attn_scores(&[], &[], &mut [], 0, 0, 2, 0);
        scaled_softmax_fwd(&[], 1.0, 3, &mut []);
        attn_fused_fwd(&[], &[], &[], 1.0, &mut [], None, 0, 3, 2, 4);
    }

    /// The classic three-kernel chain the fused path replaces.
    #[allow(clippy::too_many_arguments)]
    fn classic_attention(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        scale: f32,
        b: usize,
        t: usize,
        h: usize,
        dh: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut scores = vec![0.0; b * h * t * t];
        attn_scores(q, k, &mut scores, b, t, h, dh);
        let mut w = vec![0.0; b * h * t * t];
        scaled_softmax_fwd(&scores, scale, t, &mut w);
        let mut ctx = vec![0.0; b * t * h * dh];
        attn_context(&w, v, &mut ctx, b, t, h, dh);
        (ctx, w)
    }

    #[test]
    fn fused_attention_matches_classic_chain() {
        // Shapes straddling every tile boundary: t below/at/above NR,
        // t = 1, primes, and dh not a multiple of anything.
        for (b, t, h, dh) in [
            (1usize, 1usize, 1usize, 3usize),
            (2, 5, 3, 4),
            (1, 15, 2, 7),
            (1, 16, 1, 8),
            (2, 17, 2, 5),
            (1, 31, 1, 16),
            (1, 48, 4, 16),
        ] {
            let n = b * t * h * dh;
            let q = rand_vec(n, 51);
            let k = rand_vec(n, 52);
            let v = rand_vec(n, 53);
            let scale = 1.0 / (dh as f32).sqrt();
            let (want, _) = classic_attention(&q, &k, &v, scale, b, t, h, dh);
            let mut got = vec![f32::NAN; n];
            let mut stats = vec![f32::NAN; b * h * t * FUSED_STATS_PER_ROW];
            attn_fused_fwd(&q, &k, &v, scale, &mut got, Some(&mut stats), b, t, h, dh);
            for (x, y) in got.iter().zip(&want) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "fused {x} vs classic {y} at (b={b},t={t},h={h},dh={dh})"
                );
            }
            // Stats must be fully written and finite (l >= 1: the max
            // element always contributes exp(0) = 1).
            for pair in stats.chunks(2) {
                assert!(pair[0].is_finite());
                assert!(pair[1] >= 1.0);
            }
        }
    }

    #[test]
    fn fused_attention_is_bit_identical_across_threads() {
        // Threads split only the batch dimension; the per-(b,h) tile
        // walk is fixed — so any forced split must reproduce the
        // sequential bits exactly.
        let (b, t, h, dh) = (5usize, 17, 3, 8);
        let n = b * t * h * dh;
        let q = rand_vec(n, 61);
        let k = rand_vec(n, 62);
        let v = rand_vec(n, 63);
        let mut base = vec![0.0; n];
        let mut base_stats = vec![0.0; b * h * t * FUSED_STATS_PER_ROW];
        attn_fused_fwd(
            &q,
            &k,
            &v,
            0.5,
            &mut base,
            Some(&mut base_stats),
            b,
            t,
            h,
            dh,
        );
        for threads in [2, 3, 7] {
            let mut ctx = vec![0.0; n];
            let mut stats = vec![0.0; b * h * t * FUSED_STATS_PER_ROW];
            with_forced_threads(threads, || {
                attn_fused_fwd(&q, &k, &v, 0.5, &mut ctx, Some(&mut stats), b, t, h, dh);
            });
            assert_eq!(base, ctx, "fwd bits changed at {threads} threads");
            assert_eq!(base_stats, stats, "stats bits changed at {threads} threads");
        }
    }

    #[test]
    fn fused_attention_is_batch_composition_invariant() {
        // Window w's context must be bit-identical whether it rides in
        // a batch of 4 or alone — each batch row is an independent,
        // identically-ordered computation.
        let (b, t, h, dh) = (4usize, 13, 2, 6);
        let n = b * t * h * dh;
        let q = rand_vec(n, 71);
        let k = rand_vec(n, 72);
        let v = rand_vec(n, 73);
        let mut batched = vec![0.0; n];
        attn_fused_fwd(&q, &k, &v, 0.3, &mut batched, None, b, t, h, dh);
        let per = t * h * dh;
        for bi in 0..b {
            let mut solo = vec![0.0; per];
            attn_fused_fwd(
                &q[bi * per..][..per],
                &k[bi * per..][..per],
                &v[bi * per..][..per],
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
        for (b, t, h, dh) in [
            (1usize, 1usize, 1usize, 3usize),
            (2, 17, 2, 5),
            (1, 20, 3, 4),
        ] {
            let n = b * t * h * dh;
            let q = rand_vec(n, 81);
            let k = rand_vec(n, 82);
            let v = rand_vec(n, 83);
            let g = rand_vec(n, 84);
            let scale = 1.0 / (dh as f32).sqrt();

            // Classic chain gradients, composed from the existing
            // kernels: dV = Wᵀ·G, dW[i,j] = ⟨g_i, v_j⟩, dS via
            // softmax_bwd, dQ = dS·K, dK = dSᵀ·Q.
            let (_, w) = classic_attention(&q, &k, &v, scale, b, t, h, dh);
            let mut want_gv = vec![0.0; n];
            attn_context_t(&w, &g, &mut want_gv, b, t, h, dh);
            let mut dw = vec![0.0; b * h * t * t];
            attn_scores(&g, &v, &mut dw, b, t, h, dh);
            let mut ds = vec![0.0; b * h * t * t];
            softmax_bwd(&w, &dw, scale, t, &mut ds);
            let mut want_gq = vec![0.0; n];
            attn_context(&ds, &k, &mut want_gq, b, t, h, dh);
            let mut want_gk = vec![0.0; n];
            attn_context_t(&ds, &q, &mut want_gk, b, t, h, dh);

            let mut ctx = vec![0.0; n];
            let mut stats = vec![0.0; b * h * t * FUSED_STATS_PER_ROW];
            attn_fused_fwd(&q, &k, &v, scale, &mut ctx, Some(&mut stats), b, t, h, dh);
            let (mut gq, mut gk, mut gv) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            attn_fused_bwd(
                &q, &k, &v, &g, &ctx, &stats, scale, &mut gq, &mut gk, &mut gv, b, t, h, dh,
            );
            for (name, got, want) in [
                ("gq", &gq, &want_gq),
                ("gk", &gk, &want_gk),
                ("gv", &gv, &want_gv),
            ] {
                for (x, y) in got.iter().zip(want.iter()) {
                    assert!(
                        (x - y).abs() < 1e-4,
                        "{name}: fused {x} vs classic {y} (b={b},t={t},h={h},dh={dh})"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_backward_is_bit_identical_across_threads() {
        let (b, t, h, dh) = (5usize, 11, 2, 7);
        let n = b * t * h * dh;
        let q = rand_vec(n, 91);
        let k = rand_vec(n, 92);
        let v = rand_vec(n, 93);
        let g = rand_vec(n, 94);
        let mut ctx = vec![0.0; n];
        let mut stats = vec![0.0; b * h * t * FUSED_STATS_PER_ROW];
        attn_fused_fwd(&q, &k, &v, 0.4, &mut ctx, Some(&mut stats), b, t, h, dh);
        let run = |threads: usize| {
            let (mut gq, mut gk, mut gv) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            let mut go = || {
                attn_fused_bwd(
                    &q, &k, &v, &g, &ctx, &stats, 0.4, &mut gq, &mut gk, &mut gv, b, t, h, dh,
                )
            };
            if threads == 0 {
                go();
            } else {
                with_forced_threads(threads, go);
            }
            (gq, gk, gv)
        };
        let base = run(0);
        for threads in [2, 3, 7] {
            assert_eq!(base, run(threads), "bwd bits changed at {threads} threads");
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
        // The fused tile's first panel: exp(-inf - m) for a finite m.
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
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();

            let (mut f0, mut b0, mut e0) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
            gelu_fwd_impl(&x, &mut f0);
            gelu_bwd_impl(&x, &g, &mut b0);
            exp_shifted_impl(&x, 0.25, 1.5, &mut e0);
            // Whatever the dispatcher picked on this host agrees too.
            let (mut f1, mut b1, mut e1) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
            gelu_fwd(&x, &mut f1);
            gelu_bwd(&x, &g, &mut b1);
            exp_shifted(&x, 0.25, 1.5, &mut e1);
            assert_eq!(bits(&f0), bits(&f1), "gelu_fwd, len {len}");
            assert_eq!(bits(&b0), bits(&b1), "gelu_bwd, len {len}");
            assert_eq!(bits(&e0), bits(&e1), "exp_shifted, len {len}");
            // And element i does not depend on which lane it rode in.
            for i in 0..len {
                assert_eq!(f0[i].to_bits(), gelu1(x[i]).to_bits());
                assert_eq!(e0[i].to_bits(), exp(0.25 * x[i] - 1.5).to_bits());
            }

            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                let (mut f2, mut b2, mut e2) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
                // SAFETY: has_avx2 verified the CPU feature the callees need.
                unsafe {
                    gelu_fwd_avx2(&x, &mut f2);
                    gelu_bwd_avx2(&x, &g, &mut b2);
                    exp_shifted_avx2(&x, 0.25, 1.5, &mut e2);
                }
                assert_eq!(bits(&f0), bits(&f2), "gelu_fwd avx2, len {len}");
                assert_eq!(bits(&b0), bits(&b2), "gelu_bwd avx2, len {len}");
                assert_eq!(bits(&e0), bits(&e2), "exp_shifted avx2, len {len}");
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

    // ---- thread policy ----

    #[test]
    fn threads_only_where_a_spawn_pays() {
        // Off the FORCE_THREADS hook, this thread not sequential.
        let half = PAR_THRESHOLD / 2;
        assert_eq!(par_rows(1024, PAR_THRESHOLD / 1024 - 1), 1);
        let at = par_rows(1024, PAR_THRESHOLD / 1024);
        assert_eq!(at, cores().min(2), "two threads at the threshold");
        // Never less than half the threshold per thread, never more
        // threads than cores or rows.
        for total_halves in [2usize, 3, 5, 64] {
            let got = par_rows(1024, total_halves * half / 1024);
            assert_eq!(got, cores().min(total_halves));
        }
        assert_eq!(par_rows(1, 64 * PAR_THRESHOLD), 1);
        assert_eq!(with_sequential(|| par_rows(1024, PAR_THRESHOLD)), 1);
    }

    #[test]
    fn spawned_threads_are_counted() {
        let spawns = || ntt_obs::counter!("tensor.kernel_spawns").get();
        let (m, k, n) = (53, 67, 41);
        let a = rand_vec(m * k, 11);
        let b = rand_vec(k * n, 12);
        let mut c = vec![0.0; m * n];
        // Other tests spawn concurrently, so the global counter can only
        // be bounded from below here; `tests/serving.rs` pins the exact
        // zero for a served forward in a process of its own.
        let before = spawns();
        with_forced_threads(3, || gemm_nn(&a, &b, &mut c, m, k, n));
        assert!(spawns() >= before + 3);
    }
}
