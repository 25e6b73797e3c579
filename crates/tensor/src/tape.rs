//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Tape`] records every operation of one forward pass as a node in a
//! flat arena; [`Var`] is a copyable handle (tape reference + node index).
//! There is one way to get a gradient: [`Tape::backward_params`] walks
//! the arena in reverse and *collects* per-parameter gradients into a
//! [`ParamGrads`] bundle without touching any [`Param`]. The bundle is
//! `Send`, so the data-parallel trainer's worker threads produce one per
//! microbatch and the coordinator reduces them in a fixed shard-index
//! order (bit-identical for any thread count), clips the sum and hands
//! it to the optimizer.
//!
//! # Scratch arena
//!
//! Every tensor the tape allocates — forward intermediates, backward
//! gradient buffers — is drawn from a tape-owned scratch arena (a pool
//! of retired `Vec<f32>` buffers bucketed by length). [`Tape::reset`]
//! clears the recorded graph and returns every node's buffer to the
//! arena: a training loop that resets one tape per optimizer step
//! (instead of dropping and reallocating it) reuses the same memory step
//! after step, eliminating allocator churn on the hot path.
//! `backward_params` additionally retires each intermediate gradient the
//! moment its node has been processed, so a step's backward pass mostly
//! recycles its own buffers. The arena only changes *where
//! buffers come from*, never their contents — results are bit-identical
//! with or without reuse.
//!
//! One tape lives for one microbatch (and is reset, not rebuilt, for the
//! next) — there is no graph reuse, no aliasing, and therefore no
//! cache-invalidation subtlety. A tape holds no randomness and no mode
//! beyond its kind, so a forward pass is a pure function of the weights
//! and the inputs, whichever thread runs it.
//!
//! # Inference mode
//!
//! A tape built with [`Tape::inference`] records no backward metadata:
//! every node degrades to a leaf, backward-only tensors (layer-norm
//! `xhat`, MSE targets, attention softmax weights) are never
//! materialized. [`Tape::backward_params`] panics on such a tape.
//! This is the tape kind the evaluation loops and the `ntt-serve`
//! engine run on. Values still live on the tape (later ops read them)
//! and are retired into the scratch arena on [`Tape::reset`], so a
//! serving loop that resets one inference tape per request reuses the
//! same memory request after request.
//!
//! # Gradients only where they can reach a parameter
//!
//! Each node records, when it is pushed, whether it needs a gradient: a
//! trainable parameter does, a constant or frozen parameter does not,
//! and an op does iff one of its inputs does. On a recording tape an op
//! none of whose inputs needs a gradient keeps no backward-only tensors
//! and records a leaf, and [`Tape::backward_params`] computes nothing
//! for nodes that need no gradient. A frozen trunk under a trained head
//! is therefore run like an inference forward, and only the head is
//! differentiated. Trainable gradients keep their bits.
//!
//! Every op runs the identical kernel sequence on both tape kinds, so
//! an inference forward is bit-for-bit the recording forward of the
//! same graph, and bit-identical across thread counts, batch
//! compositions, runs, and resets. The tape kind changes what is
//! *kept*, never a value.
//!
//! The op set is exactly what the Network Traffic Transformer needs
//! (linear algebra, one attention op, sequence slicing for the
//! multi-timescale aggregator, fused layer-norm, GELU and MSE).
//! Attention ([`Var::attn_fused`]) works directly on head-interleaved
//! `[B, T, H, dh]` layouts so multi-head attention never materializes a
//! transpose. Each op's backward rule is unit-tested against finite
//! differences in [`crate::grad_check`].

use crate::shape::{self, Broadcast};
use crate::{kernels, Param, Tensor};
use std::cell::{Cell, Ref, RefCell};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One SplitMix64 step: advances `state` and returns the next output.
/// Tests and benchmarks draw their reproducible streams from it.
pub fn splitmix64(state: &mut u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    *state = z;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Retired buffers kept per length class; bounds arena growth when one
/// tape sees many distinct shapes.
const SCRATCH_BUCKET_CAP: usize = 32;

/// Per-bucket *byte* budget: a bucket stops absorbing retirements once
/// it already pools this many bytes (it always keeps at least one
/// buffer, so exact-length reuse keeps working for any shape). The
/// count cap alone let giant buffers — e.g. `[B, H, T, T]` attention
/// weights at large batch — pin up to
/// 32 × their size indefinitely. Sized so it never binds at paper-scale
/// training shapes (largest recurring bucket there is ~8 MiB × a
/// handful live); only pathological one-off shapes are shed.
const SCRATCH_BUCKET_BYTE_CAP: usize = 64 << 20;

const F32_BYTES: usize = std::mem::size_of::<f32>();

/// Pool of retired `f32` buffers, bucketed by exact length. Training
/// shapes are stable step over step, so exact-length reuse hits nearly
/// always; buffers for shapes that stop occurring age out when the tape
/// is dropped. Pooled bytes are tracked, with the lifetime high-water
/// exported through the process-wide `tensor.tape_arena_bytes` gauge.
#[derive(Default)]
struct Scratch {
    pool: RefCell<BTreeMap<usize, Vec<Vec<f32>>>>,
    /// Bytes currently pooled across every bucket.
    bytes: Cell<usize>,
    /// Largest value `bytes` has reached over this arena's lifetime.
    high_water: Cell<usize>,
}

impl Scratch {
    fn on_take(&self, n: usize) {
        self.bytes.set(self.bytes.get() - n * F32_BYTES);
    }

    /// A zeroed buffer of length `n` (for accumulation targets).
    fn take_zeroed(&self, n: usize) -> Vec<f32> {
        match self.pool.borrow_mut().get_mut(&n).and_then(Vec::pop) {
            Some(mut v) => {
                self.on_take(n);
                v.fill(0.0);
                v
            }
            None => vec![0.0; n],
        }
    }

    /// A buffer of length `n` with arbitrary contents — the caller must
    /// overwrite every element before the buffer becomes visible.
    fn take_overwrite(&self, n: usize) -> Vec<f32> {
        match self.pool.borrow_mut().get_mut(&n).and_then(Vec::pop) {
            Some(v) => {
                self.on_take(n);
                v
            }
            None => vec![0.0; n],
        }
    }

    /// A buffer holding a copy of `src`.
    fn take_copy(&self, src: &[f32]) -> Vec<f32> {
        match self
            .pool
            .borrow_mut()
            .get_mut(&src.len())
            .and_then(Vec::pop)
        {
            Some(mut v) => {
                self.on_take(src.len());
                v.copy_from_slice(src);
                v
            }
            None => src.to_vec(),
        }
    }

    /// Retire a buffer for reuse. Dropped (freed, not pooled) when its
    /// bucket is full by count *or* by bytes — except that every bucket
    /// keeps at least one buffer, so steady-state reuse survives any
    /// buffer size.
    fn put(&self, v: Vec<f32>) {
        if v.is_empty() {
            return;
        }
        let len = v.len();
        let mut pool = self.pool.borrow_mut();
        let bucket = pool.entry(len).or_default();
        let within_bytes = (bucket.len() + 1) * len * F32_BYTES <= SCRATCH_BUCKET_BYTE_CAP;
        if bucket.len() < SCRATCH_BUCKET_CAP && (bucket.is_empty() || within_bytes) {
            bucket.push(v);
            let bytes = self.bytes.get() + len * F32_BYTES;
            self.bytes.set(bytes);
            if bytes > self.high_water.get() {
                self.high_water.set(bytes);
                // Process-wide high-water mark across all tapes: only
                // ratcheted upward, so concurrent arenas never regress it.
                let gauge = ntt_obs::gauge!("tensor.tape_arena_bytes");
                if bytes as f64 > gauge.get() {
                    gauge.set(bytes as f64);
                }
            }
        }
    }

    fn buffered(&self) -> usize {
        self.pool.borrow().values().map(Vec::len).sum()
    }

    /// `(buffer length, pooled count)` per bucket, ascending length.
    fn bucket_lens(&self) -> Vec<(usize, usize)> {
        let mut lens: Vec<(usize, usize)> = self
            .pool
            .borrow()
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(&len, b)| (len, b.len()))
            .collect();
        lens.sort_unstable();
        lens
    }
}

/// Operation recorded on the tape. Indices refer to earlier nodes.
enum Op {
    /// Constant input — receives a gradient but propagates nowhere.
    Leaf,
    /// Parameter — its gradient is collected into the [`ParamGrads`]
    /// bundle (when trainable).
    ParamLeaf(Param),
    Add(usize, usize, Broadcast),
    Scale(usize, f32),
    MatMul(usize, usize),
    /// `x · W + b` over the last axis of `x` (`W` `[K, N]`, `b` `[N]`).
    Linear {
        x: usize,
        w: usize,
        b: usize,
    },
    Gelu(usize),
    /// Attention `softmax(scale·Q·Kᵀ)·V` per head, `[B, T, H, dh]` in
    /// and out. `weights` saves the key-major `[B, H, T, T]` softmax
    /// weights for the backward.
    AttnFused {
        q: usize,
        k: usize,
        v: usize,
        scale: f32,
        weights: Vec<f32>,
    },
    LayerNorm {
        x: usize,
        gamma: usize,
        beta: usize,
        /// Normalized activations (pre gamma/beta), saved for backward.
        xhat: Tensor,
        /// Reciprocal standard deviation per row, saved for backward.
        rstd: Vec<f32>,
    },
    Reshape(usize),
    /// Rows `[start, start+len)` along axis 1 of a rank-3 tensor.
    SliceAxis1 {
        x: usize,
        start: usize,
    },
    /// Concatenate rank-3 tensors along axis 1.
    ConcatAxis1(Vec<usize>),
    /// Pick one slot along axis 1: `[B, T, D] -> [B, D]`.
    SelectAxis1 {
        x: usize,
        idx: usize,
    },
    /// Mean over axis 1: `[B, T, D] -> [B, D]`.
    MeanAxis1(usize),
    /// Concatenate rank-2 tensors along the last axis.
    ConcatLast(usize, usize),
    /// Fused mean-squared-error against a constant target.
    MseLoss {
        pred: usize,
        target: Tensor,
    },
}

impl Op {
    /// Whether any node this op reads satisfies `f`.
    fn reads_any(&self, f: impl Fn(usize) -> bool) -> bool {
        match *self {
            Op::Leaf | Op::ParamLeaf(_) => false,
            Op::Add(a, b, _) | Op::MatMul(a, b) | Op::ConcatLast(a, b) => f(a) || f(b),
            Op::Linear { x, w, b } => f(x) || f(w) || f(b),
            Op::AttnFused { q, k, v, .. } => f(q) || f(k) || f(v),
            Op::LayerNorm { x, gamma, beta, .. } => f(x) || f(gamma) || f(beta),
            Op::Scale(a, _) | Op::Gelu(a) | Op::Reshape(a) | Op::MeanAxis1(a) => f(a),
            Op::SliceAxis1 { x, .. } | Op::SelectAxis1 { x, .. } => f(x),
            Op::MseLoss { pred, .. } => f(pred),
            Op::ConcatAxis1(ref parts) => parts.iter().any(|&p| f(p)),
        }
    }
}

struct Node {
    op: Op,
    value: Tensor,
    /// Whether a gradient can reach a trainable parameter through this
    /// node, decided at record time: a trainable `ParamLeaf`, or any op
    /// with such an input. The backward walk computes and propagates
    /// gradients only into nodes that need one.
    needs_grad: bool,
}

/// Arena of recorded operations for one forward pass.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// Retired-buffer pool backing every tape allocation.
    scratch: Scratch,
    /// Whether ops record backward metadata. `false` = inference mode:
    /// no graph, no backward-only tensors, `backward_params` panics.
    grad: bool,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

/// Handle to a value on a tape.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    id: usize,
}

/// Per-parameter gradients of one backward pass, detached from the tape.
///
/// Produced by [`Tape::backward_params`] on any thread (`Send + Sync`),
/// reduced across microbatches with [`ParamGrads::add_assign`] /
/// [`ParamGrads::reduce`], and finally consumed by an optimizer. Entries
/// are kept in a deterministic tape-derived order (reverse-walk
/// encounter order), which is identical across microbatches of the same
/// model — so a fixed-order reduction is bit-reproducible for any
/// thread count. Frozen (non-trainable) parameters get no entry.
pub struct ParamGrads {
    entries: Vec<(Param, Tensor)>,
}

impl ParamGrads {
    /// Number of parameters that received a gradient.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no trainable parameter participated in the loss.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(param, gradient)` pairs in deterministic tape order.
    pub fn iter(&self) -> impl Iterator<Item = (&Param, &Tensor)> {
        self.entries.iter().map(|(p, g)| (p, g))
    }

    /// Gradient recorded for `p`, if any.
    pub fn get(&self, p: &Param) -> Option<&Tensor> {
        self.entries.iter().find(|(q, _)| q == p).map(|(_, g)| g)
    }

    /// Elementwise `self += rhs`. The right-hand bundle must cover the
    /// same parameters in the same order (it always does when both came
    /// from microbatches of one model); anything else is a caller bug.
    pub fn add_assign(&mut self, rhs: &ParamGrads) {
        assert_eq!(
            self.entries.len(),
            rhs.entries.len(),
            "reducing gradient bundles of different models"
        );
        for ((pa, ga), (pb, gb)) in self.entries.iter_mut().zip(rhs.entries.iter()) {
            assert!(pa == pb, "gradient bundle parameter order diverged");
            ga.add_assign(gb);
        }
    }

    /// Sum bundles in iteration order (shard-index order for the
    /// data-parallel trainer). Returns `None` for an empty iterator.
    pub fn reduce(shards: impl IntoIterator<Item = ParamGrads>) -> Option<ParamGrads> {
        let mut it = shards.into_iter();
        let mut acc = it.next()?;
        for shard in it {
            acc.add_assign(&shard);
        }
        Some(acc)
    }

    /// Scale every gradient by `c` (gradient clipping / loss weighting).
    pub fn scale(&mut self, c: f32) {
        for (_, g) in &mut self.entries {
            for v in g.data_mut() {
                *v *= c;
            }
        }
    }

    /// Global L2 norm over all entries, accumulated in f64 in entry
    /// order.
    pub fn global_norm(&self) -> f32 {
        let sq: f64 = self
            .entries
            .iter()
            .flat_map(|(_, g)| g.data())
            .map(|&x| (x as f64) * (x as f64))
            .sum();
        sq.sqrt() as f32
    }
}

/// Free list of reusable [`Tape`]s, all of one kind: a caller pops one,
/// resets it (which retires the previous run's buffers into the tape's
/// scratch arena), runs, and returns it. Across iterations the same
/// arenas are recycled, so steady-state loops — optimizer steps in the
/// trainer, requests in the serving engine — stop paying allocator
/// churn. Purely a memory optimization: a reset tape keeps nothing of
/// its previous run, so results are bit-identical to fresh tapes.
pub struct TapePool {
    tapes: Mutex<Vec<Tape>>,
    /// Whether pooled tapes record a backward graph.
    grad: bool,
}

impl TapePool {
    /// Pool of recording tapes (forward + backward).
    pub fn training() -> Self {
        TapePool {
            tapes: Mutex::new(Vec::new()),
            grad: true,
        }
    }

    /// Pool of grad-free tapes ([`Tape::inference`]): no graph and no
    /// backward-only tensors, the same values — see the module-level
    /// "Inference mode" section.
    pub fn inference() -> Self {
        TapePool {
            tapes: Mutex::new(Vec::new()),
            grad: false,
        }
    }

    /// Run `f` on a pooled, freshly reset tape. `_seed` is ignored; it
    /// stays only because the `e2e` benchmark package passes one.
    pub fn with<R>(&self, _seed: u64, f: impl FnOnce(&Tape) -> R) -> R {
        ntt_obs::counter!("tensor.tape_pool.acquires").inc();
        let mut tape = self.tapes.lock().unwrap().pop().unwrap_or_else(|| {
            // A miss means a fresh tape (and fresh arenas): the ratio of
            // misses to acquires shows how quickly a loop reaches its
            // allocation-free steady state.
            ntt_obs::counter!("tensor.tape_pool.misses").inc();
            if self.grad {
                Tape::new()
            } else {
                Tape::inference()
            }
        });
        tape.reset(0);
        let r = f(&tape);
        self.tapes.lock().unwrap().push(tape);
        r
    }
}

impl Tape {
    /// Fresh, empty recording tape.
    pub fn new() -> Self {
        Tape {
            nodes: RefCell::new(Vec::new()),
            scratch: Scratch::default(),
            grad: true,
        }
    }

    /// Fresh **inference** tape: no backward graph and no backward-only
    /// tensors, the same values as a recording tape (see the
    /// module-level "Inference mode" section). The mode is a property of
    /// the tape, not of a call — `reset` keeps it, so pooled inference
    /// tapes stay inference tapes.
    pub fn inference() -> Self {
        Tape {
            grad: false,
            ..Self::new()
        }
    }

    /// Clear the recorded graph and retire every node's buffer into the
    /// scratch arena. A reset tape is indistinguishable from a fresh one
    /// of its kind except that its subsequent allocations reuse the
    /// retired memory — the trainer resets one tape per optimizer step
    /// instead of rebuilding it. Takes `&mut self` so any `Var` from
    /// before the reset (which would silently alias a new node id) is
    /// rejected at compile time. `_seed` is ignored; it stays only
    /// because the `e2e` benchmark package passes one.
    pub fn reset(&mut self, _seed: u64) {
        let mut nodes = self.nodes.borrow_mut();
        for node in nodes.drain(..) {
            self.scratch.put(node.value.into_data());
            match node.op {
                Op::LayerNorm { xhat, .. } => self.scratch.put(xhat.into_data()),
                Op::MseLoss { target, .. } => self.scratch.put(target.into_data()),
                Op::AttnFused { weights, .. } => self.scratch.put(weights),
                _ => {}
            }
        }
    }

    /// Number of retired buffers currently pooled in the scratch arena
    /// (diagnostic; useful for asserting reuse in tests).
    pub fn scratch_buffers(&self) -> usize {
        self.scratch.buffered()
    }

    /// Bytes currently pooled in the scratch arena.
    pub fn arena_bytes(&self) -> usize {
        self.scratch.bytes.get()
    }

    /// Lifetime high-water mark of pooled arena bytes for this tape.
    /// The process-wide maximum across all tapes is exported through the
    /// `tensor.tape_arena_bytes` gauge.
    pub fn arena_high_water_bytes(&self) -> usize {
        self.scratch.high_water.get()
    }

    /// `(buffer length, pooled count)` per arena bucket, ascending
    /// length. After a [`Tape::reset`], every buffer the previous run
    /// allocated through the tape shows up here — which lets tests
    /// assert that a code path never allocated a given shape (e.g. that
    /// attention on an inference tape retired no `[B, H, T, T]` buffer).
    pub fn arena_bucket_lens(&self) -> Vec<(usize, usize)> {
        self.scratch.bucket_lens()
    }

    /// Number of recorded nodes (diagnostic).
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // -- arena-backed allocation helpers -----------------------------------

    fn alloc_zeroed(&self, n: usize) -> Vec<f32> {
        self.scratch.take_zeroed(n)
    }

    /// Buffer with arbitrary contents; every element must be written.
    fn alloc_overwrite(&self, n: usize) -> Vec<f32> {
        self.scratch.take_overwrite(n)
    }

    fn recycle(&self, t: Tensor) {
        self.scratch.put(t.into_data());
    }

    /// Pooled column sums of `g` as rows of width `n`, each column
    /// folded from `0.0` in ascending row order (a bias gradient).
    fn column_sums(&self, g: &Tensor, n: usize) -> Vec<f32> {
        let mut acc = self.alloc_zeroed(n);
        for chunk in g.data().chunks(n.max(1)) {
            for (a, &x) in acc.iter_mut().zip(chunk) {
                *a += x;
            }
        }
        acc
    }

    /// Pooled copy of a tensor (optionally under a new shape).
    fn t_copy(&self, src: &Tensor, shape: &[usize]) -> Tensor {
        Tensor::from_vec(self.scratch.take_copy(src.data()), shape)
    }

    /// Pooled elementwise map.
    fn t_map(&self, src: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
        let mut buf = self.alloc_overwrite(src.numel());
        for (o, &x) in buf.iter_mut().zip(src.data().iter()) {
            *o = f(x);
        }
        Tensor::from_vec(buf, src.shape())
    }

    /// Pooled elementwise combine (identical shapes).
    fn t_zip(&self, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            a.shape(),
            b.shape(),
            "zip requires identical shapes ({:?} vs {:?})",
            a.shape(),
            b.shape()
        );
        let mut buf = self.alloc_overwrite(a.numel());
        for ((o, &x), &y) in buf.iter_mut().zip(a.data().iter()).zip(b.data().iter()) {
            *o = f(x, y);
        }
        Tensor::from_vec(buf, a.shape())
    }

    fn push(&self, op: Op, value: Tensor) -> Var<'_> {
        let op = if self.grad { op } else { self.strip(op) };
        let mut nodes = self.nodes.borrow_mut();
        let needs_grad = match &op {
            Op::ParamLeaf(p) => p.is_trainable(),
            op => op.reads_any(|i| nodes[i].needs_grad),
        };
        nodes.push(Node {
            op,
            value,
            needs_grad,
        });
        Var {
            tape: self,
            id: nodes.len() - 1,
        }
    }

    /// Whether an op reading `inputs` keeps its backward-only tensors: on
    /// a recording tape, when some input needs a gradient. Otherwise the
    /// op records a leaf, as on an inference tape.
    fn keeps_for(&self, inputs: &[usize]) -> bool {
        let nodes = self.nodes.borrow();
        self.grad && inputs.iter().any(|&i| nodes[i].needs_grad)
    }

    /// Inference-mode degradation: the node keeps its value (later ops
    /// read it by id) but every op becomes a `Leaf`, and any tensor that
    /// existed only for backward is retired straight into the arena.
    /// The hot paths (`layer_norm`, `mse_loss`) skip
    /// building those tensors in the first place; this is the catch-all.
    fn strip(&self, op: Op) -> Op {
        match op {
            Op::LayerNorm { xhat, .. } => self.recycle(xhat),
            Op::MseLoss { target, .. } => self.recycle(target),
            Op::AttnFused { weights, .. } => self.scratch.put(weights),
            _ => {}
        }
        Op::Leaf
    }

    fn val(&self, id: usize) -> Ref<'_, Tensor> {
        Ref::map(self.nodes.borrow(), |n| &n[id].value)
    }

    /// Record a constant input.
    pub fn input(&self, value: Tensor) -> Var<'_> {
        self.push(Op::Leaf, value)
    }

    /// Record a constant input from a borrow, staging an arena-pooled
    /// copy (same bits as [`Tape::input`] of a clone, without the fresh
    /// heap allocation once the arena is warm). The per-request entry
    /// point for serving loops that keep ownership of their batch.
    pub fn input_copy(&self, value: &Tensor) -> Var<'_> {
        self.input_slice(value.data(), value.shape())
    }

    /// [`Tape::input_copy`] of borrowed elements under `shape` — for a
    /// caller whose constant is a prefix or sub-range of a larger
    /// buffer (the leading rows of a positional table).
    pub fn input_slice(&self, data: &[f32], shape: &[usize]) -> Var<'_> {
        let staged = Tensor::from_vec(self.scratch.take_copy(data), shape);
        self.push(Op::Leaf, staged)
    }

    /// Record a parameter; it needs a gradient iff it is trainable now.
    /// The tape's node holds a pooled *copy* of the value (one memcpy;
    /// the buffer comes back from the arena after a reset), so
    /// concurrent forward passes never contend on the parameter lock
    /// beyond this read.
    pub fn param(&self, p: &Param) -> Var<'_> {
        let value = p.with_value(|t| self.t_copy(t, t.shape()));
        self.push(Op::ParamLeaf(p.clone()), value)
    }

    /// Run reverse-mode differentiation from `loss` (any shape; the seed
    /// gradient is all-ones) and *collect* per-parameter gradients into a
    /// detached [`ParamGrads`] bundle, leaving every `Param` untouched.
    /// This is the worker-thread half of the data-parallel trainer: each
    /// microbatch produces one bundle, and the coordinator reduces them
    /// in shard-index order. Each node's gradient is retired into the
    /// scratch arena as soon as the node is processed, so the walk mostly
    /// reuses its own memory. Only nodes that need a gradient get one
    /// (see `Node::needs_grad`): a parameter's trainability is read when
    /// [`Tape::param`] records it, and nothing upstream of frozen
    /// parameters and constants alone is differentiated.
    pub fn backward_params(&self, loss: Var<'_>) -> ParamGrads {
        assert!(
            self.grad,
            "backward on an inference tape: it recorded no graph \
             (build the tape with Tape::new() to train)"
        );
        let nodes = self.nodes.borrow();
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        if nodes[loss.id].needs_grad {
            grads[loss.id] = Some(Tensor::ones(nodes[loss.id].value.shape()));
        }
        let mut collected = ParamGrads {
            entries: Vec::new(),
        };
        // Param identity -> entry index, for parameters recorded on the
        // tape more than once (e.g. a layer applied at two places).
        let mut slot_of: BTreeMap<usize, usize> = BTreeMap::new();

        for id in (0..=loss.id).rev() {
            // Only nodes that need a gradient ever receive one.
            let Some(g) = grads[id].take() else { continue };
            match &nodes[id].op {
                Op::ParamLeaf(p) => {
                    match slot_of.get(&p.key()) {
                        Some(&i) => collected.entries[i].1.add_assign(&g),
                        None => {
                            slot_of.insert(p.key(), collected.entries.len());
                            collected.entries.push((p.clone(), g.clone()));
                        }
                    }
                    self.recycle(g);
                }
                _ => self.step_backward(&nodes, &mut grads, id, g),
            }
        }
        collected
    }

    /// Propagate node `id`'s gradient `g` to the slots in `grads` of
    /// those inputs that need one, and retire `g`. Parameter leaves are
    /// collected by the caller.
    fn step_backward(&self, nodes: &[Node], grads: &mut [Option<Tensor>], id: usize, g: Tensor) {
        if let Op::Reshape(a) = nodes[id].op {
            // A reshape hands its buffer on under the input's shape.
            let ashape = nodes[a].value.shape().to_vec();
            return self.add_grad(nodes, grads, a, Tensor::from_vec(g.into_data(), &ashape));
        }
        self.propagate(nodes, grads, id, &g);
        self.recycle(g);
    }

    /// Accumulate `inc` into node `to`'s gradient slot. The increment's
    /// buffer is retired to the arena when the slot is already live, or
    /// when `to` needs no gradient.
    fn add_grad(&self, nodes: &[Node], grads: &mut [Option<Tensor>], to: usize, inc: Tensor) {
        match &mut grads[to] {
            _ if !nodes[to].needs_grad => self.recycle(inc),
            Some(acc) => {
                acc.add_assign(&inc);
                self.recycle(inc);
            }
            slot @ None => *slot = Some(inc),
        }
    }

    /// The backward rule of every op but `Reshape`: each input
    /// gradient that some input needs is computed and accumulated, and
    /// nothing is computed for an input that needs none. A single-input
    /// op needs a gradient exactly when its input does.
    fn propagate(&self, nodes: &[Node], grads: &mut [Option<Tensor>], id: usize, g: &Tensor) {
        let needs = |i: usize| nodes[i].needs_grad;
        let add_grad = |grads: &mut [Option<Tensor>], to: usize, inc: Tensor| {
            self.add_grad(nodes, grads, to, inc)
        };
        match &nodes[id].op {
            Op::Leaf | Op::ParamLeaf(_) | Op::Reshape(_) => {}
            Op::Add(a, b, bc) => {
                if needs(*a) {
                    add_grad(grads, *a, self.t_copy(g, g.shape()));
                }
                if needs(*b) {
                    let gb = match bc {
                        Broadcast::Same => self.t_copy(g, g.shape()),
                        Broadcast::Leading | Broadcast::Inner => {
                            let bshape = nodes[*b].value.shape();
                            Tensor::from_vec(self.column_sums(g, shape::numel(bshape)), bshape)
                        }
                    };
                    add_grad(grads, *b, gb);
                }
            }
            Op::Scale(a, c) => {
                let c = *c;
                add_grad(grads, *a, self.t_map(g, |x| x * c));
            }
            Op::MatMul(a, b) => {
                let va = &nodes[*a].value;
                let vb = &nodes[*b].value;
                let (batch, m, k) = shape::as_batched_matrix(va.shape());
                let n = *vb.shape().last().unwrap();
                // dA = G · Bᵀ ; dB = Aᵀ · G, each only if needed.
                if needs(*a) {
                    let mut ga = self.alloc_zeroed(va.numel());
                    if vb.rank() == 2 {
                        // Broadcast right operand: one flat GEMM over the
                        // merged leading axes.
                        kernels::gemm_nt(g.data(), vb.data(), &mut ga, batch * m, n, k);
                    } else {
                        for bi in 0..batch {
                            let gs = &g.data()[bi * m * n..(bi + 1) * m * n];
                            let bsl = &vb.data()[bi * k * n..(bi + 1) * k * n];
                            kernels::gemm_nt(
                                gs,
                                bsl,
                                &mut ga[bi * m * k..(bi + 1) * m * k],
                                m,
                                n,
                                k,
                            );
                        }
                    }
                    add_grad(grads, *a, Tensor::from_vec(ga, va.shape()));
                }
                if needs(*b) {
                    let mut gb = self.alloc_zeroed(vb.numel());
                    if vb.rank() == 2 {
                        // dB sums the batch contributions in ascending
                        // row order, in one flat GEMM.
                        kernels::gemm_tn(va.data(), g.data(), &mut gb, k, batch * m, n);
                    } else {
                        for bi in 0..batch {
                            let gs = &g.data()[bi * m * n..(bi + 1) * m * n];
                            let asl = &va.data()[bi * m * k..(bi + 1) * m * k];
                            kernels::gemm_tn(
                                asl,
                                gs,
                                &mut gb[bi * k * n..(bi + 1) * k * n],
                                k,
                                m,
                                n,
                            );
                        }
                    }
                    add_grad(grads, *b, Tensor::from_vec(gb, vb.shape()));
                }
            }
            Op::Linear { x, w, b } => {
                let (vx, vw) = (&nodes[*x].value, &nodes[*w].value);
                let (k, n) = (vw.shape()[0], vw.shape()[1]);
                let rows = shape::numel(&vx.shape()[..vx.rank() - 1]);
                // `matmul` then `add`'s backward, in its order: the bias
                // first, as the column sums of G; then dX = G · Wᵀ and
                // dW = Xᵀ · G, dW summing rows in ascending order.
                if needs(*b) {
                    add_grad(grads, *b, Tensor::from_vec(self.column_sums(g, n), &[n]));
                }
                if needs(*x) {
                    let mut gx = self.alloc_zeroed(vx.numel());
                    kernels::gemm_nt(g.data(), vw.data(), &mut gx, rows, n, k);
                    add_grad(grads, *x, Tensor::from_vec(gx, vx.shape()));
                }
                if needs(*w) {
                    let mut gw = self.alloc_zeroed(k * n);
                    kernels::gemm_tn(vx.data(), g.data(), &mut gw, k, rows, n);
                    add_grad(grads, *w, Tensor::from_vec(gw, vw.shape()));
                }
            }
            Op::Gelu(a) => {
                let va = &nodes[*a].value;
                let mut gx = self.alloc_overwrite(va.numel());
                kernels::gelu_bwd(va.data(), g.data(), &mut gx);
                add_grad(grads, *a, Tensor::from_vec(gx, va.shape()));
            }
            Op::AttnFused {
                q,
                k,
                v,
                scale,
                weights,
            } => {
                let vq = &nodes[*q].value;
                let vk = &nodes[*k].value;
                let vv = &nodes[*v].value;
                let s = vq.shape();
                let (b, t, h, dh) = (s[0], s[1], s[2], s[3]);
                // All three gradients from the saved weights, block by
                // block: the `T × T` intermediates live in kernel scratch.
                let mut gq = self.alloc_zeroed(vq.numel());
                let mut gk = self.alloc_zeroed(vk.numel());
                let mut gv = self.alloc_zeroed(vv.numel());
                kernels::attn_fused_bwd(
                    vq.data(),
                    vk.data(),
                    vv.data(),
                    g.data(),
                    weights,
                    *scale,
                    &mut gq,
                    &mut gk,
                    &mut gv,
                    b,
                    t,
                    h,
                    dh,
                );
                add_grad(grads, *q, Tensor::from_vec(gq, s));
                add_grad(grads, *k, Tensor::from_vec(gk, s));
                add_grad(grads, *v, Tensor::from_vec(gv, s));
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                xhat,
                rstd,
            } => {
                let d = *xhat.shape().last().unwrap();
                let vgamma = &nodes[*gamma].value;
                let mut gx = self.alloc_overwrite(xhat.numel());
                let mut ggamma = self.alloc_zeroed(d);
                let mut gbeta = self.alloc_zeroed(d);
                kernels::layer_norm_bwd(
                    xhat.data(),
                    g.data(),
                    vgamma.data(),
                    rstd,
                    &mut gx,
                    &mut ggamma,
                    &mut gbeta,
                );
                add_grad(grads, *x, Tensor::from_vec(gx, xhat.shape()));
                add_grad(grads, *gamma, Tensor::from_vec(ggamma, &[d]));
                add_grad(grads, *beta, Tensor::from_vec(gbeta, &[d]));
            }
            Op::SliceAxis1 { x, start } => {
                let xs = nodes[*x].value.shape();
                let (b, t, d) = (xs[0], xs[1], xs[2]);
                let len = g.shape()[1];
                let rows = |bi: usize| (bi * t + start) * d..(bi * t + start + len) * d;
                let src = |bi: usize| &g.data()[bi * len * d..(bi + 1) * len * d];
                match &mut grads[*x] {
                    // A live slot takes the rows into its sub-range: no
                    // source-sized buffer per slice.
                    Some(acc) => {
                        for bi in 0..b {
                            for (a, &v) in acc.data_mut()[rows(bi)].iter_mut().zip(src(bi)) {
                                *a += v;
                            }
                        }
                    }
                    slot @ None => {
                        let mut gx = self.alloc_zeroed(b * t * d);
                        for bi in 0..b {
                            gx[rows(bi)].copy_from_slice(src(bi));
                        }
                        *slot = Some(Tensor::from_vec(gx, xs));
                    }
                }
            }
            Op::ConcatAxis1(parts) => {
                let mut start = 0usize;
                let out_t = nodes[id].value.shape()[1];
                let (b, d) = (nodes[id].value.shape()[0], nodes[id].value.shape()[2]);
                for &p in parts {
                    let len = nodes[p].value.shape()[1];
                    if !needs(p) {
                        start += len;
                        continue;
                    }
                    let mut gp = self.alloc_overwrite(b * len * d);
                    for bi in 0..b {
                        let base = bi * out_t * d + start * d;
                        gp[bi * len * d..(bi + 1) * len * d]
                            .copy_from_slice(&g.data()[base..base + len * d]);
                    }
                    add_grad(grads, p, Tensor::from_vec(gp, &[b, len, d]));
                    start += len;
                }
            }
            Op::SelectAxis1 { x, idx } => {
                let xs = nodes[*x].value.shape().to_vec();
                let (b, t, d) = (xs[0], xs[1], xs[2]);
                let mut gx = self.alloc_zeroed(b * t * d);
                for bi in 0..b {
                    let dst = bi * t * d + idx * d;
                    gx[dst..dst + d].copy_from_slice(&g.data()[bi * d..(bi + 1) * d]);
                }
                add_grad(grads, *x, Tensor::from_vec(gx, &xs));
            }
            Op::MeanAxis1(a) => {
                let xs = nodes[*a].value.shape().to_vec();
                let (b, t, d) = (xs[0], xs[1], xs[2]);
                let inv = 1.0 / t as f32;
                let mut gx = self.alloc_overwrite(b * t * d);
                for bi in 0..b {
                    for ti in 0..t {
                        for j in 0..d {
                            gx[bi * t * d + ti * d + j] = g.data()[bi * d + j] * inv;
                        }
                    }
                }
                add_grad(grads, *a, Tensor::from_vec(gx, &xs));
            }
            Op::ConcatLast(a, b) => {
                let da = *nodes[*a].value.shape().last().unwrap();
                let db = *nodes[*b].value.shape().last().unwrap();
                let rows = nodes[id].value.numel() / (da + db);
                let mut ga = self.alloc_overwrite(rows * da);
                let mut gb = self.alloc_overwrite(rows * db);
                for r in 0..rows {
                    let base = r * (da + db);
                    ga[r * da..(r + 1) * da].copy_from_slice(&g.data()[base..base + da]);
                    gb[r * db..(r + 1) * db].copy_from_slice(&g.data()[base + da..base + da + db]);
                }
                add_grad(grads, *a, Tensor::from_vec(ga, nodes[*a].value.shape()));
                add_grad(grads, *b, Tensor::from_vec(gb, nodes[*b].value.shape()));
            }
            Op::MseLoss { pred, target } => {
                let vp = &nodes[*pred].value;
                let c = 2.0 * g.item() / vp.numel() as f32;
                add_grad(grads, *pred, self.t_zip(vp, target, |p, t| c * (p - t)));
            }
        }
    }
}

#[allow(clippy::should_implement_trait)] // `add` mirrors the op name on a by-value Var, deliberately
impl<'t> Var<'t> {
    /// Clone of this node's value.
    pub fn value(&self) -> Tensor {
        self.tape.val(self.id).clone()
    }

    /// Shape of this node's value.
    pub fn shape(&self) -> Vec<usize> {
        self.tape.val(self.id).shape().to_vec()
    }

    /// Elementwise/broadcast addition (see [`shape::broadcast_kind`] for
    /// the accepted broadcast forms of `rhs`).
    pub fn add(self, rhs: Var<'t>) -> Var<'t> {
        let (out, bc) = {
            let va = self.tape.val(self.id);
            let vb = self.tape.val(rhs.id);
            let bc = shape::broadcast_kind(va.shape(), vb.shape())
                .unwrap_or_else(|| panic!("add: incompatible {:?} + {:?}", va.shape(), vb.shape()));
            let out = match bc {
                Broadcast::Same => self.tape.t_zip(&va, &vb, |a, b| a + b),
                Broadcast::Leading | Broadcast::Inner => {
                    // Single fused pass (no copy-then-accumulate).
                    let bn = vb.numel();
                    let mut out = self.tape.alloc_overwrite(va.numel());
                    for (ochunk, achunk) in out.chunks_mut(bn).zip(va.data().chunks(bn)) {
                        for ((o, &a), &b) in
                            ochunk.iter_mut().zip(achunk.iter()).zip(vb.data().iter())
                        {
                            *o = a + b;
                        }
                    }
                    Tensor::from_vec(out, va.shape())
                }
            };
            (out, bc)
        };
        self.tape.push(Op::Add(self.id, rhs.id, bc), out)
    }

    /// Multiply by a scalar constant.
    pub fn scale(self, c: f32) -> Var<'t> {
        let out = {
            let va = self.tape.val(self.id);
            self.tape.t_map(&va, |x| x * c)
        };
        self.tape.push(Op::Scale(self.id, c), out)
    }

    /// Matrix product. Operands are stacks of matrices: rank-2 tensors
    /// multiply plainly; equal leading dimensions multiply batch-wise.
    /// A rank-2 right operand against a higher-rank left operand is
    /// *broadcast*: every batch row multiplies the same matrix, fused
    /// into one flat GEMM over all leading axes — the layer-application
    /// case (`[B, T, K] · [K, N] -> [B, T, N]`) with no reshape copies.
    pub fn matmul(self, rhs: Var<'t>) -> Var<'t> {
        let (out, oshape) = {
            let va = self.tape.val(self.id);
            let vb = self.tape.val(rhs.id);
            let (ba, m, k) = shape::as_batched_matrix(va.shape());
            let (bb, k2, n) = shape::as_batched_matrix(vb.shape());
            assert_eq!(
                k,
                k2,
                "matmul inner dims: {:?} x {:?}",
                va.shape(),
                vb.shape()
            );
            let mut oshape = va.shape()[..va.rank() - 2].to_vec();
            oshape.push(m);
            oshape.push(n);
            let mut out = self.tape.alloc_zeroed(ba * m * n);
            if vb.rank() == 2 {
                // Broadcast: one flat [ba*m, k] · [k, n] product.
                kernels::gemm_nn(va.data(), vb.data(), &mut out, ba * m, k, n);
            } else {
                assert_eq!(
                    ba,
                    bb,
                    "matmul batch dims: {:?} x {:?}",
                    va.shape(),
                    vb.shape()
                );
                assert_eq!(
                    va.shape()[..va.rank() - 2],
                    vb.shape()[..vb.rank() - 2],
                    "matmul leading dims must match elementwise"
                );
                for bi in 0..ba {
                    kernels::gemm_nn(
                        &va.data()[bi * m * k..(bi + 1) * m * k],
                        &vb.data()[bi * k * n..(bi + 1) * k * n],
                        &mut out[bi * m * n..(bi + 1) * m * n],
                        m,
                        k,
                        n,
                    );
                }
            }
            (out, oshape)
        };
        self.tape
            .push(Op::MatMul(self.id, rhs.id), Tensor::from_vec(out, &oshape))
    }

    /// Affine map over the last axis: `self · w + b` for `w` `[K, N]`
    /// and `b` `[N]`, `self` `[..., K]` of any rank ≥ 2 (leading axes
    /// merge into one flat GEMM, as in [`Var::matmul`]'s broadcast case).
    /// One GEMM pass adds the bias in its last depth block's store
    /// ([`kernels::gemm_nn_bias`]), so value and gradients are bit-equal
    /// to `self.matmul(w).add(b)` with one trip through the output.
    pub fn linear(self, w: Var<'t>, b: Var<'t>) -> Var<'t> {
        let (out, oshape) = {
            let vx = self.tape.val(self.id);
            let vw = self.tape.val(w.id);
            let vb = self.tape.val(b.id);
            let (_, _, k) = shape::as_batched_matrix(vx.shape());
            assert_eq!(
                vw.rank(),
                2,
                "linear weight must be [K, N], got {:?}",
                vw.shape()
            );
            let (k2, n) = (vw.shape()[0], vw.shape()[1]);
            assert_eq!(
                k,
                k2,
                "linear inner dims: {:?} x {:?}",
                vx.shape(),
                vw.shape()
            );
            assert_eq!(vb.shape(), [n], "linear bias must be [N] = [{n}]");
            let mut oshape = vx.shape().to_vec();
            *oshape.last_mut().unwrap() = n;
            let rows = shape::numel(&oshape[..oshape.len() - 1]);
            let mut out = self.tape.alloc_zeroed(rows * n);
            kernels::gemm_nn_bias(vx.data(), vw.data(), vb.data(), &mut out, rows, k, n);
            (out, oshape)
        };
        let op = Op::Linear {
            x: self.id,
            w: w.id,
            b: b.id,
        };
        self.tape.push(op, Tensor::from_vec(out, &oshape))
    }

    /// GELU activation (tanh approximation, as in BERT/ViT).
    pub fn gelu(self) -> Var<'t> {
        let out = {
            let va = self.tape.val(self.id);
            let mut buf = self.tape.alloc_overwrite(va.numel());
            kernels::gelu_fwd(va.data(), &mut buf);
            Tensor::from_vec(buf, va.shape())
        };
        self.tape.push(Op::Gelu(self.id), out)
    }

    /// Scaled dot-product attention `softmax(scale · Q·Kᵀ) · V` per head:
    /// `self`, `k` and `v` are `[B, T, H, dh]` (the natural reshape of a
    /// projection output — no transpose) and the result comes back in
    /// the same layout, so merging heads is a plain reshape.
    ///
    /// One op on both tape kinds, computed by one register kernel per
    /// `(b, h)` block ([`kernels::attn_fused_fwd`]). The block's scores
    /// are held transposed, one query per 16-wide lane, so the softmax
    /// over keys folds down contiguous rows; the products are register
    /// tiles that read K and V in place. Every element keeps the
    /// operation order of the classic chain — products summed in
    /// ascending depth from `0.0` (in `KC` blocks) and added to a zeroed
    /// output, a multiply then an add, the softmax's max and sum folded
    /// over keys in ascending order — so every CPU arm gives the bits of
    /// `kernels::reference::attention`. A recording tape keeps the
    /// softmax weights for the backward, key-major (`[B, H, T, T]`,
    /// `[b, h, j, i]` = query `i`'s weight on key `j`); an inference
    /// tape keeps nothing `T²`-sized. The values are the same bits
    /// either way, and across thread counts, batch compositions, and
    /// runs.
    pub fn attn_fused(self, k: Var<'t>, v: Var<'t>, scale: f32) -> Var<'t> {
        let (out, weights) = {
            let vq = self.tape.val(self.id);
            let vk = self.tape.val(k.id);
            let vv = self.tape.val(v.id);
            assert_eq!(vq.rank(), 4, "attn_fused expects [B, T, H, dh]");
            assert_eq!(
                vq.shape(),
                vk.shape(),
                "attn_fused operands must agree: {:?} vs {:?}",
                vq.shape(),
                vk.shape()
            );
            assert_eq!(
                vq.shape(),
                vv.shape(),
                "attn_fused operands must agree: {:?} vs {:?}",
                vq.shape(),
                vv.shape()
            );
            let s = vq.shape();
            let (b, t, h, dh) = (s[0], s[1], s[2], s[3]);
            let mut out = self.tape.alloc_overwrite(b * t * h * dh);
            let mut weights = self
                .tape
                .keeps_for(&[self.id, k.id, v.id])
                .then(|| self.tape.alloc_overwrite(b * h * t * t));
            kernels::attn_fused_fwd(
                vq.data(),
                vk.data(),
                vv.data(),
                scale,
                &mut out,
                weights.as_deref_mut(),
                b,
                t,
                h,
                dh,
            );
            (Tensor::from_vec(out, s), weights)
        };
        match weights {
            Some(weights) => self.tape.push(
                Op::AttnFused {
                    q: self.id,
                    k: k.id,
                    v: v.id,
                    scale,
                    weights,
                },
                out,
            ),
            None => self.tape.push(Op::Leaf, out),
        }
    }

    /// Fused layer normalization over the last axis with affine
    /// parameters `gamma`, `beta` (both shape `[D]`).
    pub fn layer_norm(self, gamma: Var<'t>, beta: Var<'t>, eps: f32) -> Var<'t> {
        // Both tape kinds run the same arithmetic per element (`xh *
        // gamma + beta` with the identical `xh` expression); `xhat` and
        // `rstd`, which exist only for backward, are kept only when a
        // backward can use them.
        let keep = self.tape.keeps_for(&[self.id, gamma.id, beta.id]);
        let (out, saved, xshape) = {
            let x = self.tape.val(self.id);
            let d = *x.shape().last().expect("layer_norm requires rank >= 1");
            let vg = self.tape.val(gamma.id);
            let vb = self.tape.val(beta.id);
            assert_eq!(vg.shape(), &[d], "gamma must be [D]");
            assert_eq!(vb.shape(), &[d], "beta must be [D]");
            let rows = x.numel() / d;
            let mut mean = vec![0.0f32; rows];
            let mut rstd = vec![0.0f32; rows];
            kernels::layer_norm_stats(x.data(), d, eps, &mut mean, &mut rstd);
            let mut out = self.tape.alloc_overwrite(x.numel());
            let mut xhat = if keep {
                self.tape.alloc_overwrite(x.numel())
            } else {
                Vec::new()
            };
            for (r, (row, orow)) in x.data().chunks(d).zip(out.chunks_mut(d)).enumerate() {
                let (m, rs) = (mean[r], rstd[r]);
                let affine = orow.iter_mut().zip(row).zip(vg.data()).zip(vb.data());
                for (((o, &v), &g), &b) in affine {
                    *o = (v - m) * rs * g + b;
                }
                if keep {
                    for (xh, &v) in xhat[r * d..][..d].iter_mut().zip(row) {
                        *xh = (v - m) * rs;
                    }
                }
            }
            (out, keep.then_some((xhat, rstd)), x.shape().to_vec())
        };
        let out = Tensor::from_vec(out, &xshape);
        let Some((xhat, rstd)) = saved else {
            return self.tape.push(Op::Leaf, out);
        };
        self.tape.push(
            Op::LayerNorm {
                x: self.id,
                gamma: gamma.id,
                beta: beta.id,
                xhat: Tensor::from_vec(xhat, &xshape),
                rstd,
            },
            out,
        )
    }

    /// Same data, new shape.
    pub fn reshape(self, new_shape: &[usize]) -> Var<'t> {
        let out = {
            let va = self.tape.val(self.id);
            shape::check_reshape(va.shape(), new_shape);
            self.tape.t_copy(&va, new_shape)
        };
        self.tape.push(Op::Reshape(self.id), out)
    }

    /// Rows `[start, start+len)` along axis 1 of a rank-3 value.
    pub fn slice_axis1(self, start: usize, len: usize) -> Var<'t> {
        let out = {
            let x = self.tape.val(self.id);
            assert_eq!(x.rank(), 3, "slice_axis1 requires rank 3");
            let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
            assert!(start + len <= t, "slice_axis1 out of range");
            let mut out = self.tape.alloc_overwrite(b * len * d);
            for bi in 0..b {
                let base = bi * t * d + start * d;
                out[bi * len * d..(bi + 1) * len * d]
                    .copy_from_slice(&x.data()[base..base + len * d]);
            }
            Tensor::from_vec(out, &[b, len, d])
        };
        self.tape.push(Op::SliceAxis1 { x: self.id, start }, out)
    }

    /// Concatenate rank-3 values along axis 1.
    pub fn concat_axis1(parts: &[Var<'t>]) -> Var<'t> {
        assert!(!parts.is_empty(), "concat_axis1 of nothing");
        let tape = parts[0].tape;
        let out = {
            let nodes = tape.nodes.borrow();
            let vals: Vec<&Tensor> = parts.iter().map(|p| &nodes[p.id].value).collect();
            let (b, d) = (vals[0].shape()[0], vals[0].shape()[2]);
            let total_t: usize = vals.iter().map(|v| v.shape()[1]).sum();
            for v in &vals {
                assert_eq!(v.rank(), 3, "concat_axis1 requires rank 3");
                assert_eq!(v.shape()[0], b, "batch dims must match");
                assert_eq!(v.shape()[2], d, "feature dims must match");
            }
            let mut out = tape.alloc_overwrite(b * total_t * d);
            let mut dst = 0usize;
            for bi in 0..b {
                for v in &vals {
                    let t = v.shape()[1];
                    out[dst..dst + t * d].copy_from_slice(&v.data()[bi * t * d..(bi + 1) * t * d]);
                    dst += t * d;
                }
            }
            Tensor::from_vec(out, &[b, total_t, d])
        };
        tape.push(Op::ConcatAxis1(parts.iter().map(|p| p.id).collect()), out)
    }

    /// Select slot `idx` along axis 1: `[B, T, D] -> [B, D]`.
    pub fn select_axis1(self, idx: usize) -> Var<'t> {
        let out = {
            let x = self.tape.val(self.id);
            assert_eq!(x.rank(), 3, "select_axis1 requires rank 3");
            let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
            assert!(idx < t, "select_axis1 index out of range");
            let mut out = self.tape.alloc_overwrite(b * d);
            for bi in 0..b {
                let base = bi * t * d + idx * d;
                out[bi * d..(bi + 1) * d].copy_from_slice(&x.data()[base..base + d]);
            }
            Tensor::from_vec(out, &[b, d])
        };
        self.tape.push(Op::SelectAxis1 { x: self.id, idx }, out)
    }

    /// Mean over axis 1: `[B, T, D] -> [B, D]`.
    pub fn mean_axis1(self) -> Var<'t> {
        let out = {
            let x = self.tape.val(self.id);
            assert_eq!(x.rank(), 3, "mean_axis1 requires rank 3");
            let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
            let mut out = self.tape.alloc_zeroed(b * d);
            for bi in 0..b {
                for ti in 0..t {
                    for j in 0..d {
                        out[bi * d + j] += x.data()[bi * t * d + ti * d + j];
                    }
                }
            }
            let inv = 1.0 / t as f32;
            out.iter_mut().for_each(|v| *v *= inv);
            Tensor::from_vec(out, &[b, d])
        };
        self.tape.push(Op::MeanAxis1(self.id), out)
    }

    /// Concatenate two rank-2 values along the last axis:
    /// `[B, D1] ⊕ [B, D2] -> [B, D1 + D2]`.
    pub fn concat_last(self, rhs: Var<'t>) -> Var<'t> {
        let out = {
            let va = self.tape.val(self.id);
            let vb = self.tape.val(rhs.id);
            assert_eq!(va.rank(), 2, "concat_last requires rank 2");
            assert_eq!(vb.rank(), 2, "concat_last requires rank 2");
            assert_eq!(va.shape()[0], vb.shape()[0], "batch dims must match");
            let (b, da, db) = (va.shape()[0], va.shape()[1], vb.shape()[1]);
            let mut out = self.tape.alloc_overwrite(b * (da + db));
            for bi in 0..b {
                let base = bi * (da + db);
                out[base..base + da].copy_from_slice(&va.data()[bi * da..(bi + 1) * da]);
                out[base + da..base + da + db].copy_from_slice(&vb.data()[bi * db..(bi + 1) * db]);
            }
            Tensor::from_vec(out, &[b, da + db])
        };
        self.tape.push(Op::ConcatLast(self.id, rhs.id), out)
    }

    /// Mean squared error against a constant target, producing shape `[1]`.
    pub fn mse_loss(self, target: &Tensor) -> Var<'t> {
        let loss = {
            let p = self.tape.val(self.id);
            assert_eq!(p.shape(), target.shape(), "mse_loss shape mismatch");
            p.data()
                .iter()
                .zip(target.data().iter())
                .map(|(p, t)| {
                    let d = (p - t) as f64;
                    d * d
                })
                .sum::<f64>()
                / p.numel() as f64
        };
        if !self.tape.keeps_for(&[self.id]) {
            return self.tape.push(Op::Leaf, Tensor::scalar(loss as f32));
        }
        let saved = self.tape.t_copy(target, target.shape());
        self.tape.push(
            Op::MseLoss {
                pred: self.id,
                target: saved,
            },
            Tensor::scalar(loss as f32),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_add_and_scale() {
        let t = Tape::new();
        let a = t.input(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let b = t.input(Tensor::from_vec(vec![3.0, 5.0], &[2]));
        assert_eq!(a.add(b).value().data(), &[4.0, 7.0]);
        assert_eq!(a.scale(-2.0).value().data(), &[-2.0, -4.0]);
    }

    #[test]
    fn add_broadcasts_bias_and_leading() {
        let t = Tape::new();
        let x = t.input(Tensor::ones(&[2, 2, 3]));
        let bias = t.input(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]));
        let y = x.add(bias);
        assert_eq!(y.value().at(&[1, 1, 2]), 4.0);
        let pe = t.input(Tensor::from_vec(
            (0..6).map(|i| i as f32).collect(),
            &[2, 3],
        ));
        let z = x.add(pe);
        assert_eq!(z.value().at(&[0, 1, 2]), 6.0);
        assert_eq!(z.value().at(&[1, 1, 2]), 6.0);
    }

    #[test]
    fn backward_through_chain() {
        // loss = mean((a·B + a)^2) with a=[1,2], B=diag(3,4)
        let t = Tape::new();
        let pa = Param::new("a", Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
        let pb = Param::new("b", Tensor::from_vec(vec![3.0, 0.0, 0.0, 4.0], &[2, 2]));
        let a = t.param(&pa);
        let b = t.param(&pb);
        let y = a.matmul(b).add(a); // [4, 10]
        let loss = y.mse_loss(&Tensor::zeros(&[1, 2]));
        assert!((loss.value().item() - (16.0 + 100.0) / 2.0).abs() < 1e-5);
        let grads = t.backward_params(loss);
        // dL/dy = y, dL/da = y·Bᵀ + y, dL/dB = aᵀ·y
        assert!(grads.get(&pa).unwrap().allclose(
            &Tensor::from_vec(vec![4.0 * 4.0, 10.0 * 5.0], &[1, 2]),
            1e-4
        ));
        assert!(grads
            .get(&pb)
            .unwrap()
            .allclose(&Tensor::from_vec(vec![4.0, 10.0, 8.0, 20.0], &[2, 2]), 1e-4));
        assert_eq!(grads.len(), 2);
    }

    #[test]
    fn matmul_forward_2d() {
        let t = Tape::new();
        let a = t.input(Tensor::arange(6).reshape(&[2, 3]));
        let b = t.input(Tensor::arange(12).reshape(&[3, 4]));
        let c = a.matmul(b);
        assert_eq!(c.shape(), vec![2, 4]);
        // row 0 of a = [0,1,2]; col 0 of b = [0,4,8] -> 0*0+1*4+2*8=20
        assert_eq!(c.value().at(&[0, 0]), 20.0);
    }

    #[test]
    fn matmul_forward_batched() {
        let t = Tape::new();
        let a = t.input(Tensor::ones(&[2, 3, 4]));
        let b = t.input(Tensor::ones(&[2, 4, 5]));
        let c = a.matmul(b);
        assert_eq!(c.shape(), vec![2, 3, 5]);
        assert!(c.value().data().iter().all(|&x| x == 4.0));
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_rejects_bad_inner() {
        let t = Tape::new();
        let a = t.input(Tensor::ones(&[2, 3]));
        let b = t.input(Tensor::ones(&[4, 5]));
        a.matmul(b);
    }

    /// Value and `[dX, dW, db]` of `x·W + b` on a recording tape, by
    /// [`Var::linear`] or by `matmul` then `add`, under an MSE loss.
    fn affine_run(x: &Tensor, w: &Param, b: &Param, fused: bool) -> [Tensor; 4] {
        let tape = Tape::new();
        let px = Param::new("x", x.clone());
        let (vx, vw, vb) = (tape.param(&px), tape.param(w), tape.param(b));
        let y = if fused {
            vx.linear(vw, vb)
        } else {
            vx.matmul(vw).add(vb)
        };
        let target = Tensor::randn(&y.shape(), 7);
        let grads = tape.backward_params(y.mse_loss(&target));
        let grad = |p: &Param| grads.get(p).unwrap().clone();
        [y.value(), grad(&px), grad(w), grad(b)]
    }

    #[test]
    fn linear_is_matmul_then_add_bit_for_bit() {
        // Rank 2 and rank 3, and a depth past KC = 256, where the bias
        // must land after the last depth block.
        for (xshape, k, n) in [
            (vec![5, 7], 7, 9),
            (vec![2, 3, 4], 4, 6),
            (vec![3, 300], 300, 17),
        ] {
            let x = Tensor::randn(&xshape, 1);
            let w = Param::new("w", Tensor::randn(&[k, n], 2));
            let b = Param::new("b", Tensor::randn(&[n], 3));
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            let fused = affine_run(&x, &w, &b, true);
            let composed = affine_run(&x, &w, &b, false);
            for (part, (f, c)) in ["y", "dX", "dW", "db"]
                .iter()
                .zip(fused.iter().zip(&composed))
            {
                assert_eq!(f.shape(), c.shape(), "{part} shape, x {xshape:?}");
                assert_eq!(bits(f), bits(c), "{part} bits, x {xshape:?}");
            }
        }
    }

    #[test]
    fn frozen_inputs_get_no_gradient_and_change_none() {
        // A frozen weight is recorded as needing no gradient: its
        // input-gradient chain is never computed, and every trainable
        // gradient keeps its bits.
        let x = Tensor::randn(&[4, 6], 31);
        let w1 = Param::new("w1", Tensor::randn(&[6, 6], 32));
        let w2 = Param::new("w2", Tensor::randn(&[6, 3], 33));
        let b2 = Param::new("b2", Tensor::randn(&[3], 34));
        let run = || {
            let tape = Tape::new();
            let h = tape.input(x.clone()).matmul(tape.param(&w1)).gelu();
            let y = h.linear(tape.param(&w2), tape.param(&b2));
            let needs: Vec<bool> = tape.nodes.borrow().iter().map(|n| n.needs_grad).collect();
            (
                tape.backward_params(y.mse_loss(&Tensor::zeros(&[4, 3]))),
                needs,
            )
        };
        let (all, all_needs) = run();
        w1.set_trainable(false);
        let (head, head_needs) = run();
        assert_eq!(all.len(), 3);
        assert_eq!(head.len(), 2);
        for p in [&w2, &b2] {
            assert_eq!(all.get(p).unwrap(), head.get(p).unwrap(), "{}", p.name());
        }
        // input, w1, matmul, gelu: needed only while w1 trains.
        assert_eq!(all_needs[..4], [false, true, true, true]);
        assert_eq!(head_needs[..4], [false, false, false, false]);
    }

    /// `[1, t, 1, t]` identity: as attention's K and V it makes the
    /// scores Q itself and the context the softmax weights.
    fn eye(t: usize) -> Tensor {
        let data = (0..t * t).map(|i| if i % (t + 1) == 0 { 1.0 } else { 0.0 });
        Tensor::from_vec(data.collect(), &[1, t, 1, t])
    }

    /// `softmax(scale · x)` over the rows of a square `x`, read out of
    /// the attention op.
    fn softmax_rows(tape: &Tape, x: &Tensor, scale: f32) -> Tensor {
        let t = x.shape()[0];
        let id = tape.input(eye(t));
        let q = tape.input(x.reshape(&[1, t, 1, t]));
        q.attn_fused(id, id, scale).value().reshape(&[t, t])
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let y = softmax_rows(&Tape::new(), &Tensor::randn(&[7, 7], 3), 1.0);
        for row in y.data().chunks(7) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        // A constant added to every score of a row cancels against the
        // row max (integers, so the shift itself rounds nothing).
        let t = Tape::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -4.0, 0.0, 5.0, 2.0, 2.0, -1.0], &[3, 3]);
        let y1 = softmax_rows(&t, &x, 1.0);
        let y2 = softmax_rows(&t, &x.map(|v| v + 1000.0), 1.0);
        assert!(y1.allclose(&y2, 1e-5));
    }

    #[test]
    fn scaled_softmax_matches_scale_then_softmax() {
        let t = Tape::new();
        let x = Tensor::randn(&[6, 6], 17);
        let fused = softmax_rows(&t, &x, 0.25);
        let composed = softmax_rows(&t, &x.map(|v| v * 0.25), 1.0);
        assert!(fused.allclose(&composed, 1e-6));
    }

    #[test]
    fn tape_reset_recycles_and_reproduces() {
        let p = Param::new("w", Tensor::randn(&[6, 6], 9));
        let x = Tensor::randn(&[4, 6], 10);
        let run = |tape: &Tape| {
            let y = tape.input(x.clone()).matmul(tape.param(&p));
            let loss = y.mse_loss(&Tensor::zeros(&[4, 6]));
            let bundle = tape.backward_params(loss);
            (loss.value().item(), bundle.get(&p).unwrap().clone())
        };
        let mut tape = Tape::new();
        let first = run(&tape);
        let nodes = tape.len();
        let retired_by_backward = tape.scratch_buffers();
        tape.reset(0);
        assert!(tape.is_empty());
        assert!(
            tape.scratch_buffers() > retired_by_backward,
            "reset must retire node buffers into the arena"
        );
        let second = run(&tape);
        assert_eq!(tape.len(), nodes, "graph must rebuild identically");
        assert_eq!(first.0, second.0, "loss must be bit-identical after reset");
        assert_eq!(first.1, second.1, "grads must be bit-identical after reset");
        // The seed argument is inert: any value reproduces the first run.
        tape.reset(0x5eed_5eed);
        let third = run(&tape);
        assert_eq!(first.0.to_bits(), third.0.to_bits(), "seed moved the loss");
        assert_eq!(first.1, third.1, "seed moved the grads");
    }

    #[test]
    fn backward_params_recycles_intermediates() {
        let p = Param::new("w", Tensor::randn(&[8, 8], 11));
        let tape = Tape::new();
        let y = tape.param(&p).gelu().matmul(tape.param(&p));
        let loss = y.mse_loss(&Tensor::zeros(&[8, 8]));
        tape.backward_params(loss);
        assert!(
            tape.scratch_buffers() > 0,
            "backward_params must retire intermediate gradients"
        );
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let t = Tape::new();
        let x = t.input(Tensor::randn(&[5, 16], 11));
        let g = t.input(Tensor::ones(&[16]));
        let b = t.input(Tensor::zeros(&[16]));
        let y = x.layer_norm(g, b, 1e-5).value();
        for row in y.data().chunks(16) {
            let mean = row.iter().sum::<f32>() / 16.0;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn slice_concat_roundtrip_preserves_values_and_grads() {
        let t = Tape::new();
        let p = Param::new("x", Tensor::arange(24).reshape(&[2, 4, 3]));
        let x = t.param(&p);
        let a = x.slice_axis1(0, 1);
        let b = x.slice_axis1(1, 3);
        let y = Var::concat_axis1(&[a, b]);
        assert_eq!(y.value(), x.value());
        let loss = y.mse_loss(&Tensor::zeros(&[2, 4, 3]));
        let grads = t.backward_params(loss);
        // grad = 2x/N; every element must receive gradient exactly once.
        let expect = p.value().map(|v| 2.0 * v / 24.0);
        assert!(grads.get(&p).unwrap().allclose(&expect, 1e-5));
    }

    #[test]
    fn select_and_mean_axis1() {
        let t = Tape::new();
        let x = t.input(Tensor::arange(12).reshape(&[2, 3, 2]));
        let s = x.select_axis1(2);
        assert_eq!(s.value().data(), &[4.0, 5.0, 10.0, 11.0]);
        let m = x.mean_axis1();
        assert_eq!(m.value().data(), &[2.0, 3.0, 8.0, 9.0]);
    }

    #[test]
    fn concat_last_joins_features() {
        let t = Tape::new();
        let a = t.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = t.input(Tensor::from_vec(vec![9.0, 8.0], &[2, 1]));
        let y = a.concat_last(b);
        assert_eq!(y.shape(), vec![2, 3]);
        assert_eq!(y.value().data(), &[1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn diamond_graph_sums_gradients() {
        // y = a + a = 6, L = y^2 -> dL/da = 2 · dL/dy = 2 · 2y = 24
        let t = Tape::new();
        let p = Param::new("a", Tensor::from_vec(vec![3.0], &[1]));
        let a = t.param(&p);
        let y = a.add(a);
        let loss = y.mse_loss(&Tensor::zeros(&[1]));
        let grads = t.backward_params(loss);
        assert!((grads.get(&p).unwrap().item() - 24.0).abs() < 1e-5);
    }

    #[test]
    fn backward_params_skips_frozen() {
        let p = Param::new("w", Tensor::from_vec(vec![2.0], &[1]));
        p.set_trainable(false);
        let t = Tape::new();
        let loss = t.param(&p).mse_loss(&Tensor::zeros(&[1]));
        let bundle = t.backward_params(loss);
        assert!(bundle.is_empty());
        assert!(bundle.get(&p).is_none());
    }

    #[test]
    fn bundle_reduce_is_ordered_sum() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0], &[1]));
        let one = |scale: f32| {
            let t = Tape::new();
            let loss = t.param(&p).scale(scale).mse_loss(&Tensor::zeros(&[1]));
            t.backward_params(loss)
        };
        let shards = vec![one(1.0), one(2.0), one(3.0)];
        let expect: f32 = shards.iter().map(|s| s.get(&p).unwrap().item()).sum();
        let reduced = ParamGrads::reduce(shards).unwrap();
        assert_eq!(reduced.get(&p).unwrap().item(), expect);
        assert!(ParamGrads::reduce(std::iter::empty()).is_none());
        // Norm and scale round-trip.
        let mut r = reduced;
        let n = r.global_norm();
        assert!(n > 0.0);
        r.scale(1.0 / n);
        assert!((r.global_norm() - 1.0).abs() < 1e-5);
    }

    /// A forward pass touching every op with a no-grad specialization
    /// (matmul, layer_norm, attention, mse_loss).
    fn mixed_forward(tape: &Tape, p: &Param, x: &Tensor) -> (Tensor, f32) {
        let gamma = tape.input(Tensor::ones(&[6]));
        let beta = tape.input(Tensor::zeros(&[6]));
        let h = tape
            .input(x.clone())
            .matmul(tape.param(p))
            .layer_norm(gamma, beta, 1e-5)
            .reshape(&[1, 4, 2, 3]);
        let h = h.attn_fused(h, h, 0.7).reshape(&[4, 6]).gelu();
        let loss = h.mse_loss(&Tensor::zeros(&[4, 6]));
        (h.value(), loss.value().item())
    }

    #[test]
    fn inference_forward_is_bit_identical_to_recording_forward() {
        let p = Param::new("w", Tensor::randn(&[6, 6], 19));
        let x = Tensor::randn(&[4, 6], 20);
        let train = Tape::new();
        let infer = Tape::inference();
        assert!(train.grad);
        assert!(!infer.grad);
        let (yt, lt) = mixed_forward(&train, &p, &x);
        let (yi, li) = mixed_forward(&infer, &p, &x);
        assert_eq!(yt, yi, "inference values must be bit-identical");
        assert_eq!(lt.to_bits(), li.to_bits(), "loss must be bit-identical");
        // Same node ids on both tapes: the kernel sequence is identical.
        assert_eq!(train.len(), infer.len());
    }

    #[test]
    #[should_panic(expected = "backward on an inference tape")]
    fn inference_tape_rejects_backward() {
        let p = Param::new("w", Tensor::randn(&[2, 2], 1));
        let tape = Tape::inference();
        let loss = tape.param(&p).mse_loss(&Tensor::zeros(&[2, 2]));
        tape.backward_params(loss);
    }

    #[test]
    fn inference_reset_keeps_mode_and_reuses_arena() {
        let p = Param::new("w", Tensor::randn(&[8, 8], 23));
        let x = Tensor::randn(&[4, 8], 24);
        let mut tape = Tape::inference();
        let run = |tape: &Tape| tape.input(x.clone()).matmul(tape.param(&p)).value();
        let first = run(&tape);
        tape.reset(0);
        assert!(!tape.grad, "reset must not change the mode");
        assert!(
            tape.scratch_buffers() > 0,
            "reset must retire inference buffers into the arena"
        );
        assert_eq!(first, run(&tape), "reset tape must reproduce bits");
    }

    #[test]
    fn inference_mode_skips_backward_only_allocations() {
        // The backward-only saved tensors (xhat, attention weights,
        // target) must not survive on an inference tape: after reset,
        // the recording tape has strictly more retired buffers than the
        // inference tape for the same program.
        let p = Param::new("w", Tensor::randn(&[6, 6], 29));
        let x = Tensor::randn(&[4, 6], 30);
        let count = |mut tape: Tape| {
            mixed_forward(&tape, &p, &x);
            tape.reset(0);
            tape.scratch_buffers()
        };
        let recorded = count(Tape::new());
        let inferred = count(Tape::inference());
        assert!(
            inferred < recorded,
            "inference should retire fewer buffers ({inferred} vs {recorded})"
        );
    }

    #[test]
    fn attn_fused_matches_classic_chain_values_and_grads() {
        // The op is its kernels, bit for bit: the value is
        // `attn_fused_fwd`'s, and the three input gradients are
        // `attn_fused_bwd`'s from the weights the tape kept. The kernel
        // tests pin both to the classic chain.
        let (b, t, h, dh) = (2usize, 17, 2, 5);
        let n = b * t * h * dh;
        let q = Param::new("q", Tensor::randn(&[b, t, h, dh], 1));
        let k = Param::new("k", Tensor::randn(&[b, t, h, dh], 2));
        let v = Param::new("v", Tensor::randn(&[b, t, h, dh], 3));
        let target = Tensor::randn(&[b, t, h, dh], 4);
        let scale = 1.0 / (dh as f32).sqrt();
        let tape = Tape::new();
        let ctx = tape
            .param(&q)
            .attn_fused(tape.param(&k), tape.param(&v), scale);
        let grads = tape.backward_params(ctx.mse_loss(&target));

        let (vq, vk, vv) = (q.value(), k.value(), v.value());
        let (qd, kd, vd) = (vq.data(), vk.data(), vv.data());
        let mut want = vec![0.0; n];
        let mut w = vec![0.0; b * h * t * t];
        kernels::attn_fused_fwd(qd, kd, vd, scale, &mut want, Some(&mut w), b, t, h, dh);
        assert_eq!(ctx.value().data(), &want[..]);
        // The MSE backward hands attention 2·(ctx − target)/N.
        let c = 2.0 / n as f32;
        let g: Vec<f32> = want
            .iter()
            .zip(target.data())
            .map(|(p, t)| c * (p - t))
            .collect();
        let mut want_grads = [(); 3].map(|_| vec![0.0; n]);
        let [gq, gk, gv] = &mut want_grads;
        kernels::attn_fused_bwd(qd, kd, vd, &g, &w, scale, gq, gk, gv, b, t, h, dh);
        for (p, want) in [&q, &k, &v].into_iter().zip(&want_grads) {
            assert_eq!(grads.get(p).unwrap().data(), &want[..], "d{}", p.name());
        }
    }

    #[test]
    fn attn_fused_grad_check() {
        // Finite-difference ground truth for the backward from the kept
        // weights, for each of the three operands.
        let (b, t, h, dh) = (2usize, 5, 2, 3);
        let q = Param::new("q", Tensor::randn(&[b, t, h, dh], 41));
        let k = Param::new("k", Tensor::randn(&[b, t, h, dh], 42));
        let v = Param::new("v", Tensor::randn(&[b, t, h, dh], 43));
        let target = Tensor::randn(&[b, t, h, dh], 44);
        let scale = 1.0 / (dh as f32).sqrt();
        for p in [&q, &k, &v] {
            let f = crate::grad_check::loss_fn(|tape: &Tape| {
                tape.param(&q)
                    .attn_fused(tape.param(&k), tape.param(&v), scale)
                    .mse_loss(&target)
            });
            let report = crate::grad_check::check_param_grad(p, 1e-2, f);
            assert!(
                report.passes(2e-2),
                "attn_fused grad check failed for {}: {report:?}",
                p.name()
            );
        }
    }

    #[test]
    fn attn_fused_inference_tape_allocates_no_score_matrix() {
        // Asserted through the arena: after a reset retires every
        // tape-allocated buffer, an inference tape holds no [B,H,T,T]- or
        // [B,T,T]-sized buffer, and a recording tape — forward and
        // backward — exactly one, the kept weights. Shape chosen so those
        // lengths collide with nothing legitimate (t > h*dh).
        let (b, t, h, dh) = (2usize, 19, 2, 4);
        let q = Param::new("q", Tensor::randn(&[b, t, h, dh], 51));
        let k = Tensor::randn(&[b, t, h, dh], 52);
        let v = Tensor::randn(&[b, t, h, dh], 53);
        let run = |mut tape: Tape| {
            let (k, v) = (tape.input(k.clone()), tape.input(v.clone()));
            let ctx = tape.param(&q).attn_fused(k, v, 0.5);
            let val = ctx.value();
            if tape.grad {
                tape.backward_params(ctx.mse_loss(&Tensor::zeros(&[b, t, h, dh])));
            }
            tape.reset(0);
            let square = [b * h * t * t, b * t * t, h * t * t, t * t];
            let buckets = tape.arena_bucket_lens();
            let kept: Vec<(usize, usize)> = buckets
                .into_iter()
                .filter(|(len, _)| square.contains(len))
                .collect();
            (val, kept)
        };
        let (iv, infer_kept) = run(Tape::inference());
        let (rv, record_kept) = run(Tape::new());
        assert_eq!(iv, rv, "attention must not depend on the tape mode");
        assert!(
            infer_kept.is_empty(),
            "inference attention retired a score-matrix-sized buffer: {infer_kept:?}"
        );
        assert_eq!(
            record_kept,
            [(b * h * t * t, 1)],
            "recording attention keeps the weights and nothing else T²-sized"
        );
    }

    #[test]
    fn attn_fused_reset_reproduces_bits() {
        let (b, t, h, dh) = (3usize, 13, 2, 6);
        let q = Tensor::randn(&[b, t, h, dh], 61);
        let k = Tensor::randn(&[b, t, h, dh], 62);
        let v = Tensor::randn(&[b, t, h, dh], 63);
        let mut tape = Tape::inference();
        let run = |tape: &Tape| {
            tape.input(q.clone())
                .attn_fused(tape.input(k.clone()), tape.input(v.clone()), 0.25)
                .value()
        };
        let first = run(&tape);
        tape.reset(0);
        assert_eq!(first, run(&tape), "reset tape must reproduce bits");
    }

    #[test]
    fn arena_tracks_bytes_and_caps_buckets() {
        let s = Scratch::default();
        assert_eq!(s.bytes.get(), 0);
        // Retire more giant buffers than the byte cap admits: the
        // bucket must stop absorbing them while always keeping >= 1.
        let giant = SCRATCH_BUCKET_BYTE_CAP / F32_BYTES / 2 - 1; // 2 fit, 3 would not
        for _ in 0..5 {
            s.put(vec![0.0; giant]);
        }
        let kept = s.bucket_lens();
        assert_eq!(kept, vec![(giant, 2)], "byte cap must bound the bucket");
        assert_eq!(s.bytes.get(), 2 * giant * F32_BYTES);
        assert_eq!(s.high_water.get(), 2 * giant * F32_BYTES);
        // A buffer larger than the whole cap is still kept (once).
        let colossal = SCRATCH_BUCKET_BYTE_CAP / F32_BYTES + 7;
        s.put(vec![0.0; colossal]);
        s.put(vec![0.0; colossal]);
        assert!(
            s.bucket_lens().contains(&(colossal, 1)),
            "every bucket keeps at least one buffer"
        );
        // Taking releases the byte accounting; high-water stays.
        let hw = s.high_water.get();
        let _ = s.take_overwrite(colossal);
        assert_eq!(s.bytes.get(), 2 * giant * F32_BYTES);
        assert_eq!(s.high_water.get(), hw);
        // Small buffers still hit the count cap first.
        for _ in 0..SCRATCH_BUCKET_CAP + 9 {
            s.put(vec![0.0; 8]);
        }
        assert!(s.bucket_lens().contains(&(8, SCRATCH_BUCKET_CAP)));
    }
}
