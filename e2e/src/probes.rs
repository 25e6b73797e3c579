//! The per-layer report of a traced run: every layer's public entry point
//! timed from outside, at the workload's model shape. A request is
//! replayed through the layers one after another, so each duration is
//! measured alone and the tree is laid out afterwards; what a parent's
//! children do not account for is reported under its own name
//! (`net.transport_us`, `serve.batcher_overhead_us`,
//! `core.forward_residual_us`).

use crate::host::OneCpu;
use crate::phase::{Opts, Stretch};
use crate::serving::{
    fresh_engine, save_checkpoint, BatchEnv, Reference, Shape, TempFile, WireEnv, CYCLE, DEADLINE,
    HEAD, MODEL, WINDOWS,
};
use crate::stats::{median_of, self_times};
use crate::trace::Recorder;
use crate::train::{self, Artifacts, Scale};
use ntt_core::{
    evaluate, Aggregation, DelayHead, HeadTask, Ntt, NttConfig, ParStrategy, OUT_SLOTS, ZONE_SLOTS,
};
use ntt_data::{featurize_window, FeatureMask, Normalizer, PacketView, NUM_FEATURES};
use ntt_net::frame::{decode_body, encode_request, encode_response, Request, Response};
use ntt_net::NetClient;
use ntt_nn::{Adam, Head, Linear, LrSchedule, Module, MultiHeadAttention, TransformerEncoder};
use ntt_obs::MetricsSnapshot;
use ntt_serve::{InferenceSession, ModelRegistry, SessionConfig};
use ntt_tensor::{kernels, splitmix64, Tape, TapePool, Tensor, Var};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

type Metrics = Vec<(&'static str, f64)>;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn median(values: &[f64]) -> Result<f64, String> {
    median_of(values).ok_or_else(|| "a probe took no samples".to_string())
}

/// Median wall time of `reps` calls of `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> Result<Duration, String> {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).map(Duration::from_secs_f64)
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// `serve.shed`, `serve.deadline_exceeded` and `serve.worker_restarts`
/// over the whole traced run: what `ntt-obs` counted since `before`.
pub fn health(before: &MetricsSnapshot) -> Metrics {
    let now = ntt_obs::snapshot();
    let delta = |name| (counter(&now, name) - counter(before, name)) as f64;
    vec![
        ("serve.shed", delta("serve.shed_total")),
        ("serve.deadline_exceeded", delta("serve.deadline_exceeded")),
        ("serve.worker_restarts", delta("serve.worker_restarts")),
    ]
}

/// The trunk's stages rebuilt from `ntt-nn`'s public layers at the
/// model's shape (`Ntt` keeps its own private), run on a pooled
/// inference tape. Weights differ from the served model's; time does not
/// depend on them.
struct Stages {
    cfg: NttConfig,
    embed: Linear,
    agg: Option<(Linear, Option<Linear>)>,
    encoder: TransformerEncoder,
    attention: MultiHeadAttention,
    head: DelayHead,
    tapes: TapePool,
    packets: Tensor,
    embedded: Tensor,
    slots: Tensor,
}

/// Microseconds one replay spent in each stage.
#[derive(Debug, Clone, Copy, Default)]
struct StageTimes {
    embed: f64,
    agg: f64,
    encoder: f64,
    /// All layers' attention, a part of `encoder`.
    attention: f64,
    head: f64,
}

impl Stages {
    fn new(cfg: &NttConfig) -> Stages {
        let d = cfg.d_model;
        let agg = match cfg.aggregation {
            Aggregation::MultiScale { block } => Some((
                Linear::new("probe.agg1", block * d, d, 1),
                Some(Linear::new("probe.agg2", 2 * d, d, 2)),
            )),
            Aggregation::Fixed { block } => {
                Some((Linear::new("probe.agg1", block * d, d, 1), None))
            }
            Aggregation::None => None,
        };
        let encoder = TransformerEncoder::new("probe.encoder", &cfg.encoder(), 3);
        encoder.set_training(false);
        Stages {
            cfg: *cfg,
            embed: Linear::new("probe.embedding", NUM_FEATURES, d, 4),
            agg,
            encoder,
            attention: MultiHeadAttention::new("probe.attention", d, cfg.n_heads, 5),
            head: DelayHead::new(d, 6),
            tapes: TapePool::inference(),
            packets: Tensor::randn(&[1, cfg.seq_len(), NUM_FEATURES], 7),
            embedded: Tensor::randn(&[1, cfg.seq_len(), d], 8),
            slots: Tensor::randn(&[1, OUT_SLOTS, d], 9),
        }
    }

    /// Time `f` on a pooled tape, its input already staged.
    fn stage<'s>(
        &'s self,
        input: &Tensor,
        f: impl for<'t> FnOnce(&'t Tape, Var<'t>) -> Var<'t>,
    ) -> f64 {
        self.tapes.with(0, |tape| {
            let x = tape.input_copy(input);
            let t = Instant::now();
            black_box(f(tape, x));
            us(t.elapsed())
        })
    }

    /// The aggregation of `Ntt::forward`, from the same public ops.
    fn aggregate<'t>(&self, tape: &'t Tape, e: Var<'t>) -> Var<'t> {
        let d = self.cfg.d_model;
        match (self.cfg.aggregation, &self.agg) {
            (Aggregation::MultiScale { block }, Some((agg1, Some(agg2)))) => {
                let (old_len, mid_len) = (2 * ZONE_SLOTS * block, ZONE_SLOTS * block);
                let old = e.slice_axis1(0, old_len);
                let mid = e.slice_axis1(old_len, mid_len);
                let raw = e.slice_axis1(old_len + mid_len, ZONE_SLOTS);
                let old1 = agg1.forward(tape, old.reshape(&[1, 2 * ZONE_SLOTS, block * d]));
                let old2 = agg2.forward(tape, old1.reshape(&[1, ZONE_SLOTS, 2 * d]));
                let mid1 = agg1.forward(tape, mid.reshape(&[1, ZONE_SLOTS, block * d]));
                Var::concat_axis1(&[old2, mid1, raw])
            }
            (Aggregation::Fixed { block }, Some((agg1, _))) => {
                agg1.forward(tape, e.reshape(&[1, OUT_SLOTS, block * d]))
            }
            _ => e,
        }
    }

    fn replay(&self) -> StageTimes {
        StageTimes {
            embed: self.stage(&self.packets, |tape, x| self.embed.forward(tape, x)),
            agg: if self.agg.is_some() {
                self.stage(&self.embedded, |tape, e| self.aggregate(tape, e))
            } else {
                0.0
            },
            encoder: self.stage(&self.slots, |tape, x| self.encoder.forward(tape, x)),
            attention: self.stage(&self.slots, |tape, mut x| {
                for _ in 0..self.cfg.n_layers {
                    x = self.attention.forward(tape, x);
                }
                x
            }),
            head: self.stage(&self.slots, |tape, x| self.head.forward_head(tape, x, None)),
        }
    }
}

/// Replay `reps` requests through wire, codec, batcher, engine and
/// stages in turn, record each as a tree, and read the medians back from
/// the trees' self times.
fn request_trees(
    opts: &Opts,
    shape: &Shape,
    reference: &Reference,
    reps: usize,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<(), String> {
    let _one_cpu = shape.one_cpu.then(OneCpu::restrict).flatten();
    let mut wire = WireEnv::start(shape, reference, &opts.out_dir)
        .map_err(|e| format!("probe wire set-up: {e}"))?;
    let batch = BatchEnv::start(shape, reference, &opts.out_dir)
        .map_err(|e| format!("probe batcher set-up: {e}"))?;
    let stages = Stages::new(&shape.cfg);
    let dims = [1, shape.cfg.seq_len(), NUM_FEATURES];
    for _ in 0..8 {
        stages.replay();
    }

    let first = rec.spans().len();
    let mut frame_bytes = 0;
    for i in 0..reps {
        let w = i % WINDOWS;
        let window = &reference.windows[w];

        let t = Instant::now();
        let got = wire.request(window);
        let rtt = t.elapsed();
        if !matches!(got, Ok(v) if reference.verify(w, v)) {
            return Err(format!("replayed wire request {i} came back as {got:?}"));
        }

        let request = Request {
            id: i as u64 + 1,
            model: MODEL.into(),
            head: HEAD.into(),
            deadline_micros: DEADLINE.as_micros() as u32,
            aux: None,
            window: window.clone(),
        };
        let response = Response {
            id: request.id,
            result: Ok(reference.expected[w]),
        };
        let t = Instant::now();
        let sent = encode_request(&request).map_err(|e| format!("encode_request: {e:?}"))?;
        black_box(decode_body(&sent[4..]).map_err(|e| format!("decode_body: {e:?}"))?);
        let answered = encode_response(&response);
        black_box(decode_body(&answered[4..]).map_err(|e| format!("decode_body: {e:?}"))?);
        let codec = t.elapsed();
        frame_bytes = sent.len() + answered.len();

        let owned = window.clone();
        let t = Instant::now();
        let got = batch.batcher.submit(owned, None).and_then(|t| t.wait());
        let submit_wait = t.elapsed();
        if !matches!(got, Ok(v) if reference.verify(w, v)) {
            return Err(format!("replayed batcher request {i} came back as {got:?}"));
        }

        let x = Tensor::from_vec(window.clone(), &dims);
        let t = Instant::now();
        black_box(batch.engine.predict(HEAD, &x, None));
        let predict = t.elapsed();

        let st = stages.replay();
        let ns = |micros: f64| (micros * 1e3) as u64;
        let start = rec.now_ns();
        let mut root = rec.span(None, "wire.request", start, start + rtt.as_nanos() as u64);
        rec.lay(&mut root, "net.codec", codec.as_nanos() as u64);
        let mut submit = rec.lay(
            &mut root,
            "serve.submit_wait",
            submit_wait.as_nanos() as u64,
        );
        let mut forward = rec.lay(&mut submit, "serve.predict", predict.as_nanos() as u64);
        rec.lay(&mut forward, "nn.embed", ns(st.embed));
        rec.lay(&mut forward, "nn.agg", ns(st.agg));
        let mut encoder = rec.lay(&mut forward, "nn.encoder", ns(st.encoder));
        rec.lay(&mut encoder, "nn.attention", ns(st.attention));
        rec.lay(&mut forward, "nn.head", ns(st.head));
    }

    // Medians over the replays, of durations and of self times.
    let spans = &rec.spans()[first..];
    let selfs = self_times(spans);
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut remainders: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        durations
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
        remainders
            .entry(s.name)
            .or_default()
            .push(*self_ns as f64 / 1e3);
    }
    for (metric, span, of_self) in [
        ("net.rtt_1conn_us", "wire.request", false),
        ("net.codec_us", "net.codec", false),
        ("net.transport_us", "wire.request", true),
        ("serve.submit_wait_us", "serve.submit_wait", false),
        ("serve.batcher_overhead_us", "serve.submit_wait", true),
        ("serve.predict_b1_us", "serve.predict", false),
        ("core.forward_residual_us", "serve.predict", true),
        ("nn.embed_us", "nn.embed", false),
        ("nn.agg_us", "nn.agg", false),
        ("nn.encoder_us", "nn.encoder", false),
        ("nn.attention_us", "nn.attention", false),
        ("nn.head_us", "nn.head", false),
    ] {
        let source = if of_self { &remainders } else { &durations };
        m.push((metric, median(source.get(span).map_or(&[], Vec::as_slice))?));
    }
    m.push(("net.frame_bytes", frame_bytes as f64));

    // The rest of what the wire set-up and tear-down cost.
    let addr = wire.addr();
    let connects: Vec<f64> = (0..8)
        .map(|_| {
            let t = Instant::now();
            let client = NetClient::connect_tcp(addr);
            let took = us(t.elapsed());
            client.map(|_| took).map_err(|e| format!("connect: {e}"))
        })
        .collect::<Result<_, _>>()?;
    m.push(("net.connect_us", median(&connects)?));
    m.push(("net.shutdown_ms", wire.stop()));
    Ok(())
}

/// A seeded packet stream with monotone arrival times.
fn packets(n: usize, seed: u64) -> Vec<PacketView> {
    let mut state = seed ^ 0x09ac_4e75;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let r = splitmix64(&mut state);
            t += 1e-4 + (r & 0xff) as f64 * 1e-6;
            PacketView {
                t,
                size: 200.0 + ((r >> 8) & 0x3ff) as f32,
                receiver: ((r >> 20) & 0x3) as f32,
                delay: 0.01 + ((r >> 24) & 0xffff) as f32 * 1e-7,
                retransmit: false,
            }
        })
        .collect()
}

/// `ntt-serve` beyond one request: the batched forward, the claim loop
/// under the caller `batch_paper` is, the live-stream session, the
/// registry.
fn serve_probes(
    opts: &Opts,
    shape: &Shape,
    reference: &Reference,
    reps: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let seq = shape.cfg.seq_len();
    let env = BatchEnv::start(shape, reference, &opts.out_dir)
        .map_err(|e| format!("probe batcher set-up: {e}"))?;

    let stacked: Vec<f32> = reference.windows[..CYCLE].concat();
    let x16 = Tensor::from_vec(stacked, &[CYCLE, seq, NUM_FEATURES]);
    let b16 = timed((reps / 8).max(3), || {
        black_box(env.engine.predict(HEAD, &x16, None));
    })?;
    m.push(("serve.predict_b16_us_per_window", us(b16) / CYCLE as f64));

    // Sixteen at a time, as `batch_paper` submits them.
    let mut cycles = Stretch::default();
    for c in 0..(reps / CYCLE).max(3) {
        env.cycle(reference, c * CYCLE, &mut cycles, None);
    }
    if cycles.failed > 0 {
        return Err("a probe window came back wrong from the batcher".into());
    }
    let (stats, hist) = (env.batcher.stats(), env.batcher.metrics());
    m.push(("serve.queue_wait_p50_us", hist.queue_wait_ns.p50() / 1e3));
    m.push(("serve.queue_wait_p99_us", hist.queue_wait_ns.p99() / 1e3));
    m.push(("serve.service_p50_us", hist.service_ns.p50() / 1e3));
    m.push((
        "serve.mean_batch",
        stats.windows as f64 / stats.batches.max(1) as f64,
    ));
    m.push(("serve.largest_batch", stats.largest_batch as f64));

    // The live-stream path: pushes that only fill the window, then
    // pushes that featurize it and predict, each followed by the bare
    // forward it contains so the two are compared under the same weather.
    // (A 48-packet window fills in 47 pushes; the paper's in 1023.)
    let mut session = InferenceSession::new(env.engine.clone(), SessionConfig::default());
    let bare = Tensor::from_vec(reference.windows[0].clone(), &[1, seq, NUM_FEATURES]);
    let (mut fills, mut predicts, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    for pkt in packets(seq - 1 + reps, opts.seed) {
        let t = Instant::now();
        let predicted = black_box(session.push(pkt)).is_some();
        let took = us(t.elapsed());
        if predicted {
            let t = Instant::now();
            black_box(env.engine.predict(HEAD, &bare, None));
            overheads.push(took - us(t.elapsed()));
            predicts.push(took);
        } else {
            fills.push(took);
        }
    }
    m.push(("serve.session_predict_us", median(&predicts)?));
    m.push(("serve.session_overhead_us", median(&overheads)?));
    m.push(("serve.session_push_us", median(&fills)?));
    drop(env);

    let ckpt = TempFile::new(&opts.out_dir, "probe").map_err(|e| e.to_string())?;
    save_checkpoint(&shape.cfg, ckpt.path()).map_err(|e| format!("saving a checkpoint: {e}"))?;
    let mut failed = None;
    let load = timed(3, || {
        if let Err(e) = ModelRegistry::new().load(MODEL, ckpt.path()) {
            failed = Some(e);
        }
    })?;
    if let Some(e) = failed {
        return Err(format!("ModelRegistry::load: {e}"));
    }
    m.push(("serve.registry_load_ms", load.as_secs_f64() * 1e3));
    Ok(())
}

/// Best rate of `reps` runs of a `flops`-operation kernel, with the
/// median time of one run.
fn gemm(reps: usize, m: usize, k: usize, n: usize) -> Result<(f64, f64), String> {
    let a = Tensor::randn(&[m, k], 11);
    let b = Tensor::randn(&[k, n], 12);
    let mut c = vec![0.0f32; m * n];
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        c.fill(0.0);
        let t = Instant::now();
        kernels::gemm_nn(a.data(), b.data(), &mut c, m, k, n);
        samples.push(t.elapsed().as_secs_f64());
        black_box(&c);
    }
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let flops = 2.0 * (m * k * n) as f64;
    Ok((median(&samples)? * 1e6, flops / best / 1e9))
}

/// `ntt-tensor` and the training half of `ntt-nn`: kernels at the
/// shapes the model calls them with, weight staging, one microbatch
/// forward and backward, one Adam step.
fn tensor_probes(
    shape: &Shape,
    reference: &Reference,
    reps: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let cfg = &shape.cfg;
    let (d, seq) = (cfg.d_model, cfg.seq_len());
    let model = Ntt::new(*cfg);
    let head = DelayHead::new(d, cfg.seed);
    let mut params = model.params();
    params.extend(head.params());

    let tapes = TapePool::inference();
    let stage = timed(reps, || {
        tapes.with(0, |tape| {
            for p in &params {
                black_box(tape.param(p));
            }
        })
    })?;
    m.push(("tensor.param_stage_us", us(stage)));
    let bytes: usize = params.iter().map(|p| p.numel() * 4).sum();
    m.push(("tensor.param_stage_bytes", bytes as f64));

    let block = match cfg.aggregation {
        Aggregation::MultiScale { block } | Aggregation::Fixed { block } => block,
        Aggregation::None => 1,
    };
    let (agg_us, agg_gflops) = gemm(reps, OUT_SLOTS, block * d, d)?;
    m.push(("tensor.gemm_agg1_us", agg_us));
    m.push(("tensor.gemm_agg1_gflops", agg_gflops));
    m.push((
        "tensor.gemm_peak_gflops",
        gemm(reps.min(16), 256, 256, 256)?.1,
    ));
    // The embedding of sixteen windows: rows enough to split over threads.
    let few = (reps / 4).max(3);
    m.push((
        "tensor.gemm_b16_embed_us",
        gemm(few, CYCLE * seq, NUM_FEATURES, d)?.0,
    ));
    let sequential = kernels::with_sequential(|| gemm(few, CYCLE * seq, NUM_FEATURES, d))?;
    m.push(("tensor.gemm_b16_embed_seq_us", sequential.0));

    let (h, dh) = (cfg.n_heads, d / cfg.n_heads);
    let qkv = Tensor::randn(&[3, OUT_SLOTS * d], 13);
    let (q, rest) = qkv.data().split_at(OUT_SLOTS * d);
    let (k, v) = rest.split_at(OUT_SLOTS * d);
    let mut ctx = vec![0.0f32; OUT_SLOTS * d];
    let scale = 1.0 / (dh as f32).sqrt();
    let fused = timed(reps, || {
        kernels::attn_fused_fwd(q, k, v, scale, &mut ctx, None, 1, OUT_SLOTS, h, dh);
        black_box(&ctx);
    })?;
    m.push(("tensor.attn_fused_us", us(fused)));

    // One microbatch of the trainer: eight windows forward and backward
    // on a recording tape, then the optimizer step over its gradients.
    let x = Tensor::randn(&[8, seq, NUM_FEATURES], 14);
    let y = Tensor::randn(&[8, 1], 15);
    let recording = TapePool::training();
    let mut adam = Adam::new(
        params.clone(),
        LrSchedule::WarmupCosine {
            peak: 1e-3,
            warmup: 1,
            total: 100,
            floor_frac: 0.1,
        },
    );
    let (mut fwd, mut bwd, mut step) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..(reps / 8).max(3) {
        let grads = recording.with(rep as u64, |tape| {
            let t = Instant::now();
            let encoded = model.forward(tape, tape.input(x.clone()));
            let loss = head.forward_head(tape, encoded, None).mse_loss(&y);
            fwd.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let grads = tape.backward_params(loss);
            bwd.push(t.elapsed().as_secs_f64());
            grads
        });
        let t = Instant::now();
        adam.step_with(&grads);
        step.push(t.elapsed().as_secs_f64());
    }
    let (fwd, bwd) = (median(&fwd)?, median(&bwd)?);
    m.push(("nn.fwd_bwd_b8_ms", (fwd + bwd) * 1e3));
    m.push(("nn.adam_step_ms", median(&step)? * 1e3));
    m.push(("tensor.bwd_share", bwd / (fwd + bwd)));

    // Counts of one warm single-window forward, then of `reps` more.
    let engine = fresh_engine(cfg);
    let one = Tensor::from_vec(reference.windows[0].clone(), &[1, seq, NUM_FEATURES]);
    engine.predict(HEAD, &one, None);
    let count = |name| ntt_obs::counter(name).get();
    let (gemm, fused) = (count("tensor.gemm_calls"), count("tensor.attn_fused_calls"));
    engine.predict(HEAD, &one, None);
    m.push((
        "tensor.gemm_calls_per_window",
        (count("tensor.gemm_calls") - gemm) as f64,
    ));
    m.push((
        "tensor.attn_fused_calls_per_window",
        (count("tensor.attn_fused_calls") - fused) as f64,
    ));
    let misses = count("tensor.tape_pool.misses");
    for _ in 0..reps {
        engine.predict(HEAD, &one, None);
    }
    m.push((
        "tensor.tape_pool_misses",
        (count("tensor.tape_pool.misses") - misses) as f64,
    ));

    let mut tape = Tape::inference();
    {
        let encoded = model.forward(&tape, tape.input_copy(&one));
        black_box(head.forward_head(&tape, encoded, None));
    }
    tape.reset(0);
    m.push(("tensor.arena_bytes", tape.arena_high_water_bytes() as f64));
    Ok(())
}

/// `ntt-data`, `ntt-sim`, `ntt-fleet` and the pipeline stages of
/// `ntt-core`, from a set-up and a pass of `train_paper`'s own code.
fn pipeline_probes(
    opts: &Opts,
    shape: &Shape,
    art: &Artifacts,
    reps: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let scale = Scale::of(opts.smoke);
    let exp = train::experiment(shape.cfg, opts.seed, &scale);
    let seq = shape.cfg.seq_len();

    let t = Instant::now();
    let (train_ds, test_ds) = exp.delay_datasets(art.data.pre.clone(), None);
    m.push(("data.dataset_build_s", t.elapsed().as_secs_f64()));
    m.push(("data.train_windows", train_ds.len() as f64));
    let idx: Vec<usize> = (0..exp.train.batch_size.min(train_ds.len())).collect();
    let batch = timed((reps / 4).max(3), || {
        black_box(train_ds.batch(&idx));
    })?;
    m.push(("data.batch_us", us(batch)));
    let pkts = &art.data.pre.runs[0].pkts[..seq];
    let norm = Normalizer::identity(NUM_FEATURES);
    let featurize = timed(reps, || {
        black_box(featurize_window(pkts, &norm, FeatureMask::all(), true));
    })?;
    m.push(("data.featurize_us", us(featurize)));

    let model = Ntt::new(shape.cfg);
    let head = DelayHead::new(shape.cfg.d_model, shape.cfg.seed);
    let task = HeadTask::new(&head, &test_ds);
    let t = Instant::now();
    let report = evaluate(
        &model,
        &task,
        exp.eval_batch,
        &ParStrategy::with_threads(exp.threads),
    );
    m.push((
        "core.eval_windows_per_s",
        report.n as f64 / t.elapsed().as_secs_f64(),
    ));

    let p = &art.last;
    m.push(("core.pipeline_wall_s", p.wall_s));
    m.push((
        "core.train_step_ms",
        p.pre_train_s * 1e3 / p.pre_steps.max(1) as f64,
    ));
    m.push((
        "core.finetune_steps_per_s",
        p.ft_steps as f64 / p.ft_train_s,
    ));
    m.push(("core.ckpt_save_ms", p.save_ms));
    m.push(("core.ckpt_load_ms", p.load_ms));
    m.push(("core.ckpt_bytes", p.ckpt_bytes as f64));
    // An identity, not a size: the two halves of the loss's bits folded
    // into 32, which a JSON number holds exactly.
    let bits = p.final_loss.to_bits();
    m.push((
        "core.final_loss_bits",
        ((bits >> 32) ^ (bits & 0xffff_ffff)) as f64,
    ));

    let fleet = &art.data.fleet;
    let (packets, cpu) = (fleet.total_packets() as f64, fleet.cpu_time().as_secs_f64());
    m.push(("sim.pkt_per_s", packets / cpu));
    m.push(("sim.events_per_pkt", fleet.total_events() as f64 / packets));
    m.push(("fleet.sweep_s", fleet.wall.as_secs_f64()));
    m.push(("fleet.pkt_per_s", fleet.packets_per_sec()));
    m.push((
        "fleet.parallel_efficiency",
        cpu / (fleet.wall.as_secs_f64() * fleet.threads.max(1) as f64),
    ));
    m.push(("fleet.steals", art.data.steals as f64));
    m.push(("fleet.shard_retries", art.data.shard_retries as f64));
    Ok(())
}

/// Nanoseconds per call of `f`.
fn ns_per_call(calls: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(calls)
}

/// What every request pays to be observable and injectable.
fn fixed_cost_probes(smoke: bool, m: &mut Metrics) {
    let calls = if smoke { 20_000 } else { 400_000 };
    m.push((
        "obs.span_on_ns",
        ns_per_call(calls, || {
            drop(black_box(ntt_obs::span!("e2e.probe.span_ns")))
        }),
    ));
    m.push((
        "obs.counter_on_ns",
        ns_per_call(calls, || {
            black_box(ntt_obs::counter!("e2e.probe.counter")).inc()
        }),
    ));
    m.push((
        "chaos.site_off_ns",
        ns_per_call(calls, || {
            ntt_chaos::maybe_delay(black_box("e2e.probe.site"))
        }),
    ));
}

/// Every per-layer metric but the `bench.*` ones and [`health`]'s three.
/// `artifacts` is `train_paper`'s own last set-up and pass; a serving
/// workload has none, so one of each is made here at its shape.
pub fn all(
    opts: &Opts,
    shape: &Shape,
    artifacts: Option<&Artifacts>,
    rec: &mut Recorder,
) -> Result<Metrics, String> {
    let reps = if opts.smoke { 16 } else { 48 };
    let reference = Reference::new(&shape.cfg, opts.seed, false);
    let mut m = Metrics::new();
    request_trees(opts, shape, &reference, reps, rec, &mut m)?;
    serve_probes(opts, shape, &reference, reps, &mut m)?;
    tensor_probes(shape, &reference, reps, &mut m)?;
    let made;
    let artifacts = match artifacts {
        Some(a) => a,
        None => {
            let scale = Scale::of(opts.smoke);
            let exp = train::experiment(shape.cfg, opts.seed, &scale);
            let data = train::setup(&exp, opts.seed, &scale)?;
            let last = train::pass(&exp, &data, &scale, &opts.out_dir, false, None)?;
            if last.failed > 0 {
                return Err("the probe's training pass failed a check".into());
            }
            made = Artifacts { data, last };
            &made
        }
    };
    pipeline_probes(opts, shape, artifacts, reps, &mut m)?;
    fixed_cost_probes(opts.smoke, &mut m);
    Ok(m)
}
