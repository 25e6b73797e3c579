//! The three serving workloads: `wire_paper` and `wire_tiny` (a model
//! behind `NetServer` on loopback, one closed-loop client) and
//! `batch_paper` (the same engine behind an in-process `Batcher`, fed
//! sixteen windows at a time). Everything the program under test gets is
//! its defaults and inputs made from the seed.

use crate::host::{self, OneCpu};
use crate::phase::{Opts, Outcome, Stretch};
use crate::stats::FAILED_ATTEMPT;
use crate::trace::Recorder;
use ntt_core::{Aggregation, Checkpoint, DelayHead, Ntt, NttConfig};
use ntt_data::{Normalizer, NUM_FEATURES};
use ntt_net::{NetClient, NetConfig, NetError, NetServer};
use ntt_nn::Head;
use ntt_serve::{BatchConfig, Batcher, InferenceEngine, ModelRegistry};
use ntt_tensor::{Tape, Tensor};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const MODEL: &str = "ntt";
pub const HEAD: &str = "delay";
/// Seeded windows a run cycles through.
pub const WINDOWS: usize = 64;
/// Server-side budget of a wire request; one that exceeds it has failed.
pub const DEADLINE: Duration = Duration::from_millis(500);
/// Windows `batch_paper` submits before it waits: `BatchConfig::default().max_batch`.
pub const CYCLE: usize = 16;

/// A model shape and how a serving workload treats it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub cfg: NttConfig,
    /// Untimed requests after set-up, so tape arenas and socket buffers
    /// are at their steady size before the first sample.
    pub warmup: usize,
    /// Restrict the process to one CPU while it runs. On the tiny shape
    /// one thread is runnable at a time, and where the kernel places
    /// them decides 75 us against 125-180 us for the same code.
    pub one_cpu: bool,
}

impl Shape {
    /// The paper's model: 1024-packet multi-scale window, d_model 64.
    pub fn paper(seed: u64, smoke: bool) -> Shape {
        Shape {
            cfg: NttConfig {
                seed,
                ..NttConfig::default()
            },
            warmup: if smoke { 20 } else { 200 },
            one_cpu: false,
        }
    }

    /// The latency-tier shape: 48 raw packets, d_model 8, one layer. A
    /// forward with almost no FLOPs, so per-request fixed cost is what
    /// is left.
    pub fn tiny(seed: u64, smoke: bool) -> Shape {
        Shape {
            cfg: NttConfig {
                aggregation: Aggregation::None,
                d_model: 8,
                n_heads: 1,
                n_layers: 1,
                d_ff: 16,
                seed,
                ..NttConfig::default()
            },
            warmup: if smoke { 200 } else { 2000 },
            one_cpu: true,
        }
    }
}

fn delay_head(cfg: &NttConfig) -> Box<dyn Head> {
    Box::new(DelayHead::new(cfg.d_model, cfg.seed))
}

/// The model a shape names, wrapped for serving straight from memory.
/// Weights are a function of `cfg.seed`, so this engine and one loaded
/// from [`save_checkpoint`]'s file hold the same values.
pub fn fresh_engine(cfg: &NttConfig) -> InferenceEngine {
    InferenceEngine::from_parts(
        Ntt::new(*cfg),
        vec![delay_head(cfg)],
        Normalizer::identity(NUM_FEATURES),
    )
}

/// Write the shape's model as an NTTCKPT2 file.
pub fn save_checkpoint(cfg: &NttConfig, path: &Path) -> io::Result<()> {
    let head = delay_head(cfg);
    Checkpoint::capture(
        &Ntt::new(*cfg),
        &[head.as_ref()],
        Some(Normalizer::identity(NUM_FEATURES)),
        vec![("origin".into(), "ntt-e2e".into())],
    )?
    .save(path)
}

/// A file that is removed when this goes out of scope, on every path.
pub struct TempFile(PathBuf);

impl TempFile {
    /// A fresh name under `dir` (created if missing); nothing is written.
    pub fn new(dir: &Path, stem: &str) -> io::Result<TempFile> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Ok(TempFile(
            dir.join(format!("{stem}_{}_{n}.ckpt", std::process::id())),
        ))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The inputs of a run and the value each must come back as.
pub struct Reference {
    pub windows: Vec<Vec<f32>>,
    /// `InferenceEngine::predict` on each window alone, from a model
    /// built in memory: no checkpoint, registry, socket or batcher.
    pub expected: Vec<f32>,
    /// Reference values that disagree with the recording-tape forward
    /// (the path training uses) by more than the documented epsilon.
    pub failed_checks: u64,
}

impl Reference {
    pub fn new(cfg: &NttConfig, seed: u64, flip_expected_bit: bool) -> Reference {
        let engine = fresh_engine(cfg);
        let shape = [1, cfg.seq_len(), NUM_FEATURES];
        let mut state = seed ^ 0x57a7_e2e0;
        let windows: Vec<Vec<f32>> = (0..WINDOWS)
            .map(|_| Tensor::randn(&shape, ntt_tensor::splitmix64(&mut state)).into_data())
            .collect();
        let mut expected: Vec<f32> = windows
            .iter()
            .map(|w| {
                let x = Tensor::from_vec(w.clone(), &shape);
                engine.predict(HEAD, &x, None).item()
            })
            .collect();
        // The engine's fused attention reorders one reduction, so the two
        // paths agree to an epsilon, not to the bit.
        let head = delay_head(cfg);
        let model = Ntt::new(*cfg);
        model.set_training(false);
        let failed_checks = (0..8)
            .filter(|&i| {
                let tape = Tape::new();
                let x = tape.input(Tensor::from_vec(windows[i].clone(), &shape));
                let classic = head
                    .forward_head(&tape, model.forward(&tape, x), None)
                    .value()
                    .item();
                let off = (classic - expected[i]).abs() > 1e-4 * (1.0 + classic.abs());
                if off {
                    eprintln!(
                        "e2e: window {i}: inference path {} against recording tape {classic}",
                        expected[i]
                    );
                }
                off
            })
            .count() as u64;
        if flip_expected_bit {
            expected[0] = f32::from_bits(expected[0].to_bits() ^ 1);
        }
        Reference {
            windows,
            expected,
            failed_checks,
        }
    }

    /// Whether `got` is, bit for bit, what window `w` must come back as.
    pub fn verify(&self, w: usize, got: f32) -> bool {
        got.to_bits() == self.expected[w].to_bits()
    }

    /// Count one attempt on window `w` into `out`: verified, with its
    /// latency, or failed and infinitely slow.
    pub fn judge<E: std::fmt::Debug>(
        &self,
        w: usize,
        got: Result<f32, E>,
        latency: Duration,
        out: &mut Stretch,
    ) {
        out.attempted += 1;
        match got {
            Ok(v) if self.verify(w, v) => {
                out.ops += 1;
                out.lat_us.push(latency.as_secs_f64() * 1e6);
            }
            other => {
                if out.failed < 3 {
                    eprintln!(
                        "e2e: window {w}: wanted {}, got {other:?}",
                        self.expected[w]
                    );
                }
                out.failed += 1;
                out.lat_us.push(FAILED_ATTEMPT);
            }
        }
    }
}

/// A checkpoint loaded through `ModelRegistry`, served by `NetServer` on
/// loopback TCP, with one connected `NetClient`. Fields drop in order:
/// the client hangs up, the server stops and joins its threads and
/// pools, the checkpoint file is removed.
pub struct WireEnv {
    client: NetClient,
    server: NetServer,
    addr: std::net::SocketAddr,
    _ckpt: TempFile,
}

impl WireEnv {
    /// From nothing to a warm server: save, load, bind, connect, warm up.
    pub fn start(shape: &Shape, reference: &Reference, dir: &Path) -> io::Result<WireEnv> {
        let ckpt = TempFile::new(dir, "wire")?;
        save_checkpoint(&shape.cfg, ckpt.path())?;
        let registry = Arc::new(ModelRegistry::new());
        registry.load(MODEL, ckpt.path())?;
        let server = NetServer::bind_tcp("127.0.0.1:0", registry, NetConfig::default())?;
        let addr = server
            .tcp_addr()
            .ok_or_else(|| io::Error::other("server has no TCP address"))?;
        let mut env = WireEnv {
            client: NetClient::connect_tcp(addr)?,
            server,
            addr,
            _ckpt: ckpt,
        };
        for i in 0..shape.warmup {
            env.request(&reference.windows[i % WINDOWS])
                .map_err(|e| io::Error::other(format!("warm-up request {i}: {e}")))?;
        }
        Ok(env)
    }

    /// Where the server listens.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// One lockstep round trip.
    pub fn request(&mut self, window: &[f32]) -> Result<f32, NetError> {
        self.client
            .predict(MODEL, HEAD, window, None, Some(DEADLINE))
    }

    /// Hang up, stop the server and wait for its threads; milliseconds.
    pub fn stop(self) -> f64 {
        let WireEnv {
            client,
            server,
            _ckpt,
            ..
        } = self;
        drop(client);
        let t = Instant::now();
        drop(server);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// A checkpoint loaded into an engine behind a default `Batcher`.
/// Dropping it drains and joins the worker, then removes the file.
pub struct BatchEnv {
    pub batcher: Batcher,
    pub engine: Arc<InferenceEngine>,
    _ckpt: TempFile,
}

impl BatchEnv {
    pub fn start(shape: &Shape, reference: &Reference, dir: &Path) -> io::Result<BatchEnv> {
        let ckpt = TempFile::new(dir, "batch")?;
        save_checkpoint(&shape.cfg, ckpt.path())?;
        let engine = Arc::new(InferenceEngine::load(ckpt.path())?);
        let env = BatchEnv {
            batcher: Batcher::new(Arc::clone(&engine), BatchConfig::default()),
            engine,
            _ckpt: ckpt,
        };
        // What a warm-up window comes back as is the timed phase's to judge.
        let mut unjudged = Stretch::default();
        for c in 0..shape.warmup.div_ceil(CYCLE) {
            env.cycle(reference, c * CYCLE, &mut unjudged, None);
        }
        Ok(env)
    }

    /// Submit [`CYCLE`] windows, then wait for each ticket in turn. A
    /// latency sample runs from a window's submit to its ticket resolved,
    /// as this one caller sees it.
    pub fn cycle(
        &self,
        reference: &Reference,
        first: usize,
        out: &mut Stretch,
        rec: Option<&mut Recorder>,
    ) {
        let started = Instant::now();
        let tickets: Vec<_> = (0..CYCLE)
            .map(|j| {
                let w = (first + j) % WINDOWS;
                let at = Instant::now();
                (
                    w,
                    at,
                    self.batcher.submit(reference.windows[w].clone(), None),
                )
            })
            .collect();
        let mut resolved = Vec::with_capacity(CYCLE);
        for (w, at, ticket) in tickets {
            let got = ticket.and_then(|t| t.wait());
            let done = Instant::now();
            reference.judge(w, got, done - at, out);
            resolved.push((at, done));
        }
        if let Some(rec) = rec {
            let root = rec.span(None, "batch.cycle", rec.ns_of(started), rec.now_ns());
            for (at, done) in resolved {
                rec.span(Some(&root), "batch.ticket", rec.ns_of(at), rec.ns_of(done));
            }
        }
    }
}

/// Whether spans are recorded `elapsed` into a stretch of a traced run:
/// in alternate half-seconds, so one run yields both rates.
fn in_traced_half(elapsed: Duration) -> bool {
    (elapsed.as_millis() / 500).is_multiple_of(2)
}

/// Run `op` until the stretch has lasted its time and holds enough
/// samples; `op(i, traced, out)` performs operation number `i`.
fn drive(
    opts: &Opts,
    tracing: bool,
    out: &mut Stretch,
    mut op: impl FnMut(usize, bool, &mut Stretch),
) {
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    // A program that has become very slow must still end the run.
    let give_up = opts.stretch() * 10;
    let mut i = 0;
    loop {
        let elapsed = t0.elapsed();
        let enough = elapsed >= opts.stretch() && out.lat_us.len() >= opts.min_samples();
        if enough || elapsed >= give_up {
            break;
        }
        let traced = tracing && in_traced_half(elapsed);
        let before = out.ops;
        op(i, traced, out);
        if tracing {
            let took = (t0.elapsed() - elapsed).as_secs_f64();
            out.halves.add(traced, out.ops - before, took);
        }
        i += 1;
    }
    out.secs = t0.elapsed().as_secs_f64();
    out.cpu_s = host::cpu_seconds() - cpu0;
}

/// The timed phase of a serving workload: per stretch a fresh `start()`,
/// timed as a set-up, then `op` driven on it, then the tear-down that
/// dropping the environment is.
fn timed_phase<E>(
    opts: &Opts,
    reference: &Reference,
    tracing: bool,
    start: impl Fn() -> io::Result<E>,
    mut op: impl FnMut(&mut E, usize, bool, &mut Stretch),
) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        failed_checks: reference.failed_checks,
        ..Outcome::default()
    };
    for s in 0..opts.stretches() {
        let t = Instant::now();
        let mut env = start().map_err(|e| format!("set-up {s}: {e}"))?;
        outcome.setups_s.push(t.elapsed().as_secs_f64());
        let mut stretch = Stretch::default();
        drive(opts, tracing, &mut stretch, |i, traced, out| {
            op(&mut env, i, traced, out)
        });
        drop(env);
        if s == 0 {
            outcome.peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
        }
        outcome.stretches.push(stretch);
    }
    Ok(outcome)
}

/// The timed phase of `wire_paper` or `wire_tiny`.
pub fn run_wire(
    opts: &Opts,
    shape: &Shape,
    mut rec: Option<&mut Recorder>,
) -> Result<Outcome, String> {
    let reference = Reference::new(&shape.cfg, opts.seed, opts.flip_expected_bit);
    let one_cpu = shape.one_cpu.then(OneCpu::restrict).flatten();
    if let Some(pin) = &one_cpu {
        eprintln!("e2e: restricted to CPU {} while the workload runs", pin.cpu);
    }
    timed_phase(
        opts,
        &reference,
        rec.is_some(),
        || WireEnv::start(shape, &reference, &opts.out_dir),
        |env, i, traced, out| {
            let w = i % WINDOWS;
            let at = Instant::now();
            let got = env.request(&reference.windows[w]);
            let done = Instant::now();
            reference.judge(w, got, done - at, out);
            if let Some(rec) = rec.as_deref_mut().filter(|_| traced) {
                rec.span(None, "wire.request", rec.ns_of(at), rec.ns_of(done));
            }
        },
    )
}

/// The timed phase of `batch_paper`.
pub fn run_batch(
    opts: &Opts,
    shape: &Shape,
    mut rec: Option<&mut Recorder>,
) -> Result<Outcome, String> {
    let reference = Reference::new(&shape.cfg, opts.seed, opts.flip_expected_bit);
    timed_phase(
        opts,
        &reference,
        rec.is_some(),
        || BatchEnv::start(shape, &reference, &opts.out_dir),
        |env, i, traced, out| {
            let rec = rec.as_deref_mut().filter(|_| traced);
            env.cycle(&reference, i * CYCLE, out, rec);
        },
    )
}
