//! Serving-layer throughput: single-stream latency, batched forward
//! throughput versus batch size, and the serving-system comparison the
//! `Batcher` exists for — interactive single-request serving versus
//! concurrent coalesced serving.
//!
//! Custom harness: serving is deterministic per window,
//! so fixed-iteration timed loops are the honest measurement. Three
//! model shapes are measured:
//! * the **quick-scale serving shape** (64-packet windows, d_model 32)
//!   for engine-level latency percentiles and batched-forward
//!   throughput. On one core these forwards are compute-bound, so the
//!   batch-size curve is nearly flat — recorded to keep that honest;
//! * the **paper-scale shape** (`NttConfig::default()`: 1024-packet
//!   windows, d_model 64, 2 layers) for the batched-forward curve of
//!   the model the paper deploys — recorded, not asserted;
//! * the **latency-tier shape** (48-packet windows, d_model 8), where
//!   per-request costs (thread wakeups, request plumbing) are a large
//!   share of each ~60 µs forward. This is where micro-batching earns
//!   its keep, mTCP-style: 8 concurrent streams coalescing through one
//!   worker amortize the per-request synchronization that a
//!   one-at-a-time closed loop pays in full. The bench **asserts** the
//!   coalesced path beats single-request throughput (batch ≥ 8) —
//!   the acceptance gate for the serving subsystem.
//!
//! Writes `results/BENCH_serve.json`.
//!
//! Run: `cargo bench -p ntt-bench --bench serve_throughput [-- --quick]`

use ntt_bench::report::host_context_json;
use ntt_core::{env_threads, Aggregation, DelayHead, Ntt, NttConfig};
use ntt_data::{Normalizer, NUM_FEATURES};
use ntt_nn::Head;
use ntt_serve::{BatchConfig, Batcher, BatcherMetrics, InferenceEngine};
use ntt_tensor::Tensor;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Scale {
    /// Timed single-stream predictions (latency percentiles).
    single_iters: usize,
    /// Windows per batched-forward measurement point (quick shape).
    batched_windows: usize,
    /// Windows per batched-forward point at paper scale (each forward
    /// is ~50x the quick shape's work, so the budget is smaller).
    paper_windows: usize,
    /// Requests per interactive-serving pass.
    serving_requests: usize,
}

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var("NTT_BENCH_QUICK").is_ok()
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn engine_for(cfg: NttConfig) -> Arc<InferenceEngine> {
    let head: Box<dyn Head> = Box::new(DelayHead::new(cfg.d_model, 3));
    Arc::new(InferenceEngine::from_parts(
        Ntt::new(cfg),
        vec![head],
        Normalizer::identity(NUM_FEATURES),
    ))
}

/// Batched forward throughput vs batch size through one engine (best of
/// two passes per point to filter 1-core scheduler jitter).
fn batched_sweep(
    engine: &Arc<InferenceEngine>,
    batch_sizes: &[usize],
    windows: usize,
    label: &str,
) -> Vec<(usize, f64)> {
    let seq = engine.seq_len();
    let mut out = Vec::new();
    for &b in batch_sizes {
        let x = Tensor::randn(&[b, seq, NUM_FEATURES], 19 + b as u64);
        engine.predict("delay", &x, None); // warmup for this shape
        let reps = (windows / b).max(2);
        let mut wps = 0.0f64;
        for _pass in 0..2 {
            let t = Instant::now();
            for _ in 0..reps {
                engine.predict("delay", &x, None);
            }
            wps = wps.max((reps * b) as f64 / t.elapsed().as_secs_f64());
        }
        eprintln!("  {label} batch {b:>2}: {wps:>8.1} windows/s");
        out.push((b, wps));
    }
    out
}

/// Interactive **single-request** serving: a closed loop with one
/// outstanding request — submit, block on the answer, repeat. Every
/// window pays the full request round trip (queue, worker wakeup,
/// response wakeup) by itself.
fn serve_single(engine: &Arc<InferenceEngine>, pool: &Tensor, n: usize) -> f64 {
    let row = engine.seq_len() * NUM_FEATURES;
    let batcher = Batcher::new(
        Arc::clone(engine),
        BatchConfig {
            max_batch: 8,
            workers: 1,
            head: "delay",
            ..BatchConfig::default()
        },
    );
    for i in 0..16 {
        let w = pool.data()[(i % 64) * row..((i % 64) + 1) * row].to_vec();
        batcher.submit(w, None).unwrap().wait().unwrap(); // warmup
    }
    let t = Instant::now();
    for i in 0..n {
        let w = pool.data()[(i % 64) * row..((i % 64) + 1) * row].to_vec();
        batcher.submit(w, None).unwrap().wait().unwrap();
    }
    n as f64 / t.elapsed().as_secs_f64()
}

/// Interactive **batched** serving: `streams` concurrent closed loops
/// over one batcher. While the worker runs one forward, the other
/// streams' requests accumulate and coalesce — the per-request
/// synchronization amortizes across the batch.
fn serve_concurrent(
    engine: &Arc<InferenceEngine>,
    pool: &Tensor,
    n: usize,
    streams: usize,
) -> (f64, usize, BatcherMetrics) {
    let row = engine.seq_len() * NUM_FEATURES;
    let batcher = Arc::new(Batcher::new(
        Arc::clone(engine),
        BatchConfig {
            max_batch: streams,
            workers: 1,
            head: "delay",
            ..BatchConfig::default()
        },
    ));
    let per = (n / streams).max(1);
    let t = Instant::now();
    std::thread::scope(|s| {
        for sid in 0..streams {
            let batcher = Arc::clone(&batcher);
            s.spawn(move || {
                for i in 0..per {
                    let j = (sid * per + i) % 64;
                    let w = pool.data()[j * row..(j + 1) * row].to_vec();
                    batcher.submit(w, None).unwrap().wait().unwrap();
                }
            });
        }
    });
    let wps = (streams * per) as f64 / t.elapsed().as_secs_f64();
    (wps, batcher.stats().largest_batch, batcher.metrics())
}

fn main() {
    let quick = quick_mode();
    let scale = if quick {
        Scale {
            single_iters: 150,
            batched_windows: 320,
            paper_windows: 64,
            serving_requests: 1200,
        }
    } else {
        Scale {
            single_iters: 400,
            batched_windows: 1024,
            paper_windows: 192,
            serving_requests: 2500,
        }
    };
    let threads = env_threads(0);

    // ---- shape A: quick-scale serving (engine-level numbers) --------
    let cfg_a = NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 }, // 64-pkt windows
        seed: 3,
        ..NttConfig::reduced(3)
    };
    let seq_a = cfg_a.seq_len();
    let engine_a = engine_for(cfg_a);
    eprintln!(
        "serve_throughput: shape A seq {seq_a} d{}, shape P paper-scale, shape B seq 48 d8, \
         NTT_THREADS={threads}{}",
        cfg_a.d_model,
        if quick { " (quick)" } else { "" }
    );

    // Single-stream latency through the engine (per-request tensor
    // assembly included — that is what one served window costs).
    let row_a = seq_a * NUM_FEATURES;
    let pool_a = Tensor::randn(&[64, seq_a, NUM_FEATURES], 17);
    let one = |i: usize| {
        Tensor::from_vec(
            pool_a.data()[(i % 64) * row_a..((i % 64) + 1) * row_a].to_vec(),
            &[1, seq_a, NUM_FEATURES],
        )
    };
    for i in 0..8 {
        engine_a.predict("delay", &one(i), None); // warmup (arena fill)
    }
    let mut lat_us: Vec<f64> = Vec::with_capacity(scale.single_iters);
    for i in 0..scale.single_iters {
        let t = Instant::now();
        engine_a.predict("delay", &one(i), None);
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    lat_us.sort_by(|a, b| a.total_cmp(b));
    let (p50, p99) = (percentile(&lat_us, 0.50), percentile(&lat_us, 0.99));
    eprintln!("  A single-stream: p50 {p50:.0} µs, p99 {p99:.0} µs");

    // Batched forward throughput vs batch size.
    let batch_sizes = [1usize, 2, 4, 8, 16, 32];
    let batched = batched_sweep(&engine_a, &batch_sizes, scale.batched_windows, "A");

    // ---- shape P: paper-scale batched forwards ----------------------
    // The model shape the paper actually deploys (`NttConfig::default()`:
    // 1024-packet windows, d_model 64, 2 layers). Attention runs one
    // `(b, h)` block at a time, so no `[B, H, T, T]` tensor grows with
    // the batch.
    let cfg_p = NttConfig {
        seed: 3,
        ..NttConfig::default()
    };
    let (seq_p, d_p) = (cfg_p.seq_len(), cfg_p.d_model);
    let engine_p = engine_for(cfg_p);
    let paper_batched = batched_sweep(&engine_p, &batch_sizes, scale.paper_windows, "P");

    // ---- shape B: interactive serving, single vs coalesced ----------
    let cfg_b = NttConfig {
        aggregation: Aggregation::None, // 48-pkt windows
        d_model: 8,
        n_heads: 1,
        n_layers: 1,
        d_ff: 16,
        seed: 3,
        ..NttConfig::default()
    };
    let engine_b = engine_for(cfg_b);
    let pool_b = Tensor::randn(&[64, cfg_b.seq_len(), NUM_FEATURES], 23);
    let streams = 8usize;
    // Interleaved best-of-three passes per side: the comparison is
    // between modes of one system, so both sides see the same machine
    // weather and the max filters scheduler noise out of each.
    let (mut single_wps, mut conc_wps, mut largest) = (0.0f64, 0.0f64, 0usize);
    // Per-request latency decomposition, straight from the Batcher's own
    // queue-wait / service-time histograms (not harness wall-clock math)
    // — merged across the rounds so percentiles cover every request.
    let mut lat = BatcherMetrics::default();
    for _round in 0..3 {
        single_wps = single_wps.max(serve_single(&engine_b, &pool_b, scale.serving_requests));
        let (wps, big, m) = serve_concurrent(&engine_b, &pool_b, scale.serving_requests, streams);
        conc_wps = conc_wps.max(wps);
        largest = largest.max(big);
        lat.queue_wait_ns.merge(&m.queue_wait_ns);
        lat.service_ns.merge(&m.service_ns);
        lat.batch_size.merge(&m.batch_size);
    }
    let ratio = conc_wps / single_wps;
    let us = |h: &ntt_obs::HistogramSnapshot, q: f64| h.quantile(q) / 1e3;
    eprintln!(
        "  B single-request serving : {single_wps:>8.1} windows/s (closed loop, 1 outstanding)"
    );
    eprintln!(
        "  B coalesced serving      : {conc_wps:>8.1} windows/s ({streams} streams, largest batch {largest})"
    );
    eprintln!(
        "  B coalesced latency      : queue-wait p50 {:.1} µs p99 {:.1} µs, \
         service p50 {:.1} µs p99 {:.1} µs ({} requests)",
        us(&lat.queue_wait_ns, 0.50),
        us(&lat.queue_wait_ns, 0.99),
        us(&lat.service_ns, 0.50),
        us(&lat.service_ns, 0.99),
        lat.queue_wait_ns.count,
    );

    // ---- the acceptance gate ----------------------------------------
    // The coalescing margin comes from wakeup amortization, which is a
    // *1-core* phenomenon: on a multi-core host the closed loop overlaps
    // submitter and worker on separate cores and the comparison stops
    // measuring what it gates. Assert only where the claim is defined;
    // elsewhere record the ratio and warn, so the bench never turns
    // hardware weather into a red build.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores == 1 {
        assert!(
            largest >= 8,
            "concurrent streams never coalesced to batch 8 (largest {largest})"
        );
        assert!(
            ratio > 1.0,
            "coalesced serving ({conc_wps:.1} windows/s) failed to beat single-request \
             serving ({single_wps:.1} windows/s)"
        );
        eprintln!(
            "  coalesced serving beats single-request serving ✓ ({ratio:.2}x at batch {largest})"
        );
    } else {
        eprintln!(
            "  ({cores} cores: coalescing gate not asserted — ratio {ratio:.2}x recorded only)"
        );
    }

    // ---- robustness counters ----------------------------------------
    // The self-healing counters the chaos plane exercises. A clean bench
    // run must come out all-zero (no chaos plan is installed here): any
    // nonzero value means the serving path shed, expired, or recovered
    // from a panic under plain load, which is itself a finding worth
    // recording.
    let restarts = ntt_obs::counter!("serve.worker_restarts").get();
    let shed = ntt_obs::counter!("serve.shed_total").get();
    let expired = ntt_obs::counter!("serve.deadline_exceeded").get();
    let retries = ntt_obs::counter!("fleet.shard_retries").get();
    let depth = ntt_obs::gauge!("serve.queue_depth").get();
    eprintln!(
        "  robustness: {restarts} worker restarts, {shed} shed, {expired} deadline-exceeded, \
         {retries} shard retries, queue depth {depth:.0}"
    );

    // ---- machine-readable artifact ----------------------------------
    let mut json = String::from("{\n  \"bench\": \"serve\",\n");
    let _ = writeln!(json, "  \"host\": {},", host_context_json());
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"engine_shape\": {{\"d_model\": {}, \"seq_len\": {seq_a}}},",
        cfg_a.d_model
    );
    let _ = writeln!(
        json,
        "  \"single_stream\": {{\"predictions\": {}, \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}}},",
        scale.single_iters
    );
    let write_curve = |json: &mut String, key: &str, pts: &[(usize, f64)]| {
        let _ = writeln!(json, "  \"{key}\": [");
        for (i, (b, wps)) in pts.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{\"batch\": {b}, \"windows_per_sec\": {wps:.2}}}{}",
                if i + 1 == pts.len() { "" } else { "," }
            );
        }
        let _ = writeln!(json, "  ],");
    };
    write_curve(&mut json, "batched", &batched);
    let _ = writeln!(
        json,
        "  \"paper_shape\": {{\"d_model\": {d_p}, \"seq_len\": {seq_p}}},"
    );
    write_curve(&mut json, "paper_batched", &paper_batched);
    let _ = writeln!(
        json,
        "  \"serving_shape\": {{\"d_model\": {}, \"seq_len\": {}}},",
        cfg_b.d_model,
        cfg_b.seq_len()
    );
    let _ = writeln!(
        json,
        "  \"serving\": {{\"requests\": {}, \"streams\": {streams}, \"largest_batch\": {largest}, \
         \"single_request_windows_per_sec\": {single_wps:.2}, \
         \"batched_windows_per_sec\": {conc_wps:.2}, \"speedup\": {ratio:.3}}},",
        scale.serving_requests
    );
    // Sourced from the Batcher's internal `ntt_obs` histograms.
    let _ = writeln!(
        json,
        "  \"serving_latency\": {{\"requests\": {}, \
         \"queue_wait_us\": {{\"p50\": {:.1}, \"p99\": {:.1}}}, \
         \"service_us\": {{\"p50\": {:.1}, \"p99\": {:.1}}}, \
         \"mean_batch\": {:.2}}},",
        lat.queue_wait_ns.count,
        us(&lat.queue_wait_ns, 0.50),
        us(&lat.queue_wait_ns, 0.99),
        us(&lat.service_ns, 0.50),
        us(&lat.service_ns, 0.99),
        lat.batch_size.mean(),
    );
    // Self-healing counters (all zero on a clean, chaos-free run).
    let _ = writeln!(
        json,
        "  \"robustness\": {{\"worker_restarts\": {restarts}, \"shed_total\": {shed}, \
         \"deadline_exceeded\": {expired}, \"shard_retries\": {retries}, \
         \"queue_depth\": {depth:.0}}}"
    );
    json.push_str("}\n");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let path = dir.join("BENCH_serve.json");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        eprintln!("  (could not write {}: {e})", path.display());
    } else {
        eprintln!("  wrote {}", path.display());
    }
}
