//! Chaos soak: the robustness acceptance run. A seeded fault plan
//! panics and stalls batches while hundreds of concurrent requests are
//! in flight, and the harness asserts the self-healing contract end to
//! end:
//!
//! * **no hangs** — the soak completing at all is the proof: every
//!   ticket resolves, to a value or a typed error, never blocks;
//! * **full accounting** — served + failed == submitted, exactly;
//! * **self-healing** — every injected panic is caught and counted by
//!   the worker that ran it (restart counter == panic count) and the
//!   pool stays healthy;
//! * **typed shedding** — a stalled pool behind a bounded queue rejects
//!   with `Overloaded`, and everything it did accept still resolves;
//! * **replayability** — the same plan seed produces the identical
//!   sorted fault trace on a second pass;
//! * **free when off** — with no plan installed, every chaos site costs
//!   one relaxed load and a branch (the `ntt-obs` kill-switch
//!   discipline), asserted at single-digit ns/op.
//!
//! Writes `results/CHAOS.json` (seed, per-site injection accounting,
//! soak outcome) — the artifact a CI failure replays from.
//!
//! Run: `cargo bench -p ntt-bench --bench chaos_soak [-- --quick]`

use ntt_bench::report::host_context_json;
use ntt_chaos::{ChaosPlan, FaultKind, Rule};
use ntt_core::{Aggregation, DelayHead, Ntt, NttConfig};
use ntt_data::{Normalizer, NUM_FEATURES};
use ntt_nn::Head;
use ntt_serve::{BatchConfig, Batcher, InferenceEngine, ServeError, Ticket};
use ntt_tensor::Tensor;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The default plan seed. `results/CHAOS.json` records the seed each
/// run used; replay a CI failure exactly with
/// `NTT_CHAOS_SEED=<seed> cargo bench -p ntt-bench --bench chaos_soak`.
const SOAK_SEED: u64 = 2026;

fn soak_seed() -> u64 {
    match std::env::var("NTT_CHAOS_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("NTT_CHAOS_SEED must be a u64, got {s:?}")),
        Err(_) => SOAK_SEED,
    }
}

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var("NTT_BENCH_QUICK").is_ok()
}

fn tiny_engine(seed: u64) -> Arc<InferenceEngine> {
    let cfg = NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 }, // 64-pkt windows
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        seed,
        ..NttConfig::default()
    };
    Arc::new(InferenceEngine::from_parts(
        Ntt::new(cfg),
        vec![Box::new(DelayHead::new(16, 1)) as Box<dyn Head>],
        Normalizer::identity(NUM_FEATURES),
    ))
}

/// Mean ns per call of `f` over `iters` calls.
fn ns_per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The "free when off" gate: with no plan installed every chaos site is
/// one relaxed load and a branch. 10 ns is an order of magnitude above
/// the expected cost — the assert survives scheduler noise while still
/// catching any accidental lock, map lookup, or clock read.
fn off_gate(iters: u64) -> (f64, f64) {
    ntt_chaos::uninstall();
    let fail_off = ns_per_op(iters, || {
        black_box(ntt_chaos::should_fail(black_box("chaos_bench.site")));
    });
    let panic_off = ns_per_op(iters, || {
        ntt_chaos::maybe_panic(black_box("chaos_bench.site"));
    });
    assert!(
        fail_off < 10.0,
        "disabled should_fail costs {fail_off:.2} ns/op — the chaos kill switch is no longer cheap"
    );
    assert!(
        panic_off < 10.0,
        "disabled maybe_panic costs {panic_off:.2} ns/op — the chaos kill switch is no longer cheap"
    );
    (fail_off, panic_off)
}

struct SoakOutcome {
    served: usize,
    died: usize,
    restarts: u64,
    trace: Vec<ntt_chaos::ChaosEvent>,
    report_json: String,
}

/// Drive `n` requests through a self-healing batcher under the seeded
/// panic/stall plan. Panics (failing the bench) if any invariant of the
/// robustness contract breaks.
fn soak(engine: &Arc<InferenceEngine>, n: usize, workers: usize, seed: u64) -> SoakOutcome {
    let guard = ntt_chaos::scoped(
        ChaosPlan::new(seed)
            // ~1 in 16 batch claims panics mid-batch.
            .rule(Rule::new("serve.worker.panic", FaultKind::Panic).rate(1, 16))
            // ~1 in 8 claims stalls 1ms before serving (slow consumer).
            .rule(Rule::new("serve.worker.stall", FaultKind::Delay { millis: 1 }).rate(1, 8))
            // ~1 in 32 forward passes runs slow (contended model).
            .rule(Rule::new("serve.predict.delay", FaultKind::Delay { millis: 1 }).rate(1, 32)),
    );
    let batcher = Batcher::new(
        Arc::clone(engine),
        BatchConfig {
            // One request per claim: the fault schedule's hit count is
            // exactly `n` at every worker count, so the run replays.
            max_batch: 1,
            workers,
            head: "delay",
            queue_cap: 0, // unbounded: this phase measures crash recovery
            max_restarts: 10_000,
            deadline: None,
        },
    );
    let row = engine.seq_len() * NUM_FEATURES;
    let pool = Tensor::randn(&[64, engine.seq_len(), NUM_FEATURES], 29);
    let tickets: Vec<Ticket> = (0..n)
        .map(|i| {
            let w = pool.data()[(i % 64) * row..((i % 64) + 1) * row].to_vec();
            batcher
                .submit(w, None)
                .expect("admission (unbounded queue)")
        })
        .collect();
    let mut served = 0usize;
    let mut died = 0usize;
    for t in tickets {
        match t.wait() {
            Ok(v) => {
                assert!(v.is_finite(), "served answer must be a real prediction");
                served += 1;
            }
            Err(ServeError::WorkerDied) => died += 1,
            Err(e) => panic!("soak saw an unexpected error: {e}"),
        }
    }
    // Full accounting: every submission resolved exactly once.
    assert_eq!(served + died, n, "completed + failed must equal submitted");
    assert!(died > 0, "a 1/16 panic rate over {n} claims must fire");
    assert!(served > n / 2, "most requests must survive the chaos");
    // A worker counts a caught panic before it fails that batch's
    // ticket, so the stats are final once every ticket has resolved.
    let stats = batcher.stats();
    assert!(batcher.is_healthy(), "ample budget: no terminal poison");
    assert_eq!(
        stats.restarts as usize, died,
        "every panic must be counted as exactly one restart"
    );
    let report_json = ntt_chaos::report().to_json();
    drop(batcher);
    SoakOutcome {
        served,
        died,
        restarts: stats.restarts,
        trace: guard.finish(),
        report_json,
    }
}

/// Overload phase: a stalled single worker behind a bounded queue must
/// shed with `Overloaded` and still resolve everything it accepted.
fn shed_phase(engine: &Arc<InferenceEngine>, n: usize, seed: u64) -> (usize, usize) {
    let guard = ntt_chaos::scoped(ChaosPlan::new(seed).rule(
        // Every claim stalls: the queue can only back up.
        Rule::new("serve.worker.stall", FaultKind::Delay { millis: 5 }).rate(1, 1),
    ));
    let batcher = Batcher::new(
        Arc::clone(engine),
        BatchConfig {
            max_batch: 1,
            workers: 1,
            head: "delay",
            queue_cap: 8,
            max_restarts: 0,
            deadline: None,
        },
    );
    let row = engine.seq_len() * NUM_FEATURES;
    let w = vec![0.125f32; row];
    let mut accepted: Vec<Ticket> = Vec::new();
    let mut shed = 0usize;
    for _ in 0..n {
        match batcher.submit(w.clone(), None) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Overloaded { cap }) => {
                assert_eq!(cap, 8);
                shed += 1;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(shed > 0, "{n} submits against an 8-deep stalled queue shed");
    let kept = accepted.len();
    for t in accepted {
        assert!(
            t.wait().expect("accepted requests are served").is_finite(),
            "accepted work must still complete under overload"
        );
    }
    drop(batcher);
    drop(guard);
    (kept, shed)
}

fn main() {
    let quick = quick_mode();
    let seed = soak_seed();
    let gate_iters: u64 = if quick { 2_000_000 } else { 20_000_000 };
    let requests: usize = if quick { 400 } else { 2_000 };
    let workers = 4usize;

    eprintln!(
        "chaos_soak: seed {seed}, {requests} requests x {workers} workers{}",
        if quick { " (quick)" } else { "" }
    );

    // Injected worker panics are the *point* of this bench; keep their
    // backtraces out of the log so real failures stay visible.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("chaos: injected panic") {
            default_hook(info);
        }
    }));

    // ---- free-when-off gate -----------------------------------------
    let (fail_off, panic_off) = off_gate(gate_iters);
    eprintln!("  off: should_fail {fail_off:.2} ns/op, maybe_panic {panic_off:.2} ns/op ✓");

    // ---- crash-recovery soak, run twice to pin replayability --------
    let engine = tiny_engine(31);
    let t0 = Instant::now();
    let a = soak(&engine, requests, workers, seed);
    let soak_secs = t0.elapsed().as_secs_f64();
    let b = soak(&engine, requests, workers, seed);
    assert_eq!(
        a.trace, b.trace,
        "same seed must replay the identical sorted fault trace"
    );
    assert_eq!(a.restarts, b.restarts);
    let panics = a.trace.iter().filter(|e| e.kind == "panic").count();
    eprintln!(
        "  soak: {} served + {} died = {requests} in {soak_secs:.2}s, \
         {} restarts for {panics} injected panics, trace replays ✓",
        a.served, a.died, a.restarts
    );

    // ---- bounded-queue shedding -------------------------------------
    let (kept, shed) = shed_phase(&engine, if quick { 200 } else { 600 }, seed);
    eprintln!("  shed: {kept} accepted, {shed} shed with typed Overloaded ✓");

    // ---- artifact ---------------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"chaos_soak\",\n");
    let _ = writeln!(json, "  \"host\": {},", host_context_json());
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"off_ns_per_op\": {{");
    let _ = writeln!(json, "    \"should_fail\": {fail_off:.3},");
    let _ = writeln!(json, "    \"maybe_panic\": {panic_off:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"soak\": {{");
    let _ = writeln!(json, "    \"requests\": {requests},");
    let _ = writeln!(json, "    \"workers\": {workers},");
    let _ = writeln!(json, "    \"served\": {},", a.served);
    let _ = writeln!(json, "    \"died\": {},", a.died);
    let _ = writeln!(json, "    \"worker_restarts\": {},", a.restarts);
    let _ = writeln!(json, "    \"seconds\": {soak_secs:.3},");
    let _ = writeln!(json, "    \"trace_replays\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"shed\": {{");
    let _ = writeln!(json, "    \"accepted\": {kept},");
    let _ = writeln!(json, "    \"shed\": {shed},");
    let _ = writeln!(json, "    \"queue_cap\": 8");
    let _ = writeln!(json, "  }},");
    // Per-site injection accounting from the soak's own plan.
    let _ = writeln!(json, "  \"chaos_report\": {}", a.report_json);
    json.push_str("}\n");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let path = dir.join("CHAOS.json");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        eprintln!("  (could not write {}: {e})", path.display());
    } else {
        eprintln!("  wrote {}", path.display());
    }
}
