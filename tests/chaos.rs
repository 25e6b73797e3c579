//! Chaos-plane integration: seeded fault schedules drive the stack's
//! recovery paths — fleet shard retry, checkpoint last-good retention,
//! batcher panic recovery/shedding — and every run replays from its
//! seed.
//!
//! Chaos state is process-global, so every test here installs its plan
//! through `chaos::scoped`, which serializes chaos users within this
//! binary and uninstalls on drop. These tests live in their own
//! integration binary (never alongside chaos-free tests) so an
//! installed plan can't leak faults into unrelated suites.

use ntt::chaos::{self, ChaosPlan, FaultKind, Rule};
use ntt::core::{Aggregation, Checkpoint, DelayHead, Ntt, NttConfig};
use ntt::data::{Normalizer, NUM_FEATURES};
use ntt::fleet::{run_fleet_traces, FleetConfig, SweepSpec};
use ntt::nn::Head;
use ntt::serve::{BatchConfig, Batcher, InferenceEngine, ModelRegistry, ServeError, Ticket};
use ntt::sim::scenarios::{Scenario, ScenarioConfig};
use ntt::sim::SimTime;
use ntt::tensor::Tensor;
use std::sync::Arc;

fn tiny_model(seed: u64) -> Ntt {
    Ntt::new(NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 }, // seq 64
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        seed,
        ..NttConfig::default()
    })
}

fn tiny_engine(seed: u64) -> Arc<InferenceEngine> {
    Arc::new(InferenceEngine::from_parts(
        tiny_model(seed),
        vec![Box::new(DelayHead::new(16, 1)) as Box<dyn Head>],
        Normalizer::identity(NUM_FEATURES),
    ))
}

#[test]
fn fleet_shard_retries_replay_and_produce_byte_identical_traces() {
    // A seeded `fleet.shard.attempt` failure plan makes shard attempts
    // fail on a schedule keyed by (shard index, attempt) — thread-count
    // invariant by construction. Retried shards must be byte-identical
    // to the no-chaos baseline (the simulator is a pure function of the
    // shard config), and the fault trace must replay exactly at any
    // worker count.
    let mut base = ScenarioConfig::tiny(17);
    base.duration = SimTime::from_millis(500);
    base.drain = SimTime::from_millis(200);
    let spec = SweepSpec::new(base)
        .scenarios(vec![Scenario::Pretrain, Scenario::Case1])
        .runs_per_cell(3);

    // Baseline: no chaos installed.
    let (clean, _) = run_fleet_traces(&spec, &FleetConfig::with_threads(2));

    let chaos_run = |threads: usize| {
        // Seed 1 chosen (the schedule is a pure function of the seed,
        // so this is checkable offline): 4 attempts fail across the 6
        // shards and every shard recovers within the retry budget.
        let guard = chaos::scoped(
            ChaosPlan::new(1).rule(Rule::new("fleet.shard.attempt", FaultKind::Fail).rate(1, 2)),
        );
        let cfg = FleetConfig {
            threads,
            max_retries: 8, // ample budget: 1/2^9 per-shard wipeout odds
        };
        let (traces, report) = run_fleet_traces(&spec, &cfg);
        let injected = chaos::report().injected_total();
        (traces, report, injected, guard.finish())
    };
    let (t1, r1, inj1, trace1) = chaos_run(1);
    let (t4, r4, inj4, trace4) = chaos_run(4);
    assert_eq!(r1.shards.len(), 6);
    assert_eq!(r4.shards.len(), 6);

    // The schedule actually fired, identically, at both worker counts.
    assert!(inj1 > 0, "a 1-in-2 failure rate over 6 shards must fire");
    assert_eq!(inj1, inj4, "injection count is seed-pure");
    assert!(!trace1.is_empty());
    assert_eq!(trace1, trace4, "fault trace replays across thread counts");

    // And the data plane never noticed: retried shards are identical to
    // the clean run, shard for shard, byte for byte.
    for ((a, b), c) in t1.iter().zip(&t4).zip(&clean) {
        assert_eq!(a.packets, c.packets, "retry changed a shard's packets");
        assert_eq!(a.messages, c.messages);
        assert_eq!(b.packets, c.packets);
        assert_eq!(b.messages, c.messages);
    }
}

#[test]
fn a_shard_out_of_retries_fails_the_sweep_instead_of_hanging_it() {
    // One shard attempt fails and has no retry left. The workers behind
    // it are throttled on a shard that will never reach the sink, so
    // unless the panic lifts the throttle the sweep waits forever.
    let mut base = ScenarioConfig::tiny(17);
    base.duration = SimTime::from_millis(200);
    base.drain = SimTime::from_millis(100);
    let spec = SweepSpec::new(base)
        .scenarios(vec![Scenario::Pretrain])
        .runs_per_cell(12);
    let _guard = chaos::scoped(
        ChaosPlan::new(1).rule(
            Rule::new("fleet.shard.attempt", FaultKind::Fail)
                .rate(1, 1)
                .limit(1),
        ),
    );
    let cfg = FleetConfig {
        threads: 2,
        max_retries: 0,
    };
    let sweep = std::panic::catch_unwind(|| run_fleet_traces(&spec, &cfg));
    assert!(sweep.is_err(), "a shard out of retries must fail the sweep");
}

#[test]
fn checkpoint_read_chaos_is_caught_and_the_registry_keeps_last_good() {
    // Corruption and truncation injected at the `core.checkpoint.read`
    // site must be caught by the checkpoint's own validation (checksum,
    // length framing) and surface as typed io::Errors — and a registry
    // hot-swap that hits one keeps serving the last good engine.
    let model = tiny_model(23);
    let head = DelayHead::new(16, 1);
    let path = std::env::temp_dir().join(format!("ntt_chaos_ckpt_{}.ckpt", std::process::id()));
    Checkpoint::capture(
        &model,
        &[&head],
        Some(Normalizer::identity(NUM_FEATURES)),
        vec![],
    )
    .expect("capture")
    .save(&path)
    .expect("save");

    let reg = ModelRegistry::new();
    let live = reg.load("m", &path).expect("clean load");

    for kind in [FaultKind::Corrupt, FaultKind::Truncate] {
        let guard = chaos::scoped(ChaosPlan::new(99).rule(Rule::new("core.checkpoint.read", kind)));
        let err = match reg.load("m", &path) {
            Err(e) => e,
            Ok(_) => panic!("{} damage must not load", kind.label()),
        };
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{}: damage is a typed parse failure, not a crash",
            kind.label()
        );
        let still = reg.get("m").expect("name stays registered");
        assert!(
            Arc::ptr_eq(&still, &live),
            "{}: failed hot-swap must keep the last good engine",
            kind.label()
        );
        let trace = guard.finish();
        assert_eq!(trace.len(), 1, "exactly one injection");
        assert_eq!(trace[0].site, "core.checkpoint.read");
        assert_eq!(trace[0].kind, kind.label());
    }

    // Chaos gone: the same file loads cleanly again.
    let swapped = reg.load("m", &path).expect("recovery load");
    assert!(!Arc::ptr_eq(&swapped, &live));
    std::fs::remove_file(path).ok();
}

/// Drive `n` requests through a batcher under a seeded panic/stall
/// plan. Returns `(ok, died, restarts, panic_events, full_trace)` plus
/// the per-request outcomes for output verification.
fn soak(
    engine: &Arc<InferenceEngine>,
    windows: &[Vec<f32>],
    workers: usize,
    seed: u64,
) -> (Vec<Option<f32>>, u64, Vec<ntt::chaos::ChaosEvent>) {
    let guard = chaos::scoped(
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
            // One request per claim: every request hits the panic/stall
            // sites exactly once, so the hit count — and therefore the
            // fired schedule — is identical at every worker count.
            max_batch: 1,
            workers,
            head: "delay",
            queue_cap: 0, // unbounded: this soak measures crash recovery
            max_restarts: 1_000,
            deadline: None,
        },
    );
    let tickets: Vec<Ticket> = windows
        .iter()
        .map(|w| batcher.submit(w.clone(), None).expect("admission"))
        .collect();
    let outcomes: Vec<Option<f32>> = tickets
        .into_iter()
        .map(|t| match t.wait() {
            Ok(v) => Some(v),
            Err(ServeError::WorkerDied) => None,
            Err(e) => panic!("soak saw an unexpected error: {e}"),
        })
        .collect();
    // A worker counts a caught panic before it fails that batch's
    // ticket, so the stats are final once every ticket has resolved.
    let stats = batcher.stats();
    assert!(batcher.is_healthy(), "budget was ample; no terminal poison");
    let served = outcomes.iter().flatten().count();
    assert_eq!(stats.windows as usize, served, "stats track the survivors");
    drop(batcher);
    (outcomes, stats.restarts, guard.finish())
}

#[test]
fn serve_soak_recovers_from_periodic_worker_panics_with_full_accounting() {
    // The headline robustness claim: >=500 concurrent requests against
    // a pool whose batches panic and stall on a seeded schedule. No
    // caller hangs (the test completing is the proof), every request
    // resolves exactly once (completed + failed == submitted), workers
    // recover (restart counter > 0), survivors get
    // bit-exact answers, and the fault trace + survivor outputs replay
    // identically at 1 and 4 workers.
    const N: usize = 600;
    let engine = tiny_engine(31);
    let row = engine.seq_len() * NUM_FEATURES;
    let all = Tensor::randn(&[N, engine.seq_len(), NUM_FEATURES], 7);
    let windows: Vec<Vec<f32>> = (0..N)
        .map(|i| all.data()[i * row..(i + 1) * row].to_vec())
        .collect();
    // Serial reference for survivor verification.
    let expect: Vec<f32> = windows
        .iter()
        .map(|w| {
            let x = Tensor::from_vec(w.clone(), &[1, engine.seq_len(), NUM_FEATURES]);
            engine.predict("delay", &x, None).item()
        })
        .collect();

    let (out1, restarts1, trace1) = soak(&engine, &windows, 1, 2026);
    let (out4, restarts4, trace4) = soak(&engine, &windows, 4, 2026);

    for (outcomes, restarts, trace) in [(&out1, restarts1, &trace1), (&out4, restarts4, &trace4)] {
        let served = outcomes.iter().flatten().count();
        let died = outcomes.len() - served;
        // Full accounting: every submission resolved exactly once.
        assert_eq!(served + died, N);
        assert!(died > 0, "a 1/16 panic rate over {N} claims must fire");
        assert!(served > N / 2, "most requests survive");
        // Each injected panic was caught and counted on the worker that
        // ran it; the restart counter is the panic count exactly.
        let panics = trace.iter().filter(|e| e.kind == "panic").count();
        assert_eq!(restarts as usize, panics, "one restart per panic");
        assert_eq!(died, panics, "max_batch=1: one ticket dies per panic");
        // Survivors got the right answer, to the bit.
        for (i, v) in outcomes.iter().enumerate() {
            if let Some(v) = v {
                assert_eq!(
                    v.to_bits(),
                    expect[i].to_bits(),
                    "survivor {i} got a wrong answer under chaos"
                );
            }
        }
    }

    // Same seed, same schedule: the sorted fault trace is identical at
    // 1 and 4 workers (hit counts are fixed at one per request), and
    // with it the injected-fault totals.
    assert!(!trace1.is_empty());
    assert_eq!(trace1, trace4, "fault trace replays across worker counts");
    assert_eq!(restarts1, restarts4);
}

#[test]
fn soak_sheds_load_with_typed_errors_under_a_bounded_queue() {
    // Overload half of the soak story: a stalled pool with a bounded
    // queue sheds with `Overloaded` instead of queueing unboundedly,
    // and everything it *did* accept still resolves.
    let engine = tiny_engine(37);
    let row = engine.seq_len() * NUM_FEATURES;
    let guard = chaos::scoped(ChaosPlan::new(5).rule(
        // Every claim stalls: the queue can only back up.
        Rule::new("serve.worker.stall", FaultKind::Delay { millis: 5 }).rate(1, 1),
    ));
    let batcher = Batcher::new(
        Arc::clone(&engine),
        BatchConfig {
            max_batch: 1,
            workers: 1,
            head: "delay",
            queue_cap: 8,
            max_restarts: 0,
            deadline: None,
        },
    );
    let mut accepted: Vec<Ticket> = Vec::new();
    let mut shed = 0usize;
    for i in 0..200usize {
        match batcher.submit(windows_row(&engine, row, i), None) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Overloaded { cap }) => {
                assert_eq!(cap, 8);
                shed += 1;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(shed > 0, "200 submits against an 8-deep stalled queue shed");
    assert_eq!(batcher.stats().shed as usize, shed);
    // Every accepted ticket still resolves (no worker faults here).
    for t in accepted {
        assert!(t.wait().expect("accepted requests are served").is_finite());
    }
    drop(batcher);
    drop(guard);
}

fn windows_row(engine: &InferenceEngine, row: usize, i: usize) -> Vec<f32> {
    let _ = engine;
    vec![(i % 7) as f32 * 0.125; row]
}
