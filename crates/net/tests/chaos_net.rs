//! Chaos soak of the wire tier: seeded mid-request connection kills
//! (`net.conn.drop`) and slow-peer read stalls (`net.read.stall`)
//! threaded through a live loopback server. The contracts: every
//! dropped connection surfaces to the client as a typed transport
//! error (never a hang, never a wrong answer), the server keeps
//! serving fresh connections throughout, accounting is exact
//! (successes + drops == requests sent), and — because drop decisions
//! are keyed by the client-chosen request id — the chaos trace is a
//! pure function of the seed, byte-identical across server worker
//! counts. A held forward pass also pins what `shutdown` does to a
//! request in flight.

use ntt_chaos::{self as chaos, ChaosPlan, FaultKind, Rule};
use ntt_core::{Aggregation, DelayHead, Ntt, NttConfig};
use ntt_data::{Normalizer, NUM_FEATURES};
use ntt_net::{ErrorCode, NetClient, NetConfig, NetError, NetServer, Request};
use ntt_serve::{BatchConfig, InferenceEngine, ModelRegistry};
use ntt_tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

fn registry(seed: u64) -> Arc<ModelRegistry> {
    let cfg = NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 }, // seq 64
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        seed,
        ..NttConfig::default()
    };
    let heads: Vec<Box<dyn ntt_nn::Head>> = vec![Box::new(DelayHead::new(cfg.d_model, 1))];
    let engine =
        InferenceEngine::from_parts(Ntt::new(cfg), heads, Normalizer::identity(NUM_FEATURES));
    let r = Arc::new(ModelRegistry::new());
    r.insert("pretrain", engine);
    r
}

fn window(engine: &InferenceEngine, seed: u64) -> Vec<f32> {
    Tensor::randn(&[1, engine.seq_len(), NUM_FEATURES], seed)
        .data()
        .to_vec()
}

/// One soak run: a serial client sends `total` requests with *pinned*
/// ids 1..=total (pinned ids are what make the drop schedule a pure
/// function of the seed). On a transport error the connection is dead
/// by design — count the drop, reconnect, move on to the next id; the
/// dropped id is NOT retried, so the keyed decision fires exactly once
/// per id.
fn soak(workers: usize, total: u64) -> (u64, u64, Vec<chaos::ChaosEvent>) {
    let registry = registry(101);
    let engine = registry.get("pretrain").expect("registered");
    let expect = {
        let w = window(&engine, 5);
        let x = Tensor::from_vec(w, &[1, engine.seq_len(), NUM_FEATURES]);
        engine.predict("delay", &x, None).item()
    };
    let guard = chaos::scoped(
        ChaosPlan::new(97)
            // ~1 in 5 requests has its connection killed mid-request.
            .rule(Rule::new("net.conn.drop", FaultKind::Fail).rate(1, 5))
            // ~1 in 7 frame reads stalls 1ms between prefix and body.
            .rule(Rule::new("net.read.stall", FaultKind::Delay { millis: 1 }).rate(1, 7)),
    );
    let server = NetServer::bind_tcp(
        "127.0.0.1:0",
        Arc::clone(&registry),
        NetConfig {
            pool: BatchConfig {
                max_batch: 4,
                workers,
                ..BatchConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let w = window(&engine, 5);

    let mut client = NetClient::connect_tcp(addr).expect("connect");
    let (mut ok, mut dropped) = (0u64, 0u64);
    for id in 1..=total {
        let req = Request {
            id,
            model: "pretrain".into(),
            head: "delay".into(),
            deadline_micros: 0,
            aux: None,
            window: w.clone(),
        };
        match client.send(&req) {
            Ok(resp) => {
                let v = resp.result.unwrap_or_else(|e| {
                    panic!("request {id} got a server error under pure drop/stall chaos: {e}")
                });
                assert_eq!(
                    v.to_bits(),
                    expect.to_bits(),
                    "request {id}: chaos corrupted a successful answer"
                );
                ok += 1;
            }
            Err(NetError::Io(_)) => {
                // The seeded kill: connection died mid-request. The
                // server must still accept a replacement immediately.
                dropped += 1;
                client = NetClient::connect_tcp(addr).expect("reconnect after seeded drop");
            }
            Err(e) => panic!("request {id}: unexpected non-transport failure {e}"),
        }
    }
    // The server survived the whole schedule: a final fresh request on
    // a fresh connection still answers correctly.
    let mut fresh = NetClient::connect_tcp(addr).expect("fresh connection");
    let v = fresh
        .predict("pretrain", "delay", &w, None, None)
        .expect("server serves after the soak");
    assert_eq!(v.to_bits(), expect.to_bits());
    drop(server);
    (ok, dropped, guard.finish())
}

#[test]
fn seeded_connection_kills_are_typed_accounted_and_survivable() {
    const TOTAL: u64 = 120;
    let (ok, dropped, trace) = soak(1, TOTAL);
    // Exact accounting: every id either answered or died, once.
    assert_eq!(ok + dropped, TOTAL, "requests vanished or double-counted");
    assert!(
        dropped > 0,
        "a 1-in-5 drop rule never fired in {TOTAL} requests"
    );
    assert!(ok > 0, "everything died — the schedule should be ~1 in 5");
    // The trace recorded every drop the client observed.
    let drops_in_trace = trace.iter().filter(|e| e.site == "net.conn.drop").count() as u64;
    assert_eq!(
        drops_in_trace, dropped,
        "trace and client disagree on drops"
    );
    // Stalls fired too (delay faults slow the read path, nothing else).
    assert!(
        trace.iter().any(|e| e.site == "net.read.stall"),
        "a 1-in-7 stall rule never fired"
    );
}

#[test]
fn drop_schedule_is_invariant_across_worker_counts() {
    const TOTAL: u64 = 120;
    let (ok1, dropped1, trace1) = soak(1, TOTAL);
    let (ok4, dropped4, trace4) = soak(4, TOTAL);
    assert_eq!(ok1 + dropped1, TOTAL);
    assert_eq!(ok4 + dropped4, TOTAL);
    // Keyed by request id, the kill schedule must not care how many
    // batcher workers drain the queue.
    assert_eq!(dropped1, dropped4, "worker count changed the drop schedule");
    let drops = |t: &[chaos::ChaosEvent]| -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = t
            .iter()
            .filter(|e| e.site == "net.conn.drop")
            .map(|e| (e.site.clone(), e.key))
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        drops(&trace1),
        drops(&trace4),
        "replayed drop trace diverged across worker counts"
    );
}

/// `shutdown` ends only the read half of each connection: a request
/// held inside the forward pass still gets its bit-exact answer, and
/// the next request on that connection finds it closed.
#[test]
fn shutdown_answers_the_request_in_flight_then_closes_the_connection() {
    let registry = registry(107);
    let engine = registry.get("pretrain").expect("registered");
    let w = window(&engine, 11);
    let expect = {
        let x = Tensor::from_vec(w.clone(), &[1, engine.seq_len(), NUM_FEATURES]);
        engine.predict("delay", &x, None).item()
    };
    let server = NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&registry), NetConfig::default())
        .expect("bind");
    let mut client = NetClient::connect_tcp(server.tcp_addr().expect("addr")).expect("connect");
    // The delay only bounds how long `shutdown` may take to land once
    // the forward pass is held; when it lands does not depend on it.
    let guard = chaos::scoped(ChaosPlan::new(7).rule(Rule::new(
        "serve.predict.delay",
        FaultKind::Delay { millis: 500 },
    )));
    let (served, next) = std::thread::scope(|s| {
        s.spawn(|| {
            // Land once the request is held in the forward pass: the
            // server has read it, and has not yet answered it.
            while chaos::report().injected_total() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            server.shutdown();
        });
        let served = client.predict("pretrain", "delay", &w, None, None);
        (served, client.predict("pretrain", "delay", &w, None, None))
    });
    drop(guard);
    let served = served.expect("the request in flight is answered");
    assert_eq!(served.to_bits(), expect.to_bits());
    assert!(
        matches!(next, Err(NetError::Io(_))),
        "a request after shutdown must find the connection closed, got {next:?}"
    );
}

/// Typed shedding keeps working *under* chaos: with a deliberately
/// starved pool behind the wire and the drop/stall schedule active,
/// every request still resolves to exactly one of
/// ok / overloaded / deadline-exceeded / dropped.
#[test]
fn overload_accounting_stays_exact_under_chaos() {
    let registry = registry(103);
    let engine = registry.get("pretrain").expect("registered");
    let guard = chaos::scoped(
        ChaosPlan::new(131)
            .rule(Rule::new("net.conn.drop", FaultKind::Fail).rate(1, 9))
            .rule(Rule::new("serve.worker.stall", FaultKind::Delay { millis: 2 }).rate(1, 2)),
    );
    let server = NetServer::bind_tcp(
        "127.0.0.1:0",
        Arc::clone(&registry),
        NetConfig {
            pool: BatchConfig {
                max_batch: 1,
                workers: 1,
                queue_cap: 2,
                ..BatchConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let w = window(&engine, 9);

    const CONNS: usize = 4;
    const PER_CONN: u64 = 20;
    let tallies: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let w = w.clone();
                s.spawn(move || {
                    let mut client = NetClient::connect_tcp(addr).expect("connect");
                    let (mut ok, mut shed, mut dropped) = (0u64, 0u64, 0u64);
                    for i in 0..PER_CONN {
                        let req = Request {
                            // Ids partitioned per connection so the
                            // keyed schedule stays collision-free.
                            id: 1 + c as u64 * PER_CONN + i,
                            model: "pretrain".into(),
                            head: "delay".into(),
                            deadline_micros: 3_000,
                            aux: None,
                            window: w.clone(),
                        };
                        match client.send(&req) {
                            Ok(resp) => match resp.result {
                                Ok(_) => ok += 1,
                                Err(e) => match e.code {
                                    ErrorCode::Overloaded | ErrorCode::DeadlineExceeded => {
                                        shed += 1
                                    }
                                    other => {
                                        panic!("unexpected server error {other:?}: {e}")
                                    }
                                },
                            },
                            Err(NetError::Io(_)) => {
                                dropped += 1;
                                client = NetClient::connect_tcp(addr).expect("reconnect");
                            }
                            Err(e) => panic!("unexpected failure {e}"),
                        }
                    }
                    (ok, shed, dropped)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    drop(server);
    let _ = guard.finish();

    let ok: u64 = tallies.iter().map(|t| t.0).sum();
    let shed: u64 = tallies.iter().map(|t| t.1).sum();
    let dropped: u64 = tallies.iter().map(|t| t.2).sum();
    assert_eq!(
        ok + shed + dropped,
        CONNS as u64 * PER_CONN,
        "a request fell through the accounting under chaos"
    );
    assert!(ok > 0, "nothing was served under chaos");
}
