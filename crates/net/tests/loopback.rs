//! End-to-end loopback tests: a real `NetServer` on an ephemeral port,
//! real `NetClient`s, real threads. The core contract is the
//! acceptance bar from the serving tier's issue: predictions that
//! crossed the wire are **byte-identical** to calling
//! `InferenceEngine::predict` directly — TCP framing, routing, and
//! batcher coalescing add exactly zero numeric surface. On top of
//! that: exact overload accounting (every request is answered or
//! typed-shed, nothing vanishes), stable error codes for routing
//! misses, unix-socket parity, a pool template that could never serve
//! refused at bind, and a teardown that never waits on a quiet peer.

use ntt_core::{Aggregation, DelayHead, MctHead, Ntt, NttConfig};
use ntt_data::{Normalizer, NUM_FEATURES};
use ntt_net::{ErrorCode, NetClient, NetConfig, NetServer};
use ntt_serve::{BatchConfig, InferenceEngine, ModelRegistry};
use ntt_tensor::Tensor;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_engine(seed: u64) -> InferenceEngine {
    let cfg = NttConfig {
        aggregation: Aggregation::MultiScale { block: 1 }, // seq 64
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        seed,
        ..NttConfig::default()
    };
    let heads: Vec<Box<dyn ntt_nn::Head>> = vec![
        Box::new(DelayHead::new(cfg.d_model, 1)),
        Box::new(MctHead::new(cfg.d_model, 2)),
    ];
    InferenceEngine::from_parts(Ntt::new(cfg), heads, Normalizer::identity(NUM_FEATURES))
}

fn registry_with(models: &[(&str, u64)]) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    for &(name, seed) in models {
        registry.insert(name, tiny_engine(seed));
    }
    registry
}

/// Deterministic per-request windows: row `i` of a fixed random batch.
fn windows(engine: &InferenceEngine, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let all = Tensor::randn(&[n, engine.seq_len(), NUM_FEATURES], seed);
    let row = engine.seq_len() * NUM_FEATURES;
    (0..n)
        .map(|i| all.data()[i * row..(i + 1) * row].to_vec())
        .collect()
}

fn direct_prediction(engine: &InferenceEngine, head: &str, window: &[f32]) -> f32 {
    let x = Tensor::from_vec(window.to_vec(), &[1, engine.seq_len(), NUM_FEATURES]);
    engine.predict(head, &x, None).item()
}

#[test]
fn eight_connections_are_byte_identical_to_direct_predict() {
    let registry = registry_with(&[("pretrain", 11), ("finetune", 12)]);
    let server = NetServer::bind_tcp(
        "127.0.0.1:0",
        Arc::clone(&registry),
        NetConfig {
            pool: BatchConfig {
                max_batch: 8,
                workers: 2,
                ..BatchConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let addr = server.tcp_addr().expect("tcp server has an address");

    // 8 client threads, each its own connection, each alternating
    // between the two models so routing and pool creation race.
    const CONNS: usize = 8;
    const PER_CONN: usize = 10;
    let results: Vec<Vec<(String, usize, f32)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let registry = &registry;
                s.spawn(move || {
                    let model = if c % 2 == 0 { "pretrain" } else { "finetune" };
                    let engine = registry.get(model).expect("model registered");
                    let wins = windows(&engine, PER_CONN, 0x100 + c as u64);
                    let mut client = NetClient::connect_tcp(addr).expect("connect");
                    wins.iter()
                        .enumerate()
                        .map(|(i, w)| {
                            let v = client
                                .predict(model, "delay", w, None, None)
                                .expect("served prediction");
                            (model.to_string(), i, v)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Byte-identical to the in-process engine, request by request.
    for (c, per_conn) in results.iter().enumerate() {
        let model = if c % 2 == 0 { "pretrain" } else { "finetune" };
        let engine = registry.get(model).expect("model registered");
        let wins = windows(&engine, PER_CONN, 0x100 + c as u64);
        assert_eq!(per_conn.len(), PER_CONN);
        for (got_model, i, served) in per_conn {
            assert_eq!(got_model, model);
            let direct = direct_prediction(&engine, "delay", &wins[*i]);
            assert_eq!(
                served.to_bits(),
                direct.to_bits(),
                "conn {c} window {i}: wire prediction diverged from direct predict"
            );
        }
    }
    drop(server);
}

#[test]
fn overload_and_deadline_shed_with_exact_accounting() {
    let registry = registry_with(&[("pretrain", 21)]);
    // A deliberately tiny pool: 1 worker, singleton batches, 4-deep
    // queue — so 8 connections re-submitting as fast as they can *must*
    // shed, and short-deadline requests *must* expire in queue.
    let server = NetServer::bind_tcp(
        "127.0.0.1:0",
        Arc::clone(&registry),
        NetConfig {
            pool: BatchConfig {
                max_batch: 1,
                workers: 1,
                queue_cap: 4,
                ..BatchConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let engine = registry.get("pretrain").expect("registered");

    const CONNS: usize = 8;
    const PER_CONN: usize = 25;
    let tallies: Vec<(usize, usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let engine = Arc::clone(&engine);
                s.spawn(move || {
                    let wins = windows(&engine, 4, 0x900 + c as u64);
                    let mut client = NetClient::connect_tcp(addr).expect("connect");
                    let (mut ok, mut overloaded, mut deadline) = (0usize, 0usize, 0usize);
                    for i in 0..PER_CONN {
                        // Odd requests carry a deadline far below the
                        // model's forward-pass time, so any queueing at
                        // all expires them.
                        let d = (i % 2 == 1).then(|| Duration::from_micros(200));
                        match client.predict("pretrain", "delay", &wins[i % 4], None, d) {
                            Ok(_) => ok += 1,
                            Err(e) => match e.code() {
                                Some(ErrorCode::Overloaded) => overloaded += 1,
                                Some(ErrorCode::DeadlineExceeded) => deadline += 1,
                                other => panic!("unexpected failure {other:?}: {e}"),
                            },
                        }
                    }
                    (ok, overloaded, deadline)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok: usize = tallies.iter().map(|t| t.0).sum();
    let overloaded: usize = tallies.iter().map(|t| t.1).sum();
    let deadline: usize = tallies.iter().map(|t| t.2).sum();
    // Exact accounting: every request sent got exactly one answer, and
    // every answer was ok / overloaded / deadline-exceeded.
    assert_eq!(
        ok + overloaded + deadline,
        CONNS * PER_CONN,
        "requests vanished or were double-counted"
    );
    assert!(ok > 0, "nothing succeeded — the pool never served");
    assert!(
        overloaded + deadline > 0,
        "an 8-way hammer against a 4-deep queue never shed"
    );
    drop(server);
}

#[test]
fn routing_misses_return_stable_codes() {
    let registry = registry_with(&[("pretrain", 31)]);
    let server = NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&registry), NetConfig::default())
        .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let engine = registry.get("pretrain").expect("registered");
    let w = windows(&engine, 1, 7).remove(0);
    let mut client = NetClient::connect_tcp(addr).expect("connect");

    let e = client
        .predict("nope", "delay", &w, None, None)
        .expect_err("unknown model must fail");
    assert_eq!(e.code(), Some(ErrorCode::UnknownModel));
    assert!(
        e.to_string().contains("pretrain"),
        "the error names what IS registered: {e}"
    );

    let e = client
        .predict("pretrain", "nope", &w, None, None)
        .expect_err("unknown head must fail");
    assert_eq!(e.code(), Some(ErrorCode::UnknownHead));

    let e = client
        .predict("pretrain", "delay", &w[..10], None, None)
        .expect_err("short window must fail");
    assert_eq!(e.code(), Some(ErrorCode::WindowLength));

    let e = client
        .predict("pretrain", "delay", &w, Some(1.0), None)
        .expect_err("delay head takes no aux");
    assert_eq!(e.code(), Some(ErrorCode::AuxMismatch));

    // The connection survives typed errors: a good request still works.
    let served = client
        .predict("pretrain", "delay", &w, None, None)
        .expect("good request after typed errors");
    assert_eq!(
        served.to_bits(),
        direct_prediction(&engine, "delay", &w).to_bits()
    );
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_identically_to_tcp() {
    let registry = registry_with(&[("pretrain", 41)]);
    let path = std::env::temp_dir().join(format!("ntt_net_test_{}.sock", std::process::id()));
    let server = NetServer::bind_unix(&path, Arc::clone(&registry), NetConfig::default())
        .expect("bind unix");
    let engine = registry.get("pretrain").expect("registered");
    let wins = windows(&engine, 4, 51);
    let mut client = NetClient::connect_unix(&path).expect("connect unix");
    for w in &wins {
        let served = client
            .predict("pretrain", "delay", w, None, None)
            .expect("unix prediction");
        assert_eq!(
            served.to_bits(),
            direct_prediction(&engine, "delay", w).to_bits()
        );
    }
    drop(server);
    assert!(!path.exists(), "socket file must be removed on server drop");
}

/// A second bind on a live server's path fails instead of unlinking
/// it, so the first server keeps serving and its drop still reaches its
/// own accept loop. A stale file, which nothing accepts on, is replaced.
#[cfg(unix)]
#[test]
fn binding_a_live_unix_path_fails_and_a_stale_one_is_replaced() {
    let registry = registry_with(&[("pretrain", 43)]);
    let path = std::env::temp_dir().join(format!("ntt_net_twice_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    drop(std::os::unix::net::UnixListener::bind(&path).expect("leave a stale socket file"));
    let first = NetServer::bind_unix(&path, Arc::clone(&registry), NetConfig::default())
        .expect("a stale socket file is replaced");
    let second = NetServer::bind_unix(&path, Arc::clone(&registry), NetConfig::default());
    assert_eq!(
        second.err().map(|e| e.kind()),
        Some(std::io::ErrorKind::AddrInUse),
        "a second bind must not take over a live server's path"
    );
    let engine = registry.get("pretrain").expect("registered");
    let w = windows(&engine, 1, 53).remove(0);
    let served = NetClient::connect_unix(&path)
        .expect("connect to the first server")
        .predict("pretrain", "delay", &w, None, None)
        .expect("the first server still serves");
    assert_eq!(
        served.to_bits(),
        direct_prediction(&engine, "delay", &w).to_bits()
    );
    let t = Instant::now();
    drop(first);
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "drop took {:?}",
        t.elapsed()
    );
    assert!(!path.exists(), "socket file must be removed on server drop");
}

/// With its socket file gone, no wake-up reaches the accept loop: the
/// drop gives up on that thread after a bounded wait instead of hanging.
#[cfg(unix)]
#[test]
fn dropping_a_unix_server_whose_socket_file_is_gone_still_returns() {
    let registry = registry_with(&[("pretrain", 47)]);
    let path = std::env::temp_dir().join(format!("ntt_net_gone_{}.sock", std::process::id()));
    let server = NetServer::bind_unix(&path, registry, NetConfig::default()).expect("bind unix");
    std::fs::remove_file(&path).expect("remove the socket file");
    let t = Instant::now();
    drop(server);
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "drop took {:?}",
        t.elapsed()
    );
}

#[test]
fn connection_cap_sheds_with_a_typed_frame() {
    let registry = registry_with(&[("pretrain", 61)]);
    let server = NetServer::bind_tcp(
        "127.0.0.1:0",
        Arc::clone(&registry),
        NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let engine = registry.get("pretrain").expect("registered");
    let w = windows(&engine, 1, 71).remove(0);

    // First connection occupies the only slot (proven live by a
    // request); the second must receive one Overloaded frame.
    let mut first = NetClient::connect_tcp(addr).expect("connect first");
    first
        .predict("pretrain", "delay", &w, None, None)
        .expect("first connection serves");
    // The overflow peer may need a beat: the accept loop sheds only
    // once the first connection's thread is counted.
    let mut last_err = None;
    for _ in 0..50 {
        let mut second = NetClient::connect_tcp(addr).expect("connect second");
        match second.predict("pretrain", "delay", &w, None, None) {
            Err(e) => {
                if e.code() == Some(ErrorCode::Overloaded) {
                    last_err = Some(e);
                    break;
                }
                // Io error (connection closed before the shed frame
                // arrived) — retry; the cap itself is what we assert.
                last_err = Some(e);
            }
            Ok(_) => {
                // The slot freed (first conn thread not yet counted);
                // keep hammering.
                last_err = None;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let e = last_err.expect("overflow connection never rejected");
    assert_eq!(
        e.code(),
        Some(ErrorCode::Overloaded),
        "overflow connection got {e} instead of a typed Overloaded frame"
    );
    drop(first);
    drop(server);
}

#[test]
fn dropping_the_server_never_waits_on_a_silent_or_half_sent_peer() {
    let registry = registry_with(&[("pretrain", 91)]);
    let server = NetServer::bind_tcp("127.0.0.1:0", Arc::clone(&registry), NetConfig::default())
        .expect("bind");
    let addr = server.tcp_addr().expect("addr");
    let engine = registry.get("pretrain").expect("registered");
    let w = windows(&engine, 1, 93).remove(0);
    // A peer that announces a 100-byte body and never sends it: its
    // connection thread blocks mid-frame.
    let mut half_sent = TcpStream::connect(addr).expect("connect half-sent");
    half_sent
        .write_all(&100u32.to_le_bytes())
        .expect("write prefix");
    // A peer served once that then goes quiet. Connections are accepted
    // in order, so once it has its answer both connections are served.
    let mut silent = NetClient::connect_tcp(addr).expect("connect silent");
    silent
        .predict("pretrain", "delay", &w, None, None)
        .expect("served before going quiet");
    let t = Instant::now();
    drop(server);
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "drop waited {:?} on quiet peers",
        t.elapsed()
    );
    drop((half_sent, silent));
}

#[test]
fn unservable_pool_template_fails_bind_instead_of_a_connection_thread() {
    // `Batcher::new` asserts both fields; left to the first request,
    // that assert fires on a connection thread holding the pools lock.
    // The check runs before the server spawns anything.
    for (field, max_batch, workers) in [("max_batch", 0, 1), ("workers", 1, 0)] {
        let cfg = NetConfig {
            pool: BatchConfig {
                max_batch,
                workers,
                ..BatchConfig::default()
            },
            ..NetConfig::default()
        };
        let e = NetServer::bind_tcp("127.0.0.1:0", registry_with(&[("pretrain", 81)]), cfg)
            .err()
            .unwrap_or_else(|| panic!("{field}: 0 was accepted"));
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
        assert!(e.to_string().contains(field), "{e} does not name {field}");
    }
}
