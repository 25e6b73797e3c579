//! Kill-switch semantics, isolated in their own test process: these
//! tests flip the process-global switch, which would race with the
//! in-crate unit tests if they shared a binary.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Tests here toggle global state; serialize them.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn disabled_metrics_record_nothing() {
    let _g = lock();
    ntt_obs::set_enabled(false);
    let c = ntt_obs::counter("kill.counter");
    let g = ntt_obs::gauge("kill.gauge");
    let h = ntt_obs::histogram("kill.hist");
    c.inc();
    c.add(10);
    g.set(5.0);
    h.record(123);
    {
        let s = ntt_obs::span!("kill.span_ns");
        assert!(!s.is_recording(), "span must not arm while disabled");
    }
    assert_eq!(c.get(), 0, "disabled counter must stay 0");
    assert_eq!(g.get(), 0.0, "disabled gauge must stay 0");
    let snap = ntt_obs::snapshot();
    assert_eq!(snap.histogram("kill.hist").unwrap().count, 0);
    assert_eq!(snap.histogram("kill.span_ns").map_or(0, |h| h.count), 0);

    // Flip back on: the same handles come alive.
    ntt_obs::set_enabled(true);
    c.inc();
    g.set(2.5);
    h.record(7);
    {
        let _s = ntt_obs::span!("kill.span_ns");
    }
    assert_eq!(c.get(), 1);
    assert_eq!(g.get(), 2.5);
    let snap = ntt_obs::snapshot();
    assert_eq!(snap.histogram("kill.hist").unwrap().count, 1);
    assert_eq!(snap.histogram("kill.span_ns").unwrap().count, 1);
}

/// Best of five mean ns per call of `f`, each over 2,000,000 calls.
fn best_ns_per_op(mut f: impl FnMut()) -> f64 {
    const ITERS: u32 = 2_000_000;
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..ITERS {
                f();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(ITERS)
        })
        .fold(f64::INFINITY, f64::min)
}

/// "Disappears when off": a disabled counter or span is a relaxed load
/// and a branch. 10 ns is an order of magnitude above that cost, so the
/// bound survives a busy host and still catches a lock, a clock read or
/// a registry lookup on the disabled path.
#[test]
fn disabled_counter_and_span_cost_under_10ns() {
    let _g = lock();
    // Register both call sites while enabled, so the loops below time
    // the steady state, not the first lookup.
    ntt_obs::set_enabled(true);
    ntt_obs::counter!("kill.cost.counter").inc();
    drop(ntt_obs::span!("kill.cost.span_ns"));
    ntt_obs::set_enabled(false);
    let counter = best_ns_per_op(|| black_box(ntt_obs::counter!("kill.cost.counter")).inc());
    // Immediate drop is the point: start and record are the full cost.
    let span = best_ns_per_op(|| drop(black_box(ntt_obs::span!("kill.cost.span_ns"))));
    ntt_obs::set_enabled(true);
    assert!(
        counter < 10.0,
        "disabled counter costs {counter:.2} ns/op: the kill switch is no longer cheap"
    );
    assert!(
        span < 10.0,
        "disabled span costs {span:.2} ns/op: it must not read the clock"
    );
}

#[test]
fn disabled_snapshot_and_export_still_work() {
    let _g = lock();
    ntt_obs::set_enabled(false);
    ntt_obs::counter("kill.export.counter");
    // Snapshots and exports are cold-path reads; the kill switch only
    // silences *recording*.
    let snap = ntt_obs::snapshot();
    assert_eq!(snap.counter("kill.export.counter"), Some(0));
    assert!(snap.to_json().contains("kill.export.counter"));
    assert!(snap.to_prometheus().contains("kill_export_counter 0"));
    ntt_obs::set_enabled(true);
}

#[test]
fn span_armed_before_disable_still_records() {
    let _g = lock();
    ntt_obs::set_enabled(true);
    let before = ntt_obs::snapshot()
        .histogram("kill.midflight_ns")
        .map_or(0, |h| h.count);
    {
        let _s = ntt_obs::span!("kill.midflight_ns");
        // The switch flips while the span is open: the measurement that
        // already started must not be lost.
        ntt_obs::set_enabled(false);
    }
    ntt_obs::set_enabled(true);
    let after = ntt_obs::snapshot()
        .histogram("kill.midflight_ns")
        .unwrap()
        .count;
    assert_eq!(after, before + 1);
}
