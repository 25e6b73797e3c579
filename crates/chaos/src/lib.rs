//! # ntt-chaos
//!
//! Deterministic fault injection for the NTT workspace: seed-driven
//! schedules of worker panics, injected latency, read corruption, and
//! queue stalls, behind a kill switch that compiles every call site
//! down to **one relaxed load** when chaos is off (the same discipline
//! as `ntt-obs`'s `NTT_OBS` switch).
//!
//! The plane exists so the serving stack's recovery paths — panicked
//! batches, load shedding, checkpoint last-good retention, shard retry
//! — are exercised by *replayable* failures: every injection decision
//! is a pure function of `(plan seed, site, key)`, never of the clock
//! or ambient entropy, so a chaos run reproduces from its seed alone
//! and passes `ntt-lint`'s no-wall-clock / no-entropy rules.
//!
//! ```
//! use ntt_chaos::{ChaosPlan, FaultKind, Rule};
//!
//! // Every shard whose (seed, site, key) hash says so fails — twice
//! // out of three keys here — and the trace records each injection.
//! let guard = ntt_chaos::scoped(
//!     ChaosPlan::new(42).rule(Rule::new("demo.step", FaultKind::Fail).rate(2, 3)),
//! );
//! let failed: Vec<u64> = (0..12u64)
//!     .filter(|&k| ntt_chaos::should_fail_keyed("demo.step", k))
//!     .collect();
//! assert!(!failed.is_empty());
//! let trace = guard.finish();
//! assert_eq!(trace.len(), failed.len());
//! ```
//!
//! # Sites
//!
//! A *site* is a stable string naming one instrumented failure point
//! (`serve.worker.panic`, `core.checkpoint.read`, `fleet.shard`, ...).
//! Call sites use the class-specific helpers — [`maybe_panic`],
//! [`maybe_delay`], [`should_fail`] / [`should_fail_keyed`],
//! [`mangle`] — which no-op unless an installed rule of the matching
//! fault class targets that site.
//!
//! # Activation
//!
//! Chaos is **off by default**. Enable it programmatically with
//! [`install`] / [`scoped`] (tests), or process-wide with the
//! `NTT_CHAOS` environment spec (see [`plan::parse_spec`]):
//!
//! ```text
//! NTT_CHAOS="seed=42,serve.worker.panic=panic:1/8,core.checkpoint.read=corrupt:1/2x3"
//! ```

mod plan;
pub mod trace;

pub use plan::{parse_spec, ChaosPlan, FaultKind, Rule};
pub use trace::{ChaosEvent, ChaosReport};

use plan::Class;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

/// 0 = uninitialized, 1 = enabled (a plan is installed), 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

fn slot() -> &'static RwLock<Option<Arc<ChaosPlan>>> {
    static PLAN: OnceLock<RwLock<Option<Arc<ChaosPlan>>>> = OnceLock::new();
    PLAN.get_or_init(|| RwLock::new(None))
}

/// Whether a fault plan is installed — the hot-path guard: one relaxed
/// load and a compare. The first call resolves the `NTT_CHAOS`
/// environment spec (a malformed spec panics loudly rather than
/// silently running without the faults the operator asked for).
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let raw = std::env::var("NTT_CHAOS").ok();
    match parse_spec(raw.as_deref()) {
        Ok(Some(plan)) => {
            install(plan);
            true
        }
        Ok(None) => {
            ENABLED.store(2, Ordering::Relaxed);
            false
        }
        Err(e) => panic!("invalid NTT_CHAOS spec: {e}"),
    }
}

/// Install `plan` process-wide and clear the fault trace. Prefer
/// [`scoped`] in tests — it serializes chaos users and uninstalls on
/// drop.
pub fn install(plan: ChaosPlan) {
    let mut slot = slot().write().unwrap_or_else(|e| e.into_inner());
    trace::clear();
    *slot = Some(Arc::new(plan));
    ENABLED.store(1, Ordering::Relaxed);
}

/// Remove any installed plan: every site compiles back down to the
/// one-relaxed-load fast path.
pub fn uninstall() {
    let mut slot = slot().write().unwrap_or_else(|e| e.into_inner());
    *slot = None;
    ENABLED.store(2, Ordering::Relaxed);
}

/// The installed plan, if any.
pub fn active() -> Option<Arc<ChaosPlan>> {
    if !enabled() {
        return None;
    }
    slot().read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Injection accounting for the installed plan (empty when chaos is
/// off).
pub fn report() -> ChaosReport {
    let mut out = ChaosReport::default();
    if let Some(plan) = active() {
        out.seed = plan.seed;
        for rule in &plan.rules {
            let entry = out
                .rules
                .entry((rule.site.clone(), rule.kind.label()))
                .or_insert((0, 0));
            entry.0 += rule.hit_count();
            entry.1 += rule.injected_count();
        }
    }
    out
}

/// Serializes chaos-driven tests (global plan, global trace) and
/// uninstalls on drop. Holding it is the license to mutate process-wide
/// chaos state.
pub struct ScopedChaos {
    _serial: MutexGuard<'static, ()>,
}

/// Install `plan` for the lifetime of the returned guard. Tests in one
/// binary serialize on an internal mutex, so concurrently scheduled
/// chaos tests never see each other's faults.
pub fn scoped(plan: ChaosPlan) -> ScopedChaos {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A panicking chaos test (some *expect* panics) poisons the mutex;
    // the serialization it provides is unaffected.
    let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(plan);
    ScopedChaos { _serial: serial }
}

impl ScopedChaos {
    /// End the scope early and return the sorted fault trace.
    pub fn finish(self) -> Vec<ChaosEvent> {
        let out = trace::take();
        drop(self);
        out
    }
}

impl Drop for ScopedChaos {
    fn drop(&mut self) {
        uninstall();
    }
}

#[inline]
fn decide(site: &str, key: Option<u64>, class: Class) -> Option<FaultKind> {
    if !enabled() {
        return None;
    }
    decide_slow(site, key, class)
}

#[cold]
fn decide_slow(site: &str, key: Option<u64>, class: Class) -> Option<FaultKind> {
    let plan = slot().read().unwrap_or_else(|e| e.into_inner()).clone()?;
    plan.decide(site, key, class)
}

/// Panic here if an installed `Panic` rule targets `site` and its
/// schedule fires on this hit. One relaxed load when chaos is off.
#[inline]
pub fn maybe_panic(site: &str) {
    if decide(site, None, Class::Panic).is_some() {
        panic!("chaos: injected panic at {site}");
    }
}

/// Sleep here if an installed `Delay` rule targets `site` and fires
/// (injected latency / queue stall). Sleeping reads no clock, so the
/// fault plane stays inside the lint rules.
#[inline]
pub fn maybe_delay(site: &str) {
    if let Some(FaultKind::Delay { millis }) = decide(site, None, Class::Delay) {
        std::thread::sleep(std::time::Duration::from_millis(millis));
    }
}

/// True if an installed `Fail` rule targets `site` and fires on this
/// hit (hit-counter keyed).
#[inline]
pub fn should_fail(site: &str) -> bool {
    decide(site, None, Class::Fail).is_some()
}

/// True if an installed `Fail` rule targets `site` and fires for
/// `key`. The decision is a pure function of `(seed, site, key)` —
/// use this wherever the caller owns a deterministic key (shard index,
/// attempt number) so the fault schedule is thread-count invariant.
#[inline]
pub fn should_fail_keyed(site: &str, key: u64) -> bool {
    decide(site, Some(key), Class::Fail).is_some()
}

/// Corrupt or truncate a just-read buffer if a `Corrupt`/`Truncate`
/// rule targets `site` and fires. Returns `true` when the buffer was
/// mangled. The flipped byte / cut point derive from the plan seed, so
/// the damage replays exactly.
#[inline]
pub fn mangle(site: &str, bytes: &mut Vec<u8>) -> bool {
    match decide(site, None, Class::Mangle) {
        Some(kind) => mangle_with(site, kind, bytes),
        None => false,
    }
}

#[cold]
fn mangle_with(site: &str, kind: FaultKind, bytes: &mut Vec<u8>) -> bool {
    if bytes.is_empty() {
        return false;
    }
    let plan = match active() {
        Some(p) => p,
        None => return false,
    };
    let mut s = plan.seed ^ plan::fnv1a(site.as_bytes()) ^ 0x6d61_6e67_6c65; // "mangle"
    let r = plan::splitmix64(&mut s);
    match kind {
        FaultKind::Corrupt => {
            let off = (r as usize) % bytes.len();
            // XOR with a nonzero pattern so the byte always changes.
            bytes[off] ^= 0x5A;
            true
        }
        FaultKind::Truncate => {
            // Keep a seed-chosen prefix strictly shorter than the file.
            let keep = (r as usize) % bytes.len();
            bytes.truncate(keep);
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_injects_nothing() {
        let _guard = scoped(ChaosPlan::new(1).rule(Rule::new("t.site", FaultKind::Fail)));
        uninstall();
        assert!(!enabled());
        assert!(!should_fail("t.site"));
        maybe_panic("t.site"); // must not panic
        maybe_delay("t.site");
        let mut buf = vec![1u8, 2, 3];
        assert!(!mangle("t.site", &mut buf));
        assert_eq!(buf, vec![1, 2, 3]);
        assert_eq!(report(), ChaosReport::default());
    }

    #[test]
    fn rules_only_fire_at_their_site_and_class() {
        let guard = scoped(ChaosPlan::new(2).rule(Rule::new("t.fail", FaultKind::Fail)));
        assert!(should_fail("t.fail"));
        assert!(!should_fail("t.other"), "wrong site never fires");
        maybe_panic("t.fail"); // a Fail rule must not drive a panic site
        let mut buf = vec![0u8; 8];
        assert!(!mangle("t.fail", &mut buf), "a Fail rule must not mangle");
        let trace = guard.finish();
        assert!(trace.iter().all(|e| e.site == "t.fail" && e.kind == "fail"));
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic at t.boom")]
    fn panic_rule_panics() {
        let _guard = scoped(ChaosPlan::new(3).rule(Rule::new("t.boom", FaultKind::Panic)));
        maybe_panic("t.boom");
    }

    #[test]
    fn keyed_schedule_replays_from_seed() {
        let run = || {
            let guard =
                scoped(ChaosPlan::new(77).rule(Rule::new("t.keyed", FaultKind::Fail).rate(1, 4)));
            let hits: Vec<u64> = (0..100u64)
                .filter(|&k| should_fail_keyed("t.keyed", k))
                .collect();
            (hits, guard.finish())
        };
        let (hits_a, trace_a) = run();
        let (hits_b, trace_b) = run();
        assert_eq!(hits_a, hits_b, "same seed, same faulted keys");
        assert_eq!(trace_a, trace_b, "same seed, same fault trace");
        assert!(!hits_a.is_empty() && hits_a.len() < 100);
        // And the trace records exactly the faulted keys.
        let keys: Vec<u64> = trace_a.iter().map(|e| e.key).collect();
        assert_eq!(keys, hits_a);
    }

    #[test]
    fn limit_caps_injections() {
        let guard = scoped(
            ChaosPlan::new(4).rule(Rule::new("t.capped", FaultKind::Fail).rate(1, 1).limit(3)),
        );
        let fired = (0..10).filter(|_| should_fail("t.capped")).count();
        assert_eq!(fired, 3, "always-fire rule limited to 3 injections");
        let rep = report();
        assert_eq!(rep.rules[&("t.capped".into(), "fail")], (10, 3));
        drop(guard);
    }

    #[test]
    fn mangle_corrupts_and_truncates_deterministically() {
        let pristine: Vec<u8> = (0..64u8).collect();
        let corrupt = |seed: u64| {
            let _g = scoped(ChaosPlan::new(seed).rule(Rule::new("t.read", FaultKind::Corrupt)));
            let mut b = pristine.clone();
            assert!(mangle("t.read", &mut b));
            b
        };
        let a = corrupt(5);
        assert_eq!(a, corrupt(5), "same seed, same damage");
        assert_eq!(a.len(), pristine.len());
        assert_eq!(
            a.iter().zip(&pristine).filter(|(x, y)| x != y).count(),
            1,
            "corrupt flips exactly one byte"
        );

        let _g = scoped(ChaosPlan::new(6).rule(Rule::new("t.read", FaultKind::Truncate)));
        let mut b = pristine.clone();
        assert!(mangle("t.read", &mut b));
        assert!(b.len() < pristine.len(), "truncate drops the tail");
        assert_eq!(b[..], pristine[..b.len()], "prefix survives intact");
    }

    #[test]
    fn env_spec_parse_is_the_install_path() {
        // The env hook itself is process-global (first `enabled()`
        // wins), so here we only pin that the parser output installs
        // and drives sites exactly like a hand-built plan.
        let plan = parse_spec(Some("seed=11,t.env=fail:1/2")).unwrap().unwrap();
        let guard = scoped(plan);
        let fired = (0..50u64)
            .filter(|&k| should_fail_keyed("t.env", k))
            .count();
        assert!(fired > 0 && fired < 50);
        let rep = report();
        assert_eq!(rep.seed, 11);
        assert_eq!(rep.injected_total(), fired as u64);
        drop(guard);
    }
}
