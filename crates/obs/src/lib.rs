//! # ntt-obs
//!
//! Zero-overhead observability for the NTT workspace: a process-global,
//! lock-light metrics registry with monotonic [`Counter`]s,
//! last-write-wins [`Gauge`]s, and fixed-bucket log-scale
//! [`Histogram`]s; RAII [`span!`] timers that feed those histograms;
//! and snapshot export as JSON ([`MetricsSnapshot::to_json`]) or a flat
//! Prometheus-style text exposition
//! ([`MetricsSnapshot::to_prometheus`]).
//!
//! ```
//! ntt_obs::set_enabled(true);
//! ntt_obs::counter!("demo.requests").inc();
//! ntt_obs::gauge!("demo.queue_depth").set(3.0);
//! {
//!     let _timer = ntt_obs::span!("demo.request_ns");
//!     // ... handle the request ...
//! }
//! let snap = ntt_obs::snapshot();
//! assert_eq!(snap.counter("demo.requests"), Some(1));
//! assert!(snap.histogram("demo.request_ns").unwrap().p99() >= 0.0);
//! println!("{}", snap.to_prometheus());
//! ```
//!
//! # Hot-path cost and the kill switch
//!
//! Every hot-path operation is a relaxed atomic: counters and gauges
//! are one `fetch_add`/`store`, a histogram record is two `fetch_add`s
//! into fixed slots (no allocation, no lock, no sorting — quantiles are
//! derived later from the snapshot). Registration by name is the only
//! locked path and the [`counter!`]/[`gauge!`]/[`histogram!`]/[`span!`]
//! macros cache it in a per-call-site static, so steady state never
//! touches the registry lock.
//!
//! Setting `NTT_OBS=off` (or `0`/`false`) in the environment flips the
//! process-wide kill switch: every metric op and every span compiles
//! down to **one relaxed load and a branch** — the clock is never read,
//! no atomic is written (`tests/kill_switch.rs` holds a disabled
//! counter and span under 10 ns each). [`set_enabled`] overrides the
//! environment at runtime.
//!
//! # Determinism
//!
//! Observability never feeds numerics: metrics read clocks and counts
//! but nothing in the workspace reads a metric back into a computation,
//! so enabling/disabling observability cannot change a loss, a
//! gradient, or a served prediction (the serving and training test
//! suites assert bit-identical results with metrics on and off).
//! Deterministic metrics — counters of logical events, gauges of
//! computed values — are themselves bit-stable across thread counts;
//! only wall-clock histograms vary run to run.

mod clock;
mod export;
mod histogram;
mod metric;
mod registry;
mod span;

pub use clock::Stopwatch;
pub use histogram::{bounds_of, bucket_of, BucketCount, Histogram, HistogramSnapshot, BUCKETS};
pub use metric::{Counter, Gauge};
pub use registry::{counter, gauge, histogram, snapshot, MetricsSnapshot};
pub use span::SpanTimer;

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = uninitialized, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether observability is live. The hot-path guard: one relaxed load
/// and a compare. First call resolves the `NTT_OBS` environment knob.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = enabled_from_env(std::env::var("NTT_OBS").ok().as_deref());
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// The pure parse of the `NTT_OBS` knob (separated so tests never have
/// to mutate the process environment): metrics default **on**; `off`,
/// `0`, or `false` (any case) disables them.
pub fn enabled_from_env(raw: Option<&str>) -> bool {
    !matches!(
        raw.map(str::trim).map(str::to_ascii_lowercase).as_deref(),
        Some("off" | "0" | "false")
    )
}

/// Override the kill switch at runtime (wins over `NTT_OBS`), e.g. to
/// measure enabled and disabled cost in one process.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parse_defaults_on() {
        assert!(enabled_from_env(None));
        assert!(enabled_from_env(Some("on")));
        assert!(enabled_from_env(Some("1")));
        assert!(enabled_from_env(Some("weird")));
        assert!(!enabled_from_env(Some("off")));
        assert!(!enabled_from_env(Some("OFF")));
        assert!(!enabled_from_env(Some("0")));
        assert!(!enabled_from_env(Some("false")));
        assert!(!enabled_from_env(Some(" off ")));
    }
}
