//! RAII span timers: scope a block, feed a latency histogram.
//!
//! The [`crate::span!`] macro is the intended entry point:
//!
//! ```
//! ntt_obs::set_enabled(true);
//! {
//!     let _step = ntt_obs::span!("doc.train_step_ns");
//!     // ... work ...
//! } // drop records the elapsed nanoseconds
//! assert_eq!(ntt_obs::snapshot().histogram("doc.train_step_ns").unwrap().count, 1);
//! ```
//!
//! While the kill switch is off ([`crate::enabled`] is `false`) a span
//! is one relaxed atomic load and a `None`: the clock is never read and
//! the histogram is never touched, so instrumented-but-disabled code
//! runs at uninstrumented speed.

use crate::histogram::Histogram;
use std::time::Instant;

/// Guard returned by [`crate::span!`]; records on drop.
#[must_use = "a span records when dropped — binding it to _ discards the timing immediately"]
pub struct SpanTimer {
    inner: Option<(&'static Histogram, Instant)>,
}

impl SpanTimer {
    /// Start a span over `hist`. `get` is only invoked (and the clock
    /// only read) when observability is enabled.
    #[inline]
    pub fn start_with(get: impl FnOnce() -> &'static Histogram) -> SpanTimer {
        if crate::enabled() {
            SpanTimer {
                inner: Some((get(), Instant::now())),
            }
        } else {
            SpanTimer { inner: None }
        }
    }

    /// A span that records nothing (the disabled form, for tests).
    pub fn disabled() -> SpanTimer {
        SpanTimer { inner: None }
    }

    /// True when this span will record on drop.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((hist, t0)) = self.inner.take() {
            // `record_always`: the span started while enabled; flipping
            // the switch mid-span must not lose the measurement.
            hist.record_always(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// Time a scope into the named global latency histogram. The registry
/// lookup happens once per call site (cached in a static), so the
/// steady-state cost is the kill-switch branch plus two clock reads —
/// or the branch alone when disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __NTT_OBS_SPAN_HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::SpanTimer::start_with(|| {
            &**__NTT_OBS_SPAN_HIST.get_or_init(|| $crate::histogram($name))
        })
    }};
}

/// The named global counter, looked up once per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __NTT_OBS_COUNTER: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**__NTT_OBS_COUNTER.get_or_init(|| $crate::counter($name))
    }};
}

/// The named global gauge, looked up once per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __NTT_OBS_GAUGE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**__NTT_OBS_GAUGE.get_or_init(|| $crate::gauge($name))
    }};
}

/// The named global histogram, looked up once per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __NTT_OBS_HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**__NTT_OBS_HIST.get_or_init(|| $crate::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_records_elapsed_time() {
        crate::set_enabled(true);
        let before = crate::snapshot()
            .histogram("span.test_ns")
            .map_or(0, |h| h.count);
        {
            let s = crate::span!("span.test_ns");
            assert!(s.is_recording());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let h = crate::snapshot();
        let h = h.histogram("span.test_ns").expect("registered by span!");
        assert_eq!(h.count, before + 1);
        // At least 2ms elapsed; bucket midpoints are within 12.5%.
        assert!(h.quantile(1.0) >= 1.5e6, "p100 {} ns", h.quantile(1.0));
    }

    #[test]
    fn macros_cache_one_handle_per_site() {
        crate::set_enabled(true);
        let c1 = crate::counter!("span.test.site") as *const _;
        let c2 = crate::counter!("span.test.site") as *const _;
        // Two *sites* but one registered metric: both point at the same
        // counter through the registry.
        crate::counter!("span.test.site").inc();
        assert_eq!(crate::snapshot().counter("span.test.site"), Some(1));
        let _ = (c1, c2);
    }
}
