//! The fault trace: every injected fault, replayable and comparable.
//!
//! Chaos tests assert determinism by comparing traces: the same plan
//! seed must inject the same faults. Because keyless sites hand out hit
//! indices in arrival order, the *global* order of trace events can
//! race under threads — but the `(site, key, kind)` triples themselves
//! are a pure function of the seed, so [`take`] returns the trace
//! **sorted**, which is the thread-count-invariant view.

use crate::plan::FaultKind;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChaosEvent {
    pub site: String,
    pub key: u64,
    /// Stable kind label (`panic`, `delay`, `fail`, `corrupt`,
    /// `truncate`).
    pub kind: &'static str,
}

fn events() -> &'static Mutex<Vec<ChaosEvent>> {
    static EVENTS: OnceLock<Mutex<Vec<ChaosEvent>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

pub(crate) fn record(site: &str, key: u64, kind: FaultKind) {
    let mut ev = events().lock().unwrap_or_else(|e| e.into_inner());
    ev.push(ChaosEvent {
        site: site.to_string(),
        key,
        kind: kind.label(),
    });
}

/// Drain the fault trace, sorted by `(site, key, kind)` — the
/// deterministic, thread-order-independent view.
pub fn take() -> Vec<ChaosEvent> {
    let mut ev = events().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = std::mem::take(&mut *ev);
    out.sort();
    out
}

pub(crate) fn clear() {
    events().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Injection accounting for one plan run: per-(site, kind) hit and
/// injection counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    pub seed: u64,
    /// `(site, kind label) -> (hits, injected)`, sorted by key.
    pub rules: BTreeMap<(String, &'static str), (u64, u64)>,
}

impl ChaosReport {
    pub fn injected_total(&self) -> u64 {
        self.rules.values().map(|&(_, inj)| inj).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_totals_injections_over_rules() {
        let mut r = ChaosReport {
            seed: 9,
            ..Default::default()
        };
        r.rules.insert(("a.b".into(), "panic"), (10, 2));
        r.rules.insert(("c.d".into(), "fail"), (4, 4));
        assert_eq!(r.injected_total(), 6);
    }
}
