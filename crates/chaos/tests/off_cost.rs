//! Chaos sites with no plan installed, in a test process of their own:
//! nothing in this binary installs a plan, so every site stays on the
//! one-relaxed-load fast path while it is timed.

use std::hint::black_box;
use std::time::Instant;

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

/// "Free when off": with no plan installed a site is a relaxed load and
/// a branch. 10 ns is an order of magnitude above that cost, so the
/// bound survives a busy host and still catches a lock, a map lookup or
/// a clock read on the disabled path.
#[test]
fn sites_cost_under_10ns_with_no_plan() {
    ntt_chaos::uninstall();
    let fail = best_ns_per_op(|| {
        black_box(ntt_chaos::should_fail(black_box("chaos_off.site")));
    });
    let panic = best_ns_per_op(|| ntt_chaos::maybe_panic(black_box("chaos_off.site")));
    assert!(
        fail < 10.0,
        "disabled should_fail costs {fail:.2} ns/op: the chaos kill switch is no longer cheap"
    );
    assert!(
        panic < 10.0,
        "disabled maybe_panic costs {panic:.2} ns/op: the chaos kill switch is no longer cheap"
    );
}
