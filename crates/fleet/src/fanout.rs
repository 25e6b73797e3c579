//! The one ordered fan-out: a pure job per index, run on scoped
//! workers, its results consumed in index order. The fleet's sweeps and
//! the trainer's microbatch steps and evaluation batches all run on it,
//! which is what makes each of them bit-identical at any thread count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

/// Workers for `n` jobs when `threads` were asked for (`0` = one per
/// available core): never more than the jobs, never fewer than one.
pub fn worker_count(threads: usize, n: usize) -> usize {
    let requested = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    requested.min(n).max(1)
}

/// Run `work(i)` for every `i` in `0..n` on `threads` scoped workers (at
/// least one) and hand each result to `emit` on the calling thread **in
/// index order**, whatever order the workers finish in.
///
/// Workers claim indices from one atomic cursor (the contention-free
/// form of work stealing: one global deque, steals from the front) and
/// send results to the calling thread, whose reorder buffer holds each
/// one until its predecessors are emitted. `on_arrival` sees the
/// buffer's depth after every arrival (1 = completion order matched
/// index order). A claim `window` or more indices ahead of the next
/// unemitted one waits, which bounds the buffer at `window` results
/// (`usize::MAX`: unbounded).
///
/// Jobs never run on the calling thread, even with one worker: a sweep's
/// simulations then leave their garbage in the worker's allocator arena,
/// not the caller's (a one-run sweep run inline raised `train_paper`'s
/// peak RSS from 122 to 143 MiB). A panic in `work` or `emit`
/// propagates to the caller.
pub fn ordered_fanout<R: Send>(
    n: usize,
    threads: usize,
    window: usize,
    work: impl Fn(usize) -> R + Sync,
    mut on_arrival: impl FnMut(usize),
    mut emit: impl FnMut(usize, R),
) {
    let next = AtomicUsize::new(0);
    // The next index `emit` takes, which throttled claims wait on.
    let emitted = (Mutex::new(0usize), Condvar::new());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            let tx = tx.clone();
            let (next, emitted, work) = (&next, &emitted, &work);
            scope.spawn(move || {
                let _unblock = UnblockOnPanic(emitted);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Claims are strictly increasing, so the worker
                    // holding the lowest unemitted index never waits and
                    // progress is guaranteed.
                    if i >= window {
                        let mut e = emitted.0.lock().expect("fan-out collector panicked");
                        while i >= e.saturating_add(window) {
                            e = emitted.1.wait(e).expect("fan-out collector panicked");
                        }
                    }
                    if tx.send((i, work(i))).is_err() {
                        break; // collector gone; nothing left to do
                    }
                }
            });
        }
        drop(tx);
        let _unblock = UnblockOnPanic(&emitted);
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        let mut next_emit = 0usize;
        for _ in 0..n {
            let (i, r) = rx.recv().expect("fan-out worker panicked");
            pending.insert(i, r);
            on_arrival(pending.len());
            while let Some(r) = pending.remove(&next_emit) {
                emit(next_emit, r);
                next_emit += 1;
            }
            // `max`: a window a panic lifted stays lifted.
            let mut e = emitted.0.lock().expect("fan-out worker panicked");
            *e = (*e).max(next_emit);
            emitted.1.notify_all();
        }
    });
}

/// Lifts the throttle window if its thread unwinds, so that a panic in
/// a job or in `emit` wakes every throttled worker: they run out the
/// cursor and exit, and the scope's join returns and re-raises the
/// panic instead of waiting forever on an index that will never be
/// emitted.
struct UnblockOnPanic<'a>(&'a (Mutex<usize>, Condvar));

impl Drop for UnblockOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            *self.0 .0.lock().unwrap_or_else(|e| e.into_inner()) = usize::MAX;
            self.0 .1.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, threads: usize, window: usize) -> (Vec<(usize, u64)>, usize) {
        let (mut out, mut deepest) = (Vec::new(), 0);
        ordered_fanout(
            n,
            threads,
            window,
            // Later indices finish first, so the buffer has to reorder.
            |i| {
                std::thread::sleep(std::time::Duration::from_micros(((n - i) % 5) as u64 * 200));
                i as u64 * 3
            },
            |depth| deepest = deepest.max(depth),
            |i, r| out.push((i, r)),
        );
        (out, deepest)
    }

    #[test]
    fn results_arrive_in_index_order_at_any_thread_count() {
        let want: Vec<(usize, u64)> = (0..23).map(|i| (i, i as u64 * 3)).collect();
        for threads in [1, 2, 4] {
            for window in [2, usize::MAX] {
                let (got, deepest) = run(23, threads, window);
                assert_eq!(got, want, "{threads} threads, window {window}");
                assert!(deepest >= 1);
                if window == 2 {
                    assert!(deepest <= 2, "window 2 buffered {deepest} results");
                }
            }
        }
        assert_eq!(run(0, 4, 2).0, Vec::new());
    }

    #[test]
    fn a_panicking_job_propagates_instead_of_hanging() {
        for threads in [1, 3] {
            let got = std::panic::catch_unwind(|| {
                ordered_fanout(
                    40,
                    threads,
                    2,
                    |i| assert_ne!(i, 1, "job 1 fails"),
                    |_| {},
                    |_, ()| {},
                )
            });
            assert!(got.is_err(), "{threads} threads");
        }
    }

    #[test]
    fn worker_count_is_clamped_to_the_jobs() {
        assert_eq!(worker_count(4, 2), 2);
        assert_eq!(worker_count(3, 0), 1);
        assert!(worker_count(0, 1000) >= 1);
    }
}
