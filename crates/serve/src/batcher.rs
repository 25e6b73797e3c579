//! Micro-batching request coalescing: many concurrent single-window
//! requests, few large forward passes — self-healing and overload-safe.
//!
//! What a coalesced forward amortises is per-request fixed cost (tape
//! setup, weight staging, the queue hand-off, a thread wake-up), and
//! the `e2e` ledger says what that is worth: most of a request at the
//! tiny shape, nothing at paper shape, where `Ntt::encode` costs
//! 774–792 µs a window at batch 1 and 779–780 at batch 16 (ROADMAP's
//! first open item is where that changes). The [`Batcher`] owns a FIFO
//! queue and a small worker pool; each worker wakes on a non-empty
//! queue, drains `min(pending, max_batch)` requests **from the queue
//! front in arrival order**, stacks them into one `[B, T, F]` forward
//! pass, and routes each row of the result back over the submitting
//! request's own channel. That one claim rule has no timer and nothing
//! to tune: an idle pool serves a lone request alone with no added
//! wait, and a backlog fills every batch to the limit.
//!
//! Coalescing never changes an answer: every kernel in the forward path
//! is row-wise, so window `i`'s prediction is bit-identical whether it
//! ran alone or inside any batch (asserted by the engine's tests and
//! the batcher proptest). Batch *composition* depends on timing; the
//! routing does not — a response always answers exactly the request
//! that asked, and a ticket's `wait` blocks until that answer exists.
//!
//! # Failure behavior
//!
//! A serving pool must outlive its failures, so the batcher never has a
//! state where a caller hangs:
//!
//! * **Panicked batch → caught on its worker.** A worker serves each
//!   batch inside `catch_unwind`, so a panic in the engine, a head, or
//!   an injected fault costs that batch and nothing else. Under the
//!   queue lock the worker charges the restart budget
//!   ([`BatchConfig::max_restarts`]) and counts
//!   [`BatcherStats::restarts`] / `serve.worker_restarts`; only then
//!   does it drop the batch, which resolves its tickets to
//!   [`ServeError::WorkerDied`] — so the accounting is exact by the
//!   time a caller sees the error. The same worker then claims the
//!   next batch: queued requests are served, during a drain too. Once
//!   the budget is spent the batcher poisons terminally: pending
//!   tickets resolve to [`ServeError::Poisoned`], `submit` rejects, and
//!   no worker claims again, so `stats()` / `metrics()` already hold
//!   the final numbers for the post-mortem.
//! * **Overload → bounded queue + shedding.** The admission queue holds
//!   at most [`BatchConfig::queue_cap`] requests; beyond that, `submit`
//!   sheds with [`ServeError::Overloaded`] instead of queuing
//!   unboundedly (`serve.shed_total`, `serve.queue_depth`).
//! * **Slow service → deadlines.** A request carrying a deadline that
//!   expires before a worker claims it resolves to
//!   [`ServeError::DeadlineExceeded`] rather than occupying a batch
//!   slot (`serve.deadline_exceeded`).
//! * **Shutdown → drain.** [`Batcher::shutdown`] (and drop) stops
//!   admission with [`ServeError::ShuttingDown`] but drains every
//!   already-accepted request, so a ticket in hand always resolves.
//!
//! Fault injection for all of these paths rides on `ntt_chaos` sites
//! (`serve.worker.panic`, `serve.worker.stall`): a seeded plan makes
//! batches panic or stall on a replayable schedule, which is how the
//! chaos soak suite drives thousands of requests through real
//! panic/recover/shed cycles deterministically.

use crate::engine::InferenceEngine;
use crate::error::ServeError;
use ntt_data::NUM_FEATURES;
use ntt_obs::{Histogram, HistogramSnapshot};
use ntt_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Largest batch one forward pass coalesces.
    pub max_batch: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Head kind every request runs through (one batcher serves one
    /// task; run several batchers over one engine for several tasks).
    pub head: &'static str,
    /// Admission-queue bound: `submit` sheds with
    /// [`ServeError::Overloaded`] once this many requests are waiting
    /// (`0` = unbounded, the pre-robustness behavior).
    pub queue_cap: usize,
    /// Panicked batches the pool recovers from before it poisons
    /// terminally. `0` makes the first panic fatal.
    pub max_restarts: usize,
    /// Default per-request deadline applied by [`Batcher::submit`]
    /// (`None` = requests wait indefinitely). Per-request override:
    /// [`Batcher::submit_with_deadline`].
    pub deadline: Option<Duration>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 16,
            workers: 1,
            head: "delay",
            queue_cap: 1024,
            max_restarts: 64,
            deadline: None,
        }
    }
}

struct Request {
    window: Vec<f32>,
    aux: Option<f32>,
    tx: mpsc::Sender<Result<f32, ServeError>>,
    /// Submission time for the queue-wait histogram; `None` while the
    /// observability kill switch is off (no clock read on submit).
    enqueued: Option<Instant>,
    /// Absolute expiry; a worker claiming the request after this point
    /// answers `DeadlineExceeded` instead of serving it.
    deadline: Option<Instant>,
}

struct Queue {
    pending: VecDeque<Request>,
    shutdown: bool,
    /// Set when the restart budget is exhausted. A poisoned batcher
    /// rejects new submissions, has resolved every pending request with
    /// an error, and never claims again.
    poisoned: bool,
}

struct Shared {
    engine: Arc<InferenceEngine>,
    cfg: BatchConfig,
    queue: Mutex<Queue>,
    ready: Condvar,
    batches_run: AtomicU64,
    windows_run: AtomicU64,
    largest_batch: AtomicUsize,
    /// Panicked batches recovered from (`serve.worker_restarts`).
    restarts: AtomicU64,
    /// Requests shed at admission (`serve.shed_total`).
    shed: AtomicU64,
    /// Requests expired before service (`serve.deadline_exceeded`).
    expired: AtomicU64,
    /// Per-batcher latency accounting (also double-recorded into the
    /// global registry as `serve.queue_wait_ns` / `serve.service_ns` /
    /// `serve.batch_size`).
    queue_wait: Histogram,
    service: Histogram,
    batch_size: Histogram,
}

/// Handle to one in-flight request.
pub struct Ticket {
    rx: mpsc::Receiver<Result<f32, ServeError>>,
}

impl Ticket {
    /// Block until this request resolves: the prediction (normalized
    /// model output), or a typed error — [`ServeError::WorkerDied`] if
    /// serving its batch panicked (the worker caught the panic, counted
    /// it in [`BatcherStats::restarts`] or poisoned the pool, and then
    /// dropped the batch), [`ServeError::DeadlineExceeded`] if the
    /// request expired in the queue, [`ServeError::Poisoned`] if the
    /// pool died terminally while the request waited. A ticket never
    /// hangs: every accepted request is either served, expired, or
    /// failed by a caught panic or the poison path.
    pub fn wait(self) -> Result<f32, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerDied)?
    }
}

/// Aggregate batching statistics.
#[derive(Debug, Clone, Copy)]
pub struct BatcherStats {
    pub batches: u64,
    pub windows: u64,
    /// Largest coalesced batch observed.
    pub largest_batch: usize,
    /// Panicked batches caught and recovered (the pool kept serving).
    pub restarts: u64,
    /// Requests shed at admission (bounded queue full).
    pub shed: u64,
    /// Requests that expired in the queue before service.
    pub deadline_exceeded: u64,
}

/// Latency and batch-shape distributions for one batcher, as histogram
/// snapshots (p50/p90/p99 via [`HistogramSnapshot::quantile`]). Empty
/// while the `NTT_OBS` kill switch is off.
#[derive(Debug, Clone, Default)]
pub struct BatcherMetrics {
    /// Nanoseconds from `submit` to a worker claiming the request.
    pub queue_wait_ns: HistogramSnapshot,
    /// Nanoseconds a worker spent stacking, predicting, and routing one
    /// batch.
    pub service_ns: HistogramSnapshot,
    /// Coalesced batch sizes (windows per forward pass).
    pub batch_size: HistogramSnapshot,
}

/// Micro-batching front end over one engine + one head.
pub struct Batcher {
    shared: Arc<Shared>,
    /// Every worker runs for the life of the pool; `drop` joins them.
    workers: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Spawn the worker pool. The engine must carry `cfg.head`.
    pub fn new(engine: Arc<InferenceEngine>, cfg: BatchConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(
            engine.head(cfg.head).is_some(),
            "engine has no {:?} head (loaded: {:?})",
            cfg.head,
            engine.head_kinds()
        );
        let workers = cfg.workers;
        let shared = Arc::new(Shared {
            engine,
            cfg,
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                shutdown: false,
                poisoned: false,
            }),
            ready: Condvar::new(),
            batches_run: AtomicU64::new(0),
            windows_run: AtomicU64::new(0),
            largest_batch: AtomicUsize::new(0),
            restarts: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            queue_wait: Histogram::new(),
            service: Histogram::new(),
            batch_size: Histogram::new(),
        });
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Batcher { shared, workers }
    }

    /// Submit one featurized window (`seq_len * NUM_FEATURES` values,
    /// with an aux scalar when the head needs one, e.g. the MCT head's
    /// normalized log message size). Returns immediately; the returned
    /// [`Ticket`] resolves to the prediction. Malformed requests, a
    /// full queue, and a dead/shutting-down pool are client-reachable
    /// conditions, so they come back as [`ServeError`]s instead of
    /// panicking the server. Applies [`BatchConfig::deadline`] when one
    /// is configured.
    pub fn submit(&self, window: Vec<f32>, aux: Option<f32>) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(window, aux, self.shared.cfg.deadline)
    }

    /// [`Batcher::submit`] with an explicit per-request deadline
    /// (overriding the configured default; `None` = wait forever). A
    /// request still queued when its deadline passes resolves to
    /// [`ServeError::DeadlineExceeded`] instead of occupying a batch
    /// slot.
    pub fn submit_with_deadline(
        &self,
        window: Vec<f32>,
        aux: Option<f32>,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let want = self.shared.engine.seq_len() * NUM_FEATURES;
        if window.len() != want {
            return Err(ServeError::WindowLength {
                got: window.len(),
                want,
            });
        }
        let needs_aux = self
            .shared
            .engine
            .head(self.shared.cfg.head)
            // PANIC-OK: Batcher::new asserts the head exists and the
            // engine's head set is immutable afterwards.
            .expect("checked at construction")
            .needs_aux();
        if needs_aux != aux.is_some() {
            return Err(ServeError::AuxMismatch {
                head: self.shared.cfg.head,
                needs_aux,
            });
        }
        let (tx, rx) = mpsc::channel();
        let enqueued = ntt_obs::enabled().then(Instant::now);
        let deadline = deadline.map(|d| {
            enqueued
                .unwrap_or_else(Instant::now)
                .checked_add(d)
                // PANIC-OK: only a near-u64::MAX Duration overflows
                // Instant arithmetic; such a deadline is a caller bug,
                // not a runtime condition.
                .expect("deadline overflows the monotonic clock")
        });
        {
            // Lock poisoning is tracked by our own `poisoned` flag (the
            // queue holds plain data, always consistent), so recover the
            // guard rather than double-panic.
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if q.poisoned {
                return Err(ServeError::Poisoned);
            }
            let cap = self.shared.cfg.queue_cap;
            if cap > 0 && q.pending.len() >= cap {
                // Load shedding: a bounded queue that answers "no" now
                // beats an unbounded one that answers late.
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                ntt_obs::counter!("serve.shed_total").inc();
                return Err(ServeError::Overloaded { cap });
            }
            q.pending.push_back(Request {
                window,
                aux,
                tx,
                enqueued,
                deadline,
            });
            ntt_obs::gauge!("serve.queue_depth").set(q.pending.len() as f64);
        }
        self.shared.ready.notify_one();
        Ok(Ticket { rx })
    }

    /// Stop admitting requests (subsequent `submit`s return
    /// [`ServeError::ShuttingDown`]) while the workers drain everything
    /// already accepted — every ticket in flight still resolves. Called
    /// automatically on drop; callable early so an operator can drain a
    /// pool without giving up the handle (and its `stats()`).
    pub fn shutdown(&self) {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .shutdown = true;
        self.shared.ready.notify_all();
    }

    /// False once the batcher has poisoned terminally (restart budget
    /// exhausted): it rejects further submissions and has already
    /// resolved every pending ticket. A panicked batch within budget
    /// does *not* unhealth the pool — its worker keeps serving.
    pub fn is_healthy(&self) -> bool {
        !self
            .shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .poisoned
    }

    /// Batching statistics so far. After terminal poisoning no worker
    /// claims again, so these are the final numbers for a post-mortem.
    pub fn stats(&self) -> BatcherStats {
        let s = &self.shared;
        BatcherStats {
            batches: s.batches_run.load(Ordering::Relaxed),
            windows: s.windows_run.load(Ordering::Relaxed),
            largest_batch: s.largest_batch.load(Ordering::Relaxed),
            restarts: s.restarts.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            deadline_exceeded: s.expired.load(Ordering::Relaxed),
        }
    }

    /// Queue-wait, service-time, and batch-size distributions for this
    /// batcher (its own histograms, not the process-global ones —
    /// several batchers never mix). Final once the pool has poisoned,
    /// like [`Batcher::stats`].
    pub fn metrics(&self) -> BatcherMetrics {
        BatcherMetrics {
            queue_wait_ns: self.shared.queue_wait.snapshot(),
            service_ns: self.shared.service.snapshot(),
            batch_size: self.shared.batch_size.snapshot(),
        }
    }
}

impl Drop for Batcher {
    /// Graceful shutdown: workers drain every pending request before
    /// exiting, so already-issued tickets still resolve.
    fn drop(&mut self) {
        self.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One worker, alive for the life of the pool: claim a batch, serve it
/// inside `catch_unwind`, repeat until a drained shutdown or a poison.
fn worker_loop(shared: &Shared) {
    while let Some(batch) = claim(shared) {
        if catch_unwind(AssertUnwindSafe(|| serve(shared, &batch))).is_err() {
            recover(shared);
        }
        // Dropping the batch resolves every ticket it did not answer to
        // `WorkerDied` — after `recover`, so a caller who sees that
        // error also sees the restart or the poison it caused.
        drop(batch);
    }
}

/// Claim an arrival-order run from the queue front, resolving requests
/// whose deadline already passed; `None` once a shutdown has drained
/// the queue or the pool is poisoned. This runs outside the worker's
/// `catch_unwind` and cannot panic: it touches only the queue, the
/// requests' deadlines and their reply channels.
fn claim(shared: &Shared) -> Option<Vec<Request>> {
    loop {
        // Lock/condvar poisoning maps to our own `poisoned` flag;
        // recovering the guard keeps the drain loop alive so shutdown
        // still resolves outstanding tickets.
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        while q.pending.is_empty() {
            if q.shutdown || q.poisoned {
                return None;
            }
            q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        let n = q.pending.len().min(shared.cfg.max_batch);
        let claimed: Vec<Request> = q.pending.drain(..n).collect();
        ntt_obs::gauge!("serve.queue_depth").set(q.pending.len() as f64);
        drop(q);
        // One clock read per claim covers every carried deadline.
        let now = claimed
            .iter()
            .any(|r| r.deadline.is_some())
            .then(Instant::now);
        let mut live = Vec::with_capacity(claimed.len());
        for r in claimed {
            match (r.deadline, now) {
                (Some(d), Some(now)) if now >= d => {
                    shared.expired.fetch_add(1, Ordering::Relaxed);
                    ntt_obs::counter!("serve.deadline_exceeded").inc();
                    let _ = r.tx.send(Err(ServeError::DeadlineExceeded));
                }
                _ => live.push(r),
            }
        }
        if !live.is_empty() {
            return Some(live);
        }
        // The whole claim had expired: claim again.
    }
}

/// A served batch panicked. Under the queue lock, charge the restart
/// budget — or, once it is spent, poison the pool: mark it dead and
/// resolve every pending ticket with `Poisoned`.
fn recover(shared: &Shared) {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    let within_budget = shared
        .restarts
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < shared.cfg.max_restarts as u64).then_some(n + 1)
        })
        .is_ok();
    if within_budget {
        ntt_obs::counter!("serve.worker_restarts").inc();
        return;
    }
    q.poisoned = true;
    for r in q.pending.drain(..) {
        let _ = r.tx.send(Err(ServeError::Poisoned));
    }
    ntt_obs::gauge!("serve.queue_depth").set(0.0);
    shared.ready.notify_all();
}

/// Run one claimed batch through the engine and answer every ticket.
/// Everything that can panic — the engine, the head, chaos sites,
/// request data — runs here, inside the worker's `catch_unwind`.
fn serve(shared: &Shared, batch: &[Request]) {
    // Chaos sites: a seeded plan can stall this worker (slow consumer —
    // the queue backs up and admission sheds) or panic mid-batch
    // (exercising ticket fail-fast and recovery). Both compile to one
    // relaxed load when chaos is off.
    ntt_chaos::maybe_delay("serve.worker.stall");
    ntt_chaos::maybe_panic("serve.worker.panic");

    // Queue wait: submit -> claim, one clock read for the batch.
    if ntt_obs::enabled() {
        let now = Instant::now();
        for r in batch {
            if let Some(t0) = r.enqueued {
                let ns = now.duration_since(t0).as_nanos().min(u64::MAX as u128) as u64;
                shared.queue_wait.record_always(ns);
                ntt_obs::histogram!("serve.queue_wait_ns").record_always(ns);
            }
        }
    }
    let service_t0 = ntt_obs::enabled().then(Instant::now);

    let b = batch.len();
    let seq = shared.engine.seq_len();
    let mut x = Vec::with_capacity(b * seq * NUM_FEATURES);
    for r in batch {
        x.extend_from_slice(&r.window);
    }
    let x = Tensor::from_vec(x, &[b, seq, NUM_FEATURES]);
    let aux = batch[0].aux.is_some().then(|| {
        Tensor::from_vec(
            batch
                .iter()
                // PANIC-OK: submit rejects aux mismatches for this
                // head, so a batch is all-aux or all-none.
                .map(|r| r.aux.expect("checked on submit"))
                .collect(),
            &[b, 1],
        )
    });
    let out = shared.engine.predict(shared.cfg.head, &x, aux.as_ref());

    shared.batches_run.fetch_add(1, Ordering::Relaxed);
    shared.windows_run.fetch_add(b as u64, Ordering::Relaxed);
    shared.largest_batch.fetch_max(b, Ordering::Relaxed);
    shared.batch_size.record(b as u64);
    ntt_obs::histogram!("serve.batch_size").record(b as u64);
    // Service time = stack + forward pass, recorded *before* the
    // responses go out so a caller that saw every ticket resolve also
    // sees every service sample.
    if let Some(t0) = service_t0 {
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        shared.service.record_always(ns);
        ntt_obs::histogram!("serve.service_ns").record_always(ns);
    }
    for (r, &z) in batch.iter().zip(out.data()) {
        // A dropped ticket (caller gave up) is not an error.
        let _ = r.tx.send(Ok(z));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::tiny_engine;
    use ntt_core::DelayHead;
    use ntt_nn::{Head, Module};
    use ntt_tensor::{Param, Var};

    fn windows(engine: &InferenceEngine, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let row = engine.seq_len() * NUM_FEATURES;
        let all = Tensor::randn(&[n, engine.seq_len(), NUM_FEATURES], seed);
        (0..n)
            .map(|i| all.data()[i * row..(i + 1) * row].to_vec())
            .collect()
    }

    /// Test controls for a [`FlakyHead`]: every forward waits at the
    /// gate until it opens (deterministic queue pressure), and the
    /// configured calls then panic (engine failures).
    struct Gate {
        /// Calls (0-based) that panic.
        boom: &'static [usize],
        /// (forwards entered, gate open).
        state: Mutex<(usize, bool)>,
        changed: Condvar,
    }
    impl Gate {
        /// Block until the worker is held inside the head.
        fn wait_until_entered(&self) {
            let state = self.state.lock().unwrap();
            let (state, _) = self
                .changed
                .wait_timeout_while(state, Duration::from_secs(5), |s| s.0 == 0)
                .unwrap();
            assert_eq!(state.0, 1, "worker is gated");
        }

        fn open(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    /// A real delay head behind a [`Gate`].
    struct FlakyHead {
        inner: DelayHead,
        gate: Arc<Gate>,
    }
    impl Module for FlakyHead {
        fn params(&self) -> Vec<Param> {
            self.inner.params()
        }
    }
    impl Head for FlakyHead {
        fn kind(&self) -> &'static str {
            "flaky"
        }
        fn d_model(&self) -> usize {
            self.inner.d_model()
        }
        fn forward_head<'t>(
            &self,
            tape: &'t ntt_tensor::Tape,
            encoded: Var<'t>,
            aux: Option<Var<'t>>,
        ) -> Var<'t> {
            let call = {
                let gate = &self.gate;
                let mut state = gate.state.lock().unwrap();
                let call = state.0;
                state.0 += 1;
                gate.changed.notify_all();
                drop(gate.changed.wait_while(state, |s| !s.1).unwrap());
                call
            };
            if self.gate.boom.contains(&call) {
                panic!("injected head failure");
            }
            self.inner.forward_head(tape, encoded, aux)
        }
    }

    /// Engine whose one head is a [`FlakyHead`] panicking on the `boom`
    /// calls, with its gate `open` or shut, plus the gate's handle.
    fn flaky_engine(boom: &'static [usize], open: bool) -> (Arc<InferenceEngine>, Arc<Gate>) {
        let cfg = crate::test_util::tiny_cfg(0.0);
        let gate = Arc::new(Gate {
            boom,
            state: Mutex::new((0, open)),
            changed: Condvar::new(),
        });
        let head = FlakyHead {
            inner: DelayHead::new(cfg.d_model, 1),
            gate: Arc::clone(&gate),
        };
        let eng = Arc::new(InferenceEngine::from_parts(
            ntt_core::Ntt::new(cfg),
            vec![Box::new(head)],
            ntt_data::Normalizer::identity(NUM_FEATURES),
        ));
        (eng, gate)
    }

    #[test]
    fn responses_match_serial_reference_in_arrival_order() {
        let eng = Arc::new(tiny_engine(0.0));
        let ws = windows(&eng, 13, 3);
        // Serial reference: each window alone.
        let expect: Vec<f32> = ws
            .iter()
            .map(|w| {
                let x = Tensor::from_vec(w.clone(), &[1, eng.seq_len(), NUM_FEATURES]);
                eng.predict("delay", &x, None).item()
            })
            .collect();
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 4,
                workers: 2,
                head: "delay",
                ..BatchConfig::default()
            },
        );
        let tickets: Vec<Ticket> = ws
            .iter()
            .map(|w| batcher.submit(w.clone(), None).unwrap())
            .collect();
        for (t, e) in tickets.into_iter().zip(&expect) {
            assert_eq!(t.wait().unwrap().to_bits(), e.to_bits());
        }
        let stats = batcher.stats();
        assert_eq!(stats.windows, 13);
        assert!(stats.batches >= 4, "13 windows over max_batch 4");
        assert!(stats.largest_batch <= 4);
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn pending_tickets_resolve_through_shutdown() {
        let eng = Arc::new(tiny_engine(0.0));
        let ws = windows(&eng, 6, 4);
        let tickets: Vec<Ticket> = {
            let batcher = Batcher::new(Arc::clone(&eng), BatchConfig::default());
            ws.iter()
                .map(|w| batcher.submit(w.clone(), None).unwrap())
                .collect()
            // Batcher drops here; its queue must drain first.
        };
        for t in tickets {
            assert!(t.wait().unwrap().is_finite());
        }
    }

    #[test]
    fn explicit_shutdown_drains_then_rejects() {
        let eng = Arc::new(tiny_engine(0.0));
        let ws = windows(&eng, 5, 11);
        let batcher = Batcher::new(Arc::clone(&eng), BatchConfig::default());
        let tickets: Vec<Ticket> = ws
            .iter()
            .map(|w| batcher.submit(w.clone(), None).unwrap())
            .collect();
        batcher.shutdown();
        // Already-accepted requests all resolve...
        for t in tickets {
            assert!(t.wait().unwrap().is_finite());
        }
        // ...new ones are refused, and the handle still reports stats.
        assert_eq!(
            batcher.submit(ws[0].clone(), None).err(),
            Some(ServeError::ShuttingDown)
        );
        assert_eq!(batcher.stats().windows, 5);
    }

    #[test]
    fn aux_rides_along_for_mct_requests() {
        let eng = Arc::new(tiny_engine(0.0));
        let ws = windows(&eng, 5, 5);
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 3,
                workers: 1,
                head: "mct",
                ..BatchConfig::default()
            },
        );
        let expect: Vec<f32> = ws
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let x = Tensor::from_vec(w.clone(), &[1, eng.seq_len(), NUM_FEATURES]);
                let aux = Tensor::from_vec(vec![i as f32 * 0.1], &[1, 1]);
                eng.predict("mct", &x, Some(&aux)).item()
            })
            .collect();
        let tickets: Vec<Ticket> = ws
            .iter()
            .enumerate()
            .map(|(i, w)| batcher.submit(w.clone(), Some(i as f32 * 0.1)).unwrap())
            .collect();
        for (t, e) in tickets.into_iter().zip(&expect) {
            assert_eq!(t.wait().unwrap().to_bits(), e.to_bits());
        }
    }

    #[test]
    fn a_panicked_batch_is_caught_and_the_worker_keeps_serving() {
        // Call 0 panics; every later call succeeds. The first request's
        // ticket fails fast, and the same worker serves the rest as if
        // nothing happened.
        let (eng, _) = flaky_engine(&[0], true);
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 1,
                workers: 1,
                head: "flaky",
                ..BatchConfig::default()
            },
        );
        let row = eng.seq_len() * NUM_FEATURES;
        let doomed = batcher.submit(vec![0.0; row], None).unwrap();
        assert_eq!(
            doomed.wait(),
            Err(ServeError::WorkerDied),
            "the in-flight ticket of a panicked batch fails fast"
        );
        // The restart is counted by the time the ticket resolves.
        assert_eq!(batcher.stats().restarts, 1);
        for i in 0..4 {
            let t = batcher.submit(vec![0.1 * i as f32; row], None).unwrap();
            assert!(t.wait().unwrap().is_finite(), "request {i} after the panic");
        }
        assert!(batcher.is_healthy(), "a panic within budget is healthy");
        let stats = batcher.stats();
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.windows, 4, "stats keep moving after the restart");
    }

    #[test]
    fn queued_requests_survive_a_worker_panic() {
        // Two requests queued back-to-back; serving the first panics
        // (max_batch 1 keeps them in separate batches). The second must
        // be served, not dropped.
        let (eng, _) = flaky_engine(&[0], true);
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 1,
                workers: 1,
                head: "flaky",
                ..BatchConfig::default()
            },
        );
        let row = eng.seq_len() * NUM_FEATURES;
        let doomed = batcher.submit(vec![0.0; row], None).unwrap();
        let survivor = batcher.submit(vec![0.5; row], None).unwrap();
        assert_eq!(doomed.wait(), Err(ServeError::WorkerDied));
        assert!(
            survivor.wait().unwrap().is_finite(),
            "a queued request must survive the panic"
        );
    }

    #[test]
    fn a_panic_while_draining_costs_only_its_own_batch() {
        // Three requests queued behind a gated first call, then a
        // shutdown: the first batch panics mid-drain, and the one worker
        // still serves the other two before it exits.
        let (eng, gate) = flaky_engine(&[0], false);
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 1,
                workers: 1,
                head: "flaky",
                ..BatchConfig::default()
            },
        );
        let row = eng.seq_len() * NUM_FEATURES;
        let doomed = batcher.submit(vec![0.0; row], None).unwrap();
        gate.wait_until_entered();
        let queued: Vec<Ticket> = (1..3)
            .map(|i| batcher.submit(vec![0.1 * i as f32; row], None).unwrap())
            .collect();
        batcher.shutdown();
        gate.open();
        assert_eq!(doomed.wait(), Err(ServeError::WorkerDied));
        for t in queued {
            assert!(t.wait().unwrap().is_finite(), "drained after the panic");
        }
        let stats = batcher.stats();
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.windows, 2);
    }

    #[test]
    fn exhausted_restart_budget_poisons_terminally() {
        // Every call panics and the budget is one restart: the second
        // panic poisons the pool — submissions reject and pending
        // tickets resolve.
        let (eng, _) = flaky_engine(&[0, 1, 2, 3, 4, 5, 6, 7], true);
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 1,
                workers: 1,
                head: "flaky",
                max_restarts: 1,
                ..BatchConfig::default()
            },
        );
        let row = eng.seq_len() * NUM_FEATURES;
        assert_eq!(
            batcher.submit(vec![0.0; row], None).unwrap().wait(),
            Err(ServeError::WorkerDied)
        );
        assert_eq!(
            batcher.submit(vec![0.1; row], None).unwrap().wait(),
            Err(ServeError::WorkerDied)
        );
        // The second panic exhausted the budget, and the pool poisoned
        // before that ticket resolved.
        assert!(!batcher.is_healthy());
        assert_eq!(
            batcher.submit(vec![0.2; row], None).err(),
            Some(ServeError::Poisoned)
        );
        let stats = batcher.stats();
        assert_eq!(stats.restarts, 1, "one restart happened before poisoning");
    }

    #[test]
    fn legacy_zero_budget_poisons_on_first_panic() {
        // max_restarts: 0 restores the old poison-on-first-panic
        // behavior exactly.
        let (eng, _) = flaky_engine(&[0], true);
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 4,
                workers: 1,
                head: "flaky",
                max_restarts: 0,
                ..BatchConfig::default()
            },
        );
        let row = eng.seq_len() * NUM_FEATURES;
        let ticket = batcher.submit(vec![0.0; row], None).unwrap();
        assert_eq!(ticket.wait(), Err(ServeError::WorkerDied));
        assert!(!batcher.is_healthy());
        assert_eq!(
            batcher.submit(vec![0.0; row], None).err(),
            Some(ServeError::Poisoned)
        );
        assert_eq!(batcher.stats().restarts, 0);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let (eng, gate) = flaky_engine(&[], false);
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 1,
                workers: 1,
                head: "flaky",
                queue_cap: 3,
                ..BatchConfig::default()
            },
        );
        let row = eng.seq_len() * NUM_FEATURES;
        // First request gets claimed and blocks inside the head.
        let served = batcher.submit(vec![0.0; row], None).unwrap();
        gate.wait_until_entered();
        // Fill the bounded queue...
        let queued: Vec<Ticket> = (0..3)
            .map(|i| batcher.submit(vec![0.1 * i as f32; row], None).unwrap())
            .collect();
        // ...and the next admission sheds instead of queuing unboundedly.
        assert_eq!(
            batcher.submit(vec![0.9; row], None).err(),
            Some(ServeError::Overloaded { cap: 3 })
        );
        assert_eq!(batcher.stats().shed, 1);
        // Release the gate: everything accepted still resolves.
        gate.open();
        assert!(served.wait().unwrap().is_finite());
        for t in queued {
            assert!(t.wait().unwrap().is_finite());
        }
        assert_eq!(batcher.stats().shed, 1, "accounting survives the drain");
    }

    #[test]
    fn expired_deadline_resolves_instead_of_occupying_a_batch() {
        let (eng, gate) = flaky_engine(&[], false);
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 4,
                workers: 1,
                head: "flaky",
                ..BatchConfig::default()
            },
        );
        let row = eng.seq_len() * NUM_FEATURES;
        // Gate the worker on a first request...
        let served = batcher.submit(vec![0.0; row], None).unwrap();
        gate.wait_until_entered();
        // ...queue one request with an already-tiny deadline and one
        // without; let the deadline lapse before opening the gate.
        let doomed = batcher
            .submit_with_deadline(vec![0.1; row], None, Some(Duration::from_millis(1)))
            .unwrap();
        let patient = batcher.submit(vec![0.2; row], None).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        gate.open();
        assert!(served.wait().unwrap().is_finite());
        assert_eq!(doomed.wait(), Err(ServeError::DeadlineExceeded));
        assert!(
            patient.wait().unwrap().is_finite(),
            "an expired neighbor must not take the batch down with it"
        );
        let stats = batcher.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.windows, 2, "expired requests never reach the engine");
    }

    #[test]
    fn queue_and_service_histograms_track_requests() {
        ntt_obs::set_enabled(true);
        let eng = Arc::new(tiny_engine(0.0));
        let ws = windows(&eng, 9, 6);
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 4,
                workers: 1,
                head: "delay",
                ..BatchConfig::default()
            },
        );
        let tickets: Vec<Ticket> = ws
            .iter()
            .map(|w| batcher.submit(w.clone(), None).unwrap())
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let m = batcher.metrics();
        // Every request waited in the queue once; every batch was
        // serviced and sized once.
        assert_eq!(m.queue_wait_ns.count, 9);
        assert_eq!(m.service_ns.count, batcher.stats().batches);
        assert_eq!(m.batch_size.count, batcher.stats().batches);
        assert_eq!(m.batch_size.sum, 9, "batch sizes must sum to the windows");
        assert!(
            m.service_ns.quantile(1.0) > 0.0,
            "a forward pass takes time"
        );
    }

    #[test]
    fn poisoned_pool_keeps_its_final_stats_and_metrics() {
        ntt_obs::set_enabled(true);
        // First call succeeds, the second panics; a zero restart budget
        // makes that panic terminal.
        let (eng, _) = flaky_engine(&[1], true);
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 1,
                workers: 1,
                head: "flaky",
                max_restarts: 0,
                ..BatchConfig::default()
            },
        );
        let row = eng.seq_len() * NUM_FEATURES;
        // First request succeeds and is counted.
        assert!(batcher
            .submit(vec![0.0; row], None)
            .unwrap()
            .wait()
            .unwrap()
            .is_finite());
        // Second request panics, and the pool poisons.
        let doomed = batcher.submit(vec![0.1; row], None).unwrap();
        assert_eq!(doomed.wait(), Err(ServeError::WorkerDied));
        assert!(!batcher.is_healthy());
        // The pre-poison numbers survive: one successful batch of one
        // window, with its latency samples intact.
        let stats = batcher.stats();
        assert_eq!(stats.batches, 1, "final stats must survive, not reset");
        assert_eq!(stats.windows, 1);
        let m = batcher.metrics();
        assert_eq!(m.batch_size.count, 1);
        assert_eq!(m.batch_size.sum, 1);
        assert_eq!(m.service_ns.count, 1);
        // Both requests were claimed before the crash point.
        assert_eq!(m.queue_wait_ns.count, 2);
    }

    #[test]
    fn idle_pool_claims_one_and_a_backlog_fills_to_the_limit() {
        // No window, no timer: the first request finds an idle worker and
        // rides alone; the nine queued behind the gate go out as 4 + 4 + 1.
        let (eng, gate) = flaky_engine(&[], false);
        let ws = windows(&eng, 10, 21);
        let batcher = Batcher::new(
            Arc::clone(&eng),
            BatchConfig {
                max_batch: 4,
                workers: 1,
                head: "flaky",
                ..BatchConfig::default()
            },
        );
        let first = batcher.submit(ws[0].clone(), None).unwrap();
        gate.wait_until_entered();
        let mut tickets = vec![first];
        tickets.extend(
            ws[1..]
                .iter()
                .map(|w| batcher.submit(w.clone(), None).unwrap()),
        );
        gate.open();
        // Ticket i answers window i, to the bit.
        for (t, w) in tickets.into_iter().zip(&ws) {
            let z = t.wait().unwrap();
            assert!(z.is_finite());
            let x = Tensor::from_vec(w.clone(), &[1, eng.seq_len(), NUM_FEATURES]);
            assert_eq!(z.to_bits(), eng.predict("flaky", &x, None).item().to_bits());
        }
        let stats = batcher.stats();
        assert_eq!(stats.batches, 4, "1 + 4 + 4 + 1");
        assert_eq!(stats.largest_batch, 4);
        assert_eq!(stats.windows, 10);
    }

    #[test]
    fn malformed_requests_return_typed_errors() {
        let eng = Arc::new(tiny_engine(0.0));
        let batcher = Batcher::new(Arc::clone(&eng), BatchConfig::default());
        let row = eng.seq_len() * NUM_FEATURES;
        assert_eq!(
            batcher.submit(vec![0.0; row], Some(1.0)).err(),
            Some(ServeError::AuxMismatch {
                head: "delay",
                needs_aux: false
            })
        );
        assert_eq!(
            batcher.submit(vec![0.0; 3], None).err(),
            Some(ServeError::WindowLength { got: 3, want: row })
        );
    }
}
