//! Request coalescing: concurrent single-vector requests → SpMM batches.
//!
//! Clients submit ordinary `y = A·x` requests one vector at a time (or a
//! whole block of columns at once with [`Batcher::submit_block`]). The
//! batcher queues them and serves the queue in multi-vector batches. The
//! default cut is **work-conserving**: whenever the service thread is free it
//! takes up to `max_batch` waiting requests and executes them at once, so a
//! lone request never waits for company, and requests that arrive while a
//! batch runs are served together in the next one. A non-zero
//! [`BatchPolicy::max_wait`] turns on an explicit linger: a partial batch is
//! then held until `max_batch` requests are waiting or the oldest has aged
//! `max_wait`.
//!
//! Each batch is one [`SpmvEngine::spmm`](spmv_parallel::SpmvEngine) call, so
//! the index traffic of the matrix is read once for the whole batch; and
//! because the SpMM kernels are bit-identical per vector to the tuned SpMV
//! path, batching is invisible to clients in every bit of the result.
//!
//! Two driving modes:
//!
//! * [`Batcher::spawn`] — a background service thread owns the loop (the
//!   production shape). Dropping the batcher flushes the queue and joins it.
//!   [`Batcher::spawn_with_waker`] additionally wakes a [`Waker`] after every
//!   executed batch, so an event loop holding the tickets learns of results
//!   without polling on a clock.
//! * [`Batcher::manual`] — no thread; the caller drives with
//!   [`Batcher::run_once`]. Deterministic, used by tests and benchmarks.
//!
//! ## Failure paths
//!
//! A networked front-end cannot afford the in-process luxury of "a panic
//! tears the process down anyway", so the batcher's failure semantics are
//! explicit:
//!
//! * **A panic during batch execution** (a kernel bug, an injected fault) is
//!   caught; every request of that batch fails with a typed
//!   [`ServeError::BatchPanicked`] delivered through its [`Ticket`], the
//!   failure is counted ([`ServeStats::failed_batches`]), and the queue stays
//!   fully usable — later submits are served normally. Queue locks recover
//!   from poisoning (the queue's invariants hold at every await point), so a
//!   panicked peer can never wedge `submit`/`pending`.
//! * **Close** ([`Batcher::close`], or drop) flips the queue shut under the
//!   lock; a concurrent [`Batcher::submit`] observes it atomically and gets
//!   [`ServeError::Closed`] — there is no window in which a request can be
//!   enqueued after the final flush decision. Everything enqueued *before*
//!   close is drained by the service loop's final flush; anything still
//!   pending when the batcher drops (manual mode, or a dead service thread)
//!   is explicitly failed with `Closed` rather than silently dropped.

use crate::registry::ServedMatrix;
use crate::stats::ServeStats;
use crate::{Result, ServeError};
use spmv_core::multivec::MultiVec;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When a batch is cut. With a zero `max_wait` (the default) the cut is
/// work-conserving: the service thread takes up to `max_batch` waiting
/// requests as soon as it is free. A non-zero `max_wait` is an explicit
/// linger: a partial batch is held until `max_batch` requests are waiting or
/// the oldest has aged `max_wait`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests coalesced into one SpMM batch.
    pub max_batch: usize,
    /// How long a partial batch may linger for more requests; zero cuts it
    /// at once.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    /// Eight-wide batches (the widest generated microkernel chunk), cut as
    /// soon as the service thread is free.
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_wait: Duration::ZERO,
        }
    }
}

/// One queued request.
struct Request {
    x: Vec<f64>,
    reply: mpsc::Sender<Result<Vec<f64>>>,
    submitted: Instant,
}

/// A handle to a submitted request's eventual result.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Vec<f64>>>,
}

impl Ticket {
    /// Block until the result arrives. Errors with [`ServeError::Closed`] if
    /// the batcher shut down before serving the request, or with the typed
    /// error the service loop recorded (e.g. [`ServeError::BatchPanicked`]).
    pub fn wait(self) -> Result<Vec<f64>> {
        self.rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Block up to `timeout` for the result: `None` if it has not arrived.
    /// The failure-path analogue of [`Ticket::wait`] for callers that must
    /// bound their stall (a networked front-end, a no-hang test harness).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<f64>>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }

    /// Non-blocking poll: `Some(result)` once served (or failed).
    pub fn try_wait(&self) -> Option<Result<Vec<f64>>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }
}

struct Queue {
    pending: VecDeque<Request>,
    open: bool,
}

struct SharedQueue {
    state: Mutex<Queue>,
    cv: Condvar,
}

impl SharedQueue {
    /// Lock the queue, recovering from poisoning: every mutation of `Queue`
    /// (push/drain/flag flip) leaves it consistent at every panic point, so a
    /// peer that panicked while holding the lock cannot have torn it — and a
    /// served fleet must keep accepting work after one bad batch.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        self.cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    fn wait_timeout<'a>(
        &self,
        guard: MutexGuard<'a, Queue>,
        dur: Duration,
    ) -> MutexGuard<'a, Queue> {
        self.cv
            .wait_timeout(guard, dur)
            .map(|(g, _)| g)
            .unwrap_or_else(|e| e.into_inner().0)
    }
}

/// The batching front-end of one served matrix.
pub struct Batcher {
    matrix: Arc<ServedMatrix>,
    policy: BatchPolicy,
    queue: Arc<SharedQueue>,
    stats: Arc<ServeStats>,
    /// Fault injection for the failure-path tests: each pending count makes
    /// one batch execution panic inside the caught region.
    fail_injector: Arc<AtomicU64>,
    worker: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Start a batcher with a background service thread.
    pub fn spawn(matrix: Arc<ServedMatrix>, policy: BatchPolicy) -> Batcher {
        Self::spawn_with_waker(matrix, policy, None)
    }

    /// [`Batcher::spawn`] whose service thread wakes `waker` after every
    /// executed batch (served or failed), once its tickets have resolved — the
    /// completion signal of an event loop that polls tickets with
    /// [`Ticket::try_wait`].
    pub fn spawn_with_waker(
        matrix: Arc<ServedMatrix>,
        policy: BatchPolicy,
        waker: Option<Waker>,
    ) -> Batcher {
        let mut batcher = Self::manual(matrix, policy);
        batcher.start(waker);
        batcher
    }

    /// A batcher with no service thread: the caller drives it with
    /// [`Batcher::run_once`]. Deterministic batch composition for tests.
    ///
    /// Statistics are shared with the served matrix (see
    /// [`ServedMatrix::serve_stats`]), so a registry-wide metrics scrape sees
    /// the batcher's occupancy and latency histograms without holding a
    /// reference to the batcher itself.
    pub fn manual(matrix: Arc<ServedMatrix>, policy: BatchPolicy) -> Batcher {
        let stats = Arc::clone(matrix.serve_stats());
        Self::with_stats(matrix, policy, stats)
    }

    /// A batcher recording into a **private** [`ServeStats`] instead of the
    /// served matrix's shared instance, so [`Batcher::stats`] reports exactly
    /// this batcher's window — for measurement harnesses that replay several
    /// workloads over one registry and need per-replay reports. No service
    /// thread; call [`Batcher::start_service`] for the production shape.
    pub fn isolated(matrix: Arc<ServedMatrix>, policy: BatchPolicy) -> Batcher {
        Self::with_stats(matrix, policy, Arc::new(ServeStats::new()))
    }

    fn with_stats(
        matrix: Arc<ServedMatrix>,
        policy: BatchPolicy,
        stats: Arc<ServeStats>,
    ) -> Batcher {
        assert!(policy.max_batch > 0, "batch policy needs max_batch >= 1");
        Batcher {
            matrix,
            policy,
            queue: Arc::new(SharedQueue {
                state: Mutex::new(Queue {
                    pending: VecDeque::new(),
                    open: true,
                }),
                cv: Condvar::new(),
            }),
            stats,
            fail_injector: Arc::new(AtomicU64::new(0)),
            worker: None,
        }
    }

    /// Attach the background service thread to a manually-constructed batcher
    /// (idempotent — a running service is left in place).
    pub fn start_service(&mut self) {
        self.start(None);
    }

    fn start(&mut self, waker: Option<Waker>) {
        if self.worker.is_some() {
            return;
        }
        let queue = Arc::clone(&self.queue);
        let matrix = Arc::clone(&self.matrix);
        let stats = Arc::clone(&self.stats);
        let injector = Arc::clone(&self.fail_injector);
        let policy = self.policy;
        self.worker = Some(
            std::thread::Builder::new()
                .name(format!("spmv-serve-{}", matrix.name()))
                .spawn(move || service_loop(queue, matrix, policy, stats, injector, waker))
                .expect("spawn batcher service thread"),
        );
    }

    /// The served matrix this batcher fronts.
    pub fn matrix(&self) -> &Arc<ServedMatrix> {
        &self.matrix
    }

    /// The batching policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// The serve statistics (shared with the service loop).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Requests currently waiting.
    pub fn pending(&self) -> usize {
        self.queue.lock().pending.len()
    }

    /// Make the next `n` batch executions panic inside the caught region —
    /// the fault-injection hook behind the failure-path tests. Not intended
    /// for production use.
    #[doc(hidden)]
    pub fn inject_batch_panics(&self, n: u64) {
        self.fail_injector.fetch_add(n, Ordering::Relaxed);
    }

    /// Enqueue one request, returning a [`Ticket`] for its result.
    ///
    /// Fails with [`ServeError::Closed`] once the batcher has been closed:
    /// the open flag is checked under the same lock the closer flips it, so a
    /// submit racing [`Batcher::close`] either lands before the flip (and is
    /// covered by the final flush) or errors — never strands.
    pub fn submit(&self, x: Vec<f64>) -> Result<Ticket> {
        self.submit_bounded(x, usize::MAX)
    }

    /// [`Batcher::submit`] with admission control: when `max_pending` requests
    /// are already waiting, the submit is refused with
    /// [`ServeError::Overloaded`] (and counted in [`ServeStats::sheds`])
    /// instead of growing the queue without bound. The check happens under the
    /// queue lock, so the bound is exact even under concurrent submitters —
    /// the load-shed primitive of the networked front-end.
    pub fn submit_bounded(&self, x: Vec<f64>, max_pending: usize) -> Result<Ticket> {
        let mut tickets = self.submit_block(vec![x], max_pending)?;
        Ok(tickets.pop().expect("one ticket per submitted column"))
    }

    /// Enqueue a block of columns atomically: all of them are admitted under
    /// one queue lock with one notify, or none is. The block is refused with
    /// [`ServeError::Overloaded`] (one shed counted) when it does not fit in
    /// `max_pending` alongside the requests already waiting, so a shed block
    /// costs no kernel work. Returns one [`Ticket`] per column, in order. With
    /// the work-conserving cut a block of at most `max_batch` columns
    /// submitted to an idle queue is served as one SpMM batch.
    pub fn submit_block(&self, cols: Vec<Vec<f64>>, max_pending: usize) -> Result<Vec<Ticket>> {
        if let Some(bad) = cols.iter().find(|x| x.len() != self.matrix.ncols()) {
            return Err(ServeError::DimensionMismatch {
                expected: self.matrix.ncols(),
                found: bad.len(),
            });
        }
        let now = Instant::now();
        let mut tickets = Vec::with_capacity(cols.len());
        {
            let mut state = self.queue.lock();
            if !state.open {
                return Err(ServeError::Closed);
            }
            let pending = state.pending.len();
            if pending.saturating_add(cols.len()) > max_pending {
                drop(state);
                self.stats.record_shed();
                return Err(ServeError::Overloaded { pending });
            }
            for x in cols {
                let (tx, rx) = mpsc::channel();
                state.pending.push_back(Request {
                    x,
                    reply: tx,
                    submitted: now,
                });
                tickets.push(Ticket { rx });
            }
            self.queue.cv.notify_all();
        }
        self.stats.record_submit(now);
        Ok(tickets)
    }

    /// Blocking convenience: submit and wait.
    pub fn apply(&self, x: Vec<f64>) -> Result<Vec<f64>> {
        self.submit(x)?.wait()
    }

    /// Close the queue: subsequent [`Batcher::submit`] calls error with
    /// [`ServeError::Closed`]; requests already queued are still served (the
    /// service loop's final flush, or the caller's remaining
    /// [`Batcher::run_once`] calls in manual mode). Idempotent.
    pub fn close(&self) {
        let mut state = self.queue.lock();
        state.open = false;
        self.queue.cv.notify_all();
    }

    /// Drain up to `max_batch` currently-waiting requests and serve them as one
    /// SpMM batch *on the calling thread*. Returns the batch width (0 when the
    /// queue was empty). This is the manual driving mode; with a background
    /// service thread it is still safe, but batch composition becomes racy.
    pub fn run_once(&self) -> usize {
        let batch = {
            let mut state = self.queue.lock();
            drain_batch(&mut state.pending, self.policy.max_batch)
        };
        execute_batch(&self.matrix, batch, &self.stats, &self.fail_injector)
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.close();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
        // Manual mode (or a service thread that died before its final flush):
        // explicitly fail anything still pending so no ticket ever hangs.
        let leftovers: Vec<Request> = self.queue.lock().pending.drain(..).collect();
        for request in leftovers {
            let _ = request.reply.send(Err(ServeError::Closed));
        }
    }
}

/// Take up to `max_batch` requests off the front of the queue.
fn drain_batch(pending: &mut VecDeque<Request>, max_batch: usize) -> Vec<Request> {
    let n = pending.len().min(max_batch);
    pending.drain(..n).collect()
}

/// Consume one injected fault, if any are pending.
fn take_injected_panic(injector: &AtomicU64) -> bool {
    injector
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
        .is_ok()
}

/// Serve one drained batch: assemble the column-major source block, run one
/// engine SpMM, reply per request, record stats. Returns the batch width.
///
/// A panic anywhere in the execution (kernel bug or injected fault) is caught
/// here: the batch's requests are failed with [`ServeError::BatchPanicked`],
/// the failure is counted, and the caller — service loop or manual driver —
/// continues serving.
fn execute_batch(
    matrix: &ServedMatrix,
    batch: Vec<Request>,
    stats: &ServeStats,
    injector: &AtomicU64,
) -> usize {
    let k = batch.len();
    if k == 0 {
        return 0;
    }
    let drained = Instant::now();
    for request in &batch {
        stats.record_queue_wait(drained.saturating_duration_since(request.submitted));
    }
    let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if take_injected_panic(injector) {
            panic!("injected batch execution failure");
        }
        let columns: Vec<&[f64]> = batch.iter().map(|r| r.x.as_slice()).collect();
        let x = MultiVec::from_columns(&columns);
        let mut y = MultiVec::zeros(matrix.nrows(), k);
        let exec = matrix.spmm_into(&x, &mut y);
        (y, exec)
    }));
    match executed {
        Ok((y, exec)) => {
            stats.record_batch(k, (2 * matrix.nnz() * k) as f64, exec);
            for (j, request) in batch.into_iter().enumerate() {
                // Record before replying: the reply wakes the waiter, and a
                // caller snapshotting stats right after `wait` returns must
                // already see this request counted.
                stats.record_request(request.submitted.elapsed());
                // A client that gave up (dropped its ticket) just discards the send.
                let _ = request.reply.send(Ok(y.col(j).to_vec()));
            }
        }
        Err(_) => {
            stats.record_batch_failure();
            for request in batch {
                let _ = request.reply.send(Err(ServeError::BatchPanicked));
            }
        }
    }
    k
}

/// The background service loop: wait for work, cut batches per the policy,
/// execute, wake the owner's [`Waker`] (if any). On shutdown every request
/// enqueued before the close is flushed before the thread exits — `submit`
/// checks the open flag under the queue lock, so nothing can be enqueued after
/// the loop observes the close with an empty queue.
fn service_loop(
    queue: Arc<SharedQueue>,
    matrix: Arc<ServedMatrix>,
    policy: BatchPolicy,
    stats: Arc<ServeStats>,
    injector: Arc<AtomicU64>,
    waker: Option<Waker>,
) {
    loop {
        let batch = {
            let mut state = queue.lock();
            loop {
                if state.pending.is_empty() {
                    if !state.open {
                        // Final flush complete: the queue is closed and empty,
                        // and a closed queue accepts no submits — exit.
                        return;
                    }
                    state = queue.wait(state);
                    continue;
                }
                if policy.max_wait.is_zero()
                    || state.pending.len() >= policy.max_batch
                    || !state.open
                {
                    break;
                }
                let deadline = state.pending.front().unwrap().submitted + policy.max_wait;
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                state = queue.wait_timeout(state, deadline - now);
            }
            drain_batch(&mut state.pending, policy.max_batch)
        };
        execute_batch(&matrix, batch, &stats, &injector);
        if let Some(waker) = &waker {
            waker.wake_by_ref();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MatrixRegistry;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spmv_core::formats::{CooMatrix, CsrMatrix};
    use spmv_core::tuning::TuningConfig;

    fn served(seed: u64) -> Arc<ServedMatrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(48, 36);
        for _ in 0..500 {
            coo.push(
                rng.random_range(0..48),
                rng.random_range(0..36),
                rng.random_range(-1.0..1.0),
            );
        }
        let csr = CsrMatrix::from_coo(&coo);
        let registry = MatrixRegistry::new(2, TuningConfig::full());
        registry.insert("m", &csr).unwrap()
    }

    fn request_x(j: usize) -> Vec<f64> {
        (0..36)
            .map(|i| ((i * 7 + j * 3) % 23) as f64 * 0.5)
            .collect()
    }

    #[test]
    fn manual_mode_serves_a_burst_as_one_batch() {
        let batcher = Batcher::manual(served(1), BatchPolicy::default());
        let tickets: Vec<Ticket> = (0..8)
            .map(|j| batcher.submit(request_x(j)).unwrap())
            .collect();
        assert_eq!(batcher.pending(), 8);
        assert_eq!(batcher.run_once(), 8);
        for (j, ticket) in tickets.into_iter().enumerate() {
            let y = ticket.wait().unwrap();
            assert_eq!(y, batcher.matrix().spmv_now(&request_x(j)).unwrap());
        }
        let report = batcher.stats().snapshot();
        assert_eq!(report.batches, 1);
        assert_eq!(report.requests, 8);
        assert_eq!(report.batch_k_histogram, vec![(8, 1)]);
    }

    #[test]
    fn manual_mode_splits_oversized_bursts_at_max_batch() {
        let policy = BatchPolicy {
            max_batch: 4,
            ..BatchPolicy::default()
        };
        let batcher = Batcher::manual(served(2), policy);
        let tickets: Vec<Ticket> = (0..10)
            .map(|j| batcher.submit(request_x(j)).unwrap())
            .collect();
        assert_eq!(batcher.run_once(), 4);
        assert_eq!(batcher.run_once(), 4);
        assert_eq!(batcher.run_once(), 2);
        assert_eq!(batcher.run_once(), 0);
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let report = batcher.stats().snapshot();
        assert_eq!(report.batches, 3);
        assert!((report.avg_batch - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn background_mode_serves_concurrent_clients_correctly() {
        let batcher = Arc::new(Batcher::spawn(
            served(3),
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
            },
        ));
        let handles: Vec<_> = (0..12)
            .map(|j| {
                let batcher = Arc::clone(&batcher);
                std::thread::spawn(move || {
                    let y = batcher.apply(request_x(j)).unwrap();
                    (j, y)
                })
            })
            .collect();
        for handle in handles {
            let (j, y) = handle.join().unwrap();
            assert_eq!(y, batcher.matrix().spmv_now(&request_x(j)).unwrap());
        }
        let report = batcher.stats().snapshot();
        assert_eq!(report.requests, 12);
        assert!(report.batches >= 3, "4-wide cap means at least 3 batches");
        assert!(report.busy_gflops > 0.0);
        assert!(report.max_latency >= report.mean_latency);
    }

    #[test]
    fn shutdown_flushes_pending_requests() {
        let batcher = Batcher::spawn(
            served(4),
            BatchPolicy {
                max_batch: 64,
                max_wait: Duration::from_secs(60), // never cut by age during the test
            },
        );
        let tickets: Vec<Ticket> = (0..5)
            .map(|j| batcher.submit(request_x(j)).unwrap())
            .collect();
        drop(batcher); // close + flush + join
        for ticket in tickets {
            assert!(
                ticket.wait().is_ok(),
                "pending requests are flushed on drop"
            );
        }
    }

    #[test]
    fn submit_after_close_and_bad_lengths_error() {
        let batcher = Batcher::manual(served(5), BatchPolicy::default());
        assert!(matches!(
            batcher.submit(vec![0.0; 7]),
            Err(ServeError::DimensionMismatch { .. })
        ));
        batcher.close();
        assert!(matches!(
            batcher.submit(request_x(0)),
            Err(ServeError::Closed)
        ));
        // close is idempotent.
        batcher.close();
        assert!(matches!(
            batcher.apply(request_x(0)),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn try_wait_polls_without_blocking() {
        let batcher = Batcher::manual(served(6), BatchPolicy::default());
        let ticket = batcher.submit(request_x(0)).unwrap();
        assert!(ticket.try_wait().is_none());
        batcher.run_once();
        assert!(matches!(ticket.try_wait(), Some(Ok(_))));
    }

    #[test]
    fn bounded_submit_sheds_when_full() {
        let batcher = Batcher::manual(served(9), BatchPolicy::default());
        let _t0 = batcher.submit_bounded(request_x(0), 2).unwrap();
        let _t1 = batcher.submit_bounded(request_x(1), 2).unwrap();
        match batcher.submit_bounded(request_x(2), 2) {
            Err(ServeError::Overloaded { pending }) => assert_eq!(pending, 2),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(batcher.stats().sheds(), 1);
        batcher.run_once();
        // Queue drained: admission re-opens.
        assert!(batcher.submit_bounded(request_x(3), 2).is_ok());
        assert_eq!(batcher.stats().snapshot().sheds, 1);
    }

    #[test]
    fn a_block_is_served_as_one_batch_bit_identical_to_spmv() {
        let batcher = Batcher::manual(served(11), BatchPolicy::default());
        let cols: Vec<Vec<f64>> = (0..4).map(request_x).collect();
        let tickets = batcher.submit_block(cols, usize::MAX).unwrap();
        assert_eq!(batcher.pending(), 4);
        assert_eq!(batcher.run_once(), 4);
        for (j, ticket) in tickets.into_iter().enumerate() {
            let y = ticket.wait().unwrap();
            assert_eq!(y, batcher.matrix().spmv_now(&request_x(j)).unwrap());
        }
        assert_eq!(batcher.stats().snapshot().batch_k_histogram, vec![(4, 1)]);
    }

    #[test]
    fn a_block_that_does_not_fit_is_shed_whole() {
        let batcher = Batcher::manual(served(12), BatchPolicy::default());
        let _t0 = batcher.submit_bounded(request_x(0), 4).unwrap();
        let _t1 = batcher.submit_bounded(request_x(1), 4).unwrap();
        let block: Vec<Vec<f64>> = (2..5).map(request_x).collect();
        match batcher.submit_block(block, 4) {
            Err(ServeError::Overloaded { pending }) => assert_eq!(pending, 2),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(batcher.pending(), 2, "no column of a shed block is queued");
        assert_eq!(
            batcher.stats().sheds(),
            1,
            "one shed per block, not per column"
        );
        // A block that fits exactly is admitted whole.
        let block: Vec<Vec<f64>> = (2..4).map(request_x).collect();
        assert_eq!(batcher.submit_block(block, 4).unwrap().len(), 2);
        assert_eq!(batcher.pending(), 4);
    }

    #[test]
    fn a_block_after_close_or_with_a_bad_column_errors() {
        let batcher = Batcher::manual(served(13), BatchPolicy::default());
        let bad = vec![request_x(0), vec![0.0; 7]];
        assert!(matches!(
            batcher.submit_block(bad, usize::MAX),
            Err(ServeError::DimensionMismatch { found: 7, .. })
        ));
        assert_eq!(batcher.pending(), 0);
        batcher.close();
        assert!(matches!(
            batcher.submit_block(vec![request_x(0), request_x(1)], usize::MAX),
            Err(ServeError::Closed)
        ));
        assert_eq!(batcher.pending(), 0);
    }

    #[test]
    fn spawned_batcher_wakes_its_waker_after_each_batch() {
        struct Count(AtomicU64);
        impl std::task::Wake for Count {
            fn wake(self: Arc<Self>) {
                self.wake_by_ref();
            }
            fn wake_by_ref(self: &Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let count = Arc::new(Count(AtomicU64::new(0)));
        let batcher = Batcher::spawn_with_waker(
            served(14),
            BatchPolicy::default(),
            Some(Waker::from(Arc::clone(&count))),
        );
        for j in 0..3 {
            let ticket = batcher.submit(request_x(j)).unwrap();
            let y = ticket.wait().unwrap();
            assert_eq!(y, batcher.matrix().spmv_now(&request_x(j)).unwrap());
        }
        drop(batcher); // joins the service thread: every wake has happened
        assert_eq!(count.0.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn panic_in_batch_fails_tickets_and_keeps_queue_usable() {
        let batcher = Batcher::manual(served(7), BatchPolicy::default());
        batcher.inject_batch_panics(1);
        let doomed: Vec<Ticket> = (0..3)
            .map(|j| batcher.submit(request_x(j)).unwrap())
            .collect();
        assert_eq!(batcher.run_once(), 3);
        for ticket in doomed {
            assert!(matches!(ticket.wait(), Err(ServeError::BatchPanicked)));
        }
        // The queue (and its lock) survived: submit + serve still work.
        assert_eq!(batcher.pending(), 0);
        let ticket = batcher.submit(request_x(9)).unwrap();
        assert_eq!(batcher.run_once(), 1);
        assert_eq!(
            ticket.wait().unwrap(),
            batcher.matrix().spmv_now(&request_x(9)).unwrap()
        );
        let report = batcher.stats().snapshot();
        assert_eq!(report.failed_batches, 1);
        assert_eq!(report.batches, 1, "only the surviving batch counts");
        assert_eq!(report.requests, 1);
    }

    #[test]
    fn background_service_survives_a_panicked_batch() {
        let batcher = Batcher::spawn(
            served(8),
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_micros(50),
            },
        );
        batcher.inject_batch_panics(1);
        let doomed: Vec<Ticket> = (0..4)
            .map(|j| batcher.submit(request_x(j)).unwrap())
            .collect();
        let mut failed = 0;
        for ticket in doomed {
            match ticket
                .wait_timeout(Duration::from_secs(10))
                .expect("no ticket may hang")
            {
                Err(ServeError::BatchPanicked) => failed += 1,
                Ok(_) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(failed > 0, "the injected panic failed at least one request");
        // The service thread is still alive and serving.
        let y = batcher.apply(request_x(5)).unwrap();
        assert_eq!(y, batcher.matrix().spmv_now(&request_x(5)).unwrap());
        assert!(batcher.stats().failed_batches() >= 1);
    }

    #[test]
    fn concurrent_close_under_load_strands_nothing() {
        for round in 0..4 {
            let batcher = Arc::new(Batcher::spawn(
                served(10 + round),
                BatchPolicy {
                    max_batch: 4,
                    max_wait: Duration::from_micros(20),
                },
            ));
            let clients: Vec<_> = (0..4)
                .map(|c| {
                    let batcher = Arc::clone(&batcher);
                    std::thread::spawn(move || {
                        let mut served_ok = 0usize;
                        let mut closed = 0usize;
                        for j in 0..50 {
                            match batcher.submit(request_x(c * 50 + j)) {
                                Ok(ticket) => {
                                    match ticket
                                        .wait_timeout(Duration::from_secs(10))
                                        .expect("ticket must resolve: served or failed, never hung")
                                    {
                                        Ok(_) => served_ok += 1,
                                        Err(ServeError::Closed) => closed += 1,
                                        Err(e) => panic!("unexpected error {e}"),
                                    }
                                }
                                Err(ServeError::Closed) => {
                                    closed += 1;
                                    break;
                                }
                                Err(e) => panic!("unexpected submit error {e}"),
                            }
                        }
                        (served_ok, closed)
                    })
                })
                .collect();
            // Close mid-stream: submits before the flip are flushed, submits
            // after it error — nothing hangs either way.
            std::thread::sleep(Duration::from_micros(200 * round));
            batcher.close();
            let mut total = 0;
            for client in clients {
                let (served_ok, _closed) = client.join().unwrap();
                total += served_ok;
            }
            // All successfully submitted requests were served (the final
            // flush covered the stragglers); the exact split depends on the
            // race, the invariant is "no hang, no stranded ticket". Snapshot
            // only after the service thread joined, so every served request
            // has been recorded.
            let matrix = Arc::clone(batcher.matrix());
            drop(batcher);
            let report = matrix.serve_stats().snapshot();
            assert_eq!(report.requests, total);
        }
    }
}
