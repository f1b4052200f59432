//! Batched asynchronous I/O engine with the shape of Linux AIO (§V.B).
//!
//! The paper uses `libaio`'s two-step interface — `io_submit` batches many
//! reads in one call, `io_getevents` polls for completions — with direct
//! I/O into userspace buffers. This engine reproduces that interface over
//! a [`StorageBackend`] and a worker pool: [`AioEngine::submit`] enqueues a
//! batch and returns immediately; [`AioEngine::poll`] collects finished
//! reads. Overlap of I/O and compute in the G-Store engine is built on
//! exactly this pair of calls.
//!
//! Completions arrive through a Condvar-notified queue: a blocking poll
//! sleeps until a worker pushes a completion (or the pool dies), so a
//! zero-completion wait costs no CPU regardless of how short the
//! configured poll interval is.

use crate::backend::{align_range, StorageBackend, SECTOR};
use crate::buffer::{BufferPool, PooledBuf};
use crate::engine::{IoBackend, IoEngine};
use crate::fault::IoFaultInjector;
use crossbeam::channel::{bounded, Receiver, Sender};
use gstore_metrics::Recorder;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One read request: `tag` is opaque to the engine and identifies the
/// request in its completion (the paper tags requests with tile IDs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AioRequest {
    pub tag: u64,
    pub offset: u64,
    pub len: usize,
}

/// A finished read. The payload is a pooled buffer handle: dropping it (or
/// the whole completion) returns the underlying buffer to the engine's
/// [`BufferPool`] for reuse by later reads — completions borrow pool
/// memory rather than owning a fresh allocation.
#[derive(Debug)]
pub struct AioCompletion {
    pub tag: u64,
    pub offset: u64,
    /// The bytes read, or the error that occurred.
    pub result: io::Result<PooledBuf>,
}

enum WorkerMsg {
    Read(AioRequest),
    Shutdown,
}

/// Default completion-poll wakeup interval (the old hardcoded value).
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Floor on each blocking Condvar wait inside `poll`. Completion arrival
/// notifies the poller immediately, so the timed wait is only a safety
/// recheck — waking more than ~1000×/s buys nothing and a caller-supplied
/// microsecond interval must not turn the wait into a spin.
const POLL_WAIT_FLOOR: Duration = Duration::from_millis(1);

/// Typed error for the one failure [`AioEngine::poll`] cannot express as a
/// per-request [`AioCompletion`]: the engine's request path is dead (e.g.
/// every worker thread exited after a backend panic, or an io_uring ring
/// broke) while requests were still owed. Distinguishing this from an
/// ordinary failed read matters on the engine's drain-on-error path — a
/// failed read still completes and recycles its buffer, a dead request
/// path never will, so waiting on it would hang forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerDisconnected {
    /// Requests that were in flight when the disconnect was observed.
    pub lost: usize,
}

impl std::fmt::Display for WorkerDisconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "io engine request path disconnected with {} request(s) in flight",
            self.lost
        )
    }
}

impl std::error::Error for WorkerDisconnected {}

impl From<WorkerDisconnected> for io::Error {
    fn from(e: WorkerDisconnected) -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, e)
    }
}

/// Completion mailbox shared by the workers and the polling thread. Every
/// state change that can unblock a poll (a push, a worker exiting)
/// notifies under the same lock the poller waits on, so a blocked poll
/// wakes exactly when something happened — never on a timer-driven spin.
pub(crate) struct CompletionQueue {
    state: Mutex<CqState>,
    cond: Condvar,
}

struct CqState {
    done: VecDeque<AioCompletion>,
    live_workers: usize,
}

impl CompletionQueue {
    pub(crate) fn new(live_workers: usize) -> Self {
        CompletionQueue {
            state: Mutex::new(CqState {
                done: VecDeque::new(),
                live_workers,
            }),
            cond: Condvar::new(),
        }
    }

    pub(crate) fn push(&self, c: AioCompletion) {
        let mut st = self.state.lock().unwrap();
        st.done.push_back(c);
        self.cond.notify_all();
    }

    fn worker_exited(&self) {
        let mut st = self.state.lock().unwrap();
        st.live_workers = st.live_workers.saturating_sub(1);
        self.cond.notify_all();
    }
}

/// Decrements the live-worker count even when the worker unwinds from a
/// backend panic — the poller must learn the pool shrank either way.
struct WorkerExitGuard(Arc<CompletionQueue>);

impl Drop for WorkerExitGuard {
    fn drop(&mut self) {
        self.0.worker_exited();
    }
}

/// Batched async read engine over a storage backend.
pub struct AioEngine {
    submit_tx: Sender<WorkerMsg>,
    cq: Arc<CompletionQueue>,
    in_flight: Arc<AtomicUsize>,
    workers: Vec<JoinHandle<()>>,
    recorder: Option<Arc<dyn Recorder>>,
    pool: BufferPool,
    poll_interval_ns: AtomicU64,
    /// Engine-level fault injection, checked by workers at the request
    /// path (set once; shared with every worker thread).
    fault: Arc<OnceLock<IoFaultInjector>>,
}

impl AioEngine {
    /// Spawns `workers` I/O threads over `backend`. `queue_depth` bounds
    /// the submission queue (like the AIO context's nr_events); submits
    /// beyond it block, providing natural backpressure.
    pub fn new(backend: Arc<dyn StorageBackend>, workers: usize, queue_depth: usize) -> Self {
        Self::build(backend, workers, queue_depth, false, None)
    }

    /// Like [`AioEngine::new`] but issues sector-aligned reads, the way
    /// O_DIRECT requires (§V.B): each request's window is rounded to
    /// 512-byte boundaries (clamped to the backend length) and the caller
    /// receives exactly the bytes asked for.
    pub fn new_direct(
        backend: Arc<dyn StorageBackend>,
        workers: usize,
        queue_depth: usize,
    ) -> Self {
        Self::build(backend, workers, queue_depth, true, None)
    }

    /// Full-control constructor: `direct` selects sector-aligned reads and
    /// `recorder`, when present, receives submit/complete events (request
    /// counts, bytes, queue occupancy, per-request latency). With no
    /// recorder, no timestamps are taken at all.
    pub fn with_recorder(
        backend: Arc<dyn StorageBackend>,
        workers: usize,
        queue_depth: usize,
        direct: bool,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Self {
        Self::build(backend, workers, queue_depth, direct, recorder)
    }

    fn build(
        backend: Arc<dyn StorageBackend>,
        workers: usize,
        queue_depth: usize,
        direct: bool,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Self {
        let workers_n = workers.max(1);
        let (submit_tx, submit_rx) = bounded::<WorkerMsg>(queue_depth.max(1));
        let cq = Arc::new(CompletionQueue::new(workers_n));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let pool = BufferPool::with_recorder(recorder.clone());
        let fault: Arc<OnceLock<IoFaultInjector>> = Arc::new(OnceLock::new());
        let handles = (0..workers_n)
            .map(|_| {
                let rx = submit_rx.clone();
                let cq = Arc::clone(&cq);
                let backend = Arc::clone(&backend);
                let rec = recorder.clone();
                let pool = pool.clone();
                let fault = Arc::clone(&fault);
                std::thread::spawn(move || worker_loop(rx, cq, backend, pool, direct, rec, fault))
            })
            .collect();
        AioEngine {
            submit_tx,
            cq,
            in_flight,
            workers: handles,
            recorder,
            pool,
            poll_interval_ns: AtomicU64::new(DEFAULT_POLL_INTERVAL.as_nanos() as u64),
            fault,
        }
    }

    /// Installs engine-level fault injection: workers fail requests per
    /// the injector's policy before touching the backend — the same knob
    /// the io_uring engine honors, so failure tests run identically on
    /// both. One-shot: later calls are ignored.
    pub fn set_fault(&self, fault: IoFaultInjector) {
        let _ = self.fault.set(fault);
    }

    /// Upper bound on each blocking Condvar wait inside
    /// [`AioEngine::poll`]. Completion arrival wakes the poller
    /// immediately; this interval only bounds how often an idle wait
    /// rechecks its exit conditions.
    pub fn poll_interval(&self) -> Duration {
        Duration::from_nanos(self.poll_interval_ns.load(Ordering::Relaxed))
    }

    /// Overrides the completion-poll recheck interval (zero is clamped to
    /// one microsecond; waits additionally floor at 1ms because arrival
    /// notifications — not the timer — deliver completions).
    pub fn set_poll_interval(&self, interval: Duration) {
        let ns = interval.max(Duration::from_micros(1)).as_nanos() as u64;
        self.poll_interval_ns.store(ns, Ordering::Relaxed);
    }

    /// The engine's buffer pool. Completions recycle into it; its stats
    /// expose reuse behaviour (hit rate, outstanding handles).
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Submits a batch of reads in one call (the `io_submit` analogue).
    /// Returns the number submitted (always the full batch; blocks if the
    /// queue is full).
    pub fn submit(&self, batch: Vec<AioRequest>) -> usize {
        let n = batch.len();
        let occupancy = self.in_flight.fetch_add(n, Ordering::SeqCst) + n;
        if let Some(rec) = &self.recorder {
            let bytes: u64 = batch.iter().map(|r| r.len as u64).sum();
            rec.io_submitted(n as u64, bytes, occupancy as u64);
        }
        for req in batch {
            self.submit_tx
                .send(WorkerMsg::Read(req))
                .expect("aio workers alive while engine exists");
        }
        n
    }

    /// Polls for completions (the `io_getevents` analogue): waits until at
    /// least `min` events are available (or nothing is in flight), returns
    /// at most `max`.
    ///
    /// The wait is event-driven: workers notify the completion queue's
    /// Condvar on every push, so a blocked poll wakes when a completion
    /// lands, not on a polling timer. The configured
    /// [`poll_interval`](AioEngine::poll_interval) (floored at 1ms) only
    /// bounds how long a wait can go without rechecking `in_flight`.
    ///
    /// If the worker pool has died while requests are still owed, any
    /// completions already received are returned first; a subsequent call
    /// returns [`WorkerDisconnected`] (and writes off the lost requests so
    /// accounting cannot wedge). Per-request read failures are *not*
    /// errors here — they arrive as completions with an `Err` payload.
    pub fn poll(&self, min: usize, max: usize) -> Result<Vec<AioCompletion>, WorkerDisconnected> {
        let mut out = Vec::new();
        let max = max.max(1);
        let wait = self.poll_interval().max(POLL_WAIT_FLOOR);
        let mut disconnected;
        {
            let mut st = self.cq.state.lock().unwrap();
            loop {
                while out.len() < max {
                    match st.done.pop_front() {
                        Some(c) => out.push(c),
                        None => break,
                    }
                }
                // Disconnected only once the queue is empty: completions
                // pushed before the last worker died still count.
                disconnected = st.live_workers == 0 && st.done.is_empty();
                if disconnected || out.len() >= min.min(max) {
                    break;
                }
                // Requests still owed to us = submitted-but-unpolled minus
                // what we already hold in `out`.
                if self.in_flight.load(Ordering::SeqCst) <= out.len() {
                    break;
                }
                st = self.cq.cond.wait_timeout(st, wait).unwrap().0;
            }
        }
        let owed = self.in_flight.fetch_sub(out.len(), Ordering::SeqCst) - out.len();
        if disconnected && out.is_empty() && owed > 0 {
            // The owed requests can never complete; write them off so the
            // caller's next drain/poll terminates instead of spinning.
            self.in_flight.fetch_sub(owed, Ordering::SeqCst);
            return Err(WorkerDisconnected { lost: owed });
        }
        Ok(out)
    }

    /// Blocks until every submitted request has completed and returns all
    /// completions. Returns [`WorkerDisconnected`] if the worker pool died
    /// first (completions gathered before the disconnect are dropped,
    /// which recycles their buffers into the pool).
    pub fn drain(&self) -> Result<Vec<AioCompletion>, WorkerDisconnected> {
        let mut out = Vec::new();
        loop {
            let pending = self.in_flight.load(Ordering::SeqCst);
            if pending == 0 {
                break;
            }
            out.extend(self.poll(pending, pending)?);
        }
        Ok(out)
    }

    /// Requests submitted but not yet returned by `poll`.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }
}

impl IoEngine for AioEngine {
    fn submit(&self, batch: Vec<AioRequest>) -> usize {
        AioEngine::submit(self, batch)
    }
    fn poll(&self, min: usize, max: usize) -> Result<Vec<AioCompletion>, WorkerDisconnected> {
        AioEngine::poll(self, min, max)
    }
    fn drain(&self) -> Result<Vec<AioCompletion>, WorkerDisconnected> {
        AioEngine::drain(self)
    }
    fn in_flight(&self) -> usize {
        AioEngine::in_flight(self)
    }
    fn poll_interval(&self) -> Duration {
        AioEngine::poll_interval(self)
    }
    fn set_poll_interval(&self, interval: Duration) {
        AioEngine::set_poll_interval(self, interval)
    }
    fn buffer_pool(&self) -> &BufferPool {
        AioEngine::buffer_pool(self)
    }
    fn kind(&self) -> IoBackend {
        IoBackend::Workers
    }
}

impl Drop for AioEngine {
    fn drop(&mut self) {
        for _ in &self.workers {
            let _ = self.submit_tx.send(WorkerMsg::Shutdown);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    rx: Receiver<WorkerMsg>,
    cq: Arc<CompletionQueue>,
    backend: Arc<dyn StorageBackend>,
    pool: BufferPool,
    direct: bool,
    recorder: Option<Arc<dyn Recorder>>,
    fault: Arc<OnceLock<IoFaultInjector>>,
) {
    let _exit = WorkerExitGuard(Arc::clone(&cq));
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Shutdown => break,
            WorkerMsg::Read(req) => {
                if let Some(f) = fault.get() {
                    if f.should_fail(req.offset, req.len) {
                        if let Some(rec) = &recorder {
                            rec.fault_injected();
                            rec.io_completed(0, 0, true);
                            rec.io_backend_request(false, 0);
                        }
                        cq.push(AioCompletion {
                            tag: req.tag,
                            offset: req.offset,
                            result: Err(io::Error::other(format!(
                                "injected fault at offset {} len {}",
                                req.offset, req.len
                            ))),
                        });
                        continue;
                    }
                }
                // Timestamps only exist when someone is listening.
                let started = recorder.as_ref().map(|_| Instant::now());
                let result = if direct {
                    read_aligned(&*backend, &pool, req.offset, req.len)
                } else {
                    let mut buf = pool.acquire(req.len);
                    backend
                        .read_at(req.offset, buf.as_mut_slice())
                        .map(|()| buf)
                };
                if let (Some(rec), Some(t0)) = (&recorder, started) {
                    let latency = t0.elapsed().as_nanos() as u64;
                    match &result {
                        Ok(buf) => rec.io_completed(buf.len() as u64, latency, false),
                        Err(_) => rec.io_completed(0, latency, true),
                    }
                    rec.io_backend_request(false, latency);
                }
                cq.push(AioCompletion {
                    tag: req.tag,
                    offset: req.offset,
                    result,
                });
            }
        }
    }
}

/// Direct-style read: fetch the sector-aligned window covering the
/// requested range (clamped to the backend's tail) into a pooled buffer,
/// then narrow the handle's window to the bytes asked for — no copy, the
/// trim is just the window.
pub(crate) fn read_aligned(
    backend: &dyn StorageBackend,
    pool: &BufferPool,
    offset: u64,
    len: usize,
) -> io::Result<PooledBuf> {
    if len == 0 {
        return Ok(pool.acquire(0));
    }
    let (win_start, win_len, inner) = align_range(offset, len as u64);
    // A file's final partial sector cannot be read past EOF; clamp. The
    // window start stays aligned, so the request shape is still O_DIRECT
    // compatible for all but the tail read.
    let clamped = win_len.min(backend.len().saturating_sub(win_start));
    if (inner.end as u64) > clamped {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("read {offset}..{} beyond backend", offset + len as u64),
        ));
    }
    let mut buf = pool.acquire(clamped as usize);
    backend.read_at(win_start, buf.as_mut_slice())?;
    debug_assert_eq!(win_start % SECTOR, 0);
    buf.set_window(inner.start, inner.len());
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn engine(data_len: usize, workers: usize) -> (AioEngine, Vec<u8>) {
        let data: Vec<u8> = (0..data_len).map(|i| (i % 251) as u8).collect();
        let backend = Arc::new(MemBackend::new(data.clone()));
        (AioEngine::new(backend, workers, 64), data)
    }

    #[test]
    fn single_read_roundtrip() {
        let (eng, data) = engine(4096, 2);
        eng.submit(vec![AioRequest {
            tag: 7,
            offset: 100,
            len: 50,
        }]);
        let done = eng.drain().unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        assert_eq!(done[0].result.as_ref().unwrap().as_slice(), &data[100..150]);
        assert_eq!(eng.in_flight(), 0);
    }

    #[test]
    fn batched_reads_all_complete() {
        let (eng, data) = engine(1 << 16, 4);
        let batch: Vec<AioRequest> = (0..100)
            .map(|i| AioRequest {
                tag: i,
                offset: (i * 13) % 60_000,
                len: 64,
            })
            .collect();
        let expected: Vec<(u64, Vec<u8>)> = batch
            .iter()
            .map(|r| {
                (
                    r.tag,
                    data[r.offset as usize..r.offset as usize + 64].to_vec(),
                )
            })
            .collect();
        eng.submit(batch);
        let mut done = eng.drain().unwrap();
        assert_eq!(done.len(), 100);
        done.sort_by_key(|c| c.tag);
        for (c, (tag, bytes)) in done.iter().zip(expected) {
            assert_eq!(c.tag, tag);
            assert_eq!(c.result.as_ref().unwrap().as_slice(), bytes.as_slice());
        }
    }

    #[test]
    fn completions_recycle_into_the_pool() {
        let (eng, _) = engine(1 << 16, 2);
        for round in 0..3u64 {
            eng.submit(
                (0..10)
                    .map(|i| AioRequest {
                        tag: round * 10 + i,
                        offset: i * 512,
                        len: 4096,
                    })
                    .collect(),
            );
            // Dropping the completions returns every buffer to the pool.
            drop(eng.drain().unwrap());
        }
        let s = eng.buffer_pool().stats();
        assert_eq!(s.acquires, 30);
        assert_eq!(s.outstanding, 0);
        // Rounds 2 and 3 must be served entirely from recycled buffers.
        assert!(s.hits >= 20, "expected >=20 pool hits, got {}", s.hits);
    }

    #[test]
    fn poll_respects_max() {
        let (eng, _) = engine(4096, 2);
        let batch: Vec<AioRequest> = (0..10)
            .map(|i| AioRequest {
                tag: i,
                offset: 0,
                len: 16,
            })
            .collect();
        eng.submit(batch);
        let mut got = 0;
        while got < 10 {
            let c = eng.poll(1, 3).unwrap();
            assert!(c.len() <= 3);
            got += c.len();
        }
        assert_eq!(eng.in_flight(), 0);
    }

    #[test]
    fn poll_with_nothing_in_flight_returns_empty() {
        let (eng, _) = engine(4096, 1);
        assert!(eng.poll(1, 10).unwrap().is_empty());
    }

    #[test]
    fn out_of_range_read_reports_error() {
        let (eng, _) = engine(128, 1);
        eng.submit(vec![AioRequest {
            tag: 1,
            offset: 100,
            len: 64,
        }]);
        let done = eng.drain().unwrap();
        assert_eq!(done.len(), 1);
        assert!(done[0].result.is_err());
    }

    #[test]
    fn interleaved_submit_poll() {
        let (eng, data) = engine(1 << 14, 3);
        let mut seen = 0usize;
        for round in 0u64..5 {
            let batch: Vec<AioRequest> = (0..20)
                .map(|i| AioRequest {
                    tag: round * 20 + i,
                    offset: i * 64,
                    len: 32,
                })
                .collect();
            eng.submit(batch);
            seen += eng.poll(5, 100).unwrap().len();
        }
        seen += eng.drain().unwrap().len();
        assert_eq!(seen, 100);
        // Spot-check a known offset.
        let (eng2, _) = engine(1 << 14, 3);
        eng2.submit(vec![AioRequest {
            tag: 0,
            offset: 64,
            len: 4,
        }]);
        let done = eng2.drain().unwrap();
        assert_eq!(done[0].result.as_ref().unwrap().as_slice(), &data[64..68]);
    }

    /// Backend that records request geometry, for alignment assertions.
    struct Recording {
        inner: MemBackend,
        reqs: std::sync::Mutex<Vec<(u64, usize)>>,
    }

    impl StorageBackend for Recording {
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.reqs.lock().unwrap().push((offset, buf.len()));
            self.inner.read_at(offset, buf)
        }
    }

    #[test]
    fn direct_mode_issues_aligned_requests() {
        let data: Vec<u8> = (0..8192usize).map(|i| (i % 251) as u8).collect();
        let rec = Arc::new(Recording {
            inner: MemBackend::new(data.clone()),
            reqs: std::sync::Mutex::new(Vec::new()),
        });
        let eng = AioEngine::new_direct(rec.clone(), 2, 16);
        eng.submit(vec![
            AioRequest {
                tag: 0,
                offset: 10,
                len: 100,
            },
            AioRequest {
                tag: 1,
                offset: 600,
                len: 1000,
            },
        ]);
        let mut done = eng.drain().unwrap();
        done.sort_by_key(|c| c.tag);
        assert_eq!(done[0].result.as_ref().unwrap().as_slice(), &data[10..110]);
        assert_eq!(
            done[1].result.as_ref().unwrap().as_slice(),
            &data[600..1600]
        );
        for &(off, len) in rec.reqs.lock().unwrap().iter() {
            assert_eq!(off % 512, 0, "unaligned offset {off}");
            assert_eq!(len % 512, 0, "unaligned length {len}");
        }
    }

    #[test]
    fn direct_mode_handles_unaligned_tail() {
        // Backend ends mid-sector: the tail window is clamped, reads at
        // the very end still succeed, reads past it fail.
        let data = vec![5u8; 1000];
        let backend = Arc::new(MemBackend::new(data));
        let eng = AioEngine::new_direct(backend, 1, 8);
        eng.submit(vec![AioRequest {
            tag: 0,
            offset: 900,
            len: 100,
        }]);
        let done = eng.drain().unwrap();
        assert_eq!(done[0].result.as_ref().unwrap().len(), 100);
        eng.submit(vec![AioRequest {
            tag: 1,
            offset: 950,
            len: 100,
        }]);
        let done = eng.drain().unwrap();
        assert!(done[0].result.is_err());
    }

    #[test]
    fn poll_interval_is_configurable() {
        let (eng, _) = engine(4096, 1);
        assert_eq!(eng.poll_interval(), DEFAULT_POLL_INTERVAL);
        eng.set_poll_interval(Duration::from_millis(2));
        assert_eq!(eng.poll_interval(), Duration::from_millis(2));
        // Zero clamps instead of busy-spinning.
        eng.set_poll_interval(Duration::ZERO);
        assert!(eng.poll_interval() > Duration::ZERO);
        // Reads still work with a tiny interval.
        eng.submit(vec![AioRequest {
            tag: 0,
            offset: 0,
            len: 32,
        }]);
        assert_eq!(eng.drain().unwrap().len(), 1);
    }

    /// Backend whose reads block for a fixed time — a stand-in for a slow
    /// device, used to observe what a waiting poll costs.
    struct SlowBackend {
        delay: Duration,
    }

    impl StorageBackend for SlowBackend {
        fn len(&self) -> u64 {
            1 << 20
        }
        fn read_at(&self, _offset: u64, _buf: &mut [u8]) -> std::io::Result<()> {
            std::thread::sleep(self.delay);
            Ok(())
        }
    }

    /// CPU time the calling thread has used.
    fn thread_cpu_time() -> Duration {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        extern "C" {
            fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime failed");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }

    /// Regression test for the busy-wait fix: a zero-completion poll with
    /// a pathologically small poll interval must sleep on the Condvar, not
    /// spin. The old recv_timeout loop woke once per interval — at the 1µs
    /// clamp that is a full-core spin for the whole wait.
    #[test]
    fn zero_completion_poll_does_not_spin_the_cpu() {
        let delay = Duration::from_millis(250);
        let eng = AioEngine::new(Arc::new(SlowBackend { delay }), 1, 8);
        eng.set_poll_interval(Duration::from_micros(1));
        eng.submit(vec![AioRequest {
            tag: 0,
            offset: 0,
            len: 64,
        }]);
        // The poller is this thread: charge it only its own CPU, not that
        // of tests running beside it in the binary.
        let cpu0 = thread_cpu_time();
        let wall0 = Instant::now();
        let done = eng.poll(1, 1).unwrap();
        let wall = wall0.elapsed();
        let cpu = thread_cpu_time() - cpu0;
        assert_eq!(done.len(), 1);
        assert!(wall >= delay, "poll returned before the read finished");
        // The poller waits on the Condvar; a spinning one would burn ~one
        // core for the whole 250ms.
        assert!(
            cpu < Duration::from_millis(100),
            "zero-completion poll burned {cpu:?} CPU over {wall:?} wall"
        );
    }

    /// Backend whose reads panic, killing every worker thread that
    /// touches it — the only way a live engine loses its pool.
    struct PanicBackend;

    impl StorageBackend for PanicBackend {
        fn len(&self) -> u64 {
            1 << 20
        }
        fn read_at(&self, _offset: u64, _buf: &mut [u8]) -> std::io::Result<()> {
            panic!("injected worker death");
        }
    }

    #[test]
    fn dead_worker_pool_surfaces_typed_error() {
        let workers = 2;
        let eng = AioEngine::new(Arc::new(PanicBackend), workers, 16);
        eng.set_poll_interval(Duration::from_millis(1));
        // One poisoned request per worker plus one that can never be
        // served once the pool is dead.
        eng.submit(
            (0..workers as u64 + 1)
                .map(|i| AioRequest {
                    tag: i,
                    offset: 0,
                    len: 64,
                })
                .collect(),
        );
        // The owed requests never complete; poll must report the typed
        // disconnect error instead of hanging (or silently returning
        // empty batches forever).
        let err = loop {
            match eng.poll(1, 8) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.lost >= 1);
        assert_eq!(
            eng.in_flight(),
            0,
            "disconnect must write off lost requests"
        );
        // drain() terminates too (old code would spin forever here), and
        // the error converts to a distinguishable io::Error.
        assert!(eng.drain().is_ok());
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::BrokenPipe);
        assert!(io_err
            .get_ref()
            .is_some_and(|e| e.downcast_ref::<WorkerDisconnected>().is_some()));
    }

    #[test]
    fn engine_level_fault_injection_fails_requests() {
        let (eng, data) = engine(4096, 2);
        let fault = IoFaultInjector::new(crate::fault::FaultPolicy::FirstN(1));
        eng.set_fault(fault.clone());
        eng.submit(vec![AioRequest {
            tag: 0,
            offset: 0,
            len: 64,
        }]);
        let done = eng.drain().unwrap();
        assert!(done[0].result.is_err());
        assert_eq!(fault.injected(), 1);
        assert_eq!(eng.buffer_pool().stats().outstanding, 0);
        // Policy exhausted: the retry reads real bytes.
        eng.submit(vec![AioRequest {
            tag: 1,
            offset: 0,
            len: 64,
        }]);
        let done = eng.drain().unwrap();
        assert_eq!(done[0].result.as_ref().unwrap().as_slice(), &data[..64]);
    }

    #[test]
    fn drop_joins_workers() {
        let (eng, _) = engine(4096, 4);
        eng.submit(vec![AioRequest {
            tag: 0,
            offset: 0,
            len: 8,
        }]);
        drop(eng); // must not hang or panic
    }
}
