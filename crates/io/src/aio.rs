//! Batched asynchronous I/O engine with the shape of Linux AIO (§V.B).
//!
//! The paper uses `libaio`'s two-step interface — `io_submit` batches many
//! reads in one call, `io_getevents` polls for completions — with direct
//! I/O into userspace buffers. This engine reproduces that interface over
//! a [`StorageBackend`] and a worker pool: `submit` enqueues a batch and
//! returns immediately; `poll` collects finished reads. Overlap of I/O and
//! compute in the G-Store engine is built on exactly this pair of calls.
//! Each worker runs a request through the shared [`ReadPath`] — admission,
//! one positioned read, completion — so the pool itself is only a bounded
//! queue, threads and a mailbox.
//!
//! Completions arrive through a Condvar-notified mailbox: a blocking poll
//! sleeps until a worker pushes a completion, so a zero-completion wait
//! costs no CPU.

use crate::backend::StorageBackend;
use crate::buffer::BufferPool;
use crate::engine::{AioCompletion, AioRequest, IoBackend, IoEngine, ReadPath, WorkerDisconnected};
use crate::fault::IoFaultInjector;
use gstore_metrics::Recorder;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a blocked poll sleeps before rechecking what it is owed.
/// Every push notifies the poller, so this is only a safety net.
const POLL_RECHECK: Duration = Duration::from_millis(50);

/// Pushes and pops never panic while holding the mailbox lock.
const MAILBOX_POISONED: &str = "aio mailbox lock poisoned";

/// Completion mailbox shared by the workers and the polling thread. Every
/// push notifies the Condvar the poller waits on, so a blocked poll wakes
/// exactly when a completion lands — never on a timer-driven spin.
#[derive(Default)]
struct Mailbox {
    done: Mutex<VecDeque<AioCompletion>>,
    cond: Condvar,
}

impl Mailbox {
    fn push(&self, c: AioCompletion) {
        self.done.lock().expect(MAILBOX_POISONED).push_back(c);
        self.cond.notify_all();
    }
}

/// The bounded request queue the workers share (like the AIO context's
/// nr_events): a push blocks while `depth` requests wait, and a pop
/// returns `None` once the queue is closed and empty. Nothing panics while
/// holding its lock.
#[derive(Default)]
struct Queue {
    /// The waiting requests, and whether the engine has closed the queue.
    reqs: Mutex<(VecDeque<AioRequest>, bool)>,
    not_empty: Condvar,
    not_full: Condvar,
    depth: usize,
}

impl Queue {
    fn push(&self, req: AioRequest) {
        let reqs = self.reqs.lock().unwrap_or_else(PoisonError::into_inner);
        let full = |q: &mut (VecDeque<_>, bool)| q.0.len() >= self.depth;
        let mut reqs = self
            .not_full
            .wait_while(reqs, full)
            .unwrap_or_else(PoisonError::into_inner);
        reqs.0.push_back(req);
        drop(reqs);
        self.not_empty.notify_one();
    }

    fn pop(&self) -> Option<AioRequest> {
        let reqs = self.reqs.lock().unwrap_or_else(PoisonError::into_inner);
        let idle = |q: &mut (VecDeque<_>, bool)| q.0.is_empty() && !q.1;
        let mut reqs = self
            .not_empty
            .wait_while(reqs, idle)
            .unwrap_or_else(PoisonError::into_inner);
        let req = reqs.0.pop_front();
        drop(reqs);
        self.not_full.notify_one();
        req
    }
}

/// Batched async read engine over a storage backend.
pub struct AioEngine {
    queue: Arc<Queue>,
    mailbox: Arc<Mailbox>,
    path: Arc<ReadPath>,
    workers: Vec<JoinHandle<()>>,
}

impl AioEngine {
    /// Spawns `workers` I/O threads over `backend`. `queue_depth` bounds
    /// the submission queue (like the AIO context's nr_events); submits
    /// beyond it block, providing natural backpressure.
    pub fn new(backend: Arc<dyn StorageBackend>, workers: usize, queue_depth: usize) -> Self {
        Self::with_recorder(backend, workers, queue_depth, None, None)
    }

    /// Full-control constructor: `recorder`, when present, receives
    /// submit/complete events (request counts, bytes, queue occupancy,
    /// per-request latency), and `fault`, when present, fails requests at
    /// admission per its policy.
    pub fn with_recorder(
        backend: Arc<dyn StorageBackend>,
        workers: usize,
        queue_depth: usize,
        recorder: Option<Arc<dyn Recorder>>,
        fault: Option<IoFaultInjector>,
    ) -> Self {
        let queue = Arc::new(Queue {
            depth: queue_depth.max(1),
            ..Queue::default()
        });
        let mailbox = Arc::new(Mailbox::default());
        let path = Arc::new(ReadPath::new(
            backend.len(),
            IoBackend::Workers,
            recorder,
            fault,
        ));
        let workers = (0..workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let mailbox = Arc::clone(&mailbox);
                let path = Arc::clone(&path);
                let backend = Arc::clone(&backend);
                // `serve` catches a panicking backend, so a worker lives
                // until the queue closes.
                std::thread::spawn(move || {
                    while let Some(req) = queue.pop() {
                        mailbox.push(path.serve(&*backend, req));
                    }
                })
            })
            .collect();
        AioEngine {
            queue,
            mailbox,
            path,
            workers,
        }
    }
}

impl IoEngine for AioEngine {
    /// The `io_submit` analogue: queues the batch for the workers (blocks
    /// while the queue is full).
    fn submit(&self, batch: Vec<AioRequest>) -> usize {
        let n = batch.len();
        self.path.submitted(&batch);
        for req in batch {
            self.queue.push(req);
        }
        n
    }

    /// The `io_getevents` analogue. The wait is event-driven: workers
    /// notify the mailbox on every push, so a blocked poll wakes when a
    /// completion lands. Read failures — a panicking backend included —
    /// arrive as completions with an `Err` payload, so this never returns
    /// [`WorkerDisconnected`].
    fn poll(&self, min: usize, max: usize) -> Result<Vec<AioCompletion>, WorkerDisconnected> {
        let max = max.max(1);
        let mut out = Vec::new();
        let mut done = self.mailbox.done.lock().expect(MAILBOX_POISONED);
        loop {
            let take = done.len().min(max - out.len());
            out.extend(done.drain(..take));
            // Requests still owed to us = submitted-but-unpolled minus
            // what we already hold in `out`.
            if out.len() >= min.min(max) || self.path.in_flight() <= out.len() {
                break;
            }
            done = self
                .mailbox
                .cond
                .wait_timeout(done, POLL_RECHECK)
                .expect(MAILBOX_POISONED)
                .0;
        }
        drop(done);
        self.path.settle(out, false)
    }

    fn in_flight(&self) -> usize {
        self.path.in_flight()
    }

    fn buffer_pool(&self) -> &BufferPool {
        self.path.buffer_pool()
    }

    fn kind(&self) -> IoBackend {
        IoBackend::Workers
    }
}

impl Drop for AioEngine {
    fn drop(&mut self) {
        // Closing the queue stops the workers once it is empty.
        self.queue
            .reqs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .1 = true;
        self.queue.not_empty.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use std::io;
    use std::time::Instant;

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

    /// A zero-completion poll must sleep on the Condvar, not spin: a
    /// recv_timeout loop woken on a short timer is a full-core spin for
    /// the whole wait.
    #[test]
    fn zero_completion_poll_does_not_spin_the_cpu() {
        let delay = Duration::from_millis(250);
        let eng = AioEngine::new(Arc::new(SlowBackend { delay }), 1, 8);
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

    /// Backend whose reads panic.
    struct PanicBackend;

    impl StorageBackend for PanicBackend {
        fn len(&self) -> u64 {
            1 << 20
        }
        fn read_at(&self, _offset: u64, _buf: &mut [u8]) -> std::io::Result<()> {
            panic!("injected backend panic");
        }
    }

    fn poisoned(n: u64) -> Vec<AioRequest> {
        (0..n)
            .map(|tag| AioRequest {
                tag,
                offset: 0,
                len: 64,
            })
            .collect()
    }

    #[test]
    fn dead_worker_pool_surfaces_typed_error() {
        // A backend panic fails the request that hit it, as a typed
        // completion error; the pool stays up, so every request — more
        // than there are workers — completes and nothing is left owed.
        let workers = 2;
        let eng = AioEngine::new(Arc::new(PanicBackend), workers, 16);
        eng.submit(poisoned(workers as u64 + 1));
        let mut failed = 0;
        while eng.in_flight() > 0 {
            for c in eng.poll(1, 8).unwrap() {
                let err = c.result.unwrap_err();
                assert!(err.to_string().contains("panicked"), "{err}");
                failed += 1;
            }
        }
        assert_eq!(failed, workers + 1);
        assert_eq!(eng.in_flight(), 0, "every request must be settled");
        assert_eq!(eng.buffer_pool().stats().outstanding, 0);
        // drain() terminates, and a disconnect (the ring's failure mode)
        // still converts to a distinguishable io::Error.
        assert!(eng.drain().unwrap().is_empty());
        let io_err: io::Error = WorkerDisconnected { lost: 1 }.into();
        assert_eq!(io_err.kind(), io::ErrorKind::BrokenPipe);
        assert!(io_err
            .get_ref()
            .is_some_and(|e| e.downcast_ref::<WorkerDisconnected>().is_some()));
    }

    #[test]
    fn partial_pool_death_does_not_hang_poll() {
        // One panicking request on a two-worker pool: the other worker
        // lives, so a pool that loses the panicking worker (and its
        // request) waits forever. Poll on a helper thread so a hang
        // fails the test instead of stalling it.
        let eng = Arc::new(AioEngine::new(Arc::new(PanicBackend), 2, 16));
        eng.submit(poisoned(1));
        let (tx, rx) = std::sync::mpsc::channel();
        let poller = Arc::clone(&eng);
        std::thread::spawn(move || {
            let got = poller.poll(1, 8).map(|done| done.len());
            let _ = tx.send(got);
        });
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("poll hung on a request its dead worker took down");
        assert_eq!(got, Ok(1));
        assert_eq!(eng.in_flight(), 0);
    }

    #[test]
    fn submit_after_backend_panics_never_panics() {
        // Every worker hits the panic. The next submit must queue, and
        // poll and drain must return its failure, not panic or hang.
        let eng = AioEngine::new(Arc::new(PanicBackend), 1, 4);
        eng.submit(poisoned(1));
        assert!(eng.poll(1, 1).unwrap()[0].result.is_err());
        eng.submit(poisoned(3));
        let done = eng.drain().unwrap();
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|c| c.result.is_err()));
        assert_eq!(eng.in_flight(), 0);
    }

    #[test]
    fn drop_joins_workers() {
        let eng = AioEngine::new(Arc::new(MemBackend::new(vec![0u8; 4096])), 4, 64);
        eng.submit(vec![AioRequest {
            tag: 0,
            offset: 0,
            len: 8,
        }]);
        drop(eng); // must not hang or panic
    }
}
