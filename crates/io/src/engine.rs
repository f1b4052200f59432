//! The shared completion-engine surface implemented by every storage
//! engine in this crate, and the one place a read request's life cycle is
//! written down.
//!
//! [`AioEngine`](crate::AioEngine) (pread worker pool) and
//! [`UringEngine`](crate::UringEngine) (raw `io_uring`) expose the same
//! submit/poll/drain pipeline; the G-Store engine programs against the
//! [`IoEngine`] trait and selects an implementation at build time via
//! [`IoBackend`]. Each engine keeps only its device — a thread pool or a
//! ring. Everything else a request goes through is [`ReadPath`]'s: submit
//! accounting, admission (fault injection, bounds), completion (short-read
//! check, recorder events) and poll settlement. Every read is buffered:
//! it goes through the OS page cache into a pooled buffer of exactly the
//! requested length. The point reader's synchronous miss path runs
//! through the same [`ReadPath`], so the fault seam and the `io` counters
//! cover every read whichever engine was picked.

use crate::backend::StorageBackend;
use crate::buffer::{BufferPool, PooledBuf};
use crate::fault::IoFaultInjector;
use gstore_metrics::Recorder;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// Typed error for the one failure [`IoEngine::poll`] cannot express as a
/// per-request [`AioCompletion`]: the engine's request path is dead (an
/// io_uring ring broke) while requests were still owed. Distinguishing
/// this from an ordinary failed read matters on the engine's
/// drain-on-error path — a failed read still completes and recycles its
/// buffer, a dead request path never will, so waiting on it would hang
/// forever.
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

/// Which I/O engine the builder should construct.
///
/// `Auto` probes `io_uring_setup` at runtime (once per process) and falls
/// back to the worker pool when the kernel or sandbox denies it — or when
/// the storage backend has no real file descriptor to hand the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackend {
    /// Probe io_uring; use it if available and the backend is file-backed,
    /// otherwise silently select the worker pool.
    #[default]
    Auto,
    /// Always use the pread worker pool.
    Workers,
    /// Require io_uring; construction fails with a typed error when the
    /// host denies it or the backend has no file descriptor.
    Uring,
}

impl IoBackend {
    /// Parses the CLI spelling (`auto` | `workers` | `uring`).
    pub fn parse(s: &str) -> Option<IoBackend> {
        match s {
            "auto" => Some(IoBackend::Auto),
            "workers" => Some(IoBackend::Workers),
            "uring" => Some(IoBackend::Uring),
            _ => None,
        }
    }

    /// The CLI spelling of this variant.
    pub fn as_str(&self) -> &'static str {
        match self {
            IoBackend::Auto => "auto",
            IoBackend::Workers => "workers",
            IoBackend::Uring => "uring",
        }
    }
}

impl std::fmt::Display for IoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Batched completion-driven read engine: the `io_submit`/`io_getevents`
/// pair the G-Store pipeline is built on, abstracted over implementation.
///
/// Contracts shared by all implementations:
/// - [`submit`](IoEngine::submit) enqueues a whole batch and returns
///   immediately; per-request failures surface later as completions with
///   an `Err` payload, never as submit-time panics.
/// - [`poll`](IoEngine::poll) waits until at least `min` completions are
///   available (or nothing is owed), returns at most `max`, and only
///   returns `Err` for the one failure that cannot arrive as a
///   completion: the engine's request path is dead with requests owed.
/// - Completion payloads are [`PooledBuf`] handles from
///   [`buffer_pool`](IoEngine::buffer_pool); dropping one recycles it.
pub trait IoEngine: Send + Sync {
    /// Submits a batch of reads in one call; returns the number accepted
    /// (always the full batch; may block on queue backpressure).
    fn submit(&self, batch: Vec<AioRequest>) -> usize;

    /// Polls for completions: waits for at least `min` (or until nothing
    /// is in flight), returns at most `max`.
    fn poll(&self, min: usize, max: usize) -> Result<Vec<AioCompletion>, WorkerDisconnected>;

    /// Requests submitted but not yet returned by `poll`.
    fn in_flight(&self) -> usize;

    /// The pool completions borrow their buffers from.
    fn buffer_pool(&self) -> &BufferPool;

    /// Which backend this engine is, for reporting (`"workers"`/`"uring"`).
    fn kind(&self) -> IoBackend;

    /// Blocks until every submitted request has completed and returns all
    /// completions. Returns [`WorkerDisconnected`] if the request path
    /// died first (completions gathered before it are dropped, which
    /// recycles their buffers into the pool).
    fn drain(&self) -> Result<Vec<AioCompletion>, WorkerDisconnected> {
        let mut out = Vec::new();
        loop {
            let pending = self.in_flight();
            if pending == 0 {
                return Ok(out);
            }
            out.extend(self.poll(pending, pending)?);
        }
    }
}

/// A read that passed admission: the device fills `buf` (the request's
/// length) from `offset`, then hands it to [`ReadPath::complete`].
pub(crate) struct Admitted {
    tag: u64,
    pub(crate) offset: u64,
    pub(crate) buf: PooledBuf,
    started: Option<Instant>,
}

/// The life cycle every read goes through, whichever device serves it:
/// in-flight accounting, admission, completion and poll settlement, with
/// the buffer pool completions borrow from and the recorder that hears
/// about each stage. With no recorder, no timestamps are taken at all.
pub struct ReadPath {
    pool: BufferPool,
    in_flight: AtomicUsize,
    backend_len: u64,
    uring: bool,
    recorder: Option<Arc<dyn Recorder>>,
    fault: Option<IoFaultInjector>,
}

impl ReadPath {
    /// A path over a backend of `backend_len` bytes. `kind` labels the
    /// per-engine recorder events; `fault`, when present, fails requests
    /// at admission per its policy.
    pub fn new(
        backend_len: u64,
        kind: IoBackend,
        recorder: Option<Arc<dyn Recorder>>,
        fault: Option<IoFaultInjector>,
    ) -> Self {
        ReadPath {
            pool: BufferPool::with_recorder(recorder.clone()),
            in_flight: AtomicUsize::new(0),
            backend_len,
            uring: kind == IoBackend::Uring,
            recorder,
            fault,
        }
    }

    /// The pool every admitted read acquires its buffer from.
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Requests submitted but not yet settled.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    pub(crate) fn recorder(&self) -> Option<&Arc<dyn Recorder>> {
        self.recorder.as_ref()
    }

    /// One whole life cycle on the calling thread: submit, read through
    /// `backend`, settle. Never panics, even when the backend does.
    pub fn read(&self, backend: &dyn StorageBackend, req: AioRequest) -> io::Result<PooledBuf> {
        self.submitted(std::slice::from_ref(&req));
        let done = self.serve(backend, req);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        done.result
    }

    /// Submit accounting for a batch about to enter the device.
    pub(crate) fn submitted(&self, batch: &[AioRequest]) {
        let n = batch.len();
        let occupancy = self.in_flight.fetch_add(n, Ordering::SeqCst) + n;
        if let Some(rec) = &self.recorder {
            let bytes: u64 = batch.iter().map(|r| r.len as u64).sum();
            rec.io_submitted(n as u64, bytes, occupancy as u64);
        }
    }

    /// Admission: the fault check and the bounds check.
    /// A refused request comes back as its (failed) completion.
    pub(crate) fn admit(&self, req: AioRequest) -> Result<Admitted, AioCompletion> {
        if let Some(fault) = &self.fault {
            if fault.should_fail(req.offset, req.len) {
                if let Some(rec) = &self.recorder {
                    rec.fault_injected();
                }
                let msg = format!("injected fault at offset {} len {}", req.offset, req.len);
                return Err(self.fail(req, io::Error::other(msg)));
            }
        }
        let Some(end) = req.offset.checked_add(req.len as u64) else {
            let err = io::Error::new(io::ErrorKind::InvalidInput, "offset + len overflow");
            return Err(self.fail(req, err));
        };
        // A zero-length read reads nothing, wherever it points.
        if req.len > 0 && end > self.backend_len {
            let msg = format!("read {}..{end} beyond backend", req.offset);
            return Err(self.fail(req, io::Error::new(io::ErrorKind::UnexpectedEof, msg)));
        }
        Ok(Admitted {
            tag: req.tag,
            offset: req.offset,
            buf: self.pool.acquire(req.len),
            started: self.recorder.as_ref().map(|_| Instant::now()),
        })
    }

    /// Completes a request that never reached the device with `err`.
    pub(crate) fn fail(&self, req: AioRequest, err: io::Error) -> AioCompletion {
        if let Some(rec) = &self.recorder {
            rec.io_completed(0, 0, true);
            rec.io_backend_request(self.uring, 0);
        }
        AioCompletion {
            tag: req.tag,
            offset: req.offset,
            result: Err(err),
        }
    }

    /// Completion: `res` is how many bytes the device produced. A short
    /// read is an error.
    pub(crate) fn complete(&self, read: Admitted, res: io::Result<usize>) -> AioCompletion {
        let result = match res {
            Ok(n) if n < read.buf.len() => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("short read: {n} of {} bytes", read.buf.len()),
            )),
            Ok(_) => Ok(read.buf),
            Err(e) => Err(e),
        };
        if let (Some(rec), Some(t0)) = (&self.recorder, read.started) {
            let ns = t0.elapsed().as_nanos() as u64;
            match &result {
                Ok(buf) => rec.io_completed(buf.len() as u64, ns, false),
                Err(_) => rec.io_completed(0, ns, true),
            }
            rec.io_backend_request(self.uring, ns);
        }
        AioCompletion {
            tag: read.tag,
            offset: read.offset,
            result,
        }
    }

    /// Admission, one positioned read and completion. A panicking backend
    /// fails its request instead of unwinding through the caller.
    pub(crate) fn serve(&self, backend: &dyn StorageBackend, req: AioRequest) -> AioCompletion {
        let mut read = match self.admit(req) {
            Ok(read) => read,
            Err(refused) => return refused,
        };
        let len = read.buf.len();
        let res = catch_unwind(AssertUnwindSafe(|| {
            backend.read_at(read.offset, read.buf.as_mut_slice())
        }))
        .unwrap_or_else(|_| Err(io::Error::other("storage backend panicked")));
        self.complete(read, res.map(|()| len))
    }

    /// Poll settlement: `out` leaves the in-flight count. When the device
    /// is `dead` and nothing came back, the requests still owed can never
    /// complete: they are written off, so the next poll or drain returns
    /// instead of waiting forever.
    pub(crate) fn settle(
        &self,
        out: Vec<AioCompletion>,
        dead: bool,
    ) -> Result<Vec<AioCompletion>, WorkerDisconnected> {
        let owed = self.in_flight.fetch_sub(out.len(), Ordering::SeqCst) - out.len();
        if dead && out.is_empty() && owed > 0 {
            self.in_flight.fetch_sub(owed, Ordering::SeqCst);
            return Err(WorkerDisconnected { lost: owed });
        }
        Ok(out)
    }
}

/// One conformance table for every engine: each case runs against the
/// worker pool and, where the host allows it, against io_uring.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::FileBackend;
    use crate::fault::FaultPolicy;
    use crate::{uring_available, AioEngine, UringEngine};

    /// A file of `len` patterned bytes, and the bytes.
    pub(crate) fn file_fixture(
        len: usize,
    ) -> (tempfile::TempDir, Arc<dyn StorageBackend>, Vec<u8>) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("io.bin");
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&path).unwrap());
        (dir, backend, data)
    }

    /// The queue depth every engine in the table is built with.
    const DEPTH: usize = 64;

    /// Builds one kind of engine over a backend, with an optional fault
    /// injector.
    type Make = fn(Arc<dyn StorageBackend>, Option<IoFaultInjector>) -> Box<dyn IoEngine>;

    fn kinds() -> Vec<(&'static str, Make)> {
        let mut kinds: Vec<(&'static str, Make)> = vec![("workers", |b, fault| {
            Box::new(AioEngine::with_recorder(b, 3, DEPTH, None, fault))
        })];
        if uring_available() {
            kinds.push(("uring", |b, fault| {
                let ring = UringEngine::with_recorder(b, DEPTH, false, false, &[], None, fault);
                Box::new(ring.unwrap())
            }));
        } else {
            eprintln!("io_uring unavailable; skipping the uring arm");
        }
        kinds
    }

    /// Runs `case` on every engine kind over a fresh file of `len` bytes.
    fn each_engine(len: usize, case: impl Fn(&dyn IoEngine, &[u8])) {
        for (name, make) in kinds() {
            eprintln!("engine: {name}");
            let (_dir, backend, data) = file_fixture(len);
            case(&*make(backend, None), &data);
        }
    }

    fn read(tag: u64, offset: u64, len: usize) -> AioRequest {
        AioRequest { tag, offset, len }
    }

    #[test]
    fn single_read_roundtrip() {
        each_engine(4096, |eng, data| {
            eng.submit(vec![read(7, 100, 50)]);
            let done = eng.drain().unwrap();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].tag, 7);
            assert_eq!(done[0].result.as_ref().unwrap().as_slice(), &data[100..150]);
            assert_eq!(eng.in_flight(), 0);
        });
    }

    #[test]
    fn batched_reads_all_complete() {
        each_engine(1 << 16, |eng, data| {
            let batch: Vec<AioRequest> = (0..100).map(|i| read(i, (i * 13) % 60_000, 64)).collect();
            eng.submit(batch);
            let mut done = eng.drain().unwrap();
            assert_eq!(done.len(), 100);
            done.sort_by_key(|c| c.tag);
            for c in &done {
                let off = c.offset as usize;
                assert_eq!(c.offset, (c.tag * 13) % 60_000);
                assert_eq!(c.result.as_ref().unwrap().as_slice(), &data[off..off + 64]);
            }
        });
    }

    #[test]
    fn completions_recycle_into_the_pool() {
        each_engine(1 << 16, |eng, _| {
            for round in 0..3u64 {
                eng.submit(
                    (0..10)
                        .map(|i| read(round * 10 + i, i * 512, 4096))
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
        });
    }

    #[test]
    fn poll_respects_max() {
        each_engine(4096, |eng, _| {
            eng.submit((0..10).map(|i| read(i, 0, 16)).collect());
            let mut got = 0;
            while got < 10 {
                let c = eng.poll(1, 3).unwrap();
                assert!(c.len() <= 3);
                got += c.len();
            }
            assert_eq!(eng.in_flight(), 0);
        });
    }

    #[test]
    fn interleaved_submit_poll() {
        each_engine(1 << 14, |eng, data| {
            let mut seen = 0usize;
            for round in 0u64..5 {
                eng.submit((0..20).map(|i| read(round * 20 + i, i * 64, 32)).collect());
                for c in eng.poll(5, 100).unwrap() {
                    let off = c.offset as usize;
                    assert_eq!(c.result.unwrap().as_slice(), &data[off..off + 32]);
                    seen += 1;
                }
            }
            seen += eng.drain().unwrap().len();
            assert_eq!(seen, 100);
        });
    }

    #[test]
    fn poll_with_nothing_in_flight_returns_empty() {
        each_engine(4096, |eng, _| {
            assert!(eng.poll(1, 10).unwrap().is_empty());
            assert!(eng.drain().unwrap().is_empty());
        });
    }

    #[test]
    fn out_of_range_read_reports_error() {
        // Reads crossing EOF fail; one ending exactly at EOF, and a
        // zero-length one past it, succeed.
        each_engine(128, |eng, data| {
            eng.submit(vec![
                read(1, 100, 64),
                read(2, u64::MAX, 2),
                read(3, 64, 64),
                read(4, 4096, 0),
            ]);
            let mut done = eng.drain().unwrap();
            done.sort_by_key(|c| c.tag);
            assert!(done[0].result.is_err() && done[1].result.is_err());
            assert_eq!(done[2].result.as_ref().unwrap().as_slice(), &data[64..]);
            assert!(done[3].result.as_ref().unwrap().is_empty());
            drop(done);
            assert_eq!(eng.buffer_pool().stats().outstanding, 0);
        });
    }

    /// One batch of four times the queue depth: the worker pool's submit
    /// blocks on its bounded queue until workers drain it; the ring
    /// flushes and refills its SQ, and reaps to keep its CQ from
    /// overflowing. Every request completes exactly once.
    #[test]
    fn batch_larger_than_queue_completes() {
        each_engine(1 << 16, |eng, data| {
            let n = 4 * DEPTH as u64;
            eng.submit((0..n).map(|i| read(i, (i * 512) % 60_000, 256)).collect());
            let mut tags: Vec<u64> = eng
                .drain()
                .unwrap()
                .into_iter()
                .map(|c| {
                    let off = c.offset as usize;
                    assert_eq!(c.result.unwrap().as_slice(), &data[off..off + 256]);
                    c.tag
                })
                .collect();
            tags.sort_unstable();
            assert_eq!(tags, (0..n).collect::<Vec<_>>());
            assert_eq!(eng.in_flight(), 0);
            assert_eq!(eng.buffer_pool().stats().outstanding, 0);
        });
    }

    #[test]
    fn engine_level_fault_injection_fails_then_recovers() {
        for (name, make) in kinds() {
            let (_dir, backend, data) = file_fixture(8192);
            let fault = IoFaultInjector::new(FaultPolicy::FirstN(1));
            let eng = make(backend, Some(fault.clone()));
            eng.submit(vec![read(0, 0, 64)]);
            let done = eng.drain().unwrap();
            let err = done[0].result.as_ref().unwrap_err();
            assert!(err.to_string().contains("injected fault"), "{name}: {err}");
            assert_eq!(fault.injected(), 1, "{name}");
            assert_eq!(eng.in_flight(), 0, "{name}");
            assert_eq!(eng.buffer_pool().stats().outstanding, 0, "{name}");
            // Policy exhausted: the retry reads real bytes.
            eng.submit(vec![read(1, 0, 64)]);
            let done = eng.drain().unwrap();
            assert_eq!(done[0].result.as_ref().unwrap().as_slice(), &data[..64]);
        }
    }

    #[test]
    fn synchronous_read_path_shares_the_fault_seam() {
        // The point reader's path: one whole life cycle per call, through
        // the same admission and completion as the engines.
        let (_dir, backend, data) = file_fixture(4096);
        let fault = IoFaultInjector::new(FaultPolicy::FirstN(1));
        let path = ReadPath::new(backend.len(), IoBackend::Workers, None, Some(fault));
        assert!(path.read(&*backend, read(0, 0, 64)).is_err());
        assert_eq!(
            path.read(&*backend, read(0, 64, 64)).unwrap().as_slice(),
            &data[64..128]
        );
        assert!(path.read(&*backend, read(0, 4090, 64)).is_err());
        assert_eq!(path.in_flight(), 0);
        assert_eq!(path.buffer_pool().stats().outstanding, 0);
    }
}
