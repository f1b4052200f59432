//! Positioned-write path for the out-of-core converter (pass 2 of the
//! streaming ingest).
//!
//! [`WritableBackend`] is the write-side dual of
//! [`StorageBackend`](crate::backend::StorageBackend): positioned
//! `write_at`, `set_len` for truncate-and-rewrite semantics, and `sync`
//! for durability. A batch of positioned writes out of one source buffer
//! is a list of [`WriteRun`]s: [`push_run`] merges a run into its
//! predecessor when the two are contiguous in both the file and the
//! buffer, [`write_runs`] issues one `write_at` per run. The streaming
//! converter builds such a list straight over its tile-major pack buffer
//! (one run per touched tile, already in file order); [`BatchWriter`]
//! builds one over a pooled staging buffer for callers that push bytes one
//! piece at a time. Every write is buffered, through the page cache.

use crate::backend::retired;
use crate::buffer::{BufferPool, PooledBuf};
use crate::fault::FaultPolicy;
use gstore_metrics::Recorder;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Positioned-write sink: the write-side dual of
/// [`StorageBackend`](crate::backend::StorageBackend).
pub trait WritableBackend: Send + Sync {
    /// Writes all of `buf` at absolute `offset` (extends the sink if the
    /// write lands past the current end).
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()>;

    /// Truncates or extends the sink to exactly `len` bytes — the
    /// truncate-and-rewrite reset a conversion retry starts from.
    fn set_len(&self, len: u64) -> io::Result<()>;

    /// Flushes written bytes to stable storage.
    fn sync(&self) -> io::Result<()>;
}

/// A real file opened for positioned writes.
pub struct FileWriteBackend {
    file: File,
}

impl FileWriteBackend {
    /// Creates (or opens, without truncating — `set_len` does that
    /// explicitly) `path` for positioned writes. `direct` must be false:
    /// direct I/O is retired, and `true` is refused with
    /// [`io::ErrorKind::Unsupported`].
    pub fn create(path: &Path, direct: bool) -> io::Result<Self> {
        if direct {
            return Err(retired("direct I/O"));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileWriteBackend { file })
    }
}

impl WritableBackend for FileWriteBackend {
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.file.write_all_at(buf, offset)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// An in-memory write sink: auto-extends on writes past the end.
#[derive(Default)]
pub struct MemWriteBackend {
    data: Mutex<Vec<u8>>,
}

impl MemWriteBackend {
    pub fn new() -> Self {
        Self::default()
    }

    /// The contents; a writer that panicked leaves them as it left them.
    fn data(&self) -> MutexGuard<'_, Vec<u8>> {
        self.data.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of the current contents.
    pub fn snapshot(&self) -> Vec<u8> {
        self.data().clone()
    }

    /// The contents, moved out.
    pub fn into_inner(self) -> Vec<u8> {
        self.data
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Current length in bytes.
    pub fn len(&self) -> u64 {
        self.data().len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.data().is_empty()
    }
}

impl WritableBackend for MemWriteBackend {
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let mut data = self.data();
        let end = offset as usize + buf.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(buf);
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.data().resize(len as usize, 0);
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }
}

/// A write sink that injects `io::Error`s per [`FaultPolicy`] — the
/// write-side seam beside the reads' [`crate::fault::IoFaultInjector`]. Only `write_at`
/// faults; `set_len`/`sync` pass through so truncate-and-rewrite retries
/// can be exercised.
pub struct FaultWriteBackend {
    inner: Arc<dyn WritableBackend>,
    policy: FaultPolicy,
    counter: AtomicU64,
    injected: AtomicU64,
    recorder: Option<Arc<dyn Recorder>>,
}

impl FaultWriteBackend {
    pub fn new(inner: Arc<dyn WritableBackend>, policy: FaultPolicy) -> Self {
        FaultWriteBackend {
            inner,
            policy,
            counter: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            recorder: None,
        }
    }

    /// Reports each injected fault to `recorder` as well as counting it.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Number of writes attempted so far.
    pub fn attempts(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    fn should_fail(&self, offset: u64, len: usize) -> bool {
        let attempt = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
        match &self.policy {
            FaultPolicy::EveryNth(n) => *n > 0 && attempt.is_multiple_of(*n),
            FaultPolicy::FirstN(n) => attempt <= *n,
            FaultPolicy::PoisonRanges(ranges) => {
                let end = offset + len as u64;
                ranges.iter().any(|r| offset < r.end && r.start < end)
            }
        }
    }
}

impl WritableBackend for FaultWriteBackend {
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        if self.should_fail(offset, buf.len()) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            if let Some(rec) = &self.recorder {
                rec.fault_injected();
            }
            return Err(io::Error::other(format!(
                "injected write fault at offset {offset} len {}",
                buf.len()
            )));
        }
        self.inner.write_at(offset, buf)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
}

/// One positioned write of a batch: `len` bytes at `src[lo..]` of the
/// batch's source buffer land at file offset `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRun {
    pub offset: u64,
    pub lo: usize,
    pub len: usize,
}

/// Appends `run` to a batch, extending the last run instead when `run`
/// continues it in both the file and the source buffer — two pieces that
/// are adjacent on both sides never cost two syscalls.
pub fn push_run(runs: &mut Vec<WriteRun>, run: WriteRun) {
    match runs.last_mut() {
        Some(last)
            if last.offset + last.len as u64 == run.offset && last.lo + last.len == run.lo =>
        {
            last.len += run.len;
        }
        _ => runs.push(run),
    }
}

/// Issues one `write_at` per run out of `src`, stopping at the first
/// error.
pub fn write_runs(backend: &dyn WritableBackend, src: &[u8], runs: &[WriteRun]) -> io::Result<()> {
    runs.iter()
        .try_for_each(|r| backend.write_at(r.offset, &src[r.lo..r.lo + r.len]))
}

/// Stages small byte runs destined for scattered file offsets in one
/// pooled sector-aligned buffer and flushes them as merged positioned
/// writes.
///
/// The writer tracks a file-offset cursor: [`BatchWriter::seek`] moves it,
/// [`BatchWriter::push`] appends bytes at the cursor. Pushes that are
/// contiguous in the file merge into one pwrite at flush time
/// ([`push_run`]), so a sequential stream of pushes costs one syscall per
/// staging buffer. The staging buffer is RAII-pooled: it returns to the
/// [`BufferPool`] when the writer drops, on the error path included, so a
/// failed flush leaks nothing.
pub struct BatchWriter {
    backend: Arc<dyn WritableBackend>,
    buf: PooledBuf,
    filled: usize,
    /// Runs tiling `0..filled` of the staging buffer.
    runs: Vec<WriteRun>,
    cursor: u64,
    flushes: u64,
    pwrites: u64,
    bytes_written: u64,
    recorder: Option<Arc<dyn Recorder>>,
}

/// Flush/pwrite/byte totals of a [`BatchWriter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchWriterStats {
    pub flushes: u64,
    pub pwrites: u64,
    pub bytes_written: u64,
}

impl BatchWriter {
    /// A writer staging up to `capacity` bytes (≥ 16, so any single edge
    /// record fits) acquired from `pool`.
    pub fn new(
        backend: Arc<dyn WritableBackend>,
        pool: &BufferPool,
        capacity: usize,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Self {
        BatchWriter {
            backend,
            buf: pool.acquire(capacity.max(16)),
            filled: 0,
            runs: Vec::new(),
            cursor: 0,
            flushes: 0,
            pwrites: 0,
            bytes_written: 0,
            recorder,
        }
    }

    /// Staging capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Bytes currently staged and not yet flushed.
    pub fn staged(&self) -> usize {
        self.filled
    }

    /// Moves the file-offset cursor; the next `push` writes there.
    pub fn seek(&mut self, file_offset: u64) {
        self.cursor = file_offset;
    }

    /// Appends `bytes` at the cursor, flushing first if staging is full.
    /// `bytes` must fit in the staging capacity.
    pub fn push(&mut self, bytes: &[u8]) -> io::Result<()> {
        debug_assert!(bytes.len() <= self.buf.len(), "push larger than staging");
        if self.filled + bytes.len() > self.buf.len() {
            self.flush()?;
        }
        let lo = self.filled;
        self.buf.as_mut_slice()[lo..lo + bytes.len()].copy_from_slice(bytes);
        push_run(
            &mut self.runs,
            WriteRun {
                offset: self.cursor,
                lo,
                len: bytes.len(),
            },
        );
        self.filled += bytes.len();
        self.cursor += bytes.len() as u64;
        Ok(())
    }

    /// Writes every staged run to the backend and clears staging. State is
    /// cleared on error too, so a retry restages from scratch instead of
    /// replaying half-written runs.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.runs.is_empty() {
            return Ok(());
        }
        let bytes = self.filled as u64;
        let writes = self.runs.len() as u64;
        if let Some(rec) = &self.recorder {
            rec.ingest_staging(bytes);
        }
        let result = write_runs(&*self.backend, self.buf.as_slice(), &self.runs);
        self.runs.clear();
        self.filled = 0;
        result?;
        self.flushes += 1;
        self.pwrites += writes;
        self.bytes_written += bytes;
        if let Some(rec) = &self.recorder {
            rec.ingest_flush(bytes, writes);
        }
        Ok(())
    }

    /// Flushes any remainder and returns the write totals. The staging
    /// buffer returns to its pool on drop either way.
    pub fn finish(mut self) -> io::Result<BatchWriterStats> {
        self.flush()?;
        Ok(self.stats())
    }

    /// Totals so far (flushed writes only).
    pub fn stats(&self) -> BatchWriterStats {
        BatchWriterStats {
            flushes: self.flushes,
            pwrites: self.pwrites,
            bytes_written: self.bytes_written,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Arc<MemWriteBackend> {
        Arc::new(MemWriteBackend::new())
    }

    #[test]
    fn mem_backend_extends_and_truncates() {
        let m = mem();
        m.write_at(4, &[1, 2, 3]).unwrap();
        assert_eq!(m.snapshot(), vec![0, 0, 0, 0, 1, 2, 3]);
        m.set_len(2).unwrap();
        assert_eq!(m.snapshot(), vec![0, 0]);
        m.sync().unwrap();
    }

    #[test]
    fn file_backend_roundtrips() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("out.bin");
        let f = FileWriteBackend::create(&path, false).unwrap();
        f.set_len(1024).unwrap();
        f.write_at(0, &[7u8; 512]).unwrap();
        f.write_at(512, &[1, 2, 3]).unwrap();
        f.sync().unwrap();
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got.len(), 1024);
        assert_eq!(&got[..512], &[7u8; 512][..]);
        assert_eq!(&got[512..515], &[1, 2, 3]);
    }

    /// Direct I/O is retired: asking for it is refused by name, and no
    /// file is created.
    #[test]
    fn direct_mode_is_refused() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("out.bin");
        let err = FileWriteBackend::create(&path, true)
            .err()
            .expect("direct I/O must be refused");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(err.to_string().contains("direct I/O"), "{err}");
        assert!(!path.exists());
    }

    #[test]
    fn batch_writer_merges_contiguous_runs() {
        let m = mem();
        let pool = BufferPool::new();
        let mut w = BatchWriter::new(m.clone(), &pool, 4096, None);
        w.seek(10);
        w.push(&[1, 2]).unwrap();
        w.push(&[3, 4]).unwrap(); // contiguous: merges
        w.seek(100);
        w.push(&[9]).unwrap(); // gap: second run
        let stats = w.finish().unwrap();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.pwrites, 2, "contiguous pushes must merge");
        assert_eq!(stats.bytes_written, 5);
        let snap = m.snapshot();
        assert_eq!(&snap[10..14], &[1, 2, 3, 4]);
        assert_eq!(snap[100], 9);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn batch_writer_auto_flushes_when_full() {
        let m = mem();
        let pool = BufferPool::new();
        // Capacity rounds to the buffer's window (16 minimum).
        let mut w = BatchWriter::new(m.clone(), &pool, 16, None);
        w.seek(0);
        for i in 0..10u8 {
            w.push(&[i; 4]).unwrap();
        }
        let stats = w.finish().unwrap();
        assert!(stats.flushes >= 2, "40 bytes through 16-byte staging");
        assert_eq!(stats.bytes_written, 40);
        let snap = m.snapshot();
        for i in 0..10usize {
            assert_eq!(&snap[i * 4..i * 4 + 4], &[i as u8; 4]);
        }
    }

    #[test]
    fn fault_write_backend_fails_then_recovers() {
        let m = mem();
        let f = Arc::new(FaultWriteBackend::new(m.clone(), FaultPolicy::FirstN(1)));
        assert!(f.write_at(0, &[1]).is_err());
        assert!(f.write_at(0, &[2]).is_ok());
        assert_eq!((f.attempts(), f.injected()), (2, 1));
        assert_eq!(m.snapshot(), vec![2]);
    }

    #[test]
    fn failed_flush_clears_staging_and_leaks_nothing() {
        let m = mem();
        let f: Arc<dyn WritableBackend> =
            Arc::new(FaultWriteBackend::new(m.clone(), FaultPolicy::FirstN(1)));
        let pool = BufferPool::new();
        let mut w = BatchWriter::new(f, &pool, 4096, None);
        w.seek(0);
        w.push(&[1, 2, 3]).unwrap();
        assert!(w.flush().is_err());
        assert_eq!(w.staged(), 0, "error must clear staging");
        // Retry restages and succeeds (FirstN(1) only fails once).
        w.seek(0);
        w.push(&[4, 5, 6]).unwrap();
        w.flush().unwrap();
        drop(w);
        assert_eq!(m.snapshot(), vec![4, 5, 6]);
        assert_eq!(pool.outstanding(), 0, "staging buffer leaked");
    }
}
