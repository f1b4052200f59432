//! Storage backend abstraction.
//!
//! The G-Store engine reads tile data through this trait, so the same
//! pipeline runs against a real file (functional runs), an in-memory blob
//! (tests), or the simulated SSD array (scalability experiments, Fig. 15).

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

/// Sector size: the alignment of every [`BufferPool`](crate::BufferPool)
/// allocation.
pub const SECTOR: u64 = 512;

/// The error a retired I/O `mode` gets from a signature that still accepts
/// it: refused by name, never silently ignored.
pub(crate) fn retired(mode: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        format!("{mode} is retired: gstore-io does buffered I/O submitted by its caller"),
    )
}

/// A random-access, thread-safe byte store.
pub trait StorageBackend: Send + Sync {
    /// Total length in bytes.
    fn len(&self) -> u64;

    /// Fills `buf` from `offset`. Must read exactly `buf.len()` bytes.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying file descriptor, when this backend is a plain view
    /// of one file — what an io_uring engine needs to submit reads
    /// directly to the kernel. `None` (the default) for in-memory,
    /// simulated, and wrapper backends, whose read logic lives in
    /// userspace and cannot be bypassed.
    fn as_raw_fd(&self) -> Option<std::os::unix::io::RawFd> {
        None
    }
}

/// Real-file backend using positioned reads (`pread`).
#[derive(Debug)]
pub struct FileBackend {
    file: File,
    len: u64,
}

impl FileBackend {
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(FileBackend { file, len })
    }
}

impl StorageBackend for FileBackend {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.read_exact_at(buf, offset)
    }

    fn as_raw_fd(&self) -> Option<std::os::unix::io::RawFd> {
        use std::os::unix::io::AsRawFd;
        Some(self.file.as_raw_fd())
    }
}

/// In-memory backend (tests, simulation data source).
#[derive(Debug, Clone)]
pub struct MemBackend {
    data: Arc<Vec<u8>>,
}

impl MemBackend {
    pub fn new(data: Vec<u8>) -> Self {
        MemBackend {
            data: Arc::new(data),
        }
    }
}

impl StorageBackend for MemBackend {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let start = offset as usize;
        let end = start
            .checked_add(buf.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "offset + len overflow"))?;
        if end > self.data.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("read {start}..{end} past a {}-byte store", self.data.len()),
            ));
        }
        buf.copy_from_slice(&self.data[start..end]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_reads() {
        let b = MemBackend::new((0..=255u8).collect());
        let mut buf = [0u8; 4];
        b.read_at(10, &mut buf).unwrap();
        assert_eq!(buf, [10, 11, 12, 13]);
        assert_eq!(b.len(), 256);
        assert!(!b.is_empty());
    }

    #[test]
    fn mem_backend_out_of_bounds() {
        let b = MemBackend::new(vec![0u8; 16]);
        let mut buf = [0u8; 4];
        assert!(b.read_at(14, &mut buf).is_err());
        assert!(b.read_at(u64::MAX, &mut buf).is_err());
    }

    #[test]
    fn file_backend_matches_mem() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("d.bin");
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let f = FileBackend::open(&path).unwrap();
        assert_eq!(f.len(), 4096);
        let mut buf = vec![0u8; 100];
        f.read_at(1234, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[1234..1334]);
    }

    #[test]
    fn file_backend_short_read_errors() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("s.bin");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        let f = FileBackend::open(&path).unwrap();
        let mut buf = vec![0u8; 200];
        assert!(f.read_at(0, &mut buf).is_err());
    }

    #[test]
    fn empty_backend() {
        let b = MemBackend::new(vec![]);
        assert!(b.is_empty());
        let mut buf = [];
        b.read_at(0, &mut buf).unwrap();
    }
}
