//! Storage substrate for G-Store (§V.B of the paper).
//!
//! Provides the [`backend::StorageBackend`] abstraction with real-file and
//! in-memory implementations, two interchangeable async read engines
//! behind the [`engine::IoEngine`] trait — the worker-pool
//! [`aio::AioEngine`] (Linux-AIO-shaped submit/poll interface) and the
//! raw-syscall [`uring::UringEngine`] (SQ-batched io_uring with
//! registered buffers) — the deterministic [`ssd_sim::SsdArraySim`]
//! RAID-0 array model used for the disk-scaling experiments, a
//! [`fault::FaultBackend`] for failure injection, and the
//! positioned-write path ([`pwrite::WritableBackend`], [`pwrite::BatchWriter`])
//! the streaming converter scatters tile bytes through.

pub mod aio;
pub mod backend;
pub mod buffer;
pub mod engine;
pub mod fault;
pub mod pwrite;
pub mod ssd_sim;
pub mod tiered;
pub mod uring;

pub use aio::{AioCompletion, AioEngine, AioRequest, WorkerDisconnected, DEFAULT_POLL_INTERVAL};
pub use backend::{align_range, FileBackend, MemBackend, StorageBackend, SECTOR};
pub use buffer::{BufferPool, BufferPoolStats, PooledBuf};
pub use engine::{IoBackend, IoEngine};
pub use fault::{FaultBackend, FaultPolicy, IoFaultInjector, JitterBackend};
pub use pwrite::{
    push_run, write_runs, BatchWriter, BatchWriterStats, FaultWriteBackend, FileWriteBackend,
    MemWriteBackend, WritableBackend, WriteRun,
};
pub use ssd_sim::{ArrayConfig, SimStats, SsdArraySim, SsdProfile};
pub use tiered::{hdd_array, hdd_profile, TieredBackend};
pub use uring::{uring_available, UringEngine};
