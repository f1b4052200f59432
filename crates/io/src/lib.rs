//! Storage substrate for G-Store (§V.B of the paper).
//!
//! Provides the [`backend::StorageBackend`] abstraction with real-file and
//! in-memory implementations, two interchangeable async read engines
//! behind the [`engine::IoEngine`] trait — the worker-pool
//! [`aio::AioEngine`] (Linux-AIO-shaped submit/poll interface) and the
//! raw-syscall [`uring::UringEngine`] (SQ-batched io_uring with
//! registered buffers) — which differ only in their device: every read's
//! life cycle (accounting, admission, completion, settlement) is the one
//! [`engine::ReadPath`], and its one fault seam is
//! [`fault::IoFaultInjector`]. Also here: the deterministic
//! [`ssd_sim::SsdArraySim`] RAID-0 array model used for the disk-scaling
//! experiments, and the positioned-write path
//! ([`pwrite::WritableBackend`], [`pwrite::BatchWriter`]) the streaming
//! converter scatters tile bytes through.

pub mod aio;
pub mod backend;
pub mod buffer;
pub mod engine;
pub mod fault;
pub mod pwrite;
pub mod ssd_sim;
pub mod tiered;
pub mod uring;

pub use aio::AioEngine;
pub use backend::{FileBackend, MemBackend, StorageBackend, SECTOR};
pub use buffer::{BufferPool, BufferPoolStats, PooledBuf};
pub use engine::{AioCompletion, AioRequest, IoBackend, IoEngine, ReadPath, WorkerDisconnected};
pub use fault::{FaultPolicy, IoFaultInjector, JitterBackend};
pub use pwrite::{
    push_run, write_runs, BatchWriter, BatchWriterStats, FaultWriteBackend, FileWriteBackend,
    MemWriteBackend, WritableBackend, WriteRun,
};
pub use ssd_sim::{ArrayConfig, SimStats, SsdArraySim, SsdProfile};
pub use tiered::{hdd_array, hdd_profile, TieredBackend};
pub use uring::{uring_available, UringEngine};
