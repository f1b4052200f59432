//! io_uring storage engine: the real kernel analogue of [`AioEngine`](crate::AioEngine).
//!
//! The worker-pool engine pays one thread wake-up and one `pread` syscall
//! per tile run. This engine keeps the exact same submit/poll/drain
//! completion surface but drives a raw `io_uring`: an entire `plan_runs`
//! segment becomes one array of SQEs pushed with a single
//! `io_uring_enter`, completions are reaped from the shared CQ ring
//! without any syscall when they are already there, and the
//! [`BufferPool`]'s sector-aligned arenas are pre-registered with
//! `IORING_REGISTER_BUFFERS` so steady-state reads land in pinned memory
//! via `READ_FIXED` — the kernel skips per-request page pinning and the
//! completion still carries an ordinary [`PooledBuf`], zero copies.
//!
//! Everything is built on direct `extern "C"` syscall declarations
//! (`io_uring_setup`/`io_uring_enter`/`io_uring_register` + `mmap`): the
//! workspace is vendored-only, so no liburing and no libc crate. The
//! engine is selected at build time through the `io_backend` knob;
//! [`uring_available`] probes `io_uring_setup` once per process so `Auto`
//! can fall back to the worker pool on kernels or sandboxes that deny it
//! (ENOSYS, seccomp EPERM).

use crate::aio::{AioCompletion, AioRequest, WorkerDisconnected};
use crate::backend::{align_range, StorageBackend, SECTOR};
use crate::buffer::{BufferPool, PooledBuf};
use crate::engine::{IoBackend, IoEngine};
use crate::fault::IoFaultInjector;
use gstore_metrics::Recorder;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::ops::Range;
use std::os::raw::{c_int, c_long, c_void};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// io_uring syscall numbers are identical across Linux architectures
// (added after the unified syscall table).
const SYS_IO_URING_SETUP: c_long = 425;
const SYS_IO_URING_ENTER: c_long = 426;
const SYS_IO_URING_REGISTER: c_long = 427;

const IORING_OFF_SQ_RING: i64 = 0;
const IORING_OFF_CQ_RING: i64 = 0x800_0000;
const IORING_OFF_SQES: i64 = 0x1000_0000;

const IORING_FEAT_SINGLE_MMAP: u32 = 1;
const IORING_SETUP_SQPOLL: u32 = 1 << 1;
const IORING_ENTER_GETEVENTS: u32 = 1;
const IORING_ENTER_SQ_WAKEUP: u32 = 2;
const IORING_SQ_NEED_WAKEUP: u32 = 1;
const IORING_REGISTER_BUFFERS: u32 = 0;

const IORING_OP_READ_FIXED: u8 = 4;
const IORING_OP_READ: u8 = 22;

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_SHARED: c_int = 0x01;
const MAP_POPULATE: c_int = 0x8000;

extern "C" {
    fn syscall(num: c_long, ...) -> c_long;
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn dup(fd: c_int) -> c_int;
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct SqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    flags: u32,
    dropped: u32,
    array: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct CqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    overflow: u32,
    cqes: u32,
    flags: u32,
    resv1: u32,
    user_addr: u64,
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct IoUringParams {
    sq_entries: u32,
    cq_entries: u32,
    flags: u32,
    sq_thread_cpu: u32,
    sq_thread_idle: u32,
    features: u32,
    wq_fd: u32,
    resv: [u32; 3],
    sq_off: SqringOffsets,
    cq_off: CqringOffsets,
}

/// One 64-byte submission queue entry (the classic layout).
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct IoUringSqe {
    opcode: u8,
    flags: u8,
    ioprio: u16,
    fd: i32,
    off: u64,
    addr: u64,
    len: u32,
    rw_flags: u32,
    user_data: u64,
    buf_index: u16,
    personality: u16,
    splice_fd_in: i32,
    pad2: [u64; 2],
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct IoUringCqe {
    user_data: u64,
    res: i32,
    flags: u32,
}

#[repr(C)]
struct IoVec {
    iov_base: *mut c_void,
    iov_len: usize,
}

struct MmapRegion {
    ptr: *mut u8,
    len: usize,
}

impl MmapRegion {
    fn map(fd: c_int, len: usize, offset: i64) -> io::Result<Self> {
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_POPULATE,
                fd,
                offset,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(MmapRegion {
            ptr: ptr as *mut u8,
            len,
        })
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        unsafe { munmap(self.ptr as *mut c_void, self.len) };
    }
}

/// The mmapped SQ/CQ rings plus the raw pointers into them. All access is
/// serialized by the engine's state mutex; the atomics order loads/stores
/// against the kernel's side of the ring.
struct RawRing {
    ring_fd: c_int,
    // Held for their Drop (munmap); the raw pointers below point into them.
    _sq_ring: MmapRegion,
    _cq_ring: Option<MmapRegion>,
    _sqes: MmapRegion,
    sq_head: *const AtomicU32,
    sq_tail: *const AtomicU32,
    sq_mask: u32,
    sq_entries: u32,
    sq_flags: *const AtomicU32,
    sq_array: *mut u32,
    cq_head: *const AtomicU32,
    cq_tail: *const AtomicU32,
    cq_mask: u32,
    cq_entries: u32,
    cqes: *const IoUringCqe,
    sqe_ptr: *mut IoUringSqe,
    /// Userspace copy of the SQ tail (kernel sees it on publish).
    local_tail: u32,
    sqpoll: bool,
}

// The ring is exclusively owned and only driven under the engine's mutex;
// the shared memory it points into is process-lifetime kernel mappings.
unsafe impl Send for RawRing {}

impl RawRing {
    fn new(entries: u32, sqpoll: bool) -> io::Result<RawRing> {
        let mut p = IoUringParams::default();
        if sqpoll {
            p.flags |= IORING_SETUP_SQPOLL;
            p.sq_thread_idle = 100; // ms before the kernel thread naps
        }
        let fd = unsafe {
            syscall(
                SYS_IO_URING_SETUP,
                entries as c_long,
                &mut p as *mut IoUringParams as c_long,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fd = fd as c_int;
        match Self::map_rings(fd, &p, sqpoll) {
            Ok(ring) => Ok(ring),
            Err(e) => {
                unsafe { close(fd) };
                Err(e)
            }
        }
    }

    fn map_rings(fd: c_int, p: &IoUringParams, sqpoll: bool) -> io::Result<RawRing> {
        let cqe_sz = std::mem::size_of::<IoUringCqe>();
        let sq_sz = p.sq_off.array as usize + p.sq_entries as usize * 4;
        let cq_sz = p.cq_off.cqes as usize + p.cq_entries as usize * cqe_sz;
        let single = p.features & IORING_FEAT_SINGLE_MMAP != 0;
        let sq_ring = MmapRegion::map(
            fd,
            if single { sq_sz.max(cq_sz) } else { sq_sz },
            IORING_OFF_SQ_RING,
        )?;
        let cq_ring = if single {
            None
        } else {
            Some(MmapRegion::map(fd, cq_sz, IORING_OFF_CQ_RING)?)
        };
        let sqes = MmapRegion::map(
            fd,
            p.sq_entries as usize * std::mem::size_of::<IoUringSqe>(),
            IORING_OFF_SQES,
        )?;
        let sq_base = sq_ring.ptr;
        let cq_base = cq_ring.as_ref().map_or(sq_base, |r| r.ptr);
        let at_u32 =
            |base: *mut u8, off: u32| unsafe { base.add(off as usize) as *const AtomicU32 };
        let ring = RawRing {
            ring_fd: fd,
            sq_head: at_u32(sq_base, p.sq_off.head),
            sq_tail: at_u32(sq_base, p.sq_off.tail),
            sq_mask: unsafe { *(sq_base.add(p.sq_off.ring_mask as usize) as *const u32) },
            sq_entries: p.sq_entries,
            sq_flags: at_u32(sq_base, p.sq_off.flags),
            sq_array: unsafe { sq_base.add(p.sq_off.array as usize) as *mut u32 },
            cq_head: at_u32(cq_base, p.cq_off.head),
            cq_tail: at_u32(cq_base, p.cq_off.tail),
            cq_mask: unsafe { *(cq_base.add(p.cq_off.ring_mask as usize) as *const u32) },
            cq_entries: p.cq_entries,
            cqes: unsafe { cq_base.add(p.cq_off.cqes as usize) as *const IoUringCqe },
            sqe_ptr: sqes.ptr as *mut IoUringSqe,
            local_tail: unsafe { (*at_u32(sq_base, p.sq_off.tail)).load(Ordering::Relaxed) },
            sqpoll,
            _sq_ring: sq_ring,
            _cq_ring: cq_ring,
            _sqes: sqes,
        };
        Ok(ring)
    }

    /// Queues one SQE locally. Returns false when the SQ is full (the
    /// caller must flush + reap and retry).
    fn push_sqe(&mut self, sqe: IoUringSqe) -> bool {
        let head = unsafe { (*self.sq_head).load(Ordering::Acquire) };
        if self.local_tail.wrapping_sub(head) >= self.sq_entries {
            return false;
        }
        let idx = self.local_tail & self.sq_mask;
        unsafe {
            self.sqe_ptr.add(idx as usize).write(sqe);
            *self.sq_array.add(idx as usize) = idx;
        }
        self.local_tail = self.local_tail.wrapping_add(1);
        true
    }

    /// Publishes queued SQEs to the kernel. Returns the number of
    /// `io_uring_enter` calls spent (0 when SQPOLL's kernel thread was
    /// already awake and consumed the tail itself).
    fn flush_sq(&mut self) -> io::Result<u64> {
        let published = unsafe { (*self.sq_tail).load(Ordering::Relaxed) };
        let to_submit = self.local_tail.wrapping_sub(published);
        unsafe { (*self.sq_tail).store(self.local_tail, Ordering::Release) };
        if to_submit == 0 {
            return Ok(0);
        }
        if self.sqpoll {
            let flags = unsafe { (*self.sq_flags).load(Ordering::Acquire) };
            if flags & IORING_SQ_NEED_WAKEUP != 0 {
                self.enter(to_submit, 0, IORING_ENTER_SQ_WAKEUP)?;
                return Ok(1);
            }
            return Ok(0);
        }
        self.enter(to_submit, 0, 0)?;
        Ok(1)
    }

    fn enter(&self, to_submit: u32, min_complete: u32, flags: u32) -> io::Result<i64> {
        loop {
            let r = unsafe {
                syscall(
                    SYS_IO_URING_ENTER,
                    self.ring_fd as c_long,
                    to_submit as c_long,
                    min_complete as c_long,
                    flags as c_long,
                    std::ptr::null::<c_void>() as c_long,
                    0 as c_long,
                )
            };
            if r < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            return Ok(r as i64);
        }
    }

    /// Harvests every available CQE.
    fn reap(&self, out: &mut Vec<IoUringCqe>) {
        let tail = unsafe { (*self.cq_tail).load(Ordering::Acquire) };
        let mut head = unsafe { (*self.cq_head).load(Ordering::Relaxed) };
        while head != tail {
            let idx = head & self.cq_mask;
            out.push(unsafe { *self.cqes.add(idx as usize) });
            head = head.wrapping_add(1);
        }
        unsafe { (*self.cq_head).store(head, Ordering::Release) };
    }

    fn register_buffers(&self, iovecs: &[IoVec]) -> io::Result<()> {
        let r = unsafe {
            syscall(
                SYS_IO_URING_REGISTER,
                self.ring_fd as c_long,
                IORING_REGISTER_BUFFERS as c_long,
                iovecs.as_ptr() as c_long,
                iovecs.len() as c_long,
            )
        };
        if r < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

impl Drop for RawRing {
    fn drop(&mut self) {
        unsafe { close(self.ring_fd) };
    }
}

/// Probes `io_uring_setup` once per process: builds (and immediately
/// tears down) a tiny ring. False on ENOSYS (old kernel), EPERM
/// (seccomp/sysctl-denied), or any other setup failure.
pub fn uring_available() -> bool {
    static PROBE: OnceLock<bool> = OnceLock::new();
    *PROBE.get_or_init(|| RawRing::new(4, false).is_ok())
}

/// One submitted-but-uncompleted kernel read.
struct Pending {
    tag: u64,
    offset: u64,
    /// Bytes the kernel must produce (short reads are errors — every
    /// request is pre-validated against the backend length).
    read_len: u32,
    /// Window of the requested bytes inside the buffer (direct mode reads
    /// an aligned super-range; the window trims it without copying).
    inner: Range<usize>,
    buf: PooledBuf,
    started: Option<Instant>,
}

struct UringState {
    ring: RawRing,
    pending: HashMap<u64, Pending>,
    ready: VecDeque<AioCompletion>,
    next_user_data: u64,
    /// Registered arena base address → buffer index for `READ_FIXED`.
    reg_index: HashMap<usize, u16>,
    /// Set when `io_uring_enter` failed fatally: the request path is dead,
    /// surfaced exactly like a dead worker pool.
    broken: bool,
}

/// Batched async read engine over one `io_uring`, implementing the same
/// completion surface as [`AioEngine`](crate::AioEngine).
///
/// Like a real AIO context, one thread drives submit/poll (concurrent
/// callers serialize on an internal mutex; a poll blocked in the kernel
/// holds it, so give each independent reader its own engine — point
/// readers do).
pub struct UringEngine {
    state: Mutex<UringState>,
    in_flight: AtomicUsize,
    pool: BufferPool,
    backend_len: u64,
    /// Owned dup of the backend's fd (closed on drop).
    file_fd: RawFd,
    direct: bool,
    sqpoll: bool,
    recorder: Option<Arc<dyn Recorder>>,
    fault: Option<IoFaultInjector>,
    poll_interval_ns: AtomicU64,
}

/// Arenas registered per size class: enough to cover a queue of reads
/// without pinning unbounded locked memory.
const REG_ARENAS_PER_CLASS: usize = 16;

/// Cap on total registered (kernel-pinned) bytes; classes beyond the cap
/// fall back to plain `READ` (RLIMIT_MEMLOCK is often just a few MiB).
const REG_BYTES_CAP: usize = 16 << 20;

impl UringEngine {
    /// Minimal constructor: buffered reads, no SQPOLL, no registration
    /// hints, no recorder.
    pub fn new(backend: Arc<dyn StorageBackend>, queue_depth: usize) -> io::Result<Self> {
        Self::with_recorder(backend, queue_depth, false, false, &[], None, None)
    }

    /// Full-control constructor. `reg_buf_lens` are representative read
    /// lengths (e.g. a tile and a segment run) whose buffer-pool size
    /// classes get pre-registered arenas; pass `&[]` to skip
    /// registration. `fault`, when present, fails requests at the submit
    /// path per its policy — the uring equivalent of wrapping a backend
    /// in `FaultBackend` (which this engine bypasses, reads go straight
    /// to the kernel).
    pub fn with_recorder(
        backend: Arc<dyn StorageBackend>,
        queue_depth: usize,
        direct: bool,
        sqpoll: bool,
        reg_buf_lens: &[usize],
        recorder: Option<Arc<dyn Recorder>>,
        fault: Option<IoFaultInjector>,
    ) -> io::Result<Self> {
        let src_fd = backend.as_raw_fd().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "io_uring engine requires a file-backed store (backend exposes no fd)",
            )
        })?;
        let entries = queue_depth.clamp(8, 4096).next_power_of_two() as u32;
        // SQPOLL needs privileges on older kernels; degrade to a plain
        // ring rather than failing the whole engine.
        let (ring, sqpoll) = match RawRing::new(entries, sqpoll) {
            Ok(r) => (r, sqpoll),
            Err(_) if sqpoll => (RawRing::new(entries, false)?, false),
            Err(e) => return Err(e),
        };
        let file_fd = unsafe { dup(src_fd) };
        if file_fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let pool = BufferPool::with_recorder(recorder.clone());
        let reg_index = Self::register_arenas(&ring, &pool, reg_buf_lens);
        Ok(UringEngine {
            state: Mutex::new(UringState {
                ring,
                pending: HashMap::new(),
                ready: VecDeque::new(),
                next_user_data: 1,
                reg_index,
                broken: false,
            }),
            in_flight: AtomicUsize::new(0),
            pool,
            backend_len: backend.len(),
            file_fd,
            direct,
            sqpoll,
            recorder,
            fault,
            poll_interval_ns: AtomicU64::new(crate::aio::DEFAULT_POLL_INTERVAL.as_nanos() as u64),
        })
    }

    /// Prefills pinned arenas for each distinct size class in
    /// `reg_buf_lens` and registers them. Registration failing (locked
    /// memory limits, old kernels) is a silent downgrade to plain `READ`,
    /// never an engine failure.
    fn register_arenas(
        ring: &RawRing,
        pool: &BufferPool,
        reg_buf_lens: &[usize],
    ) -> HashMap<usize, u16> {
        let mut iovecs: Vec<IoVec> = Vec::new();
        let mut index = HashMap::new();
        let mut seen_caps: Vec<usize> = Vec::new();
        let mut total = 0usize;
        for &len in reg_buf_lens {
            if len == 0 {
                continue;
            }
            let arenas = pool.prefill_pinned(len, 1);
            let Some(&(_, cap)) = arenas.first() else {
                continue; // oversized class: never pooled, never registered
            };
            if seen_caps.contains(&cap) {
                continue; // class already covered (its first arena is above)
            }
            seen_caps.push(cap);
            let mut class_arenas = arenas;
            while class_arenas.len() < REG_ARENAS_PER_CLASS
                && total + cap * (class_arenas.len() + 1) <= REG_BYTES_CAP
            {
                class_arenas.extend(pool.prefill_pinned(len, 1));
            }
            for (addr, cap) in class_arenas {
                index.insert(addr, iovecs.len() as u16);
                iovecs.push(IoVec {
                    iov_base: addr as *mut c_void,
                    iov_len: cap,
                });
                total += cap;
            }
        }
        if iovecs.is_empty() || ring.register_buffers(&iovecs).is_err() {
            // The arenas stay pinned in the pool (harmless: they recycle
            // like ordinary buffers), but READ_FIXED is off the table.
            return HashMap::new();
        }
        index
    }

    /// Whether SQPOLL mode is actually active (the request may have been
    /// degraded at construction).
    pub fn sqpoll_active(&self) -> bool {
        self.sqpoll
    }

    /// Number of registered arenas available for `READ_FIXED`.
    pub fn registered_buffers(&self) -> usize {
        self.state.lock().unwrap().reg_index.len()
    }

    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    pub fn poll_interval(&self) -> Duration {
        Duration::from_nanos(self.poll_interval_ns.load(Ordering::Relaxed))
    }

    /// Kept for surface parity with [`AioEngine`](crate::AioEngine); uring polls block in
    /// `io_uring_enter(GETEVENTS)` and wake on completion, so the
    /// interval is not consulted.
    pub fn set_poll_interval(&self, interval: Duration) {
        let ns = interval.max(Duration::from_micros(1)).as_nanos() as u64;
        self.poll_interval_ns.store(ns, Ordering::Relaxed);
    }

    /// Validates a request and acquires its destination buffer. Mirrors
    /// the worker pool exactly: buffered mode reads the requested range
    /// (erroring past EOF like `read_exact_at`), direct mode reads the
    /// sector-aligned window clamped to the backend tail.
    fn prepare(&self, req: &AioRequest) -> io::Result<(PooledBuf, u64, u32, Range<usize>)> {
        if req.offset.checked_add(req.len as u64).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "offset + len overflow",
            ));
        }
        if !self.direct {
            if req.offset + req.len as u64 > self.backend_len {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "read {}..{} beyond backend",
                        req.offset,
                        req.offset + req.len as u64
                    ),
                ));
            }
            let buf = self.pool.acquire(req.len);
            return Ok((buf, req.offset, req.len as u32, 0..req.len));
        }
        let (win_start, win_len, inner) = align_range(req.offset, req.len as u64);
        let clamped = win_len.min(self.backend_len.saturating_sub(win_start));
        if (inner.end as u64) > clamped {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "read {}..{} beyond backend",
                    req.offset,
                    req.offset + req.len as u64
                ),
            ));
        }
        debug_assert_eq!(win_start % SECTOR, 0);
        let buf = self.pool.acquire(clamped as usize);
        Ok((buf, win_start, clamped as u32, inner))
    }

    /// Submits a batch of reads: every request becomes one SQE, the whole
    /// batch is published with (at most) one `io_uring_enter` when it
    /// fits the ring.
    pub fn submit(&self, batch: Vec<AioRequest>) -> usize {
        let n = batch.len();
        let occupancy = self.in_flight.fetch_add(n, Ordering::SeqCst) + n;
        if let Some(rec) = &self.recorder {
            let bytes: u64 = batch.iter().map(|r| r.len as u64).sum();
            rec.io_submitted(n as u64, bytes, occupancy as u64);
        }
        let mut st = self.state.lock().unwrap();
        let mut sqes = 0u64;
        let mut enters = 0u64;
        for req in batch {
            if let Some(fault) = &self.fault {
                if fault.should_fail(req.offset, req.len) {
                    if let Some(rec) = &self.recorder {
                        rec.fault_injected();
                        rec.io_completed(0, 0, true);
                        rec.io_backend_request(true, 0);
                    }
                    st.ready.push_back(AioCompletion {
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
            let (buf, read_off, read_len, inner) = match self.prepare(&req) {
                Ok(p) => p,
                Err(e) => {
                    if let Some(rec) = &self.recorder {
                        rec.io_completed(0, 0, true);
                        rec.io_backend_request(true, 0);
                    }
                    st.ready.push_back(AioCompletion {
                        tag: req.tag,
                        offset: req.offset,
                        result: Err(e),
                    });
                    continue;
                }
            };
            if st.broken {
                // Ring is dead: the request can never reach the kernel.
                // Account it as lost right away via the ready queue.
                st.ready.push_back(AioCompletion {
                    tag: req.tag,
                    offset: req.offset,
                    result: Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "io_uring request path is broken",
                    )),
                });
                continue;
            }
            let user_data = st.next_user_data;
            st.next_user_data += 1;
            let addr = buf.window_addr() as u64;
            let mut sqe = IoUringSqe {
                opcode: IORING_OP_READ,
                fd: self.file_fd,
                off: read_off,
                addr,
                len: read_len,
                user_data,
                ..IoUringSqe::default()
            };
            // Registered-arena hit: switch to READ_FIXED. The window
            // always starts at the arena base here (fresh acquires have a
            // zero-offset window; direct trims only after completion).
            let reg_hit = match buf.pinned_arena() {
                Some((base, _cap)) => match st.reg_index.get(&base) {
                    Some(&idx) => {
                        sqe.opcode = IORING_OP_READ_FIXED;
                        sqe.buf_index = idx;
                        true
                    }
                    None => false,
                },
                None => false,
            };
            if let Some(rec) = &self.recorder {
                rec.io_reg_buffer(reg_hit);
            }
            // Bound kernel-side occupancy by the CQ so completions are
            // never dropped/overflowed: reap (blocking if needed) until a
            // slot frees up.
            while st.pending.len() >= st.ring.cq_entries as usize {
                if self.wait_for_completions(&mut st, 1).is_err() {
                    break;
                }
            }
            while !st.ring.push_sqe(sqe) {
                // SQ full: publish what we have and make room.
                match st.ring.flush_sq() {
                    Ok(e) => enters += e,
                    Err(err) => {
                        self.mark_broken(&mut st, err);
                        break;
                    }
                }
                if st.broken {
                    break;
                }
            }
            if st.broken {
                st.ready.push_back(AioCompletion {
                    tag: req.tag,
                    offset: req.offset,
                    result: Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "io_uring request path is broken",
                    )),
                });
                continue;
            }
            sqes += 1;
            st.pending.insert(
                user_data,
                Pending {
                    tag: req.tag,
                    offset: req.offset,
                    read_len,
                    inner,
                    buf,
                    started: self.recorder.as_ref().map(|_| Instant::now()),
                },
            );
        }
        match st.ring.flush_sq() {
            Ok(e) => enters += e,
            Err(err) => self.mark_broken(&mut st, err),
        }
        if let Some(rec) = &self.recorder {
            if sqes > 0 {
                rec.io_sqe_batch(sqes, enters);
            }
        }
        n
    }

    /// A fatal `io_uring_enter` failure: every in-kernel request is lost.
    /// Fail them all as completions so buffers recycle and accounting
    /// stays exact, then flag the path dead for `poll`.
    fn mark_broken(&self, st: &mut UringState, err: io::Error) {
        st.broken = true;
        let pending = std::mem::take(&mut st.pending);
        for (_, p) in pending {
            if let Some(rec) = &self.recorder {
                rec.io_completed(0, 0, true);
                rec.io_backend_request(true, 0);
            }
            st.ready.push_back(AioCompletion {
                tag: p.tag,
                offset: p.offset,
                result: Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    format!("io_uring enter failed: {err}"),
                )),
            });
            // p.buf drops here → recycled into the pool.
        }
    }

    /// Harvests available CQEs into the ready queue (no syscall).
    fn reap_into_ready(&self, st: &mut UringState) {
        let mut cqes = Vec::new();
        st.ring.reap(&mut cqes);
        if cqes.is_empty() {
            return;
        }
        if let Some(rec) = &self.recorder {
            rec.io_cqe_reap(cqes.len() as u64);
        }
        for cqe in cqes {
            let Some(p) = st.pending.remove(&cqe.user_data) else {
                continue;
            };
            let latency = p.started.map(|t| t.elapsed().as_nanos() as u64);
            let result = if cqe.res < 0 {
                Err(io::Error::from_raw_os_error(-cqe.res))
            } else if (cqe.res as u32) < p.read_len {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("short read: {} of {} bytes", cqe.res, p.read_len),
                ))
            } else {
                let mut buf = p.buf;
                buf.set_window(p.inner.start, p.inner.len());
                Ok(buf)
            };
            if let (Some(rec), Some(ns)) = (&self.recorder, latency) {
                match &result {
                    Ok(buf) => rec.io_completed(buf.len() as u64, ns, false),
                    Err(_) => rec.io_completed(0, ns, true),
                }
                rec.io_backend_request(true, ns);
            }
            st.ready.push_back(AioCompletion {
                tag: p.tag,
                offset: p.offset,
                result,
            });
        }
    }

    /// Blocks in the kernel until at least `need` more CQEs exist, then
    /// harvests. Marks the path broken on a fatal enter error.
    fn wait_for_completions(&self, st: &mut UringState, need: usize) -> io::Result<()> {
        let need = need.min(st.pending.len()).max(1) as u32;
        let res = st.ring.enter(0, need, IORING_ENTER_GETEVENTS);
        if let Err(e) = res {
            self.mark_broken(st, e);
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "io_uring getevents failed",
            ));
        }
        self.reap_into_ready(st);
        Ok(())
    }

    /// Polls for completions with [`AioEngine::poll`](crate::AioEngine::poll)'s exact contract.
    pub fn poll(&self, min: usize, max: usize) -> Result<Vec<AioCompletion>, WorkerDisconnected> {
        let mut out = Vec::new();
        let max = max.max(1);
        let disconnected;
        {
            let mut st = self.state.lock().unwrap();
            loop {
                self.reap_into_ready(&mut st);
                while out.len() < max {
                    match st.ready.pop_front() {
                        Some(c) => out.push(c),
                        None => break,
                    }
                }
                if st.broken && st.ready.is_empty() {
                    disconnected = true;
                    break;
                }
                if out.len() >= min.min(max) {
                    disconnected = false;
                    break;
                }
                if self.in_flight.load(Ordering::SeqCst) <= out.len() {
                    disconnected = false;
                    break;
                }
                if st.pending.is_empty() {
                    // Owed requests that are neither pending nor ready can
                    // only appear via a submit racing on the mutex; yield
                    // and recheck.
                    disconnected = false;
                    break;
                }
                let need = min.min(max) - out.len();
                let _ = self.wait_for_completions(&mut st, need);
            }
        }
        let owed = self.in_flight.fetch_sub(out.len(), Ordering::SeqCst) - out.len();
        if disconnected && out.is_empty() && owed > 0 {
            self.in_flight.fetch_sub(owed, Ordering::SeqCst);
            return Err(WorkerDisconnected { lost: owed });
        }
        Ok(out)
    }

    /// Blocks until every submitted request has completed.
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
}

impl Drop for UringEngine {
    fn drop(&mut self) {
        // Requests still in the kernel write into pooled buffers held by
        // `pending`; the ring fd closes first (field order: `state` before
        // `pool`), which cancels/completes them before memory goes away.
        unsafe { close(self.file_fd) };
    }
}

impl IoEngine for UringEngine {
    fn submit(&self, batch: Vec<AioRequest>) -> usize {
        UringEngine::submit(self, batch)
    }
    fn poll(&self, min: usize, max: usize) -> Result<Vec<AioCompletion>, WorkerDisconnected> {
        UringEngine::poll(self, min, max)
    }
    fn drain(&self) -> Result<Vec<AioCompletion>, WorkerDisconnected> {
        UringEngine::drain(self)
    }
    fn in_flight(&self) -> usize {
        UringEngine::in_flight(self)
    }
    fn poll_interval(&self) -> Duration {
        UringEngine::poll_interval(self)
    }
    fn set_poll_interval(&self, interval: Duration) {
        UringEngine::set_poll_interval(self, interval)
    }
    fn buffer_pool(&self) -> &BufferPool {
        UringEngine::buffer_pool(self)
    }
    fn kind(&self) -> IoBackend {
        IoBackend::Uring
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FileBackend;
    use crate::fault::FaultPolicy;

    fn file_fixture(len: usize) -> (tempfile::TempDir, Arc<dyn StorageBackend>, Vec<u8>) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("u.bin");
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&path).unwrap());
        (dir, backend, data)
    }

    macro_rules! require_uring {
        () => {
            if !uring_available() {
                eprintln!("io_uring unavailable; skipping");
                return;
            }
        };
    }

    #[test]
    fn probe_is_stable() {
        assert_eq!(uring_available(), uring_available());
    }

    #[test]
    fn single_read_roundtrip() {
        require_uring!();
        let (_dir, backend, data) = file_fixture(4096);
        let eng = UringEngine::new(backend, 16).unwrap();
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
        require_uring!();
        let (_dir, backend, data) = file_fixture(1 << 16);
        let eng = UringEngine::new(backend, 64).unwrap();
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
    fn batch_larger_than_ring_completes() {
        require_uring!();
        let (_dir, backend, _) = file_fixture(1 << 16);
        // Ring of 8 entries, 50 requests: submit must flush-and-refill.
        let eng = UringEngine::new(backend, 8).unwrap();
        eng.submit(
            (0..50)
                .map(|i| AioRequest {
                    tag: i,
                    offset: (i * 512) % 60_000,
                    len: 256,
                })
                .collect(),
        );
        assert_eq!(eng.drain().unwrap().len(), 50);
        assert_eq!(eng.in_flight(), 0);
        assert_eq!(eng.buffer_pool().stats().outstanding, 0);
    }

    #[test]
    fn out_of_range_read_reports_error() {
        require_uring!();
        let (_dir, backend, _) = file_fixture(128);
        let eng = UringEngine::new(backend, 8).unwrap();
        eng.submit(vec![AioRequest {
            tag: 1,
            offset: 100,
            len: 64,
        }]);
        let done = eng.drain().unwrap();
        assert_eq!(done.len(), 1);
        assert!(done[0].result.is_err());
        assert_eq!(eng.buffer_pool().stats().outstanding, 0);
    }

    #[test]
    fn direct_mode_matches_buffered() {
        require_uring!();
        let (_dir, backend, data) = file_fixture(8192);
        let eng = UringEngine::with_recorder(backend, 16, true, false, &[], None, None).unwrap();
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
    }

    #[test]
    fn direct_mode_handles_unaligned_tail() {
        require_uring!();
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.bin");
        std::fs::write(&path, vec![5u8; 1000]).unwrap();
        let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&path).unwrap());
        let eng = UringEngine::with_recorder(backend, 8, true, false, &[], None, None).unwrap();
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
    fn registered_buffers_serve_read_fixed() {
        require_uring!();
        let (_dir, backend, data) = file_fixture(1 << 16);
        let rec = Arc::new(gstore_metrics::FlightRecorder::new());
        let eng =
            UringEngine::with_recorder(backend, 32, false, false, &[4096], Some(rec.clone()), None)
                .unwrap();
        if eng.registered_buffers() == 0 {
            eprintln!("buffer registration unavailable; skipping");
            return;
        }
        // More rounds than arenas: buffers recycle and stay registered.
        for round in 0..4u64 {
            eng.submit(
                (0..8)
                    .map(|i| AioRequest {
                        tag: round * 8 + i,
                        offset: i * 4096,
                        len: 4096,
                    })
                    .collect(),
            );
            for c in eng.drain().unwrap() {
                let buf = c.result.unwrap();
                let off = c.offset as usize;
                assert_eq!(buf.as_slice(), &data[off..off + 4096]);
            }
        }
        use gstore_metrics::Counter::*;
        let m = rec.snapshot();
        assert_eq!(m[IoBackendRegBufferHits] + m[IoBackendRegBufferMisses], 32);
        assert!(
            m[IoBackendRegBufferHits] > 0,
            "no READ_FIXED hits despite registered arenas"
        );
        assert!(m[IoBackendSqesSubmitted] >= 32);
        assert!(m[IoBackendEnters] >= 1);
        assert_eq!(m[IoCompletions], 32);
        assert_eq!(m[IoErrors], 0);
    }

    #[test]
    fn fault_injector_fails_request_path() {
        require_uring!();
        let (_dir, backend, data) = file_fixture(8192);
        let fault = IoFaultInjector::new(FaultPolicy::FirstN(1));
        let eng =
            UringEngine::with_recorder(backend, 8, false, false, &[], None, Some(fault.clone()))
                .unwrap();
        eng.submit(vec![AioRequest {
            tag: 0,
            offset: 0,
            len: 64,
        }]);
        let done = eng.drain().unwrap();
        assert!(done[0].result.is_err());
        assert_eq!(fault.injected(), 1);
        assert_eq!(eng.in_flight(), 0);
        assert_eq!(eng.buffer_pool().stats().outstanding, 0);
        // Retry succeeds.
        eng.submit(vec![AioRequest {
            tag: 1,
            offset: 0,
            len: 64,
        }]);
        let done = eng.drain().unwrap();
        assert_eq!(done[0].result.as_ref().unwrap().as_slice(), &data[..64]);
    }

    #[test]
    fn memory_backend_is_rejected() {
        let backend: Arc<dyn StorageBackend> =
            Arc::new(crate::backend::MemBackend::new(vec![0u8; 1024]));
        let err = match UringEngine::new(backend, 8) {
            Ok(_) => panic!("MemBackend must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn completions_recycle_into_the_pool() {
        require_uring!();
        let (_dir, backend, _) = file_fixture(1 << 16);
        let eng = UringEngine::new(backend, 32).unwrap();
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
            drop(eng.drain().unwrap());
        }
        let s = eng.buffer_pool().stats();
        assert_eq!(s.acquires, 30);
        assert_eq!(s.outstanding, 0);
        assert!(s.hits >= 20, "expected >=20 pool hits, got {}", s.hits);
    }

    #[test]
    fn poll_with_nothing_in_flight_returns_empty() {
        require_uring!();
        let (_dir, backend, _) = file_fixture(4096);
        let eng = UringEngine::new(backend, 8).unwrap();
        assert!(eng.poll(1, 10).unwrap().is_empty());
    }

    #[test]
    fn sqpoll_mode_reads_correctly_or_degrades() {
        require_uring!();
        let (_dir, backend, data) = file_fixture(1 << 14);
        let eng = UringEngine::with_recorder(backend, 16, false, true, &[], None, None).unwrap();
        // Whether or not SQPOLL was granted, reads must be correct.
        eng.submit(
            (0..20)
                .map(|i| AioRequest {
                    tag: i,
                    offset: i * 64,
                    len: 32,
                })
                .collect(),
        );
        let mut done = eng.drain().unwrap();
        assert_eq!(done.len(), 20);
        done.sort_by_key(|c| c.tag);
        for c in &done {
            let off = c.offset as usize;
            assert_eq!(c.result.as_ref().unwrap().as_slice(), &data[off..off + 32]);
        }
    }
}
