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
//! completion still carries an ordinary [`PooledBuf`](crate::PooledBuf), zero copies.
//!
//! Everything is built on direct `extern "C"` syscall declarations
//! (`io_uring_setup`/`io_uring_enter`/`io_uring_register` + `mmap`):
//! this crate depends on std alone, so no liburing and no libc crate. The
//! engine is selected at build time through the `io_backend` knob;
//! [`uring_available`] probes `io_uring_setup` once per process so `Auto`
//! can fall back to the worker pool on kernels or sandboxes that deny it
//! (ENOSYS, seccomp EPERM).

use crate::backend::{retired, StorageBackend};
use crate::buffer::BufferPool;
use crate::engine::{
    Admitted, AioCompletion, AioRequest, IoBackend, IoEngine, ReadPath, WorkerDisconnected,
};
use crate::fault::IoFaultInjector;
use gstore_metrics::Recorder;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::os::raw::{c_int, c_long, c_void};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// io_uring syscall numbers are identical across Linux architectures
// (added after the unified syscall table).
const SYS_IO_URING_SETUP: c_long = 425;
const SYS_IO_URING_ENTER: c_long = 426;
const SYS_IO_URING_REGISTER: c_long = 427;

const IORING_OFF_SQ_RING: i64 = 0;
const IORING_OFF_CQ_RING: i64 = 0x800_0000;
const IORING_OFF_SQES: i64 = 0x1000_0000;

const IORING_FEAT_SINGLE_MMAP: u32 = 1;
const IORING_ENTER_GETEVENTS: u32 = 1;
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
    sq_array: *mut u32,
    cq_head: *const AtomicU32,
    cq_tail: *const AtomicU32,
    cq_mask: u32,
    cq_entries: u32,
    cqes: *const IoUringCqe,
    sqe_ptr: *mut IoUringSqe,
    /// Userspace copy of the SQ tail (kernel sees it on publish).
    local_tail: u32,
}

// The ring is exclusively owned and only driven under the engine's mutex;
// the shared memory it points into is process-lifetime kernel mappings.
unsafe impl Send for RawRing {}

impl RawRing {
    fn new(entries: u32) -> io::Result<RawRing> {
        let mut p = IoUringParams::default();
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
        match Self::map_rings(fd, &p) {
            Ok(ring) => Ok(ring),
            Err(e) => {
                unsafe { close(fd) };
                Err(e)
            }
        }
    }

    fn map_rings(fd: c_int, p: &IoUringParams) -> io::Result<RawRing> {
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
            sq_array: unsafe { sq_base.add(p.sq_off.array as usize) as *mut u32 },
            cq_head: at_u32(cq_base, p.cq_off.head),
            cq_tail: at_u32(cq_base, p.cq_off.tail),
            cq_mask: unsafe { *(cq_base.add(p.cq_off.ring_mask as usize) as *const u32) },
            cq_entries: p.cq_entries,
            cqes: unsafe { cq_base.add(p.cq_off.cqes as usize) as *const IoUringCqe },
            sqe_ptr: sqes.ptr as *mut IoUringSqe,
            local_tail: unsafe { (*at_u32(sq_base, p.sq_off.tail)).load(Ordering::Relaxed) },
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
    /// `io_uring_enter` calls spent (0 when nothing was queued).
    fn flush_sq(&mut self) -> io::Result<u64> {
        let published = unsafe { (*self.sq_tail).load(Ordering::Relaxed) };
        let to_submit = self.local_tail.wrapping_sub(published);
        unsafe { (*self.sq_tail).store(self.local_tail, Ordering::Release) };
        if to_submit == 0 {
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
    *PROBE.get_or_init(|| RawRing::new(4).is_ok())
}

struct UringState {
    ring: RawRing,
    /// Reads in the kernel, by SQE `user_data`.
    pending: HashMap<u64, Admitted>,
    ready: VecDeque<AioCompletion>,
    next_user_data: u64,
    /// Registered arena base address → buffer index for `READ_FIXED`.
    reg_index: HashMap<usize, u16>,
    /// Set when `io_uring_enter` failed fatally: the request path is dead,
    /// and `poll` reports it as [`WorkerDisconnected`].
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
    // Declared before `path`: the ring closes before the pool its
    // in-kernel reads write into goes away.
    state: Mutex<UringState>,
    path: ReadPath,
    /// Owned dup of the backend's fd (closed on drop).
    file_fd: RawFd,
}

/// Arenas registered per size class: enough to cover a queue of reads
/// without pinning unbounded locked memory.
const REG_ARENAS_PER_CLASS: usize = 16;

/// Cap on total registered (kernel-pinned) bytes; classes beyond the cap
/// fall back to plain `READ` (RLIMIT_MEMLOCK is often just a few MiB).
const REG_BYTES_CAP: usize = 16 << 20;

fn broken_ring(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, why)
}

impl UringEngine {
    /// Minimal constructor: no registration hints, no recorder.
    pub fn new(backend: Arc<dyn StorageBackend>, queue_depth: usize) -> io::Result<Self> {
        Self::with_recorder(backend, queue_depth, false, false, &[], None, None)
    }

    /// Full-control constructor. `reg_buf_lens` are representative read
    /// lengths (e.g. a tile and a segment run) whose buffer-pool size
    /// classes get pre-registered arenas; pass `&[]` to skip
    /// registration. `fault`, when present, fails requests at admission
    /// per its policy, before they reach the kernel. `direct` and
    /// `sqpoll` must be false: both modes are retired, and `true` is
    /// refused with [`io::ErrorKind::Unsupported`].
    pub fn with_recorder(
        backend: Arc<dyn StorageBackend>,
        queue_depth: usize,
        direct: bool,
        sqpoll: bool,
        reg_buf_lens: &[usize],
        recorder: Option<Arc<dyn Recorder>>,
        fault: Option<IoFaultInjector>,
    ) -> io::Result<Self> {
        if direct || sqpoll {
            return Err(retired(if direct { "direct I/O" } else { "SQPOLL" }));
        }
        let src_fd = backend.as_raw_fd().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "io_uring engine requires a file-backed store (backend exposes no fd)",
            )
        })?;
        let entries = queue_depth.clamp(8, 4096).next_power_of_two() as u32;
        let ring = RawRing::new(entries)?;
        let file_fd = unsafe { dup(src_fd) };
        if file_fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let path = ReadPath::new(backend.len(), IoBackend::Uring, recorder, fault);
        let reg_index = Self::register_arenas(&ring, path.buffer_pool(), reg_buf_lens);
        Ok(UringEngine {
            state: Mutex::new(UringState {
                ring,
                pending: HashMap::new(),
                ready: VecDeque::new(),
                next_user_data: 1,
                reg_index,
                broken: false,
            }),
            path,
            file_fd,
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

    /// Number of registered arenas available for `READ_FIXED`.
    pub fn registered_buffers(&self) -> usize {
        self.state
            .lock()
            .expect("io_uring state lock poisoned")
            .reg_index
            .len()
    }

    /// Queues one admitted read as an SQE, making room in the CQ and the
    /// SQ first. Returns the read back when the ring is (or just became)
    /// broken, so it can be failed as a completion.
    fn push(&self, st: &mut UringState, read: Admitted, enters: &mut u64) -> Result<(), Admitted> {
        // Bound kernel-side occupancy by the CQ so completions are never
        // dropped/overflowed: reap (blocking if needed) until a slot
        // frees up.
        while !st.broken && st.pending.len() >= st.ring.cq_entries as usize {
            self.wait_for_completions(st, 1);
        }
        if st.broken {
            return Err(read);
        }
        let user_data = st.next_user_data;
        st.next_user_data += 1;
        let mut sqe = IoUringSqe {
            opcode: IORING_OP_READ,
            fd: self.file_fd,
            off: read.offset,
            addr: read.buf.as_ptr() as u64,
            len: read.buf.len() as u32,
            user_data,
            ..IoUringSqe::default()
        };
        // Registered-arena hit: switch to READ_FIXED. A pooled buffer's
        // bytes always start at its arena base.
        let reg = read
            .buf
            .pinned_arena()
            .and_then(|(base, _)| st.reg_index.get(&base));
        if let Some(&idx) = reg {
            sqe.opcode = IORING_OP_READ_FIXED;
            sqe.buf_index = idx;
        }
        if let Some(rec) = self.path.recorder() {
            rec.io_reg_buffer(reg.is_some());
        }
        while !st.ring.push_sqe(sqe) {
            // SQ full: publish what we have and make room.
            match st.ring.flush_sq() {
                Ok(e) => *enters += e,
                Err(err) => {
                    self.mark_broken(st, err);
                    return Err(read);
                }
            }
        }
        st.pending.insert(user_data, read);
        Ok(())
    }

    /// A fatal `io_uring_enter` failure: every in-kernel request is lost.
    /// Fail them all as completions so buffers recycle and accounting
    /// stays exact, then flag the path dead for `poll`.
    fn mark_broken(&self, st: &mut UringState, err: io::Error) {
        st.broken = true;
        for (_, read) in std::mem::take(&mut st.pending) {
            let lost = broken_ring(format!("io_uring enter failed: {err}"));
            st.ready.push_back(self.path.complete(read, Err(lost)));
        }
    }

    /// Harvests available CQEs into the ready queue (no syscall).
    fn reap_into_ready(&self, st: &mut UringState) {
        let mut cqes = Vec::new();
        st.ring.reap(&mut cqes);
        if cqes.is_empty() {
            return;
        }
        if let Some(rec) = self.path.recorder() {
            rec.io_cqe_reap(cqes.len() as u64);
        }
        for cqe in cqes {
            let Some(read) = st.pending.remove(&cqe.user_data) else {
                continue;
            };
            let res = if cqe.res < 0 {
                Err(io::Error::from_raw_os_error(-cqe.res))
            } else {
                Ok(cqe.res as usize)
            };
            st.ready.push_back(self.path.complete(read, res));
        }
    }

    /// Blocks in the kernel until at least `need` more CQEs exist, then
    /// harvests. Marks the path broken on a fatal enter error.
    fn wait_for_completions(&self, st: &mut UringState, need: usize) {
        let need = need.min(st.pending.len()).max(1) as u32;
        match st.ring.enter(0, need, IORING_ENTER_GETEVENTS) {
            Ok(_) => self.reap_into_ready(st),
            Err(e) => self.mark_broken(st, e),
        }
    }
}

impl IoEngine for UringEngine {
    /// Every request becomes one SQE; the whole batch is published with
    /// (at most) one `io_uring_enter` when it fits the ring.
    fn submit(&self, batch: Vec<AioRequest>) -> usize {
        let n = batch.len();
        self.path.submitted(&batch);
        let mut st = self.state.lock().expect("io_uring state lock poisoned");
        let (mut sqes, mut enters) = (0u64, 0u64);
        for req in batch {
            match self.path.admit(req) {
                Ok(read) => match self.push(&mut st, read, &mut enters) {
                    Ok(()) => sqes += 1,
                    // The ring is dead: the request can never reach the
                    // kernel.
                    Err(read) => {
                        let lost = broken_ring("io_uring request path is broken".into());
                        let failed = self.path.complete(read, Err(lost));
                        st.ready.push_back(failed);
                    }
                },
                Err(refused) => st.ready.push_back(refused),
            }
        }
        match st.ring.flush_sq() {
            Ok(e) => enters += e,
            Err(err) => self.mark_broken(&mut st, err),
        }
        if let Some(rec) = self.path.recorder() {
            if sqes > 0 {
                rec.io_sqe_batch(sqes, enters);
            }
        }
        n
    }

    fn poll(&self, min: usize, max: usize) -> Result<Vec<AioCompletion>, WorkerDisconnected> {
        let max = max.max(1);
        let mut out = Vec::new();
        let mut st = self.state.lock().expect("io_uring state lock poisoned");
        let dead = loop {
            self.reap_into_ready(&mut st);
            let take = st.ready.len().min(max - out.len());
            out.extend(st.ready.drain(..take));
            if st.broken && st.ready.is_empty() {
                break true;
            }
            // Owed requests that are neither pending nor ready can only
            // appear via a submit racing on the mutex; return, and the
            // caller rechecks.
            if out.len() >= min.min(max)
                || self.path.in_flight() <= out.len()
                || st.pending.is_empty()
            {
                break false;
            }
            self.wait_for_completions(&mut st, min.min(max) - out.len());
        };
        drop(st);
        self.path.settle(out, dead)
    }

    fn in_flight(&self) -> usize {
        self.path.in_flight()
    }

    fn buffer_pool(&self) -> &BufferPool {
        self.path.buffer_pool()
    }

    fn kind(&self) -> IoBackend {
        IoBackend::Uring
    }
}

impl Drop for UringEngine {
    fn drop(&mut self) {
        // Requests still in the kernel write into pooled buffers held by
        // `pending`; the ring fd closes first (field order: `state` before
        // `path`), which cancels/completes them before memory goes away.
        unsafe { close(self.file_fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::file_fixture;

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
    fn memory_backend_is_rejected() {
        let backend: Arc<dyn StorageBackend> =
            Arc::new(crate::backend::MemBackend::new(vec![0u8; 1024]));
        let err = match UringEngine::new(backend, 8) {
            Ok(_) => panic!("MemBackend must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// The retired modes are refused by name, on any host: a caller
    /// asking for one learns it is not getting it.
    #[test]
    fn direct_mode_is_refused() {
        let (_dir, backend, _) = file_fixture(4096);
        let err = UringEngine::with_recorder(backend, 8, true, false, &[], None, None)
            .err()
            .expect("direct I/O must be refused");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(err.to_string().contains("direct I/O"), "{err}");
    }

    #[test]
    fn sqpoll_mode_is_refused() {
        let (_dir, backend, _) = file_fixture(4096);
        let err = UringEngine::with_recorder(backend, 8, false, true, &[], None, None)
            .err()
            .expect("SQPOLL must be refused");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(err.to_string().contains("SQPOLL"), "{err}");
    }
}
