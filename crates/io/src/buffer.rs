//! Reusable pool of sector-aligned I/O buffers.
//!
//! The slide pipeline reads thousands of segment runs per run — allocating
//! a fresh `Vec<u8>` per read (and freeing it at segment end) is pure
//! churn. [`BufferPool`] keeps freed buffers in power-of-two size classes
//! so that steady-state reads recycle memory instead of allocating:
//! alignment is paid once per buffer, at its first allocation, and is free
//! on reuse (FlashGraph's userspace-buffer design, PAPERS.md).
//!
//! [`BufferPool::acquire`] hands out a [`PooledBuf`] — an RAII handle that
//! dereferences to the first `len` bytes of its capacity (the bytes a read
//! produced) and returns the buffer to the pool when dropped, from any
//! thread.

use crate::backend::SECTOR;
use gstore_metrics::Recorder;
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Smallest size class; every class is a power of two from here up.
pub const MIN_CLASS_BYTES: usize = 4096;

/// Number of power-of-two size classes (4 KiB .. 2 GiB). Larger buffers
/// are allocated exactly and never cached.
const NUM_CLASSES: usize = 20;

/// Free buffers kept per size class; returns beyond this are freed.
const DEFAULT_CLASS_LIMIT: usize = 64;

/// A raw sector-aligned allocation. Capacity is always a multiple of
/// [`SECTOR`] and the base pointer is sector-aligned.
struct AlignedBuf {
    ptr: NonNull<u8>,
    capacity: usize,
    /// Pinned buffers are never trimmed from the free lists: their
    /// addresses may be registered with an io_uring
    /// (`IORING_REGISTER_BUFFERS`), so freeing one while the pool lives
    /// would let the allocator reuse a registered address and silently
    /// corrupt the pointer→buffer-index map. They are freed only when the
    /// pool itself drops.
    pinned: bool,
}

// The buffer is an exclusively-owned heap allocation; moving it between
// threads (worker -> completion consumer -> pool free list) is safe.
unsafe impl Send for AlignedBuf {}

impl AlignedBuf {
    fn layout(capacity: usize) -> Layout {
        Layout::from_size_align(capacity, SECTOR as usize).expect("valid buffer layout")
    }

    fn new(capacity: usize) -> Self {
        debug_assert!(capacity > 0 && capacity.is_multiple_of(SECTOR as usize));
        let layout = Self::layout(capacity);
        // Zeroed so the full capacity is initialized memory: a reader may
        // legally be handed bytes it only partially overwrote.
        let ptr = unsafe { alloc_zeroed(layout) };
        let ptr = NonNull::new(ptr).unwrap_or_else(|| handle_alloc_error(layout));
        AlignedBuf {
            ptr,
            capacity,
            pinned: false,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.capacity) }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u8] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.capacity) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        unsafe { dealloc(self.ptr.as_ptr(), Self::layout(self.capacity)) }
    }
}

/// Behaviour counters of a [`BufferPool`] (all monotonic except
/// `outstanding`/`pooled`, which are point-in-time gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Buffers handed out (`hits + misses`).
    pub acquires: u64,
    /// Acquires served from a free list, no allocation.
    pub hits: u64,
    /// Acquires that allocated fresh memory.
    pub misses: u64,
    /// Buffers returned to a free list on drop.
    pub recycled: u64,
    /// Buffers freed on drop because their class was full (or oversized).
    pub trimmed: u64,
    /// Handles currently alive (acquired, not yet dropped).
    pub outstanding: u64,
    /// Buffers currently resident in the free lists.
    pub pooled: u64,
    /// Capacity bytes currently resident in the free lists.
    pub pooled_bytes: u64,
}

struct PoolInner {
    classes: [Mutex<Vec<AlignedBuf>>; NUM_CLASSES],
    class_limit: usize,
    acquires: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    trimmed: AtomicU64,
    outstanding: AtomicU64,
    pooled: AtomicU64,
    pooled_bytes: AtomicU64,
    recorder: Option<Arc<dyn Recorder>>,
}

impl PoolInner {
    /// Size-class index for a capacity request, or `None` for oversized
    /// requests that bypass the free lists.
    fn class_of(len: usize) -> Option<usize> {
        let cap = len.max(MIN_CLASS_BYTES).next_power_of_two();
        let idx = cap.trailing_zeros() as usize - MIN_CLASS_BYTES.trailing_zeros() as usize;
        (idx < NUM_CLASSES).then_some(idx)
    }

    /// Allocation size for a class index.
    fn class_bytes(idx: usize) -> usize {
        MIN_CLASS_BYTES << idx
    }

    fn recycle(&self, buf: AlignedBuf) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        if let Some(rec) = &self.recorder {
            rec.buffer_recycled(buf.capacity as u64);
        }
        let capacity = buf.capacity;
        let kept = match Self::class_of(capacity) {
            // Only cache buffers whose capacity is exactly a class size, so
            // every free-list entry of class `idx` has the same capacity.
            Some(idx) if Self::class_bytes(idx) == capacity => {
                let mut free = self.classes[idx]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                // Pinned (ring-registered) buffers bypass the class limit:
                // trimming one would free memory whose address is held by
                // an io_uring registration.
                if buf.pinned || free.len() < self.class_limit {
                    free.push(buf);
                    true
                } else {
                    false
                }
            }
            // Oversized or odd-capacity buffers are never cached.
            _ => false,
        };
        if kept {
            self.recycled.fetch_add(1, Ordering::Relaxed);
            self.pooled.fetch_add(1, Ordering::Relaxed);
            self.pooled_bytes
                .fetch_add(capacity as u64, Ordering::Relaxed);
        } else {
            self.trimmed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Thread-safe pool of sector-aligned, size-classed, reusable buffers.
/// Cloning is cheap (shared `Arc`); all clones feed the same free lists.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    pub fn new() -> Self {
        Self::with_recorder(None)
    }

    /// A pool that reports every acquire (hit/miss) and recycle to
    /// `recorder` in addition to its own counters.
    pub fn with_recorder(recorder: Option<Arc<dyn Recorder>>) -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                classes: std::array::from_fn(|_| Mutex::new(Vec::new())),
                class_limit: DEFAULT_CLASS_LIMIT,
                acquires: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
                trimmed: AtomicU64::new(0),
                outstanding: AtomicU64::new(0),
                pooled: AtomicU64::new(0),
                pooled_bytes: AtomicU64::new(0),
                recorder,
            }),
        }
    }

    /// Hands out a buffer whose capacity is at least `len` bytes, holding
    /// `len` bytes. `len == 0` returns an allocation-free empty handle.
    pub fn acquire(&self, len: usize) -> PooledBuf {
        if len == 0 {
            return PooledBuf {
                buf: None,
                len: 0,
                pool: Arc::clone(&self.inner),
            };
        }
        let inner = &self.inner;
        inner.acquires.fetch_add(1, Ordering::Relaxed);
        inner.outstanding.fetch_add(1, Ordering::Relaxed);
        let (buf, reused) = match PoolInner::class_of(len) {
            Some(idx) => match inner.classes[idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop()
            {
                Some(b) => (b, true),
                None => (AlignedBuf::new(PoolInner::class_bytes(idx)), false),
            },
            // Oversized: exact sector-rounded allocation, never pooled.
            None => {
                let cap = len.div_ceil(SECTOR as usize) * SECTOR as usize;
                (AlignedBuf::new(cap), false)
            }
        };
        if reused {
            inner.hits.fetch_add(1, Ordering::Relaxed);
            inner.pooled.fetch_sub(1, Ordering::Relaxed);
            inner
                .pooled_bytes
                .fetch_sub(buf.capacity as u64, Ordering::Relaxed);
        } else {
            inner.misses.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(rec) = &inner.recorder {
            rec.buffer_acquired(buf.capacity as u64, reused);
        }
        PooledBuf {
            buf: Some(buf),
            len,
            pool: Arc::clone(&self.inner),
        }
    }

    /// Pre-populates the free list of `len`'s size class with `count`
    /// pinned buffers and returns their `(base_address, capacity)` pairs,
    /// in the order allocated — the arenas a uring engine hands to
    /// `IORING_REGISTER_BUFFERS`. Pinned buffers cycle through
    /// acquire/recycle like any other but are never trimmed, so every
    /// returned address stays valid (and exclusively owned by this pool)
    /// until the pool drops. Returns an empty vec for oversized `len`
    /// (beyond the largest class), which the pool never caches.
    pub fn prefill_pinned(&self, len: usize, count: usize) -> Vec<(usize, usize)> {
        let Some(idx) = PoolInner::class_of(len) else {
            return Vec::new();
        };
        let capacity = PoolInner::class_bytes(idx);
        let mut arenas = Vec::with_capacity(count);
        let mut free = self.inner.classes[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for _ in 0..count {
            let mut buf = AlignedBuf::new(capacity);
            buf.pinned = true;
            arenas.push((buf.ptr.as_ptr() as usize, capacity));
            free.push(buf);
        }
        drop(free);
        self.inner.pooled.fetch_add(count as u64, Ordering::Relaxed);
        self.inner
            .pooled_bytes
            .fetch_add((capacity * count) as u64, Ordering::Relaxed);
        arenas
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> BufferPoolStats {
        let i = &self.inner;
        BufferPoolStats {
            acquires: i.acquires.load(Ordering::Relaxed),
            hits: i.hits.load(Ordering::Relaxed),
            misses: i.misses.load(Ordering::Relaxed),
            recycled: i.recycled.load(Ordering::Relaxed),
            trimmed: i.trimmed.load(Ordering::Relaxed),
            outstanding: i.outstanding.load(Ordering::Relaxed),
            pooled: i.pooled.load(Ordering::Relaxed),
            pooled_bytes: i.pooled_bytes.load(Ordering::Relaxed),
        }
    }

    /// Handles currently alive (acquired and not yet recycled).
    pub fn outstanding(&self) -> u64 {
        self.inner.outstanding.load(Ordering::Relaxed)
    }
}

/// An RAII buffer handle from a [`BufferPool`]. Dereferences to its `len`
/// meaningful bytes; the buffer returns to the pool on drop.
pub struct PooledBuf {
    /// `None` only for the empty handle (`acquire(0)`), which owns nothing.
    buf: Option<AlignedBuf>,
    len: usize,
    pool: Arc<PoolInner>,
}

impl PooledBuf {
    /// The handle's bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.buf {
            Some(b) => &b.as_slice()[..self.len],
            None => &[],
        }
    }

    /// Mutable access to the bytes, for the reader filling them.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        let len = self.len;
        match &mut self.buf {
            Some(b) => &mut b.as_mut_slice()[..len],
            None => &mut [],
        }
    }

    /// Allocated capacity (0 for the empty handle).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.as_ref().map_or(0, |b| b.capacity)
    }

    /// Base address + capacity of the underlying arena when this handle
    /// holds a pinned (registration-eligible) buffer; `None` for ordinary
    /// or empty handles. Used by the uring engine to map a pooled buffer
    /// back to its registered buffer index for `READ_FIXED`.
    #[inline]
    pub(crate) fn pinned_arena(&self) -> Option<(usize, usize)> {
        self.buf
            .as_ref()
            .filter(|b| b.pinned)
            .map(|b| (b.ptr.as_ptr() as usize, b.capacity))
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.len)
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.recycle(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_aligned_and_sized() {
        let pool = BufferPool::new();
        let b = pool.acquire(100);
        assert_eq!(b.len(), 100);
        assert!(b.capacity() >= 100);
        assert_eq!(b.capacity() % SECTOR as usize, 0);
        assert_eq!(b.as_slice().as_ptr() as usize % SECTOR as usize, 0);
        assert_eq!(pool.outstanding(), 1);
    }

    #[test]
    fn drop_recycles_and_reacquire_hits() {
        let pool = BufferPool::new();
        let ptr = {
            let b = pool.acquire(5000);
            b.as_slice().as_ptr() as usize
        };
        let s = pool.stats();
        assert_eq!(
            (s.misses, s.recycled, s.outstanding, s.pooled),
            (1, 1, 0, 1)
        );
        let b2 = pool.acquire(4097); // same 8 KiB class
        assert_eq!(b2.as_slice().as_ptr() as usize, ptr, "buffer not reused");
        let s = pool.stats();
        assert_eq!((s.hits, s.pooled), (1, 0));
    }

    #[test]
    fn different_classes_do_not_share() {
        let pool = BufferPool::new();
        drop(pool.acquire(MIN_CLASS_BYTES)); // 4 KiB class
        let b = pool.acquire(MIN_CLASS_BYTES + 1); // 8 KiB class
        assert_eq!(pool.stats().hits, 0);
        assert!(b.capacity() > MIN_CLASS_BYTES);
    }

    #[test]
    fn empty_acquire_allocates_nothing() {
        let pool = BufferPool::new();
        let b = pool.acquire(0);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 0);
        assert_eq!(b.as_slice(), &[] as &[u8]);
        drop(b);
        assert_eq!(pool.stats(), BufferPoolStats::default());
    }

    #[test]
    fn class_limit_trims_excess() {
        let pool = BufferPool::new();
        let held: Vec<PooledBuf> = (0..DEFAULT_CLASS_LIMIT + 5)
            .map(|_| pool.acquire(64))
            .collect();
        drop(held);
        let s = pool.stats();
        assert_eq!(s.pooled as usize, DEFAULT_CLASS_LIMIT);
        assert_eq!(s.trimmed as usize, 5);
        assert_eq!(s.outstanding, 0);
        assert_eq!(s.recycled + s.trimmed, s.acquires);
    }

    #[test]
    fn oversized_buffers_bypass_the_pool() {
        let pool = BufferPool::new();
        let huge = MIN_CLASS_BYTES << NUM_CLASSES; // beyond the last class
        let b = pool.acquire(huge);
        assert!(b.capacity() >= huge);
        assert_eq!(b.capacity() % SECTOR as usize, 0);
        drop(b);
        let s = pool.stats();
        assert_eq!((s.trimmed, s.pooled), (1, 0));
    }

    #[test]
    fn prefilled_pinned_buffers_are_reused_and_never_trimmed() {
        let pool = BufferPool::new();
        let arenas = pool.prefill_pinned(4096, 3);
        assert_eq!(arenas.len(), 3);
        for &(addr, cap) in &arenas {
            assert_eq!(addr % SECTOR as usize, 0);
            assert_eq!(cap, MIN_CLASS_BYTES);
        }
        assert_eq!(pool.stats().pooled, 3);
        // Acquires pop the pinned arenas (LIFO) and report them.
        let b = pool.acquire(4096);
        let (addr, cap) = b.pinned_arena().expect("prefilled buffer is pinned");
        assert!(arenas.contains(&(addr, cap)));
        assert_eq!(b.as_ptr() as usize, addr);
        drop(b);
        // Flood the class past its limit: the pinned buffers must all
        // survive in the free list (only unpinned extras are trimmed).
        let held: Vec<PooledBuf> = (0..DEFAULT_CLASS_LIMIT + 10)
            .map(|_| pool.acquire(4096))
            .collect();
        drop(held);
        let s = pool.stats();
        assert!(s.pooled as usize >= 3, "pinned buffers were trimmed");
        let survivors: Vec<PooledBuf> = (0..s.pooled).map(|_| pool.acquire(4096)).collect();
        let pinned_alive = survivors
            .iter()
            .filter(|b| b.pinned_arena().is_some())
            .count();
        assert_eq!(pinned_alive, 3, "all pinned arenas stay resident");
    }

    #[test]
    fn prefill_oversized_registers_nothing() {
        let pool = BufferPool::new();
        let huge = MIN_CLASS_BYTES << NUM_CLASSES;
        assert!(pool.prefill_pinned(huge, 2).is_empty());
        assert_eq!(pool.stats().pooled, 0);
    }

    #[test]
    fn ordinary_buffers_report_no_arena() {
        let pool = BufferPool::new();
        let b = pool.acquire(64);
        assert!(b.pinned_arena().is_none());
    }

    #[test]
    fn concurrent_acquire_release_is_consistent() {
        let pool = BufferPool::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..500usize {
                        let mut b = pool.acquire(64 + (i % 3) * 8000);
                        b.as_mut_slice()[0] = i as u8;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.acquires, 2000);
        assert_eq!(s.outstanding, 0);
        assert_eq!(s.hits + s.misses, s.acquires);
        assert_eq!(s.recycled + s.trimmed, s.acquires);
    }
}
