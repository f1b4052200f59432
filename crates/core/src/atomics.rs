//! Per-vertex metadata cells for parallel tile processing.
//!
//! The compute phase gives each vertex partition to exactly one worker at
//! a time, so a cell has one writer; other workers may still read it (a
//! BFS frontier check, a WCC label). Cells are relaxed atomics so those
//! reads are defined, and the writes are plain load + store: no CAS
//! loop, no `lock`-prefixed RMW.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// An `f64` cell stored as its bit pattern.
#[derive(Debug)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    #[inline]
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    #[inline]
    pub fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed)
    }

    /// Plain (load + store) add for the caller that owns this cell's
    /// vertex range exclusively — no CAS loop, no `lock`-prefixed RMW.
    /// Racing callers would lose updates; sharding must guarantee there
    /// are none.
    #[inline]
    pub fn add_unsync(&self, v: f64) {
        let cur = f64::from_bits(self.0.load(Ordering::Relaxed));
        self.0.store((cur + v).to_bits(), Ordering::Relaxed);
    }
}

/// Plain (load + store) lowering of `cell` to `min(cell, v)` for the
/// caller that owns `cell`'s vertex exclusively; returns `true` if it
/// changed.
#[inline]
pub fn min_unsync_u64(cell: &AtomicU64, v: u64) -> bool {
    let prev = cell.load(Ordering::Relaxed);
    if v < prev {
        cell.store(v, Ordering::Relaxed);
        true
    } else {
        false
    }
}

/// Plain (load + store) increment for the caller that owns `cell`'s
/// vertex exclusively.
#[inline]
pub fn add_unsync_u64(cell: &AtomicU64, v: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(v),
        Ordering::Relaxed,
    );
}

/// Allocates a vector of atomic u32 cells initialised to `init`.
pub fn atomic_u32_vec(n: usize, init: u32) -> Vec<AtomicU32> {
    (0..n).map(|_| AtomicU32::new(init)).collect()
}

/// Allocates a vector of atomic u64 cells initialised by index.
pub fn atomic_u64_vec_with(n: usize, f: impl Fn(usize) -> u64) -> Vec<AtomicU64> {
    (0..n).map(|i| AtomicU64::new(f(i))).collect()
}

/// Allocates a vector of atomic f64 cells initialised to `init`.
pub fn atomic_f64_vec(n: usize, init: f64) -> Vec<AtomicF64> {
    (0..n).map(|_| AtomicF64::new(init)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn f64_cell_stores_and_loads() {
        let a = AtomicF64::new(0.0);
        a.store(-1.0);
        assert_eq!(a.load(), -1.0);
    }

    #[test]
    fn unsync_helpers_match_atomic_semantics() {
        let a = AtomicF64::new(1.25);
        a.add_unsync(0.75);
        assert_eq!(a.load(), 2.0);

        let c = AtomicU64::new(10);
        assert!(min_unsync_u64(&c, 4));
        assert!(!min_unsync_u64(&c, 9));
        assert!(!min_unsync_u64(&c, 4));
        assert_eq!(c.load(Ordering::Relaxed), 4);

        let d = AtomicU64::new(7);
        add_unsync_u64(&d, 3);
        assert_eq!(d.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn vector_constructors() {
        let v = atomic_u32_vec(4, 9);
        assert!(v.iter().all(|c| c.load(Ordering::Relaxed) == 9));
        let v = atomic_u64_vec_with(4, |i| i as u64 * 2);
        assert_eq!(v[3].load(Ordering::Relaxed), 6);
        let v = atomic_f64_vec(3, 0.25);
        assert_eq!(v[2].load(), 0.25);
    }
}
