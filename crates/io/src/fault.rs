//! Read-fault injection and a completion-order adversary, for failure
//! testing.
//!
//! [`IoFaultInjector`] fails reads according to a policy: every Nth
//! request, the first N, or any request overlapping a poisoned byte range.
//! Engines and integration tests use it to verify that I/O errors surface
//! as errors instead of corrupting results.

use crate::backend::StorageBackend;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Failure policy for [`IoFaultInjector`].
#[derive(Debug, Clone)]
pub enum FaultPolicy {
    /// Fail every `n`th read (1-based: `n = 1` fails everything).
    EveryNth(u64),
    /// Fail reads overlapping any of these byte ranges.
    PoisonRanges(Vec<Range<u64>>),
    /// Fail the first `n` reads, then succeed.
    FirstN(u64),
}

/// The read-fault seam: applies a [`FaultPolicy`] at admission in the
/// engine's request life cycle ([`ReadPath`](crate::ReadPath)), so a
/// failed request completes with an error without ever reaching the
/// device — on the worker pool, on io_uring and on the point reader's
/// synchronous path alike. Cloneable so tests keep a handle to the
/// counters while the engine owns the policy.
#[derive(Clone)]
pub struct IoFaultInjector {
    inner: Arc<FaultState>,
}

struct FaultState {
    policy: FaultPolicy,
    counter: AtomicU64,
    injected: AtomicU64,
}

impl IoFaultInjector {
    pub fn new(policy: FaultPolicy) -> Self {
        IoFaultInjector {
            inner: Arc::new(FaultState {
                policy,
                counter: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// Number of requests checked so far.
    pub fn attempts(&self) -> u64 {
        self.inner.counter.load(Ordering::SeqCst)
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::SeqCst)
    }

    /// Decides (and counts) whether this request fails. Attempts are
    /// counted from 1.
    pub fn should_fail(&self, offset: u64, len: usize) -> bool {
        let attempt = self.inner.counter.fetch_add(1, Ordering::SeqCst) + 1;
        let fail = match &self.inner.policy {
            FaultPolicy::EveryNth(n) => *n > 0 && attempt.is_multiple_of(*n),
            FaultPolicy::FirstN(n) => attempt <= *n,
            FaultPolicy::PoisonRanges(ranges) => {
                let end = offset + len as u64;
                ranges.iter().any(|r| offset < r.end && r.start < end)
            }
        };
        if fail {
            self.inner.injected.fetch_add(1, Ordering::SeqCst);
        }
        fail
    }
}

/// A backend that delays each read by a deterministic, request-dependent
/// amount, permuting AIO completion order without changing any bytes.
///
/// Two reads issued back-to-back on different workers complete in an order
/// decided by their offsets' hashes, not their submission order — exactly
/// the adversary a completion-order-processing pipeline must be correct
/// under. Deterministic (pure function of request geometry) so failures
/// reproduce.
pub struct JitterBackend {
    inner: Arc<dyn StorageBackend>,
    max_delay_us: u64,
}

impl JitterBackend {
    /// Delays each read by `hash(offset, len) % max_delay_us`
    /// microseconds.
    pub fn new(inner: Arc<dyn StorageBackend>, max_delay_us: u64) -> Self {
        JitterBackend {
            inner,
            max_delay_us: max_delay_us.max(1),
        }
    }

    fn delay_for(&self, offset: u64, len: usize) -> std::time::Duration {
        // Fibonacci-hash the request geometry into a delay bucket.
        let h = (offset ^ (len as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        std::time::Duration::from_micros((h >> 32) % self.max_delay_us)
    }
}

impl StorageBackend for JitterBackend {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        std::thread::sleep(self.delay_for(offset, buf.len()));
        self.inner.read_at(offset, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn mem(len: usize) -> Arc<dyn StorageBackend> {
        Arc::new(MemBackend::new(vec![7u8; len]))
    }

    #[test]
    fn every_nth_fails_periodically() {
        let f = IoFaultInjector::new(FaultPolicy::EveryNth(3));
        let results: Vec<bool> = (0..9).map(|_| !f.should_fail(0, 4)).collect();
        assert_eq!(
            results,
            vec![true, true, false, true, true, false, true, true, false]
        );
        assert_eq!(f.attempts(), 9);
    }

    #[test]
    fn first_n_then_recovers() {
        let f = IoFaultInjector::new(FaultPolicy::FirstN(2));
        assert!(f.should_fail(0, 4));
        assert!(f.should_fail(0, 4));
        assert!(!f.should_fail(0, 4));
        assert_eq!(f.injected(), 2);
    }

    #[test]
    fn poison_ranges_hit_overlaps_only() {
        // Two ranges so the poison logic is exercised across gaps.
        let f = IoFaultInjector::new(FaultPolicy::PoisonRanges(vec![100..200, 900..901]));
        assert!(!f.should_fail(0, 50)); // 0..50
        assert!(f.should_fail(60, 50)); // 60..110 overlaps
        assert!(f.should_fail(150, 50)); // inside
        assert!(!f.should_fail(200, 50)); // 200..250 adjacent, no overlap
        assert!(f.should_fail(890, 20)); // reaches the second range
        assert_eq!(f.injected(), 3);
    }

    #[test]
    fn every_nth_zero_never_fails() {
        let f = IoFaultInjector::new(FaultPolicy::EveryNth(0));
        assert!((0..16).all(|_| !f.should_fail(0, 1)));
        assert_eq!(f.injected(), 0);
    }

    #[test]
    fn io_fault_injector_clones_share_counters() {
        let inj = IoFaultInjector::new(FaultPolicy::EveryNth(2));
        let other = inj.clone();
        assert!(!inj.should_fail(0, 16));
        assert!(other.should_fail(0, 16));
        assert_eq!(inj.attempts(), 2);
        assert_eq!(other.injected(), 1);
    }

    #[test]
    fn jitter_is_deterministic_and_preserves_bytes() {
        let j = JitterBackend::new(mem(1024), 50);
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        j.read_at(64, &mut a).unwrap();
        j.read_at(64, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, [7u8; 16]);
        assert_eq!(j.len(), 1024);
        assert_eq!(j.delay_for(64, 16), j.delay_for(64, 16));
    }
}
