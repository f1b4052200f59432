//! Deterministic simulated SSD array (substitute for the paper's testbed
//! of eight SAMSUNG 850 EVO SSDs behind software RAID-0, §VII).
//!
//! Data is served from an inner backend; what the simulator adds is a
//! *timing model*: requests are striped RAID-0 style across `n` devices
//! (64 KB stripes, like the paper's md configuration), and each device
//! charges `latency + bytes / bandwidth`, queuing back-to-back. The
//! simulated elapsed time is the maximum device busy time — exactly the
//! aggregate-throughput behaviour the Figure 15 scalability experiment
//! measures.

use crate::backend::StorageBackend;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Performance parameters of one simulated SSD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdProfile {
    /// Sustained read bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Fixed per-request service latency in seconds.
    pub latency: f64,
}

impl Default for SsdProfile {
    /// Approximates a SATA SSD of the paper's era: ~500 MB/s, 100 µs.
    fn default() -> Self {
        SsdProfile {
            bandwidth: 500.0 * 1024.0 * 1024.0,
            latency: 100e-6,
        }
    }
}

/// Configuration of the simulated array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayConfig {
    pub devices: usize,
    /// RAID-0 stripe size in bytes (the paper uses 64 KB).
    pub stripe: u64,
    pub profile: SsdProfile,
}

impl ArrayConfig {
    pub fn new(devices: usize) -> Self {
        ArrayConfig {
            devices: devices.max(1),
            stripe: 64 * 1024,
            profile: SsdProfile::default(),
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct DeviceState {
    busy: f64,
    bytes: u64,
    requests: u64,
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Simulated wall-clock I/O time (max device busy time), seconds.
    pub elapsed: f64,
    /// Bytes served per device.
    pub device_bytes: Vec<u64>,
    /// Requests (stripe fragments) served per device.
    pub device_requests: Vec<u64>,
    pub total_bytes: u64,
}

impl SimStats {
    pub fn elapsed_duration(&self) -> Duration {
        Duration::from_secs_f64(self.elapsed)
    }

    /// Effective aggregate throughput in bytes/second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed <= 0.0 {
            0.0
        } else {
            self.total_bytes as f64 / self.elapsed
        }
    }
}

/// A simulated RAID-0 SSD array serving data from an inner backend.
pub struct SsdArraySim {
    inner: Arc<dyn StorageBackend>,
    config: ArrayConfig,
    state: Mutex<Vec<DeviceState>>,
}

impl SsdArraySim {
    pub fn new(inner: Arc<dyn StorageBackend>, config: ArrayConfig) -> Self {
        let state = Mutex::new(vec![DeviceState::default(); config.devices]);
        SsdArraySim {
            inner,
            config,
            state,
        }
    }

    #[inline]
    pub fn config(&self) -> ArrayConfig {
        self.config
    }

    /// Resets the timing model (keeps the data).
    pub fn reset(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.iter_mut().for_each(|d| *d = DeviceState::default());
    }

    /// Charges a read's cost to the devices its stripes live on.
    fn charge(&self, offset: u64, len: usize) {
        if len == 0 {
            return;
        }
        let stripe = self.config.stripe;
        let n = self.config.devices as u64;
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut pos = offset;
        let end = offset + len as u64;
        while pos < end {
            let stripe_idx = pos / stripe;
            let dev = (stripe_idx % n) as usize;
            let stripe_end = (stripe_idx + 1) * stripe;
            let chunk = stripe_end.min(end) - pos;
            let d = &mut st[dev];
            d.busy += self.config.profile.latency + chunk as f64 / self.config.profile.bandwidth;
            d.bytes += chunk;
            d.requests += 1;
            pos += chunk;
        }
    }

    /// Charges a sequential stream of `bytes` (e.g. an engine's update
    /// spill files) to the array in `chunk`-byte requests, without moving
    /// data. Used to model I/O that does not flow through `read_at`.
    pub fn charge_stream(&self, bytes: u64, chunk: u64) {
        let chunk = chunk.max(1);
        let mut off = 0u64;
        while off < bytes {
            let n = chunk.min(bytes - off);
            self.charge(off, n as usize);
            off += n;
        }
    }

    /// Snapshot of the timing model.
    pub fn stats(&self) -> SimStats {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        SimStats {
            elapsed: st.iter().map(|d| d.busy).fold(0.0, f64::max),
            device_bytes: st.iter().map(|d| d.bytes).collect(),
            device_requests: st.iter().map(|d| d.requests).collect(),
            total_bytes: st.iter().map(|d| d.bytes).sum(),
        }
    }
}

impl StorageBackend for SsdArraySim {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(offset, buf)?;
        self.charge(offset, buf.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    const MB: u64 = 1024 * 1024;

    fn array(devices: usize, data_len: usize) -> SsdArraySim {
        let data: Vec<u8> = (0..data_len).map(|i| (i % 127) as u8).collect();
        SsdArraySim::new(Arc::new(MemBackend::new(data)), ArrayConfig::new(devices))
    }

    fn read_all(sim: &SsdArraySim, chunk: usize) {
        let len = sim.len();
        let mut buf = vec![0u8; chunk];
        let mut off = 0u64;
        while off < len {
            let n = chunk.min((len - off) as usize);
            sim.read_at(off, &mut buf[..n]).unwrap();
            off += n as u64;
        }
    }

    #[test]
    fn data_still_correct() {
        let sim = array(4, 1 << 16);
        let mut buf = vec![0u8; 100];
        sim.read_at(1000, &mut buf).unwrap();
        assert!(buf
            .iter()
            .enumerate()
            .all(|(i, &b)| b == ((1000 + i) % 127) as u8));
    }

    #[test]
    fn sequential_scan_scales_with_devices() {
        // Same 64 MB scan on 1 vs 4 devices: ~4x faster.
        let t1 = {
            let sim = array(1, (64 * MB) as usize);
            read_all(&sim, (4 * MB) as usize);
            sim.stats().elapsed
        };
        let t4 = {
            let sim = array(4, (64 * MB) as usize);
            read_all(&sim, (4 * MB) as usize);
            sim.stats().elapsed
        };
        let speedup = t1 / t4;
        assert!((3.5..=4.5).contains(&speedup), "speedup = {speedup}");
    }

    #[test]
    fn small_reads_are_latency_bound() {
        // 4 KB random reads cost ~latency each, so 10x more small requests
        // cost ~10x more time even at the same total bytes.
        let sim = array(1, MB as usize);
        read_all(&sim, 4096);
        let small = sim.stats();
        let sim2 = array(1, MB as usize);
        read_all(&sim2, MB as usize);
        let big = sim2.stats();
        assert_eq!(small.total_bytes, big.total_bytes);
        assert!(small.elapsed > big.elapsed * 5.0);
    }

    #[test]
    fn striping_balances_bytes() {
        let sim = array(4, (16 * MB) as usize);
        read_all(&sim, (16 * MB) as usize);
        let st = sim.stats();
        let per: Vec<u64> = st.device_bytes;
        assert_eq!(per.iter().sum::<u64>(), 16 * MB);
        let max = *per.iter().max().unwrap() as f64;
        let min = *per.iter().min().unwrap() as f64;
        assert!(max / min < 1.01, "imbalance {per:?}");
    }

    #[test]
    fn single_stripe_read_touches_one_device() {
        let sim = array(8, MB as usize);
        let mut buf = vec![0u8; 1024];
        sim.read_at(0, &mut buf).unwrap(); // inside stripe 0 -> device 0
        let st = sim.stats();
        assert_eq!(st.device_requests[0], 1);
        assert!(st.device_requests[1..].iter().all(|&r| r == 0));
    }

    #[test]
    fn reset_clears_model_not_data() {
        let sim = array(2, 4096);
        let mut buf = vec![0u8; 512];
        sim.read_at(0, &mut buf).unwrap();
        assert!(sim.stats().elapsed > 0.0);
        sim.reset();
        assert_eq!(sim.stats().elapsed, 0.0);
        sim.read_at(0, &mut buf).unwrap();
        assert_eq!(buf[1], 1);
    }

    #[test]
    fn throughput_accounting() {
        let sim = array(2, (8 * MB) as usize);
        read_all(&sim, MB as usize);
        let st = sim.stats();
        assert_eq!(st.total_bytes, 8 * MB);
        let tp = st.throughput();
        // Two 500 MB/s devices: aggregate within (500, 1000] MB/s.
        assert!(tp > 500.0 * 1024.0 * 1024.0 && tp <= 1000.0 * 1024.0 * 1024.0 * 1.01);
        assert!(st.elapsed_duration().as_secs_f64() > 0.0);
    }

    #[test]
    fn charge_stream_models_sequential_cost() {
        let sim = array(2, 1024);
        sim.charge_stream(16 * MB, MB);
        let st = sim.stats();
        assert_eq!(st.total_bytes, 16 * MB);
        // Two 500 MB/s devices: at most ~1000 MB/s aggregate.
        assert!(st.elapsed >= 16.0 / 1000.0);
        sim.charge_stream(0, MB); // no-op
        assert_eq!(sim.stats().total_bytes, 16 * MB);
    }

    #[test]
    fn zero_length_read_free() {
        let sim = array(2, 1024);
        let mut buf = [];
        sim.read_at(10, &mut buf).unwrap();
        assert_eq!(sim.stats().elapsed, 0.0);
    }
}
