//! Storage-time modelling for cross-engine comparisons.
//!
//! Runtime experiments execute every engine's real code path (compute,
//! caching, request patterns) while charging all storage traffic to the
//! same simulated SSD array ([`gstore_io::SsdArraySim`]). A run's modelled
//! runtime is `max(compute wall-clock, simulated I/O time)` — the
//! pipelined-overlap assumption the paper's engines are built around.
//! This keeps comparisons deterministic and independent of the host's
//! actual disks, while preserving exactly the traffic-volume and
//! access-pattern differences the paper attributes its speedups to.

use gstore_core::{Algorithm, EngineBuilder, GStoreEngine, RunStats};
use gstore_graph::Result;
use gstore_io::{ArrayConfig, MemBackend, SsdArraySim, StorageBackend};
use gstore_metrics::EngineMetrics;
use gstore_tile::TileStore;
use std::sync::Arc;
use std::time::Instant;

/// One measured run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    /// Wall-clock seconds of the run (compute + host overheads).
    pub wall: f64,
    /// Simulated array time for the run's storage traffic, seconds.
    pub io: f64,
    /// Bytes of storage traffic.
    pub bytes: u64,
}

impl Measured {
    /// Modelled runtime under perfect I/O/compute overlap.
    pub fn runtime(&self) -> f64 {
        self.wall.max(self.io)
    }
}

/// Array configuration for the scaled experiments.
///
/// The paper's testbed pairs 64 GB+ graphs with 500 MB/s SATA SSDs and a
/// 56-thread Xeon — an I/O-bound regime. Our graphs are ~1000x smaller but
/// host compute is only ~10-100x slower, so full-speed simulated devices
/// would make every run compute-bound and hide the I/O-policy effects the
/// paper measures. Scaling the per-device bandwidth down restores the
/// paper's compute:I/O balance; all engines are charged on the same model,
/// so *relative* results (who wins, crossovers) are preserved.
pub fn scaled_array_config(devices: usize) -> ArrayConfig {
    let mut cfg = ArrayConfig::new(devices);
    cfg.profile = gstore_io::SsdProfile {
        bandwidth: 48.0 * 1024.0 * 1024.0, // ~1/10 of a SATA SSD
        latency: 100e-6,                   // realistic flash read latency
    };
    cfg
}

/// Builds a simulated array serving a tile store's data.
pub fn sim_for_store(store: &TileStore, devices: usize) -> Arc<SsdArraySim> {
    Arc::new(SsdArraySim::new(
        Arc::new(MemBackend::new(store.data().to_vec())),
        scaled_array_config(devices),
    ))
}

/// Builds a simulated array over an arbitrary blob.
pub fn sim_for_blob(blob: Vec<u8>, devices: usize) -> Arc<SsdArraySim> {
    Arc::new(SsdArraySim::new(
        Arc::new(MemBackend::new(blob)),
        scaled_array_config(devices),
    ))
}

/// Runs a G-Store algorithm over a store on a simulated `devices`-SSD
/// array; returns engine stats and the measured/modelled times.
pub fn run_gstore_on_sim(
    store: &TileStore,
    builder: EngineBuilder,
    devices: usize,
    alg: &mut dyn Algorithm,
    max_iters: u32,
) -> Result<(RunStats, Measured)> {
    let (stats, measured, _) = run_gstore_on_sim_inner(store, builder, devices, alg, max_iters)?;
    Ok((stats, measured))
}

/// Like [`run_gstore_on_sim`] but with the flight recorder enabled:
/// additionally returns the engine's measured phase timings, I/O counters
/// and cache behaviour.
pub fn run_gstore_instrumented(
    store: &TileStore,
    builder: EngineBuilder,
    devices: usize,
    alg: &mut dyn Algorithm,
    max_iters: u32,
) -> Result<(RunStats, Measured, EngineMetrics)> {
    let (stats, measured, metrics) =
        run_gstore_on_sim_inner(store, builder.metrics(true), devices, alg, max_iters)?;
    Ok((stats, measured, metrics.expect("metrics enabled")))
}

fn run_gstore_on_sim_inner(
    store: &TileStore,
    builder: EngineBuilder,
    devices: usize,
    alg: &mut dyn Algorithm,
    max_iters: u32,
) -> Result<(RunStats, Measured, Option<EngineMetrics>)> {
    let sim = sim_for_store(store, devices);
    let index = store.index();
    let backend: Arc<dyn StorageBackend> = sim.clone();
    let mut engine = builder.backend(index, backend).build()?;
    let start = Instant::now();
    let stats = engine.run(alg, max_iters)?;
    let wall = start.elapsed().as_secs_f64();
    let s = sim.stats();
    Ok((
        stats,
        Measured {
            wall,
            io: s.elapsed,
            bytes: s.total_bytes,
        },
        engine.metrics(),
    ))
}

/// Runs an instrumented PageRank workload at `scale` (SCR policy, memory =
/// data/2, 2 simulated SSDs) and returns the flight-recorder JSON — the
/// payload behind `repro --metrics-json`.
pub fn metrics_json_for_scale(scale: &crate::workloads::Scale) -> Result<String> {
    let el = scale.kron();
    let store = scale.store(&el);
    let tiling = *store.layout().tiling();
    let seg = (store.data_bytes() / 8).max(4096);
    let total = store.data_bytes() / 2 + 2 * seg + 4096;
    let cfg = GStoreEngine::builder().scr(gstore_scr::ScrConfig::new(seg, total)?);
    let mut pr =
        gstore_core::PageRank::over(tiling, Arc::clone(store.degrees()), 0.85).with_iterations(5);
    let (_, _, metrics) = run_gstore_instrumented(&store, cfg, 2, &mut pr, 5)?;
    Ok(metrics.to_json())
}

/// Formats an [`EngineMetrics`] phase split as `sel/rew/sli/ins` percents.
pub fn fmt_phase_split(m: &EngineMetrics) -> String {
    let (sel, rew, sli, ins) = m.phase_split();
    format!(
        "{:.0}/{:.0}/{:.0}/{:.0}%",
        sel * 100.0,
        rew * 100.0,
        sli * 100.0,
        ins * 100.0
    )
}

/// Formats the zero-copy counters as `copied%/pool-hit%`: the fraction of
/// streamed bytes that were memcpy'd (cache inserts — everything else was
/// processed in place) and the buffer-pool reuse rate.
pub fn fmt_zero_copy(m: &EngineMetrics) -> String {
    format!(
        "{:.0}%/{:.0}%",
        m.value("copy.copy_fraction").expect("a schema path") * 100.0,
        m.value("buffer_pool.hit_rate").expect("a schema path") * 100.0
    )
}

/// Formats seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.2}ms", s * 1e3)
    }
}

/// Formats a speedup factor.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;
    use gstore_core::Wcc;
    use gstore_scr::ScrConfig;

    #[test]
    fn sim_run_produces_io_time() {
        let s = Scale::quick();
        let el = s.kron();
        let store = s.store(&el);
        let seg = (store.data_bytes() / 4).max(4096);
        let cfg = GStoreEngine::builder().scr(ScrConfig::new(seg, seg * 3).unwrap());
        let mut wcc = Wcc::new(*store.layout().tiling());
        let (stats, m) = run_gstore_on_sim(&store, cfg, 2, &mut wcc, 100).unwrap();
        assert!(stats.iterations > 0);
        assert!(m.io > 0.0);
        assert!(m.bytes > 0);
        assert!(m.runtime() >= m.io);
    }

    #[test]
    fn shared_scan_reads_one_sweep_and_amortises_array_time() {
        // Eight mixed queries run back to back — an engine and an array
        // each — then admitted together into one batch. The batch reads at
        // most 1.25x the heaviest single query (the scan is shared, not
        // multiplied), and the modelled array time amortises >= 2x: K
        // queries' traffic collapses towards one sweep's worth, whatever
        // the host's speed.
        use gstore_core::{QueryBatch, QuerySpec, SweepQuery};
        const SPECS: [&str; 8] = [
            "bfs:0",
            "bfs:1",
            "wcc",
            "wcc",
            "pagerank:5",
            "pagerank:3",
            "kcore:2",
            "degrees",
        ];
        let s = Scale::quick();
        let el = s.kron();
        let store = s.store(&el);
        let index = store.index();
        let queries = || {
            SPECS.map(|spec| {
                let spec: QuerySpec = spec.parse().unwrap();
                SweepQuery::for_index(&spec, &index).unwrap()
            })
        };
        let seg = (store.data_bytes() / 8).max(4096);
        let builder = || {
            GStoreEngine::builder()
                .scr(ScrConfig::new(seg, store.data_bytes() / 2 + 2 * seg + 4096).unwrap())
        };

        let mut solo_io = 0.0;
        let mut heaviest = 0;
        for mut q in queries() {
            let (_, m) =
                run_gstore_on_sim(&store, builder(), 2, q.algorithm_mut(), u32::MAX).unwrap();
            solo_io += m.io;
            heaviest = heaviest.max(m.bytes);
        }

        let sim = sim_for_store(&store, 2);
        let index = store.index();
        let mut engine = builder().backend(index, sim.clone()).build().unwrap();
        let mut qs = queries();
        let mut batch = QueryBatch::new();
        for q in &mut qs {
            batch.push(q.algorithm_mut()).unwrap();
        }
        assert!(engine
            .run_batch(&mut batch, u32::MAX)
            .unwrap()
            .all_converged());
        let shared = sim.stats();

        let bytes_ratio = shared.total_bytes as f64 / heaviest as f64;
        assert!(
            bytes_ratio <= 1.25,
            "batch read {bytes_ratio:.2}x the heaviest query"
        );
        let io_speedup = solo_io / shared.elapsed;
        assert!(
            io_speedup >= 2.0,
            "modelled array time amortises only {io_speedup:.2}x"
        );
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(0.0012), "1.20ms");
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(120.0), "120s");
        assert_eq!(fmt_x(2.0), "2.00x");
    }
}
