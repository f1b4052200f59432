//! Figure 2: the three motivating observations (§III).

use crate::model::{fmt_secs, fmt_x, run_gstore_on_sim, sim_for_blob};
use crate::table::{note, print_table};
use crate::workloads::Scale;
use gstore_baselines::xstream::{self, XStreamConfig, XStreamEngine};
use gstore_core::{inmem, GStoreEngine, PageRank};
use gstore_tile::{ConversionOptions, TileStore};
use std::sync::Arc;
use std::time::Instant;

const PR_ITERS: u32 = 3;

/// Figure 2(a): PageRank performance doubles when the X-Stream edge tuple
/// shrinks from 16 to 8 bytes.
pub fn fig2a(scale: &Scale) {
    let el = scale.kron();
    let mut rows = Vec::new();
    let mut runtimes = Vec::new();
    for tuple_bytes in [16usize, 8] {
        let (meta, blob) = xstream::build(&el, XStreamConfig::new(tuple_bytes).unwrap()).unwrap();
        let sim = sim_for_blob(blob, 1);
        let eng = XStreamEngine::new(meta, sim.clone()).unwrap();
        let start = Instant::now();
        let (_, stats) = eng.pagerank(PR_ITERS, 0.85).unwrap();
        let wall = start.elapsed().as_secs_f64();
        sim.charge_stream(
            stats.update_bytes_written + stats.update_bytes_read,
            1 << 20,
        );
        let io = sim.stats().elapsed;
        let runtime = wall.max(io);
        runtimes.push(runtime);
        rows.push(vec![
            format!("{tuple_bytes}-Byte"),
            format!("{}", stats.total_io_bytes() >> 20),
            fmt_secs(io),
            fmt_secs(wall),
            fmt_secs(runtime),
        ]);
    }
    let speedup = runtimes[0] / runtimes[1];
    rows[0].push(fmt_x(1.0));
    rows[1].push(fmt_x(speedup));
    print_table(
        &format!(
            "Figure 2(a): X-Stream PageRank vs edge-tuple size (Kron-{}-{})",
            scale.kron_scale, scale.edge_factor
        ),
        &["tuple", "io MB", "io time", "compute", "runtime", "speedup"],
        &rows,
    );
    note("paper: halving the tuple size roughly doubles PageRank performance (~2x)");
}

/// Figure 2(b): in-memory PageRank speedup vs number of 2D partitions
/// (metadata-access localisation).
pub fn fig2b(scale: &Scale) {
    let el = scale.kron();
    // SNB locals cap tiles at 2^16 vertices, so the coarsest grid of a
    // scale-N graph has 2^(N-16) partitions (4 for the default scale 18).
    let max_bits = scale.kron_scale.min(gstore_tile::MAX_TILE_BITS);
    let min_bits = scale.kron_scale.saturating_sub(12).max(4); // up to 4096
    let mut rows = Vec::new();
    let mut baseline = None;
    for bits in (min_bits..=max_bits).rev() {
        let store = TileStore::build(&el, &ConversionOptions::new(bits)).unwrap();
        let partitions = store.layout().tiling().partitions();
        let start = Instant::now();
        let mut pr = PageRank::over(*store.layout().tiling(), Arc::clone(store.degrees()), 0.85)
            .with_iterations(PR_ITERS);
        inmem::run_in_memory(&store, &mut pr, PR_ITERS);
        let t = start.elapsed().as_secs_f64();
        let base = *baseline.get_or_insert(t);
        rows.push(vec![partitions.to_string(), fmt_secs(t), fmt_x(base / t)]);
    }
    print_table(
        "Figure 2(b): in-memory PageRank vs partition count",
        &["partitions", "time", "speedup"],
        &rows,
    );
    note("paper: performance peaks around 128-256 partitions (working set fits cache)");
}

/// Figure 2(c): streaming-memory size has almost no effect on an
/// I/O-bound run (motivating spending memory on caching instead).
pub fn fig2c(scale: &Scale) {
    let el = scale.kron();
    let store = scale.store(&el);
    let data = store.data_bytes().max(1 << 20);
    let mut rows = Vec::new();
    let mut baseline = None;
    for frac in [64u64, 32, 16, 8, 4, 2] {
        let seg = (data / frac).max(4096);
        // Base policy: all memory is streaming segments, no cache pool.
        let cfg = GStoreEngine::builder().base_policy(seg * 2);
        let mut pr = PageRank::over(*store.layout().tiling(), Arc::clone(store.degrees()), 0.85)
            .with_iterations(PR_ITERS);
        let (_, m) = run_gstore_on_sim(&store, cfg, 1, &mut pr, PR_ITERS).unwrap();
        let runtime = m.runtime();
        let base = *baseline.get_or_insert(runtime);
        rows.push(vec![
            format!("{}KB", seg >> 10),
            fmt_secs(m.io),
            fmt_secs(m.wall),
            fmt_x(base / runtime),
        ]);
    }
    print_table(
        "Figure 2(c): PageRank vs streaming-memory (segment) size, no caching",
        &["segment", "io time", "compute", "speedup vs smallest"],
        &rows,
    );
    note("paper: extra streaming memory yields <1.2x — the disk stays the bottleneck");
}
