//! Extensions beyond the paper's evaluation — its §VIII/§IX future-work
//! items (tile compression, tiered storage) and the §VIII comparison with
//! a GridGraph-style engine.

use crate::model::{fmt_secs, fmt_x, run_gstore_on_sim, scaled_array_config};
use crate::table::{note, print_table};
use crate::workloads::Scale;
use gstore_core::{GStoreEngine, PageRank};
use gstore_graph::EdgeList;
use gstore_io::{hdd_array, MemBackend, SsdArraySim, StorageBackend, TieredBackend};
use gstore_scr::ScrConfig;
use gstore_tile::recode::report_for;
use gstore_tile::{encode_store, Codec};
use std::sync::Arc;
use std::time::Instant;

/// Extension: per-graph tile compression ratios (the paper's §VIII
/// future work, implemented).
pub fn ext_compress(scale: &Scale) {
    let workloads: Vec<(&str, EdgeList)> = vec![
        (
            Box::leak(format!("Kron-{}-{}", scale.kron_scale, scale.edge_factor).into_boxed_str()),
            scale.kron(),
        ),
        ("Twitter-like", scale.twitter()),
        ("Friendster-like", scale.friendster()),
        ("Subdomain-like", scale.subdomain()),
    ];
    let mut rows = Vec::new();
    for (name, el) in &workloads {
        let store = scale.store(el);
        let t0 = Instant::now();
        let (index, _) = encode_store(&store, Codec::DeltaVarint).unwrap();
        let t = t0.elapsed().as_secs_f64();
        let report = report_for(&index);
        rows.push(vec![
            name.to_string(),
            format!("{}MB", report.logical_bytes >> 20),
            format!("{}MB", report.disk_bytes >> 20),
            fmt_x(report.ratio()),
            fmt_secs(t),
        ]);
    }
    print_table(
        "Extension: per-tile delta compression on top of SNB",
        &[
            "graph",
            "SNB tiles",
            "compressed",
            "extra saving",
            "compress time",
        ],
        &rows,
    );
    note("paper §VIII: 'Compression can be applied to the data present in tiles ... future work'");
}

/// Extension: tiered SSD+HDD storage (§IX future work): PageRank runtime
/// as the SSD-resident fraction of the tile data shrinks.
pub fn ext_tiered(scale: &Scale) {
    let el = scale.kron();
    let store = scale.store(&el);
    let tiling = *store.layout().tiling();
    let data = store.data_bytes();
    let seg = 256 << 10;
    let cfg = GStoreEngine::builder().scr(ScrConfig::new(seg, data / 4 + 2 * seg).unwrap());
    let iters = 3u32;
    let mut rows = Vec::new();
    let mut baseline = None;
    for ssd_pct in [100u64, 75, 50, 25, 0] {
        let boundary = data * ssd_pct / 100;
        let fast = Arc::new(SsdArraySim::new(
            Arc::new(MemBackend::new(store.data().to_vec())),
            scaled_array_config(4),
        ));
        let slow = Arc::new(SsdArraySim::new(
            Arc::new(MemBackend::new(store.data().to_vec())),
            hdd_array(2),
        ));
        let tiered: Arc<dyn StorageBackend> =
            Arc::new(TieredBackend::new(fast.clone(), slow.clone(), boundary).unwrap());
        let index = store.index();
        let mut engine = cfg.clone().backend(index, tiered).build().unwrap();
        let mut pr =
            PageRank::over(tiling, Arc::clone(store.degrees()), 0.85).with_iterations(iters);
        let t0 = Instant::now();
        engine.run(&mut pr, iters).unwrap();
        let wall = t0.elapsed().as_secs_f64();
        let io = fast.stats().elapsed + slow.stats().elapsed;
        let runtime = wall.max(io);
        let base = *baseline.get_or_insert(runtime);
        rows.push(vec![
            format!("{ssd_pct}%"),
            format!("{}MB", fast.stats().total_bytes >> 20),
            format!("{}MB", slow.stats().total_bytes >> 20),
            fmt_secs(runtime),
            fmt_x(runtime / base),
        ]);
    }
    print_table(
        "Extension: tiered SSD+HDD storage (PageRank, hot groups SSD-first)",
        &[
            "SSD share",
            "SSD bytes",
            "HDD bytes",
            "runtime",
            "slowdown vs all-SSD",
        ],
        &rows,
    );
    note("paper §IX: 'extend G-Store to support even larger graphs on a tiered storage'");
}

/// Extension: G-Store's proactive tile cache vs GridGraph's page-cache
/// reliance (§VIII: "While GridGraph depends upon Linux page-cache for
/// caching, G-Store exploits the properties of 2D tiles to cache data
/// that are most likely to be needed in the next iteration").
pub fn ext_gridgraph(scale: &Scale) {
    use gstore_baselines::gridgraph::{GridGraphConfig, GridGraphEngine};
    use gstore_core::Bfs as GsBfs;
    use gstore_io::SsdArraySim;

    let el = scale.kron();
    let store = scale.store(&el);
    let tiling = *store.layout().tiling();
    let seg = 256u64 << 10;
    let budget = store.data_bytes() / 2;
    let cfg = GStoreEngine::builder().scr(ScrConfig::new(seg, budget + 2 * seg).unwrap());
    let iters = 5u32;

    let mut rows = Vec::new();
    let gg_run = |which: u8| {
        let mut gcfg = GridGraphConfig::new(tiling.partitions());
        gcfg.cache_bytes = budget + 2 * seg; // same total memory
        let (meta, blob) = gstore_baselines::gridgraph::build(&el, gcfg).unwrap();
        let sim = Arc::new(SsdArraySim::new(
            Arc::new(MemBackend::new(blob)),
            crate::model::scaled_array_config(2),
        ));
        let mut eng = GridGraphEngine::new(meta, sim.clone()).unwrap();
        let t0 = Instant::now();
        let stats = match which {
            0 => eng.bfs(0).unwrap().1,
            1 => eng.pagerank(iters, 0.85).unwrap().1,
            _ => eng.wcc().unwrap().1,
        };
        let wall = t0.elapsed().as_secs_f64();
        (
            stats,
            sim.stats().elapsed.max(wall),
            sim.stats().total_bytes,
        )
    };
    let gs_run = |which: u8| match which {
        0 => {
            let mut a = GsBfs::new(tiling, 0);
            run_gstore_on_sim(&store, cfg.clone(), 2, &mut a, 10_000).unwrap()
        }
        1 => {
            let mut a =
                PageRank::over(tiling, Arc::clone(store.degrees()), 0.85).with_iterations(iters);
            run_gstore_on_sim(&store, cfg.clone(), 2, &mut a, iters).unwrap()
        }
        _ => {
            let mut a = gstore_core::Wcc::new(tiling);
            run_gstore_on_sim(&store, cfg.clone(), 2, &mut a, 10_000).unwrap()
        }
    };
    for (name, which) in [("BFS", 0u8), ("PageRank", 1), ("CC/WCC", 2)] {
        let (_, gm) = gs_run(which);
        let (_, gg_rt, gg_bytes) = gg_run(which);
        rows.push(vec![
            name.to_string(),
            fmt_secs(gm.runtime()),
            fmt_secs(gg_rt),
            fmt_x(gg_rt / gm.runtime()),
            format!("{}MB", gm.bytes >> 20),
            format!("{}MB", gg_bytes >> 20),
        ]);
    }
    print_table(
        "Extension: G-Store vs GridGraph-style engine (equal memory budget)",
        &[
            "algorithm",
            "G-Store",
            "GridGraph",
            "speedup",
            "GS io",
            "GG io",
        ],
        &rows,
    );
    note("paper §VIII: GridGraph's page cache vs G-Store's proactive tile cache + SNB (4 vs 8 B/edge)");
}
