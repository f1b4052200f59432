//! Semi-external processing on a simulated SSD array — a scaled version
//! of the paper's headline scenario (trillion-edge graphs on 8 SSDs,
//! Table III / Figure 15).
//!
//! Builds a Kron-20-16 graph (1M vertices, 16M edges), serves its tile
//! data from a simulated RAID-0 array, and reports modelled runtimes and
//! MTEPS for BFS / PageRank / WCC across 1..8 devices.
//!
//! Run with: `cargo run --release --example ssd_array_scaling`

use gstore::io::{ArrayConfig, SsdArraySim};
use gstore::prelude::*;
use gstore::tile::sizing::human_bytes;
use std::sync::Arc;
use std::time::Instant;

fn main() -> gstore::graph::Result<()> {
    let el = gstore::graph::gen::generate_rmat(&gstore::graph::gen::RmatParams::kron(20, 16))?;
    let store = TileStore::build(&el, &ConversionOptions::new(12).with_group_side(16))?;
    println!(
        "Kron-20-16: {} vertices, {} edges, {} tile data on the array",
        el.vertex_count(),
        el.edge_count(),
        human_bytes(store.data_bytes())
    );

    // Memory budget: a quarter of the graph — truly semi-external.
    let segment = 512 << 10;
    let builder = GStoreEngine::builder().scr(ScrConfig::new(
        segment,
        store.data_bytes() / 4 + 2 * segment,
    )?);

    let degrees = store.degrees().to_vec();

    println!("\ndevices  algorithm  modelled   io time    compute    metric");
    for devices in [1usize, 2, 4, 8] {
        for alg in ["bfs", "pagerank", "wcc"] {
            let sim = Arc::new(SsdArraySim::new(
                Arc::new(MemBackend::new(store.data().to_vec())),
                ArrayConfig::new(devices),
            ));
            let index = store.index();
            let backend: Arc<dyn StorageBackend> = sim.clone();
            let mut engine = builder.clone().backend(index, backend).build()?;
            let t0 = Instant::now();
            let (stats, metric) = match alg {
                "bfs" => {
                    let mut bfs = Bfs::new(*store.layout().tiling(), 0);
                    let stats = engine.run(&mut bfs, 1000)?;
                    let m = format!("{} visited", bfs.visited_count());
                    (stats, m)
                }
                "pagerank" => {
                    let mut pr = PageRank::new(*store.layout().tiling(), degrees.clone(), 0.85)
                        .with_iterations(5);
                    let stats = engine.run(&mut pr, 5)?;
                    (stats, "5 iterations".to_string())
                }
                _ => {
                    let mut wcc = Wcc::new(*store.layout().tiling());
                    let stats = engine.run(&mut wcc, 1000)?;
                    let m = format!("{} components", wcc.component_count());
                    (stats, m)
                }
            };
            let wall = t0.elapsed().as_secs_f64();
            let io = sim.stats().elapsed;
            let runtime = wall.max(io);
            println!(
                "{devices:>7}  {alg:<9}  {:>8.3}s  {:>8.3}s  {:>8.3}s  {} ({:.0} MTEPS)",
                runtime,
                io,
                wall,
                metric,
                stats.edges_processed as f64 / 1e6 / runtime
            );
        }
    }
    println!("\n(the paper's full-scale run: Kron-31-256, 1 trillion edges, 8 real SSDs,");
    println!(" BFS in 43 min at 432 MTEPS — same pipeline, bigger machine)");
    Ok(())
}
