//! The paper's future-work features working together: a graph stored in a
//! *compressed* tile codec on *tiered* SSD+HDD storage.
//!
//! Flow: generate a web-shaped graph → convert → encode the tiles with the
//! ζ3 bit codec → compare sizes against traditional formats → run WCC over
//! the coded bytes on a tiered backend where only the first half of the
//! data lives on the (simulated) SSD tier, and check it against the raw
//! store.
//!
//! Run with: `cargo run --release --example compressed_tiered`

use gstore::graph::gen::{generate_powerlaw, PowerLawParams};
use gstore::io::{hdd_array, ArrayConfig, SsdArraySim, TieredBackend};
use gstore::prelude::*;
use gstore::tile::recode::report_for;
use gstore::tile::sizing::human_bytes;
use gstore::tile::{encode_store, Codec};
use std::sync::Arc;
use std::time::Instant;

fn main() -> gstore::graph::Result<()> {
    // A web-graph-shaped workload (Subdomain at 1/2000 scale).
    let el = generate_powerlaw(&PowerLawParams::subdomain_like(2000))?;
    println!(
        "web graph: {} vertices, {} edges",
        el.vertex_count(),
        el.edge_count()
    );

    let store = TileStore::build(&el, &ConversionOptions::new(10).with_group_side(8))?;
    let (index, data) = encode_store(&store, Codec::ZetaGap)?;
    let report = report_for(&index);

    // -- Storage ladder: edge list -> CSR -> SNB tiles -> coded tiles. --
    let el_bytes = el.edge_count() * 8;
    let csr_bytes = el.edge_count() * 2 * 4; // both directions, u32 adj
    println!("\nstorage ladder (same graph):");
    println!("  edge list (8B tuples)   {}", human_bytes(el_bytes));
    println!("  CSR (both directions)   {}", human_bytes(csr_bytes));
    println!(
        "  G-Store SNB tiles       {}",
        human_bytes(report.logical_bytes)
    );
    println!(
        "  + {} codec            {}  ({:.2}x on top of SNB, {:.1}x vs CSR, {:.2} bytes/edge)",
        report.codec.name(),
        human_bytes(report.disk_bytes),
        report.ratio(),
        csr_bytes as f64 / report.disk_bytes as f64,
        report.bytes_per_edge()
    );

    // -- Tiered run over the coded bytes: first 50% on SSD, rest on HDD. --
    let boundary = report.disk_bytes / 2;
    let ssd = Arc::new(SsdArraySim::new(
        Arc::new(MemBackend::new(data.clone())),
        ArrayConfig::new(4),
    ));
    let hdd = Arc::new(SsdArraySim::new(
        Arc::new(MemBackend::new(data)),
        hdd_array(2),
    ));
    let tiered: Arc<dyn StorageBackend> = Arc::new(
        TieredBackend::new(ssd.clone(), hdd.clone(), boundary)
            .map_err(gstore::graph::GraphError::Io)?,
    );
    let mut engine = GStoreEngine::builder()
        .backend(index, tiered)
        .scr(ScrConfig::new(
            64 << 10,
            report.disk_bytes / 2 + (128 << 10),
        )?)
        .build()?;
    let tiling = *store.layout().tiling();
    let mut wcc = Wcc::new(tiling);
    let t0 = Instant::now();
    let stats = engine.run(&mut wcc, 1000)?;
    let wall = t0.elapsed().as_secs_f64();

    // The same WCC on the raw store in memory must agree label for label.
    let mut raw = Wcc::new(tiling);
    GStoreEngine::builder()
        .store(&store)
        .scr(ScrConfig::new(64 << 10, store.data_bytes() + (128 << 10))?)
        .build()?
        .run(&mut raw, 1000)?;
    assert_eq!(wcc.labels(), raw.labels(), "coded and raw WCC disagree");

    println!(
        "\nWCC over {} tiles on tiered storage (50% SSD / 50% HDD):",
        report.codec.name()
    );
    println!(
        "  {} components in {} iterations ({} read; same labels as the raw store)",
        wcc.component_count(),
        stats.iterations,
        human_bytes(stats.bytes_read)
    );
    println!(
        "  SSD tier served {}  in {:.3}s | HDD tier served {}  in {:.3}s | compute {:.3}s",
        human_bytes(ssd.stats().total_bytes),
        ssd.stats().elapsed,
        human_bytes(hdd.stats().total_bytes),
        hdd.stats().elapsed,
        wall
    );
    println!("\n(paper §VIII-IX: both compression and tiered storage are its named future work)");
    Ok(())
}
