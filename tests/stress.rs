//! Larger end-to-end soak tests, `#[ignore]`d by default (each takes tens
//! of seconds). Run with:
//!
//! ```text
//! cargo test --release --test stress -- --ignored
//! ```

use gstore::graph::gen::{generate_rmat, RmatParams};
use gstore::graph::{reference, CompactDegrees};
use gstore::prelude::*;
use std::sync::Arc;

/// Scale-20 graph (1M vertices, 16M edges) through real files with a
/// memory budget of one eighth of the data: many segments, heavy pool
/// churn, three algorithms back-to-back on one engine.
#[test]
#[ignore = "soak test: ~1 minute in release mode"]
fn scale20_file_backed_soak() {
    let dir = tempfile::tempdir().unwrap();
    let el = generate_rmat(&RmatParams::kron(20, 16)).unwrap();
    let store = TileStore::build(&el, &ConversionOptions::new(12).with_group_side(16)).unwrap();
    let paths = gstore::tile::write_store(&store, dir.path(), "soak").unwrap();
    let tiling = *store.layout().tiling();
    let seg = 1u64 << 20;
    let mut engine = GStoreEngine::builder()
        .paths(&paths)
        .scr(ScrConfig::new(seg, store.data_bytes() / 8 + 2 * seg).unwrap())
        .build()
        .unwrap();

    let mut bfs = Bfs::new(tiling, 0);
    let stats = engine.run(&mut bfs, 10_000).unwrap();
    assert_eq!(
        bfs.depths(),
        reference::bfs_levels(&reference::bfs_csr(&el), 0)
    );
    assert!(stats.bytes_read > 0);

    engine.clear_cache();
    let deg = Arc::new(CompactDegrees::from_edge_list(&el).unwrap());
    let mut pr = PageRank::over(tiling, deg, 0.85).with_iterations(5);
    engine.run(&mut pr, 5).unwrap();
    let sum: f64 = pr.ranks().iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);

    engine.clear_cache();
    let mut wcc = Wcc::new(tiling);
    engine.run(&mut wcc, 10_000).unwrap();
    assert_eq!(wcc.labels(), reference::wcc_labels(&el));
}

/// Sixty-four concurrent BFS sources sharing tile scans on a scale-16
/// graph — one full `QueryBatch` of `Bfs` — each validated against the
/// single-source reference.
#[test]
#[ignore = "soak test: 64 searches on a scale-16 graph"]
fn multi_bfs_64_sources() {
    let el = generate_rmat(&RmatParams::kron(16, 8)).unwrap();
    let store = TileStore::build(&el, &ConversionOptions::new(10).with_group_side(8)).unwrap();
    let tiling = *store.layout().tiling();
    let roots: Vec<u64> = (0..QueryBatch::MAX_QUERIES as u64)
        .map(|i| (i * 997) % tiling.vertex_count())
        .collect();
    let mut searches: Vec<Bfs> = roots.iter().map(|&r| Bfs::new(tiling, r)).collect();
    let seg = 256u64 << 10;
    let mut engine = GStoreEngine::builder()
        .store(&store)
        .scr(ScrConfig::new(seg, store.data_bytes() / 2 + 2 * seg).unwrap())
        .build()
        .unwrap();
    let mut batch = QueryBatch::new();
    for bfs in &mut searches {
        batch.push(bfs).unwrap();
    }
    assert!(engine
        .run_batch(&mut batch, 10_000)
        .unwrap()
        .all_converged());
    let csr = reference::bfs_csr(&el);
    for (bfs, &r) in searches.iter().zip(&roots) {
        assert_eq!(bfs.depths(), reference::bfs_levels(&csr, r), "root {r}");
    }
}
