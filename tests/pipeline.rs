//! End-to-end integration tests spanning every crate: generate → convert →
//! persist → reopen → process through the full engine (AIO + SCR) on real
//! files, in-memory backends, and the simulated SSD array — always checked
//! against the in-memory reference implementations.

use gstore::graph::gen::{generate_powerlaw, generate_rmat, PowerLawParams, RmatParams};
use gstore::graph::{reference, CompactDegrees};
use gstore::io::{ArrayConfig, FaultPolicy, IoFaultInjector, SsdArraySim};
use gstore::prelude::*;
use gstore::tile::Codec;
use std::sync::Arc;

fn kron(scale: u32, ef: u64, kind: GraphKind) -> EdgeList {
    generate_rmat(&RmatParams::kron(scale, ef).with_kind(kind)).unwrap()
}

fn small(store: &TileStore) -> EngineBuilder {
    let seg = (store.data_bytes() / 6).max(1024);
    GStoreEngine::builder()
        .store(store)
        .scr(ScrConfig::new(seg, seg * 2 + store.data_bytes() / 3 + 512).unwrap())
}

#[test]
fn file_backed_pipeline_all_algorithms() {
    let dir = tempfile::tempdir().unwrap();
    let el = kron(10, 8, GraphKind::Undirected);
    let store = TileStore::build(&el, &ConversionOptions::new(5).with_group_side(4)).unwrap();
    let paths = gstore::tile::write_store(&store, dir.path(), "g").unwrap();
    let tiling = *store.layout().tiling();

    let mut engine = small(&store).paths(&paths).build().unwrap();

    // BFS
    let mut bfs = Bfs::new(tiling, 3);
    let stats = engine.run(&mut bfs, 10_000).unwrap();
    assert_eq!(
        bfs.depths(),
        reference::bfs_levels(&reference::bfs_csr(&el), 3)
    );
    assert!(stats.bytes_read > 0);

    // PageRank (fresh engine cache to make runs independent)
    engine.clear_cache();
    let deg = CompactDegrees::from_edge_list(&el).unwrap().to_vec();
    let mut pr = PageRank::new(tiling, deg, 0.85).with_iterations(12);
    engine.run(&mut pr, 12).unwrap();
    let csr = Csr::from_edge_list(&el, CsrDirection::Out);
    let want = reference::pagerank(&csr, 12, 0.85);
    for (a, b) in pr.ranks().iter().zip(&want) {
        assert!((a - b).abs() < 1e-9);
    }

    // WCC
    engine.clear_cache();
    let mut wcc = Wcc::new(tiling);
    engine.run(&mut wcc, 10_000).unwrap();
    assert_eq!(wcc.labels(), reference::wcc_labels(&el));
}

#[test]
fn simulated_ssd_array_pipeline() {
    let el = kron(10, 6, GraphKind::Directed);
    let store = TileStore::build(&el, &ConversionOptions::new(6).with_group_side(2)).unwrap();
    let sim = Arc::new(SsdArraySim::new(
        Arc::new(MemBackend::new(store.data().to_vec())),
        ArrayConfig::new(4),
    ));
    let backend: Arc<dyn StorageBackend> = sim.clone();
    let mut engine = small(&store)
        .backend(store.index(), backend)
        .build()
        .unwrap();
    let mut bfs = Bfs::new(*store.layout().tiling(), 0);
    engine.run(&mut bfs, 10_000).unwrap();
    assert_eq!(
        bfs.depths(),
        reference::bfs_levels(&reference::bfs_csr(&el), 0)
    );
    // The array model observed real traffic, balanced across devices.
    let s = sim.stats();
    assert!(s.total_bytes > 0);
    assert!(s.elapsed > 0.0);
}

#[test]
fn fault_injection_surfaces_errors_without_panic() {
    let el = kron(9, 6, GraphKind::Undirected);
    let store = TileStore::build(&el, &ConversionOptions::new(5)).unwrap();
    for policy in [FaultPolicy::EveryNth(2), FaultPolicy::FirstN(1)] {
        let backend = Arc::new(MemBackend::new(store.data().to_vec()));
        let mut engine = small(&store)
            .backend(store.index(), backend)
            .io_fault(IoFaultInjector::new(policy))
            .build()
            .unwrap();
        let mut wcc = Wcc::new(*store.layout().tiling());
        assert!(engine.run(&mut wcc, 100).is_err());
    }
}

#[test]
fn corrupted_files_rejected_at_open() {
    let dir = tempfile::tempdir().unwrap();
    let el = kron(9, 4, GraphKind::Undirected);
    let store = TileStore::build(&el, &ConversionOptions::new(5)).unwrap();
    let paths = gstore::tile::write_store(&store, dir.path(), "g").unwrap();

    // Truncate the data file.
    let bytes = std::fs::read(&paths.tiles).unwrap();
    std::fs::write(&paths.tiles, &bytes[..bytes.len() / 2]).unwrap();
    assert!(small(&store).paths(&paths).build().is_err());

    // Corrupt the start-edge magic.
    std::fs::write(&paths.tiles, &bytes).unwrap();
    let mut idx = std::fs::read(&paths.start).unwrap();
    idx[0] ^= 0xFF;
    std::fs::write(&paths.start, &idx).unwrap();
    assert!(small(&store).paths(&paths).build().is_err());
}

#[test]
fn power_law_graph_through_pipeline() {
    let mut params = PowerLawParams::twitter_like(20_000);
    params.kind = GraphKind::Directed;
    let el = generate_powerlaw(&params).unwrap();
    let store = TileStore::build(&el, &ConversionOptions::new(8).with_group_side(2)).unwrap();
    let mut engine = small(&store).build().unwrap();
    let mut wcc = Wcc::new(*store.layout().tiling());
    engine.run(&mut wcc, 10_000).unwrap();
    assert_eq!(wcc.labels(), reference::wcc_labels(&el));
}

#[test]
fn tuple_encoded_stores_run_identically() {
    // The engine is encoding-agnostic: the Figure 10 ablation formats must
    // produce identical algorithm results.
    let el = kron(9, 6, GraphKind::Undirected);
    let mut depths = Vec::new();
    for (enc, sym) in [
        (EdgeEncoding::Snb, true),
        (EdgeEncoding::Tuple8, true),
        (EdgeEncoding::Tuple8, false),
        (EdgeEncoding::Tuple16, false),
    ] {
        let mut opts = ConversionOptions::new(5)
            .with_group_side(4)
            .with_encoding(enc);
        if !sym {
            opts = opts.without_symmetry();
        }
        let store = TileStore::build(&el, &opts).unwrap();
        let mut engine = small(&store).build().unwrap();
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        engine.run(&mut bfs, 10_000).unwrap();
        depths.push(bfs.depths());
    }
    assert!(depths.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(
        depths[0],
        reference::bfs_levels(&reference::bfs_csr(&el), 0)
    );
}

#[test]
fn compressed_store_runs_identically() {
    // The paper's future-work path: a varint-coded pair on disk, opened
    // like any store — results must match the references exactly.
    let dir = tempfile::tempdir().unwrap();
    let el = kron(10, 6, GraphKind::Undirected);
    let store = TileStore::build(&el, &ConversionOptions::new(5).with_group_side(4)).unwrap();
    let (cpaths, report) =
        gstore::tile::write_coded_store(&store, dir.path(), "c", Codec::DeltaVarint).unwrap();
    assert!(report.ratio() > 1.0);
    let mut engine = small(&store).paths(&cpaths).build().unwrap();
    assert_eq!(engine.index().codec, Codec::DeltaVarint);
    let mut bfs = Bfs::new(*store.layout().tiling(), 0);
    engine.run(&mut bfs, 10_000).unwrap();
    assert_eq!(
        bfs.depths(),
        reference::bfs_levels(&reference::bfs_csr(&el), 0)
    );
    let mut wcc = Wcc::new(*store.layout().tiling());
    engine.clear_cache();
    engine.run(&mut wcc, 10_000).unwrap();
    assert_eq!(wcc.labels(), reference::wcc_labels(&el));
}

#[test]
fn tiered_backend_runs_identically() {
    use gstore::io::{hdd_array, TieredBackend};
    let el = kron(9, 6, GraphKind::Undirected);
    let store = TileStore::build(&el, &ConversionOptions::new(5)).unwrap();
    let ssd = Arc::new(SsdArraySim::new(
        Arc::new(MemBackend::new(store.data().to_vec())),
        ArrayConfig::new(2),
    ));
    let hdd = Arc::new(SsdArraySim::new(
        Arc::new(MemBackend::new(store.data().to_vec())),
        hdd_array(1),
    ));
    let tiered: Arc<dyn StorageBackend> =
        Arc::new(TieredBackend::new(ssd.clone(), hdd.clone(), store.data_bytes() / 3).unwrap());
    let mut engine = small(&store)
        .backend(store.index(), tiered)
        .build()
        .unwrap();
    let mut bfs = Bfs::new(*store.layout().tiling(), 0);
    engine.run(&mut bfs, 10_000).unwrap();
    assert_eq!(
        bfs.depths(),
        reference::bfs_levels(&reference::bfs_csr(&el), 0)
    );
    // Both tiers actually served traffic.
    assert!(ssd.stats().total_bytes > 0);
    assert!(hdd.stats().total_bytes > 0);
}

#[test]
fn multiple_roots_and_reruns_share_engine() {
    let el = kron(9, 8, GraphKind::Undirected);
    let store = TileStore::build(&el, &ConversionOptions::new(5)).unwrap();
    let mut engine = small(&store).build().unwrap();
    let csr = reference::bfs_csr(&el);
    for root in [0u64, 1, 100, 511] {
        let mut bfs = Bfs::new(*store.layout().tiling(), root);
        engine.run(&mut bfs, 10_000).unwrap();
        assert_eq!(
            bfs.depths(),
            reference::bfs_levels(&csr, root),
            "root {root}"
        );
    }
}

#[test]
fn degree_then_pagerank_bootstrap_from_disk_only() {
    // A downstream user has only the store's files on disk: the degrees
    // come with the index, and a degree sweep over the tiles agrees.
    let dir = tempfile::tempdir().unwrap();
    let el = kron(9, 6, GraphKind::Directed);
    let store = TileStore::build(&el, &ConversionOptions::new(5)).unwrap();
    let paths = gstore::tile::write_store(&store, dir.path(), "g").unwrap();
    drop(store);

    let opened = gstore::tile::TileFile::open(&paths).unwrap();
    let tiling = *opened.index().layout.tiling();
    let degrees = opened.index().degrees().to_vec();
    let store = opened.load_all().unwrap();
    let mut engine = small(&store).build().unwrap();
    let mut dc = DegreeCount::new(tiling);
    engine.run(&mut dc, 1).unwrap();
    assert_eq!(dc.degrees(), degrees);
    let mut pr = PageRank::new(tiling, degrees, 0.85).with_iterations(8);
    engine.run(&mut pr, 8).unwrap();
    let csr = Csr::from_edge_list(&el, CsrDirection::Out);
    let want = reference::pagerank(&csr, 8, 0.85);
    for (a, b) in pr.ranks().iter().zip(&want) {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn streaming_conversion_survives_write_faults() {
    // An injected pwrite failure mid-pass-2 must surface as a typed error,
    // leak no pooled buffers, and leave the paths retryable in place
    // (truncate-and-rewrite).
    let dir = tempfile::tempdir().unwrap();
    let el = kron(9, 8, GraphKind::Undirected);
    let edge_path = dir.path().join("g.el");
    el.write_binary(&edge_path, TupleWidth::U32).unwrap();
    let paths = TilePaths::new(dir.path(), "g");
    let pool = gstore::io::BufferPool::new();
    let opts = StreamingOptions::new(ConversionOptions::new(5).with_group_side(4))
        .with_chunk_edges(512)
        .with_pool(pool.clone());

    let store = gstore::tile::convert(&el, &opts.convert).unwrap();
    // The very first write of the run, and every seventh of the chunks'
    // per-tile writes (so chunks fail mid-pack, not only at their start).
    for policy in [FaultPolicy::FirstN(1), FaultPolicy::EveryNth(7)] {
        let inner = Arc::new(gstore::io::FileWriteBackend::create(&paths.tiles, false).unwrap());
        let faulty = Arc::new(gstore::io::FaultWriteBackend::new(inner, policy.clone()));
        let err = gstore::tile::convert_streaming_to(&edge_path, faulty.clone(), &paths, &opts)
            .unwrap_err();
        assert!(
            matches!(err, gstore::graph::GraphError::Io(_)),
            "{policy:?}: want typed I/O error, got {err:?}"
        );
        assert!(faulty.injected() >= 1, "{policy:?}: fault never fired");
        assert_eq!(
            pool.outstanding(),
            0,
            "{policy:?}: failed run leaked pooled buffers"
        );

        // Retry on the same paths succeeds and matches the in-memory
        // converter.
        let report = gstore::tile::convert_streaming(&edge_path, dir.path(), "g", &opts).unwrap();
        assert_eq!(std::fs::read(&report.paths.tiles).unwrap(), store.data());
        assert_eq!(pool.outstanding(), 0);
    }
}
