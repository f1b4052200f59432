//! Pins the public API surface: the prelude's exports, the builder's
//! validation contract, and the equivalence of the builder's three source
//! spellings (`paths` / `store` / `backend`) — the deprecated
//! `EngineConfig::new` + `with_*` / `GStoreEngine::new`/`open`/`from_store`
//! shims are gone, so `builder()` is the only construction path and
//! `EngineConfig` is private.

// If anything is removed from (or renamed in) the prelude, this explicit
// import list stops compiling — the prelude is a compatibility surface,
// so shrinking it is a breaking change that must be deliberate.
#[rustfmt::skip]
use gstore::prelude::{
    // Engine + algorithms (gstore-core).
    Algorithm, BatchRunStats, Bfs, DegreeCount, EngineBuilder, GStoreEngine, IterationOutcome,
    KCore, PageRank, QueryBatch, QueryKind, QueryOutcome, QuerySpec, QueryValue, RunStats,
    SweepQuery, TileView, Wcc,
    // Graph primitives (gstore-graph).
    Csr, CsrDirection, Edge, EdgeList, GraphKind, GraphMeta, TupleWidth, VertexId,
    // Storage (gstore-io).
    FileBackend, MemBackend, SsdArraySim, StorageBackend,
    // Memory policy (gstore-scr).
    ScrConfig,
    // Tile format (gstore-tile).
    ConversionOptions, EdgeEncoding, TileCoord, TilePaths, TileStore, Tiling,
};

use gstore::graph::gen::{generate_rmat, RmatParams};
use gstore::graph::GraphError;
use std::sync::Arc;

fn small_store() -> TileStore {
    let el = generate_rmat(&RmatParams::kron(8, 4)).unwrap();
    TileStore::build(&el, &ConversionOptions::new(4).with_group_side(2)).unwrap()
}

fn scr_for(store: &TileStore) -> ScrConfig {
    let seg = (store.data_bytes() / 4).max(256);
    ScrConfig::new(seg, seg * 3).unwrap()
}

/// Every prelude type is nameable in a signature (catches accidental
/// re-export of private or renamed items at compile time).
#[allow(dead_code, clippy::too_many_arguments, clippy::type_complexity)]
fn prelude_types_are_nameable(
    _: (&EngineBuilder, &GStoreEngine),
    _: (&dyn Algorithm, &RunStats, &IterationOutcome, &TileView),
    _: (&QueryBatch, &QueryOutcome, &BatchRunStats),
    _: (&QuerySpec, &QueryKind, &QueryValue, &SweepQuery),
    _: (&Bfs, &Wcc, &PageRank, &KCore, &DegreeCount),
    _: (
        &Csr,
        &CsrDirection,
        &Edge,
        &EdgeList,
        &GraphKind,
        &GraphMeta,
        &TupleWidth,
        &VertexId,
    ),
    _: (&FileBackend, &MemBackend, &SsdArraySim, &dyn StorageBackend),
    _: (
        &ScrConfig,
        &ConversionOptions,
        &EdgeEncoding,
        &TileCoord,
        &TilePaths,
        &TileStore,
        &Tiling,
    ),
) {
}

#[test]
fn builder_rejects_incomplete_configuration() {
    let store = small_store();
    let is_invalid = |r: Result<GStoreEngine, GraphError>| {
        matches!(r.err(), Some(GraphError::InvalidParameter(_)))
    };
    // No source.
    assert!(is_invalid(
        GStoreEngine::builder().scr(scr_for(&store)).build()
    ));
    // No memory policy.
    assert!(is_invalid(GStoreEngine::builder().store(&store).build()));
    // Zero I/O workers.
    assert!(is_invalid(
        GStoreEngine::builder()
            .store(&store)
            .scr(scr_for(&store))
            .io_workers(0)
            .build()
    ));
}

/// The builder's three source spellings — on-disk `paths`, in-memory
/// `store`, and an explicit `backend` — construct engines that behave
/// identically over the same graph. This replaces the old shim-equivalence
/// tests: the sources are the surface now, not the constructors.
#[test]
fn builder_sources_are_equivalent() {
    let store = small_store();
    let tiling = *store.layout().tiling();

    let dir = tempfile::tempdir().unwrap();
    let paths = gstore::tile::write_store(&store, dir.path(), "api").unwrap();
    let index = store.index();
    let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new(store.data().to_vec()));

    let mut via_paths = GStoreEngine::builder()
        .paths(&paths)
        .scr(scr_for(&store))
        .build()
        .unwrap();
    let mut via_store = GStoreEngine::builder()
        .store(&store)
        .scr(scr_for(&store))
        .build()
        .unwrap();
    let mut via_backend = GStoreEngine::builder()
        .backend(index, backend)
        .scr(scr_for(&store))
        .build()
        .unwrap();

    let mut depths = Vec::new();
    let mut stats = Vec::new();
    for engine in [&mut via_paths, &mut via_store, &mut via_backend] {
        let mut bfs = Bfs::new(tiling, 0);
        stats.push(engine.run(&mut bfs, 1000).unwrap());
        depths.push(bfs.depths());
    }
    assert_eq!(depths[0], depths[1]);
    assert_eq!(depths[1], depths[2]);
    // What the run did is the same whatever the source; *where* a tile
    // came from is not. SCR admits tiles in I/O completion order, which
    // differs between a file and memory, so one small tile can be served
    // from disk under one source and from the pool under another —
    // `bytes_read` and the fetched/cached split may differ by that tile.
    // Their sum, and everything computed from the tiles, may not.
    for s in &stats[1..] {
        assert_eq!(s.iterations, stats[0].iterations);
        assert_eq!(s.edges_processed, stats[0].edges_processed);
        assert_eq!(s.tiles_processed, stats[0].tiles_processed);
        assert_eq!(
            s.tiles_fetched + s.tiles_from_cache,
            stats[0].tiles_fetched + stats[0].tiles_from_cache
        );
    }
}

/// The knob spellings live on the builder and really take effect.
#[test]
fn builder_knobs_take_effect() {
    let store = small_store();
    let tiling = *store.layout().tiling();
    let total = store.data_bytes() + 4096;

    let mut base = GStoreEngine::builder()
        .store(&store)
        .base_policy(total)
        .metrics(true)
        .build()
        .unwrap();
    let mut bfs = Bfs::new(tiling, 0);
    base.run(&mut bfs, 1000).unwrap();
    // The recorder really is on.
    assert!(base.metrics().is_some());

    let mut plain = GStoreEngine::builder()
        .store(&store)
        .scr(scr_for(&store))
        .build()
        .unwrap();
    let mut bfs2 = Bfs::new(tiling, 0);
    plain.run(&mut bfs2, 1000).unwrap();
    assert_eq!(bfs.depths(), bfs2.depths());
    assert!(plain.metrics().is_none());
}

/// The typed query surface: specs round-trip through text, classify
/// themselves, and build runnable algorithms — the single grammar behind
/// `gstore batch`, `gstore query`, and the serve wire protocol.
#[test]
fn query_spec_surface() {
    let store = small_store();

    let sweep: QuerySpec = "bfs:0".parse().unwrap();
    assert_eq!(sweep.kind(), QueryKind::Sweep);
    assert_eq!(sweep.to_string(), "bfs:0");
    let mut engine = GStoreEngine::builder()
        .store(&store)
        .scr(scr_for(&store))
        .build()
        .unwrap();
    let mut query = SweepQuery::for_index(&sweep, engine.index()).unwrap();
    engine.run(query.algorithm_mut(), 1000).unwrap();
    let value = query.result();
    assert_eq!(QueryValue::decode(&value.encode()).unwrap(), value);

    let point: QuerySpec = "degree:0".parse().unwrap();
    assert_eq!(point.kind(), QueryKind::Point);
    let reader = engine.point_reader();
    let got = gstore::core::spec::run_point(&reader, &point, 42).unwrap();
    assert!(matches!(got, QueryValue::Degree(_)));

    assert!(matches!(
        "bogus".parse::<QuerySpec>(),
        Err(GraphError::InvalidParameter(_))
    ));
}
