//! # gstore
//!
//! A Rust reproduction of **G-Store** (Kumar & Huang, SC'16): a
//! high-performance, space-efficient graph store for semi-external
//! processing of very large graphs on SSD arrays.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — graph primitives, CSR/edge-list formats, generators,
//!   reference algorithms;
//! * [`tile`] — the paper's contribution: symmetry + smallest-number-of-
//!   bits tile format, physical grouping, on-disk layout;
//! * [`io`] — batched async I/O and the simulated SSD array;
//! * [`scr`] — Slide-Cache-Rewind memory management;
//! * [`core`] — the engine and the BFS / PageRank / WCC algorithms;
//! * [`server`] — the `gstore serve` daemon: concurrent clients over one
//!   engine, sweep queries admission-batched into shared scans;
//! * [`baselines`] — X-Stream-style and FlashGraph-style comparison
//!   engines;
//! * [`cachesim`] — the LLC model used for the cache-behaviour figures.
//!
//! ## Quickstart
//!
//! ```
//! use gstore::prelude::*;
//!
//! // Generate a small Kronecker graph and convert it to tile format.
//! let el = gstore::graph::gen::generate_rmat(
//!     &gstore::graph::gen::RmatParams::kron(10, 8),
//! )
//! .unwrap();
//! let store = TileStore::build(
//!     &el,
//!     &ConversionOptions::new(8).with_group_side(4),
//! )
//! .unwrap();
//!
//! // Run BFS through the full engine (AIO + SCR) over an in-memory
//! // backend.
//! let mut engine = GStoreEngine::builder()
//!     .store(&store)
//!     .scr(ScrConfig::new(64 << 10, 1 << 20).unwrap())
//!     .build()
//!     .unwrap();
//! let mut bfs = Bfs::new(*store.layout().tiling(), 0);
//! let stats = engine.run(&mut bfs, 1000).unwrap();
//! assert!(stats.iterations > 0);
//! assert!(bfs.visited_count() > 1);
//! ```
//!
//! ## Concurrent queries over one scan
//!
//! Several algorithms can share a single disk sweep: admit them into a
//! [`core::QueryBatch`] and the engine drives the union of their I/O
//! frontiers through one scan per iteration.
//!
//! ```
//! use gstore::prelude::*;
//!
//! let el = gstore::graph::gen::generate_rmat(
//!     &gstore::graph::gen::RmatParams::kron(9, 8),
//! )
//! .unwrap();
//! let store = TileStore::build(&el, &ConversionOptions::new(5)).unwrap();
//! let mut engine = GStoreEngine::builder()
//!     .store(&store)
//!     .scr(ScrConfig::new(16 << 10, 256 << 10).unwrap())
//!     .build()
//!     .unwrap();
//! let tiling = *store.layout().tiling();
//! let mut bfs = Bfs::new(tiling, 0);
//! let mut wcc = Wcc::new(tiling);
//! let mut batch = QueryBatch::new();
//! batch.push(&mut bfs).unwrap();
//! batch.push(&mut wcc).unwrap();
//! let stats = engine.run_batch(&mut batch, 1000).unwrap();
//! assert!(stats.all_converged());
//! assert!(stats.read_amortization() >= 1.0);
//! ```

pub mod cli;

pub use gstore_baselines as baselines;
pub use gstore_cachesim as cachesim;
pub use gstore_core as core;
pub use gstore_graph as graph;
pub use gstore_io as io;
pub use gstore_scr as scr;
pub use gstore_server as server;
pub use gstore_tile as tile;

/// The most common imports in one place.
pub mod prelude {
    pub use gstore_core::{
        Algorithm, BatchRunStats, Bfs, DegreeCount, EngineBuilder, GStoreEngine, IterationOutcome,
        KCore, PageRank, PointReader, QueryBatch, QueryKind, QueryOutcome, QuerySpec, QueryValue,
        RunStats, SweepQuery, TileView, Wcc,
    };
    pub use gstore_graph::{
        Csr, CsrDirection, Edge, EdgeList, GraphKind, GraphMeta, TupleWidth, VertexId,
    };
    pub use gstore_io::{FileBackend, MemBackend, SsdArraySim, StorageBackend};
    pub use gstore_scr::ScrConfig;
    pub use gstore_tile::{
        convert_streaming, ConversionOptions, EdgeEncoding, StreamingOptions, StreamingReport,
        TileCoord, TilePaths, TileStore, Tiling,
    };
}
