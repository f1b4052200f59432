//! The G-Store engine (§III of the paper): semi-external graph processing
//! over the space-efficient tile format, with batched asynchronous I/O,
//! selective tile fetching, and Slide-Cache-Rewind memory management.
//!
//! * [`engine::GStoreEngine`] — the full pipeline over any storage backend;
//! * [`pointread::PointReader`] — the OLTP access path: per-vertex reads
//!   (`neighbors` / `degree` / k-hop / random walk) served from single
//!   tiles with a hot-tile cache;
//! * [`inmem`] — a no-I/O runner for in-memory experiments;
//! * [`algorithms`] — BFS, PageRank, WCC (+ k-core, degree counting);
//! * [`spec`] — the typed query surface: [`SweepQuery::for_index`] builds
//!   every sweep from a [`QuerySpec`] and the store's index;
//! * [`algorithm::Algorithm`] — the trait new algorithms implement;
//! * [`atomics`], [`view`] — building blocks for writing algorithms.
//!
//! ```
//! use gstore_core::{Bfs, GStoreEngine};
//! use gstore_graph::gen::{generate_rmat, RmatParams};
//! use gstore_scr::ScrConfig;
//! use gstore_tile::{ConversionOptions, TileStore};
//!
//! let el = generate_rmat(&RmatParams::kron(10, 8)).unwrap();
//! let store = TileStore::build(&el, &ConversionOptions::new(6)).unwrap();
//! let mut engine = GStoreEngine::builder()
//!     .store(&store)
//!     // Two 16 KB streaming segments + a small cache pool.
//!     .scr(ScrConfig::new(16 << 10, 256 << 10).unwrap())
//!     .build()
//!     .unwrap();
//! let mut bfs = Bfs::new(*store.layout().tiling(), 0);
//! let stats = engine.run(&mut bfs, 1000).unwrap();
//! assert!(bfs.visited_count() > 1 && stats.bytes_read > 0);
//! ```

#![warn(clippy::too_many_lines)]

pub mod algorithm;
pub mod algorithms;
pub mod atomics;
mod builder;
pub mod compute;
pub mod engine;
pub mod inmem;
pub mod pointread;
pub mod query;
pub mod spec;
pub mod view;

pub use algorithm::{Algorithm, IterationOutcome, RunStats, ShardSides, UpdateMode};
pub use algorithms::{Bfs, DegreeCount, KCore, PageRank, Wcc, UNREACHED};
pub use compute::{BatchOutcome, MultiBatchOutcome};
pub use engine::{EngineBuilder, GStoreEngine};
pub use pointread::PointReader;
pub use query::{BatchRunStats, QueryBatch, QueryOutcome};
pub use spec::{QueryKind, QuerySpec, QueryValue, SweepQuery};
pub use view::{TileEdges, TileView};
