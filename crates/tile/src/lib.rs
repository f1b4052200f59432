//! G-Store's space-efficient tile storage format (§IV–V of the paper).
//!
//! The pipeline: a graph's vertex space is 2D-partitioned into tiles
//! ([`layout`]); undirected graphs keep only the upper triangle and each
//! edge is encoded with the smallest number of bits ([`snb`], [`codec`]);
//! tiles are arranged on disk in cache-sized physical groups ([`grouping`]);
//! conversion from edge lists is two-pass ([`mod@convert`]); the result is a
//! [`TileStore`] persisted as a data file plus a start-edge index
//! ([`mod@file`]). [`sizing`] reproduces the paper's Table II storage
//! arithmetic and [`stats`] the tile/group occupancy figures; [`bitcodec`]
//! implements the paper's future-work tile compression.
//!
//! ```
//! use gstore_tile::{ConversionOptions, TileStore};
//! use gstore_graph::{Edge, EdgeList, GraphKind};
//!
//! // Figure 1's example graph: 8 vertices, 9 undirected edges.
//! let el = EdgeList::new(8, GraphKind::Undirected, vec![
//!     Edge::new(0, 1), Edge::new(0, 3), Edge::new(0, 4),
//!     Edge::new(1, 2), Edge::new(1, 4), Edge::new(2, 4),
//!     Edge::new(4, 5), Edge::new(5, 6), Edge::new(5, 7),
//! ]).unwrap();
//!
//! // 2x2 partitioning (tile_bits = 2): symmetry keeps 3 of 4 tiles,
//! // SNB packs each edge into 4 bytes (Figure 4).
//! let store = TileStore::build(&el, &ConversionOptions::new(2)).unwrap();
//! assert_eq!(store.tile_count(), 3);
//! assert_eq!(store.data_bytes(), 9 * 4);
//! ```

pub mod bitcodec;
pub mod codec;
pub mod convert;
pub mod file;
pub mod grouping;
pub mod layout;
pub mod recode;
pub mod sizing;
pub mod snb;
pub mod stats;
pub mod store;
pub mod stream;

pub use bitcodec::{BitReader, BitWriter, Codec, TileCursor, ZETA_K};
pub use codec::EdgeEncoding;
pub use convert::{convert, ConversionOptions};
pub use file::{persist_and_open, write_store, TileFile, TileIndex, TilePaths};
pub use grouping::{GroupCoord, GroupInfo, GroupedLayout};
pub use layout::{TileCoord, Tiling, MAX_TILE_BITS};
pub use recode::{encode_store, recode_store_files, write_coded_store, CodecReport};
pub use snb::{SnbEdge, SNB_EDGE_BYTES};
pub use store::TileStore;
pub use stream::{
    convert_streaming, convert_streaming_to, StreamingOptions, StreamingReport,
    DEFAULT_MEM_BUDGET_BYTES,
};
