//! Graph substrate for the G-Store workspace.
//!
//! This crate provides the representations the paper's Section II surveys —
//! edge lists, CSR, degree arrays — plus synthetic graph generators matching
//! the evaluation datasets, and reference algorithm implementations used as
//! correctness oracles by the tile engine and the baselines.
//!
//! The space-efficient *tile* format that is G-Store's contribution lives in
//! the `gstore-tile` crate, built on top of these primitives.

pub mod csr;
pub mod datasets;
pub mod degree;
pub mod edgelist;
pub mod gen;
pub mod reference;
pub mod stats;
pub mod text;
pub mod types;

pub use csr::{Csr, CsrDirection};
pub use datasets::{paper_graph, PaperGraph, PAPER_GRAPHS};
pub use degree::CompactDegrees;
pub use edgelist::{
    EdgeChunks, EdgeFileHeader, EdgeList, TupleWidth, Tuples, EDGE_FILE_HEADER_BYTES,
};
pub use types::{Edge, EdgeIndex, GraphError, GraphKind, GraphMeta, Result, VertexId};
