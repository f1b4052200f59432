//! The graph algorithms every sweep query runs over tiles: the paper's
//! BFS, PageRank and WCC (§II.B, §VII), plus k-core peeling and the
//! one-sweep degree count that bootstraps PageRank from the store alone.

pub mod bfs;
pub mod degree;
pub mod kcore;
pub mod pagerank;
pub mod wcc;

pub use bfs::{Bfs, UNREACHED};
pub use degree::DegreeCount;
pub use kcore::KCore;
pub use pagerank::PageRank;
pub use wcc::Wcc;
