//! Benchmark harness library: workload builders, the storage-time model,
//! table formatting, and one module per table/figure of the paper.
//!
//! The `repro` binary (`cargo run -p bench --release --bin repro -- <exp>`)
//! drives [`experiments`]. Performance is measured end to end by `gbench`
//! (`benchmark/`), not here.

pub mod experiments;
pub mod model;
pub mod table;
pub mod workloads;
