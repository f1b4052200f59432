//! `gbench`: the repo's one end-to-end benchmark.
//!
//! Seven workloads on real files drive the system only through public
//! functions of `gstore-graph`, `gstore-tile`, `gstore-io`, `gstore-scr`,
//! `gstore-core` and `gstore-server`; every input comes from a `--seed`.
//! End-to-end numbers come from an untraced run; a traced run records
//! spans around every call into a layer and replays each layer in
//! isolation for the per-layer numbers. See `README.md` for what each
//! metric is for and which layer should move it.

pub mod cli;
pub mod compare;
pub mod data;
pub mod json;
pub mod layers;
pub mod report;
pub mod trace;
pub mod workloads;
