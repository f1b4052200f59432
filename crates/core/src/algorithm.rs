//! The algorithm interface the G-Store engine drives (§II.B, §VI.C).
//!
//! Algorithms are iterative: the engine sweeps tiles, calling
//! [`Algorithm::process_tile`] from many threads, until
//! [`Algorithm::end_iteration`] reports convergence. Two query methods
//! expose the *algorithmic metadata* that powers G-Store's selective I/O
//! and proactive caching: which vertex ranges participate in the current
//! iteration, and which are already known to participate in the next.

use crate::view::TileView;

/// Outcome of one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationOutcome {
    /// Run another iteration.
    Continue,
    /// Fixed point / traversal complete.
    Converged,
}

/// How an algorithm's per-vertex metadata may be written during a sweep.
///
/// The column-sharded compute path (§V.C two-level parallelism) assigns
/// each worker a disjoint set of vertex partitions; updates to owned
/// partitions become plain load+store writes with no `lock`-prefixed RMW.
/// Algorithms declare which endpoints they write so the scheduler can
/// build a conflict-free assignment — or keep the atomic fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Updates use atomics; tiles may be processed in any order by any
    /// worker. The default, and the fallback for algorithms whose writes
    /// are already cheap (BFS's CAS-once) or not partition-local.
    Atomic,
    /// Writes land only on the *destination* (column) endpoint. One work
    /// item per tile, keyed by its column partition.
    ShardedDst,
    /// Writes land on both endpoints (undirected stores, or label/degree
    /// propagation in both directions). Off-diagonal tiles are split into
    /// two work items — a destination-side item keyed by the column
    /// partition and a source-side item keyed by the row partition — each
    /// walking the tile's resident raw bytes and applying one side's
    /// updates.
    ShardedBoth,
}

/// Which endpoint sides a sharded work item must apply. Passed to
/// [`Algorithm::process_tile_sharded`]; the implementation must write
/// *only* vertices on the enabled sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSides {
    /// Apply updates to source (row-range) vertices.
    pub src: bool,
    /// Apply updates to destination (column-range) vertices.
    pub dst: bool,
}

/// An iterative tile-at-a-time graph algorithm.
///
/// `process_tile` receives `&self` and is called concurrently; metadata
/// must use atomics (see [`crate::atomics`]).
///
/// A minimal custom algorithm — count edges whose endpoints are both
/// even — looks like this:
///
/// ```
/// use gstore_core::{Algorithm, IterationOutcome, TileView};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// struct EvenEdges {
///     count: AtomicU64,
/// }
///
/// impl Algorithm for EvenEdges {
///     fn name(&self) -> &'static str {
///         "even-edges"
///     }
///     fn begin_iteration(&mut self, _i: u32) {
///         self.count.store(0, Ordering::Relaxed);
///     }
///     fn process_tile(&self, view: &TileView<'_>) {
///         for e in view.edges() {
///             if e.src % 2 == 0 && e.dst % 2 == 0 {
///                 self.count.fetch_add(1, Ordering::Relaxed);
///             }
///         }
///     }
///     fn end_iteration(&mut self, _i: u32) -> IterationOutcome {
///         IterationOutcome::Converged // one sweep is enough
///     }
/// }
///
/// use gstore_graph::{Edge, EdgeList, GraphKind};
/// use gstore_tile::{ConversionOptions, TileStore};
/// let el = EdgeList::new(8, GraphKind::Directed, vec![
///     Edge::new(0, 2), Edge::new(1, 2), Edge::new(4, 6),
/// ]).unwrap();
/// let store = TileStore::build(&el, &ConversionOptions::new(2)).unwrap();
/// let mut alg = EvenEdges { count: AtomicU64::new(0) };
/// gstore_core::inmem::run_in_memory(&store, &mut alg, 1);
/// assert_eq!(alg.count.load(Ordering::Relaxed), 2);
/// ```
pub trait Algorithm: Sync + Send {
    fn name(&self) -> &'static str;

    /// Called before each iteration's tile sweep.
    fn begin_iteration(&mut self, iteration: u32);

    /// Processes one tile's edges (called in parallel).
    fn process_tile(&self, view: &TileView<'_>);

    /// Called after the sweep; decides whether to continue.
    fn end_iteration(&mut self, iteration: u32) -> IterationOutcome;

    /// How this algorithm's metadata writes may be scheduled. Returning a
    /// sharded mode is a contract: [`Algorithm::process_tile_sharded`]
    /// must be implemented and must confine writes to the enabled sides.
    /// Results must match the atomic path exactly (bit-identical for
    /// integer metadata; FP accumulation order may differ within the
    /// documented tolerance).
    fn update_mode(&self) -> UpdateMode {
        UpdateMode::Atomic
    }

    /// Processes one tile applying updates only to the endpoints enabled
    /// in `sides`. Called concurrently, but the engine guarantees that no
    /// two concurrent calls write the same vertex partition — plain
    /// (non-atomic) writes such as [`crate::atomics::AtomicF64::add_unsync`]
    /// are safe here.
    fn process_tile_sharded(&self, _view: &TileView<'_>, _sides: ShardSides) {
        panic!(
            "{}: update_mode() declared a sharded mode but process_tile_sharded is not implemented",
            self.name()
        );
    }

    /// Whether the engine may skip tiles whose ranges are inactive
    /// (anchored computations like BFS). Iterative-on-everything
    /// algorithms (PageRank, WCC) return `false` and stream the full graph
    /// each iteration, as the paper does.
    fn selective(&self) -> bool {
        false
    }

    /// Whether vertex range (grid row) `row` participates in the *current*
    /// iteration. Only consulted when [`Algorithm::selective`] is true.
    fn range_active(&self, _row: u32) -> bool {
        true
    }

    /// Whether range `row` is — *as known so far* — going to participate
    /// in the **next** iteration. The engine combines this with row
    /// completion tracking to produce the proactive cache hints of §VI.C:
    /// active-so-far ⇒ `Needed`; inactive + row complete ⇒ `NotNeeded`;
    /// inactive + row incomplete ⇒ `Unknown`.
    fn range_active_next(&self, _row: u32) -> bool {
        true
    }
}

/// Counters the engine reports after a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    pub iterations: u32,
    /// Tiles processed across all iterations (including cached ones).
    pub tiles_processed: u64,
    /// Tiles served from the SCR cache pool (no I/O).
    pub tiles_from_cache: u64,
    /// Tiles fetched from storage.
    pub tiles_fetched: u64,
    /// Bytes fetched from storage.
    pub bytes_read: u64,
    /// AIO requests issued (after contiguous-run merging).
    pub io_requests: u64,
    /// Edges processed (sum over processed tiles).
    pub edges_processed: u64,
    /// Edges whose updates went through the column-sharded (plain-write)
    /// path. `sharded_edges + atomic_edges == edges_processed`.
    pub sharded_edges: u64,
    /// Edges whose updates used the atomic fallback path.
    pub atomic_edges: u64,
    /// Wall-clock seconds of the whole run.
    pub elapsed: f64,
}

impl RunStats {
    /// Million traversed edges per second, the paper's BFS metric.
    pub fn mteps(&self) -> f64 {
        if self.elapsed <= 0.0 {
            0.0
        } else {
            self.edges_processed as f64 / 1e6 / self.elapsed
        }
    }

    /// Fraction of processed tiles served from cache.
    pub fn cache_hit_fraction(&self) -> f64 {
        if self.tiles_processed == 0 {
            0.0
        } else {
            self.tiles_from_cache as f64 / self.tiles_processed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_derived_metrics() {
        let s = RunStats {
            edges_processed: 2_000_000,
            elapsed: 2.0,
            tiles_processed: 10,
            tiles_from_cache: 4,
            ..RunStats::default()
        };
        assert!((s.mteps() - 1.0).abs() < 1e-12);
        assert!((s.cache_hit_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn stats_zero_safe() {
        let s = RunStats::default();
        assert_eq!(s.mteps(), 0.0);
        assert_eq!(s.cache_hit_fraction(), 0.0);
    }
}
