//! In-memory tile runner.
//!
//! Runs an [`Algorithm`] over a fully resident [`TileStore`] through the
//! engine's compute executor ([`compute::process_batch`]) — no I/O, no
//! SCR. Used by algorithm unit tests and the in-memory experiments of the
//! paper (Figure 2(b) partition sweep, Figure 11 group-composition sweep),
//! where only compute behaviour matters. Each shard walks its items in
//! ascending tile index, which is physical-group-major order (§V.A).

use crate::algorithm::{Algorithm, IterationOutcome, RunStats};
use crate::compute;
use crate::engine::select_tiles;
use gstore_graph::EdgeList;
use gstore_tile::{ConversionOptions, TileStore};
use std::time::Instant;

/// Convenience: builds an SNB tile store with `tile_bits`-sized tiles.
pub fn store_from_edges(el: &EdgeList, tile_bits: u32) -> TileStore {
    TileStore::build(el, &ConversionOptions::new(tile_bits))
        .expect("conversion of a valid edge list cannot fail")
}

/// Runs `alg` to convergence (or `max_iters`) over an in-memory store.
pub fn run_in_memory(store: &TileStore, alg: &mut dyn Algorithm, max_iters: u32) -> RunStats {
    let start = Instant::now();
    let mut stats = RunStats::default();
    let index = store.index();
    for iteration in 0..max_iters {
        alg.begin_iteration(iteration);
        let tiles: Vec<(u64, &[u8])> = (select_tiles(store.layout(), &*alg).into_iter())
            .map(|t| (t, store.tile_bytes(t)))
            .collect();
        let done = compute::process_batch(&index, &*alg, &tiles);
        stats.iterations = iteration + 1;
        stats.tiles_processed += tiles.len() as u64;
        stats.edges_processed += done.edges;
        if alg.end_iteration(iteration) == IterationOutcome::Converged {
            break;
        }
    }
    stats.elapsed = start.elapsed().as_secs_f64();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{ShardSides, UpdateMode};
    use crate::view::TileView;
    use gstore_graph::{Edge, GraphKind};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Counts edges seen; converges after 2 iterations.
    struct Counter {
        seen: AtomicU64,
        iters: u32,
    }

    impl Algorithm for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn begin_iteration(&mut self, _i: u32) {}
        fn process_tile(&self, view: &TileView<'_>, _sides: ShardSides) {
            self.seen.fetch_add(view.edge_count(), Ordering::Relaxed);
        }
        fn update_mode(&self) -> UpdateMode {
            UpdateMode::ShardedDst
        }
        fn end_iteration(&mut self, _i: u32) -> IterationOutcome {
            self.iters += 1;
            if self.iters >= 2 {
                IterationOutcome::Converged
            } else {
                IterationOutcome::Continue
            }
        }
    }

    #[test]
    fn runner_visits_every_edge_each_iteration() {
        let el = EdgeList::new(
            8,
            GraphKind::Undirected,
            vec![Edge::new(0, 1), Edge::new(2, 7), Edge::new(4, 5)],
        )
        .unwrap();
        let store = store_from_edges(&el, 2);
        let mut c = Counter {
            seen: AtomicU64::new(0),
            iters: 0,
        };
        let stats = run_in_memory(&store, &mut c, 10);
        assert_eq!(stats.iterations, 2);
        assert_eq!(c.seen.load(Ordering::Relaxed), 6);
        assert_eq!(stats.edges_processed, 6);
        assert_eq!(stats.tiles_processed, 2 * store.tile_count());
    }

    #[test]
    fn max_iters_caps_run() {
        let el = EdgeList::new(4, GraphKind::Directed, vec![Edge::new(0, 1)]).unwrap();
        let store = store_from_edges(&el, 1);
        let mut c = Counter {
            seen: AtomicU64::new(0),
            iters: 0,
        };
        let stats = run_in_memory(&store, &mut c, 1);
        assert_eq!(stats.iterations, 1);
    }
}
