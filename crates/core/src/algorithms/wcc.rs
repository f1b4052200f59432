//! Connected components by parallel label propagation (Algorithm 2).
//!
//! Every vertex starts with its own ID as label; each edge lowers both
//! endpoints' labels to their minimum. For directed graphs this computes
//! *weakly* connected components from a single stored edge direction —
//! the paper's point (Algorithm 2): no broadcast over the other direction
//! is required, halving data access versus engines that store both.

use crate::algorithm::{Algorithm, IterationOutcome, ShardSides, UpdateMode};
use crate::atomics::{atomic_u64_vec_with, min_unsync_u64};
use crate::view::TileView;
use gstore_graph::VertexId;
use gstore_tile::Tiling;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Tile-based weakly-connected components.
pub struct Wcc {
    label: Vec<AtomicU64>,
    changed: AtomicBool,
}

impl Wcc {
    pub fn new(tiling: Tiling) -> Self {
        Wcc {
            label: atomic_u64_vec_with(tiling.vertex_count() as usize, |i| i as u64),
            changed: AtomicBool::new(false),
        }
    }

    /// Final labels; connected vertices share the smallest vertex ID of
    /// their component.
    pub fn labels(&self) -> Vec<VertexId> {
        self.label
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of distinct components.
    pub fn component_count(&self) -> usize {
        self.label
            .iter()
            .enumerate()
            .filter(|(i, l)| l.load(Ordering::Relaxed) == *i as u64)
            .count()
    }
}

impl Algorithm for Wcc {
    fn name(&self) -> &'static str {
        "wcc"
    }

    fn begin_iteration(&mut self, _iteration: u32) {
        self.changed.store(false, Ordering::Relaxed);
    }

    fn update_mode(&self) -> UpdateMode {
        // Label exchange writes both endpoints even on directed stores.
        UpdateMode::ShardedBoth
    }

    fn process_tile(&self, view: &TileView<'_>, sides: ShardSides) {
        // Weak connectivity: exchange minima in both directions using the
        // single stored tuple. Labels of vertices outside the owned sides may be concurrently
        // lowered elsewhere; reading a stale (higher) value is safe — the
        // min-lattice is monotone and any missed propagation implies a
        // same-iteration write elsewhere, which sets `changed` and forces
        // another sweep. Writes are confined to the enabled sides, and
        // `changed` is stored once per tile.
        let (label_src, label_dst) = view.partitions(&self.label);
        let mut changed = false;
        view.for_each_local(|s, d| {
            let ls = label_src[s].load(Ordering::Relaxed);
            let ld = label_dst[d].load(Ordering::Relaxed);
            if ls < ld {
                changed |= sides.dst && min_unsync_u64(&label_dst[d], ls);
            } else if ld < ls && sides.src {
                changed |= min_unsync_u64(&label_src[s], ld);
            }
        });
        if changed {
            self.changed.store(true, Ordering::Relaxed);
        }
    }

    fn end_iteration(&mut self, _iteration: u32) -> IterationOutcome {
        if self.changed.load(Ordering::Relaxed) {
            IterationOutcome::Continue
        } else {
            IterationOutcome::Converged
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::{run_in_memory, store_from_edges};
    use gstore_graph::reference;
    use gstore_graph::{Edge, EdgeList, GraphKind};

    #[test]
    fn two_components_undirected() {
        let el = EdgeList::new(
            6,
            GraphKind::Undirected,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(4, 5)],
        )
        .unwrap();
        let store = store_from_edges(&el, 1);
        let mut wcc = Wcc::new(*store.layout().tiling());
        run_in_memory(&store, &mut wcc, 100);
        assert_eq!(wcc.labels(), vec![0, 0, 0, 3, 4, 4]);
        assert_eq!(wcc.component_count(), 3);
    }

    #[test]
    fn directed_graph_weak_connectivity() {
        // Directed edges 2->0 and 1->0: all weakly connected.
        let el = EdgeList::new(
            3,
            GraphKind::Directed,
            vec![Edge::new(2, 0), Edge::new(1, 0)],
        )
        .unwrap();
        let store = store_from_edges(&el, 1);
        let mut wcc = Wcc::new(*store.layout().tiling());
        run_in_memory(&store, &mut wcc, 100);
        assert_eq!(wcc.labels(), vec![0, 0, 0]);
        assert_eq!(wcc.component_count(), 1);
    }

    #[test]
    fn matches_union_find_on_random_graphs() {
        use gstore_graph::gen::{generate_random, RandomParams};
        for seed in 0..3 {
            // Sparse: edge count below vertex count leaves many components.
            let p = RandomParams {
                vertex_count: 600,
                edge_count: 400,
                kind: GraphKind::Undirected,
                seed,
            };
            let el = generate_random(&p).unwrap();
            let store = store_from_edges(&el, 5);
            let mut wcc = Wcc::new(*store.layout().tiling());
            run_in_memory(&store, &mut wcc, 1000);
            let want = reference::wcc_labels(&el);
            assert_eq!(wcc.labels(), want, "seed {seed}");
            assert_eq!(wcc.component_count(), reference::component_count(&want));
        }
    }

    #[test]
    fn chain_needs_multiple_iterations() {
        // A long path propagates the minimum label one hop per iteration
        // at worst; verify convergence handles that.
        let n = 64u64;
        let edges: Vec<Edge> = (1..n).map(|i| Edge::new(i - 1, i)).collect();
        let el = EdgeList::new(n, GraphKind::Undirected, edges).unwrap();
        let store = store_from_edges(&el, 3);
        let mut wcc = Wcc::new(*store.layout().tiling());
        let stats = run_in_memory(&store, &mut wcc, 1000);
        assert!(wcc.labels().iter().all(|&l| l == 0));
        assert!(stats.iterations > 1);
        assert_eq!(wcc.component_count(), 1);
    }

    #[test]
    fn singleton_graph() {
        let el = EdgeList::new(4, GraphKind::Undirected, vec![]).unwrap();
        let store = store_from_edges(&el, 1);
        let mut wcc = Wcc::new(*store.layout().tiling());
        let stats = run_in_memory(&store, &mut wcc, 10);
        assert_eq!(wcc.component_count(), 4);
        assert_eq!(stats.iterations, 1); // nothing changes, immediate stop
    }
}
