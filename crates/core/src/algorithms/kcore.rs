//! k-core decomposition over tiles.
//!
//! The k-core is the maximal subgraph in which every vertex has degree at
//! least `k`. Computed by iterative peeling: each sweep counts degrees
//! within the surviving subgraph, then removes vertices below `k`; the
//! fixed point is the k-core. Each peeling round is one full tile sweep —
//! the same sequential-bandwidth-friendly pattern as WCC, making this a
//! natural extra workload for a semi-external engine.

use crate::algorithm::{Algorithm, IterationOutcome, ShardSides, UpdateMode};
use crate::atomics::add_unsync_u64;
use crate::view::TileView;
use gstore_graph::VertexId;
use gstore_tile::Tiling;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Iterative k-core peeling.
pub struct KCore {
    k: u64,
    alive: Vec<AtomicBool>,
    degree: Vec<AtomicU64>,
}

impl KCore {
    pub fn new(tiling: Tiling, k: u64) -> Self {
        let n = tiling.vertex_count() as usize;
        KCore {
            k,
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            degree: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Vertices in the k-core after convergence.
    pub fn core_members(&self) -> Vec<VertexId> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, a)| a.load(Ordering::Relaxed))
            .map(|(v, _)| v as VertexId)
            .collect()
    }

    /// Membership bitmap.
    pub fn membership(&self) -> Vec<bool> {
        self.alive
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }
}

impl Algorithm for KCore {
    fn name(&self) -> &'static str {
        "kcore"
    }

    fn begin_iteration(&mut self, _iteration: u32) {
        for d in &self.degree {
            d.store(0, Ordering::Relaxed);
        }
    }

    fn process_tile(&self, view: &TileView<'_>, sides: ShardSides) {
        // Symmetric and directed stores count identically: coreness is
        // over the underlying undirected structure, so each stored tuple
        // contributes to both endpoints (self-loops excluded). `alive` is
        // frozen during the sweep (peeling happens in end_iteration), so
        // the per-side split sums to the same degrees in any order. Each
        // count is a plain write: the caller owns the partitions it writes.
        let (alive_src, alive_dst) = view.partitions(&self.alive);
        let (degree_src, degree_dst) = view.partitions(&self.degree);
        let diagonal = view.src_base == view.dst_base;
        view.for_each_local(|s, d| {
            if !(diagonal && s == d)
                && alive_src[s].load(Ordering::Relaxed)
                && alive_dst[d].load(Ordering::Relaxed)
            {
                if sides.dst {
                    add_unsync_u64(&degree_dst[d], 1);
                }
                if sides.src {
                    add_unsync_u64(&degree_src[s], 1);
                }
            }
        });
    }

    fn update_mode(&self) -> UpdateMode {
        // Each stored tuple increments both endpoints' degrees regardless
        // of store symmetry.
        UpdateMode::ShardedBoth
    }

    fn end_iteration(&mut self, _iteration: u32) -> IterationOutcome {
        let mut peeled = false;
        for (a, d) in self.alive.iter().zip(&self.degree) {
            if a.load(Ordering::Relaxed) && d.load(Ordering::Relaxed) < self.k {
                a.store(false, Ordering::Relaxed);
                peeled = true;
            }
        }
        if peeled {
            IterationOutcome::Continue
        } else {
            IterationOutcome::Converged
        }
    }
}

/// Reference k-core by repeated peeling over an adjacency list.
pub fn kcore_reference(el: &gstore_graph::EdgeList, k: u64) -> Vec<bool> {
    let n = el.vertex_count() as usize;
    let mut alive = vec![true; n];
    loop {
        let mut deg = vec![0u64; n];
        for e in el.edges() {
            if e.src != e.dst && alive[e.src as usize] && alive[e.dst as usize] {
                deg[e.src as usize] += 1;
                deg[e.dst as usize] += 1;
            }
        }
        let mut peeled = false;
        for v in 0..n {
            if alive[v] && deg[v] < k {
                alive[v] = false;
                peeled = true;
            }
        }
        if !peeled {
            return alive;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::{run_in_memory, store_from_edges};
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use gstore_graph::{Edge, EdgeList, GraphKind};

    #[test]
    fn triangle_with_tail() {
        // Triangle 0-1-2 is the 2-core; tail 2-3 peels away.
        let el = EdgeList::new(
            4,
            GraphKind::Undirected,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(0, 2),
                Edge::new(2, 3),
            ],
        )
        .unwrap();
        let store = store_from_edges(&el, 1);
        let mut kc = KCore::new(*store.layout().tiling(), 2);
        run_in_memory(&store, &mut kc, 100);
        assert_eq!(kc.core_members(), vec![0, 1, 2]);
        assert_eq!(kc.membership(), vec![true, true, true, false]);
    }

    #[test]
    fn chain_has_no_2core() {
        let el = EdgeList::new(
            5,
            GraphKind::Undirected,
            (1..5).map(|i| Edge::new(i - 1, i)).collect(),
        )
        .unwrap();
        let store = store_from_edges(&el, 2);
        let mut kc = KCore::new(*store.layout().tiling(), 2);
        let stats = run_in_memory(&store, &mut kc, 100);
        assert!(kc.core_members().is_empty());
        // Peeling a chain proceeds from the ends inwards: >1 iteration.
        assert!(stats.iterations > 1);
    }

    #[test]
    fn k1_core_drops_isolated_only() {
        let el = EdgeList::new(4, GraphKind::Undirected, vec![Edge::new(0, 1)]).unwrap();
        let store = store_from_edges(&el, 1);
        let mut kc = KCore::new(*store.layout().tiling(), 1);
        run_in_memory(&store, &mut kc, 100);
        assert_eq!(kc.core_members(), vec![0, 1]);
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..3 {
            let el = generate_rmat(&RmatParams::kron(8, 4).with_seed(seed)).unwrap();
            let store = store_from_edges(&el, 4);
            for k in [2u64, 4, 8] {
                let mut kc = KCore::new(*store.layout().tiling(), k);
                run_in_memory(&store, &mut kc, 10_000);
                assert_eq!(
                    kc.membership(),
                    kcore_reference(&el, k),
                    "seed {seed}, k {k}"
                );
            }
        }
    }

    #[test]
    fn directed_graph_uses_underlying_structure() {
        // Directed triangle: every vertex has undirected degree 2.
        let el = EdgeList::new(
            3,
            GraphKind::Directed,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)],
        )
        .unwrap();
        let store = store_from_edges(&el, 1);
        let mut kc = KCore::new(*store.layout().tiling(), 2);
        run_in_memory(&store, &mut kc, 100);
        assert_eq!(kc.core_members(), vec![0, 1, 2]);
    }

    #[test]
    fn self_loops_ignored() {
        let el = EdgeList::new(
            2,
            GraphKind::Undirected,
            vec![Edge::new(0, 0), Edge::new(0, 1)],
        )
        .unwrap();
        let store = store_from_edges(&el, 1);
        let mut kc = KCore::new(*store.layout().tiling(), 2);
        run_in_memory(&store, &mut kc, 100);
        assert!(kc.core_members().is_empty());
    }
}
