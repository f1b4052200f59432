//! Level-synchronous BFS over tiles (Algorithm 1 of the paper).
//!
//! On a symmetric (undirected, upper-triangle) store each tile edge is
//! checked in both directions — the added lines 8–11 of Algorithm 1 — so
//! half the data produces the full traversal. BFS is the paper's anchored,
//! *selective* algorithm: only tiles whose ranges contain frontier
//! vertices are fetched, and next-iteration frontier metadata drives
//! proactive caching.
//!
//! A stored edge `src → dst` claims `dst` on the tile's destination-side
//! work item and, on a symmetric store, `src` (edge `dst → src`) on its
//! source-side item, so only the shard owning a vertex's partition writes
//! its depth.

use crate::algorithm::{Algorithm, IterationOutcome, ShardSides, UpdateMode};
use crate::atomics::atomic_u32_vec;
use crate::view::TileView;
use gstore_graph::VertexId;
use gstore_tile::Tiling;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Depth marker for unreached vertices (matches the reference oracle).
pub const UNREACHED: u32 = u32::MAX;

/// Parent marker for vertices without a parent (root / unreached).
pub const NO_PARENT: u64 = u64::MAX;

/// Tile-based breadth-first search.
pub struct Bfs {
    tiling: Tiling,
    root: VertexId,
    level: u32,
    depth: Vec<AtomicU32>,
    /// Optional parent tree (Graph500-style BFS output, §II.B: "the final
    /// output generates a tree").
    parent: Option<Vec<AtomicU64>>,
    /// Per-partition flag: frontier present in the current iteration.
    active: Vec<AtomicBool>,
    /// Per-partition flag: frontier discovered for the next iteration.
    active_next: Vec<AtomicBool>,
    visited_this_iter: AtomicU64,
}

impl Bfs {
    pub fn new(tiling: Tiling, root: VertexId) -> Self {
        let n = tiling.vertex_count() as usize;
        let p = tiling.partitions() as usize;
        let depth = atomic_u32_vec(n, UNREACHED);
        depth[root as usize].store(0, Ordering::Relaxed);
        let active: Vec<AtomicBool> = (0..p).map(|_| AtomicBool::new(false)).collect();
        active[tiling.partition_of(root) as usize].store(true, Ordering::Relaxed);
        let active_next = (0..p).map(|_| AtomicBool::new(false)).collect();
        Bfs {
            tiling,
            root,
            level: 0,
            depth,
            parent: None,
            active,
            active_next,
            visited_this_iter: AtomicU64::new(1),
        }
    }

    /// Enables parent-tree tracking (the Graph500 output format).
    pub fn with_parents(mut self) -> Self {
        let n = self.tiling.vertex_count() as usize;
        let parent: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(NO_PARENT)).collect();
        self.parent = Some(parent);
        self
    }

    /// The parent tree, if tracking was enabled: `parents()[v]` is the
    /// vertex that discovered `v` (`NO_PARENT` for the root and unreached
    /// vertices).
    pub fn parents(&self) -> Option<Vec<u64>> {
        self.parent
            .as_ref()
            .map(|p| p.iter().map(|x| x.load(Ordering::Relaxed)).collect())
    }

    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Final depths (UNREACHED for unvisited vertices).
    pub fn depths(&self) -> Vec<u32> {
        self.depth
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    /// Number of reached vertices.
    pub fn visited_count(&self) -> u64 {
        self.depth
            .iter()
            .filter(|d| d.load(Ordering::Relaxed) != UNREACHED)
            .count() as u64
    }
}

impl Algorithm for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn begin_iteration(&mut self, _iteration: u32) {
        self.visited_this_iter.store(0, Ordering::Relaxed);
    }

    fn process_tile(&self, view: &TileView<'_>, sides: ShardSides) {
        // A claim of `to` from `from`: depth[from] == level && depth[to] ==
        // INF => depth[to] = level + 1. It is a plain load and store, not a
        // compare-and-swap: only the shard owning `to`'s partition writes
        // its depth, and a reader in another shard only compares a depth
        // with `level`, a value no write in this level produces.
        let level = self.level;
        let claim = |from: &AtomicU32, to: &AtomicU32| {
            let hit =
                from.load(Ordering::Relaxed) == level && to.load(Ordering::Relaxed) == UNREACHED;
            if hit {
                to.store(level + 1, Ordering::Relaxed);
            }
            hit
        };
        let (depth_src, depth_dst) = view.partitions(&self.depth);
        let parents = self.parent.as_deref().map(|p| view.partitions(p));
        let (mut claimed_dst, mut claimed_src) = (0u64, 0u64);
        view.for_each_local(|s, d| {
            if sides.dst && claim(&depth_src[s], &depth_dst[d]) {
                if let Some((_, parent_dst)) = parents {
                    parent_dst[d].store(view.src_base + s as u64, Ordering::Relaxed);
                }
                claimed_dst += 1;
            }
            // Algorithm 1 lines 8-11: on a symmetric store the stored edge
            // also represents (dst, src), a claim on the source side.
            if sides.src && claim(&depth_dst[d], &depth_src[s]) {
                if let Some((parent_src, _)) = parents {
                    parent_src[s].store(view.dst_base + d as u64, Ordering::Relaxed);
                }
                claimed_src += 1;
            }
        });
        // Frontier marks and the visit count, once per tile.
        if claimed_dst > 0 {
            self.active_next[view.coord.col as usize].store(true, Ordering::Relaxed);
        }
        if claimed_src > 0 {
            self.active_next[view.coord.row as usize].store(true, Ordering::Relaxed);
        }
        if claimed_dst + claimed_src > 0 {
            self.visited_this_iter
                .fetch_add(claimed_dst + claimed_src, Ordering::Relaxed);
        }
    }

    fn update_mode(&self) -> UpdateMode {
        if self.tiling.symmetric() {
            UpdateMode::ShardedBoth
        } else {
            UpdateMode::ShardedDst
        }
    }

    fn end_iteration(&mut self, _iteration: u32) -> IterationOutcome {
        self.level += 1;
        let any = self.visited_this_iter.load(Ordering::Relaxed) > 0;
        for (cur, next) in self.active.iter().zip(&self.active_next) {
            cur.store(next.swap(false, Ordering::Relaxed), Ordering::Relaxed);
        }
        if any {
            IterationOutcome::Continue
        } else {
            IterationOutcome::Converged
        }
    }

    fn selective(&self) -> bool {
        true
    }

    fn range_active(&self, row: u32) -> bool {
        self.active[row as usize].load(Ordering::Relaxed)
    }

    fn range_active_next(&self, row: u32) -> bool {
        self.active_next[row as usize].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::{run_in_memory, store_from_edges};
    use gstore_graph::reference;
    use gstore_graph::{Edge, EdgeList, GraphKind};

    #[test]
    fn bfs_matches_reference_on_fig1() {
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(0, 3),
            Edge::new(0, 4),
            Edge::new(1, 2),
            Edge::new(1, 4),
            Edge::new(2, 4),
            Edge::new(4, 5),
            Edge::new(5, 6),
            Edge::new(5, 7),
        ];
        let el = EdgeList::new(8, GraphKind::Undirected, edges).unwrap();
        let store = store_from_edges(&el, 2);
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        run_in_memory(&store, &mut bfs, 64);
        assert_eq!(bfs.depths(), vec![0, 1, 2, 1, 1, 2, 3, 3]);
        assert_eq!(bfs.visited_count(), 8);
    }

    #[test]
    fn bfs_directed_respects_direction() {
        let el = EdgeList::new(
            4,
            GraphKind::Directed,
            vec![Edge::new(0, 1), Edge::new(2, 1), Edge::new(1, 3)],
        )
        .unwrap();
        let store = store_from_edges(&el, 1);
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        run_in_memory(&store, &mut bfs, 64);
        assert_eq!(bfs.depths(), vec![0, 1, UNREACHED, 2]);
    }

    #[test]
    fn bfs_matches_reference_on_random_graph() {
        use gstore_graph::gen::{generate_rmat, RmatParams};
        let el = generate_rmat(&RmatParams::kron(9, 8)).unwrap();
        let store = store_from_edges(&el, 4);
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        run_in_memory(&store, &mut bfs, 1000);
        let want = reference::bfs_levels(&reference::bfs_csr(&el), 0);
        assert_eq!(bfs.depths(), want);
    }

    #[test]
    fn frontier_metadata_tracks_partitions() {
        // Path 0 -> 4 -> 8 with tile span 4: frontier moves across rows.
        let el = EdgeList::new(
            12,
            GraphKind::Directed,
            vec![Edge::new(0, 4), Edge::new(4, 8)],
        )
        .unwrap();
        let store = store_from_edges(&el, 2);
        let tiling = *store.layout().tiling();
        let mut bfs = Bfs::new(tiling, 0);
        assert!(bfs.range_active(0));
        assert!(!bfs.range_active(1));
        run_in_memory(&store, &mut bfs, 64);
        assert_eq!(bfs.depths()[8], 2);
    }

    #[test]
    fn parent_tree_is_valid() {
        use gstore_graph::gen::{generate_rmat, RmatParams};
        use std::collections::HashSet;
        let el = generate_rmat(&RmatParams::kron(8, 6)).unwrap();
        let store = store_from_edges(&el, 4);
        let mut bfs = Bfs::new(*store.layout().tiling(), 0).with_parents();
        run_in_memory(&store, &mut bfs, 1000);
        let depths = bfs.depths();
        let parents = bfs.parents().unwrap();
        // Graph500-style validation: every reached non-root vertex has a
        // parent one level shallower, connected by a real edge.
        let edge_set: HashSet<(u64, u64)> = el
            .edges()
            .iter()
            .flat_map(|e| [(e.src, e.dst), (e.dst, e.src)])
            .collect();
        for v in 0..el.vertex_count() {
            let d = depths[v as usize];
            let p = parents[v as usize];
            if v == 0 {
                assert_eq!(d, 0);
                assert_eq!(p, NO_PARENT);
            } else if d == UNREACHED {
                assert_eq!(p, NO_PARENT);
            } else {
                assert_ne!(p, NO_PARENT, "vertex {v}");
                assert_eq!(depths[p as usize] + 1, d, "vertex {v}");
                assert!(edge_set.contains(&(p, v)), "no edge ({p},{v})");
            }
        }
    }

    #[test]
    fn isolated_root_converges_immediately() {
        let el = EdgeList::new(8, GraphKind::Undirected, vec![Edge::new(1, 2)]).unwrap();
        let store = store_from_edges(&el, 2);
        let mut bfs = Bfs::new(*store.layout().tiling(), 5);
        let stats = run_in_memory(&store, &mut bfs, 64);
        assert_eq!(bfs.visited_count(), 1);
        assert!(stats.iterations <= 2);
    }
}
