//! PageRank over tiles (§II.B).
//!
//! Push-style: each edge transfers `rank[src] / degree[src]` to its
//! destination; on symmetric stores the stored edge also pushes from `dst`
//! to `src`, so half the data computes the full undirected PageRank.
//! Dangling mass is redistributed uniformly, matching the reference
//! implementation in `gstore-graph`, so results are comparable bit-for-bit
//! in structure (within floating-point accumulation order).

use crate::algorithm::{Algorithm, IterationOutcome, ShardSides, UpdateMode};
use crate::atomics::{atomic_f64_vec, AtomicF64};
use crate::view::TileView;
use gstore_graph::CompactDegrees;
use gstore_tile::Tiling;
use std::sync::Arc;

/// Tile-based PageRank. Its own state is 24 B per vertex (`rank`, `share`,
/// `next`); the divisor is the store's 2 B-per-vertex degree array, shared
/// with the index, not copied.
pub struct PageRank {
    rank: Vec<f64>,
    /// Precomputed `rank[v] / degree[v]` for the current iteration.
    share: Vec<f64>,
    next: Vec<AtomicF64>,
    pub(crate) degree: Arc<CompactDegrees>,
    damping: f64,
    /// Stop when the L1 rank change falls below this.
    tolerance: f64,
    max_iterations: u32,
    last_delta: f64,
    /// Whether the store is symmetric — decides the sharded update mode
    /// (symmetric edges push to both endpoints).
    symmetric: bool,
}

impl PageRank {
    /// `degree` must be the out-degree (directed) or undirected degree of
    /// every vertex — the divisor of the push: the store's own array.
    pub fn over(tiling: Tiling, degree: Arc<CompactDegrees>, damping: f64) -> Self {
        let n = tiling.vertex_count() as usize;
        assert_eq!(degree.len(), n, "degree array must cover every vertex");
        PageRank {
            rank: vec![1.0 / n.max(1) as f64; n],
            share: vec![0.0; n],
            next: atomic_f64_vec(n, 0.0),
            degree,
            damping,
            tolerance: 0.0,
            max_iterations: u32::MAX,
            last_delta: f64::INFINITY,
            symmetric: tiling.symmetric(),
        }
    }

    /// [`Self::over`] a plain degree vector, compacted first.
    #[doc(hidden)]
    pub fn new(tiling: Tiling, degree: Vec<u64>, damping: f64) -> Self {
        Self::over(
            tiling,
            Arc::new(CompactDegrees::from_degrees(&degree)),
            damping,
        )
    }

    /// Fixed iteration count (the paper reports per-iteration times).
    pub fn with_iterations(mut self, iters: u32) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Convergence threshold on the L1 rank delta.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Current ranks.
    pub fn ranks(&self) -> &[f64] {
        &self.rank
    }

    /// L1 rank change of the last completed iteration.
    pub fn last_delta(&self) -> f64 {
        self.last_delta
    }

    /// Pushes every record of `view` with plain writes (the caller owns
    /// the partitions it writes): `FWD` adds `share[src]` to `next[dst]`, a
    /// destination-side write; `BACK` adds `share[dst]` to `next[src]`, a
    /// source-side write that a symmetric store's edge also stands for,
    /// skipping the diagonal's self-loops. Ranks are non-negative, so a
    /// zero share adds `+0.0` and changes no bit: the loop does not branch
    /// on it.
    #[inline]
    fn push_tile<const FWD: bool, const BACK: bool>(&self, view: &TileView<'_>) {
        let (share_src, share_dst) = view.partitions(&self.share);
        let (next_src, next_dst) = view.partitions(&self.next);
        let diagonal = view.src_base == view.dst_base;
        view.for_each_local(|s, d| {
            if FWD {
                next_dst[d].add_unsync(share_src[s]);
            }
            if BACK && !(diagonal && s == d) {
                next_src[s].add_unsync(share_dst[d]);
            }
        });
    }
}

impl Algorithm for PageRank {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn begin_iteration(&mut self, _iteration: u32) {
        // A hub's inline entry is its flag, never 0: the hub table redoes it.
        for (i, s) in self.share.iter_mut().enumerate() {
            let d = self.degree.inline()[i];
            *s = if d == 0 { 0.0 } else { self.rank[i] / d as f64 };
        }
        for &(v, d) in self.degree.hubs() {
            self.share[v as usize] = self.rank[v as usize] / d as f64;
        }
        for cell in &self.next {
            cell.store(0.0);
        }
    }

    fn update_mode(&self) -> UpdateMode {
        if self.symmetric {
            UpdateMode::ShardedBoth
        } else {
            UpdateMode::ShardedDst
        }
    }

    fn process_tile(&self, view: &TileView<'_>, sides: ShardSides) {
        // On a symmetric store the stored edge pushes src→dst (a dst-side
        // write) and, off the diagonal, dst→src (a src-side write).
        match (sides.dst, view.symmetric && sides.src) {
            (true, true) => self.push_tile::<true, true>(view),
            (true, false) => self.push_tile::<true, false>(view),
            (false, true) => self.push_tile::<false, true>(view),
            (false, false) => {}
        }
    }

    fn end_iteration(&mut self, iteration: u32) -> IterationOutcome {
        let n = self.rank.len().max(1) as f64;
        let base = (1.0 - self.damping) / n;
        let dangling: f64 = self
            .rank
            .iter()
            .zip(self.degree.inline())
            .filter(|(_, &d)| d == 0)
            .map(|(r, _)| r)
            .sum();
        let dangling_share = dangling / n;
        let mut delta = 0.0;
        for (i, r) in self.rank.iter_mut().enumerate() {
            let new = base + self.damping * (self.next[i].load() + dangling_share);
            delta += (new - *r).abs();
            *r = new;
        }
        self.last_delta = delta;
        if iteration + 1 >= self.max_iterations || delta <= self.tolerance {
            IterationOutcome::Converged
        } else {
            IterationOutcome::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::{run_in_memory, store_from_edges};
    use gstore_graph::csr::{Csr, CsrDirection};
    use gstore_graph::degree::INLINE_MAX;
    use gstore_graph::reference;
    use gstore_graph::{Edge, EdgeList, GraphKind};

    fn degrees(el: &EdgeList) -> Arc<CompactDegrees> {
        Arc::new(CompactDegrees::from_edge_list(el).unwrap())
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "rank[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference_on_directed_cycle() {
        let el = EdgeList::new(
            4,
            GraphKind::Directed,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(3, 0),
            ],
        )
        .unwrap();
        let store = store_from_edges(&el, 1);
        let mut pr =
            PageRank::over(*store.layout().tiling(), degrees(&el), 0.85).with_iterations(30);
        run_in_memory(&store, &mut pr, 30);
        for r in pr.ranks() {
            assert!((r - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_reference_on_kron_directed() {
        use gstore_graph::gen::{generate_rmat, RmatParams};
        let el = generate_rmat(&RmatParams::kron(8, 8).with_kind(GraphKind::Directed)).unwrap();
        let store = store_from_edges(&el, 4);
        let iters = 20;
        let mut pr =
            PageRank::over(*store.layout().tiling(), degrees(&el), 0.85).with_iterations(iters);
        run_in_memory(&store, &mut pr, iters);
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        let want = reference::pagerank(&csr, iters as usize, 0.85);
        assert_close(pr.ranks(), &want, 1e-9);
    }

    #[test]
    fn undirected_symmetric_store_matches_full_reference() {
        // The key property: PageRank on half the data (upper triangle)
        // equals PageRank on the traditional doubled representation.
        use gstore_graph::gen::{generate_rmat, RmatParams};
        let el = generate_rmat(&RmatParams::kron(7, 6)).unwrap();
        let store = store_from_edges(&el, 3);
        assert!(store.layout().tiling().symmetric());
        let iters = 15;
        let mut pr =
            PageRank::over(*store.layout().tiling(), degrees(&el), 0.85).with_iterations(iters);
        run_in_memory(&store, &mut pr, iters);
        let csr = Csr::from_edge_list(&el, CsrDirection::Out); // doubled
        let want = reference::pagerank(&csr, iters as usize, 0.85);
        assert_close(pr.ranks(), &want, 1e-9);
    }

    #[test]
    fn ranks_sum_to_one_with_dangling() {
        let el = EdgeList::new(
            3,
            GraphKind::Directed,
            vec![Edge::new(0, 1), Edge::new(0, 2)],
        )
        .unwrap();
        let store = store_from_edges(&el, 1);
        let mut pr =
            PageRank::over(*store.layout().tiling(), degrees(&el), 0.85).with_iterations(50);
        run_in_memory(&store, &mut pr, 50);
        let sum: f64 = pr.ranks().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn tolerance_stops_early() {
        let el = EdgeList::new(
            4,
            GraphKind::Directed,
            vec![Edge::new(0, 1), Edge::new(1, 0)],
        )
        .unwrap();
        let store = store_from_edges(&el, 1);
        let mut pr =
            PageRank::over(*store.layout().tiling(), degrees(&el), 0.85).with_tolerance(1e-12);
        let stats = run_in_memory(&store, &mut pr, 1000);
        assert!(stats.iterations < 1000);
        assert!(pr.last_delta() <= 1e-12);
    }

    #[test]
    fn self_loop_push() {
        // A self-loop pushes rank to itself; must not double on symmetric
        // stores.
        let el = EdgeList::new(
            2,
            GraphKind::Undirected,
            vec![Edge::new(0, 0), Edge::new(0, 1)],
        )
        .unwrap();
        let store = store_from_edges(&el, 1);
        let mut pr =
            PageRank::over(*store.layout().tiling(), degrees(&el), 0.85).with_iterations(20);
        run_in_memory(&store, &mut pr, 20);
        let sum: f64 = pr.ranks().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    /// A star whose centre's degree is above [`INLINE_MAX`], so the
    /// divisor comes from the hub table, plus a short chain off a leaf.
    /// Directed, every other leaf links back to the centre.
    fn star_with_chain(kind: GraphKind) -> EdgeList {
        const LEAVES: u64 = 40_000;
        let mut edges: Vec<Edge> = (1..=LEAVES).map(|v| Edge::new(0, v)).collect();
        if kind.is_directed() {
            edges.extend((1..=LEAVES).step_by(2).map(|v| Edge::new(v, 0)));
        }
        edges.extend([
            Edge::new(1, LEAVES + 1),
            Edge::new(LEAVES + 1, LEAVES + 2),
            Edge::new(LEAVES + 2, LEAVES + 3),
        ]);
        EdgeList::new(LEAVES + 4, kind, edges).unwrap()
    }

    #[test]
    fn hub_divisor_matches_reference() {
        for kind in [GraphKind::Directed, GraphKind::Undirected] {
            let el = star_with_chain(kind);
            let store = store_from_edges(&el, 12);
            assert_eq!(store.degrees().hubs(), &[(0, 40_000)], "{kind:?}");
            assert!(store.degrees().degree(0) > INLINE_MAX);
            let iters = 20;
            let mut pr =
                PageRank::over(*store.layout().tiling(), Arc::clone(store.degrees()), 0.85)
                    .with_iterations(iters);
            run_in_memory(&store, &mut pr, iters);
            let csr = Csr::from_edge_list(&el, CsrDirection::Out);
            let want = reference::pagerank(&csr, iters as usize, 0.85);
            assert_close(pr.ranks(), &want, 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "degree array")]
    fn wrong_degree_length_panics() {
        let tiling = Tiling::new(4, 1, GraphKind::Directed).unwrap();
        let _ = PageRank::over(
            tiling,
            Arc::new(CompactDegrees::from_degrees(&[1, 2])),
            0.85,
        );
    }
}
