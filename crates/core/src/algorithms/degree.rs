//! Degree counting over tiles.
//!
//! A one-sweep algorithm producing out-degrees (directed) or undirected
//! degrees from the tile store alone — the engine uses it to bootstrap
//! PageRank when only the on-disk tile files are available (§IV.C's degree
//! metadata).

use crate::algorithm::{Algorithm, IterationOutcome, ShardSides, UpdateMode};
use crate::atomics::add_unsync_u64;
use crate::view::TileView;
use gstore_graph::degree::CompactDegrees;
use gstore_tile::Tiling;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tile-based degree counter.
pub struct DegreeCount {
    degree: Vec<AtomicU64>,
}

impl DegreeCount {
    pub fn new(tiling: Tiling) -> Self {
        DegreeCount {
            degree: (0..tiling.vertex_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Plain degree vector.
    pub fn degrees(&self) -> Vec<u64> {
        self.degree
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    /// Degrees in the paper's compact 2-byte encoding (§IV.C).
    pub fn compact(&self) -> gstore_graph::Result<CompactDegrees> {
        CompactDegrees::from_degrees(&self.degrees())
    }
}

impl Algorithm for DegreeCount {
    fn name(&self) -> &'static str {
        "degree"
    }

    fn begin_iteration(&mut self, _iteration: u32) {
        for d in &self.degree {
            d.store(0, Ordering::Relaxed);
        }
    }

    fn process_tile(&self, view: &TileView<'_>, sides: ShardSides) {
        // Every stored tuple counts for its source; on a symmetric store it
        // also counts for its destination, self-loops once. A directed
        // store's destination-side item writes nothing.
        let dst_side = sides.dst && view.symmetric;
        if !(sides.src || dst_side) {
            return;
        }
        let (degree_src, degree_dst) = view.partitions(&self.degree);
        let diagonal = view.src_base == view.dst_base;
        view.for_each_local(|s, d| {
            if sides.src {
                add_unsync_u64(&degree_src[s], 1);
            }
            if dst_side && !(diagonal && s == d) {
                add_unsync_u64(&degree_dst[d], 1);
            }
        });
    }

    fn update_mode(&self) -> UpdateMode {
        UpdateMode::ShardedBoth
    }

    fn end_iteration(&mut self, _iteration: u32) -> IterationOutcome {
        IterationOutcome::Converged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::{run_in_memory, store_from_edges};
    use gstore_graph::{Edge, EdgeList, GraphKind};

    #[test]
    fn undirected_degrees_match_oracle() {
        use gstore_graph::gen::{generate_rmat, RmatParams};
        let el = generate_rmat(&RmatParams::kron(7, 4)).unwrap();
        let store = store_from_edges(&el, 3);
        let mut dc = DegreeCount::new(*store.layout().tiling());
        run_in_memory(&store, &mut dc, 1);
        let want = CompactDegrees::from_edge_list(&el).unwrap().to_vec();
        assert_eq!(dc.degrees(), want);
    }

    #[test]
    fn directed_out_degrees() {
        let el = EdgeList::new(
            3,
            GraphKind::Directed,
            vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(2, 0)],
        )
        .unwrap();
        let store = store_from_edges(&el, 1);
        let mut dc = DegreeCount::new(*store.layout().tiling());
        run_in_memory(&store, &mut dc, 1);
        assert_eq!(dc.degrees(), vec![2, 0, 1]);
    }

    #[test]
    fn compact_encoding_roundtrip() {
        let el = EdgeList::new(2, GraphKind::Undirected, vec![Edge::new(0, 1)]).unwrap();
        let store = store_from_edges(&el, 1);
        let mut dc = DegreeCount::new(*store.layout().tiling());
        run_in_memory(&store, &mut dc, 1);
        let c = dc.compact().unwrap();
        assert_eq!(c.to_vec(), vec![1, 1]);
    }
}
