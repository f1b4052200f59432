//! In-memory tile store: all tiles concatenated in physical-group order
//! with a start-edge index (§IV.B "Implementation").
//!
//! Mirrors the on-disk layout exactly — one blob of encoded edges plus a
//! `tile_count + 1` prefix array of edge offsets, the analogue of CSR's
//! beg-pos but per tile, plus the compact degree array.

use crate::bitcodec::Codec;
use crate::codec::EdgeEncoding;
use crate::convert::{convert, ConversionOptions};
use crate::deg::check_degrees;
use crate::file::TileIndex;
use crate::grouping::{GroupInfo, GroupedLayout};
use crate::layout::TileCoord;
use gstore_graph::{CompactDegrees, Edge, EdgeList, GraphError, Result};

/// A fully materialised tile-format graph.
#[derive(Debug, Clone)]
pub struct TileStore {
    pub(crate) layout: GroupedLayout,
    pub(crate) encoding: EdgeEncoding,
    /// Encoded edges of every tile, in layout order.
    pub(crate) data: Vec<u8>,
    /// `start_edge[k]` = index of the first edge of linear tile `k`;
    /// `start_edge[tile_count]` = total edge count.
    pub(crate) start_edge: Vec<u64>,
    /// Degree of every vertex, counted by the conversion's first pass.
    pub(crate) degrees: CompactDegrees,
}

impl TileStore {
    /// Converts an edge list into tile format (the paper's two-pass
    /// conversion benchmarked in Table I).
    pub fn build(el: &EdgeList, opts: &ConversionOptions) -> Result<Self> {
        convert(el, opts)
    }

    /// Reassembles a store from raw parts, validating invariants: the
    /// degree array is checked against the layout and the edge count as
    /// a `.deg` file is.
    pub fn from_raw_parts(
        layout: GroupedLayout,
        encoding: EdgeEncoding,
        data: Vec<u8>,
        start_edge: Vec<u64>,
        degrees: CompactDegrees,
    ) -> Result<Self> {
        let tc = layout.tile_count() as usize;
        if start_edge.len() != tc + 1 {
            return Err(GraphError::Format(format!(
                "start_edge has {} entries, expected {}",
                start_edge.len(),
                tc + 1
            )));
        }
        if start_edge.first() != Some(&0) {
            return Err(GraphError::Format("start_edge must begin at 0".into()));
        }
        if start_edge.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Format("start_edge not monotonic".into()));
        }
        let total = *start_edge.last().unwrap();
        if data.len() as u64 != total * encoding.bytes_per_edge() as u64 {
            return Err(GraphError::Format(format!(
                "data length {} bytes inconsistent with {} edges",
                data.len(),
                total
            )));
        }
        check_degrees(&layout, total, &degrees)?;
        Ok(TileStore {
            layout,
            encoding,
            data,
            start_edge,
            degrees,
        })
    }

    /// The store's index, as [`TileIndex::read`] would load it from the
    /// files [`crate::write_store`] writes: the way to serve an in-memory
    /// store from any storage backend.
    pub fn index(&self) -> TileIndex {
        TileIndex {
            layout: self.layout.clone(),
            encoding: self.encoding,
            start_edge: self.start_edge.clone(),
            codec: Codec::RawSnb,
            comp_offsets: None,
            degrees: self.degrees.clone(),
        }
    }

    /// The compact degree array: out-degrees on a directed graph,
    /// undirected degrees otherwise.
    #[inline]
    pub fn degrees(&self) -> &CompactDegrees {
        &self.degrees
    }

    #[inline]
    pub fn layout(&self) -> &GroupedLayout {
        &self.layout
    }

    #[inline]
    pub fn encoding(&self) -> EdgeEncoding {
        self.encoding
    }

    #[inline]
    pub fn tile_count(&self) -> u64 {
        self.layout.tile_count()
    }

    /// Total stored edges (after symmetry folding).
    #[inline]
    pub fn edge_count(&self) -> u64 {
        *self.start_edge.last().unwrap()
    }

    /// The start-edge index (per-tile edge offsets).
    #[inline]
    pub fn start_edge(&self) -> &[u64] {
        &self.start_edge
    }

    /// The raw data blob.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Edge count of linear tile `idx`.
    #[inline]
    pub fn tile_edge_count(&self, idx: u64) -> u64 {
        self.start_edge[idx as usize + 1] - self.start_edge[idx as usize]
    }

    /// Byte range of linear tile `idx` within the data blob / file.
    #[inline]
    pub fn tile_byte_range(&self, idx: u64) -> std::ops::Range<u64> {
        let bpe = self.encoding.bytes_per_edge() as u64;
        self.start_edge[idx as usize] * bpe..self.start_edge[idx as usize + 1] * bpe
    }

    /// Encoded bytes of linear tile `idx`.
    #[inline]
    pub fn tile_bytes(&self, idx: u64) -> &[u8] {
        let r = self.tile_byte_range(idx);
        &self.data[r.start as usize..r.end as usize]
    }

    /// Byte range occupied by a whole physical group (always contiguous).
    pub fn group_byte_range(&self, g: &GroupInfo) -> std::ops::Range<u64> {
        let bpe = self.encoding.bytes_per_edge() as u64;
        self.start_edge[g.tile_start as usize] * bpe..self.start_edge[g.tile_end as usize] * bpe
    }

    /// Total bytes of encoded edge data.
    #[inline]
    pub fn data_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Bytes of the start-edge index when serialized.
    #[inline]
    pub fn index_bytes(&self) -> u64 {
        self.start_edge.len() as u64 * 8
    }

    /// Decodes tile `idx` back to global edge tuples.
    pub fn decode_tile(&self, idx: u64) -> Result<Vec<Edge>> {
        let coord = self.layout.coord_at(idx);
        let it = self
            .encoding
            .decode_tile(self.tile_bytes(idx), self.layout.tiling(), coord)?;
        Ok(it.collect())
    }

    /// Iterates `(coord, edge)` over the entire store, in storage order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (TileCoord, Edge)> + '_ {
        (0..self.tile_count()).flat_map(move |idx| {
            let coord = self.layout.coord_at(idx);
            self.encoding
                .decode_tile(self.tile_bytes(idx), self.layout.tiling(), coord)
                .expect("store invariant: tile sizes are multiples of edge size")
                .map(move |e| (coord, e))
        })
    }

    /// Reconstructs the full (folded) edge multiset, a test oracle.
    pub fn to_edges(&self) -> Vec<Edge> {
        self.iter_edges().map(|(_, e)| e).collect()
    }

    /// Per-tile edge counts in storage order (Figure 5 input).
    pub fn tile_occupancy(&self) -> Vec<u64> {
        (0..self.tile_count())
            .map(|i| self.tile_edge_count(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::GroupedLayout;
    use crate::layout::Tiling;
    use gstore_graph::{GraphKind, VertexId};

    fn fig1_undirected() -> EdgeList {
        EdgeList::new(
            8,
            GraphKind::Undirected,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 3),
                Edge::new(0, 4),
                Edge::new(1, 2),
                Edge::new(1, 4),
                Edge::new(2, 4),
                Edge::new(4, 5),
                Edge::new(5, 6),
                Edge::new(5, 7),
            ],
        )
        .unwrap()
    }

    fn build(el: &EdgeList) -> TileStore {
        let opts = ConversionOptions::new(2).with_group_side(2);
        TileStore::build(el, &opts).unwrap()
    }

    #[test]
    fn fig4a_tiles() {
        // Figure 4(a): upper half keeps 3 tiles of 3 edges each.
        let store = build(&fig1_undirected());
        assert_eq!(store.tile_count(), 3);
        assert_eq!(store.edge_count(), 9);
        for idx in 0..3 {
            assert_eq!(store.tile_edge_count(idx), 3);
        }
        // Tile [0,0] holds (0,1),(0,3),(1,2); tile [0,1] holds
        // (0,4),(1,4),(2,4); tile [1,1] holds (4,5),(5,6),(5,7).
        let idx01 = store.layout().index_of(TileCoord::new(0, 1)).unwrap();
        let mut t01 = store.decode_tile(idx01).unwrap();
        t01.sort_unstable();
        assert_eq!(t01, vec![Edge::new(0, 4), Edge::new(1, 4), Edge::new(2, 4)]);
    }

    #[test]
    fn edge_multiset_preserved() {
        let el = fig1_undirected();
        let store = build(&el);
        let mut got = store.to_edges();
        got.sort_unstable();
        let mut want: Vec<Edge> = el.edges().iter().map(|e| e.canonical()).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn snb_data_is_4_bytes_per_edge() {
        let store = build(&fig1_undirected());
        assert_eq!(store.data_bytes(), 9 * 4);
        assert_eq!(store.index_bytes(), (3 + 1) * 8);
    }

    #[test]
    fn group_byte_ranges_cover_data() {
        let el = fig1_undirected();
        let store = build(&el);
        let mut covered = 0;
        for g in store.layout().groups() {
            let r = store.group_byte_range(g);
            covered += r.end - r.start;
        }
        assert_eq!(covered, store.data_bytes());
    }

    #[test]
    fn from_raw_parts_validates() {
        let tiling = Tiling::new(8, 2, GraphKind::Directed).unwrap();
        let layout = GroupedLayout::ungrouped(tiling).unwrap();
        // Two edges, out of vertices 0 and 5.
        let degrees = CompactDegrees::from_degrees(&[1, 0, 0, 0, 0, 1, 0, 0]);
        let parts = |data: usize, start_edge: &[u64], degrees: &CompactDegrees| {
            TileStore::from_raw_parts(
                layout.clone(),
                EdgeEncoding::Snb,
                vec![0u8; data],
                start_edge.to_vec(),
                degrees.clone(),
            )
        };
        // 4 tiles -> start_edge needs 5 entries.
        assert!(parts(8, &[0, 1, 2, 2, 2], &degrees).is_ok());
        assert!(parts(8, &[0, 1, 2, 2], &degrees).is_err());
        assert!(parts(8, &[0, 2, 1, 2, 2], &degrees).is_err());
        assert!(parts(9, &[0, 1, 2, 2, 2], &degrees).is_err());
        // Degrees for another vertex count, or another edge count.
        let short = CompactDegrees::from_degrees(&[1, 1]);
        assert!(parts(8, &[0, 1, 2, 2, 2], &short).is_err());
        let three = CompactDegrees::from_degrees(&[2, 0, 0, 0, 0, 1, 0, 0]);
        assert!(parts(8, &[0, 1, 2, 2, 2], &three).is_err());
    }

    #[test]
    fn self_loops_stored_once() {
        let el = EdgeList::new(
            8,
            GraphKind::Undirected,
            vec![Edge::new(4, 4), Edge::new(0, 0)],
        )
        .unwrap();
        let store = build(&el);
        assert_eq!(store.edge_count(), 2);
        let mut got = store.to_edges();
        got.sort_unstable();
        assert_eq!(got, vec![Edge::new(0, 0), Edge::new(4, 4)]);
    }

    #[test]
    fn occupancy_histogram() {
        let store = build(&fig1_undirected());
        assert_eq!(store.tile_occupancy(), vec![3, 3, 3]);
    }

    #[test]
    fn large_vertex_ids_roundtrip() {
        // Vertices far beyond u16 exercise the 64-bit fold/unfold path.
        let base: VertexId = 1 << 24;
        let el = EdgeList::new(
            base + 10,
            GraphKind::Directed,
            vec![Edge::new(base + 1, 3), Edge::new(base + 5, base + 2)],
        )
        .unwrap();
        let opts = ConversionOptions::new(16);
        let store = TileStore::build(&el, &opts).unwrap();
        let mut got = store.to_edges();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![Edge::new(base + 1, 3), Edge::new(base + 5, base + 2)]
        );
    }
}
