//! Conversion options and the rules every conversion applies to an edge:
//! the layout an edge list resolves to, the orientations an undirected edge
//! is stored in, and how one edge is encoded (§IV.B "Implementation"). The
//! converter itself — a counting pass, a prefix sum, then a scatter — is
//! [`crate::stream`]; [`convert()`] runs it over an in-memory edge list.

use crate::codec::EdgeEncoding;
use crate::grouping::GroupedLayout;
use crate::layout::Tiling;
use crate::store::TileStore;
use gstore_graph::{Edge, EdgeList, GraphError, GraphKind, Result};

/// Options controlling a conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConversionOptions {
    /// log2 of vertices per tile side (paper default 16).
    pub tile_bits: u32,
    /// Tiles per physical-group side (`q`); `None` = ungrouped.
    pub group_side: Option<u32>,
    /// Per-edge encoding (default SNB).
    pub encoding: EdgeEncoding,
    /// When `false`, an undirected graph is stored the traditional way —
    /// both orientations across the full grid — instead of the upper
    /// triangle. This is the "Base" arm of the Figure 10 ablation.
    pub exploit_symmetry: bool,
}

impl ConversionOptions {
    pub fn new(tile_bits: u32) -> Self {
        ConversionOptions {
            tile_bits,
            group_side: None,
            encoding: EdgeEncoding::Snb,
            exploit_symmetry: true,
        }
    }

    /// Paper defaults: 2^16-vertex tiles, 256-tile groups, SNB.
    pub fn paper_default() -> Self {
        ConversionOptions::new(16).with_group_side(256)
    }

    pub fn with_group_side(mut self, q: u32) -> Self {
        self.group_side = Some(q);
        self
    }

    pub fn with_encoding(mut self, encoding: EdgeEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    pub fn without_symmetry(mut self) -> Self {
        self.exploit_symmetry = false;
        self
    }
}

/// Converts an in-memory edge list: both passes of the converter in
/// [`crate::stream`], over slices of the list, into memory.
pub fn convert(el: &EdgeList, opts: &ConversionOptions) -> Result<TileStore> {
    crate::stream::convert_to_memory(el, opts, rayon::current_num_threads())
}

/// The front half of every conversion: Tuple8 addressability check,
/// effective kind, tiling, grouped layout, mirror policy.
pub(crate) fn resolve_layout(
    vertex_count: u64,
    kind: GraphKind,
    opts: &ConversionOptions,
) -> Result<(GroupedLayout, bool)> {
    if opts.encoding == EdgeEncoding::Tuple8 && vertex_count > u32::MAX as u64 + 1 {
        return Err(GraphError::InvalidParameter(
            "Tuple8 encoding cannot address this vertex count".into(),
        ));
    }
    // Symmetry is only exploitable for undirected graphs; a directed graph
    // stores its single orientation regardless.
    let effective_kind = match (kind, opts.exploit_symmetry) {
        (GraphKind::Undirected, true) => GraphKind::Undirected,
        _ => GraphKind::Directed,
    };
    let tiling = Tiling::new(vertex_count.max(1), opts.tile_bits, effective_kind)?;
    let layout = match opts.group_side {
        Some(q) => GroupedLayout::new(tiling, q)?,
        None => GroupedLayout::ungrouped(tiling)?,
    };
    let duplicate_mirror = kind == GraphKind::Undirected && !opts.exploit_symmetry;
    Ok((layout, duplicate_mirror))
}

/// Writes one folded edge at `out` under `encoding`.
#[inline]
pub(crate) fn write_edge(encoding: EdgeEncoding, span_mask: u64, out: &mut [u8], e: Edge) {
    match encoding {
        EdgeEncoding::Snb => {
            out[0..2].copy_from_slice(&((e.src & span_mask) as u16).to_le_bytes());
            out[2..4].copy_from_slice(&((e.dst & span_mask) as u16).to_le_bytes());
        }
        EdgeEncoding::Tuple8 => {
            out[0..4].copy_from_slice(&(e.src as u32).to_le_bytes());
            out[4..8].copy_from_slice(&(e.dst as u32).to_le_bytes());
        }
        EdgeEncoding::Tuple16 => {
            out[0..8].copy_from_slice(&e.src.to_le_bytes());
            out[8..16].copy_from_slice(&e.dst.to_le_bytes());
        }
    }
}

/// Yields the orientations to store for one input edge: just the edge
/// itself normally, or both orientations when storing an undirected graph
/// without the symmetry optimisation (self-loops still stored once).
#[inline]
pub(crate) fn fold_orientations(e: Edge, duplicate_mirror: bool) -> impl Iterator<Item = Edge> {
    let second = (duplicate_mirror && !e.is_self_loop()).then(|| e.reversed());
    std::iter::once(e).chain(second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TileCoord;

    fn fig1(kind: GraphKind) -> EdgeList {
        EdgeList::new(
            8,
            kind,
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

    #[test]
    fn symmetric_store_halves_tiles() {
        let store = convert(&fig1(GraphKind::Undirected), &ConversionOptions::new(2)).unwrap();
        assert_eq!(store.tile_count(), 3);
        assert_eq!(store.edge_count(), 9);
    }

    #[test]
    fn base_format_duplicates_mirrors() {
        // Figure 10 "Base": undirected graph stored both ways on the full
        // grid; edge count doubles (no self-loops here).
        let opts = ConversionOptions::new(2).without_symmetry();
        let store = convert(&fig1(GraphKind::Undirected), &opts).unwrap();
        assert_eq!(store.tile_count(), 4);
        assert_eq!(store.edge_count(), 18);
        // partition[1,0] now exists and mirrors partition[0,1].
        let idx10 = store.layout().index_of(TileCoord::new(1, 0)).unwrap();
        let mut t = store.decode_tile(idx10).unwrap();
        t.sort_unstable();
        assert_eq!(t, vec![Edge::new(4, 0), Edge::new(4, 1), Edge::new(4, 2)]);
    }

    #[test]
    fn directed_graph_unaffected_by_symmetry_flag() {
        let a = convert(&fig1(GraphKind::Directed), &ConversionOptions::new(2)).unwrap();
        let b = convert(
            &fig1(GraphKind::Directed),
            &ConversionOptions::new(2).without_symmetry(),
        )
        .unwrap();
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.tile_count(), b.tile_count());
    }

    #[test]
    fn tuple_encodings_roundtrip() {
        for enc in [EdgeEncoding::Tuple8, EdgeEncoding::Tuple16] {
            let el = fig1(GraphKind::Undirected);
            let store = convert(&el, &ConversionOptions::new(2).with_encoding(enc)).unwrap();
            let mut got = store.to_edges();
            got.sort_unstable();
            let mut want: Vec<Edge> = el.edges().iter().map(|e| e.canonical()).collect();
            want.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(store.data_bytes(), 9 * enc.bytes_per_edge() as u64);
        }
    }

    #[test]
    fn tuple8_rejects_huge_vertex_space() {
        let el = EdgeList::new((1 << 32) + 2, GraphKind::Directed, vec![]).unwrap();
        let opts = ConversionOptions::new(16).with_encoding(EdgeEncoding::Tuple8);
        assert!(convert(&el, &opts).is_err());
    }

    #[test]
    fn grouped_conversion_matches_ungrouped_multiset() {
        let el = fig1(GraphKind::Undirected);
        let a = convert(&el, &ConversionOptions::new(1)).unwrap();
        let b = convert(&el, &ConversionOptions::new(1).with_group_side(2)).unwrap();
        let mut ea = a.to_edges();
        let mut eb = b.to_edges();
        ea.sort_unstable();
        eb.sort_unstable();
        assert_eq!(ea, eb);
    }

    #[test]
    fn empty_edge_list() {
        let el = EdgeList::new(16, GraphKind::Directed, vec![]).unwrap();
        let store = convert(&el, &ConversionOptions::new(2)).unwrap();
        assert_eq!(store.edge_count(), 0);
        assert!(store.to_edges().is_empty());
    }

    #[test]
    fn conversion_is_deterministic() {
        use gstore_graph::gen::{generate_rmat, RmatParams};
        let el = generate_rmat(&RmatParams::kron(12, 8)).unwrap();
        let opts = ConversionOptions::new(8).with_group_side(8);
        let a = convert(&el, &opts).unwrap();
        let b = convert(&el, &opts).unwrap();
        assert_eq!(a.data(), b.data());
        assert_eq!(a.start_edge(), b.start_edge());
    }

    #[test]
    fn duplicates_preserved() {
        let el = EdgeList::new(
            8,
            GraphKind::Directed,
            vec![Edge::new(1, 2), Edge::new(1, 2), Edge::new(1, 2)],
        )
        .unwrap();
        let store = convert(&el, &ConversionOptions::new(2)).unwrap();
        assert_eq!(store.edge_count(), 3);
        assert_eq!(store.to_edges(), vec![Edge::new(1, 2); 3]);
    }
}
