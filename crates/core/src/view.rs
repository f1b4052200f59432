//! Zero-copy view of one tile's edges during processing.
//!
//! Algorithms receive a [`TileView`] per tile: the tile's bytes plus the
//! coordinate context of its two vertex partitions. Sweep kernels never
//! rebuild global IDs: [`TileView::for_each_local`] yields each record's
//! two 2-byte SNB locals (§IV) as they are stored, and
//! [`TileView::partitions`] cuts a per-vertex array into the slices that
//! start at the tile's row and column partitions, which the locals index
//! directly. A group's partition slices are what §V.A keeps
//! LLC-resident. [`TileView::for_each_edge`] and [`TileView::edges`]
//! yield global IDs for callers that need them (the point-read path).
//! Decoding is streaming — tile bytes are never materialised as tuple
//! vectors on the hot path. A view over
//! codec-compressed bytes ([`TileView::coded`], the point-read path)
//! decodes on the fly through the same block loop: a cursor refills
//! fixed-size stack buffers of `(src << 16) | dst` keys straight from the
//! bit stream. Sweeps do not take that path: the compute phase's decode
//! stage ([`crate::compute`]) decodes each coded tile once per batch and
//! hands every consumer a raw view.

use gstore_graph::{Edge, VertexId};
use gstore_tile::{Codec, EdgeEncoding, TileCoord, TileCursor, Tiling};

/// One tile presented to an algorithm.
#[derive(Debug, Clone, Copy)]
pub struct TileView<'a> {
    pub coord: TileCoord,
    /// First global vertex ID of the source (row) range.
    pub src_base: VertexId,
    /// First global vertex ID of the destination (column) range.
    pub dst_base: VertexId,
    /// Whether the store is symmetric (undirected upper triangle): each
    /// edge then represents both orientations (Algorithm 1's extra check).
    pub symmetric: bool,
    pub encoding: EdgeEncoding,
    /// Bit-level codec the bytes are stored with ([`Codec::RawSnb`] for
    /// plain stores).
    pub codec: Codec,
    pub bytes: &'a [u8],
}

impl<'a> TileView<'a> {
    /// Builds a view over raw (uncompressed) tile bytes.
    pub fn new(tiling: &Tiling, coord: TileCoord, encoding: EdgeEncoding, bytes: &'a [u8]) -> Self {
        Self::coded(tiling, coord, encoding, Codec::RawSnb, bytes)
    }

    /// Builds a view over codec-compressed tile bytes; decoding happens
    /// lazily in [`TileView::edges`] / [`TileView::for_each_edge`] /
    /// [`TileView::for_each_local`], once
    /// per call — for a tile with one reader (a point read).
    pub fn coded(
        tiling: &Tiling,
        coord: TileCoord,
        encoding: EdgeEncoding,
        codec: Codec,
        bytes: &'a [u8],
    ) -> Self {
        TileView {
            coord,
            src_base: tiling.partition_base(coord.row),
            dst_base: tiling.partition_base(coord.col),
            symmetric: tiling.symmetric(),
            encoding,
            codec,
            bytes,
        }
    }

    /// Number of edges in the tile.
    #[inline]
    pub fn edge_count(&self) -> u64 {
        match self.codec {
            Codec::RawSnb => self.encoding.edge_count(self.bytes),
            c => c.edge_count(self.bytes).unwrap_or(0),
        }
    }

    /// Streaming cursor over the coded key stream; `None` for raw views
    /// only. A coded stream whose header does not parse yields the empty
    /// cursor — its bytes must never reach the raw-SNB loops.
    #[inline]
    fn cursor(&self) -> Option<TileCursor<'a>> {
        match self.codec {
            Codec::RawSnb => None,
            c => c.cursor(self.bytes).or_else(|_| c.cursor(&[])).ok(),
        }
    }

    /// Iterates global edge tuples.
    #[inline]
    pub fn edges(&self) -> TileEdges<'a> {
        let inner = match self.cursor() {
            Some(cur) => EdgesInner::Coded(cur),
            None => EdgesInner::Raw {
                bytes: self.bytes,
                pos: 0,
                encoding: self.encoding,
            },
        };
        TileEdges {
            inner,
            src_base: self.src_base,
            dst_base: self.dst_base,
        }
    }

    /// The slices of a per-vertex array that start at this tile's row
    /// partition and at its column partition: a `(src_local, dst_local)`
    /// pair from [`TileView::for_each_local`] indexes them directly.
    #[inline]
    pub fn partitions<'s, T>(&self, all: &'s [T]) -> (&'s [T], &'s [T]) {
        (
            &all[self.src_base as usize..],
            &all[self.dst_base as usize..],
        )
    }

    /// Applies `f` to every record's `(src_local, dst_local)` pair — its
    /// endpoints minus [`TileView::src_base`] and [`TileView::dst_base`] —
    /// in storage order: the pairs [`TileView::for_each_edge`] yields,
    /// without the bases. On raw SNB, the sweep kernels' format, this is
    /// one pass over the 4-byte records with no ID arithmetic; tuple
    /// encodings and coded views (cold paths) go through
    /// [`TileView::for_each_edge`] and subtract the bases.
    #[inline]
    pub fn for_each_local(&self, mut f: impl FnMut(usize, usize)) {
        if self.codec == Codec::RawSnb && self.encoding == EdgeEncoding::Snb {
            for e in self.bytes.chunks_exact(4) {
                f(
                    u16::from_le_bytes([e[0], e[1]]) as usize,
                    u16::from_le_bytes([e[2], e[3]]) as usize,
                );
            }
        } else {
            let (src_base, dst_base) = (self.src_base, self.dst_base);
            self.for_each_edge(|s, d| f((s - src_base) as usize, (d - dst_base) as usize));
        }
    }

    /// Applies `f` to every `(src, dst)` pair, decoding SNB tiles in
    /// fixed-size blocks: a whole block of edges is unpacked into stack
    /// buffers first (one bounds check and one base-add pass per block
    /// instead of per edge), then handed to `f`. Coded tiles feed the same
    /// block loop from a codec cursor; tuple encodings fall back to the
    /// streaming iterator — they are cold-path formats.
    #[inline]
    pub fn for_each_edge(&self, mut f: impl FnMut(VertexId, VertexId)) {
        const BLOCK: usize = 128;
        if let Some(mut cur) = self.cursor() {
            let mut keys = [0u32; BLOCK];
            loop {
                let n = cur.next_block(&mut keys);
                if n == 0 {
                    return;
                }
                for &k in &keys[..n] {
                    f(
                        self.src_base + (k >> 16) as u64,
                        self.dst_base + (k & 0xFFFF) as u64,
                    );
                }
            }
        }
        if self.encoding != EdgeEncoding::Snb {
            for e in self.edges() {
                f(e.src, e.dst);
            }
            return;
        }
        let mut srcs = [0u64; BLOCK];
        let mut dsts = [0u64; BLOCK];
        let mut chunks = self.bytes.chunks_exact(4 * BLOCK);
        for block in &mut chunks {
            for (i, e) in block.chunks_exact(4).enumerate() {
                srcs[i] = self.src_base + u16::from_le_bytes([e[0], e[1]]) as u64;
                dsts[i] = self.dst_base + u16::from_le_bytes([e[2], e[3]]) as u64;
            }
            for i in 0..BLOCK {
                f(srcs[i], dsts[i]);
            }
        }
        for e in chunks.remainder().chunks_exact(4) {
            f(
                self.src_base + u16::from_le_bytes([e[0], e[1]]) as u64,
                self.dst_base + u16::from_le_bytes([e[2], e[3]]) as u64,
            );
        }
    }
}

/// Streaming edge decoder over raw or coded tile bytes.
#[derive(Debug, Clone)]
pub struct TileEdges<'a> {
    inner: EdgesInner<'a>,
    src_base: VertexId,
    dst_base: VertexId,
}

#[derive(Debug, Clone)]
enum EdgesInner<'a> {
    Raw {
        bytes: &'a [u8],
        pos: usize,
        encoding: EdgeEncoding,
    },
    Coded(TileCursor<'a>),
}

impl Iterator for TileEdges<'_> {
    type Item = Edge;

    #[inline]
    fn next(&mut self) -> Option<Edge> {
        match &mut self.inner {
            EdgesInner::Coded(cur) => {
                let k = cur.next_key()?;
                Some(Edge::new(
                    self.src_base + (k >> 16) as u64,
                    self.dst_base + (k & 0xFFFF) as u64,
                ))
            }
            EdgesInner::Raw {
                bytes,
                pos,
                encoding,
            } => {
                let bpe = encoding.bytes_per_edge();
                if *pos + bpe > bytes.len() {
                    return None;
                }
                let b = &bytes[*pos..*pos + bpe];
                *pos += bpe;
                Some(match encoding {
                    EdgeEncoding::Snb => {
                        let s = u16::from_le_bytes([b[0], b[1]]) as u64;
                        let d = u16::from_le_bytes([b[2], b[3]]) as u64;
                        Edge::new(self.src_base + s, self.dst_base + d)
                    }
                    EdgeEncoding::Tuple8 => Edge::new(
                        u32::from_le_bytes(b[0..4].try_into().unwrap()) as u64,
                        u32::from_le_bytes(b[4..8].try_into().unwrap()) as u64,
                    ),
                    EdgeEncoding::Tuple16 => Edge::new(
                        u64::from_le_bytes(b[0..8].try_into().unwrap()),
                        u64::from_le_bytes(b[8..16].try_into().unwrap()),
                    ),
                })
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.inner {
            EdgesInner::Coded(cur) => cur.remaining() as usize,
            EdgesInner::Raw {
                bytes,
                pos,
                encoding,
            } => (bytes.len() - pos) / encoding.bytes_per_edge(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for TileEdges<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use gstore_graph::{EdgeList, GraphKind};
    use gstore_tile::{ConversionOptions, TileStore};

    fn store(kind: GraphKind, enc: EdgeEncoding) -> TileStore {
        let el = EdgeList::new(
            8,
            kind,
            vec![Edge::new(0, 5), Edge::new(4, 6), Edge::new(7, 1)],
        )
        .unwrap();
        TileStore::build(&el, &ConversionOptions::new(2).with_encoding(enc)).unwrap()
    }

    #[test]
    fn view_decodes_snb_tiles() {
        let s = store(GraphKind::Undirected, EdgeEncoding::Snb);
        let mut all: Vec<Edge> = (0..s.tile_count())
            .flat_map(|i| {
                let coord = s.layout().coord_at(i);
                let v = TileView::new(s.layout().tiling(), coord, s.encoding(), s.tile_bytes(i));
                assert!(v.symmetric);
                v.edges().collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![Edge::new(0, 5), Edge::new(1, 7), Edge::new(4, 6)]);
    }

    #[test]
    fn view_decodes_tuple_tiles() {
        for enc in [EdgeEncoding::Tuple8, EdgeEncoding::Tuple16] {
            let s = store(GraphKind::Directed, enc);
            let mut all: Vec<Edge> = (0..s.tile_count())
                .flat_map(|i| {
                    let coord = s.layout().coord_at(i);
                    let v =
                        TileView::new(s.layout().tiling(), coord, s.encoding(), s.tile_bytes(i));
                    assert!(!v.symmetric);
                    v.edges().collect::<Vec<_>>()
                })
                .collect();
            all.sort_unstable();
            assert_eq!(all, vec![Edge::new(0, 5), Edge::new(4, 6), Edge::new(7, 1)]);
        }
    }

    #[test]
    fn exact_size_iterator() {
        let s = store(GraphKind::Directed, EdgeEncoding::Snb);
        let idx = (0..s.tile_count())
            .find(|&i| s.tile_edge_count(i) > 0)
            .unwrap();
        let coord = s.layout().coord_at(idx);
        let v = TileView::new(s.layout().tiling(), coord, s.encoding(), s.tile_bytes(idx));
        let it = v.edges();
        assert_eq!(it.len() as u64, v.edge_count());
    }

    #[test]
    fn for_each_edge_matches_iterator_across_block_boundaries() {
        // Cover less-than-one-block, exact-multiple, and remainder sizes so
        // the block decoder's three regions all execute.
        for edges in [0usize, 1, 127, 128, 129, 300] {
            let tiling = Tiling::new(1 << 12, 10, GraphKind::Directed).unwrap();
            let coord = TileCoord { row: 1, col: 2 };
            let mut bytes = Vec::with_capacity(edges * 4);
            for i in 0..edges {
                let s = (i * 7 % 1024) as u16;
                let d = (i * 13 % 1024) as u16;
                bytes.extend_from_slice(&s.to_le_bytes());
                bytes.extend_from_slice(&d.to_le_bytes());
            }
            let v = TileView::new(&tiling, coord, EdgeEncoding::Snb, &bytes);
            let mut got = Vec::new();
            v.for_each_edge(|s, d| got.push(Edge::new(s, d)));
            let want: Vec<Edge> = v.edges().collect();
            assert_eq!(got, want, "edges={edges}");
        }
    }

    #[test]
    fn for_each_edge_covers_tuple_encodings() {
        for enc in [EdgeEncoding::Tuple8, EdgeEncoding::Tuple16] {
            let s = store(GraphKind::Directed, enc);
            for i in 0..s.tile_count() {
                let coord = s.layout().coord_at(i);
                let v = TileView::new(s.layout().tiling(), coord, s.encoding(), s.tile_bytes(i));
                let mut got = Vec::new();
                v.for_each_edge(|a, b| got.push(Edge::new(a, b)));
                assert_eq!(got, v.edges().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn coded_views_match_raw_views() {
        let tiling = Tiling::new(1 << 12, 10, GraphKind::Directed).unwrap();
        let coord = TileCoord { row: 1, col: 2 };
        for edges in [0usize, 1, 127, 128, 129, 300] {
            let mut bytes = Vec::with_capacity(edges * 4);
            for i in 0..edges {
                let s = (i * 7 % 1024) as u16;
                let d = (i * 13 % 1024) as u16;
                bytes.extend_from_slice(&s.to_le_bytes());
                bytes.extend_from_slice(&d.to_le_bytes());
            }
            let raw = TileView::new(&tiling, coord, EdgeEncoding::Snb, &bytes);
            let mut want: Vec<Edge> = raw.edges().collect();
            want.sort_unstable();
            for codec in Codec::CODED {
                let enc = codec.encode_tile(&bytes).unwrap();
                let v = TileView::coded(&tiling, coord, EdgeEncoding::Snb, codec, &enc);
                assert_eq!(v.edge_count(), edges as u64, "{}", codec.name());
                let it = v.edges();
                assert_eq!(it.len(), edges);
                let mut got: Vec<Edge> = it.collect();
                got.sort_unstable();
                assert_eq!(got, want, "{} iter edges={edges}", codec.name());
                let mut looped = Vec::new();
                v.for_each_edge(|s, d| looped.push(Edge::new(s, d)));
                looped.sort_unstable();
                assert_eq!(looped, want, "{} block loop edges={edges}", codec.name());
            }
        }
    }

    /// `for_each_local`'s pairs, with the bases added back.
    fn locals_as_edges(v: &TileView<'_>) -> Vec<Edge> {
        let mut got = Vec::new();
        v.for_each_local(|s, d| got.push(Edge::new(v.src_base + s as u64, v.dst_base + d as u64)));
        got
    }

    fn for_each_edge_pairs(v: &TileView<'_>) -> Vec<Edge> {
        let mut want = Vec::new();
        v.for_each_edge(|s, d| want.push(Edge::new(s, d)));
        want
    }

    #[test]
    fn for_each_local_is_for_each_edge_minus_the_bases() {
        // Raw SNB and every coded view of the same records, on an
        // off-diagonal tile of a 16-bit tiling: locals 0 and 65 535 and
        // the block loop's three regions.
        let tiling = Tiling::new(1 << 18, 16, GraphKind::Directed).unwrap();
        let coord = TileCoord { row: 1, col: 3 };
        for edges in [0usize, 1, 127, 128, 129, 300] {
            let mut bytes = Vec::with_capacity(edges * 4);
            for i in 0..edges {
                let s = if i % 5 == 0 {
                    u16::MAX
                } else {
                    (i * 7919 % 65_536) as u16
                };
                let d = if i % 3 == 0 {
                    0
                } else {
                    (i * 104_729 % 65_536) as u16
                };
                bytes.extend_from_slice(&s.to_le_bytes());
                bytes.extend_from_slice(&d.to_le_bytes());
            }
            let raw = TileView::new(&tiling, coord, EdgeEncoding::Snb, &bytes);
            assert_eq!(raw.src_base, 1 << 16);
            assert_eq!(raw.dst_base, 3 << 16);
            assert_eq!(
                locals_as_edges(&raw),
                for_each_edge_pairs(&raw),
                "raw edges={edges}"
            );
            for codec in Codec::CODED {
                let enc = codec.encode_tile(&bytes).unwrap();
                let v = TileView::coded(&tiling, coord, EdgeEncoding::Snb, codec, &enc);
                assert_eq!(
                    locals_as_edges(&v),
                    for_each_edge_pairs(&v),
                    "{} edges={edges}",
                    codec.name()
                );
            }
        }
        for enc in [
            EdgeEncoding::Snb,
            EdgeEncoding::Tuple8,
            EdgeEncoding::Tuple16,
        ] {
            for kind in [GraphKind::Directed, GraphKind::Undirected] {
                let s = store(kind, enc);
                for i in 0..s.tile_count() {
                    let coord = s.layout().coord_at(i);
                    let v = TileView::new(s.layout().tiling(), coord, enc, s.tile_bytes(i));
                    assert_eq!(
                        locals_as_edges(&v),
                        for_each_edge_pairs(&v),
                        "{enc:?} {kind:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn partitions_start_at_the_bases() {
        let tiling = Tiling::new(10, 2, GraphKind::Directed).unwrap();
        let all: Vec<u64> = (0..10).collect();
        let v = TileView::new(
            &tiling,
            TileCoord { row: 2, col: 1 },
            EdgeEncoding::Snb,
            &[],
        );
        let (src, dst) = v.partitions(&all);
        assert_eq!((src, dst), (&all[8..], &all[4..]));
    }

    #[test]
    fn corrupt_coded_view_yields_no_edges() {
        // A count header above the per-tile bound, then bytes that would
        // read as three raw SNB edges with locals past the partition: the
        // view must not fall through to the raw loops.
        let tiling = Tiling::new(1 << 12, 10, GraphKind::Directed).unwrap();
        let coord = TileCoord { row: 3, col: 3 };
        let mut bytes = vec![0xFF; 9];
        bytes.extend_from_slice(&[0x01, 0xFF, 0xFF]);
        assert_eq!(bytes.len() % 4, 0);
        for codec in Codec::CODED {
            assert!(codec.cursor(&bytes).is_err(), "{}", codec.name());
            let v = TileView::coded(&tiling, coord, EdgeEncoding::Snb, codec, &bytes);
            assert_eq!(v.edge_count(), 0, "{}", codec.name());
            assert_eq!(v.edges().len(), 0, "{}", codec.name());
            assert_eq!(v.edges().count(), 0, "{}", codec.name());
            v.for_each_edge(|s, d| panic!("{} yielded ({s}, {d})", codec.name()));
            v.for_each_local(|s, d| panic!("{} yielded locals ({s}, {d})", codec.name()));
        }
    }

    #[test]
    fn empty_tile_view() {
        let s = store(GraphKind::Directed, EdgeEncoding::Snb);
        let idx = (0..s.tile_count())
            .find(|&i| s.tile_edge_count(i) == 0)
            .unwrap();
        let coord = s.layout().coord_at(idx);
        let v = TileView::new(s.layout().tiling(), coord, s.encoding(), s.tile_bytes(idx));
        assert_eq!(v.edge_count(), 0);
        assert!(v.edges().next().is_none());
    }
}
