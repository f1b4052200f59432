//! Edge-list graph representation (Figure 1(b) of the paper) and its
//! binary on-disk format.
//!
//! The on-disk tuple width is configurable because one of the paper's
//! motivating observations (Figure 2(a)) is that halving the tuple size
//! from 16 to 8 bytes roughly doubles streaming PageRank performance.

use crate::types::{Edge, GraphError, GraphKind, GraphMeta, Result, VertexId};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Bytes used per vertex endpoint in a serialized edge tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleWidth {
    /// Two `u32` endpoints: 8 bytes per edge (graphs with < 2^32 vertices).
    U32,
    /// Two `u64` endpoints: 16 bytes per edge.
    U64,
}

impl TupleWidth {
    /// Bytes per serialized edge tuple.
    #[inline]
    pub const fn edge_bytes(self) -> usize {
        match self {
            TupleWidth::U32 => 8,
            TupleWidth::U64 => 16,
        }
    }

    /// The narrowest width able to address `vertex_count` vertices.
    pub fn for_vertex_count(vertex_count: u64) -> Self {
        if vertex_count <= u32::MAX as u64 + 1 {
            TupleWidth::U32
        } else {
            TupleWidth::U64
        }
    }
}

/// A graph stored as a flat collection of edge tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    meta: GraphMeta,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Builds an edge list, validating that every endpoint is in range.
    pub fn new(vertex_count: u64, kind: GraphKind, edges: Vec<Edge>) -> Result<Self> {
        for e in &edges {
            if e.src >= vertex_count {
                return Err(GraphError::VertexOutOfRange {
                    vertex: e.src,
                    vertex_count,
                });
            }
            if e.dst >= vertex_count {
                return Err(GraphError::VertexOutOfRange {
                    vertex: e.dst,
                    vertex_count,
                });
            }
        }
        let meta = GraphMeta::new(vertex_count, edges.len() as u64, kind);
        Ok(EdgeList { meta, edges })
    }

    /// Builds without validating endpoints. Callers must guarantee ranges.
    pub fn from_parts_unchecked(vertex_count: u64, kind: GraphKind, edges: Vec<Edge>) -> Self {
        let meta = GraphMeta::new(vertex_count, edges.len() as u64, kind);
        EdgeList { meta, edges }
    }

    #[inline]
    pub fn meta(&self) -> GraphMeta {
        self.meta
    }

    #[inline]
    pub fn vertex_count(&self) -> u64 {
        self.meta.vertex_count
    }

    #[inline]
    pub fn edge_count(&self) -> u64 {
        self.edges.len() as u64
    }

    #[inline]
    pub fn kind(&self) -> GraphKind {
        self.meta.kind
    }

    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    #[inline]
    pub fn edges_mut(&mut self) -> &mut [Edge] {
        &mut self.edges
    }

    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// Returns the transpose: every edge reversed. For directed graphs
    /// this converts an out-edge store into an in-edge store (§IV.A: "it
    /// stores either in-edges or out-edges for directed graphs").
    pub fn reversed(&self) -> EdgeList {
        let edges = self.edges.iter().map(|e| e.reversed()).collect();
        EdgeList::from_parts_unchecked(self.meta.vertex_count, self.meta.kind, edges)
    }

    /// Canonicalises every edge to `src <= dst` (undirected storage form).
    /// Returns an error if called on a directed graph, where orientation is
    /// meaningful.
    pub fn canonicalize(&mut self) -> Result<()> {
        if self.meta.kind.is_directed() {
            return Err(GraphError::InvalidParameter(
                "cannot canonicalize a directed graph".into(),
            ));
        }
        for e in &mut self.edges {
            *e = e.canonical();
        }
        Ok(())
    }

    /// Removes duplicate edges and self-loops in place. For undirected
    /// graphs, edges equal up to orientation are considered duplicates.
    pub fn dedup_and_simplify(&mut self) {
        let undirected = !self.meta.kind.is_directed();
        let mut edges = std::mem::take(&mut self.edges);
        if undirected {
            for e in &mut edges {
                *e = e.canonical();
            }
        }
        edges.retain(|e| !e.is_self_loop());
        edges.sort_unstable();
        edges.dedup();
        self.edges = edges;
        self.meta.edge_count = self.edges.len() as u64;
    }

    /// Size in bytes of the serialized edge list at a given tuple width.
    pub fn disk_size(&self, width: TupleWidth) -> u64 {
        self.edge_count() * width.edge_bytes() as u64
    }

    /// Serializes the edge list to `path` in little-endian binary tuples.
    ///
    /// Layout: a 32-byte header (magic, tuple width, vertex count, edge
    /// count, kind) followed by tightly packed tuples.
    pub fn write_binary(&self, path: &Path, width: TupleWidth) -> Result<()> {
        if width == TupleWidth::U32 && self.meta.vertex_count > u32::MAX as u64 + 1 {
            return Err(GraphError::InvalidParameter(format!(
                "tuple width U32 cannot address {} vertices",
                self.meta.vertex_count
            )));
        }
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        w.write_all(MAGIC)?;
        w.write_all(&[width_tag(width), kind_tag(self.meta.kind), 0, 0])?;
        w.write_all(&self.meta.vertex_count.to_le_bytes())?;
        w.write_all(&self.meta.edge_count.to_le_bytes())?;
        match width {
            TupleWidth::U32 => {
                for e in &self.edges {
                    w.write_all(&(e.src as u32).to_le_bytes())?;
                    w.write_all(&(e.dst as u32).to_le_bytes())?;
                }
            }
            TupleWidth::U64 => {
                for e in &self.edges {
                    w.write_all(&e.src.to_le_bytes())?;
                    w.write_all(&e.dst.to_le_bytes())?;
                }
            }
        }
        w.flush()?;
        Ok(())
    }

    /// Reads an edge list previously written by [`EdgeList::write_binary`].
    pub fn read_binary(path: &Path) -> Result<Self> {
        let (mut r, header) = open_validated(path)?;
        let width = header.width;
        let mut edges = Vec::with_capacity(header.edge_count as usize);
        let mut buf = vec![0u8; width.edge_bytes() * READ_CHUNK_EDGES];
        let mut remaining = header.edge_count as usize;
        while remaining > 0 {
            let n = remaining.min(READ_CHUNK_EDGES);
            let bytes = n * width.edge_bytes();
            r.read_exact(&mut buf[..bytes])
                .map_err(|_| GraphError::Format("edge list file truncated".into()))?;
            let tuples = Tuples {
                bytes: &buf[..bytes],
                width,
            };
            edges.extend(tuples.iter());
            remaining -= n;
        }
        EdgeList::new(header.vertex_count, header.kind, edges)
    }
}

/// The parsed, length-validated 24-byte header of a binary edge file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeFileHeader {
    pub width: TupleWidth,
    pub kind: GraphKind,
    pub vertex_count: u64,
    pub edge_count: u64,
}

/// Byte length of the binary edge-file header.
pub const EDGE_FILE_HEADER_BYTES: u64 = 24;

/// Opens `path`, parses the header, and validates the claimed edge count
/// against the file length (so nothing proportional to an untrusted count
/// is allocated later). The returned reader is positioned at the first
/// tuple.
fn open_validated(path: &Path) -> Result<(BufReader<File>, EdgeFileHeader)> {
    let file = File::open(path)?;
    let mut r = BufReader::new(file);
    let mut header = [0u8; EDGE_FILE_HEADER_BYTES as usize];
    r.read_exact(&mut header)
        .map_err(|_| GraphError::Format("edge list file shorter than header".into()))?;
    if &header[0..4] != MAGIC {
        return Err(GraphError::Format("bad magic in edge list file".into()));
    }
    let width = match header[4] {
        0 => TupleWidth::U32,
        1 => TupleWidth::U64,
        t => return Err(GraphError::Format(format!("unknown tuple width tag {t}"))),
    };
    let kind = match header[5] {
        0 => GraphKind::Directed,
        1 => GraphKind::Undirected,
        t => return Err(GraphError::Format(format!("unknown graph kind tag {t}"))),
    };
    let vertex_count = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let edge_count = u64::from_le_bytes(header[16..24].try_into().unwrap());
    let file_len = std::fs::metadata(path)?.len();
    let expected = EDGE_FILE_HEADER_BYTES.checked_add(
        edge_count
            .checked_mul(width.edge_bytes() as u64)
            .ok_or_else(|| GraphError::Format("edge count overflows".into()))?,
    );
    if expected != Some(file_len) {
        return Err(GraphError::Format(format!(
            "edge list claims {edge_count} edges but file is {file_len} bytes"
        )));
    }
    Ok((
        r,
        EdgeFileHeader {
            width,
            kind,
            vertex_count,
            edge_count,
        },
    ))
}

/// Streams a binary edge file in bounded, fixed-size chunks — the
/// out-of-core converter's input. Unlike [`EdgeList::read_binary`], memory
/// is O(chunk), not O(edges), and the file can be [`EdgeChunks::rewind`]-ed
/// for a second pass.
pub struct EdgeChunks {
    reader: BufReader<File>,
    header: EdgeFileHeader,
    chunk_edges: usize,
    remaining: u64,
    buf: Vec<u8>,
}

impl EdgeChunks {
    /// Opens `path` for chunked streaming, `chunk_edges` tuples per chunk
    /// (clamped to ≥ 1). Header validation matches `read_binary`.
    pub fn open(path: &Path, chunk_edges: usize) -> Result<Self> {
        let (reader, header) = open_validated(path)?;
        let chunk_edges = chunk_edges.max(1);
        Ok(EdgeChunks {
            reader,
            header,
            chunk_edges,
            remaining: header.edge_count,
            buf: vec![0u8; chunk_edges * header.width.edge_bytes()],
        })
    }

    /// The validated file header.
    pub fn header(&self) -> EdgeFileHeader {
        self.header
    }

    pub fn vertex_count(&self) -> u64 {
        self.header.vertex_count
    }

    pub fn edge_count(&self) -> u64 {
        self.header.edge_count
    }

    pub fn kind(&self) -> GraphKind {
        self.header.kind
    }

    pub fn width(&self) -> TupleWidth {
        self.header.width
    }

    /// Tuples per full chunk.
    pub fn chunk_edges(&self) -> usize {
        self.chunk_edges
    }

    /// Edges not yet returned by `next_chunk` since the last rewind.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Resizes the chunk to `chunk_edges` tuples (clamped to ≥ 1) — for
    /// callers whose chunk size depends on the header they just opened.
    pub fn set_chunk_edges(&mut self, chunk_edges: usize) {
        self.chunk_edges = chunk_edges.max(1);
        self.buf = vec![0u8; self.chunk_edges * self.header.width.edge_bytes()];
    }

    /// Reads the next chunk and returns its tuples undecoded, every
    /// endpoint validated against the header's vertex count. `Ok(None)` at
    /// end of file. The final chunk may be short.
    pub fn next_chunk(&mut self) -> Result<Option<Tuples<'_>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let n = (self.remaining as usize).min(self.chunk_edges);
        let bytes = n * self.header.width.edge_bytes();
        self.reader
            .read_exact(&mut self.buf[..bytes])
            .map_err(|_| GraphError::Format("edge list file truncated".into()))?;
        let tuples = Tuples {
            bytes: &self.buf[..bytes],
            width: self.header.width,
        };
        // A branch-free maximum first (it vectorises); the offending
        // endpoint is only looked for when there is one.
        let vertex_count = self.header.vertex_count;
        if tuples.max_endpoint() >= vertex_count {
            let vertex = tuples
                .iter()
                .find_map(|e| [e.src, e.dst].into_iter().find(|&v| v >= vertex_count))
                .expect("the maximum endpoint is out of range");
            return Err(GraphError::VertexOutOfRange {
                vertex,
                vertex_count,
            });
        }
        self.remaining -= n as u64;
        Ok(Some(tuples))
    }

    /// Seeks back to the first tuple for another streaming pass.
    pub fn rewind(&mut self) -> Result<()> {
        self.reader.seek(SeekFrom::Start(EDGE_FILE_HEADER_BYTES))?;
        self.remaining = self.header.edge_count;
        Ok(())
    }
}

/// A validated run of little-endian edge tuples borrowed from an
/// [`EdgeChunks`] buffer, decoded on the fly: a chunk costs its file bytes
/// and no decoded copy. `Copy`, so workers can each take a sub-range.
#[derive(Debug, Clone, Copy)]
pub struct Tuples<'a> {
    bytes: &'a [u8],
    width: TupleWidth,
}

impl<'a> Tuples<'a> {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.width.edge_bytes()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Tuples `range.start..range.end` of this run.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Tuples<'a> {
        let eb = self.width.edge_bytes();
        Tuples {
            bytes: &self.bytes[range.start * eb..range.end * eb],
            width: self.width,
        }
    }

    /// The largest endpoint of any tuple (0 for an empty run).
    fn max_endpoint(&self) -> u64 {
        match self.width {
            TupleWidth::U32 => self
                .bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .fold(0, u32::max) as u64,
            TupleWidth::U64 => self
                .bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .fold(0, u64::max),
        }
    }

    /// The edges in file order.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + 'a {
        let width = self.width;
        self.bytes
            .chunks_exact(width.edge_bytes())
            .map(move |c| match width {
                TupleWidth::U32 => Edge::new(
                    u32::from_le_bytes(c[0..4].try_into().unwrap()) as VertexId,
                    u32::from_le_bytes(c[4..8].try_into().unwrap()) as VertexId,
                ),
                TupleWidth::U64 => Edge::new(
                    u64::from_le_bytes(c[0..8].try_into().unwrap()),
                    u64::from_le_bytes(c[8..16].try_into().unwrap()),
                ),
            })
    }
}

const MAGIC: &[u8; 4] = b"GSEL";
const READ_CHUNK_EDGES: usize = 1 << 16;

fn width_tag(w: TupleWidth) -> u8 {
    match w {
        TupleWidth::U32 => 0,
        TupleWidth::U64 => 1,
    }
}

fn kind_tag(k: GraphKind) -> u8 {
    match k {
        GraphKind::Directed => 0,
        GraphKind::Undirected => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_edges() -> Vec<Edge> {
        // The example graph from Figure 1(a) of the paper.
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
        ]
    }

    #[test]
    fn new_validates_ranges() {
        let err = EdgeList::new(4, GraphKind::Directed, vec![Edge::new(0, 4)]);
        assert!(matches!(
            err,
            Err(GraphError::VertexOutOfRange { vertex: 4, .. })
        ));
        assert!(EdgeList::new(5, GraphKind::Directed, vec![Edge::new(0, 4)]).is_ok());
    }

    #[test]
    fn tuple_width_selection() {
        assert_eq!(TupleWidth::for_vertex_count(100), TupleWidth::U32);
        assert_eq!(TupleWidth::for_vertex_count(1 << 32), TupleWidth::U32);
        assert_eq!(TupleWidth::for_vertex_count((1 << 32) + 1), TupleWidth::U64);
    }

    #[test]
    fn disk_size_matches_width() {
        let el = EdgeList::new(8, GraphKind::Undirected, sample_edges()).unwrap();
        assert_eq!(el.disk_size(TupleWidth::U32), 9 * 8);
        assert_eq!(el.disk_size(TupleWidth::U64), 9 * 16);
    }

    #[test]
    fn canonicalize_only_for_undirected() {
        let mut el = EdgeList::new(8, GraphKind::Directed, vec![Edge::new(3, 1)]).unwrap();
        assert!(el.canonicalize().is_err());
        let mut el = EdgeList::new(8, GraphKind::Undirected, vec![Edge::new(3, 1)]).unwrap();
        el.canonicalize().unwrap();
        assert_eq!(el.edges()[0], Edge::new(1, 3));
    }

    #[test]
    fn dedup_removes_loops_and_mirrors() {
        let edges = vec![
            Edge::new(1, 2),
            Edge::new(2, 1),
            Edge::new(3, 3),
            Edge::new(1, 2),
        ];
        let mut el = EdgeList::new(4, GraphKind::Undirected, edges.clone()).unwrap();
        el.dedup_and_simplify();
        assert_eq!(el.edges(), &[Edge::new(1, 2)]);

        // Directed: mirror edges are distinct, loop still dropped.
        let mut el = EdgeList::new(4, GraphKind::Directed, edges).unwrap();
        el.dedup_and_simplify();
        assert_eq!(el.edges(), &[Edge::new(1, 2), Edge::new(2, 1)]);
    }

    #[test]
    fn reversed_transposes() {
        let el = EdgeList::new(
            4,
            GraphKind::Directed,
            vec![Edge::new(0, 1), Edge::new(2, 3)],
        )
        .unwrap();
        let rev = el.reversed();
        assert_eq!(rev.edges(), &[Edge::new(1, 0), Edge::new(3, 2)]);
        assert_eq!(rev.reversed(), el);
    }

    #[test]
    fn binary_roundtrip_u32_and_u64() {
        let dir = tempfile::tempdir().unwrap();
        for width in [TupleWidth::U32, TupleWidth::U64] {
            let path = dir.path().join(format!("g{}.el", width.edge_bytes()));
            let el = EdgeList::new(8, GraphKind::Undirected, sample_edges()).unwrap();
            el.write_binary(&path, width).unwrap();
            let size = std::fs::metadata(&path).unwrap().len();
            assert_eq!(size, 24 + el.disk_size(width));
            let back = EdgeList::read_binary(&path).unwrap();
            assert_eq!(back, el);
        }
    }

    #[test]
    fn binary_rejects_narrow_width_for_huge_graph() {
        let dir = tempfile::tempdir().unwrap();
        let el = EdgeList::new((1 << 32) + 2, GraphKind::Directed, vec![]).unwrap();
        let err = el.write_binary(&dir.path().join("x.el"), TupleWidth::U32);
        assert!(matches!(err, Err(GraphError::InvalidParameter(_))));
    }

    #[test]
    fn edge_chunks_stream_matches_read_binary() {
        let dir = tempfile::tempdir().unwrap();
        let el = EdgeList::new(8, GraphKind::Undirected, sample_edges()).unwrap();
        for width in [TupleWidth::U32, TupleWidth::U64] {
            let path = dir.path().join(format!("g{}.el", width.edge_bytes()));
            el.write_binary(&path, width).unwrap();
            // Chunk sizes that do (3 | 9) and don't (4 ∤ 9) divide the count.
            for chunk in [1usize, 3, 4, 9, 100] {
                let mut ch = EdgeChunks::open(&path, chunk).unwrap();
                assert_eq!(ch.vertex_count(), 8);
                assert_eq!(ch.edge_count(), 9);
                assert_eq!(ch.kind(), GraphKind::Undirected);
                assert_eq!(ch.width(), width);
                let mut streamed = Vec::new();
                while let Some(tuples) = ch.next_chunk().unwrap() {
                    assert!(!tuples.is_empty() && tuples.len() <= chunk);
                    // Sub-ranges decode to the same edges as the whole run.
                    let mid = tuples.len() / 2;
                    streamed.extend(tuples.slice(0..mid).iter());
                    streamed.extend(tuples.slice(mid..tuples.len()).iter());
                }
                assert_eq!(streamed, sample_edges());
                assert_eq!(ch.remaining(), 0);
                // A rewind replays the identical stream, at any chunk size.
                ch.rewind().unwrap();
                ch.set_chunk_edges(chunk + 1);
                let mut again = Vec::new();
                while let Some(tuples) = ch.next_chunk().unwrap() {
                    assert!(tuples.len() <= chunk + 1);
                    again.extend(tuples.iter());
                }
                assert_eq!(again, streamed);
            }
        }
    }

    #[test]
    fn edge_chunks_validate_header_and_ranges() {
        let dir = tempfile::tempdir().unwrap();
        let bad = dir.path().join("bad.el");
        std::fs::write(&bad, b"nope").unwrap();
        assert!(matches!(
            EdgeChunks::open(&bad, 16),
            Err(GraphError::Format(_))
        ));

        // An in-range header over out-of-range tuples fails at next_chunk.
        let el = EdgeList::new(100, GraphKind::Directed, vec![Edge::new(50, 99)]).unwrap();
        let path = dir.path().join("narrow.el");
        el.write_binary(&path, TupleWidth::U32).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&40u64.to_le_bytes()); // shrink vertex_count
        std::fs::write(&path, &bytes).unwrap();
        let mut ch = EdgeChunks::open(&path, 16).unwrap();
        assert!(matches!(
            ch.next_chunk(),
            Err(GraphError::VertexOutOfRange { vertex: 50, .. })
        ));
    }

    #[test]
    fn read_rejects_corrupt_files() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("bad.el");
        std::fs::write(&path, b"nope").unwrap();
        assert!(matches!(
            EdgeList::read_binary(&path),
            Err(GraphError::Format(_))
        ));

        // Valid header but truncated body.
        let el = EdgeList::new(8, GraphKind::Directed, sample_edges()).unwrap();
        let good = dir.path().join("good.el");
        el.write_binary(&good, TupleWidth::U32).unwrap();
        let bytes = std::fs::read(&good).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(matches!(
            EdgeList::read_binary(&path),
            Err(GraphError::Format(_))
        ));
    }
}
