//! On-disk persistence of tile stores (§IV.B, §V.A).
//!
//! A store occupies three files, as in the paper:
//! * `<name>.tiles` — every tile's encoded edges, concatenated in
//!   physical-group order (one sequential run per group);
//! * `<name>.start` — the start-edge index plus a self-describing header
//!   (tiling geometry, group side, encoding);
//! * `<name>.deg` — the compact degree array (§IV.C; its layout is in
//!   `docs/FORMAT.md`).
//!
//! Two header versions coexist. Version 1 is the raw format: tile `i`
//! occupies `start_edge[i] * bpe .. start_edge[i+1] * bpe` of the data
//! file. Version 2 is the codec-tagged format ([`crate::bitcodec`]): header
//! byte 10 names the [`Codec`], and a per-tile *compressed offset* table
//! follows the start-edge array, since coded tile sizes are no longer
//! derivable from edge counts. Raw stores always write version 1, so their
//! files stay byte-identical to every earlier release.

use crate::bitcodec::Codec;
use crate::codec::EdgeEncoding;
use crate::deg::{deg_path, read_deg_file, write_deg_file};
use crate::grouping::GroupedLayout;
use crate::layout::Tiling;
use crate::store::TileStore;
use gstore_graph::{CompactDegrees, GraphError, GraphKind, Result};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"GSTM";
const VERSION: u32 = 1;
/// Header version of codec-tagged stores (compressed offset table present).
const CODED_VERSION: u32 = 2;
const HEADER_BYTES: usize = 48;

/// Paths of the three files backing a stored graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePaths {
    pub tiles: PathBuf,
    pub start: PathBuf,
    /// Beside `start`, with the same stem: where [`TileIndex::read`]
    /// looks for it.
    pub deg: PathBuf,
}

impl TilePaths {
    /// Conventional paths for a store named `name` under `dir`.
    pub fn new(dir: &Path, name: &str) -> Self {
        TilePaths {
            tiles: dir.join(format!("{name}.tiles")),
            start: dir.join(format!("{name}.start")),
            deg: dir.join(format!("{name}.deg")),
        }
    }
}

/// Writes a store's three files to disk. Returns the paths.
pub fn write_store(store: &TileStore, dir: &Path, name: &str) -> Result<TilePaths> {
    let paths = TilePaths::new(dir, name);
    std::fs::write(&paths.tiles, store.data())?;
    write_deg_file(&paths.deg, store.degrees())?;
    write_start_file(
        &paths.start,
        store.layout(),
        store.encoding(),
        store.start_edge(),
    )?;
    Ok(paths)
}

/// Writes a `.start` file for the given geometry and index. Shared by
/// [`write_store`] and the converter's file outputs, which never
/// materialize a [`TileStore`].
pub(crate) fn write_start_file(
    path: &Path,
    layout: &GroupedLayout,
    encoding: EdgeEncoding,
    start_edge: &[u64],
) -> Result<()> {
    write_start_file_with(path, layout, encoding, Codec::RawSnb, start_edge, None)
}

/// Writes a `.start` file, raw (version 1) or codec-tagged (version 2,
/// compressed offset table appended after the start-edge array).
pub(crate) fn write_start_file_with(
    path: &Path,
    layout: &GroupedLayout,
    encoding: EdgeEncoding,
    codec: Codec,
    start_edge: &[u64],
    comp_offsets: Option<&[u64]>,
) -> Result<()> {
    debug_assert_eq!(
        codec == Codec::RawSnb,
        comp_offsets.is_none(),
        "coded stores carry an offset table, raw stores never do"
    );
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    let tiling = layout.tiling();
    let edge_count = *start_edge.last().expect("start_edge never empty");
    w.write_all(MAGIC)?;
    let version = if comp_offsets.is_some() {
        CODED_VERSION
    } else {
        VERSION
    };
    w.write_all(&version.to_le_bytes())?;
    w.write_all(&[
        encoding.tag(),
        match tiling.kind() {
            GraphKind::Directed => 0,
            GraphKind::Undirected => 1,
        },
        codec.tag(),
        0,
    ])?;
    w.write_all(&tiling.tile_bits().to_le_bytes())?;
    w.write_all(&layout.group_side().to_le_bytes())?;
    w.write_all(&[0u8; 4])?; // reserved
    w.write_all(&tiling.vertex_count().to_le_bytes())?;
    w.write_all(&edge_count.to_le_bytes())?;
    w.write_all(&layout.tile_count().to_le_bytes())?;
    for s in start_edge {
        w.write_all(&s.to_le_bytes())?;
    }
    if let Some(offsets) = comp_offsets {
        for o in offsets {
            w.write_all(&o.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Parsed header + start-edge index + degree array of a stored graph;
/// cheap relative to the tile data, always loaded fully (the paper keeps
/// the start-edge file and the degree array in memory too).
#[derive(Debug, Clone)]
pub struct TileIndex {
    pub layout: GroupedLayout,
    pub encoding: EdgeEncoding,
    pub start_edge: Vec<u64>,
    /// Tile codec the data file is encoded with ([`Codec::RawSnb`] for
    /// version-1 stores).
    pub codec: Codec,
    /// Per-tile compressed byte offsets (`tile_count + 1` entries) when the
    /// store is coded; `None` for raw stores, whose byte ranges derive from
    /// `start_edge` alone.
    pub comp_offsets: Option<Vec<u64>>,
    /// Checked against the layout and the edge count wherever it comes
    /// from, so not public.
    pub(crate) degrees: CompactDegrees,
}

impl TileIndex {
    /// Reads and validates a `.start` file (either header version) and the
    /// `.deg` file beside it, which must agree with it.
    pub fn read(path: &Path) -> Result<Self> {
        let file = File::open(path)?;
        let mut r = BufReader::new(file);
        let mut header = [0u8; HEADER_BYTES];
        r.read_exact(&mut header)
            .map_err(|_| GraphError::Format("start-edge file shorter than header".into()))?;
        if &header[0..4] != MAGIC {
            return Err(GraphError::Format("bad magic in start-edge file".into()));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != VERSION && version != CODED_VERSION {
            return Err(GraphError::Format(format!(
                "unsupported tile format version {version}"
            )));
        }
        let encoding = EdgeEncoding::from_tag(header[8])?;
        let kind = match header[9] {
            0 => GraphKind::Directed,
            1 => GraphKind::Undirected,
            t => return Err(GraphError::Format(format!("unknown kind tag {t}"))),
        };
        let codec = if version == CODED_VERSION {
            let c = Codec::from_tag(header[10])?;
            if c == Codec::RawSnb {
                return Err(GraphError::Format(
                    "coded header names the raw codec".into(),
                ));
            }
            if encoding != EdgeEncoding::Snb {
                return Err(GraphError::Format("coded stores are SNB-only".into()));
            }
            c
        } else {
            Codec::RawSnb
        };
        let tile_bits = u32::from_le_bytes(header[12..16].try_into().unwrap());
        let group_side = u32::from_le_bytes(header[16..20].try_into().unwrap());
        let vertex_count = u64::from_le_bytes(header[24..32].try_into().unwrap());
        let edge_count = u64::from_le_bytes(header[32..40].try_into().unwrap());
        let tile_count = u64::from_le_bytes(header[40..48].try_into().unwrap());

        let tiling = Tiling::new(vertex_count, tile_bits, kind)?;
        let layout = GroupedLayout::new(tiling, group_side)?;
        if layout.tile_count() != tile_count {
            return Err(GraphError::Format(format!(
                "header claims {tile_count} tiles but geometry implies {}",
                layout.tile_count()
            )));
        }

        let read_array = |r: &mut BufReader<File>| -> Result<Vec<u64>> {
            let mut buf = vec![0u8; (tile_count as usize + 1) * 8];
            r.read_exact(&mut buf)
                .map_err(|_| GraphError::Format("start-edge file truncated".into()))?;
            Ok(buf
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect())
        };
        let start_edge = read_array(&mut r)?;
        if start_edge.first() != Some(&0)
            || start_edge.windows(2).any(|w| w[0] > w[1])
            || *start_edge.last().unwrap() != edge_count
        {
            return Err(GraphError::Format("corrupt start-edge index".into()));
        }
        let comp_offsets = if version == CODED_VERSION {
            let offsets = read_array(&mut r)?;
            if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(GraphError::Format("corrupt compressed offset table".into()));
            }
            Some(offsets)
        } else {
            None
        };
        let degrees = read_deg_file(&deg_path(path), &layout, edge_count)?;
        Ok(TileIndex {
            layout,
            encoding,
            start_edge,
            codec,
            comp_offsets,
            degrees,
        })
    }

    /// The store's compact degree array: out-degrees on a directed graph,
    /// undirected degrees otherwise.
    #[inline]
    pub fn degrees(&self) -> &CompactDegrees {
        &self.degrees
    }

    #[inline]
    pub fn tile_count(&self) -> u64 {
        self.layout.tile_count()
    }

    #[inline]
    pub fn edge_count(&self) -> u64 {
        *self.start_edge.last().unwrap()
    }

    /// Whether the data file is bit-codec compressed.
    #[inline]
    pub fn is_coded(&self) -> bool {
        self.comp_offsets.is_some()
    }

    /// Byte range of linear tile `idx` within the `.tiles` file.
    #[inline]
    pub fn tile_byte_range(&self, idx: u64) -> std::ops::Range<u64> {
        match &self.comp_offsets {
            Some(offsets) => offsets[idx as usize]..offsets[idx as usize + 1],
            None => {
                let bpe = self.encoding.bytes_per_edge() as u64;
                self.start_edge[idx as usize] * bpe..self.start_edge[idx as usize + 1] * bpe
            }
        }
    }

    /// Byte range of a contiguous run of tiles `[from, to)`.
    #[inline]
    pub fn tiles_byte_range(&self, from: u64, to: u64) -> std::ops::Range<u64> {
        match &self.comp_offsets {
            Some(offsets) => offsets[from as usize]..offsets[to as usize],
            None => {
                let bpe = self.encoding.bytes_per_edge() as u64;
                self.start_edge[from as usize] * bpe..self.start_edge[to as usize] * bpe
            }
        }
    }

    /// Total bytes of the `.tiles` file implied by the index — the on-disk
    /// (compressed) size for coded stores.
    #[inline]
    pub fn data_bytes(&self) -> u64 {
        match &self.comp_offsets {
            Some(offsets) => *offsets.last().unwrap(),
            None => self.edge_count() * self.encoding.bytes_per_edge() as u64,
        }
    }

    /// Bytes the store would occupy decoded (edges × bytes-per-edge); equals
    /// [`TileIndex::data_bytes`] for raw stores.
    #[inline]
    pub fn logical_bytes(&self) -> u64 {
        self.edge_count() * self.encoding.bytes_per_edge() as u64
    }

    /// On-disk compression ratio (logical / disk; 1.0 for raw or empty
    /// stores) — computable from the offset tables alone.
    pub fn compression_ratio(&self) -> f64 {
        let disk = self.data_bytes();
        if !self.is_coded() || disk == 0 {
            return 1.0;
        }
        self.logical_bytes() as f64 / disk as f64
    }
}

/// Read access to a stored graph: the in-memory index plus a handle to the
/// tile data file for positioned reads.
#[derive(Debug)]
pub struct TileFile {
    index: TileIndex,
    file: File,
}

impl TileFile {
    /// Opens a stored graph, validating that the data file length matches
    /// the index.
    pub fn open(paths: &TilePaths) -> Result<Self> {
        let index = TileIndex::read(&paths.start)?;
        let file = File::open(&paths.tiles)?;
        let len = file.metadata()?.len();
        if len != index.data_bytes() {
            return Err(GraphError::Format(format!(
                "tile data file is {len} bytes, index implies {}",
                index.data_bytes()
            )));
        }
        Ok(TileFile { index, file })
    }

    #[inline]
    pub fn index(&self) -> &TileIndex {
        &self.index
    }

    /// Reads one tile's bytes.
    pub fn read_tile(&mut self, idx: u64) -> Result<Vec<u8>> {
        let range = self.index.tile_byte_range(idx);
        self.read_range(range)
    }

    /// Reads an arbitrary byte range of the data file.
    pub fn read_range(&mut self, range: std::ops::Range<u64>) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_range_into(range, &mut buf)?;
        Ok(buf)
    }

    /// Reads a byte range of the data file into `buf` (resized to the
    /// range), so a caller walking the file can reuse one allocation.
    pub fn read_range_into(&self, range: std::ops::Range<u64>, buf: &mut Vec<u8>) -> Result<()> {
        buf.resize((range.end - range.start) as usize, 0);
        self.file.read_exact_at(buf, range.start)?;
        Ok(())
    }

    /// Loads the whole store back into memory, decoding coded tiles to raw
    /// SNB bytes (in-tile sorted order — a reordering of the multiset).
    pub fn load_all(mut self) -> Result<TileStore> {
        let data = if self.index.is_coded() {
            let bpe = self.index.encoding.bytes_per_edge() as u64;
            let mut data = Vec::with_capacity((self.index.edge_count() * bpe) as usize);
            for idx in 0..self.index.tile_count() {
                let block = self.read_tile(idx)?;
                let raw = self.index.codec.decode_tile(&block)?;
                let expect = (self.index.start_edge[idx as usize + 1]
                    - self.index.start_edge[idx as usize])
                    * bpe;
                if raw.len() as u64 != expect {
                    return Err(GraphError::Format(format!(
                        "tile {idx} decoded to {} bytes, index implies {expect}",
                        raw.len()
                    )));
                }
                data.extend_from_slice(&raw);
            }
            data
        } else {
            self.read_range(0..self.index.data_bytes())?
        };
        TileStore::from_raw_parts(
            self.index.layout,
            self.index.encoding,
            data,
            self.index.start_edge,
            self.index.degrees,
        )
    }
}

/// Convenience: writes then reopens a store, returning the reader.
pub fn persist_and_open(store: &TileStore, dir: &Path, name: &str) -> Result<TileFile> {
    let paths = write_store(store, dir, name)?;
    TileFile::open(&paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConversionOptions;
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use gstore_graph::{Edge, EdgeList};

    fn sample_store() -> TileStore {
        let el = generate_rmat(&RmatParams::kron(10, 4)).unwrap();
        TileStore::build(&el, &ConversionOptions::new(6).with_group_side(4)).unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store();
        let paths = write_store(&store, dir.path(), "g").unwrap();
        let back = TileFile::open(&paths).unwrap().load_all().unwrap();
        assert_eq!(back.encoding(), store.encoding());
        assert_eq!(back.edge_count(), store.edge_count());
        assert_eq!(back.data(), store.data());
        assert_eq!(back.start_edge(), store.start_edge());
    }

    #[test]
    fn ranged_tile_reads_match() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store();
        let mut tf = persist_and_open(&store, dir.path(), "g").unwrap();
        for idx in [0u64, 1, store.tile_count() / 2, store.tile_count() - 1] {
            let bytes = tf.read_tile(idx).unwrap();
            assert_eq!(bytes.as_slice(), store.tile_bytes(idx));
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store();
        let paths = write_store(&store, dir.path(), "g").unwrap();
        let mut bytes = std::fs::read(&paths.start).unwrap();
        bytes[0] = b'X';
        std::fs::write(&paths.start, &bytes).unwrap();
        assert!(matches!(TileFile::open(&paths), Err(GraphError::Format(_))));
    }

    #[test]
    fn truncated_index_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store();
        let paths = write_store(&store, dir.path(), "g").unwrap();
        let bytes = std::fs::read(&paths.start).unwrap();
        std::fs::write(&paths.start, &bytes[..bytes.len() - 8]).unwrap();
        assert!(TileFile::open(&paths).is_err());
    }

    #[test]
    fn data_length_mismatch_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store();
        let paths = write_store(&store, dir.path(), "g").unwrap();
        let bytes = std::fs::read(&paths.tiles).unwrap();
        std::fs::write(&paths.tiles, &bytes[..bytes.len() - 4]).unwrap();
        assert!(TileFile::open(&paths).is_err());
    }

    #[test]
    fn non_monotonic_start_edge_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store();
        let paths = write_store(&store, dir.path(), "g").unwrap();
        let mut bytes = std::fs::read(&paths.start).unwrap();
        // Corrupt the second start-edge entry to a huge value.
        let off = HEADER_BYTES + 8;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&paths.start, &bytes).unwrap();
        assert!(TileFile::open(&paths).is_err());
    }

    #[test]
    fn empty_store_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let el = EdgeList::new(16, gstore_graph::GraphKind::Directed, vec![]).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(2)).unwrap();
        let back = persist_and_open(&store, dir.path(), "e")
            .unwrap()
            .load_all()
            .unwrap();
        assert_eq!(back.edge_count(), 0);
    }

    #[test]
    fn decode_after_reload_preserves_edges() {
        let dir = tempfile::tempdir().unwrap();
        let el = EdgeList::new(
            8,
            gstore_graph::GraphKind::Undirected,
            vec![Edge::new(0, 5), Edge::new(6, 2), Edge::new(3, 3)],
        )
        .unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(2)).unwrap();
        let back = persist_and_open(&store, dir.path(), "s")
            .unwrap()
            .load_all()
            .unwrap();
        let mut got = back.to_edges();
        got.sort_unstable();
        assert_eq!(got, vec![Edge::new(0, 5), Edge::new(2, 6), Edge::new(3, 3)]);
    }
}
