//! The `.deg` file: a store's compact degree array (§IV.C), written by
//! every store writer from the degrees the converter's first pass counts,
//! and loaded with the `.start` index by [`crate::TileIndex::read`].
//!
//! Layout (little-endian):
//! * a 24-byte header: magic `GSTD`, version `u32`, vertex count `u64`,
//!   hub count `u64`;
//! * one `u16` inline entry per vertex;
//! * the hub table: one `(vertex u64, degree u64)` row per hub, ascending
//!   by vertex.
//!
//! A degree is the vertex's out-degree on a directed graph and its
//! undirected degree (self-loops once) otherwise, whatever the store's
//! symmetry option.

use crate::grouping::GroupedLayout;
use gstore_graph::{CompactDegrees, GraphError, Result};
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"GSTD";
const VERSION: u32 = 1;
const HEADER_BYTES: usize = 24;

/// The `.deg` file beside a `.start` file: the same stem.
pub(crate) fn deg_path(start: &Path) -> PathBuf {
    start.with_extension("deg")
}

/// Writes `degrees` to `path`, replacing any file there.
pub(crate) fn write_deg_file(path: &Path, degrees: &CompactDegrees) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(degrees.len() as u64).to_le_bytes())?;
    w.write_all(&(degrees.hub_count() as u64).to_le_bytes())?;
    for d in degrees.inline() {
        w.write_all(&d.to_le_bytes())?;
    }
    for (v, d) in degrees.hubs() {
        w.write_all(&v.to_le_bytes())?;
        w.write_all(&d.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads the `.deg` file at `path` and checks it against the store it
/// belongs to: its layout and its stored edge count. Every defect — an
/// absent, short or wrong-length file, a hub table that disagrees with
/// the inline entries, a vertex count or degree total the tiling rules
/// out — is a [`GraphError::Format`] naming the file.
pub(crate) fn read_deg_file(
    path: &Path,
    layout: &GroupedLayout,
    edge_count: u64,
) -> Result<CompactDegrees> {
    let bad = |what: String| GraphError::Format(format!("{}: {what}", path.display()));
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == ErrorKind::NotFound => {
            return Err(bad(
                "no degree file; a store written without one must be re-converted \
                 with `gstore convert`"
                    .into(),
            ))
        }
        Err(e) => return Err(e.into()),
    };
    let header = bytes
        .get(..HEADER_BYTES)
        .ok_or_else(|| bad("shorter than the degree-file header".into()))?;
    if &header[0..4] != MAGIC {
        return Err(bad("bad magic in degree file".into()));
    }
    let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().unwrap());
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(bad(format!("unsupported degree-file version {version}")));
    }
    let (vertices, hubs) = (word(8), word(16));
    let tiling = layout.tiling();
    if vertices != tiling.vertex_count() {
        return Err(bad(format!(
            "covers {vertices} vertices, the store has {}",
            tiling.vertex_count()
        )));
    }
    let body = &bytes[HEADER_BYTES..];
    let want = hubs
        .checked_mul(16)
        .and_then(|h| h.checked_add(vertices.checked_mul(2)?));
    if want != Some(body.len() as u64) {
        return Err(bad(format!(
            "{} bytes after the header do not hold {vertices} vertices and {hubs} hubs",
            body.len()
        )));
    }
    let (inline, table) = body.split_at(vertices as usize * 2);
    let inline = inline
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
        .collect();
    let table = table
        .chunks_exact(16)
        .map(|c| {
            let v = u64::from_le_bytes(c[..8].try_into().unwrap());
            (v, u64::from_le_bytes(c[8..].try_into().unwrap()))
        })
        .collect();
    let degrees = CompactDegrees::from_parts(inline, table).map_err(|e| bad(e.to_string()))?;
    check_degrees(layout, edge_count, &degrees).map_err(|e| bad(e.to_string()))?;
    Ok(degrees)
}

/// Checks a degree array against a store's layout and stored edge count:
/// one entry per vertex, and a total the stored edges allow. A store
/// without symmetry holds every degree's edge once, so the total equals
/// the edge count; a symmetric store holds an undirected edge once for
/// two degrees (a self-loop for one), so the total lies between one and
/// two times the edge count.
pub(crate) fn check_degrees(
    layout: &GroupedLayout,
    edge_count: u64,
    degrees: &CompactDegrees,
) -> Result<()> {
    let tiling = layout.tiling();
    if degrees.len() as u64 != tiling.vertex_count() {
        return Err(GraphError::Format(format!(
            "degree array covers {} vertices, the store has {}",
            degrees.len(),
            tiling.vertex_count()
        )));
    }
    let total = degrees.total();
    let fits = if tiling.symmetric() {
        (edge_count..=edge_count.saturating_mul(2)).contains(&total)
    } else {
        total == edge_count
    };
    if !fits {
        return Err(GraphError::Format(format!(
            "degrees total {total}, which the store's {edge_count} edges rule out"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConversionOptions;
    use crate::file::{write_store, TileFile, TileIndex};
    use crate::layout::Tiling;
    use crate::store::TileStore;
    use gstore_graph::degree::INLINE_MAX;
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use gstore_graph::GraphKind;

    /// 32 769 hubs: one more than the 15-bit overflow index of the
    /// in-memory format before the hub table could address.
    #[test]
    fn more_hubs_than_the_old_overflow_index_round_trip() {
        let hubs = (1u64 << 15) + 1;
        let degrees: Vec<u64> = (0..hubs + 100)
            .map(|v| if v < hubs { INLINE_MAX + 1 + v } else { v % 7 })
            .collect();
        let compact = CompactDegrees::from_degrees(&degrees);
        assert_eq!(compact.hub_count() as u64, hubs);
        let tiling = Tiling::new(degrees.len() as u64, 8, GraphKind::Directed).unwrap();
        let layout = GroupedLayout::ungrouped(tiling).unwrap();
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("hubs.deg");
        write_deg_file(&path, &compact).unwrap();
        let edges = degrees.iter().sum();
        let back = read_deg_file(&path, &layout, edges).unwrap();
        assert_eq!(back.to_vec(), degrees);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            HEADER_BYTES as u64 + 2 * degrees.len() as u64 + 16 * hubs
        );
    }

    fn sample_store(kind: GraphKind) -> TileStore {
        let el = generate_rmat(&RmatParams::kron(8, 4).with_kind(kind)).unwrap();
        TileStore::build(&el, &ConversionOptions::new(5).with_group_side(2)).unwrap()
    }

    /// Opens the store with its `.deg` replaced by `bytes`: the error
    /// must be a typed format error naming the file.
    fn open_with_deg(bytes: &[u8]) -> String {
        let dir = tempfile::tempdir().unwrap();
        let paths = write_store(&sample_store(GraphKind::Undirected), dir.path(), "g").unwrap();
        std::fs::write(&paths.deg, bytes).unwrap();
        match TileFile::open(&paths) {
            Err(GraphError::Format(m)) => {
                assert!(m.contains("g.deg"), "{m}");
                m
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn bad_deg_files_are_typed_errors() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store(GraphKind::Undirected);
        let paths = write_store(&store, dir.path(), "g").unwrap();
        let good = std::fs::read(&paths.deg).unwrap();

        open_with_deg(&good[..10]); // shorter than the header
        open_with_deg(&good[..good.len() - 1]); // truncated body
        let mut longer = good.clone();
        longer.extend_from_slice(&[0, 0]);
        open_with_deg(&longer);
        let mut magic = good.clone();
        magic[0] = b'X';
        open_with_deg(&magic);
        let mut version = good.clone();
        version[4] = 9;
        open_with_deg(&version);
        // Claimed hub count past any length: no overflow, no allocation.
        let mut hubs = good.clone();
        hubs[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        open_with_deg(&hubs);
        // A flagged entry with no hub-table row.
        let mut flagged = good.clone();
        flagged[HEADER_BYTES + 1] |= 0x80;
        assert!(open_with_deg(&flagged).contains("hub-table"));
        // Another graph's degrees: wrong vertex count, then a total the
        // stored edges rule out.
        let other = CompactDegrees::from_degrees(&[1, 1]);
        write_deg_file(&paths.deg, &other).unwrap();
        open_with_deg(&std::fs::read(&paths.deg).unwrap());
        let mut degrees = store.degrees().to_vec();
        degrees[0] += 10 * store.edge_count();
        write_deg_file(&paths.deg, &CompactDegrees::from_degrees(&degrees)).unwrap();
        assert!(open_with_deg(&std::fs::read(&paths.deg).unwrap()).contains("total"));
    }

    #[test]
    fn a_store_without_its_deg_names_the_file_and_the_command() {
        let dir = tempfile::tempdir().unwrap();
        let paths = write_store(&sample_store(GraphKind::Directed), dir.path(), "g").unwrap();
        std::fs::remove_file(&paths.deg).unwrap();
        for err in [
            TileIndex::read(&paths.start).unwrap_err(),
            TileFile::open(&paths).unwrap_err(),
        ] {
            match err {
                GraphError::Format(m) => {
                    assert!(m.contains("g.deg") && m.contains("gstore convert"), "{m}")
                }
                other => panic!("expected a format error, got {other:?}"),
            }
        }
    }

    /// A directed store's degrees total its edges exactly: one degree too
    /// many anywhere is refused.
    #[test]
    fn directed_totals_are_exact() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store(GraphKind::Directed);
        let paths = write_store(&store, dir.path(), "g").unwrap();
        let index = TileIndex::read(&paths.start).unwrap();
        assert_eq!(index.degrees(), store.degrees());
        assert_eq!(index.degrees().total(), store.edge_count());
        let mut degrees = store.degrees().to_vec();
        degrees[1] += 1;
        write_deg_file(&paths.deg, &CompactDegrees::from_degrees(&degrees)).unwrap();
        assert!(TileIndex::read(&paths.start).is_err());
    }
}
