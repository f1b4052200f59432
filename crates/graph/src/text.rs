//! Text edge-list ingestion and export (SNAP / Graph500-challenge style).
//!
//! Real-world graphs arrive as whitespace-separated `src dst` lines with
//! `#` or `%` comment lines. The parser is tolerant of blank lines and
//! takes the vertex count from the caller, else from the header
//! [`write_text`] writes, else infers it (max ID + 1).

use crate::edgelist::EdgeList;
use crate::types::{Edge, GraphError, GraphKind, Result, VertexId};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Reads a whitespace-separated text edge list.
///
/// * Lines starting with `#` or `%` are comments; blank lines skipped.
/// * Each data line must contain at least two integer fields (extra
///   fields, e.g. weights or timestamps, are ignored).
/// * `vertex_count`: pass `Some(n)` to validate IDs against a known count,
///   or `None` to read it from a [`write_text`] header, or failing that to
///   infer `max_id + 1`.
pub fn read_text(path: &Path, kind: GraphKind, vertex_count: Option<u64>) -> Result<EdgeList> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let mut edges: Vec<Edge> = Vec::new();
    let mut max_id: u64 = 0;
    let mut declared = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if let Some(header) = t.strip_prefix(HEADER) {
            declared = header.split(' ').next().and_then(|n| n.parse().ok());
        }
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut fields = t.split_whitespace();
        let parse = |s: Option<&str>| -> Result<VertexId> {
            s.ok_or_else(|| GraphError::Format(format!("line {}: missing field", lineno + 1)))?
                .parse::<u64>()
                .map_err(|e| GraphError::Format(format!("line {}: {e}", lineno + 1)))
        };
        let src = parse(fields.next())?;
        let dst = parse(fields.next())?;
        max_id = max_id.max(src).max(dst);
        edges.push(Edge::new(src, dst));
    }
    let n = match vertex_count.or(declared) {
        Some(n) => n,
        None => {
            if edges.is_empty() {
                0
            } else {
                max_id + 1
            }
        }
    };
    EdgeList::new(n, kind, edges)
}

/// Opens the header line [`write_text`] writes; the vertex count follows.
const HEADER: &str = "# gstore edge list: ";

/// Writes an edge list as `src dst` lines with a descriptive header.
pub fn write_text(el: &EdgeList, path: &Path) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(
        w,
        "{HEADER}{} vertices, {} edges, {:?}",
        el.vertex_count(),
        el.edge_count(),
        el.kind()
    )?;
    for e in el.edges() {
        writeln!(w, "{}\t{}", e.src, e.dst)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tmp(content: &str) -> (tempfile::TempDir, std::path::PathBuf) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("g.txt");
        std::fs::write(&path, content).unwrap();
        (dir, path)
    }

    #[test]
    fn parses_snap_style_input() {
        let (_d, path) =
            write_tmp("# comment\n% another comment\n\n0 1\n1\t2\n2 0 99 extra-ignored\n");
        let el = read_text(&path, GraphKind::Directed, None).unwrap();
        assert_eq!(el.vertex_count(), 3);
        assert_eq!(
            el.edges(),
            &[Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)]
        );
    }

    #[test]
    fn explicit_vertex_count_validated() {
        let (_d, path) = write_tmp("0 5\n");
        assert!(read_text(&path, GraphKind::Directed, Some(4)).is_err());
        assert!(read_text(&path, GraphKind::Directed, Some(6)).is_ok());
    }

    #[test]
    fn malformed_lines_rejected_with_line_numbers() {
        let (_d, path) = write_tmp("0 1\nnot-a-number 2\n");
        let err = read_text(&path, GraphKind::Directed, None).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let (_d2, path2) = write_tmp("0\n");
        let err = read_text(&path2, GraphKind::Directed, None).unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }

    #[test]
    fn empty_file_gives_empty_graph() {
        let (_d, path) = write_tmp("# nothing here\n");
        let el = read_text(&path, GraphKind::Undirected, None).unwrap();
        assert_eq!(el.vertex_count(), 0);
        assert_eq!(el.edge_count(), 0);
    }

    #[test]
    fn roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("rt.txt");
        let el = EdgeList::new(
            10,
            GraphKind::Undirected,
            vec![Edge::new(0, 9), Edge::new(3, 3), Edge::new(7, 2)],
        )
        .unwrap();
        write_text(&el, &path).unwrap();
        let back = read_text(&path, GraphKind::Undirected, Some(10)).unwrap();
        assert_eq!(back.edges(), el.edges());
        // The header carries the vertex count past the largest id.
        let el = EdgeList::new(12, GraphKind::Directed, vec![Edge::new(0, 9)]).unwrap();
        write_text(&el, &path).unwrap();
        let back = read_text(&path, GraphKind::Directed, None).unwrap();
        assert_eq!(back.vertex_count(), 12);
    }
}
