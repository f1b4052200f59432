//! Golden store bytes for the converter: a hash of the `.tiles` and
//! `.start` files for every combination of graph kind, edge encoding,
//! symmetry, grouping, input tuple width and input format. The hashes
//! were recorded when an in-memory scatter and the streaming scatter still
//! wrote these bytes separately; every entry point into the one converter
//! must reproduce each of them.
//!
//! Text input is the same graph written with `write_text` and read back,
//! its vertex count read back from the header. The tuple width is that
//! of the binary file the streaming entry point reads.
//!
//! Every entry point also writes the same `.deg` file, and the degrees it
//! holds are those of the edge list.

use gstore_graph::gen::{generate_rmat, RmatParams};
use gstore_graph::text::{read_text, write_text};
use gstore_graph::{CompactDegrees, Edge, EdgeList, GraphKind, TupleWidth};
use gstore_tile::{
    convert_edges, convert_streaming, write_store, ConversionOptions, EdgeEncoding,
    StreamingOptions, TileIndex, TilePaths, TileStore,
};
use std::fmt::Write;
use std::path::Path;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/convert_hashes.txt"
);

/// 64-bit FNV-1a: stable across platforms and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// kron(7, 8) plus self-loops and repeated edges, which the symmetry
/// and mirror policies treat specially.
fn graph(kind: GraphKind) -> EdgeList {
    let mut edges = generate_rmat(&RmatParams::kron(7, 8)).unwrap().into_edges();
    edges.extend([Edge::new(3, 3), Edge::new(100, 100), Edge::new(7, 100)]);
    edges.extend([Edge::new(100, 7), Edge::new(7, 100), Edge::new(0, 127)]);
    EdgeList::new(128, kind, edges).unwrap()
}

fn hashes(paths: &TilePaths) -> (u64, u64) {
    let read = |p: &Path| fnv1a(&std::fs::read(p).unwrap());
    (read(&paths.tiles), read(&paths.start))
}

/// The lines of one graph kind and encoding: every symmetry, grouping,
/// tuple width and input format.
fn render_group(kind: GraphKind, encoding: EdgeEncoding) -> String {
    let dir = tempfile::tempdir().unwrap();
    let mut out = String::new();
    for symmetry in [true, false] {
        for grouped in [false, true] {
            for width in [TupleWidth::U32, TupleWidth::U64] {
                for text in [false, true] {
                    let mut el = graph(kind);
                    if text {
                        let txt = dir.path().join("g.txt");
                        write_text(&el, &txt).unwrap();
                        el = read_text(&txt, kind, None).unwrap();
                    }
                    let mut opts = ConversionOptions::new(3).with_encoding(encoding);
                    if !symmetry {
                        opts = opts.without_symmetry();
                    }
                    if grouped {
                        opts = opts.with_group_side(4);
                    }
                    let label = format!(
                        "{kind:?} {encoding:?} symmetry={symmetry} grouped={grouped} {width:?} {}",
                        if text { "text" } else { "binary" }
                    );

                    let store = TileStore::build(&el, &opts).unwrap();
                    let paths = write_store(&store, dir.path(), "m").unwrap();
                    let built = hashes(&paths);
                    let degrees = TileIndex::read(&paths.start).unwrap().degrees().clone();
                    assert_eq!(
                        *degrees,
                        CompactDegrees::from_edge_list(&el).unwrap(),
                        "{label}"
                    );
                    let deg = std::fs::read(&paths.deg).unwrap();

                    let edge_path = dir.path().join("g.el");
                    el.write_binary(&edge_path, width).unwrap();
                    let sopts = StreamingOptions::new(opts).with_chunk_edges(300);
                    let report = convert_streaming(&edge_path, dir.path(), "s", &sopts).unwrap();
                    assert_eq!(hashes(&report.paths), built, "{label}: streamed");
                    assert_eq!(std::fs::read(&report.paths.deg).unwrap(), deg, "{label}");
                    let report = convert_edges(&el, dir.path(), "e", &sopts).unwrap();
                    assert_eq!(hashes(&report.paths), built, "{label}: from the list");
                    assert_eq!(std::fs::read(&report.paths.deg).unwrap(), deg, "{label}");

                    writeln!(out, "{label} tiles={:016x} start={:016x}", built.0, built.1).unwrap();
                }
            }
        }
    }
    out
}

/// Every line, in file order; the six kind/encoding groups render on
/// threads of their own.
fn render() -> String {
    let kinds = [GraphKind::Directed, GraphKind::Undirected];
    let encodings = [
        EdgeEncoding::Snb,
        EdgeEncoding::Tuple8,
        EdgeEncoding::Tuple16,
    ];
    std::thread::scope(|s| {
        let groups: Vec<_> = kinds
            .iter()
            .flat_map(|&kind| {
                encodings.map(|encoding| s.spawn(move || render_group(kind, encoding)))
            })
            .collect();
        groups.into_iter().map(|g| g.join().unwrap()).collect()
    })
}

#[test]
fn every_entry_point_reproduces_the_golden_store_bytes() {
    let want = std::fs::read_to_string(GOLDEN).unwrap();
    let got = render();
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "store bytes differ from {GOLDEN} at line {}", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
