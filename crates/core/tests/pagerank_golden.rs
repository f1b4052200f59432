//! Golden PageRank rank bits: the FNV-1a hash of `f64::to_bits` of every
//! rank, for directed and symmetric kron(10, 8) stores, raw and ζ3, run
//! alone and inside a batch of four, through the engine and through
//! `run_in_memory`. A change to a sweep kernel must leave every rank
//! bit-identical, so it must leave this file byte-identical.
//!
//! Every engine runs one I/O worker: completions then arrive in
//! submission order, so each vertex's partial sums are added in the same
//! order on every run. (Integer algorithms are pinned by the CSR
//! references instead.)

use gstore_core::inmem::run_in_memory;
use gstore_core::{Algorithm, Bfs, GStoreEngine, PageRank, QueryBatch};
use gstore_graph::gen::{generate_rmat, RmatParams};
use gstore_graph::{CompactDegrees, GraphKind};
use gstore_io::MemBackend;
use gstore_scr::ScrConfig;
use gstore_tile::{encode_store, Codec, ConversionOptions, TileStore};
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/pagerank_bits.txt"
);
const ITERS: u32 = 6;

fn fnv1a(ranks: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in ranks {
        for b in r.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn engine(store: &TileStore, codec: Codec) -> GStoreEngine {
    let (index, data) = encode_store(store, codec).unwrap();
    let seg = (data.len() as u64 / 8).max(256);
    let pool = seg * 2 + data.len() as u64 / 2 + 1024;
    GStoreEngine::builder()
        .backend(index, Arc::new(MemBackend::new(data)))
        .io_workers(1)
        .scr(ScrConfig::new(seg, pool).unwrap())
        .build()
        .unwrap()
}

fn render() -> String {
    let mut out = String::new();
    for kind in [GraphKind::Directed, GraphKind::Undirected] {
        let el = generate_rmat(&RmatParams::kron(10, 8).with_kind(kind)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(6).with_group_side(4)).unwrap();
        let tiling = *store.layout().tiling();
        let deg = Arc::new(CompactDegrees::from_edge_list(&el).unwrap());
        let pagerank = || PageRank::over(tiling, deg.clone(), 0.85).with_iterations(ITERS);

        let mut pr = pagerank();
        run_in_memory(&store, &mut pr, ITERS);
        writeln!(out, "{kind:?} in-memory: {:016x}", fnv1a(pr.ranks())).unwrap();

        for (label, codec) in [("raw", Codec::RawSnb), ("zeta", Codec::ZetaGap)] {
            let mut pr = pagerank();
            engine(&store, codec).run(&mut pr, ITERS).unwrap();
            writeln!(out, "{kind:?} {label} solo: {:016x}", fnv1a(pr.ranks())).unwrap();

            let mut pr = pagerank();
            let mut b0 = Bfs::new(tiling, 0);
            let mut b7 = Bfs::new(tiling, 7);
            let mut b100 = Bfs::new(tiling, 100);
            let mut batch = QueryBatch::new();
            let queries: [&mut dyn Algorithm; 4] = [&mut b0, &mut pr, &mut b7, &mut b100];
            for q in queries {
                batch.push(q).unwrap();
            }
            engine(&store, codec).run_batch(&mut batch, 1000).unwrap();
            drop(batch);
            writeln!(out, "{kind:?} {label} batch: {:016x}", fnv1a(pr.ranks())).unwrap();
        }
    }
    out
}

#[test]
fn pagerank_rank_bits_match_the_golden_file() {
    let want = std::fs::read_to_string(GOLDEN).unwrap();
    assert_eq!(render(), want, "rank bits differ from {GOLDEN}");
}
