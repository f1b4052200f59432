//! Cross-engine agreement: G-Store, the X-Stream-style baseline, and the
//! FlashGraph-style baseline must produce identical results on the same
//! graphs — the precondition for every performance comparison in the
//! paper's §VII.

use gstore::baselines::flashgraph::{FlashGraphConfig, FlashGraphEngine};
use gstore::baselines::xstream::{XStreamConfig, XStreamEngine};
use gstore::graph::gen::{generate_powerlaw, generate_rmat, PowerLawParams, RmatParams};
use gstore::graph::{reference, CompactDegrees};
use gstore::prelude::*;
use std::sync::Arc;

const PR_ITERS: u32 = 10;
const DAMPING: f64 = 0.85;

fn workloads() -> Vec<(String, EdgeList)> {
    let mut v = Vec::new();
    for kind in [GraphKind::Undirected, GraphKind::Directed] {
        for seed in [1u64, 2] {
            let el =
                generate_rmat(&RmatParams::kron(9, 6).with_kind(kind).with_seed(seed)).unwrap();
            v.push((format!("kron-{kind:?}-{seed}"), el));
        }
    }
    let el = generate_powerlaw(&PowerLawParams::twitter_like(40_000)).unwrap();
    v.push(("twitter-like".into(), el));
    v
}

fn gstore_run(el: &EdgeList) -> (Vec<u32>, Vec<f64>, Vec<u64>) {
    let store = TileStore::build(el, &ConversionOptions::new(6).with_group_side(2)).unwrap();
    let seg = (store.data_bytes() / 4).max(1024);
    let tiling = *store.layout().tiling();
    let mut engine = GStoreEngine::builder()
        .store(&store)
        .scr(ScrConfig::new(seg, seg * 3).unwrap())
        .build()
        .unwrap();
    let mut bfs = Bfs::new(tiling, 0);
    engine.run(&mut bfs, 10_000).unwrap();
    engine.clear_cache();
    let deg = Arc::new(CompactDegrees::from_edge_list(el).unwrap());
    let mut pr = PageRank::over(tiling, deg, DAMPING).with_iterations(PR_ITERS);
    engine.run(&mut pr, PR_ITERS).unwrap();
    engine.clear_cache();
    let mut wcc = Wcc::new(tiling);
    engine.run(&mut wcc, 10_000).unwrap();
    (bfs.depths(), pr.ranks().to_vec(), wcc.labels())
}

#[test]
fn all_three_engines_agree_with_references() {
    for (name, el) in workloads() {
        let (gs_bfs, gs_pr, gs_wcc) = gstore_run(&el);

        let xs = XStreamEngine::in_memory(&el, XStreamConfig::new(8).unwrap()).unwrap();
        let (xs_bfs, _) = xs.bfs(0).unwrap();
        let (xs_pr, _) = xs.pagerank(PR_ITERS, DAMPING).unwrap();
        let (xs_wcc, _) = xs.wcc().unwrap();

        let mut fg = FlashGraphEngine::in_memory(&el, FlashGraphConfig::default()).unwrap();
        let (fg_bfs, _) = fg.bfs(0).unwrap();
        let (fg_pr, _) = fg.pagerank(PR_ITERS, DAMPING).unwrap();
        let (fg_wcc, _) = fg.wcc().unwrap();

        let ref_bfs = reference::bfs_levels(&reference::bfs_csr(&el), 0);
        let ref_pr = reference::pagerank(
            &Csr::from_edge_list(&el, CsrDirection::Out),
            PR_ITERS as usize,
            DAMPING,
        );
        let ref_wcc = reference::wcc_labels(&el);

        assert_eq!(gs_bfs, ref_bfs, "{name}: gstore bfs");
        assert_eq!(xs_bfs, ref_bfs, "{name}: xstream bfs");
        assert_eq!(fg_bfs, ref_bfs, "{name}: flashgraph bfs");

        for (i, r) in ref_pr.iter().enumerate() {
            assert!((gs_pr[i] - r).abs() < 1e-9, "{name}: gstore pr[{i}]");
            assert!((xs_pr[i] - r).abs() < 1e-9, "{name}: xstream pr[{i}]");
            assert!((fg_pr[i] - r).abs() < 1e-9, "{name}: flashgraph pr[{i}]");
        }

        assert_eq!(gs_wcc, ref_wcc, "{name}: gstore wcc");
        assert_eq!(xs_wcc, ref_wcc, "{name}: xstream wcc");
        assert_eq!(fg_wcc, ref_wcc, "{name}: flashgraph wcc");
    }
}

#[test]
fn io_accounting_reflects_architectures() {
    // The structural claim behind the paper's speedups: per iteration,
    // X-Stream streams everything, FlashGraph reads both directions,
    // G-Store reads half the undirected data once and caches.
    let el = generate_rmat(&RmatParams::kron(10, 8)).unwrap();

    let store = TileStore::build(&el, &ConversionOptions::new(6)).unwrap();
    let seg = (store.data_bytes() / 4).max(1024);
    // Pool big enough for everything: G-Store reads the data exactly once.
    let mut engine = GStoreEngine::builder()
        .store(&store)
        .scr(ScrConfig::new(seg, 2 * seg + 2 * store.data_bytes()).unwrap())
        .build()
        .unwrap();
    let deg = Arc::new(CompactDegrees::from_edge_list(&el).unwrap());
    let iters = 4u32;
    let mut pr = PageRank::over(*store.layout().tiling(), deg, DAMPING).with_iterations(iters);
    let gs = engine.run(&mut pr, iters).unwrap();
    assert_eq!(
        gs.bytes_read,
        store.data_bytes(),
        "gstore reads data exactly once"
    );

    let xs = XStreamEngine::in_memory(&el, XStreamConfig::new(8).unwrap()).unwrap();
    let (_, xstats) = xs.pagerank(iters, DAMPING).unwrap();
    // X-Stream: 8 bytes/tuple, both orientations, degree pass + one full
    // stream per iteration — an 8x+ larger edge-read volume than G-Store.
    assert_eq!(
        xstats.edge_bytes_read,
        (iters as u64 + 1) * xs.meta().tuple_count * 8
    );
    assert!(xstats.edge_bytes_read >= 8 * gs.bytes_read);

    let mut fg = FlashGraphEngine::in_memory(
        &el,
        FlashGraphConfig {
            page_bytes: 4096,
            cache_bytes: store.data_bytes() / 2,
        },
    )
    .unwrap();
    let (_, fstats) = fg.pagerank(iters, DAMPING).unwrap();
    // FlashGraph's CSR is 2x G-Store's tile data; with a cache smaller
    // than the blob it must fetch at least that 2x every iteration.
    assert!(fstats.bytes_fetched > gs.bytes_read);
}
