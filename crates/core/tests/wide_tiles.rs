//! Sweep kernels at the widest tiles, `tile_bits = 16`: every SNB local
//! is a full 16-bit value. 65 636 vertices make two partitions, the second
//! 100 vertices short. The edges touch locals 0 and 65 535 on both sides
//! of each tile, and every diagonal tile holds self-loops. BFS (with
//! parents), WCC, k-core and degrees must equal the CSR references on a
//! directed and a symmetric store, through the engine and through
//! `run_in_memory`.

use gstore_core::algorithms::bfs::NO_PARENT;
use gstore_core::algorithms::kcore::kcore_reference;
use gstore_core::inmem::run_in_memory;
use gstore_core::{Algorithm, Bfs, DegreeCount, GStoreEngine, KCore, Wcc};
use gstore_graph::{reference, CompactDegrees, Edge, EdgeList, GraphKind};
use gstore_scr::ScrConfig;
use gstore_tile::{ConversionOptions, TileStore};
use std::collections::HashSet;

const N: u64 = 65_636;
const SPAN: u64 = 1 << 16;
const LAST: u64 = SPAN - 1;

fn edges() -> Vec<Edge> {
    let mut edges = vec![
        // Locals 0 and 65 535 in the first partition's diagonal tile, and
        // across into the short second partition.
        Edge::new(0, LAST),
        Edge::new(LAST, SPAN),
        Edge::new(SPAN, N - 1),
        Edge::new(N - 1, 0),
        Edge::new(LAST, N - 1),
        Edge::new(SPAN, 0),
        // Diagonal self-loops, at both ends of both partitions.
        Edge::new(0, 0),
        Edge::new(LAST, LAST),
        Edge::new(SPAN, SPAN),
        Edge::new(N - 1, N - 1),
    ];
    // A sparse random part: a few components, and a core to peel into.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..40_000 {
        let a = next() % N;
        let b = if next() % 4 == 0 {
            next() % N
        } else {
            (a + 1 + next() % 64) % N
        };
        edges.push(Edge::new(a, b));
    }
    edges
}

fn engine(store: &TileStore) -> GStoreEngine {
    let seg = (store.data_bytes() / 4).max(4096);
    GStoreEngine::builder()
        .store(store)
        .scr(ScrConfig::new(seg, seg * 2).unwrap())
        .build()
        .unwrap()
}

/// Runs `alg` through a fresh engine, or through `run_in_memory`.
fn run(store: &TileStore, alg: &mut dyn Algorithm, through_engine: bool) {
    if through_engine {
        engine(store).run(alg, 10_000).unwrap();
    } else {
        run_in_memory(store, alg, 10_000);
    }
}

#[test]
fn sixteen_bit_tiles_match_the_csr_references() {
    for kind in [GraphKind::Directed, GraphKind::Undirected] {
        let el = EdgeList::new(N, kind, edges()).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(16)).unwrap();
        let tiling = *store.layout().tiling();
        assert_eq!(tiling.partitions(), 2);

        let depths = reference::bfs_levels(&reference::bfs_csr(&el), 0);
        let arcs: HashSet<(u64, u64)> = el
            .edges()
            .iter()
            .flat_map(|e| match kind {
                GraphKind::Directed => vec![(e.src, e.dst)],
                GraphKind::Undirected => vec![(e.src, e.dst), (e.dst, e.src)],
            })
            .collect();
        let labels = reference::wcc_labels(&el);
        let degrees = CompactDegrees::from_edge_list(&el).unwrap().to_vec();

        for through_engine in [true, false] {
            let at = format!("{kind:?}, engine={through_engine}");

            let mut bfs = Bfs::new(tiling, 0).with_parents();
            run(&store, &mut bfs, through_engine);
            assert_eq!(bfs.depths(), depths, "bfs depths, {at}");
            for (v, &p) in bfs.parents().unwrap().iter().enumerate() {
                if v == 0 || depths[v] == u32::MAX {
                    assert_eq!(p, NO_PARENT, "parent of {v}, {at}");
                } else {
                    assert_eq!(depths[p as usize] + 1, depths[v], "parent of {v}, {at}");
                    assert!(arcs.contains(&(p, v as u64)), "no arc ({p}, {v}), {at}");
                }
            }

            let mut wcc = Wcc::new(tiling);
            run(&store, &mut wcc, through_engine);
            assert_eq!(wcc.labels(), labels, "wcc, {at}");

            for k in [2, 3] {
                let mut kc = KCore::new(tiling, k);
                run(&store, &mut kc, through_engine);
                assert_eq!(kc.membership(), kcore_reference(&el, k), "{k}-core, {at}");
            }

            let mut dc = DegreeCount::new(tiling);
            run(&store, &mut dc, through_engine);
            assert_eq!(dc.degrees(), degrees, "degrees, {at}");
        }
    }
}
