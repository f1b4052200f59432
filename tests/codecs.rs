//! Raw-vs-coded equivalence: every query path — full sweeps, shared-scan
//! batches, and point reads — must be observably identical over a
//! bit-coded store and the raw store it encodes, including under
//! adversarial AIO completion timing (`JitterBackend`), and must leak no
//! pooled buffers. Sweeps reach coded tiles through the compute phase's
//! decode stage: its decode-once count, its recorder group, and what it
//! does with a corrupt tile are pinned here too.

use gstore::graph::gen::{generate_rmat, RmatParams};
use gstore::graph::{CompactDegrees, GraphError};
use gstore::io::JitterBackend;
use gstore::prelude::*;
use gstore::tile::{encode_store, Codec};
use gstore_metrics::Counter;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn fixture() -> (EdgeList, TileStore) {
    let el = generate_rmat(&RmatParams::kron(8, 4)).unwrap();
    let store = TileStore::build(&el, &ConversionOptions::new(4).with_group_side(2)).unwrap();
    (el, store)
}

/// Engine over `store` re-encoded with `codec`, served through a
/// jittered backend so completion reordering is exercised too.
fn engine_for(store: &TileStore, codec: Codec) -> GStoreEngine {
    let (index, data) = encode_store(store, codec).unwrap();
    let backend = Arc::new(JitterBackend::new(Arc::new(MemBackend::new(data)), 300));
    let seg = (store.data_bytes() / 4).max(256);
    GStoreEngine::builder()
        .scr(ScrConfig::new(seg, seg * 3).unwrap())
        .point_read_cache_bytes(1 << 16)
        .backend(index, backend)
        .io_workers(4)
        .build()
        .unwrap()
}

#[test]
fn compressed_sweeps_match_raw() {
    let (el, store) = fixture();
    let tiling = *store.layout().tiling();
    let deg = Arc::new(CompactDegrees::from_edge_list(&el).unwrap());

    let mut bfs_raw = Bfs::new(tiling, 0);
    engine_for(&store, Codec::RawSnb)
        .run(&mut bfs_raw, 10_000)
        .unwrap();
    let mut wcc_raw = Wcc::new(tiling);
    engine_for(&store, Codec::RawSnb)
        .run(&mut wcc_raw, 10_000)
        .unwrap();
    let mut pr_raw = PageRank::over(tiling, deg.clone(), 0.85).with_iterations(5);
    engine_for(&store, Codec::RawSnb)
        .run(&mut pr_raw, 5)
        .unwrap();

    for codec in Codec::CODED {
        let mut bfs = Bfs::new(tiling, 0);
        let mut engine = engine_for(&store, codec);
        engine.run(&mut bfs, 10_000).unwrap();
        assert_eq!(bfs.depths(), bfs_raw.depths(), "{} bfs", codec.name());

        let mut wcc = Wcc::new(tiling);
        engine.run(&mut wcc, 10_000).unwrap();
        assert_eq!(wcc.labels(), wcc_raw.labels(), "{} wcc", codec.name());

        let mut pr = PageRank::over(tiling, deg.clone(), 0.85).with_iterations(5);
        engine.run(&mut pr, 5).unwrap();
        for (c, r) in pr.ranks().iter().zip(pr_raw.ranks()) {
            assert!((c - r).abs() < 1e-9, "{}: rank {c} vs {r}", codec.name());
        }

        assert_eq!(engine.aio_in_flight(), 0, "{}", codec.name());
        assert_eq!(
            engine.buffer_pool_stats().outstanding,
            0,
            "{} leaked buffers",
            codec.name()
        );
    }
}

#[test]
fn compressed_batches_match_raw() {
    let (el, store) = fixture();
    let tiling = *store.layout().tiling();
    let deg = Arc::new(CompactDegrees::from_edge_list(&el).unwrap());

    let mut bfs_raw = Bfs::new(tiling, 0);
    engine_for(&store, Codec::RawSnb)
        .run(&mut bfs_raw, 10_000)
        .unwrap();
    let mut wcc_raw = Wcc::new(tiling);
    engine_for(&store, Codec::RawSnb)
        .run(&mut wcc_raw, 10_000)
        .unwrap();
    let mut pr_raw = PageRank::over(tiling, deg.clone(), 0.85).with_iterations(4);
    engine_for(&store, Codec::RawSnb)
        .run(&mut pr_raw, 4)
        .unwrap();

    for codec in Codec::CODED {
        let mut bfs = Bfs::new(tiling, 0);
        let mut wcc = Wcc::new(tiling);
        let mut pr = PageRank::over(tiling, deg.clone(), 0.85).with_iterations(4);
        let mut batch = QueryBatch::new();
        batch.push(&mut bfs).unwrap();
        batch.push(&mut wcc).unwrap();
        batch.push(&mut pr).unwrap();
        let mut engine = engine_for(&store, codec);
        let out = engine.run_batch(&mut batch, 10_000).unwrap();
        assert!(out.all_converged(), "{}", codec.name());
        assert_eq!(bfs.depths(), bfs_raw.depths(), "{} bfs", codec.name());
        assert_eq!(wcc.labels(), wcc_raw.labels(), "{} wcc", codec.name());
        for (c, r) in pr.ranks().iter().zip(pr_raw.ranks()) {
            assert!((c - r).abs() < 1e-9, "{}: rank {c} vs {r}", codec.name());
        }
        assert_eq!(
            engine.buffer_pool_stats().outstanding,
            0,
            "{}",
            codec.name()
        );
    }
}

#[test]
fn compressed_point_reads_match_raw() {
    let (el, store) = fixture();
    let csr = Csr::from_edge_list(&el, CsrDirection::Out);
    for codec in Codec::CODED {
        let engine = engine_for(&store, codec);
        let reader = engine.point_reader();
        for v in 0..el.vertex_count() {
            let mut got = reader.neighbors(v).unwrap();
            got.sort_unstable();
            let mut want = csr.neighbors(v).to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "{}: neighbors of {v}", codec.name());
            assert_eq!(
                reader.degree(v).unwrap(),
                csr.degree(v),
                "{}: degree of {v}",
                codec.name()
            );
        }
        assert_eq!(
            reader.buffer_stats().outstanding,
            0,
            "{} leaked buffers",
            codec.name()
        );
    }
}

#[test]
fn best_bit_codec_is_a_third_smaller_than_varint() {
    // At the benchmark's tile geometry (2^11-vertex tiles, 16-tile groups)
    // the best bit-level codec stores an edge in at most 1/1.3 of varint's
    // bytes. Gap statistics per tile are what matter, so a smaller Kron
    // graph at the same geometry stands in for the full-size one.
    let el = generate_rmat(&RmatParams::kron(16, 16)).unwrap();
    let store = TileStore::build(&el, &ConversionOptions::new(11).with_group_side(16)).unwrap();
    let disk_bytes = |codec: Codec| encode_store(&store, codec).unwrap().0.data_bytes();
    let varint = disk_bytes(Codec::DeltaVarint);
    let best = [Codec::GammaGap, Codec::ZetaGap, Codec::EliasFano]
        .into_iter()
        .map(disk_bytes)
        .min()
        .unwrap();
    let ratio = varint as f64 / best as f64;
    assert!(
        ratio >= 1.3,
        "best bit codec only {ratio:.3}x smaller than varint ({varint} vs {best} bytes)"
    );
}

/// A recording engine over `store` re-encoded with `codec`: small
/// segments, a pool of half the coded data, so sweeps both slide and
/// rewind.
fn recording_engine(store: &TileStore, codec: Codec) -> GStoreEngine {
    let (index, data) = encode_store(store, codec).unwrap();
    let seg = (data.len() as u64 / 8).max(256);
    GStoreEngine::builder()
        .scr(ScrConfig::new(seg, seg * 2 + data.len() as u64 / 2).unwrap())
        .metrics(true)
        .backend(index, Arc::new(MemBackend::new(data)))
        .build()
        .unwrap()
}

#[test]
fn coded_engines_report_codec_metrics() {
    // The flight recorder's codec group must see every decoded tile and
    // reconcile disk vs logical volume with the index's own accounting.
    let (el, store) = fixture();
    let tiling = *store.layout().tiling();
    let deg = Arc::new(CompactDegrees::from_edge_list(&el).unwrap());
    let mut engine = recording_engine(&store, Codec::ZetaGap);
    let mut pr = PageRank::over(tiling, deg, 0.85).with_iterations(3);
    engine.run(&mut pr, 3).unwrap();
    let m = engine.metrics().unwrap();
    assert!(m[Counter::CodecTilesDecoded] > 0);
    assert!(m[Counter::CodecDiskBytes] > 0);
    assert!(m[Counter::CodecLogicalBytes] > m[Counter::CodecDiskBytes]);
    assert!(m.value("codec.compression_ratio").unwrap() > 1.0);
    // Sweep decode is a stage of its own, timed wave by wave.
    assert!(m[Counter::CodecDecodeNs] > 0);
    assert_eq!(m[Counter::CodecDecodedEdges], 3 * el.edge_count());
}

#[test]
fn decode_stage_decodes_each_stored_edge_once_per_sweep() {
    // One query: every edge processed was decoded exactly once — also on
    // a symmetric store, where a tile is two work items, and under
    // selective I/O, where sweeps fetch different tiles. A batch: what is
    // decoded is the tiles' stored edges (what `codec.logical_bytes`
    // counts from the index, fetched and rewound tiles alike), not K
    // times that. Raw stores decode nothing.
    for kind in [GraphKind::Undirected, GraphKind::Directed] {
        let el = generate_rmat(&RmatParams::kron(8, 4).with_kind(kind)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(4).with_group_side(2)).unwrap();
        let tiling = *store.layout().tiling();
        let deg = Arc::new(CompactDegrees::from_edge_list(&el).unwrap());
        for codec in Codec::ALL {
            let what = format!("{} {kind:?}", codec.name());
            let decoded = |engine: &GStoreEngine| {
                let m = engine.metrics().unwrap();
                let edges = m[Counter::CodecDecodedEdges];
                assert_eq!(edges * 4, m[Counter::CodecLogicalBytes], "{what}");
                edges
            };

            let mut engine = recording_engine(&store, codec);
            let mut pr = PageRank::over(tiling, deg.clone(), 0.85).with_iterations(3);
            let stats = engine.run(&mut pr, 3).unwrap();
            assert_eq!(stats.edges_processed, 3 * el.edge_count(), "{what}");
            assert!(
                stats.tiles_from_cache > 0 && stats.tiles_fetched > 0,
                "{what}"
            );
            let mut bfs = Bfs::new(tiling, 0);
            let bfs_stats = engine.run(&mut bfs, 10_000).unwrap();
            assert!(bfs_stats.edges_processed > 0, "{what}");
            let solo = stats.edges_processed + bfs_stats.edges_processed;
            if codec == Codec::RawSnb {
                assert_eq!(engine.metrics().unwrap()[Counter::CodecDecodedEdges], 0);
            } else {
                assert_eq!(decoded(&engine), solo, "{what}");
            }

            // PageRank outlasts the other three, so every sweep of the
            // batch is a full sweep.
            let mut engine = recording_engine(&store, codec);
            let mut bfs = Bfs::new(tiling, 0);
            let mut wcc = Wcc::new(tiling);
            let mut kc = KCore::new(tiling, 2);
            let mut pr = PageRank::over(tiling, deg.clone(), 0.85).with_iterations(30);
            let mut batch = QueryBatch::new();
            batch.push(&mut bfs).unwrap();
            batch.push(&mut wcc).unwrap();
            batch.push(&mut kc).unwrap();
            batch.push(&mut pr).unwrap();
            let out = engine.run_batch(&mut batch, 10_000).unwrap();
            assert!(out.all_converged(), "{what}");
            let sweeps = u64::from(out.sweeps);
            assert_eq!(out.per_query[3].stats.iterations, out.sweeps, "{what}");
            assert!(out.aggregate.edges_processed > (sweeps + 3) * el.edge_count());
            if codec == Codec::RawSnb {
                assert_eq!(engine.metrics().unwrap()[Counter::CodecDecodedEdges], 0);
            } else {
                assert_eq!(decoded(&engine), sweeps * el.edge_count(), "{what}");
            }
        }
    }
}

/// Serves one tile's byte range from `bad` while armed, everything else
/// (and everything once disarmed) from the good blob.
struct CorruptingBackend {
    good: MemBackend,
    at: u64,
    bad: Vec<u8>,
    armed: AtomicBool,
}

impl StorageBackend for CorruptingBackend {
    fn len(&self) -> u64 {
        self.good.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.good.read_at(offset, buf)?;
        if self.armed.load(Ordering::SeqCst) {
            // Overlap of the request with the bad range.
            let lo = self.at.max(offset);
            let hi = (self.at + self.bad.len() as u64).min(offset + buf.len() as u64);
            if lo < hi {
                buf[(lo - offset) as usize..(hi - offset) as usize]
                    .copy_from_slice(&self.bad[(lo - self.at) as usize..(hi - self.at) as usize]);
            }
        }
        Ok(())
    }
}

#[test]
fn corrupt_coded_tile_fails_the_run_with_a_typed_error() {
    // A tile cut short (its tail zeroed: the byte range keeps its length)
    // or with a flipped header bit fails `run` and `run_batch` with
    // `GraphError::Format` naming the tile — not a shorter sweep, not a
    // panic — leaves no read in flight and no pooled buffer out, and the
    // same engine then finishes a clean run on good bytes.
    let (el, store) = fixture();
    let tiling = *store.layout().tiling();
    let want = gstore::graph::reference::wcc_labels(&el);
    for codec in [Codec::ZetaGap, Codec::EliasFano] {
        let (index, data) = encode_store(&store, codec).unwrap();
        let victim = (0..index.tile_count())
            .max_by_key(|&t| index.tile_byte_range(t).end - index.tile_byte_range(t).start)
            .unwrap();
        let range = index.tile_byte_range(victim);
        let good = &data[range.start as usize..range.end as usize];
        let mut truncated = good.to_vec();
        truncated[good.len() / 2..].fill(0);
        let mut flipped = good.to_vec();
        flipped[0] ^= 0x02;
        for (what, bad) in [("truncated", truncated), ("bit-flipped", flipped)] {
            let what = format!("{} {what}", codec.name());
            let backend = Arc::new(CorruptingBackend {
                good: MemBackend::new(data.clone()),
                at: range.start,
                bad,
                armed: AtomicBool::new(true),
            });
            let seg = (data.len() as u64 / 4).max(256);
            let mut engine = GStoreEngine::builder()
                .scr(ScrConfig::new(seg, seg * 3).unwrap())
                .backend(index.clone(), backend.clone())
                .io_workers(2)
                .build()
                .unwrap();
            let clean = |engine: &GStoreEngine| {
                assert_eq!(engine.aio_in_flight(), 0, "{what}");
                assert_eq!(engine.buffer_pool_stats().outstanding, 0, "{what}");
            };

            let err = engine.run(&mut Wcc::new(tiling), 10_000).unwrap_err();
            let GraphError::Format(msg) = &err else {
                panic!("{what}: {err:?}");
            };
            assert!(msg.contains(&format!("tile {victim} ")), "{what}: {msg}");
            clean(&engine);

            let mut bfs = Bfs::new(tiling, 0);
            let mut wcc = Wcc::new(tiling);
            let mut batch = QueryBatch::new();
            batch.push(&mut bfs).unwrap();
            batch.push(&mut wcc).unwrap();
            let err = engine.run_batch(&mut batch, 10_000).unwrap_err();
            assert!(matches!(err, GraphError::Format(_)), "{what}: {err:?}");
            clean(&engine);

            backend.armed.store(false, Ordering::SeqCst);
            let mut wcc = Wcc::new(tiling);
            engine.run(&mut wcc, 10_000).unwrap();
            assert_eq!(wcc.labels(), want, "{what}");
            clean(&engine);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the store's shape, orientation and codec, and whatever
    /// order reads complete in, a sweep through the decode stage ends
    /// where the same sweep over the raw store ends: BFS depths, WCC
    /// labels and k-core membership exactly, PageRank ranks to 1e-9.
    #[test]
    fn staged_decode_matches_raw_store(
        seed in 0u64..100,
        tile_bits in 2u32..6,
        q in 1u32..5,
        directed in any::<bool>(),
        codec_pick in 0usize..4,
        root_seed in 0u64..1000,
    ) {
        let kind = if directed { GraphKind::Directed } else { GraphKind::Undirected };
        let codec = Codec::CODED[codec_pick];
        let el = generate_rmat(&RmatParams::kron(7, 4).with_seed(seed).with_kind(kind)).unwrap();
        let store = TileStore::build(
            &el,
            &ConversionOptions::new(tile_bits).with_group_side(q),
        ).unwrap();
        let tiling = *store.layout().tiling();
        let root = root_seed % el.vertex_count();
        let deg = Arc::new(CompactDegrees::from_edge_list(&el).unwrap());

        let mut results = Vec::new();
        for codec in [Codec::RawSnb, codec] {
            let mut bfs = Bfs::new(tiling, root);
            let mut wcc = Wcc::new(tiling);
            let mut kc = KCore::new(tiling, 2);
            let mut pr = PageRank::over(tiling, deg.clone(), 0.85).with_iterations(4);
            let mut batch = QueryBatch::new();
            batch.push(&mut bfs).unwrap();
            batch.push(&mut wcc).unwrap();
            batch.push(&mut kc).unwrap();
            batch.push(&mut pr).unwrap();
            let mut engine = engine_for(&store, codec);
            let out = engine.run_batch(&mut batch, 10_000).unwrap();
            prop_assert!(out.all_converged());
            prop_assert_eq!(engine.buffer_pool_stats().outstanding, 0);
            drop(batch);
            results.push((bfs.depths(), wcc.labels(), kc.membership(), pr.ranks().to_vec()));
        }
        let (raw, coded) = (&results[0], &results[1]);
        prop_assert_eq!(&coded.0, &raw.0);
        prop_assert_eq!(&coded.1, &raw.1);
        prop_assert_eq!(&coded.2, &raw.2);
        for (c, r) in coded.3.iter().zip(&raw.3) {
            prop_assert!((c - r).abs() < 1e-9, "{}: rank {} vs {}", codec.name(), c, r);
        }
    }
}
