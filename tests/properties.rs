//! Property-based tests over the core invariants of the storage format
//! and the engine, on arbitrary generated graphs.

use gstore::graph::{reference, CompactDegrees};
use gstore::prelude::*;
use gstore::scr::{CacheHint, CachePool};
use gstore::tile::Codec;
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a small arbitrary graph (vertex count, kind, edges).
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2u64..200, any::<bool>()).prop_flat_map(|(n, directed)| {
        let kind = if directed {
            GraphKind::Directed
        } else {
            GraphKind::Undirected
        };
        proptest::collection::vec((0..n, 0..n), 0..400).prop_map(move |pairs| {
            let edges = pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect();
            EdgeList::new(n, kind, edges).unwrap()
        })
    })
}

fn canonical_multiset(el: &EdgeList) -> Vec<Edge> {
    let mut v: Vec<Edge> = if el.kind().is_directed() {
        el.edges().to_vec()
    } else {
        el.edges().iter().map(|e| e.canonical()).collect()
    };
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tile conversion preserves the (canonicalised) edge multiset for
    /// every tile size, grouping, and encoding.
    #[test]
    fn conversion_preserves_edges(
        el in arb_graph(),
        tile_bits in 1u32..9,
        q in 1u32..6,
        enc_sel in 0u8..3,
    ) {
        let enc = match enc_sel {
            0 => EdgeEncoding::Snb,
            1 => EdgeEncoding::Tuple8,
            _ => EdgeEncoding::Tuple16,
        };
        let opts = ConversionOptions::new(tile_bits).with_group_side(q).with_encoding(enc);
        let store = TileStore::build(&el, &opts).unwrap();
        let mut got = store.to_edges();
        got.sort_unstable();
        prop_assert_eq!(got, canonical_multiset(&el));
    }

    /// Persisting and reopening a store is lossless.
    #[test]
    fn file_roundtrip_lossless(el in arb_graph(), tile_bits in 1u32..8) {
        let dir = tempfile::tempdir().unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(tile_bits)).unwrap();
        let paths = gstore::tile::write_store(&store, dir.path(), "p").unwrap();
        let back = gstore::tile::TileFile::open(&paths).unwrap().load_all().unwrap();
        prop_assert_eq!(back.data(), store.data());
        prop_assert_eq!(back.start_edge(), store.start_edge());
    }

    /// The converter reading an edge file produces byte-identical
    /// `.tiles`/`.start` pairs (and the same degree array) as reading the
    /// resident edge list, for every layout, encoding, kind, tuple
    /// width, and chunk size. Every worker shares one chunk, so the sizes
    /// around the worker count (fewer edges than workers, one more) and
    /// around the edge count (one chunk exactly, one plus a one-edge tail)
    /// are pinned next to the arbitrary ones.
    #[test]
    fn streaming_conversion_is_byte_identical(
        el in arb_graph(),
        tile_bits in 1u32..9,
        q in 1u32..6,
        enc_sel in 0u8..3,
        wide in any::<bool>(),
        no_sym in any::<bool>(),
        chunk in 1usize..97,
        chunk_sel in 0u8..12,
    ) {
        let workers = rayon::current_num_threads();
        let edges = el.edge_count() as usize;
        let chunk = match chunk_sel {
            0 => 1,
            1 => 2,
            2 => workers.saturating_sub(1).max(1),
            3 => workers + 1,
            4 => edges.max(1),
            5 => edges.saturating_sub(1).max(1),
            _ => chunk,
        };
        let enc = match enc_sel {
            0 => EdgeEncoding::Snb,
            1 => EdgeEncoding::Tuple8,
            _ => EdgeEncoding::Tuple16,
        };
        let mut copts = ConversionOptions::new(tile_bits).with_group_side(q).with_encoding(enc);
        if no_sym {
            copts = copts.without_symmetry();
        }
        let dir = tempfile::tempdir().unwrap();
        let edge_path = dir.path().join("g.el");
        let width = if wide { TupleWidth::U64 } else { TupleWidth::U32 };
        el.write_binary(&edge_path, width).unwrap();

        let mem_dir = dir.path().join("mem");
        std::fs::create_dir_all(&mem_dir).unwrap();
        let store = gstore::tile::convert(&el, &copts).unwrap();
        let mem_paths = gstore::tile::write_store(&store, &mem_dir, "g").unwrap();

        let sopts = StreamingOptions::new(copts).with_chunk_edges(chunk);
        let report = convert_streaming(&edge_path, &dir.path().join("st"), "g", &sopts).unwrap();

        prop_assert_eq!(
            std::fs::read(&report.paths.tiles).unwrap(),
            std::fs::read(&mem_paths.tiles).unwrap()
        );
        prop_assert_eq!(
            std::fs::read(&report.paths.start).unwrap(),
            std::fs::read(&mem_paths.start).unwrap()
        );
        // The `.deg` as well: the same bytes, and the edge list's degrees.
        prop_assert_eq!(
            std::fs::read(&report.paths.deg).unwrap(),
            std::fs::read(&mem_paths.deg).unwrap()
        );
        let index = gstore::tile::TileIndex::read(&report.paths.start).unwrap();
        prop_assert_eq!(&**index.degrees(), &CompactDegrees::from_edge_list(&el).unwrap());
    }

    /// Engine BFS equals reference BFS on arbitrary graphs and roots.
    #[test]
    fn engine_bfs_matches_reference(el in arb_graph(), root_seed in 0u64..1000) {
        let root = root_seed % el.vertex_count();
        let store = TileStore::build(&el, &ConversionOptions::new(3).with_group_side(2)).unwrap();
        let seg = (store.data_bytes() / 3).max(64);
        let mut engine = GStoreEngine::builder()
            .store(&store)
            .scr(ScrConfig::new(seg, seg * 3).unwrap())
            .build()
            .unwrap();
        let mut bfs = Bfs::new(*store.layout().tiling(), root);
        engine.run(&mut bfs, 10_000).unwrap();
        prop_assert_eq!(bfs.depths(), reference::bfs_levels(&reference::bfs_csr(&el), root));
    }

    /// Engine WCC equals union-find on arbitrary graphs.
    #[test]
    fn engine_wcc_matches_union_find(el in arb_graph()) {
        let store = TileStore::build(&el, &ConversionOptions::new(4)).unwrap();
        let seg = (store.data_bytes() / 3).max(64);
        let mut engine = GStoreEngine::builder()
            .store(&store)
            .scr(ScrConfig::new(seg, seg * 3).unwrap())
            .build()
            .unwrap();
        let mut wcc = Wcc::new(*store.layout().tiling());
        engine.run(&mut wcc, 10_000).unwrap();
        prop_assert_eq!(wcc.labels(), reference::wcc_labels(&el));
    }

    /// PageRank mass is conserved (sums to 1) for any graph.
    #[test]
    fn engine_pagerank_conserves_mass(el in arb_graph()) {
        let store = TileStore::build(&el, &ConversionOptions::new(4)).unwrap();
        let seg = (store.data_bytes() / 2).max(64);
        let mut engine = GStoreEngine::builder()
            .store(&store)
            .scr(ScrConfig::new(seg, seg * 3).unwrap())
            .build()
            .unwrap();
        let deg = Arc::new(gstore::graph::CompactDegrees::from_edge_list(&el).unwrap());
        let mut pr = PageRank::over(*store.layout().tiling(), deg, 0.85).with_iterations(5);
        engine.run(&mut pr, 5).unwrap();
        let sum: f64 = pr.ranks().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum = {}", sum);
    }

    /// The varint tile codec round-trips the sorted edge multiset.
    #[test]
    fn compression_roundtrip(
        edges in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..300)
    ) {
        let mut raw = Vec::with_capacity(edges.len() * 4);
        for (s, d) in &edges {
            raw.extend_from_slice(&s.to_le_bytes());
            raw.extend_from_slice(&d.to_le_bytes());
        }
        let coded = Codec::DeltaVarint.encode_tile(&raw).unwrap();
        let back = Codec::DeltaVarint.decode_tile(&coded).unwrap();
        let mut want: Vec<u32> = edges.iter().map(|(s, d)| (*s as u32) << 16 | *d as u32).collect();
        want.sort_unstable();
        let got: Vec<u32> = back
            .chunks_exact(4)
            .map(|c| {
                (u16::from_le_bytes([c[0], c[1]]) as u32) << 16
                    | u16::from_le_bytes([c[2], c[3]]) as u32
            })
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Every bit-level tile codec round-trips the edge multiset, and its
    /// cursor streams exactly the sorted keys of the tile.
    #[test]
    fn codec_roundtrip_is_lossless(
        edges in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..300)
    ) {
        use gstore::tile::Codec;
        let mut raw = Vec::with_capacity(edges.len() * 4);
        for (s, d) in &edges {
            raw.extend_from_slice(&s.to_le_bytes());
            raw.extend_from_slice(&d.to_le_bytes());
        }
        let mut want: Vec<u32> =
            edges.iter().map(|(s, d)| (*s as u32) << 16 | *d as u32).collect();
        want.sort_unstable();
        let key_of = |c: &[u8]| {
            (u16::from_le_bytes([c[0], c[1]]) as u32) << 16
                | u16::from_le_bytes([c[2], c[3]]) as u32
        };
        for codec in Codec::ALL {
            let coded = codec.encode_tile(&raw).unwrap();
            prop_assert_eq!(
                codec.edge_count(&coded).unwrap(),
                edges.len() as u64,
                "{}",
                codec.name()
            );
            // Block decode restores the multiset (sorted for coded
            // streams, original order for raw).
            let mut got: Vec<u32> =
                codec.decode_tile(&coded).unwrap().chunks_exact(4).map(key_of).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "{} decode_tile", codec.name());
            // The streaming cursor agrees key for key.
            let mut cur = codec.cursor(&coded).unwrap();
            prop_assert_eq!(cur.remaining(), want.len() as u64);
            let mut streamed = Vec::with_capacity(want.len());
            while let Some(k) = cur.next_key() {
                streamed.push(k);
            }
            streamed.sort_unstable();
            prop_assert_eq!(&streamed, &want, "{} cursor", codec.name());
        }
    }

    /// The cache pool never exceeds capacity, never loses a Needed tile to
    /// make room for an Unknown one, and stays consistent.
    #[test]
    fn pool_invariants(
        ops in proptest::collection::vec((0u64..50, 1usize..64, 0u8..3), 1..200),
        capacity in 64u64..512,
    ) {
        let mut pool = CachePool::new(capacity);
        let hint_of = |h: u8| match h {
            0 => CacheHint::NotNeeded,
            1 => CacheHint::Unknown,
            _ => CacheHint::Needed,
        };
        for (tile, size, hint) in ops {
            let h = hint_of(hint);
            let oracle = move |_: u64| h;
            pool.insert(tile, &vec![0u8; size], &oracle);
            prop_assert!(pool.bytes() <= capacity);
            // Internal consistency: resident set matches byte accounting.
            let resident = pool.resident();
            prop_assert_eq!(resident.len(), pool.len());
            for t in resident {
                prop_assert!(pool.contains(t));
                prop_assert!(pool.tile_data(t).is_some());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SCR planner partitions the needed tiles exactly: every tile
    /// appears once, in order, either in the rewind set or in a segment,
    /// and no segment exceeds the budget (except a single oversized tile).
    #[test]
    fn planner_partitions_exactly(
        sizes in proptest::collection::vec(0u64..5000, 1..120),
        cached_mask in proptest::collection::vec(any::<bool>(), 120),
        segment in 1024u64..8192,
    ) {
        use gstore::scr::{plan, CacheHint, CachePool, ScrConfig};
        let config = ScrConfig::new(segment, segment * 4).unwrap();
        let mut pool = CachePool::new(u64::MAX);
        let needed: Vec<u64> = (0..sizes.len() as u64).collect();
        for (&t, &cached) in needed.iter().zip(&cached_mask) {
            if cached {
                pool.insert(t, &vec![0u8; sizes[t as usize] as usize], &|_: u64| {
                    CacheHint::Needed
                });
            }
        }
        let p = plan(&config, &needed, &pool, |t| sizes[t as usize]);
        // Exact partition.
        let mut all: Vec<u64> = p.rewind.clone();
        all.extend(p.segments.iter().flatten());
        all.sort_unstable();
        prop_assert_eq!(all, needed.clone());
        // Rewind tiles are exactly the cached ones.
        for t in &p.rewind {
            prop_assert!(pool.contains(*t));
        }
        // Segment budgets.
        for seg in &p.segments {
            let bytes: u64 = seg.iter().map(|&t| sizes[t as usize]).sum();
            prop_assert!(
                bytes <= segment || seg.len() == 1,
                "segment of {} bytes with {} tiles",
                bytes,
                seg.len()
            );
        }
    }

    /// The AIO engine returns every submitted request exactly once with
    /// correct data, for arbitrary interleavings of submit and poll.
    #[test]
    fn aio_exactly_once(
        ops in proptest::collection::vec((0u64..4000, 1usize..128), 1..60),
        workers in 1usize..5,
    ) {
        use gstore::io::{AioEngine, AioRequest, IoEngine, MemBackend};
        let data: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        let engine = AioEngine::new(Arc::new(MemBackend::new(data.clone())), workers, 32);
        let mut seen = std::collections::HashMap::new();
        for (i, &(offset, len)) in ops.iter().enumerate() {
            engine.submit(vec![AioRequest { tag: i as u64, offset, len }]);
            if i % 3 == 0 {
                for c in engine.poll(0, 8).expect("workers alive") {
                    seen.insert(c.tag, c.result);
                }
            }
        }
        for c in engine.drain().expect("workers alive") {
            prop_assert!(seen.insert(c.tag, c.result).is_none(), "duplicate tag");
        }
        prop_assert_eq!(seen.len(), ops.len());
        for (i, &(offset, len)) in ops.iter().enumerate() {
            let r = &seen[&(i as u64)];
            if offset as usize + len <= data.len() {
                prop_assert_eq!(
                    r.as_ref().unwrap().as_slice(),
                    &data[offset as usize..offset as usize + len]
                );
            } else {
                prop_assert!(r.is_err());
            }
        }
    }

    /// The buffer pool upholds its invariants for arbitrary interleavings
    /// of acquires, writes and releases: live handles never alias, windows
    /// stay inside sector-aligned capacity, size classes actually reuse
    /// memory, and every buffer is returned once all handles drop.
    #[test]
    fn buffer_pool_invariants(
        ops in proptest::collection::vec((1usize..20_000, any::<bool>()), 1..120),
    ) {
        use gstore::io::{BufferPool, PooledBuf, SECTOR};
        let pool = BufferPool::new();
        let mut held: Vec<PooledBuf> = Vec::new();
        for (len, release) in ops {
            let mut b = pool.acquire(len);
            prop_assert_eq!(b.len(), len);
            prop_assert!(b.capacity() >= len);
            prop_assert_eq!(b.capacity() % SECTOR as usize, 0);
            prop_assert_eq!(b.as_slice().as_ptr() as usize % SECTOR as usize, 0);
            // The handle is writable over its whole window.
            b.as_mut_slice().fill(0xAB);
            held.push(b);
            // No two live handles overlap in memory.
            let spans: Vec<(usize, usize)> = held
                .iter()
                .map(|h| {
                    let p = h.as_slice().as_ptr() as usize;
                    (p, p + h.len())
                })
                .collect();
            for (i, &(lo_a, hi_a)) in spans.iter().enumerate() {
                for &(lo_b, hi_b) in &spans[..i] {
                    prop_assert!(
                        hi_a <= lo_b || hi_b <= lo_a,
                        "live buffers alias: {lo_a}..{hi_a} vs {lo_b}..{hi_b}"
                    );
                }
            }
            if release && !held.is_empty() {
                held.swap_remove(0);
            }
            let s = pool.stats();
            prop_assert_eq!(s.outstanding as usize, held.len());
            prop_assert_eq!(s.hits + s.misses, s.acquires);
        }
        // Dropping every handle returns every buffer to the pool.
        held.clear();
        let s = pool.stats();
        prop_assert_eq!(s.outstanding, 0);
        prop_assert_eq!(s.recycled + s.trimmed, s.acquires);
        // Same-class reacquire after release reuses pooled memory.
        drop(pool.acquire(4096));
        let before = pool.stats().hits;
        drop(pool.acquire(4096));
        prop_assert!(pool.stats().hits > before, "size class failed to reuse");
    }

    /// The SSD array simulator conserves bytes and balances striped load.
    #[test]
    fn sim_conserves_bytes(
        reads in proptest::collection::vec((0u64..(1 << 20) - 4096, 1usize..4096), 1..50),
        devices in 1usize..9,
    ) {
        use gstore::io::{ArrayConfig, MemBackend, SsdArraySim, StorageBackend};
        let sim = SsdArraySim::new(
            Arc::new(MemBackend::new(vec![0u8; 1 << 20])),
            ArrayConfig::new(devices),
        );
        let mut total = 0u64;
        let mut buf = vec![0u8; 4096];
        for &(off, len) in &reads {
            sim.read_at(off, &mut buf[..len]).unwrap();
            total += len as u64;
        }
        let stats = sim.stats();
        prop_assert_eq!(stats.total_bytes, total);
        prop_assert_eq!(stats.device_bytes.len(), devices);
        prop_assert_eq!(stats.device_bytes.iter().sum::<u64>(), total);
        prop_assert!(stats.elapsed > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SNB encoding round-trips every edge for arbitrary tiling shapes:
    /// any vertex count, any tile size, directed or undirected (folded)
    /// grids — both at the edge level and through the byte serialisation.
    #[test]
    fn snb_roundtrip_across_tiling_shapes(
        n in 2u64..10_000,
        tile_bits in 1u32..14,
        directed in any::<bool>(),
        pairs in proptest::collection::vec((0u64..10_000, 0u64..10_000), 0..200),
    ) {
        use gstore::tile::snb;
        let kind = if directed { GraphKind::Directed } else { GraphKind::Undirected };
        let tiling = gstore::tile::Tiling::new(n, tile_bits, kind).unwrap();
        let mut bytes = Vec::new();
        let mut folded_edges = Vec::new();
        for (s, d) in pairs {
            let e = Edge::new(s % n, d % n);
            // tile_of_edge folds symmetric (undirected) edges into the
            // upper triangle; the folded edge is what a tile stores.
            let (coord, folded) = tiling.tile_of_edge(e);
            let enc = snb::encode(&tiling, coord, folded);
            prop_assert_eq!(snb::decode(&tiling, coord, enc), folded);
            // Byte form round-trips too.
            prop_assert_eq!(snb::SnbEdge::from_bytes(enc.to_bytes()), enc);
            snb::push_bytes(&mut bytes, enc);
            folded_edges.push((coord, folded));
        }
        // A whole tile buffer of SNB bytes decodes back in order.
        prop_assert_eq!(snb::edge_count(&bytes), folded_edges.len() as u64);
        for (enc, &(coord, folded)) in
            snb::edges_in(&bytes).unwrap().zip(&folded_edges)
        {
            prop_assert_eq!(snb::decode(&tiling, coord, enc), folded);
        }
        // Truncated buffers are rejected, not mis-decoded.
        if !bytes.is_empty() {
            prop_assert!(snb::edges_in(&bytes[..bytes.len() - 1]).is_err());
        }
    }

    /// The cache pool's arena stays structurally sound under arbitrary
    /// interleavings of insert, analyze (evict + compact) and take_all:
    /// entries tile the arena contiguously, `bytes() <= capacity()`, and
    /// the index matches the entries (checked by `debug_validate`).
    #[test]
    fn pool_arena_invariants_under_churn(
        ops in proptest::collection::vec(
            (0u8..10, 0u64..40, 1usize..96, 0u8..3),
            1..250,
        ),
        capacity in 64u64..768,
    ) {
        let mut pool = CachePool::new(capacity);
        let hint_of = |h: u8| match h {
            0 => CacheHint::NotNeeded,
            1 => CacheHint::Unknown,
            _ => CacheHint::Needed,
        };
        for (op, tile, size, hint) in ops {
            let h = hint_of(hint);
            let oracle = move |t: u64| {
                if t.is_multiple_of(3) {
                    CacheHint::NotNeeded
                } else {
                    h
                }
            };
            match op {
                // Mostly inserts; distinct payload bytes per tile so
                // compaction corruption would be visible.
                0..=7 => {
                    pool.insert(tile, &vec![tile as u8; size], &oracle);
                }
                8 => pool.analyze(&oracle),
                _ => {
                    pool.take_all();
                }
            }
            if let Err(why) = pool.debug_validate() {
                prop_assert!(false, "invariant broken after op {}: {}", op, why);
            }
            prop_assert!(pool.bytes() <= pool.capacity());
            // Surviving tiles keep their own bytes through compaction.
            for t in pool.resident() {
                let data = pool.tile_data(t).unwrap();
                prop_assert!(data.iter().all(|&b| b == t as u8));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The column-sharded compute path — the one apply path — gives the
    /// reference answers: for every store shape (tile_bits × group side ×
    /// orientation) on skewed R-MAT graphs, and with AIO completions
    /// arriving in jittered order, BFS depths, WCC labels and k-core
    /// membership equal the CSR references bit for bit, and PageRank the
    /// reference within FP tolerance.
    #[test]
    fn sharded_and_atomic_paths_agree(
        seed in 0u64..100,
        tile_bits in 2u32..6,
        q in 1u32..5,
        directed in any::<bool>(),
        jitter in any::<bool>(),
    ) {
        use gstore::core::algorithms::kcore::kcore_reference;
        use gstore::core::KCore;
        use gstore::graph::gen::{generate_rmat, RmatParams};
        use gstore::io::JitterBackend;

        let kind = if directed { GraphKind::Directed } else { GraphKind::Undirected };
        let el = generate_rmat(&RmatParams::kron(7, 4).with_seed(seed).with_kind(kind)).unwrap();
        let store = TileStore::build(
            &el,
            &ConversionOptions::new(tile_bits).with_group_side(q),
        ).unwrap();
        let index = store.index();
        let tiling = *store.layout().tiling();
        let seg = (store.data_bytes() / 3).max(64);
        let make_engine = || {
            let b = GStoreEngine::builder().scr(ScrConfig::new(seg, seg * 3).unwrap());
            let base = Arc::new(MemBackend::new(store.data().to_vec()));
            if jitter {
                let backend = Arc::new(JitterBackend::new(base, 300));
                b.backend(index.clone(), backend).io_workers(4).build().unwrap()
            } else {
                b.backend(index.clone(), base).build().unwrap()
            }
        };

        let mut bfs = Bfs::new(tiling, 0);
        make_engine().run(&mut bfs, 10_000).unwrap();
        prop_assert_eq!(bfs.depths(), reference::bfs_levels(&reference::bfs_csr(&el), 0));

        let mut wcc = Wcc::new(tiling);
        make_engine().run(&mut wcc, 10_000).unwrap();
        prop_assert_eq!(wcc.labels(), reference::wcc_labels(&el));

        let mut kc = KCore::new(tiling, 3);
        make_engine().run(&mut kc, 10_000).unwrap();
        prop_assert_eq!(kc.membership(), kcore_reference(&el, 3));

        let deg = Arc::new(CompactDegrees::from_edge_list(&el).unwrap());
        let mut pr = PageRank::over(tiling, deg, 0.85).with_iterations(5);
        make_engine().run(&mut pr, 5).unwrap();
        let want = reference::pagerank(&Csr::from_edge_list(&el, CsrDirection::Out), 5, 0.85);
        for (s, r) in pr.ranks().iter().zip(&want) {
            prop_assert!((s - r).abs() < 1e-9, "rank {} vs {}", s, r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A shared-scan K-query batch is observably identical to K sequential
    /// runs: for every store shape, orientation, and (jittered) AIO
    /// completion order, each query's result and iteration count come out
    /// of the batch exactly as they do from a solo `run()` — BFS depths,
    /// WCC labels, and k-core membership bitwise, PageRank to FP
    /// tolerance — and the batch's amortization counters reconcile with
    /// its per-query counters.
    #[test]
    fn batch_queries_match_sequential_runs(
        seed in 0u64..100,
        tile_bits in 2u32..6,
        q in 1u32..5,
        directed in any::<bool>(),
        jitter in any::<bool>(),
        root_seed in 0u64..1000,
    ) {
        use gstore::core::KCore;
        use gstore::graph::gen::{generate_rmat, RmatParams};
        use gstore::io::JitterBackend;

        let kind = if directed { GraphKind::Directed } else { GraphKind::Undirected };
        let el = generate_rmat(&RmatParams::kron(7, 4).with_seed(seed).with_kind(kind)).unwrap();
        let store = TileStore::build(
            &el,
            &ConversionOptions::new(tile_bits).with_group_side(q),
        ).unwrap();
        let index = store.index();
        let tiling = *store.layout().tiling();
        let root = root_seed % el.vertex_count();
        let seg = (store.data_bytes() / 3).max(64);
        let make_engine = || {
            let b = GStoreEngine::builder().scr(ScrConfig::new(seg, seg * 3).unwrap());
            let base = Arc::new(MemBackend::new(store.data().to_vec()));
            if jitter {
                let backend = Arc::new(JitterBackend::new(base, 300));
                b.backend(index.clone(), backend).io_workers(4).build().unwrap()
            } else {
                b.backend(index.clone(), base).build().unwrap()
            }
        };
        let deg = Arc::new(gstore::graph::CompactDegrees::from_edge_list(&el).unwrap());

        // Sequential arm: one engine per query.
        let mut bfs_solo = Bfs::new(tiling, root);
        make_engine().run(&mut bfs_solo, 10_000).unwrap();
        let mut wcc_solo = Wcc::new(tiling);
        make_engine().run(&mut wcc_solo, 10_000).unwrap();
        let mut kc_solo = KCore::new(tiling, 2);
        make_engine().run(&mut kc_solo, 10_000).unwrap();
        let mut pr_solo = PageRank::over(tiling, deg.clone(), 0.85).with_iterations(4);
        let pr_stats = make_engine().run(&mut pr_solo, 10_000).unwrap();

        // Batch arm: the same four queries over one shared scan.
        let mut bfs = Bfs::new(tiling, root);
        let mut wcc = Wcc::new(tiling);
        let mut kc = KCore::new(tiling, 2);
        let mut pr = PageRank::over(tiling, deg, 0.85).with_iterations(4);
        let mut batch = QueryBatch::new();
        batch.push(&mut bfs).unwrap();
        batch.push(&mut wcc).unwrap();
        batch.push(&mut kc).unwrap();
        batch.push(&mut pr).unwrap();
        let out = make_engine().run_batch(&mut batch, 10_000).unwrap();

        prop_assert!(out.all_converged());
        prop_assert_eq!(bfs.depths(), bfs_solo.depths());
        prop_assert_eq!(wcc.labels(), wcc_solo.labels());
        prop_assert_eq!(kc.membership(), kc_solo.membership());
        for (b, s) in pr.ranks().iter().zip(pr_solo.ranks()) {
            prop_assert!((b - s).abs() < 1e-9, "rank {} vs {}", b, s);
        }
        // Iteration counts are per query, not per batch. They are only
        // deterministic for fixed-horizon algorithms: WCC/k-core may reach
        // the (unique) fixed point in a scheduling-dependent number of
        // sweeps, because labels written by one shard are visible to
        // concurrently running shards within the same sweep.
        prop_assert_eq!(out.per_query[3].stats.iterations, pr_stats.iterations);
        for outcome in &out.per_query {
            prop_assert!(outcome.stats.iterations > 0);
            prop_assert!(outcome.stats.iterations <= out.sweeps);
        }
        // Counter reconciliation: what queries consumed beyond what the
        // scan fetched is exactly the amortized work.
        let sum_tiles: u64 = out.per_query.iter().map(|o| o.stats.tiles_processed).sum();
        let sum_bytes: u64 = out.per_query.iter().map(|o| o.stats.bytes_read).sum();
        prop_assert_eq!(out.tiles_shared, sum_tiles - out.aggregate.tiles_processed);
        prop_assert_eq!(out.bytes_amortized, sum_bytes - out.aggregate.bytes_read);
        prop_assert!(out.read_amortization() >= 1.0);
    }
}

#[test]
fn batch_survives_mid_run_io_error() {
    // A read failure inside a shared-scan sweep must surface as an error,
    // leave no request in flight and no pooled buffer outstanding, and the
    // same engine must run a fresh batch to the correct fixed point — on
    // both I/O engines. The worker-pool arm injects at the engine level
    // too, so both arms exercise the identical fault surface.
    use gstore::graph::gen::{generate_rmat, RmatParams};
    use gstore::graph::reference;
    use gstore::io::{uring_available, FaultPolicy, IoBackend, IoFaultInjector};

    let el = generate_rmat(&RmatParams::kron(8, 4)).unwrap();
    let store = TileStore::build(&el, &ConversionOptions::new(4).with_group_side(2)).unwrap();
    let tiling = *store.layout().tiling();
    let dir = tempfile::tempdir().unwrap();
    let paths = gstore::tile::write_store(&store, dir.path(), "b").unwrap();
    let seg = (store.data_bytes() / 4).max(256);
    for io_backend in [IoBackend::Workers, IoBackend::Uring] {
        if io_backend == IoBackend::Uring && !uring_available() {
            eprintln!("io_uring unavailable; skipping uring arm");
            continue;
        }
        let fault = IoFaultInjector::new(FaultPolicy::FirstN(1));
        let mut engine = GStoreEngine::builder()
            .paths(&paths)
            .scr(ScrConfig::new(seg, seg * 3).unwrap())
            .io_backend(io_backend)
            .io_fault(fault.clone())
            .build()
            .unwrap();

        let mut bfs = Bfs::new(tiling, 0);
        let mut wcc = Wcc::new(tiling);
        let mut batch = QueryBatch::new();
        batch.push(&mut bfs).unwrap();
        batch.push(&mut wcc).unwrap();
        let err = engine.run_batch(&mut batch, 10_000);
        assert!(
            matches!(err, Err(gstore::graph::GraphError::Io(_))),
            "{io_backend}: {err:?}"
        );
        assert_eq!(fault.injected(), 1, "{io_backend}");
        assert_eq!(
            engine.aio_in_flight(),
            0,
            "{io_backend}: failed batch left I/O in flight"
        );
        let bp = engine.buffer_pool_stats();
        assert_eq!(
            bp.outstanding, 0,
            "{io_backend}: failed batch leaked pooled buffers"
        );

        // The engine stays usable: a fresh batch reaches the reference
        // fixed point (FirstN(1) has spent its fault).
        let mut bfs2 = Bfs::new(tiling, 0);
        let mut wcc2 = Wcc::new(tiling);
        let mut batch2 = QueryBatch::new();
        batch2.push(&mut bfs2).unwrap();
        batch2.push(&mut wcc2).unwrap();
        let out = engine.run_batch(&mut batch2, 10_000).unwrap();
        assert!(out.all_converged(), "{io_backend}");
        assert_eq!(
            bfs2.depths(),
            reference::bfs_levels(&reference::bfs_csr(&el), 0),
            "{io_backend}"
        );
        assert_eq!(wcc2.labels(), reference::wcc_labels(&el), "{io_backend}");
        assert_eq!(engine.buffer_pool_stats().outstanding, 0, "{io_backend}");
    }
}

#[test]
fn selective_bfs_never_misses_frontier_tiles() {
    // Deterministic stress of the selective-I/O logic: path graphs laid
    // out to cross tile boundaries in both directions.
    for span_bits in [1u32, 2, 3] {
        let n = 64u64;
        let mut edges = Vec::new();
        for i in (0..n - 1).rev() {
            edges.push(Edge::new(i + 1, i)); // reversed path: forces column propagation
        }
        let el = EdgeList::new(n, GraphKind::Undirected, edges).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(span_bits)).unwrap();
        let seg = (store.data_bytes() / 3).max(64);
        let mut engine = GStoreEngine::builder()
            .store(&store)
            .scr(ScrConfig::new(seg, seg * 3).unwrap())
            .build()
            .unwrap();
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        engine.run(&mut bfs, 10_000).unwrap();
        let depths = bfs.depths();
        for (i, d) in depths.iter().enumerate() {
            assert_eq!(*d as usize, i, "span_bits={span_bits}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Corrupting any single byte of the on-disk store files — the
    /// start-edge index or the degree array — must yield a clean error or
    /// a still-consistent store — never a panic.
    #[test]
    fn mutated_store_files_never_panic(pos_seed in any::<u64>(), val in any::<u8>()) {
        use gstore::graph::gen::{generate_rmat, RmatParams};
        let dir = tempfile::tempdir().unwrap();
        let el = generate_rmat(&RmatParams::kron(8, 4)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(4)).unwrap();
        let paths = gstore::tile::write_store(&store, dir.path(), "m").unwrap();

        // Mutate one byte of one of the two index files.
        for file in [&paths.start, &paths.deg] {
            let good = std::fs::read(file).unwrap();
            let mut bytes = good.clone();
            let at = (pos_seed as usize) % bytes.len();
            bytes[at] ^= val | 1; // guarantee a change
            std::fs::write(file, &bytes).unwrap();
            match gstore::tile::TileFile::open(&paths) {
                Err(_) => {} // rejected: fine
                Ok(tf) => {
                    // Accepted: whatever loads must stay internally
                    // consistent, and every degree must be readable.
                    let degrees = tf.index().degrees().len();
                    prop_assert_eq!(degrees as u64, store.layout().tiling().vertex_count());
                    if let Ok(s) = tf.load_all() {
                        prop_assert_eq!(s.start_edge().len() as u64, s.tile_count() + 1);
                    }
                }
            }
            std::fs::write(file, &good).unwrap();
        }
    }

    /// Same for binary edge-list files.
    #[test]
    fn mutated_edge_list_files_never_panic(pos_seed in any::<u64>(), val in any::<u8>()) {
        let dir = tempfile::tempdir().unwrap();
        let el = EdgeList::new(
            64,
            GraphKind::Directed,
            (0..63).map(|i| Edge::new(i, i + 1)).collect(),
        )
        .unwrap();
        let path = dir.path().join("m.el");
        el.write_binary(&path, TupleWidth::U32).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = (pos_seed as usize) % bytes.len();
        bytes[at] ^= val | 1;
        std::fs::write(&path, &bytes).unwrap();
        let _ = EdgeList::read_binary(&path); // must not panic
    }

    /// And for coded stores: a flipped byte in a varint-coded `.tiles`
    /// decodes to an error or to edges, tile by tile — never a panic.
    #[test]
    fn mutated_compressed_files_never_panic(pos_seed in any::<u64>(), val in any::<u8>()) {
        use gstore::graph::gen::{generate_rmat, RmatParams};
        let dir = tempfile::tempdir().unwrap();
        let el = generate_rmat(&RmatParams::kron(7, 4)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(4)).unwrap();
        let (paths, _) =
            gstore::tile::write_coded_store(&store, dir.path(), "m", Codec::DeltaVarint).unwrap();
        let mut data = std::fs::read(&paths.tiles).unwrap();
        if !data.is_empty() {
            let at = (pos_seed as usize) % data.len();
            data[at] ^= val | 1;
            std::fs::write(&paths.tiles, &data).unwrap();
        }
        if let Ok(mut tf) = gstore::tile::TileFile::open(&paths) {
            let codec = tf.index().codec;
            for t in 0..tf.index().tile_count() {
                // Err is fine; panic is not.
                let _ = tf.read_tile(t).and_then(|coded| codec.decode_tile(&coded));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Point reads agree with a CSR built from the same edge list, for
    /// every tile geometry, encoding, orientation, cache size, and
    /// (jittered) I/O timing: `neighbors(v)` is the same multiset and
    /// `degree(v)` the same count for every vertex.
    #[test]
    fn point_reads_match_csr_reference(
        el in arb_graph(),
        tile_bits in 1u32..9,
        q in 1u32..6,
        enc_sel in 0u8..3,
        jitter in any::<bool>(),
        cache_kb in 0u64..64,
    ) {
        use gstore::io::JitterBackend;

        let enc = match enc_sel {
            0 => EdgeEncoding::Snb,
            1 => EdgeEncoding::Tuple8,
            _ => EdgeEncoding::Tuple16,
        };
        let store = TileStore::build(
            &el,
            &ConversionOptions::new(tile_bits).with_group_side(q).with_encoding(enc),
        ).unwrap();
        let index = store.index();
        let base = Arc::new(MemBackend::new(store.data().to_vec()));
        let seg = (store.data_bytes() / 3).max(64);
        let builder = GStoreEngine::builder()
            .scr(ScrConfig::new(seg, seg * 3).unwrap())
            .point_read_cache_bytes(cache_kb << 10);
        let engine = if jitter {
            builder.backend(index, Arc::new(JitterBackend::new(base, 200))).build().unwrap()
        } else {
            builder.backend(index, base).build().unwrap()
        };
        let reader = engine.point_reader();
        // The store serves out-adjacency for directed graphs and the full
        // symmetric adjacency for undirected ones — same as the CSR.
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        for v in 0..el.vertex_count() {
            let mut got = reader.neighbors(v).unwrap();
            got.sort_unstable();
            let mut want = csr.neighbors(v).to_vec();
            want.sort_unstable();
            prop_assert_eq!(&got, &want, "neighbors of {}", v);
            prop_assert_eq!(reader.degree(v).unwrap(), csr.degree(v), "degree of {}", v);
        }
        prop_assert_eq!(reader.buffer_stats().outstanding, 0);
    }
}

#[test]
fn point_reads_survive_mid_request_io_error() {
    // A read failure inside a point read must surface as the typed I/O
    // error, leave nothing in flight and no pooled buffer outstanding,
    // and the same reader must answer the retried request correctly — on
    // both I/O engines (point misses are synchronous reads under either;
    // the engine's one fault injector covers them and the sweeps alike).
    use gstore::graph::gen::{generate_rmat, RmatParams};
    use gstore::io::{uring_available, FaultPolicy, IoBackend, IoFaultInjector};

    let el = generate_rmat(&RmatParams::kron(8, 4)).unwrap();
    let store = TileStore::build(&el, &ConversionOptions::new(4).with_group_side(2)).unwrap();
    let dir = tempfile::tempdir().unwrap();
    let paths = gstore::tile::write_store(&store, dir.path(), "p").unwrap();
    let seg = (store.data_bytes() / 4).max(256);
    let csr = Csr::from_edge_list(&el, CsrDirection::Out);
    for io_backend in [IoBackend::Workers, IoBackend::Uring] {
        if io_backend == IoBackend::Uring && !uring_available() {
            eprintln!("io_uring unavailable; skipping uring arm");
            continue;
        }
        let fault = IoFaultInjector::new(FaultPolicy::FirstN(1));
        let engine = GStoreEngine::builder()
            .paths(&paths)
            .scr(ScrConfig::new(seg, seg * 3).unwrap())
            .point_read_cache_bytes(1 << 20)
            .io_backend(io_backend)
            .io_fault(fault.clone())
            .build()
            .unwrap();
        let reader = engine.point_reader();

        let err = reader.neighbors(0).unwrap_err();
        assert!(
            matches!(err, gstore::graph::GraphError::Io(_)),
            "{io_backend}: {err:?}"
        );
        assert_eq!(fault.injected(), 1, "{io_backend}");
        assert_eq!(
            engine.aio_in_flight(),
            0,
            "{io_backend}: failed point read left I/O in flight"
        );
        assert_eq!(
            reader.buffer_stats().outstanding,
            0,
            "{io_backend}: failed point read leaked buffers"
        );

        // The fault is spent: the request reads clean and matches the
        // reference adjacency.
        let mut got = reader.neighbors(0).unwrap();
        got.sort_unstable();
        let mut want = csr.neighbors(0).to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "{io_backend}");
        assert_eq!(reader.buffer_stats().outstanding, 0, "{io_backend}");
    }
}

/// Inputs the daemon parses from a client, or a client from the daemon:
/// a known prefix (so the arbitrary tail reaches past the first branch)
/// followed by arbitrary bytes.
fn wire_text(prefix: usize, tail: &[u8]) -> String {
    const PREFIXES: [&str; 12] = [
        "",
        "bfs:",
        "pagerank:",
        "khop:1:",
        "walk:",
        "OK ",
        "ERR ",
        "OK pagerank top=",
        "OK neighbors n=2 v=",
        "degrees max=",
        "bfs visited=3 max_depth=",
        "khop n=1 v=",
    ];
    format!(
        "{}{}",
        PREFIXES[prefix % PREFIXES.len()],
        String::from_utf8_lossy(tail)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The four parsers behind the serve protocol's trust boundary take
    /// any bytes: each gives a value or a typed error, never a panic, and
    /// never runs away with the input.
    #[test]
    fn query_spec_parse_never_panics(
        prefix in 0usize..64,
        tail in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let text = wire_text(prefix, &tail);
        match text.parse::<QuerySpec>() {
            // A spec that parses round-trips through its text form.
            Ok(spec) => prop_assert_eq!(spec.to_string().parse::<QuerySpec>().unwrap(), spec),
            Err(e) => prop_assert!(matches!(e, gstore::graph::GraphError::InvalidParameter(_))),
        }
    }

    #[test]
    fn query_value_decode_never_panics(
        prefix in 0usize..64,
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let text = wire_text(prefix, &tail);
        let text = text.strip_prefix("OK ").unwrap_or(&text);
        if let Err(e) = QueryValue::decode(text) {
            prop_assert!(matches!(e, gstore::graph::GraphError::Format(_)));
        }
    }

    #[test]
    fn reply_parse_never_panics(
        prefix in 0usize..64,
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        if let Err(e) = gstore::server::Reply::parse(&wire_text(prefix, &tail)) {
            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    /// A stream of arbitrary bytes, optionally behind a small plausible
    /// length: frames come out until a clean end or a typed error, and
    /// each frame consumes its header, so the loop ends.
    #[test]
    fn read_frame_never_panics(
        len in 0u32..80,
        framed in any::<bool>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut stream = Vec::new();
        if framed {
            stream.extend_from_slice(&len.to_le_bytes());
        }
        stream.extend_from_slice(&bytes);
        let mut r = stream.as_slice();
        let mut frames = 0;
        loop {
            match gstore::server::read_frame(&mut r) {
                Ok(Some(_)) => frames += 1,
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(matches!(
                        e.kind(),
                        std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                    ));
                    break;
                }
            }
            prop_assert!(frames <= stream.len() / 4);
        }
    }
}
