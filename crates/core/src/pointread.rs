//! OLTP-style point reads over the tile grid.
//!
//! The sweep pipeline answers "run this algorithm over every edge"; this
//! module answers "what are the neighbors of vertex `v`" without touching
//! the rest of the grid. The always-resident start-edge index locates the
//! tiles of a vertex's grid row (plus its column above the diagonal for
//! symmetric stores), only those tiles are fetched through the
//! [`StorageBackend`], and [`TileView`] decodes just the rows that mention
//! `v` — GraphChi-DB's partitioned-sort double duty and FlashGraph's
//! selective page model (PAPERS.md), applied to the paper's tile format.
//!
//! Skewed request streams (the common case for graph serving) hit the same
//! few tiles over and over, so a [`PointReader`] keeps a *hot-tile cache*:
//! an SCR [`CachePool`] driven by a recency-and-frequency oracle instead of
//! the sweep planner's next-iteration hints. Tiles touched repeatedly
//! within the recent access window are `Needed`, tiles seen only once are
//! `Unknown`, and stale tiles are `NotNeeded` — so a one-shot scan of cold
//! tiles can fill spare capacity but can never displace the proven-hot
//! set (better than plain LRU, which thrashes under exactly that
//! pattern). A periodic re-analysis drains residents that have gone
//! stale, letting the cache follow a shifting hot set.
//!
//! Every public request records one `pointread` flight-recorder event
//! (tiles fetched, cache hits, storage bytes, wall latency) when a
//! recorder is attached.

use crate::view::TileView;
use gstore_graph::{GraphError, Result, VertexId};
use gstore_io::{
    AioRequest, BufferPool, BufferPoolStats, IoBackend, PooledBuf, StorageBackend, UringEngine,
};
use gstore_metrics::Recorder;
use gstore_scr::{CacheHint, CachePool, PoolStats};
use gstore_tile::{Codec, EdgeEncoding, TileIndex, SNB_EDGE_BYTES};
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Minimum size of the recency window (accesses) so tiny caches still see
/// some reuse before declaring a tile cold.
const MIN_RECENCY_WINDOW: u64 = 256;

/// Touches within the window that promote a tile from `Unknown` to
/// `Needed`: seen-twice-recently is the classic scan filter.
const HOT_TOUCHES: u32 = 2;

/// Heat-map entries beyond the window are pruned once the map grows this
/// far past the resident set, bounding memory under uniform traffic.
const HEAT_PRUNE_SLACK: usize = 4096;

/// One tile's access history: last-touch stamp and how many times it was
/// touched without ever going stale in between.
#[derive(Clone, Copy)]
struct TileHeat {
    last: u64,
    count: u32,
}

/// Accesses considered "recent": proportional to the resident set so a
/// bigger cache protects a longer history.
fn recency_window(resident: usize) -> u64 {
    (resident as u64 * 8).max(MIN_RECENCY_WINDOW)
}

/// Recency/frequency state behind the hot-tile cache: a monotone access
/// counter and per-tile [`TileHeat`]. The derived oracle classifies tiles
/// as `Needed` (repeat traffic inside the window), `Unknown` (seen once
/// recently), or `NotNeeded` (stale).
#[derive(Default)]
struct Heat {
    tiles: HashMap<u64, TileHeat>,
    seq: u64,
    /// Stamp of the last proactive [`CachePool::analyze`] pass.
    analyzed: u64,
}

impl Heat {
    /// Records one access to `tile`; `resident` is the pool's tile count.
    fn touch(&mut self, tile: u64, resident: usize) {
        self.seq += 1;
        let window = recency_window(resident);
        let seq = self.seq;
        let h = self
            .tiles
            .entry(tile)
            .or_insert(TileHeat { last: 0, count: 0 });
        // A gap longer than the window resets the streak: old popularity
        // does not shield a tile that went cold.
        h.count = if seq - h.last > window {
            1
        } else {
            h.count.saturating_add(1)
        };
        h.last = seq;
        if self.tiles.len() > resident + HEAT_PRUNE_SLACK {
            let horizon = seq.saturating_sub(window);
            self.tiles.retain(|_, h| h.last > horizon);
        }
    }

    /// Offers a fetched tile to `pool` under this history's oracle.
    fn insert(&mut self, pool: &mut CachePool, tile: u64, data: &[u8]) {
        let window = recency_window(pool.len());
        let horizon = self.seq.saturating_sub(window);
        let tiles = &self.tiles;
        let oracle = move |t: u64| match tiles.get(&t) {
            Some(h) if h.last > horizon && h.count >= HOT_TOUCHES => CacheHint::Needed,
            Some(h) if h.last > horizon => CacheHint::Unknown,
            _ => CacheHint::NotNeeded,
        };
        // Once per window, re-analyse the pool: stale residents drain and
        // a pool saturated under old hints re-opens for the current hot
        // set. Misses are the only path that inserts, so an all-hit
        // steady state pays nothing.
        if self.seq.saturating_sub(self.analyzed) >= window {
            pool.analyze(&oracle);
            self.analyzed = self.seq;
        }
        pool.insert(tile, data, &oracle);
    }
}

/// Per-request accounting, folded into one recorder event at the end.
#[derive(Default, Clone, Copy)]
struct Touch {
    tiles_fetched: u64,
    cache_hits: u64,
    bytes_read: u64,
}

/// A private io_uring ring for tile-miss fetches, gate-serialised so each
/// submit is paired with its own completion (concurrent callers on the
/// shared reader cannot steal each other's reads).
struct UringGate {
    engine: UringEngine,
    gate: Mutex<()>,
}

/// Point-read access path over a tile store: `neighbors` / `degree` /
/// `khop` / `walk` served from individual tiles instead of full sweeps.
///
/// Shareable across threads (`&self` methods); clients needing
/// concurrency wrap it in an [`Arc`]. For directed stores the adjacency
/// served is *out*-neighbors (matching [`gstore_graph::CsrDirection::Out`]);
/// undirected stores serve the full symmetric adjacency.
pub struct PointReader {
    index: TileIndex,
    backend: Arc<dyn StorageBackend>,
    buffers: BufferPool,
    /// The hot-tile cache. A hit decodes straight out of the arena under
    /// the *shared* lock, so readers of the same hot tile run in parallel;
    /// only a miss's insert (with its periodic analyze) and
    /// [`PointReader::clear_cache`] take it exclusively — nothing is ever
    /// decoded under an exclusive lock.
    pool: RwLock<CachePool>,
    /// Access history feeding the pool's oracle. Held for one map update
    /// per tile access, or across an insert by a thread that already holds
    /// `pool` exclusively. Lock order: `pool`, then `heat`.
    heat: Mutex<Heat>,
    recorder: Option<Arc<dyn Recorder>>,
    /// When present, tile misses go through this private ring instead of
    /// synchronous `read_at` calls. See [`PointReader::with_uring_io`].
    uring: Option<UringGate>,
}

impl PointReader {
    /// A reader over `index` + `backend` with a hot-tile cache of
    /// `cache_bytes` (0 disables caching; every access then fetches).
    pub fn new(index: TileIndex, backend: Arc<dyn StorageBackend>, cache_bytes: u64) -> Self {
        Self::with_recorder(index, backend, cache_bytes, None)
    }

    /// Same, reporting per-request `pointread` events to `recorder`.
    pub fn with_recorder(
        index: TileIndex,
        backend: Arc<dyn StorageBackend>,
        cache_bytes: u64,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Self {
        PointReader {
            index,
            backend,
            buffers: BufferPool::with_recorder(recorder.clone()),
            pool: RwLock::new(CachePool::new(cache_bytes)),
            heat: Mutex::new(Heat::default()),
            recorder,
            uring: None,
        }
    }

    /// Routes tile-miss fetches through `engine` — a private io_uring ring
    /// over the same store (the engine dups the fd, so this ring shares no
    /// completion state with the sweep pipeline's). Misses are serialised
    /// through the ring one at a time; cache hits are unaffected.
    pub fn with_uring_io(mut self, engine: UringEngine) -> Self {
        self.uring = Some(UringGate {
            engine,
            gate: Mutex::new(()),
        });
        self
    }

    /// Which I/O path tile misses take: `Uring` when a private ring is
    /// attached, else `Workers` (the synchronous backend-read path).
    pub fn io_backend(&self) -> IoBackend {
        match &self.uring {
            Some(_) => IoBackend::Uring,
            None => IoBackend::Workers,
        }
    }

    #[inline]
    pub fn index(&self) -> &TileIndex {
        &self.index
    }

    /// Hot-tile cache counters (inserts, rejects, evictions).
    pub fn cache_stats(&self) -> PoolStats {
        self.pool_shared().stats()
    }

    /// Tiles currently resident in the hot cache.
    pub fn cache_resident(&self) -> usize {
        self.pool_shared().len()
    }

    /// I/O buffer-pool counters; `outstanding == 0` whenever no request is
    /// mid-flight, including after a failed read. Reports the private
    /// ring's pool when one is attached (misses borrow from it).
    pub fn buffer_stats(&self) -> BufferPoolStats {
        match &self.uring {
            Some(u) => u.engine.buffer_pool().stats(),
            None => self.buffers.stats(),
        }
    }

    /// Drops every cached tile and the recency history.
    pub fn clear_cache(&self) {
        let mut pool = self.pool_exclusive();
        pool.clear();
        *self.heat() = Heat::default();
    }

    fn pool_shared(&self) -> RwLockReadGuard<'_, CachePool> {
        self.pool.read().expect("hot-tile pool lock poisoned")
    }

    fn pool_exclusive(&self) -> RwLockWriteGuard<'_, CachePool> {
        self.pool.write().expect("hot-tile pool lock poisoned")
    }

    fn heat(&self) -> MutexGuard<'_, Heat> {
        self.heat.lock().expect("tile heat lock poisoned")
    }

    fn check_vertex(&self, v: VertexId) -> Result<()> {
        let n = self.index.layout.tiling().vertex_count();
        if v >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                vertex_count: n,
            });
        }
        Ok(())
    }

    /// Applies `f` to every neighbor of `v` (with multiplicity), fetching
    /// only the tiles of `v`'s grid row/column.
    fn for_each_neighbor(
        &self,
        v: VertexId,
        touch: &mut Touch,
        f: &mut impl FnMut(VertexId),
    ) -> Result<()> {
        let layout = &self.index.layout;
        let tiling = layout.tiling();
        let p = tiling.partition_of(v);
        let tiles = if tiling.symmetric() {
            layout.touching_tile_indices(p)
        } else {
            layout.row_tile_indices(p)
        };
        for idx in tiles {
            let range = self.index.tile_byte_range(idx);
            if range.is_empty() {
                continue;
            }
            let coord = layout.coord_at(idx);
            // `v` shows up as a source local in its row tiles and (for
            // symmetric stores) as a destination local in its column tiles;
            // the diagonal tile plays both roles.
            let as_src = coord.row == p;
            let as_dst = tiling.symmetric() && coord.col == p;
            let scan = |bytes: &[u8], f: &mut dyn FnMut(VertexId)| {
                let view =
                    TileView::coded(tiling, coord, self.index.encoding, self.index.codec, bytes);
                // A column tile of a raw symmetric store. Its records are in
                // no order of destination, and sorting them by source — what
                // would turn the row side into a lookup — would leave this
                // side a scan: so the scan itself is made fast, on the
                // 16-bit locals, a block at a time.
                if as_dst
                    && !as_src
                    && !self.index.is_coded()
                    && self.index.encoding == EdgeEncoding::Snb
                {
                    let local = (v - view.dst_base) as u16;
                    scan_snb_column(bytes, local, |s| f(view.src_base + s as u64));
                    return;
                }
                // Elias-Fano streams are monotone in `(src << 16) | dst`, so
                // a pure source lookup skips straight to `v`'s key range
                // instead of decoding the whole tile.
                if self.index.codec == Codec::EliasFano && as_src && !as_dst {
                    if let Ok(mut cur) = Codec::EliasFano.cursor(bytes) {
                        let local = (v - view.src_base) as u32;
                        cur.skip_to(local << 16);
                        while let Some(k) = cur.next_key() {
                            // skip_to under-approximates (it positions by
                            // upper-half buckets), so keys below the
                            // target can still stream out first.
                            if k >> 16 < local {
                                continue;
                            }
                            if k >> 16 != local {
                                break;
                            }
                            f(view.dst_base + (k & 0xFFFF) as u64);
                        }
                        return;
                    }
                }
                view.for_each_edge(|s, d| {
                    if as_src && s == v {
                        f(d);
                    }
                    if as_dst && d == v && s != v {
                        f(s);
                    }
                });
            };
            let decode = |bytes: &[u8], f: &mut dyn FnMut(VertexId)| {
                let t0 = (self.index.is_coded() && self.recorder.is_some()).then(Instant::now);
                scan(bytes, f);
                if let (Some(t0), Some(rec)) = (t0, &self.recorder) {
                    let t = idx as usize;
                    let logical = (self.index.start_edge[t + 1] - self.index.start_edge[t])
                        * self.index.encoding.bytes_per_edge() as u64;
                    rec.codec_tiles(1, bytes.len() as u64, logical);
                    rec.codec_decode_ns(t0.elapsed().as_nanos() as u64);
                }
            };

            {
                let pool = self.pool_shared();
                self.heat().touch(idx, pool.len());
                if let Some(bytes) = pool.tile_data(idx) {
                    touch.cache_hits += 1;
                    decode(bytes, f);
                    continue;
                }
            }

            let len = (range.end - range.start) as usize;
            let buf = self.fetch_tile(idx, range.start, len)?;
            touch.tiles_fetched += 1;
            touch.bytes_read += len as u64;
            decode(buf.as_slice(), f);
            let mut pool = self.pool_exclusive();
            self.heat().insert(&mut pool, idx, buf.as_slice());
        }
        Ok(())
    }

    /// Fetches one tile's bytes into a pooled buffer: one submit/poll pair
    /// on the private ring when attached, else a synchronous backend read.
    fn fetch_tile(&self, tag: u64, offset: u64, len: usize) -> Result<PooledBuf> {
        match &self.uring {
            Some(u) => {
                let _turn = u.gate.lock().unwrap();
                u.engine.submit(vec![AioRequest { tag, offset, len }]);
                let mut done = u.engine.poll(1, 1).map_err(|e| GraphError::Io(e.into()))?;
                let c = done.pop().ok_or_else(|| {
                    GraphError::Io(io::Error::other("uring point read returned no completion"))
                })?;
                c.result.map_err(GraphError::Io)
            }
            None => {
                let mut buf = self.buffers.acquire(len);
                self.backend.read_at(offset, buf.as_mut_slice())?;
                Ok(buf)
            }
        }
    }

    fn record(&self, touch: Touch, started: Instant) {
        if let Some(rec) = &self.recorder {
            rec.pointread_lookup(
                touch.tiles_fetched,
                touch.cache_hits,
                touch.bytes_read,
                started.elapsed().as_nanos() as u64,
            );
        }
    }

    /// The neighbors of `v`, with multiplicity, in tile order (an
    /// unspecified but deterministic order; sort for set comparisons).
    pub fn neighbors(&self, v: VertexId) -> Result<Vec<VertexId>> {
        self.check_vertex(v)?;
        let started = Instant::now();
        let mut touch = Touch::default();
        let mut out = Vec::new();
        self.for_each_neighbor(v, &mut touch, &mut |u| out.push(u))?;
        self.record(touch, started);
        Ok(out)
    }

    /// The degree of `v` (out-degree for directed stores), counted without
    /// materialising the adjacency.
    pub fn degree(&self, v: VertexId) -> Result<u64> {
        self.check_vertex(v)?;
        let started = Instant::now();
        let mut touch = Touch::default();
        let mut count = 0u64;
        self.for_each_neighbor(v, &mut touch, &mut |_| count += 1)?;
        self.record(touch, started);
        Ok(count)
    }

    /// Every vertex within `k` hops of `v` (including `v` itself),
    /// ascending. BFS over the point-read path: each frontier vertex costs
    /// one row/column fetch, nothing else is read.
    pub fn khop(&self, v: VertexId, k: u32) -> Result<Vec<VertexId>> {
        self.check_vertex(v)?;
        let started = Instant::now();
        let mut touch = Touch::default();
        let mut seen: HashSet<VertexId> = HashSet::from([v]);
        let mut frontier = vec![v];
        for _ in 0..k {
            let mut next = Vec::new();
            for &u in &frontier {
                self.for_each_neighbor(u, &mut touch, &mut |w| {
                    if seen.insert(w) {
                        next.push(w);
                    }
                })?;
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        self.record(touch, started);
        let mut out: Vec<VertexId> = seen.into_iter().collect();
        out.sort_unstable();
        Ok(out)
    }

    /// A seeded uniform random walk from `v`: up to `len` steps, stopping
    /// early at a sink (a vertex with no neighbors). Returns the visited
    /// path, starting with `v`. Deterministic in `(store, v, len, seed)`.
    pub fn walk(&self, v: VertexId, len: u32, seed: u64) -> Result<Vec<VertexId>> {
        self.check_vertex(v)?;
        let started = Instant::now();
        let mut touch = Touch::default();
        let mut rng = seed;
        let mut path = Vec::with_capacity(len as usize + 1);
        path.push(v);
        let mut cur = v;
        for _ in 0..len {
            let mut nbrs = Vec::new();
            self.for_each_neighbor(cur, &mut touch, &mut |u| nbrs.push(u))?;
            if nbrs.is_empty() {
                break;
            }
            // Multiply-shift maps a 64-bit draw onto 0..len; the bias is
            // below 2^-40 for any realistic degree.
            let draw = splitmix64(&mut rng);
            let pick = ((draw as u128 * nbrs.len() as u128) >> 64) as usize;
            cur = nbrs[pick];
            path.push(cur);
        }
        self.record(touch, started);
        Ok(path)
    }
}

/// Hands `f` the source local of every raw SNB record whose destination
/// local is `dst`, in stored order. A vertex's records are a few among a
/// tile's thousands, so records are tested a block at a time without a
/// branch per record — a loop the compiler vectorises — and only a block
/// that holds a match is walked.
fn scan_snb_column(bytes: &[u8], dst: u16, mut f: impl FnMut(u16)) {
    const BLOCK: usize = 32;
    let is_match = |r: &[u8]| u16::from_le_bytes([r[2], r[3]]) == dst;
    let mut walk = |records: &[u8]| {
        for r in records.chunks_exact(SNB_EDGE_BYTES).filter(|r| is_match(r)) {
            f(u16::from_le_bytes([r[0], r[1]]));
        }
    };
    let mut blocks = bytes.chunks_exact(BLOCK * SNB_EDGE_BYTES);
    for block in &mut blocks {
        let records = block.chunks_exact(SNB_EDGE_BYTES);
        if records.fold(false, |hit, r| hit | is_match(r)) {
            walk(block);
        }
    }
    walk(blocks.remainder());
}

/// SplitMix64: the walk's step generator. Small, seedable, and decoupled
/// from the vendored `rand` shim so the walk stream is stable even if the
/// shim's generator changes.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use gstore_graph::{Csr, CsrDirection, Edge, EdgeList, GraphKind};
    use gstore_io::{FaultBackend, FaultPolicy, JitterBackend, MemBackend};
    use gstore_metrics::{Counter, EngineMetrics, FlightRecorder};
    use gstore_tile::{ConversionOptions, TileStore};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    fn reader_for(store: &TileStore, cache_bytes: u64) -> PointReader {
        let index = TileIndex::raw(
            store.layout().clone(),
            store.encoding(),
            store.start_edge().to_vec(),
        );
        let backend = Arc::new(MemBackend::new(store.data().to_vec()));
        PointReader::new(index, backend, cache_bytes)
    }

    fn sorted(mut v: Vec<VertexId>) -> Vec<VertexId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn snb_column_scan_finds_what_a_record_by_record_filter_finds() {
        // 1000 records: whole blocks and a remainder; locals drawn from a
        // small range so matches land in most blocks, some blocks hold
        // several and some none.
        let mut state = 7u64;
        let records: Vec<(u16, u16)> = (0..1000)
            .map(|_| {
                let r = splitmix64(&mut state);
                ((r % 40) as u16, ((r >> 20) % 40) as u16)
            })
            .collect();
        let bytes: Vec<u8> = records
            .iter()
            .flat_map(|&(s, d)| [s.to_le_bytes(), d.to_le_bytes()].concat())
            .collect();
        for dst in [3, 39, 999] {
            for len in [records.len(), 33, 32, 31, 0] {
                let want: Vec<u16> = records[..len]
                    .iter()
                    .filter(|&&(_, d)| d == dst)
                    .map(|&(s, _)| s)
                    .collect();
                let mut got = Vec::new();
                scan_snb_column(&bytes[..len * 4], dst, |s| got.push(s));
                assert_eq!(got, want, "dst {dst} len {len}");
            }
        }
    }

    #[test]
    fn neighbors_match_csr_on_undirected_store() {
        let el = generate_rmat(&RmatParams::kron(8, 8)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(4).with_group_side(2)).unwrap();
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        let reader = reader_for(&store, 1 << 20);
        for v in 0..el.vertex_count() {
            assert_eq!(
                sorted(reader.neighbors(v).unwrap()),
                sorted(csr.neighbors(v).to_vec()),
                "vertex {v}"
            );
            assert_eq!(reader.degree(v).unwrap(), csr.degree(v), "vertex {v}");
        }
    }

    #[test]
    fn neighbors_match_csr_on_directed_store() {
        let el = generate_rmat(&RmatParams {
            kind: GraphKind::Directed,
            ..RmatParams::kron(8, 8)
        })
        .unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(4)).unwrap();
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        let reader = reader_for(&store, 1 << 20);
        for v in 0..el.vertex_count() {
            assert_eq!(
                sorted(reader.neighbors(v).unwrap()),
                sorted(csr.neighbors(v).to_vec()),
                "vertex {v}"
            );
        }
    }

    #[test]
    fn khop_matches_reference_bfs() {
        let el = generate_rmat(&RmatParams::kron(7, 8)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(3)).unwrap();
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        let reader = reader_for(&store, 1 << 20);
        for (v, k) in [(0u64, 0u32), (0, 1), (0, 2), (5, 3)] {
            // Reference: plain BFS over the CSR to depth k.
            let mut seen: HashSet<VertexId> = HashSet::from([v]);
            let mut frontier = vec![v];
            for _ in 0..k {
                let mut next = Vec::new();
                for &u in &frontier {
                    for &w in csr.neighbors(u) {
                        if seen.insert(w) {
                            next.push(w);
                        }
                    }
                }
                frontier = next;
            }
            let mut expect: Vec<VertexId> = seen.into_iter().collect();
            expect.sort_unstable();
            assert_eq!(reader.khop(v, k).unwrap(), expect, "v={v} k={k}");
        }
    }

    #[test]
    fn walk_steps_along_real_edges_and_is_deterministic() {
        let el = generate_rmat(&RmatParams::kron(7, 8)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(3)).unwrap();
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        let reader = reader_for(&store, 1 << 20);
        let path = reader.walk(1, 20, 42).unwrap();
        assert_eq!(path[0], 1);
        for w in path.windows(2) {
            assert!(
                csr.neighbors(w[0]).contains(&w[1]),
                "walk used non-edge {} -> {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(path, reader.walk(1, 20, 42).unwrap());
    }

    #[test]
    fn walk_stops_at_sink() {
        // 0 -> 1, nothing out of 1: a directed two-vertex chain.
        let el = EdgeList::new(2, GraphKind::Directed, vec![Edge::new(0, 1)]).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(1)).unwrap();
        let reader = reader_for(&store, 0);
        assert_eq!(reader.walk(0, 10, 7).unwrap(), vec![0, 1]);
        assert_eq!(reader.walk(1, 10, 7).unwrap(), vec![1]);
    }

    #[test]
    fn out_of_range_vertex_is_typed() {
        let el = generate_rmat(&RmatParams::kron(6, 8)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(3)).unwrap();
        let reader = reader_for(&store, 0);
        let n = store.layout().tiling().vertex_count();
        for r in [
            reader.neighbors(n).map(|_| ()),
            reader.degree(n).map(|_| ()),
            reader.khop(n, 2).map(|_| ()),
            reader.walk(n, 2, 0).map(|_| ()),
        ] {
            assert!(matches!(r, Err(GraphError::VertexOutOfRange { .. })));
        }
    }

    #[test]
    fn hot_cache_serves_repeats_without_io() {
        let el = generate_rmat(&RmatParams::kron(8, 8)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(4)).unwrap();
        let index = TileIndex::raw(
            store.layout().clone(),
            store.encoding(),
            store.start_edge().to_vec(),
        );
        let backend = Arc::new(MemBackend::new(store.data().to_vec()));
        let rec = Arc::new(FlightRecorder::new());
        let reader = PointReader::with_recorder(
            index,
            backend,
            4 << 20,
            Some(Arc::clone(&rec) as Arc<dyn Recorder>),
        );
        let first = reader.neighbors(3).unwrap();
        let cold = rec.snapshot();
        let fetched = cold[Counter::PointreadTilesFetched];
        assert!(fetched > 0 && cold[Counter::PointreadCacheHits] == 0);
        assert!(cold[Counter::PointreadBytesRead] > 0);
        for _ in 0..5 {
            assert_eq!(reader.neighbors(3).unwrap(), first);
        }
        let m = rec.snapshot();
        assert_eq!(m[Counter::PointreadLookups], 6);
        // Repeats are all hits: storage fetches did not grow after the
        // first call, and every repeated tile access hit the cache.
        assert_eq!(m[Counter::PointreadTilesFetched], fetched);
        assert_eq!(
            m[Counter::PointreadBytesRead],
            cold[Counter::PointreadBytesRead]
        );
        assert_eq!(m[Counter::PointreadCacheHits], 5 * fetched);
        assert!(m.value("pointread.cache_hit_rate").unwrap() > 0.5);
        assert_eq!(reader.buffer_stats().outstanding, 0);
    }

    #[test]
    fn zipf_stream_stays_resident_and_reads_far_less_than_a_sweep() {
        // One client on a cold reader whose cache holds half the store.
        // Under Zipf(1.0) keys over the vertex ids (rank = id, so the
        // hottest keys are Kronecker hubs) the hot tiles stay resident and
        // a request's storage traffic is a rounding error next to the
        // sweep a scan engine would pay; even uniform keys, which keep
        // missing, read a small fraction of it.
        let el = generate_rmat(&RmatParams::kron(14, 8)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(9).with_group_side(8)).unwrap();
        let sweep = store.data_bytes() as f64;
        let stream = |keys: &[VertexId]| {
            let index = TileIndex::raw(
                store.layout().clone(),
                store.encoding(),
                store.start_edge().to_vec(),
            );
            let rec = Arc::new(FlightRecorder::new());
            let reader = PointReader::with_recorder(
                index,
                Arc::new(MemBackend::new(store.data().to_vec())),
                store.data_bytes() / 2,
                Some(Arc::clone(&rec) as Arc<dyn Recorder>),
            );
            for &v in keys {
                reader.neighbors(v).unwrap();
            }
            let m = rec.snapshot();
            assert_eq!(m[Counter::PointreadLookups] as usize, keys.len());
            m
        };
        let per_lookup = |m: &EngineMetrics| {
            m[Counter::PointreadBytesRead] as f64 / m[Counter::PointreadLookups] as f64
        };
        let n = el.vertex_count();
        let mut state = 0x9d2c_5681u64;
        let mut unit = || (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;

        // Inverse-CDF Zipf sampler over ranks 0..n.
        let mut cdf: Vec<f64> = (1..=n).map(|rank| 1.0 / rank as f64).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for c in &mut cdf {
            acc += *c / total;
            *c = acc;
        }
        let zipf: Vec<VertexId> = (0..2048)
            .map(|_| {
                let u = unit();
                (cdf.partition_point(|&c| c < u) as u64).min(n - 1)
            })
            .collect();
        let m = stream(&zipf);
        let hit_rate = m.value("pointread.cache_hit_rate").unwrap();
        assert!(hit_rate > 0.5, "hit rate {hit_rate:.3}");
        assert!(
            per_lookup(&m) * 20.0 < sweep,
            "zipf: {} bytes per request against a {sweep}-byte sweep",
            per_lookup(&m)
        );

        let uniform: Vec<VertexId> = (0..512)
            .map(|_| ((unit() * n as f64) as u64).min(n - 1))
            .collect();
        let m = stream(&uniform);
        assert!(
            per_lookup(&m) * 4.0 < sweep,
            "uniform: {} bytes per request against a {sweep}-byte sweep",
            per_lookup(&m)
        );
    }

    /// Counts reads and bytes on their way to the real backend.
    struct CountingBackend {
        inner: Arc<dyn StorageBackend>,
        reads: AtomicU64,
        bytes: AtomicU64,
    }

    impl StorageBackend for CountingBackend {
        fn len(&self) -> u64 {
            self.inner.len()
        }

        fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
            self.inner.read_at(offset, buf)
        }
    }

    /// Four threads on one reader whose cache holds a quarter of the
    /// store: hits (decoded under the shared pool lock), misses, inserts
    /// and evictions all interleave, with `JitterBackend` stretching every
    /// miss. Every answer must equal the CSR's and every counter must add
    /// up.
    #[test]
    fn concurrent_readers_agree_with_csr_through_hits_misses_and_evictions() {
        const THREADS: u64 = 4;
        const REQUESTS: u64 = 300;
        let el = generate_rmat(&RmatParams::kron(9, 8)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(4).with_group_side(2)).unwrap();
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        let n = el.vertex_count();
        for codec in [Codec::RawSnb, Codec::ZetaGap] {
            let (index, data) = gstore_tile::encode_store(&store, codec).unwrap();
            let cache_bytes = data.len() as u64 / 4;
            let counted = Arc::new(CountingBackend {
                inner: Arc::new(JitterBackend::new(Arc::new(MemBackend::new(data)), 20)),
                reads: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            });
            let rec = Arc::new(FlightRecorder::new());
            let reader = PointReader::with_recorder(
                index,
                Arc::clone(&counted) as Arc<dyn StorageBackend>,
                cache_bytes,
                Some(Arc::clone(&rec) as Arc<dyn Recorder>),
            );
            // Non-empty tiles one adjacency scan of `v` visits.
            let tiles_of = |v: VertexId| {
                let layout = &reader.index().layout;
                let p = layout.tiling().partition_of(v);
                layout
                    .touching_tile_indices(p)
                    .into_iter()
                    .filter(|&t| !reader.index().tile_byte_range(t).is_empty())
                    .count() as u64
            };

            let start = Barrier::new(THREADS as usize);
            let visits: u64 = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (reader, csr, start, tiles_of) = (&reader, &csr, &start, &tiles_of);
                        scope.spawn(move || {
                            let mut rng = t + 1;
                            let mut visits = 0;
                            start.wait();
                            for i in 0..REQUESTS {
                                let draw = splitmix64(&mut rng);
                                // Half the traffic on eight hot vertices — a
                                // set that moves every 75 requests, so tiles
                                // go stale and get evicted — half uniform.
                                let hot_base = i / 75 * 64;
                                let v = if i % 2 == 0 {
                                    hot_base + draw % 8
                                } else {
                                    draw % n
                                };
                                visits += tiles_of(v);
                                let want = sorted(csr.neighbors(v).to_vec());
                                match i % 3 {
                                    0 => assert_eq!(sorted(reader.neighbors(v).unwrap()), want),
                                    1 => assert_eq!(reader.degree(v).unwrap(), csr.degree(v)),
                                    _ => {
                                        let mut ball = want;
                                        ball.push(v);
                                        ball.sort_unstable();
                                        ball.dedup();
                                        assert_eq!(reader.khop(v, 1).unwrap(), ball);
                                    }
                                }
                            }
                            visits
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });

            let m = rec.snapshot();
            let (hits, fetched) = (
                m[Counter::PointreadCacheHits],
                m[Counter::PointreadTilesFetched],
            );
            let stats = reader.cache_stats();
            assert_eq!(
                m[Counter::PointreadLookups],
                THREADS * REQUESTS,
                "{codec:?}"
            );
            // Every tile visit was either a hit or a fetch, and every
            // fetch is a read the backend saw.
            assert_eq!(hits + fetched, visits, "{codec:?}");
            assert_eq!(fetched, counted.reads.load(Ordering::Relaxed));
            assert_eq!(
                m[Counter::PointreadBytesRead],
                counted.bytes.load(Ordering::Relaxed)
            );
            // All four kinds of event happened. A fetch offers its tile to
            // the pool once (two racing fetches of one tile count once).
            assert!(hits > 0 && fetched > 0, "hits {hits}, fetched {fetched}");
            assert!(stats.inserted > 0, "{stats:?}");
            assert!(
                stats.evicted_not_needed + stats.evicted_unknown > 0,
                "{stats:?}"
            );
            assert!(stats.inserted + stats.rejected <= fetched);
            assert_eq!(reader.buffer_stats().outstanding, 0);
            let pool = reader.pool_shared();
            pool.debug_validate().unwrap();
            assert!(pool.bytes() <= cache_bytes);
            assert_eq!(pool.len(), reader.cache_resident());
        }
    }

    #[test]
    fn zero_byte_cache_still_answers() {
        let el = generate_rmat(&RmatParams::kron(7, 8)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(3)).unwrap();
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        let reader = reader_for(&store, 0);
        for v in [0u64, 1, 17] {
            assert_eq!(
                sorted(reader.neighbors(v).unwrap()),
                sorted(csr.neighbors(v).to_vec())
            );
        }
        assert_eq!(reader.cache_resident(), 0);
    }

    #[test]
    fn uring_path_matches_backend_reads() {
        use gstore_io::{uring_available, FileBackend};
        if !uring_available() {
            eprintln!("io_uring unavailable; skipping");
            return;
        }
        let el = generate_rmat(&RmatParams::kron(8, 8)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(4).with_group_side(2)).unwrap();
        let dir = tempfile::tempdir().unwrap();
        let paths = gstore_tile::write_store(&store, dir.path(), "p").unwrap();
        let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&paths.tiles).unwrap());
        let index = TileIndex::raw(
            store.layout().clone(),
            store.encoding(),
            store.start_edge().to_vec(),
        );
        let ring = UringEngine::new(Arc::clone(&backend), 8).unwrap();
        let reader = PointReader::new(index, backend, 1 << 20).with_uring_io(ring);
        assert_eq!(reader.io_backend(), IoBackend::Uring);
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        for v in 0..el.vertex_count() {
            assert_eq!(
                sorted(reader.neighbors(v).unwrap()),
                sorted(csr.neighbors(v).to_vec()),
                "vertex {v}"
            );
            assert_eq!(reader.degree(v).unwrap(), csr.degree(v), "vertex {v}");
        }
        assert_eq!(reader.buffer_stats().outstanding, 0);
    }

    #[test]
    fn fault_surfaces_typed_error_and_retry_succeeds() {
        let el = generate_rmat(&RmatParams::kron(8, 8)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(4)).unwrap();
        let index = TileIndex::raw(
            store.layout().clone(),
            store.encoding(),
            store.start_edge().to_vec(),
        );
        let backend = Arc::new(FaultBackend::new(
            Arc::new(MemBackend::new(store.data().to_vec())),
            FaultPolicy::FirstN(1),
        ));
        let reader = PointReader::new(index, backend.clone(), 1 << 20);
        let err = reader.neighbors(2).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "got {err:?}");
        assert_eq!(backend.injected(), 1);
        // The failed request leaked nothing: every pooled buffer returned.
        assert_eq!(reader.buffer_stats().outstanding, 0);
        // Retry reads clean.
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        assert_eq!(
            sorted(reader.neighbors(2).unwrap()),
            sorted(csr.neighbors(2).to_vec())
        );
        assert_eq!(reader.buffer_stats().outstanding, 0);
    }
}
