//! Out-of-core streaming conversion: edge file → `.tiles`/`.start` pair in
//! O(tile_count + chunk) memory instead of O(edges).
//!
//! The in-memory converter ([`crate::convert()`]) materialises the whole edge
//! list and the whole tile image. This module re-derives the same bytes with
//! two passes over the edge *file*, one chunk at a time. A chunk is the raw
//! tuples of [`EdgeChunks`]' read buffer — decoded on the fly, never copied
//! — and is shared by all workers: each takes a contiguous sub-range.
//!
//! - **Pass 1** counts edges per tile (sub-ranges in parallel into
//!   per-worker partial arrays, merged per chunk) and accumulates the degree
//!   array. A prefix sum over the counts yields the global start-edge index.
//! - **Pass 2** re-streams the file. Per chunk, the sub-ranges count their
//!   per-tile populations in parallel; a sequential O(touched tiles) step
//!   lays the chunk out **tile-major** in one pack buffer — tile by tile,
//!   within a tile sub-range by sub-range, which is file order — and claims
//!   the tile's contiguous final range against a rolling cursor (the
//!   `ChunkCursors` scheme of the in-memory scatter, with sub-ranges in the
//!   role of chunks); the sub-ranges then counting-sort into their pack
//!   positions in parallel. A tile's records are now adjacent both in the
//!   pack and in the file, so each touched tile is **one** positioned write
//!   per chunk, issued straight from the pack (no staging copy). One thread
//!   writes the pack out while the caller reads the next chunk into the
//!   now-idle read buffer: buffered writes to one file serialise in the
//!   kernel, so splitting them across workers buys nothing (measured: 29 ms
//!   split against 26 ms on one thread), hiding the next read behind them
//!   does. The output is byte-identical to the in-memory converter by
//!   construction, for any worker count.
//!
//! Per file tuple pass 2 holds the tuple itself (8 or 16 B) and its pack
//! records (`bytes_per_edge`, twice that when mirrors are duplicated):
//! 12 B for a U32 file and SNB. The chunk is the largest whose pack — taken
//! at the power-of-two capacity the buffer pool hands out — and raw tuples
//! together fit [`StreamingOptions::mem_budget_bytes`]: 262 144 edges
//! (1 MiB + 2 MiB) under a 4 MiB budget. The O(tile_count) arrays
//! (start-edge index, rolling cursor, two `u64` arrays per worker, the
//! chunk's run list) come on top and do not grow with the edge count, nor
//! does pass 1's degree array, O(vertices). The budget is a cap, not a
//! target: a chunk never packs more than [`MAX_PACK_BYTES`], past which a
//! larger chunk was measured to buy no time.

use std::marker::PhantomData;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use gstore_graph::{CompactDegrees, EdgeChunks, GraphKind, Result, Tuples};
use gstore_io::{
    push_run, write_runs, BatchWriterStats, BufferPool, FileWriteBackend, WritableBackend, WriteRun,
};
use gstore_metrics::Recorder;
use rayon::prelude::*;

use crate::codec::EdgeEncoding;
use crate::convert::{
    count_chunk, fold_orientations, prefix_sum, resolve_layout, write_edge, ChunkCursors,
    ConversionOptions,
};
use crate::file::{write_start_file, TilePaths};
use crate::grouping::GroupedLayout;

/// Default pass-2 working-set budget: 64 MiB.
pub const DEFAULT_MEM_BUDGET_BYTES: usize = 64 << 20;

/// Floor on edges per streamed chunk; tiny budgets degrade to this rather
/// than to pathological chunk counts.
const MIN_CHUNK_EDGES: usize = 4096;

/// Cap on the pack buffer of one chunk, whatever the budget allows; a
/// power of two. Measured on kron(18, 16) (2 cores, SNB, 2080 tiles), pass
/// 2 takes 81–86 ms with a 1 MiB pack, 69–70 with 2 MiB, 60–64 with 4 MiB
/// and 60–61 with 8 MiB: past 4 MiB a larger chunk buys no time, only
/// memory.
pub const MAX_PACK_BYTES: usize = 4 << 20;

/// Knobs for [`convert_streaming`].
#[derive(Clone)]
pub struct StreamingOptions {
    /// Layout/encoding options shared with the in-memory converter.
    pub convert: ConversionOptions,
    /// Cap on pass-2 working-set bytes: the chunk's raw tuples plus its pack
    /// buffer (see the module docs for the per-edge account). The
    /// O(tile_count) index arrays are not charged against it.
    pub mem_budget_bytes: usize,
    /// Explicit edges-per-chunk override; derived from the budget when
    /// `None`. Mainly for tests and benchmarks that sweep chunk geometry.
    pub chunk_edges: Option<usize>,
    /// Pool the pack buffer is drawn from; a private pool when `None`.
    pub pool: Option<BufferPool>,
    /// Flight recorder for the `ingest` counter group.
    pub recorder: Option<Arc<dyn Recorder>>,
}

impl StreamingOptions {
    pub fn new(convert: ConversionOptions) -> Self {
        StreamingOptions {
            convert,
            mem_budget_bytes: DEFAULT_MEM_BUDGET_BYTES,
            chunk_edges: None,
            pool: None,
            recorder: None,
        }
    }

    /// Sets the working-set budget in MiB (floored at 1 MiB).
    pub fn with_mem_budget_mb(mut self, mb: u64) -> Self {
        self.mem_budget_bytes = (mb.max(1) as usize) << 20;
        self
    }

    /// Forces a chunk size in edges (floored at 1), bypassing the budget.
    pub fn with_chunk_edges(mut self, edges: usize) -> Self {
        self.chunk_edges = Some(edges.max(1));
        self
    }

    pub fn with_pool(mut self, pool: BufferPool) -> Self {
        self.pool = Some(pool);
        self
    }

    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// What a streaming conversion produced and how it behaved.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Where the `.tiles`/`.start` pair landed.
    pub paths: TilePaths,
    pub vertex_count: u64,
    /// Stored edge count (after mirroring policy), i.e. `.tiles` records.
    pub edge_count: u64,
    pub tile_count: u64,
    /// `.tiles` size in bytes.
    pub data_bytes: u64,
    /// Edges per streamed chunk the budget resolved to.
    pub chunk_edges: usize,
    /// Chunks streamed per pass.
    pub chunks: u64,
    /// Compact degree array accumulated during pass 1; `None` when the
    /// graph has too many overflow hubs for the compact form.
    pub degrees: Option<CompactDegrees>,
    pub pass1_ns: u64,
    pub pass2_ns: u64,
    /// Pass-2 write totals: `pwrites` positioned writes (one per tile a
    /// chunk touches, fewer where neighbours merge), `flushes` chunks
    /// written out of the pack.
    pub write: BatchWriterStats,
}

/// Streams `edge_path` into `dir/name.tiles` + `dir/name.start`.
///
/// Output is byte-identical to
/// `write_store(&convert(&EdgeList::read_binary(edge_path)?, &opts.convert)?, dir, name)`
/// while holding only O(tile_count + budget) bytes.
pub fn convert_streaming(
    edge_path: &Path,
    dir: &Path,
    name: &str,
    opts: &StreamingOptions,
) -> Result<StreamingReport> {
    std::fs::create_dir_all(dir)?;
    let paths = TilePaths::new(dir, name);
    let backend = Arc::new(FileWriteBackend::create(&paths.tiles, false)?);
    convert_streaming_to(edge_path, backend, &paths, opts)
}

/// Core of [`convert_streaming`] with an injectable tile-data backend: the
/// `.start` file is written to `paths.start`, tile bytes go to `backend`
/// (which fault tests may wrap). `paths.tiles` only labels the report.
pub fn convert_streaming_to(
    edge_path: &Path,
    backend: Arc<dyn WritableBackend>,
    paths: &TilePaths,
    opts: &StreamingOptions,
) -> Result<StreamingReport> {
    let workers = rayon::current_num_threads().max(1);
    convert_sharded(edge_path, backend, paths, opts, workers)
}

/// [`convert_streaming_to`] with every chunk cut into at most `workers`
/// sub-ranges. The bytes do not depend on `workers`; tests sweep it
/// without resizing the process-wide pool.
fn convert_sharded(
    edge_path: &Path,
    backend: Arc<dyn WritableBackend>,
    paths: &TilePaths,
    opts: &StreamingOptions,
    workers: usize,
) -> Result<StreamingReport> {
    // The chunk size depends on the tuple width and the mirror policy, both
    // read from the header: open first, size the chunk after.
    let mut chunks = EdgeChunks::open(edge_path, 1)?;
    let (layout, duplicate_mirror) =
        resolve_layout(chunks.vertex_count(), chunks.kind(), &opts.convert)?;
    let bpe = opts.convert.encoding.bytes_per_edge();
    let tuple_bytes = chunks.width().edge_bytes();
    let pack_bytes_per_tuple = bpe * if duplicate_mirror { 2 } else { 1 };
    let chunk_edges = opts.chunk_edges.unwrap_or_else(|| {
        chunk_edges_for_budget(opts.mem_budget_bytes, tuple_bytes, pack_bytes_per_tuple)
    });
    chunks.set_chunk_edges(chunk_edges);
    let tile_count = layout.tile_count() as usize;
    let undirected = chunks.kind() == GraphKind::Undirected;
    let vertex_count = chunks.vertex_count();

    // Pass 1: per-tile counts + degree array, chunk by chunk. Workers hold
    // reusable partial-count arrays so the pass allocates nothing per
    // chunk; merging and re-zeroing them is O(workers * tile_count) per
    // chunk.
    let pass1 = Instant::now();
    let mut counts = vec![0u64; tile_count];
    let mut degrees = vec![0u64; vertex_count as usize];
    let partials: Vec<Mutex<Vec<u64>>> = (0..workers)
        .map(|_| Mutex::new(vec![0u64; tile_count]))
        .collect();
    let mut chunk_total = 0u64;
    while let Some(tuples) = chunks.next_chunk()? {
        chunk_total += 1;
        let parts = sub_ranges(tuples.len(), workers);
        for_each_part(&parts, |w, part| {
            let sub = tuples.slice(part);
            count_chunk(
                sub.iter(),
                duplicate_mirror,
                &layout,
                &mut lock(&partials[w]),
            );
        });
        for partial in &partials {
            for (global, p) in counts.iter_mut().zip(lock(partial).iter_mut()) {
                *global += *p;
                *p = 0;
            }
        }
        for e in tuples.iter() {
            degrees[e.src as usize] += 1;
            if undirected && !e.is_self_loop() {
                degrees[e.dst as usize] += 1;
            }
        }
        if let Some(rec) = &opts.recorder {
            let n = tuples.len() as u64;
            rec.ingest_chunk(1, n, n * tuple_bytes as u64);
        }
    }
    drop(partials);
    let (start_edge, total_edges) = prefix_sum(&counts);
    drop(counts);
    let compact = CompactDegrees::from_degrees(&degrees).ok();
    drop(degrees);
    let pass1_ns = pass1.elapsed().as_nanos() as u64;
    if let Some(rec) = &opts.recorder {
        rec.ingest_pass(1, pass1_ns);
    }

    // The index is complete before any tile byte exists; write it now so a
    // pass-2 failure leaves a header-consistent pair behind for retry.
    write_start_file(&paths.start, &layout, opts.convert.encoding, &start_edge)?;

    // Pass 2: truncate-and-rewrite the tile image at its exact final size,
    // then re-stream, one shared chunk at a time.
    let pass2 = Instant::now();
    let data_bytes = total_edges * bpe as u64;
    backend.set_len(data_bytes)?;
    chunks.rewind()?;
    let pool = match &opts.pool {
        Some(p) => p.clone(),
        None => BufferPool::with_recorder(opts.recorder.clone()),
    };
    let mut scatter = ChunkScatter {
        layout: &layout,
        encoding: opts.convert.encoding,
        duplicate_mirror,
        bpe,
        cursor: start_edge[..tile_count].to_vec(),
        workers: (0..workers)
            .map(|_| Mutex::new(ChunkCursors::new(tile_count)))
            .collect(),
        touched: Vec::new(),
        runs: Vec::new(),
        pack: pool.acquire((chunk_edges * pack_bytes_per_tuple).max(16)),
    };
    let mut write = BatchWriterStats::default();
    let mut next = chunks.next_chunk()?;
    while let Some(tuples) = next {
        if let Some(rec) = &opts.recorder {
            let n = tuples.len() as u64;
            rec.ingest_chunk(2, n, n * tuple_bytes as u64);
        }
        let (packed, runs) = scatter.pack_chunk(tuples);
        if let Some(rec) = &opts.recorder {
            rec.ingest_staging(packed.len() as u64);
        }
        // The chunk now lives in the pack alone, so the read buffer is
        // refilled while the pack is written out.
        let (written, read) = std::thread::scope(|s| {
            let writer = s.spawn(|| write_runs(&*backend, packed, runs));
            let read = chunks.next_chunk();
            (writer.join(), read)
        });
        written.expect("the pack writer panicked")?;
        next = read?;
        write.flushes += 1;
        write.pwrites += runs.len() as u64;
        write.bytes_written += packed.len() as u64;
        if let Some(rec) = &opts.recorder {
            rec.ingest_flush(packed.len() as u64, runs.len() as u64);
        }
    }
    debug_assert!(scatter
        .cursor
        .iter()
        .zip(&start_edge[1..])
        .all(|(c, s)| c == s));
    drop(scatter);
    backend.sync()?;
    let pass2_ns = pass2.elapsed().as_nanos() as u64;
    if let Some(rec) = &opts.recorder {
        rec.ingest_pass(2, pass2_ns);
    }

    Ok(StreamingReport {
        paths: paths.clone(),
        vertex_count,
        edge_count: total_edges,
        tile_count: tile_count as u64,
        data_bytes,
        chunk_edges,
        chunks: chunk_total,
        degrees: compact,
        pass1_ns,
        pass2_ns,
        write,
    })
}

/// Edges per chunk: the largest power-of-two pack, at most
/// [`MAX_PACK_BYTES`], that fits the budget together with the raw tuples
/// that fill it. The pack is sized in powers of two because that is the
/// capacity the buffer pool hands out; charging the request instead would
/// let the rounding land outside the account.
fn chunk_edges_for_budget(budget: usize, tuple_bytes: usize, pack_bytes_per_tuple: usize) -> usize {
    let mut pack = MAX_PACK_BYTES;
    loop {
        let edges = pack / pack_bytes_per_tuple;
        if edges <= MIN_CHUNK_EDGES || pack + edges * tuple_bytes <= budget {
            return edges.max(MIN_CHUNK_EDGES);
        }
        pack /= 2;
    }
}

/// Cuts `0..n` into at most `workers` contiguous, non-empty sub-ranges of
/// equal length (the last may be short).
fn sub_ranges(n: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let part = n.div_ceil(workers).max(1);
    (0..n)
        .step_by(part)
        .map(|lo| lo..(lo + part).min(n))
        .collect()
}

/// Runs `work(w, parts[w])` for every sub-range, in parallel.
fn for_each_part(
    parts: &[std::ops::Range<usize>],
    work: impl Fn(usize, std::ops::Range<usize>) + Sync,
) {
    (0..parts.len())
        .into_par_iter()
        .map(|w| work(w, parts[w].clone()))
        .collect::<Vec<()>>();
}

/// Worker `w`'s state is only ever locked by the one task that runs
/// sub-range `w`, or by the sequential step between two parallel phases.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a conversion worker panicked holding its state")
}

/// Pass-2 state, allocated once and reused for every chunk.
struct ChunkScatter<'a> {
    layout: &'a GroupedLayout,
    encoding: EdgeEncoding,
    duplicate_mirror: bool,
    bpe: usize,
    /// Rolling global cursor: next free edge slot of every tile.
    cursor: Vec<u64>,
    /// Per sub-range: its per-tile counts, and in `bases` its next pack
    /// slot per tile.
    workers: Vec<Mutex<ChunkCursors>>,
    /// Tiles the current chunk touches, ascending.
    touched: Vec<u64>,
    /// The current chunk's writes, ascending in file and pack offset.
    runs: Vec<WriteRun>,
    /// The current chunk's records, tile-major.
    pack: gstore_io::PooledBuf,
}

impl ChunkScatter<'_> {
    /// Counting-sorts one chunk into the pack, tile-major. Returns the
    /// packed bytes and the writes that land them: one per touched tile,
    /// neighbours that are also adjacent in the file merged.
    fn pack_chunk(&mut self, tuples: Tuples<'_>) -> (&[u8], &[WriteRun]) {
        let (layout, duplicate_mirror, bpe) = (self.layout, self.duplicate_mirror, self.bpe);
        let parts = sub_ranges(tuples.len(), self.workers.len());
        let workers = &self.workers[..parts.len()];

        // Phase A (parallel): per-tile population of every sub-range.
        for_each_part(&parts, |w, part| {
            lock(&workers[w]).count(tuples.slice(part).iter(), duplicate_mirror, layout);
        });

        // Sequential prefix, O(touched tiles × sub-ranges): tile by tile,
        // hand each sub-range its pack slots in sub-range order — file
        // order within the tile — and claim the tile's final range against
        // the rolling cursor. `cursor[t]` only grows and `start_edge` is
        // monotone, so the runs ascend in the file as they do in the pack.
        let mut states: Vec<_> = workers.iter().map(lock).collect();
        self.touched.clear();
        for state in &states {
            self.touched.extend_from_slice(&state.touched);
        }
        self.touched.sort_unstable();
        self.touched.dedup();
        self.runs.clear();
        let mut at = 0u64;
        for &t in &self.touched {
            let t = t as usize;
            let lo = at;
            for state in states.iter_mut() {
                state.bases[t] = at;
                at += state.counts[t];
            }
            push_run(
                &mut self.runs,
                WriteRun {
                    offset: self.cursor[t] * bpe as u64,
                    lo: lo as usize * bpe,
                    len: (at - lo) as usize * bpe,
                },
            );
            self.cursor[t] += at - lo;
        }
        drop(states);

        // Phase B (parallel): every sub-range encodes its edges into the
        // slots the prefix step gave it.
        let packed = &mut self.pack.as_mut_slice()[..at as usize * bpe];
        let slots = PackSlots::new(packed);
        let tiling = *layout.tiling();
        let span_mask = tiling.tile_span() - 1;
        let encoding = self.encoding;
        for_each_part(&parts, |w, part| {
            let mut state = lock(&workers[w]);
            let bases = &mut state.bases[..];
            for e in tuples.slice(part).iter() {
                for e in fold_orientations(e, duplicate_mirror) {
                    let (coord, folded) = tiling.tile_of_edge(e);
                    let idx = layout
                        .index_of(coord)
                        .expect("folded edge must land on a stored tile")
                        as usize;
                    let at = bases[idx] as usize * bpe;
                    bases[idx] += 1;
                    // SAFETY: the prefix step gave sub-range `w` the slots
                    // `bases[idx]..bases[idx] + counts[idx]` of tile `idx`,
                    // disjoint from every other (sub-range, tile) pair's,
                    // and this loop visits exactly `counts[idx]` edges of
                    // that tile.
                    let record = unsafe { slots.slot(at, bpe) };
                    write_edge(encoding, span_mask, record, folded);
                }
            }
        });
        (packed, &self.runs)
    }
}

/// The pack buffer as the scatter workers see it: write-only, at byte
/// ranges the prefix step made disjoint. Borrows the pack mutably for its
/// lifetime, so nothing reads it until the scatter is over.
struct PackSlots<'a> {
    ptr: *mut u8,
    len: usize,
    _pack: PhantomData<&'a mut [u8]>,
}

// SAFETY: `ptr` points into the exclusively borrowed pack; the only access
// is `slot`, whose contract keeps the slots of concurrent callers disjoint.
unsafe impl Sync for PackSlots<'_> {}

impl<'a> PackSlots<'a> {
    fn new(pack: &'a mut [u8]) -> Self {
        PackSlots {
            ptr: pack.as_mut_ptr(),
            len: pack.len(),
            _pack: PhantomData,
        }
    }

    /// The `len` bytes at `at`, to be written.
    ///
    /// # Safety
    /// No two live slots may overlap: the caller must own `at..at + len`
    /// exclusively while this `PackSlots` lives.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot(&self, at: usize, len: usize) -> &mut [u8] {
        assert!(at + len <= self.len, "pack slot out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(at), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;
    use crate::file::write_store;
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use gstore_graph::{EdgeList, TupleWidth};

    fn sample(kind: GraphKind) -> EdgeList {
        let el = generate_rmat(&RmatParams::kron(10, 8)).unwrap();
        EdgeList::new(el.vertex_count(), kind, el.into_edges()).unwrap()
    }

    fn assert_identical(el: &EdgeList, sopts: &StreamingOptions, width: TupleWidth) {
        let dir = tempfile::tempdir().unwrap();
        let edge_path = dir.path().join("g.el");
        el.write_binary(&edge_path, width).unwrap();

        let mem_dir = dir.path().join("mem");
        std::fs::create_dir_all(&mem_dir).unwrap();
        let store = convert(el, &sopts.convert).unwrap();
        let mem_paths = write_store(&store, &mem_dir, "g").unwrap();

        let stream_dir = dir.path().join("stream");
        let report = convert_streaming(&edge_path, &stream_dir, "g", sopts).unwrap();

        let mem_tiles = std::fs::read(&mem_paths.tiles).unwrap();
        let mem_start = std::fs::read(&mem_paths.start).unwrap();
        let st_tiles = std::fs::read(&report.paths.tiles).unwrap();
        let st_start = std::fs::read(&report.paths.start).unwrap();
        assert_eq!(mem_tiles, st_tiles, "tile bytes differ");
        assert_eq!(mem_start, st_start, "start-edge index differs");
        assert_eq!(report.data_bytes as usize, st_tiles.len());
        assert_eq!(
            report.edge_count,
            store.start_edge().last().copied().unwrap()
        );

        let want = CompactDegrees::from_edge_list(el).ok();
        assert_eq!(report.degrees, want, "degree array differs");
    }

    #[test]
    fn streaming_matches_in_memory_undirected() {
        let el = sample(GraphKind::Undirected);
        let opts = StreamingOptions::new(ConversionOptions::new(8).with_group_side(4));
        assert_identical(&el, &opts, TupleWidth::U32);
    }

    #[test]
    fn streaming_matches_in_memory_directed_u64() {
        let el = sample(GraphKind::Directed);
        let opts = StreamingOptions::new(ConversionOptions::new(7));
        assert_identical(&el, &opts, TupleWidth::U64);
    }

    #[test]
    fn streaming_matches_with_mirrors_and_tiny_budget() {
        let el = sample(GraphKind::Undirected);
        // 1 MiB budget forces many chunks; mirrors double pass-2 volume.
        let opts = StreamingOptions::new(
            ConversionOptions::new(8)
                .with_group_side(2)
                .without_symmetry(),
        )
        .with_mem_budget_mb(1);
        assert_identical(&el, &opts, TupleWidth::U32);
    }

    #[test]
    fn streaming_empty_graph() {
        let dir = tempfile::tempdir().unwrap();
        let el = EdgeList::new(4, GraphKind::Directed, Vec::new()).unwrap();
        let edge_path = dir.path().join("empty.el");
        el.write_binary(&edge_path, TupleWidth::U32).unwrap();
        let opts = StreamingOptions::new(ConversionOptions::new(2));
        let report = convert_streaming(&edge_path, dir.path(), "empty", &opts).unwrap();
        assert_eq!(report.edge_count, 0);
        assert_eq!(report.data_bytes, 0);
        assert_eq!(std::fs::metadata(&report.paths.tiles).unwrap().len(), 0);
        // The index must still open.
        let index = crate::file::TileIndex::read(&report.paths.start).unwrap();
        assert_eq!(index.edge_count(), 0);
    }

    #[test]
    fn pool_buffers_all_returned() {
        let el = sample(GraphKind::Undirected);
        let dir = tempfile::tempdir().unwrap();
        let edge_path = dir.path().join("g.el");
        el.write_binary(&edge_path, TupleWidth::U32).unwrap();
        let pool = BufferPool::new();
        let opts = StreamingOptions::new(ConversionOptions::new(8))
            .with_pool(pool.clone())
            .with_mem_budget_mb(1);
        convert_streaming(&edge_path, dir.path(), "g", &opts).unwrap();
        assert_eq!(pool.outstanding(), 0, "leaked pooled buffers");
    }

    #[test]
    fn budget_resolves_chunk_size() {
        // U32 tuples, SNB: 8 B raw + 4 B packed per edge. A 1 MiB pack
        // plus its 2 MiB of tuples is the largest pair inside 4 MiB.
        assert_eq!(chunk_edges_for_budget(4 << 20, 8, 4), 262_144);
        assert_eq!(chunk_edges_for_budget(3 << 20, 8, 4), 262_144);
        assert_eq!(chunk_edges_for_budget((3 << 20) - 1, 8, 4), 131_072);
        // U64 tuples with duplicated Tuple16 mirrors: 16 B + 32 B.
        assert_eq!(chunk_edges_for_budget(3 << 20, 16, 32), 65_536);
        // Tiny budgets floor at MIN_CHUNK_EDGES.
        assert_eq!(chunk_edges_for_budget(1 << 10, 16, 16), MIN_CHUNK_EDGES);
        // A big budget is a cap, not a target: the pack stops growing.
        assert!(MAX_PACK_BYTES.is_power_of_two());
        assert_eq!(chunk_edges_for_budget(1 << 30, 8, 4), MAX_PACK_BYTES / 4);
        assert_eq!(chunk_edges_for_budget(usize::MAX, 8, 4), MAX_PACK_BYTES / 4);
    }

    #[test]
    fn a_bigger_budget_does_not_grow_the_chunk_past_the_cap() {
        let el = sample(GraphKind::Undirected);
        let dir = tempfile::tempdir().unwrap();
        let edge_path = dir.path().join("g.el");
        el.write_binary(&edge_path, TupleWidth::U32).unwrap();
        let chunk_at = |mb: u64| {
            let opts = StreamingOptions::new(ConversionOptions::new(8)).with_mem_budget_mb(mb);
            convert_streaming(&edge_path, &dir.path().join(mb.to_string()), "g", &opts)
                .unwrap()
                .chunk_edges
        };
        assert_eq!(chunk_at(4), 262_144);
        assert_eq!(chunk_at(64), MAX_PACK_BYTES / 4);
        assert_eq!(chunk_at(4096), MAX_PACK_BYTES / 4);
    }

    #[test]
    fn sub_ranges_cover_the_chunk_once() {
        for n in [0usize, 1, 2, 3, 7, 8, 9, 100] {
            for workers in [1usize, 2, 3, 4, 16] {
                let parts = sub_ranges(n, workers);
                assert!(parts.len() <= workers);
                assert!(parts.iter().all(|p| !p.is_empty()));
                let covered: Vec<usize> = parts.iter().flat_map(|p| p.clone()).collect();
                assert_eq!(
                    covered,
                    (0..n).collect::<Vec<_>>(),
                    "n={n} workers={workers}"
                );
            }
        }
    }

    /// The bytes depend neither on how many sub-ranges a chunk is cut into
    /// nor on the chunk size, including chunks shorter than the worker
    /// count and sizes that do and do not divide the edge count.
    #[test]
    fn bytes_are_independent_of_worker_count_and_chunk_size() {
        let el = generate_rmat(&RmatParams::kron(8, 4)).unwrap();
        let n = el.edge_count() as usize;
        for (kind, copts, width) in [
            (
                GraphKind::Undirected,
                ConversionOptions::new(5).with_group_side(2),
                TupleWidth::U32,
            ),
            (
                GraphKind::Undirected,
                ConversionOptions::new(5)
                    .with_group_side(2)
                    .without_symmetry(),
                TupleWidth::U64,
            ),
            (
                GraphKind::Directed,
                ConversionOptions::new(6).with_encoding(crate::EdgeEncoding::Tuple16),
                TupleWidth::U32,
            ),
        ] {
            let el = EdgeList::new(el.vertex_count(), kind, el.edges().to_vec()).unwrap();
            let dir = tempfile::tempdir().unwrap();
            let edge_path = dir.path().join("g.el");
            el.write_binary(&edge_path, width).unwrap();
            let want = convert(&el, &copts).unwrap();
            for workers in [1usize, 2, 3, 4, 7] {
                for chunk in [1, 2, workers.max(2) - 1, workers + 1, 97, n / 4, n, n + 1] {
                    let opts = StreamingOptions::new(copts).with_chunk_edges(chunk);
                    let sink = Arc::new(gstore_io::MemWriteBackend::new());
                    let paths = TilePaths::new(dir.path(), "g");
                    let report =
                        convert_sharded(&edge_path, sink.clone(), &paths, &opts, workers).unwrap();
                    assert_eq!(
                        sink.snapshot(),
                        want.data(),
                        "workers={workers} chunk={chunk} {copts:?}"
                    );
                    assert_eq!(report.chunks, (n as u64).div_ceil(chunk as u64));
                    let index = crate::file::TileIndex::read(&paths.start).unwrap();
                    assert_eq!(index.start_edge, want.start_edge());
                }
            }
        }
    }

    /// Logs every positioned write, and through the recorder hook how many
    /// of them each chunk issued.
    #[derive(Default)]
    struct WriteLog {
        inner: gstore_io::MemWriteBackend,
        writes: Mutex<Vec<(u64, usize)>>,
        per_chunk: Mutex<Vec<u64>>,
    }

    impl WritableBackend for WriteLog {
        fn write_at(&self, offset: u64, buf: &[u8]) -> std::io::Result<()> {
            self.writes.lock().unwrap().push((offset, buf.len()));
            self.inner.write_at(offset, buf)
        }
        fn set_len(&self, len: u64) -> std::io::Result<()> {
            self.inner.set_len(len)
        }
        fn sync(&self) -> std::io::Result<()> {
            self.inner.sync()
        }
    }

    impl Recorder for WriteLog {
        fn ingest_flush(&self, _bytes: u64, writes: u64) {
            self.per_chunk.lock().unwrap().push(writes);
        }
    }

    /// The write shape: per chunk one write per touched tile, ascending,
    /// and never two writes that touch in the file — checked against an
    /// independent replay of the rolling cursor.
    #[test]
    fn each_touched_tile_is_one_write_per_chunk() {
        let el = sample(GraphKind::Undirected);
        let copts = ConversionOptions::new(7).with_group_side(2);
        let dir = tempfile::tempdir().unwrap();
        let edge_path = dir.path().join("g.el");
        el.write_binary(&edge_path, TupleWidth::U32).unwrap();
        let chunk = 1000usize;
        let log = Arc::new(WriteLog::default());
        let opts = StreamingOptions::new(copts)
            .with_chunk_edges(chunk)
            .with_recorder(log.clone());
        let paths = TilePaths::new(dir.path(), "g");
        let report = convert_sharded(&edge_path, log.clone(), &paths, &opts, 3).unwrap();
        assert_eq!(log.inner.snapshot(), convert(&el, &copts).unwrap().data());

        let (layout, mirror) = resolve_layout(el.vertex_count(), el.kind(), &copts).unwrap();
        let bpe = copts.encoding.bytes_per_edge() as u64;
        let mut cursor = crate::file::TileIndex::read(&paths.start)
            .unwrap()
            .start_edge;
        let writes = log.writes.lock().unwrap().clone();
        let per_chunk = log.per_chunk.lock().unwrap().clone();
        assert_eq!(per_chunk.len() as u64, report.chunks);
        assert_eq!(per_chunk.iter().sum::<u64>(), report.write.pwrites);
        assert_eq!(report.write.flushes, report.chunks);
        let mut logged = writes.iter();
        let mut touched_total = 0u64;
        for (edges, &issued) in el.edges().chunks(chunk).zip(&per_chunk) {
            let mut counts = std::collections::BTreeMap::new();
            for &e in edges {
                for e in fold_orientations(e, mirror) {
                    *counts
                        .entry(crate::convert::tile_slot(&layout, e))
                        .or_insert(0u64) += 1;
                }
            }
            touched_total += counts.len() as u64;
            let mut want: Vec<(u64, usize)> = Vec::new();
            for (&t, &c) in &counts {
                let run = (cursor[t] * bpe, (c * bpe) as usize);
                cursor[t] += c;
                match want.last_mut() {
                    Some(last) if last.0 + last.1 as u64 == run.0 => last.1 += run.1,
                    _ => want.push(run),
                }
            }
            let got: Vec<(u64, usize)> = logged.by_ref().take(issued as usize).copied().collect();
            assert_eq!(got, want);
            assert!(got.windows(2).all(|w| w[0].0 + (w[0].1 as u64) < w[1].0));
        }
        assert!(logged.next().is_none());
        assert!(report.write.pwrites <= touched_total);
        assert!(report.write.pwrites <= report.chunks * report.tile_count);
    }
}
