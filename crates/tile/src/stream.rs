//! The converter (§IV.B "Implementation", benchmarked against CSR
//! construction in Table I): edges → tile image + start-edge index in
//! O(tile_count + chunk) working memory, however many edges there are.
//!
//! It reads an edge source twice, one chunk at a time: a binary edge file
//! ([`EdgeChunks`], whose chunks are the raw tuples of its read buffer,
//! decoded on the fly) or an in-memory edge list, cut into slices. Every
//! chunk is shared by all workers, each taking a contiguous sub-range.
//!
//! - **Pass 1** counts edges per tile (sub-ranges in parallel into
//!   per-worker partial arrays, merged per chunk) and accumulates the degree
//!   array, which becomes the store's `.deg`. A prefix sum over the counts
//!   yields the global start-edge index.
//! - **Pass 2** re-reads the source. Per chunk, the sub-ranges count their
//!   per-tile populations in parallel; a sequential O(touched tiles) step
//!   lays the chunk out **tile-major** in one pack buffer — tile by tile,
//!   within a tile sub-range by sub-range, which is input order — and
//!   claims the tile's contiguous final range against a rolling cursor; the
//!   sub-ranges then counting-sort into their pack positions in parallel.
//!   Each touched tile is then **one** positioned write per chunk, straight
//!   from the pack. One writer thread, kept for the whole pass, writes each
//!   pack out while the caller reads the next chunk: buffered writes to one
//!   file serialise in the kernel, so splitting them across workers buys
//!   nothing (measured: 29 ms split against 26 ms on one thread), hiding
//!   the next read behind them does.
//!
//! [`convert_streaming`] and [`convert_edges`] write the `.deg` and `.start`
//! files between the passes, so a pass-2 failure leaves a header-consistent
//! store behind for retry, and scatter into the `.tiles` file;
//! [`crate::convert()`] scatters into a [`MemWriteBackend`] whose bytes
//! become the store. The bytes depend on neither the source, nor the
//! worker count, nor the chunk size.
//!
//! Per edge, pass 2 holds the source's copy of the chunk (a file's 8 or
//! 16 B tuple; nothing for a resident list) and its pack records
//! (`bytes_per_edge`, twice that when mirrors are duplicated). The chunk is
//! the largest whose pack — at the power-of-two capacity the buffer pool
//! hands out — and copy fit [`StreamingOptions::mem_budget_bytes`]
//! (262 144 edges of a U32 file in SNB under 4 MiB), never longer than the
//! source, and never packing more than [`MAX_PACK_BYTES`], past which a
//! larger chunk was measured to buy no time. The O(tile_count) arrays and
//! pass 1's O(vertices) degree array come on top.

use std::marker::PhantomData;
use std::ops::Range;
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Instant;

use gstore_graph::{
    CompactDegrees, Edge, EdgeChunks, EdgeList, GraphKind, GraphMeta, Result, Tuples,
};
use gstore_io::{
    push_run, write_runs, BatchWriterStats, BufferPool, FileWriteBackend, MemWriteBackend,
    WritableBackend, WriteRun,
};
use gstore_metrics::Recorder;
use rayon::prelude::*;

use crate::codec::EdgeEncoding;
use crate::convert::{fold_orientations, resolve_layout, write_edge, ConversionOptions};
use crate::deg::write_deg_file;
use crate::file::{write_start_file, TilePaths};
use crate::grouping::GroupedLayout;
use crate::store::TileStore;

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

/// Knobs for [`convert_streaming`] and [`convert_edges`].
#[derive(Clone)]
pub struct StreamingOptions {
    /// Layout and encoding of the store.
    pub convert: ConversionOptions,
    /// Cap on pass-2 working-set bytes: the source's copy of the chunk plus
    /// its pack buffer (see the module docs for the per-edge account). The
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

/// What a conversion to files produced and how it behaved.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Where the `.tiles`, `.start` and `.deg` files landed.
    pub paths: TilePaths,
    pub vertex_count: u64,
    /// Stored edge count (after mirroring policy), i.e. `.tiles` records.
    pub edge_count: u64,
    pub tile_count: u64,
    /// `.tiles` size in bytes.
    pub data_bytes: u64,
    /// Edges per chunk: what the budget allows, at most the edge count.
    pub chunk_edges: usize,
    /// Chunks read per pass.
    pub chunks: u64,
    pub pass1_ns: u64,
    pub pass2_ns: u64,
    /// Pass-2 write totals: `pwrites` positioned writes (one per tile a
    /// chunk touches, fewer where neighbours merge), `flushes` chunks
    /// written out of the pack.
    pub write: BatchWriterStats,
}

/// Streams the binary edge file `edge_path` into `dir/name.tiles`,
/// `dir/name.start` and `dir/name.deg`, holding O(tile_count + vertices +
/// budget) bytes.
pub fn convert_streaming(
    edge_path: &Path,
    dir: &Path,
    name: &str,
    opts: &StreamingOptions,
) -> Result<StreamingReport> {
    convert_into_dir(&mut EdgeChunks::open(edge_path, 1)?, dir, name, opts)
}

/// Converts a resident edge list into `dir/name.{tiles,start,deg}`: the
/// same bytes as [`convert_streaming`] on the list's binary file.
pub fn convert_edges(
    el: &EdgeList,
    dir: &Path,
    name: &str,
    opts: &StreamingOptions,
) -> Result<StreamingReport> {
    convert_into_dir(&mut EdgeSlices(el, el.edges().chunks(1)), dir, name, opts)
}

fn convert_into_dir(
    source: &mut impl EdgeSource,
    dir: &Path,
    name: &str,
    opts: &StreamingOptions,
) -> Result<StreamingReport> {
    std::fs::create_dir_all(dir)?;
    let paths = TilePaths::new(dir, name);
    let backend = FileWriteBackend::create(&paths.tiles, false)?;
    convert_source(source, &backend, &paths, opts, rayon::current_num_threads())
}

/// [`convert_streaming`] with an injectable tile-data backend: the
/// `.start` and `.deg` files are written to `paths.start` and
/// `paths.deg`, tile bytes go to `backend` (which fault tests may wrap).
/// `paths.tiles` only labels the report.
pub fn convert_streaming_to(
    edge_path: &Path,
    backend: Arc<dyn WritableBackend>,
    paths: &TilePaths,
    opts: &StreamingOptions,
) -> Result<StreamingReport> {
    let mut source = EdgeChunks::open(edge_path, 1)?;
    let workers = rayon::current_num_threads();
    convert_source(&mut source, &*backend, paths, opts, workers)
}

/// Both passes over `el` into memory, every chunk cut into at most
/// `workers` sub-ranges: the store [`crate::convert()`] returns.
pub(crate) fn convert_to_memory(
    el: &EdgeList,
    opts: &ConversionOptions,
    workers: usize,
) -> Result<TileStore> {
    let sopts = StreamingOptions::new(*opts);
    let mut source = EdgeSlices(el, el.edges().chunks(1));
    let index = count_pass(&mut source, &sopts, workers)?;
    let sink = MemWriteBackend::new();
    scatter_pass(&mut source, &index, &sink, &sopts, workers)?;
    let data = sink.into_inner();
    TileStore::from_raw_parts(
        index.layout,
        opts.encoding,
        data,
        index.start_edge,
        index.degrees,
    )
}

/// Pass 1, the `.deg` and `.start` files, pass 2, with every chunk cut into
/// at most `workers` sub-ranges. The bytes do not depend on `workers`;
/// tests sweep it without resizing the process-wide pool.
fn convert_source(
    source: &mut impl EdgeSource,
    backend: &dyn WritableBackend,
    paths: &TilePaths,
    opts: &StreamingOptions,
    workers: usize,
) -> Result<StreamingReport> {
    let encoding = opts.convert.encoding;
    let index = count_pass(source, opts, workers)?;
    // The index is complete before any tile byte exists; write it now so a
    // pass-2 failure leaves a header-consistent store behind for retry.
    write_deg_file(&paths.deg, &index.degrees)?;
    write_start_file(&paths.start, &index.layout, encoding, &index.start_edge)?;
    let (write, pass2_ns) = scatter_pass(source, &index, backend, opts, workers)?;
    let meta = source.meta();
    Ok(StreamingReport {
        paths: paths.clone(),
        vertex_count: meta.vertex_count,
        edge_count: index.total_edges,
        tile_count: index.layout.tile_count(),
        data_bytes: index.total_edges * encoding.bytes_per_edge() as u64,
        chunk_edges: index.chunk_edges,
        chunks: meta.edge_count.div_ceil(index.chunk_edges as u64),
        pass1_ns: index.pass1_ns,
        pass2_ns,
        write,
    })
}

/// Where the converter reads its edges from, one chunk at a time.
trait EdgeSource {
    type Chunk<'a>: EdgeRun
    where
        Self: 'a;
    fn meta(&self) -> GraphMeta;
    /// Bytes the source holds per edge of a chunk, charged to the budget.
    fn chunk_bytes_per_edge(&self) -> usize;
    /// Starts a pass over every edge, in chunks of `chunk_edges`.
    fn rewind(&mut self, chunk_edges: usize) -> Result<()>;
    fn next_chunk(&mut self) -> Result<Option<Self::Chunk<'_>>>;
}

/// One chunk, shared by the workers: each reads a sub-range of its edges.
trait EdgeRun: Copy + Sync {
    fn len(&self) -> usize;
    fn edges(self, range: Range<usize>) -> impl Iterator<Item = Edge>;
}

impl EdgeSource for EdgeChunks {
    type Chunk<'a> = Tuples<'a>;
    fn meta(&self) -> GraphMeta {
        let h = self.header();
        GraphMeta::new(h.vertex_count, h.edge_count, h.kind)
    }
    fn chunk_bytes_per_edge(&self) -> usize {
        self.width().edge_bytes()
    }
    fn rewind(&mut self, chunk_edges: usize) -> Result<()> {
        if chunk_edges != self.chunk_edges() {
            self.set_chunk_edges(chunk_edges);
        }
        EdgeChunks::rewind(self)
    }
    fn next_chunk(&mut self) -> Result<Option<Tuples<'_>>> {
        EdgeChunks::next_chunk(self)
    }
}

impl EdgeRun for Tuples<'_> {
    fn len(&self) -> usize {
        Tuples::len(self)
    }
    fn edges(self, range: Range<usize>) -> impl Iterator<Item = Edge> {
        self.slice(range).iter()
    }
}

/// A resident edge list as a source: the list, and what is left of the
/// current pass's slices of it (every pass starts with a rewind, so any
/// slicing does to begin with). It holds no copy of a chunk.
struct EdgeSlices<'e>(&'e EdgeList, std::slice::Chunks<'e, Edge>);

impl<'e> EdgeSource for EdgeSlices<'e> {
    type Chunk<'a>
        = &'e [Edge]
    where
        Self: 'a;
    fn meta(&self) -> GraphMeta {
        self.0.meta()
    }
    fn chunk_bytes_per_edge(&self) -> usize {
        0
    }
    fn rewind(&mut self, chunk_edges: usize) -> Result<()> {
        self.1 = self.0.edges().chunks(chunk_edges);
        Ok(())
    }
    fn next_chunk(&mut self) -> Result<Option<&'e [Edge]>> {
        Ok(self.1.next())
    }
}

impl EdgeRun for &[Edge] {
    fn len(&self) -> usize {
        <[Edge]>::len(self)
    }
    fn edges(self, range: Range<usize>) -> impl Iterator<Item = Edge> {
        self[range].iter().copied()
    }
}

/// Pass-1 output: the geometry, the index pass 2 scatters against, and
/// how the source is cut.
struct Index {
    layout: GroupedLayout,
    duplicate_mirror: bool,
    start_edge: Vec<u64>,
    /// Stored edges (more than the input's when mirrors are duplicated).
    total_edges: u64,
    chunk_edges: usize,
    degrees: CompactDegrees,
    pass1_ns: u64,
}

/// Pass 1: fixes the layout and the chunk size, then counts edges per tile
/// into the start-edge index and accumulates the degree array.
fn count_pass(
    source: &mut impl EdgeSource,
    opts: &StreamingOptions,
    workers: usize,
) -> Result<Index> {
    let meta = source.meta();
    let (layout, duplicate_mirror) = resolve_layout(meta.vertex_count, meta.kind, &opts.convert)?;
    let chunk_bytes = source.chunk_bytes_per_edge();
    let pack_bytes = pack_bytes_per_edge(opts, duplicate_mirror);
    let chunk_edges = opts
        .chunk_edges
        .unwrap_or_else(|| chunk_edges_for_budget(opts.mem_budget_bytes, chunk_bytes, pack_bytes))
        .min(meta.edge_count as usize)
        .max(1);
    source.rewind(chunk_edges)?;
    let tile_count = layout.tile_count() as usize;
    let undirected = meta.kind == GraphKind::Undirected;

    // Workers hold reusable partial-count arrays so the pass allocates
    // nothing per chunk; merging and re-zeroing them is
    // O(workers * tile_count) per chunk.
    let pass1 = Instant::now();
    let partials: Vec<Mutex<Vec<u64>>> = (0..workers)
        .map(|_| Mutex::new(vec![0u64; tile_count]))
        .collect();
    let mut start_edge = vec![0u64; tile_count + 1];
    let mut degrees = vec![0u64; layout.tiling().vertex_count() as usize];
    while let Some(chunk) = source.next_chunk()? {
        for_each_part(&sub_ranges(chunk.len(), workers), |w, part| {
            let mut acc = lock(&partials[w]);
            for e in chunk.edges(part) {
                for e in fold_orientations(e, duplicate_mirror) {
                    acc[tile_slot(&layout, e)] += 1;
                }
            }
        });
        for partial in &partials {
            for (global, p) in start_edge[1..].iter_mut().zip(lock(partial).iter_mut()) {
                *global += std::mem::take(p);
            }
        }
        for e in chunk.edges(0..chunk.len()) {
            degrees[e.src as usize] += 1;
            if undirected && !e.is_self_loop() {
                degrees[e.dst as usize] += 1;
            }
        }
        if let Some(rec) = &opts.recorder {
            let n = chunk.len() as u64;
            rec.ingest_chunk(1, n, n * chunk_bytes as u64);
        }
    }
    drop(partials);
    for t in 0..tile_count {
        start_edge[t + 1] += start_edge[t];
    }
    let compact = CompactDegrees::from_degrees(&degrees);
    drop(degrees);
    let pass1_ns = pass1.elapsed().as_nanos() as u64;
    if let Some(rec) = &opts.recorder {
        rec.ingest_pass(1, pass1_ns);
    }
    Ok(Index {
        layout,
        duplicate_mirror,
        total_edges: start_edge[tile_count],
        start_edge,
        chunk_edges,
        degrees: compact,
        pass1_ns,
    })
}

/// Pack bytes per input edge: a record, or two when mirrors are duplicated.
fn pack_bytes_per_edge(opts: &StreamingOptions, duplicate_mirror: bool) -> usize {
    opts.convert.encoding.bytes_per_edge() * if duplicate_mirror { 2 } else { 1 }
}

/// Pass 2: sizes `backend` to the tile image, re-reads the source and
/// scatters every chunk into it. Returns the write totals and the pass's
/// wall time.
fn scatter_pass(
    source: &mut impl EdgeSource,
    index: &Index,
    backend: &dyn WritableBackend,
    opts: &StreamingOptions,
    workers: usize,
) -> Result<(BatchWriterStats, u64)> {
    let pass2 = Instant::now();
    let bpe = opts.convert.encoding.bytes_per_edge();
    backend.set_len(index.total_edges * bpe as u64)?;
    source.rewind(index.chunk_edges)?;
    let chunk_bytes = source.chunk_bytes_per_edge() as u64;
    let tile_count = index.layout.tile_count() as usize;
    let pool = match &opts.pool {
        Some(p) => p.clone(),
        None => BufferPool::with_recorder(opts.recorder.clone()),
    };
    let mut scatter = ChunkScatter {
        layout: &index.layout,
        encoding: opts.convert.encoding,
        duplicate_mirror: index.duplicate_mirror,
        bpe,
        cursor: index.start_edge[..tile_count].to_vec(),
        workers: (0..workers)
            .map(|_| Mutex::new(ChunkCursors::new(tile_count)))
            .collect(),
        touched: Vec::new(),
    };
    let mut pack = Pack {
        buf: pool.acquire(
            (index.chunk_edges * pack_bytes_per_edge(opts, index.duplicate_mirror)).max(16),
        ),
        len: 0,
        runs: Vec::new(),
    };
    // One writer for the pass. The pack goes to it and comes back, so the
    // next chunk is packed only once the last one is written out.
    let write = std::thread::scope(|s| -> Result<BatchWriterStats> {
        let (to_writer, packs) = mpsc::channel::<Pack>();
        let (to_packer, written) = mpsc::channel();
        s.spawn(move || {
            for pack in packs {
                let done = write_runs(backend, &pack.buf.as_slice()[..pack.len], &pack.runs);
                // Fails only once the packer is gone, which sends no more.
                let _ = to_packer.send((pack, done));
            }
        });
        let mut write = BatchWriterStats::default();
        let mut next = source.next_chunk()?;
        while let Some(chunk) = next {
            if let Some(rec) = &opts.recorder {
                let n = chunk.len() as u64;
                rec.ingest_chunk(2, n, n * chunk_bytes);
            }
            scatter.pack_chunk(chunk, &mut pack);
            if let Some(rec) = &opts.recorder {
                rec.ingest_staging(pack.len as u64);
            }
            // The chunk now lives in the pack alone, so the source reads
            // the next one while the pack is written out.
            to_writer.send(pack).expect("the pack writer panicked");
            let read = source.next_chunk();
            let done;
            (pack, done) = written.recv().expect("the pack writer panicked");
            done?;
            next = read?;
            write.flushes += 1;
            write.pwrites += pack.runs.len() as u64;
            write.bytes_written += pack.len as u64;
            if let Some(rec) = &opts.recorder {
                rec.ingest_flush(pack.len as u64, pack.runs.len() as u64);
            }
        }
        Ok(write)
    })?;
    debug_assert!(scatter
        .cursor
        .iter()
        .zip(&index.start_edge[1..])
        .all(|(c, s)| c == s));
    drop(scatter);
    backend.sync()?;
    let pass2_ns = pass2.elapsed().as_nanos() as u64;
    if let Some(rec) = &opts.recorder {
        rec.ingest_pass(2, pass2_ns);
    }
    Ok((write, pass2_ns))
}

/// Edges per chunk: the largest power-of-two pack, at most
/// [`MAX_PACK_BYTES`], that fits the budget together with the source's copy
/// of the edges that fill it. The pack is sized in powers of two because that is the
/// capacity the buffer pool hands out; charging the request instead would
/// let the rounding land outside the account.
fn chunk_edges_for_budget(budget: usize, chunk_bytes: usize, pack_bytes: usize) -> usize {
    let mut pack = MAX_PACK_BYTES;
    loop {
        let edges = pack / pack_bytes;
        if edges <= MIN_CHUNK_EDGES || pack + edges * chunk_bytes <= budget {
            return edges.max(MIN_CHUNK_EDGES);
        }
        pack /= 2;
    }
}

/// Cuts `0..n` into at most `workers` contiguous, non-empty sub-ranges of
/// equal length (the last may be short).
fn sub_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    let part = n.div_ceil(workers).max(1);
    (0..n)
        .step_by(part)
        .map(|lo| lo..(lo + part).min(n))
        .collect()
}

/// Runs `work(w, parts[w])` for every sub-range, in parallel.
fn for_each_part(parts: &[Range<usize>], work: impl Fn(usize, Range<usize>) + Sync) {
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

/// Linear tile index a (possibly mirrored) edge folds into.
#[inline]
fn tile_slot(layout: &GroupedLayout, e: Edge) -> usize {
    let (coord, _) = layout.tiling().tile_of_edge(e);
    layout
        .index_of(coord)
        .expect("folded edge must land on a stored tile") as usize
}

/// One sub-range's pass-2 state: dense `tile_count`-sized arrays reset in
/// O(touched tiles), so every chunk reuses the same memory.
struct ChunkCursors {
    /// Per-tile edge count of the current sub-range (zero outside
    /// `touched`).
    counts: Vec<u64>,
    /// Tiles the current sub-range touches, ascending.
    touched: Vec<u64>,
    /// Per touched tile: the sub-range's next pack slot.
    bases: Vec<u64>,
}

impl ChunkCursors {
    fn new(tile_count: usize) -> Self {
        ChunkCursors {
            counts: vec![0u64; tile_count],
            touched: Vec::new(),
            bases: vec![0u64; tile_count],
        }
    }

    /// Counts `edges` per tile, resetting any previous snapshot first.
    fn count(
        &mut self,
        edges: impl IntoIterator<Item = Edge>,
        duplicate_mirror: bool,
        layout: &GroupedLayout,
    ) {
        for &t in &self.touched {
            self.counts[t as usize] = 0;
        }
        self.touched.clear();
        for e in edges {
            for e in fold_orientations(e, duplicate_mirror) {
                let idx = tile_slot(layout, e);
                if self.counts[idx] == 0 {
                    self.touched.push(idx as u64);
                }
                self.counts[idx] += 1;
            }
        }
        self.touched.sort_unstable();
    }
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
}

/// One chunk, packed: what the writer thread writes out.
struct Pack {
    /// The chunk's records, tile-major, in the first `len` bytes.
    buf: gstore_io::PooledBuf,
    len: usize,
    /// The writes that land them, ascending in file and pack offset.
    runs: Vec<WriteRun>,
}

impl ChunkScatter<'_> {
    /// Counting-sorts one chunk into `pack`, tile-major, with the writes
    /// that land it: one per touched tile, neighbours that are also
    /// adjacent in the file merged.
    fn pack_chunk(&mut self, chunk: impl EdgeRun, pack: &mut Pack) {
        let (layout, duplicate_mirror, bpe) = (self.layout, self.duplicate_mirror, self.bpe);
        let parts = sub_ranges(chunk.len(), self.workers.len());
        let workers = &self.workers[..parts.len()];

        // Phase A (parallel): per-tile population of every sub-range.
        for_each_part(&parts, |w, part| {
            lock(&workers[w]).count(chunk.edges(part), duplicate_mirror, layout);
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
        pack.runs.clear();
        let mut at = 0u64;
        for &t in &self.touched {
            let t = t as usize;
            let lo = at;
            for state in states.iter_mut() {
                state.bases[t] = at;
                at += state.counts[t];
            }
            push_run(
                &mut pack.runs,
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
        pack.len = at as usize * bpe;
        let slots = PackSlots::new(&mut pack.buf.as_mut_slice()[..pack.len]);
        let tiling = *layout.tiling();
        let span_mask = tiling.tile_span() - 1;
        let encoding = self.encoding;
        for_each_part(&parts, |w, part| {
            let mut state = lock(&workers[w]);
            let bases = &mut state.bases[..];
            for e in chunk.edges(part) {
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
    use crate::convert::{convert, ConversionOptions};
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use gstore_graph::{EdgeList, TupleWidth};

    fn sample(kind: GraphKind) -> EdgeList {
        let el = generate_rmat(&RmatParams::kron(10, 8)).unwrap();
        EdgeList::new(el.vertex_count(), kind, el.into_edges()).unwrap()
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

    /// The chunk is what the budget allows, but never more edges than the
    /// source has: a bigger budget does not grow it past the edge count.
    #[test]
    fn the_chunk_is_the_budget_or_the_edge_count_whichever_is_smaller() {
        let el = sample(GraphKind::Undirected);
        let n = el.edge_count() as usize;
        let dir = tempfile::tempdir().unwrap();
        let edge_path = dir.path().join("g.el");
        el.write_binary(&edge_path, TupleWidth::U32).unwrap();
        let chunk_at = |budget: usize| {
            let mut opts = StreamingOptions::new(ConversionOptions::new(8));
            opts.mem_budget_bytes = budget;
            let out = dir.path().join(budget.to_string());
            let file = convert_streaming(&edge_path, &out, "g", &opts).unwrap();
            let list = convert_edges(&el, &out, "e", &opts).unwrap();
            (file.chunk_edges, list.chunk_edges)
        };
        assert!(MIN_CHUNK_EDGES < n);
        assert_eq!(chunk_at(1 << 10), (MIN_CHUNK_EDGES, MIN_CHUNK_EDGES));
        for mb in [4, 64, 4096] {
            assert_eq!(chunk_at(mb << 20), (n, n), "{mb} MiB");
        }
        // An in-memory list holds no copy of a chunk: only the pack is
        // charged. 48 KiB holds a 32 KiB pack of 8192 SNB records, but not
        // their 64 KiB of file tuples beside it.
        assert_eq!(n, 8192);
        assert_eq!(chunk_at(48 << 10), (MIN_CHUNK_EDGES, n));
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

    /// The bytes, the report and the degree array depend neither on the
    /// source, nor on how many sub-ranges a chunk is cut into, nor on the
    /// chunk size, including chunks shorter than the worker count and sizes
    /// that do and do not divide the edge count; U64 tuples, Tuple16 and
    /// duplicated mirrors are among the inputs.
    #[test]
    fn bytes_are_independent_of_source_worker_count_and_chunk_size() {
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
            let want = convert_to_memory(&el, &copts, 1).unwrap();
            let paths = TilePaths::new(dir.path(), "g");
            let degrees = CompactDegrees::from_edge_list(&el).unwrap();
            assert_eq!(want.degrees(), &degrees);
            let check = |label: &str, chunk: usize, (data, report): (Vec<u8>, StreamingReport)| {
                assert_eq!(data, want.data(), "{label}");
                assert_eq!(report.data_bytes, want.data_bytes(), "{label}");
                assert_eq!(report.edge_count, want.edge_count(), "{label}");
                assert_eq!(report.chunks, (n as u64).div_ceil(chunk as u64), "{label}");
                let index = crate::file::TileIndex::read(&paths.start).unwrap();
                assert_eq!(index.start_edge, want.start_edge(), "{label}");
                assert_eq!(index.degrees(), &degrees, "{label}");
            };
            for workers in [1usize, 2, 3, 4, 7] {
                let store = convert_to_memory(&el, &copts, workers).unwrap();
                assert_eq!(store.data(), want.data(), "in memory, workers={workers}");
                assert_eq!(store.degrees(), &degrees, "in memory, workers={workers}");
                for chunk in [1, 2, workers.max(2) - 1, workers + 1, 97, n / 4, n, n + 1] {
                    let opts = StreamingOptions::new(copts).with_chunk_edges(chunk);
                    let label = format!("workers={workers} chunk={chunk} {copts:?}");
                    let file = EdgeChunks::open(&edge_path, 1).unwrap();
                    let report = convert_with(file, &paths, &opts, workers);
                    check(&format!("file {label}"), chunk, report);
                    // The sources differ only in how a chunk is read; the
                    // list is cut at the sizes that give it a few chunks.
                    if chunk >= 97 {
                        let list = EdgeSlices(&el, el.edges().chunks(1));
                        let report = convert_with(list, &paths, &opts, workers);
                        check(&format!("list {label}"), chunk, report);
                    }
                }
            }
        }
    }

    /// Converts `source` into memory on `workers` sub-ranges, `.start` at
    /// `paths`: the tile bytes and the report.
    fn convert_with(
        mut source: impl EdgeSource,
        paths: &TilePaths,
        opts: &StreamingOptions,
        workers: usize,
    ) -> (Vec<u8>, StreamingReport) {
        let sink = MemWriteBackend::new();
        let report = convert_source(&mut source, &sink, paths, opts, workers).unwrap();
        (sink.into_inner(), report)
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
        let mut source = EdgeChunks::open(&edge_path, 1).unwrap();
        let report = convert_source(&mut source, &*log, &paths, &opts, 3).unwrap();
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
                    *counts.entry(tile_slot(&layout, e)).or_insert(0u64) += 1;
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
