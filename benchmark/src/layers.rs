//! Per-layer replays: each layer's public functions called directly, in
//! isolation, on the inputs the traced workload just ran on.
//!
//! The engine's flight recorder stays off and unread — every number here
//! is taken at a call `gbench` itself makes. A replay is wrapped in a
//! `replay.<layer>` span; `graph.*` and the in-memory `tile.*` figures come
//! from the spans around the set-up calls instead of a second run.

use crate::data::{
    conversion_options, engine_on, Dataset, PointKind, Rng, Scale, WorkDir, ZipfKeys,
};
use crate::report::{median, quantile, Outcome};
use crate::trace::Tracer;
use crate::workloads::point::direct;
use crate::workloads::RunConfig;
use gstore_core::compute::{process_batch_atomic, process_batch_sharded};
use gstore_core::{Algorithm, Bfs, IterationOutcome, PageRank, PointReader, QuerySpec, TileView};
use gstore_core::{QueryValue, Wcc};
use gstore_graph::{GraphError, Result, TupleWidth, VertexId};
use gstore_io::{
    AioEngine, AioRequest, BatchWriter, BufferPool, FileBackend, FileWriteBackend, IoBackend,
    IoEngine, StorageBackend, UringEngine,
};
use gstore_scr::{plan, CacheHint, CachePool, ScrConfig, UnionFrontier};
use gstore_server::{read_frame, serve, write_frame, Client, Reply, ServeOptions};
use gstore_tile::{
    convert_streaming, recode_store_files, Codec, StreamingOptions, TileIndex, TilePaths,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const MIB: f64 = (1u64 << 20) as f64;
/// Queue depth and worker count of the I/O replay's own engine. The
/// replay keeps two requests in flight, so neither limits it.
const REPLAY_QUEUE_DEPTH: usize = 256;
const REPLAY_IO_WORKERS: usize = 4;

/// What the traced workload ran on.
pub struct LayerInputs {
    pub data: Dataset,
    /// The store the workload read: the raw pair, or its ζ3 recode.
    pub paths: TilePaths,
    pub scr: ScrConfig,
    /// The workload's hot-tile cache; the point replays use the same.
    pub point_cache_bytes: u64,
    /// What the workload's own engine reported from `io_backend()`; the
    /// I/O replay reads through an engine of this kind.
    pub io_backend: IoBackend,
    pub scale: Scale,
    pub seed: u64,
}

impl LayerInputs {
    /// `engine` is the workload's own, or one built exactly as it was.
    pub fn new(
        cfg: &RunConfig,
        data: Dataset,
        paths: TilePaths,
        scr: ScrConfig,
        point_cache_bytes: u64,
        io_backend: IoBackend,
    ) -> Self {
        LayerInputs {
            data,
            paths,
            scr,
            point_cache_bytes,
            io_backend,
            scale: cfg.scale,
            seed: cfg.seed,
        }
    }

    /// A repetition count, divided at `--quick` scale.
    fn reps(&self, n: usize) -> usize {
        (n / self.scale.count_div).max(2)
    }
}

/// A store's tiles held in memory with their index.
struct Resident {
    index: TileIndex,
    bytes: Vec<u8>,
}

impl Resident {
    fn load(paths: &TilePaths) -> Result<Resident> {
        Ok(Resident {
            index: TileIndex::read(&paths.start)?,
            bytes: std::fs::read(&paths.tiles)?,
        })
    }

    fn tile(&self, t: u64) -> &[u8] {
        let r = self.index.tile_byte_range(t);
        &self.bytes[r.start as usize..r.end as usize]
    }

    fn batch(&self) -> Vec<(u64, &[u8])> {
        (0..self.index.tile_count())
            .map(|t| (t, self.tile(t)))
            .collect()
    }
}

/// Runs `f` `reps` times; returns the median seconds of one run.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Replays every layer and records every per-layer metric that does not
/// come from the workload's own timed section.
pub fn replay_all(inp: &LayerInputs, tracer: &Tracer, out: &mut Outcome) -> Result<()> {
    let dir = WorkDir::new("layers")?;
    let run = Resident::load(&inp.paths)?;
    setup_spans(inp, tracer, out);
    let zeta = tracer.span("replay.tile", || tile_layer(inp, &dir, out))?;
    let io_s = tracer.span("replay.io", || io_layer(inp, &run.index, &dir, out))?;
    let insert_s = tracer.span("replay.scr", || scr_layer(inp, &run, out));
    let (compute_s, degree_us) =
        tracer.span("replay.core", || core_layer(inp, &run, &zeta, out))?;
    tracer.span("replay.overlap", || {
        overlap(inp, io_s + insert_s + compute_s, out)
    })?;
    tracer.span("replay.server", || server_layer(inp, degree_us, out))
}

/// `graph.*` and the in-memory `tile.*` figures, from the spans around the
/// set-up's own calls (three samples each).
fn setup_spans(inp: &LayerInputs, tracer: &Tracer, out: &mut Outcome) {
    let medges = inp.data.el.edge_count() as f64 / 1e6;
    let secs = |name| median(&tracer.durations_s(name));
    out.set("graph.gen_medges_per_s", medges / secs("graph.generate"));
    out.set("graph.degrees_s", secs("graph.degrees"));
    out.set("tile.convert_medges_per_s", medges / secs("tile.build"));
    out.set(
        "tile.write_store_mb_per_s",
        inp.data.data_bytes() as f64 / MIB / secs("tile.write_store"),
    );
}

/// gstore-tile: streaming convert, ζ3 recode, cursor decode of both
/// codecs. Returns the ζ3 store in memory for the core layer.
fn tile_layer(inp: &LayerInputs, dir: &WorkDir, out: &mut Outcome) -> Result<Resident> {
    let el = &inp.data.el;
    let edge_file = dir.path().join("g.el");
    el.write_binary(&edge_file, TupleWidth::for_vertex_count(el.vertex_count()))?;
    let opts =
        StreamingOptions::new(conversion_options()).with_mem_budget_mb(inp.scale.stream_mem_mb);
    let report = convert_streaming(&edge_file, dir.path(), "s", &opts)?;
    out.set("tile.stream_pass1_s", report.pass1_ns as f64 / 1e9);
    out.set("tile.stream_pass2_s", report.pass2_ns as f64 / 1e9);
    out.set("tile.stream_pwrites", report.write.pwrites as f64);
    out.set("tile.stream_flushes", report.write.flushes as f64);

    let t = Instant::now();
    let (zpaths, coded) = recode_store_files(&inp.data.paths, dir.path(), "z", Codec::ZetaGap)?;
    let recode_s = t.elapsed().as_secs_f64();
    let medges = coded.edge_count as f64 / 1e6;
    out.set("tile.recode_medges_per_s", medges / recode_s);
    out.set("tile.zeta_bytes_per_edge", coded.bytes_per_edge());

    let zeta = Resident::load(&zpaths)?;
    let store = &inp.data.store;
    fn decode<'a>(codec: Codec, tiles: u64, tile: impl Fn(u64) -> &'a [u8]) -> Result<u64> {
        let mut keys = [0u32; 128];
        let mut edges = 0u64;
        for t in 0..tiles {
            let mut cursor = codec.cursor(tile(t))?;
            loop {
                let n = cursor.next_block(&mut keys);
                if n == 0 {
                    break;
                }
                black_box(&keys[..n]);
                edges += n as u64;
            }
        }
        Ok(edges)
    }
    let tiles = store.tile_count();
    let mut decoded = Ok(0);
    let raw_s = median_secs(inp.reps(4), || {
        decoded = decode(Codec::RawSnb, tiles, |t| store.tile_bytes(t));
    });
    if decoded? != coded.edge_count {
        return Err(GraphError::Format("raw cursor lost edges".into()));
    }
    out.set("tile.decode_medges_per_s.raw", medges / raw_s);
    let mut decoded = Ok(0);
    let zeta_s = median_secs(2, || {
        decoded = decode(Codec::ZetaGap, tiles, |t| zeta.tile(t));
    });
    if decoded? != coded.edge_count {
        return Err(GraphError::Format("zeta cursor lost edges".into()));
    }
    out.set("tile.decode_medges_per_s.zeta", medges / zeta_s);
    Ok(zeta)
}

/// A stand-alone I/O engine of the kind the workload's engine ran on. A
/// ring registers buffer classes from 4 KiB up to a segment, so the
/// whole-segment reads and the single-tile reads both land in registered
/// arenas; a ring that cannot be built is an error, not a silent switch
/// to the other kind.
fn replay_io_engine(inp: &LayerInputs) -> Result<Arc<dyn IoEngine>> {
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&inp.paths.tiles)?);
    if inp.io_backend != IoBackend::Uring {
        return Ok(Arc::new(AioEngine::new(
            backend,
            REPLAY_IO_WORKERS,
            REPLAY_QUEUE_DEPTH,
        )));
    }
    let seg = inp.scr.segment_bytes.max(4096) as usize;
    let mut reg_lens: Vec<usize> = std::iter::successors(Some(4096), |l| Some(l * 2))
        .take_while(|&l| l < seg)
        .collect();
    reg_lens.push(seg);
    let ring = UringEngine::with_recorder(
        backend,
        REPLAY_QUEUE_DEPTH,
        false,
        false,
        &reg_lens,
        None,
        None,
    )?;
    Ok(Arc::new(ring))
}

/// gstore-io: the full-sweep run list through `submit`/`poll` in
/// segment-sized batches, exact-range tile reads at depth 1, and
/// store-sized sequential pushes through `BatchWriter`. Returns the
/// seconds of one read pass.
fn io_layer(inp: &LayerInputs, index: &TileIndex, dir: &WorkDir, out: &mut Outcome) -> Result<f64> {
    let engine = replay_io_engine(inp)?;
    out.set(
        "io.engine_uring",
        f64::from(inp.io_backend == IoBackend::Uring),
    );

    // One request per contiguous run of a segment's tiles — for a full
    // sweep, one per segment — exactly what the engine's slide submits.
    let all: Vec<u64> = (0..index.tile_count()).collect();
    let segments = plan(&inp.scr, &all, &CachePool::new(0), |t| {
        let r = index.tile_byte_range(t);
        r.end - r.start
    })
    .segments;
    let batches: Vec<Vec<AioRequest>> = segments
        .iter()
        .map(|tiles| {
            let range = index.tiles_byte_range(tiles[0], tiles[tiles.len() - 1] + 1);
            vec![AioRequest {
                tag: tiles[0],
                offset: range.start,
                len: (range.end - range.start) as usize,
            }]
        })
        .filter(|b| b[0].len > 0)
        .collect();

    let dead = |e| GraphError::Io(std::io::Error::other(format!("{e:?}")));
    let passes = inp.reps(32);
    let (mut requests, mut bytes, mut failed) = (0u64, 0u64, 0u64);
    let mut latency_us = Vec::new();
    let mut pass_s = Vec::new();
    for _ in 0..passes {
        let start = Instant::now();
        let mut sent: HashMap<u64, Instant> = HashMap::new();
        let mut pending = 0usize;
        let mut reap = |pending: &mut usize, floor: usize, sent: &HashMap<u64, Instant>| {
            while *pending > floor {
                for c in engine.poll(1, REPLAY_QUEUE_DEPTH).map_err(dead)? {
                    *pending -= 1;
                    latency_us.push(sent[&c.tag].elapsed().as_secs_f64() * 1e6);
                    match c.result {
                        Ok(buf) => bytes += buf.len() as u64,
                        Err(_) => failed += 1,
                    }
                }
            }
            Ok::<(), GraphError>(())
        };
        for batch in &batches {
            for r in batch {
                sent.insert(r.tag, Instant::now());
            }
            requests += batch.len() as u64;
            pending += engine.submit(batch.clone());
            // Double-buffered like the slide: the segment just submitted
            // stays in flight while the one before it completes.
            reap(&mut pending, batch.len(), &sent)?;
        }
        reap(&mut pending, 0, &sent)?;
        pass_s.push(start.elapsed().as_secs_f64());
    }
    latency_us.sort_by(f64::total_cmp);
    out.set("io.requests", (requests / passes as u64) as f64);
    out.set("io.bytes", (bytes / passes as u64) as f64);
    out.set("io.failed", failed as f64);
    out.set(
        "io.read_mb_per_s",
        bytes as f64 / MIB / pass_s.iter().sum::<f64>(),
    );
    out.set("io.req_us_p50", quantile(&latency_us, 0.50));
    out.set("io.req_us_p99", quantile(&latency_us, 0.99));
    let pool = engine.buffer_pool().stats();
    out.set(
        "io.bufpool_hit_rate",
        pool.hits as f64 / pool.acquires.max(1) as f64,
    );

    // Exact-range reads of seeded random non-empty tiles, depth 1.
    let mut rng = Rng::new(inp.seed ^ 0x7469_6c65);
    let nonempty: Vec<u64> = all
        .iter()
        .copied()
        .filter(|&t| !index.tile_byte_range(t).is_empty())
        .collect();
    let mut tile_us = Vec::new();
    for _ in 0..inp.reps(256) {
        let t = nonempty[rng.below(nonempty.len() as u64) as usize];
        let r = index.tile_byte_range(t);
        let start = Instant::now();
        engine.submit(vec![AioRequest {
            tag: t,
            offset: r.start,
            len: (r.end - r.start) as usize,
        }]);
        let done = engine.poll(1, 1).map_err(dead)?;
        tile_us.push(start.elapsed().as_secs_f64() * 1e6);
        failed += done.iter().filter(|c| c.result.is_err()).count() as u64;
    }
    out.set("io.failed", failed as f64);
    out.set("io.tile_read_us_p50", median(&tile_us));

    // Store-sized sequential pushes, as the streaming converter stages them.
    let data = inp.data.store.data();
    let sink = Arc::new(FileWriteBackend::create(
        &dir.path().join("pwrite.bin"),
        false,
    )?);
    let start = Instant::now();
    let mut writer = BatchWriter::new(sink, &BufferPool::new(), 1 << 20, None);
    for chunk in data.chunks(64 << 10) {
        writer.push(chunk)?;
    }
    let written = writer.finish()?;
    out.set(
        "io.pwrite_mb_per_s",
        written.bytes_written as f64 / MIB / start.elapsed().as_secs_f64(),
    );
    Ok(median(&pass_s))
}

/// gstore-scr: planning, union-frontier merge, cache insert and analysis.
/// Returns the seconds of inserting every tile once.
fn scr_layer(inp: &LayerInputs, run: &Resident, out: &mut Outcome) -> f64 {
    let index = &run.index;
    let all: Vec<u64> = (0..index.tile_count()).collect();
    let tile_len = |t: u64| {
        let r = index.tile_byte_range(t);
        r.end - r.start
    };
    let empty = CachePool::new(0);
    let plan_s = median_secs(inp.reps(64), || {
        black_box(plan(&inp.scr, &all, &empty, tile_len));
    });
    out.set("scr.plan_us_p50", plan_s * 1e6);

    // Eight frontiers, each a seeded half of the grid.
    let mut rng = Rng::new(inp.seed ^ 0x6d65_7267);
    let frontiers: Vec<Vec<u64>> = (0..8)
        .map(|_| all.iter().copied().filter(|_| rng.below(2) == 0).collect())
        .collect();
    let merge_s = median_secs(inp.reps(64), || {
        black_box(UnionFrontier::merge(&frontiers));
    });
    out.set("scr.union_merge_us_p50", merge_s * 1e6);

    // Every tile offered once to a pool of the workload's size; PageRank
    // needs every tile again, so nothing is evictable once it is full.
    let needed = |_: u64| CacheHint::Needed;
    let mut pool = CachePool::new(inp.scr.pool_bytes());
    let insert_s = median_secs(inp.reps(4), || {
        pool = CachePool::new(inp.scr.pool_bytes());
        for &t in &all {
            pool.insert(t, run.tile(t), &needed);
        }
    });
    out.set(
        "scr.insert_mb_per_s",
        pool.stats().inserted_bytes as f64 / MIB / insert_s,
    );
    let analyze_s = median_secs(inp.reps(16), || pool.analyze(&needed));
    out.set("scr.analyze_ms_p50", analyze_s * 1e3);
    insert_s
}

/// A `StorageBackend` that counts what passes through it.
struct CountingBackend {
    inner: FileBackend,
    bytes: AtomicU64,
}

impl StorageBackend for CountingBackend {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        // Relaxed: a statistic read after the reads have returned.
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.read_at(offset, buf)
    }
}

/// The key the `i`-th replayed request of any kind asks for.
fn replay_keys(inp: &LayerInputs, n: usize) -> Vec<VertexId> {
    let keys = ZipfKeys::new(inp.data.el.vertex_count());
    let mut rng = Rng::new(inp.seed ^ 0x6b65_7973);
    (0..n).map(|_| keys.sample(&mut rng)).collect()
}

/// gstore-core: fused decode from outside (`for_each_edge` with an empty
/// closure), both compute executors on in-memory views, direct point
/// reads per kind, spec parsing. Returns the seconds of one sharded
/// compute pass and the direct `degree` p50 in µs.
fn core_layer(
    inp: &LayerInputs,
    run: &Resident,
    zeta: &Resident,
    out: &mut Outcome,
) -> Result<(f64, f64)> {
    let store = &inp.data.store;
    let tiling = *store.layout().tiling();
    let medges = store.edge_count() as f64 / 1e6;
    let view_pass = |codec: Codec, resident: Option<&Resident>| {
        let mut acc = 0u64;
        for t in 0..store.tile_count() {
            let coord = store.layout().coord_at(t);
            let bytes = resident.map_or_else(|| store.tile_bytes(t), |r| r.tile(t));
            TileView::coded(&tiling, coord, store.encoding(), codec, bytes)
                .for_each_edge(|s, d| acc = acc.wrapping_add(s ^ d));
        }
        black_box(acc);
    };
    let raw_s = median_secs(inp.reps(4), || view_pass(Codec::RawSnb, None));
    out.set("core.view_medges_per_s.raw", medges / raw_s);
    let zeta_s = median_secs(2, || view_pass(Codec::ZetaGap, Some(zeta)));
    out.set("core.view_medges_per_s.zeta", medges / zeta_s);

    // Both executors on the workload's own store (its codec included),
    // every tile resident, no I/O and no cache.
    let batch = run.batch();
    let mut pr = PageRank::new(tiling, inp.data.degrees.clone(), 0.85);
    let mut sharded_s = Vec::new();
    for i in 0..inp.reps(4) as u32 {
        pr.begin_iteration(i);
        let t = Instant::now();
        let done = process_batch_sharded(&run.index, &pr, &batch, pr.update_mode());
        sharded_s.push(t.elapsed().as_secs_f64());
        pr.end_iteration(i);
        if done.edges != store.edge_count() {
            return Err(GraphError::Format("sharded replay lost edges".into()));
        }
    }
    let compute_s = median(&sharded_s);
    out.set("core.compute_medges_per_s.sharded", medges / compute_s);

    let mut bfs = Bfs::new(tiling, inp.data.bfs_roots(1, inp.seed)[0]);
    let (mut atomic_s, mut atomic_edges) = (0.0, 0u64);
    for i in 0..64 {
        bfs.begin_iteration(i);
        let t = Instant::now();
        atomic_edges += process_batch_atomic(&run.index, &bfs, &batch).edges;
        atomic_s += t.elapsed().as_secs_f64();
        if bfs.end_iteration(i) == IterationOutcome::Converged {
            break;
        }
    }
    out.set(
        "core.compute_medges_per_s.atomic",
        atomic_edges as f64 / 1e6 / atomic_s,
    );

    // Direct point reads, one thread, one kind at a time, same keys.
    let cache = inp.point_cache_bytes;
    let engine = engine_on(&inp.paths, inp.scr, cache)?;
    let reader = engine.point_reader();
    let counted = Arc::new(CountingBackend {
        inner: FileBackend::open(&inp.paths.tiles)?,
        bytes: AtomicU64::new(0),
    });
    let counting_reader = PointReader::new(run.index.clone(), counted.clone(), cache);
    let keys = replay_keys(inp, inp.reps(32));
    let mut p50 = Vec::new();
    let (mut total_s, mut total_n) = (0.0, 0usize);
    for kind in PointKind::ALL {
        let mut us = Vec::with_capacity(keys.len());
        for &v in &keys {
            let t = Instant::now();
            black_box(direct(&reader, kind, v, v ^ inp.seed)?);
            us.push(t.elapsed().as_secs_f64() * 1e6);
            direct(&counting_reader, kind, v, v ^ inp.seed)?;
        }
        total_s += us.iter().sum::<f64>() / 1e6;
        total_n += us.len();
        p50.push(median(&us));
    }
    // In `PointKind::ALL` order.
    let [neighbors_us, degree_us, khop1_us, walk16_us] = p50[..] else {
        unreachable!("one median per point kind");
    };
    out.set("core.point_us_p50.neighbors", neighbors_us);
    out.set("core.point_us_p50.degree", degree_us);
    out.set("core.point_us_p50.khop1", khop1_us);
    out.set("core.point_us_p50.walk16", walk16_us);
    out.set("core.point_qps", total_n as f64 / total_s);
    out.set(
        "core.point_bytes_per_req",
        counted.bytes.load(Ordering::Relaxed) as f64 / total_n as f64,
    );

    let specs = ["bfs:17", "pagerank:5", "wcc", "kcore:3", "degrees"]
        .into_iter()
        .map(String::from)
        .chain(PointKind::ALL.map(|k| k.spec(123_456)))
        .collect::<Vec<_>>();
    let reps = inp.reps(2000);
    let t = Instant::now();
    for _ in 0..reps {
        for s in &specs {
            let q: QuerySpec = s.parse()?;
            black_box(q.to_string());
        }
    }
    out.set(
        "core.spec_parse_ns",
        t.elapsed().as_secs_f64() * 1e9 / (reps * specs.len()) as f64,
    );
    Ok((compute_s, degree_us))
}

/// `core.overlap_ratio`: the layers' isolated seconds per sweep over the
/// wall of a sweep through `engine.run`. Above 1, the pipeline overlaps
/// them; a faster layer then saves at most its share of the critical path.
fn overlap(inp: &LayerInputs, layers_s: f64, out: &mut Outcome) -> Result<()> {
    const SWEEPS: u32 = 2;
    let mut engine = engine_on(&inp.paths, inp.scr, 0)?;
    let tiling = *engine.index().layout.tiling();
    let mut walls = Vec::new();
    for _ in 0..inp.reps(4) + 1 {
        let mut pr = PageRank::new(tiling, inp.data.degrees.clone(), 0.85).with_iterations(SWEEPS);
        let t = Instant::now();
        engine.run(&mut pr, SWEEPS)?;
        walls.push(t.elapsed().as_secs_f64() / SWEEPS as f64);
    }
    // The first query is the warm-up.
    let sweep_s = median(&walls[1..]);
    out.set("core.overlap_ratio", layers_s / sweep_s);
    Ok(())
}

/// gstore-server: frame round trips against an echo thread on loopback
/// (where `write_frame`'s two writes meet Nagle and delayed ACKs), codecs
/// over memory, and a daemon's overhead over the direct calls it wraps.
fn server_layer(inp: &LayerInputs, direct_degree_us: f64, out: &mut Outcome) -> Result<()> {
    let io = GraphError::Io;
    let keys = replay_keys(inp, inp.reps(24));

    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let rtt_us = std::thread::scope(|scope| -> Result<Vec<f64>> {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            while let Some(line) = read_frame(&mut stream)? {
                write_frame(&mut stream, &line)?;
            }
            Ok(())
        });
        let mut stream = TcpStream::connect(addr).map_err(io)?;
        let mut us = Vec::new();
        for &v in &keys {
            let t = Instant::now();
            write_frame(&mut stream, &PointKind::Degree.spec(v)).map_err(io)?;
            black_box(read_frame(&mut stream).map_err(io)?);
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        drop(stream);
        echo.join().expect("echo thread panicked").map_err(io)?;
        Ok(us)
    })?;
    out.set("server.frame_rtt_us_p50", median(&rtt_us));

    let neighbours: Vec<VertexId> = (0..1000).map(|i| i * 97).collect();
    let reply = Reply::Value(QueryValue::Neighbors(neighbours));
    let line = reply.encode();
    let reps = inp.reps(2000);
    let mut wire = Vec::with_capacity(line.len() + 4);
    let t = Instant::now();
    for _ in 0..reps {
        wire.clear();
        write_frame(&mut wire, &line).map_err(io)?;
        black_box(read_frame(&mut wire.as_slice()).map_err(io)?);
    }
    out.set(
        "server.frame_codec_ns",
        t.elapsed().as_secs_f64() * 1e9 / reps as f64,
    );
    let t = Instant::now();
    for _ in 0..reps {
        black_box(Reply::parse(&black_box(&reply).encode()).map_err(io)?);
    }
    out.set(
        "server.reply_codec_ns",
        t.elapsed().as_secs_f64() * 1e9 / reps as f64,
    );

    // An otherwise idle daemon against the direct calls it wraps.
    let handle = serve(
        engine_on(&inp.paths, inp.scr, inp.point_cache_bytes)?,
        ServeOptions::default(),
    )?;
    let served = (|| -> Result<(f64, f64)> {
        let mut client = Client::connect(&handle.local_addr().to_string()).map_err(io)?;
        let mut degree_us = Vec::new();
        for &v in &keys {
            let t = Instant::now();
            black_box(client.query(&PointKind::Degree.spec(v)).map_err(io)?);
            degree_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let mut wcc_ms = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            black_box(client.query("wcc").map_err(io)?);
            wcc_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok((median(&degree_us), median(&wcc_ms)))
    })();
    let mut engine = handle.shutdown();
    let (served_degree_us, served_wcc_ms) = served?;
    out.set(
        "server.point_overhead_us",
        served_degree_us - direct_degree_us,
    );
    let tiling = *engine.index().layout.tiling();
    let mut solo_ms = Vec::new();
    for _ in 0..3 {
        let mut wcc = Wcc::new(tiling);
        let t = Instant::now();
        engine.run(&mut wcc, u32::MAX)?;
        solo_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("server.sweep_overhead_ms", served_wcc_ms - median(&solo_ms));
    Ok(())
}
