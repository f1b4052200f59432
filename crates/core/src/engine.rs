//! The G-Store engine: semi-external tile processing with selective AIO
//! and Slide-Cache-Rewind memory management (§III, §V–VI).
//!
//! Each iteration is one sweep through six stages, Figure 8's timeline:
//! 1. *select*: live queries elect the vertex ranges they need (selective
//!    I/O); the union of their tiles drives the sweep,
//! 2. *plan*: the SCR plan splits the union into cached tiles and
//!    segments of runs, one AIO request per run; segment 0 goes out,
//! 3. *rewind*: processes the cached tiles, no I/O (time (T+1)0),
//! 4. *slide*: streams the segments double-buffered, landing segment k's
//!    runs while k+1 is in flight,
//! 5. *admit*: caches processed tiles under the proactive policy
//!    (next-iteration metadata plus row completion, §VI.C's rules),
//! 6. *seam*: records the iteration and detaches converged queries.

use crate::algorithm::{Algorithm, IterationOutcome, RunStats};
pub use crate::builder::EngineBuilder;
use crate::builder::EngineConfig;
use crate::compute::{self, DecodeStage};
use crate::query::{BatchRunStats, QueryBatch, QueryOutcome};
use gstore_graph::{GraphError, Result};
use gstore_io::{
    uring_available, AioEngine, AioRequest, IoBackend, IoEngine, IoFaultInjector, StorageBackend,
    UringEngine,
};
use gstore_metrics::{
    EngineMetrics, FlightRecorder, IterationMetrics, QueryBatchSweep, QueryRecord, Recorder,
};
use gstore_scr::{CacheHint, CacheOracle, CachePool, RowProgress, ScrPlan, UnionFrontier};
use gstore_tile::{GroupedLayout, TileIndex};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Semi-external G-Store engine over any storage backend.
pub struct GStoreEngine {
    /// Shared with every reader from [`GStoreEngine::point_reader`].
    index: Arc<TileIndex>,
    /// The selected I/O engine (pread worker pool or io_uring), behind
    /// the shared completion surface.
    aio: Arc<dyn IoEngine>,
    /// The same backend the I/O engine reads through; kept so point
    /// readers can issue positioned reads outside the sweep pipeline.
    backend: Arc<dyn StorageBackend>,
    config: EngineConfig,
    pool: CachePool,
    /// Present iff `config.metrics`: shared with the AIO engine (submit /
    /// completion events) and the cache pool (insert / reject / evict).
    recorder: Option<Arc<FlightRecorder>>,
    /// The builder's fault injector, kept so point readers (which own
    /// private I/O paths) share the same policy and counters.
    io_fault: Option<IoFaultInjector>,
    /// The compute phase's decode scratch (coded stores), reused by every
    /// batch of every run.
    decode: DecodeStage,
}

/// Proactive-caching oracle (§VI.C): combines every *active* query's
/// next-iteration metadata with row-completion knowledge. A tile any
/// live query will want next sweep is worth caching; it is dead only when
/// no query wants it and its rows' metadata is complete (Rules 1 and 2).
/// Converged (detached) queries are excluded — they never sweep again.
struct BatchOracle<'a> {
    queries: &'a [&'a dyn Algorithm],
    active: &'a [usize],
    progress: &'a RowProgress,
    index: &'a TileIndex,
}

impl CacheOracle for BatchOracle<'_> {
    fn tile_hint(&self, tile: u64) -> CacheHint {
        let c = self.index.layout.coord_at(tile);
        let symmetric = self.index.layout.tiling().symmetric();
        let rows: &[u32] = if symmetric && c.row != c.col {
            &[c.row, c.col]
        } else {
            &[c.row]
        };
        // Active-so-far on any touched range, for any live query => the
        // tile will definitely be processed next iteration.
        if self
            .active
            .iter()
            .any(|&q| rows.iter().any(|&r| self.queries[q].range_active_next(r)))
        {
            return CacheHint::Needed;
        }
        // Inactive so far: certain only once every touched range has
        // complete metadata (Rules 1 and 2).
        if rows.iter().all(|&r| self.progress.is_complete(r)) {
            CacheHint::NotNeeded
        } else {
            CacheHint::Unknown
        }
    }
}

/// One contiguous run of a segment's tiles, read by a single AIO request
/// (none when its tiles are all empty) and landed as a unit. `tiles`
/// indexes into segment `seg`'s tile list; the request's tag is the run's
/// index in [`Sweep::runs`].
struct RunSpan {
    seg: usize,
    bytes: Range<u64>,
    tiles: Range<usize>,
}

/// Wall time of each stage of one sweep, in nanoseconds; taken only when
/// recording. `reap` (blocked on completions), `land` (processing runs)
/// and `admit` are parts of `slide`.
#[derive(Default)]
struct StageClocks {
    select: u64,
    plan: u64,
    rewind: u64,
    slide: u64,
    reap: u64,
    land: u64,
    admit: u64,
}

/// One iteration's state: built by [`GStoreEngine::select`], carried
/// through the stages and consumed by [`GStoreEngine::seam`].
struct Sweep {
    n: u32,
    start: Instant,
    /// Queries still attached when the sweep started.
    active: Vec<usize>,
    union: UnionFrontier,
    progress: RowProgress,
    plan: ScrPlan,
    /// Every segment's runs, in segment order.
    runs: Vec<RunSpan>,
    /// Per segment, the runs that have not landed yet.
    left: Vec<usize>,
    /// Segments submitted whose runs have not all landed.
    live: usize,
    /// The run's bytes read and amortized when the sweep started.
    bytes_before: (u64, u64),
    clocks: StageClocks,
    /// The run's stats so far, carried through the sweep.
    stats: BatchRunStats,
}

impl Sweep {
    /// Indices into `runs` of segment `k`'s runs.
    fn segment(&self, k: usize) -> Range<usize> {
        self.runs.partition_point(|r| r.seg < k)..self.runs.partition_point(|r| r.seg <= k)
    }

    /// The stage clocks and plan, as the recorder's per-iteration phases.
    fn metrics(&self) -> IterationMetrics {
        let c = &self.clocks;
        IterationMetrics {
            iteration: self.n,
            select_ns: c.select + c.plan,
            rewind_ns: c.rewind,
            slide_ns: c.slide.saturating_sub(c.admit),
            slide_compute_ns: c.land,
            cache_insert_ns: c.admit,
            io_wait_ns: c.reap,
            // On the recorded (error-free) path every run with bytes was
            // read and landed.
            runs_streamed: self.runs.iter().filter(|r| !r.bytes.is_empty()).count() as u64,
            tiles_rewind: self.plan.rewind.len() as u64,
            tiles_streamed: self.plan.io_tile_count() as u64,
            rewind_bytes: self.plan.rewind_bytes,
            stream_bytes: self.plan.stream_bytes,
        }
    }
}

impl GStoreEngine {
    /// Starts a typed [`EngineBuilder`] — the one blessed way to construct
    /// an engine. Pick a source (`paths` / `store` / `backend`), a memory
    /// policy (`scr` / `base_policy`), optionally tweak knobs, `build()`.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    pub(crate) fn construct(
        index: TileIndex,
        backend: Arc<dyn StorageBackend>,
        config: EngineConfig,
        io_fault: Option<IoFaultInjector>,
        probe_override: Option<bool>,
    ) -> Result<Self> {
        let expected = index.data_bytes();
        if backend.len() < expected {
            return Err(GraphError::Format(format!(
                "backend holds {} bytes, index requires {expected}",
                backend.len()
            )));
        }
        let pool_bytes = if config.use_scr_cache {
            config.scr.pool_bytes()
        } else {
            0
        };
        let recorder = config.metrics.then(|| Arc::new(FlightRecorder::new()));
        let rec_dyn = recorder
            .as_ref()
            .map(|r| Arc::clone(r) as Arc<dyn Recorder>);
        let aio = Self::select_io_engine(
            &backend,
            &config,
            io_fault.clone(),
            probe_override,
            rec_dyn.clone(),
        )?;
        if let Some(rec) = &rec_dyn {
            rec.io_backend_selected(aio.kind() == IoBackend::Uring);
        }
        let mut pool = CachePool::new(pool_bytes);
        pool.set_recorder(rec_dyn);
        Ok(GStoreEngine {
            index: Arc::new(index),
            aio,
            backend,
            config,
            pool,
            recorder,
            io_fault,
            decode: DecodeStage::new(config.metrics),
        })
    }

    /// Resolves the `io_backend` knob into a concrete engine.
    ///
    /// `Uring` demands a file-backed source and a passing probe, failing
    /// with a typed error otherwise. `Auto` makes the same checks but
    /// silently takes the worker pool when any of them — including ring
    /// construction itself — fails, so one binary runs unchanged on hosts
    /// with and without io_uring.
    fn select_io_engine(
        backend: &Arc<dyn StorageBackend>,
        config: &EngineConfig,
        io_fault: Option<IoFaultInjector>,
        probe_override: Option<bool>,
        rec_dyn: Option<Arc<dyn Recorder>>,
    ) -> Result<Arc<dyn IoEngine>> {
        let probe = || probe_override.unwrap_or_else(uring_available);
        let file_backed = backend.as_raw_fd().is_some();
        let want_uring = match config.io_backend {
            IoBackend::Workers => false,
            IoBackend::Uring => {
                if !file_backed {
                    return Err(GraphError::InvalidParameter(
                        "io_backend=uring requires a file-backed store \
                         (this backend exposes no file descriptor)"
                            .into(),
                    ));
                }
                if !probe() {
                    return Err(GraphError::InvalidParameter(
                        "io_backend=uring but io_uring is unavailable on this host \
                         (io_uring_setup denied); use auto or workers"
                            .into(),
                    ));
                }
                true
            }
            IoBackend::Auto => file_backed && probe(),
        };
        if want_uring {
            // Registration hints cover both short runs and whole-segment
            // reads.
            match UringEngine::with_recorder(
                Arc::clone(backend),
                AIO_QUEUE_DEPTH,
                false, // direct I/O: retired
                false, // SQPOLL: retired
                &reg_classes(config.scr.segment_bytes as usize),
                rec_dyn.clone(),
                io_fault.clone(),
            ) {
                Ok(engine) => return Ok(Arc::new(engine)),
                Err(e) => {
                    if config.io_backend == IoBackend::Uring {
                        return Err(GraphError::InvalidParameter(format!(
                            "io_backend=uring: ring construction failed: {e}"
                        )));
                    }
                    // Auto: probe passed but construction failed (e.g.
                    // RLIMIT_MEMLOCK, fd limits) — fall back to workers.
                }
            }
        }
        Ok(Arc::new(AioEngine::with_recorder(
            Arc::clone(backend),
            config.io_workers,
            AIO_QUEUE_DEPTH,
            rec_dyn,
            io_fault,
        )))
    }

    #[inline]
    pub fn index(&self) -> &TileIndex {
        &self.index
    }

    /// A point reader over this engine's store: the OLTP access path
    /// (`neighbors` / `degree` / `khop` / `walk`) with a hot-tile cache of
    /// [`EngineBuilder::point_read_cache_bytes`]. The reader shares the
    /// engine's index, backend, flight recorder and fault injector but
    /// owns its cache; its misses are synchronous reads on the calling
    /// thread whichever I/O engine the sweeps use. Wrap it in an [`Arc`]
    /// to serve concurrent clients.
    pub fn point_reader(&self) -> crate::pointread::PointReader {
        crate::pointread::PointReader::open(
            Arc::clone(&self.index),
            Arc::clone(&self.backend),
            self.config.point_read_cache_bytes,
            self.recorder_handle(),
            self.io_fault.clone(),
        )
    }

    /// The engine's flight recorder as a shareable handle, or `None` when
    /// built without [`EngineBuilder::metrics`] — lets an embedding layer
    /// (e.g. the serve daemon) record its own event groups into the same
    /// [`GStoreEngine::metrics`] snapshot.
    pub fn recorder_handle(&self) -> Option<Arc<dyn Recorder>> {
        self.recorder
            .as_ref()
            .map(|r| Arc::clone(r) as Arc<dyn Recorder>)
    }

    /// Drops all cached tiles (e.g. between algorithm runs).
    pub fn clear_cache(&mut self) {
        self.pool.clear();
    }

    /// Outstanding AIO requests (0 between healthy runs; also 0 after a
    /// failed run, which drains its segment before surfacing the error).
    pub fn aio_in_flight(&self) -> usize {
        self.aio.in_flight()
    }

    /// Which I/O engine this instance actually runs on — useful under
    /// [`IoBackend::Auto`], where the choice is made at build time from
    /// the runtime probe. Never returns `Auto`.
    pub fn io_backend(&self) -> IoBackend {
        self.aio.kind()
    }

    /// Runs an algorithm to convergence (or `max_iters`).
    ///
    /// Equivalent to admitting the single query into a [`QueryBatch`] and
    /// taking the batch aggregate — which is exactly what it does.
    pub fn run(&mut self, alg: &mut dyn Algorithm, max_iters: u32) -> Result<RunStats> {
        let mut batch = QueryBatch::new();
        batch.push(alg)?;
        Ok(self.run_batch(&mut batch, max_iters)?.aggregate)
    }

    /// Runs every admitted query concurrently over **shared sweeps**: per
    /// iteration the union of the live queries' selective-I/O frontiers
    /// drives one SCR plan — one disk scan — and each tile that lands is
    /// dispatched to every query whose frontier covers it, back-to-back
    /// while the tile and its group metadata are cache-resident. Queries
    /// that converge detach mid-run and stop contributing tiles to the
    /// union; the SCR cache pool and AIO buffer pool are shared by all.
    ///
    /// K overlapping queries therefore read ~1× the bytes of one sweep
    /// instead of ~K×; [`BatchRunStats`] reports exactly how much was
    /// amortized.
    pub fn run_batch(
        &mut self,
        batch: &mut QueryBatch<'_>,
        max_iters: u32,
    ) -> Result<BatchRunStats> {
        let start = Instant::now();
        let mut stats = BatchRunStats {
            per_query: (batch.slots.iter())
                .map(|s| QueryOutcome {
                    name: s.name().to_string(),
                    converged: false,
                    stats: RunStats::default(),
                })
                .collect(),
            ..BatchRunStats::default()
        };
        if batch.is_empty() {
            return Ok(stats);
        }
        if let Some(rec) = &self.recorder {
            rec.compute_llc_estimate(compute::llc_resident_estimate(&self.index));
        }
        let mut sweep_ns = Vec::new(); // each sweep's wall time
        for n in 0..max_iters {
            let mut sw = self.select(batch, stats, n);
            // Immutable query views for the sweep's shared stages.
            let queries: Vec<&dyn Algorithm> = batch.slots.iter().map(|s| &**s).collect();
            self.plan(&mut sw);
            let swept = self.rewind(&mut sw, &queries);
            if let Err(e) = swept.and_then(|()| self.slide(&mut sw, &queries)) {
                // Drain (and drop) everything still queued or in flight:
                // dropping the completions recycles their pooled buffers,
                // so the pool — like the AIO queue — is clean for the next
                // run. If the request path itself is dead (a broken ring)
                // this returns the typed disconnect error, which we
                // ignore: the original failure wins.
                let _ = self.aio.drain();
                return Err(e);
            }
            stats = self.seam(sw, batch, &mut sweep_ns, start);
            if stats.all_converged() {
                break;
            }
        }
        let elapsed = start.elapsed();
        stats.aggregate.elapsed = elapsed.as_secs_f64();
        for q in 0..batch.len() {
            if !stats.per_query[q].converged {
                self.query_finished(q, &mut stats, &sweep_ns, elapsed);
            }
        }
        Ok(stats)
    }

    /// Cache-pool behaviour counters.
    pub fn pool_stats(&self) -> gstore_scr::PoolStats {
        self.pool.stats()
    }

    /// I/O buffer-pool behaviour counters (reuse hit rate, handles still
    /// outstanding — 0 between runs, including after a failed run).
    pub fn buffer_pool_stats(&self) -> gstore_io::BufferPoolStats {
        self.aio.buffer_pool().stats()
    }

    /// Snapshot of the flight recorder, or `None` when the engine was
    /// built without [`EngineBuilder::metrics`]. Covers everything
    /// recorded since construction (metrics accumulate across runs).
    pub fn metrics(&self) -> Option<EngineMetrics> {
        self.recorder.as_ref().map(|r| r.snapshot())
    }

    /// A stage clock's start, taken only when recording.
    fn clock(&self) -> Option<Instant> {
        self.recorder.as_ref().map(|_| Instant::now())
    }

    /// Select: every live query begins iteration `n` and elects the tiles
    /// it needs; their union, and row progress over it, drive the sweep,
    /// which carries the run's `stats` until the seam hands them back.
    /// Detached queries elect nothing, keeping mask bit positions stable.
    fn select(&self, batch: &mut QueryBatch<'_>, stats: BatchRunStats, n: u32) -> Sweep {
        let (start, t0) = (Instant::now(), self.clock());
        let active: Vec<usize> = (0..batch.len())
            .filter(|&q| !stats.per_query[q].converged)
            .collect();
        let mut needed = vec![Vec::new(); batch.len()];
        for &q in &active {
            // Every query joins at sweep 0 and detaches forever on
            // convergence, so its own iteration counter is the sweep.
            batch.slots[q].begin_iteration(n);
            needed[q] = select_tiles(&self.index.layout, &*batch.slots[q]);
        }
        let union = UnionFrontier::merge(&needed);
        let progress = RowProgress::new(&self.index.layout, union.tiles().iter().copied());
        let mut sw = Sweep {
            n,
            start,
            active,
            union,
            progress,
            plan: gstore_scr::plan(&self.config.scr, &[], &self.pool, |_| 0), // set by `plan`
            runs: Vec::new(),
            left: Vec::new(),
            live: 0,
            bytes_before: (stats.aggregate.bytes_read, stats.bytes_amortized),
            stats,
            clocks: StageClocks::default(),
        };
        sw.clocks.select = since(t0);
        sw
    }

    /// Plan: splits the union into the rewind set and streaming segments,
    /// merges each segment's contiguous tiles into runs — the paper's
    /// batching of group reads into one `io_submit` — and sends segment
    /// 0's reads out *before* the rewind, so disk work overlaps
    /// cached-data processing (Figure 8's (T+1)0/(T+1)1 timeline).
    fn plan(&self, sw: &mut Sweep) {
        let t0 = self.clock();
        sw.plan = gstore_scr::plan(&self.config.scr, sw.union.tiles(), &self.pool, |t| {
            let r = self.index.tile_byte_range(t);
            r.end - r.start
        });
        for (seg, tiles) in sw.plan.segments.iter().enumerate() {
            let mut i = 0;
            for run in tiles.chunk_by(|a, b| *b == a + 1) {
                let bytes = self.index.tiles_byte_range(run[0], run[run.len() - 1] + 1);
                let tiles = i..i + run.len();
                sw.runs.push(RunSpan { seg, bytes, tiles });
                i += run.len();
            }
        }
        sw.left = (0..sw.plan.segments.len())
            .map(|k| sw.segment(k).len())
            .collect();
        sw.stats.aggregate.io_requests += self.submit(sw, 0);
        sw.clocks.plan = since(t0);
    }

    /// Sends segment `k`'s non-empty runs out as one AIO batch, each
    /// request tagged with its run's index; returns the requests issued.
    fn submit(&self, sw: &Sweep, k: usize) -> u64 {
        let span = sw.segment(k);
        let reqs: Vec<AioRequest> = (sw.runs[span.clone()].iter().zip(span))
            .filter(|(run, _)| !run.bytes.is_empty())
            .map(|(run, r)| AioRequest {
                tag: r as u64,
                offset: run.bytes.start,
                len: (run.bytes.end - run.bytes.start) as usize,
            })
            .collect();
        let n = reqs.len() as u64;
        if n > 0 {
            self.aio.submit(reqs);
        }
        n
    }

    /// Rewind: processes every planned tile already in the cache pool —
    /// no I/O, time (T+1)0 of Figure 8 — then sheds the tiles the fresh
    /// metadata says are dead, freeing room for this iteration's stream.
    fn rewind(&mut self, sw: &mut Sweep, queries: &[&dyn Algorithm]) -> Result<()> {
        if sw.plan.rewind.is_empty() {
            return Ok(());
        }
        let t0 = self.clock();
        let resident: Vec<(u64, &[u8], u64)> = (sw.plan.rewind.iter())
            .map(|&t| {
                let bytes = self.pool.tile_data(t).expect("planned from pool");
                (t, bytes, sw.union.mask_of(t))
            })
            .collect();
        let (index, rec) = (&self.index, self.recorder.as_deref());
        let stats = &mut sw.stats;
        Self::compute_batch_multi(index, rec, &mut self.decode, queries, &resident, stats)?;
        stats.aggregate.tiles_from_cache += resident.len() as u64;
        self.count_tiles(sw, &resident, |_, s, _| s.tiles_from_cache += 1);
        self.pool.analyze(&BatchOracle {
            queries,
            active: &sw.active,
            progress: &sw.progress,
            index: &self.index,
        });
        sw.clocks.rewind = since(t0);
        Ok(())
    }

    /// Slide: streams the segments with at most two in flight — the SCR
    /// config's double buffer — so segment k+1 is on the disk while
    /// segment k's runs land (Figure 8's overlap). Runs land in
    /// completion order, not submission order; a run of empty tiles needs
    /// no I/O and lands as soon as its segment is submitted.
    fn slide(&mut self, sw: &mut Sweep, queries: &[&dyn Algorithm]) -> Result<()> {
        let t0 = self.clock();
        let mut next = 0; // segment 0's reads went out in `plan`
        loop {
            while next < sw.left.len() && sw.live < 2 {
                if next > 0 {
                    sw.stats.aggregate.io_requests += self.submit(sw, next);
                }
                sw.live += 1;
                for r in sw.segment(next) {
                    if sw.runs[r].bytes.is_empty() {
                        self.land(sw, queries, r, &[])?;
                    }
                }
                next += 1;
            }
            if sw.live == 0 {
                break;
            }
            // Wait for at least one completion, then land every run that
            // has arrived before blocking again. A dead request path is a
            // typed error distinct from a failed read: it leaves no
            // completions (and no buffers) to recover.
            let wait = self.clock();
            let arrived =
                (self.aio.poll(1, usize::MAX)).map_err(|dead| GraphError::Io(dead.into()))?;
            sw.clocks.reap += since(wait);
            for c in arrived {
                // `buf` drops after landing: its pooled buffer is recycled
                // for the next read.
                let buf = c.result.map_err(GraphError::Io)?;
                self.land(sw, queries, c.tag as usize, buf.as_slice())?;
            }
        }
        sw.clocks.slide = since(t0);
        Ok(())
    }

    /// Lands run `r`, whose bytes are `data` (empty for a run of empty
    /// tiles): processes it for every query it serves, then admits its
    /// tiles to the cache pool.
    fn land(
        &mut self,
        sw: &mut Sweep,
        queries: &[&dyn Algorithm],
        r: usize,
        data: &[u8],
    ) -> Result<()> {
        let t0 = self.clock();
        let tiles = self.process_run_multi(sw, queries, r, data)?;
        sw.clocks.land += since(t0);
        self.admit(sw, queries, &tiles);
        let seg = sw.runs[r].seg;
        sw.left[seg] -= 1;
        if sw.left[seg] == 0 {
            sw.live -= 1;
        }
        Ok(())
    }

    /// Processes one landed run for the whole query batch: each tile's
    /// `TileView` borrows its slice of the run buffer (zero copy) and goes
    /// to every query whose mask covers it. Returns the run's tiles to
    /// admit; a run holding a corrupt coded tile fails before any is.
    ///
    /// Accounting: the aggregate counts physical work (each tile/byte/run
    /// once); each query counts what it *consumed*, so per-query sums
    /// exceed the aggregate by exactly `bytes_amortized`.
    fn process_run_multi<'d>(
        &mut self,
        sw: &mut Sweep,
        queries: &[&dyn Algorithm],
        r: usize,
        data: &'d [u8],
    ) -> Result<Vec<(u64, &'d [u8], u64)>> {
        let run = &sw.runs[r];
        let tiles: Vec<(u64, &[u8], u64)> = (sw.plan.segments[run.seg][run.tiles.clone()].iter())
            .map(|&t| {
                let b = self.index.tile_byte_range(t);
                let lo = (b.start - run.bytes.start) as usize;
                let hi = lo + (b.end - b.start) as usize;
                (t, &data[lo..hi], sw.union.mask_of(t))
            })
            .collect();
        let (index, rec) = (&self.index, self.recorder.as_deref());
        Self::compute_batch_multi(index, rec, &mut self.decode, queries, &tiles, &mut sw.stats)?;
        let (mut served, mut consumed) = (0u64, 0u64);
        self.count_tiles(sw, &tiles, |q, s, len| {
            s.tiles_fetched += 1;
            s.bytes_read += len;
            served |= 1 << q;
            consumed += len;
        });
        let stats = &mut sw.stats;
        stats.aggregate.tiles_fetched += tiles.len() as u64;
        stats.aggregate.bytes_read += data.len() as u64;
        // Every landed tile serves at least one query, so what the queries
        // consumed beyond the run's bytes is what the shared scan saved.
        stats.bytes_amortized += consumed - data.len() as u64;
        if !data.is_empty() {
            // A shared run counts as one request for each query it serves;
            // the spread over the aggregate's single count is the request
            // traffic the shared scan amortized away.
            compute::for_each_bit(served, |q| stats.per_query[q].stats.io_requests += 1);
        }
        if let Some(rec) = &self.recorder {
            rec.bytes_borrowed(data.len() as u64);
        }
        Ok(tiles)
    }

    /// Admit: offers a processed run's tiles to the cache pool, in order,
    /// under the proactive policy — next-iteration metadata plus row
    /// completion (§VI.C's rules). The pool's memcpys are the only bytes
    /// the slide copies, reported to the recorder as `bytes_copied`.
    fn admit(&mut self, sw: &mut Sweep, queries: &[&dyn Algorithm], tiles: &[(u64, &[u8], u64)]) {
        if !self.config.use_scr_cache {
            return;
        }
        let t0 = self.clock();
        let copied_before = self.pool.stats().inserted_bytes;
        let oracle = BatchOracle {
            queries,
            active: &sw.active,
            progress: &sw.progress,
            index: &self.index,
        };
        for &(t, bytes, _) in tiles {
            self.pool.insert(t, bytes, &oracle);
        }
        if let Some(rec) = &self.recorder {
            rec.bytes_copied(self.pool.stats().inserted_bytes - copied_before);
        }
        sw.clocks.admit += since(t0);
    }

    /// Counts a processed batch of tiles wherever it came from: tiles
    /// processed, in the aggregate and for each query whose mask covers a
    /// tile, row progress, and the codec group's disk and logical bytes.
    /// `source(q, stats, len)` adds what depends on the tiles' source to
    /// the stats of query `q`, once per tile of `len` bytes it served.
    fn count_tiles(
        &self,
        sw: &mut Sweep,
        tiles: &[(u64, &[u8], u64)],
        mut source: impl FnMut(usize, &mut RunStats, u64),
    ) {
        sw.stats.aggregate.tiles_processed += tiles.len() as u64;
        for &(t, bytes, m) in tiles {
            compute::for_each_bit(m, |q| {
                let s = &mut sw.stats.per_query[q].stats;
                s.tiles_processed += 1;
                source(q, s, bytes.len() as u64);
            });
            sw.progress.mark(self.index.layout.coord_at(t));
        }
        if let (Some(rec), true) = (&self.recorder, self.index.is_coded()) {
            let bpe = self.index.encoding.bytes_per_edge() as u64;
            let (mut disk, mut logical) = (0u64, 0u64);
            for &(t, bytes, _) in tiles {
                disk += bytes.len() as u64;
                let t = t as usize;
                logical += (self.index.start_edge[t + 1] - self.index.start_edge[t]) * bpe;
            }
            rec.codec_tiles(tiles.len() as u64, disk, logical);
        }
    }

    /// Runs one masked batch through the shared compute dispatcher,
    /// folding per-query outcomes into each query's stats and the sum
    /// into the aggregate and the flight recorder's `compute` and `codec`
    /// groups. Takes the engine's fields one by one: callers hold borrows
    /// of the cache pool across the call.
    fn compute_batch_multi(
        index: &TileIndex,
        recorder: Option<&FlightRecorder>,
        decode: &mut DecodeStage,
        queries: &[&dyn Algorithm],
        batch: &[(u64, &[u8], u64)],
        out: &mut BatchRunStats,
    ) -> Result<()> {
        let done = compute::process_batch_queries(index, queries, batch, decode)?;
        for (q, o) in done.per_query.iter().enumerate() {
            out.per_query[q].stats.edges_processed += o.edges;
        }
        let a = done.aggregate();
        out.aggregate.edges_processed += a.edges;
        if let Some(rec) = recorder {
            rec.compute_batch(a.edges, a.plain_updates, a.groups_scheduled);
            if done.decoded_edges > 0 {
                rec.codec_decoded_edges(done.decoded_edges);
                rec.codec_decode_ns(done.decode_ns);
            }
        }
        Ok(())
    }

    /// Seam: records the finished iteration, ends every live query's
    /// iteration and detaches the converged ones; hands the run's stats
    /// back.
    fn seam(
        &self,
        mut sw: Sweep,
        batch: &mut QueryBatch<'_>,
        sweep_ns: &mut Vec<u64>,
        start: Instant,
    ) -> BatchRunStats {
        sweep_ns.push(sw.start.elapsed().as_nanos() as u64);
        if let Some(rec) = &self.recorder {
            rec.iteration_finished(sw.metrics());
            rec.query_sweep(QueryBatchSweep {
                sweep: sw.n,
                queries_active: sw.active.len() as u32,
                tiles_union: sw.union.len() as u64,
                tiles_shared: sw.union.shared_dispatches(),
                bytes_read: sw.stats.aggregate.bytes_read - sw.bytes_before.0,
                bytes_amortized: sw.stats.bytes_amortized - sw.bytes_before.1,
                sweep_ns: sweep_ns[sw.n as usize],
            });
        }
        let out = &mut sw.stats;
        out.tiles_shared += sw.union.shared_dispatches();
        out.aggregate.iterations = sw.n + 1;
        out.sweeps = sw.n + 1;
        for &q in &sw.active {
            out.per_query[q].stats.iterations = sw.n + 1;
            if batch.slots[q].end_iteration(sw.n) == IterationOutcome::Converged {
                out.per_query[q].converged = true;
                self.query_finished(q, out, sweep_ns, start.elapsed());
            }
        }
        sw.stats
    }

    /// Closes query `q`'s books `at` into the run and, when recording,
    /// files its [`QueryRecord`]. A query sweeps from sweep 0 until it
    /// detaches, so its sweeps' wall times are a prefix of `sweep_ns`.
    fn query_finished(&self, q: usize, out: &mut BatchRunStats, sweep_ns: &[u64], at: Duration) {
        let o = &mut out.per_query[q];
        o.stats.elapsed = at.as_secs_f64();
        if let Some(rec) = &self.recorder {
            rec.query_finished(QueryRecord {
                query: q as u32,
                name: o.name.clone(),
                iterations: o.stats.iterations,
                elapsed_ns: at.as_nanos() as u64,
                converged: o.converged,
                iter_ns: sweep_ns[..o.stats.iterations as usize].to_vec(),
            });
        }
    }
}

/// Tiles `alg` must process this iteration, in storage order: every tile
/// unless it is selective, else those acting on an active range. A tile
/// acts on range `row` always; on a symmetric store the same tile also
/// carries `col`-sourced edges.
pub(crate) fn select_tiles(layout: &GroupedLayout, alg: &dyn Algorithm) -> Vec<u64> {
    let all = 0..layout.tile_count();
    if !alg.selective() {
        return all.collect();
    }
    let symmetric = layout.tiling().symmetric();
    all.filter(|&i| {
        let c = layout.coord_at(i);
        alg.range_active(c.row) || (symmetric && alg.range_active(c.col))
    })
    .collect()
}

/// Nanoseconds since a [`GStoreEngine::clock`] start; 0 when not
/// recording.
fn since(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

const AIO_QUEUE_DEPTH: usize = 256;

/// Registration hints for a ring whose reads run up to `largest` bytes:
/// one buffer class per power of two from 4 KiB, then `largest` itself.
fn reg_classes(largest: usize) -> Vec<usize> {
    let largest = largest.max(4096);
    let mut lens: Vec<usize> = std::iter::successors(Some(4096), |l| Some(l * 2))
        .take_while(|&l| l < largest)
        .collect();
    lens.push(largest);
    lens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bfs, DegreeCount, PageRank, Wcc};
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use gstore_graph::{reference, Csr, CsrDirection, GraphKind};
    use gstore_io::MemBackend;
    use gstore_metrics::Counter;
    use gstore_scr::ScrConfig;
    use gstore_tile::{ConversionOptions, TileStore};

    fn kron_store(
        scale: u32,
        ef: u64,
        tile_bits: u32,
        q: u32,
    ) -> (gstore_graph::EdgeList, TileStore) {
        let el = generate_rmat(&RmatParams::kron(scale, ef)).unwrap();
        let store =
            TileStore::build(&el, &ConversionOptions::new(tile_bits).with_group_side(q)).unwrap();
        (el, store)
    }

    fn tiny(store: &TileStore) -> EngineBuilder {
        // Segments far smaller than the data force many slide phases; pool
        // holds roughly half the graph.
        let seg = (store.data_bytes() / 8).max(256);
        let total = seg * 2 + store.data_bytes() / 2 + 1024;
        GStoreEngine::builder()
            .store(store)
            .scr(ScrConfig::new(seg, total).unwrap())
            .io_workers(2)
    }

    #[test]
    fn bfs_through_full_pipeline_matches_reference() {
        let (el, store) = kron_store(9, 8, 4, 4);
        let mut engine = tiny(&store).build().unwrap();
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        let stats = engine.run(&mut bfs, 1000).unwrap();
        let want = reference::bfs_levels(&reference::bfs_csr(&el), 0);
        assert_eq!(bfs.depths(), want);
        assert!(stats.iterations > 2);
        assert!(stats.bytes_read > 0);
        assert!(stats.io_requests > 0);
    }

    #[test]
    fn pagerank_through_pipeline_matches_reference() {
        let (el, store) = kron_store(8, 6, 4, 2);
        let mut engine = tiny(&store).build().unwrap();
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let mut pr = PageRank::new(*store.layout().tiling(), deg, 0.85).with_iterations(10);
        engine.run(&mut pr, 10).unwrap();
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        let want = reference::pagerank(&csr, 10, 0.85);
        for (a, b) in pr.ranks().iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn wcc_through_pipeline_matches_reference() {
        let (el, store) = kron_store(8, 2, 4, 4);
        let mut engine = tiny(&store).build().unwrap();
        let mut wcc = Wcc::new(*store.layout().tiling());
        engine.run(&mut wcc, 1000).unwrap();
        assert_eq!(wcc.labels(), reference::wcc_labels(&el));
    }

    #[test]
    fn caching_eliminates_io_on_later_iterations() {
        // Pool big enough for the whole graph: iteration 2+ of PageRank
        // must be served entirely from cache.
        let (el, store) = kron_store(8, 6, 4, 2);
        let seg = (store.data_bytes() / 4).max(256);
        let total = seg * 2 + store.data_bytes() * 2 + 4096;
        let mut engine = GStoreEngine::builder()
            .store(&store)
            .scr(ScrConfig::new(seg, total).unwrap())
            .build()
            .unwrap();
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let iters = 5u32;
        let mut pr = PageRank::new(*store.layout().tiling(), deg, 0.85).with_iterations(iters);
        let stats = engine.run(&mut pr, iters).unwrap();
        // First iteration fetches everything once; the rest rewind.
        assert_eq!(stats.tiles_fetched, store.tile_count());
        assert_eq!(
            stats.tiles_from_cache,
            store.tile_count() * (iters as u64 - 1)
        );
    }

    #[test]
    fn base_policy_never_caches() {
        let (el, store) = kron_store(8, 6, 4, 2);
        let mut engine = GStoreEngine::builder()
            .store(&store)
            .base_policy((store.data_bytes() * 3).max(4096))
            .build()
            .unwrap();
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let mut pr = PageRank::new(*store.layout().tiling(), deg, 0.85).with_iterations(3);
        let stats = engine.run(&mut pr, 3).unwrap();
        assert_eq!(stats.tiles_from_cache, 0);
        assert_eq!(stats.tiles_fetched, store.tile_count() * 3);
    }

    #[test]
    fn zero_byte_runs_land_without_a_read() {
        // Every edge lies in the store's last tile, which is larger than a
        // segment: the plan puts all the empty tiles before it into one
        // segment of zero-byte runs (no request at all) and streams the
        // last tile alone. Those runs must land, be processed and count
        // like any other, and leave nothing in flight.
        let n = 256;
        let opts = ConversionOptions::new(4).with_group_side(2);
        let probe = gstore_graph::EdgeList::new(n, GraphKind::Undirected, vec![]).unwrap();
        let layout = TileStore::build(&probe, &opts).unwrap().layout().clone();
        let last = layout.coord_at(layout.tile_count() - 1);
        let cols = layout.tiling().partition_range(last.col);
        let edges: Vec<gstore_graph::Edge> = (layout.tiling().partition_range(last.row))
            .flat_map(|u| cols.clone().map(move |v| gstore_graph::Edge::new(u, v)))
            .filter(|e| e.src < e.dst)
            .collect();
        let el = gstore_graph::EdgeList::new(n, GraphKind::Undirected, edges).unwrap();
        let store = TileStore::build(&el, &opts).unwrap();
        let tiles = store.tile_count();
        assert_eq!(
            store.start_edge()[tiles as usize - 1],
            0,
            "edges outside the last tile"
        );
        let seg = store.data_bytes() / 2;
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let tiling = *store.layout().tiling();
        let root = layout.tiling().partition_range(last.row).start;
        let idle = |e: &GStoreEngine| {
            assert_eq!(e.aio_in_flight(), 0);
            assert_eq!(e.buffer_pool_stats().outstanding, 0);
        };
        let builder = GStoreEngine::builder().store(&store).metrics(true);
        for (cached, builder) in [
            (
                true,
                builder
                    .clone()
                    .scr(ScrConfig::new(seg, 4 * seg + 4096).unwrap()),
            ),
            (false, builder.base_policy(2 * seg)),
        ] {
            let iters = 3;
            let mut engine = builder.clone().build().unwrap();
            let mut pr = PageRank::new(tiling, deg.clone(), 0.85).with_iterations(iters);
            let s = engine.run(&mut pr, iters).unwrap();
            let csr = Csr::from_edge_list(&el, CsrDirection::Out);
            for (a, b) in pr.ranks().iter().zip(&reference::pagerank(&csr, 3, 0.85)) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
            assert_eq!(s.tiles_processed, tiles * u64::from(iters));
            // The one non-empty run is the last tile: read once, then
            // rewound from the pool, or read every sweep with no pool.
            assert_eq!(s.io_requests, if cached { 1 } else { u64::from(iters) });
            assert_eq!(s.bytes_read, s.io_requests * store.data_bytes());
            let first = &engine.metrics().unwrap().iterations[0];
            assert_eq!((first.tiles_streamed, first.runs_streamed), (tiles, 1));
            idle(&engine);

            let mut engine = builder.build().unwrap();
            let mut bfs = Bfs::new(tiling, root);
            let s = engine.run(&mut bfs, 1000).unwrap();
            assert_eq!(
                bfs.depths(),
                reference::bfs_levels(&reference::bfs_csr(&el), root)
            );
            assert!(s.io_requests >= 1);
            assert_eq!(s.bytes_read, s.io_requests * store.data_bytes());
            idle(&engine);
        }
    }

    #[test]
    fn selective_bfs_reads_less_than_full_sweeps() {
        // A graph with disconnected far-away regions: BFS from vertex 0
        // should not fetch every tile every iteration.
        let (_, store) = kron_store(10, 4, 4, 4);
        let mut engine = tiny(&store).build().unwrap();
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        let stats = engine.run(&mut bfs, 1000).unwrap();
        let full_sweeps = stats.iterations as u64 * store.tile_count();
        assert!(
            stats.tiles_processed < full_sweeps,
            "selective: {} vs full {}",
            stats.tiles_processed,
            full_sweeps
        );
    }

    #[test]
    fn degree_count_via_engine() {
        let (el, store) = kron_store(8, 4, 4, 2);
        let mut engine = tiny(&store).build().unwrap();
        let mut dc = DegreeCount::new(*store.layout().tiling());
        engine.run(&mut dc, 1).unwrap();
        let want = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        assert_eq!(dc.degrees(), want);
    }

    #[test]
    fn file_backed_run_matches_memory_run() {
        let dir = tempfile::tempdir().unwrap();
        let (el, store) = kron_store(8, 4, 4, 2);
        let paths = gstore_tile::write_store(&store, dir.path(), "g").unwrap();
        let mut engine = tiny(&store).paths(&paths).build().unwrap();
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        engine.run(&mut bfs, 1000).unwrap();
        let want = reference::bfs_levels(&reference::bfs_csr(&el), 0);
        assert_eq!(bfs.depths(), want);
    }

    #[test]
    fn completion_order_processing_matches_reference() {
        // A jittering backend + several workers permutes AIO completion
        // order away from submission order; the completion-driven slide
        // path must still produce byte-identical results for BFS and WCC
        // and reference-accurate ranks for PageRank.
        use gstore_io::JitterBackend;
        let (el, store) = kron_store(8, 4, 4, 2);
        let index = store.index();
        let make_engine = || {
            let backend = Arc::new(JitterBackend::new(
                Arc::new(MemBackend::new(store.data().to_vec())),
                300,
            ));
            tiny(&store)
                .backend(index.clone(), backend)
                .io_workers(4)
                .build()
                .unwrap()
        };

        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        make_engine().run(&mut bfs, 1000).unwrap();
        assert_eq!(
            bfs.depths(),
            reference::bfs_levels(&reference::bfs_csr(&el), 0)
        );

        let mut wcc = Wcc::new(*store.layout().tiling());
        make_engine().run(&mut wcc, 1000).unwrap();
        assert_eq!(wcc.labels(), reference::wcc_labels(&el));

        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let mut pr = PageRank::new(*store.layout().tiling(), deg, 0.85).with_iterations(10);
        make_engine().run(&mut pr, 10).unwrap();
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        for (a, b) in pr.ranks().iter().zip(&reference::pagerank(&csr, 10, 0.85)) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn io_errors_surface() {
        use gstore_io::FaultPolicy;
        let (_, store) = kron_store(8, 4, 4, 2);
        let fault = IoFaultInjector::new(FaultPolicy::EveryNth(3));
        let mut engine = tiny(&store).io_fault(fault).build().unwrap();
        let mut wcc = Wcc::new(*store.layout().tiling());
        let err = engine.run(&mut wcc, 10);
        assert!(matches!(err, Err(GraphError::Io(_))));
    }

    #[test]
    fn run_recovers_after_io_error() {
        // A mid-segment read error must not leave stale completions in the
        // AIO queue: a later run() on the same engine would consume them as
        // if they were its own reads. FirstN(1) fails exactly one read, so
        // the first run errors and the second must succeed — and match the
        // reference exactly.
        use gstore_io::FaultPolicy;
        let (el, store) = kron_store(8, 4, 4, 2);
        let fault = IoFaultInjector::new(FaultPolicy::FirstN(1));
        let mut engine = tiny(&store).io_fault(fault).build().unwrap();
        let mut wcc = Wcc::new(*store.layout().tiling());
        assert!(matches!(engine.run(&mut wcc, 1000), Err(GraphError::Io(_))));
        assert_eq!(
            engine.aio_in_flight(),
            0,
            "failed run left requests in flight"
        );
        // Pool integrity after the failure: every pooled buffer that was
        // handed to an in-flight read must have been recycled.
        let bp = engine.buffer_pool_stats();
        assert_eq!(bp.outstanding, 0, "failed run leaked pooled buffers");
        assert_eq!(bp.recycled + bp.trimmed, bp.acquires);
        let mut wcc2 = Wcc::new(*store.layout().tiling());
        engine.run(&mut wcc2, 1000).unwrap();
        assert_eq!(wcc2.labels(), reference::wcc_labels(&el));
        assert_eq!(engine.buffer_pool_stats().outstanding, 0);
    }

    #[test]
    fn auto_backend_without_file_source_selects_workers() {
        // MemBackend exposes no fd, so Auto must pick the worker pool no
        // matter what the probe says.
        let (_, store) = kron_store(8, 4, 4, 2);
        let engine = tiny(&store)
            .uring_probe_override(Some(true))
            .build()
            .unwrap();
        assert_eq!(engine.io_backend(), IoBackend::Workers);
    }

    #[test]
    fn auto_with_denied_probe_silently_selects_workers() {
        // A denied probe (injected: the host may well support io_uring)
        // must not error — Auto falls back and the run works end to end.
        let dir = tempfile::tempdir().unwrap();
        let (el, store) = kron_store(8, 4, 4, 2);
        let paths = gstore_tile::write_store(&store, dir.path(), "g").unwrap();
        let mut engine = tiny(&store)
            .paths(&paths)
            .io_backend(IoBackend::Auto)
            .uring_probe_override(Some(false))
            .build()
            .unwrap();
        assert_eq!(engine.io_backend(), IoBackend::Workers);
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        engine.run(&mut bfs, 1000).unwrap();
        assert_eq!(
            bfs.depths(),
            reference::bfs_levels(&reference::bfs_csr(&el), 0)
        );
    }

    #[test]
    fn forced_uring_without_file_source_is_a_typed_error() {
        let (_, store) = kron_store(8, 4, 4, 2);
        let err = tiny(&store)
            .io_backend(IoBackend::Uring)
            .uring_probe_override(Some(true))
            .build();
        assert!(matches!(err, Err(GraphError::InvalidParameter(_))));
    }

    #[test]
    fn forced_uring_with_denied_probe_is_a_typed_error() {
        let dir = tempfile::tempdir().unwrap();
        let (_, store) = kron_store(8, 4, 4, 2);
        let paths = gstore_tile::write_store(&store, dir.path(), "g").unwrap();
        let err = tiny(&store)
            .paths(&paths)
            .io_backend(IoBackend::Uring)
            .uring_probe_override(Some(false))
            .build();
        assert!(
            matches!(err, Err(GraphError::InvalidParameter(_))),
            "forced uring on a denied host must be a typed error, not a panic"
        );
    }

    #[test]
    fn uring_engine_run_matches_reference() {
        if !uring_available() {
            eprintln!("io_uring unavailable; skipping");
            return;
        }
        let dir = tempfile::tempdir().unwrap();
        let (el, store) = kron_store(9, 6, 4, 2);
        let paths = gstore_tile::write_store(&store, dir.path(), "u").unwrap();
        let mut engine = tiny(&store)
            .paths(&paths)
            .io_backend(IoBackend::Uring)
            .metrics(true)
            .build()
            .unwrap();
        assert_eq!(engine.io_backend(), IoBackend::Uring);
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        let stats = engine.run(&mut bfs, 1000).unwrap();
        assert_eq!(
            bfs.depths(),
            reference::bfs_levels(&reference::bfs_csr(&el), 0)
        );
        assert_eq!(engine.aio_in_flight(), 0);
        let bp = engine.buffer_pool_stats();
        assert_eq!(bp.outstanding, 0);
        let m = engine.metrics().unwrap();
        assert_eq!(m[Counter::IoBackendUringSelected], 1);
        assert_eq!(m[Counter::IoBackendUringRequests], stats.io_requests);
        assert_eq!(m[Counter::IoBackendWorkersRequests], 0);
        assert!(m[Counter::IoBackendSqeBatches] > 0);
        assert_eq!(m[Counter::IoBackendSqesSubmitted], stats.io_requests);
        assert!(m[Counter::IoBackendCqesReaped] >= stats.io_requests);
        assert_eq!(m[Counter::IoCompletions], stats.io_requests);
        assert_eq!(m[Counter::IoErrors], 0);
    }

    #[test]
    fn run_recovers_after_io_error_on_both_backends() {
        // Same failure drill as run_recovers_after_io_error, but driven by
        // the engine-level injector so it runs identically on the worker
        // pool and (when the host allows) the io_uring engine.
        use gstore_io::FaultPolicy;
        let dir = tempfile::tempdir().unwrap();
        let (el, store) = kron_store(8, 4, 4, 2);
        let paths = gstore_tile::write_store(&store, dir.path(), "g").unwrap();
        let want = reference::wcc_labels(&el);
        for backend in [IoBackend::Workers, IoBackend::Uring] {
            if backend == IoBackend::Uring && !uring_available() {
                eprintln!("io_uring unavailable; skipping uring arm");
                continue;
            }
            let fault = gstore_io::IoFaultInjector::new(FaultPolicy::FirstN(1));
            let mut engine = tiny(&store)
                .paths(&paths)
                .io_backend(backend)
                .io_fault(fault.clone())
                .build()
                .unwrap();
            assert_eq!(engine.io_backend(), backend);
            let mut wcc = Wcc::new(*store.layout().tiling());
            assert!(
                matches!(engine.run(&mut wcc, 1000), Err(GraphError::Io(_))),
                "{backend}: injected fault must surface"
            );
            assert_eq!(fault.injected(), 1, "{backend}");
            assert_eq!(engine.aio_in_flight(), 0, "{backend}: requests leaked");
            let bp = engine.buffer_pool_stats();
            assert_eq!(bp.outstanding, 0, "{backend}: pooled buffers leaked");
            assert_eq!(bp.recycled + bp.trimmed, bp.acquires, "{backend}");
            let mut wcc2 = Wcc::new(*store.layout().tiling());
            engine.run(&mut wcc2, 1000).unwrap();
            assert_eq!(wcc2.labels(), want, "{backend}");
            assert_eq!(engine.buffer_pool_stats().outstanding, 0, "{backend}");
        }
    }

    #[test]
    fn point_reader_on_uring_engine_matches_reference() {
        if !uring_available() {
            eprintln!("io_uring unavailable; skipping");
            return;
        }
        let dir = tempfile::tempdir().unwrap();
        let (el, store) = kron_store(8, 4, 4, 2);
        let paths = gstore_tile::write_store(&store, dir.path(), "pr").unwrap();
        let engine = tiny(&store)
            .paths(&paths)
            .io_backend(IoBackend::Uring)
            .point_read_cache_bytes(1 << 20)
            .metrics(true)
            .build()
            .unwrap();
        let reader = engine.point_reader();
        let csr = Csr::from_edge_list(&el, CsrDirection::Out);
        for v in 0..el.vertex_count() {
            let mut got = reader.neighbors(v).unwrap();
            got.sort_unstable();
            let mut want = csr.neighbors(v).to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "vertex {v}");
        }
        assert_eq!(reader.buffer_stats().outstanding, 0);
        let m = engine.metrics().unwrap();
        assert!(m[Counter::PointreadTilesFetched] > 0);
        // Every point-read miss is one synchronous read, counted under
        // `workers_*` though the sweeps run on the ring.
        assert_eq!(
            m[Counter::IoBackendWorkersRequests],
            m[Counter::PointreadTilesFetched]
        );
        assert_eq!(m[Counter::IoBackendUringRequests], 0);
    }

    #[test]
    fn point_reader_shares_the_engine_index() {
        let (_, store) = kron_store(8, 4, 4, 2);
        let engine = tiny(&store).build().unwrap();
        assert!(std::ptr::eq(engine.index(), engine.point_reader().index()));
    }

    #[test]
    fn point_reader_on_uring_engine_pins_no_buffers() {
        // Misses borrow from the reader's own pool as they happen; nothing
        // is allocated (or registered with a ring) up front.
        if !uring_available() {
            eprintln!("io_uring unavailable; skipping");
            return;
        }
        let dir = tempfile::tempdir().unwrap();
        let (_, store) = kron_store(8, 4, 4, 2);
        let paths = gstore_tile::write_store(&store, dir.path(), "pb").unwrap();
        let engine = tiny(&store)
            .paths(&paths)
            .io_backend(IoBackend::Uring)
            .point_read_cache_bytes(1 << 20)
            .build()
            .unwrap();
        assert_eq!(engine.point_reader().buffer_stats().pooled_bytes, 0);
    }

    #[test]
    fn point_reads_count_in_io_on_both_engines() {
        // Point misses run the engines' request life cycle whichever
        // engine was selected, so a point-only run's `io` group counts
        // exactly its tile fetches.
        let dir = tempfile::tempdir().unwrap();
        let (_, store) = kron_store(8, 4, 4, 2);
        let paths = gstore_tile::write_store(&store, dir.path(), "pc").unwrap();
        for io_backend in [IoBackend::Workers, IoBackend::Uring] {
            if io_backend == IoBackend::Uring && !uring_available() {
                eprintln!("io_uring unavailable; skipping uring arm");
                continue;
            }
            let engine = tiny(&store)
                .paths(&paths)
                .io_backend(io_backend)
                .metrics(true)
                .build()
                .unwrap();
            let reader = engine.point_reader();
            for v in 0..64 {
                reader.neighbors(v).unwrap();
            }
            let m = engine.metrics().unwrap();
            assert!(m[Counter::PointreadTilesFetched] > 0, "{io_backend}");
            assert_eq!(
                m[Counter::IoRequests],
                m[Counter::PointreadTilesFetched],
                "{io_backend}"
            );
            assert_eq!(m[Counter::IoCompletions], m[Counter::IoRequests]);
            assert_eq!(m[Counter::IoErrors], 0, "{io_backend}");
        }
    }

    #[test]
    fn base_policy_slide_path_copies_nothing() {
        // With the cache pool disabled there is no insert memcpy, so the
        // whole slide path must run at exactly zero copied bytes.
        let (el, store) = kron_store(8, 6, 4, 2);
        let mut engine = GStoreEngine::builder()
            .store(&store)
            .base_policy((store.data_bytes() * 3).max(4096))
            .metrics(true)
            .build()
            .unwrap();
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let mut pr = PageRank::new(*store.layout().tiling(), deg, 0.85).with_iterations(3);
        let stats = engine.run(&mut pr, 3).unwrap();
        let m = engine.metrics().unwrap();
        assert!(stats.bytes_read > 0);
        assert_eq!(m[Counter::CopyBytesCopied], 0);
        assert_eq!(m[Counter::CopyBytesBorrowed], stats.bytes_read);
        assert_eq!(m.value("copy.copy_fraction"), Some(0.0));
    }

    #[test]
    fn decode_scratch_stays_one_wave_whatever_the_batch() {
        // The pool holds the whole ζ store, so every iteration after the
        // first is one rewind batch of 512 Ki edges — two waves' worth. The
        // scratch is sized on the first coded batch and never again.
        let (el, store) = kron_store(15, 16, 12, 4);
        assert!(el.edge_count() >= 2 * compute::WAVE_KEYS as u64);
        let (index, data) = gstore_tile::encode_store(&store, gstore_tile::Codec::ZetaGap).unwrap();
        let seg = (data.len() as u64 / 4).max(256);
        let mut engine = GStoreEngine::builder()
            .backend(index, Arc::new(MemBackend::new(data.clone())))
            .scr(ScrConfig::new(seg, seg * 2 + data.len() as u64 * 2).unwrap())
            .build()
            .unwrap();
        assert_eq!(engine.decode.scratch_bytes(), 0);
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let mut pr = PageRank::new(*store.layout().tiling(), deg, 0.85).with_iterations(3);
        let stats = engine.run(&mut pr, 3).unwrap();
        assert_eq!(stats.tiles_from_cache, store.tile_count() * 2);
        assert_eq!(engine.decode.scratch_bytes(), compute::WAVE_KEYS * 4);

        // A raw engine never allocates it.
        let mut raw = tiny(&store).build().unwrap();
        raw.run(&mut Wcc::new(*store.layout().tiling()), 2).unwrap();
        assert_eq!(raw.decode.scratch_bytes(), 0);
    }

    #[test]
    fn recorder_reconciles_with_run_stats() {
        // The flight recorder observes the same run from below (AIO
        // completions, pool events) — its totals must reconcile with the
        // engine's own RunStats bookkeeping.
        let (el, store) = kron_store(8, 6, 4, 2);
        let mut engine = tiny(&store).metrics(true).build().unwrap();
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let mut pr = PageRank::new(*store.layout().tiling(), deg, 0.85).with_iterations(4);
        let stats = engine.run(&mut pr, 4).unwrap();
        let m = engine.metrics().expect("metrics enabled");

        assert_eq!(m.iterations.len() as u32, stats.iterations);
        assert_eq!(m[Counter::IoBytesRead], stats.bytes_read);
        assert_eq!(m[Counter::IoRequests], stats.io_requests);
        assert_eq!(m[Counter::IoCompletions], stats.io_requests);
        assert_eq!(m[Counter::IoErrors], 0);
        assert_eq!(m.tiles_rewind(), stats.tiles_from_cache);
        assert_eq!(m.tiles_streamed(), stats.tiles_fetched);
        let streamed: u64 = m.iterations.iter().map(|i| i.stream_bytes).sum();
        assert_eq!(streamed, stats.bytes_read);
        let ps = engine.pool_stats();
        use Counter::*;
        let total = |hints: [Counter; 3]| hints.iter().map(|&c| m[c]).sum::<u64>();
        let inserted = total([
            CacheInsertedNotNeeded,
            CacheInsertedUnknown,
            CacheInsertedNeeded,
        ]);
        let rejected = total([
            CacheRejectedNotNeeded,
            CacheRejectedUnknown,
            CacheRejectedNeeded,
        ]);
        let evicted = total([
            CacheEvictedNotNeeded,
            CacheEvictedUnknown,
            CacheEvictedNeeded,
        ]);
        assert_eq!(inserted, ps.inserted);
        assert_eq!(rejected, ps.rejected);
        assert_eq!(evicted, ps.evicted_not_needed + ps.evicted_unknown);
        // Zero-copy slide path: every streamed byte is processed borrowed,
        // and the only copies are the cache-insert memcpys.
        assert_eq!(m[Counter::CopyBytesBorrowed], stats.bytes_read);
        assert_eq!(m[Counter::CopyBytesCopied], ps.inserted_bytes);
        assert!(ps.inserted_bytes > 0, "run exercised the cache pool");
        // Buffer pool: recorder and pool agree; every handle came back.
        let bp = engine.buffer_pool_stats();
        assert_eq!(m[Counter::BufferPoolAcquires], bp.acquires);
        assert_eq!(m[Counter::BufferPoolHits], bp.hits);
        assert_eq!(m[Counter::BufferPoolMisses], bp.misses);
        assert_eq!(bp.acquires, bp.hits + bp.misses);
        assert_eq!(bp.outstanding, 0, "completion buffers leaked");
        assert!(bp.hits > 0, "steady-state reads should reuse buffers");
        // Completion-order bookkeeping: every iteration that streamed
        // bytes streamed at least one run.
        assert!(m
            .iterations
            .iter()
            .all(|i| i.stream_bytes == 0 || i.runs_streamed > 0));
        // Phase timings are real measurements.
        assert!(m.total_ns() > 0);
        let (select, rewind, slide, cache) = m.phase_split();
        assert!((select + rewind + slide + cache - 1.0).abs() < 1e-9);
        // Compute group reconciles with RunStats: every edge counted once,
        // and every one applied with plain writes.
        assert_eq!(m[Counter::ComputeEdgesProcessed], stats.edges_processed);
        assert!(m[Counter::ComputeShardConflictsAvoided] >= stats.edges_processed);
        assert!(m[Counter::ComputeGroupsScheduled] > 0);
        assert_eq!(
            m[Counter::ComputeLlcResidentBytes],
            crate::compute::llc_resident_estimate(engine.index())
        );
        // The JSON export is non-trivial and carries the reconciled totals.
        let json = m.to_json();
        assert!(json.contains(&format!("\"bytes_read\": {}", stats.bytes_read)));
    }

    #[test]
    fn sharded_and_atomic_engine_runs_agree() {
        // Full pipeline on the one (column-sharded) apply path, checked
        // against the CSR references: WCC labels, BFS depths and degrees
        // exactly, PageRank within FP accumulation tolerance. Every edge
        // is applied with plain writes, BFS's and degree counting's too.
        let (el, store) = kron_store(9, 8, 4, 4);
        let tiling = *store.layout().tiling();
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let run = |alg: &mut dyn Algorithm, iters: u32| {
            let mut engine = tiny(&store).metrics(true).build().unwrap();
            let stats = engine.run(alg, iters).unwrap();
            let m = engine.metrics().unwrap();
            assert!(m[Counter::ComputeShardConflictsAvoided] >= stats.edges_processed);
        };

        let mut wcc = Wcc::new(tiling);
        run(&mut wcc, 1000);
        assert_eq!(wcc.labels(), reference::wcc_labels(&el));
        let mut pr = PageRank::new(tiling, deg.clone(), 0.85).with_iterations(8);
        run(&mut pr, 8);
        let want = reference::pagerank(&Csr::from_edge_list(&el, CsrDirection::Out), 8, 0.85);
        for (s, a) in pr.ranks().iter().zip(&want) {
            assert!((s - a).abs() < 1e-9, "{s} vs {a}");
        }
        let mut bfs = Bfs::new(tiling, 0);
        run(&mut bfs, 1000);
        assert_eq!(
            bfs.depths(),
            reference::bfs_levels(&reference::bfs_csr(&el), 0)
        );
        let mut dc = DegreeCount::new(tiling);
        run(&mut dc, 1);
        assert_eq!(dc.degrees(), deg);
    }

    #[test]
    fn kcore_sharded_through_pipeline_matches_reference() {
        let (el, store) = kron_store(8, 6, 4, 2);
        let mut engine = tiny(&store).build().unwrap();
        let mut kc = crate::algorithms::KCore::new(*store.layout().tiling(), 3);
        engine.run(&mut kc, 1000).unwrap();
        assert_eq!(
            kc.membership(),
            crate::algorithms::kcore::kcore_reference(&el, 3)
        );
    }

    #[test]
    fn group_major_schedule_improves_llc_reuse() {
        // Validate the §V.A working-set claim with the cache simulator:
        // touching each tile's row/col metadata in linear (group-major)
        // order misses less than a column-major sweep of the same tiles,
        // because a group's q×q tiles reuse the same q partition ranges.
        use gstore_cachesim::{CacheConfig, CacheSim};
        let (_, store) = kron_store(10, 8, 4, 4);
        let layout = store.layout();
        let tiling = layout.tiling();
        let span = tiling.tile_span();
        // Model an LLC far smaller than the full metadata footprint (the
        // scale-10 metadata is 16 KB here) so capacity misses are visible:
        // 4 KB holds ~2 groups' worth of partition ranges.
        let run_order = |tiles: &[u64]| {
            let mut sim = CacheSim::new(CacheConfig {
                size_bytes: 4 << 10,
                line_bytes: 64,
                ways: 8,
            })
            .unwrap();
            for &t in tiles {
                let c = layout.coord_at(t);
                // One metadata touch per vertex of the tile's row and
                // column ranges, 16 bytes each (rank+next or label pairs).
                for p in [c.row, c.col] {
                    let base = u64::from(p) * span * 16;
                    for off in (0..span * 16).step_by(64) {
                        sim.access(base + off);
                    }
                }
            }
            sim.stats().misses
        };
        let linear: Vec<u64> = (0..layout.tile_count()).collect();
        // Column-major: sweep by grid column, ignoring groups entirely.
        let mut by_col = linear.clone();
        by_col.sort_by_key(|&t| {
            let c = layout.coord_at(t);
            (c.col, c.row)
        });
        let miss_linear = run_order(&linear);
        let miss_col = run_order(&by_col);
        assert!(
            miss_linear < miss_col,
            "group-major order should miss less: {miss_linear} vs {miss_col}"
        );
    }

    #[test]
    fn metrics_absent_when_disabled() {
        let (_, store) = kron_store(8, 4, 4, 2);
        let mut engine = tiny(&store).build().unwrap();
        let mut wcc = Wcc::new(*store.layout().tiling());
        engine.run(&mut wcc, 10).unwrap();
        assert!(engine.metrics().is_none());
    }

    #[test]
    fn backend_shorter_than_index_rejected() {
        let (_, store) = kron_store(8, 4, 4, 2);
        let index = store.index();
        let backend = Arc::new(MemBackend::new(vec![0u8; 4]));
        assert!(tiny(&store).backend(index, backend).build().is_err());
    }

    #[test]
    fn zero_max_iters_is_a_noop() {
        let (_, store) = kron_store(8, 4, 4, 2);
        let mut engine = tiny(&store).build().unwrap();
        let mut wcc = Wcc::new(*store.layout().tiling());
        let stats = engine.run(&mut wcc, 0).unwrap();
        assert_eq!(stats.iterations, 0);
        assert_eq!(stats.tiles_processed, 0);
        assert_eq!(stats.bytes_read, 0);
    }

    #[test]
    fn pool_stats_reflect_activity() {
        let (el, store) = kron_store(8, 6, 4, 2);
        let mut engine = tiny(&store).build().unwrap();
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let mut pr = PageRank::new(*store.layout().tiling(), deg, 0.85).with_iterations(3);
        engine.run(&mut pr, 3).unwrap();
        let ps = engine.pool_stats();
        assert!(ps.inserted > 0);
        // Pool is half the data: some inserts must have been rejected.
        assert!(ps.rejected > 0);
    }

    #[test]
    fn selective_bfs_matches_in_memory_runner() {
        let (_, store) = kron_store(9, 6, 4, 2);
        let tiling = *store.layout().tiling();
        let mut engine = tiny(&store).build().unwrap();
        let mut bfs = Bfs::new(tiling, 0);
        let stats = engine.run(&mut bfs, 1000).unwrap();
        assert!(stats.iterations > 3);
        // The selective engine path must match the in-memory runner
        // exactly (same iterations, same depths).
        let mut reference = Bfs::new(tiling, 0);
        let ref_stats = crate::inmem::run_in_memory(&store, &mut reference, 1000);
        assert_eq!(stats.iterations, ref_stats.iterations);
        assert_eq!(bfs.depths(), reference.depths());
    }

    #[test]
    fn directed_graph_full_pipeline() {
        let el = generate_rmat(&RmatParams::kron(8, 6).with_kind(GraphKind::Directed)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(4).with_group_side(2)).unwrap();
        let mut engine = tiny(&store).build().unwrap();
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        engine.run(&mut bfs, 1000).unwrap();
        let want = reference::bfs_levels(&reference::bfs_csr(&el), 0);
        assert_eq!(bfs.depths(), want);
    }

    #[test]
    fn single_query_batch_equals_plain_run() {
        // run() *is* a one-query batch; a hand-built K=1 batch on a fresh
        // engine must report the same counters and the batch aggregate
        // must equal the per-query view (nothing is shared with K=1).
        let (_, store) = kron_store(9, 8, 4, 4);
        let mut engine = tiny(&store).build().unwrap();
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        let solo = engine.run(&mut bfs, 1000).unwrap();

        let mut engine = tiny(&store).build().unwrap();
        let mut bfs_b = Bfs::new(*store.layout().tiling(), 0);
        let mut batch = QueryBatch::new();
        batch.push(&mut bfs_b).unwrap();
        let out = engine.run_batch(&mut batch, 1000).unwrap();

        assert_eq!(out.per_query.len(), 1);
        assert!(out.per_query[0].converged);
        assert_eq!(out.per_query[0].name, "bfs");
        assert_eq!(out.tiles_shared, 0);
        assert_eq!(out.bytes_amortized, 0);
        assert!((out.read_amortization() - 1.0).abs() < 1e-12);
        let strip = |mut s: RunStats| {
            s.elapsed = 0.0;
            s
        };
        assert_eq!(strip(out.aggregate.clone()), strip(solo));
        assert_eq!(
            strip(out.per_query[0].stats.clone()),
            strip(out.aggregate.clone())
        );
        assert_eq!(bfs_b.depths(), bfs.depths());
    }

    #[test]
    fn mixed_batch_matches_sequential_runs() {
        // The tentpole correctness claim: a K-query mixed batch (BFS roots
        // + WCC + KCore + PageRank) produces the same per-query results as
        // K sequential runs. Integer metadata must be bitwise identical —
        // the sharded path's per-partition write order is ascending tile
        // order regardless of co-scheduled queries — and PageRank's f64
        // ranks agree within accumulation tolerance.
        let (el, store) = kron_store(9, 8, 4, 4);
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let tiling = *store.layout().tiling();

        let mut bfs0_s = Bfs::new(tiling, 0);
        let mut bfs7_s = Bfs::new(tiling, 7);
        let mut wcc_s = Wcc::new(tiling);
        let mut kc_s = crate::KCore::new(tiling, 3);
        let mut pr_s = PageRank::new(tiling, deg.clone(), 0.85).with_iterations(10);
        let mut seq_stats = Vec::new();
        let algs: Vec<&mut dyn Algorithm> =
            vec![&mut bfs0_s, &mut bfs7_s, &mut wcc_s, &mut kc_s, &mut pr_s];
        for alg in algs {
            let mut engine = tiny(&store).build().unwrap();
            seq_stats.push(engine.run(alg, 1000).unwrap());
        }

        let mut bfs0 = Bfs::new(tiling, 0);
        let mut bfs7 = Bfs::new(tiling, 7);
        let mut wcc = Wcc::new(tiling);
        let mut kc = crate::KCore::new(tiling, 3);
        let mut pr = PageRank::new(tiling, deg, 0.85).with_iterations(10);
        let mut engine = tiny(&store).build().unwrap();
        let mut batch = QueryBatch::new();
        batch.push(&mut bfs0).unwrap();
        batch.push(&mut bfs7).unwrap();
        batch.push(&mut wcc).unwrap();
        batch.push(&mut kc).unwrap();
        batch.push(&mut pr).unwrap();
        let out = engine.run_batch(&mut batch, 1000).unwrap();

        assert!(out.all_converged());
        assert_eq!(bfs0.depths(), bfs0_s.depths());
        assert_eq!(bfs7.depths(), bfs7_s.depths());
        assert_eq!(wcc.labels(), wcc_s.labels());
        assert_eq!(kc.membership(), kc_s.membership());
        for (a, b) in pr.ranks().iter().zip(pr_s.ranks()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // Each query's iteration count and edge consumption match its
        // sequential run (convergence is per-query, not batch-global) —
        // for BFS and PageRank. How many sweeps WCC and k-core take to
        // reach their fixed point depends on which shard's writes a
        // concurrent read sees on >= 2 threads; only the fixed point
        // itself, pinned above, is theirs to keep.
        for (q, s) in out.per_query.iter().zip(&seq_stats) {
            if matches!(q.name.as_str(), "bfs" | "pagerank") {
                assert_eq!(q.stats.iterations, s.iterations, "{}", q.name);
                assert_eq!(q.stats.edges_processed, s.edges_processed, "{}", q.name);
            }
        }
        // The shared scan amortized I/O: the batch read fewer bytes than
        // the sequential runs combined, and the books balance.
        let seq_bytes: u64 = seq_stats.iter().map(|s| s.bytes_read).sum();
        assert!(out.aggregate.bytes_read < seq_bytes);
        assert!(out.tiles_shared > 0);
        assert!(out.bytes_amortized > 0);
        assert!(out.read_amortization() > 1.0);
    }

    #[test]
    fn batch_accounting_identities_hold() {
        // Σ_q tiles − aggregate.tiles == tiles_shared and
        // Σ_q bytes − aggregate.bytes == bytes_amortized, and the
        // query_batch recorder group reconciles against both.
        let (el, store) = kron_store(8, 6, 4, 2);
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let tiling = *store.layout().tiling();
        let mut engine = tiny(&store).metrics(true).build().unwrap();
        let mut bfs = Bfs::new(tiling, 0);
        let mut wcc = Wcc::new(tiling);
        let mut pr = PageRank::new(tiling, deg, 0.85).with_iterations(5);
        let mut batch = QueryBatch::new();
        batch.push(&mut bfs).unwrap();
        batch.push(&mut wcc).unwrap();
        batch.push(&mut pr).unwrap();
        let out = engine.run_batch(&mut batch, 1000).unwrap();

        let per_tiles: u64 = out.per_query.iter().map(|q| q.stats.tiles_processed).sum();
        let per_bytes: u64 = out.per_query.iter().map(|q| q.stats.bytes_read).sum();
        let per_edges: u64 = out.per_query.iter().map(|q| q.stats.edges_processed).sum();
        assert_eq!(
            per_tiles - out.aggregate.tiles_processed,
            out.tiles_shared,
            "tile dispatch books must balance"
        );
        assert_eq!(
            per_bytes - out.aggregate.bytes_read,
            out.bytes_amortized,
            "byte books must balance"
        );
        assert_eq!(per_edges, out.aggregate.edges_processed);

        let m = engine.metrics().expect("metrics enabled");
        let sum = |f: fn(&QueryBatchSweep) -> u64| m.sweeps.iter().map(f).sum::<u64>();
        assert_eq!(m.queries.len(), 3);
        assert_eq!(m.sweeps.len() as u32, out.sweeps);
        assert_eq!(sum(|s| s.bytes_amortized), out.bytes_amortized);
        assert_eq!(sum(|s| s.bytes_read), out.aggregate.bytes_read);
        assert_eq!(m.sweeps.iter().map(|s| s.queries_active).max(), Some(3));
        // Records land in detach order; match them back by slot index.
        for rec in &m.queries {
            let q = &out.per_query[rec.query as usize];
            assert_eq!(rec.name, q.name);
            assert_eq!(rec.iterations, q.stats.iterations);
            assert_eq!(rec.converged, q.converged);
            assert_eq!(rec.iter_ns.len() as u32, rec.iterations);
        }
        // tiles_shared in the recorder includes cached re-dispatches, same
        // as the run's own ledger.
        assert_eq!(sum(|s| s.tiles_shared), out.tiles_shared);
        let json = m.to_json();
        assert!(json.contains("\"query_batch\""));
        assert!(json.contains("\"queries_active\""));
    }

    #[test]
    fn converged_queries_detach_from_the_union() {
        // BFS finishes in a handful of sweeps; PageRank runs 10. After the
        // BFS detaches, its selective frontier stops inflating the union,
        // and it is never dispatched again (its iteration count freezes).
        let (el, store) = kron_store(9, 8, 4, 4);
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let tiling = *store.layout().tiling();
        let mut engine = tiny(&store).metrics(true).build().unwrap();
        let mut bfs = Bfs::new(tiling, 0);
        let mut pr = PageRank::new(tiling, deg, 0.85).with_iterations(10);
        let mut batch = QueryBatch::new();
        batch.push(&mut bfs).unwrap();
        batch.push(&mut pr).unwrap();
        let out = engine.run_batch(&mut batch, 1000).unwrap();
        assert!(out.all_converged());
        assert_eq!(out.per_query[1].stats.iterations, 10);
        assert!(out.per_query[0].stats.iterations < 10, "bfs detaches early");
        assert_eq!(out.sweeps, 10);
        // Recorder agrees: once one query remains, sweeps run at
        // queries_active == 1.
        let m = engine.metrics().unwrap();
        let actives: Vec<u32> = m.sweeps.iter().map(|s| s.queries_active).collect();
        assert_eq!(actives[0], 2);
        assert_eq!(*actives.last().unwrap(), 1);
        assert!(actives.windows(2).all(|w| w[0] >= w[1]), "{actives:?}");
    }

    #[test]
    fn empty_and_oversized_batches() {
        let (_, store) = kron_store(7, 4, 4, 2);
        let mut engine = tiny(&store).build().unwrap();
        let mut batch = QueryBatch::new();
        let out = engine.run_batch(&mut batch, 10).unwrap();
        assert_eq!(out.sweeps, 0);
        assert!(out.per_query.is_empty());

        let tiling = *store.layout().tiling();
        let mut algs: Vec<Wcc> = (0..QueryBatch::MAX_QUERIES + 1)
            .map(|_| Wcc::new(tiling))
            .collect();
        let mut batch = QueryBatch::new();
        let mut err = None;
        for alg in &mut algs {
            if let Err(e) = batch.push(alg) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(
            err,
            Some(gstore_graph::GraphError::InvalidParameter(_))
        ));
        assert_eq!(batch.len(), QueryBatch::MAX_QUERIES);
    }
}
