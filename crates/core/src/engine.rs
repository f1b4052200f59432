//! The G-Store engine: semi-external tile processing with selective AIO
//! and Slide-Cache-Rewind memory management (§III, §V–VI).
//!
//! Per iteration the engine:
//! 1. asks the algorithm which vertex ranges are active (selective I/O),
//! 2. *rewinds*: processes every needed tile already in the cache pool —
//!    no I/O (time (T+1)0 of Figure 8),
//! 3. *slides*: streams the remaining tiles in segment-sized AIO batches,
//!    double-buffered so segment k+1 is in flight while k is processed,
//! 4. *caches*: inserts processed tiles into the pool under the proactive
//!    policy, driven by next-iteration metadata plus row-completion
//!    tracking (§VI.C's rules).
//!
//! Contiguous tiles are merged into single AIO requests — the paper's
//! batching of group reads into one `io_submit`.

use crate::algorithm::{Algorithm, IterationOutcome, RunStats, UpdateMode};
use crate::compute::{self, DecodeStage, QueryRef};
use crate::query::{BatchRunStats, QueryBatch, QueryOutcome};
use gstore_graph::{GraphError, Result};
use gstore_io::{
    uring_available, AioEngine, AioRequest, FileBackend, IoBackend, IoEngine, IoFaultInjector,
    MemBackend, StorageBackend, UringEngine,
};
use gstore_metrics::{
    EngineMetrics, FlightRecorder, IterationMetrics, QueryBatchSweep, QueryRecord, Recorder,
};
use gstore_scr::{plan, CacheHint, CacheOracle, CachePool, RowProgress, ScrConfig, UnionFrontier};
use gstore_tile::{TileIndex, TilePaths, TileStore};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The builder's validated output, fixed for the engine's lifetime.
#[derive(Clone, Copy)]
struct EngineConfig {
    /// Memory budget (segments + cache pool).
    scr: ScrConfig,
    /// When false, runs the Figure 13 "base policy": two big segments,
    /// no cache pool, no rewind.
    use_scr_cache: bool,
    /// AIO worker threads.
    io_workers: usize,
    /// Record per-phase timings, I/O counters and cache behaviour into a
    /// flight recorder, exposed via [`GStoreEngine::metrics`]. Off by
    /// default: the disabled path takes no timestamps and no locks.
    metrics: bool,
    /// Use the column-sharded (contention-free plain-write) compute
    /// executor for algorithms whose [`Algorithm::update_mode`] opts in.
    /// When false every batch takes the atomic fallback, the reference
    /// the sharded path is tested against.
    sharded_updates: bool,
    /// Hot-tile cache capacity for readers from
    /// [`GStoreEngine::point_reader`] (0 = no cache: every point read
    /// fetches from storage).
    point_read_cache_bytes: u64,
    /// Which I/O engine to construct: the pread worker pool, raw
    /// io_uring, or a runtime-probed choice between them.
    io_backend: IoBackend,
}

/// Where an [`EngineBuilder`] gets its graph.
#[derive(Clone)]
enum BuilderSource {
    None,
    /// The two on-disk files; opened at [`EngineBuilder::build`] time.
    Paths(TilePaths),
    /// An index plus any storage backend (files, memory, simulators,
    /// fault injectors). [`EngineBuilder::store`] resolves to this too.
    Backend {
        index: TileIndex,
        backend: Arc<dyn StorageBackend>,
    },
}

/// The memory policy an [`EngineBuilder`] runs under.
#[derive(Clone)]
enum BuilderPolicy {
    None,
    /// Full Slide-Cache-Rewind: streaming segments + proactive cache pool.
    Scr(ScrConfig),
    /// Figure 13's baseline: two big segments, no cache pool, no rewind.
    /// Validated (and split into segments) at build time.
    Base(u64),
}

/// Typed builder for [`GStoreEngine`] — the one blessed way to construct
/// an engine. A build needs exactly two decisions, each stated once:
///
/// * a **source**: [`EngineBuilder::paths`] (the two on-disk files),
///   [`EngineBuilder::store`] (an in-memory [`TileStore`]), or
///   [`EngineBuilder::backend`] (any [`StorageBackend`]: simulated
///   arrays, fault injection, tiering);
/// * a **memory policy**: [`EngineBuilder::scr`] (explicit
///   [`ScrConfig`]) or [`EngineBuilder::base_policy`] (Figure 13's
///   cache-less baseline, sized from a total byte budget).
///
/// Everything else is an optional knob with a sensible default.
/// Validation happens once, at [`EngineBuilder::build`]: a missing
/// source or policy, zero workers, or an undersized backend all fail
/// there with a typed [`GraphError`].
///
/// ```
/// use gstore_core::{Bfs, GStoreEngine};
/// use gstore_graph::gen::{generate_rmat, RmatParams};
/// use gstore_scr::ScrConfig;
/// use gstore_tile::{ConversionOptions, TileStore};
///
/// let el = generate_rmat(&RmatParams::kron(9, 8)).unwrap();
/// let store = TileStore::build(&el, &ConversionOptions::new(5)).unwrap();
/// let mut engine = GStoreEngine::builder()
///     .store(&store)
///     .scr(ScrConfig::new(16 << 10, 256 << 10).unwrap())
///     .io_workers(2)
///     .build()
///     .unwrap();
/// let mut bfs = Bfs::new(*store.layout().tiling(), 0);
/// let stats = engine.run(&mut bfs, 1000).unwrap();
/// assert!(stats.bytes_read > 0);
/// ```
#[derive(Clone)]
pub struct EngineBuilder {
    source: BuilderSource,
    policy: BuilderPolicy,
    io_workers: usize,
    metrics: bool,
    sharded_updates: bool,
    point_read_cache_bytes: u64,
    io_backend: IoBackend,
    io_fault: Option<IoFaultInjector>,
    uring_probe_override: Option<bool>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            source: BuilderSource::None,
            policy: BuilderPolicy::None,
            io_workers: 4,
            metrics: false,
            sharded_updates: true,
            point_read_cache_bytes: 0,
            io_backend: IoBackend::Auto,
            io_fault: None,
            uring_probe_override: None,
        }
    }
}

impl EngineBuilder {
    /// Source: a stored graph's two files, opened at build time.
    pub fn paths(mut self, paths: &TilePaths) -> Self {
        self.source = BuilderSource::Paths(paths.clone());
        self
    }

    /// Source: an in-memory store, served through a memory backend so the
    /// full pipeline — AIO, segments, pool — still executes (tests,
    /// experiments).
    pub fn store(mut self, store: &TileStore) -> Self {
        let index = TileIndex::raw(
            store.layout().clone(),
            store.encoding(),
            store.start_edge().to_vec(),
        );
        self.source = BuilderSource::Backend {
            index,
            backend: Arc::new(MemBackend::new(store.data().to_vec())),
        };
        self
    }

    /// Source: an explicit index over any storage backend (simulated
    /// arrays, fault injection, tiered storage, ...).
    pub fn backend(mut self, index: TileIndex, backend: Arc<dyn StorageBackend>) -> Self {
        self.source = BuilderSource::Backend { index, backend };
        self
    }

    /// Memory policy: full Slide-Cache-Rewind under an explicit
    /// [`ScrConfig`] (streaming segments + proactive cache pool).
    pub fn scr(mut self, config: ScrConfig) -> Self {
        self.policy = BuilderPolicy::Scr(config);
        self
    }

    /// Memory policy: the Figure 13 baseline — the whole `total_bytes`
    /// budget goes to two big streaming segments, no cache pool, no
    /// rewind. Validated at build time.
    pub fn base_policy(mut self, total_bytes: u64) -> Self {
        self.policy = BuilderPolicy::Base(total_bytes);
        self
    }

    /// AIO worker threads (default 4; must be at least 1).
    pub fn io_workers(mut self, workers: usize) -> Self {
        self.io_workers = workers;
        self
    }

    /// Record per-phase timings, I/O counters, cache behaviour and
    /// query-batch sharing into a flight recorder, exposed via
    /// [`GStoreEngine::metrics`] (default false: the disabled path takes
    /// no timestamps and no locks).
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Use the column-sharded (contention-free plain-write) compute
    /// executor for algorithms that opt in (default true; `false` forces
    /// the atomic fallback everywhere, the reference path the sharded
    /// executor is checked against).
    pub fn sharded_updates(mut self, enabled: bool) -> Self {
        self.sharded_updates = enabled;
        self
    }

    /// Hot-tile cache capacity for point readers handed out by
    /// [`GStoreEngine::point_reader`] (default 0: no cache, every point
    /// read fetches from storage). Sized independently of the SCR budget —
    /// point-read traffic is recency-skewed, sweep traffic is plan-driven.
    pub fn point_read_cache_bytes(mut self, bytes: u64) -> Self {
        self.point_read_cache_bytes = bytes;
        self
    }

    /// Which I/O engine to construct (default [`IoBackend::Auto`]):
    ///
    /// * `Auto` — probe `io_uring_setup` once; use the io_uring engine
    ///   when the probe succeeds **and** the source is file-backed,
    ///   otherwise silently use the pread worker pool. Every pipeline
    ///   behaves identically on either engine.
    /// * `Workers` — always the worker pool.
    /// * `Uring` — require io_uring; [`EngineBuilder::build`] fails with
    ///   a typed [`GraphError::InvalidParameter`] when the host denies it
    ///   or the backend exposes no file descriptor.
    pub fn io_backend(mut self, backend: IoBackend) -> Self {
        self.io_backend = backend;
        self
    }

    /// Inject faults at the request path per the injector's policy
    /// (failure testing): sweep reads on whichever engine was selected and
    /// the misses of every [`GStoreEngine::point_reader`] all pass through
    /// this one seam. Keep a clone of the injector to observe its
    /// counters.
    pub fn io_fault(mut self, fault: IoFaultInjector) -> Self {
        self.io_fault = Some(fault);
        self
    }

    /// Overrides the io_uring availability probe (tests: force the
    /// `Auto`/`Uring` selection logic down either path regardless of what
    /// the host actually supports). `false` behaves exactly like a kernel
    /// that denies `io_uring_setup`.
    pub fn uring_probe_override(mut self, available: Option<bool>) -> Self {
        self.uring_probe_override = available;
        self
    }

    /// Validates the configuration and constructs the engine.
    pub fn build(self) -> Result<GStoreEngine> {
        if self.io_workers == 0 {
            return Err(GraphError::InvalidParameter(
                "engine needs at least one I/O worker".into(),
            ));
        }
        let (scr, use_scr_cache) = match self.policy {
            BuilderPolicy::None => {
                return Err(GraphError::InvalidParameter(
                    "engine builder needs a memory policy: scr(..) or base_policy(..)".into(),
                ))
            }
            BuilderPolicy::Scr(c) => (c, true),
            BuilderPolicy::Base(total) => (ScrConfig::base_policy(total)?, false),
        };
        let config = EngineConfig {
            scr,
            use_scr_cache,
            io_workers: self.io_workers,
            metrics: self.metrics,
            sharded_updates: self.sharded_updates,
            point_read_cache_bytes: self.point_read_cache_bytes,
            io_backend: self.io_backend,
        };
        let (index, backend) = match self.source {
            BuilderSource::None => {
                return Err(GraphError::InvalidParameter(
                    "engine builder needs a source: paths(..), store(..) or backend(..)".into(),
                ))
            }
            BuilderSource::Paths(p) => {
                let index = TileIndex::read(&p.start)?;
                let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&p.tiles)?);
                (index, backend)
            }
            BuilderSource::Backend { index, backend } => (index, backend),
        };
        GStoreEngine::construct(
            index,
            backend,
            config,
            self.io_fault,
            self.uring_probe_override,
        )
    }
}

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
    queries: &'a [QueryRef<'a>],
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
        if self.active.iter().any(|&q| {
            rows.iter()
                .any(|&r| self.queries[q].alg.range_active_next(r))
        }) {
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
/// and processed as a unit when its completion arrives. `tiles` indexes
/// into the segment's tile list; `tag` (the first tile's linear index,
/// unique per iteration) links the AIO completion back to this span.
#[derive(Debug, Clone)]
struct RunSpan {
    tag: u64,
    offset: u64,
    len: usize,
    tiles: Range<usize>,
}

impl GStoreEngine {
    /// Starts a typed [`EngineBuilder`] — the one blessed way to construct
    /// an engine. Pick a source (`paths` / `store` / `backend`), a memory
    /// policy (`scr` / `base_policy`), optionally tweak knobs, `build()`.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    fn construct(
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
                false, // buffered reads
                false, // no SQPOLL thread
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
            false, // buffered reads
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
        let k = batch.len();
        let mut out = BatchRunStats::default();
        if k == 0 {
            return Ok(out);
        }
        let recording = self.recorder.is_some();
        if let Some(rec) = &self.recorder {
            rec.compute_llc_estimate(compute::llc_resident_estimate(&self.index));
        }
        let mut agg = RunStats::default();
        let mut per: Vec<RunStats> = vec![RunStats::default(); k];
        let mut converged = vec![false; k];
        let mut iter_ns: Vec<Vec<u64>> = vec![Vec::new(); k];
        for sweep in 0..max_iters {
            let iter_start = Instant::now();
            let active: Vec<usize> = (0..k).filter(|&q| !converged[q]).collect();
            for &q in &active {
                // Every query joins at sweep 0 and detaches forever on
                // convergence, so its own iteration counter is the sweep.
                batch.slots[q].begin_iteration(sweep);
            }
            // The union frontier: detached queries contribute an empty
            // set, keeping every slot's mask bit position stable.
            let needed_sets: Vec<Vec<u64>> = (0..k)
                .map(|q| {
                    if converged[q] {
                        Vec::new()
                    } else {
                        self.select_tiles(&*batch.slots[q])
                    }
                })
                .collect();
            let union = UnionFrontier::merge(&needed_sets);
            let mut progress = RowProgress::new(&self.index.layout, union.tiles().iter().copied());
            let scr_plan = plan(&self.config.scr, union.tiles(), &self.pool, |t| {
                let r = self.index.tile_byte_range(t);
                r.end - r.start
            });
            let select_done = Instant::now();

            // Immutable query views for the sweep's shared phases; the
            // engine-level force-atomic knob is resolved here so the
            // compute dispatcher sees one mode per slot.
            let queries: Vec<QueryRef<'_>> = batch
                .slots
                .iter()
                .map(|s| QueryRef {
                    alg: &**s,
                    mode: if self.config.sharded_updates {
                        s.update_mode()
                    } else {
                        UpdateMode::Atomic
                    },
                })
                .collect();
            let bytes_before = agg.bytes_read;
            let amortized_before = out.bytes_amortized;

            // Kick off the first segment's I/O *before* the rewind phase
            // so disk work overlaps cached-data processing — Figure 8's
            // (T+1)0/(T+1)1 timeline. The run plan is computed once here
            // and shared by submission and completion handling.
            let segments = &scr_plan.segments;
            let seg_runs: Vec<Vec<RunSpan>> = segments.iter().map(|s| self.plan_runs(s)).collect();
            if let Some(first) = seg_runs.first() {
                agg.io_requests += self.submit_runs(first) as u64;
            }

            // --- Rewind: cached tiles first, no further I/O. ---
            if !scr_plan.rewind.is_empty() {
                let resident: Vec<(u64, &[u8], u64)> = scr_plan
                    .rewind
                    .iter()
                    .map(|&t| {
                        (
                            t,
                            self.pool.tile_data(t).expect("planned from pool"),
                            union.mask_of(t),
                        )
                    })
                    .collect();
                if let Err(e) = Self::compute_batch_multi(
                    &self.index,
                    self.recorder.as_deref(),
                    &mut self.decode,
                    &queries,
                    &resident,
                    &mut agg,
                    &mut per,
                ) {
                    // The first segment's reads are already out: reap
                    // them, as a failed slide does.
                    let _ = self.aio.drain();
                    return Err(e);
                }
                agg.tiles_from_cache += resident.len() as u64;
                agg.tiles_processed += resident.len() as u64;
                if let Some(rec) = &self.recorder {
                    if self.index.is_coded() {
                        let bpe = self.index.encoding.bytes_per_edge() as u64;
                        let (mut disk, mut logical) = (0u64, 0u64);
                        for &(t, bytes, _) in &resident {
                            disk += bytes.len() as u64;
                            let t = t as usize;
                            logical +=
                                (self.index.start_edge[t + 1] - self.index.start_edge[t]) * bpe;
                        }
                        rec.codec_tiles(resident.len() as u64, disk, logical);
                    }
                }
                for &(t, _, m) in &resident {
                    compute::for_each_bit(m, |q| {
                        per[q].tiles_from_cache += 1;
                        per[q].tiles_processed += 1;
                    });
                    progress.mark(self.index.layout.coord_at(t));
                }
                // Post-rewind analysis: shed tiles the fresh metadata says
                // are dead, freeing room for this iteration's stream.
                let oracle = BatchOracle {
                    queries: &queries,
                    active: &active,
                    progress: &progress,
                    index: &self.index,
                };
                self.pool.analyze(&oracle);
            }
            let rewind_done = Instant::now();

            // --- Slide: completion-driven segment streaming. ---
            //
            // Runs are processed the moment their read completes — in
            // completion order, not submission order — with tile views
            // borrowing slices of the pooled completion buffer (no
            // per-tile copy). At most two segments have I/O in flight at
            // once, matching the SCR config's double-buffer memory budget:
            // segment k+1 is on the disk while segment k's completions are
            // still being computed on (Figure 8's overlap).
            let mut io_wait_ns = 0u64;
            let mut cache_insert_ns = 0u64;
            let mut slide_compute_ns = 0u64;
            let mut runs_streamed = 0u64;
            if !segments.is_empty() {
                // tag -> (segment, run slot) for every read in flight.
                let mut pending: HashMap<u64, (usize, usize)> = HashMap::new();
                let mut seg_left: Vec<usize> = seg_runs.iter().map(|r| r.len()).collect();
                let mut pending_io = 0usize;
                let mut next_submit = 1usize; // segment 0 went out pre-rewind
                let mut done_segs = 0usize;
                let mut to_activate = vec![0usize];
                let mut failed: Option<GraphError> = None;
                'slide: while done_segs < segments.len() {
                    // Register newly-submitted segments. Runs of zero-byte
                    // tiles have no I/O and are processed here directly.
                    while let Some(k) = to_activate.pop() {
                        for (ri, run) in seg_runs[k].iter().enumerate() {
                            if run.len == 0 {
                                let run_tiles = &segments[k][run.tiles.clone()];
                                let (c_ns, i_ns) = match self.process_run_multi(
                                    &queries,
                                    &active,
                                    &union,
                                    &mut progress,
                                    &mut agg,
                                    &mut per,
                                    &mut out.bytes_amortized,
                                    run_tiles,
                                    &[],
                                    run.offset,
                                    recording,
                                ) {
                                    Ok(ns) => ns,
                                    Err(e) => {
                                        failed = Some(e);
                                        break 'slide;
                                    }
                                };
                                slide_compute_ns += c_ns;
                                cache_insert_ns += i_ns;
                                seg_left[k] -= 1;
                            } else {
                                pending.insert(run.tag, (k, ri));
                                pending_io += 1;
                            }
                        }
                        if seg_left[k] == 0 {
                            done_segs += 1;
                        }
                    }
                    if done_segs == segments.len() {
                        break;
                    }
                    // Prefetch: keep a second segment in flight while this
                    // one completes.
                    if next_submit < segments.len() && next_submit - done_segs < 2 {
                        agg.io_requests += self.submit_runs(&seg_runs[next_submit]) as u64;
                        to_activate.push(next_submit);
                        next_submit += 1;
                        continue;
                    }
                    // Wait for at least one completion, then process every
                    // run that has landed before blocking again.
                    let wait_start = Instant::now();
                    let completions = match self.aio.poll(1, pending_io.max(1)) {
                        Ok(c) => c,
                        Err(dead) => {
                            // Typed worker-pool loss — distinct from a
                            // failed read below; there are no completions
                            // (and no buffers) left to recover.
                            failed = Some(GraphError::Io(dead.into()));
                            break 'slide;
                        }
                    };
                    io_wait_ns += wait_start.elapsed().as_nanos() as u64;
                    for c in completions {
                        pending_io -= 1;
                        let (k, ri) = pending
                            .remove(&c.tag)
                            .expect("completion matches a submitted run");
                        match c.result {
                            Ok(buf) => {
                                let run = &seg_runs[k][ri];
                                let run_tiles = &segments[k][run.tiles.clone()];
                                let (c_ns, i_ns) = match self.process_run_multi(
                                    &queries,
                                    &active,
                                    &union,
                                    &mut progress,
                                    &mut agg,
                                    &mut per,
                                    &mut out.bytes_amortized,
                                    run_tiles,
                                    buf.as_slice(),
                                    run.offset,
                                    recording,
                                ) {
                                    Ok(ns) => ns,
                                    Err(e) => {
                                        failed = Some(e);
                                        break 'slide;
                                    }
                                };
                                slide_compute_ns += c_ns;
                                cache_insert_ns += i_ns;
                                runs_streamed += 1;
                                seg_left[k] -= 1;
                                if seg_left[k] == 0 {
                                    done_segs += 1;
                                }
                                // `buf` drops here: its pooled buffer is
                                // recycled for the next read.
                            }
                            Err(e) => {
                                failed = Some(GraphError::Io(e));
                                break 'slide;
                            }
                        }
                    }
                }
                if let Some(err) = failed {
                    // Drain (and drop) everything still queued or in
                    // flight: dropping the completions recycles their
                    // pooled buffers, so the pool — like the AIO queue —
                    // is clean for the next run. If the request path
                    // itself is dead (a broken ring) this returns the
                    // typed disconnect error, which we ignore: the
                    // original failure wins.
                    let _ = self.aio.drain();
                    return Err(err);
                }
            }

            if let Some(rec) = &self.recorder {
                let slide_total = rewind_done.elapsed().as_nanos() as u64;
                rec.iteration_finished(IterationMetrics {
                    iteration: sweep,
                    select_ns: (select_done - iter_start).as_nanos() as u64,
                    rewind_ns: (rewind_done - select_done).as_nanos() as u64,
                    slide_ns: slide_total.saturating_sub(cache_insert_ns),
                    slide_compute_ns,
                    cache_insert_ns,
                    io_wait_ns,
                    runs_streamed,
                    tiles_rewind: scr_plan.rewind.len() as u64,
                    tiles_streamed: scr_plan.io_tile_count() as u64,
                    rewind_bytes: scr_plan.rewind_bytes,
                    stream_bytes: scr_plan.stream_bytes,
                });
                rec.query_sweep(QueryBatchSweep {
                    sweep,
                    queries_active: active.len() as u32,
                    tiles_union: union.len() as u64,
                    tiles_shared: union.shared_dispatches(),
                    bytes_read: agg.bytes_read - bytes_before,
                    bytes_amortized: out.bytes_amortized - amortized_before,
                    sweep_ns: iter_start.elapsed().as_nanos() as u64,
                });
            }
            out.tiles_shared += union.shared_dispatches();
            drop(queries);

            agg.iterations = sweep + 1;
            out.sweeps = sweep + 1;
            let sweep_ns = iter_start.elapsed().as_nanos() as u64;
            for &q in &active {
                per[q].iterations = sweep + 1;
                iter_ns[q].push(sweep_ns);
                if batch.slots[q].end_iteration(sweep) == IterationOutcome::Converged {
                    converged[q] = true;
                    per[q].elapsed = start.elapsed().as_secs_f64();
                    if let Some(rec) = &self.recorder {
                        rec.query_finished(QueryRecord {
                            query: q as u32,
                            name: batch.slots[q].name().to_string(),
                            iterations: per[q].iterations,
                            elapsed_ns: start.elapsed().as_nanos() as u64,
                            converged: true,
                            iter_ns: iter_ns[q].clone(),
                        });
                    }
                }
            }
            if converged.iter().all(|&c| c) {
                break;
            }
        }
        let total_elapsed = start.elapsed();
        agg.elapsed = total_elapsed.as_secs_f64();
        for q in 0..k {
            if !converged[q] {
                per[q].elapsed = agg.elapsed;
                if let Some(rec) = &self.recorder {
                    rec.query_finished(QueryRecord {
                        query: q as u32,
                        name: batch.slots[q].name().to_string(),
                        iterations: per[q].iterations,
                        elapsed_ns: total_elapsed.as_nanos() as u64,
                        converged: false,
                        iter_ns: iter_ns[q].clone(),
                    });
                }
            }
        }
        out.per_query = per
            .into_iter()
            .zip(&converged)
            .zip(batch.slots.iter())
            .map(|((stats, &converged), slot)| QueryOutcome {
                name: slot.name().to_string(),
                converged,
                stats,
            })
            .collect();
        out.aggregate = agg;
        Ok(out)
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

    /// Clears the flight recorder (e.g. between algorithm runs, to scope
    /// [`GStoreEngine::metrics`] to one run). No-op without metrics.
    pub fn reset_metrics(&self) {
        if let Some(rec) = &self.recorder {
            rec.reset();
        }
    }

    /// Tiles this iteration must process, in storage order.
    fn select_tiles(&self, alg: &dyn Algorithm) -> Vec<u64> {
        let layout = &self.index.layout;
        if !alg.selective() {
            return (0..layout.tile_count()).collect();
        }
        let symmetric = layout.tiling().symmetric();
        (0..layout.tile_count())
            .filter(|&i| {
                let c = layout.coord_at(i);
                alg.range_active(c.row) || (symmetric && alg.range_active(c.col))
            })
            .collect()
    }

    /// Merges a segment's tiles (sorted linear indices) into contiguous
    /// runs, one AIO request each — the paper's batching of group reads
    /// into one `io_submit`. Zero-length runs (all-empty tiles) are kept:
    /// they need no I/O but their tiles are still processed.
    fn plan_runs(&self, tiles: &[u64]) -> Vec<RunSpan> {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < tiles.len() {
            let mut j = i;
            while j + 1 < tiles.len() && tiles[j + 1] == tiles[j] + 1 {
                j += 1;
            }
            let range = self.index.tiles_byte_range(tiles[i], tiles[j] + 1);
            runs.push(RunSpan {
                tag: tiles[i],
                offset: range.start,
                len: (range.end - range.start) as usize,
                tiles: i..j + 1,
            });
            i = j + 1;
        }
        runs
    }

    /// Submits one AIO batch for a segment's non-empty runs; returns the
    /// number of requests issued.
    fn submit_runs(&self, runs: &[RunSpan]) -> usize {
        let reqs: Vec<AioRequest> = runs
            .iter()
            .filter(|r| r.len > 0)
            .map(|r| AioRequest {
                tag: r.tag,
                offset: r.offset,
                len: r.len,
            })
            .collect();
        let n = reqs.len();
        if n > 0 {
            self.aio.submit(reqs);
        }
        n
    }

    /// Processes one completed run for the whole query batch: every tile's
    /// `TileView` borrows its slice of the run buffer directly (zero copy)
    /// and is dispatched to every query whose mask covers it. The only
    /// bytes copied are the `CachePool::insert` memcpys for tiles the
    /// oracle accepts, reported to the recorder as `bytes_copied`
    /// (everything else as `bytes_borrowed`). Returns
    /// `(compute_ns, cache_insert_ns)`, both 0 when not recording. A run
    /// holding a corrupt coded tile fails before any of it is cached.
    ///
    /// Accounting: the aggregate counts physical work (each tile/byte/run
    /// once); each query counts what it *consumed*, so per-query sums
    /// exceed the aggregate by exactly the amortized share, which is
    /// accumulated into `bytes_amortized`.
    #[allow(clippy::too_many_arguments)]
    fn process_run_multi(
        &mut self,
        queries: &[QueryRef<'_>],
        active: &[usize],
        union: &UnionFrontier,
        progress: &mut RowProgress,
        agg: &mut RunStats,
        per: &mut [RunStats],
        bytes_amortized: &mut u64,
        run_tiles: &[u64],
        data: &[u8],
        base: u64,
        recording: bool,
    ) -> Result<(u64, u64)> {
        let t0 = recording.then(Instant::now);
        let batch: Vec<(u64, &[u8], u64)> = run_tiles
            .iter()
            .map(|&t| {
                let r = self.index.tile_byte_range(t);
                let bytes: &[u8] = if r.is_empty() {
                    &[]
                } else {
                    let lo = (r.start - base) as usize;
                    &data[lo..lo + (r.end - r.start) as usize]
                };
                (t, bytes, union.mask_of(t))
            })
            .collect();
        Self::compute_batch_multi(
            &self.index,
            self.recorder.as_deref(),
            &mut self.decode,
            queries,
            &batch,
            agg,
            per,
        )?;
        agg.tiles_processed += batch.len() as u64;
        agg.tiles_fetched += batch.len() as u64;
        agg.bytes_read += data.len() as u64;
        let mut run_mask = 0u64;
        for &(t, bytes, m) in &batch {
            run_mask |= m;
            compute::for_each_bit(m, |q| {
                per[q].tiles_processed += 1;
                per[q].tiles_fetched += 1;
                per[q].bytes_read += bytes.len() as u64;
            });
            *bytes_amortized += bytes.len() as u64 * u64::from(m.count_ones().saturating_sub(1));
            progress.mark(self.index.layout.coord_at(t));
        }
        if !data.is_empty() {
            // A shared run counts as one request for each query it serves;
            // the spread over the aggregate's single count is the request
            // traffic the shared scan amortized away.
            compute::for_each_bit(run_mask, |q| per[q].io_requests += 1);
        }
        if let Some(rec) = &self.recorder {
            rec.bytes_borrowed(data.len() as u64);
            if self.index.is_coded() {
                let bpe = self.index.encoding.bytes_per_edge() as u64;
                let logical: u64 = batch
                    .iter()
                    .map(|&(t, _, _)| {
                        let t = t as usize;
                        (self.index.start_edge[t + 1] - self.index.start_edge[t]) * bpe
                    })
                    .sum();
                rec.codec_tiles(batch.len() as u64, data.len() as u64, logical);
            }
        }
        let compute_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut insert_ns = 0u64;
        if self.config.use_scr_cache {
            let t1 = recording.then(Instant::now);
            let copied_before = self.pool.stats().inserted_bytes;
            let oracle = BatchOracle {
                queries,
                active,
                progress,
                index: &self.index,
            };
            for &(t, bytes, _) in &batch {
                self.pool.insert(t, bytes, &oracle);
            }
            if let Some(rec) = &self.recorder {
                rec.bytes_copied(self.pool.stats().inserted_bytes - copied_before);
            }
            insert_ns = t1.map_or(0, |t| t.elapsed().as_nanos() as u64);
        }
        Ok((compute_ns, insert_ns))
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
        queries: &[QueryRef<'_>],
        batch: &[(u64, &[u8], u64)],
        agg: &mut RunStats,
        per: &mut [RunStats],
    ) -> Result<()> {
        let out = compute::process_batch_queries(index, queries, batch, decode)?;
        for (q, o) in out.per_query.iter().enumerate() {
            per[q].edges_processed += o.edges;
            per[q].sharded_edges += o.sharded_edges;
            per[q].atomic_edges += o.atomic_edges;
        }
        let a = out.aggregate();
        agg.edges_processed += a.edges;
        agg.sharded_edges += a.sharded_edges;
        agg.atomic_edges += a.atomic_edges;
        if let Some(rec) = recorder {
            rec.compute_batch(a.edges, a.plain_updates, a.atomic_edges, a.groups_scheduled);
            if out.decoded_edges > 0 {
                rec.codec_decoded_edges(out.decoded_edges);
                rec.codec_decode_ns(out.decode_ns);
            }
        }
        Ok(())
    }
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
    use gstore_metrics::Counter;
    use gstore_tile::ConversionOptions;

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
        let index = TileIndex::raw(
            store.layout().clone(),
            store.encoding(),
            store.start_edge().to_vec(),
        );
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
                reader.degree(v).unwrap();
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
        // and PageRank (sharded-capable) never hit the atomic fallback.
        assert_eq!(m[Counter::ComputeEdgesProcessed], stats.edges_processed);
        assert_eq!(m[Counter::ComputeAtomicFallbackEdges], stats.atomic_edges);
        assert_eq!(
            stats.sharded_edges + stats.atomic_edges,
            stats.edges_processed
        );
        assert_eq!(stats.atomic_edges, 0);
        assert!(m[Counter::ComputeShardConflictsAvoided] >= stats.sharded_edges);
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
        // Full pipeline A/B: same store, sharded vs forced-atomic config.
        // Integer metadata (WCC labels, BFS depths) must match exactly;
        // PageRank within FP accumulation tolerance.
        let (el, store) = kron_store(9, 8, 4, 4);
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();

        let run_wcc = |b: EngineBuilder| {
            let mut engine = b.build().unwrap();
            let mut wcc = Wcc::new(*store.layout().tiling());
            let stats = engine.run(&mut wcc, 1000).unwrap();
            (wcc.labels(), stats)
        };
        let (labels_s, stats_s) = run_wcc(tiny(&store));
        let (labels_a, stats_a) = run_wcc(tiny(&store).sharded_updates(false));
        assert_eq!(labels_s, labels_a);
        assert_eq!(labels_s, reference::wcc_labels(&el));
        assert_eq!(stats_s.atomic_edges, 0, "sharded run must not fall back");
        assert_eq!(stats_s.sharded_edges, stats_s.edges_processed);
        assert_eq!(stats_a.sharded_edges, 0);
        assert_eq!(stats_a.atomic_edges, stats_a.edges_processed);

        let run_pr = |b: EngineBuilder| {
            let mut engine = b.build().unwrap();
            let mut pr =
                PageRank::new(*store.layout().tiling(), deg.clone(), 0.85).with_iterations(8);
            engine.run(&mut pr, 8).unwrap();
            pr.ranks().to_vec()
        };
        let ranks_s = run_pr(tiny(&store));
        let ranks_a = run_pr(tiny(&store).sharded_updates(false));
        for (s, a) in ranks_s.iter().zip(&ranks_a) {
            assert!((s - a).abs() < 1e-9, "{s} vs {a}");
        }

        // BFS declares Atomic: both configs take the fallback path.
        let mut engine = tiny(&store).build().unwrap();
        let mut bfs = Bfs::new(*store.layout().tiling(), 0);
        let stats = engine.run(&mut bfs, 1000).unwrap();
        assert_eq!(stats.sharded_edges, 0);
        assert_eq!(stats.atomic_edges, stats.edges_processed);
        assert_eq!(
            bfs.depths(),
            reference::bfs_levels(&reference::bfs_csr(&el), 0)
        );
    }

    #[test]
    fn kcore_sharded_through_pipeline_matches_reference() {
        let (el, store) = kron_store(8, 6, 4, 2);
        let mut engine = tiny(&store).build().unwrap();
        let mut kc = crate::algorithms::KCore::new(*store.layout().tiling(), 3);
        let stats = engine.run(&mut kc, 1000).unwrap();
        assert_eq!(stats.atomic_edges, 0);
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
        let index = TileIndex::raw(
            store.layout().clone(),
            store.encoding(),
            store.start_edge().to_vec(),
        );
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
    fn delta_pagerank_selective_through_engine() {
        let (el, store) = kron_store(9, 6, 4, 2);
        let mut engine = tiny(&store).build().unwrap();
        let deg = gstore_graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let mut pr = crate::algorithms::PageRankDelta::new(
            *store.layout().tiling(),
            deg.clone(),
            0.85,
            1e-10,
        );
        let stats = engine.run(&mut pr, 1000).unwrap();
        assert!(stats.iterations > 3);
        // The selective engine path must match the in-memory runner
        // exactly (same iterations, same ranks).
        let mut reference =
            crate::algorithms::PageRankDelta::new(*store.layout().tiling(), deg, 0.85, 1e-10);
        let ref_stats = crate::inmem::run_in_memory(&store, &mut reference, 1000);
        assert_eq!(stats.iterations, ref_stats.iterations);
        for (a, b) in pr.ranks().iter().zip(reference.ranks()) {
            assert!((a - b).abs() < 1e-12);
        }
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
