//! Flight recorder: low-overhead per-phase metrics for the G-Store engine.
//!
//! The paper's claims (Figures 8–12) are all *measured* statements about
//! where time goes — rewind vs. slide, I/O overlap, cache effectiveness.
//! This crate is the observability backbone that makes those measurements
//! reproducible: a [`Recorder`] trait with no-op defaults that the I/O
//! layer, the SCR cache pool, and the engine call at their existing
//! decision points, plus [`FlightRecorder`], an atomic-counter
//! implementation whose [`FlightRecorder::snapshot`] yields an
//! [`EngineMetrics`] value serializable to JSON.
//!
//! Design constraints (deliberate):
//! * recording sites are per-request / per-tile / per-iteration, never
//!   per-edge — aggregation over edges happens in the engine's
//!   `process_batch` before any recorder call;
//! * every hot-path counter is a relaxed atomic; the only lock is around
//!   the per-iteration vector, touched once per iteration;
//! * when no recorder is installed the layers skip timestamping entirely,
//!   so the default configuration costs one branch per recording site.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of power-of-two latency buckets: bucket `i` holds completions
/// with `latency_ns in [2^i, 2^(i+1))` (bucket 0 also catches 0 ns).
pub const LATENCY_BUCKETS: usize = 32;

/// Cache-hint classes mirrored from the SCR layer, for per-class counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintClass {
    NotNeeded = 0,
    Unknown = 1,
    Needed = 2,
}

impl HintClass {
    pub const ALL: [HintClass; 3] = [HintClass::NotNeeded, HintClass::Unknown, HintClass::Needed];

    pub fn name(self) -> &'static str {
        match self {
            HintClass::NotNeeded => "not_needed",
            HintClass::Unknown => "unknown",
            HintClass::Needed => "needed",
        }
    }
}

/// Timings and volume of one engine iteration, split by phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationMetrics {
    pub iteration: u32,
    /// Selecting active tiles + building the SCR plan.
    pub select_ns: u64,
    /// Processing cached tiles (no I/O) + post-rewind analysis.
    pub rewind_ns: u64,
    /// Streaming segments: wait, process, double-buffer submit.
    pub slide_ns: u64,
    /// Inserting streamed tiles into the cache pool.
    pub cache_insert_ns: u64,
    /// Of `slide_ns`, time spent blocked waiting on AIO completions.
    pub io_wait_ns: u64,
    /// Of `slide_ns`, time spent processing completed runs (per-run
    /// compute, overlapped with the remaining in-flight I/O).
    pub slide_compute_ns: u64,
    /// Contiguous AIO runs processed in completion order this iteration.
    pub runs_streamed: u64,
    /// Tiles served from the cache pool (rewind phase).
    pub tiles_rewind: u64,
    /// Tiles fetched from storage (slide phase).
    pub tiles_streamed: u64,
    /// Bytes served from the cache pool.
    pub rewind_bytes: u64,
    /// Bytes fetched from storage.
    pub stream_bytes: u64,
}

impl IterationMetrics {
    /// Fraction of the slide phase overlapped with useful compute:
    /// `1 - io_wait/slide`. 1.0 when the iteration did no streaming.
    pub fn overlap_ratio(&self) -> f64 {
        if self.slide_ns == 0 {
            return 1.0;
        }
        1.0 - (self.io_wait_ns.min(self.slide_ns) as f64 / self.slide_ns as f64)
    }

    fn total_ns(&self) -> u64 {
        self.select_ns + self.rewind_ns + self.slide_ns + self.cache_insert_ns
    }
}

/// One shared-scan sweep of a multi-query batch: how many queries were
/// still active, what the union frontier looked like, and how much I/O
/// the shared scan amortized away versus per-query sequential sweeps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryBatchSweep {
    /// Batch-global sweep number (0-based).
    pub sweep: u32,
    /// Queries still attached when the sweep started.
    pub queries_active: u32,
    /// Tiles in the union frontier (each fetched/decoded at most once).
    pub tiles_union: u64,
    /// Tile dispatches beyond the first per tile — per-query fetches the
    /// shared scan made unnecessary this sweep.
    pub tiles_shared: u64,
    /// Bytes actually fetched from storage this sweep.
    pub bytes_read: u64,
    /// Bytes sequential per-query sweeps would have re-read but the
    /// shared scan served from the one fetch.
    pub bytes_amortized: u64,
    /// Wall time of the whole sweep.
    pub sweep_ns: u64,
}

/// Final record of one query's life inside a batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryRecord {
    /// Slot index within the batch (bit position in tile masks).
    pub query: u32,
    /// The algorithm's name.
    pub name: String,
    /// Iterations the query ran before converging or the batch ended.
    pub iterations: u32,
    /// Wall time from batch start to this query's detach.
    pub elapsed_ns: u64,
    /// Whether the query converged (vs. hitting the iteration cap).
    pub converged: bool,
    /// Per-iteration wall time of the shared sweeps this query rode.
    pub iter_ns: Vec<u64>,
}

/// Shared-scan totals (snapshot): per-sweep amortization plus per-query
/// outcomes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryBatchMetrics {
    pub sweeps: Vec<QueryBatchSweep>,
    pub queries: Vec<QueryRecord>,
}

impl QueryBatchMetrics {
    /// Total per-query fetches amortized away across all sweeps.
    pub fn tiles_shared(&self) -> u64 {
        self.sweeps.iter().map(|s| s.tiles_shared).sum()
    }

    /// Total bytes the shared scan kept off the disk.
    pub fn bytes_amortized(&self) -> u64 {
        self.sweeps.iter().map(|s| s.bytes_amortized).sum()
    }

    /// Total bytes the batch actually read.
    pub fn bytes_read(&self) -> u64 {
        self.sweeps.iter().map(|s| s.bytes_read).sum()
    }

    /// Peak concurrent queries observed at a sweep start.
    pub fn max_queries_active(&self) -> u32 {
        self.sweeps
            .iter()
            .map(|s| s.queries_active)
            .max()
            .unwrap_or(0)
    }
}

/// Recording interface called by the I/O, SCR, and engine layers. Every
/// method has an inline no-op default, so a custom recorder implements
/// only what it cares about.
pub trait Recorder: Send + Sync {
    /// A batch of reads was submitted. `in_flight` is the queue occupancy
    /// right after the submit.
    #[inline]
    fn io_submitted(&self, requests: u64, bytes: u64, in_flight: u64) {
        let _ = (requests, bytes, in_flight);
    }

    /// One read finished (worker-side). `bytes` is 0 on failure.
    #[inline]
    fn io_completed(&self, bytes: u64, latency_ns: u64, failed: bool) {
        let _ = (bytes, latency_ns, failed);
    }

    /// An I/O engine was selected at engine construction: `uring` is true
    /// for the io_uring engine, false for the pread worker pool.
    #[inline]
    fn io_backend_selected(&self, uring: bool) {
        let _ = uring;
    }

    /// One submission batch reached the io_uring SQ: `sqes` entries were
    /// queued and `enters` `io_uring_enter` syscalls were needed to push
    /// them (1 for any batch that fits the ring; 0 under SQPOLL when the
    /// kernel thread was awake).
    #[inline]
    fn io_sqe_batch(&self, sqes: u64, enters: u64) {
        let _ = (sqes, enters);
    }

    /// One non-empty CQ reap collected `cqes` completions.
    #[inline]
    fn io_cqe_reap(&self, cqes: u64) {
        let _ = cqes;
    }

    /// One uring read resolved its buffer: `hit` means the pooled buffer
    /// was part of a registered arena and the read used `READ_FIXED`.
    #[inline]
    fn io_reg_buffer(&self, hit: bool) {
        let _ = hit;
    }

    /// One read finished on a specific engine (`uring` or the worker
    /// pool), for the per-engine latency histograms. Called alongside
    /// [`Recorder::io_completed`].
    #[inline]
    fn io_backend_request(&self, uring: bool, latency_ns: u64) {
        let _ = (uring, latency_ns);
    }

    /// A storage fault was injected (fault-testing backends or the uring
    /// engine's request-path fault hook).
    #[inline]
    fn fault_injected(&self) {}

    /// The cache pool accepted a tile whose oracle hint was `hint`.
    #[inline]
    fn cache_inserted(&self, hint: HintClass) {
        let _ = hint;
    }

    /// The cache pool rejected a tile whose oracle hint was `hint`.
    #[inline]
    fn cache_rejected(&self, hint: HintClass) {
        let _ = hint;
    }

    /// The cache pool evicted a resident tile whose hint was `hint`.
    #[inline]
    fn cache_evicted(&self, hint: HintClass) {
        let _ = hint;
    }

    /// A pooled I/O buffer was handed out. `reused` is true when it came
    /// from the pool's free list (hit) rather than a fresh allocation
    /// (miss). `capacity` is the buffer's allocated size.
    #[inline]
    fn buffer_acquired(&self, capacity: u64, reused: bool) {
        let _ = (capacity, reused);
    }

    /// A pooled I/O buffer was returned to its pool.
    #[inline]
    fn buffer_recycled(&self, capacity: u64) {
        let _ = capacity;
    }

    /// Tile bytes memcpy'd on the streaming path (cache-pool inserts are
    /// the only copy the zero-copy slide pipeline performs).
    #[inline]
    fn bytes_copied(&self, bytes: u64) {
        let _ = bytes;
    }

    /// Tile bytes processed in place, borrowed from a pooled run buffer.
    #[inline]
    fn bytes_borrowed(&self, bytes: u64) {
        let _ = bytes;
    }

    /// A compute batch finished: `edges` decoded tuples, `plain_updates`
    /// endpoint writes done as plain stores instead of atomic RMWs (the
    /// contention the column-sharded schedule avoided), `atomic_edges`
    /// edges that took the atomic fallback executor, `groups` physical
    /// groups visited by the batch's schedule. Called once per batch —
    /// never per edge.
    #[inline]
    fn compute_batch(&self, edges: u64, plain_updates: u64, atomic_edges: u64, groups: u64) {
        let _ = (edges, plain_updates, atomic_edges, groups);
    }

    /// Static estimate of the metadata working set the group-major
    /// schedule keeps LLC-resident (bytes). Recorded as a high-water mark.
    #[inline]
    fn compute_llc_estimate(&self, bytes: u64) {
        let _ = bytes;
    }

    /// A converter chunk finished a streaming pass. `pass` is 1 (counting)
    /// or 2 (scatter); `bytes` is the raw edge-file bytes the chunk read.
    #[inline]
    fn ingest_chunk(&self, pass: u8, edges: u64, bytes: u64) {
        let _ = (pass, edges, bytes);
    }

    /// `bytes` of tile data left one buffer as `writes` positioned writes:
    /// a pass-2 chunk written out of the converter's pack, or a
    /// `BatchWriter` staging flush.
    #[inline]
    fn ingest_flush(&self, bytes: u64, writes: u64) {
        let _ = (bytes, writes);
    }

    /// Bytes the buffer held when it was written out (the chunk's pack, a
    /// `BatchWriter`'s staging). Recorded as a high-water mark.
    #[inline]
    fn ingest_staging(&self, bytes: u64) {
        let _ = bytes;
    }

    /// A streaming-conversion pass finished (`pass` 1 or 2), `wall_ns`
    /// wall time.
    #[inline]
    fn ingest_pass(&self, pass: u8, wall_ns: u64) {
        let _ = (pass, wall_ns);
    }

    /// An engine iteration finished.
    #[inline]
    fn iteration_finished(&self, metrics: IterationMetrics) {
        let _ = metrics;
    }

    /// A shared-scan batch sweep finished. Called once per sweep (even
    /// for single-query runs, where the batch degenerates to K=1).
    #[inline]
    fn query_sweep(&self, sweep: QueryBatchSweep) {
        let _ = sweep;
    }

    /// One point-read request (neighbors/degree/k-hop/walk) finished.
    /// `tiles_fetched` tiles came from storage, `cache_hits` from the
    /// hot-tile cache, `bytes_read` is storage bytes only. Called once per
    /// request, after the reply is assembled (multi-vertex requests like
    /// k-hop aggregate all their tile accesses into one event).
    #[inline]
    fn pointread_lookup(
        &self,
        tiles_fetched: u64,
        cache_hits: u64,
        bytes_read: u64,
        latency_ns: u64,
    ) {
        let _ = (tiles_fetched, cache_hits, bytes_read, latency_ns);
    }

    /// A query detached from its batch (converged, iteration cap, or the
    /// batch ended). Called once per query, off the hot path.
    #[inline]
    fn query_finished(&self, record: QueryRecord) {
        let _ = record;
    }

    /// A serve-daemon client connection was accepted.
    #[inline]
    fn serve_connection_opened(&self) {}

    /// A serve-daemon client connection closed (cleanly or on error).
    #[inline]
    fn serve_connection_closed(&self) {}

    /// A point query was answered on a connection thread. `ok` is false
    /// when the reply was a typed ERR frame.
    #[inline]
    fn serve_point_query(&self, ok: bool) {
        let _ = ok;
    }

    /// A sweep query was accepted into the admission queue. `depth` is
    /// the queue occupancy right after the enqueue (the backpressure
    /// signal the queue-depth histogram tracks).
    #[inline]
    fn serve_query_queued(&self, depth: u64) {
        let _ = depth;
    }

    /// A sweep query was refused with a BUSY reply (admission queue full).
    #[inline]
    fn serve_query_rejected(&self) {}

    /// The sweep loop drained `queries` queued queries into one
    /// [`QueryBatch`](../gstore_core/struct.QueryBatch.html) run.
    #[inline]
    fn serve_batch_admitted(&self, queries: u64) {
        let _ = queries;
    }

    /// A sweep query finished and its reply was handed back to the
    /// connection. `ok` is false when it ended in an ERR frame.
    #[inline]
    fn serve_query_completed(&self, ok: bool) {
        let _ = ok;
    }

    /// One admitted batch run finished: `sweeps` shared scans, reading
    /// `bytes_read` from storage while amortizing `bytes_amortized` of
    /// per-query re-reads away (the serve-level view of
    /// `BatchRunStats`).
    #[inline]
    fn serve_batch_run(&self, sweeps: u64, bytes_read: u64, bytes_amortized: u64) {
        let _ = (sweeps, bytes_read, bytes_amortized);
    }

    /// Codec-compressed tiles were handed to compute (sweep run, rewind,
    /// or point read): `tiles` tiles holding `disk_bytes` of coded stream
    /// that decode to `logical_bytes` of raw SNB. Called once per run /
    /// batch — never per tile on the sweep path.
    #[inline]
    fn codec_tiles(&self, tiles: u64, disk_bytes: u64, logical_bytes: u64) {
        let _ = (tiles, disk_bytes, logical_bytes);
    }

    /// Wall time spent decoding coded tile streams: a point read's tile
    /// decode, or the waves of a sweep batch's decode stage (one call per
    /// batch).
    #[inline]
    fn codec_decode_ns(&self, ns: u64) {
        let _ = ns;
    }

    /// Keys a sweep batch's decode stage decoded: the stored edges of its
    /// tiles, each once however many queries consumed them. Called once
    /// per batch.
    #[inline]
    fn codec_decoded_edges(&self, edges: u64) {
        let _ = edges;
    }
}

/// The always-silent recorder (useful as an explicit default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

#[derive(Default)]
struct IoCounters {
    requests: AtomicU64,
    bytes_submitted: AtomicU64,
    completions: AtomicU64,
    errors: AtomicU64,
    bytes_read: AtomicU64,
    max_in_flight: AtomicU64,
    latency_ns_total: AtomicU64,
    latency_hist: [AtomicU64; LATENCY_BUCKETS],
}

#[derive(Default)]
struct IoBackendCounters {
    workers_selected: AtomicU64,
    uring_selected: AtomicU64,
    sqe_batches: AtomicU64,
    sqes_submitted: AtomicU64,
    enters: AtomicU64,
    cqe_reaps: AtomicU64,
    cqes_reaped: AtomicU64,
    reg_buffer_hits: AtomicU64,
    reg_buffer_misses: AtomicU64,
    workers_requests: AtomicU64,
    workers_latency_ns: AtomicU64,
    workers_latency_hist: [AtomicU64; LATENCY_BUCKETS],
    uring_requests: AtomicU64,
    uring_latency_ns: AtomicU64,
    uring_latency_hist: [AtomicU64; LATENCY_BUCKETS],
}

#[derive(Default)]
struct CacheCounters {
    inserted: [AtomicU64; 3],
    rejected: [AtomicU64; 3],
    evicted: [AtomicU64; 3],
}

#[derive(Default)]
struct BufferPoolCounters {
    acquires: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    bytes_served: AtomicU64,
}

#[derive(Default)]
struct CopyCounters {
    bytes_copied: AtomicU64,
    bytes_borrowed: AtomicU64,
}

#[derive(Default)]
struct ComputeCounters {
    edges_processed: AtomicU64,
    shard_conflicts_avoided: AtomicU64,
    atomic_fallback_edges: AtomicU64,
    groups_scheduled: AtomicU64,
    llc_resident_bytes: AtomicU64,
}

#[derive(Default)]
struct PointReadCounters {
    lookups: AtomicU64,
    tiles_fetched: AtomicU64,
    cache_hits: AtomicU64,
    bytes_read: AtomicU64,
    latency_ns_total: AtomicU64,
    latency_hist: [AtomicU64; LATENCY_BUCKETS],
}

#[derive(Default)]
struct CodecCounters {
    tiles_decoded: AtomicU64,
    disk_bytes: AtomicU64,
    logical_bytes: AtomicU64,
    decode_ns: AtomicU64,
    decoded_edges: AtomicU64,
}

#[derive(Default)]
struct IngestCounters {
    chunks_pass1: AtomicU64,
    chunks_pass2: AtomicU64,
    edges_in: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    flushes: AtomicU64,
    pwrites: AtomicU64,
    pass1_ns: AtomicU64,
    pass2_ns: AtomicU64,
    staging_peak_bytes: AtomicU64,
}

#[derive(Default)]
struct ServeCounters {
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    point_queries: AtomicU64,
    point_errors: AtomicU64,
    queries_queued: AtomicU64,
    queries_rejected: AtomicU64,
    queries_completed: AtomicU64,
    query_errors: AtomicU64,
    batches: AtomicU64,
    batch_queries: AtomicU64,
    sweeps: AtomicU64,
    bytes_read: AtomicU64,
    bytes_amortized: AtomicU64,
    queue_depth_hist: [AtomicU64; LATENCY_BUCKETS],
}

/// The default [`Recorder`]: relaxed atomic counters plus one mutex-guarded
/// per-iteration vector (touched once per iteration).
#[derive(Default)]
pub struct FlightRecorder {
    io: IoCounters,
    io_backend: IoBackendCounters,
    faults: AtomicU64,
    cache: CacheCounters,
    buffer_pool: BufferPoolCounters,
    copy: CopyCounters,
    compute: ComputeCounters,
    codec: CodecCounters,
    ingest: IngestCounters,
    pointread: PointReadCounters,
    serve: ServeCounters,
    iterations: Mutex<Vec<IterationMetrics>>,
    query_sweeps: Mutex<Vec<QueryBatchSweep>>,
    query_records: Mutex<Vec<QueryRecord>>,
}

impl FlightRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> EngineMetrics {
        let io = &self.io;
        EngineMetrics {
            iterations: self.iterations.lock().unwrap().clone(),
            query_batch: QueryBatchMetrics {
                sweeps: self.query_sweeps.lock().unwrap().clone(),
                queries: self.query_records.lock().unwrap().clone(),
            },
            io: IoMetrics {
                requests: io.requests.load(Ordering::Relaxed),
                bytes_submitted: io.bytes_submitted.load(Ordering::Relaxed),
                completions: io.completions.load(Ordering::Relaxed),
                errors: io.errors.load(Ordering::Relaxed),
                bytes_read: io.bytes_read.load(Ordering::Relaxed),
                max_in_flight: io.max_in_flight.load(Ordering::Relaxed),
                latency_ns_total: io.latency_ns_total.load(Ordering::Relaxed),
                latency_hist: std::array::from_fn(|i| io.latency_hist[i].load(Ordering::Relaxed)),
                faults_injected: self.faults.load(Ordering::Relaxed),
            },
            io_backend: IoBackendMetrics {
                workers_selected: self.io_backend.workers_selected.load(Ordering::Relaxed),
                uring_selected: self.io_backend.uring_selected.load(Ordering::Relaxed),
                sqe_batches: self.io_backend.sqe_batches.load(Ordering::Relaxed),
                sqes_submitted: self.io_backend.sqes_submitted.load(Ordering::Relaxed),
                enters: self.io_backend.enters.load(Ordering::Relaxed),
                cqe_reaps: self.io_backend.cqe_reaps.load(Ordering::Relaxed),
                cqes_reaped: self.io_backend.cqes_reaped.load(Ordering::Relaxed),
                reg_buffer_hits: self.io_backend.reg_buffer_hits.load(Ordering::Relaxed),
                reg_buffer_misses: self.io_backend.reg_buffer_misses.load(Ordering::Relaxed),
                workers_requests: self.io_backend.workers_requests.load(Ordering::Relaxed),
                workers_latency_ns: self.io_backend.workers_latency_ns.load(Ordering::Relaxed),
                workers_latency_hist: std::array::from_fn(|i| {
                    self.io_backend.workers_latency_hist[i].load(Ordering::Relaxed)
                }),
                uring_requests: self.io_backend.uring_requests.load(Ordering::Relaxed),
                uring_latency_ns: self.io_backend.uring_latency_ns.load(Ordering::Relaxed),
                uring_latency_hist: std::array::from_fn(|i| {
                    self.io_backend.uring_latency_hist[i].load(Ordering::Relaxed)
                }),
            },
            cache: CacheMetrics {
                inserted: std::array::from_fn(|i| self.cache.inserted[i].load(Ordering::Relaxed)),
                rejected: std::array::from_fn(|i| self.cache.rejected[i].load(Ordering::Relaxed)),
                evicted: std::array::from_fn(|i| self.cache.evicted[i].load(Ordering::Relaxed)),
            },
            buffer_pool: BufferPoolMetrics {
                acquires: self.buffer_pool.acquires.load(Ordering::Relaxed),
                hits: self.buffer_pool.hits.load(Ordering::Relaxed),
                misses: self.buffer_pool.misses.load(Ordering::Relaxed),
                recycled: self.buffer_pool.recycled.load(Ordering::Relaxed),
                bytes_served: self.buffer_pool.bytes_served.load(Ordering::Relaxed),
            },
            copy: CopyMetrics {
                bytes_copied: self.copy.bytes_copied.load(Ordering::Relaxed),
                bytes_borrowed: self.copy.bytes_borrowed.load(Ordering::Relaxed),
            },
            compute: ComputeMetrics {
                edges_processed: self.compute.edges_processed.load(Ordering::Relaxed),
                shard_conflicts_avoided: self
                    .compute
                    .shard_conflicts_avoided
                    .load(Ordering::Relaxed),
                atomic_fallback_edges: self.compute.atomic_fallback_edges.load(Ordering::Relaxed),
                groups_scheduled: self.compute.groups_scheduled.load(Ordering::Relaxed),
                llc_resident_bytes: self.compute.llc_resident_bytes.load(Ordering::Relaxed),
            },
            codec: CodecMetrics {
                tiles_decoded: self.codec.tiles_decoded.load(Ordering::Relaxed),
                disk_bytes: self.codec.disk_bytes.load(Ordering::Relaxed),
                logical_bytes: self.codec.logical_bytes.load(Ordering::Relaxed),
                decode_ns: self.codec.decode_ns.load(Ordering::Relaxed),
                decoded_edges: self.codec.decoded_edges.load(Ordering::Relaxed),
            },
            ingest: IngestMetrics {
                chunks_pass1: self.ingest.chunks_pass1.load(Ordering::Relaxed),
                chunks_pass2: self.ingest.chunks_pass2.load(Ordering::Relaxed),
                edges_in: self.ingest.edges_in.load(Ordering::Relaxed),
                bytes_in: self.ingest.bytes_in.load(Ordering::Relaxed),
                bytes_out: self.ingest.bytes_out.load(Ordering::Relaxed),
                flushes: self.ingest.flushes.load(Ordering::Relaxed),
                pwrites: self.ingest.pwrites.load(Ordering::Relaxed),
                pass1_ns: self.ingest.pass1_ns.load(Ordering::Relaxed),
                pass2_ns: self.ingest.pass2_ns.load(Ordering::Relaxed),
                staging_peak_bytes: self.ingest.staging_peak_bytes.load(Ordering::Relaxed),
            },
            pointread: PointReadMetrics {
                lookups: self.pointread.lookups.load(Ordering::Relaxed),
                tiles_fetched: self.pointread.tiles_fetched.load(Ordering::Relaxed),
                cache_hits: self.pointread.cache_hits.load(Ordering::Relaxed),
                bytes_read: self.pointread.bytes_read.load(Ordering::Relaxed),
                latency_ns_total: self.pointread.latency_ns_total.load(Ordering::Relaxed),
                latency_hist: std::array::from_fn(|i| {
                    self.pointread.latency_hist[i].load(Ordering::Relaxed)
                }),
            },
            serve: ServeMetrics {
                connections_opened: self.serve.connections_opened.load(Ordering::Relaxed),
                connections_closed: self.serve.connections_closed.load(Ordering::Relaxed),
                point_queries: self.serve.point_queries.load(Ordering::Relaxed),
                point_errors: self.serve.point_errors.load(Ordering::Relaxed),
                queries_queued: self.serve.queries_queued.load(Ordering::Relaxed),
                queries_rejected: self.serve.queries_rejected.load(Ordering::Relaxed),
                queries_completed: self.serve.queries_completed.load(Ordering::Relaxed),
                query_errors: self.serve.query_errors.load(Ordering::Relaxed),
                batches: self.serve.batches.load(Ordering::Relaxed),
                batch_queries: self.serve.batch_queries.load(Ordering::Relaxed),
                sweeps: self.serve.sweeps.load(Ordering::Relaxed),
                bytes_read: self.serve.bytes_read.load(Ordering::Relaxed),
                bytes_amortized: self.serve.bytes_amortized.load(Ordering::Relaxed),
                queue_depth_hist: std::array::from_fn(|i| {
                    self.serve.queue_depth_hist[i].load(Ordering::Relaxed)
                }),
            },
        }
    }

    /// Clears all counters (e.g. between algorithm runs on one engine).
    pub fn reset(&self) {
        let fresh = FlightRecorder::default();
        // Replace field-by-field; atomics have no bulk store.
        let io = &self.io;
        for (dst, src) in [
            (&io.requests, &fresh.io.requests),
            (&io.bytes_submitted, &fresh.io.bytes_submitted),
            (&io.completions, &fresh.io.completions),
            (&io.errors, &fresh.io.errors),
            (&io.bytes_read, &fresh.io.bytes_read),
            (&io.max_in_flight, &fresh.io.max_in_flight),
            (&io.latency_ns_total, &fresh.io.latency_ns_total),
            (&self.faults, &fresh.faults),
            (
                &self.io_backend.workers_selected,
                &fresh.io_backend.workers_selected,
            ),
            (
                &self.io_backend.uring_selected,
                &fresh.io_backend.uring_selected,
            ),
            (&self.io_backend.sqe_batches, &fresh.io_backend.sqe_batches),
            (
                &self.io_backend.sqes_submitted,
                &fresh.io_backend.sqes_submitted,
            ),
            (&self.io_backend.enters, &fresh.io_backend.enters),
            (&self.io_backend.cqe_reaps, &fresh.io_backend.cqe_reaps),
            (&self.io_backend.cqes_reaped, &fresh.io_backend.cqes_reaped),
            (
                &self.io_backend.reg_buffer_hits,
                &fresh.io_backend.reg_buffer_hits,
            ),
            (
                &self.io_backend.reg_buffer_misses,
                &fresh.io_backend.reg_buffer_misses,
            ),
            (
                &self.io_backend.workers_requests,
                &fresh.io_backend.workers_requests,
            ),
            (
                &self.io_backend.workers_latency_ns,
                &fresh.io_backend.workers_latency_ns,
            ),
            (
                &self.io_backend.uring_requests,
                &fresh.io_backend.uring_requests,
            ),
            (
                &self.io_backend.uring_latency_ns,
                &fresh.io_backend.uring_latency_ns,
            ),
            (&self.buffer_pool.acquires, &fresh.buffer_pool.acquires),
            (&self.buffer_pool.hits, &fresh.buffer_pool.hits),
            (&self.buffer_pool.misses, &fresh.buffer_pool.misses),
            (&self.buffer_pool.recycled, &fresh.buffer_pool.recycled),
            (
                &self.buffer_pool.bytes_served,
                &fresh.buffer_pool.bytes_served,
            ),
            (&self.copy.bytes_copied, &fresh.copy.bytes_copied),
            (&self.copy.bytes_borrowed, &fresh.copy.bytes_borrowed),
            (
                &self.compute.edges_processed,
                &fresh.compute.edges_processed,
            ),
            (
                &self.compute.shard_conflicts_avoided,
                &fresh.compute.shard_conflicts_avoided,
            ),
            (
                &self.compute.atomic_fallback_edges,
                &fresh.compute.atomic_fallback_edges,
            ),
            (
                &self.compute.groups_scheduled,
                &fresh.compute.groups_scheduled,
            ),
            (
                &self.compute.llc_resident_bytes,
                &fresh.compute.llc_resident_bytes,
            ),
            (&self.codec.tiles_decoded, &fresh.codec.tiles_decoded),
            (&self.codec.disk_bytes, &fresh.codec.disk_bytes),
            (&self.codec.logical_bytes, &fresh.codec.logical_bytes),
            (&self.codec.decode_ns, &fresh.codec.decode_ns),
            (&self.codec.decoded_edges, &fresh.codec.decoded_edges),
            (&self.ingest.chunks_pass1, &fresh.ingest.chunks_pass1),
            (&self.ingest.chunks_pass2, &fresh.ingest.chunks_pass2),
            (&self.ingest.edges_in, &fresh.ingest.edges_in),
            (&self.ingest.bytes_in, &fresh.ingest.bytes_in),
            (&self.ingest.bytes_out, &fresh.ingest.bytes_out),
            (&self.ingest.flushes, &fresh.ingest.flushes),
            (&self.ingest.pwrites, &fresh.ingest.pwrites),
            (&self.ingest.pass1_ns, &fresh.ingest.pass1_ns),
            (&self.ingest.pass2_ns, &fresh.ingest.pass2_ns),
            (
                &self.ingest.staging_peak_bytes,
                &fresh.ingest.staging_peak_bytes,
            ),
            (&self.pointread.lookups, &fresh.pointread.lookups),
            (
                &self.pointread.tiles_fetched,
                &fresh.pointread.tiles_fetched,
            ),
            (&self.pointread.cache_hits, &fresh.pointread.cache_hits),
            (&self.pointread.bytes_read, &fresh.pointread.bytes_read),
            (
                &self.pointread.latency_ns_total,
                &fresh.pointread.latency_ns_total,
            ),
            (
                &self.serve.connections_opened,
                &fresh.serve.connections_opened,
            ),
            (
                &self.serve.connections_closed,
                &fresh.serve.connections_closed,
            ),
            (&self.serve.point_queries, &fresh.serve.point_queries),
            (&self.serve.point_errors, &fresh.serve.point_errors),
            (&self.serve.queries_queued, &fresh.serve.queries_queued),
            (&self.serve.queries_rejected, &fresh.serve.queries_rejected),
            (
                &self.serve.queries_completed,
                &fresh.serve.queries_completed,
            ),
            (&self.serve.query_errors, &fresh.serve.query_errors),
            (&self.serve.batches, &fresh.serve.batches),
            (&self.serve.batch_queries, &fresh.serve.batch_queries),
            (&self.serve.sweeps, &fresh.serve.sweeps),
            (&self.serve.bytes_read, &fresh.serve.bytes_read),
            (&self.serve.bytes_amortized, &fresh.serve.bytes_amortized),
        ] {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for i in 0..LATENCY_BUCKETS {
            io.latency_hist[i].store(0, Ordering::Relaxed);
            self.io_backend.workers_latency_hist[i].store(0, Ordering::Relaxed);
            self.io_backend.uring_latency_hist[i].store(0, Ordering::Relaxed);
            self.pointread.latency_hist[i].store(0, Ordering::Relaxed);
            self.serve.queue_depth_hist[i].store(0, Ordering::Relaxed);
        }
        for i in 0..3 {
            self.cache.inserted[i].store(0, Ordering::Relaxed);
            self.cache.rejected[i].store(0, Ordering::Relaxed);
            self.cache.evicted[i].store(0, Ordering::Relaxed);
        }
        self.iterations.lock().unwrap().clear();
        self.query_sweeps.lock().unwrap().clear();
        self.query_records.lock().unwrap().clear();
    }
}

#[inline]
fn latency_bucket(ns: u64) -> usize {
    (64 - ns.max(1).leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1)
}

impl Recorder for FlightRecorder {
    #[inline]
    fn io_submitted(&self, requests: u64, bytes: u64, in_flight: u64) {
        self.io.requests.fetch_add(requests, Ordering::Relaxed);
        self.io.bytes_submitted.fetch_add(bytes, Ordering::Relaxed);
        self.io
            .max_in_flight
            .fetch_max(in_flight, Ordering::Relaxed);
    }

    #[inline]
    fn io_completed(&self, bytes: u64, latency_ns: u64, failed: bool) {
        self.io.completions.fetch_add(1, Ordering::Relaxed);
        self.io.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.io
            .latency_ns_total
            .fetch_add(latency_ns, Ordering::Relaxed);
        self.io.latency_hist[latency_bucket(latency_ns)].fetch_add(1, Ordering::Relaxed);
        if failed {
            self.io.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    fn io_backend_selected(&self, uring: bool) {
        let slot = if uring {
            &self.io_backend.uring_selected
        } else {
            &self.io_backend.workers_selected
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn io_sqe_batch(&self, sqes: u64, enters: u64) {
        self.io_backend.sqe_batches.fetch_add(1, Ordering::Relaxed);
        self.io_backend
            .sqes_submitted
            .fetch_add(sqes, Ordering::Relaxed);
        self.io_backend.enters.fetch_add(enters, Ordering::Relaxed);
    }

    #[inline]
    fn io_cqe_reap(&self, cqes: u64) {
        self.io_backend.cqe_reaps.fetch_add(1, Ordering::Relaxed);
        self.io_backend
            .cqes_reaped
            .fetch_add(cqes, Ordering::Relaxed);
    }

    #[inline]
    fn io_reg_buffer(&self, hit: bool) {
        let slot = if hit {
            &self.io_backend.reg_buffer_hits
        } else {
            &self.io_backend.reg_buffer_misses
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn io_backend_request(&self, uring: bool, latency_ns: u64) {
        let (requests, total, hist) = if uring {
            (
                &self.io_backend.uring_requests,
                &self.io_backend.uring_latency_ns,
                &self.io_backend.uring_latency_hist,
            )
        } else {
            (
                &self.io_backend.workers_requests,
                &self.io_backend.workers_latency_ns,
                &self.io_backend.workers_latency_hist,
            )
        };
        requests.fetch_add(1, Ordering::Relaxed);
        total.fetch_add(latency_ns, Ordering::Relaxed);
        hist[latency_bucket(latency_ns)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn fault_injected(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn cache_inserted(&self, hint: HintClass) {
        self.cache.inserted[hint as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn cache_rejected(&self, hint: HintClass) {
        self.cache.rejected[hint as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn cache_evicted(&self, hint: HintClass) {
        self.cache.evicted[hint as usize].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn buffer_acquired(&self, capacity: u64, reused: bool) {
        self.buffer_pool.acquires.fetch_add(1, Ordering::Relaxed);
        self.buffer_pool
            .bytes_served
            .fetch_add(capacity, Ordering::Relaxed);
        if reused {
            self.buffer_pool.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.buffer_pool.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    fn buffer_recycled(&self, _capacity: u64) {
        self.buffer_pool.recycled.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn bytes_copied(&self, bytes: u64) {
        self.copy.bytes_copied.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    fn bytes_borrowed(&self, bytes: u64) {
        self.copy.bytes_borrowed.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    fn compute_batch(&self, edges: u64, plain_updates: u64, atomic_edges: u64, groups: u64) {
        self.compute
            .edges_processed
            .fetch_add(edges, Ordering::Relaxed);
        self.compute
            .shard_conflicts_avoided
            .fetch_add(plain_updates, Ordering::Relaxed);
        self.compute
            .atomic_fallback_edges
            .fetch_add(atomic_edges, Ordering::Relaxed);
        self.compute
            .groups_scheduled
            .fetch_add(groups, Ordering::Relaxed);
    }

    #[inline]
    fn compute_llc_estimate(&self, bytes: u64) {
        self.compute
            .llc_resident_bytes
            .fetch_max(bytes, Ordering::Relaxed);
    }

    #[inline]
    fn ingest_chunk(&self, pass: u8, edges: u64, bytes: u64) {
        let chunks = if pass <= 1 {
            &self.ingest.chunks_pass1
        } else {
            &self.ingest.chunks_pass2
        };
        chunks.fetch_add(1, Ordering::Relaxed);
        // Edges and raw bytes stream by once per pass; count them on pass 1
        // only so `edges_in` is the file's edge total, not a multiple.
        if pass <= 1 {
            self.ingest.edges_in.fetch_add(edges, Ordering::Relaxed);
            self.ingest.bytes_in.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    #[inline]
    fn ingest_flush(&self, bytes: u64, writes: u64) {
        self.ingest.flushes.fetch_add(1, Ordering::Relaxed);
        self.ingest.pwrites.fetch_add(writes, Ordering::Relaxed);
        self.ingest.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    fn ingest_staging(&self, bytes: u64) {
        self.ingest
            .staging_peak_bytes
            .fetch_max(bytes, Ordering::Relaxed);
    }

    #[inline]
    fn ingest_pass(&self, pass: u8, wall_ns: u64) {
        let slot = if pass <= 1 {
            &self.ingest.pass1_ns
        } else {
            &self.ingest.pass2_ns
        };
        slot.fetch_add(wall_ns, Ordering::Relaxed);
    }

    fn iteration_finished(&self, metrics: IterationMetrics) {
        self.iterations.lock().unwrap().push(metrics);
    }

    fn query_sweep(&self, sweep: QueryBatchSweep) {
        self.query_sweeps.lock().unwrap().push(sweep);
    }

    #[inline]
    fn pointread_lookup(
        &self,
        tiles_fetched: u64,
        cache_hits: u64,
        bytes_read: u64,
        latency_ns: u64,
    ) {
        self.pointread.lookups.fetch_add(1, Ordering::Relaxed);
        self.pointread
            .tiles_fetched
            .fetch_add(tiles_fetched, Ordering::Relaxed);
        self.pointread
            .cache_hits
            .fetch_add(cache_hits, Ordering::Relaxed);
        self.pointread
            .bytes_read
            .fetch_add(bytes_read, Ordering::Relaxed);
        self.pointread
            .latency_ns_total
            .fetch_add(latency_ns, Ordering::Relaxed);
        self.pointread.latency_hist[latency_bucket(latency_ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn query_finished(&self, record: QueryRecord) {
        self.query_records.lock().unwrap().push(record);
    }

    #[inline]
    fn codec_tiles(&self, tiles: u64, disk_bytes: u64, logical_bytes: u64) {
        self.codec.tiles_decoded.fetch_add(tiles, Ordering::Relaxed);
        self.codec
            .disk_bytes
            .fetch_add(disk_bytes, Ordering::Relaxed);
        self.codec
            .logical_bytes
            .fetch_add(logical_bytes, Ordering::Relaxed);
    }

    #[inline]
    fn codec_decode_ns(&self, ns: u64) {
        self.codec.decode_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn codec_decoded_edges(&self, edges: u64) {
        self.codec.decoded_edges.fetch_add(edges, Ordering::Relaxed);
    }

    #[inline]
    fn serve_connection_opened(&self) {
        self.serve
            .connections_opened
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn serve_connection_closed(&self) {
        self.serve
            .connections_closed
            .fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn serve_point_query(&self, ok: bool) {
        self.serve.point_queries.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.serve.point_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    fn serve_query_queued(&self, depth: u64) {
        self.serve.queries_queued.fetch_add(1, Ordering::Relaxed);
        self.serve.queue_depth_hist[latency_bucket(depth)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn serve_query_rejected(&self) {
        self.serve.queries_rejected.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn serve_batch_admitted(&self, queries: u64) {
        self.serve.batches.fetch_add(1, Ordering::Relaxed);
        self.serve
            .batch_queries
            .fetch_add(queries, Ordering::Relaxed);
    }

    #[inline]
    fn serve_query_completed(&self, ok: bool) {
        self.serve.queries_completed.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.serve.query_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    fn serve_batch_run(&self, sweeps: u64, bytes_read: u64, bytes_amortized: u64) {
        self.serve.sweeps.fetch_add(sweeps, Ordering::Relaxed);
        self.serve
            .bytes_read
            .fetch_add(bytes_read, Ordering::Relaxed);
        self.serve
            .bytes_amortized
            .fetch_add(bytes_amortized, Ordering::Relaxed);
    }
}

/// I/O-layer totals (snapshot).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoMetrics {
    pub requests: u64,
    pub bytes_submitted: u64,
    pub completions: u64,
    pub errors: u64,
    pub bytes_read: u64,
    /// Highest queue occupancy observed at submit time.
    pub max_in_flight: u64,
    pub latency_ns_total: u64,
    /// `latency_hist[i]` = completions with latency in `[2^i, 2^(i+1))` ns.
    pub latency_hist: [u64; LATENCY_BUCKETS],
    pub faults_injected: u64,
}

impl IoMetrics {
    pub fn mean_latency_ns(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.latency_ns_total as f64 / self.completions as f64
        }
    }
}

/// I/O backend-selection and io_uring mechanics totals (snapshot): which
/// engine ran, how well SQ batching amortized syscalls, how often reads
/// landed in registered buffers, and per-engine request latency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoBackendMetrics {
    /// Engines constructed on the worker pool.
    pub workers_selected: u64,
    /// Engines constructed on io_uring.
    pub uring_selected: u64,
    /// Submission batches pushed to an SQ.
    pub sqe_batches: u64,
    /// SQEs queued across all batches.
    pub sqes_submitted: u64,
    /// `io_uring_enter` calls spent submitting (0 per batch possible
    /// under SQPOLL).
    pub enters: u64,
    /// Non-empty CQ reaps.
    pub cqe_reaps: u64,
    /// CQEs collected across all reaps.
    pub cqes_reaped: u64,
    /// Reads served from a registered arena via `READ_FIXED`.
    pub reg_buffer_hits: u64,
    /// Reads that fell back to plain `READ` (unregistered buffer).
    pub reg_buffer_misses: u64,
    /// Requests completed on the worker pool.
    pub workers_requests: u64,
    pub workers_latency_ns: u64,
    /// `[i]` = worker-pool requests with latency in `[2^i, 2^(i+1))` ns.
    pub workers_latency_hist: [u64; LATENCY_BUCKETS],
    /// Requests completed on io_uring.
    pub uring_requests: u64,
    pub uring_latency_ns: u64,
    /// `[i]` = uring requests with latency in `[2^i, 2^(i+1))` ns.
    pub uring_latency_hist: [u64; LATENCY_BUCKETS],
}

impl IoBackendMetrics {
    /// Mean SQEs pushed per `io_uring_enter`. 0.0 when no enters ran.
    pub fn sqes_per_enter(&self) -> f64 {
        if self.enters == 0 {
            0.0
        } else {
            self.sqes_submitted as f64 / self.enters as f64
        }
    }

    /// Mean CQEs collected per non-empty reap. 0.0 when idle.
    pub fn mean_reap_size(&self) -> f64 {
        if self.cqe_reaps == 0 {
            0.0
        } else {
            self.cqes_reaped as f64 / self.cqe_reaps as f64
        }
    }

    /// Fraction of uring reads that used a registered buffer. 0.0 idle.
    pub fn reg_buffer_hit_rate(&self) -> f64 {
        let total = self.reg_buffer_hits + self.reg_buffer_misses;
        if total == 0 {
            0.0
        } else {
            self.reg_buffer_hits as f64 / total as f64
        }
    }

    /// Mean worker-pool request latency. 0.0 when idle.
    pub fn workers_mean_latency_ns(&self) -> f64 {
        if self.workers_requests == 0 {
            0.0
        } else {
            self.workers_latency_ns as f64 / self.workers_requests as f64
        }
    }

    /// Mean uring request latency. 0.0 when idle.
    pub fn uring_mean_latency_ns(&self) -> f64 {
        if self.uring_requests == 0 {
            0.0
        } else {
            self.uring_latency_ns as f64 / self.uring_requests as f64
        }
    }
}

/// Cache-pool totals per hint class (snapshot), indexed by [`HintClass`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheMetrics {
    pub inserted: [u64; 3],
    pub rejected: [u64; 3],
    pub evicted: [u64; 3],
}

impl CacheMetrics {
    pub fn total_inserted(&self) -> u64 {
        self.inserted.iter().sum()
    }

    pub fn total_rejected(&self) -> u64 {
        self.rejected.iter().sum()
    }

    pub fn total_evicted(&self) -> u64 {
        self.evicted.iter().sum()
    }
}

/// Reusable aligned I/O buffer-pool totals (snapshot).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BufferPoolMetrics {
    /// Buffers handed out (`hits + misses`).
    pub acquires: u64,
    /// Acquires served from the free list (no allocation).
    pub hits: u64,
    /// Acquires that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the pool (RAII recycling).
    pub recycled: u64,
    /// Total allocated capacity handed out across all acquires.
    pub bytes_served: u64,
}

impl BufferPoolMetrics {
    /// Fraction of acquires served without allocating. 1.0 when idle.
    pub fn hit_rate(&self) -> f64 {
        if self.acquires == 0 {
            1.0
        } else {
            self.hits as f64 / self.acquires as f64
        }
    }
}

/// Data-movement totals of the streaming path (snapshot): bytes memcpy'd
/// vs. bytes processed in place from pooled run buffers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CopyMetrics {
    /// Bytes memcpy'd (cache-pool inserts, the pipeline's only copy).
    pub bytes_copied: u64,
    /// Bytes processed zero-copy, borrowed from pooled run buffers.
    pub bytes_borrowed: u64,
}

impl CopyMetrics {
    /// Fraction of streamed bytes that were copied. 0.0 when idle.
    pub fn copy_fraction(&self) -> f64 {
        let total = self.bytes_copied + self.bytes_borrowed;
        if total == 0 {
            0.0
        } else {
            self.bytes_copied as f64 / total as f64
        }
    }
}

/// Compute-phase totals (snapshot): how edge updates were executed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComputeMetrics {
    /// Edges decoded and applied across all batches.
    pub edges_processed: u64,
    /// Endpoint updates done as plain writes instead of atomic RMWs —
    /// the contention the column-sharded schedule eliminated.
    pub shard_conflicts_avoided: u64,
    /// Edges executed on the atomic fallback path (0 when every
    /// algorithm in the run opted into sharding).
    pub atomic_fallback_edges: u64,
    /// Physical-group visits across all batch schedules (a group
    /// processed contiguously counts once per shard that touches it).
    pub groups_scheduled: u64,
    /// High-water static estimate of the per-group metadata working set
    /// the group-major order keeps LLC-resident.
    pub llc_resident_bytes: u64,
}

impl ComputeMetrics {
    /// Fraction of edges that ran contention-free. 1.0 when idle.
    pub fn sharded_fraction(&self) -> f64 {
        if self.edges_processed == 0 {
            1.0
        } else {
            1.0 - self.atomic_fallback_edges as f64 / self.edges_processed as f64
        }
    }
}

/// Bit-level tile codec totals (snapshot): how much coded data was decoded
/// on the fly and what it would have weighed raw. All zeros for raw
/// (uncompressed) stores.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodecMetrics {
    /// Coded tiles handed to compute or point reads.
    pub tiles_decoded: u64,
    /// Coded stream bytes those tiles occupied on disk / in cache.
    pub disk_bytes: u64,
    /// Raw SNB bytes the same tiles decode to.
    pub logical_bytes: u64,
    /// Decode wall time: point reads' tile decodes plus the waves of the
    /// sweeps' decode stage.
    pub decode_ns: u64,
    /// Keys the sweeps' decode stage decoded: the stored edges of the
    /// tiles processed, each once per sweep however many queries (and
    /// work items) consumed it.
    pub decoded_edges: u64,
}

impl CodecMetrics {
    /// Logical / disk (> 1 means the codec saved I/O volume). 1.0 when
    /// idle or raw.
    pub fn compression_ratio(&self) -> f64 {
        if self.disk_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.disk_bytes as f64
        }
    }
}

/// Streaming-ingest totals (snapshot): the two converter passes plus the
/// batched positioned-write path underneath them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestMetrics {
    /// Edge-file chunks streamed by pass 1 (counting).
    pub chunks_pass1: u64,
    /// Edge-file chunks streamed by pass 2 (scatter).
    pub chunks_pass2: u64,
    /// Edge tuples read from the edge file (counted once, on pass 1).
    pub edges_in: u64,
    /// Raw edge-file bytes read (counted once, on pass 1).
    pub bytes_in: u64,
    /// Encoded tile bytes written out of the pack buffer.
    pub bytes_out: u64,
    /// Pass-2 chunks written out.
    pub flushes: u64,
    /// Positioned writes issued: per chunk one per touched tile, fewer
    /// where neighbouring runs merge.
    pub pwrites: u64,
    /// Pass-1 wall time.
    pub pass1_ns: u64,
    /// Pass-2 wall time.
    pub pass2_ns: u64,
    /// Largest pack any chunk filled.
    pub staging_peak_bytes: u64,
}

impl IngestMetrics {
    /// Mean positioned writes per flush. 0.0 when idle.
    pub fn writes_per_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.pwrites as f64 / self.flushes as f64
        }
    }
}

/// Point-read (OLTP access path) totals (snapshot).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointReadMetrics {
    /// Point-read requests served (neighbors/degree/k-hop step/walk step).
    pub lookups: u64,
    /// Tiles fetched from storage.
    pub tiles_fetched: u64,
    /// Tiles served from the hot-tile cache instead of storage.
    pub cache_hits: u64,
    /// Bytes read from storage (cache hits contribute nothing here).
    pub bytes_read: u64,
    /// Total request latency.
    pub latency_ns_total: u64,
    /// `latency_hist[i]` = requests with latency in `[2^i, 2^(i+1))` ns.
    pub latency_hist: [u64; LATENCY_BUCKETS],
}

impl PointReadMetrics {
    /// Fraction of tile accesses served by the hot-tile cache. 0.0 when
    /// idle.
    pub fn cache_hit_rate(&self) -> f64 {
        let touched = self.tiles_fetched + self.cache_hits;
        if touched == 0 {
            0.0
        } else {
            self.cache_hits as f64 / touched as f64
        }
    }

    /// Mean request latency. 0.0 when idle.
    pub fn mean_latency_ns(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.latency_ns_total as f64 / self.lookups as f64
        }
    }

    /// Mean storage bytes per request. 0.0 when idle.
    pub fn bytes_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.bytes_read as f64 / self.lookups as f64
        }
    }

    /// Latency percentile estimated from the log2 histogram: the lower
    /// bound of the bucket containing the `q`-quantile request
    /// (`q in [0, 1]`). 0 when no requests were recorded.
    pub fn latency_percentile_ns(&self, q: f64) -> u64 {
        let total: u64 = self.latency_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.latency_hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }
}

/// Serve-daemon totals (snapshot): connections, admission-queue flow, and
/// the shared-scan amortization achieved by admitted batches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeMetrics {
    /// Client connections accepted.
    pub connections_opened: u64,
    /// Client connections closed (cleanly or on error).
    pub connections_closed: u64,
    /// Point queries answered on connection threads.
    pub point_queries: u64,
    /// Point queries that ended in a typed ERR reply.
    pub point_errors: u64,
    /// Sweep queries accepted into the admission queue.
    pub queries_queued: u64,
    /// Sweep queries refused with BUSY (queue full).
    pub queries_rejected: u64,
    /// Sweep queries that produced a reply (OK or ERR).
    pub queries_completed: u64,
    /// Sweep queries whose reply was a typed ERR frame.
    pub query_errors: u64,
    /// Admitted batch runs (each one `run_batch` call).
    pub batches: u64,
    /// Queries admitted across all batch runs.
    pub batch_queries: u64,
    /// Shared scans executed across all batch runs.
    pub sweeps: u64,
    /// Storage bytes read by admitted batch runs.
    pub bytes_read: u64,
    /// Bytes the shared scans saved versus running each query solo.
    pub bytes_amortized: u64,
    /// `queue_depth_hist[i]` = enqueues that observed a post-enqueue queue
    /// depth in `[2^i, 2^(i+1))` (depth 0 counts in bucket 0).
    pub queue_depth_hist: [u64; LATENCY_BUCKETS],
}

impl ServeMetrics {
    /// Sweep queries offered to the daemon: accepted plus rejected.
    pub fn queries_submitted(&self) -> u64 {
        self.queries_queued + self.queries_rejected
    }

    /// Mean queries per admitted batch. 0.0 when idle.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_queries as f64 / self.batches as f64
        }
    }

    /// `(bytes_read + bytes_amortized) / bytes_read` — how many bytes of
    /// per-query work each storage byte served. 1.0 when idle.
    pub fn read_amortization(&self) -> f64 {
        if self.bytes_read == 0 {
            1.0
        } else {
            (self.bytes_read + self.bytes_amortized) as f64 / self.bytes_read as f64
        }
    }

    /// Queue-depth percentile estimated from the log2 histogram: the lower
    /// bound of the bucket containing the `q`-quantile enqueue
    /// (`q in [0, 1]`). 0 when nothing was enqueued.
    pub fn queue_depth_percentile(&self, q: f64) -> u64 {
        let total: u64 = self.queue_depth_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.queue_depth_hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }
}

/// Everything the flight recorder saw, exposed by the engine and
/// serializable to JSON (schema: docs/METRICS.md).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineMetrics {
    pub iterations: Vec<IterationMetrics>,
    pub query_batch: QueryBatchMetrics,
    pub io: IoMetrics,
    pub io_backend: IoBackendMetrics,
    pub cache: CacheMetrics,
    pub buffer_pool: BufferPoolMetrics,
    pub copy: CopyMetrics,
    pub compute: ComputeMetrics,
    pub codec: CodecMetrics,
    pub ingest: IngestMetrics,
    pub pointread: PointReadMetrics,
    pub serve: ServeMetrics,
}

impl EngineMetrics {
    /// Tiles served from cache across all iterations.
    pub fn tiles_rewind(&self) -> u64 {
        self.iterations.iter().map(|i| i.tiles_rewind).sum()
    }

    /// Tiles fetched from storage across all iterations.
    pub fn tiles_streamed(&self) -> u64 {
        self.iterations.iter().map(|i| i.tiles_streamed).sum()
    }

    /// Bytes fetched from storage across all iterations (engine view).
    pub fn stream_bytes(&self) -> u64 {
        self.iterations.iter().map(|i| i.stream_bytes).sum()
    }

    /// Mean slide-phase I/O/compute overlap, weighted by slide time.
    pub fn overlap_ratio(&self) -> f64 {
        let slide: u64 = self.iterations.iter().map(|i| i.slide_ns).sum();
        if slide == 0 {
            return 1.0;
        }
        let wait: u64 = self
            .iterations
            .iter()
            .map(|i| i.io_wait_ns.min(i.slide_ns))
            .sum();
        1.0 - wait as f64 / slide as f64
    }

    /// Total time across all phases of all iterations.
    pub fn total_ns(&self) -> u64 {
        self.iterations.iter().map(|i| i.total_ns()).sum()
    }

    /// Per-phase share of total time: `(select, rewind, slide, cache_insert)`,
    /// each in `[0, 1]`. All zeros when nothing was recorded.
    pub fn phase_split(&self) -> (f64, f64, f64, f64) {
        let total = self.total_ns();
        if total == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let sum = |f: fn(&IterationMetrics) -> u64| {
            self.iterations.iter().map(f).sum::<u64>() as f64 / total as f64
        };
        (
            sum(|i| i.select_ns),
            sum(|i| i.rewind_ns),
            sum(|i| i.slide_ns),
            sum(|i| i.cache_insert_ns),
        )
    }

    /// Serializes to a self-describing JSON document (no external deps;
    /// schema documented in docs/METRICS.md).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024 + self.iterations.len() * 256);
        s.push_str("{\n  \"iterations\": [");
        for (k, it) in self.iterations.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"iteration\": {}, \"select_ns\": {}, \"rewind_ns\": {}, \
                 \"slide_ns\": {}, \"cache_insert_ns\": {}, \"io_wait_ns\": {}, \
                 \"slide_compute_ns\": {}, \"runs_streamed\": {}, \
                 \"overlap_ratio\": {:.6}, \"tiles_rewind\": {}, \"tiles_streamed\": {}, \
                 \"rewind_bytes\": {}, \"stream_bytes\": {}}}",
                it.iteration,
                it.select_ns,
                it.rewind_ns,
                it.slide_ns,
                it.cache_insert_ns,
                it.io_wait_ns,
                it.slide_compute_ns,
                it.runs_streamed,
                it.overlap_ratio(),
                it.tiles_rewind,
                it.tiles_streamed,
                it.rewind_bytes,
                it.stream_bytes,
            ));
        }
        if !self.iterations.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");

        let qb = &self.query_batch;
        s.push_str("  \"query_batch\": {\"sweeps\": [");
        for (k, sw) in qb.sweeps.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"sweep\": {}, \"queries_active\": {}, \"tiles_union\": {}, \
                 \"tiles_shared\": {}, \"bytes_read\": {}, \"bytes_amortized\": {}, \
                 \"sweep_ns\": {}}}",
                sw.sweep,
                sw.queries_active,
                sw.tiles_union,
                sw.tiles_shared,
                sw.bytes_read,
                sw.bytes_amortized,
                sw.sweep_ns,
            ));
        }
        if !qb.sweeps.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("], \"queries\": [");
        for (k, q) in qb.queries.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let iters: Vec<String> = q.iter_ns.iter().map(u64::to_string).collect();
            s.push_str(&format!(
                "\n    {{\"query\": {}, \"name\": \"{}\", \"iterations\": {}, \
                 \"elapsed_ns\": {}, \"converged\": {}, \"iter_ns\": [{}]}}",
                q.query,
                q.name.replace('"', "'"),
                q.iterations,
                q.elapsed_ns,
                q.converged,
                iters.join(", "),
            ));
        }
        if !qb.queries.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str(&format!(
            "], \"tiles_shared\": {}, \"bytes_amortized\": {}, \"max_queries_active\": {}}},\n",
            qb.tiles_shared(),
            qb.bytes_amortized(),
            qb.max_queries_active(),
        ));

        let io = &self.io;
        s.push_str(&format!(
            "  \"io\": {{\"requests\": {}, \"bytes_submitted\": {}, \"completions\": {}, \
             \"errors\": {}, \"bytes_read\": {}, \"max_in_flight\": {}, \
             \"mean_latency_ns\": {:.1}, \"faults_injected\": {}, \"latency_hist\": {{",
            io.requests,
            io.bytes_submitted,
            io.completions,
            io.errors,
            io.bytes_read,
            io.max_in_flight,
            io.mean_latency_ns(),
            io.faults_injected,
        ));
        // Sparse histogram: only non-empty buckets, keyed by lower bound ns.
        let mut first = true;
        for (i, &count) in io.latency_hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{}\": {}", 1u64 << i, count));
        }
        s.push_str("}},\n");

        let ib = &self.io_backend;
        s.push_str(&format!(
            "  \"io_backend\": {{\"workers_selected\": {}, \"uring_selected\": {}, \
             \"sqe_batches\": {}, \"sqes_submitted\": {}, \"enters\": {}, \
             \"sqes_per_enter\": {:.3}, \"cqe_reaps\": {}, \"cqes_reaped\": {}, \
             \"mean_reap_size\": {:.3}, \"reg_buffer_hits\": {}, \"reg_buffer_misses\": {}, \
             \"reg_buffer_hit_rate\": {:.6}, \"workers_requests\": {}, \
             \"workers_mean_latency_ns\": {:.1}, \"uring_requests\": {}, \
             \"uring_mean_latency_ns\": {:.1}, \"workers_latency_hist\": {{",
            ib.workers_selected,
            ib.uring_selected,
            ib.sqe_batches,
            ib.sqes_submitted,
            ib.enters,
            ib.sqes_per_enter(),
            ib.cqe_reaps,
            ib.cqes_reaped,
            ib.mean_reap_size(),
            ib.reg_buffer_hits,
            ib.reg_buffer_misses,
            ib.reg_buffer_hit_rate(),
            ib.workers_requests,
            ib.workers_mean_latency_ns(),
            ib.uring_requests,
            ib.uring_mean_latency_ns(),
        ));
        let mut first = true;
        for (i, &count) in ib.workers_latency_hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{}\": {}", 1u64 << i, count));
        }
        s.push_str("}, \"uring_latency_hist\": {");
        let mut first = true;
        for (i, &count) in ib.uring_latency_hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{}\": {}", 1u64 << i, count));
        }
        s.push_str("}},\n");

        s.push_str("  \"cache\": {");
        for (j, kind) in [
            ("inserted", &self.cache.inserted),
            ("rejected", &self.cache.rejected),
            ("evicted", &self.cache.evicted),
        ]
        .iter()
        .enumerate()
        {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {{", kind.0));
            for (i, h) in HintClass::ALL.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\": {}", h.name(), kind.1[*h as usize]));
            }
            s.push('}');
        }
        s.push_str("},\n");

        let bp = &self.buffer_pool;
        s.push_str(&format!(
            "  \"buffer_pool\": {{\"acquires\": {}, \"hits\": {}, \"misses\": {}, \
             \"recycled\": {}, \"bytes_served\": {}, \"hit_rate\": {:.6}}},\n",
            bp.acquires,
            bp.hits,
            bp.misses,
            bp.recycled,
            bp.bytes_served,
            bp.hit_rate(),
        ));
        s.push_str(&format!(
            "  \"copy\": {{\"bytes_copied\": {}, \"bytes_borrowed\": {}, \
             \"copy_fraction\": {:.6}}},\n",
            self.copy.bytes_copied,
            self.copy.bytes_borrowed,
            self.copy.copy_fraction(),
        ));
        let cm = &self.compute;
        s.push_str(&format!(
            "  \"compute\": {{\"edges_processed\": {}, \"shard_conflicts_avoided\": {}, \
             \"atomic_fallback_edges\": {}, \"groups_scheduled\": {}, \
             \"llc_resident_bytes\": {}, \"sharded_fraction\": {:.6}}},\n",
            cm.edges_processed,
            cm.shard_conflicts_avoided,
            cm.atomic_fallback_edges,
            cm.groups_scheduled,
            cm.llc_resident_bytes,
            cm.sharded_fraction(),
        ));
        let cd = &self.codec;
        s.push_str(&format!(
            "  \"codec\": {{\"tiles_decoded\": {}, \"disk_bytes\": {}, \
             \"logical_bytes\": {}, \"decode_ns\": {}, \"decoded_edges\": {}, \
             \"compression_ratio\": {:.6}}},\n",
            cd.tiles_decoded,
            cd.disk_bytes,
            cd.logical_bytes,
            cd.decode_ns,
            cd.decoded_edges,
            cd.compression_ratio(),
        ));
        let ing = &self.ingest;
        s.push_str(&format!(
            "  \"ingest\": {{\"chunks_pass1\": {}, \"chunks_pass2\": {}, \"edges_in\": {}, \
             \"bytes_in\": {}, \"bytes_out\": {}, \"flushes\": {}, \"pwrites\": {}, \
             \"writes_per_flush\": {:.3}, \"pass1_ns\": {}, \"pass2_ns\": {}, \
             \"staging_peak_bytes\": {}}},\n",
            ing.chunks_pass1,
            ing.chunks_pass2,
            ing.edges_in,
            ing.bytes_in,
            ing.bytes_out,
            ing.flushes,
            ing.pwrites,
            ing.writes_per_flush(),
            ing.pass1_ns,
            ing.pass2_ns,
            ing.staging_peak_bytes,
        ));
        let pr = &self.pointread;
        s.push_str(&format!(
            "  \"pointread\": {{\"lookups\": {}, \"tiles_fetched\": {}, \"cache_hits\": {}, \
             \"bytes_read\": {}, \"cache_hit_rate\": {:.6}, \"mean_latency_ns\": {:.1}, \
             \"p50_latency_ns\": {}, \"p99_latency_ns\": {}, \"latency_hist\": {{",
            pr.lookups,
            pr.tiles_fetched,
            pr.cache_hits,
            pr.bytes_read,
            pr.cache_hit_rate(),
            pr.mean_latency_ns(),
            pr.latency_percentile_ns(0.50),
            pr.latency_percentile_ns(0.99),
        ));
        let mut first = true;
        for (i, &count) in pr.latency_hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{}\": {}", 1u64 << i, count));
        }
        s.push_str("}},\n");

        let sv = &self.serve;
        s.push_str(&format!(
            "  \"serve\": {{\"connections_opened\": {}, \"connections_closed\": {}, \
             \"point_queries\": {}, \"point_errors\": {}, \"queries_queued\": {}, \
             \"queries_rejected\": {}, \"queries_completed\": {}, \"query_errors\": {}, \
             \"batches\": {}, \"batch_queries\": {}, \"mean_batch_size\": {:.3}, \
             \"sweeps\": {}, \"bytes_read\": {}, \"bytes_amortized\": {}, \
             \"read_amortization\": {:.6}, \"p50_queue_depth\": {}, \
             \"p99_queue_depth\": {}, \"queue_depth_hist\": {{",
            sv.connections_opened,
            sv.connections_closed,
            sv.point_queries,
            sv.point_errors,
            sv.queries_queued,
            sv.queries_rejected,
            sv.queries_completed,
            sv.query_errors,
            sv.batches,
            sv.batch_queries,
            sv.mean_batch_size(),
            sv.sweeps,
            sv.bytes_read,
            sv.bytes_amortized,
            sv.read_amortization(),
            sv.queue_depth_percentile(0.50),
            sv.queue_depth_percentile(0.99),
        ));
        let mut first = true;
        for (i, &count) in sv.queue_depth_hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{}\": {}", 1u64 << i, count));
        }
        s.push_str("}},\n");

        let (sel, rew, sli, ins) = self.phase_split();
        s.push_str(&format!(
            "  \"summary\": {{\"total_ns\": {}, \"overlap_ratio\": {:.6}, \
             \"phase_split\": {{\"select\": {:.6}, \"rewind\": {:.6}, \"slide\": {:.6}, \
             \"cache_insert\": {:.6}}}, \"tiles_rewind\": {}, \"tiles_streamed\": {}}}\n}}\n",
            self.total_ns(),
            self.overlap_ratio(),
            sel,
            rew,
            sli,
            ins,
            self.tiles_rewind(),
            self.tiles_streamed(),
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn recorder_accumulates_and_snapshots() {
        let r = FlightRecorder::new();
        r.io_submitted(3, 3000, 3);
        r.io_submitted(1, 500, 4);
        r.io_completed(1000, 2048, false);
        r.io_completed(0, 100, true);
        r.cache_inserted(HintClass::Needed);
        r.cache_rejected(HintClass::NotNeeded);
        r.cache_evicted(HintClass::Unknown);
        r.fault_injected();
        r.iteration_finished(IterationMetrics {
            iteration: 0,
            slide_ns: 100,
            io_wait_ns: 25,
            tiles_streamed: 4,
            stream_bytes: 1000,
            ..Default::default()
        });

        let m = r.snapshot();
        assert_eq!(m.io.requests, 4);
        assert_eq!(m.io.bytes_submitted, 3500);
        assert_eq!(m.io.completions, 2);
        assert_eq!(m.io.errors, 1);
        assert_eq!(m.io.bytes_read, 1000);
        assert_eq!(m.io.max_in_flight, 4);
        assert_eq!(m.io.faults_injected, 1);
        assert_eq!(m.io.latency_hist[11], 1); // 2048 ns
        assert_eq!(m.cache.inserted[HintClass::Needed as usize], 1);
        assert_eq!(m.cache.total_rejected(), 1);
        assert_eq!(m.cache.total_evicted(), 1);
        assert_eq!(m.iterations.len(), 1);
        assert!((m.iterations[0].overlap_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(m.tiles_streamed(), 4);
        assert_eq!(m.stream_bytes(), 1000);
    }

    #[test]
    fn reset_clears_everything() {
        let r = FlightRecorder::new();
        r.io_submitted(5, 100, 5);
        r.io_completed(100, 10, false);
        r.io_backend_selected(true);
        r.io_backend_selected(false);
        r.io_sqe_batch(8, 1);
        r.io_cqe_reap(8);
        r.io_reg_buffer(true);
        r.io_reg_buffer(false);
        r.io_backend_request(true, 1000);
        r.io_backend_request(false, 2000);
        r.cache_inserted(HintClass::Unknown);
        r.buffer_acquired(4096, false);
        r.buffer_recycled(4096);
        r.bytes_copied(10);
        r.bytes_borrowed(20);
        r.compute_batch(100, 50, 10, 3);
        r.compute_llc_estimate(1 << 20);
        r.ingest_chunk(1, 100, 2400);
        r.ingest_chunk(2, 100, 2400);
        r.ingest_flush(400, 3);
        r.ingest_staging(400);
        r.ingest_pass(1, 500);
        r.ingest_pass(2, 700);
        r.pointread_lookup(3, 2, 1200, 5000);
        r.codec_tiles(4, 1000, 4000);
        r.codec_decode_ns(250);
        r.codec_decoded_edges(1000);
        r.serve_connection_opened();
        r.serve_point_query(false);
        r.serve_query_queued(3);
        r.serve_query_rejected();
        r.serve_batch_admitted(2);
        r.serve_query_completed(false);
        r.serve_batch_run(4, 1000, 3000);
        r.serve_connection_closed();
        r.iteration_finished(IterationMetrics::default());
        r.reset();
        assert_eq!(r.snapshot(), EngineMetrics::default());
    }

    #[test]
    fn io_backend_counters_accumulate() {
        let r = FlightRecorder::new();
        r.io_backend_selected(true);
        r.io_sqe_batch(16, 1);
        r.io_sqe_batch(4, 1);
        r.io_cqe_reap(12);
        r.io_cqe_reap(8);
        r.io_reg_buffer(true);
        r.io_reg_buffer(true);
        r.io_reg_buffer(false);
        r.io_backend_request(true, 2048);
        r.io_backend_request(true, 4096);
        r.io_backend_request(false, 1024);
        let m = r.snapshot();
        assert_eq!(m.io_backend.uring_selected, 1);
        assert_eq!(m.io_backend.workers_selected, 0);
        assert_eq!(m.io_backend.sqe_batches, 2);
        assert_eq!(m.io_backend.sqes_submitted, 20);
        assert_eq!(m.io_backend.enters, 2);
        assert!((m.io_backend.sqes_per_enter() - 10.0).abs() < 1e-12);
        assert_eq!(m.io_backend.cqe_reaps, 2);
        assert_eq!(m.io_backend.cqes_reaped, 20);
        assert!((m.io_backend.mean_reap_size() - 10.0).abs() < 1e-12);
        assert_eq!(m.io_backend.reg_buffer_hits, 2);
        assert_eq!(m.io_backend.reg_buffer_misses, 1);
        assert!((m.io_backend.reg_buffer_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.io_backend.uring_requests, 2);
        assert_eq!(m.io_backend.uring_latency_hist[11], 1); // 2048 ns
        assert_eq!(m.io_backend.uring_latency_hist[12], 1); // 4096 ns
        assert!((m.io_backend.uring_mean_latency_ns() - 3072.0).abs() < 1e-9);
        assert_eq!(m.io_backend.workers_requests, 1);
        assert_eq!(m.io_backend.workers_latency_hist[10], 1); // 1024 ns
        assert!((m.io_backend.workers_mean_latency_ns() - 1024.0).abs() < 1e-9);
        // Idle degenerate cases.
        let idle = IoBackendMetrics::default();
        assert_eq!(idle.sqes_per_enter(), 0.0);
        assert_eq!(idle.mean_reap_size(), 0.0);
        assert_eq!(idle.reg_buffer_hit_rate(), 0.0);
        assert_eq!(idle.workers_mean_latency_ns(), 0.0);
        assert_eq!(idle.uring_mean_latency_ns(), 0.0);
    }

    #[test]
    fn pointread_counters_accumulate() {
        let r = FlightRecorder::new();
        r.pointread_lookup(2, 0, 800, 1500);
        r.pointread_lookup(0, 2, 0, 700);
        r.pointread_lookup(1, 1, 400, 3000);
        let m = r.snapshot();
        assert_eq!(m.pointread.lookups, 3);
        assert_eq!(m.pointread.tiles_fetched, 3);
        assert_eq!(m.pointread.cache_hits, 3);
        assert_eq!(m.pointread.bytes_read, 1200);
        assert_eq!(m.pointread.latency_ns_total, 5200);
        assert!((m.pointread.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert!((m.pointread.bytes_per_lookup() - 400.0).abs() < 1e-12);
        assert!((m.pointread.mean_latency_ns() - 5200.0 / 3.0).abs() < 1e-9);
        // 700 -> bucket 512, 1500 -> 1024, 3000 -> 2048.
        assert_eq!(m.pointread.latency_percentile_ns(0.0), 512);
        assert_eq!(m.pointread.latency_percentile_ns(0.5), 1024);
        assert_eq!(m.pointread.latency_percentile_ns(0.99), 2048);
        // Idle degenerate cases.
        let idle = PointReadMetrics::default();
        assert_eq!(idle.cache_hit_rate(), 0.0);
        assert_eq!(idle.mean_latency_ns(), 0.0);
        assert_eq!(idle.bytes_per_lookup(), 0.0);
        assert_eq!(idle.latency_percentile_ns(0.5), 0);
    }

    #[test]
    fn ingest_counters_accumulate() {
        let r = FlightRecorder::new();
        r.ingest_chunk(1, 1000, 24_000);
        r.ingest_chunk(1, 500, 12_000);
        r.ingest_chunk(2, 1000, 24_000); // pass 2 never double-counts edges
        r.ingest_flush(4096, 7);
        r.ingest_flush(2048, 2);
        r.ingest_staging(4096);
        r.ingest_staging(1024); // high-water mark keeps the max
        r.ingest_pass(1, 100);
        r.ingest_pass(2, 300);
        let m = r.snapshot();
        assert_eq!(m.ingest.chunks_pass1, 2);
        assert_eq!(m.ingest.chunks_pass2, 1);
        assert_eq!(m.ingest.edges_in, 1500);
        assert_eq!(m.ingest.bytes_in, 36_000);
        assert_eq!(m.ingest.bytes_out, 6144);
        assert_eq!(m.ingest.flushes, 2);
        assert_eq!(m.ingest.pwrites, 9);
        assert_eq!(m.ingest.pass1_ns, 100);
        assert_eq!(m.ingest.pass2_ns, 300);
        assert_eq!(m.ingest.staging_peak_bytes, 4096);
        assert!((m.ingest.writes_per_flush() - 4.5).abs() < 1e-12);
        assert_eq!(IngestMetrics::default().writes_per_flush(), 0.0);
    }

    #[test]
    fn compute_counters_accumulate() {
        let r = FlightRecorder::new();
        r.compute_batch(100, 150, 0, 4);
        r.compute_batch(40, 0, 40, 2);
        r.compute_llc_estimate(1 << 16);
        r.compute_llc_estimate(1 << 14); // high-water mark keeps the max
        let m = r.snapshot();
        assert_eq!(m.compute.edges_processed, 140);
        assert_eq!(m.compute.shard_conflicts_avoided, 150);
        assert_eq!(m.compute.atomic_fallback_edges, 40);
        assert_eq!(m.compute.groups_scheduled, 6);
        assert_eq!(m.compute.llc_resident_bytes, 1 << 16);
        assert!((m.compute.sharded_fraction() - 100.0 / 140.0).abs() < 1e-12);
        assert_eq!(ComputeMetrics::default().sharded_fraction(), 1.0);
    }

    #[test]
    fn codec_counters_accumulate() {
        let r = FlightRecorder::new();
        r.codec_tiles(3, 300, 1200);
        r.codec_tiles(1, 100, 400);
        r.codec_decode_ns(500);
        r.codec_decode_ns(700);
        r.codec_decoded_edges(300);
        r.codec_decoded_edges(100);
        let m = r.snapshot();
        assert_eq!(m.codec.tiles_decoded, 4);
        assert_eq!(m.codec.disk_bytes, 400);
        assert_eq!(m.codec.logical_bytes, 1600);
        assert_eq!(m.codec.decode_ns, 1200);
        assert_eq!(m.codec.decoded_edges, 400);
        assert!((m.codec.compression_ratio() - 4.0).abs() < 1e-12);
        // Raw stores record nothing: the ratio degenerates to 1.
        assert_eq!(CodecMetrics::default().compression_ratio(), 1.0);
        let json = m.to_json();
        for key in [
            "\"codec\"",
            "\"tiles_decoded\": 4",
            "\"disk_bytes\": 400",
            "\"logical_bytes\": 1600",
            "\"decoded_edges\": 400",
            "\"compression_ratio\": 4.0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn buffer_pool_and_copy_counters_accumulate() {
        let r = FlightRecorder::new();
        r.buffer_acquired(4096, false);
        r.buffer_acquired(4096, true);
        r.buffer_acquired(8192, true);
        r.buffer_recycled(4096);
        r.bytes_copied(100);
        r.bytes_borrowed(300);
        let m = r.snapshot();
        assert_eq!(m.buffer_pool.acquires, 3);
        assert_eq!(m.buffer_pool.hits, 2);
        assert_eq!(m.buffer_pool.misses, 1);
        assert_eq!(m.buffer_pool.recycled, 1);
        assert_eq!(m.buffer_pool.bytes_served, 16384);
        assert!((m.buffer_pool.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.copy.bytes_copied, 100);
        assert_eq!(m.copy.bytes_borrowed, 300);
        assert!((m.copy.copy_fraction() - 0.25).abs() < 1e-12);
        // Degenerate cases.
        assert_eq!(BufferPoolMetrics::default().hit_rate(), 1.0);
        assert_eq!(CopyMetrics::default().copy_fraction(), 0.0);
    }

    #[test]
    fn overlap_ratio_degenerate_cases() {
        let m = IterationMetrics::default();
        assert_eq!(m.overlap_ratio(), 1.0); // no slide at all
        let m = IterationMetrics {
            slide_ns: 10,
            io_wait_ns: 50,
            ..Default::default()
        };
        assert_eq!(m.overlap_ratio(), 0.0); // wait clamped to slide
        assert_eq!(EngineMetrics::default().overlap_ratio(), 1.0);
        assert_eq!(EngineMetrics::default().phase_split(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn json_is_well_formed_and_self_describing() {
        let r = FlightRecorder::new();
        r.io_submitted(2, 200, 2);
        r.io_completed(100, 1500, false);
        r.io_completed(100, 3000, false);
        r.cache_inserted(HintClass::Needed);
        r.iteration_finished(IterationMetrics {
            iteration: 0,
            select_ns: 10,
            rewind_ns: 20,
            slide_ns: 40,
            cache_insert_ns: 30,
            io_wait_ns: 10,
            slide_compute_ns: 25,
            runs_streamed: 2,
            tiles_rewind: 1,
            tiles_streamed: 2,
            rewind_bytes: 64,
            stream_bytes: 200,
        });
        let json = r.snapshot().to_json();
        // Structural sanity without a JSON parser: balanced braces/brackets,
        // expected keys present.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"iterations\"",
            "\"select_ns\"",
            "\"io_wait_ns\"",
            "\"slide_compute_ns\"",
            "\"runs_streamed\"",
            "\"overlap_ratio\"",
            "\"latency_hist\"",
            "\"needed\"",
            "\"phase_split\"",
            "\"stream_bytes\"",
            "\"buffer_pool\"",
            "\"hit_rate\"",
            "\"bytes_copied\"",
            "\"bytes_borrowed\"",
            "\"compute\"",
            "\"shard_conflicts_avoided\"",
            "\"atomic_fallback_edges\"",
            "\"groups_scheduled\"",
            "\"llc_resident_bytes\"",
            "\"ingest\"",
            "\"chunks_pass1\"",
            "\"staging_peak_bytes\"",
            "\"pointread\"",
            "\"cache_hit_rate\"",
            "\"p50_latency_ns\"",
            "\"p99_latency_ns\"",
            "\"serve\"",
            "\"queries_queued\"",
            "\"queries_rejected\"",
            "\"read_amortization\"",
            "\"queue_depth_hist\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // 1500 ns lands in the 1024 bucket, 3000 ns in the 2048 bucket.
        assert!(json.contains("\"1024\": 1"));
        assert!(json.contains("\"2048\": 1"));
    }

    #[test]
    fn serve_counters_accumulate_and_reconcile() {
        let r = FlightRecorder::new();
        r.serve_connection_opened();
        r.serve_connection_opened();
        r.serve_point_query(true);
        r.serve_point_query(false);
        // Three accepted (post-enqueue depths 1, 2, 5), one refused.
        r.serve_query_queued(1);
        r.serve_query_queued(2);
        r.serve_query_queued(5);
        r.serve_query_rejected();
        r.serve_batch_admitted(3);
        r.serve_batch_run(4, 1000, 3000);
        r.serve_query_completed(true);
        r.serve_query_completed(true);
        r.serve_query_completed(false);
        r.serve_connection_closed();
        r.serve_connection_closed();

        let m = r.snapshot();
        assert_eq!(m.serve.connections_opened, 2);
        assert_eq!(m.serve.connections_closed, 2);
        assert_eq!(m.serve.point_queries, 2);
        assert_eq!(m.serve.point_errors, 1);
        assert_eq!(m.serve.queries_queued, 3);
        assert_eq!(m.serve.queries_rejected, 1);
        assert_eq!(m.serve.queries_completed, 3);
        assert_eq!(m.serve.query_errors, 1);
        assert_eq!(m.serve.batches, 1);
        assert_eq!(m.serve.batch_queries, 3);
        assert_eq!(m.serve.sweeps, 4);
        // The flow invariant the daemon tests reconcile against.
        assert_eq!(m.serve.queries_submitted(), 4);
        assert_eq!(
            m.serve.queries_submitted(),
            m.serve.queries_completed + m.serve.queries_rejected
        );
        assert!((m.serve.mean_batch_size() - 3.0).abs() < 1e-12);
        assert!((m.serve.read_amortization() - 4.0).abs() < 1e-12);
        // Depths 1, 2, 5 -> buckets 1, 2, 4.
        assert_eq!(m.serve.queue_depth_percentile(0.0), 1);
        assert_eq!(m.serve.queue_depth_percentile(0.5), 2);
        assert_eq!(m.serve.queue_depth_percentile(1.0), 4);
        // Idle degenerate cases.
        let idle = ServeMetrics::default();
        assert_eq!(idle.mean_batch_size(), 0.0);
        assert_eq!(idle.read_amortization(), 1.0);
        assert_eq!(idle.queue_depth_percentile(0.5), 0);

        let json = m.to_json();
        for key in [
            "\"serve\"",
            "\"connections_opened\": 2",
            "\"queries_queued\": 3",
            "\"queries_rejected\": 1",
            "\"mean_batch_size\": 3.000",
            "\"read_amortization\": 4.000000",
            "\"queue_depth_hist\": {\"1\": 1, \"2\": 1, \"4\": 1}",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn query_batch_group_accumulates_and_serializes() {
        let r = FlightRecorder::new();
        r.query_sweep(QueryBatchSweep {
            sweep: 0,
            queries_active: 3,
            tiles_union: 16,
            tiles_shared: 30,
            bytes_read: 4096,
            bytes_amortized: 8192,
            sweep_ns: 1000,
        });
        r.query_sweep(QueryBatchSweep {
            sweep: 1,
            queries_active: 2,
            tiles_union: 16,
            tiles_shared: 14,
            bytes_read: 2048,
            bytes_amortized: 2048,
            sweep_ns: 900,
        });
        r.query_finished(QueryRecord {
            query: 0,
            name: "bfs".to_string(),
            iterations: 1,
            elapsed_ns: 1000,
            converged: true,
            iter_ns: vec![1000],
        });
        r.query_finished(QueryRecord {
            query: 1,
            name: "pagerank".to_string(),
            iterations: 2,
            elapsed_ns: 1900,
            converged: false,
            iter_ns: vec![1000, 900],
        });
        let m = r.snapshot();
        assert_eq!(m.query_batch.sweeps.len(), 2);
        assert_eq!(m.query_batch.queries.len(), 2);
        assert_eq!(m.query_batch.tiles_shared(), 44);
        assert_eq!(m.query_batch.bytes_amortized(), 10_240);
        assert_eq!(m.query_batch.bytes_read(), 6144);
        assert_eq!(m.query_batch.max_queries_active(), 3);
        let json = m.to_json();
        for key in [
            "\"query_batch\"",
            "\"queries_active\": 3",
            "\"tiles_shared\": 44",
            "\"bytes_amortized\": 10240",
            "\"name\": \"pagerank\"",
            "\"converged\": true",
            "\"iter_ns\": [1000, 900]",
            "\"max_queries_active\": 3",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        r.reset();
        assert_eq!(r.snapshot(), EngineMetrics::default());
    }

    #[test]
    fn empty_metrics_serialize() {
        let json = EngineMetrics::default().to_json();
        assert!(json.contains("\"iterations\": []"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        use std::sync::Arc;
        let r = Arc::new(FlightRecorder::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.io_completed(10, 100, false);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let m = r.snapshot();
        assert_eq!(m.io.completions, 4000);
        assert_eq!(m.io.bytes_read, 40_000);
        assert_eq!(m.io.latency_hist.iter().sum::<u64>(), 4000);
    }
}
