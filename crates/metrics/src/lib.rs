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
//! Every scalar is one [`Counter`] variant, declared once with its
//! `group.key` name; one schema table puts the counters, the ratios derived
//! from them and the histograms in JSON order. Adding a counter takes a
//! variant, a schema row and a line in the hook that feeds it.
//!
//! Design constraints (deliberate):
//! * recording sites are per-request / per-tile / per-iteration, never
//!   per-edge — aggregation over edges happens in the engine's
//!   `process_batch` before any recorder call;
//! * every hot-path counter is a relaxed atomic; the only locks guard the
//!   record vectors, touched once per iteration, sweep or query;
//! * when no recorder is installed the layers skip timestamping entirely,
//!   so the default configuration costs one branch per recording site.

use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use Counter::*;

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

/// Recording interface called by the I/O, SCR, and engine layers. Every
/// method has an inline no-op default, so a custom recorder implements
/// only what it cares about.
#[allow(unused_variables)]
pub trait Recorder: Send + Sync {
    /// A batch of reads was submitted. `in_flight` is the queue occupancy
    /// right after the submit.
    fn io_submitted(&self, requests: u64, bytes: u64, in_flight: u64) {}

    /// One read finished (worker-side). `bytes` is 0 on failure.
    fn io_completed(&self, bytes: u64, latency_ns: u64, failed: bool) {}

    /// An I/O engine was selected at engine construction: `uring` is true
    /// for the io_uring engine, false for the pread worker pool.
    fn io_backend_selected(&self, uring: bool) {}

    /// One submission batch reached the io_uring SQ: `sqes` entries were
    /// queued and `enters` `io_uring_enter` syscalls were needed to push
    /// them (1 for any batch that fits the ring).
    fn io_sqe_batch(&self, sqes: u64, enters: u64) {}

    /// One non-empty CQ reap collected `cqes` completions.
    fn io_cqe_reap(&self, cqes: u64) {}

    /// One uring read resolved its buffer: `hit` means the pooled buffer
    /// was part of a registered arena and the read used `READ_FIXED`.
    fn io_reg_buffer(&self, hit: bool) {}

    /// One read finished on a specific engine (`uring` or the worker
    /// pool), for the per-engine latency histograms. Called alongside
    /// [`Recorder::io_completed`].
    fn io_backend_request(&self, uring: bool, latency_ns: u64) {}

    /// A storage fault was injected by the engine's `IoFaultInjector`.
    fn fault_injected(&self) {}

    /// The cache pool accepted a tile whose oracle hint was `hint`.
    fn cache_inserted(&self, hint: HintClass) {}

    /// The cache pool rejected a tile whose oracle hint was `hint`.
    fn cache_rejected(&self, hint: HintClass) {}

    /// The cache pool evicted a resident tile whose hint was `hint`.
    fn cache_evicted(&self, hint: HintClass) {}

    /// A pooled I/O buffer was handed out. `reused` is true when it came
    /// from the pool's free list (hit) rather than a fresh allocation
    /// (miss). `capacity` is the buffer's allocated size.
    fn buffer_acquired(&self, capacity: u64, reused: bool) {}

    /// A pooled I/O buffer was returned to its pool.
    fn buffer_recycled(&self, capacity: u64) {}

    /// Tile bytes memcpy'd on the streaming path (cache-pool inserts are
    /// the only copy the zero-copy slide pipeline performs).
    fn bytes_copied(&self, bytes: u64) {}

    /// Tile bytes processed in place, borrowed from a pooled run buffer.
    fn bytes_borrowed(&self, bytes: u64) {}

    /// A compute batch finished: `edges` decoded tuples, `plain_updates`
    /// endpoint writes done as plain stores instead of atomic RMWs (the
    /// contention the column-sharded schedule avoided), `atomic_edges`
    /// edges that took the atomic fallback executor, `groups` physical
    /// groups visited by the batch's schedule. Called once per batch —
    /// never per edge.
    fn compute_batch(&self, edges: u64, plain_updates: u64, atomic_edges: u64, groups: u64) {}

    /// Static estimate of the metadata working set the group-major
    /// schedule keeps LLC-resident (bytes). Recorded as a high-water mark.
    fn compute_llc_estimate(&self, bytes: u64) {}

    /// A converter chunk finished a streaming pass. `pass` is 1 (counting)
    /// or 2 (scatter); `bytes` is the raw edge-file bytes the chunk read.
    fn ingest_chunk(&self, pass: u8, edges: u64, bytes: u64) {}

    /// `bytes` of tile data left one buffer as `writes` positioned writes:
    /// a pass-2 chunk written out of the converter's pack, or a
    /// `BatchWriter` staging flush.
    fn ingest_flush(&self, bytes: u64, writes: u64) {}

    /// Bytes the buffer held when it was written out (the chunk's pack, a
    /// `BatchWriter`'s staging). Recorded as a high-water mark.
    fn ingest_staging(&self, bytes: u64) {}

    /// A streaming-conversion pass finished (`pass` 1 or 2), `wall_ns`
    /// wall time.
    fn ingest_pass(&self, pass: u8, wall_ns: u64) {}

    /// An engine iteration finished.
    fn iteration_finished(&self, metrics: IterationMetrics) {}

    /// A shared-scan batch sweep finished. Called once per sweep (even
    /// for single-query runs, where the batch degenerates to K=1).
    fn query_sweep(&self, sweep: QueryBatchSweep) {}

    /// One point-read request (neighbors/degree/k-hop/walk) finished.
    /// `tiles_fetched` tiles came from storage, `cache_hits` from the
    /// hot-tile cache, `bytes_read` is storage bytes only. Called once per
    /// request, after the reply is assembled (multi-vertex requests like
    /// k-hop aggregate all their tile accesses into one event).
    fn pointread_lookup(
        &self,
        tiles_fetched: u64,
        cache_hits: u64,
        bytes_read: u64,
        latency_ns: u64,
    ) {
    }

    /// A query detached from its batch (converged, iteration cap, or the
    /// batch ended). Called once per query, off the hot path.
    fn query_finished(&self, record: QueryRecord) {}

    /// A serve-daemon client connection was accepted.
    fn serve_connection_opened(&self) {}

    /// A serve-daemon client connection closed (cleanly or on error).
    fn serve_connection_closed(&self) {}

    /// A point query was answered on a connection thread. `ok` is false
    /// when the reply was a typed ERR frame.
    fn serve_point_query(&self, ok: bool) {}

    /// A sweep query was accepted into the admission queue. `depth` is
    /// the queue occupancy right after the enqueue (the backpressure
    /// signal the queue-depth histogram tracks).
    fn serve_query_queued(&self, depth: u64) {}

    /// A sweep query was refused with a BUSY reply (admission queue full).
    fn serve_query_rejected(&self) {}

    /// The sweep loop drained `queries` queued queries into one
    /// [`QueryBatch`](../gstore_core/struct.QueryBatch.html) run.
    fn serve_batch_admitted(&self, queries: u64) {}

    /// A sweep query finished and its reply was handed back to the
    /// connection. `ok` is false when it ended in an ERR frame.
    fn serve_query_completed(&self, ok: bool) {}

    /// One admitted batch run finished: `sweeps` shared scans, reading
    /// `bytes_read` from storage while amortizing `bytes_amortized` of
    /// per-query re-reads away (the serve-level view of
    /// `BatchRunStats`).
    fn serve_batch_run(&self, sweeps: u64, bytes_read: u64, bytes_amortized: u64) {}

    /// Codec-compressed tiles were handed to compute (sweep run, rewind,
    /// or point read): `tiles` tiles holding `disk_bytes` of coded stream
    /// that decode to `logical_bytes` of raw SNB. Called once per run /
    /// batch — never per tile on the sweep path.
    fn codec_tiles(&self, tiles: u64, disk_bytes: u64, logical_bytes: u64) {}

    /// Wall time spent decoding coded tile streams: a point read's tile
    /// decode, or the waves of a sweep batch's decode stage (one call per
    /// batch).
    fn codec_decode_ns(&self, ns: u64) {}

    /// Keys a sweep batch's decode stage decoded: the stored edges of its
    /// tiles, each once however many queries consumed them. Called once
    /// per batch.
    fn codec_decoded_edges(&self, edges: u64) {}
}

/// The always-silent recorder (useful as an explicit default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Declares [`Counter`] from one `Variant = "group.key"` line per counter.
macro_rules! counters {
    ($($var:ident = $name:literal,)*) => {
        /// Every scalar the [`FlightRecorder`] keeps. Each variant is named
        /// `group.key` after where it appears in the JSON document (the
        /// variant is that name in CamelCase); a counter without a schema
        /// row is a total that only feeds a derived value.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter { $($var,)* }

        impl Counter {
            /// Every counter in declaration order: `ALL[c as usize] == c`.
            pub const ALL: &'static [Counter] = &[$(Counter::$var),*];
            pub const COUNT: usize = Counter::ALL.len();

            /// The counter's `group.key` name.
            pub fn name(self) -> &'static str {
                [$($name),*][self as usize]
            }
        }
    };
}

counters! {
    IoRequests = "io.requests", IoBytesSubmitted = "io.bytes_submitted",
    IoCompletions = "io.completions", IoErrors = "io.errors", IoBytesRead = "io.bytes_read",
    IoMaxInFlight = "io.max_in_flight", IoLatencyNsTotal = "io.latency_ns_total",
    IoFaultsInjected = "io.faults_injected",
    IoBackendWorkersSelected = "io_backend.workers_selected",
    IoBackendUringSelected = "io_backend.uring_selected",
    IoBackendSqeBatches = "io_backend.sqe_batches",
    IoBackendSqesSubmitted = "io_backend.sqes_submitted", IoBackendEnters = "io_backend.enters",
    IoBackendCqeReaps = "io_backend.cqe_reaps", IoBackendCqesReaped = "io_backend.cqes_reaped",
    IoBackendRegBufferHits = "io_backend.reg_buffer_hits",
    IoBackendRegBufferMisses = "io_backend.reg_buffer_misses",
    IoBackendWorkersRequests = "io_backend.workers_requests",
    IoBackendWorkersLatencyNs = "io_backend.workers_latency_ns",
    IoBackendUringRequests = "io_backend.uring_requests",
    IoBackendUringLatencyNs = "io_backend.uring_latency_ns",
    CacheInsertedNotNeeded = "cache.inserted.not_needed",
    CacheInsertedUnknown = "cache.inserted.unknown", CacheInsertedNeeded = "cache.inserted.needed",
    CacheRejectedNotNeeded = "cache.rejected.not_needed",
    CacheRejectedUnknown = "cache.rejected.unknown", CacheRejectedNeeded = "cache.rejected.needed",
    CacheEvictedNotNeeded = "cache.evicted.not_needed",
    CacheEvictedUnknown = "cache.evicted.unknown", CacheEvictedNeeded = "cache.evicted.needed",
    BufferPoolAcquires = "buffer_pool.acquires", BufferPoolHits = "buffer_pool.hits",
    BufferPoolMisses = "buffer_pool.misses", BufferPoolRecycled = "buffer_pool.recycled",
    BufferPoolBytesServed = "buffer_pool.bytes_served",
    CopyBytesCopied = "copy.bytes_copied", CopyBytesBorrowed = "copy.bytes_borrowed",
    ComputeEdgesProcessed = "compute.edges_processed",
    ComputeShardConflictsAvoided = "compute.shard_conflicts_avoided",
    ComputeAtomicFallbackEdges = "compute.atomic_fallback_edges",
    ComputeGroupsScheduled = "compute.groups_scheduled",
    ComputeLlcResidentBytes = "compute.llc_resident_bytes",
    CodecTilesDecoded = "codec.tiles_decoded", CodecDiskBytes = "codec.disk_bytes",
    CodecLogicalBytes = "codec.logical_bytes", CodecDecodeNs = "codec.decode_ns",
    CodecDecodedEdges = "codec.decoded_edges",
    IngestChunksPass1 = "ingest.chunks_pass1", IngestChunksPass2 = "ingest.chunks_pass2",
    IngestEdgesIn = "ingest.edges_in", IngestBytesIn = "ingest.bytes_in",
    IngestBytesOut = "ingest.bytes_out", IngestFlushes = "ingest.flushes",
    IngestPwrites = "ingest.pwrites", IngestPass1Ns = "ingest.pass1_ns",
    IngestPass2Ns = "ingest.pass2_ns", IngestStagingPeakBytes = "ingest.staging_peak_bytes",
    PointreadLookups = "pointread.lookups", PointreadTilesFetched = "pointread.tiles_fetched",
    PointreadCacheHits = "pointread.cache_hits", PointreadBytesRead = "pointread.bytes_read",
    PointreadLatencyNsTotal = "pointread.latency_ns_total",
    ServeConnectionsOpened = "serve.connections_opened",
    ServeConnectionsClosed = "serve.connections_closed", ServePointQueries = "serve.point_queries",
    ServePointErrors = "serve.point_errors", ServeQueriesQueued = "serve.queries_queued",
    ServeQueriesRejected = "serve.queries_rejected",
    ServeQueriesCompleted = "serve.queries_completed", ServeQueryErrors = "serve.query_errors",
    ServeBatches = "serve.batches", ServeBatchQueries = "serve.batch_queries",
    ServeSweeps = "serve.sweeps", ServeBytesRead = "serve.bytes_read",
    ServeBytesAmortized = "serve.bytes_amortized",
}

/// The counter `hint` places after `first`, the group's `not_needed` one:
/// the cache counters come in [`HintClass`] order.
fn hinted(first: Counter, hint: HintClass) -> Counter {
    Counter::ALL[first as usize + hint as usize]
}

/// The log2 histograms: bucket `i` counts events whose value lies in
/// `[2^i, 2^(i+1))`, bucket 0 also catching 0 (see [`LATENCY_BUCKETS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    IoLatency,        // ns, every read
    WorkersLatency,   // ns, reads on the worker pool
    UringLatency,     // ns, reads on io_uring
    PointreadLatency, // ns, point-read requests
    ServeQueueDepth,  // admission-queue depth right after each enqueue
}

/// How many [`Hist`]s there are: one past the last.
const HISTS: usize = Hist::ServeQueueDepth as usize + 1;

/// The default [`Recorder`]: one relaxed atomic per [`Counter`] and per
/// histogram bucket, plus three mutex-guarded record vectors (touched once
/// per iteration, sweep or query).
pub struct FlightRecorder {
    counters: [AtomicU64; Counter::COUNT],
    hists: [[AtomicU64; LATENCY_BUCKETS]; HISTS],
    iterations: Mutex<Vec<IterationMetrics>>,
    sweeps: Mutex<Vec<QueryBatchSweep>>,
    queries: Mutex<Vec<QueryRecord>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self {
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
            hists: [const { [const { AtomicU64::new(0) }; LATENCY_BUCKETS] }; HISTS],
            iterations: Mutex::default(),
            sweeps: Mutex::default(),
            queries: Mutex::default(),
        }
    }
}

impl FlightRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&self, counter: Counter, v: u64) {
        self.counters[counter as usize].fetch_add(v, Ordering::Relaxed);
    }

    fn max(&self, counter: Counter, v: u64) {
        self.counters[counter as usize].fetch_max(v, Ordering::Relaxed);
    }

    fn observe(&self, hist: Hist, v: u64) {
        self.hists[hist as usize][latency_bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> EngineMetrics {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        EngineMetrics {
            iterations: self.iterations.lock().unwrap().clone(),
            sweeps: self.sweeps.lock().unwrap().clone(),
            queries: self.queries.lock().unwrap().clone(),
            counters: self.counters.each_ref().map(load),
            hists: self.hists.each_ref().map(|h| h.each_ref().map(load)),
        }
    }

    /// Clears all counters (e.g. between algorithm runs on one engine).
    pub fn reset(&self) {
        for a in self.counters.iter().chain(self.hists.iter().flatten()) {
            a.store(0, Ordering::Relaxed);
        }
        self.iterations.lock().unwrap().clear();
        self.sweeps.lock().unwrap().clear();
        self.queries.lock().unwrap().clear();
    }
}

fn latency_bucket(ns: u64) -> usize {
    (64 - ns.max(1).leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1)
}

impl Recorder for FlightRecorder {
    fn io_submitted(&self, requests: u64, bytes: u64, in_flight: u64) {
        self.add(IoRequests, requests);
        self.add(IoBytesSubmitted, bytes);
        self.max(IoMaxInFlight, in_flight);
    }
    fn io_completed(&self, bytes: u64, latency_ns: u64, failed: bool) {
        self.add(IoCompletions, 1);
        self.add(IoLatencyNsTotal, latency_ns);
        self.observe(Hist::IoLatency, latency_ns);
        self.add(IoBytesRead, bytes);
        self.add(IoErrors, u64::from(failed));
    }
    fn fault_injected(&self) {
        self.add(IoFaultsInjected, 1);
    }

    fn io_backend_selected(&self, uring: bool) {
        self.add(IoBackendUringSelected, u64::from(uring));
        self.add(IoBackendWorkersSelected, u64::from(!uring));
    }
    fn io_sqe_batch(&self, sqes: u64, enters: u64) {
        self.add(IoBackendSqeBatches, 1);
        self.add(IoBackendSqesSubmitted, sqes);
        self.add(IoBackendEnters, enters);
    }
    fn io_cqe_reap(&self, cqes: u64) {
        self.add(IoBackendCqeReaps, 1);
        self.add(IoBackendCqesReaped, cqes);
    }
    fn io_reg_buffer(&self, hit: bool) {
        self.add(IoBackendRegBufferHits, u64::from(hit));
        self.add(IoBackendRegBufferMisses, u64::from(!hit));
    }
    fn io_backend_request(&self, uring: bool, latency_ns: u64) {
        if uring {
            self.add(IoBackendUringRequests, 1);
            self.add(IoBackendUringLatencyNs, latency_ns);
            self.observe(Hist::UringLatency, latency_ns);
        } else {
            self.add(IoBackendWorkersRequests, 1);
            self.add(IoBackendWorkersLatencyNs, latency_ns);
            self.observe(Hist::WorkersLatency, latency_ns);
        }
    }

    fn cache_inserted(&self, hint: HintClass) {
        self.add(hinted(CacheInsertedNotNeeded, hint), 1);
    }
    fn cache_rejected(&self, hint: HintClass) {
        self.add(hinted(CacheRejectedNotNeeded, hint), 1);
    }
    fn cache_evicted(&self, hint: HintClass) {
        self.add(hinted(CacheEvictedNotNeeded, hint), 1);
    }

    fn buffer_acquired(&self, capacity: u64, reused: bool) {
        self.add(BufferPoolAcquires, 1);
        self.add(BufferPoolBytesServed, capacity);
        self.add(BufferPoolHits, u64::from(reused));
        self.add(BufferPoolMisses, u64::from(!reused));
    }
    fn buffer_recycled(&self, _capacity: u64) {
        self.add(BufferPoolRecycled, 1);
    }
    fn bytes_copied(&self, bytes: u64) {
        self.add(CopyBytesCopied, bytes);
    }
    fn bytes_borrowed(&self, bytes: u64) {
        self.add(CopyBytesBorrowed, bytes);
    }

    fn compute_batch(&self, edges: u64, plain_updates: u64, atomic_edges: u64, groups: u64) {
        self.add(ComputeEdgesProcessed, edges);
        self.add(ComputeShardConflictsAvoided, plain_updates);
        self.add(ComputeAtomicFallbackEdges, atomic_edges);
        self.add(ComputeGroupsScheduled, groups);
    }
    fn compute_llc_estimate(&self, bytes: u64) {
        self.max(ComputeLlcResidentBytes, bytes);
    }

    fn codec_tiles(&self, tiles: u64, disk_bytes: u64, logical_bytes: u64) {
        self.add(CodecTilesDecoded, tiles);
        self.add(CodecDiskBytes, disk_bytes);
        self.add(CodecLogicalBytes, logical_bytes);
    }
    fn codec_decode_ns(&self, ns: u64) {
        self.add(CodecDecodeNs, ns);
    }
    fn codec_decoded_edges(&self, edges: u64) {
        self.add(CodecDecodedEdges, edges);
    }

    fn ingest_chunk(&self, pass: u8, edges: u64, bytes: u64) {
        // Edges and raw bytes stream by once per pass; count them on pass 1
        // only so `edges_in` is the file's edge total, not a multiple.
        if pass <= 1 {
            self.add(IngestChunksPass1, 1);
            self.add(IngestEdgesIn, edges);
            self.add(IngestBytesIn, bytes);
        } else {
            self.add(IngestChunksPass2, 1);
        }
    }
    fn ingest_flush(&self, bytes: u64, writes: u64) {
        self.add(IngestFlushes, 1);
        self.add(IngestPwrites, writes);
        self.add(IngestBytesOut, bytes);
    }
    fn ingest_staging(&self, bytes: u64) {
        self.max(IngestStagingPeakBytes, bytes);
    }
    fn ingest_pass(&self, pass: u8, wall_ns: u64) {
        match pass {
            0 | 1 => self.add(IngestPass1Ns, wall_ns),
            _ => self.add(IngestPass2Ns, wall_ns),
        }
    }

    fn pointread_lookup(
        &self,
        tiles_fetched: u64,
        cache_hits: u64,
        bytes_read: u64,
        latency_ns: u64,
    ) {
        self.add(PointreadLookups, 1);
        self.add(PointreadLatencyNsTotal, latency_ns);
        self.observe(Hist::PointreadLatency, latency_ns);
        self.add(PointreadTilesFetched, tiles_fetched);
        self.add(PointreadCacheHits, cache_hits);
        self.add(PointreadBytesRead, bytes_read);
    }

    fn serve_connection_opened(&self) {
        self.add(ServeConnectionsOpened, 1);
    }
    fn serve_connection_closed(&self) {
        self.add(ServeConnectionsClosed, 1);
    }
    fn serve_point_query(&self, ok: bool) {
        self.add(ServePointQueries, 1);
        self.add(ServePointErrors, u64::from(!ok));
    }
    fn serve_query_queued(&self, depth: u64) {
        self.add(ServeQueriesQueued, 1);
        self.observe(Hist::ServeQueueDepth, depth);
    }
    fn serve_query_rejected(&self) {
        self.add(ServeQueriesRejected, 1);
    }
    fn serve_batch_admitted(&self, queries: u64) {
        self.add(ServeBatches, 1);
        self.add(ServeBatchQueries, queries);
    }
    fn serve_query_completed(&self, ok: bool) {
        self.add(ServeQueriesCompleted, 1);
        self.add(ServeQueryErrors, u64::from(!ok));
    }
    fn serve_batch_run(&self, sweeps: u64, bytes_read: u64, bytes_amortized: u64) {
        self.add(ServeSweeps, sweeps);
        self.add(ServeBytesRead, bytes_read);
        self.add(ServeBytesAmortized, bytes_amortized);
    }

    fn iteration_finished(&self, metrics: IterationMetrics) {
        self.iterations.lock().unwrap().push(metrics);
    }
    fn query_sweep(&self, sweep: QueryBatchSweep) {
        self.sweeps.lock().unwrap().push(sweep);
    }
    fn query_finished(&self, record: QueryRecord) {
        self.queries.lock().unwrap().push(record);
    }
}

/// One field of a counter group in the JSON document.
enum Field {
    /// A counter, under the key after its group in [`Counter::name`].
    Count(Counter),
    /// A value derived from the counters, printed with this many decimals.
    Ratio(&'static str, fn(&EngineMetrics) -> f64, usize),
    /// A sparse histogram: the non-empty buckets, keyed by lower bound.
    Buckets(&'static str, Hist),
    /// The lower bound of the histogram bucket holding this quantile.
    Quantile(&'static str, Hist, f64),
    /// One counter per [`HintClass`], from the `not_needed` one on, as an
    /// object keyed by class name.
    Hints(&'static str, Counter),
}

/// `num / den`, or `idle` when nothing was counted.
fn ratio(num: u64, den: u64, idle: f64) -> f64 {
    match den {
        0 => idle,
        den => num as f64 / den as f64,
    }
}

/// The share of `part` in `part + rest`; 0.0 when both are 0.
fn share(part: u64, rest: u64) -> f64 {
    ratio(part, part + rest, 0.0)
}

/// The counter groups of the JSON document, each with its fields, both in
/// output order (schema: docs/METRICS.md). One row per field.
#[rustfmt::skip]
const SCHEMA: &[(&str, &[Field])] = {
    use Field::*;
    &[
        ("io", &[
            Count(IoRequests), Count(IoBytesSubmitted), Count(IoCompletions), Count(IoErrors),
            Count(IoBytesRead), Count(IoMaxInFlight),
            Ratio("mean_latency_ns", |m| ratio(m[IoLatencyNsTotal], m[IoCompletions], 0.0), 1),
            Count(IoFaultsInjected),
            Buckets("latency_hist", Hist::IoLatency),
        ]),
        ("io_backend", &[
            Count(IoBackendWorkersSelected), Count(IoBackendUringSelected),
            Count(IoBackendSqeBatches), Count(IoBackendSqesSubmitted), Count(IoBackendEnters),
            Ratio("sqes_per_enter", |m| ratio(m[IoBackendSqesSubmitted], m[IoBackendEnters], 0.0), 3),
            Count(IoBackendCqeReaps), Count(IoBackendCqesReaped),
            Ratio("mean_reap_size", |m| ratio(m[IoBackendCqesReaped], m[IoBackendCqeReaps], 0.0), 3),
            Count(IoBackendRegBufferHits), Count(IoBackendRegBufferMisses),
            Ratio("reg_buffer_hit_rate", |m| share(m[IoBackendRegBufferHits], m[IoBackendRegBufferMisses]), 6),
            Count(IoBackendWorkersRequests),
            Ratio("workers_mean_latency_ns", |m| ratio(m[IoBackendWorkersLatencyNs], m[IoBackendWorkersRequests], 0.0), 1),
            Count(IoBackendUringRequests),
            Ratio("uring_mean_latency_ns", |m| ratio(m[IoBackendUringLatencyNs], m[IoBackendUringRequests], 0.0), 1),
            Buckets("workers_latency_hist", Hist::WorkersLatency),
            Buckets("uring_latency_hist", Hist::UringLatency),
        ]),
        ("cache", &[
            Hints("inserted", CacheInsertedNotNeeded),
            Hints("rejected", CacheRejectedNotNeeded),
            Hints("evicted", CacheEvictedNotNeeded),
        ]),
        ("buffer_pool", &[
            Count(BufferPoolAcquires), Count(BufferPoolHits), Count(BufferPoolMisses),
            Count(BufferPoolRecycled), Count(BufferPoolBytesServed),
            Ratio("hit_rate", |m| ratio(m[BufferPoolHits], m[BufferPoolAcquires], 1.0), 6),
        ]),
        ("copy", &[
            Count(CopyBytesCopied), Count(CopyBytesBorrowed),
            Ratio("copy_fraction", |m| share(m[CopyBytesCopied], m[CopyBytesBorrowed]), 6),
        ]),
        ("compute", &[
            Count(ComputeEdgesProcessed), Count(ComputeShardConflictsAvoided),
            Count(ComputeAtomicFallbackEdges), Count(ComputeGroupsScheduled),
            Count(ComputeLlcResidentBytes),
            Ratio("sharded_fraction", |m| 1.0 - ratio(m[ComputeAtomicFallbackEdges], m[ComputeEdgesProcessed], 0.0), 6),
        ]),
        ("codec", &[
            Count(CodecTilesDecoded), Count(CodecDiskBytes), Count(CodecLogicalBytes),
            Count(CodecDecodeNs), Count(CodecDecodedEdges),
            Ratio("compression_ratio", |m| ratio(m[CodecLogicalBytes], m[CodecDiskBytes], 1.0), 6),
        ]),
        ("ingest", &[
            Count(IngestChunksPass1), Count(IngestChunksPass2), Count(IngestEdgesIn),
            Count(IngestBytesIn), Count(IngestBytesOut), Count(IngestFlushes), Count(IngestPwrites),
            Ratio("writes_per_flush", |m| ratio(m[IngestPwrites], m[IngestFlushes], 0.0), 3),
            Count(IngestPass1Ns), Count(IngestPass2Ns), Count(IngestStagingPeakBytes),
        ]),
        ("pointread", &[
            Count(PointreadLookups), Count(PointreadTilesFetched), Count(PointreadCacheHits),
            Count(PointreadBytesRead),
            Ratio("cache_hit_rate", |m| share(m[PointreadCacheHits], m[PointreadTilesFetched]), 6),
            Ratio("mean_latency_ns", |m| ratio(m[PointreadLatencyNsTotal], m[PointreadLookups], 0.0), 1),
            Quantile("p50_latency_ns", Hist::PointreadLatency, 0.50),
            Quantile("p99_latency_ns", Hist::PointreadLatency, 0.99),
            Buckets("latency_hist", Hist::PointreadLatency),
        ]),
        ("serve", &[
            Count(ServeConnectionsOpened), Count(ServeConnectionsClosed), Count(ServePointQueries),
            Count(ServePointErrors), Count(ServeQueriesQueued), Count(ServeQueriesRejected),
            Count(ServeQueriesCompleted), Count(ServeQueryErrors), Count(ServeBatches),
            Count(ServeBatchQueries),
            Ratio("mean_batch_size", |m| ratio(m[ServeBatchQueries], m[ServeBatches], 0.0), 3),
            Count(ServeSweeps), Count(ServeBytesRead), Count(ServeBytesAmortized),
            Ratio("read_amortization", |m| ratio(m[ServeBytesRead] + m[ServeBytesAmortized], m[ServeBytesRead], 1.0), 6),
            Quantile("p50_queue_depth", Hist::ServeQueueDepth, 0.50),
            Quantile("p99_queue_depth", Hist::ServeQueueDepth, 0.99),
            Buckets("queue_depth_hist", Hist::ServeQueueDepth),
        ]),
    ]
};

impl Field {
    fn key(&self) -> &'static str {
        match *self {
            Field::Count(c) => c.name().split_once('.').unwrap().1,
            Field::Ratio(key, ..) | Field::Quantile(key, ..) => key,
            Field::Buckets(key, _) | Field::Hints(key, _) => key,
        }
    }

    /// `"key": value` as it appears in the JSON document.
    fn json(&self, m: &EngineMetrics) -> String {
        let value = match *self {
            Field::Count(c) => m[c].to_string(),
            Field::Ratio(_, f, places) => format!("{:.*}", places, f(m)),
            Field::Quantile(_, hist, q) => m.percentile(hist, q).to_string(),
            Field::Buckets(_, hist) => {
                let buckets = m.hist(hist).iter().enumerate().filter(|(_, &n)| n > 0);
                object(buckets.map(|(i, n)| format!("\"{}\": {n}", 1u64 << i)))
            }
            Field::Hints(_, first) => {
                let hint = |h: HintClass| format!("\"{}\": {}", h.name(), m[hinted(first, h)]);
                object(HintClass::ALL.map(hint))
            }
        };
        format!("\"{}\": {value}", self.key())
    }
}

/// Everything the flight recorder saw, exposed by the engine and
/// serializable to JSON (schema: docs/METRICS.md). Counters are read by
/// index (`m[Counter::IoRequests]`), derived values by their JSON path
/// ([`EngineMetrics::value`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMetrics {
    pub iterations: Vec<IterationMetrics>,
    /// Shared-scan sweeps of multi-query batches, in order.
    pub sweeps: Vec<QueryBatchSweep>,
    /// One record per query that left a batch, in detach order.
    pub queries: Vec<QueryRecord>,
    counters: [u64; Counter::COUNT],
    hists: [[u64; LATENCY_BUCKETS]; HISTS],
}

/// What a recorder that saw nothing reports.
impl Default for EngineMetrics {
    fn default() -> Self {
        FlightRecorder::new().snapshot()
    }
}

impl Index<Counter> for EngineMetrics {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.counters[counter as usize]
    }
}

impl EngineMetrics {
    /// `hist(h)[i]` = events with a value in `[2^i, 2^(i+1))`.
    pub fn hist(&self, hist: Hist) -> &[u64; LATENCY_BUCKETS] {
        &self.hists[hist as usize]
    }

    /// Percentile estimated from a log2 histogram: the lower bound of the
    /// bucket containing the `q`-quantile event (`q in [0, 1]`). 0 when
    /// nothing was recorded.
    pub fn percentile(&self, hist: Hist, q: f64) -> u64 {
        let hist = self.hist(hist);
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        let bucket = hist.iter().position(|&n| {
            seen += n;
            seen >= rank
        });
        1 << bucket.unwrap_or(LATENCY_BUCKETS - 1)
    }

    /// A counter, derived ratio or percentile by its JSON path, e.g.
    /// `"copy.copy_fraction"`; `None` for a histogram or an unknown path.
    pub fn value(&self, path: &str) -> Option<f64> {
        let (group, key) = path.split_once('.')?;
        let (_, fields) = SCHEMA.iter().find(|(g, _)| *g == group)?;
        match *fields.iter().find(|f| f.key() == key)? {
            Field::Count(c) => Some(self[c] as f64),
            Field::Ratio(_, f, _) => Some(f(self)),
            Field::Quantile(_, hist, q) => Some(self.percentile(hist, q) as f64),
            Field::Buckets(..) | Field::Hints(..) => None,
        }
    }

    /// Tiles served from cache across all iterations.
    pub fn tiles_rewind(&self) -> u64 {
        self.iterations.iter().map(|i| i.tiles_rewind).sum()
    }

    /// Tiles fetched from storage across all iterations.
    pub fn tiles_streamed(&self) -> u64 {
        self.iterations.iter().map(|i| i.tiles_streamed).sum()
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
        let phases =
            |i: &IterationMetrics| i.select_ns + i.rewind_ns + i.slide_ns + i.cache_insert_ns;
        self.iterations.iter().map(phases).sum()
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
    /// schema documented in docs/METRICS.md): the three record groups and
    /// the summary by hand, every counter group by walking the schema table.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(8192 + self.iterations.len() * 256);
        s += "{\n  \"iterations\": ";
        s += &json_rows(&self.iterations, |it| {
            format!(
                "{{\"iteration\": {}, \"select_ns\": {}, \"rewind_ns\": {}, \"slide_ns\": {}, \
                 \"cache_insert_ns\": {}, \"io_wait_ns\": {}, \"slide_compute_ns\": {}, \
                 \"runs_streamed\": {}, \"overlap_ratio\": {:.6}, \"tiles_rewind\": {}, \
                 \"tiles_streamed\": {}, \"rewind_bytes\": {}, \"stream_bytes\": {}}}",
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
            )
        });
        s += ",\n  \"query_batch\": {\"sweeps\": ";
        s += &json_rows(&self.sweeps, |sw| {
            format!(
                "{{\"sweep\": {}, \"queries_active\": {}, \"tiles_union\": {}, \
                 \"tiles_shared\": {}, \"bytes_read\": {}, \"bytes_amortized\": {}, \
                 \"sweep_ns\": {}}}",
                sw.sweep,
                sw.queries_active,
                sw.tiles_union,
                sw.tiles_shared,
                sw.bytes_read,
                sw.bytes_amortized,
                sw.sweep_ns,
            )
        });
        s += ", \"queries\": ";
        s += &json_rows(&self.queries, |q| {
            format!(
                "{{\"query\": {}, \"name\": \"{}\", \"iterations\": {}, \"elapsed_ns\": {}, \
                 \"converged\": {}, \"iter_ns\": {:?}}}",
                q.query,
                q.name.replace('"', "'"),
                q.iterations,
                q.elapsed_ns,
                q.converged,
                q.iter_ns,
            )
        });
        let sum = |f: fn(&QueryBatchSweep) -> u64| self.sweeps.iter().map(f).sum::<u64>();
        let (shared, amortized) = (sum(|sw| sw.tiles_shared), sum(|sw| sw.bytes_amortized));
        let peak = self.sweeps.iter().map(|sw| sw.queries_active).max();
        s += &format!(
            ", \"tiles_shared\": {shared}, \"bytes_amortized\": {amortized}, \
             \"max_queries_active\": {}}},\n",
            peak.unwrap_or(0)
        );
        for (group, fields) in SCHEMA {
            s += &format!(
                "  \"{group}\": {},\n",
                object(fields.iter().map(|f| f.json(self)))
            );
        }
        let (select, rewind, slide, insert) = self.phase_split();
        let (total_ns, overlap) = (self.total_ns(), self.overlap_ratio());
        let (tiles_rewind, tiles_streamed) = (self.tiles_rewind(), self.tiles_streamed());
        s += &format!(
            "  \"summary\": {{\"total_ns\": {total_ns}, \"overlap_ratio\": {overlap:.6}, \
             \"phase_split\": {{\"select\": {select:.6}, \"rewind\": {rewind:.6}, \
             \"slide\": {slide:.6}, \"cache_insert\": {insert:.6}}}, \
             \"tiles_rewind\": {tiles_rewind}, \"tiles_streamed\": {tiles_streamed}}}\n}}\n"
        );
        s
    }
}

/// `{"key": value, ...}` from `"key": value` fields.
fn object(fields: impl IntoIterator<Item = String>) -> String {
    format!("{{{}}}", fields.into_iter().collect::<Vec<_>>().join(", "))
}

/// A JSON array of one object per line, `[]` when empty.
fn json_rows<T>(items: &[T], row: impl Fn(&T) -> String) -> String {
    let rows: Vec<String> = items.iter().map(|t| format!("\n    {}", row(t))).collect();
    let close = if items.is_empty() { "" } else { "\n  " };
    format!("[{}{close}]", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(m: &EngineMetrics, path: &str) -> f64 {
        m.value(path)
            .unwrap_or_else(|| panic!("no scalar at {path}"))
    }

    fn total(m: &EngineMetrics, first: Counter) -> u64 {
        HintClass::ALL.iter().map(|&h| m[hinted(first, h)]).sum()
    }

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
    fn counter_names_match_variants_and_schema_groups() {
        for (k, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, k);
            let camel: String = c
                .name()
                .split(['.', '_'])
                .map(|w| w[..1].to_uppercase() + &w[1..])
                .collect();
            assert_eq!(camel, format!("{c:?}"));
        }
        for (group, fields) in SCHEMA {
            for f in *fields {
                if let Field::Count(c) = f {
                    assert_eq!(c.name().split_once('.').unwrap().0, *group, "{c:?}");
                }
            }
        }
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
        assert_eq!(m[IoRequests], 4);
        assert_eq!(m[IoBytesSubmitted], 3500);
        assert_eq!(m[IoCompletions], 2);
        assert_eq!(m[IoErrors], 1);
        assert_eq!(m[IoBytesRead], 1000);
        assert_eq!(m[IoMaxInFlight], 4);
        assert_eq!(m[IoFaultsInjected], 1);
        assert_eq!(m.hist(Hist::IoLatency)[11], 1); // 2048 ns
        assert_eq!(m[CacheInsertedNeeded], 1);
        assert_eq!(total(&m, CacheRejectedNotNeeded), 1);
        assert_eq!(total(&m, CacheEvictedNotNeeded), 1);
        assert_eq!(m.iterations.len(), 1);
        assert!((m.iterations[0].overlap_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(m.tiles_streamed(), 4);
        assert_eq!(m.iterations[0].stream_bytes, 1000);
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
        assert_eq!(m[IoBackendUringSelected], 1);
        assert_eq!(m[IoBackendWorkersSelected], 0);
        assert_eq!(m[IoBackendSqeBatches], 2);
        assert_eq!(m[IoBackendSqesSubmitted], 20);
        assert_eq!(m[IoBackendEnters], 2);
        assert!((value(&m, "io_backend.sqes_per_enter") - 10.0).abs() < 1e-12);
        assert_eq!(m[IoBackendCqeReaps], 2);
        assert_eq!(m[IoBackendCqesReaped], 20);
        assert!((value(&m, "io_backend.mean_reap_size") - 10.0).abs() < 1e-12);
        assert_eq!(m[IoBackendRegBufferHits], 2);
        assert_eq!(m[IoBackendRegBufferMisses], 1);
        assert!((value(&m, "io_backend.reg_buffer_hit_rate") - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m[IoBackendUringRequests], 2);
        assert_eq!(m.hist(Hist::UringLatency)[11], 1); // 2048 ns
        assert_eq!(m.hist(Hist::UringLatency)[12], 1); // 4096 ns
        assert!((value(&m, "io_backend.uring_mean_latency_ns") - 3072.0).abs() < 1e-9);
        assert_eq!(m[IoBackendWorkersRequests], 1);
        assert_eq!(m.hist(Hist::WorkersLatency)[10], 1); // 1024 ns
        assert!((value(&m, "io_backend.workers_mean_latency_ns") - 1024.0).abs() < 1e-9);
        // Idle degenerate cases.
        let idle = EngineMetrics::default();
        for key in [
            "sqes_per_enter",
            "mean_reap_size",
            "reg_buffer_hit_rate",
            "workers_mean_latency_ns",
            "uring_mean_latency_ns",
        ] {
            assert_eq!(value(&idle, &format!("io_backend.{key}")), 0.0, "{key}");
        }
    }

    #[test]
    fn pointread_counters_accumulate() {
        let r = FlightRecorder::new();
        r.pointread_lookup(2, 0, 800, 1500);
        r.pointread_lookup(0, 2, 0, 700);
        r.pointread_lookup(1, 1, 400, 3000);
        let m = r.snapshot();
        assert_eq!(m[PointreadLookups], 3);
        assert_eq!(m[PointreadTilesFetched], 3);
        assert_eq!(m[PointreadCacheHits], 3);
        assert_eq!(m[PointreadBytesRead], 1200);
        assert_eq!(m[PointreadLatencyNsTotal], 5200);
        assert!((value(&m, "pointread.cache_hit_rate") - 0.5).abs() < 1e-12);
        assert!((ratio(m[PointreadBytesRead], m[PointreadLookups], 0.0) - 400.0).abs() < 1e-12);
        assert!((value(&m, "pointread.mean_latency_ns") - 5200.0 / 3.0).abs() < 1e-9);
        // 700 -> bucket 512, 1500 -> 1024, 3000 -> 2048.
        assert_eq!(m.percentile(Hist::PointreadLatency, 0.0), 512);
        assert_eq!(m.percentile(Hist::PointreadLatency, 0.5), 1024);
        assert_eq!(m.percentile(Hist::PointreadLatency, 0.99), 2048);
        assert_eq!(value(&m, "pointread.p99_latency_ns"), 2048.0);
        // Idle degenerate cases.
        let idle = EngineMetrics::default();
        assert_eq!(value(&idle, "pointread.cache_hit_rate"), 0.0);
        assert_eq!(value(&idle, "pointread.mean_latency_ns"), 0.0);
        assert_eq!(
            ratio(idle[PointreadBytesRead], idle[PointreadLookups], 0.0),
            0.0
        );
        assert_eq!(idle.percentile(Hist::PointreadLatency, 0.5), 0);
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
        assert_eq!(m[IngestChunksPass1], 2);
        assert_eq!(m[IngestChunksPass2], 1);
        assert_eq!(m[IngestEdgesIn], 1500);
        assert_eq!(m[IngestBytesIn], 36_000);
        assert_eq!(m[IngestBytesOut], 6144);
        assert_eq!(m[IngestFlushes], 2);
        assert_eq!(m[IngestPwrites], 9);
        assert_eq!(m[IngestPass1Ns], 100);
        assert_eq!(m[IngestPass2Ns], 300);
        assert_eq!(m[IngestStagingPeakBytes], 4096);
        assert!((value(&m, "ingest.writes_per_flush") - 4.5).abs() < 1e-12);
        assert_eq!(
            value(&EngineMetrics::default(), "ingest.writes_per_flush"),
            0.0
        );
    }

    #[test]
    fn compute_counters_accumulate() {
        let r = FlightRecorder::new();
        r.compute_batch(100, 150, 0, 4);
        r.compute_batch(40, 0, 40, 2);
        r.compute_llc_estimate(1 << 16);
        r.compute_llc_estimate(1 << 14); // high-water mark keeps the max
        let m = r.snapshot();
        assert_eq!(m[ComputeEdgesProcessed], 140);
        assert_eq!(m[ComputeShardConflictsAvoided], 150);
        assert_eq!(m[ComputeAtomicFallbackEdges], 40);
        assert_eq!(m[ComputeGroupsScheduled], 6);
        assert_eq!(m[ComputeLlcResidentBytes], 1 << 16);
        assert!((value(&m, "compute.sharded_fraction") - 100.0 / 140.0).abs() < 1e-12);
        assert_eq!(
            value(&EngineMetrics::default(), "compute.sharded_fraction"),
            1.0
        );
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
        assert_eq!(m[CodecTilesDecoded], 4);
        assert_eq!(m[CodecDiskBytes], 400);
        assert_eq!(m[CodecLogicalBytes], 1600);
        assert_eq!(m[CodecDecodeNs], 1200);
        assert_eq!(m[CodecDecodedEdges], 400);
        assert!((value(&m, "codec.compression_ratio") - 4.0).abs() < 1e-12);
        // Raw stores record nothing: the ratio degenerates to 1.
        assert_eq!(
            value(&EngineMetrics::default(), "codec.compression_ratio"),
            1.0
        );
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
        assert_eq!(m[BufferPoolAcquires], 3);
        assert_eq!(m[BufferPoolHits], 2);
        assert_eq!(m[BufferPoolMisses], 1);
        assert_eq!(m[BufferPoolRecycled], 1);
        assert_eq!(m[BufferPoolBytesServed], 16384);
        assert!((value(&m, "buffer_pool.hit_rate") - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m[CopyBytesCopied], 100);
        assert_eq!(m[CopyBytesBorrowed], 300);
        assert!((value(&m, "copy.copy_fraction") - 0.25).abs() < 1e-12);
        // Degenerate cases.
        let idle = EngineMetrics::default();
        assert_eq!(value(&idle, "buffer_pool.hit_rate"), 1.0);
        assert_eq!(value(&idle, "copy.copy_fraction"), 0.0);
        // Histograms and unknown paths are not scalars.
        assert_eq!(idle.value("io.latency_hist"), None);
        assert_eq!(idle.value("copy.nope"), None);
        assert_eq!(idle.value("copy"), None);
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
        assert_eq!(m[ServeConnectionsOpened], 2);
        assert_eq!(m[ServeConnectionsClosed], 2);
        assert_eq!(m[ServePointQueries], 2);
        assert_eq!(m[ServePointErrors], 1);
        assert_eq!(m[ServeQueriesQueued], 3);
        assert_eq!(m[ServeQueriesRejected], 1);
        assert_eq!(m[ServeQueriesCompleted], 3);
        assert_eq!(m[ServeQueryErrors], 1);
        assert_eq!(m[ServeBatches], 1);
        assert_eq!(m[ServeBatchQueries], 3);
        assert_eq!(m[ServeSweeps], 4);
        // The flow invariant the daemon tests reconcile against.
        let submitted = m[ServeQueriesQueued] + m[ServeQueriesRejected];
        assert_eq!(submitted, 4);
        assert_eq!(
            submitted,
            m[ServeQueriesCompleted] + m[ServeQueriesRejected]
        );
        assert!((value(&m, "serve.mean_batch_size") - 3.0).abs() < 1e-12);
        assert!((value(&m, "serve.read_amortization") - 4.0).abs() < 1e-12);
        // Depths 1, 2, 5 -> buckets 1, 2, 4.
        assert_eq!(m.percentile(Hist::ServeQueueDepth, 0.0), 1);
        assert_eq!(m.percentile(Hist::ServeQueueDepth, 0.5), 2);
        assert_eq!(m.percentile(Hist::ServeQueueDepth, 1.0), 4);
        // Idle degenerate cases.
        let idle = EngineMetrics::default();
        assert_eq!(value(&idle, "serve.mean_batch_size"), 0.0);
        assert_eq!(value(&idle, "serve.read_amortization"), 1.0);
        assert_eq!(idle.percentile(Hist::ServeQueueDepth, 0.5), 0);

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
        assert_eq!(m.sweeps.len(), 2);
        assert_eq!(m.queries.len(), 2);
        let sum = |f: fn(&QueryBatchSweep) -> u64| m.sweeps.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.tiles_shared), 44);
        assert_eq!(sum(|s| s.bytes_amortized), 10_240);
        assert_eq!(sum(|s| s.bytes_read), 6144);
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
        assert_eq!(m[IoCompletions], 4000);
        assert_eq!(m[IoBytesRead], 40_000);
        assert_eq!(m.hist(Hist::IoLatency).iter().sum::<u64>(), 4000);
    }
}
