//! The ingest benchmark behind `repro --bench-ingest-json`
//! (`BENCH_ingest.json`): two claims about conversion measured on the same
//! workload.
//!
//! - **Scatter arm** — pass 2 of the in-memory converter run both ways
//!   (sequential sweep vs chunk-prefix-sum parallel scatter) over one
//!   shared [`gstore_tile::ConversionPlan`], best-of-3 each, with byte-identical output
//!   asserted. The parallel scatter is the default; this arm is its
//!   receipt.
//! - **Streaming arm** — the out-of-core converter at a fixed memory
//!   budget, on the base workload and on one with ~4x the edges (same
//!   vertex count, larger edge factor). Allocator traffic is read from the
//!   crate's counting global allocator, through its per-thread gauge so
//!   tests running beside this one do not land in the numbers: the
//!   in-memory converter's allocation grows with the edge count, the
//!   streaming converter's must not (sub-linear growth, bounded by the
//!   budget), while both emit byte-identical `.tiles`/`.start` pairs. On
//!   the large run the gauge's live-byte peak is read across pass 2: it
//!   must stay inside the budget plus the arrays the budget is documented
//!   not to cover ([`pass2_unbudgeted_bytes`]).
//!
//! An instrumented streaming run also dumps the flight recorder's `ingest`
//! counter group so the JSON ties wall time to chunk/flush/pwrite counts.
//!
//! The scatter arm's speed-up is reported, not asserted: on two cores it
//! reads 0.5–0.8x as often as above 1 (the parallel scatter's cursor
//! prefix and cache misses against one tight sequential loop).

use crate::slide::CountingAlloc;
use crate::workloads::Scale;
use gstore_graph::{EdgeList, Result, TupleWidth};
use gstore_metrics::{FlightRecorder, IngestMetrics, Recorder};
use gstore_tile::{
    convert_streaming, plan_conversion, scatter_with, write_store, ScatterMode, StreamingOptions,
    TileStore,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Streaming-arm memory budget: deliberately far below the in-memory
/// converter's footprint at default scale so the bound means something.
pub const STREAM_BUDGET_BYTES: usize = 8 << 20;

/// One in-memory-scatter observation.
#[derive(Debug, Clone, Copy)]
pub struct ScatterArm {
    pub edges: u64,
    pub sequential_s: f64,
    pub parallel_s: f64,
    pub byte_identical: bool,
}

impl ScatterArm {
    pub fn speedup(&self) -> f64 {
        self.sequential_s / self.parallel_s.max(1e-12)
    }
}

/// One streaming-vs-in-memory conversion observation.
#[derive(Debug, Clone, Copy)]
pub struct StreamRun {
    /// Input edge count (file tuples, before mirroring).
    pub edges: u64,
    pub wall_s: f64,
    pub in_memory_wall_s: f64,
    /// Allocator bytes the streaming conversion cost its calling thread
    /// (which allocates every buffer that scales with chunk or graph).
    pub allocated_bytes: u64,
    /// Allocator bytes the in-memory conversion (convert + write) cost its
    /// calling thread.
    pub in_memory_allocated_bytes: u64,
    pub byte_identical: bool,
    /// Peak live heap bytes of the converting thread during pass 2, and
    /// the bound they are held to; zero when the run carried no gauge.
    pub pass2_peak_live_bytes: u64,
    pub pass2_bound_bytes: u64,
}

/// What pass 2 may hold beside its budget (see the module docs of
/// `gstore_tile::stream`): per tile the start-edge index and the rolling
/// cursor (8 B each), every worker's counts and pack slots (16 B), the
/// chunk's touched list (8 B) and run list (24 B); the compact degree
/// array pass 1 leaves behind; and 64 KiB for file buffers and the like.
pub fn pass2_unbudgeted_bytes(tile_count: u64, workers: u64, degree_bytes: u64) -> u64 {
    tile_count * (8 + 8 + workers * 16 + 8 + 24) + degree_bytes + (64 << 10)
}

/// Reads the live-byte gauge through the converter's own pass hooks, which
/// run on the converting thread: pass 2 is what lies between them.
#[derive(Default)]
struct Pass2Gauge {
    peak_live_bytes: AtomicU64,
}

impl Recorder for Pass2Gauge {
    fn ingest_pass(&self, pass: u8, _wall_ns: u64) {
        if pass == 1 {
            CountingAlloc::restart_live_peak();
        } else {
            self.peak_live_bytes
                .store(CountingAlloc::live_peak(), Ordering::Relaxed);
        }
    }
}

/// Everything `BENCH_ingest.json` reports.
#[derive(Debug, Clone)]
pub struct IngestReport {
    pub scale: Scale,
    pub scatter: ScatterArm,
    pub budget_bytes: usize,
    pub small: StreamRun,
    pub large: StreamRun,
    /// `ingest` counter group of an instrumented small-run conversion.
    pub recorder: IngestMetrics,
}

impl IngestReport {
    /// Streaming allocator-byte growth from the small to the large run.
    pub fn stream_alloc_growth(&self) -> f64 {
        self.large.allocated_bytes as f64 / self.small.allocated_bytes.max(1) as f64
    }

    /// In-memory allocator-byte growth over the same step.
    pub fn in_memory_alloc_growth(&self) -> f64 {
        self.large.in_memory_allocated_bytes as f64
            / self.small.in_memory_allocated_bytes.max(1) as f64
    }

    /// Edge-count growth from the small to the large run.
    pub fn edge_growth(&self) -> f64 {
        self.large.edges as f64 / self.small.edges.max(1) as f64
    }

    /// Sub-linearity verdict: streaming allocation grows at most half as
    /// fast as the edge count (an ~4x edge step must cost < 2x bytes).
    pub fn sublinear(&self) -> bool {
        self.stream_alloc_growth() < self.edge_growth() * 0.5
    }

    pub fn to_json(&self) -> String {
        let run = |r: &StreamRun| {
            format!(
                "{{ \"edges\": {}, \"wall_s\": {:.6}, \"in_memory_wall_s\": {:.6}, \
                 \"allocated_bytes\": {}, \"in_memory_allocated_bytes\": {}, \
                 \"byte_identical\": {}, \"pass2_peak_live_bytes\": {}, \
                 \"pass2_bound_bytes\": {} }}",
                r.edges,
                r.wall_s,
                r.in_memory_wall_s,
                r.allocated_bytes,
                r.in_memory_allocated_bytes,
                r.byte_identical,
                r.pass2_peak_live_bytes,
                r.pass2_bound_bytes,
            )
        };
        format!(
            "{{\n  \"schema\": \"gstore-bench-ingest-v1\",\n  \"workload\": {{ \
             \"kron_scale\": {}, \"edge_factor\": {}, \"tile_bits\": {}, \"group_side\": {} }},\n  \
             \"scatter\": {{ \"edges\": {}, \"sequential_s\": {:.6}, \"parallel_s\": {:.6}, \
             \"speedup\": {:.4}, \"byte_identical\": {} }},\n  \
             \"streaming\": {{ \"mem_budget_bytes\": {},\n    \"small\": {},\n    \
             \"large\": {},\n    \"edge_growth\": {:.4}, \"alloc_growth\": {:.4}, \
             \"in_memory_alloc_growth\": {:.4}, \"sublinear\": {} }},\n  \
             \"recorder\": {{ \"chunks_pass1\": {}, \"chunks_pass2\": {}, \"edges_in\": {}, \
             \"bytes_in\": {}, \"bytes_out\": {}, \"flushes\": {}, \"pwrites\": {}, \
             \"writes_per_flush\": {:.3}, \"pass1_ns\": {}, \"pass2_ns\": {}, \
             \"staging_peak_bytes\": {} }}\n}}\n",
            self.scale.kron_scale,
            self.scale.edge_factor,
            self.scale.tile_bits,
            self.scale.group_side,
            self.scatter.edges,
            self.scatter.sequential_s,
            self.scatter.parallel_s,
            self.scatter.speedup(),
            self.scatter.byte_identical,
            self.budget_bytes,
            run(&self.small),
            run(&self.large),
            self.edge_growth(),
            self.stream_alloc_growth(),
            self.in_memory_alloc_growth(),
            self.sublinear(),
            self.recorder.chunks_pass1,
            self.recorder.chunks_pass2,
            self.recorder.edges_in,
            self.recorder.bytes_in,
            self.recorder.bytes_out,
            self.recorder.flushes,
            self.recorder.pwrites,
            self.recorder.writes_per_flush(),
            self.recorder.pass1_ns,
            self.recorder.pass2_ns,
            self.recorder.staging_peak_bytes,
        )
    }
}

fn best_of<F: FnMut() -> Vec<u8>>(rounds: usize, mut f: F) -> (f64, Vec<u8>) {
    let mut best = f64::INFINITY;
    let mut out = Vec::new();
    for _ in 0..rounds {
        let t = Instant::now();
        let data = f();
        let dt = t.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
        out = data;
    }
    (best, out)
}

fn scatter_arm(el: &EdgeList, scale: &Scale) -> Result<ScatterArm> {
    let opts = scale.conversion();
    let plan = plan_conversion(el, &opts)?;
    let (sequential_s, seq) = best_of(3, || {
        scatter_with(el, &opts, &plan, ScatterMode::Sequential)
    });
    let (parallel_s, par) = best_of(3, || scatter_with(el, &opts, &plan, ScatterMode::Parallel));
    Ok(ScatterArm {
        edges: plan.total_edges(),
        sequential_s,
        parallel_s,
        byte_identical: seq == par,
    })
}

/// Converts `el` both ways and measures wall time and allocator traffic;
/// with no flight recorder to feed, the run carries the pass-2 gauge.
fn stream_run(
    el: &EdgeList,
    scale: &Scale,
    recorder: Option<Arc<FlightRecorder>>,
) -> Result<StreamRun> {
    let dir = tempfile::tempdir()?;
    let edge_path = dir.path().join("bench.el");
    el.write_binary(&edge_path, TupleWidth::for_vertex_count(el.vertex_count()))?;

    let copts = scale.conversion();
    CountingAlloc::arm_thread_gauge();
    let t = Instant::now();
    let store = TileStore::build(el, &copts)?;
    let mem_dir = dir.path().join("mem");
    std::fs::create_dir_all(&mem_dir)?;
    let mem_paths = write_store(&store, &mem_dir, "bench")?;
    let in_memory_wall_s = t.elapsed().as_secs_f64();
    let in_memory_allocated_bytes = CountingAlloc::disarm_thread_gauge();
    drop(store);

    let mut sopts = StreamingOptions::new(copts);
    sopts.mem_budget_bytes = STREAM_BUDGET_BYTES;
    let gauge = Arc::new(Pass2Gauge::default());
    let gauged = recorder.is_none();
    let sopts = sopts.with_recorder(match recorder {
        Some(recorder) => recorder,
        None => gauge.clone() as Arc<dyn Recorder>,
    });
    CountingAlloc::arm_thread_gauge();
    let t = Instant::now();
    let report = convert_streaming(&edge_path, &dir.path().join("st"), "bench", &sopts)?;
    let wall_s = t.elapsed().as_secs_f64();
    let allocated_bytes = CountingAlloc::disarm_thread_gauge();
    let (pass2_peak_live_bytes, pass2_bound_bytes) = if gauged {
        let unbudgeted = pass2_unbudgeted_bytes(
            report.tile_count,
            rayon::current_num_threads() as u64,
            report.degrees.as_ref().map_or(0, |d| d.size_bytes()),
        );
        (
            gauge.peak_live_bytes.load(Ordering::Relaxed),
            STREAM_BUDGET_BYTES as u64 + unbudgeted,
        )
    } else {
        (0, 0)
    };

    let byte_identical = std::fs::read(&report.paths.tiles)? == std::fs::read(&mem_paths.tiles)?
        && std::fs::read(&report.paths.start)? == std::fs::read(&mem_paths.start)?;
    Ok(StreamRun {
        edges: el.edge_count(),
        wall_s,
        in_memory_wall_s,
        allocated_bytes,
        in_memory_allocated_bytes,
        byte_identical,
        pass2_peak_live_bytes,
        pass2_bound_bytes,
    })
}

/// Runs all arms at `scale` and returns the full report.
pub fn run_ingest(scale: &Scale) -> Result<IngestReport> {
    let el = scale.kron();

    let scatter = scatter_arm(&el, scale)?;

    // Large workload: ~4x the edges at the same vertex count, so the edge
    // file grows while the tile grid (and the budget) stay put.
    let mut big = *scale;
    big.edge_factor = scale.edge_factor * 4;
    let el_big = big.kron();

    let recorder = Arc::new(FlightRecorder::new());
    let small = stream_run(&el, scale, Some(recorder.clone()))?;
    let large = stream_run(&el_big, &big, None)?;

    Ok(IngestReport {
        scale: *scale,
        scatter,
        budget_bytes: STREAM_BUDGET_BYTES,
        small,
        large,
        recorder: recorder.snapshot().ingest,
    })
}

/// The payload behind `repro --bench-ingest-json`.
pub fn ingest_json_for_scale(scale: &Scale) -> Result<String> {
    Ok(run_ingest(scale)?.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_bench_meets_acceptance_criteria_at_quick_scale() {
        let r = run_ingest(&Scale::quick()).unwrap();
        assert!(r.scatter.byte_identical, "scatter arms disagree");
        assert!(r.scatter.edges > 0);
        // The scatter speed-up goes into the JSON and is not asserted: a
        // wall-clock ratio of two ~10 ms arms is not a property of the
        // code (0.5-0.8x on two loaded cores, every PR since 12).
        assert!(r.scatter.speedup() > 0.0);
        assert!(r.small.byte_identical && r.large.byte_identical);
        assert!(
            r.sublinear(),
            "streaming allocation must be sub-linear in edges: {:.2}x bytes for {:.2}x edges",
            r.stream_alloc_growth(),
            r.edge_growth()
        );
        // Pass 2 held no more than the budget and the arrays the budget is
        // documented not to cover.
        assert!(r.large.pass2_peak_live_bytes > 0, "gauge never armed");
        assert!(
            r.large.pass2_peak_live_bytes <= r.large.pass2_bound_bytes,
            "pass 2 held {} live bytes, budget + index arrays allow {}",
            r.large.pass2_peak_live_bytes,
            r.large.pass2_bound_bytes
        );
        // The recorder saw both passes and every chunk's writes.
        assert_eq!(r.recorder.edges_in, r.small.edges);
        assert!(r.recorder.chunks_pass1 >= 1 && r.recorder.chunks_pass2 >= 1);
        assert!(r.recorder.pwrites >= 1 && r.recorder.bytes_out > 0);
        assert!(r.recorder.staging_peak_bytes > 0);
    }

    #[test]
    fn json_schema_fields_present() {
        let json = ingest_json_for_scale(&Scale::quick()).unwrap();
        for key in [
            "gstore-bench-ingest-v1",
            "\"scatter\"",
            "\"speedup\"",
            "\"streaming\"",
            "\"mem_budget_bytes\"",
            "\"alloc_growth\"",
            "\"sublinear\": true",
            "\"byte_identical\": true",
            "\"recorder\"",
            "\"staging_peak_bytes\"",
            "\"pass2_peak_live_bytes\"",
            "\"pass2_bound_bytes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
