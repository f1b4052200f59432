//! Slide-path measurement arms: the pre-change copy pipeline vs the
//! zero-copy borrow pipeline, plus the `BENCH_slide.json` emitter.
//!
//! The engine no longer contains the copy path (PR 2 removed it), so the
//! baseline is reconstructed here at the store level: both arms "receive"
//! the same contiguous segment runs a slide phase would stream, and both
//! perform identical per-edge compute. The copy arm materialises every
//! tile as an owned `Vec<u8>` first (what `collect_segment` used to do);
//! the borrow arm builds `TileView`s directly over slices of the run
//! buffer (what the engine does now). The difference — wall time, bytes
//! memcpy'd, allocator traffic — is the cost the zero-copy pipeline
//! removed, tracked from this PR onward in `BENCH_slide.json`.

use crate::workloads::{degrees, Scale};
use gstore_core::{GStoreEngine, PageRank, TileView};
use gstore_graph::Result;
use gstore_tile::{TileIndex, TileStore};
use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting wrapper around the system allocator, installed as the bench
/// crate's `#[global_allocator]` so the arms can report allocator traffic.
/// One relaxed add per call; negligible against real allocation cost.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// The thread gauge follows what the armed thread itself allocates and
// frees, so arms running on parallel test threads cannot see each other
// (the process-wide totals above can: a neighbour's allocations land in
// them). Plain `Cell`s with constant initialisers need no lazy set-up and
// no destructor, which is what an allocator hook may touch.
thread_local! {
    static GAUGE_ARMED: Cell<bool> = const { Cell::new(false) };
    static GAUGE_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static GAUGE_LIVE: Cell<i64> = const { Cell::new(0) };
    static GAUGE_PEAK: Cell<i64> = const { Cell::new(0) };
}

fn gauge(delta: i64) {
    if GAUGE_ARMED.get() {
        if delta > 0 {
            GAUGE_ALLOCATED.set(GAUGE_ALLOCATED.get() + delta as u64);
        }
        let live = GAUGE_LIVE.get() + delta;
        GAUGE_LIVE.set(live);
        GAUGE_PEAK.set(GAUGE_PEAK.get().max(live));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        gauge(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        gauge(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        gauge(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        gauge(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

impl CountingAlloc {
    /// `(allocations, allocated_bytes)` so far, process-wide.
    pub fn snapshot() -> (u64, u64) {
        (
            ALLOCATIONS.load(Ordering::Relaxed),
            ALLOCATED_BYTES.load(Ordering::Relaxed),
        )
    }

    /// Starts following the calling thread's allocations from zero.
    pub fn arm_thread_gauge() {
        GAUGE_ALLOCATED.set(0);
        GAUGE_LIVE.set(0);
        GAUGE_PEAK.set(0);
        GAUGE_ARMED.set(true);
    }

    /// Forgets the live-byte peak so far: the next reading covers only
    /// what follows.
    pub fn restart_live_peak() {
        GAUGE_PEAK.set(GAUGE_LIVE.get());
    }

    /// Peak of live bytes the calling thread held, above what it held
    /// when armed, since the last restart. Memory it frees that was
    /// allocated before arming counts below zero and never raises the
    /// peak.
    pub fn live_peak() -> u64 {
        GAUGE_PEAK.get().max(0) as u64
    }

    /// Stops following and returns the bytes the calling thread requested
    /// from the allocator while armed.
    pub fn disarm_thread_gauge() -> u64 {
        GAUGE_ARMED.set(false);
        GAUGE_ALLOCATED.get()
    }
}

/// The contiguous runs a full-sweep slide phase would stream: every tile,
/// in storage order, batched into segments of at most `seg_bytes` (one
/// run per segment, since a full sweep has no gaps).
pub struct SlideRuns {
    pub index: TileIndex,
    /// `(first_tile, tile_count, byte_range)` per run.
    pub runs: Vec<(u64, u64, Range<u64>)>,
}

/// Plans the full-sweep segment runs for a store.
pub fn plan_full_sweep(store: &TileStore, seg_bytes: u64) -> SlideRuns {
    let index = TileIndex::raw(
        store.layout().clone(),
        store.encoding(),
        store.start_edge().to_vec(),
    );
    let mut runs = Vec::new();
    let mut first = 0u64;
    let n = store.tile_count();
    while first < n {
        let mut last = first;
        let start = index.tile_byte_range(first).start;
        let mut end = index.tile_byte_range(first).end;
        while last + 1 < n && index.tile_byte_range(last + 1).end - start <= seg_bytes {
            last += 1;
            end = index.tile_byte_range(last).end;
        }
        runs.push((first, last - first + 1, start..end));
        first = last + 1;
    }
    SlideRuns { index, runs }
}

/// One measured arm.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmMeasure {
    pub wall_s: f64,
    /// Allocator calls during the arm.
    pub allocations: u64,
    /// Bytes requested from the allocator during the arm.
    pub allocated_bytes: u64,
    /// Tile bytes memcpy'd out of run buffers (0 for the borrow arm).
    pub bytes_copied: u64,
    /// Edges decoded (identical across arms — the compute is the same).
    pub edges: u64,
}

/// Per-edge work both arms perform, heavy enough that the measurement is
/// processing a tile, not just touching its header.
#[inline]
fn process_tile(view: &TileView) -> (u64, u64) {
    let mut acc = 0u64;
    let mut edges = 0u64;
    for e in view.edges() {
        acc = acc.wrapping_add(e.src ^ e.dst);
        edges += 1;
    }
    (std::hint::black_box(acc), edges)
}

fn tile_batch<'a>(
    sweep: &SlideRuns,
    first: u64,
    count: u64,
    base: u64,
    data: &'a [u8],
) -> Vec<(u64, &'a [u8])> {
    (first..first + count)
        .map(|t| {
            let r = sweep.index.tile_byte_range(t);
            (t, &data[(r.start - base) as usize..(r.end - base) as usize])
        })
        .collect()
}

fn run_batch(sweep: &SlideRuns, batch: &[(u64, &[u8])]) -> u64 {
    let tiling = *sweep.index.layout.tiling();
    let encoding = sweep.index.encoding;
    batch
        .par_iter()
        .map(|&(t, bytes)| {
            let coord = sweep.index.layout.coord_at(t);
            process_tile(&TileView::new(&tiling, coord, encoding, bytes)).1
        })
        .sum()
}

/// The pre-change pipeline: each run buffer is split into per-tile owned
/// copies before any tile is processed (one allocation + one memcpy per
/// tile, per sweep — what `collect_segment` did).
pub fn run_copy_arm(store: &TileStore, sweep: &SlideRuns) -> ArmMeasure {
    let data = store.data();
    let (a0, b0) = CountingAlloc::snapshot();
    let t0 = Instant::now();
    let mut edges = 0u64;
    let mut copied = 0u64;
    for &(first, count, ref range) in &sweep.runs {
        let run = &data[range.start as usize..range.end as usize];
        let owned: Vec<(u64, Vec<u8>)> = (first..first + count)
            .map(|t| {
                let r = sweep.index.tile_byte_range(t);
                let lo = (r.start - range.start) as usize;
                (t, run[lo..lo + (r.end - r.start) as usize].to_vec())
            })
            .collect();
        copied += owned.iter().map(|(_, v)| v.len() as u64).sum::<u64>();
        let batch: Vec<(u64, &[u8])> = owned.iter().map(|(t, v)| (*t, v.as_slice())).collect();
        edges += run_batch(sweep, &batch);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (a1, b1) = CountingAlloc::snapshot();
    ArmMeasure {
        wall_s,
        allocations: a1 - a0,
        allocated_bytes: b1 - b0,
        bytes_copied: copied,
        edges,
    }
}

/// The zero-copy pipeline: `TileView`s borrow slices of the run buffer
/// directly, exactly like the engine's `process_run`.
pub fn run_borrow_arm(store: &TileStore, sweep: &SlideRuns) -> ArmMeasure {
    let data = store.data();
    let (a0, b0) = CountingAlloc::snapshot();
    let t0 = Instant::now();
    let mut edges = 0u64;
    for &(first, count, ref range) in &sweep.runs {
        let run = &data[range.start as usize..range.end as usize];
        let batch = tile_batch(sweep, first, count, range.start, run);
        edges += run_batch(sweep, &batch);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (a1, b1) = CountingAlloc::snapshot();
    ArmMeasure {
        wall_s,
        allocations: a1 - a0,
        allocated_bytes: b1 - b0,
        bytes_copied: 0,
        edges,
    }
}

fn arm_json(m: &ArmMeasure) -> String {
    format!(
        "{{ \"wall_s\": {:.6}, \"allocations\": {}, \"allocated_bytes\": {}, \
         \"bytes_copied\": {}, \"edges\": {} }}",
        m.wall_s, m.allocations, m.allocated_bytes, m.bytes_copied, m.edges
    )
}

/// Runs both arms (best of `reps`) plus an instrumented engine PageRank at
/// `scale`, and renders the `BENCH_slide.json` payload: the measured
/// copy-vs-borrow delta, and the live engine's own slide-phase counters
/// (bytes copied/borrowed, buffer-pool hit rate, compute/IO overlap).
pub fn slide_json_for_scale(scale: &Scale) -> Result<String> {
    let el = scale.kron();
    let store = scale.store(&el);
    let seg = (store.data_bytes() / 8).max(4096);
    let sweep = plan_full_sweep(&store, seg);

    let reps = 3;
    let mut copy = run_copy_arm(&store, &sweep);
    let mut borrow = run_borrow_arm(&store, &sweep);
    for _ in 1..reps {
        let c = run_copy_arm(&store, &sweep);
        if c.wall_s < copy.wall_s {
            copy = c;
        }
        let b = run_borrow_arm(&store, &sweep);
        if b.wall_s < borrow.wall_s {
            borrow = b;
        }
    }

    // A real engine run over the same graph: the counters behind the
    // Figure 13/14 ablations, scoped to the slide phase.
    let deg = degrees(&el);
    let tiling = *store.layout().tiling();
    let total = store.data_bytes() / 2 + 2 * seg + 4096;
    let cfg = GStoreEngine::builder().scr(gstore_scr::ScrConfig::new(seg, total)?);
    let mut pr = PageRank::new(tiling, deg, 0.85).with_iterations(5);
    let (_, _, m) = crate::model::run_gstore_instrumented(&store, cfg, 2, &mut pr, 5)?;
    let slide_ns: u64 = m.iterations.iter().map(|i| i.slide_ns).sum();
    let slide_compute_ns: u64 = m.iterations.iter().map(|i| i.slide_compute_ns).sum();
    let io_wait_ns: u64 = m.iterations.iter().map(|i| i.io_wait_ns).sum();
    let runs_streamed: u64 = m.iterations.iter().map(|i| i.runs_streamed).sum();

    Ok(format!(
        "{{\n  \"schema\": \"gstore-bench-slide-v1\",\n  \"workload\": {{ \"kron_scale\": {}, \
         \"edge_factor\": {}, \"tile_bits\": {}, \"data_bytes\": {}, \"segment_bytes\": {} }},\n  \
         \"copy_path\": {},\n  \"borrow_path\": {},\n  \"speedup\": {:.4},\n  \
         \"allocation_reduction\": {:.4},\n  \"engine\": {{ \"slide_ns\": {slide_ns}, \
         \"slide_compute_ns\": {slide_compute_ns}, \"io_wait_ns\": {io_wait_ns}, \
         \"runs_streamed\": {runs_streamed}, \"bytes_copied\": {}, \"bytes_borrowed\": {}, \
         \"copy_fraction\": {:.6}, \"buffer_pool_hit_rate\": {:.6} }}\n}}\n",
        scale.kron_scale,
        scale.edge_factor,
        scale.tile_bits,
        store.data_bytes(),
        seg,
        arm_json(&copy),
        arm_json(&borrow),
        copy.wall_s / borrow.wall_s.max(1e-12),
        copy.allocations as f64 / borrow.allocations.max(1) as f64,
        m.copy.bytes_copied,
        m.copy.bytes_borrowed,
        m.copy.copy_fraction(),
        m.buffer_pool.hit_rate(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_decode_identical_edges_and_only_copy_arm_copies() {
        let s = Scale::quick();
        let el = s.kron();
        let store = s.store(&el);
        let sweep = plan_full_sweep(&store, (store.data_bytes() / 4).max(4096));
        assert!(sweep.runs.len() >= 2, "sweep should have several segments");
        // Runs partition the data exactly.
        let covered: u64 = sweep.runs.iter().map(|(_, _, r)| r.end - r.start).sum();
        assert_eq!(covered, store.data_bytes());
        let copy = run_copy_arm(&store, &sweep);
        let borrow = run_borrow_arm(&store, &sweep);
        assert_eq!(copy.edges, borrow.edges);
        assert!(copy.edges > 0);
        assert_eq!(copy.bytes_copied, store.data_bytes());
        assert_eq!(borrow.bytes_copied, 0);
        // The copy arm pays one allocation per non-empty tile (empty-slice
        // `to_vec()` is allocation-free), so it must out-allocate the
        // borrow arm and request at least the full data size.
        assert!(copy.allocations > borrow.allocations);
        assert!(copy.allocated_bytes >= store.data_bytes());
    }

    #[test]
    fn slide_json_has_schema_and_both_arms() {
        let s = Scale::quick();
        let json = slide_json_for_scale(&s).unwrap();
        for key in [
            "\"schema\": \"gstore-bench-slide-v1\"",
            "\"copy_path\"",
            "\"borrow_path\"",
            "\"bytes_copied\"",
            "\"bytes_borrowed\"",
            "\"buffer_pool_hit_rate\"",
            "\"runs_streamed\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
