//! What the streaming converter holds in memory, read from a counting
//! allocator: its allocation grows sub-linearly in the edge count, and pass
//! 2 holds no more than its budget plus the index arrays the budget is
//! documented not to cover.
//!
//! The counting allocator is this test binary's own `#[global_allocator]`,
//! so it touches nothing else. It follows the converting thread only (a
//! thread-local gauge), so tests running beside it never land in its
//! numbers.

use gstore::graph::gen::{generate_rmat, RmatParams};
use gstore::prelude::*;
use gstore_metrics::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

// Plain `Cell`s with constant initialisers need no lazy set-up and no
// destructor, which is what an allocator hook may touch.
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

// SAFETY: every method forwards its caller's arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the gauge beside it
// touches only constant-initialised thread-locals, so it neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        gauge(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        gauge(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        gauge(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

/// Starts following the calling thread's allocations from zero.
fn arm_thread_gauge() {
    GAUGE_ALLOCATED.set(0);
    GAUGE_LIVE.set(0);
    GAUGE_PEAK.set(0);
    GAUGE_ARMED.set(true);
}

/// Stops following and returns the bytes the calling thread requested from
/// the allocator while armed.
fn disarm_thread_gauge() -> u64 {
    GAUGE_ARMED.set(false);
    GAUGE_ALLOCATED.get()
}

/// Reads the live-byte peak through the converter's own pass hooks, which
/// run on the converting thread: pass 2 is what lies between them. Memory
/// freed that was allocated before arming counts below zero and never
/// raises the peak.
#[derive(Default)]
struct Pass2Gauge {
    peak_live_bytes: AtomicU64,
}

impl Recorder for Pass2Gauge {
    fn ingest_pass(&self, pass: u8, _wall_ns: u64) {
        if pass == 1 {
            GAUGE_PEAK.set(GAUGE_LIVE.get());
        } else {
            let peak = GAUGE_PEAK.get().max(0) as u64;
            self.peak_live_bytes.store(peak, Ordering::Relaxed);
        }
    }
}

/// Pass-2 working-set budget: far below what the larger graph's edges take.
const BUDGET_BYTES: usize = 8 << 20;

/// What pass 2 may hold beside its budget (the module docs of
/// `gstore_tile::stream`): per tile the start-edge index and the rolling
/// cursor (8 B each), every worker's counts and pack slots (16 B), the
/// chunk's touched list (8 B) and run list (24 B); the compact degree array
/// pass 1 leaves behind; and 64 KiB for file buffers and the like.
fn pass2_unbudgeted_bytes(tile_count: u64, workers: u64, degree_bytes: u64) -> u64 {
    tile_count * (8 + 8 + workers * 16 + 8 + 24) + degree_bytes + (64 << 10)
}

/// One streaming conversion of `kron(14, edge_factor)`: the bytes its
/// thread allocated, and pass 2's live peak against what it may hold.
fn stream(edge_factor: u64) -> (u64, u64, u64, u64) {
    let el = generate_rmat(&RmatParams::kron(14, edge_factor)).unwrap();
    let dir = tempfile::tempdir().unwrap();
    let edge_path = dir.path().join("g.el");
    el.write_binary(&edge_path, TupleWidth::for_vertex_count(el.vertex_count()))
        .unwrap();
    let gauge = Arc::new(Pass2Gauge::default());
    let mut opts = StreamingOptions::new(ConversionOptions::new(9).with_group_side(8))
        .with_recorder(gauge.clone());
    opts.mem_budget_bytes = BUDGET_BYTES;

    arm_thread_gauge();
    let report = convert_streaming(&edge_path, &dir.path().join("st"), "g", &opts).unwrap();
    let allocated = disarm_thread_gauge();

    let bound = BUDGET_BYTES as u64
        + pass2_unbudgeted_bytes(
            report.tile_count,
            rayon::current_num_threads() as u64,
            report.degrees.as_ref().map_or(0, |d| d.size_bytes()),
        );
    let peak = gauge.peak_live_bytes.load(Ordering::Relaxed);
    (el.edge_count(), allocated, peak, bound)
}

#[test]
fn streaming_memory_is_sublinear_and_pass2_stays_in_budget() {
    let (small_edges, small_alloc, _, _) = stream(8);
    // ~4x the edges at the same vertex count: the edge file grows while
    // the tile grid (and the budget) stay put.
    let (large_edges, large_alloc, peak, bound) = stream(32);

    let edge_growth = large_edges as f64 / small_edges as f64;
    let alloc_growth = large_alloc as f64 / small_alloc.max(1) as f64;
    assert!(
        alloc_growth < edge_growth * 0.5,
        "streaming allocation must be sub-linear in edges: \
         {alloc_growth:.2}x bytes for {edge_growth:.2}x edges"
    );
    assert!(peak > 0, "gauge never armed");
    assert!(
        peak <= bound,
        "pass 2 held {peak} live bytes, budget + index arrays allow {bound}"
    );
}
