//! Golden per-iteration fixture for the sweep pipeline: every non-timing
//! counter a sweep produces — per-iteration and per-sweep recorder
//! entries, per-query run statistics, cache-pool and buffer-pool
//! counters — for BFS, PageRank and a mixed batch, under full
//! Slide-Cache-Rewind and under the base policy, on a raw and a coded
//! store. A change to how `run_batch` is organised must leave this file
//! byte-identical.
//!
//! Every engine runs one I/O worker: completions then arrive in
//! submission order, so the processing order (and with it the cache
//! pool's decisions) is the same on every run. WCC and k-core are left
//! out: how many sweeps they take depends on thread interleaving.

use gstore_core::{Algorithm, Bfs, GStoreEngine, PageRank, QueryBatch, RunStats};
use gstore_graph::gen::{generate_rmat, RmatParams};
use gstore_graph::CompactDegrees;
use gstore_io::MemBackend;
use gstore_metrics::Counter;
use gstore_scr::ScrConfig;
use gstore_tile::{encode_store, Codec, ConversionOptions, TileStore};
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sweep_stats.txt");

#[derive(Clone, Copy)]
enum Policy {
    Scr,
    Base,
}

fn engine(store: &TileStore, codec: Codec, policy: Policy) -> GStoreEngine {
    let (index, data) = encode_store(store, codec).unwrap();
    let bytes = data.len() as u64;
    let builder = GStoreEngine::builder()
        .backend(index, Arc::new(MemBackend::new(data)))
        .io_workers(1)
        .metrics(true);
    match policy {
        // Segments far smaller than the data and a pool of about half of
        // it: every sweep both rewinds and slides, and the pool evicts.
        Policy::Scr => {
            let seg = (bytes / 8).max(256);
            builder.scr(ScrConfig::new(seg, seg * 2 + bytes / 2 + 1024).unwrap())
        }
        Policy::Base => builder.base_policy((bytes / 2).max(1024)),
    }
    .build()
    .unwrap()
}

fn stats_line(s: &RunStats) -> String {
    format!(
        "iterations={} tiles_processed={} tiles_from_cache={} tiles_fetched={} bytes_read={} \
         io_requests={} edges_processed={}",
        s.iterations,
        s.tiles_processed,
        s.tiles_from_cache,
        s.tiles_fetched,
        s.bytes_read,
        s.io_requests,
        s.edges_processed
    )
}

/// Every recorder counter whose value does not depend on timing or on
/// how many buffers happened to be alive at once.
fn deterministic(c: Counter) -> bool {
    let name = c.name();
    !(name.contains("latency")
        || name.ends_with("_ns")
        || name == "io.max_in_flight"
        || matches!(
            name,
            "buffer_pool.hits" | "buffer_pool.misses" | "buffer_pool.recycled"
        ))
}

fn dump(out: &mut String, engine: &GStoreEngine) {
    let m = engine.metrics().unwrap();
    for it in &m.iterations {
        writeln!(
            out,
            "  iteration {} runs_streamed={} tiles_rewind={} tiles_streamed={} \
             rewind_bytes={} stream_bytes={}",
            it.iteration,
            it.runs_streamed,
            it.tiles_rewind,
            it.tiles_streamed,
            it.rewind_bytes,
            it.stream_bytes
        )
        .unwrap();
    }
    for s in &m.sweeps {
        writeln!(
            out,
            "  sweep {} queries_active={} tiles_union={} tiles_shared={} bytes_read={} \
             bytes_amortized={}",
            s.sweep,
            s.queries_active,
            s.tiles_union,
            s.tiles_shared,
            s.bytes_read,
            s.bytes_amortized
        )
        .unwrap();
    }
    for q in &m.queries {
        writeln!(
            out,
            "  query_record {} {} iterations={} converged={} iter_ns_len={}",
            q.query,
            q.name,
            q.iterations,
            q.converged,
            q.iter_ns.len()
        )
        .unwrap();
    }
    for &c in Counter::ALL.iter().filter(|&&c| deterministic(c)) {
        if m[c] != 0 {
            writeln!(out, "  counter {}={}", c.name(), m[c]).unwrap();
        }
    }
    writeln!(out, "  pool {:?}", engine.pool_stats()).unwrap();
    writeln!(
        out,
        "  buffer_pool acquires={}",
        engine.buffer_pool_stats().acquires
    )
    .unwrap();
}

fn render() -> String {
    let el = generate_rmat(&RmatParams::kron(9, 8)).unwrap();
    let store = TileStore::build(&el, &ConversionOptions::new(4).with_group_side(4)).unwrap();
    let tiling = *store.layout().tiling();
    let deg = Arc::new(CompactDegrees::from_edge_list(&el).unwrap());
    let mut out = String::new();
    let cases = [
        ("raw scr", Codec::RawSnb, Policy::Scr),
        ("raw base", Codec::RawSnb, Policy::Base),
        ("zeta scr", Codec::ZetaGap, Policy::Scr),
    ];
    for (label, codec, policy) in cases {
        let mut e = engine(&store, codec, policy);
        let mut bfs = Bfs::new(tiling, 0);
        let s = e.run(&mut bfs, 1000).unwrap();
        writeln!(out, "{label} bfs: {}", stats_line(&s)).unwrap();
        dump(&mut out, &e);

        let mut e = engine(&store, codec, policy);
        let mut pr = PageRank::over(tiling, deg.clone(), 0.85).with_iterations(4);
        let s = e.run(&mut pr, 4).unwrap();
        writeln!(out, "{label} pagerank: {}", stats_line(&s)).unwrap();
        dump(&mut out, &e);

        let mut e = engine(&store, codec, policy);
        let mut b0 = Bfs::new(tiling, 0);
        let mut b7 = Bfs::new(tiling, 7);
        let mut b100 = Bfs::new(tiling, 100);
        let mut pr = PageRank::over(tiling, deg.clone(), 0.85).with_iterations(4);
        let mut batch = QueryBatch::new();
        let queries: [&mut dyn Algorithm; 4] = [&mut b0, &mut b7, &mut b100, &mut pr];
        for q in queries {
            batch.push(q).unwrap();
        }
        let b = e.run_batch(&mut batch, 1000).unwrap();
        writeln!(
            out,
            "{label} batch: sweeps={} tiles_shared={} bytes_amortized={} {}",
            b.sweeps,
            b.tiles_shared,
            b.bytes_amortized,
            stats_line(&b.aggregate)
        )
        .unwrap();
        for q in &b.per_query {
            writeln!(
                out,
                "  per_query {} converged={} {}",
                q.name,
                q.converged,
                stats_line(&q.stats)
            )
            .unwrap();
        }
        dump(&mut out, &e);
    }
    out
}

#[test]
fn sweep_counters_match_the_golden_fixture() {
    let want = std::fs::read_to_string(GOLDEN).unwrap();
    let got = render();
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "sweep counters differ from {GOLDEN} at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
