//! The `--metrics-json` document, pinned byte for byte.
//!
//! A fixed feed calls every [`Recorder`] hook — both branches of each
//! `bool`/`pass` argument, all three hint classes, latencies in several
//! buckets including 0 — and records two iterations, two sweeps and two
//! query records. Its `to_json()` and the empty snapshot's must equal the
//! committed fixtures under `tests/golden/`, so a reordered schema row, a
//! renamed key, a changed number format or a hook that counts differently
//! shows up as a diff. The last test holds docs/METRICS.md to the keys the
//! serializer emits.

use gstore_metrics::{
    EngineMetrics, FlightRecorder, HintClass, IterationMetrics, QueryBatchSweep, QueryRecord,
    Recorder,
};

const FED: &str = include_str!("golden/fed.json");
const EMPTY: &str = include_str!("golden/empty.json");

fn feed(r: &FlightRecorder) {
    r.io_submitted(3, 12_288, 3);
    r.io_submitted(2, 8_192, 5);
    r.io_completed(4_096, 0, false);
    r.io_completed(4_096, 1_500, false);
    r.io_completed(0, 70_000, true);
    r.io_backend_selected(true);
    r.io_backend_selected(false);
    r.io_sqe_batch(5, 1);
    r.io_sqe_batch(3, 2);
    r.io_cqe_reap(4);
    r.io_cqe_reap(3);
    r.io_reg_buffer(true);
    r.io_reg_buffer(true);
    r.io_reg_buffer(false);
    r.io_backend_request(true, 0);
    r.io_backend_request(true, 2_500);
    r.io_backend_request(false, 900);
    r.io_backend_request(false, u64::MAX);
    r.fault_injected();
    for (k, hint) in HintClass::ALL.into_iter().enumerate() {
        for _ in 0..=k {
            r.cache_inserted(hint);
        }
        r.cache_rejected(hint);
    }
    r.cache_rejected(HintClass::NotNeeded);
    r.cache_evicted(HintClass::Unknown);
    r.cache_evicted(HintClass::NotNeeded);
    r.buffer_acquired(4_096, false);
    r.buffer_acquired(8_192, true);
    r.buffer_acquired(8_192, true);
    r.buffer_recycled(4_096);
    r.buffer_recycled(8_192);
    r.bytes_copied(300);
    r.bytes_borrowed(700);
    r.compute_batch(1_000, 1_500, 7);
    r.compute_batch(500, 0, 3);
    r.compute_llc_estimate(1 << 16);
    r.compute_llc_estimate(1 << 14);
    r.ingest_chunk(1, 1_000, 24_000);
    r.ingest_chunk(1, 234, 5_616);
    r.ingest_chunk(2, 1_000, 24_000);
    r.ingest_flush(4_096, 7);
    r.ingest_flush(1_024, 2);
    r.ingest_staging(4_096);
    r.ingest_staging(2_048);
    r.ingest_pass(1, 1_234);
    r.ingest_pass(2, 5_678);
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
    r.iteration_finished(IterationMetrics {
        iteration: 1,
        select_ns: 7,
        rewind_ns: 3,
        slide_ns: 0,
        tiles_rewind: 3,
        rewind_bytes: 192,
        ..Default::default()
    });
    r.query_sweep(QueryBatchSweep {
        sweep: 0,
        queries_active: 3,
        tiles_union: 16,
        tiles_shared: 30,
        bytes_read: 4_096,
        bytes_amortized: 8_192,
        sweep_ns: 1_000,
    });
    r.query_sweep(QueryBatchSweep {
        sweep: 1,
        queries_active: 2,
        tiles_union: 12,
        tiles_shared: 14,
        bytes_read: 2_048,
        bytes_amortized: 2_048,
        sweep_ns: 900,
    });
    r.pointread_lookup(2, 0, 800, 0);
    r.pointread_lookup(0, 3, 0, 700);
    r.pointread_lookup(1, 1, 400, 3_000);
    r.query_finished(QueryRecord {
        query: 1,
        name: "pagerank".to_string(),
        iterations: 2,
        elapsed_ns: 1_900,
        converged: false,
        iter_ns: vec![1_000, 900],
    });
    r.query_finished(QueryRecord {
        query: 0,
        name: "k\"core".to_string(),
        iterations: 1,
        elapsed_ns: 1_000,
        converged: true,
        iter_ns: vec![1_000],
    });
    r.serve_connection_opened();
    r.serve_connection_opened();
    r.serve_connection_closed();
    r.serve_point_query(true);
    r.serve_point_query(false);
    r.serve_query_queued(0);
    r.serve_query_queued(1);
    r.serve_query_queued(6);
    r.serve_query_rejected();
    r.serve_batch_admitted(3);
    r.serve_query_completed(true);
    r.serve_query_completed(false);
    r.serve_batch_run(4, 1_000, 3_000);
    r.codec_tiles(3, 300, 1_200);
    r.codec_tiles(1, 100, 350);
    r.codec_decode_ns(500);
    r.codec_decoded_edges(300);
}

fn fed() -> FlightRecorder {
    let r = FlightRecorder::new();
    feed(&r);
    r
}

#[test]
fn fed_recorder_serializes_to_the_fixture() {
    assert_eq!(fed().snapshot().to_json(), FED);
}

#[test]
fn empty_metrics_serialize_to_the_fixture() {
    assert_eq!(EngineMetrics::default().to_json(), EMPTY);
    assert_eq!(FlightRecorder::new().snapshot().to_json(), EMPTY);
}

#[test]
fn reset_returns_a_fed_recorder_to_the_empty_fixture() {
    let r = fed();
    r.reset();
    assert_eq!(r.snapshot(), EngineMetrics::default());
    assert_eq!(r.snapshot().to_json(), EMPTY);
}

/// The object keys in `text`, in order (histogram buckets, whose keys are
/// numbers, left out).
fn keys(text: &str) -> Vec<&str> {
    text.split('"')
        .collect::<Vec<_>>()
        .windows(2)
        .skip(1)
        .step_by(2)
        .filter(|w| w[1].starts_with(':') && !w[0].starts_with(|c: char| c.is_ascii_digit()))
        .map(|w| w[0])
        .collect()
}

/// Each top-level group of the fed document with every key it emits.
/// A group starts on a line indented two spaces and runs until the next.
fn emitted_groups() -> Vec<(String, Vec<String>)> {
    let json = fed().snapshot().to_json();
    let mut groups: Vec<(String, Vec<String>)> = Vec::new();
    for line in json.lines() {
        let mut found = keys(line).into_iter().map(str::to_string);
        if line.starts_with("  \"") {
            groups.push((found.next().unwrap(), Vec::new()));
        }
        if let Some((_, emitted)) = groups.last_mut() {
            emitted.extend(found);
        }
    }
    groups
}

#[test]
fn metrics_doc_matches_the_schema() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/METRICS.md"
    ))
    .unwrap();
    // `## \`group\` — ...` headings, each with the text up to the next one.
    let sections: Vec<(&str, &str)> = doc
        .split("\n## ")
        .skip(1)
        .filter_map(|s| {
            let name = s.strip_prefix('`')?.split('`').next()?;
            Some((name, s))
        })
        .collect();
    let groups = emitted_groups();
    assert_eq!(groups.len(), 13);
    assert_eq!(sections.len(), groups.len(), "one section per group");
    for (group, emitted) in &groups {
        let section = sections
            .iter()
            .find(|s| s.0 == group)
            .unwrap_or_else(|| panic!("docs/METRICS.md has no ## `{group}` section"))
            .1;
        for key in emitted {
            assert!(
                section.contains(&format!("`{key}`")),
                "## `{group}` does not mention `{key}`"
            );
        }
        for row in section.lines().filter(|l| l.starts_with("| `")) {
            let field = row[3..].split('`').next().unwrap();
            assert!(
                emitted.iter().any(|k| k == field),
                "## `{group}` documents `{field}`, which the serializer does not emit"
            );
        }
    }
}
