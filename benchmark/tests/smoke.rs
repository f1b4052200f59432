//! Runs every workload at `--quick` scale, untraced and traced, and holds
//! `BENCHMARK.json` and the program's metric list together.

use gbench::data::Scale;
use gbench::json::{self, Json};
use gbench::report::{Outcome, END_TO_END, PER_LAYER};
use gbench::workloads::{run, Limit, RunConfig, Workload};
use std::path::Path;

fn quick(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&RunConfig {
        workload,
        seed,
        scale: Scale::QUICK,
        // ISSUE 11's counts ÷ 4.
        limit: Limit::Units((workload.default_units() / 4).max(2)),
        trace,
        out: None,
    })
    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_programs_metrics_and_workloads() {
    let doc = benchmark_json();
    assert_eq!(
        names(&doc, "workloads"),
        Workload::ALL.map(|w| w.name().to_string())
    );
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = doc.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (m, d) in listed.iter().zip(defs) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            if key == "end_to_end" {
                assert_eq!(
                    m.get("bound").and_then(Json::as_f64),
                    Some(d.driver_bound),
                    "{}",
                    d.name
                );
            }
        }
    }
    assert_eq!(
        doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
}

/// The per-layer metrics a workload cannot measure. Every other metric
/// must be reported, so one a workload forgot cannot pass for a real 0.
fn not_applicable(workload: Workload) -> Vec<&'static str> {
    let sweep_counters = [
        "read_bytes_per_edge",
        "scr.hit_rate",
        "scr.evicted",
        "scr.rejected",
    ];
    let points = ["point_us_p50", "point_us_p90", "point_us_p99"];
    let batch = ["core.batch_amortization", "core.batch_sweeps"];
    let served = ["sweep_qps", "server.busy", "server.err"];
    match workload {
        Workload::PrStream | Workload::PrResident | Workload::PrZeta => {
            [&points[..], &batch, &served].concat()
        }
        Workload::BatchMixed => [&points[..], &served].concat(),
        // p99 needs a thousand requests: the smoke test sends 240, and
        // connection P of `serve_mixed` is paced.
        Workload::PointZipf => [&sweep_counters[..], &["point_us_p99"], &batch, &served].concat(),
        Workload::ServeMixed => [
            &["read_bytes_per_edge", "scr.hit_rate", "point_us_p99"][..],
            &batch,
        ]
        .concat(),
        Workload::Ingest => [&sweep_counters[..], &points, &batch, &served].concat(),
    }
}

/// Reported metrics that may read 0 (or below): counts of things that
/// should not happen, differences of two timings, and a flag.
const MAY_BE_ZERO: [&str; 11] = [
    "read_bytes_per_edge",
    "trace.overhead_frac",
    "io.engine_uring",
    "io.failed",
    "scr.hit_rate",
    "scr.evicted",
    "scr.rejected",
    "server.point_overhead_us",
    "server.sweep_overhead_ms",
    "server.busy",
    "server.err",
];

/// Every name in `BENCHMARK.json` appears in the output with a finite
/// value and a unit; no operation fails.
fn check_reports_everything(o: &Outcome, listed: &[String]) {
    assert!(
        o.correct(),
        "{}: {} of {} failed; {:?}",
        o.workload,
        o.failed,
        o.attempted,
        o.notes
    );
    let line = json::parse(&o.contract_line()).expect("contract line parses");
    let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), listed.len(), "{}", o.workload);
    for name in listed {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{}: {name} missing", o.workload));
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{}: {name} = {value:?}",
            o.workload
        );
        assert!(m
            .get("unit")
            .and_then(Json::as_str)
            .is_some_and(|u| !u.is_empty()));
        assert!(o.human().contains(name.as_str()));
    }
}

#[test]
fn all_seven_workloads_run_untraced_and_traced() {
    let doc = benchmark_json();
    let (end_to_end, per_layer) = (names(&doc, "end_to_end"), names(&doc, "per_layer"));
    for workload in Workload::ALL {
        let untraced = quick(workload, 1, false);
        check_reports_everything(&untraced, &end_to_end);
        assert!(untraced.spans.is_empty(), "an untraced run keeps no spans");
        for name in &end_to_end {
            assert!(
                untraced.get(name).unwrap() > 0.0,
                "{}: {name} is 0",
                workload.name()
            );
        }

        let traced = quick(workload, 1, true);
        check_reports_everything(&traced, &per_layer);
        // Exactly the metrics the workload cannot measure are marked so,
        // in the result document and in the table for people; the layers
        // it does enter report something other than 0.
        let absent = not_applicable(workload);
        let doc = json::parse(&traced.to_json()).expect("result document parses");
        for name in &per_layer {
            let value = traced.get(name);
            assert_eq!(
                value.is_none(),
                absent.contains(&name.as_str()),
                "{}: {name} = {value:?}",
                workload.name()
            );
            let written = doc.get("metrics").and_then(|m| m.get(name)).unwrap();
            assert_eq!(written.get("value") == Some(&Json::Null), value.is_none());
            if let Some(v) = value {
                assert!(
                    v != 0.0 || MAY_BE_ZERO.contains(&name.as_str()),
                    "{}: {name} is 0",
                    workload.name()
                );
            }
        }
        assert_eq!(traced.human().matches("n/a").count(), absent.len());
        assert!(traced.spans.contains_key("setup"));
        assert!(traced.spans.keys().any(|k| k.starts_with("replay.")));
        assert_eq!(traced.get("io.failed"), Some(0.0));
        // Each workload loads the layer it was chosen for.
        let read = traced.get("read_bytes_per_edge").unwrap_or(0.0);
        match workload {
            Workload::PrStream => assert!(read > 2.5, "pr_stream read {read} B/edge"),
            Workload::PrResident => assert_eq!(read, 0.0, "pr_resident must read nothing"),
            Workload::PrZeta => assert!(read > 0.0 && read < 2.5, "pr_zeta read {read}"),
            Workload::BatchMixed => {
                assert!(traced.get("core.batch_amortization").unwrap() > 1.0);
                assert!(traced.get("core.batch_sweeps").unwrap() >= 1.0);
            }
            Workload::PointZipf => assert!(traced.get("point_us_p90").unwrap() > 0.0),
            Workload::ServeMixed => {
                assert!(traced.get("sweep_qps").unwrap() > 0.0);
                assert!(traced.get("server.frame_rtt_us_p50").unwrap() > 0.0);
                assert!(traced.get("core.point_us_p50.degree").unwrap() > 0.0);
            }
            Workload::Ingest => assert!(traced.get("tile.stream_pwrites").unwrap() > 0.0),
        }
    }
}

#[test]
fn exact_counts_follow_the_seed_and_nothing_else() {
    // pr_zeta: the ζ3 store's size depends on the graph, so every count
    // below but the edges moves with the seed. (disk_bytes_per_edge, edges
    // processed) come from the untraced run, (read_bytes_per_edge,
    // io.requests, io.bytes) from the traced one.
    let exact = |seed: u64| {
        let u = quick(Workload::PrZeta, seed, false);
        let t = quick(Workload::PrZeta, seed, true);
        [
            u.get("disk_bytes_per_edge").unwrap().to_bits(),
            t.get("read_bytes_per_edge").unwrap().to_bits(),
            t.get("io.bytes").unwrap().to_bits(),
            t.get("io.requests").unwrap().to_bits(),
            u.edges,
        ]
    };
    let (a, again, other) = (exact(1), exact(1), exact(2));
    assert_eq!(a, again, "one seed, two runs");
    for (i, name) in ["disk_bytes_per_edge", "read_bytes_per_edge", "io.bytes"]
        .iter()
        .enumerate()
    {
        assert_ne!(a[i], other[i], "{name} follows the seed");
    }
}
