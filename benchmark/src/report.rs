//! Metric names, the result of one run, and how it is printed.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of metric names;
//! `BENCHMARK.json` repeats them and the smoke test holds the two
//! together. An untraced run reports every end-to-end metric — a run that
//! leaves one unset fails — and a traced run every per-layer metric, where
//! a metric the workload cannot measure is marked not applicable.

use crate::json::{num, quote};
use crate::trace::SpanTotals;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median a metric may worsen by before
    /// `gbench compare` calls it a regression — ISSUE 11's bound; 0 for a
    /// layer metric, which has none.
    pub bound: f64,
    /// The `bound` `BENCHMARK.json` carries, at which its driver refuses a
    /// change — and the benchmark itself, should ten runs of one commit
    /// spread wider. The driver has no `unresolved`, so where this
    /// sandbox's noise comes near `bound` it sits above it.
    pub driver_bound: f64,
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        driver_bound: bound,
    }
}

impl MetricDef {
    const fn driver_bound(mut self, driver_bound: f64) -> MetricDef {
        self.driver_bound = driver_bound;
        self
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    bounded(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports all of them.
pub const END_TO_END: &[MetricDef] = &[
    bounded("setup_s", "s", Lower, 0.25),
    // Ten runs of one commit spread up to 7.6 % between their quartiles
    // here (README, "How steady the numbers are").
    bounded("medges_per_s", "Medges/s", Higher, 0.10).driver_bound(0.20),
    bounded("query_ms_p50", "ms", Lower, 0.10).driver_bound(0.20),
    bounded("disk_bytes_per_edge", "B/edge", Lower, 0.01),
    bounded("peak_rss_mb", "MB", Lower, 0.10),
];

/// What a traced run reports.
///
/// The first five are end-to-end metrics of the workloads that define
/// them. `BENCHMARK.json`'s end-to-end list cannot hold a metric that some
/// workload does not have or that is 0 by design, so they are listed with
/// the layers there; they are still measured with spans off and keep
/// ISSUE 11's bounds, which `gbench compare` holds them to. The rest are
/// single layers.
pub const PER_LAYER: &[MetricDef] = &[
    bounded("read_bytes_per_edge", "B/edge", Lower, 0.01),
    bounded("point_us_p50", "us", Lower, 0.20),
    bounded("point_us_p90", "us", Lower, 0.20),
    bounded("point_us_p99", "us", Lower, 0.25),
    bounded("sweep_qps", "1/s", Higher, 0.10),
    layer("trace.overhead_frac", "ratio", Lower),
    // gstore-graph
    layer("graph.gen_medges_per_s", "Medges/s", Higher),
    layer("graph.degrees_s", "s", Lower),
    // gstore-tile
    layer("tile.convert_medges_per_s", "Medges/s", Higher),
    layer("tile.write_store_mb_per_s", "MB/s", Higher),
    layer("tile.stream_pass1_s", "s", Lower),
    layer("tile.stream_pass2_s", "s", Lower),
    layer("tile.stream_pwrites", "count", Lower),
    layer("tile.stream_flushes", "count", Lower),
    layer("tile.recode_medges_per_s", "Medges/s", Higher),
    layer("tile.zeta_bytes_per_edge", "B/edge", Lower),
    layer("tile.decode_medges_per_s.raw", "Medges/s", Higher),
    layer("tile.decode_medges_per_s.zeta", "Medges/s", Higher),
    // gstore-io
    layer("io.engine_uring", "0/1", Higher),
    layer("io.requests", "count", Lower),
    layer("io.bytes", "count", Lower),
    layer("io.failed", "count", Lower),
    layer("io.read_mb_per_s", "MB/s", Higher),
    layer("io.req_us_p50", "us", Lower),
    layer("io.req_us_p99", "us", Lower),
    layer("io.bufpool_hit_rate", "ratio", Higher),
    layer("io.tile_read_us_p50", "us", Lower),
    layer("io.pwrite_mb_per_s", "MB/s", Higher),
    // gstore-scr
    layer("scr.plan_us_p50", "us", Lower),
    layer("scr.union_merge_us_p50", "us", Lower),
    layer("scr.insert_mb_per_s", "MB/s", Higher),
    layer("scr.analyze_ms_p50", "ms", Lower),
    layer("scr.hit_rate", "ratio", Higher),
    layer("scr.evicted", "count", Lower),
    layer("scr.rejected", "count", Lower),
    // gstore-core
    layer("core.view_medges_per_s.raw", "Medges/s", Higher),
    layer("core.view_medges_per_s.zeta", "Medges/s", Higher),
    layer("core.compute_medges_per_s.sharded", "Medges/s", Higher),
    layer("core.compute_medges_per_s.atomic", "Medges/s", Higher),
    layer("core.overlap_ratio", "ratio", Higher),
    layer("core.batch_amortization", "ratio", Higher),
    layer("core.batch_sweeps", "count", Lower),
    layer("core.point_us_p50.neighbors", "us", Lower),
    layer("core.point_us_p50.degree", "us", Lower),
    layer("core.point_us_p50.khop1", "us", Lower),
    layer("core.point_us_p50.walk16", "us", Lower),
    layer("core.point_qps", "1/s", Higher),
    layer("core.point_bytes_per_req", "B/req", Lower),
    layer("core.spec_parse_ns", "ns", Lower),
    // gstore-server
    layer("server.frame_rtt_us_p50", "us", Lower),
    layer("server.frame_codec_ns", "ns", Lower),
    layer("server.reply_codec_ns", "ns", Lower),
    layer("server.point_overhead_us", "us", Lower),
    layer("server.sweep_overhead_ms", "ms", Lower),
    layer("server.busy", "count", Lower),
    layer("server.err", "count", Lower),
];

/// The environment a result was measured in; printed with every result
/// because thread counts and the I/O engine change what the numbers mean.
#[derive(Debug, Clone, Default)]
pub struct Env {
    pub nproc: usize,
    pub rayon_threads: usize,
    /// The engine kind the workload's own `GStoreEngine` reports
    /// (`io_backend()`); `none` where the workload builds no engine.
    pub io_engine: &'static str,
    pub kernel: String,
    pub commit: String,
}

impl Env {
    pub fn detect() -> Env {
        let read = |p: &str| std::fs::read_to_string(p).map(|s| s.trim().to_string());
        let commit = read(".git/HEAD")
            .ok()
            .and_then(|head| match head.strip_prefix("ref: ") {
                Some(r) => read(&format!(".git/{r}")).ok(),
                None => Some(head),
            })
            .unwrap_or_else(|| "unknown".into());
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rayon_threads: rayon::current_num_threads(),
            io_engine: "none",
            kernel: read("/proc/sys/kernel/osrelease").unwrap_or_else(|_| "unknown".into()),
            commit,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub scale: &'static str,
    pub traced: bool,
    /// Operations (queries, batches' queries, requests, ingest rounds)
    /// attempted in the timed section, and how many of them failed a
    /// correctness check, drew an `ERR`/`BUSY` reply or hit an I/O error.
    pub attempted: u64,
    pub failed: u64,
    /// Samples behind the latency percentiles (stated with them).
    pub samples: u64,
    /// Edges processed, ingested or delivered in the timed section — the
    /// exact count behind `medges_per_s`.
    pub edges: u64,
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub spans: BTreeMap<&'static str, SpanTotals>,
    pub env: Env,
}

impl Outcome {
    pub fn new(workload: &'static str, seed: u64, scale: &'static str, traced: bool) -> Self {
        Outcome {
            workload,
            seed,
            scale,
            traced,
            attempted: 0,
            failed: 0,
            samples: 0,
            edges: 0,
            values: BTreeMap::new(),
            notes: Vec::new(),
            spans: BTreeMap::new(),
            env: Env::detect(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not a declared metric"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric list this run reports: end-to-end when untraced,
    /// per-layer when traced.
    pub fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// `(definition, value)` for every metric this run reports; `None`
    /// where the workload cannot measure it.
    pub fn reported(&self) -> Vec<(&'static MetricDef, Option<f64>)> {
        self.defs().iter().map(|d| (d, self.get(d.name))).collect()
    }

    /// The end-to-end metrics an untraced run failed to set.
    pub fn unset_end_to_end(&self) -> Vec<&'static str> {
        if self.traced {
            return Vec::new();
        }
        let unset = |d: &&MetricDef| self.get(d.name).is_none();
        END_TO_END.iter().filter(unset).map(|d| d.name).collect()
    }

    /// Every reported metric as `name: {value, unit}`; `absent` stands for
    /// a value that is not applicable.
    fn metrics_json(&self, absent: &str) -> String {
        let fields: Vec<String> = self
            .reported()
            .iter()
            .map(|(d, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(d.name),
                    v.map_or_else(|| absent.to_string(), num),
                    quote(d.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The one-line result the benchmark contract asks for. The contract
    /// wants a number under every name, so a per-layer metric that is not
    /// applicable reads 0 here; the result document and the table for
    /// people say `null` and `n/a`.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json("0")
        )
    }

    /// The full result document `--out` writes and `compare` reads.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(name, t)| {
                format!(
                    "{}: {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                    quote(name),
                    t.count,
                    num(t.total_s),
                    num(t.self_s)
                )
            })
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| quote(n)).collect();
        format!(
            "{{\n  \"schema\": \"gbench-result-v1\",\n  \"workload\": {},\n  \"seed\": {},\n  \
             \"scale\": {},\n  \"traced\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \
             \"failed\": {},\n  \"samples\": {},\n  \"edges\": {},\n  \"env\": {{\"nproc\": {}, \
             \"rayon_threads\": {}, \"io_engine\": {}, \"kernel\": {}, \"commit\": {}}},\n  \
             \"metrics\": {},\n  \"spans\": {{{}}},\n  \"notes\": [{}]\n}}\n",
            quote(self.workload),
            self.seed,
            quote(self.scale),
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            self.samples,
            self.edges,
            self.env.nproc,
            self.env.rayon_threads,
            quote(self.env.io_engine),
            quote(&self.env.kernel),
            quote(&self.env.commit),
            self.metrics_json("null"),
            spans.join(", "),
            notes.join(", "),
        )
    }

    /// Every metric by name with its unit, for people.
    pub fn human(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, scale {}, {}) ==\n\
             env: nproc={} rayon_threads={} io_engine={} kernel={} commit={}\n\
             operations: attempted={} failed={} latency_samples={} edges={}\n",
            self.workload,
            self.seed,
            self.scale,
            if self.traced {
                "traced: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            },
            self.env.nproc,
            self.env.rayon_threads,
            self.env.io_engine,
            self.env.kernel,
            self.env.commit,
            self.attempted,
            self.failed,
            self.samples,
            self.edges,
        );
        for (d, v) in self.reported() {
            let value = v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
            out.push_str(&format!("  {:<36} {:>16} {}\n", d.name, value, d.unit));
        }
        if !self.spans.is_empty() {
            out.push_str("spans (count, total s, self s):\n");
            for (name, t) in &self.spans {
                out.push_str(&format!(
                    "  {:<36} {:>8} {:>12.4} {:>12.4}\n",
                    name, t.count, t.total_s, t.self_s
                ));
            }
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(q * (sorted.len() - 1) as f64).round() as usize]
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= d.driver_bound && d.driver_bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn contract_line_is_one_json_object_with_exactly_four_keys() {
        let mut o = Outcome::new("pr_stream", 1, "quick", false);
        o.attempted = 3;
        for d in END_TO_END {
            o.set(d.name, 1.5);
        }
        let line = o.contract_line();
        assert!(!line.contains('\n'));
        let doc = crate::json::parse(&line).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"].get("unit").unwrap().as_str(), Some("s"));
        let full = crate::json::parse(&o.to_json()).unwrap();
        assert_eq!(full.get("workload").unwrap().as_str(), Some("pr_stream"));
    }

    #[test]
    fn an_unset_metric_is_never_a_zero() {
        // Untraced: a missing end-to-end metric is named, so the run fails.
        let mut o = Outcome::new("pr_stream", 1, "quick", false);
        for d in &END_TO_END[1..] {
            o.set(d.name, 1.5);
        }
        assert_eq!(o.unset_end_to_end(), ["setup_s"]);

        // Traced: not applicable, said so wherever the format allows.
        let mut o = Outcome::new("pr_stream", 1, "quick", true);
        o.set("io.failed", 0.0);
        assert!(o.unset_end_to_end().is_empty());
        let doc = crate::json::parse(&o.to_json()).unwrap();
        let value = |name: &str| doc.get("metrics").unwrap().get(name).unwrap().get("value");
        assert_eq!(value("sweep_qps"), Some(&crate::json::Json::Null));
        assert_eq!(value("io.failed").and_then(|v| v.as_f64()), Some(0.0));
        assert!(o.human().contains("n/a 1/s"));
        let line = crate::json::parse(&o.contract_line()).unwrap();
        let metrics = line.get("metrics").unwrap();
        let in_line = metrics.get("sweep_qps").unwrap().get("value");
        assert_eq!(in_line.and_then(|v| v.as_f64()), Some(0.0));
    }
}
