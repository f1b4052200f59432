//! The seven workloads and the skeleton they share.
//!
//! Every workload runs the same way: set up three times from scratch
//! (median = `setup_s`), compute oracles, time units of work until the
//! limit, check every unit's result. An untraced run reports the
//! end-to-end metrics. A traced run times the section three times — spans
//! off, which the workload's own counters and the workload-scoped
//! end-to-end metrics come from, then spans on, then spans off again;
//! `trace.overhead_frac` holds the middle pass against the mean of the
//! outer two — and then replays each layer in isolation on the same inputs
//! ([`crate::layers`]).

mod batch;
mod ingest;
mod pagerank;
pub(crate) mod point;
mod serve;

use crate::data::{heap_for_setup, heap_for_timing, peak_rss_mb, reset_peak_rss, Scale};
use crate::report::{median, quantile, Outcome};
use crate::trace::Tracer;
use gstore_core::{GStoreEngine, RunStats};
use gstore_graph::{GraphError, Result};
use gstore_scr::PoolStats;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PrStream,
    PrResident,
    PrZeta,
    BatchMixed,
    PointZipf,
    ServeMixed,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::PrStream,
        Workload::PrResident,
        Workload::PrZeta,
        Workload::BatchMixed,
        Workload::PointZipf,
        Workload::ServeMixed,
        Workload::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PrStream => "pr_stream",
            Workload::PrResident => "pr_resident",
            Workload::PrZeta => "pr_zeta",
            Workload::BatchMixed => "batch_mixed",
            Workload::PointZipf => "point_zipf",
            Workload::ServeMixed => "serve_mixed",
            Workload::Ingest => "ingest",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Units of work when no `--seconds` is given: ISSUE 11's fixed
    /// counts (queries, batches, rotations of ten requests per thread,
    /// passes over the four sweep kinds, rounds).
    pub fn default_units(self) -> u64 {
        match self {
            Workload::PrStream => 16,
            Workload::PrResident => 32,
            Workload::PrZeta => 11,
            Workload::BatchMixed => 10,
            Workload::PointZipf => 50,
            Workload::ServeMixed => 6,
            Workload::Ingest => 8,
        }
    }
}

/// When a timed section stops starting new units of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Time-boxed: what the benchmark contract's `--seconds` asks for.
    Seconds(f64),
    /// A fixed count, so exact-count metrics repeat bit for bit.
    Units(u64),
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub limit: Limit,
    pub trace: bool,
    /// Where to write `<workload>.json` and `<workload>.trace.json`.
    pub out: Option<PathBuf>,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Runs one workload end to end.
pub fn run(cfg: &RunConfig) -> Result<Outcome> {
    heap_for_setup();
    let tracer = Tracer::new(cfg.trace);
    let mut out = Outcome::new(cfg.workload.name(), cfg.seed, cfg.scale.name, cfg.trace);
    match cfg.workload {
        Workload::PrStream | Workload::PrResident | Workload::PrZeta => {
            pagerank::run(cfg, &tracer, &mut out)?
        }
        Workload::BatchMixed => batch::run(cfg, &tracer, &mut out)?,
        Workload::PointZipf => point::run(cfg, &tracer, &mut out)?,
        Workload::ServeMixed => serve::run(cfg, &tracer, &mut out)?,
        Workload::Ingest => ingest::run(cfg, &tracer, &mut out)?,
    }
    // A metric a workload forgot would otherwise read as a real 0.
    let unset = out.unset_end_to_end();
    if !unset.is_empty() {
        return Err(GraphError::Format(format!(
            "{}: end-to-end metrics never set: {unset:?}",
            out.workload
        )));
    }
    if let Some((name, v)) = out.values.iter().find(|(_, v)| !v.is_finite()) {
        return Err(GraphError::Format(format!(
            "{}: {name} = {v} is not a number",
            out.workload
        )));
    }
    out.notes.push(
        "reads are served from the OS page cache: latencies are this sandbox's, not a device's"
            .into(),
    );
    out.spans = tracer.totals();
    if let Some(dir) = &cfg.out {
        std::fs::create_dir_all(dir)?;
        let suffix = if cfg.trace { ".traced" } else { "" };
        std::fs::write(
            dir.join(format!("{}{suffix}.json", out.workload)),
            out.to_json(),
        )?;
        if cfg.trace {
            std::fs::write(
                dir.join(format!("{}.trace.json", out.workload)),
                tracer.chrome_json(),
            )?;
        }
    }
    Ok(out)
}

/// Runs `setup` [`SETUP_REPEATS`] times, each from scratch with the
/// previous result dropped first, and returns the last result with the
/// median set-up time in seconds.
fn repeat_setup<T>(tracer: &Tracer, mut setup: impl FnMut() -> Result<T>) -> Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let state = tracer.span("setup", &mut setup)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(state);
    }
    Ok((last.expect("SETUP_REPEATS > 0"), median(&times)))
}

/// Counts units of work against a [`Limit`].
struct Budget {
    limit: Limit,
    start: Instant,
    units: u64,
}

impl Budget {
    fn new(limit: Limit) -> Budget {
        Budget {
            limit,
            start: Instant::now(),
            units: 0,
        }
    }

    /// Whether to start another unit (at least one always runs).
    fn more(&mut self) -> bool {
        let go = match self.limit {
            Limit::Units(n) => self.units < n.max(1),
            Limit::Seconds(s) => self.units == 0 || self.start.elapsed().as_secs_f64() < s,
        };
        self.units += u64::from(go);
        go
    }
}

/// What every timed section yields for the common metrics.
trait Timed {
    /// Edges processed, ingested or delivered in the section (exact).
    fn edges(&self) -> u64;
    /// The wall the edges are divided by, seconds.
    fn wall_s(&self) -> f64;
    /// 10⁶ edges per second of timed wall.
    fn medges_per_s(&self) -> f64 {
        self.edges() as f64 / 1e6 / self.wall_s()
    }
    /// Wall of each unit of work, seconds.
    fn unit_s(&self) -> &[f64];
    fn attempted(&self) -> u64;
    fn failed(&self) -> u64;
}

/// Times the workload's section and fills in the metrics every workload
/// shares. Untraced: one pass, the end-to-end numbers. Traced: a pass with
/// spans off, which is returned for the workload's counters, the same pass
/// with spans on for the spans, and a second pass with spans off. A later
/// pass of a section is up to 4 % slower or faster than the one before it
/// whatever the tracer does, so `trace.overhead_frac` holds the spans-on
/// pass against the mean of its two neighbours.
fn measure<S, T: Timed>(
    cfg: &RunConfig,
    tracer: &Tracer,
    out: &mut Outcome,
    state: &mut S,
    section: impl Fn(&mut S, &Tracer, Limit) -> Result<T>,
) -> Result<T> {
    heap_for_timing();
    if !cfg.trace {
        if !reset_peak_rss() {
            out.notes
                .push("peak RSS could not be reset: peak_rss_mb includes set-up".into());
        }
        let t = section(state, tracer, cfg.limit)?;
        out.set("peak_rss_mb", peak_rss_mb()?);
        out.set("medges_per_s", t.medges_per_s());
        out.set("query_ms_p50", median(t.unit_s()) * 1e3);
        out.attempted += t.attempted();
        out.failed += t.failed();
        out.samples = t.unit_s().len() as u64;
        out.edges = t.edges();
        return Ok(t);
    }
    let off = Tracer::new(false);
    let base = section(state, &off, cfg.limit)?;
    let traced = section(state, tracer, cfg.limit)?;
    let after = section(state, &off, cfg.limit)?;
    let untraced = (base.medges_per_s() + after.medges_per_s()) / 2.0;
    out.set(
        "trace.overhead_frac",
        1.0 - traced.medges_per_s() / untraced,
    );
    out.attempted += base.attempted() + traced.attempted() + after.attempted();
    out.failed += base.failed() + traced.failed() + after.failed();
    out.samples = base.unit_s().len() as u64;
    out.edges = base.edges();
    Ok(base)
}

/// What a section of engine sweeps did to the store and the SCR pool,
/// summed over its `RunStats`.
struct SweepCounters {
    edges: u64,
    bytes_read: u64,
    tiles: u64,
    tiles_from_cache: u64,
    pool_before: PoolStats,
    pool_after: PoolStats,
}

impl SweepCounters {
    fn start(engine: &GStoreEngine) -> SweepCounters {
        SweepCounters {
            edges: 0,
            bytes_read: 0,
            tiles: 0,
            tiles_from_cache: 0,
            pool_before: engine.pool_stats(),
            pool_after: PoolStats::default(),
        }
    }

    /// Ends the section the counters cover.
    fn finish(&mut self, engine: &GStoreEngine) {
        self.pool_after = engine.pool_stats();
    }

    fn add(&mut self, stats: &RunStats) {
        self.edges += stats.edges_processed;
        self.bytes_read += stats.bytes_read;
        self.tiles += stats.tiles_processed;
        self.tiles_from_cache += stats.tiles_from_cache;
    }

    /// The traced run's boundary counters.
    fn report(&self, out: &mut Outcome) {
        out.set(
            "read_bytes_per_edge",
            self.bytes_read as f64 / self.edges as f64,
        );
        out.set(
            "scr.hit_rate",
            self.tiles_from_cache as f64 / self.tiles.max(1) as f64,
        );
        set_pool_delta(out, &self.pool_before, &self.pool_after);
    }
}

/// Evictions and rejections of an SCR pool across a timed section.
fn set_pool_delta(out: &mut Outcome, before: &PoolStats, after: &PoolStats) {
    let evicted = |p: &PoolStats| p.evicted_not_needed + p.evicted_unknown;
    out.set("scr.evicted", (evicted(after) - evicted(before)) as f64);
    out.set("scr.rejected", (after.rejected - before.rejected) as f64);
}

/// Send-to-reply percentiles of a section's point requests; p99 only where
/// the sample supports it (ten requests beyond it).
fn set_point_percentiles(out: &mut Outcome, request_s: &[f64]) {
    let mut us: Vec<f64> = request_s.iter().map(|s| s * 1e6).collect();
    us.sort_by(f64::total_cmp);
    out.set("point_us_p50", quantile(&us, 0.50));
    out.set("point_us_p90", quantile(&us, 0.90));
    if us.len() >= 1000 {
        out.set("point_us_p99", quantile(&us, 0.99));
    }
}

/// PageRank agreement with the CSR reference, the repo's 1e-9 invariant.
fn ranks_match(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.default_units() > 0);
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn budget_honours_both_limits() {
        let mut b = Budget::new(Limit::Units(3));
        assert_eq!((0..10).filter(|_| b.more()).count(), 3);
        let mut b = Budget::new(Limit::Seconds(0.0));
        assert!(b.more(), "one unit always runs");
        assert!(!b.more());
    }

    #[test]
    fn setup_repeats_and_reports_a_median() {
        let mut calls = 0;
        let (last, s) = repeat_setup(&Tracer::new(false), || {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        assert_eq!((calls, last), (SETUP_REPEATS, SETUP_REPEATS));
        assert!(s >= 0.0);
    }
}
