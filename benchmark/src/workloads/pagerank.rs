//! `pr_stream`, `pr_resident`, `pr_zeta`: PageRank queries through
//! `engine.run` on the Kronecker store.
//!
//! * `pr_stream` — raw store, memory budget data/4: every iteration
//!   re-reads most of the store, so the io engine, slide pipeline, cache
//!   insert and compute are all busy. An I/O-path change shows here.
//! * `pr_resident` — same store and queries, pool of twice the data:
//!   after warm-up nothing is read, only rewind + decode + compute run.
//!   An I/O change must not move it. With `pr_stream` this is the
//!   cache-fits / cache-does-not-fit pair.
//! * `pr_zeta` — ζ3-coded store under the streaming budget: 3× fewer
//!   bytes on disk, and bit decode dominates the wall.

use super::{measure, ranks_match, repeat_setup, Budget, Limit, RunConfig};
use super::{SweepCounters, Timed, Workload};
use crate::data::{
    build_dataset, disk_bytes, engine_on, resident_scr, stream_scr, GraphShape, WorkDir,
};
use crate::layers::{self, LayerInputs};
use crate::report::Outcome;
use crate::trace::Tracer;
use gstore_core::{GStoreEngine, PageRank};
use gstore_graph::{reference, Result};
use gstore_scr::ScrConfig;
use gstore_tile::{recode_store_files, Codec, TilePaths, Tiling};

pub const DAMPING: f64 = 0.85;

struct State {
    engine: GStoreEngine,
    tiling: Tiling,
    degrees: Vec<u64>,
    iters: u32,
    /// CSR-reference ranks every query is held against.
    want: Vec<f64>,
}

struct PrTimed {
    unit_s: Vec<f64>,
    counters: SweepCounters,
    failed: u64,
}

impl Timed for PrTimed {
    fn edges(&self) -> u64 {
        self.counters.edges
    }
    fn wall_s(&self) -> f64 {
        self.unit_s.iter().sum()
    }
    fn unit_s(&self) -> &[f64] {
        &self.unit_s
    }
    fn attempted(&self) -> u64 {
        self.unit_s.len() as u64
    }
    fn failed(&self) -> u64 {
        self.failed
    }
}

/// One PageRank query; returns its stats, wall and whether it matched.
fn query(s: &mut State, tracer: &Tracer) -> Result<(gstore_core::RunStats, f64, bool)> {
    let mut pr = PageRank::new(s.tiling, s.degrees.clone(), DAMPING).with_iterations(s.iters);
    let t = std::time::Instant::now();
    let stats = tracer.span("query", || {
        tracer.span("core.engine_run", || s.engine.run(&mut pr, s.iters))
    })?;
    let wall = t.elapsed().as_secs_f64();
    Ok((stats, wall, ranks_match(pr.ranks(), &s.want)))
}

fn section(s: &mut State, tracer: &Tracer, limit: Limit) -> Result<PrTimed> {
    let mut out = PrTimed {
        unit_s: Vec::new(),
        counters: SweepCounters::start(&s.engine),
        failed: 0,
    };
    let mut budget = Budget::new(limit);
    while budget.more() {
        let (stats, wall, ok) = query(s, tracer)?;
        out.unit_s.push(wall);
        out.counters.add(&stats);
        out.failed += u64::from(!ok);
    }
    out.counters.finish(&s.engine);
    Ok(out)
}

pub fn run(cfg: &RunConfig, tracer: &Tracer, out: &mut Outcome) -> Result<()> {
    let (iters, zeta) = match cfg.workload {
        Workload::PrZeta => (2, true),
        _ => (5, false),
    };
    let policy = |data_bytes: u64| -> Result<ScrConfig> {
        match cfg.workload {
            Workload::PrResident => resident_scr(data_bytes),
            _ => stream_scr(data_bytes),
        }
    };

    let ((mut state, data, paths, dir), setup_s) = repeat_setup(tracer, || {
        let dir = WorkDir::new(cfg.workload.name())?;
        let data = build_dataset(GraphShape::Kron, &cfg.scale, cfg.seed, dir.path(), tracer)?;
        let paths: TilePaths = if zeta {
            tracer
                .span("tile.recode", || {
                    recode_store_files(&data.paths, dir.path(), "gz", Codec::ZetaGap)
                })?
                .0
        } else {
            data.paths.clone()
        };
        // Budgets follow the raw store's size on all three, so pr_zeta
        // runs under the same bytes of memory as pr_stream.
        let engine = tracer.span("core.engine_build", || {
            engine_on(&paths, policy(data.data_bytes())?, 0)
        })?;
        let mut state = State {
            tiling: *engine.index().layout.tiling(),
            engine,
            degrees: data.degrees.clone(),
            iters,
            want: Vec::new(),
        };
        // Warm-up: fills the SCR pool and the buffer pool.
        tracer.span("warmup", || query(&mut state, &Tracer::new(false)))?;
        Ok((state, data, paths, dir))
    })?;
    out.set("setup_s", setup_s);
    out.set(
        "disk_bytes_per_edge",
        disk_bytes(&paths)? as f64 / data.edges() as f64,
    );
    let io_backend = state.engine.io_backend();
    out.env.io_engine = io_backend.as_str();

    // Correctness gate: the first query against the CSR reference.
    state.want = reference::pagerank(&data.csr(), iters as usize, DAMPING);
    let (_, _, first_ok) = query(&mut state, &Tracer::new(false))?;
    out.attempted += 1;
    if !first_ok {
        out.failed += 1;
        out.notes
            .push("first PageRank query disagrees with the CSR reference".into());
    }

    let scr = policy(data.data_bytes())?;
    // Untraced runs drop the inputs so peak RSS is the engine's, not the
    // generator's; traced runs keep them for the layer replays.
    let inputs = cfg
        .trace
        .then(|| LayerInputs::new(cfg, data, paths.clone(), scr, 0, io_backend));

    let t = measure(cfg, tracer, out, &mut state, section)?;

    if cfg.trace {
        t.counters.report(out);
        layers::replay_all(&inputs.expect("kept for traced runs"), tracer, out)?;
    }
    let sweeps = t.unit_s.len() as u64 * u64::from(iters);
    out.notes.push(format!(
        "unit = one PageRank query of {iters} iterations; n = {} queries, {} B read in the timed \
         section: {:.1} % of the store per iteration",
        t.unit_s.len(),
        t.counters.bytes_read,
        t.counters.bytes_read as f64 * 100.0 / (sweeps * state.engine.index().data_bytes()) as f64
    ));
    drop(dir);
    Ok(())
}
