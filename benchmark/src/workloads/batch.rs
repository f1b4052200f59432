//! `batch_mixed`: one `QueryBatch` of eight mixed queries per unit through
//! `run_batch` on the Twitter-shaped store.
//!
//! Uses the same layers as the PageRank sweeps differently: selective I/O
//! on a union frontier (many short runs instead of one sequential sweep),
//! the atomic CAS path beside the sharded one, shared-scan dispatch, and
//! a hub tile that unbalances the shards.

use super::pagerank::DAMPING;
use super::{measure, ranks_match, repeat_setup, Budget, Limit, RunConfig};
use super::{SweepCounters, Timed};
use crate::data::{
    build_dataset, disk_bytes, engine_on, hub_tile_share, stream_scr, GraphShape, WorkDir,
};
use crate::layers::{self, LayerInputs};
use crate::report::{median, Outcome};
use crate::trace::Tracer;
use gstore_core::algorithms::kcore::kcore_reference;
use gstore_core::{Bfs, DegreeCount, GStoreEngine, KCore, PageRank, QueryBatch, Wcc};
use gstore_graph::{reference, Result, VertexId};
use gstore_tile::Tiling;

const BFS_QUERIES: usize = 4;
const KCORE_K: u64 = 3;
const PR_ITERS: u32 = 5;
/// 4 × BFS, `wcc`, `kcore:3`, `pagerank:5`, `degrees`.
const QUERIES_PER_BATCH: u64 = BFS_QUERIES as u64 + 4;

struct Oracle {
    bfs_depths: Vec<Vec<u32>>,
    components: usize,
    core_members: usize,
    ranks: Vec<f64>,
}

struct State {
    engine: GStoreEngine,
    tiling: Tiling,
    roots: Vec<VertexId>,
    degrees: Vec<u64>,
    /// `None` during warm-up, when results are not checked.
    oracle: Option<Oracle>,
}

struct BatchTimed {
    unit_s: Vec<f64>,
    counters: SweepCounters,
    failed: u64,
    amortization: Vec<f64>,
    sweeps: Vec<f64>,
}

impl Timed for BatchTimed {
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
        self.unit_s.len() as u64 * QUERIES_PER_BATCH
    }
    fn failed(&self) -> u64 {
        self.failed
    }
}

/// One batch; returns the shared-scan stats, its wall and how many of the
/// eight results disagreed with their oracle.
fn batch(s: &mut State, tracer: &Tracer) -> Result<(gstore_core::BatchRunStats, f64, u64)> {
    let mut bfs: Vec<Bfs> = s.roots.iter().map(|&r| Bfs::new(s.tiling, r)).collect();
    let mut wcc = Wcc::new(s.tiling);
    let mut kcore = KCore::new(s.tiling, KCORE_K);
    let mut pr = PageRank::new(s.tiling, s.degrees.clone(), DAMPING).with_iterations(PR_ITERS);
    let mut dc = DegreeCount::new(s.tiling);
    let t = std::time::Instant::now();
    let stats = tracer.span("batch", || {
        let mut batch = QueryBatch::new();
        for b in &mut bfs {
            batch.push(b)?;
        }
        batch.push(&mut wcc)?;
        batch.push(&mut kcore)?;
        batch.push(&mut pr)?;
        batch.push(&mut dc)?;
        tracer.span("core.run_batch", || {
            s.engine.run_batch(&mut batch, u32::MAX)
        })
    })?;
    let wall = t.elapsed().as_secs_f64();
    let wrong = match &s.oracle {
        None => 0,
        Some(o) => {
            let bfs_wrong = bfs
                .iter()
                .zip(&o.bfs_depths)
                .filter(|(b, want)| b.depths() != **want)
                .count() as u64;
            bfs_wrong
                + u64::from(wcc.component_count() != o.components)
                + u64::from(kcore.core_members().len() != o.core_members)
                + u64::from(!ranks_match(pr.ranks(), &o.ranks))
                + u64::from(dc.degrees() != s.degrees)
                + u64::from(!stats.all_converged())
        }
    };
    Ok((stats, wall, wrong.min(QUERIES_PER_BATCH)))
}

fn section(s: &mut State, tracer: &Tracer, limit: Limit) -> Result<BatchTimed> {
    let mut out = BatchTimed {
        unit_s: Vec::new(),
        counters: SweepCounters::start(&s.engine),
        failed: 0,
        amortization: Vec::new(),
        sweeps: Vec::new(),
    };
    let mut budget = Budget::new(limit);
    while budget.more() {
        let (stats, wall, wrong) = batch(s, tracer)?;
        out.unit_s.push(wall);
        out.counters.add(&stats.aggregate);
        out.failed += wrong;
        out.amortization.push(stats.read_amortization());
        out.sweeps.push(stats.sweeps as f64);
    }
    out.counters.finish(&s.engine);
    Ok(out)
}

pub fn run(cfg: &RunConfig, tracer: &Tracer, out: &mut Outcome) -> Result<()> {
    let ((mut state, data, dir), setup_s) = repeat_setup(tracer, || {
        let dir = WorkDir::new("batch_mixed")?;
        let data = build_dataset(
            GraphShape::Twitter,
            &cfg.scale,
            cfg.seed,
            dir.path(),
            tracer,
        )?;
        let engine = tracer.span("core.engine_build", || {
            engine_on(&data.paths, stream_scr(data.data_bytes())?, 0)
        })?;
        let mut state = State {
            tiling: *engine.index().layout.tiling(),
            engine,
            roots: data.bfs_roots(BFS_QUERIES, cfg.seed),
            degrees: data.degrees.clone(),
            oracle: None,
        };
        tracer.span("warmup", || batch(&mut state, &Tracer::new(false)))?;
        Ok((state, data, dir))
    })?;
    out.set("setup_s", setup_s);
    out.set(
        "disk_bytes_per_edge",
        disk_bytes(&data.paths)? as f64 / data.edges() as f64,
    );

    let io_backend = state.engine.io_backend();
    out.env.io_engine = io_backend.as_str();

    let csr = data.csr();
    state.oracle = Some(Oracle {
        bfs_depths: state
            .roots
            .iter()
            .map(|&r| reference::bfs_levels(&csr, r))
            .collect(),
        components: reference::component_count(&reference::wcc_labels(&data.el)),
        core_members: kcore_reference(&data.el, KCORE_K)
            .iter()
            .filter(|&&alive| alive)
            .count(),
        ranks: reference::pagerank(&csr, PR_ITERS as usize, DAMPING),
    });
    drop(csr);

    let scr = stream_scr(data.data_bytes())?;
    let paths = data.paths.clone();
    let inputs = cfg
        .trace
        .then(|| LayerInputs::new(cfg, data, paths, scr, 0, io_backend));

    let t = measure(cfg, tracer, out, &mut state, section)?;

    if cfg.trace {
        t.counters.report(out);
        out.set("core.batch_amortization", median(&t.amortization));
        out.set("core.batch_sweeps", median(&t.sweeps));
        layers::replay_all(&inputs.expect("kept for traced runs"), tracer, out)?;
    }
    out.notes.push(format!(
        "unit = one batch of {QUERIES_PER_BATCH} queries; n = {} batches; the hub tile holds \
         {:.1} % of the edges",
        t.unit_s.len(),
        hub_tile_share(state.engine.index()) * 100.0
    ));
    drop(dir);
    Ok(())
}
