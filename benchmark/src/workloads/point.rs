//! `point_zipf`: the OLTP path with no sweep and no wire — one
//! `PointReader` shared by the client threads in a closed loop, keys drawn
//! Zipf(1.0), on the Twitter-shaped store. Hub-row tile scans dominate the
//! tail.
//!
//! The hot-tile cache holds the whole store. At half the data it sat on the
//! admission threshold of the 4 MB hub tile: seeds that cached it decode it
//! under the reader's lock (80 ms a rotation), seeds that did not re-fetch
//! it outside the lock (47 ms), and the workload measured that coin.

use super::{measure, repeat_setup, set_point_percentiles, Budget, Limit, RunConfig, Timed};
use crate::data::{
    build_dataset, disk_bytes, engine_on, hub_tile_share, stream_scr, GraphShape, PointKind, Rng,
    WorkDir, ZipfKeys, WALK_LEN,
};
use crate::layers::{self, LayerInputs};
use crate::report::Outcome;
use crate::trace::Tracer;
use gstore_core::{GStoreEngine, PointReader, QueryValue};
use gstore_graph::{Csr, Result, VertexId};
use gstore_tile::{TileIndex, Tiling};
use std::time::Instant;

/// Client threads: `nproc`, capped so a many-core host still measures the
/// reader and not its mutex.
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Point reads checked in full against the CSR before the timed section.
const SAMPLED_CHECKS: usize = 64;
const WARMUP_ROTATIONS: u64 = 6;

/// One direct point read, in the wire's result type (lists unsorted).
/// `walk_seed` differs per request: with one fixed seed every key has one
/// path per graph, and whether the hottest key's path crossed the hub rows
/// or died at a sink decided the whole run's latency.
pub fn direct(
    reader: &PointReader,
    kind: PointKind,
    v: VertexId,
    walk_seed: u64,
) -> Result<QueryValue> {
    Ok(match kind {
        PointKind::Neighbors => QueryValue::Neighbors(reader.neighbors(v)?),
        PointKind::Degree => QueryValue::Degree(reader.degree(v)?),
        PointKind::Khop1 => QueryValue::Khop(reader.khop(v, 1)?),
        PointKind::Walk16 => QueryValue::Walk(reader.walk(v, WALK_LEN, walk_seed)?),
    })
}

/// Checks a point result against the degree oracle — cheap enough to run
/// on every request.
pub fn check_point(kind: PointKind, v: VertexId, value: &QueryValue, degrees: &[u64]) -> bool {
    let deg = degrees[v as usize];
    match (kind, value) {
        (PointKind::Neighbors, QueryValue::Neighbors(ns)) => ns.len() as u64 == deg,
        (PointKind::Degree, QueryValue::Degree(d)) => *d == deg,
        (PointKind::Khop1, QueryValue::Khop(vs)) => vs.contains(&v) && vs.len() as u64 <= deg + 1,
        (PointKind::Walk16, QueryValue::Walk(path)) => {
            path.first() == Some(&v)
                && path.len() <= WALK_LEN as usize + 1
                && (deg == 0) == (path.len() == 1)
        }
        _ => false,
    }
}

/// Stored edges in the tiles a point read of a vertex decodes: its grid
/// row, plus its column above the diagonal on a symmetric store.
pub struct RowEdges {
    tiling: Tiling,
    per_partition: Vec<u64>,
}

impl RowEdges {
    pub fn new(index: &TileIndex) -> RowEdges {
        let layout = &index.layout;
        let tiling = *layout.tiling();
        let per_partition = (0..tiling.partitions())
            .map(|p| {
                let tiles = if tiling.symmetric() {
                    layout.touching_tile_indices(p)
                } else {
                    layout.row_tile_indices(p)
                };
                tiles
                    .iter()
                    .map(|&t| index.start_edge[t as usize + 1] - index.start_edge[t as usize])
                    .sum()
            })
            .collect();
        RowEdges {
            tiling,
            per_partition,
        }
    }

    fn of(&self, v: VertexId) -> u64 {
        self.per_partition[self.tiling.partition_of(v) as usize]
    }

    /// Stored edges a request decoded — the point path's
    /// `RunStats::edges_processed`. Single-vertex reads and `khop:v:1` scan
    /// one row; a walk scans the row of every vertex it stood on.
    pub fn scanned(&self, v: VertexId, value: &QueryValue) -> u64 {
        match value {
            QueryValue::Walk(path) => path
                .iter()
                .take(WALK_LEN as usize)
                .map(|&u| self.of(u))
                .sum(),
            _ => self.of(v),
        }
    }
}

/// The full check: neighbours of the most popular keys equal the CSR's.
pub fn sampled_mismatches(
    keys: &ZipfKeys,
    n: usize,
    csr: &Csr,
    mut neighbors: impl FnMut(VertexId) -> Result<Vec<VertexId>>,
) -> Result<u64> {
    let mut wrong = 0;
    for &v in keys.head(n) {
        let mut got = neighbors(v)?;
        got.sort_unstable();
        let mut want = csr.neighbors(v).to_vec();
        want.sort_unstable();
        wrong += u64::from(got != want);
    }
    Ok(wrong)
}

pub fn span_name(kind: PointKind) -> &'static str {
    match kind {
        PointKind::Neighbors => "core.point.neighbors",
        PointKind::Degree => "core.point.degree",
        PointKind::Khop1 => "core.point.khop1",
        PointKind::Walk16 => "core.point.walk16",
    }
}

/// What the client threads share.
struct Shared {
    reader: PointReader,
    keys: ZipfKeys,
    degrees: Vec<u64>,
    rows: RowEdges,
    seed: u64,
}

struct State {
    /// The reader was made by this engine; it stays alive beside it.
    engine: GStoreEngine,
    shared: Shared,
}

/// Requests in one pass of the rotation — the unit of work. A single
/// request's median sits on the cliff between a cached row and a fetched
/// one and wanders with the hit rate; ten requests sum over both modes.
const ROTATION: usize = 10;

struct PointTimed {
    /// Wall of every rotation, seconds.
    unit_s: Vec<f64>,
    /// Every request's latency, seconds.
    request_s: Vec<f64>,
    wall_s: f64,
    scanned: u64,
    failed: u64,
}

impl Timed for PointTimed {
    fn edges(&self) -> u64 {
        self.scanned
    }
    fn wall_s(&self) -> f64 {
        self.wall_s
    }
    fn unit_s(&self) -> &[f64] {
        &self.unit_s
    }
    fn attempted(&self) -> u64 {
        self.request_s.len() as u64
    }
    fn failed(&self) -> u64 {
        self.failed
    }
}

/// What one client's closed loop saw.
#[derive(Default)]
struct Seen {
    rotation_s: Vec<f64>,
    request_s: Vec<f64>,
    scanned: u64,
    failed: u64,
}

/// One client's closed loop; `limit` counts rotations.
fn client(s: &Shared, id: usize, tracer: &Tracer, limit: Limit) -> Seen {
    let mut rng = Rng::new(s.seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9));
    let mut seen = Seen::default();
    let mut budget = Budget::new(limit);
    while budget.more() {
        let rotation = Instant::now();
        tracer.span("rotation", || {
            for i in 0..ROTATION {
                let kind = PointKind::rotation(i);
                let v = s.keys.sample(&mut rng);
                let walk_seed = rng.next_u64();
                let t = Instant::now();
                let result = tracer.span(span_name(kind), || direct(&s.reader, kind, v, walk_seed));
                seen.request_s.push(t.elapsed().as_secs_f64());
                match result {
                    Ok(value) => {
                        seen.scanned += s.rows.scanned(v, &value);
                        seen.failed += u64::from(!check_point(kind, v, &value, &s.degrees));
                    }
                    Err(_) => seen.failed += 1,
                }
            }
        });
        seen.rotation_s.push(rotation.elapsed().as_secs_f64());
    }
    seen
}

fn section(s: &mut State, tracer: &Tracer, limit: Limit) -> Result<PointTimed> {
    let s = &s.shared;
    let start = Instant::now();
    let per_client: Vec<Seen> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..client_threads())
            .map(|id| scope.spawn(move || client(s, id, tracer, limit)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = PointTimed {
        unit_s: Vec::new(),
        request_s: Vec::new(),
        wall_s: start.elapsed().as_secs_f64(),
        scanned: 0,
        failed: 0,
    };
    for seen in per_client {
        out.unit_s.extend(seen.rotation_s);
        out.request_s.extend(seen.request_s);
        out.scanned += seen.scanned;
        out.failed += seen.failed;
    }
    Ok(out)
}

pub fn run(cfg: &RunConfig, tracer: &Tracer, out: &mut Outcome) -> Result<()> {
    let ((mut state, data, dir), setup_s) = repeat_setup(tracer, || {
        let dir = WorkDir::new("point_zipf")?;
        let data = build_dataset(
            GraphShape::Twitter,
            &cfg.scale,
            cfg.seed,
            dir.path(),
            tracer,
        )?;
        let engine = tracer.span("core.engine_build", || {
            engine_on(
                &data.paths,
                stream_scr(data.data_bytes())?,
                data.data_bytes(),
            )
        })?;
        let state = State {
            shared: Shared {
                reader: engine.point_reader(),
                keys: ZipfKeys::new(data.el.vertex_count()),
                degrees: data.degrees.clone(),
                rows: RowEdges::new(engine.index()),
                seed: cfg.seed,
            },
            engine,
        };
        tracer.span("warmup", || {
            client(
                &state.shared,
                client_threads(),
                &Tracer::new(false),
                Limit::Units(WARMUP_ROTATIONS),
            )
        });
        Ok((state, data, dir))
    })?;
    out.set("setup_s", setup_s);
    out.set(
        "disk_bytes_per_edge",
        disk_bytes(&data.paths)? as f64 / data.edges() as f64,
    );

    let io_backend = state.engine.io_backend();
    out.env.io_engine = io_backend.as_str();

    let shared = &state.shared;
    out.attempted += shared.keys.head(SAMPLED_CHECKS).len() as u64;
    out.failed += sampled_mismatches(&shared.keys, SAMPLED_CHECKS, &data.csr(), |v| {
        shared.reader.neighbors(v)
    })?;

    let scr = stream_scr(data.data_bytes())?;
    let paths = data.paths.clone();
    let cache = data.data_bytes();
    let inputs = cfg
        .trace
        .then(|| LayerInputs::new(cfg, data, paths, scr, cache, io_backend));

    let t = measure(cfg, tracer, out, &mut state, section)?;

    if cfg.trace {
        set_point_percentiles(out, &t.request_s);
        layers::replay_all(&inputs.expect("kept for traced runs"), tracer, out)?;
    }
    out.notes.push(format!(
        "unit = one rotation of {ROTATION} point requests (4 neighbors, 4 degree, 1 khop:v:1, \
         1 walk:v:16); closed loop, {} client threads, n = {} rotations, {} requests; the hub \
         tile holds {:.1} % of the edges",
        client_threads(),
        t.unit_s.len(),
        t.request_s.len(),
        hub_tile_share(state.engine.index()) * 100.0
    ));
    drop(dir);
    Ok(())
}
