//! `serve_mixed`: what a daemon user sees — point latency while sweeps
//! run, and sweep throughput — on the Kronecker store behind
//! `gstore_server::serve` on loopback with default `ServeOptions`.
//!
//! Two bundled `Client` connections: **S** sends a fixed rotation of sweep
//! specs in a closed loop; **P** sends point specs (the Zipf table and the
//! 4:4:1:1 rotation of `point_zipf`) in a closed loop with a 10 ms pacing
//! floor between sends, until S finishes. The floor stops a faster server
//! from being punished with more load. The sweep loop, two connection
//! threads and rayon share the cores, so freeing CPU in one class can
//! speed the other.

use super::point::{check_point, sampled_mismatches};
use super::{measure, repeat_setup, set_point_percentiles, set_pool_delta, Budget, Limit};
use super::{RunConfig, Timed};
use crate::data::{
    build_dataset, disk_bytes, engine_on, stream_scr, GraphShape, PointKind, Rng, WorkDir, ZipfKeys,
};
use crate::layers::{self, LayerInputs};
use crate::report::Outcome;
use crate::trace::Tracer;
use gstore_core::{QuerySpec, QueryValue, SweepQuery};
use gstore_graph::{GraphError, Result, VertexId};
use gstore_io::IoBackend;
use gstore_scr::PoolStats;
use gstore_server::{serve, Client, Reply, ServeOptions, ServerHandle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Pacing floor between two sends of connection P (≤ 100 requests/s).
const POINT_PACING: Duration = Duration::from_millis(10);
const BFS_ROOTS: usize = 6;
/// `bfs:<root>`, `pagerank:5`, `wcc`, `kcore:3`: one pass of connection S.
const SWEEP_KINDS: usize = 4;
/// Served neighbour lists checked in full against the CSR. Fewer than on
/// `point_zipf`: each costs a wire round trip.
const SAMPLED_CHECKS: usize = 16;
/// Sweeps hold a query to this many iterations, as `ServeOptions` does.
const MAX_ITERS: u32 = 10_000;

struct SweepCase {
    spec: String,
    /// Solo-engine result and edges processed, filled in after set-up.
    want: Option<QueryValue>,
    edges: u64,
}

struct State {
    handle: Option<ServerHandle>,
    /// What the daemon's engine reported before it was handed over.
    io_backend: IoBackend,
    sweep_client: Client,
    point_client: Client,
    sweeps: Vec<SweepCase>,
    keys: ZipfKeys,
    degrees: Vec<u64>,
    seed: u64,
}

impl State {
    /// Stops the daemon and returns its SCR pool counters.
    fn shutdown(&mut self) -> Option<PoolStats> {
        self.handle.take().map(|h| h.shutdown().pool_stats())
    }
}

impl Drop for State {
    fn drop(&mut self) {
        // A dropped handle would leave the daemon's threads running.
        self.shutdown();
    }
}

struct ServeTimed {
    /// Point-request latencies of connection P, seconds.
    unit_s: Vec<f64>,
    sweep_s: Vec<f64>,
    /// Wall of connection S.
    sweep_wall_s: f64,
    sweep_edges: u64,
    busy: u64,
    err: u64,
    failed: u64,
}

impl Timed for ServeTimed {
    fn edges(&self) -> u64 {
        self.sweep_edges
    }
    fn wall_s(&self) -> f64 {
        self.sweep_wall_s
    }
    fn unit_s(&self) -> &[f64] {
        &self.unit_s
    }
    fn attempted(&self) -> u64 {
        (self.unit_s.len() + self.sweep_s.len()) as u64
    }
    fn failed(&self) -> u64 {
        self.failed
    }
}

/// What one connection's loop saw.
#[derive(Default)]
struct Seen {
    latency_s: Vec<f64>,
    edges: u64,
    busy: u64,
    err: u64,
    failed: u64,
}

impl Seen {
    /// Files a reply; `check` judges an `OK` value and returns the edges
    /// it stands for.
    fn file(
        &mut self,
        reply: std::io::Result<Reply>,
        check: impl FnOnce(&QueryValue) -> (bool, u64),
    ) {
        match reply {
            Ok(Reply::Value(v)) => {
                let (ok, edges) = check(&v);
                self.edges += edges;
                self.failed += u64::from(!ok);
            }
            Ok(Reply::Busy) => {
                self.busy += 1;
                self.failed += 1;
            }
            Ok(Reply::Error { .. }) => {
                self.err += 1;
                self.failed += 1;
            }
            Err(_) => self.failed += 1,
        }
    }
}

/// Connection S. `limit` counts passes over the four sweep kinds, so a
/// time-boxed run never ends mid-rotation with a throughput biased towards
/// whichever kinds it happened to finish.
fn sweep_loop(client: &mut Client, sweeps: &[SweepCase], tracer: &Tracer, limit: Limit) -> Seen {
    let mut seen = Seen::default();
    let mut budget = Budget::new(limit);
    let mut i = 0;
    while budget.more() {
        for _ in 0..SWEEP_KINDS {
            let case = &sweeps[i % sweeps.len()];
            i += 1;
            let t = Instant::now();
            let reply = tracer.span("sweep_request", || {
                tracer.span("server.client_query", || client.query(&case.spec))
            });
            seen.latency_s.push(t.elapsed().as_secs_f64());
            seen.file(reply, |v| {
                // PageRank agrees with a solo run to 1e-9 (accumulation
                // order follows the cache state); every other reply is
                // byte-equal.
                let ok = case.want.as_ref().is_none_or(|want| {
                    v.approx_eq(want, 1e-9)
                        && (matches!(v, QueryValue::PageRank { .. }) || v.encode() == want.encode())
                });
                (ok, case.edges)
            });
        }
    }
    seen
}

fn point_loop(
    client: &mut Client,
    keys: &ZipfKeys,
    degrees: &[u64],
    seed: u64,
    tracer: &Tracer,
    sweeps_done: &AtomicBool,
) -> Seen {
    let mut seen = Seen::default();
    let mut rng = Rng::new(seed ^ 0x7065_6572);
    let mut i = 0;
    loop {
        let kind = PointKind::rotation(i);
        let v = keys.sample(&mut rng);
        i += 1;
        let spec = kind.spec(v);
        let t = Instant::now();
        let reply = tracer.span("point_request", || {
            tracer.span("server.client_query", || client.query(&spec))
        });
        seen.latency_s.push(t.elapsed().as_secs_f64());
        seen.file(reply, |value| (check_point(kind, v, value, degrees), 0));
        if sweeps_done.load(Ordering::Acquire) {
            return seen;
        }
        std::thread::sleep(POINT_PACING.saturating_sub(t.elapsed()));
    }
}

fn section(s: &mut State, tracer: &Tracer, limit: Limit) -> Result<ServeTimed> {
    let State {
        sweep_client,
        point_client,
        sweeps,
        keys,
        degrees,
        seed,
        ..
    } = s;
    let sweeps_done = AtomicBool::new(false);
    let (sweeps, points, sweep_wall_s) = std::thread::scope(|scope| {
        let point_thread =
            scope.spawn(|| point_loop(point_client, keys, degrees, *seed, tracer, &sweeps_done));
        let start = Instant::now();
        let sweeps = sweep_loop(sweep_client, sweeps, tracer, limit);
        let wall = start.elapsed().as_secs_f64();
        // Release pairs with the Acquire load in `point_loop`.
        sweeps_done.store(true, Ordering::Release);
        let points = point_thread.join().expect("point client panicked");
        (sweeps, points, wall)
    });
    Ok(ServeTimed {
        unit_s: points.latency_s,
        sweep_s: sweeps.latency_s,
        sweep_wall_s,
        sweep_edges: sweeps.edges,
        busy: sweeps.busy + points.busy,
        err: sweeps.err + points.err,
        failed: sweeps.failed + points.failed,
    })
}

pub fn run(cfg: &RunConfig, tracer: &Tracer, out: &mut Outcome) -> Result<()> {
    let ((mut state, data, dir), setup_s) = repeat_setup(tracer, || {
        let dir = WorkDir::new("serve_mixed")?;
        let data = build_dataset(GraphShape::Kron, &cfg.scale, cfg.seed, dir.path(), tracer)?;
        let engine = tracer.span("core.engine_build", || {
            engine_on(
                &data.paths,
                stream_scr(data.data_bytes())?,
                data.data_bytes(),
            )
        })?;
        let io_backend = engine.io_backend();
        let handle = tracer.span("server.serve", || serve(engine, ServeOptions::default()))?;
        let addr = handle.local_addr().to_string();
        let roots = data.bfs_roots(BFS_ROOTS, cfg.seed);
        let sweeps = roots
            .iter()
            .flat_map(|r| {
                [
                    format!("bfs:{r}"),
                    "pagerank:5".into(),
                    "wcc".into(),
                    "kcore:3".into(),
                ]
            })
            .map(|spec| SweepCase {
                spec,
                want: None,
                edges: 0,
            })
            .collect();
        let mut state = State {
            handle: Some(handle),
            io_backend,
            sweep_client: Client::connect(&addr).map_err(GraphError::Io)?,
            point_client: Client::connect(&addr).map_err(GraphError::Io)?,
            sweeps,
            keys: ZipfKeys::new(data.el.vertex_count()),
            degrees: data.degrees.clone(),
            seed: cfg.seed,
        };
        tracer.span("warmup", || -> Result<()> {
            state
                .sweep_client
                .query("degrees")
                .map_err(GraphError::Io)?;
            for &v in state.keys.head(4) {
                state
                    .point_client
                    .query(&PointKind::Degree.spec(v))
                    .map_err(GraphError::Io)?;
            }
            Ok(())
        })?;
        Ok((state, data, dir))
    })?;
    out.set("setup_s", setup_s);
    out.env.io_engine = state.io_backend.as_str();
    out.set(
        "disk_bytes_per_edge",
        disk_bytes(&data.paths)? as f64 / data.edges() as f64,
    );

    // Oracles: every distinct sweep on a solo engine of the same
    // configuration; served neighbour lists against the CSR.
    let mut solo = engine_on(&data.paths, stream_scr(data.data_bytes())?, 0)?;
    let tiling = *solo.index().layout.tiling();
    let mut known: Vec<(String, QueryValue, u64)> = Vec::new();
    for case in &mut state.sweeps {
        if !known.iter().any(|(spec, ..)| *spec == case.spec) {
            let spec: QuerySpec = case.spec.parse()?;
            let mut query = SweepQuery::new(&spec, tiling, Some(&data.degrees))?;
            let stats = solo.run(query.algorithm_mut(), MAX_ITERS)?;
            known.push((case.spec.clone(), query.result(), stats.edges_processed));
        }
        let (_, want, edges) = known
            .iter()
            .find(|(spec, ..)| *spec == case.spec)
            .expect("just computed");
        case.want = Some(want.clone());
        case.edges = *edges;
    }
    drop(solo);
    let point_client = &mut state.point_client;
    out.attempted += state.keys.head(SAMPLED_CHECKS).len() as u64;
    out.failed += sampled_mismatches(&state.keys, SAMPLED_CHECKS, &data.csr(), |v: VertexId| {
        match point_client.query(&PointKind::Neighbors.spec(v)) {
            Ok(Reply::Value(QueryValue::Neighbors(ns))) => Ok(ns),
            other => Err(GraphError::Format(format!(
                "neighbors:{v} was answered with {other:?}"
            ))),
        }
    })?;

    let scr = stream_scr(data.data_bytes())?;
    let paths = data.paths.clone();
    let (cache, io_backend) = (data.data_bytes(), state.io_backend);
    let inputs = cfg
        .trace
        .then(|| LayerInputs::new(cfg, data, paths, scr, cache, io_backend));

    let t = measure(cfg, tracer, out, &mut state, section)?;
    let pool = state.shutdown().expect("daemon ran until now");

    if cfg.trace {
        set_point_percentiles(out, &t.unit_s);
        out.set("sweep_qps", t.sweep_s.len() as f64 / t.sweep_wall_s);
        out.set("server.busy", t.busy as f64);
        out.set("server.err", t.err as f64);
        set_pool_delta(out, &PoolStats::default(), &pool);
        layers::replay_all(&inputs.expect("kept for traced runs"), tracer, out)?;
    }
    out.notes.push(format!(
        "unit = one point request on connection P (closed loop, 10 ms pacing floor); \
         n = {} point requests beside {} sweeps on connection S (closed loop)",
        t.unit_s.len(),
        t.sweep_s.len()
    ));
    drop(dir);
    Ok(())
}
