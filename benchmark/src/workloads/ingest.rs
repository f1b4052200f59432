//! `ingest`: writes beside reads — rounds of `convert_streaming` on a
//! binary edge file, then `recode_store_files` to ζ3, then deleting the
//! outputs. `gstore-io` is entered through `pwrite`/`BatchWriter`,
//! `gstore-tile` through scatter and encode. Checksums or `sync_all` +
//! rename on the write path will cost time here and nowhere else.
//!
//! The flush policy is whatever `convert_streaming` and
//! `recode_store_files` do; `gbench` adds no fsync of its own.

use super::{measure, repeat_setup, Budget, Limit, RunConfig, Timed};
use crate::data::{
    build_dataset, conversion_options, disk_bytes, engine_on, stream_scr, GraphShape, WorkDir,
};
use crate::layers::{self, LayerInputs};
use crate::report::Outcome;
use crate::trace::Tracer;
use gstore_graph::{Result, TupleWidth};
use gstore_tile::{convert_streaming, recode_store_files, Codec, StreamingOptions, TilePaths};
use std::path::PathBuf;
use std::time::Instant;

struct State {
    edge_file: PathBuf,
    /// Where rounds write and delete their outputs.
    out_dir: PathBuf,
    opts: StreamingOptions,
    input_edges: u64,
    /// The in-memory converter's files: what every round must reproduce.
    reference: TilePaths,
}

struct IngestTimed {
    unit_s: Vec<f64>,
    input_edges: u64,
    failed: u64,
    /// ζ3 `.tiles` + `.start` bytes of the last round.
    zeta_disk_bytes: u64,
    stored_edges: u64,
}

impl Timed for IngestTimed {
    fn edges(&self) -> u64 {
        self.input_edges * self.unit_s.len() as u64
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

fn same_bytes(a: &std::path::Path, b: &std::path::Path) -> Result<bool> {
    Ok(std::fs::read(a)? == std::fs::read(b)?)
}

/// One round. The clock stops while the outputs are compared with the
/// reference, which is the benchmark's work and not the program's.
fn round(s: &State, tracer: &Tracer) -> Result<(f64, bool, u64, u64)> {
    tracer.span("round", || {
        let t = Instant::now();
        let report = tracer.span("tile.convert_streaming", || {
            convert_streaming(&s.edge_file, &s.out_dir, "r", &s.opts)
        })?;
        let (zeta, coded) = tracer.span("tile.recode", || {
            recode_store_files(&report.paths, &s.out_dir, "rz", Codec::ZetaGap)
        })?;
        let mut wall = t.elapsed().as_secs_f64();

        let ok = same_bytes(&report.paths.tiles, &s.reference.tiles)?
            && same_bytes(&report.paths.start, &s.reference.start)?
            && coded.edge_count == report.edge_count;
        let zeta_disk = disk_bytes(&zeta)?;

        let t = Instant::now();
        tracer.span("delete_outputs", || -> Result<()> {
            for p in [
                &report.paths.tiles,
                &report.paths.start,
                &zeta.tiles,
                &zeta.start,
            ] {
                std::fs::remove_file(p)?;
            }
            Ok(())
        })?;
        wall += t.elapsed().as_secs_f64();
        Ok((wall, ok, zeta_disk, report.edge_count))
    })
}

fn section(s: &mut State, tracer: &Tracer, limit: Limit) -> Result<IngestTimed> {
    let mut out = IngestTimed {
        unit_s: Vec::new(),
        input_edges: s.input_edges,
        failed: 0,
        zeta_disk_bytes: 0,
        stored_edges: 0,
    };
    let mut budget = Budget::new(limit);
    while budget.more() {
        let (wall, ok, zeta_disk, stored) = round(s, tracer)?;
        out.unit_s.push(wall);
        out.failed += u64::from(!ok);
        out.zeta_disk_bytes = zeta_disk;
        out.stored_edges = stored;
    }
    Ok(out)
}

pub fn run(cfg: &RunConfig, tracer: &Tracer, out: &mut Outcome) -> Result<()> {
    let ((mut state, data, dir), setup_s) = repeat_setup(tracer, || {
        let dir = WorkDir::new("ingest")?;
        // The in-memory converter's output doubles as the reference the
        // streaming converter must reproduce byte for byte.
        let data = build_dataset(GraphShape::Kron, &cfg.scale, cfg.seed, dir.path(), tracer)?;
        let edge_file = dir.path().join("g.el");
        tracer.span("graph.write_binary", || {
            data.el.write_binary(
                &edge_file,
                TupleWidth::for_vertex_count(data.el.vertex_count()),
            )
        })?;
        let state = State {
            edge_file,
            out_dir: dir.path().join("rounds"),
            opts: StreamingOptions::new(conversion_options())
                .with_mem_budget_mb(cfg.scale.stream_mem_mb),
            input_edges: data.el.edge_count(),
            reference: data.paths.clone(),
        };
        tracer.span("warmup", || round(&state, &Tracer::new(false)))?;
        Ok((state, data, dir))
    })?;
    out.set("setup_s", setup_s);

    let scr = stream_scr(data.data_bytes())?;
    let paths = data.paths.clone();
    // The rounds build no engine, so an untraced run's environment block
    // says `none`. The read replays of a traced run go through the kind a
    // default engine over the converter's output reports.
    let inputs = if cfg.trace {
        let io_backend = engine_on(&paths, scr, 0)?.io_backend();
        out.env.io_engine = io_backend.as_str();
        Some(LayerInputs::new(cfg, data, paths, scr, 0, io_backend))
    } else {
        None
    };

    let t = measure(cfg, tracer, out, &mut state, section)?;
    out.set(
        "disk_bytes_per_edge",
        t.zeta_disk_bytes as f64 / t.stored_edges as f64,
    );

    if cfg.trace {
        layers::replay_all(&inputs.expect("kept for traced runs"), tracer, out)?;
    }
    out.notes.push(format!(
        "unit = one round (convert_streaming under {} MiB, recode to zeta, delete); n = {} rounds; \
         flush policy is the program's own, gbench adds no fsync",
        cfg.scale.stream_mem_mb,
        t.unit_s.len()
    ));
    drop(dir);
    Ok(())
}
