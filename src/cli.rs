//! The `gstore` command-line tool: generate graphs, convert them to the
//! tile format, inspect stores, and run algorithms — the workflow a
//! downstream user drives without writing Rust.
//!
//! ```text
//! gstore generate kron:18:16 graph.el
//! gstore convert graph.el ./db mygraph --tile-bits 12 --group-side 16
//! gstore info ./db mygraph
//! gstore bfs ./db mygraph --root 0
//! gstore pagerank ./db mygraph --iters 10
//! gstore wcc ./db mygraph
//! gstore batch ./db mygraph bfs:0 pagerank:10 wcc
//! gstore compress ./db mygraph --codec ef
//! ```
//!
//! Every subcommand declares the flags it reads; any other flag is a usage
//! error (exit 2), never silently ignored. The [`Flags`] parser is shared
//! with the `repro` harness, so both binaries accept the same
//! `--key value` surface under the same rule.

use crate::graph::gen::{
    generate_powerlaw, generate_random, generate_rmat, PowerLawParams, RandomParams, RmatParams,
};
use crate::graph::{text, CompactDegrees, EdgeList, GraphError, GraphKind, Result, TupleWidth};
use crate::prelude::*;
use crate::tile::sizing::human_bytes;
use crate::tile::stats::index_stats;
use crate::tile::{convert_edges, recode_store_files, Codec, TileFile};
use gstore_metrics::FlightRecorder;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Parsed command-line flags (everything after positional arguments).
#[derive(Debug, Default, Clone)]
pub struct Flags {
    map: std::collections::HashMap<String, String>,
}

impl Flags {
    /// Parses `--key value` and bare `--switch` flags from `args`,
    /// returning the positional arguments separately.
    pub fn parse(args: &[String]) -> Result<(Vec<String>, Flags)> {
        let mut pos = Vec::new();
        let mut map = std::collections::HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(key) = a.strip_prefix("--") {
                let next_is_value = args
                    .get(i + 1)
                    .map(|v| !v.starts_with("--"))
                    .unwrap_or(false);
                if next_is_value {
                    map.insert(key.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    map.insert(key.to_string(), String::new());
                    i += 1;
                }
            } else {
                pos.push(a.clone());
                i += 1;
            }
        }
        Ok((pos, Flags { map }))
    }

    /// Rejects any flag outside the `declared` sets: a misspelt `--roott`
    /// is a usage error naming `cmd`, never a silently ignored option.
    pub fn check(&self, cmd: &str, declared: &[&[&str]]) -> Result<()> {
        let mut unknown: Vec<&str> = self
            .map
            .keys()
            .map(String::as_str)
            .filter(|key| !declared.iter().any(|set| set.contains(key)))
            .collect();
        unknown.sort_unstable();
        match unknown.first() {
            None => Ok(()),
            Some(key) => Err(GraphError::InvalidParameter(format!(
                "{cmd}: unknown flag --{key}"
            ))),
        }
    }

    pub fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                GraphError::InvalidParameter(format!("invalid value {v:?} for --{key}"))
            }),
        }
    }
}

/// Parses a generator spec like `kron:18:16` or `twitter:512`.
pub fn parse_generator(spec: &str, directed: bool, seed: u64) -> Result<EdgeList> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> Result<u64> {
        s.parse()
            .map_err(|_| GraphError::InvalidParameter(format!("bad number {s:?} in {spec:?}")))
    };
    let kind = if directed {
        GraphKind::Directed
    } else {
        GraphKind::Undirected
    };
    match parts.as_slice() {
        ["kron", scale, ef] => generate_rmat(
            &RmatParams::kron(num(scale)? as u32, num(ef)?)
                .with_kind(kind)
                .with_seed(seed),
        ),
        ["random", scale, ef] => generate_random(
            &RandomParams::scaled(num(scale)? as u32, num(ef)?)
                .with_kind(kind)
                .with_seed(seed),
        ),
        ["twitter", div] => {
            generate_powerlaw(&PowerLawParams::twitter_like(num(div)?).with_seed(seed))
        }
        ["friendster", div] => {
            generate_powerlaw(&PowerLawParams::friendster_like(num(div)?).with_seed(seed))
        }
        ["subdomain", div] => {
            generate_powerlaw(&PowerLawParams::subdomain_like(num(div)?).with_seed(seed))
        }
        _ => Err(GraphError::InvalidParameter(format!(
            "unknown generator {spec:?}; try kron:<scale>:<ef>, random:<scale>:<ef>, \
             twitter:<div>, friendster:<div>, subdomain:<div>"
        ))),
    }
}

/// Reads a text edge list; `--directed` sets its kind.
fn load_text(path: &Path, flags: &Flags) -> Result<EdgeList> {
    let kind = if flags.has("directed") {
        GraphKind::Directed
    } else {
        GraphKind::Undirected
    };
    text::read_text(path, kind, None)
}

/// Parses `--<key>` as a size in `unit`-byte units and returns the byte
/// total. Zero and sizes whose byte total overflows `u64` are rejected:
/// a zero budget can only dead-lock or divide-by-zero downstream, and a
/// wrapped shift would silently turn `--memory-mb 18446744073709551615`
/// into a tiny budget.
fn size_flag(flags: &Flags, key: &str, default_units: u64, unit: u64) -> Result<u64> {
    let units: u64 = flags.get(key, default_units)?;
    if units == 0 {
        return Err(GraphError::InvalidParameter(format!(
            "--{key} must be at least 1"
        )));
    }
    units.checked_mul(unit).ok_or_else(|| {
        GraphError::InvalidParameter(format!("--{key} {units} overflows the byte budget"))
    })
}

/// The flags [`engine_builder_from_flags`] reads, accepted by every
/// command that builds an engine.
const ENGINE_FLAGS: &[&str] = &[
    "segment-kb",
    "memory-mb",
    "io-workers",
    "io-backend",
    "cache-mb",
    "metrics-json",
];

/// Builds an [`EngineBuilder`] from the shared engine flags
/// (`--segment-kb`, `--memory-mb`, `--io-workers`, `--io-backend`,
/// `--cache-mb`, `--metrics-json`). No source is set — callers add
/// `.paths(..)` / `.store(..)` / `.backend(..)` for their graph.
pub fn engine_builder_from_flags(flags: &Flags) -> Result<EngineBuilder> {
    let segment = size_flag(flags, "segment-kb", 4096, 1 << 10)?;
    let total = size_flag(flags, "memory-mb", 256, 1 << 20)?;
    let io_workers: usize = flags.get("io-workers", 4usize)?;
    if io_workers == 0 {
        return Err(GraphError::InvalidParameter(
            "--io-workers must be at least 1".into(),
        ));
    }
    let backend_spec: String = flags.get("io-backend", String::from("auto"))?;
    let io_backend = crate::io::IoBackend::parse(&backend_spec).ok_or_else(|| {
        GraphError::InvalidParameter(format!(
            "--io-backend must be auto, workers or uring (got {backend_spec:?})"
        ))
    })?;
    let scr = ScrConfig::new(segment, total.max(2 * segment))?;
    Ok(GStoreEngine::builder()
        .scr(scr)
        .io_workers(io_workers)
        .io_backend(io_backend)
        .point_read_cache_bytes(size_flag(flags, "cache-mb", 64, 1 << 20)?)
        .metrics(flags.has("metrics-json")))
}

fn engine_for(dir: &Path, name: &str, flags: &Flags) -> Result<GStoreEngine> {
    let paths = TilePaths::new(dir, name);
    engine_builder_from_flags(flags)?.paths(&paths).build()
}

/// Honours `--metrics-json <path>`: serializes the engine's flight
/// recorder (see docs/METRICS.md for the schema) after a run.
fn write_metrics(engine: &GStoreEngine, flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let Some(path) = metrics_path(flags)? else {
        return Ok(());
    };
    let m = engine.metrics().expect("metrics enabled by engine_for");
    std::fs::write(&path, m.to_json())?;
    writeln!(out, "metrics written to {path}")?;
    Ok(())
}

/// Where `--metrics-json` asks for the flight recorder, if it does.
fn metrics_path(flags: &Flags) -> Result<Option<String>> {
    if !flags.has("metrics-json") {
        return Ok(None);
    }
    let path: String = flags.get("metrics-json", String::new())?;
    if path.is_empty() {
        return Err(GraphError::InvalidParameter(
            "--metrics-json needs an output path".into(),
        ));
    }
    Ok(Some(path))
}

/// `gstore generate <spec> <out>`: writes a binary edge list.
fn cmd_generate(out: &mut dyn Write, pos: &[String], flags: &Flags) -> Result<()> {
    let [spec, path] = pos else {
        return Err(GraphError::InvalidParameter(
            "usage: generate <spec> <out.el> [--directed] [--seed N] [--text]".into(),
        ));
    };
    let el = parse_generator(spec, flags.has("directed"), flags.get("seed", 42u64)?)?;
    let path = PathBuf::from(path);
    if flags.has("text") {
        text::write_text(&el, &path)?;
    } else {
        el.write_binary(&path, TupleWidth::for_vertex_count(el.vertex_count()))?;
    }
    writeln!(
        out,
        "wrote {:?}: {} vertices, {} edges ({:?})",
        path,
        el.vertex_count(),
        el.edge_count(),
        el.kind()
    )?;
    Ok(())
}

/// `gstore convert <input> <dir> <name>`: edge list → tile store.
fn cmd_convert(out: &mut dyn Write, pos: &[String], flags: &Flags) -> Result<()> {
    let [input, dir, name] = pos else {
        return Err(GraphError::InvalidParameter(
            "usage: convert <input> <dir> <name> [--text] [--directed] \
             [--tile-bits N] [--group-side N] [--no-symmetry] [--mem-budget MB] \
             [--metrics-json PATH]"
                .into(),
        ));
    };
    let mut opts = ConversionOptions::new(flags.get("tile-bits", 12u32)?)
        .with_group_side(flags.get("group-side", 16u32)?);
    if flags.has("no-symmetry") {
        opts = opts.without_symmetry();
    }
    let dir = Path::new(dir);
    let mut sopts = StreamingOptions::new(opts)
        .with_mem_budget_mb(size_flag(flags, "mem-budget", 64, 1 << 20)? >> 20);
    // The `ingest` group of docs/METRICS.md; the engine groups stay empty,
    // no engine runs.
    let metrics = metrics_path(flags)?.map(|path| (path, Arc::new(FlightRecorder::new())));
    if let Some((_, recorder)) = &metrics {
        sopts = sopts.with_recorder(recorder.clone());
    }
    // A binary edge file is read twice, a chunk at a time; a text one is
    // parsed into memory first.
    let input = Path::new(input);
    let report = if flags.has("text") || input.extension().is_some_and(|e| e == "txt") {
        convert_edges(&load_text(input, flags)?, dir, name, &sopts)?
    } else {
        convert_streaming(input, dir, name, &sopts)?
    };
    if let Some((path, recorder)) = metrics {
        std::fs::write(&path, recorder.snapshot().to_json())?;
        writeln!(out, "metrics written to {path}")?;
    }
    let paths = &report.paths;
    writeln!(
        out,
        "converted: {} tiles, {} data in {} chunks of {} edges \
         ({} pwrites, {} chunks written)",
        report.tile_count,
        human_bytes(report.data_bytes),
        report.chunks,
        report.chunk_edges,
        report.write.pwrites,
        report.write.flushes,
    )?;
    writeln!(
        out,
        "  {:?}\n  {:?}\n  {:?}",
        paths.tiles, paths.start, paths.deg
    )?;
    Ok(())
}

/// `gstore info <dir> <name>`: store geometry and occupancy.
fn cmd_info(out: &mut dyn Write, pos: &[String], _flags: &Flags) -> Result<()> {
    let [dir, name] = pos else {
        return Err(GraphError::InvalidParameter(
            "usage: info <dir> <name>".into(),
        ));
    };
    let paths = TilePaths::new(Path::new(dir), name);
    // Header + start-edge index only: the tile data never becomes resident,
    // so `info` stays O(tile_count) even on stores far larger than memory.
    let tf = TileFile::open(&paths)?;
    {
        let index = tf.index();
        let tiling = index.layout.tiling();
        writeln!(
            out,
            "graph    : {} vertices, {} stored edges",
            tiling.vertex_count(),
            index.edge_count()
        )?;
        writeln!(
            out,
            "kind     : {:?} ({})",
            tiling.kind(),
            if tiling.symmetric() {
                "upper triangle stored"
            } else {
                "full grid"
            }
        )?;
        writeln!(
            out,
            "tiling   : 2^{} vertices/tile side, {}x{} grid, {} tiles",
            tiling.tile_bits(),
            tiling.partitions(),
            tiling.partitions(),
            index.tile_count()
        )?;
        writeln!(
            out,
            "grouping : q={} ({} physical groups)",
            index.layout.group_side(),
            index.layout.groups().len()
        )?;
        writeln!(
            out,
            "size     : {} tile data, {} start-edge index, {} degree array \
             ({} hubs)",
            human_bytes(index.data_bytes()),
            human_bytes((index.tile_count() + 1) * 8),
            human_bytes(index.degrees().size_bytes()),
            index.degrees().hub_count()
        )?;
        // Codec accounting comes from the index alone: disk bytes are the
        // last compressed offset, logical bytes are edges x SNB width.
        let stored = index.edge_count();
        let bpe = |bytes: u64| {
            if stored == 0 {
                0.0
            } else {
                bytes as f64 / stored as f64
            }
        };
        if index.is_coded() {
            writeln!(
                out,
                "codec    : {} — {:.2} bytes/edge on disk vs {:.2} logical ({:.2}x saving)",
                index.codec.name(),
                bpe(index.data_bytes()),
                bpe(index.logical_bytes()),
                index.compression_ratio()
            )?;
        } else {
            writeln!(
                out,
                "codec    : raw (uncompressed {:?}, {:.2} bytes/edge)",
                index.encoding,
                bpe(index.data_bytes())
            )?;
        }
        let on_disk = std::fs::metadata(&paths.tiles)?.len()
            + std::fs::metadata(&paths.start)?.len()
            + std::fs::metadata(&paths.deg)?.len();
        writeln!(
            out,
            "on disk  : {} total, {:.2} bytes/edge",
            human_bytes(on_disk),
            bpe(on_disk)
        )?;
        let stats = index_stats(index);
        writeln!(
            out,
            "tiles    : {:.1}% empty, {:.1}% under 1k edges, largest {} edges",
            stats.empty_fraction * 100.0,
            stats.fraction_below(1000) * 100.0,
            stats.max_count
        )?;
    }
    Ok(())
}

/// Runs one sweep spec as a query of its own: a plain
/// [`GStoreEngine::run`], not a one-query batch, so the metrics JSON is
/// that of a single run.
fn run_sweep(engine: &mut GStoreEngine, spec: QuerySpec) -> Result<(SweepQuery, RunStats)> {
    let mut q = SweepQuery::for_index(&spec, engine.index())?;
    let stats = engine.run(q.algorithm_mut(), u32::MAX)?;
    Ok((q, stats))
}

/// Runs the specs as one [`QueryBatch`]: one shared scan per iteration.
fn run_sweep_batch(
    engine: &mut GStoreEngine,
    specs: &[QuerySpec],
) -> Result<(Vec<SweepQuery>, BatchRunStats)> {
    let mut queries: Vec<SweepQuery> = specs
        .iter()
        .map(|q| SweepQuery::for_index(q, engine.index()))
        .collect::<Result<_>>()?;
    let mut batch = QueryBatch::new();
    for q in &mut queries {
        batch.push(q.algorithm_mut())?;
    }
    let stats = engine.run_batch(&mut batch, u32::MAX)?;
    Ok((queries, stats))
}

/// `gstore bfs|pagerank|wcc|kcore|degrees <dir> <name>`: one sweep query,
/// its spec spelt with the command's flags (`--root`, `--iters`, `--k`).
fn cmd_sweep(out: &mut dyn Write, pos: &[String], flags: &Flags, spec: QuerySpec) -> Result<()> {
    let [dir, name] = pos else {
        return Err(GraphError::InvalidParameter(
            "usage: <command> <dir> <name> [flags]; `gstore help` lists each command's flags"
                .into(),
        ));
    };
    let mut engine = engine_for(Path::new(dir), name, flags)?;
    let (q, stats) = run_sweep(&mut engine, spec)?;
    writeln!(out, "{spec}: {}", q.result().summary())?;
    writeln!(
        out,
        "  {} iterations, {} read",
        stats.iterations,
        human_bytes(stats.bytes_read)
    )?;
    if let SweepQuery::Degrees(dc) = &q {
        print_degree_distribution(out, &dc.degrees(), engine.index().degrees())?;
    }
    write_metrics(&engine, flags, out)
}

/// The degree distribution of the sweep's `degrees` and the size of the
/// store's compact 2-byte encoding `c` (§IV.C) that `gstore degrees` reports.
fn print_degree_distribution(
    out: &mut dyn Write,
    degrees: &[u64],
    c: &CompactDegrees,
) -> Result<()> {
    let dist = crate::graph::stats::DegreeDistribution::from_degrees(degrees);
    writeln!(
        out,
        "  mean {:.2}, skew {:.0}x, {:.1}% isolated",
        dist.mean_degree,
        dist.skew(),
        dist.isolated_fraction() * 100.0
    )?;
    writeln!(
        out,
        "  p50 {} / p90 {} / p99 {}",
        dist.percentile(degrees, 0.5),
        dist.percentile(degrees, 0.9),
        dist.percentile(degrees, 0.99)
    )?;
    for (label, count) in dist.rows() {
        if count > 0 {
            writeln!(out, "  degree {label:>12}: {count}")?;
        }
    }
    writeln!(
        out,
        "  compact encoding: {} vs {} flat u32 ({} hub-table entries)",
        human_bytes(c.size_bytes()),
        human_bytes(c.flat_size_bytes(4)),
        c.hub_count()
    )?;
    Ok(())
}

/// `gstore batch <dir> <name> <spec>...`: runs several queries
/// concurrently over one shared scan per iteration. Specs parse through
/// the typed [`QuerySpec`] grammar shared with `gstore query`, the wire
/// protocol, and the `repro` harness.
fn cmd_batch(out: &mut dyn Write, pos: &[String], flags: &Flags) -> Result<()> {
    let [dir, name, specs @ ..] = pos else {
        return Err(GraphError::InvalidParameter(
            "usage: batch <dir> <name> <spec>... \
             (specs: bfs[:root], pagerank[:iters], wcc, kcore[:k], degrees)"
                .into(),
        ));
    };
    if specs.is_empty() {
        return Err(GraphError::InvalidParameter(
            "batch needs at least one query spec".into(),
        ));
    }
    let parsed: Vec<QuerySpec> = specs.iter().map(|s| s.parse()).collect::<Result<_>>()?;
    let mut engine = engine_for(Path::new(dir), name, flags)?;
    let (_, stats) = run_sweep_batch(&mut engine, &parsed)?;

    for (spec, q) in specs.iter().zip(&stats.per_query) {
        writeln!(
            out,
            "  {spec:<16} {:>3} iterations, {} read, {} tiles ({} shared-scan), {}",
            q.stats.iterations,
            human_bytes(q.stats.bytes_read),
            q.stats.tiles_processed,
            q.stats.tiles_from_cache,
            if q.converged { "converged" } else { "cut off" },
        )?;
    }
    writeln!(
        out,
        "batch: {} queries in {} sweeps, {} read from disk \
         ({:.2}x amortization, {} tiles served to >1 query)",
        stats.per_query.len(),
        stats.sweeps,
        human_bytes(stats.aggregate.bytes_read),
        stats.read_amortization(),
        stats.tiles_shared,
    )?;
    write_metrics(&engine, flags, out)
}

/// Runs one `query` point-read spec against a [`PointReader`] and prints
/// a one-line result. Parsing and execution go through the typed
/// [`QuerySpec`] surface; sweep specs are rejected with a pointer to
/// `batch`.
fn run_point_query(out: &mut dyn Write, reader: &PointReader, spec: &str, seed: u64) -> Result<()> {
    let q: QuerySpec = spec.parse()?;
    if q.kind() != QueryKind::Point {
        return Err(GraphError::InvalidParameter(format!(
            "{q} is a sweep query; run it through `gstore batch`"
        )));
    }
    let value = crate::core::spec::run_point(reader, &q, seed)?;
    writeln!(out, "  {spec:<16} {}", value.summary())?;
    Ok(())
}

/// `gstore query <dir> <name> <spec>...`: OLTP-style point reads served
/// from individual tiles — no full sweep. Specs: `neighbors:v`,
/// `degree:v`, `khop:v:k`, `walk:v:len`.
fn cmd_query(out: &mut dyn Write, pos: &[String], flags: &Flags) -> Result<()> {
    let [dir, name, specs @ ..] = pos else {
        return Err(GraphError::InvalidParameter(
            "usage: query <dir> <name> <spec>... \
             (specs: neighbors:v, degree:v, khop:v:k, walk:v:len)"
                .into(),
        ));
    };
    if specs.is_empty() {
        return Err(GraphError::InvalidParameter(
            "query needs at least one point-read spec".into(),
        ));
    }
    let engine = engine_for(Path::new(dir), name, flags)?;
    let reader = engine.point_reader();
    let seed: u64 = flags.get("seed", 42u64)?;
    for spec in specs {
        run_point_query(out, &reader, spec, seed)?;
    }
    let cache = reader.cache_stats();
    writeln!(
        out,
        "query: {} point reads, hot-tile cache {} resident ({} inserted, {} rejected)",
        specs.len(),
        reader.cache_resident(),
        cache.inserted,
        cache.rejected,
    )?;
    write_metrics(&engine, flags, out)
}

/// `gstore serve <dir> <name> [--port P] [--max-batch N] [--queue N]`:
/// runs the shared-scan query daemon over one engine until killed.
/// Clients speak the length-prefixed QuerySpec protocol (docs/API.md);
/// `gstore client` is the bundled driver.
fn cmd_serve(out: &mut dyn Write, pos: &[String], flags: &Flags) -> Result<()> {
    let [dir, name] = pos else {
        return Err(GraphError::InvalidParameter(
            "usage: serve <dir> <name> [--port P] [--max-batch N] [--queue N] \
             [--max-iters N] [--seed N]"
                .into(),
        ));
    };
    let port: u16 = flags.get("port", 7421u16)?;
    let opts = crate::server::ServeOptions {
        addr: format!("127.0.0.1:{port}"),
        max_batch: flags.get("max-batch", QueryBatch::MAX_QUERIES)?,
        queue_capacity: flags.get("queue", 0usize)?,
        max_iters: flags.get("max-iters", 10_000u32)?,
        walk_seed: flags.get("seed", 42u64)?,
    };
    // The daemon snapshots metrics at shutdown, so serving always records.
    let engine = engine_builder_from_flags(flags)?
        .metrics(true)
        .paths(&TilePaths::new(Path::new(dir), name))
        .build()?;
    let handle = crate::server::serve(engine, opts)?;
    writeln!(
        out,
        "serving {name} on {} (max batch {}, point reads answered inline); \
         stop with ctrl-c",
        handle.local_addr(),
        flags.get("max-batch", QueryBatch::MAX_QUERIES)?,
    )?;
    // Foreground daemon: park until killed. Tests drive the library API
    // (gstore_server::serve) directly, where shutdown() is available.
    loop {
        std::thread::park();
    }
}

/// `gstore client <addr> <spec>...`: sends each query spec to a running
/// daemon and prints the replies — the serve protocol's test driver.
fn cmd_client(out: &mut dyn Write, pos: &[String], flags: &Flags) -> Result<()> {
    let [addr, specs @ ..] = pos else {
        return Err(GraphError::InvalidParameter(
            "usage: client <host:port> <spec>... [--raw] [--retries N]".into(),
        ));
    };
    if specs.is_empty() {
        return Err(GraphError::InvalidParameter(
            "client needs at least one query spec".into(),
        ));
    }
    let retries: u32 = flags.get("retries", 200u32)?;
    let mut client = crate::server::Client::connect(addr).map_err(GraphError::Io)?;
    let mut failures = 0u32;
    for spec in specs {
        let reply = client
            .query_retrying(spec, retries)
            .map_err(GraphError::Io)?;
        match reply {
            crate::server::Reply::Value(value) => {
                if flags.has("raw") {
                    writeln!(out, "  {spec:<16} {}", value.encode())?;
                } else {
                    writeln!(out, "  {spec:<16} {}", value.summary())?;
                }
            }
            crate::server::Reply::Error { code, message } => {
                failures += 1;
                writeln!(out, "  {spec:<16} ERR {code}: {message}")?;
            }
            crate::server::Reply::Busy => {
                failures += 1;
                writeln!(
                    out,
                    "  {spec:<16} BUSY (queue full after {retries} retries)"
                )?;
            }
        }
    }
    if failures > 0 {
        return Err(GraphError::InvalidParameter(format!(
            "{failures} of {} queries did not return a value",
            specs.len()
        )));
    }
    Ok(())
}

/// `gstore compress <dir> <name> [--codec C] [--out NAME]`: re-encodes a
/// store with a bit-level tile codec (default `varint`), writing a
/// first-class coded `.tiles`/`.start` pair that every query path consumes.
fn cmd_compress(out: &mut dyn Write, pos: &[String], flags: &Flags) -> Result<()> {
    let [dir, name] = pos else {
        return Err(GraphError::InvalidParameter(
            "usage: compress <dir> <name> [--codec varint|gamma|zeta|ef] [--out NAME]".into(),
        ));
    };
    let coded: String = flags.get("out", format!("{name}c"))?;
    let dir = Path::new(dir);
    let codec = Codec::parse(&flags.get("codec", "varint".to_string())?)?;
    let (cpaths, report) = recode_store_files(&TilePaths::new(dir, name), dir, &coded, codec)?;
    writeln!(
        out,
        "coded {} edges as {}:",
        report.edge_count,
        report.codec.name()
    )?;
    writeln!(
        out,
        "  coded ({}): {} on disk, {:.2} bytes/edge ({:.2}x vs raw SNB) at {:?}",
        report.codec.name(),
        human_bytes(report.disk_bytes),
        report.bytes_per_edge(),
        report.ratio(),
        cpaths.tiles
    )?;
    Ok(())
}

const USAGE: &str = "usage: gstore <command> ...
commands:
  generate <spec> <out>        make a graph (kron:18:16, random:20:8,
                               twitter:512, friendster:512, subdomain:512;
                               --directed, --seed N, --text)
  convert  <input> <dir> <n>   edge list (binary or --text) -> tile store
                               (--directed, --tile-bits N, --group-side N,
                               --no-symmetry, --mem-budget MB working set,
                               --metrics-json P ingest counters; writes
                               <n>.tiles, <n>.start and <n>.deg)
  info     <dir> <name>        store geometry, sizes, occupancy, codec
                               accounting (bytes/edge, compression ratio)
  bfs      <dir> <name>        breadth-first search (--root R)
  pagerank <dir> <name>        PageRank, damping 0.85 (--iters N)
  wcc      <dir> <name>        weakly connected components
  kcore    <dir> <name>        k-core decomposition (--k K)
  degrees  <dir> <name>        degree statistics + compact encoding
                               (each of these five runs the batch spec
                               of the same name as a query of its own)
  batch    <dir> <name> <spec>...
                               run several queries over one shared scan
                               (specs: bfs[:root], pagerank[:iters], wcc,
                               kcore[:k], degrees)
  query    <dir> <name> <spec>...
                               point reads from individual tiles, no sweep
                               (specs: neighbors:v, degree:v, khop:v:k,
                               walk:v:len; --cache-mb N, --seed N)
  serve    <dir> <name>        run the shared-scan query daemon
                               (--port P default 7421, --max-batch N,
                               --queue N, --max-iters N, --seed N; sweep
                               queries batch into shared scans, point
                               reads answered inline)
  client   <host:port> <spec>...
                               send query specs to a running daemon
                               (--raw wire-encoded replies, --retries N
                               on BUSY; any batch/query spec works)
  compress <dir> <name>        re-encode with a bit-level tile codec
                               (--codec varint|gamma|zeta|ef, --out NAME)
engine flags (bfs/pagerank/wcc/kcore/degrees/batch/query/serve):
  --segment-kb N   streaming segment size (default 4096)
  --memory-mb N    total memory budget (default 256)
  --io-workers N   AIO worker threads (default 4; workers backend only)
  --io-backend B   I/O engine: auto | workers | uring (default auto:
                   probe io_uring, fall back to the worker pool)
  --cache-mb N     hot-tile cache for point reads (default 64)
  --metrics-json P write flight-recorder metrics (per-iteration phase
                   timings, I/O counters, cache stats) to P as JSON
any other flag is a usage error";

/// One subcommand: its entry point and every flag it reads.
struct Command {
    name: &'static str,
    run: fn(&mut dyn Write, &[String], &Flags) -> Result<()>,
    flags: &'static [&'static [&'static str]],
}

/// Every subcommand. A flag a command does not declare here is rejected
/// before the command runs.
const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        run: cmd_generate,
        flags: &[&["directed", "seed", "text"]],
    },
    Command {
        name: "convert",
        run: cmd_convert,
        flags: &[&[
            "text",
            "directed",
            "tile-bits",
            "group-side",
            "no-symmetry",
            "mem-budget",
            "metrics-json",
        ]],
    },
    Command {
        name: "info",
        run: cmd_info,
        flags: &[],
    },
    Command {
        name: "bfs",
        run: |out, pos, flags| {
            let root = flags.get("root", 0)?;
            cmd_sweep(out, pos, flags, QuerySpec::Bfs { root })
        },
        flags: &[&["root"], ENGINE_FLAGS],
    },
    Command {
        name: "pagerank",
        run: |out, pos, flags| {
            let iters = flags.get("iters", 20)?;
            cmd_sweep(out, pos, flags, QuerySpec::PageRank { iters })
        },
        flags: &[&["iters"], ENGINE_FLAGS],
    },
    Command {
        name: "wcc",
        run: |out, pos, flags| cmd_sweep(out, pos, flags, QuerySpec::Wcc),
        flags: &[ENGINE_FLAGS],
    },
    Command {
        name: "kcore",
        run: |out, pos, flags| {
            let k = flags.get("k", 2)?;
            cmd_sweep(out, pos, flags, QuerySpec::KCore { k })
        },
        flags: &[&["k"], ENGINE_FLAGS],
    },
    Command {
        name: "degrees",
        run: |out, pos, flags| cmd_sweep(out, pos, flags, QuerySpec::Degrees),
        flags: &[ENGINE_FLAGS],
    },
    Command {
        name: "batch",
        run: cmd_batch,
        flags: &[ENGINE_FLAGS],
    },
    Command {
        name: "query",
        run: cmd_query,
        flags: &[&["seed"], ENGINE_FLAGS],
    },
    Command {
        name: "serve",
        run: cmd_serve,
        flags: &[
            &["port", "max-batch", "queue", "max-iters", "seed"],
            ENGINE_FLAGS,
        ],
    },
    Command {
        name: "client",
        run: cmd_client,
        flags: &[&["raw", "retries"]],
    },
    Command {
        name: "compress",
        run: cmd_compress,
        flags: &[&["codec", "out"]],
    },
];

/// Entry point used by the `gstore` binary; returns the exit code. Every
/// command writes through one locked stdout.
pub fn run(args: &[String]) -> i32 {
    run_to(args, &mut std::io::stdout().lock())
}

/// [`run`], printing to `out`. A reader that closes `out` early
/// (`gstore query … | head -1`) ends the command quietly with exit 0;
/// every other error is reported on stderr with exit 2.
fn run_to(args: &[String], out: &mut dyn Write) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let mut out = Out {
        inner: out,
        closed: false,
    };
    let done = if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        writeln!(out, "{USAGE}").map_err(GraphError::from)
    } else {
        dispatch(cmd, rest, &mut out)
    };
    match done.and_then(|()| Ok(out.flush()?)) {
        Ok(()) => 0,
        Err(_) if out.closed => 0,
        Err(e) => {
            eprintln!("gstore: {e}");
            2
        }
    }
}

/// The commands' stdout: remembers whether a write found the reading end
/// closed, so that error is told apart from every other.
struct Out<'a> {
    inner: &'a mut dyn Write,
    closed: bool,
}

impl Out<'_> {
    fn note<T>(&mut self, r: std::io::Result<T>) -> std::io::Result<T> {
        self.closed |= matches!(&r, Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe);
        r
    }
}

impl Write for Out<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let r = self.inner.write(buf);
        self.note(r)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let r = self.inner.flush();
        self.note(r)
    }
}

/// Finds `cmd` in [`COMMANDS`], checks its flags, and runs it.
fn dispatch(cmd: &str, args: &[String], out: &mut dyn Write) -> Result<()> {
    let command = COMMANDS
        .iter()
        .find(|c| c.name == cmd)
        .ok_or_else(|| GraphError::InvalidParameter(format!("unknown command {cmd:?}")))?;
    let (pos, flags) = Flags::parse(args)?;
    flags.check(command.name, command.flags)?;
    (command.run)(out, &pos, &flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// [`super::run`], printing into the test's captured output.
    fn run(args: &[String]) -> i32 {
        let mut out = Vec::new();
        let code = run_to(args, &mut out);
        print!("{}", String::from_utf8_lossy(&out));
        code
    }

    #[test]
    fn flags_parse_values_and_switches() {
        let (pos, flags) =
            Flags::parse(&s(&["a", "--x", "5", "b", "--flag", "--y", "2.5"])).unwrap();
        assert_eq!(pos, s(&["a", "b"]));
        assert_eq!(flags.get("x", 0u32).unwrap(), 5);
        assert!(flags.has("flag"));
        assert_eq!(flags.get("y", 0.0f64).unwrap(), 2.5);
        assert_eq!(flags.get("missing", 7u8).unwrap(), 7);
        assert!(flags.get::<u32>("y", 0).is_err());
    }

    #[test]
    fn generator_specs() {
        let el = parse_generator("kron:8:4", false, 1).unwrap();
        assert_eq!(el.vertex_count(), 256);
        assert_eq!(el.kind(), GraphKind::Undirected);
        let el = parse_generator("random:8:4", true, 1).unwrap();
        assert_eq!(el.kind(), GraphKind::Directed);
        assert!(parse_generator("twitter:100000", false, 1).is_ok());
        assert!(parse_generator("bogus:1", false, 1).is_err());
        assert!(parse_generator("kron:x:4", false, 1).is_err());
    }

    #[test]
    fn full_cli_workflow() {
        let dir = tempfile::tempdir().unwrap();
        let el_path = dir.path().join("g.el");
        let db = dir.path().join("db");
        let dbs = db.to_str().unwrap().to_string();

        assert_eq!(
            run(&s(&["generate", "kron:10:8", el_path.to_str().unwrap()])),
            0
        );
        assert_eq!(
            run(&s(&[
                "convert",
                el_path.to_str().unwrap(),
                &dbs,
                "g",
                "--tile-bits",
                "6",
                "--group-side",
                "4",
            ])),
            0
        );
        assert_eq!(run(&s(&["compress", &dbs, "g"])), 0);
        assert_eq!(run(&s(&["info", &dbs, "g"])), 0);
        assert_eq!(run(&s(&["bfs", &dbs, "g", "--root", "0"])), 0);
        let metrics_path = dir.path().join("bfs-metrics.json");
        assert_eq!(
            run(&s(&[
                "bfs",
                &dbs,
                "g",
                "--root",
                "0",
                "--metrics-json",
                metrics_path.to_str().unwrap(),
            ])),
            0
        );
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("\"iterations\""));
        assert!(metrics.contains("\"bytes_read\""));
        assert!(metrics.contains("\"phase_split\""));
        assert_eq!(run(&s(&["pagerank", &dbs, "g", "--iters", "5"])), 0);
        assert_eq!(run(&s(&["wcc", &dbs, "g"])), 0);
        assert_eq!(run(&s(&["kcore", &dbs, "g", "--k", "3"])), 0);
        assert_eq!(run(&s(&["degrees", &dbs, "g"])), 0);
        let mq_path = dir.path().join("mq-metrics.json");
        assert_eq!(
            run(&s(&[
                "batch",
                &dbs,
                "g",
                "bfs:0",
                "bfs:1",
                "pagerank:5",
                "wcc",
                "kcore:3",
                "degrees",
                "--metrics-json",
                mq_path.to_str().unwrap(),
            ])),
            0
        );
        let mq = std::fs::read_to_string(&mq_path).unwrap();
        assert!(mq.contains("\"query_batch\""));
        assert_eq!(run(&s(&["batch", &dbs, "g"])), 2);
        assert_eq!(run(&s(&["batch", &dbs, "g", "bogus:1"])), 2);
        assert_eq!(run(&s(&["batch", &dbs, "g", "kcore:x"])), 2);

        // `compress` wrote a coded sibling store; it is a first-class
        // citizen of every command.
        assert!(db.join("gc.tiles").exists());
        assert_eq!(run(&s(&["info", &dbs, "gc"])), 0);
        assert_eq!(run(&s(&["bfs", &dbs, "gc", "--root", "0"])), 0);
        assert_eq!(run(&s(&["batch", &dbs, "gc", "bfs:0", "wcc"])), 0);

        // Explicit re-encode with another codec, plus point reads on it.
        assert_eq!(
            run(&s(&[
                "compress", &dbs, "g", "--codec", "ef", "--out", "gef"
            ])),
            0
        );
        assert_eq!(
            run(&s(&["query", &dbs, "gef", "neighbors:0", "degree:0"])),
            0
        );
        // Bad codec spellings and raw targets are usage errors.
        assert_eq!(run(&s(&["compress", &dbs, "g", "--codec", "bogus"])), 2);
        assert_eq!(run(&s(&["compress", &dbs, "g", "--codec", "raw"])), 2);
    }

    #[test]
    fn query_workflow_point_reads() {
        let dir = tempfile::tempdir().unwrap();
        let el_path = dir.path().join("g.el");
        let db = dir.path().join("db");
        let dbs = db.to_str().unwrap().to_string();
        assert_eq!(
            run(&s(&["generate", "kron:9:8", el_path.to_str().unwrap()])),
            0
        );
        assert_eq!(
            run(&s(&[
                "convert",
                el_path.to_str().unwrap(),
                &dbs,
                "g",
                "--tile-bits",
                "5",
                "--group-side",
                "4",
            ])),
            0
        );
        assert_eq!(
            run(&s(&[
                "query",
                &dbs,
                "g",
                "neighbors:0",
                "degree:0",
                "khop:0:2",
                "walk:0:16",
                "--cache-mb",
                "8",
            ])),
            0
        );
        let metrics_path = dir.path().join("query-metrics.json");
        assert_eq!(
            run(&s(&[
                "query",
                &dbs,
                "g",
                "degree:1",
                "degree:1",
                "--metrics-json",
                metrics_path.to_str().unwrap(),
            ])),
            0
        );
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("\"pointread\""));
        assert!(metrics.contains("\"lookups\""));
        // Usage and spec errors exit nonzero.
        assert_eq!(run(&s(&["query", &dbs, "g"])), 2);
        assert_eq!(run(&s(&["query", &dbs, "g", "bogus:0"])), 2);
        assert_eq!(run(&s(&["query", &dbs, "g", "khop:0:x"])), 2);
        assert_eq!(run(&s(&["query", &dbs, "g", "degree:999999"])), 2);
        // A store without its `.deg` does not open: the error names the
        // file and the command that writes one.
        std::fs::rename(db.join("g.deg"), db.join("g.deg.away")).unwrap();
        let err = dispatch("query", &s(&[&dbs, "g", "degree:0"]), &mut std::io::sink());
        assert!(
            matches!(&err, Err(GraphError::Format(m)) if m.contains("g.deg") && m.contains("gstore convert")),
            "{err:?}"
        );
        assert_eq!(run(&s(&["query", &dbs, "g", "degree:0"])), 2);
    }

    #[test]
    fn serve_and_client_workflow() {
        let dir = tempfile::tempdir().unwrap();
        let el_path = dir.path().join("g.el");
        let db = dir.path().join("db");
        let dbs = db.to_str().unwrap().to_string();
        assert_eq!(
            run(&s(&["generate", "kron:9:6", el_path.to_str().unwrap()])),
            0
        );
        assert_eq!(
            run(&s(&[
                "convert",
                el_path.to_str().unwrap(),
                &dbs,
                "g",
                "--tile-bits",
                "5",
                "--group-side",
                "4",
            ])),
            0
        );

        // `cmd_serve` parks its thread forever, so the test starts the
        // daemon through the library API on an ephemeral port and drives
        // it with the real `gstore client` subcommand.
        let engine = GStoreEngine::builder()
            .scr(ScrConfig::new(64 << 10, 1 << 20).unwrap())
            .metrics(true)
            .paths(&TilePaths::new(&db, "g"))
            .build()
            .unwrap();
        let handle = crate::server::serve(engine, crate::server::ServeOptions::default()).unwrap();
        let addr = handle.local_addr().to_string();

        // Mixed sweep + point specs over one connection, both render modes.
        assert_eq!(
            run(&s(&[
                "client",
                &addr,
                "bfs:0",
                "wcc",
                "degree:0",
                "neighbors:1"
            ])),
            0
        );
        assert_eq!(
            run(&s(&["client", &addr, "pagerank:5", "khop:0:2", "--raw"])),
            0
        );
        // Typed errors surface as a nonzero exit; the daemon survives and
        // keeps answering afterwards.
        assert_eq!(run(&s(&["client", &addr, "bogus:0"])), 2);
        assert_eq!(run(&s(&["client", &addr, "degree:999999"])), 2);
        assert_eq!(run(&s(&["client", &addr, "degrees"])), 0);
        // Usage errors.
        assert_eq!(run(&s(&["client", &addr])), 2);
        assert_eq!(run(&s(&["serve"])), 2);
        assert_eq!(run(&s(&["client", "127.0.0.1:1", "wcc"])), 2); // no daemon

        let engine = handle.shutdown();
        assert_eq!(engine.aio_in_flight(), 0);
        assert_eq!(engine.buffer_pool_stats().outstanding, 0);
    }

    #[test]
    fn info_on_zero_edge_store_prints_finite_bytes_per_edge() {
        // Regression: a store converted from an edge-free list must not
        // report NaN/inf bytes/edge — `info` pins the ratio to 0.00.
        let dir = tempfile::tempdir().unwrap();
        let el_path = dir.path().join("empty.el");
        let el = EdgeList::new(16, GraphKind::Undirected, Vec::new()).unwrap();
        el.write_binary(&el_path, TupleWidth::for_vertex_count(16))
            .unwrap();
        let db = dir.path().join("db");
        let dbs = db.to_str().unwrap().to_string();
        assert_eq!(
            run(&s(&[
                "convert",
                el_path.to_str().unwrap(),
                &dbs,
                "e",
                "--tile-bits",
                "3",
            ])),
            0
        );
        assert_eq!(run(&s(&["info", &dbs, "e"])), 0);
        // Point reads on the empty store answer (empty) rather than erroring.
        assert_eq!(run(&s(&["query", &dbs, "e", "neighbors:0", "degree:3"])), 0);
    }

    #[test]
    fn numeric_engine_flags_reject_zero_and_overflow() {
        let f = |kv: &[&str]| Flags::parse(&s(kv)).unwrap().1;
        let is_invalid =
            |r: Result<EngineBuilder>| matches!(r, Err(GraphError::InvalidParameter(_)));
        assert!(engine_builder_from_flags(&f(&[])).is_ok());
        for key in ["--segment-kb", "--memory-mb", "--io-workers", "--cache-mb"] {
            assert!(
                is_invalid(engine_builder_from_flags(&f(&[key, "0"]))),
                "{key} 0 must be rejected"
            );
        }
        let huge = u64::MAX.to_string();
        for key in ["--segment-kb", "--memory-mb", "--cache-mb"] {
            assert!(
                is_invalid(engine_builder_from_flags(&f(&[key, &huge]))),
                "{key} u64::MAX must be rejected, not silently wrapped"
            );
        }
        // A negative count fails the unsigned parse with the typed error.
        assert!(is_invalid(engine_builder_from_flags(&f(&[
            "--io-workers",
            "-1"
        ]))));
    }

    #[test]
    fn io_backend_flag_parses_and_rejects_bogus_values() {
        let f = |kv: &[&str]| Flags::parse(&s(kv)).unwrap().1;
        for spec in ["auto", "workers", "uring"] {
            assert!(
                engine_builder_from_flags(&f(&["--io-backend", spec])).is_ok(),
                "--io-backend {spec} must parse"
            );
        }
        assert!(matches!(
            engine_builder_from_flags(&f(&["--io-backend", "epoll"])),
            Err(GraphError::InvalidParameter(_))
        ));
        // The retired switches are undeclared flags: a usage error naming
        // the flag, exit 2, before the store is opened.
        for (cmd, retired) in [
            ("bfs", "--sqpoll"),
            ("bfs", "--direct"),
            ("bfs", "--async"),
            ("pagerank", "--delta"),
            ("pagerank", "--damping"),
            ("pagerank", "--top"),
        ] {
            let err = dispatch(cmd, &s(&["db", "g", retired]), &mut std::io::sink()).unwrap_err();
            assert!(
                matches!(&err, GraphError::InvalidParameter(m) if m.contains(retired)),
                "{retired}: {err:?}"
            );
            assert_eq!(run(&s(&[cmd, "db", "g", retired])), 2, "{retired}");
        }
    }

    #[test]
    fn convert_mem_budget_rejects_zero_and_overflow() {
        let dir = tempfile::tempdir().unwrap();
        let el_path = dir.path().join("g.el");
        let els = el_path.to_str().unwrap().to_string();
        let db = dir.path().join("db");
        let dbs = db.to_str().unwrap().to_string();
        assert_eq!(run(&s(&["generate", "kron:8:4", &els])), 0);
        for bad in ["0", "18446744073709551615"] {
            assert_eq!(
                run(&s(&["convert", &els, &dbs, "g", "--mem-budget", bad])),
                2,
                "--mem-budget {bad} must be a usage error"
            );
        }
    }

    #[test]
    fn streaming_convert_workflow() {
        let dir = tempfile::tempdir().unwrap();
        let el_path = dir.path().join("g.el");
        let els = el_path.to_str().unwrap().to_string();
        let db = dir.path().join("db");
        let dbs = db.to_str().unwrap().to_string();
        assert_eq!(run(&s(&["generate", "kron:10:8", &els])), 0);
        let metrics_path = dir.path().join("ingest-metrics.json");
        assert_eq!(
            run(&s(&[
                "convert",
                &els,
                &dbs,
                "g",
                "--mem-budget",
                "1",
                "--tile-bits",
                "6",
                "--group-side",
                "4",
                "--metrics-json",
                metrics_path.to_str().unwrap(),
            ])),
            0
        );
        // The flight recorder's `ingest` group: one chunk, one write.
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(
            metrics.contains("\"chunks_pass2\": 1,") && metrics.contains("\"pwrites\": 1,"),
            "{metrics}"
        );
        assert_eq!(run(&s(&["convert", &els, &dbs, "x", "--metrics-json"])), 2);
        // The converted store is a first-class citizen: info and queries
        // work off the files it wrote.
        assert_eq!(run(&s(&["info", &dbs, "g"])), 0);
        assert_eq!(run(&s(&["bfs", &dbs, "g", "--root", "0"])), 0);

        // A text copy of the same graph converts to the same bytes.
        let txt = dir.path().join("g.txt");
        let txts = txt.to_str().unwrap().to_string();
        assert_eq!(run(&s(&["generate", "kron:10:8", &txts, "--text"])), 0);
        let db2 = dir.path().join("db2");
        assert_eq!(
            run(&s(&[
                "convert",
                &txts,
                db2.to_str().unwrap(),
                "g",
                "--text",
                "--tile-bits",
                "6",
                "--group-side",
                "4",
            ])),
            0
        );
        for f in ["g.tiles", "g.start", "g.deg"] {
            assert_eq!(
                std::fs::read(db.join(f)).unwrap(),
                std::fs::read(db2.join(f)).unwrap(),
                "{f} differs between the binary and the text input"
            );
        }

        // --streaming, --compress and --codec are retired: undeclared
        // flags like any other. `compress` writes a coded store.
        for retired in [&["--streaming"][..], &["--compress"], &["--codec", "ef"]] {
            let mut args = s(&["convert", &els, &dbs, "x"]);
            args.extend(s(retired));
            assert_eq!(run(&args), 2, "{retired:?}");
        }
        assert!(!db.join("x.start").exists());
        assert_eq!(
            run(&s(&["convert", &els, &dbs, "x", "--tile-bits", "6"])),
            0
        );
        assert_eq!(run(&s(&["compress", &dbs, "x", "--codec", "zeta"])), 0);
        assert!(db.join("xc.tiles").exists());
        assert_eq!(run(&s(&["wcc", &dbs, "xc"])), 0);
    }

    #[test]
    fn legacy_compressed_stores_point_at_migration() {
        // The retired compressed pair has no reader and no migration: a
        // `.start` whose header carries its `GSTC` magic is an ordinary
        // bad-magic store, and `--migrate` is an unknown flag.
        let dir = tempfile::tempdir().unwrap();
        let el = parse_generator("kron:9:8", false, 7).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(5).with_group_side(4)).unwrap();
        crate::tile::write_store(&store, dir.path(), "g").unwrap();
        let paths = crate::tile::write_store(&store, dir.path(), "old").unwrap();
        let mut start = std::fs::read(&paths.start).unwrap();
        start[..4].copy_from_slice(b"GSTC");
        std::fs::write(&paths.start, &start).unwrap();
        assert!(matches!(TileFile::open(&paths), Err(GraphError::Format(_))));
        let dbs = dir.path().to_str().unwrap().to_string();
        assert_eq!(run(&s(&["info", &dbs, "old"])), 2);
        assert_eq!(run(&s(&["bfs", &dbs, "old", "--root", "0"])), 2);
        // Not even on a good store does `--migrate` quietly re-encode.
        let migrate = s(&["g", "--migrate", "--out", "new"]);
        assert!(matches!(
            dispatch("compress", &migrate, &mut std::io::sink()),
            Err(GraphError::InvalidParameter(m)) if m.contains("--migrate")
        ));
        assert_eq!(
            run(&s(&["compress", &dbs, "g", "--migrate", "--out", "new"])),
            2
        );
        assert!(!dir.path().join("new.tiles").exists());
    }

    /// The flags `USAGE` lists for `cmd`: its own block, plus the engine
    /// flags when the engine-flag header names it.
    fn usage_flags(cmd: &str) -> Vec<&'static str> {
        let flags_in = |text: &'static str| {
            text.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .filter_map(|w| w.strip_prefix("--"))
                .filter(|f| !f.is_empty())
        };
        let (commands, engine) = USAGE.split_once("engine flags (").unwrap();
        let mut listed = Vec::new();
        let mut mine = false;
        for line in commands.lines().skip(2) {
            if !line.starts_with("   ") {
                mine = line.split_whitespace().next() == Some(cmd);
            }
            if mine {
                listed.extend(flags_in(line));
            }
        }
        let (users, engine_flags) = engine.split_once("):").unwrap();
        if users.split('/').any(|c| c == cmd) {
            for line in engine_flags.lines() {
                listed.extend(
                    line.trim_start()
                        .split(' ')
                        .next()
                        .and_then(|w| w.strip_prefix("--")),
                );
            }
        }
        listed
    }

    #[test]
    fn every_command_rejects_undeclared_flags_and_accepts_its_usage() {
        for command in COMMANDS {
            let listed = usage_flags(command.name);
            let declared: Vec<&str> = command.flags.concat();
            for flag in &listed {
                let (_, flags) = Flags::parse(&s(&[&format!("--{flag}"), "1"])).unwrap();
                assert!(
                    flags.check(command.name, command.flags).is_ok(),
                    "{}: USAGE lists --{flag} but the command rejects it",
                    command.name
                );
            }
            for flag in &declared {
                assert!(
                    listed.contains(flag),
                    "{}: --{flag} is read but USAGE does not list it",
                    command.name
                );
            }
            // A misspelt flag is a typed error naming the command, caught
            // before the command touches a file, and exits 2.
            let typo = format!("--{}x", declared.first().unwrap_or(&"root"));
            let err =
                dispatch(command.name, &s(&["db", "g", &typo]), &mut std::io::sink()).unwrap_err();
            assert!(
                matches!(&err, GraphError::InvalidParameter(m)
                    if m.contains(command.name) && m.contains(&typo)),
                "{}: {err:?}",
                command.name
            );
            assert_eq!(run(&s(&[command.name, "db", "g", &typo])), 2);
        }
        assert_eq!(run(&s(&["bfs", "db", "g", "--roott", "9"])), 2);
    }

    #[test]
    fn directed_workflow_with_scc() {
        let dir = tempfile::tempdir().unwrap();
        let el_path = dir.path().join("d.el");
        let db = dir.path().join("db");
        let dbs = db.to_str().unwrap().to_string();
        assert_eq!(
            run(&s(&[
                "generate",
                "kron:8:4",
                el_path.to_str().unwrap(),
                "--directed"
            ])),
            0
        );
        assert_eq!(
            run(&s(&[
                "convert",
                el_path.to_str().unwrap(),
                &dbs,
                "d",
                "--directed",
                "--tile-bits",
                "5",
            ])),
            0
        );
        // The sweep commands run on a directed store; the in-memory tile
        // SCC is retired, so `scc` is an unknown command.
        for cmd in ["bfs", "wcc", "kcore", "degrees"] {
            assert_eq!(run(&s(&[cmd, &dbs, "d"])), 0, "{cmd}");
        }
        assert_eq!(run(&s(&["scc", &dbs, "d"])), 2);
    }

    #[test]
    fn sweep_commands_match_batch_and_csr_reference() {
        use crate::core::algorithms::kcore::kcore_reference;
        use crate::graph::reference;
        let dir = tempfile::tempdir().unwrap();
        let el = parse_generator("kron:9:8", false, 7).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(5).with_group_side(4)).unwrap();
        crate::tile::write_store(&store, dir.path(), "g").unwrap();
        let engine = || engine_for(dir.path(), "g", &Flags::default()).unwrap();
        let specs: Vec<QuerySpec> = ["bfs:3", "pagerank:5", "wcc", "kcore:3", "degrees"]
            .iter()
            .map(|q| q.parse().unwrap())
            .collect();

        let (batched, stats) = run_sweep_batch(&mut engine(), &specs).unwrap();
        assert!(stats.all_converged());
        let depths = reference::bfs_levels(&reference::bfs_csr(&el), 3);
        let reached = || depths.iter().filter(|&&d| d != reference::UNREACHED);
        let mut ranks: Vec<(VertexId, f64)> = (0..)
            .zip(reference::pagerank(&reference::bfs_csr(&el), 5, 0.85))
            .collect();
        ranks.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        ranks.truncate(crate::core::spec::PAGERANK_TOP);
        let degrees = crate::graph::CompactDegrees::from_edge_list(&el)
            .unwrap()
            .to_vec();
        let csr_values = [
            QueryValue::Bfs {
                visited: reached().count() as u64,
                max_depth: reached().copied().max().unwrap(),
            },
            QueryValue::PageRank { top: ranks },
            QueryValue::Wcc {
                components: reference::component_count(&reference::wcc_labels(&el)) as u64,
            },
            QueryValue::KCore {
                k: 3,
                members: kcore_reference(&el, 3).iter().filter(|&&m| m).count() as u64,
            },
            QueryValue::Degrees {
                max: degrees.iter().copied().max().unwrap(),
                total: degrees.iter().sum(),
            },
        ];
        for ((spec, in_batch), want) in specs.iter().zip(&batched).zip(&csr_values) {
            let (q, _) = run_sweep(&mut engine(), *spec).unwrap();
            let value = q.result();
            // Exact for every spec but PageRank, whose ranks agree to 1e-9.
            assert!(value.approx_eq(&in_batch.result(), 1e-9), "{spec}: batch");
            assert!(value.approx_eq(want, 1e-9), "{spec}: {value:?} vs {want:?}");
        }
    }

    #[test]
    fn text_roundtrip_workflow() {
        let dir = tempfile::tempdir().unwrap();
        let txt = dir.path().join("g.txt");
        std::fs::write(&txt, "# demo\n0 1\n1 2\n2 0\n").unwrap();
        let db = dir.path().join("db");
        let dbs = db.to_str().unwrap().to_string();
        assert_eq!(
            run(&s(&[
                "convert",
                txt.to_str().unwrap(),
                &dbs,
                "t",
                "--text",
                "--tile-bits",
                "2"
            ])),
            0
        );
        assert_eq!(run(&s(&["wcc", &dbs, "t"])), 0);
    }

    #[test]
    fn errors_produce_nonzero_exit() {
        assert_eq!(run(&s(&["nonsense"])), 2);
        assert_eq!(run(&s(&["bfs"])), 2);
        assert_eq!(run(&s(&[])), 2);
        assert_eq!(run(&s(&["info", "/nonexistent", "g"])), 2);
    }
}
