//! The typed query-description surface: [`QuerySpec`] names every query
//! the engine can answer — sweep algorithms batched through
//! [`QueryBatch`](crate::QueryBatch) and point reads served by
//! [`PointReader`] — with one parse/Display grammar
//! shared by the CLI (`gstore batch` / `gstore query`), the `repro`
//! harness, and the `gstore serve` wire protocol.
//!
//! A spec round-trips through its text form (`parse(display(q)) == q`),
//! parse failures are typed [`GraphError::InvalidParameter`]s, and
//! execution produces a [`QueryValue`] — a self-describing result that
//! also round-trips through a stable one-line encoding, so a network
//! reply can be decoded back into the same value the engine produced.

use crate::algorithm::Algorithm;
use crate::algorithms::{Bfs, DegreeCount, KCore, PageRank, Wcc, UNREACHED};
use crate::pointread::PointReader;
use gstore_graph::{GraphError, Result, VertexId};
use gstore_tile::Tiling;
use std::fmt;
use std::io::Write;
use std::str::FromStr;

/// PageRank damping used by every spec-driven surface (CLI, serve, bench).
pub const DEFAULT_DAMPING: f64 = 0.85;

/// How many `(vertex, rank)` pairs a PageRank result carries.
pub const PAGERANK_TOP: usize = 8;

/// Whether a query runs as a full-sweep algorithm or a point read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Batched through [`QueryBatch`](crate::QueryBatch): one disk sweep
    /// per iteration, shared across all admitted queries.
    Sweep,
    /// Served from individual tiles by [`PointReader`].
    Point,
}

/// One query, fully described. The text grammar (also the wire form):
///
/// ```text
/// bfs[:root]        pagerank[:iters]   wcc   kcore[:k]   degrees
/// neighbors:v       degree:v           khop:v:k          walk:v:len
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySpec {
    /// Breadth-first search from `root` (default 0).
    Bfs { root: VertexId },
    /// Power-iteration PageRank for `iters` iterations (default 20).
    PageRank { iters: u32 },
    /// Weakly connected components.
    Wcc,
    /// k-core peeling (default k = 2).
    KCore { k: u64 },
    /// Degree counting sweep.
    Degrees,
    /// Adjacency list of one vertex.
    Neighbors { vertex: VertexId },
    /// Degree of one vertex.
    Degree { vertex: VertexId },
    /// Vertices within `hops` hops of `vertex`.
    Khop { vertex: VertexId, hops: u32 },
    /// Seeded random walk of `length` steps from `vertex`.
    Walk { vertex: VertexId, length: u32 },
}

impl QuerySpec {
    /// Sweep or point read.
    pub fn kind(&self) -> QueryKind {
        match self {
            QuerySpec::Bfs { .. }
            | QuerySpec::PageRank { .. }
            | QuerySpec::Wcc
            | QuerySpec::KCore { .. }
            | QuerySpec::Degrees => QueryKind::Sweep,
            _ => QueryKind::Point,
        }
    }
}

fn check_vertex(vertex: VertexId, vertex_count: u64) -> Result<()> {
    if vertex >= vertex_count {
        return Err(GraphError::VertexOutOfRange {
            vertex,
            vertex_count,
        });
    }
    Ok(())
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QuerySpec::Bfs { root } => write!(f, "bfs:{root}"),
            QuerySpec::PageRank { iters } => write!(f, "pagerank:{iters}"),
            QuerySpec::Wcc => write!(f, "wcc"),
            QuerySpec::KCore { k } => write!(f, "kcore:{k}"),
            QuerySpec::Degrees => write!(f, "degrees"),
            QuerySpec::Neighbors { vertex } => write!(f, "neighbors:{vertex}"),
            QuerySpec::Degree { vertex } => write!(f, "degree:{vertex}"),
            QuerySpec::Khop { vertex, hops } => write!(f, "khop:{vertex}:{hops}"),
            QuerySpec::Walk { vertex, length } => write!(f, "walk:{vertex}:{length}"),
        }
    }
}

impl FromStr for QuerySpec {
    type Err = GraphError;

    fn from_str(spec: &str) -> Result<Self> {
        let parts: Vec<&str> = spec.split(':').collect();
        let num = |s: &str, what: &str| -> Result<u64> { parse_field(spec, s, what) };
        match parts.as_slice() {
            ["bfs"] => Ok(QuerySpec::Bfs { root: 0 }),
            ["bfs", r] => Ok(QuerySpec::Bfs {
                root: num(r, "root")?,
            }),
            ["pagerank"] => Ok(QuerySpec::PageRank { iters: 20 }),
            ["pagerank", i] => Ok(QuerySpec::PageRank {
                iters: parse_field(spec, i, "iteration count")?,
            }),
            ["wcc"] => Ok(QuerySpec::Wcc),
            ["kcore"] => Ok(QuerySpec::KCore { k: 2 }),
            ["kcore", k] => Ok(QuerySpec::KCore { k: num(k, "k")? }),
            ["degrees"] => Ok(QuerySpec::Degrees),
            ["neighbors", v] => Ok(QuerySpec::Neighbors {
                vertex: num(v, "vertex")?,
            }),
            ["degree", v] => Ok(QuerySpec::Degree {
                vertex: num(v, "vertex")?,
            }),
            ["khop", v, k] => Ok(QuerySpec::Khop {
                vertex: num(v, "vertex")?,
                hops: parse_field(spec, k, "hop count")?,
            }),
            ["walk", v, l] => Ok(QuerySpec::Walk {
                vertex: num(v, "vertex")?,
                length: parse_field(spec, l, "walk length")?,
            }),
            _ => Err(GraphError::InvalidParameter(format!(
                "unknown query spec {spec:?}; try bfs[:root], pagerank[:iters], wcc, \
                 kcore[:k], degrees, neighbors:v, degree:v, khop:v:k, walk:v:len"
            ))),
        }
    }
}

/// Parses field `what` of `spec` in its own width: a value out of range
/// is a typed error naming the field, never a wrapped number.
fn parse_field<T: FromStr>(spec: &str, s: &str, what: &str) -> Result<T> {
    s.parse()
        .map_err(|_| GraphError::InvalidParameter(format!("bad {what} in spec {spec:?}")))
}

/// A sweep spec instantiated as a concrete algorithm, so its result can
/// be extracted after the run converges. [`SweepQuery::new`] is the one
/// place a sweep algorithm is built from a spec: the server, every CLI
/// sweep command and the bench all run sweeps through this wrapper.
pub enum SweepQuery {
    Bfs(Bfs),
    PageRank(PageRank),
    Wcc(Wcc),
    KCore(KCore),
    Degrees(DegreeCount),
}

impl SweepQuery {
    /// Instantiates `spec` over `tiling`. `degrees` is required for
    /// PageRank: the store's own, [`TileIndex::degrees`]; vertex arguments
    /// are range-checked here so a bad root is a typed error, not a panic.
    ///
    /// [`TileIndex::degrees`]: gstore_tile::TileIndex::degrees
    pub fn new(spec: &QuerySpec, tiling: Tiling, degrees: Option<&[u64]>) -> Result<Self> {
        match *spec {
            QuerySpec::Bfs { root } => {
                check_vertex(root, tiling.vertex_count())?;
                Ok(SweepQuery::Bfs(Bfs::new(tiling, root)))
            }
            QuerySpec::PageRank { iters } => {
                let deg = degrees.ok_or_else(|| {
                    GraphError::InvalidParameter("pagerank needs the store's degree array".into())
                })?;
                Ok(SweepQuery::PageRank(
                    PageRank::new(tiling, deg.to_vec(), DEFAULT_DAMPING).with_iterations(iters),
                ))
            }
            QuerySpec::Wcc => Ok(SweepQuery::Wcc(Wcc::new(tiling))),
            QuerySpec::KCore { k } => Ok(SweepQuery::KCore(KCore::new(tiling, k))),
            QuerySpec::Degrees => Ok(SweepQuery::Degrees(DegreeCount::new(tiling))),
            _ => Err(GraphError::InvalidParameter(format!(
                "{spec} is a point read, not a sweep query"
            ))),
        }
    }

    /// The mutable [`Algorithm`] view, for
    /// [`QueryBatch::push`](crate::QueryBatch::push).
    pub fn algorithm_mut(&mut self) -> &mut dyn Algorithm {
        match self {
            SweepQuery::Bfs(a) => a,
            SweepQuery::PageRank(a) => a,
            SweepQuery::Wcc(a) => a,
            SweepQuery::KCore(a) => a,
            SweepQuery::Degrees(a) => a,
        }
    }

    /// Extracts the converged result.
    pub fn result(&self) -> QueryValue {
        match self {
            SweepQuery::Bfs(a) => {
                let depths = a.depths();
                let max_depth = depths
                    .iter()
                    .filter(|&&d| d != UNREACHED)
                    .max()
                    .copied()
                    .unwrap_or(0);
                QueryValue::Bfs {
                    visited: a.visited_count(),
                    max_depth,
                }
            }
            SweepQuery::PageRank(a) => {
                let ranks = a.ranks();
                let mut ranked: Vec<(VertexId, f64)> = ranks
                    .iter()
                    .enumerate()
                    .map(|(v, &r)| (v as VertexId, r))
                    .collect();
                // Deterministic order: rank descending, vertex id ascending.
                ranked.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
                ranked.truncate(PAGERANK_TOP);
                QueryValue::PageRank { top: ranked }
            }
            SweepQuery::Wcc(a) => QueryValue::Wcc {
                components: a.component_count() as u64,
            },
            SweepQuery::KCore(a) => QueryValue::KCore {
                k: a.k(),
                members: a.core_members().len() as u64,
            },
            SweepQuery::Degrees(a) => {
                let degrees = a.degrees();
                QueryValue::Degrees {
                    max: degrees.iter().copied().max().unwrap_or(0),
                    total: degrees.iter().sum(),
                }
            }
        }
    }
}

/// Executes a point-read spec against `reader`, producing the canonical
/// [`QueryValue`] (neighbor and k-hop lists sorted; walks in step order).
pub fn run_point(reader: &PointReader, spec: &QuerySpec, seed: u64) -> Result<QueryValue> {
    match *spec {
        QuerySpec::Neighbors { vertex } => {
            let mut ns = reader.neighbors(vertex)?;
            ns.sort_unstable();
            Ok(QueryValue::Neighbors(ns))
        }
        QuerySpec::Degree { vertex } => Ok(QueryValue::Degree(reader.degree(vertex)?)),
        QuerySpec::Khop { vertex, hops } => {
            let mut vs = reader.khop(vertex, hops)?;
            vs.sort_unstable();
            Ok(QueryValue::Khop(vs))
        }
        QuerySpec::Walk { vertex, length } => {
            Ok(QueryValue::Walk(reader.walk(vertex, length, seed)?))
        }
        _ => Err(GraphError::InvalidParameter(format!(
            "{spec} is a sweep query, not a point read"
        ))),
    }
}

/// A query's result, in a form that survives the wire: [`QueryValue::encode`]
/// produces a stable one-line text rendering and [`QueryValue::decode`]
/// parses it back (`decode(encode(v)) == v`, exactly — f64 ranks use the
/// round-trip `{:e}` form).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    Bfs { visited: u64, max_depth: u32 },
    PageRank { top: Vec<(VertexId, f64)> },
    Wcc { components: u64 },
    KCore { k: u64, members: u64 },
    Degrees { max: u64, total: u64 },
    Neighbors(Vec<VertexId>),
    Degree(u64),
    Khop(Vec<VertexId>),
    Walk(Vec<VertexId>),
}

/// Appends `v` in decimal, without going through `fmt`.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `label` (a tag and/or ` key=`) followed by `v`.
fn push_field(out: &mut Vec<u8>, label: &str, v: u64) {
    out.extend_from_slice(label.as_bytes());
    push_u64(out, v);
}

/// Appends `<tag> n=<len> v=<id>,<id>,…`.
fn push_id_list(out: &mut Vec<u8>, tag: &str, vs: &[VertexId]) {
    out.extend_from_slice(tag.as_bytes());
    push_field(out, " n=", vs.len() as u64);
    out.extend_from_slice(b" v=");
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_u64(out, v);
    }
}

/// Parses a comma-separated id list in one pass over its bytes (decimal
/// digits only — what [`push_u64`] writes).
fn split_ids(s: &str) -> Result<Vec<VertexId>> {
    let bad = || GraphError::Format("malformed vertex id list in result".into());
    let mut ids = Vec::new();
    if s.is_empty() {
        return Ok(ids);
    }
    // `id` is `None` between a comma and the next digit.
    let mut id: Option<u64> = None;
    for b in s.bytes() {
        match b {
            b'0'..=b'9' => {
                let grown = id.unwrap_or(0).checked_mul(10).ok_or_else(bad)?;
                id = Some(grown.checked_add(u64::from(b - b'0')).ok_or_else(bad)?);
            }
            b',' => ids.push(id.take().ok_or_else(bad)?),
            _ => return Err(bad()),
        }
    }
    ids.push(id.ok_or_else(bad)?);
    Ok(ids)
}

impl QueryValue {
    /// Stable one-line text form (the wire payload of an OK reply).
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        String::from_utf8(out).expect("encode_into writes ASCII only")
    }

    /// Appends [`Self::encode`]'s text to `out`, digit by digit: no
    /// per-id allocation, no intermediate `String`. The serve daemon
    /// points this at its per-connection frame buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            QueryValue::Bfs { visited, max_depth } => {
                push_field(out, "bfs visited=", *visited);
                push_field(out, " max_depth=", u64::from(*max_depth));
            }
            QueryValue::PageRank { top } => {
                out.extend_from_slice(b"pagerank top=");
                for (i, (v, r)) in top.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    push_u64(out, *v);
                    // `{:e}` is the round-trip float form; at most
                    // PAGERANK_TOP of them, so `fmt` is fine here.
                    write!(out, ":{r:e}").expect("writing to a Vec cannot fail");
                }
            }
            QueryValue::Wcc { components } => push_field(out, "wcc components=", *components),
            QueryValue::KCore { k, members } => {
                push_field(out, "kcore k=", *k);
                push_field(out, " members=", *members);
            }
            QueryValue::Degrees { max, total } => {
                push_field(out, "degrees max=", *max);
                push_field(out, " total=", *total);
            }
            QueryValue::Neighbors(vs) => push_id_list(out, "neighbors", vs),
            QueryValue::Degree(d) => push_field(out, "degree d=", *d),
            QueryValue::Khop(vs) => push_id_list(out, "khop", vs),
            QueryValue::Walk(vs) => push_id_list(out, "walk", vs),
        }
    }

    /// Parses [`Self::encode`]'s output back into the value.
    pub fn decode(line: &str) -> Result<QueryValue> {
        let bad = || GraphError::Format(format!("malformed query result {line:?}"));
        // The encoder separates with single spaces; splitting on that one
        // byte (not on Unicode whitespace) is a memchr over the long
        // `v=` token of a list reply.
        let mut it = line.split(' ').filter(|tok| !tok.is_empty());
        let tag = it.next().ok_or_else(bad)?;
        let mut fields = std::collections::HashMap::new();
        for tok in it {
            let (k, v) = tok.split_once('=').ok_or_else(bad)?;
            fields.insert(k, v);
        }
        let field = |k: &str| fields.get(k).copied().ok_or_else(bad);
        let uint = |k: &str| -> Result<u64> { field(k)?.parse().map_err(|_| bad()) };
        let value = match tag {
            "bfs" => QueryValue::Bfs {
                visited: uint("visited")?,
                max_depth: field("max_depth")?.parse().map_err(|_| bad())?,
            },
            "pagerank" => {
                let raw = field("top")?;
                let mut top = Vec::new();
                if !raw.is_empty() {
                    for pair in raw.split(',') {
                        let (v, r) = pair.split_once(':').ok_or_else(bad)?;
                        top.push((v.parse().map_err(|_| bad())?, r.parse().map_err(|_| bad())?));
                    }
                }
                QueryValue::PageRank { top }
            }
            "wcc" => QueryValue::Wcc {
                components: uint("components")?,
            },
            "kcore" => QueryValue::KCore {
                k: uint("k")?,
                members: uint("members")?,
            },
            "degrees" => QueryValue::Degrees {
                max: uint("max")?,
                total: uint("total")?,
            },
            "neighbors" | "khop" | "walk" => {
                let vs = split_ids(field("v")?)?;
                if vs.len() as u64 != uint("n")? {
                    return Err(bad());
                }
                match tag {
                    "neighbors" => QueryValue::Neighbors(vs),
                    "khop" => QueryValue::Khop(vs),
                    _ => QueryValue::Walk(vs),
                }
            }
            "degree" => QueryValue::Degree(uint("d")?),
            _ => return Err(bad()),
        };
        Ok(value)
    }

    /// Equality with a tolerance on PageRank ranks (batch and solo runs
    /// agree only to ~1e-9 — the PR-4 invariant); every other variant
    /// compares exactly.
    pub fn approx_eq(&self, other: &QueryValue, tol: f64) -> bool {
        match (self, other) {
            (QueryValue::PageRank { top: a }, QueryValue::PageRank { top: b }) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((va, ra), (vb, rb))| va == vb && (ra - rb).abs() <= tol)
            }
            _ => self == other,
        }
    }

    /// A short human-oriented rendering for the CLI (long vertex lists
    /// collapse to a head + count so a hub vertex does not flood the
    /// terminal).
    pub fn summary(&self) -> String {
        let preview = |vs: &[VertexId]| -> String {
            let head: Vec<String> = vs.iter().take(8).map(|v| v.to_string()).collect();
            if vs.len() > 8 {
                format!("{} ...", head.join(" "))
            } else {
                head.join(" ")
            }
        };
        match self {
            QueryValue::Bfs { visited, max_depth } => {
                format!("visited {visited} vertices, max depth {max_depth}")
            }
            QueryValue::PageRank { top } => {
                let pairs: Vec<String> = top
                    .iter()
                    .take(3)
                    .map(|(v, r)| format!("{v}:{r:.6}"))
                    .collect();
                format!("top {}", pairs.join(" "))
            }
            QueryValue::Wcc { components } => format!("{components} components"),
            QueryValue::KCore { k, members } => format!("{members} vertices in the {k}-core"),
            QueryValue::Degrees { max, total } => format!("max degree {max}, total {total}"),
            QueryValue::Neighbors(vs) => format!("{} neighbors: {}", vs.len(), preview(vs)),
            QueryValue::Degree(d) => format!("{d}"),
            QueryValue::Khop(vs) => format!("{} vertices in range: {}", vs.len(), preview(vs)),
            QueryValue::Walk(vs) => {
                format!("{} steps: {}", vs.len().saturating_sub(1), preview(vs))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::{run_in_memory, store_from_edges};
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use proptest::collection::vec;
    use proptest::prelude::any;

    #[test]
    fn parse_display_round_trip() {
        for spec in [
            "bfs:0",
            "bfs:17",
            "pagerank:5",
            "wcc",
            "kcore:3",
            "degrees",
            "neighbors:4",
            "degree:9",
            "khop:2:3",
            "walk:1:16",
        ] {
            let q: QuerySpec = spec.parse().unwrap();
            assert_eq!(q.to_string(), spec);
            let again: QuerySpec = q.to_string().parse().unwrap();
            assert_eq!(again, q);
        }
    }

    #[test]
    fn bare_forms_take_defaults() {
        assert_eq!(
            "bfs".parse::<QuerySpec>().unwrap(),
            QuerySpec::Bfs { root: 0 }
        );
        assert_eq!(
            "pagerank".parse::<QuerySpec>().unwrap(),
            QuerySpec::PageRank { iters: 20 }
        );
        assert_eq!(
            "kcore".parse::<QuerySpec>().unwrap(),
            QuerySpec::KCore { k: 2 }
        );
    }

    #[test]
    fn parse_errors_are_typed() {
        for bad in [
            "bogus",
            "bfs:x",
            "bfs:0:1",
            "wcc:1",
            "kcore:x",
            "neighbors",
            "khop:1",
            "khop:1:2:3",
            "walk:1",
            "",
        ] {
            match bad.parse::<QuerySpec>() {
                Err(GraphError::InvalidParameter(_)) => {}
                other => panic!("{bad:?} parsed as {other:?}"),
            }
        }
    }

    /// Parses `spec`, which must fail with an error naming `field`.
    fn assert_rejects(spec: &str, field: &str) {
        match spec.parse::<QuerySpec>() {
            Err(GraphError::InvalidParameter(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("{spec:?} parsed as {other:?}"),
        }
    }

    #[test]
    fn iteration_count_out_of_range_is_rejected() {
        assert_rejects("pagerank:4294967297", "iteration count");
        assert_eq!(
            "pagerank:4294967295".parse::<QuerySpec>().unwrap(),
            QuerySpec::PageRank { iters: u32::MAX }
        );
    }

    #[test]
    fn hop_count_out_of_range_is_rejected() {
        assert_rejects("khop:0:4294967298", "hop count");
    }

    #[test]
    fn walk_length_out_of_range_is_rejected() {
        assert_rejects("walk:0:4294967296", "walk length");
    }

    #[test]
    fn max_depth_out_of_range_is_rejected() {
        let bad = "bfs visited=3 max_depth=4294967298";
        assert!(
            matches!(QueryValue::decode(bad), Err(GraphError::Format(_))),
            "{bad:?}"
        );
        let good = QueryValue::decode("bfs visited=3 max_depth=4294967295").unwrap();
        assert_eq!(
            good,
            QueryValue::Bfs {
                visited: 3,
                max_depth: u32::MAX
            }
        );
    }

    #[test]
    fn kind_and_degree_requirements() {
        let sweep: QuerySpec = "pagerank:3".parse().unwrap();
        assert_eq!(sweep.kind(), QueryKind::Sweep);
        let tiling = Tiling::new(8, 2, gstore_graph::GraphKind::Directed).unwrap();
        assert!(SweepQuery::new(&sweep, tiling, None).is_err());
        assert!(SweepQuery::new(&sweep, tiling, Some(&[0; 8])).is_ok());
        let point: QuerySpec = "khop:0:2".parse().unwrap();
        assert_eq!(point.kind(), QueryKind::Point);
    }

    #[test]
    fn sweep_results_match_direct_algorithm_runs() {
        let el = generate_rmat(&RmatParams::kron(7, 4)).unwrap();
        let store = store_from_edges(&el, 3);
        let tiling = *store.layout().tiling();

        let degrees = store.degrees().to_vec();

        for spec in ["bfs:0", "pagerank:4", "wcc", "kcore:2", "degrees"] {
            let q: QuerySpec = spec.parse().unwrap();
            let mut sweep = SweepQuery::new(&q, tiling, Some(&degrees)).unwrap();
            run_in_memory(&store, sweep.algorithm_mut(), 1000);
            let value = sweep.result();
            // The result survives the wire encoding bit for bit.
            assert_eq!(QueryValue::decode(&value.encode()).unwrap(), value);
            assert!(value.approx_eq(&value, 0.0));
            assert!(!value.summary().is_empty());
        }

        // Spot-check one extraction against the raw algorithm.
        let mut wcc = Wcc::new(tiling);
        run_in_memory(&store, &mut wcc, 1000);
        let mut sweep = SweepQuery::new(&QuerySpec::Wcc, tiling, None).unwrap();
        run_in_memory(&store, sweep.algorithm_mut(), 1000);
        assert_eq!(
            sweep.result(),
            QueryValue::Wcc {
                components: wcc.component_count() as u64
            }
        );
    }

    #[test]
    fn factory_rejects_mismatched_kinds_and_bad_roots() {
        let el = generate_rmat(&RmatParams::kron(6, 4)).unwrap();
        let store = store_from_edges(&el, 3);
        let tiling = *store.layout().tiling();
        let n = tiling.vertex_count();

        let point: QuerySpec = "degree:0".parse().unwrap();
        assert!(matches!(
            SweepQuery::new(&point, tiling, None),
            Err(GraphError::InvalidParameter(_))
        ));
        assert!(matches!(
            SweepQuery::new(&QuerySpec::Bfs { root: n }, tiling, None),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            SweepQuery::new(&QuerySpec::PageRank { iters: 2 }, tiling, None),
            Err(GraphError::InvalidParameter(_))
        ));
        let mut wcc = SweepQuery::new(&QuerySpec::Wcc, tiling, None).unwrap();
        assert_eq!(wcc.algorithm_mut().name(), "wcc");
    }

    #[test]
    fn query_value_decode_rejects_malformed_lines() {
        for bad in [
            "",
            "bogus x=1",
            "bfs visited=3",
            "bfs visited=x max_depth=1",
            "neighbors n=2 v=1",
            "neighbors n=2 v=1,",
            "neighbors n=2 v=,1",
            "neighbors n=2 v=1,,2",
            "neighbors n=1 v=+1",
            "neighbors n=1 v=18446744073709551616",
            "khop n=1 v=1x",
            "pagerank top=1",
            "degree",
        ] {
            assert!(
                matches!(QueryValue::decode(bad), Err(GraphError::Format(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    /// The `format!`/`join` encoder this module shipped before
    /// `encode_into` — the reference the wire text must keep matching
    /// byte for byte.
    fn reference_encode(value: &QueryValue) -> String {
        let join_ids = |vs: &[VertexId]| {
            let ids: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
            ids.join(",")
        };
        match value {
            QueryValue::Bfs { visited, max_depth } => {
                format!("bfs visited={visited} max_depth={max_depth}")
            }
            QueryValue::PageRank { top } => {
                let pairs: Vec<String> = top.iter().map(|(v, r)| format!("{v}:{r:e}")).collect();
                format!("pagerank top={}", pairs.join(","))
            }
            QueryValue::Wcc { components } => format!("wcc components={components}"),
            QueryValue::KCore { k, members } => format!("kcore k={k} members={members}"),
            QueryValue::Degrees { max, total } => format!("degrees max={max} total={total}"),
            QueryValue::Neighbors(vs) => format!("neighbors n={} v={}", vs.len(), join_ids(vs)),
            QueryValue::Degree(d) => format!("degree d={d}"),
            QueryValue::Khop(vs) => format!("khop n={} v={}", vs.len(), join_ids(vs)),
            QueryValue::Walk(vs) => format!("walk n={} v={}", vs.len(), join_ids(vs)),
        }
    }

    /// Every variant built from one pool of generated numbers.
    fn all_variants(ids: Vec<VertexId>, a: u64, b: u64, ranks: Vec<f64>) -> Vec<QueryValue> {
        vec![
            QueryValue::Bfs {
                visited: a,
                max_depth: b as u32,
            },
            QueryValue::PageRank {
                top: ids.iter().copied().zip(ranks).collect(),
            },
            QueryValue::Wcc { components: a },
            QueryValue::KCore { k: a, members: b },
            QueryValue::Degrees { max: a, total: b },
            QueryValue::Neighbors(ids.clone()),
            QueryValue::Degree(b),
            QueryValue::Khop(ids.clone()),
            QueryValue::Walk(ids),
        ]
    }

    fn assert_codec_holds(value: &QueryValue) {
        let text = value.encode();
        assert_eq!(text, reference_encode(value));
        // `encode_into` appends: what is already in the buffer stays.
        let mut framed = b"OK ".to_vec();
        value.encode_into(&mut framed);
        assert_eq!(framed, format!("OK {text}").into_bytes());
        assert_eq!(&QueryValue::decode(&text).unwrap(), value);
    }

    #[test]
    fn encode_edge_cases_match_the_reference() {
        let ranks = vec![0.0, 1.0, 1.5e-7, f64::MIN_POSITIVE, f64::MAX, -2.5];
        for ids in [
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![9, 10, 99, 100, u64::MAX - 1, u64::MAX],
        ] {
            for (a, b) in [(0, 0), (u64::MAX, u64::MAX), (10, 1_000_000)] {
                for value in all_variants(ids.clone(), a, b, ranks.clone()) {
                    assert_codec_holds(&value);
                }
            }
        }
    }

    proptest::proptest! {
        /// `encode_into` writes the reference encoder's text for every
        /// variant, and the text still decodes to the value.
        #[test]
        fn encode_into_matches_the_reference_encoder(
            ids in vec(any::<u64>(), 0..40),
            small_ids in vec(0u64..1000, 0..40),
            a in any::<u64>(),
            b in any::<u64>(),
            rank_bits in vec(any::<u64>(), 40),
        ) {
            // Any finite f64, not just [0, 1): the `{:e}` form must
            // round-trip whatever a rank could ever be.
            let ranks: Vec<f64> = rank_bits
                .into_iter()
                .map(f64::from_bits)
                .map(|r| if r.is_finite() { r } else { 0.25 })
                .collect();
            for ids in [ids, small_ids] {
                for value in all_variants(ids, a, b, ranks.clone()) {
                    assert_codec_holds(&value);
                }
            }
        }
    }

    #[test]
    fn pagerank_values_compare_with_tolerance() {
        let a = QueryValue::PageRank {
            top: vec![(0, 0.5), (1, 0.25)],
        };
        let b = QueryValue::PageRank {
            top: vec![(0, 0.5 + 5e-10), (1, 0.25)],
        };
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-12));
        let c = QueryValue::PageRank {
            top: vec![(2, 0.5), (1, 0.25)],
        };
        assert!(!a.approx_eq(&c, 1e-3));
    }
}
