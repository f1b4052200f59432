//! Inputs: scales, seeded generators, scratch directories and set-up.
//!
//! Everything a workload runs on is made here from `--seed`; the program
//! under test only ever sees generated inputs. Stores are real files in a
//! scratch directory under the current directory (the benchmark may only
//! write inside its checkout), removed when the [`WorkDir`] drops.

use crate::trace::Tracer;
use gstore_core::GStoreEngine;
use gstore_graph::gen::{generate_powerlaw, generate_rmat, PowerLawParams, RmatParams};
use gstore_graph::{CompactDegrees, Csr, CsrDirection, EdgeList, GraphError, Result, VertexId};
use gstore_scr::ScrConfig;
use gstore_tile::{write_store, ConversionOptions, TileIndex, TilePaths, TileStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// How big the generated graphs are. The graphs set the ratio of data to
/// memory budget, so budgets are stated as fractions of the store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub name: &'static str,
    pub kron_scale: u32,
    pub kron_edge_factor: u64,
    pub twitter_divisor: u64,
    /// `convert_streaming`'s working-set budget in the ingest workload.
    pub stream_mem_mb: u64,
    /// Divides the fixed repetition counts of the layer replays.
    pub count_div: usize,
}

impl Scale {
    /// Smoke-test size: `kron(14, 8)` and `twitter_like(4096)`.
    pub const QUICK: Scale = Scale {
        name: "quick",
        kron_scale: 14,
        kron_edge_factor: 8,
        twitter_divisor: 4096,
        stream_mem_mb: 1,
        count_div: 4,
    };
    /// What `BENCHMARK.json` runs: `kron(18, 16)` (262,144 vertices,
    /// 4.2 M edges, 16 MiB store) and `twitter_like(384)` — the largest
    /// graphs whose three set-ups plus a timed run fit the run-time cap.
    pub const STD: Scale = Scale {
        name: "std",
        kron_scale: 18,
        kron_edge_factor: 16,
        twitter_divisor: 384,
        stream_mem_mb: 4,
        count_div: 1,
    };
}

/// Which generated graph a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphShape {
    /// Kronecker, undirected, stored as the upper triangle.
    Kron,
    /// Twitter-shaped power law, directed, with one hub tile.
    Twitter,
}

/// The CLI's default tile geometry.
pub const TILE_BITS: u32 = 12;
pub const GROUP_SIDE: u32 = 16;

pub fn conversion_options() -> ConversionOptions {
    ConversionOptions::new(TILE_BITS).with_group_side(GROUP_SIDE)
}

/// A scratch directory `./.gbench_work-<pid>-<n>-<label>`, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

impl WorkDir {
    pub fn new(label: &str) -> Result<WorkDir> {
        let path = PathBuf::from(format!(
            ".gbench_work-{}-{}-{label}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// SplitMix64: the benchmark's only source of randomness, so a seed means
/// the same inputs on every toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A table of vertex ids requested with Zipf(1.0) popularity: the id at
/// rank `r` is asked for with probability ∝ 1/r, and the seed decides which
/// rank each request draws.
///
/// The ids themselves are a fixed stride sequence, not seeded. Both
/// generators tie a vertex's expected degree to its id (no scrambling), so
/// fixed ids give the hot keys the same degrees under every seed; a seeded
/// table made the rank-1 key a leaf under one seed and a hub under the
/// next, and every point metric followed that one draw.
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    table: Vec<VertexId>,
    cdf: Vec<f64>,
}

impl ZipfKeys {
    pub const TABLE_SIZE: usize = 65_536;
    /// Knuth's multiplicative-hash prime: coprime with every vertex count
    /// below it, so the strided ids do not repeat within the table.
    const STRIDE: u64 = 2_654_435_761;

    pub fn new(vertex_count: u64) -> ZipfKeys {
        let len = Self::TABLE_SIZE.min(vertex_count as usize).max(1);
        let table: Vec<VertexId> = (1..=len as u64)
            .map(|r| (r as u128 * Self::STRIDE as u128 % vertex_count as u128) as u64)
            .collect();
        let mut cdf = Vec::with_capacity(len);
        let mut acc = 0.0;
        for r in 1..=len {
            acc += 1.0 / r as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfKeys { table, cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> VertexId {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u);
        self.table[rank.min(self.table.len() - 1)]
    }

    /// The `n` most popular ids.
    pub fn head(&self, n: usize) -> &[VertexId] {
        &self.table[..n.min(self.table.len())]
    }
}

/// One point request of the 4 `neighbors` : 4 `degree` : 1 `khop:v:1` :
/// 1 `walk:v:16` rotation. The 80/20 split keeps the median inside the
/// single-vertex mode and the tail inside the traversal mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKind {
    Neighbors,
    Degree,
    Khop1,
    Walk16,
}

impl PointKind {
    pub const ALL: [PointKind; 4] = [
        PointKind::Neighbors,
        PointKind::Degree,
        PointKind::Khop1,
        PointKind::Walk16,
    ];

    /// The kind of the `i`-th request of a client.
    pub fn rotation(i: usize) -> PointKind {
        match i % 10 {
            0..=3 => PointKind::Neighbors,
            4..=7 => PointKind::Degree,
            8 => PointKind::Khop1,
            _ => PointKind::Walk16,
        }
    }

    pub fn spec(self, v: VertexId) -> String {
        match self {
            PointKind::Neighbors => format!("neighbors:{v}"),
            PointKind::Degree => format!("degree:{v}"),
            PointKind::Khop1 => format!("khop:{v}:1"),
            PointKind::Walk16 => format!("walk:{v}:16"),
        }
    }
}

pub const WALK_LEN: u32 = 16;

/// A generated graph, converted and written to disk.
pub struct Dataset {
    pub el: EdgeList,
    /// Out-degrees (undirected degrees for Kron): PageRank's input and
    /// the oracle for `degree` point reads.
    pub degrees: Vec<u64>,
    pub store: TileStore,
    pub paths: TilePaths,
}

impl Dataset {
    pub fn edges(&self) -> u64 {
        self.store.edge_count()
    }

    pub fn data_bytes(&self) -> u64 {
        self.store.data_bytes()
    }

    pub fn csr(&self) -> Csr {
        Csr::from_edge_list(&self.el, CsrDirection::Out)
    }

    /// `n` seeded BFS roots with at least one out-edge.
    pub fn bfs_roots(&self, n: usize, seed: u64) -> Vec<VertexId> {
        let mut rng = Rng::new(seed ^ 0x726f_6f74);
        let vertices = self.el.vertex_count();
        let mut roots = Vec::with_capacity(n);
        while roots.len() < n {
            let v = rng.below(vertices);
            if self.degrees[v as usize] > 0 {
                roots.push(v);
            }
        }
        roots
    }
}

pub fn generate(shape: GraphShape, scale: &Scale, seed: u64) -> Result<EdgeList> {
    match shape {
        GraphShape::Kron => generate_rmat(
            &RmatParams::kron(scale.kron_scale, scale.kron_edge_factor).with_seed(seed),
        ),
        GraphShape::Twitter => {
            generate_powerlaw(&PowerLawParams::twitter_like(scale.twitter_divisor).with_seed(seed))
        }
    }
}

/// Generates, converts and writes one graph under `dir` as `g.tiles` +
/// `g.start` — the part of set-up every store-backed workload shares.
pub fn build_dataset(
    shape: GraphShape,
    scale: &Scale,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
) -> Result<Dataset> {
    let el = tracer.span("graph.generate", || generate(shape, scale, seed))?;
    let degrees = tracer
        .span("graph.degrees", || CompactDegrees::from_edge_list(&el))?
        .to_vec();
    let store = tracer.span("tile.build", || {
        TileStore::build(&el, &conversion_options())
    })?;
    let paths = tracer.span("tile.write_store", || write_store(&store, dir, "g"))?;
    Ok(Dataset {
        el,
        degrees,
        store,
        paths,
    })
}

/// The share of a store's edges its largest tile holds — the skew the
/// Twitter-shaped workloads exist for.
pub fn hub_tile_share(index: &TileIndex) -> f64 {
    let largest = index.start_edge.windows(2).map(|w| w[1] - w[0]).max();
    largest.unwrap_or(0) as f64 / index.edge_count().max(1) as f64
}

/// Bytes of a store's two files.
pub fn disk_bytes(paths: &TilePaths) -> Result<u64> {
    Ok(std::fs::metadata(&paths.tiles)?.len() + std::fs::metadata(&paths.start)?.len())
}

/// The streaming memory policy of the out-of-core workloads: segments of
/// data/32 and a total of data/4 (2 MiB and 16 MiB on the 64 MiB store).
pub fn stream_scr(data_bytes: u64) -> Result<ScrConfig> {
    let seg = (data_bytes / 32).max(4096);
    ScrConfig::new(seg, (data_bytes / 4).max(2 * seg))
}

/// The cache-fits policy: the same segments, a pool of twice the data.
pub fn resident_scr(data_bytes: u64) -> Result<ScrConfig> {
    let seg = (data_bytes / 32).max(4096);
    ScrConfig::new(seg, 2 * data_bytes + 2 * seg)
}

/// An engine over a stored graph in the CLI's default configuration
/// (`.paths()`, `IoBackend::Auto`) under the given memory policy.
pub fn engine_on(
    paths: &TilePaths,
    scr: ScrConfig,
    point_cache_bytes: u64,
) -> Result<GStoreEngine> {
    GStoreEngine::builder()
        .paths(paths)
        .scr(scr)
        .point_read_cache_bytes(point_cache_bytes)
        .build()
}

extern "C" {
    /// glibc: returns free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
    /// glibc: sets one allocator parameter; returns 0 on failure.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `mallopt` parameters, from glibc's `<malloc.h>`.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Sets an allocator parameter. A libc that ignores it only loses
/// `peak_rss_mb` its steadiness.
fn set_mallopt(param: i32, value: i32) {
    // SAFETY: `mallopt` takes two integers and only changes thresholds of
    // later allocations.
    unsafe { mallopt(param, value) };
}

/// The allocator during set-up: every allocation of 128 KiB or more is a
/// mapping of its own, unmapped when freed.
///
/// That is glibc's threshold before it drifts. Left to drift (up to 32 MiB,
/// after the first large free), the edge list, the in-memory store and the
/// converter's scratch are cut from the heap and stay there as dirty free
/// chunks. The engine's and the point reader's registered I/O buffers are
/// `alloc_zeroed`: cut from such a chunk they are cleared by hand and count
/// in RSS from then on, cut from fresh pages they stay out of it until
/// read into. Which it was turned on thread timing during set-up:
/// `peak_rss_mb` on `point_zipf` read 75 MB or 86 MB in runs of one seed.
/// Mapped, the harness's garbage leaves nothing behind to build on.
pub fn heap_for_setup() {
    set_mallopt(M_MMAP_THRESHOLD, 128 << 10);
}

/// The allocator during the timed section: the thresholds glibc's drift
/// ends at in a long-lived process (32 MiB to map, 64 MiB to trim), so a
/// query's vectors are cut from the heap and reused as they are there. With
/// the set-up threshold kept, each would be mapped, faulted in and unmapped
/// per query: `pr_resident` spent twice the system time and ran 3 % slower.
pub fn heap_for_timing() {
    set_mallopt(M_MMAP_THRESHOLD, 32 << 20);
    set_mallopt(M_TRIM_THRESHOLD, 64 << 20);
}

/// Resets the process's peak-RSS mark so `VmHWM` afterwards covers only
/// what follows. Returns false where the kernel refuses.
///
/// What set-up freed below the mapping threshold is handed back to the
/// kernel first.
pub fn reset_peak_rss() -> bool {
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time from any thread; it only releases pages the allocator holds free.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` in MB.
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| GraphError::Format("no VmHWM line in /proc/self/status".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_and_zipf_are_seeded() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(a.below(10) < 10);
        let u = a.unit();
        assert!((0.0..1.0).contains(&u));

        let keys = ZipfKeys::new(1000);
        let mut distinct = keys.head(1000).to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 1000, "strided ids do not repeat");
        // Zipf(1.0) over 1000 ranks puts ~13 % of the mass on rank 1.
        let mut rng = Rng::new(1);
        let top = keys.head(1)[0];
        let hits = (0..10_000).filter(|_| keys.sample(&mut rng) == top).count();
        assert!((900..1800).contains(&hits), "rank-1 hits {hits}");
    }

    #[test]
    fn rotation_is_80_20() {
        let kinds: Vec<PointKind> = (0..10).map(PointKind::rotation).collect();
        assert_eq!(
            kinds.iter().filter(|k| **k == PointKind::Neighbors).count(),
            4
        );
        assert_eq!(kinds.iter().filter(|k| **k == PointKind::Degree).count(), 4);
        assert_eq!(kinds[8], PointKind::Khop1);
        assert_eq!(kinds[9], PointKind::Walk16);
        assert_eq!(PointKind::Walk16.spec(5), "walk:5:16");
    }

    #[test]
    fn datasets_follow_the_seed() {
        let dir = WorkDir::new("data-test").unwrap();
        let t = Tracer::new(false);
        let a = build_dataset(GraphShape::Kron, &Scale::QUICK, 1, dir.path(), &t).unwrap();
        let b = generate(GraphShape::Kron, &Scale::QUICK, 1).unwrap();
        let c = generate(GraphShape::Kron, &Scale::QUICK, 2).unwrap();
        assert_eq!(a.el, b);
        assert_ne!(a.el, c);
        assert_eq!(a.edges(), a.el.edge_count());
        assert!(disk_bytes(&a.paths).unwrap() > a.data_bytes());
        assert!(a.bfs_roots(4, 9).iter().all(|&r| a.degrees[r as usize] > 0));
        let path = dir.path().to_path_buf();
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn budgets_scale_with_the_store() {
        let s = stream_scr(64 << 20).unwrap();
        assert_eq!(s.segment_bytes, 2 << 20);
        assert_eq!(s.total_bytes, 16 << 20);
        assert_eq!(s.pool_bytes(), 12 << 20);
        let r = resident_scr(64 << 20).unwrap();
        assert_eq!(r.pool_bytes(), 128 << 20);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
