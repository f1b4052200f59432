//! Writing your own algorithm against the engine's `Algorithm` trait:
//! HITS (Kleinberg's hubs and authorities), which is not shipped with the
//! library.
//!
//! HITS is a natural fit for the tile format: the authority update pulls
//! along in-edges and the hub update along out-edges, and a tile `[i, j]`
//! carries *both* roles of each stored edge — the same one-copy-serves-
//! both-directions property the paper highlights for its algorithms. It
//! writes both endpoints, so it declares `UpdateMode::ShardedBoth`: the
//! engine hands each tile to the worker owning its destination partition
//! (authorities) and to the one owning its source partition (hubs), and
//! every update is a plain add.
//!
//! Run with: `cargo run --release --example custom_algorithm`

use gstore::core::atomics::{atomic_f64_vec, AtomicF64};
use gstore::graph::gen::{generate_powerlaw, PowerLawParams};
use gstore::prelude::*;

/// HITS with per-iteration L2 normalisation.
struct Hits {
    hub: Vec<f64>,
    authority: Vec<f64>,
    next_hub: Vec<AtomicF64>,
    next_auth: Vec<AtomicF64>,
    tolerance: f64,
    delta: f64,
}

impl Hits {
    fn new(tiling: Tiling, tolerance: f64) -> Self {
        let n = tiling.vertex_count() as usize;
        let init = 1.0 / (n.max(1) as f64).sqrt();
        Hits {
            hub: vec![init; n],
            authority: vec![init; n],
            next_hub: atomic_f64_vec(n, 0.0),
            next_auth: atomic_f64_vec(n, 0.0),
            tolerance,
            delta: f64::INFINITY,
        }
    }

    fn top(&self, scores: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.truncate(k);
        v
    }
}

impl Algorithm for Hits {
    fn name(&self) -> &'static str {
        "hits"
    }

    fn begin_iteration(&mut self, _iteration: u32) {
        for c in self.next_hub.iter().chain(&self.next_auth) {
            c.store(0.0);
        }
    }

    fn process_tile(&self, view: &TileView<'_>, sides: ShardSides) {
        // Each stored edge (u -> v) contributes hub[u] to authority[v] on
        // the destination side and authority[v] to hub[u] on the source
        // side; symmetric stores carry both orientations in one tuple, so
        // there each side also takes the reverse edge's update to its own
        // endpoint (a self-loop on the diagonal only once). `u` and `v`
        // are the record's 16-bit locals: they index the slices of each
        // per-vertex array that start at the tile's row and column
        // partitions.
        let (hub_u, hub_v) = view.partitions(&self.hub);
        let (auth_u, auth_v) = view.partitions(&self.authority);
        let (next_hub_u, next_hub_v) = view.partitions(&self.next_hub);
        let (next_auth_u, next_auth_v) = view.partitions(&self.next_auth);
        let diagonal = view.src_base == view.dst_base;
        view.for_each_local(|u, v| {
            let reverse = view.symmetric && !(diagonal && u == v);
            if sides.dst {
                next_auth_v[v].add_unsync(hub_u[u]);
                if reverse {
                    next_hub_v[v].add_unsync(auth_u[u]);
                }
            }
            if sides.src {
                next_hub_u[u].add_unsync(auth_v[v]);
                if reverse {
                    next_auth_u[u].add_unsync(hub_v[v]);
                }
            }
        });
    }

    fn update_mode(&self) -> UpdateMode {
        UpdateMode::ShardedBoth
    }

    fn end_iteration(&mut self, _iteration: u32) -> IterationOutcome {
        let normalize = |next: &[AtomicF64], out: &mut [f64]| -> f64 {
            let norm: f64 = next.iter().map(|c| c.load() * c.load()).sum::<f64>().sqrt();
            let mut delta = 0.0;
            if norm > 0.0 {
                for (o, c) in out.iter_mut().zip(next) {
                    let v = c.load() / norm;
                    delta += (v - *o).abs();
                    *o = v;
                }
            }
            delta
        };
        let da = normalize(&self.next_auth, &mut self.authority);
        let dh = normalize(&self.next_hub, &mut self.hub);
        self.delta = da + dh;
        if self.delta <= self.tolerance {
            IterationOutcome::Converged
        } else {
            IterationOutcome::Continue
        }
    }
}

fn main() -> gstore::graph::Result<()> {
    // A directed web-like graph: hubs (pages with many outlinks) and
    // authorities (pages many hubs point to) are distinct roles.
    let el = generate_powerlaw(&PowerLawParams::subdomain_like(4000))?;
    println!(
        "web graph: {} pages, {} links",
        el.vertex_count(),
        el.edge_count()
    );
    let store = TileStore::build(&el, &ConversionOptions::new(9).with_group_side(8))?;
    let mut engine = GStoreEngine::builder()
        .store(&store)
        .scr(ScrConfig::new(128 << 10, 8 << 20)?)
        .build()?;

    let mut hits = Hits::new(*store.layout().tiling(), 1e-8);
    let stats = engine.run(&mut hits, 200)?;
    println!(
        "HITS converged in {} iterations (final delta {:.2e}, {} read)\n",
        stats.iterations,
        hits.delta,
        gstore::tile::sizing::human_bytes(stats.bytes_read)
    );

    println!("top authorities (most linked-to by good hubs):");
    for (v, score) in hits.top(&hits.authority, 5) {
        println!("  page {v:>8}  authority {score:.5}");
    }
    println!("top hubs (link to the best authorities):");
    for (v, score) in hits.top(&hits.hub, 5) {
        println!("  page {v:>8}  hub       {score:.5}");
    }
    Ok(())
}
